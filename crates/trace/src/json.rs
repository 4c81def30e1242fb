//! A minimal dependency-free JSON parser and `trace_event` validator.
//!
//! The workspace is serde-free (DESIGN.md §6), so exported traces are
//! validated by hand: [`parse`] is a small recursive-descent JSON parser
//! and [`validate_trace_events`] checks the structural contract that
//! Perfetto's legacy JSON importer requires of our output.

use std::collections::BTreeSet;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub(crate) fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts, so hostile input is
/// an error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    /// A value nested in `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            members.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs are not produced by our
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| "surrogate in \\u escape".to_string())?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, of
/// nesting deeper than 128 arrays/objects, or of trailing
/// non-whitespace input.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing input");
    }
    Ok(v)
}

/// What [`validate_trace_events`] found in a valid trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events (metadata + spans).
    pub n_events: usize,
    /// Distinct `cat` values across `"X"` events.
    pub categories: BTreeSet<String>,
    /// Distinct process ids.
    pub pids: BTreeSet<i64>,
}

/// Validates the structural contract of an exported trace:
/// a top-level object with a `traceEvents` array whose members each have
/// `ph`/`pid`/`tid`/`name`, where `"X"` events also carry non-negative
/// `ts` and `dur`, a non-empty `cat`, and an `args` object.
///
/// # Errors
///
/// Returns a description of the first violated constraint.
pub fn validate_trace_events(s: &str) -> Result<TraceSummary, String> {
    let doc = parse(s)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing `traceEvents`")?
        .as_arr()
        .ok_or("`traceEvents` is not an array")?;
    let mut categories = BTreeSet::new();
    let mut pids = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("event {i}: bad or missing `{field}`");
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_f64)
            .ok_or_else(|| ctx("pid"))?;
        pids.insert(pid as i64);
        ev.get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| ctx("tid"))?;
        ev.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("name"))?;
        match ph {
            "M" => {
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .ok_or_else(|| ctx("args.name"))?;
            }
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| ctx("ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| ctx("dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                let cat = ev
                    .get("cat")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ctx("cat"))?;
                if cat.is_empty() {
                    return Err(format!("event {i}: empty cat"));
                }
                ev.get("args").ok_or_else(|| ctx("args"))?;
                categories.insert(cat.to_string());
            }
            other => return Err(format!("event {i}: unsupported ph `{other}`")),
        }
    }
    Ok(TraceSummary {
        n_events: events.len(),
        categories,
        pids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5e1, "x\n", true, null], "b": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(a[3], Value::Bool(true));
        assert_eq!(a[4], Value::Null);
        assert_eq!(v.get("b"), Some(&Value::Obj(vec![])));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn validator_accepts_minimal_trace() {
        let s = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"m0"}},
            {"ph":"X","pid":1,"tid":0,"ts":0.5,"dur":1.0,"name":"n","cat":"compute","args":{}}
        ]}"#;
        let sum = validate_trace_events(s).unwrap();
        assert_eq!(sum.n_events, 2);
        assert!(sum.categories.contains("compute"));
    }

    #[test]
    fn validator_rejects_missing_fields() {
        let no_cat = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":0,"ts":0,"dur":1,"name":"n","args":{}}
        ]}"#;
        assert!(validate_trace_events(no_cat).unwrap_err().contains("cat"));
        let neg = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":0,"ts":-1,"dur":1,"name":"n","cat":"c","args":{}}
        ]}"#;
        assert!(validate_trace_events(neg).unwrap_err().contains("negative"));
        assert!(validate_trace_events(r#"{"a":1}"#).is_err());
    }
}
