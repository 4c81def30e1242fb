//! Spans recorded by the benchmark's own code around each call into a
//! layer: name, start, end, parent. Kept in memory and written out once
//! at exit. With tracing off a span still times its call — the probes
//! read their durations either way — but records nothing.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An open span; close it with [`Tracer::end`].
#[must_use = "an open span must be ended"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans open right now, outermost first.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already open still close.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The instant span offsets are counted from, for threads that time
    /// their own calls and hand the intervals to [`Tracer::record_children`].
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_owned(),
                parent: self.stack.last().copied(),
                start_ns: self.since_epoch(start),
                end_ns: 0,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, idx }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.since_epoch(now);
        }
        now.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` inside a span; returns its result and duration in
    /// seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Adds spans timed on other threads (`(start, end)` nanoseconds
    /// since [`Tracer::epoch`]) as children of the innermost open span.
    pub fn record_children(&mut self, name: &str, intervals: &[(u64, u64)]) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        self.spans
            .extend(intervals.iter().map(|&(start_ns, end_ns)| Span {
                name: name.to_owned(),
                parent,
                start_ns,
                end_ns,
            }));
    }

    /// Self time per span: its duration minus the part of that interval
    /// its children cover (children on parallel threads may overlap, so
    /// the cover is the union of their intervals).
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.end_ns - s.start_ns).saturating_sub(union_len(kids)))
            .collect()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        assert!(self.stack.is_empty(), "trace written with spans still open");
        let self_ns = self.self_times();
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\": \"{workload}\", \"spans\": [");
        for (id, (s, self_ns)) in self.spans.iter().zip(&self_ns).enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    pub fn n_spans(&self) -> usize {
        self.spans.len()
    }
}

/// Total length covered by a set of intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10), (20, 30)]), 20);
        assert_eq!(union_len(vec![(5, 15), (0, 10), (12, 13)]), 15);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.record_children("q", &[(0, 0)]);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let own = t.self_times();
        let inner_len = t.spans[1].end_ns - t.spans[1].start_ns;
        let outer_len = t.spans[0].end_ns - t.spans[0].start_ns;
        assert_eq!(own[0], outer_len - inner_len);
        assert_eq!(own[1], inner_len);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.span("x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        t.record_children("q", &[(1, 2)]);
        assert_eq!(t.n_spans(), 0);
    }
}
