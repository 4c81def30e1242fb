//! Dependence vectors and their lexicographic normalization.

/// One component of a dependence vector.
///
/// The paper (§4.2) uses integers plus infinity, where infinity means the
/// dependence distance may take *any* integer value at that position. After
/// correcting for lexicographic positivity, a leading infinity becomes a
/// *positive* infinity (any value `>= 1`), which we represent separately so
/// later phases (unimodular transformation, which requires "only numbers or
/// positive infinity") can distinguish the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepElem {
    /// An exact dependence distance.
    Int(i64),
    /// Any integer distance (the paper's `∞`).
    Any,
    /// Any distance `>= 1` (the paper's `+∞` after positivity correction).
    PosAny,
}

impl DepElem {
    /// True if the component is exactly zero.
    pub fn is_zero(self) -> bool {
        self == DepElem::Int(0)
    }

    /// Negates the component (`Any` is symmetric; `PosAny` has no negative
    /// counterpart in normalized vectors and must not be negated).
    ///
    /// # Panics
    ///
    /// Panics on [`DepElem::PosAny`]: normalized components are never
    /// negated, so reaching this indicates a logic error in the caller.
    fn negated(self) -> Self {
        match self {
            DepElem::Int(v) => DepElem::Int(-v),
            DepElem::Any => DepElem::Any,
            DepElem::PosAny => panic!("cannot negate a normalized PosAny component"),
        }
    }
}

impl core::fmt::Display for DepElem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DepElem::Int(v) => write!(f, "{v}"),
            DepElem::Any => write!(f, "∞"),
            DepElem::PosAny => write!(f, "+∞"),
        }
    }
}

/// A dependence vector: one [`DepElem`] per iteration-space dimension.
///
/// A dependence vector `d` states that iteration `p + d` may depend on
/// iteration `p` for every `p` (a dependence *pattern*, §4.2). Vectors
/// produced by `normalize` are lexicographically positive: the first
/// component that is not exactly zero is `Int(c)` with `c > 0`, or
/// `PosAny`.
///
/// # Examples
///
/// ```
/// use orion_analysis::{DepElem, DepVec};
/// let d = DepVec::new(vec![DepElem::Int(0), DepElem::PosAny]);
/// assert!(d.is_lex_positive());
/// assert!(d.elem(0).is_zero());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DepVec(Vec<DepElem>);

impl DepVec {
    /// Wraps components into a vector.
    pub fn new(elems: Vec<DepElem>) -> Self {
        DepVec(elems)
    }

    /// Number of components (= iteration-space dimensions).
    pub fn ndims(&self) -> usize {
        self.0.len()
    }

    /// The component at `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.ndims()`.
    pub fn elem(&self, dim: usize) -> DepElem {
        self.0[dim]
    }

    /// All components.
    pub fn elems(&self) -> &[DepElem] {
        &self.0
    }

    /// True when the vector is lexicographically positive: the first
    /// component that is not `Int(0)` is `Int(c > 0)` or `PosAny`.
    pub fn is_lex_positive(&self) -> bool {
        for e in &self.0 {
            match e {
                DepElem::Int(0) => continue,
                DepElem::Int(v) => return *v > 0,
                DepElem::PosAny => return true,
                DepElem::Any => return false,
            }
        }
        false
    }

    /// True when every component is an exact integer.
    pub fn is_exact(&self) -> bool {
        self.0.iter().all(|e| matches!(e, DepElem::Int(_)))
    }

    /// True when components are only integers or positive infinity — the
    /// precondition for unimodular transformation (§4.3).
    pub fn unimodular_eligible(&self) -> bool {
        self.0
            .iter()
            .all(|e| matches!(e, DepElem::Int(_) | DepElem::PosAny))
    }
}

impl core::fmt::Display for DepVec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// Normalizes a raw dependence pattern into the set of lexicographically
/// positive vectors that cover it.
///
/// A raw pattern `v` (components `Int` or `Any`) denotes the distance set
/// `S(v)`. Because the underlying "two iterations touch the same address"
/// relation is symmetric, the true loop-carried dependences are the
/// lexicographically positive members of `S(v) ∪ -S(v)`, excluding the
/// all-zero vector (which is not loop-carried). This function returns a
/// small covering set of patterns for exactly those members — the paper's
/// "correct dvec for lexicographical positiveness" step of Alg. 2, made
/// precise.
pub(crate) fn normalize(raw: Vec<DepElem>) -> Vec<DepVec> {
    let mut out = Vec::new();
    normalize_into(&raw, 0, &mut out);
    out.dedup();
    out
}

fn normalize_into(raw: &[DepElem], start: usize, out: &mut Vec<DepVec>) {
    // Find the first position at or after `start` that is not exactly zero.
    let mut i = start;
    while i < raw.len() && raw[i].is_zero() {
        i += 1;
    }
    if i == raw.len() {
        // All remaining components are zero: with a zero prefix this is the
        // all-zero vector — not loop-carried — so nothing is emitted.
        return;
    }
    match raw[i] {
        DepElem::Int(c) => {
            // Sign of the whole (covered) vector is decided here.
            let mut v = raw.to_vec();
            if c < 0 {
                for e in &mut v {
                    *e = e.negated();
                }
            }
            out.push(DepVec::new(v));
        }
        DepElem::Any => {
            // Case split on the value at position `i`:
            //   > 0: leading component becomes PosAny, tail unchanged;
            //   < 0: mirrored into the positive cone — leading PosAny with
            //        the tail negated;
            //   = 0: recurse with this position pinned to zero.
            let mut pos = raw.to_vec();
            pos[i] = DepElem::PosAny;
            out.push(DepVec::new(pos));

            let tail_has_signed = raw[i + 1..]
                .iter()
                .any(|e| matches!(e, DepElem::Int(v) if *v != 0));
            if tail_has_signed {
                let mut neg = raw.to_vec();
                neg[i] = DepElem::PosAny;
                for e in &mut neg[i + 1..] {
                    *e = e.negated();
                }
                out.push(DepVec::new(neg));
            }

            let mut zeroed = raw.to_vec();
            zeroed[i] = DepElem::Int(0);
            normalize_into(&zeroed, i + 1, out);
        }
        DepElem::PosAny => {
            // Raw patterns from the dependence test never contain PosAny;
            // accept them anyway (already positive at this position).
            out.push(DepVec::new(raw.to_vec()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(e: &[DepElem]) -> DepVec {
        DepVec::new(e.to_vec())
    }

    #[test]
    fn all_zero_vanishes() {
        assert!(normalize(vec![DepElem::Int(0), DepElem::Int(0)]).is_empty());
    }

    #[test]
    fn positive_exact_kept() {
        let out = normalize(vec![DepElem::Int(0), DepElem::Int(2)]);
        assert_eq!(out, vec![v(&[DepElem::Int(0), DepElem::Int(2)])]);
    }

    #[test]
    fn negative_exact_mirrored() {
        let out = normalize(vec![DepElem::Int(-1), DepElem::Int(3)]);
        assert_eq!(out, vec![v(&[DepElem::Int(1), DepElem::Int(-3)])]);
    }

    #[test]
    fn mf_patterns() {
        // The SGD MF vectors of Fig. 6: (0, ∞) and (∞, 0).
        assert_eq!(
            normalize(vec![DepElem::Int(0), DepElem::Any]),
            vec![v(&[DepElem::Int(0), DepElem::PosAny])]
        );
        assert_eq!(
            normalize(vec![DepElem::Any, DepElem::Int(0)]),
            vec![v(&[DepElem::PosAny, DepElem::Int(0)])]
        );
    }

    #[test]
    fn any_any_expands() {
        let out = normalize(vec![DepElem::Any, DepElem::Any]);
        assert_eq!(
            out,
            vec![
                v(&[DepElem::PosAny, DepElem::Any]),
                v(&[DepElem::Int(0), DepElem::PosAny]),
            ]
        );
        assert!(out.iter().all(DepVec::is_lex_positive));
    }

    #[test]
    fn any_with_signed_tail_gets_mirror() {
        let out = normalize(vec![DepElem::Any, DepElem::Int(2)]);
        assert_eq!(
            out,
            vec![
                v(&[DepElem::PosAny, DepElem::Int(2)]),
                v(&[DepElem::PosAny, DepElem::Int(-2)]),
                v(&[DepElem::Int(0), DepElem::Int(2)]),
            ]
        );
    }

    #[test]
    fn normalized_vectors_are_lex_positive() {
        let raws = [
            vec![DepElem::Any, DepElem::Int(-5), DepElem::Any],
            vec![DepElem::Int(0), DepElem::Any, DepElem::Int(1)],
            vec![DepElem::Int(-2)],
        ];
        for raw in raws {
            for d in normalize(raw) {
                assert!(d.is_lex_positive(), "{d} not lex positive");
            }
        }
    }

    #[test]
    fn eligibility_flags() {
        assert!(v(&[DepElem::Int(1), DepElem::PosAny]).unimodular_eligible());
        assert!(!v(&[DepElem::Any]).unimodular_eligible());
        assert!(v(&[DepElem::Int(1)]).is_exact());
        assert!(!v(&[DepElem::PosAny]).is_exact());
    }

    #[test]
    fn display() {
        assert_eq!(
            v(&[DepElem::Int(0), DepElem::PosAny, DepElem::Any]).to_string(),
            "(0, +∞, ∞)"
        );
    }
}
