//! Subscript expressions of DistArray references.

use crate::Dim;

/// One position of a DistArray subscript.
///
/// Orion's analysis captures dependence exactly when a subscript position
/// contains *at most one loop index variable plus or minus a constant*
/// (paper §3.2, "Applicability"). Anything more complex is represented
/// conservatively: the position may take any value within the array's
/// bounds.
///
/// # Examples
///
/// The reference `W[:, key[1] + 1]` in a loop whose index vector is `key`
/// has subscripts `[Full, LoopIndex { dim: 1, offset: 1 }]` (dimensions
/// are zero-based here, unlike Julia).
///
/// ```
/// use orion_ir::Subscript;
/// let subs = [Subscript::Full, Subscript::loop_index(1).shifted(1)];
/// assert!(subs[1].is_exact());
/// assert!(!subs[0].is_exact());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subscript {
    /// A loop index variable plus a constant offset: `p[dim] + offset`.
    ///
    /// This is the only form for which the dependence test can compute an
    /// exact dependence distance.
    LoopIndex {
        /// Which dimension of the iteration-space index vector is used.
        dim: Dim,
        /// Constant added to the loop index variable.
        offset: i64,
    },
    /// A compile-time constant.
    Constant(i64),
    /// A full-range set query (`:` in the Julia surface syntax).
    Full,
    /// A runtime-value-dependent subscript (e.g. a nonzero feature id read
    /// from the data sample in sparse logistic regression).
    ///
    /// The analysis must assume it may take any in-bounds value. The flag
    /// records whether computing the subscript requires reading *another
    /// DistArray*, which disqualifies it from bulk prefetching (§4.4): the
    /// synthesized prefetch function would itself incur remote accesses.
    Unknown {
        /// True when the subscript's value is derived from DistArray reads.
        reads_dist_array: bool,
    },
}

impl Subscript {
    /// Convenience constructor for `p[dim] + 0`.
    pub fn loop_index(dim: Dim) -> Self {
        Subscript::LoopIndex { dim, offset: 0 }
    }

    /// Convenience constructor for a value-dependent subscript computed
    /// from the loop's own data (not from other DistArrays), which remains
    /// eligible for recorded bulk prefetching.
    pub fn unknown() -> Self {
        Subscript::Unknown {
            reads_dist_array: false,
        }
    }

    /// Convenience constructor for a value-dependent subscript that reads
    /// other DistArrays, which is not prefetchable.
    pub fn unknown_from_dist_array() -> Self {
        Subscript::Unknown {
            reads_dist_array: true,
        }
    }

    /// Returns a copy shifted by `delta` if this is a [`Subscript::LoopIndex`]
    /// or [`Subscript::Constant`]; other variants are returned unchanged.
    #[must_use]
    pub fn shifted(self, delta: i64) -> Self {
        match self {
            Subscript::LoopIndex { dim, offset } => Subscript::LoopIndex {
                dim,
                offset: offset + delta,
            },
            Subscript::Constant(c) => Subscript::Constant(c + delta),
            other => other,
        }
    }

    /// True when the dependence test can reason exactly about this
    /// position (a loop index ± constant, or a constant).
    pub fn is_exact(&self) -> bool {
        matches!(self, Subscript::LoopIndex { .. } | Subscript::Constant(_))
    }

    /// The iteration-space dimension used by this subscript, if any.
    pub(crate) fn used_dim(&self) -> Option<Dim> {
        match self {
            Subscript::LoopIndex { dim, .. } => Some(*dim),
            _ => None,
        }
    }

    /// True when the subscript's value is only known at runtime.
    pub(crate) fn is_unknown(&self) -> bool {
        matches!(self, Subscript::Unknown { .. })
    }
}

impl core::fmt::Display for Subscript {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Subscript::LoopIndex { dim, offset: 0 } => write!(f, "i{dim}"),
            Subscript::LoopIndex { dim, offset } if *offset > 0 => {
                write!(f, "i{dim}+{offset}")
            }
            Subscript::LoopIndex { dim, offset } => write!(f, "i{dim}{offset}"),
            Subscript::Constant(c) => write!(f, "{c}"),
            Subscript::Full => write!(f, ":"),
            Subscript::Unknown {
                reads_dist_array: false,
            } => write!(f, "?"),
            Subscript::Unknown {
                reads_dist_array: true,
            } => write!(f, "?[dsm]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_index_shift_accumulates() {
        let s = Subscript::loop_index(2).shifted(3).shifted(-1);
        assert_eq!(s, Subscript::LoopIndex { dim: 2, offset: 2 });
    }

    #[test]
    fn constant_shift() {
        assert_eq!(Subscript::Constant(5).shifted(-2), Subscript::Constant(3));
    }

    #[test]
    fn full_and_unknown_are_shift_invariant() {
        assert_eq!(Subscript::Full.shifted(7), Subscript::Full);
        assert_eq!(Subscript::unknown().shifted(7), Subscript::unknown());
    }

    #[test]
    fn exactness() {
        assert!(Subscript::loop_index(0).is_exact());
        assert!(Subscript::Constant(1).is_exact());
        assert!(!Subscript::Full.is_exact());
        assert!(!Subscript::unknown().is_exact());
    }

    #[test]
    fn used_dim_only_for_loop_index() {
        assert_eq!(Subscript::loop_index(3).used_dim(), Some(3));
        assert_eq!(Subscript::Constant(3).used_dim(), None);
        assert_eq!(Subscript::Full.used_dim(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Subscript::loop_index(0).to_string(), "i0");
        assert_eq!(Subscript::loop_index(1).shifted(2).to_string(), "i1+2");
        assert_eq!(Subscript::loop_index(1).shifted(-2).to_string(), "i1-2");
        assert_eq!(Subscript::Full.to_string(), ":");
        assert_eq!(Subscript::unknown().to_string(), "?");
    }
}
