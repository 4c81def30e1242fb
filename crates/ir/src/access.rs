//! Static DistArray references.

use crate::{Dim, DistArrayId, Subscript};

/// Whether a DistArray reference reads or writes.
///
/// A read-modify-write in the source program (`W[:, j] .= W[:, j] - g`)
/// is represented as *two* references, one `Read` and one `Write`, exactly
/// as the Julia macro sees two distinct array references in the AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The reference only reads elements.
    Read,
    /// The reference writes (or updates) elements.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Read`].
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// True for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// One static reference to a DistArray inside a loop body.
///
/// # Examples
///
/// The loop body of SGD matrix factorization reads and writes column
/// `key[0]` of `W` (the paper's Fig. 6):
///
/// ```
/// use orion_ir::{ArrayRef, DistArrayId, Subscript};
/// let w = DistArrayId(1);
/// let read = ArrayRef::read(w, vec![Subscript::Full, Subscript::loop_index(0)]);
/// let write = ArrayRef::write(w, vec![Subscript::Full, Subscript::loop_index(0)]);
/// assert!(read.kind.is_read() && write.kind.is_write());
/// assert_eq!(read.ndims(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    /// The referenced DistArray.
    pub array: DistArrayId,
    /// Read or write.
    pub kind: AccessKind,
    /// One subscript per DistArray dimension.
    pub subscripts: Vec<Subscript>,
}

impl ArrayRef {
    /// Creates a read reference.
    pub fn read(array: DistArrayId, subscripts: Vec<Subscript>) -> Self {
        ArrayRef {
            array,
            kind: AccessKind::Read,
            subscripts,
        }
    }

    /// Creates a write reference.
    pub fn write(array: DistArrayId, subscripts: Vec<Subscript>) -> Self {
        ArrayRef {
            array,
            kind: AccessKind::Write,
            subscripts,
        }
    }

    /// Number of subscript positions (= the array's dimensionality).
    pub fn ndims(&self) -> usize {
        self.subscripts.len()
    }

    /// The array dimension subscripted by iteration-space dimension
    /// `iter_dim`, if there is exactly one such position.
    ///
    /// Used by the runtime to derive a range partitioning of the array
    /// that makes the reference local to a worker.
    pub fn array_dim_for_iter_dim(&self, iter_dim: Dim) -> Option<Dim> {
        let mut found = None;
        for (array_dim, sub) in self.subscripts.iter().enumerate() {
            if sub.used_dim() == Some(iter_dim) {
                if found.is_some() {
                    return None;
                }
                found = Some(array_dim);
            }
        }
        found
    }

    /// True when any subscript is runtime-value dependent.
    pub fn has_unknown_subscript(&self) -> bool {
        self.subscripts.iter().any(Subscript::is_unknown)
    }

    /// True when some subscript is value dependent *and* derived from other
    /// DistArray reads, which disqualifies the reference from bulk
    /// prefetching (§4.4).
    pub fn unknown_reads_dist_array(&self) -> bool {
        self.subscripts.iter().any(|s| {
            matches!(
                s,
                Subscript::Unknown {
                    reads_dist_array: true
                }
            )
        })
    }
}

impl core::fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let kind = match self.kind {
            AccessKind::Read => "R",
            AccessKind::Write => "W",
        };
        write!(f, "{}:{}[", kind, self.array)?;
        for (i, s) in self.subscripts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wref() -> ArrayRef {
        ArrayRef::write(
            DistArrayId(1),
            vec![Subscript::Full, Subscript::loop_index(0)],
        )
    }

    #[test]
    fn array_dim_lookup() {
        let r = wref();
        assert_eq!(r.array_dim_for_iter_dim(0), Some(1));
        assert_eq!(r.array_dim_for_iter_dim(1), None);
    }

    #[test]
    fn array_dim_ambiguous_when_repeated() {
        let r = ArrayRef::read(
            DistArrayId(0),
            vec![Subscript::loop_index(0), Subscript::loop_index(0)],
        );
        assert_eq!(r.array_dim_for_iter_dim(0), None);
    }

    #[test]
    fn unknown_flags() {
        let r = ArrayRef::read(
            DistArrayId(0),
            vec![Subscript::unknown(), Subscript::Constant(0)],
        );
        assert!(r.has_unknown_subscript());
        assert!(!r.unknown_reads_dist_array());
        let r2 = ArrayRef::read(DistArrayId(0), vec![Subscript::unknown_from_dist_array()]);
        assert!(r2.unknown_reads_dist_array());
    }

    #[test]
    fn display() {
        assert_eq!(wref().to_string(), "W:A1[:, i0]");
    }
}
