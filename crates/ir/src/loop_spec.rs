//! The loop specification consumed by the dependence analyzer.

use crate::{ArrayRef, Dim, DistArrayId, Subscript};

/// Errors detected when validating a [`LoopSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A subscript names an iteration-space dimension `>= ndims`.
    IterDimOutOfRange {
        /// The offending reference (index into `refs`).
        ref_index: usize,
        /// The out-of-range dimension.
        dim: Dim,
    },
    /// The iteration space has zero dimensions.
    EmptyIterSpace,
    /// A buffered array id does not appear in any write reference.
    BufferedArrayNotWritten(DistArrayId),
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpecError::IterDimOutOfRange { ref_index, dim } => write!(
                f,
                "reference #{ref_index} subscripts iteration dimension {dim}, \
                 which is out of range"
            ),
            SpecError::EmptyIterSpace => write!(f, "iteration space has zero dimensions"),
            SpecError::BufferedArrayNotWritten(id) => {
                write!(f, "buffered array {id} has no write reference")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Everything the analyzer knows about one `@parallel_for` loop.
///
/// This corresponds to the "Loop information" box of the paper's Fig. 6:
/// the iteration-space DistArray, the loop index vector (implicitly, the
/// iteration space's dimensions), the ordering requirement, the static
/// DistArray reads and writes, and which writes were exempted from the
/// analysis through DistArray Buffers (§3.3).
///
/// # Examples
///
/// The SGD matrix-factorization loop of the paper's Fig. 5/6:
///
/// ```
/// use orion_ir::{DistArrayId, LoopSpec, Subscript};
/// let (ratings, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
/// let spec = LoopSpec::builder("sgd_mf", ratings, vec![600, 480])
///     .read(w, vec![Subscript::Full, Subscript::loop_index(0)])
///     .read(h, vec![Subscript::Full, Subscript::loop_index(1)])
///     .write(w, vec![Subscript::Full, Subscript::loop_index(0)])
///     .write(h, vec![Subscript::Full, Subscript::loop_index(1)])
///     .build()
///     .unwrap();
/// assert_eq!(spec.ndims(), 2);
/// assert!(!spec.ordered);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpec {
    /// Name used in diagnostics and reports (e.g. `"sgd_mf"`).
    pub name: String,
    /// The DistArray iterated over (the iteration space, §3.2).
    pub iter_space: DistArrayId,
    /// Extent of each iteration-space dimension.
    pub iter_dims: Vec<u64>,
    /// Whether lexicographic iteration order must be preserved
    /// (`ordered` argument of `@parallel_for`, §4.3). Defaults to false:
    /// Orion by default ensures only serializability.
    pub ordered: bool,
    /// Static DistArray references in the loop body, excluding references
    /// to the iteration space itself (each iteration owns its element).
    pub refs: Vec<ArrayRef>,
    /// Arrays whose writes are redirected to DistArray Buffers and thus
    /// exempted from dependence analysis (§3.3).
    pub buffered: Vec<DistArrayId>,
}

impl LoopSpec {
    /// Starts building a spec for a loop over `iter_space` with the given
    /// per-dimension extents.
    pub fn builder(
        name: impl Into<String>,
        iter_space: DistArrayId,
        iter_dims: Vec<u64>,
    ) -> LoopSpecBuilder {
        LoopSpecBuilder {
            spec: LoopSpec {
                name: name.into(),
                iter_space,
                iter_dims,
                ordered: false,
                refs: Vec::new(),
                buffered: Vec::new(),
            },
        }
    }

    /// Number of iteration-space dimensions.
    pub fn ndims(&self) -> usize {
        self.iter_dims.len()
    }

    /// References that participate in dependence analysis: all refs except
    /// writes to buffered arrays (§3.3 exempts those).
    pub fn analyzed_refs(&self) -> Vec<&ArrayRef> {
        self.refs
            .iter()
            .filter(|r| !(r.kind.is_write() && self.buffered.contains(&r.array)))
            .collect()
    }

    /// Distinct DistArrays referenced by the loop body (excluding the
    /// iteration space), in first-reference order.
    pub fn referenced_arrays(&self) -> Vec<DistArrayId> {
        let mut out = Vec::new();
        for r in &self.refs {
            if !out.contains(&r.array) {
                out.push(r.array);
            }
        }
        out
    }

    /// References to a particular array.
    pub fn refs_of(&self, array: DistArrayId) -> Vec<&ArrayRef> {
        self.refs.iter().filter(|r| r.array == array).collect()
    }

    /// Validates internal consistency.
    ///
    /// Checks that subscripts only name in-range iteration dimensions, the
    /// iteration space is non-empty, and buffered arrays are actually
    /// written.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.iter_dims.is_empty() {
            return Err(SpecError::EmptyIterSpace);
        }
        for (i, r) in self.refs.iter().enumerate() {
            for sub in &r.subscripts {
                if let Subscript::LoopIndex { dim, .. } = sub {
                    if *dim >= self.ndims() {
                        return Err(SpecError::IterDimOutOfRange {
                            ref_index: i,
                            dim: *dim,
                        });
                    }
                }
            }
        }
        for b in &self.buffered {
            let written = self.refs.iter().any(|r| r.array == *b && r.kind.is_write());
            if !written {
                return Err(SpecError::BufferedArrayNotWritten(*b));
            }
        }
        Ok(())
    }
}

/// Builder for [`LoopSpec`].
#[derive(Debug, Clone)]
pub struct LoopSpecBuilder {
    spec: LoopSpec,
}

impl LoopSpecBuilder {
    /// Adds a read reference.
    #[must_use]
    pub fn read(mut self, array: DistArrayId, subscripts: Vec<Subscript>) -> Self {
        self.spec.refs.push(ArrayRef::read(array, subscripts));
        self
    }

    /// Adds a write reference.
    #[must_use]
    pub fn write(mut self, array: DistArrayId, subscripts: Vec<Subscript>) -> Self {
        self.spec.refs.push(ArrayRef::write(array, subscripts));
        self
    }

    /// Adds a read and a write with identical subscripts (a read-modify-write).
    #[must_use]
    pub fn read_write(self, array: DistArrayId, subscripts: Vec<Subscript>) -> Self {
        self.read(array, subscripts.clone())
            .write(array, subscripts)
    }

    /// Requires lexicographic iteration ordering to be preserved.
    #[must_use]
    pub fn ordered(mut self) -> Self {
        self.spec.ordered = true;
        self
    }

    /// Exempts writes to `array` from dependence analysis by directing them
    /// to a DistArray Buffer (§3.3).
    #[must_use]
    pub fn buffer_writes(mut self, array: DistArrayId) -> Self {
        if !self.spec.buffered.contains(&array) {
            self.spec.buffered.push(array);
        }
        self
    }

    /// Validates and returns the spec.
    pub fn build(self) -> Result<LoopSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mf_spec() -> LoopSpec {
        let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
        LoopSpec::builder("sgd_mf", z, vec![6, 4])
            .read_write(w, vec![Subscript::Full, Subscript::loop_index(0)])
            .read_write(h, vec![Subscript::Full, Subscript::loop_index(1)])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_four_refs() {
        let s = mf_spec();
        assert_eq!(s.refs.len(), 4);
        assert_eq!(s.referenced_arrays(), vec![DistArrayId(1), DistArrayId(2)]);
    }

    #[test]
    fn buffered_writes_are_exempt_from_analysis() {
        let (z, w) = (DistArrayId(0), DistArrayId(1));
        let s = LoopSpec::builder("slr", z, vec![100])
            .read(w, vec![Subscript::unknown()])
            .write(w, vec![Subscript::unknown()])
            .buffer_writes(w)
            .build()
            .unwrap();
        let analyzed = s.analyzed_refs();
        assert_eq!(analyzed.len(), 1);
        assert!(analyzed[0].kind.is_read());
    }

    #[test]
    fn validate_rejects_out_of_range_dim() {
        let (z, w) = (DistArrayId(0), DistArrayId(1));
        let err = LoopSpec::builder("bad", z, vec![10])
            .read(w, vec![Subscript::loop_index(1)])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::IterDimOutOfRange {
                ref_index: 0,
                dim: 1
            }
        );
    }

    #[test]
    fn validate_rejects_empty_iter_space() {
        let err = LoopSpec::builder("bad", DistArrayId(0), vec![])
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::EmptyIterSpace);
    }

    #[test]
    fn validate_rejects_unwritten_buffer() {
        let (z, w) = (DistArrayId(0), DistArrayId(1));
        let err = LoopSpec::builder("bad", z, vec![10])
            .read(w, vec![Subscript::loop_index(0)])
            .buffer_writes(w)
            .build()
            .unwrap_err();
        assert_eq!(err, SpecError::BufferedArrayNotWritten(w));
    }

    #[test]
    fn refs_of_filters_by_array() {
        let s = mf_spec();
        assert_eq!(s.refs_of(DistArrayId(1)).len(), 2);
        assert_eq!(s.refs_of(DistArrayId(9)).len(), 0);
    }

    /// `SpecError`'s `Display` output is stable API: the lint pass and
    /// golden snapshots embed it verbatim, so these strings must not
    /// change without updating `docs/CHECKING.md`.
    #[test]
    fn spec_error_display_is_stable() {
        assert_eq!(
            SpecError::IterDimOutOfRange {
                ref_index: 2,
                dim: 3
            }
            .to_string(),
            "reference #2 subscripts iteration dimension 3, which is out of range"
        );
        assert_eq!(
            SpecError::EmptyIterSpace.to_string(),
            "iteration space has zero dimensions"
        );
        assert_eq!(
            SpecError::BufferedArrayNotWritten(DistArrayId(7)).to_string(),
            "buffered array A7 has no write reference"
        );
    }
}
