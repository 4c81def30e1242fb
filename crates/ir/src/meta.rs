//! Metadata about DistArrays consumed by the analysis heuristics.

use crate::DistArrayId;

/// Whether a DistArray is stored densely or sparsely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Density {
    /// Every index in the bounding box holds an element.
    Dense,
    /// Only explicitly inserted indices hold elements.
    Sparse,
}

/// Size and element metadata of one DistArray.
///
/// The analyzer uses this to estimate communication volume when choosing
/// partitioning dimensions (paper §4.3: "Orion uses a simple heuristic to
/// choose the partitioning dimension(s) among candidates that minimizes
/// the number of DistArray elements needed to be communicated").
///
/// # Examples
///
/// ```
/// use orion_ir::{ArrayMeta, Density, DistArrayId};
/// let w = ArrayMeta::dense(DistArrayId(1), "W", vec![32, 600], 4);
/// assert_eq!(w.nnz, 32 * 600);
/// assert_eq!(w.total_bytes(), 32 * 600 * 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayMeta {
    /// The array's id.
    pub id: DistArrayId,
    /// Human-readable name, used in reports and error messages.
    pub name: String,
    /// Extent of each dimension.
    pub dims: Vec<u64>,
    /// Bytes per element (e.g. 4 for `f32`).
    pub elem_bytes: u64,
    /// Dense or sparse storage.
    pub density: Density,
    /// For sparse arrays, the number of materialized elements; for dense
    /// arrays, the product of `dims`.
    pub nnz: u64,
}

impl ArrayMeta {
    /// Metadata for a dense array (`nnz` = product of dims).
    pub fn dense(
        id: DistArrayId,
        name: impl Into<String>,
        dims: Vec<u64>,
        elem_bytes: u64,
    ) -> Self {
        let nnz = dims.iter().product();
        ArrayMeta {
            id,
            name: name.into(),
            dims,
            elem_bytes,
            density: Density::Dense,
            nnz,
        }
    }

    /// Metadata for a sparse array with `nnz` materialized elements.
    pub fn sparse(
        id: DistArrayId,
        name: impl Into<String>,
        dims: Vec<u64>,
        elem_bytes: u64,
        nnz: u64,
    ) -> Self {
        ArrayMeta {
            id,
            name: name.into(),
            dims,
            elem_bytes,
            density: Density::Sparse,
            nnz,
        }
    }

    /// Total bytes of materialized payload (excluding indices).
    pub fn total_bytes(&self) -> u64 {
        self.nnz * self.elem_bytes
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_nnz_is_volume() {
        let m = ArrayMeta::dense(DistArrayId(0), "Z", vec![3, 4, 5], 8);
        assert_eq!(m.total_bytes(), 480);
        assert_eq!(m.ndims(), 3);
        assert_eq!(m.density, Density::Dense);
    }

    #[test]
    fn sparse_nnz_is_explicit() {
        let m = ArrayMeta::sparse(DistArrayId(0), "Z", vec![1000, 1000], 4, 12345);
        assert_eq!(m.total_bytes(), 12345 * 4);
        assert_eq!(m.density, Density::Sparse);
    }
}
