//! N-dimensional index arithmetic.

/// The extents of an N-dimensional DistArray.
///
/// # Examples
///
/// ```
/// use orion_dsm::Shape;
/// let s = Shape::new(vec![3, 4]);
/// assert_eq!(s.volume(), 12);
/// assert_eq!(s.flatten(&[1, 2]), Some(6));
/// assert_eq!(s.unflatten(6), vec![1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<u64>,
    /// Row-major strides; `strides[ndims-1] == 1`.
    strides: Vec<u64>,
}

impl Shape {
    /// Creates a shape from per-dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any extent is zero — a DistArray
    /// always has at least one dimension and no degenerate extents.
    pub fn new(dims: Vec<u64>) -> Self {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "shape extents must be positive: {dims:?}"
        );
        let mut strides = vec![1u64; dims.len()];
        for i in (0..dims.len() - 1).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        Shape { dims, strides }
    }

    /// Per-dimension extents.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Row-major strides; `strides()[ndims() - 1] == 1`.
    pub fn strides(&self) -> &[u64] {
        &self.strides
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of index positions.
    pub fn volume(&self) -> u64 {
        self.dims.iter().product()
    }

    /// True when `index` is inside the bounds.
    pub fn contains(&self, index: &[i64]) -> bool {
        index.len() == self.dims.len()
            && index
                .iter()
                .zip(&self.dims)
                .all(|(&i, &d)| i >= 0 && (i as u64) < d)
    }

    /// Row-major flattening of an in-bounds index; `None` when out of
    /// bounds or of the wrong arity. Validates and accumulates in a
    /// single pass over the coordinates.
    #[inline]
    pub fn flatten(&self, index: &[i64]) -> Option<u64> {
        if index.len() != self.dims.len() {
            return None;
        }
        let mut flat = 0u64;
        for ((&i, &d), &s) in index.iter().zip(&self.dims).zip(&self.strides) {
            if i < 0 || (i as u64) >= d {
                return None;
            }
            flat += i as u64 * s;
        }
        Some(flat)
    }

    /// The coordinate along `dim` of the position `flat` names — the
    /// allocation-free projection of [`Shape::unflatten`] onto one axis.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range; `flat` is not bounds-checked.
    #[inline]
    pub fn coord_of(&self, flat: u64, dim: usize) -> i64 {
        ((flat / self.strides[dim]) % self.dims[dim]) as i64
    }

    /// Inverse of [`Shape::flatten`].
    ///
    /// # Panics
    ///
    /// Panics if `flat >= self.volume()`.
    pub fn unflatten(&self, flat: u64) -> Vec<i64> {
        assert!(flat < self.volume(), "flat index {flat} out of bounds");
        let mut rem = flat;
        self.strides
            .iter()
            .map(|&s| {
                let q = rem / s;
                rem %= s;
                q as i64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.flatten(&[0, 0, 1]), Some(1));
        assert_eq!(s.flatten(&[0, 1, 0]), Some(4));
        assert_eq!(s.flatten(&[1, 0, 0]), Some(12));
        assert_eq!(s.volume(), 24);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let s = Shape::new(vec![3, 5, 2]);
        for f in 0..s.volume() {
            let idx = s.unflatten(f);
            assert_eq!(s.flatten(&idx), Some(f));
        }
    }

    #[test]
    fn out_of_bounds_rejected() {
        let s = Shape::new(vec![3, 4]);
        assert_eq!(s.flatten(&[3, 0]), None);
        assert_eq!(s.flatten(&[-1, 0]), None);
        assert_eq!(s.flatten(&[0]), None);
        assert!(!s.contains(&[0, 4]));
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_shape_panics() {
        let _ = Shape::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _ = Shape::new(vec![3, 0]);
    }

    #[test]
    fn coord_of_projects_unflatten() {
        let s = Shape::new(vec![3, 5, 2]);
        for f in 0..s.volume() {
            let idx = s.unflatten(f);
            for (d, &x) in idx.iter().enumerate() {
                assert_eq!(s.coord_of(f, d), x);
            }
        }
    }
}
