//! The DistArray: Orion's N-dimensional distributed shared-memory tensor.

use std::ops::Range;

use rand::seq::SliceRandom;
use rand::Rng;

use orion_ir::{ArrayMeta, Density, Dim, DistArrayId};

use crate::element::Element;
use crate::index::Shape;
use crate::sparse::{SparseIter, SparseStore};

/// Backing storage of a DistArray (paper §3.1: "A DistArray can contain
/// elements of any serializable type and may be either dense or sparse").
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Storage<T: Element> {
    /// Row-major dense values, one per index position.
    Dense(Vec<T>),
    /// Explicitly materialized elements keyed by local flat index, held
    /// in frozen sorted-pair form (see [`SparseStore`]). Iteration is
    /// ascending by flat key, which the simulated runtime relies on for
    /// reproducible schedules.
    Sparse(SparseStore<T>),
}

/// An N-dimensional dense or sparse array, addressable by global index.
///
/// A `DistArray` value represents either a whole logical array or one
/// *partition* of it living on a worker: `origin` records the global
/// coordinate of the local element `[0, 0, ...]`, so partitions answer
/// the same global indices as the whole (see [`DistArray::split_along`]).
///
/// Hot loops should translate a global index once with
/// [`DistArray::flat_of`] and then use the `*_flat` accessors, which do
/// no allocation and no per-access coordinate arithmetic.
///
/// # Examples
///
/// ```
/// use orion_dsm::DistArray;
/// let mut w: DistArray<f32> = DistArray::dense("W", vec![4, 3]);
/// w.set(&[2, 1], 5.0);
/// assert_eq!(w.get(&[2, 1]), Some(&5.0));
/// assert_eq!(w.row_slice(2), &[0.0, 5.0, 0.0]);
///
/// let flat = w.flat_of(&[2, 1]).unwrap();
/// assert_eq!(w.get_flat(flat), Some(&5.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DistArray<T: Element> {
    name: String,
    shape: Shape,
    origin: Vec<i64>,
    /// Read by checkpointing and by a buffer's apply.
    pub(crate) storage: Storage<T>,
}

impl<T: Element> DistArray<T> {
    /// A whole array (origin at zero) of `shape` over `storage`: what
    /// every constructor returns.
    pub(crate) fn whole(name: impl Into<String>, shape: Shape, storage: Storage<T>) -> Self {
        let (name, origin) = (name.into(), vec![0; shape.ndims()]);
        DistArray {
            name,
            shape,
            origin,
            storage,
        }
    }

    /// Creates a dense array of default-valued elements.
    pub fn dense(name: impl Into<String>, dims: Vec<u64>) -> Self {
        let shape = Shape::new(dims);
        let data = vec![T::default(); shape.volume() as usize];
        Self::whole(name, shape, Storage::Dense(data))
    }

    /// Creates a dense array from row-major values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` is not the shape's volume.
    pub fn dense_from_vec(name: impl Into<String>, dims: Vec<u64>, values: Vec<T>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            values.len() as u64,
            shape.volume(),
            "value count must match shape volume"
        );
        Self::whole(name, shape, Storage::Dense(values))
    }

    /// Creates a dense array initialized per index (the analog of
    /// `Orion.randn` / `Orion.map` initialization chains). `f` sees
    /// every index in row-major order, stepped in one reused buffer.
    pub fn dense_from_fn(
        name: impl Into<String>,
        dims: Vec<u64>,
        mut f: impl FnMut(&[i64]) -> T,
    ) -> Self {
        let shape = Shape::new(dims);
        let mut index = vec![0i64; shape.ndims()];
        let data: Vec<T> = (0..shape.volume())
            .map(|_| {
                let v = f(&index);
                for (i, &d) in index.iter_mut().zip(shape.dims()).rev() {
                    *i += 1;
                    if (*i as u64) < d {
                        break;
                    }
                    *i = 0;
                }
                v
            })
            .collect();
        Self::whole(name, shape, Storage::Dense(data))
    }

    /// Creates an empty sparse array with the given bounds.
    pub fn sparse(name: impl Into<String>, dims: Vec<u64>) -> Self {
        Self::whole(name, Shape::new(dims), Storage::Sparse(SparseStore::new()))
    }

    /// Creates a sparse array from `(index, value)` items. Duplicate
    /// indices resolve last-write-wins. The result is frozen.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn sparse_from(
        name: impl Into<String>,
        dims: Vec<u64>,
        items: impl IntoIterator<Item = (Vec<i64>, T)>,
    ) -> Self {
        let name = name.into();
        let shape = Shape::new(dims);
        let pairs = items.into_iter().map(|(idx, v)| {
            let flat = shape
                .flatten(&idx)
                .unwrap_or_else(|| panic!("index {idx:?} out of bounds of `{name}`"));
            (flat, v)
        });
        let storage = Storage::Sparse(pairs.collect());
        Self::whole(name, shape, storage)
    }

    /// Creates a frozen sparse array from `(local_flat, value)` pairs in
    /// any order; duplicates resolve last-write-wins.
    ///
    /// # Panics
    ///
    /// Panics if any flat offset is outside the shape's volume.
    pub fn sparse_from_flat(
        name: impl Into<String>,
        dims: Vec<u64>,
        pairs: impl IntoIterator<Item = (u64, T)>,
    ) -> Self {
        let name = name.into();
        let shape = Shape::new(dims);
        let volume = shape.volume();
        let checked = pairs.into_iter().inspect(|&(flat, _)| {
            assert!(
                flat < volume,
                "flat offset {flat} out of bounds of `{name}`"
            );
        });
        let storage = Storage::Sparse(checked.collect());
        Self::whole(name, shape, storage)
    }

    /// The array's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Local shape (for a whole array, also the global shape).
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Global coordinate of the local origin (all zeros for whole arrays).
    pub fn origin(&self) -> &[i64] {
        &self.origin
    }

    /// Re-homes the array at `origin` in global coordinates, keeping its
    /// local shape and contents — how checkpoint restore reconstitutes a
    /// partition produced by [`DistArray::split_along`].
    ///
    /// # Panics
    ///
    /// Panics if `origin` has a different rank than the array.
    pub fn with_origin(mut self, origin: Vec<i64>) -> Self {
        assert_eq!(
            origin.len(),
            self.shape.ndims(),
            "origin rank must match array rank"
        );
        self.origin = origin;
        self
    }

    /// The whole dense payload as one contiguous row-major slice — the
    /// entry point for kernel dispatch over full arrays.
    ///
    /// # Panics
    ///
    /// Panics for sparse arrays.
    pub fn dense_values(&self) -> &[T] {
        match &self.storage {
            Storage::Dense(v) => v,
            Storage::Sparse(_) => panic!("dense_values on sparse array `{}`", self.name),
        }
    }

    /// True for dense storage.
    pub fn is_dense(&self) -> bool {
        matches!(self.storage, Storage::Dense(_))
    }

    /// Materializes the array as one contiguous row-major `Vec`, filling
    /// absent sparse elements with `T::default()` — the read-optimized
    /// layout `orion-serve` loads checkpoints into. Element values are
    /// copied bit-for-bit; the result is indexed by local flat offset.
    ///
    /// `None` when the dense form does not fit in memory: its element
    /// count overflows `usize`, or the allocator refuses it. A sparse
    /// array states a shape, not elements, so a few bytes of checkpoint
    /// can declare 2^50 of them; they are refused, never a panic or an
    /// aborted process.
    pub fn to_dense_vec(&self) -> Option<Vec<T>> {
        let n = self
            .shape
            .dims()
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(usize::try_from(d).ok()?))?;
        let mut out = Vec::new();
        out.try_reserve_exact(n).ok()?;
        match &self.storage {
            Storage::Dense(v) => out.extend_from_slice(v),
            Storage::Sparse(s) => {
                out.resize(n, T::default());
                for (flat, v) in s.iter() {
                    out[flat as usize] = v.clone();
                }
            }
        }
        Some(out)
    }

    /// Number of materialized elements.
    pub fn nnz(&self) -> u64 {
        match &self.storage {
            Storage::Dense(v) => v.len() as u64,
            Storage::Sparse(s) => s.len() as u64,
        }
    }

    /// Translates a global index to this array's local flat offset —
    /// `None` when out of bounds (or outside this partition) or of the
    /// wrong arity. Allocation-free: origin translation, bounds check
    /// and stride accumulation are fused into one pass.
    ///
    /// This is the entry point of the flat-offset hot path: translate
    /// once per loop iteration, then use [`DistArray::get_flat`] /
    /// [`DistArray::update_flat`].
    #[inline]
    pub fn flat_of(&self, index: &[i64]) -> Option<u64> {
        if index.len() != self.shape.ndims() {
            return None;
        }
        let dims = self.shape.dims();
        let strides = self.shape.strides();
        let mut flat = 0u64;
        for d in 0..index.len() {
            let local = index[d] - self.origin[d];
            if local < 0 || (local as u64) >= dims[d] {
                return None;
            }
            flat += local as u64 * strides[d];
        }
        Some(flat)
    }

    /// The global index a local flat offset names (inverse of
    /// [`DistArray::flat_of`]; allocates — not for hot loops).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is outside the local volume.
    fn global_of(&self, flat: u64) -> Vec<i64> {
        let mut idx = self.shape.unflatten(flat);
        for (c, &o) in idx.iter_mut().zip(&self.origin) {
            *c += o;
        }
        idx
    }

    /// Reads the element at a local flat offset (see
    /// [`DistArray::flat_of`]). Returns `None` when the offset exceeds
    /// the volume or a sparse element is absent.
    #[inline]
    pub fn get_flat(&self, flat: u64) -> Option<&T> {
        match &self.storage {
            Storage::Dense(v) => v.get(flat as usize),
            Storage::Sparse(s) => s.get(flat),
        }
    }

    /// Reads the element at a local flat offset, defaulting absent
    /// sparse elements.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is outside the local volume.
    #[inline]
    pub fn get_flat_or_default(&self, flat: u64) -> T {
        match &self.storage {
            Storage::Dense(v) => v[flat as usize].clone(),
            Storage::Sparse(s) => {
                assert!(
                    flat < self.shape.volume(),
                    "flat offset {flat} out of bounds of `{}`",
                    self.name
                );
                s.get(flat).cloned().unwrap_or_default()
            }
        }
    }

    /// Writes the element at a local flat offset.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is outside the local volume.
    #[inline]
    fn set_flat(&mut self, flat: u64, value: T) {
        match &mut self.storage {
            Storage::Dense(v) => v[flat as usize] = value,
            Storage::Sparse(s) => {
                assert!(
                    flat < self.shape.volume(),
                    "flat offset {flat} out of bounds of `{}`",
                    self.name
                );
                s.insert(flat, value);
            }
        }
    }

    /// Read-modify-write at a local flat offset; absent sparse elements
    /// start from `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is outside the local volume.
    #[inline]
    pub fn update_flat(&mut self, flat: u64, f: impl FnOnce(&mut T)) {
        match &mut self.storage {
            Storage::Dense(v) => f(&mut v[flat as usize]),
            Storage::Sparse(s) => {
                assert!(
                    flat < self.shape.volume(),
                    "flat offset {flat} out of bounds of `{}`",
                    self.name
                );
                s.update(flat, f);
            }
        }
    }

    /// Reads the element at a global index (point query).
    ///
    /// Returns `None` when out of bounds (or outside this partition), or
    /// when a sparse element is absent.
    #[inline]
    pub fn get(&self, index: &[i64]) -> Option<&T> {
        let flat = self.flat_of(index)?;
        self.get_flat(flat)
    }

    /// Reads the element at a global index, or the default value for
    /// absent sparse elements.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds of this (partition of the)
    /// array — addressing DSM out of bounds is a program error.
    pub fn get_or_default(&self, index: &[i64]) -> T {
        let flat = self
            .flat_of(index)
            .unwrap_or_else(|| panic!("index {index:?} out of bounds of `{}`", self.name));
        self.get_flat_or_default(flat)
    }

    /// Writes the element at a global index (in-place update, the
    /// capability RDDs lack — paper §3.1).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds of this partition.
    pub fn set(&mut self, index: &[i64], value: T) {
        let flat = self
            .flat_of(index)
            .unwrap_or_else(|| panic!("index {index:?} out of bounds of `{}`", self.name));
        self.set_flat(flat, value);
    }

    /// Read-modify-write of one element.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds of this partition.
    pub fn update(&mut self, index: &[i64], f: impl FnOnce(&mut T)) {
        let flat = self
            .flat_of(index)
            .unwrap_or_else(|| panic!("index {index:?} out of bounds of `{}`", self.name));
        self.update_flat(flat, f);
    }

    /// Contiguous slice of the last dimension at a (dense, 2-D) row —
    /// the workhorse set query of the ML applications (`W[i, :]`).
    ///
    /// # Panics
    ///
    /// Panics for sparse or non-2-D arrays, or an out-of-range row.
    pub fn row_slice(&self, row: i64) -> &[T] {
        let (start, len) = self.row_bounds(row);
        match &self.storage {
            Storage::Dense(v) => &v[start..start + len],
            Storage::Sparse(_) => panic!("row_slice on sparse array `{}`", self.name),
        }
    }

    /// Mutable variant of [`DistArray::row_slice`].
    ///
    /// # Panics
    ///
    /// As [`DistArray::row_slice`].
    pub fn row_slice_mut(&mut self, row: i64) -> &mut [T] {
        let (start, len) = self.row_bounds(row);
        match &mut self.storage {
            Storage::Dense(v) => &mut v[start..start + len],
            Storage::Sparse(_) => panic!("row_slice_mut on sparse array `{}`", self.name),
        }
    }

    fn row_bounds(&self, row: i64) -> (usize, usize) {
        assert_eq!(
            self.shape.ndims(),
            2,
            "row_slice requires a 2-D array, `{}` has {} dims",
            self.name,
            self.shape.ndims()
        );
        let local = row - self.origin[0];
        assert!(
            local >= 0 && (local as u64) < self.shape.dims()[0],
            "row {row} out of bounds of `{}` (origin {}, extent {})",
            self.name,
            self.origin[0],
            self.shape.dims()[0]
        );
        let width = self.shape.dims()[1] as usize;
        (local as usize * width, width)
    }

    /// Iterates `(local_flat, &value)` over materialized elements in
    /// ascending flat order — the allocation-free spine of every bulk
    /// operation. Pair with [`Shape::coord_of`] when coordinates are
    /// needed.
    pub fn iter_flat(&self) -> impl ExactSizeIterator<Item = (u64, &T)> + '_ {
        match &self.storage {
            Storage::Dense(v) => FlatIter::Dense(v.iter().enumerate()),
            Storage::Sparse(s) => FlatIter::Sparse(s.iter()),
        }
    }

    /// Iterates `(global_index, &value)` over materialized elements in
    /// deterministic (row-major / ascending key) order. Allocates one
    /// `Vec<i64>` per element; hot loops should use
    /// [`DistArray::iter_flat`] instead.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (Vec<i64>, &T)> + '_> {
        Box::new(self.iter_flat().map(move |(f, v)| (self.global_of(f), v)))
    }

    /// Counts materialized elements per coordinate along `dim` — the
    /// histogram the partitioner uses to balance skewed data (§4.3).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn histogram_along(&self, dim: Dim) -> Vec<u64> {
        assert!(dim < self.shape.ndims(), "dim {dim} out of range");
        let extent = self.shape.dims()[dim] as usize;
        let mut counts = vec![0u64; extent];
        for (flat, _) in self.iter_flat() {
            counts[self.shape.coord_of(flat, dim) as usize] += 1;
        }
        counts
    }

    /// Randomly permutes coordinates along each of `dims` (the
    /// `randomize` operation for skew mitigation, §4.3). Deterministic
    /// given the RNG state. Only meaningful for sparse arrays; dense
    /// arrays are permuted by value movement.
    ///
    /// # Panics
    ///
    /// Panics if any dim is out of range, or if the array is a partition
    /// (`origin != 0`), which cannot be permuted independently.
    pub fn randomize(&mut self, dims: &[Dim], rng: &mut impl Rng) {
        assert!(
            self.origin.iter().all(|&o| o == 0),
            "cannot randomize a partition of `{}`",
            self.name
        );
        for &dim in dims {
            assert!(dim < self.shape.ndims(), "dim {dim} out of range");
        }
        // One permutation per requested dimension.
        let mut perms: Vec<Option<Vec<i64>>> = vec![None; self.shape.ndims()];
        for &dim in dims {
            let extent = self.shape.dims()[dim] as usize;
            let mut p: Vec<i64> = (0..extent as i64).collect();
            p.shuffle(rng);
            perms[dim] = Some(p);
        }
        let remap = |idx: &[i64]| -> Vec<i64> {
            idx.iter()
                .enumerate()
                .map(|(d, &c)| match &perms[d] {
                    Some(p) => p[c as usize],
                    None => c,
                })
                .collect()
        };
        match &mut self.storage {
            Storage::Sparse(s) => {
                let old = std::mem::take(s);
                // A permutation is a bijection on flat offsets, so the
                // remapped pairs are duplicate-free; collect re-sorts.
                *s = old
                    .into_sorted()
                    .into_iter()
                    .map(|(flat, v)| {
                        let idx = self.shape.unflatten(flat);
                        let new_flat = self
                            .shape
                            .flatten(&remap(&idx))
                            .expect("permutation stays in bounds");
                        (new_flat, v)
                    })
                    .collect();
            }
            Storage::Dense(v) => {
                let mut out = vec![T::default(); v.len()];
                for (flat, val) in v.iter().enumerate() {
                    let idx = self.shape.unflatten(flat as u64);
                    let new_flat = self
                        .shape
                        .flatten(&remap(&idx))
                        .expect("permutation stays in bounds");
                    out[new_flat as usize] = val.clone();
                }
                *v = out;
            }
        }
    }

    /// Splits the array into per-range partitions along `dim`. Ranges
    /// must be disjoint and cover `[0, extent)` in order. Each partition
    /// keeps answering *global* indices within its range.
    ///
    /// Dense storage splits by contiguous chunk copies; sparse storage
    /// by a single ordered sweep — within one part, ascending global
    /// flat order implies ascending part-local flat order, so each
    /// part's frozen representation is built by direct append.
    ///
    /// # Panics
    ///
    /// Panics if the ranges do not exactly tile the dimension, or the
    /// array is already a partition.
    pub fn split_along(self, dim: Dim, ranges: &[Range<u64>]) -> Vec<DistArray<T>> {
        assert!(
            self.origin.iter().all(|&o| o == 0),
            "cannot split a partition of `{}`",
            self.name
        );
        assert!(dim < self.shape.ndims(), "dim {dim} out of range");
        let extent = self.shape.dims()[dim];
        let mut expect = 0u64;
        for r in ranges {
            assert_eq!(r.start, expect, "ranges must tile [0, {extent}) in order");
            assert!(r.end > r.start, "empty partition range {r:?}");
            expect = r.end;
        }
        assert_eq!(expect, extent, "ranges must cover the dimension");

        let DistArray {
            name,
            shape,
            origin: _,
            storage,
        } = self;
        // Decompose flat = outer·(extent·s_dim) + c·s_dim + inner, where
        // c is the coordinate along `dim`.
        let s_dim = shape.strides()[dim];
        let block = extent * s_dim;
        let n_outer = shape.volume() / block;

        let part_storages: Vec<Storage<T>> = match storage {
            Storage::Dense(values) => {
                let mut out: Vec<Vec<T>> = ranges
                    .iter()
                    .map(|r| Vec::with_capacity((n_outer * (r.end - r.start) * s_dim) as usize))
                    .collect();
                for outer in 0..n_outer {
                    let base = outer * block;
                    for (part, r) in out.iter_mut().zip(ranges) {
                        let lo = (base + r.start * s_dim) as usize;
                        let hi = (base + r.end * s_dim) as usize;
                        part.extend_from_slice(&values[lo..hi]);
                    }
                }
                out.into_iter().map(Storage::Dense).collect()
            }
            Storage::Sparse(store) => {
                let mut out: Vec<(Vec<u64>, Vec<T>)> =
                    ranges.iter().map(|_| <_>::default()).collect();
                for (flat, v) in store.into_sorted() {
                    let outer = flat / block;
                    let c = (flat % block) / s_dim;
                    let inner = flat % s_dim;
                    let p = ranges.partition_point(|r| r.end <= c);
                    let r = &ranges[p];
                    let part_flat =
                        outer * ((r.end - r.start) * s_dim) + (c - r.start) * s_dim + inner;
                    out[p].0.push(part_flat);
                    out[p].1.push(v);
                }
                out.into_iter()
                    .map(|(keys, vals)| Storage::Sparse(SparseStore::from_columns(keys, vals)))
                    .collect()
            }
        };

        ranges
            .iter()
            .zip(part_storages)
            .map(|(r, storage)| {
                let mut dims = shape.dims().to_vec();
                dims[dim] = r.end - r.start;
                let mut origin = vec![0i64; dims.len()];
                origin[dim] = r.start as i64;
                Self::whole(name.clone(), Shape::new(dims), storage).with_origin(origin)
            })
            .collect()
    }

    /// Reassembles partitions produced by [`DistArray::split_along`] into
    /// a whole array. Dense partitions merge by contiguous chunk copies;
    /// sparse partitions by translating each part-local flat offset back
    /// to the whole array's flat space.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or shapes are inconsistent with a
    /// tiling along `dim`.
    pub fn merge_along(dim: Dim, parts: Vec<DistArray<T>>) -> DistArray<T> {
        Self::merge_along_ref(dim, &parts)
    }

    /// [`DistArray::merge_along`] over borrowed partitions: builds the
    /// whole array and leaves the partitions where they are, for
    /// read-outs between passes that keep the model split.
    ///
    /// # Panics
    ///
    /// As [`DistArray::merge_along`].
    pub fn merge_along_ref(dim: Dim, parts: &[DistArray<T>]) -> DistArray<T> {
        assert!(!parts.is_empty(), "cannot merge zero partitions");
        let mut dims = parts[0].shape.dims().to_vec();
        for part in &parts[1..] {
            assert_eq!(
                part.shape.ndims(),
                dims.len(),
                "partition ranks differ in merge of `{}`",
                parts[0].name
            );
            for (d, (&a, &b)) in dims.iter().zip(part.shape.dims()).enumerate() {
                assert!(
                    d == dim || a == b,
                    "partition shapes of `{}` disagree off the merge dimension",
                    parts[0].name
                );
            }
        }
        let extent: u64 = parts.iter().map(|p| p.shape.dims()[dim]).sum();
        dims[dim] = extent;
        let shape = Shape::new(dims);
        let name = parts[0].name.clone();
        let s_dim = shape.strides()[dim];
        let block = extent * s_dim;
        let n_outer = shape.volume() / block;

        let all_dense = parts.iter().all(|p| p.is_dense());
        let storage = if all_dense {
            let mut values: Vec<T> = Vec::with_capacity(shape.volume() as usize);
            for outer in 0..n_outer {
                for part in parts {
                    let part_block = (part.shape.dims()[dim] * s_dim) as usize;
                    let lo = outer as usize * part_block;
                    let Storage::Dense(pv) = &part.storage else {
                        unreachable!()
                    };
                    values.extend_from_slice(&pv[lo..lo + part_block]);
                }
            }
            Storage::Dense(values)
        } else {
            // Start along `dim` of each part, in order.
            let mut pairs: Vec<(u64, T)> = Vec::new();
            let mut start = 0u64;
            for part in parts {
                let len_p = part.shape.dims()[dim];
                let part_block = len_p * s_dim;
                for (part_flat, v) in part.iter_flat() {
                    let outer = part_flat / part_block;
                    let c = (part_flat % part_block) / s_dim;
                    let inner = part_flat % s_dim;
                    pairs.push((outer * block + (start + c) * s_dim + inner, v.clone()));
                }
                start += len_p;
            }
            // Parts interleave in global flat order (part 0's outer-1
            // elements follow part 1's outer-0 elements), so collect
            // re-sorts; split output is duplicate-free by construction.
            Storage::Sparse(pairs.into_iter().collect())
        };
        Self::whole(name, shape, storage)
    }

    /// Metadata snapshot for the analyzer.
    pub fn meta(&self, id: DistArrayId) -> ArrayMeta {
        ArrayMeta {
            id,
            name: self.name.clone(),
            dims: self.shape.dims().to_vec(),
            elem_bytes: T::WIRE_BYTES as u64,
            density: if self.is_dense() {
                Density::Dense
            } else {
                Density::Sparse
            },
            nnz: self.nnz(),
        }
    }

    /// Total payload bytes if serialized.
    pub fn payload_bytes(&self) -> u64 {
        match &self.storage {
            Storage::Dense(v) => (v.len() * T::WIRE_BYTES) as u64,
            // Sparse elements carry their 8-byte flat index on the wire.
            Storage::Sparse(s) => (s.len() * (T::WIRE_BYTES + 8)) as u64,
        }
    }
}

/// Ascending-flat-offset iterator over materialized elements; see
/// [`DistArray::iter_flat`]. Allocation-free for both storage kinds.
enum FlatIter<'a, T> {
    /// Linear scan of dense row-major values.
    Dense(std::iter::Enumerate<std::slice::Iter<'a, T>>),
    /// Ordered merge scan of frozen and staged sparse elements.
    Sparse(SparseIter<'a, T>),
}

impl<'a, T> Iterator for FlatIter<'a, T> {
    type Item = (u64, &'a T);

    #[inline]
    fn next(&mut self) -> Option<(u64, &'a T)> {
        match self {
            FlatIter::Dense(it) => it.next().map(|(f, v)| (f as u64, v)),
            FlatIter::Sparse(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            FlatIter::Dense(it) => it.size_hint(),
            FlatIter::Sparse(it) => it.size_hint(),
        }
    }
}

impl<T> ExactSizeIterator for FlatIter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_point_queries() {
        let mut a: DistArray<f32> = DistArray::dense("a", vec![2, 3]);
        a.set(&[1, 2], 7.5);
        assert_eq!(a.get(&[1, 2]), Some(&7.5));
        assert_eq!(a.get(&[0, 0]), Some(&0.0));
        assert_eq!(a.get(&[2, 0]), None);
        assert_eq!(a.nnz(), 6);
    }

    #[test]
    fn sparse_point_queries() {
        let mut a: DistArray<u32> = DistArray::sparse("a", vec![10, 10]);
        a.set(&[3, 4], 9);
        assert_eq!(a.get(&[3, 4]), Some(&9));
        assert_eq!(a.get(&[3, 5]), None);
        assert_eq!(a.get_or_default(&[3, 5]), 0);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn flat_offsets_match_indexed_access() {
        let mut a: DistArray<f32> = DistArray::dense("a", vec![3, 4]);
        let flat = a.flat_of(&[2, 1]).unwrap();
        assert_eq!(flat, 9);
        a.set_flat(flat, 4.5);
        assert_eq!(a.get(&[2, 1]), Some(&4.5));
        assert_eq!(a.get_flat(flat), Some(&4.5));
        a.update_flat(flat, |v| *v += 0.5);
        assert_eq!(a.get_flat_or_default(flat), 5.0);
        assert_eq!(a.global_of(flat), vec![2, 1]);
        assert_eq!(a.flat_of(&[3, 0]), None);
        assert_eq!(a.flat_of(&[0]), None);
    }

    #[test]
    fn flat_offsets_respect_partition_origin() {
        let a: DistArray<f32> =
            DistArray::dense_from_fn("a", vec![4, 2], |i| (i[0] * 2 + i[1]) as f32);
        let parts = a.split_along(0, &[0..2, 2..4]);
        let p = &parts[1];
        assert_eq!(p.flat_of(&[1, 0]), None, "below the partition's range");
        let flat = p.flat_of(&[3, 1]).unwrap();
        assert_eq!(flat, 3, "local offset inside the partition");
        assert_eq!(p.get_flat(flat), Some(&7.0));
        assert_eq!(p.global_of(flat), vec![3, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut a: DistArray<f32> = DistArray::dense("a", vec![2, 2]);
        a.set(&[2, 0], 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sparse_set_flat_out_of_bounds_panics() {
        let mut a: DistArray<u32> = DistArray::sparse("a", vec![2, 2]);
        a.set_flat(4, 1);
    }

    #[test]
    fn row_slices() {
        let mut a: DistArray<f32> =
            DistArray::dense_from_fn("a", vec![3, 4], |i| (i[0] * 10 + i[1]) as f32);
        assert_eq!(a.row_slice(1), &[10.0, 11.0, 12.0, 13.0]);
        a.row_slice_mut(2)[0] = -1.0;
        assert_eq!(a.get(&[2, 0]), Some(&-1.0));
    }

    #[test]
    fn update_rmw() {
        let mut a: DistArray<u32> = DistArray::sparse("a", vec![5]);
        a.update(&[3], |v| *v += 2);
        a.update(&[3], |v| *v += 2);
        assert_eq!(a.get(&[3]), Some(&4));
    }

    #[test]
    fn iter_is_deterministic_and_global() {
        let a: DistArray<f32> =
            DistArray::sparse_from("a", vec![4, 4], vec![(vec![3, 1], 1.0), (vec![0, 2], 2.0)]);
        let items: Vec<_> = a.iter().map(|(i, &v)| (i, v)).collect();
        assert_eq!(items, vec![(vec![0, 2], 2.0), (vec![3, 1], 1.0)]);
    }

    #[test]
    fn iter_flat_sees_staged_writes_in_order() {
        let mut a: DistArray<u32> =
            DistArray::sparse_from("a", vec![10], vec![(vec![2], 20), (vec![8], 80)]);
        a.set(&[5], 50);
        let items: Vec<(u64, u32)> = a.iter_flat().map(|(f, &v)| (f, v)).collect();
        assert_eq!(items, vec![(2, 20), (5, 50), (8, 80)]);
    }

    #[test]
    fn histogram_counts() {
        let a: DistArray<f32> = DistArray::sparse_from(
            "a",
            vec![3, 4],
            vec![(vec![0, 0], 1.0), (vec![0, 3], 1.0), (vec![2, 1], 1.0)],
        );
        assert_eq!(a.histogram_along(0), vec![2, 0, 1]);
        assert_eq!(a.histogram_along(1), vec![1, 1, 0, 1]);
    }

    #[test]
    fn split_merge_dense_roundtrip() {
        let a: DistArray<f32> =
            DistArray::dense_from_fn("a", vec![4, 2], |i| (i[0] * 2 + i[1]) as f32);
        let orig = a.clone();
        let parts = a.split_along(0, &[0..1, 1..3, 3..4]);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[1].get(&[1, 0]), Some(&2.0));
        assert_eq!(parts[1].get(&[2, 1]), Some(&5.0));
        assert_eq!(parts[1].get(&[0, 0]), None); // outside its range
        assert_eq!(parts[1].row_slice(2), &[4.0, 5.0]);
        let merged = DistArray::merge_along(0, parts);
        assert_eq!(merged, orig);
    }

    #[test]
    fn split_merge_dense_roundtrip_inner_dim() {
        let a: DistArray<f32> =
            DistArray::dense_from_fn("a", vec![3, 6], |i| (i[0] * 6 + i[1]) as f32);
        let orig = a.clone();
        let parts = a.split_along(1, &[0..2, 2..5, 5..6]);
        assert_eq!(parts[1].get(&[2, 3]), Some(&15.0));
        assert_eq!(parts[1].get(&[2, 0]), None);
        let merged = DistArray::merge_along(1, parts);
        assert_eq!(merged, orig);
    }

    #[test]
    fn split_merge_sparse_roundtrip() {
        let a: DistArray<u32> = DistArray::sparse_from(
            "a",
            vec![6, 3],
            vec![(vec![0, 0], 1), (vec![4, 2], 2), (vec![5, 1], 3)],
        );
        let orig = a.clone();
        let parts = a.split_along(0, &[0..3, 3..6]);
        assert_eq!(parts[0].nnz(), 1);
        assert_eq!(parts[1].nnz(), 2);
        assert_eq!(parts[1].get(&[4, 2]), Some(&2));
        let merged = DistArray::merge_along(0, parts);
        assert_eq!(merged, orig);
    }

    #[test]
    fn split_merge_sparse_roundtrip_inner_dim() {
        let a: DistArray<u32> = DistArray::sparse_from(
            "a",
            vec![4, 8],
            (0..8).map(|i| (vec![(i * 5) % 4, (i * 3) % 8], i as u32)),
        );
        let orig = a.clone();
        let parts = a.split_along(1, &[0..3, 3..8]);
        let merged = DistArray::merge_along(1, parts);
        assert_eq!(merged, orig);
    }

    #[test]
    #[should_panic(expected = "cover the dimension")]
    #[allow(clippy::single_range_in_vec_init)]
    fn split_requires_full_cover() {
        let a: DistArray<f32> = DistArray::dense("a", vec![4]);
        let _ = a.split_along(0, &[0..2]);
    }

    #[test]
    fn randomize_preserves_multiset() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut a: DistArray<f32> = DistArray::sparse_from(
            "a",
            vec![8, 8],
            (0..8).map(|i| (vec![i, (i * 3) % 8], i as f32)),
        );
        let before: Vec<f32> = a.iter().map(|(_, &v)| v).collect();
        a.randomize(&[0, 1], &mut rng);
        let mut after: Vec<f32> = a.iter().map(|(_, &v)| v).collect();
        after.sort_by(f32::total_cmp);
        let mut sorted_before = before;
        sorted_before.sort_by(f32::total_cmp);
        assert_eq!(after, sorted_before);
        assert_eq!(a.nnz(), 8);
    }

    #[test]
    fn randomize_is_seeded_deterministic() {
        let items: Vec<(Vec<i64>, f32)> = (0..5).map(|i| (vec![i, i], i as f32)).collect();
        let mut a: DistArray<f32> = DistArray::sparse_from("a", vec![5, 5], items.clone());
        let mut b: DistArray<f32> = DistArray::sparse_from("a", vec![5, 5], items);
        a.randomize(&[0], &mut StdRng::seed_from_u64(42));
        b.randomize(&[0], &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn meta_reflects_storage() {
        let a: DistArray<f32> = DistArray::sparse_from("z", vec![10, 10], vec![(vec![1, 1], 1.0)]);
        let m = a.meta(DistArrayId(3));
        assert_eq!(m.nnz, 1);
        assert_eq!(m.density, Density::Sparse);
        assert_eq!(m.elem_bytes, 4);
        let d: DistArray<f64> = DistArray::dense("w", vec![4, 4]);
        let md = d.meta(DistArrayId(4));
        assert_eq!(md.nnz, 16);
        assert_eq!(md.density, Density::Dense);
        assert_eq!(md.elem_bytes, 8);
    }

    #[test]
    fn payload_bytes_accounting() {
        let d: DistArray<f32> = DistArray::dense("w", vec![4, 4]);
        assert_eq!(d.payload_bytes(), 64);
        let s: DistArray<f32> = DistArray::sparse_from("z", vec![10], vec![(vec![1], 1.0)]);
        assert_eq!(s.payload_bytes(), 12);
    }

    #[test]
    fn to_dense_vec_materializes_defaults() {
        let d: DistArray<f32> =
            DistArray::dense_from_vec("d", vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.to_dense_vec(), Some(vec![1.0, 2.0, 3.0, 4.0]));
        let s: DistArray<u32> = DistArray::sparse_from_flat("s", vec![2, 3], vec![(0, 5), (4, 9)]);
        assert_eq!(s.to_dense_vec(), Some(vec![5, 0, 0, 0, 9, 0]));
    }

    #[test]
    fn dense_from_vec_and_sparse_from_flat() {
        let d: DistArray<f32> =
            DistArray::dense_from_vec("d", vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.get(&[1, 0]), Some(&3.0));
        let s: DistArray<u32> =
            DistArray::sparse_from_flat("s", vec![3, 3], vec![(7, 70), (1, 9), (1, 10)]);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(&[0, 1]), Some(&10), "last write wins");
        assert_eq!(s.get_flat(7), Some(&70));
    }
}
