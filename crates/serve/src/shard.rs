//! Read-optimized shards loaded from DistArray checkpoints.
//!
//! Training ends at a checkpoint (the PR-3 atomic format); serving
//! starts by loading that checkpoint into immutable [`ServeShard`]s —
//! contiguous row-major slabs partitioned along the leading dimension by
//! the existing [`RangePartition`] machinery (uniform, or
//! histogram-balanced when a traffic profile is known). Every element is
//! copied bit-for-bit, so a query answered from a shard is
//! indistinguishable from one answered by a brute-force scan of the raw
//! `DistArray` — the invariant `tests/serve_conformance.rs` pins.

use std::ops::Range;
use std::path::Path;

use bytes::Bytes;

use orion_dsm::checkpoint::{self, CheckpointError};
use orion_dsm::kernels::LANES;
use orion_dsm::{DistArray, Element, RangePartition};

/// One immutable shard: a contiguous run of rows of a served array.
///
/// "Rows" are positions along dimension 0; the row width is the product
/// of the remaining dimensions (1 for a 1-D array such as SLR weights),
/// so a shard of an N-D array is still one flat row-major slab.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeShard<T: Element> {
    rows: Range<u64>,
    width: usize,
    values: Vec<T>,
}

impl<T: Element> ServeShard<T> {
    /// The global row range this shard owns.
    pub fn rows(&self) -> Range<u64> {
        self.rows.clone()
    }

    /// Rows held by this shard.
    pub fn n_rows(&self) -> u64 {
        self.rows.end - self.rows.start
    }

    /// Elements per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The shard's whole payload, row-major — the entry point for
    /// streaming scans (top-k), which bypass the row cache by design.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// One row by global row id; `None` outside this shard.
    #[inline]
    pub fn row(&self, global_row: u64) -> Option<&[T]> {
        if !self.rows.contains(&global_row) {
            return None;
        }
        let local = (global_row - self.rows.start) as usize;
        Some(&self.values[local * self.width..(local + 1) * self.width])
    }

    /// Payload size in wire bytes (capacity accounting).
    pub fn bytes(&self) -> u64 {
        (self.values.len() * T::WIRE_BYTES) as u64
    }
}

/// A scan index over one shard: the shard's rows once more, transposed
/// into panels of [`LANES`] consecutive rows laid out
/// `panel[c * LANES + j]` = element `c` of the panel's row `j`, the layout
/// `orion_dsm::kernels::dot_panel` scores a whole panel from. Built once
/// at load by a model for the array it scans; point reads keep using the
/// row-major slab. The last panel is padded with `T::default()` up to
/// [`LANES`] rows, and [`LanePanels::panels`] says how many of its rows
/// are real.
#[derive(Debug, Clone, PartialEq)]
pub struct LanePanels<T: Element> {
    n_rows: usize,
    width: usize,
    values: Vec<T>,
}

impl<T: Element> LanePanels<T> {
    /// Transposes `shard` one panel at a time: [`LANES`] rows are read
    /// front to back and scattered into the one panel being filled.
    pub fn from_shard(shard: &ServeShard<T>) -> Self {
        let width = shard.width;
        let n_rows = shard.n_rows() as usize;
        let mut values = vec![T::default(); n_rows.div_ceil(LANES) * width * LANES];
        let panels = values.chunks_exact_mut(width * LANES);
        for (panel, rows) in panels.zip(shard.values.chunks(width * LANES)) {
            for (j, row) in rows.chunks_exact(width).enumerate() {
                for (c, v) in row.iter().enumerate() {
                    panel[c * LANES + j] = v.clone();
                }
            }
        }
        LanePanels {
            n_rows,
            width,
            values,
        }
    }

    /// The panels in row order, each with the number of real rows it
    /// holds: [`LANES`], except that the last panel may hold fewer.
    pub fn panels(&self) -> impl Iterator<Item = (usize, &[T])> {
        self.values
            .chunks_exact(self.width * LANES)
            .enumerate()
            .map(|(p, panel)| ((self.n_rows - p * LANES).min(LANES), panel))
    }
}

/// A whole served array: ordered [`ServeShard`]s tiling the rows of one
/// `DistArray`, plus the partition that routes a row to its shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedArray<T: Element> {
    name: String,
    dims: Vec<u64>,
    partition: RangePartition,
    shards: Vec<ServeShard<T>>,
}

impl<T: Element> ShardedArray<T> {
    /// Shards a materialized array into `n_shards` near-equal row runs.
    ///
    /// `n_shards` is clamped to the row count (every shard must own at
    /// least one row). Sparse arrays are densified — serving reads every
    /// row at memory speed, so the read-optimized layout is always the
    /// contiguous one. The array's origin is discarded: serve addresses
    /// whole logical arrays, not partitions.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards == 0` or the array is empty.
    pub fn from_array(array: &DistArray<T>, n_shards: usize) -> Self {
        Self::build(array, |rows| {
            RangePartition::uniform(0, rows, n_shards.min(rows as usize).max(1))
        })
    }

    /// Shards with the histogram-balanced partitioner: `weights\[r\]` is
    /// the expected traffic of row `r` (e.g. the Zipf profile of the
    /// traffic generator), so hot rows end up in small shards and the
    /// per-shard serving load evens out.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the row count or
    /// `n_shards == 0`.
    pub fn from_array_balanced(array: &DistArray<T>, weights: &[u64], n_shards: usize) -> Self {
        Self::build(array, |rows| {
            assert_eq!(
                weights.len() as u64,
                rows,
                "traffic weights must cover every row"
            );
            RangePartition::balanced(0, weights, n_shards.min(rows as usize).max(1))
        })
    }

    fn build(array: &DistArray<T>, make: impl FnOnce(u64) -> RangePartition) -> Self {
        let dims = array.shape().dims().to_vec();
        let rows = dims[0];
        assert!(rows > 0, "cannot shard an empty array");
        let width = (array.shape().volume() / rows) as usize;
        let partition = make(rows);
        // A dense array is sliced where it lies; only a sparse one is
        // materialized first.
        let densified;
        let values = if array.is_dense() {
            array.dense_values()
        } else {
            densified = array.to_dense_vec();
            &densified
        };
        let shards = partition
            .ranges
            .iter()
            .map(|r| ServeShard {
                rows: r.clone(),
                width,
                values: values[r.start as usize * width..r.end as usize * width].to_vec(),
            })
            .collect();
        ShardedArray {
            name: array.name().to_string(),
            dims,
            partition,
            shards,
        }
    }

    /// Loads a checkpoint byte image into shards.
    ///
    /// # Errors
    ///
    /// Any malformed image — truncated, extended, bad magic, wrong
    /// element width — surfaces as [`CheckpointError::Corrupt`]; a
    /// `ShardedArray` is only ever built from a bit-exact checkpoint.
    pub fn from_checkpoint_bytes(wire: Bytes, n_shards: usize) -> Result<Self, CheckpointError> {
        let array = checkpoint::from_bytes::<T>(wire)?;
        Ok(Self::from_array(&array, n_shards))
    }

    /// Loads a checkpoint file (see [`checkpoint::load`]) into shards.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and corrupt checkpoints.
    pub fn from_checkpoint_file(
        path: impl AsRef<Path>,
        n_shards: usize,
    ) -> Result<Self, CheckpointError> {
        let array = checkpoint::load::<T>(path)?;
        Ok(Self::from_array(&array, n_shards))
    }

    /// The served array's name (from the checkpoint header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical dimensions of the served array.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Rows (extent of dimension 0).
    pub fn n_rows(&self) -> u64 {
        self.dims[0]
    }

    /// Elements per row.
    pub fn width(&self) -> usize {
        self.shards[0].width
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, ascending by row range.
    pub fn shards(&self) -> &[ServeShard<T>] {
        &self.shards
    }

    /// One shard by index.
    pub fn shard(&self, s: usize) -> &ServeShard<T> {
        &self.shards[s]
    }

    /// The shard owning `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn shard_of(&self, row: u64) -> usize {
        self.partition.part_of(row)
    }

    /// One row by global row id; `None` out of bounds.
    #[inline]
    pub fn row(&self, row: u64) -> Option<&[T]> {
        if row >= self.n_rows() {
            return None;
        }
        self.shards[self.partition.part_of(row)].row(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> DistArray<f32> {
        DistArray::dense_from_fn("W", vec![7, 3], |i| (i[0] * 10 + i[1]) as f32)
    }

    #[test]
    fn shards_tile_rows_and_answer_them() {
        let a = arr();
        let s = ShardedArray::from_array(&a, 3);
        assert_eq!(s.n_shards(), 3);
        assert_eq!(s.n_rows(), 7);
        assert_eq!(s.width(), 3);
        let covered: u64 = s.shards().iter().map(|sh| sh.n_rows()).sum();
        assert_eq!(covered, 7);
        for r in 0..7u64 {
            assert_eq!(s.row(r).unwrap(), a.row_slice(r as i64));
            let home = s.shard_of(r);
            assert_eq!(s.shard(home).row(r).unwrap(), a.row_slice(r as i64));
            for (other, sh) in s.shards().iter().enumerate() {
                if other != home {
                    assert_eq!(sh.row(r), None);
                }
            }
        }
        assert_eq!(s.row(7), None);
    }

    #[test]
    fn lane_panels_transpose_and_pad() {
        // 7 × 3 in shards of 3, 2, 2 rows; then 19 rows: two full panels
        // and a ragged one.
        let tall = DistArray::dense_from_fn("T", vec![19, 3], |i| (i[0] * 10 + i[1]) as f32);
        for sharded in [
            ShardedArray::from_array(&arr(), 3),
            ShardedArray::from_array(&tall, 1),
        ] {
            for shard in sharded.shards() {
                let index = LanePanels::from_shard(shard);
                let mut row = shard.rows().start;
                for (real_rows, panel) in index.panels() {
                    assert_eq!(panel.len(), 3 * LANES);
                    for j in 0..LANES {
                        for c in 0..3 {
                            let want = if j < real_rows {
                                shard.row(row + j as u64).unwrap()[c]
                            } else {
                                0.0
                            };
                            assert_eq!(panel[c * LANES + j], want);
                        }
                    }
                    row += real_rows as u64;
                }
                assert_eq!(row, shard.rows().end);
            }
        }
    }

    #[test]
    fn one_dimensional_arrays_have_width_one() {
        let a: DistArray<f32> = DistArray::dense_from_fn("w", vec![10], |i| i[0] as f32);
        let s = ShardedArray::from_array(&a, 4);
        assert_eq!(s.width(), 1);
        assert_eq!(s.row(6), Some(&[6.0f32][..]));
    }

    #[test]
    fn shard_count_clamps_to_rows() {
        let a: DistArray<u32> = DistArray::dense("c", vec![2, 5]);
        let s = ShardedArray::from_array(&a, 16);
        assert_eq!(s.n_shards(), 2);
    }

    #[test]
    fn sparse_checkpoints_densify() {
        let a: DistArray<u32> =
            DistArray::sparse_from("t", vec![4, 2], vec![(vec![0, 1], 7), (vec![3, 0], 9)]);
        let s = ShardedArray::<u32>::from_checkpoint_bytes(checkpoint::to_bytes(&a), 2).unwrap();
        assert_eq!(s.row(0).unwrap(), &[0, 7]);
        assert_eq!(s.row(3).unwrap(), &[9, 0]);
    }

    #[test]
    fn balanced_sharding_shrinks_hot_rows() {
        let a: DistArray<f32> = DistArray::dense("W", vec![100, 2]);
        let mut w = vec![1u64; 100];
        w[0] = 500;
        let s = ShardedArray::from_array_balanced(&a, &w, 4);
        // The hot row gets a shard to itself.
        assert_eq!(s.shard(0).rows(), 0..1);
        assert_eq!(s.n_shards(), 4);
    }

    #[test]
    fn corrupt_checkpoints_never_become_shards() {
        let bytes = checkpoint::to_bytes(&arr());
        for cut in 0..bytes.len() {
            let err = ShardedArray::<f32>::from_checkpoint_bytes(bytes.slice(0..cut), 2)
                .expect_err("strict prefix must be corrupt");
            assert!(matches!(err, CheckpointError::Corrupt(_)), "prefix {cut}");
        }
        let mut extended = bytes.to_vec();
        extended.push(0xCC);
        let err = ShardedArray::<f32>::from_checkpoint_bytes(Bytes::from(extended), 2).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let a = arr();
        let s = ShardedArray::<f32>::from_checkpoint_bytes(checkpoint::to_bytes(&a), 3).unwrap();
        for r in 0..a.shape().dims()[0] {
            let (got, want) = (s.row(r).unwrap(), a.row_slice(r as i64));
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }
}
