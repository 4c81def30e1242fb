//! DistArray Buffers: write-back buffers with user-defined apply logic
//! (paper §3.3).
//!
//! A DistArray Buffer holds writes a worker makes during loop execution
//! so they can be exempted from dependence analysis and applied to the
//! backing DistArray later — making data parallelism expressible in the
//! same programming model. Buffered writes for the same element combine
//! locally (saving communication); the apply step runs a user-defined
//! function atomically per element, which is where adaptive-gradient
//! update rules (AdaGrad, AdaRevision, AdaDelay — [15, 34, 44]) live.

use crate::array::DistArray;
use crate::element::Element;
use crate::index::Shape;

/// Combines a new buffered write into an existing pending update.
type CombineFn<T> = Box<dyn Fn(&mut T, T) + Send>;

/// A per-worker write-back buffer for one DistArray.
///
/// The pending updates live in a dense table — one slot per index
/// position of the array plus a presence bit each, allocated on the
/// first write and kept across drains — so a write is one index, one
/// presence test and one combine, with no tree or hash walk. A buffer
/// that has been written to therefore holds `volume × size_of::<T>()`
/// bytes (plus `volume / 8` of presence bits) however few distinct
/// elements are pending, and a buffered loop holds that once per
/// worker: 400 KB for 2 workers × 50 k `f32` weights, 77 MB for 384
/// workers × 50 k.
///
/// Two orders are part of the contract, because the engines are
/// compared bit for bit: pending updates drain in ascending flat-index
/// order, and the writes to one element combine in the order they were
/// made.
///
/// # Examples
///
/// ```
/// use orion_dsm::{DistArray, DistArrayBuffer};
/// let mut w: DistArray<f32> = DistArray::dense("w", vec![4]);
/// let mut buf = DistArrayBuffer::new(w.shape().clone(), |acc: &mut f32, v| *acc += v);
/// buf.write(&[1], 0.5);
/// buf.write_flat(1, 0.25); // combines locally
/// buf.apply_to(&mut w, |elem, update| *elem += update);
/// assert_eq!(w.get(&[1]), Some(&0.75));
/// assert!(buf.is_empty());
/// ```
pub struct DistArrayBuffer<T> {
    shape: Shape,
    /// One slot per index position, indexed by global flat index; empty
    /// until the first write. A slot's value means something only while
    /// its presence bit is set.
    slots: Vec<T>,
    /// Presence bit of slot `i`: bit `i % 64` of word `i / 64`.
    present: Vec<u64>,
    /// Number of presence bits set.
    len: usize,
    /// `None`: additive, [`Element::accumulate`] called directly.
    combine: Option<CombineFn<T>>,
    /// Loop executions since the buffer was last flushed (applications
    /// may bound how long writes are buffered, §3.3).
    age: u64,
}

impl<T: Element> DistArrayBuffer<T> {
    /// Creates an empty buffer for arrays of the given shape, combining
    /// same-element writes with `combine`.
    pub fn new(shape: Shape, combine: impl Fn(&mut T, T) + Send + 'static) -> Self {
        Self::with_combine(shape, Some(Box::new(combine)))
    }

    /// Buffer for additive updates (the common gradient case).
    pub fn additive(shape: Shape) -> Self {
        Self::with_combine(shape, None)
    }

    fn with_combine(shape: Shape, combine: Option<CombineFn<T>>) -> Self {
        DistArrayBuffer {
            shape,
            slots: Vec::new(),
            present: Vec::new(),
            len: 0,
            combine,
            age: 0,
        }
    }

    /// Records a write, combining with any pending update for the same
    /// element.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn write(&mut self, index: &[i64], value: T) {
        let flat = self
            .shape
            .flatten(index)
            .unwrap_or_else(|| panic!("buffered write at {index:?} out of bounds"));
        self.write_flat(flat, value);
    }

    /// [`DistArrayBuffer::write`] at a global flat index (see
    /// [`Shape::flatten`]) — the entry point for hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is outside the shape's volume.
    #[inline]
    pub fn write_flat(&mut self, flat: u64, value: T) {
        let i = flat as usize;
        let (Some(slot), Some(word)) = (self.slots.get_mut(i), self.present.get_mut(i / 64)) else {
            return self.write_first(flat, value);
        };
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.len += 1;
            *slot = value;
        } else {
            match &self.combine {
                None => slot.accumulate(value),
                Some(combine) => combine(slot, value),
            }
        }
    }

    /// The first write allocates the table; any later miss is an
    /// out-of-bounds write.
    #[cold]
    fn write_first(&mut self, flat: u64, value: T) {
        let volume = self.shape.volume();
        assert!(
            flat < volume,
            "buffered write at flat offset {flat} out of bounds"
        );
        self.slots = vec![T::default(); volume as usize];
        self.present = vec![0; self.slots.len().div_ceil(64)];
        self.write_flat(flat, value);
    }

    /// Number of distinct pending elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no writes are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Wire size of the pending updates (index + value per element).
    pub fn payload_bytes(&self) -> u64 {
        (self.len * (T::WIRE_BYTES + 8)) as u64
    }

    /// Marks one more loop execution without a flush.
    pub fn tick(&mut self) {
        self.age += 1;
    }

    /// Loop executions since the last flush.
    pub fn age(&self) -> u64 {
        self.age
    }

    fn is_pending(&self, i: usize) -> bool {
        self.present[i / 64] >> (i % 64) & 1 == 1
    }

    /// Removes and returns the pending update at `flat`.
    fn take(&mut self, flat: u64) -> T {
        let i = flat as usize;
        debug_assert!(self.is_pending(i));
        self.present[i / 64] &= !(1 << (i % 64));
        self.len -= 1;
        std::mem::take(&mut self.slots[i])
    }

    /// Drains pending updates as `(flat index, value)` pairs in ascending
    /// index order, without building an index vector per element. The
    /// table stays allocated for the next pass; an update the iterator
    /// was dropped before yielding stays pending.
    pub fn drain_flat(&mut self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.age = 0;
        // First presence word that may still have a bit set.
        let mut word = 0;
        std::iter::from_fn(move || {
            if self.len == 0 {
                return None;
            }
            while self.present[word] == 0 {
                word += 1;
            }
            let flat = word as u64 * 64 + u64::from(self.present[word].trailing_zeros());
            Some((flat, self.take(flat)))
        })
    }

    /// Drains pending updates in deterministic key order.
    pub fn drain(&mut self) -> Vec<(Vec<i64>, T)> {
        let shape = self.shape.clone();
        self.drain_flat()
            .map(|(flat, v)| (shape.unflatten(flat), v))
            .collect()
    }

    /// Drains the `k` pending updates with the largest magnitude according
    /// to `magnitude`, leaving the rest buffered — the primitive behind
    /// Bösen-style managed communication, which "prioritizes large
    /// updates" under a bandwidth budget (§6.4).
    pub fn drain_largest(
        &mut self,
        k: usize,
        mut magnitude: impl FnMut(&T) -> f64,
    ) -> Vec<(Vec<i64>, T)> {
        if k >= self.len {
            return self.drain();
        }
        let mut keys: Vec<(u64, f64)> = (0..self.slots.len())
            .filter(|&i| self.is_pending(i))
            .map(|i| (i as u64, magnitude(&self.slots[i])))
            .collect();
        // Sort by magnitude descending; ties broken by key for determinism.
        keys.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        keys.truncate(k);
        keys.iter()
            .map(|&(flat, _)| (self.shape.unflatten(flat), self.take(flat)))
            .collect()
    }

    /// Applies (and clears) all pending updates to the backing array with
    /// a user-defined element-wise function, executed atomically per
    /// element (§3.3: "supports atomic read-modify-writes").
    ///
    /// # Panics
    ///
    /// Panics if the array's shape differs from the buffer's, or if the
    /// array is a partition homed away from the origin: the buffer's
    /// flat indices are global, a partition's are local.
    pub fn apply_to(&mut self, array: &mut DistArray<T>, mut udf: impl FnMut(&mut T, T)) {
        assert_eq!(
            array.shape(),
            &self.shape,
            "buffer shape does not match array `{}`",
            array.name()
        );
        assert!(
            array.origin().iter().all(|&o| o == 0),
            "buffered writes address the whole array, but `{}` is a partition at origin {:?}",
            array.name(),
            array.origin()
        );
        for (flat, v) in self.drain_flat() {
            array.update_flat(flat, |elem| udf(elem, v));
        }
    }
}

impl<T: Element> core::fmt::Debug for DistArrayBuffer<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DistArrayBuffer")
            .field("pending", &self.len)
            .field("age", &self.age)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[u64]) -> Shape {
        Shape::new(dims.to_vec())
    }

    #[test]
    fn writes_combine() {
        let mut b: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape(&[10]));
        b.write(&[2], 1.0);
        b.write_flat(2, 2.0);
        b.write(&[5], 4.0);
        assert_eq!(b.len(), 2);
        let drained = b.drain();
        assert_eq!(drained, vec![(vec![2], 3.0), (vec![5], 4.0)]);
        assert!(b.is_empty());
    }

    #[test]
    fn apply_runs_udf_per_element() {
        let mut w: DistArray<f32> = DistArray::dense("w", vec![4]);
        w.set(&[0], 10.0);
        let mut b: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape(&[4]));
        b.write(&[0], -1.0);
        b.write(&[3], 2.0);
        // A clipping apply-UDF.
        b.apply_to(&mut w, |elem, u| *elem = (*elem + u).clamp(-5.0, 5.0));
        assert_eq!(w.get(&[0]), Some(&5.0)); // clipped from 9
        assert_eq!(w.get(&[3]), Some(&2.0));
    }

    #[test]
    #[should_panic(expected = "`part` is a partition at origin [4]")]
    fn apply_to_a_partition_away_from_the_origin_panics() {
        // Global index 1 is not in a partition covering 4..8; applying it
        // at local offset 1 would silently update global index 5.
        let mut part = DistArray::<f32>::dense("part", vec![4]).with_origin(vec![4]);
        let mut b: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape(&[4]));
        b.write_flat(1, 1.0);
        b.apply_to(&mut part, |elem, u| *elem += u);
    }

    #[test]
    fn drain_largest_prioritizes_magnitude() {
        let mut b: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape(&[10]));
        b.write(&[0], 0.1);
        b.write(&[1], -9.0);
        b.write(&[2], 3.0);
        let top = b.drain_largest(2, |v| v.abs() as f64);
        assert_eq!(top, vec![(vec![1], -9.0), (vec![2], 3.0)]);
        assert_eq!(b.len(), 1); // the small one stays buffered
    }

    #[test]
    fn drain_largest_with_k_over_len_drains_all() {
        let mut b: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape(&[4]));
        b.write(&[0], 1.0);
        let all = b.drain_largest(10, |v| v.abs() as f64);
        assert_eq!(all.len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn a_dropped_drain_leaves_the_rest_pending() {
        let mut b: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape(&[200]));
        for f in [3, 70, 199] {
            b.write_flat(f, f as f32);
        }
        assert_eq!(b.drain_flat().next(), Some((3, 3.0)));
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.drain_flat().collect::<Vec<_>>(),
            [(70, 70.0), (199, 199.0)]
        );
    }

    #[test]
    fn age_tracks_flushes() {
        let mut b: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape(&[4]));
        b.tick();
        b.tick();
        assert_eq!(b.age(), 2);
        let _ = b.drain();
        assert_eq!(b.age(), 0);
    }

    #[test]
    fn payload_bytes() {
        let mut b: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape(&[4]));
        b.write(&[0], 1.0);
        b.write(&[1], 1.0);
        assert_eq!(b.payload_bytes(), 2 * 12);
    }

    #[test]
    #[should_panic(expected = "buffered write at [4] out of bounds")]
    fn out_of_bounds_write_panics() {
        let mut b: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape(&[4]));
        b.write(&[4], 1.0);
    }

    #[test]
    #[should_panic(expected = "buffered write at flat offset 4 out of bounds")]
    fn out_of_bounds_flat_write_panics_after_the_table_exists() {
        let mut b: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape(&[4]));
        b.write_flat(3, 1.0);
        b.write_flat(4, 1.0);
    }

    #[test]
    fn custom_combine() {
        // Max-combining buffer.
        let mut b: DistArrayBuffer<u32> =
            DistArrayBuffer::new(shape(&[4]), |acc: &mut u32, v: u32| *acc = (*acc).max(v));
        b.write(&[1], 5);
        b.write(&[1], 3);
        b.write(&[1], 9);
        assert_eq!(b.drain(), vec![(vec![1], 9)]);
    }
}
