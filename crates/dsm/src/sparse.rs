//! Frozen CSR-style sparse storage.
//!
//! The original sparse backing was a `BTreeMap<u64, T>`: correct and
//! deterministic, but cache-hostile — every point query chases tree nodes
//! and every iteration hops allocations. [`SparseStore`] keeps the same
//! *logical* contract (ascending-flat-key order, last-write-wins) on a
//! layout built for the training hot path:
//!
//! - **Frozen pairs**: two parallel vectors `keys`/`vals`, keys
//!   strictly ascending. Point queries are a binary search over a
//!   contiguous `u64` array; full scans are linear memory walks.
//! - **Staging map**: writes to keys not already frozen land in a small
//!   `BTreeMap` so ad-hoc inserts stay cheap without resorting the frozen
//!   arrays. [`SparseStore::freeze`] merges the staging map in (one linear
//!   merge); bulk constructors freeze before returning.
//!
//! Invariant: a key lives in *either* the frozen arrays or the staging
//! map, never both. Writes to an already-frozen key update the frozen
//! value in place, so no read ever has to consult both sides for one key.
//!
//! Iteration order — ascending flat key, staged and frozen interleaved by
//! a two-pointer merge — is byte-for-byte the order the old `BTreeMap`
//! produced, which the simulated runtime relies on for reproducible
//! schedules.

use std::collections::BTreeMap;

use crate::element::Element;

/// Sorted-pair sparse storage with a staging area for ad-hoc writes.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseStore<T: Element> {
    /// Strictly ascending flat keys of frozen elements.
    keys: Vec<u64>,
    /// Values parallel to `keys`.
    vals: Vec<T>,
    /// Elements written since the last freeze, disjoint from `keys`.
    staging: BTreeMap<u64, T>,
}

impl<T: Element> SparseStore<T> {
    /// An empty store.
    pub(crate) fn new() -> Self {
        SparseStore {
            keys: Vec::new(),
            vals: Vec::new(),
            staging: BTreeMap::new(),
        }
    }

    /// Builds a frozen store from key-ascending, duplicate-free pairs.
    ///
    /// # Panics
    ///
    /// Panics if keys are not strictly ascending (debug builds assert;
    /// release builds trust the caller — all in-crate callers sort first).
    pub(crate) fn from_sorted(pairs: Vec<(u64, T)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted requires strictly ascending keys"
        );
        let mut keys = Vec::with_capacity(pairs.len());
        let mut vals = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            keys.push(k);
            vals.push(v);
        }
        SparseStore {
            keys,
            vals,
            staging: BTreeMap::new(),
        }
    }

    /// Number of materialized elements (frozen + staged).
    pub(crate) fn len(&self) -> usize {
        self.keys.len() + self.staging.len()
    }

    /// Point query by flat key.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<&T> {
        match self.keys.binary_search(&key) {
            Ok(i) => Some(&self.vals[i]),
            Err(_) => self.staging.get(&key),
        }
    }

    /// Inserts or overwrites (last write wins, like `BTreeMap::insert`).
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, value: T) {
        match self.keys.binary_search(&key) {
            Ok(i) => self.vals[i] = value,
            Err(_) => {
                self.staging.insert(key, value);
            }
        }
    }

    /// Read-modify-write; missing elements start from `T::default()`.
    #[inline]
    pub(crate) fn update(&mut self, key: u64, f: impl FnOnce(&mut T)) {
        match self.keys.binary_search(&key) {
            Ok(i) => f(&mut self.vals[i]),
            Err(_) => f(self.staging.entry(key).or_default()),
        }
    }

    /// Merges the staging map into the frozen arrays (single linear
    /// merge). After this, point queries are pure binary search and
    /// iteration is a straight scan. Idempotent; cheap when staging is
    /// empty.
    pub(crate) fn freeze(&mut self) {
        if self.staging.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.staging);
        let old_keys = std::mem::take(&mut self.keys);
        let old_vals = std::mem::take(&mut self.vals);
        let total = old_keys.len() + staged.len();
        let mut keys = Vec::with_capacity(total);
        let mut vals = Vec::with_capacity(total);
        let mut frozen = old_keys.into_iter().zip(old_vals).peekable();
        let mut fresh = staged.into_iter().peekable();
        loop {
            // Staging and frozen keys are disjoint, so plain less-than
            // ordering fully decides the merge.
            match (frozen.peek(), fresh.peek()) {
                (Some((fk, _)), Some((sk, _))) => {
                    let (k, v) = if fk < sk {
                        frozen.next().unwrap()
                    } else {
                        fresh.next().unwrap()
                    };
                    keys.push(k);
                    vals.push(v);
                }
                (Some(_), None) => {
                    let (k, v) = frozen.next().unwrap();
                    keys.push(k);
                    vals.push(v);
                }
                (None, Some(_)) => {
                    let (k, v) = fresh.next().unwrap();
                    keys.push(k);
                    vals.push(v);
                }
                (None, None) => break,
            }
        }
        self.keys = keys;
        self.vals = vals;
    }

    /// Iterates `(flat_key, &value)` in ascending key order, merging the
    /// frozen arrays and the staging map with two pointers. When staging
    /// is empty (the common, post-freeze case) this is a pure linear scan
    /// of the parallel vectors.
    pub(crate) fn iter(&self) -> SparseIter<'_, T> {
        SparseIter {
            keys: &self.keys,
            vals: &self.vals,
            pos: 0,
            staged: self.staging.iter().peekable(),
        }
    }

    /// Drains the store into ascending `(key, value)` pairs.
    pub(crate) fn into_sorted(mut self) -> Vec<(u64, T)> {
        self.freeze();
        self.keys.into_iter().zip(self.vals).collect()
    }
}

/// Ascending-key iterator over a [`SparseStore`]; see [`SparseStore::iter`].
pub(crate) struct SparseIter<'a, T> {
    keys: &'a [u64],
    vals: &'a [T],
    pos: usize,
    staged: std::iter::Peekable<std::collections::btree_map::Iter<'a, u64, T>>,
}

impl<'a, T> Iterator for SparseIter<'a, T> {
    type Item = (u64, &'a T);

    #[inline]
    fn next(&mut self) -> Option<(u64, &'a T)> {
        let frozen_key = self.keys.get(self.pos).copied();
        match (frozen_key, self.staged.peek()) {
            (Some(fk), Some(&(&sk, _))) => {
                if fk < sk {
                    let v = &self.vals[self.pos];
                    self.pos += 1;
                    Some((fk, v))
                } else {
                    let (&k, v) = self.staged.next().unwrap();
                    Some((k, v))
                }
            }
            (Some(fk), None) => {
                let v = &self.vals[self.pos];
                self.pos += 1;
                Some((fk, v))
            }
            (None, Some(_)) => {
                let (&k, v) = self.staged.next().unwrap();
                Some((k, v))
            }
            (None, None) => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.keys.len() - self.pos + self.staged.len();
        (n, Some(n))
    }
}

impl<T> ExactSizeIterator for SparseIter<'_, T> {}

/// Logical equality: same elements in the same order, regardless of how
/// they are split between frozen and staged storage.
impl<T: Element> PartialEq for SparseStore<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Element + Eq> Eq for SparseStore<T> {}

impl<T: Element> FromIterator<(u64, T)> for SparseStore<T> {
    /// Collects arbitrary-order pairs; duplicates resolve last-write-wins
    /// (matching repeated `BTreeMap::insert`).
    fn from_iter<I: IntoIterator<Item = (u64, T)>>(iter: I) -> Self {
        let mut pairs: Vec<(u64, T)> = iter.into_iter().collect();
        // Stable sort keeps duplicate keys in arrival order; the dedup
        // below then keeps the *last* arrival.
        pairs.sort_by_key(|&(k, _)| k);
        let mut out: Vec<(u64, T)> = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            match out.last_mut() {
                Some(last) if last.0 == k => last.1 = v,
                _ => out.push((k, v)),
            }
        }
        SparseStore::from_sorted(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_and_frozen_interleave_in_key_order() {
        let mut s: SparseStore<u32> = SparseStore::from_sorted(vec![(2, 20), (8, 80)]);
        s.insert(5, 50);
        s.insert(1, 10);
        let got: Vec<(u64, u32)> = s.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, vec![(1, 10), (2, 20), (5, 50), (8, 80)]);
        assert_eq!(s.staging.len(), 2);
        s.freeze();
        assert_eq!(s.staging.len(), 0);
        let again: Vec<(u64, u32)> = s.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, again);
        assert_eq!(s.keys, &[1, 2, 5, 8]);
        assert_eq!(s.vals, &[10, 20, 50, 80]);
    }

    #[test]
    fn writes_to_frozen_keys_hit_in_place() {
        let mut s: SparseStore<u32> = SparseStore::from_sorted(vec![(3, 1)]);
        s.insert(3, 2);
        assert_eq!(s.staging.len(), 0, "frozen hit must not stage");
        assert_eq!(s.get(3), Some(&2));
        s.update(3, |v| *v += 5);
        assert_eq!(s.get(3), Some(&7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn update_defaults_missing_elements() {
        let mut s: SparseStore<u32> = SparseStore::new();
        s.update(9, |v| *v += 4);
        s.update(9, |v| *v += 4);
        assert_eq!(s.get(9), Some(&8));
        assert_eq!(s.staging.len(), 1);
    }

    #[test]
    fn logical_eq_ignores_physical_split() {
        let mut a: SparseStore<u32> = SparseStore::new();
        a.insert(1, 10);
        a.insert(7, 70);
        let mut b = a.clone();
        b.freeze();
        assert_eq!(a, b);
        b.insert(8, 80);
        assert_ne!(a, b);
    }

    #[test]
    fn from_iter_is_last_write_wins() {
        let s: SparseStore<u32> = vec![(4, 1), (2, 9), (4, 3)].into_iter().collect();
        let got: Vec<(u64, u32)> = s.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, vec![(2, 9), (4, 3)]);
    }

    #[test]
    fn matches_btreemap_order_under_random_workload() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut store: SparseStore<u64> = SparseStore::new();
        let mut model: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for step in 0..2000 {
            let k = rng.random_range(0u64..256);
            let v = rng.random::<u64>();
            store.insert(k, v);
            model.insert(k, v);
            if step % 97 == 0 {
                store.freeze();
            }
            if step % 53 == 0 {
                assert_eq!(store.get(k), model.get(&k));
            }
        }
        let got: Vec<(u64, u64)> = store.iter().map(|(k, &v)| (k, v)).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }
}
