//! A bounded LRU cache with hit/miss accounting, one per shard.
//!
//! The cache sits beside row fetches in the serve engine: point and
//! scoring queries record every row they read in it, streaming top-k
//! scans deliberately bypass it (a full scan would evict the whole
//! working set for rows that are read once). The engine stores keys only
//! (`LruCache<u64, ()>`): the rows are borrowed from the immutable
//! shards either way, so a "cached" answer is the uncached one by
//! construction, and what the cache contributes is recency — the hit and
//! miss counts the virtual service model prices. The oracle conformance
//! suite still re-runs every query with the cache disabled.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

/// SipHash with fixed keys, not `RandomState`'s per-process ones: the
/// bucket layout — and so the cost of a lookup, which sets the served
/// latency percentiles — is the same in every process. Keys are row ids
/// of a bounded cache, so there is no flooding to defend against.
type FixedState = BuildHasherDefault<DefaultHasher>;

/// Counters exposed by [`LruCache::stats`] (and aggregated across shards
/// by the engine). Invariant: `hits + misses == lookups`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls.
    pub lookups: u64,
    /// `get` calls that found a live entry.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Live entries right now.
    pub len: u64,
    /// Configured capacity.
    pub capacity: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Merges counters from another cache (for cross-shard aggregation).
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.len += other.len;
        self.capacity += other.capacity;
    }
}

/// An intrusive doubly-linked LRU list over a slab of entries.
///
/// `capacity == 0` disables the cache: every `get` is a counted miss and
/// `insert` is a no-op, so "cache off" runs exercise the exact same code
/// path with the same accounting invariants.
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize, FixedState>,
    slab: Vec<Entry<K, V>>,
    /// Most-recently-used entry, `NONE` when empty.
    head: usize,
    /// Least-recently-used entry, `NONE` when empty.
    tail: usize,
    free: Vec<usize>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NONE: usize = usize::MAX;

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity_and_hasher(capacity, FixedState::default()),
            slab: Vec::with_capacity(capacity),
            head: NONE,
            tail: NONE,
            free: Vec::new(),
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, counting a hit (and promoting the entry to
    /// most-recently-used) or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                Some(&self.slab[idx].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key -> value` as most-recently-used, evicting the
    /// least-recently-used entry if the cache is full. Re-inserting an
    /// existing key replaces its value (no eviction). A no-op when
    /// `capacity == 0`.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NONE);
            self.unlink(victim);
            let old = self.slab[victim].key.clone();
            self.map.remove(&old);
            self.free.push(victim);
            self.evictions += 1;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Entry {
                    key: key.clone(),
                    value,
                    prev: NONE,
                    next: NONE,
                };
                i
            }
            None => {
                self.slab.push(Entry {
                    key: key.clone(),
                    value,
                    prev: NONE,
                    next: NONE,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NONE {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NONE {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NONE;
        self.slab[idx].next = NONE;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NONE;
        self.slab[idx].next = self.head;
        if self.head != NONE {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NONE {
            self.tail = idx;
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.hits + self.misses,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len() as u64,
            capacity: self.capacity as u64,
        }
    }

    /// Keys from most- to least-recently-used (test introspection).
    pub fn keys_mru_order(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut idx = self.head;
        while idx != NONE {
            out.push(self.slab[idx].key.clone());
            idx = self.slab[idx].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting_balances() {
        let mut c: LruCache<u64, u64> = LruCache::new(2);
        assert_eq!(c.get(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&2), None);
        let s = c.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits + s.misses, s.lookups);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u64, u64> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        let _ = c.get(&1); // 1 is now MRU; 2 is the victim.
        c.insert(3, 30);
        assert_eq!(c.keys_mru_order(), vec![3, 1]);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut c: LruCache<u64, u64> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.keys_mru_order(), vec![1, 2]);
    }

    #[test]
    fn zero_capacity_disables_but_still_counts() {
        let mut c: LruCache<u64, u64> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 0);
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (1, 0, 1));
    }

    #[test]
    fn slab_slots_are_reused_after_eviction() {
        let mut c: LruCache<u64, u64> = LruCache::new(2);
        for k in 0..100 {
            c.insert(k, k);
            let _ = c.get(&k);
        }
        assert!(c.slab.len() <= 3, "slab grew to {}", c.slab.len());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 98);
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = CacheStats {
            lookups: 5,
            hits: 3,
            misses: 2,
            evictions: 1,
            len: 2,
            capacity: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.lookups, 10);
        assert_eq!(a.hits, 6);
        assert!((a.hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
