//! The serve engine: one query path, [`ServeEngine::answer`], over
//! cached row fetches.
//!
//! `answer` is thread-safe and deterministic, usable from any number
//! of real threads. Its result depends only on the loaded shards —
//! never on the cache state or interleaving (the concurrency
//! conformance test pins this). Callers that want latency time their
//! own calls with a wall clock; the ledger's `mf_serve` workload and
//! the `model_serving` example both do.

use std::sync::Mutex;

use orion_dsm::Element;

use crate::cache::{CacheStats, LruCache};
use crate::shard::{ServeShard, ShardedArray};

/// A model served by the engine: its sharded arrays plus the query
/// evaluation logic. Implementations live in `orion_apps::serve`
/// (MF recommendation, SLR scoring, LDA topic lookup).
pub trait ServeModel: Send + Sync {
    /// Element type of every served array.
    type Elem: Element;
    /// Query type.
    type Query: Clone + Send + Sync;
    /// Answer type; `PartialEq + Debug` so oracle tests can assert
    /// bit-identity.
    type Answer: Clone + PartialEq + Send + core::fmt::Debug;

    /// The served arrays. Array 0 is the *primary* array, and every
    /// array must be sharded into as many shards as it is.
    fn arrays(&self) -> &[ShardedArray<Self::Elem>];

    /// Evaluates a query. All state access goes through `ctx` so cached
    /// and uncached executions read identical bytes; the answer must be
    /// deterministic in the query alone.
    fn answer(&self, query: &Self::Query, ctx: &ServeCtx<'_, Self::Elem>) -> Self::Answer;
}

/// One array's caches: an LRU per shard over global row ids. Keys only —
/// the rows themselves are borrowed from the immutable shards — so what
/// a cache keeps is recency, and its hit and miss counts.
type ShardCaches = Vec<Mutex<LruCache<u64, ()>>>;

/// Records a read of `row` in its shard's LRU. Not generic, so it is
/// compiled once, here: instantiated in a caller's crate, whether the
/// cache's hashing was inlined moved with that crate's unrelated edits.
fn touch(cache: &Mutex<LruCache<u64, ()>>, row: u64) {
    let mut cache = cache.lock().expect("cache lock");
    if cache.get(&row).is_none() {
        cache.insert(row, ());
    }
}

/// The access context handed to [`ServeModel::answer`]: cached row
/// fetches plus direct shard scans.
pub struct ServeCtx<'a, T: Element> {
    arrays: &'a [ShardedArray<T>],
    caches: &'a [ShardCaches],
}

impl<'a, T: Element> ServeCtx<'a, T> {
    /// Borrows one row of `array` from its shard and records the fetch
    /// in that shard's LRU. The returned bytes are the shard's own, so
    /// they are identical whether the fetch hits, misses, or the cache
    /// is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds — queries address trained
    /// models, so an out-of-range key is a routing bug.
    pub fn row(&self, array: usize, row: u64) -> &'a [T] {
        let a = &self.arrays[array];
        let shard = a.shard_of(row);
        let values = a
            .shard(shard)
            .row(row)
            .unwrap_or_else(|| panic!("row {row} out of bounds of `{}`", a.name()));
        touch(&self.caches[array][shard], row);
        values
    }

    /// Direct access to one shard of `array` for streaming scans.
    /// Bypasses the cache by design: a full scan would evict the whole
    /// working set.
    pub fn scan(&self, array: usize, shard: usize) -> &'a ServeShard<T> {
        self.arrays[array].shard(shard)
    }

    /// Shard count of `array`.
    pub fn n_shards(&self, array: usize) -> usize {
        self.arrays[array].n_shards()
    }
}

/// Engine tuning: the row cache's size.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// LRU capacity per shard per array; 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 256,
        }
    }
}

impl EngineConfig {
    /// Sets the per-shard cache capacity (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }
}

/// The sharded serving engine wrapping a [`ServeModel`] with per-shard
/// LRU caches.
pub struct ServeEngine<M: ServeModel> {
    model: M,
    caches: Vec<ShardCaches>,
    config: EngineConfig,
}

impl<M: ServeModel> ServeEngine<M> {
    /// Wraps `model`, building one LRU cache per shard per array.
    ///
    /// # Panics
    ///
    /// Panics if the model's arrays disagree on shard count.
    pub fn new(model: M, config: EngineConfig) -> Self {
        let arrays = model.arrays();
        assert!(!arrays.is_empty(), "a serve model needs at least one array");
        let n = arrays[0].n_shards();
        let caches = arrays
            .iter()
            .map(|a| {
                assert_eq!(
                    a.n_shards(),
                    n,
                    "array `{}` shard count disagrees with the primary",
                    a.name()
                );
                (0..a.n_shards())
                    .map(|_| Mutex::new(LruCache::new(config.cache_capacity)))
                    .collect()
            })
            .collect();
        ServeEngine {
            model,
            caches,
            config,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Serving shards (primary-array shard count).
    pub fn n_shards(&self) -> usize {
        self.model.arrays()[0].n_shards()
    }

    /// Answers one query. Thread-safe and deterministic: the answer
    /// depends only on the loaded shards, never on cache state or
    /// concurrent callers.
    pub fn answer(&self, query: &M::Query) -> M::Answer {
        let ctx = ServeCtx {
            arrays: self.model.arrays(),
            caches: &self.caches,
        };
        self.model.answer(query, &ctx)
    }

    /// Cache counters aggregated over every array and shard.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for per_array in &self.caches {
            for cache in per_array {
                total.merge(&cache.lock().expect("cache lock").stats());
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_dsm::DistArray;

    /// A trivial model: one array, point row-sum queries.
    struct RowSum {
        arrays: Vec<ShardedArray<f32>>,
    }

    impl RowSum {
        fn new(n_rows: u64, n_shards: usize) -> Self {
            let a = DistArray::dense_from_fn("A", vec![n_rows, 2], |i| (i[0] + i[1]) as f32);
            RowSum {
                arrays: vec![ShardedArray::from_array(&a, n_shards)],
            }
        }
    }

    impl ServeModel for RowSum {
        type Elem = f32;
        type Query = u64;
        type Answer = f32;

        fn arrays(&self) -> &[ShardedArray<f32>] {
            &self.arrays
        }

        fn answer(&self, q: &u64, ctx: &ServeCtx<'_, f32>) -> f32 {
            let row = ctx.row(0, *q);
            row[0] + row[1]
        }
    }

    #[test]
    fn answers_are_cache_independent() {
        let hot = ServeEngine::new(RowSum::new(8, 2), EngineConfig::default());
        let cold = ServeEngine::new(
            RowSum::new(8, 2),
            EngineConfig::default().with_cache_capacity(0),
        );
        for q in 0..8u64 {
            assert_eq!(hot.answer(&q), cold.answer(&q));
            assert_eq!(hot.answer(&q), (2 * q + 1) as f32);
        }
        assert!(hot.cache_stats().hits > 0);
        assert_eq!(cold.cache_stats().hits, 0);
        let s = hot.cache_stats();
        assert_eq!(s.hits + s.misses, s.lookups);
    }
}
