//! The serve engine: cached row fetches, request batching, admission
//! control, and a deterministic virtual-clock session loop.
//!
//! The engine separates two concerns:
//!
//! - [`ServeEngine::answer`] is the *pure* query path: thread-safe,
//!   deterministic, usable from any number of real threads. Its result
//!   depends only on the loaded shards — never on the cache state, the
//!   clock, or interleaving (the concurrency conformance test pins
//!   this).
//! - [`ServeEngine::run_session`] is the *load model*: a discrete-event
//!   loop on the virtual clock (the same modelling discipline as
//!   `orion-sim`) that replays a timestamped request stream through
//!   per-shard FIFO servers with batching, rejects requests above the
//!   in-flight limit, and records one [`SpanCat::Serve`] span per
//!   completed request so latency percentiles land in the
//!   [`RunReport`].

use std::sync::Mutex;

use orion_dsm::Element;
use orion_trace::{LoadStats, RunReport, Span, SpanCat, Tracer};

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

    /// The served arrays. Array 0 is the *primary* array: its shard
    /// count defines the serving topology (one modelled server per
    /// primary shard), and every array must be sharded into the same
    /// number of shards.
    fn arrays(&self) -> &[ShardedArray<Self::Elem>];

    /// The shard a query queues on, in `0..arrays()[0].n_shards()`.
    /// Must be a pure function of the query.
    fn home_shard(&self, query: &Self::Query) -> usize;

    /// Evaluates a query. All state access goes through `ctx` so cached
    /// and uncached executions read identical bytes; the answer must be
    /// deterministic in the query alone.
    fn answer(&self, query: &Self::Query, ctx: &mut ServeCtx<'_, Self::Elem>) -> Self::Answer;
}

/// One array's caches: an LRU per shard over global row ids. Keys only —
/// the rows themselves are borrowed from the immutable shards — so what
/// a cache keeps is recency, and the hit and miss counts the virtual
/// service model charges for.
type ShardCaches = Vec<Mutex<LruCache<u64, ()>>>;

/// Per-request access counters, filled by [`ServeCtx`] and fed into the
/// virtual service-time model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AccessCounts {
    /// Cached row fetches that hit.
    pub row_hits: u64,
    /// Cached row fetches that missed (and loaded from the shard).
    pub row_misses: u64,
    /// Elements read by streaming shard scans (top-k).
    pub scanned_elems: u64,
}

/// The access context handed to [`ServeModel::answer`]: cached row
/// fetches plus direct shard scans, with per-request accounting.
pub struct ServeCtx<'a, T: Element> {
    arrays: &'a [ShardedArray<T>],
    caches: &'a [ShardCaches],
    /// Counters for the service-time model.
    pub(crate) counts: AccessCounts,
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
    pub fn row(&mut self, array: usize, row: u64) -> &'a [T] {
        let a = &self.arrays[array];
        let shard = a.shard_of(row);
        let values = a
            .shard(shard)
            .row(row)
            .unwrap_or_else(|| panic!("row {row} out of bounds of `{}`", a.name()));
        let mut cache = self.caches[array][shard].lock().expect("cache lock");
        if cache.get(&row).is_some() {
            self.counts.row_hits += 1;
        } else {
            self.counts.row_misses += 1;
            cache.insert(row, ());
        }
        values
    }

    /// Direct access to one shard of `array` for streaming scans.
    /// Bypasses the cache by design (a full scan would evict the whole
    /// working set) but charges every element to the scan counter — the
    /// shard's logical element count, which is also what a model that
    /// reads the rows through its own [`LanePanels`](crate::LanePanels)
    /// index of this shard owes.
    pub fn scan(&mut self, array: usize, shard: usize) -> &'a ServeShard<T> {
        let s = self.arrays[array].shard(shard);
        self.counts.scanned_elems += s.values().len() as u64;
        s
    }

    /// Shard count of `array`.
    pub fn n_shards(&self, array: usize) -> usize {
        self.arrays[array].n_shards()
    }
}

/// Engine tuning: cache size, admission control, batching, and the
/// virtual service-cost model (all costs in virtual nanoseconds).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// LRU capacity per shard per array; 0 disables caching.
    pub cache_capacity: usize,
    /// Admission control: requests arriving while this many are already
    /// in flight are rejected (backpressure).
    pub max_in_flight: usize,
    /// Requests batched per shard dispatch: queued requests share one
    /// batch overhead up to this many, then a new batch opens.
    pub batch_max: usize,
    /// Fixed per-request cost.
    pub base_ns: u64,
    /// Cost of a cached row fetch that hits.
    pub row_hit_ns: u64,
    /// Cost of a row fetch that misses (shard memory + cache fill).
    pub row_miss_ns: u64,
    /// Cost per element streamed by a top-k scan.
    pub scan_elem_ns: u64,
    /// Dispatch overhead charged once per batch.
    pub batch_overhead_ns: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_capacity: 256,
            max_in_flight: 64,
            batch_max: 16,
            base_ns: 2_000,
            row_hit_ns: 200,
            row_miss_ns: 1_500,
            scan_elem_ns: 2,
            batch_overhead_ns: 10_000,
        }
    }
}

impl EngineConfig {
    /// Sets the per-shard cache capacity (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the in-flight admission limit.
    pub fn with_max_in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = max;
        self
    }
}

/// One timestamped request of a session stream.
#[derive(Debug, Clone)]
pub struct Request<Q> {
    /// Arrival on the virtual clock, nanoseconds.
    pub arrive_ns: u64,
    /// The query.
    pub query: Q,
}

/// Aggregate results of one [`ServeEngine::run_session`] replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests offered by the stream.
    pub offered: u64,
    /// Requests admitted and answered.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Virtual time when the last admitted request completed.
    pub wall_ns: u64,
    /// Latency percentiles over completed requests.
    pub latency: Option<orion_trace::LatencyStats>,
    /// Completed requests per shard (serving load balance).
    pub per_shard_requests: Vec<u64>,
    /// Cache counters aggregated over every array and shard.
    pub cache: CacheStats,
}

impl ServeStats {
    /// Completed requests per virtual second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.completed as f64 / (self.wall_ns as f64 / 1e9)
        }
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
    /// Panics if the model's arrays disagree on shard count (the serving
    /// topology is one server per primary shard).
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
        self.answer_counted(query).0
    }

    /// [`ServeEngine::answer`] plus the access counters the session
    /// loop feeds into the service-time model.
    pub(crate) fn answer_counted(&self, query: &M::Query) -> (M::Answer, AccessCounts) {
        let mut ctx = ServeCtx {
            arrays: self.model.arrays(),
            caches: &self.caches,
            counts: AccessCounts::default(),
        };
        let answer = self.model.answer(query, &mut ctx);
        (answer, ctx.counts)
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

    /// Replays a timestamped request stream through the virtual-clock
    /// service model. Deterministic: same stream + same config → same
    /// stats, same rejections, same spans.
    ///
    /// Each shard is a FIFO server. An arriving request first retires
    /// everything that completed by its arrival time; if the in-flight
    /// count still meets `max_in_flight`, it is rejected (`None` in the
    /// returned answers). Admitted requests queue on their home shard,
    /// share a batch overhead with up to `batch_max` neighbours, and pay
    /// a service time derived from their actual access counts (cache
    /// hits are cheaper than misses — so a warm cache visibly shortens
    /// the latency tail). One `Serve` span per completed request covers
    /// arrival → completion.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not sorted by arrival time.
    pub fn run_session(
        &self,
        requests: &[Request<M::Query>],
        tracer: &mut Tracer,
    ) -> (ServeStats, Vec<Option<M::Answer>>) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let n_shards = self.n_shards();
        let mut busy_until = vec![0u64; n_shards];
        let mut batch_fill = vec![0usize; n_shards];
        let mut in_flight: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut per_shard = vec![0u64; n_shards];
        let mut latencies = Vec::with_capacity(requests.len());
        let mut answers = Vec::with_capacity(requests.len());
        let mut rejected = 0u64;
        let mut wall_ns = 0u64;
        let mut prev_arrive = 0u64;
        for req in requests {
            assert!(
                req.arrive_ns >= prev_arrive,
                "request stream must be sorted by arrival time"
            );
            prev_arrive = req.arrive_ns;
            while let Some(&Reverse(done)) = in_flight.peek() {
                if done <= req.arrive_ns {
                    in_flight.pop();
                } else {
                    break;
                }
            }
            if in_flight.len() >= self.config.max_in_flight {
                rejected += 1;
                answers.push(None);
                continue;
            }
            let shard = self.model.home_shard(&req.query);
            assert!(shard < n_shards, "home shard {shard} out of range");
            let (answer, counts) = self.answer_counted(&req.query);
            let mut service = self.config.base_ns
                + counts.row_hits * self.config.row_hit_ns
                + counts.row_misses * self.config.row_miss_ns
                + counts.scanned_elems * self.config.scan_elem_ns;
            let start = if busy_until[shard] <= req.arrive_ns {
                // Shard idle: this request opens a new batch.
                batch_fill[shard] = 1;
                service += self.config.batch_overhead_ns;
                req.arrive_ns
            } else {
                // Queued behind the shard's current work: join the open
                // batch, or open a new one when it is full.
                if batch_fill[shard] < self.config.batch_max {
                    batch_fill[shard] += 1;
                } else {
                    batch_fill[shard] = 1;
                    service += self.config.batch_overhead_ns;
                }
                busy_until[shard]
            };
            let done = start + service;
            busy_until[shard] = done;
            in_flight.push(Reverse(done));
            per_shard[shard] += 1;
            latencies.push(done - req.arrive_ns);
            wall_ns = wall_ns.max(done);
            tracer.record(
                SpanCat::Serve,
                shard,
                shard,
                req.arrive_ns,
                done,
                0,
                answers.len() as u64,
            );
            answers.push(Some(answer));
        }
        let stats = ServeStats {
            offered: requests.len() as u64,
            completed: requests.len() as u64 - rejected,
            rejected,
            wall_ns,
            latency: orion_trace::LatencyStats::from_durations(&latencies),
            per_shard_requests: per_shard,
            cache: self.cache_stats(),
        };
        (stats, answers)
    }

    /// Builds the standard [`RunReport`] for a finished session: one
    /// "machine"/"worker" per shard, per-shard request counts as the
    /// load statistics, latency percentiles from the `Serve` spans.
    pub fn session_report(&self, stats: &ServeStats, spans: &[Span]) -> RunReport {
        RunReport::build(
            stats.wall_ns,
            spans,
            self.n_shards(),
            1,
            vec![],
            self.model
                .arrays()
                .iter()
                .map(|a| {
                    (
                        a.name().to_string(),
                        a.shards().iter().map(|s| s.bytes()).sum(),
                    )
                })
                .collect(),
            LoadStats::new(stats.per_shard_requests.clone()),
        )
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

        fn home_shard(&self, q: &u64) -> usize {
            self.arrays[0].shard_of(*q)
        }

        fn answer(&self, q: &u64, ctx: &mut ServeCtx<'_, f32>) -> f32 {
            let row = ctx.row(0, *q);
            row[0] + row[1]
        }
    }

    fn burst(n: usize, at: u64) -> Vec<Request<u64>> {
        (0..n)
            .map(|i| Request {
                arrive_ns: at,
                query: i as u64 % 8,
            })
            .collect()
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

    #[test]
    fn backpressure_rejects_exactly_the_excess() {
        let engine = ServeEngine::new(
            RowSum::new(8, 2),
            EngineConfig::default().with_max_in_flight(3),
        );
        let mut tracer = Tracer::enabled(16);
        let (stats, answers) = engine.run_session(&burst(10, 0), &mut tracer);
        // All ten arrive at t=0 with nothing completed: exactly the
        // first three are admitted.
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.rejected, 7);
        assert!(answers[..3].iter().all(Option::is_some));
        assert!(answers[3..].iter().all(Option::is_none));
        assert_eq!(tracer.spans().len(), 3);
    }

    #[test]
    fn paced_stream_is_admitted_fully_and_batches() {
        let engine = ServeEngine::new(RowSum::new(8, 2), EngineConfig::default());
        let reqs: Vec<Request<u64>> = (0..100)
            .map(|i| Request {
                arrive_ns: i * 50_000,
                query: i % 8,
            })
            .collect();
        let mut tracer = Tracer::enabled(128);
        let (stats, answers) = engine.run_session(&reqs, &mut tracer);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.completed, 100);
        assert!(answers.iter().all(Option::is_some));
        assert!(stats.latency.unwrap().p50_ns > 0);
        assert!(stats.throughput_rps() > 0.0);
        assert_eq!(stats.per_shard_requests.iter().sum::<u64>(), 100);
    }

    #[test]
    fn sessions_are_deterministic() {
        let reqs: Vec<Request<u64>> = (0..200)
            .map(|i| Request {
                arrive_ns: i * 1_000,
                query: i % 8,
            })
            .collect();
        let run = || {
            let engine = ServeEngine::new(
                RowSum::new(8, 4),
                EngineConfig::default().with_max_in_flight(4),
            );
            let mut tracer = Tracer::enabled(256);
            let (stats, answers) = engine.run_session(&reqs, &mut tracer);
            (stats, answers, tracer.into_spans())
        };
        let (s1, a1, sp1) = run();
        let (s2, a2, sp2) = run();
        assert_eq!(s1, s2);
        assert_eq!(a1, a2);
        assert_eq!(sp1, sp2);
    }

    #[test]
    fn warm_cache_shortens_service_time() {
        let engine = ServeEngine::new(RowSum::new(8, 1), EngineConfig::default());
        // Two identical queries far apart: the second hits the row cache
        // and must finish faster.
        let reqs = vec![
            Request {
                arrive_ns: 0,
                query: 3u64,
            },
            Request {
                arrive_ns: 1_000_000,
                query: 3u64,
            },
        ];
        let mut tracer = Tracer::enabled(4);
        let (stats, _) = engine.run_session(&reqs, &mut tracer);
        let spans = tracer.spans();
        assert!(spans[1].dur_ns() < spans[0].dur_ns());
        assert_eq!(stats.cache.hits, 1);
    }

    #[test]
    fn session_report_carries_latency_and_load() {
        let engine = ServeEngine::new(RowSum::new(8, 2), EngineConfig::default());
        let reqs: Vec<Request<u64>> = (0..50)
            .map(|i| Request {
                arrive_ns: i * 20_000,
                query: i % 8,
            })
            .collect();
        let mut tracer = Tracer::enabled(64);
        let (stats, _) = engine.run_session(&reqs, &mut tracer);
        let report = engine.session_report(&stats, tracer.spans());
        assert_eq!(report.latency, stats.latency);
        assert_eq!(report.load.per_worker_items, stats.per_shard_requests);
        assert_eq!(report.wall_ns, stats.wall_ns);
        assert!(report.to_json().contains("serve_latency"));
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_streams_are_rejected() {
        let engine = ServeEngine::new(RowSum::new(8, 2), EngineConfig::default());
        let reqs = vec![
            Request {
                arrive_ns: 100,
                query: 0u64,
            },
            Request {
                arrive_ns: 50,
                query: 1u64,
            },
        ];
        let _ = engine.run_session(&reqs, &mut Tracer::default());
    }
}
