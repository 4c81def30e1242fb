//! `orion-serve`: sharded online inference over trained DistArrays.
//!
//! Training in Orion ends with a checkpoint (`orion_dsm::checkpoint`);
//! this crate is the other half of the model lifecycle: it loads those
//! checkpoints into immutable, read-optimized shards and answers point
//! lookups and top-k queries through a small serving engine with request
//! batching, per-shard LRU caching, and admission control.
//!
//! The design goal is the same one the training side holds everywhere:
//! **determinism first**. A served answer is bit-identical to a
//! brute-force scan of the raw `DistArray` (the oracle conformance suite
//! pins this for MF, SLR and LDA), cache on or off, one thread or many.
//! Performance modelling — queueing, batching, backpressure — runs on a
//! virtual clock, so latency percentiles and rejection decisions are
//! exactly reproducible too.
//!
//! Layers:
//!
//! - [`shard`]: [`ServeShard`]/[`ShardedArray`] — checkpoint → immutable
//!   row-major shards, partitioned by the existing [`RangePartition`]
//!   machinery (uniform or traffic-balanced); [`LanePanels`], the
//!   transposed scan index a model builds over the array it scans.
//! - [`cache`]: [`LruCache`] with hit/miss accounting, one per shard.
//! - [`engine`]: the [`ServeModel`] trait, thread-safe [`ServeEngine`],
//!   and the deterministic virtual-clock session loop.
//! - [`traffic`]: the seeded Zipf [`TrafficConfig`] request generator.
//!
//! Model adapters (MF recommendation, SLR scoring, LDA topic lookup)
//! live in `orion_apps::serve`; latency lands in `orion-trace` as
//! `SpanCat::Serve` spans and `RunReport` percentiles.
//!
//! [`RangePartition`]: orion_dsm::RangePartition

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod shard;
pub mod traffic;

pub use cache::{CacheStats, LruCache};
pub use engine::{EngineConfig, Request, ServeCtx, ServeEngine, ServeModel, ServeStats};
pub use shard::{LanePanels, ServeShard, ShardedArray};
pub use traffic::{RawRequest, TrafficConfig};
