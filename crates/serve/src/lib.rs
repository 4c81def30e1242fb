//! `orion-serve`: sharded online inference over trained DistArrays.
//!
//! Training in Orion ends with a checkpoint (`orion_dsm::checkpoint`);
//! this crate is the other half of the model lifecycle: it loads those
//! checkpoints into immutable, read-optimized shards and answers point
//! lookups and top-k queries through one thread-safe call,
//! [`ServeEngine::answer`], over per-shard LRU row caches.
//!
//! The design goal is the same one the training side holds everywhere:
//! **determinism first**. A served answer is bit-identical to a
//! brute-force scan of the raw `DistArray` (the oracle conformance suite
//! pins this for MF, SLR and LDA), cache on or off, one thread or many.
//! Latency is measured, not modelled: callers time `answer` with a wall
//! clock.
//!
//! Layers:
//!
//! - [`shard`]: [`ServeShard`]/[`ShardedArray`] — checkpoint → immutable
//!   row-major shards, partitioned by the existing [`RangePartition`]
//!   machinery (uniform or traffic-balanced); [`LanePanels`], the
//!   transposed scan index a model builds over the array it scans.
//! - [`cache`]: [`LruCache`] with hit/miss accounting, one per shard.
//! - [`engine`]: the [`ServeModel`] trait and the thread-safe
//!   [`ServeEngine`].
//! - [`traffic`]: the seeded Zipf [`TrafficConfig`] request generator.
//!
//! Model adapters (MF recommendation, SLR scoring, LDA topic lookup)
//! live in `orion_apps::serve`. A caller that records latency does so
//! as `orion-trace` `SpanCat::Serve` spans, which `RunReport` turns into
//! percentiles.
//!
//! [`RangePartition`]: orion_dsm::RangePartition

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod shard;
pub mod traffic;

pub use cache::{CacheStats, LruCache};
pub use engine::{EngineConfig, ServeCtx, ServeEngine, ServeModel};
pub use shard::{LanePanels, ServeShard, ShardedArray};
pub use traffic::{RawRequest, TrafficConfig};
