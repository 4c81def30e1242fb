//! Orion's distributed execution runtime — the paper's compiled
//! computation schedules and their execution machinery (§4.3–§4.4).
//!
//! Turns the analyzer's [`orion_analysis::ParallelPlan`] into running
//! computation:
//!
//! - [`build_schedule`] compiles the chosen strategy over the
//!   materialized iteration space into a [`Schedule`] — blocks, step
//!   plan, rotation edges, synchronization mode (Fig. 7);
//! - [`SimExecutor`] executes passes of the *real* algorithm in schedule
//!   order while advancing virtual clocks and the simulated network
//!   (rotated-partition pipelining of Fig. 8, served-array prefetch
//!   round trips of §4.4, barriers and point-to-point waits);
//! - [`run_grid_pass_pooled`] / [`run_one_d_pass_pooled`] execute the
//!   same schedules on a persistent [`WorkerPool`] of real OS threads
//!   with partition ownership and zero-copy channel-based rotation —
//!   the repo's real multi-core execution path;
//! - [`walk`] is the one loop over a worker's execution list: compute a
//!   block, forward the time partition, await the next — over a
//!   [`Transport`] that is a channel on the pool and a peer socket on a
//!   TCP node (`orion-apps::distributed`);
//! - [`run_readout_pooled`] reads a per-item metric (the §3.4 loss
//!   accumulator) on the same pool: one contiguous item range per
//!   worker, folded in item order, so it carries the serial fold's bits;
//! - [`comm_model_with_spec`] derives the communication model from the
//!   analyzer's array placements.
//!
//! # Invariants the wire layer relies on
//!
//! `orion-net` serializes rotated partitions between processes, which is
//! only sound because compiled schedules guarantee:
//!
//! - **Contiguity** — [`CompiledBlocks`] stores every block's item
//!   positions as one contiguous `u32` run (CSR layout); a block is a
//!   slice, never a scatter, so executing it remotely needs no index
//!   translation beyond the partition's own origin offset.
//! - **Single ownership** — at any step exactly one worker holds a given
//!   time partition. Rotation edges (`Exec::awaited`,
//!   `ThreadedPlan::forwards_of`) form per-partition chains, so a
//!   serialized partition in flight can never race a concurrent writer.
//! - **Deterministic order** — a worker's execution list and each
//!   block's item order are fixed by the plan, independent of transport
//!   timing. Same plan, same seed ⇒ the same floating-point operations
//!   in the same order, which is what makes sim / threads / sockets
//!   bit-identical ([`orion_net::plan_fingerprint`] hashes exactly this
//!   structure).
//!
//! [`orion_net::plan_fingerprint`]:
//!     https://docs.rs/orion-net/latest/orion_net/fn.plan_fingerprint.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod executor;
mod model;
mod pool;
mod prefetch;
mod schedule;
mod threaded;

pub use event::HbEvent;
pub use executor::{LoopCommModel, PassStats, SimExecutor};
pub use model::comm_model_with_spec;
pub use pool::{default_threads, WorkerPool};
pub use prefetch::{IndexRecorder, PrefetchMode, ServedModel};
pub use schedule::{
    build_schedule, build_schedule_with, AwaitedTransfer, CompiledBlocks, Exec, Schedule,
    ScheduleOptions, SyncMode,
};
pub use threaded::{
    run_grid_pass_pooled, run_one_d_pass_pooled, run_readout_pooled, walk, GridPassOutput,
    OneDPassOutput, ThreadPhase, ThreadSpan, ThreadedPlan, Transport, Walk,
};
