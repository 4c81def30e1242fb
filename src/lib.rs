//! # Orion-rs
//!
//! A from-scratch Rust reproduction of *"Automating Dependence-Aware
//! Parallelization of Machine Learning Training on Distributed Shared
//! Memory"* (Wei, Gibson, Gibbons, Xing — EuroSys 2019).
//!
//! Orion automatically parallelizes serial imperative ML training
//! programs: a static dependence analysis over the program's DistArray
//! access pattern decides whether a loop can run 1-D, 2-D (ordered or
//! unordered), or after a unimodular transformation of its iteration
//! space — preserving the loop-carried dependences that govern
//! convergence — and compiles an optimized distributed computation
//! schedule with locality-aware array placement, pipelined rotation and
//! bulk prefetching.
//!
//! This facade crate re-exports the full workspace:
//!
//! - [`ir`] — the loop/access IR (what Orion's Julia macro extracts);
//! - [`analysis`] — dependence vectors, strategy selection, unimodular
//!   transformations, placement heuristics (the paper's core);
//! - [`dsm`] — DistArrays, buffers, accumulators, partitioning;
//! - [`sim`] — the deterministic virtual-time cluster simulator;
//! - [`runtime`] — schedules, the simulated executor, the real-thread
//!   engine, prefetch models;
//! - [`net`] — the process-per-node socket runtime: TCP framing,
//!   coordinator/node protocol, distributed rotation and recovery (see
//!   `docs/DISTRIBUTED.md`);
//! - [`core`] — the user-facing [`core::Driver`] API;
//! - [`check`] — dependence lints (`O001`–`O005`), the schedule
//!   sanitizer (`O100`), the happens-before race detector
//!   (`O110`–`O112`), the protocol model checker (`O200`–`O204`) and
//!   the rustc-style diagnostics pipeline (see `docs/CHECKING.md`);
//! - [`trace`] — phase-level span tracing, per-link byte accounting and
//!   Chrome/Perfetto trace export (see `docs/OBSERVABILITY.md`);
//! - [`ps`] / [`strads`] / [`dataflow`] — the Bösen, STRADS and
//!   TensorFlow-style baselines of the paper's evaluation;
//! - [`data`] — seeded synthetic datasets (Netflix-, NYTimes-,
//!   ClueWeb-, KDD-like);
//! - [`apps`] — SGD MF, LDA, SLR, GBT and CP tensor decomposition, each
//!   with serial and Orion-parallelized runners;
//! - [`serve`] — sharded online inference over trained checkpoints:
//!   LRU-cached point lookups and top-k queries through one thread-safe
//!   query path (see `docs/SERVING.md`);
//! - [`tune`] — profile-guided adaptive planning: seeded calibration
//!   passes fit measured compute/bandwidth/skew into the analysis cost
//!   model and re-plan strategy, partition dims, worker count and
//!   prefetch regime, reporting decisions as `O020` diagnostics (see
//!   `docs/TUNING.md`).
//!
//! See `examples/quickstart.rs` for a five-minute tour and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology.

pub use orion_analysis as analysis;
pub use orion_apps as apps;
pub use orion_check as check;
pub use orion_core as core;
pub use orion_data as data;
pub use orion_dataflow as dataflow;
pub use orion_dsm as dsm;
pub use orion_ir as ir;
pub use orion_net as net;
pub use orion_ps as ps;
pub use orion_runtime as runtime;
pub use orion_serve as serve;
pub use orion_sim as sim;
pub use orion_strads as strads;
pub use orion_trace as trace;
pub use orion_tune as tune;
