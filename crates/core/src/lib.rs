//! Orion: automatic dependence-aware parallelization of serial
//! imperative ML training programs on distributed shared memory.
//!
//! This crate is the user-facing API of the system described in
//! *"Automating Dependence-Aware Parallelization of Machine Learning
//! Training on Distributed Shared Memory"* (Wei, Gibson, Gibbons, Xing —
//! EuroSys 2019). A program:
//!
//! 1. creates [`orion_dsm::DistArray`]s (dense or sparse tensors on DSM),
//!    registers them with the [`Driver`];
//! 2. declares each training loop's access pattern as an
//!    [`orion_ir::LoopSpec`] (the information Orion's Julia macro
//!    extracts from the loop AST);
//! 3. calls [`Driver::parallel_for`], which runs static dependence
//!    analysis, picks a parallelization strategy (1D / 2D ordered /
//!    2D unordered / unimodular-transformed / serial), chooses array
//!    placements and prefetch plans, and compiles a distributed
//!    computation schedule;
//! 4. optionally re-plans the compiled loop once from measured costs
//!    with [`Driver::tune_loop`];
//! 5. runs passes with [`Driver::run_pass`]: the real algorithm executes
//!    in schedule order while a cluster simulation accounts time and
//!    network traffic — or on real cores with
//!    [`Driver::run_pass_threaded`] / [`Driver::run_pass_threaded_one_d`],
//!    or on a TCP cluster with [`Driver::run_pass_distributed`].
//!
//! The packaged applications do not call these one by one: each is one
//! `orion_apps::run::App` impl, and `orion_apps::run::run(app, data,
//! &RunConfig)` owns the driver — engine, tracing, tuning and chaos
//! recovery are fields of the config, not separate trainers. See the
//! `examples/` directory for complete programs (SGD matrix
//! factorization, LDA topic modeling, sparse logistic regression,
//! gradient boosted trees).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod recovery;

pub use driver::{CompiledLoop, Driver, DriverError, Indexed};
pub use recovery::{clean_checkpoints, CheckpointPolicy, FaultEvent, RecoveryStats};

// The layers re-exported for convenience, so applications can depend on
// `orion-core` alone.
pub use orion_analysis::{
    analyze, analyze_with, dependence_vectors, plan_diagnostic, report_with, CostParams, DepElem,
    DepVec, ParallelPlan, Placement, PrefetchPlan, Strategy, UniMat,
};
pub use orion_check::{
    full_report, has_warnings, lint, lint_all, AccessOracle, LintOptions, Race, Sanitizer,
};
pub use orion_dsm::{
    codec, kernels, DistArray, DistArrayBuffer, Element, Float, MathMode, RangePartition, Shape,
};
pub use orion_ir::{
    render_all, ArrayMeta, ArrayRef, Code, Diagnostic, Dim, DistArrayId, LoopSpec, Severity,
    SpecError, Subscript,
};
pub use orion_runtime::{
    build_schedule, default_threads, run_grid_pass_pooled, run_one_d_pass_pooled, GridPassOutput,
    IndexRecorder, OneDPassOutput, PassStats, PrefetchMode, Schedule, ThreadPhase, ThreadSpan,
    ThreadedPlan, WorkerPool,
};
pub use orion_sim::{
    ClusterSpec, CrashEvent, FaultPlan, LinkFault, PlanParseError, ProgressPoint, RunStats,
    Straggler, VirtualTime,
};
pub use orion_trace::{write_perfetto, OwnedSession, RunReport, SessionView, SpanCat};
pub use orion_tune::{
    calibrate, measure_pass_ns, tune_spec, Calibration, PlanChoice, TuneConfig, TuneOutcome,
    TunedPlan,
};
