//! Chaos training: how [`crate::run::run`] is told to train under a
//! fault plan with periodic checkpointing and restore-and-reexecute
//! recovery (paper §4.3), and what it reports back.
//!
//! The contract that makes recovery *provably* equivalent to fault-free
//! execution (asserted bit-for-bit by `tests/chaos_recovery.rs`): each
//! pass is a deterministic function of the model state at its start, and
//! the checkpoint captures that state exactly. When a machine crashes,
//! the partial pass is discarded, the model is reloaded from the latest
//! checkpoint, and the passes since are re-executed — landing on the
//! same bits the fault-free run produces.

use std::path::PathBuf;

use orion_core::{CheckpointPolicy, FaultPlan, RecoveryStats};

/// How a chaos run is configured: the fault plan plus the checkpoint
/// policy.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Scripted faults.
    pub plan: FaultPlan,
    /// Checkpoint every N passes.
    pub checkpoint_every: u64,
    /// Directory checkpoints are written into (created if absent).
    pub dir: PathBuf,
    /// Filename prefix distinguishing concurrent runs.
    pub run_id: String,
}

impl ChaosConfig {
    /// A config checkpointing every `every` passes into `dir`.
    pub fn new(plan: FaultPlan, every: u64, dir: impl Into<PathBuf>, run_id: &str) -> Self {
        ChaosConfig {
            plan,
            checkpoint_every: every,
            dir: dir.into(),
            run_id: run_id.to_string(),
        }
    }

    /// The checkpoint policy this config implies.
    pub fn policy(&self) -> CheckpointPolicy {
        CheckpointPolicy::new(self.checkpoint_every, self.dir.clone(), &self.run_id)
    }
}

/// What fault handling did and cost during a chaos run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Crashes detected and recovered from.
    pub crashes_recovered: u64,
    /// Passes whose work was discarded and re-executed.
    pub passes_reexecuted: u64,
    /// Checkpoints written.
    pub checkpoints_written: u64,
    /// Virtual time between crash and detection.
    pub fault_ns: u64,
    /// Virtual time restarting + reloading checkpoints.
    pub recovery_ns: u64,
    /// Virtual time stalled on checkpoint writes.
    pub checkpoint_ns: u64,
}

impl ChaosReport {
    /// Builds the report from the driver's accounting plus the loop's
    /// re-execution count.
    pub fn from_stats(stats: RecoveryStats, passes_reexecuted: u64) -> Self {
        ChaosReport {
            crashes_recovered: stats.crashes,
            passes_reexecuted,
            checkpoints_written: stats.checkpoints_written,
            fault_ns: stats.fault_ns,
            recovery_ns: stats.recovery_ns,
            checkpoint_ns: stats.checkpoint_ns,
        }
    }

    /// Total virtual time fault handling cost.
    pub fn overhead_ns(&self) -> u64 {
        self.fault_ns + self.recovery_ns + self.checkpoint_ns
    }
}
