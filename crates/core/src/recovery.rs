//! Checkpoint policy and recovery bookkeeping (paper §4.3).
//!
//! The paper's fault-tolerance story is epoch-granularity: parameter
//! DistArrays are checkpointed every N data passes, a failed machine is
//! detected by barrier timeout, and training restarts from the latest
//! checkpoint, re-executing the passes since. These types carry the
//! policy knobs and the accounting; the driver methods (`run_pass`,
//! which reports a pass's crash, `complete_recovery` and
//! `charge_checkpoint`) do the virtual-time charging, and
//! `orion_apps::run` owns the loop.

use std::path::{Path, PathBuf};

use orion_sim::VirtualTime;

/// Periodic checkpoint policy: write every `every` passes into `dir`,
/// with filenames prefixed by `prefix` (one file per DistArray).
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint interval in passes (≥ 1).
    pub every: u64,
    /// Directory checkpoints are written into.
    pub dir: PathBuf,
    /// Run-identifying filename prefix.
    pub prefix: String,
}

impl CheckpointPolicy {
    /// A policy writing every `every` passes.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: u64, dir: impl Into<PathBuf>, prefix: impl Into<String>) -> Self {
        assert!(every >= 1, "checkpoint interval must be >= 1 pass");
        CheckpointPolicy {
            every,
            dir: dir.into(),
            prefix: prefix.into(),
        }
    }

    /// True when a checkpoint is due before running pass `pass`.
    pub fn due(&self, pass: u64) -> bool {
        pass.is_multiple_of(self.every)
    }

    /// The checkpoint file of `array` under this policy.
    pub fn path_for(&self, array: &str) -> PathBuf {
        self.dir.join(format!("{}_{array}.ckpt", self.prefix))
    }
}

/// Detection and recovery timing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecoveryConfig {
    /// Time the barrier waits past expected progress before declaring a
    /// machine failed.
    pub barrier_timeout: VirtualTime,
    /// Modeled disk bandwidth for checkpoint writes and reloads.
    pub disk_bandwidth_bps: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            barrier_timeout: VirtualTime::from_millis(50),
            disk_bandwidth_bps: 8e9, // 1 GB/s local SSD
        }
    }
}

impl RecoveryConfig {
    /// Virtual time to move `bytes` through the modeled disk.
    pub(crate) fn io_time(&self, bytes: u64) -> VirtualTime {
        VirtualTime::from_secs_f64(bytes as f64 * 8.0 / self.disk_bandwidth_bps)
    }
}

/// One detected machine failure, as surfaced by `Driver::run_pass`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Machine that crashed.
    pub machine: usize,
    /// Virtual instant of the crash.
    pub at: VirtualTime,
    /// When the barrier timeout declared it failed.
    pub detected_at: VirtualTime,
    /// Restart delay from the fault plan.
    pub restart_delay: VirtualTime,
}

/// Accumulated fault-handling accounting of one run. All times are
/// run-wall (barrier-to-barrier) virtual nanoseconds, not per-worker
/// sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Crashes detected and recovered from.
    pub crashes: u64,
    /// Checkpoints written (per policy trigger, not per array).
    pub checkpoints_written: u64,
    /// Total bytes of written checkpoints.
    pub checkpoint_bytes: u64,
    /// Time between crashes completing a pass and their detection.
    pub fault_ns: u64,
    /// Time spent restarting machines and reloading checkpoints.
    pub recovery_ns: u64,
    /// Time spent stalled on checkpoint writes.
    pub checkpoint_ns: u64,
}

impl RecoveryStats {
    /// Everything fault handling cost, in virtual nanoseconds.
    pub fn overhead_ns(&self) -> u64 {
        self.fault_ns + self.recovery_ns + self.checkpoint_ns
    }
}

/// Removes this run's checkpoint files (best effort; missing files are
/// fine). Call after a successful run to keep scratch directories tidy.
pub fn clean_checkpoints(policy: &CheckpointPolicy, arrays: &[&str]) {
    for a in arrays {
        let _ = std::fs::remove_file(policy.path_for(a));
    }
    let _ = remove_dir_if_empty(&policy.dir);
}

fn remove_dir_if_empty(dir: &Path) -> std::io::Result<()> {
    if std::fs::read_dir(dir)?.next().is_none() {
        std::fs::remove_dir(dir)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_due_every_n_passes() {
        let p = CheckpointPolicy::new(3, "/tmp/x", "run");
        assert!(p.due(0));
        assert!(!p.due(1));
        assert!(!p.due(2));
        assert!(p.due(3));
        assert!(p.due(6));
        assert_eq!(p.path_for("W"), PathBuf::from("/tmp/x/run_W.ckpt"));
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn zero_interval_rejected() {
        let _ = CheckpointPolicy::new(0, "/tmp/x", "run");
    }

    #[test]
    fn io_time_scales_with_bytes() {
        let cfg = RecoveryConfig::default();
        // 1 GB at 1 GB/s = 1 s.
        assert_eq!(cfg.io_time(1_000_000_000), VirtualTime::from_secs(1));
        assert_eq!(cfg.io_time(0), VirtualTime::ZERO);
    }

    #[test]
    fn stats_overhead_sums_components() {
        let s = RecoveryStats {
            crashes: 1,
            checkpoints_written: 2,
            checkpoint_bytes: 100,
            fault_ns: 10,
            recovery_ns: 20,
            checkpoint_ns: 30,
        };
        assert_eq!(s.overhead_ns(), 60);
        assert_eq!(RecoveryStats::default().overhead_ns(), 0);
    }
}
