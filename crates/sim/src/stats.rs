//! Execution statistics collected by experiment runs.

use crate::time::VirtualTime;

/// One training-progress observation: a metric value at an iteration and
/// virtual time — a point on the convergence curves of Figs. 9–11, 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressPoint {
    /// Completed data passes (iterations).
    pub iteration: u64,
    /// Virtual time at which the iteration completed.
    pub time: VirtualTime,
    /// Objective value (training loss, log-likelihood, ...).
    pub metric: f64,
}

/// Statistics of one training run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Progress curve, one point per iteration.
    pub progress: Vec<ProgressPoint>,
    /// Total inter-machine bytes communicated.
    pub total_bytes: u64,
    /// Total inter-machine messages.
    pub n_messages: u64,
    /// Bandwidth trace `(seconds, Mbps)` when recorded.
    pub bandwidth: Vec<(f64, f64)>,
}

impl RunStats {
    /// Mean virtual seconds per iteration over `[from, to)` iterations —
    /// the paper averages "over iteration 2 to 8" (Fig. 9a) and "2 to
    /// 100" (Table 3) to exclude warm-up.
    ///
    /// A `to` beyond the recorded progress is clamped to the last
    /// completed iteration, so `secs_per_iteration(2, u64::MAX)` means
    /// "from iteration 2 to the end of the run". Returns `None` only
    /// when the range is empty after clamping (no iterations completed,
    /// or `from` is at or past the last completed iteration) or when
    /// iteration `from - 1` was never recorded.
    pub fn secs_per_iteration(&self, from: u64, to: u64) -> Option<f64> {
        // Clamp to the last completed iteration (progress is recorded in
        // iteration order, one point per iteration).
        let to = to.min(self.progress.last()?.iteration + 1);
        if from >= to {
            return None;
        }
        // Time from the completion of iteration `from - 1` (or zero) to
        // the completion of iteration `to - 1`.
        let end = self.progress.iter().find(|p| p.iteration == to - 1)?;
        let t0 = if from == 0 {
            VirtualTime::ZERO
        } else {
            self.progress.iter().find(|p| p.iteration == from - 1)?.time
        };
        Some(end.time.saturating_sub(t0).as_secs_f64() / (to - from) as f64)
    }

    /// First iteration the metric reaches (is at or below) `target`.
    pub fn iters_to_loss(&self, target: f64) -> Option<u64> {
        self.progress
            .iter()
            .find(|p| p.metric <= target)
            .map(|p| p.iteration)
    }

    /// Final metric value.
    pub fn final_metric(&self) -> Option<f64> {
        self.progress.last().map(|p| p.metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RunStats {
        RunStats {
            progress: (0..10)
                .map(|i| ProgressPoint {
                    iteration: i,
                    time: VirtualTime::from_secs(i + 1),
                    metric: 100.0 / (i + 1) as f64,
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn secs_per_iteration_averages() {
        let s = stats();
        // Iterations complete at 1s, 2s, ... so 1 s/iter everywhere.
        assert_eq!(s.secs_per_iteration(2, 8), Some(1.0));
        assert_eq!(s.secs_per_iteration(0, 10), Some(1.0));
        assert_eq!(s.secs_per_iteration(5, 5), None);
    }

    #[test]
    fn secs_per_iteration_clamps_to_last_completed() {
        let s = stats();
        // 10 iterations completed: `to` past the end clamps to 10.
        assert_eq!(s.secs_per_iteration(5, 100), Some(1.0));
        assert_eq!(s.secs_per_iteration(5, 100), s.secs_per_iteration(5, 10));
        assert_eq!(s.secs_per_iteration(2, u64::MAX), Some(1.0));
        // Empty after clamping, or no progress at all: still None.
        assert_eq!(s.secs_per_iteration(10, 100), None);
        assert_eq!(RunStats::default().secs_per_iteration(0, 5), None);
    }

    #[test]
    fn convergence_lookups() {
        let s = stats();
        assert_eq!(s.iters_to_loss(25.0), Some(3));
        assert_eq!(s.iters_to_loss(1.0), None);
        assert_eq!(s.final_metric(), Some(10.0));
    }
}
