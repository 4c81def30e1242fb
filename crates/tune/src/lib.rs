//! Profile-guided adaptive planning (see `docs/TUNING.md`).
//!
//! The static analyzer (paper §4.3) picks a strategy, partitioning
//! dimensions and prefetch regime from a byte-count cost model with
//! hard-coded weights. This crate closes the loop with ground truth the
//! analyzer never sees:
//!
//! 1. **Calibrate** — run a few seeded passes of the static plan in the
//!    deterministic virtual-time simulator with a no-op body, tracing
//!    per-slot compute spans, per-link bytes and load skew
//!    (`calibrate`);
//! 2. **Fit** — turn the measurements into [`CostParams`] for the
//!    parameterized `orion-analysis` cost model: measured ns/iteration,
//!    effective network bandwidth, and partition skew;
//! 3. **Re-plan** — enumerate dependence-valid candidates (1D / 2D
//!    ordered / 2D unordered, partition dims, worker counts, prefetch
//!    regimes), rank them by predicted pass time, measure the short
//!    list, and keep the fastest ([`tune_spec`]);
//! 4. **Report** — a replan emits the stable `O020` diagnostic
//!    (`re-planned: <from> → <to> (predicted X, measured Y)`) through
//!    the standard diagnostics pipeline.
//!
//! Selection is by *measured* time with strict inequality against the
//! static baseline, so a tuned plan is never slower than the static
//! plan under the simulator's clock, and ties keep the analyzer's
//! choice. Every returned schedule passes the `O100` static race check
//! and the happens-before checker before the caller sees it; the same
//! schedule always produces bit-identical training results because the
//! runtime's execution order is a pure function of the schedule.
//!
//! The user-facing entry points are `Driver::tune_loop` in `orion-core`
//! (re-plan a compiled loop once, right after `parallel_for`) and
//! `RunConfig::tune` in `orion-apps`, which makes that call for any
//! application that supports it; this crate also exposes the raw pieces
//! for benchmarks and tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod plan;

pub use calibrate::Calibration;
pub use orion_analysis::CostParams;
pub use plan::{fmt_ns, tune_spec, PlanChoice, TuneConfig, TuneOutcome, TunedPlan};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::measure_pass_ns;
    use orion_ir::{ArrayMeta, DistArrayId, LoopSpec, Subscript};
    use orion_sim::ClusterSpec;

    fn mf_setup() -> (LoopSpec, Vec<ArrayMeta>, Vec<Vec<i64>>) {
        let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
        let spec = LoopSpec::builder("mf", z, vec![96, 64])
            .read_write(w, vec![Subscript::Full, Subscript::loop_index(0)])
            .read_write(h, vec![Subscript::Full, Subscript::loop_index(1)])
            .build()
            .unwrap();
        let metas = vec![
            ArrayMeta::sparse(z, "ratings", vec![96, 64], 4, 1024),
            ArrayMeta::dense(w, "W", vec![16, 96], 4),
            ArrayMeta::dense(h, "H", vec![16, 64], 4),
        ];
        let mut indices = Vec::new();
        for i in 0..96i64 {
            for j in 0..64i64 {
                if (i * 31 + j * 17) % 5 == 0 {
                    indices.push(vec![i, j]);
                }
            }
        }
        (spec, metas, indices)
    }

    fn slr_setup() -> (LoopSpec, Vec<ArrayMeta>, Vec<Vec<i64>>) {
        let (z, w) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("slr", z, vec![400])
            .read(w, vec![Subscript::unknown()])
            .write(w, vec![Subscript::unknown()])
            .buffer_writes(w)
            .build()
            .unwrap();
        let metas = vec![
            ArrayMeta::sparse(z, "samples", vec![400], 64, 400),
            ArrayMeta::dense(w, "weights", vec![50_000], 4),
        ];
        let indices = (0..400i64).map(|i| vec![i]).collect();
        (spec, metas, indices)
    }

    #[test]
    fn tuning_is_deterministic() {
        let (spec, metas, indices) = mf_setup();
        let cluster = ClusterSpec::new(2, 4);
        let cfg = TuneConfig::default();
        let mut cost = |_: usize| 250.0;
        let a = tune_spec(&spec, &metas, &indices, &cluster, 0.0, &mut cost, &cfg);
        let b = tune_spec(&spec, &metas, &indices, &cluster, 0.0, &mut cost, &cfg);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.schedule.n_workers, b.schedule.n_workers);
    }

    #[test]
    fn tuned_never_slower_than_static() {
        for (spec, metas, indices) in [mf_setup(), slr_setup()] {
            let cluster = ClusterSpec::new(2, 4);
            let cfg = TuneConfig::default();
            let mut cost = |_: usize| 400.0;
            let tuned = tune_spec(&spec, &metas, &indices, &cluster, 20.0, &mut cost, &cfg);
            assert!(
                tuned.outcome.chosen.measured_ns <= tuned.outcome.baseline.measured_ns,
                "tuned {} > static {} for `{}`",
                tuned.outcome.chosen.measured_ns,
                tuned.outcome.baseline.measured_ns,
                spec.name
            );
            if tuned.outcome.replanned {
                assert_eq!(tuned.outcome.diagnostics.len(), 1);
                let d = &tuned.outcome.diagnostics[0];
                assert_eq!(d.code.as_str(), "O020");
                assert!(d.message.starts_with("re-planned: "));
            } else {
                assert!(tuned.outcome.diagnostics.is_empty());
            }
        }
    }

    #[test]
    fn slr_upgrades_recorded_prefetch_to_cached() {
        // The SLR weights are served with Recorded prefetch; its read
        // set is pass-invariant, so caching the recorded indices skips
        // the per-pass recording cost — a strict steady-state win the
        // static analyzer cannot see.
        let (spec, metas, indices) = slr_setup();
        let cluster = ClusterSpec::new(2, 4);
        let cfg = TuneConfig::default();
        let mut cost = |_: usize| 600.0;
        let tuned = tune_spec(&spec, &metas, &indices, &cluster, 25.0, &mut cost, &cfg);
        assert!(tuned.outcome.replanned, "expected SLR to re-plan");
        assert!(
            tuned.outcome.chosen.measured_ns < tuned.outcome.baseline.measured_ns,
            "expected a strict win"
        );
    }

    #[test]
    fn ties_keep_the_static_plan() {
        // A single candidate pool where nothing can beat the baseline:
        // restrict the sweep to exactly the static worker count and
        // disable the prefetch upgrade.
        let (spec, metas, indices) = mf_setup();
        let cluster = ClusterSpec::new(2, 4);
        let cfg = TuneConfig {
            worker_counts: vec![cluster.n_workers()],
            allow_cached_prefetch: false,
            ..TuneConfig::default()
        };
        let mut cost = |_: usize| 250.0;
        let tuned = tune_spec(&spec, &metas, &indices, &cluster, 0.0, &mut cost, &cfg);
        // Candidates may still differ (partition-dim swaps), but if the
        // baseline wins or ties it must be kept verbatim.
        if !tuned.outcome.replanned {
            assert_eq!(tuned.outcome.chosen, tuned.outcome.baseline);
        }
    }

    #[test]
    fn same_schedule_same_measurement() {
        // Bit-identity per plan: measuring the same schedule twice gives
        // the same virtual time.
        let (spec, metas, indices) = mf_setup();
        let cluster = ClusterSpec::new(2, 4);
        let cfg = TuneConfig::default();
        let mut cost = |_: usize| 250.0;
        let tuned = tune_spec(&spec, &metas, &indices, &cluster, 0.0, &mut cost, &cfg);
        let again = measure_pass_ns(
            &cluster,
            &tuned.schedule,
            &tuned.comm,
            &mut cost,
            cfg.calib_passes,
        );
        assert_eq!(again, tuned.outcome.chosen.measured_ns);
    }
}
