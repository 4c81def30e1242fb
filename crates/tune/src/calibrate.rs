//! Seeded calibration passes: measure a plan in the virtual-time
//! simulator and fit the measurements back into [`CostParams`].

use orion_analysis::CostParams;
use orion_runtime::{LoopCommModel, Schedule, SimExecutor, ThreadedPlan};
use orion_sim::ClusterSpec;
use orion_trace::{LoadStats, SpanCat};

/// Everything a calibration run measured about one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Cost-model parameters fitted from the measurements.
    pub params: CostParams,
    /// Steady-state (final calibration pass) virtual pass time, ns.
    pub pass_ns: u64,
    /// Network bytes moved per pass (averaged over calibration passes).
    pub bytes_per_pass: u64,
    /// Compute span time per pass, ns (averaged).
    pub compute_ns: u64,
    /// Communication span time per pass (rotation + prefetch + server +
    /// flush), ns (averaged).
    pub comm_ns: u64,
}

/// Runs `passes` virtual-time passes of `schedule` with a no-op body and
/// returns the final pass's elapsed nanoseconds.
///
/// The body is a no-op, so model state is untouched — this is the
/// "seeded calibration pass" of the tuning protocol: `cost` must be a
/// pure function of the item position (every packaged app's cost model
/// is), and the virtual-time simulator is exactly deterministic, so the
/// measurement is noise-free and repeatable.
///
/// Running more than one pass matters: pass-cacheable prefetch regimes
/// ([`orion_runtime::PrefetchMode::CachedRecorded`]) pay their recording
/// cost only on the first pass, and the steady-state time is what a
/// training run amortizes to.
pub(crate) fn measure_pass_ns(
    cluster: &ClusterSpec,
    schedule: &Schedule,
    comm: &LoopCommModel,
    cost: &mut dyn FnMut(usize) -> f64,
    passes: u64,
) -> u64 {
    let mut ex = SimExecutor::new(cluster.clone());
    let plan = ThreadedPlan::compile(schedule);
    let mut last = 0u64;
    for _ in 0..passes.max(1) {
        let stats = ex.run_pass(&plan, comm, cost, &mut |_, _| {});
        last = stats.elapsed().as_nanos();
    }
    last
}

/// Runs a traced calibration of `schedule` and fits [`CostParams`].
///
/// Fitted signals:
///
/// - `compute_ns_per_iter` — total `Compute` span time over total
///   iterations executed;
/// - `net_bytes_per_ns` — total network bytes over total communication
///   span time (rotation, prefetch, server, flush), the *effective*
///   bandwidth including latency stalls;
/// - `skew` — max/mean items per worker from the schedule's blocks.
///
/// The byte weights keep their static defaults: they encode protocol
/// overheads (served fetch + write-back), not cluster speed, and the
/// static ranking between placements is already byte-exact in the
/// simulator.
pub(crate) fn calibrate(
    cluster: &ClusterSpec,
    schedule: &Schedule,
    comm: &LoopCommModel,
    cost: &mut dyn FnMut(usize) -> f64,
    passes: u64,
) -> Calibration {
    let passes = passes.max(1);
    let mut ex = SimExecutor::new(cluster.clone());
    let plan = ThreadedPlan::compile(schedule);
    ex.trace
        .enable(schedule.n_execs() * 4 * passes as usize + 16 * cluster.n_workers() + 64);

    let mut last_pass_ns = 0u64;
    let mut iterations = 0u64;
    for _ in 0..passes {
        let stats = ex.run_pass(&plan, comm, cost, &mut |_, _| {});
        last_pass_ns = stats.elapsed().as_nanos();
        iterations += stats.iterations;
    }

    let mut compute_ns = 0u64;
    let mut comm_ns = 0u64;
    for span in ex.trace.spans() {
        match span.cat {
            SpanCat::Compute => compute_ns += span.dur_ns(),
            SpanCat::Rotation | SpanCat::Prefetch | SpanCat::Server | SpanCat::Flush => {
                comm_ns += span.dur_ns()
            }
            _ => {}
        }
    }
    let total_bytes = ex.net.total_bytes();

    let compute_ns_per_iter = if iterations > 0 {
        compute_ns as f64 / iterations as f64
    } else {
        0.0
    };
    let net_bytes_per_ns = if comm_ns > 0 && total_bytes > 0 {
        total_bytes as f64 / comm_ns as f64
    } else {
        0.0
    };
    let skew = LoadStats::new(schedule.worker_loads()).imbalance();

    Calibration {
        params: CostParams {
            compute_ns_per_iter,
            net_bytes_per_ns,
            skew: if skew.is_finite() && skew >= 1.0 {
                skew
            } else {
                1.0
            },
            ..CostParams::default()
        },
        pass_ns: last_pass_ns,
        bytes_per_pass: total_bytes / passes,
        compute_ns: compute_ns / passes,
        comm_ns: comm_ns / passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_analysis::analyze;
    use orion_ir::{ArrayMeta, DistArrayId, LoopSpec, Subscript};
    use orion_runtime::{build_schedule, comm_model_with_spec};

    fn mf_setup() -> (LoopSpec, Vec<ArrayMeta>, Vec<Vec<i64>>) {
        let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
        let spec = LoopSpec::builder("mf", z, vec![64, 48])
            .read_write(w, vec![Subscript::Full, Subscript::loop_index(0)])
            .read_write(h, vec![Subscript::Full, Subscript::loop_index(1)])
            .build()
            .unwrap();
        let metas = vec![
            ArrayMeta::sparse(z, "ratings", vec![64, 48], 4, 512),
            ArrayMeta::dense(w, "W", vec![8, 64], 4),
            ArrayMeta::dense(h, "H", vec![8, 48], 4),
        ];
        let mut indices = Vec::new();
        for i in 0..64i64 {
            for j in 0..48i64 {
                if (i * 31 + j * 17) % 6 == 0 {
                    indices.push(vec![i, j]);
                }
            }
        }
        (spec, metas, indices)
    }

    #[test]
    fn calibration_is_deterministic_and_fits_compute() {
        let (spec, metas, indices) = mf_setup();
        let cluster = ClusterSpec::new(2, 2);
        let plan = analyze(&spec, &metas, cluster.n_workers() as u64);
        let schedule = build_schedule(&plan.strategy, &indices, &spec.iter_dims, 4);
        let comm = comm_model_with_spec(&plan, &metas, 0.0, Some(&spec));
        let mut cost = |_: usize| 120.0;
        let a = calibrate(&cluster, &schedule, &comm, &mut cost, 2);
        let b = calibrate(&cluster, &schedule, &comm, &mut cost, 2);
        assert_eq!(a, b);
        // Every iteration declared 120 ns of compute.
        assert!((a.params.compute_ns_per_iter - 120.0).abs() < 1.0);
        assert!(a.params.skew >= 1.0);
        assert!(a.pass_ns > 0);
    }

    #[test]
    fn measure_matches_untraced_run() {
        let (spec, metas, indices) = mf_setup();
        let cluster = ClusterSpec::new(2, 2);
        let plan = analyze(&spec, &metas, cluster.n_workers() as u64);
        let schedule = build_schedule(&plan.strategy, &indices, &spec.iter_dims, 4);
        let comm = comm_model_with_spec(&plan, &metas, 0.0, Some(&spec));
        let mut cost = |_: usize| 120.0;
        let measured = measure_pass_ns(&cluster, &schedule, &comm, &mut cost, 2);
        let calib = calibrate(&cluster, &schedule, &comm, &mut cost, 2);
        // Tracing must not perturb virtual time.
        assert_eq!(measured, calib.pass_ns);
    }
}
