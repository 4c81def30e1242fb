//! Candidate enumeration, prediction, measurement, and plan selection.

use orion_analysis::{analyze, plan_placements_with, CostParams, ParallelPlan, Strategy, UniMat};
use orion_check::{plan_event_log, Sanitizer};
use orion_ir::{ArrayMeta, Code, Diagnostic, LoopSpec, Severity};
use orion_runtime::{
    build_schedule, comm_model_with_spec, Indexed, LoopCommModel, PrefetchMode, Schedule,
    ThreadedPlan,
};
use orion_sim::ClusterSpec;

use crate::calibrate::{calibrate, measure_pass_ns, Calibration};

/// Knobs of the calibrating auto-tuner.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneConfig {
    /// Virtual-time passes per calibration / candidate measurement.
    /// At least 2 so pass-cacheable prefetch shows its steady state.
    pub calib_passes: u64,
    /// Worker counts to sweep. Empty means powers of two up to (and
    /// always including) the cluster's worker count.
    pub worker_counts: Vec<usize>,
    /// Cap on measured candidates (the static plan is always measured
    /// and does not count against the cap).
    pub max_candidates: usize,
    /// Also try upgrading `Recorded` prefetch to `CachedRecorded`.
    /// Only valid when the loop's served read set is pass-invariant
    /// (true for every packaged app); the upgrade skips re-recording
    /// prefetch indices after the first pass.
    pub allow_cached_prefetch: bool,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            calib_passes: 2,
            worker_counts: Vec::new(),
            max_candidates: 16,
            allow_cached_prefetch: true,
        }
    }
}

/// One concrete plan the tuner predicted and measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// Human-readable plan description, e.g.
    /// `2D Unordered (space 0, time 1) on 8 workers`.
    pub label: String,
    /// Execution strategy.
    pub strategy: Strategy,
    /// Worker count the schedule was built for.
    pub n_workers: usize,
    /// Prefetch-mode override applied on top of the analyzer's plan.
    pub prefetch_override: Option<PrefetchMode>,
    /// Pass time predicted by the fitted cost model, ns.
    pub predicted_ns: u64,
    /// Pass time measured in the virtual-time simulator, ns.
    pub measured_ns: u64,
}

/// The tuner's decision record.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOutcome {
    /// Cost-model parameters fitted from the calibration run.
    pub params: CostParams,
    /// Calibration measurements of the static plan.
    pub calibration: Calibration,
    /// The static (analyzer-default) plan and its measurements.
    pub baseline: PlanChoice,
    /// The chosen plan (equals `baseline` when no candidate beat it).
    pub chosen: PlanChoice,
    /// True when `chosen` differs from `baseline`.
    pub replanned: bool,
    /// How many candidate plans were measured (including the baseline).
    pub candidates_evaluated: usize,
    /// `O020` diagnostic describing the re-plan; empty when the static
    /// plan was kept.
    pub diagnostics: Vec<Diagnostic>,
}

/// A tuned, validated, ready-to-run compilation of one loop.
#[derive(Debug, Clone)]
pub struct TunedPlan {
    /// The chosen parallel plan (analyzer output shape).
    pub plan: ParallelPlan,
    /// The schedule compiled for the chosen plan.
    pub schedule: Schedule,
    /// The communication model of the chosen plan.
    pub comm: LoopCommModel,
    /// The decision record.
    pub outcome: TuneOutcome,
}

struct Candidate {
    strategy: Strategy,
    n_workers: usize,
    prefetch_override: Option<PrefetchMode>,
    plan: ParallelPlan,
    predicted_ns: u64,
}

/// Calibrates the static plan for `spec` and re-plans from measured
/// costs: enumerates dependence-valid strategies, partition dims,
/// worker counts and prefetch regimes, predicts each with the fitted
/// [`CostParams`], measures the most promising candidates in the
/// virtual-time simulator, and returns the fastest measured plan.
///
/// Ties keep the static plan (strict `<` to replace it), so the tuned
/// plan is never slower than the static plan under the simulator's
/// deterministic clock. The chosen schedule is verified by the loop's
/// schedule sanitizer (`O100` and happens-before) before being
/// returned.
///
/// `cost` must be a pure function of item position; it is invoked many
/// times across calibration and candidate measurement.
///
/// # Panics
///
/// Panics if the chosen schedule fails the `O100` or happens-before
/// check — by construction candidates are dependence-valid, so a trip
/// indicates a planner bug and must not be silently swallowed.
pub fn tune_spec<I: Indexed>(
    spec: &LoopSpec,
    metas: &[ArrayMeta],
    items: &[I],
    cluster: &ClusterSpec,
    served_reads_per_iter: f64,
    cost: &mut dyn FnMut(usize) -> f64,
    cfg: &TuneConfig,
) -> TunedPlan {
    assert!(!items.is_empty(), "cannot tune an empty loop");
    let max_workers = cluster.n_workers();

    // Static plan: what `Driver::parallel_for` would compile.
    let static_plan = analyze(spec, metas, max_workers as u64);
    let static_workers = if static_plan.strategy.is_parallel() {
        max_workers
    } else {
        1
    };
    let static_schedule = build_schedule(
        &static_plan.strategy,
        items,
        &spec.iter_dims,
        static_workers,
    );
    let static_comm = comm_model_with_spec(&static_plan, metas, served_reads_per_iter, Some(spec));

    // Calibration: traced passes of the static plan, no-op body.
    let calibration = calibrate(
        cluster,
        &static_schedule,
        &static_comm,
        cost,
        cfg.calib_passes,
    );
    let params = calibration.params.clone();

    let baseline_choice = PlanChoice {
        label: describe(&static_plan.strategy, static_workers, None),
        strategy: static_plan.strategy.clone(),
        n_workers: static_workers,
        prefetch_override: None,
        predicted_ns: predict_pass_ns(
            &params,
            cluster,
            items.len(),
            static_plan.est_bytes_per_pass,
            static_schedule.n_steps(),
            static_workers,
        ),
        measured_ns: calibration.pass_ns,
    };

    // Candidate enumeration: dependence-valid strategies × worker
    // counts × prefetch regimes, ranked by predicted pass time.
    let mut candidates = Vec::new();
    for strategy in candidate_strategies(spec, &static_plan) {
        let workers: Vec<usize> = if matches!(strategy, Strategy::Serial) {
            vec![1]
        } else {
            worker_sweep(max_workers, cfg)
        };
        for w in workers {
            let (space, time) = placement_dims(&strategy, spec.ndims());
            let (placements, est) =
                plan_placements_with(spec, metas, space, time, w as u64, &params);
            let plan = ParallelPlan {
                strategy: strategy.clone(),
                dep_vectors: static_plan.dep_vectors.clone(),
                placements,
                est_bytes_per_pass: est,
            };
            let comm = comm_model_with_spec(&plan, metas, served_reads_per_iter, Some(spec));
            let mut overrides = vec![None];
            if cfg.allow_cached_prefetch
                && comm
                    .served
                    .as_ref()
                    .is_some_and(|s| s.mode == PrefetchMode::Recorded)
            {
                overrides.push(Some(PrefetchMode::CachedRecorded));
            }
            for prefetch_override in overrides {
                if strategy == baseline_choice.strategy
                    && w == baseline_choice.n_workers
                    && prefetch_override.is_none()
                {
                    continue; // the baseline is always measured anyway
                }
                // Predict with a cheap proxy schedule-step count; the
                // exact schedule is built only for measured candidates.
                let n_steps = est_steps(&strategy, w);
                candidates.push(Candidate {
                    strategy: strategy.clone(),
                    n_workers: w,
                    prefetch_override,
                    predicted_ns: predict_pass_ns(
                        &params,
                        cluster,
                        items.len(),
                        plan.est_bytes_per_pass,
                        n_steps,
                        w,
                    ),
                    plan: plan.clone(),
                });
            }
        }
    }
    candidates.sort_by_key(|c| c.predicted_ns); // stable: insertion order breaks ties
    candidates.truncate(cfg.max_candidates);

    // Measure the short-listed candidates.
    let mut best: Option<(PlanChoice, ParallelPlan, Schedule, LoopCommModel)> = None;
    let candidates_evaluated = candidates.len() + 1;
    for cand in candidates {
        let schedule = build_schedule(&cand.strategy, items, &spec.iter_dims, cand.n_workers);
        let mut comm = comm_model_with_spec(&cand.plan, metas, served_reads_per_iter, Some(spec));
        if let (Some(mode), Some(served)) = (cand.prefetch_override, comm.served.as_mut()) {
            served.mode = mode;
        }
        let measured_ns = measure_pass_ns(cluster, &schedule, &comm, cost, cfg.calib_passes);
        let better_than_best = best
            .as_ref()
            .map(|(b, ..)| measured_ns < b.measured_ns)
            .unwrap_or(true);
        if better_than_best {
            best = Some((
                PlanChoice {
                    label: describe(&cand.strategy, cand.n_workers, cand.prefetch_override),
                    strategy: cand.strategy,
                    n_workers: cand.n_workers,
                    prefetch_override: cand.prefetch_override,
                    predicted_ns: cand.predicted_ns,
                    measured_ns,
                },
                cand.plan,
                schedule,
                comm,
            ));
        }
    }

    // Strict improvement required: ties keep the static plan.
    let replanned = best
        .as_ref()
        .map(|(b, ..)| b.measured_ns < baseline_choice.measured_ns)
        .unwrap_or(false);
    let (chosen, plan, schedule, comm) = if replanned {
        let (b, plan, schedule, comm) = best.unwrap();
        (b, plan, schedule, comm)
    } else {
        (
            baseline_choice.clone(),
            static_plan,
            static_schedule,
            static_comm,
        )
    };

    validate_schedule(spec, metas, items, &schedule);

    let mut diagnostics = Vec::new();
    if replanned {
        diagnostics.push(replan_diagnostic(
            spec,
            &baseline_choice,
            &chosen,
            &calibration,
        ));
    }

    TunedPlan {
        plan,
        schedule,
        comm,
        outcome: TuneOutcome {
            params,
            calibration,
            baseline: baseline_choice,
            chosen,
            replanned,
            candidates_evaluated,
            diagnostics,
        },
    }
}

/// Builds the `O020` decision diagnostic.
fn replan_diagnostic(
    spec: &LoopSpec,
    baseline: &PlanChoice,
    chosen: &PlanChoice,
    calibration: &Calibration,
) -> Diagnostic {
    Diagnostic::new(
        Code::Replanned,
        Severity::Note,
        format!("loop `{}`", spec.name),
        format!(
            "re-planned: {} → {} (predicted {}, measured {})",
            baseline.label,
            chosen.label,
            fmt_ns(chosen.predicted_ns),
            fmt_ns(chosen.measured_ns),
        ),
    )
    .with_note(format!(
        "static plan measured {} per pass; tuned plan measured {} ({:.2}x)",
        fmt_ns(baseline.measured_ns),
        fmt_ns(chosen.measured_ns),
        baseline.measured_ns as f64 / chosen.measured_ns.max(1) as f64,
    ))
    .with_note(format!(
        "calibration: compute {:.1} ns/iter, effective bandwidth {}, load skew {:.2}",
        calibration.params.compute_ns_per_iter,
        fmt_bandwidth(calibration.params.net_bytes_per_ns),
        calibration.params.skew,
    ))
    .with_help(
        "the tuned schedule passed the O100 sanitizer and the happens-before \
         checker; skip the tuner (run the loop parallel_for compiled, not \
         the one tune_loop returns) to keep the static plan",
    )
}

/// Dependence-valid strategy candidates for the loop, in deterministic
/// order. The static plan's own strategy is always included.
fn candidate_strategies(spec: &LoopSpec, static_plan: &ParallelPlan) -> Vec<Strategy> {
    let ndims = spec.ndims();
    let dvecs = &static_plan.dep_vectors;
    let mut out: Vec<Strategy> = Vec::new();

    if dvecs.is_empty() {
        for dim in 0..ndims {
            out.push(Strategy::FullyParallel { dim });
        }
    } else {
        for dim in 0..ndims {
            if dvecs.iter().all(|d| d.elem(dim).is_zero()) {
                out.push(Strategy::OneD { dim });
            }
        }
        for space in 0..ndims {
            for time in 0..ndims {
                if space == time {
                    continue;
                }
                let ok = dvecs
                    .iter()
                    .all(|d| d.elem(space).is_zero() || d.elem(time).is_zero());
                if ok {
                    out.push(Strategy::TwoD {
                        space,
                        time,
                        ordered: spec.ordered,
                    });
                }
            }
        }
    }
    if !out.contains(&static_plan.strategy) {
        out.push(static_plan.strategy.clone());
    }
    out
}

/// The `(space, time)` dims a strategy partitions placements by,
/// mirroring the analyzer's classification.
fn placement_dims(strategy: &Strategy, ndims: usize) -> (Option<usize>, Option<usize>) {
    match strategy {
        Strategy::FullyParallel { dim } | Strategy::OneD { dim } => (Some(*dim), None),
        Strategy::TwoD { space, time, .. } => (Some(*space), Some(*time)),
        Strategy::TwoDUnimodular {
            transform, space, ..
        } => {
            if *transform == UniMat::identity(ndims) {
                (Some(*space), Some(0))
            } else {
                (None, None)
            }
        }
        Strategy::Serial => (Some(0), None),
    }
}

/// Cheap proxy for a candidate's schedule-step count, used only for the
/// predicted latency term before the exact schedule is built.
fn est_steps(strategy: &Strategy, n_workers: usize) -> usize {
    match strategy {
        Strategy::FullyParallel { .. } | Strategy::OneD { .. } => 1,
        Strategy::TwoD { ordered: false, .. } => n_workers.max(1) * 2,
        Strategy::TwoD { ordered: true, .. } | Strategy::TwoDUnimodular { .. } => {
            n_workers.max(1) * 2
        }
        Strategy::Serial => 1,
    }
}

/// Predicted pass time from fitted parameters: compute (skew-scaled,
/// divided over workers) + communication (weighted bytes over effective
/// bandwidth) + per-step synchronization latency.
fn predict_pass_ns(
    params: &CostParams,
    cluster: &ClusterSpec,
    n_items: usize,
    est_cost_units: u64,
    n_steps: usize,
    n_workers: usize,
) -> u64 {
    let compute =
        n_items as f64 * params.compute_ns_per_iter * params.skew / n_workers.max(1) as f64;
    let comm = if params.net_bytes_per_ns > 0.0 {
        est_cost_units as f64 / params.net_bytes_per_ns
    } else {
        0.0
    };
    let latency = n_steps as f64 * cluster.network.latency.as_nanos() as f64;
    (compute + comm + latency).round() as u64
}

/// Default worker sweep: powers of two up to and including the cluster.
fn worker_sweep(max_workers: usize, cfg: &TuneConfig) -> Vec<usize> {
    if !cfg.worker_counts.is_empty() {
        let mut v: Vec<usize> = cfg
            .worker_counts
            .iter()
            .copied()
            .filter(|&w| w >= 1 && w <= max_workers)
            .collect();
        v.sort_unstable();
        v.dedup();
        return v;
    }
    let mut v = Vec::new();
    let mut w = 1usize;
    while w <= max_workers {
        v.push(w);
        w *= 2;
    }
    if *v.last().unwrap_or(&0) != max_workers {
        v.push(max_workers);
    }
    v
}

/// Statically verifies a schedule with one [`Sanitizer`]: the `O100`
/// check, then the happens-before check over the faithful threaded-plan
/// event log.
fn validate_schedule<I: Indexed>(
    spec: &LoopSpec,
    metas: &[ArrayMeta],
    items: &[I],
    schedule: &Schedule,
) {
    let sanitizer = Sanitizer::new(spec, metas, items);
    if let Err(race) = sanitizer.check_schedule(schedule) {
        panic!(
            "tuned schedule tripped the schedule sanitizer:\n{}",
            race.to_diagnostic().render()
        );
    }
    let plan = ThreadedPlan::compile(schedule);
    let logs = plan_event_log(&plan);
    if let Err(v) = sanitizer.check_pass(plan.blocks(), &logs, "tuned plan") {
        panic!(
            "tuned schedule tripped the happens-before checker:\n{}",
            v.to_diagnostic().render()
        );
    }
}

/// Human-readable plan description used in labels and `O020` output.
fn describe(strategy: &Strategy, n_workers: usize, prefetch: Option<PrefetchMode>) -> String {
    let dims = match strategy {
        Strategy::FullyParallel { dim } | Strategy::OneD { dim } => format!(" (dim {dim})"),
        Strategy::TwoD { space, time, .. } => format!(" (space {space}, time {time})"),
        Strategy::TwoDUnimodular { space, time, .. } => {
            format!(" (space {space}, time {time}, transformed)")
        }
        Strategy::Serial => String::new(),
    };
    let suffix = match prefetch {
        Some(PrefetchMode::CachedRecorded) => " + cached prefetch",
        Some(PrefetchMode::Recorded) => " + recorded prefetch",
        Some(PrefetchMode::Static) => " + static prefetch",
        Some(PrefetchMode::Disabled) => " + prefetch disabled",
        None => "",
    };
    format!(
        "{}{} on {} worker{}{}",
        strategy.label(),
        dims,
        n_workers,
        if n_workers == 1 { "" } else { "s" },
        suffix
    )
}

/// Compact duration formatting for diagnostics: `840ns`, `1.50us`,
/// `2.25ms`, `1.08s`.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Bandwidth formatting for calibration notes, from bytes/ns.
fn fmt_bandwidth(bytes_per_ns: f64) -> String {
    if bytes_per_ns <= 0.0 {
        return "n/a".into();
    }
    // 1 byte/ns is exactly 1 GB/s.
    format!("{bytes_per_ns:.2} GB/s")
}
