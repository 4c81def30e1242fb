//! Profile-guided tuning ablation: static planner vs the calibrating
//! auto-tuner (`orion-tune`) across all five Table-2 applications.
//!
//! Two legs:
//!
//! - **sim**: for each app, `tune_spec` runs seeded calibration passes
//!   in virtual time, fits the measured compute/bandwidth/skew into the
//!   cost model, re-measures a short-list of candidate plans (strategy,
//!   partition dims, worker count, prefetch regime), and keeps the
//!   winner. The tuner only replaces the static plan on a strictly
//!   faster measurement, so tuned ≤ static holds on every app by
//!   construction — asserted here — and at least two workloads must win
//!   strictly (SLR's cached-prefetch upgrade, MF's worker downshift).
//!   Every re-planned schedule passed the O100 sanitizer and the
//!   happens-before checker inside `tune_spec` (it panics otherwise).
//! - **threaded**: real wall-clock of the pooled threaded engine at the
//!   static vs the tuned worker count, reported (not asserted — host
//!   cores vary).
//!
//! Writes `results/BENCH_tune.json` (schema in EXPERIMENTS.md). Set
//! `ORION_TUNE_SMOKE=1` for a fast CI run.

use orion_apps::common::cost;
use orion_apps::gbt::{GbtApp, GbtConfig};
use orion_apps::lda::{LdaApp, LdaConfig};
use orion_apps::run::{run, Engine, RunConfig};
use orion_apps::sgd_mf::{MfApp, MfConfig};
use orion_apps::slr::{SlrApp, SlrConfig};
use orion_apps::specs::{self, AppSpec};
use orion_apps::tensor_cp::{CpApp, CpConfig};
use orion_bench::{banner, results_dir};
use orion_core::ClusterSpec;
use orion_data::{
    CorpusConfig, CorpusData, RatingsConfig, RatingsData, SparseConfig, SparseData, TabularConfig,
    TabularData, TensorConfig, TensorData,
};
use orion_tune::{fmt_ns, tune_spec, TuneConfig, TunedPlan};
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("ORION_TUNE_SMOKE").is_ok()
}

/// One app's sim-leg ablation row.
struct SimRow {
    app: &'static str,
    static_label: String,
    tuned_label: String,
    static_ns: u64,
    tuned_ns: u64,
    predicted_ns: u64,
    replanned: bool,
    candidates: usize,
}

impl SimRow {
    fn speedup(&self) -> f64 {
        self.static_ns as f64 / self.tuned_ns.max(1) as f64
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"app\":\"{}\",\"static_plan\":\"{}\",\"tuned_plan\":\"{}\",\
             \"static_ns\":{},\"tuned_ns\":{},\"predicted_ns\":{},\"speedup\":{:.4},\
             \"replanned\":{},\"candidates\":{},\"validated\":true}}",
            self.app,
            self.static_label,
            self.tuned_label,
            self.static_ns,
            self.tuned_ns,
            self.predicted_ns,
            self.speedup(),
            self.replanned,
            self.candidates,
        )
    }
}

/// Runs the tuner on one packaged app spec and folds the outcome into a
/// row. `tune_spec` validates every re-planned schedule with the O100
/// sanitizer and the happens-before checker (panicking on violation),
/// so a returned row implies `validated`.
fn sim_leg(
    app: &'static str,
    spec: &AppSpec,
    cluster: &ClusterSpec,
    served_reads: f64,
    iter_ns: f64,
    cfg: &TuneConfig,
) -> (SimRow, TunedPlan) {
    let tuned = tune_spec(
        &spec.spec,
        &spec.metas,
        &spec.indices,
        cluster,
        served_reads,
        &mut |_| iter_ns,
        cfg,
    );
    let o = &tuned.outcome;
    let row = SimRow {
        app,
        static_label: o.baseline.label.clone(),
        tuned_label: o.chosen.label.clone(),
        static_ns: o.baseline.measured_ns,
        tuned_ns: o.chosen.measured_ns,
        predicted_ns: o.chosen.predicted_ns,
        replanned: o.replanned,
        candidates: o.candidates_evaluated,
    };
    (row, tuned)
}

/// One app's threaded-leg row: wall-clock at the static vs the tuned
/// worker count.
struct ThreadedRow {
    app: &'static str,
    static_workers: usize,
    tuned_workers: usize,
    static_wall_ms: f64,
    tuned_wall_ms: f64,
}

impl ThreadedRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"app\":\"{}\",\"static_workers\":{},\"tuned_workers\":{},\
             \"static_wall_ms\":{:.3},\"tuned_wall_ms\":{:.3}}}",
            self.app,
            self.static_workers,
            self.tuned_workers,
            self.static_wall_ms,
            self.tuned_wall_ms,
        )
    }
}

/// Times one threaded training run (milliseconds).
fn wall_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    banner(
        "Tuning ablation",
        "static planner vs profile-guided adaptive planning",
    );
    let smoke = smoke();
    let cfg = TuneConfig {
        calib_passes: if smoke { 1 } else { 2 },
        ..TuneConfig::default()
    };
    println!("mode: {}\n", if smoke { "smoke" } else { "full" });

    // Per-app tuning setups. Clusters mirror the examples: MF runs on a
    // large (latency-dominated for tiny data) cluster where the tuner's
    // worker downshift pays; SLR on the §6.3 single-node cluster where
    // the cached-prefetch upgrade pays.
    let apps: Vec<(&'static str, AppSpec, ClusterSpec, f64, f64)> = vec![
        (
            "sgd_mf",
            specs::sgd_mf(),
            ClusterSpec::new(8, 4),
            1.0,
            cost::mf_iter_ns(4) * cost::ORION_OVERHEAD,
        ),
        (
            "lda_gibbs",
            specs::lda(),
            ClusterSpec::new(2, 2),
            0.25,
            cost::lda_token_ns(8) * cost::ORION_OVERHEAD,
        ),
        (
            "slr_sgd",
            specs::slr(),
            ClusterSpec::new(1, 8),
            25.0,
            cost::slr_iter_ns(25) * cost::ORION_OVERHEAD,
        ),
        (
            "cp_sgd",
            specs::tensor_cp(),
            ClusterSpec::new(2, 2),
            4.0,
            cost::mf_iter_ns(4) * cost::ORION_OVERHEAD,
        ),
        (
            "gbt",
            specs::gbt(),
            ClusterSpec::new(4, 5),
            1.0,
            cost::gbt_feature_ns(TabularConfig::tiny().n_samples) * cost::ORION_OVERHEAD,
        ),
    ];

    println!(
        "{:<10} {:>12} {:>12} {:>8}  plan",
        "app", "static", "tuned", "speedup"
    );
    let mut sim_rows = Vec::new();
    let mut worker_choice = Vec::new();
    for (app, spec, cluster, served, iter_ns) in &apps {
        let (row, tuned) = sim_leg(app, spec, cluster, *served, *iter_ns, &cfg);
        println!(
            "{:<10} {:>12} {:>12} {:>7.2}x  {} -> {}",
            row.app,
            fmt_ns(row.static_ns),
            fmt_ns(row.tuned_ns),
            row.speedup(),
            row.static_label,
            row.tuned_label,
        );
        worker_choice.push((
            *app,
            tuned.outcome.baseline.n_workers,
            tuned.outcome.chosen.n_workers,
        ));
        sim_rows.push(row);
    }

    // Tuned ≤ static on every app, strictly faster on ≥ 2 workloads.
    for row in &sim_rows {
        assert!(
            row.tuned_ns <= row.static_ns,
            "{}: tuned plan ({}) measured slower than static ({})",
            row.app,
            fmt_ns(row.tuned_ns),
            fmt_ns(row.static_ns),
        );
    }
    let strict_wins = sim_rows.iter().filter(|r| r.tuned_ns < r.static_ns).count();
    assert!(
        strict_wins >= 2,
        "expected >= 2 strict tuning wins, got {strict_wins}"
    );
    println!("\nstrict tuning wins: {strict_wins}/5 (tuned <= static on all)");

    // Threaded leg: real wall-clock at the static vs the tuned worker
    // count, one warmup + timed passes each. Reported, not asserted —
    // the tuner calibrates the *simulated* cluster, while wall-clock
    // depends on the host's physical cores.
    let passes = if smoke { 1u64 } else { 3 };
    let ratings = RatingsData::generate(RatingsConfig::tiny());
    let corpus = CorpusData::generate(CorpusConfig::tiny());
    let sparse = SparseData::generate(SparseConfig::tiny());
    let tensor = TensorData::generate(TensorConfig::tiny());
    let tabular = TabularData::generate(TabularConfig::tiny());
    let trees = if smoke { 2 } else { 5 };
    let run_app = |app: &str, threads: usize| {
        let threaded = |passes| RunConfig::new(Engine::Threads(threads), passes);
        wall_ms(|| match app {
            "sgd_mf" => drop(run(
                &MfApp::new(MfConfig::new(4), false),
                &ratings,
                &threaded(passes),
            )),
            "lda_gibbs" => {
                let cfg = LdaConfig::new(8);
                drop(run(
                    &LdaApp {
                        cfg,
                        ordered: false,
                    },
                    &corpus,
                    &threaded(passes),
                ))
            }
            "slr_sgd" => {
                let cfg = SlrConfig::new();
                let app = SlrApp {
                    cfg,
                    prefetch_override: None,
                };
                drop(run(&app, &sparse, &threaded(passes)))
            }
            "cp_sgd" => {
                let cfg = CpConfig::new(4);
                drop(run(
                    &CpApp {
                        cfg,
                        buffer_s: true,
                    },
                    &tensor,
                    &threaded(passes),
                ))
            }
            "gbt" => drop(run(
                &GbtApp {
                    cfg: GbtConfig::new(trees),
                },
                &tabular,
                &threaded(trees as u64),
            )),
            other => unreachable!("unknown app {other}"),
        })
    };
    println!(
        "\n{:<10} {:>9} {:>9} {:>13} {:>13}",
        "app", "static w", "tuned w", "static ms", "tuned ms"
    );
    let mut threaded_rows = Vec::new();
    for (app, static_w, tuned_w) in &worker_choice {
        // Warmup (thread ramp-up, first-touch), then timed.
        run_app(app, *static_w);
        let static_ms = run_app(app, *static_w);
        let tuned_ms = if tuned_w == static_w {
            static_ms
        } else {
            run_app(app, *tuned_w);
            run_app(app, *tuned_w)
        };
        println!("{app:<10} {static_w:>9} {tuned_w:>9} {static_ms:>13.2} {tuned_ms:>13.2}");
        threaded_rows.push(ThreadedRow {
            app,
            static_workers: *static_w,
            tuned_workers: *tuned_w,
            static_wall_ms: static_ms,
            tuned_wall_ms: tuned_ms,
        });
    }

    let json = format!(
        "{{\n  \"bench\": \"tune_ablation\",\n  \"smoke\": {smoke},\n  \
         \"calib_passes\": {},\n  \"strict_wins\": {strict_wins},\n  \"sim\": [\n    {}\n  ],\n  \
         \"threaded\": [\n    {}\n  ]\n}}\n",
        cfg.calib_passes,
        sim_rows
            .iter()
            .map(SimRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        threaded_rows
            .iter()
            .map(ThreadedRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    let path = results_dir().join("BENCH_tune.json");
    std::fs::write(&path, json).expect("write BENCH_tune.json");
    println!("\n  [json written to {}]", path.display());
}
