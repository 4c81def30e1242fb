//! SGD matrix factorization: dependence-aware parallelism vs data
//! parallelism on a Netflix-like workload (the paper's headline
//! comparison, Fig. 9b).
//!
//! Run with: `cargo run --release --example matrix_factorization`
//!
//! Pass `--trace out.json` to record phase-level spans of both the Orion
//! run and the parameter-server baseline into one Perfetto-loadable
//! trace (open at <https://ui.perfetto.dev>), plus a run report at
//! `out.json.report.json` — see `docs/OBSERVABILITY.md`.
//!
//! Pass `--autotune` to run the profile-guided adaptive planner instead:
//! calibration passes fit the cost model from measurements, candidate
//! plans are re-measured, and the `O020` re-plan decision is printed —
//! see `docs/TUNING.md`.
//!
//! `--engine sim|threads|net` runs only that engine's section
//! (`--threads N` / `--nodes N` alone select theirs; `--nodes N` trains
//! on a localhost TCP cluster, see `docs/DISTRIBUTED.md`); `--fault-plan
//! <path>` trains under scripted faults (`docs/FAULTS.md`). Every flag
//! maps onto one `RunConfig` — see `examples/common/mod.rs`.

mod common;

use common::EngineKind;
use orion::apps::distributed::maybe_node;
use orion::apps::run::Engine;
use orion::apps::sgd_mf::{train_orion, train_serial, MfApp, MfConfig, MfPsAdapter, MfRunConfig};
use orion::core::{clean_checkpoints, ClusterSpec};
use orion::data::{RatingsConfig, RatingsData};
use orion::ps::{PsConfig, PsEngine};
use orion::tune::fmt_ns;

fn main() {
    // Distributed-run plumbing: children re-execute this binary with
    // ORION_NET_ROLE=node and must divert before any other work.
    maybe_node();
    let args = common::parse(
        "matrix_factorization",
        &[
            "--engine",
            "--threads",
            "--nodes",
            "--trace",
            "--fault-plan",
            "--autotune",
            "--coordinator",
        ],
    );

    let trace_path = args.trace();
    let data = RatingsData::generate(RatingsConfig {
        n_users: 400,
        n_items: 320,
        nnz: 30_000,
        true_rank: 8,
        skew: 0.7,
        noise: 0.1,
        seed: 5,
    });
    let passes = 10u64;
    let cfg = MfConfig::new(16);
    let cluster = ClusterSpec::new(8, 4);
    let app = MfApp::new(cfg.clone(), false);

    if args.runs(EngineKind::Net) {
        // The multi-process path: one OS process per node, partitions
        // rotating over localhost TCP, sim as conformance oracle.
        let nodes = args.nodes();
        let run = args.run_config(args.net_engine(passes, "mf_example"), passes, "mf");
        println!("training SGD MF on a {nodes}-process localhost cluster, {passes} epochs\n");
        let out = common::run_or_exit(&app, &data, &run);
        for e in &out
            .net
            .as_ref()
            .expect("a Net run reports its epochs")
            .epochs
        {
            let rotated: u64 = e
                .links
                .iter()
                .filter(|l| l.src < nodes && l.dst < nodes)
                .map(|l| l.bytes)
                .sum();
            println!(
                "epoch {:>2}: {:>7.1} ms wall, {:>8.1} KiB rotated between nodes",
                e.epoch,
                e.wall_ns as f64 / 1e6,
                rotated as f64 / 1024.0,
            );
        }
        let (sim_model, _) = train_orion(
            &data,
            cfg,
            &MfRunConfig {
                cluster: ClusterSpec::new(nodes, 1),
                passes,
                ordered: false,
            },
        );
        println!(
            "\nfinal loss {:.1}; bit-identical to the sim oracle: {}",
            out.stats.final_metric().unwrap(),
            sim_model.w == out.model.w && sim_model.h == out.model.h,
        );
        let _ = std::fs::remove_dir_all(args.scratch_dir("mf_example"));
        return;
    }

    let mut sessions = Vec::new();
    let mut sim_report = None;
    if args.runs(EngineKind::Sim) {
        let run = args.run_config(Engine::Sim(cluster.clone()), passes, "mf");
        if args.autotune() {
            println!(
                "auto-tuning SGD MF ({} ratings, {passes} passes)\n",
                data.nnz()
            );
        } else {
            println!(
                "training SGD MF, rank 16, {} ratings, {} passes\n",
                data.nnz(),
                passes
            );
        }
        let out = common::run_or_exit(&app, &data, &run);
        if let Some(report) = out.chaos {
            clean_checkpoints(&run.chaos.as_ref().unwrap().policy(), &["W", "H"]);
            println!(
                "fault plan: {} crash(es) recovered, {} pass(es) re-executed, \
                 {} checkpoint(s), {:.3}s virtual fault-handling overhead\n",
                report.crashes_recovered,
                report.passes_reexecuted,
                report.checkpoints_written,
                report.overhead_ns() as f64 / 1e9,
            );
        }
        if let Some(artifacts) = out.trace {
            sessions.push(artifacts.session);
            sim_report = Some(artifacts.report);
        }
        if let Some(outcome) = out.tune {
            // Profile-guided adaptive planning: short seeded calibration
            // passes fit measured compute/bandwidth/skew into the cost
            // model, candidate plans are re-measured, the winner runs.
            for d in &outcome.diagnostics {
                println!("{}", d.render());
            }
            println!(
                "static plan:  {} — measured {}/pass",
                outcome.baseline.label,
                fmt_ns(outcome.baseline.measured_ns)
            );
            println!(
                "tuned plan:   {} — measured {}/pass ({} candidate(s) evaluated)",
                outcome.chosen.label,
                fmt_ns(outcome.chosen.measured_ns),
                outcome.candidates_evaluated,
            );
            println!(
                "re-planned: {}; final loss {:.1}; virtual time {}",
                outcome.replanned,
                out.stats.final_metric().unwrap(),
                out.stats.progress.last().unwrap().time,
            );
            return;
        }
        let orion_stats = out.stats;
        let (_, serial) = train_serial(&data, cfg.clone(), passes);

        // The data-parallel baseline gets its own tuned (smaller) step size,
        // the largest that stays stable under conflicting updates.
        let mut ps = PsEngine::new(
            MfPsAdapter::new(&data, cfg.clone()),
            PsConfig::vanilla(cluster, 0.02),
        );
        if trace_path.is_some() {
            // Generous capacity: a handful of spans per (worker, round, pass).
            ps.enable_tracing(8 * 32 * passes as usize * 64);
        }
        for _ in 0..passes {
            ps.run_pass();
        }
        let ps_stats = if trace_path.is_some() {
            let (stats, session) = ps.finish_traced("bosen/sgd_mf");
            sessions.push(session);
            stats
        } else {
            ps.finish()
        };

        println!(
            "{:>4}  {:>14}  {:>22}  {:>16}",
            "pass", "serial", "Orion (dep-aware)", "data parallelism"
        );
        for p in 0..passes as usize {
            println!(
                "{:>4}  {:>14.1}  {:>22.1}  {:>16.1}",
                p,
                serial.progress[p].metric,
                orion_stats.progress[p].metric,
                ps_stats.progress[p].metric
            );
        }
        println!(
            "\nOrion matches serial convergence per pass while running on 32 workers;\n\
             data parallelism needs many more passes for the same loss (paper Fig. 9b)."
        );
        println!(
            "virtual time for {passes} passes: serial {}, Orion {}",
            serial.progress.last().unwrap().time,
            orion_stats.progress.last().unwrap().time,
        );
    }

    if args.runs(EngineKind::Threads) {
        // ---- The real multi-core execution path: the same schedule on a
        // persistent pool of OS threads, bit-identical to the simulated
        // engine, with Compute/Rotation spans from the actual threads. ----
        let run = args.threads_config(passes, "mf");
        let wall_start = std::time::Instant::now();
        let out = common::run_or_exit(&app, &data, &run);
        let wall = wall_start.elapsed();
        println!(
            "threaded engine ({} worker thread(s)): real wall-clock {:.1} ms \
             for {passes} passes, final loss {:.1}",
            args.threads(),
            wall.as_secs_f64() * 1e3,
            out.stats.final_metric().unwrap(),
        );
        sessions.extend(out.trace.map(|artifacts| artifacts.session));
    }

    if let (Some(path), Some(report)) = (&trace_path, &sim_report) {
        let report_path = format!("{}.report.json", path.display());
        std::fs::write(&report_path, report.to_json()).expect("write report");
        println!("\n{}", report.render());
        println!("wrote run report to {report_path}");
    }
    args.write_trace(&sessions, " (load at https://ui.perfetto.dev)");
}
