//! Sparse logistic regression: value-dependent subscripts, DistArray
//! Buffers, and the three bulk-prefetching regimes of the paper's §6.3
//! (no prefetch / synthesized recording pass / cached indices).
//!
//! Run with: `cargo run --release --example sparse_logreg`
//!
//! Pass `--trace out.json` to record all three prefetch regimes as
//! separate process groups in one Perfetto-loadable trace (see
//! `docs/OBSERVABILITY.md`) — the Prefetch spans shrink visibly from
//! regime to regime.
//!
//! Pass `--autotune` to let the profile-guided planner pick the regime
//! from measurements instead: it discovers that caching the recorded
//! indices is strictly cheaper and reports the `O020` re-plan decision
//! (see `docs/TUNING.md`).
//!
//! `--engine sim|threads|net` runs only that engine's section
//! (`--threads N` / `--nodes N` alone select theirs); `--fault-plan
//! <path>` applies scripted faults to every prefetch regime and composes
//! with `--trace`. Every flag maps onto one `RunConfig` — see
//! `examples/common/mod.rs`.

mod common;

use common::EngineKind;
use orion::apps::distributed::maybe_node;
use orion::apps::run::Engine;
use orion::apps::slr::{train_orion, SlrApp, SlrConfig, SlrRunConfig};
use orion::core::{clean_checkpoints, ClusterSpec, PrefetchMode};
use orion::data::{SparseConfig, SparseData};
use orion::tune::fmt_ns;

fn main() {
    // Distributed-run plumbing: children re-execute this binary with
    // ORION_NET_ROLE=node and must divert before any other work.
    maybe_node();
    let args = common::parse(
        "sparse_logreg",
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

    let data = SparseData::generate(SparseConfig {
        n_samples: 1_500,
        n_features: 20_000,
        nnz_per_sample: 25,
        skew: 0.9,
        informative_frac: 0.1,
        seed: 9,
    });
    println!(
        "dataset: {} samples, {} features, {:.1} nonzeros/sample",
        data.samples.len(),
        data.config.n_features,
        data.mean_nnz()
    );

    let passes = 5u64;
    // Data parallelism needs a gentler step than serial SGD would
    // tolerate: buffered updates of hot features apply in one lump.
    let cfg = SlrConfig {
        step_size: 0.002,
        adaptive: false,
        ..SlrConfig::new()
    };
    let app = |prefetch_override| SlrApp {
        cfg: cfg.clone(),
        prefetch_override,
    };

    if args.runs(EngineKind::Net) {
        // The multi-process path: stateless worker processes prefetch
        // served weights and ship buffered updates over localhost TCP,
        // with the sim as conformance oracle.
        let nodes = args.nodes();
        let run = args.run_config(args.net_engine(passes, "slr_example"), passes, "slr");
        println!("\ntraining SLR on a {nodes}-process localhost cluster, {passes} epochs\n");
        let out = common::run_or_exit(&app(None), &data, &run);
        for e in &out
            .net
            .as_ref()
            .expect("a Net run reports its epochs")
            .epochs
        {
            let served: u64 = e
                .links
                .iter()
                .filter(|l| l.src == nodes || l.dst == nodes)
                .map(|l| l.bytes)
                .sum();
            println!(
                "epoch {:>2}: {:>7.1} ms wall, {:>8.1} KiB served weights + updates",
                e.epoch,
                e.wall_ns as f64 / 1e6,
                served as f64 / 1024.0,
            );
        }
        let (sim_model, _) = train_orion(
            &data,
            cfg,
            &SlrRunConfig {
                cluster: ClusterSpec::new(nodes, 1),
                passes,
                prefetch_override: None,
            },
        );
        println!(
            "\nfinal loss {:.4}; bit-identical to the sim oracle: {}",
            out.stats.final_metric().unwrap(),
            sim_model.weights == out.model.weights,
        );
        let _ = std::fs::remove_dir_all(args.scratch_dir("slr_example"));
        return;
    }

    let sim = || Engine::Sim(ClusterSpec::new(1, 8));
    if args.runs(EngineKind::Sim) && args.autotune() {
        // Profile-guided adaptive planning: the static planner picks the
        // recording-pass prefetch regime; calibration discovers caching
        // the recorded indices is strictly cheaper (§6.3) and re-plans.
        println!("\nauto-tuning SLR ({passes} passes)\n");
        let out = common::run_or_exit(&app(None), &data, &args.run_config(sim(), passes, "tuned"));
        let outcome = out.tune.expect("a tuned run reports its decision");
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
            "re-planned: {}; final loss {:.4}; virtual time {}",
            outcome.replanned,
            out.stats.final_metric().unwrap(),
            out.stats.progress.last().unwrap().time,
        );
        return;
    }

    let mut rows = Vec::new();
    let mut sessions = Vec::new();
    if args.runs(EngineKind::Sim) {
        for (label, mode) in [
            ("no prefetch", PrefetchMode::Disabled),
            ("synthesized prefetch", PrefetchMode::Recorded),
            ("cached prefetch indices", PrefetchMode::CachedRecorded),
        ] {
            let run = args.run_config(sim(), passes, &label.replace(' ', "_"));
            let out = common::run_or_exit(&app(Some(mode)), &data, &run);
            if let Some(report) = out.chaos {
                clean_checkpoints(&run.chaos.as_ref().unwrap().policy(), &["weights"]);
                println!(
                    "  [{label}] {} crash(es) recovered, {} pass(es) re-executed, \
                     {:.3}s virtual fault-handling overhead",
                    report.crashes_recovered,
                    report.passes_reexecuted,
                    report.overhead_ns() as f64 / 1e9,
                );
            }
            if let Some(mut artifacts) = out.trace {
                artifacts.session.name = format!("orion/slr [{label}]");
                sessions.push(artifacts.session);
            }
            let secs = out.stats.progress.last().unwrap().time.as_secs_f64() / passes as f64;
            rows.push((label, secs, out.stats.final_metric().unwrap()));
        }
    }

    if args.runs(EngineKind::Threads) {
        // ---- The real multi-core execution path: the buffered 1-D pass on
        // a persistent pool of OS threads, bit-identical to the simulated
        // engine. ----
        let run = args.threads_config(passes, "threads");
        let wall_start = std::time::Instant::now();
        let out = common::run_or_exit(&app(None), &data, &run);
        let wall = wall_start.elapsed();
        println!(
            "\nthreaded engine ({} worker thread(s)): real wall-clock {:.1} ms \
             for {passes} passes, final loss {:.4}",
            args.threads(),
            wall.as_secs_f64() * 1e3,
            out.stats.final_metric().unwrap(),
        );
        sessions.extend(out.trace.map(|artifacts| artifacts.session));
    }

    args.write_trace(&sessions, " (one pid group per prefetch regime)");

    if !rows.is_empty() {
        println!(
            "\n{:<26}  {:>16}  {:>12}",
            "mode", "virtual s/pass", "final loss"
        );
        for (label, secs, loss) in &rows {
            println!("{label:<26}  {secs:>16.6}  {loss:>12.4}");
        }
        println!(
            "\nsame losses (prefetching never changes results), wildly different times —\n\
             the paper measures 7682 s -> 9.2 s -> 6.3 s per pass on KDD2010 (§6.3)."
        );
    }
}
