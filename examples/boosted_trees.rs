//! Gradient boosted trees with Orion-parallelized (1-D, per-feature)
//! histogram split finding.
//!
//! Run with: `cargo run --release --example boosted_trees`
//!
//! Pass `--trace out.json` to dump a Perfetto-loadable phase trace of
//! the split-finding passes (see `docs/OBSERVABILITY.md`). Pass
//! `--engine sim|threads` to run only that engine (`--threads N` alone
//! selects the thread pool and sizes it; default: available parallelism).

mod common;

use common::EngineKind;
use orion::apps::gbt::{GbtApp, GbtConfig, Node};
use orion::apps::run::Engine;
use orion::core::ClusterSpec;
use orion::data::{TabularConfig, TabularData};

fn main() {
    let args = common::parse("boosted_trees", &["--engine", "--threads", "--trace"]);
    let data = TabularData::generate(TabularConfig::bench());
    println!(
        "dataset: {} samples × {} features, target variance {:.3}",
        data.config.n_samples,
        data.config.n_features,
        data.target_variance()
    );

    let app = GbtApp {
        cfg: GbtConfig::new(20),
    };
    let rounds = app.cfg.n_trees as u64;
    if args.runs(EngineKind::Net) {
        // No node side yet: reports the typed error.
        let run = args.run_config(args.net_engine(rounds, "gbt"), rounds, "gbt");
        common::run_or_exit(&app, &data, &run);
    }
    let mut sessions = Vec::new();
    let mut sim_model = None;
    if args.runs(EngineKind::Sim) {
        let run = args.run_config(Engine::Sim(ClusterSpec::new(4, 5)), rounds, "gbt");
        let out = common::run_or_exit(&app, &data, &run);
        if let Some(artifacts) = out.trace {
            println!("\n{}", artifacts.report.render());
            sessions.push(artifacts.session);
        }
        let model = sim_model.insert(out.model);

        println!("\n{:>5}  {:>10}  {:>12}", "tree", "MSE", "virtual t");
        for p in out.stats.progress.iter().step_by(2) {
            println!("{:>5}  {:>10.4}  {:>12}", p.iteration, p.metric, p.time);
        }
        println!(
            "\nensemble of {} trees, final MSE {:.4} ({}x below target variance)",
            model.trees.len(),
            model.mse(&data),
            (data.target_variance() / model.mse(&data)) as u64
        );
    }

    if args.runs(EngineKind::Threads) {
        // ---- The real multi-core execution path: per-feature split
        // finding fanned out across a persistent pool of OS threads; the
        // ensemble is identical to the simulated engine's. ----
        let wall_start = std::time::Instant::now();
        let out = common::run_or_exit(&app, &data, &args.threads_config(rounds, "gbt"));
        let wall = wall_start.elapsed();
        println!(
            "\nthreaded engine ({} worker thread(s)): real wall-clock {:.1} ms, \
             final MSE {:.4}",
            args.threads(),
            wall.as_secs_f64() * 1e3,
            out.model.mse(&data),
        );
        sessions.extend(out.trace.map(|artifacts| artifacts.session));
        sim_model.get_or_insert(out.model);
    }
    args.write_trace(&sessions, "");

    // Inspect the first tree's root split.
    let model = sim_model.expect("an in-process engine ran");
    if let Node::Split {
        feature, threshold, ..
    } = &model.trees[0].nodes[0]
    {
        println!("first split: feature {feature} at {threshold:.2} (the planted step is on feature 0 at 0.50)");
    }
}
