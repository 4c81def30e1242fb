//! CP tensor decomposition: a 3-dimensional iteration space where the
//! analyzer correctly refuses to parallelize the loop as written (every
//! pair of modes is defeated by the third factor's dependences), and the
//! programming model's buffering escape hatch recovers unordered 2-D
//! parallelism by relaxing only the smallest factor.
//!
//! Run with: `cargo run --release --example tensor_decomposition`
//!
//! Pass `--trace out.json` to dump a Perfetto-loadable phase trace of
//! the buffered 2-D parallel run (see `docs/OBSERVABILITY.md`). Pass
//! `--engine sim|threads` to run only that engine (`--threads N` alone
//! selects the thread pool and sizes it; default: available parallelism).

mod common;

use common::EngineKind;
use orion::apps::run::Engine;
use orion::apps::tensor_cp::{analyze_unbuffered, train_orion, CpApp, CpConfig, CpRunConfig};
use orion::core::ClusterSpec;
use orion::data::{TensorConfig, TensorData};

fn main() {
    let args = common::parse(
        "tensor_decomposition",
        &["--engine", "--threads", "--trace"],
    );
    let data = TensorData::generate(TensorConfig::bench());
    println!(
        "tensor: {:?}, {} observed entries",
        data.entries.shape().dims(),
        data.entries.nnz()
    );

    // As written: three all-conflicting dependence families => serial.
    let verdict = analyze_unbuffered(&data, &CpConfig::new(8));
    println!("\nanalyzer verdict without buffering: {}", verdict.label());
    println!("(correct: no pair of modes annihilates every dependence vector)");

    // With the context factor S buffered: 2-D unordered over (users, items).
    let passes = 12u64;
    let mut buffered_cfg = CpConfig::new(8);
    buffered_cfg.step_size = 0.02; // tuned for lumped S application
    let app = CpApp {
        cfg: buffered_cfg,
        buffer_s: true,
    };
    if args.runs(EngineKind::Net) {
        // No node side yet: reports the typed error.
        let run = args.run_config(args.net_engine(passes, "cp"), passes, "cp");
        common::run_or_exit(&app, &data, &run);
    }
    let mut sessions = Vec::new();
    if args.runs(EngineKind::Sim) {
        let serial = train_orion(
            &data,
            CpConfig::new(8),
            &CpRunConfig {
                cluster: ClusterSpec::serial(),
                passes,
                buffer_s: false,
            },
        )
        .1;
        let run = args.run_config(Engine::Sim(ClusterSpec::new(2, 2)), passes, "cp");
        let out = common::run_or_exit(&app, &data, &run);
        if let Some(artifacts) = out.trace {
            println!("\n{}", artifacts.report.render());
            sessions.push(artifacts.session);
        }
        let parallel = out.stats;

        println!(
            "\n{:>4}  {:>20}  {:>24}",
            "pass", "serial (t, loss)", "buffered 2D (t, loss)"
        );
        for p in 0..passes as usize {
            println!(
                "{:>4}  {:>10} {:>9.1}  {:>12} {:>11.1}",
                p,
                format!("{}", serial.progress[p].time),
                serial.progress[p].metric,
                format!("{}", parallel.progress[p].time),
                parallel.progress[p].metric
            );
        }
        println!(
            "\nBuffering S trades some per-pass convergence (its updates apply at\n\
             pass boundaries) for 2-D parallel execution — the same relaxation\n\
             trade the paper's §3.3 makes, confined to one small factor."
        );
    }

    if args.runs(EngineKind::Threads) {
        // ---- The real multi-core execution path: the buffered 2-D schedule
        // on a persistent pool of OS threads, bit-identical to the simulated
        // engine. ----
        let wall_start = std::time::Instant::now();
        let out = common::run_or_exit(&app, &data, &args.threads_config(passes, "cp"));
        let wall = wall_start.elapsed();
        println!(
            "\nthreaded engine ({} worker thread(s)): real wall-clock {:.1} ms \
             for {passes} passes, final loss {:.1}",
            args.threads(),
            wall.as_secs_f64() * 1e3,
            out.stats.final_metric().unwrap(),
        );
        sessions.extend(out.trace.map(|artifacts| artifacts.session));
    }
    args.write_trace(&sessions, "");
}
