//! LDA topic modeling with collapsed Gibbs sampling, parallelized by
//! Orion: documents stay local, the word–topic table rotates, and the
//! topic-summary row is deliberately relaxed through a DistArray Buffer
//! (the paper's "non-critical dependences").
//!
//! Run with: `cargo run --release --example topic_model`
//!
//! Pass `--trace out.json` to dump a Perfetto-loadable phase trace of
//! the Orion run (see `docs/OBSERVABILITY.md`). Pass
//! `--engine sim|threads` to run only that engine (`--threads N` alone
//! selects the thread pool and sizes it; default: available parallelism).

mod common;

use common::EngineKind;
use orion::apps::lda::{train_serial, LdaApp, LdaConfig};
use orion::apps::run::Engine;
use orion::core::ClusterSpec;
use orion::data::{CorpusConfig, CorpusData};

fn main() {
    let args = common::parse("topic_model", &["--engine", "--threads", "--trace"]);
    let corpus = CorpusData::generate(CorpusConfig::nytimes_like());
    println!(
        "corpus: {} docs, vocab {}, {} tokens",
        corpus.config.n_docs, corpus.config.vocab, corpus.n_tokens
    );

    let app = LdaApp {
        cfg: LdaConfig::new(20),
        ordered: false,
    };
    let passes = 10u64;
    if args.runs(EngineKind::Net) {
        // No node side yet: reports the typed error.
        let run = args.run_config(args.net_engine(passes, "lda"), passes, "lda");
        common::run_or_exit(&app, &corpus, &run);
    }
    let mut sessions = Vec::new();
    let mut sim = None;
    if args.runs(EngineKind::Sim) {
        let (_, serial) = train_serial(&corpus, app.cfg.clone(), passes);
        let run = args.run_config(Engine::Sim(ClusterSpec::new(8, 4)), passes, "lda");
        let out = common::run_or_exit(&app, &corpus, &run);
        if let Some(artifacts) = out.trace {
            println!("\n{}", artifacts.report.render());
            sessions.push(artifacts.session);
        }
        println!(
            "\n{:>4}  {:>18}  {:>18}",
            "pass", "serial NLL/token", "Orion NLL/token"
        );
        for p in 0..passes as usize {
            println!(
                "{:>4}  {:>18.4}  {:>18.4}",
                p, serial.progress[p].metric, out.stats.progress[p].metric
            );
        }
        sim = Some((out.model, out.stats));
    }

    if args.runs(EngineKind::Threads) {
        // ---- The real multi-core execution path: the same rotation
        // schedule on a persistent pool of OS threads, bit-identical count
        // tables to the simulated engine. ----
        let wall_start = std::time::Instant::now();
        let out = common::run_or_exit(&app, &corpus, &args.threads_config(passes, "lda"));
        let wall = wall_start.elapsed();
        println!(
            "\nthreaded engine ({} worker thread(s)): real wall-clock {:.1} ms \
             for {passes} passes, final NLL/token {:.4}",
            args.threads(),
            wall.as_secs_f64() * 1e3,
            out.stats.final_metric().unwrap(),
        );
        sessions.extend(out.trace.map(|artifacts| artifacts.session));
    }
    args.write_trace(&sessions, "");

    let Some((model, parallel)) = sim else { return };
    // Show the top words of a few topics (by word–topic counts).
    println!("\ntop words per topic (word ids):");
    for t in 0..4usize {
        let mut scored: Vec<(u32, i64)> = (0..corpus.config.vocab as i64)
            .map(|w| (model.wt.row_slice(w)[t], w))
            .filter(|(c, _)| *c > 0)
            .collect();
        scored.sort_by_key(|&(c, _)| std::cmp::Reverse(c));
        let top: Vec<i64> = scored.iter().take(8).map(|&(_, w)| w).collect();
        println!("  topic {t}: {top:?}");
    }
    println!(
        "\nparallel Gibbs tracks serial convergence (paper Fig. 9c) at {} virtual s/pass",
        parallel.secs_per_iteration(2, passes).unwrap_or(f64::NAN)
    );
}
