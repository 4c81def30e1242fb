//! Model serving: train an MF model, checkpoint it, load the checkpoint
//! into read-optimized shards, and serve a skewed query stream through
//! the cached inference engine — the full model lifecycle (train →
//! checkpoint → serve) in one run.
//!
//! Serving is a wall-clock closed loop: one client calls
//! `ServeEngine::answer` back to back and times every call, so the
//! latency percentiles are measured, not modelled (the stream's arrival
//! times are not used).
//!
//! Run with: `cargo run --release --example model_serving`
//!
//! Flags:
//! - `--shards N`    serving shards (default 4)
//! - `--requests N`  queries to serve (default 5000)
//! - `--trace out.json` record one `serve` span per query into a
//!   Perfetto-loadable trace, plus a run report with latency
//!   percentiles at `out.json.report.json` (see `docs/SERVING.md`).

mod common;

use std::time::Instant;

use orion::apps::serve::{MfAnswer, MfQuery, MfServe};
use orion::apps::sgd_mf::{train_orion, MfConfig, MfRunConfig};
use orion::core::ClusterSpec;
use orion::data::{RatingsConfig, RatingsData};
use orion::serve::{EngineConfig, ServeEngine, ServeModel, TrafficConfig};
use orion::trace::{LatencyStats, LoadStats, OwnedSession, RunReport, SpanCat, Tracer};

fn main() {
    let args = common::parse("model_serving", &["--shards", "--requests", "--trace"]);
    let shards = args.count("--shards").unwrap_or(4);
    let n_requests = args.count("--requests").unwrap_or(5000);

    // 1. Train: a small Netflix-like MF model via Orion's automatic
    //    parallelization.
    println!("training MF model (Orion, simulated 4x2 cluster)...");
    let data = RatingsData::generate(RatingsConfig::tiny());
    let run = MfRunConfig {
        cluster: ClusterSpec::new(4, 2),
        passes: 3,
        ordered: false,
    };
    let (model, _) = train_orion(&data, MfConfig::new(8), &run);

    // 2. Checkpoint → shards: the factors leave training as checkpoint
    //    images and come back as immutable serving shards.
    let (w, h) = MfServe::checkpoint_bytes(&model);
    println!(
        "checkpointed W ({} bytes) and H ({} bytes); loading into {shards} shard(s)",
        w.len(),
        h.len()
    );
    let serve = MfServe::from_checkpoint_bytes(w, h, shards).expect("intact checkpoint loads");
    let engine = ServeEngine::new(serve, EngineConfig::default());

    // 3. Serve: a Zipf-skewed mix of point predictions and top-5
    //    recommendations, one timed `answer` call after another.
    let mut traffic = TrafficConfig::tiny(engine.model().n_users());
    traffic.n_requests = n_requests;
    traffic.key2_domain = engine.model().n_items();
    let queries: Vec<MfQuery> = traffic
        .generate()
        .iter()
        .map(|raw| engine.model().query_from_raw(raw, 0.7, 5))
        .collect();
    let mut tracer = Tracer::enabled(queries.len());
    let mut latencies = Vec::with_capacity(queries.len());
    let mut answers = Vec::with_capacity(queries.len());
    let session = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let start = session.elapsed().as_nanos() as u64;
        answers.push(engine.answer(q));
        let end = session.elapsed().as_nanos() as u64;
        latencies.push(end - start);
        // A span needs a positive length to be recorded.
        tracer.record(SpanCat::Serve, 0, 0, start, end.max(start + 1), 0, i as u64);
    }
    let wall_ns = session.elapsed().as_nanos() as u64;

    let lat = LatencyStats::from_durations(&latencies).expect("served queries");
    println!(
        "\nserved {} queries over {} shard(s) in {:.1} ms: {:.0} queries/s (one client, wall clock)",
        queries.len(),
        engine.n_shards(),
        wall_ns as f64 / 1e6,
        queries.len() as f64 / (wall_ns as f64 / 1e9)
    );
    println!(
        "latency p50 {:.2} us, p99 {:.2} us, p999 {:.2} us, max {:.2} us",
        lat.p50_ns as f64 / 1e3,
        lat.p99_ns as f64 / 1e3,
        lat.p999_ns as f64 / 1e3,
        lat.max_ns as f64 / 1e3
    );
    let cache = engine.cache_stats();
    println!(
        "row cache: {:.1}% hit rate over {} lookups ({} evictions)",
        cache.hit_rate() * 100.0,
        cache.lookups,
        cache.evictions
    );

    // A sample answer of each kind.
    for (q, a) in queries.iter().zip(&answers) {
        if let (MfQuery::Recommend { user, .. }, MfAnswer::TopK(items)) = (q, a) {
            println!("sample: top items for user {user}: {items:?}");
            break;
        }
    }

    if let Some(path) = args.trace() {
        let report = RunReport::build(
            wall_ns,
            tracer.spans(),
            1,
            1,
            vec![],
            engine
                .model()
                .arrays()
                .iter()
                .map(|a| {
                    (
                        a.name().to_string(),
                        a.shards().iter().map(|s| s.bytes()).sum(),
                    )
                })
                .collect(),
            LoadStats::new(vec![queries.len() as u64]),
        );
        let report_path = path.with_extension("json.report.json");
        std::fs::write(&report_path, report.to_json()).expect("write report");
        let session = OwnedSession {
            name: "serve/mf".into(),
            n_machines: 1,
            workers_per_machine: 1,
            spans: tracer.into_spans(),
            transfers: vec![],
        };
        args.write_trace(
            &[session],
            &format!(
                " (open at https://ui.perfetto.dev), report to {}",
                report_path.display()
            ),
        );
    }
}
