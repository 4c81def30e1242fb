//! Model serving: train an MF model, checkpoint it, load the checkpoint
//! into read-optimized shards, and serve a skewed query stream through
//! the cached, batched inference engine — the full model lifecycle
//! (train → checkpoint → serve) in one run.
//!
//! Run with: `cargo run --release --example model_serving`
//!
//! Flags:
//! - `--shards N`    serving shards (default 4)
//! - `--requests N`  requests to replay (default 5000)
//! - `--trace out.json` record one `serve` span per request into a
//!   Perfetto-loadable trace, plus a run report with latency
//!   percentiles at `out.json.report.json` (see `docs/SERVING.md`).

mod common;

use orion::apps::serve::{MfAnswer, MfQuery, MfServe};
use orion::apps::sgd_mf::{train_orion, MfConfig, MfRunConfig};
use orion::core::ClusterSpec;
use orion::data::{RatingsConfig, RatingsData};
use orion::serve::{EngineConfig, Request, ServeEngine, TrafficConfig};
use orion::trace::{write_perfetto, SessionView, Tracer};

fn main() {
    let args = common::parse("model_serving", &["--shards", "--requests", "--trace"]);
    let shards = args.count("--shards").unwrap_or(4);
    let n_requests = args.count("--requests").unwrap_or(5000);
    let trace_path = args.trace();

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
    //    recommendations through the virtual-clock session loop.
    let mut traffic = TrafficConfig::tiny(engine.model().n_users());
    traffic.n_requests = n_requests;
    traffic.key2_domain = engine.model().n_items();
    let requests: Vec<Request<MfQuery>> = traffic
        .generate()
        .iter()
        .map(|raw| Request {
            arrive_ns: raw.arrive_ns,
            query: engine.model().query_from_raw(raw, 0.7, 5),
        })
        .collect();
    let mut tracer = Tracer::default();
    tracer.enable(requests.len());
    let (stats, answers) = engine.run_session(&requests, &mut tracer);

    let lat = stats.latency.expect("completed requests");
    println!(
        "\nserved {} requests over {} shard(s): {:.0} rps (virtual), {} rejected",
        stats.completed,
        engine.n_shards(),
        stats.throughput_rps(),
        stats.rejected
    );
    println!(
        "latency p50 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms, max {:.3} ms",
        lat.p50_ns as f64 / 1e6,
        lat.p99_ns as f64 / 1e6,
        lat.p999_ns as f64 / 1e6,
        lat.max_ns as f64 / 1e6
    );
    println!(
        "row cache: {:.1}% hit rate over {} lookups ({} evictions)",
        stats.cache.hit_rate() * 100.0,
        stats.cache.lookups,
        stats.cache.evictions
    );

    // A sample answer of each kind.
    for (req, ans) in requests.iter().zip(&answers) {
        if let (MfQuery::Recommend { user, .. }, Some(MfAnswer::TopK(items))) = (&req.query, ans) {
            println!("sample: top items for user {user}: {items:?}");
            break;
        }
    }

    if let Some(path) = trace_path {
        let view = SessionView {
            name: "serve/mf",
            n_machines: engine.n_shards(),
            workers_per_machine: 1,
            spans: tracer.spans(),
            transfers: &[],
        };
        let mut f = std::fs::File::create(&path).expect("create trace file");
        write_perfetto(&mut f, &[view]).expect("write trace");
        let report = engine.session_report(&stats, tracer.spans());
        let report_path = path.with_extension("json.report.json");
        std::fs::write(&report_path, report.to_json()).expect("write report");
        println!(
            "trace written to {} (open at https://ui.perfetto.dev), report to {}",
            path.display(),
            report_path.display()
        );
    }
}
