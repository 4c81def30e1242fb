//! Trace export integration: a small MF run produces schema-valid
//! Perfetto `trace_event` JSON, the exporter's byte output is pinned by a
//! golden file, and tracing never perturbs training results.

use orion::apps::common::TraceArtifacts;
use orion::apps::run::{run, Engine, RunConfig};
use orion::apps::serve::MfServe;
use orion::apps::sgd_mf::{train_orion, MfApp, MfConfig, MfModel, MfRunConfig};
use orion::core::{ClusterSpec, RunStats};
use orion::data::{RatingsConfig, RatingsData};
use orion::serve::{EngineConfig, Request, ServeEngine, TrafficConfig};
use orion::trace::json::validate_trace_events;
use orion::trace::{write_perfetto, SessionView, SpanCat, Tracer, Transfer};

fn data() -> RatingsData {
    RatingsData::generate(RatingsConfig::tiny())
}

fn run_cfg(passes: u64) -> MfRunConfig {
    MfRunConfig {
        cluster: ClusterSpec::new(4, 2),
        passes,
        ordered: false,
    }
}

/// [`train_orion`] with `RunConfig::trace` on.
fn train_orion_with_trace(
    d: &RatingsData,
    cfg: MfConfig,
    sim: &MfRunConfig,
) -> (MfModel, RunStats, TraceArtifacts) {
    let mut traced = RunConfig::new(Engine::Sim(sim.cluster.clone()), sim.passes);
    traced.trace = true;
    let out = run(&MfApp::new(cfg, sim.ordered), d, &traced).expect("MF traces on Sim");
    let artifacts = out.trace.expect("a traced run yields artifacts");
    (out.model, out.stats, artifacts)
}

/// A tiny hand-built session covering every span category plus a wire
/// transfer — the fixture behind the golden file.
fn golden_session(tracer: &mut Tracer, transfers: &mut Vec<Transfer>) {
    tracer.enable(16);
    tracer.record(SpanCat::Rotation, 0, 0, 0, 1_000, 256, 1);
    tracer.record(SpanCat::Compute, 0, 0, 1_000, 5_500, 0, 3);
    tracer.record(SpanCat::Prefetch, 0, 1, 0, 2_000, 512, 8);
    tracer.record(SpanCat::Compute, 0, 1, 2_000, 4_000, 0, 4);
    tracer.record(SpanCat::Server, 1, 2, 1_200, 1_700, 128, 0);
    tracer.record(SpanCat::Flush, 1, 2, 4_000, 4_800, 640, 1);
    tracer.record(SpanCat::Barrier, 1, 3, 4_800, 5_500, 0, u64::MAX);
    tracer.record(SpanCat::Serve, 1, 3, 2_500, 6_000, 0, 42);
    transfers.push(Transfer {
        src_machine: 0,
        dst_machine: 1,
        bytes: 256,
        depart_ns: 500,
        arrive_ns: 1_000,
    });
    transfers.push(Transfer {
        src_machine: 1,
        dst_machine: 0,
        bytes: 128,
        depart_ns: 1_700,
        arrive_ns: 2_100,
    });
}

/// The exporter's byte-for-byte output is pinned by a committed golden
/// file; any format change must update `tests/golden/trace_small.json`
/// deliberately (and re-check it loads in Perfetto).
#[test]
fn golden_trace_matches_committed_file() {
    let mut tracer = Tracer::default();
    let mut transfers = Vec::new();
    golden_session(&mut tracer, &mut transfers);
    let view = SessionView {
        name: "golden/mini",
        n_machines: 2,
        workers_per_machine: 2,
        spans: tracer.spans(),
        transfers: &transfers,
    };
    let mut buf = Vec::new();
    write_perfetto(&mut buf, &[view]).expect("write to Vec");
    let produced = String::from_utf8(buf).expect("utf8");
    // The golden file itself must be schema-valid.
    validate_trace_events(&produced).expect("golden output is schema-valid");
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_small.json");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(golden_path, &produced).expect("regenerate golden file");
    }
    let committed = std::fs::read_to_string(golden_path).expect("read golden file");
    assert_eq!(
        produced, committed,
        "exporter output drifted from tests/golden/trace_small.json; if the \
         format change is intentional, re-run with GOLDEN_REGEN=1 and re-check \
         the file loads at https://ui.perfetto.dev"
    );
}

/// A real (small) MF run exports schema-valid `trace_event` JSON with at
/// least four distinct span categories — the acceptance bar for the
/// observability layer.
#[test]
fn mf_trace_is_schema_valid_with_four_categories() {
    let d = data();
    let (_, stats, artifacts) = train_orion_with_trace(&d, MfConfig::new(4), &run_cfg(3));
    let mut buf = Vec::new();
    write_perfetto(&mut buf, &[artifacts.session.view()]).expect("write");
    let out = String::from_utf8(buf).expect("utf8");
    let summary = validate_trace_events(&out).expect("schema-valid");
    assert!(
        summary.categories.len() >= 4,
        "expected >= 4 span categories, got {:?}",
        summary.categories
    );
    // One Perfetto pid per machine.
    assert_eq!(summary.pids.len(), 4);
    // Phase totals must account for (virtually) all of each executor's
    // wall time, and traffic accounting must agree with RunStats.
    assert!(artifacts.report.min_worker_coverage() >= 0.99);
    assert_eq!(artifacts.report.total_link_bytes(), stats.total_bytes);
}

/// Tracing is observation only: a traced run yields bit-identical models
/// and stats to an untraced run of the same configuration.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let d = data();
    let cfg = MfConfig::new(4);
    let run = run_cfg(4);
    let (plain_model, plain_stats) = train_orion(&d, cfg.clone(), &run);
    let (traced_model, traced_stats, artifacts) = train_orion_with_trace(&d, cfg, &run);
    assert_eq!(plain_model.w, traced_model.w);
    assert_eq!(plain_model.h, traced_model.h);
    assert_eq!(plain_stats.total_bytes, traced_stats.total_bytes);
    assert_eq!(plain_stats.n_messages, traced_stats.n_messages);
    assert_eq!(plain_stats.progress.len(), traced_stats.progress.len());
    for (a, b) in plain_stats.progress.iter().zip(&traced_stats.progress) {
        assert_eq!(a.metric, b.metric);
        assert_eq!(a.time, b.time);
    }
    assert!(!artifacts.session.spans.is_empty());
}

/// The run report round-trips through its hand-rolled JSON writer and
/// the dependency-free parser.
#[test]
fn run_report_json_parses() {
    let d = data();
    let (_, _, artifacts) = train_orion_with_trace(&d, MfConfig::new(4), &run_cfg(2));
    let doc = orion::trace::json::parse(&artifacts.report.to_json()).expect("report JSON parses");
    assert!(doc.get("wall_ns").is_some());
    assert!(doc.get("phase_totals_ns").is_some());
    assert!(doc.get("links").is_some());
}

/// A traced serving session exports schema-valid Perfetto JSON carrying
/// `serve` spans, and its run report carries the latency percentiles
/// (p50/p99/p999) in both the struct and the JSON schema.
#[test]
fn serve_session_exports_valid_trace_and_latency_report() {
    let d = data();
    let (model, _) = train_orion(&d, MfConfig::new(4), &run_cfg(2));
    let engine = ServeEngine::new(MfServe::from_model(&model, 4), EngineConfig::default());
    let requests: Vec<Request<_>> = TrafficConfig::tiny(engine.model().n_users())
        .generate()
        .iter()
        .map(|raw| Request {
            arrive_ns: raw.arrive_ns,
            query: engine.model().query_from_raw(raw, 0.7, 5),
        })
        .collect();
    let mut tracer = Tracer::default();
    tracer.enable(requests.len());
    let (stats, _) = engine.run_session(&requests, &mut tracer);
    assert!(stats.completed > 0);

    // Perfetto export: schema-valid, and the serve category is present.
    let view = SessionView {
        name: "serve/mf",
        n_machines: engine.n_shards(),
        workers_per_machine: 1,
        spans: tracer.spans(),
        transfers: &[],
    };
    let mut buf = Vec::new();
    write_perfetto(&mut buf, &[view]).expect("write");
    let out = String::from_utf8(buf).expect("utf8");
    let summary = validate_trace_events(&out).expect("schema-valid");
    assert!(
        summary.categories.iter().any(|c| c == "serve"),
        "serve category missing from {:?}",
        summary.categories
    );

    // Run report: latency percentiles in the struct and in the JSON.
    let report = engine.session_report(&stats, tracer.spans());
    let latency = report.latency.expect("serve spans produce latency");
    assert_eq!(latency.count, stats.completed);
    assert!(latency.p50_ns <= latency.p99_ns && latency.p99_ns <= latency.p999_ns);
    let doc = orion::trace::json::parse(&report.to_json()).expect("report JSON parses");
    let lat = doc.get("serve_latency").expect("serve_latency key");
    for field in ["count", "mean_ns", "p50_ns", "p99_ns", "p999_ns", "max_ns"] {
        assert!(lat.get(field).is_some(), "missing serve_latency.{field}");
    }
    assert_eq!(
        lat.get("count").unwrap().as_f64().unwrap() as u64,
        stats.completed
    );
}
