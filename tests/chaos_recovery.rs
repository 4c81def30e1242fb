//! Chaos conformance suite (§4.3): deterministic fault injection with
//! checkpoint-every-N recovery must reproduce the fault-free run
//! *bit-for-bit* — crashes cost virtual time, never correctness — and
//! the fault handling must be visible in the trace artifacts.
//!
//! All runs here execute with the schedule sanitizer on (validation
//! defaults on in test builds — asserted below): every completed and
//! every *re-executed* pass has its time slots checked against the
//! dependence oracle, so recovery can never sneak in a schedule that
//! violates a dependence.

use orion::apps::chaos::ChaosConfig;
use orion::apps::run::{run, App, Engine, RunConfig, RunOutput};
use orion::apps::sgd_mf::{train_orion as train_mf, MfApp, MfConfig, MfModel, MfRunConfig};
use orion::apps::slr::{train_orion as train_slr, SlrApp, SlrConfig, SlrModel, SlrRunConfig};
use orion::core::{clean_checkpoints, ClusterSpec, FaultPlan, RunStats, VirtualTime};
use orion::data::{RatingsConfig, RatingsData, SparseConfig, SparseData};
use orion::trace::write_perfetto;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("orion_chaos_{}_{}", std::process::id(), name))
}

fn wall(stats: &RunStats) -> VirtualTime {
    stats.progress.last().expect("run recorded progress").time
}

fn mf_run(passes: u64) -> MfRunConfig {
    MfRunConfig {
        cluster: ClusterSpec::new(2, 2),
        passes,
        ordered: false,
    }
}

fn slr_run(passes: u64) -> SlrRunConfig {
    SlrRunConfig {
        cluster: ClusterSpec::new(2, 2),
        passes,
        prefetch_override: None,
    }
}

/// `app` on the 2×2 simulated cluster under `chaos`, traced or not.
fn run_chaos<A: App>(
    app: &A,
    data: &A::Data,
    passes: u64,
    chaos: &ChaosConfig,
    trace: bool,
) -> RunOutput<A::Model> {
    let mut cfg = RunConfig::new(Engine::Sim(ClusterSpec::new(2, 2)), passes);
    cfg.chaos = Some(chaos.clone());
    cfg.trace = trace;
    run(app, data, &cfg).expect("MF and SLR recover on the simulated engine")
}

fn mf_chaos(data: &RatingsData, passes: u64, chaos: &ChaosConfig) -> RunOutput<MfModel> {
    run_chaos(
        &MfApp::new(MfConfig::new(4), false),
        data,
        passes,
        chaos,
        false,
    )
}

fn slr_app() -> SlrApp {
    SlrApp {
        cfg: SlrConfig::new(),
        prefetch_override: None,
    }
}

fn slr_chaos(data: &SparseData, passes: u64, chaos: &ChaosConfig) -> RunOutput<SlrModel> {
    run_chaos(&slr_app(), data, passes, chaos, false)
}

/// A plan crashing machine 1 halfway through the fault-free run.
fn mid_run_crash(clean_wall: VirtualTime) -> FaultPlan {
    FaultPlan::new(42).crash(
        1,
        VirtualTime::from_nanos(clean_wall.as_nanos() / 2),
        VirtualTime::from_millis(250),
    )
}

#[test]
fn mf_crash_recovery_is_bit_identical() {
    let data = RatingsData::generate(RatingsConfig::tiny());
    let passes = 6;
    let (clean, clean_stats) = train_mf(&data, MfConfig::new(4), &mf_run(passes));
    let clean_wall = wall(&clean_stats);

    let dir = tmp_dir("mf");
    let chaos = ChaosConfig::new(mid_run_crash(clean_wall), 2, &dir, "mf");
    let out = mf_chaos(&data, passes, &chaos);
    let (recovered, chaos_stats, report) = (out.model, out.stats, out.chaos.unwrap());

    assert_eq!(report.crashes_recovered, 1, "the planned crash must fire");
    assert!(report.passes_reexecuted >= 1);
    assert!(report.checkpoints_written >= 2);
    assert_eq!(recovered.w, clean.w, "recovered W must be bit-identical");
    assert_eq!(recovered.h, clean.h, "recovered H must be bit-identical");
    assert_eq!(
        clean_stats.progress.len(),
        chaos_stats.progress.len(),
        "every pass reports progress exactly once"
    );
    for (a, b) in clean_stats.progress.iter().zip(&chaos_stats.progress) {
        assert_eq!(a.metric, b.metric, "loss trajectory must be unchanged");
    }
    assert!(
        wall(&chaos_stats) > clean_wall,
        "fault handling must cost virtual time: {:?} vs {clean_wall:?}",
        wall(&chaos_stats)
    );
    clean_checkpoints(&chaos.policy(), &["W", "H"]);
}

#[test]
fn slr_crash_recovery_is_bit_identical() {
    let data = SparseData::generate(SparseConfig::tiny());
    let passes = 6;
    let (clean, clean_stats) = train_slr(&data, SlrConfig::new(), &slr_run(passes));
    let clean_wall = wall(&clean_stats);

    let dir = tmp_dir("slr");
    let chaos = ChaosConfig::new(mid_run_crash(clean_wall), 2, &dir, "slr");
    let out = slr_chaos(&data, passes, &chaos);
    let (recovered, chaos_stats, report) = (out.model, out.stats, out.chaos.unwrap());

    assert_eq!(report.crashes_recovered, 1, "the planned crash must fire");
    assert!(report.passes_reexecuted >= 1);
    assert_eq!(
        recovered.weights, clean.weights,
        "recovered weights must be bit-identical"
    );
    for (a, b) in clean_stats.progress.iter().zip(&chaos_stats.progress) {
        assert_eq!(a.metric, b.metric, "loss trajectory must be unchanged");
    }
    assert!(wall(&chaos_stats) > clean_wall);
    clean_checkpoints(&chaos.policy(), &["weights"]);
}

#[test]
fn stragglers_stretch_wall_clock_but_not_results() {
    let data = RatingsData::generate(RatingsConfig::tiny());
    let passes = 4;
    let (clean, clean_stats) = train_mf(&data, MfConfig::new(4), &mf_run(passes));

    let dir = tmp_dir("straggler");
    let plan = FaultPlan::new(7).straggler(0, 3.0).straggler(3, 1.5);
    let chaos = ChaosConfig::new(plan, passes, &dir, "straggler");
    let out = mf_chaos(&data, passes, &chaos);
    let (slow, slow_stats, report) = (out.model, out.stats, out.chaos.unwrap());

    assert_eq!(report.crashes_recovered, 0);
    assert_eq!(report.passes_reexecuted, 0);
    assert_eq!(slow.w, clean.w, "stragglers must not change the model");
    assert_eq!(slow.h, clean.h);
    assert_eq!(
        slow_stats.total_bytes, clean_stats.total_bytes,
        "stragglers must not change traffic"
    );
    assert!(
        wall(&slow_stats) > wall(&clean_stats),
        "a 3x straggler must stretch the run: {:?} vs {:?}",
        wall(&slow_stats),
        wall(&clean_stats)
    );
    clean_checkpoints(&chaos.policy(), &["W", "H"]);
}

#[test]
fn sparse_checkpoints_recover_from_the_initial_one() {
    // Checkpoint interval far beyond the run length: only the initial
    // (pass-0) checkpoint exists, so the crash rewinds to the start and
    // re-executes everything — still bit-identical.
    let data = RatingsData::generate(RatingsConfig::tiny());
    let passes = 4;
    let (clean, _) = train_mf(&data, MfConfig::new(4), &mf_run(passes));
    let (_, probe_stats) = train_mf(&data, MfConfig::new(4), &mf_run(passes));
    let clean_wall = wall(&probe_stats);

    let dir = tmp_dir("sparse_ckpt");
    let chaos = ChaosConfig::new(mid_run_crash(clean_wall), 1_000, &dir, "sparse");
    let out = mf_chaos(&data, passes, &chaos);
    let (recovered, report) = (out.model, out.chaos.unwrap());

    assert_eq!(report.crashes_recovered, 1);
    assert_eq!(
        report.checkpoints_written, 1,
        "only the initial checkpoint is due"
    );
    assert!(
        report.passes_reexecuted >= 2,
        "rewinding to pass 0 re-executes the crashed pass and its predecessors"
    );
    assert_eq!(recovered.w, clean.w);
    assert_eq!(recovered.h, clean.h);
    clean_checkpoints(&chaos.policy(), &["W", "H"]);
}

/// A traced chaos run must show the detection stall, the restore and
/// the checkpoint IO, in the session and in the run report.
fn assert_fault_spans<M>(out: &RunOutput<M>) {
    assert_eq!(out.chaos.unwrap().crashes_recovered, 1);
    let artifacts = out.trace.as_ref().expect("a traced run yields artifacts");
    let cats: std::collections::BTreeSet<&str> = artifacts
        .session
        .spans
        .iter()
        .map(|s| s.cat.name())
        .collect();
    assert!(
        cats.contains("fault"),
        "trace must show the detection stall"
    );
    assert!(cats.contains("recovery"), "trace must show the restore");
    assert!(cats.contains("checkpoint"), "trace must show checkpoint IO");

    let mut buf = Vec::new();
    write_perfetto(&mut buf, &[artifacts.session.view()]).expect("perfetto export");
    let json = String::from_utf8(buf).expect("exporter emits UTF-8");
    assert!(json.contains("\"fault\""));
    assert!(json.contains("\"recovery\""));

    assert!(
        artifacts.report.recovery_overhead_ns() > 0,
        "the run report must account the fault-handling time"
    );
    assert!(artifacts.report.recovery_overhead() > 0.0);
    let report_json = artifacts.report.to_json();
    assert!(report_json.contains("\"recovery_overhead_ns\""));
}

#[test]
fn traced_chaos_run_exports_fault_and_recovery_spans() {
    let data = RatingsData::generate(RatingsConfig::tiny());
    let passes = 6;
    let (_, clean_stats) = train_mf(&data, MfConfig::new(4), &mf_run(passes));
    let clean_wall = wall(&clean_stats);

    let dir = tmp_dir("traced");
    let chaos = ChaosConfig::new(mid_run_crash(clean_wall), 2, &dir, "traced");
    let app = MfApp::new(MfConfig::new(4), false);
    assert_fault_spans(&run_chaos(&app, &data, passes, &chaos, true));
    clean_checkpoints(&chaos.policy(), &["W", "H"]);
}

/// Options compose: SLR chaos traces like MF's (it could not before the
/// one generic runner).
#[test]
fn traced_slr_chaos_run_exports_fault_and_recovery_spans() {
    let data = SparseData::generate(SparseConfig::tiny());
    let passes = 6;
    let (clean, clean_stats) = train_slr(&data, SlrConfig::new(), &slr_run(passes));

    let dir = tmp_dir("traced_slr");
    let chaos = ChaosConfig::new(mid_run_crash(wall(&clean_stats)), 2, &dir, "traced_slr");
    let out = run_chaos(&slr_app(), &data, passes, &chaos, true);
    assert_fault_spans(&out);
    assert_eq!(
        out.model.weights, clean.weights,
        "tracing never changes results"
    );
    clean_checkpoints(&chaos.policy(), &["weights"]);
}

#[test]
fn chaos_runs_are_reproducible() {
    // Same plan, same data → the chaos run itself is deterministic:
    // identical model bits, progress times, and recovery accounting.
    let data = SparseData::generate(SparseConfig::tiny());
    let passes = 5;
    let (_, probe) = train_slr(&data, SlrConfig::new(), &slr_run(passes));
    let plan = mid_run_crash(wall(&probe)).straggler(2, 2.0);

    let mk = |tag: &str| {
        let dir = tmp_dir(tag);
        let chaos = ChaosConfig::new(plan.clone(), 2, &dir, tag);
        let out = slr_chaos(&data, passes, &chaos);
        clean_checkpoints(&chaos.policy(), &["weights"]);
        out
    };
    let (a, b) = (mk("repro_a"), mk("repro_b"));
    assert_eq!(a.model.weights, b.model.weights);
    assert_eq!(a.stats.progress, b.stats.progress);
    assert_eq!(a.chaos, b.chaos);
}

/// Chaos runs are sanitized: validation defaults on in test builds, so
/// re-executed passes after recovery go through the same slot-level
/// race check as first-try passes.
#[test]
fn chaos_runs_execute_under_the_schedule_sanitizer() {
    assert!(
        orion::core::Driver::validate_by_default(),
        "test builds must run the schedule sanitizer during chaos recovery"
    );
}
