//! Distributed conformance: a real multi-process localhost cluster must
//! train bit-identically to the virtual-time simulation — the sim is
//! the oracle (same seed, same plan → same model state), including
//! across a node crash and checkpoint rollback.
//!
//! This test uses `harness = false` because the cluster re-executes the
//! test binary itself as node processes (`ORION_NET_ROLE=node`); the
//! first line of `main` diverts those children into the node runtime
//! instead of re-running the whole suite.

use orion::apps::distributed::{self, DistOptions};
use orion::apps::run::App;
use orion::apps::{sgd_mf, slr};
use orion::check::plan_event_log;
use orion::core::{ClusterSpec, Driver};
use orion::data::{RatingsConfig, RatingsData, SparseConfig, SparseData};

const NODES: usize = 4;

fn workdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("orion_dist_{tag}_{}", std::process::id()));
    // A leftover directory from a crashed earlier run would replay its
    // crash markers; start clean.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `tiny()` is tall (users are the space dimension, `W` is pinned and
/// `H` rotates); the wide shape makes the planner swap the roles.
fn mf_conformance(tag: &str, data_cfg: RatingsConfig, nodes: usize) {
    let data = RatingsData::generate(data_cfg);
    let cfg = sgd_mf::MfConfig::new(4);
    let run = sgd_mf::MfRunConfig {
        cluster: ClusterSpec::new(nodes, 1),
        passes: 3,
        ordered: false,
    };
    let (sim_model, sim_stats) = sgd_mf::train_orion(&data, cfg.clone(), &run);

    // The `nodes × 1` plan every node compiles, set up as a node does.
    let mut driver = Driver::new(ClusterSpec::new(nodes, 1));
    let (compiled, _) = sgd_mf::MfApp::new(cfg.clone(), run.ordered).setup(&data, &mut driver);
    let expected_log = plan_event_log(&driver.compile_threaded(&compiled));

    let dir = workdir(tag);
    let mut opts = DistOptions::new(nodes, run.passes, &dir);
    opts.run_id = format!("{tag}_conf");
    opts.record_msgs = true;
    let out = distributed::train_mf_distributed(&data, cfg, run.ordered, &opts)
        .expect("distributed MF run succeeds");
    assert_eq!(out.recoveries, 0, "fault-free run must not recover");
    // O204 runtime monitor: the recorded coordinator traffic must
    // replay cleanly against the protocol model.
    assert!(!out.msg_log.is_empty(), "record_msgs captures traffic");
    orion::check::proto::monitor_log(nodes, &out.msg_log)
        .expect("fault-free MF protocol log passes the O204 monitor");
    assert_eq!(out.epochs.len(), run.passes as usize);
    assert!(
        out.epochs.iter().all(|e| e
            .links
            .iter()
            .any(|l| l.src < nodes && l.dst < nodes && l.bytes > 0)),
        "every MF epoch rotates partitions over real sockets"
    );
    for e in &out.epochs {
        assert_eq!(
            e.events, expected_log,
            "epoch {}: every node walks the plan's event log",
            e.epoch
        );
    }
    assert_eq!(
        sim_model.w, out.model.w,
        "W must be bit-identical to the sim oracle"
    );
    assert_eq!(
        sim_model.h, out.model.h,
        "H must be bit-identical to the sim oracle"
    );
    assert_eq!(
        out.stats.final_metric().map(f64::to_bits),
        sim_stats.final_metric().map(f64::to_bits),
        "the final loss must be bit-identical to the sim oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok - {tag}_conformance");
}

fn slr_conformance() {
    let data = SparseData::generate(SparseConfig::tiny());
    let cfg = slr::SlrConfig::new();
    let run = slr::SlrRunConfig {
        cluster: ClusterSpec::new(NODES, 1),
        passes: 3,
        prefetch_override: None,
    };
    let (sim_model, _) = slr::train_orion(&data, cfg.clone(), &run);

    let dir = workdir("slr");
    let mut opts = DistOptions::new(NODES, run.passes, &dir);
    opts.run_id = "slr_conf".into();
    let out = distributed::train_slr_distributed(&data, cfg, &opts)
        .expect("distributed SLR run succeeds");
    assert_eq!(out.recoveries, 0, "fault-free run must not recover");
    assert_eq!(
        sim_model.weights, out.model.weights,
        "weights must be bit-identical to the sim oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok - slr_conformance");
}

fn mf_crash_recovery() {
    let data = RatingsData::generate(RatingsConfig::tiny());
    let cfg = sgd_mf::MfConfig::new(4);
    let run = sgd_mf::MfRunConfig {
        cluster: ClusterSpec::new(NODES, 1),
        passes: 5,
        ordered: false,
    };
    let (sim_model, _) = sgd_mf::train_orion(&data, cfg.clone(), &run);

    let dir = workdir("mf_crash");
    let mut opts = DistOptions::new(NODES, run.passes, &dir);
    opts.run_id = "mf_crash".into();
    opts.checkpoint_every = 2;
    opts.record_msgs = true;
    // Node 2 dies mid-epoch 3; the cluster rolls back to the epoch-2
    // checkpoint barrier and re-executes.
    opts.crash = Some((2, 3));
    let out = distributed::train_mf_distributed(&data, cfg, run.ordered, &opts)
        .expect("crashed MF run recovers");
    assert_eq!(out.recoveries, 1, "exactly one injected crash");
    // The monitor must also accept a log containing a real rollback
    // (stale EpochDones from the abandoned epoch included).
    orion::check::proto::monitor_log(NODES, &out.msg_log)
        .expect("crash-recovery protocol log passes the O204 monitor");
    assert_eq!(
        out.reexecuted, 1,
        "epoch 2..3 re-executes after rollback to the barrier"
    );
    assert_eq!(
        sim_model.w, out.model.w,
        "post-recovery W must match the fault-free oracle"
    );
    assert_eq!(
        sim_model.h, out.model.h,
        "post-recovery H must match the fault-free oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok - mf_crash_recovery");
}

fn main() {
    // Children spawned by the coordinator run the node main and exit
    // here; only the original invocation proceeds to the assertions.
    distributed::maybe_node();

    mf_conformance("mf", RatingsConfig::tiny(), NODES);
    let wide = RatingsConfig {
        n_users: 60,
        n_items: 400,
        nnz: 3_000,
        ..RatingsConfig::tiny()
    };
    mf_conformance("mf_wide", wide, 2);
    slr_conformance();
    mf_crash_recovery();
    println!("distributed_conformance: all checks passed");
}
