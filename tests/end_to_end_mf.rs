//! End-to-end integration: the full pipeline (IR → analysis → schedule →
//! simulated execution → baselines) on SGD matrix factorization.
//!
//! Every `train_orion` run here executes with the schedule sanitizer on
//! (validation defaults on in test builds — asserted below), so each
//! pass's time slots are checked against the access-collision oracle in
//! virtual time: a dependence-violating schedule would abort the test
//! with a rendered `O100` diagnostic.

use orion::apps::sgd_mf::{
    train_orion, train_serial, train_threaded, MfConfig, MfPsAdapter, MfRunConfig,
};
use orion::core::{ClusterSpec, Driver};
use orion::data::{RatingsConfig, RatingsData};
use orion::ps::{PsConfig, PsEngine};

fn data() -> RatingsData {
    RatingsData::generate(RatingsConfig::tiny())
}

/// Ordered 2-D parallelization preserves lexicographic order, so it must
/// produce the *bitwise identical* model to serial execution.
#[test]
fn ordered_parallel_is_bitwise_serial() {
    let d = data();
    let passes = 3;
    let (serial_model, _) = train_serial(&d, MfConfig::new(4), passes);
    let run = MfRunConfig {
        cluster: ClusterSpec::new(4, 4),
        passes,
        ordered: true,
    };
    let (ordered_model, _) = train_orion(&d, MfConfig::new(4), &run);
    assert_eq!(serial_model.w, ordered_model.w);
    assert_eq!(serial_model.h, ordered_model.h);
}

/// The unordered schedule is serializable: same loss trajectory class,
/// and exactly reproducible run to run.
#[test]
fn unordered_parallel_is_deterministic() {
    let d = data();
    let run = MfRunConfig {
        cluster: ClusterSpec::new(4, 4),
        passes: 3,
        ordered: false,
    };
    let (m1, s1) = train_orion(&d, MfConfig::new(4), &run);
    let (m2, s2) = train_orion(&d, MfConfig::new(4), &run);
    assert_eq!(m1.w, m2.w);
    assert_eq!(m1.h, m2.h);
    assert_eq!(s1.progress.len(), s2.progress.len());
    for (a, b) in s1.progress.iter().zip(&s2.progress) {
        assert_eq!(a.metric, b.metric);
        assert_eq!(a.time, b.time);
    }
}

/// The real-thread engine agrees bitwise with the simulated engine over
/// multiple consecutive passes.
#[test]
fn threaded_engine_matches_simulated_across_passes() {
    let d = data();
    let cluster = ClusterSpec::new(2, 3);
    let passes = 3;
    let run = MfRunConfig {
        cluster: cluster.clone(),
        passes,
        ordered: false,
    };
    let (sim_model, sim_stats) = train_orion(&d, MfConfig::new(4), &run);

    // One pool thread per worker of the oracle's cluster: the same
    // 6-worker schedule, whatever the machine topology.
    let (thr_model, thr_stats) =
        train_threaded(&d, MfConfig::new(4), cluster.n_workers(), passes, false);
    assert_eq!(sim_model.w, thr_model.w);
    assert_eq!(sim_model.h, thr_model.h);
    let bits = |stats: &orion::core::RunStats| -> Vec<u64> {
        stats.progress.iter().map(|p| p.metric.to_bits()).collect()
    };
    assert_eq!(bits(&sim_stats), bits(&thr_stats), "one point per pass");
}

/// More workers must not change the unordered-parallel result's loss
/// beyond reordering noise, but must shorten virtual time.
#[test]
fn scaling_workers_shortens_time_not_convergence() {
    let d = RatingsData::generate(RatingsConfig {
        n_users: 300,
        n_items: 240,
        nnz: 20_000,
        true_rank: 6,
        skew: 0.6,
        noise: 0.1,
        seed: 2,
    });
    let passes = 4;
    let run_of = |machines: usize, wpm: usize| MfRunConfig {
        cluster: ClusterSpec::new(machines, wpm),
        passes,
        ordered: false,
    };
    let (_, small) = train_orion(&d, MfConfig::new(16), &run_of(1, 2));
    let (_, large) = train_orion(&d, MfConfig::new(16), &run_of(8, 4));
    let t_small = small.progress.last().unwrap().time;
    let t_large = large.progress.last().unwrap().time;
    assert!(
        t_large.as_secs_f64() < t_small.as_secs_f64() / 2.0,
        "32 workers ({t_large}) should be much faster than 2 ({t_small})"
    );
    let l_small = small.final_metric().unwrap();
    let l_large = large.final_metric().unwrap();
    assert!(
        (l_small - l_large).abs() / l_small < 0.2,
        "convergence must not depend on worker count: {l_small} vs {l_large}"
    );
}

/// Orion communicates; serial does not.
#[test]
fn communication_accounting_is_plausible() {
    let d = data();
    let (_, serial) = train_serial(&d, MfConfig::new(4), 2);
    assert_eq!(serial.total_bytes, 0, "serial run crosses no machines");
    let run = MfRunConfig {
        cluster: ClusterSpec::new(4, 2),
        passes: 2,
        ordered: false,
    };
    let (_, par) = train_orion(&d, MfConfig::new(4), &run);
    assert!(par.total_bytes > 0);
    assert!(par.n_messages > 0);
}

/// The full Fig. 9b shape on one dataset: serial ≈ Orion ≪ data-parallel
/// per pass, and AdaRev narrows the data-parallel gap.
#[test]
fn fig9b_shape_holds() {
    let d = RatingsData::generate(RatingsConfig {
        n_users: 400,
        n_items: 320,
        nnz: 30_000,
        true_rank: 8,
        skew: 0.7,
        noise: 0.1,
        seed: 5,
    });
    let passes = 8;
    let cfg = MfConfig::new(16);
    let (_, serial) = train_serial(&d, cfg.clone(), passes);
    let run = MfRunConfig {
        cluster: ClusterSpec::new(8, 4),
        passes,
        ordered: false,
    };
    let (_, orion_stats) = train_orion(&d, cfg.clone(), &run);

    let mut dp = PsEngine::new(
        MfPsAdapter::new(&d, cfg.clone()),
        PsConfig::vanilla(ClusterSpec::new(8, 4), 0.02),
    );
    let mut ada_cfg = PsConfig::vanilla(ClusterSpec::new(8, 4), 0.1);
    ada_cfg.adaptive_revision = true;
    let mut ada = PsEngine::new(MfPsAdapter::new(&d, cfg), ada_cfg);
    for _ in 0..passes {
        dp.run_pass();
        ada.run_pass();
    }
    let l_serial = serial.final_metric().unwrap();
    let l_orion = orion_stats.final_metric().unwrap();
    let l_dp = dp.finish().final_metric().unwrap();
    let l_ada = ada.finish().final_metric().unwrap();

    assert!(
        (l_serial - l_orion).abs() / l_serial < 0.1,
        "Orion ({l_orion}) must match serial ({l_serial})"
    );
    assert!(
        l_dp > l_orion * 1.3,
        "data parallelism ({l_dp}) must lag Orion ({l_orion})"
    );
    assert!(
        l_ada < l_dp,
        "AdaRev ({l_ada}) must improve on vanilla data parallelism ({l_dp})"
    );
}

/// The runs above are sanitized: validation defaults on in test builds,
/// so every pass's recorded time slots were checked against the
/// dependence oracle. This assertion keeps that guarantee from silently
/// rotting if the default ever changes.
#[test]
fn e2e_runs_execute_under_the_schedule_sanitizer() {
    assert!(
        Driver::validate_by_default(),
        "test builds must run the schedule sanitizer (see Driver::set_validate)"
    );
    let mut driver = Driver::new(ClusterSpec::new(2, 2));
    assert!(driver.validating());
    driver.set_validate(false);
    assert!(!driver.validating(), "opt-out must stick");
}
