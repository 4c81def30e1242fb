//! The differential matrix over `run(app, data, &RunConfig)`: for all
//! five apps × {`Sim(1×k)`, `Threads(k)`} for k ∈ {1, 2, 3} × trace
//! on/off — plus `tune` and `chaos` on `Sim` where the app supports
//! them — the model bits and every recorded metric's bits equal the
//! plain `Sim` run on the matching cluster, and every combination that
//! means nothing — adaptive steps off the plain `Sim` run included —
//! returns the typed error instead of running.
//!
//! Debug test builds validate by default (asserted below), so the O100
//! sanitizer and the happens-before checker run on every cell.

use orion::apps::chaos::ChaosConfig;
use orion::apps::distributed::DistOptions;
use orion::apps::gbt::{GbtApp, GbtConfig, GbtModel};
use orion::apps::lda::{LdaApp, LdaConfig, LdaModel};
use orion::apps::run::{run, App, Engine, RunConfig, RunError, RunOutput};
use orion::apps::sgd_mf::{MfApp, MfConfig, MfModel};
use orion::apps::slr::{SlrApp, SlrConfig, SlrModel};
use orion::apps::tensor_cp::{CpApp, CpConfig, CpModel};
use orion::core::{clean_checkpoints, ClusterSpec, Driver, FaultPlan, TuneConfig, VirtualTime};
use orion::data::{
    CorpusConfig, CorpusData, RatingsConfig, RatingsData, SparseConfig, SparseData, TabularConfig,
    TabularData, TensorConfig, TensorData,
};
use orion::dsm::DistArray;

/// What an app supports beyond plain and traced `Sim`/`Threads` runs.
#[derive(Clone, Copy)]
struct Caps {
    /// `tune` and `chaos` on `Sim`, and the `Net` engine.
    full: bool,
    /// Arrays a chaos run checkpoints.
    arrays: &'static [&'static str],
}

fn f32_bits(a: &DistArray<f32>) -> Vec<u64> {
    let bits = a.dense_values().iter();
    bits.map(|x| u64::from(x.to_bits())).collect()
}

fn u32_vals(a: &DistArray<u32>) -> Vec<u64> {
    a.dense_values().iter().map(|&x| u64::from(x)).collect()
}

/// The model's bits plus every recorded metric's bits.
fn bits<M>(out: &RunOutput<M>, model_bits: &dyn Fn(&M) -> Vec<u64>) -> (Vec<u64>, Vec<u64>) {
    let curve = out.stats.progress.iter().map(|p| p.metric.to_bits());
    (model_bits(&out.model), curve.collect())
}

fn cfg(engine: Engine, passes: u64, trace: bool) -> RunConfig {
    let mut cfg = RunConfig::new(engine, passes);
    cfg.trace = trace;
    cfg
}

fn assert_unsupported<M>(got: Result<RunOutput<M>, RunError>, engine: &str, option: &str) {
    match got {
        Err(RunError::Unsupported {
            engine: e,
            option: o,
            ..
        }) => assert_eq!((e, o), (engine, option)),
        Err(other) => panic!("expected Unsupported({engine}, {option}), got {other}"),
        Ok(_) => panic!("{option} on {engine} must be rejected, not silently ignored"),
    }
}

/// One app's column of the matrix.
fn check<A: App>(
    app: &A,
    data: &A::Data,
    passes: u64,
    caps: Caps,
    model_bits: &dyn Fn(&A::Model) -> Vec<u64>,
) {
    assert!(Driver::validate_by_default() || !cfg!(debug_assertions));
    let go = |cfg: &RunConfig| run(app, data, cfg);
    // Columns run concurrently: one scratch directory each.
    let scratch = format!("orion_matrix_{}_{}", A::NAME, std::process::id());
    let dir = std::env::temp_dir().join(scratch);
    for k in 1..=3usize {
        let sim = || Engine::Sim(ClusterSpec::new(1, k));
        let case = |what: &str| format!("{} k={k} {what}", A::NAME);
        let oracle_run = go(&cfg(sim(), passes, false)).expect("plain Sim runs");
        let oracle = bits(&oracle_run, model_bits);
        assert_eq!(
            oracle.1.len(),
            passes as usize,
            "{}",
            case("one point per pass")
        );

        for trace in [false, true] {
            for (engine, name) in [(sim(), "sim"), (Engine::Threads(k), "threads")] {
                let out = go(&cfg(engine, passes, trace)).expect("plain and traced runs");
                assert_eq!(bits(&out, model_bits), oracle, "{}", case(name));
                assert_eq!(out.trace.is_some(), trace, "{}", case(name));
                let spans = out.trace.map_or(0, |t| t.session.spans.len());
                assert_eq!(spans > 0, trace, "{}", case(name));
            }
        }

        // Options a pool of threads cannot honor are rejected, not ignored.
        let tag = format!("{}_{k}", A::NAME);
        let wall = oracle_run.stats.progress.last().unwrap().time;
        let crash = FaultPlan::new(42).crash(
            0,
            VirtualTime::from_nanos(wall.as_nanos() / 2),
            VirtualTime::from_millis(250),
        );
        let chaos = ChaosConfig::new(crash, 2, &dir, &tag);
        let with = |engine: Engine, tune: bool, with_chaos: bool, trace: bool| {
            let mut c = cfg(engine, passes, trace);
            c.tune = tune.then(TuneConfig::default);
            c.chaos = with_chaos.then(|| chaos.clone());
            c
        };
        assert_unsupported(
            go(&with(Engine::Threads(k), true, false, false)),
            "threads",
            "tune",
        );
        assert_unsupported(
            go(&with(Engine::Threads(k), false, true, false)),
            "threads",
            "chaos",
        );
        let net = || Engine::Net(DistOptions::new(k, passes, &dir));
        assert_unsupported(go(&with(net(), true, false, false)), "net", "tune");
        assert_unsupported(go(&with(net(), false, true, false)), "net", "chaos");
        assert_unsupported(go(&with(net(), false, false, true)), "net", "trace");

        if !caps.full {
            assert_unsupported(go(&with(sim(), true, false, false)), "sim", "tune");
            assert_unsupported(go(&with(sim(), false, true, false)), "sim", "chaos");
            assert_unsupported(go(&with(net(), false, false, false)), "net", "run");
            continue;
        }

        // Chaos equals fault-free, traced or not.
        for trace in [false, true] {
            let out = go(&with(sim(), false, true, trace)).expect("chaos on Sim");
            assert_eq!(bits(&out, model_bits), oracle, "{}", case("chaos"));
            let report = out.chaos.expect("a chaos run reports");
            assert_eq!(report.crashes_recovered, 1, "{}", case("the crash fires"));
            assert_eq!(out.trace.is_some(), trace);
            clean_checkpoints(&chaos.policy(), caps.arrays);
        }

        // A tuned run is deterministic per plan, tracing never changes
        // it, and a kept static plan is the oracle's.
        let tuned = go(&with(sim(), true, false, false)).expect("tune on Sim");
        let traced = go(&with(sim(), true, false, true)).expect("tune + trace on Sim");
        assert_eq!(
            bits(&tuned, model_bits),
            bits(&traced, model_bits),
            "{}",
            case("tune")
        );
        assert_eq!(tuned.tune, traced.tune, "{}", case("tune"));
        let outcome = tuned.tune.as_ref().expect("a tuned run reports");
        assert!(outcome.chosen.measured_ns <= outcome.baseline.measured_ns);
        if !outcome.replanned {
            assert_eq!(
                bits(&tuned, model_bits),
                oracle,
                "{}",
                case("static plan kept")
            );
        }
        // All three options compose.
        let all = go(&with(sim(), true, true, true)).expect("tune + chaos + trace on Sim");
        assert_eq!(
            bits(&all, model_bits),
            bits(&tuned, model_bits),
            "{}",
            case("all options")
        );
        clean_checkpoints(&chaos.policy(), caps.arrays);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Adaptive steps keep accumulators that are neither partitioned nor
/// checkpointed: each `Threads` / `Net` / `Sim` + chaos cell that would
/// need them is the typed error, returned before any directory (let
/// alone a process) exists.
fn check_adaptive<A: App>(app: &A, data: &A::Data, engines: &[&str]) {
    let scratch = format!("orion_matrix_adaptive_{}_{}", A::NAME, std::process::id());
    let dir = std::env::temp_dir().join(scratch);
    for &engine in engines {
        let cfg = match engine {
            "threads" => RunConfig::new(Engine::Threads(2), 2),
            "net" => RunConfig::new(Engine::Net(DistOptions::new(2, 2, &dir)), 2),
            _ => {
                let mut cfg = RunConfig::new(Engine::Sim(ClusterSpec::new(1, 2)), 2);
                cfg.chaos = Some(ChaosConfig::new(FaultPlan::new(42), 1, &dir, "adaptive"));
                cfg
            }
        };
        assert_unsupported(run(app, data, &cfg), engine, "adaptive");
        assert!(
            !dir.exists(),
            "{engine}: rejected before anything is created"
        );
    }
}

#[test]
fn sgd_mf_column() {
    let data = RatingsData::generate(RatingsConfig::tiny());
    let caps = Caps {
        full: true,
        arrays: &["W", "H"],
    };
    let model_bits = |m: &MfModel| [f32_bits(&m.w), f32_bits(&m.h)].concat();
    for ordered in [false, true] {
        check(
            &MfApp::new(MfConfig::new(4), ordered),
            &data,
            3,
            caps,
            &model_bits,
        );
    }
    let mut adaptive = MfConfig::new(4);
    adaptive.adaptive = true;
    let app = MfApp::new(adaptive, false);
    check_adaptive(&app, &data, &["threads", "net", "sim"]);
}

#[test]
fn slr_column() {
    let data = SparseData::generate(SparseConfig::tiny());
    let app = SlrApp {
        cfg: SlrConfig::new(),
        prefetch_override: None,
    };
    let caps = Caps {
        full: true,
        arrays: &["weights"],
    };
    check(&app, &data, 3, caps, &|m: &SlrModel| f32_bits(&m.weights));
    let mut adaptive = app;
    adaptive.cfg.adaptive = true;
    check_adaptive(&adaptive, &data, &["net", "sim"]);
}

const PLAIN: Caps = Caps {
    full: false,
    arrays: &[],
};

#[test]
fn lda_column() {
    let corpus = CorpusData::generate(CorpusConfig::tiny());
    let model_bits = |m: &LdaModel| {
        let ts = m.ts.iter().map(|&t| t as u64).collect();
        let z = m.z.iter().flatten().map(|&t| u64::from(t)).collect();
        [u32_vals(&m.dt), u32_vals(&m.wt), ts, z].concat()
    };
    for ordered in [false, true] {
        let cfg = LdaConfig::new(4);
        check(&LdaApp { cfg, ordered }, &corpus, 2, PLAIN, &model_bits);
    }
}

#[test]
fn tensor_cp_column() {
    let data = TensorData::generate(TensorConfig::tiny());
    let app = CpApp {
        cfg: CpConfig::new(4),
        buffer_s: true,
    };
    let model_bits = |m: &CpModel| [f32_bits(&m.u), f32_bits(&m.v), f32_bits(&m.s)].concat();
    check(&app, &data, 3, PLAIN, &model_bits);

    // The unbuffered loop is serial: it has no partition form.
    let serial = CpApp {
        buffer_s: false,
        ..app
    };
    let threads = RunConfig::new(Engine::Threads(2), 1);
    assert_unsupported(run(&serial, &data, &threads), "threads", "buffer_s: false");
}

#[test]
fn gbt_column() {
    let data = TabularData::generate(TabularConfig::tiny());
    let app = GbtApp {
        cfg: GbtConfig::new(3),
    };
    // The ensemble's structure and leaf values, via its predictions.
    let model_bits = |m: &GbtModel| {
        let rows = data.features.chunks_exact(data.config.n_features);
        let mut bits: Vec<u64> = rows.map(|x| u64::from(m.predict(x).to_bits())).collect();
        bits.push(m.trees.len() as u64);
        bits
    };
    check(&app, &data, 3, PLAIN, &model_bits);
}
