//! Pins the simulated engine's virtual timeline, not just its model
//! bits: every pass's virtual start/end and iteration count, the
//! network's byte and message totals, and every traced span and wire
//! transfer in record order, hashed with FNV-1a.
//!
//! `setup_pins` and `run_matrix` pin what a run computes; these pins
//! pin *when* the simulator says it happened — rotation arrivals under
//! NIC contention, served prefetch round trips (first-pass and per-pass
//! cache flags included), straggler slowdowns, link faults, crash
//! detection and recovery, and the wavefront's step barriers. A changed
//! hash means the sim charges different costs, in a different order or
//! over a different link model. The values were captured before the
//! simulator stepped the same walker the thread pool runs; they hold in
//! debug and release builds alike.

use orion::apps::chaos::ChaosConfig;
use orion::apps::gbt::{GbtApp, GbtConfig};
use orion::apps::lda::{LdaApp, LdaConfig};
use orion::apps::run::{run, App, Engine, RunConfig, RunOutput};
use orion::apps::sgd_mf::{MfApp, MfConfig};
use orion::apps::slr::{SlrApp, SlrConfig};
use orion::apps::tensor_cp::{CpApp, CpConfig};
use orion::core::{
    clean_checkpoints, ClusterSpec, DistArray, Driver, FaultPlan, LoopSpec, PassStats, Strategy,
    Subscript,
};
use orion::data::{
    CorpusConfig, CorpusData, RatingsConfig, RatingsData, SparseConfig, SparseData, TabularConfig,
    TabularData, TensorConfig, TensorData,
};
use orion::runtime::{
    build_schedule, AwaitedTransfer, Exec, LoopCommModel, PrefetchMode, SimExecutor, ThreadedPlan,
};
use orion::trace::{OwnedSession, Span, SpanCat};

/// FNV-1a over little-endian `u64` words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(&mut self, words: impl IntoIterator<Item = u64>) {
        for b in words.into_iter().flat_map(u64::to_le_bytes) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn pass(&mut self, stats: &PassStats) {
        self.eat([
            stats.start.as_nanos(),
            stats.end.as_nanos(),
            stats.iterations,
        ]);
    }

    /// Every span's fields, in record order.
    fn spans(&mut self, spans: &[Span]) {
        for s in spans {
            self.eat([
                s.cat as u64,
                u64::from(s.machine),
                u64::from(s.worker),
                s.start_ns,
                s.end_ns,
                s.bytes,
                s.aux,
            ]);
        }
    }

    /// Every span's fields, then every transfer's, in record order.
    fn session(&mut self, session: &OwnedSession) {
        self.spans(&session.spans);
        for t in &session.transfers {
            self.eat([
                u64::from(t.src_machine),
                u64::from(t.dst_machine),
                t.bytes,
                t.depart_ns,
                t.arrive_ns,
            ]);
        }
    }
}

/// A traced `Sim` run's timeline: each pass's virtual end time and
/// metric bits, the network totals, and the trace.
fn timeline<M>(out: &RunOutput<M>) -> u64 {
    let mut h = Fnv::new();
    for p in &out.stats.progress {
        h.eat([p.iteration, p.time.as_nanos(), p.metric.to_bits()]);
    }
    h.eat([out.stats.total_bytes, out.stats.n_messages]);
    h.session(&out.trace.as_ref().expect("a traced run").session);
    h.0
}

fn traced<A: App>(app: &A, data: &A::Data, cluster: ClusterSpec, passes: u64) -> u64 {
    let mut cfg = RunConfig::new(Engine::Sim(cluster), passes);
    cfg.trace = true;
    timeline(&run(app, data, &cfg).expect("a traced Sim run"))
}

fn slr(prefetch_override: Option<PrefetchMode>) -> SlrApp {
    SlrApp {
        cfg: SlrConfig::new(),
        prefetch_override,
    }
}

#[test]
fn every_app_on_a_two_by_two_cluster() {
    let grid = || ClusterSpec::new(2, 2);
    let ratings = RatingsData::generate(RatingsConfig::tiny());
    let mf = MfApp::new(MfConfig::new(4), false);
    let sparse = SparseData::generate(SparseConfig::tiny());
    let corpus = CorpusData::generate(CorpusConfig::tiny());
    let lda = LdaApp {
        cfg: LdaConfig::new(4),
        ordered: false,
    };
    let tensor = TensorData::generate(TensorConfig::tiny());
    let cp = CpApp {
        cfg: CpConfig::new(4),
        buffer_s: true,
    };
    let tabular = TabularData::generate(TabularConfig::tiny());
    let gbt = GbtApp {
        cfg: GbtConfig::new(3),
    };
    assert_eq!(
        [
            traced(&mf, &ratings, grid(), 3),
            traced(&slr(None), &sparse, grid(), 3),
            traced(&lda, &corpus, grid(), 2),
            traced(&cp, &tensor, grid(), 3),
            traced(&gbt, &tabular, grid(), 3),
        ],
        [
            17_660_256_280_552_850_093,
            395_879_801_782_072_890,
            7_234_935_856_464_233_186,
            10_174_752_994_189_425_892,
            10_821_585_386_505_777_117,
        ]
    );
}

#[test]
fn ordered_mf_on_four_machines() {
    let ratings = RatingsData::generate(RatingsConfig::tiny());
    let mf = MfApp::new(MfConfig::new(4), true);
    assert_eq!(
        traced(&mf, &ratings, ClusterSpec::new(4, 1), 3),
        4_693_092_468_275_825_515
    );
}

/// Two passes of every served-weight regime: the first pass pays the
/// recording pass, the cached regime skips it on the second.
#[test]
fn slr_served_weights_over_two_passes() {
    let sparse = SparseData::generate(SparseConfig::tiny());
    let modes = [
        PrefetchMode::Disabled,
        PrefetchMode::Static,
        PrefetchMode::Recorded,
        PrefetchMode::CachedRecorded,
    ];
    let got = modes.map(|m| traced(&slr(Some(m)), &sparse, ClusterSpec::new(2, 2), 2));
    assert_eq!(
        got,
        [
            7_052_411_708_357_953_149,
            15_646_836_165_086_917_213,
            17_157_980_255_119_819_306,
            2_590_492_245_793_809_912,
        ]
    );
}

#[test]
fn mf_under_a_straggler_a_link_fault_and_a_crash() {
    let ratings = RatingsData::generate(RatingsConfig::tiny());
    let mf = MfApp::new(MfConfig::new(4), false);
    let dir = std::env::temp_dir().join(format!("orion_sim_timeline_{}", std::process::id()));
    let plan = FaultPlan::parse(
        "seed 7\n\
         straggler worker=1 slowdown=2.5\n\
         degrade src=0 dst=1 from_ms=0 until_ms=1000 factor=0.25\n\
         partition src=1 dst=0 from_ms=0 until_ms=0.05\n\
         crash machine=1 at_ms=0.2 restart_ms=1\n",
    )
    .expect("a valid plan");
    let chaos = ChaosConfig::new(plan, 1, &dir, "timeline");
    let mut cfg = RunConfig::new(Engine::Sim(ClusterSpec::new(2, 2)), 3);
    cfg.trace = true;
    cfg.chaos = Some(chaos.clone());
    let out = run(&mf, &ratings, &cfg).expect("chaos on Sim");
    clean_checkpoints(&chaos.policy(), &["W", "H"]);
    assert_eq!(out.chaos.expect("a chaos run").crashes_recovered, 1);
    assert_eq!(timeline(&out), 11_186_183_373_984_232_085);
}

const N: i64 = 12;

/// The skewed stencil of `tests/stencil_unimodular.rs`: a wavefront
/// with a barrier after every step.
#[test]
fn skewed_stencil_wavefront_on_eight_workers() {
    let iter_space: DistArray<f32> = DistArray::dense("grid", vec![N as u64, N as u64]);
    let mut field: DistArray<f32> =
        DistArray::dense_from_fn("field", vec![N as u64, N as u64], |i| {
            ((i[0] * 31 + i[1] * 17) % 97) as f32 / 97.0
        });
    let mut driver = Driver::new(ClusterSpec::new(4, 2));
    driver.enable_tracing(1 << 12);
    let z = driver.register(&iter_space);
    let a = driver.register(&field);
    let spec = LoopSpec::builder("skewed_stencil", z, vec![N as u64, N as u64])
        .read(
            a,
            vec![
                Subscript::loop_index(0).shifted(-1),
                Subscript::loop_index(1).shifted(1),
            ],
        )
        .read(
            a,
            vec![
                Subscript::loop_index(0),
                Subscript::loop_index(1).shifted(-1),
            ],
        )
        .write(a, vec![Subscript::loop_index(0), Subscript::loop_index(1)])
        .ordered()
        .build()
        .unwrap();
    let items: Vec<[i64; 2]> = (0..N).flat_map(|i| (0..N).map(move |j| [i, j])).collect();
    let compiled = driver.parallel_for(spec, &items).unwrap();
    assert!(matches!(
        compiled.strategy(),
        Strategy::TwoDUnimodular { .. }
    ));
    let mut h = Fnv::new();
    for _ in 0..2 {
        let (stats, fault) =
            driver.run_pass(&compiled, &mut |pos| 50.0 + pos as f64, &mut |_, pos| {
                let [i, j] = items[pos];
                let up_right = field.get(&[i - 1, j + 1]).copied().unwrap_or(0.0);
                let left = field.get(&[i, j - 1]).copied().unwrap_or(0.0);
                field.set(&[i, j], 0.4 * up_right + 0.4 * left + 0.1);
            });
        assert!(fault.is_none());
        h.pass(&stats);
    }
    let session = driver.trace_session("stencil");
    let stats = driver.finish();
    h.eat([stats.total_bytes, stats.n_messages]);
    h.session(&session);
    h.eat(field.dense_values().iter().map(|x| u64::from(x.to_bits())));
    assert_eq!(h.0, 656_590_169_739_969_317);
}

/// A hand-built single-owner ring (no schedule builder emits one): one
/// worker runs each of its two time partitions twice, the second time
/// receiving it from itself. The compiled plan turns the self-edge into
/// a local re-enqueue, and the simulator still charges its marshalling
/// and delivery: the re-enqueued token carries its stamp.
#[test]
fn a_self_edge_keeps_its_marshalling_charge() {
    let strategy = Strategy::TwoD {
        space: 0,
        time: 1,
        ordered: false,
    };
    let mut schedule = build_schedule(&strategy, &[[0i64, 0], [0, 1]], &[1, 2], 1);
    let exec = |step: u64, tp: usize, sent_after_step: Option<u64>| {
        let awaited = sent_after_step.map(|sent_after_step| AwaitedTransfer {
            from_worker: 0,
            sent_after_step,
            time_partition: tp,
        });
        vec![Exec {
            step,
            worker: 0,
            block: tp,
            awaited,
        }]
    };
    schedule.steps = vec![
        exec(0, 0, None),
        exec(1, 1, None),
        exec(2, 0, Some(0)),
        exec(3, 1, Some(1)),
    ];
    let plan = ThreadedPlan::compile(&schedule);
    let mut ex = SimExecutor::new(ClusterSpec::new(1, 1));
    ex.trace.enable(64);
    let comm = LoopCommModel {
        rotated_bytes: 8_000,
        served: None,
    };
    let mut h = Fnv::new();
    for _ in 0..2 {
        h.pass(&ex.run_pass(&plan, &comm, &mut |pos| 100.0 + pos as f64, &mut |_, _| {}));
    }
    h.eat([ex.net.total_bytes(), ex.net.n_messages() as u64]);
    h.spans(ex.trace.spans());
    let rotations = ex
        .trace
        .spans()
        .iter()
        .filter(|s| s.cat == SpanCat::Rotation);
    assert_eq!(rotations.count(), 4, "two self-edges a pass");
    assert_eq!(h.0, 13_328_279_313_531_548_629);
}
