//! Pins for planning: every schedule the apps and the public builders
//! compile, hashed field by field — block positions and extents, the
//! step plan with its awaited transfers, and both range partitions —
//! against values captured before the block table was built by a
//! counting sort. A changed hash means the planner groups, orders or
//! cuts differently; never update one to make a run pass.

use orion::apps::gbt::{GbtApp, GbtConfig};
use orion::apps::lda::{LdaApp, LdaConfig};
use orion::apps::run::App;
use orion::apps::sgd_mf::{MfApp, MfConfig};
use orion::apps::slr::{SlrApp, SlrConfig};
use orion::apps::tensor_cp::{CpApp, CpConfig};
use orion::core::{ClusterSpec, DistArray, Driver, LoopSpec, Strategy, Subscript, TuneConfig};
use orion::data::{
    CorpusConfig, CorpusData, RatingsConfig, RatingsData, SparseConfig, SparseData, TabularConfig,
    TabularData, TensorConfig, TensorData,
};
use orion::dsm::RangePartition;
use orion::ir::DistArrayId;
use orion::runtime::{build_schedule, build_schedule_with, Schedule, ScheduleOptions, SyncMode};

/// FNV-1a over the little-endian bytes of a word sequence.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn partition(&mut self, part: Option<&RangePartition>) {
        let Some(part) = part else {
            return self.eat(u64::MAX);
        };
        self.eat(part.dim as u64);
        self.eat(part.ranges.len() as u64);
        for r in &part.ranges {
            self.eat(r.start);
            self.eat(r.end);
        }
    }
}

/// The hash of everything a schedule plans.
fn plan_hash(s: &Schedule) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.eat(s.n_workers as u64);
    h.eat(s.n_time_partitions as u64);
    h.eat(match s.sync {
        SyncMode::PassBarrier => 0,
        SyncMode::StepBarrier => 1,
        SyncMode::PointToPoint => 2,
    });
    let mut offset = 0;
    for block in s.blocks.iter() {
        h.eat(offset);
        offset += block.len() as u64;
        block.iter().for_each(|&p| h.eat(u64::from(p)));
    }
    h.eat(offset);
    for step in &s.steps {
        h.eat(step.len() as u64);
        for e in step {
            h.eat(e.step);
            h.eat(e.worker as u64);
            h.eat(e.block as u64);
            match e.awaited {
                None => h.eat(u64::MAX),
                Some(a) => {
                    h.eat(a.from_worker as u64);
                    h.eat(a.sent_after_step);
                    h.eat(a.time_partition as u64);
                }
            }
        }
    }
    h.partition(s.space_partition.as_ref());
    h.partition(s.time_partition.as_ref());
    h.0
}

/// The plan hash of `app`'s setup on one machine of `workers` workers.
fn setup_hash<A: App>(app: &A, data: &A::Data, workers: usize) -> u64 {
    let mut driver = Driver::new(ClusterSpec::new(1, workers));
    plan_hash(&app.setup(data, &mut driver).0.schedule)
}

/// The plan hash of `app`'s tuned setup on 2 × 2 workers.
fn tuned_hash<A: App>(app: &A, data: &A::Data) -> u64 {
    let mut driver = Driver::new(ClusterSpec::new(2, 2));
    let (compiled, job) = app.setup(data, &mut driver);
    let (tuned, _) = app
        .tune(&job, &mut driver, &compiled, &TuneConfig::default())
        .expect("the app tunes");
    plan_hash(&tuned.schedule)
}

#[test]
fn app_setup_plans_are_pinned() {
    let ratings = RatingsData::generate(RatingsConfig::tiny());
    let corpus = CorpusData::generate(CorpusConfig::tiny());
    let tensor = TensorData::generate(TensorConfig::tiny());
    let tabular = TabularData::generate(TabularConfig::tiny());
    let sparse = SparseData::generate(SparseConfig::tiny());
    let slr = SlrApp {
        cfg: SlrConfig::new(),
        prefetch_override: None,
    };
    let gbt = GbtApp {
        cfg: GbtConfig::new(3),
    };
    let hashes = [1, 2, 4].map(|w| {
        [
            setup_hash(&MfApp::new(MfConfig::new(4), false), &ratings, w),
            setup_hash(&MfApp::new(MfConfig::new(4), true), &ratings, w),
            setup_hash(&lda(false), &corpus, w),
            setup_hash(&lda(true), &corpus, w),
            setup_hash(&cp(false), &tensor, w),
            setup_hash(&cp(true), &tensor, w),
            setup_hash(&gbt, &tabular, w),
            setup_hash(&slr, &sparse, w),
        ]
    });
    assert_eq!(
        hashes,
        [
            [
                5_315_532_713_024_039_638,
                16_989_850_580_770_805_441,
                4_104_397_108_270_149_891,
                15_939_577_880_267_038_757,
                11_783_351_533_386_424_591,
                2_311_822_395_305_371_546,
                6_992_774_746_068_908_197,
                1_089_667_272_517_377_829
            ],
            [
                11_247_483_584_508_176_606,
                13_983_738_988_095_713_419,
                7_569_643_044_157_153_068,
                8_567_244_195_004_096_783,
                11_783_351_533_386_424_591,
                18_018_942_857_168_422_617,
                2_219_522_296_225_982_538,
                14_077_088_082_053_298_602
            ],
            [
                17_343_924_290_926_752_155,
                17_028_314_023_786_084_557,
                17_666_680_478_331_676_045,
                16_546_075_328_695_461_486,
                11_783_351_533_386_424_591,
                6_792_456_523_561_115_886,
                10_718_462_832_622_404_504,
                3_086_340_656_502_234_840
            ],
        ]
    );
}

fn lda(ordered: bool) -> LdaApp {
    LdaApp {
        cfg: LdaConfig::new(4),
        ordered,
    }
}

fn cp(buffer_s: bool) -> CpApp {
    CpApp {
        cfg: CpConfig::new(4),
        buffer_s,
    }
}

#[test]
fn tuned_plans_are_pinned() {
    let ratings = RatingsData::generate(RatingsConfig::tiny());
    let sparse = SparseData::generate(SparseConfig::tiny());
    let slr = SlrApp {
        cfg: SlrConfig::new(),
        prefetch_override: None,
    };
    let hashes = [
        tuned_hash(&MfApp::new(MfConfig::new(4), false), &ratings),
        tuned_hash(&slr, &sparse),
    ];
    assert_eq!(
        hashes,
        [11_247_483_584_508_176_606, 14_077_088_082_053_298_602]
    );
}

/// The skewed Gauss–Seidel sweep of `stencil_unimodular`: its
/// dependence vectors `{(1,-1), (0,1)}` need a unimodular wavefront.
fn stencil_spec(z: DistArrayId, a: DistArrayId, n: u64) -> LoopSpec {
    LoopSpec::builder("skewed_stencil", z, vec![n, n])
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
        .unwrap()
}

#[test]
fn unimodular_stencil_plan_is_pinned() {
    let n = 24;
    let hashes = [(2, 2), (1, 3)].map(|(machines, workers)| {
        let iter_space: DistArray<f32> = DistArray::dense("grid", vec![n, n]);
        let field: DistArray<f32> = DistArray::dense("field", vec![n, n]);
        let mut driver = Driver::new(ClusterSpec::new(machines, workers));
        let z = driver.register(&iter_space);
        let a = driver.register(&field);
        let items: Vec<(Vec<i64>, f32)> = iter_space.iter().map(|(i, &v)| (i, v)).collect();
        let compiled = driver.parallel_for(stencil_spec(z, a, n), &items).unwrap();
        assert!(matches!(
            compiled.strategy(),
            Strategy::TwoDUnimodular { .. }
        ));
        plan_hash(&compiled.schedule)
    });
    assert_eq!(
        hashes,
        [4_670_318_721_090_467_364, 4_102_453_593_957_708_910]
    );
}

/// `build_schedule` over borrowed index slices, as the benchmark
/// harness calls it, for every strategy kind and both options.
#[test]
fn borrowed_index_plans_are_pinned() {
    let data = RatingsData::generate(RatingsConfig::tiny());
    let items = data.items();
    let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
    let dims = data.ratings.shape().dims().to_vec();
    let grid = |ordered| Strategy::TwoD {
        space: 0,
        time: 1,
        ordered,
    };
    let strategies = [
        Strategy::OneD { dim: 0 },
        Strategy::FullyParallel { dim: 1 },
        grid(false),
        grid(true),
        Strategy::TwoD {
            space: 1,
            time: 0,
            ordered: false,
        },
        Strategy::TwoDUnimodular {
            transform: orion::analysis::UniMat::skew(2, 0, 1, 1),
            space: 1,
            time: 0,
        },
        Strategy::Serial,
    ];
    let mut hashes = Vec::new();
    for workers in [1, 3, 4] {
        for strategy in &strategies {
            hashes.push(plan_hash(&build_schedule(
                strategy, &indices, &dims, workers,
            )));
        }
    }
    let uniform = ScheduleOptions {
        balance_partitions: false,
        ..Default::default()
    };
    let shallow = ScheduleOptions {
        pipeline_depth: 1,
        ..Default::default()
    };
    for opts in [uniform, shallow] {
        for strategy in &strategies[..4] {
            hashes.push(plan_hash(&build_schedule_with(
                strategy, &indices, &dims, 4, opts,
            )));
        }
    }
    assert_eq!(
        hashes,
        [
            12_320_696_034_156_810_707,
            15_335_673_990_776_343_206,
            5_315_532_713_024_039_638,
            16_989_850_580_770_805_441,
            3_353_091_914_023_699_894,
            14_765_190_650_164_735_189,
            7_119_665_359_041_152_918,
            17_854_864_489_882_097_617,
            8_406_734_559_504_451_519,
            12_214_857_637_479_548_108,
            15_836_858_205_630_603_135,
            4_572_542_471_016_715_325,
            5_812_108_113_137_997_242,
            7_119_665_359_041_152_918,
            3_494_845_436_094_326_293,
            686_744_291_168_520_414,
            17_343_924_290_926_752_155,
            17_028_314_023_786_084_557,
            2_509_571_068_837_242_267,
            4_227_333_805_280_323_476,
            7_119_665_359_041_152_918,
            6_304_530_976_612_970_545,
            7_386_398_383_391_779_946,
            15_506_203_518_455_870_100,
            14_515_321_855_752_310_857,
            3_494_845_436_094_326_293,
            686_744_291_168_520_414,
            2_436_709_328_815_469_613,
            17_028_314_023_786_084_557,
        ]
    );
}
