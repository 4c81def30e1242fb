//! Pins for job setup: the generated datasets and the plans compiled
//! from them.
//!
//! - The three sparse generators draw the same entries as they always
//!   have: a hash of each dataset's `(flat, value bits)` sequence, in
//!   iteration order, captured before the generators froze their
//!   storage, at `tiny()` and one mid-size config.
//! - `Driver::parallel_for` reads only the loop index of each item, so
//!   MF compiled over bare `[i64; 2]` indices is the loop compiled over
//!   `(Vec<i64>, f32)` items — same strategy, blocks, steps and
//!   partitions — on tall and wide matrices, and every other app's
//!   setup, which compiles over the record table it builds, plans as
//!   its loop over `(Vec<i64>, T)` items does.
//! - Every app's trained bits and loss curve on `Sim` and `Threads`,
//!   and the parameter-server baselines' curves; SLR's buffered paths
//!   also with the adaptive apply UDF and on a skewed mid-size stream.

use orion::apps::gbt::{GbtApp, GbtConfig, GbtModel};
use orion::apps::lda::{LdaApp, LdaConfig, LdaModel, LdaPsAdapter};
use orion::apps::run::{run, App, Engine, RunConfig};
use orion::apps::sgd_mf::{MfApp, MfConfig, MfModel, MfPsAdapter};
use orion::apps::slr::{SlrApp, SlrConfig, SlrModel};
use orion::apps::tensor_cp::{CpApp, CpConfig, CpModel};
use orion::core::{ClusterSpec, CompiledLoop, Driver, LoopSpec, RunStats, Subscript};
use orion::data::{
    CorpusConfig, CorpusData, RatingsConfig, RatingsData, SparseConfig, SparseData, TabularConfig,
    TabularData, TensorConfig, TensorData,
};
use orion::dsm::{DistArray, Element};
use orion::ps::{PsApp, PsConfig, PsEngine};

/// FNV-1a over each element's flat offset and value bits, little
/// endian, in iteration order, then the element count.
fn entry_hash<T: Element>(array: &DistArray<T>, bits: impl Fn(&T) -> u32) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for (flat, v) in array.iter_flat() {
        eat(&flat.to_le_bytes());
        eat(&bits(v).to_le_bytes());
    }
    eat(&array.nnz().to_le_bytes());
    h
}

fn ratings_hash(config: RatingsConfig) -> u64 {
    entry_hash(&RatingsData::generate(config).ratings, |v| v.to_bits())
}

fn tensor_hash(config: TensorConfig) -> u64 {
    entry_hash(&TensorData::generate(config).entries, |v| v.to_bits())
}

fn corpus_hash(config: CorpusConfig) -> u64 {
    entry_hash(&CorpusData::generate(config).tokens, |&c| c)
}

#[test]
fn generated_ratings_are_pinned() {
    assert_eq!(
        ratings_hash(RatingsConfig::tiny()),
        10_905_196_903_776_962_751
    );
    assert_eq!(
        ratings_hash(RatingsConfig::netflix_like()),
        7_972_041_826_868_971_124
    );
}

#[test]
fn generated_tensors_are_pinned() {
    assert_eq!(
        tensor_hash(TensorConfig::tiny()),
        17_406_695_122_451_699_976
    );
    assert_eq!(
        tensor_hash(TensorConfig::bench()),
        8_128_738_788_269_469_281
    );
}

#[test]
fn generated_corpora_are_pinned() {
    assert_eq!(corpus_hash(CorpusConfig::tiny()), 2_935_000_104_524_278_376);
    assert_eq!(
        corpus_hash(CorpusConfig::nytimes_like()),
        5_997_681_132_467_408_334
    );
}

/// The MF loop over `data`, compiled by `compile` on 2 × 2 workers.
fn mf_loop(
    data: &RatingsData,
    compile: impl FnOnce(&mut Driver, LoopSpec) -> CompiledLoop,
) -> CompiledLoop {
    let mut driver = Driver::new(ClusterSpec::new(2, 2));
    let z = driver.register(&data.ratings);
    let dims = data.ratings.shape().dims().to_vec();
    let w = driver.register(&DistArray::<f32>::dense("W", vec![dims[0], 4]));
    let h = driver.register(&DistArray::<f32>::dense("H", vec![dims[1], 4]));
    let spec = LoopSpec::builder("sgd_mf", z, dims)
        .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
        .build()
        .unwrap();
    compile(&mut driver, spec)
}

/// Both loops plan the same strategy, blocks, steps and partitions over
/// `n` items.
fn assert_same_plan(a: &CompiledLoop, b: &CompiledLoop, n: usize) {
    assert_eq!(a.strategy(), b.strategy());
    let (a, b) = (&a.schedule, &b.schedule);
    assert_eq!(a.n_workers, b.n_workers);
    assert_eq!(a.blocks, b.blocks);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.n_time_partitions, b.n_time_partitions);
    assert_eq!(a.sync, b.sync);
    assert_eq!(a.space_partition, b.space_partition);
    assert_eq!(a.time_partition, b.time_partition);
    assert_eq!(a.blocks.total_items(), n);
}

/// `app`'s setup compiles its loop over the record table it builds; the
/// same spec, on a driver holding the same arrays, compiled over
/// `(Vec<i64>, T)` items plans the same.
fn assert_setup_plans_like_pairs<A: App, T>(app: &A, data: &A::Data, pairs: &[(Vec<i64>, T)]) {
    let cluster = ClusterSpec::new(2, 2);
    let (flat, _) = app.setup(data, &mut Driver::new(cluster.clone()));
    let mut driver = Driver::new(cluster);
    app.setup(data, &mut driver);
    let paired = driver.parallel_for(flat.spec.clone(), pairs).unwrap();
    assert_same_plan(&flat, &paired, pairs.len());
}

#[test]
fn bare_indices_compile_the_loop_that_index_value_pairs_compile() {
    let wide = RatingsConfig {
        n_users: 60,
        n_items: 400,
        nnz: 3_000,
        ..RatingsConfig::tiny()
    };
    for config in [RatingsConfig::tiny(), wide] {
        let data = RatingsData::generate(config);
        let pairs = data.items();
        let bare: Vec<[i64; 2]> = pairs.iter().map(|(i, _)| [i[0], i[1]]).collect();
        let a = mf_loop(&data, |d, spec| d.parallel_for(spec, &pairs).unwrap());
        let b = mf_loop(&data, |d, spec| d.parallel_for(spec, &bare).unwrap());
        assert_same_plan(&a, &b, pairs.len());
    }

    let corpus = CorpusData::generate(CorpusConfig::tiny());
    let pairs: Vec<_> = corpus.tokens.iter().map(|(i, &c)| (i, c)).collect();
    for ordered in [false, true] {
        let lda = LdaApp {
            cfg: LdaConfig::new(4),
            ordered,
        };
        assert_setup_plans_like_pairs(&lda, &corpus, &pairs);
    }

    let tensor = TensorData::generate(TensorConfig::tiny());
    let pairs: Vec<_> = tensor.entries.iter().map(|(i, &x)| (i, x)).collect();
    for buffer_s in [false, true] {
        let cp = CpApp {
            cfg: CpConfig::new(4),
            buffer_s,
        };
        assert_setup_plans_like_pairs(&cp, &tensor, &pairs);
    }

    let tabular = TabularData::generate(TabularConfig::tiny());
    let pairs: Vec<_> = (0..tabular.config.n_features)
        .map(|f| (vec![f as i64], f as u32))
        .collect();
    let gbt = GbtApp {
        cfg: GbtConfig::new(3),
    };
    assert_setup_plans_like_pairs(&gbt, &tabular, &pairs);

    let sparse = SparseData::generate(SparseConfig::tiny());
    let pairs: Vec<_> = sparse
        .samples
        .iter()
        .enumerate()
        .map(|(i, s)| (vec![i as i64], s.label as f32))
        .collect();
    let slr = SlrApp {
        cfg: SlrConfig::new(),
        prefetch_override: None,
    };
    assert_setup_plans_like_pairs(&slr, &sparse, &pairs);
}

/// FNV-1a, as [`entry_hash`], over each word's little-endian bytes.
fn word_hash(words: &[u64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    h
}

fn f32_words(a: &DistArray<f32>) -> Vec<u64> {
    let bits = a.dense_values().iter();
    bits.map(|x| u64::from(x.to_bits())).collect()
}

fn u32_words(a: &DistArray<u32>) -> Vec<u64> {
    a.dense_values().iter().map(|&x| u64::from(x)).collect()
}

fn curve_words(stats: &RunStats) -> Vec<u64> {
    stats.progress.iter().map(|p| p.metric.to_bits()).collect()
}

/// `(model hash, curve hash)` of `app` trained on `data` on both
/// engines, `Sim(2 × 2)` then `Threads(2)`.
fn trained<A: App>(
    app: &A,
    data: &A::Data,
    passes: u64,
    model: impl Fn(&A::Model) -> Vec<u64>,
) -> [(u64, u64); 2] {
    [Engine::Sim(ClusterSpec::new(2, 2)), Engine::Threads(2)].map(|engine| {
        let out = run(app, data, &RunConfig::new(engine, passes)).expect("a plain run");
        (
            word_hash(&model(&out.model)),
            word_hash(&curve_words(&out.stats)),
        )
    })
}

/// The curve hash of three vanilla parameter-server passes.
fn ps_curve<A: PsApp>(app: A) -> u64 {
    let mut ps = PsEngine::new(app, PsConfig::vanilla(ClusterSpec::new(2, 2), 1.0));
    for _ in 0..3 {
        ps.run_pass();
    }
    word_hash(&curve_words(&ps.finish()))
}

/// Every app's trained model and loss curve on every in-process engine,
/// and the parameter-server baselines' curves, captured before the apps
/// read one flat item table built in setup: both pass bodies read that
/// table, so a wrong one would move `Sim` and `Threads` together.
#[test]
fn trained_bits_are_pinned() {
    let ratings = RatingsData::generate(RatingsConfig::tiny());
    let mf = MfApp::new(MfConfig::new(4), false);
    let mf_bits = |m: &MfModel| [f32_words(&m.w), f32_words(&m.h)].concat();
    assert_eq!(
        trained(&mf, &ratings, 3, mf_bits),
        [
            (15_199_861_659_160_080_152, 8_127_716_004_765_265_600),
            (1_497_958_754_612_962_116, 3_390_647_834_155_864_743),
        ]
    );

    let sparse = SparseData::generate(SparseConfig::tiny());
    let slr = SlrApp {
        cfg: SlrConfig::new(),
        prefetch_override: None,
    };
    assert_eq!(
        trained(&slr, &sparse, 3, |m: &SlrModel| f32_words(&m.weights)),
        [
            (5_919_309_898_155_724_687, 18_183_966_431_641_393_018),
            (1_291_891_629_332_389_293, 5_875_333_669_218_863_211),
        ]
    );

    let corpus = CorpusData::generate(CorpusConfig::tiny());
    let lda = LdaApp {
        cfg: LdaConfig::new(4),
        ordered: false,
    };
    let lda_bits = |m: &LdaModel| {
        let ts = m.ts.iter().map(|&t| t as u64).collect();
        let z = m.z.iter().flatten().map(|&t| u64::from(t)).collect();
        [u32_words(&m.dt), u32_words(&m.wt), ts, z].concat()
    };
    assert_eq!(
        trained(&lda, &corpus, 2, lda_bits),
        [
            (10_905_164_676_614_550_584, 15_354_352_919_408_601_131),
            (46_839_742_605_234_436, 11_042_748_247_516_136_769),
        ]
    );

    let tensor = TensorData::generate(TensorConfig::tiny());
    let cp = CpApp {
        cfg: CpConfig::new(4),
        buffer_s: true,
    };
    let cp_bits = |m: &CpModel| [f32_words(&m.u), f32_words(&m.v), f32_words(&m.s)].concat();
    assert_eq!(
        trained(&cp, &tensor, 3, cp_bits),
        [
            (6_565_070_261_457_896_151, 2_978_444_260_092_531_528),
            (15_585_300_551_746_016_865, 8_465_782_846_684_450_960),
        ]
    );

    let tabular = TabularData::generate(TabularConfig::tiny());
    let gbt = GbtApp {
        cfg: GbtConfig::new(3),
    };
    // The ensemble's structure and leaf values, via its predictions.
    let gbt_bits = |m: &GbtModel| {
        let rows = tabular.features.chunks_exact(tabular.config.n_features);
        let mut words: Vec<u64> = rows.map(|x| u64::from(m.predict(x).to_bits())).collect();
        words.push(m.trees.len() as u64);
        words
    };
    let gbt_pin = (6_556_620_403_024_935_689, 17_939_138_733_904_105_688);
    assert_eq!(trained(&gbt, &tabular, 3, gbt_bits), [gbt_pin, gbt_pin]);

    assert_eq!(
        ps_curve(LdaPsAdapter::new(&corpus, LdaConfig::new(4))),
        5_791_436_139_266_886_032
    );
    assert_eq!(
        ps_curve(MfPsAdapter::new(&ratings, MfConfig::new(4))),
        1_628_760_558_662_192_333
    );
}

/// SLR's buffered paths, captured before additive buffer slots started
/// from the sum identity: the adaptive apply UDF at `tiny()`, and a
/// skewed mid-size run where most features take many writes per pass.
#[test]
fn buffered_slr_bits_are_pinned() {
    let weights = |m: &SlrModel| f32_words(&m.weights);
    let tiny = SparseData::generate(SparseConfig::tiny());
    let mut cfg = SlrConfig::new();
    cfg.adaptive = true;
    let adaptive = SlrApp {
        cfg,
        prefetch_override: None,
    };
    assert_eq!(
        trained(&adaptive, &tiny, 3, weights),
        [
            (13_642_559_299_163_355_593, 12_597_519_838_258_155_747),
            (14_982_284_512_350_292_279, 12_383_595_664_083_404_361),
        ]
    );

    let skewed = SparseData::generate(SparseConfig {
        n_samples: 4_000,
        n_features: 5_000,
        nnz_per_sample: 30,
        skew: 0.9,
        informative_frac: 0.05,
        seed: 7,
    });
    let mut cfg = SlrConfig::new();
    cfg.step_size = 1e-4;
    let plain = SlrApp {
        cfg,
        prefetch_override: None,
    };
    assert_eq!(
        trained(&plain, &skewed, 3, weights),
        [
            (17_873_028_192_508_925_800, 8_189_331_591_843_535_057),
            (4_299_758_571_200_999_144, 18_225_357_545_691_365_319),
        ]
    );
}
