//! Serving conformance: every answer the sharded, cached, batched
//! serving engine produces is bit-identical to a brute-force oracle
//! scan of the raw trained `DistArray`s — for MF, SLR and LDA, through
//! a full train → checkpoint → load → serve round trip, with the cache
//! on and off.

use orion::apps::common::mix64;
use orion::apps::serve::{
    oracle_lda_doc_topics, oracle_lda_top_words, oracle_mf_predict, oracle_mf_recommend,
    oracle_slr_score, LdaAnswer, LdaQuery, LdaServe, MfAnswer, MfQuery, MfServe, SlrQuery,
    SlrServe,
};
use orion::apps::{lda, sgd_mf, slr};
use orion::core::ClusterSpec;
use orion::data::{CorpusConfig, CorpusData, RatingsConfig, RatingsData, SparseConfig, SparseData};
use orion::dsm::DistArray;
use orion::serve::{EngineConfig, ServeEngine};

fn ckpt_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("orion_serve_{}_{}", std::process::id(), name));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

fn train_mf() -> sgd_mf::MfModel {
    let data = RatingsData::generate(RatingsConfig::tiny());
    let run = sgd_mf::MfRunConfig {
        cluster: ClusterSpec::new(4, 2),
        passes: 3,
        ordered: false,
    };
    sgd_mf::train_orion(&data, sgd_mf::MfConfig::new(4), &run).0
}

/// Engines with the cache on and off, loaded from the same checkpoint
/// image, across two shard counts.
fn mf_engines(model: &sgd_mf::MfModel) -> Vec<ServeEngine<MfServe>> {
    let (w, h) = MfServe::checkpoint_bytes(model);
    let mut engines = Vec::new();
    for n_shards in [1, 3] {
        for cache in [256, 0] {
            let serve = MfServe::from_checkpoint_bytes(w.clone(), h.clone(), n_shards)
                .expect("intact checkpoint loads");
            engines.push(ServeEngine::new(
                serve,
                EngineConfig::default().with_cache_capacity(cache),
            ));
        }
    }
    engines
}

/// MF point predictions: every user × item, bit-identical to the
/// oracle, cache on or off, any shard count.
#[test]
fn mf_predictions_match_oracle_bitwise() {
    let model = train_mf();
    for engine in mf_engines(&model) {
        let (users, items) = (engine.model().n_users(), engine.model().n_items());
        for user in 0..users {
            for item in 0..items {
                let want = oracle_mf_predict(&model, user, item);
                match engine.answer(&MfQuery::Predict { user, item }) {
                    MfAnswer::Score(got) => assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "user {user} item {item}: {got} != {want}"
                    ),
                    other => panic!("unexpected answer {other:?}"),
                }
            }
        }
        // Repeated queries hammered the cache (when enabled) without
        // changing a single bit; accounting stays balanced either way.
        let s = engine.cache_stats();
        assert_eq!(s.hits + s.misses, s.lookups);
    }
}

/// MF top-k recommendations: identical ids *and* bit-identical scores
/// to the brute-force oracle, for several k including over-length.
#[test]
fn mf_recommendations_match_oracle() {
    let model = train_mf();
    for engine in mf_engines(&model) {
        let (users, items) = (engine.model().n_users(), engine.model().n_items());
        for user in 0..users {
            for k in [1, 5, items as usize + 7] {
                let want = oracle_mf_recommend(&model, user, k);
                match engine.answer(&MfQuery::Recommend { user, k }) {
                    MfAnswer::TopK(got) => {
                        assert_eq!(got.len(), want.len());
                        for ((gi, gs), (wi, ws)) in got.iter().zip(&want) {
                            assert_eq!(gi, wi, "user {user} k {k}");
                            assert_eq!(gs.to_bits(), ws.to_bits(), "user {user} item {gi}");
                        }
                    }
                    other => panic!("unexpected answer {other:?}"),
                }
            }
        }
    }
}

/// Scan shapes and list lengths at every edge: item counts around the
/// lane-panel width (a lone row, a ragged panel, exactly one panel, one
/// row over, and a large odd count), shard counts that cut panels at
/// every offset, ranks below and above the lane width, and every list
/// length a query can name — hostile ones included. Factors and counts
/// come from three-value palettes, so at low rank most scores tie and
/// the tie-break by id decides the lists, across shard boundaries too;
/// the user factors are not dyadic, so at rank 32 the sums round and the
/// order of the additions shows in the bits.
const SCAN_ROWS: [u64; 5] = [1, 7, 8, 9, 4_001];
const SCAN_SHARDS: [usize; 4] = [1, 2, 3, 7];
const SCAN_WIDTHS: [usize; 3] = [1, 5, 32];

fn scan_ks(n: u64) -> [usize; 7] {
    let n = n as usize;
    [0, 1, 10, n - 1, n, n + 1, usize::MAX]
}

/// Shard counts a model with `n` scanned rows can be loaded with (every
/// array of a model is cut into the same number of shards, and a shard
/// holds at least one row).
fn scan_shards(n: u64) -> impl Iterator<Item = usize> {
    SCAN_SHARDS.into_iter().filter(move |&s| s as u64 <= n)
}

fn palette_pick<T: Copy>(palette: [T; 3], i: &[i64], salt: u64) -> T {
    palette[(mix64(salt ^ (i[0] as u64) << 8 ^ i[1] as u64) % 3) as usize]
}

#[test]
fn mf_recommend_matches_oracle_at_every_scan_edge() {
    const USERS: u64 = 7;
    for n_items in SCAN_ROWS {
        for rank in SCAN_WIDTHS {
            let mut model = sgd_mf::MfModel::new(USERS, n_items, sgd_mf::MfConfig::new(rank));
            let dims = |rows| vec![rows, rank as u64];
            model.w = DistArray::dense_from_fn("W", dims(USERS), |i| {
                palette_pick([-0.3f32, 0.1, 0.7], i, 1)
            });
            model.h = DistArray::dense_from_fn("H", dims(n_items), |i| {
                palette_pick([-1.0f32, 0.0, 0.5], i, 2)
            });
            let (w, h) = MfServe::checkpoint_bytes(&model);
            let queries: Vec<(u64, usize)> = [0, USERS - 1]
                .into_iter()
                .flat_map(|user| scan_ks(n_items).map(|k| (user, k)))
                .collect();
            let want: Vec<Vec<(u64, u32)>> = queries
                .iter()
                .map(|&(user, k)| {
                    let list = oracle_mf_recommend(&model, user, k);
                    list.into_iter().map(|(i, s)| (i, s.to_bits())).collect()
                })
                .collect();
            for n_shards in scan_shards(n_items) {
                for cache in [256, 0] {
                    let engine = ServeEngine::new(
                        MfServe::from_checkpoint_bytes(w.clone(), h.clone(), n_shards)
                            .expect("intact checkpoint loads"),
                        EngineConfig::default().with_cache_capacity(cache),
                    );
                    for (&(user, k), want) in queries.iter().zip(&want) {
                        let got = match engine.answer(&MfQuery::Recommend { user, k }) {
                            MfAnswer::TopK(list) => list,
                            other => panic!("unexpected answer {other:?}"),
                        };
                        let got: Vec<(u64, u32)> =
                            got.into_iter().map(|(i, s)| (i, s.to_bits())).collect();
                        assert_eq!(
                            &got, want,
                            "{n_items} items, rank {rank}, {n_shards} shards, cache {cache}, \
                             user {user}, k {k}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn lda_top_words_match_oracle_at_every_scan_edge() {
    const DOCS: u64 = 7;
    for vocab in SCAN_ROWS {
        for n_topics in SCAN_WIDTHS {
            let dims = |rows| vec![rows, n_topics as u64];
            let model = lda::LdaModel {
                dt: DistArray::dense("doc_topic", dims(DOCS)),
                wt: DistArray::dense_from_fn("word_topic", dims(vocab), |i| {
                    palette_pick([0u32, 3, 4], i, 3)
                }),
                ts: vec![0; n_topics],
                z: Vec::new(),
                cfg: lda::LdaConfig::new(n_topics),
                vocab,
            };
            let (dt, wt) = LdaServe::checkpoint_bytes(&model);
            for n_shards in scan_shards(vocab) {
                for cache in [64, 0] {
                    let engine = ServeEngine::new(
                        LdaServe::from_checkpoint_bytes(dt.clone(), wt.clone(), n_shards)
                            .expect("intact checkpoint loads"),
                        EngineConfig::default().with_cache_capacity(cache),
                    );
                    for topic in [0, n_topics - 1] {
                        for k in scan_ks(vocab) {
                            assert_eq!(
                                engine.answer(&LdaQuery::TopWords { topic, k }),
                                LdaAnswer::TopK(oracle_lda_top_words(&model, topic, k)),
                                "{vocab} words, {n_topics} topics, {n_shards} shards, \
                                 cache {cache}, topic {topic}, k {k}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// SLR margins: every training sample's feature set scored through the
/// serving path equals the oracle gather-sum, bit for bit.
#[test]
fn slr_scores_match_oracle_bitwise() {
    let data = SparseData::generate(SparseConfig::tiny());
    let run = slr::SlrRunConfig {
        cluster: ClusterSpec::new(4, 2),
        passes: 2,
        prefetch_override: None,
    };
    let (model, _) = slr::train_orion(&data, slr::SlrConfig::new(), &run);
    let wire = SlrServe::checkpoint_bytes(&model);
    for n_shards in [1, 4] {
        for cache in [128, 0] {
            let engine = ServeEngine::new(
                SlrServe::from_checkpoint_bytes(wire.clone(), n_shards).expect("intact"),
                EngineConfig::default().with_cache_capacity(cache),
            );
            for sample in &data.samples {
                let want = oracle_slr_score(&model, &sample.features);
                let got = engine.answer(&SlrQuery {
                    features: sample.features.clone(),
                });
                assert_eq!(got.to_bits(), want.to_bits());
            }
            // The empty feature set is a valid query: margin -0.0 (the
            // kernel's fold identity), same as the oracle.
            let empty = engine.answer(&SlrQuery { features: vec![] });
            assert_eq!(empty.to_bits(), oracle_slr_score(&model, &[]).to_bits());
        }
    }
}

/// LDA: document topic histograms and per-topic top-word lists match
/// the oracle exactly (u32 counts — equality is already exact).
#[test]
fn lda_lookups_match_oracle() {
    let corpus = CorpusData::generate(CorpusConfig::tiny());
    let run = lda::LdaRunConfig {
        cluster: ClusterSpec::new(4, 2),
        passes: 2,
        ordered: false,
    };
    let (model, _) = lda::train_orion(&corpus, lda::LdaConfig::new(8), &run);
    let (dt, wt) = LdaServe::checkpoint_bytes(&model);
    for n_shards in [1, 3] {
        for cache in [64, 0] {
            let engine = ServeEngine::new(
                LdaServe::from_checkpoint_bytes(dt.clone(), wt.clone(), n_shards).expect("intact"),
                EngineConfig::default().with_cache_capacity(cache),
            );
            let serve = engine.model();
            for doc in 0..serve.n_docs() {
                match engine.answer(&LdaQuery::DocTopics { doc }) {
                    LdaAnswer::Histogram(got) => {
                        assert_eq!(got, oracle_lda_doc_topics(&model, doc))
                    }
                    other => panic!("unexpected answer {other:?}"),
                }
            }
            for topic in 0..serve.n_topics() {
                for k in [1, 10] {
                    match engine.answer(&LdaQuery::TopWords { topic, k }) {
                        LdaAnswer::TopK(got) => {
                            assert_eq!(got, oracle_lda_top_words(&model, topic, k))
                        }
                        other => panic!("unexpected answer {other:?}"),
                    }
                }
            }
        }
    }
}

/// The file-based round trip: checkpoints written with the atomic saver
/// load into shards that answer exactly like the in-memory model.
#[test]
fn checkpoint_files_round_trip_through_serving() {
    let model = train_mf();
    let dir = ckpt_dir("files");
    let (w_path, h_path) = (dir.join("w.ckpt"), dir.join("h.ckpt"));
    orion::dsm::checkpoint::save(&model.w, &w_path).expect("save W");
    orion::dsm::checkpoint::save(&model.h, &h_path).expect("save H");
    let serve = MfServe::from_checkpoint_bytes(
        std::fs::read(&w_path).expect("read W").into(),
        std::fs::read(&h_path).expect("read H").into(),
        3,
    )
    .expect("saved checkpoints load");
    let engine = ServeEngine::new(serve, EngineConfig::default());
    for user in 0..engine.model().n_users() {
        for item in 0..engine.model().n_items() {
            match engine.answer(&MfQuery::Predict { user, item }) {
                MfAnswer::Score(got) => {
                    assert_eq!(
                        got.to_bits(),
                        oracle_mf_predict(&model, user, item).to_bits()
                    )
                }
                other => panic!("unexpected answer {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Balanced sharding is invisible to answers: a Zipf-weighted partition
/// of `W` yields the same bits as uniform sharding.
#[test]
fn balanced_sharding_preserves_answers() {
    let model = train_mf();
    let n_users = model.w.shape().dims()[0];
    // A heavy-headed traffic profile, like the generator's Zipf draw.
    let weights: Vec<u64> = (0..n_users).map(|u| 1 + 1000 / (u + 1)).collect();
    let balanced = ServeEngine::new(
        MfServe::from_model_balanced(&model, &weights, 3),
        EngineConfig::default(),
    );
    let uniform = ServeEngine::new(MfServe::from_model(&model, 3), EngineConfig::default());
    for user in 0..n_users {
        for item in 0..balanced.model().n_items() {
            let q = MfQuery::Predict { user, item };
            assert_eq!(balanced.answer(&q), uniform.answer(&q));
        }
        let q = MfQuery::Recommend { user, k: 5 };
        assert_eq!(balanced.answer(&q), uniform.answer(&q));
    }
}
