//! Property tests of the serving substrate: checkpoint → shard round
//! trips over arbitrary shapes and dtypes, corruption rejection (a
//! malformed image must never become a shard), LRU cache invariants
//! against a reference model, the streaming top-k selector against
//! the sort-based reference, and model pairs the engine can route (one
//! shard count) and answer (one row width).

use orion::apps::serve::{
    oracle_lda_doc_topics, oracle_lda_top_words, oracle_mf_predict, oracle_mf_recommend,
    top_k_reference, LdaAnswer, LdaQuery, LdaServe, MfAnswer, MfQuery, MfServe, Score, TopK,
};
use orion::apps::{lda, sgd_mf};
use orion::dsm::checkpoint::{self, CheckpointError};
use orion::dsm::{DistArray, Shape};
use orion::serve::{EngineConfig, LruCache, ServeEngine, ShardedArray};
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..8, 1..4)
}

fn arb_dense_f32() -> impl Strategy<Value = DistArray<f32>> {
    arb_dims().prop_flat_map(|dims| {
        let volume: u64 = dims.iter().product();
        let d = dims.clone();
        proptest::collection::vec(any::<f32>(), volume as usize)
            .prop_map(move |values| DistArray::dense_from_vec("w", d.clone(), values))
    })
}

fn arb_sparse_u32() -> impl Strategy<Value = DistArray<u32>> {
    arb_dims().prop_flat_map(|dims| {
        let volume: u64 = dims.iter().product();
        let d = dims.clone();
        proptest::collection::btree_set(0..volume, 0..volume.min(24) as usize).prop_map(
            move |flats| {
                let shape = Shape::new(d.clone());
                DistArray::sparse_from(
                    "s",
                    d.clone(),
                    flats.iter().map(|&f| (shape.unflatten(f), f as u32 + 1)),
                )
            },
        )
    })
}

/// A reference LRU: an MRU-ordered `Vec`, correct by inspection.
struct RefLru {
    entries: Vec<(u64, u64)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RefLru {
    fn new(capacity: usize) -> Self {
        RefLru {
            entries: Vec::new(),
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        match self.entries.iter().position(|(k, _)| *k == key) {
            Some(pos) => {
                self.hits += 1;
                let e = self.entries.remove(pos);
                let v = e.1;
                self.entries.insert(0, e);
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u64, value: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
        self.entries.insert(0, (key, value));
    }
}

/// One scripted cache operation.
#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Insert(u64, u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u64..12, any::<bool>(), 0u64..1000).prop_map(|(k, is_get, v)| {
            if is_get {
                Op::Get(k)
            } else {
                Op::Insert(k, v)
            }
        }),
        0..200,
    )
}

/// A scan's worth of `(id, score)` pairs: unique ids offered in a
/// shuffled order, scores drawn from a short palette so that most of
/// them tie.
fn arb_scored<S: Score + core::fmt::Debug + 'static>(
    palette: &'static [S],
) -> impl Strategy<Value = Vec<(u64, S)>> {
    proptest::collection::vec((any::<u32>(), 0..palette.len()), 0..60).prop_map(|draws| {
        let mut keyed: Vec<(u32, u64, S)> = draws
            .iter()
            .enumerate()
            .map(|(id, &(key, p))| (key, id as u64, palette[p]))
            .collect();
        keyed.sort_by_key(|t| (t.0, t.1));
        keyed.into_iter().map(|(_, id, s)| (id, s)).collect()
    })
}

/// The selector and the reference give the same ids and the same score
/// bits (`rank` is `Equal` only then) for every list length a query can
/// name around `n`, hostile ones included.
fn selector_matches_reference<S: Score>(scored: &[(u64, S)], any_k: usize) -> Result<(), String> {
    let n = scored.len();
    for k in [0, 1, n.saturating_sub(1), n, n + 1, usize::MAX, any_k] {
        let mut top = TopK::new(k, n as u64);
        for &(id, score) in scored {
            top.push(id, score);
        }
        let (got, want) = (top.into_sorted(), top_k_reference(scored.to_vec(), k));
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.0 == w.0 && g.1.rank(&w.1).is_eq());
        if !same {
            return Err(format!("k = {k} of n = {n}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `f32` scores in `total_cmp` order — NaNs of both signs, ±∞ and
    /// ±0.0 among them — and `u32` counts, ties broken by id.
    #[test]
    fn streaming_top_k_matches_sorted_reference(
        floats in arb_scored(&[
            f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1.0, -2.5, 1e-40,
        ]),
        counts in arb_scored(&[0u32, 1, 2, u32::MAX]),
        any_k in 0usize..70,
    ) {
        prop_assert_eq!(selector_matches_reference(&floats, any_k), Ok(()));
        prop_assert_eq!(selector_matches_reference(&counts, any_k), Ok(()));
    }

    /// Dense f32 arrays of any shape round-trip through checkpoint
    /// bytes into shards bit-exactly, for any shard count: every row
    /// comes back with identical bits, shards tile the rows exactly,
    /// and routing agrees with shard ownership.
    #[test]
    fn dense_roundtrip_is_bit_exact(a in arb_dense_f32(), n_shards in 1usize..9) {
        let s = ShardedArray::<f32>::from_checkpoint_bytes(checkpoint::to_bytes(&a), n_shards)
            .expect("intact checkpoint loads");
        let rows = a.shape().dims()[0];
        prop_assert_eq!(s.n_rows(), rows);
        prop_assert_eq!(s.dims(), a.shape().dims());
        let covered: u64 = s.shards().iter().map(|sh| sh.n_rows()).sum();
        prop_assert_eq!(covered, rows);
        let width = (a.shape().volume() / rows) as usize;
        for r in 0..rows {
            let got = s.row(r).expect("row in range");
            prop_assert_eq!(got.len(), width);
            for (c, g) in got.iter().enumerate() {
                let flat = r * width as u64 + c as u64;
                let w = a.get_flat(flat).expect("dense flat index");
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
            prop_assert!(s.shard(s.shard_of(r)).rows().contains(&r));
        }
        prop_assert_eq!(s.row(rows), None);
    }

    /// Sparse u32 checkpoints densify into shards that agree with
    /// `get_or_default` at every coordinate.
    #[test]
    fn sparse_roundtrip_densifies_exactly(a in arb_sparse_u32(), n_shards in 1usize..6) {
        let s = ShardedArray::<u32>::from_checkpoint_bytes(checkpoint::to_bytes(&a), n_shards)
            .expect("intact checkpoint loads");
        let dims = a.shape().dims().to_vec();
        let width = (a.shape().volume() / dims[0]) as usize;
        for r in 0..dims[0] {
            let row = s.row(r).expect("row in range");
            prop_assert_eq!(row.len(), width);
            for (c, &got) in row.iter().enumerate() {
                let flat = r * width as u64 + c as u64;
                let idx: Vec<i64> = a.shape().unflatten(flat);
                prop_assert_eq!(got, a.get_or_default(&idx));
            }
        }
    }

    /// Every strict prefix of a checkpoint image is rejected as
    /// `Corrupt` — a truncated file can never load into shards.
    #[test]
    fn truncated_checkpoints_never_become_shards(a in arb_dense_f32(), frac in 0.0f64..1.0) {
        let wire = checkpoint::to_bytes(&a);
        let cut = ((wire.len() as f64) * frac) as usize; // strictly < len
        let err = ShardedArray::<f32>::from_checkpoint_bytes(wire.slice(0..cut), 2)
            .expect_err("strict prefix must be corrupt");
        prop_assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    /// Trailing garbage of any size and content is rejected too.
    #[test]
    fn extended_checkpoints_never_become_shards(
        a in arb_dense_f32(),
        tail in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut wire = checkpoint::to_bytes(&a).to_vec();
        wire.extend_from_slice(&tail);
        let err = ShardedArray::<f32>::from_checkpoint_bytes(wire.into(), 2)
            .expect_err("extended image must be corrupt");
        prop_assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    /// The slab LRU agrees with the reference model on every operation
    /// of an arbitrary script, and its invariants hold throughout:
    /// `hits + misses == lookups`, `len <= capacity`, eviction count and
    /// full MRU order identical to the reference.
    #[test]
    fn lru_matches_reference_model(ops in arb_ops(), capacity in 0usize..6) {
        let mut cache: LruCache<u64, u64> = LruCache::new(capacity);
        let mut reference = RefLru::new(capacity);
        for op in &ops {
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(cache.get(k).copied(), reference.get(*k));
                }
                Op::Insert(k, v) => {
                    cache.insert(*k, *v);
                    reference.insert(*k, *v);
                }
            }
            let s = cache.stats();
            prop_assert_eq!(s.hits + s.misses, s.lookups);
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(s.len as usize, reference.entries.len());
            prop_assert_eq!(s.evictions, reference.evictions);
            let want_order: Vec<u64> = reference.entries.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(cache.keys_mru_order(), want_order);
        }
        prop_assert_eq!(cache.stats().hits, reference.hits);
        prop_assert_eq!(cache.stats().misses, reference.misses);
    }
}

/// A sparse image states a shape, not elements: two empty ones of 58
/// bytes each declare 2^62 and 2^50 `f32`s. Densifying either would
/// overflow the allocation size or ask for petabytes, so loading comes
/// back as `Corrupt`, naming the shape — never a panic, never an aborted
/// process.
#[test]
fn oversized_sparse_checkpoints_never_become_shards() {
    for dims in [vec![1u64 << 31, 1 << 31], vec![1 << 40, 1 << 10]] {
        let empty = DistArray::<f32>::sparse_from("w", dims.clone(), []);
        let wire = checkpoint::to_bytes(&empty);
        assert_eq!(wire.len(), 58);
        match ShardedArray::<f32>::from_checkpoint_bytes(wire, 2) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("{dims:?}")), "{msg}")
            }
            other => panic!("{dims:?}: {:?}", other.map(|s| s.dims().to_vec())),
        }
    }
}

/// An MF model with `users × rank` and `items × rank` factors.
fn mf_model(users: u64, items: u64, rank: usize) -> sgd_mf::MfModel {
    let mut model = sgd_mf::MfModel::new(users, items, sgd_mf::MfConfig::new(rank));
    let dims = |rows| vec![rows, rank as u64];
    let value = |i: &[i64], salt: i64| ((i[0] * 7 + i[1] * 3 + salt) % 11) as f32 * 0.25 - 1.0;
    model.w = DistArray::dense_from_fn("W", dims(users), |i| value(i, 1));
    model.h = DistArray::dense_from_fn("H", dims(items), |i| value(i, 5));
    model
}

/// An LDA model with `docs × topics` and `vocab × topics` counts.
fn lda_model(docs: u64, vocab: u64, n_topics: usize) -> lda::LdaModel {
    let dims = |rows| vec![rows, n_topics as u64];
    let count = |i: &[i64], salt: i64| ((i[0] * 5 + i[1] * 3 + salt) % 7) as u32;
    lda::LdaModel {
        dt: DistArray::dense_from_fn("doc_topic", dims(docs), |i| count(i, 1)),
        wt: DistArray::dense_from_fn("word_topic", dims(vocab), |i| count(i, 2)),
        ts: vec![0; n_topics],
        z: Vec::new(),
        cfg: lda::LdaConfig::new(n_topics),
        vocab,
    }
}

/// Every predict and recommend answer of `serve` is the oracle's, bit
/// for bit.
fn assert_mf_serves(model: &sgd_mf::MfModel, serve: MfServe) {
    let engine = ServeEngine::new(serve, EngineConfig::default());
    let (users, items) = (model.w.shape().dims()[0], model.h.shape().dims()[0]);
    for user in 0..users {
        for item in 0..items {
            let got = engine.answer(&MfQuery::Predict { user, item });
            let want = oracle_mf_predict(model, user, item);
            assert_eq!(got, MfAnswer::Score(want), "user {user}, item {item}");
        }
        let got = engine.answer(&MfQuery::Recommend { user, k: 3 });
        assert_eq!(got, MfAnswer::TopK(oracle_mf_recommend(model, user, 3)));
    }
}

/// Every doc-topics and top-words answer of `serve` is the oracle's.
fn assert_lda_serves(model: &lda::LdaModel, serve: LdaServe) {
    let engine = ServeEngine::new(serve, EngineConfig::default());
    for doc in 0..model.dt.shape().dims()[0] {
        let got = engine.answer(&LdaQuery::DocTopics { doc });
        assert_eq!(got, LdaAnswer::Histogram(oracle_lda_doc_topics(model, doc)));
    }
    for topic in 0..model.cfg.n_topics {
        let got = engine.answer(&LdaQuery::TopWords { topic, k: 2 });
        assert_eq!(got, LdaAnswer::TopK(oracle_lda_top_words(model, topic, 2)));
    }
}

/// Checkpoints of 8 users or docs and 2 items or words, loaded into 4
/// shards: both arrays are cut into the 2 shards the smaller one can
/// take, so the engine builds and every answer is the oracle's.
#[test]
fn checkpoint_pairs_with_fewer_rows_than_shards_share_one_shard_count() {
    let mf = mf_model(8, 2, 4);
    let (w, h) = MfServe::checkpoint_bytes(&mf);
    let serve = MfServe::from_checkpoint_bytes(w, h, 4).expect("intact pair loads");
    assert_mf_serves(&mf, serve);

    let lda = lda_model(8, 2, 3);
    let (dt, wt) = LdaServe::checkpoint_bytes(&lda);
    let serve = LdaServe::from_checkpoint_bytes(dt, wt, 4).expect("intact pair loads");
    assert_lda_serves(&lda, serve);
}

/// The same cut from a trained model in memory: fewer items (or words)
/// than shards serves every query.
#[test]
fn models_with_fewer_rows_than_shards_serve() {
    for (users, items, n_shards) in [(8, 2, 4), (3, 5, 4), (2, 1, 8)] {
        let mf = mf_model(users, items, 4);
        assert_mf_serves(&mf, MfServe::from_model(&mf, n_shards));
        let lda = lda_model(users, items, 3);
        assert_lda_serves(&lda, LdaServe::from_model(&lda, n_shards));
    }
}

/// A pair whose row widths differ (MF rank 4 against 8, LDA 3 topics
/// against 5) is `Corrupt`, naming both shapes: a query would dot a row
/// against a prefix of the other.
#[test]
fn pairs_that_differ_in_width_are_corrupt() {
    let (w, _) = MfServe::checkpoint_bytes(&mf_model(8, 8, 4));
    let (_, h) = MfServe::checkpoint_bytes(&mf_model(8, 8, 8));
    match MfServe::from_checkpoint_bytes(w, h, 2) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains("[8, 4]") && msg.contains("[8, 8]"), "{msg}")
        }
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("an MF pair of ranks 4 and 8 loaded"),
    }
    let (dt, _) = LdaServe::checkpoint_bytes(&lda_model(8, 8, 3));
    let (_, wt) = LdaServe::checkpoint_bytes(&lda_model(8, 8, 5));
    match LdaServe::from_checkpoint_bytes(dt, wt, 2) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains("[8, 3]") && msg.contains("[8, 5]"), "{msg}")
        }
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("an LDA pair of 3 and 5 topics loaded"),
    }
}
