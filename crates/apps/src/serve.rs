//! Serving adapters: MF recommendation, SLR scoring, and LDA topic
//! lookup over `orion-serve` shards, each with a brute-force oracle.
//!
//! Every adapter answers queries through the cached [`ServeCtx`] paths,
//! and every query kind has a free-function *oracle* that computes the
//! same answer by scanning the raw trained `DistArray`s with the same
//! `Exact`-mode kernels. The conformance suite demands bit-identity
//! between the two — `f32` compared by `to_bits`, top-k lists compared
//! element-wise — which is what makes the serving path trustworthy: a
//! shard or a cache hit can never change an answer.
//!
//! Tie-breaking for every top-k list is total and deterministic: score
//! descending (`f32::total_cmp`, `u32::cmp`), then id ascending. Scans
//! feed a bounded [`TopK`] selector as they go; the oracles sort every
//! pair with [`top_k_reference`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bytes::Bytes;

use orion_dsm::checkpoint::{self, CheckpointError};
use orion_dsm::kernels::{self, MathMode};
use orion_dsm::{DistArray, Element};
use orion_serve::{LanePanels, RawRequest, ServeCtx, ServeModel, ShardedArray};

use crate::lda::LdaModel;
use crate::sgd_mf::MfModel;
use crate::slr::SlrModel;

/// A score a top-k list ranks by, under a total order.
pub trait Score: Copy {
    /// `total_cmp` for floats — so NaNs (which the trained models never
    /// produce, but proptest inputs may) still order deterministically —
    /// and `cmp` for counts.
    fn rank(&self, other: &Self) -> Ordering;
}

impl Score for f32 {
    fn rank(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Score for u32 {
    fn rank(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

/// One `(id, score)` pair, ordered as top-k lists are: `Less` is listed
/// first — score descending, id ascending on ties.
struct Ranked<S>(u64, S);

impl<S: Score> Ord for Ranked<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.1.rank(&self.1).then(self.0.cmp(&other.0))
    }
}

impl<S: Score> PartialOrd for Ranked<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<S: Score> PartialEq for Ranked<S> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<S: Score> Eq for Ranked<S> {}

/// Streaming top-k selector: keeps the best `min(k, n)` of the pairs
/// pushed so far in a heap whose root is the worst of them, so a scan of
/// `n` rows costs O(n log k) and holds `min(k, n)` slots whatever `k` a
/// query names.
pub struct TopK<S: Score> {
    k: usize,
    heap: BinaryHeap<Ranked<S>>,
}

impl<S: Score> TopK<S> {
    /// A selector for the best `k` of at most `n` pairs.
    pub fn new(k: usize, n: u64) -> Self {
        let k = k.min(usize::try_from(n).unwrap_or(usize::MAX));
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k),
        }
    }

    /// Offers one pair.
    #[inline]
    pub fn push(&mut self, id: u64, score: S) {
        let candidate = Ranked(id, score);
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }

    /// The kept pairs, best first.
    pub fn into_sorted(self) -> Vec<(u64, S)> {
        let sorted = self.heap.into_sorted_vec();
        sorted.into_iter().map(|Ranked(id, s)| (id, s)).collect()
    }
}

/// The brute-force reference the oracles use: sorts every pair and keeps
/// the first `k`.
pub fn top_k_reference<S: Score>(mut scored: Vec<(u64, S)>, k: usize) -> Vec<(u64, S)> {
    scored.sort_by(|a, b| b.1.rank(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

// ---------------------------------------------------------------------------
// Matrix factorization: predict one rating, or recommend top-k items.
// ---------------------------------------------------------------------------

/// Pairs `a` with the array `load_b(n)` cuts into at most `n` shards,
/// so both end up in the shard count both can take (the engine routes
/// every array by one count): `a` was cut into at most the requested
/// count, and when `b` has fewer rows than that, `a` is cut again to
/// match. A pair whose rows differ in width is
/// [`CheckpointError::Corrupt`], naming both shapes: a query would read
/// one row against a prefix of the other.
fn shard_pair<T: Element>(
    a: ShardedArray<T>,
    load_b: impl FnOnce(usize) -> Result<ShardedArray<T>, CheckpointError>,
) -> Result<(ShardedArray<T>, ShardedArray<T>), CheckpointError> {
    let b = load_b(a.n_shards())?;
    if a.width() != b.width() {
        return Err(CheckpointError::Corrupt(format!(
            "`{}` {:?} and `{}` {:?} differ in row width",
            a.name(),
            a.dims(),
            b.name(),
            b.dims()
        )));
    }
    if b.n_shards() == a.n_shards() {
        return Ok((a, b));
    }
    let values = a.shards().iter().flat_map(|s| s.values().iter().cloned());
    let whole = DistArray::dense_from_vec(a.name(), a.dims().to_vec(), values.collect());
    Ok((ShardedArray::from_array(&whole, b.n_shards()), b))
}

/// A query against a trained MF model.
#[derive(Debug, Clone, PartialEq)]
pub enum MfQuery {
    /// Predicted rating of `item` by `user`: `dot(w[user], h[item])`.
    Predict {
        /// User row in `W`.
        user: u64,
        /// Item row in `H`.
        item: u64,
    },
    /// The `k` highest-scoring items for `user`, scanning every shard
    /// of `H`.
    Recommend {
        /// User row in `W`.
        user: u64,
        /// List length.
        k: usize,
    },
}

/// An MF answer.
#[derive(Debug, Clone, PartialEq)]
pub enum MfAnswer {
    /// A predicted rating.
    Score(f32),
    /// `(item, score)` pairs, score descending then item ascending.
    TopK(Vec<(u64, f32)>),
}

/// MF serving model: `arrays()[0]` is `W` (users × rank, the primary —
/// requests route by user), `arrays()[1]` is `H` (items × rank), which
/// `Recommend` scans through `h_panels`, one lane-panel index per shard
/// of `H`.
pub struct MfServe {
    arrays: Vec<ShardedArray<f32>>,
    h_panels: Vec<LanePanels<f32>>,
}

impl MfServe {
    /// The one place a model is assembled: the two sharded arrays plus
    /// the scan index over `H`, built here so it exists before the first
    /// query whichever way the model was loaded.
    fn new(w: ShardedArray<f32>, h: ShardedArray<f32>) -> Self {
        let h_panels = h.shards().iter().map(LanePanels::from_shard).collect();
        MfServe {
            arrays: vec![w, h],
            h_panels,
        }
    }

    /// Shards a trained model: `W` and `H` uniformly into the same
    /// number of shards, `n_shards` capped by each one's rows.
    ///
    /// # Panics
    ///
    /// Panics if `W` and `H` differ in rank.
    pub fn from_model(model: &MfModel, n_shards: usize) -> Self {
        let w = ShardedArray::from_array(&model.w, n_shards);
        let (w, h) = shard_pair(w, |n| Ok(ShardedArray::from_array(&model.h, n)))
            .expect("W and H share the rank");
        Self::new(w, h)
    }

    /// Like [`MfServe::from_model`] but partitions `W` with the
    /// histogram-balanced partitioner: `user_weights[u]` is the expected
    /// traffic of user `u` (e.g. the generator's Zipf profile), so hot
    /// users spread across shards.
    pub fn from_model_balanced(model: &MfModel, user_weights: &[u64], n_shards: usize) -> Self {
        // Capped by the items up front, so `W` is never cut again
        // uniformly.
        let n_items = model.h.shape().dims()[0] as usize;
        let w = ShardedArray::from_array_balanced(&model.w, user_weights, n_shards.min(n_items));
        let (w, h) = shard_pair(w, |n| Ok(ShardedArray::from_array(&model.h, n)))
            .expect("W and H share the rank");
        Self::new(w, h)
    }

    /// Loads the two checkpoint images written by
    /// [`checkpoint_bytes`](Self::checkpoint_bytes).
    ///
    /// # Errors
    ///
    /// Any malformed image surfaces as [`CheckpointError::Corrupt`], and
    /// so does a pair whose ranks differ.
    pub fn from_checkpoint_bytes(
        w: Bytes,
        h: Bytes,
        n_shards: usize,
    ) -> Result<Self, CheckpointError> {
        let w = ShardedArray::from_checkpoint_bytes(w, n_shards)?;
        let (w, h) = shard_pair(w, |n| ShardedArray::from_checkpoint_bytes(h, n))?;
        Ok(Self::new(w, h))
    }

    /// Checkpoint images of a trained model, `(W, H)`.
    pub fn checkpoint_bytes(model: &MfModel) -> (Bytes, Bytes) {
        (
            checkpoint::to_bytes(&model.w),
            checkpoint::to_bytes(&model.h),
        )
    }

    /// Users served.
    pub fn n_users(&self) -> u64 {
        self.arrays[0].n_rows()
    }

    /// Items served.
    pub fn n_items(&self) -> u64 {
        self.arrays[1].n_rows()
    }

    /// Maps a generated request onto a query: `roll < predict_frac`
    /// becomes a point prediction (`key` = user, `key2` = item), the
    /// rest become top-`k` recommendations.
    pub fn query_from_raw(&self, raw: &RawRequest, predict_frac: f64, k: usize) -> MfQuery {
        let user = raw.key % self.n_users();
        if raw.roll < predict_frac {
            MfQuery::Predict {
                user,
                item: raw.key2 % self.n_items(),
            }
        } else {
            MfQuery::Recommend { user, k }
        }
    }
}

impl ServeModel for MfServe {
    type Elem = f32;
    type Query = MfQuery;
    type Answer = MfAnswer;

    fn arrays(&self) -> &[ShardedArray<f32>] {
        &self.arrays
    }

    fn answer(&self, query: &MfQuery, ctx: &ServeCtx<'_, f32>) -> MfAnswer {
        match query {
            MfQuery::Predict { user, item } => {
                let w = ctx.row(0, *user);
                let h = ctx.row(1, *item);
                MfAnswer::Score(kernels::dot(w, h, MathMode::Exact))
            }
            MfQuery::Recommend { user, k } => {
                let w = ctx.row(0, *user);
                let mut top = TopK::new(*k, self.n_items());
                for (s, panels) in self.h_panels.iter().enumerate() {
                    let mut item = ctx.scan(1, s).rows().start;
                    for (real_rows, panel) in panels.panels() {
                        for &score in &kernels::dot_panel(w, panel)[..real_rows] {
                            top.push(item, score);
                            item += 1;
                        }
                    }
                }
                MfAnswer::TopK(top.into_sorted())
            }
        }
    }
}

/// Oracle for [`MfQuery::Predict`]: the same `Exact` dot over the raw
/// model rows.
pub fn oracle_mf_predict(model: &MfModel, user: u64, item: u64) -> f32 {
    kernels::dot(
        model.w.row_slice(user as i64),
        model.h.row_slice(item as i64),
        MathMode::Exact,
    )
}

/// Oracle for [`MfQuery::Recommend`]: brute-force score of every item.
pub fn oracle_mf_recommend(model: &MfModel, user: u64, k: usize) -> Vec<(u64, f32)> {
    let w = model.w.row_slice(user as i64);
    let n_items = model.h.shape().dims()[0];
    let scored = (0..n_items)
        .map(|i| {
            (
                i,
                kernels::dot(w, model.h.row_slice(i as i64), MathMode::Exact),
            )
        })
        .collect();
    top_k_reference(scored, k)
}

// ---------------------------------------------------------------------------
// Sparse logistic regression: score a feature vector.
// ---------------------------------------------------------------------------

/// An SLR scoring query: the margin of one sparse sample (sum of the
/// weights at its active features, unit feature values — the same form
/// the trainer optimizes).
#[derive(Debug, Clone, PartialEq)]
pub struct SlrQuery {
    /// Active feature ids.
    pub features: Vec<u32>,
}

/// SLR serving model: `arrays()[0]` is the weight vector (1-D, width-1
/// rows); requests route by their first active feature.
pub struct SlrServe {
    arrays: Vec<ShardedArray<f32>>,
}

impl SlrServe {
    /// Shards a trained model's weights.
    pub fn from_model(model: &SlrModel, n_shards: usize) -> Self {
        SlrServe {
            arrays: vec![ShardedArray::from_array(&model.weights, n_shards)],
        }
    }

    /// Loads a weight checkpoint image.
    ///
    /// # Errors
    ///
    /// Any malformed image surfaces as [`CheckpointError::Corrupt`].
    pub fn from_checkpoint_bytes(wire: Bytes, n_shards: usize) -> Result<Self, CheckpointError> {
        Ok(SlrServe {
            arrays: vec![ShardedArray::from_checkpoint_bytes(wire, n_shards)?],
        })
    }

    /// Checkpoint image of a trained model's weights.
    pub fn checkpoint_bytes(model: &SlrModel) -> Bytes {
        checkpoint::to_bytes(&model.weights)
    }

    /// Features served.
    pub fn n_features(&self) -> u64 {
        self.arrays[0].n_rows()
    }
}

impl ServeModel for SlrServe {
    type Elem = f32;
    type Query = SlrQuery;
    type Answer = f32;

    fn arrays(&self) -> &[ShardedArray<f32>] {
        &self.arrays
    }

    fn answer(&self, query: &SlrQuery, ctx: &ServeCtx<'_, f32>) -> f32 {
        kernels::gather_sum(
            &query.features,
            |f| ctx.row(0, f as u64)[0],
            MathMode::Exact,
        )
    }
}

/// Oracle for [`SlrQuery`]: the same `Exact` gather-sum over the raw
/// weight array.
pub fn oracle_slr_score(model: &SlrModel, features: &[u32]) -> f32 {
    kernels::gather_sum(
        features,
        |f| *model.weights.get(&[f as i64]).expect("feature in range"),
        MathMode::Exact,
    )
}

// ---------------------------------------------------------------------------
// LDA: per-document topic histograms and per-topic top words.
// ---------------------------------------------------------------------------

/// A query against a trained LDA model.
#[derive(Debug, Clone, PartialEq)]
pub enum LdaQuery {
    /// The full topic histogram of one document (a row of `doc_topic`).
    DocTopics {
        /// Document row.
        doc: u64,
    },
    /// The `k` highest-count words of one topic (a column scan of
    /// `word_topic`).
    TopWords {
        /// Topic column.
        topic: usize,
        /// List length.
        k: usize,
    },
}

/// An LDA answer.
#[derive(Debug, Clone, PartialEq)]
pub enum LdaAnswer {
    /// A document's topic-count histogram.
    Histogram(Vec<u32>),
    /// `(word, count)` pairs, count descending then word ascending.
    TopK(Vec<(u64, u32)>),
}

/// LDA serving model: `arrays()[0]` is `doc_topic` (docs × topics, the
/// primary — requests route by document), `arrays()[1]` is `word_topic`
/// (vocab × topics).
pub struct LdaServe {
    arrays: Vec<ShardedArray<u32>>,
}

impl LdaServe {
    /// Shards a trained model: both arrays into the same number of
    /// shards, `n_shards` capped by each one's rows.
    ///
    /// # Panics
    ///
    /// Panics if the two arrays differ in topic count.
    pub fn from_model(model: &LdaModel, n_shards: usize) -> Self {
        let dt = ShardedArray::from_array(&model.dt, n_shards);
        let (dt, wt) = shard_pair(dt, |n| Ok(ShardedArray::from_array(&model.wt, n)))
            .expect("doc_topic and word_topic share the topic count");
        LdaServe {
            arrays: vec![dt, wt],
        }
    }

    /// Loads the two checkpoint images written by
    /// [`checkpoint_bytes`](Self::checkpoint_bytes).
    ///
    /// # Errors
    ///
    /// Any malformed image surfaces as [`CheckpointError::Corrupt`], and
    /// so does a pair whose topic counts differ.
    pub fn from_checkpoint_bytes(
        dt: Bytes,
        wt: Bytes,
        n_shards: usize,
    ) -> Result<Self, CheckpointError> {
        let dt = ShardedArray::from_checkpoint_bytes(dt, n_shards)?;
        let (dt, wt) = shard_pair(dt, |n| ShardedArray::from_checkpoint_bytes(wt, n))?;
        Ok(LdaServe {
            arrays: vec![dt, wt],
        })
    }

    /// Checkpoint images of a trained model, `(doc_topic, word_topic)`.
    pub fn checkpoint_bytes(model: &LdaModel) -> (Bytes, Bytes) {
        (
            checkpoint::to_bytes(&model.dt),
            checkpoint::to_bytes(&model.wt),
        )
    }

    /// Documents served.
    pub fn n_docs(&self) -> u64 {
        self.arrays[0].n_rows()
    }

    /// Topics.
    pub fn n_topics(&self) -> usize {
        self.arrays[0].width()
    }
}

impl ServeModel for LdaServe {
    type Elem = u32;
    type Query = LdaQuery;
    type Answer = LdaAnswer;

    fn arrays(&self) -> &[ShardedArray<u32>] {
        &self.arrays
    }

    fn answer(&self, query: &LdaQuery, ctx: &ServeCtx<'_, u32>) -> LdaAnswer {
        match query {
            LdaQuery::DocTopics { doc } => LdaAnswer::Histogram(ctx.row(0, *doc).to_vec()),
            LdaQuery::TopWords { topic, k } => {
                let mut top = TopK::new(*k, self.arrays[1].n_rows());
                for s in 0..ctx.n_shards(1) {
                    let shard = ctx.scan(1, s);
                    let rows = shard.values().chunks_exact(shard.width());
                    for (word, row) in (shard.rows().start..).zip(rows) {
                        top.push(word, row[*topic]);
                    }
                }
                LdaAnswer::TopK(top.into_sorted())
            }
        }
    }
}

/// Oracle for [`LdaQuery::DocTopics`]: the raw `doc_topic` row.
pub fn oracle_lda_doc_topics(model: &LdaModel, doc: u64) -> Vec<u32> {
    model.dt.row_slice(doc as i64).to_vec()
}

/// Oracle for [`LdaQuery::TopWords`]: brute-force scan of the
/// `word_topic` column.
pub fn oracle_lda_top_words(model: &LdaModel, topic: usize, k: usize) -> Vec<(u64, u32)> {
    let vocab = model.wt.shape().dims()[0];
    let scored = (0..vocab)
        .map(|w| (w, model.wt.row_slice(w as i64)[topic]))
        .collect();
    top_k_reference(scored, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_serve::{EngineConfig, ServeEngine};

    /// The streaming selector's answer, after checking that the
    /// sort-based reference gives the same ids and the same score bits
    /// (`rank` is `Equal` only then) and that `k` sized nothing.
    fn top_k<S: Score>(scored: &[(u64, S)], k: usize) -> Vec<(u64, S)> {
        let mut top = TopK::new(k, scored.len() as u64);
        assert_eq!(top.k, k.min(scored.len()), "slots follow the rows, not k");
        for &(id, score) in scored {
            top.push(id, score);
        }
        let got = top.into_sorted();
        let want = top_k_reference(scored.to_vec(), k);
        assert_eq!(got.len(), want.len(), "k = {k}");
        for (g, w) in got.iter().zip(&want) {
            assert!(g.0 == w.0 && g.1.rank(&w.1) == Ordering::Equal, "k = {k}");
        }
        got
    }

    #[test]
    fn top_k_breaks_ties_by_id() {
        let scored = [(3, 1.0f32), (1, 2.0), (2, 2.0), (0, 0.5)];
        assert_eq!(top_k(&scored, 3), vec![(1, 2.0), (2, 2.0), (3, 1.0)]);
        let counts = [(5, 7u32), (2, 9), (9, 9)];
        assert_eq!(top_k(&counts, 2), vec![(2, 9), (9, 9)]);

        // `total_cmp` order, not `partial_cmp`: +NaN above +∞, +0.0
        // above -0.0, -NaN below -∞; equal bits fall back to the id.
        let odd = [
            (0, -0.0f32),
            (1, f32::NEG_INFINITY),
            (2, f32::NAN),
            (3, 0.0),
            (4, -f32::NAN),
            (5, f32::INFINITY),
            (6, f32::NAN),
            (7, -0.0),
        ];
        let bits = |list: Vec<(u64, f32)>| -> Vec<(u64, u32)> {
            list.into_iter().map(|(i, s)| (i, s.to_bits())).collect()
        };
        let all = bits(top_k(&odd, odd.len()));
        let ids: Vec<u64> = all.iter().map(|p| p.0).collect();
        assert_eq!(ids, [2, 6, 5, 3, 0, 7, 1, 4]);
        // Every length a query can name, hostile ones included, is a
        // prefix of that list.
        for k in [0, 1, odd.len() - 1, odd.len(), odd.len() + 1, usize::MAX] {
            assert_eq!(bits(top_k(&odd, k)), all[..k.min(odd.len())], "k = {k}");
        }
        assert_eq!(top_k::<u32>(&[], usize::MAX), vec![]);
    }

    #[test]
    fn mf_predict_matches_oracle_bitwise() {
        let data = orion_data::RatingsData::generate(orion_data::RatingsConfig::tiny());
        let cfg = crate::sgd_mf::MfConfig::new(4);
        let run = crate::sgd_mf::MfRunConfig {
            cluster: orion_sim::ClusterSpec::new(2, 2),
            passes: 2,
            ordered: true,
        };
        let (model, _) = crate::sgd_mf::train_orion(&data, cfg, &run);
        let engine = ServeEngine::new(MfServe::from_model(&model, 3), EngineConfig::default());
        for user in 0..4u64 {
            for item in 0..4u64 {
                let got = match engine.answer(&MfQuery::Predict { user, item }) {
                    MfAnswer::Score(s) => s,
                    other => panic!("unexpected answer {other:?}"),
                };
                assert_eq!(
                    got.to_bits(),
                    oracle_mf_predict(&model, user, item).to_bits()
                );
            }
        }
    }
}
