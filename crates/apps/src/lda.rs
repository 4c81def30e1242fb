//! Latent Dirichlet Allocation by collapsed Gibbs sampling — the paper's
//! second major benchmark (Table 2: "2D Unordered, 1D"; Figs. 9–12).
//!
//! State: the doc–topic table `dt` (D × K), the word–topic table `wt`
//! (V × K), the topic-summary row `ts` (K), and per-token topic
//! assignments. The token loop iterates over `(doc, word)` cells of the
//! corpus; a cell reads/writes `dt[doc, :]` and `wt[word, :]` — the same
//! dependence shape as SGD MF, so Orion derives unordered 2-D
//! parallelization (documents = space, vocabulary = time/rotated). The
//! topic-summary row is read and written by *every* iteration; its
//! writes are exempted through a DistArray Buffer — the "non-critical
//! dependences in LDA" the paper deliberately violates (§6.3).
//!
//! Sampling decisions are seeded per `(pass, cell, occurrence)`, so any
//! serializable schedule produces exactly reproducible chains.

use std::sync::Arc;

use orion_core::{
    ClusterSpec, CompiledLoop, DistArray, Driver, FaultEvent, Indexed, LoopSpec, RunStats,
    Subscript,
};
use orion_data::CorpusData;
use orion_dsm::kernels;
use orion_ps::{PsApp, PsView, UpdateLog};

use crate::common::{by_role, cost, flat_table, mix64, row_u32, space_is_dim0, split_by_role};
use crate::run::{train, App, Engine, Pool, RunError};

/// LDA hyperparameters.
#[derive(Debug, Clone)]
pub struct LdaConfig {
    /// Number of topics K.
    pub n_topics: usize,
    /// Document–topic smoothing α.
    pub alpha: f32,
    /// Topic–word smoothing β.
    pub beta: f32,
    /// Initialization seed.
    pub seed: u64,
}

impl LdaConfig {
    /// Defaults used by the harnesses.
    pub fn new(n_topics: usize) -> Self {
        LdaConfig {
            n_topics,
            alpha: 0.1,
            beta: 0.01,
            seed: 11,
        }
    }
}

/// The Gibbs sampler state.
#[derive(Debug, Clone)]
pub struct LdaModel {
    /// Doc–topic counts, D × K.
    pub dt: DistArray<u32>,
    /// Word–topic counts, V × K.
    pub wt: DistArray<u32>,
    /// Topic totals, length K.
    pub ts: Vec<i64>,
    /// Topic assignment of every token occurrence, aligned with the
    /// corpus's cells in flat order (one inner vec per `(doc, word)`).
    pub z: Vec<Vec<u16>>,
    /// Hyperparameters.
    pub cfg: LdaConfig,
    /// Vocabulary size (for the β-sum in sampling weights).
    pub vocab: u64,
}

/// One `(doc, word)` cell of the token loop: its occurrence count and
/// its position in the table (the sampler's seed, carried so a pool
/// worker's body knows it).
#[derive(Debug, Clone, Copy)]
struct Cell {
    doc: u32,
    word: u32,
    count: u32,
    pos: u32,
}

impl Indexed for Cell {
    fn coord(&self, _: usize, dim: usize) -> i64 {
        [self.doc, self.word][dim].into()
    }
}

/// The token loop's iteration space: one walk of the frozen corpus
/// builds the cell table the loop is planned over.
fn cell_table(corpus: &CorpusData) -> Vec<Cell> {
    flat_table(&corpus.tokens, |pos, [d, w], &count| Cell {
        doc: row_u32(d),
        word: row_u32(w),
        count,
        pos: u32::try_from(pos).expect("cell position fits u32"),
    })
}

impl LdaModel {
    /// Initializes assignments uniformly at random (seeded by cell
    /// position) and builds the count tables consistently.
    fn init(corpus: &CorpusData, cells: &[Cell], cfg: LdaConfig) -> Self {
        let dims = corpus.tokens.shape().dims().to_vec();
        let (n_docs, vocab) = (dims[0], dims[1]);
        let k = cfg.n_topics;
        let mut dt = DistArray::dense("doc_topic", vec![n_docs, k as u64]);
        let mut wt = DistArray::dense("word_topic", vec![vocab, k as u64]);
        let mut ts = vec![0i64; k];
        let mut z = Vec::with_capacity(cells.len());
        for c in cells {
            let mut cell = Vec::with_capacity(c.count as usize);
            // Translate each count row to a flat base offset once per
            // cell; topic updates are then direct offsets into it.
            let dt_base = dt.flat_of(&[c.doc.into(), 0]).expect("doc id in range");
            let wt_base = wt.flat_of(&[c.word.into(), 0]).expect("word id in range");
            for occ in 0..c.count {
                let seed = cfg.seed ^ u64::from(c.pos) << 20 ^ u64::from(occ);
                let topic = (mix64(seed) % k as u64) as u16;
                cell.push(topic);
                dt.update_flat(dt_base + topic as u64, |c| *c += 1);
                wt.update_flat(wt_base + topic as u64, |c| *c += 1);
                ts[topic as usize] += 1;
            }
            z.push(cell);
        }
        LdaModel {
            dt,
            wt,
            ts,
            z,
            cfg,
            vocab,
        }
    }

    /// Negative per-token predictive log likelihood (lower is better) —
    /// the convergence metric of Figs. 9c/10c/11.
    fn neg_log_likelihood(&self, corpus: &CorpusData, cells: &[Cell]) -> f64 {
        let k = self.cfg.n_topics;
        let (alpha, beta) = (self.cfg.alpha as f64, self.cfg.beta as f64);
        let vbeta = self.vocab as f64 * beta;
        let kalpha = k as f64 * alpha;
        let doc_lens = corpus.tokens.histogram_along(0);
        let mut ll = 0.0f64;
        for c in cells {
            let dt_row = self.dt.row_slice(c.doc.into());
            let wt_row = self.wt.row_slice(c.word.into());
            let len_d = doc_lens[c.doc as usize] as f64;
            let mut p = 0.0f64;
            for t in 0..k {
                p += (dt_row[t] as f64 + alpha) / (len_d + kalpha) * (wt_row[t] as f64 + beta)
                    / (self.ts[t] as f64 + vbeta);
            }
            ll += c.count as f64 * p.max(1e-300).ln();
        }
        -ll / corpus.n_tokens as f64
    }
}

/// Resamples every occurrence of one `(doc, word)` cell.
///
/// `ts` is the *effective* topic-summary the worker sees (global for
/// serial execution, a worker-local copy under parallel execution —
/// the deliberately violated dependence). The decision sequence depends
/// only on `(pass, cell position, occurrence)`. `weights` is the topic
/// CDF's scratch, `n_topics` long; each occurrence overwrites it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gibbs_cell(
    cfg: &LdaConfig,
    vocab: u64,
    dt_row: &mut [u32],
    wt_row: &mut [u32],
    ts: &mut [i64],
    zs: &mut [u16],
    weights: &mut [f64],
    pass: u64,
    cell_pos: usize,
) {
    let k = cfg.n_topics;
    let (alpha, beta) = (cfg.alpha as f64, cfg.beta as f64);
    let vbeta = vocab as f64 * beta;
    for (occ, zslot) in zs.iter_mut().enumerate() {
        let old = *zslot as usize;
        dt_row[old] -= 1;
        wt_row[old] -= 1;
        ts[old] -= 1;
        // The count-histogram weight loop, vectorized behind the kernel
        // dispatch (bit-identical to the fused form for every input).
        let total = kernels::topic_cdf(dt_row, wt_row, ts, alpha, beta, vbeta, weights);
        let u = (mix64(pass.wrapping_mul(0x9E37_79B9) ^ (cell_pos as u64) << 24 ^ occ as u64)
            as f64
            / u64::MAX as f64)
            * total;
        let new = weights.partition_point(|&c| c < u).min(k - 1);
        *zslot = new as u16;
        dt_row[new] += 1;
        wt_row[new] += 1;
        ts[new] += 1;
    }
}

/// Run configuration for LDA.
#[derive(Debug, Clone)]
pub struct LdaRunConfig {
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Gibbs passes.
    pub passes: u64,
    /// Preserve lexicographic order.
    pub ordered: bool,
}

/// LDA as an [`App`]: `dt` local by document, `wt` rotated by word,
/// `ts` worker-local with buffered write-back at pass boundaries.
#[derive(Debug, Clone)]
pub struct LdaApp {
    /// Hyperparameters.
    pub cfg: LdaConfig,
    /// Preserve lexicographic order.
    pub ordered: bool,
}

/// What [`LdaApp`]'s setup builds: the sampler state and the cell
/// table, the job's only copy of the iteration space.
#[derive(Debug)]
pub struct LdaJob {
    model: LdaModel,
    cells: Arc<Vec<Cell>>,
}

/// Scratch a pool worker carries through one threaded LDA pass: its
/// local topic summary plus the assignments of its cells in execution
/// order, consumed through `cursor`.
struct LdaThreadScratch {
    ts: Vec<i64>,
    z: Vec<Vec<u16>>,
    cursor: usize,
    weights: Vec<f64>,
}

impl App for LdaApp {
    type Data = CorpusData;
    type Model = LdaModel;
    type Job = LdaJob;

    const NAME: &'static str = "lda";

    fn setup(&self, corpus: &CorpusData, driver: &mut Driver) -> (CompiledLoop, LdaJob) {
        let cells = cell_table(corpus);
        let dims = corpus.tokens.shape().dims().to_vec();
        let model = LdaModel::init(corpus, &cells, self.cfg.clone());
        let k = model.cfg.n_topics;
        let tokens = driver.register(&corpus.tokens);
        let dt = driver.register(&model.dt);
        let wt = driver.register(&model.wt);
        let ts_arr: DistArray<i64> = DistArray::dense("topic_sum", vec![k as u64]);
        let ts = driver.register(&ts_arr);
        driver.set_served_reads_per_iter(0.25);
        let b = LoopSpec::builder("lda_gibbs", tokens, dims)
            .read_write(dt, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(wt, vec![Subscript::loop_index(1), Subscript::Full])
            .read(ts, vec![Subscript::Full])
            .write(ts, vec![Subscript::Full])
            .buffer_writes(ts);
        let b = if self.ordered { b.ordered() } else { b };
        let spec = b.build().expect("static LDA spec is valid");
        let compiled = driver
            .parallel_for(spec, &cells)
            .expect("LDA loop parallelizes");
        let job = LdaJob {
            model,
            cells: Arc::new(cells),
        };
        (compiled, job)
    }

    fn sim_pass(
        &self,
        _corpus: &CorpusData,
        job: &mut LdaJob,
        driver: &mut Driver,
        compiled: &CompiledLoop,
        pass: u64,
    ) -> Option<FaultEvent> {
        let LdaModel {
            dt,
            wt,
            ts,
            z,
            cfg,
            vocab,
        } = &mut job.model;
        let cells = &job.cells;
        // Worker-local topic summaries: snapshot + local updates; merged
        // at the pass boundary (the buffered-write application).
        let snapshot = ts.clone();
        let mut local_ts: Vec<Vec<i64>> = vec![snapshot.clone(); compiled.schedule.n_workers];
        let token_ns = cost::lda_token_ns(cfg.n_topics);
        let cell_ns = |pos: usize| token_ns * cells[pos].count as f64 * cost::ORION_OVERHEAD;
        let mut weights = vec![0.0f64; cfg.n_topics];
        let (_, fault) = driver.run_pass(compiled, &mut |pos| cell_ns(pos), &mut |w, pos| {
            let Cell { doc, word, .. } = cells[pos];
            gibbs_cell(
                cfg,
                *vocab,
                dt.row_slice_mut(doc.into()),
                wt.row_slice_mut(word.into()),
                &mut local_ts[w],
                &mut z[pos],
                &mut weights,
                pass,
                pos,
            );
        });
        // Apply buffered summary deltas.
        for lt in &local_ts {
            for (t, snap) in snapshot.iter().enumerate() {
                ts[t] += lt[t] - snap;
            }
        }
        fault
    }

    fn metric(&self, corpus: &CorpusData, job: &LdaJob) -> f64 {
        job.model.neg_log_likelihood(corpus, &job.cells)
    }

    fn into_model(job: LdaJob) -> LdaModel {
        job.model
    }

    /// Same schedule, same sampling decisions as the simulated pass, but
    /// executed by OS threads with pipelined rotation of the word–topic
    /// partitions.
    fn pooled(
        &self,
        corpus: &CorpusData,
        job: LdaJob,
        pool: &mut Pool<'_>,
        passes: u64,
    ) -> Result<LdaModel, RunError> {
        let LdaJob { mut model, cells } = job;
        let (compiled, plan) = (pool.compiled, Arc::clone(&pool.plan));
        let positions = plan.worker_positions();
        // The analyzer is free to pick either loop dimension as space: the
        // array subscripted by the space dimension is worker-local, the
        // other rotates. Map `dt` (docs, loop dim 0) and `wt` (words, loop
        // dim 1) accordingly.
        let space_is_docs = space_is_dim0(compiled);
        let (mut space_parts, mut time_parts) = split_by_role(compiled, model.dt, model.wt);
        let vocab = model.vocab;

        for pass in 0..passes {
            let snapshot = model.ts.clone();
            // Shard the assignments: each worker takes ownership of its
            // cells' z vectors in execution order and walks them by cursor.
            let scratch = positions
                .iter()
                .map(|ps| LdaThreadScratch {
                    ts: snapshot.clone(),
                    z: ps
                        .iter()
                        .map(|&p| std::mem::take(&mut model.z[p as usize]))
                        .collect(),
                    cursor: 0,
                    weights: vec![0.0; model.cfg.n_topics],
                })
                .collect();
            let cfg = model.cfg.clone();
            let body = Arc::new(
                move |&Cell { doc, word, pos, .. }: &Cell,
                      ap: &mut DistArray<u32>,
                      bp: &mut DistArray<u32>,
                      sc: &mut LdaThreadScratch| {
                    let cur = sc.cursor;
                    sc.cursor += 1;
                    let LdaThreadScratch { ts, z, weights, .. } = sc;
                    let (dp, wp) = by_role(space_is_docs, ap, bp);
                    gibbs_cell(
                        &cfg,
                        vocab,
                        dp.row_slice_mut(doc.into()),
                        wp.row_slice_mut(word.into()),
                        ts,
                        &mut z[cur],
                        weights,
                        pass,
                        pos as usize,
                    );
                },
            );
            let out = pool.driver.run_pass_threaded(
                &compiled.spec.name,
                &plan,
                &cells,
                space_parts,
                time_parts,
                scratch,
                &body,
            );
            space_parts = out.space;
            time_parts = out.time;
            // Return the assignments and merge the buffered summary deltas
            // in worker order, exactly like the simulated pass.
            for (w, sc) in out.scratch.into_iter().enumerate() {
                for (&p, zcell) in positions[w].iter().zip(sc.z) {
                    model.z[p as usize] = zcell;
                }
                for (t, snap) in snapshot.iter().enumerate() {
                    model.ts[t] += sc.ts[t] - snap;
                }
            }
            let (dt_parts, wt_parts) = by_role(space_is_docs, &space_parts, &time_parts);
            // A per-item sum (cell terms folded from `0.0`, divided once),
            // but a serial readout of a snapshot merged from the partitions
            // where they sit until LDA reads through `eval_pass` (item 21).
            let snap = LdaModel {
                dt: DistArray::merge_along_ref(0, dt_parts),
                wt: DistArray::merge_along_ref(0, wt_parts),
                ts: model.ts.clone(),
                z: Vec::new(),
                cfg: model.cfg.clone(),
                vocab,
            };
            pool.record(pass, snap.neg_log_likelihood(corpus, &cells));
        }
        let (dt_parts, wt_parts) = by_role(space_is_docs, space_parts, time_parts);
        model.dt = DistArray::merge_along(0, dt_parts);
        model.wt = DistArray::merge_along(0, wt_parts);
        Ok(model)
    }
}

/// Trains with Orion's automatic parallelization on the simulated
/// cluster.
pub fn train_orion(
    corpus: &CorpusData,
    cfg: LdaConfig,
    run: &LdaRunConfig,
) -> (LdaModel, RunStats) {
    let app = LdaApp {
        cfg,
        ordered: run.ordered,
    };
    train(&app, corpus, Engine::Sim(run.cluster.clone()), run.passes)
}

/// Trains serially: one worker, globally fresh topic summary. On one
/// worker the local summary *is* the global one and merging is exact,
/// so the parallel runner degenerates to true serial execution (minus
/// the Orion abstraction overhead, handled by the caller's
/// interpretation).
pub fn train_serial(corpus: &CorpusData, cfg: LdaConfig, passes: u64) -> (LdaModel, RunStats) {
    let app = LdaApp {
        cfg,
        ordered: false,
    };
    train(&app, corpus, Engine::Sim(ClusterSpec::serial()), passes)
}

/// Adapter for Bösen-style data-parallel LDA: `wt` and `ts` live on the
/// parameter server as counts (stale between syncs); `dt` and the
/// assignments are worker-local state (documents are sharded), which the
/// engine's sequential execution keeps exact.
pub struct LdaPsAdapter {
    cells: Vec<Cell>,
    state: std::cell::RefCell<LdaPsState>,
    k: usize,
    vocab: usize,
    cfg: LdaConfig,
    doc_lens: Vec<u64>,
    n_tokens: u64,
}

struct LdaPsState {
    dt: Vec<u32>,
    z: Vec<Vec<u16>>,
    pass_of_item: Vec<u64>,
}

impl LdaPsAdapter {
    /// Builds the adapter with the same seeded initialization as
    /// [`LdaApp`]'s setup.
    pub fn new(corpus: &CorpusData, cfg: LdaConfig) -> Self {
        let cells = cell_table(corpus);
        let model = LdaModel::init(corpus, &cells, cfg.clone());
        LdaPsAdapter {
            state: std::cell::RefCell::new(LdaPsState {
                dt: model.dt.dense_values().to_vec(),
                z: model.z,
                pass_of_item: vec![0; cells.len()],
            }),
            cells,
            k: cfg.n_topics,
            vocab: model.vocab as usize,
            cfg,
            doc_lens: corpus.tokens.histogram_along(0),
            n_tokens: corpus.n_tokens,
        }
    }
}

impl PsApp for LdaPsAdapter {
    fn n_params(&self) -> usize {
        (self.vocab + 1) * self.k
    }

    /// Initial word–topic + summary parameters consistent with the
    /// assignments.
    fn init_params(&self) -> Vec<f32> {
        let mut p = vec![0f32; self.n_params()];
        let state = self.state.borrow();
        for (c, zs) in self.cells.iter().zip(&state.z) {
            for &t in zs {
                p[c.word as usize * self.k + t as usize] += 1.0;
                p[self.vocab * self.k + t as usize] += 1.0;
            }
        }
        p
    }

    fn n_items(&self) -> usize {
        self.cells.len()
    }

    fn item_cost_ns(&self, item: usize) -> f64 {
        cost::lda_token_ns(self.k) * self.cells[item].count as f64
    }

    fn update(&self, item: usize, view: &PsView<'_>, out: &mut UpdateLog) {
        let Cell { doc, word, .. } = self.cells[item];
        let (d, w) = (doc as usize, word as usize);
        let k = self.k;
        let (alpha, beta) = (self.cfg.alpha as f64, self.cfg.beta as f64);
        let vbeta = self.vocab as f64 * beta;
        let mut st = self.state.borrow_mut();
        let pass = st.pass_of_item[item];
        st.pass_of_item[item] += 1;
        let mut weights = vec![0.0f64; k];
        let zs_len = st.z[item].len();
        for occ in 0..zs_len {
            let old = st.z[item][occ] as usize;
            st.dt[d * k + old] -= 1;
            out.add((w * k + old) as u32, -1.0);
            out.add((self.vocab * k + old) as u32, -1.0);
            let mut total = 0.0f64;
            for (t, slot) in weights.iter_mut().enumerate() {
                let wt_c =
                    (view.get((w * k + t) as u32) + out.get((w * k + t) as u32)).max(0.0) as f64;
                let ts_c = (view.get((self.vocab * k + t) as u32)
                    + out.get((self.vocab * k + t) as u32))
                .max(0.0) as f64;
                let wgt = (st.dt[d * k + t] as f64 + alpha) * (wt_c + beta) / (ts_c + vbeta);
                total += wgt;
                *slot = total;
            }
            let u = (mix64(pass.wrapping_mul(0x9E37_79B9) ^ (item as u64) << 24 ^ occ as u64)
                as f64
                / u64::MAX as f64)
                * total;
            let new = weights.partition_point(|&c| c < u).min(k - 1);
            st.z[item][occ] = new as u16;
            st.dt[d * k + new] += 1;
            out.add((w * k + new) as u32, 1.0);
            out.add((self.vocab * k + new) as u32, 1.0);
        }
    }

    fn loss(&self, params: &[f32]) -> f64 {
        let k = self.k;
        let (alpha, beta) = (self.cfg.alpha as f64, self.cfg.beta as f64);
        let vbeta = self.vocab as f64 * beta;
        let kalpha = k as f64 * alpha;
        let st = self.state.borrow();
        let mut ll = 0.0f64;
        for c in &self.cells {
            let (d, w) = (c.doc as usize, c.word as usize);
            let len_d = self.doc_lens[d] as f64;
            let mut p = 0.0f64;
            for t in 0..k {
                p += (st.dt[d * k + t] as f64 + alpha) / (len_d + kalpha)
                    * (params[w * k + t].max(0.0) as f64 + beta)
                    / (params[self.vocab * k + t].max(0.0) as f64 + vbeta);
            }
            ll += c.count as f64 * p.max(1e-300).ln();
        }
        -ll / self.n_tokens as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_data::CorpusConfig;

    fn corpus() -> CorpusData {
        CorpusData::generate(CorpusConfig::tiny())
    }

    #[test]
    fn init_counts_are_consistent() {
        let c = corpus();
        let m = LdaModel::init(&c, &cell_table(&c), LdaConfig::new(4));
        let total_dt: u64 = (0..c.config.n_docs as i64)
            .flat_map(|d| {
                m.dt.row_slice(d)
                    .iter()
                    .map(|&x| x as u64)
                    .collect::<Vec<_>>()
            })
            .sum();
        let total_ts: i64 = m.ts.iter().sum();
        assert_eq!(total_dt, c.n_tokens);
        assert_eq!(total_ts as u64, c.n_tokens);
    }

    #[test]
    fn serial_gibbs_improves_likelihood() {
        let c = corpus();
        let (_, stats) = train_serial(&c, LdaConfig::new(4), 12);
        let first = stats.progress[0].metric;
        let last = stats.final_metric().unwrap();
        assert!(
            last < first - 0.05,
            "NLL should drop: first {first}, last {last}"
        );
    }

    #[test]
    fn counts_stay_consistent_after_training() {
        let c = corpus();
        let run = LdaRunConfig {
            cluster: ClusterSpec::new(2, 2),
            passes: 3,
            ordered: false,
        };
        let (m, _) = train_orion(&c, LdaConfig::new(4), &run);
        let total_ts: i64 = m.ts.iter().sum();
        assert_eq!(total_ts as u64, c.n_tokens, "topic totals conserved");
        let total_wt: u64 = (0..c.config.vocab as i64)
            .flat_map(|w| {
                m.wt.row_slice(w)
                    .iter()
                    .map(|&x| x as u64)
                    .collect::<Vec<_>>()
            })
            .sum();
        assert_eq!(total_wt, c.n_tokens, "word-topic counts conserved");
    }

    #[test]
    fn orion_parallel_tracks_serial_convergence() {
        let c = corpus();
        let passes = 8;
        let (_, serial) = train_serial(&c, LdaConfig::new(4), passes);
        let run = LdaRunConfig {
            cluster: ClusterSpec::new(4, 2),
            passes,
            ordered: false,
        };
        let (_, par) = train_orion(&c, LdaConfig::new(4), &run);
        let ls = serial.final_metric().unwrap();
        let lp = par.final_metric().unwrap();
        assert!(
            (ls - lp).abs() / ls.abs() < 0.05,
            "parallel NLL {lp} strays from serial {ls}"
        );
    }

    #[test]
    fn ps_lda_converges_but_slower_per_pass() {
        let c = corpus();
        let passes = 8;
        let (_, orion) = train_orion(
            &c,
            LdaConfig::new(4),
            &LdaRunConfig {
                cluster: ClusterSpec::new(4, 2),
                passes,
                ordered: false,
            },
        );
        let ps_cfg = orion_ps::PsConfig::vanilla(ClusterSpec::new(4, 2), 1.0);
        let mut ps = orion_ps::PsEngine::new(LdaPsAdapter::new(&c, LdaConfig::new(4)), ps_cfg);
        for _ in 0..passes {
            ps.run_pass();
        }
        let stats = ps.finish();
        let first = stats.progress[0].metric;
        let last = stats.final_metric().unwrap();
        assert!(last < first, "PS LDA should still improve");
        assert!(
            orion.final_metric().unwrap() <= last + 0.02,
            "dependence-aware should converge at least as fast per pass"
        );
    }

    #[test]
    fn gibbs_cell_preserves_count_invariants() {
        let cfg = LdaConfig::new(4);
        let mut dt = vec![2u32, 1, 1, 3];
        let mut wt = vec![2u32, 1, 1, 3];
        let mut ts = vec![10i64, 8, 5, 7];
        let mut zs = vec![0u16, 0, 1, 3, 3, 3];
        let dt_sum: u32 = dt.iter().sum();
        let wt_sum: u32 = wt.iter().sum();
        let ts_sum: i64 = ts.iter().sum();
        let mut w = [0.0; 4];
        gibbs_cell(&cfg, 120, &mut dt, &mut wt, &mut ts, &mut zs, &mut w, 0, 0);
        assert_eq!(dt.iter().sum::<u32>(), dt_sum);
        assert_eq!(wt.iter().sum::<u32>(), wt_sum);
        assert_eq!(ts.iter().sum::<i64>(), ts_sum);
        // Assignments must agree with what was moved.
        assert_eq!(zs.len(), 6);
    }
}
