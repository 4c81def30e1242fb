//! SGD matrix factorization — the paper's running example (Alg. 1,
//! Figs. 5/6) and primary benchmark (Figs. 9–11, 13).
//!
//! Given a sparse ratings matrix `V` and rank `r`, find `W` (users × r)
//! and `H` (items × r) minimizing nonzero squared loss. The training
//! loop iterates over observed ratings; each iteration reads and writes
//! one row of `W` and one row of `H`, giving the dependence vectors
//! `{(0, +∞), (+∞, 0)}` and unordered-2D parallelization with the
//! smaller factor matrix rotating.
//!
//! [`MfApp`] runs on every engine of [`crate::run`] (ordered or
//! unordered, with or without adaptive revision on the simulated one);
//! baselines: Bösen-style data parallelism ([`MfPsAdapter`]) and
//! TensorFlow-style mini-batch dataflow ([`MfDataflowAdapter`]).

use std::sync::Arc;

use orion_core::{
    ClusterSpec, CompiledLoop, DistArray, Driver, FaultEvent, LoopSpec, MathMode, RunStats,
    Subscript, TuneConfig, TuneOutcome,
};
use orion_data::RatingsData;
use orion_dsm::{kernels, Element};
use orion_ps::{PsApp, PsView, UpdateLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{by_role, cost, raw_row, space_is_dim0, split_by_role};
use crate::distributed::DistOptions;
use crate::run::{train, unsupported, App, Engine, Pool, RunError, RunOutput};

/// SGD MF hyperparameters.
#[derive(Debug, Clone)]
pub struct MfConfig {
    /// Factorization rank.
    pub rank: usize,
    /// SGD step size.
    pub step_size: f32,
    /// AdaGrad-style per-row adaptive step (the serializable incarnation
    /// of adaptive revision \[34\]; under dependence-preserving execution
    /// there are no delayed updates to revise).
    pub adaptive: bool,
    /// Initialization seed.
    pub seed: u64,
    /// Floating-point reduction policy for the inner dot products.
    /// `Exact` (the default) keeps bit-identity with the serial seed;
    /// `FastMath` opts into vectorized multi-accumulator reductions
    /// (deterministic, differently associated — validated by the
    /// convergence-equivalence tests).
    pub math: MathMode,
}

impl MfConfig {
    /// Defaults matching the benchmark harnesses.
    pub fn new(rank: usize) -> Self {
        MfConfig {
            rank,
            step_size: 0.05,
            adaptive: false,
            seed: 7,
            math: MathMode::Exact,
        }
    }

    /// Opts this run into [`MathMode::FastMath`] reductions.
    pub fn fast_math(mut self) -> Self {
        self.math = MathMode::FastMath;
        self
    }
}

/// The factor matrices plus adaptive accumulators.
#[derive(Debug, Clone)]
pub struct MfModel {
    /// User factors, users × rank.
    pub w: DistArray<f32>,
    /// Item factors, items × rank.
    pub h: DistArray<f32>,
    /// Per-user squared-gradient accumulators (adaptive mode).
    pub wz2: Vec<f32>,
    /// Per-item squared-gradient accumulators (adaptive mode).
    pub hz2: Vec<f32>,
    /// Hyperparameters.
    pub cfg: MfConfig,
}

impl MfModel {
    /// Randomly initializes factors (`Orion.randn` of Fig. 5).
    pub fn new(n_users: u64, n_items: u64, cfg: MfConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let scale = 1.0 / (cfg.rank as f32).sqrt();
        let sample = |rng: &mut StdRng| -> f32 {
            // Uniform in [-scale, scale): adequate symmetric init.
            (rng.random::<f32>() * 2.0 - 1.0) * scale
        };
        let w = DistArray::dense_from_fn("W", vec![n_users, cfg.rank as u64], |_| sample(&mut rng));
        let h = DistArray::dense_from_fn("H", vec![n_items, cfg.rank as u64], |_| sample(&mut rng));
        MfModel {
            w,
            h,
            wz2: vec![0.0; n_users as usize],
            hz2: vec![0.0; n_items as usize],
            cfg,
        }
    }

    /// [`MfModel::new`] sized for `data`'s ratings matrix.
    pub(crate) fn for_data(data: &RatingsData, cfg: MfConfig) -> Self {
        let dims = data.ratings.shape().dims();
        MfModel::new(dims[0], dims[1], cfg)
    }

    /// Squared prediction error of one rating under the current factors.
    pub fn sq_err(&self, u: i64, i: i64, v: f32) -> f64 {
        sq_err_rows(self.w.row_slice(u), self.h.row_slice(i), v, self.cfg.math)
    }

    /// Nonzero squared training loss over the items.
    pub fn loss(&self, items: &[(Vec<i64>, f32)]) -> f64 {
        items
            .iter()
            .map(|(idx, v)| self.sq_err(idx[0], idx[1], *v))
            .sum()
    }

    /// [`MfModel::loss`] over flat triples: the same terms in the same
    /// order, so the same bits.
    fn triples_loss(&self, triples: &[(u32, u32, f32)]) -> f64 {
        triples
            .iter()
            .map(|&(u, i, v)| self.sq_err(u as i64, i as i64, v))
            .sum()
    }

    /// One SGD update (the loop body of Fig. 5). Returns the pre-update
    /// squared error.
    pub fn sgd_update(&mut self, u: i64, i: i64, v: f32) -> f64 {
        let step = self.effective_step(u, i, v);
        kernels::mf_row_update(
            self.w.row_slice_mut(u),
            self.h.row_slice_mut(i),
            v,
            step,
            self.cfg.math,
        )
    }

    /// The (possibly adaptive) step for one rating, updating the
    /// accumulators in adaptive mode.
    fn effective_step(&mut self, u: i64, i: i64, v: f32) -> f32 {
        if !self.cfg.adaptive {
            return self.cfg.step_size;
        }
        let diff = v - kernels::dot(self.w.row_slice(u), self.h.row_slice(i), self.cfg.math);
        let g2 = (diff * diff).min(1e6);
        self.wz2[u as usize] += g2;
        self.hz2[i as usize] += g2;
        let z = (self.wz2[u as usize] + self.hz2[i as usize]) * 0.5;
        // A gentler-than-AdaGrad decay (quartic root): under serializable
        // execution there are no delayed updates to damp, so the adaptive
        // rule only normalizes per-row step sizes.
        self.cfg.step_size * 4.0 / (1.0 + z).powf(0.25)
    }
}

/// Squared prediction error of one rating on raw rows — the one loss
/// term every readout (serial or pooled) sums.
fn sq_err_rows(w_row: &[f32], h_row: &[f32], v: f32, math: MathMode) -> f64 {
    ((v - kernels::dot(w_row, h_row, math)) as f64).powi(2)
}

/// Dot product of two equal-length rows, in exact (seed-bit-identical)
/// reduction order. Mode-aware callers go through
/// [`orion_dsm::kernels::dot`] directly.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    kernels::dot(a, b, MathMode::Exact)
}

/// The core SGD MF update on raw rows: `W_row -= step * grad_w`,
/// `H_row -= step * grad_h` (Alg. 1). Returns the pre-update squared
/// error. Shared by every engine (serial, simulated, threaded, PS);
/// delegates to [`orion_dsm::kernels::mf_row_update`] in exact mode.
pub fn mf_update(w_row: &mut [f32], h_row: &mut [f32], v: f32, step: f32) -> f64 {
    kernels::mf_row_update(w_row, h_row, v, step, MathMode::Exact)
}

/// How a run is labeled, sized and ordered.
#[derive(Debug, Clone)]
pub struct MfRunConfig {
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Data passes to run.
    pub passes: u64,
    /// Preserve lexicographic iteration order (`ordered` argument of
    /// `@parallel_for`).
    pub ordered: bool,
}

/// SGD MF as an [`App`]: the hyperparameters plus the `ordered`
/// argument of `@parallel_for`.
///
/// Only the simulated engine runs the adaptive update: its `wz2`/`hz2`
/// accumulators are neither partitioned nor checkpointed, so chaos
/// recovery, the threaded engine and the TCP cluster are
/// [`RunError::Unsupported`] in adaptive mode.
#[derive(Debug, Clone)]
pub struct MfApp {
    /// Hyperparameters.
    pub cfg: MfConfig,
    /// Preserve lexicographic iteration order.
    pub ordered: bool,
    /// Per-iteration cost factor over the plain serial program.
    overhead: f64,
}

impl MfApp {
    /// MF under Orion's abstraction (Fig. 9a: one Orion worker is a bit
    /// slower than the serial program).
    pub fn new(cfg: MfConfig, ordered: bool) -> Self {
        MfApp {
            cfg,
            ordered,
            overhead: cost::ORION_OVERHEAD,
        }
    }
}

/// What [`MfApp`]'s setup builds: the model and the flat rating records.
#[derive(Debug)]
pub struct MfJob {
    pub(crate) model: MfModel,
    /// Flat (user, item, rating) triples in ratings order, shared with
    /// every worker — the job's only copy of the iteration space: the
    /// hot loops read one contiguous record, no per-item index Vec. The
    /// pass and the readout stream all of them through each worker's
    /// cache every epoch, so the record is kept to 12 bytes.
    pub(crate) triples: Arc<Vec<(u32, u32, f32)>>,
    iter_ns: f64,
}

/// The MF step in partition form — what a pool worker and a cluster
/// node run against the `(space, time)` partitions they hold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MfGrid {
    /// On wide matrices items are the space dimension: `H` is pinned
    /// per worker and `W` rotates.
    pub(crate) space_is_users: bool,
    step: f32,
    mode: MathMode,
}

impl MfGrid {
    pub(crate) fn new(compiled: &CompiledLoop, model: &MfModel, mode: MathMode) -> Self {
        MfGrid {
            space_is_users: space_is_dim0(compiled),
            step: model.cfg.step_size,
            mode,
        }
    }

    #[inline]
    pub(crate) fn update(
        &self,
        &(u, i, v): &(u32, u32, f32),
        sp: &mut DistArray<f32>,
        tp: &mut DistArray<f32>,
    ) {
        let (wp, hp) = by_role(self.space_is_users, sp, tp);
        kernels::mf_row_update(
            wp.row_slice_mut(u as i64),
            hp.row_slice_mut(i as i64),
            v,
            self.step,
            self.mode,
        );
    }
}

impl App for MfApp {
    type Data = RatingsData;
    type Model = MfModel;
    type Job = MfJob;

    const NAME: &'static str = "sgd_mf";

    fn math(&self) -> MathMode {
        self.cfg.math
    }

    fn setup(&self, data: &RatingsData, driver: &mut Driver) -> (CompiledLoop, MfJob) {
        let model = MfModel::for_data(data, self.cfg.clone());
        // One walk of the frozen ratings builds the triples and the
        // loop indices `parallel_for` plans over (one division per
        // rating yields both coordinates); the indices go once the loop
        // is compiled.
        let n_items = data.ratings.shape().dims()[1];
        let row = |c: u64| u32::try_from(c).expect("factor row index fits u32");
        let (indices, triples): (Vec<[i64; 2]>, Vec<_>) = data
            .ratings
            .iter_flat()
            .map(|(flat, &v)| {
                let (u, i) = (flat / n_items, flat % n_items);
                ([u as i64, i as i64], (row(u), row(i), v))
            })
            .unzip();
        let z = driver.register(&data.ratings);
        let w = driver.register(&model.w);
        let h = driver.register(&model.h);
        let dims = data.ratings.shape().dims().to_vec();
        let b = LoopSpec::builder("sgd_mf", z, dims)
            .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h, vec![Subscript::loop_index(1), Subscript::Full]);
        let b = if self.ordered { b.ordered() } else { b };
        let spec = b.build().expect("static MF spec is valid");
        let compiled = driver
            .parallel_for(spec, &indices)
            .expect("MF loop parallelizes");
        let job = MfJob {
            iter_ns: cost::mf_iter_ns(model.cfg.rank) * self.overhead,
            model,
            triples: Arc::new(triples),
        };
        (compiled, job)
    }

    fn sim_pass(
        &self,
        _data: &RatingsData,
        job: &mut MfJob,
        driver: &mut Driver,
        compiled: &CompiledLoop,
        _pass: u64,
    ) -> Option<FaultEvent> {
        let MfJob {
            model,
            triples,
            iter_ns,
            ..
        } = job;
        let (_, fault) = driver.run_pass_checked(compiled, &mut |_pos| *iter_ns, &mut |_w, pos| {
            let (u, i, v) = triples[pos];
            model.sgd_update(u as i64, i as i64, v);
        });
        fault
    }

    fn metric(&self, _data: &RatingsData, job: &MfJob) -> f64 {
        job.model.triples_loss(&job.triples)
    }

    fn into_model(job: MfJob) -> MfModel {
        job.model
    }

    /// The factor of the planned space dimension (`W` on tall matrices,
    /// `H` on wide ones) is pinned per worker, partitions of the other
    /// rotate zero-copy through channels (Fig. 8 pipelining), and the
    /// per-pass loss is read on the same pool (§3.4 accumulator).
    fn pooled(
        &self,
        _data: &RatingsData,
        job: MfJob,
        pool: &mut Pool<'_>,
        passes: u64,
    ) -> Result<MfModel, RunError> {
        if self.cfg.adaptive {
            return Err(unsupported::<Self>("threads", "adaptive"));
        }
        let MfJob {
            mut model, triples, ..
        } = job;
        let (compiled, plan) = (pool.compiled, Arc::clone(&pool.plan));
        let grid = MfGrid::new(compiled, &model, pool.driver.math_mode());
        let MfGrid {
            space_is_users,
            mode,
            ..
        } = grid;
        let (mut space_parts, mut time_parts) = split_by_role(compiled, model.w, model.h);
        let body = Arc::new(
            move |t: &(u32, u32, f32),
                  sp: &mut DistArray<f32>,
                  tp: &mut DistArray<f32>,
                  _: &mut ()| grid.update(t, sp, tp),
        );
        // The loss term on raw rows of the merged model.
        let sq_err = Arc::new(move |&(u, i, v): &(u32, u32, f32), m: &MfModel| {
            let r = m.cfg.rank;
            let (w, h) = (raw_row(&m.w, u as usize, r), raw_row(&m.h, i as usize, r));
            sq_err_rows(w, h, v, mode)
        });
        let n_workers = plan.n_workers();
        for pass in 0..passes {
            let out = pool.driver.run_pass_threaded(
                &compiled.spec.name,
                &plan,
                &triples,
                space_parts,
                time_parts,
                vec![(); n_workers],
                &body,
            );
            space_parts = out.space;
            time_parts = out.time;
            // The loss is read on the pool against the model merged once
            // from the partitions; validation re-reads it serially. The
            // fold starts where `Iterator::sum` does.
            let (w_parts, h_parts) = by_role(space_is_users, &space_parts, &time_parts);
            let snap = Arc::new(MfModel {
                w: DistArray::merge_along_ref(0, w_parts),
                h: DistArray::merge_along_ref(0, h_parts),
                wz2: Vec::new(),
                hz2: Vec::new(),
                cfg: model.cfg.clone(),
            });
            let serial = || snap.triples_loss(&triples);
            let loss = pool
                .driver
                .eval_pass(&plan, &triples, &snap, &sq_err, -0.0, serial);
            pool.record(pass, loss);
        }
        let (w_parts, h_parts) = by_role(space_is_users, space_parts, time_parts);
        model.w = DistArray::merge_along(0, w_parts);
        model.h = DistArray::merge_along(0, h_parts);
        Ok(model)
    }

    fn tune(
        &self,
        job: &MfJob,
        driver: &mut Driver,
        compiled: &CompiledLoop,
        cfg: &TuneConfig,
    ) -> Result<(CompiledLoop, TuneOutcome), RunError> {
        let index = |&(u, i, _): &(u32, u32, f32)| [u as i64, i as i64];
        let indices: Vec<[i64; 2]> = job.triples.iter().map(index).collect();
        Ok(driver.tune_loop(compiled, &indices, cfg, &mut |_pos| job.iter_ns))
    }

    fn checkpointed<'a>(
        &self,
        job: &'a mut MfJob,
    ) -> Result<Vec<(&'static str, &'a mut DistArray<f32>)>, RunError> {
        if self.cfg.adaptive {
            return Err(unsupported::<Self>("sim", "adaptive"));
        }
        Ok(vec![("W", &mut job.model.w), ("H", &mut job.model.h)])
    }

    fn run_net(
        &self,
        data: &RatingsData,
        opts: &DistOptions,
    ) -> Result<RunOutput<MfModel>, RunError> {
        if self.cfg.adaptive {
            return Err(unsupported::<Self>("net", "adaptive"));
        }
        crate::distributed::run_net(self, data, opts)
    }
}

/// Trains with Orion's automatic parallelization on the simulated
/// cluster, recording loss per pass.
pub fn train_orion(data: &RatingsData, cfg: MfConfig, run: &MfRunConfig) -> (MfModel, RunStats) {
    let engine = Engine::Sim(run.cluster.clone());
    train(&MfApp::new(cfg, run.ordered), data, engine, run.passes)
}

/// Trains serially (the plain Julia program of Fig. 5 without
/// `@parallel_for`): items in lexicographic order on one clock — on one
/// worker the compiled schedule is the serial order.
pub fn train_serial(data: &RatingsData, cfg: MfConfig, passes: u64) -> (MfModel, RunStats) {
    let app = MfApp {
        overhead: 1.0,
        ..MfApp::new(cfg, false)
    };
    train(&app, data, Engine::Sim(ClusterSpec::serial()), passes)
}

/// Trains for `passes` passes on the real-core execution path: a
/// persistent pool of `threads` workers. Bit-identical to
/// [`train_orion`] on a `ClusterSpec::new(1, threads)` cluster, loss
/// curve included.
///
/// # Panics
///
/// Panics in adaptive mode ([`run`](crate::run::run) reports it as
/// [`RunError::Unsupported`]: the accumulators are not partitioned) and
/// if a worker thread dies.
pub fn train_threaded(
    data: &RatingsData,
    cfg: MfConfig,
    threads: usize,
    passes: u64,
    ordered: bool,
) -> (MfModel, RunStats) {
    let app = MfApp::new(cfg, ordered);
    train(&app, data, Engine::Threads(threads), passes)
}

/// Adapter running SGD MF under the Bösen-style parameter server
/// (manual data parallelism). Parameters are `[W; H]` flattened
/// row-major.
pub struct MfPsAdapter {
    items: Vec<(Vec<i64>, f32)>,
    n_users: usize,
    n_items: usize,
    cfg: MfConfig,
}

impl MfPsAdapter {
    /// Builds the adapter from a dataset.
    pub fn new(data: &RatingsData, cfg: MfConfig) -> Self {
        let dims = data.ratings.shape().dims();
        MfPsAdapter {
            items: data.items(),
            n_users: dims[0] as usize,
            n_items: dims[1] as usize,
            cfg,
        }
    }

    fn w_base(&self, u: i64) -> usize {
        u as usize * self.cfg.rank
    }

    fn h_base(&self, i: i64) -> usize {
        (self.n_users + i as usize) * self.cfg.rank
    }
}

impl PsApp for MfPsAdapter {
    fn n_params(&self) -> usize {
        (self.n_users + self.n_items) * self.cfg.rank
    }

    fn init_params(&self) -> Vec<f32> {
        // Identical initialization to MfModel::new for comparability.
        let model = MfModel::new(self.n_users as u64, self.n_items as u64, self.cfg.clone());
        let mut p = Vec::with_capacity(self.n_params());
        for u in 0..self.n_users as i64 {
            p.extend_from_slice(model.w.row_slice(u));
        }
        for i in 0..self.n_items as i64 {
            p.extend_from_slice(model.h.row_slice(i));
        }
        p
    }

    fn n_items(&self) -> usize {
        self.items.len()
    }

    fn item_cost_ns(&self, _item: usize) -> f64 {
        cost::mf_iter_ns(self.cfg.rank)
    }

    fn update(&self, item: usize, view: &PsView<'_>, out: &mut UpdateLog) {
        let (idx, v) = &self.items[item];
        let (wb, hb) = (self.w_base(idx[0]), self.h_base(idx[1]));
        let r = self.cfg.rank;
        let mut pred = 0.0f32;
        for k in 0..r {
            pred += view.get((wb + k) as u32) * view.get((hb + k) as u32);
        }
        let diff = v - pred;
        for k in 0..r {
            let w = view.get((wb + k) as u32);
            let h = view.get((hb + k) as u32);
            out.add((wb + k) as u32, 2.0 * diff * h);
            out.add((hb + k) as u32, 2.0 * diff * w);
        }
    }

    fn loss(&self, params: &[f32]) -> f64 {
        let r = self.cfg.rank;
        self.items
            .iter()
            .map(|(idx, v)| {
                let (wb, hb) = (self.w_base(idx[0]), self.h_base(idx[1]));
                let pred: f32 = (0..r).map(|k| params[wb + k] * params[hb + k]).sum();
                ((v - pred) as f64).powi(2)
            })
            .sum()
    }
}

/// Adapter running SGD MF as TensorFlow-style mini-batch dataflow.
pub struct MfDataflowAdapter(pub MfPsAdapter);

impl orion_dataflow::DataflowApp for MfDataflowAdapter {
    fn n_params(&self) -> usize {
        self.0.n_params()
    }

    fn init_params(&self) -> Vec<f32> {
        self.0.init_params()
    }

    fn n_items(&self) -> usize {
        self.0.items.len()
    }

    fn item_cost_ns(&self, item: usize) -> f64 {
        self.0.item_cost_ns(item)
    }

    fn gradient(&self, item: usize, params: &[f32], out: &mut Vec<(u32, f32)>) {
        let (idx, v) = &self.0.items[item];
        let (wb, hb) = (self.0.w_base(idx[0]), self.0.h_base(idx[1]));
        let r = self.0.cfg.rank;
        let pred: f32 = (0..r).map(|k| params[wb + k] * params[hb + k]).sum();
        let diff = v - pred;
        for k in 0..r {
            out.push(((wb + k) as u32, 2.0 * diff * params[hb + k]));
            out.push(((hb + k) as u32, 2.0 * diff * params[wb + k]));
        }
    }

    fn loss(&self, params: &[f32]) -> f64 {
        self.0.loss(params)
    }
}

/// Serialized-size helper used by byte-accounting tests.
pub fn model_bytes(model: &MfModel) -> u64 {
    model.w.payload_bytes() + model.h.payload_bytes() + (f32::WIRE_BYTES as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_data::RatingsConfig;

    fn tiny() -> RatingsData {
        RatingsData::generate(RatingsConfig::tiny())
    }

    #[test]
    fn serial_training_converges() {
        let data = tiny();
        let (model, stats) = train_serial(&data, MfConfig::new(4), 15);
        let l0 = stats.progress[0].metric;
        let lf = stats.final_metric().unwrap();
        assert!(lf < l0 * 0.5, "loss {lf} vs first-pass {l0}");
        assert!(model.loss(&data.items()) == lf);
    }

    #[test]
    fn orion_matches_serial_per_pass_closely() {
        // Dependence-aware parallelization preserves critical deps: the
        // per-pass loss curve must track serial execution closely (only
        // the iteration *order* differs).
        let data = tiny();
        let passes = 10;
        let (_, serial) = train_serial(&data, MfConfig::new(4), passes);
        let run = MfRunConfig {
            cluster: ClusterSpec::new(4, 2),
            passes,
            ordered: false,
        };
        let (_, orion) = train_orion(&data, MfConfig::new(4), &run);
        for (s, o) in serial.progress.iter().zip(&orion.progress) {
            let rel = (s.metric - o.metric).abs() / s.metric.max(1e-9);
            assert!(
                rel < 0.2,
                "pass {}: serial {} vs orion {} diverge",
                s.iteration,
                s.metric,
                o.metric
            );
        }
    }

    #[test]
    fn ordered_and_unordered_converge_similarly() {
        // Needs a compute-dominated regime (blocks larger than network
        // latency) for the throughput comparison to be meaningful.
        let data = RatingsData::generate(orion_data::RatingsConfig {
            n_users: 600,
            n_items: 480,
            nnz: 40_000,
            true_rank: 8,
            skew: 0.7,
            noise: 0.1,
            seed: 1,
        });
        let mk = |ordered| {
            let run = MfRunConfig {
                cluster: ClusterSpec::new(8, 4),
                passes: 6,
                ordered,
            };
            train_orion(&data, MfConfig::new(16), &run).1
        };
        let o = mk(true);
        let u = mk(false);
        let lo = o.final_metric().unwrap();
        let lu = u.final_metric().unwrap();
        assert!(
            (lo - lu).abs() / lo < 0.25,
            "ordered {lo} vs unordered {lu}"
        );
        // But unordered is faster per iteration (Table 3).
        let to = o.secs_per_iteration(2, 6).unwrap();
        let tu = u.secs_per_iteration(2, 6).unwrap();
        assert!(
            to > tu * 1.2,
            "ordered {to}s/iter should exceed unordered {tu}s/iter"
        );
    }

    #[test]
    fn adaptive_step_shrinks_over_time() {
        let data = tiny();
        let mut cfg = MfConfig::new(4);
        cfg.adaptive = true;
        let (model, stats) = train_serial(&data, cfg, 10);
        assert!(stats.final_metric().unwrap().is_finite());
        assert!(model.wz2.iter().any(|&z| z > 0.0));
    }

    #[test]
    fn update_reduces_pointwise_error() {
        let mut w = vec![0.1f32, -0.2, 0.3];
        let mut h = vec![0.2f32, 0.1, -0.1];
        let v = 1.0f32;
        let e0 = mf_update(&mut w, &mut h, v, 0.1);
        let pred = dot(&w, &h);
        assert!(((v - pred) as f64).powi(2) < e0);
    }
}
