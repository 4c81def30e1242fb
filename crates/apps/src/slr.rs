//! Sparse logistic regression — the workload whose subscripts defeat
//! static analysis (Table 2: "1D (data parallelism)"; §6.3 bulk
//! prefetching).
//!
//! Each sample reads and updates the weights of its nonzero features —
//! indices known only at runtime (`Subscript::Unknown`). Conservative
//! dependence analysis would serialize the loop, so the program exempts
//! the weight writes through a DistArray Buffer (§3.3), turning the loop
//! into 1-D data parallelism. The weight array is *served*
//! parameter-server style; Orion synthesizes a recording pass that
//! discovers the indices to prefetch in bulk (§4.4) — reproduced here by
//! running the loop body against an [`IndexRecorder`].

use std::sync::Arc;

use orion_core::{
    ClusterSpec, CompiledLoop, DistArray, DistArrayBuffer, Driver, FaultEvent, IndexRecorder,
    Indexed, LoopSpec, MathMode, PrefetchMode, RunStats, Strategy, Subscript, TuneConfig,
    TuneOutcome, VirtualTime,
};
use orion_data::{SparseData, SparseSample};
use orion_dsm::kernels;

use crate::common::{cost, flush_buffers, sigmoid, write_buffers};
use crate::distributed::DistOptions;
use crate::run::{train, unsupported, App, Engine, Pool, RunError, RunOutput};

/// SLR hyperparameters.
#[derive(Debug, Clone)]
pub struct SlrConfig {
    /// SGD step size.
    pub step_size: f32,
    /// AdaGrad-style adaptive step in the buffer-apply UDF (the
    /// "SLR AdaRev" variant of Table 2).
    pub adaptive: bool,
    /// Floating-point reduction policy for the margin gather-sums.
    /// `Exact` (the default) keeps bit-identity with the serial seed;
    /// `FastMath` opts into vectorized multi-accumulator reductions.
    pub math: MathMode,
}

impl SlrConfig {
    /// Defaults used by the harnesses.
    pub fn new() -> Self {
        SlrConfig {
            step_size: 0.1,
            adaptive: false,
            math: MathMode::Exact,
        }
    }

    /// Opts this run into [`MathMode::FastMath`] reductions.
    pub fn fast_math(mut self) -> Self {
        self.math = MathMode::FastMath;
        self
    }
}

impl Default for SlrConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The weight vector plus adaptive accumulators.
#[derive(Debug, Clone)]
pub struct SlrModel {
    /// Feature weights (1-D, n_features).
    pub weights: DistArray<f32>,
    /// Per-feature squared-gradient accumulators (adaptive mode).
    pub z2: Vec<f32>,
    /// Hyperparameters.
    pub cfg: SlrConfig,
}

impl SlrModel {
    /// Zero-initialized weights.
    pub fn new(n_features: usize, cfg: SlrConfig) -> Self {
        SlrModel {
            weights: DistArray::dense("weights", vec![n_features as u64]),
            z2: vec![0.0; n_features],
            cfg,
        }
    }

    /// Margin of one sample under a weight lookup function: a gathered
    /// sum over the sample's active features, reduced per `mode`.
    pub(crate) fn margin_with(
        features: &[u32],
        get: impl FnMut(u32) -> f32,
        mode: MathMode,
    ) -> f32 {
        kernels::gather_sum(features, get, mode)
    }

    /// Mean logistic loss over the dataset.
    ///
    /// The weight vector is 1-D and unpartitioned, so a feature id *is*
    /// its flat offset — every lookup here and in the training loops
    /// skips subscript translation entirely.
    pub fn loss(&self, data: &SparseData) -> f64 {
        self.loss_sum(&data.samples) / data.samples.len() as f64
    }

    /// The sum [`SlrModel::loss`] divides, folded in sample order from
    /// `+0.0`.
    fn loss_sum(&self, samples: &[SparseSample]) -> f64 {
        samples.iter().fold(0.0f64, |total, s| {
            total + self.loss_term(&s.features, s.label)
        })
    }

    /// One sample's logistic loss: its margin under these weights, then
    /// [`term_of`]. The weights are dense, so the slice holds what
    /// `get_flat_or_default` returns, without a call per feature.
    fn loss_term(&self, features: &[u32], label: i8) -> f64 {
        let weights = self.weights.dense_values();
        let get = |f: u32| weights[f as usize];
        term_of(label, Self::margin_with(features, get, self.cfg.math))
    }
}

/// One sample's logistic loss from its margin, `log(1 + exp(-y m))`,
/// stable. Both routes to the metric end here: a readout's
/// [`SlrModel::loss_term`] and the pooled pass that computed the margin
/// for its step anyway.
fn term_of(label: i8, margin: f32) -> f64 {
    let ym = label as f32 * margin;
    if ym > 30.0 {
        0.0
    } else if ym < -30.0 {
        (-ym) as f64
    } else {
        ((-ym).exp() as f64).ln_1p()
    }
}

/// Gradient coefficient of one sample: `dL/dmargin = -y * sigmoid(-y m)`.
/// The per-feature descent direction is `-coef` on each active feature.
pub fn logistic_grad_coef(label: i8, margin: f32) -> f32 {
    -(label as f32) * sigmoid(-(label as f32) * margin)
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct SlrRunConfig {
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Data passes.
    pub passes: u64,
    /// Override the analyzer-chosen prefetch mode (the §6.3 experiment:
    /// `Disabled`, `Recorded`, `CachedRecorded`).
    pub prefetch_override: Option<PrefetchMode>,
}

/// SLR as an [`App`]: 1-D data parallelism via buffered weight writes,
/// served weights with bulk prefetching.
///
/// Chaos recovery and the TCP cluster are [`RunError::Unsupported`] in
/// adaptive mode: the `z2` accumulators live outside the checkpointed
/// DistArray.
#[derive(Debug, Clone)]
pub struct SlrApp {
    /// Hyperparameters.
    pub cfg: SlrConfig,
    /// Override the analyzer-chosen prefetch mode; a tuned plan keeps
    /// the override too.
    pub prefetch_override: Option<PrefetchMode>,
}

impl SlrApp {
    fn apply_prefetch_override(&self, compiled: &mut CompiledLoop) {
        if let (Some(mode), Some(served)) = (self.prefetch_override, compiled.comm.served.as_mut())
        {
            served.mode = mode;
        }
    }
}

/// What [`SlrApp`]'s setup builds: the model and the sample table.
#[derive(Debug)]
pub struct SlrJob {
    pub(crate) model: SlrModel,
    table: SampleTable,
    /// One write buffer per worker of the compiled schedule, empty
    /// between passes.
    buffers: Vec<DistArrayBuffer<f32>>,
    /// `Net` only: each node's (= worker's) buffered updates of the
    /// epoch in flight.
    pub(crate) updates: Vec<Option<bytes::Bytes>>,
}

/// One sample's row of a [`SampleTable`]: its range of the table's
/// features and its label — the item a pooled pass steps.
#[derive(Debug, Clone, Copy)]
struct SampleRow {
    start: u32,
    end: u32,
    label: i8,
}

/// A sample's loop index is its row: the table holds every sample in
/// order.
impl Indexed for SampleRow {
    fn coord(&self, pos: usize, _: usize) -> i64 {
        pos as i64
    }
}

impl SampleRow {
    fn features<'a>(&self, features: &'a [u32]) -> &'a [u32] {
        &features[self.start as usize..self.end as usize]
    }
}

/// The samples as one flat table, built by setup in one walk over
/// `data.samples`. The pool shares it with every pooled pass and readout,
/// so a job makes no copy of the samples.
#[derive(Debug)]
struct SampleTable {
    /// Every sample's feature ids, back to back in sample order.
    features: Arc<Vec<u32>>,
    /// One row per sample, in sample order.
    rows: Arc<Vec<SampleRow>>,
}

impl SampleTable {
    fn new(samples: &[SparseSample]) -> Self {
        let offset = |len: usize| u32::try_from(len).expect("SLR nonzeros fit u32");
        let mut features = Vec::with_capacity(samples.iter().map(|s| s.features.len()).sum());
        let rows = samples
            .iter()
            .map(|s| {
                let start = offset(features.len());
                features.extend_from_slice(&s.features);
                SampleRow {
                    start,
                    end: offset(features.len()),
                    label: s.label,
                }
            })
            .collect();
        SampleTable {
            features: Arc::new(features),
            rows: Arc::new(rows),
        }
    }

    /// The simulated cost of stepping sample `pos` on an Orion worker.
    fn iter_ns(&self, pos: usize) -> f64 {
        let row = &self.rows[pos];
        cost::slr_iter_ns((row.end - row.start) as usize) * cost::ORION_OVERHEAD
    }
}

/// The iteration space: one element per sample, valued by its label.
fn samples_array(data: &SparseData) -> DistArray<f32> {
    let labels = data.samples.iter().map(|s| s.label as f32);
    DistArray::sparse_from_flat(
        "samples",
        vec![data.samples.len() as u64],
        (0..).zip(labels),
    )
}

/// The buffered per-sample step every engine runs: the margin under
/// `read`'s pass-start weights (buffered writes are not read back, §3.3),
/// then one buffered write per active feature. Returns the margin.
pub(crate) fn slr_step(
    features: &[u32],
    label: i8,
    read: impl Fn(u32) -> f32,
    buf: &mut DistArrayBuffer<f32>,
    step: f32,
    mode: MathMode,
) -> f32 {
    let margin = SlrModel::margin_with(features, read, mode);
    let delta = -step * logistic_grad_coef(label, margin);
    for &f in features {
        buf.write_flat(f as u64, delta);
    }
    margin
}

/// Applies one worker's buffered writes, `(feature, delta)` ascending by
/// feature, with the configured UDF — plain addition, or the
/// AdaGrad-style adaptive step of the "SLR AdaRev" variant (the
/// apply-UDF hook of §3.3 that "makes it easy to implement various
/// adaptive gradient algorithms").
pub(crate) fn apply_updates(model: &mut SlrModel, updates: impl IntoIterator<Item = (u64, f32)>) {
    let SlrModel { weights, z2, cfg } = model;
    for (f, delta) in updates {
        let mut scale = 1.0; // `delta * 1.0` is `delta`, bit for bit
        if cfg.adaptive {
            // Recover the accumulated gradient from the pre-scaled delta.
            let g = delta / cfg.step_size;
            let z2 = &mut z2[f as usize];
            *z2 += g * g;
            scale = 2.0 / (1.0 + *z2).sqrt();
        }
        weights.update_flat(f, |w| *w += delta * scale);
    }
}

/// Applies (and empties) one worker's buffer on `Sim` and `Threads`.
fn flush_into(model: &mut SlrModel, buf: &mut DistArrayBuffer<f32>) {
    if model.cfg.adaptive {
        apply_updates(model, buf.drain_flat());
    } else {
        buf.apply_to(&mut model.weights, |w, delta| *w += delta);
    }
}

/// A pooled worker's scratch: the model lent to the pass, its write
/// buffer, and — from pass 1 on — the loss term of every sample it
/// steps, in step order. The model handle travels out with the job and
/// back with its result, so once the pass has returned the caller owns
/// the model alone again.
type Lent = (Arc<SlrModel>, (DistArrayBuffer<f32>, Option<Vec<f64>>));

impl App for SlrApp {
    type Data = SparseData;
    type Model = SlrModel;
    type Job = SlrJob;

    const NAME: &'static str = "slr";

    fn math(&self) -> MathMode {
        self.cfg.math
    }

    fn setup(&self, data: &SparseData, driver: &mut Driver) -> (CompiledLoop, SlrJob) {
        let model = SlrModel::new(data.config.n_features, self.cfg.clone());
        let samples_id = driver.register(&samples_array(data));
        let weights_id = driver.register(&model.weights);
        // The synthesized prefetch function (the recording pass of §4.4)
        // executes only the subscript-producing statements and logs
        // indices. Its observable output — how many weight values each
        // pass prefetches — feeds the communication model here.
        driver.set_served_reads_per_iter(data.mean_nnz());
        let spec = LoopSpec::builder("slr_sgd", samples_id, vec![data.samples.len() as u64])
            .read(weights_id, vec![Subscript::unknown()])
            .write(weights_id, vec![Subscript::unknown()])
            .buffer_writes(weights_id)
            .build()
            .expect("static SLR spec is valid");
        let table = SampleTable::new(&data.samples);
        let mut compiled = driver
            .parallel_for(spec, table.rows.as_slice())
            .expect("SLR loop parallelizes with buffers");
        debug_assert!(matches!(
            compiled.strategy(),
            Strategy::FullyParallel { .. }
        ));
        self.apply_prefetch_override(&mut compiled);
        let job = SlrJob {
            buffers: write_buffers(&model.weights, compiled.schedule.n_workers),
            model,
            table,
            updates: vec![None; compiled.schedule.n_workers],
        };
        (compiled, job)
    }

    /// The weight DistArray only mutates at the pass-end buffer apply,
    /// so a crashed pass simply discards its buffers.
    fn sim_pass(
        &self,
        data: &SparseData,
        job: &mut SlrJob,
        driver: &mut Driver,
        compiled: &CompiledLoop,
        _pass: u64,
    ) -> Option<FaultEvent> {
        let SlrJob {
            model,
            table,
            buffers,
            ..
        } = job;
        if buffers.len() != compiled.schedule.n_workers {
            // A tuned plan may schedule a different worker count.
            *buffers = write_buffers(&model.weights, compiled.schedule.n_workers);
        }
        let weights = &model.weights;
        let (step, mode) = (model.cfg.step_size, driver.math_mode());
        let (_, fault) = driver.run_pass(compiled, &mut |pos| table.iter_ns(pos), &mut |w, pos| {
            let s = &data.samples[pos];
            let read = |f| weights.get_flat_or_default(f as u64);
            slr_step(&s.features, s.label, read, &mut buffers[w], step, mode);
        });
        match fault {
            None => flush_buffers(driver, buffers, |buf| flush_into(model, buf)),
            Some(_) => buffers
                .iter_mut()
                .for_each(|buf| buf.drain_flat().for_each(drop)),
        }
        fault
    }

    fn metric(&self, data: &SparseData, job: &SlrJob) -> f64 {
        job.model.loss(data)
    }

    fn into_model(job: SlrJob) -> SlrModel {
        job.model
    }

    /// Each worker fills its own write buffer against the pass-start
    /// weights; buffers accumulate the same deltas in the same order as
    /// the simulated pass and apply in worker order. The model is lent to
    /// the workers inside their scratch and is back — sole owner, no
    /// copy — when a pass returns.
    ///
    /// A pass reads only the weights as they stood at its start (§3.3):
    /// the model the previous pass's loss is read from. So from pass 1 on
    /// each worker also keeps every sample's loss term, from the margin
    /// its step computed anyway, and the workers' terms, one after
    /// another, are the samples in order: folded from `+0.0` they are
    /// the previous pass's loss sum, bit for bit. Only the last pass's
    /// loss is read by a readout of its own. Validation re-reads every
    /// sum serially; each point keeps the clock of its own pass's end.
    fn pooled(
        &self,
        data: &SparseData,
        job: SlrJob,
        pool: &mut Pool<'_>,
        passes: u64,
    ) -> Result<SlrModel, RunError> {
        let SlrJob {
            model,
            table: SampleTable { features, rows },
            mut buffers,
            ..
        } = job;
        let n = rows.len();
        // The fused fold reads the workers' terms one after another.
        let order = pool.plan.worker_positions();
        assert!(
            order.iter().flatten().map(|&p| p as usize).eq(0..n),
            "the 1-D plan's blocks do not tile [0, {n}) in worker order"
        );
        let mut model = Arc::new(model);
        // The mode `loss_term` reads, so fused terms are a readout's.
        let (step, mode) = (model.cfg.step_size, model.cfg.math);
        let shared = Arc::clone(&features);
        let body = Arc::new(move |row: &SampleRow, (model, (buf, terms)): &mut Lent| {
            // The weights are dense, so the slice holds what
            // `get_flat_or_default` returns, without a call per feature.
            let weights = model.weights.dense_values();
            let read = |f: u32| weights[f as usize];
            let margin = slr_step(row.features(&shared), row.label, read, buf, step, mode);
            if let Some(terms) = terms {
                terms.push(term_of(row.label, margin));
            }
        });
        let mut terms: Vec<Option<Vec<f64>>> = vec![None; buffers.len()];
        // The last flushed pass and the clock at its end.
        let mut flushed: Option<(u64, VirtualTime)> = None;
        for pass in 0..passes {
            let lent = (buffers.drain(..).zip(terms.drain(..)))
                .map(|s| (Arc::clone(&model), s))
                .collect();
            let out = pool.driver.run_pass_threaded_one_d(
                &pool.compiled.spec.name,
                &pool.plan,
                &rows,
                lent,
                &body,
            );
            (buffers, terms) = out.scratch.into_iter().map(|(_, s)| s).unzip();
            if let Some((prev, at)) = flushed {
                let sum = (terms.iter().flatten().flatten()).fold(0.0f64, |acc, t| acc + t);
                // Not flushed yet: `model` is still the one the terms read.
                pool.driver
                    .check_readout(sum, || model.loss_sum(&data.samples));
                pool.driver.record_progress_at(prev, at, sum / n as f64);
            }
            let owned = Arc::get_mut(&mut model).expect("the pass handed the model back");
            flush_buffers(pool.driver, &mut buffers, |buf| flush_into(owned, buf));
            terms
                .iter_mut()
                .for_each(|t| t.get_or_insert_with(Vec::new).clear());
            flushed = Some((pass, pool.driver.now()));
        }
        if let Some((last, at)) = flushed {
            let term = Arc::new(move |row: &SampleRow, model: &SlrModel| {
                model.loss_term(row.features(&features), row.label)
            });
            let serial = || model.loss_sum(&data.samples);
            let sum = pool
                .driver
                .eval_pass(&pool.plan, &rows, &model, &term, 0.0, serial);
            pool.driver.record_progress_at(last, at, sum / n as f64);
        }
        Ok(Arc::try_unwrap(model).expect("the readout handed the model back"))
    }

    /// SLR's recorded prefetch pass re-executes every pass by default;
    /// the tuner discovers that caching the recorded indices is strictly
    /// cheaper and upgrades the regime (§6.3) — reported as an `O020`
    /// diagnostic. The tuned schedule also fixes the worker count the
    /// per-pass write buffers match.
    fn tune(
        &self,
        job: &SlrJob,
        driver: &mut Driver,
        compiled: &CompiledLoop,
        cfg: &TuneConfig,
    ) -> Result<(CompiledLoop, TuneOutcome), RunError> {
        let rows = job.table.rows.as_slice();
        let (mut tuned, outcome) =
            driver.tune_loop(compiled, rows, cfg, &mut |pos| job.table.iter_ns(pos));
        self.apply_prefetch_override(&mut tuned);
        Ok((tuned, outcome))
    }

    fn checkpointed<'a>(
        &self,
        job: &'a mut SlrJob,
    ) -> Result<Vec<(&'static str, &'a mut DistArray<f32>)>, RunError> {
        if self.cfg.adaptive {
            return Err(unsupported::<Self>("sim", "adaptive"));
        }
        Ok(vec![("weights", &mut job.model.weights)])
    }

    fn run_net(
        &self,
        data: &SparseData,
        opts: &DistOptions,
    ) -> Result<RunOutput<SlrModel>, RunError> {
        if self.cfg.adaptive {
            return Err(unsupported::<Self>("net", "adaptive"));
        }
        crate::distributed::run_net(self, data, opts)
    }
}

/// Trains with Orion: 1-D data parallelism via buffered weight writes,
/// served weights with bulk prefetching.
pub fn train_orion(data: &SparseData, cfg: SlrConfig, run: &SlrRunConfig) -> (SlrModel, RunStats) {
    let app = SlrApp {
        cfg,
        prefetch_override: run.prefetch_override,
    };
    train(&app, data, Engine::Sim(run.cluster.clone()), run.passes)
}

/// Trains on the real-core execution path: the buffered 1-D
/// data-parallel schedule runs on a persistent pool of `threads` OS
/// threads. Bit-identical to [`train_orion`] on a
/// `ClusterSpec::new(1, threads)` cluster.
///
/// # Panics
///
/// Panics if a worker thread dies.
pub fn train_threaded(
    data: &SparseData,
    cfg: SlrConfig,
    threads: usize,
    passes: u64,
) -> (SlrModel, RunStats) {
    let app = SlrApp {
        cfg,
        prefetch_override: None,
    };
    train(&app, data, Engine::Threads(threads), passes)
}

/// Trains serially: immediate weight updates, one worker.
pub fn train_serial(data: &SparseData, cfg: SlrConfig, passes: u64) -> (SlrModel, RunStats) {
    let mut model = SlrModel::new(data.config.n_features, cfg);
    let mut driver = Driver::new(ClusterSpec::serial());
    driver.set_math_mode(model.cfg.math);
    let mode = driver.math_mode();
    let samples_id = driver.register(&samples_array(data));
    let weights_id = driver.register(&model.weights);
    // Serial program: no buffering, direct writes (the original
    // imperative loop before parallelization).
    let spec = LoopSpec::builder("slr_serial", samples_id, vec![data.samples.len() as u64])
        .read(weights_id, vec![Subscript::unknown()])
        .write(weights_id, vec![Subscript::unknown()])
        .build()
        .expect("valid spec");
    let SampleTable { features, rows } = SampleTable::new(&data.samples);
    let compiled = driver
        .parallel_for(spec, rows.as_slice())
        .expect("compiles (serial)");
    debug_assert!(matches!(compiled.strategy(), Strategy::Serial));
    let mut iter_ns = |pos: usize| cost::slr_iter_ns(rows[pos].features(&features).len());
    for pass in 0..passes {
        {
            let weights = &mut model.weights;
            let step = model.cfg.step_size;
            driver.run_pass(&compiled, &mut iter_ns, &mut |_w, pos| {
                let (row, features) = (rows[pos], &features);
                let margin = SlrModel::margin_with(
                    row.features(features),
                    |f| weights.get_flat_or_default(f as u64),
                    mode,
                );
                let coef = logistic_grad_coef(row.label, margin);
                for &f in row.features(features) {
                    weights.update_flat(f as u64, |w| *w -= step * coef);
                }
            });
        }
        driver.record_progress(pass, model.loss(data));
    }
    (model, driver.finish())
}

/// Runs the synthesized prefetch recording pass over one block of
/// samples: executes only the subscript-producing statements and records
/// the weight indices that would be read (§4.4).
pub(crate) fn record_prefetch_indices(data: &SparseData, block: &[usize]) -> Vec<u64> {
    let mut rec = IndexRecorder::new();
    for &pos in block {
        for &f in &data.samples[pos].features {
            rec.record(f as u64);
        }
    }
    rec.take_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run, RunConfig};
    use orion_data::SparseConfig;

    fn data() -> SparseData {
        SparseData::generate(SparseConfig::tiny())
    }

    #[test]
    fn serial_training_reduces_loss() {
        let d = data();
        let (model, stats) = train_serial(&d, SlrConfig::new(), 10);
        let l0 = stats.progress[0].metric;
        let lf = stats.final_metric().unwrap();
        assert!(lf < l0, "loss should fall: {l0} -> {lf}");
        assert!(lf < 0.65, "final loss {lf} too high");
        let _ = model;
    }

    #[test]
    fn orion_data_parallel_converges() {
        let d = data();
        let run = SlrRunConfig {
            cluster: ClusterSpec::new(4, 2),
            passes: 10,
            prefetch_override: None,
        };
        let (_, stats) = train_orion(&d, SlrConfig::new(), &run);
        let l0 = stats.progress[0].metric;
        let lf = stats.final_metric().unwrap();
        assert!(lf < l0, "loss should fall: {l0} -> {lf}");
    }

    #[test]
    fn prefetch_modes_change_time_not_result() {
        let d = data();
        let mk = |mode| {
            let run = SlrRunConfig {
                cluster: ClusterSpec::new(2, 2),
                passes: 3,
                prefetch_override: Some(mode),
            };
            train_orion(&d, SlrConfig::new(), &run).1
        };
        let none = mk(PrefetchMode::Disabled);
        let rec = mk(PrefetchMode::Recorded);
        let cached = mk(PrefetchMode::CachedRecorded);
        // Same algorithm, same losses.
        assert_eq!(
            none.final_metric().unwrap(),
            rec.final_metric().unwrap(),
            "prefetching must not change results"
        );
        // But wildly different times (§6.3: 7682 s vs 9.2 s vs 6.3 s).
        let t_none = none.progress.last().unwrap().time;
        let t_rec = rec.progress.last().unwrap().time;
        let t_cached = cached.progress.last().unwrap().time;
        assert!(
            t_none.as_secs_f64() > t_rec.as_secs_f64() * 5.0,
            "no-prefetch {t_none} must dwarf recorded {t_rec}"
        );
        assert!(t_cached < t_rec, "cached {t_cached} beats recorded {t_rec}");
    }

    #[test]
    fn recorded_indices_match_accessed_features() {
        let d = data();
        let block: Vec<usize> = (0..10).collect();
        let rec = record_prefetch_indices(&d, &block);
        let mut expect: Vec<u64> = block
            .iter()
            .flat_map(|&i| d.samples[i].features.iter().map(|&f| f as u64))
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(rec, expect);
    }

    #[test]
    fn tuned_training_upgrades_prefetch() {
        let d = data();
        let run_cfg = SlrRunConfig {
            cluster: ClusterSpec::new(2, 2),
            passes: 3,
            prefetch_override: None,
        };
        let mut cfg = RunConfig::new(Engine::Sim(run_cfg.cluster.clone()), run_cfg.passes);
        cfg.tune = Some(TuneConfig::default());
        let app = SlrApp {
            cfg: SlrConfig::new(),
            prefetch_override: None,
        };
        let tuned = run(&app, &d, &cfg).unwrap();
        // For SLR the tuner should strictly win by caching the recorded
        // prefetch indices (the §6.3 regime the static planner re-records
        // every pass).
        let outcome = tuned.tune.unwrap();
        assert!(outcome.replanned, "SLR should re-plan to cached prefetch");
        assert!(
            outcome.chosen.label.contains("cached prefetch"),
            "expected a cached-prefetch upgrade, chose: {}",
            outcome.chosen.label
        );
        // The tuner may pick a different worker count, which regroups
        // the buffered updates (exactly as static would with that
        // count) — float reorder only, so losses match static to high
        // precision even when not bit-identical.
        let (_, static_stats) = train_orion(&d, SlrConfig::new(), &run_cfg);
        let lf = tuned.stats.final_metric().unwrap();
        let ls = static_stats.final_metric().unwrap();
        assert!(
            (lf - ls).abs() < 1e-6,
            "tuning must not change the algorithm: tuned {lf} vs static {ls}"
        );
    }

    #[test]
    fn a_tuned_plan_keeps_the_prefetch_override() {
        // The override is the user's explicit regime: tuning re-plans
        // around it, so the forced no-prefetch run still dwarfs the
        // tuned default.
        let d = data();
        let mut cfg = RunConfig::new(Engine::Sim(ClusterSpec::new(2, 2)), 2);
        cfg.tune = Some(TuneConfig::default());
        let wall = |prefetch_override| {
            let app = SlrApp {
                cfg: SlrConfig::new(),
                prefetch_override,
            };
            let stats = run(&app, &d, &cfg).unwrap().stats;
            stats.progress.last().unwrap().time.as_secs_f64()
        };
        assert!(wall(Some(PrefetchMode::Disabled)) > wall(None) * 5.0);
    }

    #[test]
    fn more_workers_degrade_per_pass_convergence_mildly() {
        // Data parallelism: staleness grows with workers; per-pass loss
        // should be no better than serial.
        let d = data();
        let (_, serial) = train_serial(&d, SlrConfig::new(), 6);
        let run = SlrRunConfig {
            cluster: ClusterSpec::new(8, 4),
            passes: 6,
            prefetch_override: None,
        };
        let (_, par) = train_orion(&d, SlrConfig::new(), &run);
        assert!(
            serial.final_metric().unwrap() <= par.final_metric().unwrap() + 1e-9,
            "serial should be at least as good per pass"
        );
    }
}
