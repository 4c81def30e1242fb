//! `slr_threads` — `slr::train_threaded` on the in-process pool.
//!
//! Why: the same `orion-runtime` pool used differently — a 1-D pass
//! over a shared weight snapshot, `DistArrayBuffer` writes applied in
//! worker order, a gather-bound kernel — so a change that helps the
//! grid/rotation path but costs the buffered path shows here.

use std::sync::Arc;
use std::time::Instant;

use orion_apps::serve::{oracle_slr_score, SlrQuery, SlrServe};
use orion_apps::slr::{self, logistic_grad_coef, SlrConfig, SlrModel, SlrRunConfig};
use orion_core::{
    kernels, run_one_d_pass_pooled, ClusterSpec, DistArray, DistArrayBuffer, Driver, LoopSpec,
    MathMode, Subscript, ThreadedPlan, WorkerPool,
};
use orion_data::{SparseConfig, SparseData, SparseSample};
use orion_serve::{EngineConfig, ServeEngine};

use crate::harness::{
    best_of, derive_seed, Better, Job, JobSize, Ops, Samples, SessionLatency, Workload, WORKERS,
};
use crate::mf_threads::same_bits;
use crate::serving::{self, TrainedServing};
use crate::trace::Tracer;

/// Epochs per timed job.
const EPOCHS: u64 = 6;
const SHORT_EPOCHS: u64 = 3;
/// Recorded serving sessions after each job.
const SESSIONS_PER_JOB: usize = 10;
const PROBE_REPS: usize = 7;
/// Buffered updates of a whole pass are summed before they are applied,
/// so at 40 k samples the harness default (0.1) diverges; this step
/// keeps the loss falling from the first pass on.
const STEP_SIZE: f32 = 1e-5;
const GATE_ANSWERS: usize = 2_000;

fn shape(seed: u64) -> SparseConfig {
    SparseConfig {
        n_samples: 40_000,
        n_features: 50_000,
        nnz_per_sample: 30,
        skew: 0.9,
        informative_frac: 0.05,
        seed,
    }
}

pub struct SlrThreads {
    seed: u64,
    gen_s: f64,
    data: SparseData,
    cfg: SlrConfig,
    initial_loss: f64,
    trained: Option<SlrModel>,
    /// The first job's model, loaded for serving.
    serving: Option<TrainedServing<SlrServe>>,
}

impl SlrThreads {
    pub fn new(seed: u64) -> Self {
        let t = Instant::now();
        let data = SparseData::generate(shape(derive_seed(seed, 20)));
        let gen_s = t.elapsed().as_secs_f64();
        let mut cfg = SlrConfig::new();
        cfg.step_size = STEP_SIZE;
        let initial_loss = SlrModel::new(data.config.n_features, cfg.clone()).loss(&data);
        SlrThreads {
            seed,
            gen_s,
            data,
            cfg,
            initial_loss,
            trained: None,
            serving: None,
        }
    }

    fn train(&self, epochs: u64) -> (SlrModel, Option<f64>) {
        let (model, stats) = slr::train_threaded(&self.data, self.cfg.clone(), WORKERS, epochs);
        (model, stats.final_metric())
    }

    /// The buffered 1-D loop compiled for `workers` pool threads, as
    /// the trainer declares and compiles it.
    fn one_d(&self, workers: usize) -> (Arc<ThreadedPlan>, WorkerPool) {
        let n = self.data.samples.len();
        let samples: DistArray<f32> = DistArray::sparse_from(
            "samples",
            vec![n as u64],
            self.data
                .samples
                .iter()
                .enumerate()
                .map(|(i, s)| (vec![i as i64], f32::from(s.label))),
        );
        let items: Vec<(Vec<i64>, f32)> = samples.iter().map(|(i, &v)| (i, v)).collect();
        let weights: DistArray<f32> =
            DistArray::dense("weights", vec![self.data.config.n_features as u64]);
        let mut driver = Driver::new(ClusterSpec::new(1, workers));
        let samples_id = driver.register(&samples);
        let weights_id = driver.register(&weights);
        driver.set_served_reads_per_iter(self.data.mean_nnz());
        let spec = LoopSpec::builder("slr_sgd", samples_id, vec![n as u64])
            .read(weights_id, vec![Subscript::unknown()])
            .write(weights_id, vec![Subscript::unknown()])
            .buffer_writes(weights_id)
            .build()
            .expect("static SLR spec is valid");
        let compiled = driver
            .parallel_for(spec, &items)
            .expect("SLR loop parallelizes with buffers");
        (
            Arc::new(ThreadedPlan::compile(&compiled.schedule)),
            WorkerPool::new(workers),
        )
    }

    /// Loads the just-trained weights from their checkpoint bytes,
    /// compares scores with the oracle, and gets them ready to serve.
    fn load_for_serving(&self, ops: &mut Ops) -> TrainedServing<SlrServe> {
        let model = self.trained.as_ref().expect("a timed job has run");
        let serve = SlrServe::from_checkpoint_bytes(SlrServe::checkpoint_bytes(model), WORKERS)
            .expect("a checkpoint image written a moment ago loads");
        let engine = ServeEngine::new(serve, EngineConfig::default());
        let wrong = self
            .queries(derive_seed(self.seed, 92), GATE_ANSWERS)
            .iter()
            .filter(|q| {
                engine.answer(q).to_bits() != oracle_slr_score(model, &q.features).to_bits()
            })
            .count();
        ops.count(
            GATE_ANSWERS as u64,
            wrong as u64,
            "SLR scores differ from the oracle",
        );
        let stream = self.queries(derive_seed(self.seed, 93), serving::TRAINED_QUERIES);
        TrainedServing::new(engine, stream, |score| u64::from(score.to_bits()))
    }

    /// Seeded scoring queries: the feature vectors of sampled training
    /// rows.
    fn queries(&self, seed: u64, n_queries: usize) -> Vec<SlrQuery> {
        let n = self.data.samples.len() as u64;
        (0..n_queries as u64)
            .map(|i| SlrQuery {
                features: self.data.samples[(derive_seed(seed, i) % n) as usize]
                    .features
                    .clone(),
            })
            .collect()
    }
}

impl Workload for SlrThreads {
    fn describe(&self) -> Vec<(&'static str, String)> {
        let c = &self.data.config;
        vec![
            ("samples", c.n_samples.to_string()),
            ("features", c.n_features.to_string()),
            ("mean_nnz", format!("{:.2}", self.data.mean_nnz())),
            ("workers", WORKERS.to_string()),
            ("P", EPOCHS.to_string()),
            ("data.gen_s", format!("{:.4}", self.gen_s)),
        ]
    }

    fn items_per_job(&self) -> f64 {
        self.data.samples.len() as f64 * EPOCHS as f64
    }

    fn epochs_per_job(&self) -> u64 {
        EPOCHS
    }

    fn gate(&mut self, ops: &mut Ops) {
        let (model, loss) = self.train(2);
        let run = SlrRunConfig {
            cluster: ClusterSpec::new(1, WORKERS),
            passes: 2,
            prefetch_override: None,
        };
        let (oracle, stats) = slr::train_orion(&self.data, self.cfg.clone(), &run);
        let same = same_bits(&model.weights, &oracle.weights)
            && loss.map(f64::to_bits) == stats.final_metric().map(f64::to_bits);
        ops.check(same, "2-epoch slr::train_threaded differs from train_orion");
    }

    fn cold_start(&mut self) -> f64 {
        let t = Instant::now();
        let _ = self.train(1);
        t.elapsed().as_secs_f64()
    }

    fn job(&mut self, size: JobSize, tr: &mut Tracer) -> Job {
        let epochs = match size {
            JobSize::Full => EPOCHS,
            JobSize::Short => SHORT_EPOCHS,
        };
        let open = tr.begin("job.slr_train_threaded");
        let (model, loss) = self.train(epochs);
        let wall_s = tr.end(open);
        self.trained = Some(model);
        Job::trained(wall_s, loss, self.initial_loss)
    }

    fn after_job(&mut self, ops: &mut Ops) {
        if self.serving.is_none() {
            self.serving = Some(self.load_for_serving(ops));
        }
        let serving = self.serving.as_mut().expect("just loaded");
        serving.serve(SESSIONS_PER_JOB, ops);
    }

    fn query_latencies(&mut self) -> Vec<SessionLatency> {
        self.serving
            .as_mut()
            .map_or_else(Vec::new, TrainedServing::take_sessions)
    }

    fn probe_layers(&mut self, tr: &mut Tracer, layers: &mut Samples) {
        let group = tr.begin("layers.slr_threads");
        let samples = Arc::new(self.data.samples.clone());
        let n_features = self.data.config.n_features;
        let model = SlrModel::new(n_features, self.cfg.clone());
        let shape = model.weights.shape().clone();
        let buffers = |n: usize| -> Vec<DistArrayBuffer<f32>> {
            (0..n)
                .map(|_| DistArrayBuffer::additive(shape.clone()))
                .collect()
        };

        // The pooled 1-D pass with the app's body and with an empty one
        // (handoff floor), at 2 workers and at 1.
        let weights = Arc::new(model.weights.clone());
        let step = self.cfg.step_size;
        let update = Arc::new(move |s: &SparseSample, buf: &mut DistArrayBuffer<f32>| {
            let margin = kernels::gather_sum(
                &s.features,
                |f| weights.get_flat_or_default(u64::from(f)),
                MathMode::Exact,
            );
            let coef = logistic_grad_coef(s.label, margin);
            for &f in &s.features {
                buf.write(&[i64::from(f)], -step * coef);
            }
        });
        let noop = Arc::new(|_: &SparseSample, _: &mut DistArrayBuffer<f32>| {});
        let (plan2, pool2) = self.one_d(WORKERS);
        let (plan1, pool1) = self.one_d(1);
        let mut alone = Vec::new();
        for _ in 0..PROBE_REPS {
            let (_, pass) = tr.span("runtime.one_d_pass", || {
                run_one_d_pass_pooled(&pool2, &plan2, &samples, buffers(WORKERS), &update)
            });
            layers.lower("runtime.one_d_pass_ms", "ms", pass * 1e3);
            let (_, pass) = tr.span("runtime.one_d_pass_1worker", || {
                run_one_d_pass_pooled(&pool1, &plan1, &samples, buffers(1), &update)
            });
            alone.push(pass * 1e3);
            let (_, floor) = tr.span("runtime.one_d_pass_noop", || {
                run_one_d_pass_pooled(&pool2, &plan2, &samples, buffers(WORKERS), &noop)
            });
            layers.lower("runtime.one_d_pass_noop_ms", "ms", floor * 1e3);
        }
        layers.higher(
            "runtime.one_d_speedup_2v1",
            "ratio",
            best_of(&alone, Better::Lower) / layers.best("runtime.one_d_pass_ms"),
        );

        // The gather kernel alone, and a pass's worth of buffered
        // writes followed by the drain that applies them.
        let nnz: usize = samples.iter().map(|s| s.features.len()).sum();
        for _ in 0..PROBE_REPS {
            let (_, s) = tr.span("dsm.gather_sum", || {
                samples.iter().fold(0f32, |acc, smp| {
                    acc + kernels::gather_sum(
                        &smp.features,
                        |f| model.weights.get_flat_or_default(u64::from(f)),
                        MathMode::Exact,
                    )
                })
            });
            layers.lower("dsm.gather_sum_ns", "ns", s * 1e9 / nnz as f64);
            let mut buf = DistArrayBuffer::additive(shape.clone());
            let (_, s) = tr.span("dsm.buffer_write_drain", || {
                for smp in samples.iter() {
                    for &f in &smp.features {
                        buf.write(&[i64::from(f)], 1.0);
                    }
                }
                buf.drain().len()
            });
            layers.lower("dsm.buffer_write_drain_ms", "ms", s * 1e3);
            let (_, s) = tr.span("apps.slr_loss", || model.loss(&self.data));
            layers.lower("apps.slr_loss_ms", "ms", s * 1e3);
        }
        tr.end(group);
    }
}
