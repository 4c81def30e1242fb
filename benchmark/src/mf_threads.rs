//! `mf_threads` — `sgd_mf::train_threaded` on the in-process pool.
//!
//! Why: a compute-bound 2-D grid pass. `dsm::kernels::mf_row_update`,
//! the channel rotation in `orion-runtime` and the serial per-pass
//! readout in `orion-apps` (clone + `merge_along` + `loss`) do the
//! work; no socket is touched while training.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use orion_apps::serve::MfServe;
use orion_apps::sgd_mf::{self, MfConfig, MfModel, MfRunConfig};
use orion_core::{
    build_schedule, kernels, run_grid_pass_pooled, ClusterSpec, CompiledLoop, DistArray, Driver,
    LoopSpec, MathMode, Subscript, ThreadedPlan, WorkerPool,
};
use orion_data::{RatingsConfig, RatingsData};

use crate::harness::{
    best_of, derive_seed, Better, Job, JobSize, Ops, Samples, SessionLatency, Workload, WORKERS,
};
use crate::serving::{self, TrainedServing};
use crate::trace::Tracer;

const RANK: usize = 32;
/// Epochs per timed job: long enough that planning, compiling and pool
/// spawn stay a few percent of the job, short enough that a couple of
/// dozen jobs fit the window.
const EPOCHS: u64 = 60;
const SHORT_EPOCHS: u64 = 20;
/// Recorded serving sessions after each job.
const SESSIONS_PER_JOB: usize = 10;
const PROBE_REPS: usize = 9;

fn shape(seed: u64) -> RatingsConfig {
    RatingsConfig {
        n_users: 2_400,
        n_items: 1_920,
        nnz: 320_000,
        true_rank: 16,
        skew: 0.7,
        noise: 0.1,
        seed,
    }
}

/// A rating flattened for the hot loop, as the trainers flatten it.
type Triple = (i64, i64, f32);

pub struct MfThreads {
    seed: u64,
    gen_s: f64,
    data: RatingsData,
    items: Vec<(Vec<i64>, f32)>,
    cfg: MfConfig,
    initial_loss: f64,
    trained: Option<MfModel>,
    /// The first job's model, loaded for serving.
    serving: Option<TrainedServing<MfServe>>,
}

/// Whether two arrays hold the same values bit for bit.
pub fn same_bits(a: &DistArray<f32>, b: &DistArray<f32>) -> bool {
    let (a, b) = (a.dense_values(), b.dense_values());
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The MF loop as a user declares it (paper Fig. 5): iteration `(u, i)`
/// reads and writes row `u` of `W` and row `i` of `H`.
pub fn mf_loop(
    driver: &mut Driver,
    data: &RatingsData,
    model: &MfModel,
    items: &[(Vec<i64>, f32)],
) -> CompiledLoop {
    let z = driver.register(&data.ratings);
    let w = driver.register(&model.w);
    let h = driver.register(&model.h);
    let dims = data.ratings.shape().dims().to_vec();
    let spec = LoopSpec::builder("sgd_mf", z, dims)
        .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
        .build()
        .expect("static MF spec is valid");
    driver
        .parallel_for(spec, items)
        .expect("MF loop parallelizes")
}

/// The untrained model for `data`'s shape.
pub fn fresh_model(data: &RatingsData, cfg: &MfConfig) -> MfModel {
    let dims = data.ratings.shape().dims();
    MfModel::new(dims[0], dims[1], cfg.clone())
}

pub fn triples(items: &[(Vec<i64>, f32)]) -> Vec<Triple> {
    items.iter().map(|(i, v)| (i[0], i[1], *v)).collect()
}

impl MfThreads {
    pub fn new(seed: u64) -> Self {
        let t = Instant::now();
        let data = RatingsData::generate(shape(derive_seed(seed, 10)));
        let gen_s = t.elapsed().as_secs_f64();
        let items = data.items();
        let mut cfg = MfConfig::new(RANK);
        cfg.seed = derive_seed(seed, 11);
        let initial_loss = fresh_model(&data, &cfg).loss(&items);
        MfThreads {
            seed,
            gen_s,
            data,
            items,
            cfg,
            initial_loss,
            trained: None,
            serving: None,
        }
    }

    fn train(&self, epochs: u64) -> (MfModel, Option<f64>) {
        let (model, stats) =
            sgd_mf::train_threaded(&self.data, self.cfg.clone(), WORKERS, epochs, false);
        (model, stats.final_metric())
    }

    /// Plans and compiles the loop for `workers` pool threads and cuts
    /// `W`/`H` the way the trainer does.
    fn grid(&self, workers: usize) -> Grid {
        let model = fresh_model(&self.data, &self.cfg);
        let mut driver = Driver::new(ClusterSpec::new(1, workers));
        let compiled = mf_loop(&mut driver, &self.data, &model, &self.items);
        let plan = Arc::new(ThreadedPlan::compile(&compiled.schedule));
        let sp = compiled.schedule.space_partition.as_ref().expect("grid");
        let tp = compiled.schedule.time_partition.as_ref().expect("grid");
        Grid {
            w_parts: model.w.split_along(0, &sp.ranges),
            h_parts: model.h.split_along(0, &tp.ranges),
            w_ranges: sp.ranges.clone(),
            h_ranges: tp.ranges.clone(),
            pool: WorkerPool::new(workers),
            plan,
        }
    }
}

struct Grid {
    plan: Arc<ThreadedPlan>,
    pool: WorkerPool,
    w_parts: Vec<DistArray<f32>>,
    h_parts: Vec<DistArray<f32>>,
    /// Row ranges the schedule cuts `W` and `H` into.
    w_ranges: Vec<Range<u64>>,
    h_ranges: Vec<Range<u64>>,
}

impl Grid {
    /// One pooled grid pass; returns its wall in seconds.
    fn pass<F>(
        &mut self,
        tr: &mut Tracer,
        span: &str,
        items: &Arc<Vec<Triple>>,
        body: &Arc<F>,
    ) -> f64
    where
        F: Fn(&Triple, &mut DistArray<f32>, &mut DistArray<f32>, &mut ()) + Send + Sync + 'static,
    {
        let (w, h) = (
            std::mem::take(&mut self.w_parts),
            std::mem::take(&mut self.h_parts),
        );
        let scratch = vec![(); self.plan.n_workers()];
        let (out, secs) = tr.span(span, || {
            run_grid_pass_pooled(&self.pool, &self.plan, items, w, h, scratch, body)
        });
        self.w_parts = out.space;
        self.h_parts = out.time;
        secs
    }
}

impl Workload for MfThreads {
    fn describe(&self) -> Vec<(&'static str, String)> {
        let c = &self.data.config;
        vec![
            ("users", c.n_users.to_string()),
            ("items", c.n_items.to_string()),
            ("ratings", self.data.nnz().to_string()),
            ("rank", RANK.to_string()),
            ("workers", WORKERS.to_string()),
            ("P", EPOCHS.to_string()),
            ("data.gen_s", format!("{:.4}", self.gen_s)),
        ]
    }

    fn items_per_job(&self) -> f64 {
        self.data.nnz() as f64 * EPOCHS as f64
    }

    fn epochs_per_job(&self) -> u64 {
        EPOCHS
    }

    fn gate(&mut self, ops: &mut Ops) {
        let (model, loss) = self.train(2);
        let run = MfRunConfig {
            cluster: ClusterSpec::new(1, WORKERS),
            passes: 2,
            ordered: false,
        };
        let (oracle, stats) = sgd_mf::train_orion(&self.data, self.cfg.clone(), &run);
        let same = same_bits(&model.w, &oracle.w)
            && same_bits(&model.h, &oracle.h)
            && loss.map(f64::to_bits) == stats.final_metric().map(f64::to_bits);
        ops.check(same, "2-epoch train_threaded differs from train_orion");
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
        let open = tr.begin("job.train_threaded");
        let (model, loss) = self.train(epochs);
        let wall_s = tr.end(open);
        self.trained = Some(model);
        Job::trained(wall_s, loss, self.initial_loss)
    }

    fn after_job(&mut self, ops: &mut Ops) {
        let model = self.trained.as_ref().expect("a timed job has run");
        self.serving
            .get_or_insert_with(|| serving::serve_trained_mf(model, self.seed, ops))
            .serve(SESSIONS_PER_JOB, ops);
    }

    fn query_latencies(&mut self) -> Vec<SessionLatency> {
        self.serving
            .as_mut()
            .map_or_else(Vec::new, TrainedServing::take_sessions)
    }

    fn probe_layers(&mut self, tr: &mut Tracer, layers: &mut Samples) {
        let group = tr.begin("layers.mf_threads");
        let model = fresh_model(&self.data, &self.cfg);
        let indices: Vec<&[i64]> = self.items.iter().map(|(i, _)| i.as_slice()).collect();

        // Planning, schedule build, compile, pool spawn: the cold-start
        // work every trainer (and every cluster node) repeats.
        for _ in 0..PROBE_REPS {
            let mut driver = Driver::new(ClusterSpec::new(1, WORKERS));
            let (compiled, s) = {
                let open = tr.begin("analysis.plan");
                let c = mf_loop(&mut driver, &self.data, &model, &self.items);
                (c, tr.end(open))
            };
            layers.lower("analysis.plan_s", "s", s);
            let (schedule, s) = tr.span("runtime.build_schedule", || {
                build_schedule(
                    &compiled.plan.strategy,
                    &indices,
                    &compiled.spec.iter_dims,
                    WORKERS,
                )
            });
            layers.lower("runtime.build_schedule_s", "s", s);
            let (_, s) = tr.span("runtime.compile", || ThreadedPlan::compile(&schedule));
            layers.lower("runtime.compile_s", "s", s);
            let (_, s) = tr.span("runtime.pool_spawn", || WorkerPool::new(WORKERS));
            layers.lower("runtime.pool_spawn_us", "us", s * 1e6);
        }

        // O100 static race check: what validation adds to compiling.
        // It compares every pair of iterations in co-scheduled blocks,
        // so it is priced on a toy loop; at this workload's size one
        // check runs for minutes.
        let toy = RatingsData::generate(RatingsConfig {
            n_users: 600,
            n_items: 480,
            nnz: 8_000,
            ..shape(derive_seed(self.seed, 12))
        });
        let (toy_items, toy_model) = (toy.items(), fresh_model(&toy, &self.cfg));
        let (mut with, mut without) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_REPS {
            let mut plain = Driver::new(ClusterSpec::new(1, WORKERS));
            let mut checked = Driver::new(ClusterSpec::new(1, WORKERS));
            checked.set_validate(true);
            let p = mf_loop(&mut plain, &toy, &toy_model, &toy_items);
            let c = mf_loop(&mut checked, &toy, &toy_model, &toy_items);
            with.push(
                tr.span("check.compile_validated", || checked.compile_threaded(&c))
                    .1,
            );
            without.push(
                tr.span("check.compile_plain", || plain.compile_threaded(&p))
                    .1,
            );
        }
        let fastest = |v: &[f64]| best_of(v, Better::Lower);
        layers.lower(
            "check.static_o100_ms",
            "ms",
            (fastest(&with) - fastest(&without)) * 1e3,
        );

        // The pooled grid pass with the app's body and with an empty
        // one (handoff + barrier floor), at 2 workers and at 1.
        let shared = Arc::new(triples(&self.items));
        let (step, mode) = (self.cfg.step_size, MathMode::Exact);
        let update = Arc::new(
            move |&(u, i, v): &Triple,
                  w: &mut DistArray<f32>,
                  h: &mut DistArray<f32>,
                  _: &mut ()| {
                kernels::mf_row_update(w.row_slice_mut(u), h.row_slice_mut(i), v, step, mode);
            },
        );
        let noop =
            Arc::new(|_: &Triple, _: &mut DistArray<f32>, _: &mut DistArray<f32>, _: &mut ()| {});
        let mut two = self.grid(WORKERS);
        let mut one = self.grid(1);
        let mut alone = Vec::new();
        for _ in 0..PROBE_REPS {
            let pass = two.pass(tr, "runtime.grid_pass", &shared, &update);
            layers.lower("runtime.grid_pass_ms", "ms", pass * 1e3);
            alone.push(one.pass(tr, "runtime.grid_pass_1worker", &shared, &update) * 1e3);
            let floor = two.pass(tr, "runtime.grid_pass_noop", &shared, &noop);
            layers.lower("runtime.grid_pass_noop_ms", "ms", floor * 1e3);
        }
        let grid_pass_ms = layers.best("runtime.grid_pass_ms");
        layers.higher(
            "runtime.speedup_2v1",
            "ratio",
            fastest(&alone) / grid_pass_ms,
        );

        // The kernel alone, serially over every rating.
        let mut m = fresh_model(&self.data, &self.cfg);
        for _ in 0..PROBE_REPS {
            let (_, s) = tr.span("dsm.mf_update", || {
                for &(u, i, v) in shared.iter() {
                    kernels::mf_row_update(
                        m.w.row_slice_mut(u),
                        m.h.row_slice_mut(i),
                        v,
                        step,
                        mode,
                    );
                }
            });
            layers.lower("dsm.mf_update_ns", "ns", s * 1e9 / shared.len() as f64);
        }

        // The per-pass readout: cut, clone, merge, then the loss.
        for _ in 0..PROBE_REPS {
            let (w, h) = (model.w.clone(), model.h.clone());
            let (_, s) = tr.span("dsm.split_merge", || {
                let wp = w.split_along(0, &two.w_ranges);
                let hp = h.split_along(0, &two.h_ranges);
                (
                    DistArray::merge_along(0, wp.clone()),
                    DistArray::merge_along(0, hp.clone()),
                )
            });
            layers.lower("dsm.split_merge_ms", "ms", s * 1e3);
            let (_, s) = tr.span("apps.mf_loss", || model.loss(&self.items));
            layers.lower("apps.mf_loss_ms", "ms", s * 1e3);
        }

        // The simulated engine on the same loop: what the cost model
        // says an epoch takes, what simulating it costs, and how far
        // the model is from the measured pass.
        let run = MfRunConfig {
            cluster: ClusterSpec::new(1, WORKERS),
            passes: 3,
            ordered: false,
        };
        let ((_, stats), s) = tr.span("sim.train_orion", || {
            sgd_mf::train_orion(&self.data, self.cfg.clone(), &run)
        });
        let virtual_ms = stats
            .secs_per_iteration(0, run.passes)
            .expect("3 passes ran")
            * 1e3;
        layers.lower("sim.virtual_epoch_ms", "ms", virtual_ms);
        layers.lower("sim.pass_wall_ms", "ms", s * 1e3 / run.passes as f64);
        layers.lower("sim.real_over_virtual", "ratio", grid_pass_ms / virtual_ms);
        tr.end(group);
    }
}
