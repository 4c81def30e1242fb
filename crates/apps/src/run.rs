//! One generic runner for every application: each app implements
//! [`App`] once, and [`run`] executes it on whichever [`Engine`] the
//! [`RunConfig`] names, with tracing, tuning and chaos recovery as
//! orthogonal options — the paper's model of one serial program whose
//! execution the runtime, not the program text, decides (§3, §4.1).
//!
//! What each app supports (anything else is [`RunError::Unsupported`]):
//!
//! | App | `Sim` | `Threads` | `Net` | `trace` | `tune` | `chaos` |
//! |-----|-------|-----------|-------|---------|--------|---------|
//! | `sgd_mf` | yes | yes (plain update) | yes | `Sim`, `Threads` | `Sim` | `Sim` |
//! | `slr` | yes | yes | yes | `Sim`, `Threads` | `Sim` | `Sim` |
//! | `lda` | yes | yes | — | `Sim`, `Threads` | — | — |
//! | `tensor_cp` | yes | yes (`buffer_s`) | — | `Sim`, `Threads` | — | — |
//! | `gbt` | yes | yes | — | `Sim`, `Threads` | — | — |
//!
//! **The reference rule.** Every app keeps exactly two pass bodies: the
//! simulated pass ([`App::sim_pass`]), which addresses the whole model,
//! and the partition-form pass ([`App::pooled`]), which the threaded
//! engine and the TCP nodes share. They are deliberately not merged:
//! every conformance suite compares a real engine against the simulated
//! run, and that comparison only catches partition-addressing bugs
//! while the reference does not address partitions.

use std::sync::Arc;

use orion_core::{
    CheckpointPolicy, ClusterSpec, CompiledLoop, DistArray, Driver, FaultEvent, MathMode, RunStats,
    ThreadedPlan, TuneConfig, TuneOutcome,
};
use orion_dsm::checkpoint;
use orion_net::{EpochStats, MsgRecord, NetError};

use crate::chaos::{ChaosConfig, ChaosReport};
use crate::common::{span_capacity, TraceArtifacts};
use crate::distributed::DistOptions;

/// Where a run executes.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The virtual-time simulated cluster — the conformance oracle.
    Sim(ClusterSpec),
    /// A persistent pool of this many OS threads; bit-identical to
    /// `Sim(ClusterSpec::new(1, n))`.
    Threads(usize),
    /// One OS process per node over localhost TCP; bit-identical to
    /// `Sim(ClusterSpec::new(nodes, 1))`.
    Net(DistOptions),
}

impl Engine {
    fn name(&self) -> &'static str {
        match self {
            Engine::Sim(_) => "sim",
            Engine::Threads(_) => "threads",
            Engine::Net(_) => "net",
        }
    }
}

/// How to run an [`App`]: the engine plus orthogonal options.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Where the passes execute.
    pub engine: Engine,
    /// Data passes (boosting rounds for GBT; must equal
    /// [`DistOptions::epochs`] on `Net`).
    pub passes: u64,
    /// Record spans and return [`TraceArtifacts`]; never changes results.
    pub trace: bool,
    /// Re-plan the compiled loop from measured costs before training.
    pub tune: Option<TuneConfig>,
    /// Run under a fault plan with checkpoint-every-N recovery.
    pub chaos: Option<ChaosConfig>,
}

impl RunConfig {
    /// A plain run: no tracing, tuning or fault plan.
    pub fn new(engine: Engine, passes: u64) -> Self {
        RunConfig {
            engine,
            passes,
            trace: false,
            tune: None,
            chaos: None,
        }
    }
}

/// What only a `Net` run reports.
#[derive(Debug)]
pub struct NetReport {
    /// Run report with real wire bytes merged into the link table.
    pub report: orion_core::RunReport,
    /// Per-epoch wall-clock and per-link byte accounting, in execution
    /// order (re-executed epochs appear again after a recovery).
    pub epochs: Vec<EpochStats>,
    /// Node crashes recovered from.
    pub recoveries: u64,
    /// Completed epochs that had to be re-executed after rollbacks.
    pub reexecuted: u64,
    /// Protocol messages seen by the coordinator, in order (empty
    /// unless [`DistOptions::record_msgs`] was set).
    pub msg_log: Vec<MsgRecord>,
}

/// Everything a run hands back; each option's artifact is `Some`
/// exactly when the option was on.
#[derive(Debug)]
pub struct RunOutput<M> {
    /// The trained model.
    pub model: M,
    /// Progress curve (one point per pass) and traffic accounting.
    pub stats: RunStats,
    /// Perfetto-exportable session plus run report ([`RunConfig::trace`]).
    pub trace: Option<TraceArtifacts>,
    /// The tuner's decision record ([`RunConfig::tune`]).
    pub tune: Option<TuneOutcome>,
    /// What fault handling did and cost ([`RunConfig::chaos`]).
    pub chaos: Option<ChaosReport>,
    /// Wire-level accounting ([`Engine::Net`]).
    pub net: Option<NetReport>,
}

/// Why a run could not start or finish.
#[derive(Debug)]
pub enum RunError {
    /// The combination means nothing for this app: nothing ran.
    Unsupported {
        /// [`App::NAME`].
        app: &'static str,
        /// `sim`, `threads` or `net`.
        engine: &'static str,
        /// The option (or app knob) the engine cannot honor.
        option: &'static str,
    },
    /// The TCP cluster could not be launched or failed unrecoverably.
    Net(NetError),
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::Unsupported {
                app,
                engine,
                option,
            } => write!(
                f,
                "`{app}` does not support `{option}` on the {engine} engine"
            ),
            RunError::Net(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<NetError> for RunError {
    fn from(e: NetError) -> Self {
        RunError::Net(e)
    }
}

impl From<RunError> for NetError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Net(e) => e,
            other => NetError::Protocol(other.to_string()),
        }
    }
}

/// The [`RunError::Unsupported`] of app `A`.
pub(crate) fn unsupported<A: App + ?Sized>(engine: &'static str, option: &'static str) -> RunError {
    RunError::Unsupported {
        app: A::NAME,
        engine,
        option,
    }
}

/// What [`App::pooled`] runs on: the driver that owns the worker pool,
/// the compiled loop, and its plan for the threaded engine.
pub struct Pool<'a> {
    /// Dispatches the pooled passes and keeps the virtual timeline.
    pub driver: &'a mut Driver,
    /// The loop every pass executes.
    pub compiled: &'a CompiledLoop,
    /// `compiled`'s schedule compiled for the pool (O100-checked under
    /// validation).
    pub plan: Arc<ThreadedPlan>,
}

impl Pool<'_> {
    /// Records the metric of pass `pass` — exactly one point per pass.
    pub fn record(&mut self, pass: u64, metric: f64) {
        self.driver.record_progress(pass, metric);
    }
}

/// One training application: its setup, its two pass bodies, and its
/// metric. [`run`] owns everything around them — the driver, tracing,
/// tuning, checkpointing and recovery, the progress curve.
pub trait App {
    /// The dataset the app trains on.
    type Data;
    /// The trained model handed back.
    type Model;
    /// What [`App::setup`] builds besides the compiled loop: the model
    /// plus the per-run tables the passes read.
    type Job;

    /// Short name used in trace session labels and error messages.
    const NAME: &'static str;

    /// Floating-point reduction policy the driver carries.
    fn math(&self) -> MathMode {
        MathMode::Exact
    }

    /// The one setup every engine (and every cluster process) starts
    /// from: initialize the model, register the arrays, build the
    /// `LoopSpec`, `parallel_for`.
    fn setup(&self, data: &Self::Data, driver: &mut Driver) -> (CompiledLoop, Self::Job);

    /// One pass on the simulated cluster against the whole model — the
    /// reference body. Returns the crash the fault plan scripted for
    /// this pass, if any; the runner then discards the pass.
    fn sim_pass(
        &self,
        data: &Self::Data,
        job: &mut Self::Job,
        driver: &mut Driver,
        compiled: &CompiledLoop,
        pass: u64,
    ) -> Option<FaultEvent>;

    /// The convergence metric of the whole model.
    fn metric(&self, data: &Self::Data, job: &Self::Job) -> f64;

    /// The trained model out of a finished job.
    fn into_model(job: Self::Job) -> Self::Model;

    /// All `passes` passes in partition form on the worker pool,
    /// [`Pool::record`]ing the metric after every one.
    fn pooled(
        &self,
        data: &Self::Data,
        job: Self::Job,
        pool: &mut Pool<'_>,
        passes: u64,
    ) -> Result<Self::Model, RunError>;

    /// Executions of the compiled loop that `passes` passes make (sizes
    /// the span buffer).
    fn loop_runs(&self, passes: u64) -> u64 {
        passes
    }

    /// Re-plans the compiled loop from measured costs.
    fn tune(
        &self,
        _job: &Self::Job,
        _driver: &mut Driver,
        _compiled: &CompiledLoop,
        _cfg: &TuneConfig,
    ) -> Result<(CompiledLoop, TuneOutcome), RunError> {
        Err(unsupported::<Self>("sim", "tune"))
    }

    /// The model arrays a chaos run checkpoints and restores, by file
    /// name — all of the state a pass reads.
    fn checkpointed<'a>(
        &self,
        _job: &'a mut Self::Job,
    ) -> Result<Vec<(&'static str, &'a mut DistArray<f32>)>, RunError> {
        Err(unsupported::<Self>("sim", "chaos"))
    }

    /// Runs on a localhost TCP cluster; overridden by the apps that
    /// have a node side (see `docs/DISTRIBUTED.md`).
    fn run_net(
        &self,
        _data: &Self::Data,
        _opts: &DistOptions,
    ) -> Result<RunOutput<Self::Model>, RunError> {
        Err(unsupported::<Self>("net", "run"))
    }
}

/// A driver on `cluster` carrying the app's math mode.
pub(crate) fn new_driver<A: App>(app: &A, cluster: ClusterSpec) -> Driver {
    let mut driver = Driver::new(cluster);
    driver.set_math_mode(app.math());
    driver
}

/// Trains `app` on `data` as `cfg` says.
///
/// # Errors
///
/// [`RunError::Unsupported`] for a combination the app has no
/// implementation of (nothing ran); [`RunError::Net`] when a cluster
/// cannot be launched or fails unrecoverably.
///
/// # Panics
///
/// Panics if a `Net` run's `passes` differ from its `epochs`.
pub fn run<A: App>(
    app: &A,
    data: &A::Data,
    cfg: &RunConfig,
) -> Result<RunOutput<A::Model>, RunError> {
    let engine = cfg.engine.name();
    let reject = |on: bool, option| match on {
        true => Err(unsupported::<A>(engine, option)),
        false => Ok(()),
    };
    match &cfg.engine {
        Engine::Sim(cluster) => run_sim(app, data, cluster.clone(), cfg),
        Engine::Threads(threads) => {
            reject(cfg.tune.is_some(), "tune")?;
            reject(cfg.chaos.is_some(), "chaos")?;
            run_threads(app, data, *threads, cfg)
        }
        Engine::Net(opts) => {
            reject(cfg.tune.is_some(), "tune")?;
            reject(cfg.chaos.is_some(), "chaos")?;
            reject(cfg.trace, "trace")?;
            assert_eq!(opts.epochs, cfg.passes, "a Net run's passes are its epochs");
            app.run_net(data, opts)
        }
    }
}

/// A plain run on `engine` — always supported for `Sim` and `Threads` —
/// as the `(model, stats)` pair the per-app `train_*` wrappers return.
pub(crate) fn train<A: App>(
    app: &A,
    data: &A::Data,
    engine: Engine,
    passes: u64,
) -> (A::Model, RunStats) {
    let out = run(app, data, &RunConfig::new(engine, passes)).expect("a plain run is supported");
    (out.model, out.stats)
}

fn run_sim<A: App>(
    app: &A,
    data: &A::Data,
    cluster: ClusterSpec,
    cfg: &RunConfig,
) -> Result<RunOutput<A::Model>, RunError> {
    let mut driver = new_driver(app, cluster);
    let (mut compiled, mut job) = app.setup(data, &mut driver);
    let tune = match &cfg.tune {
        Some(tune) => {
            let (tuned, outcome) = app.tune(&job, &mut driver, &compiled, tune)?;
            compiled = tuned;
            Some(outcome)
        }
        None => None,
    };
    if cfg.trace {
        // Re-executed passes and fault spans need headroom beyond the
        // fault-free span count; the buffer grows if a plan exceeds it.
        let passes = match cfg.chaos {
            Some(_) => cfg.passes * 2 + 2,
            None => cfg.passes,
        };
        driver.enable_tracing(span_capacity(&compiled.schedule, app.loop_runs(passes)));
    }
    // A run without chaos is the same loop with no checkpoint due and no
    // fault to find.
    let policy = cfg.chaos.as_ref().map(ChaosConfig::policy);
    let checkpoint = |job: &mut A::Job, driver: &mut Driver, policy: &CheckpointPolicy| {
        let mut bytes = 0;
        for (name, array) in app.checkpointed(job)? {
            bytes += checkpoint::save(array, policy.path_for(name)).expect("checkpoint saves");
        }
        driver.charge_checkpoint(bytes);
        Ok::<(), RunError>(())
    };
    if let (Some(chaos), Some(policy)) = (&cfg.chaos, &policy) {
        // Nothing is created for an app that cannot checkpoint.
        app.checkpointed(&mut job)?;
        std::fs::create_dir_all(&chaos.dir).expect("checkpoint dir is creatable");
        driver.set_fault_plan(chaos.plan.clone());
        // The initial checkpoint: "the latest checkpoint" always exists.
        checkpoint(&mut job, &mut driver, policy)?;
    }

    let (mut pass, mut last_ckpt, mut reexecuted) = (0u64, 0u64, 0u64);
    while pass < cfg.passes {
        if let Some(policy) = policy.as_ref().filter(|p| p.due(pass) && pass != last_ckpt) {
            // Written once even if recovery revisits this pass number.
            checkpoint(&mut job, &mut driver, policy)?;
            last_ckpt = pass;
        }
        match app.sim_pass(data, &mut job, &mut driver, &compiled, pass) {
            None => {
                driver.record_progress(pass, app.metric(data, &job));
                pass += 1;
            }
            Some(fault) => {
                let policy = policy.as_ref().expect("only a fault plan crashes machines");
                let mut bytes = 0;
                for (name, array) in app.checkpointed(&mut job)? {
                    let path = policy.path_for(name);
                    *array = checkpoint::load(&path).expect("checkpoint reloads");
                    bytes += std::fs::metadata(path).map_or(0, |md| md.len());
                }
                driver.complete_recovery(&fault, bytes);
                driver.rollback_progress(last_ckpt);
                // Everything since the checkpoint reruns, plus the
                // crashed pass itself ran once for nothing.
                reexecuted += pass - last_ckpt + 1;
                pass = last_ckpt;
            }
        }
    }
    let chaos = policy.map(|_| ChaosReport::from_stats(driver.recovery_stats(), reexecuted));
    Ok(finish(
        A::into_model(job),
        driver,
        &compiled,
        cfg.trace.then(|| format!("orion/{}", A::NAME)),
        tune,
        chaos,
    ))
}

fn run_threads<A: App>(
    app: &A,
    data: &A::Data,
    threads: usize,
    cfg: &RunConfig,
) -> Result<RunOutput<A::Model>, RunError> {
    // One pool thread per worker of the (single-machine) cluster.
    let mut driver = new_driver(app, ClusterSpec::new(1, threads));
    driver.set_threads(threads);
    let (compiled, job) = app.setup(data, &mut driver);
    if cfg.trace {
        driver.enable_tracing(span_capacity(&compiled.schedule, app.loop_runs(cfg.passes)));
    }
    let plan = driver.compile_threaded(&compiled);
    let mut pool = Pool {
        driver: &mut driver,
        compiled: &compiled,
        plan,
    };
    let model = app.pooled(data, job, &mut pool, cfg.passes)?;
    let session = cfg.trace.then(|| format!("threaded/{}", A::NAME));
    Ok(finish(model, driver, &compiled, session, None, None))
}

/// Collects the trace artifacts (when a session name is given) and
/// consumes the driver into the run's output.
fn finish<M>(
    model: M,
    driver: Driver,
    compiled: &CompiledLoop,
    session: Option<String>,
    tune: Option<TuneOutcome>,
    chaos: Option<ChaosReport>,
) -> RunOutput<M> {
    let trace = session.map(|name| TraceArtifacts::collect(&driver, &name, compiled));
    RunOutput {
        model,
        stats: driver.finish(),
        trace,
        tune,
        chaos,
        net: None,
    }
}
