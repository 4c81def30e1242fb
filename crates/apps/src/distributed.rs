//! Multi-process distributed training over TCP — the `orion-net`
//! runtime applied to the two flagship workloads (see
//! `docs/DISTRIBUTED.md` for the protocol walkthrough).
//!
//! One process per node: a [`Coordinator`] launched by the training
//! driver re-executes the current binary `N` times with
//! `ORION_NET_ROLE=node`; each child calls [`maybe_node`] at the top of
//! `main`, regenerates the dataset and model from the seeds in its
//! environment, recompiles the schedule, and proves it compiled the
//! *same* schedule via [`plan_fingerprint`] in its `Hello`. No code or
//! plan ever crosses the wire — only DistArray partitions,
//! server-style updates, and prefetch responses, all in the bit-exact
//! `orion-dsm` codecs.
//!
//! Two execution shapes, mirroring the in-process engines:
//!
//! - **SGD MF** (2-D unordered, paper Fig. 8): node `w` owns space
//!   partition `w` of `W`; partitions of `H` rotate peer-to-peer along
//!   the compiled forwarding edges, walked by the same
//!   [`orion_runtime::walk`] that moves them between pool threads in
//!   [`orion_runtime::run_grid_pass_pooled`]. At the end of every epoch
//!   each partition is *re-homed* to its pass-start owner so the next
//!   epoch seeds the same queues.
//! - **SLR** (1-D data parallel, §3.3/§4.4): nodes are stateless; the
//!   coordinator serves the weight array, answers bulk-prefetch
//!   requests from the pass-start snapshot, and applies the buffered
//!   updates in node order — the same order the simulated pass applies
//!   its per-worker buffers.
//!
//! Fault tolerance reuses the PR-3 checkpoint machinery
//! ([`CheckpointPolicy`] naming): MF nodes persist epoch-tagged
//! partition checkpoints at coordinator-driven barriers and restore
//! them on `Rollback`; SLR needs no node state at all, so a crashed
//! epoch simply re-runs against the coordinator's in-memory weights
//! (which only mutate at epoch end). Either way the virtual-time sim
//! stays the conformance oracle: same seed, same plan → bit-identical
//! model state (enforced by `tests/distributed_conformance.rs`).

use std::collections::btree_map::{BTreeMap, Entry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use orion_core::{
    CheckpointPolicy, ClusterSpec, CompiledLoop, DistArray, DistArrayBuffer, MathMode, RunReport,
    RunStats,
};
use orion_data::{RatingsConfig, RatingsData, SparseConfig, SparseData};
use orion_dsm::{checkpoint, codec};
use orion_net::{
    plan_fingerprint, ClusterConfig, Coordinator, EpochStats, Msg, NetError, NodeConfig,
    NodeEndpoint, PartRecv, ENV_COORD, ENV_NODES, ENV_NODE_ID, ENV_ROLE,
};
use orion_runtime::{walk, HbEvent, ThreadPhase, ThreadedPlan, Transport};

use crate::common::{by_role, space_is_dim0, split_by_role};
use crate::run::{new_driver, run, App, Engine, NetReport, RunConfig, RunError, RunOutput};
use crate::sgd_mf::{MfApp, MfConfig, MfGrid, MfJob, MfModel};
use crate::slr::{self, SlrApp, SlrConfig, SlrJob, SlrModel};

/// Which application a node process should run (`mf` or `slr`).
pub const ENV_APP: &str = "ORION_NET_APP";
/// Dataset generator configuration (seeds and sizes, floats as bit
/// patterns in hex — replication must be exact, not round-tripped
/// through decimal).
pub const ENV_DATA: &str = "ORION_NET_DATA";
/// Hyperparameters (same encoding rules as [`ENV_DATA`]).
pub const ENV_HYPER: &str = "ORION_NET_HYPER";
/// Directory for checkpoints and crash markers.
pub const ENV_WORKDIR: &str = "ORION_NET_WORKDIR";
/// Run identifier scoping checkpoint/marker filenames.
pub const ENV_RUN_ID: &str = "ORION_NET_RUN";
/// Fault injection: the epoch in which this node kills itself mid-pass
/// (once — a marker file keeps the respawned process alive).
pub const ENV_CRASH_EPOCH: &str = "ORION_NET_CRASH_EPOCH";

// ---------------------------------------------------------------------
// Exact float transport through the environment.

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f32_hex(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

fn parse_f64(s: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(s, 16).expect("16-digit hex f64 bits"))
}

fn parse_f32(s: &str) -> f32 {
    f32::from_bits(u32::from_str_radix(s, 16).expect("8-digit hex f32 bits"))
}

fn fields(raw: &str, n: usize, what: &str) -> Vec<String> {
    let parts: Vec<String> = raw.split(',').map(str::to_owned).collect();
    assert_eq!(parts.len(), n, "{what}: expected {n} fields in {raw:?}");
    parts
}

fn env(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| panic!("node environment is missing {key}"))
}

// ---------------------------------------------------------------------
// Options and results.

/// How to run a localhost cluster.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Node processes to spawn.
    pub nodes: usize,
    /// Training epochs (= data passes).
    pub epochs: u64,
    /// Checkpoint-barrier interval in epochs; `0` keeps only the
    /// initial (epoch-0) checkpoint, so recovery restarts training.
    pub checkpoint_every: u64,
    /// Directory for checkpoints and crash markers (created if absent).
    pub workdir: PathBuf,
    /// Scopes this run's files inside `workdir`.
    pub run_id: String,
    /// Fault injection: `(node, epoch)` — that node exits mid-epoch,
    /// once.
    pub crash: Option<(usize, u64)>,
    /// Record every coordinator-side protocol message for the O204
    /// runtime monitor (`orion_check::proto::monitor_log` consumes the
    /// log returned in [`DistRunResult::msg_log`]).
    pub record_msgs: bool,
}

impl DistOptions {
    /// Options with checkpoints every epoch and no fault injection.
    pub fn new(nodes: usize, epochs: u64, workdir: impl Into<PathBuf>) -> Self {
        DistOptions {
            nodes,
            epochs,
            checkpoint_every: 1,
            workdir: workdir.into(),
            run_id: "run".into(),
            crash: None,
            record_msgs: false,
        }
    }
}

/// Everything a distributed run hands back: a `Net` [`RunOutput`],
/// flattened.
#[derive(Debug)]
pub struct DistRunResult<M> {
    /// Final model, gathered from the cluster (MF) or held by the
    /// coordinator (SLR). Bit-identical to the sim oracle's.
    pub model: M,
    /// Virtual-time accounting from the coordinator's sim driver.
    pub stats: RunStats,
    /// Run report with real wire bytes merged into the link table.
    pub report: RunReport,
    /// Per-epoch wall-clock and per-link byte accounting, in execution
    /// order (re-executed epochs appear again after a recovery).
    pub epochs: Vec<EpochStats>,
    /// Node crashes recovered from.
    pub recoveries: u64,
    /// Completed epochs that had to be re-executed after rollbacks.
    pub reexecuted: u64,
    /// Protocol messages seen by the coordinator, in order (empty
    /// unless [`DistOptions::record_msgs`] was set).
    pub msg_log: Vec<orion_net::MsgRecord>,
}

impl<M> From<RunOutput<M>> for DistRunResult<M> {
    fn from(out: RunOutput<M>) -> Self {
        let net = out.net.expect("a Net run reports its wire accounting");
        DistRunResult {
            model: out.model,
            stats: out.stats,
            report: net.report,
            epochs: net.epochs,
            recoveries: net.recoveries,
            reexecuted: net.reexecuted,
            msg_log: net.msg_log,
        }
    }
}

// ---------------------------------------------------------------------
// What an application adds to `App` to run on the cluster.

/// An [`App`] with a node side. Coordinator and nodes compile through
/// the app's one [`App::setup`] on a `nodes × 1` cluster, and the
/// fingerprint handshake proves they compiled the same schedule.
pub(crate) trait NetApp: App + Sized {
    /// The [`ENV_APP`] value selecting this app in a node process.
    const TAG: &'static str;
    /// Whether the model lives on the nodes between epochs. If so the
    /// coordinator drives checkpoint barriers, recovery rolls back to
    /// the last one, and the metric is read once the final state is
    /// gathered. If not, the coordinator holds the model, every epoch
    /// boundary is a recovery point, and every epoch records progress.
    const STATEFUL_NODES: bool;
    /// What one node process holds and does.
    type Node: NetNode;

    /// The dataset generator config and hyperparameters as the
    /// ([`ENV_DATA`], [`ENV_HYPER`]) values, floats as bit patterns.
    fn to_env(&self, data: &Self::Data) -> (String, String);

    /// The node side of [`NetApp::to_env`]: the app, and the dataset
    /// regenerated from its seed.
    fn from_env(data: &str, hyper: &str) -> (Self, Self::Data);

    /// Node `node`'s slice of a freshly set-up job.
    fn node(
        &self,
        data: Self::Data,
        job: Self::Job,
        compiled: &CompiledLoop,
        plan: &Arc<ThreadedPlan>,
        mode: MathMode,
        node: usize,
    ) -> Self::Node;

    /// Answers one mid-epoch message from `node` (server-mode traffic).
    fn on_msg(&self, _job: &mut Self::Job, _epoch: u64, _node: usize, _msg: Msg) -> Option<Msg> {
        None
    }

    /// Folds what a completed epoch's messages accumulated into the
    /// model.
    fn end_epoch(&self, _job: &mut Self::Job) {}

    /// Installs the state gathered from the nodes into the model.
    fn install(
        &self,
        _job: &mut Self::Job,
        _compiled: &CompiledLoop,
        _plan: &ThreadedPlan,
        _gathered: Vec<Vec<(u32, Bytes)>>,
    ) -> Result<(), NetError> {
        Ok(())
    }
}

/// One node's measured epoch, reported in `EpochDone`.
pub(crate) struct EpochWork {
    compute_ns: u64,
    /// Everything in the epoch that is not the kernel: partitions
    /// encoded and written, awaited and decoded (MF); the prefetch round
    /// trip and the server round (SLR).
    rotation_ns: u64,
    /// Happens-before event log for the O11x detector.
    events: Vec<HbEvent>,
}

/// The node side of a [`NetApp`]. The defaults are a stateless node:
/// both barriers are pure acknowledgements and there is nothing to
/// gather.
pub(crate) trait NetNode {
    /// Runs one epoch. `Err(ctrl)` when a `Rollback`/`Shutdown`
    /// preempted the pass: the partial state is garbage and the control
    /// message still needs handling.
    fn epoch(&mut self, ctx: &mut NodeCtx, epoch: u64) -> Result<EpochWork, Msg>;

    /// Persists the node's state as of the start of `epoch`.
    fn checkpoint(&self, _ctx: &NodeCtx, _epoch: u64) {}

    /// Reloads the state checkpointed at `epoch`.
    fn restore(&mut self, _ctx: &NodeCtx, _epoch: u64) {}

    /// The node's final state as tagged checkpoint images.
    fn gather(&self) -> Vec<(u32, Bytes)> {
        Vec::new()
    }
}

/// What every node process has besides its app state.
pub(crate) struct NodeCtx {
    ep: NodeEndpoint,
    node: usize,
    workdir: PathBuf,
    run_id: String,
    crash: Crash,
}

/// Fault injection: the epoch this node dies in, if it has not died
/// already, and the marker file that keeps its respawn alive.
struct Crash {
    epoch: Option<u64>,
    marker: PathBuf,
}

impl Crash {
    /// Kills the process halfway through (`i` of `n` items) the crash
    /// epoch — once: the marker file keeps the respawned process alive.
    fn maybe(&self, epoch: u64, i: usize, n: usize) {
        if self.epoch == Some(epoch) && i == n / 2 {
            std::fs::write(&self.marker, b"crashed\n").expect("write crash marker");
            std::process::exit(17);
        }
    }
}

impl NodeCtx {
    /// Checkpoint path for one array at one epoch boundary (state
    /// *before* that epoch), via the PR-3 naming scheme.
    fn ckpt_path(&self, array: &str, epoch: u64) -> PathBuf {
        CheckpointPolicy::new(1, &self.workdir, format!("{}_n{}", self.run_id, self.node))
            .path_for(&format!("{array}_e{epoch}"))
    }
}

/// The node's [`Transport`] for one epoch: a rotated partition travels
/// to its peer as a checkpoint frame (shape + origin + dense run, so
/// `row_slice_mut` keeps addressing by global index on the receiving
/// side), and a `Rollback`/`Shutdown` that preempts a wait aborts the
/// epoch. Everything it does — encode and write, wait and decode — is
/// rotation time.
struct Sockets<'a> {
    ep: &'a mut NodeEndpoint,
    node: usize,
    epoch: u64,
    rotation_ns: u64,
}

impl Transport<DistArray<f32>> for Sockets<'_> {
    type Abort = Msg;

    fn recv(&mut self, tp: usize) -> Result<DistArray<f32>, Msg> {
        let (t0, node, epoch) = (Instant::now(), self.node, self.epoch);
        let part = match self.ep.recv_partition(epoch, tp as u32, ROTATION_TIMEOUT) {
            Ok(PartRecv::Part(payload)) => {
                checkpoint::from_bytes::<f32>(payload).expect("rotated partition decodes")
            }
            Ok(PartRecv::Ctrl(ctrl)) => return Err(ctrl),
            Ok(PartRecv::TimedOut) => {
                panic!("node {node}: timed out awaiting partition {tp} in epoch {epoch}")
            }
            Err(e) => panic!("node {node}: {e}"),
        };
        self.rotation_ns += t0.elapsed().as_nanos() as u64;
        Ok(part)
    }

    fn send(&mut self, dst: usize, tp: usize, part: DistArray<f32>) -> Result<(), Msg> {
        let t0 = Instant::now();
        self.ep.send_partition(dst, self.epoch, tp as u32, |frame| {
            checkpoint::encode_into(&part, frame)
        });
        self.rotation_ns += t0.elapsed().as_nanos() as u64;
        Ok(())
    }
}

/// How long a node waits for one rotated partition before declaring the
/// cluster wedged. Generous: CI runs debug builds.
const ROTATION_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a node idles waiting for the next coordinator command.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(600);

// ---------------------------------------------------------------------
// Node-process entry.

/// Call this first in `main`. If the process was spawned as a cluster
/// node (`ORION_NET_ROLE=node`), runs the node to completion and exits;
/// otherwise returns immediately and `main` proceeds as the
/// coordinator-side program.
pub fn maybe_node() {
    if std::env::var(ENV_ROLE).as_deref() == Ok("node") {
        let coord = env(ENV_COORD);
        run_as_node(&coord);
    }
}

/// Runs this process as a cluster node against `coord` and exits.
/// Useful directly for the examples' `--coordinator ADDR` flag.
pub fn run_as_node(coord: &str) -> ! {
    let node: usize = env(ENV_NODE_ID).parse().expect("node id");
    let n_nodes: usize = env(ENV_NODES).parse().expect("node count");
    match env(ENV_APP).as_str() {
        MfApp::TAG => node_main::<MfApp>(coord, node, n_nodes),
        SlrApp::TAG => node_main::<SlrApp>(coord, node, n_nodes),
        other => {
            eprintln!("unknown ORION_NET_APP {other:?}");
            std::process::exit(2);
        }
    }
}

/// The node process: set up exactly as the coordinator does, connect,
/// then obey the coordinator's commands on the ordered control stream.
fn node_main<A: NetApp>(coord: &str, node: usize, n_nodes: usize) -> ! {
    let (app, data) = A::from_env(&env(ENV_DATA), &env(ENV_HYPER));
    let mut driver = new_driver(&app, ClusterSpec::new(n_nodes, 1));
    let (compiled, job) = app.setup(&data, &mut driver);
    let plan = driver.compile_threaded(&compiled);
    let ep = NodeEndpoint::connect(&NodeConfig {
        node,
        n_nodes,
        coord: coord.into(),
        fingerprint: plan_fingerprint(&plan),
    })
    .expect("node connects to the coordinator");
    let (workdir, run_id) = (PathBuf::from(env(ENV_WORKDIR)), env(ENV_RUN_ID));
    let marker = workdir.join(format!("{run_id}_crashed_n{node}.marker"));
    let crash = Crash {
        epoch: std::env::var(ENV_CRASH_EPOCH)
            .ok()
            .filter(|_| !marker.exists())
            .and_then(|e| e.parse().ok()),
        marker,
    };
    let mut ctx = NodeCtx {
        ep,
        node,
        workdir,
        run_id,
        crash,
    };
    let mut state = app.node(data, job, &compiled, &plan, driver.math_mode(), node);
    // Epoch-0 checkpoint: the initial state, so a rollback before the
    // first barrier restarts training from scratch.
    state.checkpoint(&ctx, 0);

    let node_id = node as u32;
    let mut pending: Option<Msg> = None;
    loop {
        let msg = pending.take().unwrap_or_else(|| {
            ctx.ep
                .next_coord_msg(CONTROL_TIMEOUT)
                .expect("coordinator control message")
        });
        let reply = match msg {
            Msg::EpochStart { epoch } => match state.epoch(&mut ctx, epoch) {
                Ok(work) => Msg::EpochDone {
                    epoch,
                    node: node_id,
                    compute_ns: work.compute_ns,
                    rotation_ns: work.rotation_ns,
                    sent: ctx.ep.take_sent(),
                    events: work.events,
                },
                Err(ctrl) => {
                    pending = Some(ctrl);
                    continue;
                }
            },
            Msg::Checkpoint { epoch } => {
                state.checkpoint(&ctx, epoch);
                Msg::CheckpointDone {
                    epoch,
                    node: node_id,
                }
            }
            Msg::Rollback { epoch } => {
                state.restore(&ctx, epoch);
                ctx.ep.clear_inbox();
                Msg::RollbackDone {
                    epoch,
                    node: node_id,
                }
            }
            Msg::Gather => Msg::FinalState {
                node: node_id,
                parts: state.gather(),
            },
            Msg::Shutdown => std::process::exit(0),
            // Stale traffic from an abandoned epoch (e.g. a prefetch
            // response raced a rollback): deterministic re-execution
            // makes it redundant, so dropping it is sound.
            _ => continue,
        };
        ctx.ep.send_coord(&reply).expect("reply to the coordinator");
        if let Msg::EpochDone { epoch, .. } = reply {
            ctx.ep.gc_below(epoch);
        }
    }
}

// ---------------------------------------------------------------------
// The coordinator-side training driver.

/// Trains `app` on a localhost cluster of `opts.nodes` processes —
/// [`crate::run::run`]'s `Net` engine. Bit-identical to the simulated
/// run on a `ClusterSpec::new(nodes, 1)` cluster with the same data,
/// config and pass count: the sim is the conformance oracle.
pub(crate) fn run_net<A: NetApp>(
    app: &A,
    data: &A::Data,
    opts: &DistOptions,
) -> Result<RunOutput<A::Model>, RunError> {
    assert!(
        opts.nodes >= 1 && opts.epochs >= 1,
        "degenerate cluster options"
    );
    std::fs::create_dir_all(&opts.workdir).map_err(NetError::from)?;
    let mut driver = new_driver(app, ClusterSpec::new(opts.nodes, 1));
    let (compiled, mut job) = app.setup(data, &mut driver);
    let plan = driver.compile_threaded(&compiled);

    let mut ccfg = ClusterConfig::new(opts.nodes, opts.epochs, plan_fingerprint(&plan));
    ccfg.record_msgs = opts.record_msgs;
    let (data_env, hyper_env) = app.to_env(data);
    ccfg.env = vec![
        (ENV_APP.into(), A::TAG.into()),
        (ENV_DATA.into(), data_env),
        (ENV_HYPER.into(), hyper_env),
        (ENV_WORKDIR.into(), opts.workdir.display().to_string()),
        (ENV_RUN_ID.into(), opts.run_id.clone()),
    ];
    if let Some((node, epoch)) = opts.crash {
        ccfg.node_env
            .push((node, ENV_CRASH_EPOCH.into(), epoch.to_string()));
    }
    let mut cluster = Coordinator::launch(ccfg)?;

    let mut epochs_out: Vec<EpochStats> = Vec::new();
    let (mut recoveries, mut reexecuted) = (0u64, 0u64);
    let (mut epoch, mut last_ckpt) = (0u64, 0u64);
    while epoch < opts.epochs {
        let barrier_due = A::STATEFUL_NODES
            && opts.checkpoint_every > 0
            && epoch > 0
            && epoch.is_multiple_of(opts.checkpoint_every)
            && epoch != last_ckpt;
        let step = if barrier_due {
            cluster.checkpoint_barrier(epoch).map(|()| None)
        } else {
            driver
                .run_pass_distributed(&compiled, &mut cluster, epoch, |node, msg| {
                    app.on_msg(&mut job, epoch, node, msg)
                })
                .map(Some)
        };
        match step {
            Ok(None) => last_ckpt = epoch,
            Ok(Some(stats)) => {
                epochs_out.push(stats);
                if !A::STATEFUL_NODES {
                    app.end_epoch(&mut job);
                    driver.record_progress(epoch, app.metric(data, &job));
                    last_ckpt = epoch + 1;
                }
                epoch += 1;
            }
            Err(fault) => {
                // The abandoned epoch never touched the model the
                // rollback restores; everything since reruns.
                recoveries += 1;
                reexecuted += epoch - last_ckpt;
                cluster.recover(&fault, last_ckpt)?;
                driver.rollback_progress(last_ckpt);
                epoch = last_ckpt;
            }
        }
    }

    let gathered = cluster.gather()?;
    let msg_log = cluster.take_msg_log();
    cluster.shutdown();
    app.install(&mut job, &compiled, &plan, gathered)?;
    if A::STATEFUL_NODES {
        driver.record_progress(opts.epochs - 1, app.metric(data, &job));
    }
    let report = driver.run_report(&compiled);
    Ok(RunOutput {
        model: A::into_model(job),
        stats: driver.finish(),
        trace: None,
        tune: None,
        chaos: None,
        net: Some(NetReport {
            report,
            epochs: epochs_out,
            recoveries,
            reexecuted,
            msg_log,
        }),
    })
}

fn train_net<A: NetApp>(
    app: &A,
    data: &A::Data,
    opts: &DistOptions,
) -> Result<DistRunResult<A::Model>, NetError> {
    let cfg = RunConfig::new(Engine::Net(opts.clone()), opts.epochs);
    Ok(run(app, data, &cfg)?.into())
}

/// Trains SGD MF on a localhost cluster of `opts.nodes` processes.
/// Bit-identical to [`crate::sgd_mf::train_orion`] on a
/// `ClusterSpec::new(nodes, 1)` cluster with the same data, config, and
/// pass count.
///
/// # Panics
///
/// Panics on protocol violations.
///
/// # Errors
///
/// Returns the underlying [`NetError`] if the cluster cannot be
/// launched or an unrecoverable transport fault occurs, and
/// [`NetError::Protocol`] in adaptive mode (the accumulators are not
/// partitioned; nothing is launched).
pub fn train_mf_distributed(
    data: &RatingsData,
    cfg: MfConfig,
    ordered: bool,
    opts: &DistOptions,
) -> Result<DistRunResult<MfModel>, NetError> {
    train_net(&MfApp::new(cfg, ordered), data, opts)
}

/// Trains SLR on a localhost cluster of `opts.nodes` stateless worker
/// processes, with the coordinator serving and updating the weight
/// array. Bit-identical to [`crate::slr::train_orion`] on a
/// `ClusterSpec::new(nodes, 1)` cluster — buffers accumulate the same
/// deltas and apply in node (= sim worker) order.
///
/// # Panics
///
/// Panics on protocol violations.
///
/// # Errors
///
/// Returns the underlying [`NetError`] if the cluster cannot be
/// launched or an unrecoverable transport fault occurs, and
/// [`NetError::Protocol`] in adaptive mode (the accumulators live
/// outside the served array; nothing is launched).
pub fn train_slr_distributed(
    data: &SparseData,
    cfg: SlrConfig,
    opts: &DistOptions,
) -> Result<DistRunResult<SlrModel>, NetError> {
    let app = SlrApp {
        cfg,
        prefetch_override: None,
    };
    train_net(&app, data, opts)
}

fn math_bit(math: MathMode) -> u8 {
    matches!(math, MathMode::FastMath) as u8
}

fn parse_math(bit: &str) -> MathMode {
    if bit == "1" {
        MathMode::FastMath
    } else {
        MathMode::Exact
    }
}

// ---------------------------------------------------------------------
// SGD MF (2-D unordered, paper Fig. 8): partitions rotate between nodes.

impl NetApp for MfApp {
    const TAG: &'static str = "mf";
    const STATEFUL_NODES: bool = true;
    type Node = MfNode;

    fn to_env(&self, data: &RatingsData) -> (String, String) {
        let (d, cfg) = (&data.config, &self.cfg);
        (
            format!(
                "{},{},{},{},{},{},{}",
                d.n_users,
                d.n_items,
                d.nnz,
                d.true_rank,
                f64_hex(d.skew),
                f64_hex(d.noise),
                d.seed
            ),
            format!(
                "{},{},{},{},{}",
                cfg.rank,
                f32_hex(cfg.step_size),
                cfg.seed,
                math_bit(cfg.math),
                self.ordered as u8
            ),
        )
    }

    fn from_env(data: &str, hyper: &str) -> (Self, RatingsData) {
        let d = fields(data, 7, "MF data config");
        let data = RatingsConfig {
            n_users: d[0].parse().expect("n_users"),
            n_items: d[1].parse().expect("n_items"),
            nnz: d[2].parse().expect("nnz"),
            true_rank: d[3].parse().expect("true_rank"),
            skew: parse_f64(&d[4]),
            noise: parse_f64(&d[5]),
            seed: d[6].parse().expect("data seed"),
        };
        let h = fields(hyper, 5, "MF hyperparameters");
        let cfg = MfConfig {
            rank: h[0].parse().expect("rank"),
            step_size: parse_f32(&h[1]),
            adaptive: false,
            seed: h[2].parse().expect("model seed"),
            math: parse_math(&h[3]),
        };
        (MfApp::new(cfg, h[4] == "1"), RatingsData::generate(data))
    }

    /// This node's slice of the model: its own space partition of the
    /// pinned factor plus the time partitions of the rotated factor it
    /// homes at pass start.
    fn node(
        &self,
        _data: RatingsData,
        job: MfJob,
        compiled: &CompiledLoop,
        plan: &Arc<ThreadedPlan>,
        mode: MathMode,
        node: usize,
    ) -> MfNode {
        let mut home_of = vec![0usize; plan.n_time_partitions()];
        for w in 0..plan.n_workers() {
            for &tp in plan.initial_of(w) {
                home_of[tp] = w;
            }
        }
        let grid = MfGrid::new(compiled, &job.model, mode);
        let (space_parts, time_parts) = split_by_role(compiled, job.model.w, job.model.h);
        let space_part = space_parts
            .into_iter()
            .nth(node)
            .expect("one space partition per node");
        let homes = time_parts
            .into_iter()
            .enumerate()
            .filter(|(tp, _)| home_of[*tp] == node)
            .collect();
        MfNode {
            plan: Arc::clone(plan),
            triples: job.triples,
            grid,
            space_part,
            homes,
            home_of,
        }
    }

    /// Space partitions arrive tagged `u32::MAX` in node order, time
    /// partitions tagged by index.
    fn install(
        &self,
        job: &mut MfJob,
        compiled: &CompiledLoop,
        plan: &ThreadedPlan,
        gathered: Vec<Vec<(u32, Bytes)>>,
    ) -> Result<(), NetError> {
        let mut space_parts: Vec<Option<DistArray<f32>>> = vec![None; gathered.len()];
        let mut time_parts: Vec<Option<DistArray<f32>>> = vec![None; plan.n_time_partitions()];
        for (node, parts) in gathered.into_iter().enumerate() {
            for (tag, payload) in parts {
                let arr = checkpoint::from_bytes::<f32>(payload)
                    .map_err(|e| NetError::Protocol(format!("gathered state: {e}")))?;
                if tag == u32::MAX {
                    space_parts[node] = Some(arr);
                } else {
                    time_parts[tag as usize] = Some(arr);
                }
            }
        }
        let merged = |parts: Vec<Option<DistArray<f32>>>| {
            let parts = parts
                .into_iter()
                .map(|p| p.expect("every partition is gathered"));
            DistArray::merge_along(0, parts.collect())
        };
        let (space, time) = (merged(space_parts), merged(time_parts));
        (job.model.w, job.model.h) = by_role(space_is_dim0(compiled), space, time);
        Ok(())
    }
}

/// Held home partitions between epochs, keyed by time partition.
type Homes = BTreeMap<usize, DistArray<f32>>;

/// One MF node: node `w` owns space partition `w` of the pinned factor;
/// partitions of the rotated factor travel peer-to-peer along the
/// compiled forwarding edges, walked by the same [`walk`] a pool worker
/// runs.
pub(crate) struct MfNode {
    plan: Arc<ThreadedPlan>,
    triples: Arc<Vec<(u32, u32, f32)>>,
    grid: MfGrid,
    /// This node's partition of the pinned factor.
    space_part: DistArray<f32>,
    /// Partitions of the rotated factor homed here between epochs.
    homes: Homes,
    home_of: Vec<usize>,
}

impl NetNode for MfNode {
    /// One epoch of the Fig.-8 pipelined rotation: the runtime's
    /// [`walk`] over [`Sockets`] — the loop a pool worker runs over
    /// channels — then the re-home.
    fn epoch(&mut self, ctx: &mut NodeCtx, epoch: u64) -> Result<EpochWork, Msg> {
        let (plan, node) = (Arc::clone(&self.plan), ctx.node);
        let queue = plan
            .initial_of(node)
            .iter()
            .map(|&tp| {
                let part = self.homes.remove(&tp);
                (tp, part.expect("home partition present at epoch start"))
            })
            .collect();
        let mut wire = Sockets {
            ep: &mut ctx.ep,
            node,
            epoch,
            rotation_ns: 0,
        };
        let (crash, n, mut i) = (&ctx.crash, plan.execs_of(node).len(), 0);
        let (grid, triples, space) = (&self.grid, &self.triples, &mut self.space_part);
        let walked = walk(&plan, node, queue, &mut wire, Instant::now(), |b, part| {
            crash.maybe(epoch, i, n);
            i += 1;
            for &pos in plan.blocks().items(b) {
                grid.update(&triples[pos as usize], space, part);
            }
        })?;

        // Re-home: every partition this node ends with goes back to its
        // pass-start owner, so the next epoch seeds canonical queues. The
        // (epoch, tp) inbox key cannot collide with in-epoch rotation: a
        // partition is only held once no further exec awaits it, which is
        // also why the event log leaves the re-home out.
        for (tp, part) in walked.held {
            let home = self.home_of[tp];
            if home == node {
                self.homes.insert(tp, part);
            } else {
                wire.send(home, tp, part)?;
            }
        }
        for &tp in plan.initial_of(node) {
            if let Entry::Vacant(home) = self.homes.entry(tp) {
                home.insert(wire.recv(tp)?);
            }
        }
        let computed = walked
            .spans
            .iter()
            .filter(|s| s.phase == ThreadPhase::Compute);
        Ok(EpochWork {
            compute_ns: computed.map(|s| s.end_ns - s.start_ns).sum(),
            rotation_ns: wire.rotation_ns,
            events: walked.events,
        })
    }

    fn checkpoint(&self, ctx: &NodeCtx, epoch: u64) {
        checkpoint::save(&self.space_part, ctx.ckpt_path("S", epoch))
            .expect("checkpoint the space partition");
        for (&tp, part) in &self.homes {
            checkpoint::save(part, ctx.ckpt_path(&format!("T{tp}"), epoch))
                .expect("checkpoint a time partition");
        }
    }

    fn restore(&mut self, ctx: &NodeCtx, epoch: u64) {
        self.space_part =
            checkpoint::load(ctx.ckpt_path("S", epoch)).expect("reload the space partition");
        self.homes = self
            .plan
            .initial_of(ctx.node)
            .iter()
            .map(|&tp| {
                let part = checkpoint::load(ctx.ckpt_path(&format!("T{tp}"), epoch))
                    .expect("reload a time partition");
                (tp, part)
            })
            .collect();
    }

    fn gather(&self) -> Vec<(u32, Bytes)> {
        let homes = self.homes.iter().map(|(&tp, part)| (tp as u32, part));
        std::iter::once((u32::MAX, &self.space_part))
            .chain(homes)
            .map(|(tag, part)| (tag, checkpoint::to_bytes(part)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// SLR (1-D data parallel, §3.3/§4.4): stateless nodes, served weights.
//
// The served weights live on the coordinator and only mutate at epoch
// boundaries, so recovery needs no checkpoints: a crashed epoch's
// updates never touched them, and the same epoch re-runs against the
// unchanged snapshot (the same argument the sim chaos run makes for
// discarded buffers).

impl NetApp for SlrApp {
    const TAG: &'static str = "slr";
    const STATEFUL_NODES: bool = false;
    type Node = SlrNode;

    fn to_env(&self, data: &SparseData) -> (String, String) {
        let d = &data.config;
        (
            format!(
                "{},{},{},{},{},{}",
                d.n_samples,
                d.n_features,
                d.nnz_per_sample,
                f64_hex(d.skew),
                f64_hex(d.informative_frac),
                d.seed
            ),
            format!(
                "{},{}",
                f32_hex(self.cfg.step_size),
                math_bit(self.cfg.math)
            ),
        )
    }

    fn from_env(data: &str, hyper: &str) -> (Self, SparseData) {
        let d = fields(data, 6, "SLR data config");
        let data = SparseConfig {
            n_samples: d[0].parse().expect("n_samples"),
            n_features: d[1].parse().expect("n_features"),
            nnz_per_sample: d[2].parse().expect("nnz_per_sample"),
            skew: parse_f64(&d[3]),
            informative_frac: parse_f64(&d[4]),
            seed: d[5].parse().expect("data seed"),
        };
        let h = fields(hyper, 2, "SLR hyperparameters");
        let cfg = SlrConfig {
            step_size: parse_f32(&h[0]),
            adaptive: false,
            math: parse_math(&h[1]),
        };
        let app = SlrApp {
            cfg,
            prefetch_override: None,
        };
        (app, SparseData::generate(data))
    }

    fn node(
        &self,
        data: SparseData,
        job: SlrJob,
        _compiled: &CompiledLoop,
        plan: &Arc<ThreadedPlan>,
        mode: MathMode,
        node: usize,
    ) -> SlrNode {
        // This node's items in execution order, and the indices its
        // synthesized recording pass discovers for bulk prefetch (§4.4).
        let positions: Vec<usize> = plan.worker_positions()[node]
            .iter()
            .map(|&p| p as usize)
            .collect();
        let indices = slr::record_prefetch_indices(&data, &positions);
        // The 1-D pass runs this node's blocks against a read-only
        // prefetched snapshot and ships one buffered update the
        // coordinator applies, so the log is the same every epoch.
        let node_id = node as u32;
        let events = plan
            .execs_of(node)
            .iter()
            .map(|e| HbEvent::Exec {
                step: e.step,
                block: e.block as u32,
            })
            .chain(std::iter::once(HbEvent::ServerApply { node: node_id }))
            .collect();
        let shape = job.model.weights.shape().clone();
        SlrNode {
            data,
            positions,
            indices,
            events,
            step: self.cfg.step_size,
            mode,
            snapshot: vec![0.0; shape.volume() as usize],
            buf: DistArrayBuffer::additive(shape),
        }
    }

    fn on_msg(&self, job: &mut SlrJob, epoch: u64, node: usize, msg: Msg) -> Option<Msg> {
        match msg {
            Msg::PrefetchRequest {
                epoch: e, indices, ..
            } if e == epoch => {
                // Serve the pass-start snapshot: every requested index,
                // valued exactly as the sim's served reads.
                let weights = &job.model.weights;
                let vals: Vec<(u64, f32)> = indices
                    .iter()
                    .map(|&i| (i, weights.get_flat_or_default(i)))
                    .collect();
                Some(Msg::PrefetchResponse {
                    epoch,
                    payload: codec::encode_updates(&vals),
                })
            }
            Msg::ServerUpdate {
                epoch: e,
                node: n,
                payload,
            } if e == epoch => {
                debug_assert_eq!(node, n as usize);
                job.updates[n as usize] = Some(payload);
                None
            }
            // Stale traffic from an abandoned epoch.
            _ => None,
        }
    }

    /// Applies every node's buffered updates in node order — the order
    /// the sim applies its per-worker buffers.
    fn end_epoch(&self, job: &mut SlrJob) {
        let SlrJob { model, updates, .. } = job;
        for (node, payload) in updates.iter_mut().map(Option::take).enumerate() {
            let payload = payload.expect("every node sent its server update");
            // A drained buffer on the wire: distinct features, ascending.
            let drained = codec::decode_updates::<f32>(payload)
                .unwrap_or_else(|e| panic!("node {node}'s server update: {e}"));
            slr::apply_updates(model, drained);
        }
    }
}

/// One stateless SLR worker process.
pub(crate) struct SlrNode {
    data: SparseData,
    positions: Vec<usize>,
    indices: Vec<u64>,
    events: Vec<HbEvent>,
    step: f32,
    mode: MathMode,
    /// The served weights this node reads, dense by feature: every epoch
    /// overwrites the entries at `indices`, no sample reads any other.
    snapshot: Vec<f32>,
    /// The node's write buffer, empty between epochs.
    buf: DistArrayBuffer<f32>,
}

impl NetNode for SlrNode {
    /// Bulk-prefetch the weights this node's samples touch, run the 1-D
    /// pass into an additive buffer against that snapshot, ship the
    /// drained buffer back as a server update.
    fn epoch(&mut self, ctx: &mut NodeCtx, epoch: u64) -> Result<EpochWork, Msg> {
        let node = ctx.node as u32;
        let t0 = Instant::now();
        ctx.ep
            .send_coord(&Msg::PrefetchRequest {
                epoch,
                node,
                indices: self.indices.clone(),
            })
            .expect("send PrefetchRequest");
        // Await this epoch's prefetch response; stale responses from an
        // abandoned epoch carry an older epoch tag and are dropped.
        loop {
            match ctx.ep.next_coord_msg(ROTATION_TIMEOUT) {
                Ok(Msg::PrefetchResponse { epoch: e, payload }) if e == epoch => {
                    let served = codec::decode_updates::<f32>(payload)
                        .unwrap_or_else(|e| panic!("node {node}: prefetch response: {e}"));
                    for (f, w) in served {
                        self.snapshot[f as usize] = w;
                    }
                    break;
                }
                Ok(Msg::PrefetchResponse { .. }) => {}
                Ok(ctrl @ (Msg::Rollback { .. } | Msg::Shutdown)) => return Err(ctrl),
                Ok(other) => panic!("node {node}: unexpected {other:?} awaiting prefetch"),
                Err(e) => panic!("node {node}: {e}"),
            }
        }
        let rotation_ns = t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        // The worker view of the sim pass: the served snapshot.
        let snapshot = &self.snapshot;
        let read = |f: u32| snapshot[f as usize];
        for (i, &pos) in self.positions.iter().enumerate() {
            ctx.crash.maybe(epoch, i, self.positions.len());
            slr::slr_step(
                &self.data.samples[pos],
                read,
                &mut self.buf,
                self.step,
                self.mode,
            );
        }
        let compute_ns = t1.elapsed().as_nanos() as u64;

        // The server round is rotation: drain, encode and ship the buffer.
        let t2 = Instant::now();
        let updates: Vec<(u64, f32)> = self.buf.drain_flat().collect();
        ctx.ep
            .send_coord(&Msg::ServerUpdate {
                epoch,
                node,
                payload: codec::encode_updates(&updates),
            })
            .expect("send ServerUpdate");
        Ok(EpochWork {
            compute_ns,
            rotation_ns: rotation_ns + t2.elapsed().as_nanos() as u64,
            events: self.events.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node honours the math mode the coordinator ships: `FastMath`
    /// (and `Exact`) survive `to_env → from_env`, with the rest of the
    /// hyperparameters.
    #[test]
    fn math_mode_round_trips_through_the_node_env() {
        let ratings = RatingsData::generate(RatingsConfig::tiny());
        let sparse = SparseData::generate(SparseConfig::tiny());
        for (mf_cfg, slr_cfg) in [
            (MfConfig::new(4), SlrConfig::new()),
            (MfConfig::new(4).fast_math(), SlrConfig::new().fast_math()),
        ] {
            let mf = MfApp::new(mf_cfg.clone(), true);
            let (data_env, hyper_env) = mf.to_env(&ratings);
            let (node_mf, node_ratings) = MfApp::from_env(&data_env, &hyper_env);
            assert_eq!(node_mf.cfg.math, mf_cfg.math);
            assert_eq!(node_mf.math(), mf_cfg.math);
            assert_eq!(node_mf.cfg.step_size.to_bits(), mf_cfg.step_size.to_bits());
            assert!(node_mf.ordered);
            assert_eq!(node_ratings.ratings, ratings.ratings);

            let slr = SlrApp {
                cfg: slr_cfg.clone(),
                prefetch_override: None,
            };
            let (data_env, hyper_env) = slr.to_env(&sparse);
            let (node_slr, _) = SlrApp::from_env(&data_env, &hyper_env);
            assert_eq!(node_slr.cfg.math, slr_cfg.math);
            assert_eq!(node_slr.math(), slr_cfg.math);
        }
    }
}
