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
//!   the compiled forwarding edges, exactly as
//!   [`orion_runtime::run_grid_pass_pooled`] moves them between
//!   threads. At the end of every epoch each partition is *re-homed*
//!   to its pass-start owner so the next epoch seeds the same queues.
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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use orion_core::{
    CheckpointPolicy, ClusterSpec, CompiledLoop, DistArray, DistArrayBuffer, Driver, MathMode,
    RunReport, RunStats,
};
use orion_data::{RatingsConfig, RatingsData, SparseConfig, SparseData};
use orion_dsm::{checkpoint, codec, kernels};
use orion_net::{
    plan_fingerprint, ClusterConfig, Coordinator, EpochStats, Msg, NetError, NodeConfig,
    NodeEndpoint, PartRecv, ENV_COORD, ENV_NODES, ENV_NODE_ID, ENV_ROLE,
};
use orion_runtime::{HbEvent, ThreadedPlan};

use crate::common::{by_role, space_is_dim0, split_by_role};
use crate::sgd_mf::{mf_setup, MfConfig, MfModel};
use crate::slr::{self, SlrConfig, SlrModel};

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

/// Everything a distributed run hands back.
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
        "mf" => mf_node_main(coord, node, n_nodes),
        "slr" => slr_node_main(coord, node, n_nodes),
        other => {
            eprintln!("unknown ORION_NET_APP {other:?}");
            std::process::exit(2);
        }
    }
}

fn crash_marker(workdir: &Path, run_id: &str, node: usize) -> PathBuf {
    workdir.join(format!("{run_id}_crashed_n{node}.marker"))
}

/// The epoch this node should die in, if it has not died already.
fn crash_epoch(workdir: &Path, run_id: &str, node: usize) -> Option<u64> {
    let epoch: u64 = std::env::var(ENV_CRASH_EPOCH).ok()?.parse().ok()?;
    (!crash_marker(workdir, run_id, node).exists()).then_some(epoch)
}

fn inject_crash(workdir: &Path, run_id: &str, node: usize) -> ! {
    std::fs::write(crash_marker(workdir, run_id, node), b"crashed\n").expect("write crash marker");
    std::process::exit(17);
}

/// Checkpoint path for one array of one node at one epoch boundary
/// (state *before* that epoch), via the PR-3 naming scheme.
fn ckpt_path(workdir: &Path, run_id: &str, node: usize, array: &str, epoch: u64) -> PathBuf {
    CheckpointPolicy::new(1, workdir, format!("{run_id}_n{node}"))
        .path_for(&format!("{array}_e{epoch}"))
}

// ---------------------------------------------------------------------
// SGD MF: configuration replication.

fn mf_env(
    data: &RatingsConfig,
    cfg: &MfConfig,
    ordered: bool,
    opts: &DistOptions,
) -> Vec<(String, String)> {
    vec![
        (ENV_APP.into(), "mf".into()),
        (
            ENV_DATA.into(),
            format!(
                "{},{},{},{},{},{},{}",
                data.n_users,
                data.n_items,
                data.nnz,
                data.true_rank,
                f64_hex(data.skew),
                f64_hex(data.noise),
                data.seed
            ),
        ),
        (
            ENV_HYPER.into(),
            format!(
                "{},{},{},{},{}",
                cfg.rank,
                f32_hex(cfg.step_size),
                cfg.seed,
                matches!(cfg.math, MathMode::FastMath) as u8,
                ordered as u8
            ),
        ),
        (ENV_WORKDIR.into(), opts.workdir.display().to_string()),
        (ENV_RUN_ID.into(), opts.run_id.clone()),
    ]
}

fn mf_env_decode() -> (RatingsConfig, MfConfig, bool) {
    let d = fields(&env(ENV_DATA), 7, "MF data config");
    let data = RatingsConfig {
        n_users: d[0].parse().expect("n_users"),
        n_items: d[1].parse().expect("n_items"),
        nnz: d[2].parse().expect("nnz"),
        true_rank: d[3].parse().expect("true_rank"),
        skew: parse_f64(&d[4]),
        noise: parse_f64(&d[5]),
        seed: d[6].parse().expect("data seed"),
    };
    let h = fields(&env(ENV_HYPER), 5, "MF hyperparameters");
    let cfg = MfConfig {
        rank: h[0].parse().expect("rank"),
        step_size: parse_f32(&h[1]),
        adaptive: false,
        seed: h[2].parse().expect("model seed"),
        math: if h[3] == "1" {
            MathMode::FastMath
        } else {
            MathMode::Exact
        },
    };
    (data, cfg, h[4] == "1")
}

// ---------------------------------------------------------------------
// SGD MF: the node process.

/// Held home partitions between epochs, keyed by time partition.
type Homes = BTreeMap<u32, DistArray<f32>>;

fn save_mf_checkpoint(
    workdir: &Path,
    run_id: &str,
    node: usize,
    epoch: u64,
    space_part: &DistArray<f32>,
    homes: &Homes,
) {
    checkpoint::save(space_part, ckpt_path(workdir, run_id, node, "S", epoch))
        .expect("checkpoint the space partition");
    for (&tp, part) in homes {
        checkpoint::save(
            part,
            ckpt_path(workdir, run_id, node, &format!("T{tp}"), epoch),
        )
        .expect("checkpoint a time partition");
    }
}

fn load_mf_checkpoint(
    workdir: &Path,
    run_id: &str,
    node: usize,
    epoch: u64,
    my_tps: &[usize],
) -> (DistArray<f32>, Homes) {
    let space_part = checkpoint::load(ckpt_path(workdir, run_id, node, "S", epoch))
        .expect("reload the space partition");
    let mut homes = Homes::new();
    for &tp in my_tps {
        let part = checkpoint::load(ckpt_path(workdir, run_id, node, &format!("T{tp}"), epoch))
            .expect("reload a time partition");
        homes.insert(tp as u32, part);
    }
    (space_part, homes)
}

enum EpochOutcome {
    Done {
        compute_ns: u64,
        rotation_ns: u64,
    },
    /// A `Rollback`/`Shutdown` preempted the pass; the partial state is
    /// garbage and the control message still needs handling.
    Preempted(Msg),
}

/// How long a node waits for one rotated partition before declaring the
/// cluster wedged. Generous: CI runs debug builds.
const ROTATION_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a node idles waiting for the next coordinator command.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(600);

struct MfNode {
    ep: NodeEndpoint,
    plan: Arc<ThreadedPlan>,
    triples: Vec<(i64, i64, f32)>,
    /// Whether the pinned factor is `W` (and `H` rotates) or the reverse.
    space_is_users: bool,
    /// This node's partition of the pinned factor.
    space_part: DistArray<f32>,
    /// Partitions of the rotated factor homed here between epochs.
    homes: Homes,
    home_of: Vec<usize>,
    step: f32,
    mode: MathMode,
    workdir: PathBuf,
    run_id: String,
    crash_epoch: Option<u64>,
    /// Happens-before event log of the epoch in flight, shipped to the
    /// coordinator with `EpochDone` for the O11x detector.
    events: Vec<HbEvent>,
}

fn mf_node_main(coord: &str, node: usize, n_nodes: usize) -> ! {
    let (data_cfg, cfg, ordered) = mf_env_decode();
    let data = RatingsData::generate(data_cfg);
    let model = MfModel::for_data(&data, cfg);
    // Compile exactly as the sim oracle does on a `nodes × 1` cluster:
    // every process — coordinator and nodes — does this with identical
    // inputs, and the fingerprint handshake proves it.
    let (items, driver, compiled) = mf_setup(&data, &model, ClusterSpec::new(n_nodes, 1), ordered);
    let plan = driver.compile_threaded(&compiled);
    let fingerprint = plan_fingerprint(&plan);

    let ep = NodeEndpoint::connect(&NodeConfig {
        node,
        n_nodes,
        coord: coord.into(),
        fingerprint,
    })
    .expect("node connects to the coordinator");

    // This node's slice of the model: its own space partition of the
    // pinned factor plus the time partitions of the rotated factor it
    // homes at pass start.
    let mut home_of = vec![0usize; plan.n_time_partitions()];
    for w in 0..plan.n_workers() {
        for &tp in plan.initial_of(w) {
            home_of[tp] = w;
        }
    }
    let (space_parts, time_parts) = split_by_role(&compiled, model.w, model.h);
    let space_part = space_parts
        .into_iter()
        .nth(node)
        .expect("one space partition per node");
    let mut homes = Homes::new();
    for (tp, part) in time_parts.into_iter().enumerate() {
        if home_of[tp] == node {
            homes.insert(tp as u32, part);
        }
    }
    let triples: Vec<(i64, i64, f32)> = items.iter().map(|(i, v)| (i[0], i[1], *v)).collect();

    let workdir = PathBuf::from(env(ENV_WORKDIR));
    let run_id = env(ENV_RUN_ID);
    let mut state = MfNode {
        ep,
        step: model.cfg.step_size,
        mode: driver.math_mode(),
        crash_epoch: crash_epoch(&workdir, &run_id, node),
        plan,
        triples,
        space_is_users: space_is_dim0(&compiled),
        space_part,
        homes,
        home_of,
        workdir,
        run_id,
        events: Vec::new(),
    };
    // Epoch-0 checkpoint: the initial state, so a rollback before the
    // first barrier restarts training from scratch.
    save_mf_checkpoint(
        &state.workdir,
        &state.run_id,
        node,
        0,
        &state.space_part,
        &state.homes,
    );

    mf_control_loop(&mut state, node)
}

/// The node's command loop: everything after the handshake is driven by
/// coordinator messages on the ordered control stream.
fn mf_control_loop(state: &mut MfNode, node: usize) -> ! {
    let mut pending: Option<Msg> = None;
    loop {
        let msg = match pending.take() {
            Some(m) => m,
            None => state
                .ep
                .next_coord_msg(CONTROL_TIMEOUT)
                .expect("coordinator control message"),
        };
        match msg {
            Msg::EpochStart { epoch } => match mf_run_epoch(state, node, epoch) {
                EpochOutcome::Done {
                    compute_ns,
                    rotation_ns,
                } => {
                    let sent = state.ep.take_sent();
                    let events = std::mem::take(&mut state.events);
                    state
                        .ep
                        .send_coord(&Msg::EpochDone {
                            epoch,
                            node: node as u32,
                            compute_ns,
                            rotation_ns,
                            sent,
                            events,
                        })
                        .expect("send EpochDone");
                    state.ep.gc_below(epoch);
                }
                EpochOutcome::Preempted(ctrl) => pending = Some(ctrl),
            },
            Msg::Checkpoint { epoch } => {
                save_mf_checkpoint(
                    &state.workdir,
                    &state.run_id,
                    node,
                    epoch,
                    &state.space_part,
                    &state.homes,
                );
                state
                    .ep
                    .send_coord(&Msg::CheckpointDone {
                        epoch,
                        node: node as u32,
                    })
                    .expect("send CheckpointDone");
            }
            Msg::Rollback { epoch } => {
                let my_tps: Vec<usize> = state.plan.initial_of(node).to_vec();
                (state.space_part, state.homes) =
                    load_mf_checkpoint(&state.workdir, &state.run_id, node, epoch, &my_tps);
                state.ep.clear_inbox();
                state
                    .ep
                    .send_coord(&Msg::RollbackDone {
                        epoch,
                        node: node as u32,
                    })
                    .expect("send RollbackDone");
            }
            Msg::Gather => {
                let mut parts: Vec<(u32, Bytes)> =
                    vec![(u32::MAX, checkpoint::to_bytes(&state.space_part))];
                parts.extend(
                    state
                        .homes
                        .iter()
                        .map(|(&tp, part)| (tp, checkpoint::to_bytes(part))),
                );
                state
                    .ep
                    .send_coord(&Msg::FinalState {
                        node: node as u32,
                        parts,
                    })
                    .expect("send FinalState");
            }
            Msg::Shutdown => std::process::exit(0),
            // Stale traffic from an abandoned epoch (e.g. a prefetch
            // response raced a rollback): deterministic re-execution
            // makes it redundant, so dropping it is sound.
            _ => {}
        }
    }
}

/// One epoch of the Fig.-8 pipelined rotation, mirroring the
/// `run_grid_pass_pooled` worker loop with channels replaced by peer
/// sockets. Partition payloads travel as bit-exact checkpoint frames
/// (shape + origin + dense run), so `row_slice_mut` keeps addressing
/// by global index on the receiving side.
fn mf_run_epoch(state: &mut MfNode, node: usize, epoch: u64) -> EpochOutcome {
    let plan = Arc::clone(&state.plan);
    let n_time = plan.n_time_partitions();
    let mut compute_ns = 0u64;
    let mut rotation_ns = 0u64;
    // Event log shape mirrors `orion_check::plan_event_log`: rotation
    // receives, block executions, and cross-node forwards. Local
    // re-enqueues and the end-of-epoch re-homing are pure bookkeeping
    // (no further exec awaits them), so they are not recorded.
    state.events.clear();

    // Seed the local queue with the homed partitions, in use order.
    let mut queue: VecDeque<(u32, DistArray<f32>)> = plan
        .initial_of(node)
        .iter()
        .map(|&tp| {
            let part = state
                .homes
                .remove(&(tp as u32))
                .expect("home partition present at epoch start");
            (tp as u32, part)
        })
        .collect();
    let mut kept: Vec<(u32, DistArray<f32>)> = Vec::new();
    let mut forwards = plan.forwards_of(node).iter();
    let mut next_forward = forwards.next();

    let execs = plan.execs_of(node);
    let crash_at = (state.crash_epoch == Some(epoch)).then_some(execs.len() / 2);
    for (i, e) in execs.iter().enumerate() {
        if crash_at == Some(i) {
            inject_crash(&state.workdir, &state.run_id, node);
        }
        if e.awaited.is_some() {
            let tp = (e.block % n_time) as u32;
            let t0 = Instant::now();
            match state.ep.recv_partition(epoch, tp, ROTATION_TIMEOUT) {
                Ok(PartRecv::Part(payload)) => {
                    let part =
                        checkpoint::from_bytes::<f32>(payload).expect("rotated partition decodes");
                    state.events.push(HbEvent::Recv { tp });
                    queue.push_back((tp, part));
                }
                Ok(PartRecv::Ctrl(ctrl)) => return EpochOutcome::Preempted(ctrl),
                Ok(PartRecv::TimedOut) => {
                    panic!("node {node}: timed out awaiting partition {tp} in epoch {epoch}")
                }
                Err(e) => panic!("node {node}: {e}"),
            }
            rotation_ns += t0.elapsed().as_nanos() as u64;
        }
        let (tp, mut part) = queue.pop_front().expect("schedule keeps the queue fed");
        debug_assert_eq!(
            tp as usize,
            e.block % n_time,
            "queue order must match schedule"
        );
        let t0 = Instant::now();
        let (w_part, h_part) = by_role(state.space_is_users, &mut state.space_part, &mut part);
        for &pos in plan.blocks().items(e.block) {
            let (u, item, v) = state.triples[pos as usize];
            kernels::mf_row_update(
                w_part.row_slice_mut(u),
                h_part.row_slice_mut(item),
                v,
                state.step,
                state.mode,
            );
        }
        compute_ns += t0.elapsed().as_nanos() as u64;
        state.events.push(HbEvent::Exec {
            step: e.step,
            block: e.block as u32,
        });
        // Fig. 8: forward downstream before starting the next block.
        match next_forward {
            Some(&(step, dst)) if step == e.step => {
                next_forward = forwards.next();
                if dst == node {
                    queue.push_back((tp, part));
                } else {
                    state.events.push(HbEvent::Send {
                        tp,
                        dst: dst as u32,
                    });
                    state.ep.send_peer(
                        dst,
                        &Msg::Partition {
                            epoch,
                            tp,
                            payload: checkpoint::to_bytes(&part),
                        },
                    );
                }
            }
            _ => kept.push((tp, part)),
        }
    }

    // Re-home: every partition this node ends with goes back to its
    // pass-start owner, so the next epoch seeds canonical queues. The
    // (epoch, tp) inbox key cannot collide with in-epoch rotation: a
    // partition only lands in `kept` once no further exec awaits it.
    for (tp, part) in kept.into_iter().chain(queue) {
        let home = state.home_of[tp as usize];
        if home == node {
            state.homes.insert(tp, part);
        } else {
            state.ep.send_peer(
                home,
                &Msg::Partition {
                    epoch,
                    tp,
                    payload: checkpoint::to_bytes(&part),
                },
            );
        }
    }
    for &tp in plan.initial_of(node) {
        let tp = tp as u32;
        if state.homes.contains_key(&tp) {
            continue;
        }
        let t0 = Instant::now();
        match state.ep.recv_partition(epoch, tp, ROTATION_TIMEOUT) {
            Ok(PartRecv::Part(payload)) => {
                let part =
                    checkpoint::from_bytes::<f32>(payload).expect("re-homed partition decodes");
                state.homes.insert(tp, part);
            }
            Ok(PartRecv::Ctrl(ctrl)) => return EpochOutcome::Preempted(ctrl),
            Ok(PartRecv::TimedOut) => {
                panic!("node {node}: timed out awaiting re-homed partition {tp}")
            }
            Err(e) => panic!("node {node}: {e}"),
        }
        rotation_ns += t0.elapsed().as_nanos() as u64;
    }
    EpochOutcome::Done {
        compute_ns,
        rotation_ns,
    }
}

// ---------------------------------------------------------------------
// SGD MF: the coordinator-side training driver.

/// Trains SGD MF on a localhost cluster of `opts.nodes` processes.
/// Bit-identical to [`crate::sgd_mf::train_orion`] on a
/// `ClusterSpec::new(nodes, 1)` cluster with the same data, config, and
/// pass count — the sim is the conformance oracle.
///
/// # Panics
///
/// Panics in adaptive mode (accumulators are not checkpointed) and on
/// protocol violations.
///
/// # Errors
///
/// Returns the underlying [`NetError`] if the cluster cannot be
/// launched or an unrecoverable transport fault occurs.
pub fn train_mf_distributed(
    data: &RatingsData,
    cfg: MfConfig,
    ordered: bool,
    opts: &DistOptions,
) -> Result<DistRunResult<MfModel>, NetError> {
    assert!(!cfg.adaptive, "distributed MF supports the plain update");
    assert!(
        opts.nodes >= 1 && opts.epochs >= 1,
        "degenerate cluster options"
    );
    std::fs::create_dir_all(&opts.workdir)?;

    let model = MfModel::for_data(data, cfg);
    let (items, mut driver, compiled) =
        mf_setup(data, &model, ClusterSpec::new(opts.nodes, 1), ordered);
    let plan = driver.compile_threaded(&compiled);
    let fingerprint = plan_fingerprint(&plan);

    let mut ccfg = ClusterConfig::new(opts.nodes, opts.epochs, fingerprint);
    ccfg.record_msgs = opts.record_msgs;
    ccfg.env = mf_env(&data.config, &model.cfg, ordered, opts);
    if let Some((node, epoch)) = opts.crash {
        ccfg.node_env
            .push((node, ENV_CRASH_EPOCH.into(), epoch.to_string()));
    }
    let mut cluster = Coordinator::launch(ccfg)?;

    let mut epochs_out: Vec<EpochStats> = Vec::new();
    let mut recoveries = 0u64;
    let mut reexecuted = 0u64;
    let mut last_ckpt = 0u64;
    let mut epoch = 0u64;
    while epoch < opts.epochs {
        if opts.checkpoint_every > 0
            && epoch > 0
            && epoch.is_multiple_of(opts.checkpoint_every)
            && epoch != last_ckpt
        {
            match cluster.checkpoint_barrier(epoch) {
                Ok(()) => last_ckpt = epoch,
                Err(fault) => {
                    recoveries += 1;
                    reexecuted += epoch - last_ckpt;
                    cluster.recover(&fault, last_ckpt)?;
                    driver.rollback_progress(last_ckpt);
                    epoch = last_ckpt;
                    continue;
                }
            }
        }
        // MF moves no mid-epoch traffic through the coordinator, so the
        // handler only has to exist.
        match driver.run_pass_distributed(Some(&compiled), &mut cluster, epoch, |_node, _msg| None)
        {
            Ok(stats) => {
                epochs_out.push(stats);
                epoch += 1;
            }
            Err(fault) => {
                recoveries += 1;
                reexecuted += epoch - last_ckpt;
                cluster.recover(&fault, last_ckpt)?;
                driver.rollback_progress(last_ckpt);
                epoch = last_ckpt;
            }
        }
    }

    // Gather: space partitions tagged u32::MAX in node order, time
    // partitions tagged by index.
    let gathered = cluster.gather()?;
    let msg_log = cluster.take_msg_log();
    let mut space_parts: Vec<Option<DistArray<f32>>> = (0..opts.nodes).map(|_| None).collect();
    let mut time_parts: Vec<Option<DistArray<f32>>> =
        (0..plan.n_time_partitions()).map(|_| None).collect();
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
    cluster.shutdown();
    let merged = |parts: Vec<Option<DistArray<f32>>>| {
        let parts = parts
            .into_iter()
            .map(|p| p.expect("every partition is gathered"));
        DistArray::merge_along(0, parts.collect())
    };
    let (space, time) = (merged(space_parts), merged(time_parts));
    let (w, h) = by_role(space_is_dim0(&compiled), space, time);
    let model = MfModel {
        w,
        h,
        wz2: Vec::new(),
        hz2: Vec::new(),
        cfg: model.cfg,
    };
    driver.record_progress(opts.epochs - 1, model.loss(&items));

    let report = driver.run_report(&compiled);
    Ok(DistRunResult {
        model,
        report,
        epochs: epochs_out,
        recoveries,
        reexecuted,
        msg_log,
        stats: driver.finish(),
    })
}

// ---------------------------------------------------------------------
// SLR: configuration replication.

fn slr_env(data: &SparseConfig, cfg: &SlrConfig, opts: &DistOptions) -> Vec<(String, String)> {
    vec![
        (ENV_APP.into(), "slr".into()),
        (
            ENV_DATA.into(),
            format!(
                "{},{},{},{},{},{}",
                data.n_samples,
                data.n_features,
                data.nnz_per_sample,
                f64_hex(data.skew),
                f64_hex(data.informative_frac),
                data.seed
            ),
        ),
        (
            ENV_HYPER.into(),
            format!(
                "{},{}",
                f32_hex(cfg.step_size),
                matches!(cfg.math, MathMode::FastMath) as u8
            ),
        ),
        (ENV_WORKDIR.into(), opts.workdir.display().to_string()),
        (ENV_RUN_ID.into(), opts.run_id.clone()),
    ]
}

fn slr_env_decode() -> (SparseConfig, SlrConfig) {
    let d = fields(&env(ENV_DATA), 6, "SLR data config");
    let data = SparseConfig {
        n_samples: d[0].parse().expect("n_samples"),
        n_features: d[1].parse().expect("n_features"),
        nnz_per_sample: d[2].parse().expect("nnz_per_sample"),
        skew: parse_f64(&d[3]),
        informative_frac: parse_f64(&d[4]),
        seed: d[5].parse().expect("data seed"),
    };
    let h = fields(&env(ENV_HYPER), 2, "SLR hyperparameters");
    let cfg = SlrConfig {
        step_size: parse_f32(&h[0]),
        adaptive: false,
        math: if h[1] == "1" {
            MathMode::FastMath
        } else {
            MathMode::Exact
        },
    };
    (data, cfg)
}

/// Compiles the SLR schedule exactly as the sim oracle does on a
/// `nodes × 1` cluster.
fn slr_compile(
    data: &SparseData,
    model: &SlrModel,
    nodes: usize,
) -> (Driver, CompiledLoop, Arc<ThreadedPlan>) {
    use orion_core::{LoopSpec, Subscript};
    let samples_arr: DistArray<f32> = DistArray::sparse_from(
        "samples",
        vec![data.samples.len() as u64],
        data.samples
            .iter()
            .enumerate()
            .map(|(i, s)| (vec![i as i64], s.label as f32)),
    );
    let items: Vec<(Vec<i64>, f32)> = samples_arr.iter().map(|(i, &v)| (i, v)).collect();
    let mut driver = Driver::new(ClusterSpec::new(nodes, 1));
    driver.set_math_mode(model.cfg.math);
    let samples_id = driver.register(&samples_arr);
    let weights_id = driver.register(&model.weights);
    driver.set_served_reads_per_iter(data.mean_nnz());
    let spec = LoopSpec::builder("slr_sgd", samples_id, vec![data.samples.len() as u64])
        .read(weights_id, vec![Subscript::unknown()])
        .write(weights_id, vec![Subscript::unknown()])
        .buffer_writes(weights_id)
        .build()
        .expect("static SLR spec is valid");
    let compiled = driver
        .parallel_for(spec, &items)
        .expect("SLR loop parallelizes");
    let plan = driver.compile_threaded(&compiled);
    (driver, compiled, plan)
}

// ---------------------------------------------------------------------
// SLR: the node process.

fn slr_node_main(coord: &str, node: usize, n_nodes: usize) -> ! {
    let (data_cfg, cfg) = slr_env_decode();
    let data = SparseData::generate(data_cfg);
    let model = SlrModel::new(data.config.n_features, cfg);
    let (driver, _compiled, plan) = slr_compile(&data, &model, n_nodes);
    let fingerprint = plan_fingerprint(&plan);

    let mut ep = NodeEndpoint::connect(&NodeConfig {
        node,
        n_nodes,
        coord: coord.into(),
        fingerprint,
    })
    .expect("node connects to the coordinator");

    // This node's items in execution order, and the indices its
    // synthesized recording pass discovers for bulk prefetch (§4.4).
    let positions: Vec<usize> = plan.worker_positions()[node]
        .iter()
        .map(|&p| p as usize)
        .collect();
    let indices = slr::record_prefetch_indices(&data, &positions);
    // Happens-before log of one SLR epoch: the 1-D pass runs this
    // node's blocks against a read-only prefetched snapshot and ships
    // one buffered update the coordinator applies, so the log is the
    // same every epoch.
    let hb_events: Vec<HbEvent> = plan
        .execs_of(node)
        .iter()
        .map(|e| HbEvent::Exec {
            step: e.step,
            block: e.block as u32,
        })
        .chain(std::iter::once(HbEvent::ServerApply { node: node as u32 }))
        .collect();
    let step = model.cfg.step_size;
    let mode = driver.math_mode();
    let shape = model.weights.shape().clone();
    let workdir = PathBuf::from(env(ENV_WORKDIR));
    let run_id = env(ENV_RUN_ID);
    let crash = crash_epoch(&workdir, &run_id, node);

    let mut pending: Option<Msg> = None;
    loop {
        let msg = match pending.take() {
            Some(m) => m,
            None => ep
                .next_coord_msg(CONTROL_TIMEOUT)
                .expect("coordinator control message"),
        };
        match msg {
            Msg::EpochStart { epoch } => {
                match slr_run_epoch(
                    &mut ep, &data, &positions, &indices, node, epoch, step, mode, &shape, crash,
                    &workdir, &run_id,
                ) {
                    EpochOutcome::Done {
                        compute_ns,
                        rotation_ns,
                    } => {
                        let sent = ep.take_sent();
                        ep.send_coord(&Msg::EpochDone {
                            epoch,
                            node: node as u32,
                            compute_ns,
                            rotation_ns,
                            sent,
                            events: hb_events.clone(),
                        })
                        .expect("send EpochDone");
                        ep.gc_below(epoch);
                    }
                    EpochOutcome::Preempted(ctrl) => pending = Some(ctrl),
                }
            }
            // Stateless nodes: the served weights live on the
            // coordinator and only mutate at epoch boundaries, so both
            // barriers are pure acknowledgements.
            Msg::Checkpoint { epoch } => {
                ep.send_coord(&Msg::CheckpointDone {
                    epoch,
                    node: node as u32,
                })
                .expect("send CheckpointDone");
            }
            Msg::Rollback { epoch } => {
                ep.clear_inbox();
                ep.send_coord(&Msg::RollbackDone {
                    epoch,
                    node: node as u32,
                })
                .expect("send RollbackDone");
            }
            Msg::Gather => {
                ep.send_coord(&Msg::FinalState {
                    node: node as u32,
                    parts: Vec::new(),
                })
                .expect("send FinalState");
            }
            Msg::Shutdown => std::process::exit(0),
            _ => {}
        }
    }
}

/// One SLR epoch on a node: bulk-prefetch the weights this node's
/// samples touch, run the 1-D pass into an additive buffer against that
/// snapshot, ship the drained buffer back as a server update.
#[allow(clippy::too_many_arguments)]
fn slr_run_epoch(
    ep: &mut NodeEndpoint,
    data: &SparseData,
    positions: &[usize],
    indices: &[u64],
    node: usize,
    epoch: u64,
    step: f32,
    mode: MathMode,
    shape: &orion_core::Shape,
    crash: Option<u64>,
    workdir: &Path,
    run_id: &str,
) -> EpochOutcome {
    let t0 = Instant::now();
    ep.send_coord(&Msg::PrefetchRequest {
        epoch,
        node: node as u32,
        indices: indices.to_vec(),
    })
    .expect("send PrefetchRequest");
    // Await this epoch's prefetch response; stale responses from an
    // abandoned epoch carry an older epoch tag and are dropped.
    let snapshot: HashMap<u64, f32> = loop {
        match ep.next_coord_msg(ROTATION_TIMEOUT) {
            Ok(Msg::PrefetchResponse { epoch: e, payload }) if e == epoch => {
                break codec::decode_updates::<f32>(payload).into_iter().collect();
            }
            Ok(Msg::PrefetchResponse { .. }) => {}
            Ok(ctrl @ (Msg::Rollback { .. } | Msg::Shutdown)) => {
                return EpochOutcome::Preempted(ctrl);
            }
            Ok(other) => panic!("node {node}: unexpected {other:?} awaiting prefetch"),
            Err(e) => panic!("node {node}: {e}"),
        }
    };
    let rotation_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let crash_at = (crash == Some(epoch)).then_some(positions.len() / 2);
    let mut buf = DistArrayBuffer::<f32>::additive(shape.clone());
    for (i, &pos) in positions.iter().enumerate() {
        if crash_at == Some(i) {
            inject_crash(workdir, run_id, node);
        }
        let sample = &data.samples[pos];
        // The worker view of the sim pass: served snapshot plus the
        // worker's own buffered writes — which read as zero (§3.3), so
        // `+ 0.0` reproduces the oracle's `get_flat_or_default + buf_read`
        // sum bit-for-bit.
        let margin = SlrModel::margin_with(
            &sample.features,
            |f| snapshot.get(&(f as u64)).copied().unwrap_or(0.0) + 0.0,
            mode,
        );
        let coef = slr::logistic_grad_coef(sample.label, margin);
        for &f in &sample.features {
            buf.write(&[f as i64], -step * coef);
        }
    }
    let updates: Vec<(u64, f32)> = buf
        .drain()
        .into_iter()
        .map(|(idx, v)| (idx[0] as u64, v))
        .collect();
    ep.send_coord(&Msg::ServerUpdate {
        epoch,
        node: node as u32,
        payload: codec::encode_updates(&updates),
    })
    .expect("send ServerUpdate");
    EpochOutcome::Done {
        compute_ns: t1.elapsed().as_nanos() as u64,
        rotation_ns,
    }
}

// ---------------------------------------------------------------------
// SLR: the coordinator-side training driver.

/// Trains SLR on a localhost cluster of `opts.nodes` stateless worker
/// processes, with the coordinator serving and updating the weight
/// array. Bit-identical to [`crate::slr::train_orion`] on a
/// `ClusterSpec::new(nodes, 1)` cluster — buffers accumulate the same
/// deltas and apply in node (= sim worker) order.
///
/// Recovery needs no checkpoints: the weights only mutate after a full
/// epoch's updates arrive, so a crashed epoch re-runs from the
/// in-memory pass-start snapshot (the same argument the sim chaos
/// harness makes for discarded buffers).
///
/// # Panics
///
/// Panics in adaptive mode and on protocol violations.
///
/// # Errors
///
/// Returns the underlying [`NetError`] if the cluster cannot be
/// launched or an unrecoverable transport fault occurs.
pub fn train_slr_distributed(
    data: &SparseData,
    cfg: SlrConfig,
    opts: &DistOptions,
) -> Result<DistRunResult<SlrModel>, NetError> {
    assert!(!cfg.adaptive, "distributed SLR supports the plain update");
    assert!(
        opts.nodes >= 1 && opts.epochs >= 1,
        "degenerate cluster options"
    );
    std::fs::create_dir_all(&opts.workdir)?;

    let mut model = SlrModel::new(data.config.n_features, cfg);
    let (mut driver, compiled, plan) = slr_compile(data, &model, opts.nodes);
    let fingerprint = plan_fingerprint(&plan);

    let mut ccfg = ClusterConfig::new(opts.nodes, opts.epochs, fingerprint);
    ccfg.record_msgs = opts.record_msgs;
    ccfg.env = slr_env(&data.config, &model.cfg, opts);
    if let Some((node, epoch)) = opts.crash {
        ccfg.node_env
            .push((node, ENV_CRASH_EPOCH.into(), epoch.to_string()));
    }
    let mut cluster = Coordinator::launch(ccfg)?;

    let mut epochs_out: Vec<EpochStats> = Vec::new();
    let mut recoveries = 0u64;
    let mut epoch = 0u64;
    while epoch < opts.epochs {
        let mut updates: Vec<Option<Bytes>> = vec![None; opts.nodes];
        let result = {
            let weights = &model.weights;
            driver.run_pass_distributed(Some(&compiled), &mut cluster, epoch, |node, msg| match msg
            {
                Msg::PrefetchRequest {
                    epoch: e, indices, ..
                } if e == epoch => {
                    // Serve the pass-start snapshot: every requested
                    // index, valued exactly as the sim's served reads.
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
                    updates[n as usize] = Some(payload);
                    None
                }
                // Stale traffic from an abandoned epoch.
                _ => None,
            })
        };
        match result {
            Ok(stats) => {
                // Apply every node's buffered updates in node order —
                // the order the sim applies its per-worker buffers.
                for payload in updates.iter_mut().map(Option::take) {
                    let payload = payload.expect("every node sent its server update");
                    let mut buf = DistArrayBuffer::<f32>::additive(model.weights.shape().clone());
                    for (idx, v) in codec::decode_updates::<f32>(payload) {
                        buf.write(&[idx as i64], v);
                    }
                    slr::apply_buffer(&mut model, &mut buf);
                }
                driver.record_progress(epoch, model.loss(data));
                epochs_out.push(stats);
                epoch += 1;
            }
            Err(fault) => {
                // The crashed epoch's updates never touched the
                // weights; dropping them erases the pass, and the same
                // epoch re-runs against the unchanged snapshot.
                recoveries += 1;
                cluster.recover(&fault, epoch)?;
            }
        }
    }
    let gathered = cluster.gather()?;
    let msg_log = cluster.take_msg_log();
    debug_assert!(
        gathered.iter().all(Vec::is_empty),
        "SLR nodes are stateless"
    );
    cluster.shutdown();

    let report = driver.run_report(&compiled);
    Ok(DistRunResult {
        model,
        report,
        epochs: epochs_out,
        recoveries,
        reexecuted: 0,
        msg_log,
        stats: driver.finish(),
    })
}
