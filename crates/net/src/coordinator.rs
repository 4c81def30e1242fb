//! The cluster coordinator: spawns node processes, drives epoch
//! barriers, answers server-mode traffic, and runs the recovery
//! protocol.
//!
//! The coordinator owns the control plane. Per node it keeps one TCP
//! stream (writer half used directly, reader half pumped by a dedicated
//! thread into a single event channel) and the `Child` process handle.
//! Reader threads are *generation-tagged*: after a node is declared dead
//! and respawned, events from its old connection carry a stale
//! generation and are dropped, so a zombie socket cannot corrupt a
//! barrier.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use orion_runtime::HbEvent;

use crate::error::NetError;
use crate::message::{recv_msg, send_msg, Msg};
use crate::{ENV_COORD, ENV_EPOCHS, ENV_NODES, ENV_NODE_ID, ENV_ROLE};

/// Static description of the cluster to launch.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of node processes.
    pub nodes: usize,
    /// Total training epochs (forwarded to nodes in `Welcome`).
    pub epochs: u64,
    /// Expected [`crate::plan_fingerprint`]; `Hello`s that disagree are
    /// rejected.
    pub fingerprint: u64,
    /// Extra environment for every child (app name, data config, …).
    pub env: Vec<(String, String)>,
    /// Extra environment for specific children, e.g. fault injection:
    /// `(node, key, value)`.
    pub node_env: Vec<(usize, String, String)>,
    /// How long to wait for a spawned child to connect and `Hello`.
    pub handshake_timeout: Duration,
    /// How long an epoch/checkpoint/rollback barrier may take before the
    /// lagging node is declared dead.
    pub barrier_timeout: Duration,
    /// Record every control-plane message the coordinator sends or
    /// receives as a [`MsgRecord`], for `orion-check`'s protocol monitor
    /// (O204). Off by default — recording clones data payloads.
    pub record_msgs: bool,
}

impl ClusterConfig {
    /// A localhost cluster with default timeouts (60 s handshake,
    /// 300 s barrier — generous because CI runs debug builds under the
    /// schedule sanitizer).
    pub fn new(nodes: usize, epochs: u64, fingerprint: u64) -> Self {
        ClusterConfig {
            nodes,
            epochs,
            fingerprint,
            env: Vec::new(),
            node_env: Vec::new(),
            handshake_timeout: Duration::from_secs(60),
            barrier_timeout: Duration::from_secs(300),
            record_msgs: false,
        }
    }
}

/// One control-plane message as observed by the coordinator, recorded
/// when [`ClusterConfig::record_msgs`] is set. Feed the accumulated log
/// to `orion_check::proto::monitor_log` to validate a real run against
/// the protocol state machine (diagnostic `O204`).
#[derive(Debug, Clone)]
pub struct MsgRecord {
    /// `true` for a coordinator → node send, `false` for a message the
    /// coordinator received from the node.
    pub to_node: bool,
    /// The node on the other end.
    pub node: usize,
    /// The message itself.
    pub msg: Msg,
}

/// A node failure observed at an epoch barrier: the connection closed or
/// the barrier timed out. Feed it to [`Coordinator::recover`].
#[derive(Debug, Clone)]
pub struct NodeFault {
    /// The node held responsible.
    pub node: usize,
    /// The epoch that was abandoned.
    pub epoch: u64,
    /// Human-readable cause.
    pub reason: String,
}

/// Real bytes moved on one directed link during an epoch. `src`/`dst`
/// are node ids, with `n_nodes` standing for the coordinator — the same
/// machine-index convention `orion_trace::LinkBytes` uses.
#[derive(Debug, Clone, Copy)]
pub struct WireLink {
    /// Sending process.
    pub src: usize,
    /// Receiving process.
    pub dst: usize,
    /// Wire bytes (frame headers included).
    pub bytes: u64,
    /// Frames sent.
    pub messages: u64,
}

/// Outcome of one successful epoch barrier.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// The epoch that completed.
    pub epoch: u64,
    /// Coordinator-observed wall time, `EpochStart` to last `EpochDone`.
    pub wall_ns: u64,
    /// Per-node self-reported compute time.
    pub compute_ns: Vec<u64>,
    /// Per-node self-reported rotation time (encode, write, wait,
    /// decode).
    pub rotation_ns: Vec<u64>,
    /// Every link that carried traffic this epoch (node→node rotation,
    /// node→coordinator reports, coordinator→node responses).
    pub links: Vec<WireLink>,
    /// Per-node happens-before event logs carried on `EpochDone`, for
    /// `orion-check`'s O11x detector. Empty unless nodes record them.
    pub events: Vec<Vec<HbEvent>>,
}

enum ReaderEvent {
    Msg(Msg),
    Closed(String),
}

type Event = (usize, u64, ReaderEvent);

/// Drives a localhost cluster of re-executed child processes. See the
/// module docs for the threading model and `docs/DISTRIBUTED.md` for the
/// protocol walkthrough.
pub struct Coordinator {
    cfg: ClusterConfig,
    listener: TcpListener,
    port: u16,
    children: Vec<Option<Child>>,
    writers: Vec<Option<TcpStream>>,
    node_ports: Vec<u16>,
    gens: Vec<u64>,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    /// (bytes, frames) sent to each node by the coordinator.
    sent: Vec<(u64, u64)>,
    /// Control-plane message log; only populated when
    /// `cfg.record_msgs` is set.
    msg_log: Vec<MsgRecord>,
}

impl Coordinator {
    /// Binds the control port, spawns `cfg.nodes` children re-executing
    /// the current binary with `ORION_NET_ROLE=node`, and completes the
    /// handshake (`Hello` in, `Welcome` + `Peers` out) with each.
    pub fn launch(cfg: ClusterConfig) -> Result<Self, NetError> {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let (tx, rx) = std::sync::mpsc::channel();
        let n = cfg.nodes;
        let mut coord = Coordinator {
            cfg,
            listener,
            port,
            children: (0..n).map(|_| None).collect(),
            writers: (0..n).map(|_| None).collect(),
            node_ports: vec![0; n],
            gens: vec![0; n],
            tx,
            rx,
            sent: vec![(0, 0); n],
            msg_log: Vec::new(),
        };
        for node in 0..n {
            coord.spawn_child(node)?;
        }
        for _ in 0..n {
            coord.accept_node()?;
        }
        for node in 0..n {
            let welcome = Msg::Welcome {
                node: node as u32,
                n_nodes: n as u32,
                epochs: coord.cfg.epochs,
            };
            coord.send_to(node, &welcome)?;
        }
        coord.broadcast_peers()?;
        Ok(coord)
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    fn spawn_child(&mut self, node: usize) -> Result<(), NetError> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.env(ENV_ROLE, "node")
            .env(ENV_COORD, format!("127.0.0.1:{}", self.port))
            .env(ENV_NODE_ID, node.to_string())
            .env(ENV_NODES, self.cfg.nodes.to_string())
            .env(ENV_EPOCHS, self.cfg.epochs.to_string());
        for (k, v) in &self.cfg.env {
            cmd.env(k, v);
        }
        for (target, k, v) in &self.cfg.node_env {
            if *target == node {
                cmd.env(k, v);
            }
        }
        self.children[node] = Some(cmd.spawn()?);
        Ok(())
    }

    /// Accepts one node connection, validates its `Hello`, and starts a
    /// generation-tagged reader thread for it. A spawned node that exits
    /// before it connects fails the wait at once.
    fn accept_node(&mut self) -> Result<usize, NetError> {
        let deadline = Instant::now() + self.cfg.handshake_timeout;
        let stream = loop {
            match self.listener.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    for node in (0..self.cfg.nodes).filter(|&n| self.writers[n].is_none()) {
                        let exit = self.children[node].as_mut().map(Child::try_wait);
                        if let Some(status) = exit.transpose()?.flatten() {
                            return Err(NetError::Protocol(format!(
                                "node {node} exited before its Hello ({status})"
                            )));
                        }
                    }
                    if Instant::now() > deadline {
                        return Err(NetError::Timeout("waiting for a node to connect".into()));
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        };
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true).ok();
        let mut reader = stream.try_clone()?;
        let hello = recv_msg(&mut reader)?;
        let Msg::Hello {
            node,
            port,
            fingerprint,
        } = hello
        else {
            return Err(NetError::Protocol(format!("expected Hello, got {hello:?}")));
        };
        if fingerprint != self.cfg.fingerprint {
            return Err(NetError::Protocol(format!(
                "node {node} compiled a divergent plan \
                 (fingerprint {fingerprint:#x}, expected {:#x})",
                self.cfg.fingerprint
            )));
        }
        let node = node as usize;
        if node >= self.cfg.nodes {
            return Err(NetError::Protocol(format!("node id {node} out of range")));
        }
        if self.writers[node].is_some() {
            return Err(NetError::Protocol(format!("node {node} connected twice")));
        }
        self.node_ports[node] = port;
        let generation = self.gens[node];
        let tx = self.tx.clone();
        thread::spawn(move || loop {
            match recv_msg(&mut reader) {
                Ok(msg) => {
                    if tx.send((node, generation, ReaderEvent::Msg(msg))).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    let _ = tx.send((node, generation, ReaderEvent::Closed(e.to_string())));
                    break;
                }
            }
        });
        self.writers[node] = Some(stream);
        Ok(node)
    }

    fn send_to(&mut self, node: usize, msg: &Msg) -> Result<(), NetError> {
        let writer = self.writers[node]
            .as_mut()
            .ok_or_else(|| NetError::Protocol(format!("node {node} has no live connection")))?;
        let bytes = send_msg(writer, msg)?;
        self.sent[node].0 += bytes;
        self.sent[node].1 += 1;
        if self.cfg.record_msgs {
            self.msg_log.push(MsgRecord {
                to_node: true,
                node,
                msg: msg.clone(),
            });
        }
        Ok(())
    }

    /// Returns the recorded control-plane message log (empty unless
    /// [`ClusterConfig::record_msgs`] was set), clearing it.
    pub fn take_msg_log(&mut self) -> Vec<MsgRecord> {
        std::mem::take(&mut self.msg_log)
    }

    /// Sends to every node; on failure reports which node broke.
    fn broadcast(&mut self, msg: &Msg) -> Result<(), (usize, NetError)> {
        for node in 0..self.cfg.nodes {
            self.send_to(node, msg).map_err(|e| (node, e))?;
        }
        Ok(())
    }

    fn broadcast_peers(&mut self) -> Result<(), NetError> {
        let peers = Msg::Peers {
            ports: self.node_ports.clone(),
        };
        self.broadcast(&peers).map_err(|(_, e)| e)
    }

    /// Pops the next live event, dropping stale-generation ones.
    fn next_event(
        &mut self,
        deadline: Instant,
        what: &str,
    ) -> Result<(usize, ReaderEvent), NetError> {
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(NetError::Timeout(format!("at the {what} barrier")));
            }
            match self.rx.recv_timeout(remaining) {
                Ok((node, generation, event)) => {
                    if generation == self.gens[node] {
                        if self.cfg.record_msgs {
                            if let ReaderEvent::Msg(msg) = &event {
                                self.msg_log.push(MsgRecord {
                                    to_node: false,
                                    node,
                                    msg: msg.clone(),
                                });
                            }
                        }
                        return Ok((node, event));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Protocol("event channel closed".into()));
                }
            }
        }
    }

    /// Runs one epoch: broadcasts `EpochStart`, routes mid-epoch
    /// traffic (prefetch requests, server updates, …) through `handler`
    /// — whose optional reply is sent back to the originating node — and
    /// collects `EpochDone` from every node. A closed connection or a
    /// barrier timeout aborts the epoch with a [`NodeFault`].
    pub fn run_epoch_with<F>(&mut self, epoch: u64, mut handler: F) -> Result<EpochStats, NodeFault>
    where
        F: FnMut(usize, Msg) -> Option<Msg>,
    {
        let n = self.cfg.nodes;
        let start = Instant::now();
        let sent_before = self.sent.clone();
        if let Err((node, e)) = self.broadcast(&Msg::EpochStart { epoch }) {
            return Err(NodeFault {
                node,
                epoch,
                reason: e.to_string(),
            });
        }
        let deadline = start + self.cfg.barrier_timeout;
        let mut done = vec![false; n];
        let mut compute = vec![0u64; n];
        let mut rotation = vec![0u64; n];
        let mut links: Vec<WireLink> = Vec::new();
        let mut events: Vec<Vec<HbEvent>> = vec![Vec::new(); n];
        let mut n_done = 0;
        while n_done < n {
            let (node, event) = match self.next_event(deadline, "epoch") {
                Ok(ev) => ev,
                Err(e) => {
                    let lagging = done.iter().position(|d| !d).unwrap_or(0);
                    return Err(NodeFault {
                        node: lagging,
                        epoch,
                        reason: e.to_string(),
                    });
                }
            };
            match event {
                ReaderEvent::Closed(reason) => {
                    return Err(NodeFault {
                        node,
                        epoch,
                        reason,
                    })
                }
                ReaderEvent::Msg(Msg::EpochDone {
                    epoch: done_epoch,
                    node: reported,
                    compute_ns,
                    rotation_ns,
                    sent,
                    events: node_events,
                }) if done_epoch == epoch => {
                    debug_assert_eq!(node, reported as usize);
                    if !done[node] {
                        done[node] = true;
                        n_done += 1;
                        compute[node] = compute_ns;
                        rotation[node] = rotation_ns;
                        events[node] = node_events;
                        for s in sent {
                            links.push(WireLink {
                                src: node,
                                dst: s.dst as usize,
                                bytes: s.bytes,
                                messages: s.messages,
                            });
                        }
                    }
                }
                // An EpochDone from an abandoned pre-rollback epoch.
                ReaderEvent::Msg(Msg::EpochDone { .. }) => {}
                ReaderEvent::Msg(msg) => {
                    if let Some(reply) = handler(node, msg) {
                        if let Err(e) = self.send_to(node, &reply) {
                            return Err(NodeFault {
                                node,
                                epoch,
                                reason: e.to_string(),
                            });
                        }
                    }
                }
            }
        }
        // Coordinator-side accounting: what we sent each node this epoch.
        for (node, (bytes, frames)) in self.sent.iter().enumerate() {
            let d_bytes = bytes - sent_before[node].0;
            let d_frames = frames - sent_before[node].1;
            if d_bytes > 0 {
                links.push(WireLink {
                    src: n,
                    dst: node,
                    bytes: d_bytes,
                    messages: d_frames,
                });
            }
        }
        Ok(EpochStats {
            epoch,
            wall_ns: start.elapsed().as_nanos() as u64,
            compute_ns: compute,
            rotation_ns: rotation,
            links,
            events,
        })
    }

    /// Runs a checkpoint barrier: every node persists an epoch-tagged
    /// checkpoint and acknowledges before any epoch may proceed.
    pub fn checkpoint_barrier(&mut self, epoch: u64) -> Result<(), NodeFault> {
        if let Err((node, e)) = self.broadcast(&Msg::Checkpoint { epoch }) {
            return Err(NodeFault {
                node,
                epoch,
                reason: e.to_string(),
            });
        }
        self.collect_acks(
            epoch,
            "checkpoint",
            |msg| matches!(msg, Msg::CheckpointDone { epoch: e, .. } if *e == epoch),
        )
    }

    fn collect_acks<P>(&mut self, epoch: u64, what: &str, mut is_ack: P) -> Result<(), NodeFault>
    where
        P: FnMut(&Msg) -> bool,
    {
        let n = self.cfg.nodes;
        let deadline = Instant::now() + self.cfg.barrier_timeout;
        let mut done = vec![false; n];
        let mut n_done = 0;
        while n_done < n {
            let (node, event) = match self.next_event(deadline, what) {
                Ok(ev) => ev,
                Err(e) => {
                    let lagging = done.iter().position(|d| !d).unwrap_or(0);
                    return Err(NodeFault {
                        node: lagging,
                        epoch,
                        reason: e.to_string(),
                    });
                }
            };
            match event {
                ReaderEvent::Closed(reason) => {
                    return Err(NodeFault {
                        node,
                        epoch,
                        reason,
                    })
                }
                ReaderEvent::Msg(msg) if is_ack(&msg) => {
                    if !done[node] {
                        done[node] = true;
                        n_done += 1;
                    }
                }
                // Stale traffic from an abandoned epoch; ignore.
                ReaderEvent::Msg(_) => {}
            }
        }
        Ok(())
    }

    /// Recovers from a node fault: kills and respawns the dead child,
    /// re-handshakes it, republishes the peer table (its rotation port
    /// changed), then rolls the *whole* cluster back to
    /// `rollback_epoch`'s checkpoint and waits for every `RollbackDone`.
    pub fn recover(&mut self, fault: &NodeFault, rollback_epoch: u64) -> Result<(), NetError> {
        let node = fault.node;
        self.gens[node] += 1; // stale events from the old connection now drop
        self.writers[node] = None;
        if let Some(mut child) = self.children[node].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.spawn_child(node)?;
        let accepted = self.accept_node()?;
        if accepted != node {
            return Err(NetError::Protocol(format!(
                "respawned node {node} but node {accepted} connected"
            )));
        }
        let welcome = Msg::Welcome {
            node: node as u32,
            n_nodes: self.cfg.nodes as u32,
            epochs: self.cfg.epochs,
        };
        self.send_to(node, &welcome)?;
        self.broadcast_peers()?;
        self.broadcast(&Msg::Rollback {
            epoch: rollback_epoch,
        })
        .map_err(|(n, e)| NetError::Protocol(format!("rollback send to node {n}: {e}")))?;
        self.collect_acks(
            rollback_epoch,
            "rollback",
            |msg| matches!(msg, Msg::RollbackDone { epoch, .. } if *epoch == rollback_epoch),
        )
        .map_err(|f| {
            NetError::Protocol(format!(
                "node {} died during rollback: {}",
                f.node, f.reason
            ))
        })
    }

    /// Gathers final model state: broadcasts `Gather` and returns each
    /// node's tagged partitions, indexed by node id.
    pub fn gather(&mut self) -> Result<Vec<Vec<(u32, Bytes)>>, NetError> {
        self.broadcast(&Msg::Gather)
            .map_err(|(node, e)| NetError::Protocol(format!("gather send to node {node}: {e}")))?;
        let n = self.cfg.nodes;
        let deadline = Instant::now() + self.cfg.barrier_timeout;
        let mut out: Vec<Option<Vec<(u32, Bytes)>>> = (0..n).map(|_| None).collect();
        let mut n_done = 0;
        while n_done < n {
            let (node, event) = self.next_event(deadline, "gather")?;
            match event {
                ReaderEvent::Closed(reason) => {
                    return Err(NetError::Protocol(format!(
                        "node {node} died during gather: {reason}"
                    )));
                }
                ReaderEvent::Msg(Msg::FinalState {
                    node: reported,
                    parts,
                }) => {
                    let slot = reported as usize;
                    if slot < n && out[slot].is_none() {
                        out[slot] = Some(parts);
                        n_done += 1;
                    }
                }
                ReaderEvent::Msg(_) => {}
            }
        }
        Ok(out
            .into_iter()
            .map(|parts| parts.expect("every node reported final state"))
            .collect())
    }

    /// Shuts the cluster down cleanly: broadcasts `Shutdown` and reaps
    /// every child, killing any that fail to exit within 10 s.
    pub fn shutdown(mut self) {
        let _ = self.broadcast(&Msg::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in self.children.iter_mut() {
            let Some(child) = child.as_mut() else {
                continue;
            };
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() > deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => thread::sleep(Duration::from_millis(1)),
                    Err(_) => break,
                }
            }
        }
        self.children.clear();
    }
}

impl Drop for Coordinator {
    /// Never leaves orphan node processes behind, even on panic paths.
    fn drop(&mut self) {
        for child in self.children.iter_mut().filter_map(Option::take) {
            let mut child = child;
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
