//! The node-side endpoint: coordinator control stream plus lazily-opened
//! peer streams for partition rotation.
//!
//! All sockets block; a dedicated acceptor thread plus one reader thread
//! per inbound connection pump frames into a single event channel the
//! node's control loop drains. Received partitions land in an inbox
//! keyed `(epoch, time_partition)` — a single slot per key is sound
//! because each arrival of a partition at a node is causally ordered
//! after that node's previous consumption of the same key (the
//! partition's rotation chain passes through the consumer), and
//! post-rollback duplicates are bit-identical by deterministic
//! re-execution.

use std::collections::{BTreeMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::NetError;
use crate::frame::write_frame;
use crate::message::{recv_msg, LinkStat, Msg};

/// Identity and rendezvous info a node process starts from (parsed out
/// of the `ORION_NET_*` environment the coordinator set).
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id in `0..n_nodes`.
    pub node: usize,
    /// Cluster size.
    pub n_nodes: usize,
    /// Coordinator `host:port`.
    pub coord: String,
    /// Fingerprint of the locally-compiled plan, sent in `Hello`.
    pub fingerprint: u64,
}

enum NodeEvent {
    Coord(Msg),
    CoordClosed(String),
    Peer(Msg),
}

/// What a wait for a rotated partition produced.
#[derive(Debug)]
pub enum PartRecv {
    /// The awaited partition payload.
    Part(Bytes),
    /// A control message that preempts the epoch (`Rollback` or
    /// `Shutdown`); the caller must abandon the pass.
    Ctrl(Msg),
    /// The timeout elapsed.
    TimedOut,
}

/// A connected node endpoint. See the module docs for the threading
/// model.
pub struct NodeEndpoint {
    node: usize,
    n_nodes: usize,
    epochs: u64,
    coord_writer: TcpStream,
    rx: Receiver<NodeEvent>,
    peer_ports: Vec<u16>,
    peer_conns: Vec<Option<TcpStream>>,
    pending: VecDeque<Msg>,
    inbox: BTreeMap<(u64, u32), Bytes>,
    /// (bytes, frames) per destination; index `n_nodes` is the
    /// coordinator.
    sent: Vec<(u64, u64)>,
    /// The buffer every outgoing frame is built in, kept across sends.
    frame: Vec<u8>,
}

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(60);

impl NodeEndpoint {
    /// Binds the peer listener, connects to the coordinator, sends
    /// `Hello`, and blocks until `Welcome` and the initial `Peers` table
    /// arrive.
    pub fn connect(cfg: &NodeConfig) -> Result<Self, NetError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let my_port = listener.local_addr()?.port();
        let (tx, rx) = std::sync::mpsc::channel::<NodeEvent>();

        let acceptor_tx = tx.clone();
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                stream.set_nodelay(true).ok();
                let tx = acceptor_tx.clone();
                thread::spawn(move || {
                    let mut stream = stream;
                    loop {
                        match recv_msg(&mut stream) {
                            Ok(msg) => {
                                if tx.send(NodeEvent::Peer(msg)).is_err() {
                                    return;
                                }
                            }
                            Err(_) => return,
                        }
                    }
                });
            }
        });

        let coord_writer = TcpStream::connect(&cfg.coord)?;
        coord_writer.set_nodelay(true).ok();
        let mut coord_reader = coord_writer.try_clone()?;
        thread::spawn(move || loop {
            match recv_msg(&mut coord_reader) {
                Ok(msg) => {
                    if tx.send(NodeEvent::Coord(msg)).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    let _ = tx.send(NodeEvent::CoordClosed(e.to_string()));
                    return;
                }
            }
        });

        let mut endpoint = NodeEndpoint {
            node: cfg.node,
            n_nodes: cfg.n_nodes,
            epochs: 0,
            coord_writer,
            rx,
            peer_ports: vec![0; cfg.n_nodes],
            peer_conns: (0..cfg.n_nodes).map(|_| None).collect(),
            pending: VecDeque::new(),
            inbox: BTreeMap::new(),
            sent: vec![(0, 0); cfg.n_nodes + 1],
            frame: Vec::new(),
        };
        endpoint.send_coord(&Msg::Hello {
            node: cfg.node as u32,
            port: my_port,
            fingerprint: cfg.fingerprint,
        })?;
        // The coordinator sends Welcome then Peers on the same ordered
        // stream; anything else at this point is a protocol violation.
        match endpoint.next_coord_msg(HANDSHAKE_TIMEOUT)? {
            Msg::Welcome {
                node,
                n_nodes,
                epochs,
            } => {
                if node as usize != cfg.node || n_nodes as usize != cfg.n_nodes {
                    return Err(NetError::Protocol(format!(
                        "welcome for node {node}/{n_nodes}, expected {}/{}",
                        cfg.node, cfg.n_nodes
                    )));
                }
                endpoint.epochs = epochs;
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "expected Welcome, got {other:?}"
                )));
            }
        }
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        while endpoint.peer_ports.iter().all(|&p| p == 0) {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(NetError::Timeout("waiting for the peer table".into()));
            }
            // Peers is absorbed internally; any other control message is
            // queued for the main loop.
            match endpoint.next_coord_msg(remaining) {
                Ok(msg) => endpoint.pending.push_back(msg),
                Err(NetError::Timeout(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(endpoint)
    }

    /// This node's id.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Cluster size.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Total epochs announced in `Welcome`.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Sends a message to the coordinator.
    pub fn send_coord(&mut self, msg: &Msg) -> Result<(), NetError> {
        let bytes = write_frame(&mut self.coord_writer, &mut self.frame, |b| {
            msg.encode_body(b)
        })?;
        let slot = self.n_nodes;
        self.sent[slot].0 += bytes;
        self.sent[slot].1 += 1;
        Ok(())
    }

    /// Sends rotated partition `(epoch, tp)` to a peer node as one
    /// [`Msg::Partition`] frame, connecting lazily; `payload` appends the
    /// serialized partition straight into the frame (this crate does not
    /// know the array codec). Returns false if the peer is unreachable —
    /// tolerated, because a vanished peer means the coordinator is about
    /// to roll the epoch back anyway.
    pub fn send_partition(
        &mut self,
        dst: usize,
        epoch: u64,
        tp: u32,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        if dst == self.node || dst >= self.n_nodes {
            return false;
        }
        if self.peer_conns[dst].is_none() {
            let port = self.peer_ports[dst];
            if port == 0 {
                return false;
            }
            match TcpStream::connect(("127.0.0.1", port)) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    self.peer_conns[dst] = Some(stream);
                }
                Err(_) => return false,
            }
        }
        let conn = self.peer_conns[dst]
            .as_mut()
            .expect("connection just ensured");
        match write_frame(conn, &mut self.frame, |b| {
            Msg::partition_body(b, epoch, tp, payload)
        }) {
            Ok(bytes) => {
                self.sent[dst].0 += bytes;
                self.sent[dst].1 += 1;
                true
            }
            Err(_) => {
                self.peer_conns[dst] = None;
                false
            }
        }
    }

    /// Routes one raw event; returns a coordinator control message if it
    /// needs the caller's attention.
    fn absorb(&mut self, event: NodeEvent) -> Result<Option<Msg>, NetError> {
        match event {
            NodeEvent::Peer(Msg::Partition { epoch, tp, payload }) => {
                self.inbox.insert((epoch, tp), payload);
                Ok(None)
            }
            NodeEvent::Peer(_) => Ok(None),
            NodeEvent::Coord(Msg::Peers { ports }) => {
                // Ports change after a recovery; drop cached connections
                // so the next send redials the respawned process.
                self.peer_ports = ports;
                for conn in &mut self.peer_conns {
                    *conn = None;
                }
                Ok(None)
            }
            NodeEvent::Coord(msg) => Ok(Some(msg)),
            NodeEvent::CoordClosed(reason) => Err(NetError::Protocol(format!(
                "coordinator connection lost: {reason}"
            ))),
        }
    }

    /// Blocks for the next coordinator control message (peer-table
    /// updates and inbound partitions are absorbed internally).
    pub fn next_coord_msg(&mut self, timeout: Duration) -> Result<Msg, NetError> {
        if let Some(msg) = self.pending.pop_front() {
            return Ok(msg);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(NetError::Timeout("waiting for the coordinator".into()));
            }
            match self.rx.recv_timeout(remaining) {
                Ok(event) => {
                    if let Some(msg) = self.absorb(event)? {
                        return Ok(msg);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Protocol("event channel closed".into()));
                }
            }
        }
    }

    /// Blocks for the rotated partition `(epoch, tp)`. Coordinator
    /// messages arriving meanwhile are queued, except `Rollback` /
    /// `Shutdown` which preempt the wait as [`PartRecv::Ctrl`].
    pub fn recv_partition(
        &mut self,
        epoch: u64,
        tp: u32,
        timeout: Duration,
    ) -> Result<PartRecv, NetError> {
        let key = (epoch, tp);
        if let Some(payload) = self.inbox.remove(&key) {
            return Ok(PartRecv::Part(payload));
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(PartRecv::TimedOut);
            }
            match self.rx.recv_timeout(remaining) {
                Ok(event) => {
                    if let Some(msg) = self.absorb(event)? {
                        match msg {
                            Msg::Rollback { .. } | Msg::Shutdown => {
                                return Ok(PartRecv::Ctrl(msg));
                            }
                            other => self.pending.push_back(other),
                        }
                    }
                    if let Some(payload) = self.inbox.remove(&key) {
                        return Ok(PartRecv::Part(payload));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Protocol("event channel closed".into()));
                }
            }
        }
    }

    /// Drops inbox entries at or below `epoch` (called after an epoch
    /// barrier; anything older can only be a bit-identical duplicate).
    pub fn gc_below(&mut self, epoch: u64) {
        self.inbox.retain(|&(e, _), _| e > epoch);
    }

    /// Empties the inbox entirely (rollback).
    pub fn clear_inbox(&mut self) {
        self.inbox.clear();
    }

    /// Drains the per-destination wire counters into `LinkStat`s for the
    /// next `EpochDone`; destination `n_nodes` is the coordinator.
    pub fn take_sent(&mut self) -> Vec<LinkStat> {
        let mut out = Vec::new();
        for (dst, counters) in self.sent.iter_mut().enumerate() {
            if counters.0 > 0 {
                out.push(LinkStat {
                    dst: dst as u32,
                    bytes: counters.0,
                    messages: counters.1,
                });
            }
            *counters = (0, 0);
        }
        out
    }
}
