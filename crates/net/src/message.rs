//! Control-plane and data-plane messages of the socket runtime.
//!
//! Every message encodes to one frame (see [`crate::frame`]); the frame
//! `kind` field selects the variant and the payload is a flat
//! little-endian encoding with length-prefixed byte blobs. Data payloads
//! (`Partition`, `ServerUpdate`, `PrefetchResponse`, `FinalState`) carry
//! bytes produced by `orion-dsm`'s checkpoint/codec wire formats and are
//! treated as opaque here — the transport never reinterprets elements,
//! which is what keeps the socket path bit-identical to the simulator.

use std::io::{Read, Write};

use bytes::{Buf, BufMut, Bytes};
use orion_runtime::HbEvent;

use crate::frame::{self, FrameError};

/// Per-destination wire accounting a node reports with its
/// [`Msg::EpochDone`]: real bytes and frame count sent on one link
/// during the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStat {
    /// Destination: a peer node id, or `n_nodes` for the coordinator.
    pub dst: u32,
    /// Wire bytes sent (headers included).
    pub bytes: u64,
    /// Frames sent.
    pub messages: u64,
}

/// Frame kinds, one per [`Msg`] variant.
mod kind {
    pub const HELLO: u32 = 1;
    pub const WELCOME: u32 = 2;
    pub const PEERS: u32 = 3;
    pub const EPOCH_START: u32 = 4;
    pub const EPOCH_DONE: u32 = 5;
    pub const PARTITION: u32 = 6;
    pub const SERVER_UPDATE: u32 = 7;
    pub const PREFETCH_REQUEST: u32 = 8;
    pub const PREFETCH_RESPONSE: u32 = 9;
    pub const CHECKPOINT: u32 = 10;
    pub const CHECKPOINT_DONE: u32 = 11;
    pub const ROLLBACK: u32 = 12;
    pub const ROLLBACK_DONE: u32 = 13;
    pub const GATHER: u32 = 14;
    pub const FINAL_STATE: u32 = 15;
    pub const SHUTDOWN: u32 = 16;
}

/// One protocol message. See [`crate`] docs for the protocol walkthrough
/// and `docs/DISTRIBUTED.md` for the wire-level reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Node → coordinator: first message after connecting.
    Hello {
        /// The sender's node id.
        node: u32,
        /// The port the node's peer listener is bound to.
        port: u16,
        /// Structural fingerprint of the locally-compiled plan; must
        /// match the coordinator's or the handshake is rejected.
        fingerprint: u64,
    },
    /// Coordinator → node: handshake accepted.
    Welcome {
        /// The node id the coordinator believes it is talking to.
        node: u32,
        /// Cluster size.
        n_nodes: u32,
        /// Total epochs this run will execute.
        epochs: u64,
    },
    /// Coordinator → all nodes: the peer listener port table, indexed by
    /// node id. Re-broadcast after every recovery (ports change).
    Peers {
        /// `ports[i]` is node `i`'s peer listener port on localhost.
        ports: Vec<u16>,
    },
    /// Coordinator → all nodes: run one epoch.
    EpochStart {
        /// Epoch to execute.
        epoch: u64,
    },
    /// Node → coordinator: epoch barrier contribution.
    EpochDone {
        /// Epoch that finished.
        epoch: u64,
        /// The reporting node.
        node: u32,
        /// Real time spent in compute this epoch.
        compute_ns: u64,
        /// Real time spent on partition rotation this epoch: encoding and
        /// writing the partitions sent, waiting for and decoding the
        /// ones received.
        rotation_ns: u64,
        /// Per-destination wire accounting for the epoch.
        sent: Vec<LinkStat>,
        /// The node's happens-before event log for the epoch
        /// ([`orion_runtime::HbEvent`]), consumed by `orion-check`'s
        /// O11x detector when validation is on; empty otherwise.
        events: Vec<HbEvent>,
    },
    /// Node → node: one rotated time partition (Fig. 8), serialized with
    /// `orion_dsm::checkpoint::to_bytes`.
    Partition {
        /// Epoch the partition belongs to.
        epoch: u64,
        /// Time-partition index.
        tp: u32,
        /// Serialized `DistArray` partition.
        payload: Bytes,
    },
    /// Node → coordinator: buffered server-mode updates (§3.3),
    /// serialized with `orion_dsm::codec::encode_updates`.
    ServerUpdate {
        /// Epoch the updates were computed in.
        epoch: u64,
        /// The sending node.
        node: u32,
        /// Serialized `(index, delta)` update pairs.
        payload: Bytes,
    },
    /// Node → coordinator: bulk-prefetch request (§4.4) for the served
    /// values this node's iteration block reads.
    PrefetchRequest {
        /// Epoch the values are needed for.
        epoch: u64,
        /// The requesting node.
        node: u32,
        /// Sorted, deduplicated flat indices to fetch.
        indices: Vec<u64>,
    },
    /// Coordinator → node: served values answering a prefetch request,
    /// serialized with `orion_dsm::codec::encode_updates`.
    PrefetchResponse {
        /// Epoch the values are valid for.
        epoch: u64,
        /// Serialized `(index, value)` pairs.
        payload: Bytes,
    },
    /// Coordinator → all nodes: write an epoch-tagged checkpoint now.
    Checkpoint {
        /// Epoch tag (the epoch about to run).
        epoch: u64,
    },
    /// Node → coordinator: checkpoint barrier contribution.
    CheckpointDone {
        /// Epoch tag that was persisted.
        epoch: u64,
        /// The reporting node.
        node: u32,
    },
    /// Coordinator → all nodes: abandon the current epoch and restore
    /// the checkpoint tagged `epoch`.
    Rollback {
        /// Checkpoint epoch to restore.
        epoch: u64,
    },
    /// Node → coordinator: rollback barrier contribution.
    RollbackDone {
        /// Checkpoint epoch that was restored.
        epoch: u64,
        /// The reporting node.
        node: u32,
    },
    /// Coordinator → all nodes: send final model state.
    Gather,
    /// Node → coordinator: the node's final partitions.
    FinalState {
        /// The reporting node.
        node: u32,
        /// Tagged partitions; the tag is app-defined (for MF,
        /// `u32::MAX` marks the space partition and other values are
        /// time-partition indices).
        parts: Vec<(u32, Bytes)>,
    },
    /// Coordinator → all nodes: exit cleanly.
    Shutdown,
}

fn put_bytes(b: &mut Vec<u8>, payload: &Bytes) {
    b.reserve(8 + payload.len());
    b.put_u64_le(payload.len() as u64);
    b.put_slice(payload);
}

fn need(b: &Bytes, n: usize, what: &str) -> Result<(), FrameError> {
    if b.remaining() < n {
        return Err(FrameError::Malformed(format!(
            "payload needs {n} more bytes for {what}, has {}",
            b.remaining()
        )));
    }
    Ok(())
}

fn get_u8(b: &mut Bytes, what: &str) -> Result<u8, FrameError> {
    need(b, 1, what)?;
    Ok(b.get_u8())
}

fn get_u16(b: &mut Bytes, what: &str) -> Result<u16, FrameError> {
    need(b, 2, what)?;
    Ok(b.get_u16_le())
}

fn get_u32(b: &mut Bytes, what: &str) -> Result<u32, FrameError> {
    need(b, 4, what)?;
    Ok(b.get_u32_le())
}

fn get_u64(b: &mut Bytes, what: &str) -> Result<u64, FrameError> {
    need(b, 8, what)?;
    Ok(b.get_u64_le())
}

fn get_bytes(b: &mut Bytes, what: &str) -> Result<Bytes, FrameError> {
    let len = get_u64(b, what)? as usize;
    need(b, len, what)?;
    Ok(b.copy_to_bytes(len))
}

/// Reads a `count`-prefixed list, guarding the count against the bytes
/// actually present so a corrupt frame cannot force a huge allocation.
fn get_count(b: &mut Bytes, elem_min: usize, what: &str) -> Result<usize, FrameError> {
    let count = get_u64(b, what)? as usize;
    if count
        .checked_mul(elem_min)
        .is_none_or(|n| n > b.remaining())
    {
        return Err(FrameError::Malformed(format!(
            "{what} count {count} exceeds remaining payload"
        )));
    }
    Ok(count)
}

impl Msg {
    /// Encodes to a frame kind and payload.
    pub fn encode(&self) -> (u32, Bytes) {
        let mut body = Vec::new();
        let kind = self.encode_body(&mut body);
        (kind, Bytes::from(body))
    }

    /// Appends the body of a [`Msg::Partition`] whose payload `write`
    /// produces in place, and returns its frame kind: how a node sends a
    /// partition without first materializing it as a [`Bytes`].
    pub(crate) fn partition_body(
        b: &mut Vec<u8>,
        epoch: u64,
        tp: u32,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> u32 {
        b.put_u64_le(epoch);
        b.put_u32_le(tp);
        // Length-prefixed like `put_bytes`, the length patched in once
        // the payload has been written.
        let at = b.len();
        b.put_u64_le(0);
        write(b);
        let len = (b.len() - at - 8) as u64;
        b[at..at + 8].copy_from_slice(&len.to_le_bytes());
        kind::PARTITION
    }

    /// Appends the payload encoding to `b` and returns the frame kind.
    pub(crate) fn encode_body(&self, b: &mut Vec<u8>) -> u32 {
        match self {
            Msg::Hello {
                node,
                port,
                fingerprint,
            } => {
                b.put_u32_le(*node);
                b.put_u16_le(*port);
                b.put_u64_le(*fingerprint);
                kind::HELLO
            }
            Msg::Welcome {
                node,
                n_nodes,
                epochs,
            } => {
                b.put_u32_le(*node);
                b.put_u32_le(*n_nodes);
                b.put_u64_le(*epochs);
                kind::WELCOME
            }
            Msg::Peers { ports } => {
                b.put_u64_le(ports.len() as u64);
                for p in ports {
                    b.put_u16_le(*p);
                }
                kind::PEERS
            }
            Msg::EpochStart { epoch } => {
                b.put_u64_le(*epoch);
                kind::EPOCH_START
            }
            Msg::EpochDone {
                epoch,
                node,
                compute_ns,
                rotation_ns,
                sent,
                events,
            } => {
                b.put_u64_le(*epoch);
                b.put_u32_le(*node);
                b.put_u64_le(*compute_ns);
                b.put_u64_le(*rotation_ns);
                b.put_u64_le(sent.len() as u64);
                for s in sent {
                    b.put_u32_le(s.dst);
                    b.put_u64_le(s.bytes);
                    b.put_u64_le(s.messages);
                }
                b.put_u64_le(events.len() as u64);
                for ev in events {
                    let (tag, a, v) = ev.to_wire();
                    b.put_u8(tag);
                    b.put_u64_le(a);
                    b.put_u64_le(v);
                }
                kind::EPOCH_DONE
            }
            Msg::Partition { epoch, tp, payload } => {
                b.reserve(20 + payload.len());
                Msg::partition_body(b, *epoch, *tp, |b| b.put_slice(payload))
            }
            Msg::ServerUpdate {
                epoch,
                node,
                payload,
            } => {
                b.put_u64_le(*epoch);
                b.put_u32_le(*node);
                put_bytes(b, payload);
                kind::SERVER_UPDATE
            }
            Msg::PrefetchRequest {
                epoch,
                node,
                indices,
            } => {
                b.put_u64_le(*epoch);
                b.put_u32_le(*node);
                b.put_u64_le(indices.len() as u64);
                for i in indices {
                    b.put_u64_le(*i);
                }
                kind::PREFETCH_REQUEST
            }
            Msg::PrefetchResponse { epoch, payload } => {
                b.put_u64_le(*epoch);
                put_bytes(b, payload);
                kind::PREFETCH_RESPONSE
            }
            Msg::Checkpoint { epoch } => {
                b.put_u64_le(*epoch);
                kind::CHECKPOINT
            }
            Msg::CheckpointDone { epoch, node } => {
                b.put_u64_le(*epoch);
                b.put_u32_le(*node);
                kind::CHECKPOINT_DONE
            }
            Msg::Rollback { epoch } => {
                b.put_u64_le(*epoch);
                kind::ROLLBACK
            }
            Msg::RollbackDone { epoch, node } => {
                b.put_u64_le(*epoch);
                b.put_u32_le(*node);
                kind::ROLLBACK_DONE
            }
            Msg::Gather => kind::GATHER,
            Msg::FinalState { node, parts } => {
                b.put_u32_le(*node);
                b.put_u64_le(parts.len() as u64);
                for (tag, payload) in parts {
                    b.put_u32_le(*tag);
                    put_bytes(b, payload);
                }
                kind::FINAL_STATE
            }
            Msg::Shutdown => kind::SHUTDOWN,
        }
    }

    /// Decodes a frame back into a message. Every read is length-checked
    /// so a corrupt payload yields [`FrameError::Malformed`], never a
    /// panic.
    pub fn decode(kind: u32, mut b: Bytes) -> Result<Msg, FrameError> {
        let msg = match kind {
            kind::HELLO => Msg::Hello {
                node: get_u32(&mut b, "hello.node")?,
                port: get_u16(&mut b, "hello.port")?,
                fingerprint: get_u64(&mut b, "hello.fingerprint")?,
            },
            kind::WELCOME => Msg::Welcome {
                node: get_u32(&mut b, "welcome.node")?,
                n_nodes: get_u32(&mut b, "welcome.n_nodes")?,
                epochs: get_u64(&mut b, "welcome.epochs")?,
            },
            kind::PEERS => {
                let count = get_count(&mut b, 2, "peers.ports")?;
                let mut ports = Vec::with_capacity(count);
                for _ in 0..count {
                    ports.push(get_u16(&mut b, "peers.port")?);
                }
                Msg::Peers { ports }
            }
            kind::EPOCH_START => Msg::EpochStart {
                epoch: get_u64(&mut b, "epoch_start.epoch")?,
            },
            kind::EPOCH_DONE => {
                let epoch = get_u64(&mut b, "epoch_done.epoch")?;
                let node = get_u32(&mut b, "epoch_done.node")?;
                let compute_ns = get_u64(&mut b, "epoch_done.compute_ns")?;
                let rotation_ns = get_u64(&mut b, "epoch_done.rotation_ns")?;
                let count = get_count(&mut b, 20, "epoch_done.sent")?;
                let mut sent = Vec::with_capacity(count);
                for _ in 0..count {
                    sent.push(LinkStat {
                        dst: get_u32(&mut b, "epoch_done.dst")?,
                        bytes: get_u64(&mut b, "epoch_done.bytes")?,
                        messages: get_u64(&mut b, "epoch_done.messages")?,
                    });
                }
                let count = get_count(&mut b, 17, "epoch_done.events")?;
                let mut events = Vec::with_capacity(count);
                for _ in 0..count {
                    let tag = get_u8(&mut b, "epoch_done.event_tag")?;
                    let a = get_u64(&mut b, "epoch_done.event_a")?;
                    let v = get_u64(&mut b, "epoch_done.event_b")?;
                    events.push(HbEvent::from_wire(tag, a, v).ok_or_else(|| {
                        FrameError::Malformed(format!("bad hb event tag {tag} in epoch_done"))
                    })?);
                }
                Msg::EpochDone {
                    epoch,
                    node,
                    compute_ns,
                    rotation_ns,
                    sent,
                    events,
                }
            }
            kind::PARTITION => Msg::Partition {
                epoch: get_u64(&mut b, "partition.epoch")?,
                tp: get_u32(&mut b, "partition.tp")?,
                payload: get_bytes(&mut b, "partition.payload")?,
            },
            kind::SERVER_UPDATE => Msg::ServerUpdate {
                epoch: get_u64(&mut b, "server_update.epoch")?,
                node: get_u32(&mut b, "server_update.node")?,
                payload: get_bytes(&mut b, "server_update.payload")?,
            },
            kind::PREFETCH_REQUEST => {
                let epoch = get_u64(&mut b, "prefetch_request.epoch")?;
                let node = get_u32(&mut b, "prefetch_request.node")?;
                let count = get_count(&mut b, 8, "prefetch_request.indices")?;
                let mut indices = Vec::with_capacity(count);
                for _ in 0..count {
                    indices.push(get_u64(&mut b, "prefetch_request.index")?);
                }
                Msg::PrefetchRequest {
                    epoch,
                    node,
                    indices,
                }
            }
            kind::PREFETCH_RESPONSE => Msg::PrefetchResponse {
                epoch: get_u64(&mut b, "prefetch_response.epoch")?,
                payload: get_bytes(&mut b, "prefetch_response.payload")?,
            },
            kind::CHECKPOINT => Msg::Checkpoint {
                epoch: get_u64(&mut b, "checkpoint.epoch")?,
            },
            kind::CHECKPOINT_DONE => Msg::CheckpointDone {
                epoch: get_u64(&mut b, "checkpoint_done.epoch")?,
                node: get_u32(&mut b, "checkpoint_done.node")?,
            },
            kind::ROLLBACK => Msg::Rollback {
                epoch: get_u64(&mut b, "rollback.epoch")?,
            },
            kind::ROLLBACK_DONE => Msg::RollbackDone {
                epoch: get_u64(&mut b, "rollback_done.epoch")?,
                node: get_u32(&mut b, "rollback_done.node")?,
            },
            kind::GATHER => Msg::Gather,
            kind::FINAL_STATE => {
                let node = get_u32(&mut b, "final_state.node")?;
                let count = get_count(&mut b, 12, "final_state.parts")?;
                let mut parts = Vec::with_capacity(count);
                for _ in 0..count {
                    let tag = get_u32(&mut b, "final_state.tag")?;
                    parts.push((tag, get_bytes(&mut b, "final_state.payload")?));
                }
                Msg::FinalState { node, parts }
            }
            kind::SHUTDOWN => Msg::Shutdown,
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown message kind {other}"
                )));
            }
        };
        if b.remaining() > 0 {
            return Err(FrameError::Malformed(format!(
                "{} trailing bytes after message kind {kind}",
                b.remaining()
            )));
        }
        Ok(msg)
    }
}

/// Encodes `msg` in place into one frame and writes it; returns wire
/// bytes written.
pub fn send_msg<W: Write>(w: &mut W, msg: &Msg) -> Result<u64, FrameError> {
    frame::write_frame(w, &mut Vec::new(), |b| msg.encode_body(b))
}

/// Reads one frame and decodes it into a message.
pub fn recv_msg<R: Read>(r: &mut R) -> Result<Msg, FrameError> {
    let (kind, payload) = frame::read_frame(r)?;
    Msg::decode(kind, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Msg) {
        let (kind, payload) = msg.encode();
        let back = Msg::decode(kind, payload).expect("own encoding decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Msg::Hello {
            node: 3,
            port: 40123,
            fingerprint: 0xdead_beef_cafe,
        });
        round_trip(Msg::Welcome {
            node: 1,
            n_nodes: 4,
            epochs: 12,
        });
        round_trip(Msg::Peers {
            ports: vec![1024, 2048, 65535],
        });
        round_trip(Msg::EpochStart { epoch: 9 });
        round_trip(Msg::EpochDone {
            epoch: 2,
            node: 0,
            compute_ns: 12345,
            rotation_ns: 678,
            sent: vec![LinkStat {
                dst: 1,
                bytes: 999,
                messages: 3,
            }],
            events: vec![
                HbEvent::Recv { tp: 1 },
                HbEvent::Exec { step: 7, block: 3 },
                HbEvent::Send { tp: 1, dst: 2 },
                HbEvent::BarrierEnter { epoch: 2 },
            ],
        });
        round_trip(Msg::Partition {
            epoch: 1,
            tp: 2,
            payload: Bytes::from(vec![1, 2, 3]),
        });
        round_trip(Msg::ServerUpdate {
            epoch: 4,
            node: 2,
            payload: Bytes::from(vec![0u8; 64]),
        });
        round_trip(Msg::PrefetchRequest {
            epoch: 0,
            node: 3,
            indices: vec![0, 7, 1 << 40],
        });
        round_trip(Msg::PrefetchResponse {
            epoch: 5,
            payload: Bytes::from(vec![255]),
        });
        round_trip(Msg::Checkpoint { epoch: 6 });
        round_trip(Msg::CheckpointDone { epoch: 6, node: 1 });
        round_trip(Msg::Rollback { epoch: 4 });
        round_trip(Msg::RollbackDone { epoch: 4, node: 3 });
        round_trip(Msg::Gather);
        round_trip(Msg::FinalState {
            node: 2,
            parts: vec![(u32::MAX, Bytes::from(vec![9])), (0, Bytes::new())],
        });
        round_trip(Msg::Shutdown);
    }

    #[test]
    fn corrupt_counts_are_malformed_not_panics() {
        // A Peers frame whose count claims more entries than bytes.
        let mut b = Vec::new();
        b.put_u64_le(1 << 40);
        assert!(matches!(
            Msg::decode(3, Bytes::from(b)),
            Err(FrameError::Malformed(_))
        ));
        // Truncated Hello.
        let (kind, payload) = Msg::Hello {
            node: 0,
            port: 1,
            fingerprint: 2,
        }
        .encode();
        assert!(matches!(
            Msg::decode(kind, payload.slice(0..5)),
            Err(FrameError::Malformed(_))
        ));
        // An EpochDone whose event list carries an unknown tag.
        let (kind, payload) = Msg::EpochDone {
            epoch: 1,
            node: 0,
            compute_ns: 0,
            rotation_ns: 0,
            sent: vec![],
            events: vec![HbEvent::Recv { tp: 0 }],
        }
        .encode();
        let mut bad: Vec<u8> = payload.to_vec();
        let tag_at = bad.len() - 17;
        bad[tag_at] = 200; // no such HbEvent tag
        assert!(matches!(
            Msg::decode(kind, Bytes::from(bad)),
            Err(FrameError::Malformed(_))
        ));
        // Trailing garbage.
        let (kind, payload) = Msg::Gather.encode();
        let mut with_junk = payload.to_vec();
        with_junk.put_u8(7);
        assert!(matches!(
            Msg::decode(kind, Bytes::from(with_junk)),
            Err(FrameError::Malformed(_))
        ));
    }
}
