//! Process-per-node distributed execution over TCP.
//!
//! This crate ports the Fig.-8 pipelined rotation and the barrier /
//! recovery protocol from the virtual-time simulator onto real sockets.
//! A [`Coordinator`] process compiles the parallel plan, spawns `N` node
//! processes (localhost first), handshakes each one, and drives epochs;
//! every node runs the existing allocation-free hot loops from
//! `orion-runtime` and exchanges `DistArray` partitions, server-mode
//! updates, and prefetch responses with its peers over length-prefixed
//! frames (module [`frame`]) carrying the messages of module [`message`].
//!
//! # Design
//!
//! * **Transport** — one TCP stream per (node, coordinator) pair plus
//!   lazily-opened node→node streams for partition rotation. Frames are
//!   `[magic u32][kind u32][len u64][payload]`, little-endian, with the
//!   payloads produced by the `orion-dsm` codec/checkpoint wire formats
//!   (whose round-trip is bit-exact for `f32`/`f64` elements).
//! * **Determinism** — loop bodies never cross the wire. Children are
//!   re-executions of the current binary (`std::env::current_exe`) that
//!   regenerate data and model from the same seeds and recompile the
//!   same schedule; a structural [`plan_fingerprint`] is verified during
//!   the handshake so a divergent plan fails fast instead of corrupting
//!   state. Same seed, same plan ⇒ bit-identical model state across the
//!   sim, the threaded engine, and sockets.
//! * **Recovery** — the coordinator detects a dead node (closed stream
//!   or barrier timeout), respawns it, re-handshakes, republishes the
//!   peer table, and rolls every node back to the last checkpoint epoch;
//!   nodes restore epoch-tagged checkpoints written with the PR-3
//!   atomic checkpoint format.
//!
//! The virtual-time simulator remains the conformance oracle: the
//! 4-process cluster in `tests/distributed_conformance.rs` must produce
//! bit-identical model state to `Driver`'s simulated serialization.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod coordinator;
pub mod error;
pub mod frame;
pub mod message;
pub mod node;
pub mod plan;

pub use coordinator::{ClusterConfig, Coordinator, EpochStats, MsgRecord, NodeFault, WireLink};
pub use error::NetError;
pub use frame::{FrameError, HEADER_LEN, MAGIC, MAX_FRAME_LEN};
pub use message::{recv_msg, send_msg, LinkStat, Msg};
pub use node::{NodeConfig, NodeEndpoint, PartRecv};
pub use plan::plan_fingerprint;

/// Environment variable selecting the process role; children are spawned
/// with `ORION_NET_ROLE=node` and must dispatch into their node main
/// before any other work (see `orion_apps::distributed::maybe_node`).
pub const ENV_ROLE: &str = "ORION_NET_ROLE";
/// Environment variable carrying the coordinator's `host:port` address.
pub const ENV_COORD: &str = "ORION_NET_COORD";
/// Environment variable carrying this node's id in `0..n_nodes`.
pub const ENV_NODE_ID: &str = "ORION_NET_NODE_ID";
/// Environment variable carrying the cluster size.
pub const ENV_NODES: &str = "ORION_NET_NODES";
/// Environment variable carrying the number of training epochs.
pub const ENV_EPOCHS: &str = "ORION_NET_EPOCHS";
