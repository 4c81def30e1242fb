//! Distributed shared memory for Orion: DistArrays and their supporting
//! machinery (paper §3).
//!
//! - [`DistArray`] — dense/sparse N-dimensional tensors over plain
//!   `Vec`s, with point and set queries, in-place updates and
//!   `randomize`; splittable into per-worker partitions that keep
//!   answering global indices. Creation is eager: the paper's deferred
//!   evaluation / operator fusion (§3.1) is not reproduced.
//! - [`RangePartition`] — uniform and histogram-balanced range
//!   partitioning of one dimension (§4.3); the space × time grid of a
//!   dependence-aware schedule is two of these.
//! - [`DistArrayBuffer`] — write-back buffers with user-defined atomic
//!   apply logic, the escape hatch that turns dependence violations into
//!   explicit data parallelism (§3.3).
//! - [`codec`] — the wire format used to account (and pay for)
//!   serialization of rotated partitions and parameter-server traffic.
//! - [`checkpoint`] — eager DistArray checkpointing to disk (§4.3
//!   fault tolerance).
//! - [`kernels`] — the five applications' inner loops, one body per
//!   order-preserving kernel, and a [`MathMode`] that picks the fold of
//!   the three reassociating reductions.
//!
//! The paper's accumulators (§3.4) live with the executors that fold
//! them: `orion_runtime::run_readout_pooled` hands each worker one
//! contiguous item range and folds the terms in item order, so a readout
//! does not depend on the worker count.
//!
//! # Invariants the wire layer relies on
//!
//! The socket runtime (`orion-net`) moves DistArray state between
//! processes as bytes produced here, so two properties are load-bearing:
//!
//! - **Bit-exact round trips** — [`checkpoint::to_bytes`] /
//!   [`checkpoint::from_bytes`] and [`codec::encode_updates`] /
//!   [`codec::decode_updates`] reproduce every element *bit for bit*
//!   (`f32`/`f64` travel as raw IEEE-754 bits, never re-parsed text), so
//!   a partition that crosses the wire is indistinguishable from one
//!   that stayed local.
//! - **Origin-preserving partitions** — a partition made by
//!   [`DistArray::split_along`] keeps its global origin and answers the
//!   same global indices after serialization, so remote executors index
//!   received partitions exactly as the local engines do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod buffer;
pub mod checkpoint;
pub mod codec;
mod element;
mod index;
pub mod kernels;
mod partition;
mod sparse;

pub use array::DistArray;
pub use buffer::DistArrayBuffer;
pub use element::{Element, Float};
pub use index::Shape;
pub use kernels::MathMode;
pub use partition::RangePartition;
