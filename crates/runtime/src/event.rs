//! Lightweight happens-before event logs recorded by the real
//! execution engines.
//!
//! The schedule sanitizer's static check (`O100`) proves a schedule
//! race-free but says nothing about what the concurrent engines
//! actually did: a dropped channel edge or a stale rotation in the
//! thread pool or the TCP runtime would still produce some final state.
//! So the threaded engine and each distributed node record a per-actor
//! [`HbEvent`] log — block executions, partition sends/receives,
//! barrier crossings, server-side update applies — and the same
//! `orion-check` sanitizer rebuilds the vector-clock order from the
//! handoff edges and verifies every conflicting DistArray access pair
//! is ordered (`O110`–`O112`).
//!
//! Events are deliberately tiny (a tag and two integers) so recording
//! them is branch-free bookkeeping on the hot path and shipping them
//! over the wire (`orion-net` attaches node logs to `EpochDone`) costs
//! a few hundred bytes per epoch.

/// One entry of an actor's happens-before log, in program order.
///
/// An *actor* is a pool worker in the threaded engine or a node in the
/// distributed runtime; logs are `Vec<HbEvent>` per actor, and only
/// cross-actor edges need explicit events — same-actor ordering is
/// program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HbEvent {
    /// The actor executed schedule block `block` at plan step `step`.
    Exec {
        /// Global schedule step of the block.
        step: u64,
        /// Index into the compiled block table.
        block: u32,
    },
    /// The actor sent time partition `tp` to actor `dst` (a rotation
    /// edge; local re-enqueues are not recorded — program order covers
    /// them).
    Send {
        /// The rotated time partition.
        tp: u32,
        /// The receiving actor.
        dst: u32,
    },
    /// The actor received time partition `tp` from upstream.
    Recv {
        /// The rotated time partition.
        tp: u32,
    },
    /// The actor entered the end-of-epoch barrier.
    BarrierEnter {
        /// The barrier's epoch.
        epoch: u64,
    },
    /// The actor left the end-of-epoch barrier (all peers had entered).
    BarrierExit {
        /// The barrier's epoch.
        epoch: u64,
    },
    /// Buffered updates were applied at the server/coordinator on
    /// behalf of `node` (§3.3 DistArray Buffer flush).
    ServerApply {
        /// The node whose buffered updates were applied.
        node: u32,
    },
}

impl HbEvent {
    /// Flattens the event to a `(tag, a, b)` triple for wire codecs
    /// that do not want to know the variants ([`HbEvent::from_wire`]
    /// inverts it).
    pub fn to_wire(self) -> (u8, u64, u64) {
        match self {
            HbEvent::Exec { step, block } => (0, step, u64::from(block)),
            HbEvent::Send { tp, dst } => (1, u64::from(tp), u64::from(dst)),
            HbEvent::Recv { tp } => (2, u64::from(tp), 0),
            HbEvent::BarrierEnter { epoch } => (3, epoch, 0),
            HbEvent::BarrierExit { epoch } => (4, epoch, 0),
            HbEvent::ServerApply { node } => (5, u64::from(node), 0),
        }
    }

    /// Rebuilds an event from its wire triple; `None` for an unknown
    /// tag or an out-of-range field (a malformed frame, not a panic).
    pub fn from_wire(tag: u8, a: u64, b: u64) -> Option<HbEvent> {
        let narrow = |v: u64| u32::try_from(v).ok();
        Some(match tag {
            0 => HbEvent::Exec {
                step: a,
                block: narrow(b)?,
            },
            1 => HbEvent::Send {
                tp: narrow(a)?,
                dst: narrow(b)?,
            },
            2 => HbEvent::Recv { tp: narrow(a)? },
            3 => HbEvent::BarrierEnter { epoch: a },
            4 => HbEvent::BarrierExit { epoch: a },
            5 => HbEvent::ServerApply { node: narrow(a)? },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_triples_round_trip() {
        let all = [
            HbEvent::Exec { step: 7, block: 3 },
            HbEvent::Send { tp: 2, dst: 1 },
            HbEvent::Recv { tp: 2 },
            HbEvent::BarrierEnter { epoch: 4 },
            HbEvent::BarrierExit { epoch: 4 },
            HbEvent::ServerApply { node: 9 },
        ];
        for e in all {
            let (tag, a, b) = e.to_wire();
            assert_eq!(HbEvent::from_wire(tag, a, b), Some(e));
        }
        assert_eq!(HbEvent::from_wire(250, 0, 0), None);
        assert_eq!(HbEvent::from_wire(0, 0, u64::MAX), None);
    }
}
