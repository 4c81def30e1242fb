//! Correctness tooling for Orion's static parallelization: dependence
//! lints and one schedule sanitizer for every engine.
//!
//! Orion's core claim (EuroSys '19 §4) is that its dependence analysis
//! *safely* parallelizes serial training loops. This crate makes that
//! claim checkable from both sides:
//!
//! - **Lints** ([`lint`], [`lint_all`]): a pass over a
//!   [`orion_ir::LoopSpec`], its [`orion_ir::ArrayMeta`] table, and the
//!   analyzer's `ParallelPlan` that explains *why* a loop was (or was
//!   not) parallelized, as structured [`orion_ir::Diagnostic`] values
//!   with stable codes (`O001`–`O005`). Serialization caused by unknown
//!   subscripts (§3.2), conflicting writes fixable with DistArray
//!   Buffers (§3.3), dependence vectors that defeat 2D and unimodular
//!   schedules (§4.3), degenerate served-array prefetch (§4.4), and
//!   partition load skew are all reported rustc-style with actionable
//!   help. See `docs/CHECKING.md` for the catalogue.
//! - **Schedule sanitizer** ([`race`], [`hb`]): one [`Sanitizer`] per
//!   compiled loop, shared by every engine. It owns the loop's
//!   [`AccessOracle`], which evaluates the declared access pattern for
//!   concrete iterations (writes exempted through DistArray Buffers,
//!   §3.3, `analyzed_refs`, cannot race: the buffer defers their
//!   visibility), and one flat copy of the iteration indices.
//!   [`Sanitizer::check_schedule`] proves statically that no step of a
//!   `build_schedule` output co-schedules two dependent iterations
//!   (`O100`, rendered by [`Race::to_diagnostic`]); the driver runs it
//!   on the schedule each engine is handed, and the tuner on the plan
//!   it adopts. [`Sanitizer::check_pass`] checks the event logs the
//!   *real* engines record ([`orion_runtime::HbEvent`]): it rebuilds the
//!   happens-before order from actual partition handoffs, barriers, and
//!   messages, and reports conflicting-but-unordered accesses (`O110`),
//!   unmatched handoff edges (`O111`), and barrier anomalies (`O112`).
//!   Each distinct check runs once per sanitizer.
//! - **Access validator** ([`AccessValidator`]): checks a loop body's
//!   actual DistArray accesses, recorded once, against its declared
//!   `LoopSpec` through the oracle's subscript evaluator.
//! - **Protocol model checker** ([`proto`]): a small-scope explicit-
//!   state exploration of the orion-net coordinator/node protocol
//!   (handshake, epoch barriers, checkpoint, rollback/respawn) with a
//!   crash injected at every reachable state, checking the `O200`–
//!   `O203` invariants, plus a runtime monitor ([`proto::monitor_log`])
//!   that validates recorded message logs from real cluster runs
//!   against the same state machine (`O204`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hb;
mod lint;
pub mod proto;
pub mod race;

pub use hb::{plan_event_log, HbViolation};
pub use lint::{full_report, has_warnings, lint, lint_all, LintOptions};
pub use race::{AccessOracle, AccessValidator, AccessViolation, Race, Sanitizer};

use orion_ir::{ArrayMeta, ArrayRef};

/// Human-oriented label of one access: `` write `W`[i0, :] ``.
pub(crate) fn ref_label(metas: &[ArrayMeta], r: &ArrayRef) -> String {
    let name = metas
        .iter()
        .find(|m| m.id == r.array)
        .map(|m| m.name.clone())
        .unwrap_or_else(|| r.array.to_string());
    let subs: Vec<String> = r.subscripts.iter().map(|s| s.to_string()).collect();
    format!(
        "{} `{}`[{}]",
        if r.kind.is_write() { "write" } else { "read" },
        name,
        subs.join(", ")
    )
}
