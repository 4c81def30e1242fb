//! The happens-before race detector: vector-clock causality checking
//! over the engines' recorded event logs (`O110`–`O112`).
//!
//! The static `O100` check ([`Sanitizer::check_schedule`]) proves the
//! schedule race-free but cannot see what the concurrent engines
//! actually did: a dropped channel edge, a stale rotation, or a
//! reordered handoff in the thread pool or the TCP runtime still
//! produces *some* final state. This module closes that gap. Each real
//! engine records a per-actor [`HbEvent`] log (block executions,
//! partition sends/receives, barrier crossings);
//! [`Sanitizer::check_pass`] rebuilds the happens-before partial order
//! with vector clocks — program order within an actor, send→recv edges
//! matched FIFO per `(partition, destination)`, barrier-enter joined
//! into every barrier-exit of the same epoch — and then demands that
//! every *conflicting* DistArray access pair (per the sanitizer's one
//! [`crate::AccessOracle`]) is ordered by that relation.
//!
//! Three things can go wrong, each with a stable code:
//!
//! - `O110` — two conflicting block executions are causally concurrent
//!   (a lost-update / stale-rotation race);
//! - `O111` — the log cannot be linearized: a receive has no matching
//!   send (a dropped or reordered handoff);
//! - `O112` — an actor's barrier events are anomalous (epoch regressed,
//!   or a barrier exited before the same actor entered it).
//!
//! [`plan_event_log`] reconstructs the log a faithful execution of a
//! [`ThreadedPlan`] must produce — the conformance tests pin the real
//! engines against it, and mutating its output (deleting an edge) is
//! how the detector itself is tested.

use std::collections::{HashMap, VecDeque};

use orion_ir::{Code, Diagnostic, Severity};
use orion_runtime::{CompiledBlocks, HbEvent, ThreadedPlan};

use crate::race::{Race, Sanitizer};

/// The per-actor event log a faithful execution of `plan` records:
/// for each worker, a `Recv` per awaited rotation, an `Exec` per
/// scheduled block, and a `Send` per cross-worker forward edge, in
/// program order. Both real engines record their logs in
/// `orion_runtime::walk`, and a pool worker's log and a TCP node's epoch
/// log must equal this exactly (pinned by `tests/threaded_conformance.rs`
/// and `tests/distributed_conformance.rs`). It is written independently
/// of the walker on purpose: it is the reference they are compared to.
pub fn plan_event_log(plan: &ThreadedPlan) -> Vec<Vec<HbEvent>> {
    let n_time = plan.n_time_partitions();
    (0..plan.n_workers())
        .map(|w| {
            let mut log = Vec::new();
            let mut forwards = plan.forwards_of(w).iter();
            let mut next_forward = forwards.next();
            for e in plan.execs_of(w) {
                if e.awaited.is_some() {
                    log.push(HbEvent::Recv {
                        tp: (e.block % n_time) as u32,
                    });
                }
                log.push(HbEvent::Exec {
                    step: e.step,
                    block: e.block as u32,
                });
                if let Some(&(step, dst)) = next_forward {
                    if step == e.step {
                        next_forward = forwards.next();
                        if dst != w {
                            log.push(HbEvent::Send {
                                tp: (e.block % n_time) as u32,
                                dst: dst as u32,
                            });
                        }
                    }
                }
            }
            log
        })
        .collect()
}

/// A causality violation found in a recorded event log.
#[derive(Debug, Clone)]
pub enum HbViolation {
    /// `O110`: two conflicting block executions are causally
    /// concurrent — no chain of handoff/barrier/message edges orders
    /// them.
    Race {
        /// Which execution the log came from (e.g. `threaded pass`,
        /// `epoch 3`).
        context: String,
        /// Schedule step of the first execution.
        step_a: u64,
        /// Block of the first execution.
        block_a: u32,
        /// Schedule step of the second execution.
        step_b: u64,
        /// Block of the second execution.
        block_b: u32,
        /// The conflicting access pair (actors in the worker fields,
        /// the loop's name in `race.loop_name`).
        race: Race,
    },
    /// `O111`: the log cannot be linearized — an actor blocks forever
    /// on an edge with no matching counterpart.
    UnmatchedEdge {
        /// Name of the loop whose execution produced the log.
        loop_name: String,
        /// Which execution the log came from.
        context: String,
        /// The blocked actor.
        actor: usize,
        /// Position of the blocked event in the actor's log.
        position: usize,
        /// The event that can never be enabled.
        event: HbEvent,
    },
    /// `O112`: an actor's barrier events are internally inconsistent.
    BarrierAnomaly {
        /// Name of the loop whose execution produced the log.
        loop_name: String,
        /// Which execution the log came from.
        context: String,
        /// The offending actor.
        actor: usize,
        /// What went wrong.
        detail: String,
    },
}

impl HbViolation {
    /// Renders the violation as its stable-coded error diagnostic.
    pub fn to_diagnostic(&self) -> Diagnostic {
        match self {
            HbViolation::Race {
                context,
                step_a,
                block_a,
                step_b,
                block_b,
                race,
            } => Diagnostic::new(
                Code::HbRace,
                Severity::Error,
                format!("loop `{}`, {context}", race.loop_name),
                format!(
                    "conflicting accesses are not ordered by happens-before in loop `{}`",
                    race.loop_name
                ),
            )
            .with_note(format!(
                "actor {} runs block {block_a} (step {step_a}), iteration {:?}: {}",
                race.worker_a, race.index_a, race.access_a,
            ))
            .with_note(format!(
                "actor {} runs block {block_b} (step {step_b}), iteration {:?}: {}",
                race.worker_b, race.index_b, race.access_b,
            ))
            .with_note(
                "no chain of partition handoffs, barriers, or messages orders the two blocks",
            )
            .with_help(
                "a rotation edge is missing or was not executed — every conflicting \
                 access pair must be connected by handoff/barrier/message edges",
            ),
            HbViolation::UnmatchedEdge {
                loop_name,
                context,
                actor,
                position,
                event,
            } => Diagnostic::new(
                Code::HbUnmatchedEdge,
                Severity::Error,
                format!("loop `{loop_name}`, {context}"),
                "event log has an unmatched happens-before edge",
            )
            .with_note(format!(
                "actor {actor} blocks at log position {position} on {event:?}: \
                 no matching counterpart can ever enable it"
            ))
            .with_help(
                "the execution dropped or reordered a handoff — the recorded log \
                 cannot be linearized into any happens-before order",
            ),
            HbViolation::BarrierAnomaly {
                loop_name,
                context,
                actor,
                detail,
            } => Diagnostic::new(
                Code::HbBarrierAnomaly,
                Severity::Error,
                format!("loop `{loop_name}`, {context}"),
                "barrier events are anomalous",
            )
            .with_note(format!("actor {actor}: {detail}"))
            .with_help(
                "barrier epochs must be entered in increasing order and entered \
                 before they are exited",
            ),
        }
    }
}

impl core::fmt::Display for HbViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.to_diagnostic().render())
    }
}

impl std::error::Error for HbViolation {}

/// `a ≤ b` componentwise (the vector-clock order).
fn vc_leq(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// `dst := max(dst, src)` componentwise (the vector-clock join).
fn vc_join(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

impl Sanitizer {
    /// Checks one execution's per-actor logs against `blocks`, the
    /// block table of the schedule that ran. `context` names the
    /// execution in diagnostics (e.g. `"threaded pass 2"`).
    ///
    /// # Errors
    ///
    /// Returns the first [`HbViolation`] found: `O112` for malformed
    /// barrier sequences, `O111` when the log cannot be linearized,
    /// `O110` when two conflicting executions are causally concurrent.
    pub fn check_pass(
        &self,
        blocks: &CompiledBlocks,
        logs: &[Vec<HbEvent>],
        context: &str,
    ) -> Result<(), Box<HbViolation>> {
        self.once((1u8, logs), blocks, || {
            self.check_barriers(logs, context)?;
            let execs = self.build_clocks(logs, context)?;
            self.check_races(blocks, &execs, context)
        })
    }

    /// Per-actor barrier sanity (`O112`): enter epochs strictly
    /// increase, and no barrier is exited before the same actor's own
    /// enter of that epoch.
    fn check_barriers(&self, logs: &[Vec<HbEvent>], context: &str) -> Result<(), Box<HbViolation>> {
        for (actor, log) in logs.iter().enumerate() {
            let anomaly = |detail: String| {
                Box::new(HbViolation::BarrierAnomaly {
                    loop_name: self.loop_name.clone(),
                    context: context.to_string(),
                    actor,
                    detail,
                })
            };
            let mut last_enter: Option<u64> = None;
            let mut entered: Vec<u64> = Vec::new();
            for ev in log {
                match *ev {
                    HbEvent::BarrierEnter { epoch } => {
                        if let Some(prev) = last_enter {
                            if epoch <= prev {
                                return Err(anomaly(format!(
                                    "barrier epoch regressed: entered {epoch} after {prev}"
                                )));
                            }
                        }
                        last_enter = Some(epoch);
                        entered.push(epoch);
                    }
                    HbEvent::BarrierExit { epoch } if !entered.contains(&epoch) => {
                        return Err(anomaly(format!(
                            "barrier {epoch} exited before this actor entered it"
                        )));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Replays the logs through the worklist, assigning a vector clock
    /// to every `Exec`. A receive is enabled only once a matching send
    /// was processed (FIFO per `(tp, dst)`); a barrier exit only once
    /// every enter of that epoch was. A stuck worklist is `O111`.
    fn build_clocks(
        &self,
        logs: &[Vec<HbEvent>],
        context: &str,
    ) -> Result<Vec<ExecStamp>, Box<HbViolation>> {
        let n = logs.len();
        let mut expected_enters: HashMap<u64, usize> = HashMap::new();
        for log in logs {
            for ev in log {
                if let HbEvent::BarrierEnter { epoch } = ev {
                    *expected_enters.entry(*epoch).or_default() += 1;
                }
            }
        }
        let mut pos = vec![0usize; n];
        let mut clocks: Vec<Vec<u64>> = vec![vec![0; n]; n];
        let mut fifo: HashMap<(u32, u32), VecDeque<Vec<u64>>> = HashMap::new();
        // Per barrier epoch: enters processed so far and their join.
        let mut entered: HashMap<u64, (usize, Vec<u64>)> = HashMap::new();
        let mut execs: Vec<ExecStamp> = Vec::new();
        loop {
            let mut progressed = false;
            for a in 0..n {
                while pos[a] < logs[a].len() {
                    let ev = logs[a][pos[a]];
                    let enabled = match ev {
                        HbEvent::Recv { tp } => {
                            fifo.get(&(tp, a as u32)).is_some_and(|q| !q.is_empty())
                        }
                        HbEvent::BarrierExit { epoch } => {
                            let want = expected_enters.get(&epoch).copied().unwrap_or(0);
                            entered.get(&epoch).map_or(want == 0, |(c, _)| *c == want)
                        }
                        _ => true,
                    };
                    if !enabled {
                        break;
                    }
                    clocks[a][a] += 1;
                    match ev {
                        HbEvent::Recv { tp } => {
                            let vc = fifo
                                .get_mut(&(tp, a as u32))
                                .and_then(VecDeque::pop_front)
                                .expect("enabled recv has a queued send");
                            vc_join(&mut clocks[a], &vc);
                        }
                        HbEvent::Send { tp, dst } => {
                            fifo.entry((tp, dst))
                                .or_default()
                                .push_back(clocks[a].clone());
                        }
                        HbEvent::BarrierEnter { epoch } => {
                            let slot = entered.entry(epoch).or_insert_with(|| (0, vec![0; n]));
                            slot.0 += 1;
                            let snapshot = clocks[a].clone();
                            vc_join(&mut slot.1, &snapshot);
                        }
                        HbEvent::BarrierExit { epoch } => {
                            if let Some((_, vc)) = entered.get(&epoch) {
                                let vc = vc.clone();
                                vc_join(&mut clocks[a], &vc);
                            }
                        }
                        HbEvent::Exec { step, block } => execs.push(ExecStamp {
                            actor: a,
                            step,
                            block,
                            clock: clocks[a].clone(),
                        }),
                        // Server-side buffer flushes are synchronized
                        // by the epoch barrier; no extra edge here.
                        HbEvent::ServerApply { .. } => {}
                    }
                    pos[a] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        if let Some(a) = (0..n).find(|&a| pos[a] < logs[a].len()) {
            return Err(Box::new(HbViolation::UnmatchedEdge {
                loop_name: self.loop_name.clone(),
                context: context.to_string(),
                actor: a,
                position: pos[a],
                event: logs[a][pos[a]],
            }));
        }
        Ok(execs)
    }

    /// Every cross-actor pair of executions whose clocks are unordered
    /// is causally concurrent: run its blocks' item cross-product
    /// through the access oracle (`O110` on the first conflict).
    fn check_races(
        &self,
        blocks: &CompiledBlocks,
        execs: &[ExecStamp],
        context: &str,
    ) -> Result<(), Box<HbViolation>> {
        for (i, ea) in execs.iter().enumerate() {
            for eb in &execs[i + 1..] {
                if ea.actor == eb.actor
                    || vc_leq(&ea.clock, &eb.clock)
                    || vc_leq(&eb.clock, &ea.clock)
                {
                    continue;
                }
                if let Some(race) = self.check_block_pair(
                    blocks,
                    (ea.step, ea.actor, ea.block as usize),
                    (eb.actor, eb.block as usize),
                ) {
                    return Err(Box::new(HbViolation::Race {
                        context: context.to_string(),
                        step_a: ea.step,
                        block_a: ea.block,
                        step_b: eb.step,
                        block_b: eb.block,
                        race,
                    }));
                }
            }
        }
        Ok(())
    }
}

/// One executed block with its happens-before timestamp.
struct ExecStamp {
    actor: usize,
    step: u64,
    block: u32,
    clock: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_analysis::Strategy;
    use orion_ir::{ArrayMeta, DistArrayId, LoopSpec, Subscript};
    use orion_runtime::{build_schedule, Schedule};

    fn meta(id: DistArrayId, name: &str, dims: Vec<u64>) -> ArrayMeta {
        ArrayMeta::dense(id, name, dims, 4)
    }

    /// MF-shaped grid loop with a dense iteration space, so every pair
    /// of blocks sharing a time partition genuinely conflicts.
    fn mf_grid(n: i64, workers: usize) -> (LoopSpec, Vec<ArrayMeta>, Vec<Vec<i64>>, Schedule) {
        let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
        let spec = LoopSpec::builder("mf", z, vec![n as u64, n as u64])
            .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let metas = vec![
            meta(z, "Z", vec![n as u64, n as u64]),
            meta(w, "W", vec![n as u64, 4]),
            meta(h, "H", vec![n as u64, 4]),
        ];
        let indices: Vec<Vec<i64>> = (0..n)
            .flat_map(|i| (0..n).map(move |j| vec![i, j]))
            .collect();
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let schedule = build_schedule(&strat, &indices, &[n as u64, n as u64], workers);
        (spec, metas, indices, schedule)
    }

    /// Deletes the `k`-th cross-worker send and its matching receive.
    fn delete_edge(logs: &mut [Vec<HbEvent>], k: usize) {
        let mut seen = 0;
        for a in 0..logs.len() {
            for p in 0..logs[a].len() {
                if let HbEvent::Send { tp, dst } = logs[a][p] {
                    if seen == k {
                        logs[a].remove(p);
                        let d = dst as usize;
                        let rp = logs[d]
                            .iter()
                            .position(|e| *e == HbEvent::Recv { tp })
                            .expect("every send has a matching recv");
                        logs[d].remove(rp);
                        return;
                    }
                    seen += 1;
                }
            }
        }
        panic!("log has fewer than {k} sends");
    }

    #[test]
    fn faithful_plan_logs_are_clean() {
        let (spec, metas, indices, schedule) = mf_grid(8, 4);
        let plan = ThreadedPlan::compile(&schedule);
        let logs = plan_event_log(&plan);
        let checker = Sanitizer::new(&spec, &metas, &indices);
        checker
            .check_pass(plan.blocks(), &logs, "threaded pass")
            .expect("faithful rotation logs carry no race");
        // Second identical pass hits the verified cache.
        checker
            .check_pass(plan.blocks(), &logs, "threaded pass")
            .unwrap();
    }

    #[test]
    fn deleting_a_rotation_edge_is_an_o110_race() {
        let (spec, metas, indices, schedule) = mf_grid(8, 4);
        let plan = ThreadedPlan::compile(&schedule);
        let mut logs = plan_event_log(&plan);
        delete_edge(&mut logs, 1);
        let checker = Sanitizer::new(&spec, &metas, &indices);
        let v = checker
            .check_pass(plan.blocks(), &logs, "threaded pass")
            .expect_err("a severed handoff leaves conflicting blocks unordered");
        let text = v.to_diagnostic().render();
        assert!(text.starts_with("error[O110]:"), "{text}");
        assert!(text.contains("`H`"), "{text}");
        assert!(text.contains("handoffs"), "{text}");
    }

    #[test]
    fn deleting_only_the_send_is_an_o111_unmatched_edge() {
        let (spec, metas, indices, schedule) = mf_grid(8, 4);
        let plan = ThreadedPlan::compile(&schedule);
        let mut logs = plan_event_log(&plan);
        let send_at = logs
            .iter()
            .enumerate()
            .find_map(|(a, log)| {
                log.iter()
                    .position(|e| matches!(e, HbEvent::Send { .. }))
                    .map(|p| (a, p))
            })
            .expect("grid plans rotate");
        logs[send_at.0].remove(send_at.1);
        let checker = Sanitizer::new(&spec, &metas, &indices);
        let v = checker
            .check_pass(plan.blocks(), &logs, "threaded pass")
            .expect_err("an orphaned recv can never be enabled");
        let text = v.to_diagnostic().render();
        assert!(text.starts_with("error[O111]:"), "{text}");
        assert!(text.contains("Recv"), "{text}");
    }

    /// Two actors whose blocks conflict (all iterations write H row 0),
    /// with and without a barrier ordering them.
    fn conflicting_pair() -> (LoopSpec, Vec<ArrayMeta>, Vec<Vec<i64>>, Schedule) {
        let (z, h) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("conflict", z, vec![4, 1])
            .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let metas = vec![meta(z, "Z", vec![4, 1]), meta(h, "H", vec![1, 4])];
        let indices: Vec<Vec<i64>> = (0..4).map(|i| vec![i, 0]).collect();
        let schedule = build_schedule(&Strategy::OneD { dim: 0 }, &indices, &[4, 1], 2);
        (spec, metas, indices, schedule)
    }

    #[test]
    fn barrier_edges_order_otherwise_racy_execs() {
        let (spec, metas, indices, schedule) = conflicting_pair();
        let plan = ThreadedPlan::compile(&schedule);
        let base = plan_event_log(&plan);
        let checker = Sanitizer::new(&spec, &metas, &indices);

        // Without any edges the two workers race on H row 0.
        let v = checker
            .check_pass(plan.blocks(), &base, "bare")
            .expect_err("concurrent writers of one row must race");
        assert!(matches!(*v, HbViolation::Race { .. }), "{v}");

        // A barrier between them restores the order.
        let mut logs = base.clone();
        logs[0].push(HbEvent::BarrierEnter { epoch: 0 });
        logs[1].insert(0, HbEvent::BarrierEnter { epoch: 0 });
        let exec1 = logs[1].remove(1);
        logs[1].push(HbEvent::BarrierExit { epoch: 0 });
        logs[1].push(exec1);
        checker
            .check_pass(plan.blocks(), &logs, "barriered")
            .expect("barrier-separated execs are ordered");
    }

    #[test]
    fn barrier_anomalies_are_o112() {
        let (spec, metas, indices, schedule) = conflicting_pair();
        let plan = ThreadedPlan::compile(&schedule);
        let checker = Sanitizer::new(&spec, &metas, &indices);

        // Exit before the same actor's enter.
        let logs = vec![
            vec![
                HbEvent::BarrierExit { epoch: 0 },
                HbEvent::BarrierEnter { epoch: 0 },
            ],
            vec![],
        ];
        let v = checker
            .check_pass(plan.blocks(), &logs, "sim")
            .expect_err("exit-before-enter is anomalous");
        assert!(v.to_diagnostic().render().starts_with("error[O112]:"));

        // Regressing enter epochs.
        let logs = vec![
            vec![
                HbEvent::BarrierEnter { epoch: 2 },
                HbEvent::BarrierEnter { epoch: 1 },
            ],
            vec![],
        ];
        let v = checker
            .check_pass(plan.blocks(), &logs, "sim")
            .expect_err("epoch regression is anomalous");
        let text = v.to_diagnostic().render();
        assert!(text.starts_with("error[O112]:"), "{text}");
        assert!(text.contains("regressed"), "{text}");
    }

    #[test]
    fn one_d_logs_without_conflicts_are_clean() {
        // GBT-shaped: each worker writes its own histogram rows.
        let (z, hist) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("gbt", z, vec![8])
            .write(hist, vec![Subscript::loop_index(0), Subscript::Full])
            .build()
            .unwrap();
        let metas = vec![meta(z, "Z", vec![8]), meta(hist, "hist", vec![8, 4])];
        let indices: Vec<Vec<i64>> = (0..8).map(|i| vec![i]).collect();
        let schedule = build_schedule(&Strategy::OneD { dim: 0 }, &indices, &[8], 4);
        let plan = ThreadedPlan::compile(&schedule);
        let logs = plan_event_log(&plan);
        let checker = Sanitizer::new(&spec, &metas, &indices);
        checker
            .check_pass(plan.blocks(), &logs, "one-d pass")
            .expect("disjoint writers never race");
    }
}
