//! The simulated distributed executor.
//!
//! Executes a compiled plan over the real iteration items, invoking the
//! application's loop body for every iteration in schedule order (so
//! algorithm state evolves exactly as the distributed system would
//! compute it), while advancing per-worker virtual clocks and the
//! simulated network: compute cost per iteration, rotated-partition
//! transfers with pipelining (Fig. 8), served-array prefetch round trips
//! (§4.4), and synchronization. Every worker's execution list is run by
//! the same walker the thread pool and the TCP nodes run; only the
//! [`Transport`] differs.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::time::Instant;

use orion_sim::{
    ClusterSpec, CrashEvent, FaultPlan, FaultTimeline, SimNet, VirtualTime, WorkerClocks,
};
use orion_trace::{SpanCat, Tracer};

use crate::event::HbEvent;
use crate::prefetch::ServedModel;
use crate::schedule::SyncMode;
use crate::threaded::{ThreadedPlan, Transport, Walker};

/// Communication model of one loop under its chosen placements.
#[derive(Debug, Clone, Default)]
pub struct LoopCommModel {
    /// Total bytes of all rotated arrays; each time partition carries
    /// `rotated_bytes / n_time_partitions`.
    pub rotated_bytes: u64,
    /// Model of served (parameter-server style) access, if any array is
    /// served.
    pub served: Option<ServedModel>,
}

impl LoopCommModel {
    fn partition_bytes(&self, n_time: usize) -> u64 {
        self.rotated_bytes / n_time.max(1) as u64
    }
}

/// Statistics of one executed pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassStats {
    /// Virtual time the pass started (max clock before).
    pub start: VirtualTime,
    /// Virtual time the pass finished (after final synchronization).
    pub end: VirtualTime,
    /// Iterations executed.
    pub iterations: u64,
}

impl PassStats {
    /// Pass duration.
    pub fn elapsed(&self) -> VirtualTime {
        self.end.saturating_sub(self.start)
    }
}

/// The mutable simulation state threaded through loop executions: worker
/// clocks and the network.
#[derive(Debug, Clone)]
pub struct SimExecutor {
    /// Cluster being simulated.
    pub cluster: ClusterSpec,
    /// Per-worker virtual clocks.
    pub clocks: WorkerClocks,
    /// Simulated network with byte accounting.
    pub net: SimNet,
    /// Span recorder (disabled by default; see `orion-trace`). When
    /// disabled every record call is a single branch, preserving the
    /// hot-path invariants of DESIGN.md.
    pub trace: Tracer,
    passes_run: u64,
    /// Installed fault plan being consumed, if any.
    faults: Option<FaultTimeline>,
    /// Per-worker happens-before logs of the last pass.
    events: Vec<Vec<HbEvent>>,
}

/// A rotated time partition on the simulator's virtual links: the
/// worker that last ran it and the virtual instant it finished.
type Token = Option<(usize, VirtualTime)>;

/// The simulator's [`Transport`]: a FIFO of tokens per receiving worker.
/// Nothing is charged here: the receiver charges marshalling and the
/// transfer when its block takes the token, at its own turn in the step
/// order, because [`SimNet::send`] claims the NICs in call order.
struct VirtualLinks {
    /// The worker whose walker is stepping.
    me: usize,
    inbox: Vec<VecDeque<(usize, Token)>>,
}

impl Transport<Token> for VirtualLinks {
    type Abort = Infallible;

    fn recv(&mut self, tp: usize) -> Result<Token, Infallible> {
        let (got, token) = self.inbox[self.me]
            .pop_front()
            .expect("sent a step earlier");
        debug_assert_eq!(got, tp, "tokens arrive in schedule order");
        Ok(token)
    }

    fn send(&mut self, dst: usize, tp: usize, token: Token) -> Result<(), Infallible> {
        self.inbox[dst].push_back((tp, token));
        Ok(())
    }
}

impl SimExecutor {
    /// Fresh executor state for a cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        let clocks = WorkerClocks::new(cluster.n_workers());
        let net = SimNet::new(&cluster);
        SimExecutor {
            cluster,
            clocks,
            net,
            trace: Tracer::default(),
            passes_run: 0,
            faults: None,
            events: Vec::new(),
        }
    }

    /// Installs a fault plan: link faults go to the network, straggler
    /// slowdowns scale compute from the next pass on, and crashes become
    /// available through [`SimExecutor::take_crash_before`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.set_link_faults(plan.link_faults.clone());
        self.faults = Some(FaultTimeline::new(plan));
    }

    /// Compute slowdown of `worker` under the installed plan (1.0 when
    /// no plan or no matching straggler). Only declared compute time is
    /// scaled — marshalling and transfers are unaffected, so slowdowns
    /// never change byte accounting.
    pub fn slowdown_of(&self, worker: usize) -> f64 {
        self.faults.as_ref().map_or(1.0, |f| f.slowdown_of(worker))
    }

    /// Consumes the earliest scripted crash with instant `<= t`, if any.
    /// Each crash fires exactly once, so re-execution after recovery
    /// cannot re-kill the machine.
    pub fn take_crash_before(&mut self, t: VirtualTime) -> Option<CrashEvent> {
        self.faults.as_mut()?.take_crash_before(t)
    }

    /// Machine hosting `worker` (shorthand for span recording).
    fn machine(&self, worker: usize) -> usize {
        self.cluster.machine_of(worker)
    }

    /// Current global virtual time (the straggler's clock).
    pub fn now(&self) -> VirtualTime {
        self.clocks.max()
    }

    /// Executes one pass of a compiled loop.
    ///
    /// For every scheduled block, `cost(item_pos)` returns the declared
    /// compute nanoseconds of that iteration and `body(worker, item_pos)`
    /// performs the real computation. Items are addressed by their
    /// position in the slice the schedule was built from. Every worker's
    /// walker is stepped in step-major order, workers ascending inside
    /// a step (the order every schedule builder emits); the logs they
    /// record are [`SimExecutor::pass_events`].
    ///
    /// # Panics
    ///
    /// Panics if the plan references more workers than the cluster
    /// has.
    pub fn run_pass(
        &mut self,
        plan: &ThreadedPlan,
        comm: &LoopCommModel,
        cost: &mut dyn FnMut(usize) -> f64,
        body: &mut dyn FnMut(usize, usize),
    ) -> PassStats {
        let n = plan.n_workers();
        assert!(
            n <= self.cluster.n_workers(),
            "schedule wants {n} workers, cluster has {}",
            self.cluster.n_workers()
        );
        let start = self.clocks.barrier();
        let part_bytes = comm.partition_bytes(plan.n_time_partitions());
        let mut iterations = 0u64;

        // Per-pass served-fetch tracking: pass-cacheable arrays are
        // fetched by each worker at most once per pass.
        let mut served_fetched = vec![false; self.cluster.n_workers()];

        let wall = Instant::now();
        let mut walkers: Vec<Walker<Token>> = (0..n)
            .map(|w| {
                let queue = plan.initial_of(w).iter().map(|&tp| (tp, None));
                Walker::new(plan, w, queue.collect(), wall)
            })
            .collect();
        let inbox = vec![VecDeque::new(); n];
        let mut links = VirtualLinks { me: 0, inbox };
        let mut stepped = Vec::with_capacity(n);
        while let Some(step) = walkers.iter().filter_map(Walker::next_step).min() {
            stepped.clear();
            for (w, walker) in walkers.iter_mut().enumerate() {
                if walker.next_step() != Some(step) {
                    continue;
                }
                links.me = w;
                stepped.push(w);
                let Ok(()) = walker.step(&mut links, |b, mut token| {
                    // Wait for the rotated partition, if one arrived: the
                    // sender marshals it after finishing its block, then
                    // the network delivers it.
                    let arrived = token.as_mut().and_then(|t| t.take());
                    if let Some((from, done)) = arrived.filter(|_| part_bytes > 0) {
                        let sent_at = done + self.cluster.marshal_time(part_bytes);
                        let arrive = self.net.send(&self.cluster, from, w, part_bytes, sent_at);
                        let waiting_from = self.clocks.get(w);
                        self.clocks.wait_until(w, arrive);
                        self.span(SpanCat::Rotation, w, waiting_from, part_bytes, from as u64);
                    }

                    // Compute cost of the block, plus served-array access.
                    let block = plan.blocks().items(b);
                    let mut block_ns = 0.0f64;
                    for &pos in block {
                        block_ns += cost(pos as usize);
                    }
                    if let Some(served) = &comm.served {
                        let skip = served.cache_per_pass && served_fetched[w];
                        served_fetched[w] = true;
                        let t = self.clocks.get(w);
                        let (dt, req_bytes, resp_bytes) = if skip {
                            (VirtualTime::ZERO, 0, 0)
                        } else {
                            served.block_cost(
                                &self.cluster,
                                block.len() as u64,
                                block_ns,
                                self.passes_run == 0,
                            )
                        };
                        // Account server traffic on the wire: request up,
                        // response down (server machines are modeled as
                        // the cluster's machines in round-robin).
                        if req_bytes > 0 {
                            let server = served.server_worker(&self.cluster, w);
                            let arrive = self.net.send(&self.cluster, w, server, req_bytes, t);
                            let back = self.net.send(&self.cluster, server, w, resp_bytes, arrive);
                            self.clocks.wait_until(w, back);
                            // Server-side gather of the bulk response.
                            self.server_span(server, arrive, resp_bytes, w);
                        }
                        self.clocks.advance(w, dt);
                        let (bytes, items) = (req_bytes + resp_bytes, block.len() as u64);
                        self.span(SpanCat::Prefetch, w, t, bytes, items);
                    }

                    let compute_from = self.clocks.get(w);
                    self.clocks
                        .advance(w, self.cluster.compute_time(block_ns * self.slowdown_of(w)));
                    self.span(SpanCat::Compute, w, compute_from, 0, b as u64);
                    iterations += block.len() as u64;

                    // Execute the real computation, in schedule order.
                    for &pos in block {
                        body(w, pos as usize);
                    }
                    if let Some(token) = token {
                        *token = Some((w, self.clocks.get(w)));
                    }
                });
            }

            if plan.sync() == SyncMode::StepBarrier {
                // The steps run in order, so every worker's log closes
                // the step with the plan's barrier; the clocks charge it
                // among the step's scheduled workers only.
                walkers.iter_mut().for_each(|walker| walker.barrier(step));
                let clocks = stepped.iter().map(|&w| self.clocks.get(w));
                let m = clocks.fold(VirtualTime::ZERO, VirtualTime::max);
                for &w in &stepped {
                    let t = self.clocks.get(w);
                    self.clocks.wait_until(w, m);
                    self.span(SpanCat::Barrier, w, t, 0, step);
                }
            }
        }
        self.events = walkers.into_iter().map(|w| w.finish().events).collect();

        let end = self.record_pass_barrier();
        self.net.release_nics(end);
        self.passes_run += 1;
        PassStats {
            start,
            end,
            iterations,
        }
    }

    /// The per-worker happens-before logs the last pass recorded.
    pub fn pass_events(&self) -> &[Vec<HbEvent>] {
        &self.events
    }

    /// Models a data-parallel synchronization: every worker ships
    /// `up_bytes` of updates to servers and receives `down_bytes` of
    /// fresh parameters, then all workers barrier. Used by buffered
    /// (data-parallel) loops at flush points.
    pub fn sync_exchange(&mut self, up_bytes: u64, down_bytes: u64) -> VirtualTime {
        let n = self.clocks.n_workers();
        for w in 0..n {
            let flush_from = self.clocks.get(w);
            let t = flush_from + self.cluster.marshal_time(up_bytes);
            let server = (w + 1) % n; // spread server load round-robin
            let up = self.net.send(&self.cluster, w, server, up_bytes, t);
            let down = self.net.send(&self.cluster, server, w, down_bytes, up);
            self.clocks.wait_until(w, down);
            let bytes = up_bytes + down_bytes;
            self.span(SpanCat::Flush, w, flush_from, bytes, server as u64);
            // Server-side apply of the shipped updates.
            self.server_span(server, up, up_bytes, w);
        }
        let end = self.record_pass_barrier();
        self.net.release_nics(end);
        end
    }

    /// Barriers all workers, recording a `Barrier` span for each worker
    /// that had to wait for the straggler.
    fn record_pass_barrier(&mut self) -> VirtualTime {
        let end = self.clocks.max();
        for w in 0..self.clocks.n_workers() {
            let t = self.clocks.get(w);
            self.clocks.wait_until(w, end);
            self.span(SpanCat::Barrier, w, t, 0, u64::MAX); // pass-end marker
        }
        end
    }

    /// Records a `cat` span on worker `w`'s track, from `from` to its
    /// clock.
    fn span(&mut self, cat: SpanCat, w: usize, from: VirtualTime, bytes: u64, aux: u64) {
        let (machine, to) = (self.machine(w), self.clocks.get(w).as_nanos());
        self.trace
            .record(cat, machine, w, from.as_nanos(), to, bytes, aux);
    }

    /// Records `server`'s handling of `bytes` for `client` on its
    /// machine's server track: from `at`, for their marshalling time.
    fn server_span(&mut self, server: usize, at: VirtualTime, bytes: u64, client: usize) {
        let (machine, to) = (self.machine(server), at + self.cluster.marshal_time(bytes));
        let (from, to, aux) = (at.as_nanos(), to.as_nanos(), client as u64);
        self.trace
            .record(SpanCat::Server, machine, server, from, to, bytes, aux);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::build_schedule;
    use orion_analysis::Strategy;

    fn grid_indices(m: i64, n: i64) -> Vec<Vec<i64>> {
        (0..m)
            .flat_map(|i| (0..n).map(move |j| vec![i, j]))
            .collect()
    }

    /// The schedule compiled for the walker the executor steps.
    fn compiled(s: &crate::schedule::Schedule) -> ThreadedPlan {
        ThreadedPlan::compile(s)
    }

    fn cluster(machines: usize, wpm: usize) -> ClusterSpec {
        let mut c = ClusterSpec::new(machines, wpm);
        c.network.bandwidth_bps = 8e9;
        c.network.latency = VirtualTime::from_micros(10);
        c
    }

    #[test]
    fn serial_pass_time_is_sum_of_costs() {
        let idx = grid_indices(4, 4);
        let s = build_schedule(&Strategy::Serial, &idx, &[4, 4], 1);
        let mut ex = SimExecutor::new(ClusterSpec::serial());
        let mut executed = Vec::new();
        let stats = ex.run_pass(
            &compiled(&s),
            &LoopCommModel::default(),
            &mut |_pos| 100.0,
            &mut |w, pos| executed.push((w, pos)),
        );
        assert_eq!(stats.iterations, 16);
        assert_eq!(stats.elapsed(), VirtualTime::from_nanos(1600));
        assert_eq!(executed.len(), 16);
        assert!(executed.iter().all(|&(w, _)| w == 0));
    }

    #[test]
    fn one_d_parallelism_divides_time() {
        let idx = grid_indices(8, 8);
        let s1 = build_schedule(&Strategy::OneD { dim: 0 }, &idx, &[8, 8], 1);
        let s4 = build_schedule(&Strategy::OneD { dim: 0 }, &idx, &[8, 8], 4);
        let mut e1 = SimExecutor::new(cluster(1, 1));
        let mut e4 = SimExecutor::new(cluster(1, 4));
        let t1 = e1
            .run_pass(
                &compiled(&s1),
                &LoopCommModel::default(),
                &mut |_| 1000.0,
                &mut |_, _| {},
            )
            .elapsed();
        let t4 = e4
            .run_pass(
                &compiled(&s4),
                &LoopCommModel::default(),
                &mut |_| 1000.0,
                &mut |_, _| {},
            )
            .elapsed();
        assert_eq!(t1.as_nanos(), 64_000);
        assert_eq!(t4.as_nanos(), 16_000);
    }

    #[test]
    fn body_runs_every_item_once() {
        let idx = grid_indices(10, 10);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[10, 10], 4);
        let mut ex = SimExecutor::new(cluster(2, 2));
        let mut seen = vec![0u32; idx.len()];
        ex.run_pass(
            &compiled(&s),
            &LoopCommModel::default(),
            &mut |_| 10.0,
            &mut |_, pos| seen[pos] += 1,
        );
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn rotation_charges_network_bytes() {
        let idx = grid_indices(8, 8);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[8, 8], 4);
        let mut ex = SimExecutor::new(cluster(4, 1));
        let comm = LoopCommModel {
            rotated_bytes: 8_000,
            served: None,
        };
        ex.run_pass(&compiled(&s), &comm, &mut |_| 1000.0, &mut |_, _| {});
        // Steps 2..8 await transfers: 6 steps × 4 workers × 1000 bytes.
        assert_eq!(ex.net.total_bytes(), 24_000);
    }

    #[test]
    fn ordered_slower_than_unordered() {
        let idx = grid_indices(16, 16);
        let mk = |ordered| Strategy::TwoD {
            space: 0,
            time: 1,
            ordered,
        };
        let comm = LoopCommModel {
            rotated_bytes: 1_000_000,
            served: None,
        };
        let su = build_schedule(&mk(false), &idx, &[16, 16], 4);
        let so = build_schedule(&mk(true), &idx, &[16, 16], 4);
        let mut eu = SimExecutor::new(cluster(4, 1));
        let mut eo = SimExecutor::new(cluster(4, 1));
        let tu = eu
            .run_pass(&compiled(&su), &comm, &mut |_| 10_000.0, &mut |_, _| {})
            .elapsed();
        let to = eo
            .run_pass(&compiled(&so), &comm, &mut |_| 10_000.0, &mut |_, _| {})
            .elapsed();
        assert!(
            to.as_secs_f64() > tu.as_secs_f64() * 1.4,
            "ordered {to} should be well above unordered {tu}"
        );
    }

    #[test]
    fn sync_exchange_charges_both_directions() {
        let mut ex = SimExecutor::new(cluster(2, 1));
        ex.sync_exchange(1_000, 2_000);
        assert_eq!(ex.net.total_bytes(), 2 * 3_000);
        assert!(ex.now() > VirtualTime::ZERO);
    }

    #[test]
    fn served_per_block_charges_every_block() {
        let idx = grid_indices(8, 8);
        let s = build_schedule(&Strategy::OneD { dim: 0 }, &idx, &[8, 8], 4);
        let mut ex = SimExecutor::new(cluster(2, 2));
        let mut served = crate::prefetch::ServedModel::recorded(2.0);
        served.mode = crate::prefetch::PrefetchMode::Static;
        let comm = LoopCommModel {
            rotated_bytes: 0,
            served: Some(served),
        };
        ex.run_pass(&compiled(&s), &comm, &mut |_| 10.0, &mut |_, _| {});
        // 4 workers × (request + response) crossing machines.
        assert_eq!(ex.net.n_messages(), 8);
        let first_bytes = ex.net.total_bytes();
        ex.run_pass(&compiled(&s), &comm, &mut |_| 10.0, &mut |_, _| {});
        assert_eq!(ex.net.total_bytes(), first_bytes * 2, "fetched every pass");
    }

    #[test]
    fn served_cache_per_pass_fetches_once_per_worker_per_pass() {
        let idx = grid_indices(8, 8);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[8, 8], 4);
        assert!(s.n_steps() > 1, "multiple blocks per worker");
        let mut served = crate::prefetch::ServedModel::recorded(1.0);
        served.mode = crate::prefetch::PrefetchMode::Static;
        served.cache_per_pass = true;
        let comm = LoopCommModel {
            rotated_bytes: 0,
            served: Some(served),
        };
        let mut ex = SimExecutor::new(cluster(2, 2));
        ex.run_pass(&compiled(&s), &comm, &mut |_| 10.0, &mut |_, _| {});
        // One round trip per worker for the whole pass, not per block.
        assert_eq!(ex.net.n_messages(), 8);
    }

    #[test]
    fn step_barrier_synchronizes_scheduled_workers() {
        // A unimodular-style wavefront schedule uses StepBarrier.
        use orion_analysis::UniMat;
        let idx = grid_indices(6, 6);
        let strat = Strategy::TwoDUnimodular {
            transform: UniMat::skew(2, 0, 1, 1),
            space: 1,
            time: 0,
        };
        let s = build_schedule(&strat, &idx, &[6, 6], 3);
        assert_eq!(s.sync, crate::schedule::SyncMode::StepBarrier);
        let mut ex = SimExecutor::new(cluster(1, 3));
        let stats = ex.run_pass(
            &compiled(&s),
            &LoopCommModel::default(),
            &mut |_| 100.0,
            &mut |_, _| {},
        );
        assert_eq!(stats.iterations, 36);
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let idx = grid_indices(8, 8);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[8, 8], 4);
        let comm = LoopCommModel {
            rotated_bytes: 8_000,
            served: None,
        };
        let mut ex = SimExecutor::new(cluster(4, 1));
        ex.run_pass(&compiled(&s), &comm, &mut |_| 1000.0, &mut |_, _| {});
        ex.sync_exchange(100, 100);
        assert!(!ex.trace.is_enabled());
        assert!(ex.trace.spans().is_empty());
    }

    #[test]
    fn traced_pass_tiles_each_worker_timeline() {
        let idx = grid_indices(8, 8);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[8, 8], 4);
        let comm = LoopCommModel {
            rotated_bytes: 8_000,
            served: None,
        };
        let mut ex = SimExecutor::new(cluster(4, 1));
        ex.trace.enable(1024);
        let stats = ex.run_pass(&compiled(&s), &comm, &mut |_| 1000.0, &mut |_, _| {});
        let wall = stats.end.as_nanos() - stats.start.as_nanos();
        assert!(wall > 0);
        // Worker-track spans must exactly tile [start, end] per worker:
        // contiguous, non-overlapping, covering the full pass.
        for w in 0..4 {
            let mut spans: Vec<_> = ex
                .trace
                .spans()
                .iter()
                .filter(|sp| sp.worker == w && sp.cat.on_worker_track())
                .collect();
            spans.sort_by_key(|sp| sp.start_ns);
            let mut cursor = stats.start.as_nanos();
            let mut covered = 0u64;
            for sp in &spans {
                assert!(
                    sp.start_ns >= cursor,
                    "worker {w}: span overlaps previous at {}",
                    sp.start_ns
                );
                cursor = sp.end_ns;
                covered += sp.dur_ns();
            }
            assert_eq!(
                covered, wall,
                "worker {w}: spans cover {covered} of {wall} ns"
            );
        }
        // Rotation, compute and barrier all appear in this workload.
        let cats: std::collections::BTreeSet<_> =
            ex.trace.spans().iter().map(|sp| sp.cat.name()).collect();
        assert!(cats.contains("compute"));
        assert!(cats.contains("rotation"));
    }

    #[test]
    fn traced_sync_exchange_records_flush_and_server() {
        let mut ex = SimExecutor::new(cluster(2, 1));
        ex.trace.enable(64);
        ex.sync_exchange(1_000, 2_000);
        let cats: std::collections::BTreeSet<_> =
            ex.trace.spans().iter().map(|sp| sp.cat.name()).collect();
        assert!(cats.contains("flush"));
        assert!(cats.contains("server"));
        // Each worker flushed exactly once, carrying up+down bytes.
        let flushes: Vec<_> = ex
            .trace
            .spans()
            .iter()
            .filter(|sp| sp.cat == SpanCat::Flush)
            .collect();
        assert_eq!(flushes.len(), 2);
        assert!(flushes.iter().all(|sp| sp.bytes == 3_000));
    }

    #[test]
    fn tracing_does_not_change_results() {
        let idx = grid_indices(8, 8);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[8, 8], 4);
        let comm = LoopCommModel {
            rotated_bytes: 8_000,
            served: None,
        };
        let run = |traced: bool| {
            let mut ex = SimExecutor::new(cluster(4, 1));
            if traced {
                ex.trace.enable(1024);
            }
            let mut order = Vec::new();
            let stats = ex.run_pass(&compiled(&s), &comm, &mut |_| 1000.0, &mut |_, pos| {
                order.push(pos)
            });
            (stats, order, ex.net.total_bytes())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn straggler_slows_pass_but_not_results_or_bytes() {
        let idx = grid_indices(8, 8);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[8, 8], 4);
        let comm = LoopCommModel {
            rotated_bytes: 8_000,
            served: None,
        };
        let run = |plan: Option<FaultPlan>| {
            let mut ex = SimExecutor::new(cluster(4, 1));
            if let Some(p) = plan {
                ex.set_fault_plan(p);
            }
            let mut order = Vec::new();
            let stats = ex.run_pass(&compiled(&s), &comm, &mut |_| 1000.0, &mut |_, pos| {
                order.push(pos)
            });
            (stats.elapsed(), order, ex.net.total_bytes())
        };
        let (clean_t, clean_order, clean_bytes) = run(None);
        let (slow_t, slow_order, slow_bytes) = run(Some(FaultPlan::new(0).straggler(2, 3.0)));
        assert!(slow_t > clean_t, "straggler must stretch the pass");
        assert_eq!(clean_order, slow_order, "execution order unchanged");
        assert_eq!(clean_bytes, slow_bytes, "traffic unchanged");
    }

    #[test]
    fn passes_accumulate_time() {
        let idx = grid_indices(4, 4);
        let s = build_schedule(&Strategy::OneD { dim: 0 }, &idx, &[4, 4], 2);
        let mut ex = SimExecutor::new(cluster(1, 2));
        let p1 = ex.run_pass(
            &compiled(&s),
            &LoopCommModel::default(),
            &mut |_| 100.0,
            &mut |_, _| {},
        );
        let p2 = ex.run_pass(
            &compiled(&s),
            &LoopCommModel::default(),
            &mut |_| 100.0,
            &mut |_, _| {},
        );
        assert_eq!(p2.start, p1.end);
        assert!(p2.end > p1.end);
    }
}
