//! Real multi-core execution of compiled schedules on a persistent
//! [`WorkerPool`].
//!
//! The simulated executor proves *what* the distributed computation
//! computes and models *when*; this engine runs the same schedules with
//! true concurrency: pool workers play the role of Orion executors, the
//! space partition of each parameter array is owned by its worker, and
//! rotated time partitions *move* between threads through channels —
//! zero-copy, exactly like DistArray partitions travel between Orion
//! executors (paper Fig. 8).
//!
//! Pipelined rotation: a worker sends the time partition it just
//! finished with downstream *before* starting its next block, and the
//! unbounded parcel channel double-buffers the partition at the
//! receiver while it is still computing. With the schedule's pipeline
//! depth of [`crate::schedule::PIPELINE_DEPTH`], every worker already
//! holds its next partition locally when it finishes a block, so
//! rotation overlaps compute instead of serializing it.
//!
//! One interpreter runs a compiled plan: a walker per worker steps
//! through its execution list one exec at a time, and [`walk`] is the
//! loop over those steps. Time partitions move through a [`Transport`]:
//! a channel per pool worker, a checkpoint frame per peer socket on a
//! TCP node (`orion-apps::distributed`), or a virtual-time token the
//! simulated executor charges on the modelled network. Nothing else
//! runs a plan's execs or forwards a partition.
//!
//! Because every schedule produced by the analyzer is serializable, a
//! threaded pass produces *bit-identical* results to the simulated
//! single-threaded pass (asserted by `tests/run_matrix.rs` and the
//! `tests/threaded_conformance.rs` proptests).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orion_dsm::{DistArray, Element};

use crate::event::HbEvent;
use crate::pool::WorkerPool;
use crate::schedule::{CompiledBlocks, Exec, Schedule, SyncMode};

/// How long a blocked parcel/result wait sleeps between checks of the
/// pool's poison flag. Long enough to be free on the happy path, short
/// enough that a peer panic surfaces promptly.
const POISON_POLL: Duration = Duration::from_millis(50);

/// A rotated time partition in flight between workers.
type Parcel<P> = (usize, P);

/// What a worker executes (compute) or waits on (rotation) during a
/// threaded pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadPhase {
    /// Running a block's iterations.
    Compute,
    /// Blocked receiving a rotated partition from upstream.
    Rotation,
}

/// One timed phase of a worker's pass, in wall-clock nanoseconds
/// relative to the pass start (shared across workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSpan {
    /// What the worker was doing.
    pub phase: ThreadPhase,
    /// Offset of the phase start from the pass start.
    pub start_ns: u64,
    /// Offset of the phase end from the pass start.
    pub end_ns: u64,
}

/// A schedule compiled for the walker: per-worker execution lists,
/// the rotation topology (initial owners and forwarding edges), the
/// synchronization mode and the shared block table. Built once per loop
/// and reused across passes and epochs behind an [`Arc`], by every
/// engine.
#[derive(Debug, Clone)]
pub struct ThreadedPlan {
    n_workers: usize,
    n_time: usize,
    /// Whether time partitions rotate; a plan that rotates nothing
    /// walks with no parcel.
    rotated: bool,
    sync: SyncMode,
    blocks: Arc<CompiledBlocks>,
    /// Execution list of each worker, in step order.
    per_worker: Vec<Vec<Exec>>,
    /// `forward[w]` = `(step, dst)` pairs, sorted by step: after
    /// finishing its step-`step` block, worker `w` sends the partition
    /// it used to worker `dst`.
    forward: Vec<Vec<(u64, usize)>>,
    /// Time partitions each worker holds at pass start, in use order.
    initial: Vec<Vec<usize>>,
}

impl ThreadedPlan {
    /// Compiles `schedule` into the form the threaded engine executes.
    /// Rotation edges whose source and destination coincide (single
    /// worker owning the whole ring) become local re-enqueues: the
    /// partition never leaves the thread, so the exec does not await a
    /// channel.
    pub fn compile(schedule: &Schedule) -> Self {
        let n_workers = schedule.n_workers;
        let n_time = schedule.n_time_partitions;
        let rotated = schedule.time_partition.is_some();
        let mut per_worker: Vec<Vec<Exec>> = vec![Vec::new(); n_workers];
        let mut forward: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n_workers];
        let mut initial: Vec<Vec<usize>> = vec![Vec::new(); n_workers];
        for step in &schedule.steps {
            for e in step {
                let mut exec = *e;
                if rotated {
                    match e.awaited {
                        None => initial[e.worker].push(e.block % n_time),
                        Some(a) => {
                            if a.from_worker == e.worker {
                                exec.awaited = None;
                            }
                            forward[a.from_worker].push((a.sent_after_step, e.worker));
                        }
                    }
                }
                per_worker[e.worker].push(exec);
            }
        }
        for f in &mut forward {
            f.sort_unstable();
        }
        ThreadedPlan {
            n_workers,
            n_time,
            rotated,
            sync: schedule.sync,
            blocks: Arc::clone(&schedule.blocks),
            per_worker,
            forward,
            initial,
        }
    }

    /// Workers the plan schedules (and the pool size it needs).
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Time partitions rotated by the plan.
    pub fn n_time_partitions(&self) -> usize {
        self.n_time
    }

    /// How the scheduled workers synchronize between steps.
    pub fn sync(&self) -> SyncMode {
        self.sync
    }

    /// Item positions each worker touches, in execution order. Lets
    /// callers shard per-item state (e.g. LDA topic assignments) into
    /// per-worker scratch that the pass body consumes sequentially.
    pub fn worker_positions(&self) -> Vec<Vec<u32>> {
        self.per_worker
            .iter()
            .map(|execs| {
                execs
                    .iter()
                    .flat_map(|e| self.blocks.items(e.block).iter().copied())
                    .collect()
            })
            .collect()
    }

    /// One worker's execution list, in step order. Every engine runs it
    /// through a walker.
    pub fn execs_of(&self, worker: usize) -> &[Exec] {
        &self.per_worker[worker]
    }

    /// How many blocks `worker` executes per pass.
    pub fn exec_count(&self, worker: usize) -> usize {
        self.per_worker[worker].len()
    }

    /// One worker's rotation edges, `(step, dst)` sorted by step: after
    /// finishing its step-`step` block the worker forwards the partition
    /// it just used to `dst`.
    pub fn forwards_of(&self, worker: usize) -> &[(u64, usize)] {
        &self.forward[worker]
    }

    /// Time partitions `worker` holds at pass start, in use order.
    pub fn initial_of(&self, worker: usize) -> &[usize] {
        &self.initial[worker]
    }

    /// The compiled block table shared by all workers: the schedule's
    /// own, not a copy.
    pub fn blocks(&self) -> &CompiledBlocks {
        &self.blocks
    }
}

/// Everything a grid pass hands back: space partitions (worker order),
/// time partitions (partition order), per-worker scratch (worker
/// order), per-worker timed phases, and the pass's wall-clock time.
#[derive(Debug)]
pub struct GridPassOutput<A: Element, B: Element, S> {
    /// Space partitions after the pass, one per worker.
    pub space: Vec<DistArray<A>>,
    /// Rotated time partitions after the pass, in partition order.
    pub time: Vec<DistArray<B>>,
    /// Per-worker scratch state after the pass.
    pub scratch: Vec<S>,
    /// Timed compute/rotation phases per worker.
    pub spans: Vec<Vec<ThreadSpan>>,
    /// Per-worker happens-before event logs (program order), for the
    /// `O11x` causality checker.
    pub events: Vec<Vec<HbEvent>>,
    /// Wall-clock duration of the pass in nanoseconds.
    pub wall_ns: u64,
}

/// Everything a 1-D pass hands back: per-worker scratch (which carries
/// the space partitions for partition-owning passes), spans, and
/// wall-clock time.
#[derive(Debug)]
pub struct OneDPassOutput<S> {
    /// Per-worker scratch state after the pass.
    pub scratch: Vec<S>,
    /// Timed compute phases per worker.
    pub spans: Vec<Vec<ThreadSpan>>,
    /// Per-worker happens-before event logs (`Exec` only — 1-D passes
    /// have no rotation edges), for the `O11x` causality checker.
    pub events: Vec<Vec<HbEvent>>,
    /// Wall-clock duration of the pass in nanoseconds.
    pub wall_ns: u64,
}

/// How a walker moves time partitions between workers: a channel
/// per pool worker, a checkpoint frame per peer socket on a TCP node, or
/// a stamped token on the simulator's virtual links. Either method
/// failing abandons the walk — the pass is being torn down (a peer died,
/// a control message preempted the epoch) and `Abort` says why.
pub trait Transport<P> {
    /// Why a walk was abandoned.
    type Abort;

    /// Blocks until time partition `tp` arrives from upstream.
    fn recv(&mut self, tp: usize) -> Result<P, Self::Abort>;

    /// Hands time partition `tp` to worker `dst` (never the caller).
    fn send(&mut self, dst: usize, tp: usize, part: P) -> Result<(), Self::Abort>;
}

/// What one worker's [`walk`] leaves behind.
#[derive(Debug)]
pub struct Walk<P> {
    /// Time partitions the worker holds at the end of its list: those
    /// no edge forwards, then any still queued.
    pub held: Vec<(usize, P)>,
    /// Timed compute/rotation phases, relative to the walk's `start`.
    pub spans: Vec<ThreadSpan>,
    /// Happens-before log in program order: a `Recv` per awaited exec,
    /// an `Exec` per block, a `Send` per cross-worker forward and
    /// nothing for a local re-enqueue (plus, in the simulator, a barrier
    /// pair closing every step of a `StepBarrier` plan) — the log
    /// `orion_check::plan_event_log` reconstructs from the plan.
    pub events: Vec<HbEvent>,
}

/// Worker `w` part-way through its execution list — the rotation of
/// paper Fig. 8, one exec per [`Walker::step`]. [`walk`] steps one to
/// the end; the simulated executor steps every worker's in step-major
/// order.
pub(crate) struct Walker<'a, P> {
    plan: &'a ThreadedPlan,
    w: usize,
    execs: std::slice::Iter<'a, Exec>,
    forwards: std::iter::Peekable<std::slice::Iter<'a, (u64, usize)>>,
    queue: VecDeque<(usize, P)>,
    start: Instant,
    walked: Walk<P>,
}

impl<'a, P> Walker<'a, P> {
    /// Worker `w` at the head of its list, holding `queue`.
    pub(crate) fn new(
        plan: &'a ThreadedPlan,
        w: usize,
        queue: VecDeque<(usize, P)>,
        start: Instant,
    ) -> Self {
        let (held, spans, events) = Default::default();
        Walker {
            plan,
            w,
            execs: plan.per_worker[w].iter(),
            forwards: plan.forward[w].iter().peekable(),
            queue,
            start,
            walked: Walk {
                held,
                spans,
                events,
            },
        }
    }

    /// The step of the next exec; `None` once the list is done.
    pub(crate) fn next_step(&self) -> Option<u64> {
        self.execs.as_slice().first().map(|e| e.step)
    }

    /// Runs the next exec: awaits its partition from upstream if the
    /// schedule says so, runs `block(block, partition)` (no partition
    /// when the plan rotates nothing), then — before the next exec —
    /// forwards the partition downstream, re-enqueues it (a single-owner
    /// ring) or keeps it. On the transport's abort nothing after the
    /// failed call runs.
    pub(crate) fn step<X: Transport<P>>(
        &mut self,
        transport: &mut X,
        block: impl FnOnce(usize, Option<&mut P>),
    ) -> Result<(), X::Abort> {
        let (w, start, walked) = (self.w, self.start, &mut self.walked);
        let now = || start.elapsed().as_nanos() as u64;
        let e = self.execs.next().expect("the walk is not done");
        let tp = e.block % self.plan.n_time;
        if e.awaited.is_some() {
            let from = now();
            self.queue.push_back((tp, transport.recv(tp)?));
            walked.events.push(HbEvent::Recv { tp: tp as u32 });
            walked.spans.push(ThreadSpan {
                phase: ThreadPhase::Rotation,
                start_ns: from,
                end_ns: now(),
            });
        }
        let mut part = self.plan.rotated.then(|| {
            let (got, part) = self.queue.pop_front().expect("schedule keeps queues fed");
            debug_assert_eq!(got, tp, "queue order must match schedule");
            part
        });
        let from = now();
        block(e.block, part.as_mut());
        walked.events.push(HbEvent::Exec {
            step: e.step,
            block: e.block as u32,
        });
        walked.spans.push(ThreadSpan {
            phase: ThreadPhase::Compute,
            start_ns: from,
            end_ns: now(),
        });
        let Some(part) = part else { return Ok(()) };
        match self.forwards.next_if(|&&(step, _)| step == e.step) {
            Some(&(_, dst)) if dst == w => self.queue.push_back((tp, part)),
            Some(&(_, dst)) => {
                walked.events.push(HbEvent::Send {
                    tp: tp as u32,
                    dst: dst as u32,
                });
                transport.send(dst, tp, part)?;
            }
            None => walked.held.push((tp, part)),
        }
        Ok(())
    }

    /// Logs the barrier closing `step`.
    pub(crate) fn barrier(&mut self, step: u64) {
        let events = &mut self.walked.events;
        events.push(HbEvent::BarrierEnter { epoch: step });
        events.push(HbEvent::BarrierExit { epoch: step });
    }

    /// What the walk leaves behind.
    pub(crate) fn finish(mut self) -> Walk<P> {
        self.walked.held.extend(self.queue);
        self.walked
    }
}

/// Runs worker `w`'s execution list for one pass: a walker stepped
/// to the end. `queue` holds the time partitions the worker starts
/// with, in use order ([`ThreadedPlan::initial_of`]); `block` owns the
/// item loop, the space partition and any scratch.
///
/// # Errors
///
/// The transport's abort; nothing after the failed call runs.
pub fn walk<P, X: Transport<P>>(
    plan: &ThreadedPlan,
    w: usize,
    queue: VecDeque<(usize, P)>,
    transport: &mut X,
    start: Instant,
    mut block: impl FnMut(usize, Option<&mut P>),
) -> Result<Walk<P>, X::Abort> {
    let mut walker = Walker::new(plan, w, queue, start);
    while walker.next_step().is_some() {
        walker.step(transport, &mut block)?;
    }
    Ok(walker.finish())
}

/// The pool's [`Transport`]: a parcel channel per worker. Aborts when
/// the pool is poisoned or upstream vanished, so a peer panic can never
/// deadlock the rotation ring.
struct Channels<P> {
    rx: Receiver<Parcel<P>>,
    /// Senders to every other worker; the own slot is empty (rotation
    /// edges never target their sender), so a walk abandoned on poison
    /// drops every foreign sender it holds.
    tx: Vec<Option<Sender<Parcel<P>>>>,
    poison: Arc<AtomicBool>,
}

impl<P> Transport<P> for Channels<P> {
    type Abort = ();

    fn recv(&mut self, tp: usize) -> Result<P, ()> {
        loop {
            match self.rx.recv_timeout(POISON_POLL) {
                Ok((got, part)) => {
                    debug_assert_eq!(got, tp, "parcels arrive in schedule order");
                    return Ok(part);
                }
                Err(RecvTimeoutError::Timeout) if !self.poison.load(Ordering::SeqCst) => {}
                Err(_) => return Err(()),
            }
        }
    }

    fn send(&mut self, dst: usize, tp: usize, part: P) -> Result<(), ()> {
        let tx = self.tx[dst].as_ref().expect("rotation edges cross workers");
        tx.send((tp, part)).map_err(drop)
    }
}

/// The one pooled walk, behind every pool pass: builds the pass's
/// parcel channels, seeds each worker's queue with the time partitions
/// it starts with ([`ThreadedPlan::initial_of`]), walks every worker's
/// list on its pool thread, and gathers the partitions the workers end
/// up holding back into partition order. `state[w]` is what worker `w`
/// owns through the pass (its space partition, its scratch);
/// `block(state, positions, part)` runs one block's item positions
/// against it and the time partition the block uses (none when the
/// plan rotates nothing, which also never touches its channels).
/// Returns the pass (each worker's state as its scratch) and the time
/// partitions in partition order.
fn pool_walk<S, P, F>(
    pool: &WorkerPool,
    plan: &Arc<ThreadedPlan>,
    time_parts: Vec<P>,
    state: Vec<S>,
    block: F,
) -> (OneDPassOutput<S>, Vec<P>)
where
    S: Send + 'static,
    P: Send + 'static,
    F: Fn(&mut S, &[u32], Option<&mut P>) + Send + Sync + 'static,
{
    let mut time: Vec<Option<P>> = time_parts.into_iter().map(Some).collect();
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..plan.n_workers).map(|_| channel()).unzip();
    let inputs: Vec<_> = state
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(w, (st, rx))| {
            let queue: VecDeque<Parcel<P>> = plan.initial[w]
                .iter()
                .map(|&tp| (tp, time[tp].take().expect("each partition starts once")))
                .collect();
            let tx = senders
                .iter()
                .enumerate()
                .map(|(dst, s)| (dst != w).then(|| s.clone()))
                .collect();
            let poison = pool.poison_flag();
            (st, queue, Channels { rx, tx, poison })
        })
        .collect();
    drop(senders);
    // The emptied slots collect the partitions the workers end up holding.
    assert!(
        time.iter().all(Option::is_none),
        "every time partition must have an initial owner"
    );

    let start = Instant::now();
    let plan = Arc::clone(plan);
    let results = dispatch(pool, inputs, move |w, (mut st, queue, mut wire)| {
        let walked = walk(&plan, w, queue, &mut wire, start, |b, part| {
            block(&mut st, plan.blocks.items(b), part);
        })
        .ok()?;
        Some((st, walked))
    });
    let mut out = OneDPassOutput {
        scratch: Vec::new(),
        spans: Vec::new(),
        events: Vec::new(),
        wall_ns: start.elapsed().as_nanos() as u64,
    };
    for (st, walked) in results {
        out.scratch.push(st);
        out.spans.push(walked.spans);
        out.events.push(walked.events);
        for (tp, part) in walked.held {
            assert!(
                time[tp].replace(part).is_none(),
                "time partition {tp} duplicated"
            );
        }
    }
    let time = time
        .into_iter()
        .enumerate()
        .map(|(tp, p)| p.unwrap_or_else(|| panic!("time partition {tp} lost")))
        .collect();
    (out, time)
}

/// Executes one pass of a 2-D (grid) schedule on the pool.
///
/// - `items`: the iteration items the schedule was built over, shared
///   immutably with every worker.
/// - `space_parts`: one partition of the space-aligned array per worker
///   (from [`DistArray::split_along`] with the schedule's
///   `space_partition` ranges); moved in, moved back out.
/// - `time_parts`: one partition of the rotated array per time
///   partition; moved through channels during rotation, never cloned.
/// - `scratch`: arbitrary per-worker mutable state (buffers, RNG
///   shards, counters) threaded through the pass.
/// - `body`: the loop body, applied to each item against the worker's
///   current space partition, the rotated partition, and its scratch.
///
/// # Panics
///
/// Panics if partition counts do not match the plan, if the pool is
/// smaller than the plan's worker count, or — with the panicking
/// worker's message — if a worker dies mid-pass.
pub fn run_grid_pass_pooled<T, A, B, S, F>(
    pool: &WorkerPool,
    plan: &Arc<ThreadedPlan>,
    items: &Arc<Vec<T>>,
    space_parts: Vec<DistArray<A>>,
    time_parts: Vec<DistArray<B>>,
    scratch: Vec<S>,
    body: &Arc<F>,
) -> GridPassOutput<A, B, S>
where
    T: Send + Sync + 'static,
    A: Element,
    B: Element,
    S: Send + 'static,
    F: Fn(&T, &mut DistArray<A>, &mut DistArray<B>, &mut S) + Send + Sync + 'static,
{
    assert_eq!(
        space_parts.len(),
        plan.n_workers,
        "one space partition per worker"
    );
    assert_eq!(scratch.len(), plan.n_workers, "one scratch slot per worker");
    assert_eq!(
        time_parts.len(),
        plan.n_time,
        "one array partition per time partition"
    );
    let (items, body) = (Arc::clone(items), Arc::clone(body));
    let state = space_parts.into_iter().zip(scratch).collect();
    let (pass, time) = pool_walk(pool, plan, time_parts, state, move |(a, s), ps, b| {
        let b = b.expect("a grid plan rotates its time partitions");
        for &pos in ps {
            body(&items[pos as usize], a, b, s);
        }
    });
    let (space, scratch) = pass.scratch.into_iter().unzip();
    GridPassOutput {
        space,
        time,
        scratch,
        spans: pass.spans,
        events: pass.events,
        wall_ns: pass.wall_ns,
    }
}

/// Reads a per-item `f64` metric on the pool — the driver-side readout
/// of a paper §3.4 accumulator such as the per-pass training loss — and
/// returns `items.iter().fold(init, |acc, t| acc + term(t, ctx))`, bit
/// for bit, whatever the worker count.
///
/// The `n` item positions are cut into one contiguous range per worker,
/// `[w·n/W, (w+1)·n/W)`. Worker 0 folds its range from `init` in item
/// order; every other worker evaluates its terms in item order into its
/// own slot of `terms` (kept by the caller and reused across readouts),
/// and the caller's thread continues the fold from worker 0's prefix
/// through those slots in worker order. The terms, their order and the
/// fold are the serial loop's, so the result carries its bits: per-worker
/// partial sums would associate the additions differently for every
/// worker count. `init` must be where the serial fold starts (`-0.0` for
/// `Iterator::sum`; it shows when there are no items).
///
/// `ctx` (the model the terms read) travels to every worker inside its
/// job and is dropped there before the worker reports, so the caller
/// owns it alone again when this returns.
///
/// # Panics
///
/// Panics if `n_workers` is zero or exceeds the pool, or — with the
/// panicking worker's message — if a worker dies.
pub fn run_readout_pooled<T, C, F>(
    pool: &WorkerPool,
    n_workers: usize,
    items: &Arc<Vec<T>>,
    ctx: &Arc<C>,
    terms: &mut Vec<Vec<f64>>,
    term: &Arc<F>,
    init: f64,
) -> f64
where
    T: Send + Sync + 'static,
    C: Send + Sync + 'static,
    F: Fn(&T, &C) -> f64 + Send + Sync + 'static,
{
    assert!(n_workers > 0, "a readout needs a worker");
    terms.resize_with(n_workers, Vec::new);
    let inputs: Vec<_> = terms.drain(..).map(|t| (Arc::clone(ctx), t)).collect();
    let n = items.len();
    let (items, term) = (Arc::clone(items), Arc::clone(term));
    let results = dispatch(pool, inputs, move |w, (ctx, mut out)| {
        let range = &items[w * n / n_workers..(w + 1) * n / n_workers];
        out.clear();
        if w == 0 {
            let prefix = range.iter().fold(init, |acc, t| acc + term(t, &ctx));
            return Some((out, Some(prefix)));
        }
        out.extend(range.iter().map(|t| term(t, &ctx)));
        Some((out, None))
    });
    let mut results = results.into_iter();
    let (first, prefix) = results.next().expect("a readout has a worker 0");
    let mut acc = prefix.expect("worker 0 folds its own range");
    terms.push(first);
    for (out, _) in results {
        acc = out.iter().fold(acc, |acc, t| acc + t);
        terms.push(out);
    }
    acc
}

/// Executes one pass of a 1-D (or fully-parallel) schedule on the
/// pool: no rotated array, each worker runs its items against its own
/// scratch (which typically carries its space partition).
///
/// # Panics
///
/// Panics if the scratch count does not match the plan, if the pool is
/// too small, or — with the panicking worker's message — if a worker
/// dies mid-pass.
pub fn run_one_d_pass_pooled<T, S, F>(
    pool: &WorkerPool,
    plan: &Arc<ThreadedPlan>,
    items: &Arc<Vec<T>>,
    scratch: Vec<S>,
    body: &Arc<F>,
) -> OneDPassOutput<S>
where
    T: Send + Sync + 'static,
    S: Send + 'static,
    F: Fn(&T, &mut S) + Send + Sync + 'static,
{
    assert_eq!(scratch.len(), plan.n_workers, "one scratch slot per worker");
    let (items, body) = (Arc::clone(items), Arc::clone(body));
    let (pass, _) = pool_walk(pool, plan, Vec::<()>::new(), scratch, move |sc, ps, _| {
        for &pos in ps {
            body(&items[pos as usize], sc);
        }
    });
    pass
}

/// The pool dispatch every pass shares: runs `job(w, inputs[w])` on pool
/// worker `w` and returns the reports in worker order. A job consumes
/// its input before reporting, so what the input held (senders, a lent
/// model) is released by then. A job that reports `None` abandoned
/// its pass because a peer died; the peer's panic is re-raised here,
/// with its message, instead of hanging.
fn dispatch<I, R>(
    pool: &WorkerPool,
    inputs: Vec<I>,
    job: impl Fn(usize, I) -> Option<R> + Send + Sync + 'static,
) -> Vec<R>
where
    I: Send + 'static,
    R: Send + 'static,
{
    let n_workers = inputs.len();
    assert!(
        pool.size() >= n_workers,
        "pool has {} workers but the plan needs {n_workers}",
        pool.size()
    );
    let job = Arc::new(job);
    let (result_tx, result_rx) = channel();
    for (w, input) in inputs.into_iter().enumerate() {
        let (job, result_tx) = (Arc::clone(&job), result_tx.clone());
        let run = Box::new(move || {
            if let Some(r) = job(w, input) {
                let _ = result_tx.send((w, r));
            }
        });
        if pool.submit(w, run).is_err() {
            break; // poison; the collection loop reports the panic
        }
    }
    drop(result_tx);

    let mut results: Vec<(usize, R)> = Vec::with_capacity(n_workers);
    while results.len() < n_workers {
        match result_rx.recv_timeout(POISON_POLL) {
            Ok(r) => results.push(r),
            Err(err) => {
                if let Some(msg) = pool.panic_message() {
                    panic!("{msg}");
                }
                if err == RecvTimeoutError::Disconnected {
                    // Result senders vanished before the panic was
                    // recorded; give the pool worker a beat to finish
                    // unwinding, then report.
                    std::thread::sleep(POISON_POLL);
                    match pool.panic_message() {
                        Some(msg) => panic!("{msg}"),
                        None => panic!("threaded pass lost workers without a recorded panic"),
                    }
                }
            }
        }
    }
    results.sort_by_key(|r| r.0);
    results.into_iter().map(|r| r.1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::build_schedule;
    use orion_analysis::Strategy;

    fn grid_items(m: i64, n: i64) -> Vec<(Vec<i64>, f32)> {
        (0..m)
            .flat_map(|i| (0..n).map(move |j| (vec![i, j], (i * n + j) as f32)))
            .collect()
    }

    /// Pool + plan + shared items for one grid schedule.
    type GridSetup = (
        WorkerPool,
        Arc<ThreadedPlan>,
        Arc<Vec<(Vec<i64>, f32)>>,
        Schedule,
    );

    fn setup(
        items: Vec<(Vec<i64>, f32)>,
        extents: &[u64],
        n_workers: usize,
        ordered: bool,
    ) -> GridSetup {
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered,
        };
        let sched = build_schedule(&strat, &items, extents, n_workers);
        let plan = Arc::new(ThreadedPlan::compile(&sched));
        (WorkerPool::new(n_workers), plan, Arc::new(items), sched)
    }

    #[test]
    fn grid_pass_touches_every_item_against_owning_partitions() {
        let (pool, plan, items, sched) = setup(grid_items(8, 8), &[8, 8], 4, false);
        // Space array: one counter per row; time array: one per column.
        let w: DistArray<u32> = DistArray::dense("w", vec![8, 1]);
        let h: DistArray<u32> = DistArray::dense("h", vec![8, 1]);
        let sp = sched.space_partition.as_ref().unwrap();
        let tp = sched.time_partition.as_ref().unwrap();
        let body = Arc::new(
            |(idx, _v): &(Vec<i64>, f32),
             wp: &mut DistArray<u32>,
             hp: &mut DistArray<u32>,
             _: &mut ()| {
                wp.update(&[idx[0], 0], |c| *c += 1);
                hp.update(&[idx[1], 0], |c| *c += 1);
            },
        );
        let out = run_grid_pass_pooled(
            &pool,
            &plan,
            &items,
            w.split_along(0, &sp.ranges),
            h.split_along(0, &tp.ranges),
            vec![(); 4],
            &body,
        );
        let w = DistArray::merge_along(0, out.space);
        let h = DistArray::merge_along(0, out.time);
        for r in 0..8 {
            assert_eq!(w.get(&[r, 0]), Some(&8));
            assert_eq!(h.get(&[r, 0]), Some(&8));
        }
        assert_eq!(out.spans.len(), 4);
        assert!(out.spans.iter().all(|s| !s.is_empty()));
        assert!(out.wall_ns > 0);
        // One log per worker; tests/threaded_conformance.rs pins each
        // to the plan's reconstruction.
        assert_eq!(out.events.len(), 4);
    }

    #[test]
    fn grid_pass_matches_sequential_execution() {
        // Accumulate an order-independent function (sum of value*row) so
        // results must match a serial pass exactly.
        let (pool, plan, items, sched) = setup(grid_items(10, 10), &[10, 10], 5, false);
        let w: DistArray<f32> = DistArray::dense("w", vec![10, 1]);
        let h: DistArray<f32> = DistArray::dense("h", vec![10, 1]);
        let sp = sched.space_partition.clone().unwrap();
        let tp = sched.time_partition.clone().unwrap();
        let body = Arc::new(
            |(idx, v): &(Vec<i64>, f32),
             wp: &mut DistArray<f32>,
             hp: &mut DistArray<f32>,
             _: &mut ()| {
                wp.update(&[idx[0], 0], |c| *c += v);
                hp.update(&[idx[1], 0], |c| *c += v * 2.0);
            },
        );
        let out = run_grid_pass_pooled(
            &pool,
            &plan,
            &items,
            w.clone().split_along(0, &sp.ranges),
            h.clone().split_along(0, &tp.ranges),
            vec![(); 5],
            &body,
        );
        let tw = DistArray::merge_along(0, out.space);
        let th = DistArray::merge_along(0, out.time);

        let mut sw = w;
        let mut sh = h;
        for (idx, v) in items.iter() {
            sw.update(&[idx[0], 0], |c| *c += v);
            sh.update(&[idx[1], 0], |c| *c += v * 2.0);
        }
        assert_eq!(tw, sw);
        assert_eq!(th, sh);
    }

    #[test]
    fn ordered_grid_pass_also_runs() {
        let (pool, plan, items, sched) = setup(grid_items(6, 6), &[6, 6], 3, true);
        let w: DistArray<u32> = DistArray::dense("w", vec![6, 1]);
        let h: DistArray<u32> = DistArray::dense("h", vec![6, 1]);
        let sp = sched.space_partition.clone().unwrap();
        let tp = sched.time_partition.clone().unwrap();
        let body = Arc::new(
            |(idx, _v): &(Vec<i64>, f32),
             wp: &mut DistArray<u32>,
             hp: &mut DistArray<u32>,
             _: &mut ()| {
                wp.update(&[idx[0], 0], |c| *c += 1);
                hp.update(&[idx[1], 0], |c| *c += 1);
            },
        );
        let out = run_grid_pass_pooled(
            &pool,
            &plan,
            &items,
            w.split_along(0, &sp.ranges),
            h.split_along(0, &tp.ranges),
            vec![(); 3],
            &body,
        );
        let w = DistArray::merge_along(0, out.space);
        let h = DistArray::merge_along(0, out.time);
        assert!(w.iter().all(|(_, &c)| c == 6));
        assert!(h.iter().all(|(_, &c)| c == 6));
    }

    #[test]
    fn one_d_pass_pooled_counts() {
        let items = grid_items(8, 4);
        let sched = build_schedule(&Strategy::OneD { dim: 0 }, &items, &[8, 4], 4);
        let plan = Arc::new(ThreadedPlan::compile(&sched));
        let pool = WorkerPool::new(plan.n_workers());
        let items = Arc::new(items);
        let w: DistArray<u32> = DistArray::dense("w", vec![8, 1]);
        let sp = sched.space_partition.clone().unwrap();
        let body = Arc::new(|(idx, _v): &(Vec<i64>, f32), wp: &mut DistArray<u32>| {
            wp.update(&[idx[0], 0], |c| *c += 1);
        });
        let out = run_one_d_pass_pooled(&pool, &plan, &items, w.split_along(0, &sp.ranges), &body);
        let w = DistArray::merge_along(0, out.scratch);
        assert!(w.iter().all(|(_, &c)| c == 4));
    }

    #[test]
    fn pool_is_reused_across_passes_and_epochs() {
        let (pool, plan, items, sched) = setup(grid_items(8, 8), &[8, 8], 4, false);
        let sp = sched.space_partition.clone().unwrap();
        let tp = sched.time_partition.clone().unwrap();
        let body = Arc::new(
            |(idx, _v): &(Vec<i64>, f32),
             wp: &mut DistArray<u32>,
             hp: &mut DistArray<u32>,
             _: &mut ()| {
                wp.update(&[idx[0], 0], |c| *c += 1);
                hp.update(&[idx[1], 0], |c| *c += 1);
            },
        );
        let mut w_parts = DistArray::<u32>::dense("w", vec![8, 1]).split_along(0, &sp.ranges);
        let mut h_parts = DistArray::<u32>::dense("h", vec![8, 1]).split_along(0, &tp.ranges);
        for _ in 0..3 {
            let out =
                run_grid_pass_pooled(&pool, &plan, &items, w_parts, h_parts, vec![(); 4], &body);
            w_parts = out.space;
            h_parts = out.time;
        }
        let w = DistArray::merge_along(0, w_parts);
        assert!(w.iter().all(|(_, &c)| c == 24));
        assert!(!pool.is_poisoned());
    }

    #[test]
    fn worker_panic_mid_pass_propagates_with_a_message() {
        let (pool, plan, items, sched) = setup(grid_items(8, 8), &[8, 8], 4, false);
        let sp = sched.space_partition.clone().unwrap();
        let tp = sched.time_partition.clone().unwrap();
        let body = Arc::new(
            |(idx, _v): &(Vec<i64>, f32),
             _wp: &mut DistArray<u32>,
             _hp: &mut DistArray<u32>,
             _: &mut ()| {
                assert!(idx[0] != 5, "poisoned row reached the loop body");
            },
        );
        let w: DistArray<u32> = DistArray::dense("w", vec![8, 1]);
        let h: DistArray<u32> = DistArray::dense("h", vec![8, 1]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_grid_pass_pooled(
                &pool,
                &plan,
                &items,
                w.split_along(0, &sp.ranges),
                h.split_along(0, &tp.ranges),
                vec![(); 4],
                &body,
            )
        }));
        let payload = result.expect_err("pass must propagate the worker panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("panicked") && msg.contains("poisoned row"),
            "unhelpful propagated message: {msg}"
        );
        assert!(pool.is_poisoned());
    }
}
