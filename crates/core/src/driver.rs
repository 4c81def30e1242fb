//! The Orion driver: the program a user writes (paper §3, Fig. 5).
//!
//! An application is an imperative driver program that creates
//! DistArrays, declares accumulators, and runs `@parallel_for` loops.
//! [`Driver`] plays that role: it registers arrays (recording the
//! metadata the analyzer needs), *compiles* loops — static dependence
//! analysis, strategy selection, schedule construction, communication
//! model — exactly once per loop (like the macro expansion of §4.1), and
//! executes passes on the simulated cluster.

use std::collections::HashMap;

use orion_analysis::{analyze, ParallelPlan, Strategy};
use orion_check::{full_report, Sanitizer};
use orion_dsm::{DistArray, Element, MathMode};
use orion_ir::{ArrayMeta, DistArrayId, LoopSpec};
use std::sync::Arc;

use orion_runtime::{
    build_schedule, comm_model_with_spec, default_threads, run_grid_pass_pooled,
    run_one_d_pass_pooled, run_readout_pooled, CompiledBlocks, GridPassOutput, HbEvent,
    LoopCommModel, OneDPassOutput, PassStats, Schedule, SimExecutor, ThreadPhase, ThreadSpan,
    ThreadedPlan, WorkerPool,
};
use orion_sim::{ClusterSpec, FaultPlan, RunStats, VirtualTime};
use orion_trace::{LinkBytes, LoadStats, OwnedSession, RunReport, SpanCat, Transfer};
use orion_tune::{tune_spec, TuneConfig, TuneOutcome};

use crate::recovery::{FaultEvent, RecoveryConfig, RecoveryStats};

/// Errors surfaced by the driver.
#[derive(Debug)]
pub enum DriverError {
    /// The loop spec failed validation.
    Spec(orion_ir::SpecError),
    /// A loop body requires parallelization but analysis found none and
    /// the caller required a parallel strategy.
    NotParallelizable(String),
}

impl core::fmt::Display for DriverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DriverError::Spec(e) => write!(f, "invalid loop spec: {e}"),
            DriverError::NotParallelizable(name) => {
                write!(
                    f,
                    "loop `{name}` has no dependence-preserving parallelization"
                )
            }
        }
    }
}

impl std::error::Error for DriverError {}

impl From<orion_ir::SpecError> for DriverError {
    fn from(e: orion_ir::SpecError) -> Self {
        DriverError::Spec(e)
    }
}

/// A loop after static parallelization: analysis result, compiled
/// schedule, and communication model, reusable across executions
/// ("the macro expansion and compilation is executed only once", §4.1).
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    /// The analyzed spec.
    pub spec: LoopSpec,
    /// Dependence vectors, strategy and placements.
    pub plan: ParallelPlan,
    /// The computation schedule.
    pub schedule: Schedule,
    /// Communication model used by the simulator.
    pub comm: LoopCommModel,
}

impl CompiledLoop {
    /// The chosen strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.plan.strategy
    }
}

/// An element of a materialized iteration space: it knows its loop
/// index. [`Driver::parallel_for`] and [`Driver::tune_loop`] read only
/// that, so a caller may hand them `(index, value)` pairs or bare fixed
/// `[i64; N]` indices built for the call.
pub trait Indexed {
    /// The loop index, one coordinate per loop dimension.
    fn loop_index(&self) -> &[i64];
}

impl<T> Indexed for (Vec<i64>, T) {
    fn loop_index(&self) -> &[i64] {
        &self.0
    }
}

impl<const N: usize> Indexed for [i64; N] {
    fn loop_index(&self) -> &[i64] {
        self
    }
}

/// The driver program state: registered arrays, the simulated cluster,
/// and compiled loops.
///
/// # Examples
///
/// A miniature SGD-MF-shaped program:
///
/// ```
/// use orion_core::Driver;
/// use orion_dsm::DistArray;
/// use orion_ir::{LoopSpec, Subscript};
/// use orion_sim::ClusterSpec;
///
/// let mut driver = Driver::new(ClusterSpec::new(2, 2));
/// let ratings: DistArray<f32> =
///     DistArray::sparse_from("ratings", vec![8, 6], vec![(vec![1, 2], 1.0), (vec![5, 0], 2.0)]);
/// let mut w: DistArray<f32> = DistArray::dense("W", vec![8, 4]);
/// let z = driver.register(&ratings);
/// let w_id = driver.register(&w);
///
/// let spec = LoopSpec::builder("update", z, vec![8, 6])
///     .read_write(w_id, vec![Subscript::loop_index(0), Subscript::Full])
///     .build()
///     .unwrap();
/// let items: Vec<(Vec<i64>, f32)> = ratings.iter().map(|(i, &v)| (i, v)).collect();
/// let compiled = driver.parallel_for(spec, &items).unwrap();
/// driver.run_pass(&compiled, &mut |_pos| 100.0, &mut |_w, pos| {
///     let (idx, val) = &items[pos];
///     w.update(&[idx[0], 0], |x| *x += val);
/// });
/// assert_eq!(w.get(&[1, 0]), Some(&1.0));
/// ```
pub struct Driver {
    executor: SimExecutor,
    metas: Vec<ArrayMeta>,
    next_id: u32,
    compiled: HashMap<String, usize>,
    /// Average served reads per iteration, settable before compiling a
    /// loop with served arrays (e.g. nonzeros per sample for SLR).
    served_reads_per_iter: f64,
    stats: RunStats,
    recovery_cfg: RecoveryConfig,
    recovery: RecoveryStats,
    /// Whether compiled loops get a schedule sanitizer.
    validate: bool,
    /// Per-loop schedule sanitizers (`orion-check`), keyed by loop name:
    /// the static O100 check of every schedule a pass is handed, and the
    /// O11x check of the event logs the real engines record.
    sanitizers: HashMap<String, Sanitizer>,
    /// Thread count for the real-core execution path (`None` = host
    /// parallelism).
    threads: Option<usize>,
    /// Persistent worker pool, created lazily on the first threaded pass
    /// and reused across passes and epochs.
    pool: Option<WorkerPool>,
    /// Per-worker term buffers of [`Driver::eval_pass`], grown by the
    /// first readout and reused by every later one.
    readout_terms: Vec<Vec<f64>>,
    /// Floating-point reduction policy loop bodies should honor
    /// (`Exact` keeps seed bit-identity; `FastMath` runs the
    /// reassociated lane fold).
    math_mode: MathMode,
    /// Real per-link wire bytes accumulated by distributed passes
    /// ([`Driver::run_pass_distributed`]); merged with the simulated
    /// network's modelled traffic in [`Driver::run_report`].
    wire_links: Vec<LinkBytes>,
}

impl Driver {
    /// A driver targeting the given simulated cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        Driver {
            executor: SimExecutor::new(cluster),
            metas: Vec::new(),
            next_id: 0,
            compiled: HashMap::new(),
            served_reads_per_iter: 1.0,
            stats: RunStats::default(),
            recovery_cfg: RecoveryConfig::default(),
            recovery: RecoveryStats::default(),
            validate: Self::validate_by_default(),
            sanitizers: HashMap::new(),
            threads: None,
            pool: None,
            readout_terms: Vec::new(),
            math_mode: MathMode::default(),
            wire_links: Vec::new(),
        }
    }

    /// Selects the floating-point reduction policy for passes run
    /// through this driver. [`MathMode::Exact`] (the default) keeps
    /// every reduction bit-identical to the serial seed;
    /// [`MathMode::FastMath`] opts reassociating reductions (dot
    /// products, gathered sums) into multi-accumulator vectorized
    /// forms — still deterministic, but associated differently.
    pub fn set_math_mode(&mut self, mode: MathMode) {
        self.math_mode = mode;
    }

    /// The floating-point reduction policy loop bodies should pass to
    /// `orion_dsm::kernels` reductions.
    pub fn math_mode(&self) -> MathMode {
        self.math_mode
    }

    /// Whether drivers sanitize schedules by default: on in debug
    /// builds (which include the test profile), off in release, like
    /// `debug_assert!`. Override per driver with
    /// [`Driver::set_validate`].
    pub fn validate_by_default() -> bool {
        cfg!(debug_assertions)
    }

    /// Turns the schedule sanitizer on or off for loops compiled *after*
    /// this call. When on, the schedule every pass is handed — on any
    /// engine — is checked statically against the loop's declared
    /// accesses (once per distinct schedule), and a race panics with an
    /// `O100` diagnostic naming the offending access pair and step; the
    /// real engines' recorded event logs are checked for happens-before
    /// order (O110–O112).
    pub fn set_validate(&mut self, on: bool) {
        self.validate = on;
    }

    /// Whether the schedule sanitizer is active for newly compiled
    /// loops.
    pub fn validating(&self) -> bool {
        self.validate
    }

    /// Registers a DistArray, assigning its id and recording the metadata
    /// the analyzer's communication heuristic uses.
    pub fn register<T: Element>(&mut self, array: &DistArray<T>) -> DistArrayId {
        let id = DistArrayId(self.next_id);
        self.next_id += 1;
        self.metas.push(array.meta(id));
        id
    }

    /// Registered metadata (analyzer input).
    pub fn metas(&self) -> &[ArrayMeta] {
        &self.metas
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.executor.cluster
    }

    /// Declares the average number of served-array reads per iteration
    /// for subsequently compiled loops (the value Orion's synthesized
    /// recording function discovers at runtime).
    pub fn set_served_reads_per_iter(&mut self, reads: f64) {
        self.served_reads_per_iter = reads;
    }

    /// Statically parallelizes a loop (the `@parallel_for` macro):
    /// dependence analysis, strategy selection, schedule construction.
    ///
    /// `items` is the materialized iteration space (index/value pairs,
    /// or bare `[i64; N]` indices); the returned [`CompiledLoop`] refers
    /// to items by position in this slice.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Spec`] for invalid specs.
    pub fn parallel_for<I: Indexed>(
        &mut self,
        spec: LoopSpec,
        items: &[I],
    ) -> Result<CompiledLoop, DriverError> {
        spec.validate()?;
        let n_workers = self.executor.cluster.n_workers();
        let plan = analyze(&spec, &self.metas, n_workers as u64);
        // Borrow the item indices instead of cloning one Vec per
        // iteration; the schedule stores positions, not indices.
        let indices: Vec<&[i64]> = items.iter().map(Indexed::loop_index).collect();
        let schedule = build_schedule(&plan.strategy, &indices, &spec.iter_dims, n_workers);
        let comm =
            comm_model_with_spec(&plan, &self.metas, self.served_reads_per_iter, Some(&spec));
        if self.validate {
            self.sanitizers.insert(
                spec.name.clone(),
                Sanitizer::new(&spec, &self.metas, &indices),
            );
        }
        self.compiled.insert(spec.name.clone(), 0);
        Ok(CompiledLoop {
            spec,
            plan,
            schedule,
            comm,
        })
    }

    /// Executes one pass of a compiled loop: `cost(pos)` returns the
    /// compute nanoseconds of iteration `pos`, `body(worker, pos)`
    /// performs it. Returns the pass statistics.
    ///
    /// # Panics
    ///
    /// With validation on (see [`Driver::set_validate`]), panics with a
    /// rendered `O100` diagnostic, before running anything, if the
    /// schedule co-schedules two conflicting accesses.
    pub fn run_pass(
        &mut self,
        compiled: &CompiledLoop,
        cost: &mut dyn FnMut(usize) -> f64,
        body: &mut dyn FnMut(usize, usize),
    ) -> PassStats {
        self.sanitize_schedule(compiled);
        self.executor
            .run_pass(&compiled.schedule, &compiled.comm, cost, body)
    }

    /// Re-plans a compiled loop from measured costs (`orion-tune`):
    /// calibrates the static plan with seeded no-op passes on this
    /// driver's cluster, fits [`orion_analysis::CostParams`], and
    /// returns the fastest measured candidate plan together with the
    /// decision record (including the `O020` diagnostic on a re-plan).
    ///
    /// `items` must be the same slice the loop was compiled from —
    /// schedules address iterations by position. The returned loop was
    /// checked by the tuner's own sanitizer, and this driver's sanitizer
    /// checks the swapped-in schedule again on its first pass (the check
    /// is keyed by the schedule's content, not the loop's name).
    pub fn tune_loop<I: Indexed>(
        &mut self,
        compiled: &CompiledLoop,
        items: &[I],
        cfg: &TuneConfig,
        cost: &mut dyn FnMut(usize) -> f64,
    ) -> (CompiledLoop, TuneOutcome) {
        let indices: Vec<&[i64]> = items.iter().map(Indexed::loop_index).collect();
        let tuned = tune_spec(
            &compiled.spec,
            &self.metas,
            &indices,
            &self.executor.cluster,
            self.served_reads_per_iter,
            cost,
            cfg,
        );
        (
            CompiledLoop {
                spec: compiled.spec.clone(),
                plan: tuned.plan,
                schedule: tuned.schedule,
                comm: tuned.comm,
            },
            tuned.outcome,
        )
    }

    /// Statically checks the schedule `compiled` is about to run with
    /// the loop's sanitizer, if it has one (compiled by this driver with
    /// validation on), and fails loudly on a race.
    fn sanitize_schedule(&self, compiled: &CompiledLoop) {
        if let Some(sanitizer) = self.sanitizers.get(&compiled.spec.name) {
            if let Err(race) = sanitizer.check_schedule(&compiled.schedule) {
                panic!(
                    "schedule sanitizer tripped:\n{}",
                    race.to_diagnostic().render()
                );
            }
        }
    }

    /// Feeds a recorded per-actor event log to the loop's sanitizer.
    /// No-op when validation is off (no sanitizer was registered) or
    /// every log is empty (un-instrumented actors).
    fn sanitize_hb(
        &self,
        loop_name: &str,
        blocks: &CompiledBlocks,
        events: &[Vec<HbEvent>],
        context: &str,
    ) {
        if events.iter().all(Vec::is_empty) {
            return;
        }
        if let Some(sanitizer) = self.sanitizers.get(loop_name) {
            if let Err(violation) = sanitizer.check_pass(blocks, events, context) {
                panic!("happens-before checker tripped:\n{violation}");
            }
        }
    }

    /// Pins the thread count of the real-core execution path (default:
    /// the host's available parallelism). Takes effect on the next
    /// threaded pass; an existing smaller pool is replaced.
    pub fn set_threads(&mut self, n: usize) {
        self.threads = Some(n.max(1));
    }

    /// Effective thread count of the real-core execution path.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    /// Compiles `compiled`'s schedule for the threaded engine and — with
    /// validation on — statically sanitizes it first, exactly as
    /// [`Driver::run_pass`] does (a schedule either of them already
    /// checked is not checked again).
    ///
    /// # Panics
    ///
    /// Panics with a rendered `O100` diagnostic if the schedule
    /// co-schedules two dependent iterations.
    pub fn compile_threaded(&self, compiled: &CompiledLoop) -> Arc<ThreadedPlan> {
        self.sanitize_schedule(compiled);
        Arc::new(ThreadedPlan::compile(&compiled.schedule))
    }

    /// Ensures the persistent pool covers `n_workers` threads, creating
    /// or growing it as needed (a poisoned pool is also replaced).
    fn ensure_pool(&mut self, n_workers: usize) {
        let stale = self
            .pool
            .as_ref()
            .is_none_or(|p| p.size() < n_workers || p.is_poisoned());
        if stale {
            self.pool = Some(WorkerPool::new(self.threads().max(n_workers)));
        }
    }

    /// The tail every real-engine pass shares: checks the pass's
    /// recorded event logs against `compiled`'s happens-before order
    /// ([`Driver::sanitize_hb`]), then folds its measured wall-clock
    /// phases into the simulated timeline — each worker's
    /// compute/rotation spans land in the trace at the current barrier,
    /// and every clock advances by the pass's wall time, so real passes
    /// serialize on the virtual timeline like simulated ones.
    fn absorb_pass(
        &mut self,
        loop_name: &str,
        blocks: &CompiledBlocks,
        events: &[Vec<HbEvent>],
        context: &str,
        spans: &[Vec<ThreadSpan>],
        wall_ns: u64,
    ) {
        self.sanitize_hb(loop_name, blocks, events, context);
        let base = self.executor.clocks.barrier();
        for (w, worker_spans) in spans.iter().enumerate() {
            let machine = self.executor.cluster.machine_of(w);
            for s in worker_spans {
                let cat = match s.phase {
                    ThreadPhase::Compute => SpanCat::Compute,
                    ThreadPhase::Rotation => SpanCat::Rotation,
                };
                self.executor.trace.record(
                    cat,
                    machine,
                    w,
                    base.as_nanos() + s.start_ns,
                    base.as_nanos() + s.end_ns,
                    0,
                    0,
                );
            }
        }
        let end = base + VirtualTime::from_nanos(wall_ns);
        for w in 0..self.executor.cluster.n_workers() {
            self.executor.clocks.wait_until(w, end);
        }
    }

    /// Runs one epoch of a distributed pass over a live
    /// [`orion_net::Coordinator`] cluster: broadcasts the epoch start,
    /// routes server-mode traffic (prefetch requests, buffered updates)
    /// through `handler`, and waits for every node's epoch barrier
    /// contribution. Each node's self-reported compute/rotation times
    /// are absorbed into the driver's virtual-time trace as real-time
    /// spans, and the epoch's real per-link wire bytes are accumulated
    /// for [`Driver::run_report`].
    ///
    /// The driver's [`ClusterSpec`] must have one worker per node
    /// process (`ClusterSpec::new(n_nodes, 1)`), so node `i`'s spans
    /// land on machine `i` — the coordinator itself appears as machine
    /// `n_nodes` in the link table, mirroring the wire protocol's
    /// destination convention.
    ///
    /// On a node fault the epoch's effects are *not* absorbed; the
    /// caller recovers the cluster ([`orion_net::Coordinator::recover`])
    /// and rewinds its own bookkeeping ([`Driver::rollback_progress`]).
    /// With validation on, the per-node [`HbEvent`] logs the nodes
    /// attach to their epoch barrier contributions are checked against
    /// `compiled`'s happens-before order (O110–O112); un-instrumented
    /// nodes (empty logs) skip the check.
    pub fn run_pass_distributed<F>(
        &mut self,
        compiled: &CompiledLoop,
        cluster: &mut orion_net::Coordinator,
        epoch: u64,
        handler: F,
    ) -> Result<orion_net::EpochStats, orion_net::NodeFault>
    where
        F: FnMut(usize, orion_net::Msg) -> Option<orion_net::Msg>,
    {
        let stats = cluster.run_epoch_with(epoch, handler)?;
        let spans: Vec<Vec<ThreadSpan>> = stats
            .compute_ns
            .iter()
            .zip(&stats.rotation_ns)
            .map(|(&compute, &rotation)| {
                vec![
                    ThreadSpan {
                        phase: ThreadPhase::Compute,
                        start_ns: 0,
                        end_ns: compute,
                    },
                    ThreadSpan {
                        phase: ThreadPhase::Rotation,
                        start_ns: compute,
                        end_ns: compute + rotation,
                    },
                ]
            })
            .collect();
        self.absorb_pass(
            &compiled.spec.name,
            &compiled.schedule.blocks,
            &stats.events,
            &format!("epoch {epoch}"),
            &spans,
            stats.wall_ns,
        );
        self.wire_links
            .extend(stats.links.iter().map(|l| LinkBytes {
                src_machine: l.src,
                dst_machine: l.dst,
                bytes: l.bytes,
                messages: l.messages,
            }));
        Ok(stats)
    }

    /// Executes one pass of a grid (2-D) schedule on real cores: space
    /// partitions pinned per worker, time partitions rotated zero-copy
    /// through channels (paper Fig. 8). Results are bit-identical to
    /// [`Driver::run_pass`] over the same schedule.
    ///
    /// # Panics
    ///
    /// Panics if partition counts mismatch `plan` or a worker dies
    /// mid-pass (with the worker's panic message).
    /// Under validation the pass's recorded [`HbEvent`] logs are fed to
    /// the loop's happens-before checker (`loop_name` keys the checker
    /// registered by [`Driver::parallel_for`]): every conflicting
    /// access pair must be ordered by a handoff or barrier edge, else
    /// the pass panics with a rendered O110–O112 diagnostic.
    #[allow(clippy::too_many_arguments)]
    pub fn run_pass_threaded<T, A, B, S, F>(
        &mut self,
        loop_name: &str,
        plan: &Arc<ThreadedPlan>,
        items: &Arc<Vec<T>>,
        space: Vec<DistArray<A>>,
        time: Vec<DistArray<B>>,
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
        self.ensure_pool(plan.n_workers());
        let pool = self.pool.as_ref().expect("pool just ensured");
        let out = run_grid_pass_pooled(pool, plan, items, space, time, scratch, body);
        self.absorb_pass(
            loop_name,
            plan.blocks(),
            &out.events,
            "threaded pass",
            &out.spans,
            out.wall_ns,
        );
        out
    }

    /// Reads a per-item `f64` on real cores — the driver-side readout of
    /// a §3.4 accumulator such as the training loss of Fig. 5 — and
    /// returns `items.iter().fold(init, |acc, t| acc + term(t, ctx))`
    /// bit for bit, whatever the worker count: each of `plan`'s workers
    /// evaluates one contiguous item range and the fold runs in item
    /// order ([`orion_runtime::run_readout_pooled`]). `ctx` is what the
    /// terms read (typically the model merged from the pass's
    /// partitions); `init` is where the serial fold starts.
    ///
    /// The virtual timeline does not advance: like every engine's
    /// driver-side metric evaluation, the readout is not part of the
    /// pass, and progress points keep pass wall time only.
    ///
    /// Under validation the result is cross-checked against `serial`,
    /// the caller's serial readout of the same state (not called
    /// otherwise).
    ///
    /// # Panics
    ///
    /// Panics if a worker dies (with the worker's panic message) or —
    /// under validation — if the pooled and serial readouts differ in
    /// any bit.
    pub fn eval_pass<T, C, F>(
        &mut self,
        plan: &ThreadedPlan,
        items: &Arc<Vec<T>>,
        ctx: &Arc<C>,
        term: &Arc<F>,
        init: f64,
        serial: impl FnOnce() -> f64,
    ) -> f64
    where
        T: Send + Sync + 'static,
        C: Send + Sync + 'static,
        F: Fn(&T, &C) -> f64 + Send + Sync + 'static,
    {
        self.ensure_pool(plan.n_workers());
        let pool = self.pool.as_ref().expect("pool just ensured");
        let terms = &mut self.readout_terms;
        let sum = run_readout_pooled(pool, plan.n_workers(), items, ctx, terms, term, init);
        self.check_readout(sum, serial);
        sum
    }

    /// Under validation, cross-checks a metric read on the worker pool
    /// against the caller's `serial` readout of the same state (not
    /// called otherwise).
    ///
    /// # Panics
    ///
    /// Panics — under validation — if the two differ in any bit.
    pub fn check_readout(&self, pooled: f64, serial: impl FnOnce() -> f64) {
        if self.validate {
            let expected = serial();
            assert!(
                pooled.to_bits() == expected.to_bits(),
                "pooled readout {pooled:e} ({:#018x}) differs from the serial readout \
                 {expected:e} ({:#018x})",
                pooled.to_bits(),
                expected.to_bits()
            );
        }
    }

    /// Executes one pass of a 1-D / fully-parallel schedule on real
    /// cores; each worker's scratch carries its partition of the model
    /// state (or a write buffer for buffered loops).
    ///
    /// # Panics
    ///
    /// Panics if the scratch count mismatches `plan` or a worker dies
    /// mid-pass (with the worker's panic message).
    pub fn run_pass_threaded_one_d<T, S, F>(
        &mut self,
        loop_name: &str,
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
        self.ensure_pool(plan.n_workers());
        let pool = self.pool.as_ref().expect("pool just ensured");
        let out = run_one_d_pass_pooled(pool, plan, items, scratch, body);
        self.absorb_pass(
            loop_name,
            plan.blocks(),
            &out.events,
            "threaded pass",
            &out.spans,
            out.wall_ns,
        );
        out
    }

    /// Models a data-parallel buffer flush: every worker ships `up_bytes`
    /// and receives `down_bytes`, then synchronizes (§3.3 buffered
    /// writes reaching the DistArray).
    pub fn sync_exchange(&mut self, up_bytes: u64, down_bytes: u64) -> VirtualTime {
        self.executor.sync_exchange(up_bytes, down_bytes)
    }

    /// Installs a fault plan on the simulated cluster (crashes,
    /// stragglers, link faults). Pair with [`Driver::run_pass_checked`]
    /// to detect and recover from the scripted crashes.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.executor.set_fault_plan(plan);
    }

    /// Fault-handling accounting so far.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Like [`Driver::run_pass`], but afterwards checks the fault plan
    /// for a machine crash during the pass. On a crash, the pass's
    /// results must be discarded by the caller: the failure is detected
    /// at the pass barrier after `barrier_timeout` of missing progress,
    /// a `Fault` span covers the detection window on every worker, and
    /// the returned [`FaultEvent`] must be fed to
    /// [`Driver::complete_recovery`] after the caller restores model
    /// state from its latest checkpoint.
    pub fn run_pass_checked(
        &mut self,
        compiled: &CompiledLoop,
        cost: &mut dyn FnMut(usize) -> f64,
        body: &mut dyn FnMut(usize, usize),
    ) -> (PassStats, Option<FaultEvent>) {
        let stats = self.run_pass(compiled, cost, body);
        let Some(crash) = self.executor.take_crash_before(stats.end) else {
            return (stats, None);
        };
        let detected = stats.end + self.recovery_cfg.barrier_timeout;
        self.stall_all(SpanCat::Fault, detected, 0, crash.machine as u64);
        self.recovery.crashes += 1;
        self.recovery.fault_ns += detected.saturating_sub(stats.end).as_nanos();
        let ev = FaultEvent {
            machine: crash.machine,
            at: crash.at,
            detected_at: detected,
            restart_delay: crash.restart_delay,
        };
        (stats, Some(ev))
    }

    /// Stalls every worker until `until`, recording a `cat` span from the
    /// worker's own clock to `until` on each.
    fn stall_all(&mut self, cat: SpanCat, until: VirtualTime, bytes: u64, arg: u64) {
        let ex = &mut self.executor;
        for w in 0..ex.cluster.n_workers() {
            let (machine, from) = (ex.cluster.machine_of(w), ex.clocks.get(w).as_nanos());
            ex.trace
                .record(cat, machine, w, from, until.as_nanos(), bytes, arg);
            ex.clocks.wait_until(w, until);
        }
    }

    /// Finishes recovering from `ev` after the caller reloaded
    /// `reload_bytes` of checkpoint state: charges the machine restart
    /// delay plus checkpoint-reload disk time, records a `Recovery` span
    /// on every worker, and returns the instant re-execution resumes.
    pub fn complete_recovery(&mut self, ev: &FaultEvent, reload_bytes: u64) -> VirtualTime {
        let from = self.executor.clocks.barrier();
        let recovered = from + ev.restart_delay + self.recovery_cfg.io_time(reload_bytes);
        self.stall_all(
            SpanCat::Recovery,
            recovered,
            reload_bytes,
            ev.machine as u64,
        );
        self.executor.net.release_nics(recovered);
        self.recovery.recovery_ns += recovered.saturating_sub(from).as_nanos();
        recovered
    }

    /// Charges the virtual time of writing a `bytes`-sized checkpoint
    /// (all workers stall while parameter state drains to disk) and
    /// records a `Checkpoint` span on every worker.
    pub fn charge_checkpoint(&mut self, bytes: u64) -> VirtualTime {
        let from = self.executor.clocks.barrier();
        let done = from + self.recovery_cfg.io_time(bytes);
        self.stall_all(SpanCat::Checkpoint, done, bytes, 0);
        self.executor.net.release_nics(done);
        self.recovery.checkpoints_written += 1;
        self.recovery.checkpoint_bytes += bytes;
        self.recovery.checkpoint_ns += done.saturating_sub(from).as_nanos();
        done
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.executor.now()
    }

    /// Records a convergence observation (driver-side metric evaluation,
    /// like the `err` accumulator readout of Fig. 5).
    pub fn record_progress(&mut self, iteration: u64, metric: f64) {
        let time = self.now();
        self.stats.progress.push(orion_sim::ProgressPoint {
            iteration,
            time,
            metric,
        });
    }

    /// Discards progress points of passes that will re-execute after a
    /// rollback (`iteration >= from_pass`), so the recovered run's
    /// progress curve has exactly one point per pass.
    pub fn rollback_progress(&mut self, from_pass: u64) {
        self.stats.progress.retain(|p| p.iteration < from_pass);
    }

    /// Consumes the driver and returns the accumulated run statistics
    /// (progress curve, network traffic, bandwidth trace).
    pub fn finish(self) -> RunStats {
        let mut stats = self.stats;
        stats.total_bytes = self.executor.net.total_bytes();
        stats.n_messages = self.executor.net.n_messages() as u64;
        // Bin the bandwidth trace into ~50 windows over the run.
        let horizon = self.executor.clocks.max();
        let bin = VirtualTime::from_nanos((horizon.as_nanos() / 50).max(1_000_000));
        stats.bandwidth = self.executor.net.bandwidth_trace(bin);
        stats
    }

    /// Renders the Fig. 6-style compilation report of a compiled loop:
    /// the plan summary plus every `orion-check` lint, rustc-style.
    pub fn report(&self, compiled: &CompiledLoop) -> String {
        full_report(
            &compiled.spec,
            &self.metas,
            &compiled.plan,
            Some(&compiled.schedule),
        )
    }

    /// Turns on span tracing with a pre-sized buffer (see `orion-trace`).
    /// Call before the first pass; when off (the default) every record
    /// site is a single branch.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.executor.trace.enable(capacity);
    }

    /// Snapshots the traced run — executor spans plus every wire transfer
    /// from the network log — as an owned session for Perfetto export
    /// (`orion_trace::write_perfetto`). Empty when tracing is off.
    pub fn trace_session(&self, name: &str) -> OwnedSession {
        OwnedSession {
            name: name.to_string(),
            n_machines: self.executor.cluster.n_machines,
            workers_per_machine: self.executor.cluster.workers_per_machine,
            spans: self.executor.trace.spans().to_vec(),
            transfers: self
                .executor
                .net
                .log()
                .iter()
                .map(|m| Transfer {
                    src_machine: m.src_machine as u32,
                    dst_machine: m.dst_machine as u32,
                    bytes: m.bytes,
                    depart_ns: m.depart.as_nanos(),
                    arrive_ns: m.arrive.as_nanos(),
                })
                .collect(),
        }
    }

    /// Builds the [`RunReport`]: phase totals from the recorded spans,
    /// per-link traffic from the network, per-array byte attribution from
    /// `compiled`'s placement estimates (scaled to passes actually run is
    /// the caller's concern — these are per-pass estimates), and the
    /// scheduler's load balance.
    pub fn run_report(&self, compiled: &CompiledLoop) -> RunReport {
        // Simulated (modelled) traffic and real wire bytes from
        // distributed passes, aggregated per directed link.
        let links = orion_trace::merge_links(
            self.executor
                .net
                .per_link()
                .into_iter()
                .map(|l| LinkBytes {
                    src_machine: l.src_machine,
                    dst_machine: l.dst_machine,
                    bytes: l.bytes,
                    messages: l.messages,
                })
                .chain(self.wire_links.iter().copied()),
        );
        let bytes_by_array = compiled
            .plan
            .placements
            .iter()
            .filter(|p| p.est_bytes_per_pass > 0)
            .map(|p| {
                let name = self
                    .metas
                    .iter()
                    .find(|m| m.id == p.array)
                    .map_or_else(|| format!("{}", p.array), |m| m.name.clone());
                (name, p.est_bytes_per_pass)
            })
            .collect();
        RunReport::build(
            self.now().as_nanos(),
            self.executor.trace.spans(),
            self.executor.cluster.n_workers(),
            self.executor.cluster.workers_per_machine,
            links,
            bytes_by_array,
            LoadStats::new(compiled.schedule.worker_loads()),
        )
    }

    /// Consumes the driver and returns the run statistics together with
    /// the traced session (for Perfetto export) and the run report.
    /// Equivalent to [`Driver::finish`] plus the two trace artifacts.
    pub fn finish_traced(
        self,
        name: &str,
        compiled: &CompiledLoop,
    ) -> (RunStats, OwnedSession, RunReport) {
        let session = self.trace_session(name);
        let report = self.run_report(compiled);
        (self.finish(), session, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_ir::Subscript;

    fn ratings() -> DistArray<f32> {
        DistArray::sparse_from(
            "ratings",
            vec![16, 12],
            (0..48).map(|k| (vec![k % 16, (k * 5) % 12], 1.0 + k as f32)),
        )
    }

    #[test]
    fn register_assigns_sequential_ids() {
        let mut d = Driver::new(ClusterSpec::serial());
        let a: DistArray<f32> = DistArray::dense("a", vec![4]);
        let b: DistArray<u32> = DistArray::sparse("b", vec![4, 4]);
        assert_eq!(d.register(&a), DistArrayId(0));
        assert_eq!(d.register(&b), DistArrayId(1));
        assert_eq!(d.metas().len(), 2);
        assert_eq!(d.metas()[1].name, "b");
    }

    #[test]
    fn mf_loop_compiles_to_2d_unordered() {
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let (c, _items) = mf_compiled(&mut d);
        assert!(matches!(
            c.strategy(),
            Strategy::TwoD { ordered: false, .. }
        ));
        assert!(c.comm.rotated_bytes > 0);
        let rep = d.report(&c);
        assert!(rep.contains("2D Unordered"));
    }

    fn mf_compiled(d: &mut Driver) -> (CompiledLoop, Vec<(Vec<i64>, f32)>) {
        let z = ratings();
        let w: DistArray<f32> = DistArray::dense("W", vec![16, 8]);
        let h: DistArray<f32> = DistArray::dense("H", vec![12, 8]);
        let z_id = d.register(&z);
        let w_id = d.register(&w);
        let h_id = d.register(&h);
        let spec = LoopSpec::builder("sgd_mf", z_id, vec![16, 12])
            .read_write(w_id, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h_id, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        (c, items)
    }

    #[test]
    fn tuned_loop_runs_under_the_sanitizer_and_is_bit_identical_across_runs() {
        // Same schedule => same execution order => same float results.
        let run = || {
            let mut d = Driver::new(ClusterSpec::new(2, 2));
            let (c, items) = mf_compiled(&mut d);
            let (c, outcome) = d.tune_loop(&c, &items, &TuneConfig::default(), &mut |_| 75.0);
            assert!(outcome.candidates_evaluated >= 2);
            assert!(outcome.chosen.measured_ns <= outcome.baseline.measured_ns);
            // Validation is on in test builds (`Driver::validate_by_default`),
            // so every pass of the swapped-in schedule is fed to the O100
            // sanitizer.
            assert!(Driver::validate_by_default());
            let mut acc = vec![0.0f32; 16];
            for _ in 0..3 {
                let stats = d.run_pass(&c, &mut |_| 75.0, &mut |_w, pos| {
                    let (idx, v) = &items[pos];
                    acc[idx[0] as usize] += v * 0.5 + acc[idx[0] as usize] * 1e-3;
                });
                assert_eq!(stats.iterations, items.len() as u64);
            }
            (acc, c.schedule.n_workers, c.plan.strategy.clone(), outcome)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_pass_executes_advances_time_and_reports_untraced() {
        let z = ratings();
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let z_id = d.register(&z);
        let mut a: DistArray<f32> = DistArray::dense("a", vec![16, 1]);
        let a_id = d.register(&a);
        let spec = LoopSpec::builder("agg", z_id, vec![16, 12])
            .read_write(a_id, vec![Subscript::loop_index(0), Subscript::Constant(0)])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        let stats = d.run_pass(&c, &mut |_| 50.0, &mut |_w, pos| {
            let (idx, v) = &items[pos];
            a.update(&[idx[0], 0], |x| *x += v);
        });
        assert_eq!(stats.iterations, 48);
        assert!(d.now() > VirtualTime::ZERO);
        let total: f32 = a.iter().map(|(_, &v)| v).sum();
        let expect: f32 = items.iter().map(|(_, v)| v).sum();
        assert_eq!(total, expect);
        // Untraced: no spans are recorded, but the report still carries
        // traffic and load.
        let report = d.run_report(&c);
        assert!(report.wall_ns > 0);
        assert_eq!(report.load.per_worker_items.iter().sum::<u64>(), 48);
        assert!(d.trace_session("x").spans.is_empty());
    }

    #[test]
    fn progress_recording_lands_in_stats() {
        let mut d = Driver::new(ClusterSpec::serial());
        d.record_progress(0, 10.0);
        d.record_progress(1, 5.0);
        let stats = d.finish();
        assert_eq!(stats.progress.len(), 2);
        assert_eq!(stats.progress[1].metric, 5.0);
    }

    #[test]
    fn traced_run_yields_coverage_and_report() {
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let (c, _items) = mf_compiled(&mut d);
        d.enable_tracing(1024);
        for _ in 0..2 {
            d.run_pass(&c, &mut |_| 500.0, &mut |_, _| {});
        }
        let (stats, session, report) = d.finish_traced("orion", &c);
        assert!(stats.total_bytes > 0);
        assert!(!session.spans.is_empty());
        assert!(!session.transfers.is_empty(), "net log feeds the session");
        // Acceptance: phase totals tile each executor's timeline within 1%.
        assert!(
            report.min_worker_coverage() >= 0.99,
            "coverage {}",
            report.min_worker_coverage()
        );
        assert!(report.critical_path_ns > 0);
        assert!(report.critical_path_ns <= report.wall_ns);
        assert_eq!(report.total_link_bytes(), stats.total_bytes);
        assert_eq!(report.load.per_worker_items.iter().sum::<u64>(), 48);
        // Rotated placement attributes bytes to W or H.
        assert!(!report.bytes_by_array.is_empty());
    }

    #[test]
    #[should_panic(expected = "O100")]
    fn sanitizer_catches_a_deliberately_conflicting_schedule() {
        // Compile a sound loop, then swap in a schedule that ignores
        // the dependence analysis: every iteration writes H row 0, but
        // the 1D-by-i0 schedule runs them concurrently.
        use orion_runtime::build_schedule;
        let z: DistArray<f32> =
            DistArray::sparse_from("z", vec![8, 1], (0..8).map(|i| (vec![i, 0], 1.0)));
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let z_id = d.register(&z);
        let h: DistArray<f32> = DistArray::dense("H", vec![1, 4]);
        let h_id = d.register(&h);
        let spec = LoopSpec::builder("deliberate_conflict", z_id, vec![8, 1])
            .read_write(h_id, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let mut c = d.parallel_for(spec, &items).unwrap();
        let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        c.schedule = build_schedule(&Strategy::OneD { dim: 0 }, &indices, &[8, 1], 4);
        d.run_pass(&c, &mut |_| 10.0, &mut |_, _| {});
    }

    #[test]
    fn sanitizer_stays_quiet_on_compiled_schedules() {
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        assert!(d.validating());
        let (c, _items) = mf_compiled(&mut d);
        for _ in 0..3 {
            d.run_pass(&c, &mut |_| 10.0, &mut |_, _| {});
        }
    }

    #[test]
    fn report_includes_lints_for_served_arrays() {
        // SLR-shaped loop: unknown subscripts, buffered writes, served
        // placement — the report carries the O004 note alongside O000.
        let z: DistArray<f32> =
            DistArray::sparse_from("samples", vec![32], (0..32).map(|i| (vec![i], 1.0)));
        let mut d = Driver::new(ClusterSpec::new(2, 2));
        let z_id = d.register(&z);
        let wts: DistArray<f32> = DistArray::dense("weights", vec![64]);
        let w_id = d.register(&wts);
        let spec = LoopSpec::builder("slr_sgd", z_id, vec![32])
            .read(w_id, vec![Subscript::unknown()])
            .write(w_id, vec![Subscript::unknown()])
            .buffer_writes(w_id)
            .build()
            .unwrap();
        let items: Vec<(Vec<i64>, f32)> = z.iter().map(|(i, &v)| (i, v)).collect();
        let c = d.parallel_for(spec, &items).unwrap();
        let rep = d.report(&c);
        assert!(rep.contains("note[O000]:"), "{rep}");
        assert!(rep.contains("[O004]"), "{rep}");
        assert!(rep.contains("weights"), "{rep}");
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut d = Driver::new(ClusterSpec::serial());
        let z: DistArray<f32> = DistArray::sparse_from("z", vec![4], vec![(vec![0], 1.0)]);
        let z_id = d.register(&z);
        let a: DistArray<f32> = DistArray::dense("a", vec![4]);
        let a_id = d.register(&a);
        let spec_result = LoopSpec::builder("bad", z_id, vec![4])
            .read(a_id, vec![Subscript::loop_index(3)])
            .build();
        assert!(spec_result.is_err());
    }
}
