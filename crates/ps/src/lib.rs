//! A Bösen-like parameter server \[45\]: the manually data-parallel
//! baseline the paper compares against (§6.4, Figs. 9b/9c/10, 12).
//!
//! Under data parallelism, every worker processes a shard of the data
//! against a *stale snapshot* of the parameters plus its own local
//! updates; the master copy is refreshed at synchronization barriers.
//! Conflicting concurrent updates violate data dependence, which is
//! exactly the per-iteration convergence penalty the paper quantifies.
//!
//! Two Bösen features are modeled faithfully:
//!
//! - **Managed communication (CM)**: given a per-machine bandwidth
//!   budget, workers proactively ship their *largest* pending updates
//!   before the barrier and receive fresh values mid-pass, trading
//!   bandwidth for staleness (Fig. 12's higher bandwidth usage);
//! - **Adaptive revision (AdaRev \[34\])**: the server applies updates
//!   with an AdaGrad-style per-parameter step size plus a delay-based
//!   damping of late updates, improving convergence under staleness.
//!
//! The baseline has no fault path: crashes, stragglers and recovery run
//! on Orion's driver only (`docs/FAULTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use orion_sim::{ClusterSpec, ProgressPoint, RunStats, SimNet, VirtualTime, WorkerClocks};
use orion_trace::{OwnedSession, SpanCat, Tracer, Transfer};

/// Accumulated updates keyed by parameter index.
#[derive(Debug, Clone, Default)]
pub struct UpdateLog {
    map: BTreeMap<u32, f32>,
}

impl UpdateLog {
    /// Adds `delta` to parameter `p`'s pending update.
    pub fn add(&mut self, p: u32, delta: f32) {
        *self.map.entry(p).or_insert(0.0) += delta;
    }

    /// Pending delta of parameter `p` (zero when absent).
    pub fn get(&self, p: u32) -> f32 {
        self.map.get(&p).copied().unwrap_or(0.0)
    }

    /// Number of pending parameters.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drains everything in key order.
    pub fn drain(&mut self) -> Vec<(u32, f32)> {
        std::mem::take(&mut self.map).into_iter().collect()
    }

    /// Drains the `k` largest-magnitude updates (CM prioritization).
    pub fn drain_largest(&mut self, k: usize) -> Vec<(u32, f32)> {
        if k >= self.map.len() {
            return self.drain();
        }
        let mut keys: Vec<(u32, f32)> = self.map.iter().map(|(&p, &v)| (p, v)).collect();
        keys.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
        keys.truncate(k);
        keys.iter()
            .map(|&(p, _)| (p, self.map.remove(&p).expect("key pending")))
            .collect()
    }
}

/// A worker's view of the parameters: the shared (possibly stale)
/// snapshot corrected by the worker's own pending updates, scaled by the
/// base learning rate — data-parallel workers see their own progress
/// immediately but other workers' only after synchronization.
#[derive(Debug, Clone, Copy)]
pub struct PsView<'a> {
    snapshot: &'a [f32],
    local: &'a UpdateLog,
    local_scale: f32,
}

impl PsView<'_> {
    /// Reads parameter `p` through the view.
    pub fn get(&self, p: u32) -> f32 {
        self.snapshot[p as usize] + self.local.get(p) * self.local_scale
    }
}

/// A data-parallel training application runnable on the parameter server.
pub trait PsApp {
    /// Total number of (flattened) parameters.
    fn n_params(&self) -> usize;

    /// Initial parameter values.
    fn init_params(&self) -> Vec<f32>;

    /// Number of data items (mini-batches of size one).
    fn n_items(&self) -> usize;

    /// Declared compute nanoseconds of one item.
    fn item_cost_ns(&self, item: usize) -> f64;

    /// Computes the (negative-gradient) updates of one item under the
    /// given parameter view, accumulating into `out`. Updates are in
    /// "descent direction" units: the server applies
    /// `param += step * update`.
    fn update(&self, item: usize, view: &PsView<'_>, out: &mut UpdateLog);

    /// Full objective under the given parameters (lower is better).
    fn loss(&self, params: &[f32]) -> f64;
}

/// Managed-communication configuration.
#[derive(Debug, Clone, Copy)]
pub struct CmConfig {
    /// Per-machine bandwidth budget in Mbps (the paper assigns 1600 for
    /// SGD MF and 2560 for LDA).
    pub budget_mbps: f64,
    /// Mid-pass communication rounds per data pass.
    pub rounds_per_pass: usize,
}

/// Parameter-server engine configuration.
#[derive(Debug, Clone)]
pub struct PsConfig {
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Base learning rate (meaning defined by the app's update units).
    pub learning_rate: f32,
    /// Managed communication, if enabled.
    pub managed: Option<CmConfig>,
    /// AdaGrad-style adaptive revision at the server.
    pub adaptive_revision: bool,
}

impl PsConfig {
    /// Vanilla Bösen data parallelism: synchronize once per pass.
    pub fn vanilla(cluster: ClusterSpec, learning_rate: f32) -> Self {
        PsConfig {
            cluster,
            learning_rate,
            managed: None,
            adaptive_revision: false,
        }
    }
}

/// The parameter-server engine: master parameters plus simulation state.
pub struct PsEngine<A: PsApp> {
    app: A,
    cfg: PsConfig,
    params: Vec<f32>,
    /// AdaGrad accumulators (squared update sums), when adaptive.
    z2: Vec<f32>,
    /// Count of server applications since each parameter was last
    /// broadcast — the staleness signal AdaRev damps by.
    staleness: Vec<u32>,
    snapshot: Vec<f32>,
    shards: Vec<Vec<usize>>,
    clocks: WorkerClocks,
    net: SimNet,
    stats: RunStats,
    /// Span recorder (disabled by default; see `orion-trace`).
    trace: Tracer,
    pass: u64,
}

/// Wire bytes of one sparse update or parameter value (index + f32).
const UPDATE_WIRE_BYTES: u64 = 12;

impl<A: PsApp> PsEngine<A> {
    /// Creates the engine, sharding items round-robin across workers.
    pub fn new(app: A, cfg: PsConfig) -> Self {
        let n_workers = cfg.cluster.n_workers();
        let params = app.init_params();
        assert_eq!(params.len(), app.n_params(), "init/param size mismatch");
        let mut shards = vec![Vec::new(); n_workers];
        for item in 0..app.n_items() {
            shards[item % n_workers].push(item);
        }
        let snapshot = params.clone();
        let n = params.len();
        PsEngine {
            app,
            params,
            z2: vec![0.0; n],
            staleness: vec![0; n],
            snapshot,
            shards,
            clocks: WorkerClocks::new(n_workers),
            net: SimNet::new(&cfg.cluster),
            stats: RunStats::default(),
            trace: Tracer::default(),
            cfg,
            pass: 0,
        }
    }

    /// Turns on span tracing with a pre-sized buffer.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// Snapshots the traced run for Perfetto export. Empty when tracing
    /// is off.
    pub fn trace_session(&self, name: &str) -> OwnedSession {
        OwnedSession {
            name: name.to_string(),
            n_machines: self.cfg.cluster.n_machines,
            workers_per_machine: self.cfg.cluster.workers_per_machine,
            spans: self.trace.spans().to_vec(),
            transfers: self
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

    /// The current master parameters.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.clocks.max()
    }

    /// Applies one update batch at the server.
    fn apply_at_server(&mut self, updates: &[(u32, f32)]) {
        for &(p, g) in updates {
            let step = if self.cfg.adaptive_revision {
                self.z2[p as usize] += g * g;
                // AdaGrad step with AdaRev-style damping of stale
                // updates: the more server applications this parameter
                // received since the sender last saw it, the smaller the
                // revision-corrected step.
                let ada = self.cfg.learning_rate / (1.0 + self.z2[p as usize]).sqrt();
                ada / (1.0 + 0.1 * (self.staleness[p as usize] as f32).sqrt())
            } else {
                self.cfg.learning_rate
            };
            self.params[p as usize] += step * g;
            self.staleness[p as usize] = self.staleness[p as usize].saturating_add(1);
        }
    }

    /// Refreshes the shared snapshot for `params` (or all when `None`),
    /// resetting their staleness counters.
    fn refresh_snapshot(&mut self, only: Option<&[u32]>) {
        match only {
            None => {
                self.snapshot.copy_from_slice(&self.params);
                self.staleness.fill(0);
            }
            Some(ps) => {
                for &p in ps {
                    self.snapshot[p as usize] = self.params[p as usize];
                    self.staleness[p as usize] = 0;
                }
            }
        }
    }

    /// Runs one data pass (all workers process their whole shard), with
    /// mid-pass managed communication when configured, then a global
    /// synchronization. Records a progress point with the post-pass loss.
    pub fn run_pass(&mut self) {
        let n_workers = self.clocks.n_workers();
        let rounds = self.cfg.managed.map(|m| m.rounds_per_pass).unwrap_or(1);
        let mut pending: Vec<UpdateLog> = vec![UpdateLog::default(); n_workers];
        let local_scale = if self.cfg.adaptive_revision {
            // Workers approximate the server's adaptive step with the
            // base rate for their own local corrections.
            self.cfg.learning_rate
        } else {
            self.cfg.learning_rate
        };

        for round in 0..rounds {
            // Compute this round's slice of every shard.
            for (w, pend) in pending.iter_mut().enumerate() {
                let shard = &self.shards[w];
                let lo = shard.len() * round / rounds;
                let hi = shard.len() * (round + 1) / rounds;
                let mut cost = 0.0f64;
                let mut local = std::mem::take(pend);
                let mut scratch = UpdateLog::default();
                for &item in &shard[lo..hi] {
                    let view = PsView {
                        snapshot: &self.snapshot,
                        local: &local,
                        local_scale,
                    };
                    self.app.update(item, &view, &mut scratch);
                    for (p, g) in scratch.drain() {
                        local.add(p, g);
                    }
                    cost += self.app.item_cost_ns(item);
                }
                *pend = local;
                let dt = self.cfg.cluster.compute_time(cost);
                let compute_from = self.clocks.get(w);
                self.clocks.advance(w, dt);
                self.trace.record(
                    SpanCat::Compute,
                    self.cfg.cluster.machine_of(w),
                    w,
                    compute_from.as_nanos(),
                    self.clocks.get(w).as_nanos(),
                    0,
                    round as u64,
                );
            }

            // Mid-pass managed communication (not after the last round —
            // that is the barrier).
            if round + 1 < rounds {
                if let Some(cm) = self.cfg.managed {
                    self.managed_round(&mut pending, cm);
                }
            }
        }

        // Pass-end synchronization: ship everything, apply, broadcast.
        let mut up_total = 0u64;
        for (w, pend) in pending.iter_mut().enumerate() {
            let ups = pend.drain();
            let bytes = ups.len() as u64 * UPDATE_WIRE_BYTES;
            up_total += bytes;
            let flush_from = self.clocks.get(w);
            let t = flush_from + self.cfg.cluster.marshal_time(bytes);
            let server = self.server_for(w);
            let arrive = self.net.send(&self.cfg.cluster, w, server, bytes, t);
            self.clocks.wait_until(w, arrive);
            self.trace.record(
                SpanCat::Flush,
                self.cfg.cluster.machine_of(w),
                w,
                flush_from.as_nanos(),
                self.clocks.get(w).as_nanos(),
                bytes,
                server as u64,
            );
            // Server-side apply of the shipped updates, on the serving
            // machine's server track.
            self.trace.record(
                SpanCat::Server,
                self.cfg.cluster.machine_of(server),
                server,
                arrive.as_nanos(),
                (arrive + self.cfg.cluster.marshal_time(bytes)).as_nanos(),
                bytes,
                w as u64,
            );
            self.apply_at_server(&ups);
        }
        // Broadcast fresh values (changed params ~ all touched params;
        // approximate with the same volume as the inbound updates).
        for w in 0..n_workers {
            let server = self.server_for(w);
            let t = self.clocks.get(w);
            let down_bytes = up_total / n_workers as u64;
            let down = self.net.send(&self.cfg.cluster, server, w, down_bytes, t);
            self.clocks.wait_until(w, down);
            // Unmarshal + apply the fresh values.
            self.clocks
                .advance(w, self.cfg.cluster.marshal_time(down_bytes));
            self.trace.record(
                SpanCat::Flush,
                self.cfg.cluster.machine_of(w),
                w,
                t.as_nanos(),
                self.clocks.get(w).as_nanos(),
                down_bytes,
                server as u64,
            );
        }
        self.refresh_snapshot(None);
        if self.trace.is_enabled() {
            let end = self.clocks.max();
            for w in 0..n_workers {
                let t = self.clocks.get(w);
                self.trace.record(
                    SpanCat::Barrier,
                    self.cfg.cluster.machine_of(w),
                    w,
                    t.as_nanos(),
                    end.as_nanos(),
                    0,
                    self.pass,
                );
            }
        }
        let end = self.clocks.barrier();
        self.net.release_nics(end);

        self.pass += 1;
        let metric = self.app.loss(&self.params);
        self.stats.progress.push(ProgressPoint {
            iteration: self.pass - 1,
            time: end,
            metric,
        });
    }

    /// One managed-communication round: each worker ships its largest
    /// pending updates within the bandwidth budget; the server applies
    /// them and broadcasts the fresh values.
    fn managed_round(&mut self, pending: &mut [UpdateLog], cm: CmConfig) {
        let n_workers = self.clocks.n_workers();
        // Budget bytes per machine per round: budget × round wall time.
        let round_secs = {
            // Approximate with the mean per-round compute time so far.
            let elapsed = self.clocks.max().as_secs_f64();
            (elapsed / (self.pass as f64 + 1.0) / cm.rounds_per_pass as f64).max(1e-3)
        };
        let budget_bytes = (cm.budget_mbps * 1e6 / 8.0 * round_secs) as usize;
        let per_worker = budget_bytes / self.cfg.cluster.workers_per_machine.max(1);
        let k = per_worker / UPDATE_WIRE_BYTES as usize;
        let mut refreshed: Vec<u32> = Vec::new();
        for (w, pend) in pending.iter_mut().enumerate() {
            let ups = pend.drain_largest(k);
            if ups.is_empty() {
                continue;
            }
            let bytes = ups.len() as u64 * UPDATE_WIRE_BYTES;
            let flush_from = self.clocks.get(w);
            let t = flush_from + self.cfg.cluster.marshal_time(bytes);
            let server = self.server_for(w);
            let arrive = self.net.send(&self.cfg.cluster, w, server, bytes, t);
            // CM communication overlaps computation; the worker does not
            // block on it, but pays the marshalling CPU time, and the
            // co-located server process steals cycles from its host
            // worker to unmarshal and apply the updates under locks.
            let server_from = self.clocks.get(server);
            self.clocks.advance(w, self.cfg.cluster.marshal_time(bytes));
            self.clocks
                .advance(server, self.cfg.cluster.marshal_time(bytes) * 2);
            self.trace.record(
                SpanCat::Flush,
                self.cfg.cluster.machine_of(w),
                w,
                flush_from.as_nanos(),
                self.clocks.get(w).as_nanos(),
                bytes,
                server as u64,
            );
            self.trace.record(
                SpanCat::Server,
                self.cfg.cluster.machine_of(server),
                server,
                server_from.as_nanos(),
                self.clocks.get(server).as_nanos(),
                bytes,
                w as u64,
            );
            let _ = arrive;
            self.apply_at_server(&ups);
            refreshed.extend(ups.iter().map(|&(p, _)| p));
        }
        refreshed.sort_unstable();
        refreshed.dedup();
        // Broadcast fresh values of the refreshed parameters. Receivers
        // pay CPU to unmarshal and apply them under cache locks — the
        // "marshalling and lock contention" overhead the paper blames for
        // CM's reduced computation throughput (§6.4).
        let down_bytes = refreshed.len() as u64 * UPDATE_WIRE_BYTES;
        for w in 0..n_workers {
            let server = self.server_for(w);
            let t = self.clocks.get(w);
            let _ = self.net.send(&self.cfg.cluster, server, w, down_bytes, t);
            let recv_cpu = self.cfg.cluster.marshal_time(down_bytes) * 3;
            self.clocks.advance(w, recv_cpu);
            self.trace.record(
                SpanCat::Flush,
                self.cfg.cluster.machine_of(w),
                w,
                t.as_nanos(),
                self.clocks.get(w).as_nanos(),
                down_bytes,
                server as u64,
            );
        }
        self.refresh_snapshot(Some(&refreshed));
    }

    fn server_for(&self, worker: usize) -> usize {
        let m = self.cfg.cluster.machine_of(worker);
        let target = (m + 1) % self.cfg.cluster.n_machines;
        target * self.cfg.cluster.workers_per_machine
    }

    /// Finishes the run, returning statistics.
    pub fn finish(self) -> RunStats {
        let mut stats = self.stats;
        stats.total_bytes = self.net.total_bytes();
        stats.n_messages = self.net.n_messages() as u64;
        // Bin the bandwidth trace into ~50 windows over the run.
        let horizon = self.clocks.max();
        let bin = VirtualTime::from_nanos((horizon.as_nanos() / 50).max(1_000_000));
        stats.bandwidth = self.net.bandwidth_trace(bin);
        stats
    }

    /// [`PsEngine::finish`] plus the traced session for Perfetto export.
    pub fn finish_traced(self, name: &str) -> (RunStats, OwnedSession) {
        let session = self.trace_session(name);
        (self.finish(), session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quadratic toy problem: minimize Σ (params[i] - target[i])²,
    /// items touch one parameter each.
    struct Quad {
        target: Vec<f32>,
    }

    impl PsApp for Quad {
        fn n_params(&self) -> usize {
            self.target.len()
        }

        fn init_params(&self) -> Vec<f32> {
            vec![0.0; self.target.len()]
        }

        fn n_items(&self) -> usize {
            self.target.len() * 4
        }

        fn item_cost_ns(&self, _item: usize) -> f64 {
            100.0
        }

        fn update(&self, item: usize, view: &PsView<'_>, out: &mut UpdateLog) {
            let p = (item % self.target.len()) as u32;
            let grad = self.target[p as usize] - view.get(p);
            out.add(p, grad);
        }

        fn loss(&self, params: &[f32]) -> f64 {
            params
                .iter()
                .zip(&self.target)
                .map(|(&p, &t)| ((p - t) as f64).powi(2))
                .sum()
        }
    }

    fn quad() -> Quad {
        Quad {
            target: (0..32).map(|i| (i % 7) as f32 - 3.0).collect(),
        }
    }

    #[test]
    fn loss_decreases_over_passes() {
        let mut e = PsEngine::new(quad(), PsConfig::vanilla(ClusterSpec::new(2, 2), 0.2));
        let l0 = e.app.loss(e.params());
        for _ in 0..20 {
            e.run_pass();
        }
        let stats = e.finish();
        let lf = stats.final_metric().unwrap();
        assert!(lf < l0 * 0.05, "loss {lf} should be far below {l0}");
        assert!(stats.total_bytes > 0);
        assert_eq!(stats.progress.len(), 20);
    }

    #[test]
    fn more_workers_do_not_speed_up_convergence_per_pass() {
        // Staleness: 8 workers each update the same parameters from the
        // same stale snapshot — per-pass progress must not beat serial.
        let mut serial = PsEngine::new(quad(), PsConfig::vanilla(ClusterSpec::new(1, 1), 0.2));
        let mut parallel = PsEngine::new(quad(), PsConfig::vanilla(ClusterSpec::new(4, 2), 0.2));
        serial.run_pass();
        parallel.run_pass();
        let ls = serial.finish().final_metric().unwrap();
        let lp = parallel.finish().final_metric().unwrap();
        assert!(
            ls <= lp + 1e-6,
            "serial {ls} should converge at least as fast per pass as stale parallel {lp}"
        );
    }

    #[test]
    fn update_log_drain_largest() {
        let mut l = UpdateLog::default();
        l.add(3, 0.1);
        l.add(9, -5.0);
        l.add(4, 2.0);
        l.add(3, 0.1); // accumulates
        assert_eq!(l.get(3), 0.2);
        let top = l.drain_largest(2);
        assert_eq!(top, vec![(9, -5.0), (4, 2.0)]);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn managed_comm_uses_more_bandwidth() {
        let mk = |managed| {
            let mut cfg = PsConfig::vanilla(ClusterSpec::new(4, 1), 0.1);
            cfg.managed = managed;
            let mut e = PsEngine::new(quad(), cfg);
            for _ in 0..10 {
                e.run_pass();
            }
            e.finish()
        };
        let plain = mk(None);
        let cm = mk(Some(CmConfig {
            budget_mbps: 1600.0,
            rounds_per_pass: 8,
        }));
        assert!(
            cm.total_bytes > plain.total_bytes,
            "CM bytes {} must exceed vanilla {}",
            cm.total_bytes,
            plain.total_bytes
        );
    }

    #[test]
    fn traced_run_records_compute_flush_server() {
        let mut cfg = PsConfig::vanilla(ClusterSpec::new(2, 2), 0.2);
        cfg.managed = Some(CmConfig {
            budget_mbps: 1600.0,
            rounds_per_pass: 4,
        });
        let mut e = PsEngine::new(quad(), cfg);
        e.enable_tracing(1024);
        for _ in 0..3 {
            e.run_pass();
        }
        let (stats, session) = e.finish_traced("bosen");
        assert!(stats.total_bytes > 0);
        let cats: std::collections::BTreeSet<_> =
            session.spans.iter().map(|s| s.cat.name()).collect();
        assert!(cats.contains("compute"));
        assert!(cats.contains("flush"));
        assert!(cats.contains("server"));
        assert!(cats.contains("barrier"));
        assert!(!session.transfers.is_empty());
        // Tracing must not disturb the simulation: same run untraced
        // gives identical convergence and traffic.
        let mut cfg2 = PsConfig::vanilla(ClusterSpec::new(2, 2), 0.2);
        cfg2.managed = Some(CmConfig {
            budget_mbps: 1600.0,
            rounds_per_pass: 4,
        });
        let mut e2 = PsEngine::new(quad(), cfg2);
        for _ in 0..3 {
            e2.run_pass();
        }
        let stats2 = e2.finish();
        assert_eq!(stats.total_bytes, stats2.total_bytes);
        assert_eq!(stats.progress, stats2.progress);
    }

    #[test]
    fn adaptive_revision_converges() {
        let mut cfg = PsConfig::vanilla(ClusterSpec::new(4, 2), 0.5);
        cfg.adaptive_revision = true;
        let mut e = PsEngine::new(quad(), cfg);
        for _ in 0..30 {
            e.run_pass();
        }
        let lf = e.finish().final_metric().unwrap();
        assert!(lf.is_finite());
        assert!(lf < quad().loss(&quad().init_params()));
    }
}
