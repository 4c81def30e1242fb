//! Compact run summaries derived from recorded spans.

use crate::span::{Span, SpanCat, N_CATS};

/// Nanoseconds per span category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals([u64; N_CATS]);

impl PhaseTotals {
    /// Adds `ns` to `cat`'s total.
    pub fn add(&mut self, cat: SpanCat, ns: u64) {
        self.0[cat as usize] += ns;
    }

    /// Total nanoseconds recorded for `cat`.
    pub fn get(&self, cat: SpanCat) -> u64 {
        self.0[cat as usize]
    }

    /// `(category, total nanoseconds)` in stable category order.
    pub fn iter(&self) -> impl Iterator<Item = (SpanCat, u64)> + '_ {
        SpanCat::ALL.iter().map(|&c| (c, self.get(c)))
    }

    /// Sum over the categories that occupy the executor timeline
    /// (everything except server-track work).
    pub(crate) fn worker_track_ns(&self) -> u64 {
        self.iter()
            .filter(|(c, _)| c.on_worker_track())
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Time lost to fault handling: detection stalls, restart +
    /// checkpoint reload, and checkpoint writes.
    pub fn recovery_overhead_ns(&self) -> u64 {
        self.get(SpanCat::Fault) + self.get(SpanCat::Recovery) + self.get(SpanCat::Checkpoint)
    }
}

/// Phase totals of one executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerBreakdown {
    /// Global worker id.
    pub worker: u32,
    /// Hosting machine.
    pub machine: u32,
    /// Nanoseconds by category.
    pub phases: PhaseTotals,
}

impl WorkerBreakdown {
    /// Fraction of `wall_ns` this executor's worker-track spans tile.
    /// Executors whose phases tile their whole timeline report ≈ 1.0;
    /// a shortfall means unattributed (untraced) virtual time.
    pub fn coverage(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            return 1.0;
        }
        self.phases.worker_track_ns() as f64 / wall_ns as f64
    }
}

/// Traffic of one machine-to-machine link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkBytes {
    /// Sending machine.
    pub src_machine: usize,
    /// Receiving machine.
    pub dst_machine: usize,
    /// Total payload bytes.
    pub bytes: u64,
    /// Message count.
    pub messages: u64,
}

/// Aggregates link records by `(src, dst)` pair, summing bytes and
/// message counts, and returns them in deterministic (src, dst) order.
/// Used to merge the simulator's modelled traffic with the socket
/// runtime's real per-link byte accounting into one [`RunReport`].
pub fn merge_links<I: IntoIterator<Item = LinkBytes>>(links: I) -> Vec<LinkBytes> {
    let mut agg: std::collections::BTreeMap<(usize, usize), (u64, u64)> =
        std::collections::BTreeMap::new();
    for link in links {
        let entry = agg
            .entry((link.src_machine, link.dst_machine))
            .or_insert((0, 0));
        entry.0 += link.bytes;
        entry.1 += link.messages;
    }
    agg.into_iter()
        .map(
            |((src_machine, dst_machine), (bytes, messages))| LinkBytes {
                src_machine,
                dst_machine,
                bytes,
                messages,
            },
        )
        .collect()
}

/// End-to-end request-latency percentiles of a serving session, computed
/// over the durations of [`SpanCat::Serve`] spans (one span per completed
/// request, arrival to completion — queueing included).
///
/// Percentiles use the nearest-rank definition on the sorted durations:
/// `p(q)` is the smallest duration such that at least `q` of the requests
/// finished within it. With fewer than `1/(1-q)` samples the tail
/// percentiles degrade to the maximum, which is the honest answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Completed requests measured.
    pub count: u64,
    /// Mean latency, nanoseconds (integer floor).
    pub mean_ns: u64,
    /// Median latency.
    pub p50_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// 99.9th-percentile latency.
    pub p999_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
}

impl LatencyStats {
    /// Builds the percentile summary from raw durations; `None` when
    /// there are none (a report without a serving session).
    pub fn from_durations(durations: &[u64]) -> Option<Self> {
        if durations.is_empty() {
            return None;
        }
        let mut sorted = durations.to_vec();
        sorted.sort_unstable();
        let pct = |q: f64| -> u64 {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        let sum: u128 = sorted.iter().map(|&d| d as u128).sum();
        Some(LatencyStats {
            count: sorted.len() as u64,
            mean_ns: (sum / sorted.len() as u128) as u64,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            p999_ns: pct(0.999),
            max_ns: *sorted.last().unwrap(),
        })
    }
}

/// Scheduler partition balance: iteration items assigned per worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadStats {
    /// Items per worker.
    pub per_worker_items: Vec<u64>,
}

impl LoadStats {
    /// From the per-worker item counts of a schedule.
    pub fn new(per_worker_items: Vec<u64>) -> Self {
        LoadStats { per_worker_items }
    }

    /// Heaviest worker's item count.
    pub(crate) fn max_items(&self) -> u64 {
        self.per_worker_items.iter().copied().max().unwrap_or(0)
    }

    /// Mean items per worker.
    pub(crate) fn mean_items(&self) -> f64 {
        if self.per_worker_items.is_empty() {
            return 0.0;
        }
        self.per_worker_items.iter().sum::<u64>() as f64 / self.per_worker_items.len() as f64
    }

    /// Load imbalance `max / mean` (1.0 = perfectly balanced; the
    /// schedule's bottleneck worker determines pass time).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_items();
        if mean == 0.0 {
            1.0
        } else {
            self.max_items() as f64 / mean
        }
    }
}

/// The compact run summary: where the virtual time and the bytes went.
///
/// Built from an executor's span buffer plus the simulated network's
/// per-link counters; serialized next to `BENCH_*.json` outputs by the
/// bench harness and printable as text. Schema documented in
/// `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Final virtual time of the run.
    pub wall_ns: u64,
    /// Nanoseconds by category, summed over executors.
    pub phase_totals: PhaseTotals,
    /// Per-executor breakdowns, sorted by worker id.
    pub per_worker: Vec<WorkerBreakdown>,
    /// Critical-path estimate: the busiest executor's non-barrier time.
    /// No schedule of the same work on the same cluster can finish a
    /// pass faster than its bottleneck worker's obligatory compute and
    /// communication, so `wall_ns / critical_path_ns` close to 1 means
    /// the schedule is as fast as this placement allows.
    pub critical_path_ns: u64,
    /// Inter-machine traffic by link, heaviest first.
    pub links: Vec<LinkBytes>,
    /// Bytes attributed per DistArray (rotation and served traffic),
    /// when the caller knows the placement — empty otherwise.
    pub bytes_by_array: Vec<(String, u64)>,
    /// Scheduler partition balance.
    pub load: LoadStats,
    /// Request-latency percentiles, present when the span buffer holds
    /// [`SpanCat::Serve`] spans (an `orion-serve` session).
    pub latency: Option<LatencyStats>,
}

impl RunReport {
    /// Builds the report from recorded spans.
    ///
    /// `n_workers`/`workers_per_machine` describe the cluster (workers
    /// that recorded no spans still get a zero breakdown); `links`,
    /// `bytes_by_array` and `load` come from the network and scheduler.
    pub fn build(
        wall_ns: u64,
        spans: &[Span],
        n_workers: usize,
        workers_per_machine: usize,
        mut links: Vec<LinkBytes>,
        bytes_by_array: Vec<(String, u64)>,
        load: LoadStats,
    ) -> Self {
        let mut phase_totals = PhaseTotals::default();
        let mut per_worker: Vec<WorkerBreakdown> = (0..n_workers)
            .map(|w| WorkerBreakdown {
                worker: w as u32,
                machine: (w / workers_per_machine.max(1)) as u32,
                phases: PhaseTotals::default(),
            })
            .collect();
        for s in spans {
            phase_totals.add(s.cat, s.dur_ns());
            if let Some(wb) = per_worker.get_mut(s.worker as usize) {
                wb.phases.add(s.cat, s.dur_ns());
            }
        }
        // Barrier waits and fault-handling stalls are excluded: neither
        // is obligatory work of the schedule itself.
        let critical_path_ns = per_worker
            .iter()
            .map(|w| {
                w.phases.worker_track_ns()
                    - w.phases.get(SpanCat::Barrier)
                    - w.phases.recovery_overhead_ns()
            })
            .max()
            .unwrap_or(0);
        links.sort_by(|a, b| {
            b.bytes
                .cmp(&a.bytes)
                .then(a.src_machine.cmp(&b.src_machine))
                .then(a.dst_machine.cmp(&b.dst_machine))
        });
        let serve_durations: Vec<u64> = spans
            .iter()
            .filter(|s| s.cat == SpanCat::Serve)
            .map(Span::dur_ns)
            .collect();
        RunReport {
            wall_ns,
            phase_totals,
            per_worker,
            critical_path_ns,
            links,
            bytes_by_array,
            load,
            latency: LatencyStats::from_durations(&serve_durations),
        }
    }

    /// The lowest per-executor timeline coverage (see
    /// [`WorkerBreakdown::coverage`]); ≥ 0.99 means the span taxonomy
    /// accounts for essentially all virtual time on every executor.
    pub fn min_worker_coverage(&self) -> f64 {
        self.per_worker
            .iter()
            .map(|w| w.coverage(self.wall_ns))
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Total inter-machine bytes across links.
    pub fn total_link_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.bytes).sum()
    }

    /// Total fault-handling time across executors (detection stalls,
    /// restart + reload, checkpoint writes).
    pub fn recovery_overhead_ns(&self) -> u64 {
        self.phase_totals.recovery_overhead_ns()
    }

    /// Fault-handling time as a fraction of all worker-track time —
    /// the price of the chaos plan plus the checkpoint policy. 0.0 for
    /// a fault-free run without checkpointing.
    pub fn recovery_overhead(&self) -> f64 {
        let track = self.phase_totals.worker_track_ns();
        if track == 0 {
            return 0.0;
        }
        self.recovery_overhead_ns() as f64 / track as f64
    }

    /// Serializes the report as compact JSON (hand-rolled; schema in
    /// `docs/OBSERVABILITY.md`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        let phases_json = |p: &PhaseTotals| {
            let mut s = String::from("{");
            for (i, (c, ns)) in p.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{}", c.name(), ns);
            }
            s.push('}');
            s
        };
        let _ = write!(
            out,
            "{{\"wall_ns\":{},\"critical_path_ns\":{},\"phase_totals_ns\":{}",
            self.wall_ns,
            self.critical_path_ns,
            phases_json(&self.phase_totals)
        );
        let _ = write!(
            out,
            ",\"recovery_overhead_ns\":{},\"recovery_overhead\":{:.6}",
            self.recovery_overhead_ns(),
            self.recovery_overhead()
        );
        if let Some(l) = &self.latency {
            let _ = write!(
                out,
                ",\"serve_latency\":{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\
                 \"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{}}}",
                l.count, l.mean_ns, l.p50_ns, l.p99_ns, l.p999_ns, l.max_ns
            );
        }
        out.push_str(",\"workers\":[");
        for (i, w) in self.per_worker.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"worker\":{},\"machine\":{},\"coverage\":{:.4},\"phases_ns\":{}}}",
                w.worker,
                w.machine,
                w.coverage(self.wall_ns),
                phases_json(&w.phases)
            );
        }
        out.push_str("],\"links\":[");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"src\":{},\"dst\":{},\"bytes\":{},\"messages\":{}}}",
                l.src_machine, l.dst_machine, l.bytes, l.messages
            );
        }
        out.push_str("],\"bytes_by_array\":{");
        for (i, (name, bytes)) in self.bytes_by_array.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let escaped: String = name
                .chars()
                .flat_map(|c| match c {
                    '"' | '\\' => vec!['\\', c],
                    c => vec![c],
                })
                .collect();
            let _ = write!(out, "\"{escaped}\":{bytes}");
        }
        out.push_str("},\"load\":{\"per_worker_items\":[");
        for (i, n) in self.load.per_worker_items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{n}");
        }
        let _ = write!(
            out,
            "],\"max_items\":{},\"mean_items\":{:.2},\"imbalance\":{:.4}}}}}",
            self.load.max_items(),
            self.load.mean_items(),
            self.load.imbalance()
        );
        out
    }

    /// Renders a human-readable summary table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let wall_s = self.wall_ns as f64 / 1e9;
        let _ = writeln!(
            out,
            "run report: wall {wall_s:.4}s, critical path {:.4}s ({:.0}% of wall)",
            self.critical_path_ns as f64 / 1e9,
            100.0 * self.critical_path_ns as f64 / self.wall_ns.max(1) as f64
        );
        let _ = writeln!(
            out,
            "  phase totals over {} executors:",
            self.per_worker.len()
        );
        let all_ns: u64 = self.phase_totals.iter().map(|(_, ns)| ns).sum();
        for (cat, ns) in self.phase_totals.iter() {
            if ns == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "    {:<9} {:>10.4}s  ({:>5.1}% of traced time)",
                cat.name(),
                ns as f64 / 1e9,
                100.0 * ns as f64 / all_ns.max(1) as f64
            );
        }
        let _ = writeln!(
            out,
            "  min executor coverage: {:.1}%",
            100.0 * self.min_worker_coverage()
        );
        if self.recovery_overhead_ns() > 0 {
            let _ = writeln!(
                out,
                "  recovery overhead: {:.4}s ({:.1}% of worker-track time)",
                self.recovery_overhead_ns() as f64 / 1e9,
                100.0 * self.recovery_overhead()
            );
        }
        if let Some(l) = &self.latency {
            let _ = writeln!(
                out,
                "  serve latency over {} requests: p50 {:.3}ms, p99 {:.3}ms, \
                 p999 {:.3}ms, max {:.3}ms",
                l.count,
                l.p50_ns as f64 / 1e6,
                l.p99_ns as f64 / 1e6,
                l.p999_ns as f64 / 1e6,
                l.max_ns as f64 / 1e6
            );
        }
        if !self.links.is_empty() {
            let _ = writeln!(
                out,
                "  top links ({} total, {} bytes):",
                self.links.len(),
                self.total_link_bytes()
            );
            for l in self.links.iter().take(5) {
                let _ = writeln!(
                    out,
                    "    m{} -> m{}: {} bytes in {} msgs",
                    l.src_machine, l.dst_machine, l.bytes, l.messages
                );
            }
        }
        if !self.bytes_by_array.is_empty() {
            let _ = writeln!(out, "  bytes by array:");
            for (name, bytes) in &self.bytes_by_array {
                let _ = writeln!(out, "    {name}: {bytes}");
            }
        }
        if !self.load.per_worker_items.is_empty() {
            let _ = writeln!(
                out,
                "  load: max {} items/worker, mean {:.1}, imbalance {:.3}",
                self.load.max_items(),
                self.load.mean_items(),
                self.load.imbalance()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn report() -> RunReport {
        let mut t = Tracer::enabled(8);
        // Worker 0: compute 0..80, barrier 80..100.
        t.record(SpanCat::Compute, 0, 0, 0, 80, 0, 0);
        t.record(SpanCat::Barrier, 0, 0, 80, 100, 0, 0);
        // Worker 1: rotation 0..30, compute 30..100.
        t.record(SpanCat::Rotation, 0, 1, 0, 30, 500, 0);
        t.record(SpanCat::Compute, 0, 1, 30, 100, 0, 0);
        // Server work on machine 1 (overlaps; not on worker track).
        t.record(SpanCat::Server, 1, 2, 10, 40, 64, 0);
        RunReport::build(
            100,
            t.spans(),
            4,
            2,
            vec![
                LinkBytes {
                    src_machine: 0,
                    dst_machine: 1,
                    bytes: 500,
                    messages: 1,
                },
                LinkBytes {
                    src_machine: 1,
                    dst_machine: 0,
                    bytes: 900,
                    messages: 2,
                },
            ],
            vec![("H".into(), 500)],
            LoadStats::new(vec![10, 12, 8, 10]),
        )
    }

    #[test]
    fn phase_totals_and_coverage() {
        let r = report();
        assert_eq!(r.phase_totals.get(SpanCat::Compute), 150);
        assert_eq!(r.phase_totals.get(SpanCat::Rotation), 30);
        assert_eq!(r.phase_totals.get(SpanCat::Server), 30);
        // Workers 0 and 1 tile their whole 100 ns timeline.
        assert_eq!(r.per_worker[0].coverage(100), 1.0);
        assert_eq!(r.per_worker[1].coverage(100), 1.0);
        // Workers 2/3 recorded nothing (coverage 0) — min reflects that.
        assert_eq!(r.min_worker_coverage(), 0.0);
    }

    #[test]
    fn critical_path_excludes_barrier() {
        let r = report();
        // Worker 1: 30 rotation + 70 compute = 100; worker 0: 80 compute
        // (barrier excluded).
        assert_eq!(r.critical_path_ns, 100);
    }

    #[test]
    fn links_sorted_heaviest_first() {
        let r = report();
        assert_eq!(r.links[0].bytes, 900);
        assert_eq!(r.total_link_bytes(), 1400);
    }

    #[test]
    fn load_stats() {
        let l = LoadStats::new(vec![10, 12, 8, 10]);
        assert_eq!(l.max_items(), 12);
        assert_eq!(l.mean_items(), 10.0);
        assert!((l.imbalance() - 1.2).abs() < 1e-9);
        assert_eq!(LoadStats::default().imbalance(), 1.0);
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let r = report();
        let j = r.to_json();
        let v = crate::json::parse(&j).expect("valid JSON");
        assert_eq!(v.get("wall_ns").and_then(|x| x.as_f64()), Some(100.0));
        let phases = v.get("phase_totals_ns").unwrap();
        assert_eq!(phases.get("compute").and_then(|x| x.as_f64()), Some(150.0));
        assert_eq!(v.get("workers").and_then(|x| x.as_arr()).unwrap().len(), 4);
        assert_eq!(v.get("links").and_then(|x| x.as_arr()).unwrap().len(), 2);
        assert_eq!(
            v.get("bytes_by_array").unwrap().get("H").unwrap().as_f64(),
            Some(500.0)
        );
        let load = v.get("load").unwrap();
        assert_eq!(load.get("max_items").unwrap().as_f64(), Some(12.0));
    }

    #[test]
    fn recovery_overhead_sums_fault_phases() {
        let mut t = Tracer::enabled(8);
        t.record(SpanCat::Compute, 0, 0, 0, 60, 0, 0);
        t.record(SpanCat::Checkpoint, 0, 0, 60, 70, 0, 0);
        t.record(SpanCat::Fault, 0, 0, 70, 85, 0, 1);
        t.record(SpanCat::Recovery, 0, 0, 85, 100, 0, 1);
        let r = RunReport::build(100, t.spans(), 1, 1, vec![], vec![], LoadStats::default());
        assert_eq!(r.recovery_overhead_ns(), 40);
        assert!((r.recovery_overhead() - 0.4).abs() < 1e-9);
        // Fault handling is not obligatory work: critical path is compute.
        assert_eq!(r.critical_path_ns, 60);
        // Fault spans still tile the timeline, so coverage stays exact.
        assert_eq!(r.min_worker_coverage(), 1.0);
        let v = crate::json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("recovery_overhead_ns").and_then(|x| x.as_f64()),
            Some(40.0)
        );
        assert!(r.render().contains("recovery overhead"));
        // Fault-free report: overhead absent from render, zero in JSON.
        let clean = report();
        assert_eq!(clean.recovery_overhead_ns(), 0);
        assert!(!clean.render().contains("recovery overhead"));
    }

    #[test]
    fn latency_percentiles_nearest_rank() {
        // 1..=1000 ns: p50 = 500, p99 = 990, p999 = 999, max = 1000.
        let durs: Vec<u64> = (1..=1000).collect();
        let l = LatencyStats::from_durations(&durs).unwrap();
        assert_eq!(l.count, 1000);
        assert_eq!(l.p50_ns, 500);
        assert_eq!(l.p99_ns, 990);
        assert_eq!(l.p999_ns, 999);
        assert_eq!(l.max_ns, 1000);
        assert_eq!(l.mean_ns, 500); // floor(500.5)
                                    // Tiny samples degrade the tail to the max, not out of bounds.
        let tiny = LatencyStats::from_durations(&[7]).unwrap();
        assert_eq!((tiny.p50_ns, tiny.p99_ns, tiny.p999_ns), (7, 7, 7));
        assert_eq!(LatencyStats::from_durations(&[]), None);
    }

    #[test]
    fn serve_spans_produce_latency_in_report_and_json() {
        let mut t = Tracer::enabled(8);
        t.record(SpanCat::Serve, 0, 0, 0, 100, 0, 0);
        t.record(SpanCat::Serve, 1, 1, 50, 350, 0, 1);
        t.record(SpanCat::Compute, 0, 0, 0, 40, 0, 0);
        let r = RunReport::build(400, t.spans(), 2, 1, vec![], vec![], LoadStats::default());
        let l = r.latency.expect("serve spans yield latency stats");
        assert_eq!(l.count, 2);
        assert_eq!(l.p50_ns, 100);
        assert_eq!((l.p99_ns, l.p999_ns, l.max_ns), (300, 300, 300));
        // Serve spans stay off the worker track: critical path is the
        // compute span only, and coverage is unaffected by overlap.
        assert_eq!(r.critical_path_ns, 40);
        let v = crate::json::parse(&r.to_json()).expect("valid JSON");
        let lat = v.get("serve_latency").expect("latency serialized");
        assert_eq!(lat.get("p50_ns").and_then(|x| x.as_f64()), Some(100.0));
        assert_eq!(lat.get("p99_ns").and_then(|x| x.as_f64()), Some(300.0));
        assert_eq!(lat.get("p999_ns").and_then(|x| x.as_f64()), Some(300.0));
        assert!(r.render().contains("serve latency"));
        // Reports without serve spans omit the block entirely.
        let clean = report();
        assert_eq!(clean.latency, None);
        assert!(!clean.to_json().contains("serve_latency"));
    }

    #[test]
    fn render_mentions_phases_and_links() {
        let text = report().render();
        assert!(text.contains("compute"));
        assert!(text.contains("rotation"));
        assert!(text.contains("m1 -> m0: 900 bytes"));
        assert!(text.contains("imbalance"));
    }
}
