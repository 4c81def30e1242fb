//! Shared harness utilities for the per-figure/per-table benchmarks.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation (§6): it prints the same rows/series the paper reports and
//! writes a CSV under `results/` for plotting. Absolute numbers differ —
//! the substrate is a calibrated simulator over scaled synthetic
//! datasets (see DESIGN.md §4) — but the *shape* (who wins, by what
//! factor, where crossovers fall) is the reproduction target, recorded
//! against the paper in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::PathBuf;

use orion_sim::{ClusterSpec, RunStats};
use orion_trace::RunReport;

/// The standard evaluation cluster for figure runs: 8 machines × 4
/// workers = 32 workers. The paper uses 12 × 32 = 384 on ~1000× larger
/// datasets; worker count is scaled with the data so per-block compute
/// stays in the same regime (documented substitution).
pub fn eval_cluster() -> ClusterSpec {
    ClusterSpec::new(8, 4)
}

/// Directory for CSV outputs (`results/` at the workspace root).
pub fn results_dir() -> PathBuf {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    let dir = root.join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes rows of `(label, x, y)` series points as CSV.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    println!("  [csv written to {}]", path.display());
}

/// A persistable benchmark report: a JSON payload plus a human-readable
/// rendering. [`RunReport`] implements it for trace reports; benches
/// with bespoke schemas (the scalar-vs-SIMD kernel table, say) implement
/// it on their own types and share [`write_report`].
pub trait Report {
    /// The JSON payload persisted under `results/`.
    fn to_json(&self) -> String;
    /// The rendered summary printed alongside the file.
    fn render(&self) -> String;
}

impl Report for RunReport {
    fn to_json(&self) -> String {
        RunReport::to_json(self)
    }

    fn render(&self) -> String {
        RunReport::render(self)
    }
}

/// One serial-vs-lane kernel measurement: per-operation nanoseconds of
/// the serial fold and the explicit-width lane body it is compared with.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name (`dense_dot`, `row_update`, …).
    pub name: &'static str,
    /// Operations per timed closure call (the per-op divisor).
    pub ops: u64,
    /// Median per-op nanoseconds of the serial variant.
    pub scalar_ns: f64,
    /// Median per-op nanoseconds of the lane variant.
    pub simd_ns: f64,
}

impl KernelRow {
    /// Scalar time over SIMD time.
    pub fn speedup(&self) -> f64 {
        self.scalar_ns / self.simd_ns
    }
}

/// The serial-vs-lane kernel comparison table (`BENCH_simd.json`): the
/// reductions under `MathMode::Exact` against `MathMode::FastMath`, and
/// the serial scan against the exact lane-panel scan.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Lane width of the lane bodies (`orion_dsm::kernels::LANES`).
    pub lanes: usize,
    /// The measured kernels.
    pub rows: Vec<KernelRow>,
}

impl Report for KernelReport {
    fn to_json(&self) -> String {
        let mut json = format!(
            "{{\n  \"bench\": \"kernel_simd\",\n  \"lanes\": {},\n  \"kernels\": [\n",
            self.lanes
        );
        for (i, r) in self.rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"ops\": {}, \"scalar_ns\": {:.3}, \
                 \"simd_ns\": {:.3}, \"speedup\": {:.3}}}{}\n",
                r.name,
                r.ops,
                r.scalar_ns,
                r.simd_ns,
                r.speedup(),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }

    fn render(&self) -> String {
        let mut out = format!(
            "serial vs {}-lane kernels\n{:<24} {:>12} {:>12} {:>9}\n",
            self.lanes, "kernel", "scalar ns/op", "simd ns/op", "speedup"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>12.2} {:>12.2} {:>8.2}x\n",
                r.name,
                r.scalar_ns,
                r.simd_ns,
                r.speedup()
            ));
        }
        out
    }
}

/// One serving configuration's measurements: a (shard count ×
/// concurrency) cell of the `serve_load` sweep.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Serving shards.
    pub shards: usize,
    /// Concurrent client streams (the concurrency level).
    pub streams: usize,
    /// Requests offered by the generator.
    pub offered: u64,
    /// Requests admitted and answered.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Completed requests per virtual second.
    pub throughput_rps: f64,
    /// Median end-to-end latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, milliseconds.
    pub p999_ms: f64,
    /// Worst-case latency, milliseconds.
    pub max_ms: f64,
    /// Row-cache hit fraction over the whole run.
    pub cache_hit_rate: f64,
}

/// The serving load sweep (`BENCH_serve.json`): throughput and latency
/// percentiles across shard counts × concurrency levels, with cache hit
/// rates (see `docs/SERVING.md`).
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Served model (`sgd_mf`, …).
    pub model: String,
    /// Per-configuration measurements.
    pub rows: Vec<ServeRow>,
}

impl Report for ServeBenchReport {
    fn to_json(&self) -> String {
        let mut json = format!(
            "{{\n  \"bench\": \"serve_load\",\n  \"model\": \"{}\",\n  \"rows\": [\n",
            self.model
        );
        for (i, r) in self.rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"shards\": {}, \"streams\": {}, \"offered\": {}, \
                 \"completed\": {}, \"rejected\": {}, \"throughput_rps\": {:.1}, \
                 \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"p999_ms\": {:.4}, \
                 \"max_ms\": {:.4}, \"cache_hit_rate\": {:.4}}}{}\n",
                r.shards,
                r.streams,
                r.offered,
                r.completed,
                r.rejected,
                r.throughput_rps,
                r.p50_ms,
                r.p99_ms,
                r.p999_ms,
                r.max_ms,
                r.cache_hit_rate,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }

    fn render(&self) -> String {
        let mut out = format!(
            "serving load sweep ({})\n{:>7} {:>8} {:>9} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9}\n",
            self.model,
            "shards",
            "streams",
            "completed",
            "rejected",
            "rps",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "hit rate"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:>7} {:>8} {:>9} {:>9} {:>12.0} {:>9.3} {:>9.3} {:>9.3} {:>8.1}%\n",
                r.shards,
                r.streams,
                r.completed,
                r.rejected,
                r.throughput_rps,
                r.p50_ms,
                r.p99_ms,
                r.p999_ms,
                r.cache_hit_rate * 100.0
            ));
        }
        out
    }
}

/// Writes a [`Report`] as JSON under `results/` next to the CSVs
/// (e.g. `BENCH_trace.json`, `BENCH_simd.json`) and prints its rendered
/// summary (see `docs/OBSERVABILITY.md` for the trace schema).
pub fn write_report<R: Report>(name: &str, report: &R) {
    let path = results_dir().join(name);
    std::fs::write(&path, report.to_json()).expect("write run report");
    println!("\n{}", report.render());
    println!("  [run report written to {}]", path.display());
}

/// Prints a convergence-over-iterations series.
pub fn print_over_iterations(label: &str, stats: &RunStats) {
    print!("{label:<44}");
    for p in &stats.progress {
        print!(" {:.4}", p.metric);
    }
    println!();
}

/// Collects `label,iteration,seconds,metric` CSV rows from a run.
pub fn csv_rows(label: &str, stats: &RunStats) -> Vec<String> {
    stats
        .progress
        .iter()
        .map(|p| {
            format!(
                "{label},{},{:.6},{:.6}",
                p.iteration,
                p.time.as_secs_f64(),
                p.metric
            )
        })
        .collect()
}

/// Prints a banner for one experiment.
pub fn banner(id: &str, title: &str) {
    println!("\n==============================================================");
    println!("{id}: {title}");
    println!("==============================================================");
}

/// Formats seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.2}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_is_32_workers() {
        assert_eq!(eval_cluster().n_workers(), 32);
    }

    #[test]
    fn fmt() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0031), "3.10ms");
    }
}
