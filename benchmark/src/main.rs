//! The repo's perf ledger: end-to-end and per-layer numbers on the real
//! engines (pool threads, TCP node processes, the serve engine), driven
//! through the public trainers exactly as a user drives them.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--selfcheck]
//! ```
//!
//! Run from the repository root. One workload runs in this process; `all`
//! and `--selfcheck` start one child process per workload so that each
//! reports its own peak memory and cold starts. See `README.md`.

mod harness;
mod mf_net;
mod mf_serve;
mod mf_threads;
mod serving;
mod slr_threads;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use harness::{Metric, Ops, Report, Samples, Workload};
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["mf_threads", "slr_threads", "mf_net", "mf_serve"];

/// How long a run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// End-to-end metrics and the share of the parent's median by which
/// each may worsen; mirrored in `BENCHMARK.json` (a unit test compares).
pub const E2E_BOUNDS: [(&str, f64); 5] = [
    ("items_per_s", 0.25),
    ("peak_rss_mb", 0.15),
    ("query_p50_us", 0.25),
    ("query_p99_us", 0.25),
    ("setup_s", 0.25),
];

/// Every per-layer metric a traced run must report, as listed in
/// `BENCHMARK.json`.
pub const LAYER_METRICS: [&str; 38] = [
    "analysis.plan_s",
    "apps.mf_loss_ms",
    "apps.slr_loss_ms",
    "check.static_o100_ms",
    "dsm.buffer_write_drain_ms",
    "dsm.ckpt_decode_mb_s",
    "dsm.ckpt_encode_mb_s",
    "dsm.ckpt_save_ms",
    "dsm.dot_ns",
    "dsm.gather_sum_ns",
    "dsm.mf_update_ns",
    "dsm.split_merge_ms",
    "net.bytes_per_epoch",
    "net.epoch_compute_share",
    "net.frame_mb_s",
    "net.frame_rtt_us",
    "net.launch_s",
    "net.msg_codec_mb_s",
    "net.msgs_per_epoch",
    "runtime.build_schedule_s",
    "runtime.compile_s",
    "runtime.grid_pass_ms",
    "runtime.grid_pass_noop_ms",
    "runtime.one_d_pass_ms",
    "runtime.one_d_pass_noop_ms",
    "runtime.one_d_speedup_2v1",
    "runtime.pool_spawn_us",
    "runtime.speedup_2v1",
    "serve.cache_hit_rate",
    "serve.load_ms",
    "serve.lru_get_ns",
    "serve.predict_nocache_ns",
    "serve.predict_ns",
    "serve.recommend_us",
    "sim.pass_wall_ms",
    "sim.real_over_virtual",
    "sim.virtual_epoch_ms",
    "trace.overhead_pct",
];

/// Where the benchmark writes (trace files, cluster scratch): inside
/// its own directory, relative to the repository root it is run from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                // Bare `--trace` means on; `--trace 0|1` is also accepted.
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {WORKLOADS:?} or all",
            args.workload
        ));
    }
    Ok(args)
}

fn make(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "mf_threads" => Box::new(mf_threads::MfThreads::new(seed)),
        "slr_threads" => Box::new(slr_threads::SlrThreads::new(seed)),
        "mf_net" => Box::new(mf_net::MfNet::new(seed)),
        "mf_serve" => Box::new(mf_serve::MfServeLoad::new(seed)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// The traced run: every layer probed under spans, the chosen workload
/// gated and its job timed with spans on and off.
fn run_traced(name: &str, seed: u64) -> Report {
    let mut tr = Tracer::new(true);
    let mut ops = Ops::default();
    let mut layers = Samples::default();
    let root = tr.begin(&format!("run.{name}"));
    let mut header = Vec::new();
    for other in WORKLOADS {
        let mut w = make(other, seed);
        if other == name {
            header = w.describe();
            let gate = tr.begin("gate");
            w.gate(&mut ops);
            tr.end(gate);
            let overhead = harness::trace_overhead_pct(w.as_mut(), &mut tr, &mut ops);
            layers.lower("trace.overhead_pct", "%", overhead);
        }
        w.probe_layers(&mut tr, &mut layers);
    }
    tr.end(root);
    let path = out_dir().join(format!("trace_{name}.json"));
    match tr.write_json(&path, name) {
        Ok(()) => header.push(("trace_file", path.display().to_string())),
        Err(e) => ops.check(false, &format!("writing {}: {e}", path.display())),
    }
    header.push(("spans", tr.n_spans().to_string()));
    let metrics: Vec<Metric> = layers.rows().collect();
    let reported: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    ops.check(
        reported == LAYER_METRICS,
        "traced run did not report exactly the listed per-layer metrics",
    );
    Report {
        metrics,
        header,
        ops,
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args) -> ExitCode {
    let name = args.workload.as_str();
    let Report {
        metrics,
        mut header,
        ops,
    } = if args.trace {
        run_traced(name, args.seed)
    } else {
        harness::run_e2e(make(name, args.seed).as_mut(), args.seconds)
    };
    let mut head = vec![
        ("workload", name.to_owned()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_rev", sys::git_rev()),
        ("nproc", sys::nproc().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
    ];
    head.append(&mut header);
    println!(
        "header\t{}",
        head.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("\t")
    );
    for m in &metrics {
        let s = m.samples;
        println!(
            "metric\t{}\t{}\t{}\tmedian={}\tq1={}\tq3={}\tn={}",
            m.name, m.value, m.unit, s.median, s.q1, s.q3, s.n
        );
    }
    println!("ops\tattempted={}\tfailed={}", ops.attempted, ops.failed);

    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not a number; no result printed", bad.name);
        return ExitCode::FAILURE;
    }
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed
    );
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a child process, echoes its output, and returns
/// its `metric` rows as `(name, value, unit)`; `None` if it failed.
fn run_child(args: &Args, workload: &str) -> Option<Vec<(String, f64, String)>> {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("child benchmark process starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let rows = stdout
        .lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("metric\t")?.split('\t');
            Some((
                f.next()?.to_owned(),
                f.next()?.parse().ok()?,
                f.next()?.to_owned(),
            ))
        })
        .collect();
    out.status.success().then_some(rows)
}

fn run_all(args: &Args) -> ExitCode {
    let failed: Vec<&str> = WORKLOADS
        .into_iter()
        .filter(|w| run_child(args, w).is_none())
        .collect();
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {failed:?}");
        ExitCode::FAILURE
    }
}

/// Runs the full set twice back to back and compares the two values of
/// every workload × end-to-end metric with the metric's bound.
fn selfcheck(args: &Args) -> ExitCode {
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in WORKLOADS {
            match run_child(args, w) {
                Some(rows) => set.push(rows),
                None => {
                    eprintln!("selfcheck: workload {w} failed");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(set);
    }
    println!("\n# Repeatability self-check\n");
    println!(
        "Two full sets back to back, same code, seed {}, {} s windows, nproc {}, git_rev {}.\n",
        args.seed,
        args.seconds,
        sys::nproc(),
        sys::git_rev()
    );
    println!("| workload | metric | unit | first | second | difference | bound | within |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for (w, (first, second)) in WORKLOADS.iter().zip(sets[0].iter().zip(&sets[1])) {
        for ((name, a, unit), (_, b, _)) in first.iter().zip(second) {
            let bound = E2E_BOUNDS
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::INFINITY, |&(_, b)| b);
            let diff = (b - a).abs() / a.abs();
            let within = diff <= bound;
            all_within &= within;
            println!(
                "| {w} | {name} | {unit} | {a:.6} | {b:.6} | {:.2} % | {:.0} % | {} |",
                100.0 * diff,
                100.0 * bound,
                if within { "yes" } else { "NO" }
            );
        }
    }
    println!(
        "\n{}",
        if all_within {
            "Every pair agrees within its bound."
        } else {
            "At least one pair disagrees by more than its bound."
        }
    );
    if all_within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    sys::note_inherited_children();
    // A cluster node re-executes this binary; it never returns from here.
    orion_apps::distributed::maybe_node();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        selfcheck(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
    }

    /// The lines of one top-level array of `BENCHMARK.json` (the file
    /// keeps one entry per line).
    fn entries(key: &str) -> Vec<String> {
        let text = contract();
        let from = text.find(&format!("\"{key}\": [")).expect("key present");
        text[from..]
            .lines()
            .skip(1)
            .take_while(|l| l.trim_start().starts_with('{'))
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn contract_lists_the_workloads_and_end_to_end_bounds() {
        let workloads = entries("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (line, name) in workloads.iter().zip(WORKLOADS) {
            assert!(line.contains(&format!("\"name\": \"{name}\"")), "{line}");
        }
        let e2e = entries("end_to_end");
        assert_eq!(e2e.len(), E2E_BOUNDS.len());
        for (line, (name, bound)) in e2e.iter().zip(E2E_BOUNDS) {
            assert!(line.contains(&format!("\"name\": \"{name}\"")), "{line}");
            assert!(line.contains(&format!("\"bound\": {bound}}}")), "{line}");
        }
        assert!(contract().contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    #[test]
    fn contract_lists_every_layer_metric_in_report_order() {
        let layers = entries("per_layer");
        assert_eq!(layers.len(), LAYER_METRICS.len());
        for (line, name) in layers.iter().zip(LAYER_METRICS) {
            assert!(line.contains(&format!("\"name\": \"{name}\"")), "{line}");
        }
        let mut sorted = LAYER_METRICS;
        sorted.sort_unstable();
        assert_eq!(sorted, LAYER_METRICS, "Samples reports in name order");
    }
}
