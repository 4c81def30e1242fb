//! What every workload shares: the order of a run (gate, then jobs,
//! serving sessions and cold starts in turn until the window is full),
//! operation accounting, and the metric tables.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// Load is fixed regardless of host: 2 pool workers, 2 node processes,
/// 2 client threads (the sizing box has 2 cores).
pub const WORKERS: usize = 2;
/// A timed number rests on at least this many identical jobs, and
/// `setup_s` on as many cold starts (one follows each job).
pub const MIN_JOBS: usize = 7;
/// In-job planning/launch above this share of a job's wall makes its
/// noise show in `items_per_s`; the run says so.
pub const MAX_LAUNCH_SHARE: f64 = 0.08;

/// Derives an independent seed for one input stream of a run.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    orion_apps::common::mix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Operations attempted and failed: correctness checks, jobs, queries.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.count(1, u64::from(!ok), what);
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAILED ({failed} of {attempted}): {what}");
        }
    }
}

/// One timed job: a whole training run, or one serving session.
pub struct Job {
    pub wall_s: f64,
    /// Bit pattern of the job's result (final loss, answer checksum);
    /// identical jobs must agree on it bit for bit.
    pub fingerprint: u64,
    /// Whether the result is sound by itself (loss fell, nothing lost).
    pub ok: bool,
}

impl Job {
    /// A training job: sound when it ended below the initial loss.
    pub fn trained(wall_s: f64, final_loss: Option<f64>, initial_loss: f64) -> Self {
        let loss = final_loss.unwrap_or(f64::NAN);
        Job {
            wall_s,
            fingerprint: loss.to_bits(),
            ok: loss < initial_loss,
        }
    }
}

/// The timed job, or a shorter one of the same kind for the
/// traced-vs-untraced comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSize {
    Full,
    Short,
}

/// One workload: inputs generated from the seed, driven through the
/// public trainers and the public serve engine as a user drives them.
pub trait Workload {
    /// `key=value` pairs for the result header (sizes, P, …).
    fn describe(&self) -> Vec<(&'static str, String)>;
    /// Work items of one job: ratings or samples × epochs, or queries.
    fn items_per_job(&self) -> f64;
    /// Epochs in one job (1 for a serving session).
    fn epochs_per_job(&self) -> u64;
    /// Checks engine against oracle before anything is timed.
    fn gate(&mut self, ops: &mut Ops);
    /// Seconds from nothing to first useful work.
    fn cold_start(&mut self) -> f64;
    fn job(&mut self, size: JobSize, tr: &mut Tracer) -> Job;
    /// Untimed work between two jobs: a training workload serves the
    /// model the job just trained.
    fn after_job(&mut self, ops: &mut Ops);
    /// Per-query latency of every serving session so far.
    fn query_latencies(&mut self) -> Vec<SessionLatency>;
    /// Times calls into each layer this workload rests on.
    fn probe_layers(&mut self, tr: &mut Tracer, layers: &mut Samples);
}

/// Which way a metric improves, and so which of its repetitions is the
/// least disturbed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug)]
struct Series {
    unit: &'static str,
    better: Better,
    values: Vec<f64>,
}

/// Repetitions per metric name.
///
/// A metric's value is the **best** of its repetitions (fastest time,
/// highest rate), with median and quartiles printed beside it.
/// Interference on a shared host only ever slows a repetition down, and
/// it comes in phases of seconds to minutes: while sizing this
/// benchmark, identical serving sessions ran at 1.08 s or at 1.75 s for
/// whole runs, and a median follows the phase. The best repetition is
/// the one number that repeats (within ≈ 5 % where medians moved 60 %).
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Series>);

impl Samples {
    fn push(&mut self, name: &'static str, unit: &'static str, better: Better, value: f64) {
        self.0
            .entry(name)
            .or_insert(Series {
                unit,
                better,
                values: Vec::new(),
            })
            .values
            .push(value);
    }

    /// One repetition of a metric that improves downwards (a time).
    pub fn lower(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, Better::Lower, value);
    }

    /// One repetition of a metric that improves upwards (a rate).
    pub fn higher(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, Better::Higher, value);
    }

    /// The best repetition recorded under `name`.
    pub fn best(&self, name: &str) -> f64 {
        let series = self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("no samples of {name}"));
        best_of(&series.values, series.better)
    }

    pub fn rows(&self) -> impl Iterator<Item = Metric> + '_ {
        self.0.iter().map(|(&name, s)| Metric {
            name,
            unit: s.unit,
            value: best_of(&s.values, s.better),
            samples: stats::summarize(&s.values),
        })
    }
}

pub fn best_of(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values
        .iter()
        .copied()
        .reduce(pick)
        .expect("a metric has samples")
}

/// A named metric: the reported value, and the median, quartiles and
/// count of the repetitions behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Summary,
}

/// Per-query latency of one serving session.
#[derive(Debug, Clone, Copy)]
pub struct SessionLatency {
    pub p50_us: f64,
    pub p99_us: f64,
}

/// What a run reports: its metrics, `key=value` pairs for the header,
/// and the operations it attempted.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub header: Vec<(&'static str, String)>,
    pub ops: Ops,
}

/// The untraced run: gate, then jobs, serving sessions and cold starts
/// for `seconds`.
pub fn run_e2e(w: &mut dyn Workload, seconds: f64) -> Report {
    let mut ops = Ops::default();
    let mut tr = Tracer::new(false);
    w.gate(&mut ops);

    // Identical jobs until the window is full; at least MIN_JOBS however
    // slow the host. Serving sessions and cold starts take turns with
    // the jobs instead of following them, so that each metric samples
    // the whole window: the host's slow phases last seconds, and a
    // metric measured in one second of the run inherits that second.
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut first: Option<u64> = None;
    let window = Instant::now();
    while walls.len() < MIN_JOBS || window.elapsed().as_secs_f64() < seconds {
        let job = w.job(JobSize::Full, &mut tr);
        let same = *first.get_or_insert(job.fingerprint) == job.fingerprint;
        ops.check(job.ok && same, "timed job differs from job 1 or is unsound");
        walls.push(job.wall_s);
        w.after_job(&mut ops);
        setups.push(w.cold_start());
    }
    let window_s = window.elapsed().as_secs_f64();
    let sessions = w.query_latencies();

    let items = w.items_per_job();
    let mut e2e = Samples::default();
    for wall in &walls {
        e2e.higher("items_per_s", "1/s", items / wall);
    }
    for s in &sessions {
        e2e.lower("query_p50_us", "us", s.p50_us);
        e2e.lower("query_p99_us", "us", s.p99_us);
    }
    e2e.lower("peak_rss_mb", "MB", crate::sys::peak_rss_mb());
    let mut metrics: Vec<Metric> = e2e.rows().collect();
    // The gate asks for set-up time as a median of several set-ups.
    let setup = stats::summarize(&setups);
    metrics.push(Metric {
        name: "setup_s",
        unit: "s",
        value: setup.median,
        samples: setup,
    });

    // job = launch + P·epoch and cold start = launch + epoch, so the
    // two give the in-job planning/launch share.
    let p = w.epochs_per_job() as f64;
    let job_s = best_of(&walls, Better::Lower);
    let launch_share = if p > 1.0 {
        let epoch_s = (job_s - setup.median) / (p - 1.0);
        ((setup.median - epoch_s) / job_s).max(0.0)
    } else {
        0.0
    };
    let mut header = w.describe();
    header.extend([
        ("J", walls.len().to_string()),
        ("cold_starts", setups.len().to_string()),
        ("sessions", sessions.len().to_string()),
        ("window_s", format!("{window_s:.2}")),
        ("job_wall_s", format!("{job_s:.4}")),
        ("epoch_ms", format!("{:.4}", 1e3 * job_s / p)),
        ("launch_share_pct", format!("{:.2}", 100.0 * launch_share)),
        (
            "launch_share_ok",
            (launch_share <= MAX_LAUNCH_SHARE).to_string(),
        ),
    ]);
    Report {
        metrics,
        header,
        ops,
    }
}

/// Interleaved pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 7;

/// Traced-vs-untraced wall of the same short job, as a percentage of
/// the untraced wall.
pub fn trace_overhead_pct(w: &mut dyn Workload, tr: &mut Tracer, ops: &mut Ops) -> f64 {
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    let mut first: Option<u64> = None;
    for _ in 0..OVERHEAD_PAIRS {
        for (on, walls) in [(false, &mut plain), (true, &mut traced)] {
            tr.set_enabled(on);
            let job = w.job(JobSize::Short, tr);
            let same = *first.get_or_insert(job.fingerprint) == job.fingerprint;
            ops.check(
                job.ok && same,
                "short job differs from the first or is unsound",
            );
            walls.push(job.wall_s);
        }
    }
    tr.set_enabled(true);
    let base = best_of(&plain, Better::Lower);
    100.0 * (best_of(&traced, Better::Lower) - base) / base
}
