//! Thread scaling: real wall-clock speedup of the pooled threaded
//! engine at 1/2/4/8 workers, for the SGD MF grid pass and the SLR 1-D
//! pass, under two honestly-labeled workloads:
//!
//! - `compute`: the pure training update. Scales with physical cores —
//!   on a single-core host it records (honestly) no speedup.
//! - `overlap`: the same update with a timed stall every 32 items,
//!   modeling the blocking remote DSM serves the paper's pipelining
//!   hides (§4.4, Fig. 8). Stalled threads release the core, so worker
//!   threads overlap each other's waits and real wall-clock speedup is
//!   measured even on one core.
//!
//! Both workloads run the identical schedule as the simulated engine;
//! bit-identity of the trained model against `train_orion` is asserted
//! and recorded. Writes `results/BENCH_threads.json` (schema in
//! EXPERIMENTS.md). Set `ORION_THREADS_SMOKE=1` for a fast CI run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use orion_analysis::Strategy;
use orion_apps::sgd_mf::{self, MfConfig, MfRunConfig};
use orion_apps::slr::{self, SlrConfig, SlrRunConfig};
use orion_bench::{banner, results_dir};
use orion_core::ClusterSpec;
use orion_data::{RatingsConfig, RatingsData, SparseConfig, SparseData, SparseSample};
use orion_dsm::{kernels, DistArray, MathMode};
use orion_runtime::{
    build_schedule, run_grid_pass_pooled, run_one_d_pass_pooled, ThreadedPlan, WorkerPool,
};

/// Worker counts of the sweep.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Items between injected stalls in the `overlap` workload.
const STALL_EVERY: u32 = 32;
/// Length of one injected stall (a modeled remote DSM serve).
const STALL: Duration = Duration::from_micros(150);

fn smoke() -> bool {
    std::env::var("ORION_THREADS_SMOKE").is_ok()
}

/// One measured point.
struct Point {
    threads: usize,
    wall_ms: f64,
}

/// Times `passes` pooled SGD MF grid passes (after one warmup pass).
fn mf_pass_wall(
    data: &RatingsData,
    rank: u64,
    threads: usize,
    passes: u64,
    stall: bool,
    math: MathMode,
) -> f64 {
    let items = data.items();
    let dims = data.ratings.shape().dims().to_vec();
    let strat = Strategy::TwoD {
        space: 0,
        time: 1,
        ordered: false,
    };
    let sched = build_schedule(&strat, &items, &dims, threads);
    let plan = Arc::new(ThreadedPlan::compile(&sched));
    let pool = WorkerPool::new(sched.n_workers);
    let sp = sched.space_partition.clone().unwrap();
    let tp = sched.time_partition.clone().unwrap();
    let w: DistArray<f32> = DistArray::dense_from_fn("W", vec![dims[0], rank], |i| {
        ((i[0] * 13 + i[1] * 7) % 17) as f32 * 0.05
    });
    let h: DistArray<f32> = DistArray::dense_from_fn("H", vec![dims[1], rank], |i| {
        ((i[0] * 11 + i[1] * 5) % 19) as f32 * 0.04
    });
    let triples: Arc<Vec<(i64, i64, f32)>> =
        Arc::new(items.iter().map(|(i, v)| (i[0], i[1], *v)).collect());
    let body = Arc::new(
        move |&(u, i, v): &(i64, i64, f32),
              wp: &mut DistArray<f32>,
              hp: &mut DistArray<f32>,
              served: &mut u32| {
            if stall {
                *served += 1;
                if (*served).is_multiple_of(STALL_EVERY) {
                    std::thread::sleep(STALL);
                }
            }
            kernels::mf_row_update(wp.row_slice_mut(u), hp.row_slice_mut(i), v, 0.05, math);
        },
    );
    let mut w_parts = w.split_along(0, &sp.ranges);
    let mut h_parts = h.split_along(0, &tp.ranges);
    let mut elapsed = 0.0f64;
    for pass in 0..=passes {
        let start = Instant::now();
        let out = run_grid_pass_pooled(
            &pool,
            &plan,
            &triples,
            w_parts,
            h_parts,
            vec![0u32; sched.n_workers],
            &body,
        );
        if pass > 0 {
            // Pass 0 is warmup (first-touch, thread ramp-up).
            elapsed += start.elapsed().as_secs_f64();
        }
        w_parts = out.space;
        h_parts = out.time;
    }
    elapsed * 1e3
}

/// Times `passes` pooled SLR 1-D passes (after one warmup pass).
fn slr_pass_wall(
    data: &SparseData,
    threads: usize,
    passes: u64,
    stall: bool,
    math: MathMode,
) -> f64 {
    let n = data.samples.len();
    let strat = Strategy::OneD { dim: 0 };
    let idx: Vec<[i64; 1]> = (0..n as i64).map(|i| [i]).collect();
    let sched = build_schedule(&strat, &idx, &[n as u64], threads);
    let plan = Arc::new(ThreadedPlan::compile(&sched));
    let pool = WorkerPool::new(sched.n_workers);
    let samples = Arc::new(data.samples.clone());
    let weights = Arc::new(vec![0.01f32; data.config.n_features]);
    let body = Arc::new(move |s: &SparseSample, (acc, served): &mut (f32, u32)| {
        if stall {
            *served += 1;
            if (*served).is_multiple_of(STALL_EVERY) {
                std::thread::sleep(STALL);
            }
        }
        let margin = kernels::gather_sum(&s.features, |f| weights[f as usize], math);
        *acc += slr::logistic_grad_coef(s.label, margin);
    });
    let mut elapsed = 0.0f64;
    for pass in 0..=passes {
        let start = Instant::now();
        let out = run_one_d_pass_pooled(
            &pool,
            &plan,
            &samples,
            vec![(0.0f32, 0u32); sched.n_workers],
            &body,
        );
        if pass > 0 {
            elapsed += start.elapsed().as_secs_f64();
        }
        std::hint::black_box(&out.scratch);
    }
    elapsed * 1e3
}

/// Threaded SGD MF bit-identical to the simulated engine?
fn mf_bit_identical() -> bool {
    let d = RatingsData::generate(RatingsConfig::tiny());
    let run = MfRunConfig {
        cluster: ClusterSpec::new(1, 4),
        passes: 2,
        ordered: false,
    };
    let (sim, _) = sgd_mf::train_orion(&d, MfConfig::new(8), &run);
    let (thr, _) = sgd_mf::train_threaded(&d, MfConfig::new(8), 4, 2, false);
    let dims = d.ratings.shape().dims().to_vec();
    (0..dims[0] as i64).all(|u| {
        sim.w
            .row_slice(u)
            .iter()
            .zip(thr.w.row_slice(u))
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }) && (0..dims[1] as i64).all(|i| {
        sim.h
            .row_slice(i)
            .iter()
            .zip(thr.h.row_slice(i))
            .all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

/// Threaded SLR bit-identical to the simulated engine?
fn slr_bit_identical() -> bool {
    let d = SparseData::generate(SparseConfig::tiny());
    let run = SlrRunConfig {
        cluster: ClusterSpec::new(1, 4),
        passes: 3,
        prefetch_override: None,
    };
    let (sim, _) = slr::train_orion(&d, SlrConfig::new(), &run);
    let (thr, _) = slr::train_threaded(&d, SlrConfig::new(), 4, 3);
    (0..d.config.n_features as u64).all(|f| {
        sim.weights.get_flat_or_default(f).to_bits() == thr.weights.get_flat_or_default(f).to_bits()
    })
}

struct Series {
    app: &'static str,
    workload: &'static str,
    bit_identical: bool,
    points: Vec<Point>,
}

impl Series {
    fn speedup_at(&self, threads: usize) -> f64 {
        let base = self.points[0].wall_ms;
        self.points
            .iter()
            .find(|p| p.threads == threads)
            .map(|p| base / p.wall_ms)
            .unwrap_or(0.0)
    }

    fn to_json(&self) -> String {
        let base = self.points[0].wall_ms;
        let results: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"threads\":{},\"wall_ms\":{:.3},\"speedup\":{:.3}}}",
                    p.threads,
                    p.wall_ms,
                    base / p.wall_ms
                )
            })
            .collect();
        format!(
            "{{\"app\":\"{}\",\"workload\":\"{}\",\"bit_identical\":{},\"results\":[{}]}}",
            self.app,
            self.workload,
            self.bit_identical,
            results.join(",")
        )
    }
}

fn main() {
    banner(
        "Thread scaling",
        "real wall-clock speedup of the pooled threaded engine",
    );
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let smoke = smoke();
    let (ratings, mf_passes) = if smoke {
        (RatingsData::generate(RatingsConfig::tiny()), 2u64)
    } else {
        (RatingsData::generate(RatingsConfig::netflix_like()), 3u64)
    };
    let (sparse, slr_passes) = if smoke {
        (SparseData::generate(SparseConfig::tiny()), 2u64)
    } else {
        (SparseData::generate(SparseConfig::kdd_like()), 3u64)
    };
    println!(
        "host parallelism: {host} core(s){}",
        if smoke { " [smoke]" } else { "" }
    );

    println!("\nverifying bit-identity vs the simulated engine...");
    let mf_ident = mf_bit_identical();
    let slr_ident = slr_bit_identical();
    assert!(
        mf_ident,
        "threaded SGD MF diverged from the simulated engine"
    );
    assert!(slr_ident, "threaded SLR diverged from the simulated engine");
    println!("  sgd_mf: bit-identical  slr: bit-identical");

    let mut series = Vec::new();
    for (workload, stall) in [("compute", false), ("overlap", true)] {
        let mut pts = Vec::new();
        for &t in &THREADS {
            let ms = mf_pass_wall(&ratings, 16, t, mf_passes, stall, MathMode::Exact);
            pts.push(Point {
                threads: t,
                wall_ms: ms,
            });
        }
        series.push(Series {
            app: "sgd_mf",
            workload,
            bit_identical: mf_ident,
            points: pts,
        });
        let mut pts = Vec::new();
        for &t in &THREADS {
            let ms = slr_pass_wall(&sparse, t, slr_passes, stall, MathMode::Exact);
            pts.push(Point {
                threads: t,
                wall_ms: ms,
            });
        }
        series.push(Series {
            app: "slr",
            workload,
            bit_identical: slr_ident,
            points: pts,
        });
    }

    println!(
        "\n{:<8} {:<9} {:>8} {:>10} {:>9}",
        "app", "workload", "threads", "wall ms", "speedup"
    );
    for s in &series {
        let base = s.points[0].wall_ms;
        for p in &s.points {
            println!(
                "{:<8} {:<9} {:>8} {:>10.2} {:>8.2}x",
                s.app,
                s.workload,
                p.threads,
                p.wall_ms,
                base / p.wall_ms
            );
        }
    }

    // Exact-vs-FastMath columns: the compute workload re-timed under
    // each `MathMode`, so one binary measures both folds of the
    // reductions. SGD MF uses rank 64, where the per-rating dot is long
    // enough for the lane fold to matter.
    println!(
        "\n{:<8} {:>8} {:>11} {:>13} {:>7}",
        "app", "threads", "exact ms", "fastmath ms", "fm"
    );
    let mut kernel_rows: Vec<String> = Vec::new();
    for app in ["sgd_mf", "slr"] {
        let wall = |t, math| match app {
            "sgd_mf" => mf_pass_wall(&ratings, 64, t, mf_passes, false, math),
            _ => slr_pass_wall(&sparse, t, slr_passes, false, math),
        };
        for &t in &THREADS {
            let (ex, fm) = (wall(t, MathMode::Exact), wall(t, MathMode::FastMath));
            println!("{app:<8} {t:>8} {ex:>11.2} {fm:>13.2} {:>6.2}x", ex / fm);
            kernel_rows.push(format!(
                "{{\"app\":\"{app}\",\"threads\":{t},\"exact_ms\":{ex:.3},\
                 \"fastmath_ms\":{fm:.3},\"fastmath_speedup\":{:.3}}}",
                ex / fm
            ));
        }
    }

    // Headline: the workload whose scaling the host can actually show.
    // A single-core host cannot speed up pure compute, but genuinely
    // overlaps the stall workload's waits across worker threads.
    let headline_workload = if host < 4 { "overlap" } else { "compute" };
    let headline = series
        .iter()
        .find(|s| s.app == "sgd_mf" && s.workload == headline_workload)
        .expect("sgd_mf headline series present");
    let at4 = headline.speedup_at(4);
    println!(
        "\nheadline: sgd_mf/{headline_workload} speedup at 4 workers = {at4:.2}x (bit_identical={})",
        headline.bit_identical
    );

    let json = format!(
        "{{\n  \"bench\": \"thread_scaling\",\n  \"host_parallelism\": {host},\n  \"smoke\": {smoke},\n  \"stall_every_items\": {STALL_EVERY},\n  \"stall_us\": {},\n  \"series\": [\n    {}\n  ],\n  \"kernel_columns\": [\n    {}\n  ],\n  \"headline\": {{\"app\":\"sgd_mf\",\"workload\":\"{headline_workload}\",\"speedup_at_4\":{at4:.3},\"bit_identical\":{}}}\n}}\n",
        STALL.as_micros(),
        series
            .iter()
            .map(Series::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        kernel_rows.join(",\n    "),
        headline.bit_identical
    );
    let path = results_dir().join("BENCH_threads.json");
    std::fs::write(&path, json).expect("write BENCH_threads.json");
    println!("  [json written to {}]", path.display());

    if !smoke {
        assert!(
            at4 >= 2.0,
            "headline speedup at 4 workers is {at4:.2}x, expected >= 2x"
        );
    }
}
