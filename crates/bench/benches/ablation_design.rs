//! Ablations of Orion's design choices (DESIGN.md §5):
//!
//! 1. **Pipelined rotation (Fig. 8)** — unordered 2-D with pipeline
//!    depth 2 vs depth 1 (worker must wait for its predecessor's
//!    partition at every step).
//! 2. **Histogram-balanced partitioning (§4.3)** — balanced vs uniform
//!    blocks on a heavily skewed iteration space.
//! 3. **Point-to-point waits vs stepwise barriers** — measured via the
//!    ordered wavefront (barriers implicit in its dependency chain)
//!    against unordered rotation, already covered by Table 3; here the
//!    pipelining share is isolated.

use orion_analysis::Strategy;
use orion_bench::{banner, fmt_secs, write_csv};
use orion_data::{RatingsConfig, RatingsData};
use orion_runtime::{
    build_schedule_with, LoopCommModel, ScheduleOptions, SimExecutor, ThreadedPlan,
};
use orion_sim::ClusterSpec;

fn run_mf_pass_time(
    data: &RatingsData,
    opts: ScheduleOptions,
    rotated_bytes: u64,
    passes: u64,
) -> f64 {
    let items = data.items();
    let indices: Vec<Vec<i64>> = items.iter().map(|(i, _)| i.clone()).collect();
    let dims = data.ratings.shape().dims().to_vec();
    let strat = Strategy::TwoD {
        space: 0,
        time: 1,
        ordered: false,
    };
    let plan = ThreadedPlan::compile(&build_schedule_with(&strat, &indices, &dims, 32, opts));
    let mut ex = SimExecutor::new(ClusterSpec::new(8, 4));
    let comm = LoopCommModel {
        rotated_bytes,
        served: None,
    };
    let mut total = 0.0;
    for _ in 0..passes {
        let stats = ex.run_pass(&plan, &comm, &mut |_| 160.0, &mut |_, _| {});
        total += stats.elapsed().as_secs_f64();
    }
    total / passes as f64
}

fn main() {
    banner(
        "Ablation",
        "design choices: pipelined rotation & histogram balancing",
    );
    let passes = 6u64;
    let mut csv = Vec::new();

    // ---- 1. pipeline depth ----
    let data = RatingsData::generate(RatingsConfig::netflix_like());
    let rotated = 480 * 16 * 4; // H's bytes
    let with_pipeline = run_mf_pass_time(&data, ScheduleOptions::default(), rotated, passes);
    let without = run_mf_pass_time(
        &data,
        ScheduleOptions {
            pipeline_depth: 1,
            ..Default::default()
        },
        rotated,
        passes,
    );
    println!("\npipelined rotation (Fig. 8), SGD MF pass time on 32 workers:");
    println!("  depth 2 (paper): {}", fmt_secs(with_pipeline));
    println!(
        "  depth 1:         {}  ({:.2}x slower — every step waits on its predecessor)",
        fmt_secs(without),
        without / with_pipeline
    );
    csv.push(format!("pipeline_depth2,{with_pipeline:.6}"));
    csv.push(format!("pipeline_depth1,{without:.6}"));
    assert!(
        without > with_pipeline,
        "pipelining must help: {without} vs {with_pipeline}"
    );

    // ---- 2. histogram balancing on skewed data ----
    let skewed = RatingsData::generate(RatingsConfig {
        n_users: 600,
        n_items: 480,
        nnz: 80_000,
        true_rank: 16,
        skew: 1.2, // heavy head
        noise: 0.1,
        seed: 99,
    });
    let balanced = run_mf_pass_time(&skewed, ScheduleOptions::default(), rotated, passes);
    let uniform = run_mf_pass_time(
        &skewed,
        ScheduleOptions {
            balance_partitions: false,
            ..Default::default()
        },
        rotated,
        passes,
    );
    println!("\nhistogram-balanced partitioning (§4.3), skewed ratings (Zipf 1.2):");
    println!("  balanced (paper): {}", fmt_secs(balanced));
    println!(
        "  uniform:          {}  ({:.2}x slower — hot rows straggle)",
        fmt_secs(uniform),
        uniform / balanced
    );
    csv.push(format!("balanced,{balanced:.6}"));
    csv.push(format!("uniform,{uniform:.6}"));
    assert!(
        uniform > balanced,
        "balancing must help on skew: {uniform} vs {balanced}"
    );

    write_csv("ablation_design.csv", "variant,secs_per_pass", &csv);
}
