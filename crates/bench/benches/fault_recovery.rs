//! Fault-recovery overhead: virtual wall-clock cost of checkpointing
//! and crash recovery for Orion-parallelized SGD MF under a scripted
//! mid-run machine crash, swept over the checkpoint interval.
//!
//! The trade the sweep exposes: frequent checkpoints pay steady write
//! stalls but re-execute little after a crash; sparse checkpoints are
//! nearly free until a crash forces a long rewind. Results (plus the
//! fault-free baseline) land in `results/BENCH_fault.json`.

use orion_apps::chaos::ChaosConfig;
use orion_apps::run::{run, Engine, RunConfig};
use orion_apps::sgd_mf::{train_orion, MfApp, MfConfig, MfRunConfig};
use orion_bench::{banner, eval_cluster, fmt_secs, results_dir};
use orion_core::{clean_checkpoints, FaultPlan, VirtualTime};
use orion_data::{RatingsConfig, RatingsData};

const PASSES: u64 = 6;
const INTERVALS: [u64; 4] = [1, 2, 3, 6];
const RESTART_MS: u64 = 250;

fn main() {
    banner(
        "Fault recovery",
        "checkpoint-interval sweep under a mid-run machine crash (SGD MF)",
    );
    let data = RatingsData::generate(RatingsConfig::netflix_like());
    let sim = MfRunConfig {
        cluster: eval_cluster(),
        passes: PASSES,
        ordered: false,
    };
    let cfg = MfConfig::new(8);

    let (_, clean_stats) = train_orion(&data, cfg.clone(), &sim);
    let clean_wall = clean_stats.progress.last().expect("progress").time;
    println!(
        "\nfault-free baseline: {} over {PASSES} passes",
        fmt_secs(clean_wall.as_secs_f64())
    );

    let crash_at = VirtualTime::from_nanos(clean_wall.as_nanos() / 2);
    let plan = FaultPlan::new(42).crash(1, crash_at, VirtualTime::from_millis(RESTART_MS));
    println!(
        "crash: machine 1 at {} (restart {RESTART_MS}ms)\n",
        fmt_secs(crash_at.as_secs_f64())
    );
    println!(
        "{:>8}  {:>10}  {:>9}  {:>7}  {:>9}  {:>9}  {:>9}  {:>9}",
        "every", "wall", "overhead", "reexec", "ckpts", "fault", "recover", "ckpt-io"
    );

    let dir = results_dir().join("fault_ckpts");
    let mut sweep_rows = Vec::new();
    for every in INTERVALS {
        let chaos = ChaosConfig::new(plan.clone(), every, &dir, &format!("bench_e{every}"));
        let mut chaos_run = RunConfig::new(Engine::Sim(sim.cluster.clone()), PASSES);
        chaos_run.chaos = Some(chaos.clone());
        let out = run(&MfApp::new(cfg.clone(), false), &data, &chaos_run).expect("MF recovers");
        let (stats, report) = (out.stats, out.chaos.expect("a chaos run reports"));
        clean_checkpoints(&chaos.policy(), &["W", "H"]);
        let wall = stats.progress.last().expect("progress").time;
        let overhead = (wall.as_secs_f64() - clean_wall.as_secs_f64()) / clean_wall.as_secs_f64();
        assert_eq!(report.crashes_recovered, 1, "the scripted crash must fire");
        println!(
            "{:>8}  {:>10}  {:>8.1}%  {:>7}  {:>9}  {:>9}  {:>9}  {:>9}",
            every,
            fmt_secs(wall.as_secs_f64()),
            overhead * 100.0,
            report.passes_reexecuted,
            report.checkpoints_written,
            fmt_secs(report.fault_ns as f64 / 1e9),
            fmt_secs(report.recovery_ns as f64 / 1e9),
            fmt_secs(report.checkpoint_ns as f64 / 1e9),
        );
        sweep_rows.push(format!(
            concat!(
                "{{\"checkpoint_every\":{},\"wall_s\":{:.6},\"overhead_ratio\":{:.6},",
                "\"crashes_recovered\":{},\"passes_reexecuted\":{},\"checkpoints_written\":{},",
                "\"fault_ns\":{},\"recovery_ns\":{},\"checkpoint_ns\":{}}}"
            ),
            every,
            wall.as_secs_f64(),
            overhead,
            report.crashes_recovered,
            report.passes_reexecuted,
            report.checkpoints_written,
            report.fault_ns,
            report.recovery_ns,
            report.checkpoint_ns,
        ));
    }

    let json = format!(
        concat!(
            "{{\"bench\":\"fault_recovery\",\"app\":\"sgd_mf\",",
            "\"cluster\":{{\"machines\":{},\"workers_per_machine\":{}}},",
            "\"passes\":{},\"fault_free_wall_s\":{:.6},",
            "\"crash\":{{\"machine\":1,\"at_s\":{:.6},\"restart_ms\":{}}},",
            "\"sweep\":[{}]}}\n"
        ),
        eval_cluster().n_machines,
        eval_cluster().workers_per_machine,
        PASSES,
        clean_wall.as_secs_f64(),
        crash_at.as_secs_f64(),
        RESTART_MS,
        sweep_rows.join(","),
    );
    let path = results_dir().join("BENCH_fault.json");
    std::fs::write(&path, json).expect("write BENCH_fault.json");
    println!("\n  [fault sweep written to {}]", path.display());
}
