//! Rotation bandwidth of the multi-process TCP runtime: the Fig.-8
//! pipelined rotation of SGD MF partitions measured on a real localhost
//! cluster at 2/4/8 node processes (see `docs/DISTRIBUTED.md`).
//!
//! For each cluster size the bench trains SGD MF with
//! `train_mf_distributed`, then reports per-epoch wall time, the bytes
//! rotated node-to-node over sockets, and the resulting rotation
//! bandwidth. Bit-identity against the virtual-time sim oracle is
//! asserted and recorded — the numbers are only meaningful if the
//! distributed run computes the same model. Writes
//! `results/BENCH_net.json`. Set `ORION_NET_BENCH_SMOKE=1` for a fast
//! CI run on the tiny dataset.

use orion_apps::distributed::{maybe_node, train_mf_distributed, DistOptions};
use orion_apps::sgd_mf::{self, MfConfig, MfRunConfig};
use orion_bench::{banner, results_dir};
use orion_core::ClusterSpec;
use orion_data::{RatingsConfig, RatingsData};

/// Cluster sizes of the sweep (OS processes, one per virtual node).
const NODES: [usize; 3] = [2, 4, 8];

fn smoke() -> bool {
    std::env::var("ORION_NET_BENCH_SMOKE").is_ok()
}

/// The commit the numbers were taken on (`-dirty` when the tree had
/// uncommitted changes), or `unknown` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_string())
}

/// One cluster size's measurements.
struct Row {
    nodes: usize,
    epochs: usize,
    /// Mean wall time of one epoch (barrier to barrier), milliseconds.
    epoch_ms: f64,
    /// Mean node-to-node bytes rotated per epoch.
    rotated_bytes: f64,
    /// Rotation bandwidth: rotated bytes over epoch wall time.
    mb_per_s: f64,
    bit_identical: bool,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "{{\"nodes\":{},\"epochs\":{},\"epoch_wall_ms\":{:.3},\
             \"rotated_bytes_per_epoch\":{:.0},\"rotation_mb_per_s\":{:.3},\
             \"bit_identical\":{}}}",
            self.nodes,
            self.epochs,
            self.epoch_ms,
            self.rotated_bytes,
            self.mb_per_s,
            self.bit_identical
        )
    }
}

fn measure(data: &RatingsData, cfg: &MfConfig, nodes: usize, passes: u64) -> Row {
    let dir = std::env::temp_dir().join(format!("orion_bench_net_{}_{nodes}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = DistOptions::new(nodes, passes, &dir);
    opts.run_id = format!("bench_n{nodes}");
    let out = train_mf_distributed(data, cfg.clone(), false, &opts)
        .expect("distributed bench run completes");
    let _ = std::fs::remove_dir_all(&dir);

    // Rotation traffic is node-to-node; coordinator links (control
    // frames, gathers) are excluded from the bandwidth figure.
    let mut wall_ns = 0u64;
    let mut rotated = 0u64;
    for e in &out.epochs {
        wall_ns += e.wall_ns;
        rotated += e
            .links
            .iter()
            .filter(|l| l.src < nodes && l.dst < nodes)
            .map(|l| l.bytes)
            .sum::<u64>();
    }
    let epochs = out.epochs.len();
    let epoch_ms = wall_ns as f64 / 1e6 / epochs as f64;
    let rotated_bytes = rotated as f64 / epochs as f64;
    let mb_per_s = (rotated as f64 / 1e6) / (wall_ns as f64 / 1e9);

    let (sim_model, _) = sgd_mf::train_orion(
        data,
        cfg.clone(),
        &MfRunConfig {
            cluster: ClusterSpec::new(nodes, 1),
            passes,
            ordered: false,
        },
    );
    let bit_identical = sim_model.w == out.model.w && sim_model.h == out.model.h;
    assert!(
        bit_identical,
        "{nodes}-node distributed run diverged from the sim oracle"
    );

    Row {
        nodes,
        epochs,
        epoch_ms,
        rotated_bytes,
        mb_per_s,
        bit_identical,
    }
}

fn main() {
    // The coordinator re-executes this binary as the node processes;
    // children divert into the node runtime before any bench work.
    maybe_node();

    banner(
        "Rotation bandwidth",
        "multi-process TCP rotation of SGD MF partitions at 2/4/8 nodes",
    );
    let smoke = smoke();
    let (data, passes) = if smoke {
        (RatingsData::generate(RatingsConfig::tiny()), 2u64)
    } else {
        (
            RatingsData::generate(RatingsConfig {
                n_users: 400,
                n_items: 320,
                nnz: 30_000,
                true_rank: 8,
                skew: 0.7,
                noise: 0.1,
                seed: 5,
            }),
            5u64,
        )
    };
    let cfg = MfConfig::new(if smoke { 4 } else { 16 });
    println!(
        "dataset: {} ratings, rank {}, {passes} epochs per cluster size{}",
        data.nnz(),
        cfg.rank,
        if smoke { " [smoke]" } else { "" }
    );

    let rows: Vec<Row> = NODES
        .iter()
        .map(|&n| measure(&data, &cfg, n, passes))
        .collect();

    println!(
        "\n{:>6} {:>8} {:>12} {:>16} {:>10}",
        "nodes", "epochs", "epoch ms", "rotated KiB/ep", "MB/s"
    );
    for r in &rows {
        println!(
            "{:>6} {:>8} {:>12.2} {:>16.1} {:>10.2}",
            r.nodes,
            r.epochs,
            r.epoch_ms,
            r.rotated_bytes / 1024.0,
            r.mb_per_s
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"net_rotation\",\n  \"smoke\": {smoke},\n  \
         \"host_parallelism\": {},\n  \"git_rev\": \"{}\",\n  \
         \"app\": \"sgd_mf\",\n  \"ratings\": {},\n  \"rank\": {},\n  \
         \"passes\": {passes},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, usize::from),
        git_rev(),
        data.nnz(),
        cfg.rank,
        rows.iter()
            .map(Row::to_json)
            .collect::<Vec<_>>()
            .join(",\n    ")
    );
    let path = results_dir().join("BENCH_net.json");
    std::fs::write(&path, json).expect("write BENCH_net.json");
    println!("\n  [json written to {}]", path.display());
}
