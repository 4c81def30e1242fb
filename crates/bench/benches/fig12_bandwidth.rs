//! Fig. 12: aggregate network bandwidth usage over time while training
//! LDA on the NYTimes-like corpus — Bösen with managed communication vs
//! Orion. CM's aggressive proactive communication uses substantially
//! more bandwidth than Orion's schedule-driven rotation.

use orion_apps::lda::{LdaApp, LdaConfig, LdaPsAdapter};
use orion_apps::run::{run, Engine, RunConfig};
use orion_bench::{banner, eval_cluster, write_csv, write_report};
use orion_data::{CorpusConfig, CorpusData};
use orion_ps::{CmConfig, PsConfig, PsEngine};

fn main() {
    banner(
        "Fig 12",
        "bandwidth usage over time: Bösen managed comm vs Orion (LDA, NYTimes-like)",
    );
    let corpus = CorpusData::generate(CorpusConfig::nytimes_like());
    let passes = 10u64;
    let k = 40;

    let mut cm_cfg = PsConfig::vanilla(eval_cluster(), 1.0);
    cm_cfg.managed = Some(CmConfig {
        budget_mbps: 2560.0,
        rounds_per_pass: 8,
    });
    let mut cm = PsEngine::new(LdaPsAdapter::new(&corpus, LdaConfig::new(k)), cm_cfg);
    for _ in 0..passes {
        cm.run_pass();
    }
    let cm_stats = cm.finish();

    // Traced run: the per-link histograms behind this figure also feed a
    // phase/traffic RunReport written next to the CSV.
    let app = LdaApp {
        cfg: LdaConfig::new(k),
        ordered: false,
    };
    let mut traced = RunConfig::new(Engine::Sim(eval_cluster()), passes);
    traced.trace = true;
    let out = run(&app, &corpus, &traced).expect("LDA traces on the simulated engine");
    let (orion_stats, artifacts) = (out.stats, out.trace.expect("a traced run yields artifacts"));

    // The traces are binned independently (each run's own horizon);
    // print side by side by bin index with each trace's own timestamps.
    println!(
        "\n{:>4}  {:>10} {:>14}  {:>10} {:>14}",
        "bin", "t_cm (s)", "Bosen CM Mbps", "t_or (s)", "Orion Mbps"
    );
    let n = cm_stats.bandwidth.len().max(orion_stats.bandwidth.len());
    let at = |tr: &[(f64, f64)], i: usize| tr.get(i).copied().unwrap_or((f64::NAN, 0.0));
    let mut csv = Vec::new();
    for i in (0..n).step_by(2) {
        let (tc, b) = at(&cm_stats.bandwidth, i);
        let (to, o) = at(&orion_stats.bandwidth, i);
        println!("{i:>4}  {tc:>10.4} {b:>14.1}  {to:>10.4} {o:>14.1}");
        csv.push(format!("{i},{tc:.6},{b:.3},{to:.6},{o:.3}"));
    }
    write_csv(
        "fig12_bandwidth.csv",
        "bin,t_cm,bosen_cm_mbps,t_orion,orion_mbps",
        &csv,
    );
    write_report("BENCH_trace.json", &artifacts.report);

    let total_ratio = cm_stats.total_bytes as f64 / orion_stats.total_bytes.max(1) as f64;
    println!(
        "\ntotal bytes: Bosen CM {} vs Orion {} ({:.1}x) — the paper's Fig. 12\n\
         shows CM using substantially higher bandwidth for the same training.",
        cm_stats.total_bytes, orion_stats.total_bytes, total_ratio
    );
    assert!(
        cm_stats.total_bytes > orion_stats.total_bytes,
        "CM must use more bandwidth than Orion"
    );
}
