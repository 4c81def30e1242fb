//! Table 2: ML applications parallelized by Orion — model, algorithm,
//! lines of application code, and the parallelization the static
//! analyzer derives for each.

use orion_analysis::analyze;
use orion_bench::banner;
use orion_ir::{ArrayMeta, DistArrayId, LoopSpec, Subscript};

struct AppRow {
    acronym: &'static str,
    model: &'static str,
    algorithm: &'static str,
    loc: usize,
    spec: LoopSpec,
    metas: Vec<ArrayMeta>,
    paper: &'static str,
}

fn loc_of(src: &str) -> usize {
    src.lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("//")
        })
        .count()
}

fn mf_like(name: &str) -> (LoopSpec, Vec<ArrayMeta>) {
    let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
    let spec = LoopSpec::builder(name, z, vec![600, 480])
        .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
        .build()
        .unwrap();
    let metas = vec![
        ArrayMeta::sparse(z, "ratings", vec![600, 480], 4, 80_000),
        ArrayMeta::dense(w, "W", vec![600, 16], 4),
        ArrayMeta::dense(h, "H", vec![480, 16], 4),
    ];
    (spec, metas)
}

fn slr_like(name: &str) -> (LoopSpec, Vec<ArrayMeta>) {
    let (z, w) = (DistArrayId(0), DistArrayId(1));
    let spec = LoopSpec::builder(name, z, vec![4000])
        .read(w, vec![Subscript::unknown()])
        .write(w, vec![Subscript::unknown()])
        .buffer_writes(w)
        .build()
        .unwrap();
    let metas = vec![
        ArrayMeta::sparse(z, "samples", vec![4000], 64, 4000),
        ArrayMeta::dense(w, "weights", vec![50_000], 4),
    ];
    (spec, metas)
}

fn lda_like() -> (LoopSpec, Vec<ArrayMeta>) {
    let (tok, dt, wt, ts) = (
        DistArrayId(0),
        DistArrayId(1),
        DistArrayId(2),
        DistArrayId(3),
    );
    let spec = LoopSpec::builder("lda_gibbs", tok, vec![1200, 4000])
        .read_write(dt, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(wt, vec![Subscript::loop_index(1), Subscript::Full])
        .read(ts, vec![Subscript::Full])
        .write(ts, vec![Subscript::Full])
        .buffer_writes(ts)
        .build()
        .unwrap();
    let metas = vec![
        ArrayMeta::sparse(tok, "tokens", vec![1200, 4000], 4, 100_000),
        ArrayMeta::dense(dt, "doc_topic", vec![1200, 40], 4),
        ArrayMeta::dense(wt, "word_topic", vec![4000, 40], 4),
        ArrayMeta::dense(ts, "topic_sum", vec![40], 8),
    ];
    (spec, metas)
}

fn cp_like(buffered: bool) -> (LoopSpec, Vec<ArrayMeta>) {
    let (t, u, v, sm) = (
        DistArrayId(0),
        DistArrayId(1),
        DistArrayId(2),
        DistArrayId(3),
    );
    let b = LoopSpec::builder("cp_sgd", t, vec![300, 240, 24])
        .read_write(u, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(v, vec![Subscript::loop_index(1), Subscript::Full])
        .read_write(sm, vec![Subscript::loop_index(2), Subscript::Full]);
    let b = if buffered { b.buffer_writes(sm) } else { b };
    let spec = b.build().unwrap();
    let metas = vec![
        ArrayMeta::sparse(t, "tensor", vec![300, 240, 24], 4, 40_000),
        ArrayMeta::dense(u, "U", vec![300, 8], 4),
        ArrayMeta::dense(v, "V", vec![240, 8], 4),
        ArrayMeta::dense(sm, "S", vec![24, 8], 4),
    ];
    (spec, metas)
}

fn gbt_like() -> (LoopSpec, Vec<ArrayMeta>) {
    let (feats, grads, hist) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
    let spec = LoopSpec::builder("gbt_split_finding", feats, vec![20])
        .read(grads, vec![Subscript::Full])
        .write(hist, vec![Subscript::loop_index(0), Subscript::Full])
        .build()
        .unwrap();
    let metas = vec![
        ArrayMeta::dense(feats, "features", vec![20], 4),
        ArrayMeta::dense(grads, "gradients", vec![3000], 4),
        ArrayMeta::dense(hist, "histograms", vec![20, 32], 4),
    ];
    (spec, metas)
}

fn main() {
    banner(
        "Table 2",
        "ML applications parallelized by Orion (paper: Julia LoC; here: Rust LoC of the app module)",
    );

    let mf_loc = loc_of(include_str!("../../apps/src/sgd_mf.rs"));
    let slr_loc = loc_of(include_str!("../../apps/src/slr.rs"));
    let lda_loc = loc_of(include_str!("../../apps/src/lda.rs"));
    let gbt_loc = loc_of(include_str!("../../apps/src/gbt.rs"));

    let rows = vec![
        AppRow {
            acronym: "SGD MF",
            model: "Matrix Factorization",
            algorithm: "SGD",
            loc: mf_loc,
            spec: mf_like("sgd_mf").0,
            metas: mf_like("sgd_mf").1,
            paper: "2D Unordered",
        },
        AppRow {
            acronym: "SGD MF AdaRev",
            model: "Matrix Factorization",
            algorithm: "SGD w/ Adaptive Revision",
            loc: mf_loc,
            spec: mf_like("sgd_mf_adarev").0,
            metas: mf_like("sgd_mf_adarev").1,
            paper: "2D Unordered",
        },
        AppRow {
            acronym: "SLR",
            model: "Sparse Logistic Regression",
            algorithm: "SGD",
            loc: slr_loc,
            spec: slr_like("slr").0,
            metas: slr_like("slr").1,
            paper: "1D (data parallelism)",
        },
        AppRow {
            acronym: "SLR AdaRev",
            model: "Sparse Logistic Regression",
            algorithm: "SGD w/ Adaptive Revision",
            loc: slr_loc,
            spec: slr_like("slr_adarev").0,
            metas: slr_like("slr_adarev").1,
            paper: "1D (data parallelism)",
        },
        AppRow {
            acronym: "LDA",
            model: "Latent Dirichlet Allocation",
            algorithm: "Collapsed Gibbs Sampling",
            loc: lda_loc,
            spec: lda_like().0,
            metas: lda_like().1,
            paper: "2D Unordered, 1D",
        },
        AppRow {
            acronym: "CP (ext.)",
            model: "CP Tensor Decomposition",
            algorithm: "SGD",
            loc: loc_of(include_str!("../../apps/src/tensor_cp.rs")),
            spec: cp_like(false).0,
            metas: cp_like(false).1,
            paper: "— (extension)",
        },
        AppRow {
            acronym: "CP buffered",
            model: "CP Tensor Decomposition",
            algorithm: "SGD w/ buffered factor",
            loc: loc_of(include_str!("../../apps/src/tensor_cp.rs")),
            spec: cp_like(true).0,
            metas: cp_like(true).1,
            paper: "— (extension)",
        },
        AppRow {
            acronym: "GBT",
            model: "Gradient Boosted Tree",
            algorithm: "Gradient Boosting",
            loc: gbt_loc,
            spec: gbt_like().0,
            metas: gbt_like().1,
            paper: "1D",
        },
    ];

    println!(
        "{:<14} {:<28} {:<26} {:>5}  {:<28} {:<24}",
        "Acronym", "Model", "Learning Algorithm", "LoC", "Analyzer chose", "Paper reports"
    );
    let (mut csv, mut loc_csv) = (Vec::new(), Vec::new());
    for r in &rows {
        let plan = analyze(&r.spec, &r.metas, 32);
        let label = plan.strategy.label();
        println!(
            "{:<14} {:<28} {:<26} {:>5}  {:<28} {:<24}",
            r.acronym, r.model, r.algorithm, r.loc, label, r.paper
        );
        csv.push(format!(
            "{},{},{},{}",
            r.acronym, r.algorithm, label, r.paper
        ));
        loc_csv.push(format!("{},{}", r.acronym, r.loc));
    }
    // The line counts move with every app edit, so they get a file of
    // their own and the analyzer's choices stay byte-stable.
    orion_bench::write_csv("table2_apps.csv", "app,algorithm,chosen,paper", &csv);
    orion_bench::write_csv("table2_loc.csv", "app,loc", &loc_csv);
    println!(
        "\nNote: the paper's STRADS SGD MF comparison point is 1788 lines of \
         hand-written C++ ({} in orion-strads), vs <90 lines of Julia on Orion.",
        orion_strads::STRADS_SGD_MF_LOC
    );
}
