//! Quickstart: parallelize a serial training loop with Orion.
//!
//! Mirrors the paper's Fig. 5 program: create DistArrays, declare the
//! loop's access pattern, let the analyzer derive the distributed
//! schedule, and run training passes on a simulated cluster.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Pass `--trace out.json` to dump a Perfetto-loadable phase trace of
//! the run (see `docs/OBSERVABILITY.md`).

mod common;

use orion::core::{ClusterSpec, DistArray, Driver, LoopSpec, Subscript};
use orion::data::{RatingsConfig, RatingsData};

fn main() {
    let args = common::parse("quickstart", &["--trace"]);
    let trace_path = args.trace();
    // A seeded synthetic ratings matrix (users × items).
    let data = RatingsData::generate(RatingsConfig::tiny());
    let dims = data.ratings.shape().dims().to_vec();
    let items = data.items();
    println!(
        "dataset: {} users × {} items, {} ratings",
        dims[0],
        dims[1],
        items.len()
    );

    // Model state lives in DistArrays, like `Orion.randn(...)` in Fig. 5.
    let rank = 8u64;
    let mut w: DistArray<f32> = DistArray::dense_from_fn("W", vec![dims[0], rank], |i| {
        ((i[0] * 31 + i[1] * 7) % 13) as f32 / 26.0 - 0.25
    });
    let mut h: DistArray<f32> = DistArray::dense_from_fn("H", vec![dims[1], rank], |i| {
        ((i[0] * 17 + i[1] * 3) % 13) as f32 / 26.0 - 0.25
    });

    // The driver targets a simulated 4-machine cluster.
    let mut driver = Driver::new(ClusterSpec::new(4, 8));
    let z_id = driver.register(&data.ratings);
    let w_id = driver.register(&w);
    let h_id = driver.register(&h);

    // Declare the loop's DistArray access pattern — the facts Orion's
    // `@parallel_for` macro extracts from the loop AST.
    let spec = LoopSpec::builder("sgd_mf", z_id, dims)
        .read_write(w_id, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(h_id, vec![Subscript::loop_index(1), Subscript::Full])
        .build()
        .expect("valid loop spec");

    // Static parallelization: dependence vectors -> strategy -> schedule.
    let compiled = driver.parallel_for(spec, &items).expect("parallelizes");
    println!("\n--- static parallelization report (cf. paper Fig. 6) ---");
    print!("{}", driver.report(&compiled));
    if trace_path.is_some() {
        driver.enable_tracing(orion::apps::common::span_capacity(&compiled.schedule, 10));
    }

    // Train: the loop body is ordinary imperative Rust over the arrays.
    let step = 0.08f32;
    for pass in 0..10u64 {
        driver.run_pass(&compiled, &mut |_| 100.0, &mut |_worker, pos| {
            let (idx, v) = &items[pos];
            orion::apps::sgd_mf::mf_update(
                w.row_slice_mut(idx[0]),
                h.row_slice_mut(idx[1]),
                *v,
                step,
            );
        });
        let loss: f64 = items
            .iter()
            .map(|(idx, v)| {
                let p = orion::apps::sgd_mf::dot(w.row_slice(idx[0]), h.row_slice(idx[1]));
                ((v - p) as f64).powi(2)
            })
            .sum();
        driver.record_progress(pass, loss);
        println!("pass {pass:2}  loss {loss:10.3}  t={}", driver.now());
    }

    let stats = if trace_path.is_some() {
        let (stats, session, report) = driver.finish_traced("orion/quickstart", &compiled);
        println!("\n{}", report.render());
        args.write_trace(&[session], "");
        stats
    } else {
        driver.finish()
    };
    println!(
        "\ncommunicated {} bytes in {} messages over {} passes",
        stats.total_bytes,
        stats.n_messages,
        stats.progress.len()
    );
}
