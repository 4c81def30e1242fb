//! The threaded engine's per-pass readout: the loss is evaluated on the
//! worker pool (paper §3.4 accumulators), one contiguous item range per
//! worker, and folded in item order from where the serial metric's fold
//! starts, so every recorded metric is bit-identical to the simulated
//! engine's serial readout — for any thread count, ordered or not, and
//! whichever loop dimension the planner picked as space (tall and wide
//! shapes). SLR's pooled job reads every pass's loss but the last from
//! the next pass's margins (DESIGN.md §3.6), and is held to the same
//! bits.
//!
//! Debug test builds validate by default, so there every
//! `train_threaded` pass also cross-checks the pooled readout against
//! the serial one; the release run in CI checks the unvalidated path.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use orion::analysis::Strategy;
use orion::apps::run::{self, App, Engine, Pool, RunConfig};
use orion::apps::sgd_mf::{self, MfConfig, MfRunConfig};
use orion::apps::slr::{self, SlrApp, SlrConfig, SlrModel, SlrRunConfig};
use orion::apps::tensor_cp::{self, CpApp, CpConfig, CpRunConfig};
use orion::core::{ClusterSpec, Driver, RunStats};
use orion::data::{
    RatingsConfig, RatingsData, SparseConfig, SparseData, SparseSample, TensorConfig, TensorData,
};
use orion::dsm::{kernels, DistArray, MathMode};
use orion::runtime::{build_schedule, run_readout_pooled, ThreadedPlan, WorkerPool};

const PASSES: u64 = 3;

fn bits(a: &DistArray<f32>) -> Vec<u32> {
    a.dense_values().iter().map(|x| x.to_bits()).collect()
}

/// `tiny()` is tall (60 × 40: users are space); the wide shape makes
/// the planner pin `H` and rotate `W`.
fn ratings(wide: bool) -> RatingsData {
    let tall = RatingsConfig::tiny();
    RatingsData::generate(if wide {
        RatingsConfig {
            n_users: 60,
            n_items: 400,
            nnz: 3_000,
            ..tall
        }
    } else {
        tall
    })
}

fn tensor(wide: bool) -> TensorData {
    let tall = TensorConfig::tiny();
    TensorData::generate(if wide {
        TensorConfig {
            dim0: 30,
            dim1: 200,
            nnz: 3_000,
            ..tall
        }
    } else {
        tall
    })
}

/// Every pass's recorded metric must carry the oracle's bits.
fn assert_same_curve(got: &RunStats, expect: &RunStats, case: &str) {
    assert_eq!(got.progress.len(), expect.progress.len(), "{case}");
    for (g, e) in got.progress.iter().zip(&expect.progress) {
        assert_eq!(
            g.metric.to_bits(),
            e.metric.to_bits(),
            "{case} pass {}",
            e.iteration
        );
    }
}

#[test]
fn mf_readout_matches_the_oracle_bit_for_bit() {
    for wide in [false, true] {
        let data = ratings(wide);
        for threads in 1..=4 {
            for ordered in [false, true] {
                let run = MfRunConfig {
                    cluster: ClusterSpec::new(1, threads),
                    passes: PASSES,
                    ordered,
                };
                let (oracle, expect) = sgd_mf::train_orion(&data, MfConfig::new(4), &run);
                let (model, got) =
                    sgd_mf::train_threaded(&data, MfConfig::new(4), threads, PASSES, ordered);
                let case = format!("wide={wide} threads={threads} ordered={ordered}");
                assert_eq!(expect.progress.len(), PASSES as usize, "{case}");
                assert_same_curve(&got, &expect, &case);
                assert_eq!(bits(&model.w), bits(&oracle.w), "{case}: W");
                assert_eq!(bits(&model.h), bits(&oracle.h), "{case}: H");
            }
        }
    }
}

/// A one-pass run records its one point too: the loss curve has no
/// hidden `passes > 1` rule.
#[test]
fn mf_single_pass_run_records_its_loss() {
    let data = ratings(false);
    let run = MfRunConfig {
        cluster: ClusterSpec::new(1, 2),
        passes: 1,
        ordered: false,
    };
    let (_, expect) = sgd_mf::train_orion(&data, MfConfig::new(4), &run);
    let (_, got) = sgd_mf::train_threaded(&data, MfConfig::new(4), 2, 1, false);
    assert_eq!(got.progress.len(), 1);
    assert_same_curve(&got, &expect, "passes=1");
}

#[test]
fn cp_readout_matches_the_oracle_bit_for_bit() {
    for wide in [false, true] {
        let data = tensor(wide);
        for threads in 1..=4 {
            let run = CpRunConfig {
                cluster: ClusterSpec::new(1, threads),
                passes: PASSES,
                buffer_s: true,
            };
            let (oracle, expect) = tensor_cp::train_orion(&data, CpConfig::new(4), &run);
            let app = CpApp {
                cfg: CpConfig::new(4),
                buffer_s: true,
            };
            let threaded = RunConfig::new(Engine::Threads(threads), PASSES);
            let out = run::run(&app, &data, &threaded).expect("buffered CP runs on threads");
            let (model, got) = (out.model, out.stats);
            let case = format!("wide={wide} threads={threads}");
            assert_eq!(expect.progress.len(), PASSES as usize, "{case}");
            assert_same_curve(&got, &expect, &case);
            assert_eq!(bits(&model.u), bits(&oracle.u), "{case}: U");
            assert_eq!(bits(&model.v), bits(&oracle.v), "{case}: V");
            assert_eq!(bits(&model.s), bits(&oracle.s), "{case}: S");
        }
    }
}

/// SLR reads its loss on the pool too, against the weights lent to the
/// workers: every recorded metric and the final weights carry the
/// oracle's bits for any thread count.
#[test]
fn slr_readout_matches_the_oracle_bit_for_bit() {
    let data = SparseData::generate(SparseConfig::tiny());
    for threads in 1..=4 {
        let run = SlrRunConfig {
            cluster: ClusterSpec::new(1, threads),
            passes: PASSES,
            prefetch_override: None,
        };
        let (oracle, expect) = slr::train_orion(&data, SlrConfig::new(), &run);
        let (model, got) = slr::train_threaded(&data, SlrConfig::new(), threads, PASSES);
        let case = format!("slr threads={threads}");
        assert_eq!(expect.progress.len(), PASSES as usize, "{case}");
        assert_same_curve(&got, &expect, &case);
        assert_eq!(
            bits(&model.weights),
            bits(&oracle.weights),
            "{case}: weights"
        );
    }
}

/// The 1-D plan SLR's threaded run compiles over `n` samples.
fn one_d_plan(n: usize, workers: usize) -> ThreadedPlan {
    let indices: Vec<Vec<i64>> = (0..n as i64).map(|i| vec![i]).collect();
    let indices: Vec<&[i64]> = indices.iter().map(Vec::as_slice).collect();
    let strategy = Strategy::FullyParallel { dim: 0 };
    ThreadedPlan::compile(&build_schedule(&strategy, &indices, &[n as u64], workers))
}

/// A trained SLR model and its samples, shared as the readout shares
/// them.
fn slr_trained() -> (SparseData, Arc<Vec<SparseSample>>, Arc<SlrModel>) {
    let data = SparseData::generate(SparseConfig::tiny());
    let (model, _) = slr::train_serial(&data, SlrConfig::new(), 2);
    let samples = Arc::new(data.samples.clone());
    (data, samples, Arc::new(model))
}

/// One sample's logistic loss, the term `SlrModel::loss` sums.
fn logistic_term(s: &SparseSample, model: &SlrModel) -> f64 {
    let get = |f: u32| model.weights.get_flat_or_default(f as u64);
    let ym = s.label as f32 * kernels::gather_sum(&s.features, get, MathMode::Exact);
    if ym > 30.0 {
        0.0
    } else if ym < -30.0 {
        (-ym) as f64
    } else {
        ((-ym).exp() as f64).ln_1p()
    }
}

/// The terms of `samples`, summed in sample order from `+0.0`.
fn sample_order_sum(samples: &[SparseSample], model: &SlrModel) -> f64 {
    (samples.iter()).fold(0.0, |acc, s| acc + logistic_term(s, model))
}

#[test]
fn validated_slr_readout_accepts_the_sample_order_sum() {
    let (data, samples, model) = slr_trained();
    let n = samples.len() as f64;
    for workers in 1..=4 {
        let mut driver = Driver::new(ClusterSpec::new(1, workers));
        driver.set_validate(true);
        let plan = one_d_plan(samples.len(), workers);
        let term = Arc::new(logistic_term);
        let sum = driver.eval_pass(&plan, &samples, &model, &term, 0.0, || {
            sample_order_sum(&samples, &model)
        });
        // `SlrModel::loss` divides the sample-order sum once.
        assert_eq!((sum / n).to_bits(), model.loss(&data).to_bits());
    }
}

/// The seeded negative case: joining per-worker partial sums adds the
/// same terms in another association, which the cross-check must see.
#[test]
#[should_panic(expected = "differs from the serial readout")]
fn validated_slr_readout_catches_a_sum_in_worker_order() {
    let (data, samples, model) = slr_trained();
    let half = samples.len() / 2;
    let partials = [&samples[..half], &samples[half..]].map(|r| sample_order_sum(r, &model));
    let in_worker_order = (partials[0] + partials[1]) / samples.len() as f64;
    let mut driver = Driver::new(ClusterSpec::new(1, 2));
    driver.set_validate(true);
    driver.check_readout(in_worker_order, || model.loss(&data));
}

/// SLR's pooled job reads each pass's loss from the next pass's margins
/// and keeps a readout only after the last pass: for any pass count,
/// math mode, update rule and thread count, every recorded metric — one
/// per pass, in pass order — and the final weights carry the oracle's
/// bits. A curve shifted by one pass, a lost last point or fused terms
/// taken under another math mode than the readout's all show here.
#[test]
fn slr_fused_curve_matches_the_oracle() {
    let data = SparseData::generate(SparseConfig::tiny());
    let configs = [
        ("exact", SlrConfig::new()),
        ("fast_math", SlrConfig::new().fast_math()),
        (
            "adaptive",
            SlrConfig {
                adaptive: true,
                ..SlrConfig::new()
            },
        ),
    ];
    for passes in [1, 2, 3, 5] {
        for (name, cfg) in &configs {
            for threads in 1..=4 {
                let run = SlrRunConfig {
                    cluster: ClusterSpec::new(1, threads),
                    passes,
                    prefetch_override: None,
                };
                let (oracle, expect) = slr::train_orion(&data, cfg.clone(), &run);
                let (model, got) = slr::train_threaded(&data, cfg.clone(), threads, passes);
                let case = format!("slr {name} passes={passes} threads={threads}");
                assert_eq!(expect.progress.len(), passes as usize, "{case}");
                assert_same_curve(&got, &expect, &case);
                let order: Vec<u64> = got.progress.iter().map(|p| p.iteration).collect();
                assert_eq!(order, (0..passes).collect::<Vec<_>>(), "{case}");
                assert_eq!(
                    bits(&model.weights),
                    bits(&oracle.weights),
                    "{case}: weights"
                );
            }
        }
    }
}

/// The seeded negative case of the fused loss: with the two workers'
/// blocks swapped, a 1-D plan still steps every sample once, but the
/// workers' terms one after another are no longer the samples in order.
/// The pooled job must refuse the plan rather than fold them.
#[test]
#[should_panic(expected = "do not tile [0, 200) in worker order")]
fn slr_fused_fold_refuses_blocks_out_of_worker_order() {
    let data = SparseData::generate(SparseConfig::tiny());
    let app = SlrApp {
        cfg: SlrConfig::new(),
        prefetch_override: None,
    };
    let mut driver = Driver::new(ClusterSpec::new(1, 2));
    driver.set_validate(true);
    let (compiled, job) = app.setup(&data, &mut driver);
    let mut swapped = compiled.schedule.clone();
    assert_eq!(swapped.n_workers, 2);
    for exec in &mut swapped.steps[0] {
        exec.block = 1 - exec.block;
    }
    let mut pool = Pool {
        driver: &mut driver,
        compiled: &compiled,
        plan: Arc::new(ThreadedPlan::compile(&swapped)),
    };
    let _ = app.pooled(&data, job, &mut pool, 2);
}

/// Both shapes really exercise both layouts.
#[test]
fn wide_shapes_flip_the_space_dimension() {
    use orion::core::{LoopSpec, Subscript};
    let space_of = |data: &RatingsData| {
        let mut driver = Driver::new(ClusterSpec::new(1, 2));
        let z = driver.register(&data.ratings);
        let dims = data.ratings.shape().dims().to_vec();
        let w = driver.register(&DistArray::<f32>::dense("W", vec![dims[0], 4]));
        let h = driver.register(&DistArray::<f32>::dense("H", vec![dims[1], 4]));
        let spec = LoopSpec::builder("sgd_mf", z, dims)
            .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        match driver.parallel_for(spec, &data.items()).unwrap().strategy() {
            Strategy::TwoD { space, .. } => *space,
            other => panic!("MF must plan as a grid, got {other:?}"),
        }
    };
    assert_eq!(space_of(&ratings(false)), 0);
    assert_eq!(space_of(&ratings(true)), 1);
}

/// Terms whose sum depends on the association: big values cancel, the
/// small ones survive only when added in order.
fn terms(n: usize) -> Arc<Vec<f64>> {
    let magnitude = [1e16, 1.0, -1e16, 0.1, 3.0, -0.25, 1e-3];
    Arc::new(
        (0..n)
            .map(|k| magnitude[k % 7] * (1 + k / 7) as f64)
            .collect(),
    )
}

#[test]
fn readout_is_the_serial_fold_for_every_split() {
    let pool = WorkerPool::new(4);
    let mut buffers = Vec::new();
    let term = Arc::new(|t: &f64, scale: &f64| t * scale);
    // Zero items, fewer items than workers (empty ranges), and counts
    // the worker count does not divide.
    for n in [0, 1, 2, 3, 5, 7, 64, 1001] {
        let items = terms(n);
        for workers in 1..=4 {
            for init in [-0.0, 0.0, 0.5] {
                let got = run_readout_pooled(
                    &pool,
                    workers,
                    &items,
                    &Arc::new(1.5),
                    &mut buffers,
                    &term,
                    init,
                );
                let expect = items.iter().fold(init, |acc, t| acc + t * 1.5);
                assert_eq!(
                    got.to_bits(),
                    expect.to_bits(),
                    "n={n} workers={workers} init={init}"
                );
                assert_eq!(buffers.len(), workers, "one reused buffer per worker");
            }
        }
    }
}

/// Where the fold starts shows only without items: `Iterator::sum`
/// starts at `-0.0`, a `fold(0.0, …)` at `+0.0`, and the readout returns
/// exactly the start it is given.
#[test]
fn an_empty_readout_is_its_fold_start() {
    let pool = WorkerPool::new(3);
    let term = Arc::new(|t: &f64, _: &()| *t);
    let none: Arc<Vec<f64>> = Arc::new(Vec::new());
    let serial_sum: f64 = none.iter().sum();
    for (init, serial) in [(-0.0, serial_sum), (0.0, 0.0f64)] {
        let got = run_readout_pooled(&pool, 3, &none, &Arc::new(()), &mut Vec::new(), &term, init);
        assert_eq!(got.to_bits(), serial.to_bits());
    }
    assert_ne!((-0.0f64).to_bits(), 0.0f64.to_bits());
}

#[test]
fn evaluation_pass_visits_every_position_once_and_writes_nothing() {
    let pool = WorkerPool::new(3);
    let n = 100;
    let items: Arc<Vec<usize>> = Arc::new((0..n).collect());
    let visits: Arc<Vec<AtomicU32>> = Arc::new((0..n).map(|_| AtomicU32::new(0)).collect());
    let seen = Arc::clone(&visits);
    let term = Arc::new(move |&pos: &usize, model: &Vec<f64>| {
        seen[pos].fetch_add(1, Ordering::Relaxed);
        model[pos]
    });
    let model = Arc::new((0..n).map(|k| 1.0 / (k + 1) as f64).collect::<Vec<_>>());
    let before = model.as_ref().clone();
    let got = run_readout_pooled(&pool, 3, &items, &model, &mut Vec::new(), &term, -0.0);
    assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    assert_eq!(*model, before);
    assert_eq!(got.to_bits(), before.iter().sum::<f64>().to_bits());
    // The workers hand the lent model back before the readout returns.
    assert_eq!(Arc::strong_count(&model), 1);
}

/// A small two-array model.
type Pair = (DistArray<f32>, DistArray<f32>);

/// The serial readout of a [`Pair`] over grid items: the reference the
/// validated driver compares the pooled sum with.
fn serial_sum(items: &[(i64, i64)], model: &Pair) -> f64 {
    items
        .iter()
        .map(|&(i, j)| (model.0.row_slice(i)[0] * 2.0 + model.1.row_slice(j)[0]) as f64)
        .sum()
}

/// An `m × n` grid of items over a [`Pair`], with the plan a driver
/// compiles for it.
struct Grid {
    plan: ThreadedPlan,
    items: Arc<Vec<(i64, i64)>>,
    model: Arc<Pair>,
}

fn grid(m: u64, n: u64, workers: usize) -> Grid {
    let coords: Vec<(i64, i64)> = (0..m as i64)
        .flat_map(|i| (0..n as i64).map(move |j| (i, j)))
        .collect();
    let indices: Vec<[i64; 2]> = coords.iter().map(|&(i, j)| [i, j]).collect();
    let indices: Vec<&[i64]> = indices.iter().map(|i| i.as_slice()).collect();
    let strategy = Strategy::TwoD {
        space: 0,
        time: 1,
        ordered: false,
    };
    let sched = build_schedule(&strategy, &indices, &[m, n], workers);
    let a = DistArray::dense_from_fn("a", vec![m, 1], |i| 0.5 + i[0] as f32);
    let b = DistArray::dense_from_fn("b", vec![n, 1], |i| 1.25 - i[0] as f32 * 0.1);
    Grid {
        plan: ThreadedPlan::compile(&sched),
        items: Arc::new(coords),
        model: Arc::new((a, b)),
    }
}

#[test]
fn validated_readout_accepts_the_faithful_closure() {
    let Grid { plan, items, model } = grid(8, 9, 2);
    let mut driver = Driver::new(ClusterSpec::new(1, 2));
    driver.set_validate(true);
    let f = Arc::new(|&(i, j): &(i64, i64), m: &Pair| {
        (m.0.row_slice(i)[0] * 2.0 + m.1.row_slice(j)[0]) as f64
    });
    let serial = || serial_sum(&items, &model);
    let sum = driver.eval_pass(&plan, &items, &model, &f, -0.0, serial);
    assert_eq!(sum.to_bits(), serial_sum(&items, &model).to_bits());
}

/// The seeded negative case: a closure that takes one array's value
/// where the other's belongs (and the reverse) must trip the
/// cross-check.
#[test]
#[should_panic(expected = "differs from the serial readout")]
fn validated_readout_catches_a_closure_reading_the_wrong_role() {
    let Grid { plan, items, model } = grid(8, 8, 2);
    let mut driver = Driver::new(ClusterSpec::new(1, 2));
    driver.set_validate(true);
    let swapped = Arc::new(|&(i, j): &(i64, i64), m: &Pair| {
        (m.1.row_slice(j)[0] * 2.0 + m.0.row_slice(i)[0]) as f64
    });
    let serial = || serial_sum(&items, &model);
    driver.eval_pass(&plan, &items, &model, &swapped, -0.0, serial);
}
