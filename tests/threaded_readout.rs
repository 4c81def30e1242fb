//! The threaded engine's per-pass readout: the loss is evaluated on the
//! worker pool against the partitions where they sit (paper §3.4
//! accumulators) and summed in item order, so every recorded metric is
//! bit-identical to the simulated engine's serial readout — for any
//! thread count, ordered or not, and whichever loop dimension the
//! planner picked as space (tall and wide shapes).
//!
//! Debug test builds validate by default, so there every
//! `train_threaded` pass also cross-checks the pooled readout against
//! the serial one; the release run in CI checks the unvalidated path.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use orion::analysis::Strategy;
use orion::apps::run::{self, Engine, RunConfig};
use orion::apps::sgd_mf::{self, MfConfig, MfRunConfig};
use orion::apps::slr::{self, PooledLoss, SlrConfig, SlrModel, SlrRunConfig};
use orion::apps::tensor_cp::{self, CpApp, CpConfig, CpRunConfig};
use orion::core::{ClusterSpec, Driver, RunStats};
use orion::data::{RatingsConfig, RatingsData, SparseConfig, SparseData, TensorConfig, TensorData};
use orion::dsm::DistArray;
use orion::runtime::{build_schedule, run_grid_eval_pooled, EvalSlots, ThreadedPlan, WorkerPool};

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

/// SLR reads its loss on the pool too, through a 1-D plan and the
/// weights lent to the workers: every recorded metric and the final
/// weights carry the oracle's bits for any thread count.
#[test]
fn slr_readout_matches_the_oracle_bit_for_bit() {
    let data = SparseData::generate(SparseConfig::tiny());
    for threads in 1..=3 {
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

/// A trained SLR model, the 1-D plan over its samples, and the terms of
/// one pooled loss readout.
fn slr_readout(workers: usize) -> (SparseData, Arc<SlrModel>, PooledLoss, f64) {
    let data = SparseData::generate(SparseConfig::tiny());
    let (model, _) = slr::train_serial(&data, SlrConfig::new(), 2);
    let n = data.samples.len();
    let indices: Vec<Vec<i64>> = (0..n as i64).map(|i| vec![i]).collect();
    let indices: Vec<&[i64]> = indices.iter().map(Vec::as_slice).collect();
    let strategy = Strategy::FullyParallel { dim: 0 };
    let sched = build_schedule(&strategy, &indices, &[n as u64], workers);
    let plan = Arc::new(ThreadedPlan::compile(&sched));
    let (samples, model) = (Arc::new(data.samples.clone()), Arc::new(model));
    let mut readout = PooledLoss::new(&plan);
    let loss = readout.eval(&WorkerPool::new(workers), &plan, &samples, &model);
    (data, model, readout, loss)
}

#[test]
fn validated_slr_readout_accepts_the_sample_order_sum() {
    let (data, model, _, loss) = slr_readout(2);
    let mut driver = Driver::new(ClusterSpec::new(1, 2));
    driver.set_validate(true);
    driver.check_readout(loss, || model.loss(&data));
}

/// The seeded negative case: joining per-worker partial sums adds the
/// same terms in another association, which the cross-check must see.
#[test]
#[should_panic(expected = "differs from the serial readout")]
fn validated_slr_readout_catches_a_sum_in_worker_order() {
    let (data, model, readout, _) = slr_readout(2);
    let partials = readout.worker_terms().iter().map(|t| t.iter().sum::<f64>());
    let in_worker_order = partials.sum::<f64>() / data.samples.len() as f64;
    let mut driver = Driver::new(ClusterSpec::new(1, 2));
    driver.set_validate(true);
    driver.check_readout(in_worker_order, || model.loss(&data));
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

/// A grid of `m × n` items, each carrying its own position, plus the
/// plan and the `(space, time)` partitions of two small factor arrays.
struct Grid {
    pool: WorkerPool,
    plan: Arc<ThreadedPlan>,
    items: Arc<Vec<(i64, i64, usize)>>,
    space: Vec<DistArray<f32>>,
    time: Vec<DistArray<f32>>,
}

fn grid(m: u64, n: u64, workers: usize) -> Grid {
    let coords: Vec<Vec<i64>> = (0..m as i64)
        .flat_map(|i| (0..n as i64).map(move |j| vec![i, j]))
        .collect();
    let indices: Vec<&[i64]> = coords.iter().map(Vec::as_slice).collect();
    let strategy = Strategy::TwoD {
        space: 0,
        time: 1,
        ordered: false,
    };
    let sched = build_schedule(&strategy, &indices, &[m, n], workers);
    let sp = sched.space_partition.as_ref().unwrap();
    let tp = sched.time_partition.as_ref().unwrap();
    let a = DistArray::dense_from_fn("a", vec![m, 1], |i| 0.5 + i[0] as f32);
    let b = DistArray::dense_from_fn("b", vec![n, 1], |i| 1.25 - i[0] as f32 * 0.1);
    Grid {
        pool: WorkerPool::new(workers),
        plan: Arc::new(ThreadedPlan::compile(&sched)),
        items: Arc::new(
            coords
                .iter()
                .enumerate()
                .map(|(pos, c)| (c[0], c[1], pos))
                .collect(),
        ),
        space: a.split_along(0, &sp.ranges),
        time: b.split_along(0, &tp.ranges),
    }
}

#[test]
fn evaluation_pass_visits_every_position_once_and_writes_nothing() {
    let mut g = grid(9, 7, 3);
    let n = g.items.len();
    let visits: Arc<Vec<AtomicU32>> = Arc::new((0..n).map(|_| AtomicU32::new(0)).collect());
    let seen = Arc::clone(&visits);
    let f = Arc::new(
        move |&(i, j, pos): &(i64, i64, usize), a: &DistArray<f32>, b: &DistArray<f32>| {
            seen[pos].fetch_add(1, Ordering::Relaxed);
            (a.row_slice(i)[0] * b.row_slice(j)[0]) as f64
        },
    );
    let slots = EvalSlots::new(n);
    let (before_space, before_time) = (g.space.clone(), g.time.clone());
    run_grid_eval_pooled(
        &g.pool,
        &g.plan,
        &g.items,
        &mut g.space,
        &mut g.time,
        &slots,
        &f,
    );
    let (space, time) = (g.space, g.time);

    assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    assert_eq!(space, before_space);
    assert_eq!(time, before_time);
    // Every value sits at its item's position, whichever worker and
    // block produced it.
    let a = DistArray::merge_along(0, space);
    let b = DistArray::merge_along(0, time);
    let expect: Vec<f64> = g
        .items
        .iter()
        .map(|&(i, j, _)| (a.row_slice(i)[0] * b.row_slice(j)[0]) as f64)
        .collect();
    assert_eq!(
        slots.values().map(f64::to_bits).collect::<Vec<_>>(),
        expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

/// The serial readout of the grid above: the reference the validated
/// driver compares the pooled sum with.
fn serial_sum(
    items: &[(i64, i64, usize)],
    space: &[DistArray<f32>],
    time: &[DistArray<f32>],
) -> f64 {
    let a = DistArray::merge_along_ref(0, space);
    let b = DistArray::merge_along_ref(0, time);
    items
        .iter()
        .map(|&(i, j, _)| (a.row_slice(i)[0] * 2.0 + b.row_slice(j)[0]) as f64)
        .sum()
}

#[test]
fn validated_readout_accepts_the_faithful_closure() {
    let mut g = grid(8, 8, 2);
    let mut driver = Driver::new(ClusterSpec::new(1, 2));
    driver.set_validate(true);
    let items = Arc::clone(&g.items);
    let f = Arc::new(
        |&(i, j, _): &(i64, i64, usize), a: &DistArray<f32>, b: &DistArray<f32>| {
            (a.row_slice(i)[0] * 2.0 + b.row_slice(j)[0]) as f64
        },
    );
    let sum =
        driver.eval_pass_threaded(&g.plan, &g.items, &mut g.space, &mut g.time, &f, |s, t| {
            serial_sum(&items, s, t)
        });
    assert_eq!(
        sum.to_bits(),
        serial_sum(&g.items, &g.space, &g.time).to_bits()
    );
}

/// The seeded negative case: a closure that takes the rotated
/// partition's value where the pinned one's belongs (and the reverse)
/// must trip the cross-check.
#[test]
#[should_panic(expected = "differs from the serial readout")]
fn validated_readout_catches_a_closure_reading_the_wrong_role() {
    let mut g = grid(8, 8, 2);
    let mut driver = Driver::new(ClusterSpec::new(1, 2));
    driver.set_validate(true);
    let items = Arc::clone(&g.items);
    let swapped = Arc::new(
        |&(i, j, _): &(i64, i64, usize), a: &DistArray<f32>, b: &DistArray<f32>| {
            (b.row_slice(j)[0] * 2.0 + a.row_slice(i)[0]) as f64
        },
    );
    driver.eval_pass_threaded(
        &g.plan,
        &g.items,
        &mut g.space,
        &mut g.time,
        &swapped,
        |s, t| serial_sum(&items, s, t),
    );
}
