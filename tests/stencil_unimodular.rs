//! End-to-end exercise of the unimodular-transformation path (§4.3):
//! a skewed Gauss–Seidel-style sweep whose dependence vectors
//! `{(1,-1), (0,1)}` defeat both 1-D and plain 2-D parallelization, so
//! the analyzer must skew the iteration space and schedule a wavefront.
//! The parallel execution must equal serial execution exactly.

use orion::core::{ClusterSpec, DistArray, Driver, DriverError, LoopSpec, Strategy, Subscript};

const N: i64 = 24;

fn grid() -> DistArray<f32> {
    DistArray::dense_from_fn("field", vec![N as u64, N as u64], |i| {
        ((i[0] * 31 + i[1] * 17) % 97) as f32 / 97.0
    })
}

/// The stencil body: `A[i,j] = 0.4*A[i-1,j+1] + 0.4*A[i,j-1] + 0.1`.
fn stencil_update(a: &mut DistArray<f32>, i: i64, j: i64) {
    let up_right = a.get(&[i - 1, j + 1]).copied().unwrap_or(0.0);
    let left = a.get(&[i, j - 1]).copied().unwrap_or(0.0);
    a.set(&[i, j], 0.4 * up_right + 0.4 * left + 0.1);
}

fn spec(z: orion::ir::DistArrayId, a: orion::ir::DistArrayId) -> LoopSpec {
    LoopSpec::builder("skewed_stencil", z, vec![N as u64, N as u64])
        .read(
            a,
            vec![
                Subscript::loop_index(0).shifted(-1),
                Subscript::loop_index(1).shifted(1),
            ],
        )
        .read(
            a,
            vec![
                Subscript::loop_index(0),
                Subscript::loop_index(1).shifted(-1),
            ],
        )
        .write(a, vec![Subscript::loop_index(0), Subscript::loop_index(1)])
        .ordered()
        .build()
        .unwrap()
}

fn run(cluster: ClusterSpec, passes: u64) -> (DistArray<f32>, Strategy) {
    let iter_space: DistArray<f32> = DistArray::dense("grid", vec![N as u64, N as u64]);
    let mut field = grid();
    let mut driver = Driver::new(cluster);
    let z_id = driver.register(&iter_space);
    let a_id = driver.register(&field);
    let items: Vec<(Vec<i64>, f32)> = iter_space.iter().map(|(i, &v)| (i, v)).collect();
    let compiled = driver.parallel_for(spec(z_id, a_id), &items).unwrap();
    let strategy = compiled.strategy().clone();
    for _ in 0..passes {
        driver.run_pass(&compiled, &mut |_| 50.0, &mut |_w, pos| {
            let (idx, _) = &items[pos];
            stencil_update(&mut field, idx[0], idx[1]);
        });
    }
    (field, strategy)
}

#[test]
fn analyzer_picks_unimodular_for_skewed_stencil() {
    let (_, strategy) = run(ClusterSpec::new(2, 2), 1);
    match strategy {
        Strategy::TwoDUnimodular { transform, .. } => {
            assert_ne!(transform, orion::analysis::UniMat::identity(2));
        }
        other => panic!("expected a unimodular strategy, got {other:?}"),
    }
}

#[test]
fn parallel_wavefront_equals_serial_exactly() {
    // Serial reference: lexicographic sweep.
    let mut serial = grid();
    for _ in 0..3 {
        for i in 0..N {
            for j in 0..N {
                stencil_update(&mut serial, i, j);
            }
        }
    }
    let (parallel, _) = run(ClusterSpec::new(4, 2), 3);
    assert_eq!(
        serial, parallel,
        "the transformed wavefront must preserve every dependence bitwise"
    );
}

#[test]
fn wavefront_is_deterministic_across_worker_counts() {
    let (a, _) = run(ClusterSpec::new(2, 2), 2);
    let (b, _) = run(ClusterSpec::new(8, 4), 2);
    assert_eq!(a, b);
}

#[test]
fn wavefront_time_beats_serial_time() {
    let t_of = |cluster: ClusterSpec| {
        let iter_space: DistArray<f32> = DistArray::dense("grid", vec![N as u64, N as u64]);
        let mut field = grid();
        let mut driver = Driver::new(cluster);
        let z_id = driver.register(&iter_space);
        let a_id = driver.register(&field);
        let items: Vec<(Vec<i64>, f32)> = iter_space.iter().map(|(i, &v)| (i, v)).collect();
        let compiled = driver.parallel_for(spec(z_id, a_id), &items).unwrap();
        for _ in 0..2 {
            driver.run_pass(&compiled, &mut |_| 100_000.0, &mut |_w, pos| {
                let (idx, _) = &items[pos];
                stencil_update(&mut field, idx[0], idx[1]);
            });
        }
        driver.now().as_secs_f64()
    };
    let serial = t_of(ClusterSpec::serial());
    let parallel = t_of(ClusterSpec::new(4, 2));
    assert!(
        parallel < serial * 0.7,
        "wavefront on 8 workers ({parallel}) should beat serial ({serial})"
    );
}

/// The pool and the TCP nodes synchronize per rotation, not per step, so
/// the one entry point that compiles a plan for them refuses a
/// wavefront with a typed error before anything runs — with validation
/// off too, where no sanitizer would object.
#[test]
fn threaded_compile_refuses_a_wavefront_plan() {
    let iter_space: DistArray<f32> = DistArray::dense("grid", vec![N as u64, N as u64]);
    let mut driver = Driver::new(ClusterSpec::new(1, 4));
    driver.set_validate(false);
    let z_id = driver.register(&iter_space);
    let a_id = driver.register(&grid());
    let indices: Vec<[i64; 2]> = (0..N).flat_map(|i| (0..N).map(move |j| [i, j])).collect();
    let compiled = driver.parallel_for(spec(z_id, a_id), &indices).unwrap();
    assert!(matches!(
        compiled.strategy(),
        Strategy::TwoDUnimodular { .. }
    ));
    let Err(refused) = driver.compile_threaded(&compiled) else {
        panic!("a wavefront plan must not compile for the pool");
    };
    assert!(matches!(refused, DriverError::StepBarrier(_)));
    let msg = refused.to_string();
    assert!(
        msg.contains("StepBarrier") && msg.contains("`skewed_stencil`"),
        "{msg}"
    );
}
