//! The schedule sanitizer as the engines use it: one per-loop checker
//! whose verified cache is keyed by everything a check read — the
//! schedule's steps or the recorded logs *and* the block table's item
//! lists — and whose `O100` text is the same whichever engine tripped it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use orion::analysis::Strategy;
use orion::check::{plan_event_log, HbViolation, Sanitizer};
use orion::core::{ClusterSpec, CompiledLoop, Driver};
use orion::dsm::DistArray;
use orion::ir::{ArrayMeta, DistArrayId, LoopSpec, Subscript};
use orion::runtime::{build_schedule, Schedule, ThreadedPlan};

/// The 4×2 iteration space of the loop below, as bare indices.
fn items() -> Vec<[i64; 2]> {
    (0..4).flat_map(|i| (0..2).map(move |j| [i, j])).collect()
}

/// `W[i0, :]` read-write over `items()`, partitioned 1-D over `dim` on
/// two workers. Over `i0` each worker owns its own `W` rows; over `i1`
/// both workers write every row — with the very same `(step, worker,
/// block)` slots.
fn one_d(dim: usize) -> Schedule {
    build_schedule(&Strategy::OneD { dim }, &items(), &[4, 2], 2)
}

fn spec(z: DistArrayId, w: DistArrayId) -> LoopSpec {
    LoopSpec::builder("rows", z, vec![4, 2])
        .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
        .build()
        .unwrap()
}

/// A validating driver on one machine with two workers, and the loop
/// compiled on it.
fn driver() -> (Driver, CompiledLoop) {
    let mut d = Driver::new(ClusterSpec::new(1, 2));
    d.set_validate(true);
    let z = d.register(&DistArray::<f32>::dense("Z", vec![4, 2]));
    let w = d.register(&DistArray::<f32>::dense("W", vec![4, 2]));
    let c = d.parallel_for(spec(z, w), &items()).unwrap();
    (d, c)
}

/// The panic message of `f`, which must panic.
fn panic_text(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast::<&str>().map(|s| s.to_string()).unwrap(),
    }
}

#[test]
fn a_same_shaped_schedule_with_other_blocks_is_checked_again() {
    assert_eq!(one_d(0).steps, one_d(1).steps, "same slots");
    let (mut d, mut c) = driver();
    c.schedule = one_d(0);
    d.run_pass(&c, &mut |_| 1.0, &mut |_, _| {});
    c.schedule = one_d(1);
    let text = panic_text(|| {
        d.run_pass(&c, &mut |_| 1.0, &mut |_, _| {});
    });
    assert!(text.contains("error[O100]:"), "{text}");
    assert!(text.contains("`W`"), "{text}");
}

#[test]
fn identical_logs_against_other_blocks_are_checked_again() {
    let (z, w) = (DistArrayId(0), DistArrayId(1));
    let metas = [
        ArrayMeta::dense(z, "Z", vec![4, 2], 4),
        ArrayMeta::dense(w, "W", vec![4, 2], 4),
    ];
    let sanitizer = Sanitizer::new(&spec(z, w), &metas, &items());
    let (sound, racy) = (one_d(0), one_d(1));
    let logs = plan_event_log(&ThreadedPlan::compile(&sound));
    assert_eq!(logs, plan_event_log(&ThreadedPlan::compile(&racy)));
    sanitizer
        .check_pass(&sound.blocks, &logs, "pass")
        .expect("each worker owns its rows");
    let v = sanitizer
        .check_pass(&racy.blocks, &logs, "pass")
        .expect_err("both workers write every row, unordered");
    assert!(matches!(*v, HbViolation::Race { .. }), "{v}");
    assert!(v.to_diagnostic().render().starts_with("error[O110]:"));
}

#[test]
fn sim_and_threaded_paths_render_the_same_o100() {
    let racy = || {
        let (d, mut c) = driver();
        c.schedule = one_d(1);
        (d, c)
    };
    let (mut d, c) = racy();
    let sim = panic_text(|| {
        d.run_pass(&c, &mut |_| 1.0, &mut |_, _| {});
    });
    let (d, c) = racy();
    let threaded = panic_text(|| {
        d.compile_threaded(&c);
    });
    assert!(sim.contains("error[O100]:"), "{sim}");
    assert_eq!(sim, threaded);
}
