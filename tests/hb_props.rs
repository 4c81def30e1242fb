//! Property-based coverage of the O11x happens-before detector
//! (checker-of-the-checker): the faithful event log of a compiled plan
//! never fires — for every canonical application and the skewed
//! stencil's wavefront, across worker counts — while mutated logs (a
//! severed rotation handoff, an orphaned send, a dropped barrier, a
//! dropped step barrier) always do.

use orion::analysis::Strategy;
use orion::apps::specs;
use orion::check::{plan_event_log, HbViolation, Sanitizer};
use orion::ir::{ArrayMeta, DistArrayId, LoopSpec, Subscript};
use orion::runtime::{build_schedule, HbEvent, LoopCommModel, SimExecutor, SyncMode, ThreadedPlan};
use orion::sim::ClusterSpec;
use proptest::prelude::*;

/// Dense MF-shaped grid loop: every pair of blocks sharing a time
/// partition genuinely conflicts, so severing any handoff must race.
fn dense_mf(n: i64, workers: usize) -> (LoopSpec, Vec<ArrayMeta>, Vec<Vec<i64>>, ThreadedPlan) {
    let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
    let spec = LoopSpec::builder("mf", z, vec![n as u64, n as u64])
        .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
        .build()
        .unwrap();
    let metas = vec![
        ArrayMeta::dense(z, "Z", vec![n as u64, n as u64], 4),
        ArrayMeta::dense(w, "W", vec![n as u64, 4], 4),
        ArrayMeta::dense(h, "H", vec![n as u64, 4], 4),
    ];
    let indices: Vec<Vec<i64>> = (0..n)
        .flat_map(|i| (0..n).map(move |j| vec![i, j]))
        .collect();
    let strat = Strategy::TwoD {
        space: 0,
        time: 1,
        ordered: false,
    };
    let schedule = build_schedule(&strat, &indices, &[n as u64, n as u64], workers);
    (spec, metas, indices, ThreadedPlan::compile(&schedule))
}

/// The skewed stencil of `tests/stencil_unimodular.rs` on an `n × n`
/// grid: dependences `{(1,-1), (0,1)}`, so the analyzer skews the space
/// and schedules a wavefront with a barrier after every step.
fn stencil(n: i64, workers: usize) -> (LoopSpec, Vec<ArrayMeta>, Vec<Vec<i64>>, ThreadedPlan) {
    let (z, a) = (DistArrayId(0), DistArrayId(1));
    let shifted = |d0, d1| {
        vec![
            Subscript::loop_index(0).shifted(d0),
            Subscript::loop_index(1).shifted(d1),
        ]
    };
    let spec = LoopSpec::builder("skewed_stencil", z, vec![n as u64, n as u64])
        .read(a, shifted(-1, 1))
        .read(a, shifted(0, -1))
        .write(a, shifted(0, 0))
        .ordered()
        .build()
        .unwrap();
    let metas = vec![
        ArrayMeta::dense(z, "grid", vec![n as u64, n as u64], 4),
        ArrayMeta::dense(a, "field", vec![n as u64, n as u64], 4),
    ];
    let indices: Vec<Vec<i64>> = (0..n)
        .flat_map(|i| (0..n).map(move |j| vec![i, j]))
        .collect();
    let plan = orion::analysis::analyze(&spec, &metas, workers as u64);
    assert!(matches!(plan.strategy, Strategy::TwoDUnimodular { .. }));
    let schedule = build_schedule(&plan.strategy, &indices, &[n as u64, n as u64], workers);
    (spec, metas, indices, ThreadedPlan::compile(&schedule))
}

/// All `(actor, pos)` coordinates of cross-worker sends in `logs`.
fn send_positions(logs: &[Vec<HbEvent>]) -> Vec<(usize, usize)> {
    logs.iter()
        .enumerate()
        .flat_map(|(a, log)| {
            log.iter()
                .enumerate()
                .filter(|(_, e)| matches!(e, HbEvent::Send { .. }))
                .map(move |(p, _)| (a, p))
        })
        .collect()
}

/// Deletes the send at `(actor, pos)` and its FIFO-matching recv.
fn sever_edge(logs: &mut [Vec<HbEvent>], actor: usize, pos: usize) {
    let HbEvent::Send { tp, dst } = logs[actor][pos] else {
        panic!("position is not a send");
    };
    // FIFO matching: this send pairs with the k-th recv of `tp` on
    // `dst`, where k counts earlier sends of the same (tp, dst) key.
    let k = logs[actor][..pos]
        .iter()
        .filter(|e| matches!(e, HbEvent::Send { tp: t, dst: d } if *t == tp && *d == dst))
        .count();
    logs[actor].remove(pos);
    let rp = logs[dst as usize]
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, HbEvent::Recv { tp: t } if *t == tp))
        .map(|(p, _)| p)
        .nth(k)
        .expect("every send has a matching recv");
    logs[dst as usize].remove(rp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The canonical applications' compiled plans produce event logs
    /// the detector accepts, at the shipping worker count and others.
    #[test]
    fn canonical_app_logs_never_fire(app_idx in 0usize..5, workers in 1usize..6) {
        let mut app = specs::canonical().swap_remove(app_idx);
        app.n_workers = workers;
        let plan = ThreadedPlan::compile(&app.schedule(&app.analyze()));
        let logs = plan_event_log(&plan);
        let checker = Sanitizer::new(&app.spec, &app.metas, &app.indices);
        let verdict = checker.check_pass(plan.blocks(), &logs, "prop");
        prop_assert!(
            verdict.is_ok(),
            "faithful {} log fired: {}",
            app.name(),
            verdict.unwrap_err()
        );
    }

    /// Severing any rotation handoff (send + matching recv) in a dense
    /// grid leaves two conflicting blocks unordered: always O110.
    #[test]
    fn severed_handoffs_always_race(n in 4i64..9, workers in 2usize..5, pick in 0usize..64) {
        let (spec, metas, indices, plan) = dense_mf(n, workers);
        let mut logs = plan_event_log(&plan);
        let sends = send_positions(&logs);
        prop_assume!(!sends.is_empty());
        let (actor, pos) = sends[pick % sends.len()];
        sever_edge(&mut logs, actor, pos);
        let checker = Sanitizer::new(&spec, &metas, &indices);
        let v = checker
            .check_pass(plan.blocks(), &logs, "prop")
            .expect_err("a severed handoff must be detected");
        prop_assert!(matches!(*v, HbViolation::Race { .. }), "{v}");
        prop_assert!(v.to_diagnostic().render().starts_with("error[O110]:"));
    }

    /// Deleting only the send orphans its recv: always O111.
    #[test]
    fn orphaned_recvs_are_unmatched_edges(n in 4i64..9, workers in 2usize..5, pick in 0usize..64) {
        let (spec, metas, indices, plan) = dense_mf(n, workers);
        let mut logs = plan_event_log(&plan);
        let sends = send_positions(&logs);
        prop_assume!(!sends.is_empty());
        let (actor, pos) = sends[pick % sends.len()];
        logs[actor].remove(pos);
        let checker = Sanitizer::new(&spec, &metas, &indices);
        let v = checker
            .check_pass(plan.blocks(), &logs, "prop")
            .expect_err("an orphaned recv can never be enabled");
        prop_assert!(matches!(*v, HbViolation::UnmatchedEdge { .. }), "{v}");
    }

    /// Two actors racing on one row are ordered by a barrier; dropping
    /// either side of the barrier re-exposes the race (or is itself a
    /// barrier anomaly) — deleting the edge is always detected.
    #[test]
    fn dropped_barriers_always_fire(drop_exit in any::<bool>()) {
        let (z, h) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("conflict", z, vec![4, 1])
            .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let metas = vec![
            ArrayMeta::dense(z, "Z", vec![4, 1], 4),
            ArrayMeta::dense(h, "H", vec![1, 4], 4),
        ];
        let indices: Vec<Vec<i64>> = (0..4).map(|i| vec![i, 0]).collect();
        let schedule = build_schedule(&Strategy::OneD { dim: 0 }, &indices, &[4, 1], 2);
        let plan = ThreadedPlan::compile(&schedule);
        let base = plan_event_log(&plan);

        // Barrier-ordered: worker 0 executes, both enter, worker 1
        // exits and then executes. Clean by construction.
        let mut logs = base.clone();
        logs[0].push(HbEvent::BarrierEnter { epoch: 0 });
        logs[1].insert(0, HbEvent::BarrierEnter { epoch: 0 });
        let exec1 = logs[1].remove(1);
        logs[1].push(HbEvent::BarrierExit { epoch: 0 });
        logs[1].push(exec1);
        let checker = Sanitizer::new(&spec, &metas, &indices);
        checker
            .check_pass(plan.blocks(), &logs, "prop")
            .expect("barrier-separated execs are ordered");

        // Delete one barrier event: the detector must object either
        // way (a race once the order is gone, or a barrier anomaly).
        let victim = if drop_exit {
            HbEvent::BarrierExit { epoch: 0 }
        } else {
            HbEvent::BarrierEnter { epoch: 0 }
        };
        let p = logs[1].iter().position(|e| *e == victim).unwrap();
        logs[1].remove(p);
        let v = checker
            .check_pass(plan.blocks(), &logs, "prop")
            .expect_err("a dropped barrier edge must be detected");
        prop_assert!(
            matches!(*v, HbViolation::Race { .. } | HbViolation::BarrierAnomaly { .. }),
            "{v}"
        );
    }
}

/// The wavefront's faithful log carries a barrier per step, and the
/// simulated executor records exactly that log. Without the barriers,
/// blocks of consecutive steps on different workers are unordered, and
/// the stencil's neighbours conflict.
#[test]
fn wavefront_logs_carry_step_barriers() {
    for workers in 1..6 {
        let (spec, metas, indices, plan) = stencil(12, workers);
        assert_eq!(plan.sync(), SyncMode::StepBarrier);
        let logs = plan_event_log(&plan);
        let mut sim = SimExecutor::new(ClusterSpec::new(1, workers));
        let comm = LoopCommModel::default();
        sim.run_pass(&plan, &comm, &mut |_| 1.0, &mut |_, _| {});
        assert_eq!(sim.pass_events(), logs.as_slice(), "{workers} workers");
        let checker = Sanitizer::new(&spec, &metas, &indices);
        let verdict = checker.check_pass(plan.blocks(), &logs, "wavefront");
        if let Err(v) = verdict {
            panic!("{workers} workers: the faithful wavefront log fired:\n{v}");
        }
    }
}

/// Dropping one step's barrier (every worker's enter and exit of it)
/// leaves that step's blocks unordered against the next step's blocks
/// on other workers, and the stencil's neighbours conflict: O110
/// exactly when the two steps run on more than one worker. On 4
/// workers that includes the ramp's first shared step: worker 0 writes
/// `field[i0, i1]` in step 5, worker 1 reads `field[i0-1, i1+1]` in
/// step 6.
#[test]
fn dropped_step_barriers_race() {
    let (spec, metas, indices, plan) = stencil(12, 4);
    let checker = Sanitizer::new(&spec, &metas, &indices);
    let logs = plan_event_log(&plan);
    let workers_at = |step: u64| -> Vec<usize> {
        (0..plan.n_workers())
            .filter(|&w| plan.execs_of(w).iter().any(|e| e.step == step))
            .collect()
    };
    let last = (0..plan.n_workers())
        .filter_map(|w| plan.execs_of(w).last().map(|e| e.step))
        .max()
        .expect("a wavefront has steps");
    let (mut fired, mut shared) = (Vec::new(), Vec::new());
    for step in 0..last {
        let (now, next) = (workers_at(step), workers_at(step + 1));
        if now.iter().any(|a| next.iter().any(|b| a != b)) {
            shared.push(step);
        }
        let mut dropped = logs.clone();
        for log in &mut dropped {
            log.retain(|e| {
                !matches!(*e, HbEvent::BarrierEnter { epoch } | HbEvent::BarrierExit { epoch } if epoch == step)
            });
        }
        if let Err(v) = checker.check_pass(plan.blocks(), &dropped, "dropped barrier") {
            assert!(matches!(*v, HbViolation::Race { .. }), "{v}");
            assert!(v.to_diagnostic().render().starts_with("error[O110]:"));
            fired.push(step);
        }
    }
    assert_eq!(fired, shared);
    assert_eq!(fired.first(), Some(&5));
}
