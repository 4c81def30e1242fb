//! Threaded-engine conformance: for randomly generated 2-D grid and
//! 1-D schedules, a pass on the real worker pool produces bit-identical
//! state to executing the same schedule serially in step order (workers
//! ascending within a step) — the serialization the simulated engine
//! realizes, and records exactly the happens-before log the plan
//! implies. Noncommutative float updates make any reordering visible
//! bitwise. The partition walker both the pool and the TCP node run is
//! also driven here over a scripted transport.

use std::sync::Arc;
use std::time::Instant;

use orion::analysis::Strategy as ParStrategy;
use orion::check::plan_event_log;
use orion::dsm::DistArray;
use orion::runtime::{
    build_schedule, run_grid_pass_pooled, run_one_d_pass_pooled, walk, AwaitedTransfer, Exec,
    HbEvent, ThreadedPlan, Transport, Walk, WorkerPool,
};
use proptest::prelude::*;

/// Splitmix-style hash for sparse item selection.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Noncommutative, order-sensitive float update of one (row, col) pair.
fn grid_update(v: f32, s: &mut f32, t: &mut f32) {
    let (s0, t0) = (*s, *t);
    *s = s0 * 0.75 + t0 * 0.5 + v;
    *t = t0 * 1.25 + s0 * 0.25 - v * 0.125;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random sparse grids under 2-D (un)ordered schedules: the pooled
    /// pass must equal step-order serial execution bitwise.
    #[test]
    fn threaded_grid_pass_matches_serial_schedule_order(
        m in 2u64..=9,
        n in 2u64..=9,
        workers in 1usize..=5,
        ordered in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let workers = workers.min(m.min(n) as usize);
        let mut items: Vec<(Vec<i64>, f32)> = Vec::new();
        for i in 0..m as i64 {
            for j in 0..n as i64 {
                // ~70% density, always keep (0, 0) so the grid is nonempty.
                if (i, j) == (0, 0) || mix(seed ^ ((i as u64) << 32 | j as u64)) % 10 < 7 {
                    items.push((vec![i, j], (mix(seed ^ (i * 31 + j) as u64) % 97) as f32 * 0.125));
                }
            }
        }
        let strat = ParStrategy::TwoD { space: 0, time: 1, ordered };
        let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let sched = build_schedule(&strat, &indices, &[m, n], workers);
        let sp = sched.space_partition.clone().unwrap();
        let tp = sched.time_partition.clone().unwrap();

        let s0: DistArray<f32> = DistArray::dense_from_fn("s", vec![m, 1], |i| i[0] as f32 * 0.5);
        let t0: DistArray<f32> = DistArray::dense_from_fn("t", vec![n, 1], |i| 1.0 - i[0] as f32);

        // Reference: serialize the schedule — steps in order, workers
        // ascending within a step, block items in order.
        let mut s_ref = s0.clone();
        let mut t_ref = t0.clone();
        for st in &sched.steps {
            for e in st {
                for &pos in sched.blocks.items(e.block) {
                    let (idx, v) = &items[pos as usize];
                    let mut sv = *s_ref.get(&[idx[0], 0]).unwrap();
                    let mut tv = *t_ref.get(&[idx[1], 0]).unwrap();
                    grid_update(*v, &mut sv, &mut tv);
                    s_ref.update(&[idx[0], 0], |c| *c = sv);
                    t_ref.update(&[idx[1], 0], |c| *c = tv);
                }
            }
        }

        // Threaded: same plan on a real pool.
        let plan = Arc::new(ThreadedPlan::compile(&sched));
        let pool = WorkerPool::new(sched.n_workers);
        let shared = Arc::new(items);
        let body = Arc::new(
            |(idx, v): &(Vec<i64>, f32),
             sp: &mut DistArray<f32>,
             tp: &mut DistArray<f32>,
             _: &mut ()| {
                let mut sv = *sp.get(&[idx[0], 0]).unwrap();
                let mut tv = *tp.get(&[idx[1], 0]).unwrap();
                grid_update(*v, &mut sv, &mut tv);
                sp.update(&[idx[0], 0], |c| *c = sv);
                tp.update(&[idx[1], 0], |c| *c = tv);
            },
        );
        let out = run_grid_pass_pooled(
            &pool,
            &plan,
            &shared,
            s0.split_along(0, &sp.ranges),
            t0.split_along(0, &tp.ranges),
            vec![(); sched.n_workers],
            &body,
        );
        prop_assert_eq!(&out.events, &plan_event_log(&plan));
        let s_thr = DistArray::merge_along(0, out.space);
        let t_thr = DistArray::merge_along(0, out.time);
        prop_assert_eq!(s_thr, s_ref);
        prop_assert_eq!(t_thr, t_ref);
    }

    /// Random 1-D schedules: per-worker scratch folds must equal the
    /// step-order serial folds bitwise.
    #[test]
    fn threaded_one_d_pass_matches_serial_schedule_order(
        len in 1u64..=40,
        workers in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let items: Vec<(Vec<i64>, f32)> = (0..len as i64)
            .map(|i| (vec![i], (mix(seed ^ i as u64) % 89) as f32 * 0.25 - 4.0))
            .collect();
        let strat = ParStrategy::OneD { dim: 0 };
        let indices: Vec<&[i64]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let sched = build_schedule(&strat, &indices, &[len], workers);

        // Reference: each worker folds its items in step order.
        let mut folds = vec![1.0f32; sched.n_workers];
        for st in &sched.steps {
            for e in st {
                for &pos in sched.blocks.items(e.block) {
                    let v = items[pos as usize].1;
                    folds[e.worker] = folds[e.worker] * 1.0625 + v;
                }
            }
        }

        let plan = Arc::new(ThreadedPlan::compile(&sched));
        let pool = WorkerPool::new(sched.n_workers);
        let shared = Arc::new(items);
        let body = Arc::new(|(_, v): &(Vec<i64>, f32), acc: &mut f32| {
            *acc = *acc * 1.0625 + v;
        });
        let out = run_one_d_pass_pooled(&pool, &plan, &shared, vec![1.0f32; sched.n_workers], &body);
        prop_assert_eq!(out.scratch, folds);
    }
}

/// A dense `m × n` grid's 2-D unordered plan on `workers` workers.
fn grid_plan(m: u64, n: u64, workers: usize) -> ThreadedPlan {
    let items: Vec<[i64; 2]> = (0..m as i64)
        .flat_map(|i| (0..n as i64).map(move |j| [i, j]))
        .collect();
    let indices: Vec<&[i64]> = items.iter().map(|i| i.as_slice()).collect();
    let strat = ParStrategy::TwoD {
        space: 0,
        time: 1,
        ordered: false,
    };
    ThreadedPlan::compile(&build_schedule(&strat, &indices, &[m, n], workers))
}

/// A scripted [`Transport`] whose partitions are their own ids:
/// serves `budget` receives, then aborts; logs every send.
struct Scripted {
    budget: usize,
    sent: Vec<(usize, usize)>,
}

impl Transport<usize> for Scripted {
    type Abort = &'static str;

    fn recv(&mut self, tp: usize) -> Result<usize, &'static str> {
        self.budget = self.budget.checked_sub(1).ok_or("preempted")?;
        Ok(tp)
    }

    fn send(&mut self, dst: usize, tp: usize, part: usize) -> Result<(), &'static str> {
        assert_eq!(tp, part);
        self.sent.push((dst, tp));
        Ok(())
    }
}

/// Walks worker `w` over `wire`; on an abort, hands back the blocks
/// that ran.
fn scripted_walk(
    plan: &ThreadedPlan,
    w: usize,
    wire: &mut Scripted,
) -> Result<Walk<usize>, (&'static str, Vec<usize>)> {
    let queue = plan.initial_of(w).iter().map(|&tp| (tp, tp)).collect();
    let mut ran = Vec::new();
    walk(plan, w, queue, wire, Instant::now(), |b, _| ran.push(b)).map_err(|e| (e, ran))
}

#[test]
fn walk_records_the_plan_event_log() {
    let plan = grid_plan(6, 6, 3);
    for (w, expected) in plan_event_log(&plan).into_iter().enumerate() {
        let mut wire = Scripted {
            budget: usize::MAX,
            sent: Vec::new(),
        };
        let walked = scripted_walk(&plan, w, &mut wire).expect("nothing aborts");
        let sends: Vec<(usize, usize)> = (expected.iter())
            .filter_map(|e| match *e {
                HbEvent::Send { tp, dst } => Some((dst as usize, tp as usize)),
                _ => None,
            })
            .collect();
        assert_eq!(walked.events, expected);
        assert_eq!(wire.sent, sends, "the transport carries every Send");
    }
}

#[test]
fn walk_stops_at_an_aborted_receive() {
    let plan = grid_plan(6, 6, 3);
    let execs = plan.execs_of(1);
    let awaited: Vec<usize> = (0..execs.len())
        .filter(|&i| execs[i].awaited.is_some())
        .collect();
    assert!(!awaited.is_empty(), "worker 1 receives partitions");
    for (k, &cut) in awaited.iter().enumerate() {
        let mut wire = Scripted {
            budget: k,
            sent: Vec::new(),
        };
        let (abort, ran) = scripted_walk(&plan, 1, &mut wire).expect_err("receive k aborts");
        assert_eq!(abort, "preempted");
        // Exactly the blocks before the aborted receive ran, and only
        // their forwards left.
        let before: Vec<usize> = execs[..cut].iter().map(|e| e.block).collect();
        assert_eq!(ran, before);
        let forwards = plan.forwards_of(1).iter();
        let sent = forwards.filter(|&&(step, dst)| step < execs[cut].step && dst != 1);
        assert_eq!(wire.sent.len(), sent.count());
    }
}

/// Neither schedule builder emits a rotation edge from a worker to
/// itself, so the ring is spelled out: one worker runs each of its two
/// time partitions twice, the second time receiving it from itself.
#[test]
fn single_owner_ring_re_enqueues_locally() {
    let mut sched = build_schedule(
        &ParStrategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        },
        &[[0i64, 0], [0, 1]],
        &[1, 2],
        1,
    );
    let exec = |step: u64, tp: usize, sent_after_step: Option<u64>| {
        let awaited = sent_after_step.map(|sent_after_step| AwaitedTransfer {
            from_worker: 0,
            sent_after_step,
            time_partition: tp,
        });
        vec![Exec {
            step,
            worker: 0,
            block: tp,
            awaited,
        }]
    };
    sched.steps = vec![
        exec(0, 0, None),
        exec(1, 1, None),
        exec(2, 0, Some(0)),
        exec(3, 1, Some(1)),
    ];
    let plan = ThreadedPlan::compile(&sched);
    assert_eq!(plan.forwards_of(0), [(0, 0), (1, 0)]);
    // A zero budget: any receive would abort the walk.
    let mut wire = Scripted {
        budget: 0,
        sent: Vec::new(),
    };
    let walked = scripted_walk(&plan, 0, &mut wire).expect("a single owner never waits");
    assert!(wire.sent.is_empty());
    assert_eq!(walked.events, plan_event_log(&plan)[0]);
    assert!(walked
        .events
        .iter()
        .all(|e| matches!(e, HbEvent::Exec { .. })));
    assert_eq!(walked.events.len(), 4);
    let held: Vec<usize> = walked.held.iter().map(|&(tp, _)| tp).collect();
    assert_eq!(held, [0, 1]);
}
