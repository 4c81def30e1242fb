//! Property-based soundness of the core pipeline: the dependence test,
//! lexicographic normalization, strategy selection and schedule
//! construction, checked against the brute-force access-collision
//! oracle from `orion-check` on randomly generated loop specs.

use orion::analysis::{analyze, dependence_vectors, DepElem, DepVec, Strategy as ParStrategy};
use orion::check::{AccessOracle, Sanitizer};
use orion::ir::{ArrayMeta, ArrayRef, DistArrayId, LoopSpec, Subscript};
use orion::runtime::build_schedule;
use proptest::prelude::*;

const ARRAY_DIMS: u64 = 8;

/// A generated reference: kind (read/write) + subscripts over a 2-D
/// shared array, subscripting a 2-D iteration space.
fn arb_subscript() -> impl Strategy<Value = Subscript> {
    prop_oneof![
        (0usize..2, -1i64..=1).prop_map(|(d, o)| Subscript::LoopIndex { dim: d, offset: o }),
        (0i64..ARRAY_DIMS as i64).prop_map(Subscript::Constant),
        Just(Subscript::Full),
    ]
}

fn arb_ref() -> impl Strategy<Value = ArrayRef> {
    (any::<bool>(), proptest::collection::vec(arb_subscript(), 2)).prop_map(|(write, subs)| {
        if write {
            ArrayRef::write(DistArrayId(1), subs)
        } else {
            ArrayRef::read(DistArrayId(1), subs)
        }
    })
}

fn arb_spec() -> impl Strategy<Value = LoopSpec> {
    (proptest::collection::vec(arb_ref(), 1..4), any::<bool>()).prop_map(|(refs, ordered)| {
        let mut spec = LoopSpec {
            name: "prop".into(),
            iter_space: DistArrayId(0),
            iter_dims: vec![6, 6],
            ordered,
            refs,
            buffered: vec![],
        };
        spec.ordered = ordered;
        spec
    })
}

fn metas() -> [ArrayMeta; 2] {
    [
        ArrayMeta::dense(DistArrayId(0), "iter", vec![6, 6], 4),
        ArrayMeta::dense(DistArrayId(1), "shared", vec![ARRAY_DIMS, ARRAY_DIMS], 4),
    ]
}

/// Does some dependence vector cover distance `d` (or `-d`)?
fn covered(dvecs: &[DepVec], d: &[i64]) -> bool {
    let matches = |v: &DepVec, d: &[i64]| {
        v.elems().iter().zip(d).all(|(e, &x)| match e {
            DepElem::Int(c) => *c == x,
            DepElem::PosAny => x >= 1,
            DepElem::Any => true,
        })
    };
    let neg: Vec<i64> = d.iter().map(|&x| -x).collect();
    dvecs.iter().any(|v| matches(v, d) || matches(v, &neg))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness of Alg. 2 + normalization: every oracle-dependent
    /// iteration pair is covered by some dependence vector.
    #[test]
    fn dependence_vectors_cover_all_collisions(spec in arb_spec()) {
        prop_assume!(spec.validate().is_ok());
        let oracle = AccessOracle::new(&spec, &metas());
        let dvecs = dependence_vectors(&spec);
        for a0 in 0..6i64 {
            for a1 in 0..6i64 {
                for b0 in 0..6i64 {
                    for b1 in 0..6i64 {
                        let (a, b) = ([a0, a1], [b0, b1]);
                        if a == b {
                            continue;
                        }
                        if oracle.dependent(&a, &b) {
                            let d = [b0 - a0, b1 - a1];
                            prop_assert!(
                                covered(&dvecs, &d),
                                "dependence {a:?}->{b:?} (d={d:?}) uncovered by {dvecs:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// All produced vectors are lexicographically positive.
    #[test]
    fn dependence_vectors_are_lex_positive(spec in arb_spec()) {
        prop_assume!(spec.validate().is_ok());
        for d in dependence_vectors(&spec) {
            prop_assert!(d.is_lex_positive(), "{d} not lex positive");
        }
    }

    /// End-to-end schedule soundness: whatever strategy the analyzer
    /// picks, the schedule never runs two oracle-dependent iterations in
    /// the same step on different workers: the sanitizer's static check,
    /// which every engine runs on the schedule it is handed.
    #[test]
    fn schedules_never_coschedule_dependent_iterations(spec in arb_spec()) {
        prop_assume!(spec.validate().is_ok());
        let metas = metas();
        let plan = analyze(&spec, &metas, 4);
        let indices: Vec<Vec<i64>> = (0..6)
            .flat_map(|i| (0..6).map(move |j| vec![i, j]))
            .collect();
        let schedule = build_schedule(&plan.strategy, &indices, &spec.iter_dims, 4);
        if let Err(race) = Sanitizer::new(&spec, &metas, &indices).check_schedule(&schedule) {
            prop_assert!(
                false,
                "dependent iterations co-scheduled (strategy {:?}): {race:?}",
                plan.strategy
            );
        }
    }

    /// Ordered loops additionally respect lexicographic order between
    /// dependent iterations scheduled on different workers.
    #[test]
    fn ordered_schedules_respect_lexicographic_order(spec in arb_spec()) {
        prop_assume!(spec.validate().is_ok());
        prop_assume!(spec.ordered);
        let metas = metas();
        let plan = analyze(&spec, &metas, 3);
        let oracle = AccessOracle::new(&spec, &metas);
        // Only grid/serial strategies make ordering claims; unimodular
        // wavefronts also do, via step barriers.
        let indices: Vec<Vec<i64>> = (0..6)
            .flat_map(|i| (0..6).map(move |j| vec![i, j]))
            .collect();
        let schedule = build_schedule(&plan.strategy, &indices, &spec.iter_dims, 3);
        let mut slot = vec![(0u64, 0usize, 0usize); indices.len()];
        for st in &schedule.steps {
            for e in st {
                for (k, &pos) in schedule.blocks[e.block].iter().enumerate() {
                    slot[pos as usize] = (e.step, e.worker, k);
                }
            }
        }
        for (i, a) in indices.iter().enumerate() {
            for (j, b) in indices.iter().enumerate() {
                if i == j || !oracle.dependent(a, b) {
                    continue;
                }
                // a lexicographically precedes b.
                if a >= b {
                    continue;
                }
                let (sa, wa, ka) = slot[i];
                let (sb, wb, kb) = slot[j];
                let fine = sa < sb || (wa == wb && (sa, ka) <= (sb, kb)) || (sa == sb && wa == wb);
                prop_assert!(
                    fine,
                    "ordered loop: {a:?} must precede {b:?}, got steps {sa}/{sb}, \
                     workers {wa}/{wb} (strategy {:?})",
                    plan.strategy
                );
            }
        }
    }

    /// Strategy claims are justified: a 1-D strategy's dimension has a
    /// zero component in every dependence vector; a 2-D strategy's pair
    /// annihilates every vector.
    #[test]
    fn strategy_claims_match_dependence_vectors(spec in arb_spec()) {
        prop_assume!(spec.validate().is_ok());
        let plan = analyze(&spec, &metas(), 4);
        match &plan.strategy {
            ParStrategy::FullyParallel { .. } => {
                prop_assert!(plan.dep_vectors.is_empty());
            }
            ParStrategy::OneD { dim } => {
                let ok = plan
                    .dep_vectors
                    .iter()
                    .all(|d| d.elem(*dim) == DepElem::Int(0));
                prop_assert!(ok, "1D dim must be zero in every dep vector");
            }
            ParStrategy::TwoD { space, time, .. } => {
                let ok = plan
                    .dep_vectors
                    .iter()
                    .all(|d| d.elem(*space) == DepElem::Int(0) || d.elem(*time) == DepElem::Int(0));
                prop_assert!(ok, "2D pair must annihilate every dep vector");
            }
            ParStrategy::TwoDUnimodular { transform, .. } => {
                let ok = plan
                    .dep_vectors
                    .iter()
                    .all(|d| transform.apply_dep(d)[0].definitely_positive());
                prop_assert!(ok, "transformed outer dim must carry every dep");
            }
            ParStrategy::Serial => {}
        }
    }
}

/// A hand-built conflicting schedule is caught, naming the two accesses,
/// the step and both workers (the deliberate-failure face of the
/// sanitizer acceptance test). The render is the sample in
/// docs/CHECKING.md.
#[test]
fn hand_built_conflicting_schedule_is_caught() {
    // Every iteration writes row `i1 = 0` of the shared array, so a 1-D
    // partition over `i0` co-schedules conflicting iterations.
    let spec = LoopSpec::builder("conflict", DistArrayId(0), vec![4, 1])
        .read_write(
            DistArrayId(1),
            vec![Subscript::loop_index(1), Subscript::Full],
        )
        .build()
        .unwrap();
    let metas = metas();
    let indices: Vec<Vec<i64>> = (0..4).map(|i| vec![i, 0]).collect();
    let schedule = build_schedule(&ParStrategy::OneD { dim: 0 }, &indices, &[4, 1], 2);

    let race = Sanitizer::new(&spec, &metas, &indices)
        .check_schedule(&schedule)
        .unwrap_err();
    assert_ne!(race.worker_a, race.worker_b, "race must span two workers");
    assert_eq!(race.index_a[1], race.index_b[1], "both write row 0");
    assert!(race.access_a.contains("`shared`"), "{}", race.access_a);
    assert!(race.access_b.contains("`shared`"), "{}", race.access_b);

    assert_eq!(
        race.to_diagnostic().render(),
        "error[O100]: schedule race: one step co-schedules dependent iterations in loop `conflict`
 --> loop `conflict`, step 0
  = note: worker 0 runs iteration [0, 0]: read `shared`[i1, :]
  = note: worker 1 runs iteration [2, 0]: write `shared`[i1, :]
  = note: the accesses overlap and at least one is a write
  = help: this schedule violates its dependence analysis — `build_schedule` output must never co-schedule dependent iterations
"
    );
}
