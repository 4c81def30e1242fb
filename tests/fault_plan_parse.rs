//! `FaultPlan::parse` reads text from outside the program (the examples'
//! `--fault-plan <path>`). No input may panic it, and every plan it
//! accepts must be one a run can replay: times that fit the virtual
//! clock with room to add them up, straggler slowdowns of at least 1 and
//! link factors in [0, 1]. A refused line is named in the error.

use std::panic::{catch_unwind, AssertUnwindSafe};

use orion::sim::{FaultPlan, PlanParseError};

/// Every directive once, as in docs/FAULTS.md.
const VALID: &str = "\
# one directive per line
seed 42
crash machine=1 at_ms=120.5 restart_ms=250
straggler worker=3 slowdown=2.5
degrade src=0 dst=2 from_ms=10 until_ms=90 factor=0.25
partition src=2 dst=0 from_ms=40 until_ms=60
";

fn refused(text: &str) -> PlanParseError {
    match FaultPlan::parse(text) {
        Ok(plan) => panic!("`{text}` parsed to {plan:?}"),
        Err(e) => e,
    }
}

/// The properties every accepted plan has. Adding a crash's instant and
/// its restart delay is what recovery does with them, so it must not
/// overflow.
fn assert_replayable(plan: &FaultPlan, text: &str) {
    for c in &plan.crashes {
        assert!(c.at.as_nanos() <= 1e18 as u64, "crash instant in {text:?}");
        assert!(
            c.restart_delay.as_nanos() <= 1e18 as u64,
            "restart in {text:?}"
        );
        let _ = c.at + c.restart_delay;
    }
    for s in &plan.stragglers {
        assert!(
            s.slowdown.is_finite() && s.slowdown >= 1.0,
            "slowdown {} from {text:?}",
            s.slowdown
        );
    }
    for l in &plan.link_faults {
        assert!(
            l.factor.is_finite() && (0.0..=1.0).contains(&l.factor),
            "factor {} from {text:?}",
            l.factor
        );
        assert!(l.from.as_nanos() <= 1e18 as u64 && l.until.as_nanos() <= 1e18 as u64);
    }
}

#[test]
fn the_documented_plan_parses() {
    let plan = FaultPlan::parse(VALID).expect("the documented plan parses");
    assert_eq!(plan.seed, 42);
    assert_eq!(
        (
            plan.crashes.len(),
            plan.stragglers.len(),
            plan.link_faults.len()
        ),
        (1, 1, 2)
    );
    assert_replayable(&plan, VALID);
}

#[test]
fn non_finite_and_negative_numbers_are_refused_naming_the_line() {
    for line in [
        // Parsed to a restart of u64::MAX ns, which overflowed the
        // recovery clock.
        "crash machine=0 at_ms=1 restart_ms=inf",
        "crash machine=0 at_ms=1 restart_ms=1e300",
        // NaN compares false, so it slipped past `< 1.0` and `(0, 1]`.
        "straggler worker=0 slowdown=NaN",
        "degrade src=0 dst=1 from_ms=0 until_ms=1 factor=NaN",
        // Silently clamped to time zero.
        "crash machine=0 at_ms=NaN restart_ms=1",
        "crash machine=0 at_ms=-5 restart_ms=1",
        "partition src=0 dst=1 from_ms=-1 until_ms=1",
        "straggler worker=0 slowdown=-inf",
    ] {
        let err = refused(&format!("seed 1\n{line}\n"));
        assert!(
            err.to_string().contains("line 2"),
            "`{line}`: the error `{err}` should name line 2"
        );
    }
}

/// SplitMix64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Replaces one `=value` of `text` with an edge-case number.
fn swap_value(text: &str, rng: &mut Rng) -> String {
    const EDGES: [&str; 12] = [
        "inf", "-inf", "NaN", "-1", "-0", "0", "1e400", "1e300", "1e12", "1e-400", "", "1.0.0",
    ];
    let cuts: Vec<usize> = text.match_indices('=').map(|(i, _)| i + 1).collect();
    if cuts.is_empty() {
        return text.to_string();
    }
    let start = cuts[rng.below(cuts.len())];
    let end = text[start..]
        .find(char::is_whitespace)
        .map_or(text.len(), |n| start + n);
    format!(
        "{}{}{}",
        &text[..start],
        EDGES[rng.below(EDGES.len())],
        &text[end..]
    )
}

/// Overwrites, deletes or inserts a few bytes.
fn flip_bytes(text: &str, rng: &mut Rng) -> String {
    const BYTES: &[u8] = b"0123456789-+.eEinfNa= \n#xz\xff";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len());
        let b = BYTES[rng.below(BYTES.len())];
        match rng.below(3) {
            0 => bytes[at] = b,
            1 => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, b),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_plans_never_panic_and_accepted_ones_replay() {
    let mut rng = Rng(0x0F1E_2D3C);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..4000 {
        let mut text = VALID.to_string();
        for _ in 0..1 + rng.below(3) {
            text = if rng.below(2) == 0 {
                swap_value(&text, &mut rng)
            } else {
                flip_bytes(&text, &mut rng)
            };
        }
        let parsed = catch_unwind(AssertUnwindSafe(|| FaultPlan::parse(&text)))
            .unwrap_or_else(|_| panic!("parse panicked on {text:?}"));
        match parsed {
            Ok(plan) => {
                assert_replayable(&plan, &text);
                accepted += 1;
            }
            Err(_) => rejected += 1,
        }
    }
    // Both outcomes are exercised, so the properties are checked on
    // real plans and the refusals are not vacuous.
    assert!(
        accepted > 100 && rejected > 100,
        "{accepted} accepted, {rejected} rejected"
    );
}
