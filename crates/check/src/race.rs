//! The schedule sanitizer: one per-loop checker for every engine.
//!
//! Promoted from the brute-force read/write collision oracle that
//! originally lived in `tests/soundness_props.rs`: the [`AccessOracle`]
//! evaluates a loop's *declared* access pattern (§3.2) for concrete
//! iteration index vectors, and two iterations conflict when any two of
//! their accesses touch the same element of the same DistArray with at
//! least one write (write–write pairs only count for `ordered` loops —
//! an unordered loop asks for serializability, not a fixed order, and
//! commutative read-modify-writes may be reordered). Writes exempted
//! via DistArray Buffers (§3.3) never conflict: they reach the array
//! only at the synchronized buffer flush.
//!
//! A [`Sanitizer`] owns one loop's oracle and iteration indices and
//! answers both questions the engines ask:
//! [`Sanitizer::check_schedule`] proves a whole [`Schedule`] race-free
//! statically (`O100`: no step co-schedules two dependent iterations on
//! different workers), and [`Sanitizer::check_pass`] (in [`crate::hb`])
//! checks a real engine's recorded event logs against happens-before
//! (`O110`–`O112`). Each distinct check is verified once.
//!
//! The same subscript evaluator backs the [`AccessValidator`], which
//! checks a loop body's *actual* accesses against its declared spec.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use orion_ir::{
    AccessKind, ArrayMeta, ArrayRef, Code, Diagnostic, DistArrayId, LoopSpec, Severity, Subscript,
};
use orion_runtime::{CompiledBlocks, Indexed, Schedule};

/// How one subscript position addresses its array dimension, for a
/// concrete iteration.
#[derive(Debug, Clone, Copy)]
enum DimAccess {
    /// `i<dim> + offset`: a single point that moves with the iteration.
    Index { dim: usize, offset: i64 },
    /// A constant point.
    Const(i64),
    /// The whole extent `0..extent` (a `Full` set query or an unknown
    /// runtime-dependent subscript, handled conservatively).
    All { extent: i64 },
}

/// One declared access with everything needed to evaluate and report it.
#[derive(Debug, Clone)]
struct RefAccess {
    array: DistArrayId,
    is_write: bool,
    label: String,
    dims: Vec<DimAccess>,
}

impl RefAccess {
    /// `Full` and unknown subscripts address the whole extent recorded
    /// in `metas`; an unregistered array (or a subscript beyond its rank)
    /// is treated as unbounded.
    fn new(r: &ArrayRef, metas: &[ArrayMeta]) -> Self {
        let meta = metas.iter().find(|m| m.id == r.array);
        let dims = r
            .subscripts
            .iter()
            .enumerate()
            .map(|(k, s)| match s {
                Subscript::LoopIndex { dim, offset } => DimAccess::Index {
                    dim: *dim,
                    offset: *offset,
                },
                Subscript::Constant(c) => DimAccess::Const(*c),
                Subscript::Full | Subscript::Unknown { .. } => DimAccess::All {
                    extent: meta
                        .and_then(|m| m.dims.get(k))
                        .map_or(i64::MAX, |&e| e.min(i64::MAX as u64) as i64),
                },
            })
            .collect();
        RefAccess {
            array: r.array,
            is_write: r.kind.is_write(),
            label: crate::ref_label(metas, r),
            dims,
        }
    }
}

/// Evaluates a loop's declared DistArray accesses for concrete
/// iterations and decides whether two iterations may conflict.
///
/// # Examples
///
/// ```
/// use orion_check::AccessOracle;
/// use orion_ir::{ArrayMeta, DistArrayId, LoopSpec, Subscript};
/// let (z, w) = (DistArrayId(0), DistArrayId(1));
/// let spec = LoopSpec::builder("sgd_mf", z, vec![8, 8])
///     .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
///     .build()
///     .unwrap();
/// let metas = [ArrayMeta::dense(w, "W", vec![8, 4], 4)];
/// let oracle = AccessOracle::new(&spec, &metas);
/// assert!(oracle.dependent(&[2, 0], &[2, 5]), "same W row");
/// assert!(!oracle.dependent(&[2, 0], &[3, 0]), "different W rows");
/// ```
#[derive(Debug, Clone)]
pub struct AccessOracle {
    ordered: bool,
    accesses: Vec<RefAccess>,
}

impl AccessOracle {
    /// Builds the oracle over the spec's analyzed references (buffered
    /// writes are exempt, §3.3). `Full` and unknown subscripts address
    /// the whole extent recorded in `metas`; an unregistered array (or a
    /// subscript beyond its rank) is treated as unbounded, which is
    /// conservative: it can only add conflicts.
    pub fn new(spec: &LoopSpec, metas: &[ArrayMeta]) -> Self {
        AccessOracle {
            ordered: spec.ordered,
            accesses: spec
                .analyzed_refs()
                .into_iter()
                .map(|r| RefAccess::new(r, metas))
                .collect(),
        }
    }

    /// Whether one access of iteration `a` overlaps one access of
    /// iteration `b` in a way that forbids running them concurrently.
    pub fn dependent(&self, a: &[i64], b: &[i64]) -> bool {
        self.conflict(a, b).is_some()
    }

    /// Like [`AccessOracle::dependent`], but returns the indices of the
    /// first conflicting access pair (`a`'s access, `b`'s access).
    pub fn conflict(&self, a: &[i64], b: &[i64]) -> Option<(usize, usize)> {
        for (i, ra) in self.accesses.iter().enumerate() {
            for (j, rb) in self.accesses.iter().enumerate() {
                if ra.array != rb.array {
                    continue;
                }
                // Read–read never conflicts; write–write only matters
                // for ordered loops (see module docs).
                if !ra.is_write && !rb.is_write {
                    continue;
                }
                if ra.is_write && rb.is_write && !self.ordered {
                    continue;
                }
                if overlaps(&ra.dims, &rb.dims, a, b) {
                    return Some((i, j));
                }
            }
        }
        None
    }
}

/// Whether the two addressed regions intersect, dimension by dimension.
fn overlaps(da: &[DimAccess], db: &[DimAccess], a: &[i64], b: &[i64]) -> bool {
    debug_assert_eq!(da.len(), db.len(), "same array, same rank");
    da.iter()
        .zip(db)
        .all(|(&xa, &xb)| meet(eval(xa, a), eval(xb, b)))
}

#[derive(Clone, Copy)]
enum Val {
    Point(i64),
    Range(i64),
}

fn eval(d: DimAccess, p: &[i64]) -> Val {
    match d {
        DimAccess::Index { dim, offset } => Val::Point(p.get(dim).copied().unwrap_or(0) + offset),
        DimAccess::Const(c) => Val::Point(c),
        DimAccess::All { extent } => Val::Range(extent),
    }
}

/// Whether two evaluated coordinates of one dimension intersect.
fn meet(va: Val, vb: Val) -> bool {
    match (va, vb) {
        (Val::Point(x), Val::Point(y)) => x == y,
        (Val::Point(x), Val::Range(e)) | (Val::Range(e), Val::Point(x)) => 0 <= x && x < e,
        (Val::Range(x), Val::Range(y)) => x > 0 && y > 0,
    }
}

/// An access a loop body made that no declared reference covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessViolation {
    /// The iteration performing the access.
    pub iteration: Vec<i64>,
    /// The array accessed.
    pub array: DistArrayId,
    /// The accessed index.
    pub index: Vec<i64>,
    /// Read or write.
    pub kind: AccessKind,
}

impl core::fmt::Display for AccessViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "undeclared {:?} of {}{:?} at iteration {:?}",
            self.kind, self.array, self.index, self.iteration
        )
    }
}

/// Checks a loop body's actual DistArray accesses against its declared
/// [`LoopSpec`]: run the body once in *recording* mode, feeding every
/// access through [`AccessValidator::check_read`] /
/// [`AccessValidator::check_write`], and each access must be covered by
/// some declared reference evaluated at that iteration — the property
/// every soundness result rests on, since the analysis trusts the spec.
///
/// Every declared reference counts, buffered writes included: buffering
/// exempts a write from *dependence analysis*, not from the declared
/// pattern. `Full` and unknown subscripts admit any coordinate in
/// `0..i64::MAX`.
///
/// # Examples
///
/// ```
/// use orion_check::AccessValidator;
/// use orion_ir::{DistArrayId, LoopSpec, Subscript};
/// let w = DistArrayId(1);
/// let spec = LoopSpec::builder("l", DistArrayId(0), vec![4, 4])
///     .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
///     .build()
///     .unwrap();
/// let mut v = AccessValidator::new(&spec);
/// v.check_write(&[2, 3], w, &[2, 0]);   // covered: W[i0, :]
/// v.check_write(&[2, 3], w, &[3, 0]);   // NOT covered: wrong row
/// assert_eq!(v.violations().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AccessValidator {
    refs: Vec<RefAccess>,
    buffered: Vec<DistArrayId>,
    violations: Vec<AccessViolation>,
}

impl AccessValidator {
    /// Builds a validator for one loop.
    pub fn new(spec: &LoopSpec) -> Self {
        AccessValidator {
            refs: spec.refs.iter().map(|r| RefAccess::new(r, &[])).collect(),
            buffered: spec.buffered.clone(),
            violations: Vec::new(),
        }
    }

    fn check(&mut self, iteration: &[i64], array: DistArrayId, index: &[i64], kind: AccessKind) {
        let covered = self.refs.iter().any(|r| {
            r.array == array
                && r.is_write == kind.is_write()
                && r.dims.len() == index.len()
                && r.dims
                    .iter()
                    .zip(index)
                    .all(|(&d, &x)| meet(eval(d, iteration), Val::Point(x)))
        });
        if !covered {
            self.violations.push(AccessViolation {
                iteration: iteration.to_vec(),
                array,
                index: index.to_vec(),
                kind,
            });
        }
    }

    /// Records a read access; appends a violation if undeclared.
    pub fn check_read(&mut self, iteration: &[i64], array: DistArrayId, index: &[i64]) {
        self.check(iteration, array, index, AccessKind::Read);
    }

    /// Records a write access; appends a violation if undeclared.
    pub fn check_write(&mut self, iteration: &[i64], array: DistArrayId, index: &[i64]) {
        self.check(iteration, array, index, AccessKind::Write);
    }

    /// Whether the array's writes go through a buffer.
    pub fn is_buffered(&self, array: DistArrayId) -> bool {
        self.buffered.contains(&array)
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[AccessViolation] {
        &self.violations
    }

    /// Returns `Ok(())` when no violation was recorded, otherwise an
    /// error message listing the first few.
    pub fn verdict(&self) -> Result<(), String> {
        if self.violations.is_empty() {
            return Ok(());
        }
        let mut msg = format!("{} undeclared accesses; first 5:", self.violations.len());
        for v in self.violations.iter().take(5) {
            msg.push_str(&format!("\n  {v}"));
        }
        Err(msg)
    }
}

/// A pair of conflicting accesses run concurrently by two workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// Name of the loop whose schedule raced.
    pub loop_name: String,
    /// The schedule step of the first access.
    pub step: u64,
    /// Worker executing the first access.
    pub worker_a: usize,
    /// Worker executing the second access.
    pub worker_b: usize,
    /// Item position (into the scheduled items) of the first iteration.
    pub pos_a: usize,
    /// Item position of the second iteration.
    pub pos_b: usize,
    /// Index vector of the first iteration.
    pub index_a: Vec<i64>,
    /// Index vector of the second iteration.
    pub index_b: Vec<i64>,
    /// Label of the first access, e.g. `` write `W`[i0, :] ``.
    pub access_a: String,
    /// Label of the second access.
    pub access_b: String,
}

impl Race {
    /// Renders the race as the `O100` error diagnostic — the one text
    /// every engine and the tuner report a schedule race with.
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::new(
            Code::ScheduleRace,
            Severity::Error,
            format!("loop `{}`, step {}", self.loop_name, self.step),
            format!(
                "schedule race: one step co-schedules dependent iterations in loop `{}`",
                self.loop_name
            ),
        )
        .with_note(format!(
            "worker {} runs iteration {:?}: {}",
            self.worker_a, self.index_a, self.access_a
        ))
        .with_note(format!(
            "worker {} runs iteration {:?}: {}",
            self.worker_b, self.index_b, self.access_b
        ))
        .with_note("the accesses overlap and at least one is a write".to_string())
        .with_help(
            "this schedule violates its dependence analysis — \
             `build_schedule` output must never co-schedule dependent iterations",
        )
    }
}

/// The schedule sanitizer of one compiled loop: the loop's
/// [`AccessOracle`], its name, and one flat copy of the iteration index
/// vectors the schedule was built from (schedules address items by
/// position).
///
/// [`Sanitizer::check_schedule`] is the static `O100` check every engine
/// runs on the schedule it is handed; [`Sanitizer::check_pass`] is the
/// `O110`–`O112` happens-before check of a real engine's event logs.
/// A check that passed is remembered by the content of what it checked
/// — the steps or logs *and* the block table's item lists — so its cost
/// is paid once per distinct schedule, not per pass, and a same-shaped
/// table with other items is checked afresh.
#[derive(Debug)]
pub struct Sanitizer {
    oracle: AccessOracle,
    pub(crate) loop_name: String,
    arity: usize,
    indices: Vec<i64>,
    verified: Mutex<HashSet<u64>>,
}

impl Sanitizer {
    /// Builds the sanitizer for `spec`'s accesses over the `items` the
    /// schedule was built from, copying each item's loop index once.
    pub fn new<I: Indexed>(spec: &LoopSpec, metas: &[ArrayMeta], items: &[I]) -> Self {
        let arity = spec.iter_dims.len();
        let mut flat = Vec::with_capacity(items.len() * arity);
        for (pos, item) in items.iter().enumerate() {
            flat.extend((0..arity).map(|d| item.coord(pos, d)));
        }
        Sanitizer {
            oracle: AccessOracle::new(spec, metas),
            loop_name: spec.name.clone(),
            arity,
            indices: flat,
            verified: Mutex::new(HashSet::new()),
        }
    }

    /// Statically verifies that no step of `schedule` co-schedules two
    /// dependent iterations on different workers.
    ///
    /// # Errors
    ///
    /// Returns the first [`Race`] found.
    pub fn check_schedule(&self, schedule: &Schedule) -> Result<(), Box<Race>> {
        self.once((0u8, &schedule.steps), &schedule.blocks, || {
            for step_execs in &schedule.steps {
                for (n, xa) in step_execs.iter().enumerate() {
                    for xb in &step_execs[n + 1..] {
                        if xa.worker == xb.worker {
                            continue;
                        }
                        if let Some(race) = self.check_block_pair(
                            &schedule.blocks,
                            (xa.step, xa.worker, xa.block),
                            (xb.worker, xb.block),
                        ) {
                            return Err(Box::new(race));
                        }
                    }
                }
            }
            Ok(())
        })
    }

    /// Runs `check` unless a check of the same `what` against the same
    /// `blocks` already passed, and remembers it when it passes.
    pub(crate) fn once<E>(
        &self,
        what: impl Hash,
        blocks: &CompiledBlocks,
        check: impl FnOnce() -> Result<(), E>,
    ) -> Result<(), E> {
        let mut h = DefaultHasher::new();
        what.hash(&mut h);
        blocks.hash(&mut h);
        let key = h.finish();
        let mut verified = self.verified.lock().expect("only a bug panics in a check");
        if !verified.contains(&key) {
            check()?;
            verified.insert(key);
        }
        Ok(())
    }

    /// The index vector of the item at `pos`.
    fn index(&self, pos: u32) -> &[i64] {
        let at = pos as usize * self.arity;
        &self.indices[at..at + self.arity]
    }

    /// Cross product of two blocks' items through the oracle.
    pub(crate) fn check_block_pair(
        &self,
        blocks: &CompiledBlocks,
        (step, worker_a, block_a): (u64, usize, usize),
        (worker_b, block_b): (usize, usize),
    ) -> Option<Race> {
        for &pa in blocks.items(block_a) {
            let ia = self.index(pa);
            for &pb in blocks.items(block_b) {
                let ib = self.index(pb);
                if let Some((ka, kb)) = self.oracle.conflict(ia, ib) {
                    return Some(Race {
                        loop_name: self.loop_name.clone(),
                        step,
                        worker_a,
                        worker_b,
                        pos_a: pa as usize,
                        pos_b: pb as usize,
                        index_a: ia.to_vec(),
                        index_b: ib.to_vec(),
                        access_a: self.oracle.accesses[ka].label.clone(),
                        access_b: self.oracle.accesses[kb].label.clone(),
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_analysis::Strategy;
    use orion_runtime::build_schedule;

    fn meta(id: DistArrayId, name: &str, dims: Vec<u64>) -> ArrayMeta {
        ArrayMeta::dense(id, name, dims, 4)
    }

    /// An MF-shaped spec: W rows keyed by i0, H rows keyed by i1.
    fn mf() -> (LoopSpec, Vec<ArrayMeta>) {
        let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
        let spec = LoopSpec::builder("mf", z, vec![8, 8])
            .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let metas = vec![
            meta(z, "Z", vec![8, 8]),
            meta(w, "W", vec![8, 4]),
            meta(h, "H", vec![8, 4]),
        ];
        (spec, metas)
    }

    #[test]
    fn oracle_matches_row_sharing() {
        let (spec, metas) = mf();
        let o = AccessOracle::new(&spec, &metas);
        assert!(o.dependent(&[1, 2], &[1, 5]), "shared W row");
        assert!(o.dependent(&[3, 2], &[6, 2]), "shared H row");
        assert!(!o.dependent(&[1, 2], &[4, 5]), "disjoint rows");
    }

    #[test]
    fn buffered_writes_are_exempt() {
        let (z, s) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("buffered", z, vec![8])
            .read(s, vec![Subscript::Full])
            .write(s, vec![Subscript::Full])
            .buffer_writes(s)
            .build()
            .unwrap();
        let metas = vec![meta(s, "S", vec![4])];
        let o = AccessOracle::new(&spec, &metas);
        assert_eq!(o.accesses.len(), 1, "only the read is analyzed");
        assert!(!o.dependent(&[0], &[1]), "read–read never conflicts");
    }

    #[test]
    fn write_write_counts_only_when_ordered() {
        let (z, a) = (DistArrayId(0), DistArrayId(1));
        let mk = |ordered| {
            let mut b = LoopSpec::builder("ww", z, vec![8]).write(a, vec![Subscript::Constant(0)]);
            if ordered {
                b = b.ordered();
            }
            b.build().unwrap()
        };
        let metas = vec![meta(a, "A", vec![4])];
        let uo = AccessOracle::new(&mk(false), &metas);
        let or = AccessOracle::new(&mk(true), &metas);
        assert!(!uo.dependent(&[0], &[1]));
        assert!(or.dependent(&[0], &[1]));
    }

    #[test]
    fn conflicting_one_d_schedule_is_caught() {
        // Every iteration writes H row i1 = 0: partitioning by i0 (1D)
        // co-schedules conflicting iterations — the sanitizer must name
        // both accesses and the step.
        let (z, h) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("conflict", z, vec![4, 1])
            .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let metas = vec![meta(z, "Z", vec![4, 1]), meta(h, "H", vec![1, 4])];
        let indices: Vec<Vec<i64>> = (0..4).map(|i| vec![i, 0]).collect();
        let schedule = build_schedule(&Strategy::OneD { dim: 0 }, &indices, &[4, 1], 2);

        let race = Sanitizer::new(&spec, &metas, &indices)
            .check_schedule(&schedule)
            .unwrap_err();
        assert_ne!(race.worker_a, race.worker_b);
        assert!(race.access_a.contains("`H`"));
        assert!(race.access_b.contains("`H`"));
        let d = race.to_diagnostic();
        assert_eq!((d.code, d.severity), (Code::ScheduleRace, Severity::Error));
        assert_eq!(d.subject, "loop `conflict`, step 0");
    }

    #[test]
    fn sound_two_d_schedule_passes_and_is_cached_by_content() {
        let (spec, metas) = mf();
        let indices: Vec<Vec<i64>> = (0..8)
            .flat_map(|i| (0..8).map(move |j| vec![i, j]))
            .collect();
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let schedule = build_schedule(&strat, &indices, &[8, 8], 4);
        let sanitizer = Sanitizer::new(&spec, &metas, &indices);
        assert!(sanitizer.check_schedule(&schedule).is_ok());
        assert!(sanitizer.check_schedule(&schedule).is_ok(), "cached");
        assert_eq!(sanitizer.verified.lock().unwrap().len(), 1);
    }

    fn mf_spec() -> LoopSpec {
        mf().0
    }

    #[test]
    fn conforming_accesses_pass() {
        let spec = mf_spec();
        let mut v = AccessValidator::new(&spec);
        let (w, h) = (DistArrayId(1), DistArrayId(2));
        for it in [[0i64, 0], [3, 5], [7, 2]] {
            v.check_read(&it, w, &[it[0], 3]);
            v.check_write(&it, w, &[it[0], 0]);
            v.check_read(&it, h, &[it[1], 1]);
            v.check_write(&it, h, &[it[1], 2]);
        }
        assert!(v.verdict().is_ok());
    }

    #[test]
    fn wrong_row_is_flagged() {
        let spec = mf_spec();
        let mut v = AccessValidator::new(&spec);
        v.check_write(&[2, 3], DistArrayId(1), &[3, 0]); // W row of another user
        assert_eq!(v.violations().len(), 1);
        assert!(v.verdict().is_err());
        assert_eq!(v.violations()[0].kind, AccessKind::Write);
    }

    #[test]
    fn undeclared_array_is_flagged() {
        let spec = mf_spec();
        let mut v = AccessValidator::new(&spec);
        v.check_read(&[0, 0], DistArrayId(9), &[0]);
        assert_eq!(v.violations().len(), 1);
    }

    #[test]
    fn read_does_not_license_write() {
        let (z, a) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("l", z, vec![4])
            .read(a, vec![Subscript::loop_index(0)])
            .build()
            .unwrap();
        let mut v = AccessValidator::new(&spec);
        v.check_read(&[1], a, &[1]);
        v.check_write(&[1], a, &[1]);
        assert_eq!(v.violations().len(), 1);
        assert_eq!(v.violations()[0].kind, AccessKind::Write);
    }

    #[test]
    fn offsets_respected() {
        let (z, a) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("stencil", z, vec![10])
            .read(a, vec![Subscript::loop_index(0).shifted(-1)])
            .write(a, vec![Subscript::loop_index(0)])
            .build()
            .unwrap();
        let mut v = AccessValidator::new(&spec);
        v.check_read(&[5], a, &[4]); // i0 - 1 ✓
        v.check_read(&[5], a, &[5]); // not declared as read
        assert_eq!(v.violations().len(), 1);
    }

    #[test]
    fn unknown_subscripts_admit_anything() {
        let (z, w) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("slr", z, vec![10])
            .read(w, vec![Subscript::unknown()])
            .write(w, vec![Subscript::unknown()])
            .buffer_writes(w)
            .build()
            .unwrap();
        let mut v = AccessValidator::new(&spec);
        v.check_read(&[0], w, &[9_999]);
        v.check_write(&[0], w, &[123]);
        assert!(v.verdict().is_ok());
        assert!(v.is_buffered(w));
    }

    #[test]
    fn arity_mismatch_is_flagged() {
        let spec = mf_spec();
        let mut v = AccessValidator::new(&spec);
        v.check_read(&[0, 0], DistArrayId(1), &[0]); // 1-D access to 2-D ref
        assert_eq!(v.violations().len(), 1);
    }

    #[test]
    fn verdict_lists_violations() {
        let spec = mf_spec();
        let mut v = AccessValidator::new(&spec);
        for i in 0..8i64 {
            v.check_write(&[0, 0], DistArrayId(1), &[i + 1, 0]);
        }
        let err = v.verdict().unwrap_err();
        assert!(err.contains("8 undeclared"));
    }
}
