//! Shared helpers for the ML applications.

use orion_core::{
    CompiledLoop, DistArray, DistArrayBuffer, Driver, Element, Float, OwnedSession, RunReport,
    Schedule,
};

// The dtype-generic inner-loop helpers shared by the applications. These
// live in the kernel layer (`orion_dsm::kernels`) so every app — and
// both execution engines — runs the same generic code path at the
// element type it stores: f64 gradients never narrow through an f32
// helper signature.
pub use orion_core::kernels::{cp_update_rows, dot, feature_histogram, gather_sum, BinStat};

/// Trace artifacts of one traced run: the session for Perfetto export
/// and the compact run report (see `docs/OBSERVABILITY.md`).
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Spans + wire transfers, exportable with
    /// [`orion_core::write_perfetto`].
    pub session: OwnedSession,
    /// Phase totals, per-link traffic, load balance.
    pub report: RunReport,
}

impl TraceArtifacts {
    /// Collects both artifacts from a driver whose run just finished.
    pub fn collect(driver: &Driver, name: &str, compiled: &CompiledLoop) -> Self {
        TraceArtifacts {
            session: driver.trace_session(name),
            report: driver.run_report(compiled),
        }
    }
}

/// Whether the planner made loop dim 0 the space dimension of a grid
/// loop (it may pick either: the larger dimension's array is pinned).
pub(crate) fn space_is_dim0(compiled: &CompiledLoop) -> bool {
    let sp = compiled.schedule.space_partition.as_ref();
    sp.expect("a grid loop has a space partition").dim == 0
}

/// Maps a grid loop's two arrays between the order the app declares
/// them in (the one subscripted by loop dim 0 first) and the roles the
/// planner gave them, `(space, time)`. The mapping is a swap or
/// nothing, so the same call converts in both directions.
pub(crate) fn by_role<T>(space_is_dim0: bool, a: T, b: T) -> (T, T) {
    if space_is_dim0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// Cuts a grid loop's two arrays (dim 0's first) into the planned
/// `(space, time)` partitions: one space partition per worker, one
/// time partition per rotation slot.
pub(crate) fn split_by_role<T: Element>(
    compiled: &CompiledLoop,
    a: DistArray<T>,
    b: DistArray<T>,
) -> (Vec<DistArray<T>>, Vec<DistArray<T>>) {
    let sched = &compiled.schedule;
    let sp = sched
        .space_partition
        .as_ref()
        .expect("a grid loop has a space partition");
    let tp = sched
        .time_partition
        .as_ref()
        .expect("a grid loop has a time partition");
    let (space, time) = by_role(sp.dim == 0, a, b);
    (
        space.split_along(0, &sp.ranges),
        time.split_along(0, &tp.ranges),
    )
}

/// One walk of a frozen iteration-space array (§3.2): the flat record
/// table every pass body reads and `parallel_for` plans over, one
/// `record(position, index, value)` per element in ascending flat
/// order, allocated once at its exact length.
pub(crate) fn flat_table<T: Element, R, const N: usize>(
    space: &DistArray<T>,
    record: impl Fn(usize, [i64; N], &T) -> R,
) -> Vec<R> {
    let dims = space.shape().dims();
    assert_eq!(dims.len(), N, "`{}` is not {N}-dimensional", space.name());
    let mut table = Vec::with_capacity(space.nnz() as usize);
    table.extend(space.iter_flat().enumerate().map(|(pos, (flat, v))| {
        // `%` and `/` by one extent compile to one division.
        let (mut index, mut rest) = ([0; N], flat);
        for d in (1..N).rev() {
            index[d] = (rest % dims[d]) as i64;
            rest /= dims[d];
        }
        index[0] = rest as i64;
        record(pos, index, v)
    }));
    table
}

/// A factor-row coordinate as the `u32` a flat record stores.
pub(crate) fn row_u32(coord: i64) -> u32 {
    u32::try_from(coord).expect("factor row index fits u32")
}

/// Row `row` of a whole dense `rows × width` array as a plain
/// bounds-checked slice — what a readout term reads from a merged
/// model, without `row_slice`'s per-call origin and rank checks.
pub(crate) fn raw_row<T: Element>(array: &DistArray<T>, row: usize, width: usize) -> &[T] {
    &array.dense_values()[row * width..][..width]
}

/// One additive DistArray Buffer shaped like `array` per worker (§3.3).
/// Made once per job: a flush leaves them empty with their tables
/// allocated, ready for the next pass.
pub(crate) fn write_buffers(array: &DistArray<f32>, n_workers: usize) -> Vec<DistArrayBuffer<f32>> {
    (0..n_workers)
        .map(|_| DistArrayBuffer::additive(array.shape().clone()))
        .collect()
}

/// The pass-boundary buffer flush: every worker exchanges its buffer's
/// bytes, then `apply` folds each buffer into the array in worker order.
pub(crate) fn flush_buffers(
    driver: &mut Driver,
    buffers: &mut [DistArrayBuffer<f32>],
    apply: impl FnMut(&mut DistArrayBuffer<f32>),
) {
    let up: u64 = buffers.iter().map(DistArrayBuffer::payload_bytes).sum();
    let per_worker = up / buffers.len().max(1) as u64;
    driver.sync_exchange(per_worker, per_worker);
    buffers.iter_mut().for_each(apply);
}

/// Span-buffer capacity for a run of `passes` over `schedule`: at most
/// four spans per block execution plus barrier spans per step and pass,
/// so traced runs never reallocate the span buffer mid-pass.
pub fn span_capacity(schedule: &Schedule, passes: u64) -> usize {
    let execs = schedule.n_execs();
    passes as usize * (execs * 4 + (schedule.n_steps() + 1) * schedule.n_workers) + 64
}

/// Compute-cost constants (nanoseconds of reference CPU) declared by the
/// applications and consumed by the cluster simulator. Calibrated to the
/// rough per-element costs of the paper's Julia implementations.
pub mod cost {
    /// SGD MF: one rating updates two rank-length rows.
    pub fn mf_iter_ns(rank: usize) -> f64 {
        8.0 * rank as f64
    }

    /// LDA collapsed Gibbs: one token resamples over K topics.
    pub fn lda_token_ns(n_topics: usize) -> f64 {
        6.0 * n_topics as f64
    }

    /// SLR: one sample touches its nonzero features.
    pub fn slr_iter_ns(nnz: usize) -> f64 {
        10.0 * nnz as f64
    }

    /// GBT split finding: one feature scans all samples into bins.
    pub fn gbt_feature_ns(n_samples: usize) -> f64 {
        4.0 * n_samples as f64
    }

    /// Relative overhead of Orion's abstraction vs the plain serial
    /// program (Fig. 9a: parallelization outperforms serial "using only
    /// two workers", i.e. one Orion worker is a bit slower than serial).
    pub const ORION_OVERHEAD: f64 = 1.25;
    const _: () = assert!(ORION_OVERHEAD > 1.0);
}

/// Numerically stable logistic sigmoid, generic over the element dtype
/// (f32 callers keep f32 arithmetic, f64 callers never narrow).
pub(crate) fn sigmoid<T: Float>(x: T) -> T {
    if x >= T::ZERO {
        T::ONE / (T::ONE + (-x).exp())
    } else {
        let e = x.exp();
        e / (T::ONE + e)
    }
}

/// A deterministic 64-bit mix (SplitMix64 finalizer) for per-iteration
/// RNG seeding: sampling decisions depend only on `(pass, cell)`, never
/// on execution order, so schedules stay exactly reproducible.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        for x in [-30.0f32, -2.0, 0.5, 10.0, 80.0] {
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s));
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_no_overflow_at_extremes() {
        assert_eq!(sigmoid(-1e4), 0.0);
        assert_eq!(sigmoid(1e4), 1.0);
    }

    #[test]
    fn mix64_distinct_and_deterministic() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert_eq!(mix64(1), a);
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn cost_constants_scale() {
        assert!(cost::mf_iter_ns(32) > cost::mf_iter_ns(8));
        assert!(cost::lda_token_ns(1000) > cost::lda_token_ns(100));
    }
}
