//! The five applications' inner loops, one body per job.
//!
//! - **Order-preserving kernels** ([`gather`], [`mf_update_rows`],
//!   [`cp_update_rows`], [`topic_cdf`], [`feature_histogram`]) have
//!   exactly one body: the loop the seed engines ran, same operations
//!   in the same order. A chunked-lane
//!   second body of an elementwise loop computes the same bits, so it
//!   could only ever be a speed choice — and measured in situ it was
//!   none (the compiler vectorizes the plain loop; see DESIGN.md §3.7).
//! - **Reassociating reductions** ([`dot`], [`gather_sum`],
//!   [`cp_predict`]) have two bodies because the two compute *different
//!   bits*: `*_serial` folds left to right, `*_lanes` keeps [`LANES`]
//!   independent partial sums and folds them pairwise. The caller picks
//!   with [`MathMode`]: [`MathMode::Exact`] always runs the serial fold,
//!   [`MathMode::FastMath`] always runs the lane fold. FastMath results
//!   are still deterministic — the lane fold has a fixed shape — just
//!   differently associated, so they are validated by
//!   convergence-equivalence tests rather than bit-identity.
//! - **Exact across-row lanes over transposed panels** ([`dot_panel`])
//!   put the lanes across [`LANES`] *rows* instead of along one row: in
//!   the `(row, c)` nest of a scan the only carried dependence is the
//!   reduction along `c`, so with the rows of a panel stored
//!   `panel[c * LANES + j]` the dependence-free row dimension is
//!   innermost and every lane runs the serial reduction of its own row —
//!   no sum is reassociated, no [`MathMode`]: the result is
//!   [`dot_serial`]'s, bit for bit.
//!
//! Remainder handling: every lane reduction splits its input with
//! `chunks_exact(LANES)` and folds the remainder (`len % LANES`
//! elements) serially, so any length is legal.

use crate::element::Float;

/// Lane width of the portable kernels. Eight 32-bit lanes fill a 256-bit
/// vector; on 128-bit-only targets the compiler splits each chunk into
/// two operations, which still breaks the serial dependence chain.
pub const LANES: usize = 8;

/// Floating-point contract for reassociating reductions, carried by the
/// Driver and opted into per run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MathMode {
    /// Reductions run in serial order: results are bit-identical to the
    /// seed engines. The default.
    #[default]
    Exact,
    /// Reductions reassociate into [`LANES`] independent partial sums
    /// (deterministic, but not bit-identical to serial).
    FastMath,
}

// ---------------------------------------------------------------------------
// Reductions (reassociating — MathMode-dispatched)
// ---------------------------------------------------------------------------

/// Serial dot product: `sum(a[i] * b[i])` folded left-to-right from zero,
/// truncating to the shorter slice. Bit-identical to
/// `a.iter().zip(b).map(|(x, y)| x * y).sum()`.
pub fn dot_serial<T: Float>(a: &[T], b: &[T]) -> T {
    let mut acc = T::NEG_ZERO;
    for (x, y) in a.iter().zip(b) {
        acc += *x * *y;
    }
    acc
}

/// Lane dot product: [`LANES`] independent accumulators over exact
/// chunks, a serial remainder, then a fixed-shape pairwise lane fold.
/// Deterministic but reassociated relative to [`dot_serial`].
pub fn dot_lanes<T: Float>(a: &[T], b: &[T]) -> T {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [T::ZERO; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            acc[j] += xa[j] * xb[j];
        }
    }
    let mut tail = T::NEG_ZERO;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += *x * *y;
    }
    fold_lanes(acc) + tail
}

/// Dispatching dot product (sgd_mf prediction, and the dense half of any
/// margin): serial under [`MathMode::Exact`], lanes under FastMath.
pub fn dot<T: Float>(a: &[T], b: &[T], mode: MathMode) -> T {
    match mode {
        MathMode::Exact => dot_serial(a, b),
        MathMode::FastMath => dot_lanes(a, b),
    }
}

/// Serial gather-sum (slr margin): `sum(get(idx[i]))` folded
/// left-to-right from zero. Bit-identical to
/// `idx.iter().map(|&f| get(f)).sum()`.
pub fn gather_sum_serial<T: Float>(idx: &[u32], mut get: impl FnMut(u32) -> T) -> T {
    let mut acc = T::NEG_ZERO;
    for &f in idx {
        acc += get(f);
    }
    acc
}

/// Lane gather-sum: gathers [`LANES`] values per chunk into independent
/// accumulators, then pairwise-folds. Reassociated relative to
/// [`gather_sum_serial`].
pub fn gather_sum_lanes<T: Float>(idx: &[u32], mut get: impl FnMut(u32) -> T) -> T {
    let mut acc = [T::ZERO; LANES];
    let mut chunks = idx.chunks_exact(LANES);
    for chunk in &mut chunks {
        for j in 0..LANES {
            acc[j] += get(chunk[j]);
        }
    }
    let mut tail = T::NEG_ZERO;
    for &f in chunks.remainder() {
        tail += get(f);
    }
    fold_lanes(acc) + tail
}

/// Dispatching gather-sum (the slr gradient-accumulate margin).
pub fn gather_sum<T: Float>(idx: &[u32], get: impl FnMut(u32) -> T, mode: MathMode) -> T {
    match mode {
        MathMode::Exact => gather_sum_serial(idx, get),
        MathMode::FastMath => gather_sum_lanes(idx, get),
    }
}

/// Serial three-way product sum (tensor_cp prediction):
/// `sum(u[c] * v[c] * s[c])` folded left-to-right from zero.
pub fn cp_predict_serial<T: Float>(u: &[T], v: &[T], s: &[T]) -> T {
    let n = u.len().min(v.len()).min(s.len());
    let mut acc = T::NEG_ZERO;
    for c in 0..n {
        acc += u[c] * v[c] * s[c];
    }
    acc
}

/// Lane three-way product sum; reassociated relative to
/// [`cp_predict_serial`].
pub fn cp_predict_lanes<T: Float>(u: &[T], v: &[T], s: &[T]) -> T {
    let n = u.len().min(v.len()).min(s.len());
    let (u, v, s) = (&u[..n], &v[..n], &s[..n]);
    let mut acc = [T::ZERO; LANES];
    let mut cu = u.chunks_exact(LANES);
    let mut cv = v.chunks_exact(LANES);
    let mut cs = s.chunks_exact(LANES);
    while let (Some(xu), Some(xv), Some(xs)) = (cu.next(), cv.next(), cs.next()) {
        for j in 0..LANES {
            acc[j] += xu[j] * xv[j] * xs[j];
        }
    }
    let mut tail = T::NEG_ZERO;
    for ((x, y), z) in cu
        .remainder()
        .iter()
        .zip(cv.remainder())
        .zip(cs.remainder())
    {
        tail += *x * *y * *z;
    }
    fold_lanes(acc) + tail
}

/// Dispatching CP prediction.
pub fn cp_predict<T: Float>(u: &[T], v: &[T], s: &[T], mode: MathMode) -> T {
    match mode {
        MathMode::Exact => cp_predict_serial(u, v, s),
        MathMode::FastMath => cp_predict_lanes(u, v, s),
    }
}

/// Fixed-shape pairwise fold of the lane accumulators:
/// width 8 → 4 → 2 → 1. The shape never depends on input length, so
/// FastMath results are reproducible run to run.
fn fold_lanes<T: Float>(mut acc: [T; LANES]) -> T {
    let mut width = LANES / 2;
    while width > 0 {
        for j in 0..width {
            acc[j] += acc[j + width];
        }
        width /= 2;
    }
    acc[0]
}

// ---------------------------------------------------------------------------
// Exact across-row lane kernels over transposed panels
// ---------------------------------------------------------------------------

/// Exact dot of one query row against the [`LANES`] rows of a transposed
/// panel, `panel[c * LANES + j]` being element `c` of row `j`: lane `j`
/// starts from `NEG_ZERO` and adds `w[c] * panel[c * LANES + j]` for
/// ascending `c` — the operations of `dot_serial(w, row_j)` in the same
/// order, so the same bits, with the lanes independent of each other.
/// (Where the result is a NaN it is a NaN on both sides, but Rust leaves
/// the sign and payload of a NaN an operation produces unspecified, so
/// those are outside the contract.) Truncates to the shorter of `w` and
/// the panel's width like [`dot_serial`].
pub fn dot_panel<T: Float>(w: &[T], panel: &[T]) -> [T; LANES] {
    let mut acc = [T::NEG_ZERO; LANES];
    for (x, col) in w.iter().zip(panel.chunks_exact(LANES)) {
        for j in 0..LANES {
            acc[j] += *x * col[j];
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// Order-preserving kernels (one body each)
// ---------------------------------------------------------------------------

/// Gather: `dst[i] = get(idx[i])` in ascending `i`, truncating to the
/// shorter slice.
pub fn gather<T: Float>(dst: &mut [T], idx: &[u32], mut get: impl FnMut(u32) -> T) {
    for (d, &f) in dst.iter_mut().zip(idx) {
        *d = get(f);
    }
}

/// Paired row update (sgd_mf): with `coef = step · 2 · diff`, performs
/// the simultaneous update `w[i] = w[i] + coef * h[i]`,
/// `h[i] = h[i] + coef * w_old[i]`.
pub fn mf_update_rows<T: Float>(w: &mut [T], h: &mut [T], coef: T) {
    for (wx, hx) in w.iter_mut().zip(h.iter_mut()) {
        let (w0, h0) = (*wx, *hx);
        *wx = w0 + coef * h0;
        *hx = h0 + coef * w0;
    }
}

/// The full sgd_mf cell body: predict (reduction, mode-dispatched),
/// compute the gradient coefficient, apply the paired row update
/// (order-preserving), and return the squared residual.
pub fn mf_row_update<T: Float>(w: &mut [T], h: &mut [T], v: T, step: T, mode: MathMode) -> f64 {
    let pred = dot(w, h, mode);
    let diff = v - pred;
    let coef = step * T::TWO * diff;
    mf_update_rows(w, h, coef);
    diff.to_f64().powi(2)
}

/// tensor_cp row update: with gradient coefficient `g`, updates `u` and
/// `v` in place and emits the third-mode delta `g · u0 · v0` for each
/// column `c` through `emit` (in ascending `c` order — the caller routes
/// these into a [`DistArrayBuffer`](crate::DistArrayBuffer)).
pub fn cp_update_rows<T: Float>(
    u: &mut [T],
    v: &mut [T],
    s: &[T],
    g: T,
    mut emit: impl FnMut(usize, T),
) {
    let n = u.len().min(v.len()).min(s.len());
    for c in 0..n {
        let (u0, v0, s0) = (u[c], v[c], s[c]);
        u[c] = u0 + g * v0 * s0;
        v[c] = v0 + g * u0 * s0;
        emit(c, g * u0 * v0);
    }
}

/// LDA topic CDF (the count-histogram weight loop of a Gibbs cell):
/// writes the running cumulative weight
/// `w_t = (dt[t] + α)(wt[t] + β) / (max(ts[t], 0) + Vβ)` into
/// `weights[t]` and returns the total mass. Bit-identical to the fused
/// seed loop.
pub fn topic_cdf<T: Float>(
    dt: &[u32],
    wt: &[u32],
    ts: &[i64],
    alpha: T,
    beta: T,
    vbeta: T,
    weights: &mut [T],
) -> T {
    let k = dt.len().min(wt.len()).min(ts.len()).min(weights.len());
    let mut total = T::ZERO;
    for t in 0..k {
        let w = (T::from_f64(dt[t] as f64) + alpha) * (T::from_f64(wt[t] as f64) + beta)
            / (T::from_f64(ts[t].max(0) as f64) + vbeta);
        total += w;
        weights[t] = total;
    }
    total
}

/// One gradient-histogram bin: the gradient sum (kept at the gradient's
/// own precision — no silent narrowing) and the sample count.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BinStat<G: Float> {
    /// Sum of gradients landing in this bin.
    pub sum: G,
    /// Number of samples landing in this bin.
    pub count: u64,
}

/// gbt feature histogram: for feature `feature`, quantizes every
/// sample's value into one of `n_bins` buckets and accumulates its
/// gradient into `hist[slot * n_bins + bin]` in ascending sample order,
/// skipping samples whose node maps to `no_slot`. `F` is the feature
/// dtype, `G` the gradient dtype; they are independent so f64 gradients
/// never narrow through a f32 feature array.
#[allow(clippy::too_many_arguments)]
pub fn feature_histogram<F: Float, G: Float>(
    feature: usize,
    n_samples: usize,
    n_features: usize,
    n_bins: usize,
    features: &[F],
    slot_of_node: &[usize],
    assign: &[usize],
    grads: &[G],
    no_slot: usize,
    hist: &mut [BinStat<G>],
) {
    let nb = F::from_f64(n_bins as f64);
    for i in 0..n_samples {
        let slot = slot_of_node[assign[i]];
        if slot == no_slot {
            continue;
        }
        let bin = ((features[i * n_features + feature] * nb).to_f64() as usize).min(n_bins - 1);
        let s = &mut hist[slot * n_bins + bin];
        s.sum += grads[i];
        s.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32) * 0.25 - 3.0).collect()
    }

    #[test]
    fn dot_serial_matches_iterator_sum() {
        for n in 0..20 {
            let a = ramp(n);
            let b: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
            let want: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot_serial(&a, &b).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn dot_lanes_close_to_serial() {
        let a = ramp(1003);
        let b: Vec<f32> = a.iter().map(|x| x * -0.125).collect();
        let s = dot_serial(&a, &b) as f64;
        let l = dot_lanes(&a, &b) as f64;
        assert!((s - l).abs() <= s.abs().max(1.0) * 1e-4, "{s} vs {l}");
    }

    /// `FastMath` is honoured in every build. The fixed 40-element input
    /// is `2^24` followed by ones: the serial fold absorbs every `+ 1.0`
    /// (the ulp at `2^24` is 2) and returns `2^24`, while the lane fold
    /// sums the ones of lanes 1..8 apart from the big value first, so
    /// the two folds differ in bits.
    #[test]
    fn math_mode_selects_the_fold() {
        let mut a = vec![1.0f32; 40];
        a[0] = 16_777_216.0;
        let ones = vec![1.0f32; 40];
        let idx: Vec<u32> = (0..40).collect();
        let get = |f: u32| a[f as usize];

        let cases = [
            (
                dot(&a, &ones, MathMode::Exact),
                dot(&a, &ones, MathMode::FastMath),
                dot_serial(&a, &ones),
                dot_lanes(&a, &ones),
            ),
            (
                gather_sum(&idx, get, MathMode::Exact),
                gather_sum(&idx, get, MathMode::FastMath),
                gather_sum_serial(&idx, get),
                gather_sum_lanes(&idx, get),
            ),
            (
                cp_predict(&a, &ones, &ones, MathMode::Exact),
                cp_predict(&a, &ones, &ones, MathMode::FastMath),
                cp_predict_serial(&a, &ones, &ones),
                cp_predict_lanes(&a, &ones, &ones),
            ),
        ];
        for (exact, fast, serial, lanes) in cases {
            assert_eq!(exact.to_bits(), serial.to_bits());
            assert_eq!(fast.to_bits(), lanes.to_bits());
            assert_ne!(fast.to_bits(), serial.to_bits(), "{fast} vs {serial}");
        }
    }
}
