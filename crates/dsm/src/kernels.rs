//! Explicit-width SIMD kernels for the five applications' inner loops.
//!
//! Every kernel ships in two always-compiled variants:
//!
//! - `*_serial` — the reference implementation, bit-identical to the loop
//!   it replaced in the seed engines (same operations, same order).
//! - `*_lanes` — a portable explicit-width variant that processes
//!   [`LANES`]-wide chunks through fixed-size accumulator arrays; under
//!   `#[forbid(unsafe_code)]` and the stable toolchain this is the
//!   vectorization idiom the compiler reliably lowers to SIMD: chunked
//!   loops with independent lanes and a scalar remainder peel.
//!
//! The undecorated name (`dot`, `scaled_add`, …) is the dispatcher the
//! apps call. Dispatch policy:
//!
//! - **Order-preserving kernels** (point update, scaled-add, gather, the
//!   paired row updates, histogram increments, the CDF prefix) perform
//!   the same floating-point additions in the same order in both
//!   variants, so they are bit-identical by construction. The `simd`
//!   cargo feature selects the lane variant; the default build keeps the
//!   scalar fallback.
//! - **Reassociating reductions** (`dot`, `gather_sum`, `cp_predict`)
//!   change the association of a floating-point sum in their lane
//!   variant. They dispatch on [`MathMode`]: [`MathMode::Exact`] always
//!   runs the serial order, and [`MathMode::FastMath`] runs the lane
//!   variant only when the `fast-math` feature is compiled in (otherwise
//!   it silently falls back to exact). FastMath results are still
//!   deterministic — the lane fold has a fixed shape — just differently
//!   associated, so they are validated by convergence-equivalence tests
//!   rather than bit-identity.
//!
//! - **Exact across-row lane kernels over transposed panels**
//!   ([`dot_panel`]) put the lanes across [`LANES`] *rows* instead of
//!   along one row: in the `(row, c)` nest of a scan the only carried
//!   dependence is the reduction along `c`, so with the rows of a panel
//!   stored `panel[c * LANES + j]` the dependence-free row dimension is
//!   innermost and every lane runs the serial reduction of its own row —
//!   no sum is reassociated. Always compiled, no feature and no
//!   [`MathMode`]: the result is [`dot_serial`]'s, bit for bit.
//!
//! Remainder handling: every lane variant splits its input with
//! `chunks_exact(LANES)` and processes the remainder (`len % LANES`
//! elements) with the serial code, so any length is legal and lengths
//! `< LANES` degrade to pure scalar.

use crate::element::Float;

/// Lane width of the portable kernels. Eight 32-bit lanes fill a 256-bit
/// vector; on 128-bit-only targets the compiler splits each chunk into
/// two operations, which still breaks the serial dependence chain.
pub const LANES: usize = 8;

/// True when this build dispatches order-preserving kernels to their
/// lane variants (the `simd` cargo feature).
pub const fn simd_enabled() -> bool {
    cfg!(feature = "simd")
}

/// True when this build can honor [`MathMode::FastMath`] (the
/// `fast-math` cargo feature, which implies `simd`).
pub const fn fast_math_available() -> bool {
    cfg!(feature = "fast-math")
}

/// Floating-point contract for reassociating reductions, carried by the
/// Driver and opted into per run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MathMode {
    /// Reductions run in serial order: results are bit-identical to the
    /// seed engines. The default.
    #[default]
    Exact,
    /// Reductions may reassociate into [`LANES`] independent partial
    /// sums (deterministic, but not bit-identical to serial). No effect
    /// unless compiled with the `fast-math` feature.
    FastMath,
}

#[inline]
fn fast(mode: MathMode) -> bool {
    mode == MathMode::FastMath && fast_math_available()
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
    if fast(mode) {
        dot_lanes(a, b)
    } else {
        dot_serial(a, b)
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
    if fast(mode) {
        gather_sum_lanes(idx, get)
    } else {
        gather_sum_serial(idx, get)
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
    if fast(mode) {
        cp_predict_lanes(u, v, s)
    } else {
        cp_predict_serial(u, v, s)
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
// Exact across-row lane kernels over transposed panels (always compiled)
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
// Order-preserving kernels (bit-identical — `simd` feature dispatched)
// ---------------------------------------------------------------------------

/// Serial scaled add: `y[i] += alpha * x[i]`, truncating to the shorter
/// slice.
pub fn scaled_add_serial<T: Float>(y: &mut [T], x: &[T], alpha: T) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// Lane scaled add. Elementwise, so bit-identical to
/// [`scaled_add_serial`] for every input.
pub fn scaled_add_lanes<T: Float>(y: &mut [T], x: &[T], alpha: T) {
    let n = y.len().min(x.len());
    let (y, x) = (&mut y[..n], &x[..n]);
    let mut cy = y.chunks_exact_mut(LANES);
    let mut cx = x.chunks_exact(LANES);
    for (wy, wx) in (&mut cy).zip(&mut cx) {
        for j in 0..LANES {
            wy[j] += alpha * wx[j];
        }
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * *xi;
    }
}

/// Dispatching scaled add.
pub fn scaled_add<T: Float>(y: &mut [T], x: &[T], alpha: T) {
    if simd_enabled() {
        scaled_add_lanes(y, x, alpha)
    } else {
        scaled_add_serial(y, x, alpha)
    }
}

/// Serial gather: `dst[i] = get(idx[i])`, truncating to the shorter
/// slice.
pub fn gather_serial<T: Float>(dst: &mut [T], idx: &[u32], mut get: impl FnMut(u32) -> T) {
    for (d, &f) in dst.iter_mut().zip(idx) {
        *d = get(f);
    }
}

/// Lane gather: chunked so the stores vectorize; bit-identical to
/// [`gather_serial`].
pub fn gather_lanes<T: Float>(dst: &mut [T], idx: &[u32], mut get: impl FnMut(u32) -> T) {
    let n = dst.len().min(idx.len());
    let (dst, idx) = (&mut dst[..n], &idx[..n]);
    let mut cd = dst.chunks_exact_mut(LANES);
    let mut ci = idx.chunks_exact(LANES);
    for (wd, wi) in (&mut cd).zip(&mut ci) {
        for j in 0..LANES {
            wd[j] = get(wi[j]);
        }
    }
    for (d, &f) in cd.into_remainder().iter_mut().zip(ci.remainder()) {
        *d = get(f);
    }
}

/// Dispatching gather.
pub fn gather<T: Float>(dst: &mut [T], idx: &[u32], get: impl FnMut(u32) -> T) {
    if simd_enabled() {
        gather_lanes(dst, idx, get)
    } else {
        gather_serial(dst, idx, get)
    }
}

/// Serial paired row update (sgd_mf): with `coef = step · 2 · diff`,
/// performs the simultaneous update `w[i] = w[i] + coef * h[i]`,
/// `h[i] = h[i] + coef * w_old[i]`.
pub fn mf_update_rows_serial<T: Float>(w: &mut [T], h: &mut [T], coef: T) {
    for (wx, hx) in w.iter_mut().zip(h.iter_mut()) {
        let (w0, h0) = (*wx, *hx);
        *wx = w0 + coef * h0;
        *hx = h0 + coef * w0;
    }
}

/// Lane paired row update; elementwise, bit-identical to
/// [`mf_update_rows_serial`].
pub fn mf_update_rows_lanes<T: Float>(w: &mut [T], h: &mut [T], coef: T) {
    let n = w.len().min(h.len());
    let (w, h) = (&mut w[..n], &mut h[..n]);
    let mut cw = w.chunks_exact_mut(LANES);
    let mut ch = h.chunks_exact_mut(LANES);
    for (xw, xh) in (&mut cw).zip(&mut ch) {
        for j in 0..LANES {
            let (w0, h0) = (xw[j], xh[j]);
            xw[j] = w0 + coef * h0;
            xh[j] = h0 + coef * w0;
        }
    }
    for (wx, hx) in cw
        .into_remainder()
        .iter_mut()
        .zip(ch.into_remainder().iter_mut())
    {
        let (w0, h0) = (*wx, *hx);
        *wx = w0 + coef * h0;
        *hx = h0 + coef * w0;
    }
}

/// Dispatching paired row update.
pub fn mf_update_rows<T: Float>(w: &mut [T], h: &mut [T], coef: T) {
    if simd_enabled() {
        mf_update_rows_lanes(w, h, coef)
    } else {
        mf_update_rows_serial(w, h, coef)
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

/// Serial tensor_cp row update: with gradient coefficient `g`, updates
/// `u` and `v` in place and emits the third-mode delta `g · u0 · v0` for
/// each column `c` through `emit` (in ascending `c` order — the caller
/// routes these into a [`DistArrayBuffer`](crate::DistArrayBuffer)).
pub fn cp_update_rows_serial<T: Float>(
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

/// Lane tensor_cp row update: arithmetic runs chunked (vectorizable);
/// `emit` fires per element in ascending order inside each chunk —
/// exactly the serial sequence (lanes read only their own column), so
/// the observable behavior is bit-identical to
/// [`cp_update_rows_serial`].
pub fn cp_update_rows_lanes<T: Float>(
    u: &mut [T],
    v: &mut [T],
    s: &[T],
    g: T,
    mut emit: impl FnMut(usize, T),
) {
    let n = u.len().min(v.len()).min(s.len());
    let (u, v, s) = (&mut u[..n], &mut v[..n], &s[..n]);
    let full = n - n % LANES;
    for c0 in (0..full).step_by(LANES) {
        // Fixed-width chunk views: the const length eliminates bounds
        // checks so the 8-wide body vectorizes.
        let uu: &mut [T; LANES] = (&mut u[c0..c0 + LANES]).try_into().expect("exact chunk");
        let vv: &mut [T; LANES] = (&mut v[c0..c0 + LANES]).try_into().expect("exact chunk");
        let ss: &[T; LANES] = (&s[c0..c0 + LANES]).try_into().expect("exact chunk");
        for j in 0..LANES {
            let (u0, v0, s0) = (uu[j], vv[j], ss[j]);
            uu[j] = u0 + g * v0 * s0;
            vv[j] = v0 + g * u0 * s0;
            emit(c0 + j, g * u0 * v0);
        }
    }
    for c in full..n {
        let (u0, v0, s0) = (u[c], v[c], s[c]);
        u[c] = u0 + g * v0 * s0;
        v[c] = v0 + g * u0 * s0;
        emit(c, g * u0 * v0);
    }
}

/// Dispatching tensor_cp row update. Measured exception to the usual
/// dispatch: for this emit-carrying kernel the single elementwise serial
/// loop is the shape the compiler vectorizes whole, and the chunked
/// variant only adds overhead (see `results/BENCH_simd.json`), so every
/// build runs the serial form; [`cp_update_rows_lanes`] stays for the
/// conformance matrix.
pub fn cp_update_rows<T: Float>(
    u: &mut [T],
    v: &mut [T],
    s: &[T],
    g: T,
    emit: impl FnMut(usize, T),
) {
    cp_update_rows_serial(u, v, s, g, emit)
}

/// Serial LDA topic CDF (the count-histogram weight loop of a Gibbs
/// cell): writes the running cumulative weight
/// `w_t = (dt[t] + α)(wt[t] + β) / (max(ts[t], 0) + Vβ)` into
/// `weights[t]` and returns the total mass. Bit-identical to the fused
/// seed loop.
pub fn topic_cdf_serial<T: Float>(
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

/// Lane LDA topic CDF: per chunk, the [`LANES`] per-topic weights are
/// computed elementwise into a register-sized buffer (vectorizable —
/// the divides run data-parallel), then folded into the running prefix
/// with exactly the additions — in exactly the order — of the fused
/// loop, so the result is bit-identical to [`topic_cdf_serial`] for
/// every input.
pub fn topic_cdf_lanes<T: Float>(
    dt: &[u32],
    wt: &[u32],
    ts: &[i64],
    alpha: T,
    beta: T,
    vbeta: T,
    weights: &mut [T],
) -> T {
    let k = dt.len().min(wt.len()).min(ts.len()).min(weights.len());
    let (dt, wt, ts, weights) = (&dt[..k], &wt[..k], &ts[..k], &mut weights[..k]);
    let mut total = T::ZERO;
    let full = k - k % LANES;
    for t0 in (0..full).step_by(LANES) {
        let xd: &[u32; LANES] = (&dt[t0..t0 + LANES]).try_into().expect("exact chunk");
        let xw: &[u32; LANES] = (&wt[t0..t0 + LANES]).try_into().expect("exact chunk");
        let xt: &[i64; LANES] = (&ts[t0..t0 + LANES]).try_into().expect("exact chunk");
        let xo: &mut [T; LANES] = (&mut weights[t0..t0 + LANES])
            .try_into()
            .expect("exact chunk");
        let mut w = [T::ZERO; LANES];
        for j in 0..LANES {
            w[j] = (T::from_f64(xd[j] as f64) + alpha) * (T::from_f64(xw[j] as f64) + beta)
                / (T::from_f64(xt[j].max(0) as f64) + vbeta);
        }
        for j in 0..LANES {
            total += w[j];
            xo[j] = total;
        }
    }
    for t in full..k {
        let w = (T::from_f64(dt[t] as f64) + alpha) * (T::from_f64(wt[t] as f64) + beta)
            / (T::from_f64(ts[t].max(0) as f64) + vbeta);
        total += w;
        weights[t] = total;
    }
    total
}

/// Dispatching LDA topic CDF.
pub fn topic_cdf<T: Float>(
    dt: &[u32],
    wt: &[u32],
    ts: &[i64],
    alpha: T,
    beta: T,
    vbeta: T,
    weights: &mut [T],
) -> T {
    if simd_enabled() {
        topic_cdf_lanes(dt, wt, ts, alpha, beta, vbeta, weights)
    } else {
        topic_cdf_serial(dt, wt, ts, alpha, beta, vbeta, weights)
    }
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

/// Serial gbt feature histogram: for feature `feature`, quantizes every
/// sample's value into one of `n_bins` buckets and accumulates its
/// gradient into `hist[slot * n_bins + bin]`, skipping samples whose
/// node maps to `no_slot`. `F` is the feature dtype, `G` the gradient
/// dtype; they are independent so f64 gradients never narrow through a
/// f32 feature array.
#[allow(clippy::too_many_arguments)]
pub fn feature_histogram_serial<F: Float, G: Float>(
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

/// Lane gbt feature histogram: the sample loop runs chunked over
/// [`LANES`] samples (the quantization multiply-and-cast can vectorize
/// where the feature layout allows); the scatter-accumulate into `hist`
/// is inherently scalar and stays in ascending sample order, so the
/// result is bit-identical to [`feature_histogram_serial`].
#[allow(clippy::too_many_arguments)]
pub fn feature_histogram_lanes<F: Float, G: Float>(
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
    let full = n_samples - n_samples % LANES;
    for i0 in (0..full).step_by(LANES) {
        for j in 0..LANES {
            let i = i0 + j;
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
    for i in full..n_samples {
        let slot = slot_of_node[assign[i]];
        if slot != no_slot {
            let bin = ((features[i * n_features + feature] * nb).to_f64() as usize).min(n_bins - 1);
            let s = &mut hist[slot * n_bins + bin];
            s.sum += grads[i];
            s.count += 1;
        }
    }
}

/// Dispatching gbt feature histogram.
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
    if simd_enabled() {
        feature_histogram_lanes(
            feature,
            n_samples,
            n_features,
            n_bins,
            features,
            slot_of_node,
            assign,
            grads,
            no_slot,
            hist,
        )
    } else {
        feature_histogram_serial(
            feature,
            n_samples,
            n_features,
            n_bins,
            features,
            slot_of_node,
            assign,
            grads,
            no_slot,
            hist,
        )
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

    #[test]
    fn order_preserving_kernels_bit_identical_across_remainders() {
        for n in 0..=(3 * LANES) {
            let mut w1 = ramp(n);
            let mut h1: Vec<f32> = ramp(n).iter().map(|x| x * 0.3 + 0.1).collect();
            let (mut w2, mut h2) = (w1.clone(), h1.clone());
            mf_update_rows_serial(&mut w1, &mut h1, 0.37f32);
            mf_update_rows_lanes(&mut w2, &mut h2, 0.37f32);
            assert_eq!(w1, w2);
            assert_eq!(h1, h2);

            let mut y1 = ramp(n);
            let mut y2 = y1.clone();
            let x = ramp(n);
            scaled_add_serial(&mut y1, &x, -1.5f32);
            scaled_add_lanes(&mut y2, &x, -1.5f32);
            assert_eq!(y1, y2);
        }
    }

    #[test]
    fn topic_cdf_lanes_bit_identical() {
        for k in 0..=(2 * LANES + 3) {
            let dt: Vec<u32> = (0..k as u32).collect();
            let wt: Vec<u32> = (0..k as u32).map(|x| x * 3 + 1).collect();
            let ts: Vec<i64> = (0..k as i64).map(|x| x * 7 - 3).collect();
            let mut a = vec![0.0f64; k];
            let mut b = vec![0.0f64; k];
            let t1 = topic_cdf_serial(&dt, &wt, &ts, 0.1, 0.01, 5.0, &mut a);
            let t2 = topic_cdf_lanes(&dt, &wt, &ts, 0.1, 0.01, 5.0, &mut b);
            assert_eq!(t1.to_bits(), t2.to_bits());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn cp_update_rows_lanes_bit_identical_and_same_emit_order() {
        for n in 0..=(2 * LANES + 5) {
            let mut u1 = ramp(n);
            let mut v1: Vec<f32> = ramp(n).iter().map(|x| x * 0.9 - 0.2).collect();
            let s: Vec<f32> = ramp(n).iter().map(|x| x * 0.5 + 2.0).collect();
            let (mut u2, mut v2) = (u1.clone(), v1.clone());
            let mut e1 = Vec::new();
            let mut e2 = Vec::new();
            cp_update_rows_serial(&mut u1, &mut v1, &s, 0.05f32, |c, d| {
                e1.push((c, d.to_bits()))
            });
            cp_update_rows_lanes(&mut u2, &mut v2, &s, 0.05f32, |c, d| {
                e2.push((c, d.to_bits()))
            });
            assert_eq!(u1, u2);
            assert_eq!(v1, v2);
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn feature_histogram_lanes_bit_identical() {
        let (n_samples, n_features, n_bins, n_slots) = (37, 3, 8, 2);
        let features: Vec<f32> = (0..n_samples * n_features)
            .map(|i| (i % 13) as f32 / 13.0)
            .collect();
        let assign: Vec<usize> = (0..n_samples).map(|i| i % 3).collect();
        let slot_of_node = vec![0usize, usize::MAX, 1usize];
        let grads: Vec<f64> = (0..n_samples).map(|i| i as f64 * 0.01 - 0.1).collect();
        let mut h1 = vec![BinStat::<f64>::default(); n_slots * n_bins];
        let mut h2 = h1.clone();
        for f in 0..n_features {
            feature_histogram_serial(
                f,
                n_samples,
                n_features,
                n_bins,
                &features,
                &slot_of_node,
                &assign,
                &grads,
                usize::MAX,
                &mut h1,
            );
            feature_histogram_lanes(
                f,
                n_samples,
                n_features,
                n_bins,
                &features,
                &slot_of_node,
                &assign,
                &grads,
                usize::MAX,
                &mut h2,
            );
        }
        for (a, b) in h1.iter().zip(&h2) {
            assert_eq!(a.sum.to_bits(), b.sum.to_bits());
            assert_eq!(a.count, b.count);
        }
    }

    #[test]
    fn fastmath_dispatch_requires_feature() {
        let a = ramp(100);
        let b = ramp(100);
        let exact = dot(&a, &b, MathMode::Exact);
        assert_eq!(exact.to_bits(), dot_serial(&a, &b).to_bits());
        let fast = dot(&a, &b, MathMode::FastMath);
        if fast_math_available() {
            assert_eq!(fast.to_bits(), dot_lanes(&a, &b).to_bits());
        } else {
            assert_eq!(fast.to_bits(), exact.to_bits());
        }
    }
}
