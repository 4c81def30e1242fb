//! Every application's declared `LoopSpec` must be an over-approximation
//! of what its loop body actually touches — the property all analysis
//! soundness rests on. These tests re-run each app's body through the
//! [`AccessValidator`] in recording mode.

use orion::check::AccessValidator;
use orion::ir::{DistArrayId, LoopSpec, Subscript};

#[test]
fn sgd_mf_body_conforms_to_spec() {
    use orion::data::{RatingsConfig, RatingsData};
    let data = RatingsData::generate(RatingsConfig::tiny());
    let dims = data.ratings.shape().dims().to_vec();
    let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
    let spec = LoopSpec::builder("sgd_mf", z, dims)
        .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
        .build()
        .unwrap();
    let mut v = AccessValidator::new(&spec);
    let rank = 4i64;
    for (idx, _val) in data.items() {
        // The body reads and writes W[idx0, :] and H[idx1, :].
        for k in 0..rank {
            v.check_read(&idx, w, &[idx[0], k]);
            v.check_read(&idx, h, &[idx[1], k]);
            v.check_write(&idx, w, &[idx[0], k]);
            v.check_write(&idx, h, &[idx[1], k]);
        }
    }
    v.verdict().expect("MF body within declared pattern");
}

#[test]
fn lda_body_conforms_to_spec() {
    use orion::data::{CorpusConfig, CorpusData};
    let corpus = CorpusData::generate(CorpusConfig::tiny());
    let dims = corpus.tokens.shape().dims().to_vec();
    let (tok, dt, wt, ts) = (
        DistArrayId(0),
        DistArrayId(1),
        DistArrayId(2),
        DistArrayId(3),
    );
    let spec = LoopSpec::builder("lda", tok, dims)
        .read_write(dt, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(wt, vec![Subscript::loop_index(1), Subscript::Full])
        .read(ts, vec![Subscript::Full])
        .write(ts, vec![Subscript::Full])
        .buffer_writes(ts)
        .build()
        .unwrap();
    let mut v = AccessValidator::new(&spec);
    let k = 4i64;
    for (idx, _count) in corpus.items() {
        for t in 0..k {
            v.check_read(&idx, dt, &[idx[0], t]);
            v.check_write(&idx, dt, &[idx[0], t]);
            v.check_read(&idx, wt, &[idx[1], t]);
            v.check_write(&idx, wt, &[idx[1], t]);
            v.check_read(&idx, ts, &[t]);
            v.check_write(&idx, ts, &[t]);
        }
    }
    v.verdict().expect("LDA body within declared pattern");
    assert!(v.is_buffered(ts), "summary writes are buffered");
}

#[test]
fn slr_body_conforms_to_spec() {
    use orion::data::{SparseConfig, SparseData};
    let data = SparseData::generate(SparseConfig::tiny());
    let (z, w) = (DistArrayId(0), DistArrayId(1));
    let spec = LoopSpec::builder("slr", z, vec![data.samples.len() as u64])
        .read(w, vec![Subscript::unknown()])
        .write(w, vec![Subscript::unknown()])
        .buffer_writes(w)
        .build()
        .unwrap();
    let mut v = AccessValidator::new(&spec);
    for (i, s) in data.samples.iter().enumerate() {
        let it = [i as i64];
        for &f in &s.features {
            v.check_read(&it, w, &[f as i64]);
            v.check_write(&it, w, &[f as i64]);
        }
    }
    v.verdict().expect("SLR body within declared pattern");
}

#[test]
fn gbt_body_conforms_to_spec() {
    let n_features = 8u64;
    let n_samples = 50i64;
    let n_bins = 16i64;
    let (feats, grads, hist) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
    let spec = LoopSpec::builder("gbt", feats, vec![n_features])
        .read(grads, vec![Subscript::Full])
        .write(hist, vec![Subscript::loop_index(0), Subscript::Full])
        .build()
        .unwrap();
    let mut v = AccessValidator::new(&spec);
    for f in 0..n_features as i64 {
        let it = [f];
        for s in 0..n_samples {
            v.check_read(&it, grads, &[s]);
        }
        for b in 0..n_bins {
            v.check_write(&it, hist, &[f, b]);
        }
    }
    v.verdict().expect("GBT body within declared pattern");
}

/// A deliberately wrong body (writing a neighbour's row) must be caught —
/// the validator is not vacuous.
#[test]
fn nonconforming_body_is_caught() {
    let (z, w) = (DistArrayId(0), DistArrayId(1));
    let spec = LoopSpec::builder("bad", z, vec![8])
        .read_write(w, vec![Subscript::loop_index(0)])
        .build()
        .unwrap();
    let mut v = AccessValidator::new(&spec);
    for i in 0..8i64 {
        v.check_write(&[i], w, &[(i + 1) % 8]); // off-by-one: races!
    }
    assert_eq!(v.violations().len(), 8);
}

// ---------------------------------------------------------------------------
// FastMath convergence equivalence. `MathMode::FastMath` reassociates the
// reduction kernels (dot / gather_sum) into lane-partial sums; the spec
// it must conform to is: deterministic run to run, and the same
// convergence as Exact — same objective up to reassociation-level FP
// noise, never a different trajectory class. Without the `fast-math`
// feature compiled in, dispatch falls back to Exact, so the trained
// model must be *bit-identical* — these tests pin both sides of that
// contract and run under every leg of the CI feature matrix.
// ---------------------------------------------------------------------------

/// Relative tolerance on final objectives between Exact and FastMath
/// training: generous against FP-reassociation drift compounding over
/// passes, far below any real convergence difference.
const FASTMATH_RTOL: f64 = 1e-2;

#[test]
fn sgd_mf_fastmath_convergence_equivalence() {
    use orion::apps::sgd_mf::{train_orion, MfConfig, MfRunConfig};
    use orion::core::ClusterSpec;
    use orion::data::{RatingsConfig, RatingsData};

    let d = RatingsData::generate(RatingsConfig::tiny());
    let items = d.items();
    let run = MfRunConfig {
        cluster: ClusterSpec::new(4, 4),
        passes: 5,
        ordered: true,
    };
    let (exact, _) = train_orion(&d, MfConfig::new(4), &run);
    let (fast1, _) = train_orion(&d, MfConfig::new(4).fast_math(), &run);
    let (fast2, _) = train_orion(&d, MfConfig::new(4).fast_math(), &run);

    // FastMath is deterministic: the lane fold has a fixed shape.
    assert_eq!(fast1.w, fast2.w);
    assert_eq!(fast1.h, fast2.h);

    let le = exact.loss(&items);
    let lf = fast1.loss(&items);
    assert!(le.is_finite() && lf.is_finite(), "{le} vs {lf}");
    assert!(
        (le - lf).abs() <= FASTMATH_RTOL * le.abs().max(1e-9),
        "exact loss {le} vs fast-math loss {lf}"
    );
}

#[test]
fn slr_fastmath_convergence_equivalence() {
    use orion::apps::slr::{train_orion, SlrConfig, SlrRunConfig};
    use orion::core::ClusterSpec;
    use orion::data::{SparseConfig, SparseData};

    let d = SparseData::generate(SparseConfig::tiny());
    let run = SlrRunConfig {
        cluster: ClusterSpec::new(4, 4),
        passes: 5,
        prefetch_override: None,
    };
    let (exact, _) = train_orion(&d, SlrConfig::new(), &run);
    let (fast1, _) = train_orion(&d, SlrConfig::new().fast_math(), &run);
    let (fast2, _) = train_orion(&d, SlrConfig::new().fast_math(), &run);

    assert_eq!(fast1.weights, fast2.weights);

    let le = exact.loss(&d);
    let lf = fast1.loss(&d);
    assert!(le.is_finite() && lf.is_finite(), "{le} vs {lf}");
    assert!(
        (le - lf).abs() <= FASTMATH_RTOL * le.abs().max(1e-9),
        "exact loss {le} vs fast-math loss {lf}"
    );
}
