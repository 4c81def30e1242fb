//! Order statistics for benchmark samples: medians and quartiles of
//! repetitions, nearest-rank percentiles of latencies — never a mean.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles — the second is the median — by the method of Python's
/// `statistics.quantiles(v, n=4)` (exclusive), which the regression gate
/// applies to whole runs, so a run's own spread reads on the same scale.
/// One sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice — a metric without samples is a harness bug.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn summarize(samples: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(samples);
    Summary {
        n: samples.len(),
        q1,
        median,
        q3,
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples:
/// `ceil(p/100 · n)`, at least 1.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0 && (0.0..=100.0).contains(&p), "rank of p{p} in {n}");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted<T: Copy>(ascending: &[T], p: f64) -> T {
    ascending[nearest_rank(ascending.len(), p) - 1]
}

/// Whether the `p`-th percentile of `n` samples has at least `beyond`
/// samples above its rank; a tail percentile resting on fewer is one
/// outlier, not a percentile.
pub fn has_samples_beyond(n: usize, p: f64, beyond: usize) -> bool {
    n > 0 && n - nearest_rank(n, p) >= beyond
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn summary_counts_and_orders_its_quartiles() {
        let s = summarize(&[9.0, 2.0, 5.0, 7.0, 1.0, 8.0]);
        assert_eq!(s.n, 6);
        assert_eq!(s.median, 6.0);
        assert!(s.q1 <= s.median && s.median <= s.q3);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        // ceil(0.99 · 7) = 7: the tail of a short sample is its maximum.
        assert_eq!(percentile_sorted(&[1, 2, 3, 4, 5, 6, 7], 99.0), 7);
        assert_eq!(nearest_rank(1000, 99.0), 990);
    }

    #[test]
    fn ten_samples_beyond_guard() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert!(has_samples_beyond(1000, 99.0, 10));
        assert!(!has_samples_beyond(999, 99.0, 10));
        assert!(has_samples_beyond(20, 50.0, 10));
        assert!(!has_samples_beyond(19, 50.0, 10));
        assert!(!has_samples_beyond(0, 50.0, 10));
    }
}
