//! Iteration-space and DistArray partitioning schemes (paper §4.3).

use std::ops::Range;

use orion_ir::Dim;

/// A contiguous range partitioning of one dimension into ordered parts.
///
/// # Examples
///
/// ```
/// use orion_dsm::RangePartition;
/// let p = RangePartition::uniform(0, 10, 3);
/// assert_eq!(p.ranges.len(), 3);
/// assert_eq!(p.part_of(0), 0);
/// assert_eq!(p.part_of(9), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePartition {
    /// The partitioned dimension.
    pub dim: Dim,
    /// Ordered, disjoint ranges tiling `[0, extent)`.
    pub ranges: Vec<Range<u64>>,
}

impl RangePartition {
    /// Splits `[0, extent)` into `n` near-equal ranges (the first
    /// `extent % n` ranges get one extra index).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > extent` (empty partitions are not
    /// allowed: every part must own at least one index).
    pub fn uniform(dim: Dim, extent: u64, n: usize) -> Self {
        assert!(n > 0, "cannot partition into zero parts");
        assert!(
            n as u64 <= extent,
            "cannot partition extent {extent} into {n} non-empty parts"
        );
        let base = extent / n as u64;
        let rem = extent % n as u64;
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0u64;
        for i in 0..n as u64 {
            let len = base + u64::from(i < rem);
            ranges.push(start..start + len);
            start += len;
        }
        RangePartition { dim, ranges }
    }

    /// Splits `[0, weights.len())` into `n` ranges minimizing the
    /// heaviest part — the histogram-balanced partitioning Orion
    /// computes for skewed data distributions (§4.3).
    ///
    /// Binary-searches the bottleneck load: the smallest cap `L` such
    /// that a prefix-greedy scan covers the histogram in at most `n`
    /// parts (the classic "split array largest sum" formulation, which
    /// is exactly optimal — never merely no-worse-than-uniform). Since
    /// splitting a part further can only shrink loads, "at most `n`"
    /// extends to "exactly `n` non-empty parts" for free.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > weights.len()`.
    pub fn balanced(dim: Dim, weights: &[u64], n: usize) -> Self {
        let extent = weights.len() as u64;
        assert!(n > 0, "cannot partition into zero parts");
        assert!(
            n as u64 <= extent,
            "cannot partition extent {extent} into {n} non-empty parts"
        );
        let total: u64 = weights.iter().sum();
        let max_w = weights.iter().copied().max().unwrap_or(0);
        let parts_needed = |cap: u64| -> usize {
            let mut parts = 1usize;
            let mut w = 0u64;
            for &x in weights {
                if w + x > cap {
                    parts += 1;
                    w = x;
                } else {
                    w += x;
                }
            }
            parts
        };
        let (mut lo, mut hi) = (max_w, total);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if parts_needed(mid) <= n {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let cap = lo;
        // Materialize exactly `n` parts under the optimal cap; a part
        // closes early where needed to leave one index for each part
        // still to come (forced single-index parts stay within `cap`
        // because `cap >= max_w`).
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0u64;
        for part in 0..n {
            let must_leave = (n - part - 1) as u64;
            let limit = extent - must_leave;
            let mut end = start + 1;
            let mut w = weights[start as usize];
            while end < limit && w + weights[end as usize] <= cap {
                w += weights[end as usize];
                end += 1;
            }
            if part == n - 1 {
                end = extent;
            }
            ranges.push(start..end);
            start = end;
        }
        RangePartition { dim, ranges }
    }

    /// The part owning coordinate `coord`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside `[0, extent)`.
    pub fn part_of(&self, coord: u64) -> usize {
        let p = self.ranges.partition_point(|r| r.end <= coord);
        assert!(
            p < self.ranges.len() && self.ranges[p].contains(&coord),
            "coordinate {coord} outside the partitioned extent"
        );
        p
    }

    /// The covered extent.
    pub fn extent(&self) -> u64 {
        self.ranges.last().map(|r| r.end).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_tiles_exactly() {
        let p = RangePartition::uniform(1, 11, 4);
        assert_eq!(p.ranges, vec![0..3, 3..6, 6..9, 9..11]);
        assert_eq!(p.extent(), 11);
        let sizes: Vec<u64> = p.ranges.iter().map(|r| r.end - r.start).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 11);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
    }

    #[test]
    fn part_of_boundaries() {
        let p = RangePartition::uniform(0, 10, 2);
        assert_eq!(p.part_of(4), 0);
        assert_eq!(p.part_of(5), 1);
        assert_eq!(p.part_of(9), 1);
    }

    #[test]
    #[should_panic(expected = "outside the partitioned extent")]
    fn part_of_out_of_range_panics() {
        let p = RangePartition::uniform(0, 10, 2);
        let _ = p.part_of(10);
    }

    #[test]
    #[should_panic(expected = "non-empty parts")]
    fn uniform_too_many_parts_panics() {
        let _ = RangePartition::uniform(0, 3, 4);
    }

    #[test]
    fn balanced_evens_out_skew() {
        // A heavily skewed histogram: one hot index and a long tail.
        let mut w = vec![1u64; 100];
        w[0] = 100;
        let p = RangePartition::balanced(0, &w, 4);
        assert_eq!(p.ranges.len(), 4);
        assert_eq!(p.extent(), 100);
        let loads: Vec<u64> = p
            .ranges
            .iter()
            .map(|r| w[r.start as usize..r.end as usize].iter().sum())
            .collect();
        let max = *loads.iter().max().unwrap();
        let uniform_max: u64 = {
            let up = RangePartition::uniform(0, 100, 4);
            up.ranges
                .iter()
                .map(|r| w[r.start as usize..r.end as usize].iter().sum())
                .max()
                .unwrap()
        };
        assert!(
            max <= uniform_max,
            "balanced max load {max} should not exceed uniform {uniform_max}"
        );
        // The hot index dominates: its part should be as small as possible.
        assert_eq!(p.ranges[0], 0..1);
    }

    #[test]
    fn balanced_handles_flat_weights() {
        let w = vec![5u64; 12];
        let p = RangePartition::balanced(0, &w, 3);
        let sizes: Vec<u64> = p.ranges.iter().map(|r| r.end - r.start).collect();
        assert_eq!(sizes, vec![4, 4, 4]);
    }

    #[test]
    fn balanced_leaves_room_for_tail_parts() {
        // All weight up front must still leave one index per later part.
        let w = vec![100, 0, 0, 0];
        let p = RangePartition::balanced(0, &w, 4);
        assert_eq!(p.ranges, vec![0..1, 1..2, 2..3, 3..4]);
    }

    #[test]
    fn balanced_zero_prefix_regression_is_optimal() {
        // The checked-in proptest seed (tests/dsm_props.proptest-
        // regressions): a zero-weight prefix used to push the greedy
        // prefix split above the uniform max load.
        let w: Vec<u64> = vec![
            0, 0, 0, 0, 12, 16, 32, 23, 22, 22, 23, 43, 47, 2, 40, 47, 9, 23, 9, 34, 27, 41, 46,
            31, 0, 40, 13, 6, 34, 24, 46, 49, 21, 3, 11, 18, 29, 13, 42, 39,
        ];
        let parts = 4;
        let load = |p: &RangePartition| -> u64 {
            p.ranges
                .iter()
                .map(|r| w[r.start as usize..r.end as usize].iter().sum())
                .max()
                .unwrap()
        };
        let balanced = RangePartition::balanced(0, &w, parts);
        assert_eq!(balanced.extent(), w.len() as u64);
        assert_eq!(balanced.ranges.len(), parts);
        assert!(balanced.ranges.iter().all(|r| r.start < r.end));
        let uniform = RangePartition::uniform(0, w.len() as u64, parts);
        assert!(
            load(&balanced) <= load(&uniform),
            "balanced {} vs uniform {}",
            load(&balanced),
            load(&uniform)
        );
        // And stronger than the property: exactly the DP-optimal
        // bottleneck over all contiguous partitionings.
        let prefix: Vec<u64> = std::iter::once(0)
            .chain(w.iter().scan(0u64, |acc, &x| {
                *acc += x;
                Some(*acc)
            }))
            .collect();
        let n = w.len();
        // best[p][i]: minimal max load splitting w[..i] into p parts.
        let mut best = vec![vec![u64::MAX; n + 1]; parts + 1];
        best[0][0] = 0;
        for p in 1..=parts {
            for i in p..=n {
                for j in (p - 1)..i {
                    let cand = best[p - 1][j].max(prefix[i] - prefix[j]);
                    best[p][i] = best[p][i].min(cand);
                }
            }
        }
        assert_eq!(
            load(&balanced),
            best[parts][n],
            "balanced must hit the optimal bottleneck load"
        );
    }
}
