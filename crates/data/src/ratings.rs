//! Netflix-like synthetic rating matrices for matrix factorization.
//!
//! The real Netflix dataset (~100M ratings of 480K users × 17K movies,
//! paper §6.1) is not redistributable; this generator produces a
//! structurally equivalent matrix at configurable scale: a planted
//! low-rank model `V ≈ W* H*ᵀ` observed at Zipf-skewed (user, item)
//! positions with Gaussian noise — so SGD MF has real signal to recover,
//! skew to stress partition balancing, and the same disjoint row/column
//! access pattern that drives the paper's dependence analysis.

use crate::zipf::Zipf;
use orion_dsm::DistArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Minimal Box–Muller standard normal, to avoid a rand_distr dependency.
pub(crate) mod normal {
    use rand::Rng;

    /// One standard-normal draw.
    pub fn sample(rng: &mut impl Rng) -> f64 {
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Configuration of a synthetic rating matrix.
#[derive(Debug, Clone)]
pub struct RatingsConfig {
    /// Number of users (rows).
    pub n_users: usize,
    /// Number of items (columns).
    pub n_items: usize,
    /// Observed ratings to draw.
    pub nnz: usize,
    /// Planted rank of the ground-truth factors.
    pub true_rank: usize,
    /// Zipf exponent of user/item popularity (0 = uniform).
    pub skew: f64,
    /// Observation noise standard deviation.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RatingsConfig {
    /// Tiny config for unit tests.
    pub fn tiny() -> Self {
        RatingsConfig {
            n_users: 60,
            n_items: 40,
            nnz: 600,
            true_rank: 4,
            skew: 0.6,
            noise: 0.05,
            seed: 42,
        }
    }

    /// The "Netflix-like" benchmark scale used by the experiment
    /// harnesses (documented substitution for the 100M-rating original).
    pub fn netflix_like() -> Self {
        RatingsConfig {
            n_users: 600,
            n_items: 480,
            nnz: 80_000,
            true_rank: 16,
            skew: 0.7,
            noise: 0.1,
            seed: 20190325, // EuroSys '19 opening day
        }
    }
}

/// A generated rating dataset.
#[derive(Debug, Clone)]
pub struct RatingsData {
    /// The sparse observed matrix (users × items).
    pub ratings: DistArray<f32>,
    /// Configuration it was generated from.
    pub config: RatingsConfig,
}

impl RatingsData {
    /// Generates the dataset. The ratings come back in frozen sparse
    /// storage (sorted flat keys and their values, no write staging), so
    /// every later walk over them is a linear scan.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate config (zero users/items/rank).
    pub fn generate(config: RatingsConfig) -> Self {
        assert!(
            config.n_users > 0 && config.n_items > 0 && config.true_rank > 0,
            "degenerate ratings config"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale = 1.0 / (config.true_rank as f64).sqrt();
        let wstar: Vec<f64> = (0..config.n_users * config.true_rank)
            .map(|_| normal::sample(&mut rng) * scale)
            .collect();
        let hstar: Vec<f64> = (0..config.n_items * config.true_rank)
            .map(|_| normal::sample(&mut rng) * scale)
            .collect();

        let user_pop = Zipf::new(config.n_users, config.skew);
        let item_pop = Zipf::new(config.n_items, config.skew);
        let mut ratings = DistArray::sparse(
            "ratings",
            vec![config.n_users as u64, config.n_items as u64],
        );
        let mut placed = 0usize;
        // Rejection on duplicates; bounded attempts keep generation total.
        let mut attempts = 0usize;
        let max_attempts = config.nnz * 20;
        while placed < config.nnz && attempts < max_attempts {
            attempts += 1;
            let u = user_pop.sample(&mut rng);
            let i = item_pop.sample(&mut rng);
            let idx = [u as i64, i as i64];
            if ratings.get(&idx).is_some() {
                continue;
            }
            let mut dot = 0.0f64;
            for r in 0..config.true_rank {
                dot += wstar[u * config.true_rank + r] * hstar[i * config.true_rank + r];
            }
            let v = dot + normal::sample(&mut rng) * config.noise;
            ratings.set(&idx, v as f32);
            placed += 1;
        }
        RatingsData {
            ratings: crate::frozen(&ratings),
            config,
        }
    }

    /// Number of observed ratings actually placed.
    pub fn nnz(&self) -> u64 {
        self.ratings.nnz()
    }

    /// The iteration items for the training loop.
    pub fn items(&self) -> Vec<(Vec<i64>, f32)> {
        self.ratings.iter().map(|(i, &v)| (i, v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_volume() {
        let d = RatingsData::generate(RatingsConfig::tiny());
        assert!(d.nnz() >= 500, "placed {} of 600", d.nnz());
        let dims = d.ratings.shape().dims().to_vec();
        assert_eq!(dims, vec![60, 40]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RatingsData::generate(RatingsConfig::tiny());
        let b = RatingsData::generate(RatingsConfig::tiny());
        assert_eq!(a.ratings, b.ratings);
        let mut c_cfg = RatingsConfig::tiny();
        c_cfg.seed = 43;
        let c = RatingsData::generate(c_cfg);
        assert_ne!(a.ratings, c.ratings);
    }

    #[test]
    fn skewed_rows_are_heavy_headed() {
        let d = RatingsData::generate(RatingsConfig {
            skew: 1.1,
            ..RatingsConfig::tiny()
        });
        let h = d.ratings.histogram_along(0);
        let head: u64 = h[..6].iter().sum();
        let tail: u64 = h[54..].iter().sum();
        assert!(head > tail, "head {head} should outweigh tail {tail}");
    }

    #[test]
    fn low_rank_signal_present() {
        // The planted model explains much more variance than noise: the
        // value spread must exceed the noise sigma clearly.
        let d = RatingsData::generate(RatingsConfig::tiny());
        let vals: Vec<f32> = d.ratings.iter().map(|(_, &v)| v).collect();
        let mean = vals.iter().sum::<f32>() / vals.len() as f32;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
        assert!(var.sqrt() > 0.2, "signal too weak: sd {}", var.sqrt());
    }
}
