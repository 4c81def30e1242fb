//! Synthetic 3-way tensors for CP decomposition.
//!
//! A context–aware recommendation shaped workload (user × item × time):
//! a planted rank-`r` CP model observed at Zipf-skewed positions with
//! noise. Three-dimensional iteration spaces exercise the analyzer
//! beyond the paper's 2-D applications: every pair of modes fails the
//! 2-D test until one factor's writes are buffered.

use orion_dsm::DistArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ratings::normal;
use crate::zipf::Zipf;

/// Configuration of a synthetic 3-way tensor.
#[derive(Debug, Clone)]
pub struct TensorConfig {
    /// Extent of mode 0 (users).
    pub dim0: usize,
    /// Extent of mode 1 (items).
    pub dim1: usize,
    /// Extent of mode 2 (contexts).
    pub dim2: usize,
    /// Observed entries.
    pub nnz: usize,
    /// Planted CP rank.
    pub true_rank: usize,
    /// Zipf exponent of mode popularity.
    pub skew: f64,
    /// Observation noise standard deviation.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TensorConfig {
    /// Tiny config for unit tests.
    pub fn tiny() -> Self {
        TensorConfig {
            dim0: 40,
            dim1: 30,
            dim2: 8,
            nnz: 1_500,
            true_rank: 3,
            skew: 0.5,
            noise: 0.05,
            seed: 42,
        }
    }

    /// Benchmark scale.
    pub fn bench() -> Self {
        TensorConfig {
            dim0: 300,
            dim1: 240,
            dim2: 24,
            nnz: 40_000,
            true_rank: 8,
            skew: 0.7,
            noise: 0.1,
            seed: 20190330,
        }
    }
}

/// A generated sparse 3-way tensor.
#[derive(Debug, Clone)]
pub struct TensorData {
    /// Observed entries, indexed `(i, j, k)`.
    pub entries: DistArray<f32>,
    /// Configuration used.
    pub config: TensorConfig,
}

impl TensorData {
    /// Generates the tensor, in frozen sparse storage (sorted flat keys
    /// and their values, no write staging).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate config.
    pub fn generate(config: TensorConfig) -> Self {
        assert!(
            config.dim0 > 0 && config.dim1 > 0 && config.dim2 > 0 && config.true_rank > 0,
            "degenerate tensor config"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale = 1.0 / (config.true_rank as f64).sqrt().sqrt();
        let factor = |n: usize, rng: &mut StdRng| -> Vec<f64> {
            (0..n * config.true_rank)
                .map(|_| normal::sample(rng) * scale)
                .collect()
        };
        let u = factor(config.dim0, &mut rng);
        let v = factor(config.dim1, &mut rng);
        let s = factor(config.dim2, &mut rng);

        let p0 = Zipf::new(config.dim0, config.skew);
        let p1 = Zipf::new(config.dim1, config.skew);
        let p2 = Zipf::new(config.dim2, config.skew);
        let r = config.true_rank;
        let entries = crate::distinct_entries(
            "tensor",
            [config.dim0, config.dim1, config.dim2],
            config.nnz,
            &mut rng,
            |rng| [p0.sample(rng), p1.sample(rng), p2.sample(rng)],
            |rng, [i, j, k]| {
                let dot: f64 = (0..r)
                    .map(|c| u[i * r + c] * v[j * r + c] * s[k * r + c])
                    .sum();
                (dot + normal::sample(rng) * config.noise) as f32
            },
        );
        TensorData { entries, config }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let t = TensorData::generate(TensorConfig::tiny());
        assert_eq!(t.entries.shape().dims(), &[40, 30, 8]);
        assert!(t.entries.nnz() >= 1_200, "placed {}", t.entries.nnz());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TensorData::generate(TensorConfig::tiny());
        let b = TensorData::generate(TensorConfig::tiny());
        assert_eq!(a.entries, b.entries);
    }

    #[test]
    fn values_have_signal() {
        let t = TensorData::generate(TensorConfig::tiny());
        let vals: Vec<f32> = t.entries.iter().map(|(_, &v)| v).collect();
        let mean = vals.iter().sum::<f32>() / vals.len() as f32;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
        assert!(
            var.sqrt() > 3.0 * 0.05,
            "sd {} barely above noise",
            var.sqrt()
        );
    }
}
