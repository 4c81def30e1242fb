//! Seeded synthetic dataset generators standing in for the paper's
//! evaluation datasets (§6.1).
//!
//! The paper's evaluation uses Netflix (SGD MF), NYTimes and ClueWeb
//! (LDA), and KDD2010 Algebra (SLR). None are redistributable here, so
//! each gets a structurally matched synthetic generator (documented as a
//! substitution in DESIGN.md): same sparsity pattern family, Zipf skew,
//! and *planted signal* so the training algorithms genuinely converge —
//! which is what the paper's convergence-rate comparisons measure.
//!
//! Everything is seeded and exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod ratings;
mod sparse_features;
mod tabular;
mod tensor;
mod zipf;

use orion_dsm::DistArray;
use rand::rngs::StdRng;

/// Rejection-samples a sparse array of `dims`: draws a position with
/// `position` until `nnz` distinct ones are placed or `20 × nnz` draws
/// are spent, and right after each new one draws its value with
/// `value`. Repeats are caught in a one-bit-per-cell bitmap, dropped
/// before the entries freeze into sorted columns.
fn distinct_entries<const N: usize>(
    name: &str,
    dims: [usize; N],
    nnz: usize,
    rng: &mut StdRng,
    mut position: impl FnMut(&mut StdRng) -> [usize; N],
    mut value: impl FnMut(&mut StdRng, [usize; N]) -> f32,
) -> DistArray<f32> {
    let mut seen = vec![0u64; dims.iter().product::<usize>().div_ceil(64)];
    let mut entries = Vec::with_capacity(nnz);
    let mut attempts = 0usize;
    while entries.len() < nnz && attempts < nnz * 20 {
        attempts += 1;
        let at = position(rng);
        let flat = at.iter().zip(&dims).fold(0, |flat, (&i, &d)| flat * d + i);
        let (word, bit) = (flat / 64, 1u64 << (flat % 64));
        if seen[word] & bit != 0 {
            continue;
        }
        seen[word] |= bit;
        entries.push((flat as u64, value(rng, at)));
    }
    drop(seen);
    DistArray::sparse_from_flat(name, dims.map(|d| d as u64).to_vec(), entries)
}

pub use corpus::{CorpusConfig, CorpusData};
pub use ratings::{RatingsConfig, RatingsData};
pub use sparse_features::{SparseConfig, SparseData, SparseSample};
pub use tabular::{TabularConfig, TabularData};
pub use tensor::{TensorConfig, TensorData};
pub use zipf::Zipf;
