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

use orion_dsm::{DistArray, Element};

/// Rebuilds a generator's sparse array — filled point by point, so its
/// entries sit in the store's write staging — as frozen sorted columns:
/// the same entries in the same order, read by every later walk as two
/// flat vectors instead of a tree.
fn frozen<T: Element>(staged: &DistArray<T>) -> DistArray<T> {
    let entries = staged.iter_flat().map(|(flat, v)| (flat, v.clone()));
    DistArray::sparse_from_flat(staged.name(), staged.shape().dims().to_vec(), entries)
}

pub use corpus::{CorpusConfig, CorpusData};
pub use ratings::{RatingsConfig, RatingsData};
pub use sparse_features::{SparseConfig, SparseData, SparseSample};
pub use tabular::{TabularConfig, TabularData};
pub use tensor::{TensorConfig, TensorData};
pub use zipf::Zipf;
