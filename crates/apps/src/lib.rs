//! ML training applications parallelized by Orion — the paper's Table 2.
//!
//! | App | Model | Algorithm | Parallelization chosen by the analyzer |
//! |-----|-------|-----------|----------------------------------------|
//! | [`sgd_mf`] | Matrix factorization | SGD (± adaptive revision) | 2D Unordered |
//! | [`lda`] | Latent Dirichlet Allocation | Collapsed Gibbs sampling | 2D Unordered (+ buffered summary) |
//! | [`slr`] | Sparse logistic regression | SGD (± adaptive revision) | 1D data parallelism via buffers |
//! | [`gbt`] | Gradient boosted trees | Gradient boosting | 1D (independent features) |
//! | [`tensor_cp`] | CP tensor decomposition | SGD | Serial as written; 2D Unordered with the context factor buffered |
//!
//! Each application implements [`run::App`] once — one setup, the
//! simulated pass, the partition-form pass, the metric — and
//! [`run::run`] executes it on the simulated cluster, the thread pool
//! or a TCP cluster, with tracing, tuning and chaos recovery as
//! orthogonal options. Where the paper compares systems the modules add
//! adapters for the Bösen-style parameter server, the STRADS-style
//! manual model-parallel baseline, and the TensorFlow-style mini-batch
//! dataflow baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod common;
pub mod distributed;
pub mod gbt;
pub mod lda;
pub mod run;
pub mod serve;
pub mod sgd_mf;
pub mod slr;
pub mod specs;
pub mod tensor_cp;
