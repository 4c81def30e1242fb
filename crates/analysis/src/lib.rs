//! Static dependence analysis and parallelization-strategy selection —
//! the core contribution of Orion (EuroSys '19, §4 "Static
//! Parallelization").
//!
//! Given a [`orion_ir::LoopSpec`] describing how a serial for-loop's body
//! accesses DistArrays, this crate:
//!
//! 1. computes the loop's **dependence vectors** ([`dependence_vectors`],
//!    the paper's Algorithm 2);
//! 2. selects a **parallelization strategy** ([`analyze`]): 1D, 2D
//!    (ordered or unordered), 2D after a **unimodular transformation**
//!    ([`find_unimodular`]), or serial;
//! 3. chooses partitioning dimensions and **DistArray placements**
//!    (local / rotated / served) by a minimum-communication heuristic;
//! 4. derives **bulk-prefetch plans** for served arrays (§4.4).
//!
//! The result, a [`ParallelPlan`], is everything `orion-runtime` needs to
//! execute the loop as an optimized distributed computation schedule.
//!
//! # Examples
//!
//! The paper's running example — SGD matrix factorization — parallelizes
//! as unordered 2D, rotating the smaller factor matrix:
//!
//! ```
//! use orion_ir::{ArrayMeta, DistArrayId, LoopSpec, Subscript};
//! use orion_analysis::{analyze, Strategy};
//!
//! let (ratings, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
//! let spec = LoopSpec::builder("sgd_mf", ratings, vec![600, 480])
//!     .read_write(w, vec![Subscript::Full, Subscript::loop_index(0)])
//!     .read_write(h, vec![Subscript::Full, Subscript::loop_index(1)])
//!     .build()
//!     .unwrap();
//! let metas = [
//!     ArrayMeta::sparse(ratings, "ratings", vec![600, 480], 4, 80_000),
//!     ArrayMeta::dense(w, "W", vec![32, 600], 4),
//!     ArrayMeta::dense(h, "H", vec![32, 480], 4),
//! ];
//! let plan = analyze(&spec, &metas, 8);
//! assert_eq!(plan.strategy, Strategy::TwoD { space: 0, time: 1, ordered: false });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod deptest;
mod depvec;
mod report;
mod strategy;
mod unimodular;

pub use comm::{plan_placements_with, ArrayPlacement, CostParams, Placement, PrefetchPlan};
pub use deptest::dependence_vectors;
pub use depvec::{DepElem, DepVec};
pub use report::{plan_diagnostic, report, report_with};
pub use strategy::{analyze, analyze_with, ParallelPlan, Strategy};
pub use unimodular::{find_unimodular, Ext, UniMat};
