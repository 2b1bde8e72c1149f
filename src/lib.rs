//! Umbrella crate for the Gauss-tree reproduction.
//!
//! Re-exports every sub-crate so examples and integration tests can depend
//! on a single package:
//!
//! * [`pfv`] — probabilistic feature vectors and the Gaussian uncertainty
//!   model (Lemmas 1–3, Bayes normalisation);
//! * [`storage`] — paged storage, buffer pool, disk cost model;
//! * [`tree`] — the Gauss-tree index (the paper's contribution);
//! * [`baselines`] — sequential scan, X-tree, Euclidean NN;
//! * [`workloads`] — data/query generators, ground truth, metrics.
//!
//! See `README.md` for a tour, and its "Benchmarks and figure
//! reproduction" section for the reproduction methodology.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

pub use gauss_baselines as baselines;
pub use gauss_storage as storage;
pub use gauss_tree as tree;
pub use gauss_workloads as workloads;
pub use pfv;

#[cfg(test)]
mod rules;
