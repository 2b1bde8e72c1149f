//! Workload generators, ground truth and quality metrics for the Gauss-tree
//! evaluation (paper §6).
//!
//! * [`dataset`] — the two evaluation data sets:
//!   *data set 1*: 27-dimensional colour histograms (10 987 objects in the
//!   paper; we synthesise histogram-like vectors since the original image
//!   database is not available — [`histogram_dataset`]'s docs give the
//!   substitution argument) and *data set 2*: 100 000 uniformly distributed
//!   10-dimensional vectors. Both get per-dimension random standard
//!   deviations exactly as the paper describes;
//! * [`queries`] — the query protocol of §6: select database objects,
//!   re-observe their feature vectors through the object's own Gaussians,
//!   attach fresh random uncertainties, remember the source object as
//!   ground truth; plus [`generate_query_batch`] for throughput workloads
//!   that sample with replacement (batch sizes beyond the database size);
//! * [`metrics`] — precision/recall as used in Figure 6;
//! * [`figure1`] — the running example of §3 (Figure 1): three facial
//!   images and a query for which Euclidean NN picks the wrong person while
//!   the Gaussian uncertainty model identifies O3 with ≈77 %.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

pub mod dataset;
/// Drifting-sensor streams for sustained-ingest workloads.
pub mod drift;
pub mod figure1;
pub mod metrics;
pub mod queries;

pub use dataset::{histogram_dataset, uniform_dataset, Dataset, SigmaSpec};
pub use drift::{DriftConfig, DriftStream, StreamOp};
pub use metrics::{precision_recall_sweep, HitCurve};
pub use queries::{generate_queries, generate_query_batch, IdentificationQuery};
