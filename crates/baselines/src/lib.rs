//! Baselines the Gauss-tree paper compares against (§6):
//!
//! * [`seqscan`] — the "general solution" of §4 executed on top of a
//!   sequential scan of an unordered pfv file: one pass for k-MLIQ, two
//!   passes for TIQ (first pass accumulates the Bayes denominator);
//! * [`rect`] + [`xtree`] — an X-tree (Berchtold, Keim, Kriegel, VLDB'96)
//!   storing the 95 %-quantile hyper-rectangle approximation of every pfv;
//!   queries filter by box intersection and refine candidates against the
//!   pfv file. This method *allows false dismissals* — exactly the caveat
//!   the paper notes;
//! * [`knn`] — conventional Euclidean k-NN on the mean vectors, used by the
//!   effectiveness experiment (Figure 6).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

pub mod knn;
pub mod rect;
pub mod seqscan;
pub mod xtree;

pub use knn::euclidean_knn;
pub use rect::Rect;
pub use seqscan::{PfvFile, ScanError};
pub use xtree::{XTree, XTreeConfig};
