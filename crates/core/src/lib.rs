//! The Gauss-tree — an index for probabilistic feature vectors.
//!
//! Implements the index structure of *"The Gauss-Tree: Efficient Object
//! Identification in Databases of Probabilistic Feature Vectors"* (Böhm,
//! Pryakhin, Schubert — ICDE 2006, §5):
//!
//! * a balanced tree from the R-tree family that indexes not the Gaussians
//!   as spatial objects but the **parameter space** `(μᵢ, σᵢ)` of their
//!   means and uncertainties (Definition 4);
//! * conservative per-node bounds from Lemmas 2/3 (see [`pfv::hull`]);
//! * best-first query processing over a priority queue
//!   (Hjaltason–Samet style) for
//!   [k-most-likely identification queries](ReadView::k_mliq),
//!   [probability-refined k-MLIQ](ReadView::k_mliq_refined) (§5.2.2) and
//!   [threshold identification queries](ReadView::tiq) (§5.2.3, Figure 5);
//! * the insertion strategy of §5.3 (exact-fit preference, then minimal
//!   hull-cost enlargement) and the split strategy that minimises the
//!   integral `∫ N̂(x) dx` of the resulting hull functions, for which the
//!   closed form lives in [`pfv::hull::DimBounds::hull_integral`];
//! * a parallel, out-of-core STR-style [bulk loader](GaussTree::bulk_load)
//!   (an extension — the paper only describes incremental insertion) whose
//!   pipeline runs in three stages (see [`bulk`]): a streaming front end
//!   that spills runs past a configurable memory budget, leaf partitioning
//!   fanned across scoped worker threads (the recursion's sub-ranges are
//!   independent) with the levels above chunked in leaf order, and batched
//!   page writes group-committed as coalesced sequential runs — every
//!   combination byte-identical to the serial resident build; plus
//!   [`GaussTree::extend`], the batched merge of a run into an in-memory
//!   tree (one descent per batch);
//! * [structural invariant checking](GaussTree::check_invariants),
//!   including exact page accounting: every allocated page is a commit
//!   slot, reachable from the root, or dead past the committed allocation
//!   (pages appended to a file after its commit);
//! * a columnar read hot path: decoded nodes are cached next to their pages
//!   ([`CachedNode`] behind a [`gauss_storage::SideCache`]), leaves are
//!   materialized struct-of-arrays and evaluated with the batched Lemma-1
//!   kernel [`pfv::batch::log_densities`], inner nodes as columns of
//!   parameter rectangles ([`ColumnarInnerNode`]) whose children k-MLIQ and
//!   the ranking cursor queue under a screened bracket and price exactly
//!   only when that could change the order — answers, page reads and
//!   densities bit-identical to the scalar per-entry path.
//!
//! Nodes live in fixed-size pages behind a [`gauss_storage::SharedBufferPool`],
//! so every query reports the same page-access statistics the paper measures
//! — and, because the pool has interior mutability, every read-only query
//! takes `&self` and can run concurrently with others over one shared tree
//! (see the [`executor`] module for the multi-threaded batch API).
//!
//! **A tree file is written once; the forest is the durable writer.** A
//! [`GaussTree`] on a page file is built by the bulk loader, committed
//! once and only read afterwards; the paper's incremental
//! [`insert`](GaussTree::insert) exists on in-memory trees
//! (`GaussTree<MemStore>`) only. An index that changes is a
//! [`GaussForest`] (module [`forest`]): it absorbs inserts, upserts and
//! deletes in a memtable (deletes as tombstones), flushes it through the
//! bulk loader into write-once components of doubling sizes, merges them
//! on [`GaussForest::maintain`], and commits its component list
//! crash-atomically.
//!
//! Every query entry point is a provided method of the [`ReadView`] trait
//! (module [`view`]), implemented by [`GaussTree`] and by
//! [`ForestSnapshot`] — the forest's snapshot: its memtable image plus one
//! `Arc<GaussTree>` per component, which keeps answering for the live set
//! it was taken at while the forest flushes and merges (see the *Snapshots*
//! section of the README). Forest answers are bit-identical to a single
//! tree over the live set.
//!
//! # Example
//!
//! ```
//! use gauss_tree::{GaussTree, ReadView, TreeConfig};
//! use gauss_storage::{AccessStats, MemStore, SharedBufferPool};
//! use pfv::Pfv;
//!
//! let config = TreeConfig::new(2);
//! let pool = SharedBufferPool::new(MemStore::new(4096), 64, AccessStats::new_shared());
//! let mut tree = GaussTree::create(pool, config).unwrap();
//!
//! tree.insert(1, &Pfv::new(vec![1.0, 2.0], vec![0.1, 0.2]).unwrap()).unwrap();
//! tree.insert(2, &Pfv::new(vec![5.0, 6.0], vec![0.3, 0.1]).unwrap()).unwrap();
//!
//! let q = Pfv::new(vec![1.1, 2.1], vec![0.2, 0.2]).unwrap();
//! let hits = tree.k_mliq(&q, 1).unwrap();
//! assert_eq!(hits[0].id, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

/// Parallel out-of-core bulk loading.
pub mod bulk;
/// Structural invariant checking for debugging and tests.
pub mod check;
/// Tree construction and split-strategy configuration.
pub mod config;
/// Streaming cursors over leaf entries.
pub mod cursor;
/// Parallel batch-query execution.
pub mod executor;
/// The LSM-style Gauss-forest: memtable + immutable component trees.
pub mod forest;
/// Conservative probability-interval bounds for subtree pruning.
pub mod interval;
/// On-page node layout: inner/leaf entries and their codecs.
pub mod node;
/// Probabilistic identification queries (MLIQ / k-MLIQ / TIQ).
pub mod query;
/// Node splitting, including the parallel partition pipeline.
pub mod split;
/// The Gauss-tree itself: bulk load, open, and in-memory insertion.
pub mod tree;
/// The shared read-plane: the [`ReadView`] query trait and its substrate.
pub mod view;

pub use bulk::{BulkLoadOptions, BulkLoadReport};
pub use check::InvariantError;
pub use config::{LeafFormat, SplitStrategy, TreeConfig};
pub use cursor::RankingCursor;
pub use executor::BatchExecutor;
pub use forest::{ComponentInfo, ForestOptions, ForestSnapshot, GaussForest, MaintainReport};
pub use interval::BoxQueryResult;
pub use node::{children_log_hulls, CachedNode, ColumnarInnerNode, ColumnarLeafNode};
pub use query::{MliqResult, RefinedResult, TiqResult};
pub use tree::{GaussTree, TreeError, TreeOptions};
pub use view::ReadView;
