//! Structural invariant checking (Definition 4 of the paper).
//!
//! Verifies, for a whole tree:
//!
//! * every leaf is at the same level (balance);
//! * fanout bounds: inner nodes hold between `⌈M/2⌉` and `M` entries and
//!   leaves between `M` and `2M` (the root is exempt from the lower bounds);
//! * parent rectangles contain their children's rectangles / pfv and are
//!   **tight**: equal to the outward `f32` rounding
//!   ([`pfv::quant::rounded_outward`]) of the exact union of everything
//!   below them, as an inner page stores it (see [`crate::node`]);
//! * subtree counts add up and match the tree's `len()`.
//!
//! Incremental insertion keeps these exactly; the bulk loader packs its
//! pages, which meets the strict bounds for every capacity ≥ 2.

use crate::node::Node;
use crate::tree::{GaussTree, TreeError};
use crate::view::Plane;
use gauss_storage::store::PageStore;
use gauss_storage::PageId;
use pfv::ParamRect;

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantError {
    /// A leaf was found at the wrong depth.
    UnbalancedLeaf {
        /// Page of the offending leaf.
        page: u64,
        /// Depth where the leaf was found.
        depth: u32,
        /// Tree height (expected leaf depth).
        expected: u32,
    },
    /// Node fanout outside the permitted interval.
    FanoutViolation {
        /// Offending page.
        page: u64,
        /// Entry count found.
        len: usize,
        /// Minimum allowed.
        min: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// A child's bounds leak out of its parent entry's rectangle.
    ChildNotContained {
        /// Parent page.
        parent: u64,
        /// Child page.
        child: u64,
    },
    /// A parent entry's rectangle is bigger than the outward rounding of
    /// the union of its child.
    RectNotTight {
        /// Parent page.
        parent: u64,
        /// Child page.
        child: u64,
    },
    /// A parent entry's subtree count disagrees with the child.
    CountMismatch {
        /// Parent page.
        parent: u64,
        /// Child page.
        child: u64,
        /// Count recorded in the parent entry.
        recorded: u64,
        /// Count found in the subtree.
        actual: u64,
    },
    /// The tree's `len()` disagrees with the stored entries.
    LenMismatch {
        /// `len()` reported by the metadata.
        meta: u64,
        /// Entries actually stored.
        actual: u64,
    },
    /// Allocated pages are neither reachable from the root, nor metadata
    /// pages, nor dead pages past the committed allocation — the store is
    /// leaking pages.
    PageLeak {
        /// Pages allocated in the store.
        allocated: u64,
        /// Node pages reachable from the root (excluding metadata pages).
        reachable: u64,
        /// Dead pages: pages past the committed allocation.
        freed: u64,
        /// Pages owned by the tree's metadata (the two commit slots).
        meta: u64,
    },
    /// A dead page (past the committed allocation) is reachable from the
    /// root: a child id points beyond what the slot committed.
    FreedPageReachable {
        /// The doubly-owned page.
        page: u64,
    },
    /// A leaf of a [`crate::LeafFormat::Quantised`] tree stores a value
    /// that is not exactly `f32`-representable. Ingest rounds every
    /// parameter (see `pfv::quant`), so an unquantised stored value means
    /// some write path skipped quantisation — and the next leaf encode
    /// would silently perturb it.
    UnquantisedLeafValue {
        /// Page of the offending leaf.
        page: u64,
        /// Object id of the offending entry.
        id: u64,
        /// Dimension of the offending parameter.
        dim: usize,
    },
}

impl std::fmt::Display for InvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantError::UnbalancedLeaf {
                page,
                depth,
                expected,
            } => write!(f, "leaf page {page} at depth {depth}, expected {expected}"),
            InvariantError::FanoutViolation {
                page,
                len,
                min,
                max,
            } => write!(f, "page {page} has {len} entries, allowed [{min}, {max}]"),
            InvariantError::ChildNotContained { parent, child } => {
                write!(f, "child {child} not contained in parent {parent}")
            }
            InvariantError::RectNotTight { parent, child } => {
                write!(f, "rect for child {child} in parent {parent} not tight")
            }
            InvariantError::CountMismatch {
                parent,
                child,
                recorded,
                actual,
            } => write!(
                f,
                "count for child {child} in parent {parent}: recorded {recorded}, actual {actual}"
            ),
            InvariantError::LenMismatch { meta, actual } => {
                write!(f, "metadata says {meta} entries, tree holds {actual}")
            }
            InvariantError::PageLeak {
                allocated,
                reachable,
                freed,
                meta,
            } => write!(
                f,
                "page leak: {allocated} allocated, {reachable} reachable + {meta} meta + {freed} freed"
            ),
            InvariantError::FreedPageReachable { page } => {
                write!(f, "dead page {page} is reachable from the root")
            }
            InvariantError::UnquantisedLeafValue { page, id, dim } => {
                write!(
                    f,
                    "leaf page {page}, entry {id}, dimension {dim}: stored value is not f32-exact in a quantised tree"
                )
            }
        }
    }
}

impl std::error::Error for InvariantError {}

impl<S: PageStore> GaussTree<S> {
    /// Verifies all structural invariants; returns every violation found.
    ///
    /// An empty vector means the tree is structurally sound. `strict_fanout`
    /// additionally enforces the minimum fill of non-root nodes, which
    /// packed bulk-loaded trees meet for every capacity ≥ 2.
    ///
    /// # Errors
    /// Storage/codec errors while traversing.
    pub fn check_invariants(&self, strict_fanout: bool) -> Result<Vec<InvariantError>, TreeError> {
        let (mut errors, reachable) = self.tree_plane().check_structure(strict_fanout)?;
        self.check_page_accounting(&reachable, &mut errors);
        Ok(errors)
    }

    /// Allocation-leak assertion: every page of the store is a meta slot,
    /// reachable from the root, or dead — nothing more, nothing less. Bulk
    /// loading and in-memory insertion leave no dead page; a store that
    /// grew after its commit (pages appended to a written file) has some. A
    /// violation means some code path dropped or double-owned a page.
    fn check_page_accounting(&self, reachable: &[u64], errors: &mut Vec<InvariantError>) {
        let reachable_set: std::collections::HashSet<u64> = reachable.iter().copied().collect();
        let freed = self.dead_pages();
        for p in freed {
            if reachable_set.contains(&p.index()) {
                errors.push(InvariantError::FreedPageReachable { page: p.index() });
            }
        }
        let meta = crate::tree::META_PAGES;
        let allocated = self.pool().num_pages();
        let accounted = meta + reachable_set.len() as u64 + freed.len() as u64;
        if accounted != allocated {
            errors.push(InvariantError::PageLeak {
                allocated,
                reachable: reachable_set.len() as u64,
                freed: freed.len() as u64,
                meta,
            });
        }
    }
}

impl<S: PageStore> Plane<'_, S> {
    /// Structural half of the invariant check: balance, fanout bounds,
    /// rectangle containment/tightness and count consistency — everything
    /// that can be verified from the root. Returns the violations plus every page reachable from the root (for
    /// [`GaussTree::check_invariants`]' page accounting).
    pub(crate) fn check_structure(
        &self,
        strict_fanout: bool,
    ) -> Result<(Vec<InvariantError>, Vec<u64>), TreeError> {
        let mut errors = Vec::new();
        let mut reachable: Vec<u64> = Vec::new();
        if self.is_empty() {
            // The empty tree still owns its root leaf — which must decode
            // and actually be empty, so a clobbered root page cannot hide
            // behind `len == 0`.
            reachable.push(self.root_page().index());
            let root = self.read_node(self.root_page())?;
            if !root.is_empty() {
                errors.push(InvariantError::LenMismatch {
                    meta: 0,
                    actual: root.subtree_count(),
                });
            }
        } else {
            let root = self.root_page();
            let height = self.height();
            let total = self
                .check_node(
                    root,
                    0,
                    height,
                    true,
                    strict_fanout,
                    &mut errors,
                    &mut reachable,
                )?
                .0;
            if total != self.len() {
                errors.push(InvariantError::LenMismatch {
                    meta: self.len(),
                    actual: total,
                });
            }
        }
        Ok((errors, reachable))
    }

    /// Returns `(subtree count, subtree rect)`, the rect being the exact
    /// union of every pfv below `page`.
    #[expect(clippy::too_many_arguments, reason = "the recursion's state")]
    fn check_node(
        &self,
        page: PageId,
        depth: u32,
        height: u32,
        is_root: bool,
        strict_fanout: bool,
        errors: &mut Vec<InvariantError>,
        reachable: &mut Vec<u64>,
    ) -> Result<(u64, ParamRect), TreeError> {
        reachable.push(page.index());
        let node = self.read_node(page)?;
        match node {
            Node::Leaf(es) => {
                if depth != height {
                    errors.push(InvariantError::UnbalancedLeaf {
                        page: page.index(),
                        depth,
                        expected: height,
                    });
                }
                let max = self.leaf_capacity();
                let min = if is_root {
                    1
                } else if strict_fanout {
                    max / 2
                } else {
                    1
                };
                if es.len() < min || es.len() > max {
                    errors.push(InvariantError::FanoutViolation {
                        page: page.index(),
                        len: es.len(),
                        min,
                        max,
                    });
                }
                if es.is_empty() {
                    return Err(TreeError::Corrupt("empty leaf in non-empty tree"));
                }
                if self.config.leaf_format == crate::config::LeafFormat::Quantised {
                    // Quantise-stability: every stored parameter must be the
                    // widened value of an f32 (f32 -> f64 is lossless), or
                    // the next encode of this leaf would change the data.
                    for e in &es {
                        let values = e.pfv.means().iter().chain(e.pfv.sigmas());
                        for (dim, &v) in values.enumerate() {
                            if !pfv::quant::is_f32_exact(v) {
                                errors.push(InvariantError::UnquantisedLeafValue {
                                    page: page.index(),
                                    id: e.id,
                                    dim: dim % e.pfv.dims(),
                                });
                            }
                        }
                    }
                }
                let rect = ParamRect::covering(es.iter().map(|e| &e.pfv));
                Ok((es.len() as u64, rect))
            }
            Node::Inner(es) => {
                let max = self.inner_capacity();
                let min = if is_root {
                    2
                } else if strict_fanout {
                    max / 2
                } else {
                    1
                };
                if es.len() < min || es.len() > max {
                    errors.push(InvariantError::FanoutViolation {
                        page: page.index(),
                        len: es.len(),
                        min,
                        max,
                    });
                }
                let mut total = 0u64;
                let mut rect: Option<ParamRect> = None;
                for e in &es {
                    let (count, child_rect) = self.check_node(
                        e.child,
                        depth + 1,
                        height,
                        false,
                        strict_fanout,
                        errors,
                        reachable,
                    )?;
                    if count != e.count {
                        errors.push(InvariantError::CountMismatch {
                            parent: page.index(),
                            child: e.child.index(),
                            recorded: e.count,
                            actual: count,
                        });
                    }
                    if !e.rect.contains_rect(&child_rect) {
                        errors.push(InvariantError::ChildNotContained {
                            parent: page.index(),
                            child: e.child.index(),
                        });
                    } else if e.rect.as_slice().iter().copied().ne(child_rect
                        .as_slice()
                        .iter()
                        .map(pfv::quant::rounded_outward))
                    {
                        // contained but larger than the stored form of the
                        // exact union => not tight
                        errors.push(InvariantError::RectNotTight {
                            parent: page.index(),
                            child: e.child.index(),
                        });
                    }
                    total += count;
                    match &mut rect {
                        None => rect = Some(child_rect),
                        Some(r) => r.extend_rect(&child_rect),
                    }
                }
                Ok((total, rect.ok_or(TreeError::Corrupt("empty inner node"))?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use gauss_storage::{AccessStats, MemStore, SharedBufferPool};
    use pfv::Pfv;

    fn pfv2(a: f64, b: f64, s: f64) -> Pfv {
        Pfv::new(vec![a, b], vec![s, s * 2.0]).unwrap()
    }

    #[test]
    fn fresh_tree_is_sound() {
        let config = TreeConfig::new(2).with_capacities(4, 4);
        let pool = SharedBufferPool::new(MemStore::new(8192), 256, AccessStats::new_shared());
        let tree = GaussTree::create(pool, config).unwrap();
        assert!(tree.check_invariants(true).unwrap().is_empty());
    }

    #[test]
    fn incrementally_built_tree_is_sound() {
        let config = TreeConfig::new(2).with_capacities(6, 4);
        let pool = SharedBufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, config).unwrap();
        for i in 0..500u64 {
            let x = (i as f64 * 0.37).sin() * 20.0;
            let y = (i as f64 * 0.11).cos() * 20.0;
            tree.insert(i, &pfv2(x, y, 0.05 + (i % 9) as f64 * 0.1))
                .unwrap();
            if i % 97 == 0 {
                let errs = tree.check_invariants(true).unwrap();
                assert!(errs.is_empty(), "violations after {i} inserts: {errs:?}");
            }
        }
        let errs = tree.check_invariants(true).unwrap();
        assert!(errs.is_empty(), "violations: {errs:?}");
    }

    #[test]
    fn bulk_loaded_tree_is_sound() {
        let items: Vec<(u64, Pfv)> = (0..1000u64)
            .map(|i| {
                let x = (i as f64 * 0.61).sin() * 30.0;
                (i, pfv2(x, -x * 0.5, 0.1 + (i % 5) as f64 * 0.07))
            })
            .collect();
        let config = TreeConfig::new(2).with_capacities(8, 6);
        let pool = SharedBufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
        let tree = GaussTree::bulk_load(pool, config, items).unwrap();
        let errs = tree.check_invariants(true).unwrap();
        assert!(errs.is_empty(), "violations: {errs:?}");
    }

    #[test]
    fn page_leak_is_detected() {
        // Build a sound tree, then allocate a page nobody references: the
        // accounting check must flag exactly one leak.
        let config = TreeConfig::new(2).with_capacities(6, 4);
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, config).unwrap();
        for i in 0..80u64 {
            tree.insert(i, &pfv2(i as f64, -(i as f64), 0.1)).unwrap();
        }
        assert!(tree.check_invariants(true).unwrap().is_empty());
        let _orphan = tree.pool().allocate().unwrap();
        let errs = tree.check_invariants(true).unwrap();
        assert!(
            errs.iter()
                .any(|e| matches!(e, InvariantError::PageLeak { .. })),
            "expected a PageLeak violation, got {errs:?}"
        );
    }

    #[test]
    fn default_page_capacities_stay_sound() {
        // Same but with realistic page-derived capacities and 27 dims.
        let config = TreeConfig::new(5);
        let pool = SharedBufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, config).unwrap();
        for i in 0..2000u64 {
            let means: Vec<f64> = (0..5)
                .map(|d| ((i + d) as f64 * 0.31).sin() * 10.0)
                .collect();
            let sigmas: Vec<f64> = (0..5)
                .map(|d| 0.05 + ((i * 3 + d) % 7) as f64 * 0.05)
                .collect();
            tree.insert(i, &Pfv::new(means, sigmas).unwrap()).unwrap();
        }
        let errs = tree.check_invariants(true).unwrap();
        assert!(errs.is_empty(), "violations: {errs:?}");
    }
}
