//! Incremental ranking cursor (extension).
//!
//! `k_mliq` answers a fixed-k query; many applications instead consume
//! matches lazily until some application-defined condition holds ("until a
//! human operator confirms", "until cumulative probability exceeds 99 %").
//! [`RankingCursor`] wraps the same Hjaltason–Samet best-first traversal and
//! yields objects one at a time in non-increasing density order, reading
//! only the pages needed so far. Expanded leaves are evaluated through the
//! batched columnar kernel ([`pfv::batch::log_densities`]), so the cursor's
//! per-hit densities are bit-identical to the scalar per-entry path.
//!
//! The frontier spans the whole view (`ViewPlane`): memtable entries
//! enter as ready objects, every component contributes its root, and node
//! bounds carry their component index so expansion reads the right tree
//! and skips the ids shadowed in it. A single tree is the view with one
//! component and nothing else, so there is one constructor and one loop.
//! Emission follows a strict total order on exact densities (the `Ord` of
//! the shared queue entry, `query::Pending`), so the ranking is that of one
//! tree holding the same live set, whatever the component boundaries.
//!
//! Inner children enter the frontier under the screen's bracket and are
//! priced exactly only when that could change which node is expanded next
//! — the k-MLIQ descent's rule with no candidate floor (see "Why lazy
//! pricing opens the same pages" in [`crate::query`]) — so the cursor
//! reads the pages an eagerly priced frontier would.

use crate::node::CachedNode;
use crate::query::{leaf_objects, Frontier, LeafScratch, MliqResult, NO_FLOOR};
use crate::tree::TreeError;
use crate::view::ViewPlane;
use gauss_storage::store::PageStore;
use pfv::Pfv;

/// Lazy best-first ranking over one view state.
///
/// Created by [`ReadView::ranking_cursor`] — on a
/// [`GaussTree`](crate::tree::GaussTree) or a
/// [`ForestSnapshot`](crate::ForestSnapshot) (committed forest manifest);
/// call [`RankingCursor::next_hit`] repeatedly. Holds the query and
/// frontier; borrows the view *shared*, so several cursors (even on
/// different threads) can rank over one tree at once.
///
/// [`ReadView::ranking_cursor`]: crate::view::ReadView::ranking_cursor
pub struct RankingCursor<'t, S: PageStore> {
    view: ViewPlane<'t, S>,
    query: Pfv,
    frontier: Frontier,
    emitted: u64,
    /// Scratch buffers for the leaf kernel, reused across leaves.
    scratch: LeafScratch,
}

impl<S: PageStore> std::fmt::Debug for RankingCursor<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankingCursor")
            .field("emitted", &self.emitted)
            .field("frontier", &self.frontier.len())
            .finish_non_exhaustive()
    }
}

impl<'t, S: PageStore> RankingCursor<'t, S> {
    /// Number of objects emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Returns the next-most-likely object, or `None` when the database is
    /// exhausted.
    ///
    /// # Errors
    /// Storage / codec errors while expanding nodes.
    pub fn next_hit(&mut self) -> Result<Option<MliqResult>, TreeError> {
        let mode = self.view.config().combine;
        // The cursor must be able to emit every entry: no floor anywhere.
        while let Some(top) = self.frontier.next(&self.query, mode, NO_FLOOR) {
            if let Some(c) = top.object() {
                self.emitted += 1;
                return Ok(Some(MliqResult {
                    id: c.id,
                    log_density: c.log_density,
                }));
            }
            let (plane, hidden) = self.view.comp(self.frontier.comp(&top));
            let node = plane.read_node_cached(top.page())?;
            match &*node {
                CachedNode::Leaf(leaf) => {
                    let frontier = &mut self.frontier;
                    leaf_objects(
                        leaf,
                        hidden,
                        mode,
                        &self.query,
                        NO_FLOOR,
                        &mut self.scratch,
                        |c| frontier.push_object(c),
                    );
                }
                CachedNode::Inner(inner) => {
                    self.frontier
                        .push_children(&top, &node, inner, &self.query, mode, NO_FLOOR)?;
                }
            }
        }
        Ok(None)
    }

    /// Drains hits until the closure returns `false` (inclusive of the last
    /// inspected hit).
    ///
    /// # Errors
    /// Storage / codec errors.
    pub fn take_while(
        &mut self,
        mut keep_going: impl FnMut(&MliqResult) -> bool,
    ) -> Result<Vec<MliqResult>, TreeError> {
        let mut out = Vec::new();
        while let Some(hit) = self.next_hit()? {
            let more = keep_going(&hit);
            out.push(hit);
            if !more {
                break;
            }
        }
        Ok(out)
    }
}

impl<'t, S: PageStore> ViewPlane<'t, S> {
    /// Starts a lazy best-first ranking for `q` — the constructor behind
    /// [`crate::view::ReadView::ranking_cursor`].
    pub(crate) fn ranking_cursor(self, q: &Pfv) -> Result<RankingCursor<'t, S>, TreeError> {
        self.check_dims(q.dims())?;
        let mut frontier = Frontier::default();
        for c in self.mem_objects(q) {
            frontier.push_object(c);
        }
        for comp in 0..self.comp_count() {
            let (plane, _) = self.comp(comp);
            if !plane.is_empty() {
                frontier.push_root(plane.root_page(), comp)?;
            }
        }
        Ok(RankingCursor {
            view: self,
            query: q.clone(),
            frontier,
            emitted: 0,
            scratch: LeafScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::tree::GaussTree;
    use crate::view::ReadView;
    use gauss_storage::{AccessStats, MemStore, SharedBufferPool};
    use pfv::{combine, CombineMode};

    fn build(n: u64) -> (GaussTree<MemStore>, Vec<Pfv>) {
        let pool = SharedBufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, TreeConfig::new(2).with_capacities(5, 4)).unwrap();
        let mut db = Vec::new();
        for i in 0..n {
            let v = Pfv::new(
                vec![
                    (i as f64 * 0.71).sin() * 10.0,
                    (i as f64 * 0.37).cos() * 10.0,
                ],
                vec![0.1 + (i % 4) as f64 * 0.2, 0.15],
            )
            .unwrap();
            tree.insert(i, &v).unwrap();
            db.push(v);
        }
        (tree, db)
    }

    #[test]
    fn cursor_yields_full_ranking_in_order() {
        let (tree, db) = build(120);
        let q = Pfv::new(vec![2.0, -1.0], vec![0.3, 0.3]).unwrap();
        let mut cursor = tree.ranking_cursor(&q).unwrap();
        let mut got = Vec::new();
        while let Some(hit) = cursor.next_hit().unwrap() {
            got.push(hit);
        }
        assert_eq!(got.len(), 120);
        // Non-increasing densities.
        for w in got.windows(2) {
            assert!(w[0].log_density >= w[1].log_density - 1e-12);
        }
        // Matches brute force exactly.
        let mut want: Vec<f64> = db
            .iter()
            .map(|v| combine::log_joint(CombineMode::Convolution, v, &q))
            .collect();
        want.sort_by(|a, b| b.total_cmp(a));
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.log_density - w).abs() < 1e-9);
        }
    }

    #[test]
    fn cursor_prefix_equals_k_mliq() {
        let (tree, _) = build(200);
        let q = Pfv::new(vec![0.0, 5.0], vec![0.2, 0.4]).unwrap();
        let fixed = tree.k_mliq(&q, 7).unwrap();
        let mut cursor = tree.ranking_cursor(&q).unwrap();
        for want in &fixed {
            let got = cursor.next_hit().unwrap().unwrap();
            assert!((got.log_density - want.log_density).abs() < 1e-12);
        }
        assert_eq!(cursor.emitted(), 7);
    }

    #[test]
    fn lazy_cursor_reads_fewer_pages_than_full_ranking() {
        let (tree, _) = build(2000);
        let q = Pfv::new(vec![2.0, -1.0], vec![0.05, 0.05]).unwrap();
        tree.cold_start();
        {
            let mut cursor = tree.ranking_cursor(&q).unwrap();
            let _ = cursor.next_hit().unwrap().unwrap();
        }
        let lazy = tree.stats().snapshot().physical_reads;
        let total = tree.pool().num_pages();
        assert!(
            lazy * 3 < total,
            "first hit read {lazy} of {total} pages — not lazy"
        );
    }

    #[test]
    fn the_first_k_hits_read_the_pages_k_mliq_reads() {
        // Both open exactly the nodes whose exact bound reaches the k-th
        // density (module docs of `query`): a cursor that expanded on its
        // screen keys alone, or past the k-th hit, would read more.
        let (tree, db) = build(1500);
        let reads = || tree.stats().snapshot();
        for (i, v) in db.iter().enumerate().step_by(97) {
            for sigma in [0.05, 0.6] {
                let q = Pfv::new(v.means().to_vec(), vec![sigma, sigma]).unwrap();
                for k in [1usize, 4, 30] {
                    let before = reads();
                    let fixed = tree.k_mliq(&q, k).unwrap();
                    let between = reads();
                    let mut cursor = tree.ranking_cursor(&q).unwrap();
                    let hits: Vec<MliqResult> = (0..k)
                        .map(|_| cursor.next_hit().unwrap().unwrap())
                        .collect();
                    let after = reads();
                    assert_eq!(hits, fixed, "q{i} σ={sigma} k={k}");
                    assert_eq!(
                        after.since(&between).logical_reads,
                        between.since(&before).logical_reads,
                        "q{i} σ={sigma} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn take_while_cumulative_probability() {
        let (tree, db) = build(50);
        let q = Pfv::new(db[13].means().to_vec(), vec![0.1, 0.1]).unwrap();
        // First collect the denominator for normalisation.
        let posteriors = pfv::posteriors(CombineMode::Convolution, &db, &q);
        let denom: f64 =
            pfv::log_sum_exp(&posteriors.iter().map(|p| p.log_density).collect::<Vec<_>>());
        let mut cum = 0.0;
        let mut cursor = tree.ranking_cursor(&q).unwrap();
        let hits = cursor
            .take_while(|h| {
                cum += (h.log_density - denom).exp();
                cum < 0.99
            })
            .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.len() < 50, "0.99 mass should need few objects");
        assert_eq!(hits[0].id, 13);
    }

    #[test]
    fn empty_tree_cursor() {
        let pool = SharedBufferPool::new(MemStore::new(8192), 16, AccessStats::new_shared());
        let tree = GaussTree::create(pool, TreeConfig::new(2).with_capacities(4, 3)).unwrap();
        let q = Pfv::new(vec![0.0, 0.0], vec![0.1, 0.1]).unwrap();
        let mut cursor = tree.ranking_cursor(&q).unwrap();
        assert!(cursor.next_hit().unwrap().is_none());
    }
}
