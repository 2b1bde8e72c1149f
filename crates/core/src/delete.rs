//! Deletion (extension — the paper does not describe one).
//!
//! Standard R-tree deletion adapted to the parameter space: descend into
//! every subtree whose rectangle contains the deleted pfv's parameters,
//! remove the entry from its leaf, and handle underflow by dissolving the
//! underfull node and re-inserting its orphaned entries (Guttman's
//! `CondenseTree`). The root collapses when it has a single child.

use crate::node::{LeafEntry, Node};
use crate::tree::{GaussTree, TreeError};
use gauss_storage::store::PageStore;
use gauss_storage::PageId;
use pfv::Pfv;

/// Result of a delete call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The entry was found and removed.
    Deleted,
    /// No entry with this id and parameter vector exists.
    NotFound,
}

enum Removal {
    NotFound,
    /// Entry removed; node rewritten (possibly relocated by shadow
    /// paging — `page` is where it lives now).
    Done {
        underflow: bool,
        page: PageId,
    },
}

impl<S: PageStore> GaussTree<S> {
    /// Removes the entry with external id `id` and parameters `v`.
    ///
    /// Both the id and the pfv are required, like in classic R-tree
    /// deletion: the pfv guides the descent (only subtrees whose rectangle
    /// contains the parameters can hold the entry), the id disambiguates.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    pub fn delete(&mut self, id: u64, v: &Pfv) -> Result<DeleteOutcome, TreeError> {
        if v.dims() != self.dims() {
            return Err(TreeError::DimMismatch {
                expected: self.dims(),
                got: v.dims(),
            });
        }
        if self.is_empty() {
            return Ok(DeleteOutcome::NotFound);
        }
        let mut orphans: Vec<LeafEntry> = Vec::new();
        let root = self.root_page();
        let height = self.height();
        match self.delete_rec(root, height, id, v, &mut orphans)? {
            Removal::NotFound => return Ok(DeleteOutcome::NotFound),
            // Shadow paging may have relocated the root.
            Removal::Done { page, .. } => self.set_root(page, height),
        }
        self.set_len(self.len() - 1);

        // Root adjustments: collapse an inner root with a single child
        // (the abandoned root page goes back to the free list); a root
        // whose last child was dissolved becomes an empty leaf, which the
        // orphans below then refill.
        loop {
            let root = self.root_page();
            match self.read_node(root)? {
                Node::Inner(es) if es.len() == 1 => {
                    let only = es[0].child;
                    self.set_root(only, self.height() - 1);
                    self.free_page(root)?;
                }
                Node::Inner(es) if es.is_empty() => {
                    let page = self.write_node_shadow(root, &Node::Leaf(Vec::new()))?;
                    self.set_root(page, 0);
                    break;
                }
                _ => break,
            }
        }

        // Re-insert orphans from dissolved nodes.
        let mut reinserted = 0u64;
        for e in orphans {
            self.insert(e.id, &e.pfv)?;
            reinserted += 1;
        }
        // insert() bumped len for each orphan; undo the double count.
        self.set_len(self.len() - reinserted);
        Ok(DeleteOutcome::Deleted)
    }

    fn delete_rec(
        &mut self,
        page: PageId,
        level: u32,
        id: u64,
        v: &Pfv,
        orphans: &mut Vec<LeafEntry>,
    ) -> Result<Removal, TreeError> {
        let node = self.read_node(page)?;
        if level == 0 {
            let Node::Leaf(mut entries) = node else {
                return Err(TreeError::Corrupt("expected leaf at level 0"));
            };
            let Some(pos) = entries.iter().position(|e| e.id == id && &e.pfv == v) else {
                return Ok(Removal::NotFound);
            };
            entries.remove(pos);
            let underflow = entries.len() < self.leaf_min_fill();
            let page = self.write_node_shadow(page, &Node::Leaf(entries))?;
            Ok(Removal::Done { underflow, page })
        } else {
            let Node::Inner(mut entries) = node else {
                return Err(TreeError::Corrupt("expected inner node above level 0"));
            };
            // Try every child whose rectangle contains the parameters.
            let candidates: Vec<usize> = (0..entries.len())
                .filter(|&i| entries[i].rect.contains_pfv(v))
                .collect();
            for idx in candidates {
                let child = entries[idx].child;
                match self.delete_rec(child, level - 1, id, v, orphans)? {
                    Removal::NotFound => continue,
                    Removal::Done {
                        underflow,
                        page: child_page,
                    } => {
                        if underflow {
                            // Dissolve the child: collect every entry below
                            // it for re-insertion, free the branch's pages
                            // and drop it from the parent — even its only
                            // child, in which case this node empties and
                            // underflows in turn.
                            self.collect_subtree(child_page, level - 1, orphans)?;
                            entries.remove(idx);
                        } else {
                            // Refresh rect and count from the child (never
                            // empty: an empty node always underflows).
                            let child_node = self.read_node(child_page)?;
                            entries[idx].child = child_page;
                            entries[idx].rect = child_node.bounding_rect();
                            entries[idx].count = child_node.subtree_count();
                        }
                        let underflow = entries.len() < self.inner_min_fill();
                        let page = self.write_node_shadow(page, &Node::Inner(entries))?;
                        return Ok(Removal::Done { underflow, page });
                    }
                }
            }
            Ok(Removal::NotFound)
        }
    }

    /// Gathers every leaf entry below `page` into `out` (for orphan
    /// re-insertion after a node is dissolved) and frees the dissolved
    /// pages so later allocations reuse them instead of leaking them.
    fn collect_subtree(
        &mut self,
        page: PageId,
        level: u32,
        out: &mut Vec<LeafEntry>,
    ) -> Result<(), TreeError> {
        match self.read_node(page)? {
            Node::Leaf(es) => out.extend(es),
            Node::Inner(es) => {
                if level == 0 {
                    return Err(TreeError::Corrupt("inner node at leaf level"));
                }
                for e in es {
                    self.collect_subtree(e.child, level - 1, out)?;
                }
            }
        }
        self.free_page(page)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::view::ReadView;
    use gauss_storage::{AccessStats, BufferPool, MemStore};
    use pfv::CombineMode;

    fn pfv2(a: f64, b: f64) -> Pfv {
        Pfv::new(vec![a, b], vec![0.1 + (a.abs() % 0.5), 0.2]).unwrap()
    }

    fn build(n: u64) -> (GaussTree<MemStore>, Vec<(u64, Pfv)>) {
        let items: Vec<(u64, Pfv)> = (0..n)
            .map(|i| {
                (
                    i,
                    pfv2(
                        (i as f64 * 0.61).sin() * 20.0,
                        (i as f64 * 0.23).cos() * 20.0,
                    ),
                )
            })
            .collect();
        let pool = BufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, TreeConfig::new(2).with_capacities(6, 4)).unwrap();
        for (id, v) in &items {
            tree.insert(*id, v).unwrap();
        }
        (tree, items)
    }

    #[test]
    fn delete_removes_exactly_one_entry() {
        let (mut tree, items) = build(50);
        assert_eq!(tree.delete(7, &items[7].1).unwrap(), DeleteOutcome::Deleted);
        assert_eq!(tree.len(), 49);
        let mut ids = Vec::new();
        tree.for_each_entry(|id, _| ids.push(id)).unwrap();
        ids.sort_unstable();
        assert!(!ids.contains(&7));
        assert_eq!(ids.len(), 49);
    }

    #[test]
    fn delete_missing_returns_not_found() {
        let (mut tree, items) = build(20);
        // Right pfv, wrong id.
        assert_eq!(
            tree.delete(999, &items[3].1).unwrap(),
            DeleteOutcome::NotFound
        );
        // Right id, wrong pfv.
        let other = pfv2(123.0, -55.0);
        assert_eq!(tree.delete(3, &other).unwrap(), DeleteOutcome::NotFound);
        assert_eq!(tree.len(), 20);
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let (mut tree, items) = build(60);
        for (id, v) in &items {
            assert_eq!(tree.delete(*id, v).unwrap(), DeleteOutcome::Deleted);
        }
        assert!(tree.is_empty());
        let mut n = 0;
        tree.for_each_entry(|_, _| n += 1).unwrap();
        assert_eq!(n, 0);
        // The tree must be fully usable again.
        for (id, v) in &items {
            tree.insert(*id, v).unwrap();
        }
        assert_eq!(tree.len(), 60);
        let errs = tree.check_invariants(false).unwrap();
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn invariants_hold_under_interleaved_insert_delete() {
        let (mut tree, items) = build(120);
        // Delete every third entry.
        for (id, v) in items.iter().filter(|(id, _)| id % 3 == 0) {
            tree.delete(*id, v).unwrap();
        }
        let errs = tree.check_invariants(false).unwrap();
        assert!(errs.is_empty(), "violations after deletes: {errs:?}");

        // Queries agree with a brute-force over the survivors.
        let survivors: Vec<Pfv> = items
            .iter()
            .filter(|(id, _)| id % 3 != 0)
            .map(|(_, v)| v.clone())
            .collect();
        let q = Pfv::new(vec![5.0, -3.0], vec![0.3, 0.3]).unwrap();
        let got = tree.k_mliq(&q, 5).unwrap();
        let mut want: Vec<f64> = survivors
            .iter()
            .map(|v| pfv::combine::log_joint(CombineMode::Convolution, v, &q))
            .collect();
        want.sort_by(|a, b| b.total_cmp(a));
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.log_density - w).abs() < 1e-9);
        }
    }

    #[test]
    fn duplicate_parameter_vectors_disambiguated_by_id() {
        let pool = BufferPool::new(MemStore::new(8192), 256, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, TreeConfig::new(2).with_capacities(4, 3)).unwrap();
        let v = pfv2(1.0, 2.0);
        for id in 0..10u64 {
            tree.insert(id, &v).unwrap();
        }
        assert_eq!(tree.delete(4, &v).unwrap(), DeleteOutcome::Deleted);
        let mut ids = Vec::new();
        tree.for_each_entry(|id, _| ids.push(id)).unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 5, 6, 7, 8, 9]);
    }

    /// An underflowing child under a single-child parent (legal when the
    /// inner capacity is ≤ 3, where the minimum inner fill is 1) must be
    /// condensed like any other, not left underfull.
    #[test]
    fn underflow_under_single_child_parent_is_condensed() {
        let item = |i: u64| {
            (
                i,
                pfv2(
                    (i as f64 * 0.61).sin() * 20.0,
                    (i as f64 * 0.23).cos() * 20.0,
                ),
            )
        };
        let assert_sound = |tree: &GaussTree<MemStore>, phase: &str| {
            let errs = tree.check_invariants(true).unwrap();
            assert!(errs.is_empty(), "{phase}: {errs:?}");
        };
        for inner in [2usize, 3, 4] {
            let config = TreeConfig::new(2).with_capacities(4, inner);
            let pool = BufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
            let mut tree = GaussTree::bulk_load(pool, config, (0..300).map(item)).unwrap();
            assert_sound(&tree, "bulk load");
            for (id, v) in (300..360).map(item) {
                tree.insert(id, &v).unwrap();
            }
            assert_sound(&tree, "insert");
            tree.extend((360..460).map(item)).unwrap();
            assert_sound(&tree, "extend");
            for (id, v) in (0..300).step_by(2).map(item) {
                assert_eq!(tree.delete(id, &v).unwrap(), DeleteOutcome::Deleted);
            }
            assert_sound(&tree, "delete");
            assert_eq!(tree.len(), 460 - 150);

            let survivors: Vec<Pfv> = (0..460)
                .filter(|i| i >= &300 || i % 2 == 1)
                .map(|i| item(i).1)
                .collect();
            let q = Pfv::new(vec![5.0, -3.0], vec![0.3, 0.3]).unwrap();
            let got = tree.k_mliq(&q, 5).unwrap();
            let mut want: Vec<f64> = survivors
                .iter()
                .map(|v| pfv::combine::log_joint(CombineMode::Convolution, v, &q))
                .collect();
            want.sort_by(|a, b| b.total_cmp(a));
            assert_eq!(got.len(), 5);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.log_density, *w, "inner capacity {inner}");
            }
        }
    }

    #[test]
    fn root_collapses_after_mass_deletion() {
        let (mut tree, items) = build(200);
        let initial_height = tree.height();
        assert!(initial_height >= 2);
        for (id, v) in items.iter().take(195) {
            tree.delete(*id, v).unwrap();
        }
        assert_eq!(tree.len(), 5);
        assert!(
            tree.height() < initial_height,
            "height should shrink: {} -> {}",
            initial_height,
            tree.height()
        );
        let errs = tree.check_invariants(false).unwrap();
        assert!(errs.is_empty(), "{errs:?}");
    }
}
