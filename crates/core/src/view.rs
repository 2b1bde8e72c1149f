//! The shared read-plane: one implementation of every read-only
//! operation, consumed through the [`ReadView`] trait by a [`GaussTree`]
//! and by a [`ForestSnapshot`] (one committed forest manifest plus its
//! memtable image).
//!
//! Two layers. `Plane` is one tree: configuration, root, height, length
//! and a way to read node pages — the per-tree primitives (node reads,
//! the k-MLIQ and box descents, traversal, structural checks in
//! `check.rs`). `ViewPlane` is the live set a view answers for: a
//! memtable slice plus component `Plane`s, each with the ids newer data
//! shadows in it. **A single tree is a one-component forest with an empty
//! memtable**, so k-MLIQ, refined k-MLIQ, TIQ, the ranking cursor and the
//! box query are written once against `ViewPlane` (`query.rs`, `cursor.rs`,
//! `interval.rs`), and how memtable entries and shadowed ids enter the
//! candidate set and the Bayes denominator is decided in one place. Every
//! public entry point is a provided method of [`ReadView`]; implementors
//! only supply [`ReadView::plane`].

use crate::config::TreeConfig;
use crate::cursor::RankingCursor;
use crate::executor::BatchExecutor;
use crate::forest::{ForestSnapshot, SnapComponent};
use crate::interval::BoxQueryResult;
use crate::node::{CachedNode, Node};
use crate::query::{MliqResult, RefinedResult, TiqResult};
use crate::tree::{GaussTree, TreeError};
use gauss_storage::store::PageStore;
use gauss_storage::{PageId, SharedBufferPool, SideCache};
use pfv::Pfv;
use std::collections::HashSet;
use std::sync::Arc;

/// A borrowed, read-only view of one tree state (root + height + length +
/// page access) — one component of a [`ViewPlane`].
///
/// Not constructed outside the crate. All fields borrow from the owning
/// [`GaussTree`], so a `Plane` is a cheap `Copy` token.
#[doc(hidden)]
#[derive(Debug)]
pub struct Plane<'a, S: PageStore> {
    pub(crate) pool: &'a SharedBufferPool<S>,
    pub(crate) node_cache: &'a SideCache<CachedNode>,
    pub(crate) config: &'a TreeConfig,
    pub(crate) leaf_cap: usize,
    pub(crate) inner_cap: usize,
    pub(crate) root: PageId,
    pub(crate) height: u32,
    pub(crate) len: u64,
}

// Manual impls: the derives would add an implicit `S: Copy` bound, but a
// `Plane` is all borrows and always copyable regardless of the store.
impl<S: PageStore> Clone for Plane<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S: PageStore> Copy for Plane<'_, S> {}

impl<'a, S: PageStore> Plane<'a, S> {
    pub(crate) fn config(&self) -> &'a TreeConfig {
        self.config
    }

    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn height(&self) -> u32 {
        self.height
    }

    pub(crate) fn root_page(&self) -> PageId {
        self.root
    }

    pub(crate) fn leaf_capacity(&self) -> usize {
        self.leaf_cap
    }

    pub(crate) fn inner_capacity(&self) -> usize {
        self.inner_cap
    }

    /// Reads and decodes the node stored at `page`.
    pub(crate) fn read_node(&self, page: PageId) -> Result<Node, TreeError> {
        let bytes = self.pool.page(page)?;
        Ok(Node::read_from(
            self.config.dims,
            self.config.leaf_format,
            &bytes,
        )?)
    }

    /// Reads the node stored at `page` in query-ready cached form — what
    /// every query (k-MLIQ, the denominator searches, the cursor, the box
    /// query) reads nodes through. The node cache is asked first: a hit
    /// records one logical read on the pool's [`AccessStats`] and touches
    /// nothing else — no pool shard lock, no frame, no physical read when
    /// the pool has evicted the bytes of a node still cached — so logical
    /// reads (pages per query) are those of [`Plane::read_node`]. A miss
    /// reads the page through the pool and decodes its bytes straight into
    /// the cached form ([`CachedNode::read_from`]); the row form
    /// ([`Node::read_from`]) is for callers that edit or walk entries.
    ///
    /// [`AccessStats`]: gauss_storage::AccessStats
    pub(crate) fn read_node_cached(&self, page: PageId) -> Result<Arc<CachedNode>, TreeError> {
        if let Some(cached) = self.node_cache.get(page) {
            self.pool.stats().record_logical_read();
            return Ok(cached);
        }
        let bytes = self.pool.page(page)?;
        let cached = Arc::new(CachedNode::read_from(
            self.config.dims,
            self.config.leaf_format,
            &bytes,
        )?);
        self.node_cache.insert(page, Arc::clone(&cached));
        Ok(cached)
    }

    /// Visits every stored `(id, pfv)` pair (in tree order).
    pub(crate) fn for_each_entry(&self, mut f: impl FnMut(u64, &Pfv)) -> Result<(), TreeError> {
        let mut stack = vec![(self.root, self.height)];
        while let Some((page, level)) = stack.pop() {
            match self.read_node(page)? {
                Node::Leaf(es) => {
                    for e in &es {
                        f(e.id, &e.pfv);
                    }
                }
                Node::Inner(es) => {
                    if level == 0 {
                        return Err(TreeError::Corrupt("inner node at leaf level"));
                    }
                    for e in &es {
                        stack.push((e.child, level - 1));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Where a [`ViewPlane`]'s component trees come from.
enum Comps<'a, S: PageStore> {
    /// One tree with nothing shadowed (`&GaussTree`).
    One(Plane<'a, S>),
    /// A forest snapshot's pinned components, newest first.
    Pinned(&'a [SnapComponent<S>]),
}

/// The read-plane behind every [`ReadView`]: the live set as a memtable
/// image plus component trees, each with the ids newer data shadows in
/// it. A single tree is the one-component case — empty memtable, nothing
/// shadowed — so the query algorithms in `query.rs`, `cursor.rs` and
/// `interval.rs` exist once, written against this type.
#[doc(hidden)]
pub struct ViewPlane<'a, S: PageStore> {
    config: &'a TreeConfig,
    /// Objects visible through this view.
    live: u64,
    /// Memtable entries (ascending id); empty for a single tree.
    mem: &'a [(u64, Pfv)],
    comps: Comps<'a, S>,
}

impl<S: PageStore> Clone for ViewPlane<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S: PageStore> Copy for ViewPlane<'_, S> {}
impl<S: PageStore> Clone for Comps<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S: PageStore> Copy for Comps<'_, S> {}

impl<'a, S: PageStore> ViewPlane<'a, S> {
    /// The view over one tree state: a one-component forest with an
    /// empty memtable.
    pub(crate) fn single(plane: Plane<'a, S>) -> Self {
        Self {
            config: plane.config,
            live: plane.len,
            mem: &[],
            comps: Comps::One(plane),
        }
    }

    pub(crate) fn config(&self) -> &'a TreeConfig {
        self.config
    }

    pub(crate) fn len(&self) -> u64 {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub(crate) fn mem(&self) -> &'a [(u64, Pfv)] {
        self.mem
    }

    pub(crate) fn comp_count(&self) -> usize {
        match self.comps {
            Comps::One(_) => 1,
            Comps::Pinned(cs) => cs.len(),
        }
    }

    /// Component `i` (newest first) and the ids shadowed inside it —
    /// `None` when nothing is, so scans test the option once per node
    /// instead of probing a set per entry.
    pub(crate) fn comp(&self, i: usize) -> (Plane<'a, S>, Option<&'a HashSet<u64>>) {
        match self.comps {
            Comps::One(plane) => (plane, None),
            Comps::Pinned(cs) => {
                let c = &cs[i];
                (
                    c.tree.tree_plane(),
                    (!c.hidden.is_empty()).then_some(&c.hidden),
                )
            }
        }
    }

    pub(crate) fn check_dims(&self, got: usize) -> Result<(), TreeError> {
        if got != self.config.dims {
            return Err(TreeError::DimMismatch {
                expected: self.config.dims,
                got,
            });
        }
        Ok(())
    }

    /// Visits every live entry: memtable first (ascending id), then each
    /// component newest-first in tree order, shadowed ids skipped.
    pub(crate) fn for_each_entry(&self, mut f: impl FnMut(u64, &Pfv)) -> Result<(), TreeError> {
        for (id, v) in self.mem {
            f(*id, v);
        }
        for i in 0..self.comp_count() {
            let (plane, hidden) = self.comp(i);
            plane.for_each_entry(|id, v| {
                if !hidden.is_some_and(|h| h.contains(&id)) {
                    f(id, v);
                }
            })?;
        }
        Ok(())
    }
}

/// Read-only query surface shared by trees and forest snapshots.
///
/// Implemented by [`GaussTree`] and by [`ForestSnapshot`] (queries fan out
/// across the pinned forest manifest and its memtable image). Every method
/// is provided — implementors only supply [`ReadView::plane`].
pub trait ReadView<S: PageStore> {
    /// The raw read-plane this view exposes. Implementation detail —
    /// call the query methods instead.
    #[doc(hidden)]
    fn plane(&self) -> ViewPlane<'_, S>;

    /// k-most-likely identification query (paper §5.2.1, Definition 3).
    ///
    /// Returns up to `k` objects ranked by descending relative probability
    /// `p(q|v)`. Does not compute normalised probabilities — use
    /// [`ReadView::k_mliq_refined`] when you need `P(v|q)`.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    fn k_mliq(&self, q: &Pfv, k: usize) -> Result<Vec<MliqResult>, TreeError> {
        self.plane().k_mliq(q, k)
    }

    /// Probability-refined k-MLIQ (paper §5.2.2).
    ///
    /// Like [`ReadView::k_mliq`] but also determines the identification
    /// probability `P(v|q)` of every answer with guaranteed bounds whose
    /// width is at most `accuracy`.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    ///
    /// # Panics
    /// Panics if `accuracy <= 0`.
    fn k_mliq_refined(
        &self,
        q: &Pfv,
        k: usize,
        accuracy: f64,
    ) -> Result<Vec<RefinedResult>, TreeError> {
        self.plane().k_mliq_refined(q, k, accuracy)
    }

    /// Threshold identification query (paper §5.2.3, Figure 5,
    /// Definition 2): every object with `P(v|q) ≥ p_theta`, with
    /// probability bounds of width at most `accuracy`, and with every
    /// boundary candidate decided exactly.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    ///
    /// # Panics
    /// Panics unless `0 < p_theta <= 1` and `accuracy > 0`.
    fn tiq(&self, q: &Pfv, p_theta: f64, accuracy: f64) -> Result<Vec<TiqResult>, TreeError> {
        self.plane().tiq_impl(q, p_theta, Some(accuracy))
    }

    /// The literal Figure-5 algorithm: stops as soon as no unexplored node
    /// can contain a qualifying object, keeps every candidate whose
    /// probability *could* reach the threshold, and reports the
    /// conservative probability. Cheaper than [`ReadView::tiq`] but
    /// boundary candidates may be reported whose exact probability is
    /// slightly below the threshold.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    ///
    /// # Panics
    /// Panics unless `0 < p_theta <= 1`.
    fn tiq_anytime(&self, q: &Pfv, p_theta: f64) -> Result<Vec<TiqResult>, TreeError> {
        self.plane().tiq_impl(q, p_theta, None)
    }

    /// Starts a lazy best-first ranking for `q` (highest relative
    /// probability first) — see [`RankingCursor`].
    ///
    /// # Errors
    /// Dimensionality mismatch.
    fn ranking_cursor(&self, q: &Pfv) -> Result<RankingCursor<'_, S>, TreeError> {
        self.plane().ranking_cursor(q)
    }

    /// Probabilistic box threshold query (interval uncertainty model of
    /// Cheng et al., see [`crate::interval`]): every object whose true
    /// feature vector lies in `[lo, hi]` with probability at least `tau`,
    /// sorted by descending probability.
    ///
    /// # Errors
    /// Dimensionality mismatch or storage errors.
    ///
    /// # Panics
    /// Panics unless `0 < tau <= 1` and the box is well-formed.
    fn probabilistic_box_query(
        &self,
        lo: &[f64],
        hi: &[f64],
        tau: f64,
    ) -> Result<Vec<BoxQueryResult>, TreeError> {
        self.plane().probabilistic_box_query(lo, hi, tau)
    }

    /// Visits every stored `(id, pfv)` pair (in tree order).
    ///
    /// # Errors
    /// Store / codec errors.
    fn for_each_entry(&self, f: impl FnMut(u64, &Pfv)) -> Result<(), TreeError>
    where
        Self: Sized,
    {
        self.plane().for_each_entry(f)
    }

    /// Fans batches of queries across `threads` worker threads over this
    /// view — shorthand for [`BatchExecutor::new`]`(self, threads)`.
    fn batch(&self, threads: usize) -> BatchExecutor<'_, S, Self>
    where
        Self: Sized + Sync,
        S: Send,
    {
        BatchExecutor::new(self, threads)
    }
}

impl<S: PageStore> ReadView<S> for GaussTree<S> {
    fn plane(&self) -> ViewPlane<'_, S> {
        ViewPlane::single(self.tree_plane())
    }
}

impl<S: PageStore> ReadView<S> for ForestSnapshot<S> {
    fn plane(&self) -> ViewPlane<'_, S> {
        ViewPlane {
            config: &self.config,
            live: self.live,
            mem: &self.mem,
            comps: Comps::Pinned(&self.comps),
        }
    }
}
