//! The Gauss-tree structure: creation, persistence, insertion, bulk loading.
//!
//! Persistence: pages 0–1 of the store are the two slots of
//! [`gauss_storage::commit`], which owns the slot header, the checksum,
//! the choice of the newest valid slot and the barrier → slot write →
//! barrier order. This module owns what a tree commits — the *payload*
//! (configuration, capacities, root / height / length, the store size and
//! the free list with its overflow carrier pages; see
//! [`GaussTree::flush`]) — and what it means to recover from one
//! (bounds-checking every page id against the store, reclaiming orphans).

use crate::bulk::{BulkLoadOptions, BulkLoadReport};
use crate::config::{LeafFormat, TreeConfig};
use crate::node::{CachedNode, InnerEntry, LeafEntry, Node, NodeCodecError};
use crate::split::{group_rect, split_many, SplitCost, Splittable};
use crate::view::{Plane, ReadView};
use gauss_storage::commit::{self, SlotKind, HEADER_BYTES};
use gauss_storage::store::{Durability, PageStore, StoreError};
use gauss_storage::{
    EpochRegistry, PageId, Reader, SharedBufferPool, SideCache, WriteBatch, Writer,
};
use pfv::{quant, Pfv};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// A tree meta slot: magic "GTRE", format version 3 — the only version
/// read or written. Versions 1 (a single unchecksummed meta page) and 2
/// (no leaf-format byte) are refused like any other foreign header.
const META_KIND: SlotKind = SlotKind {
    magic: 0x4754_5245,
    version: 3,
};

/// Pages 0 and 1 hold commit slots 0 and 1; node pages start behind them.
pub(crate) const META_PAGES: u64 = 2;

/// Bytes of a meta slot before the persisted free-list ids: the commit
/// header, the allocated-page count, the configuration tags, the two
/// capacities, root / height / length, the in-meta id count (u32) and the
/// overflow chain pointer (u64).
const META_BASE_BYTES: usize = HEADER_BYTES + 8 + TreeConfig::TAG_BYTES + 4 + 4 + 8 + 4 + 8 + 4 + 8;

/// Bytes of a free-list overflow carrier page consumed by its header
/// (next-pointer u64 + id count u32).
const FREE_CHAIN_HEADER_BYTES: usize = 8 + 4;

/// Errors surfaced by the Gauss-tree.
#[derive(Debug)]
pub enum TreeError {
    /// Underlying page store failed.
    Store(StoreError),
    /// A page did not decode to a valid node.
    Codec(NodeCodecError),
    /// A pfv with the wrong dimensionality was supplied.
    DimMismatch {
        /// Tree dimensionality.
        expected: usize,
        /// Dimensionality of the offending vector.
        got: usize,
    },
    /// The store does not contain a Gauss-tree (bad magic / version).
    NotAGaussTree,
    /// Structural corruption detected while traversing.
    Corrupt(&'static str),
    /// A page was returned to the free list twice. Surfaced as a hard
    /// error (not just a debug assertion) because a double-freed page
    /// would later be handed out to two nodes at once — exactly the
    /// free-list corruption crash recovery has to be able to rule out.
    DoubleFree {
        /// The doubly freed page id.
        page: u64,
    },
    /// A parameter of an ingested pfv cannot be quantised to `f32` — it
    /// overflows the `f32` range or is non-finite. Raised only by trees
    /// built with [`crate::LeafFormat::Quantised`]; the exact format
    /// stores any finite `f64`.
    QuantisationRange {
        /// Dimension of the offending parameter.
        dim: usize,
        /// The unquantisable value.
        value: f64,
    },
    /// No committed epoch is available to pin as a [`Snapshot`]:
    /// uncommitted in-place writes have diverged the store from the last
    /// commit (call [`GaussTree::flush`] first).
    SnapshotUnavailable(&'static str),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Store(e) => write!(f, "store error: {e}"),
            TreeError::Codec(e) => write!(f, "codec error: {e}"),
            TreeError::DimMismatch { expected, got } => {
                write!(
                    f,
                    "dimensionality mismatch: tree has {expected}, vector has {got}"
                )
            }
            TreeError::NotAGaussTree => write!(f, "store does not contain a Gauss-tree"),
            TreeError::Corrupt(what) => write!(f, "corrupt tree: {what}"),
            TreeError::DoubleFree { page } => write!(f, "page {page} freed twice"),
            TreeError::QuantisationRange { dim, value } => {
                write!(
                    f,
                    "value {value:e} in dimension {dim} does not fit the quantised leaf format"
                )
            }
            TreeError::SnapshotUnavailable(why) => {
                write!(f, "no committed epoch to snapshot: {why}")
            }
        }
    }
}

impl std::error::Error for TreeError {}

impl From<StoreError> for TreeError {
    fn from(e: StoreError) -> Self {
        TreeError::Store(e)
    }
}

impl From<NodeCodecError> for TreeError {
    fn from(e: NodeCodecError) -> Self {
        TreeError::Codec(e)
    }
}

/// The Gauss-tree (Definition 4 of the paper) — the *writer handle* of
/// the index.
///
/// Nodes live behind a [`SharedBufferPool`], so every read-only operation
/// (`k_mliq*`, `tiq*`, `for_each_entry`, `check_invariants`, cursors —
/// all provided by the [`ReadView`] trait) takes `&self` and many threads
/// may query one tree concurrently (see [`crate::executor`]). Mutation
/// (`insert`, `delete`, `bulk_load`, `flush`) keeps `&mut self`.
/// Constructors accept anything convertible into a [`SharedBufferPool`] —
/// in particular a plain [`gauss_storage::BufferPool`].
///
/// [`GaussTree::snapshot`] additionally pins the last *committed* epoch
/// as an owning [`Snapshot`] view: queries on it run lock-free against
/// that frozen state while this handle keeps shadow-building the next
/// epoch (MVCC — see the [`Snapshot`] docs for the protocol).
///
/// See the [crate docs](crate) for an overview and an example.
#[derive(Debug)]
pub struct GaussTree<S: PageStore> {
    pool: Arc<SharedBufferPool<S>>,
    /// Decoded-node companion cache: pages already paid for via the pool
    /// are kept in query-ready form ([`CachedNode`] — columnar leaves,
    /// inner entry vectors) so the read hot path never re-parses bytes.
    /// Invalidated on every node write; never consulted without first
    /// requesting the page from the pool, so access accounting is
    /// unchanged. Shared with snapshots: shadow paging guarantees a
    /// committed page's bytes never change while a snapshot can read
    /// them, so cached decodes stay valid across epochs.
    node_cache: Arc<SideCache<CachedNode>>,
    /// Epoch pin counts of live [`Snapshot`]s (shared with every snapshot
    /// handed out). Gates page reclamation ([`GaussTree::free_aging`])
    /// and forces shadow paging while pins exist.
    registry: Arc<EpochRegistry>,
    config: TreeConfig,
    leaf_cap: usize,
    inner_cap: usize,
    /// Crash-safety policy. [`Durability::None`] keeps the fast
    /// write path (in-place node updates, no barriers); `Flush`/`Fsync`
    /// switch mutation to shadow paging so the last committed epoch is
    /// never overwritten, and order data barriers before meta commits.
    durability: Durability,
    /// Last committed epoch (0 before the first commit).
    epoch: u64,
    root: PageId,
    height: u32,
    len: u64,
    /// Free pages whose free was *committed* at an earlier epoch (or that
    /// never belonged to a committed tree). Allocation pops from here
    /// before extending the store, so the store never accumulates
    /// unreachable pages — [`GaussTree::check_invariants`] asserts exactly
    /// that. Under shadow paging these are the only reusable pages: a
    /// crash rolls back to the committed epoch, which does not reference
    /// them.
    free_committed: Vec<PageId>,
    /// Pages freed during the current epoch that the committed tree still
    /// references (shadow paging parks them here). Reusing one before the
    /// next commit would corrupt the crash-fallback state; the next
    /// successful `flush` promotes them to `free_committed`.
    free_pending: Vec<PageId>,
    /// Free pages currently serving as the committed meta slot's free-list
    /// overflow chain. Free for accounting purposes, but not reusable
    /// until the *next* commit supersedes the chain they carry.
    carriers_live: Vec<PageId>,
    /// Every page currently on any of the three free lists — the release
    /// double-free guard ([`TreeError::DoubleFree`]).
    free_set: HashSet<u64>,
    /// Pages written since the last commit that the committed tree does
    /// not reference; shadow paging may update them in place.
    shadowed: HashSet<u64>,
    /// Root page as of the last committed epoch — what
    /// [`GaussTree::snapshot`] pins while the working `root`/`height`/`len`
    /// fields run ahead under shadow paging.
    committed_root: PageId,
    /// Height as of the last committed epoch.
    committed_height: u32,
    /// Entry count as of the last committed epoch.
    committed_len: u64,
    /// Whether an in-place write has diverged the store from the last
    /// committed epoch (in-place mutation under [`Durability::None`]
    /// with no live snapshots). While set, [`GaussTree::snapshot`] refuses
    /// to pin the stale committed root.
    dirty_since_commit: bool,
    /// Commit-promoted frees still gated by live snapshots: each entry
    /// holds the pages whose free was committed at the tagged epoch,
    /// reusable only once no snapshot pins an *older* epoch. Kept in
    /// epoch order so reaping pops from the front.
    free_aging: VecDeque<(u64, Vec<PageId>)>,
}

/// What [`GaussTree::open_with_recovery`] found and decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the slot the tree was opened from.
    pub epoch: u64,
    /// Whether the newest slot was rejected (torn/corrupt/invariant
    /// failure) and an older epoch was used instead.
    pub fell_back: bool,
    /// Pages allocated after the chosen epoch's commit (an interrupted
    /// mutation's shadow pages), reclaimed onto the free list.
    pub orphaned_pages: u64,
}

/// Builder-style construction options for [`GaussTree::create_with`],
/// [`GaussTree::open_with`] and [`GaussTree::recover_with`] — the one
/// place the crash-safety policy and cache sizing are decided.
///
/// ```
/// use gauss_tree::TreeOptions;
/// use gauss_storage::Durability;
///
/// let opts = TreeOptions::new()
///     .durability(Durability::Fsync)
///     .node_cache_capacity(4096);
/// # let _ = opts;
/// ```
#[derive(Debug, Clone, Default)]
pub struct TreeOptions {
    durability: Durability,
    node_cache_capacity: Option<usize>,
    leaf_format: Option<crate::config::LeafFormat>,
}

impl TreeOptions {
    /// Default options: [`Durability::None`], decoded-node cache sized to
    /// the buffer pool's frame capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Crash-safety policy for every mutation on the opened tree (see
    /// [`GaussTree::flush`] for the commit protocol it drives).
    #[must_use]
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Capacity (in nodes) of the decoded-node companion cache. Defaults
    /// to the buffer pool's frame capacity.
    #[must_use]
    pub fn node_cache_capacity(mut self, nodes: usize) -> Self {
        self.node_cache_capacity = Some(nodes);
        self
    }

    /// On-disk leaf entry representation for trees *created* with these
    /// options (overrides the [`TreeConfig`]'s format). Ignored on open —
    /// an existing tree's format is part of its persisted metadata.
    #[must_use]
    pub fn leaf_format(mut self, format: crate::config::LeafFormat) -> Self {
        self.leaf_format = Some(format);
        self
    }

    /// The decoded-node cache capacity for a pool of `pool_cap` frames.
    fn cache_cap(&self, pool_cap: usize) -> usize {
        self.node_cache_capacity.unwrap_or(pool_cap).max(1)
    }
}

/// An immutable, owning view of one *committed* epoch of a [`GaussTree`] —
/// the reader half of the MVCC split.
///
/// Obtained from [`GaussTree::snapshot`]. A snapshot pins its epoch in the
/// tree's shared [`EpochRegistry`]:
///
/// * every query method (provided by [`ReadView`]) runs lock-free against
///   the frozen committed root — no `&mut` borrow of the writer, no writer
///   mutex — while the writer keeps shadow-building the next epoch;
/// * pages the writer frees stay un-reused until every snapshot pinning an
///   epoch that references them is dropped (see the free-aging rule in
///   [`GaussTree::flush`]);
/// * while any snapshot is live the writer shadow-pages even under
///   [`Durability::None`], so committed bytes are never overwritten.
///
/// Cloning re-pins the epoch; dropping unpins it. Snapshots are `Send` and
/// `Sync` — hand them to other threads freely.
#[derive(Debug)]
pub struct Snapshot<S: PageStore> {
    pool: Arc<SharedBufferPool<S>>,
    node_cache: Arc<SideCache<CachedNode>>,
    registry: Arc<EpochRegistry>,
    config: TreeConfig,
    leaf_cap: usize,
    inner_cap: usize,
    epoch: u64,
    root: PageId,
    height: u32,
    len: u64,
}

impl<S: PageStore> Snapshot<S> {
    /// The committed epoch this snapshot pins.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of stored pfv at this epoch.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree was empty at this epoch.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree at this epoch (0 = the root is a leaf).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Dimensionality of the indexed pfv.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// The tree's configuration.
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Root page id at this epoch.
    #[must_use]
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Structural invariant check of the pinned epoch (§4 node invariants:
    /// conservative rectangles, counts, balanced height, fill factors with
    /// `strict_fanout`). Page accounting is *not* checked — free lists
    /// belong to the writer's working state, not to a frozen epoch.
    ///
    /// # Errors
    /// Store / codec errors while traversing.
    pub fn check_invariants(
        &self,
        strict_fanout: bool,
    ) -> Result<Vec<crate::check::InvariantError>, TreeError> {
        self.tree_plane()
            .check_structure(strict_fanout)
            .map(|(errs, _)| errs)
    }

    /// The single-tree read-plane of this pinned epoch: what structure
    /// checks run on, and one component of a forest snapshot's view.
    pub(crate) fn tree_plane(&self) -> Plane<'_, S> {
        Plane {
            pool: &self.pool,
            node_cache: &self.node_cache,
            config: &self.config,
            leaf_cap: self.leaf_cap,
            inner_cap: self.inner_cap,
            root: self.root,
            height: self.height,
            len: self.len,
        }
    }
}

impl<S: PageStore> Clone for Snapshot<S> {
    fn clone(&self) -> Self {
        self.registry.pin(self.epoch);
        Self {
            pool: Arc::clone(&self.pool),
            node_cache: Arc::clone(&self.node_cache),
            registry: Arc::clone(&self.registry),
            config: self.config,
            leaf_cap: self.leaf_cap,
            inner_cap: self.inner_cap,
            epoch: self.epoch,
            root: self.root,
            height: self.height,
            len: self.len,
        }
    }
}

impl<S: PageStore> Drop for Snapshot<S> {
    fn drop(&mut self) {
        self.registry.unpin(self.epoch);
    }
}

impl<S: PageStore> ReadView<S> for Snapshot<S> {
    fn plane(&self) -> crate::view::ViewPlane<'_, S> {
        crate::view::ViewPlane::single(self.tree_plane())
    }
}

/// One parsed meta slot payload, bounds-checked against the store.
struct ParsedMeta {
    epoch: u64,
    allocated: u64,
    config: TreeConfig,
    root: PageId,
    height: u32,
    len: u64,
    free_ids: Vec<PageId>,
    carriers: Vec<PageId>,
}

/// Quantises an ingested pfv to the stored representation of a
/// [`LeafFormat::Quantised`] tree: every parameter becomes the widened
/// `f64` of its rounded `f32` (see [`pfv::quant`]), so leaf encoding is an
/// exact narrowing and queries stay exact over the stored parameters.
/// Returns `Ok(None)` for exact trees (store as-is).
pub(crate) fn quantise_for(format: LeafFormat, v: &Pfv) -> Result<Option<Pfv>, TreeError> {
    if format == LeafFormat::Exact {
        return Ok(None);
    }
    let mut means = Vec::with_capacity(v.dims());
    let mut sigmas = Vec::with_capacity(v.dims());
    for (dim, (&m, &s)) in v.means().iter().zip(v.sigmas()).enumerate() {
        let mq = quant::quantise_mu(m).ok_or(TreeError::QuantisationRange { dim, value: m })?;
        let sq = quant::quantise_sigma(s).ok_or(TreeError::QuantisationRange { dim, value: s })?;
        means.push(f64::from(mq));
        sigmas.push(f64::from(sq));
    }
    // lint: allow(no-panic) -- quantised parameters are finite with σ at or above the floor
    let q = Pfv::new(means, sigmas).expect("quantised parameters are valid");
    Ok(Some(q))
}

impl<S: PageStore> GaussTree<S> {
    /// Creates an empty Gauss-tree in a fresh store with default
    /// [`TreeOptions`] — [`Durability::None`] (fast in-place writes, no
    /// crash guarantees).
    ///
    /// # Errors
    /// Propagates store errors; fails if the page size cannot hold two
    /// entries of the configured dimensionality.
    pub fn create(
        pool: impl Into<SharedBufferPool<S>>,
        config: TreeConfig,
    ) -> Result<Self, TreeError> {
        Self::create_with(pool, config, &TreeOptions::default())
    }

    /// Creates an empty Gauss-tree in a fresh store under the given
    /// [`TreeOptions`].
    ///
    /// # Errors
    /// Propagates store errors; rejects a non-empty store (the metadata
    /// slots must own pages 0–1).
    pub fn create_with(
        pool: impl Into<SharedBufferPool<S>>,
        config: TreeConfig,
        opts: &TreeOptions,
    ) -> Result<Self, TreeError> {
        let pool = pool.into();
        if pool.num_pages() != 0 {
            return Err(TreeError::Corrupt("create requires an empty store"));
        }
        let config = opts
            .leaf_format
            .map_or(config, |f| config.with_leaf_format(f));
        let page_size = pool.page_size();
        let leaf_cap = config.leaf_capacity(page_size);
        let inner_cap = config.inner_capacity(page_size);
        let slots = (pool.allocate()?, pool.allocate()?);
        debug_assert_eq!(slots, (PageId(0), PageId(1)));
        let root = pool.allocate()?;
        let node_cache = SideCache::new(opts.cache_cap(pool.capacity()));
        let mut tree = Self {
            pool: Arc::new(pool),
            node_cache: Arc::new(node_cache),
            registry: Arc::new(EpochRegistry::new()),
            config,
            leaf_cap,
            inner_cap,
            durability: opts.durability,
            epoch: 0,
            root,
            height: 0,
            len: 0,
            free_committed: Vec::new(),
            free_pending: Vec::new(),
            carriers_live: Vec::new(),
            free_set: HashSet::new(),
            shadowed: HashSet::new(),
            committed_root: root,
            committed_height: 0,
            committed_len: 0,
            dirty_since_commit: false,
            free_aging: VecDeque::new(),
        };
        tree.write_node(root, &Node::Leaf(Vec::new()))?;
        tree.flush()?;
        Ok(tree)
    }

    /// The tree's crash-safety policy.
    #[must_use]
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Last committed epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pins the last committed epoch as an immutable [`Snapshot`] view.
    ///
    /// The snapshot owns shared handles (buffer pool, decoded-node cache,
    /// epoch registry), so it has no lifetime tie to this writer: send it
    /// to another thread and keep mutating here. While it lives, this
    /// writer shadow-pages every mutation (even under [`Durability::None`])
    /// and defers page reuse, so the pinned state is never overwritten.
    ///
    /// # Errors
    /// [`TreeError::SnapshotUnavailable`] if in-place writes since the last
    /// [`GaussTree::flush`] have diverged the store from the committed
    /// epoch — flush first, then snapshot.
    pub fn snapshot(&self) -> Result<Snapshot<S>, TreeError> {
        if self.dirty_since_commit {
            return Err(TreeError::SnapshotUnavailable(
                "in-place writes since the last commit",
            ));
        }
        self.registry.pin(self.epoch);
        Ok(Snapshot {
            pool: Arc::clone(&self.pool),
            node_cache: Arc::clone(&self.node_cache),
            registry: Arc::clone(&self.registry),
            config: self.config,
            leaf_cap: self.leaf_cap,
            inner_cap: self.inner_cap,
            epoch: self.epoch,
            root: self.committed_root,
            height: self.committed_height,
            len: self.committed_len,
        })
    }

    /// Number of live [`Snapshot`] pins on this tree (all epochs).
    #[must_use]
    pub fn pinned_snapshots(&self) -> u64 {
        self.registry.pinned_count()
    }

    /// Whether mutation must shadow-write instead of updating in place:
    /// always under a durable policy, and whenever a live [`Snapshot`]
    /// pins a committed epoch that in-place writes would tear up.
    pub(crate) fn is_shadowing(&self) -> bool {
        self.durability != Durability::None || self.registry.has_pins()
    }

    /// Opens an existing Gauss-tree from its store.
    ///
    /// Both meta slots are validated — magic, version, checksum
    /// ([`gauss_storage::commit`]), then every page id the payload names
    /// bounds-checked against the store — and the highest valid epoch
    /// wins, so a torn meta write falls back to the previous commit.
    /// Pages allocated after that commit (an interrupted mutation's
    /// shadow writes) are reclaimed onto the free list.
    ///
    /// The opened tree uses default [`TreeOptions`] ([`Durability::None`]);
    /// use [`GaussTree::open_with`] when crash safety or cache sizing is
    /// required.
    ///
    /// # Errors
    /// [`TreeError::NotAGaussTree`] if no valid metadata is found; store
    /// errors otherwise.
    pub fn open(pool: impl Into<SharedBufferPool<S>>) -> Result<Self, TreeError> {
        Self::open_with(pool, &TreeOptions::default())
    }

    /// Opens an existing Gauss-tree under the given [`TreeOptions`].
    ///
    /// # Errors
    /// As [`GaussTree::open`].
    pub fn open_with(
        pool: impl Into<SharedBufferPool<S>>,
        opts: &TreeOptions,
    ) -> Result<Self, TreeError> {
        Self::open_impl(pool.into(), false, opts).map(|(tree, _)| tree)
    }

    /// Opens an existing Gauss-tree, additionally *verifying* the chosen
    /// epoch with a full [`GaussTree::check_invariants`] pass (including
    /// exact page accounting) and falling back to the previous slot when
    /// verification fails — the belt-and-braces recovery path for stores
    /// that may have crashed without write ordering.
    ///
    /// This reads every page of the tree; prefer [`GaussTree::open`] on
    /// hot paths and this after an unclean shutdown.
    ///
    /// # Errors
    /// [`TreeError::NotAGaussTree`] if no slot yields a structurally
    /// sound tree; store errors otherwise.
    pub fn open_with_recovery(
        pool: impl Into<SharedBufferPool<S>>,
    ) -> Result<(Self, RecoveryReport), TreeError> {
        Self::recover_with(pool, &TreeOptions::default())
    }

    /// [`GaussTree::open_with_recovery`] under the given [`TreeOptions`].
    ///
    /// # Errors
    /// As [`GaussTree::open_with_recovery`].
    pub fn recover_with(
        pool: impl Into<SharedBufferPool<S>>,
        opts: &TreeOptions,
    ) -> Result<(Self, RecoveryReport), TreeError> {
        Self::open_impl(pool.into(), true, opts)
    }

    fn open_impl(
        pool: SharedBufferPool<S>,
        verify: bool,
        opts: &TreeOptions,
    ) -> Result<(Self, RecoveryReport), TreeError> {
        let allocated_now = pool.num_pages();
        // A slot page the store does not have was never written.
        let mut pages = [None, None];
        for (slot, page) in (0..allocated_now).zip(&mut pages) {
            *page = Some(pool.page(PageId(slot))?);
        }
        let slots = commit::valid_slots(META_KIND, [pages[0].as_deref(), pages[1].as_deref()]);
        // A slot that holds data but does not validate (torn write, stale
        // garbage, a payload out of bounds for this store) counts as a
        // fallback even though its epoch may be unknowable.
        let mut rejected_slot = slots.torn;
        let mut candidates: Vec<ParsedMeta> = Vec::new();
        for (epoch, payload) in slots.valid {
            match Self::parse_meta(&pool, epoch, payload, allocated_now) {
                Some(meta) => candidates.push(meta),
                None => rejected_slot = true,
            }
        }
        let newest = candidates.first().map(|m| m.epoch);
        let mut pool = pool;
        for meta in candidates {
            let fell_back = rejected_slot || Some(meta.epoch) != newest;
            let report = RecoveryReport {
                epoch: meta.epoch,
                fell_back,
                orphaned_pages: allocated_now - meta.allocated,
            };
            let mut tree = Self::from_meta(pool, meta, opts);
            if !verify {
                return Ok((tree, report));
            }
            match tree.check_invariants(false) {
                Ok(errs) if errs.is_empty() => {
                    // Seal the recovery: a fallback or orphan reclamation
                    // exists only in memory so far — a later *plain* open
                    // would re-select the rejected slot and redo (or
                    // lose) the reclamation. Committing a fresh epoch
                    // overwrites the rejected slot and persists the
                    // reclaimed pages on the free list.
                    if report.fell_back || report.orphaned_pages > 0 {
                        let saved = tree.durability;
                        tree.durability = Durability::Fsync;
                        tree.flush()?;
                        tree.durability = saved;
                    }
                    return Ok((tree, report));
                }
                // Structurally unsound (or unreadable): try the other slot.
                _ => pool = tree.into_pool(),
            }
        }
        Err(TreeError::NotAGaussTree)
    }

    /// Parses the payload of a meta slot that is a valid commit of `epoch`
    /// and checks it against the store; `None` if this store cannot be the
    /// one it was committed on (truncated, out of bounds, a bad tag).
    fn parse_meta(
        pool: &SharedBufferPool<S>,
        epoch: u64,
        payload: &[u8],
        allocated_now: u64,
    ) -> Option<ParsedMeta> {
        let mut r = Reader::new(payload);
        let allocated = r.get_u64().ok()?;
        let mut config = TreeConfig::read_tags(&mut r)?;
        // A node of this dimensionality must hold two entries on a page
        // of this store (`leaf_capacity` / `inner_capacity` assert it).
        let widest = config.inner_entry_bytes().max(config.leaf_entry_bytes());
        if crate::node::NODE_HEADER_BYTES + 2 * widest > pool.page_size() {
            return None;
        }
        let leaf_cap = r.get_u32().ok()? as usize;
        let inner_cap = r.get_u32().ok()? as usize;
        let root = PageId(r.get_u64().ok()?);
        let height = r.get_u32().ok()?;
        let len = r.get_u64().ok()?;
        // Every referenced id must be in bounds *of the committed
        // allocation*, which itself must fit the store — a truncated file
        // fails here with a clean rejection instead of a decode error
        // deep inside `read_node`.
        if leaf_cap < 2
            || inner_cap < 2
            || allocated <= META_PAGES
            || allocated > allocated_now
            || root.index() < META_PAGES
            || root.index() >= allocated
        {
            return None;
        }
        let free_count = r.get_u32().ok()? as usize;
        let mut free_next = PageId(r.get_u64().ok()?);
        // The count sizes an allocation: refuse one the slot cannot hold
        // (a valid checksum does not make a number plausible).
        if free_count > r.remaining() / 8 {
            return None;
        }
        let mut free_ids = Vec::with_capacity(free_count);
        for _ in 0..free_count {
            free_ids.push(PageId(r.get_u64().ok()?));
        }
        // Follow the overflow chain through its carrier pages. Carriers
        // are not covered by the slot checksum, so the walk must bound
        // itself: a garbage chain that cycles with zero-count carriers
        // would otherwise never trip the id-count guard.
        let mut carriers = Vec::new();
        while free_next.is_valid() {
            if free_next.index() < META_PAGES
                || free_next.index() >= allocated
                || free_ids.len() as u64 > allocated
                || carriers.len() as u64 > allocated
            {
                return None;
            }
            carriers.push(free_next);
            let page = pool.page(free_next).ok()?;
            let mut r = Reader::new(&page);
            let next = PageId(r.get_u64().ok()?);
            let count = r.get_u32().ok()? as usize;
            if count > (page.len() - FREE_CHAIN_HEADER_BYTES) / 8 {
                return None;
            }
            for _ in 0..count {
                free_ids.push(PageId(r.get_u64().ok()?));
            }
            free_next = next;
        }
        // Free ids must be in bounds, unique, and distinct from the meta
        // slots; the carriers must themselves be persisted as free.
        let mut seen = HashSet::with_capacity(free_ids.len());
        for id in &free_ids {
            if id.index() < META_PAGES || id.index() >= allocated || !seen.insert(id.index()) {
                return None;
            }
        }
        if !carriers.iter().all(|c| seen.contains(&c.index())) {
            return None;
        }
        config.max_leaf_entries = Some(leaf_cap);
        config.max_inner_entries = Some(inner_cap);
        Some(ParsedMeta {
            epoch,
            allocated,
            config,
            root,
            height,
            len,
            free_ids,
            carriers,
        })
    }

    /// Builds the in-memory tree from a validated slot, reclaiming pages
    /// the chosen epoch never committed (shadow writes of an interrupted
    /// mutation) onto the free list.
    fn from_meta(pool: SharedBufferPool<S>, meta: ParsedMeta, opts: &TreeOptions) -> Self {
        let leaf_cap = meta.config.leaf_capacity(pool.page_size());
        let inner_cap = meta.config.inner_capacity(pool.page_size());
        let node_cache = SideCache::new(opts.cache_cap(pool.capacity()));
        let carrier_set: HashSet<u64> = meta.carriers.iter().map(|p| p.index()).collect();
        let mut free_set: HashSet<u64> = meta.free_ids.iter().map(|p| p.index()).collect();
        let mut free_committed: Vec<PageId> = meta
            .free_ids
            .iter()
            .copied()
            .filter(|p| !carrier_set.contains(&p.index()))
            .collect();
        let allocated_now = pool.num_pages();
        for orphan in meta.allocated..allocated_now {
            free_set.insert(orphan);
            free_committed.push(PageId(orphan));
        }
        Self {
            pool: Arc::new(pool),
            node_cache: Arc::new(node_cache),
            registry: Arc::new(EpochRegistry::new()),
            config: meta.config,
            leaf_cap,
            inner_cap,
            durability: opts.durability,
            epoch: meta.epoch,
            root: meta.root,
            height: meta.height,
            len: meta.len,
            free_committed,
            free_pending: Vec::new(),
            carriers_live: meta.carriers,
            free_set,
            shadowed: HashSet::new(),
            committed_root: meta.root,
            committed_height: meta.height,
            committed_len: meta.len,
            dirty_since_commit: false,
            free_aging: VecDeque::new(),
        }
    }

    /// Gives the pool back (recovery's slot-fallback path; no snapshot can
    /// exist on a tree that is still being opened).
    fn into_pool(self) -> SharedBufferPool<S> {
        match Arc::try_unwrap(self.pool) {
            Ok(pool) => pool,
            // lint: allow(no-panic) -- only reachable during open, before any snapshot is handed out
            Err(_) => panic!("buffer pool still shared during open"),
        }
    }

    /// Consumes the tree and returns the underlying page store (flush
    /// first if the latest mutations must be committed).
    ///
    /// # Panics
    /// Panics if any [`Snapshot`] of this tree is still alive — snapshots
    /// share the buffer pool and must be dropped first.
    #[must_use]
    pub fn into_store(self) -> S {
        match Arc::try_unwrap(self.pool) {
            Ok(pool) => pool.into_store(),
            // lint: allow(no-panic) -- documented contract: drop all snapshots before into_store
            Err(_) => panic!("GaussTree::into_store called with live snapshots"),
        }
    }

    /// Bulk-loads a tree from `(id, pfv)` pairs (STR-style recursive
    /// partitioning driven by the configured split cost — an extension over
    /// the paper's incremental insertion).
    ///
    /// Pages are packed: `⌈n / leaf_capacity⌉` leaves and `⌈len /
    /// inner_capacity⌉` nodes per level above, so a later
    /// [`insert`](Self::insert) or [`extend`](Self::extend) splits a full
    /// leaf on its first touch.
    ///
    /// Runs the pipeline of [`GaussTree::bulk_load_with`] with
    /// [`BulkLoadOptions::default`]: single-threaded, fully resident,
    /// batched page writes.
    ///
    /// # Errors
    /// Propagates store errors; rejects dimensionality mismatches.
    pub fn bulk_load(
        pool: impl Into<SharedBufferPool<S>>,
        config: TreeConfig,
        items: impl IntoIterator<Item = (u64, Pfv)>,
    ) -> Result<Self, TreeError> {
        Ok(Self::bulk_load_with(pool, config, items, &BulkLoadOptions::default())?.0)
    }

    /// Bulk-loads a tree through the full ingest pipeline (see
    /// [`crate::bulk`]): streaming chunked consumption of `items` under an
    /// optional memory budget with runs spilled through a page store,
    /// partitioning fanned across worker threads, and node pages written in
    /// coalesced batches. Pages are packed as in
    /// [`bulk_load`](Self::bulk_load). The produced tree is
    /// **byte-identical** to the serial fully-resident build for every
    /// thread count, memory budget and write mode.
    ///
    /// # Errors
    /// Propagates store errors; rejects dimensionality mismatches.
    pub fn bulk_load_with(
        pool: impl Into<SharedBufferPool<S>>,
        config: TreeConfig,
        items: impl IntoIterator<Item = (u64, Pfv)>,
        opts: &BulkLoadOptions,
    ) -> Result<(Self, BulkLoadReport), TreeError> {
        let mut tree = Self::create_with(
            pool,
            config,
            &TreeOptions::new().durability(opts.durability),
        )?;
        // Quantise while streaming: the bulk pipeline never re-reads the
        // source, so rounding here covers every leaf it will write. An
        // unquantisable item stops the stream and surfaces its error after
        // the (now moot) run finishes.
        let format = tree.config.leaf_format;
        let mut quant_err = None;
        let quantised = items
            .into_iter()
            .map_while(|(id, pfv)| match quantise_for(format, &pfv) {
                Ok(Some(q)) => Some((id, q)),
                Ok(None) => Some((id, pfv)),
                Err(e) => {
                    quant_err = Some(e);
                    None
                }
            });
        let report = crate::bulk::run(&mut tree, quantised, opts, true)?;
        if let Some(e) = quant_err {
            return Err(e);
        }
        Ok((tree, report))
    }

    /// Number of stored pfv.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 = the root is a leaf).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Dimensionality of the indexed pfv.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// The tree's configuration.
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// Maximum number of entries in a leaf node (`2M` in the paper).
    #[must_use]
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_cap
    }

    /// Maximum number of entries in an inner node (`M` in the paper).
    #[must_use]
    pub fn inner_capacity(&self) -> usize {
        self.inner_cap
    }

    /// Root page id.
    #[must_use]
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Access to the buffer pool (stats, cold start, raw page access). All
    /// pool operations take `&self` — the pool has interior mutability.
    ///
    /// Writing node pages through this handle bypasses the decoded-node
    /// cache's write invalidation; mutate through the tree API instead.
    #[must_use]
    pub fn pool(&self) -> &SharedBufferPool<S> {
        &self.pool
    }

    /// Shared access statistics of the buffer pool.
    #[must_use]
    pub fn stats(&self) -> &std::sync::Arc<gauss_storage::AccessStats> {
        self.pool.stats()
    }

    /// Commits the tree as the next epoch. Call after building; queries
    /// never dirty the tree.
    ///
    /// The full free list is persisted first (overflow chained through
    /// committed-free carrier pages the previous epoch does not
    /// reference), then the meta payload goes through
    /// [`commit::commit`]: a data barrier at the tree's [`Durability`]
    /// level, the write of the meta slot that does not hold the current
    /// epoch, a second barrier. Open picks the highest valid epoch, so a
    /// crash anywhere in this sequence — or in the shadow-paged mutations
    /// before it — falls back to the previous commit intact.
    ///
    /// # Errors
    /// Propagates store errors. After an error the in-memory tree may be
    /// mid-commit and should be dropped; the on-disk state remains
    /// recoverable.
    pub fn flush(&mut self) -> Result<(), TreeError> {
        let page_size = self.pool.page_size();
        let meta_cap = page_size.saturating_sub(META_BASE_BYTES) / 8;
        let per_carrier = ((page_size - FREE_CHAIN_HEADER_BYTES) / 8).max(1);

        // Dropped snapshots may have released aged pages; fold them back
        // into the reusable pool before carriers are drawn from it.
        self.reap_aged();

        // Every free id that must survive reopen, whatever sub-list it is
        // on right now — including snapshot-gated aging pages: their free
        // *is* committed, only in-memory reuse is deferred.
        let mut all_ids: Vec<PageId> =
            Vec::with_capacity(self.free_pending.len() + self.carriers_live.len());
        all_ids.extend(&self.free_pending);
        all_ids.extend(&self.carriers_live);
        all_ids.extend(&self.free_committed);
        for (_, pages) in &self.free_aging {
            all_ids.extend(pages);
        }

        // Overflow carriers for the new chain: committed-free pages (the
        // live chain's carriers are held out of `free_committed`, so they
        // can never be clobbered while the previous epoch still needs
        // them), topped up with fresh allocations. A fresh carrier is
        // itself a free page and joins the persisted set, which can grow
        // the overflow — hence the fixpoint loop.
        let mut new_carriers: Vec<PageId> = Vec::new();
        loop {
            let rest = all_ids.len().saturating_sub(meta_cap);
            let needed = rest.div_ceil(per_carrier);
            if new_carriers.len() >= needed {
                break;
            }
            if let Some(p) = self.free_committed.pop() {
                new_carriers.push(p);
            } else {
                let p = self.pool.allocate()?;
                self.free_set.insert(p.index());
                all_ids.push(p);
                new_carriers.push(p);
            }
        }

        let in_meta = all_ids.len().min(meta_cap);
        let rest = &all_ids[in_meta..];
        let chunks: Vec<&[PageId]> = rest.chunks(per_carrier).collect();
        debug_assert_eq!(chunks.len(), new_carriers.len());
        for (i, chunk) in chunks.iter().enumerate() {
            let carrier = new_carriers[i];
            let next = new_carriers.get(i + 1).copied().unwrap_or(PageId::INVALID);
            let mut buf = vec![0u8; page_size];
            let mut cw = Writer::new(&mut buf);
            cw.put_u64(next.index());
            // lint: allow(no-panic) -- free-list chunks are capped by per_carrier, far below u32::MAX
            cw.put_u32(u32::try_from(chunk.len()).expect("chunk fits u32"));
            for id in *chunk {
                cw.put_u64(id.index());
            }
            // A carrier may still carry a stale decoded node from before
            // it was freed; its bytes are changing, so drop that decode.
            self.node_cache.remove(carrier);
            self.pool.write(carrier, &buf)?;
        }

        let new_epoch = self.epoch + 1;
        let mut page = vec![0u8; page_size];
        let mut w = Writer::new(&mut page[HEADER_BYTES..]);
        w.put_u64(self.pool.num_pages());
        self.config.write_tags(&mut w);
        // lint: allow(no-panic) -- leaf capacity derives from the page size, far below u32::MAX
        w.put_u32(u32::try_from(self.leaf_cap).expect("leaf cap fits u32"));
        // lint: allow(no-panic) -- node capacities derive from the page size, far below u32::MAX
        w.put_u32(u32::try_from(self.inner_cap).expect("inner cap fits u32"));
        w.put_u64(self.root.index());
        w.put_u32(self.height);
        w.put_u64(self.len);
        // lint: allow(no-panic) -- in_meta is capped by the meta page capacity, far below u32::MAX
        w.put_u32(u32::try_from(in_meta).expect("free count fits u32"));
        w.put_u64(
            new_carriers
                .first()
                .copied()
                .unwrap_or(PageId::INVALID)
                .index(),
        );
        for id in &all_ids[..in_meta] {
            w.put_u64(id.index());
        }
        // The data barrier covers every node page and carrier the new
        // slot refers to; slot `n` of the protocol is page `n`.
        let sync = || self.pool.sync(self.durability);
        commit::commit(
            META_KIND,
            new_epoch,
            &mut page,
            sync,
            |slot, image| self.pool.write(PageId(slot as u64), image),
            sync,
        )?;

        // The commit succeeded: this epoch's deferred frees and the
        // superseded chain's carriers become reusable — except that pages
        // the *previous* epoch still references must additionally wait for
        // every snapshot pinned at an older epoch to drop (free-aging
        // rule), or a reuse would overwrite a page a live reader can still
        // reach.
        self.epoch = new_epoch;
        let pending = std::mem::take(&mut self.free_pending);
        if !pending.is_empty() {
            self.free_aging.push_back((new_epoch, pending));
        }
        self.free_committed.append(&mut self.carriers_live);
        self.carriers_live = new_carriers;
        self.shadowed.clear();
        self.dirty_since_commit = false;
        self.committed_root = self.root;
        self.committed_height = self.height;
        self.committed_len = self.len;
        self.reap_aged();
        Ok(())
    }

    /// Promotes aged frees whose gating epoch is clear of snapshot pins:
    /// an entry tagged `E` holds pages referenced by epoch `E - 1` and
    /// earlier, so it is reusable once no live snapshot pins an epoch
    /// below `E`. Entries are promoted front-first (epoch order), stopping
    /// at the first still-gated tag.
    fn reap_aged(&mut self) {
        if self.free_aging.is_empty() {
            return;
        }
        let min = self.registry.min_pinned();
        while let Some((tag, _)) = self.free_aging.front() {
            if min.is_none_or(|m| m >= *tag) {
                // lint: allow(no-panic) -- front() just returned Some
                let (_, mut pages) = self.free_aging.pop_front().expect("front checked");
                self.free_committed.append(&mut pages);
            } else {
                break;
            }
        }
    }

    /// Allocates a page for a new node, reusing a committed-free page when
    /// one is available. The page is marked shadowed: it is not part of
    /// the committed tree, so shadow paging may write it in place.
    pub(crate) fn alloc_page(&mut self) -> Result<PageId, TreeError> {
        if self.free_committed.is_empty() && !self.free_aging.is_empty() {
            // A snapshot drop may have un-gated aged frees since the last
            // commit; prefer them over growing the store.
            self.reap_aged();
        }
        let page = match self.free_committed.pop() {
            Some(p) => {
                self.free_set.remove(&p.index());
                p
            }
            None => self.pool.allocate()?,
        };
        self.shadowed.insert(page.index());
        Ok(page)
    }

    /// Returns a no-longer-referenced node page to the free list:
    /// immediately reusable when the committed tree does not reference it
    /// (page shadowed this epoch, or the tree is not shadow-paging),
    /// deferred until the next commit otherwise.
    ///
    /// # Errors
    /// [`TreeError::DoubleFree`] if the page is already free.
    pub(crate) fn free_page(&mut self, page: PageId) -> Result<(), TreeError> {
        if !self.free_set.insert(page.index()) {
            return Err(TreeError::DoubleFree { page: page.index() });
        }
        let was_shadowed = self.shadowed.remove(&page.index());
        if was_shadowed {
            self.free_committed.push(page);
        } else if self.is_shadowing() {
            self.free_pending.push(page);
        } else {
            // In-place mode: a committed page becomes reusable right away,
            // which diverges the store from the committed epoch — block
            // snapshots until the next flush re-commits.
            self.dirty_since_commit = true;
            self.free_committed.push(page);
        }
        Ok(())
    }

    /// Pages freed and not yet reused by later allocations (reusable,
    /// commit-deferred, snapshot-gated, and live chain carriers together).
    #[must_use]
    pub fn free_page_count(&self) -> usize {
        self.free_committed.len()
            + self.free_pending.len()
            + self.carriers_live.len()
            + self.free_aging.iter().map(|(_, p)| p.len()).sum::<usize>()
    }

    /// The freed-page ids (for the invariant checker).
    pub(crate) fn free_pages(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.free_page_count());
        out.extend(&self.free_committed);
        out.extend(&self.free_pending);
        out.extend(&self.carriers_live);
        for (_, pages) in &self.free_aging {
            out.extend(pages);
        }
        out
    }

    /// Serialises `node` into a fresh page-sized buffer.
    pub(crate) fn encode_node(&self, node: &Node) -> Vec<u8> {
        let mut buf = vec![0u8; self.pool.page_size()];
        node.write_to(self.config.dims, self.config.leaf_format, &mut buf);
        buf
    }

    /// Stages `node` for `page` in a [`WriteBatch`] (group commit),
    /// invalidating the decoded-node cache exactly like a direct write.
    pub(crate) fn stage_node(&self, batch: &mut WriteBatch, page: PageId, node: &Node) {
        self.node_cache.remove(page);
        batch.put(page, &self.encode_node(node));
    }

    /// Flushes a staged [`WriteBatch`] through the pool (coalesced runs).
    pub(crate) fn commit_batch(&self, batch: &mut WriteBatch) -> Result<(), TreeError> {
        self.pool.write_batch(batch)?;
        Ok(())
    }

    /// Inserts one pfv with external id `id` (paper §5.3 descent rules) —
    /// the one-item case of [`GaussTree::extend`]: a batch of one takes
    /// the same path down, and a node it overflows splits in two.
    ///
    /// # Errors
    /// [`TreeError::DimMismatch`] for wrong dimensionality; store errors.
    pub fn insert(&mut self, id: u64, v: &Pfv) -> Result<(), TreeError> {
        self.extend(std::iter::once((id, v.clone()))).map(|_| ())
    }

    /// Batch-inserts a run of `(id, pfv)` pairs into an existing tree — the
    /// append path of the ingest pipeline (`build --append` in the CLI).
    ///
    /// Unlike looping [`GaussTree::insert`], the whole run descends the
    /// tree **once**: at every inner node the batch is routed to child
    /// subtrees with the §5.3 subtree-selection rule and merged group-wise,
    /// so each touched node is rewritten a single time per batch instead of
    /// once per item, and overflowing nodes are split multi-way in one go
    /// ([`split_many`]). Returns the number of items added.
    ///
    /// # Errors
    /// [`TreeError::DimMismatch`] for wrong dimensionality; store errors.
    pub fn extend(
        &mut self,
        items: impl IntoIterator<Item = (u64, Pfv)>,
    ) -> Result<u64, TreeError> {
        let mut batch = Vec::new();
        for (id, pfv) in items {
            if pfv.dims() != self.config.dims {
                return Err(TreeError::DimMismatch {
                    expected: self.config.dims,
                    got: pfv.dims(),
                });
            }
            let pfv = quantise_for(self.config.leaf_format, &pfv)?.unwrap_or(pfv);
            batch.push(LeafEntry { id, pfv });
        }
        if batch.is_empty() {
            return Ok(0);
        }
        let added = batch.len() as u64;
        let mut roots = self.extend_rec(self.root, self.height, batch)?;
        // Grow new levels until a single root covers every sibling the
        // batch created (a large run can overflow the old root multi-way,
        // raising the height by more than one).
        while roots.len() > 1 {
            roots = self.write_groups(None, roots, self.inner_cap, Node::Inner)?;
            self.height += 1;
        }
        self.root = roots[0].child;
        self.len += added;
        Ok(added)
    }

    /// Merges `items` into the subtree rooted at `page`, returning the
    /// entries a parent must hold for the subtree(s) that replace it (more
    /// than one when the node overflowed and split).
    fn extend_rec(
        &mut self,
        page: PageId,
        level: u32,
        items: Vec<LeafEntry>,
    ) -> Result<Vec<InnerEntry>, TreeError> {
        let node = self.read_node(page)?;
        if level == 0 {
            let Node::Leaf(mut entries) = node else {
                return Err(TreeError::Corrupt("expected leaf at level 0"));
            };
            entries.extend(items);
            return self.write_groups(Some(page), entries, self.leaf_cap, Node::Leaf);
        }
        let Node::Inner(mut entries) = node else {
            return Err(TreeError::Corrupt("expected inner node above level 0"));
        };
        if entries.is_empty() {
            return Err(TreeError::Corrupt("empty inner node"));
        }
        // Route every item with the single-insert descent rule, against the
        // rectangles as they were when the batch arrived, then recurse once
        // per targeted child with its whole group.
        let objective = SplitCost::from_items(self.config.split, self.config.combine, &entries);
        let mut groups: BTreeMap<usize, Vec<LeafEntry>> = BTreeMap::new();
        for item in items {
            let idx = choose_subtree(&objective, &entries, &item.pfv);
            groups.entry(idx).or_default().push(item);
        }
        let mut extra: Vec<InnerEntry> = Vec::new();
        for (idx, group) in groups {
            let child = entries[idx].child;
            let mut replaced = self.extend_rec(child, level - 1, group)?.into_iter();
            let Some(first) = replaced.next() else {
                return Err(TreeError::Corrupt("batch merge wrote no node"));
            };
            entries[idx] = first;
            extra.extend(replaced);
        }
        entries.extend(extra);
        self.write_groups(Some(page), entries, self.inner_cap, Node::Inner)
    }

    /// Writes `entries` as one node if they fit `cap`, split multi-way
    /// ([`split_many`], priced at the entries' own σ̄) otherwise, and returns
    /// the parent's entry for each node written. The first takes the place
    /// of the node at `page` under the shadow-paging rules; the others — all
    /// of them for `None`, a new level above the old root — go to fresh
    /// pages.
    fn write_groups<T: Splittable + Clone>(
        &mut self,
        page: Option<PageId>,
        entries: Vec<T>,
        cap: usize,
        node_of: fn(Vec<T>) -> Node,
    ) -> Result<Vec<InnerEntry>, TreeError> {
        let groups = if entries.len() <= cap {
            vec![entries]
        } else {
            let cost = SplitCost::from_items(self.config.split, self.config.combine, &entries);
            split_many(&cost, entries, cap)
        };
        let mut written = Vec::with_capacity(groups.len());
        for (i, group) in groups.into_iter().enumerate() {
            let rect = group_rect(&group);
            let node = node_of(group);
            let child = match page {
                Some(page) if i == 0 => self.write_node_shadow(page, &node)?,
                _ => {
                    let fresh = self.alloc_page()?;
                    self.write_node(fresh, &node)?;
                    fresh
                }
            };
            written.push(InnerEntry {
                child,
                count: node.subtree_count(),
                rect,
            });
        }
        Ok(written)
    }

    /// Reads and decodes the node stored at `page`.
    ///
    /// # Errors
    /// Store / codec errors.
    pub(crate) fn read_node(&self, page: PageId) -> Result<Node, TreeError> {
        self.working_plane().read_node(page)
    }

    /// The decoded-node companion cache (size/occupancy introspection).
    #[must_use]
    pub fn node_cache(&self) -> &SideCache<CachedNode> {
        &self.node_cache
    }

    /// Cold start for measurement loops: drops the buffer pool's cached
    /// frames, zeroes the access counters, **and** clears the decoded-node
    /// cache. `pool().clear_cache_and_stats()` alone leaves the decoded
    /// nodes warm — physical-read counts would still be cold-accurate, but
    /// CPU timings would silently skip the decode work and depend on what
    /// ran before.
    pub fn cold_start(&self) {
        self.pool.clear_cache_and_stats();
        self.node_cache.clear();
    }

    /// Minimum fill of a non-root leaf (`M` in the paper's `[M, 2M]`).
    pub(crate) fn leaf_min_fill(&self) -> usize {
        (self.leaf_cap / 2).max(1)
    }

    /// Minimum fill of a non-root inner node (`M/2`).
    pub(crate) fn inner_min_fill(&self) -> usize {
        (self.inner_cap / 2).max(1)
    }

    /// Overrides the stored length (deletion bookkeeping).
    pub(crate) fn set_len(&mut self, len: u64) {
        self.len = len;
    }

    /// Replaces the root pointer and height (root collapse on deletion).
    pub(crate) fn set_root(&mut self, root: PageId, height: u32) {
        self.root = root;
        self.height = height;
    }

    /// Serialises `node` into `page`, in place.
    pub(crate) fn write_node(&mut self, page: PageId, node: &Node) -> Result<(), TreeError> {
        // An in-place write to a page the committed epoch references
        // diverges the store from that epoch: snapshots are blocked until
        // the next flush re-commits. Shadow pages are invisible to the
        // committed tree, so writing them keeps the epoch intact.
        if !self.shadowed.contains(&page.index()) {
            self.dirty_since_commit = true;
        }
        let mut buf = vec![0u8; self.pool.page_size()];
        node.write_to(self.config.dims, self.config.leaf_format, &mut buf);
        // Invalidate the decoded form before the bytes change so no reader
        // of the new page content can ever see the stale decode (mutation
        // holds `&mut self`, but keep the ordering airtight regardless).
        self.node_cache.remove(page);
        self.pool.write(page, &buf)?;
        Ok(())
    }

    /// Writes `node` where the durability policy allows: in place when the
    /// committed tree does not reference `page` (or the tree is not
    /// shadow-paging), otherwise to a freshly allocated shadow page,
    /// deferring `page` to the post-commit free list. Returns where the
    /// node landed; callers must re-point the parent at it.
    pub(crate) fn write_node_shadow(
        &mut self,
        page: PageId,
        node: &Node,
    ) -> Result<PageId, TreeError> {
        if !self.is_shadowing() || self.shadowed.contains(&page.index()) {
            self.write_node(page, node)?;
            Ok(page)
        } else {
            let new = self.alloc_page()?;
            self.write_node(new, node)?;
            self.free_page(page)?;
            Ok(new)
        }
    }

    /// The read-plane over this writer's *working* state (root/height/len
    /// as mutated so far, committed or not) — what [`ReadView`] queries on
    /// `&GaussTree` observe.
    pub(crate) fn working_plane(&self) -> Plane<'_, S> {
        Plane {
            pool: &self.pool,
            node_cache: &self.node_cache,
            config: &self.config,
            leaf_cap: self.leaf_cap,
            inner_cap: self.inner_cap,
            root: self.root,
            height: self.height,
            len: self.len,
        }
    }
}

/// Insertion path selection (paper §5.3), each child priced by `objective`:
/// 1. if exactly one child rectangle contains the new pfv, follow it;
/// 2. if several contain it, follow the most selective one (minimal
///    hull cost — the greedy single-path realisation of the paper's
///    "follow all paths and find a node it exactly fits");
/// 3. otherwise follow the child whose cost increases least.
fn choose_subtree(objective: &SplitCost, entries: &[InnerEntry], v: &Pfv) -> usize {
    debug_assert!(!entries.is_empty());
    let mut best_containing: Option<(f64, usize)> = None;
    for (i, e) in entries.iter().enumerate() {
        if e.rect.contains_pfv(v) {
            let cost = objective.node(&e.rect);
            if best_containing.is_none_or(|(c, _)| cost < c) {
                best_containing = Some((cost, i));
            }
        }
    }
    if let Some((_, i)) = best_containing {
        return i;
    }
    // No child contains it: minimal cost increase, ties by smaller cost.
    let mut best = (f64::INFINITY, f64::INFINITY, 0usize);
    for (i, e) in entries.iter().enumerate() {
        let before = objective.node(&e.rect);
        let mut extended = e.rect.clone();
        extended.extend_pfv(v);
        let delta = objective.node(&extended) - before;
        if delta < best.0 || (delta == best.0 && before < best.1) {
            best = (delta, before, i);
        }
    }
    best.2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeleteOutcome;
    use gauss_storage::{AccessStats, BufferPool, MemStore};

    fn mem_tree(dims: usize, leaf: usize, inner: usize) -> GaussTree<MemStore> {
        let config = TreeConfig::new(dims).with_capacities(leaf, inner);
        let pool = BufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        GaussTree::create(pool, config).unwrap()
    }

    fn pfv1(mu: f64, sigma: f64) -> Pfv {
        Pfv::new(vec![mu], vec![sigma]).unwrap()
    }

    /// Byte offsets of payload fields inside a meta slot page.
    const ALLOCATED_AT: usize = HEADER_BYTES;
    const DIMS_AT: usize = ALLOCATED_AT + 8;
    const LEAF_CAP_AT: usize = DIMS_AT + TreeConfig::TAG_BYTES;
    const ROOT_AT: usize = LEAF_CAP_AT + 4 + 4;
    const FREE_COUNT_AT: usize = META_BASE_BYTES - 8 - 4;

    /// Every page of the store under `t`.
    fn pages_of(t: GaussTree<MemStore>) -> Vec<Vec<u8>> {
        let mut store = t.into_store();
        (0..store.num_pages())
            .map(|i| {
                let mut page = vec![0u8; store.page_size()];
                store.read_page(PageId(i), &mut page).unwrap();
                page
            })
            .collect()
    }

    /// A pool over a fresh store holding exactly `pages` (1 KiB each; an
    /// empty list is a store cut down to nothing).
    fn pool_of(pages: &[Vec<u8>]) -> BufferPool<MemStore> {
        let mut store = MemStore::new(1024);
        for page in pages {
            let id = store.allocate().unwrap();
            store.write_page(id, page).unwrap();
        }
        BufferPool::new(store, 64, AccessStats::new_shared())
    }

    /// The pages of a shadow-paged tree on 1 KiB pages with two commits to
    /// fall between: epoch 2 (slot page 0) holds ids 0..60, epoch 3 (slot
    /// page 1, the newest) ids 30..60 and a free list of the pages the
    /// deletes released.
    fn two_epoch_pages() -> Vec<Vec<u8>> {
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let pool = BufferPool::new(MemStore::new(1024), 1024, AccessStats::new_shared());
        let opts = TreeOptions::new().durability(Durability::Flush);
        let mut t = GaussTree::create_with(pool, config, &opts).unwrap();
        let items: Vec<(u64, Pfv)> = (0..60u64).map(|i| (i, pfv1(i as f64, 0.15))).collect();
        for (id, v) in &items {
            t.insert(*id, v).unwrap();
        }
        t.flush().unwrap();
        for (id, v) in items.iter().take(30) {
            t.delete(*id, v).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(t.epoch(), 3);
        assert!(t.free_page_count() > 0, "epoch 3 must persist a free list");
        pages_of(t)
    }

    #[test]
    fn empty_tree() {
        let t = mem_tree(1, 4, 4);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn insert_grows_len_and_keeps_entries() {
        let mut t = mem_tree(1, 4, 4);
        for i in 0..50u64 {
            t.insert(i, &pfv1(i as f64, 0.1 + (i % 5) as f64 * 0.05))
                .unwrap();
        }
        assert_eq!(t.len(), 50);
        assert!(t.height() >= 1, "50 entries with cap 4 must split");
        let mut seen = Vec::new();
        t.for_each_entry(|id, _| seen.push(id)).unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_wrong_dimensionality() {
        let mut t = mem_tree(2, 4, 4);
        let err = t.insert(0, &pfv1(0.0, 0.1)).unwrap_err();
        assert!(matches!(
            err,
            TreeError::DimMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn persistence_round_trip() {
        let config = TreeConfig::new(2).with_capacities(4, 3);
        let pool = BufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let mut t = GaussTree::create(pool, config).unwrap();
        for i in 0..30u64 {
            let v = Pfv::new(vec![i as f64, -(i as f64)], vec![0.2, 0.3]).unwrap();
            t.insert(i, &v).unwrap();
        }
        t.flush().unwrap();
        let store = t.into_store();
        let pool = BufferPool::new(store, 1024, AccessStats::new_shared());
        let t2 = GaussTree::open(pool).unwrap();
        assert_eq!(t2.len(), 30);
        assert_eq!(t2.dims(), 2);
        let mut n = 0;
        t2.for_each_entry(|_, _| n += 1).unwrap();
        assert_eq!(n, 30);
    }

    #[test]
    fn open_rejects_non_tree() {
        let pool = BufferPool::new(MemStore::new(8192), 16, AccessStats::new_shared());
        assert!(matches!(
            GaussTree::open(pool),
            Err(TreeError::NotAGaussTree)
        ));
        let mut store = MemStore::new(8192);
        store.allocate().unwrap(); // garbage page 0
        let pool = BufferPool::new(store, 16, AccessStats::new_shared());
        assert!(matches!(
            GaussTree::open(pool),
            Err(TreeError::NotAGaussTree)
        ));
    }

    #[test]
    fn bulk_load_matches_inserted_content() {
        let items: Vec<(u64, Pfv)> = (0..200u64)
            .map(|i| (i, pfv1((i % 37) as f64, 0.05 + (i % 7) as f64 * 0.1)))
            .collect();
        let config = TreeConfig::new(1).with_capacities(8, 6);
        let pool = BufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let t = GaussTree::bulk_load(pool, config, items.clone()).unwrap();
        assert_eq!(t.len(), 200);
        let mut seen = Vec::new();
        t.for_each_entry(|id, _| seen.push(id)).unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_single_leaf() {
        let items = vec![(1u64, pfv1(0.0, 0.1)), (2, pfv1(1.0, 0.2))];
        let config = TreeConfig::new(1).with_capacities(8, 6);
        let pool = BufferPool::new(MemStore::new(8192), 16, AccessStats::new_shared());
        let t = GaussTree::bulk_load(pool, config, items).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn bulk_load_empty() {
        let config = TreeConfig::new(1).with_capacities(8, 6);
        let pool = BufferPool::new(MemStore::new(8192), 16, AccessStats::new_shared());
        let t = GaussTree::bulk_load(pool, config, Vec::new()).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn node_cache_serves_decoded_nodes_and_invalidates_on_write() {
        let mut t = mem_tree(1, 4, 4);
        for i in 0..20u64 {
            t.insert(i, &pfv1(i as f64, 0.1)).unwrap();
        }
        let root = t.root_page();
        let a = t.working_plane().read_node_cached(root).unwrap();
        let b = t.working_plane().read_node_cached(root).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "second read must hit the node cache"
        );
        assert!(!t.node_cache().is_empty());

        // Mutation must invalidate: the next read decodes the new bytes.
        t.insert(100, &pfv1(50.0, 0.2)).unwrap();
        let c = t.working_plane().read_node_cached(t.root_page()).unwrap();
        assert!(
            !std::sync::Arc::ptr_eq(&a, &c),
            "write must invalidate the cached decode"
        );
        // And the cached view matches a fresh decode.
        let fresh = t.read_node(t.root_page()).unwrap().into_cached(1);
        assert_eq!(*c, fresh);
    }

    #[test]
    fn node_cache_accounting_matches_plain_reads() {
        // The cached read path must request the page from the pool exactly
        // like the uncached one, so the paper's page-access metrics are
        // unchanged by the decode cache.
        let mut t = mem_tree(1, 4, 4);
        for i in 0..30u64 {
            t.insert(i, &pfv1(i as f64, 0.1)).unwrap();
        }
        let root = t.root_page();
        t.pool().clear_cache_and_stats();
        let _ = t.working_plane().read_node_cached(root).unwrap();
        let _ = t.working_plane().read_node_cached(root).unwrap();
        let snap = t.stats().snapshot();
        assert_eq!(snap.logical_reads, 2, "every cached read stays logical");
        assert_eq!(snap.physical_reads, 1, "first read faults, second hits");
    }

    #[test]
    fn extend_merges_batches_like_single_inserts() {
        let items: Vec<(u64, Pfv)> = (0..120u64)
            .map(|i| (i, pfv1((i % 31) as f64, 0.05 + (i % 5) as f64 * 0.08)))
            .collect();
        let config = TreeConfig::new(1).with_capacities(6, 4);
        let pool = BufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let mut t = GaussTree::bulk_load(pool, config, items).unwrap();

        let run: Vec<(u64, Pfv)> = (200..320u64)
            .map(|i| {
                (
                    i,
                    pfv1((i as f64 * 0.37).sin() * 25.0, 0.1 + (i % 3) as f64 * 0.1),
                )
            })
            .collect();
        assert_eq!(t.extend(run).unwrap(), 120);
        assert_eq!(t.len(), 240);
        let mut seen = Vec::new();
        t.for_each_entry(|id, _| seen.push(id)).unwrap();
        seen.sort_unstable();
        let mut want: Vec<u64> = (0..120).chain(200..320).collect();
        want.sort_unstable();
        assert_eq!(seen, want);
        let errs = t.check_invariants(false).unwrap();
        assert!(errs.is_empty(), "violations after extend: {errs:?}");
    }

    #[test]
    fn extend_into_empty_tree_and_empty_batch() {
        let mut t = mem_tree(1, 4, 4);
        assert_eq!(t.extend(Vec::new()).unwrap(), 0);
        assert!(t.is_empty());
        let run: Vec<(u64, Pfv)> = (0..40u64).map(|i| (i, pfv1(i as f64, 0.2))).collect();
        assert_eq!(t.extend(run).unwrap(), 40);
        assert_eq!(t.len(), 40);
        assert!(t.height() >= 1, "40 entries with cap 4 must have split");
        let errs = t.check_invariants(false).unwrap();
        assert!(errs.is_empty(), "{errs:?}");
        // Plain inserts still work after a batch merge.
        for i in 100..120u64 {
            t.insert(i, &pfv1(i as f64 * 0.3, 0.15)).unwrap();
        }
        assert_eq!(t.len(), 60);
        assert!(t.check_invariants(false).unwrap().is_empty());
    }

    #[test]
    fn extend_rejects_wrong_dims_without_mutation() {
        let mut t = mem_tree(2, 4, 4);
        let err = t.extend(vec![(0u64, pfv1(0.0, 0.1))]).unwrap_err();
        assert!(matches!(err, TreeError::DimMismatch { .. }));
        assert!(t.is_empty());
    }

    #[test]
    fn extend_persists_across_reopen() {
        let config = TreeConfig::new(1).with_capacities(6, 4);
        let pool = BufferPool::new(MemStore::new(4096), 1024, AccessStats::new_shared());
        let items: Vec<(u64, Pfv)> = (0..50u64).map(|i| (i, pfv1(i as f64, 0.2))).collect();
        let mut t = GaussTree::bulk_load(pool, config, items).unwrap();
        t.extend((50..90u64).map(|i| (i, pfv1(i as f64 * 0.5, 0.3))))
            .unwrap();
        t.flush().unwrap();
        let store = t.into_store();
        let pool = BufferPool::new(store, 1024, AccessStats::new_shared());
        let t2 = GaussTree::open(pool).unwrap();
        assert_eq!(t2.len(), 90);
        assert!(t2.check_invariants(false).unwrap().is_empty());
    }

    #[test]
    fn huge_free_list_survives_reopen_via_overflow_chain() {
        // A 1 KiB meta page holds ~121 free ids inline; mass deletion on a
        // small-page tree frees far more. The overflow must persist through
        // the carrier chain: after reopen the full list is back and the
        // page accounting still balances (no false PageLeak).
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let pool = BufferPool::new(MemStore::new(1024), 4096, AccessStats::new_shared());
        let mut t = GaussTree::create(pool, config).unwrap();
        let items: Vec<(u64, Pfv)> = (0..900u64)
            .map(|i| {
                (
                    i,
                    pfv1((i as f64 * 0.61).sin() * 40.0, 0.05 + (i % 9) as f64 * 0.07),
                )
            })
            .collect();
        for (id, v) in &items {
            t.insert(*id, v).unwrap();
        }
        for (id, v) in items.iter().take(850) {
            t.delete(*id, v).unwrap();
        }
        let freed = t.free_page_count();
        let meta_cap = (1024 - super::META_BASE_BYTES) / 8;
        assert!(freed > meta_cap, "need overflow: {freed} <= {meta_cap}");
        assert!(t.check_invariants(false).unwrap().is_empty());
        t.flush().unwrap();

        let store = t.into_store();
        let pool = BufferPool::new(store, 4096, AccessStats::new_shared());
        let t2 = GaussTree::open(pool).unwrap();
        assert_eq!(t2.free_page_count(), freed, "free list truncated on reopen");
        let errs = t2.check_invariants(false).unwrap();
        assert!(errs.is_empty(), "violations after reopen: {errs:?}");
        assert_eq!(t2.len(), 50);
    }

    #[test]
    fn epoch_bumps_and_survives_reopen() {
        let mut t = mem_tree(1, 4, 4);
        assert_eq!(t.epoch(), 1, "create commits the empty tree");
        for i in 0..10u64 {
            t.insert(i, &pfv1(i as f64, 0.1)).unwrap();
        }
        t.flush().unwrap();
        t.flush().unwrap();
        assert_eq!(t.epoch(), 3);
        let store = t.into_store();
        let pool = BufferPool::new(store, 1024, AccessStats::new_shared());
        let (t2, report) = GaussTree::open_with_recovery(pool).unwrap();
        assert_eq!(t2.epoch(), 3);
        assert_eq!(report.epoch, 3);
        assert!(!report.fell_back);
        assert_eq!(report.orphaned_pages, 0);
        assert_eq!(t2.len(), 10);
    }

    #[test]
    fn torn_meta_slot_falls_back_to_previous_epoch() {
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let pool = BufferPool::new(MemStore::new(1024), 1024, AccessStats::new_shared());
        let mut t = GaussTree::create_with(
            pool,
            config,
            &TreeOptions::new().durability(Durability::Fsync),
        )
        .unwrap();
        for i in 0..20u64 {
            t.insert(i, &pfv1(i as f64, 0.1)).unwrap();
        }
        t.flush().unwrap(); // epoch 2 -> slot A
        for i in 20..40u64 {
            t.insert(i, &pfv1(i as f64 * 0.5, 0.2)).unwrap();
        }
        t.flush().unwrap(); // epoch 3 -> slot B
        assert_eq!(t.epoch(), 3);

        // Tear the newest slot (epoch 3 lives in slot B = page 1).
        let mut bytes = t.pool().page(PageId(1)).unwrap().to_vec();
        for b in bytes.iter_mut().skip(512) {
            *b = 0xAA;
        }
        t.pool().write(PageId(1), &bytes).unwrap();

        let store = t.into_store();
        let pool = BufferPool::new(store, 1024, AccessStats::new_shared());
        let (t2, report) = GaussTree::open_with_recovery(pool).unwrap();
        assert_eq!(report.epoch, 2, "must fall back to the intact commit");
        assert!(report.fell_back);
        assert_eq!(t2.len(), 20, "epoch-2 state: first 20 inserts only");
        assert!(t2.check_invariants(false).unwrap().is_empty());
        let mut ids = Vec::new();
        t2.for_each_entry(|id, _| ids.push(id)).unwrap();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn double_free_is_a_hard_error_in_release() {
        let mut t = mem_tree(1, 4, 4);
        let p = t.alloc_page().unwrap();
        t.free_page(p).unwrap();
        let err = t.free_page(p).unwrap_err();
        assert!(matches!(err, TreeError::DoubleFree { page } if page == p.index()));
    }

    #[test]
    fn orphan_pages_are_reclaimed_on_open() {
        let mut t = mem_tree(1, 4, 4);
        for i in 0..15u64 {
            t.insert(i, &pfv1(i as f64, 0.1)).unwrap();
        }
        t.flush().unwrap();
        // Simulate an interrupted mutation: pages allocated after the
        // commit that no meta slot references.
        for _ in 0..3 {
            let _ = t.pool().allocate().unwrap();
        }
        let free_before = t.free_page_count();
        let store = t.into_store();
        let pool = BufferPool::new(store, 1024, AccessStats::new_shared());
        let (t2, report) = GaussTree::open_with_recovery(pool).unwrap();
        assert_eq!(report.orphaned_pages, 3);
        assert_eq!(t2.free_page_count(), free_before + 3);
        assert!(t2.check_invariants(false).unwrap().is_empty());
        // The reclamation was sealed by a commit: a later plain open sees
        // the orphans on the persisted free list, not as orphans again.
        let store = t2.into_store();
        let pool = BufferPool::new(store, 1024, AccessStats::new_shared());
        let (t3, report) = GaussTree::open_with_recovery(pool).unwrap();
        assert_eq!(report.orphaned_pages, 0, "reclamation must be persistent");
        assert_eq!(t3.free_page_count(), free_before + 3);
    }

    #[test]
    fn shadow_paging_defers_reuse_until_commit() {
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let pool = BufferPool::new(MemStore::new(4096), 1024, AccessStats::new_shared());
        let mut t = GaussTree::create_with(
            pool,
            config,
            &TreeOptions::new().durability(Durability::Flush),
        )
        .unwrap();
        let items: Vec<(u64, Pfv)> = (0..60u64).map(|i| (i, pfv1(i as f64, 0.15))).collect();
        for (id, v) in &items {
            t.insert(*id, v).unwrap();
        }
        t.flush().unwrap();
        for (id, v) in items.iter().take(30) {
            t.delete(*id, v).unwrap();
        }
        // Deletion shadow-freed committed pages: they must sit on the
        // deferred list until the commit, not be handed back out.
        assert!(
            !t.free_pending.is_empty(),
            "committed pages freed this epoch are reuse-deferred"
        );
        assert!(t.check_invariants(false).unwrap().is_empty());
        t.flush().unwrap();
        assert!(t.free_pending.is_empty(), "commit promotes deferred frees");
        assert!(!t.free_committed.is_empty());
        assert!(t.check_invariants(false).unwrap().is_empty());
        // And the tree still behaves: reinsert and query.
        for (id, v) in items.iter().take(30) {
            t.insert(*id, v).unwrap();
        }
        assert_eq!(t.len(), 60);
        assert!(t.check_invariants(false).unwrap().is_empty());
    }

    #[test]
    fn truncated_store_is_rejected_cleanly() {
        // A store cut below what the meta commits to must fail with
        // NotAGaussTree (bounds validation), not a decode error deep in
        // read_node.
        let mut t = mem_tree(1, 4, 4);
        for i in 0..40u64 {
            t.insert(i, &pfv1(i as f64, 0.1)).unwrap();
        }
        t.flush().unwrap();
        let full = t.into_store();
        // Copy only the two meta slot pages into a fresh store — a
        // page-aligned truncation that cut away every node. Both slots
        // commit to more pages than the store holds, so both must be
        // rejected by the bounds validation.
        let mut cut = MemStore::new(8192);
        {
            use gauss_storage::store::PageStore as _;
            let mut full = full;
            let mut buf = vec![0u8; 8192];
            for i in 0..2u64 {
                let id = cut.allocate().unwrap();
                full.read_page(PageId(i), &mut buf).unwrap();
                cut.write_page(id, &buf).unwrap();
            }
        }
        let pool = BufferPool::new(cut, 64, AccessStats::new_shared());
        assert!(matches!(
            GaussTree::open(pool),
            Err(TreeError::NotAGaussTree)
        ));
    }

    #[test]
    fn cyclic_free_chain_is_rejected_not_looped() {
        // Carrier pages are outside the slot checksum; a garbage carrier
        // whose header decodes as (next = itself, count = 0) must bound
        // the chain walk and fall back to the previous epoch, not hang.
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let pool = BufferPool::new(MemStore::new(1024), 4096, AccessStats::new_shared());
        let mut t = GaussTree::create(pool, config).unwrap();
        let items: Vec<(u64, Pfv)> = (0..400u64).map(|i| (i, pfv1(i as f64, 0.1))).collect();
        for (id, v) in &items {
            t.insert(*id, v).unwrap();
        }
        for (id, v) in items.iter().take(380) {
            t.delete(*id, v).unwrap();
        }
        t.flush().unwrap(); // epoch 2: overflow chain exists
        t.flush().unwrap(); // epoch 3: a second chain, epoch 2 stays intact
        let newest_slot = PageId(1); // epoch 3 is odd -> slot B
        let slot_bytes = t.pool().page(newest_slot).unwrap();
        // Overflow chain pointer: the last 8 bytes of the fixed v3 header.
        let chain_off = META_BASE_BYTES - 8;
        let first_carrier = PageId(u64::from_le_bytes(
            slot_bytes[chain_off..chain_off + 8].try_into().unwrap(),
        ));
        assert!(first_carrier.is_valid(), "test needs an overflow chain");
        let mut cycle = vec![0u8; 1024];
        cycle[..8].copy_from_slice(&first_carrier.index().to_le_bytes()); // next = itself
        t.pool().write(first_carrier, &cycle).unwrap();

        let store = t.into_store();
        let pool = BufferPool::new(store, 4096, AccessStats::new_shared());
        let t2 = GaussTree::open(pool).unwrap();
        assert_eq!(t2.epoch(), 2, "cyclic chain slot must be rejected");
        assert_eq!(t2.len(), 20);
        assert!(t2.check_invariants(false).unwrap().is_empty());
    }

    #[test]
    fn recovery_fallback_is_sealed_for_later_plain_opens() {
        // A checksum-valid slot whose tree fails verification: plain open
        // happily picks it, open_with_recovery must reject it AND persist
        // that decision so later plain opens stop re-selecting it.
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let pool = BufferPool::new(MemStore::new(1024), 4096, AccessStats::new_shared());
        let mut t = GaussTree::create_with(
            pool,
            config,
            &TreeOptions::new().durability(Durability::Fsync),
        )
        .unwrap();
        for i in 0..20u64 {
            t.insert(i, &pfv1(i as f64, 0.1)).unwrap();
        }
        t.flush().unwrap(); // epoch 2 -> slot A
        for i in 20..40u64 {
            t.insert(i, &pfv1(i as f64 * 0.3, 0.2)).unwrap();
        }
        t.flush().unwrap(); // epoch 3 -> slot B
                            // Corrupt epoch 3 semantically: point its root at some other
                            // in-bounds page and recompute the checksum so parsing passes.
        let slot = PageId(1);
        let mut bytes = t.pool().page(slot).unwrap().to_vec();
        let bogus_root = t.pool().num_pages() - 1;
        bytes[ROOT_AT..ROOT_AT + 8].copy_from_slice(&bogus_root.to_le_bytes());
        commit::seal(META_KIND, 3, &mut bytes);
        t.pool().write(slot, &bytes).unwrap();

        let store = t.into_store();
        let pool = BufferPool::new(store, 4096, AccessStats::new_shared());
        let (t2, report) = GaussTree::open_with_recovery(pool).unwrap();
        assert!(report.fell_back);
        assert_eq!(report.epoch, 2);
        assert_eq!(t2.len(), 20);
        // The seal commits epoch 3 — rewriting exactly the rejected slot.
        assert_eq!(t2.epoch(), 3, "recovery must commit a sealing epoch");

        // The seal persists: a plain (unverified) open now lands on the
        // recovered state instead of the corrupt higher epoch.
        let store = t2.into_store();
        let pool = BufferPool::new(store, 4096, AccessStats::new_shared());
        let t3 = GaussTree::open(pool).unwrap();
        assert_eq!(t3.len(), 20);
        assert!(t3.check_invariants(false).unwrap().is_empty());
    }

    #[test]
    fn durable_flush_issues_ordered_barriers() {
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let pool = BufferPool::new(MemStore::new(4096), 64, AccessStats::new_shared());
        let mut t = GaussTree::create_with(
            pool,
            config,
            &TreeOptions::new().durability(Durability::Fsync),
        )
        .unwrap();
        assert_eq!(
            t.stats().snapshot().syncs,
            2,
            "create's commit pays a data barrier and a commit barrier"
        );
        t.insert(1, &pfv1(0.5, 0.1)).unwrap();
        t.flush().unwrap();
        assert_eq!(t.stats().snapshot().syncs, 4);
        // Durability::None trees never sync.
        let pool = BufferPool::new(MemStore::new(4096), 64, AccessStats::new_shared());
        let t2 = GaussTree::create(pool, config).unwrap();
        assert_eq!(t2.stats().snapshot().syncs, 0);
    }

    #[test]
    fn insert_after_bulk_load() {
        let items: Vec<(u64, Pfv)> = (0..100u64).map(|i| (i, pfv1(i as f64, 0.1))).collect();
        let config = TreeConfig::new(1).with_capacities(8, 6);
        let pool = BufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let mut t = GaussTree::bulk_load(pool, config, items.clone()).unwrap();
        // Packed: 13 leaves of 7–8 entries under 3 inner nodes and a root.
        assert_eq!(t.pool().num_pages() - META_PAGES, 13 + 3 + 1);
        assert!(t.check_invariants(true).unwrap().is_empty());
        // The first insert into a full leaf splits it.
        for i in 100..150u64 {
            t.insert(i, &pfv1(i as f64 * 0.5, 0.2)).unwrap();
            assert!(t.check_invariants(true).unwrap().is_empty(), "insert {i}");
        }
        assert_eq!(t.len(), 150);
        t.extend((150..230u64).map(|i| (i, pfv1(i as f64 * 0.3 - 20.0, 0.15))))
            .unwrap();
        assert_eq!(t.len(), 230);
        assert!(t.check_invariants(true).unwrap().is_empty(), "extend");
        for (id, v) in items.iter().step_by(3) {
            assert_eq!(t.delete(*id, v).unwrap(), DeleteOutcome::Deleted);
            assert!(t.check_invariants(true).unwrap().is_empty(), "delete {id}");
        }
        assert_eq!(t.len(), 230 - 34);
        let mut n = 0;
        t.for_each_entry(|_, _| n += 1).unwrap();
        assert_eq!(n, 230 - 34);
    }

    fn quantised_mem_tree(dims: usize, leaf: usize, inner: usize) -> GaussTree<MemStore> {
        let config = TreeConfig::new(dims).with_capacities(leaf, inner);
        let pool = BufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        GaussTree::create_with(
            pool,
            config,
            &TreeOptions::new().leaf_format(LeafFormat::Quantised),
        )
        .unwrap()
    }

    #[test]
    fn quantised_tree_stores_rounded_parameters() {
        let mut t = quantised_mem_tree(1, 4, 4);
        assert_eq!(t.config().leaf_format, LeafFormat::Quantised);
        // 0.1 is not f32-exact: the stored parameters must be the rounded
        // ones, every one of them exactly f32-representable.
        for i in 0..40u64 {
            t.insert(i, &pfv1(i as f64 + 0.1, 0.1)).unwrap();
        }
        let mut checked = 0;
        t.for_each_entry(|_, v| {
            for &x in v.means().iter().chain(v.sigmas()) {
                assert!(
                    pfv::quant::is_f32_exact(x),
                    "stored value {x:e} not rounded"
                );
            }
            checked += 1;
        })
        .unwrap();
        assert_eq!(checked, 40);
        // The quantise-stability invariant passes (and would catch a write
        // path that skipped rounding).
        assert!(t.check_invariants(false).unwrap().is_empty());
    }

    #[test]
    fn quantised_tree_queries_match_brute_force_over_stored_parameters() {
        let mut t = quantised_mem_tree(2, 4, 4);
        let items: Vec<(u64, Pfv)> = (0..120u64)
            .map(|i| {
                let v = Pfv::new(
                    vec![(i as f64 * 0.37).sin() * 9.0, (i as f64 * 0.59).cos() * 9.0],
                    vec![0.1 + (i % 5) as f64 * 0.07, 0.2 + (i % 3) as f64 * 0.05],
                )
                .unwrap();
                (i, v)
            })
            .collect();
        for (id, v) in &items {
            t.insert(*id, v).unwrap();
        }
        // Brute force over the *stored* (quantised) parameters.
        let mode = t.config().combine;
        let mut stored: Vec<(u64, Pfv)> = Vec::new();
        t.for_each_entry(|id, v| stored.push((id, v.clone())))
            .unwrap();
        let q = Pfv::new(vec![1.25, -2.5], vec![0.25, 0.5]).unwrap();
        let mut expect: Vec<(f64, u64)> = stored
            .iter()
            .map(|(id, v)| (pfv::combine::log_joint(mode, v, &q), *id))
            .collect();
        expect.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let got = t.k_mliq(&q, 7).unwrap();
        assert_eq!(got.len(), 7);
        for (r, (ld, id)) in got.iter().zip(&expect) {
            assert_eq!(r.id, *id);
            assert_eq!(r.log_density, *ld, "density must be exact, not approximate");
        }
    }

    #[test]
    fn quantised_format_survives_reopen() {
        let mut t = quantised_mem_tree(1, 4, 4);
        for i in 0..30u64 {
            t.insert(i, &pfv1(i as f64 * 0.3, 0.1)).unwrap();
        }
        t.flush().unwrap();
        let store = t.into_store();
        let pool = BufferPool::new(store, 1024, AccessStats::new_shared());
        let t2 = GaussTree::open(pool).unwrap();
        assert_eq!(t2.config().leaf_format, LeafFormat::Quantised);
        assert_eq!(t2.len(), 30);
        assert!(t2.check_invariants(false).unwrap().is_empty());
        let mut n = 0;
        t2.for_each_entry(|_, v| {
            assert!(v
                .means()
                .iter()
                .chain(v.sigmas())
                .all(|&x| pfv::quant::is_f32_exact(x)));
            n += 1;
        })
        .unwrap();
        assert_eq!(n, 30);
    }

    #[test]
    fn quantised_ingest_rejects_out_of_range_values() {
        let mut t = quantised_mem_tree(1, 4, 4);
        // |μ| beyond the f32 range cannot be stored losslessly.
        let err = t.insert(1, &pfv1(1e39, 0.1)).unwrap_err();
        assert!(matches!(err, TreeError::QuantisationRange { dim: 0, .. }));
        assert_eq!(t.len(), 0, "failed insert must not change the tree");
        // The exact format accepts the same value.
        let mut exact = mem_tree(1, 4, 4);
        exact.insert(1, &pfv1(1e39, 0.1)).unwrap();
    }

    #[test]
    fn quantised_bulk_load_rounds_the_stream() {
        let items: Vec<(u64, Pfv)> = (0..200u64)
            .map(|i| (i, pfv1(i as f64 * 0.7 + 0.1, 0.05 + (i % 7) as f64 * 0.1)))
            .collect();
        let config = TreeConfig::new(1)
            .with_capacities(8, 6)
            .with_leaf_format(LeafFormat::Quantised);
        let pool = BufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let t = GaussTree::bulk_load(pool, config, items).unwrap();
        assert_eq!(t.len(), 200);
        assert!(t.check_invariants(false).unwrap().is_empty());

        // An unquantisable item surfaces its range error.
        let config = TreeConfig::new(1)
            .with_capacities(8, 6)
            .with_leaf_format(LeafFormat::Quantised);
        let pool = BufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let bad = vec![(0u64, pfv1(0.5, 0.1)), (1, pfv1(-1e39, 0.1))];
        assert!(matches!(
            GaussTree::bulk_load(pool, config, bad),
            Err(TreeError::QuantisationRange { .. })
        ));
    }

    #[test]
    fn v1_and_v2_headers_are_refused() {
        // The pre-dual-slot layout: one unchecksummed meta page at page 0,
        // the root leaf at page 1 — here with a free count that a reader
        // trusting it would turn into a 34 GB allocation.
        let mut v1 = vec![0u8; 1024];
        let mut w = Writer::new(&mut v1);
        w.put_u32(META_KIND.magic);
        w.put_u32(1);
        TreeConfig::new(1).write_tags(&mut w);
        w.put_u32(4); // leaf cap
        w.put_u32(4); // inner cap
        w.put_u64(1); // root
        w.put_u32(0); // height
        w.put_u64(0); // len
        w.put_u32(u32::MAX); // free count
        w.put_u64(PageId::INVALID.index());
        let mut leaf = vec![0u8; 1024];
        Node::Leaf(Vec::new()).write_to(1, LeafFormat::Exact, &mut leaf);
        let pages = [v1, leaf];
        assert!(matches!(
            GaussTree::open(pool_of(&pages)),
            Err(TreeError::NotAGaussTree)
        ));
        assert!(matches!(
            GaussTree::open_with_recovery(pool_of(&pages)),
            Err(TreeError::NotAGaussTree)
        ));

        // A current slot relabelled as version 2, 1 or 4 under a checksum
        // that is valid for that label: not a commit this code reads.
        let clean = two_epoch_pages();
        for version in [1, 2, 4] {
            let mut pages = clean.clone();
            let other = SlotKind {
                version,
                ..META_KIND
            };
            commit::seal(other, 3, &mut pages[1]);
            let t = GaussTree::open(pool_of(&pages)).unwrap();
            assert_eq!(t.epoch(), 2, "version {version} must lose to epoch 2");
            commit::seal(other, 2, &mut pages[0]);
            assert!(matches!(
                GaussTree::open(pool_of(&pages)),
                Err(TreeError::NotAGaussTree)
            ));
        }
    }

    #[test]
    fn hostile_free_count_behind_a_valid_checksum_is_refused() {
        let clean = two_epoch_pages();
        let plant = |page: &mut Vec<u8>, epoch: u64, count: u32| {
            page[FREE_COUNT_AT..FREE_COUNT_AT + 4].copy_from_slice(&count.to_le_bytes());
            commit::seal(META_KIND, epoch, page);
        };
        let fits = u32::try_from((1024 - META_BASE_BYTES) / 8).unwrap();
        for count in [u32::MAX, u32::MAX / 8, fits + 1] {
            let mut pages = clean.clone();
            plant(&mut pages[1], 3, count);
            let (t, report) = GaussTree::open_with_recovery(pool_of(&pages)).unwrap();
            assert_eq!((report.epoch, report.fell_back), (2, true), "count {count}");
            assert_eq!(t.len(), 60);
            plant(&mut pages[0], 2, count);
            assert!(matches!(
                GaussTree::open(pool_of(&pages)),
                Err(TreeError::NotAGaussTree)
            ));
        }
        // The largest count the slot can hold is read (and then refused
        // for what it lists: page 0 is not a free page).
        let mut pages = clean.clone();
        plant(&mut pages[1], 3, fits);
        assert_eq!(GaussTree::open(pool_of(&pages)).unwrap().epoch(), 2);
    }

    mod meta_slot_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Hostile bytes in the newest meta slot, hostile numbers behind
            /// a recomputed checksum, a store cut short: open answers with
            /// the same tree, the older epoch or `NotAGaussTree` — it does
            /// not panic, and it allocates nothing a slot merely asks for.
            #[test]
            fn mutated_meta_slot_is_refused_or_equal(
                (mutation, a, b, flips) in (0usize..5, 0usize..4096, 0u64..u64::MAX, 1usize..9)
            ) {
                let clean = two_epoch_pages();
                let mut pages = clean.clone();
                let slot = &mut pages[1];
                match mutation {
                    // 1–8 bit flips anywhere in the slot page.
                    0 => for k in 0..flips {
                        slot[(a + k * 131) % 1024] ^= 1 << ((b >> (3 * k)) & 7);
                    },
                    // A zeroed run, as a hole in a torn write would leave.
                    1 => {
                        let from = a % 1024;
                        slot[from..(from + 1 + b as usize % 256).min(1024)].fill(0);
                    }
                    // The store cut short, slot pages included.
                    2 => pages.truncate(a % clean.len()),
                    // A free count the slot cannot hold, checksum valid.
                    3 => {
                        let fits = (1024 - META_BASE_BYTES) / 8;
                        let count = [u32::MAX, (fits + 1 + a) as u32][b as usize % 2];
                        slot[FREE_COUNT_AT..FREE_COUNT_AT + 4].copy_from_slice(&count.to_le_bytes());
                        commit::seal(META_KIND, 3, slot);
                    }
                    // Any other number of the payload, checksum valid.
                    _ => {
                        let at = [ALLOCATED_AT, DIMS_AT, LEAF_CAP_AT, LEAF_CAP_AT + 4, ROOT_AT,
                            ROOT_AT + 8, ROOT_AT + 12, FREE_COUNT_AT + 4][a % 8];
                        let v = [u64::MAX, u64::from(u32::MAX), 0, b][b as usize % 4];
                        let width = if at == DIMS_AT || at == LEAF_CAP_AT || at == LEAF_CAP_AT + 4 { 4 } else { 8 };
                        slot[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                        commit::seal(META_KIND, 3, slot);
                    }
                }
                let damaged = pages != clean;
                match GaussTree::open(pool_of(&pages)) {
                    Err(TreeError::NotAGaussTree) => prop_assert!(mutation == 2, "epoch 2 was intact"),
                    Err(e) => prop_assert!(false, "untyped failure: {e}"),
                    Ok(t) if t.epoch() == 2 => {
                        prop_assert!(damaged);
                        prop_assert_eq!(t.len(), 60);
                    }
                    Ok(t) => {
                        prop_assert_eq!(t.epoch(), 3);
                        // Only a resealed payload can differ and still be
                        // taken at its word.
                        prop_assert!(!damaged || mutation == 4);
                        prop_assert!(mutation == 4 || t.len() == 30);
                    }
                }
                // The verified open holds what it returns to the invariants.
                match GaussTree::open_with_recovery(pool_of(&pages)) {
                    Err(TreeError::NotAGaussTree) => prop_assert!(mutation == 2),
                    Err(e) => prop_assert!(false, "untyped failure: {e}"),
                    Ok((t, report)) => {
                        prop_assert!(t.check_invariants(false).unwrap().is_empty());
                        prop_assert_eq!(t.len(), if report.epoch == 3 { 30 } else { 60 });
                    }
                }
            }
        }
    }
}
