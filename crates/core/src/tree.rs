//! The Gauss-tree structure: bulk loading, opening, and the paper's
//! insertion for in-memory trees.
//!
//! **A tree file is written once, and the forest is the durable writer.**
//! [`GaussTree::bulk_load`] writes every node page and then commits exactly
//! once; [`GaussTree::open`] reads that commit, and nothing mutates the tree
//! afterwards. The paper's §5 [`insert`](GaussTree::insert) and
//! [`extend`](GaussTree::extend) write in place and exist only on
//! `GaussTree<MemStore>` — the in-memory structure the split and insertion
//! experiments measure — so the type system, not a runtime policy, keeps
//! them off a committed file. An index that changes is a
//! [`GaussForest`](crate::GaussForest): it takes inserts, upserts and
//! deletes into a memtable, bulk-loads every flush into a fresh write-once
//! component, commits its manifest crash-atomically, and a
//! [`ForestSnapshot`](crate::ForestSnapshot) holds one `Arc<GaussTree>` per
//! component for snapshot isolation.
//!
//! Persistence: pages 0–1 of the store are the two slots of
//! [`gauss_storage::commit`], which owns the slot header, the checksum,
//! the choice of the newest valid slot and the barrier → slot write →
//! barrier order. This module owns what a tree commits — the *payload*
//! (meta format v4: the store size, configuration, capacities, root /
//! height / length and a free-id list) — and its validation: every page id
//! is bounds-checked against the store before anything is read through it.
//! A bulk load commits an empty free list. v4 is v3's payload; the version
//! marks the `f32` inner pages of [`crate::node`], so a v3 file (including
//! every file the earlier in-place writer left with a free list) is refused
//! as [`TreeError::NotAGaussTree`]. So is a slot that lists a free id or
//! names an overflow chain: no writer of v4 makes one. Pages past the
//! committed allocation are counted as dead.

use crate::bulk::{BulkLoadOptions, BulkLoadReport};
use crate::config::{LeafFormat, TreeConfig};
use crate::node::{CachedNode, InnerEntry, LeafEntry, Node, NodeCodecError};
use crate::split::{group_rect, partition, SplitCost, Splittable};
use crate::view::Plane;
use gauss_storage::commit::{self, SlotKind, HEADER_BYTES};
use gauss_storage::store::{Durability, PageStore, StoreError};
use gauss_storage::{MemStore, PageId, Reader, SharedBufferPool, SideCache, WriteBatch, Writer};
use pfv::{quant, Pfv};
use std::collections::BTreeMap;

/// A tree meta slot: magic "GTRE", format version 4 — the only version
/// read or written. Versions 1 (a single unchecksummed meta page), 2 (no
/// leaf-format byte) and 3 (the v4 payload over `f64` inner rectangles,
/// which would parse as `f32` entries; see [`crate::node`]) are refused
/// like any other foreign header.
pub(crate) const META_KIND: SlotKind = SlotKind {
    magic: 0x4754_5245,
    version: 4,
};

/// Pages 0 and 1 hold commit slots 0 and 1; node pages start behind them.
pub(crate) const META_PAGES: u64 = 2;

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
            TreeError::QuantisationRange { dim, value } => {
                write!(
                    f,
                    "value {value:e} in dimension {dim} does not fit the quantised leaf format"
                )
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

/// The Gauss-tree (Definition 4 of the paper).
///
/// Nodes live behind a [`SharedBufferPool`], so every query (`k_mliq*`,
/// `tiq*`, `for_each_entry`, cursors — all provided by the
/// [`ReadView`](crate::ReadView) trait) and
/// [`check_invariants`](GaussTree::check_invariants) take `&self`, and many
/// threads may query one tree concurrently (see [`crate::executor`]).
/// Every constructor takes the [`SharedBufferPool`] the tree lives in.
///
/// A tree on any store is built by [`GaussTree::bulk_load`] and read back
/// by [`GaussTree::open`]; an owning view to hand to other threads is just
/// an `Arc<GaussTree<S>>`. Only an in-memory tree grows by the paper's
/// insertion — a file tree has no `insert`:
///
/// ```compile_fail,E0599
/// use gauss_storage::FileStore;
/// use gauss_tree::GaussTree;
/// use pfv::Pfv;
///
/// fn append(tree: &mut GaussTree<FileStore>, v: &Pfv) {
///     tree.insert(7, v).unwrap();
/// }
/// ```
///
/// See the [crate docs](crate) for an overview and an example.
#[derive(Debug)]
pub struct GaussTree<S: PageStore> {
    pool: SharedBufferPool<S>,
    /// Decoded-node companion cache: pages already paid for via the pool
    /// are kept in query-ready form ([`CachedNode`] — columnar leaves,
    /// inner columns) so the read hot path never re-parses bytes. Never
    /// consulted without first requesting the page from the pool, so
    /// access accounting is unchanged; invalidated by every node write of
    /// an in-memory tree.
    node_cache: SideCache<CachedNode>,
    config: TreeConfig,
    leaf_cap: usize,
    inner_cap: usize,
    /// Epoch of the commit the tree was built or opened at (0 for an
    /// in-memory tree, which never commits).
    epoch: u64,
    root: PageId,
    height: u32,
    len: u64,
    /// Allocated node pages the tree does not reach: pages past the
    /// committed allocation. Empty for every tree this version writes.
    dead: Vec<PageId>,
}

/// Builder-style options for [`GaussTree::open_with`] and
/// [`GaussTree::create_with`]: the decoded-node cache size. A new tree's
/// leaf format is its [`TreeConfig`]'s
/// ([`TreeConfig::with_leaf_format`]).
///
/// ```
/// use gauss_tree::TreeOptions;
///
/// let opts = TreeOptions::new().node_cache_capacity(4096);
/// # let _ = opts;
/// ```
#[derive(Debug, Clone, Default)]
pub struct TreeOptions {
    node_cache_capacity: Option<usize>,
}

impl TreeOptions {
    /// Default options: decoded-node cache sized to the buffer pool's frame
    /// capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Has no effect. A tree file is written once, by the bulk loader, at
    /// [`BulkLoadOptions::durability`]; [`GaussTree::open_with`] writes
    /// nothing for a policy to govern. Kept so existing callers compile.
    #[must_use]
    pub fn durability(self, _durability: Durability) -> Self {
        self
    }

    /// Capacity (in nodes) of the decoded-node companion cache. Defaults
    /// to the buffer pool's frame capacity.
    #[must_use]
    pub fn node_cache_capacity(mut self, nodes: usize) -> Self {
        self.node_cache_capacity = Some(nodes);
        self
    }

    /// The decoded-node cache capacity for a pool of `pool_cap` frames.
    fn cache_cap(&self, pool_cap: usize) -> usize {
        self.node_cache_capacity.unwrap_or(pool_cap).max(1)
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
}

/// Parses the payload of a meta slot that is a valid commit of `epoch`
/// and checks it against the store: `None` if this store cannot be the one
/// it was committed on (truncated, out of bounds, a bad tag), so an older
/// slot may still be read, and [`TreeError::NotAGaussTree`] for a slot that
/// lists free ids or names a chain of carrier pages holding more. Only the
/// in-place writer of earlier versions left either, and the older slot of
/// its file may name pages it has since overwritten in place — so the
/// store is refused, not read at a stale epoch.
fn parse_meta(
    page_size: usize,
    epoch: u64,
    payload: &[u8],
    allocated_now: u64,
) -> Option<Result<ParsedMeta, TreeError>> {
    let mut r = Reader::new(payload);
    let allocated = r.get_u64().ok()?;
    let mut config = TreeConfig::read_tags(&mut r)?;
    // A node of this dimensionality must hold two entries on a page of
    // this store (`leaf_capacity` / `inner_capacity` assert it).
    let widest = config.inner_entry_bytes().max(config.leaf_entry_bytes());
    if crate::node::NODE_HEADER_BYTES + 2 * widest > page_size {
        return None;
    }
    let leaf_cap = r.get_u32().ok()? as usize;
    let inner_cap = r.get_u32().ok()? as usize;
    let root = PageId(r.get_u64().ok()?);
    let height = r.get_u32().ok()?;
    let len = r.get_u64().ok()?;
    // Every referenced id must be in bounds *of the committed allocation*,
    // which itself must fit the store — a truncated file fails here with a
    // clean rejection instead of a decode error deep inside `read_node`.
    // The caps must fit a page of this store, and `len` the leaves the
    // allocation could hold: both size allocations further on.
    if !(2..=config.leaf_capacity(page_size)).contains(&leaf_cap)
        || !(2..=config.inner_capacity(page_size)).contains(&inner_cap)
        || allocated <= META_PAGES
        || allocated > allocated_now
        || root.index() < META_PAGES
        || root.index() >= allocated
        || (allocated - META_PAGES)
            .checked_mul(leaf_cap as u64)
            .is_none_or(|most| len > most)
    {
        return None;
    }
    let free_count = r.get_u32().ok()?;
    let chain = PageId(r.get_u64().ok()?);
    if free_count != 0 || chain.is_valid() {
        return Some(Err(TreeError::NotAGaussTree));
    }
    config.max_leaf_entries = Some(leaf_cap);
    config.max_inner_entries = Some(inner_cap);
    Some(Ok(ParsedMeta {
        epoch,
        allocated,
        config,
        root,
        height,
        len,
    }))
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
    #[expect(clippy::expect_used, reason = "quantised parameters are valid pfv")]
    let q = Pfv::new(means, sigmas).expect("quantised parameters are valid");
    Ok(Some(q))
}

impl<S: PageStore> GaussTree<S> {
    /// What both builders start from: an empty store with the two commit
    /// slots allocated (pages 0–1, not yet written) and no root.
    fn shell(
        pool: SharedBufferPool<S>,
        config: TreeConfig,
        opts: &TreeOptions,
    ) -> Result<Self, TreeError> {
        if pool.num_pages() != 0 {
            return Err(TreeError::Corrupt("a tree is built on an empty store"));
        }
        let page_size = pool.page_size();
        let slots = (pool.allocate()?, pool.allocate()?);
        debug_assert_eq!(slots, (PageId(0), PageId(1)));
        Ok(Self {
            node_cache: SideCache::new(opts.cache_cap(pool.capacity())),
            pool,
            leaf_cap: config.leaf_capacity(page_size),
            inner_cap: config.inner_capacity(page_size),
            config,
            epoch: 0,
            root: PageId::INVALID,
            height: 0,
            len: 0,
            dead: Vec::new(),
        })
    }

    /// Opens the tree committed in a store with default [`TreeOptions`].
    ///
    /// Both meta slots are validated — magic, version, checksum
    /// ([`gauss_storage::commit`]), then every page id the payload names
    /// bounds-checked against the store — and the highest valid epoch
    /// wins, so a store whose newest slot is torn opens at the older one.
    ///
    /// # Errors
    /// [`TreeError::NotAGaussTree`] if no valid metadata is found; store
    /// errors otherwise.
    pub fn open(pool: SharedBufferPool<S>) -> Result<Self, TreeError> {
        Self::open_with(pool, &TreeOptions::default())
    }

    /// Opens the tree committed in a store under the given
    /// [`TreeOptions`] (only the cache size applies).
    ///
    /// # Errors
    /// As [`GaussTree::open`].
    pub fn open_with(pool: SharedBufferPool<S>, opts: &TreeOptions) -> Result<Self, TreeError> {
        let allocated_now = pool.num_pages();
        // A slot page the store does not have was never written.
        let mut pages = [None, None];
        for (slot, page) in (0..allocated_now).zip(&mut pages) {
            *page = Some(pool.page(PageId(slot))?);
        }
        let meta = commit::valid_slots(META_KIND, [pages[0].as_deref(), pages[1].as_deref()])
            .valid
            .into_iter()
            .find_map(|(epoch, payload)| {
                parse_meta(pool.page_size(), epoch, payload, allocated_now)
            })
            .ok_or(TreeError::NotAGaussTree)??;
        let dead = (meta.allocated..allocated_now).map(PageId).collect();
        let page_size = pool.page_size();
        Ok(Self {
            node_cache: SideCache::new(opts.cache_cap(pool.capacity())),
            pool,
            leaf_cap: meta.config.leaf_capacity(page_size),
            inner_cap: meta.config.inner_capacity(page_size),
            config: meta.config,
            epoch: meta.epoch,
            root: meta.root,
            height: meta.height,
            len: meta.len,
            dead,
        })
    }

    /// Consumes the tree and returns the underlying page store.
    #[must_use]
    pub fn into_store(self) -> S {
        self.pool.into_store()
    }

    /// Bulk-loads a tree from `(id, pfv)` pairs (STR-style recursive
    /// partitioning driven by the configured split cost — an extension over
    /// the paper's incremental insertion) into an empty store, and commits
    /// it once.
    ///
    /// Pages are packed: `⌈n / leaf_capacity⌉` leaves and, per level above,
    /// `⌈len / inner_capacity⌉` consecutive runs of the level below, so a
    /// later in-memory [`insert`](Self::insert) or [`extend`](Self::extend)
    /// splits a full leaf on its first touch.
    ///
    /// Runs the pipeline of [`GaussTree::bulk_load_with`] with
    /// [`BulkLoadOptions::default`]: single-threaded, fully resident,
    /// batched page writes, no durability barriers.
    ///
    /// # Errors
    /// Propagates store errors; rejects dimensionality mismatches and a
    /// non-empty store.
    pub fn bulk_load(
        pool: SharedBufferPool<S>,
        config: TreeConfig,
        items: impl IntoIterator<Item = (u64, Pfv)>,
    ) -> Result<Self, TreeError> {
        Ok(Self::bulk_load_with(pool, config, items, &BulkLoadOptions::default())?.0)
    }

    /// Bulk-loads a tree through the full ingest pipeline (see
    /// [`crate::bulk`]): streaming consumption of `items` under an
    /// optional memory budget, past which items spill to one temp file as
    /// exact leaf pages, the leaf partitioning fanned across worker
    /// threads, and node pages written in coalesced batches. Pages are
    /// packed as in [`bulk_load`](Self::bulk_load). The produced tree is
    /// **byte-identical** to the serial fully-resident build for every
    /// thread count and memory budget.
    ///
    /// The one commit comes last, through [`commit::commit`]: a data
    /// barrier at [`BulkLoadOptions::durability`], the write of slot 1
    /// (epoch 1), a commit barrier. Until that slot write lands the store
    /// holds no valid slot, so a crash anywhere in the load leaves a store
    /// that [`open`](Self::open) refuses as [`TreeError::NotAGaussTree`] —
    /// never a torn tree.
    ///
    /// # Errors
    /// Propagates store errors; rejects dimensionality mismatches and a
    /// non-empty store.
    pub fn bulk_load_with(
        pool: SharedBufferPool<S>,
        config: TreeConfig,
        items: impl IntoIterator<Item = (u64, Pfv)>,
        opts: &BulkLoadOptions,
    ) -> Result<(Self, BulkLoadReport), TreeError> {
        Self::build(pool, config, items, opts, true)
    }

    /// [`GaussTree::bulk_load_with`], with splits priced at the input's
    /// typical σ (`at_input_spread`) or at σ_q = 0, the baseline the
    /// page-count tests compare against (see [`crate::split`]).
    pub(crate) fn build(
        pool: SharedBufferPool<S>,
        config: TreeConfig,
        items: impl IntoIterator<Item = (u64, Pfv)>,
        opts: &BulkLoadOptions,
        at_input_spread: bool,
    ) -> Result<(Self, BulkLoadReport), TreeError> {
        let mut tree = Self::shell(pool, config, &TreeOptions::new())?;
        // Quantise while streaming: the bulk pipeline never re-reads the
        // source, so rounding here covers every leaf it will write. An
        // unquantisable item stops the stream, and the load fails before
        // its commit.
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
        let (report, root, height) = crate::bulk::run(&tree, quantised, opts, at_input_spread)?;
        if let Some(e) = quant_err {
            return Err(e);
        }
        (tree.root, tree.height, tree.len) = (root, height, report.total_entries);
        tree.commit(opts.durability)?;
        Ok((tree, report))
    }

    /// Commits the tree as the next epoch through [`commit::commit`]: a
    /// data barrier at `durability` over every node page, the slot write,
    /// a commit barrier. The free list is empty and no overflow chain is
    /// named, as meta format v4 spells it.
    #[expect(clippy::expect_used, reason = "capacities are far below u32::MAX")]
    fn commit(&mut self, durability: Durability) -> Result<(), TreeError> {
        let epoch = self.epoch + 1;
        let mut page = vec![0u8; self.pool.page_size()];
        let mut w = Writer::new(&mut page[HEADER_BYTES..]);
        w.put_u64(self.pool.num_pages());
        self.config.write_tags(&mut w);
        w.put_u32(u32::try_from(self.leaf_cap).expect("leaf cap fits u32"));
        w.put_u32(u32::try_from(self.inner_cap).expect("inner cap fits u32"));
        w.put_u64(self.root.index());
        w.put_u32(self.height);
        w.put_u64(self.len);
        w.put_u32(0);
        w.put_u64(PageId::INVALID.index());
        let sync = || self.pool.sync(durability);
        commit::commit(
            META_KIND,
            epoch,
            &mut page,
            sync,
            |slot, image| self.pool.write(PageId(slot as u64), image),
            sync,
        )?;
        self.epoch = epoch;
        Ok(())
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

    /// Epoch of the commit the tree was built or opened at (1 for every
    /// bulk load; 0 for an in-memory tree, which never commits).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Access to the buffer pool (stats, cold start, raw page access). All
    /// pool operations take `&self` — the pool has interior mutability.
    ///
    /// Writing node pages through this handle bypasses the decoded-node
    /// cache; read through the tree API instead.
    #[must_use]
    pub fn pool(&self) -> &SharedBufferPool<S> {
        &self.pool
    }

    /// Shared access statistics of the buffer pool.
    #[must_use]
    pub fn stats(&self) -> &std::sync::Arc<gauss_storage::AccessStats> {
        self.pool.stats()
    }

    /// The decoded-node companion cache (size/occupancy introspection).
    #[must_use]
    pub fn node_cache(&self) -> &SideCache<CachedNode> {
        &self.node_cache
    }

    /// Cold start for measurement loops: drops the buffer pool's cached
    /// frames, zeroes the access counters, **and** clears the decoded-node
    /// cache. `pool().clear_cache_and_stats()` alone leaves the decoded
    /// nodes warm — a node still decoded is read without its page, so
    /// physical-read counts and CPU timings would both skip work and depend
    /// on what ran before.
    pub fn cold_start(&self) {
        self.pool.clear_cache_and_stats();
        self.node_cache.clear();
    }

    /// Allocated node pages the tree does not reach (for the invariant
    /// checker's page accounting).
    pub(crate) fn dead_pages(&self) -> &[PageId] {
        &self.dead
    }

    /// Serialises `node` into a fresh page-sized buffer.
    fn encode_node(&self, node: &Node) -> Vec<u8> {
        let mut buf = vec![0u8; self.pool.page_size()];
        node.write_to(self.config.dims, self.config.leaf_format, &mut buf);
        buf
    }

    /// Stages `node` for `page` in a [`WriteBatch`] (group commit).
    pub(crate) fn stage_node(&self, batch: &mut WriteBatch, page: PageId, node: &Node) {
        batch.put(page, &self.encode_node(node));
    }

    /// Flushes a staged [`WriteBatch`] through the pool (coalesced runs).
    pub(crate) fn commit_batch(&self, batch: &mut WriteBatch) -> Result<(), TreeError> {
        self.pool.write_batch(batch)?;
        Ok(())
    }

    /// Reads and decodes the node stored at `page`.
    ///
    /// # Errors
    /// Store / codec errors.
    pub(crate) fn read_node(&self, page: PageId) -> Result<Node, TreeError> {
        self.tree_plane().read_node(page)
    }

    /// The read-plane of this tree — what [`ReadView`](crate::ReadView)
    /// queries on `&GaussTree` observe, and one component of a forest
    /// snapshot's view.
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

/// The paper's incremental construction (§5.3), on an in-memory tree only:
/// nodes are rewritten in place, which a committed file must never see.
impl GaussTree<MemStore> {
    /// Creates an empty in-memory Gauss-tree with default [`TreeOptions`].
    ///
    /// # Errors
    /// Propagates store errors; fails if the page size cannot hold two
    /// entries of the configured dimensionality.
    pub fn create(pool: SharedBufferPool<MemStore>, config: TreeConfig) -> Result<Self, TreeError> {
        Self::create_with(pool, config, &TreeOptions::default())
    }

    /// Creates an empty in-memory Gauss-tree under the given
    /// [`TreeOptions`].
    ///
    /// # Errors
    /// Propagates store errors; rejects a non-empty store (the commit
    /// slots own pages 0–1).
    pub fn create_with(
        pool: SharedBufferPool<MemStore>,
        config: TreeConfig,
        opts: &TreeOptions,
    ) -> Result<Self, TreeError> {
        let mut tree = Self::shell(pool, config, opts)?;
        tree.root = tree.pool.allocate()?;
        tree.write_node(tree.root, &Node::Leaf(Vec::new()))?;
        Ok(tree)
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

    /// Batch-inserts a run of `(id, pfv)` pairs.
    ///
    /// Unlike looping [`GaussTree::insert`], the whole run descends the
    /// tree **once**: at every inner node the batch is routed to child
    /// subtrees with the §5.3 subtree-selection rule and merged group-wise,
    /// so each touched node is rewritten a single time per batch instead of
    /// once per item, and a node overfilled to `n` entries is written as
    /// `⌈n / capacity⌉` packed groups in one go. Returns the number of
    /// items added.
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

    /// Writes `entries` as one node if they fit `cap`, and otherwise as the
    /// `⌈len / cap⌉` packed groups of `split::partition` (priced at the
    /// entries' own σ̄), the bulk loader's leaf grouping; a single insert's
    /// overflow is one two-way split. Returns the parent's entry for each
    /// node written. The first overwrites the node at `page`; the others —
    /// all of them for `None`, a new level above the old root — go to fresh
    /// pages.
    fn write_groups<T: Splittable>(
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
            let n_groups = entries.len().div_ceil(cap);
            partition(&cost, entries, n_groups, 1).0
        };
        let mut written = Vec::with_capacity(groups.len());
        for (i, group) in groups.into_iter().enumerate() {
            let rect = group_rect(&group);
            let node = node_of(group);
            let child = match page {
                Some(page) if i == 0 => page,
                _ => self.pool.allocate()?,
            };
            self.write_node(child, &node)?;
            written.push(InnerEntry {
                child,
                count: node.subtree_count(),
                rect,
            });
        }
        Ok(written)
    }

    /// Serialises `node` into `page`, in place.
    fn write_node(&mut self, page: PageId, node: &Node) -> Result<(), TreeError> {
        let buf = self.encode_node(node);
        // Invalidate the decoded form before the bytes change so no reader
        // of the new page content can ever see the stale decode.
        self.node_cache.remove(page);
        self.pool.write(page, &buf)?;
        Ok(())
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
        let after = objective.node(&extended);
        // A decoded rectangle may hold an infinite bound, and then both
        // costs are +∞: no growth to price, and `∞ − ∞` would be NaN.
        let delta = if after == before { 0.0 } else { after - before };
        if delta < best.0 || (delta == best.0 && before < best.1) {
            best = (delta, before, i);
        }
    }
    best.2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::InvariantError;
    use crate::ReadView;
    use gauss_storage::{AccessStats, SharedBufferPool};

    fn mem_tree(dims: usize, leaf: usize, inner: usize) -> GaussTree<MemStore> {
        let config = TreeConfig::new(dims).with_capacities(leaf, inner);
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        GaussTree::create(pool, config).unwrap()
    }

    fn pfv1(mu: f64, sigma: f64) -> Pfv {
        Pfv::new(vec![mu], vec![sigma]).unwrap()
    }

    /// Bytes of a meta slot before its free ids: the commit header, the
    /// allocated-page count, the configuration tags, the two capacities,
    /// root / height / length, the free-id count (u32) and the overflow
    /// chain pointer (u64).
    const META_BASE_BYTES: usize =
        HEADER_BYTES + 8 + TreeConfig::TAG_BYTES + 4 + 4 + 8 + 4 + 8 + 4 + 8;

    /// Byte offsets of payload fields inside a meta slot page.
    const ALLOCATED_AT: usize = HEADER_BYTES;
    const DIMS_AT: usize = ALLOCATED_AT + 8;
    const LEAF_CAP_AT: usize = DIMS_AT + TreeConfig::TAG_BYTES;
    const ROOT_AT: usize = LEAF_CAP_AT + 4 + 4;
    const LEN_AT: usize = ROOT_AT + 8 + 4;
    const FREE_COUNT_AT: usize = META_BASE_BYTES - 8 - 4;
    const CHAIN_AT: usize = META_BASE_BYTES - 8;

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
    fn pool_of(pages: &[Vec<u8>]) -> SharedBufferPool<MemStore> {
        let mut store = MemStore::new(1024);
        for page in pages {
            let id = store.allocate().unwrap();
            store.write_page(id, page).unwrap();
        }
        SharedBufferPool::new(store, 64, AccessStats::new_shared())
    }

    /// A store on 1 KiB pages with two commits to fall between, shaped like
    /// a file the in-place writer of earlier versions left (less its free
    /// list): epoch 1 (slot page 1) holds ids 0..60; epoch 2 (slot page 0,
    /// the newest) holds ids 30..60 on fresh pages.
    fn two_epoch_pages() -> Vec<Vec<u8>> {
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let pool = SharedBufferPool::new(MemStore::new(1024), 1024, AccessStats::new_shared());
        let items: Vec<(u64, Pfv)> = (0..60u64).map(|i| (i, pfv1(i as f64, 0.15))).collect();
        let mut t = GaussTree::bulk_load(pool, config, items.clone()).unwrap();
        let opts = BulkLoadOptions::default();
        let (report, root, height) =
            crate::bulk::run(&t, items[30..].to_vec(), &opts, true).unwrap();
        (t.root, t.height, t.len) = (root, height, report.total_entries);
        t.commit(Durability::None).unwrap();
        assert_eq!(t.epoch(), 2);
        pages_of(t)
    }

    fn sorted_ids<S: PageStore>(t: &GaussTree<S>) -> Vec<u64> {
        let mut ids = Vec::new();
        t.for_each_entry(|id, _| ids.push(id)).unwrap();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn empty_tree() {
        let t = mem_tree(1, 4, 4);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.epoch(), 0, "an in-memory tree never commits");
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
        assert_eq!(sorted_ids(&t), (0..50).collect::<Vec<_>>());
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
        let items: Vec<(u64, Pfv)> = (0..30u64)
            .map(|i| {
                let v = Pfv::new(vec![i as f64, -(i as f64)], vec![0.2, 0.3]).unwrap();
                (i, v)
            })
            .collect();
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let t = GaussTree::bulk_load(pool, config, items).unwrap();
        let (root, height) = (t.root_page(), t.height());
        let store = t.into_store();
        let pool = SharedBufferPool::new(store, 1024, AccessStats::new_shared());
        let t2 = GaussTree::open(pool).unwrap();
        assert_eq!((t2.len(), t2.dims(), t2.epoch()), (30, 2, 1));
        assert_eq!((t2.root_page(), t2.height()), (root, height));
        assert_eq!(sorted_ids(&t2), (0..30).collect::<Vec<_>>());
        assert!(t2.check_invariants(true).unwrap().is_empty());
    }

    #[test]
    fn open_rejects_non_tree() {
        let pool = SharedBufferPool::new(MemStore::new(8192), 16, AccessStats::new_shared());
        assert!(matches!(
            GaussTree::open(pool),
            Err(TreeError::NotAGaussTree)
        ));
        let mut store = MemStore::new(8192);
        store.allocate().unwrap(); // garbage page 0
        let pool = SharedBufferPool::new(store, 16, AccessStats::new_shared());
        assert!(matches!(
            GaussTree::open(pool),
            Err(TreeError::NotAGaussTree)
        ));
        // An in-memory tree never committed: its store is not a tree file.
        let t = mem_tree(1, 4, 4);
        let pool = SharedBufferPool::new(t.into_store(), 16, AccessStats::new_shared());
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
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let t = GaussTree::bulk_load(pool, config, items.clone()).unwrap();
        assert_eq!(t.len(), 200);
        assert_eq!(sorted_ids(&t), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_single_leaf() {
        let items = vec![(1u64, pfv1(0.0, 0.1)), (2, pfv1(1.0, 0.2))];
        let config = TreeConfig::new(1).with_capacities(8, 6);
        let pool = SharedBufferPool::new(MemStore::new(8192), 16, AccessStats::new_shared());
        let t = GaussTree::bulk_load(pool, config, items).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn bulk_load_empty() {
        let config = TreeConfig::new(1).with_capacities(8, 6);
        let pool = SharedBufferPool::new(MemStore::new(8192), 16, AccessStats::new_shared());
        let t = GaussTree::bulk_load(pool, config, Vec::new()).unwrap();
        assert!(t.is_empty());
        // Committed like any other build: two slots and the empty root.
        assert_eq!(t.pool().num_pages(), META_PAGES + 1);
        let pool = SharedBufferPool::new(t.into_store(), 16, AccessStats::new_shared());
        let t = GaussTree::open(pool).unwrap();
        assert!(t.is_empty());
        assert!(t.check_invariants(true).unwrap().is_empty());
    }

    #[test]
    fn node_cache_serves_decoded_nodes_and_invalidates_on_write() {
        let mut t = mem_tree(1, 4, 4);
        for i in 0..20u64 {
            t.insert(i, &pfv1(i as f64, 0.1)).unwrap();
        }
        let root = t.root_page();
        let a = t.tree_plane().read_node_cached(root).unwrap();
        let b = t.tree_plane().read_node_cached(root).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "second read must hit the node cache"
        );
        assert!(!t.node_cache().is_empty());

        // Mutation must invalidate: the next read decodes the new bytes.
        t.insert(100, &pfv1(50.0, 0.2)).unwrap();
        let c = t.tree_plane().read_node_cached(t.root_page()).unwrap();
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
        // The cached read path must count every read as logical exactly
        // like the uncached one, so the paper's page-access metrics are
        // unchanged by the decode cache.
        let mut t = mem_tree(1, 4, 4);
        for i in 0..30u64 {
            t.insert(i, &pfv1(i as f64, 0.1)).unwrap();
        }
        let root = t.root_page();
        t.pool().clear_cache_and_stats();
        let _ = t.tree_plane().read_node_cached(root).unwrap();
        let _ = t.tree_plane().read_node_cached(root).unwrap();
        let snap = t.stats().snapshot();
        assert_eq!(snap.logical_reads, 2, "every cached read stays logical");
        assert_eq!(snap.physical_reads, 1, "first read faults, second hits");
    }

    #[test]
    fn bounds_beyond_the_f32_range_keep_the_tree_sound_and_exact() {
        // Means at ±1e200 and σ at 1e300 sit in exact leaves as they are;
        // the inner rectangles above them round to ±∞ on their outer sides.
        // Inserts (splits, subtree choices over decoded rectangles) keep the
        // tree tight, and queries still return the brute-force answer.
        let far = |i: u64| match i % 10 {
            0 => (1e200, 0.5),
            1 => (-1e200, 0.5),
            2 => ((i as f64).sin() * 10.0, 1e300),
            _ => ((i as f64 * 0.37).sin() * 10.0, 0.05 + (i % 7) as f64 * 0.1),
        };
        for mode in [
            pfv::CombineMode::Convolution,
            pfv::CombineMode::AdditiveSigma,
        ] {
            let config = TreeConfig::new(2).with_capacities(6, 4).with_combine(mode);
            let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
            let mut t = GaussTree::create(pool, config).unwrap();
            let mut items = Vec::new();
            for i in 0..300u64 {
                let (mu, sigma) = far(i);
                let v =
                    Pfv::new(vec![mu, (i as f64 * 0.11).cos() * 5.0], vec![sigma, 0.2]).unwrap();
                t.insert(i, &v).unwrap();
                items.push(v);
            }
            assert!(t.check_invariants(true).unwrap().is_empty());
            let root = t.read_node(t.root_page()).unwrap();
            assert!(!root.is_leaf(), "300 entries make an inner root");
            let top = root.bounding_rect();
            let d = top.dim(0);
            assert_eq!(
                (d.mu_lo, d.mu_hi, d.sigma_hi),
                (f64::NEG_INFINITY, f64::INFINITY, f64::INFINITY)
            );
            for x in [0.0, 3.0, 1e200, -1e200] {
                let q = Pfv::new(vec![x, 1.0], vec![0.3, 0.3]).unwrap();
                let mut want: Vec<(f64, u64)> = items
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (pfv::combine::log_joint(mode, v, &q), i as u64))
                    .collect();
                want.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let got = t.k_mliq(&q, 3).unwrap();
                for (hit, (density, _)) in got.iter().zip(&want) {
                    assert_eq!(
                        hit.log_density.to_bits(),
                        density.to_bits(),
                        "x = {x}, {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn node_cache_hits_read_no_page() {
        // A 1-frame pool under a node cache that holds the whole tree: once
        // the first pass has decoded every node it reads, the same queries
        // again make no physical read — the pool's one frame was evicted
        // long ago — and count the same logical reads.
        let items: Vec<(u64, Pfv)> = (0..600u64)
            .map(|i| {
                (
                    i,
                    pfv1((i as f64 * 0.37).sin() * 40.0, 0.05 + (i % 7) as f64 * 0.05),
                )
            })
            .collect();
        let config = TreeConfig::new(1).with_capacities(8, 4);
        let pool = SharedBufferPool::new(MemStore::new(1024), 64, AccessStats::new_shared());
        let store = GaussTree::bulk_load(pool, config, items)
            .unwrap()
            .into_store();
        let pool = SharedBufferPool::new(store, 1, AccessStats::new_shared());
        let t = GaussTree::open_with(pool, &TreeOptions::new().node_cache_capacity(4096)).unwrap();
        assert!(t.height() >= 2);
        let queries: Vec<Pfv> = (0..20).map(|i| pfv1(i as f64 * 4.0 - 40.0, 0.2)).collect();
        let pass = || {
            t.stats().reset();
            let answers: Vec<_> = queries
                .iter()
                .map(|q| (t.k_mliq(q, 3).unwrap(), t.tiq(q, 0.2, 1e-3).unwrap()))
                .collect();
            (t.stats().snapshot(), format!("{answers:?}"))
        };
        let (cold, cold_answers) = pass();
        let (warm, warm_answers) = pass();
        assert!(cold.physical_reads > 0);
        assert_eq!(
            warm.physical_reads, 0,
            "every node comes from the node cache"
        );
        assert_eq!(warm.logical_reads, cold.logical_reads);
        assert_eq!(warm_answers, cold_answers);
    }

    #[test]
    fn extend_merges_batches_like_single_inserts() {
        let items: Vec<(u64, Pfv)> = (0..120u64)
            .map(|i| (i, pfv1((i % 31) as f64, 0.05 + (i % 5) as f64 * 0.08)))
            .collect();
        let config = TreeConfig::new(1).with_capacities(6, 4);
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
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
        let mut want: Vec<u64> = (0..120).chain(200..320).collect();
        want.sort_unstable();
        assert_eq!(sorted_ids(&t), want);
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

    /// The leaves of a tree of height 1, in the root's child order.
    fn leaves_under_root(t: &GaussTree<MemStore>) -> Vec<Vec<LeafEntry>> {
        let Node::Inner(children) = t.read_node(t.root).unwrap() else {
            panic!("the root is a leaf");
        };
        children
            .iter()
            .map(|c| match t.read_node(c.child).unwrap() {
                Node::Leaf(entries) => entries,
                Node::Inner(_) => panic!("an inner node below the root"),
            })
            .collect()
    }

    #[test]
    fn an_overfilled_node_is_written_as_packed_groups() {
        let item = |i: u64| {
            let mu = (i as f64 * 0.61).sin() * 9.0;
            (i, pfv1(mu, 0.1 + (i % 4) as f64 * 0.05))
        };
        for cap in [2usize, 4, 6, 9] {
            // A batch that overfills the root leaf to 2·cap + 1 … 3·cap
            // entries becomes three leaves, within one entry of each other.
            for n in 2 * cap as u64 + 1..=3 * cap as u64 {
                let mut t = mem_tree(1, cap, 4);
                t.extend((0..n).map(item)).unwrap();
                let sizes: Vec<usize> = leaves_under_root(&t).iter().map(Vec::len).collect();
                assert_eq!(sizes.len(), 3, "cap {cap}, n {n}: {sizes:?}");
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "cap {cap}, n {n}: {sizes:?}");
                assert_eq!(sorted_ids(&t), (0..n).collect::<Vec<_>>());
                let errs = t.check_invariants(true).unwrap();
                assert!(errs.is_empty(), "cap {cap}, n {n}: {errs:?}");
            }
            // A single insert's overflow, `cap + 1` entries, is the two
            // groups of one node split.
            let mut t = mem_tree(1, cap, 4);
            t.extend((0..cap as u64).map(item)).unwrap();
            let (id, v) = item(cap as u64);
            t.insert(id, &v).unwrap();
            let entries: Vec<LeafEntry> = (0..=cap as u64)
                .map(item)
                .map(|(id, pfv)| LeafEntry { id, pfv })
                .collect();
            let cost = SplitCost::from_items(t.config.split, t.config.combine, &entries);
            let want = crate::split::split_items(&cost, entries);
            assert_eq!(
                leaves_under_root(&t),
                vec![want.left, want.right],
                "cap {cap}"
            );
        }
    }

    #[test]
    fn extend_rejects_wrong_dims_without_mutation() {
        let mut t = mem_tree(2, 4, 4);
        let err = t.extend(vec![(0u64, pfv1(0.0, 0.1))]).unwrap_err();
        assert!(matches!(err, TreeError::DimMismatch { .. }));
        assert!(t.is_empty());
    }

    #[test]
    fn torn_meta_slot_falls_back_to_previous_epoch() {
        let mut pages = two_epoch_pages();
        // Tear the newest slot (epoch 2 lives in slot page 0).
        for b in pages[0].iter_mut().skip(512) {
            *b = 0xAA;
        }
        let t = GaussTree::open(pool_of(&pages)).unwrap();
        assert_eq!(t.epoch(), 1, "must fall back to the intact commit");
        assert_eq!(t.len(), 60);
        assert!(t.check_invariants(false).unwrap().is_empty());
        assert_eq!(sorted_ids(&t), (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn a_slot_listing_free_ids_is_refused_and_orphans_count_as_dead_pages() {
        // The newest slot lists epoch 1's first node page as free, the way
        // the in-place writer of earlier versions listed the pages it had
        // replaced. No writer of this format makes such a slot, and the
        // older slot of such a file may name pages overwritten since: the
        // store is refused, not read at either epoch.
        let mut pages = two_epoch_pages();
        pages[0][FREE_COUNT_AT..FREE_COUNT_AT + 4].copy_from_slice(&1u32.to_le_bytes());
        pages[0][META_BASE_BYTES..META_BASE_BYTES + 8].copy_from_slice(&META_PAGES.to_le_bytes());
        commit::seal(META_KIND, 2, &mut pages[0]);
        assert!(matches!(
            GaussTree::open(pool_of(&pages)),
            Err(TreeError::NotAGaussTree)
        ));

        // Pages past the committed allocation (appended to the file after
        // its commit) are dead; nothing is reused or rewritten.
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let pool = SharedBufferPool::new(MemStore::new(1024), 1024, AccessStats::new_shared());
        let items: Vec<(u64, Pfv)> = (0..40u64).map(|i| (i, pfv1(i as f64, 0.15))).collect();
        let t = GaussTree::bulk_load(pool, config, items).unwrap();
        let root = t.root_page();
        let mut pages = pages_of(t);
        let allocated = pages.len() as u64;
        pages.extend([vec![0u8; 1024], vec![0u8; 1024], vec![0u8; 1024]]);
        let t = GaussTree::open(pool_of(&pages)).unwrap();
        assert_eq!(t.dead_pages().len(), 3);
        assert!(t.check_invariants(true).unwrap().is_empty());
        assert_eq!(sorted_ids(&t), (0..40).collect::<Vec<_>>());

        // A dead page the tree reaches is a violation, not a leak: copy the
        // root's first child to the first dead page and point the root at
        // the copy, so the tree and the page count stay whole.
        let Node::Inner(mut entries) =
            Node::read_from(1, LeafFormat::Exact, &pages[root.index() as usize]).unwrap()
        else {
            panic!("a tree of 40 entries in leaves of 4 has an inner root");
        };
        let child = std::mem::replace(&mut entries[0].child, PageId(allocated));
        pages[allocated as usize] = pages[child.index() as usize].clone();
        Node::Inner(entries).write_to(1, LeafFormat::Exact, &mut pages[root.index() as usize]);
        let errs = GaussTree::open(pool_of(&pages))
            .unwrap()
            .check_invariants(false)
            .unwrap();
        assert_eq!(
            errs,
            vec![InvariantError::FreedPageReachable { page: allocated }]
        );
    }

    #[test]
    fn truncated_store_is_rejected_cleanly() {
        // A store cut below what the meta commits to must fail with
        // NotAGaussTree (bounds validation), not a decode error deep in
        // read_node.
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let items: Vec<(u64, Pfv)> = (0..40u64).map(|i| (i, pfv1(i as f64, 0.1))).collect();
        let t = GaussTree::bulk_load(pool, config, items).unwrap();
        let full = t.into_store();
        // Copy only the two meta slot pages into a fresh store — a
        // page-aligned truncation that cut away every node.
        let mut cut = MemStore::new(8192);
        {
            let mut full = full;
            let mut buf = vec![0u8; 8192];
            for i in 0..2u64 {
                let id = cut.allocate().unwrap();
                full.read_page(PageId(i), &mut buf).unwrap();
                cut.write_page(id, &buf).unwrap();
            }
        }
        let pool = SharedBufferPool::new(cut, 64, AccessStats::new_shared());
        assert!(matches!(
            GaussTree::open(pool),
            Err(TreeError::NotAGaussTree)
        ));
    }

    #[test]
    fn cyclic_free_chain_is_rejected_not_looped() {
        // Earlier versions chained free ids that overflowed the slot
        // through carrier pages outside the checksum. This reader follows
        // no chain — not even one whose carrier, a page the newest commit
        // lists as free, points back at itself — and refuses the store
        // without a read past the slots: its older commit may name pages
        // the in-place writer has since overwritten.
        let mut pages = two_epoch_pages();
        let carrier = META_PAGES;
        pages[carrier as usize][..8].copy_from_slice(&carrier.to_le_bytes());
        pages[carrier as usize][8..12].fill(0);
        pages[0][CHAIN_AT..CHAIN_AT + 8].copy_from_slice(&carrier.to_le_bytes());
        commit::seal(META_KIND, 2, &mut pages[0]);
        let pool = pool_of(&pages);
        let stats = std::sync::Arc::clone(pool.stats());
        assert!(matches!(
            GaussTree::open(pool),
            Err(TreeError::NotAGaussTree)
        ));
        assert_eq!(stats.snapshot().logical_reads, 2, "slots only");
        // An older commit that names a chain is only reached when the
        // newest slot is unreadable, and then refused the same way.
        let mut pages = two_epoch_pages();
        pages[0].fill(0xAA);
        pages[1][CHAIN_AT..CHAIN_AT + 8].copy_from_slice(&carrier.to_le_bytes());
        commit::seal(META_KIND, 1, &mut pages[1]);
        assert!(matches!(
            GaussTree::open(pool_of(&pages)),
            Err(TreeError::NotAGaussTree)
        ));
    }

    #[test]
    fn durable_bulk_load_commits_once_behind_two_barriers() {
        let config = TreeConfig::new(1).with_capacities(4, 4);
        let items: Vec<(u64, Pfv)> = (0..40u64).map(|i| (i, pfv1(i as f64, 0.1))).collect();
        let opts = BulkLoadOptions::default().with_durability(Durability::Fsync);
        let pool = SharedBufferPool::new(MemStore::new(4096), 64, AccessStats::new_shared());
        let (t, _) = GaussTree::bulk_load_with(pool, config, items.clone(), &opts).unwrap();
        let written = t.stats().snapshot();
        assert_eq!(written.syncs, 2, "one data barrier, one commit barrier");
        assert_eq!(t.epoch(), 1);
        let nodes = t.pool().num_pages() - META_PAGES;
        assert_eq!(
            written.physical_writes,
            nodes + 1,
            "every node page once and one slot"
        );
        // Slot 0 is never written; slot 1 holds epoch 1 with no free ids
        // and no overflow chain, exactly as meta format v4 spells them.
        let pages = pages_of(t);
        assert!(pages[0].iter().all(|&b| b == 0));
        let (epoch, payload) = commit::open(META_KIND, &pages[1]).unwrap();
        assert_eq!(epoch, 1);
        let at = FREE_COUNT_AT - HEADER_BYTES;
        assert_eq!(payload[at..at + 4], 0u32.to_le_bytes());
        assert_eq!(
            payload[at + 4..at + 12],
            PageId::INVALID.index().to_le_bytes()
        );
        // A Durability::None build never syncs.
        let pool = SharedBufferPool::new(MemStore::new(4096), 64, AccessStats::new_shared());
        let t2 = GaussTree::bulk_load(pool, config, items).unwrap();
        assert_eq!(t2.stats().snapshot().syncs, 0);
    }

    #[test]
    fn insert_after_bulk_load() {
        let items: Vec<(u64, Pfv)> = (0..100u64).map(|i| (i, pfv1(i as f64, 0.1))).collect();
        let config = TreeConfig::new(1).with_capacities(8, 6);
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
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
        assert_eq!(sorted_ids(&t), (0..230).collect::<Vec<_>>());
    }

    fn quantised_mem_tree(dims: usize, leaf: usize, inner: usize) -> GaussTree<MemStore> {
        let config = TreeConfig::new(dims)
            .with_capacities(leaf, inner)
            .with_leaf_format(LeafFormat::Quantised);
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        GaussTree::create(pool, config).unwrap()
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
        let config = TreeConfig::new(1)
            .with_capacities(4, 4)
            .with_leaf_format(LeafFormat::Quantised);
        let items: Vec<(u64, Pfv)> = (0..30u64).map(|i| (i, pfv1(i as f64 * 0.3, 0.1))).collect();
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let t = GaussTree::bulk_load(pool, config, items).unwrap();
        let store = t.into_store();
        let pool = SharedBufferPool::new(store, 1024, AccessStats::new_shared());
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
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let t = GaussTree::bulk_load(pool, config, items).unwrap();
        assert_eq!(t.len(), 200);
        assert!(t.check_invariants(false).unwrap().is_empty());

        // An unquantisable item surfaces its range error, and nothing is
        // committed.
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let stats = pool.stats().clone();
        let bad = vec![(0u64, pfv1(0.5, 0.1)), (1, pfv1(-1e39, 0.1))];
        assert!(matches!(
            GaussTree::bulk_load(pool, config, bad),
            Err(TreeError::QuantisationRange { .. })
        ));
        assert_eq!(stats.snapshot().physical_writes, 1, "the leaf, no slot");
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

        // A current slot relabelled as version 1, 2, 3 or 5 under a
        // checksum that is valid for that label: not a commit this code
        // reads. Version 3 is the same payload over f64 inner pages.
        let clean = two_epoch_pages();
        for version in [1, 2, 3, 5] {
            let mut pages = clean.clone();
            let other = SlotKind {
                version,
                ..META_KIND
            };
            commit::seal(other, 2, &mut pages[0]);
            let t = GaussTree::open(pool_of(&pages)).unwrap();
            assert_eq!(t.epoch(), 1, "version {version} must lose to epoch 1");
            commit::seal(other, 1, &mut pages[1]);
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
        // No count is read as a size: any free list refuses the store.
        let fits = u32::try_from((1024 - META_BASE_BYTES) / 8).unwrap();
        for count in [u32::MAX, u32::MAX / 8, fits + 1, fits, 1] {
            let mut pages = clean.clone();
            plant(&mut pages[0], 2, count);
            assert!(
                matches!(
                    GaussTree::open(pool_of(&pages)),
                    Err(TreeError::NotAGaussTree)
                ),
                "count {count}"
            );
        }
        // An older slot that lists one is only reached when the newest is
        // unreadable, and refused the same way.
        let mut pages = clean.clone();
        pages[0].fill(0xAA);
        plant(&mut pages[1], 1, 1);
        assert!(matches!(
            GaussTree::open(pool_of(&pages)),
            Err(TreeError::NotAGaussTree)
        ));
    }

    mod meta_slot_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Hostile bytes in the newest meta slot, hostile numbers behind
            /// a recomputed checksum, a store cut short: open answers with
            /// the same tree, the older epoch or `NotAGaussTree` — it does
            /// not panic, it allocates nothing a slot merely asks for, and
            /// checking what it opened does not panic either.
            #[test]
            fn mutated_meta_slot_is_refused_or_equal(
                (mutation, a, b, flips) in (0usize..6, 0usize..4096, 0u64..u64::MAX, 1usize..9)
            ) {
                let clean = two_epoch_pages();
                let mut pages = clean.clone();
                let slot = &mut pages[0];
                // Whether the slot lists free ids or names an overflow chain.
                let mut legacy = false;
                let mut over_bound = false;
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
                    // A free count, checksum valid, whether the slot could
                    // hold the ids or not.
                    3 => {
                        legacy = true;
                        let fits = (1024 - META_BASE_BYTES) / 8;
                        let count = [u32::MAX, (fits + 1 + a) as u32, 1 + (a % fits) as u32][b as usize % 3];
                        slot[FREE_COUNT_AT..FREE_COUNT_AT + 4].copy_from_slice(&count.to_le_bytes());
                        commit::seal(META_KIND, 2, slot);
                    }
                    // A length or a capacity on either side of its bound,
                    // checksum valid: `len` is bounded by the leaves the
                    // allocation could hold, a capacity by one page.
                    5 => {
                        over_bound = b % 2 == 0;
                        let step = 1 + (b >> 1) % 1000;
                        if a % 3 == 0 {
                            let allocated = u64::from_le_bytes(slot[ALLOCATED_AT..ALLOCATED_AT + 8].try_into().unwrap());
                            let leaf_cap = u32::from_le_bytes(slot[LEAF_CAP_AT..LEAF_CAP_AT + 4].try_into().unwrap());
                            let most = (allocated - META_PAGES) * u64::from(leaf_cap);
                            let len = if over_bound { [most + step, 1 << 62, u64::MAX][a % 9 / 3] } else { most - step % (most + 1) };
                            slot[LEN_AT..LEN_AT + 8].copy_from_slice(&len.to_le_bytes());
                        } else {
                            let config = TreeConfig::new(1);
                            let (at, most) = if a % 3 == 1 {
                                (LEAF_CAP_AT, config.leaf_capacity(1024))
                            } else {
                                (LEAF_CAP_AT + 4, config.inner_capacity(1024))
                            };
                            let most = u32::try_from(most).unwrap();
                            let step = u32::try_from(step).unwrap();
                            let cap = if over_bound { most + step } else { 2 + step % (most - 1) };
                            slot[at..at + 4].copy_from_slice(&cap.to_le_bytes());
                        }
                        commit::seal(META_KIND, 2, slot);
                    }
                    // Any other number of the payload, checksum valid.
                    _ => {
                        let at = [ALLOCATED_AT, DIMS_AT, LEAF_CAP_AT, LEAF_CAP_AT + 4, ROOT_AT,
                            ROOT_AT + 8, LEN_AT, CHAIN_AT][a % 8];
                        let v = [u64::MAX, u64::from(u32::MAX), 0, b][b as usize % 4];
                        let width = if at == DIMS_AT || at == LEAF_CAP_AT || at == LEAF_CAP_AT + 4 { 4 } else { 8 };
                        legacy = at == CHAIN_AT && v != u64::MAX;
                        slot[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                        commit::seal(META_KIND, 2, slot);
                    }
                }
                let damaged = pages != clean;
                match GaussTree::open(pool_of(&pages)) {
                    // A commit that lists free ids or names an overflow
                    // chain refuses the store.
                    Err(TreeError::NotAGaussTree) => prop_assert!(mutation == 2 || legacy, "epoch 1 was intact"),
                    Err(e) => prop_assert!(false, "untyped failure: {e}"),
                    Ok(t) if t.epoch() == 1 => {
                        prop_assert!(damaged);
                        prop_assert_eq!(t.len(), 60);
                        prop_assert!(t.check_invariants(false).unwrap().is_empty());
                    }
                    Ok(t) => {
                        prop_assert_eq!(t.epoch(), 2);
                        prop_assert!(!over_bound, "a number past its bound was taken");
                        // Only a resealed payload can differ and still be
                        // taken at its word.
                        prop_assert!(!damaged || mutation >= 4);
                        prop_assert!(mutation >= 4 || t.len() == 30);
                        // What it says may be wrong, but checking it must
                        // not panic; the intact commit checks clean but for
                        // epoch 1's pages, which it no longer reaches and,
                        // listing no free ids, leaks.
                        let checked = t.check_invariants(false);
                        if !damaged {
                            let errs = checked.unwrap();
                            prop_assert!(
                                matches!(errs[..], [InvariantError::PageLeak { freed: 0, .. }]),
                                "{errs:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
