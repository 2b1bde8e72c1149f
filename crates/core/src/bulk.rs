//! The parallel out-of-core bulk-load pipeline behind
//! [`GaussTree::bulk_load_with`].
//!
//! Ingestion runs in three stages:
//!
//! 1. **Streaming front end** — items are buffered in memory, and nothing
//!    touches disk, while the buffer stays below
//!    [`BulkLoadOptions::mem_budget_entries`]. Once it reaches the budget,
//!    the buffer and then every later item are appended to one spill file:
//!    an unlinked-on-drop temp file of [`LeafFormat::Exact`] leaf pages,
//!    written with [`Node::write_to`] and read back with
//!    [`Node::read_from`], so a spilled page is validated like a tree page.
//!    Peak decoded residency is bounded by the budget (plus the spill
//!    file's page being filled and its one decoded page), not the input
//!    size.
//! 2. **Partitioning** — the STR-style recursion of the presorted
//!    partitioner (`split::partition`, see [`crate::split`]) splits a range
//!    of `n_groups` groups into `⌊n_groups / 2⌋` and the rest, at the
//!    median of the cheapest candidate axis's stable sort. An in-memory
//!    range lays its axis keys out as flat columns and sorts each column
//!    **once**, by (key, input position), the columns spread over the load's
//!    threads. Each node of the recursion numbers its items `0..m` in its
//!    own sequence and owns contiguous slices of every column, every
//!    column's order and the items' input positions, so a split deep in
//!    the recursion reads only its own few cache lines. Every split prices
//!    both halves of every candidate from those orders (a half's bounds are
//!    the first of its members met scanning an order from either end),
//!    renumbers the two children in the winning order, permutes the
//!    columns to match and filters the other orders stably into the
//!    children, sorting each run of equal keys by the new ids: every split
//!    and every group's order is the one a stable sort at each split would
//!    make, ties included. The recursion descends into *independent*
//!    sub-ranges after every split, so it fork-joins across
//!    [`std::thread::scope`] threads: each split hands
//!    its right half to a fresh thread with half the thread budget and
//!    descends into the left. Ranges larger than the budget are split
//!    **externally**: streaming passes extract each candidate axis's keys
//!    (plain `Vec<f64>` columns, as many per pass as the budget's bytes
//!    hold — the only thing held in memory), a stable argsort per axis
//!    fixes the exact same stable-median split the in-memory recursion
//!    would take, one more streaming pass prices both sides' parameter
//!    rectangles, and the winning axis redistributes the range into two
//!    sorted child runs with budget-sized gather windows. Both recursions
//!    emit the left half's leaves before the right's, so the leaf level
//!    comes out in page order. Only the leaf level is partitioned: each
//!    level above is the level below cut, in that order, into consecutive
//!    runs within one entry of each other (see `build_upper_levels`).
//! 3. **Batched page writes** — node pages are staged in a
//!    [`gauss_storage::WriteBatch`] and group-committed as coalesced runs
//!    of consecutive pages ([`SharedBufferPool::write_batch`]), collapsing
//!    the per-node write storm into a few sequential multi-page transfers
//!    (`AccessStats::write_calls` vs `physical_writes` measures the
//!    coalescing factor).
//!
//! Every stage is deterministic: the produced tree is **byte-identical**
//! to the serial, fully-resident build for any thread count and memory
//! budget.
//!
//! [`Node::write_to`]: crate::node::Node::write_to
//! [`Node::read_from`]: crate::node::Node::read_from
//! [`SharedBufferPool::write_batch`]: gauss_storage::SharedBufferPool::write_batch
//! [`AccessStats::write_calls`]: gauss_storage::StatsSnapshot

use crate::config::{LeafFormat, SplitStrategy};
use crate::node::{leaf_entry_bytes, InnerEntry, LeafEntry, Node, NODE_HEADER_BYTES};
use crate::split::{candidate_axes, group_rect, log_add, partition, Axis, SplitCost, Splittable};
use crate::tree::{GaussTree, TreeError};
use gauss_storage::store::{Durability, PageStore};
use gauss_storage::{FileStore, PageId, WriteBatch};
use pfv::{DimBounds, ParamRect, Pfv};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pages staged in the write batch before an intermediate group commit, so
/// a huge level does not buffer the whole tree in memory.
const FLUSH_PAGES: usize = 256;

/// Spill page size: big pages amortise positioning.
const SPILL_PAGE_BYTES: usize = 64 * 1024;

/// Approximate resident bytes of one entry while a range is partitioned in
/// memory: the decoded entry (its exact leaf encoding plus `LeafEntry`/`Pfv`
/// container overhead: two boxed slices and an id) and the partitioner's
/// state (`split::partition`) at its one-thread peak, the recursion:
///
/// * `2d` `f64` value columns and `2d` `u32` orders: `24d`;
/// * the item's input position, `orig`: 4;
/// * the scratch of the worker that splits the whole range, sized to it: a
///   `u32` rank, a `u32` id and an `f64` value per item: 16.
///
/// So `24d + 20`. The column sorts before the recursion hold the columns,
/// the orders and one 16-byte (key, id) pair per item, `24d + 16`; the
/// groups are gathered after the columns and the scratch are freed. Each
/// thread past the first sorts columns of its own, 16 more bytes per entry
/// while the sorts run, and then splits at most half of its parent's node,
/// at most 8 more bytes per entry; neither is charged.
/// The single conversion factor between a byte budget and
/// [`BulkLoadOptions::mem_budget_entries`] — keep every byte→entries
/// translation (CLI `--mem-budget`, bench scenarios) on this helper.
#[must_use]
pub fn resident_entry_footprint_bytes(dims: usize) -> usize {
    leaf_entry_bytes(dims, LeafFormat::Exact) + 64 + 24 * dims + 20
}

/// Entries a byte budget affords (at least 1).
#[must_use]
pub fn entries_for_byte_budget(bytes: u64, dims: usize) -> usize {
    usize::try_from(bytes / resident_entry_footprint_bytes(dims) as u64)
        .unwrap_or(usize::MAX)
        .max(1)
}

/// Knobs of the bulk-load pipeline. All combinations produce byte-identical
/// trees; they only trade memory and parallelism. Items past the memory
/// budget spill to one temp file as exact leaf pages (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct BulkLoadOptions {
    /// Worker threads for the leaf partitioning fan-out (clamped to ≥ 1).
    pub threads: usize,
    /// Maximum decoded entries an in-memory range or a gather window holds;
    /// `None` keeps everything in memory. Clamped upward so a single leaf
    /// group always fits. Once items spill, the spill file's page being
    /// filled and its one decoded page come on top: up to two spill pages
    /// of entries (see [`BulkLoadReport::peak_resident_entries`]).
    pub mem_budget_entries: Option<usize>,
    /// Barrier level of the load's one commit (see
    /// [`GaussTree::bulk_load_with`]): under `Flush`/`Fsync` every node page
    /// is durable before the slot that names it, and the slot before the
    /// load returns.
    pub durability: Durability,
}

impl Default for BulkLoadOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            mem_budget_entries: None,
            durability: Durability::None,
        }
    }
}

impl BulkLoadOptions {
    /// Sets the partitioning thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the resident-entry budget.
    #[must_use]
    pub fn with_mem_budget(mut self, entries: usize) -> Self {
        self.mem_budget_entries = Some(entries);
        self
    }

    /// Sets the barrier level of the load's commit.
    #[must_use]
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }
}

/// What one bulk load did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkLoadReport {
    /// Items loaded into the tree.
    pub total_entries: u64,
    /// High-water mark of decoded entries resident at once, counting the
    /// spill file's page being filled and its decoded page.
    pub peak_resident_entries: usize,
    /// Entries spilled by the streaming front end (0 = fully resident).
    pub spilled_entries: u64,
    /// Entries rewritten by external redistribution passes.
    pub rewritten_entries: u64,
    /// External (out-of-core) split steps performed.
    pub external_splits: u64,
}

impl BulkLoadReport {
    fn observe_resident(&mut self, n: usize) {
        if n > self.peak_resident_entries {
            self.peak_resident_entries = n;
        }
    }
}

/// Stages node pages and group-commits them every [`FLUSH_PAGES`].
#[derive(Default)]
struct NodeEmitter {
    batch: WriteBatch,
}

impl NodeEmitter {
    fn emit<S: PageStore>(
        &mut self,
        tree: &GaussTree<S>,
        page: PageId,
        node: &Node,
    ) -> Result<(), TreeError> {
        tree.stage_node(&mut self.batch, page, node);
        if self.batch.len() >= FLUSH_PAGES {
            tree.commit_batch(&mut self.batch)?;
        }
        Ok(())
    }

    fn finish<S: PageStore>(&mut self, tree: &GaussTree<S>) -> Result<(), TreeError> {
        tree.commit_batch(&mut self.batch)
    }
}

/// Immutable context of the leaf-level build.
struct LeafCtx<'t, S: PageStore> {
    tree: &'t GaussTree<S>,
    cost: SplitCost,
    dims: usize,
    threads: usize,
    /// Effective resident-entry budget (usize::MAX when unbounded).
    budget: usize,
    /// Page of leaf group 0; group `g` lives `g` pages behind it.
    base: PageId,
}

impl<S: PageStore> LeafCtx<'_, S> {
    fn page_for(&self, group: usize) -> PageId {
        PageId(self.base.index() + group as u64)
    }
}

/// Writes the node pages of a tree over `items` into `tree`'s store and
/// returns what was loaded with the root page and height; committing them
/// is the caller's ([`GaussTree::bulk_load_with`]). With `at_input_spread`
/// every split is priced at the input's typical σ (see [`crate::split`]);
/// without it at σ_q = 0, the baseline the page-count tests compare
/// against.
pub(crate) fn run<S: PageStore>(
    tree: &GaussTree<S>,
    items: impl IntoIterator<Item = (u64, Pfv)>,
    opts: &BulkLoadOptions,
    at_input_spread: bool,
) -> Result<(BulkLoadReport, PageId, u32), TreeError> {
    let dims = tree.dims();
    let leaf_cap = tree.leaf_capacity();
    let threads = opts.threads.max(1);
    // A budget below one leaf group could never materialise a group.
    let budget = opts
        .mem_budget_entries
        .map_or(usize::MAX, |b| b.max(leaf_cap).max(16));
    let mut report = BulkLoadReport::default();

    // Stage 1: streaming ingest under the budget. Σ ln σ per dimension is
    // summed in input order, so σ̄ is the same for every thread count and
    // budget.
    let mut log_sigma = vec![0.0f64; dims];
    let mut resident: Vec<LeafEntry> = Vec::new();
    let mut spill: Option<SpillFile> = None;
    for (id, pfv) in items {
        if pfv.dims() != dims {
            return Err(TreeError::DimMismatch {
                expected: dims,
                got: pfv.dims(),
            });
        }
        for (acc, s) in log_sigma.iter_mut().zip(pfv.sigmas()) {
            *acc += s.ln();
        }
        let entry = LeafEntry { id, pfv };
        if let Some(sp) = spill.as_mut() {
            sp.append(entry)?;
            report.observe_resident(sp.resident());
            continue;
        }
        resident.push(entry);
        report.observe_resident(resident.len());
        if resident.len() >= budget {
            let sp = spill.insert(SpillFile::new(dims)?);
            for e in std::mem::take(&mut resident) {
                sp.append(e)?;
            }
        }
    }
    let total = spill.as_ref().map_or(resident.len(), SpillFile::len);
    report.spilled_entries = spill.as_ref().map_or(0, |sp| sp.len() as u64);

    let mut emitter = NodeEmitter::default();
    if total == 0 {
        // The empty tree still owns its root: one empty leaf.
        let root = tree.pool().allocate()?;
        emitter.emit(tree, root, &Node::Leaf(Vec::new()))?;
        emitter.finish(tree)?;
        return Ok((report, root, 0));
    }
    report.total_entries = total as u64;
    // σ̄: the geometric mean of the input's σ per dimension, or 0.
    let sigma_bar: Vec<f64> = if at_input_spread {
        log_sigma.iter().map(|l| (l / total as f64).exp()).collect()
    } else {
        vec![0.0; dims]
    };
    let cost = SplitCost::at_spread(tree.config().split, tree.config().combine, &sigma_bar);

    // Stage 2+3: leaf level, allocated in one consecutive run up front, so
    // page ids do not depend on write order. Packed: the fewest leaves that
    // hold `total`, sized within one entry of each other, so each is at
    // least half full.
    let n_groups = total.div_ceil(leaf_cap);
    let ctx = LeafCtx {
        tree,
        cost,
        dims,
        threads,
        budget,
        base: tree.pool().allocate_many(n_groups as u64)?,
    };
    let mut level = Vec::with_capacity(n_groups);
    match spill {
        None => emit_leaf_groups(
            &ctx,
            &mut emitter,
            resident,
            n_groups,
            &mut level,
            &mut report,
        )?,
        Some(mut sp) => build_leaves_external(
            &ctx,
            &mut emitter,
            &mut sp,
            0..total,
            n_groups,
            &mut level,
            &mut report,
        )?,
    }

    let (root, height) = build_upper_levels(tree, &mut emitter, level)?;
    emitter.finish(tree)?;
    Ok((report, root, height))
}

/// Partitions an in-memory range into its `n_groups` leaf groups (fanned
/// across workers), emits each to the next leaf page and appends its entry
/// to `level`.
fn emit_leaf_groups<S: PageStore>(
    ctx: &LeafCtx<'_, S>,
    emitter: &mut NodeEmitter,
    entries: Vec<LeafEntry>,
    n_groups: usize,
    level: &mut Vec<InnerEntry>,
    report: &mut BulkLoadReport,
) -> Result<(), TreeError> {
    report.observe_resident(entries.len());
    let (groups, _) = partition(&ctx.cost, entries, n_groups, ctx.threads);
    for g in groups {
        let page = ctx.page_for(level.len());
        let rect = group_rect(&g);
        let count = g.len() as u64;
        emitter.emit(ctx.tree, page, &Node::Leaf(g))?;
        level.push(InnerEntry {
            child: page,
            count,
            rect,
        });
    }
    Ok(())
}

/// The out-of-core leaf recursion: ranges within the budget load and run
/// the (parallel) in-memory partitioner; larger ranges split externally.
fn build_leaves_external<S: PageStore>(
    ctx: &LeafCtx<'_, S>,
    emitter: &mut NodeEmitter,
    sp: &mut SpillFile,
    range: Range<usize>,
    n_groups: usize,
    level: &mut Vec<InnerEntry>,
    report: &mut BulkLoadReport,
) -> Result<(), TreeError> {
    let len = range.len();
    if n_groups <= 1 || len <= ctx.budget {
        let entries = sp.read_range(range)?;
        report.observe_resident(entries.len() + sp.resident());
        return emit_leaf_groups(ctx, emitter, entries, n_groups, level, report);
    }
    report.external_splits += 1;
    let g_left = n_groups / 2;
    let split_at = len * g_left / n_groups;
    let (left, right) = external_split(sp, ctx, range, split_at, report)?;
    build_leaves_external(ctx, emitter, sp, left, g_left, level, report)?;
    build_leaves_external(ctx, emitter, sp, right, n_groups - g_left, level, report)
}

/// One external split: reproduce exactly the stable-median axis decision of
/// the in-memory recursion, holding only axis keys, index permutations and
/// side bitmaps in memory, then rewrite the range into two sorted child
/// runs with budget-sized gather windows.
fn external_split<S: PageStore>(
    sp: &mut SpillFile,
    ctx: &LeafCtx<'_, S>,
    range: Range<usize>,
    split_at: usize,
    report: &mut BulkLoadReport,
) -> Result<(Range<usize>, Range<usize>), TreeError> {
    let n = range.len();
    assert!(
        u32::try_from(n).is_ok(),
        "external range exceeds u32 indices"
    );
    let strategy = ctx.cost.strategy();
    let axes = match strategy {
        SplitStrategy::WidestMu => {
            let rect = sp.range_rect(range.clone())?;
            candidate_axes(strategy, ctx.dims, || rect)
        }
        _ => candidate_axes(strategy, ctx.dims, || {
            unreachable!("cost strategies need no covering rect")
        }),
    };

    // Pass 1: the stable argsort of each candidate axis's keys fixes which
    // entries land left of the split (ties broken by current run order,
    // exactly like the stable in-memory sort). One sweep reads the keys of
    // as many axes as the budget's bytes hold.
    let budget_bytes = ctx
        .budget
        .saturating_mul(resident_entry_footprint_bytes(ctx.dims));
    let per_sweep = (budget_bytes / (8 * n)).max(1);
    let mut bitmaps: Vec<Bitmap> = Vec::with_capacity(axes.len());
    for batch in axes.chunks(per_sweep) {
        for keys in sp.axis_keys(range.clone(), batch)? {
            let perm = stable_argsort(&keys);
            let mut bm = Bitmap::new(n);
            for &i in &perm[..split_at] {
                bm.set(i as usize);
            }
            bitmaps.push(bm);
        }
    }

    // Pass 2 (one streaming sweep): both sides' parameter rectangles for
    // every candidate axis at once.
    let mut sides: Vec<[RectFold; 2]> = axes.iter().map(|_| Default::default()).collect();
    for (i, idx) in range.clone().enumerate() {
        let e = sp.entry(idx)?;
        for (bm, [left, right]) in bitmaps.iter().zip(sides.iter_mut()) {
            let side = if bm.get(i) { left } else { right };
            side.add(e);
        }
    }

    let mut best: Option<(f64, usize)> = None;
    for (a, [left, right]) in sides.iter().enumerate() {
        let cost = log_add(ctx.cost.dims_cost(&left.0), ctx.cost.dims_cost(&right.0));
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, a));
        }
    }
    #[expect(clippy::expect_used, reason = "dims >= 1, so the loop ran once")]
    let (_, winner) = best.expect("at least one candidate axis");

    // Redistribute along the winning axis in stable sorted order.
    let keys = sp.axis_keys(range.clone(), &axes[winner..=winner])?;
    let perm = stable_argsort(&keys[0]);
    let left = sp.rewrite(range.start, &perm[..split_at], ctx.budget, report)?;
    let right = sp.rewrite(range.start, &perm[split_at..], ctx.budget, report)?;
    Ok((left, right))
}

/// Builds the inner levels bottom-up until one root remains; returns
/// `(root page, height)`. Each level is packed into `⌈len / inner
/// capacity⌉` nodes by position, not by cost: the level below is cut, in
/// emission order, into that many consecutive runs within one entry of
/// each other, and run `i` goes to page `i` of the level's block, so each
/// inner node's children occupy one range of consecutive page ids.
fn build_upper_levels<S: PageStore>(
    tree: &GaussTree<S>,
    emitter: &mut NodeEmitter,
    mut level: Vec<InnerEntry>,
) -> Result<(PageId, u32), TreeError> {
    let mut height = 0u32;
    while level.len() > 1 {
        height += 1;
        let len = level.len();
        let n_groups = len.div_ceil(tree.inner_capacity());
        let base = tree.pool().allocate_many(n_groups as u64)?;
        let mut below = level.into_iter();
        let mut next = Vec::with_capacity(n_groups);
        for i in 0..n_groups {
            let size = (i + 1) * len / n_groups - i * len / n_groups;
            let g: Vec<InnerEntry> = below.by_ref().take(size).collect();
            let page = PageId(base.index() + i as u64);
            let rect = group_rect(&g);
            let count = g.iter().map(|e| e.count).sum();
            emitter.emit(tree, page, &Node::Inner(g))?;
            next.push(InnerEntry {
                child: page,
                count,
                rect,
            });
        }
        level = next;
    }
    Ok((level[0].child, height))
}

/// Stable argsort: the permutation that stable-sorts `keys` ascending.
fn stable_argsort(keys: &[f64]) -> Vec<u32> {
    #[expect(clippy::expect_used, reason = "node fan-out is far below u32::MAX")]
    let mut perm: Vec<u32> = (0..u32::try_from(keys.len()).expect("fits u32")).collect();
    perm.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
    perm
}

/// A plain bit set over `n` entry indices.
struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// The covering bounds of the entries folded in so far, folded in run
/// order like [`group_rect`]; empty before the first entry.
#[derive(Default)]
struct RectFold(Vec<DimBounds>);

impl RectFold {
    fn add(&mut self, e: &LeafEntry) {
        if self.0.is_empty() {
            self.0 = (0..e.dims()).map(|d| e.dim_bounds(d)).collect();
        } else {
            for (d, b) in self.0.iter_mut().enumerate() {
                *b = b.union(&e.dim_bounds(d));
            }
        }
    }
}

/// The spill area of the streaming front end: runs of entries stored as
/// [`LeafFormat::Exact`] leaf pages of an unlinked-on-drop temp file,
/// written with [`Node::write_to`] and read back with [`Node::read_from`],
/// so a corrupt page fails the same validated decoder as a tree page. Entry
/// `i` is slot `i % per_page` of page `i / per_page`. Child runs produced
/// by redistribution are appended after their parent range (the parent's
/// pages become garbage; the file is dropped whole after the build).
struct SpillFile {
    store: FileStore,
    path: PathBuf,
    dims: usize,
    per_page: usize,
    /// Pages written; the page being filled is the next one.
    full_pages: usize,
    /// The entries of the page being filled.
    tail: Vec<LeafEntry>,
    /// The last page read and its entries, decoded (`usize::MAX` before
    /// the first read); sequential and sorted access patterns hit it almost
    /// always.
    cache: (usize, Vec<LeafEntry>),
    /// One page of bytes.
    buf: Vec<u8>,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

impl SpillFile {
    fn new(dims: usize) -> Result<Self, TreeError> {
        let entry_bytes = leaf_entry_bytes(dims, LeafFormat::Exact);
        let page_size = SPILL_PAGE_BYTES.max(NODE_HEADER_BYTES + entry_bytes);
        let path = std::env::temp_dir().join(format!(
            "gauss-bulk-spill-{}-{}.run",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        Ok(Self {
            store: FileStore::create(&path, page_size)?,
            path,
            dims,
            per_page: (page_size - NODE_HEADER_BYTES) / entry_bytes,
            full_pages: 0,
            tail: Vec::new(),
            cache: (usize::MAX, Vec::new()),
            buf: vec![0; page_size],
        })
    }

    /// Entries ever appended (the global index space ranges address).
    fn len(&self) -> usize {
        self.full_pages * self.per_page + self.tail.len()
    }

    /// Decoded entries the file holds in memory: the page being filled and
    /// the decoded page.
    fn resident(&self) -> usize {
        self.tail.len() + self.cache.1.len()
    }

    fn append(&mut self, e: LeafEntry) -> Result<(), TreeError> {
        self.tail.push(e);
        if self.tail.len() == self.per_page {
            let page = Node::Leaf(std::mem::take(&mut self.tail));
            page.write_to(self.dims, LeafFormat::Exact, &mut self.buf);
            let id = self.store.allocate()?;
            self.store.write_page(id, &self.buf)?;
            self.full_pages += 1;
        }
        Ok(())
    }

    /// Entry `idx`, from the page being filled or the decoded page.
    fn entry(&mut self, idx: usize) -> Result<&LeafEntry, TreeError> {
        let (page, slot) = (idx / self.per_page, idx % self.per_page);
        if page == self.full_pages {
            return Ok(&self.tail[slot]);
        }
        if self.cache.0 != page {
            self.store.read_page(PageId(page as u64), &mut self.buf)?;
            let Node::Leaf(entries) = Node::read_from(self.dims, LeafFormat::Exact, &self.buf)?
            else {
                return Err(TreeError::Corrupt("a spill page holds no leaf"));
            };
            self.cache = (page, entries);
        }
        self.cache
            .1
            .get(slot)
            .ok_or(TreeError::Corrupt("a spill page is short"))
    }

    fn read_range(&mut self, range: Range<usize>) -> Result<Vec<LeafEntry>, TreeError> {
        range.map(|idx| self.entry(idx).cloned()).collect()
    }

    /// The keys of a range along each of `axes`, one column per axis in
    /// run order — one sequential pass.
    fn axis_keys(
        &mut self,
        range: Range<usize>,
        axes: &[Axis],
    ) -> Result<Vec<Vec<f64>>, TreeError> {
        let mut cols: Vec<Vec<f64>> = axes
            .iter()
            .map(|_| Vec::with_capacity(range.len()))
            .collect();
        for idx in range {
            let e = self.entry(idx)?;
            for (col, &axis) in cols.iter_mut().zip(axes) {
                col.push(e.axis_key(axis));
            }
        }
        Ok(cols)
    }

    /// Covering rectangle of a range (for the widest-μ baseline's axis
    /// choice).
    fn range_rect(&mut self, range: Range<usize>) -> Result<ParamRect, TreeError> {
        let mut fold = RectFold::default();
        for idx in range {
            fold.add(self.entry(idx)?);
        }
        Ok(ParamRect::from_dims(fold.0))
    }

    /// Appends the entries `base + perm[..]` in permutation order as a new
    /// run, gathering at most `window` entries at a time (each window's
    /// sources are visited in ascending index order, so the decoded page
    /// turns the gather into near-sequential reads).
    fn rewrite(
        &mut self,
        base: usize,
        perm: &[u32],
        window: usize,
        report: &mut BulkLoadReport,
    ) -> Result<Range<usize>, TreeError> {
        let start = self.len();
        for srcs in perm.chunks(window.max(1)) {
            let mut ranks: Vec<usize> = (0..srcs.len()).collect();
            ranks.sort_unstable_by_key(|&rank| srcs[rank]);
            let mut gathered = Vec::with_capacity(srcs.len());
            for rank in ranks {
                gathered.push((rank, self.entry(base + srcs[rank] as usize)?.clone()));
            }
            gathered.sort_unstable_by_key(|&(rank, _)| rank);
            report.observe_resident(srcs.len() + self.resident());
            for (_, e) in gathered {
                self.append(e)?;
            }
        }
        report.rewritten_entries += perm.len() as u64;
        Ok(start..self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::ReadView;
    use gauss_storage::{AccessStats, MemStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
    use gauss_workloads::{
        generate_queries, histogram_dataset, uniform_dataset, Dataset, IdentificationQuery,
        SigmaSpec,
    };

    fn items(n: u64, dims: usize) -> Vec<(u64, Pfv)> {
        (0..n)
            .map(|i| {
                let means: Vec<f64> = (0..dims)
                    .map(|d| ((i * 13 + d as u64) as f64 * 0.29).sin() * 25.0)
                    .collect();
                let sigmas: Vec<f64> = (0..dims)
                    .map(|d| 0.03 + ((i * 5 + d as u64) % 11) as f64 * 0.08)
                    .collect();
                (i, Pfv::new(means, sigmas).unwrap())
            })
            .collect()
    }

    fn pool() -> SharedBufferPool<MemStore> {
        SharedBufferPool::new(MemStore::new(4096), 4096, AccessStats::new_shared())
    }

    /// Byte image of every page in a tree's store.
    fn store_image<S: PageStore>(tree: &GaussTree<S>) -> Vec<u8> {
        let pool = tree.pool();
        let mut out = Vec::new();
        for i in 0..pool.num_pages() {
            out.extend_from_slice(&pool.page(PageId(i)).unwrap());
        }
        out
    }

    #[test]
    fn spill_file_round_trips_entries() {
        let data = items(2600, 3);
        let mut sp = SpillFile::new(3).unwrap();
        for (id, pfv) in &data {
            sp.append(LeafEntry {
                id: *id,
                pfv: pfv.clone(),
            })
            .unwrap();
        }
        assert_eq!(sp.len(), 2600);
        assert!(sp.full_pages >= 2 && !sp.tail.is_empty());
        // Random-access reads agree with the source, on written pages and
        // in the page still being filled.
        let last_page = sp.full_pages * sp.per_page;
        for idx in [
            0,
            1,
            17,
            sp.per_page - 1,
            sp.per_page,
            last_page - 1,
            last_page,
            2599,
        ] {
            let e = sp.entry(idx).unwrap();
            assert_eq!(e.id, data[idx].0);
            assert_eq!(e.pfv, data[idx].1);
        }
        // Axis keys match the source components.
        let keys = sp
            .axis_keys(0..2600, &[Axis::Mu(0), Axis::Sigma(2)])
            .unwrap();
        for (idx, (_, v)) in data.iter().enumerate() {
            assert_eq!(keys[0][idx], v.means()[0], "{idx}");
            assert_eq!(keys[1][idx], v.sigmas()[2], "{idx}");
        }
    }

    #[test]
    fn corrupt_spill_page_fails_the_node_decoder() {
        let mut sp = SpillFile::new(1).unwrap();
        for (id, pfv) in items(sp.per_page as u64 + 1, 1) {
            sp.append(LeafEntry { id, pfv }).unwrap();
        }
        // A negative σ in the first entry of page 0: `[id][μ][σ]`.
        let mut page = sp.buf.clone();
        sp.store.read_page(PageId(0), &mut page).unwrap();
        page[NODE_HEADER_BYTES + 16..][..8].copy_from_slice(&(-1.0f64).to_le_bytes());
        sp.store.write_page(PageId(0), &page).unwrap();
        assert!(matches!(sp.entry(0), Err(TreeError::Codec(_))));
    }

    #[test]
    fn spilled_build_is_byte_identical_to_resident_build() {
        let data = items(1200, 2);
        let config = TreeConfig::new(2).with_capacities(8, 6);
        let reference = GaussTree::bulk_load(pool(), config, data.clone()).unwrap();
        let ref_image = store_image(&reference);
        let spill_page = SpillFile::new(2).unwrap().per_page;

        for budget in [40usize, 97, 300, 5000] {
            let opts = BulkLoadOptions::default().with_mem_budget(budget);
            let (tree, report) =
                GaussTree::bulk_load_with(pool(), config, data.clone(), &opts).unwrap();
            assert_eq!(store_image(&tree), ref_image, "budget {budget}");
            assert_eq!(report.total_entries, 1200);
            if budget < 1200 {
                assert_eq!(report.spilled_entries, 1200, "budget {budget}");
                // A window or range within the budget, plus the spill
                // file's page being filled and its decoded page.
                assert!(
                    report.peak_resident_entries
                        <= budget.max(tree.leaf_capacity()).max(16) + 2 * spill_page,
                    "budget {budget}: peak {}",
                    report.peak_resident_entries
                );
            }
        }
    }

    #[test]
    fn peak_resident_counts_the_spill_files_pages() {
        let per_page = SpillFile::new(1).unwrap().per_page;
        let budget = 100;
        let data = items(2 * per_page as u64 + 50, 1);
        let config = TreeConfig::new(1).with_capacities(8, 6);
        let opts = BulkLoadOptions::default().with_mem_budget(budget);
        let (_, report) = GaussTree::bulk_load_with(pool(), config, data, &opts).unwrap();
        assert!(report.external_splits > 0);
        // The first gather window holds `budget` entries while the spill
        // file holds the 50 entries of its page being filled and one decoded
        // page. Without that page no moment holds more than a window and a
        // page being filled, `budget + per_page - 1` entries.
        let peak = report.peak_resident_entries;
        assert!(
            peak >= budget + 50 + per_page,
            "peak {peak}, page {per_page}"
        );
        assert!(
            peak <= budget + 2 * per_page,
            "peak {peak}, page {per_page}"
        );
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        let data = items(3000, 3);
        let config = TreeConfig::new(3).with_capacities(10, 8);
        let reference = GaussTree::bulk_load(pool(), config, data.clone()).unwrap();
        let ref_image = store_image(&reference);
        for threads in [2usize, 3, 4, 7] {
            let opts = BulkLoadOptions::default().with_threads(threads);
            let (tree, _) = GaussTree::bulk_load_with(pool(), config, data.clone(), &opts).unwrap();
            assert_eq!(store_image(&tree), ref_image, "threads {threads}");
        }
    }

    #[test]
    fn temp_file_spill_builds_and_cleans_up() {
        let data = items(800, 2);
        let config = TreeConfig::new(2).with_capacities(8, 6);
        let reference = GaussTree::bulk_load(pool(), config, data.clone()).unwrap();
        let opts = BulkLoadOptions::default().with_mem_budget(100);
        let (tree, report) = GaussTree::bulk_load_with(pool(), config, data, &opts).unwrap();
        assert_eq!(store_image(&tree), store_image(&reference));
        assert!(report.spilled_entries > 0);
        assert!(report.external_splits > 0);
    }

    #[test]
    fn packed_builds_use_the_fewest_pages_and_meet_strict_fill() {
        let data = items(300, 2);
        for (leaf, inner) in [(2, 2), (3, 2), (4, 3), (5, 4), (7, 5), (8, 6), (16, 9)] {
            let config = TreeConfig::new(2).with_capacities(leaf, inner);
            for n in 1..=data.len() {
                let tree = GaussTree::bulk_load(pool(), config, data[..n].to_vec()).unwrap();
                let errs = tree.check_invariants(true).unwrap();
                assert!(errs.is_empty(), "({leaf}, {inner}) n={n}: {errs:?}");
                let mut level = n.div_ceil(leaf);
                let mut minimal = level;
                while level > 1 {
                    level = level.div_ceil(inner);
                    minimal += level;
                }
                assert_eq!(
                    tree.pool().num_pages() - crate::tree::META_PAGES,
                    minimal as u64,
                    "({leaf}, {inner}) n={n}"
                );
            }
        }
    }

    /// 1-MLIQ pages per query, each from a cold cache, of a tree over
    /// `data` whose splits are priced at the input's σ̄ or at σ_q = 0.
    fn mliq_pages_per_query(
        data: &Dataset,
        queries: &[IdentificationQuery],
        at_input_spread: bool,
    ) -> f64 {
        let pool = SharedBufferPool::new(
            MemStore::new(DEFAULT_PAGE_SIZE),
            4096,
            AccessStats::new_shared(),
        );
        let opts = BulkLoadOptions::default();
        let config = TreeConfig::new(data.dims());
        let (tree, _) =
            GaussTree::build(pool, config, data.items(), &opts, at_input_spread).unwrap();
        let mut pages = 0;
        for q in queries {
            tree.cold_start();
            let before = tree.stats().snapshot();
            tree.k_mliq(&q.query, 1).unwrap();
            pages += tree.stats().snapshot().since(&before).physical_reads;
        }
        pages as f64 / queries.len() as f64
    }

    #[test]
    fn input_spread_opens_no_more_pages_than_point_pricing() {
        // Both paper regimes at test size, with the σ models of the
        // reproduction's data sets: 1500 d27 histograms whose σ scales with
        // the bin value, 3000 uniform d10 vectors with absolute σ.
        let hist_sigma = SigmaSpec::log_uniform(0.05, 0.9).relative_to_value(0.01);
        let uniform_sigma = SigmaSpec::log_uniform(0.005, 0.3);
        for (data, sigma) in [
            (
                histogram_dataset(1500, 27, hist_sigma.with_object_scale(0.5, 2.0), 20060403),
                hist_sigma.with_object_scale(0.5, 1.5),
            ),
            (
                uniform_dataset(
                    3000,
                    10,
                    uniform_sigma.with_object_scale(0.5, 3.0),
                    20060404,
                ),
                uniform_sigma.with_object_scale(0.5, 1.5),
            ),
        ] {
            let queries = generate_queries(&data, 200, sigma, 0xABCD);
            let folded = mliq_pages_per_query(&data, &queries, true);
            let point = mliq_pages_per_query(&data, &queries, false);
            assert!(
                folded <= point,
                "{}: {folded} pages per 1-MLIQ at the input's σ̄, {point} at σ_q = 0",
                data.name
            );
        }
    }

    /// The page ids of every level, root level first, and the entry count
    /// of every node, read page by page through the node codec.
    fn levels_of<S: PageStore>(tree: &GaussTree<S>) -> Vec<Vec<(PageId, usize)>> {
        let read = |page: PageId| {
            let bytes = tree.pool().page(page).unwrap();
            Node::read_from(tree.dims(), tree.config().leaf_format, &bytes).unwrap()
        };
        let mut pages = vec![tree.root_page()];
        let mut levels = Vec::new();
        while !pages.is_empty() {
            let mut below = Vec::new();
            let mut level = Vec::new();
            for page in pages {
                let node = read(page);
                level.push((page, node.len()));
                if let Node::Inner(children) = node {
                    below.extend(children.iter().map(|c| c.child));
                }
            }
            levels.push(level);
            pages = below;
        }
        levels
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn upper_levels_are_consecutive_chunks_of_the_level_below(
            (n, leaf, inner, threads, budget) in
                (1u64..1500, 2usize..40, 2usize..24, 1usize..5, 0usize..1600)
        ) {
            let config = TreeConfig::new(2).with_capacities(leaf, inner);
            // A budget below `n` spills; one of `n` or more stays resident.
            let mut opts = BulkLoadOptions::default().with_threads(threads);
            if budget < n as usize {
                opts = opts.with_mem_budget(budget);
            }
            let (tree, _) = GaussTree::bulk_load_with(pool(), config, items(n, 2), &opts).unwrap();
            let levels = levels_of(&tree);
            assert_eq!(levels.len() as u32, tree.height() + 1);
            for pair in levels.windows(2) {
                let (level, below) = (&pair[0], &pair[1]);
                assert_eq!(level.len(), below.len().div_ceil(inner), "n {n}");
                // Read in level order, the children are the level below in
                // order, and its pages ascend one id at a time: every node's
                // children start right after its previous sibling's last.
                let first = below[0].0.index();
                for (i, &(page, _)) in below.iter().enumerate() {
                    assert_eq!(page.index(), first + i as u64, "n {n}: child {i}");
                }
                let sizes = level.iter().map(|&(_, len)| len);
                let (lo, hi) = (sizes.clone().min().unwrap(), sizes.max().unwrap());
                assert!(hi - lo <= 1, "n {n}: sibling sizes {lo}..={hi}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let config = TreeConfig::new(1).with_capacities(8, 6);
        let opts = BulkLoadOptions::default()
            .with_threads(4)
            .with_mem_budget(16);
        let (tree, report) = GaussTree::bulk_load_with(pool(), config, Vec::new(), &opts).unwrap();
        assert!(tree.is_empty());
        assert_eq!(report.total_entries, 0);

        let two = vec![
            (1u64, Pfv::new(vec![0.0], vec![0.1]).unwrap()),
            (2, Pfv::new(vec![1.0], vec![0.2]).unwrap()),
        ];
        let (tree, _) = GaussTree::bulk_load_with(pool(), config, two, &opts).unwrap();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.height(), 0);
    }
}
