//! An X-tree (Berchtold, Keim, Kriegel — VLDB 1996) over hyper-rectangle
//! approximations of pfv.
//!
//! The paper's strongest baseline stores, for each pfv, the 95 %-quantile
//! box `[μᵢ − zσᵢ, μᵢ + zσᵢ]` in an X-tree; a query builds its own box, the
//! tree reports every intersecting entry, and the candidate set is refined
//! against the pfv file with the exact Lemma-1 densities. The method
//! *allows false dismissals* (an actual match can fall outside its 95 % box)
//! — the paper notes precision/recall "only slightly below" the Gauss-tree.
//!
//! The X-tree extends the R-tree with:
//!
//! * a **topological (R\*-style) split**: choose the axis with minimal
//!   margin sum, then the distribution with minimal overlap;
//! * an **overlap test**: if the best split still overlaps more than
//!   `max_overlap` of the union volume, the node is not split but grown
//!   into a **supernode** spanning multiple consecutive pages (reading a
//!   supernode costs as many page accesses as it has pages — this is what
//!   makes the X-tree degrade gracefully instead of degenerating in high
//!   dimensions).

use crate::rect::Rect;
use crate::seqscan::{EntryRef, PfvFile, ScanError};
use gauss_storage::store::{PageStore, StoreError};
use gauss_storage::{PageId, Reader, SharedBufferPool, Writer};
use pfv::logsum::LogSumAcc;
use pfv::{combine, CombineMode, Pfv};

const KIND_LEAF: u8 = 0;
const KIND_DIR: u8 = 1;
const RUN_HEADER: usize = 8; // kind u8, n_pages u16, count u16, pad 3

/// Configuration of an [`XTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XTreeConfig {
    /// Dimensionality of the indexed boxes.
    pub dims: usize,
    /// Quantile coverage of the stored boxes (paper: 0.95).
    pub coverage: f64,
    /// Maximum tolerated overlap fraction (∩ volume / ∪ volume) of a split
    /// before a supernode is created instead. The X-tree paper uses 0.2.
    pub max_overlap: f64,
    /// Minimum fill fraction per split half (R\*: 0.4).
    pub min_fill: f64,
    /// Hard cap on supernode size, in pages; a split is forced beyond it.
    pub max_supernode_pages: usize,
}

impl XTreeConfig {
    /// Paper-faithful defaults for dimensionality `dims`.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        Self {
            dims,
            coverage: 0.95,
            max_overlap: 0.2,
            min_fill: 0.4,
            max_supernode_pages: 8,
        }
    }
}

/// Leaf entry: the approximation box plus where to find the exact pfv.
#[derive(Debug, Clone, PartialEq)]
pub struct XLeafEntry {
    /// External object id.
    pub id: u64,
    /// Location of the pfv in the companion [`PfvFile`].
    pub data_ref: EntryRef,
    /// The quantile box.
    pub rect: Rect,
}

#[derive(Debug, Clone, PartialEq)]
struct XDirEntry {
    child: PageId,
    child_pages: u16,
    rect: Rect,
}

#[derive(Debug, Clone, PartialEq)]
enum XNode {
    Leaf(Vec<XLeafEntry>),
    Dir(Vec<XDirEntry>),
}

impl XNode {
    fn len(&self) -> usize {
        match self {
            XNode::Leaf(e) => e.len(),
            XNode::Dir(e) => e.len(),
        }
    }

    fn rect(&self) -> Rect {
        match self {
            XNode::Leaf(es) => {
                let mut r = es[0].rect.clone();
                for e in &es[1..] {
                    r.extend(&e.rect);
                }
                r
            }
            XNode::Dir(es) => {
                let mut r = es[0].rect.clone();
                for e in &es[1..] {
                    r.extend(&e.rect);
                }
                r
            }
        }
    }
}

/// Errors from the X-tree.
#[derive(Debug)]
pub enum XTreeError {
    /// Storage failure.
    Store(StoreError),
    /// Malformed node run.
    Corrupt(&'static str),
    /// Refinement against the pfv file failed.
    Scan(ScanError),
    /// Dimensionality mismatch.
    DimMismatch {
        /// Tree dimensionality.
        expected: usize,
        /// Query dimensionality.
        got: usize,
    },
}

impl std::fmt::Display for XTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XTreeError::Store(e) => write!(f, "store error: {e}"),
            XTreeError::Corrupt(w) => write!(f, "corrupt X-tree: {w}"),
            XTreeError::Scan(e) => write!(f, "refinement error: {e}"),
            XTreeError::DimMismatch { expected, got } => {
                write!(f, "dimensionality mismatch: tree {expected}, query {got}")
            }
        }
    }
}

impl std::error::Error for XTreeError {}

impl From<StoreError> for XTreeError {
    fn from(e: StoreError) -> Self {
        XTreeError::Store(e)
    }
}

impl From<ScanError> for XTreeError {
    fn from(e: ScanError) -> Self {
        XTreeError::Scan(e)
    }
}

/// Reference to a node run: first page and number of consecutive pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunRef {
    first: PageId,
    pages: u16,
}

/// The X-tree index.
#[derive(Debug)]
pub struct XTree<S: PageStore> {
    pool: SharedBufferPool<S>,
    config: XTreeConfig,
    root: RunRef,
    height: u32,
    len: u64,
    leaf_per_page: usize,
    dir_per_page: usize,
}

enum InsertResult {
    /// Node updated in place (possibly re-allocated); new run + rect.
    Updated(RunRef, Rect),
    /// Node split in two.
    Split((RunRef, Rect), (RunRef, Rect)),
}

impl<S: PageStore> XTree<S> {
    fn leaf_entry_bytes(dims: usize) -> usize {
        8 + 8 + 2 + 16 * dims
    }

    fn dir_entry_bytes(dims: usize) -> usize {
        8 + 2 + 16 * dims
    }

    /// Creates an empty X-tree.
    ///
    /// # Errors
    /// Storage errors; panics if a page cannot hold two entries.
    pub fn create(pool: SharedBufferPool<S>, config: XTreeConfig) -> Result<Self, XTreeError> {
        let ps = pool.page_size();
        let leaf_per_page = (ps - RUN_HEADER) / Self::leaf_entry_bytes(config.dims);
        let dir_per_page = (ps - RUN_HEADER) / Self::dir_entry_bytes(config.dims);
        assert!(
            leaf_per_page >= 2 && dir_per_page >= 2,
            "page size {ps} too small for X-tree nodes of dimension {}",
            config.dims
        );
        let root_page = pool.allocate()?;
        let mut tree = Self {
            pool,
            config,
            root: RunRef {
                first: root_page,
                pages: 1,
            },
            height: 0,
            len: 0,
            leaf_per_page,
            dir_per_page,
        };
        let root = tree.root;
        tree.write_node(root, &XNode::Leaf(Vec::new()))?;
        Ok(tree)
    }

    /// Builds an X-tree over every entry of a pfv file, inserting the
    /// `coverage`-quantile box of each pfv.
    ///
    /// # Errors
    /// Storage/scan errors.
    pub fn build_from_file(
        pool: SharedBufferPool<S>,
        config: XTreeConfig,
        file: &mut PfvFile<impl PageStore>,
    ) -> Result<Self, XTreeError> {
        let mut tree = Self::create(pool, config)?;
        let mut pending = Vec::with_capacity(file.len() as usize);
        file.for_each(|r, id, v| {
            pending.push((id, r, Rect::quantile_box(v, config.coverage)));
        })?;
        for (id, data_ref, rect) in pending {
            tree.insert(XLeafEntry { id, data_ref, rect })?;
        }
        Ok(tree)
    }

    /// Number of indexed entries.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 = root is a leaf).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Buffer pool access (stats, cold start).
    pub fn pool_mut(&mut self) -> &mut SharedBufferPool<S> {
        &mut self.pool
    }

    /// Shared access statistics.
    #[must_use]
    pub fn stats(&self) -> &std::sync::Arc<gauss_storage::AccessStats> {
        self.pool.stats()
    }

    // ---- node I/O ----------------------------------------------------------

    fn capacity(&self, node: &XNode, pages: u16) -> usize {
        let per = match node {
            XNode::Leaf(_) => self.leaf_per_page,
            XNode::Dir(_) => self.dir_per_page,
        };
        per * pages as usize
    }

    fn read_node(&mut self, run: RunRef) -> Result<XNode, XTreeError> {
        let ps = self.pool.page_size();
        let mut bytes = Vec::with_capacity(ps * run.pages as usize);
        for i in 0..run.pages {
            let page = self.pool.page(PageId(run.first.index() + u64::from(i)))?;
            bytes.extend_from_slice(&page);
        }
        let mut r = Reader::new(&bytes);
        let kind = r.get_u8().map_err(|_| XTreeError::Corrupt("header"))?;
        let n_pages = r.get_u16().map_err(|_| XTreeError::Corrupt("header"))?;
        let count = r.get_u16().map_err(|_| XTreeError::Corrupt("header"))? as usize;
        if n_pages != run.pages {
            return Err(XTreeError::Corrupt("run length mismatch"));
        }
        for _ in 0..(RUN_HEADER - 5) {
            let _ = r.get_u8().map_err(|_| XTreeError::Corrupt("header"))?;
        }
        let dims = self.config.dims;
        match kind {
            KIND_LEAF => {
                let mut es = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = r.get_u64().map_err(|_| XTreeError::Corrupt("entry"))?;
                    let page = PageId(r.get_u64().map_err(|_| XTreeError::Corrupt("entry"))?);
                    let slot = r.get_u16().map_err(|_| XTreeError::Corrupt("entry"))?;
                    let lo = r
                        .get_f64_vec(dims)
                        .map_err(|_| XTreeError::Corrupt("entry"))?;
                    let hi = r
                        .get_f64_vec(dims)
                        .map_err(|_| XTreeError::Corrupt("entry"))?;
                    es.push(XLeafEntry {
                        id,
                        data_ref: EntryRef { page, slot },
                        rect: Rect::new(lo, hi),
                    });
                }
                Ok(XNode::Leaf(es))
            }
            KIND_DIR => {
                let mut es = Vec::with_capacity(count);
                for _ in 0..count {
                    let child = PageId(r.get_u64().map_err(|_| XTreeError::Corrupt("entry"))?);
                    let child_pages = r.get_u16().map_err(|_| XTreeError::Corrupt("entry"))?;
                    let lo = r
                        .get_f64_vec(dims)
                        .map_err(|_| XTreeError::Corrupt("entry"))?;
                    let hi = r
                        .get_f64_vec(dims)
                        .map_err(|_| XTreeError::Corrupt("entry"))?;
                    es.push(XDirEntry {
                        child,
                        child_pages,
                        rect: Rect::new(lo, hi),
                    });
                }
                Ok(XNode::Dir(es))
            }
            _ => Err(XTreeError::Corrupt("unknown kind")),
        }
    }

    /// Serialises `node` into the run (the run must be large enough).
    #[expect(clippy::expect_used, reason = "run entry counts are below u16::MAX")]
    fn write_node(&mut self, run: RunRef, node: &XNode) -> Result<(), XTreeError> {
        let ps = self.pool.page_size();
        let mut bytes = vec![0u8; ps * run.pages as usize];
        {
            let mut w = Writer::new(&mut bytes);
            let (kind, count) = match node {
                XNode::Leaf(es) => (KIND_LEAF, es.len()),
                XNode::Dir(es) => (KIND_DIR, es.len()),
            };
            w.put_u8(kind);
            w.put_u16(run.pages);
            w.put_u16(u16::try_from(count).expect("entry count fits u16"));
            for _ in 0..(RUN_HEADER - 5) {
                w.put_u8(0);
            }
            match node {
                XNode::Leaf(es) => {
                    for e in es {
                        w.put_u64(e.id);
                        w.put_u64(e.data_ref.page.index());
                        w.put_u16(e.data_ref.slot);
                        w.put_f64_slice(e.rect.lo());
                        w.put_f64_slice(e.rect.hi());
                    }
                }
                XNode::Dir(es) => {
                    for e in es {
                        w.put_u64(e.child.index());
                        w.put_u16(e.child_pages);
                        w.put_f64_slice(e.rect.lo());
                        w.put_f64_slice(e.rect.hi());
                    }
                }
            }
        }
        for i in 0..run.pages {
            self.pool.write(
                PageId(run.first.index() + u64::from(i)),
                &bytes[i as usize * ps..(i as usize + 1) * ps],
            )?;
        }
        Ok(())
    }

    /// Allocates a run of `pages` consecutive pages.
    fn allocate_run(&mut self, pages: u16) -> Result<RunRef, XTreeError> {
        let first = self.pool.allocate()?;
        for i in 1..u64::from(pages) {
            let next = self.pool.allocate()?;
            // Both stores allocate densely, so runs are contiguous.
            debug_assert_eq!(next.index(), first.index() + i, "non-contiguous run");
        }
        Ok(RunRef { first, pages })
    }

    // ---- insertion ---------------------------------------------------------

    /// Inserts a pre-built leaf entry.
    ///
    /// # Errors
    /// Storage errors or dimensionality mismatch.
    pub fn insert(&mut self, entry: XLeafEntry) -> Result<(), XTreeError> {
        if entry.rect.dims() != self.config.dims {
            return Err(XTreeError::DimMismatch {
                expected: self.config.dims,
                got: entry.rect.dims(),
            });
        }
        let root = self.root;
        match self.insert_rec(root, self.height, entry)? {
            InsertResult::Updated(run, _) => {
                self.root = run;
            }
            InsertResult::Split((left_run, left_rect), (right_run, right_rect)) => {
                let node = XNode::Dir(vec![
                    XDirEntry {
                        child: left_run.first,
                        child_pages: left_run.pages,
                        rect: left_rect,
                    },
                    XDirEntry {
                        child: right_run.first,
                        child_pages: right_run.pages,
                        rect: right_rect,
                    },
                ]);
                let run = self.allocate_run(1)?;
                self.write_node(run, &node)?;
                self.root = run;
                self.height += 1;
            }
        }
        self.len += 1;
        Ok(())
    }

    fn insert_rec(
        &mut self,
        run: RunRef,
        level: u32,
        entry: XLeafEntry,
    ) -> Result<InsertResult, XTreeError> {
        let node = self.read_node(run)?;
        if level == 0 {
            let XNode::Leaf(mut es) = node else {
                return Err(XTreeError::Corrupt("expected leaf"));
            };
            es.push(entry);
            self.finish_overflow(run, XNode::Leaf(es))
        } else {
            let XNode::Dir(mut es) = node else {
                return Err(XTreeError::Corrupt("expected dir"));
            };
            if es.is_empty() {
                return Err(XTreeError::Corrupt("empty dir node"));
            }
            // R*-lite choose-subtree: minimal volume enlargement, then
            // minimal volume.
            let mut best = (f64::INFINITY, f64::INFINITY, 0usize);
            for (i, e) in es.iter().enumerate() {
                let enl = e.rect.enlargement(&entry.rect);
                let vol = e.rect.volume();
                if enl < best.0 || (enl == best.0 && vol < best.1) {
                    best = (enl, vol, i);
                }
            }
            let idx = best.2;
            let child_run = RunRef {
                first: es[idx].child,
                pages: es[idx].child_pages,
            };
            match self.insert_rec(child_run, level - 1, entry)? {
                InsertResult::Updated(new_run, rect) => {
                    es[idx] = XDirEntry {
                        child: new_run.first,
                        child_pages: new_run.pages,
                        rect,
                    };
                }
                InsertResult::Split((lr, lrect), (rr, rrect)) => {
                    es[idx] = XDirEntry {
                        child: lr.first,
                        child_pages: lr.pages,
                        rect: lrect,
                    };
                    es.push(XDirEntry {
                        child: rr.first,
                        child_pages: rr.pages,
                        rect: rrect,
                    });
                }
            }
            self.finish_overflow(run, XNode::Dir(es))
        }
    }

    /// Writes a possibly-overflowing node back: in place if it fits, split
    /// if a good split exists, supernode otherwise.
    fn finish_overflow(&mut self, run: RunRef, node: XNode) -> Result<InsertResult, XTreeError> {
        if node.len() <= self.capacity(&node, run.pages) {
            let rect = node.rect();
            self.write_node(run, &node)?;
            return Ok(InsertResult::Updated(run, rect));
        }
        // Overflow: attempt a topological split.
        let split = self.try_split(&node);
        match split {
            Some((left, right)) => {
                let left_run = self.run_for(&left, run)?;
                let right_pages = self.pages_needed(&right);
                let right_run = self.allocate_run(right_pages)?;
                let lrect = left.rect();
                let rrect = right.rect();
                self.write_node(left_run, &left)?;
                self.write_node(right_run, &right)?;
                Ok(InsertResult::Split((left_run, lrect), (right_run, rrect)))
            }
            None => {
                // Grow into (or extend) a supernode.
                let pages = self.pages_needed(&node);
                let new_run = if pages == run.pages {
                    run
                } else {
                    self.allocate_run(pages)?
                };
                let rect = node.rect();
                self.write_node(new_run, &node)?;
                Ok(InsertResult::Updated(new_run, rect))
            }
        }
    }

    #[expect(clippy::expect_used, reason = "page runs are far below u16::MAX")]
    fn pages_needed(&self, node: &XNode) -> u16 {
        let per = match node {
            XNode::Leaf(_) => self.leaf_per_page,
            XNode::Dir(_) => self.dir_per_page,
        };
        u16::try_from(node.len().div_ceil(per).max(1)).expect("page run fits u16")
    }

    /// Left half reuses the original run when it shrank to fit, otherwise a
    /// fresh, right-sized run.
    fn run_for(&mut self, node: &XNode, old: RunRef) -> Result<RunRef, XTreeError> {
        let pages = self.pages_needed(node);
        if pages == old.pages {
            Ok(old)
        } else {
            self.allocate_run(pages)
        }
    }

    /// R\*-style topological split; `None` if every distribution overlaps
    /// too much and the supernode cap is not yet reached (the X-tree's
    /// defining decision).
    fn try_split(&self, node: &XNode) -> Option<(XNode, XNode)> {
        let rects: Vec<Rect> = match node {
            XNode::Leaf(es) => es.iter().map(|e| e.rect.clone()).collect(),
            XNode::Dir(es) => es.iter().map(|e| e.rect.clone()).collect(),
        };
        let n = rects.len();
        let m = ((self.config.min_fill * n as f64).ceil() as usize).clamp(1, n / 2);
        let dims = self.config.dims;

        let mut best: Option<(f64, f64, Vec<usize>, usize)> = None; // (overlap_frac, margin, order, split_at)
        for axis in 0..dims {
            for by_upper in [false, true] {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    let ka = if by_upper {
                        rects[a].hi()[axis]
                    } else {
                        rects[a].lo()[axis]
                    };
                    let kb = if by_upper {
                        rects[b].hi()[axis]
                    } else {
                        rects[b].lo()[axis]
                    };
                    ka.total_cmp(&kb)
                });
                for split_at in m..=(n - m) {
                    let (ra, rb) = group_rects(&rects, &order, split_at);
                    let overlap = ra.overlap_volume(&rb);
                    let union = ra.union(&rb).volume();
                    let frac = if union > 0.0 { overlap / union } else { 0.0 };
                    let margin = ra.margin() + rb.margin();
                    let better = match &best {
                        None => true,
                        Some((bf, bm, ..)) => frac < *bf || (frac == *bf && margin < *bm),
                    };
                    if better {
                        best = Some((frac, margin, order.clone(), split_at));
                    }
                }
            }
        }
        let (frac, _, order, split_at) = best?;
        let current_pages = self.pages_needed(node);
        if frac > self.config.max_overlap
            && (current_pages as usize) < self.config.max_supernode_pages
        {
            return None; // become/grow a supernode instead
        }
        Some(split_node(node, &order, split_at))
    }

    // ---- queries -----------------------------------------------------------

    /// Every leaf entry whose box intersects `qbox` (the filter step).
    ///
    /// # Errors
    /// Storage errors or dimensionality mismatch.
    pub fn candidates(&mut self, qbox: &Rect) -> Result<Vec<XLeafEntry>, XTreeError> {
        if qbox.dims() != self.config.dims {
            return Err(XTreeError::DimMismatch {
                expected: self.config.dims,
                got: qbox.dims(),
            });
        }
        let mut out = Vec::new();
        if self.is_empty() {
            return Ok(out);
        }
        let mut stack = vec![self.root];
        while let Some(run) = stack.pop() {
            match self.read_node(run)? {
                XNode::Leaf(es) => {
                    for e in es {
                        if e.rect.intersects(qbox) {
                            out.push(e);
                        }
                    }
                }
                XNode::Dir(es) => {
                    for e in es {
                        if e.rect.intersects(qbox) {
                            stack.push(RunRef {
                                first: e.child,
                                pages: e.child_pages,
                            });
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// The paper's X-tree MLIQ: filter by box intersection, refine the
    /// candidates against the pfv file with exact Lemma-1 densities, return
    /// the k best. *Approximate* — false dismissals are possible.
    ///
    /// # Errors
    /// Storage/scan errors or dimensionality mismatch.
    pub fn k_mliq(
        &mut self,
        file: &mut PfvFile<impl PageStore>,
        q: &Pfv,
        k: usize,
        mode: CombineMode,
    ) -> Result<Vec<(u64, f64)>, XTreeError> {
        let qbox = Rect::quantile_box(q, self.config.coverage);
        let cands = self.candidates(&qbox)?;
        let mut scored = Vec::with_capacity(cands.len());
        for c in cands {
            let (id, v) = file.fetch(c.data_ref)?;
            debug_assert_eq!(id, c.id);
            scored.push((id, combine::log_joint(mode, &v, q)));
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(k);
        Ok(scored)
    }

    /// The X-tree TIQ: filter, refine, and normalise by the candidate-set
    /// density sum. The denominator misses every non-candidate, so reported
    /// probabilities are *over*estimates — another reason the method is
    /// approximate.
    ///
    /// # Errors
    /// Storage/scan errors or dimensionality mismatch.
    ///
    /// # Panics
    /// Panics unless `0 < p_theta <= 1`.
    pub fn tiq(
        &mut self,
        file: &mut PfvFile<impl PageStore>,
        q: &Pfv,
        p_theta: f64,
        mode: CombineMode,
    ) -> Result<Vec<(u64, f64, f64)>, XTreeError> {
        assert!(
            p_theta > 0.0 && p_theta <= 1.0,
            "threshold must be in (0,1], got {p_theta}"
        );
        let qbox = Rect::quantile_box(q, self.config.coverage);
        let cands = self.candidates(&qbox)?;
        let mut scored = Vec::with_capacity(cands.len());
        let mut denom = LogSumAcc::new();
        for c in cands {
            let (id, v) = file.fetch(c.data_ref)?;
            let ld = combine::log_joint(mode, &v, q);
            denom.add(ld);
            scored.push((id, ld));
        }
        let d = denom.value();
        let ln_theta = p_theta.ln();
        let mut out: Vec<(u64, f64, f64)> = scored
            .into_iter()
            .filter(|&(_, ld)| ld - d >= ln_theta)
            .map(|(id, ld)| (id, ld, (ld - d).exp()))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(out)
    }

    /// Walks the whole tree and reports `(leaf nodes, dir nodes, supernodes,
    /// total pages)` — used by tests and diagnostics.
    ///
    /// # Errors
    /// Storage errors.
    pub fn shape(&mut self) -> Result<(usize, usize, usize, u64), XTreeError> {
        let mut leaves = 0;
        let mut dirs = 0;
        let mut supers = 0;
        let mut pages = 0u64;
        let mut stack = vec![self.root];
        while let Some(run) = stack.pop() {
            pages += u64::from(run.pages);
            if run.pages > 1 {
                supers += 1;
            }
            match self.read_node(run)? {
                XNode::Leaf(_) => leaves += 1,
                XNode::Dir(es) => {
                    dirs += 1;
                    for e in es {
                        stack.push(RunRef {
                            first: e.child,
                            pages: e.child_pages,
                        });
                    }
                }
            }
        }
        Ok((leaves, dirs, supers, pages))
    }
}

fn group_rects(rects: &[Rect], order: &[usize], split_at: usize) -> (Rect, Rect) {
    let mut a = rects[order[0]].clone();
    for &i in &order[1..split_at] {
        a.extend(&rects[i]);
    }
    let mut b = rects[order[split_at]].clone();
    for &i in &order[split_at + 1..] {
        b.extend(&rects[i]);
    }
    (a, b)
}

fn split_node(node: &XNode, order: &[usize], split_at: usize) -> (XNode, XNode) {
    match node {
        XNode::Leaf(es) => {
            let left = order[..split_at].iter().map(|&i| es[i].clone()).collect();
            let right = order[split_at..].iter().map(|&i| es[i].clone()).collect();
            (XNode::Leaf(left), XNode::Leaf(right))
        }
        XNode::Dir(es) => {
            let left = order[..split_at].iter().map(|&i| es[i].clone()).collect();
            let right = order[split_at..].iter().map(|&i| es[i].clone()).collect();
            (XNode::Dir(left), XNode::Dir(right))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gauss_storage::{AccessStats, MemStore};

    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn make_db(n: usize, dims: usize, seed: u64) -> Vec<(u64, Pfv)> {
        let mut rng = Rng(seed | 1);
        (0..n as u64)
            .map(|id| {
                let means: Vec<f64> = (0..dims).map(|_| rng.next_f64() * 10.0).collect();
                let sigmas: Vec<f64> = (0..dims).map(|_| 0.05 + rng.next_f64() * 0.3).collect();
                (id, Pfv::new(means, sigmas).unwrap())
            })
            .collect()
    }

    fn build(items: &[(u64, Pfv)], dims: usize) -> (XTree<MemStore>, PfvFile<MemStore>) {
        let file_pool = SharedBufferPool::new(MemStore::new(4096), 4096, AccessStats::new_shared());
        let mut file = PfvFile::build(file_pool, dims, items.to_vec()).unwrap();
        let tree_pool = SharedBufferPool::new(MemStore::new(4096), 4096, AccessStats::new_shared());
        let tree = XTree::build_from_file(tree_pool, XTreeConfig::new(dims), &mut file).unwrap();
        (tree, file)
    }

    #[test]
    fn build_and_count() {
        let items = make_db(300, 2, 11);
        let (mut tree, _) = build(&items, 2);
        assert_eq!(tree.len(), 300);
        let (leaves, _, _, _) = tree.shape().unwrap();
        assert!(leaves > 1, "300 entries must span multiple leaves");
    }

    #[test]
    fn candidates_match_brute_force_filter() {
        let items = make_db(400, 2, 77);
        let (mut tree, _) = build(&items, 2);
        let q = Pfv::new(vec![5.0, 5.0], vec![0.3, 0.3]).unwrap();
        let qbox = Rect::quantile_box(&q, 0.95);
        let got: std::collections::HashSet<u64> = tree
            .candidates(&qbox)
            .unwrap()
            .iter()
            .map(|e| e.id)
            .collect();
        let want: std::collections::HashSet<u64> = items
            .iter()
            .filter(|(_, v)| Rect::quantile_box(v, 0.95).intersects(&qbox))
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn k_mliq_refinement_ranks_candidates_exactly() {
        let items = make_db(300, 2, 5);
        let (mut tree, mut file) = build(&items, 2);
        let q = Pfv::new(items[42].1.means().to_vec(), vec![0.2, 0.2]).unwrap();
        let got = tree
            .k_mliq(&mut file, &q, 3, CombineMode::Convolution)
            .unwrap();
        // Refined scores must equal the exact joint densities, and the
        // ranking must match a brute-force ranking restricted to the
        // candidate set.
        let qbox = Rect::quantile_box(&q, 0.95);
        let mut want: Vec<(u64, f64)> = items
            .iter()
            .filter(|(_, v)| Rect::quantile_box(v, 0.95).intersects(&qbox))
            .map(|(id, v)| (*id, combine::log_joint(CombineMode::Convolution, v, &q)))
            .collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        want.truncate(3);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.0, w.0);
            assert!((g.1 - w.1).abs() < 1e-12);
        }
        // The query's source object must at least be among the candidates.
        assert!(
            want.iter().any(|&(id, _)| id == 42) || {
                // unless its observation fell outside the 95% box — verify.
                !Rect::quantile_box(&items[42].1, 0.95).intersects(&qbox)
            }
        );
    }

    #[test]
    fn supernodes_appear_under_heavy_overlap() {
        // Boxes that all overlap each other force the X-tree to give up on
        // splitting and create supernodes.
        let dims = 4;
        let mut items = Vec::new();
        let mut rng = Rng(3);
        for id in 0..600u64 {
            // Huge sigmas => huge, mutually overlapping boxes.
            let means: Vec<f64> = (0..dims).map(|_| rng.next_f64()).collect();
            let sigmas: Vec<f64> = (0..dims).map(|_| 5.0 + rng.next_f64()).collect();
            items.push((id, Pfv::new(means, sigmas).unwrap()));
        }
        let (mut tree, _) = build(&items, dims);
        let (_, _, supers, _) = tree.shape().unwrap();
        assert!(supers > 0, "expected supernodes under total overlap");
    }

    #[test]
    fn no_supernodes_for_well_separated_data() {
        let dims = 2;
        let mut items = Vec::new();
        for id in 0..400u64 {
            let cell = id as f64;
            items.push((
                id,
                Pfv::new(vec![cell * 10.0, cell * 10.0], vec![0.01, 0.01]).unwrap(),
            ));
        }
        let (mut tree, _) = build(&items, dims);
        let (_, _, supers, _) = tree.shape().unwrap();
        assert_eq!(supers, 0, "well-separated boxes should split cleanly");
    }

    #[test]
    fn tiq_returns_high_probability_candidates() {
        let items = make_db(200, 2, 123);
        let (mut tree, mut file) = build(&items, 2);
        let q = Pfv::new(items[10].1.means().to_vec(), vec![0.1, 0.1]).unwrap();
        let got = tree
            .tiq(&mut file, &q, 0.2, CombineMode::Convolution)
            .unwrap();
        assert!(!got.is_empty());
        assert!(got.iter().any(|r| r.0 == 10));
        for (_, _, p) in &got {
            assert!(*p >= 0.2);
        }
    }

    #[test]
    fn empty_tree_queries() {
        let pool = SharedBufferPool::new(MemStore::new(4096), 64, AccessStats::new_shared());
        let mut tree = XTree::create(pool, XTreeConfig::new(2)).unwrap();
        let qbox = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert!(tree.candidates(&qbox).unwrap().is_empty());
    }

    #[test]
    fn dimensionality_mismatch_rejected() {
        let items = make_db(10, 2, 9);
        let (mut tree, _) = build(&items, 2);
        let qbox = Rect::new(vec![0.0], vec![1.0]);
        assert!(matches!(
            tree.candidates(&qbox),
            Err(XTreeError::DimMismatch { .. })
        ));
    }
}
