//! Query processing on the Gauss-tree (paper §5.2) — the one read engine.
//!
//! All algorithms run best-first over a priority queue of *active nodes*
//! ordered by the conservative upper bound `N̂` of the node's Gaussians
//! evaluated for the query (Hjaltason–Samet, as in §5.2.1). They are
//! written once, against `ViewPlane`: a memtable slice plus component
//! trees with per-component shadow sets, of which a single tree
//! (`&GaussTree`) is the one-component, empty-memtable,
//! nothing-shadowed case. They surface on every view through
//! [`crate::view::ReadView`]:
//!
//! * [`ReadView::k_mliq`] — the plain k-most-likely identification query:
//!   memtable densities and every component's best-first descent
//!   (`Plane::k_mliq_scan`) push into one shared top-k heap; a descent
//!   stops when every kept candidate beats the bound of its best
//!   unexplored node, and a fuller shared heap only tightens that bound;
//! * [`ReadView::k_mliq_refined`] — §5.2.2: additionally reports the
//!   *actual* identification probability `P(v|q)` by maintaining lower and
//!   upper bounds `n·Ň ≤ Σ ≤ n·N̂` on the contribution of unexplored
//!   subtrees to the Bayes denominator, refining until the probability
//!   interval is narrower than the caller's accuracy;
//! * [`ReadView::tiq`] — §5.2.3 / Figure 5: the threshold identification
//!   query; candidates are pruned once their probability upper bound drops
//!   below the threshold, and processing stops when no unexplored node can
//!   contain a qualifying object and every candidate is decided.
//!
//! **Why lazy pricing opens the same pages.** The two loops that order by
//! the upper bound alone — `Plane::k_mliq_scan` and the
//! [`RankingCursor`](crate::RankingCursor) — do not price an inner node's
//! children exactly when they open it. The screen of [`pfv::rects`]
//! brackets every child's exact Lemma-2 bound `N̂`, `low ≤ N̂ ≤ key`, for
//! one `ln` per child; the child is queued under `key` (k-MLIQ drops it
//! at once if `key` is below the k-th kept density `worst`), and the loop
//! keeps the parent's decoded node, so pricing the child later reads
//! nothing. With `t` the popped entry and `next` the best key left:
//!
//! 1. `worst > t.key`: stop — every exact bound left is below `worst`.
//! 2. `t` unpriced and `!(t.low > next) || worst > t.low`: price `t`
//!    exactly from its parent's columns; drop it if that is below
//!    `worst`, else queue it again, priced.
//! 3. Otherwise expand `t`.
//!
//! So a node is expanded only when its exact bound is provably the largest
//! left and at least `worst`: a priced entry's key *is* its bound and
//! bounds every other exact bound from above; an unpriced one has
//! `N̂ ≥ low > next`. Ties go by page either way — an unpriced entry whose
//! key ties the top's is priced when it pops, before anything is expanded.
//! That is the choice of the eager loop, which prices every child when its
//! parent opens, queues those not below `worst` and pops the best
//! `(N̂, page)` until one is below `worst`. The children the lazy loop
//! queues and the eager one does not have bounds below a `worst` that only
//! rises, so rule 2 drops them; and where the eager loop stops, the lazy
//! one only prices and drops. Same expansions in the same order, so the
//! same leaves through the same kernel, the same `worst` after each, the
//! same stopping point — the same pages, ids and density bits. The cursor
//! is the case `worst = −∞`: nothing is dropped, and a node out-ranks an
//! object of equal key, so every node whose exact bound reaches a hit's
//! density is expanded before the hit is emitted, as in the eager cursor.
//! A test keeps the eager k-MLIQ loop as the oracle of reads and answer
//! bits.
//!
//! **Why the answer does not depend on component boundaries.** Candidate
//! selection is a pure function of the multiset of `(id, density)` pairs
//! of the live set under a strict total order. Densities come from the
//! same kernels everywhere ([`pfv::combine::log_joint`] ≡ [`pfv::batch`],
//! and memtable values are pre-quantised), ids are unique across the live
//! set, shadowed ids never enter a heap or the exact sum, and every
//! pruning test is strict on ties — so ids, order and density bits equal
//! those of one tree bulk-loaded from the same live set, however the set
//! is cut into components and in whichever order they are scanned.
//!
//! **Why the probability intervals do depend on exploration order.** One
//! `DenomBounds` serves the whole view: exact densities for memtable
//! entries and expanded leaves, and per unexpanded node a remainder term
//! priced with *asymmetric counts* — the upper term uses the node's full
//! entry count (valid even when newer data shadows some entries), the
//! lower discounts every id its component hides (never over-counts what
//! is visible). The bounds always bracket the exact live-set denominator
//! and close on it as nodes expand, but *where* inside the requested
//! accuracy they stand when the loop stops depends on which nodes were
//! open then. Membership and densities are contractual; `prob_lo` /
//! `prob_hi` are guaranteed brackets of width ≤ accuracy, bit-equal only
//! between views with the same component layout.
//!
//! **Why skipping below the floor is exact, not approximate.** All three
//! queries open a leaf through one loop, `leaf_objects`: with a *floor* it
//! bounds every entry from above with the screen kernel
//! ([`pfv::batch::screen_densities`]) and pays the exact kernel only for
//! entries whose bound reaches the floor. For k-MLIQ the floor is the k-th
//! kept density. The denominator searches need more, because every entry
//! also feeds `Σ p(q|w)` — and get it from how the exact part of that sum
//! is held: [`pfv::logsum::LogSumAcc`] scales its terms to the largest one
//! seen, so the scaled sum is `≥ 1`, and a term `38` nats below the
//! largest adds at most `e⁻³⁸ ≈ 3.1e-17`, less than half an ulp
//! (`2⁻⁵³ ≈ 1.1e-16`) of any double `≥ 1`: round-to-nearest returns the
//! old sum, bit for bit. (The
//! true edge is `ln 2⁵³ = 36.7`; at 36 nats the sum does move, and the
//! nat in between covers the roundings of `exp` and of the floor itself —
//! `pfv::logsum` pins both.) So `DenomSearch::expand` skips an entry only
//! if its bound is below `min(exact_max − 38, caller's floor)`, where the
//! caller's floor is a density below which it provably ignores entries:
//! the k-th kept density for refined k-MLIQ, `exact_max − (1 − ln θ)` for
//! TIQ (admission needs `ld − log_lo ≥ ln θ` and `log_lo ≥ exact_max`, in
//! floating point too). A candidate cannot hide below the floor, a skipped
//! term cannot change `exact`, survivors are evaluated, added and offered
//! in entry order by a kernel bit-identical to the batched one — hence the
//! same candidate list, the same `DenomBounds` after every expansion, the
//! same loop decisions and the same `[prob_lo, prob_hi]` bits as opening
//! every leaf with the batched kernel. With nothing exact yet, or all
//! densities underflowed, there is no floor and the batched kernel runs.
//!
//! **Which path a leaf takes** is decided by the query's own running
//! tally, not by an option: the screen costs about 40 % of the batched
//! kernel per entry plus a scalar exact evaluation per survivor, so it
//! loses where densities are flat. Both paths count how many entries
//! reached the floor (`kept`) of those opened under a finite floor
//! (`seen`) — the same numbers either way — and the next leaf is screened
//! while `2·kept ≤ seen`. Measured on 30 000 uniform d-8 objects, TIQ at
//! θ = 0.2, always-on against never-on: 897 vs 1162 µs at 14 % kept,
//! 1429 vs 1431 µs at 38 % (the crossover), 1086 vs 921 µs at 57 %, 227 vs
//! 164 µs at 100 %; the per-leaf rule read at or below both at every point
//! (889, 1282, 877, 167 µs), because the share varies within a query —
//! best-first opens the leaves around the peak, where everything is kept,
//! first. Since both paths produce the same bits, the choice is invisible
//! in every answer.
//!
//! [`ReadView::k_mliq`]: crate::view::ReadView::k_mliq
//! [`ReadView::k_mliq_refined`]: crate::view::ReadView::k_mliq_refined
//! [`ReadView::tiq`]: crate::view::ReadView::tiq

use crate::node::{CachedNode, ColumnarInnerNode, ColumnarLeafNode};
use crate::tree::TreeError;
use crate::view::{Plane, ViewPlane};
use gauss_storage::store::PageStore;
use gauss_storage::PageId;
use pfv::logsum::{log_add_exp, LogSumAcc, ScaledSum};
use pfv::{batch, combine, CombineMode, Pfv};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

/// How far below the largest exact term of the Bayes denominator a density
/// has to lie to leave the exact sum **bit-unchanged**: [`LogSumAcc`]
/// keeps its sum scaled to the largest term, hence `≥ 1`, and
/// `e⁻³⁸ ≈ 3.1e-17` is under half an ulp (`2⁻⁵³`) of any such number. Not
/// tunable — at 36 nats the sum does move (both pinned by tests in
/// `pfv::logsum`).
const NO_OP_GAP: f64 = 38.0;

/// Result of a plain k-MLIQ: ranked by relative probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MliqResult {
    /// External object id.
    pub id: u64,
    /// `ln p(q|v)` — the relative (unnormalised) log density.
    pub log_density: f64,
}

/// Result of a probability-refined k-MLIQ (§5.2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinedResult {
    /// External object id.
    pub id: u64,
    /// `ln p(q|v)`.
    pub log_density: f64,
    /// Identification probability `P(v|q)` (midpoint of the bound interval).
    pub probability: f64,
    /// Guaranteed lower bound on `P(v|q)`.
    pub prob_lo: f64,
    /// Guaranteed upper bound on `P(v|q)`.
    pub prob_hi: f64,
}

/// Result of a threshold identification query (§5.2.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TiqResult {
    /// External object id.
    pub id: u64,
    /// `ln p(q|v)`.
    pub log_density: f64,
    /// Identification probability `P(v|q)` (midpoint of the bound interval).
    pub probability: f64,
    /// Guaranteed lower bound on `P(v|q)`.
    pub prob_lo: f64,
    /// Guaranteed upper bound on `P(v|q)`.
    pub prob_hi: f64,
}

/// An unexpanded node of a denominator search: its exact bounds, the
/// entries below it and its page.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveNode {
    pub(crate) log_upper: f64,
    pub(crate) log_lower: f64,
    pub(crate) count: u64,
    pub(crate) page: PageId,
}

/// Candidate ordered ascending by (density, id) so a `BinaryHeap<Reverse<_>>`
/// keeps the k best and peeks the worst kept.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) log_density: f64,
    pub(crate) id: u64,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.log_density == other.log_density && self.id == other.id
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.log_density
            .total_cmp(&other.log_density)
            // Larger ids considered "worse" on ties so ordering is stable.
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Running lower/upper bounds on the Bayes denominator
/// `Σ_{w ∈ DB} p(q|w)`.
///
/// `exact` accumulates the densities of objects already examined; `min_rem`
/// / `max_rem` accumulate `n·Ň` / `n·N̂` of not-yet-expanded subtrees.
pub(crate) struct DenomBounds {
    exact: LogSumAcc,
    min_rem: ScaledSum,
    max_rem: ScaledSum,
}

impl DenomBounds {
    pub(crate) fn new(anchor: f64) -> Self {
        Self {
            exact: LogSumAcc::new(),
            min_rem: ScaledSum::new(anchor),
            max_rem: ScaledSum::new(anchor),
        }
    }

    pub(crate) fn add_object(&mut self, log_density: f64) {
        self.exact.add(log_density);
    }

    /// Adds the remainder terms of an unexpanded node whose component
    /// hides `shadowed` ids (0 for a single tree). The upper term prices
    /// all stored entries — shadowed ones only loosen it upward; the lower
    /// discounts every id the component hides, since the node cannot hide
    /// more than the whole component does.
    pub(crate) fn add_node(&mut self, node: &ActiveNode, shadowed: f64) {
        // Re-anchor before a term that would overflow the current scale.
        if node.log_upper - self.max_rem.anchor() > 600.0 {
            self.min_rem.reanchor(node.log_upper);
            self.max_rem.reanchor(node.log_upper);
        }
        let stored = node.count as f64;
        self.min_rem
            .add(node.log_lower, (stored - shadowed).max(0.0));
        self.max_rem.add(node.log_upper, stored);
    }

    /// Inverse of [`DenomBounds::add_node`].
    pub(crate) fn remove_node(&mut self, node: &ActiveNode, shadowed: f64) {
        let stored = node.count as f64;
        self.min_rem
            .sub(node.log_lower, (stored - shadowed).max(0.0));
        self.max_rem.sub(node.log_upper, stored);
    }

    /// `ln` of the guaranteed lower bound on the denominator.
    ///
    /// Uses the error-deflated reading of the remainder accumulator so the
    /// bound stays a true lower bound under add/sub cancellation noise.
    pub(crate) fn log_lo(&self) -> f64 {
        log_add_exp(self.exact.value(), self.min_rem.log_value_lower())
    }

    /// `ln` of the guaranteed upper bound on the denominator.
    ///
    /// Uses the error-inflated reading of the remainder accumulator: a raw
    /// reading can cancel to zero while unexpanded nodes still hold real
    /// mass, which would collapse the interval early and report a bogus
    /// zero-width probability (observed as forest-vs-tree TIQ divergence
    /// far beyond the requested accuracy).
    pub(crate) fn log_hi(&self) -> f64 {
        log_add_exp(self.exact.value(), self.max_rem.log_value_upper())
    }

    /// `ln` of the interval midpoint (in linear space).
    pub(crate) fn log_mid(&self) -> f64 {
        log_add_exp(self.log_lo(), self.log_hi()) - std::f64::consts::LN_2
    }

    /// The largest exact density counted so far, `−∞` before the first.
    /// Never above [`DenomBounds::log_lo`] — in floating point too: the
    /// exact sum is `max + ln(scaled sum ≥ 1)` and `log_add_exp` only adds
    /// a non-negative term to its larger argument.
    pub(crate) fn exact_max(&self) -> f64 {
        self.exact.max_term()
    }

    /// [`prob_width`] at the current bounds.
    pub(crate) fn prob_width(&self, ld: f64) -> f64 {
        prob_width(ld, self.log_lo(), self.log_hi())
    }
}

/// Width of the probability interval of an object with log density `ld`
/// under denominator bounds `[log_lo, log_hi]`.
///
/// Clamped at zero: `ScaledSum` subtraction can leave the upper
/// accumulator a cancellation residue *below* the lower one, which would
/// otherwise make the width slightly negative and `width <= accuracy`
/// comparisons vacuously true for negative widths only.
fn prob_width(ld: f64, log_lo: f64, log_hi: f64) -> f64 {
    ((ld - log_lo).exp() - (ld - log_hi).exp()).max(0.0)
}

/// Turns a log density and denominator bounds into clamped probabilities.
///
/// Floating-point residue in the `ScaledSum` accumulators can push the raw
/// ratios out of `[0, 1]` (e.g. `prob_hi = exp(ld − log_lo)` marginally
/// above 1 when the remainder bound cancels to zero), and a query so far
/// from every object that all densities underflow makes the ratios
/// `exp(−∞ − (−∞)) = NaN`. Returns `(probability, prob_lo, prob_hi)` with
/// every value finite in `[0, 1]` and `prob_lo <= probability <= prob_hi`
/// guaranteed (the all-underflow case maps to probability 0).
pub(crate) fn clamped_probs(ld: f64, log_lo: f64, log_hi: f64, log_mid: f64) -> (f64, f64, f64) {
    let unit = |x: f64| if x.is_nan() { 0.0 } else { x.clamp(0.0, 1.0) };
    let p_lo = unit((ld - log_hi).exp());
    let p_hi = unit((ld - log_lo).exp()).max(p_lo);
    let p = unit((ld - log_mid).exp()).clamp(p_lo, p_hi);
    (p, p_lo, p_hi)
}

/// Queue entry of the view-level best-first loops: an active node tagged
/// with its component index (part of the `Ord` key only to keep the order
/// total across components).
struct CompNode {
    node: ActiveNode,
    comp: usize,
}

impl PartialEq for CompNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for CompNode {}
impl PartialOrd for CompNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CompNode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.node
            .log_upper
            .total_cmp(&other.node.log_upper)
            .then_with(|| self.comp.cmp(&other.comp))
            .then_with(|| self.node.page.cmp(&other.node.page))
    }
}

/// [`Pending::slot`] of a node whose `key` is its exact upper bound.
const PRICED: u32 = u32::MAX;
/// [`Pending::slot`] of an object (the cursor's).
const OBJECT: u32 = u32::MAX - 1;

/// A [`Frontier`] row or slot that does not fit in 32 bits: more than 2³²
/// nodes opened by one query, or an inner node that wide.
const FRONTIER_FULL: TreeError = TreeError::Corrupt("best-first frontier past 2^32 rows or slots");

/// Queue entry of the upper-only best-first loops (`Plane::k_mliq_scan`
/// and the ranking cursor): a child under its screen bracket, a node under
/// its exact upper bound, or an object under its density. 32 bytes, and
/// `Copy`: a child refers to its parent by row, not by pointer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    /// What the entry is ordered by: the screen's `key` (unpriced child),
    /// the exact upper bound (priced node) or the density (object).
    key: f64,
    /// The screen's lower bound on the exact upper bound; read only while
    /// the child is unpriced.
    low: f64,
    /// Page index of a node, id of an object.
    id: u64,
    /// A node's row in [`Frontier::rows`]: its parent's (a child) or its
    /// own (a root).
    row: u32,
    /// An unpriced child's slot in its parent, else [`PRICED`] or
    /// [`OBJECT`].
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Pending>() == 32);

impl Pending {
    pub(crate) fn page(&self) -> PageId {
        PageId(self.id)
    }

    /// The entry as a candidate, if it is an object.
    pub(crate) fn object(&self) -> Option<Candidate> {
        (self.slot == OBJECT).then_some(Candidate {
            log_density: self.key,
            id: self.id,
        })
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on the key. On ties a node out-ranks an object — it may
        // hide an equal-density entry with a smaller id, which the cursor's
        // (density desc, id asc) contract ranks first; nodes go by page, as
        // the eager loop ordered them; objects by ascending id. A strict
        // total order, so nothing depends on heap arrival order.
        let object = |p: &Self| p.slot == OBJECT;
        self.key
            .total_cmp(&other.key)
            .then_with(|| match (object(self), object(other)) {
                (false, false) => self.id.cmp(&other.id),
                (false, true) => Ordering::Greater,
                (true, false) => Ordering::Less,
                (true, true) => other.id.cmp(&self.id),
            })
    }
}

/// A root or an opened inner node, as the frontier remembers it.
struct Row {
    /// The decoded inner node, kept so its unpriced children can be priced
    /// without reading it again; `None` for a root.
    node: Option<Arc<CachedNode>>,
    /// The view component the node belongs to.
    comp: usize,
}

/// The frontier of an upper-only best-first loop, with inner children
/// priced lazily (module docs, "Why lazy pricing opens the same pages").
#[derive(Default)]
pub(crate) struct Frontier {
    heap: BinaryHeap<Pending>,
    rows: Vec<Row>,
    /// The screen's brackets for the node being opened, reused.
    brackets: Vec<(f64, f64)>,
}

impl Frontier {
    /// Entries queued.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    fn next_row(&self) -> Result<u32, TreeError> {
        u32::try_from(self.rows.len()).map_err(|_| FRONTIER_FULL)
    }

    /// Queues the root of component `comp`, above everything.
    pub(crate) fn push_root(&mut self, page: PageId, comp: usize) -> Result<(), TreeError> {
        let row = self.next_row()?;
        self.rows.push(Row { node: None, comp });
        self.heap.push(Pending {
            key: f64::INFINITY,
            low: f64::INFINITY,
            id: page.index(),
            row,
            slot: PRICED,
        });
        Ok(())
    }

    /// Queues an object under its density.
    pub(crate) fn push_object(&mut self, c: Candidate) {
        self.heap.push(Pending {
            key: c.log_density,
            low: c.log_density,
            id: c.id,
            row: 0,
            slot: OBJECT,
        });
    }

    /// The view component of the node `p`.
    pub(crate) fn comp(&self, p: &Pending) -> usize {
        self.rows[p.row as usize].comp
    }

    /// Opens `inner` — the decoded `node` of the entry `from` — and queues
    /// its children under their screen brackets, except those whose `key`
    /// is below `worst` (strict, as the eager loop's test: an exactly tied
    /// child may hold the tie-winning id).
    pub(crate) fn push_children(
        &mut self,
        from: &Pending,
        node: &Arc<CachedNode>,
        inner: &ColumnarInnerNode,
        q: &Pfv,
        mode: CombineMode,
        worst: f64,
    ) -> Result<(), TreeError> {
        let row = self.next_row()?;
        let slots = u32::try_from(inner.children.len())
            .ok()
            .filter(|&n| n < OBJECT)
            .ok_or(FRONTIER_FULL)?;
        let comp = self.comp(from);
        self.rows.push(Row {
            node: Some(Arc::clone(node)),
            comp,
        });
        inner
            .rects
            .screen_upper_for_query(q, mode, &mut self.brackets);
        for ((slot, &(low, key)), &(page, _)) in
            (0..slots).zip(&self.brackets).zip(&*inner.children)
        {
            if key < worst {
                continue;
            }
            self.heap.push(Pending {
                key,
                low,
                id: page.index(),
                row,
                slot,
            });
        }
        Ok(())
    }

    /// The next entry to act on — an object, or a node to expand — or
    /// `None` once the frontier is empty or its best bound is below
    /// `worst` (`NO_FLOOR` keeps everything). Unpriced children met on
    /// the way are priced exactly, and dropped below `worst`, by rules 1–3
    /// of the module docs.
    #[expect(
        clippy::neg_cmp_op_on_partial_ord,
        reason = "the negated tests are the rules as written: a NaN fails them and is priced, or kept"
    )]
    pub(crate) fn next(&mut self, q: &Pfv, mode: CombineMode, worst: f64) -> Option<Pending> {
        while let Some(top) = self.heap.pop() {
            if worst > top.key {
                return None;
            }
            if top.slot < OBJECT {
                let next = self.heap.peek().map_or(f64::NEG_INFINITY, |n| n.key);
                if !(top.low > next) || worst > top.low {
                    let exact = match self.rows[top.row as usize].node.as_deref() {
                        Some(CachedNode::Inner(inner)) => {
                            inner.rects.log_upper_for_query(top.slot as usize, q, mode)
                        }
                        // Only an opened inner node has unpriced children.
                        _ => f64::INFINITY,
                    };
                    if !(exact < worst) {
                        self.heap.push(Pending {
                            key: exact,
                            slot: PRICED,
                            ..top
                        });
                    }
                    continue;
                }
            }
            return Some(top);
        }
        None
    }
}

impl<S: PageStore> Plane<'_, S> {
    /// The best-first k-MLIQ descent over *this* tree, pushing candidates
    /// into a caller-owned heap capped at `target`; inner children are
    /// priced lazily, opening exactly the pages of the eager descent (module
    /// docs).
    ///
    /// `hidden` names entry ids to skip — the ids newer components and
    /// tombstones shadow in this one; `None` when nothing is hidden (always
    /// so for a single tree). The heap may arrive pre-populated (memtable
    /// entries, other components): a fuller heap only tightens the pruning
    /// bound, and because candidate selection is a pure top-`target` under
    /// the total `(density, id)` order, the surviving set is independent
    /// of which component was scanned first.
    pub(crate) fn k_mliq_scan(
        &self,
        q: &Pfv,
        target: usize,
        hidden: Option<&HashSet<u64>>,
        best: &mut BinaryHeap<Reverse<Candidate>>,
    ) -> Result<(), TreeError> {
        if self.is_empty() {
            return Ok(());
        }
        let mode = self.config().combine;
        let mut frontier = Frontier::default();
        frontier.push_root(self.root_page(), 0)?;
        let mut scratch = LeafScratch::default();
        loop {
            // `−∞` while the heap has room (nothing is pruned, every leaf
            // entry is evaluated), the k-th kept density once it is full.
            // Strict wherever it prunes: a subtree whose bound exactly
            // equals it may still hold an equal-density entry with a
            // smaller id, which wins the (density, id) tie — pruning on
            // equality would make the result depend on scan order (and
            // across forest components, on component order).
            let worst = kth_density(best, target);
            let Some(top) = frontier.next(q, mode, worst) else {
                return Ok(());
            };
            let node = self.read_node_cached(top.page())?;
            match &*node {
                CachedNode::Leaf(leaf) => {
                    leaf_objects(leaf, hidden, mode, q, worst, &mut scratch, |c| {
                        push_candidate(best, target, c.log_density, c.id);
                    });
                }
                CachedNode::Inner(inner) => {
                    frontier.push_children(&top, &node, inner, q, mode, worst)?;
                }
            }
        }
    }
}

/// Number of ids a component hides, as the remainder terms price it.
fn shadowed_count(hidden: Option<&HashSet<u64>>) -> f64 {
    hidden.map_or(0.0, |h| h.len() as f64)
}

/// The floor that skips nothing: [`leaf_objects`] evaluates every entry
/// with the batched kernel.
pub(crate) const NO_FLOOR: f64 = f64::NEG_INFINITY;

/// Scratch buffers of the two leaf kernels, reused across leaves.
#[derive(Default)]
pub(crate) struct LeafScratch {
    dens: Vec<f64>,
    screen: batch::FastScratch,
}

/// The one screen-then-refine leaf loop: hands `found`, in entry order and
/// with their exact densities, the entries of `leaf` that are not in
/// `hidden` — all of them under [`NO_FLOOR`] (one batched kernel sweep),
/// otherwise at least every one whose density reaches `floor`.
///
/// With a floor, the screen tier bounds every entry from above, leaving
/// each lane block as soon as no dimension prefix can reach `floor`
/// (before the first dimension, on the stored peak bounds alone), and
/// only entries whose bound is not below the floor pay the exact kernel —
/// [`batch::log_density_one`], bit-identical to the batched sweep. The
/// bounds never undershoot the exact value (overflow turns them NaN,
/// which fails the `<` test) and a bound equal to the floor is refined, so
/// for a caller that would ignore every density below `floor` anyway the
/// two paths are indistinguishable.
pub(crate) fn leaf_objects(
    leaf: &ColumnarLeafNode,
    hidden: Option<&HashSet<u64>>,
    mode: CombineMode,
    q: &Pfv,
    floor: f64,
    scratch: &mut LeafScratch,
    mut found: impl FnMut(Candidate),
) {
    let visible = |id: u64| !hidden.is_some_and(|h| h.contains(&id));
    if floor > NO_FLOOR {
        if !batch::screen_densities(mode, q, &leaf.columns, floor, &mut scratch.screen) {
            return;
        }
        for (e, (&id, &upper)) in leaf.ids.iter().zip(scratch.screen.upper()).enumerate() {
            if upper < floor || !visible(id) {
                continue;
            }
            let log_density = batch::log_density_one(mode, q, &leaf.columns, e);
            found(Candidate { log_density, id });
        }
    } else {
        scratch.dens.resize(leaf.columns.len(), 0.0);
        batch::log_densities(mode, q, &leaf.columns, &mut scratch.dens);
        for (&id, &log_density) in leaf.ids.iter().zip(&scratch.dens) {
            if visible(id) {
                found(Candidate { log_density, id });
            }
        }
    }
}

/// The state the two denominator-tracking searches (refined k-MLIQ and
/// TIQ) share: the best-first frontier of unexpanded nodes across every
/// component, and the running bounds on `Σ p(q|w)` over the live set.
/// This is the one place where memtable entries and shadowed ids meet
/// the Bayes denominator.
struct DenomSearch<'a, 'q, S: PageStore> {
    view: ViewPlane<'a, S>,
    q: &'q Pfv,
    active: BinaryHeap<CompNode>,
    denom: DenomBounds,
    scratch: LeafScratch,
    /// The exact bounds of the children of the node being expanded, reused.
    bounds: Vec<(f64, f64)>,
    /// The running tally that picks each leaf's path: entries `expand` has
    /// opened under a finite floor, and how many of them reached it.
    seen: usize,
    kept: usize,
}

impl<'a, 'q, S: PageStore> DenomSearch<'a, 'q, S> {
    /// Evaluates the memtable and expands every component root eagerly,
    /// so an anchor for the scaled accumulators is known before anything
    /// enters the queue. Returns the search and the exact objects found
    /// so far (memtable entries, then root-leaf entries, shadowed ids
    /// excluded), already counted in the denominator.
    fn start(view: ViewPlane<'a, S>, q: &'q Pfv) -> Result<(Self, Vec<Candidate>), TreeError> {
        let mode = view.config().combine;
        let mut scratch = LeafScratch::default();
        let mut bounds = Vec::new();
        let mut objects: Vec<Candidate> = view.mem_objects(q).collect();
        let mut nodes: Vec<CompNode> = Vec::new();
        for comp in 0..view.comp_count() {
            let (plane, hidden) = view.comp(comp);
            if plane.is_empty() {
                continue;
            }
            match &*plane.read_node_cached(plane.root_page())? {
                CachedNode::Leaf(leaf) => {
                    leaf_objects(leaf, hidden, mode, q, NO_FLOOR, &mut scratch, |c| {
                        objects.push(c);
                    });
                }
                CachedNode::Inner(inner) => {
                    nodes.extend(
                        active_children(inner, q, mode, &mut bounds)
                            .map(|node| CompNode { node, comp }),
                    );
                }
            }
        }

        let anchor = nodes
            .iter()
            .map(|n| n.node.log_upper)
            .chain(objects.iter().map(|c| c.log_density))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut denom = DenomBounds::new(if anchor.is_finite() { anchor } else { 0.0 });
        for c in &objects {
            denom.add_object(c.log_density);
        }
        let mut active = BinaryHeap::new();
        for cn in nodes {
            denom.add_node(&cn.node, shadowed_count(view.comp(cn.comp).1));
            active.push(cn);
        }
        let search = Self {
            view,
            q,
            active,
            denom,
            scratch,
            bounds,
            seen: 0,
            kept: 0,
        };
        Ok((search, objects))
    }

    /// Upper bound of the best unexpanded node, `None` once all are
    /// expanded.
    fn top_upper(&self) -> Option<f64> {
        self.active.peek().map(|t| t.node.log_upper)
    }

    /// Expands the best unexpanded node: its remainder terms leave the
    /// denominator and either its children's terms or its visible
    /// entries' exact densities enter. `found` sees such an entry, and the
    /// bounds with that entry already counted — every entry, or only those
    /// that matter: the caller vouches that it ignores every density below
    /// `cand_floor`, and an entry [`NO_OP_GAP`] below the largest exact
    /// term cannot change the exact sum by a bit, so a leaf opened through
    /// the screen tier skips whatever is below both without `found`, the
    /// sum or any later bound being able to tell (module docs). Returns
    /// `false` when no node was left.
    fn expand(
        &mut self,
        cand_floor: f64,
        mut found: impl FnMut(&DenomBounds, Candidate),
    ) -> Result<bool, TreeError> {
        let Some(top) = self.active.pop() else {
            return Ok(false);
        };
        let mode = self.view.config().combine;
        let (plane, hidden) = self.view.comp(top.comp);
        let shadowed = shadowed_count(hidden);
        self.denom.remove_node(&top.node, shadowed);
        match &*plane.read_node_cached(top.node.page)? {
            CachedNode::Leaf(leaf) => {
                // `−∞` while nothing exact is known, or no candidate floor.
                let floor = (self.denom.exact_max() - NO_OP_GAP).min(cand_floor);
                // The screen pays only where it discards most entries; both
                // paths report how many reached the floor, so the query's
                // own history decides, leaf by leaf.
                let screen = 2 * self.kept <= self.seen;
                let path_floor = if screen { floor } else { NO_FLOOR };
                let denom = &mut self.denom;
                let mut kept = 0;
                leaf_objects(
                    leaf,
                    hidden,
                    mode,
                    self.q,
                    path_floor,
                    &mut self.scratch,
                    |c| {
                        kept += usize::from(c.log_density >= floor);
                        denom.add_object(c.log_density);
                        found(denom, c);
                    },
                );
                if floor > NO_FLOOR {
                    self.seen += leaf.ids.len();
                    self.kept += kept;
                }
            }
            CachedNode::Inner(inner) => {
                for node in active_children(inner, self.q, mode, &mut self.bounds) {
                    self.denom.add_node(&node, shadowed);
                    self.active.push(CompNode {
                        node,
                        comp: top.comp,
                    });
                }
            }
        }
        Ok(true)
    }
}

impl<'a, S: PageStore> ViewPlane<'a, S> {
    /// The memtable's entries as exact objects for `q`, ascending id.
    pub(crate) fn mem_objects<'q>(
        &self,
        q: &'q Pfv,
    ) -> impl Iterator<Item = Candidate> + use<'a, 'q, S> {
        let mode = self.config().combine;
        self.mem().iter().map(move |(id, v)| Candidate {
            log_density: combine::log_joint(mode, v, q),
            id: *id,
        })
    }

    /// k-most-likely identification query (§5.2.1, Definition 3) — the
    /// algorithm behind [`crate::view::ReadView::k_mliq`]: one shared
    /// top-k heap over the memtable and every component's descent.
    pub(crate) fn k_mliq(&self, q: &Pfv, k: usize) -> Result<Vec<MliqResult>, TreeError> {
        self.check_dims(q.dims())?;
        if k == 0 || self.is_empty() {
            return Ok(Vec::new());
        }
        let target = k.min(usize::try_from(self.len()).unwrap_or(usize::MAX));
        // Min-heap keeping the k best candidates.
        let mut best: BinaryHeap<Reverse<Candidate>> = BinaryHeap::new();
        for c in self.mem_objects(q) {
            push_candidate(&mut best, target, c.log_density, c.id);
        }
        for i in 0..self.comp_count() {
            let (plane, hidden) = self.comp(i);
            plane.k_mliq_scan(q, target, hidden, &mut best)?;
        }
        Ok(ranked(best)
            .map(|c| MliqResult {
                id: c.id,
                log_density: c.log_density,
            })
            .collect())
    }

    /// Probability-refined k-MLIQ (§5.2.2) — the algorithm behind
    /// [`crate::view::ReadView::k_mliq_refined`].
    pub(crate) fn k_mliq_refined(
        &self,
        q: &Pfv,
        k: usize,
        accuracy: f64,
    ) -> Result<Vec<RefinedResult>, TreeError> {
        assert!(accuracy > 0.0, "accuracy must be positive");
        self.check_dims(q.dims())?;
        if k == 0 || self.is_empty() {
            return Ok(Vec::new());
        }
        let target = k.min(usize::try_from(self.len()).unwrap_or(usize::MAX));
        let (mut search, objects) = DenomSearch::start(*self, q)?;
        let mut best: BinaryHeap<Reverse<Candidate>> = BinaryHeap::new();
        let mut best_ld = f64::NEG_INFINITY;
        for c in objects {
            push_candidate(&mut best, target, c.log_density, c.id);
            best_ld = best_ld.max(c.log_density);
        }

        loop {
            let settled = best.len() == target
                && search
                    .top_upper()
                    .is_none_or(|up| kth_density(&best, target) >= up);
            if settled && search.denom.prob_width(best_ld) <= accuracy {
                break;
            }
            // A density below the k-th kept one neither enters the heap nor
            // raises `best_ld`.
            let floor = kth_density(&best, target);
            let expanded = search.expand(floor, |_, c| {
                push_candidate(&mut best, target, c.log_density, c.id);
                best_ld = best_ld.max(c.log_density);
            })?;
            if !expanded {
                break;
            }
        }

        let denom = &search.denom;
        let (lo, hi, mid) = (denom.log_lo(), denom.log_hi(), denom.log_mid());
        Ok(ranked(best)
            .map(|c| {
                let (probability, prob_lo, prob_hi) = clamped_probs(c.log_density, lo, hi, mid);
                RefinedResult {
                    id: c.id,
                    log_density: c.log_density,
                    probability,
                    prob_lo,
                    prob_hi,
                }
            })
            .collect())
    }

    /// Threshold identification query (§5.2.3, Figure 5, Definition 2) —
    /// the algorithm behind [`crate::view::ReadView::tiq`] (`accuracy`
    /// given) and the literal Figure-5 anytime variant behind
    /// [`crate::view::ReadView::tiq_anytime`] (`None`).
    pub(crate) fn tiq_impl(
        &self,
        q: &Pfv,
        p_theta: f64,
        accuracy: Option<f64>,
    ) -> Result<Vec<TiqResult>, TreeError> {
        assert!(
            p_theta > 0.0 && p_theta <= 1.0,
            "threshold must be in (0,1], got {p_theta}"
        );
        assert!(
            accuracy.is_none_or(|a| a > 0.0),
            "accuracy must be positive"
        );
        self.check_dims(q.dims())?;
        if self.is_empty() {
            return Ok(Vec::new());
        }
        let ln_theta = p_theta.ln();
        let (mut search, mut cands) = DenomSearch::start(*self, q)?;

        loop {
            let denom_lo = search.denom.log_lo();
            let denom_hi = search.denom.log_hi();
            // Figure 5's "delete unnecessary candidates": prune every
            // candidate whose probability upper bound is below the threshold.
            cands.retain(|c| c.log_density - denom_lo >= ln_theta);

            let explore_more = search
                .top_upper()
                .is_some_and(|up| up - denom_lo >= ln_theta);
            let refine_more = match accuracy {
                // Exact mode: also decide every boundary candidate (all of
                // them passed the `retain` above) and meet the probability
                // accuracy.
                Some(acc) => cands.iter().any(|c| {
                    c.log_density - denom_hi < ln_theta
                        || prob_width(c.log_density, denom_lo, denom_hi) > acc
                }),
                // Anytime mode (Figure 5 verbatim): no further refinement.
                None => false,
            };
            if !explore_more && !refine_more {
                break;
            }
            // Admission needs `ld − log_lo ≥ ln θ`, and `log_lo` never falls
            // below the largest exact term — so one nat further down (room
            // for the roundings of the floor itself) nothing can qualify.
            let floor = search.denom.exact_max() - (1.0 - ln_theta);
            let expanded = search.expand(floor, |denom, c| {
                // Admit only candidates that could still qualify — the
                // retain step above keeps this set tight. The first test
                // is implied by the second (`log_lo ≥ exact_max`) and
                // spares nearly every entry the `ln`s and `exp` of `log_lo`.
                if c.log_density - denom.exact_max() >= ln_theta
                    && c.log_density - denom.log_lo() >= ln_theta
                {
                    cands.push(c);
                }
            })?;
            if !expanded {
                break;
            }
        }

        let denom = &search.denom;
        let (lo, hi, mid) = (denom.log_lo(), denom.log_hi(), denom.log_mid());
        cands.retain(|c| match accuracy {
            // Exact mode: the candidate provably reaches the threshold.
            Some(_) => c.log_density - hi >= ln_theta,
            // Anytime mode: keep candidates that could reach it.
            None => c.log_density - lo >= ln_theta,
        });
        cands.sort_unstable_by(|a, b| b.cmp(a));
        Ok(cands
            .into_iter()
            .map(|c| {
                let (mid_p, prob_lo, prob_hi) = clamped_probs(c.log_density, lo, hi, mid);
                TiqResult {
                    id: c.id,
                    log_density: c.log_density,
                    probability: if accuracy.is_some() {
                        mid_p
                    } else {
                        // Figure 5 reports the conservative value.
                        prob_lo
                    },
                    prob_lo,
                    prob_hi,
                }
            })
            .collect())
    }
}

/// Prices every child of an inner node exactly, both bounds per child
/// (bit-identical to [`children_log_hulls`] on the row form), into
/// `bounds`, and wraps them as queue entries.
///
/// [`children_log_hulls`]: crate::node::children_log_hulls
fn active_children<'a>(
    inner: &'a ColumnarInnerNode,
    q: &Pfv,
    mode: CombineMode,
    bounds: &'a mut Vec<(f64, f64)>,
) -> impl Iterator<Item = ActiveNode> + use<'a> {
    inner.rects.log_bounds_for_query_each(q, mode, bounds);
    (bounds.iter().zip(&*inner.children)).map(|(&(up, lo), &(page, count))| ActiveNode {
        log_upper: up,
        log_lower: lo,
        count,
        page,
    })
}

pub(crate) fn push_candidate(
    best: &mut BinaryHeap<Reverse<Candidate>>,
    target: usize,
    log_density: f64,
    id: u64,
) {
    let cand = Candidate { log_density, id };
    if best.len() < target {
        best.push(Reverse(cand));
    } else if best.peek().is_some_and(|worst| cand > worst.0) {
        best.pop();
        best.push(Reverse(cand));
    }
}

/// Density of the worst kept candidate once `target` are kept, `−∞`
/// before: `−∞ > bound` and `bound < −∞` are both false, so a pruning
/// comparison against it never fires while the heap still has room.
fn kth_density(best: &BinaryHeap<Reverse<Candidate>>, target: usize) -> f64 {
    match best.peek() {
        Some(Reverse(worst)) if best.len() == target => worst.log_density,
        _ => f64::NEG_INFINITY,
    }
}

/// The kept candidates in reporting order — density descending, ties by
/// ascending id — which is [`Candidate`]'s own order, best first.
fn ranked(best: BinaryHeap<Reverse<Candidate>>) -> impl Iterator<Item = Candidate> {
    best.into_sorted_vec().into_iter().map(|Reverse(c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LeafFormat, TreeConfig};
    use crate::tree::GaussTree;
    use crate::view::ReadView;
    use gauss_storage::{AccessStats, MemStore, SharedBufferPool};
    use pfv::{combine, CombineMode, ParamRect};

    /// Deterministic xorshift so tests need no external RNG.
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn random_db(n: usize, dims: usize, seed: u64) -> Vec<(u64, Pfv)> {
        spread_db(n, dims, seed, 0.05, 1.05)
    }

    /// Means uniform in `[0, 10]^dims`, σ uniform in `[s_lo, s_hi]`.
    fn spread_db(n: usize, dims: usize, seed: u64, s_lo: f64, s_hi: f64) -> Vec<(u64, Pfv)> {
        let mut rng = Rng(seed | 1);
        (0..n as u64)
            .map(|id| {
                let means: Vec<f64> = (0..dims).map(|_| rng.next_f64() * 10.0).collect();
                let sigmas: Vec<f64> = (0..dims)
                    .map(|_| s_lo + (s_hi - s_lo) * rng.next_f64())
                    .collect();
                (id, Pfv::new(means, sigmas).unwrap())
            })
            .collect()
    }

    fn build_tree(items: &[(u64, Pfv)], dims: usize) -> GaussTree<MemStore> {
        build_tree_with(items, TreeConfig::new(dims).with_capacities(6, 4))
    }

    fn build_tree_with(items: &[(u64, Pfv)], config: TreeConfig) -> GaussTree<MemStore> {
        let pool = SharedBufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, config).unwrap();
        for (id, v) in items {
            tree.insert(*id, v).unwrap();
        }
        tree
    }

    /// Brute-force k-MLIQ over the raw data.
    fn scan_k_mliq(items: &[(u64, Pfv)], q: &Pfv, k: usize) -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> = items
            .iter()
            .map(|(id, v)| (*id, combine::log_joint(CombineMode::Convolution, v, q)))
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn k_mliq_matches_brute_force() {
        let items = random_db(300, 3, 42);
        let tree = build_tree(&items, 3);
        let mut rng = Rng(7);
        for _ in 0..20 {
            let q = Pfv::new(
                vec![
                    rng.next_f64() * 10.0,
                    rng.next_f64() * 10.0,
                    rng.next_f64() * 10.0,
                ],
                vec![
                    0.1 + rng.next_f64(),
                    0.1 + rng.next_f64(),
                    0.1 + rng.next_f64(),
                ],
            )
            .unwrap();
            for k in [1, 3, 10] {
                let got = tree.k_mliq(&q, k).unwrap();
                let want = scan_k_mliq(&items, &q, k);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want.iter()) {
                    // Densities must agree exactly (same formula); ids may
                    // swap only on exact density ties.
                    assert!(
                        (g.log_density - w.1).abs() < 1e-9,
                        "density mismatch: {} vs {}",
                        g.log_density,
                        w.1
                    );
                }
            }
        }
    }

    #[test]
    fn k_mliq_on_empty_tree() {
        let config = TreeConfig::new(2).with_capacities(4, 4);
        let pool = SharedBufferPool::new(MemStore::new(8192), 64, AccessStats::new_shared());
        let tree = GaussTree::create(pool, config).unwrap();
        let q = Pfv::new(vec![0.0, 0.0], vec![0.1, 0.1]).unwrap();
        assert!(tree.k_mliq(&q, 5).unwrap().is_empty());
    }

    #[test]
    fn k_larger_than_database_returns_everything() {
        let items = random_db(7, 2, 9);
        let tree = build_tree(&items, 2);
        let q = Pfv::new(vec![5.0, 5.0], vec![0.5, 0.5]).unwrap();
        let got = tree.k_mliq(&q, 100).unwrap();
        assert_eq!(got.len(), 7);
    }

    #[test]
    fn refined_probabilities_match_brute_force_bayes() {
        let items = random_db(200, 2, 1234);
        let tree = build_tree(&items, 2);
        let db: Vec<Pfv> = items.iter().map(|(_, v)| v.clone()).collect();
        let mut rng = Rng(99);
        for _ in 0..10 {
            let q = Pfv::new(
                vec![rng.next_f64() * 10.0, rng.next_f64() * 10.0],
                vec![0.1 + rng.next_f64(), 0.1 + rng.next_f64()],
            )
            .unwrap();
            let got = tree.k_mliq_refined(&q, 3, 1e-6).unwrap();
            let truth = pfv::posteriors(CombineMode::Convolution, &db, &q);
            for r in &got {
                let want = truth[r.id as usize].probability;
                assert!(
                    (r.probability - want).abs() <= 1e-5 + 1e-5 * want,
                    "P mismatch for {}: got {}, want {}",
                    r.id,
                    r.probability,
                    want
                );
                assert!(r.prob_lo <= want + 1e-9 && want <= r.prob_hi + 1e-9);
                assert!(r.prob_hi - r.prob_lo <= 1e-6 + 1e-9);
            }
        }
    }

    #[test]
    fn tiq_matches_brute_force_membership() {
        let items = random_db(200, 2, 777);
        let tree = build_tree(&items, 2);
        let db: Vec<Pfv> = items.iter().map(|(_, v)| v.clone()).collect();
        let mut rng = Rng(5);
        for _ in 0..10 {
            // Query near a random database object so results are non-trivial.
            let target = (rng.next_f64() * 199.0) as usize;
            let base = &items[target].1;
            let q = Pfv::new(
                base.means().to_vec(),
                vec![0.2 + rng.next_f64() * 0.2, 0.2 + rng.next_f64() * 0.2],
            )
            .unwrap();
            for theta in [0.1, 0.3, 0.7] {
                let got = tree.tiq(&q, theta, 1e-9).unwrap();
                let truth = pfv::posteriors(CombineMode::Convolution, &db, &q);
                let want: Vec<u64> = truth
                    .iter()
                    .filter(|p| p.probability >= theta)
                    .map(|p| p.index as u64)
                    .collect();
                let mut got_ids: Vec<u64> = got.iter().map(|r| r.id).collect();
                got_ids.sort_unstable();
                let mut want = want;
                want.sort_unstable();
                assert_eq!(got_ids, want, "theta={theta}");
                for r in &got {
                    let w = truth[r.id as usize].probability;
                    assert!((r.probability - w).abs() < 1e-6 + 1e-6 * w);
                }
            }
        }
    }

    #[test]
    fn tiq_total_probability_never_exceeds_one() {
        // Property 1 of §4.
        let items = random_db(100, 2, 31);
        let tree = build_tree(&items, 2);
        let q = Pfv::new(vec![3.0, 3.0], vec![0.5, 0.5]).unwrap();
        let got = tree.tiq(&q, 0.01, 1e-9).unwrap();
        let total: f64 = got.iter().map(|r| r.probability).sum();
        assert!(total <= 1.0 + 1e-6, "total {total}");
    }

    #[test]
    fn tiq_high_threshold_returns_subset_of_low_threshold() {
        let items = random_db(150, 2, 64);
        let tree = build_tree(&items, 2);
        let q = Pfv::new(items[0].1.means().to_vec(), vec![0.3, 0.3]).unwrap();
        let low = tree.tiq(&q, 0.05, 1e-9).unwrap();
        let high = tree.tiq(&q, 0.5, 1e-9).unwrap();
        let low_ids: std::collections::HashSet<u64> = low.iter().map(|r| r.id).collect();
        for r in &high {
            assert!(low_ids.contains(&r.id));
        }
        assert!(high.len() <= low.len());
    }

    #[test]
    fn mliq_prunes_pages_versus_full_scan() {
        // The index must not read every page for a selective query.
        let items = random_db(2000, 2, 2024);
        let tree = build_tree(&items, 2);
        tree.cold_start();
        let q = Pfv::new(items[100].1.means().to_vec(), vec![0.05, 0.05]).unwrap();
        let _ = tree.k_mliq(&q, 1).unwrap();
        let accessed = tree.stats().snapshot().physical_reads;
        let total_pages = tree.pool().num_pages();
        assert!(
            accessed * 3 < total_pages,
            "k-MLIQ accessed {accessed} of {total_pages} pages — no pruning?"
        );
    }

    /// What a caller of `DenomSearch::expand` does with the entries it is
    /// shown, and the floor it vouches for.
    #[derive(Clone, Copy)]
    enum Caller {
        /// TIQ: admit what could reach `θ`.
        Tiq { ln_theta: f64 },
        /// Refined k-MLIQ: keep the `k` best.
        TopK { k: usize },
    }

    /// Everything observable about one exhaustive search: the bounds after
    /// every expansion and the candidates the caller ended up with, by
    /// bits.
    #[derive(Debug, PartialEq)]
    struct SearchTrace {
        bounds: Vec<(u64, u64)>,
        kept: Vec<(u64, u64)>,
    }

    /// Expands every node of `view` for `q`, opening each leaf through the
    /// screen tier (`Some(true)`), the batched kernel (`Some(false)`) or
    /// whichever the tally picks (`None`). Also returns how many leaf
    /// entries `expand` showed the caller.
    fn trace_search<S: PageStore>(
        view: ViewPlane<'_, S>,
        q: &Pfv,
        force_screen: Option<bool>,
        caller: Caller,
    ) -> (SearchTrace, usize) {
        let (mut search, objects) = DenomSearch::start(view, q).unwrap();
        let mut best: BinaryHeap<Reverse<Candidate>> = BinaryHeap::new();
        let mut cands: Vec<Candidate> = Vec::new();
        for c in objects {
            match caller {
                Caller::Tiq { .. } => cands.push(c),
                Caller::TopK { k } => push_candidate(&mut best, k, c.log_density, c.id),
            }
        }
        let mut bounds = Vec::new();
        let mut shown = 0;
        loop {
            let tally = (search.kept, search.seen);
            // `2·kept ≤ seen` holds for (0, 0) and fails for (1, 0).
            match force_screen {
                Some(true) => (search.kept, search.seen) = (0, 0),
                Some(false) => (search.kept, search.seen) = (1, 0),
                None => {}
            }
            let expanded = match caller {
                Caller::Tiq { ln_theta } => {
                    let floor = search.denom.exact_max() - (1.0 - ln_theta);
                    search.expand(floor, |denom, c| {
                        shown += 1;
                        if c.log_density - denom.log_lo() >= ln_theta {
                            cands.push(c);
                        }
                    })
                }
                Caller::TopK { k } => search.expand(kth_density(&best, k), |_, c| {
                    shown += 1;
                    push_candidate(&mut best, k, c.log_density, c.id);
                }),
            }
            .unwrap();
            if !expanded {
                break;
            }
            if force_screen.is_some() {
                (search.kept, search.seen) = tally;
            }
            bounds.push((
                search.denom.log_lo().to_bits(),
                search.denom.log_hi().to_bits(),
            ));
        }
        cands.extend(ranked(best));
        let kept = cands
            .iter()
            .map(|c| (c.id, c.log_density.to_bits()))
            .collect();
        (SearchTrace { bounds, kept }, shown)
    }

    /// Asserts that the forced screen path and the forced batched path
    /// cannot be told apart, and returns how many entries each showed the
    /// caller.
    fn assert_paths_agree<S: PageStore>(
        view: ViewPlane<'_, S>,
        q: &Pfv,
        caller: Caller,
        what: &str,
    ) -> (usize, usize) {
        let (screened, shown_screened) = trace_search(view, q, Some(true), caller);
        let (batched, shown_batched) = trace_search(view, q, Some(false), caller);
        assert_eq!(screened, batched, "{what}");
        assert!(shown_screened <= shown_batched, "{what}");
        (shown_screened, shown_batched)
    }

    /// A forest over `items` in several components, with deletes and
    /// upserts applied afterwards so components carry hidden ids and the
    /// memtable is live.
    fn shadowed_forest(
        items: &[(u64, Pfv)],
        config: TreeConfig,
    ) -> crate::forest::GaussForest<gauss_storage::MemComponentStores> {
        let opts = crate::forest::ForestOptions::new()
            .memtable_capacity(items.len() / 3 + 1)
            .merge_factor(64);
        let stores = gauss_storage::MemComponentStores::new(8192);
        let mut forest = crate::forest::GaussForest::create(stores, config, opts).unwrap();
        for (id, v) in items {
            forest.insert(*id, v).unwrap();
        }
        for (id, v) in items {
            match id % 5 {
                1 => drop(forest.delete(*id).unwrap()),
                2 => {
                    let sigmas: Vec<f64> = v.sigmas().iter().map(|s| s * 1.25).collect();
                    let moved = Pfv::new(v.means().to_vec(), sigmas).unwrap();
                    forest.insert(*id, &moved).unwrap();
                }
                _ => {}
            }
        }
        forest
    }

    #[test]
    fn screen_and_batched_leaf_paths_are_indistinguishable() {
        // Every leaf of every search, opened both ways: the caller ends up
        // with the same candidates and the denominator bounds agree to the
        // bit after every expansion — on a tree and on a forest with hidden
        // ids and a live memtable, in both combine modes and leaf formats,
        // for thresholds down to 1e-40 (floor 93 nats below the peak).
        let mut items = spread_db(240, 3, 17, 0.02, 0.3);
        // One entry so far out that its `Σ z²` overflows: the screen bound
        // is NaN, which no floor may skip (exact formats only — an f32
        // mean cannot get that far).
        let far = Pfv::new(vec![1e200, 5.0, 5.0], vec![0.1, 0.1, 0.1]).unwrap();
        let (mut shown_screened, mut shown_batched) = (0, 0);
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            for format in [LeafFormat::Exact, LeafFormat::Quantised] {
                let config = TreeConfig::new(3)
                    .with_capacities(6, 4)
                    .with_combine(mode)
                    .with_leaf_format(format);
                if format == LeafFormat::Exact {
                    items.push((240, far.clone()));
                }
                let tree = build_tree_with(&items, config);
                let forest = shadowed_forest(&items, config);
                let snap = forest.snapshot().unwrap();
                items.truncate(240);
                for target in [3usize, 77, 150] {
                    let q = Pfv::new(items[target].1.means().to_vec(), vec![0.05; 3]).unwrap();
                    for caller in [
                        Caller::Tiq {
                            ln_theta: 0.3f64.ln(),
                        },
                        Caller::Tiq {
                            ln_theta: 1e-20f64.ln(),
                        },
                        Caller::Tiq {
                            ln_theta: 1e-40f64.ln(),
                        },
                        Caller::TopK { k: 1 },
                        Caller::TopK { k: 7 },
                    ] {
                        let what = format!("{mode:?} {format:?} q{target}");
                        for (s, b) in [
                            assert_paths_agree(tree.plane(), &q, caller, &what),
                            assert_paths_agree(snap.plane(), &q, caller, &what),
                        ] {
                            shown_screened += s;
                            shown_batched += b;
                        }
                    }
                }
            }
        }
        // The two paths did differ in what they evaluated: the batched one
        // showed every visible entry, the screen a small part of them.
        assert!(shown_batched > 20_000, "{shown_batched}");
        assert!(
            4 * shown_screened < shown_batched,
            "{shown_screened} of {shown_batched}"
        );
    }

    impl<S: PageStore> Plane<'_, S> {
        /// The eager descent the lazy one replaced: every child of an
        /// opened inner node priced exactly, those not below the k-th kept
        /// density queued, the best `(N̂, page)` popped until one is below
        /// it. The oracle of `lazy_pricing_opens_the_pages_eager_pricing_opens`.
        fn k_mliq_scan_eager(
            &self,
            q: &Pfv,
            target: usize,
            hidden: Option<&HashSet<u64>>,
            best: &mut BinaryHeap<Reverse<Candidate>>,
        ) -> Result<(), TreeError> {
            if self.is_empty() {
                return Ok(());
            }
            let mode = self.config().combine;
            let node = |log_upper, page| CompNode {
                node: ActiveNode {
                    log_upper,
                    log_lower: f64::NEG_INFINITY,
                    count: 0,
                    page,
                },
                comp: 0,
            };
            let mut active = BinaryHeap::from([node(f64::INFINITY, self.root_page())]);
            let mut scratch = LeafScratch::default();
            while let Some(top) = active.pop() {
                let worst = kth_density(best, target);
                if worst > top.node.log_upper {
                    break;
                }
                match &*self.read_node_cached(top.node.page)? {
                    CachedNode::Leaf(leaf) => {
                        leaf_objects(leaf, hidden, mode, q, worst, &mut scratch, |c| {
                            push_candidate(best, target, c.log_density, c.id);
                        });
                    }
                    CachedNode::Inner(inner) => {
                        for (e, &(page, _)) in inner.children.iter().enumerate() {
                            let up = inner.rects.log_upper_for_query(e, q, mode);
                            if up >= worst {
                                active.push(node(up, page));
                            }
                        }
                    }
                }
            }
            Ok(())
        }
    }

    /// k-MLIQ over `view` through the lazy descent or the eager oracle:
    /// ids and density bits, best first.
    fn k_mliq_via<S: PageStore>(
        view: ViewPlane<'_, S>,
        q: &Pfv,
        k: usize,
        eager: bool,
    ) -> Vec<(u64, u64)> {
        let target = k.min(view.len() as usize);
        let mut best = BinaryHeap::new();
        for c in view.mem_objects(q) {
            push_candidate(&mut best, target, c.log_density, c.id);
        }
        for i in 0..view.comp_count() {
            let (plane, hidden) = view.comp(i);
            if eager {
                plane.k_mliq_scan_eager(q, target, hidden, &mut best)
            } else {
                plane.k_mliq_scan(q, target, hidden, &mut best)
            }
            .unwrap();
        }
        ranked(best)
            .map(|c| (c.id, c.log_density.to_bits()))
            .collect()
    }

    /// Asserts that the lazy and the eager descent answer every query of
    /// `queries` for k ∈ {1, 3, 17} with the same ids and density bits after
    /// the same number of logical page reads; returns the reads.
    fn assert_same_pages<S: PageStore>(
        view: ViewPlane<'_, S>,
        stats: &AccessStats,
        queries: &[Pfv],
        what: &str,
    ) -> u64 {
        let mut reads = 0;
        for (i, q) in queries.iter().enumerate() {
            for k in [1, 3, 17] {
                let before = stats.snapshot();
                let eager = k_mliq_via(view, q, k, true);
                let between = stats.snapshot();
                let lazy = k_mliq_via(view, q, k, false);
                let after = stats.snapshot();
                assert_eq!(lazy, eager, "{what}: q{i} k={k}");
                let eager_reads = between.since(&before).logical_reads;
                let lazy_reads = after.since(&between).logical_reads;
                assert_eq!(lazy_reads, eager_reads, "{what}: q{i} k={k} pages");
                reads += lazy_reads;
            }
        }
        reads
    }

    #[test]
    fn the_frontier_expands_in_exact_order_under_any_valid_brackets() {
        // Brackets far looser than the screen's, and often tight or tied:
        // whatever order the keys suggest, the frontier hands out exactly
        // the children whose exact bound reaches `worst`, best `(N̂, page)`
        // first — the eager loop's order.
        let mut rng = Rng(77);
        let q = Pfv::new(vec![0.0], vec![0.2]).unwrap();
        for trial in 0..200 {
            let rects: Vec<ParamRect> = (0..24)
                .map(|i| {
                    // Every fourth child lies 0.5 from the query: where its
                    // σ-interval reaches that far, its bound is the ridge's,
                    // the same for all of them — exact ties.
                    let x = if i % 4 == 3 {
                        0.5
                    } else {
                        rng.next_f64() * 16.0 - 8.0
                    };
                    let w = rng.next_f64();
                    ParamRect::from_dims(vec![pfv::DimBounds::new(x, x + w, 0.1, 0.1 + w)])
                })
                .collect();
            let inner = ColumnarInnerNode {
                children: (0..24).map(|i| (PageId(100 + (i * 13) % 24), 1)).collect(),
                rects: pfv::ColumnarRects::from_rects(1, rects.iter()),
            };
            let node = Arc::new(CachedNode::Inner(inner.clone()));
            for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
                let exact: Vec<f64> = (0..24)
                    .map(|e| inner.rects.log_upper_for_query(e, &q, mode))
                    .collect();
                let worst = if trial % 2 == 0 {
                    f64::NEG_INFINITY
                } else {
                    exact[trial % 24]
                };
                let mut frontier = Frontier::default();
                frontier.rows.push(Row {
                    node: Some(Arc::clone(&node)),
                    comp: 0,
                });
                for (slot, &up) in (0u32..).zip(&exact) {
                    let loose = |rng: &mut Rng| {
                        if rng.next_f64() < 0.3 {
                            0.0
                        } else {
                            rng.next_f64() * 3.0
                        }
                    };
                    frontier.heap.push(Pending {
                        key: up + loose(&mut rng),
                        low: up - loose(&mut rng),
                        id: inner.children[slot as usize].0.index(),
                        row: 0,
                        slot,
                    });
                }
                let mut got = Vec::new();
                while let Some(top) = frontier.next(&q, mode, worst) {
                    got.push(top.page());
                }
                let mut want: Vec<(f64, PageId)> = (exact.iter().copied())
                    .zip(inner.children.iter().map(|c| c.0))
                    .filter(|&(up, _)| up >= worst)
                    .collect();
                want.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
                let want: Vec<PageId> = want.into_iter().map(|w| w.1).collect();
                assert_eq!(got, want, "trial {trial} {mode:?}");
            }
        }
    }

    #[test]
    fn the_frontier_stops_on_a_priced_bound_and_prices_below_worst() {
        // The two situations real brackets are too tight to produce: a
        // child whose bracket is clear of the next key but whose `low` is
        // below `worst` (priced, and dropped), and nodes priced while
        // `worst` was lower (the loop stops on the first).
        let q = Pfv::new(vec![0.0], vec![0.2]).unwrap();
        let rects = [
            ParamRect::from_dims(vec![pfv::DimBounds::new(-0.1, 0.1, 0.1, 0.2)]),
            ParamRect::from_dims(vec![pfv::DimBounds::new(3.0, 3.5, 0.1, 0.2)]),
        ];
        let inner = ColumnarInnerNode {
            children: Box::new([(PageId(1), 1), (PageId(2), 1)]),
            rects: pfv::ColumnarRects::from_rects(1, rects.iter()),
        };
        let mode = CombineMode::Convolution;
        let (near, far) = (
            inner.rects.log_upper_for_query(0, &q, mode),
            inner.rects.log_upper_for_query(1, &q, mode),
        );
        let worst = 0.5 * (near + far);
        let mut frontier = Frontier::default();
        frontier.rows.push(Row {
            node: Some(Arc::new(CachedNode::Inner(inner))),
            comp: 0,
        });
        let entry = |key, low, id, slot| Pending {
            key,
            low,
            id,
            row: 0,
            slot,
        };
        frontier.heap.extend([
            entry(near, near, 1, 0),
            entry(worst + 1.0, far, 2, 1),
            entry(far - 1.0, far - 1.0, 3, PRICED),
            entry(far - 2.0, far - 2.0, 4, PRICED),
        ]);
        let mut got = Vec::new();
        while let Some(top) = frontier.next(&q, mode, worst) {
            got.push(top.id);
        }
        assert_eq!(got, [1]);
        assert_eq!(
            frontier.len(),
            1,
            "stopped on the first priced bound below worst"
        );
    }

    #[test]
    fn lazy_pricing_opens_the_pages_eager_pricing_opens() {
        let mut checked = 0;
        for (dims, caps) in [
            (1usize, [Some((4usize, 3usize)), Some((4, 120)), None]),
            (2, [Some((4, 3)), Some((18, 9)), None]),
            (27, [Some((4, 3)), Some((18, 9)), None]),
        ] {
            let mut items = spread_db(
                if dims == 27 { 500 } else { 900 },
                dims,
                40 + dims as u64,
                0.02,
                0.4,
            );
            // Twins under other ids: equal densities, so ties at every level.
            for i in 0..60u64 {
                items.push((10_000 + i, items[(i * 7) as usize].1.clone()));
            }
            let mut queries: Vec<Pfv> = [3usize, 150, 433]
                .iter()
                .map(|&t| Pfv::new(items[t].1.means().to_vec(), vec![0.05; dims]).unwrap())
                .collect();
            queries.push(Pfv::new(vec![5.0; dims], vec![0.7; dims]).unwrap());
            queries.push(Pfv::new(vec![-40.0; dims], vec![0.01; dims]).unwrap());
            for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
                for cap in caps {
                    let config = TreeConfig::new(dims).with_combine(mode);
                    let config =
                        cap.map_or(config, |(leaf, inner)| config.with_capacities(leaf, inner));
                    let pool = SharedBufferPool::new(
                        MemStore::new(8192),
                        1 << 14,
                        AccessStats::new_shared(),
                    );
                    let tree = GaussTree::bulk_load(pool, config, items.iter().cloned()).unwrap();
                    let what = format!("d{dims} {cap:?} {mode:?}");
                    if cap == Some((4, 120)) {
                        let plane = tree.plane().comp(0).0;
                        let (mut stack, mut widest) = (vec![tree.root_page()], 0);
                        while let Some(page) = stack.pop() {
                            if let CachedNode::Inner(inner) =
                                &*plane.read_node_cached(page).unwrap()
                            {
                                widest = widest.max(inner.children.len());
                                stack.extend(inner.children.iter().map(|c| c.0));
                            }
                        }
                        assert!(widest > 64, "{what}: widest fan-out {widest}");
                    }
                    checked += assert_same_pages(tree.plane(), tree.stats(), &queries, &what);
                }
                // A forest with shadowed ids and a live memtable.
                let cap = if dims == 27 { (18, 9) } else { (6, 4) };
                let config = TreeConfig::new(dims)
                    .with_combine(mode)
                    .with_capacities(cap.0, cap.1);
                let forest = shadowed_forest(&items, config);
                let snap = forest.snapshot().unwrap();
                assert!(snap.plane().comp_count() > 1 && !snap.plane().mem().is_empty());
                checked += assert_same_pages(
                    snap.plane(),
                    forest.stats(),
                    &queries,
                    &format!("forest d{dims} {mode:?}"),
                );
            }
        }
        assert!(checked > 10_000, "{checked} pages");
    }

    #[test]
    fn an_all_underflow_search_has_no_floor_and_takes_the_batched_path() {
        // Every density underflows to −∞, so the exact sum stays empty,
        // `exact_max − 38` is −∞ and no leaf may be screened — whatever
        // the tally says.
        let items = random_db(60, 2, 13);
        let tree = build_tree(&items, 2);
        let q = Pfv::new(vec![1e200, 1e200], vec![0.1, 0.1]).unwrap();
        for caller in [
            Caller::Tiq {
                ln_theta: 0.5f64.ln(),
            },
            Caller::TopK { k: 3 },
        ] {
            let (shown_screened, shown_batched) =
                assert_paths_agree(tree.plane(), &q, caller, "all-underflow");
            assert_eq!((shown_screened, shown_batched), (60, 60));
        }
        let (mut search, _) = DenomSearch::start(tree.plane(), &q).unwrap();
        while search.expand(f64::INFINITY, |_, _| {}).unwrap() {}
        assert_eq!((search.seen, search.kept), (0, 0), "no floor, no tally");
    }

    /// Runs a TIQ-style search under the real tally and reports, per leaf
    /// opened under a finite floor, whether the *next* leaf would be
    /// screened.
    fn tally_decisions(tree: &GaussTree<MemStore>, q: &Pfv) -> Vec<bool> {
        let ln_theta = 0.2f64.ln();
        let (mut search, _) = DenomSearch::start(tree.plane(), q).unwrap();
        let mut decisions = Vec::new();
        loop {
            let seen = search.seen;
            let floor = search.denom.exact_max() - (1.0 - ln_theta);
            if !search.expand(floor, |_, _| {}).unwrap() {
                return decisions;
            }
            if search.seen > seen {
                decisions.push(2 * search.kept <= search.seen);
            }
        }
    }

    #[test]
    fn the_tally_keeps_the_screen_on_for_peaked_data_and_turns_it_off_for_flat() {
        let check = |items: &[(u64, Pfv)], q_sigma: f64, expect_screen: bool| {
            let dims = items[0].1.dims();
            let tree = build_tree(items, dims);
            let q = Pfv::new(items[9].1.means().to_vec(), vec![q_sigma; dims]).unwrap();
            let decisions = tally_decisions(&tree, &q);
            assert!(decisions.len() > 20);
            assert!(
                decisions.iter().all(|&screen| screen == expect_screen),
                "{decisions:?}"
            );
            // Whichever way the tally went, the answer is the forced one.
            let caller = Caller::Tiq {
                ln_theta: 0.2f64.ln(),
            };
            let (free, shown) = trace_search(tree.plane(), &q, None, caller);
            let (batched, all) = trace_search(tree.plane(), &q, Some(false), caller);
            assert_eq!(free, batched);
            assert_eq!(shown < all, expect_screen, "{shown} of {all} entries shown");
        };
        // Tight σ: all but a few entries lie far more than 38 nats below
        // the peak, so every leaf is screened.
        check(&spread_db(400, 3, 5, 0.01, 0.05), 0.02, true);
        // Wide σ: every density is within 38 nats of the peak, the first
        // leaf reports all of its entries kept, and the screen is off from
        // the second leaf on (the first screened nothing out either).
        check(&spread_db(400, 2, 6, 2.0, 4.0), 2.0, false);
    }

    #[test]
    fn screened_tiq_and_refined_match_brute_force() {
        // The callers' own floors (k-th kept density; `exact_max − (1 −
        // ln θ)`) against the oracle, on data where the screen runs for all
        // but the first few (nearest) leaves and several objects share
        // each posterior.
        let items = spread_db(500, 2, 21, 0.05, 0.15);
        let tree = build_tree(&items, 2);
        let db: Vec<Pfv> = items.iter().map(|(_, v)| v.clone()).collect();
        let mut multi_hit_queries = 0;
        for target in [4usize, 99, 250, 311, 480] {
            let q = Pfv::new(items[target].1.means().to_vec(), vec![0.1, 0.1]).unwrap();
            let decisions = tally_decisions(&tree, &q);
            let screened = decisions.iter().filter(|&&screen| screen).count();
            assert!(4 * screened > 3 * decisions.len(), "{decisions:?}");
            let truth = pfv::posteriors(CombineMode::Convolution, &db, &q);

            for theta in [0.3, 0.01, 1e-6, 1e-20] {
                let mut got: Vec<u64> = (tree.tiq(&q, theta, 1e-9).unwrap().iter())
                    .map(|r| r.id)
                    .collect();
                got.sort_unstable();
                let want: Vec<u64> = (truth.iter())
                    .filter(|p| p.probability >= theta)
                    .map(|p| p.index as u64)
                    .collect();
                assert_eq!(got, want, "q{target} theta={theta}");
                multi_hit_queries += usize::from(got.len() > 3);
            }

            for k in [1, 5, 20] {
                let got = tree.k_mliq_refined(&q, k, 1e-9).unwrap();
                let want = scan_k_mliq(&items, &q, k);
                assert_eq!(got.len(), k);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.id, g.log_density.to_bits()), (w.0, w.1.to_bits()));
                    let p = truth[g.id as usize].probability;
                    assert!(g.prob_lo <= p + 1e-12 && p <= g.prob_hi + 1e-12);
                    assert!(g.prob_hi - g.prob_lo <= 1e-9 + 1e-12);
                }
            }
        }
        assert!(multi_hit_queries >= 5, "{multi_hit_queries}");
    }

    #[test]
    fn prob_width_never_negative_under_cancellation() {
        // Near-cancelling node bounds: add a node whose bounds sit far below
        // the anchor, remove it again, and leave only a residue. The raw
        // upper remainder can fall below the lower one by floating-point
        // residue; prob_width must clamp instead of going negative.
        let mut denom = DenomBounds::new(0.0);
        let node = ActiveNode {
            log_upper: -0.3,
            log_lower: -0.7,
            count: 7,
            page: PageId(1),
        };
        denom.add_object(-0.1);
        for _ in 0..1000 {
            denom.add_node(&node, 0.0);
            denom.remove_node(&node, 0.0);
        }
        let w = denom.prob_width(-0.1);
        assert!(w >= 0.0, "width {w} must be clamped at zero");
        assert!(w < 1e-9, "bounds should have (nearly) converged, got {w}");
    }

    #[test]
    fn clamped_probs_stay_in_unit_interval_and_ordered() {
        // ld marginally above the denominator lower bound: the raw upper
        // ratio exceeds 1 and must be clamped.
        let (p, lo, hi) = clamped_probs(0.0, -1e-14, 1e-14, 0.0);
        assert!(hi <= 1.0);
        assert!(lo >= 0.0);
        assert!(lo <= p && p <= hi);

        // Degenerate interval where residue flips the order of lo/hi.
        let (p, lo, hi) = clamped_probs(-0.5, -0.5 + 1e-15, -0.5 - 1e-15, -0.5);
        assert!(lo <= p && p <= hi, "lo={lo} p={p} hi={hi}");
        assert!((0.0..=1.0).contains(&lo));
        assert!((0.0..=1.0).contains(&hi));

        // All densities underflowed: −∞ − (−∞) = NaN must map to 0, not
        // panic inside `clamp` or leak NaN to callers.
        let ninf = f64::NEG_INFINITY;
        let (p, lo, hi) = clamped_probs(ninf, ninf, ninf, ninf);
        assert_eq!((p, lo, hi), (0.0, 0.0, 0.0));
    }

    #[test]
    fn query_infinitely_far_from_everything_returns_zero_probabilities() {
        // Regression: every log density underflows to −∞, so the Bayes
        // denominator bounds are −∞ too; results must come back with
        // probability 0 instead of panicking on a NaN clamp bound.
        let items = random_db(50, 2, 13);
        let tree = build_tree(&items, 2);
        let q = Pfv::new(vec![1e200, 1e200], vec![0.1, 0.1]).unwrap();
        let got = tree.k_mliq_refined(&q, 3, 1e-3).unwrap();
        assert_eq!(got.len(), 3);
        for r in &got {
            assert_eq!((r.probability, r.prob_lo, r.prob_hi), (0.0, 0.0, 0.0));
        }
        assert!(tree.tiq(&q, 0.5, 1e-3).unwrap().is_empty());
        assert!(tree.tiq_anytime(&q, 0.5).unwrap().is_empty());
    }

    #[test]
    fn refined_and_tiq_bounds_respect_unit_interval() {
        // An extremely peaked query: the winner's probability is ~1 and the
        // raw upper bound is prone to 1 + ε residue.
        let items = vec![
            (0u64, Pfv::new(vec![0.0, 0.0], vec![1e-6, 1e-6]).unwrap()),
            (1, Pfv::new(vec![100.0, 100.0], vec![0.1, 0.1]).unwrap()),
            (2, Pfv::new(vec![-100.0, 50.0], vec![0.1, 0.1]).unwrap()),
        ];
        let tree = build_tree(&items, 2);
        let q = Pfv::new(vec![0.0, 0.0], vec![1e-6, 1e-6]).unwrap();
        for r in tree.k_mliq_refined(&q, 3, 1e-9).unwrap() {
            assert!((0.0..=1.0).contains(&r.prob_lo), "prob_lo {}", r.prob_lo);
            assert!((0.0..=1.0).contains(&r.prob_hi), "prob_hi {}", r.prob_hi);
            assert!((0.0..=1.0).contains(&r.probability));
            assert!(r.prob_lo <= r.probability && r.probability <= r.prob_hi);
        }
        for r in tree.tiq(&q, 0.5, 1e-9).unwrap() {
            assert!((0.0..=1.0).contains(&r.prob_lo));
            assert!((0.0..=1.0).contains(&r.prob_hi), "prob_hi {}", r.prob_hi);
            assert!(r.prob_lo <= r.probability && r.probability <= r.prob_hi);
        }
    }

    #[test]
    fn wrong_dimensionality_is_rejected() {
        let items = random_db(10, 2, 3);
        let tree = build_tree(&items, 2);
        let q = Pfv::new(vec![0.0], vec![0.1]).unwrap();
        assert!(matches!(
            tree.k_mliq(&q, 1),
            Err(TreeError::DimMismatch { .. })
        ));
        assert!(matches!(
            tree.tiq(&q, 0.5, 1e-3),
            Err(TreeError::DimMismatch { .. })
        ));
    }

    #[test]
    fn additive_sigma_mode_is_honoured_end_to_end() {
        let items = random_db(100, 2, 55);
        let config = TreeConfig::new(2)
            .with_capacities(6, 4)
            .with_combine(CombineMode::AdditiveSigma);
        let pool = SharedBufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, config).unwrap();
        for (id, v) in &items {
            tree.insert(*id, v).unwrap();
        }
        let q = Pfv::new(vec![5.0, 5.0], vec![0.4, 0.4]).unwrap();
        let got = tree.k_mliq(&q, 5).unwrap();
        let mut all: Vec<(u64, f64)> = items
            .iter()
            .map(|(id, v)| (*id, combine::log_joint(CombineMode::AdditiveSigma, v, &q)))
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (g, w) in got.iter().zip(all.iter()) {
            assert!((g.log_density - w.1).abs() < 1e-9);
        }
    }
}
