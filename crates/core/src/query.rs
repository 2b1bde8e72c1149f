//! Query processing on the Gauss-tree (paper §5.2) — the one read engine.
//!
//! All algorithms run best-first over a priority queue of *active nodes*
//! ordered by the conservative upper bound `N̂` of the node's Gaussians
//! evaluated for the query (Hjaltason–Samet, as in §5.2.1). They are
//! written once, against `ViewPlane`: a memtable slice plus component
//! trees with per-component shadow sets, of which a single tree
//! (`&GaussTree`, `Snapshot`) is the one-component, empty-memtable,
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
//! [`ReadView::k_mliq`]: crate::view::ReadView::k_mliq
//! [`ReadView::k_mliq_refined`]: crate::view::ReadView::k_mliq_refined
//! [`ReadView::tiq`]: crate::view::ReadView::tiq

use crate::node::{CachedNode, ColumnarLeafNode};
use crate::tree::TreeError;
use crate::view::{Plane, ViewPlane};
use gauss_storage::store::PageStore;
use gauss_storage::PageId;
use pfv::logsum::{log_add_exp, LogSumAcc, ScaledSum};
use pfv::{batch, combine, CombineMode, Pfv};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

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

/// Priority-queue entry: an active node ordered by its upper bound.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveNode {
    pub(crate) log_upper: f64,
    pub(crate) log_lower: f64,
    pub(crate) count: u64,
    pub(crate) page: PageId,
}

impl PartialEq for ActiveNode {
    fn eq(&self, other: &Self) -> bool {
        self.log_upper == other.log_upper && self.page == other.page
    }
}
impl Eq for ActiveNode {}
impl PartialOrd for ActiveNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ActiveNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on the upper bound; page id only to make Ord total.
        self.log_upper
            .total_cmp(&other.log_upper)
            .then_with(|| self.page.cmp(&other.page))
    }
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

    /// Width of the probability interval of an object with log density `ld`.
    ///
    /// Clamped at zero: `ScaledSum` subtraction can leave the upper
    /// accumulator a cancellation residue *below* the lower one, which would
    /// otherwise make the width slightly negative and `width <= accuracy`
    /// comparisons vacuously true for negative widths only.
    pub(crate) fn prob_width(&self, ld: f64) -> f64 {
        ((ld - self.log_lo()).exp() - (ld - self.log_hi()).exp()).max(0.0)
    }
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

impl<S: PageStore> Plane<'_, S> {
    /// The best-first k-MLIQ descent over *this* tree, pushing candidates
    /// into a caller-owned heap capped at `target`.
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
        let skip = |id: u64| hidden.is_some_and(|h| h.contains(&id));

        let mut active: BinaryHeap<ActiveNode> = BinaryHeap::new();
        active.push(ActiveNode {
            log_upper: f64::INFINITY,
            log_lower: f64::NEG_INFINITY,
            count: self.len(),
            page: self.root_page(),
        });
        // Scratch buffers for the batched leaf kernels, reused across leaves.
        let mut dens: Vec<f64> = Vec::new();
        let mut fast = batch::FastScratch::new();

        while let Some(top) = active.pop() {
            let worst = kth_density(best, target);
            // Strict: a subtree whose upper bound exactly equals the worst
            // kept density may still hold an equal-density entry with a
            // smaller id, which wins the (density, id) tie — pruning on
            // equality would make the result depend on scan order (and
            // across forest components, on component order).
            if worst > top.log_upper {
                break;
            }
            match &*self.read_node_cached(top.page)? {
                CachedNode::Leaf(leaf) => {
                    if best.len() == target {
                        // Screen tier: the heap is full, so a conservative
                        // upper bound below the worst kept density rules an
                        // entry out without the exact kernel. The bounds
                        // never undershoot the exact value (overflow turns
                        // them NaN, which fails the `<` screen), and ties
                        // fall through to exact evaluation, so the result
                        // set is identical to the unscreened path. The
                        // kernel leaves each lane block as soon as no
                        // dimension prefix can reach `worst` — before the
                        // first dimension, on the stored peak bounds alone.
                        if !batch::screen_densities(mode, q, &leaf.columns, worst, &mut fast) {
                            continue;
                        }
                        for (e, &id) in leaf.ids.iter().enumerate() {
                            if fast.upper()[e] < worst || skip(id) {
                                continue;
                            }
                            // Refine tier: exact, bit-identical to the
                            // batched kernel for this entry.
                            let ld = batch::log_density_one(mode, q, &leaf.columns, e);
                            push_candidate(best, target, ld, id);
                        }
                    } else {
                        dens.resize(leaf.columns.len(), 0.0);
                        batch::log_densities(mode, q, &leaf.columns, &mut dens);
                        for (&id, &ld) in leaf.ids.iter().zip(dens.iter()) {
                            if skip(id) {
                                continue;
                            }
                            push_candidate(best, target, ld, id);
                        }
                    }
                }
                CachedNode::Inner(es) => {
                    // Plain k-MLIQ never consults the lower bound, so price
                    // the children with upper bounds only.
                    for e in es {
                        let up = e.rect.log_upper_for_query(q, mode);
                        // Strict for the same reason as the break above: an
                        // exactly-tied child may contain the tie-winning id.
                        if up < worst {
                            continue;
                        }
                        active.push(ActiveNode {
                            log_upper: up,
                            log_lower: f64::NEG_INFINITY,
                            count: e.count,
                            page: e.child,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Number of ids a component hides, as the remainder terms price it.
fn shadowed_count(hidden: Option<&HashSet<u64>>) -> f64 {
    hidden.map_or(0.0, |h| h.len() as f64)
}

/// Evaluates a leaf with the batched kernel and hands every entry not in
/// `hidden` to `found`.
pub(crate) fn leaf_objects(
    leaf: &ColumnarLeafNode,
    hidden: Option<&HashSet<u64>>,
    mode: CombineMode,
    q: &Pfv,
    dens: &mut Vec<f64>,
    mut found: impl FnMut(Candidate),
) {
    dens.resize(leaf.columns.len(), 0.0);
    batch::log_densities(mode, q, &leaf.columns, dens);
    for (&id, &log_density) in leaf.ids.iter().zip(dens.iter()) {
        if !hidden.is_some_and(|h| h.contains(&id)) {
            found(Candidate { log_density, id });
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
    /// Scratch buffer for the batched leaf kernel, reused across leaves.
    dens: Vec<f64>,
}

impl<'a, 'q, S: PageStore> DenomSearch<'a, 'q, S> {
    /// Evaluates the memtable and expands every component root eagerly,
    /// so an anchor for the scaled accumulators is known before anything
    /// enters the queue. Returns the search and the exact objects found
    /// so far (memtable entries, then root-leaf entries, shadowed ids
    /// excluded), already counted in the denominator.
    fn start(view: ViewPlane<'a, S>, q: &'q Pfv) -> Result<(Self, Vec<Candidate>), TreeError> {
        let mode = view.config().combine;
        let mut dens = Vec::new();
        let mut objects: Vec<Candidate> = view.mem_objects(q).collect();
        let mut nodes: Vec<CompNode> = Vec::new();
        for comp in 0..view.comp_count() {
            let (plane, hidden) = view.comp(comp);
            if plane.is_empty() {
                continue;
            }
            match &*plane.read_node_cached(plane.root_page())? {
                CachedNode::Leaf(leaf) => {
                    leaf_objects(leaf, hidden, mode, q, &mut dens, |c| objects.push(c));
                }
                CachedNode::Inner(es) => nodes.extend(
                    active_children(es, q, mode)
                        .into_iter()
                        .map(|node| CompNode { node, comp }),
                ),
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
            dens,
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
    /// entries' exact densities enter. `found` sees each such entry, and
    /// the bounds with that entry already counted. Returns `false` when
    /// no node was left.
    fn expand(
        &mut self,
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
                let denom = &mut self.denom;
                leaf_objects(leaf, hidden, mode, self.q, &mut self.dens, |c| {
                    denom.add_object(c.log_density);
                    found(denom, c);
                });
            }
            CachedNode::Inner(es) => {
                for node in active_children(es, self.q, mode) {
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
        let target = k.min(self.len() as usize);
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
        let target = k.min(self.len() as usize);
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
            let expanded = search.expand(|_, c| {
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
                // Exact mode: also decide every boundary candidate and meet
                // the probability accuracy.
                Some(acc) => {
                    let any_undecided = cands.iter().any(|c| {
                        c.log_density - denom_hi < ln_theta && c.log_density - denom_lo >= ln_theta
                    });
                    let max_width = cands
                        .iter()
                        .map(|c| search.denom.prob_width(c.log_density))
                        .fold(0.0, f64::max);
                    any_undecided || max_width > acc
                }
                // Anytime mode (Figure 5 verbatim): no further refinement.
                None => false,
            };
            if !explore_more && !refine_more {
                break;
            }
            let expanded = search.expand(|denom, c| {
                // Admit only candidates that could still qualify — the
                // retain step above keeps this set tight.
                if c.log_density - denom.log_lo() >= ln_theta {
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

/// Prices every child of an inner node in one fused hull sweep (the same
/// per-child evaluation as [`children_log_hulls`], without materializing
/// the intermediate bounds vector) and wraps them as queue entries.
pub(crate) fn active_children(
    es: &[crate::node::InnerEntry],
    q: &Pfv,
    mode: pfv::CombineMode,
) -> Vec<ActiveNode> {
    es.iter()
        .map(|e| {
            let (up, lo) = e.rect.log_bounds_for_query(q, mode);
            ActiveNode {
                log_upper: up,
                log_lower: lo,
                count: e.count,
                page: e.child,
            }
        })
        .collect()
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
    use crate::config::TreeConfig;
    use crate::tree::GaussTree;
    use crate::view::ReadView;
    use gauss_storage::{AccessStats, BufferPool, MemStore};
    use pfv::{combine, CombineMode};

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
        let mut rng = Rng(seed | 1);
        (0..n as u64)
            .map(|id| {
                let means: Vec<f64> = (0..dims).map(|_| rng.next_f64() * 10.0).collect();
                let sigmas: Vec<f64> = (0..dims).map(|_| 0.05 + rng.next_f64()).collect();
                (id, Pfv::new(means, sigmas).unwrap())
            })
            .collect()
    }

    fn build_tree(items: &[(u64, Pfv)], dims: usize) -> GaussTree<MemStore> {
        let config = TreeConfig::new(dims).with_capacities(6, 4);
        let pool = BufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
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
        let pool = BufferPool::new(MemStore::new(8192), 64, AccessStats::new_shared());
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
        let pool = BufferPool::new(MemStore::new(8192), 1024, AccessStats::new_shared());
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
