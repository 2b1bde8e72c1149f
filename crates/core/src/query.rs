//! Query processing on the Gauss-tree (paper §5.2).
//!
//! All three algorithms run best-first over a priority queue of *active
//! nodes* ordered by the conservative upper bound `N̂` of the node's
//! Gaussians evaluated for the query (Hjaltason–Samet, as in §5.2.1).
//! They are implemented once against the shared read-plane
//! ([`crate::view::Plane`]) and surface on both the writer handle and
//! pinned snapshots through [`crate::view::ReadView`]:
//!
//! * [`ReadView::k_mliq`] — the plain k-most-likely identification query:
//!   finds the k objects with maximal relative probability (density); stops
//!   when every candidate beats the bound of the best unexplored node;
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
//! [`ReadView::k_mliq`]: crate::view::ReadView::k_mliq
//! [`ReadView::k_mliq_refined`]: crate::view::ReadView::k_mliq_refined
//! [`ReadView::tiq`]: crate::view::ReadView::tiq

use crate::node::CachedNode;
use crate::tree::TreeError;
use crate::view::Plane;
use gauss_storage::store::PageStore;
use gauss_storage::PageId;
use pfv::logsum::{log_add_exp, LogSumAcc, ScaledSum};
use pfv::{batch, Pfv};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

    pub(crate) fn add_node(&mut self, node: &ActiveNode) {
        self.add_node_counts(
            node.log_lower,
            node.count as f64,
            node.log_upper,
            node.count as f64,
        );
    }

    /// Like [`DenomBounds::add_node`] but with distinct entry counts for
    /// the lower and upper remainder terms. The forest query path prices a
    /// component node with `hi_count` = all stored entries (a correct
    /// upper bound even when some are shadowed by newer components) and
    /// `lo_count` = entries guaranteed visible.
    pub(crate) fn add_node_counts(
        &mut self,
        log_lower: f64,
        lo_count: f64,
        log_upper: f64,
        hi_count: f64,
    ) {
        // Re-anchor before a term that would overflow the current scale.
        if log_upper - self.max_rem.anchor() > 600.0 {
            self.min_rem.reanchor(log_upper);
            self.max_rem.reanchor(log_upper);
        }
        self.min_rem.add(log_lower, lo_count);
        self.max_rem.add(log_upper, hi_count);
    }

    pub(crate) fn remove_node(&mut self, node: &ActiveNode) {
        self.remove_node_counts(
            node.log_lower,
            node.count as f64,
            node.log_upper,
            node.count as f64,
        );
    }

    /// Inverse of [`DenomBounds::add_node_counts`].
    pub(crate) fn remove_node_counts(
        &mut self,
        log_lower: f64,
        lo_count: f64,
        log_upper: f64,
        hi_count: f64,
    ) {
        self.min_rem.sub(log_lower, lo_count);
        self.max_rem.sub(log_upper, hi_count);
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

impl<S: PageStore> Plane<'_, S> {
    /// k-most-likely identification query (§5.2.1, Definition 3) — the
    /// algorithm behind [`crate::view::ReadView::k_mliq`].
    pub(crate) fn k_mliq(&self, q: &Pfv, k: usize) -> Result<Vec<MliqResult>, TreeError> {
        self.check_dims(q.dims())?;
        if k == 0 || self.is_empty() {
            return Ok(Vec::new());
        }
        let target = k.min(self.len() as usize);
        // Min-heap keeping the k best candidates.
        let mut best: BinaryHeap<std::cmp::Reverse<Candidate>> = BinaryHeap::new();
        self.k_mliq_scan(q, target, None, &mut best)?;

        let mut out: Vec<MliqResult> = best
            .into_iter()
            .map(|std::cmp::Reverse(c)| MliqResult {
                id: c.id,
                log_density: c.log_density,
            })
            .collect();
        out.sort_by(|a, b| {
            b.log_density
                .total_cmp(&a.log_density)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(out)
    }

    /// The best-first k-MLIQ descent over *this* tree, pushing candidates
    /// into a caller-owned heap capped at `target`.
    ///
    /// `hidden` names entry ids to skip — the forest query path passes the
    /// ids shadowed by newer components / tombstones; `None` is the plain
    /// single-tree scan. The heap may arrive pre-populated (memtable
    /// entries, other components): a fuller heap only tightens the pruning
    /// bound, and because candidate selection is a pure top-`target` under
    /// the total `(density, id)` order, the surviving set is independent
    /// of which component was scanned first.
    pub(crate) fn k_mliq_scan(
        &self,
        q: &Pfv,
        target: usize,
        hidden: Option<&std::collections::HashSet<u64>>,
        best: &mut BinaryHeap<std::cmp::Reverse<Candidate>>,
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
            if best.len() == target {
                // lint: allow(no-panic) -- best.len() == target > 0, so the heap is non-empty
                let worst = best.peek().expect("non-empty").0.log_density;
                // Strict: a subtree whose upper bound exactly equals the
                // worst kept density may still hold an equal-density entry
                // with a smaller id, which wins the (density, id) tie —
                // pruning on equality would make the result depend on scan
                // order (and across forest components, on component order).
                if worst > top.log_upper {
                    break;
                }
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
                        // lint: allow(no-panic) -- best.len() == target > 0, so the heap is non-empty
                        let worst = best.peek().expect("non-empty").0.log_density;
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
                        if best.len() == target
                            // lint: allow(no-panic) -- best.len() == target > 0, so the heap is non-empty
                            && up < best.peek().expect("non-empty").0.log_density
                        {
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
        let mode = self.config().combine;
        let target = k.min(self.len() as usize);

        // Expand the root eagerly so an anchor for the scaled accumulators
        // is known before anything enters the queue.
        let root = self.read_node_cached(self.root_page())?;
        let mut active: BinaryHeap<ActiveNode> = BinaryHeap::new();
        let mut best: BinaryHeap<std::cmp::Reverse<Candidate>> = BinaryHeap::new();
        let mut best_ld = f64::NEG_INFINITY;
        // Scratch buffer for the batched leaf kernel, reused across leaves.
        let mut dens: Vec<f64> = Vec::new();

        let mut denom;
        match &*root {
            CachedNode::Leaf(leaf) => {
                denom = DenomBounds::new(0.0);
                dens.resize(leaf.columns.len(), 0.0);
                batch::log_densities(mode, q, &leaf.columns, &mut dens);
                for (&id, &ld) in leaf.ids.iter().zip(dens.iter()) {
                    denom.add_object(ld);
                    push_candidate(&mut best, target, ld, id);
                    best_ld = best_ld.max(ld);
                }
            }
            CachedNode::Inner(es) => {
                let children: Vec<ActiveNode> = active_children(es, q, mode);
                let anchor = children
                    .iter()
                    .map(|c| c.log_upper)
                    .fold(f64::NEG_INFINITY, f64::max);
                denom = DenomBounds::new(if anchor.is_finite() { anchor } else { 0.0 });
                for c in children {
                    denom.add_node(&c);
                    active.push(c);
                }
            }
        }
        drop(root);

        loop {
            let settled = best.len() == target
                && active
                    .peek()
                    // lint: allow(no-panic) -- guarded by best.len() == target > 0 earlier in the condition chain
                    .is_none_or(|t| best.peek().expect("non-empty").0.log_density >= t.log_upper);
            if settled && denom.prob_width(best_ld) <= accuracy {
                break;
            }
            let Some(top) = active.pop() else { break };
            denom.remove_node(&top);
            match &*self.read_node_cached(top.page)? {
                CachedNode::Leaf(leaf) => {
                    dens.resize(leaf.columns.len(), 0.0);
                    batch::log_densities(mode, q, &leaf.columns, &mut dens);
                    for (&id, &ld) in leaf.ids.iter().zip(dens.iter()) {
                        denom.add_object(ld);
                        push_candidate(&mut best, target, ld, id);
                        best_ld = best_ld.max(ld);
                    }
                }
                CachedNode::Inner(es) => {
                    for child in active_children(es, q, mode) {
                        denom.add_node(&child);
                        active.push(child);
                    }
                }
            }
        }

        let (lo, hi, mid) = (denom.log_lo(), denom.log_hi(), denom.log_mid());
        let mut out: Vec<RefinedResult> = best
            .into_iter()
            .map(|std::cmp::Reverse(c)| {
                let (probability, prob_lo, prob_hi) = clamped_probs(c.log_density, lo, hi, mid);
                RefinedResult {
                    id: c.id,
                    log_density: c.log_density,
                    probability,
                    prob_lo,
                    prob_hi,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.log_density
                .total_cmp(&a.log_density)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(out)
    }

    /// Threshold identification query (§5.2.3, Figure 5, Definition 2) —
    /// the algorithm behind [`crate::view::ReadView::tiq`].
    pub(crate) fn tiq(
        &self,
        q: &Pfv,
        p_theta: f64,
        accuracy: f64,
    ) -> Result<Vec<TiqResult>, TreeError> {
        self.tiq_impl(q, p_theta, Some(accuracy))
    }

    /// The literal Figure-5 anytime algorithm — behind
    /// [`crate::view::ReadView::tiq_anytime`].
    pub(crate) fn tiq_anytime(&self, q: &Pfv, p_theta: f64) -> Result<Vec<TiqResult>, TreeError> {
        self.tiq_impl(q, p_theta, None)
    }

    fn tiq_impl(
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
        let mode = self.config().combine;
        let ln_theta = p_theta.ln();

        let root = self.read_node_cached(self.root_page())?;
        let mut active: BinaryHeap<ActiveNode> = BinaryHeap::new();
        let mut cands: Vec<(u64, f64)> = Vec::new();
        // Scratch buffer for the batched leaf kernel, reused across leaves.
        let mut dens: Vec<f64> = Vec::new();

        let mut denom;
        match &*root {
            CachedNode::Leaf(leaf) => {
                denom = DenomBounds::new(0.0);
                dens.resize(leaf.columns.len(), 0.0);
                batch::log_densities(mode, q, &leaf.columns, &mut dens);
                for (&id, &ld) in leaf.ids.iter().zip(dens.iter()) {
                    denom.add_object(ld);
                    cands.push((id, ld));
                }
            }
            CachedNode::Inner(es) => {
                let children: Vec<ActiveNode> = active_children(es, q, mode);
                let anchor = children
                    .iter()
                    .map(|c| c.log_upper)
                    .fold(f64::NEG_INFINITY, f64::max);
                denom = DenomBounds::new(if anchor.is_finite() { anchor } else { 0.0 });
                for c in children {
                    denom.add_node(&c);
                    active.push(c);
                }
            }
        }
        drop(root);

        loop {
            let denom_lo = denom.log_lo();
            let denom_hi = denom.log_hi();
            // Figure 5's "delete unnecessary candidates": prune every
            // candidate whose probability upper bound is below the threshold.
            cands.retain(|&(_, ld)| ld - denom_lo >= ln_theta);

            let explore_more = active
                .peek()
                .is_some_and(|t| t.log_upper - denom_lo >= ln_theta);
            let refine_more = match accuracy {
                // Exact mode: also decide every boundary candidate and meet
                // the probability accuracy.
                Some(acc) => {
                    let any_undecided = cands
                        .iter()
                        .any(|&(_, ld)| ld - denom_hi < ln_theta && ld - denom_lo >= ln_theta);
                    let max_width = cands
                        .iter()
                        .map(|&(_, ld)| denom.prob_width(ld))
                        .fold(0.0, f64::max);
                    any_undecided || max_width > acc
                }
                // Anytime mode (Figure 5 verbatim): no further refinement.
                None => false,
            };
            if !explore_more && !refine_more {
                break;
            }
            let Some(top) = active.pop() else { break };
            denom.remove_node(&top);
            match &*self.read_node_cached(top.page)? {
                CachedNode::Leaf(leaf) => {
                    dens.resize(leaf.columns.len(), 0.0);
                    batch::log_densities(mode, q, &leaf.columns, &mut dens);
                    for (&id, &ld) in leaf.ids.iter().zip(dens.iter()) {
                        denom.add_object(ld);
                        // Admit only candidates that could still qualify —
                        // the retain step above keeps this set tight.
                        if ld - denom.log_lo() >= ln_theta {
                            cands.push((id, ld));
                        }
                    }
                }
                CachedNode::Inner(es) => {
                    for child in active_children(es, q, mode) {
                        denom.add_node(&child);
                        active.push(child);
                    }
                }
            }
        }

        let (lo, hi, mid) = (denom.log_lo(), denom.log_hi(), denom.log_mid());
        let mut out: Vec<TiqResult> = cands
            .into_iter()
            .filter(|&(_, ld)| match accuracy {
                // Exact mode: the candidate provably reaches the threshold.
                Some(_) => ld - hi >= ln_theta,
                // Anytime mode: keep candidates that could reach it.
                None => ld - lo >= ln_theta,
            })
            .map(|(id, ld)| {
                let (mid_p, prob_lo, prob_hi) = clamped_probs(ld, lo, hi, mid);
                TiqResult {
                    id,
                    log_density: ld,
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
            .collect();
        out.sort_by(|a, b| {
            b.log_density
                .total_cmp(&a.log_density)
                .then_with(|| a.id.cmp(&b.id))
        });
        Ok(out)
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
    best: &mut BinaryHeap<std::cmp::Reverse<Candidate>>,
    target: usize,
    log_density: f64,
    id: u64,
) {
    let cand = Candidate { log_density, id };
    if best.len() < target {
        best.push(std::cmp::Reverse(cand));
    // lint: allow(no-panic) -- the else branch runs only when best.len() >= target > 0
    } else if cand > best.peek().expect("non-empty").0 {
        best.pop();
        best.push(std::cmp::Reverse(cand));
    }
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
            denom.add_node(&node);
            denom.remove_node(&node);
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
