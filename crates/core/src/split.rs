//! Node split strategies (paper §5.3).
//!
//! On overflow the paper tentatively performs a median split in each
//! μ-dimension and each σ-dimension, computes the bounds of the two
//! resulting nodes, and keeps the split minimising the summed hull
//! integrals `∫ N̂(x) dx` — the probability proxy for a node being accessed
//! by an arbitrary query. Two conventional baselines ([`SplitStrategy::WidestMu`],
//! [`SplitStrategy::MinVolume`]) are included for the ablation study.
//!
//! # The proxy is priced at the spread a query sees
//!
//! §5.3 integrates the hull at σ_q = 0, as though every query were an exact
//! point. A real query has its own σ_q, and Lemma 1 shows it a node only
//! through the combined interval `[c(σ̌, σ_q), c(σ̂, σ_q)]`: two objects of
//! σ 1e-4 and 1e-2 look alike to a query of σ_q = 0.05. Priced at
//! σ_q = 0, the proxy spends splits isolating tiny-σ objects no query can
//! tell apart, and the nodes it builds span the whole μ range of those
//! dimensions. [`SplitCost`](crate::split::SplitCost) therefore evaluates
//! the closed form [`pfv::DimBounds::hull_integral`] on the interval a
//! query of typical spread σ̄ sees ([`pfv::DimBounds::with_query_sigma`]),
//! per dimension:
//!
//! ```text
//! ∫ N̂ = 1 + (μ̂−μ̌)/(√(2π)·σ̌′) + 2·ln(σ̂′/σ̌′)/√(2πe),
//! σ′ = √(σ² + σ̄²) (Convolution)  or  σ + σ̄ (AdditiveSigma)
//! ```
//!
//! At σ̄ = 0 this is the paper's proxy bit for bit. σ̄ comes from the data,
//! never from an option:
//!
//! * the bulk loader takes the geometric mean of its input's σ per
//!   dimension (Σ ln σ in input order, so every thread count and memory
//!   budget builds the same bytes; a forest flush or merge takes it over its
//!   own component's items);
//! * the paper's incremental `insert` keeps no tree-wide state, so a node
//!   split and a subtree choice take the geometric mean of the entries at
//!   hand ([`SplitCost::from_items`](crate::split::SplitCost::from_items)).
//!
//! How σ̄ is chosen matters little, as long as it is of the scale of the
//! data's σ and not far below it. Pages per 1-MLIQ + TIQ on the repo
//! benchmark's `hist27_warm` (seed 1): σ_q = 0 reads 305.5 and the
//! geometric mean 248.8; the per-dimension median σ scaled ×0.5 / ×1 / ×2 /
//! ×4 reads 248.1 / 245.0 / 250.8 / 249.9, the geometric mean ×0.5 / ×2 /
//! ×4 248.2 / 248.2 / 251.5, and σ̄ recomputed at every split from the
//! items being split 247.9. Only a σ̄ well below the data's keeps little of
//! the gain: ×0.25 reads 294.4 (median) and 286.9 (geometric mean). On
//! `uniform10_cold` all of these read 426–434 pages against σ_q = 0's
//! 454.9.
//!
//! # What the gain assumes of the queries
//!
//! σ̄ is taken from the stored data and stands in for the σ of queries that
//! have not arrived yet. The measured gain therefore rests on one property
//! of the traffic: queries carry σ of about the data's scale. Every workload
//! in this repository has that property by construction — both paper data
//! sets (`gauss_bench::ExperimentSpec`), the repo benchmark's queries and
//! its forest workload draw query σ from the same model as the data σ.
//! Queries far tighter than the data were measured once, outside any
//! workload: `ablation_split` at full size with every query's σ scaled
//! ×0.1 (and ×0.01), the μ unchanged, pages per query at σ̄ against
//! σ_q = 0 pricing:
//!
//! | data set | 1-MLIQ ×0.1 | 1-MLIQ ×0.01 | TIQ(0.2) ×0.1 | TIQ(0.2) ×0.01 |
//! |---|---|---|---|---|
//! | 1 (d27 histograms, 690 pages) | 122.5 → 88.5 | 124.1 → 90.0 | 688.0 → 688.0 | 688.0 → 688.0 |
//! | 2 (d10 uniform, 2178 pages) | 1472.9 → 1354.2 | 1610.6 → 1516.6 | 2154.1 → 2160.8 | 2175.1 → 2175.1 |
//!
//! The 1-MLIQ still gains there. TIQ(0.2) opens nearly the whole tree under
//! either pricing, and data set 2's ×0.1 row reads 0.3 % more pages at σ̄.

use crate::config::SplitStrategy;
use crate::node::{InnerEntry, LeafEntry};
use pfv::{CombineMode, DimBounds, ParamRect};

/// A split axis: the μ or the σ component of one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Split by feature value of dimension `i`.
    Mu(usize),
    /// Split by uncertainty value of dimension `i`.
    Sigma(usize),
}

/// Items a node split can operate on (leaf pfv entries or inner child
/// entries).
pub trait Splittable {
    /// Dimensionality.
    fn dims(&self) -> usize;
    /// Sort key along `axis` (centre of the item's extent on that axis).
    fn axis_key(&self, axis: Axis) -> f64;
    /// The item's parameter bounds in dimension `dim`.
    fn dim_bounds(&self, dim: usize) -> DimBounds;
}

impl Splittable for LeafEntry {
    fn dims(&self) -> usize {
        self.pfv.dims()
    }

    fn axis_key(&self, axis: Axis) -> f64 {
        match axis {
            Axis::Mu(i) => self.pfv.means()[i],
            Axis::Sigma(i) => self.pfv.sigmas()[i],
        }
    }

    fn dim_bounds(&self, dim: usize) -> DimBounds {
        let (m, s) = self.pfv.component(dim);
        DimBounds::point(m, s)
    }
}

impl Splittable for InnerEntry {
    fn dims(&self) -> usize {
        self.rect.dims()
    }

    fn axis_key(&self, axis: Axis) -> f64 {
        match axis {
            Axis::Mu(i) => {
                let d = self.rect.dim(i);
                0.5 * (d.mu_lo + d.mu_hi)
            }
            Axis::Sigma(i) => {
                let d = self.rect.dim(i);
                0.5 * (d.sigma_lo + d.sigma_hi)
            }
        }
    }

    fn dim_bounds(&self, dim: usize) -> DimBounds {
        *self.rect.dim(dim)
    }
}

/// MBR of a group of splittable items.
///
/// # Panics
/// Panics on an empty group.
#[must_use]
pub fn group_rect<T: Splittable>(items: &[T]) -> ParamRect {
    assert!(!items.is_empty(), "empty group has no bounds");
    let dims = items[0].dims();
    let mut ds: Vec<DimBounds> = (0..dims).map(|d| items[0].dim_bounds(d)).collect();
    for it in &items[1..] {
        for (d, b) in ds.iter_mut().enumerate() {
            *b = b.union(&it.dim_bounds(d));
        }
    }
    ParamRect::from_dims(ds)
}

/// The objective every split minimises: a [`SplitStrategy`] and, for
/// [`SplitStrategy::HullIntegral`], the query spread σ̄ its hull integrals
/// are priced at.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitCost {
    strategy: SplitStrategy,
    mode: CombineMode,
    /// σ̄ per dimension; only the hull integral reads it.
    sigma_bar: Box<[f64]>,
}

impl SplitCost {
    /// The strategy's objective with the hull integral priced at the
    /// combined spread `c(σ, σ̄)` of `mode`, `sigma_bar[i]` in dimension `i`.
    /// σ̄ = 0 is §5.3's σ_q = 0 proxy bit for bit. The volume strategies
    /// ignore σ̄.
    #[must_use]
    pub fn at_spread(strategy: SplitStrategy, mode: CombineMode, sigma_bar: &[f64]) -> Self {
        Self {
            strategy,
            mode,
            sigma_bar: sigma_bar.into(),
        }
    }

    /// The strategy's objective priced at the geometric mean of `items`' σ
    /// per dimension (an inner entry counts as `√(σ̌·σ̂)`) — the σ̄ a node
    /// split or a subtree choice has at hand without any tree-wide state.
    ///
    /// # Panics
    /// Panics on an empty `items`.
    #[must_use]
    pub fn from_items<T: Splittable>(
        strategy: SplitStrategy,
        mode: CombineMode,
        items: &[T],
    ) -> Self {
        if strategy != SplitStrategy::HullIntegral {
            return Self::at_spread(strategy, mode, &[]);
        }
        assert!(!items.is_empty(), "no items to take σ̄ from");
        let sigma_bar: Vec<f64> = (0..items[0].dims())
            .map(|d| {
                let log_sum: f64 = items
                    .iter()
                    .map(|it| {
                        let b = it.dim_bounds(d);
                        0.5 * (b.sigma_lo.ln() + b.sigma_hi.ln())
                    })
                    .sum();
                (log_sum / items.len() as f64).exp()
            })
            .collect();
        Self::at_spread(strategy, mode, &sigma_bar)
    }

    /// The strategy whose objective this is.
    #[must_use]
    pub fn strategy(&self) -> SplitStrategy {
        self.strategy
    }

    /// Log-space cost of one node:
    ///
    /// * hull integral: `Σ_dim ln ∫N̂_dim` (log of the product of
    ///   per-dimension hull integrals), at the spread;
    /// * volume strategies: log of the parameter-space volume, with a small
    ///   ε floor per extent so degenerate rectangles stay comparable.
    ///
    /// # Panics
    /// Panics under the hull integral if `rect` and σ̄ differ in
    /// dimensionality.
    #[must_use]
    pub fn node(&self, rect: &ParamRect) -> f64 {
        const EPS: f64 = 1e-12;
        match self.strategy {
            SplitStrategy::HullIntegral => {
                assert_eq!(rect.dims(), self.sigma_bar.len(), "dimensionality mismatch");
                rect.as_slice()
                    .iter()
                    .zip(self.sigma_bar.iter())
                    .map(|(d, &s)| {
                        let folded = d.with_query_sigma(s, self.mode).hull_integral();
                        // Under Convolution σ² overflows beyond σ ≈ 1.3e154
                        // (σ is any finite value), and an inner page's
                        // rectangle may hold an infinite bound; the σ_q = 0
                        // integral is then finite or +∞, never the NaN of
                        // `∞ / ∞`, which would win no comparison.
                        if folded.is_finite() {
                            folded
                        } else {
                            d.hull_integral()
                        }
                        .ln()
                    })
                    .sum()
            }
            SplitStrategy::WidestMu | SplitStrategy::MinVolume => rect
                .as_slice()
                .iter()
                .map(|d| (d.mu_extent() + EPS).ln() + (d.sigma_extent() + EPS).ln())
                .sum(),
        }
    }
}

/// `ln(exp(a) + exp(b))` — combines the two child costs for comparison.
/// An infinite cost (a rectangle with an infinite bound, see
/// [`pfv::quant::round_outward`]) makes the sum infinite, not NaN.
pub(crate) fn log_add(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if lo == f64::NEG_INFINITY || hi == f64::INFINITY {
        hi
    } else {
        hi + (lo - hi).exp().ln_1p()
    }
}

/// Outcome of a split: the chosen axis and the two groups.
#[derive(Debug)]
pub struct SplitOutcome<T> {
    /// Axis the split was performed on.
    pub axis: Axis,
    /// Left group (keeps the original page).
    pub left: Vec<T>,
    /// Right group (goes to a fresh page).
    pub right: Vec<T>,
}

/// Splits an overflowing set of items into two groups.
///
/// Every candidate axis receives a median split (so both halves satisfy the
/// minimum fanout by construction); the strategy's cost function picks the
/// winner.
///
/// # Panics
/// Panics if fewer than two items are supplied.
#[must_use]
pub fn split_items<T: Splittable + Clone>(cost: &SplitCost, items: Vec<T>) -> SplitOutcome<T> {
    assert!(items.len() >= 2, "cannot split fewer than two items");
    let axes = candidate_axes(cost.strategy, items[0].dims(), || group_rect(&items));
    let mid = items.len() / 2;
    let mut best: Option<(f64, Axis, Vec<T>, Vec<T>)> = None;
    for axis in axes {
        let mut sorted = items.clone();
        sorted.sort_by(|a, b| a.axis_key(axis).total_cmp(&b.axis_key(axis)));
        let right = sorted.split_off(mid);
        let left = sorted;
        let c = log_add(
            cost.node(&group_rect(&left)),
            cost.node(&group_rect(&right)),
        );
        let better = match &best {
            None => true,
            Some((b, ..)) => c < *b,
        };
        if better {
            best = Some((c, axis, left, right));
        }
    }
    #[expect(clippy::expect_used, reason = "the axis loop ran at least once")]
    let (_, axis, left, right) = best.expect("at least one candidate axis");
    SplitOutcome { axis, left, right }
}

/// The candidate split axes of a strategy, in the canonical order every
/// partitioner (in-memory, parallel, external) must share: all `2·dims`
/// parameter axes for the cost-driven strategies, the single widest-μ axis
/// (computed lazily from the covering rectangle) for the baseline.
#[expect(clippy::expect_used, reason = "dims >= 1, so max_by sees an axis")]
pub(crate) fn candidate_axes(
    strategy: SplitStrategy,
    dims: usize,
    whole_rect: impl FnOnce() -> ParamRect,
) -> Vec<Axis> {
    match strategy {
        SplitStrategy::WidestMu => {
            let rect = whole_rect();
            let best = (0..dims)
                .max_by(|&a, &b| rect.dim(a).mu_extent().total_cmp(&rect.dim(b).mu_extent()))
                .expect("dims >= 1");
            vec![Axis::Mu(best)]
        }
        SplitStrategy::HullIntegral | SplitStrategy::MinVolume => (0..dims)
            .flat_map(|i| [Axis::Mu(i), Axis::Sigma(i)])
            .collect(),
    }
}

/// MBR of the items selected by `idxs`, unioned in index order — the same
/// fold [`group_rect`] performs over a materialised group.
///
/// # Panics
/// Panics if `idxs` is empty.
pub(crate) fn rect_of_indices<T: Splittable>(items: &[T], idxs: &[u32]) -> ParamRect {
    assert!(!idxs.is_empty(), "empty group has no bounds");
    let first = &items[idxs[0] as usize];
    let dims = first.dims();
    let mut ds: Vec<DimBounds> = (0..dims).map(|d| first.dim_bounds(d)).collect();
    for &i in &idxs[1..] {
        let it = &items[i as usize];
        for (d, b) in ds.iter_mut().enumerate() {
            *b = b.union(&it.dim_bounds(d));
        }
    }
    ParamRect::from_dims(ds)
}

/// Splits `items` at `split_at` along the cheapest candidate axis and
/// returns the two halves in the stable sort order of that axis.
///
/// Semantically identical to the original clone-sort-per-axis
/// implementation, but candidate axes are evaluated on a stable **argsort**
/// (one `Vec<f64>` of keys and one index permutation per axis) and only the
/// winning permutation materialises the items — no per-axis full clones.
fn choose_partition_split<T: Splittable + Clone>(
    cost: &SplitCost,
    items: Vec<T>,
    split_at: usize,
) -> (Vec<T>, Vec<T>) {
    let dims = items[0].dims();
    let n = items.len();
    let axes = candidate_axes(cost.strategy, dims, || group_rect(&items));

    let mut best: Option<(f64, Vec<u32>)> = None;
    for axis in axes {
        let keys: Vec<f64> = items.iter().map(|it| it.axis_key(axis)).collect();
        #[expect(clippy::expect_used, reason = "groups are capped far below u32::MAX")]
        let mut perm: Vec<u32> = (0..u32::try_from(n).expect("group fits u32")).collect();
        // Stable argsort == stable sort of the items themselves.
        perm.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
        let c = log_add(
            cost.node(&rect_of_indices(&items, &perm[..split_at])),
            cost.node(&rect_of_indices(&items, &perm[split_at..])),
        );
        if best.as_ref().is_none_or(|(b, _)| c < *b) {
            best = Some((c, perm));
        }
    }
    #[expect(clippy::expect_used, reason = "the axis loop ran at least once")]
    let (_, perm) = best.expect("at least one candidate axis");

    // Move the items into the winning order (no clones).
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut left = Vec::with_capacity(split_at);
    let mut right = Vec::with_capacity(n - split_at);
    for (i, &p) in perm.iter().enumerate() {
        #[expect(clippy::expect_used, reason = "perm moves each slot exactly once")]
        let it = slots[p as usize].take().expect("each index moved once");
        if i < split_at {
            left.push(it);
        } else {
            right.push(it);
        }
    }
    (left, right)
}

/// Recursively partitions `items` into `⌈n / cap⌉` groups of at most `cap`
/// items each, choosing split axes with the same cost objective as node
/// splits. Used by the bulk loader.
///
/// # Panics
/// Panics if `cap < 1` or `items` is empty.
#[must_use]
pub fn partition_groups<T: Splittable + Clone>(
    cost: &SplitCost,
    items: Vec<T>,
    cap: usize,
) -> Vec<Vec<T>> {
    assert!(cap >= 1, "group capacity must be positive");
    assert!(!items.is_empty(), "cannot partition zero items");
    let n_groups = items.len().div_ceil(cap);
    let mut out = Vec::with_capacity(n_groups);
    partition_rec(cost, items, n_groups, &mut out);
    out
}

fn partition_rec<T: Splittable + Clone>(
    cost: &SplitCost,
    items: Vec<T>,
    n_groups: usize,
    out: &mut Vec<Vec<T>>,
) {
    if n_groups <= 1 {
        out.push(items);
        return;
    }
    let g_left = n_groups / 2;
    let split_at = items.len() * g_left / n_groups;
    let (left, right) = choose_partition_split(cost, items, split_at);
    partition_rec(cost, left, g_left, out);
    partition_rec(cost, right, n_groups - g_left, out);
}

/// Subtrees below this size are partitioned serially by one worker instead
/// of being split across threads — a thread spawn would cost more than the
/// parallelism buys.
const PARALLEL_TASK_FLOOR: usize = 2048;

/// [`partition_groups`] fanned across `threads` scoped workers.
///
/// The recursion of [`partition_groups`] descends into two *independent*
/// sub-ranges after every split, so the parallel form is a fork-join over
/// the same recursion: the right half goes to a fresh scoped thread with
/// half the thread budget while the splitting thread keeps descending into
/// the left with the rest, and the right's groups are appended after the
/// left's when its join handle returns. Every split is the one the serial
/// recursion makes (`n_groups` splits deterministically) and groups come
/// back in recursion order, so the result is **identical** to the serial
/// partitioning for any thread count.
///
/// # Panics
/// Panics if `cap < 1` or `items` is empty.
#[must_use]
pub fn partition_groups_parallel<T: Splittable + Clone + Send>(
    cost: &SplitCost,
    items: Vec<T>,
    cap: usize,
    threads: usize,
) -> Vec<Vec<T>> {
    assert!(cap >= 1, "group capacity must be positive");
    assert!(!items.is_empty(), "cannot partition zero items");
    let total = items.len().div_ceil(cap);
    partition_into_n_parallel(cost, items, total, threads)
}

/// [`partition_groups_parallel`] with an explicit group count — the form
/// the bulk loader's recursion needs, because a sub-range's group count is
/// fixed by the parent split, not recomputed from the capacity.
pub(crate) fn partition_into_n_parallel<T: Splittable + Clone + Send>(
    cost: &SplitCost,
    items: Vec<T>,
    total: usize,
    threads: usize,
) -> Vec<Vec<T>> {
    assert!(!items.is_empty(), "cannot partition zero items");
    let mut out = Vec::with_capacity(total);
    partition_fork_join(cost, items, total, threads.max(1), &mut out);
    out
}

/// [`partition_rec`] with the right half of every split above
/// [`PARALLEL_TASK_FLOOR`] handed to its own scoped thread, `threads`
/// being this call's budget (itself included).
fn partition_fork_join<T: Splittable + Clone + Send>(
    cost: &SplitCost,
    items: Vec<T>,
    n_groups: usize,
    threads: usize,
    out: &mut Vec<Vec<T>>,
) {
    if threads == 1 || n_groups <= 1 || items.len() <= PARALLEL_TASK_FLOOR {
        partition_rec(cost, items, n_groups, out);
        return;
    }
    let g_left = n_groups / 2;
    let split_at = items.len() * g_left / n_groups;
    let (left, right) = choose_partition_split(cost, items, split_at);
    let right_threads = threads / 2;
    let right_groups = std::thread::scope(|scope| {
        let right = scope.spawn(|| {
            let mut groups = Vec::with_capacity(n_groups - g_left);
            partition_fork_join(cost, right, n_groups - g_left, right_threads, &mut groups);
            groups
        });
        partition_fork_join(cost, left, g_left, threads - right_threads, out);
        right.join()
    });
    out.extend(right_groups.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
}

/// Splits a set into as many groups of at most `cap` items as the
/// recursive median splits produce — one group, untouched, if it already
/// fits; exactly one [`split_items`] at `cap + 1` items (a single insert's
/// overflow); more when a batch insert overfills a node further.
///
/// # Panics
/// Panics if `cap < 2`.
#[must_use]
pub fn split_many<T: Splittable + Clone>(
    cost: &SplitCost,
    items: Vec<T>,
    cap: usize,
) -> Vec<Vec<T>> {
    assert!(cap >= 2, "capacity below two cannot hold a split result");
    if items.len() <= cap {
        return vec![items];
    }
    let out = split_items(cost, items);
    let mut groups = split_many(cost, out.left, cap);
    groups.extend(split_many(cost, out.right, cap));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfv::Pfv;

    fn leaf(id: u64, mu: f64, sigma: f64) -> LeafEntry {
        LeafEntry {
            id,
            pfv: Pfv::new(vec![mu], vec![sigma]).unwrap(),
        }
    }

    /// `strategy`'s objective on one dimension, the hull integral priced at
    /// σ_q = 0 as §5.3 prints it.
    fn point(strategy: SplitStrategy) -> SplitCost {
        SplitCost::at_spread(strategy, CombineMode::Convolution, &[0.0])
    }

    /// The hull-integral objective at σ_q = 0 and at a one-dimensional
    /// spread `sigma_bar` under both combine modes.
    fn hull_costs(sigma_bar: f64) -> [SplitCost; 3] {
        let hull = SplitStrategy::HullIntegral;
        [
            point(hull),
            SplitCost::at_spread(hull, CombineMode::Convolution, &[sigma_bar]),
            SplitCost::at_spread(hull, CombineMode::AdditiveSigma, &[sigma_bar]),
        ]
    }

    #[test]
    fn split_balances_cardinality() {
        let items: Vec<LeafEntry> = (0..9).map(|i| leaf(i, i as f64, 0.5)).collect();
        let out = split_items(&point(SplitStrategy::HullIntegral), items);
        assert_eq!(out.left.len(), 4);
        assert_eq!(out.right.len(), 5);
    }

    #[test]
    fn low_sigma_cluster_splits_by_mu() {
        // Paper intuition: if σ̂ is low, split by μ.
        // σ̄ = 0.05 is about the items' own geometric-mean σ, what the
        // loader would fold in.
        let items: Vec<LeafEntry> = (0..8)
            .map(|i| leaf(i, i as f64 * 2.0, 0.05 + 0.001 * (i % 2) as f64))
            .collect();
        for cost in hull_costs(0.05) {
            let out = split_items(&cost, items.clone());
            assert!(
                matches!(out.axis, Axis::Mu(0)),
                "{cost:?}: axis = {:?}",
                out.axis
            );
            // Groups are separated in μ.
            let max_left = out
                .left
                .iter()
                .map(|e| e.pfv.means()[0])
                .fold(f64::NEG_INFINITY, f64::max);
            let min_right = out
                .right
                .iter()
                .map(|e| e.pfv.means()[0])
                .fold(f64::INFINITY, f64::min);
            assert!(max_left <= min_right);
        }
    }

    #[test]
    fn mixed_sigma_cluster_splits_by_sigma() {
        // Paper intuition: with wildly mixed σ and narrow μ, split by σ so
        // that at least the low-σ node becomes selective.
        let items: Vec<LeafEntry> = (0..8)
            .map(|i| {
                let sigma = if i % 2 == 0 { 0.01 } else { 10.0 };
                leaf(i, 0.1 * i as f64, sigma)
            })
            .collect();
        // σ̄ = √(0.01 · 10), the items' geometric-mean σ.
        for cost in hull_costs(0.1f64.sqrt()) {
            let out = split_items(&cost, items.clone());
            assert!(
                matches!(out.axis, Axis::Sigma(0)),
                "{cost:?}: axis = {:?}",
                out.axis
            );
        }
    }

    #[test]
    fn folded_cost_splits_a_histogram_cluster_by_mu() {
        // A histogram-like cluster: dimension 0 is a heavy bin whose values
        // spread widely; dimension 1 is an empty bin, known to be empty, with
        // σ a hundredfold apart between objects but far below any query's.
        // At σ_q = 0 isolating the 1e-4 objects looks like a win; a query of
        // spread σ̄ = 0.05 cannot tell 1e-4 from 1e-2, and splitting the
        // heavy bin by value is what narrows its hull.
        let items: Vec<LeafEntry> = (0..8)
            .map(|i| LeafEntry {
                id: i,
                pfv: Pfv::new(
                    vec![i as f64, 0.0],
                    vec![0.3, if i % 2 == 0 { 1e-4 } else { 1e-2 }],
                )
                .unwrap(),
            })
            .collect();
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            let point = SplitCost::at_spread(SplitStrategy::HullIntegral, mode, &[0.0, 0.0]);
            assert_eq!(
                split_items(&point, items.clone()).axis,
                Axis::Sigma(1),
                "{mode:?}"
            );
            let cost = SplitCost::at_spread(SplitStrategy::HullIntegral, mode, &[0.05, 0.05]);
            assert_eq!(
                split_items(&cost, items.clone()).axis,
                Axis::Mu(0),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn from_items_prices_at_the_geometric_mean_sigma() {
        // Leaves of σ 0.01 and 1, or one inner entry spanning [0.01, 1]:
        // either way σ̄ = 0.1.
        let leaves = vec![leaf(0, 0.0, 0.01), leaf(1, 3.0, 1.0)];
        let inner = vec![InnerEntry {
            child: gauss_storage::PageId(0),
            count: 2,
            rect: group_rect(&leaves),
        }];
        let rect = group_rect(&leaves);
        let hull = SplitStrategy::HullIntegral;
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            let want = SplitCost::at_spread(hull, mode, &[0.1]).node(&rect);
            for got in [
                SplitCost::from_items(hull, mode, &leaves),
                SplitCost::from_items(hull, mode, &inner),
            ] {
                assert!((got.node(&rect) - want).abs() < 1e-12, "{mode:?}: {got:?}");
            }
        }
        let volume = SplitStrategy::MinVolume;
        assert_eq!(
            SplitCost::from_items(volume, CombineMode::Convolution, &leaves)
                .node(&rect)
                .to_bits(),
            point(volume).node(&rect).to_bits()
        );
    }

    #[test]
    fn huge_sigma_keeps_the_folded_cost_finite() {
        // Dimension 0 carries σ = 1e200 everywhere: σ² overflows under
        // Convolution, and a NaN cost would lose every comparison and leave
        // the split on the first axis, Mu(0). Dimension 1 is the one worth
        // splitting by value; its values are out of input order, so no
        // other axis's stable sort happens to match it.
        let items: Vec<LeafEntry> = (0..8)
            .map(|i| LeafEntry {
                id: i,
                pfv: Pfv::new(vec![0.0, ((i * 3) % 8) as f64 * 10.0], vec![1e200, 0.1]).unwrap(),
            })
            .collect();
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            let cost = SplitCost::from_items(SplitStrategy::HullIntegral, mode, &items);
            assert!(cost.node(&group_rect(&items)).is_finite(), "{mode:?}");
            assert_eq!(
                split_items(&cost, items.clone()).axis,
                Axis::Mu(1),
                "{mode:?}"
            );
            // At σ̄ = 0 the fallback is §5.3's proxy bit for bit, whether
            // σ² overflows or not.
            let rect = ParamRect::from_dims(vec![
                DimBounds::new(-3.0, 4.0, 1e-9, 0.7),
                DimBounds::new(0.0, 1e-6, 1e100, 1e200),
            ]);
            let point = SplitCost::at_spread(SplitStrategy::HullIntegral, mode, &[0.0; 2]);
            assert_eq!(
                point.node(&rect).to_bits(),
                rect.log_access_cost().to_bits(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn hull_split_cost_not_worse_than_alternatives() {
        // The chosen split must have minimal hull cost among all tentative
        // median splits (it is an argmin by construction; verify against a
        // brute-force recomputation).
        let items: Vec<LeafEntry> = (0..10)
            .map(|i| leaf(i, (i * i) as f64 * 0.3, 0.05 + 0.3 * (i % 3) as f64))
            .collect();
        for cost in hull_costs(0.2) {
            let out = split_items(&cost, items.clone());
            let chosen = log_add(
                cost.node(&group_rect(&out.left)),
                cost.node(&group_rect(&out.right)),
            );
            let mid = items.len() / 2;
            for axis in [Axis::Mu(0), Axis::Sigma(0)] {
                let mut sorted = items.clone();
                sorted.sort_by(|a, b| a.axis_key(axis).total_cmp(&b.axis_key(axis)));
                let right = sorted.split_off(mid);
                let alternative = log_add(
                    cost.node(&group_rect(&sorted)),
                    cost.node(&group_rect(&right)),
                );
                assert!(chosen <= alternative + 1e-12);
            }
        }
    }

    #[test]
    fn widest_mu_ignores_sigma() {
        let items: Vec<LeafEntry> = (0..8)
            .map(|i| {
                let sigma = if i % 2 == 0 { 0.01 } else { 10.0 };
                leaf(i, 0.001 * i as f64, sigma)
            })
            .collect();
        let out = split_items(&point(SplitStrategy::WidestMu), items);
        assert!(matches!(out.axis, Axis::Mu(_)));
    }

    #[test]
    fn inner_entries_split_too() {
        let items: Vec<InnerEntry> = (0..6)
            .map(|i| InnerEntry {
                child: gauss_storage::PageId(i),
                count: 5,
                rect: ParamRect::from_dims(vec![DimBounds::new(
                    i as f64,
                    i as f64 + 0.5,
                    0.1,
                    0.2,
                )]),
            })
            .collect();
        let out = split_items(&point(SplitStrategy::HullIntegral), items);
        assert_eq!(out.left.len() + out.right.len(), 6);
        assert!(out.left.len() >= 3 && out.right.len() >= 3);
    }

    #[test]
    fn group_rect_is_tight() {
        let items = vec![leaf(0, 1.0, 0.1), leaf(1, 3.0, 0.4), leaf(2, 2.0, 0.2)];
        let r = group_rect(&items);
        assert_eq!(r.dim(0).mu_lo, 1.0);
        assert_eq!(r.dim(0).mu_hi, 3.0);
        assert_eq!(r.dim(0).sigma_lo, 0.1);
        assert_eq!(r.dim(0).sigma_hi, 0.4);
    }

    #[test]
    #[should_panic(expected = "fewer than two")]
    fn split_rejects_singleton() {
        let _ = split_items(&point(SplitStrategy::HullIntegral), vec![leaf(0, 0.0, 0.1)]);
    }

    #[test]
    fn partition_respects_capacity() {
        let items: Vec<LeafEntry> = (0..103)
            .map(|i| leaf(i, (i as f64).sin() * 10.0, 0.1 + (i % 4) as f64 * 0.2))
            .collect();
        for cap in [2, 5, 7, 16, 200] {
            let groups = partition_groups(&point(SplitStrategy::HullIntegral), items.clone(), cap);
            assert_eq!(groups.len(), 103usize.div_ceil(cap));
            let total: usize = groups.iter().map(Vec::len).sum();
            assert_eq!(total, 103);
            for g in &groups {
                assert!(!g.is_empty());
                assert!(g.len() <= cap, "group of {} exceeds cap {}", g.len(), cap);
            }
        }
    }

    #[test]
    fn partition_keeps_every_item_exactly_once() {
        let items: Vec<LeafEntry> = (0..50).map(|i| leaf(i, i as f64, 0.3)).collect();
        let groups = partition_groups(&point(SplitStrategy::MinVolume), items, 8);
        let mut ids: Vec<u64> = groups.iter().flatten().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn partition_single_group() {
        let items: Vec<LeafEntry> = (0..5).map(|i| leaf(i, i as f64, 0.3)).collect();
        let groups = partition_groups(&point(SplitStrategy::HullIntegral), items, 10);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 5);
    }

    #[test]
    fn parallel_partition_identical_to_serial() {
        // Enough items that the recursion actually forks (the serial floor
        // is 2048), on every strategy and several thread counts.
        let items: Vec<LeafEntry> = (0..6000)
            .map(|i| {
                leaf(
                    i,
                    (i as f64 * 0.917).sin() * 40.0,
                    0.02 + ((i * 7) % 11) as f64 * 0.09,
                )
            })
            .collect();
        let costs = hull_costs(0.3).into_iter().chain([
            point(SplitStrategy::MinVolume),
            point(SplitStrategy::WidestMu),
        ]);
        for cost in costs {
            let serial = partition_groups(&cost, items.clone(), 24);
            for threads in [1, 2, 3, 8] {
                let par = partition_groups_parallel(&cost, items.clone(), 24, threads);
                assert_eq!(par, serial, "{cost:?}, threads {threads}");
            }
        }
    }

    #[test]
    fn split_many_respects_capacity_and_keeps_items() {
        let items: Vec<LeafEntry> = (0..77)
            .map(|i| leaf(i, (i as f64 * 1.3).cos() * 15.0, 0.1 + (i % 6) as f64 * 0.1))
            .collect();
        for cap in [4, 8, 80] {
            let groups = split_many(&point(SplitStrategy::HullIntegral), items.clone(), cap);
            let mut ids: Vec<u64> = groups.iter().flatten().map(|e| e.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..77).collect::<Vec<_>>());
            for g in &groups {
                assert!(!g.is_empty() && g.len() <= cap);
            }
            if cap >= 80 {
                assert_eq!(groups.len(), 1);
            }
        }
    }

    #[test]
    fn infinite_costs_add_to_infinity_not_nan() {
        assert_eq!(log_add(f64::INFINITY, f64::INFINITY), f64::INFINITY);
        assert_eq!(log_add(f64::INFINITY, 3.0), f64::INFINITY);
        assert_eq!(log_add(3.0, f64::INFINITY), f64::INFINITY);
        assert_eq!(
            log_add(f64::NEG_INFINITY, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        assert_eq!(log_add(0.0, 0.0).to_bits(), 2f64.ln().to_bits());
    }
}
