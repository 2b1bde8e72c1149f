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
    /// Whether an item's bounds are the point of its keys
    /// (`dim_bounds(i)` is `DimBounds::point` of its μ and σ keys, as for a
    /// leaf entry), so the partitioner reads them from the key columns.
    const POINT_BOUNDS: bool = false;

    /// Dimensionality.
    fn dims(&self) -> usize;
    /// Sort key along `axis` (centre of the item's extent on that axis).
    fn axis_key(&self, axis: Axis) -> f64;
    /// The item's parameter bounds in dimension `dim`.
    fn dim_bounds(&self, dim: usize) -> DimBounds;
}

impl Splittable for LeafEntry {
    // A stored σ is already clamped to `MIN_SIGMA`, so `DimBounds::point`
    // keeps it as it is.
    const POINT_BOUNDS: bool = true;

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
        self.dims_cost(rect.as_slice())
    }

    /// [`SplitCost::node`] of the rectangle with these dimensions.
    pub(crate) fn dims_cost(&self, dims: &[DimBounds]) -> f64 {
        const EPS: f64 = 1e-12;
        match self.strategy {
            SplitStrategy::HullIntegral => {
                assert_eq!(dims.len(), self.sigma_bar.len(), "dimensionality mismatch");
                dims.iter()
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
            SplitStrategy::WidestMu | SplitStrategy::MinVolume => dims
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
/// winner. This is one split of the bulk partitioner (`partition` with
/// two groups), so no item is cloned.
///
/// # Panics
/// Panics if fewer than two items are supplied.
#[must_use]
#[expect(clippy::expect_used, reason = "two groups come back from one split")]
pub fn split_items<T: Splittable>(cost: &SplitCost, items: Vec<T>) -> SplitOutcome<T> {
    assert!(items.len() >= 2, "cannot split fewer than two items");
    let (mut groups, axis) = partition(cost, items, 2, 1);
    let right = groups.pop().expect("two groups");
    let left = groups.pop().expect("two groups");
    SplitOutcome {
        axis: axis.expect("two groups take one split"),
        left,
        right,
    }
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

/// Subtrees below this size are partitioned serially by one worker instead
/// of being split across threads — a thread spawn would cost more than the
/// parallelism buys.
const PARALLEL_TASK_FLOOR: usize = 2048;

/// Recursively partitions `items` into `n_groups` groups, choosing split
/// axes with the same cost objective as node splits, and returns them in
/// recursion order with the axis of the first split (`None` when one group
/// takes everything, in input order). Its callers: the bulk loader's leaf
/// level, with the group count its own recursion fixed (`⌈n / leaf
/// capacity⌉` at the top, an external split's share below); an overflowing
/// node on the insert path, with `⌈len / capacity⌉`; [`split_items`], with
/// two. The bulk-built levels above the leaves are chunked, not partitioned.
///
/// # The presorted partitioner
///
/// The recursion splits `n_groups` groups into `⌊n_groups / 2⌋` on the left
/// and the rest on the right, at `split_at = m·⌊n_groups / 2⌋ / n_groups`
/// of a node's `m` items in the cheapest candidate axis's stable sort. A
/// stable sort orders equal keys by their position in the node's own
/// sequence, which is the parent's winning order. Instead of sorting every
/// axis again at every split, one call lays out the axis keys as flat
/// columns and sorts each column once, by (key, input position). A node
/// numbers its items `0..m` in its sequence, so an item's id is its rank,
/// and it owns one contiguous slice of every column (indexed by id), of
/// every column's order (its ids sorted by (value, id)) and of `orig` (each
/// id's input position). A split reads and writes these slices alone:
///
/// * a candidate axis's left half is the prefix of its order, so it needs
///   no sort: an item is in it if it sorts before the first item of the
///   right half by (key, id);
/// * a half's least value in a column is that of the first member of the
///   half met scanning the column's order from the front, and its greatest
///   that of the first met from the back; the scan stops at once unless
///   the column follows the candidate axis, so pricing both halves costs a
///   few reads per column instead of a gather of every item;
/// * a leaf entry's bounds are its keys; an inner entry's `μ̌`, `μ̂`, `σ̌`
///   and `σ̂` get columns (and orders) of their own beside its centres;
/// * the winner's order is the two children's sequences, so it renumbers
///   them: the item at position `r` becomes id `r` of the left child, or
///   `r − split_at` of the right. Every column and `orig` are permuted into
///   the new ids, the winner's order becomes `0..` in each child, and
///   every other order is filtered stably into the children under the new
///   ids. Within each run of equal values the filtered ids are then sorted
///   — the child's sequence — which is where the stable sort of the
///   recursion this replaced put them. Columns without equal values skip
///   that step; a run longer than a sixteenth of the child (a histogram's
///   empty bins) is read off the child's column in one pass instead of
///   sorted. A split into two single groups permutes `orig` alone.
///
/// So every split, and every group's order, is the one the per-split
/// stable argsort made, and the trees are byte-identical to it. The work
/// per split is one pass over each of the node's orders and columns,
/// O(n·d) per level, against O(n·d·(log n + d)) for the sorts and the
/// gathers, and a node deep in the recursion touches only its own few
/// cache lines of each column. The recursion's leaves own consecutive
/// slices of `orig`, so when it ends `orig` lists every group's input
/// positions, group after group in recursion order. Per item a call holds
/// `2d` `f64` keys and `2d` `u32` orders (`6d` of each for inner entries)
/// and its `orig` word; a worker's scratch holds a rank word, an id word
/// and a value per item of the largest node it splits, and a column sort
/// one (key, id) pair per item.
///
/// # Threads
///
/// The column sorts are independent, so `threads` scoped workers sort
/// disjoint ranges of columns. The recursion descends into two
/// *independent* nodes after every split, each owning its own slices, so
/// it fans out as a fork-join over the same recursion: the right half goes
/// to a fresh scoped thread with half the thread budget and a scratch of
/// its own while the splitting thread keeps descending into the left with
/// the rest. Every split is the one the serial recursion makes and groups
/// come back in recursion order, so the result is **identical** to the
/// serial partitioning for any thread count.
///
/// # Panics
/// Panics if `items` is empty or `n_groups` exceeds its length.
#[expect(clippy::expect_used, reason = "the groups cover every item once")]
pub(crate) fn partition<T: Splittable>(
    cost: &SplitCost,
    items: Vec<T>,
    n_groups: usize,
    threads: usize,
) -> (Vec<Vec<T>>, Option<Axis>) {
    assert!(!items.is_empty(), "cannot partition zero items");
    if n_groups <= 1 {
        return (vec![items], None);
    }
    assert!(n_groups <= items.len(), "more groups than items");
    let n = items.len();
    let threads = threads.max(1);
    let (cols, mut vals, mut ord) = Columns::new(&items, threads);
    let mut orig: Vec<u32> = (0u32..).take(n).collect();
    let root = Node {
        vals: vals.chunks_exact_mut(n).collect(),
        ords: ord.chunks_exact_mut(n).collect(),
        orig: &mut orig,
        n_groups,
    };
    let mut lens = Vec::with_capacity(n_groups);
    let first = cols.descend(cost, root, threads, &mut Scratch::default(), &mut lens);
    drop((vals, ord));
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut positions = orig.into_iter();
    let groups = lens
        .into_iter()
        .map(|len| {
            positions
                .by_ref()
                .take(len)
                .map(|pos| slots[pos as usize].take().expect("each item in one group"))
                .collect()
        })
        .collect();
    (groups, first.map(axis_of))
}

/// The candidate axis whose keys column `c` holds: `2i` is μ and `2i + 1`
/// is σ of dimension `i`, the order of [`candidate_axes`].
fn axis_of(c: usize) -> Axis {
    if c.is_multiple_of(2) {
        Axis::Mu(c / 2)
    } else {
        Axis::Sigma(c / 2)
    }
}

fn column_of(axis: Axis) -> usize {
    match axis {
        Axis::Mu(i) => 2 * i,
        Axis::Sigma(i) => 2 * i + 1,
    }
}

/// The bits of `x` as an integer that orders like [`f64::total_cmp`].
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A node of the recursion: its `m` items, numbered `0..m` in its
/// sequence, and the number of groups to cut it into.
struct Node<'a> {
    /// `vals[c][id]`: item `id`'s value in column `c`.
    vals: Vec<&'a mut [f64]>,
    /// `ords[c]`: the ids in column `c`'s order, by (value, id).
    ords: Vec<&'a mut [u32]>,
    /// `orig[id]`: item `id`'s position in the call's input.
    orig: &'a mut [u32],
    n_groups: usize,
}

/// One worker's scratch: the new ids of a split, and buffers for a
/// permuted column, a permuted `orig` and the right half of a filtered
/// order. The buffers grow to the largest node the worker splits.
#[derive(Default)]
struct Scratch {
    /// `rank[id]`: the position of the node's item `id` in the winning
    /// order, which is its id in the left child, or that plus `split_at`
    /// in the right.
    rank: Vec<u32>,
    ids: Vec<u32>,
    vals: Vec<f64>,
}

/// The shape of one partition call's columns: which hold each dimension's
/// bounds, and which hold equal values.
struct Columns {
    dims: usize,
    /// Per dimension, the columns holding `μ̌, μ̂, σ̌, σ̂`. Columns `0..2d`
    /// are the candidate axes' keys ([`axis_of`]); an inner entry adds
    /// `μ̌, μ̂, σ̌, σ̂` of dimension `i` at `2d + 4i ..`.
    bounds: Vec<[usize; 4]>,
    /// Whether a column holds two equal values, so that filtering it into
    /// the children needs the tie reorder.
    ties: Vec<bool>,
}

impl Columns {
    /// Lays out `items` as columns (`vals[c * n + id]`, `id` the input
    /// position) and returns them with every column's order
    /// (`order[c * n ..][..n]`), sorted by (value, input position) on
    /// `threads` workers (one below the fork floor).
    fn new<T: Splittable>(items: &[T], threads: usize) -> (Self, Vec<f64>, Vec<u32>) {
        let n = items.len();
        assert!(u32::try_from(n).is_ok(), "partition exceeds u32 indices");
        let dims = items[0].dims();
        let n_cols = if T::POINT_BOUNDS { 2 * dims } else { 6 * dims };
        let mut vals = vec![0.0; n_cols * n];
        for (id, it) in items.iter().enumerate() {
            for i in 0..dims {
                vals[2 * i * n + id] = it.axis_key(Axis::Mu(i));
                vals[(2 * i + 1) * n + id] = it.axis_key(Axis::Sigma(i));
                if !T::POINT_BOUNDS {
                    let b = it.dim_bounds(i);
                    let at = 2 * dims + 4 * i;
                    for (k, v) in [b.mu_lo, b.mu_hi, b.sigma_lo, b.sigma_hi]
                        .into_iter()
                        .enumerate()
                    {
                        vals[(at + k) * n + id] = v;
                    }
                }
            }
        }
        let bounds = (0..dims)
            .map(|i| {
                if T::POINT_BOUNDS {
                    [2 * i, 2 * i, 2 * i + 1, 2 * i + 1]
                } else {
                    let at = 2 * dims + 4 * i;
                    [at, at + 1, at + 2, at + 3]
                }
            })
            .collect();
        let mut order = vec![0u32; n_cols * n];
        let mut ties = vec![false; n_cols];
        let workers = if n > PARALLEL_TASK_FLOOR { threads } else { 1 };
        let per_worker = n_cols.div_ceil(workers);
        std::thread::scope(|scope| {
            let mut jobs = vals
                .chunks(per_worker * n)
                .zip(order.chunks_mut(per_worker * n))
                .zip(ties.chunks_mut(per_worker));
            let first = jobs.next();
            for ((vals, order), ties) in jobs {
                scope.spawn(move || sort_columns(n, vals, order, ties));
            }
            if let Some(((vals, order), ties)) = first {
                sort_columns(n, vals, order, ties);
            }
        });
        let cols = Self { dims, bounds, ties };
        (cols, vals, order)
    }

    /// Splits `node`, recursing into both halves; appends the sizes of the
    /// finished groups to `out` in recursion order and returns the column
    /// the node split on.
    fn descend(
        &self,
        cost: &SplitCost,
        node: Node<'_>,
        threads: usize,
        scratch: &mut Scratch,
        out: &mut Vec<usize>,
    ) -> Option<usize> {
        let m = node.orig.len();
        if node.n_groups <= 1 {
            out.push(m);
            return None;
        }
        let split_at = m * (node.n_groups / 2) / node.n_groups;
        let w = self.choose(cost, &node, split_at);
        let (left, right) = self.split(node, w, split_at, scratch);
        if threads == 1 || m <= PARALLEL_TASK_FLOOR {
            self.descend(cost, left, 1, scratch, out);
            self.descend(cost, right, 1, scratch, out);
            return Some(w);
        }
        let right_threads = threads / 2;
        let right_groups = std::thread::scope(|scope| {
            let right = scope.spawn(move || {
                let mut groups = Vec::new();
                let mut scratch = Scratch::default();
                self.descend(cost, right, right_threads, &mut scratch, &mut groups);
                groups
            });
            self.descend(cost, left, threads - right_threads, scratch, out);
            right.join()
        });
        out.extend(right_groups.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        Some(w)
    }

    /// The column of the cheapest candidate split at `split_at`.
    #[expect(clippy::expect_used, reason = "there is at least one candidate axis")]
    fn choose(&self, cost: &SplitCost, node: &Node<'_>, split_at: usize) -> usize {
        let candidates: Vec<usize> =
            candidate_axes(cost.strategy, self.dims, || self.whole_rect(node))
                .into_iter()
                .map(column_of)
                .collect();
        if let [only] = candidates[..] {
            return only;
        }
        let mut best: Option<(f64, usize)> = None;
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for &a in &candidates {
            self.halves(node, a, split_at, &mut left, &mut right);
            let c = log_add(cost.dims_cost(&left), cost.dims_cost(&right));
            if best.is_none_or(|(b, _)| c < b) {
                best = Some((c, a));
            }
        }
        best.expect("at least one candidate axis").1
    }

    /// The node's covering rectangle, from the ends of its bound orders.
    fn whole_rect(&self, node: &Node<'_>) -> ParamRect {
        let first = |c: usize| node.vals[c][node.ords[c][0] as usize];
        let last = |c: usize| node.vals[c][node.ords[c][node.ords[c].len() - 1] as usize];
        ParamRect::from_dims(
            self.bounds
                .iter()
                .map(|&[mu_lo, mu_hi, sigma_lo, sigma_hi]| DimBounds {
                    mu_lo: first(mu_lo),
                    mu_hi: last(mu_hi),
                    sigma_lo: first(sigma_lo),
                    sigma_hi: last(sigma_hi),
                })
                .collect(),
        )
    }

    /// Both halves' bounds of the candidate split along column `a`, whose
    /// left half is the first `split_at` ids of `a`'s order, into
    /// `left` and `right`.
    fn halves(
        &self,
        node: &Node<'_>,
        a: usize,
        split_at: usize,
        left: &mut Vec<DimBounds>,
        right: &mut Vec<DimBounds>,
    ) {
        let (vals, ords) = (&node.vals, &node.ords);
        // `a`'s order is sorted by (value, id): an id is left of the
        // split's first right id, `pivot`, if it sorts before it.
        let key = |id: u32| total_key(vals[a][id as usize]);
        let pivot = ords[a][split_at];
        let pivot_key = key(pivot);
        let in_left = |id: u32| {
            let k = key(id);
            k < pivot_key || (k == pivot_key && id < pivot)
        };
        // The first id of each half scanning `order` from the front, or
        // from the back when `from_back`.
        let ends = |c: usize, from_back: bool| -> (f64, f64) {
            let order = &ords[c][..];
            let (l, r) = match (c == a, from_back) {
                (true, false) => (order[0], order[split_at]),
                (true, true) => (order[split_at - 1], order[order.len() - 1]),
                (false, false) => first_of_each(order.iter().copied(), in_left),
                (false, true) => first_of_each(order.iter().rev().copied(), in_left),
            };
            (vals[c][l as usize], vals[c][r as usize])
        };
        left.clear();
        right.clear();
        for &[mu_lo, mu_hi, sigma_lo, sigma_hi] in &self.bounds {
            let (l_mu_lo, r_mu_lo) = ends(mu_lo, false);
            let (l_mu_hi, r_mu_hi) = ends(mu_hi, true);
            let (l_sigma_lo, r_sigma_lo) = ends(sigma_lo, false);
            let (l_sigma_hi, r_sigma_hi) = ends(sigma_hi, true);
            left.push(DimBounds {
                mu_lo: l_mu_lo,
                mu_hi: l_mu_hi,
                sigma_lo: l_sigma_lo,
                sigma_hi: l_sigma_hi,
            });
            right.push(DimBounds {
                mu_lo: r_mu_lo,
                mu_hi: r_mu_hi,
                sigma_lo: r_sigma_lo,
                sigma_hi: r_sigma_hi,
            });
        }
    }

    /// Cuts `node` at `split_at` of column `w`'s order into its two
    /// children, renumbering each child's items in that order, its
    /// sequence. Children that split no further get their `orig` alone.
    fn split<'a>(
        &self,
        mut node: Node<'a>,
        w: usize,
        split_at: usize,
        s: &mut Scratch,
    ) -> (Node<'a>, Node<'a>) {
        let winner = &node.ords[w][..];
        s.ids.clear();
        s.ids
            .extend(winner.iter().map(|&id| node.orig[id as usize]));
        node.orig.copy_from_slice(&s.ids);
        if node.n_groups > 2 {
            s.rank.resize(winner.len(), 0);
            for (r, &id) in (0u32..).zip(winner) {
                s.rank[id as usize] = r;
            }
            for col in &mut node.vals {
                s.vals.clear();
                s.vals.extend(winner.iter().map(|&id| col[id as usize]));
                col.copy_from_slice(&s.vals);
            }
            // The winner's own order comes out as `0..` in each child.
            for (c, ord) in node.ords.iter_mut().enumerate() {
                self.divide(c, ord, split_at, node.vals[c], s);
            }
        }
        let (vals, ords) = (node.vals, node.ords);
        let (left_vals, right_vals) = vals.into_iter().map(|v| v.split_at_mut(split_at)).unzip();
        let (left_ords, right_ords) = ords.into_iter().map(|o| o.split_at_mut(split_at)).unzip();
        let (left_orig, right_orig) = node.orig.split_at_mut(split_at);
        let g_left = node.n_groups / 2;
        let left = Node {
            vals: left_vals,
            ords: left_ords,
            orig: left_orig,
            n_groups: g_left,
        };
        let right = Node {
            vals: right_vals,
            ords: right_ords,
            orig: right_orig,
            n_groups: node.n_groups - g_left,
        };
        (left, right)
    }

    /// Filters column `c`'s order stably into the two children of a split
    /// at `split_at`, under their new ids (`s.rank`), then sorts each run
    /// of equal values of the column, `col` in the new ids.
    #[expect(clippy::expect_used, reason = "ids fit u32, as `Columns::new` checks")]
    fn divide(&self, c: usize, ord: &mut [u32], split_at: usize, col: &[f64], s: &mut Scratch) {
        let cut = u32::try_from(split_at).expect("ids fit u32");
        let right_len = ord.len() - split_at;
        // Branch-free: every id is written to both the left front of `ord`
        // (never past the slot just read) and the right buffer, and only
        // its own side's cursor moves, so a coin-flip side costs no
        // mispredicted branch.
        s.ids.resize(right_len + 1, 0);
        let (mut l, mut r) = (0, 0);
        for j in 0..ord.len() {
            let id = s.rank[ord[j] as usize];
            let left = id < cut;
            ord[l] = id;
            s.ids[r] = id.wrapping_sub(cut);
            l += usize::from(left);
            r += usize::from(!left);
        }
        debug_assert_eq!(l, split_at, "the left half holds split_at items");
        ord[split_at..].copy_from_slice(&s.ids[..right_len]);
        if self.ties[c] {
            let (left, right) = ord.split_at_mut(split_at);
            let (left_col, right_col) = col.split_at(split_at);
            sort_ties(left, left_col);
            sort_ties(right, right_col);
        }
    }
}

/// Sorts the `n`-item columns of `vals` into `order` by (value, id), and
/// flags in `ties` the columns holding two equal values.
fn sort_columns(n: usize, vals: &[f64], order: &mut [u32], ties: &mut [bool]) {
    let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(n);
    for ((col, ord), tie) in vals
        .chunks_exact(n)
        .zip(order.chunks_exact_mut(n))
        .zip(ties)
    {
        keyed.clear();
        keyed.extend((0u32..).zip(col).map(|(id, &v)| (total_key(v), id)));
        keyed.sort_unstable();
        *tie = keyed.windows(2).any(|w| w[0].0 == w[1].0);
        for (o, &(_, id)) in ord.iter_mut().zip(&keyed) {
            *o = id;
        }
    }
}

/// Sorts every run of equal values of a child's column `col` in its order
/// `ord` by id, the child's sequence. A short run is sorted; a long one (a
/// histogram's empty bins) is read off `col` in one pass.
fn sort_ties(ord: &mut [u32], col: &[f64]) {
    let bits_of = |id: u32| col[id as usize].to_bits();
    let mut i = 0;
    while i < ord.len() {
        let bits = bits_of(ord[i]);
        let mut j = i + 1;
        while j < ord.len() && bits_of(ord[j]) == bits {
            j += 1;
        }
        if 16 * (j - i) > ord.len() {
            let run = (0u32..).zip(col).filter(|&(_, v)| v.to_bits() == bits);
            for (slot, (id, _)) in ord[i..j].iter_mut().zip(run) {
                *slot = id;
            }
        } else if j - i > 1 {
            ord[i..j].sort_unstable();
        }
        i = j;
    }
}

/// The first id of each half met in `ids`: `(left, right)`.
#[expect(clippy::expect_used, reason = "both halves of a split are non-empty")]
fn first_of_each(mut ids: impl Iterator<Item = u32>, in_left: impl Fn(u32) -> bool) -> (u32, u32) {
    let first = ids.next().expect("a non-empty order");
    let first_left = in_left(first);
    let other = ids
        .find(|&id| in_left(id) != first_left)
        .expect("both halves are non-empty");
    if first_left {
        (first, other)
    } else {
        (other, first)
    }
}

/// The per-split argsort recursion the presorted partitioner replaced: at
/// every split each candidate axis is argsorted afresh (stably) and both
/// halves' rectangles are gathered item by item. Kept as the oracle the
/// presorted partitioner must reproduce group for group.
#[cfg(test)]
mod reference {
    use super::*;

    /// MBR of the items selected by `idxs`, unioned in index order.
    fn rect_of_indices<T: Splittable>(items: &[T], idxs: &[u32]) -> ParamRect {
        let first = &items[idxs[0] as usize];
        let mut ds: Vec<DimBounds> = (0..first.dims()).map(|d| first.dim_bounds(d)).collect();
        for &i in &idxs[1..] {
            for (d, b) in ds.iter_mut().enumerate() {
                *b = b.union(&items[i as usize].dim_bounds(d));
            }
        }
        ParamRect::from_dims(ds)
    }

    /// Splits `items` at `split_at` along the cheapest candidate axis and
    /// returns the axis and the two halves in its stable sort order.
    fn choose_split<T: Splittable + Clone>(
        cost: &SplitCost,
        items: &[T],
        split_at: usize,
    ) -> (Axis, Vec<T>, Vec<T>) {
        let axes = candidate_axes(cost.strategy, items[0].dims(), || group_rect(items));
        let mut best: Option<(f64, Axis, Vec<u32>)> = None;
        for axis in axes {
            let keys: Vec<f64> = items.iter().map(|it| it.axis_key(axis)).collect();
            let mut perm: Vec<u32> = (0..items.len() as u32).collect();
            perm.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
            let c = log_add(
                cost.node(&rect_of_indices(items, &perm[..split_at])),
                cost.node(&rect_of_indices(items, &perm[split_at..])),
            );
            if best.as_ref().is_none_or(|(b, ..)| c < *b) {
                best = Some((c, axis, perm));
            }
        }
        let (_, axis, perm) = best.unwrap();
        let pick = |ids: &[u32]| ids.iter().map(|&i| items[i as usize].clone()).collect();
        (axis, pick(&perm[..split_at]), pick(&perm[split_at..]))
    }

    /// The groups of the recursion, in recursion order.
    pub(super) fn partition<T: Splittable + Clone>(
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
        let (_, left, right) = choose_split(cost, &items, items.len() * g_left / n_groups);
        partition(cost, left, g_left, out);
        partition(cost, right, n_groups - g_left, out);
    }

    /// One node split, as `insert` made it.
    pub(super) fn split_items<T: Splittable + Clone>(
        cost: &SplitCost,
        items: &[T],
    ) -> SplitOutcome<T> {
        let (axis, left, right) = choose_split(cost, items, items.len() / 2);
        SplitOutcome { axis, left, right }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfv::Pfv;
    use proptest::prelude::*;

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
            let n_groups = items.len().div_ceil(cap);
            let groups = partition(
                &point(SplitStrategy::HullIntegral),
                items.clone(),
                n_groups,
                1,
            )
            .0;
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
        let groups = partition(
            &point(SplitStrategy::MinVolume),
            items,
            50usize.div_ceil(8),
            1,
        )
        .0;
        let mut ids: Vec<u64> = groups.iter().flatten().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn partition_single_group() {
        let items: Vec<LeafEntry> = (0..5).map(|i| leaf(i, i as f64, 0.3)).collect();
        let groups = partition(
            &point(SplitStrategy::HullIntegral),
            items,
            5usize.div_ceil(10),
            1,
        )
        .0;
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
            let n_groups = items.len().div_ceil(24);
            let serial = partition(&cost, items.clone(), n_groups, 1).0;
            for threads in [1, 2, 3, 8] {
                let par = partition(&cost, items.clone(), n_groups, threads).0;
                assert_eq!(par, serial, "{cost:?}, threads {threads}");
            }
        }
    }

    /// The next value of a splitmix64 stream.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    fn unit(state: &mut u64) -> f64 {
        (mix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` leaf entries of one of three shapes: tie-heavy (every μ and σ
    /// drawn from two or three values, one to three dimensions), d27
    /// histograms shaped like data set 1, or distinct keys.
    fn shaped_leaves(shape: usize, n: usize, seed: u64) -> Vec<LeafEntry> {
        let mut state = seed;
        match shape {
            0 => {
                let dims = 1 + (seed % 3) as usize;
                let values = 2 + (seed / 3 % 2) as usize;
                let pick = |state: &mut u64, from: &[f64]| from[mix(state) as usize % values];
                (0..n as u64)
                    .map(|id| {
                        let means: Vec<f64> = (0..dims)
                            .map(|_| pick(&mut state, &[0.0, 1.0, 2.5]))
                            .collect();
                        let sigmas: Vec<f64> = (0..dims)
                            .map(|_| pick(&mut state, &[0.1, 0.4, 0.2]))
                            .collect();
                        LeafEntry {
                            id,
                            pfv: Pfv::new(means, sigmas).unwrap(),
                        }
                    })
                    .collect()
            }
            1 => {
                let sigma = gauss_workloads::SigmaSpec::log_uniform(0.05, 0.9)
                    .relative_to_value(0.01)
                    .with_object_scale(0.5, 2.0);
                gauss_workloads::histogram_dataset(n, 27, sigma, seed)
                    .items()
                    .into_iter()
                    .map(|(id, pfv)| LeafEntry { id, pfv })
                    .collect()
            }
            _ => {
                let dims = 1 + (seed % 4) as usize;
                (0..n as u64)
                    .map(|id| {
                        let means: Vec<f64> =
                            (0..dims).map(|_| unit(&mut state) * 20.0 - 10.0).collect();
                        let sigmas: Vec<f64> = (0..dims).map(|_| 0.01 + unit(&mut state)).collect();
                        LeafEntry {
                            id,
                            pfv: Pfv::new(means, sigmas).unwrap(),
                        }
                    })
                    .collect()
            }
        }
    }

    /// Inner entries over pairs of `leaves`: each rectangle covers leaf `i`
    /// and another one, so equal leaf keys make equal centres and bounds.
    fn inner_over(leaves: &[LeafEntry]) -> Vec<InnerEntry> {
        let n = leaves.len();
        (0..n)
            .map(|i| InnerEntry {
                child: gauss_storage::PageId(i as u64),
                count: 1 + i as u64 % 5,
                rect: group_rect(&[leaves[i].clone(), leaves[(i * 7 + 3) % n].clone()]),
            })
            .collect()
    }

    /// The presorted partitioner's groups (on each of `threads`) and node
    /// split against the reference recursion's.
    fn assert_matches_reference<T>(cost: &SplitCost, items: &[T], cap: usize, threads: &[usize])
    where
        T: Splittable + Clone + PartialEq + std::fmt::Debug,
    {
        let mut want = Vec::new();
        reference::partition(cost, items.to_vec(), items.len().div_ceil(cap), &mut want);
        for &threads in threads {
            let got = partition(cost, items.to_vec(), items.len().div_ceil(cap), threads).0;
            let first_diff = got.iter().zip(&want).position(|(g, w)| g != w);
            assert!(
                got.len() == want.len() && first_diff.is_none(),
                "{cost:?}, n {}, cap {cap}, threads {threads}: {} groups against {}, \
                 first differing group {first_diff:?}",
                items.len(),
                got.len(),
                want.len(),
            );
        }
        let node = &items[..items.len().min(cap + 1)];
        if node.len() >= 2 {
            let got = split_items(cost, node.to_vec());
            let want = reference::split_items(cost, node);
            assert_eq!(got.axis, want.axis, "{cost:?}, node of {}", node.len());
            assert!(got.left == want.left && got.right == want.right, "{cost:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn presorted_partition_matches_the_per_split_argsort(
            (inner, strategy, shape, size, cap, seed) in
                (0usize..2, 0usize..3, 0usize..3, 1usize..3001, 2usize..61, 0u64..u64::MAX)
        ) {
            // One case in four takes the full size; the rest stay below 300.
            let n = if seed % 4 == 0 { size } else { 1 + size % 300 };
            let strategy = [
                SplitStrategy::HullIntegral,
                SplitStrategy::WidestMu,
                SplitStrategy::MinVolume,
            ][strategy];
            let mode = if seed % 8 < 4 {
                CombineMode::Convolution
            } else {
                CombineMode::AdditiveSigma
            };
            let leaves = shaped_leaves(shape, n, seed);
            if inner == 0 {
                let cost = SplitCost::from_items(strategy, mode, &leaves);
                assert_matches_reference(&cost, &leaves, cap, &[1, 2, 3]);
            } else {
                let entries = inner_over(&leaves);
                let cost = SplitCost::from_items(strategy, mode, &entries);
                assert_matches_reference(&cost, &entries, cap, &[1, 2, 3]);
            }
        }
    }

    #[test]
    fn forked_partition_matches_the_per_split_argsort() {
        // Three times the fork floor, so 2, 3 and 8 threads fork at the
        // first splits and sort the columns on several workers, on every
        // shape (ties, d27 histograms with their long runs of empty bins,
        // distinct keys), as leaf entries and as inner entries.
        let n = 3 * PARALLEL_TASK_FLOOR + 5;
        for shape in 0..3 {
            let leaves = shaped_leaves(shape, n, 11);
            let entries = inner_over(&leaves);
            let mode = CombineMode::Convolution;
            let cost = SplitCost::from_items(SplitStrategy::HullIntegral, mode, &leaves);
            assert_matches_reference(&cost, &leaves, 60, &[1, 2, 3, 8]);
            let cost = SplitCost::from_items(SplitStrategy::HullIntegral, mode, &entries);
            assert_matches_reference(&cost, &entries, 60, &[1, 2, 3, 8]);
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
