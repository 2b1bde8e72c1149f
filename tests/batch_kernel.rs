//! Property-based contracts of the columnar leaf kernels.
//!
//! The columnar read path (`pfv::batch::log_densities`, the fused hull
//! sweep, the tree's decoded-node cache) promises results **bit-identical**
//! to the scalar per-entry path it replaced. These properties pin that
//! contract down across random databases, both [`CombineMode`]s, and
//! underflow-to-`-inf` regimes — any reassociation or "faster math" snuck
//! into the kernel fails here immediately.
//!
//! The screen tier (`pfv::batch::screen_densities`) promises the opposite
//! kind of thing: bounds, not answers. Its properties are that no bound
//! ever compares below the exact density, that nothing it drops — a lane,
//! a block or a whole leaf — could have reached the threshold, and that
//! k-MLIQ through it returns exactly what brute force returns.
//!
//! Inner nodes have the same two tiers (`pfv::rects`): exact hull bounds
//! from columns, bit-identical to `ParamRect`'s, and a screen whose
//! bracket `(low, key)` must hold the exact upper hull between its ends —
//! tested on every Lemma-2 case boundary, where the seven cases meet, and
//! where `σ²`, `dist²` or `Σ z²` overflow. An inner page stores its
//! rectangles rounded outward to `f32` (`pfv::quant::round_outward`), with
//! `±∞` beyond the `f32` range; both bounds, the bracket and the split
//! costs must hold on such rectangles too.

use gausstree::pfv::batch::{
    log_densities, log_densities_upper, screen_densities, ColumnarLeaf, FastScratch, LANE_WIDTH,
};
use gausstree::pfv::{combine, quant, ColumnarRects, CombineMode, DimBounds, ParamRect, Pfv};
use gausstree::storage::{AccessStats, MemStore, PageId, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gausstree::tree::node::InnerEntry;
use gausstree::tree::split::{group_rect, split_items, SplitCost};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, SplitStrategy, TreeConfig};
use gausstree::workloads::{generate_queries, uniform_dataset, SigmaSpec};
use proptest::prelude::*;

const MODES: [CombineMode; 2] = [CombineMode::Convolution, CombineMode::AdditiveSigma];

/// Strategy: a leaf of `n` pfv with `dims` dimensions plus one query, with
/// a mean spread wide enough to hit deep-underflow joint densities.
fn leaf_and_query(
    max_n: usize,
    max_dims: usize,
    mean_scale: f64,
) -> impl Strategy<Value = (Vec<Pfv>, Pfv)> {
    (1..=max_dims).prop_flat_map(move |dims| {
        let entry = (
            prop::collection::vec(-mean_scale..mean_scale, dims),
            prop::collection::vec(1e-6..5.0f64, dims),
        );
        let entries = prop::collection::vec(entry, 1..=max_n);
        let query = (
            prop::collection::vec(-mean_scale..mean_scale, dims),
            prop::collection::vec(1e-6..5.0f64, dims),
        );
        (entries, query).prop_map(|(vs, q)| {
            let leaf: Vec<Pfv> = vs
                .into_iter()
                .map(|(m, s)| Pfv::new(m, s).unwrap())
                .collect();
            (leaf, Pfv::new(q.0, q.1).unwrap())
        })
    })
}

/// Where the query of a screen case sits relative to the leaf.
#[derive(Debug, Clone, Copy)]
enum QueryAt {
    /// A re-observation of one entry, a few σ away.
    Near,
    /// Anywhere in the leaf's bounding box.
    Far,
    /// Every mean at `1e200`: `z²` overflows against ordinary entries.
    Astronomic,
}

/// Strategy: a ragged leaf and a query for the screen tier. `dims` covers
/// the tiny, the paper's two, a wide one and one past the 512-factor
/// re-fold of the mantissa product; σ is log-uniform over a case-chosen
/// slice of `[1e-9, 1e150]`; means live on a case-chosen scale.
fn screen_case() -> impl Strategy<Value = (Vec<Pfv>, Pfv)> {
    let dims = prop_oneof![
        3 => Just(1usize), 3 => Just(2usize), 3 => Just(10usize),
        3 => Just(27usize), 2 => Just(64usize), 1 => Just(600usize),
    ];
    let sigma_decades = prop_oneof![
        Just((-9.0, 150.0)),
        Just((-2.5, 0.5)),
        Just((-9.0, -6.0)),
        Just((100.0, 150.0)),
    ];
    let mean_scale = prop_oneof![Just(1.0), Just(1e4), Just(1e155), Just(1e200)];
    let query_at = prop_oneof![
        3 => Just(QueryAt::Near), 3 => Just(QueryAt::Far), 1 => Just(QueryAt::Astronomic),
    ];
    (dims, sigma_decades, mean_scale, query_at, 1usize..=21).prop_flat_map(
        |(dims, (lo, hi), scale, at, n)| {
            let pfv = move || {
                (
                    prop::collection::vec(-1.0..1.0f64, dims),
                    prop::collection::vec(lo..hi, dims),
                )
            };
            (prop::collection::vec(pfv(), n), pfv(), 0..n).prop_map(move |(vs, q, pick)| {
                let build = |(m, s): &(Vec<f64>, Vec<f64>)| {
                    let means: Vec<f64> = m.iter().map(|x| x * scale).collect();
                    let sigmas: Vec<f64> = s.iter().map(|&x| 10f64.powf(x)).collect();
                    Pfv::new(means, sigmas).unwrap()
                };
                let leaf: Vec<Pfv> = vs.iter().map(build).collect();
                let drawn = build(&q);
                let means: Vec<f64> = match at {
                    QueryAt::Far => drawn.means().to_vec(),
                    QueryAt::Astronomic => vec![1e200; dims],
                    QueryAt::Near => {
                        let (mu, sigma) = (leaf[pick].means(), leaf[pick].sigmas());
                        (mu.iter().zip(sigma).zip(&q.0))
                            .map(|((m, s), x)| m + 3.0 * s * x)
                            .collect()
                    }
                };
                (leaf, Pfv::new(means, drawn.sigmas().to_vec()).unwrap())
            })
        },
    )
}

/// The screen contract `!(hi < want)`: a NaN on either side never compares
/// below.
fn never_below(hi: f64, want: f64) -> bool {
    hi.is_nan() || want.is_nan() || hi >= want
}

/// Thresholds worth screening `exact` against: each density itself, a
/// hair above and below it, and the ends of the line.
fn thresholds(exact: &[f64]) -> Vec<f64> {
    let mut out = vec![f64::NEG_INFINITY, f64::INFINITY, f64::MAX, f64::MIN, 0.0];
    for &x in exact {
        out.extend([x, x + 1e-9 * (1.0 + x.abs()), x - 1e-9 * (1.0 + x.abs())]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// No screen-tier bound ever compares below the exact density — with
    /// or without a threshold, whether the lane ran to its own `ln` or was
    /// abandoned on a dimension prefix — and a leaf the screen reports
    /// empty holds nothing that reaches the threshold.
    #[test]
    fn screen_never_drops_what_reaches_the_threshold((leaf, q) in screen_case()) {
        let columnar = ColumnarLeaf::from_pfvs(q.dims(), leaf.iter());
        let mut exact = vec![0.0f64; leaf.len()];
        let mut fast = FastScratch::new();
        for mode in MODES {
            log_densities(mode, &q, &columnar, &mut exact);
            log_densities_upper(mode, &q, &columnar, &mut fast);
            prop_assert_eq!(fast.upper().len(), columnar.padded_len());
            for (e, &want) in exact.iter().enumerate() {
                let hi = fast.upper()[e];
                prop_assert!(never_below(hi, want), "bound {hi} under exact {want} (entry {e}, {mode:?})");
            }
            for threshold in thresholds(&exact) {
                let alive = screen_densities(mode, &q, &columnar, threshold, &mut fast);
                for (e, &want) in exact.iter().enumerate() {
                    let hi = fast.upper()[e];
                    prop_assert!(never_below(hi, want), "bound {hi} under exact {want} (entry {e}, {mode:?})");
                    if !alive || hi < threshold {
                        prop_assert!(
                            want < threshold,
                            "dropped entry {e} with exact {want} at threshold {threshold} ({mode:?})"
                        );
                    }
                }
            }
        }
    }

    /// Padding lanes never keep a leaf alive: a ragged leaf screens exactly
    /// like the same leaf filled up to the lane width with real copies of
    /// its last entry — same bounds for the shared entries, same verdict.
    #[test]
    fn padding_lanes_never_keep_a_leaf_alive((leaf, q) in screen_case()) {
        let mut filled = leaf.clone();
        filled.resize(leaf.len().next_multiple_of(LANE_WIDTH), leaf[leaf.len() - 1].clone());
        let ragged = ColumnarLeaf::from_pfvs(q.dims(), leaf.iter());
        let full = ColumnarLeaf::from_pfvs(q.dims(), filled.iter());
        let mut exact = vec![0.0f64; leaf.len()];
        let (mut fr, mut ff) = (FastScratch::new(), FastScratch::new());
        for mode in MODES {
            log_densities(mode, &q, &ragged, &mut exact);
            for threshold in thresholds(&exact) {
                let alive_ragged = screen_densities(mode, &q, &ragged, threshold, &mut fr);
                let alive_full = screen_densities(mode, &q, &full, threshold, &mut ff);
                prop_assert_eq!(alive_ragged, alive_full);
                for e in 0..leaf.len() {
                    prop_assert_eq!(fr.upper()[e].to_bits(), ff.upper()[e].to_bits());
                }
            }
        }
    }
}

/// A xorshift stream of uniform values in `[0, 1)`.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One inner node's worth of rectangles and a query's `σ`s: `dims` from
/// the tiny to past the paper's two, σ log-uniform over a slice of
/// `[1e-9, 1e150]` or up to `1.4e154` (where `σ²` overflows), means on a
/// scale up to `1e200`, μ-intervals that are points or wide, σ-intervals
/// that are points or span decades. Returns the seed the query's means are
/// drawn from, and which rectangle they sit on.
fn hull_case() -> impl Strategy<Value = (Vec<ParamRect>, Vec<f64>, usize, u64)> {
    const DIMS: [usize; 5] = [1, 2, 10, 27, 64];
    const SIGMA_DECADES: [(f64, f64); 5] = [
        (-9.0, 150.0),
        (-2.5, 0.5),
        (-9.0, -6.0),
        (100.0, 150.0),
        (150.0, 154.15),
    ];
    const MEAN_SCALES: [f64; 4] = [1.0, 1e4, 1e155, 1e200];
    (0usize..5, 0usize..5, 0usize..4, 1usize..=13, 0u64..u64::MAX).prop_map(
        |(dims, sigmas, scale, n, seed)| {
            let (dims, (lo, hi), scale) = (DIMS[dims], SIGMA_DECADES[sigmas], MEAN_SCALES[scale]);
            let mut next = uniform(seed);
            let sigma = move |u: f64| 10f64.powf(lo + (hi - lo) * u);
            let rects = (0..n)
                .map(|_| {
                    let bounds = (0..dims)
                        .map(|_| {
                            let mu = scale * (2.0 * next() - 1.0);
                            let width =
                                [0.0, scale * next(), sigma(next())][(next() * 3.0) as usize];
                            let s_lo = sigma(next());
                            let s_hi = match (next() * 4.0) as usize {
                                0 => s_lo,
                                1 => 1.4e154f64.max(s_lo),
                                _ => s_lo.max(sigma(next())),
                            };
                            DimBounds::new(mu, mu + width, s_lo, s_hi)
                        })
                        .collect();
                    ParamRect::from_dims(bounds)
                })
                .collect();
            let q_sigmas = (0..dims).map(|_| sigma(next())).collect();
            (
                rects,
                q_sigmas,
                (next() * n as f64) as usize,
                next().to_bits(),
            )
        },
    )
}

/// A query on `rect`'s Lemma-2 case boundaries under `mode` — per
/// dimension one of `μ̌ − ŝ, μ̌ − s̃, μ̌, μ̂, μ̂ + s̃, μ̂ + ŝ` (the combined
/// σ-interval `[s̃, ŝ]`), moved by −1, 0 or +1 ulp — or at `±1e200`.
fn query_on_boundaries(rect: &ParamRect, sigmas: &[f64], mode: CombineMode, seed: u64) -> Pfv {
    let mut next = uniform(seed);
    let means: Vec<f64> = (rect.as_slice().iter().zip(sigmas))
        .map(|(b, &sq)| {
            let (s_lo, s_hi) = (
                mode.combine_sigma(b.sigma_lo, sq),
                mode.combine_sigma(b.sigma_hi, sq),
            );
            let edges = [
                b.mu_lo - s_hi,
                b.mu_lo - s_lo,
                b.mu_lo,
                b.mu_hi,
                b.mu_hi + s_lo,
                b.mu_hi + s_hi,
            ];
            let x = edges[(next() * 6.0) as usize];
            let x = match (next() * 8.0) as usize {
                0 => 1e200,
                1 => -1e200,
                2 | 3 => x.next_up(),
                4 | 5 => x.next_down(),
                _ => x,
            };
            if x.is_finite() {
                x
            } else {
                1e200
            }
        })
        .collect();
    Pfv::new(means, sigmas.to_vec()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The inner screen's bracket holds the exact upper hull — `!(key <
    /// exact)` and `!(low > exact)` (`never_below` both ways), `key` never
    /// NaN — for every child, with
    /// the query on any child's case boundaries; and the columns' exact
    /// kernel is the row form's, bit for bit.
    #[test]
    fn inner_screen_brackets_the_exact_upper_hull((rects, sigmas, pick, seed) in hull_case()) {
        let dims = sigmas.len();
        let cols = ColumnarRects::from_rects(dims, rects.iter());
        let mut brackets = Vec::new();
        for mode in MODES {
            let q = query_on_boundaries(&rects[pick], &sigmas, mode, seed);
            cols.screen_upper_for_query(&q, mode, &mut brackets);
            prop_assert_eq!(brackets.len(), rects.len());
            for (e, (rect, &(low, key))) in rects.iter().zip(&brackets).enumerate() {
                let exact = rect.log_upper_for_query(&q, mode);
                prop_assert_eq!(cols.log_upper_for_query(e, &q, mode).to_bits(), exact.to_bits());
                prop_assert!(!key.is_nan(), "NaN key (child {e}, {mode:?})");
                prop_assert!(never_below(key, exact), "key {key} under exact {exact} (child {e}, {mode:?})");
                prop_assert!(never_below(exact, low), "low {low} over exact {exact} (child {e}, {mode:?})");
            }
        }
    }
}

/// Members of a few inner entries and the queries to price them for: `dims`
/// from 1 to the paper's two and beyond, μ on a scale of 1, 1e4, 1e155 or
/// 1e200 (past `f32::MAX`, so rounded μ bounds go `±∞`), σ log-uniform
/// over a slice of `[1e-9, 1e150]` with a share at the `MIN_SIGMA` clamp
/// (past `f32::MAX`, so rounded `σ̂` goes `+∞`). Queries sit on a member,
/// anywhere on the scale, or at `±1e200`.
fn rounding_case() -> impl Strategy<Value = (Vec<Vec<Pfv>>, Vec<Pfv>)> {
    const DIMS: [usize; 5] = [1, 2, 10, 27, 64];
    const SIGMA_DECADES: [(f64, f64); 4] =
        [(-9.0, 150.0), (-2.5, 0.5), (-9.0, -6.0), (30.0, 150.0)];
    const MEAN_SCALES: [f64; 4] = [1.0, 1e4, 1e155, 1e200];
    (0usize..5, 0usize..4, 0usize..4, 1usize..=6, 0u64..u64::MAX).prop_map(
        |(dims, sigmas, scale, n, seed)| {
            let (dims, (lo, hi), scale) = (DIMS[dims], SIGMA_DECADES[sigmas], MEAN_SCALES[scale]);
            let mut next = uniform(seed);
            let pfv = |next: &mut dyn FnMut() -> f64| {
                let means: Vec<f64> = (0..dims).map(|_| scale * (2.0 * next() - 1.0)).collect();
                let sigmas: Vec<f64> = (0..dims)
                    .map(|_| {
                        if next() < 0.2 {
                            1e-9
                        } else {
                            10f64.powf(lo + (hi - lo) * next())
                        }
                    })
                    .collect();
                Pfv::new(means, sigmas).unwrap()
            };
            let groups: Vec<Vec<Pfv>> = (0..3)
                .map(|_| (0..n).map(|_| pfv(&mut next)).collect())
                .collect();
            let mut queries: Vec<Pfv> = (0..2).map(|_| pfv(&mut next)).collect();
            let member = &groups[(next() * 3.0) as usize][(next() * n as f64) as usize];
            queries.push(Pfv::new(member.means().to_vec(), queries[0].sigmas().to_vec()).unwrap());
            let far = if next() < 0.5 { 1e200 } else { -1e200 };
            queries.push(Pfv::new(vec![far; dims], queries[1].sigmas().to_vec()).unwrap());
            (groups, queries)
        },
    )
}

/// `rect` as an inner page stores it.
fn rounded(rect: &ParamRect) -> ParamRect {
    ParamRect::from_dims(rect.as_slice().iter().map(quant::rounded_outward).collect())
}

/// `ln p(q|v)` and the sum of its per-dimension terms' magnitudes: what
/// rounding can move a sum of them by is a small share of the latter.
fn joint_and_scale(mode: CombineMode, v: &Pfv, q: &Pfv) -> (f64, f64) {
    let scale: f64 = (0..v.dims())
        .map(|i| {
            let ((mv, sv), (mq, sq)) = (v.component(i), q.component(i));
            combine::log_joint_1d(mode, mv, sv, mq, sq).abs()
        })
        .filter(|t| t.is_finite())
        .sum();
    (combine::log_joint(mode, v, q), scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Outward rounding keeps Lemmas 2–3 conservative: the rounded
    /// rectangle contains the exact one; its `ln N̂` is at or above, and its
    /// `ln Ň` at or below, the density of every member (up to the rounding
    /// of the sums, and a member at `−∞` has a lower bound at `−∞`); the
    /// screen's bracket holds its exact bound on rounded columns; and no
    /// bound and no split cost is NaN — with bounds at `±∞`.
    #[test]
    fn outward_rounding_keeps_lemmas_2_and_3_conservative((groups, queries) in rounding_case()) {
        let dims = queries[0].dims();
        let exact: Vec<ParamRect> = groups.iter().map(|g| ParamRect::covering(g.iter())).collect();
        let stored: Vec<ParamRect> = exact.iter().map(rounded).collect();
        for (e, s) in exact.iter().zip(&stored) {
            prop_assert!(s.contains_rect(e), "{s:?} misses {e:?}");
            prop_assert_eq!(&rounded(s), s, "rounding is idempotent");
        }
        let cols = ColumnarRects::from_rects(dims, stored.iter());
        let mut brackets = Vec::new();
        for mode in MODES {
            for q in &queries {
                cols.screen_upper_for_query(q, mode, &mut brackets);
                for (e, (rect, members)) in stored.iter().zip(&groups).enumerate() {
                    let (up, lo) = rect.log_bounds_for_query(q, mode);
                    prop_assert!(!up.is_nan() && !lo.is_nan(), "NaN bound ({mode:?}): {up} {lo}");
                    prop_assert_eq!(cols.log_upper_for_query(e, q, mode).to_bits(), up.to_bits());
                    let (low, key) = brackets[e];
                    prop_assert!(!key.is_nan(), "NaN key (child {e}, {mode:?})");
                    prop_assert!(never_below(key, up) && never_below(up, low), "{low} {up} {key}");
                    for v in members {
                        let (j, scale) = joint_and_scale(mode, v, q);
                        let slack = 1e-12 * (1.0 + scale);
                        prop_assert!(
                            j == f64::NEG_INFINITY || up >= j - slack,
                            "ln N̂ {up} under member {j} ({mode:?})"
                        );
                        prop_assert!(
                            lo == f64::NEG_INFINITY || (j > f64::NEG_INFINITY && lo <= j + slack),
                            "ln Ň {lo} over member {j} ({mode:?})"
                        );
                    }
                }
            }
            // Split costs of stored rectangles, of their union and of the
            // objective a node split takes from stored entries.
            let entries: Vec<InnerEntry> = stored
                .iter()
                .enumerate()
                .map(|(i, rect)| InnerEntry { child: PageId(i as u64 + 2), count: 1, rect: rect.clone() })
                .collect();
            let costs = [
                SplitCost::from_items(SplitStrategy::HullIntegral, mode, &entries),
                SplitCost::at_spread(SplitStrategy::HullIntegral, mode, &vec![0.0; dims]),
                SplitCost::at_spread(SplitStrategy::HullIntegral, mode, queries[0].sigmas()),
                SplitCost::from_items(SplitStrategy::MinVolume, mode, &entries),
                SplitCost::from_items(SplitStrategy::WidestMu, mode, &entries),
            ];
            for cost in &costs {
                for rect in stored.iter().chain([&group_rect(&entries)]) {
                    let c = cost.node(rect);
                    prop_assert!(!c.is_nan(), "NaN split cost {cost:?} of {rect:?}");
                }
                let out = split_items(cost, entries.clone());
                prop_assert_eq!(out.left.len() + out.right.len(), entries.len());
            }
        }
    }
}

/// The screen must actually screen: on an ordinary leaf a threshold above
/// every density empties the leaf, one below every density keeps it, and a
/// leaf of far-away entries is left on the peak bounds or a short prefix.
#[test]
fn screen_abandons_whole_leaves() {
    let dataset = uniform_dataset(37, 10, SigmaSpec::log_uniform(0.005, 0.3), 11);
    let leaf = ColumnarLeaf::from_pfvs(10, dataset.objects.iter());
    let q = generate_queries(&dataset, 1, SigmaSpec::uniform(0.01, 0.02), 3)
        .remove(0)
        .query;
    let mut exact = vec![0.0f64; leaf.len()];
    let mut fast = FastScratch::new();
    for mode in MODES {
        log_densities(mode, &q, &leaf, &mut exact);
        let best = exact.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let worst = exact.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(!screen_densities(mode, &q, &leaf, best + 1.0, &mut fast));
        assert!(fast.upper()[..leaf.len()].iter().all(|&hi| hi < best + 1.0));
        assert!(screen_densities(mode, &q, &leaf, worst, &mut fast));
        assert!(fast.upper()[..leaf.len()].iter().all(|&hi| hi >= worst));
        // At the best density exactly, its entry survives (ties refine).
        assert!(screen_densities(mode, &q, &leaf, best, &mut fast));
        let kept = (0..leaf.len()).filter(|&e| fast.upper()[e] >= best).count();
        assert!(
            (1..leaf.len()).contains(&kept),
            "kept {kept} of {}",
            leaf.len()
        );
    }
}

/// Entries and query both at `1e200`: every real lane is finite and a
/// `+∞` threshold rules it out, so the leaf must come back empty however
/// the padding lanes of the ragged tail fare against that query.
#[test]
fn astronomic_leaf_with_ragged_tail_is_still_abandoned() {
    let vs: Vec<Pfv> = (0..5)
        .map(|i| Pfv::new(vec![1e200 + f64::from(i) * 1e185; 3], vec![1e184; 3]).unwrap())
        .collect();
    let leaf = ColumnarLeaf::from_pfvs(3, vs.iter());
    let q = Pfv::new(vec![1e200; 3], vec![1e184; 3]).unwrap();
    let mut fast = FastScratch::new();
    for mode in MODES {
        assert!(!screen_densities(mode, &q, &leaf, f64::INFINITY, &mut fast));
        assert!(fast.upper()[..5].iter().all(|hi| hi.is_finite()));
    }
}

/// k-MLIQ through the threshold-fed screen on a bulk-loaded 5 000 × d10
/// tree: ids and densities bit-identical to brute force under the total
/// `(density desc, id asc)` order, for k below, at and above a leaf's worth.
#[test]
fn tree_k_mliq_bit_identical_to_brute_force() {
    let sigma = SigmaSpec::log_uniform(0.005, 0.3).with_object_scale(0.5, 3.0);
    let dataset = uniform_dataset(5000, 10, sigma, 2006);
    let queries = generate_queries(&dataset, 24, SigmaSpec::uniform(0.01, 0.02), 14);
    for mode in MODES {
        let pool = SharedBufferPool::new(
            MemStore::new(DEFAULT_PAGE_SIZE),
            4096,
            AccessStats::new_shared(),
        );
        let config = TreeConfig::new(10).with_combine(mode);
        let tree = GaussTree::bulk_load(pool, config, dataset.items()).unwrap();
        for q in &queries {
            let mut brute: Vec<(f64, u64)> = (dataset.objects.iter().zip(0u64..))
                .map(|(v, id)| (combine::log_joint(mode, v, &q.query), id))
                .collect();
            brute.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            for k in [1usize, 5, 50] {
                let hits = tree.k_mliq(&q.query, k).unwrap();
                assert_eq!(hits.len(), k);
                for (hit, want) in hits.iter().zip(&brute) {
                    assert_eq!(hit.id, want.1, "k={k} {mode:?}");
                    assert_eq!(
                        hit.log_density.to_bits(),
                        want.0.to_bits(),
                        "k={k} {mode:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The batched kernel reproduces the scalar Gaussian path bit-for-bit
    /// for every entry, in both combine modes.
    #[test]
    fn batched_log_densities_bit_identical((leaf, q) in leaf_and_query(40, 6, 50.0)) {
        let columnar = ColumnarLeaf::from_pfvs(q.dims(), leaf.iter());
        let mut out = vec![f64::NAN; leaf.len()];
        for mode in MODES {
            log_densities(mode, &q, &columnar, &mut out);
            for (v, &got) in leaf.iter().zip(out.iter()) {
                let want = combine::log_joint(mode, v, &q);
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    /// Same contract under extreme mean spreads, where z² overflows and the
    /// per-entry density underflows to `-inf`: the batched kernel must
    /// underflow on exactly the same entries to exactly the same bits.
    #[test]
    fn batched_underflow_matches_scalar((leaf, q) in leaf_and_query(20, 4, 1e170)) {
        let columnar = ColumnarLeaf::from_pfvs(q.dims(), leaf.iter());
        let mut out = vec![0.0f64; leaf.len()];
        let mut saw_underflow = false;
        for mode in MODES {
            log_densities(mode, &q, &columnar, &mut out);
            for (v, &got) in leaf.iter().zip(out.iter()) {
                let want = combine::log_joint(mode, v, &q);
                prop_assert_eq!(got.to_bits(), want.to_bits());
                saw_underflow |= got == f64::NEG_INFINITY;
            }
        }
        // Not an assertion (tiny leaves can stay finite), but with means up
        // to ±1e170 most cases underflow; keep the variable used.
        let _ = saw_underflow;
    }

    /// The fused hull sweep prices children bit-identically to the split
    /// upper/lower calls.
    #[test]
    fn fused_hull_bounds_bit_identical((leaf, q) in leaf_and_query(20, 4, 50.0)) {
        // The leaf's bounding rectangle and each entry's point rectangle,
        // also as the columns of one inner node.
        let rects: Vec<ParamRect> = std::iter::once(ParamRect::covering(leaf.iter()))
            .chain(leaf.iter().map(ParamRect::from_pfv))
            .collect();
        let cols = ColumnarRects::from_rects(q.dims(), rects.iter());
        let mut each = Vec::new();
        for mode in MODES {
            cols.log_bounds_for_query_each(&q, mode, &mut each);
            prop_assert_eq!(each.len(), rects.len());
            for (e, (rect, &(col_up, col_lo))) in rects.iter().zip(&each).enumerate() {
                let (up, lo) = rect.log_bounds_for_query(&q, mode);
                prop_assert_eq!(up.to_bits(), rect.log_upper_for_query(&q, mode).to_bits());
                prop_assert_eq!(lo.to_bits(), rect.log_lower_for_query(&q, mode).to_bits());
                prop_assert_eq!(col_up.to_bits(), up.to_bits());
                prop_assert_eq!(col_lo.to_bits(), lo.to_bits());
                prop_assert_eq!(cols.log_upper_for_query(e, &q, mode).to_bits(), up.to_bits());
            }
        }
    }

    /// End-to-end: k-MLIQ through the columnar read path returns the same
    /// ids with bit-identical log densities as the scalar per-entry
    /// evaluation of the same database — i.e. the refactor changed the
    /// memory layout, not a single result bit.
    #[test]
    fn tree_query_densities_bit_identical_to_scalar(
        (db, q) in leaf_and_query(60, 3, 50.0),
        k in 1usize..8,
    ) {
        for mode in MODES {
            let config = TreeConfig::new(db[0].dims())
                .with_capacities(4, 3)
                .with_combine(mode);
            let pool = SharedBufferPool::new(MemStore::new(4096), 4096, AccessStats::new_shared());
            let mut tree = GaussTree::create(pool, config).unwrap();
            for (i, v) in db.iter().enumerate() {
                tree.insert(i as u64, v).unwrap();
            }
            for hit in tree.k_mliq(&q, k).unwrap() {
                let want = combine::log_joint(mode, &db[hit.id as usize], &q);
                prop_assert_eq!(hit.log_density.to_bits(), want.to_bits());
            }
        }
    }
}
