//! Property-based contracts of the quantised leaf format.
//!
//! `LeafFormat::Quantised` rounds every `μ`/`σ` to `f32` **once at
//! ingest** and stores the widened `f64`, so the tree remains exact over
//! its stored parameters. These properties pin the consequences down:
//!
//! * the quantised tree's k-MLIQ answers equal a brute-force scan of the
//!   *rounded* database — the two-tier leaf screen and the hull pruning
//!   never drop a true result, in either [`CombineMode`], including the
//!   deep-underflow regime of astronomically spread means;
//! * on already-`f32`-exact data, an exact-format and a quantised-format
//!   tree return bit-identical k-MLIQ densities and identical TIQ id
//!   sets — compression changes the leaf bytes, not one result bit — and
//!   at page-derived capacities the quantised tree does so from fewer
//!   pages and fewer physical reads;
//! * the `pfv::quant` helpers round in pinned directions: widening is a
//!   fixpoint, σ never lands below the floor, and the outward interval
//!   always brackets the original pre-rounding value.

use gausstree::pfv::{combine, quant, CombineMode, Pfv};
use gausstree::storage::{AccessStats, MemStore, SharedBufferPool};
use gausstree::tree::{GaussTree, LeafFormat, ReadView, TreeConfig};
use gausstree::workloads::{generate_query_batch, uniform_dataset, SigmaSpec};
use proptest::prelude::*;

const MODES: [CombineMode; 2] = [CombineMode::Convolution, CombineMode::AdditiveSigma];
const MIN_SIGMA: f64 = 1e-9;

/// Strategy: a database of up to `max_n` pfv with up to `max_dims`
/// dimensions plus one query, means spread over `±mean_scale`.
fn db_and_query(
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
            let db: Vec<Pfv> = vs
                .into_iter()
                .map(|(m, s)| Pfv::new(m, s).unwrap())
                .collect();
            (db, Pfv::new(q.0, q.1).unwrap())
        })
    })
}

/// The stored form of `v` in a quantised tree: every parameter rounded
/// through the checked quantisers and widened back.
fn stored_pfv(v: &Pfv) -> Pfv {
    let means: Vec<f64> = v
        .means()
        .iter()
        .map(|&m| f64::from(quant::quantise_mu(m).expect("mean in f32 range")))
        .collect();
    let sigmas: Vec<f64> = v
        .sigmas()
        .iter()
        .map(|&s| f64::from(quant::quantise_sigma(s).expect("sigma in f32 range")))
        .collect();
    Pfv::new(means, sigmas).unwrap()
}

/// Ground truth: top-k of `db` by `(log density desc, id asc)` — the same
/// total order the tree's candidate heap uses, so comparisons are exact
/// even on tied (e.g. `-inf`) densities.
fn brute_force_ranked(db: &[Pfv], q: &Pfv, mode: CombineMode) -> Vec<(u64, f64)> {
    let mut all: Vec<(u64, f64)> = db
        .iter()
        .enumerate()
        .map(|(id, v)| (id as u64, combine::log_joint(mode, v, q)))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    all
}

/// Builds a small-fanout tree of the given leaf format over `db`
/// (ids are the db indices) so every query has real hull pruning to do.
fn build_tree(db: &[Pfv], mode: CombineMode, format: LeafFormat) -> GaussTree<MemStore> {
    let config = TreeConfig::new(db[0].dims())
        .with_capacities(4, 3)
        .with_combine(mode)
        .with_leaf_format(format);
    let pool = SharedBufferPool::new(MemStore::new(4096), 4096, AccessStats::new_shared());
    let mut tree = GaussTree::create(pool, config).unwrap();
    for (i, v) in db.iter().enumerate() {
        tree.insert(i as u64, v).unwrap();
    }
    tree
}

/// Asserts a k-MLIQ result is a true top-k of `db` (whose entry ids are
/// the indices): every hit is honest (its density recomputes bitwise
/// from its id), the density multiset equals the brute-force top-k, and
/// — when those top-k densities are pairwise distinct — the ids match
/// exactly. On ties (e.g. several entries underflowed to `-inf`) any of
/// the tied objects is a correct answer, so ids are not compared then.
/// (The shimmed `prop_assert` is a panic, so a plain helper composes
/// fine with the `proptest!` harness.)
fn assert_true_top_k(
    hits: &[gausstree::tree::MliqResult],
    db: &[Pfv],
    q: &Pfv,
    k: usize,
    mode: CombineMode,
) {
    let ranked = brute_force_ranked(db, q, mode);
    let want = &ranked[..k.min(ranked.len())];
    assert_eq!(hits.len(), want.len());
    let mut got: Vec<(u64, f64)> = hits.iter().map(|h| (h.id, h.log_density)).collect();
    got.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut seen = std::collections::HashSet::new();
    for &(id, d) in &got {
        assert!(seen.insert(id), "duplicate id {id} in k-MLIQ result");
        let exact = combine::log_joint(mode, &db[usize::try_from(id).unwrap()], q);
        assert_eq!(
            d.to_bits(),
            exact.to_bits(),
            "returned density is not the stored entry's exact density"
        );
    }
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "k-MLIQ density multiset diverged from brute force"
        );
    }
    // Ids are only pinned when no tie is in play — within the top k, or
    // straddling the k-boundary (a tied runner-up is interchangeable with
    // the kth hit).
    let boundary = &ranked[..(want.len() + 1).min(ranked.len())];
    let distinct = boundary
        .windows(2)
        .all(|w| w[0].1.to_bits() != w[1].1.to_bits());
    if distinct {
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.0, w.0, "k-MLIQ id diverged from brute force");
        }
    }
}

/// At page-derived capacities the 88-byte entries pack more objects per
/// leaf than the 168-byte ones, so on the same pre-rounded d10 data the
/// quantised tree answers identically from fewer pages and — behind a
/// pool far smaller than either tree — fewer physical reads.
#[test]
fn quantised_format_reads_fewer_pages_for_identical_answers() {
    let dims = 10;
    let sigma = SigmaSpec::log_uniform(0.005, 0.3);
    let data = uniform_dataset(3000, dims, sigma, 2006);
    let stored: Vec<(u64, Pfv)> = data
        .items()
        .into_iter()
        .map(|(id, v)| (id, stored_pfv(&v)))
        .collect();
    let queries = generate_query_batch(&data, 16, sigma, 7);

    // Per format: pages allocated, physical reads of the cold workload,
    // and every answer as (id, density bits) / sorted TIQ ids.
    let run = |format: LeafFormat| {
        let pool = SharedBufferPool::new(MemStore::new(8192), 32, AccessStats::new_shared());
        let config = TreeConfig::new(dims).with_leaf_format(format);
        let tree = GaussTree::bulk_load(pool, config, stored.iter().cloned()).unwrap();
        tree.cold_start();
        let before = tree.stats().snapshot();
        let mut answers = Vec::new();
        for q in &queries {
            let mliq: Vec<(u64, u64)> = tree
                .k_mliq(q, 3)
                .unwrap()
                .iter()
                .map(|h| (h.id, h.log_density.to_bits()))
                .collect();
            let mut tiq: Vec<u64> = tree
                .tiq_anytime(q, 0.2)
                .unwrap()
                .iter()
                .map(|r| r.id)
                .collect();
            tiq.sort_unstable();
            answers.push((mliq, tiq));
        }
        let reads = tree.stats().snapshot().since(&before).physical_reads;
        (tree.pool().num_pages(), reads, answers)
    };
    let (exact_pages, exact_reads, exact_answers) = run(LeafFormat::Exact);
    let (quant_pages, quant_reads, quant_answers) = run(LeafFormat::Quantised);

    assert_eq!(exact_answers, quant_answers);
    assert!(quant_pages < exact_pages, "{quant_pages} vs {exact_pages}");
    assert!(quant_reads < exact_reads, "{quant_reads} vs {exact_reads}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The quantised tree never prunes a true result: its k-MLIQ equals a
    /// brute-force scan over the rounded database, in both combine modes.
    #[test]
    fn quantised_tree_matches_brute_force(
        (db, q) in db_and_query(60, 3, 50.0),
        k in 1usize..8,
    ) {
        let stored: Vec<Pfv> = db.iter().map(stored_pfv).collect();
        for mode in MODES {
            let tree = build_tree(&db, mode, LeafFormat::Quantised);
            let hits = tree.k_mliq(&q, k).unwrap();
            assert_true_top_k(&hits, &stored, &q, k, mode);
        }
    }

    /// Same contract under astronomically spread means (still inside f32
    /// range): joint densities underflow to huge negative magnitudes and
    /// the screen tiers run at the edge of their overflow guards — the
    /// quantised tree must still return exactly the brute-force answer.
    #[test]
    fn quantised_tree_survives_deep_underflow(
        (db, q) in db_and_query(30, 3, 1e30),
        k in 1usize..6,
    ) {
        let stored: Vec<Pfv> = db.iter().map(stored_pfv).collect();
        for mode in MODES {
            let tree = build_tree(&db, mode, LeafFormat::Quantised);
            let hits = tree.k_mliq(&q, k).unwrap();
            assert_true_top_k(&hits, &stored, &q, k, mode);
        }
    }

    /// Exact-format trees accept the full f64 range; with means up to
    /// ±1e170 the joint density reaches `-inf` and the fast screen tier's
    /// magnitude accumulator can overflow to a NaN bound. Neither regime
    /// may ever skip a true result — NaN bounds fail the `<` screen and
    /// fall through to exact refinement.
    #[test]
    fn exact_tree_screen_survives_underflow_and_nan(
        (db, q) in db_and_query(30, 3, 1e170),
        k in 1usize..6,
    ) {
        for mode in MODES {
            let tree = build_tree(&db, mode, LeafFormat::Exact);
            let hits = tree.k_mliq(&q, k).unwrap();
            assert_true_top_k(&hits, &db, &q, k, mode);
        }
    }

    /// On pre-rounded (f32-exact) data, compression is invisible to
    /// queries: an exact-format and a quantised-format tree built from
    /// the same stored parameters answer k-MLIQ with bit-identical
    /// densities and TIQ with identical id sets.
    #[test]
    fn formats_agree_on_prequantised_data(
        (db, q) in db_and_query(50, 3, 50.0),
        k in 1usize..8,
    ) {
        let stored: Vec<Pfv> = db.iter().map(stored_pfv).collect();
        for mode in MODES {
            let exact = build_tree(&stored, mode, LeafFormat::Exact);
            let quantised = build_tree(&stored, mode, LeafFormat::Quantised);
            let a = exact.k_mliq(&q, k).unwrap();
            let b = quantised.k_mliq(&q, k).unwrap();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.id, y.id);
                prop_assert_eq!(x.log_density.to_bits(), y.log_density.to_bits());
            }
            let mut ta: Vec<u64> =
                exact.tiq_anytime(&q, 0.2).unwrap().iter().map(|r| r.id).collect();
            let mut tb: Vec<u64> =
                quantised.tiq_anytime(&q, 0.2).unwrap().iter().map(|r| r.id).collect();
            ta.sort_unstable();
            tb.sort_unstable();
            prop_assert_eq!(ta, tb);
        }
    }

    /// The quantisers' rounding directions are pinned: widening a
    /// quantised value is a fixpoint (so encode/decode round-trips
    /// bitwise), σ never lands below the floor, and the outward interval
    /// strictly brackets both the quantised and the original value.
    #[test]
    fn quantiser_round_trip_directions_pinned(
        m in -1e38..1e38f64,
        s in 1e-12..1e30f64,
    ) {
        let mq = quant::quantise_mu(m).unwrap();
        let wm = f64::from(mq);
        prop_assert!(quant::is_f32_exact(wm));
        prop_assert_eq!(quant::quantise_mu(wm), Some(mq));
        prop_assert_eq!(quant::to_f32_exact(wm).to_bits(), mq.to_bits());

        let sq = quant::quantise_sigma(s).unwrap();
        let ws = f64::from(sq);
        prop_assert!(ws >= MIN_SIGMA, "stored sigma {} below the floor", ws);
        prop_assert_eq!(quant::quantise_sigma(ws), Some(sq));

        let (lo, hi) = quant::widen_interval(mq);
        prop_assert!(lo < wm && wm < hi, "interval must round outward");
        prop_assert!(lo <= m && m <= hi, "original mean escaped the interval");

        let b = quant::outward_bounds(mq, sq);
        prop_assert!(b.mu_lo <= m && m <= b.mu_hi);
        prop_assert!(b.sigma_hi >= s.min(f64::from(f32::MAX)));
        prop_assert!(b.sigma_lo >= MIN_SIGMA);
    }
}
