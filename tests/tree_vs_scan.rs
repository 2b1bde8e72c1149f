//! Property-based equivalence: every Gauss-tree query must return exactly
//! what the §4 "general solution" computes over a brute-force scan, for
//! arbitrary databases, queries, thresholds and combine modes.

use gausstree::pfv::{self, CombineMode, Pfv};
use gausstree::storage::{AccessStats, MemStore, SharedBufferPool};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, TreeConfig};
use proptest::prelude::*;

/// Strategy: a database of `n` pfv with `dims` dimensions plus one query.
fn db_and_query(max_n: usize, max_dims: usize) -> impl Strategy<Value = (Vec<Pfv>, Pfv)> {
    (1..=max_dims).prop_flat_map(move |dims| {
        let pfv_strategy = prop::collection::vec(
            (
                prop::collection::vec(-50.0..50.0f64, dims),
                prop::collection::vec(0.01..5.0f64, dims),
            ),
            1..=max_n,
        );
        let query_strategy = (
            prop::collection::vec(-50.0..50.0f64, dims),
            prop::collection::vec(0.01..5.0f64, dims),
        );
        (pfv_strategy, query_strategy).prop_map(|(vs, q)| {
            let db: Vec<Pfv> = vs
                .into_iter()
                .map(|(m, s)| Pfv::new(m, s).unwrap())
                .collect();
            let query = Pfv::new(q.0, q.1).unwrap();
            (db, query)
        })
    })
}

fn build_tree(db: &[Pfv], mode: CombineMode) -> GaussTree<MemStore> {
    let config = TreeConfig::new(db[0].dims())
        .with_capacities(4, 3)
        .with_combine(mode);
    let pool = SharedBufferPool::new(MemStore::new(4096), 4096, AccessStats::new_shared());
    let mut tree = GaussTree::create(pool, config).unwrap();
    for (i, v) in db.iter().enumerate() {
        tree.insert(i as u64, v).unwrap();
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn k_mliq_matches_scan((db, q) in db_and_query(60, 3), k in 1usize..8) {
        let tree = build_tree(&db, CombineMode::Convolution);
        let got = tree.k_mliq(&q, k).unwrap();
        let truth = pfv::posteriors(CombineMode::Convolution, &db, &q);
        let mut want: Vec<(usize, f64)> = truth.iter().map(|p| (p.index, p.log_density)).collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        want.truncate(k);

        prop_assert_eq!(got.len(), want.len());
        // Compare the density multiset (ids may differ only on exact ties).
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g.log_density - w.1).abs() < 1e-9,
                "density mismatch: {} vs {}", g.log_density, w.1);
        }
    }

    #[test]
    fn refined_probabilities_match_bayes((db, q) in db_and_query(50, 3)) {
        let tree = build_tree(&db, CombineMode::Convolution);
        let got = tree.k_mliq_refined(&q, 3, 1e-7).unwrap();
        let truth = pfv::posteriors(CombineMode::Convolution, &db, &q);
        for r in &got {
            let want = truth[r.id as usize].probability;
            prop_assert!((r.probability - want).abs() < 1e-5 + 1e-5 * want,
                "probability mismatch for {}: {} vs {}", r.id, r.probability, want);
            prop_assert!(r.prob_lo <= want + 1e-9);
            prop_assert!(r.prob_hi >= want - 1e-9);
        }
    }

    #[test]
    fn tiq_membership_matches_scan((db, q) in db_and_query(50, 3), theta_pct in 1u32..95) {
        let theta = f64::from(theta_pct) / 100.0;
        let tree = build_tree(&db, CombineMode::Convolution);
        let got = tree.tiq(&q, theta, 1e-9).unwrap();
        let truth = pfv::posteriors(CombineMode::Convolution, &db, &q);

        let mut got_ids: Vec<u64> = got.iter().map(|r| r.id).collect();
        got_ids.sort_unstable();
        let mut want: Vec<u64> = truth
            .iter()
            .filter(|p| p.probability >= theta)
            .map(|p| p.index as u64)
            .collect();
        want.sort_unstable();

        // Allow divergence only for razor-edge candidates within float noise
        // of the threshold.
        let edge = |id: u64| (truth[id as usize].probability - theta).abs() < 1e-9;
        let sym_diff: Vec<u64> = got_ids
            .iter()
            .filter(|id| !want.contains(id))
            .chain(want.iter().filter(|id| !got_ids.contains(id)))
            .copied()
            .collect();
        prop_assert!(sym_diff.iter().all(|&id| edge(id)),
            "membership mismatch beyond threshold noise: {:?}", sym_diff);
    }

    #[test]
    fn additive_mode_equivalence_too((db, q) in db_and_query(40, 2), k in 1usize..5) {
        let tree = build_tree(&db, CombineMode::AdditiveSigma);
        let got = tree.k_mliq(&q, k).unwrap();
        let truth = pfv::posteriors(CombineMode::AdditiveSigma, &db, &q);
        let mut want: Vec<f64> = truth.iter().map(|p| p.log_density).collect();
        want.sort_by(|a, b| b.total_cmp(a));
        want.truncate(k);
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g.log_density - w).abs() < 1e-9);
        }
    }

    #[test]
    fn tree_invariants_hold_for_random_databases((db, q) in db_and_query(80, 3)) {
        let tree = build_tree(&db, CombineMode::Convolution);
        let _ = q;
        let errors = tree.check_invariants(true).unwrap();
        prop_assert!(errors.is_empty(), "invariant violations: {errors:?}");
    }

    #[test]
    fn anytime_tiq_is_superset_of_exact((db, q) in db_and_query(50, 2), theta_pct in 5u32..90) {
        let theta = f64::from(theta_pct) / 100.0;
        let tree = build_tree(&db, CombineMode::Convolution);
        let exact: Vec<u64> = tree.tiq(&q, theta, 1e-9).unwrap().iter().map(|r| r.id).collect();
        let anytime: Vec<u64> = tree.tiq_anytime(&q, theta).unwrap().iter().map(|r| r.id).collect();
        for id in &exact {
            prop_assert!(anytime.contains(id),
                "anytime TIQ lost a definite result: {id}");
        }
    }
}
