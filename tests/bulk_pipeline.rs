//! Property and integration tests of the parallel out-of-core bulk-load
//! pipeline.
//!
//! The pipeline's contract is determinism: for any thread count, memory
//! budget and write mode, `bulk_load_with` must produce a store
//! **byte-identical** to the serial fully-resident build. Past the budget,
//! every item goes straight to one temp spill file of exact leaf pages, so
//! a spilling budget also drives that file's round trip. Every produced
//! tree must satisfy the full structural invariants (including exact page
//! accounting) across page sizes, then keep behaving like a normal
//! in-memory tree under later inserts and batch merges. A malformed item
//! in the spilled stream fails the load before anything is committed.

use gausstree::pfv::Pfv;
use gausstree::storage::{AccessStats, MemStore, PageId, PageStore, SharedBufferPool};
use gausstree::tree::ReadView;
use gausstree::tree::{BulkLoadOptions, GaussTree, SplitStrategy, TreeConfig, TreeError};
use gausstree::workloads::{uniform_dataset, SigmaSpec};
use proptest::prelude::*;

fn pool_with(page_size: usize) -> SharedBufferPool<MemStore> {
    SharedBufferPool::new(MemStore::new(page_size), 4096, AccessStats::new_shared())
}

/// Full byte image of a tree's store (every page, in order).
fn store_image<S: PageStore>(tree: &GaussTree<S>) -> Vec<u8> {
    let pool = tree.pool();
    let mut out = Vec::new();
    for i in 0..pool.num_pages() {
        out.extend_from_slice(&pool.page(PageId(i)).unwrap());
    }
    out
}

/// Deterministic pseudo-random items built from integer lattices (no
/// negative zeros, fully reproducible).
fn synth_items(n: u64, dims: usize, salt: u64) -> Vec<(u64, Pfv)> {
    (0..n)
        .map(|i| {
            let means: Vec<f64> = (0..dims)
                .map(|d| (((i * 31 + d as u64 * 7 + salt) % 113) as f64 - 56.0) * 0.5)
                .collect();
            let sigmas: Vec<f64> = (0..dims)
                .map(|d| 0.02 + ((i * 13 + d as u64 * 3 + salt) % 17) as f64 * 0.06)
                .collect();
            (i, Pfv::new(means, sigmas).unwrap())
        })
        .collect()
}

/// Items whose σ scales with the feature value, spanning four decades: the
/// loader's σ̄ is a sum of logs that any reordering would round differently.
fn relative_sigma_items(n: u64, dims: usize, salt: u64) -> Vec<(u64, Pfv)> {
    let sigma = SigmaSpec::log_uniform(0.05, 0.9)
        .with_object_scale(0.5, 2.0)
        .relative_to_value(0.001);
    uniform_dataset(usize::try_from(n).unwrap(), dims, sigma, salt).items()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any thread count and any memory budget reproduce the serial
    /// resident build byte for byte, for random shapes and capacities, on
    /// lattice σ and on value-relative σ.
    #[test]
    fn pipeline_is_byte_identical_to_serial(
        n in 1u64..400,
        dims in 1usize..4,
        leaf_cap in 4usize..12,
        inner_cap in 4usize..10,
        threads in 1usize..8,
        budget_raw in 0usize..200,
        salt in 0u64..1000,
    ) {
        let config = TreeConfig::new(dims).with_capacities(leaf_cap, inner_cap);
        let mut opts = BulkLoadOptions::default().with_threads(threads);
        // budget_raw below 8 means "unbounded" (the shim has no option-of
        // strategy); anything else is a real, often spill-forcing budget.
        if budget_raw >= 8 {
            opts = opts.with_mem_budget(budget_raw);
        }
        for items in [synth_items(n, dims, salt), relative_sigma_items(n, dims, salt)] {
            let reference =
                GaussTree::bulk_load(pool_with(2048), config, items.clone()).unwrap();
            let (tree, report) =
                GaussTree::bulk_load_with(pool_with(2048), config, items, &opts).unwrap();
            prop_assert_eq!(store_image(&tree), store_image(&reference));
            prop_assert_eq!(report.total_entries, n);
            prop_assert!(tree.check_invariants(false).unwrap().is_empty());
        }
    }

    /// The full invariant set (balance, fanout, tightness, counts, page
    /// accounting) holds for parallel + spilled builds across page sizes
    /// of 1–4 KiB.
    #[test]
    fn invariants_hold_across_page_sizes(
        n in 1u64..500,
        dims in 1usize..3,
        page_shift in 0usize..3, // 1024, 2048, 4096
        budget in 16usize..150,
        salt in 0u64..1000,
    ) {
        let page_size = 1024usize << page_shift;
        let items = synth_items(n, dims, salt);
        let config = TreeConfig::new(dims);
        let opts = BulkLoadOptions::default()
            .with_threads(4)
            .with_mem_budget(budget);
        let (tree, _) =
            GaussTree::bulk_load_with(pool_with(page_size), config, items, &opts).unwrap();
        let errs = tree.check_invariants(false).unwrap();
        prop_assert!(errs.is_empty(), "page_size {}: {:?}", page_size, errs);
    }

    /// Trees built by the parallel pipeline keep splitting correctly under
    /// later single inserts: structure stays sound and content complete.
    #[test]
    fn insert_after_parallel_bulk_load_splits_correctly(
        n in 8u64..250,
        extra in 30u64..120,
        threads in 2usize..6,
        salt in 0u64..1000,
    ) {
        let items = synth_items(n, 2, salt);
        let config = TreeConfig::new(2).with_capacities(6, 4);
        let opts = BulkLoadOptions::default()
            .with_threads(threads)
            .with_mem_budget(32);
        let (mut tree, _) =
            GaussTree::bulk_load_with(pool_with(2048), config, items, &opts).unwrap();
        let height_before = tree.height();
        for (id, pfv) in synth_items(extra, 2, salt ^ 0x5EED) {
            tree.insert(id + 10_000, &pfv).unwrap();
        }
        prop_assert_eq!(tree.len(), n + extra);
        // Small bulk-loaded trees must have grown through insert splits.
        if n + extra > 30 {
            prop_assert!(tree.height() >= height_before.max(1));
        }
        let errs = tree.check_invariants(false).unwrap();
        prop_assert!(errs.is_empty(), "{:?}", errs);
        let mut count = 0u64;
        tree.for_each_entry(|_, _| count += 1).unwrap();
        prop_assert_eq!(count, n + extra);
    }
}

#[test]
fn extend_after_parallel_bulk_load_keeps_queries_exact() {
    let items = synth_items(300, 2, 42);
    let config = TreeConfig::new(2).with_capacities(8, 6);
    let opts = BulkLoadOptions::default()
        .with_threads(4)
        .with_mem_budget(64);
    let (mut tree, _) =
        GaussTree::bulk_load_with(pool_with(2048), config, items.clone(), &opts).unwrap();

    // Merge a second run, then compare every k-MLIQ answer against a tree
    // holding the union, built by plain inserts.
    let run: Vec<(u64, Pfv)> = synth_items(150, 2, 77)
        .into_iter()
        .map(|(id, v)| (id + 1000, v))
        .collect();
    assert_eq!(tree.extend(run.clone()).unwrap(), 150);
    assert!(tree.check_invariants(false).unwrap().is_empty());

    let mut oracle = GaussTree::create(pool_with(2048), config).unwrap();
    for (id, v) in items.iter().chain(run.iter()) {
        oracle.insert(*id, v).unwrap();
    }
    for (q_id, q) in synth_items(20, 2, 99) {
        let got = tree.k_mliq(&q, 5).unwrap();
        let want = oracle.k_mliq(&q, 5).unwrap();
        assert_eq!(got.len(), want.len(), "query {q_id}");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.log_density.to_bits(), w.log_density.to_bits());
        }
    }
}

#[test]
fn big_parallel_spilled_build_matches_serial_and_answers_queries() {
    // One larger end-to-end shape: external splits definitely trigger
    // (budget far below n), partitioning fans out, and the result both
    // matches the serial image and answers queries identically.
    let items = synth_items(5000, 3, 123);
    let config = TreeConfig::new(3);
    let reference = GaussTree::bulk_load(pool_with(4096), config, items.clone()).unwrap();
    let opts = BulkLoadOptions::default()
        .with_threads(4)
        .with_mem_budget(256);
    let (tree, report) = GaussTree::bulk_load_with(pool_with(4096), config, items, &opts).unwrap();
    assert_eq!(store_image(&tree), store_image(&reference));
    assert!(
        report.external_splits > 0,
        "budget must force external splits"
    );
    assert!(report.peak_resident_entries < 5000);
    for (_, q) in synth_items(10, 3, 321) {
        let a = tree.k_mliq(&q, 3).unwrap();
        let b = reference.k_mliq(&q, 3).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.log_density.to_bits(), y.log_density.to_bits());
        }
    }
}

#[test]
fn wrong_dimensionality_in_the_spilled_stream_fails_cleanly() {
    // Budget 40: spilling starts at item 40, so item 200 arrives while the
    // stream is being appended to the spill file.
    let mut items = synth_items(300, 3, 5);
    items[199].1 = Pfv::new(vec![0.5, 1.5], vec![0.1, 0.2]).unwrap();
    let disk = MemStore::new(2048);
    let pool = SharedBufferPool::new(disk.clone(), 4096, AccessStats::new_shared());
    let opts = BulkLoadOptions::default().with_mem_budget(40);
    let err = GaussTree::bulk_load_with(pool, TreeConfig::new(3), items, &opts)
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(
            err,
            TreeError::DimMismatch {
                expected: 3,
                got: 2
            }
        ),
        "{err}"
    );
    // Nothing was committed: the store reopens as no tree at all.
    let pool = SharedBufferPool::new(disk, 4096, AccessStats::new_shared());
    assert!(matches!(
        GaussTree::open(pool).map(|_| ()),
        Err(TreeError::NotAGaussTree)
    ));
}

/// Items whose μ in dimensions 0 and 1 are `+0.0` or `−0.0` (two sign
/// patterns), so every range's μ extent there is zero, and, with `dims`
/// 3, a third dimension mixing signed zeros with small lattice values.
fn signed_zero_items(n: u64, dims: usize) -> Vec<(u64, Pfv)> {
    let signed_zero = |negative: bool| if negative { -0.0 } else { 0.0 };
    (0..n)
        .map(|i| {
            let mut means = vec![
                signed_zero((i * 7 + i / 5) % 3 == 0),
                signed_zero((i * 5 + i / 3) % 4 < 2),
                match (i * 11 + 3) % 5 {
                    0 => -0.0,
                    1 => 0.0,
                    k => (k as f64 - 3.0) * 0.25,
                },
            ];
            means.truncate(dims);
            let sigmas: Vec<f64> = (0..dims as u64)
                .map(|d| 0.05 + ((i + d) % 7) as f64 * 0.1)
                .collect();
            (i, Pfv::new(means, sigmas).unwrap())
        })
        .collect()
}

#[test]
fn signed_zero_means_build_the_same_bytes_spilled_and_resident() {
    // The widest-μ baseline sees only the two all-zero dimensions, so its
    // axis choice rests on the sign of two zero extents.
    for (split, dims) in [
        (SplitStrategy::HullIntegral, 3),
        (SplitStrategy::MinVolume, 3),
        (SplitStrategy::WidestMu, 2),
    ] {
        let items = signed_zero_items(700, dims);
        let config = TreeConfig::new(dims)
            .with_capacities(6, 4)
            .with_split(split);
        let reference = GaussTree::bulk_load(pool_with(2048), config, items.clone()).unwrap();
        for (budget, threads) in [(40, 1), (97, 2)] {
            let opts = BulkLoadOptions::default()
                .with_threads(threads)
                .with_mem_budget(budget);
            let (tree, report) =
                GaussTree::bulk_load_with(pool_with(2048), config, items.clone(), &opts).unwrap();
            assert!(report.external_splits > 0, "{split:?}: no external split");
            assert!(
                store_image(&tree) == store_image(&reference),
                "{split:?}, budget {budget}: spilled build differs"
            );
        }
    }
}
