//! Failure injection: corrupt pages, truncated stores and hostile inputs
//! must surface as typed errors, never as panics or silent wrong answers.

use gausstree::pfv::Pfv;
use gausstree::storage::{
    AccessStats, MemStore, PageId, PageStore, SharedBufferPool, DEFAULT_PAGE_SIZE,
};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, TreeConfig, TreeError};

fn build_small_tree() -> GaussTree<MemStore> {
    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        256,
        AccessStats::new_shared(),
    );
    let mut tree = GaussTree::create(pool, TreeConfig::new(2).with_capacities(4, 3)).unwrap();
    for i in 0..40u64 {
        let v = Pfv::new(
            vec![i as f64, (i as f64 * 0.7).sin() * 5.0],
            vec![0.1 + (i % 3) as f64 * 0.2, 0.2],
        )
        .unwrap();
        tree.insert(i, &v).unwrap();
    }
    tree
}

#[test]
fn corrupt_node_page_is_reported_not_panicked() {
    let tree = build_small_tree();
    let root = tree.root_page();
    let q = Pfv::new(vec![1.0, 1.0], vec![0.2, 0.2]).unwrap();
    // Warm both caches: the pool's frames and the decoded-node cache.
    assert_eq!(tree.k_mliq(&q, 1).unwrap().len(), 1);

    // Smash the root page with garbage through the raw store, then cold
    // start. Clearing the pool alone would leave the decoded root warm and
    // the query would never see the garbage.
    let garbage = vec![0xFFu8; DEFAULT_PAGE_SIZE];
    tree.pool().write(root, &garbage).unwrap();
    tree.cold_start();

    match tree.k_mliq(&q, 1) {
        Err(TreeError::Codec(_)) | Err(TreeError::Corrupt(_)) => {}
        other => panic!("expected codec/corrupt error, got {other:?}"),
    }
}

#[test]
fn zeroed_meta_page_rejected_on_open() {
    let mut store = MemStore::new(DEFAULT_PAGE_SIZE);
    store.allocate().unwrap(); // page 0 stays zeroed
    let pool = SharedBufferPool::new(store, 16, AccessStats::new_shared());
    assert!(matches!(
        GaussTree::open(pool),
        Err(TreeError::NotAGaussTree)
    ));
}

#[test]
fn dangling_child_pointer_is_an_error() {
    let tree = build_small_tree();
    assert!(tree.height() >= 1, "need an inner root for this test");
    let root = tree.root_page();

    // Read the root page bytes, overwrite the first child pointer with an
    // out-of-range page id, and write it back.
    let mut bytes = tree.pool().page(root).unwrap().to_vec();
    // Layout: header (8 bytes) then child page id (u64 LE).
    bytes[8..16].copy_from_slice(&u64::to_le_bytes(9_999_999));
    tree.pool().write(root, &bytes).unwrap();
    tree.pool().clear_cache();

    // A full traversal must hit the dangling pointer (a query might prune
    // the branch before dereferencing it).
    assert!(tree.for_each_entry(|_, _| {}).is_err());
}

#[test]
fn nan_query_is_rejected_at_construction() {
    assert!(Pfv::new(vec![f64::NAN, 0.0], vec![0.1, 0.1]).is_err());
    assert!(Pfv::new(vec![0.0, f64::INFINITY], vec![0.1, 0.1]).is_err());
    assert!(Pfv::new(vec![0.0, 0.0], vec![0.1, f64::NAN]).is_err());
    assert!(Pfv::new(vec![0.0, 0.0], vec![0.1, -1.0]).is_err());
}

#[test]
fn extreme_but_valid_values_do_not_break_queries() {
    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        256,
        AccessStats::new_shared(),
    );
    let mut tree = GaussTree::create(pool, TreeConfig::new(2).with_capacities(4, 3)).unwrap();
    let extremes = [
        (0u64, vec![1e12, -1e12], vec![1e-9, 1e9]),
        (1, vec![-1e12, 1e12], vec![1e9, 1e-9]),
        (2, vec![0.0, 0.0], vec![1e-9, 1e-9]),
        (3, vec![1e-300, -1e-300], vec![1.0, 1.0]),
    ];
    for (id, m, s) in extremes {
        tree.insert(id, &Pfv::new(m, s).unwrap()).unwrap();
    }
    let q = Pfv::new(vec![0.0, 0.0], vec![0.5, 0.5]).unwrap();
    let res = tree.k_mliq_refined(&q, 4, 1e-3).unwrap();
    assert_eq!(res.len(), 4);
    for r in &res {
        assert!(r.probability.is_finite());
        assert!((0.0..=1.0 + 1e-9).contains(&r.probability));
    }
    let total: f64 = res.iter().map(|r| r.probability).sum();
    assert!(total <= 1.0 + 1e-6, "probabilities sum to {total}");
}

#[test]
fn page_id_out_of_range_from_raw_store() {
    let mut store = MemStore::new(128);
    let mut buf = vec![0u8; 128];
    assert!(store.read_page(PageId(5), &mut buf).is_err());
    assert!(store.write_page(PageId::INVALID, &buf).is_err());
}

#[test]
fn stats_survive_heavy_churn() {
    let stats = AccessStats::new_shared();
    let pool = SharedBufferPool::new(MemStore::new(128), 2, stats.clone());
    let ids: Vec<PageId> = (0..20).map(|_| pool.allocate().unwrap()).collect();
    let buf = vec![7u8; 128];
    for &id in &ids {
        pool.write(id, &buf).unwrap();
    }
    for round in 0..50 {
        let id = ids[round % ids.len()];
        let _ = pool.page(id).unwrap();
    }
    let snap = stats.snapshot();
    assert_eq!(snap.logical_reads, 50);
    assert!(snap.physical_reads > 0);
    assert!(snap.evictions > 0);
    assert!(snap.hit_ratio() >= 0.0 && snap.hit_ratio() <= 1.0);
}
