//! Build smoke test: pins the public re-export surface of the umbrella
//! `gausstree` crate by driving it exactly as `examples/quickstart.rs` does.
//!
//! If a re-export in `src/lib.rs` (or a type it forwards to) disappears or
//! changes shape, this test fails to *compile*, which is the point: the
//! examples are not compiled by `cargo test`, so without this test a broken
//! public surface would only be caught by `cargo build --examples`.

use gausstree::pfv::Pfv;
use gausstree::storage::{AccessStats, MemStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, TreeConfig};

/// The quickstart database: object 0 measured precisely, object 2 under
/// poor conditions.
fn quickstart_database() -> Vec<Pfv> {
    vec![
        Pfv::new(vec![1.00, 4.00], vec![0.05, 0.08]).unwrap(),
        Pfv::new(vec![3.10, 0.50], vec![0.10, 0.40]).unwrap(),
        Pfv::new(vec![1.20, 3.80], vec![0.90, 1.10]).unwrap(),
        Pfv::new(vec![7.00, 2.00], vec![0.05, 0.05]).unwrap(),
        Pfv::new(vec![6.80, 2.30], vec![0.60, 0.70]).unwrap(),
    ]
}

#[test]
fn quickstart_flow_works_through_the_umbrella_crate() {
    let database = quickstart_database();

    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        256,
        AccessStats::new_shared(),
    );
    let mut tree = GaussTree::create(pool, TreeConfig::new(2)).unwrap();
    for (id, v) in database.iter().enumerate() {
        tree.insert(id as u64, v).unwrap();
    }
    assert_eq!(tree.len(), database.len() as u64);

    let query = Pfv::new(vec![1.05, 3.90], vec![0.10, 0.30]).unwrap();

    // k-MLIQ with Bayes-refined probabilities: the precisely measured
    // object 0 must win over the sloppy object 2.
    let hits = tree.k_mliq_refined(&query, 2, 1e-6).unwrap();
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[0].id, 0);
    assert!(hits[0].probability > hits[1].probability);

    // TIQ: membership at a 5 % threshold, probabilities Bayes-normalised
    // over the whole database (paper §4, property 1).
    let tiq = tree.tiq(&query, 0.05, 1e-6).unwrap();
    assert!(tiq.iter().any(|r| r.id == 0));
    for r in &tiq {
        assert!(r.probability >= 0.05 - 1e-9);
    }
    let total: f64 = tiq.iter().map(|r| r.probability).sum();
    assert!(total <= 1.0 + 1e-9, "Bayes-normalised sum {total} > 1");

    // The buffer pool actually recorded traffic.
    let snap = tree.stats().snapshot();
    assert!(snap.logical_reads > 0);

    // Concurrent read surface: queries take &self behind a SharedBufferPool
    // and the batch executor answers in input order.
    let _: &gausstree::storage::SharedBufferPool<MemStore> = tree.pool();
    let batch = [query.clone(), query];
    let ranked = tree.batch(2).k_mliq(&batch, 1).unwrap();
    assert_eq!(ranked.len(), 2);
    assert_eq!(ranked[0][0].id, hits[0].id);
}

#[test]
fn every_reexported_module_is_reachable() {
    // One cheap touch per façade module so `src/lib.rs` can't silently drop
    // a re-export: pfv (above), storage (above), tree (above), baselines,
    // workloads.
    let database = quickstart_database();
    let ranked = gausstree::baselines::euclidean_knn(&database, &database[0], 2);
    assert_eq!(ranked.len(), 2);
    assert_eq!(ranked[0].0, 0, "object 0 is its own nearest neighbour");

    let spec = gausstree::workloads::SigmaSpec::uniform(0.05, 0.2);
    let dataset = gausstree::workloads::uniform_dataset(16, 3, spec, 42);
    assert_eq!(dataset.items().len(), 16);
}
