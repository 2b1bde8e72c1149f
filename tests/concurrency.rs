//! Concurrency equivalence: the multi-threaded batch executor must compute
//! *exactly* what the serial loop computes — identical ids, log densities
//! and probability bounds — and the shared buffer pool's accounting must be
//! independent of the thread count when the cache holds the whole tree.

use gausstree::storage::{AccessStats, MemStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, TreeConfig};
use gausstree::workloads::{generate_query_batch, uniform_dataset, SigmaSpec};
use pfv::Pfv;

const THREADS: usize = 4;

fn build_shared_tree(n: usize) -> (GaussTree<MemStore>, Vec<Pfv>) {
    let sigma = SigmaSpec::uniform(0.05, 0.3);
    let dataset = uniform_dataset(n, 3, sigma, 4242);
    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        4096, // far larger than the tree: no evictions
        AccessStats::new_shared(),
    );
    let tree = GaussTree::bulk_load(pool, TreeConfig::new(3), dataset.items()).unwrap();
    let queries = generate_query_batch(&dataset, 100, sigma, 7);
    (tree, queries)
}

#[test]
fn parallel_k_mliq_is_bit_identical_to_serial() {
    let (tree, queries) = build_shared_tree(3000);
    let serial: Vec<_> = queries.iter().map(|q| tree.k_mliq(q, 5).unwrap()).collect();
    let parallel = tree.batch(THREADS).k_mliq(&queries, 5).unwrap();
    assert_eq!(parallel.len(), serial.len());
    for (p, s) in parallel.iter().zip(serial.iter()) {
        for (a, b) in p.iter().zip(s.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.log_density.to_bits(), b.log_density.to_bits());
        }
    }
}

#[test]
fn parallel_refined_probability_bounds_are_bit_identical() {
    let (tree, queries) = build_shared_tree(2000);
    let serial: Vec<_> = queries
        .iter()
        .map(|q| tree.k_mliq_refined(q, 3, 1e-6).unwrap())
        .collect();
    let parallel = tree
        .batch(THREADS)
        .k_mliq_refined(&queries, 3, 1e-6)
        .unwrap();
    for (p, s) in parallel.iter().zip(serial.iter()) {
        assert_eq!(p.len(), s.len());
        for (a, b) in p.iter().zip(s.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.log_density.to_bits(), b.log_density.to_bits());
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
            assert_eq!(a.prob_lo.to_bits(), b.prob_lo.to_bits());
            assert_eq!(a.prob_hi.to_bits(), b.prob_hi.to_bits());
        }
    }
}

#[test]
fn parallel_tiq_is_bit_identical_to_serial() {
    let (tree, queries) = build_shared_tree(2000);
    let serial: Vec<_> = queries
        .iter()
        .map(|q| tree.tiq(q, 0.2, 1e-6).unwrap())
        .collect();
    let parallel = tree.batch(THREADS).tiq(&queries, 0.2, 1e-6).unwrap();
    for (p, s) in parallel.iter().zip(serial.iter()) {
        assert_eq!(p.len(), s.len());
        for (a, b) in p.iter().zip(s.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.log_density.to_bits(), b.log_density.to_bits());
            assert_eq!(a.prob_lo.to_bits(), b.prob_lo.to_bits());
            assert_eq!(a.prob_hi.to_bits(), b.prob_hi.to_bits());
        }
    }
}

#[test]
fn read_totals_are_thread_count_independent() {
    let (tree, queries) = build_shared_tree(3000);

    // Warm the cache: the pool holds the whole tree, so after one pass no
    // read ever faults again and physical counts cannot depend on timing.
    let _ = tree.batch(1).k_mliq(&queries, 3).unwrap();

    let mut totals = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        tree.stats().reset();
        let _ = tree.batch(threads).k_mliq(&queries, 3).unwrap();
        let snap = tree.stats().snapshot();
        assert_eq!(
            snap.physical_reads, 0,
            "warm cache large enough for the tree must not fault (threads={threads})"
        );
        totals.push(snap.logical_reads);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "logical read totals must not depend on the thread count: {totals:?}"
    );
}

#[test]
fn cold_physical_reads_are_deterministic_across_thread_counts() {
    // Misses are resolved under the owning shard's lock, so even a cold
    // cache faults each page exactly once no matter the interleaving.
    // Cold means both caches: a node still decoded is read without its page.
    let (tree, queries) = build_shared_tree(3000);
    let mut faults = Vec::new();
    for threads in [1usize, 4] {
        tree.cold_start();
        let _ = tree.batch(threads).k_mliq(&queries, 3).unwrap();
        faults.push(tree.stats().snapshot().physical_reads);
    }
    assert_eq!(
        faults[0], faults[1],
        "cold-cache fault totals must be deterministic"
    );
}
