//! Stress test: batch queries racing cache invalidation.
//!
//! `clear_cache_and_stats` tears down every pool shard while worker
//! threads fault pages back in through the store lock; under debug builds
//! the lock-order detector is live, so this test doubles as a soak for the
//! store → shard → side-cache rank order on real query traffic. Results
//! must stay byte-identical to a serial run no matter how often the caches
//! are yanked mid-batch.

use std::sync::atomic::{AtomicBool, Ordering};

use gauss_storage::{AccessStats, MemStore, SharedBufferPool};
use gauss_tree::config::TreeConfig;
use gauss_tree::tree::GaussTree;
use gauss_tree::ReadView;
use pfv::vector::Pfv;

fn build(n: u64) -> GaussTree<MemStore> {
    let pool = SharedBufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
    let mut tree =
        GaussTree::create(pool, TreeConfig::new(2).with_capacities(8, 6)).expect("create");
    for i in 0..n {
        let v = Pfv::new(
            vec![
                (i as f64 * 0.61).sin() * 10.0,
                (i as f64 * 0.29).cos() * 10.0,
            ],
            vec![0.1 + (i % 5) as f64 * 0.15, 0.2],
        )
        .expect("valid pfv");
        tree.insert(i, &v).expect("insert");
    }
    tree
}

fn queries(n: usize) -> Vec<Pfv> {
    (0..n)
        .map(|i| {
            Pfv::new(
                vec![
                    (i as f64 * 1.7).sin() * 10.0,
                    (i as f64 * 0.83).cos() * 10.0,
                ],
                vec![0.25, 0.3],
            )
            .expect("valid query")
        })
        .collect()
}

#[test]
fn batch_queries_race_clear_cache_and_stats() {
    let tree = build(1200);
    let qs = queries(24);
    let serial: Vec<_> = qs
        .iter()
        .map(|q| tree.k_mliq(q, 5).expect("serial query"))
        .collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // The saboteur: yank the pool cache + decoded-node cache in a tight
        // loop while the workers are mid-batch.
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                tree.pool().clear_cache_and_stats();
                tree.cold_start();
                std::thread::yield_now();
            }
        });
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    for round in 0..10 {
                        let par = tree.batch(4).k_mliq(&qs, 5).expect("batch query");
                        assert_eq!(par, serial, "round {round}");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        stop.store(true, Ordering::Relaxed);
    });
}
