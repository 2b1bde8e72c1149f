//! The forest's `pool_frames` caveat, measured: what a query pays when a
//! component is larger than its buffer pool, so every query misses the
//! pool and decodes nodes again (README, "Write path: Gauss-forest").
//!
//! Paper data set 2 (100 000 × d10) goes through a forest's memtable into
//! **one** component (2945 pages). The first 60 of the §6 1-MLIQ queries
//! then run on a snapshot five times over, once per pool size: the default
//! 2048 frames per component, and 8192 frames, which hold the component.
//! Reported per pool size: the best pass's p50 latency and the physical
//! reads of all 300 queries. Public API only, so the same source builds in
//! an older checkout for a before/after.
//!
//! Run: `cargo run --release -p gauss_bench --bin forest_pool`

use gauss_bench::ExperimentSpec;
use gauss_storage::{MemComponentStores, DEFAULT_PAGE_SIZE};
use gauss_tree::{ForestOptions, GaussForest, ReadView, TreeConfig};
use std::time::Instant;

const QUERIES: usize = 60;
const PASSES: usize = 5;

fn main() {
    let spec = ExperimentSpec::dataset2(false);
    let data = spec.dataset();
    let queries = spec.queries(&data);
    let queries = &queries[..QUERIES];
    for frames in [2048usize, 8192] {
        let opts = ForestOptions::new()
            .memtable_capacity(data.len())
            .pool_frames(frames);
        let stores = MemComponentStores::new(DEFAULT_PAGE_SIZE);
        let mut forest =
            GaussForest::create(stores, TreeConfig::new(spec.dims), opts).expect("create forest");
        for (id, v) in data.items() {
            forest.insert(id, &v).expect("insert");
        }
        forest.flush().expect("flush");
        let components = forest.component_stats();
        assert_eq!(
            components.len(),
            1,
            "the data set must sit in one component"
        );
        let view = forest.snapshot().expect("snapshot");
        // One untimed pass: the first touch of every node is not the
        // steady state this measures.
        for q in queries {
            view.k_mliq(&q.query, 1).expect("k_mliq");
        }
        let before = forest.stats().snapshot().physical_reads;
        let mut best_p50 = f64::INFINITY;
        for _ in 0..PASSES {
            let mut us: Vec<f64> = queries
                .iter()
                .map(|q| {
                    let t = Instant::now();
                    view.k_mliq(&q.query, 1).expect("k_mliq");
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            us.sort_by(f64::total_cmp);
            best_p50 = best_p50.min(us[us.len() / 2]);
        }
        let reads = forest.stats().snapshot().physical_reads - before;
        println!(
            "pool_frames {frames}: 1-MLIQ p50 {:.2} ms, {reads} physical reads over {} queries",
            best_p50 / 1e3,
            QUERIES * PASSES,
        );
    }
}
