//! Diagnostic: Gauss-tree shape and per-query access behaviour on both
//! paper data sets. Compares bulk-loaded against incrementally inserted
//! trees and prints node statistics that explain pruning quality.
//!
//! Run: `cargo run --release -p gauss_bench --bin diag_tree [-- --quick]`

use gauss_bench::{build_gauss_tree, has_flag, ExperimentSpec, CACHE_BYTES};
use gauss_storage::{AccessStats, MemStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gauss_tree::ReadView;
use gauss_tree::{GaussTree, TreeConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    for spec in [
        ExperimentSpec::dataset1(quick),
        ExperimentSpec::dataset2(quick),
    ] {
        let dataset = spec.dataset();
        let queries = spec.queries(&dataset);

        println!(
            "diag — data set {}: {} objects, {} dims",
            spec.id, spec.n, spec.dims
        );

        let mut bulk = build_gauss_tree(&dataset, TreeConfig::new(dataset.dims()));
        report("bulk-loaded", &mut bulk, &queries);

        let pool = SharedBufferPool::with_byte_budget(
            MemStore::new(DEFAULT_PAGE_SIZE),
            CACHE_BYTES,
            AccessStats::new_shared(),
        );
        let mut incr = GaussTree::create(pool, TreeConfig::new(dataset.dims())).expect("create");
        for (id, v) in dataset.items() {
            incr.insert(id, &v).expect("insert");
        }
        report("incremental", &mut incr, &queries);
    }
}

fn report(
    label: &str,
    tree: &mut GaussTree<MemStore>,
    queries: &[gauss_workloads::IdentificationQuery],
) {
    let total_pages = tree.pool().num_pages();
    let mut mliq_pages = 0u64;
    let mut tiq_pages = 0u64;
    for q in queries {
        tree.cold_start();
        let before = tree.stats().snapshot();
        let _ = tree.k_mliq(&q.query, 1).expect("mliq");
        mliq_pages += tree.stats().snapshot().since(&before).physical_reads;

        tree.cold_start();
        let before = tree.stats().snapshot();
        let _ = tree.tiq(&q.query, 0.2, 1e-3).expect("tiq");
        tiq_pages += tree.stats().snapshot().since(&before).physical_reads;
    }
    let per_query = |pages: u64| pages as f64 / queries.len() as f64;
    println!(
        "{label:<12} height={} pages={} mliq pages/query={:.1} ({:.1}% of tree) \
         tiq(0.2) pages/query={:.1}",
        tree.height(),
        total_pages,
        per_query(mliq_pages),
        100.0 * per_query(mliq_pages) / total_pages as f64,
        per_query(tiq_pages),
    );
}
