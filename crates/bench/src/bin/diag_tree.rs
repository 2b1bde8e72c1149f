//! Diagnostic: Gauss-tree shape and per-query access behaviour on data
//! set 1. Compares bulk-loaded against incrementally inserted trees and
//! prints node statistics that explain pruning quality.
//!
//! Run: `cargo run --release -p gauss_bench --bin diag_tree [-- --quick]`

use gauss_bench::{build_gauss_tree, has_flag, ExperimentSpec, CACHE_BYTES};
use gauss_storage::{AccessStats, BufferPool, MemStore, DEFAULT_PAGE_SIZE};
use gauss_tree::ReadView;
use gauss_tree::{GaussTree, TreeConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let spec = ExperimentSpec::dataset1(quick);
    let dataset = spec.dataset();
    let queries = spec.queries(&dataset);

    println!("diag — {} objects, {} dims", spec.n, spec.dims);

    let mut bulk = build_gauss_tree(&dataset, TreeConfig::new(dataset.dims()));
    report("bulk-loaded", &mut bulk, &queries);

    let pool = BufferPool::with_byte_budget(
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

fn report(
    label: &str,
    tree: &mut GaussTree<MemStore>,
    queries: &[gauss_workloads::IdentificationQuery],
) {
    let total_pages = tree.pool().num_pages();
    let mut pages = 0u64;
    for q in queries {
        tree.cold_start();
        let before = tree.stats().snapshot();
        let _ = tree.k_mliq(&q.query, 1).expect("mliq");
        pages += tree.stats().snapshot().since(&before).physical_reads;
    }
    println!(
        "{label:<12} height={} pages={} mliq pages/query={:.1} ({:.1}% of tree)",
        tree.height(),
        total_pages,
        pages as f64 / queries.len() as f64,
        100.0 * pages as f64 / queries.len() as f64 / total_pages as f64,
    );
}
