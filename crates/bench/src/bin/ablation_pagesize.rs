//! Ablation A5: page size (node capacity) effect on Gauss-tree pruning.
//!
//! Smaller pages give tighter per-node bounds (fewer entries per node ⇒
//! narrower parameter rectangles) but more pages overall; larger pages
//! amortise header overhead but dilute selectivity. Sweeps 2–32 KiB.
//!
//! Run: `cargo run --release -p gauss_bench --bin ablation_pagesize [-- --quick]`

use gauss_bench::{has_flag, ExperimentSpec, CACHE_BYTES};
use gauss_storage::{AccessStats, MemStore, SharedBufferPool};
use gauss_tree::ReadView;
use gauss_tree::{GaussTree, TreeConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let spec = ExperimentSpec::dataset1(quick);
    let dataset = spec.dataset();
    let queries = spec.queries(&dataset);

    println!(
        "Ablation A5 — page size sweep, data set 1 ({} objects, {} queries)",
        spec.n, spec.queries
    );
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>16} {:>14}",
        "page KiB", "leaf cap", "tree pages", "height", "MLIQ pages/q", "MLIQ KiB/q"
    );

    for page_size in [2048usize, 4096, 8192, 16384, 32768] {
        let config = TreeConfig::new(dataset.dims());
        let pool = SharedBufferPool::with_byte_budget(
            MemStore::new(page_size),
            CACHE_BYTES,
            AccessStats::new_shared(),
        );
        let tree = GaussTree::bulk_load(pool, config, dataset.items()).expect("bulk load");
        let total_pages = tree.pool().num_pages();

        let mut pages = 0u64;
        for q in &queries {
            tree.cold_start();
            let before = tree.stats().snapshot();
            let _ = tree.k_mliq(&q.query, 1).expect("mliq");
            pages += tree.stats().snapshot().since(&before).physical_reads;
        }
        let per_query = pages as f64 / queries.len() as f64;
        println!(
            "{:>10} {:>10} {:>12} {:>12} {:>16.1} {:>14.1}",
            page_size / 1024,
            tree.leaf_capacity(),
            total_pages,
            tree.height(),
            per_query,
            per_query * page_size as f64 / 1024.0,
        );
    }
    println!();
    println!("Expectation: page count drops with page size while bytes-per-query");
    println!("grows — selectivity is lost as nodes widen. The sweet spot for this");
    println!("workload sits near the classic 4-8 KiB DBMS block.");
}
