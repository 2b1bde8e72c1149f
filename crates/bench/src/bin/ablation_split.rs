//! Ablation A1: the paper's hull-integral split strategy versus a
//! conventional widest-μ median split and an R\*-style volume split.
//! Reports page accesses per 1-MLIQ and TIQ query for each strategy.
//!
//! Run: `cargo run --release -p gauss_bench --bin ablation_split [-- --quick]`

use gauss_bench::{build_gauss_tree, has_flag, ExperimentSpec};
use gauss_tree::ReadView;
use gauss_tree::{SplitStrategy, TreeConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let spec = ExperimentSpec::dataset1(quick);
    println!(
        "Ablation A1 — split strategy, data set 1 ({} objects, {} queries)",
        spec.n, spec.queries
    );
    let dataset = spec.dataset();
    let queries = spec.queries(&dataset);

    println!(
        "{:<16} {:>16} {:>16} {:>14}",
        "strategy", "MLIQ pages/q", "TIQ(0.2) pages/q", "tree pages"
    );
    for (name, strategy) in [
        ("hull-integral", SplitStrategy::HullIntegral),
        ("widest-mu", SplitStrategy::WidestMu),
        ("min-volume", SplitStrategy::MinVolume),
    ] {
        let config = TreeConfig::new(dataset.dims()).with_split(strategy);
        let tree = build_gauss_tree(&dataset, config);
        let total_pages = tree.pool().num_pages();

        let mut mliq_pages = 0u64;
        let mut tiq_pages = 0u64;
        for q in &queries {
            tree.cold_start();
            let before = tree.stats().snapshot();
            let _ = tree.k_mliq(&q.query, 1).expect("mliq");
            mliq_pages += tree.stats().snapshot().since(&before).physical_reads;

            tree.cold_start();
            let before = tree.stats().snapshot();
            let _ = tree.tiq(&q.query, 0.2, 1e-3).expect("tiq");
            tiq_pages += tree.stats().snapshot().since(&before).physical_reads;
        }
        println!(
            "{:<16} {:>16.1} {:>16.1} {:>14}",
            name,
            mliq_pages as f64 / queries.len() as f64,
            tiq_pages as f64 / queries.len() as f64,
            total_pages
        );
    }
    println!();
    println!("Expectation: the hull-integral strategy accesses the fewest pages —");
    println!("it is the only objective aware that low-σ nodes are the selective ones (§5.3).");
}
