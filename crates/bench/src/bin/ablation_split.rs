//! Ablation A1: the paper's hull-integral split strategy versus a
//! conventional widest-μ median split and an R\*-style volume split, on
//! both paper data sets. Reports page accesses per 1-MLIQ and TIQ query
//! for each strategy, then names the strategy that read the fewest pages
//! per data set and query type — computed from the table, not asserted.
//! The hull integral is priced as every build prices it: at the combined
//! spread of the input's geometric-mean σ (`gauss_tree::split`).
//!
//! Run: `cargo run --release -p gauss_bench --bin ablation_split [-- --quick]`

use gauss_bench::{build_gauss_tree, has_flag, ExperimentSpec};
use gauss_tree::ReadView;
use gauss_tree::{SplitStrategy, TreeConfig};

const STRATEGIES: [(&str, SplitStrategy); 3] = [
    ("hull-integral", SplitStrategy::HullIntegral),
    ("widest-mu", SplitStrategy::WidestMu),
    ("min-volume", SplitStrategy::MinVolume),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let mut winners = Vec::new();
    for spec in [
        ExperimentSpec::dataset1(quick),
        ExperimentSpec::dataset2(quick),
    ] {
        winners.push((spec.id, fewest_pages(&spec)));
        println!();
    }
    // §5.3 expects the hull integral to win: it is the only objective
    // aware that low-σ nodes are the selective ones.
    for (id, winners) in winners {
        for (query, winner) in ["1-MLIQ", "TIQ(0.2)"].into_iter().zip(winners) {
            let verdict = if winner == STRATEGIES[0].0 {
                "met"
            } else {
                "not met"
            };
            println!(
                "Data set {id}, {query}: {winner} reads the fewest pages \
                 (§5.3 expects hull-integral: {verdict})."
            );
        }
    }
}

/// Prints one data set's table; returns the strategy with the fewest pages
/// per 1-MLIQ and per TIQ.
fn fewest_pages(spec: &ExperimentSpec) -> [&'static str; 2] {
    println!(
        "Ablation A1 — split strategy, data set {} ({} objects, {} queries)",
        spec.id, spec.n, spec.queries
    );
    let dataset = spec.dataset();
    let queries = spec.queries(&dataset);

    println!(
        "{:<16} {:>16} {:>16} {:>14}",
        "strategy", "MLIQ pages/q", "TIQ(0.2) pages/q", "tree pages"
    );
    let mut best: [(f64, &str); 2] = [(f64::INFINITY, ""); 2];
    for (name, strategy) in STRATEGIES {
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
        let per_query = [mliq_pages, tiq_pages].map(|p| p as f64 / queries.len() as f64);
        println!(
            "{:<16} {:>16.1} {:>16.1} {:>14}",
            name, per_query[0], per_query[1], total_pages
        );
        for (b, p) in best.iter_mut().zip(per_query) {
            if p < b.0 {
                *b = (p, name);
            }
        }
    }
    best.map(|(_, name)| name)
}
