//! Ablation A4: TIQ pruning regimes.
//!
//! The paper reports TIQ page-access factors of 35–43× over the scan on
//! data set 2. That magnitude arises in the *diffuse-posterior* regime:
//! when uncertainties are broad relative to object spacing, no object's
//! identification probability reaches the threshold, and the Gauss-tree can
//! prove the empty result near the root because `n·Ň ≤ Σ ≤ n·N̂` converges
//! without opening leaves. This binary sweeps the σ scale from peaked to
//! diffuse and reports TIQ(0.8) pages, result sizes, and the top-1
//! identification probability.
//!
//! Run: `cargo run --release -p gauss_bench --bin ablation_tiq_regime [-- --quick]`

use gauss_bench::{build_gauss_tree, build_pfv_file, has_flag};
use gauss_tree::ReadView;
use gauss_tree::TreeConfig;
use gauss_workloads::{generate_queries, uniform_dataset, SigmaSpec};
use pfv::CombineMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let n = if quick { 10_000 } else { 50_000 };
    let n_queries = if quick { 20 } else { 50 };

    println!("Ablation A4 — TIQ pruning regime sweep (uniform 10-d, n={n})");
    println!(
        "{:>12} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "σ range", "scan pages/q", "tree pages/q", "speedup", "avg |result|", "avg top-1 P"
    );

    for (lo, hi) in [
        (0.005, 0.05),
        (0.02, 0.1),
        (0.05, 0.2),
        (0.1, 0.3),
        (0.2, 0.4),
    ] {
        let sigma = SigmaSpec::uniform(lo, hi);
        let dataset = uniform_dataset(n, 10, sigma, 1234);
        let queries = generate_queries(&dataset, n_queries, sigma, 77);
        let mut file = build_pfv_file(&dataset);
        let tree = build_gauss_tree(&dataset, TreeConfig::new(10));

        let mut scan_pages = 0u64;
        let mut tree_pages = 0u64;
        let mut result_size = 0usize;
        let mut top_p = 0.0f64;
        for q in &queries {
            file.pool_mut().clear_cache_and_stats();
            let b = file.stats().snapshot();
            let res = file
                .tiq(&q.query, 0.8, CombineMode::Convolution)
                .expect("scan");
            scan_pages += file.stats().snapshot().since(&b).logical_reads;
            result_size += res.len();

            let posterior = file
                .k_mliq_with_probability(&q.query, 1, CombineMode::Convolution)
                .expect("posterior");
            if let Some(r) = posterior.first() {
                top_p += r.2;
            }

            tree.cold_start();
            let b = tree.stats().snapshot();
            let _ = tree.tiq_anytime(&q.query, 0.8).expect("tree");
            tree_pages += tree.stats().snapshot().since(&b).logical_reads;
        }
        let nq = queries.len() as f64;
        println!(
            "{:>12} {:>14.1} {:>14.1} {:>11.1}x {:>12.2} {:>12.3}",
            format!("[{lo},{hi}]"),
            scan_pages as f64 / nq,
            tree_pages as f64 / nq,
            scan_pages as f64 / tree_pages.max(1) as f64,
            result_size as f64 / nq,
            top_p / nq,
        );
    }
    println!();
    println!("Expectation: as σ grows the posteriors flatten (top-1 P → 0), the");
    println!("result set empties, and the TIQ speedup explodes — the regime behind");
    println!("the paper's 35-43x factors. Peaked regimes still give solid gains.");
}
