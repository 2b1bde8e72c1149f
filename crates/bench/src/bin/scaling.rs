//! Scaling study S1 (extension; not in the paper): Gauss-tree page accesses
//! and speedup versus the sequential scan as functions of database size,
//! dimensionality, and k.
//!
//! Run: `cargo run --release -p gauss_bench --bin scaling [-- --quick]`

use gauss_bench::{build_gauss_tree, build_pfv_file, has_flag};
use gauss_tree::ReadView;
use gauss_tree::TreeConfig;
use gauss_workloads::{generate_queries, uniform_dataset, SigmaSpec};
use pfv::CombineMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let sigma = SigmaSpec::log_uniform(0.005, 0.3).with_object_scale(0.5, 3.0);
    let n_queries = if quick { 15 } else { 50 };

    println!("Scaling S1 — Gauss-tree vs sequential scan (uniform data)");
    println!();
    println!("(a) database size (10-d, 1-MLIQ):");
    println!(
        "{:>9} {:>14} {:>14} {:>9}",
        "n", "scan pages/q", "tree pages/q", "speedup"
    );
    let sizes: &[usize] = if quick {
        &[2_000, 8_000]
    } else {
        &[5_000, 20_000, 50_000, 100_000]
    };
    for &n in sizes {
        let (scan, tree) = run_point(n, 10, 1, n_queries, sigma);
        println!(
            "{:>9} {:>14.1} {:>14.1} {:>8.1}x",
            n,
            scan,
            tree,
            scan / tree
        );
    }

    println!();
    println!("(b) dimensionality (n=20 000, 1-MLIQ):");
    println!(
        "{:>9} {:>14} {:>14} {:>9}",
        "dims", "scan pages/q", "tree pages/q", "speedup"
    );
    let dims_list: &[usize] = if quick { &[4, 10] } else { &[2, 5, 10, 20, 27] };
    for &d in dims_list {
        let (scan, tree) = run_point(if quick { 5_000 } else { 20_000 }, d, 1, n_queries, sigma);
        println!(
            "{:>9} {:>14.1} {:>14.1} {:>8.1}x",
            d,
            scan,
            tree,
            scan / tree
        );
    }

    println!();
    println!("(c) k (n=20 000, 10-d, k-MLIQ):");
    println!(
        "{:>9} {:>14} {:>14} {:>9}",
        "k", "scan pages/q", "tree pages/q", "speedup"
    );
    let ks: &[usize] = if quick {
        &[1, 10]
    } else {
        &[1, 3, 10, 30, 100]
    };
    for &k in ks {
        let (scan, tree) = run_point(if quick { 5_000 } else { 20_000 }, 10, k, n_queries, sigma);
        println!(
            "{:>9} {:>14.1} {:>14.1} {:>8.1}x",
            k,
            scan,
            tree,
            scan / tree
        );
    }
    println!();
    println!("Expectation: speedup grows with n (sublinear node accesses), shrinks");
    println!("with dimensionality (weaker hull bounds — the curse the paper's §2");
    println!("survey discusses), and shrinks moderately with k.");
}

/// Returns (scan pages/query, tree pages/query).
fn run_point(n: usize, dims: usize, k: usize, n_queries: usize, sigma: SigmaSpec) -> (f64, f64) {
    let dataset = uniform_dataset(n, dims, sigma, 97 + n as u64 + dims as u64);
    let queries = generate_queries(&dataset, n_queries.min(n), sigma, 3);
    let mut file = build_pfv_file(&dataset);
    let tree = build_gauss_tree(&dataset, TreeConfig::new(dims));

    let mut scan_pages = 0u64;
    let mut tree_pages = 0u64;
    for q in &queries {
        file.pool_mut().clear_cache_and_stats();
        let b = file.stats().snapshot();
        let _ = file
            .k_mliq(&q.query, k, CombineMode::Convolution)
            .expect("scan");
        scan_pages += file.stats().snapshot().since(&b).physical_reads;

        tree.cold_start();
        let b = tree.stats().snapshot();
        let _ = tree.k_mliq(&q.query, k).expect("tree");
        tree_pages += tree.stats().snapshot().since(&b).physical_reads;
    }
    (
        scan_pages as f64 / queries.len() as f64,
        tree_pages as f64 / queries.len() as f64,
    )
}
