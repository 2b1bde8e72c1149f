//! Ablation A2: Lemma-1 combination mode — exact convolution
//! (`√(σv²+σq²)`) versus the paper's literal additive σ (`σv+σq`).
//! Compares the Figure-1 example probabilities and the Figure-6 recall.
//!
//! Run: `cargo run --release -p gauss_bench --bin ablation_combine [-- --quick]`

use gauss_baselines::PfvFile;
use gauss_bench::{build_pfv_file, has_flag, ExperimentSpec};
use gauss_storage::MemStore;
use gauss_workloads::figure1;
use gauss_workloads::metrics::{precision_recall_sweep, rank_of};
use pfv::CombineMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");

    println!("Ablation A2 — Lemma-1 combination mode");
    println!();
    println!("Figure-1 example posteriors:");
    println!(
        "{:<14} {:>8} {:>8} {:>8}",
        "mode", "P(O1)%", "P(O2)%", "P(O3)%"
    );
    for (name, mode) in [
        ("convolution", CombineMode::Convolution),
        ("additive-σ", CombineMode::AdditiveSigma),
    ] {
        let p = figure1::posteriors(mode);
        println!(
            "{:<14} {:>8.1} {:>8.1} {:>8.1}",
            name,
            100.0 * p[0],
            100.0 * p[1],
            100.0 * p[2]
        );
    }

    let spec = ExperimentSpec::dataset1(quick);
    let dataset = spec.dataset();
    let queries = spec.queries(&dataset);
    let mut file: PfvFile<MemStore> = build_pfv_file(&dataset);

    println!();
    println!(
        "Data set 1 identification quality ({} objects, {} queries):",
        spec.n, spec.queries
    );
    println!("{:<14} {:>14} {:>14}", "mode", "recall@3 %", "recall@1 %");
    for (name, mode) in [
        ("convolution", CombineMode::Convolution),
        ("additive-σ", CombineMode::AdditiveSigma),
    ] {
        let mut ranks = Vec::new();
        for q in &queries {
            let res = file.k_mliq(&q.query, 3, mode).expect("scan mliq");
            let ids: Vec<u64> = res.iter().map(|r| r.0).collect();
            ranks.push(rank_of(&ids, q.truth as u64));
        }
        let curve = precision_recall_sweep(&ranks, 1, 3);
        println!(
            "{:<14} {:>14.1} {:>14.1}",
            name,
            100.0 * curve.recall[2],
            100.0 * curve.recall[0]
        );
    }
    println!();
    println!("Expectation: both modes rank nearly identically (the denominator is");
    println!("shared and the σ transform is monotone); absolute probabilities differ.");
}
