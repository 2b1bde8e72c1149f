//! Quickstart: build a Gauss-tree over probabilistic feature vectors and
//! run the two identification queries from the paper.
//!
//! Run: `cargo run --release --example quickstart`

use gausstree::pfv::Pfv;
use gausstree::storage::{AccessStats, MemStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, TreeConfig};

fn main() {
    // A pfv pairs every feature value μ with an uncertainty σ: the true
    // value is modelled as N(μ, σ). Object 0 was measured precisely,
    // object 2 under poor conditions.
    let database = [
        Pfv::new(vec![1.00, 4.00], vec![0.05, 0.08]).unwrap(),
        Pfv::new(vec![3.10, 0.50], vec![0.10, 0.40]).unwrap(),
        Pfv::new(vec![1.20, 3.80], vec![0.90, 1.10]).unwrap(),
        Pfv::new(vec![7.00, 2.00], vec![0.05, 0.05]).unwrap(),
        Pfv::new(vec![6.80, 2.30], vec![0.60, 0.70]).unwrap(),
    ];

    // The tree lives in fixed-size pages behind a buffer pool, so page
    // accesses can be measured exactly like in the paper's evaluation.
    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        256,
        AccessStats::new_shared(),
    );
    let mut tree = GaussTree::create(pool, TreeConfig::new(2)).unwrap();
    for (id, v) in database.iter().enumerate() {
        tree.insert(id as u64, v).unwrap();
    }
    println!("indexed {} pfv, tree height {}", tree.len(), tree.height());

    // A new, uncertain observation of some object:
    let query = Pfv::new(vec![1.05, 3.90], vec![0.10, 0.30]).unwrap();

    // k-MLIQ: which objects most likely produced this observation?
    let hits = tree.k_mliq_refined(&query, 2, 1e-6).unwrap();
    println!("\n2-MLIQ for {query}:");
    for h in &hits {
        println!(
            "  object {} with P = {:.1}% (log density {:.2})",
            h.id,
            100.0 * h.probability,
            h.log_density
        );
    }

    // TIQ: everyone above a probability threshold.
    let tiq = tree.tiq(&query, 0.05, 1e-6).unwrap();
    println!("\nTIQ(5%):");
    for r in &tiq {
        println!("  object {} with P = {:.1}%", r.id, 100.0 * r.probability);
    }

    // The probabilities are Bayes-normalised over the whole database and
    // sum to at most 1 (paper §4, property 1).
    let total: f64 = tiq.iter().map(|r| r.probability).sum();
    println!("\nsum of reported probabilities: {:.3} (≤ 1)", total);

    let snap = tree.stats().snapshot();
    println!(
        "page requests so far: {} logical / {} physical",
        snap.logical_reads, snap.physical_reads
    );
}
