//! Reproduces Figure 6: precision and recall of conventional 3-NN on the
//! mean vectors versus 3-MLIQ on probabilistic feature vectors, with the
//! result-set size scaled ×1…×9.
//!
//! Run: `cargo run --release -p gauss_bench --bin fig6_effectiveness -- --dataset 1`
//! Flags: `--dataset 1|2` (default 1), `--quick` for a reduced size.

use gauss_baselines::euclidean_knn;
use gauss_bench::{
    arg_value, build_gauss_tree, build_pfv_file, build_xtree, has_flag, ExperimentSpec,
};
use gauss_tree::ReadView;
use gauss_tree::TreeConfig;
use gauss_workloads::metrics::{precision_recall_sweep, rank_of};
use pfv::CombineMode;

const BASE_K: usize = 3;
const MAX_SCALE: usize = 9;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let which = arg_value(&args, "--dataset").unwrap_or_else(|| "1".into());
    let spec = match which.as_str() {
        "2" => ExperimentSpec::dataset2(quick),
        _ => ExperimentSpec::dataset1(quick),
    };

    println!(
        "Figure 6 ({}) — data set {}: {} objects, {} dims, {} queries",
        if quick { "quick" } else { "full" },
        spec.id,
        spec.n,
        spec.dims,
        spec.queries
    );

    let dataset = spec.dataset();
    let queries = spec.queries(&dataset);
    let tree = build_gauss_tree(&dataset, TreeConfig::new(dataset.dims()));
    let mut file = build_pfv_file(&dataset);
    let mut xtree = build_xtree(&dataset, &mut file);

    let top = BASE_K * MAX_SCALE;
    let mut mliq_ranks = Vec::with_capacity(queries.len());
    let mut nn_ranks = Vec::with_capacity(queries.len());
    let mut xtree_ranks = Vec::with_capacity(queries.len());
    for q in &queries {
        let results = tree.k_mliq(&q.query, top).expect("k-MLIQ");
        let ids: Vec<u64> = results.iter().map(|r| r.id).collect();
        mliq_ranks.push(rank_of(&ids, q.truth as u64));

        let nn = euclidean_knn(&dataset.objects, &q.query, top);
        let ids: Vec<u64> = nn.iter().map(|(i, _)| *i as u64).collect();
        nn_ranks.push(rank_of(&ids, q.truth as u64));

        // The approximate X-tree filter+refine MLIQ — the paper notes its
        // quality is "only slightly below" the Gauss-tree's (false
        // dismissals are possible).
        let xres = xtree
            .k_mliq(&mut file, &q.query, top, CombineMode::Convolution)
            .expect("x-mliq");
        let ids: Vec<u64> = xres.iter().map(|r| r.0).collect();
        xtree_ranks.push(rank_of(&ids, q.truth as u64));
    }

    let mliq = precision_recall_sweep(&mliq_ranks, BASE_K, MAX_SCALE);
    let nn = precision_recall_sweep(&nn_ranks, BASE_K, MAX_SCALE);
    let xq = precision_recall_sweep(&xtree_ranks, BASE_K, MAX_SCALE);

    println!();
    println!(
        "{:<4} {:>12} {:>12} {:>14} {:>14} {:>15} {:>15}",
        "x",
        "NN recall%",
        "NN prec%",
        "MLIQ recall%",
        "MLIQ prec%",
        "X-MLIQ recall%",
        "X-MLIQ prec%"
    );
    for x in 0..MAX_SCALE {
        println!(
            "x{:<3} {:>12.1} {:>12.1} {:>14.1} {:>14.1} {:>15.1} {:>15.1}",
            x + 1,
            100.0 * nn.recall[x],
            100.0 * nn.precision[x],
            100.0 * mliq.recall[x],
            100.0 * mliq.precision[x],
            100.0 * xq.recall[x],
            100.0 * xq.precision[x],
        );
    }
    println!();
    println!(
        "Paper (data set {}): MLIQ precision/recall ≈ {}% at x1; NN ≈ {}% at x1{}",
        spec.id,
        if spec.id == 1 { 98 } else { 99 },
        if spec.id == 1 { 42 } else { 61 },
        if spec.id == 1 {
            "; NN recall only ~60% even at x9"
        } else {
            "; NN recall ~97% at x6+ with precision ~18%"
        }
    );
}
