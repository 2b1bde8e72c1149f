//! Reproduces the running example of paper §3 (Figure 1): three facial
//! images and one query. Prints the Euclidean distances and identification
//! probabilities next to the paper's numbers.
//!
//! Run: `cargo run --release -p gauss_bench --bin fig1_example`

use gauss_workloads::figure1;
use pfv::CombineMode;

fn main() {
    let paper_dist = [1.53, 1.97, 1.74];
    let paper_prob = [0.10, 0.13, 0.77];

    println!("Figure 1 / §3 example — 3 database objects, 1 query");
    println!();
    let db = figure1::database();
    let q = figure1::query();
    println!("query: {q}");
    for (name, v) in figure1::OBJECT_NAMES.iter().zip(db.iter()) {
        println!("{name}:    {v}");
    }
    println!();

    let d = figure1::euclidean_distances();
    let p = figure1::posteriors(CombineMode::Convolution);
    let p_add = figure1::posteriors(CombineMode::AdditiveSigma);

    println!(
        "{:<6} {:>12} {:>12} {:>14} {:>12} {:>16}",
        "object", "dist (ours)", "dist (paper)", "P(v|q) ours", "P paper", "P additive-mode"
    );
    for i in 0..3 {
        println!(
            "{:<6} {:>12.2} {:>12.2} {:>13.1}% {:>11.0}% {:>15.1}%",
            figure1::OBJECT_NAMES[i],
            d[i],
            paper_dist[i],
            100.0 * p[i],
            100.0 * paper_prob[i],
            100.0 * p_add[i],
        );
    }
    println!();

    let nn = (0..3).min_by(|&a, &b| d[a].total_cmp(&d[b])).unwrap();
    let ml = (0..3).max_by(|&a, &b| p[a].total_cmp(&p[b])).unwrap();
    println!(
        "Euclidean NN picks {} (wrong); 1-MLIQ picks {} (correct).",
        figure1::OBJECT_NAMES[nn],
        figure1::OBJECT_NAMES[ml]
    );
    let tiq: Vec<&str> = (0..3)
        .filter(|&i| p[i] >= 0.12)
        .map(|i| figure1::OBJECT_NAMES[i])
        .collect();
    println!("TIQ(Pθ = 12%) reports: {}", tiq.join(", "));
}
