//! Face identification — the paper's §1 motivation end to end.
//!
//! A gallery of "face templates" is enrolled where every template carries
//! per-feature uncertainties depending on capture quality (illumination,
//! rotation). Probe observations are then identified. Conventional
//! Euclidean NN on the raw feature values picks the wrong person whenever
//! noisy features dominate the distance; the Gaussian uncertainty model
//! weighs every feature by its combined uncertainty and recovers the right
//! one.
//!
//! Run: `cargo run --release --example face_identification`

use gausstree::baselines::euclidean_knn;
use gausstree::pfv::Pfv;
use gausstree::storage::{AccessStats, MemStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, TreeConfig};
use gausstree::workloads::dataset::sample_standard_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: usize = 8; // facial proportions, nose breadth, eye distance, …
const GALLERY: usize = 500;
const PROBES: usize = 60;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // Enrol the gallery: true biometric vectors plus capture-quality σ.
    // A well-lit frontal capture has σ ≈ 0.02; a poor capture up to ≈ 0.5.
    let truths: Vec<Vec<f64>> = (0..GALLERY)
        .map(|_| (0..DIMS).map(|_| rng.random::<f64>() * 4.0).collect())
        .collect();
    let gallery: Vec<Pfv> = truths
        .iter()
        .map(|t| {
            let quality: f64 = rng.random_range(0.02..0.5);
            let sigmas: Vec<f64> = (0..DIMS)
                .map(|_| quality * rng.random_range(0.5..2.0))
                .collect();
            let means: Vec<f64> = t
                .iter()
                .zip(sigmas.iter())
                .map(|(&x, &s)| x + s * sample_standard_normal(&mut rng))
                .collect();
            Pfv::new(means, sigmas).unwrap()
        })
        .collect();

    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        4096,
        AccessStats::new_shared(),
    );
    let tree = GaussTree::bulk_load(
        pool,
        TreeConfig::new(DIMS),
        gallery
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v.clone())),
    )
    .unwrap();

    // Probe observations: re-capture known individuals under new conditions.
    let mut nn_correct = 0;
    let mut mliq_correct = 0;
    let mut example_shown = false;
    for _ in 0..PROBES {
        let person = rng.random_range(0..GALLERY);
        let quality: f64 = rng.random_range(0.02..0.5);
        let sigmas: Vec<f64> = (0..DIMS)
            .map(|_| quality * rng.random_range(0.5..2.0))
            .collect();
        let means: Vec<f64> = truths[person]
            .iter()
            .zip(sigmas.iter())
            .map(|(&x, &s)| x + s * sample_standard_normal(&mut rng))
            .collect();
        let probe = Pfv::new(means, sigmas).unwrap();

        let nn = euclidean_knn(&gallery, &probe, 1)[0].0;
        let mliq = tree.k_mliq_refined(&probe, 1, 1e-4).unwrap();
        let ml_id = mliq[0].id as usize;

        if nn == person {
            nn_correct += 1;
        }
        if ml_id == person {
            mliq_correct += 1;
        }
        if !example_shown && nn != person && ml_id == person {
            println!("example probe where Euclidean NN fails:");
            println!("  true person:  #{person}");
            println!("  Euclidean NN: #{nn}  (wrong — misled by noisy features)");
            println!(
                "  1-MLIQ:       #{} with P = {:.1}%  (correct)",
                ml_id,
                100.0 * mliq[0].probability
            );
            println!();
            example_shown = true;
        }
    }

    println!(
        "identification rate over {PROBES} probes: Euclidean NN {:.0}%, 1-MLIQ {:.0}%",
        100.0 * f64::from(nn_correct) / PROBES as f64,
        100.0 * f64::from(mliq_correct) / PROBES as f64,
    );
    assert!(
        mliq_correct >= nn_correct,
        "the model should not lose to NN"
    );
}
