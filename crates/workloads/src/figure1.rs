//! The running example of paper §3 (Figure 1).
//!
//! Three facial images in the database and one query image, described by two
//! probabilistic features: F1 is sensitive to the rotational angle, F2 to
//! illumination.
//!
//! * O1 — taken under good conditions: both features accurate;
//! * O2 — rotation *and* illumination bad: both features uncertain;
//! * O3 — rotation bad, illumination good;
//! * query — rotation good, illumination bad.
//!
//! The paper reports identification probabilities of 77 % (O3), 13 % (O2)
//! and 10 % (O1) while the Euclidean distances (1.53, 1.97, 1.74) would
//! make O1 the nearest neighbour — i.e. plain similarity search returns the
//! wrong person. The paper does not print the coordinates behind its
//! figure; the constants below were fitted to reproduce the Euclidean
//! distances exactly and the probabilities closely, preserving every
//! qualitative relation (O3 wins by a wide margin, O1 is the misleading
//! Euclidean NN).

use pfv::{CombineMode, Pfv};

/// Names of the three database objects, in id order.
pub const OBJECT_NAMES: [&str; 3] = ["O1", "O2", "O3"];

/// The three database pfv of Figure 1 (ids 0, 1, 2 = O1, O2, O3).
#[must_use]
#[expect(clippy::expect_used, reason = "paper constants with positive sigmas")]
pub fn database() -> Vec<Pfv> {
    vec![
        // O1: both features accurate.
        Pfv::new(vec![1.05, 1.113], vec![0.3, 0.3]).expect("valid"),
        // O2: both features uncertain.
        Pfv::new(vec![1.85, 0.677], vec![0.8, 2.8]).expect("valid"),
        // O3: rotation (F1) uncertain, illumination (F2) accurate.
        Pfv::new(vec![1.6, 0.684], vec![2.5, 0.3]).expect("valid"),
    ]
}

/// The query pfv: rotation good (accurate F1), illumination bad
/// (uncertain F2).
#[must_use]
#[expect(clippy::expect_used, reason = "paper constants with positive sigmas")]
pub fn query() -> Pfv {
    Pfv::new(vec![0.0, 0.0], vec![0.2, 2.0]).expect("valid")
}

/// Identification probabilities `P(Oᵢ|q)` of the scenario.
#[must_use]
pub fn posteriors(mode: CombineMode) -> Vec<f64> {
    pfv::posteriors(mode, &database(), &query())
        .into_iter()
        .map(|p| p.probability)
        .collect()
}

/// Euclidean mean distances `d(q, Oᵢ)` — what conventional similarity
/// search would rank by.
#[must_use]
pub fn euclidean_distances() -> Vec<f64> {
    let q = query();
    database()
        .iter()
        .map(|o| q.euclidean_mean_distance(o))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_distances_match_paper() {
        let d = euclidean_distances();
        assert!((d[0] - 1.53).abs() < 0.01, "d(Q,O1) = {}", d[0]);
        assert!((d[1] - 1.97).abs() < 0.01, "d(Q,O2) = {}", d[1]);
        assert!((d[2] - 1.74).abs() < 0.01, "d(Q,O3) = {}", d[2]);
    }

    #[test]
    fn euclidean_nn_is_the_wrong_object() {
        let d = euclidean_distances();
        // O1 is the nearest neighbour by means…
        assert!(d[0] < d[1] && d[0] < d[2]);
        // …but O3 has the dominant identification probability.
        let p = posteriors(CombineMode::Convolution);
        assert!(p[2] > p[0] && p[2] > p[1]);
    }

    #[test]
    fn probabilities_close_to_paper() {
        let p = posteriors(CombineMode::Convolution);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(
            (0.65..0.88).contains(&p[2]),
            "P(O3) = {} (paper: 0.77)",
            p[2]
        );
        assert!(
            (0.03..0.20).contains(&p[0]),
            "P(O1) = {} (paper: 0.10)",
            p[0]
        );
        assert!(
            (0.06..0.25).contains(&p[1]),
            "P(O2) = {} (paper: 0.13)",
            p[1]
        );
    }

    #[test]
    fn mliq_and_tiq_semantics_on_the_example() {
        // k-MLIQ with k=1 reports O3; a TIQ with Pθ = 12 % additionally
        // reports O2 (paper §3).
        let p = posteriors(CombineMode::Convolution);
        let mut ranked: Vec<usize> = (0..3).collect();
        ranked.sort_by(|&a, &b| p[b].total_cmp(&p[a]));
        assert_eq!(ranked[0], 2, "1-MLIQ must report O3");
        let tiq_12: Vec<usize> = (0..3).filter(|&i| p[i] >= 0.12).collect();
        assert!(tiq_12.contains(&2));
        assert!(tiq_12.contains(&1), "TIQ(12%) should include O2, p = {p:?}");
        assert!(!tiq_12.contains(&0));
    }
}
