//! Query generation (paper §6).
//!
//! "A total number of 100 objects was randomly selected and a new observed
//! mean value was generated w.r.t. the corresponding Gaussian. For these
//! queries, new standard deviations were randomly generated."

use crate::dataset::{sample_standard_normal, Dataset, SigmaSpec};
use pfv::Pfv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One identification query with its ground truth.
#[derive(Debug, Clone)]
pub struct IdentificationQuery {
    /// The probabilistic query vector (new observation of the object).
    pub query: Pfv,
    /// Index of the database object the observation was generated from.
    pub truth: usize,
}

/// Generates `count` queries per the paper's protocol: distinct database
/// objects are selected, each feature is re-observed through the object's
/// own Gaussian (`x ~ N(μᵢ, σᵢ)`), and fresh uncertainties are drawn from
/// `query_sigma`.
///
/// # Panics
/// Panics if `count > dataset.len()` or the data set is empty.
#[must_use]
pub fn generate_queries(
    dataset: &Dataset,
    count: usize,
    query_sigma: SigmaSpec,
    seed: u64,
) -> Vec<IdentificationQuery> {
    assert!(!dataset.is_empty(), "cannot query an empty data set");
    assert!(
        count <= dataset.len(),
        "cannot select {count} distinct objects from {}",
        dataset.len()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Partial Fisher–Yates for distinct object selection.
    let mut ids: Vec<usize> = (0..dataset.len()).collect();
    for i in 0..count {
        let j = rng.random_range(i..ids.len());
        ids.swap(i, j);
    }
    ids.truncate(count);

    ids.into_iter()
        .map(|truth| IdentificationQuery {
            query: observe(dataset, truth, query_sigma, &mut rng),
            truth,
        })
        .collect()
}

/// Re-observes object `truth` through its own Gaussians with fresh
/// uncertainties from `query_sigma` (the §6 protocol for one query).
#[expect(clippy::expect_used, reason = "the generator draws positive sigmas")]
fn observe(dataset: &Dataset, truth: usize, query_sigma: SigmaSpec, rng: &mut StdRng) -> Pfv {
    let v = &dataset.objects[truth];
    let means: Vec<f64> = v
        .means()
        .iter()
        .zip(v.sigmas().iter())
        .map(|(&m, &s)| m + s * sample_standard_normal(rng))
        .collect();
    let sigmas = query_sigma.draw_object_for(rng, &means);
    Pfv::new(means, sigmas).expect("generated query is valid")
}

/// Generates a throughput-style batch of `count` queries by sampling source
/// objects **with replacement**, so `count` may exceed the database size —
/// the shape a concurrent batch executor or a serving benchmark wants, as
/// opposed to [`generate_queries`]'s distinct-truth protocol for
/// effectiveness measurements.
///
/// Deterministic per `(dataset, count, query_sigma, seed)`.
///
/// # Panics
/// Panics if the data set is empty.
#[must_use]
pub fn generate_query_batch(
    dataset: &Dataset,
    count: usize,
    query_sigma: SigmaSpec,
    seed: u64,
) -> Vec<Pfv> {
    assert!(!dataset.is_empty(), "cannot query an empty data set");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let truth = rng.random_range(0..dataset.len());
            observe(dataset, truth, query_sigma, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::uniform_dataset;

    fn ds() -> Dataset {
        uniform_dataset(200, 5, SigmaSpec::uniform(0.05, 0.15), 11)
    }

    #[test]
    fn queries_have_distinct_truths() {
        let qs = generate_queries(&ds(), 100, SigmaSpec::uniform(0.05, 0.15), 1);
        assert_eq!(qs.len(), 100);
        let mut truths: Vec<usize> = qs.iter().map(|q| q.truth).collect();
        truths.sort_unstable();
        truths.dedup();
        assert_eq!(truths.len(), 100, "duplicate ground-truth objects");
    }

    #[test]
    fn observed_means_near_source_object() {
        let data = ds();
        let qs = generate_queries(&data, 50, SigmaSpec::uniform(0.05, 0.15), 2);
        for q in &qs {
            let src = &data.objects[q.truth];
            for i in 0..src.dims() {
                let (m, s) = src.component(i);
                let obs = q.query.means()[i];
                assert!(
                    (obs - m).abs() < 6.0 * s,
                    "observation {obs} too far from N({m}, {s})"
                );
            }
        }
    }

    #[test]
    fn query_sigmas_come_from_query_spec() {
        let data = ds();
        let spec = SigmaSpec::uniform(0.3, 0.4);
        let qs = generate_queries(&data, 20, spec, 3);
        for q in &qs {
            assert!(q.query.sigmas().iter().all(|&s| (0.3..=0.4).contains(&s)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let data = ds();
        let a = generate_queries(&data, 10, SigmaSpec::uniform(0.1, 0.2), 5);
        let b = generate_queries(&data, 10, SigmaSpec::uniform(0.1, 0.2), 5);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.truth, y.truth);
            assert_eq!(x.query, y.query);
        }
    }

    #[test]
    #[should_panic(expected = "distinct objects")]
    fn rejects_oversampling() {
        let _ = generate_queries(&ds(), 1000, SigmaSpec::uniform(0.1, 0.2), 1);
    }

    #[test]
    fn batch_allows_more_queries_than_objects() {
        let data = ds();
        let batch = generate_query_batch(&data, 1000, SigmaSpec::uniform(0.1, 0.2), 7);
        assert_eq!(batch.len(), 1000);
        assert!(batch.iter().all(|q| q.dims() == data.dims()));
    }

    #[test]
    fn batch_deterministic_per_seed() {
        let data = ds();
        let a = generate_query_batch(&data, 32, SigmaSpec::uniform(0.1, 0.2), 5);
        let b = generate_query_batch(&data, 32, SigmaSpec::uniform(0.1, 0.2), 5);
        assert_eq!(a, b);
        let c = generate_query_batch(&data, 32, SigmaSpec::uniform(0.1, 0.2), 6);
        assert_ne!(a, c, "different seeds should give different batches");
    }
}
