//! Evaluation data sets (paper §6).

use pfv::Pfv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How per-dimension standard deviations are drawn.
///
/// The paper "complemented each dimension with a randomly generated standard
/// deviation"; we draw `σ ~ U(min, max)` independently per object and
/// dimension, which produces exactly the heteroscedastic mix of precise and
/// imprecise features the model targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmaSpec {
    /// Smallest σ.
    pub min: f64,
    /// Largest σ.
    pub max: f64,
    /// Draw uniformly in log space instead of linearly. Log-uniform σ gives
    /// the strongly heteroscedastic regime the paper motivates: most
    /// features precise, a few very noisy.
    pub log_scale: bool,
    /// Per-object quality multiplier range (log-uniform). The paper's
    /// motivation is exactly this: "the circumstances in which a given data
    /// object is transformed into a feature vector may strongly vary" — a
    /// blurry photo is uncertain in *every* feature. A per-object scale
    /// correlates the σ values of one object, which is also what lets the
    /// Gauss-tree's σ-splits (§5.3) group selective and unselective objects
    /// into different subtrees. `(1, 1)` disables it.
    pub object_scale: (f64, f64),
    /// When `Some(floor)`, drawn values are *relative factors*: the final σ
    /// of a feature is `factor · (value + floor)`. Measurement error of a
    /// histogram bin (or any magnitude-like feature) scales with the
    /// measured value — an empty colour bin is known to be empty, a heavy
    /// bin carries proportional noise. `floor` is the additive sensor noise
    /// floor. `None` keeps σ absolute.
    pub relative_floor: Option<f64>,
}

impl SigmaSpec {
    /// Uniform σ in `[min, max]`.
    ///
    /// # Panics
    /// Panics unless `0 <= min <= max`.
    #[must_use]
    pub fn uniform(min: f64, max: f64) -> Self {
        assert!(
            min >= 0.0 && min <= max,
            "invalid sigma range [{min}, {max}]"
        );
        Self {
            min,
            max,
            log_scale: false,
            object_scale: (1.0, 1.0),
            relative_floor: None,
        }
    }

    /// Log-uniform σ in `[min, max]`.
    ///
    /// # Panics
    /// Panics unless `0 < min <= max`.
    #[must_use]
    pub fn log_uniform(min: f64, max: f64) -> Self {
        assert!(
            min > 0.0 && min <= max,
            "invalid sigma range [{min}, {max}]"
        );
        Self {
            min,
            max,
            log_scale: true,
            object_scale: (1.0, 1.0),
            relative_floor: None,
        }
    }

    /// Adds a per-object quality multiplier (log-uniform in
    /// `[scale_min, scale_max]`).
    ///
    /// # Panics
    /// Panics unless `0 < scale_min <= scale_max`.
    #[must_use]
    pub fn with_object_scale(mut self, scale_min: f64, scale_max: f64) -> Self {
        assert!(
            scale_min > 0.0 && scale_min <= scale_max,
            "invalid object scale range [{scale_min}, {scale_max}]"
        );
        self.object_scale = (scale_min, scale_max);
        self
    }

    /// Draws one σ (without any per-object scaling).
    pub fn draw(&self, rng: &mut impl Rng) -> f64 {
        if self.min == self.max {
            self.min
        } else if self.log_scale {
            rng.random_range(self.min.ln()..self.max.ln()).exp()
        } else {
            rng.random_range(self.min..self.max)
        }
    }

    /// Draws the per-object quality multiplier.
    pub fn draw_scale(&self, rng: &mut impl Rng) -> f64 {
        let (lo, hi) = self.object_scale;
        if lo == hi {
            lo
        } else {
            rng.random_range(lo.ln()..hi.ln()).exp()
        }
    }

    /// Makes the drawn values relative factors on the feature value, with
    /// additive noise floor `floor` (see [`SigmaSpec::relative_floor`]).
    ///
    /// # Panics
    /// Panics if `floor < 0`.
    #[must_use]
    pub fn relative_to_value(mut self, floor: f64) -> Self {
        assert!(floor >= 0.0, "noise floor must be non-negative");
        self.relative_floor = Some(floor);
        self
    }

    /// Draws a full σ vector for one object: per-dimension draws times the
    /// object's quality multiplier, optionally scaled by the feature values
    /// (`means`).
    ///
    /// # Panics
    /// Panics in relative mode if `means.len() != dims` requested.
    pub fn draw_object_for(&self, rng: &mut impl Rng, means: &[f64]) -> Vec<f64> {
        let scale = self.draw_scale(rng);
        means
            .iter()
            .map(|&m| {
                let base = scale * self.draw(rng);
                match self.relative_floor {
                    Some(floor) => base * (m.abs() + floor),
                    None => base,
                }
            })
            .collect()
    }

    /// Draws a full σ vector for one object without value scaling.
    pub fn draw_object(&self, rng: &mut impl Rng, dims: usize) -> Vec<f64> {
        assert!(
            self.relative_floor.is_none(),
            "relative SigmaSpec needs draw_object_for with the feature values"
        );
        let scale = self.draw_scale(rng);
        (0..dims).map(|_| scale * self.draw(rng)).collect()
    }
}

/// A generated evaluation data set.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name ("data set 1", …).
    pub name: String,
    /// The stored pfv; index == object id.
    pub objects: Vec<Pfv>,
}

impl Dataset {
    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the data set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Dimensionality.
    ///
    /// # Panics
    /// Panics on an empty data set.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.objects[0].dims()
    }

    /// `(id, pfv)` pairs for index builders.
    #[must_use]
    pub fn items(&self) -> Vec<(u64, Pfv)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v.clone()))
            .collect()
    }
}

/// Data set 1 analogue: `n` histogram-like vectors with `dims` bins.
///
/// Colour histograms of natural images are non-negative, sum to one,
/// concentrate their mass in a handful of dominant bins, and — crucially for
/// any index — *cluster*: images of similar scenes share their dominant
/// colours. We reproduce that structure with a mixture model: a few hundred
/// cluster prototypes pick 3–8 active bins with exponential weights; each
/// object perturbs its prototype's weights multiplicatively (log-normal
/// jitter) and occasionally adds one extra low-mass bin, then renormalises.
/// Objects within a cluster are therefore correlated but pairwise distinct.
/// σ values are drawn from `sigma` independently per object and dimension,
/// exactly as the paper attaches "randomly generated standard deviations".
#[must_use]
#[expect(clippy::expect_used, reason = "the generator draws positive sigmas")]
pub fn histogram_dataset(n: usize, dims: usize, sigma: SigmaSpec, seed: u64) -> Dataset {
    assert!(dims >= 2, "histograms need at least 2 bins");
    let mut rng = StdRng::seed_from_u64(seed);
    let n_clusters = (n / 100).clamp(4, 512);

    struct Proto {
        bins: Vec<usize>,
        weights: Vec<f64>,
    }
    let protos: Vec<Proto> = (0..n_clusters)
        .map(|_| {
            let active = rng.random_range(3..=8.min(dims));
            let mut bins: Vec<usize> = (0..dims).collect();
            for i in 0..active {
                let j = rng.random_range(i..dims);
                bins.swap(i, j);
            }
            bins.truncate(active);
            let weights: Vec<f64> = (0..active)
                .map(|_| -(rng.random::<f64>().max(1e-12)).ln())
                .collect();
            Proto { bins, weights }
        })
        .collect();

    let objects = (0..n)
        .map(|_| {
            let proto = &protos[rng.random_range(0..protos.len())];
            let mut means = vec![0.0f64; dims];
            for (i, &bin) in proto.bins.iter().enumerate() {
                // Log-normal weight jitter keeps objects of one cluster
                // similar yet distinguishable.
                let jitter = (0.55 * sample_standard_normal(&mut rng)).exp();
                means[bin] = proto.weights[i] * jitter;
            }
            // Occasionally an image has one extra minor colour.
            if rng.random::<f64>() < 0.3 {
                let extra = rng.random_range(0..dims);
                means[extra] += 0.1 * rng.random::<f64>();
            }
            let total: f64 = means.iter().sum();
            means.iter_mut().for_each(|m| *m /= total);
            let sigmas = sigma.draw_object_for(&mut rng, &means);
            Pfv::new(means, sigmas).expect("generated pfv is valid")
        })
        .collect();
    Dataset {
        name: format!("histogram({n}×{dims}d, {n_clusters} clusters)"),
        objects,
    }
}

/// Data set 2: `n` uniformly distributed vectors in `[0, 1]^dims` with
/// random σ.
#[must_use]
#[expect(clippy::expect_used, reason = "the generator draws positive sigmas")]
pub fn uniform_dataset(n: usize, dims: usize, sigma: SigmaSpec, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = (0..n)
        .map(|_| {
            let means: Vec<f64> = (0..dims).map(|_| rng.random::<f64>()).collect();
            let sigmas = sigma.draw_object_for(&mut rng, &means);
            Pfv::new(means, sigmas).expect("generated pfv is valid")
        })
        .collect();
    Dataset {
        name: format!("uniform({n}×{dims}d)"),
        objects,
    }
}

/// Standard Gaussian sample via Box–Muller (rand's distributions are kept
/// out of the dependency set; two uniforms suffice).
pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_rows_sum_to_one() {
        let ds = histogram_dataset(50, 27, SigmaSpec::uniform(0.01, 0.1), 7);
        assert_eq!(ds.len(), 50);
        assert_eq!(ds.dims(), 27);
        for v in &ds.objects {
            let total: f64 = v.means().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "sum {total}");
            assert!(v.means().iter().all(|&m| m >= 0.0));
            // Sparse: at most 8 prototype bins + 1 occasional extra.
            let active = v.means().iter().filter(|&&m| m > 1e-12).count();
            assert!((3..=9).contains(&active), "{active} active bins");
        }
    }

    #[test]
    fn uniform_means_in_unit_cube() {
        let ds = uniform_dataset(100, 10, SigmaSpec::uniform(0.02, 0.2), 3);
        for v in &ds.objects {
            assert!(v.means().iter().all(|&m| (0.0..=1.0).contains(&m)));
            assert!(v.sigmas().iter().all(|&s| (0.02..=0.2).contains(&s)));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = uniform_dataset(20, 4, SigmaSpec::uniform(0.1, 0.2), 42);
        let b = uniform_dataset(20, 4, SigmaSpec::uniform(0.1, 0.2), 42);
        let c = uniform_dataset(20, 4, SigmaSpec::uniform(0.1, 0.2), 43);
        assert_eq!(a.objects, b.objects);
        assert_ne!(a.objects, c.objects);
    }

    #[test]
    fn box_muller_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn sigma_spec_degenerate_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = SigmaSpec::uniform(0.3, 0.3);
        assert_eq!(s.draw(&mut rng), 0.3);
    }

    #[test]
    #[should_panic(expected = "invalid sigma range")]
    fn sigma_spec_rejects_reversed() {
        let _ = SigmaSpec::uniform(0.5, 0.1);
    }

    #[test]
    fn items_enumerate_ids() {
        let ds = uniform_dataset(5, 2, SigmaSpec::uniform(0.1, 0.2), 9);
        let items = ds.items();
        for (i, (id, v)) in items.iter().enumerate() {
            assert_eq!(*id, i as u64);
            assert_eq!(v, &ds.objects[i]);
        }
    }
}
