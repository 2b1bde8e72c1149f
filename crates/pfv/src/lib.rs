//! Probabilistic feature vectors (pfv) and the Gaussian uncertainty model.
//!
//! This crate implements the mathematical substrate of
//! *"The Gauss-Tree: Efficient Object Identification in Databases of
//! Probabilistic Feature Vectors"* (Böhm, Pryakhin, Schubert — ICDE 2006):
//!
//! * [`Pfv`] — a feature vector where every feature value `μᵢ` carries an
//!   uncertainty `σᵢ`, so the (unknown) true value is modelled by the
//!   univariate Gaussian `N(μᵢ, σᵢ)` (Definition 1 of the paper);
//! * [`combine`] — Lemma 1: the joint probability density that a query pfv
//!   and a database pfv describe the same true object;
//! * [`bayes`] — the Bayesian normalisation `P(v|q) = p(q|v) / Σ_w p(q|w)`
//!   that turns relative densities into identification probabilities;
//! * [`hull`] — Lemmas 2 and 3: conservative upper and lower bounds on all
//!   Gaussians whose parameters lie inside a rectangle of the `(μ, σ)`
//!   parameter space, plus the closed-form hull integral that drives the
//!   Gauss-tree split strategy;
//! * [`phi`] — the Gaussian CDF both as a high-accuracy `erf`-based
//!   implementation and as the degree-5 polynomial sigmoid approximation the
//!   paper mentions in §5.3;
//! * [`logsum`] — numerically robust log-space accumulation (products of 27
//!   univariate densities overflow/underflow `f64` in linear space);
//! * [`batch`] — struct-of-arrays leaf columns ([`ColumnarLeaf`]) and the
//!   vectorized Lemma-1 kernels: the exact batch kernel
//!   [`batch::log_densities`] (bit-identical to the scalar path — the
//!   *refine* tier) and the conservative-bounds kernel
//!   [`batch::screen_densities`] (the *screen* tier: one `ln` per entry,
//!   abandoned as soon as a dimension prefix rules a lane block out);
//! * [`rects`] — the same layout for an inner node's parameter rectangles
//!   ([`ColumnarRects`]): the exact Lemma-2/3 bounds bit-identical to
//!   [`ParamRect`]'s, and a screen that brackets every child's exact upper
//!   bound for one `ln` per child;
//! * [`quant`] — checked `f64 → f32` quantisation for compressed leaves
//!   and the outward-rounded hull correction that keeps pruning over
//!   quantised parameters conservative.
//!
//! All probability-density computations are performed in **log space**; the
//! linear-space entry points are thin wrappers provided for convenience and
//! for small dimensionalities.

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

/// Columnar leaf layout with batched density kernels.
pub mod batch;
/// Bayes-rule posteriors over candidate result sets.
pub mod bayes;
/// Combining per-dimension bounds into pfv scores.
pub mod combine;
/// Univariate Gaussian parameters and densities.
pub mod gaussian;
/// Piecewise hull bounds on the Gaussian density term.
pub mod hull;
/// Anchored log-sum-exp accumulation.
pub mod logsum;
/// The standard normal CDF and related special functions.
pub mod phi;
/// Numeric integration fallbacks for validation.
pub mod quadrature;
/// Checked f32 quantisation with outward-rounded hull correction.
pub mod quant;
/// Columnar inner-node rectangles with exact and screened hull kernels.
pub mod rects;
/// Probabilistic feature vectors (vectors of Gaussians).
pub mod vector;

pub use batch::{ColumnarLeaf, FastScratch};
pub use bayes::{posterior, posteriors, Posterior};
pub use combine::CombineMode;
pub use gaussian::Gaussian;
pub use hull::{DimBounds, ParamRect};
pub use logsum::{log_add_exp, log_sum_exp, LogSumAcc, ScaledSum};
pub use rects::ColumnarRects;
pub use vector::{Pfv, PfvError};

/// Smallest admissible standard deviation.
///
/// The model breaks down for `σ = 0` (a Dirac spike has unbounded density);
/// every constructor clamps σ to this floor. The floor is far below any
/// uncertainty produced by a physical sensor, so clamping does not affect
/// realistic workloads.
pub const MIN_SIGMA: f64 = 1e-9;

/// `ln √(2π)` — the normalisation constant of the Gaussian log-density.
pub const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// `1 / √(2πe)` — the peak density of the Lemma-2 case (II)/(VI) ridge,
/// i.e. `N_{μ̌, μ̌−x}(x) = 1 / (√(2πe) · (μ̌−x))`.
pub const INV_SQRT_2PI_E: f64 = 0.241_970_724_519_143_37;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        let ln_sqrt_2pi = (2.0 * std::f64::consts::PI).sqrt().ln();
        assert!((LN_SQRT_2PI - ln_sqrt_2pi).abs() < 1e-15);
        let inv = 1.0 / (2.0 * std::f64::consts::PI * std::f64::consts::E).sqrt();
        assert!((INV_SQRT_2PI_E - inv).abs() < 1e-15);
    }
}
