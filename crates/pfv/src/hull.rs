//! Conservative bounds over rectangles of the `(μ, σ)` parameter space.
//!
//! A Gauss-tree node stores, per probabilistic feature, a *minimum bounding
//! rectangle* `[μ̌, μ̂] × [σ̌, σ̂]` of the parameters of all Gaussians in its
//! subtree. Query processing needs
//!
//! * `N̂(x) = max { N_{μ,σ}(x) : μ∈[μ̌,μ̂], σ∈[σ̌,σ̂] }` — Lemma 2, an exact
//!   piecewise closed form with seven cases;
//! * `Ň(x) = min { … }` — Lemma 3, the minimum over the four corners;
//! * `∫ N̂(x) dx` — the access-probability proxy minimised by the split
//!   strategy (paper §5.3), for which we derive the closed form
//!
//!   ```text
//!   ∫ N̂ = 1 + (μ̂−μ̌)/(√(2π)·σ̌) + 2·ln(σ̂/σ̌)/√(2πe)
//!   ```
//!
//!   (cases I+III+V+VII integrate to exactly 2·Φ(0) = 1; case IV is a
//!   constant strip; cases II/VI integrate the ridge `1/(√(2πe)(μ̌−x))`).
//!
//! For a probabilistic *query* `q = (μq, σq)` the bounds are evaluated after
//! substituting the Lemma-1 combined σ: the node's σ-interval `[σ̌, σ̂]` maps
//! to `[c(σ̌,σq), c(σ̂,σq)]`, which is again an interval because every
//! [`CombineMode`] is monotone in σv. Evaluating the hull over the mapped
//! rectangle at `x = μq` is therefore a conservative bound on `p(q|v)` for
//! every pfv `v` in the node.

use crate::combine::CombineMode;
use crate::gaussian::{log_pdf, log_peak};
use crate::phi::PhiImpl;
use crate::vector::Pfv;
use crate::{INV_SQRT_2PI_E, LN_SQRT_2PI, MIN_SIGMA};

/// Parameter-space bounds of one probabilistic feature:
/// `μ ∈ [mu_lo, mu_hi]`, `σ ∈ [sigma_lo, sigma_hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimBounds {
    /// Lower bound μ̌ of the feature value.
    pub mu_lo: f64,
    /// Upper bound μ̂ of the feature value.
    pub mu_hi: f64,
    /// Lower bound σ̌ of the uncertainty.
    pub sigma_lo: f64,
    /// Upper bound σ̂ of the uncertainty.
    pub sigma_hi: f64,
}

impl DimBounds {
    /// Bounds covering exactly one parameter point.
    #[must_use]
    pub fn point(mu: f64, sigma: f64) -> Self {
        let sigma = sigma.max(MIN_SIGMA);
        Self {
            mu_lo: mu,
            mu_hi: mu,
            sigma_lo: sigma,
            sigma_hi: sigma,
        }
    }

    /// Explicit bounds, each `σ` raised to [`MIN_SIGMA`].
    ///
    /// A bound may be infinite on its outer side only — `μ̌ = −∞`,
    /// `μ̂ = +∞`, `σ̂ = +∞` — where rounding an inner node's rectangle
    /// outward to `f32` puts a bound beyond the `f32` range
    /// ([`crate::quant::round_outward`]). The Lemma-2/3 bounds, the hull
    /// integral and the query adjustment take such a rectangle without a NaN.
    ///
    /// # Panics
    /// Panics if a bound is NaN or infinite on its inner side (`μ̌ = +∞`,
    /// `μ̂ = −∞`, `σ̌` infinite), or if the bounds are reversed.
    #[must_use]
    pub fn new(mu_lo: f64, mu_hi: f64, sigma_lo: f64, sigma_hi: f64) -> Self {
        assert!(
            mu_lo < f64::INFINITY && mu_hi > f64::NEG_INFINITY && sigma_lo.is_finite(),
            "bounds must be finite on their inner side: \
             [{mu_lo}, {mu_hi}] × [{sigma_lo}, {sigma_hi}]"
        );
        assert!(mu_lo <= mu_hi, "reversed mu bounds: {mu_lo} > {mu_hi}");
        assert!(
            sigma_lo <= sigma_hi,
            "reversed sigma bounds: {sigma_lo} > {sigma_hi}"
        );
        Self {
            mu_lo,
            mu_hi,
            sigma_lo: sigma_lo.max(MIN_SIGMA),
            sigma_hi: sigma_hi.max(MIN_SIGMA),
        }
    }

    /// Smallest bounds containing both `self` and `other`.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        Self {
            mu_lo: self.mu_lo.min(other.mu_lo),
            mu_hi: self.mu_hi.max(other.mu_hi),
            sigma_lo: self.sigma_lo.min(other.sigma_lo),
            sigma_hi: self.sigma_hi.max(other.sigma_hi),
        }
    }

    /// Extends the bounds to contain the parameter point `(μ, σ)`.
    pub fn extend(&mut self, mu: f64, sigma: f64) {
        self.mu_lo = self.mu_lo.min(mu);
        self.mu_hi = self.mu_hi.max(mu);
        self.sigma_lo = self.sigma_lo.min(sigma.max(MIN_SIGMA));
        self.sigma_hi = self.sigma_hi.max(sigma);
    }

    /// Whether the parameter point `(μ, σ)` lies inside.
    #[must_use]
    pub fn contains(&self, mu: f64, sigma: f64) -> bool {
        self.mu_lo <= mu && mu <= self.mu_hi && self.sigma_lo <= sigma && sigma <= self.sigma_hi
    }

    /// Whether `other` lies entirely inside `self`.
    #[must_use]
    pub fn contains_bounds(&self, other: &Self) -> bool {
        self.mu_lo <= other.mu_lo
            && other.mu_hi <= self.mu_hi
            && self.sigma_lo <= other.sigma_lo
            && other.sigma_hi <= self.sigma_hi
    }

    /// Lemma 2: `ln N̂(x)` — the log of the conservative upper bound.
    ///
    /// Case numbering follows the paper:
    /// (I) far left, (II) left ridge, (III) left Gaussian shoulder,
    /// (IV) plateau, (V) right shoulder, (VI) right ridge, (VII) far right.
    #[must_use]
    pub fn log_upper(&self, x: f64) -> f64 {
        if x < self.mu_lo {
            let dist = self.mu_lo - x;
            if dist >= self.sigma_hi {
                // (I): maximiser at (μ̌, σ̂)
                log_pdf(self.mu_lo, self.sigma_hi, x)
            } else if dist >= self.sigma_lo {
                // (II): interior maximiser σ = μ̌ − x;
                // N_{μ̌, μ̌−x}(x) = 1/(√(2πe)·(μ̌−x))
                INV_SQRT_2PI_E.ln() - dist.ln()
            } else {
                // (III): maximiser at (μ̌, σ̌)
                log_pdf(self.mu_lo, self.sigma_lo, x)
            }
        } else if x <= self.mu_hi {
            // (IV): peak of the narrowest Gaussian centred at x
            log_peak(self.sigma_lo)
        } else {
            let dist = x - self.mu_hi;
            if dist >= self.sigma_hi {
                // (VII)
                log_pdf(self.mu_hi, self.sigma_hi, x)
            } else if dist >= self.sigma_lo {
                // (VI)
                INV_SQRT_2PI_E.ln() - dist.ln()
            } else {
                // (V)
                log_pdf(self.mu_hi, self.sigma_lo, x)
            }
        }
    }

    /// Lemma 2 in linear space: `N̂(x)`.
    #[inline]
    #[must_use]
    pub fn upper(&self, x: f64) -> f64 {
        self.log_upper(x).exp()
    }

    /// Lemma 3: `ln Ň(x)` — the log of the conservative lower bound,
    /// the minimum over the four corner Gaussians.
    #[must_use]
    pub fn log_lower(&self, x: f64) -> f64 {
        let a = log_pdf(self.mu_lo, self.sigma_lo, x);
        let b = log_pdf(self.mu_lo, self.sigma_hi, x);
        let c = log_pdf(self.mu_hi, self.sigma_lo, x);
        let d = log_pdf(self.mu_hi, self.sigma_hi, x);
        a.min(b).min(c).min(d)
    }

    /// Lemma 3 in linear space: `Ň(x)`.
    #[inline]
    #[must_use]
    pub fn lower(&self, x: f64) -> f64 {
        self.log_lower(x).exp()
    }

    /// Maps the σ-interval through Lemma 1 for a probabilistic query with
    /// uncertainty `sigma_q`, producing the bounds against which the hull is
    /// evaluated at `x = μq` (paper §5.2: `N̂_{μ̌,μ̂,σ̌+σq,σ̂+σq}(μq)`).
    #[must_use]
    pub fn with_query_sigma(&self, sigma_q: f64, mode: CombineMode) -> Self {
        Self {
            mu_lo: self.mu_lo,
            mu_hi: self.mu_hi,
            sigma_lo: mode.combine_sigma(self.sigma_lo, sigma_q),
            sigma_hi: mode.combine_sigma(self.sigma_hi, sigma_q),
        }
    }

    /// Closed-form `∫_{−∞}^{+∞} N̂(x) dx` (see module docs).
    ///
    /// Always ≥ 1; equal to 1 only in the degenerate point-rectangle case.
    #[must_use]
    pub fn hull_integral(&self) -> f64 {
        let plateau =
            (self.mu_hi - self.mu_lo) / ((2.0 * std::f64::consts::PI).sqrt() * self.sigma_lo);
        let ridge = 2.0 * (self.sigma_hi / self.sigma_lo).ln() * INV_SQRT_2PI_E;
        1.0 + plateau + ridge
    }

    /// `∫ N̂` evaluated piecewise with a selectable Φ implementation — used
    /// by the `ablation_phi` benchmark to reproduce the paper's degree-5
    /// sigmoid-polynomial integration and compare it against the closed form.
    #[must_use]
    pub fn hull_integral_with_phi(&self, phi: PhiImpl) -> f64 {
        // (I): ∫_{-∞}^{μ̌−σ̂} N_{μ̌,σ̂} = Φ(−1)
        let far = phi.eval(-1.0);
        // (III): ∫_{μ̌−σ̌}^{μ̌} N_{μ̌,σ̌} = Φ(0) − Φ(−1)
        let shoulder = phi.eval(0.0) - phi.eval(-1.0);
        // (II): ln(σ̂/σ̌)/√(2πe)
        let ridge = (self.sigma_hi / self.sigma_lo).ln() * INV_SQRT_2PI_E;
        // (IV): (μ̂−μ̌)/(√(2π)σ̌)
        let plateau = (self.mu_hi - self.mu_lo) * (-(self.sigma_lo.ln()) - LN_SQRT_2PI).exp();
        2.0 * (far + shoulder + ridge) + plateau
    }

    /// Width of the μ interval.
    #[inline]
    #[must_use]
    pub fn mu_extent(&self) -> f64 {
        self.mu_hi - self.mu_lo
    }

    /// Width of the σ interval.
    #[inline]
    #[must_use]
    pub fn sigma_extent(&self) -> f64 {
        self.sigma_hi - self.sigma_lo
    }
}

/// Multidimensional parameter-space rectangle: one [`DimBounds`] per feature.
///
/// This is exactly the "entry of a non-leaf node" of Definition 4 — a
/// minimum bounding rectangle of dimensionality `2d`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamRect {
    dims: Box<[DimBounds]>,
}

impl ParamRect {
    /// A rectangle covering a single pfv.
    #[must_use]
    pub fn from_pfv(v: &Pfv) -> Self {
        let dims = (0..v.dims())
            .map(|i| {
                let (m, s) = v.component(i);
                DimBounds::point(m, s)
            })
            .collect();
        Self { dims }
    }

    /// Builds a rectangle from explicit per-dimension bounds.
    ///
    /// # Panics
    /// Panics on empty input.
    #[must_use]
    pub fn from_dims(dims: Vec<DimBounds>) -> Self {
        assert!(!dims.is_empty(), "a ParamRect needs at least one dimension");
        Self {
            dims: dims.into_boxed_slice(),
        }
    }

    /// Smallest rectangle covering a set of pfv.
    ///
    /// # Panics
    /// Panics if `vs` is empty or dimensionalities differ.
    #[must_use]
    pub fn covering<'a>(mut vs: impl Iterator<Item = &'a Pfv>) -> Self {
        #[expect(clippy::expect_used, reason = "documented: needs a non-empty iterator")]
        let first = vs.next().expect("covering() needs at least one pfv");
        let mut rect = Self::from_pfv(first);
        for v in vs {
            rect.extend_pfv(v);
        }
        rect
    }

    /// Dimensionality `d`.
    #[inline]
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension bounds.
    #[inline]
    #[must_use]
    pub fn dim(&self, i: usize) -> &DimBounds {
        &self.dims[i]
    }

    /// All per-dimension bounds.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[DimBounds] {
        &self.dims
    }

    /// Extends the rectangle to contain `v`.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn extend_pfv(&mut self, v: &Pfv) {
        assert_eq!(v.dims(), self.dims(), "dimensionality mismatch");
        for i in 0..v.dims() {
            let (m, s) = v.component(i);
            self.dims[i].extend(m, s);
        }
    }

    /// Extends the rectangle to contain another rectangle.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn extend_rect(&mut self, other: &ParamRect) {
        assert_eq!(other.dims(), self.dims(), "dimensionality mismatch");
        for i in 0..self.dims.len() {
            self.dims[i] = self.dims[i].union(&other.dims[i]);
        }
    }

    /// Whether `v`'s parameters lie inside the rectangle.
    #[must_use]
    pub fn contains_pfv(&self, v: &Pfv) -> bool {
        v.dims() == self.dims()
            && (0..v.dims()).all(|i| {
                let (m, s) = v.component(i);
                self.dims[i].contains(m, s)
            })
    }

    /// Whether `other` lies entirely inside `self`.
    #[must_use]
    pub fn contains_rect(&self, other: &ParamRect) -> bool {
        other.dims() == self.dims()
            && (0..self.dims()).all(|i| self.dims[i].contains_bounds(&other.dims[i]))
    }

    /// `ln N̂(q)` — the multivariate conservative upper bound on
    /// `ln p(q|v)` for every pfv `v` inside the rectangle: the sum over
    /// dimensions of per-dimension hulls evaluated at `μq,i` with Lemma-1
    /// adjusted σ bounds (paper §5.2, priority definition).
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    #[must_use]
    pub fn log_upper_for_query(&self, q: &Pfv, mode: CombineMode) -> f64 {
        assert_eq!(q.dims(), self.dims(), "dimensionality mismatch");
        let mut acc = 0.0;
        for i in 0..self.dims.len() {
            let (mq, sq) = q.component(i);
            acc += self.dims[i].with_query_sigma(sq, mode).log_upper(mq);
        }
        acc
    }

    /// `ln Ň(q)` — the multivariate conservative lower bound (Lemma 3
    /// per dimension, Lemma-1 adjusted).
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    #[must_use]
    pub fn log_lower_for_query(&self, q: &Pfv, mode: CombineMode) -> f64 {
        assert_eq!(q.dims(), self.dims(), "dimensionality mismatch");
        let mut acc = 0.0;
        for i in 0..self.dims.len() {
            let (mq, sq) = q.component(i);
            acc += self.dims[i].with_query_sigma(sq, mode).log_lower(mq);
        }
        acc
    }

    /// Both conservative bounds `(ln N̂(q), ln Ň(q))` in one sweep.
    ///
    /// Best-first expansion needs the upper *and* lower bound of every
    /// child ([`ParamRect::log_upper_for_query`] drives the priority queue,
    /// [`ParamRect::log_lower_for_query`] the §5.2.2 denominator bounds);
    /// computing them separately maps the σ-interval through Lemma 1 twice
    /// per dimension. This fused form does it once, and is bit-identical to
    /// the two separate calls — each bound accumulates the exact same
    /// per-dimension terms in the same order.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    #[must_use]
    pub fn log_bounds_for_query(&self, q: &Pfv, mode: CombineMode) -> (f64, f64) {
        assert_eq!(q.dims(), self.dims(), "dimensionality mismatch");
        let mut up = 0.0;
        let mut lo = 0.0;
        for i in 0..self.dims.len() {
            let (mq, sq) = q.component(i);
            let b = self.dims[i].with_query_sigma(sq, mode);
            up += b.log_upper(mq);
            lo += b.log_lower(mq);
        }
        (up, lo)
    }

    /// Log of the product of per-dimension hull integrals — the node's
    /// access-probability proxy minimised by the Gauss-tree split strategy.
    ///
    /// Splitting compares `exp(cost_A) + exp(cost_B)` between tentative
    /// splits; each per-dimension integral is ≥ 1 so the log is ≥ 0.
    #[must_use]
    pub fn log_access_cost(&self) -> f64 {
        self.dims.iter().map(|d| d.hull_integral().ln()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::pdf;
    use crate::quadrature::integrate_adaptive;

    fn example_bounds() -> DimBounds {
        // Figure 2 of the paper: μ ∈ [3.0, 4.0], σ ∈ [0.6, 0.9].
        DimBounds::new(3.0, 4.0, 0.6, 0.9)
    }

    /// Brute-force maximum over a grid of (μ, σ) inside the rectangle.
    fn grid_max(b: &DimBounds, x: f64) -> f64 {
        let mut best = f64::NEG_INFINITY;
        let n = 200;
        for i in 0..=n {
            let mu = b.mu_lo + (b.mu_hi - b.mu_lo) * i as f64 / n as f64;
            for j in 0..=n {
                let s = b.sigma_lo + (b.sigma_hi - b.sigma_lo) * j as f64 / n as f64;
                best = best.max(pdf(mu, s, x));
            }
        }
        best
    }

    fn grid_min(b: &DimBounds, x: f64) -> f64 {
        let mut best = f64::INFINITY;
        let n = 200;
        for i in 0..=n {
            let mu = b.mu_lo + (b.mu_hi - b.mu_lo) * i as f64 / n as f64;
            for j in 0..=n {
                let s = b.sigma_lo + (b.sigma_hi - b.sigma_lo) * j as f64 / n as f64;
                best = best.min(pdf(mu, s, x));
            }
        }
        best
    }

    #[test]
    fn upper_matches_grid_maximum_in_all_seven_cases() {
        let b = example_bounds();
        // Pick x values landing in each of the seven cases.
        let xs = [
            b.mu_lo - 2.0 * b.sigma_hi, // (I)
            b.mu_lo - 0.75,             // (II): dist 0.75 ∈ [0.6, 0.9]
            b.mu_lo - 0.3,              // (III)
            3.5,                        // (IV)
            b.mu_hi + 0.3,              // (V)
            b.mu_hi + 0.75,             // (VI)
            b.mu_hi + 2.0 * b.sigma_hi, // (VII)
        ];
        for &x in &xs {
            let hull = b.upper(x);
            let grid = grid_max(&b, x);
            assert!(
                hull >= grid - 1e-12,
                "hull must dominate grid max at x={x}: {hull} < {grid}"
            );
            assert!(
                hull <= grid * 1.001 + 1e-12,
                "hull should be tight at x={x}: {hull} vs {grid}"
            );
        }
    }

    #[test]
    fn lower_matches_grid_minimum() {
        let b = example_bounds();
        for i in -30..=30 {
            let x = 3.5 + i as f64 * 0.2;
            let hull = b.lower(x);
            let grid = grid_min(&b, x);
            assert!(
                hull <= grid + 1e-12,
                "lower bound must underestimate at x={x}: {hull} > {grid}"
            );
            assert!(
                hull >= grid * 0.999 - 1e-12,
                "lower bound should be tight at x={x}"
            );
        }
    }

    #[test]
    fn bounds_sandwich_every_member_gaussian() {
        let b = example_bounds();
        for &(mu, sigma) in &[(3.0, 0.6), (4.0, 0.9), (3.5, 0.7), (3.9, 0.6), (3.2, 0.85)] {
            assert!(b.contains(mu, sigma));
            for i in -40..=40 {
                let x = 3.5 + i as f64 * 0.15;
                let p = pdf(mu, sigma, x);
                assert!(b.upper(x) >= p - 1e-15, "upper violated at x={x}");
                assert!(b.lower(x) <= p + 1e-15, "lower violated at x={x}");
            }
        }
    }

    #[test]
    fn hull_is_continuous_across_case_boundaries() {
        let b = example_bounds();
        let boundaries = [
            b.mu_lo - b.sigma_hi,
            b.mu_lo - b.sigma_lo,
            b.mu_lo,
            b.mu_hi,
            b.mu_hi + b.sigma_lo,
            b.mu_hi + b.sigma_hi,
        ];
        for &x in &boundaries {
            let left = b.upper(x - 1e-9);
            let right = b.upper(x + 1e-9);
            assert!(
                (left - right).abs() < 1e-6 * left.max(right),
                "discontinuity at case boundary x={x}: {left} vs {right}"
            );
        }
    }

    #[test]
    fn closed_form_integral_matches_quadrature() {
        for b in [
            example_bounds(),
            DimBounds::new(0.0, 0.0, 1.0, 1.0),
            DimBounds::new(-2.0, 7.0, 0.1, 3.0),
            DimBounds::new(5.0, 5.5, 0.01, 0.02),
        ] {
            let lo = b.mu_lo - 15.0 * b.sigma_hi;
            let hi = b.mu_hi + 15.0 * b.sigma_hi;
            let numeric = integrate_adaptive(|x| b.upper(x), lo, hi, 1e-10);
            let closed = b.hull_integral();
            assert!(
                (numeric - closed).abs() < 1e-6 * closed,
                "integral mismatch for {b:?}: numeric={numeric}, closed={closed}"
            );
        }
    }

    /// `∫ max_{(μ,σ) ∈ b} N(μ, c(σ, σ̄))(x) dx` by adaptive quadrature. The
    /// integrand is found without Lemma 2's cases — at distance `d` from the
    /// μ interval the best combined σ is `d` clamped into `[c(σ̌), c(σ̂)]` —
    /// and each flank is integrated over distance in pieces that end at every
    /// kink and span at most a factor of two of the ridge, so each piece
    /// holds an O(1) share of the integral at any σ scale.
    fn folded_integral_by_quadrature(b: &DimBounds, sigma_bar: f64, mode: CombineMode) -> f64 {
        let lo = mode.combine_sigma(b.sigma_lo, sigma_bar);
        let hi = mode.combine_sigma(b.sigma_hi, sigma_bar);
        let at_distance = |d: f64| pdf(0.0, d.clamp(lo, hi), d);
        let mut cuts = vec![0.0, lo];
        while cuts[cuts.len() - 1] < hi {
            cuts.push((2.0 * cuts[cuts.len() - 1]).min(hi));
        }
        cuts.push(40.0 * hi);
        let flank: f64 = cuts
            .windows(2)
            .map(|w| integrate_adaptive(at_distance, w[0], w[1], 1e-12))
            .sum();
        let plateau = integrate_adaptive(|_| at_distance(0.0), b.mu_lo, b.mu_hi, 1e-12);
        2.0 * flank + plateau
    }

    fn folded_case() -> impl proptest::prelude::Strategy<Value = (DimBounds, f64, CombineMode)> {
        use proptest::prelude::*;
        (
            (-50.0..50.0f64, 0u8..3, 0.0..20.0f64),
            (0u8..4, -9.0..1.0f64, 0.0..4.0f64),
            (0u8..4, -3.0..3.0f64),
            0u8..2,
        )
            .prop_map(
                |((mu_lo, mu_kind, mu_ext), (s_kind, s_exp, ratio), (sb_kind, sb_exp), m)| {
                    let mu_hi = match mu_kind {
                        0 => mu_lo,
                        1 => mu_lo + mu_ext * 1e-6,
                        _ => mu_lo + mu_ext,
                    };
                    // σ̌ down to the MIN_SIGMA clamp, σ̂ up to 10⁴ × σ̌.
                    let sigma_lo = if s_kind == 0 {
                        MIN_SIGMA
                    } else {
                        10f64.powf(s_exp)
                    };
                    let sigma_hi = sigma_lo * 10f64.powf(ratio);
                    // σ̄ = 0, tiny against σ̌, comparable, or ≫ σ̂.
                    let sigma_bar = match sb_kind {
                        0 => 0.0,
                        1 => sigma_lo * 1e-6 * 10f64.powf(sb_exp),
                        2 => sigma_lo * 10f64.powf(sb_exp + ratio / 2.0),
                        _ => sigma_hi * 1e4 * 10f64.powf(sb_exp),
                    };
                    let mode = if m == 0 {
                        CombineMode::Convolution
                    } else {
                        CombineMode::AdditiveSigma
                    };
                    (
                        DimBounds::new(mu_lo, mu_hi, sigma_lo, sigma_hi),
                        sigma_bar,
                        mode,
                    )
                },
            )
    }

    proptest::proptest! {
        #[test]
        fn folded_hull_integral_matches_quadrature((b, sigma_bar, mode) in folded_case()) {
            let folded = b.with_query_sigma(sigma_bar, mode).hull_integral();
            let numeric = folded_integral_by_quadrature(&b, sigma_bar, mode);
            proptest::prop_assert!(
                (numeric - folded).abs() <= 1e-7 * folded,
                "{b:?}, σ̄ {sigma_bar}, {mode:?}: numeric {numeric}, closed {folded}"
            );
            // σ̄ = 0 is the paper's σ_q = 0 proxy exactly.
            if sigma_bar == 0.0 {
                proptest::prop_assert_eq!(folded.to_bits(), b.hull_integral().to_bits());
            }
        }
    }

    #[test]
    fn point_rectangle_integral_is_one() {
        let b = DimBounds::point(2.0, 0.5);
        assert!((b.hull_integral() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn integral_grows_with_extents() {
        let base = DimBounds::new(0.0, 1.0, 0.5, 1.0);
        let wider_mu = DimBounds::new(0.0, 2.0, 0.5, 1.0);
        let wider_sigma = DimBounds::new(0.0, 1.0, 0.5, 2.0);
        assert!(wider_mu.hull_integral() > base.hull_integral());
        assert!(wider_sigma.hull_integral() > base.hull_integral());
    }

    #[test]
    fn phi_variants_agree_on_integral() {
        let b = example_bounds();
        let erf = b.hull_integral_with_phi(PhiImpl::Erf);
        let poly = b.hull_integral_with_phi(PhiImpl::Poly5);
        let closed = b.hull_integral();
        assert!((erf - closed).abs() < 1e-5 * closed);
        assert!((poly - closed).abs() < 1e-5 * closed);
    }

    #[test]
    fn query_adjustment_is_conservative() {
        // For any member (μv, σv) and query (μq, σq), the adjusted hull at μq
        // must dominate the Lemma-1 joint density.
        let b = example_bounds();
        let mode = CombineMode::Convolution;
        for &(mv, sv) in &[(3.0, 0.6), (3.7, 0.8), (4.0, 0.9)] {
            for &(mq, sq) in &[(3.5, 0.1), (2.0, 0.5), (5.5, 2.0), (3.0, 0.0)] {
                let joint = crate::combine::log_joint_1d(mode, mv, sv, mq, sq);
                let hull = b.with_query_sigma(sq, mode).log_upper(mq);
                assert!(
                    hull >= joint - 1e-12,
                    "hull not conservative: v=({mv},{sv}), q=({mq},{sq}): {hull} < {joint}"
                );
                let low = b.with_query_sigma(sq, mode).log_lower(mq);
                assert!(
                    low <= joint + 1e-12,
                    "lower bound not conservative: {low} > {joint}"
                );
            }
        }
    }

    #[test]
    fn union_and_extend_agree() {
        let a = DimBounds::point(1.0, 0.5);
        let b = DimBounds::point(3.0, 0.2);
        let u = a.union(&b);
        let mut e = a;
        e.extend(3.0, 0.2);
        assert_eq!(u, e);
        assert!(u.contains(1.0, 0.5) && u.contains(3.0, 0.2));
        assert_eq!(u.mu_extent(), 2.0);
    }

    #[test]
    fn param_rect_covering_contains_all() {
        let vs = vec![
            Pfv::new(vec![0.0, 10.0], vec![0.1, 1.0]).unwrap(),
            Pfv::new(vec![5.0, 8.0], vec![0.3, 0.5]).unwrap(),
            Pfv::new(vec![2.0, 12.0], vec![0.2, 2.0]).unwrap(),
        ];
        let rect = ParamRect::covering(vs.iter());
        for v in &vs {
            assert!(rect.contains_pfv(v));
        }
        assert_eq!(rect.dim(0).mu_lo, 0.0);
        assert_eq!(rect.dim(0).mu_hi, 5.0);
        assert_eq!(rect.dim(1).sigma_hi, 2.0);
    }

    #[test]
    fn multivariate_bounds_sandwich_joint_density() {
        let vs = vec![
            Pfv::new(vec![0.0, 10.0], vec![0.1, 1.0]).unwrap(),
            Pfv::new(vec![5.0, 8.0], vec![0.3, 0.5]).unwrap(),
        ];
        let rect = ParamRect::covering(vs.iter());
        let q = Pfv::new(vec![1.0, 9.0], vec![0.2, 0.4]).unwrap();
        let mode = CombineMode::Convolution;
        let up = rect.log_upper_for_query(&q, mode);
        let lo = rect.log_lower_for_query(&q, mode);
        for v in &vs {
            let j = crate::combine::log_joint(mode, v, &q);
            assert!(up >= j - 1e-12, "upper {up} < joint {j}");
            assert!(lo <= j + 1e-12, "lower {lo} > joint {j}");
        }
    }

    #[test]
    fn fused_bounds_are_bit_identical_to_separate_calls() {
        let vs = [
            Pfv::new(vec![0.0, 10.0], vec![0.1, 1.0]).unwrap(),
            Pfv::new(vec![5.0, 8.0], vec![0.3, 0.5]).unwrap(),
        ];
        let rect = ParamRect::covering(vs.iter());
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            for &(m0, m1, s0, s1) in &[
                (1.0, 9.0, 0.2, 0.4),
                (-100.0, 100.0, 0.01, 5.0),
                (3.0, 9.5, 1e-9, 0.1),
            ] {
                let q = Pfv::new(vec![m0, m1], vec![s0, s1]).unwrap();
                let (up, lo) = rect.log_bounds_for_query(&q, mode);
                assert_eq!(up.to_bits(), rect.log_upper_for_query(&q, mode).to_bits());
                assert_eq!(lo.to_bits(), rect.log_lower_for_query(&q, mode).to_bits());
            }
        }
    }

    #[test]
    fn log_access_cost_is_nonnegative_and_monotone() {
        let small = ParamRect::from_dims(vec![DimBounds::new(0.0, 1.0, 0.5, 0.6)]);
        let large = ParamRect::from_dims(vec![DimBounds::new(0.0, 4.0, 0.5, 2.0)]);
        assert!(small.log_access_cost() >= 0.0);
        assert!(large.log_access_cost() > small.log_access_cost());
    }

    #[test]
    fn contains_rect_partial_order() {
        let outer = ParamRect::from_dims(vec![DimBounds::new(0.0, 10.0, 0.1, 5.0)]);
        let inner = ParamRect::from_dims(vec![DimBounds::new(2.0, 3.0, 0.5, 1.0)]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn rejects_reversed_mu() {
        let _ = DimBounds::new(2.0, 1.0, 0.1, 0.2);
    }

    #[test]
    fn case_ii_ridge_value_matches_formula() {
        // N_{μ̌, μ̌−x}(x) = 1/(√(2πe)(μ̌−x))
        let b = example_bounds();
        let x = b.mu_lo - 0.75;
        let want = INV_SQRT_2PI_E / 0.75;
        assert!((b.upper(x) - want).abs() < 1e-12);
    }

    #[test]
    fn plateau_value_is_peak_of_narrowest_gaussian() {
        let b = example_bounds();
        let want = pdf(3.5, b.sigma_lo, 3.5);
        assert!((b.upper(3.5) - want).abs() < 1e-15);
        assert!((b.upper(3.0) - want).abs() < 1e-15);
        assert!((b.upper(4.0) - want).abs() < 1e-15);
    }
}
