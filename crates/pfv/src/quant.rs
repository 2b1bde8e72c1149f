//! Checked `f64 → f32` quantisation for compressed leaves, plus the
//! outward-rounded hull correction that keeps pruning conservative.
//!
//! The quantised leaf format stores every `μ` and `σ` as an `f32`
//! (see the `gauss-tree` crate's `LeafFormat`). Quantisation happens
//! **once, at ingest**: the stored parameter is the widened `f64` value of
//! the rounded `f32`, so decoding is lossless (`f32 → f64` widening is
//! exact) and every query algorithm downstream remains *exact over the
//! stored parameters* — no per-query rounding correction is needed.
//!
//! What quantisation does perturb is the relationship to the *original*
//! `f64` parameters: the stored Gaussian sits within half an `f32` ulp of
//! the ingested one. [`outward_bounds`](crate::quant::outward_bounds) captures that residual as a
//! [`DimBounds`] parameter rectangle rounded **outward** by one `f32` ulp
//! in each direction, so the Lemma-2 upper hull over the rectangle bounds
//! the original density from above and the Lemma-3 lower hull bounds it
//! from below — the property test `quantised leaves never prune a true
//! result` is stated against exactly these bounds.
//!
//! Inner pages store their rectangles in `f32` too, but not by rounding to
//! nearest: [`round_outward`](crate::quant::round_outward) rounds each
//! bound away from the rectangle's inside, so the stored rectangle contains
//! the exact one and Lemmas 2–3 over it stay conservative for every member.
//! A bound beyond the `f32` range becomes `±∞` on its outer side.
//!
//! The one `as f32` cast in the workspace is this module's private
//! `nearest`, expecting `clippy::cast_possible_truncation`; the helpers
//! validate its result (`None` on overflow, σ bumped back above
//! [`MIN_SIGMA`], a bound moved to the outer side).

use crate::hull::DimBounds;
use crate::MIN_SIGMA;

/// Round-to-nearest `f64 → f32`; beyond the `f32` range it gives `±∞`.
#[expect(clippy::cast_possible_truncation, reason = "quantising is the point")]
fn nearest(x: f64) -> f32 {
    x as f32
}

/// The `f32` bounds an inner page stores for `b`, in the order
/// `[μ̌, μ̂, σ̌, σ̂]`: `μ̌` and `σ̌` rounded down to the nearest `f32` at or
/// below them, `μ̂` and `σ̂` rounded up. Widened back to `f64` they contain
/// `b`; a bound beyond the `f32` range becomes `±∞` on its outer side
/// (`μ̌ = −∞`, `μ̂ = +∞`, `σ̂ = +∞`), and an inner-side bound beyond it
/// becomes `±f32::MAX`. `σ̌` may come out below [`MIN_SIGMA`]; the decoder
/// raises it back, as [`DimBounds::new`] does. Widening and rounding again
/// is the identity, so a decoded rectangle is stored unchanged.
#[must_use]
pub fn round_outward(b: &DimBounds) -> [f32; 4] {
    let down = |x: f64| {
        let q = nearest(x);
        if f64::from(q) > x {
            q.next_down()
        } else {
            q
        }
    };
    let up = |x: f64| {
        let q = nearest(x);
        if f64::from(q) < x {
            q.next_up()
        } else {
            q
        }
    };
    [down(b.mu_lo), up(b.mu_hi), down(b.sigma_lo), up(b.sigma_hi)]
}

/// `b` as an inner page holds it: [`round_outward`] widened back to `f64`,
/// with `σ` raised to [`MIN_SIGMA`] — bit for bit what the node decoder
/// returns for a rectangle written from `b`.
#[must_use]
pub fn rounded_outward(b: &DimBounds) -> DimBounds {
    let [mu_lo, mu_hi, sigma_lo, sigma_hi] = round_outward(b).map(f64::from);
    DimBounds::new(mu_lo, mu_hi, sigma_lo, sigma_hi)
}

/// Quantises a mean to `f32` (round-to-nearest-even).
///
/// Returns `None` when the value does not fit — `|m| > f32::MAX` rounds
/// to an infinity — or is not finite to begin with. Ingest surfaces that
/// as a range error rather than storing an unusable parameter.
#[must_use]
pub fn quantise_mu(m: f64) -> Option<f32> {
    let q = nearest(m);
    q.is_finite().then_some(q)
}

/// Quantises a standard deviation to `f32`.
///
/// Like [`quantise_mu`], but additionally guarantees the *widened* value
/// stays at or above [`MIN_SIGMA`]: round-to-nearest can land half an ulp
/// below the floor, and a stored σ below the floor would be re-clamped by
/// `Pfv::new` on decode, breaking the encode/decode fixpoint. One ulp-up
/// bump restores the invariant (`f32` ulps near `1e-9` are `≈ 1e-16`, far
/// below the floor's half-ulp deficit).
#[must_use]
pub fn quantise_sigma(s: f64) -> Option<f32> {
    let mut q = nearest(s);
    if !q.is_finite() {
        return None;
    }
    while f64::from(q) < MIN_SIGMA {
        q = q.next_up();
    }
    q.is_finite().then_some(q)
}

/// Narrows a value that is known to be exactly `f32`-representable
/// (because ingest stored `widen(quantise(x))`).
///
/// # Panics
/// Panics if narrowing would lose information — in a quantised tree that
/// indicates a corrupted in-memory node, not a data error.
#[must_use]
pub fn to_f32_exact(x: f64) -> f32 {
    let q = nearest(x);
    assert!(
        f64::from(q).to_bits() == x.to_bits(),
        "value {x:e} is not exactly f32-representable"
    );
    q
}

/// Whether `x` is exactly `f32`-representable — i.e. narrowing and
/// widening it back is the identity (bitwise, so `-0.0` and `NaN`
/// payloads are respected). Every value a quantised tree stores must
/// satisfy this; the invariant checker verifies it leaf by leaf.
#[must_use]
pub fn is_f32_exact(x: f64) -> bool {
    f64::from(nearest(x)).to_bits() == x.to_bits()
}

/// The closed `f64` interval certainly containing every `f64` that
/// rounds (nearest-even) to `q`: one `f32` ulp outward on both sides.
///
/// Deliberately one half-ulp wider per side than the exact rounding
/// interval — the slack is what makes the hull correction robust to the
/// rounding mode and costs nothing (hull bounds are monotone in the
/// rectangle). Saturates to `±f64::MAX` at the ends of the `f32` range so
/// the result is always finite.
#[must_use]
pub fn widen_interval(q: f32) -> (f64, f64) {
    let lo = f64::from(q.next_down()).max(f64::MIN);
    let hi = f64::from(q.next_up()).min(f64::MAX);
    (lo, hi)
}

/// The outward-rounded parameter rectangle of one quantised dimension:
/// any Gaussian whose true parameters quantise to `(mu_q, sigma_q)` has
/// `μ` and `σ` inside these bounds, so the rectangle's Lemma-2/Lemma-3
/// hulls conservatively bound the *original* (pre-quantisation) density.
#[must_use]
pub fn outward_bounds(mu_q: f32, sigma_q: f32) -> DimBounds {
    let (mu_lo, mu_hi) = widen_interval(mu_q);
    let (sigma_lo, sigma_hi) = widen_interval(sigma_q);
    // DimBounds::new clamps σ to MIN_SIGMA itself; feed it the raw
    // outward interval (the low end may dip below the floor, which only
    // widens the hull further — still conservative).
    DimBounds::new(mu_lo, mu_hi, sigma_lo.max(0.0).max(MIN_SIGMA), sigma_hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian;

    #[test]
    fn mu_round_trips_through_widening() {
        for m in [0.0, 1.5, -273.15, 1e30, -1e-30, f64::from(f32::MAX)] {
            let q = quantise_mu(m).unwrap();
            // Widening the quantised value and re-quantising is a fixpoint.
            assert_eq!(quantise_mu(f64::from(q)), Some(q));
            // And narrowing the widened value is exact.
            assert_eq!(to_f32_exact(f64::from(q)), q);
        }
    }

    #[test]
    fn mu_rejects_out_of_range_and_non_finite() {
        assert_eq!(quantise_mu(1e39), None);
        assert_eq!(quantise_mu(-1e39), None);
        assert_eq!(quantise_mu(f64::INFINITY), None);
        assert_eq!(quantise_mu(f64::NAN), None);
        // The largest finite f32 itself is fine.
        assert!(quantise_mu(f64::from(f32::MAX)).is_some());
    }

    #[test]
    fn sigma_never_quantises_below_the_floor() {
        // Values straddling MIN_SIGMA, including ones that round below it.
        for s in [
            MIN_SIGMA,
            MIN_SIGMA * (1.0 + 1e-12),
            MIN_SIGMA * (1.0 - 0.0), // exactly the floor
            1.000000001e-9,
            0.3,
            2.5e7,
        ] {
            let q = quantise_sigma(s).unwrap();
            assert!(
                f64::from(q) >= MIN_SIGMA,
                "σ = {s:e} quantised to {q:e} below the floor"
            );
            // Fixpoint: requantising the widened value changes nothing.
            assert_eq!(quantise_sigma(f64::from(q)), Some(q));
        }
    }

    #[test]
    fn sigma_rejects_overflow() {
        assert_eq!(quantise_sigma(1e39), None);
        assert_eq!(quantise_sigma(f64::NAN), None);
    }

    #[test]
    #[should_panic(expected = "not exactly f32-representable")]
    fn to_f32_exact_rejects_lossy_values() {
        let _ = to_f32_exact(0.1); // 0.1 is not f32-exact
    }

    #[test]
    fn widen_interval_directions_are_pinned() {
        // The interval must round OUTWARD: lo strictly below the widened
        // value, hi strictly above (except at the saturated extremes).
        for q in [0.0f32, 1.0, -1.0, 1.5e-9, 3.25e7, -7.125] {
            let (lo, hi) = widen_interval(q);
            let w = f64::from(q);
            assert!(lo < w, "lo {lo:e} not below {w:e}");
            assert!(hi > w, "hi {hi:e} not above {w:e}");
            // Every f64 that quantises to q lies inside — check points
            // strictly within the half-ulp rounding interval (the exact
            // midpoint is a round-to-even tie and may go either way).
            let near_lo = w + (lo - w) / 2.2;
            let near_hi = w + (hi - w) / 2.2;
            assert_eq!(near_lo as f32, q);
            assert_eq!(near_hi as f32, q);
            assert!(lo <= near_lo && near_hi <= hi);
        }
        // Saturation keeps the interval finite.
        let (_, hi) = widen_interval(f32::MAX);
        assert!(hi.is_finite());
        let (lo, _) = widen_interval(f32::MIN);
        assert!(lo.is_finite());
    }

    #[test]
    fn outward_hull_bounds_the_original_density() {
        // Deterministic sweep: original (μ, σ) pairs, quantise them, and
        // check the outward rectangle's hull brackets the ORIGINAL
        // Gaussian's density at assorted evaluation points.
        let mut state = 0xB0E4_2006_u64 | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..2_000 {
            let mu = next() * 2000.0 - 1000.0;
            let sigma = MIN_SIGMA + next() * 10.0;
            let b = outward_bounds(quantise_mu(mu).unwrap(), quantise_sigma(sigma).unwrap());
            assert!(b.mu_lo <= mu && mu <= b.mu_hi);
            assert!(b.sigma_hi >= sigma);
            for _ in 0..8 {
                let x = mu + (next() * 8.0 - 4.0) * sigma;
                let exact = gaussian::log_pdf(mu, sigma.max(MIN_SIGMA), x);
                assert!(
                    b.log_upper(x) >= exact,
                    "upper hull below original density at x = {x}"
                );
                assert!(
                    b.log_lower(x) <= exact,
                    "lower hull above original density at x = {x}"
                );
            }
        }
    }

    #[test]
    fn inner_bounds_round_away_from_the_inside() {
        let b = DimBounds::new(-0.1, 0.3, 0.2, 0.7);
        let [mu_lo, mu_hi, sigma_lo, sigma_hi] = round_outward(&b).map(f64::from);
        assert!(mu_lo < -0.1 && mu_hi > 0.3 && sigma_lo < 0.2 && sigma_hi > 0.7);
        // One f32 step at most: the next f32 inward is inside the exact bound.
        let q = round_outward(&b);
        assert!(f64::from(q[0].next_up()) > -0.1 && f64::from(q[1].next_down()) < 0.3);
        assert!(f64::from(q[2].next_up()) > 0.2 && f64::from(q[3].next_down()) < 0.7);
        // f32-exact bounds are stored as they are.
        let exact = DimBounds::new(-1.5, 2.25, 0.125, 3.0);
        assert_eq!(rounded_outward(&exact), exact);
        assert_eq!(round_outward(&exact), [-1.5, 2.25, 0.125, 3.0]);
    }

    #[test]
    fn inner_bounds_beyond_the_f32_range_go_infinite_on_the_outer_side_only() {
        let b = DimBounds::new(-1e200, 1e200, 1e100, 1e300);
        assert_eq!(
            round_outward(&b),
            [f32::NEG_INFINITY, f32::INFINITY, f32::MAX, f32::INFINITY]
        );
        // Inner sides saturate at the largest finite f32.
        let far = DimBounds::new(1e200, 1e201, 1.0, 2.0);
        assert_eq!(round_outward(&far)[..2], [f32::MAX, f32::INFINITY]);
        let far = DimBounds::new(-1e201, -1e200, 1.0, 2.0);
        assert_eq!(round_outward(&far)[..2], [f32::NEG_INFINITY, -f32::MAX]);
        // Tiny means round to zero on one side and to the least subnormal on
        // the other.
        let tiny = DimBounds::new(1e-60, 1e-60, 1.0, 1.0);
        assert_eq!(round_outward(&tiny)[..2], [0.0, f32::from_bits(1)]);
    }

    #[test]
    fn rounding_outward_is_idempotent_and_keeps_the_sigma_floor() {
        for b in [
            DimBounds::new(-0.1, 0.3, MIN_SIGMA, MIN_SIGMA),
            DimBounds::new(3.0, 3.0, MIN_SIGMA, 0.3),
            DimBounds::new(-1e200, 1e200, 1e100, 1e300),
            DimBounds::point(7.7, 0.01),
        ] {
            let once = rounded_outward(&b);
            assert!(once.contains_bounds(&b), "{once:?} misses {b:?}");
            assert!(once.sigma_lo >= MIN_SIGMA);
            assert_eq!(rounded_outward(&once), once);
            assert_eq!(round_outward(&once), round_outward(&b));
        }
    }
}
