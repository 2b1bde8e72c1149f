//! Log-space summation utilities.
//!
//! Identification probabilities are ratios of sums of densities whose log
//! values span hundreds of nats for realistic dimensionalities. Three tools
//! keep this numerically safe:
//!
//! * [`log_sum_exp`] — one-shot `ln Σ exp(lᵢ)` over a slice;
//! * [`LogSumAcc`] — streaming log-sum-exp accumulator (add-only), used by
//!   the sequential-scan query processors;
//! * [`ScaledSum`] — an add/subtract accumulator of `exp(l − anchor)` terms
//!   with Kahan compensation, used by the Gauss-tree's TIQ/MLIQ refinement
//!   where node bounds are *removed* from the running denominator when a
//!   node is expanded (Figure 5 of the paper).

/// `ln(exp(a) + exp(b))` for two log values.
#[must_use]
pub fn log_add_exp(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if lo == f64::NEG_INFINITY {
        hi
    } else {
        hi + (lo - hi).exp().ln_1p()
    }
}

/// `ln Σᵢ exp(lᵢ)` with the usual max-shift trick.
///
/// Returns `-∞` for an empty slice (the sum of zero densities).
#[must_use]
pub fn log_sum_exp(log_terms: &[f64]) -> f64 {
    let m = log_terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let sum: f64 = log_terms.iter().map(|&l| (l - m).exp()).sum();
    m + sum.ln()
}

/// Streaming add-only log-sum-exp accumulator.
///
/// Maintains the running sum as `(max, Σ exp(lᵢ − max))`, rescaling whenever
/// a new maximum arrives. The term that set the maximum contributes exactly
/// `1`, so the scaled sum is never below `1` — which is what makes "a term
/// 38 nats below the maximum is a no-op" a fact about bits, not a tolerance.
#[derive(Debug, Clone, Default)]
pub struct LogSumAcc {
    max: Option<f64>,
    scaled_sum: f64,
}

impl LogSumAcc {
    /// A term at least this many nats below the running maximum leaves the
    /// accumulator **bit-unchanged**: its scaled value is at most
    /// `e⁻³⁸ ≈ 3.1e-17`, under half an ulp (`2⁻⁵³ ≈ 1.1e-16`) of a scaled
    /// sum that is at least `1`, so round-to-nearest returns the old sum.
    /// Not tunable: at 36 nats (`e⁻³⁶ ≈ 2.3e-16`) the sum does change.
    const NO_OP_GAP: f64 = 38.0;

    /// Creates an empty accumulator (`value() == -∞`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a term with log value `l`. A term 38 nats or more below
    /// [`LogSumAcc::max_term`] cannot change a bit of the sum (the scaled
    /// sum is at least `1` and `e⁻³⁸ < 2⁻⁵³`), so it costs no `exp` — and a
    /// caller that knows `l ≤ max_term() − 38` may skip the call.
    pub fn add(&mut self, l: f64) {
        if l == f64::NEG_INFINITY {
            return;
        }
        match self.max {
            None => {
                self.max = Some(l);
                self.scaled_sum = 1.0;
            }
            Some(m) if l <= m => {
                let gap = l - m;
                // Written so a NaN gap still takes the arithmetic path.
                if gap <= -Self::NO_OP_GAP {
                    return;
                }
                self.scaled_sum += gap.exp();
            }
            Some(m) => {
                // New maximum: rescale the accumulated sum.
                self.scaled_sum = self.scaled_sum * (m - l).exp() + 1.0;
                self.max = Some(l);
            }
        }
    }

    /// Number-of-terms-weighted add: `count · exp(l)`.
    pub fn add_scaled(&mut self, l: f64, count: f64) {
        if count <= 0.0 {
            return;
        }
        self.add(l + count.ln());
    }

    /// Current `ln Σ exp(lᵢ)`.
    #[must_use]
    pub fn value(&self) -> f64 {
        match self.max {
            None => f64::NEG_INFINITY,
            Some(m) => m + self.scaled_sum.ln(),
        }
    }

    /// Whether any term has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.max.is_none()
    }

    /// The largest term added so far, `-∞` while empty. Never above
    /// [`LogSumAcc::value`].
    #[must_use]
    pub fn max_term(&self) -> f64 {
        self.max.unwrap_or(f64::NEG_INFINITY)
    }
}

/// Add/subtract accumulator of densities `exp(l − anchor)` with
/// Neumaier (Kahan–Babuška) compensation.
///
/// The Gauss-tree query refinement (paper §5.2.2/§5.2.3, Figure 5) keeps a
/// running lower/upper bound on the Bayes denominator: when a node is popped
/// from the priority queue its bound contribution is *subtracted* and its
/// children's contributions are *added*. Pure log-space accumulators cannot
/// subtract, so we fix a log-space `anchor` per query (typically the root's
/// upper bound, the largest value we will ever see) and accumulate scaled
/// linear terms, which keeps every addend in a sane range. The Neumaier
/// variant also compensates when a large term cancels against a small
/// running sum, which plain Kahan does not.
#[derive(Debug, Clone)]
pub struct ScaledSum {
    anchor: f64,
    sum: f64,
    comp: f64, // Neumaier compensation, added at read time
    /// Monotone `Σ |termᵢ|` over every add/sub ever applied — the scale of
    /// the worst-case accumulation error (compensated summation is accurate
    /// to `O(ε · Σ|tᵢ|)`, not `O(ε · |Σ tᵢ|)`).
    mag: f64,
    /// Terms added minus terms removed. When zero, the true sum is exactly
    /// zero no matter what residue cancellation left behind.
    outstanding: i64,
}

impl ScaledSum {
    /// Conservative coefficient for the compensated-summation error bound
    /// `|computed − exact| ≤ ERR_COEFF · Σ|tᵢ|`.
    const ERR_COEFF: f64 = 4.0 * f64::EPSILON;

    /// Creates an empty accumulator anchored at log value `anchor`.
    ///
    /// Terms with log value near `anchor` map to `exp(0) = 1`; terms hundreds
    /// of nats below map to harmless zeros.
    #[must_use]
    pub fn new(anchor: f64) -> Self {
        assert!(anchor.is_finite(), "anchor must be finite, got {anchor}");
        Self {
            anchor,
            sum: 0.0,
            comp: 0.0,
            mag: 0.0,
            outstanding: 0,
        }
    }

    /// The anchor this accumulator scales against.
    #[must_use]
    pub fn anchor(&self) -> f64 {
        self.anchor
    }

    fn kahan_add(&mut self, term: f64) {
        let t = self.sum + term;
        if self.sum.abs() >= term.abs() {
            self.comp += (self.sum - t) + term;
        } else {
            self.comp += (term - t) + self.sum;
        }
        self.sum = t;
    }

    /// Adds `count · exp(l)` (log value `l`, multiplicity `count`).
    pub fn add(&mut self, l: f64, count: f64) {
        // Exact sentinel (-inf = empty term) and exact zero count.
        if l == f64::NEG_INFINITY || count == 0.0 {
            return;
        }
        let term = count * (l - self.anchor).exp();
        self.mag += term.abs();
        self.outstanding += 1;
        self.kahan_add(term);
    }

    /// Subtracts `count · exp(l)`.
    pub fn sub(&mut self, l: f64, count: f64) {
        // Exact sentinel (-inf = empty term) and exact zero count.
        if l == f64::NEG_INFINITY || count == 0.0 {
            return;
        }
        let term = count * (l - self.anchor).exp();
        self.mag += term.abs();
        self.outstanding -= 1;
        self.kahan_add(-term);
    }

    /// The scaled linear sum `Σ ± countᵢ·exp(lᵢ − anchor)`, clamped at zero
    /// (cancellation can leave a tiny negative residue).
    #[must_use]
    pub fn scaled_value(&self) -> f64 {
        (self.sum + self.comp).max(0.0)
    }

    /// The sum as a log value `ln Σ` (or `-∞` if the sum is ≤ 0).
    #[must_use]
    pub fn log_value(&self) -> f64 {
        let s = self.scaled_value();
        // scaled_value clamps at exactly 0.0; this tests the clamp.
        if s == 0.0 {
            f64::NEG_INFINITY
        } else {
            self.anchor + s.ln()
        }
    }

    /// Guaranteed *upper* bound on the true sum, as a log value.
    ///
    /// Inflates the computed sum by the worst-case accumulation error
    /// `ERR_COEFF · Σ|tᵢ|`. Without this, a large term added and later
    /// subtracted can cancel the running sum to (or below) zero while
    /// outstanding terms still hold real mass — the raw value would then
    /// *understate* an upper bound, which is unsound for interval queries.
    /// Exactly `-∞` when no terms are outstanding: the true sum is zero.
    #[must_use]
    pub fn log_value_upper(&self) -> f64 {
        if self.outstanding == 0 {
            return f64::NEG_INFINITY;
        }
        let s = (self.sum + self.comp + Self::ERR_COEFF * self.mag).max(0.0);
        // The max(0.0) clamp yields exactly 0.0.
        if s == 0.0 {
            f64::NEG_INFINITY
        } else {
            self.anchor + s.ln()
        }
    }

    /// Guaranteed *lower* bound on the true sum, as a log value — the
    /// deflated counterpart of [`ScaledSum::log_value_upper`].
    #[must_use]
    pub fn log_value_lower(&self) -> f64 {
        if self.outstanding == 0 {
            return f64::NEG_INFINITY;
        }
        let s = (self.sum + self.comp - Self::ERR_COEFF * self.mag).max(0.0);
        // The max(0.0) clamp yields exactly 0.0.
        if s == 0.0 {
            f64::NEG_INFINITY
        } else {
            self.anchor + s.ln()
        }
    }

    /// Moves the accumulator to a new anchor, rescaling the running sum.
    ///
    /// Used by query processing when a term would overflow the current
    /// scale (`l − anchor > ~700`).
    pub fn reanchor(&mut self, new_anchor: f64) {
        assert!(new_anchor.is_finite(), "anchor must be finite");
        let factor = (self.anchor - new_anchor).exp();
        self.sum *= factor;
        self.comp *= factor;
        self.mag *= factor;
        self.anchor = new_anchor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_add_exp_matches_batch() {
        assert!((log_add_exp(0.0, 0.0) - 2.0f64.ln()).abs() < 1e-15);
        assert_eq!(log_add_exp(f64::NEG_INFINITY, -3.0), -3.0);
        assert_eq!(log_add_exp(-3.0, f64::NEG_INFINITY), -3.0);
        assert!((log_add_exp(-1000.0, -1001.0) - log_sum_exp(&[-1000.0, -1001.0])).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_basic() {
        let got = log_sum_exp(&[0.0, 0.0]);
        assert!((got - 2.0_f64.ln()).abs() < 1e-15);
    }

    #[test]
    fn log_sum_exp_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_handles_huge_spread() {
        // exp(-1000) + exp(-2000) ≈ exp(-1000)
        let got = log_sum_exp(&[-1000.0, -2000.0]);
        assert!((got - (-1000.0)).abs() < 1e-12);
        // and huge positive values too
        let got = log_sum_exp(&[1000.0, 1000.0]);
        assert!((got - (1000.0 + 2.0_f64.ln())).abs() < 1e-12);
    }

    #[test]
    fn streaming_matches_batch() {
        let terms = [-3.0, 0.5, -700.0, 2.0, 2.0, -1.0];
        let mut acc = LogSumAcc::new();
        for &t in &terms {
            acc.add(t);
        }
        assert!((acc.value() - log_sum_exp(&terms)).abs() < 1e-12);
    }

    #[test]
    fn streaming_order_independent() {
        let mut fwd = LogSumAcc::new();
        let mut rev = LogSumAcc::new();
        let terms = [-5.0, 3.0, 1.0, -200.0, 7.5];
        for &t in &terms {
            fwd.add(t);
        }
        for &t in terms.iter().rev() {
            rev.add(t);
        }
        assert!((fwd.value() - rev.value()).abs() < 1e-12);
    }

    #[test]
    fn add_scaled_multiplicity() {
        let mut a = LogSumAcc::new();
        a.add_scaled(-2.0, 5.0);
        let mut b = LogSumAcc::new();
        for _ in 0..5 {
            b.add(-2.0);
        }
        assert!((a.value() - b.value()).abs() < 1e-12);
    }

    #[test]
    fn neg_infinity_terms_are_ignored() {
        let mut acc = LogSumAcc::new();
        acc.add(f64::NEG_INFINITY);
        assert!(acc.is_empty());
        acc.add(1.0);
        acc.add(f64::NEG_INFINITY);
        assert!((acc.value() - 1.0).abs() < 1e-15);
    }

    /// The accumulator's arithmetic with no shortcut: every finite term
    /// pays its `exp` and its add.
    #[derive(Default)]
    struct NaiveAcc {
        max: Option<f64>,
        scaled_sum: f64,
    }

    impl NaiveAcc {
        fn add(&mut self, l: f64) {
            if l == f64::NEG_INFINITY {
                return;
            }
            match self.max {
                None => (self.max, self.scaled_sum) = (Some(l), 1.0),
                Some(m) if l <= m => self.scaled_sum += (l - m).exp(),
                Some(m) => {
                    self.scaled_sum = self.scaled_sum * (m - l).exp() + 1.0;
                    self.max = Some(l);
                }
            }
        }

        fn value(&self) -> f64 {
            self.max
                .map_or(f64::NEG_INFINITY, |m| m + self.scaled_sum.ln())
        }
    }

    /// Deterministic xorshift in `[0, 1)`.
    fn unit(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn terms_38_nats_below_the_maximum_never_change_a_bit() {
        // What the Gauss-tree's denominator screen rests on. Three
        // accumulators see the same stream: the naive arithmetic, `add`
        // (which skips the `exp` of a far-below term) and `add` behind a
        // caller that drops such terms outright. Bits must agree after
        // every step — for streams of d-27-sized log densities, spreads of
        // 0 to 800 nats, maxima that keep arriving late, and `−∞` terms.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut dropped = 0usize;
        for stream in 0..400 {
            let base = -300.0 + 400.0 * unit(&mut rng);
            let spread = [0.0, 1.0, 30.0, 39.0, 80.0, 800.0][stream % 6] * unit(&mut rng);
            let mut naive = NaiveAcc::default();
            let mut acc = LogSumAcc::new();
            let mut screened = LogSumAcc::new();
            for step in 0..300 {
                let l = match step % 17 {
                    0 => f64::NEG_INFINITY,
                    // A late maximum, up to 60 nats above everything so far.
                    1 => naive.max.unwrap_or(base) + 60.0 * unit(&mut rng),
                    // Right at the edge of the no-op zone.
                    2 => naive.max.unwrap_or(base) - 38.0 - unit(&mut rng) * 1e-9,
                    _ => base - spread * unit(&mut rng),
                };
                naive.add(l);
                acc.add(l);
                if l - screened.max_term() <= -38.0 {
                    dropped += 1;
                } else {
                    screened.add(l);
                }
                let want = naive.value().to_bits();
                assert_eq!(
                    acc.value().to_bits(),
                    want,
                    "add: stream {stream} step {step}"
                );
                assert_eq!(
                    screened.value().to_bits(),
                    want,
                    "dropped terms: stream {stream} step {step}"
                );
                assert_eq!(acc.scaled_sum.to_bits(), naive.scaled_sum.to_bits());
                assert_eq!(screened.scaled_sum.to_bits(), naive.scaled_sum.to_bits());
                assert_eq!(acc.max_term().to_bits(), naive.max.unwrap_or(l).to_bits());
            }
        }
        assert!(
            dropped > 10_000,
            "the streams must exercise the drop ({dropped})"
        );
    }

    #[test]
    fn the_no_op_gap_is_38_because_36_is_not_one() {
        // The constant is a property of f64, not a knob. The scaled sum is
        // at least 1, where half an ulp is 2⁻⁵³ = e^−36.74: a term 36 nats
        // down still moves a sum of exactly 1 …
        let half_ulp = 2f64.powi(-53);
        assert!((-36.0f64).exp() > half_ulp);
        let (mut with, mut without) = (NaiveAcc::default(), NaiveAcc::default());
        for acc in [&mut with, &mut without] {
            acc.add(0.0);
        }
        with.add(-36.0);
        assert_ne!(with.scaled_sum.to_bits(), without.scaled_sum.to_bits());
        assert_ne!(with.value().to_bits(), without.value().to_bits());

        // … while 38 nats down, with more than a nat to spare for the
        // roundings of `exp` and of a caller's `max − 38`, no scaled sum
        // from 1 upward moves — not even across a binade boundary.
        assert!((-LogSumAcc::NO_OP_GAP).exp() < half_ulp / 3.0);
        let tiny = (-LogSumAcc::NO_OP_GAP).exp();
        for sum in [
            1.0,
            1.0 + f64::EPSILON,
            1.5,
            2.0 - f64::EPSILON,
            2.0,
            3.0,
            1e6,
            1e300,
        ] {
            assert_eq!((sum + tiny).to_bits(), sum.to_bits(), "scaled sum {sum}");
        }
    }

    #[test]
    fn scaled_sum_add_then_sub_cancels() {
        let mut s = ScaledSum::new(-100.0);
        s.add(-101.0, 3.0);
        s.add(-105.0, 1.0);
        s.sub(-101.0, 3.0);
        let want = (-105.0f64 - (-100.0)).exp();
        assert!((s.scaled_value() - want).abs() < 1e-15);
    }

    #[test]
    fn scaled_sum_log_value_round_trip() {
        let mut s = ScaledSum::new(0.0);
        s.add(0.0, 1.0);
        s.add(1.0f64.ln(), 1.0); // another exp(0)=1
        assert!((s.log_value() - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn scaled_sum_negative_residue_clamped() {
        let mut s = ScaledSum::new(0.0);
        s.add(-1.0, 1.0);
        s.sub(-1.0, 1.0);
        s.sub(-30.0, 1e-6);
        assert_eq!(s.scaled_value(), 0.0);
        assert_eq!(s.log_value(), f64::NEG_INFINITY);
    }

    #[test]
    fn reanchor_preserves_log_value() {
        let mut s = ScaledSum::new(-50.0);
        s.add(-52.0, 2.0);
        s.add(-60.0, 1.0);
        let before = s.log_value();
        s.reanchor(-55.0);
        assert!((s.log_value() - before).abs() < 1e-12);
        assert_eq!(s.anchor(), -55.0);
        // Further adds keep working at the new scale.
        s.add(-55.0, 1.0);
        assert!(s.log_value() > before);
    }

    #[test]
    fn kahan_compensation_beats_naive_in_mixed_magnitudes() {
        // Add one big and many tiny values, then remove the big one; the
        // tiny values should survive with good relative accuracy.
        let mut s = ScaledSum::new(0.0);
        s.add(0.0, 1e8);
        let tiny = (-20.0f64).exp();
        for _ in 0..1000 {
            s.add(-20.0, 1.0);
        }
        s.sub(0.0, 1e8);
        let want = 1000.0 * tiny;
        let got = s.scaled_value();
        assert!((got - want).abs() < 1e-6 * want, "got {got}, want {want}");
    }
}
