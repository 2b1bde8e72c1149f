//! Adaptive Simpson quadrature.
//!
//! Used to *verify* the closed-form results (Lemma 1, the hull integral) in
//! tests and ablations — never on the query path.

/// Integrates `f` over `[a, b]` with adaptive Simpson refinement until the
/// local error estimate is below `eps`.
///
/// # Panics
/// Panics if `a > b` or `eps <= 0`.
#[must_use]
pub fn integrate_adaptive(f: impl Fn(f64) -> f64, a: f64, b: f64, eps: f64) -> f64 {
    assert!(a <= b, "integration bounds reversed: {a} > {b}");
    assert!(eps > 0.0, "eps must be positive");
    #[expect(clippy::float_cmp, reason = "a zero-width interval integrates to 0.0")]
    if a == b {
        return 0.0;
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson(a, b, fa, fm, fb);
    adaptive(&f, a, b, fa, fm, fb, whole, eps, 50)
}

fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[expect(clippy::too_many_arguments, reason = "Simpson's recursion state")]
fn adaptive(
    f: &impl Fn(f64) -> f64,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    eps: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * eps {
        left + right + delta / 15.0
    } else {
        adaptive(f, a, m, fa, flm, fm, left, eps / 2.0, depth - 1)
            + adaptive(f, m, b, fm, frm, fb, right, eps / 2.0, depth - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_polynomial_exactly() {
        // Simpson is exact for cubics.
        let got = integrate_adaptive(|x| x * x * x - 2.0 * x + 1.0, 0.0, 2.0, 1e-12);
        let want = 16.0 / 4.0 - 4.0 + 2.0; // x⁴/4 − x² + x on [0,2]
        assert!((got - want).abs() < 1e-10);
    }

    #[test]
    fn integrates_gaussian_to_one() {
        let got = integrate_adaptive(|x| crate::gaussian::pdf(0.0, 1.0, x), -12.0, 12.0, 1e-12);
        assert!((got - 1.0).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn integrates_sin_over_period() {
        let got = integrate_adaptive(f64::sin, 0.0, std::f64::consts::PI, 1e-12);
        assert!((got - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_interval_is_zero() {
        assert_eq!(integrate_adaptive(|x| x, 3.0, 3.0, 1e-9), 0.0);
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn rejects_reversed_bounds() {
        let _ = integrate_adaptive(|x| x, 1.0, 0.0, 1e-9);
    }
}
