//! Ablation A3: Φ implementation used when integrating hull functions —
//! the erf-based Φ versus the paper's degree-5 polynomial sigmoid
//! approximation — and their effect on the split cost metric.
//!
//! Run: `cargo run --release -p gauss_bench --bin ablation_phi`

use pfv::hull::DimBounds;
use pfv::phi::{phi, phi_poly5, PhiImpl};
use pfv::quadrature::integrate_adaptive;

fn main() {
    println!("Ablation A3 — Φ implementations");
    println!();
    println!("Pointwise |Φ_impl − Φ_ref| (Φ_ref by adaptive quadrature of the pdf):");
    println!("{:>6} {:>14} {:>14}", "x", "erf-based", "poly5 (paper)");
    let mut max_erf = 0.0f64;
    let mut max_poly = 0.0f64;
    for i in 0..=16 {
        let x = -4.0 + i as f64 * 0.5;
        let reference = 0.5
            + integrate_adaptive(
                |t| pfv::gaussian::pdf(0.0, 1.0, t),
                0.0_f64.min(x),
                0.0_f64.max(x),
                1e-14,
            ) * x.signum();
        let e = (phi(x) - reference).abs();
        let p = (phi_poly5(x) - reference).abs();
        max_erf = max_erf.max(e);
        max_poly = max_poly.max(p);
        println!("{x:>6.1} {e:>14.2e} {p:>14.2e}");
    }
    println!("max abs error: erf {max_erf:.2e}, poly5 {max_poly:.2e}");

    println!();
    println!("Hull-integral values under each Φ (split cost inputs):");
    println!(
        "{:<34} {:>12} {:>12} {:>12}",
        "bounds", "closed form", "erf pieces", "poly5 pieces"
    );
    for b in [
        DimBounds::new(3.0, 4.0, 0.6, 0.9),
        DimBounds::new(0.0, 0.1, 0.05, 0.5),
        DimBounds::new(-2.0, 7.0, 0.1, 3.0),
    ] {
        println!(
            "{:<34} {:>12.6} {:>12.6} {:>12.6}",
            format!(
                "μ∈[{},{}], σ∈[{},{}]",
                b.mu_lo, b.mu_hi, b.sigma_lo, b.sigma_hi
            ),
            b.hull_integral(),
            b.hull_integral_with_phi(PhiImpl::Erf),
            b.hull_integral_with_phi(PhiImpl::Poly5),
        );
    }
    println!();
    println!("Expectation: differences are ≤1e-5 — the paper's degree-5 sigmoid");
    println!("approximation is more than accurate enough for split decisions, and");
    println!("the closed form removes the need for any Φ on the split path.");
}
