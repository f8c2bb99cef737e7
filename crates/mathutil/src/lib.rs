//! Numeric substrate for the fading-rls workspace.
//!
//! Everything here is deliberately dependency-light and deterministic:
//! the scheduling algorithms need the Riemann zeta function for their
//! geometric constants (`β` in LDP, `c₁` in RLE), the feasibility checker
//! needs compensated summation so that the `Σ f_{i,j} ≤ γ_ε` test is not
//! at the mercy of float association order, and the Monte-Carlo harness
//! needs reproducible random sampling plus summary statistics with
//! confidence intervals.

pub mod expdist;
pub mod histogram;
pub mod integrate;
pub mod kahan;
pub mod rng;
pub mod stats;
pub mod zeta;

pub use expdist::Exponential;
pub use histogram::Histogram;
pub use integrate::{integrate, integrate_to_infinity};
pub use kahan::KahanSum;
pub use rng::{seeded_rng, split_seed};
pub use stats::{ci95_half_width, OnlineStats, Summary};
pub use zeta::zeta;

/// Natural log of `1/(1-eps)` — the paper's `γ_ε` constant
/// (Corollary 3.1) — computed via `ln_1p` for accuracy at small `eps`.
///
/// # Panics
/// Panics if `eps` is not in `(0, 1)`.
pub fn gamma_eps(eps: f64) -> f64 {
    assert!(
        eps > 0.0 && eps < 1.0,
        "acceptable error rate must lie in (0,1), got {eps}"
    );
    // ln(1/(1-eps)) = -ln(1-eps) = -ln_1p(-eps)
    -(-eps).ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_eps_matches_direct_formula() {
        for &eps in &[1e-6f64, 1e-3, 0.01, 0.1, 0.5, 0.99] {
            let direct = (1.0 / (1.0 - eps)).ln();
            let ours = gamma_eps(eps);
            assert!(
                (direct - ours).abs() <= 1e-12 * direct.max(1.0),
                "eps={eps}: {direct} vs {ours}"
            );
        }
    }

    #[test]
    fn gamma_eps_is_monotone_in_eps() {
        let mut prev = 0.0;
        for i in 1..100 {
            let eps = i as f64 / 100.0;
            let g = gamma_eps(eps);
            assert!(g > prev, "γ_ε must increase with ε");
            prev = g;
        }
    }

    #[test]
    fn gamma_eps_small_eps_is_accurate() {
        // For tiny ε, γ_ε ≈ ε + ε²/2; naive ln(1/(1-ε)) would lose digits.
        let eps = 1e-12;
        let g = gamma_eps(eps);
        assert!((g - eps).abs() < 1e-24, "g={g}");
    }

    #[test]
    #[should_panic(expected = "acceptable error rate")]
    fn gamma_eps_rejects_zero() {
        gamma_eps(0.0);
    }

    #[test]
    #[should_panic(expected = "acceptable error rate")]
    fn gamma_eps_rejects_one() {
        gamma_eps(1.0);
    }
}
