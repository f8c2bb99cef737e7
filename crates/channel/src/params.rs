//! Physical-layer constants shared by all channel models.

use serde::{Deserialize, Serialize};

/// Physical parameters of the wireless channel.
///
/// The paper's defaults (Section V): `γ_th = 1`, `α` swept around 3,
/// unit transmit power, zero ambient noise (`N₀` is ignored per Eq. (8)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelParams {
    /// Path-loss exponent `α`; the paper assumes `α > 2`.
    pub alpha: f64,
    /// Decoding SINR threshold `γ_th`.
    pub gamma_th: f64,
    /// Transmit power `P` (identical for every sender, per the model).
    pub power: f64,
    /// Ambient noise floor `N₀`. The paper sets this to zero (Eq. (8));
    /// keeping it as a parameter lets the extension experiments study
    /// noise sensitivity.
    pub noise: f64,
}

impl ChannelParams {
    /// Creates validated parameters.
    ///
    /// # Panics
    /// Panics unless `alpha > 2`, `gamma_th > 0`, `power > 0`,
    /// `noise >= 0`, and all are finite.
    pub fn new(alpha: f64, gamma_th: f64, power: f64, noise: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 2.0,
            "path-loss exponent must satisfy α > 2 (paper convention), got {alpha}"
        );
        assert!(
            gamma_th.is_finite() && gamma_th > 0.0,
            "decoding threshold must be positive, got {gamma_th}"
        );
        assert!(
            power.is_finite() && power > 0.0,
            "transmit power must be positive, got {power}"
        );
        assert!(
            noise.is_finite() && noise >= 0.0,
            "noise must be non-negative, got {noise}"
        );
        Self {
            alpha,
            gamma_th,
            power,
            noise,
        }
    }

    /// The paper's evaluation setup: `α = 3`, `γ_th = 1`, `P = 1`, `N₀ = 0`.
    pub fn paper_defaults() -> Self {
        Self::new(3.0, 1.0, 1.0, 0.0)
    }

    /// Same defaults with a different path-loss exponent (the Fig. 5(b)
    /// and 6(b) sweeps).
    pub fn with_alpha(alpha: f64) -> Self {
        Self::new(alpha, 1.0, 1.0, 0.0)
    }

    /// Mean (and, in the deterministic model, exact) received power at
    /// distance `d`: `P · d^{−α}`, computed as `P / d^α` through
    /// [`pow_alpha`](Self::pow_alpha).
    ///
    /// # Panics
    /// Panics if `d <= 0` — the far-field path-loss law is meaningless
    /// at zero distance and instance generators must never co-locate a
    /// sender and an interfered receiver.
    #[inline]
    pub fn mean_gain(&self, d: f64) -> f64 {
        assert!(d > 0.0, "path loss undefined at distance {d}");
        self.power / self.pow_alpha(d)
    }

    /// `x^α`, with the paper's integer path-loss exponents (2, 3, 4, 6)
    /// specialized to repeated squaring. `powf` is a libm call that
    /// would price every stored interference factor — at build time and
    /// on every CSR mutation — and every path-loss mean a slot's gain
    /// table holds; the specialization is ~20× cheaper, at a relative
    /// error of at most 1, 2, 3 and 5 roundings for α = 2, 3, 4, 6.
    /// Every factor producer and [`mean_gain`](Self::mean_gain) go
    /// through this one helper so sparse/dense builds and in-place
    /// mutations keep computing bit-identical values.
    #[inline]
    pub fn pow_alpha(&self, x: f64) -> f64 {
        if self.alpha == 2.0 {
            x * x
        } else if self.alpha == 3.0 {
            (x * x) * x
        } else if self.alpha == 4.0 {
            let x2 = x * x;
            x2 * x2
        } else if self.alpha == 6.0 {
            let x2 = x * x;
            (x2 * x2) * x2
        } else {
            x.powf(self.alpha)
        }
    }
}

impl Default for ChannelParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v() {
        let p = ChannelParams::paper_defaults();
        assert_eq!(p.alpha, 3.0);
        assert_eq!(p.gamma_th, 1.0);
        assert_eq!(p.power, 1.0);
        assert_eq!(p.noise, 0.0);
    }

    #[test]
    fn mean_gain_follows_power_law() {
        let p = ChannelParams::paper_defaults();
        assert!((p.mean_gain(2.0) - 0.125).abs() < 1e-15);
        assert!((p.mean_gain(1.0) - 1.0).abs() < 1e-15);
        // Doubling distance divides gain by 2^α.
        let ratio = p.mean_gain(5.0) / p.mean_gain(10.0);
        assert!((ratio - 8.0).abs() < 1e-12);
    }

    #[test]
    fn mean_gain_scales_with_power() {
        let p = ChannelParams::new(3.0, 1.0, 4.0, 0.0);
        assert!((p.mean_gain(2.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "α > 2")]
    fn rejects_small_alpha() {
        ChannelParams::new(2.0, 1.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_threshold() {
        ChannelParams::new(3.0, 0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "path loss undefined")]
    fn rejects_zero_distance() {
        ChannelParams::paper_defaults().mean_gain(0.0);
    }

    /// `mean_gain` is `P / pow_alpha(d)` exactly, and stays within the
    /// rounding bound of the libm `P · d^{−α}` at the specialized
    /// exponents: `k` roundings in `pow_alpha` (k = 1, 2, 3, 5 for
    /// α = 2, 3, 4, 6), one in the division, ≤ 2 in `powf` (≤ 1 ulp)
    /// and one in the product, each at most `u = ε/2` relative. In ulps
    /// the two differ by up to 3 at α = 4 and 5 at α = 6.
    #[test]
    fn mean_gain_is_pinned_to_pow_alpha() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for (alpha, k) in [(2.0, 1.0), (3.0, 2.0), (4.0, 3.0), (6.0, 5.0)] {
            let bound = (k + 4.0) * f64::EPSILON / 2.0;
            for power in [1.0, 0.37, 4.0] {
                // Struct literal: `new` rejects α = 2, but `pow_alpha`
                // still specializes it.
                let p = ChannelParams {
                    alpha,
                    power,
                    ..ChannelParams::paper_defaults()
                };
                for _ in 0..20_000 {
                    let d = 10f64.powf(rng.gen_range(-1.0..4.0));
                    let g = p.mean_gain(d);
                    assert_eq!(g.to_bits(), (power / p.pow_alpha(d)).to_bits());
                    let libm = power * d.powf(-alpha);
                    let rel = ((g - libm) / libm).abs();
                    assert!(rel <= bound, "α={alpha} P={power} d={d}: {g} vs {libm}");
                }
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let p = ChannelParams::with_alpha(3.5);
        let json = serde_json::to_string(&p).unwrap();
        let q: ChannelParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, q);
    }
}
