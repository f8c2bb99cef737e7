//! Experiment configuration (Section V of the paper).

use fading_core::BackendChoice;
use fading_net::{RateModel, UniformGenerator};
use serde::{Deserialize, Serialize};

/// Configuration for the Fig. 5 / Fig. 6 sweeps.
///
/// The paper fixes: 500×500 field, link lengths U\[5,20\], ε = 0.01,
/// `γ_th = 1`, unit rates. The sweep grids (which `N` values, which `α`
/// values, how many instances and trials per point) are not printed in
/// the paper; the defaults here are our documented choices
/// (EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Field side length.
    pub side: f64,
    /// Shortest link length.
    pub len_lo: f64,
    /// Longest link length.
    pub len_hi: f64,
    /// Acceptable error probability ε.
    pub epsilon: f64,
    /// Decoding threshold γ_th.
    pub gamma_th: f64,
    /// Values of `N` swept in Fig. 5(a)/6(a).
    pub n_values: Vec<usize>,
    /// Values of `α` swept in Fig. 5(b)/6(b).
    pub alpha_values: Vec<f64>,
    /// `N` held fixed during the α sweep.
    pub default_n: usize,
    /// `α` held fixed during the N sweep.
    pub default_alpha: f64,
    /// Independent topology instances averaged per sweep point.
    pub instances: usize,
    /// Monte-Carlo channel realizations per instance.
    pub trials: u64,
    /// Base seed; instance `k` of a sweep point uses a derived stream.
    pub seed: u64,
    /// Interference backend used when building each instance's
    /// [`fading_core::Problem`]. Dense in the paper configuration.
    pub interference: BackendChoice,
}

impl ExperimentConfig {
    /// The configuration used by EXPERIMENTS.md.
    pub fn paper() -> Self {
        Self {
            side: 500.0,
            len_lo: 5.0,
            len_hi: 20.0,
            epsilon: 0.01,
            gamma_th: 1.0,
            n_values: vec![100, 200, 300, 400, 500],
            alpha_values: vec![2.5, 3.0, 3.5, 4.0, 4.5],
            default_n: 300,
            default_alpha: 3.0,
            instances: 10,
            trials: 1000,
            seed: 20170714, // ICPP 2017 venue date
            interference: BackendChoice::Dense,
        }
    }

    /// A reduced configuration for fast smoke tests and CI.
    pub fn quick() -> Self {
        Self {
            n_values: vec![100, 300],
            alpha_values: vec![2.5, 4.0],
            instances: 2,
            trials: 100,
            ..Self::paper()
        }
    }

    /// The instance generator for a sweep point with `n` links.
    pub fn generator(&self, n: usize) -> UniformGenerator {
        UniformGenerator {
            side: self.side,
            n,
            len_lo: self.len_lo,
            len_hi: self.len_hi,
            rates: RateModel::Fixed(1.0),
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.side, 500.0);
        assert_eq!((c.len_lo, c.len_hi), (5.0, 20.0));
        assert_eq!(c.epsilon, 0.01);
        assert_eq!(c.gamma_th, 1.0);
        assert!(c.n_values.contains(&c.default_n));
        assert!(c.alpha_values.contains(&c.default_alpha));
    }

    #[test]
    fn quick_is_smaller_than_paper() {
        let q = ExperimentConfig::quick();
        let p = ExperimentConfig::paper();
        assert!(q.trials < p.trials);
        assert!(q.instances < p.instances);
        assert!(q.n_values.len() < p.n_values.len());
    }

    #[test]
    fn generator_uses_unit_rates() {
        use fading_net::TopologyGenerator;
        let c = ExperimentConfig::paper();
        let ls = c.generator(50).generate(1);
        assert_eq!(ls.len(), 50);
        assert!(ls.has_uniform_rates());
    }

    #[test]
    fn serde_roundtrip() {
        let mut c = ExperimentConfig::paper();
        c.interference = BackendChoice::Auto;
        let json = serde_json::to_string(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
