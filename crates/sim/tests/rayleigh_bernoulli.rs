//! The one-uniform-per-link Rayleigh sampler is statistically the
//! channel.
//!
//! Under Rayleigh fading every gain is independent and link `j`'s
//! outcome depends only on its own column, so receivers succeed
//! independently with the Theorem 3.1 probability `p_j`. These tests
//! check that reading on seeded data:
//!
//! * over a Fig. 5(a)-shaped grid, both the Bernoulli sampler
//!   (`simulate_many`) and the `k²` gain walk (`realized_sinrs`
//!   thresholded at `γ_th`) land within 4σ of `Σ_j (1 − p_j)`;
//! * per link, the Bernoulli success frequencies pass a χ² test against
//!   `p_j`, and fail it against `p_j − 0.02` (negative control);
//! * `p_j` agrees with `FeasibilityReport`'s `exp(−Σ f_ij)` when the
//!   model is the paper's (no noise, unit power scales).

use fading_core::algo::{ApproxDiversity, ApproxLogN, Ldp, Rle};
use fading_core::{FeasibilityReport, Problem, Schedule, Scheduler};
use fading_math::{seeded_rng, split_seed};
use fading_net::{TopologyGenerator, UniformGenerator};
use fading_sim::{realized_sinrs, simulate_many, GainTable};
use rayon::prelude::*;

fn paper_problem(n: usize, seed: u64) -> Problem {
    Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
}

/// Mean failures per slot of `trials` `k²`-walk realizations, trial
/// `t` on the stream `split_seed(seed, t)`.
fn walk_failed_mean(problem: &Problem, schedule: &Schedule, trials: u64, seed: u64) -> f64 {
    let gamma = problem.params().gamma_th;
    let failed: usize = (0..trials)
        .into_par_iter()
        .map(|t| {
            realized_sinrs(problem, schedule, &mut seeded_rng(split_seed(seed, t)))
                .iter()
                .filter(|&&(_, sinr)| sinr < gamma)
                .count()
        })
        .sum();
    failed as f64 / trials as f64
}

#[test]
fn both_samplers_match_the_exact_expectation_on_the_fig5a_grid() {
    const TRIALS: u64 = 2000;
    let schedulers: [&dyn Scheduler; 4] = [
        &Ldp::new(),
        &Rle::new(),
        &ApproxLogN,
        &ApproxDiversity::new(),
    ];
    for n in [100, 300, 500] {
        for instance in 0..3u64 {
            let seed = 1000 * n as u64 + instance;
            let problem = paper_problem(n, seed);
            for scheduler in schedulers {
                let schedule = scheduler.schedule(&problem);
                let table = GainTable::new(&problem, &schedule);
                let exact = table.expected_failures();
                // Failures are a sum of independent Bernoulli(1 − p_j).
                let variance: f64 = table
                    .success_probabilities()
                    .iter()
                    .map(|p| p * (1.0 - p))
                    .sum();
                let tolerance = 4.0 * (variance / TRIALS as f64).sqrt() + 1e-12;
                let bernoulli = simulate_many(&problem, &schedule, TRIALS, seed).failed.mean;
                let walk = walk_failed_mean(&problem, &schedule, TRIALS, seed);
                for (sampler, mean) in [("Bernoulli", bernoulli), ("k² walk", walk)] {
                    assert!(
                        (mean - exact).abs() <= tolerance,
                        "{} N={n} instance {instance}: {sampler} mean {mean} vs exact {exact} \
                         (4σ = {tolerance})",
                        scheduler.name(),
                    );
                }
            }
        }
    }
}

/// Pearson's χ² over links, each a two-cell (success, failure) table
/// with `trials` observations against success probability `p`.
fn chi_square(successes: &[u64], p: &[f64], trials: u64) -> f64 {
    let t = trials as f64;
    successes
        .iter()
        .zip(p)
        .map(|(&s, &p)| (s as f64 - t * p).powi(2) / (t * p * (1.0 - p)))
        .sum()
}

/// Upper 0.1% point of χ² with `df` degrees of freedom
/// (Wilson–Hilferty).
fn chi_square_critical(df: usize) -> f64 {
    let d = df as f64;
    let z = 3.090;
    d * (1.0 - 2.0 / (9.0 * d) + z * (2.0 / (9.0 * d)).sqrt()).powi(3)
}

#[test]
fn per_link_frequencies_pass_chi_square_and_the_shifted_control_fails() {
    const TRIALS: u64 = 20_000;
    let problem = paper_problem(500, 7);
    let schedule = ApproxDiversity::new().schedule(&problem);
    let table = GainTable::new(&problem, &schedule);
    let members: Vec<_> = schedule.iter().collect();
    let mut successes = vec![0u64; members.len()];
    for t in 0..TRIALS {
        for id in table.realize(&mut seeded_rng(split_seed(11, t))).successes {
            successes[members.iter().position(|&m| m == id).unwrap()] += 1;
        }
    }
    // Links whose cells both expect ≥ 5 observations, and whose shifted
    // probability stays inside (0, 1).
    let tested: Vec<usize> = (0..members.len())
        .filter(|&j| {
            let p = table.success_probabilities()[j];
            p >= 0.05 && TRIALS as f64 * (1.0 - p) >= 5.0
        })
        .collect();
    assert!(
        tested.len() >= 10,
        "only {} links with p_j < 1 to test",
        tested.len()
    );
    let observed: Vec<u64> = tested.iter().map(|&j| successes[j]).collect();
    let p: Vec<f64> = tested
        .iter()
        .map(|&j| table.success_probabilities()[j])
        .collect();
    let critical = chi_square_critical(tested.len());

    let stat = chi_square(&observed, &p, TRIALS);
    assert!(
        stat <= critical,
        "χ² {stat} over {} links exceeds {critical}",
        tested.len()
    );
    let shifted: Vec<f64> = p.iter().map(|p| p - 0.02).collect();
    let control = chi_square(&observed, &shifted, TRIALS);
    assert!(
        control > critical,
        "shifted control χ² {control} passed (critical {critical})"
    );
}

#[test]
fn success_probabilities_match_the_feasibility_report() {
    for (n, seed) in [(100, 1), (300, 2), (500, 3)] {
        let problem = paper_problem(n, seed);
        assert_eq!(problem.params().noise, 0.0);
        let schedulers: [&dyn Scheduler; 2] = [&Rle::new(), &ApproxDiversity::new()];
        for scheduler in schedulers {
            let schedule = scheduler.schedule(&problem);
            let table = GainTable::new(&problem, &schedule);
            let report = FeasibilityReport::evaluate(&problem, &schedule);
            assert_eq!(table.success_probabilities().len(), report.entries().len());
            for (&p, entry) in table.success_probabilities().iter().zip(report.entries()) {
                let q = entry.success_probability;
                assert!(
                    (p - q).abs() <= 1e-12 * q,
                    "{} link {:?}: table {p} vs report {q}",
                    scheduler.name(),
                    entry.id
                );
            }
        }
    }
}
