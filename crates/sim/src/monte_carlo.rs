//! Parallel Monte-Carlo estimation of slot metrics.
//!
//! A call builds the pair's [`GainTable`] once and every trial realizes
//! it read-only: a Rayleigh trial draws one uniform per scheduled link
//! against its Theorem 3.1 success probability `p_j`, and the table's
//! exact expectations are reported beside the sample means. Trials are
//! embarrassingly parallel: each gets an independent RNG stream derived
//! from `(base_seed, trial_index)` via SplitMix. The per-trial `(failed, delivered)` pairs are collected
//! position-stably and pushed into the Welford accumulators in trial
//! order, so the statistics are bit-identical regardless of thread
//! count (and to the sequential small-`trials` path). Merging per-thread
//! Welford partials (Chan's update) would not be: its rounding depends
//! on where the chunk boundaries fall.

use crate::slot::{GainTable, SlotOutcome};
use fading_core::{Problem, Schedule};
use fading_math::{seeded_rng, split_seed, OnlineStats, Summary};
use rand::rngs::StdRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Aggregated Monte-Carlo statistics for one (problem, schedule) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloStats {
    /// Number of scheduled links.
    pub scheduled: usize,
    /// Total scheduled rate (the throughput if nothing faded).
    pub scheduled_rate: f64,
    /// Failed transmissions per slot.
    pub failed: Summary,
    /// Delivered rate per slot (realized throughput).
    pub throughput: Summary,
    /// Exact Rayleigh expected failures per slot, `Σ_j (1 − p_j)`. The
    /// Nakagami and shadowed harnesses report the same Rayleigh value:
    /// the reference their channel deviates from.
    pub failed_exact: f64,
    /// Exact Rayleigh expected delivered rate per slot, `Σ_j λ_j·p_j`
    /// (the Rayleigh reference under the other laws, as above).
    pub throughput_exact: f64,
}

/// Number of trials below which the parallel split isn't worth it.
const PARALLEL_TRIALS_THRESHOLD: u64 = 32;

/// Runs `trials` independent slot realizations of `schedule`.
///
/// ```
/// use fading_core::{algo::Rle, Problem, Scheduler};
/// use fading_net::{TopologyGenerator, UniformGenerator};
/// use fading_sim::{simulate_many, BatchRunner};
///
/// let problem = Problem::paper(UniformGenerator::paper(80).generate(3), 3.0);
/// // Batched sweeps schedule through a pooled workspace.
/// let schedule = BatchRunner::new().schedule(&Rle::new(), &problem);
/// let stats = simulate_many(&problem, &schedule, 200, 42);
/// // The ε = 1% target holds empirically.
/// assert!(stats.failed.mean <= 0.01 * schedule.len() as f64 + 0.3);
/// // Bit-reproducible: same seed, same numbers.
/// assert_eq!(stats, simulate_many(&problem, &schedule, 200, 42));
/// ```
pub fn simulate_many(
    problem: &Problem,
    schedule: &Schedule,
    trials: u64,
    base_seed: u64,
) -> MonteCarloStats {
    let table = GainTable::new(problem, schedule);
    let stats = monte_carlo(&table, trials, base_seed, |rng| table.realize(rng));
    fading_obs::counter!("channel.rayleigh.draws").add(trials * table.draws());
    fading_obs::counter!("sim.mc.trials").add(trials);
    fading_obs::counter!("sim.mc.batches").incr();
    stats
}

/// Runs `trials` realizations `realize(rng_t)` of `table`'s pair, trial
/// `t` on the stream `split_seed(base_seed, t)`, and summarizes failures
/// and delivered rate in trial order (thread-count invariant; see the
/// module docs).
///
/// # Panics
/// Panics if `trials == 0`.
pub(crate) fn monte_carlo<F>(
    table: &GainTable,
    trials: u64,
    base_seed: u64,
    realize: F,
) -> MonteCarloStats
where
    F: Fn(&mut StdRng) -> SlotOutcome + Sync,
{
    assert!(trials > 0, "at least one trial is required");
    let one = |t: u64| -> (f64, f64) {
        let out = realize(&mut seeded_rng(split_seed(base_seed, t)));
        (out.failed_count() as f64, out.delivered_rate)
    };
    let per_trial: Vec<(f64, f64)> = if trials >= PARALLEL_TRIALS_THRESHOLD {
        (0..trials).into_par_iter().map(one).collect()
    } else {
        (0..trials).map(one).collect()
    };
    let mut failed = OnlineStats::new();
    let mut throughput = OnlineStats::new();
    for (fc, dr) in per_trial {
        failed.push(fc);
        throughput.push(dr);
    }
    MonteCarloStats {
        scheduled: table.len(),
        scheduled_rate: table.scheduled_rate(),
        failed: failed.summary(),
        throughput: throughput.summary(),
        failed_exact: table.expected_failures(),
        throughput_exact: table.expected_throughput(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_core::algo::{ApproxDiversity, Rle};
    use fading_core::{FeasibilityReport, Scheduler};
    use fading_net::{LinkId, TopologyGenerator, UniformGenerator};

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    #[test]
    fn deterministic_across_runs() {
        let p = problem(60, 1);
        let s = Rle::new().schedule(&p);
        let a = simulate_many(&p, &s, 200, 42);
        let b = simulate_many(&p, &s, 200, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn feasible_schedule_failure_rate_is_within_epsilon() {
        // RLE schedules target per-link failure ≤ ε = 1%; the expected
        // failed count per slot is ≤ ε·|S|.
        let p = problem(200, 3);
        let s = Rle::new().schedule(&p);
        let stats = simulate_many(&p, &s, 4000, 11);
        let bound = p.epsilon() * s.len() as f64;
        assert!(
            stats.failed.mean <= bound + 3.0 * stats.failed.ci95.max(1e-3),
            "mean failed {} vs ε·|S| {}",
            stats.failed.mean,
            bound
        );
    }

    #[test]
    fn empirical_failures_match_analytic_success_probabilities() {
        // E[failures] = Σ_j (1 − Pr(X_j ≥ γ_th)) with the closed form
        // from Theorem 3.1 — the simulator must agree with the math.
        let p = problem(150, 4);
        let s = ApproxDiversity::new().schedule(&p);
        let report = FeasibilityReport::evaluate(&p, &s);
        let analytic: f64 = report
            .entries()
            .iter()
            .map(|e| 1.0 - e.success_probability)
            .sum();
        let stats = simulate_many(&p, &s, 6000, 13);
        assert!(
            (stats.failed.mean - analytic).abs() <= 4.0 * stats.failed.ci95 + 0.05,
            "empirical {} vs analytic {}",
            stats.failed.mean,
            analytic
        );
    }

    #[test]
    fn throughput_plus_failures_account_for_all_links() {
        // Unit rates: throughput + failed = |S| in every realization,
        // hence also in means.
        let p = problem(100, 5);
        let s = ApproxDiversity::new().schedule(&p);
        let stats = simulate_many(&p, &s, 500, 17);
        let total = stats.throughput.mean + stats.failed.mean;
        assert!(
            (total - s.len() as f64).abs() < 1e-9,
            "throughput {} + failed {} != |S| {}",
            stats.throughput.mean,
            stats.failed.mean,
            s.len()
        );
    }

    #[test]
    fn singleton_schedule_never_fails() {
        let p = problem(10, 6);
        let s = fading_core::Schedule::from_ids([LinkId(0)]);
        let stats = simulate_many(&p, &s, 300, 19);
        assert_eq!(stats.failed.mean, 0.0);
        assert_eq!(stats.throughput.mean, 1.0);
        assert_eq!(stats.scheduled, 1);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn rejects_zero_trials() {
        let p = problem(5, 7);
        simulate_many(&p, &Schedule::empty(), 0, 0);
    }
}
