//! The gain table realizes exactly what its oracles draw.
//!
//! Two oracles, both recomputing path loss per pair through
//! `problem.channel()`:
//!
//! * the per-draw `k²` walk draws every gain pair by pair
//!   (`Exponential::with_mean(mean · scale)`), and `realized_sinrs` must
//!   return the identical SINRs;
//! * the one-uniform-per-link oracle recomputes each link's Theorem 3.1
//!   success probability `p_j` (noise factor first, then divided by
//!   `1 + γ_th·s_i·m_ij/(s_j·m_jj)` per interferer in schedule order) and
//!   draws one uniform per receiver; `simulate_slot` must return the
//!   identical `SlotOutcome` and `simulate_many` the identical
//!   `MonteCarloStats`, exact expectations included.
//!
//! Both hold on random instances with non-uniform power scales and
//! rates, residual sub-problems, both interference backends, noisy
//! channels, and empty and singleton schedules.

use fading_channel::{sinr_of, ChannelParams};
use fading_core::{BackendChoice, Problem, Schedule, SparseConfig};
use fading_math::{seeded_rng, split_seed, Exponential, OnlineStats};
use fading_net::{Link, LinkId, LinkSet, TopologyGenerator, UniformGenerator};
use fading_sim::{realized_sinrs, simulate_many, simulate_slot, MonteCarloStats, SlotOutcome};
use proptest::prelude::*;
use rand::Rng;

/// One realization's SINRs, every gain drawn pair by pair.
fn oracle_sinrs<R: Rng + ?Sized>(
    problem: &Problem,
    schedule: &Schedule,
    rng: &mut R,
) -> Vec<(LinkId, f64)> {
    let params = problem.channel().params;
    let links = problem.links();
    let gain = |rng: &mut R, d: f64, i: LinkId| {
        Exponential::with_mean(params.mean_gain(d) * problem.power_scale(i)).sample(rng)
    };
    let mut out = Vec::new();
    for j in schedule.iter() {
        let signal = gain(rng, links.length(j), j);
        let interference: Vec<f64> = schedule
            .iter()
            .filter(|&i| i != j)
            .map(|i| gain(rng, links.sender_receiver_distance(i, j), i))
            .collect();
        out.push((j, sinr_of(problem.params(), signal, interference).sinr));
    }
    out
}

/// Each scheduled link's Rayleigh success probability, in schedule
/// order, from distances, power scales and `N₀`.
fn oracle_success(problem: &Problem, schedule: &Schedule) -> Vec<f64> {
    let params = problem.channel().params;
    let links = problem.links();
    let g = params.gamma_th;
    schedule
        .iter()
        .map(|j| {
            let signal = problem.power_scale(j) * params.mean_gain(links.length(j));
            let noise = (-(g * params.noise) / signal).exp();
            schedule.iter().filter(|&i| i != j).fold(noise, |p, i| {
                let m = params.mean_gain(links.sender_receiver_distance(i, j));
                p / (1.0 + g * problem.power_scale(i) * m / signal)
            })
        })
        .collect()
}

/// One slot: one uniform per scheduled link against its `p_j`.
fn oracle_slot<R: Rng + ?Sized>(
    problem: &Problem,
    schedule: &Schedule,
    rng: &mut R,
) -> SlotOutcome {
    let mut out = SlotOutcome::default();
    for (j, p) in schedule.iter().zip(oracle_success(problem, schedule)) {
        if rng.gen::<f64>() < p {
            out.successes.push(j);
            out.delivered_rate += problem.rate(j);
        } else {
            out.failures.push(j);
        }
    }
    out
}

/// `trials` oracle slots on the per-trial streams, summarized in trial
/// order, with the exact expectations.
fn oracle_many(problem: &Problem, schedule: &Schedule, trials: u64, seed: u64) -> MonteCarloStats {
    let mut failed = OnlineStats::new();
    let mut throughput = OnlineStats::new();
    for t in 0..trials {
        let out = oracle_slot(problem, schedule, &mut seeded_rng(split_seed(seed, t)));
        failed.push(out.failed_count() as f64);
        throughput.push(out.delivered_rate);
    }
    let success = oracle_success(problem, schedule);
    MonteCarloStats {
        scheduled: schedule.len(),
        scheduled_rate: schedule.utility(problem),
        failed: failed.summary(),
        throughput: throughput.summary(),
        failed_exact: success.iter().map(|p| 1.0 - p).sum(),
        throughput_exact: schedule
            .iter()
            .zip(&success)
            .map(|(j, p)| problem.rate(j) * p)
            .sum(),
    }
}

/// A random instance: `n` paper-density links with rates in [0.5, 3),
/// power scales in [0.25, 4), optional noise, dense or sparse factors,
/// and (optionally) restricted to a random residual sub-problem.
fn instance(n: usize, seed: u64, alpha: f64, noisy: bool, sparse: bool, residual: bool) -> Problem {
    let mut rng = seeded_rng(seed ^ 0x5eed);
    let base = UniformGenerator::paper(n).generate(seed);
    let links: Vec<Link> = base
        .links()
        .iter()
        .map(|l| Link::new(l.id, l.sender, l.receiver, rng.gen_range(0.5..3.0)))
        .collect();
    let links = LinkSet::new(*base.region(), links);
    let power_scales: Vec<f64> = (0..n).map(|_| rng.gen_range(0.25..4.0)).collect();
    let noise = if noisy { 1e-6 } else { 0.0 };
    let backend = if sparse {
        BackendChoice::Sparse(SparseConfig::default())
    } else {
        BackendChoice::Dense
    };
    let problem = Problem::builder(links, ChannelParams::new(alpha, 1.0, 1.0, noise))
        .power_scales(power_scales)
        .backend(backend)
        .build();
    if residual {
        let keep: Vec<LinkId> = problem
            .links()
            .ids()
            .filter(|_| rng.gen::<f64>() < 0.6)
            .collect();
        problem.restrict(&keep).0
    } else {
        problem
    }
}

/// A random subset of `problem`'s links holding each with probability
/// `density`.
fn random_schedule(problem: &Problem, density: f64, seed: u64) -> Schedule {
    let mut rng = seeded_rng(seed);
    Schedule::from_ids(problem.links().ids().filter(|_| rng.gen::<f64>() < density))
}

fn assert_matches_oracle(problem: &Problem, schedule: &Schedule, trials: u64, seed: u64) {
    for t in 0..3 {
        let s = split_seed(seed, 1000 + t);
        assert_eq!(
            simulate_slot(problem, schedule, &mut seeded_rng(s)),
            oracle_slot(problem, schedule, &mut seeded_rng(s)),
        );
        assert_eq!(
            realized_sinrs(problem, schedule, &mut seeded_rng(s)),
            oracle_sinrs(problem, schedule, &mut seeded_rng(s)),
        );
    }
    assert_eq!(
        simulate_many(problem, schedule, trials, seed),
        oracle_many(problem, schedule, trials, seed),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gain_table_matches_its_oracles(
        (n, seed, alpha_pick) in (1usize..40, 0u64..10_000, 0usize..3),
        (noisy, sparse, residual) in (0usize..2, 0usize..2, 0usize..2),
        (density, trials) in (0.0f64..1.0, 1u64..80),
    ) {
        let alpha = [2.5, 3.0, 4.0][alpha_pick];
        let p = instance(n, seed, alpha, noisy == 1, sparse == 1, residual == 1);
        let s = random_schedule(&p, density, seed + 1);
        assert_matches_oracle(&p, &s, trials, seed);
    }
}

#[test]
fn empty_and_singleton_schedules_match_the_oracles() {
    for (sparse, residual) in [(false, false), (true, true)] {
        let p = instance(12, 5, 3.0, true, sparse, residual);
        assert_matches_oracle(&p, &Schedule::empty(), 40, 9);
        for id in p.links().ids() {
            assert_matches_oracle(&p, &Schedule::from_ids([id]), 40, 9);
        }
    }
}
