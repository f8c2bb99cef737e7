//! One time-slot channel realization.
//!
//! For every scheduled link `j`, draw the desired-signal power
//! `Z_{j,j} ~ Exp(P·d_jj^{−α})` and each interferer's power
//! `Z_{i,j} ~ Exp(P·d_ij^{−α})` independently (the Rayleigh model,
//! Eq. (5)), then test the realized SINR against `γ_th` (Eq. (7)–(8)).
//!
//! Every draw is scaled by the problem's per-link power scale. The
//! online engine and the multi-slot loop hand this function *residual*
//! sub-problems built by `Problem::restrict`, which slices the parent's
//! power scales along with its interference state — so
//! `sample_gain_scaled` sees the true transmit powers here even though
//! the sub-instance was renumbered (see `docs/residual.md`).

use fading_core::{Problem, Schedule};
use fading_net::LinkId;
use rand::Rng;

/// Outcome of one slot realization.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome {
    /// Links whose realized SINR cleared `γ_th`.
    pub successes: Vec<LinkId>,
    /// Links that failed.
    pub failures: Vec<LinkId>,
    /// Total rate of successful links (realized throughput).
    pub delivered_rate: f64,
}

impl SlotOutcome {
    /// Number of failed transmissions in this slot.
    pub fn failed_count(&self) -> usize {
        self.failures.len()
    }
}

/// Simulates one slot of `schedule` on `problem` using `rng`.
pub fn simulate_slot<R: Rng + ?Sized>(
    problem: &Problem,
    schedule: &Schedule,
    rng: &mut R,
) -> SlotOutcome {
    let channel = problem.channel();
    let links = problem.links();
    let mut successes = Vec::new();
    let mut failures = Vec::new();
    let mut delivered_rate = 0.0;
    for j in schedule.iter() {
        let signal = channel.sample_gain_scaled(rng, links.length(j), problem.power_scale(j));
        let interference = schedule.iter().filter(|&i| i != j).map(|i| {
            channel.sample_gain_scaled(
                rng,
                links.sender_receiver_distance(i, j),
                problem.power_scale(i),
            )
        });
        let outcome = fading_channel::sinr_of(problem.params(), signal, interference);
        if outcome.success {
            successes.push(j);
            delivered_rate += problem.rate(j);
        } else {
            failures.push(j);
        }
    }
    // |S| draws per scheduled link (its signal plus |S|−1 interferers),
    // batched into one increment per slot so the Monte-Carlo hot loop
    // never touches the registry per draw.
    let s = schedule.len() as u64;
    fading_obs::counter!("channel.rayleigh.draws").add(s * s);
    SlotOutcome {
        successes,
        failures,
        delivered_rate,
    }
}

/// One realization's SINR per scheduled link (schedule order). Used by
/// the SINR-distribution experiment; kept separate from
/// [`simulate_slot`] so the Monte-Carlo hot path avoids the extra
/// allocation.
pub fn realized_sinrs<R: Rng + ?Sized>(
    problem: &Problem,
    schedule: &Schedule,
    rng: &mut R,
) -> Vec<(LinkId, f64)> {
    let channel = problem.channel();
    let links = problem.links();
    schedule
        .iter()
        .map(|j| {
            let signal = channel.sample_gain_scaled(rng, links.length(j), problem.power_scale(j));
            let interference = schedule.iter().filter(|&i| i != j).map(|i| {
                channel.sample_gain_scaled(
                    rng,
                    links.sender_receiver_distance(i, j),
                    problem.power_scale(i),
                )
            });
            (
                j,
                fading_channel::sinr_of(problem.params(), signal, interference).sinr,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_math::seeded_rng;
    use fading_net::{TopologyGenerator, UniformGenerator};

    fn problem(n: usize, seed: u64) -> Problem {
        Problem::paper(UniformGenerator::paper(n).generate(seed), 3.0)
    }

    #[test]
    fn empty_schedule_trivial_outcome() {
        let p = problem(10, 1);
        let mut rng = seeded_rng(0);
        let out = simulate_slot(&p, &Schedule::empty(), &mut rng);
        assert!(out.successes.is_empty());
        assert!(out.failures.is_empty());
        assert_eq!(out.delivered_rate, 0.0);
    }

    #[test]
    fn singleton_always_succeeds_without_noise() {
        // No interferers and N₀ = 0 ⇒ infinite SINR in every realization.
        let p = problem(10, 2);
        let mut rng = seeded_rng(1);
        let s = Schedule::from_ids([LinkId(3)]);
        for _ in 0..100 {
            let out = simulate_slot(&p, &s, &mut rng);
            assert_eq!(out.successes, vec![LinkId(3)]);
            assert_eq!(out.delivered_rate, 1.0);
        }
    }

    #[test]
    fn partition_is_exact() {
        let p = problem(50, 3);
        let s = Schedule::from_ids(p.links().ids());
        let mut rng = seeded_rng(2);
        let out = simulate_slot(&p, &s, &mut rng);
        assert_eq!(out.successes.len() + out.failures.len(), s.len());
        // Delivered rate equals the number of successes (unit rates).
        assert_eq!(out.delivered_rate, out.successes.len() as f64);
    }

    #[test]
    fn dense_all_on_schedule_sees_failures() {
        // Activating all 200 links in a 500×500 field is hopeless; some
        // failures are certain in any realization.
        let p = problem(200, 4);
        let s = Schedule::from_ids(p.links().ids());
        let mut rng = seeded_rng(3);
        let out = simulate_slot(&p, &s, &mut rng);
        assert!(out.failed_count() > 0);
    }

    #[test]
    fn deterministic_given_rng_state() {
        let p = problem(30, 5);
        let s = Schedule::from_ids(p.links().ids());
        let a = simulate_slot(&p, &s, &mut seeded_rng(7));
        let b = simulate_slot(&p, &s, &mut seeded_rng(7));
        assert_eq!(a, b);
    }
}
