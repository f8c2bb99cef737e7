//! Correctness checks. Each returns `Err` with a message naming what
//! broke; a run with any failed check prints `"correct": false` and
//! exits non-zero. The tests below hold one negative control per check.

use fading_core::feasibility::within_budget;
use fading_core::Problem;
use fading_net::LinkId;
use rayon::prelude::*;

/// Receivers sampled for exact γ_ε feasibility, as the million smoke.
pub const FEASIBILITY_SAMPLES: usize = 256;

/// Interference storage budget for the static workload.
pub const STORAGE_BUDGET_BYTES: u64 = 1_000_000_000;

/// Packet conservation: everything that arrived was delivered,
/// abandoned with a departing link, or is still queued.
pub fn conservation(
    arrived: u64,
    delivered: u64,
    abandoned: u64,
    backlog: u64,
) -> Result<(), String> {
    if arrived == delivered + abandoned + backlog {
        Ok(())
    } else {
        Err(format!(
            "packet conservation violated: {arrived} arrived != {delivered} delivered + \
             {abandoned} abandoned + {backlog} queued"
        ))
    }
}

/// The 1−ε promise over many transmissions: every scheduled link
/// fails with probability at most ε, so the failure count may exceed
/// `ε·scheduled` only by binomial noise (five standard deviations plus
/// a small-count allowance).
pub fn reliability(failed: u64, scheduled: u64, eps: f64) -> Result<(), String> {
    let mean = eps * scheduled as f64;
    let bound = mean + 5.0 * mean.sqrt() + 5.0;
    if (failed as f64) <= bound {
        Ok(())
    } else {
        Err(format!(
            "1-eps promise broken: {failed} of {scheduled} transmissions failed, \
             over the bound {bound:.1} for eps = {eps}"
        ))
    }
}

/// Result of the sampled exact feasibility check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampled {
    /// Receivers whose exact interference sum was computed.
    pub sampled: u64,
    /// Sampled receivers whose sum exceeds γ_ε.
    pub over: u64,
}

/// Exact γ_ε feasibility on up to [`FEASIBILITY_SAMPLES`] evenly spaced
/// members of `schedule`: each sampled receiver's interference sum over
/// every other member, from factors recomputed exactly (no truncation).
/// `inflate` multiplies each sum; the workloads pass 1.
pub fn sampled_feasibility(problem: &Problem, schedule: &[LinkId], inflate: f64) -> Sampled {
    let step = (schedule.len() / FEASIBILITY_SAMPLES).max(1);
    let sample: Vec<LinkId> = schedule
        .iter()
        .copied()
        .step_by(step)
        .take(FEASIBILITY_SAMPLES)
        .collect();
    let budget = problem.gamma_eps();
    let over: Vec<bool> = (0..sample.len())
        .into_par_iter()
        .map(|k| {
            let j = sample[k];
            let sum: f64 = schedule
                .iter()
                .filter(|&&i| i != j)
                .map(|&i| problem.factor(i, j))
                .sum();
            !within_budget(sum * inflate, budget)
        })
        .collect();
    Sampled {
        sampled: sample.len() as u64,
        over: over.iter().filter(|&&o| o).count() as u64,
    }
}

/// Every sampled receiver must be within γ_ε.
pub fn feasible(label: &str, s: Sampled) -> Result<(), String> {
    if s.sampled == 0 {
        return Err(format!("{label}: empty schedule, nothing to check"));
    }
    if s.over == 0 {
        Ok(())
    } else {
        Err(format!(
            "{label}: {} of {} sampled receivers exceed gamma_eps",
            s.over, s.sampled
        ))
    }
}

/// Interference storage must stay under the memory budget.
pub fn storage(bytes: u64, budget: u64) -> Result<(), String> {
    if bytes < budget {
        Ok(())
    } else {
        Err(format!(
            "interference storage {bytes} B is over the {budget} B budget"
        ))
    }
}

/// Repeats of one seeded computation must give the same outputs.
pub fn repeatable(label: &str, first: u64, again: u64) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!(
            "{label}: output digest changed between repeats ({first:016x} then {again:016x})"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_core::{AlgoId, BackendChoice};
    use fading_net::{TopologyGenerator, UniformGenerator};

    fn toy_problem() -> Problem {
        let links = UniformGenerator::paper(200).generate(3);
        Problem::builder(links, fading_channel::ChannelParams::with_alpha(4.0))
            .backend(BackendChoice::Dense)
            .build()
    }

    #[test]
    fn conservation_rejects_a_total_off_by_one() {
        assert!(conservation(100, 90, 4, 6).is_ok());
        assert!(conservation(101, 90, 4, 6).is_err());
        assert!(conservation(100, 90, 4, 5).is_err());
    }

    #[test]
    fn reliability_rejects_failures_well_beyond_eps() {
        assert!(reliability(0, 0, 0.01).is_ok());
        assert!(reliability(100, 10_000, 0.01).is_ok());
        assert!(reliability(160, 10_000, 0.01).is_err());
    }

    #[test]
    fn feasibility_accepts_rle_and_ldp_schedules() {
        let p = toy_problem();
        for algo in [AlgoId::Rle, AlgoId::Ldp] {
            let s = algo.build(0).schedule(&p);
            let sampled = sampled_feasibility(&p, s.ids(), 1.0);
            assert!(sampled.sampled > 0);
            assert!(feasible("toy", sampled).is_ok(), "{algo:?}: {sampled:?}");
        }
    }

    #[test]
    fn feasibility_rejects_an_infeasible_schedule() {
        let p = toy_problem();
        let everyone: Vec<LinkId> = p.links().ids().collect();
        let sampled = sampled_feasibility(&p, &everyone, 1.0);
        assert!(feasible("all links", sampled).is_err());
    }

    #[test]
    fn feasibility_rejects_inflated_factor_sums() {
        // The sampled receiver closest to γ_ε tips over once every
        // factor in its sum is scaled past the remaining headroom.
        let p = toy_problem();
        let s = AlgoId::Rle.build(0).schedule(&p);
        let members = s.ids();
        let worst = members
            .iter()
            .map(|&j| {
                members
                    .iter()
                    .filter(|&&i| i != j)
                    .map(|&i| p.factor(i, j))
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        assert!(worst > 0.0);
        let inflate = 2.0 * p.gamma_eps() / worst;
        assert!(feasible("inflated", sampled_feasibility(&p, members, inflate)).is_err());
    }

    #[test]
    fn storage_rejects_a_store_at_the_budget() {
        assert!(storage(999, 1000).is_ok());
        assert!(storage(1000, 1000).is_err());
    }

    #[test]
    fn repeatable_rejects_a_changed_digest() {
        assert!(repeatable("x", 7, 7).is_ok());
        assert!(repeatable("x", 7, 8).is_err());
    }
}
