//! One time-slot channel realization.
//!
//! For every scheduled link `j`, draw the desired-signal power
//! `Z_{j,j} ~ Exp(P·d_jj^{−α})` and each interferer's power
//! `Z_{i,j} ~ Exp(P·d_ij^{−α})` independently (the Rayleigh model,
//! Eq. (5)), then test the realized SINR against `γ_th` (Eq. (7)–(8)).
//!
//! The path-loss means depend only on the (problem, schedule) pair, so
//! they are computed once into a [`GainTable`]: the `k×k` array of
//! `P·d^{−α}` over the `k` scheduled links, with each member's power
//! scale and rate. Every realization of the pair reads the table, and a
//! draw costs one uniform, one `ln` and one multiply. The Monte-Carlo
//! loops build the table once per call and share it read-only across
//! trials and threads.
//!
//! **Draw order.** A realization draws, for each receiver `j` in
//! schedule order, its signal first and then each interferer `i ≠ j` in
//! schedule order; the SINR test sums the interferers in that order
//! (compensated). Each sample is `Exponential::with_mean(mean · scale)`,
//! the exact expression of `RayleighChannel::sample_gain_scaled`, so a
//! seeded stream yields the same gains, and the same outcome, as drawing
//! pair by pair from the channel. The Rayleigh, Nakagami-m and
//! shadowed-Rayleigh Monte-Carlo harnesses all walk this one loop, each
//! with its own sampler over the table's means.
//!
//! Every draw is scaled by the problem's per-link power scale. The
//! online engine and the multi-slot loop hand this module *residual*
//! sub-problems built by `Problem::restrict`, which slices the parent's
//! power scales along with its interference state — so the table holds
//! the true transmit powers here even though the sub-instance was
//! renumbered (see `docs/residual.md`).

use fading_channel::{sinr_of, ChannelParams, SinrOutcome};
use fading_core::{Problem, Schedule};
use fading_math::Exponential;
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

/// The path-loss means of one (problem, schedule) pair, shared by every
/// channel realization of that pair.
///
/// ```
/// use fading_core::{algo::Rle, Problem, Scheduler};
/// use fading_math::seeded_rng;
/// use fading_net::{TopologyGenerator, UniformGenerator};
/// use fading_sim::{simulate_slot, GainTable};
///
/// let problem = Problem::paper(UniformGenerator::paper(80).generate(3), 3.0);
/// let schedule = Rle::new().schedule(&problem);
/// let table = GainTable::new(&problem, &schedule);
/// // Same stream, same realization as the one-shot path.
/// assert_eq!(
///     table.realize(&mut seeded_rng(9)),
///     simulate_slot(&problem, &schedule, &mut seeded_rng(9)),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct GainTable {
    params: ChannelParams,
    /// Scheduled links in schedule order.
    members: Vec<LinkId>,
    /// `k×k` row-major: row `j` (receiver), column `i` (sender) holds
    /// `P·d^{−α}` with `d = d_jj` on the diagonal and `d_ij` off it.
    mean: Vec<f64>,
    /// Per-member power scale (column factor of every draw).
    scale: Vec<f64>,
    /// Per-member data rate.
    rate: Vec<f64>,
}

impl GainTable {
    /// Computes the table of `schedule` on `problem`: `k²` path-loss
    /// means plus `k` power scales and rates.
    ///
    /// # Panics
    /// Panics if a sender sits on an interfered receiver (distance 0;
    /// see `ChannelParams::mean_gain`).
    pub fn new(problem: &Problem, schedule: &Schedule) -> Self {
        let params = *problem.params();
        let links = problem.links();
        let members: Vec<LinkId> = schedule.iter().collect();
        let mut mean = Vec::with_capacity(members.len() * members.len());
        for &j in &members {
            mean.extend(members.iter().map(|&i| {
                let d = if i == j {
                    links.length(j)
                } else {
                    links.sender_receiver_distance(i, j)
                };
                params.mean_gain(d)
            }));
        }
        let scale: Vec<f64> = members.iter().map(|&i| problem.power_scale(i)).collect();
        debug_assert!(
            scale.iter().all(|&s| s > 0.0),
            "power scale must be positive"
        );
        let rate = members.iter().map(|&j| problem.rate(j)).collect();
        Self {
            params,
            members,
            mean,
            scale,
            rate,
        }
    }

    /// Number of scheduled links `k`.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// One Rayleigh realization of the slot. Does not touch the
    /// `channel.rayleigh.draws` counter: [`simulate_slot`] and the
    /// Monte-Carlo loops add `k²` per realization in one batch.
    pub fn realize<R: Rng + ?Sized>(&self, rng: &mut R) -> SlotOutcome {
        self.realize_with(rng, |rng, _, i, mean| self.rayleigh(rng, i, mean))
    }

    /// One Rayleigh realization's SINR per scheduled link, in schedule
    /// order (same draws as [`Self::realize`]).
    pub(crate) fn sinrs<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<(LinkId, f64)> {
        let mut out = Vec::with_capacity(self.len());
        self.walk(
            rng,
            |rng, _, i, mean| self.rayleigh(rng, i, mean),
            |j, outcome| out.push((self.members[j], outcome.sinr)),
        );
        out
    }

    /// Gains drawn per realization: `k²` (each receiver's signal plus
    /// its `k − 1` interferers).
    pub(crate) fn draws(&self) -> u64 {
        let k = self.len() as u64;
        k * k
    }

    /// The Rayleigh power from sender `i` at path-loss mean `mean`: the
    /// expression of `RayleighChannel::sample_gain_scaled`.
    #[inline]
    fn rayleigh<R: Rng + ?Sized>(&self, rng: &mut R, i: usize, mean: f64) -> f64 {
        Exponential::with_mean(mean * self.scale[i]).sample(rng)
    }

    /// One realization under an arbitrary power-gain law:
    /// `draw(rng, j, i, mean)` samples the power at receiver `j` from
    /// sender `i` (member positions) whose path-loss mean is `mean`.
    pub(crate) fn realize_with<R, D>(&self, rng: &mut R, draw: D) -> SlotOutcome
    where
        R: Rng + ?Sized,
        D: FnMut(&mut R, usize, usize, f64) -> f64,
    {
        let mut successes = Vec::new();
        let mut failures = Vec::new();
        let mut delivered_rate = 0.0;
        self.walk(rng, draw, |j, outcome| {
            if outcome.success {
                successes.push(self.members[j]);
                delivered_rate += self.rate[j];
            } else {
                failures.push(self.members[j]);
            }
        });
        SlotOutcome {
            successes,
            failures,
            delivered_rate,
        }
    }

    /// The draw loop: receivers in schedule order, each drawing its
    /// signal and then its interferers in schedule order, judged by
    /// `sinr_of`.
    fn walk<R, D, F>(&self, rng: &mut R, mut draw: D, mut judged: F)
    where
        R: Rng + ?Sized,
        D: FnMut(&mut R, usize, usize, f64) -> f64,
        F: FnMut(usize, SinrOutcome),
    {
        let k = self.len();
        for (j, row) in self.mean.chunks_exact(k.max(1)).enumerate() {
            let signal = draw(rng, j, j, row[j]);
            let interference = row
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != j)
                .map(|(i, &mean)| draw(rng, j, i, mean));
            judged(j, sinr_of(&self.params, signal, interference));
        }
    }
}

/// Simulates one slot of `schedule` on `problem` using `rng`.
pub fn simulate_slot<R: Rng + ?Sized>(
    problem: &Problem,
    schedule: &Schedule,
    rng: &mut R,
) -> SlotOutcome {
    let table = GainTable::new(problem, schedule);
    let outcome = table.realize(rng);
    // Batched into one increment per slot so the hot loop never touches
    // the registry per draw.
    fading_obs::counter!("channel.rayleigh.draws").add(table.draws());
    outcome
}

/// One realization's SINR per scheduled link (schedule order), drawn
/// like [`simulate_slot`].
pub fn realized_sinrs<R: Rng + ?Sized>(
    problem: &Problem,
    schedule: &Schedule,
    rng: &mut R,
) -> Vec<(LinkId, f64)> {
    GainTable::new(problem, schedule).sinrs(rng)
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
