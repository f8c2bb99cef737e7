//! One time-slot channel realization.
//!
//! For every scheduled link `j`, the desired-signal power
//! `Z_{j,j} ~ Exp(P·d_jj^{−α})` and each interferer's power
//! `Z_{i,j} ~ Exp(P·d_ij^{−α})` are independent (the Rayleigh model,
//! Eq. (5)), and `j` succeeds iff its realized SINR clears `γ_th`
//! (Eq. (7)–(8)).
//!
//! The path-loss means depend only on the (problem, schedule) pair, so
//! they are computed once into a [`GainTable`]: the `k×k` array of
//! `P·d^{−α}` over the `k` scheduled links (`ChannelParams::mean_gain`,
//! which prices `d^α` by repeated squaring at the paper's integer
//! exponents rather than a libm `powf`), with each member's power
//! scale and rate. Link `j`'s outcome depends only on column `j` of the
//! gains, so receivers succeed independently, each with the Theorem 3.1
//! probability (plus the noise term)
//! `p_j = exp(−γ_th·N₀/(s_j·m_jj)) · Π_{i≠j} 1/(1 + γ_th·s_i·m_ij/(s_j·m_jj))`
//! over the means `m` and power scales `s`. The table holds `p_j` too,
//! and a Rayleigh realization is one uniform per link: exact, not an
//! approximation. The Monte-Carlo loops build the table once per call
//! and share it read-only across trials and threads.
//!
//! **Draw order.** A Rayleigh realization ([`GainTable::realize`])
//! draws one uniform `u` per receiver in schedule order; the link
//! succeeds iff `u < p_j`. The laws with no product form (Nakagami-m,
//! shadowed Rayleigh, and the realized SINRs behind the histogram) walk
//! the `k²` gains instead: for each receiver `j` in schedule order, its
//! signal first and then each interferer `i ≠ j` in schedule order; the
//! SINR test sums the interferers in that order (compensated). A
//! Rayleigh gain there is `Exponential::with_mean(mean · scale)`.
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
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// Per-member Rayleigh success probability `p_j` (module docs).
    success: Vec<f64>,
}

impl GainTable {
    /// Computes the table of `schedule` on `problem`: `k²` path-loss
    /// means plus `k` power scales, rates and success probabilities.
    /// `p_j` starts at the noise factor `exp(−(γ_th·N₀)/S_j)` with
    /// `S_j = s_j·m_jj`, then is divided by `1 + γ_th·s_i·m_ij/S_j` for
    /// each interferer `i ≠ j` in schedule order.
    ///
    /// # Panics
    /// Panics if a sender sits on an interfered receiver (distance 0;
    /// see `ChannelParams::mean_gain`).
    pub fn new(problem: &Problem, schedule: &Schedule) -> Self {
        let params = *problem.params();
        let links = problem.links();
        let members: Vec<LinkId> = schedule.iter().collect();
        let scale: Vec<f64> = members.iter().map(|&i| problem.power_scale(i)).collect();
        debug_assert!(
            scale.iter().all(|&s| s > 0.0),
            "power scale must be positive"
        );
        let k = members.len();
        let mut mean = Vec::with_capacity(k * k);
        let mut success = Vec::with_capacity(k);
        for (jp, &j) in members.iter().enumerate() {
            mean.extend(members.iter().map(|&i| {
                let d = if i == j {
                    links.length(j)
                } else {
                    links.sender_receiver_distance(i, j)
                };
                params.mean_gain(d)
            }));
            let row = &mean[jp * k..];
            let signal = scale[jp] * row[jp];
            let noise = (-(params.gamma_th * params.noise) / signal).exp();
            let p = (0..k).filter(|&i| i != jp).fold(noise, |p, i| {
                p / (1.0 + params.gamma_th * scale[i] * row[i] / signal)
            });
            success.push(p);
        }
        let rate = members.iter().map(|&j| problem.rate(j)).collect();
        Self {
            params,
            members,
            mean,
            scale,
            rate,
            success,
        }
    }

    /// Number of scheduled links `k`.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Per-member Rayleigh success probability `p_j`, in schedule order.
    pub fn success_probabilities(&self) -> &[f64] {
        &self.success
    }

    /// Exact expected failures per slot, `Σ_j (1 − p_j)`.
    pub fn expected_failures(&self) -> f64 {
        self.success.iter().map(|p| 1.0 - p).sum()
    }

    /// Exact expected delivered rate per slot, `Σ_j λ_j·p_j`.
    pub fn expected_throughput(&self) -> f64 {
        self.rate
            .iter()
            .zip(&self.success)
            .map(|(r, p)| r * p)
            .sum()
    }

    /// Total scheduled rate, summed in schedule order.
    pub(crate) fn scheduled_rate(&self) -> f64 {
        self.rate.iter().sum()
    }

    /// One Rayleigh realization of the slot: one uniform per member in
    /// schedule order, a success iff it falls below `p_j`. Does not
    /// touch the `channel.rayleigh.draws` counter: [`simulate_slot`]
    /// and the Monte-Carlo loops add `k` per realization in one batch.
    pub fn realize<R: Rng + ?Sized>(&self, rng: &mut R) -> SlotOutcome {
        let mut out = SlotOutcome::default();
        for (j, &p) in self.success.iter().enumerate() {
            self.tally(&mut out, j, rng.gen::<f64>() < p);
        }
        out
    }

    /// One Rayleigh realization's SINR per scheduled link, in schedule
    /// order, from the `k²` walk.
    pub(crate) fn sinrs<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<(LinkId, f64)> {
        let mut out = Vec::with_capacity(self.len());
        self.walk(
            rng,
            |rng, _, i, mean| Exponential::with_mean(mean * self.scale[i]).sample(rng),
            |j, outcome| out.push((self.members[j], outcome.sinr)),
        );
        out
    }

    /// Uniforms drawn per Rayleigh realization: `k`, one per receiver.
    pub(crate) fn draws(&self) -> u64 {
        self.len() as u64
    }

    /// One realization under an arbitrary power-gain law:
    /// `draw(rng, j, i, mean)` samples the power at receiver `j` from
    /// sender `i` (member positions) whose path-loss mean is `mean`.
    pub(crate) fn realize_with<R, D>(&self, rng: &mut R, draw: D) -> SlotOutcome
    where
        R: Rng + ?Sized,
        D: FnMut(&mut R, usize, usize, f64) -> f64,
    {
        let mut out = SlotOutcome::default();
        self.walk(rng, draw, |j, outcome| {
            self.tally(&mut out, j, outcome.success)
        });
        out
    }

    /// Records member `j`'s verdict in `out`.
    fn tally(&self, out: &mut SlotOutcome, j: usize, success: bool) {
        if success {
            out.successes.push(self.members[j]);
            out.delivered_rate += self.rate[j];
        } else {
            out.failures.push(self.members[j]);
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
