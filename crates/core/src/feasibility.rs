//! Feasibility checking (Corollary 3.1) and per-link diagnostics.
//!
//! A schedule `P` is *feasible* when every member link `j` satisfies
//! `Σ_{i∈P\{j}} f_{i,j} ≤ γ_ε`, equivalently succeeds with probability
//! at least `1 − ε` (Theorem 3.1). The report also exposes each link's
//! analytic success probability `exp(−Σ f)` so the simulator's empirical
//! rates can be validated against the closed form.

use crate::problem::Problem;
use crate::schedule::Schedule;
use fading_math::KahanSum;
use fading_net::LinkId;

/// Relative tolerance for budget comparisons.
///
/// Exactly-critical instances (e.g. the Knapsack reduction with a
/// subset hitting the capacity exactly) land on the `Σ f = γ_ε`
/// boundary; the position → distance → factor roundtrip perturbs the
/// sum by a few ULPs, so the comparison allows a hair of slack. All
/// solvers (feasibility report, incremental accumulator, exhaustive,
/// ILP) share this constant so they agree on borderline schedules.
pub const BUDGET_RTOL: f64 = 1e-9;

/// Shared budget test: `sum ≤ budget` up to [`BUDGET_RTOL`].
#[inline]
pub fn within_budget(sum: f64, budget: f64) -> bool {
    sum <= budget * (1.0 + BUDGET_RTOL)
}

/// Budget test for a sum known only as a certified envelope
/// `[sum_lo, sum_lo + tail]` (the sparse backend's stored-factor sums;
/// see [`InterferenceBackend::tail_cut`](crate::InterferenceBackend::tail_cut)).
///
/// * `Some(true)` — the whole envelope passes: the true sum passes.
/// * `Some(false)` — the lower bound already fails: the true sum fails.
/// * `None` — the envelope straddles the threshold; the caller must
///   resolve exactly (factors are always recomputable in `O(1)`), so
///   feasibility verdicts never silently flip under truncation.
///
/// With `tail == 0` (dense/exhaustive backends) the result is always
/// `Some(within_budget(sum_lo, budget))`.
#[inline]
pub fn within_budget_certified(sum_lo: f64, tail: f64, budget: f64) -> Option<bool> {
    if !within_budget(sum_lo, budget) {
        Some(false)
    } else if within_budget(sum_lo + tail, budget) {
        Some(true)
    } else {
        None
    }
}

/// Per-link feasibility diagnostics for a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityReport {
    entries: Vec<LinkEntry>,
    gamma_eps: f64,
}

/// Diagnostics for one scheduled link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEntry {
    /// The link.
    pub id: LinkId,
    /// `Σ_{i∈P\{j}} f_{i,j}` — the accumulated interference factor.
    pub interference_sum: f64,
    /// Analytic success probability `exp(−Σ f)` (Theorem 3.1).
    pub success_probability: f64,
    /// Whether the link meets the `γ_ε` budget.
    pub feasible: bool,
}

impl FeasibilityReport {
    /// Evaluates `schedule` against Corollary 3.1.
    pub fn evaluate(problem: &Problem, schedule: &Schedule) -> Self {
        let gamma_eps = problem.gamma_eps();
        let entries = schedule
            .iter()
            .map(|j| {
                let mut acc = KahanSum::new();
                for i in schedule.iter() {
                    if i != j {
                        acc.add(problem.factor(i, j));
                    }
                }
                let sum = acc.value();
                LinkEntry {
                    id: j,
                    interference_sum: sum,
                    success_probability: (-sum).exp(),
                    feasible: within_budget(sum, gamma_eps),
                }
            })
            .collect();
        Self { entries, gamma_eps }
    }

    /// Whether every scheduled link meets its reliability target.
    pub fn is_feasible(&self) -> bool {
        self.entries.iter().all(|e| e.feasible)
    }

    /// The links violating the budget.
    pub fn violations(&self) -> Vec<LinkId> {
        self.entries
            .iter()
            .filter(|e| !e.feasible)
            .map(|e| e.id)
            .collect()
    }

    /// Per-link diagnostics in schedule order.
    pub fn entries(&self) -> &[LinkEntry] {
        &self.entries
    }

    /// The budget the entries were checked against.
    pub fn gamma_eps(&self) -> f64 {
        self.gamma_eps
    }

    /// The worst (largest) interference sum, or 0 for empty schedules.
    pub fn worst_interference(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.interference_sum)
            .fold(0.0, f64::max)
    }
}

/// Convenience wrapper: whether `schedule` is feasible on `problem`.
pub fn is_feasible(problem: &Problem, schedule: &Schedule) -> bool {
    FeasibilityReport::evaluate(problem, schedule).is_feasible()
}

/// Incremental feasibility helper used by constructive algorithms:
/// tracks, for every link in the instance, the accumulated interference
/// factor from the currently selected senders.
///
/// Under the dense backend the sums are exact. Under the sparse backend
/// they accumulate *stored* factors only, so each is a lower bound with
/// a certified envelope of `|selected| · tail_cut(j)`; every
/// verdict-producing method resolves a straddling envelope through a
/// per-receiver exact prefix, folded in selection order (so the resolved
/// sum is bit-identical to what the dense backend would have
/// accumulated) — feasibility decisions never differ between backends.
#[derive(Debug, Clone)]
pub struct InterferenceAccumulator<'p> {
    problem: &'p Problem,
    sums: Vec<f64>,
    selected: Vec<LinkId>,
    /// Sparse only: the candidate's stored out-row scattered by
    /// receiver during a check, NaN everywhere else.
    marks: Vec<f64>,
    /// Sparse only: `exact[j]` is the selection-order fold of
    /// `factor(i, j)` over `selected[..upto[j]]`.
    exact: Vec<f64>,
    upto: Vec<usize>,
}

impl<'p> InterferenceAccumulator<'p> {
    /// Starts with an empty selection.
    pub fn new(problem: &'p Problem) -> Self {
        let n = problem.len();
        let m = if problem.factors().as_sparse().is_some() {
            n
        } else {
            0
        };
        Self {
            problem,
            sums: vec![0.0; n],
            selected: Vec::new(),
            marks: vec![f64::NAN; m],
            exact: vec![0.0; m],
            upto: vec![0; m],
        }
    }

    /// Adds sender `i` to the selection, updating every receiver's sum.
    pub fn select(&mut self, i: LinkId) {
        if let Some(row) = self.problem.factors().dense_row(i) {
            for (sum, f) in self.sums.iter_mut().zip(row) {
                *sum += f;
            }
        } else {
            let sums = &mut self.sums;
            self.problem
                .factors()
                .for_each_out(i, &mut |j, f| sums[j.index()] += f);
        }
        self.selected.push(i);
    }

    /// Accumulated *stored* interference factor on receiver `j` from
    /// the selected senders (excluding `j` itself if selected —
    /// `f_{j,j}=0`). Exact under exhaustive backends; a certified lower
    /// bound (within [`tail_on`](Self::tail_on)) under truncation.
    #[inline]
    pub fn sum_on(&self, j: LinkId) -> f64 {
        self.sums[j.index()]
    }

    /// Certified width of the envelope on [`sum_on`](Self::sum_on):
    /// the true sum lies in `[sum_on(j), sum_on(j) + tail_on(j)]`.
    #[inline]
    pub fn tail_on(&self, j: LinkId) -> f64 {
        self.selected.len() as f64 * self.problem.factors().tail_cut(j)
    }

    /// The exact accumulated sum on `j`, recomputing omitted factors on
    /// demand when the backend truncates. Matches the dense
    /// accumulation bit-for-bit (same terms, same order, same formula):
    /// the fold is cached per receiver and extended only over the
    /// senders selected since its last resolve.
    pub fn exact_sum_on(&mut self, j: LinkId) -> f64 {
        let k = j.index();
        if self.problem.factors().tail_cut(j) == 0.0 {
            return self.sums[k];
        }
        for &i in &self.selected[self.upto[k]..] {
            self.exact[k] += self.problem.factor(i, j);
        }
        self.upto[k] = self.selected.len();
        self.exact[k]
    }

    /// Whether adding `candidate` would keep the *entire* selection
    /// (existing members and the candidate) within `budget`. Identical
    /// verdicts under every backend.
    pub fn addition_is_feasible(&mut self, candidate: LinkId, budget: f64) -> bool {
        // Candidate's own constraint under current senders:
        if !self.certified_check(candidate, None, budget) {
            return false;
        }
        // Existing members' constraints with the candidate added.
        let problem = self.problem;
        if let Some(row) = problem.factors().dense_row(candidate) {
            let fits = |&j: &LinkId| within_budget(self.sums[j.index()] + row[j.index()], budget);
            return self.selected.iter().all(fits);
        }
        let (recv, fact) = problem
            .factors()
            .as_sparse()
            .expect("sparse backend")
            .row_slices(candidate);
        for (&j, &f) in recv.iter().zip(fact) {
            self.marks[j as usize] = f;
        }
        let ok = (0..self.selected.len())
            .all(|s| self.certified_check(self.selected[s], Some(candidate), budget));
        for &j in recv {
            self.marks[j as usize] = f64::NAN;
        }
        ok
    }

    /// Budget check of receiver `j`'s sum plus, with a `candidate`, its
    /// factor onto `j`: the marked stored value, else certified to lie
    /// in `[0, tail_cut(j))`. The base is the cached exact prefix when
    /// current, else the stored-sum envelope. A straddle resolves the
    /// base exactly, then computes the candidate's factor only if the
    /// envelope still straddles.
    fn certified_check(&mut self, j: LinkId, candidate: Option<LinkId>, budget: f64) -> bool {
        let k = j.index();
        let count = self.selected.len();
        let cut = self.problem.factors().tail_cut(j);
        let (extra, extra_tail) = match candidate {
            Some(_) if self.marks[k].is_nan() => (0.0, cut),
            Some(_) => (self.marks[k], 0.0),
            None => (0.0, 0.0),
        };
        let (base, base_tail) = if self.upto.get(k) == Some(&count) {
            (self.exact[k], 0.0)
        } else {
            (self.sums[k], self.tail_on(j))
        };
        if let Some(v) = within_budget_certified(base + extra, base_tail + extra_tail, budget) {
            return v;
        }
        fading_obs::counter!("core.accumulator.exact_fallbacks").incr();
        let base = self.exact_sum_on(j);
        if let Some(v) = within_budget_certified(base + extra, extra_tail, budget) {
            return v;
        }
        within_budget(
            base + candidate.map_or(0.0, |c| self.problem.factor(c, j)),
            budget,
        )
    }

    /// The selected senders, in selection order.
    pub fn selected(&self) -> &[LinkId] {
        &self.selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_geom::{Point2, Rect};
    use fading_net::{Link, LinkSet, TopologyGenerator, UniformGenerator};

    fn two_link_instance(gap: f64) -> Problem {
        // Two parallel horizontal links, senders `gap` apart vertically.
        let links = vec![
            Link::new(LinkId(0), Point2::new(0.0, 0.0), Point2::new(5.0, 0.0), 1.0),
            Link::new(LinkId(1), Point2::new(0.0, gap), Point2::new(5.0, gap), 1.0),
        ];
        Problem::paper(LinkSet::new(Rect::square(10_000.0), links), 3.0)
    }

    #[test]
    fn empty_schedule_is_feasible() {
        let p = two_link_instance(100.0);
        let r = FeasibilityReport::evaluate(&p, &Schedule::empty());
        assert!(r.is_feasible());
        assert_eq!(r.worst_interference(), 0.0);
    }

    #[test]
    fn singleton_is_always_feasible() {
        let p = two_link_instance(1.0);
        let s = Schedule::from_ids([LinkId(0)]);
        let r = FeasibilityReport::evaluate(&p, &s);
        assert!(r.is_feasible());
        assert_eq!(r.entries()[0].interference_sum, 0.0);
        assert_eq!(r.entries()[0].success_probability, 1.0);
    }

    #[test]
    fn far_apart_links_coexist_close_links_conflict() {
        let far = two_link_instance(5_000.0);
        let near = two_link_instance(1.0);
        let s = Schedule::from_ids([LinkId(0), LinkId(1)]);
        assert!(is_feasible(&far, &s));
        assert!(!is_feasible(&near, &s));
        let r = FeasibilityReport::evaluate(&near, &s);
        assert_eq!(r.violations(), vec![LinkId(0), LinkId(1)]);
    }

    #[test]
    fn success_probability_matches_closed_form() {
        let p = two_link_instance(300.0);
        let s = Schedule::from_ids([LinkId(0), LinkId(1)]);
        let r = FeasibilityReport::evaluate(&p, &s);
        for e in r.entries() {
            let expect = (-e.interference_sum).exp();
            assert!((e.success_probability - expect).abs() < 1e-15);
            // feasible ⟺ success prob ≥ 1−ε
            assert_eq!(
                e.feasible,
                e.success_probability >= 1.0 - p.epsilon() - 1e-12
            );
        }
    }

    #[test]
    fn accumulator_matches_report() {
        let links = UniformGenerator::paper(30).generate(7);
        let p = Problem::paper(links, 3.0);
        let chosen: Vec<LinkId> = [0u32, 5, 12, 20].iter().map(|&i| LinkId(i)).collect();
        let mut acc = InterferenceAccumulator::new(&p);
        for &i in &chosen {
            acc.select(i);
        }
        let s = Schedule::from_ids(chosen.iter().copied());
        let report = FeasibilityReport::evaluate(&p, &s);
        for e in report.entries() {
            // Accumulator includes f_{j,j} = 0, so the sums agree.
            assert!(
                (acc.sum_on(e.id) - e.interference_sum).abs() < 1e-12,
                "{}",
                e.id
            );
        }
    }

    #[test]
    fn addition_feasibility_agrees_with_full_check() {
        let links = UniformGenerator::paper(40).generate(8);
        let p = Problem::paper(links, 3.0);
        let budget = p.gamma_eps();
        let mut acc = InterferenceAccumulator::new(&p);
        let mut selected = Vec::new();
        for id in p.links().ids() {
            let fast = acc.addition_is_feasible(id, budget);
            let mut trial = selected.clone();
            trial.push(id);
            let slow = is_feasible(&p, &Schedule::from_ids(trial.iter().copied()));
            assert_eq!(fast, slow, "candidate {id} with {selected:?}");
            if fast {
                acc.select(id);
                selected.push(id);
            }
        }
        assert!(!selected.is_empty());
    }
}
