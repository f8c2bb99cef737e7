//! The static layers, timed from outside on a freshly built sparse
//! instance: `TopologyGenerator::generate` (net.generator), the problem
//! build (core.build) and within it the two `SpatialHash::build` calls
//! (geom.spatial, re-timed at the build's own cell size because the
//! build does not expose them), then cold RLE and LDP (core.algo) with
//! the static correctness checks on their schedules.

use crate::checks;
use crate::harness::{counter, millis, ratio, secs, Outcome};
use fading_core::{AlgoId, BackendChoice, Problem, SchedCtx, Schedule};
use fading_geom::SpatialHash;
use fading_net::{TopologyGenerator, UniformGenerator};
use std::time::Instant;

/// Layer times of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub generate_s: f64,
    /// Whole `ProblemBuilder::build`, spatial index included.
    pub build_s: f64,
    /// The sender and receiver `SpatialHash::build` at the build's cell.
    pub spatial_s: f64,
    pub bytes_per_link: f64,
}

impl Setup {
    pub fn report(&self, out: &mut Outcome) {
        out.put("generate_s", "s", self.generate_s);
        out.put("spatial.build_s", "s", self.spatial_s);
        out.put("factor.build_s", "s", self.build_s - self.spatial_s);
        out.put("factor.bytes_per_link", "B", self.bytes_per_link);
        out.note(format!(
            "set-up: generate {:.3} s, build {:.3} s (spatial index {:.3} s)",
            self.generate_s, self.build_s, self.spatial_s
        ));
    }
}

/// Generates and builds one instance at α = 4, timing each layer; with
/// `split_spatial` it also re-times the build's spatial index.
pub fn sparse_setup(
    geometry: &UniformGenerator,
    seed: u64,
    backend: BackendChoice,
    eps: f64,
    split_spatial: bool,
) -> (Problem, Setup) {
    let t = Instant::now();
    let links = geometry.generate(seed);
    let generate_s = secs(t);
    let t = Instant::now();
    let problem = Problem::builder(links, fading_channel::ChannelParams::with_alpha(4.0))
        .epsilon(eps)
        .backend(backend)
        .build();
    let build_s = secs(t);
    let sparse = problem.factors().as_sparse();
    let spatial_s = match sparse {
        Some(s) if split_spatial => {
            let n = problem.len();
            let cell = ratio(
                (0..n)
                    .map(|j| s.truncation_radius(fading_net::LinkId(j as u32)))
                    .sum(),
                n as f64,
            );
            let cell = if cell.is_finite() && cell > 0.0 {
                cell
            } else {
                1.0
            };
            let senders = problem.links().sender_positions();
            let receivers = problem.links().receiver_positions();
            let t = Instant::now();
            let a = SpatialHash::build(&senders, cell);
            let b = SpatialHash::build(&receivers, cell);
            let spatial_s = secs(t);
            assert_eq!(a.len() + b.len(), 2 * n);
            spatial_s
        }
        _ => 0.0,
    };
    let bytes_per_link = ratio(
        sparse.map_or(0, |s| s.storage_bytes()) as f64,
        problem.len() as f64,
    );
    let setup = Setup {
        generate_s,
        build_s,
        spatial_s,
        bytes_per_link,
    };
    (problem, setup)
}

/// One cold schedule: a fresh workspace, as a first call would see.
/// Returns the schedule, its wall time (ms) and the scheduler's pick
/// and elimination counter deltas.
fn cold(algo: AlgoId, problem: &Problem) -> (Schedule, f64, u64, u64) {
    let prefix = match algo {
        AlgoId::Rle => "core.rle",
        _ => "core.ldp",
    };
    let (picks, elims) = (format!("{prefix}.picks"), format!("{prefix}.eliminations"));
    let scheduler = algo.build(0);
    let before = (counter(&picks), counter(&elims));
    let t = Instant::now();
    let s = scheduler.schedule_in(problem, &mut SchedCtx::new());
    let ms = millis(t);
    (
        s,
        ms,
        counter(&picks) - before.0,
        counter(&elims) - before.1,
    )
}

/// The static probe on a freshly built instance: cold RLE and LDP
/// (times and counts), the static correctness checks on their
/// schedules (storage under budget, sampled exact γ_ε feasibility), and
/// the build's two-thread speed-up from a one-thread rebuild of the
/// same links.
pub fn static_probe(problem: &Problem, backend: BackendChoice, setup: &Setup, out: &mut Outcome) {
    let (rle, rle_ms, rle_picks, rle_elims) = cold(AlgoId::Rle, problem);
    let (ldp, ldp_ms, ldp_picks, _) = cold(AlgoId::Ldp, problem);
    out.put("rle.ms", "ms", rle_ms);
    out.put("ldp.ms", "ms", ldp_ms);
    out.put("rle.picks", "count", rle_picks as f64);
    out.put("rle.eliminations", "count", rle_elims as f64);
    out.put("ldp.picks", "count", ldp_picks as f64);

    let storage = problem
        .factors()
        .as_sparse()
        .map_or(0, |s| s.storage_bytes());
    out.check(checks::storage(storage, checks::STORAGE_BUDGET_BYTES));
    let r = checks::sampled_feasibility(problem, rle.ids(), 1.0);
    let l = checks::sampled_feasibility(problem, ldp.ids(), 1.0);
    out.check(checks::feasible("cold RLE", r));
    out.check(checks::feasible("cold LDP", l));
    out.note(format!(
        "static probe: storage {storage} B; cold RLE picked {} in {rle_ms:.1} ms, cold LDP \
         picked {} in {ldp_ms:.1} ms; sampled receivers over gamma_eps: RLE {}/{}, LDP {}/{}",
        rle.len(),
        ldp.len(),
        r.over,
        r.sampled,
        l.over,
        l.sampled
    ));

    // The vendored rayon pool reads its width on every call.
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let t = Instant::now();
    let single = Problem::builder(problem.links().clone(), *problem.params())
        .epsilon(problem.epsilon())
        .backend(backend)
        .build();
    let single_s = secs(t);
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    drop(single);
    out.put("factor.build_scaling_2t", "ratio", single_s / setup.build_s);
}
