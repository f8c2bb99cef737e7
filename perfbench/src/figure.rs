//! The paper's Fig. 5(a) grid: N ∈ {100..500}, α = 3, 10 instances ×
//! 1000 Rayleigh trials per point, dense backend, LDP / RLE /
//! ApproxLogN / ApproxDiversity, run through `sweep_n` figure after
//! figure.
//!
//! The traced run drives the same grid itself, one instance per
//! parallel task as `sweep_n` does, and times each layer call:
//! generate, dense build, `schedule_in`, `simulate_many`.

use crate::checks;
use crate::harness::{
    counter, in_time, median, millis, peak_rss_mb, planned_ops, quantile, ratio, secs, Digest,
    Outcome,
};
use fading_channel::ChannelParams;
use fading_core::{AlgoId, Problem, SchedCtx, Scheduler};
use fading_math::split_seed;
use fading_net::{LinkSet, TopologyGenerator};
use fading_sim::{simulate_many, sweep_n, ExperimentConfig, ResultTable};
use rayon::prelude::*;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Spec {
    pub config: ExperimentConfig,
    /// Nominal seconds per figure: `--seconds` over this is the timed
    /// figure count (see [`planned_ops`]).
    pub figure_s: f64,
    /// Timed figures at least.
    pub min_figures: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

pub fn paper_fig5a() -> Spec {
    Spec {
        config: ExperimentConfig::paper(),
        figure_s: 6.5,
        min_figures: 1,
        setup_reps: 3,
    }
}

const ALGOS: [AlgoId; 4] = [
    AlgoId::Ldp,
    AlgoId::Rle,
    AlgoId::ApproxLogN,
    AlgoId::ApproxDiversity,
];

/// The fading-resistant schedulers, held to the 1−ε promise; the two
/// deterministic-SINR baselines are not (that is the figure's point).
const FADING_RESISTANT: [&str; 2] = ["LDP", "RLE"];

impl Spec {
    pub fn toy(self) -> Spec {
        Spec {
            config: ExperimentConfig {
                n_values: vec![60, 120],
                instances: 2,
                trials: 100,
                ..self.config
            },
            figure_s: 0.1,
            min_figures: 1,
            setup_reps: 2,
        }
    }

    fn problem(&self, links: LinkSet) -> Problem {
        let c = &self.config;
        let params = ChannelParams::new(c.default_alpha, c.gamma_th, 1.0, 0.0);
        Problem::builder(links, params)
            .epsilon(c.epsilon)
            .backend(c.interference)
            .build()
    }

    /// Seed of instance `k` at grid point `xi`, as `sweep_n` derives it.
    fn instance_seed(&self, xi: usize, k: usize) -> u64 {
        split_seed(split_seed(self.config.seed, xi as u64), k as u64)
    }
}

/// Generates and builds every instance of the grid once.
fn setup(spec: &Spec) -> usize {
    let mut built = 0;
    for (xi, &n) in spec.config.n_values.iter().enumerate() {
        for k in 0..spec.config.instances {
            let links = spec.config.generator(n).generate(spec.instance_seed(xi, k));
            built += spec.problem(links).len();
        }
    }
    built
}

/// Digest of the table's integer outputs: per row, the grid point and
/// the scheduled and failed transmission totals. (The float means are
/// left out: their last bits depend on how the trials were chunked
/// across threads.)
fn table_digest(table: &ResultTable) -> u64 {
    let mut d = Digest::default();
    for row in &table.rows {
        let (scheduled, failed) = row_counts(row);
        d.words([row.x as u64, scheduled, failed]);
    }
    d.value()
}

/// Transmissions scheduled and failed over every trial of a row.
fn row_counts(row: &fading_sim::ResultRow) -> (u64, u64) {
    let per = (row.instances as u64 * row.trials) as f64;
    (
        (row.scheduled_mean * per).round() as u64,
        (row.failed_mean * per).round() as u64,
    )
}

/// The correctness pass: LDP and RLE keep the 1−ε promise on every
/// grid point; returns (scheduled, failed) summed over all schedulers.
fn verify(spec: &Spec, table: &ResultTable, out: &mut Outcome) -> (u64, u64) {
    let (mut scheduled, mut failed) = (0, 0);
    let mut line = String::from("failed_share by scheduler:");
    for algo in table.algorithms() {
        let (mut s, mut f) = (0, 0);
        for row in table.series(algo) {
            let (rs, rf) = row_counts(row);
            if FADING_RESISTANT.contains(&algo) {
                out.check(
                    checks::reliability(rf, rs, spec.config.epsilon)
                        .map_err(|e| format!("{algo} at N = {}: {e}", row.x)),
                );
            }
            s += rs;
            f += rf;
        }
        line.push_str(&format!(
            " {algo} {:.5} ({f}/{s})",
            ratio(f as f64, s as f64)
        ));
        scheduled += s;
        failed += f;
    }
    out.note(line);
    (scheduled, failed)
}

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    ALGOS.iter().map(|a| a.build(0)).collect()
}

pub fn run(mut spec: Spec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    spec.config.seed = spec.config.seed.wrapping_add(seed);
    let mut out = Outcome::default();
    if trace {
        traced(&spec, seconds, &mut out);
    } else {
        timed(&spec, seconds, &mut out)?;
    }
    Ok(out)
}

fn timed_setup(spec: &Spec) -> f64 {
    let mut setups = Vec::new();
    for _ in 0..spec.setup_reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(setup(spec));
        setups.push(secs(t));
    }
    median(&setups)
}

fn timed(spec: &Spec, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let setup_s = timed_setup(spec);
    let boxed = schedulers();
    let refs: Vec<&dyn Scheduler> = boxed.iter().map(Box::as_ref).collect();
    let mut figure_ms = Vec::new();
    let mut first: Option<ResultTable> = None;
    let planned = planned_ops(seconds, 1.0 / spec.figure_s, spec.min_figures);
    let started = Instant::now();
    while (figure_ms.len() as u64) < planned && in_time(started, seconds) {
        let t = Instant::now();
        let table = sweep_n(&spec.config, &refs);
        figure_ms.push(millis(t));
        match &first {
            None => first = Some(table),
            Some(t0) => out.check(checks::repeatable(
                "figure table",
                table_digest(t0),
                table_digest(&table),
            )),
        }
    }
    let wall = secs(started);
    out.put("peak_rss_mb", "MB", peak_rss_mb()?);
    let table = first.expect("at least one figure");
    out.digest = table_digest(&table);
    verify(spec, &table, out);
    out.attempted = figure_ms.len() as u64;
    out.put("setup_s", "s", setup_s);
    out.put("ops_per_s", "1/s", figure_ms.len() as f64 / wall);
    out.put("op_ms.p50", "ms", median(&figure_ms));
    out.put("op_ms.p90", "ms", quantile(&figure_ms, 0.9));
    out.note(format!(
        "figure_s {:.4} s (median of {} figures); setup_s {:.4} s",
        median(&figure_ms) / 1e3,
        figure_ms.len(),
        setup_s
    ));
    Ok(())
}

/// Layer times of one instance's evaluation, in ms.
#[derive(Debug, Default, Clone, Copy)]
struct Inst {
    busy: f64,
    generate: f64,
    build: f64,
    schedule: f64,
    simulate: f64,
    scheduled: u64,
    failed: f64,
}

/// Width of the rayon pool, as the vendored pool reads it.
fn threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |t| t.get()))
}

/// One pass over the grid with every layer call timed. Returns the
/// per-instance records and the summed wall time of the points.
fn traced_figure(spec: &Spec, boxed: &[Box<dyn Scheduler>]) -> (Vec<Inst>, f64) {
    let c = &spec.config;
    let mut all = Vec::new();
    let mut point_wall_ms = 0.0;
    for (xi, &n) in c.n_values.iter().enumerate() {
        for scheduler in boxed {
            let t = Instant::now();
            let insts: Vec<Inst> = (0..c.instances)
                .into_par_iter()
                .map(|k| {
                    let start = Instant::now();
                    let inst_seed = spec.instance_seed(xi, k);
                    let t = Instant::now();
                    let links = c.generator(n).generate(inst_seed);
                    let generate = millis(t);
                    let t = Instant::now();
                    let problem = spec.problem(links);
                    let build = millis(t);
                    let t = Instant::now();
                    let schedule = scheduler.schedule_in(&problem, &mut SchedCtx::new());
                    let schedule_ms = millis(t);
                    let t = Instant::now();
                    let stats =
                        simulate_many(&problem, &schedule, c.trials, split_seed(inst_seed, 1));
                    let simulate = millis(t);
                    Inst {
                        busy: millis(start),
                        generate,
                        build,
                        schedule: schedule_ms,
                        simulate,
                        scheduled: schedule.len() as u64 * c.trials,
                        failed: stats.failed.mean * c.trials as f64,
                    }
                })
                .collect();
            point_wall_ms += millis(t);
            all.extend(insts);
        }
    }
    (all, point_wall_ms)
}

fn traced(spec: &Spec, seconds: f64, out: &mut Outcome) {
    let boxed = schedulers();
    let refs: Vec<&dyn Scheduler> = boxed.iter().map(Box::as_ref).collect();
    let (mut insts, mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut draws, mut trials) = (0, 0);
    let mut first: Option<ResultTable> = None;
    let started = Instant::now();
    // Figure-paired: one untraced `sweep_n` figure and one traced pass,
    // in alternating order, for the overhead ratio.
    let pairs = (planned_ops(seconds, 1.0 / spec.figure_s, spec.min_figures) / 2).max(1);
    while (traced_ms.len() as u64) < pairs && in_time(started, seconds) {
        let plain_first = plain_ms.len() % 2 == 0;
        let mut plain = || {
            let t = Instant::now();
            let table = sweep_n(&spec.config, &refs);
            plain_ms.push(millis(t));
            first.get_or_insert(table);
        };
        if plain_first {
            plain();
        }
        let before = (counter("channel.rayleigh.draws"), counter("sim.mc.trials"));
        let (i, wall) = traced_figure(spec, &boxed);
        draws += counter("channel.rayleigh.draws") - before.0;
        trials += counter("sim.mc.trials") - before.1;
        insts.extend(i);
        traced_ms.push(wall);
        if !plain_first {
            plain();
        }
    }
    let table = first.expect("at least one untraced figure");
    out.digest = table_digest(&table);
    verify(spec, &table, out);
    let figures = traced_ms.len() as u64;
    let wall_ms: f64 = traced_ms.iter().sum();
    out.attempted = (plain_ms.len() + traced_ms.len()) as u64;

    let sum = |f: fn(&Inst) -> f64| insts.iter().map(f).sum::<f64>();
    let count = insts.len() as f64;
    let busy = sum(|i| i.busy);
    let named = sum(|i| i.generate + i.build + i.schedule + i.simulate);
    let scheduled = insts.iter().map(|i| i.scheduled).sum::<u64>() as f64;
    out.put("channel.draws", "count", draws as f64 / figures as f64);
    out.put(
        "channel.ns_per_draw",
        "ns",
        ratio(sum(|i| i.simulate) * 1e6, draws as f64),
    );
    out.put("mc.trials", "count", trials as f64 / figures as f64);
    out.put(
        "runner.occupancy",
        "ratio",
        ratio(busy, wall_ms * threads() as f64),
    );
    out.put(
        "factor.dense_build_ms",
        "ms",
        ratio(sum(|i| i.build), count),
    );
    out.put(
        "schedule.ms_per_instance",
        "ms",
        ratio(sum(|i| i.schedule), count),
    );
    out.put("failed_share", "ratio", ratio(sum(|i| i.failed), scheduled));
    out.put("coverage", "ratio", ratio(named, busy));
    out.put(
        "trace_overhead",
        "ratio",
        median(&traced_ms) / median(&plain_ms),
    );
    out.note(format!(
        "traced {figures} figure(s) of {} instance evaluations: generate {:.1}%, build {:.1}%, \
         schedule {:.1}%, simulate {:.1}% of instance busy time",
        insts.len() as u64 / figures,
        100.0 * ratio(sum(|i| i.generate), busy),
        100.0 * ratio(sum(|i| i.build), busy),
        100.0 * ratio(sum(|i| i.schedule), busy),
        100.0 * ratio(sum(|i| i.simulate), busy),
    ));
}
