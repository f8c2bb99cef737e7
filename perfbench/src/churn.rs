//! The online-engine workloads, `churn-100k` and `queue-20k`: a closed
//! loop of `ChurnEngine::step` calls, GreedyRate + MaxWeight on the
//! sparse backend at α = 4.
//!
//! The untimed run measures the end-to-end metrics with the engine
//! unarmed. The traced run alternates unarmed and armed steps: the
//! armed step's slot-series record gives the engine's own per-phase
//! nanoseconds, relabelled by the layer each phase actually times, and
//! the unarmed neighbour gives the trace overhead. An outside probe then
//! times `Problem::apply` on batches of known shape.

use crate::checks;
use crate::harness::{
    counter, in_time, median, millis, peak_rss_mb, planned_ops, quantile, ratio, secs, Digest,
    Outcome,
};
use crate::layers;
use fading_core::{
    AlgoId, BackendChoice, LinkIdMap, LinkSpec, MutationBatch, MutationError, Problem,
};
use fading_geom::Point2;
use fading_net::{RateModel, UniformGenerator};
use fading_obs::{SeriesConfig, SlotRecord, SlotSeries};
use fading_sim::{ChurnConfig, ChurnEngine, ChurnSlot, ServicePolicy, TelemetryConfig};
use rand::Rng;
use std::time::Instant;

/// One online-engine workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub n: usize,
    pub side: f64,
    pub link_rate: f64,
    pub lifetime: f64,
    pub packet_prob: f64,
    /// Seed of the reference run; `--seed s` runs seed `base_seed + s`.
    pub base_seed: u64,
    /// Untimed steps after set-up: the sub-problem cache and position
    /// index fill, and on churn the freshly packed CSR rows gain the
    /// slack that later slots reuse (the first ~30 slots run slower).
    pub warmup: u64,
    /// Nominal steps per second: `--seconds` at this rate is the timed
    /// step count (see [`planned_ops`]).
    pub slots_per_s: f64,
    /// Timed steps at least, so the p90 has ten samples beyond it.
    pub min_slots: u64,
    /// Set-ups per run; `setup_s` is their median. The first feeds the
    /// timed loop, the rest run after it.
    pub setup_reps: usize,
}

/// The E14 run: n = 10⁵ at paper density, 200 arrivals per slot, mean
/// lifetime 500 (so the population holds at 10⁵).
pub const CHURN_100K: Spec = Spec {
    n: 100_000,
    side: 9128.71,
    link_rate: 200.0,
    lifetime: 500.0,
    packet_prob: 0.001,
    base_seed: 7,
    warmup: 30,
    slots_per_s: 6.0,
    min_slots: 100,
    setup_reps: 3,
};

/// Zero churn, loaded queues: the queueing regime as the engine's
/// zero-churn case, below the stability frontier.
pub const QUEUE_20K: Spec = Spec {
    n: 20_000,
    side: 4082.48,
    link_rate: 0.0,
    lifetime: 1e12,
    packet_prob: 0.02,
    base_seed: 7,
    warmup: 20,
    slots_per_s: 30.0,
    min_slots: 100,
    setup_reps: 3,
};

/// ε of every workload problem (the paper's).
const EPS: f64 = 0.01;

impl Spec {
    /// The same workload shape at a size the test suite runs in seconds.
    pub fn toy(self) -> Spec {
        let n = 600;
        Spec {
            n,
            side: 500.0 * (n as f64 / 300.0).sqrt(),
            link_rate: if self.link_rate > 0.0 { 1.2 } else { 0.0 },
            warmup: 3,
            slots_per_s: 50.0,
            min_slots: 12,
            setup_reps: 2,
            ..self
        }
    }

    fn geometry(&self) -> UniformGenerator {
        UniformGenerator {
            side: self.side,
            n: self.n,
            len_lo: 5.0,
            len_hi: 20.0,
            rates: RateModel::Fixed(1.0),
        }
    }

    fn config(&self, seed: u64) -> ChurnConfig {
        ChurnConfig {
            slots: u64::MAX,
            link_arrival_rate: self.link_rate,
            mean_lifetime: self.lifetime,
            packet_prob: self.packet_prob,
            seed,
        }
    }

    /// Generate + build + engine construction, the part of a run the
    /// timed loop does not see.
    fn setup(&self, seed: u64) -> ChurnEngine {
        let (problem, _) = layers::sparse_setup(&self.geometry(), seed, sparse(), EPS, false);
        self.engine(problem, seed)
    }

    fn engine(&self, problem: Problem, seed: u64) -> ChurnEngine {
        ChurnEngine::new(problem, self.geometry(), self.config(seed))
    }
}

fn sparse() -> BackendChoice {
    BackendChoice::parse("sparse").expect("sparse is a backend")
}

/// Running totals over every step of a run, warm-up included.
#[derive(Debug, Default)]
struct Tally {
    arrived: u64,
    delivered: u64,
    abandoned: u64,
    scheduled: u64,
    backlog: u64,
    /// The digest covers the warm-up and the minimum timed count, the
    /// slots every run makes whatever `--seconds` is.
    digest_slots: u64,
    digest: Digest,
}

impl Tally {
    fn new(spec: &Spec) -> Self {
        Self {
            digest_slots: spec.warmup + spec.min_slots,
            ..Self::default()
        }
    }

    fn add(&mut self, s: &ChurnSlot) {
        self.arrived += u64::from(s.packets_arrived);
        self.delivered += u64::from(s.delivered);
        self.abandoned += s.packets_abandoned;
        self.scheduled += u64::from(s.scheduled);
        self.backlog = s.backlog;
        if s.slot >= self.digest_slots {
            return;
        }
        self.digest.words([
            s.slot,
            u64::from(s.link_arrivals),
            u64::from(s.link_departures),
            u64::from(s.population),
            u64::from(s.scheduled),
            u64::from(s.packets_arrived),
            u64::from(s.delivered),
            s.packets_abandoned,
            s.backlog,
        ]);
    }

    /// Scheduled transmissions that the Rayleigh draw failed: every
    /// scheduled link is backlogged, and each success delivers a packet.
    fn failed(&self) -> u64 {
        self.scheduled - self.delivered
    }

    fn checks(&self, out: &mut Outcome) {
        out.check(checks::conservation(
            self.arrived,
            self.delivered,
            self.abandoned,
            self.backlog,
        ));
        out.check(checks::reliability(self.failed(), self.scheduled, EPS));
        out.note(format!(
            "packets: {} arrived = {} delivered + {} abandoned + {} queued; \
             transmissions: {} scheduled, {} failed (failed_share {:.6})",
            self.arrived,
            self.delivered,
            self.abandoned,
            self.backlog,
            self.scheduled,
            self.failed(),
            ratio(self.failed() as f64, self.scheduled as f64),
        ));
        out.digest = self.digest.value();
    }
}

pub fn run(spec: Spec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let seed = spec.base_seed.wrapping_add(seed);
    let mut out = Outcome::default();
    if trace {
        traced(spec, seed, seconds, &mut out)?;
    } else {
        timed(spec, seed, seconds, &mut out)?;
    }
    Ok(out)
}

fn timed(spec: Spec, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let scheduler = AlgoId::Greedy.build(0);
    let policy = ServicePolicy::MaxWeight;
    // The first set-up feeds the loop; the repeats come after the loop,
    // so what they leave in the allocator never reaches `peak_rss_mb`.
    let t = Instant::now();
    let mut engine = spec.setup(seed);
    let mut setups = vec![secs(t)];
    let mut tally = Tally::new(&spec);
    for _ in 0..spec.warmup {
        tally.add(&engine.step(scheduler.as_ref(), policy));
    }
    let planned = planned_ops(seconds, spec.slots_per_s, spec.min_slots);
    let mut slot_ms = Vec::new();
    let started = Instant::now();
    while (slot_ms.len() as u64) < planned && in_time(started, seconds) {
        let t = Instant::now();
        let s = engine.step(scheduler.as_ref(), policy);
        slot_ms.push(millis(t));
        tally.add(&s);
    }
    let wall = secs(started);
    out.put("peak_rss_mb", "MB", peak_rss_mb()?);
    drop(engine);
    for _ in 1..spec.setup_reps {
        let t = Instant::now();
        drop(spec.setup(seed));
        setups.push(secs(t));
    }
    tally.checks(out);
    out.attempted = slot_ms.len() as u64;
    out.put("setup_s", "s", median(&setups));
    out.put("ops_per_s", "1/s", slot_ms.len() as f64 / wall);
    out.put("op_ms.p50", "ms", median(&slot_ms));
    out.put("op_ms.p90", "ms", quantile(&slot_ms, 0.9));
    out.note(format!(
        "slots_per_s {:.4} 1/s, slot_ms.p50 {:.3} ms, slot_ms.p90 {:.3} ms over {} timed slots \
         ({} warm-up slots excluded); setup_s {:.3} s (median of {})",
        slot_ms.len() as f64 / wall,
        median(&slot_ms),
        quantile(&slot_ms, 0.9),
        slot_ms.len(),
        spec.warmup,
        median(&setups),
        setups.len(),
    ));
    Ok(())
}

/// Per-phase totals over the armed steps, in the layers' names.
#[derive(Debug, Default)]
struct Phases {
    slots: u64,
    commit_ns: u64,
    bookkeeping_ns: u64,
    restrict_ns: u64,
    schedule_ns: u64,
    service_ns: u64,
    removes: u64,
    adds: u64,
    backlogged: u64,
    scheduled: u64,
    delivered: u64,
    draws: u64,
}

impl Phases {
    /// The engine's six laps relabelled: `mutate` (departure scan and
    /// arrival sampling) and `envelope` (the O(N) packet and backlog
    /// walks) are engine bookkeeping; `commit` is `Problem::apply` plus
    /// the receipt's O(batch) state updates; `restrict` is the
    /// sub-problem sync (`Problem::restrict` or a patch through
    /// `Problem::apply`); `service` is the channel draw and queue pops.
    fn add(&mut self, r: &SlotRecord) {
        self.slots += 1;
        self.commit_ns += r.commit_ns;
        self.bookkeeping_ns += r.mutate_ns + r.envelope_ns;
        self.restrict_ns += r.restrict_ns;
        self.schedule_ns += r.schedule_ns;
        self.service_ns += r.service_ns;
        self.removes += r.departures;
        self.adds += r.arrivals;
        self.backlogged += r.backlogged;
        self.scheduled += r.scheduled;
        self.delivered += r.delivered;
        self.draws += r.scheduled * r.scheduled;
    }

    fn named_ns(&self) -> u64 {
        self.commit_ns + self.bookkeeping_ns + self.restrict_ns + self.schedule_ns + self.service_ns
    }

    fn per_slot_ms(&self, ns: u64) -> f64 {
        ratio(ns as f64 / 1e6, self.slots as f64)
    }
}

fn traced(spec: Spec, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let scheduler = AlgoId::Greedy.build(0);
    let policy = ServicePolicy::MaxWeight;
    let (problem, setup) = layers::sparse_setup(&spec.geometry(), seed, sparse(), EPS, true);
    setup.report(out);
    layers::static_probe(&problem, sparse(), &setup, out);
    let mut engine = spec.engine(problem, seed);
    let mut tally = Tally::new(&spec);
    for _ in 0..spec.warmup {
        tally.add(&engine.step(scheduler.as_ref(), policy));
    }
    let sub = ["patches", "rebuilds", "reuses", "holds"].map(|k| format!("sim.churn.sub.{k}"));
    let sub_before = sub.clone().map(|k| counter(&k));
    let compactions_before = counter("core.sparse.compactions");
    let draws_before = counter("channel.rayleigh.draws");
    let mut phases = Phases::default();
    let (mut plain_ms, mut armed_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    // Step-paired: an unarmed step and an armed one whose telemetry is
    // detached right after, in alternating order, so both halves see
    // the same engine state.
    let pairs = planned_ops(seconds, spec.slots_per_s, spec.min_slots) / 2;
    while (armed_ms.len() as u64) < pairs && in_time(started, seconds) {
        let plain_first = plain_ms.len() % 2 == 0;
        let mut plain = |engine: &mut ChurnEngine, tally: &mut Tally| {
            let t = Instant::now();
            tally.add(&engine.step(scheduler.as_ref(), policy));
            plain_ms.push(millis(t));
        };
        if plain_first {
            plain(&mut engine, &mut tally);
        }
        engine.arm(
            TelemetryConfig::new().series(SlotSeries::in_memory(SeriesConfig {
                capacity: 1,
                cadence: 1,
                timings: true,
            })),
        );
        let t = Instant::now();
        tally.add(&engine.step(scheduler.as_ref(), policy));
        armed_ms.push(millis(t));
        let tel = engine
            .take_telemetry()
            .ok_or("armed engine lost its telemetry")?;
        let rec = tel
            .series()
            .and_then(SlotSeries::last)
            .ok_or("armed step recorded no slot")?;
        phases.add(rec);
        if !plain_first {
            plain(&mut engine, &mut tally);
        }
    }
    let sub_delta: Vec<u64> = sub
        .iter()
        .zip(sub_before)
        .map(|(k, b)| counter(k) - b)
        .collect();
    let (patches, rebuilds, reuses, holds) =
        (sub_delta[0], sub_delta[1], sub_delta[2], sub_delta[3]);
    let compactions = counter("core.sparse.compactions") - compactions_before;
    let draws = counter("channel.rayleigh.draws") - draws_before;
    tally.checks(out);
    out.attempted = (plain_ms.len() + armed_ms.len()) as u64;

    let armed_wall_ns: f64 = armed_ms.iter().sum::<f64>() * 1e6;
    let slots = phases.slots as f64;
    let storage = engine
        .problem()
        .factors()
        .as_sparse()
        .map_or(0, |s| s.storage_bytes());
    out.put(
        "commit.ms_per_slot",
        "ms",
        phases.per_slot_ms(phases.commit_ns),
    );
    out.put(
        "commit.removes_per_slot",
        "count",
        ratio(phases.removes as f64, slots),
    );
    out.put(
        "commit.adds_per_slot",
        "count",
        ratio(phases.adds as f64, slots),
    );
    out.put("commit.compactions", "count", compactions as f64);
    out.put(
        "commit.arena_bytes_per_link",
        "B",
        ratio(storage as f64, engine.population() as f64),
    );
    out.put(
        "bookkeeping.ms_per_slot",
        "ms",
        phases.per_slot_ms(phases.bookkeeping_ns),
    );
    out.put(
        "bookkeeping.share",
        "ratio",
        ratio(phases.bookkeeping_ns as f64, armed_wall_ns),
    );
    out.put(
        "restrict.ms_per_slot",
        "ms",
        phases.per_slot_ms(phases.restrict_ns),
    );
    out.put("restrict.patches", "count", patches as f64);
    out.put("restrict.rebuilds", "count", rebuilds as f64);
    out.put(
        "restrict.reuse_ratio",
        "ratio",
        ratio(
            (patches + reuses + holds) as f64,
            (patches + reuses + holds + rebuilds) as f64,
        ),
    );
    out.put(
        "schedule.ms_per_slot",
        "ms",
        phases.per_slot_ms(phases.schedule_ns),
    );
    out.put(
        "schedule.backlogged_per_slot",
        "count",
        ratio(phases.backlogged as f64, slots),
    );
    out.put(
        "schedule.scheduled_per_slot",
        "count",
        ratio(phases.scheduled as f64, slots),
    );
    out.put(
        "schedule.yield",
        "ratio",
        ratio(phases.scheduled as f64, phases.backlogged as f64),
    );
    out.put(
        "service.ms_per_slot",
        "ms",
        phases.per_slot_ms(phases.service_ns),
    );
    out.put(
        "channel.draws_per_slot",
        "count",
        ratio(phases.draws as f64, slots),
    );
    out.put("channel.draws", "count", draws as f64);
    out.put(
        "channel.ns_per_draw",
        "ns",
        ratio(phases.service_ns as f64, phases.draws as f64),
    );
    out.put(
        "failed_share",
        "ratio",
        ratio(
            (phases.scheduled - phases.delivered) as f64,
            phases.scheduled as f64,
        ),
    );
    out.put(
        "coverage",
        "ratio",
        ratio(phases.named_ns() as f64, armed_wall_ns),
    );
    out.put(
        "trace_overhead",
        "ratio",
        median(&armed_ms) / median(&plain_ms),
    );
    out.note(format!(
        "traced {} armed + {} unarmed slots; layer split of the armed slots: commit {:.1}%, \
         bookkeeping {:.1}%, restrict {:.1}%, schedule {:.1}%, service {:.1}%",
        armed_ms.len(),
        plain_ms.len(),
        100.0 * ratio(phases.commit_ns as f64, armed_wall_ns),
        100.0 * ratio(phases.bookkeeping_ns as f64, armed_wall_ns),
        100.0 * ratio(phases.restrict_ns as f64, armed_wall_ns),
        100.0 * ratio(phases.schedule_ns as f64, armed_wall_ns),
        100.0 * ratio(phases.service_ns as f64, armed_wall_ns),
    ));

    if spec.link_rate > 0.0 {
        let removes = (ratio(phases.removes as f64, slots).round() as usize).max(1);
        let adds = (ratio(phases.adds as f64, slots).round() as usize).max(1);
        let aged = engine.problem().clone();
        drop(engine);
        commit_probe(aged, &spec.geometry(), removes, adds, seed, out)?;
    }
    Ok(())
}

/// Times `Problem::apply` from outside on an aged copy of the engine's
/// instance, on three batch shapes: one remove + one add (the per-batch
/// fixed cost, mostly the O(N) envelope reconcile), `removes` removes
/// only, and `adds` adds only. Each shape is applied `ROUNDS` times and
/// the medians give the fixed cost and the marginal cost per link.
fn commit_probe(
    mut problem: Problem,
    geometry: &UniformGenerator,
    removes: usize,
    adds: usize,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    const ROUNDS: usize = 5;
    let mut rng = fading_math::seeded_rng(fading_math::split_seed(seed, 0x9e37));
    let mut map = LinkIdMap::with_len(problem.len());
    let mut batch = MutationBatch::new();
    let mut apply = |problem: &mut Problem, map: &mut LinkIdMap, batch: &mut MutationBatch| loop {
        let t = Instant::now();
        match problem.apply(batch, map) {
            Ok(_) => return Ok(millis(t)),
            Err(MutationError::InvalidAdd { slot, .. }) => {
                batch.replace_add(slot, sample_spec(geometry, &mut rng));
            }
            Err(e) => return Err(format!("commit probe: {e}")),
        }
    };
    let fill = |batch: &mut MutationBatch, map: &LinkIdMap, r: usize, a: usize, rng: &mut _| {
        batch.clear();
        let live = map.externals();
        let mut picked = std::collections::HashSet::new();
        while picked.len() < r.min(live.len()) {
            picked.insert(live[rand::Rng::gen_range(rng, 0..live.len())]);
        }
        let mut picked: Vec<u64> = picked.into_iter().collect();
        picked.sort_unstable();
        for ext in picked {
            batch.remove(ext);
        }
        for _ in 0..a {
            batch.add(sample_spec(geometry, rng));
        }
    };
    let mut probe_rng = fading_math::seeded_rng(fading_math::split_seed(seed, 0x7f4a));
    // First commit on a fresh copy builds the position index: untimed.
    fill(&mut batch, &map, 1, 1, &mut probe_rng);
    apply(&mut problem, &mut map, &mut batch)?;
    let (mut fixed, mut rem, mut add) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        fill(&mut batch, &map, 1, 1, &mut probe_rng);
        fixed.push(apply(&mut problem, &mut map, &mut batch)?);
        fill(&mut batch, &map, removes, 0, &mut probe_rng);
        rem.push(apply(&mut problem, &mut map, &mut batch)?);
        fill(&mut batch, &map, 0, adds, &mut probe_rng);
        add.push(apply(&mut problem, &mut map, &mut batch)?);
    }
    let fixed_ms = median(&fixed);
    out.put("commit.fixed_ms", "ms", fixed_ms);
    out.put(
        "commit.us_per_remove",
        "us",
        (median(&rem) - fixed_ms) * 1e3 / removes as f64,
    );
    out.put(
        "commit.us_per_add",
        "us",
        (median(&add) - fixed_ms) * 1e3 / adds as f64,
    );
    out.note(format!(
        "commit probe on an aged n={} copy, {ROUNDS} rounds: 1+1 batch {:.3} ms, \
         {removes} removes {:.3} ms, {adds} adds {:.3} ms (medians)",
        problem.len(),
        fixed_ms,
        median(&rem),
        median(&add),
    ));
    Ok(())
}

/// An arriving link drawn by the law the engine and the seed generator
/// use: sender uniform in the region, length U[lo, hi], any direction.
fn sample_spec<R: Rng>(geometry: &UniformGenerator, rng: &mut R) -> LinkSpec {
    let s = Point2::new(
        rng.gen_range(0.0..geometry.side),
        rng.gen_range(0.0..geometry.side),
    );
    let d = rng.gen_range(geometry.len_lo..=geometry.len_hi);
    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
    LinkSpec::new(s, s.offset_polar(d, theta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_net::TopologyGenerator;

    #[test]
    fn toy_probe_yields_positive_fixed_cost() {
        let _serial = crate::serial();
        let spec = CHURN_100K.toy();
        let links = spec.geometry().generate(1);
        let problem = Problem::builder(links, fading_channel::ChannelParams::with_alpha(4.0))
            .backend(sparse())
            .build();
        let mut out = Outcome::default();
        commit_probe(problem, &spec.geometry(), 3, 3, 1, &mut out).unwrap();
        assert!(out.get("commit.fixed_ms").unwrap() > 0.0);
    }
}
