//! The online scheduling engine: the slot loop under link churn.
//!
//! The paper schedules one saturated slot; a deployed network runs the
//! scheduler every slot over whatever is *backlogged*, while links join
//! and leave ("millions of users joining and leaving", ROADMAP north
//! star). A [`ChurnEngine`] runs that regime on a live, incrementally
//! mutated [`Problem`]: Poisson link arrivals, exponential link
//! lifetimes, Bernoulli packet arrivals on the live links, per-slot
//! scheduling of the backlogged sub-instance under a [`ServicePolicy`],
//! and Rayleigh channel realizations deciding delivery — all seeded and
//! deterministic. Static queueing on a fixed population is the
//! zero-churn case: `link_arrival_rate: 0.0` and
//! `mean_lifetime: f64::INFINITY` (the E9 stability regions run it
//! through [`stability_frontier`]).
//!
//! Each slot's topology changes are one transaction: the engine queues
//! departures and arrivals into a [`MutationBatch`] and commits it with
//! a single [`Problem::apply`] (one envelope reconciliation, one
//! spatial-index patch pass — never a rebuild), with a [`LinkIdMap`]
//! keeping stable external handles across the dense renumbering.
//! Per-link state lives in a dense vector permuted in lockstep with the
//! problem, so the per-slot walks never hash. The backlog-active
//! sub-instance is cached and patched incrementally across slots
//! (`SubCache` internally) instead of being restricted from scratch.
//! See `docs/online.md`.

use crate::slot::simulate_slot;
use fading_core::{
    LinkIdMap, LinkSpec, MutationBatch, MutationError, Problem, SchedCtx, Scheduler,
};
use fading_math::{seeded_rng, split_seed, OnlineStats};
use fading_net::{LinkId, UniformGenerator};
use fading_obs::{FlightConfig, FlightRecorder, SlotRecord, SlotSeries, Span, TraceEvent};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// How per-slot service decisions weigh the backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServicePolicy {
    /// Schedule the backlogged sub-instance with the links' own rates
    /// (the paper's objective applied per slot).
    PlainRates,
    /// MaxWeight / backpressure: rate of each backlogged link is its
    /// queue length, so the scheduler chases the longest queues — the
    /// classic throughput-optimal policy of Tassiulas–Ephremides.
    MaxWeight,
}

/// Configuration of a churn run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Number of simulated slots.
    pub slots: u64,
    /// Mean new links per slot (Poisson).
    pub link_arrival_rate: f64,
    /// Mean link lifetime in slots (exponential, ≥ 1 slot realized);
    /// `f64::INFINITY` means links never depart.
    pub mean_lifetime: f64,
    /// Per-live-link probability of one packet arrival per slot.
    pub packet_prob: f64,
    /// RNG seed; topology, packet, and channel streams derive from it.
    pub seed: u64,
}

impl ChurnConfig {
    /// Checks the knobs [`ChurnEngine::new`] requires: at least one
    /// slot, a finite non-negative arrival rate, a mean lifetime of at
    /// least one slot (`f64::INFINITY` allowed), and `packet_prob` in
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.slots == 0 {
            return Err("need at least one slot".into());
        }
        if !self.link_arrival_rate.is_finite() || self.link_arrival_rate < 0.0 {
            return Err(format!(
                "link arrival rate must be finite and >= 0, got {}",
                self.link_arrival_rate
            ));
        }
        if self.mean_lifetime.is_nan() || self.mean_lifetime < 1.0 {
            return Err(format!(
                "mean lifetime must be at least one slot, got {}",
                self.mean_lifetime
            ));
        }
        if !(0.0..=1.0).contains(&self.packet_prob) {
            return Err(format!(
                "packet probability must be in [0, 1], got {}",
                self.packet_prob
            ));
        }
        Ok(())
    }

    /// Offered steady-state population `initial + λ·E[lifetime]`-ish
    /// sanity check helper: the equilibrium population of the M/G/∞
    /// arrival process alone (ignores the seed population draining).
    /// Zero when no links arrive, even under an infinite lifetime.
    pub fn equilibrium_population(&self) -> f64 {
        if self.link_arrival_rate == 0.0 {
            return 0.0;
        }
        self.link_arrival_rate * self.mean_lifetime
    }
}

/// What one [`ChurnEngine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChurnSlot {
    /// Slot index.
    pub slot: u64,
    /// Links that joined this slot.
    pub link_arrivals: u32,
    /// Links that departed this slot.
    pub link_departures: u32,
    /// Live links after churn.
    pub population: u32,
    /// Links scheduled for transmission.
    pub scheduled: u32,
    /// Packets that arrived this slot.
    pub packets_arrived: u32,
    /// Packets delivered.
    pub delivered: u32,
    /// Packets dropped with links that departed this slot.
    pub packets_abandoned: u64,
    /// Total backlog after service.
    pub backlog: u64,
}

/// Aggregate results of a churn run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChurnResult {
    /// Simulated horizon.
    pub slots: u64,
    /// Links that joined over the run.
    pub links_arrived: u64,
    /// Links that departed over the run.
    pub links_departed: u64,
    /// Time-averaged live population.
    pub mean_population: f64,
    /// Live links when the run ended.
    pub final_population: usize,
    /// Packets that arrived.
    pub packets_arrived: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
    /// Packets dropped because their link departed while they queued.
    pub packets_abandoned: u64,
    /// Time-averaged total backlog (after service, per slot).
    pub mean_backlog: f64,
    /// Largest backlog observed.
    pub max_backlog: u64,
    /// Backlog remaining at the end.
    pub final_backlog: u64,
    /// Sustained engine throughput: slots per wall-clock second over
    /// the whole run (churn + scheduling + channel realization).
    pub slots_per_sec: f64,
}

impl ChurnResult {
    /// Packet conservation: everything that arrived was delivered,
    /// abandoned with a departing link, or still queued.
    pub fn conserves_packets(&self) -> bool {
        self.packets_arrived == self.packets_delivered + self.packets_abandoned + self.final_backlog
    }

    /// Delivered throughput in packets/slot over the run's horizon.
    pub fn delivered_per_slot(&self) -> f64 {
        if self.slots == 0 {
            return 0.0;
        }
        self.packets_delivered as f64 / self.slots as f64
    }

    /// Coarse drift verdict for frontier sweeps: `"growing"` when the
    /// run ends with a backlog well above its own time average (the
    /// signature of an unstable queue under Ásgeirsson–Halldórsson–
    /// Mitra's stability lens), `"stable"` otherwise. A heuristic for
    /// progress lines, not a proof of (in)stability.
    pub fn drift_verdict(&self) -> &'static str {
        if self.final_backlog > 10 && self.final_backlog as f64 > 2.0 * self.mean_backlog {
            "growing"
        } else {
            "stable"
        }
    }
}

/// Per-link engine state, indexed by dense id: the engine permutes its
/// state vector exactly as [`Problem::apply`] permutes the links.
#[derive(Debug)]
struct LinkState {
    /// FIFO of packet arrival slots.
    queue: VecDeque<u64>,
    /// First slot at which the link is gone (`u64::MAX`: never).
    departs_at: u64,
    /// Whether the link is a member of the cached sub-problem.
    in_sub: bool,
}

/// The flight-recorder side of the engine's telemetry: the obs-layer
/// black box plus the engine-owned pieces it cannot know about — the
/// dump directory and the last slot's restricted sub-instance (needed
/// to make the post-mortem trace replayable).
struct FlightBox {
    rec: FlightRecorder,
    out_dir: Option<PathBuf>,
    /// The most recent slot's scheduled sub-problem, kept alive one
    /// slot so a dump can write the instance its trace replays on.
    last_sub: Option<Problem>,
    /// Where the post-mortem bundle landed, once an anomaly fired.
    postmortem: Option<PathBuf>,
}

/// Live telemetry armed onto a [`ChurnEngine`]: optional slot series,
/// optional flight recorder, and the cumulative totals the watch view
/// and the anomaly detector read.
pub struct ChurnTelemetry {
    series: Option<SlotSeries>,
    flight: Option<FlightBox>,
    /// Cumulative per-phase ns (the [`SlotRecord`] phase fields), for
    /// the live phase-split view.
    phase_totals: [u64; 6],
    /// Cumulative packet totals for the conservation audit.
    arrived_total: u64,
    delivered_total: u64,
    abandoned_total: u64,
    health: &'static str,
}

impl std::fmt::Debug for ChurnTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChurnTelemetry")
            .field("health", &self.health)
            .field("phase_totals", &self.phase_totals)
            .field("series", &self.series.is_some())
            .field("flight", &self.flight.is_some())
            .finish_non_exhaustive()
    }
}

impl ChurnTelemetry {
    fn new() -> Self {
        Self {
            series: None,
            flight: None,
            phase_totals: [0; 6],
            arrived_total: 0,
            delivered_total: 0,
            abandoned_total: 0,
            health: "ok",
        }
    }

    /// The armed slot series, if any.
    pub fn series(&self) -> Option<&SlotSeries> {
        self.series.as_ref()
    }

    /// `"ok"`, or the tag of the anomaly that fired.
    pub fn health(&self) -> &'static str {
        self.health
    }

    /// Directory the post-mortem bundle was written to, if one was.
    pub fn postmortem(&self) -> Option<&Path> {
        self.flight.as_ref().and_then(|f| f.postmortem.as_deref())
    }

    /// Cumulative per-phase share of attributed time, as integer
    /// percentages in phase order (mutate, commit, walks, restrict,
    /// schedule, service). Zero until the first armed slot.
    pub fn phase_split(&self) -> [u32; 6] {
        let total: u64 = self.phase_totals.iter().sum();
        if total == 0 {
            return [0; 6];
        }
        self.phase_totals.map(|ns| (ns * 100 / total) as u32)
    }

    /// Renders the live detail line for the watch view: phase split
    /// plus health, appended to the population/backlog basics.
    fn watch_detail(&self, out: &mut String, population: u32, backlog: u64) {
        let [mu, co, wa, re, sc, se] = self.phase_split();
        let _ = write!(
            out,
            "pop {population} backlog {backlog} · \
             mu{mu}%/co{co}%/wa{wa}%/re{re}%/sc{sc}%/se{se}% · {}",
            self.health
        );
    }
}

/// Declarative telemetry selection for [`ChurnEngine::arm`]: choose a
/// slot series, a flight recorder, both, or neither (bare per-slot
/// records for the watch view's phase split) and arm the whole bundle
/// in one call.
///
/// ```ignore
/// engine.arm(
///     TelemetryConfig::new()
///         .series(SlotSeries::in_memory(SeriesConfig::default()))
///         .flight(FlightConfig::default(), Some(out_dir)),
/// );
/// ```
#[derive(Default)]
pub struct TelemetryConfig {
    series: Option<SlotSeries>,
    flight: Option<(FlightConfig, Option<PathBuf>)>,
}

impl TelemetryConfig {
    /// An empty config — arming it still makes the engine build a
    /// [`SlotRecord`] per slot for the live phase split, nothing more.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a slot-series recorder.
    pub fn series(mut self, series: SlotSeries) -> Self {
        self.series = Some(series);
        self
    }

    /// Attaches a flight recorder. `out_dir` is where the post-mortem
    /// bundle lands when the anomaly detector fires (`None` detects
    /// but never dumps). When `cfg.capture_trace` is on the engine runs
    /// its scheduler traced each slot, so don't combine with an
    /// external `--trace-out` drain: the flight recorder owns the
    /// global trace ring.
    pub fn flight(mut self, cfg: FlightConfig, out_dir: Option<PathBuf>) -> Self {
        self.flight = Some((cfg, out_dir));
        self
    }
}

/// The cached backlog-active sub-problem, reused across slots.
///
/// `Problem::restrict` from scratch is `O(k·degree)` in the member
/// count every slot; under churn the backlog set barely moves slot to
/// slot, so the engine keeps the restricted sub-problem alive and
/// patches it with a [`MutationBatch`] of exactly the links that
/// entered or left the backlog (falling back to a full restrict when
/// the diff exceeds half the membership). Soundness: a member link's
/// geometry is immutable while it lives, engine external ids are never
/// reused, and a restriction depends only on its members — so equality
/// of the member set means the cached sub-problem is still exact,
/// regardless of what other links churned (the cache is stamp-keyed
/// only to observe *whether* the main problem moved, not to rebuild).
///
/// Membership is dense on both sides: `members` maps sub-dense ids to
/// engine externals (permuted exactly like the sub's links), and each
/// live link's [`LinkState::in_sub`] flag answers the inverse question.
/// `dense` caches each member's live dense id; it only needs refreshing
/// when a commit moved the main problem.
#[derive(Debug)]
struct SubCache {
    /// The restricted sub-instance, patched in place.
    sub: Problem,
    /// Mirror of the sub's dense renumbering (sub-external ↔ sub-dense),
    /// built by the first patch: a fresh restriction numbers both alike.
    map: Option<LinkIdMap>,
    /// Engine-external id of each member, indexed by sub-dense id.
    members: Vec<u64>,
    /// Live dense id of each member, valid at main stamp `synced`.
    dense: Vec<LinkId>,
    /// Reusable per-slot patch transaction.
    batch: MutationBatch,
    /// Sub-dense ids of the members leaving the sub, ascending.
    dropped: Vec<u32>,
    /// Live dense ids of the links entering the sub, in dense order.
    pending: Vec<LinkId>,
    /// Main-problem stamp the cache was last synced against.
    synced: u64,
}

/// A long-running scheduling engine over a live, churning instance.
///
/// Owns the mutable [`Problem`], the external↔dense [`LinkIdMap`], all
/// per-link queues, and a warm [`SchedCtx`]. Drive it one
/// [`step`](Self::step) at a time (the CLI's progress loop does) or
/// use [`run`](Self::run) for a whole horizon.
#[derive(Debug)]
pub struct ChurnEngine {
    problem: Problem,
    map: LinkIdMap,
    /// Per-link state, indexed by the live problem's dense ids.
    states: Vec<LinkState>,
    /// Total packets queued over all live links.
    backlog: u64,
    geometry: UniformGenerator,
    cfg: ChurnConfig,
    /// Topology stream: arrival counts, positions, lifetimes.
    churn_rng: StdRng,
    /// Packet-arrival stream, separate so arrival patterns don't shift
    /// when churn parameters change.
    packet_rng: StdRng,
    ctx: SchedCtx,
    slot: u64,
    // scratch buffers reused across slots
    batch: MutationBatch,
    /// Dense ids of this slot's departures, ascending.
    departing: Vec<u32>,
    arrival_departs: Vec<u64>,
    backlogged: Vec<LinkId>,
    rates: Vec<f64>,
    /// Cached backlog-active sub-problem (see [`SubCache`]).
    sub: Option<SubCache>,
    /// Live telemetry (slot series / flight recorder / phase split);
    /// `None` skips the per-slot record. The phase spans run either way.
    telemetry: Option<Box<ChurnTelemetry>>,
    /// Scratch for the watch-view detail line.
    detail: String,
}

impl ChurnEngine {
    /// Builds the engine over a seed instance (its links are the slot-0
    /// population; lifetimes for them are sampled like any arrival's).
    /// `geometry` shapes arriving links: sender uniform in its region,
    /// length `U[len_lo, len_hi]`, uniform direction — the same law the
    /// seed generator uses. Everything the problem was configured with
    /// (ε, channel, backend, power scales) rides along through the
    /// in-place mutations.
    ///
    /// # Panics
    /// Panics when [`ChurnConfig::validate`] rejects `cfg`.
    pub fn new(problem: Problem, geometry: UniformGenerator, cfg: ChurnConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let n0 = problem.len();
        let mut churn_rng = seeded_rng(split_seed(cfg.seed, 0));
        let packet_rng = seeded_rng(split_seed(cfg.seed, 1));
        let map = LinkIdMap::with_len(n0);
        let states: Vec<LinkState> = (0..n0)
            .map(|_| LinkState {
                queue: VecDeque::new(),
                departs_at: exponential_departure(0, cfg.mean_lifetime, &mut churn_rng),
                in_sub: false,
            })
            .collect();
        let mut ctx = SchedCtx::new();
        ctx.prepare(n0);
        Self {
            problem,
            map,
            states,
            backlog: 0,
            geometry,
            cfg,
            churn_rng,
            packet_rng,
            ctx,
            slot: 0,
            batch: MutationBatch::new(),
            departing: Vec::new(),
            arrival_departs: Vec::new(),
            backlogged: Vec::new(),
            rates: Vec::new(),
            sub: None,
            telemetry: None,
            detail: String::new(),
        }
    }

    /// The live instance (mutated in place across steps).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Arms live telemetry as declared by one [`TelemetryConfig`].
    /// Arming anything — even an empty config — makes the engine build
    /// a [`SlotRecord`] per slot from its phase spans. Calling
    /// again merges: components present in `cfg` replace their armed
    /// counterparts, absent ones are left as they are.
    pub fn arm(&mut self, cfg: TelemetryConfig) {
        let tel = self
            .telemetry
            .get_or_insert_with(|| Box::new(ChurnTelemetry::new()));
        if let Some(series) = cfg.series {
            tel.series = Some(series);
        }
        if let Some((fcfg, out_dir)) = cfg.flight {
            tel.flight = Some(FlightBox {
                rec: FlightRecorder::new(fcfg),
                out_dir,
                last_sub: None,
                postmortem: None,
            });
        }
    }

    /// The armed telemetry, if any.
    pub fn telemetry(&self) -> Option<&ChurnTelemetry> {
        self.telemetry.as_deref()
    }

    /// `"ok"`, or the tag of the anomaly that fired.
    pub fn health(&self) -> &'static str {
        self.telemetry.as_ref().map_or("ok", |t| t.health)
    }

    /// Detaches and returns the telemetry (flushing the series), e.g.
    /// to inspect the ring after a hand-driven step loop.
    pub fn take_telemetry(&mut self) -> Option<Box<ChurnTelemetry>> {
        let mut tel = self.telemetry.take();
        if let Some(t) = tel.as_mut() {
            if let Some(s) = t.series.as_mut() {
                let _ = s.flush();
            }
        }
        tel
    }

    /// Number of live links.
    pub fn population(&self) -> usize {
        self.map.len()
    }

    /// Current slot index (number of completed steps).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Advances one slot: departures → arrivals → packet arrivals →
    /// schedule the backlogged sub-instance → channel realization →
    /// service.
    ///
    /// The slot is the span `sim.churn.slot`, and its phases are child
    /// spans: `mutate`, `commit`, `walks`, then — when some link is
    /// backlogged — `restrict`, `schedule` and `service`. With
    /// telemetry armed, the closed spans fill the slot's
    /// [`SlotRecord`] timings.
    ///
    /// While decision tracing is on, every slot is bracketed by
    /// `SlotStart`/`SlotEnd` markers whose links are live-problem dense
    /// ids; the scheduler's block in between uses the sub-problem's ids.
    pub fn step<S: Scheduler + ?Sized>(
        &mut self,
        scheduler: &S,
        policy: ServicePolicy,
    ) -> ChurnSlot {
        let slot_span = Span::enter("sim.churn.slot");
        // Trace capture (flight recorder only): the engine owns the
        // global trace ring for the duration of each busy slot.
        let capture = self
            .telemetry
            .as_ref()
            .and_then(|t| t.flight.as_ref())
            .is_some_and(|f| f.rec.wants_trace());
        // External tracing (e.g. `--trace-out`): capture switches
        // tracing off between slots, so this sees only a caller's.
        let traced = fading_obs::tracing_enabled();
        let t = self.slot;
        let mut abandoned = 0u64;

        // Build the slot's transaction. Departures: collect expired
        // links in dense order, queued by external id (none ever expire
        // under an infinite mean lifetime). Arrivals: Poisson count,
        // geometry sampled exactly like the seed generator's (sender
        // uniform in the region, length U[lo, hi], uniform direction).
        let span = Span::enter("mutate");
        self.batch.clear();
        self.departing.clear();
        self.arrival_departs.clear();
        if self.cfg.mean_lifetime < f64::INFINITY {
            for (dense, (state, &ext)) in self.states.iter().zip(self.map.externals()).enumerate() {
                if state.departs_at <= t {
                    self.batch.remove(ext);
                    self.departing.push(dense as u32);
                }
            }
        }
        let link_departures = self.departing.len() as u32;
        let arrivals = poisson(self.cfg.link_arrival_rate, &mut self.churn_rng);
        for _ in 0..arrivals {
            let departs_at = exponential_departure(t, self.cfg.mean_lifetime, &mut self.churn_rng);
            let spec = sample_spec(&self.geometry, &mut self.churn_rng);
            self.batch.add(spec);
            self.arrival_departs.push(departs_at);
        }
        let (mutate_ns, span) = span.handoff("commit");

        // Commit it: one `Problem::apply` — one envelope
        // reconciliation and one spatial-index patch pass for the whole
        // slot, with the id map mirrored inside the same transaction.
        // Coordinate collisions are measure-zero but possible under
        // adversarial seeds; resample exactly the rejected slot.
        if !self.batch.is_empty() {
            let mut tries = 0;
            let receipt = loop {
                match self.problem.apply(&self.batch, &mut self.map) {
                    Ok(receipt) => break receipt,
                    Err(MutationError::InvalidAdd { slot, .. }) => {
                        tries += 1;
                        assert!(tries < 100, "could not place an arriving link");
                        let spec = sample_spec(&self.geometry, &mut self.churn_rng);
                        self.batch.replace_add(slot, spec);
                    }
                    Err(e) => unreachable!("engine removes only live externals: {e}"),
                }
            };
            // Mirror the commit on the state vector: swap-removes in
            // the receipt's order (descending dense id), then appends.
            debug_assert!(receipt.removed.iter().eq(self.batch.removes().iter().rev()));
            for &dense in self.departing.iter().rev() {
                abandoned += self.states.swap_remove(dense as usize).queue.len() as u64;
            }
            self.states
                .extend(self.arrival_departs.iter().map(|&departs_at| LinkState {
                    queue: VecDeque::new(),
                    departs_at,
                    in_sub: false,
                }));
            debug_assert_eq!(self.states.len(), self.map.len());
            if link_departures > 0 {
                fading_obs::counter!("sim.churn.link_departures").add(link_departures as u64);
            }
            if arrivals > 0 {
                fading_obs::counter!("sim.churn.link_arrivals").add(arrivals as u64);
            }
        }
        let (commit_ns, walks) = span.handoff("walks");

        // Packet arrivals on the live population and the backlogged set
        // it leaves, one pass in dense order.
        let mut packets_arrived = 0u32;
        self.backlogged.clear();
        for (dense, state) in self.states.iter_mut().enumerate() {
            if self.packet_rng.gen::<f64>() < self.cfg.packet_prob {
                state.queue.push_back(t);
                packets_arrived += 1;
            }
            if !state.queue.is_empty() {
                self.backlogged.push(LinkId(dense as u32));
            }
        }

        // Schedule the backlogged sub-instance and realize the channel.
        let backlogged_count = self.backlogged.len() as u32;
        let busy = backlogged_count > 0;
        let capture = capture && busy;
        let bracket = traced || capture;
        let mut scheduled = 0u32;
        let mut delivered = 0u32;
        let mut slot_links = Vec::new();
        let walks_ns;
        let (mut restrict_ns, mut schedule_ns) = (0, 0);
        let mut service = None;
        if capture {
            fading_obs::set_tracing(true);
        }
        if bracket {
            fading_obs::trace::publish(vec![TraceEvent::SlotStart {
                slot: t,
                backlog: backlogged_count,
            }]);
        }
        if busy {
            let (ns, span) = walks.handoff("restrict");
            walks_ns = ns;
            self.sync_sub(policy);
            let (ns, span) = span.handoff("schedule");
            restrict_ns = ns;
            let cache = self.sub.as_ref().expect("sync_sub always leaves a cache");
            let schedule = scheduler.schedule_in(&cache.sub, &mut self.ctx);
            let (ns, span) = span.handoff("service");
            schedule_ns = ns;
            // Open until the slot's accounting is done.
            service = Some(span);
            scheduled = schedule.len() as u32;
            let mut channel_rng = seeded_rng(split_seed(self.cfg.seed, t + 2));
            let outcome = simulate_slot(&cache.sub, &schedule, &mut channel_rng);
            for sub_id in outcome.successes {
                let main = cache.dense[sub_id.index()];
                if self.states[main.index()].queue.pop_front().is_some() {
                    delivered += 1;
                }
            }
            if bracket {
                slot_links = schedule
                    .iter()
                    .map(|id| cache.dense[id.index()].0)
                    .collect();
            }
            self.ctx.recycle(schedule);
        } else {
            walks_ns = walks.close();
        }
        if bracket {
            fading_obs::trace::publish(vec![TraceEvent::SlotEnd {
                slot: t,
                links: slot_links,
            }]);
        }
        let mut trace_events: Vec<TraceEvent> = Vec::new();
        let mut sub_for_flight: Option<Problem> = None;
        if capture {
            trace_events = fading_obs::take_trace().events;
            fading_obs::set_tracing(false);
            sub_for_flight = self.sub.as_ref().map(|c| c.sub.clone());
        }

        self.backlog = self.backlog + packets_arrived as u64 - abandoned - delivered as u64;
        debug_assert_eq!(
            self.backlog,
            self.states
                .iter()
                .map(|s| s.queue.len() as u64)
                .sum::<u64>()
        );
        let service_ns = service.map_or(0, Span::close);
        let backlog = self.backlog;
        self.slot = t + 1;
        let out = ChurnSlot {
            slot: t,
            link_arrivals: arrivals,
            link_departures,
            population: self.map.len() as u32,
            scheduled,
            packets_arrived,
            delivered,
            packets_abandoned: abandoned,
            backlog,
        };
        let slot_ns = slot_span.close();
        if self.telemetry.is_some() {
            let rec = SlotRecord {
                slot: t,
                population: out.population as u64,
                arrivals: arrivals as u64,
                departures: link_departures as u64,
                backlogged: backlogged_count as u64,
                scheduled: scheduled as u64,
                eliminated: (backlogged_count - scheduled) as u64,
                packets: packets_arrived as u64,
                delivered: delivered as u64,
                abandoned,
                backlog,
                mutate_ns,
                commit_ns,
                envelope_ns: walks_ns,
                restrict_ns,
                schedule_ns,
                service_ns,
                slot_ns,
            };
            self.finish_slot_telemetry(rec, trace_events, sub_for_flight);
        }
        out
    }

    /// Brings the cached backlog-active sub-problem in sync with
    /// `self.backlogged`: patches it with exactly the links that
    /// entered or left the backlog since last slot (one transactional
    /// [`Problem::apply`] on the sub-instance), or restricts from
    /// scratch when there is no cache yet or the membership diff
    /// exceeds half the cached size. Afterwards the cache's `dense`
    /// maps each member to its live dense id and the sub's rates carry
    /// this slot's scheduling weights (queue lengths under MaxWeight,
    /// the links' own rates otherwise).
    fn sync_sub(&mut self, policy: ServicePolicy) {
        // Diff the backlog against the cache. Links whose geometry the
        // cache copied are immutable while alive and external ids are
        // never reused, so an unchanged member needs no work no matter
        // how much the main problem churned around it; the diff IS the
        // validity check. The main problem's stamp only tells whether
        // members' dense ids may have moved, and classifies the outcome
        // for telemetry: an empty diff at an unchanged stamp is a
        // bit-identical reuse. Taking the diff also leaves every
        // `in_sub` flag equal to "backlogged", the new membership.
        let stamp = self.problem.stamp();
        let rebuild = match self.sub.as_mut() {
            None => true,
            Some(cache) => {
                cache.dropped.clear();
                cache.pending.clear();
                let moved = cache.synced != stamp;
                for (sub_dense, dense) in cache.dense.iter_mut().enumerate() {
                    let live = if moved {
                        self.map.dense(cache.members[sub_dense])
                    } else {
                        Some(*dense)
                    };
                    if let Some(live) = live {
                        let state = &mut self.states[live.index()];
                        if !state.queue.is_empty() {
                            *dense = live;
                            continue;
                        }
                        state.in_sub = false;
                    }
                    cache.dropped.push(sub_dense as u32);
                }
                for &dense in &self.backlogged {
                    let state = &mut self.states[dense.index()];
                    if !state.in_sub {
                        state.in_sub = true;
                        cache.pending.push(dense);
                    }
                }
                let diff = cache.dropped.len() + cache.pending.len();
                if 2 * diff > cache.members.len().max(1) {
                    true
                } else {
                    if diff == 0 {
                        if moved {
                            fading_obs::counter!("sim.churn.sub.holds").incr();
                        } else {
                            fading_obs::counter!("sim.churn.sub.reuses").incr();
                        }
                    } else {
                        let len = cache.members.len();
                        let map = cache.map.get_or_insert_with(|| LinkIdMap::with_len(len));
                        cache.batch.clear();
                        for &sub_dense in &cache.dropped {
                            cache.batch.remove(map.external(LinkId(sub_dense)));
                        }
                        for &dense in &cache.pending {
                            let link = self.problem.links().link(dense);
                            cache.batch.add(
                                LinkSpec::new(link.sender, link.receiver)
                                    .with_rate(link.rate)
                                    .with_power_scale(self.problem.power_scale(dense)),
                            );
                        }
                        cache
                            .sub
                            .apply(&cache.batch, map)
                            .expect("sub patches copy live links");
                        // The receipt's order: swap-removes by
                        // descending sub-dense id, then appends.
                        for &sub_dense in cache.dropped.iter().rev() {
                            cache.members.swap_remove(sub_dense as usize);
                            cache.dense.swap_remove(sub_dense as usize);
                        }
                        for &dense in &cache.pending {
                            cache.members.push(self.map.external(dense));
                            cache.dense.push(dense);
                        }
                        fading_obs::counter!("sim.churn.sub.patches").incr();
                    }
                    cache.synced = stamp;
                    false
                }
            }
        };
        if rebuild {
            let (sub, mapping) = self.problem.restrict(&self.backlogged);
            for &dense in &self.backlogged {
                self.states[dense.index()].in_sub = true;
            }
            let (mut members, batch, dropped, pending) = match self.sub.take() {
                Some(c) => (c.members, c.batch, c.dropped, c.pending),
                None => Default::default(),
            };
            members.clear();
            members.extend(mapping.iter().map(|&dense| self.map.external(dense)));
            self.sub = Some(SubCache {
                sub,
                map: None,
                members,
                dense: mapping,
                batch,
                dropped,
                pending,
                synced: stamp,
            });
            fading_obs::counter!("sim.churn.sub.rebuilds").incr();
        }
        let cache = self.sub.as_mut().expect("cache just synced");
        self.rates.clear();
        match policy {
            ServicePolicy::MaxWeight => self.rates.extend(
                cache
                    .dense
                    .iter()
                    .map(|d| (self.states[d.index()].queue.len() as f64).max(1e-9)),
            ),
            ServicePolicy::PlainRates => self.rates.extend(
                cache
                    .dense
                    .iter()
                    .map(|&d| self.problem.links().link(d).rate),
            ),
        }
        cache.sub.update_link_rates(&self.rates);
    }

    /// The telemetry tail of one slot: phase totals, series, anomaly
    /// detection, and (at most once) the post-mortem dump.
    fn finish_slot_telemetry(
        &mut self,
        rec: SlotRecord,
        trace_events: Vec<TraceEvent>,
        sub: Option<Problem>,
    ) {
        let Some(tel) = self.telemetry.as_deref_mut() else {
            return;
        };
        let phases = [
            rec.mutate_ns,
            rec.commit_ns,
            rec.envelope_ns,
            rec.restrict_ns,
            rec.schedule_ns,
            rec.service_ns,
        ];
        for (total, ns) in tel.phase_totals.iter_mut().zip(phases) {
            *total += ns;
        }
        tel.arrived_total += rec.packets;
        tel.delivered_total += rec.delivered;
        tel.abandoned_total += rec.abandoned;
        if let Some(series) = tel.series.as_mut() {
            series.record(&rec);
        }
        if let Some(flight) = tel.flight.as_mut() {
            let conserved_ok =
                tel.arrived_total == tel.delivered_total + tel.abandoned_total + rec.backlog;
            let conserved = Some((
                conserved_ok,
                tel.arrived_total,
                tel.delivered_total,
                tel.abandoned_total,
                rec.backlog,
            ));
            if sub.is_some() {
                flight.last_sub = sub;
            }
            if let Some(anomaly) = flight.rec.observe(&rec, trace_events, conserved) {
                tel.health = anomaly.tag();
                if let Some(dir) = flight.out_dir.clone() {
                    match flight.rec.dump(&dir, &anomaly) {
                        Ok(_paths) => {
                            write_replay_instance(&dir, flight.last_sub.as_ref());
                            flight.postmortem = Some(dir);
                        }
                        Err(e) => eprintln!("flight recorder: dump failed: {e}"),
                    }
                }
            }
        }
    }

    /// Runs the configured horizon and aggregates, timing the loop (the
    /// span `sim.churn.run`) for the sustained slots/sec figure. With telemetry armed the
    /// progress line grows a live phase split and health state (the
    /// `--watch` view); query [`telemetry`](Self::telemetry) afterwards
    /// for the series ring and any post-mortem location.
    pub fn run<S: Scheduler + ?Sized>(
        &mut self,
        scheduler: &S,
        policy: ServicePolicy,
    ) -> ChurnResult {
        let span = Span::enter("sim.churn.run");
        let progress = fading_obs::Progress::new("churn", "slots", self.cfg.slots);
        let mut population = OnlineStats::new();
        let mut backlog_stats = OnlineStats::new();
        let mut out = ChurnResult {
            slots: self.cfg.slots,
            links_arrived: 0,
            links_departed: 0,
            mean_population: 0.0,
            final_population: 0,
            packets_arrived: 0,
            packets_delivered: 0,
            packets_abandoned: 0,
            mean_backlog: 0.0,
            max_backlog: 0,
            final_backlog: 0,
            slots_per_sec: 0.0,
        };
        for _ in 0..self.cfg.slots {
            let slot = self.step(scheduler, policy);
            out.links_arrived += slot.link_arrivals as u64;
            out.links_departed += slot.link_departures as u64;
            out.packets_arrived += slot.packets_arrived as u64;
            out.packets_delivered += slot.delivered as u64;
            out.packets_abandoned += slot.packets_abandoned;
            out.max_backlog = out.max_backlog.max(slot.backlog);
            out.final_backlog = slot.backlog;
            population.push(slot.population as f64);
            backlog_stats.push(slot.backlog as f64);
            if !fading_obs::progress_enabled() {
                continue;
            }
            let mut detail = std::mem::take(&mut self.detail);
            detail.clear();
            if let Some(tel) = self.telemetry.as_deref() {
                tel.watch_detail(&mut detail, slot.population, slot.backlog);
            } else {
                let _ = write!(detail, "pop {} backlog {}", slot.population, slot.backlog);
            }
            progress.report(slot.slot + 1, &detail, slot.slot + 1);
            self.detail = detail;
        }
        let elapsed = span.close() as f64 * 1e-9;
        out.mean_population = population.mean();
        out.mean_backlog = backlog_stats.mean();
        out.final_population = self.population();
        out.slots_per_sec = if elapsed > 0.0 {
            self.cfg.slots as f64 / elapsed
        } else {
            f64::INFINITY
        };
        if let Some(tel) = self.telemetry.as_deref_mut() {
            if let Some(series) = tel.series.as_mut() {
                if let Err(e) = series.flush() {
                    eprintln!("{e}");
                }
            }
        }
        out
    }
}

#[derive(Serialize)]
struct ReplayMeta {
    params: fading_channel::ChannelParams,
    epsilon: f64,
    backend: String,
}

/// Writes the anomaly slot's restricted sub-instance next to the
/// post-mortem bundle (`replay_instance.json` + `replay_meta.json`),
/// so `replay_trace.jsonl` can be replayed against a faithful rebuild:
/// `Problem::builder(load(instance), meta.params).epsilon(meta.epsilon)`
/// (replay audits picks/eliminations/debits, which are rate-blind, so
/// the MaxWeight rate overrides riding along in the link set are
/// harmless). Best-effort: a failed write degrades the bundle, it
/// doesn't kill the run.
fn write_replay_instance(dir: &Path, sub: Option<&Problem>) {
    let Some(sub) = sub else {
        return;
    };
    let inst = dir.join("replay_instance.json");
    if let Err(e) = fading_net::io::save(sub.links(), &inst) {
        eprintln!("flight recorder: cannot write {}: {e}", inst.display());
        return;
    }
    let meta = ReplayMeta {
        params: *sub.params(),
        epsilon: sub.epsilon(),
        backend: format!("{:?}", sub.backend_choice()),
    };
    let path = dir.join("replay_meta.json");
    match serde_json::to_string_pretty(&meta) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("flight recorder: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("flight recorder: meta encode failed: {e}"),
    }
}

/// One run per offered load: the backlog-vs-arrival-rate stability
/// frontier (EXPERIMENTS.md §stability). Each entry pairs the packet
/// arrival probability with the full run result; the frontier is where
/// `mean_backlog` turns from flat to linear growth.
pub fn stability_frontier<S: Scheduler + ?Sized>(
    problem: &Problem,
    geometry: UniformGenerator,
    base: ChurnConfig,
    scheduler: &S,
    policy: ServicePolicy,
    packet_probs: &[f64],
) -> Vec<(f64, ChurnResult)> {
    let progress =
        fading_obs::Progress::new("frontier", "slots", base.slots * packet_probs.len() as u64);
    packet_probs
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let cfg = ChurnConfig {
                packet_prob: p,
                ..base
            };
            let mut engine = ChurnEngine::new(problem.clone(), geometry, cfg);
            let r = engine.run(scheduler, policy);
            progress.report(
                (i as u64 + 1) * base.slots,
                &format!(
                    "point {}/{} · p={p:.3} · {:.2} delivered/slot · {}",
                    i + 1,
                    packet_probs.len(),
                    r.delivered_per_slot(),
                    r.drift_verdict()
                ),
                (i as u64 + 1) * base.slots,
            );
            (p, r)
        })
        .collect()
}

/// Samples one arriving link's geometry exactly like the seed
/// generator's law: sender uniform in the region, length
/// `U[len_lo, len_hi]`, uniform direction.
fn sample_spec(geometry: &UniformGenerator, rng: &mut StdRng) -> LinkSpec {
    let side = geometry.side;
    let s = fading_geom::Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
    let d = rng.gen_range(geometry.len_lo..=geometry.len_hi);
    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
    LinkSpec::new(s, s.offset_polar(d, theta))
}

/// Poisson sample by Knuth's product-of-uniforms method — exact, and
/// `O(λ)` per draw, which is fine at per-slot link-arrival rates.
fn poisson(lambda: f64, rng: &mut StdRng) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

/// First slot at which a link arriving at `t` is gone: an exponential
/// lifetime with the given mean, floored at one full slot of life. The
/// uniform is drawn for every mean, so the stream advances identically.
fn exponential_departure(t: u64, mean: f64, rng: &mut StdRng) -> u64 {
    departure_slot(t, mean, rng.gen())
}

/// [`exponential_departure`] for the uniform draw `u ∈ [0, 1)`. An
/// infinite mean never departs (`u64::MAX`; at `u = 0` the formula
/// would give `∞·0 = NaN`), and a finite life too long for a `u64`
/// saturates instead of wrapping.
fn departure_slot(t: u64, mean: f64, u: f64) -> u64 {
    if mean == f64::INFINITY {
        return u64::MAX;
    }
    let life = -mean * (1.0 - u).ln();
    (t + 1).saturating_add(life.floor() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_channel::ChannelParams;
    use fading_core::algo::{GreedyRate, Rle};
    use fading_core::BackendChoice;
    use fading_net::TopologyGenerator;

    fn cfg(slots: u64) -> ChurnConfig {
        ChurnConfig {
            slots,
            link_arrival_rate: 2.0,
            mean_lifetime: 30.0,
            packet_prob: 0.05,
            seed: 7,
        }
    }

    fn engine_sized(n: usize, c: ChurnConfig) -> ChurnEngine {
        let geometry = UniformGenerator::paper(n);
        let problem =
            Problem::builder(geometry.generate(c.seed), ChannelParams::with_alpha(3.0)).build();
        ChurnEngine::new(problem, geometry, c)
    }

    fn engine(c: ChurnConfig) -> ChurnEngine {
        engine_sized(40, c)
    }

    #[test]
    fn packets_are_conserved_under_churn() {
        let r = engine(cfg(150)).run(&GreedyRate, ServicePolicy::MaxWeight);
        assert!(r.conserves_packets(), "{r:?}");
        assert!(r.links_arrived > 0, "arrivals must occur");
        assert!(r.links_departed > 0, "departures must occur");
        assert!(r.slots_per_sec > 0.0);
    }

    #[test]
    fn population_tracks_the_mg_infinity_equilibrium() {
        // λ·E[life] = 2 × 30 = 60; from a seed of 40 the time-averaged
        // population must sit in that neighborhood, and the engine's
        // live problem must agree with its own map.
        let mut e = engine(cfg(300));
        for _ in 0..300 {
            e.step(&GreedyRate, ServicePolicy::PlainRates);
        }
        assert_eq!(e.population(), e.problem().len());
        let pop = e.population() as f64;
        assert!(
            (20.0..=140.0).contains(&pop),
            "population {pop} wandered far from equilibrium 60"
        );
    }

    #[test]
    fn engine_state_matches_a_fresh_rebuild_every_step() {
        // The live problem is only ever touched by per-slot
        // `Problem::apply` transactions; after a burst of churn it must
        // still be bit-identical to a from-scratch build over its own
        // links.
        let mut e = engine_sized(
            20,
            ChurnConfig {
                slots: 40,
                link_arrival_rate: 3.0,
                mean_lifetime: 8.0,
                packet_prob: 0.2,
                seed: 11,
            },
        );
        for _ in 0..40 {
            e.step(&Rle::new(), ServicePolicy::PlainRates);
        }
        let p = e.problem();
        let rebuilt = Problem::builder(
            fading_net::LinkSet::new(*p.links().region(), p.links().links().to_vec()),
            *p.params(),
        )
        .epsilon(p.epsilon())
        .backend(p.backend_choice())
        .build();
        assert_eq!(p, &rebuilt);
    }

    #[test]
    fn sub_cache_mirrors_the_backlogged_restriction() {
        // The incrementally patched sub-problem must stay an exact
        // restriction: same membership as this slot's backlog, each
        // member's geometry identical to its live counterpart, and the
        // whole sub bit-equivalent to a fresh build over its own links
        // (rates included — MaxWeight rewrites them in place each
        // slot, so the weights ride along into the rebuild).
        // At light load the backlog set turns over almost entirely
        // between slots (rebuilds); at heavier load it moves by a few
        // links (patches). Both must mirror.
        let mut mapped_slots = 0;
        for packet_prob in [0.05, 0.4] {
            let mut e = engine(ChurnConfig {
                packet_prob,
                ..cfg(150)
            });
            let mut patched_slots = 0;
            for _ in 0..150 {
                e.step(&GreedyRate, ServicePolicy::MaxWeight);
                if e.backlogged.is_empty() {
                    continue;
                }
                let cache = e.sub.as_ref().expect("backlog scheduled ⇒ cache");
                patched_slots += 1;
                assert_eq!(cache.sub.len(), e.backlogged.len());
                if let Some(map) = &cache.map {
                    assert_eq!(map.len(), cache.sub.len());
                    mapped_slots += 1;
                }
                assert_eq!(cache.members.len(), cache.sub.len());
                assert_eq!(cache.dense.len(), cache.sub.len());
                assert_eq!(e.states.len(), e.map.len());
                let mut want: Vec<u64> = e.backlogged.iter().map(|d| e.map.external(*d)).collect();
                let mut got = cache.members.clone();
                want.sort_unstable();
                got.sort_unstable();
                got.dedup();
                assert_eq!(want, got, "cache membership drifted from the backlog");
                // The dense flags are the inverse of `members`: set exactly
                // on the live links the sub holds.
                for (dense, state) in e.states.iter().enumerate() {
                    let ext = e.map.external(LinkId(dense as u32));
                    assert_eq!(
                        state.in_sub,
                        cache.members.contains(&ext),
                        "in_sub flag of external {ext} drifted from the membership"
                    );
                }
                for dense in 0..cache.sub.len() as u32 {
                    let sub_link = cache.sub.links().link(LinkId(dense));
                    let ext = cache.members[dense as usize];
                    let main = e.map.dense(ext).expect("live");
                    assert_eq!(cache.dense[dense as usize], main);
                    let main_link = e.problem.links().link(main);
                    assert_eq!(sub_link.sender, main_link.sender);
                    assert_eq!(sub_link.receiver, main_link.receiver);
                    assert_eq!(
                        cache.sub.power_scale(LinkId(dense)),
                        e.problem.power_scale(main)
                    );
                }
                let p = &cache.sub;
                let rebuilt = Problem::builder(
                    fading_net::LinkSet::new(*p.links().region(), p.links().links().to_vec()),
                    *p.params(),
                )
                .epsilon(p.epsilon())
                .backend(p.backend_choice())
                .build();
                assert_eq!(p, &rebuilt, "patched sub-problem diverged from rebuild");
            }
            assert!(patched_slots > 50, "backlog was almost always empty");
        }
        assert!(mapped_slots > 0, "the patch path never ran");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = engine(cfg(120)).run(&GreedyRate, ServicePolicy::MaxWeight);
        let b = engine(cfg(120)).run(&GreedyRate, ServicePolicy::MaxWeight);
        // slots_per_sec is wall-clock; everything else must match.
        assert_eq!(
            (a.links_arrived, a.links_departed, a.packets_arrived),
            (b.links_arrived, b.links_departed, b.packets_arrived)
        );
        assert_eq!(
            (a.packets_delivered, a.packets_abandoned, a.final_backlog),
            (b.packets_delivered, b.packets_abandoned, b.final_backlog)
        );
        assert_eq!(a.final_population, b.final_population);
    }

    #[test]
    fn sparse_backend_runs_the_same_loop() {
        let c = ChurnConfig {
            slots: 60,
            link_arrival_rate: 1.0,
            mean_lifetime: 20.0,
            packet_prob: 0.1,
            seed: 3,
        };
        let geometry = UniformGenerator::paper(30);
        let problem = Problem::builder(geometry.generate(c.seed), ChannelParams::with_alpha(3.0))
            .backend(BackendChoice::Sparse(fading_core::SparseConfig::default()))
            .build();
        let mut e = ChurnEngine::new(problem, geometry, c);
        let r = e.run(&GreedyRate, ServicePolicy::MaxWeight);
        assert!(r.conserves_packets(), "{r:?}");
    }

    #[test]
    fn heavier_load_means_more_backlog() {
        let base = ChurnConfig {
            slots: 250,
            link_arrival_rate: 0.5,
            mean_lifetime: 60.0,
            packet_prob: 0.0, // overridden by the frontier
            seed: 19,
        };
        let geometry = UniformGenerator::paper(60);
        let problem =
            Problem::builder(geometry.generate(base.seed), ChannelParams::with_alpha(3.0)).build();
        let frontier = stability_frontier(
            &problem,
            geometry,
            base,
            &GreedyRate,
            ServicePolicy::MaxWeight,
            &[0.01, 0.9],
        );
        assert_eq!(frontier.len(), 2);
        assert!(
            frontier[1].1.mean_backlog > frontier[0].1.mean_backlog,
            "overload backlog {} must exceed light-load backlog {}",
            frontier[1].1.mean_backlog,
            frontier[0].1.mean_backlog
        );
    }

    #[test]
    fn phase_timings_sum_close_to_slot_span() {
        // Acceptance: the six phase spans must account for the
        // slot span to within 5% (aggregated over the run, so one
        // preempted slot cannot fail the audit). The ring always keeps
        // timings, regardless of the stream's determinism mode.
        let mut e = engine(cfg(120));
        e.arm(
            TelemetryConfig::new().series(SlotSeries::in_memory(fading_obs::SeriesConfig {
                capacity: 200,
                ..Default::default()
            })),
        );
        for _ in 0..120 {
            e.step(&GreedyRate, ServicePolicy::MaxWeight);
        }
        let tel = e.take_telemetry().expect("telemetry armed");
        let series = tel.series().expect("series armed");
        assert_eq!(series.recorded(), 120);
        let mut phases = 0u64;
        let mut spans = 0u64;
        for rec in series.records() {
            assert!(rec.slot_ns > 0, "armed slots must be timed");
            phases += rec.phase_sum_ns();
            spans += rec.slot_ns;
        }
        let ratio = phases as f64 / spans as f64;
        assert!(
            (0.95..=1.0).contains(&ratio),
            "phase attribution covers {ratio:.4} of the slot span"
        );
        let split = tel.phase_split();
        assert!(split.iter().sum::<u32>() <= 100);
        assert!(split.iter().any(|&p| p > 0), "split {split:?} all zero");
    }

    #[test]
    fn an_armed_step_closes_every_phase_span() {
        // The phases are child spans of `sim.churn.slot` in the metrics
        // registry. Counts only grow (other tests step engines in
        // parallel), so compare before and after one busy step.
        let phases = [
            "mutate", "commit", "walks", "restrict", "schedule", "service",
        ];
        let count = |phase: &str| {
            let name = format!("span.sim.churn.slot.{phase}");
            fading_obs::snapshot()
                .histograms
                .get(&name)
                .map_or(0, |h| h.count)
        };
        let mut e = engine(ChurnConfig {
            packet_prob: 1.0,
            ..cfg(1)
        });
        e.arm(TelemetryConfig::new());
        let before = phases.map(count);
        let slot = e.step(&GreedyRate, ServicePolicy::MaxWeight);
        assert!(slot.scheduled > 0, "the step must be busy");
        let after = phases.map(count);
        for ((phase, b), a) in phases.iter().zip(before).zip(after) {
            assert!(a > b, "span sim.churn.slot.{phase} did not record");
        }
        let tree = fading_obs::span_snapshot();
        for phase in phases {
            let path = format!("sim.churn.slot.{phase}");
            assert!(fading_obs::span::find(&tree, &path).is_some(), "{path}");
        }
    }

    #[test]
    fn series_ring_mirrors_the_slot_outputs_deterministically() {
        // Two same-seed runs must produce byte-identical deterministic
        // series lines, and each record must agree with the ChurnSlot
        // the engine returned for that slot.
        let run = |check_slots: bool| -> String {
            let mut e = engine(cfg(100));
            e.arm(
                TelemetryConfig::new().series(SlotSeries::in_memory(fading_obs::SeriesConfig {
                    capacity: 128,
                    ..Default::default()
                })),
            );
            for _ in 0..100 {
                let slot = e.step(&GreedyRate, ServicePolicy::MaxWeight);
                if check_slots {
                    let rec = *e
                        .telemetry()
                        .and_then(|t| t.series())
                        .and_then(|s| s.last())
                        .expect("record per slot");
                    assert_eq!(rec.slot, slot.slot);
                    assert_eq!(rec.population, slot.population as u64);
                    assert_eq!(rec.scheduled, slot.scheduled as u64);
                    assert_eq!(rec.delivered, slot.delivered as u64);
                    assert_eq!(rec.backlog, slot.backlog);
                    assert_eq!(rec.eliminated, rec.backlogged - rec.scheduled);
                }
            }
            let tel = e.take_telemetry().unwrap();
            let mut out = String::new();
            for rec in tel.series().unwrap().records() {
                out.push_str(&SlotSeries::render_line(rec, false));
            }
            out
        };
        let a = run(true);
        let b = run(false);
        assert!(!a.is_empty());
        assert_eq!(a, b, "deterministic series lines diverged across reruns");
        assert!(!a.contains("_ns"), "timing fields leaked into det mode");
    }

    /// Delegates to [`GreedyRate`] but sleeps once, well after the
    /// stall detector's warmup — the injected anomaly.
    struct Sleepy {
        calls: std::sync::atomic::AtomicU64,
    }

    impl Scheduler for Sleepy {
        fn name(&self) -> &'static str {
            "sleepy"
        }

        fn schedule_in(&self, problem: &Problem, ctx: &mut SchedCtx) -> fading_core::Schedule {
            let n = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n == 20 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            GreedyRate.schedule_in(problem, ctx)
        }
    }

    #[test]
    fn injected_stall_fires_the_stall_detector() {
        let mut e = engine(ChurnConfig {
            packet_prob: 0.5, // busy enough that every slot schedules
            ..cfg(80)
        });
        e.arm(TelemetryConfig::new().flight(
            FlightConfig {
                stall_factor: 4.0,
                min_stall_ns: 2_000_000, // 2ms floor; the sleep is 30ms
                growth_window: u32::MAX,
                zero_delivery_window: u32::MAX,
                capture_trace: false,
                ..Default::default()
            },
            None, // detect, don't dump
        ));
        let sleepy = Sleepy {
            calls: std::sync::atomic::AtomicU64::new(0),
        };
        for _ in 0..80 {
            e.step(&sleepy, ServicePolicy::MaxWeight);
            if e.health() != "ok" {
                break;
            }
        }
        assert_eq!(e.health(), "slot_stall");
        assert!(e.telemetry().unwrap().postmortem().is_none());
    }

    /// Schedules nothing, ever — the zero-delivery pathology.
    struct Noop;

    impl Scheduler for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }

        fn schedule_in(&self, _problem: &Problem, _ctx: &mut SchedCtx) -> fading_core::Schedule {
            fading_core::Schedule::empty()
        }
    }

    #[test]
    fn zero_delivery_streak_fires_on_a_dead_scheduler() {
        let mut e = engine(ChurnConfig {
            packet_prob: 0.6,
            ..cfg(60)
        });
        e.arm(TelemetryConfig::new().flight(
            FlightConfig {
                zero_delivery_window: 5,
                growth_window: u32::MAX,
                min_stall_ns: u64::MAX,
                capture_trace: false,
                ..Default::default()
            },
            None,
        ));
        for _ in 0..60 {
            e.step(&Noop, ServicePolicy::PlainRates);
            if e.health() != "ok" {
                break;
            }
        }
        assert_eq!(e.health(), "zero_delivery_streak");
    }

    /// Static queueing: the zero-churn engine over a paper instance.
    fn queueing(n: usize, instance_seed: u64, packet_prob: f64, slots: u64) -> ChurnEngine {
        let geometry = UniformGenerator::paper(n);
        let problem = Problem::paper(geometry.generate(instance_seed), 3.0);
        let cfg = ChurnConfig {
            slots,
            link_arrival_rate: 0.0,
            mean_lifetime: f64::INFINITY,
            packet_prob,
            seed: 42,
        };
        ChurnEngine::new(problem, geometry, cfg)
    }

    #[test]
    fn zero_churn_keeps_the_population_constant() {
        // An infinite mean lifetime means "never departs": no overflow
        // in the departure slot (this runs as a debug build), no link
        // lost at slot 0, none over a long horizon.
        let mut e = queueing(30, 1, 0.1, 500);
        for _ in 0..500 {
            let slot = e.step(&GreedyRate, ServicePolicy::PlainRates);
            assert_eq!((slot.link_arrivals, slot.link_departures), (0, 0));
            assert_eq!(slot.population, 30);
            assert_eq!(slot.packets_abandoned, 0);
        }
        assert_eq!(e.problem().len(), 30);
        assert_eq!(e.cfg.equilibrium_population(), 0.0);
    }

    #[test]
    fn greedy_sustains_more_load_than_rle() {
        let greedy = queueing(100, 4, 0.08, 600).run(&GreedyRate, ServicePolicy::PlainRates);
        let rle = queueing(100, 4, 0.08, 600).run(&Rle::new(), ServicePolicy::PlainRates);
        assert_eq!(greedy.packets_arrived, rle.packets_arrived, "same arrivals");
        assert!(greedy.conserves_packets() && rle.conserves_packets());
        assert!(
            greedy.mean_backlog < rle.mean_backlog,
            "greedy backlog {} vs RLE {}",
            greedy.mean_backlog,
            rle.mean_backlog
        );
    }

    #[test]
    fn maxweight_does_not_collapse_throughput() {
        // Under moderate overload backpressure chases long queues
        // instead of maximizing the served count, but it must not give
        // away more than a fifth of plain-rate service.
        let plain = queueing(100, 8, 0.12, 800).run(&GreedyRate, ServicePolicy::PlainRates);
        let mw = queueing(100, 8, 0.12, 800).run(&GreedyRate, ServicePolicy::MaxWeight);
        assert_eq!(plain.packets_arrived, mw.packets_arrived, "same arrivals");
        assert!(
            mw.packets_delivered as f64 >= 0.8 * plain.packets_delivered as f64,
            "backpressure should not collapse throughput ({} vs {})",
            mw.packets_delivered,
            plain.packets_delivered
        );
    }

    #[test]
    fn deep_overload_reuses_the_sub_problem() {
        // Every link draws a packet every slot, so after the first busy
        // slot the backlog never changes and the main problem never
        // moves: every later slot must reuse the cached sub-problem.
        let reuses = fading_obs::counter("sim.churn.sub.reuses");
        let before = reuses.value();
        let r = queueing(40, 12, 1.0, 50).run(&GreedyRate, ServicePolicy::MaxWeight);
        assert!(r.conserves_packets(), "{r:?}");
        assert!(
            reuses.value() - before >= 40,
            "expected ≥40 reused slots, got {}",
            reuses.value() - before
        );
    }

    #[test]
    fn poisson_mean_is_right() {
        let mut rng = seeded_rng(1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(3.0, &mut rng) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "poisson mean {mean}");
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn lifetimes_last_at_least_one_slot() {
        let mut rng = seeded_rng(2);
        for t in [0u64, 5, 100] {
            for _ in 0..200 {
                assert!(exponential_departure(t, 1.0, &mut rng) > t);
            }
        }
    }

    #[test]
    fn infinite_lifetimes_never_depart_and_keep_the_stream_in_step() {
        for u in [0.0, 0.5, 1.0 - f64::EPSILON] {
            for t in [0u64, 7, u64::MAX - 1] {
                assert_eq!(departure_slot(t, f64::INFINITY, u), u64::MAX);
            }
            // A finite but astronomically long life saturates.
            assert_eq!(departure_slot(5, 1e300, u.max(0.5)), u64::MAX);
        }
        assert_eq!(departure_slot(5, 1.0, 0.0), 6, "at least one slot of life");
        let mut finite = seeded_rng(3);
        let mut infinite = seeded_rng(3);
        for t in [0u64, 7, 100] {
            exponential_departure(t, 5.0, &mut finite);
            exponential_departure(t, f64::INFINITY, &mut infinite);
        }
        // Both streams consumed one uniform per draw.
        assert_eq!(finite.gen::<u64>(), infinite.gen::<u64>());
    }
}
