//! Regression: residual sub-problems must keep the parent's per-link
//! power scales (and backend). Before `Problem::restrict`, the
//! multi-slot loop and the static queueing loop rebuilt residual
//! instances with `Problem::new`, silently reverting a powered instance
//! to uniform power — slots that are infeasible under the true powers
//! looked feasible, and vice versa. The online engine derives its
//! backlog sub-problem two ways — a full restrict, or a patch that
//! re-adds links one [`LinkSpec`](fading_core::LinkSpec) at a time —
//! and both must carry the parent's powers.
//!
//! The instance here is engineered so the bug is *observable*: two
//! far-apart links that coexist under uniform power but conflict once
//! link 0's sender transmits at 1000×. The old code scheduled them
//! together; the fixed code must keep them in separate slots.

use fading_channel::ChannelParams;
use fading_core::algo::GreedyRate;
use fading_core::feasibility::is_feasible;
use fading_core::{multislot, Problem, Schedule};
use fading_geom::{Point2, Rect};
use fading_net::{Link, LinkId, LinkSet, UniformGenerator};
use fading_obs::{SeriesConfig, SlotSeries};
use fading_sim::{ChurnConfig, ChurnEngine, ChurnResult, ServicePolicy, TelemetryConfig};

/// Two parallel length-5 links, 50 apart. Cross factors under uniform
/// power are `ln(1 + (5/50.2…)³) ≈ 1e-3 < γ_ε`; with sender 0 at 1000×
/// the 0→1 factor is `ln(1 + 1000·(5/50.2…)³) ≈ 0.69 ≫ γ_ε`.
fn links() -> LinkSet {
    LinkSet::new(
        Rect::square(100.0),
        vec![
            Link::new(LinkId(0), Point2::new(0.0, 0.0), Point2::new(5.0, 0.0), 1.0),
            Link::new(
                LinkId(1),
                Point2::new(0.0, 50.0),
                Point2::new(5.0, 50.0),
                1.0,
            ),
        ],
    )
}

const SCALES: [f64; 2] = [1000.0, 1.0];
const EPSILON: f64 = 0.01;

fn uniform() -> Problem {
    Problem::new(links(), ChannelParams::paper_defaults(), EPSILON)
}

fn powered() -> Problem {
    Problem::builder(links(), ChannelParams::paper_defaults())
        .epsilon(EPSILON)
        .power_scales(SCALES.to_vec())
        .build()
}

/// The preconditions the instance is engineered for — if these fail the
/// other tests in this file test nothing.
#[test]
fn instance_discriminates_uniform_from_powered() {
    let both = Schedule::from_ids([LinkId(0), LinkId(1)]);
    assert!(
        is_feasible(&uniform(), &both),
        "links must coexist under uniform power"
    );
    assert!(
        !is_feasible(&powered(), &both),
        "links must conflict under the true powers"
    );
}

/// Multi-slot scheduling on a powered instance: every slot must be
/// feasible under the *parent's* powers. The old residual rebuild
/// dropped the scales and packed both links into one slot.
#[test]
fn multislot_respects_parent_power_scales() {
    let p = powered();
    let ms = multislot::schedule_all(&p, &GreedyRate);
    for slot in ms.slots() {
        assert!(
            is_feasible(&p, slot),
            "slot {slot:?} infeasible under the parent's powers"
        );
    }
    assert_eq!(
        ms.num_slots(),
        2,
        "conflicting powered links need separate slots"
    );
    assert_eq!(ms.total_links(), 2);
}

/// Static queueing through the online engine: no link arrivals, links
/// never depart, one packet per link per slot.
fn queue(problem: Problem, slots: u64, policy: ServicePolicy) -> ChurnResult {
    let cfg = ChurnConfig {
        slots,
        link_arrival_rate: 0.0,
        mean_lifetime: f64::INFINITY,
        packet_prob: 1.0,
        seed: 9,
    };
    ChurnEngine::new(problem, UniformGenerator::paper(2), cfg).run(&GreedyRate, policy)
}

/// Queueing on the same instance, both service policies: with the true
/// powers at most one of the two links can be served per slot, and a
/// noise-free singleton always succeeds, so deliveries are exactly one
/// per slot. The old residual rebuild served both every slot (≈ 2 per
/// slot) because the uniform-power sub-instance saw no conflict. Both
/// links stay backlogged throughout, so this is the engine's restrict
/// path; `patched_sub_problems_keep_parent_power_scales` covers patches.
#[test]
fn queueing_respects_parent_power_scales() {
    let slots = 120;
    for policy in [ServicePolicy::PlainRates, ServicePolicy::MaxWeight] {
        let r = queue(powered(), slots, policy);
        assert_eq!(r.packets_arrived, 2 * slots, "deterministic arrivals");
        assert_eq!(
            r.packets_delivered, slots,
            "{policy:?}: exactly one conflicting link can deliver per slot"
        );
        assert!(r.conserves_packets(), "{r:?}");
        assert_eq!(r.final_population, 2);
        assert!((r.delivered_per_slot() - 1.0).abs() < 1e-12);
    }
}

/// The uniform-power twin delivers both packets every slot — pinning
/// that the powered behavior above comes from the power scales, not
/// from some other property of the geometry.
#[test]
fn uniform_twin_serves_both_links_every_slot() {
    let slots = 120;
    let r = queue(uniform(), slots, ServicePolicy::PlainRates);
    assert_eq!(r.packets_delivered, 2 * slots);
    assert_eq!(r.final_backlog, 0);
}

/// The conflicting pair plus a far-away filler link, so the engine's
/// cached sub-problem holds two links when a third re-enters the
/// backlog — a membership change small enough to be patched in rather
/// than restricted from scratch.
fn with_filler(scales: Option<[f64; 3]>) -> Problem {
    let mut links = links().links().to_vec();
    links.push(Link::new(
        LinkId(2),
        Point2::new(9000.0, 9000.0),
        Point2::new(9005.0, 9000.0),
        1.0,
    ));
    let mut b = Problem::builder(
        LinkSet::new(Rect::square(10_000.0), links),
        ChannelParams::paper_defaults(),
    )
    .epsilon(EPSILON);
    if let Some(scales) = scales {
        b = b.power_scales(scales.to_vec());
    }
    b.build()
}

/// Bernoulli(½) arrivals move the backlog every few slots, so the
/// engine patches its sub-problem as well as restricting it. In every
/// slot where all three links are backlogged the powered pair must
/// still conflict (two links scheduled: one of the pair plus the
/// filler), while the uniform twin schedules all three — whichever way
/// the sub-problem was derived.
#[test]
fn patched_sub_problems_keep_parent_power_scales() {
    let patches = fading_obs::counter("sim.churn.sub.patches");
    let patched_before = patches.value();
    let slots = 400;
    let cfg = ChurnConfig {
        slots,
        link_arrival_rate: 0.0,
        mean_lifetime: f64::INFINITY,
        packet_prob: 0.5,
        seed: 4,
    };
    for policy in [ServicePolicy::PlainRates, ServicePolicy::MaxWeight] {
        // How many backlogged links the pair's conflict may leave out.
        for (problem, conflict) in [
            (with_filler(Some([SCALES[0], SCALES[1], 1.0])), 1),
            (with_filler(None), 0),
        ] {
            let mut engine = ChurnEngine::new(problem, UniformGenerator::paper(3), cfg);
            engine.arm(
                TelemetryConfig::new().series(SlotSeries::in_memory(SeriesConfig {
                    capacity: slots as usize,
                    ..Default::default()
                })),
            );
            for _ in 0..slots {
                engine.step(&GreedyRate, policy);
            }
            let tel = engine.take_telemetry().expect("armed");
            let mut crowded = 0;
            for rec in tel.series().expect("series armed").records() {
                let left_out = rec.backlogged - rec.scheduled;
                if rec.backlogged == 3 {
                    crowded += 1;
                    assert_eq!(
                        left_out, conflict,
                        "{policy:?}, slot {}: wrong schedule size with all links backlogged",
                        rec.slot
                    );
                } else {
                    assert!(left_out <= conflict, "{policy:?}, slot {}", rec.slot);
                }
            }
            assert!(crowded > 20, "only {crowded} fully backlogged slots");
        }
    }
    assert!(
        patches.value() > patched_before,
        "the backlog never changed by a patchable diff"
    );
}
