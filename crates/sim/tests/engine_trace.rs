//! The online engine brackets every slot with `SlotStart`/`SlotEnd`
//! markers whenever decision tracing is on, so a `--trace-out` stream
//! of a queueing run keeps its timeline: the slot number, the backlog
//! the scheduler saw, and the links it committed in live-problem ids.
//! (Its own binary: tracing is process-global.)

use fading_core::algo::GreedyRate;
use fading_core::Problem;
use fading_net::{TopologyGenerator, UniformGenerator};
use fading_obs::TraceEvent;
use fading_sim::{ChurnConfig, ChurnEngine, ServicePolicy};

#[test]
fn traced_slots_are_bracketed_in_parent_ids() {
    let n = 12;
    let geometry = UniformGenerator::paper(n);
    let problem = Problem::paper(geometry.generate(3), 3.0);
    let cfg = ChurnConfig {
        slots: 60,
        link_arrival_rate: 0.0,
        mean_lifetime: f64::INFINITY,
        packet_prob: 0.03,
        seed: 8,
    };
    let mut engine = ChurnEngine::new(problem, geometry, cfg);
    fading_obs::set_tracing(true);
    let _ = fading_obs::take_trace();
    let slots: Vec<_> = (0..cfg.slots)
        .map(|_| engine.step(&GreedyRate, ServicePolicy::PlainRates))
        .collect();
    let trace = fading_obs::take_trace();
    fading_obs::set_tracing(false);
    assert!(trace.is_complete());

    let mut open: Option<u64> = None;
    let mut next = 0u64;
    let (mut idle, mut busy) = (0, 0);
    for event in &trace.events {
        match event {
            TraceEvent::SlotStart { slot, backlog } => {
                assert_eq!(open, None, "slot {slot} opened inside slot {open:?}");
                assert_eq!(*slot, next, "slots must appear in order");
                if *backlog == 0 {
                    idle += 1;
                } else {
                    busy += 1;
                }
                open = Some(*slot);
            }
            TraceEvent::SlotEnd { slot, links } => {
                assert_eq!(open, Some(*slot), "unmatched SlotEnd");
                let s = &slots[*slot as usize];
                assert_eq!(links.len() as u32, s.scheduled);
                let mut sorted = links.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), links.len(), "duplicate links");
                assert!(links.iter().all(|&id| (id as usize) < n));
                open = None;
                next += 1;
            }
            // Scheduler blocks sit strictly inside a slot.
            _ => assert!(open.is_some(), "scheduler event outside a slot"),
        }
    }
    assert_eq!(open, None);
    assert_eq!(next, cfg.slots, "every slot is bracketed, idle ones too");
    assert!(idle > 0 && busy > 0, "idle {idle}, busy {busy}");
}
