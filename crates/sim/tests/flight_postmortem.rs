//! The flight recorder's post-mortem bundle: an overloaded engine trips
//! the queue-growth detector, dumps the bundle, and the bundle's replay
//! half replays against the saved sub-instance. (Its own binary: trace
//! capture owns the process-global trace ring.)

use fading_channel::ChannelParams;
use fading_core::algo::GreedyRate;
use fading_core::Problem;
use fading_net::{TopologyGenerator, UniformGenerator};
use fading_obs::FlightConfig;
use fading_sim::{ChurnConfig, ChurnEngine, ServicePolicy, TelemetryConfig};

#[test]
fn queue_blowup_dumps_a_replayable_postmortem_bundle() {
    // Overload a small instance (every link draws a packet every
    // slot) so backlog grows strictly; the flight recorder must
    // fire QueueGrowth, dump the bundle, and the replay half of the
    // bundle must replay cleanly against the saved sub-instance.
    // The engine owns the global trace ring while capturing, so this
    // test has a process of its own.
    fading_obs::set_tracing(false);
    let _ = fading_obs::take_trace();
    let dir = std::env::temp_dir().join(format!("churn_flight_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ChurnConfig {
        slots: 400,
        link_arrival_rate: 0.5,
        mean_lifetime: 40.0,
        packet_prob: 1.0,
        seed: 23,
    };
    let geometry = UniformGenerator::paper(20);
    let problem =
        Problem::builder(geometry.generate(cfg.seed), ChannelParams::with_alpha(3.0)).build();
    let mut e = ChurnEngine::new(problem, geometry, cfg);
    e.arm(TelemetryConfig::new().flight(
        FlightConfig {
            capacity: 16,
            growth_window: 6,
            min_stall_ns: u64::MAX,
            zero_delivery_window: u32::MAX,
            ..Default::default()
        },
        Some(dir.clone()),
    ));
    let mut fired_at = None;
    for t in 0..400 {
        e.step(&GreedyRate, ServicePolicy::MaxWeight);
        if e.health() != "ok" {
            fired_at = Some(t);
            break;
        }
    }
    assert!(fired_at.is_some(), "overload never tripped the detector");
    assert_eq!(e.health(), "queue_growth");
    let tel = e.take_telemetry().unwrap();
    assert_eq!(tel.postmortem(), Some(dir.as_path()));

    // The bundle: post-mortem doc + forensic trace + replay half.
    let doc =
        serde_json::parse_node_str(&std::fs::read_to_string(dir.join("postmortem.json")).unwrap())
            .unwrap();
    assert_eq!(
        doc.get("version"),
        Some(&serde::Node::U64(u64::from(fading_obs::POSTMORTEM_VERSION)))
    );
    assert!(doc
        .get("anomaly")
        .and_then(|a| a.get("QueueGrowth"))
        .is_some());
    assert!(dir.join("flight_trace.jsonl").exists());

    // Acceptance: replay_trace.jsonl replays against the saved
    // sub-instance under certify::replay_trace.
    let trace = fading_obs::Trace::from_jsonl(
        &std::fs::read_to_string(dir.join("replay_trace.jsonl")).unwrap(),
    )
    .unwrap();
    assert!(!trace.events.is_empty());
    let links = fading_net::io::load(&dir.join("replay_instance.json")).unwrap();
    let meta =
        serde_json::parse_node_str(&std::fs::read_to_string(dir.join("replay_meta.json")).unwrap())
            .unwrap();
    let eps = match meta.get("epsilon") {
        Some(serde::Node::F64(x)) => *x,
        other => panic!("epsilon missing from replay meta: {other:?}"),
    };
    let rebuilt = Problem::builder(links, ChannelParams::with_alpha(3.0))
        .epsilon(eps)
        .build();
    let certs = fading_core::certify::replay_trace(&rebuilt, &trace)
        .expect("post-mortem trace must replay");
    assert!(!certs.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
