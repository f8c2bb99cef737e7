//! Extension E9: stability regions under online packet arrivals.
//!
//! Bernoulli arrivals per link per slot; the scheduler serves the
//! backlog every slot; the Rayleigh channel decides delivery. Sweeping
//! the offered load locates each algorithm's saturation point — the
//! queueing-theoretic meaning of "throughput". Each row is one
//! zero-churn [`stability_frontier`] sweep of the online engine (no
//! link arrivals, links never depart).

use fading_core::algo::{Dls, GreedyRate, Ldp, Rle};
use fading_core::{Problem, Scheduler};
use fading_net::{TopologyGenerator, UniformGenerator};
use fading_sim::ServicePolicy::{MaxWeight, PlainRates};
use fading_sim::{stability_frontier, ChurnConfig, ServicePolicy};

fn main() {
    let cli = fading_bench::Cli::parse();
    let quick = cli.quick;
    let slots: u64 = if quick { 300 } else { 1500 };
    let n = 150;
    let loads = [0.01, 0.03, 0.05, 0.10, 0.20];
    let rows: Vec<(&str, Box<dyn Scheduler>, ServicePolicy)> = vec![
        ("LDP", Box::new(Ldp::new()), PlainRates),
        ("RLE", Box::new(Rle::new()), PlainRates),
        ("DLS", Box::new(Dls::new()), PlainRates),
        ("GreedyRate", Box::new(GreedyRate), PlainRates),
        // Backpressure variant of the strongest scheduler.
        ("Greedy+MaxW", Box::new(GreedyRate), MaxWeight),
    ];
    println!("# Extension E9 — queueing: mean backlog (packets) vs offered load");
    println!("# N = {n} links, {slots} slots; offered load = N · arrival_prob packets/slot");
    println!();
    print!("{:<12}", "algorithm");
    for l in loads {
        print!(" {:>12}", format!("p={l}"));
    }
    println!();
    let geometry = UniformGenerator::paper(n);
    let p = Problem::paper(geometry.generate(17), 3.0);
    let base = ChurnConfig {
        slots,
        link_arrival_rate: 0.0,
        mean_lifetime: f64::INFINITY,
        packet_prob: 0.0, // overridden per load
        seed: 5,
    };
    for (name, algo, policy) in &rows {
        print!("{name:<12}");
        for (_, r) in stability_frontier(&p, geometry, base, algo.as_ref(), *policy, &loads) {
            print!(" {:>12.1}", r.mean_backlog);
        }
        println!();
    }
    println!();
    println!("A backlog that grows with the horizon marks an unstable load; the");
    println!("feasibility-aware greedy sustains several times the load of the");
    println!("worst-case-guaranteed algorithms.");
    cli.write_manifest("ext_queueing");
}
