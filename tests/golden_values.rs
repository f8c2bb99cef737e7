//! Golden regression tests: exact outputs for fixed seeds.
//!
//! Every algorithm and generator in the workspace is deterministic
//! given a seed, so accidental behavioral changes (a reordered
//! tie-break, a constant tweak, an RNG stream shift) show up here as
//! exact mismatches. If a change is *intentional*, update the goldens
//! and say why in the commit.

#![allow(clippy::excessive_precision)] // goldens are printed at full precision

use fading_rls::prelude::*;

fn paper_problem() -> Problem {
    Problem::paper(UniformGenerator::paper(200).generate(123), 3.0)
}

#[test]
fn golden_instance_geometry() {
    let links = UniformGenerator::paper(200).generate(123);
    assert_eq!(links.len(), 200);
    // Spot-check exact coordinates of the first link for RNG stream
    // stability (StdRng is documented as a stable algorithm per rand
    // 0.8.x; this pins our usage of it).
    let l0 = links.link(LinkId(0));
    assert!(
        (l0.sender.x - 86.62732213077828192).abs() < 1e-9,
        "{}",
        l0.sender.x
    );
    assert!(
        (l0.sender.y - 76.14821530110893377).abs() < 1e-9,
        "{}",
        l0.sender.y
    );
    assert!((links.min_length().unwrap() - 5.17247734438783002).abs() < 1e-9);
}

#[test]
fn golden_schedule_sizes() {
    let p = paper_problem();
    let cases: [(&dyn Scheduler, usize); 6] = [
        (&Ldp::new(), 4),
        (&Ldp::two_sided(), 4),
        (&Rle::new(), 10),
        (&Dls::new(), 10),
        (&ApproxLogN, 21),
        (&ApproxDiversity::new(), 62),
    ];
    for (s, expect) in cases {
        let got = s.schedule(&p).len();
        assert_eq!(got, expect, "{} scheduled {got}, golden {expect}", s.name());
    }
}

#[test]
fn golden_rle_schedule_members() {
    let p = paper_problem();
    let s = Rle::new().schedule(&p);
    let ids: Vec<u32> = s.iter().map(|id| id.0).collect();
    assert_eq!(ids, vec![42, 58, 70, 81, 93, 96, 154, 155, 168, 181]);
}

#[test]
fn golden_constants() {
    let p = paper_problem();
    let beta = fading_rls::core::constants::ldp_beta(p.params(), p.gamma_eps());
    assert!((beta - 12.94004988631556330).abs() < 1e-9, "{beta}");
    let c1 = fading_rls::core::constants::rle_c1(p.params(), p.gamma_eps(), 0.5);
    assert!((c1 - 23.31386074562002975).abs() < 1e-9, "{c1}");
    let mu = fading_rls::core::constants::approx_logn_mu(p.params());
    assert!((mu - 2.36091033866696920).abs() < 1e-9, "{mu}");
}

#[test]
fn golden_monte_carlo_statistics() {
    let p = paper_problem();
    let s = ApproxDiversity::new().schedule(&p);
    let stats = simulate_many(&p, &s, 500, 99);
    // Bit-reproducible across thread counts by construction.
    assert_eq!(stats.scheduled, 62);
    assert!(
        (stats.failed.mean - 1.798).abs() < 1e-9,
        "{}",
        stats.failed.mean
    );
    assert!(
        (stats.throughput.mean - 60.202).abs() < 1e-9,
        "{}",
        stats.throughput.mean
    );
    // The exact expectation the sample mean estimates (Theorem 3.1).
    assert!(
        (stats.failed_exact - 1.72503926738501).abs() < 1e-9,
        "{}",
        stats.failed_exact
    );
    assert!((stats.failed_exact + stats.throughput_exact - 62.0).abs() < 1e-9);
}

#[test]
fn golden_diversity_and_stats() {
    let links = UniformGenerator::paper(200).generate(123);
    assert_eq!(fading_rls::net::length_diversity(&links), 2);
    let st = fading_rls::net::instance_stats(&links);
    assert_eq!(st.diversity, 2);
    assert!(
        (st.mean_length - 12.52917648974644393).abs() < 1e-9,
        "{}",
        st.mean_length
    );
}
