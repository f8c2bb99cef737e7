//! Shape tests for the paper's figures, on reduced grids: who wins,
//! which direction the curves move. These are the assertions behind
//! EXPERIMENTS.md, kept fast enough for CI.

use fading_rls::core::Scheduler;
use fading_rls::prelude::*;
use fading_rls::sim::{sweep_alpha, sweep_n, ExperimentConfig, ResultTable};

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        n_values: vec![100, 300, 500],
        alpha_values: vec![2.5, 3.5, 4.5],
        default_n: 300,
        default_alpha: 3.0,
        instances: 3,
        trials: 300,
        ..ExperimentConfig::paper()
    }
}

/// Every row's Monte-Carlo failure mean sits near the exact Theorem 3.1
/// expectation it estimates.
fn assert_failures_match_exact(t: &ResultTable) {
    for row in &t.rows {
        assert!(
            (row.failed_mean - row.failed_exact_mean).abs() <= 4.0 * row.failed_ci95 + 0.05,
            "{} at {}={}: sampled {} vs exact {}",
            row.algorithm,
            row.x_label,
            row.x,
            row.failed_mean,
            row.failed_exact_mean
        );
    }
}

#[test]
fn fig5a_shape_failures_vs_n() {
    let schedulers: [&dyn Scheduler; 4] = [
        &Ldp::new(),
        &Rle::new(),
        &ApproxLogN,
        &ApproxDiversity::new(),
    ];
    let t = sweep_n(&cfg(), &schedulers);
    assert_failures_match_exact(&t);
    // LDP and RLE: essentially zero failures at every N.
    for name in ["LDP", "RLE"] {
        for row in t.series(name) {
            assert!(
                row.failed_mean <= 0.05,
                "{name} at N={} fails {} per slot",
                row.x,
                row.failed_mean
            );
        }
    }
    // Baselines: strictly more failures than the resistant algorithms
    // at every N, and more failures at N=500 than at N=100.
    for name in ["ApproxLogN", "ApproxDiversity"] {
        let series = t.series(name);
        for row in &series {
            assert!(
                row.failed_mean > 0.05,
                "{name} at N={} unexpectedly clean",
                row.x
            );
        }
        assert!(
            series.last().unwrap().failed_mean > series.first().unwrap().failed_mean,
            "{name}: failures should grow with N"
        );
    }
}

#[test]
fn fig5b_shape_failures_vs_alpha() {
    let schedulers: [&dyn Scheduler; 2] = [&ApproxLogN, &ApproxDiversity::new()];
    let t = sweep_alpha(&cfg(), &schedulers);
    assert_failures_match_exact(&t);
    // Per-link failure rate decreases as α grows (the paper's Fig. 5(b)
    // observation via Eq. (17); the absolute count is confounded by the
    // α-dependent schedule size — see EXPERIMENTS.md).
    for name in ["ApproxLogN", "ApproxDiversity"] {
        let series = t.series(name);
        assert!(
            series.first().unwrap().per_link_failure_rate()
                > series.last().unwrap().per_link_failure_rate(),
            "{name}: per-link failure rate should shrink with α ({} vs {})",
            series.first().unwrap().per_link_failure_rate(),
            series.last().unwrap().per_link_failure_rate()
        );
    }
}

#[test]
fn fig6a_shape_throughput_vs_n() {
    let schedulers: [&dyn Scheduler; 2] = [&Ldp::new(), &Rle::new()];
    let t = sweep_n(&cfg(), &schedulers);
    let rle = t.series("RLE");
    let ldp = t.series("LDP");
    // RLE > LDP at every N (the paper's Fig. 6 ordering).
    for (r, l) in rle.iter().zip(&ldp) {
        assert!(
            r.throughput_mean > l.throughput_mean,
            "at N={}: RLE {} vs LDP {}",
            r.x,
            r.throughput_mean,
            l.throughput_mean
        );
    }
    // Throughput does not shrink with N for either algorithm.
    for series in [&rle, &ldp] {
        assert!(
            series.last().unwrap().throughput_mean >= series.first().unwrap().throughput_mean - 0.5,
            "throughput should not collapse with N"
        );
    }
}

#[test]
fn fig6b_shape_throughput_vs_alpha() {
    let schedulers: [&dyn Scheduler; 2] = [&Ldp::new(), &Rle::new()];
    let t = sweep_alpha(&cfg(), &schedulers);
    for name in ["LDP", "RLE"] {
        let series = t.series(name);
        assert!(
            series.last().unwrap().throughput_mean > series.first().unwrap().throughput_mean,
            "{name}: throughput should grow with α"
        );
    }
    // RLE above LDP across the α grid too.
    for (r, l) in t.series("RLE").iter().zip(t.series("LDP")) {
        assert!(r.throughput_mean > l.throughput_mean, "at α={}", r.x);
    }
}

#[test]
fn ablation_nested_classes_never_lose() {
    let schedulers: [&dyn Scheduler; 2] = [&Ldp::new(), &Ldp::two_sided()];
    let t = sweep_n(&cfg(), &schedulers);
    for (nested, two_sided) in t.series("LDP").iter().zip(t.series("LDP(two-sided)")) {
        assert!(
            nested.throughput_mean >= two_sided.throughput_mean - 1e-9,
            "nested classes lost at N={}",
            nested.x
        );
    }
}
