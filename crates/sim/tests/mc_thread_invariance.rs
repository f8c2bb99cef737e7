//! Monte-Carlo statistics do not depend on the thread count: the same
//! call under `RAYON_NUM_THREADS=1` and `=2` returns `==` results. (Its
//! own binary: it sets `RAYON_NUM_THREADS`, so it owns the process
//! environment, and everything runs in one test so no other test in
//! this process reads the variable mid-switch.)

use fading_core::algo::{ApproxDiversity, Rle};
use fading_core::{Problem, Scheduler};
use fading_net::{TopologyGenerator, UniformGenerator};
use fading_sim::{
    simulate_many, simulate_many_nakagami, simulate_many_shadowed, sweep_n, ExperimentConfig,
};

/// Runs `f` once with one worker thread and once with two.
fn one_and_two_threads<T>(f: impl Fn() -> T) -> (T, T) {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let one = f();
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let two = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    (one, two)
}

#[test]
fn monte_carlo_statistics_are_thread_count_invariant() {
    // Dense schedules with many failures per slot: the per-trial values
    // spread, so a chunked Welford merge would round differently.
    for seed in 0..4 {
        let p = Problem::paper(UniformGenerator::paper(200).generate(seed), 3.0);
        for s in [ApproxDiversity::new().schedule(&p), Rle::new().schedule(&p)] {
            let (a, b) = one_and_two_threads(|| simulate_many(&p, &s, 1000, seed));
            assert_eq!(a, b, "simulate_many, instance {seed}");
            for m in [0.7, 2.0] {
                let (a, b) = one_and_two_threads(|| simulate_many_nakagami(&p, &s, m, 300, seed));
                assert_eq!(a, b, "simulate_many_nakagami m={m}, instance {seed}");
            }
            let (a, b) = one_and_two_threads(|| simulate_many_shadowed(&p, &s, 6.0, 300, seed));
            assert_eq!(a, b, "simulate_many_shadowed, instance {seed}");
        }
    }

    let config = ExperimentConfig {
        n_values: vec![60, 120],
        instances: 3,
        trials: 200,
        ..ExperimentConfig::paper()
    };
    let (a, b) = one_and_two_threads(|| sweep_n(&config, &[&Rle::new(), &ApproxDiversity::new()]));
    assert_eq!(a, b, "sweep_n table");
}
