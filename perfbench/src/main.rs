//! End-to-end benchmark of the fading-rls library with per-layer
//! attribution. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints what it measured line by line, then one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when a correctness check fails, 2 on bad usage.

mod checks;
mod churn;
mod figure;
mod harness;
mod layers;

use harness::{Metric, Outcome};
use std::fmt::Write as _;

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("commit.ms_per_slot", "ms"),
    ("commit.removes_per_slot", "count"),
    ("commit.adds_per_slot", "count"),
    ("commit.fixed_ms", "ms"),
    ("commit.us_per_remove", "us"),
    ("commit.us_per_add", "us"),
    ("commit.compactions", "count"),
    ("commit.arena_bytes_per_link", "B"),
    ("bookkeeping.ms_per_slot", "ms"),
    ("bookkeeping.share", "ratio"),
    ("restrict.ms_per_slot", "ms"),
    ("restrict.patches", "count"),
    ("restrict.rebuilds", "count"),
    ("restrict.reuse_ratio", "ratio"),
    ("schedule.ms_per_slot", "ms"),
    ("schedule.backlogged_per_slot", "count"),
    ("schedule.scheduled_per_slot", "count"),
    ("schedule.yield", "ratio"),
    ("service.ms_per_slot", "ms"),
    ("channel.draws_per_slot", "count"),
    ("channel.draws", "count"),
    ("channel.ns_per_draw", "ns"),
    ("mc.trials", "count"),
    ("runner.occupancy", "ratio"),
    ("factor.dense_build_ms", "ms"),
    ("schedule.ms_per_instance", "ms"),
    ("generate_s", "s"),
    ("spatial.build_s", "s"),
    ("factor.build_s", "s"),
    ("factor.bytes_per_link", "B"),
    ("factor.build_scaling_2t", "ratio"),
    ("rle.picks", "count"),
    ("rle.eliminations", "count"),
    ("ldp.picks", "count"),
    ("rle.ms", "ms"),
    ("ldp.ms", "ms"),
    ("failed_share", "ratio"),
    ("coverage", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["churn-100k", "queue-20k", "paper-fig5a"];

/// Runs one workload; `toy` shrinks it to test size.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    toy: bool,
) -> Result<Outcome, String> {
    let out = match name {
        "churn-100k" | "queue-20k" => {
            let spec = if name == "churn-100k" {
                churn::CHURN_100K
            } else {
                churn::QUEUE_20K
            };
            churn::run(if toy { spec.toy() } else { spec }, seed, seconds, trace)?
        }
        "paper-fig5a" => {
            let spec = figure::paper_fig5a();
            figure::run(if toy { spec.toy() } else { spec }, seed, seconds, trace)?
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(out)
}

/// The metrics the result line carries, in registry order: the
/// end-to-end set must be complete, finite and non-zero; per-layer
/// metrics a workload does not measure read 0.
pub fn result_metrics(out: &Outcome, trace: bool) -> Result<Vec<Metric>, String> {
    let registry: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in registry {
        let value = match (out.get(name), trace) {
            (Some(v), _) => v,
            (None, true) => 0.0,
            (None, false) => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() || (!trace && value <= 0.0) {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(Metric { name, unit, value });
    }
    Ok(metrics)
}

pub fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    // No workload operation can fail without aborting the run, so
    // `failed` is always 0; Rayleigh failures are `failed_share`.
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
        out.violations.is_empty(),
        out.attempted.max(1),
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = run_workload(&args.workload, args.seed, args.seconds, args.trace, false)
        .and_then(|out| result_metrics(&out, args.trace).map(|m| (out, m)));
    let (out, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for line in &out.notes {
        println!("{line}");
    }
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("digest {:016x}", out.digest);
    for v in &out.violations {
        println!("check FAILED: {v}");
    }
    println!("{}", result_line(&out, &metrics));
    if !out.violations.is_empty() {
        std::process::exit(1);
    }
}

/// Serializes the tests that run workloads: the library's counters are
/// process-global and the static probe sets the rayon width.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(name: &str, trace: bool) -> Outcome {
        run_workload(name, 0, 0.2, trace, true).unwrap()
    }

    #[test]
    fn every_workload_emits_every_metric_at_toy_size() {
        let _serial = serial();
        for name in WORKLOADS {
            for trace in [false, true] {
                let out = toy(name, trace);
                assert!(out.violations.is_empty(), "{name}: {:?}", out.violations);
                assert!(out.attempted >= 1);
                let metrics = result_metrics(&out, trace).unwrap_or_else(|e| panic!("{name}: {e}"));
                let registry: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                assert_eq!(metrics.len(), registry.len());
                for (m, &(name, unit)) in metrics.iter().zip(registry) {
                    assert_eq!((m.name, m.unit), (name, unit));
                    assert!(m.value.is_finite());
                }
                let line = result_line(&out, &metrics);
                assert!(line.starts_with("{\"correct\": true"), "{line}");
            }
        }
    }

    #[test]
    fn outputs_repeat_for_a_seed_and_move_with_it() {
        let _serial = serial();
        for name in WORKLOADS {
            let a = run_workload(name, 3, 0.05, false, true).unwrap().digest;
            let b = run_workload(name, 3, 0.05, false, true).unwrap().digest;
            let c = run_workload(name, 4, 0.05, false, true).unwrap().digest;
            assert!(
                checks::repeatable(name, a, b).is_ok(),
                "{name}: {a:x} {b:x}"
            );
            assert!(
                checks::repeatable(name, a, c).is_err(),
                "{name}: seed ignored"
            );
        }
    }

    #[test]
    fn churn_layers_cover_the_step() {
        let _serial = serial();
        for name in ["churn-100k", "queue-20k"] {
            let out = toy(name, true);
            let coverage = out.get("coverage").unwrap();
            assert!(
                coverage > 0.5 && coverage <= 1.0,
                "{name}: coverage {coverage}"
            );
        }
    }

    #[test]
    fn a_failed_check_marks_the_result_incorrect() {
        let _serial = serial();
        let mut out = toy("queue-20k", false);
        out.check(checks::conservation(1, 0, 0, 0));
        let metrics = result_metrics(&out, false).unwrap();
        assert!(result_line(&out, &metrics).starts_with("{\"correct\": false"));
    }

    /// The registries and `BENCHMARK.json` name the same workloads and
    /// metrics with the same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(
                json.contains(&entry),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let _serial = serial();
        let mut out = toy("queue-20k", false);
        out.metrics.retain(|m| m.name != "op_ms.p90");
        assert!(result_metrics(&out, false).is_err());
    }
}
