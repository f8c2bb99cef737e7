//! Result rows, text tables, CSV, and JSON output.

use crate::monte_carlo::MonteCarloStats;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One (sweep value, algorithm) measurement, aggregated over instances
/// and trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultRow {
    /// Name of the swept parameter (`"N"` or `"alpha"`).
    pub x_label: String,
    /// Value of the swept parameter.
    pub x: f64,
    /// Algorithm name.
    pub algorithm: String,
    /// Mean number of scheduled links per instance.
    pub scheduled_mean: f64,
    /// Mean scheduled rate per instance.
    pub scheduled_rate_mean: f64,
    /// Mean failed transmissions per slot (across instances × trials).
    pub failed_mean: f64,
    /// 95% CI half-width of the failed mean.
    pub failed_ci95: f64,
    /// Mean delivered rate per slot.
    pub throughput_mean: f64,
    /// 95% CI half-width of the throughput mean.
    pub throughput_ci95: f64,
    /// Mean exact Rayleigh expected failures per slot
    /// ([`MonteCarloStats::failed_exact`]).
    pub failed_exact_mean: f64,
    /// Mean exact Rayleigh expected delivered rate per slot
    /// ([`MonteCarloStats::throughput_exact`]).
    pub throughput_exact_mean: f64,
    /// Instances aggregated.
    pub instances: usize,
    /// Trials per instance.
    pub trials: u64,
}

impl ResultRow {
    /// Mean per-link failure probability: `failed_mean / scheduled_mean`
    /// (0 when nothing was scheduled). Fig. 5(b)'s "failures shrink
    /// with α" claim is monotone in this rate; the absolute count is
    /// confounded by the α-dependent schedule size (see EXPERIMENTS.md).
    pub fn per_link_failure_rate(&self) -> f64 {
        if self.scheduled_mean == 0.0 {
            0.0
        } else {
            self.failed_mean / self.scheduled_mean
        }
    }
}

/// A collection of rows with rendering helpers.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResultTable {
    /// The measurements.
    pub rows: Vec<ResultRow>,
}

impl ResultTable {
    /// Wraps rows in a table.
    pub fn new(rows: Vec<ResultRow>) -> Self {
        Self { rows }
    }

    /// Rows for one algorithm, in sweep order.
    pub fn series(&self, algorithm: &str) -> Vec<&ResultRow> {
        self.rows
            .iter()
            .filter(|r| r.algorithm == algorithm)
            .collect()
    }

    /// The distinct algorithm names, in first-appearance order.
    pub fn algorithms(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !names.contains(&r.algorithm.as_str()) {
                names.push(&r.algorithm);
            }
        }
        names
    }

    /// Renders an aligned text table (one line per row).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:<18} {:>10} {:>12} {:>14} {:>12} {:>14} {:>14}",
            "x_label",
            "x",
            "algorithm",
            "scheduled",
            "failed/slot",
            "±95%",
            "exact",
            "throughput",
            "exact"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>8} {:>8.3} {:<18} {:>10.2} {:>12.4} {:>14.4} {:>12.4} {:>14.3} {:>14.3}",
                r.x_label,
                r.x,
                r.algorithm,
                r.scheduled_mean,
                r.failed_mean,
                r.failed_ci95,
                r.failed_exact_mean,
                r.throughput_mean,
                r.throughput_exact_mean
            );
        }
        out
    }

    /// Renders CSV with a header line.
    pub fn render_csv(&self) -> String {
        let mut out = String::from(
            "x_label,x,algorithm,scheduled_mean,scheduled_rate_mean,failed_mean,failed_ci95,failed_exact_mean,throughput_mean,throughput_ci95,throughput_exact_mean,instances,trials\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                r.x_label,
                r.x,
                r.algorithm,
                r.scheduled_mean,
                r.scheduled_rate_mean,
                r.failed_mean,
                r.failed_ci95,
                r.failed_exact_mean,
                r.throughput_mean,
                r.throughput_ci95,
                r.throughput_exact_mean,
                r.instances,
                r.trials
            );
        }
        out
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ResultTable serialization cannot fail")
    }
}

/// Builds a row from per-instance Monte-Carlo stats.
pub fn aggregate_row(
    x_label: &str,
    x: f64,
    algorithm: &str,
    per_instance: &[MonteCarloStats],
) -> ResultRow {
    assert!(!per_instance.is_empty(), "need at least one instance");
    let n = per_instance.len() as f64;
    // Means of means (each instance weighs equally, as in the paper's
    // per-point averages); CI via the pooled per-instance CI widths.
    let mean = |f: &dyn Fn(&MonteCarloStats) -> f64| -> f64 {
        per_instance.iter().map(f).sum::<f64>() / n
    };
    // Conservative pooled CI: RMS of instance CIs scaled by 1/√instances.
    let pooled = |f: &dyn Fn(&MonteCarloStats) -> f64| -> f64 {
        (per_instance.iter().map(|s| f(s).powi(2)).sum::<f64>() / n).sqrt() / n.sqrt()
    };
    ResultRow {
        x_label: x_label.to_string(),
        x,
        algorithm: algorithm.to_string(),
        scheduled_mean: mean(&|s| s.scheduled as f64),
        scheduled_rate_mean: mean(&|s| s.scheduled_rate),
        failed_mean: mean(&|s| s.failed.mean),
        failed_ci95: pooled(&|s| s.failed.ci95),
        throughput_mean: mean(&|s| s.throughput.mean),
        throughput_ci95: pooled(&|s| s.throughput.ci95),
        failed_exact_mean: mean(&|s| s.failed_exact),
        throughput_exact_mean: mean(&|s| s.throughput_exact),
        instances: per_instance.len(),
        trials: per_instance.first().map_or(0, |s| s.failed.count),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fading_math::Summary;

    fn stats(scheduled: usize, failed_mean: f64, throughput_mean: f64) -> MonteCarloStats {
        let s = |mean: f64| Summary {
            count: 100,
            mean,
            std_dev: 0.1,
            ci95: 0.02,
            min: 0.0,
            max: mean * 2.0,
        };
        MonteCarloStats {
            scheduled,
            scheduled_rate: scheduled as f64,
            failed: s(failed_mean),
            throughput: s(throughput_mean),
            failed_exact: failed_mean,
            throughput_exact: throughput_mean,
        }
    }

    #[test]
    fn aggregate_averages_across_instances() {
        let row = aggregate_row(
            "N",
            100.0,
            "RLE",
            &[stats(10, 0.2, 9.8), stats(20, 0.4, 19.6)],
        );
        assert_eq!(row.scheduled_mean, 15.0);
        assert!((row.failed_mean - 0.3).abs() < 1e-12);
        assert!((row.throughput_mean - 14.7).abs() < 1e-12);
        assert_eq!(row.instances, 2);
        assert_eq!(row.trials, 100);
    }

    #[test]
    fn table_series_filters_by_algorithm() {
        let rows = vec![
            aggregate_row("N", 100.0, "RLE", &[stats(10, 0.1, 9.9)]),
            aggregate_row("N", 100.0, "LDP", &[stats(5, 0.0, 5.0)]),
            aggregate_row("N", 200.0, "RLE", &[stats(12, 0.1, 11.9)]),
        ];
        let t = ResultTable::new(rows);
        assert_eq!(t.series("RLE").len(), 2);
        assert_eq!(t.series("LDP").len(), 1);
        assert_eq!(t.algorithms(), vec!["RLE", "LDP"]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let t = ResultTable::new(vec![aggregate_row("N", 1.0, "X", &[stats(1, 0.0, 1.0)])]);
        let csv = t.render_csv();
        assert!(csv.starts_with("x_label,"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn text_render_is_aligned_per_row() {
        let t = ResultTable::new(vec![aggregate_row("N", 1.0, "X", &[stats(1, 0.0, 1.0)])]);
        let text = t.render_text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("algorithm"));
    }

    #[test]
    fn json_roundtrip() {
        let t = ResultTable::new(vec![aggregate_row("a", 2.5, "Y", &[stats(3, 0.5, 2.5)])]);
        let back: ResultTable = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn aggregate_rejects_empty() {
        aggregate_row("N", 1.0, "X", &[]);
    }
}
