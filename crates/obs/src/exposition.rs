//! Prometheus text-format exposition for [`MetricsSnapshot`].
//!
//! [`render_prometheus`] renders the registry snapshot in the
//! Prometheus text exposition format (version 0.0.4): counters and
//! gauges as single samples, histograms as cumulative `_bucket{le=…}`
//! series plus `_sum`/`_count`. Dotted metric names are sanitized to
//! the `[a-zA-Z_][a-zA-Z0-9_]*` charset (`core.rle.picks` →
//! `core_rle_picks`). Output is deterministic: metrics render in
//! `BTreeMap` order and floats in shortest-round-trip form.
//!
//! This is a renderer, not a server — the CLI writes the text to a
//! file (`--prom-out`) for a node-exporter-style textfile collector,
//! and tests scrape the string directly.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write;

/// Sanitizes a dotted metric name into the Prometheus charset.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        let ok = ok && !(i == 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Formats an `f64` the way Prometheus expects (`+Inf`-style handled
/// by the caller; plain values use shortest round-trip form).
fn prom_f64(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        // Keep integral values readable ("12" not "12.0" is invalid
        // in some scrapers; Prometheus accepts both, choose "12").
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (bound, count) in h.bounds.iter().zip(&h.counts) {
        cumulative += count;
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cumulative}",
            prom_f64(*bound)
        );
    }
    cumulative += h.overflow;
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(out, "{name}_sum {}", prom_f64(h.sum));
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Renders `snap` in the Prometheus text exposition format.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let name = prom_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snap.gauges {
        let name = prom_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", prom_f64(*value));
    }
    for (name, h) in &snap.histograms {
        render_histogram(&mut out, &prom_name(name), h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn sanitizes_dotted_names() {
        assert_eq!(prom_name("core.rle.picks"), "core_rle_picks");
        assert_eq!(prom_name("span.sim.churn.slot"), "span_sim_churn_slot");
        assert_eq!(prom_name("7seas"), "_seas");
        assert_eq!(prom_name("a-b/c"), "a_b_c");
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        let mut snap = MetricsSnapshot::empty();
        snap.counters.insert("core.rle.picks".into(), 96);
        snap.gauges.insert("sim.churn.backlog".into(), 12.5);
        snap.histograms.insert(
            "span.sim.churn.slot.commit".into(),
            HistogramSnapshot {
                bounds: vec![10.0, 100.0],
                counts: vec![3, 2],
                overflow: 1,
                count: 6,
                sum: 250.0,
                p50: None,
                p95: None,
                p99: None,
            },
        );
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE core_rle_picks counter\ncore_rle_picks 96\n"));
        assert!(text.contains("# TYPE sim_churn_backlog gauge\nsim_churn_backlog 12.5\n"));
        assert!(text.contains("# TYPE span_sim_churn_slot_commit histogram"));
        // Buckets are cumulative and end with +Inf == count.
        assert!(text.contains("span_sim_churn_slot_commit_bucket{le=\"10\"} 3"));
        assert!(text.contains("span_sim_churn_slot_commit_bucket{le=\"100\"} 5"));
        assert!(text.contains("span_sim_churn_slot_commit_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("span_sim_churn_slot_commit_sum 250"));
        assert!(text.contains("span_sim_churn_slot_commit_count 6"));
    }

    #[test]
    fn output_is_deterministic_and_sorted() {
        let mut snap = MetricsSnapshot::empty();
        snap.counters.insert("b.two".into(), 2);
        snap.counters.insert("a.one".into(), 1);
        let text = render_prometheus(&snap);
        let a = text.find("a_one").unwrap();
        let b = text.find("b_two").unwrap();
        assert!(a < b);
        assert_eq!(text, render_prometheus(&snap));
    }

    #[test]
    fn empty_snapshot_renders_empty_string() {
        assert_eq!(render_prometheus(&MetricsSnapshot::empty()), "");
        let _ = BTreeMap::<String, u64>::new(); // silence unused import on older toolchains
    }
}
