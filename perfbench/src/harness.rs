//! Metric records, summary statistics, the output digest and the
//! process high-water mark: the pieces every workload shares.

use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one workload run produced: its metrics, the operation counts
/// for the result line, the correctness verdict and the output digest.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Timed operations (slots or figures).
    pub attempted: u64,
    /// Failed correctness checks, one message each.
    pub violations: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Digest of the seeded integer outputs.
    pub digest: u64,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records the result of a correctness check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.violations.push(e);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Current value of a library counter.
pub fn counter(name: &str) -> u64 {
    fading_obs::counter(name).value()
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `t`.
pub fn millis(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Operations a timed loop runs: `seconds` worth at the workload's
/// nominal rate, at least `min_ops`. A fixed count keeps the work a run
/// measures the same whatever the host's speed; the nominal rates are
/// set a little above the measured ones on a 2-vCPU host, so a run's
/// timed loop lasts `seconds` or somewhat more.
pub fn planned_ops(seconds: f64, nominal_per_s: f64, min_ops: u64) -> u64 {
    ((seconds * nominal_per_s).round() as u64).max(min_ops)
}

/// Whether a timed loop may start another operation: never past four
/// times `seconds`, so a stalled host still exits.
pub fn in_time(started: Instant, seconds: f64) -> bool {
    secs(started) < 4.0 * seconds
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation
/// between order statistics. `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Ratio that reads 0 instead of `NaN` when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// FNV-1a over 64-bit words: a digest of the seeded integer outputs
/// (schedules, slot series, figure tables) that must repeat exactly
/// across runs of one commit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn words<I: IntoIterator<Item = u64>>(&mut self, ws: I) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.words([1, 2]);
        let mut b = Digest::default();
        b.words([2, 1]);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
