//! Per-run manifests: one JSON document summarizing a run.
//!
//! A [`RunManifest`] records what was run (name, config, seed), in
//! which build (git describe, profile), how long it took, and what the
//! observability layer saw (metric snapshot, span tree). Figure
//! binaries and the CLI write one per run when `--metrics-out` is
//! given, so results stay auditable after the fact.

use crate::metrics::MetricsSnapshot;
use crate::span::SpanNode;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The schema version written into every manifest, bumped on
/// incompatible changes (see `docs/observability.md`).
/// Version 2 added `artifacts`; version 3 added derived p50/p95/p99
/// quantiles to every histogram snapshot. Only the current version
/// deserializes: older manifests lack fields the reader requires.
pub const MANIFEST_VERSION: u64 = 3;

/// A file the run produced, pinned by content hash so results and
/// their traces stay linkable after the fact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Artifact {
    /// What the file is: `"trace"`, `"schedule"`, `"csv"`, ….
    pub kind: String,
    /// Where it was written.
    pub path: String,
    /// SHA-256 of the file contents (hex), or `"unavailable"` if the
    /// file could not be read back at manifest time.
    pub sha256: String,
}

/// A complete description of one finished run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u64,
    /// Run name (figure binary or CLI subcommand).
    pub name: String,
    /// `git describe --always --dirty` at run time, or "unknown".
    pub git_describe: String,
    /// "release" or "debug".
    pub build_profile: String,
    /// The run's base RNG seed.
    pub seed: u64,
    /// Flat key/value configuration (flags, sweep parameters).
    pub config: BTreeMap<String, String>,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_time_ms: u64,
    /// Merged metric registry state at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Hierarchical span timings, folded from the `span.*` histograms
    /// in `metrics`.
    pub spans: Vec<SpanNode>,
    /// Files the run produced (decision traces, schedules), with
    /// content hashes.
    pub artifacts: Vec<Artifact>,
}

impl RunManifest {
    /// Pretty-printed JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Writes the JSON form to `path`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("cannot write manifest {}: {e}", path.display()))
    }
}

/// Accumulates run context, then captures the observability state.
pub struct ManifestBuilder {
    name: String,
    seed: u64,
    config: BTreeMap<String, String>,
    artifacts: Vec<Artifact>,
    start: Instant,
}

impl ManifestBuilder {
    /// Starts the run clock now.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            seed: 0,
            config: BTreeMap::new(),
            artifacts: Vec::new(),
            start: Instant::now(),
        }
    }

    /// Backdates the run clock (e.g. to process start).
    pub fn started_at(mut self, start: Instant) -> Self {
        self.start = start;
        self
    }

    /// Records the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records one configuration key/value pair.
    pub fn config_kv(mut self, key: &str, value: impl ToString) -> Self {
        self.config.insert(key.to_string(), value.to_string());
        self
    }

    /// Records a produced file, hashing its current contents.
    pub fn artifact(mut self, kind: &str, path: &Path) -> Self {
        let sha256 = std::fs::read(path)
            .map(|bytes| crate::hash::sha256_hex(&bytes))
            .unwrap_or_else(|_| "unavailable".to_string());
        self.artifacts.push(Artifact {
            kind: kind.to_string(),
            path: path.display().to_string(),
            sha256,
        });
        self
    }

    /// Stops the clock and snapshots metrics, spans, git, and profile.
    pub fn finish(self) -> RunManifest {
        let metrics = crate::metrics::snapshot();
        RunManifest {
            version: MANIFEST_VERSION,
            name: self.name,
            git_describe: git_describe(),
            build_profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            seed: self.seed,
            config: self.config,
            wall_time_ms: self.start.elapsed().as_millis() as u64,
            spans: crate::span::span_tree(&metrics.histograms),
            metrics,
            artifacts: self.artifacts,
        }
    }
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    /// A fully deterministic manifest (no clocks, no git) used by the
    /// golden-file test.
    pub(super) fn fixture() -> RunManifest {
        let mut counters = BTreeMap::new();
        counters.insert("core.rle.eliminations".to_string(), 96u64);
        counters.insert("sim.mc.trials".to_string(), 10_000u64);
        let mut gauges = BTreeMap::new();
        gauges.insert("sim.runner.threads".to_string(), 1.0);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "core.sparse.in_degree".to_string(),
            // 4 observations, 1 in overflow: p50 lands in bucket 100,
            // p95/p99 in overflow (no finite bound -> None).
            HistogramSnapshot::from_buckets(vec![10.0, 100.0, 1000.0], vec![1, 2, 0], 1, 4, 1234.5),
        );
        let mut config = BTreeMap::new();
        config.insert("alpha".to_string(), "3".to_string());
        config.insert("quick".to_string(), "false".to_string());
        RunManifest {
            version: MANIFEST_VERSION,
            name: "fig5a".to_string(),
            git_describe: "deadbee".to_string(),
            build_profile: "release".to_string(),
            seed: 2017,
            config,
            wall_time_ms: 41_250,
            metrics: MetricsSnapshot {
                counters,
                gauges,
                histograms,
            },
            spans: vec![SpanNode {
                name: "scheduler".to_string(),
                calls: 48,
                total_ns: 1_200_000,
                children: vec![SpanNode {
                    name: "partition".to_string(),
                    calls: 48,
                    total_ns: 900_000,
                    children: vec![],
                }],
            }],
            artifacts: vec![Artifact {
                kind: "trace".to_string(),
                path: "results/fig5a_trace.jsonl".to_string(),
                sha256: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
                    .to_string(),
            }],
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = fixture();
        let json = m.to_json();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_matches_golden_file() {
        // The golden file pins the on-disk schema; regenerate it
        // deliberately (and bump MANIFEST_VERSION) on schema changes
        // with `OBS_REGEN_GOLDEN=1 cargo test -p fading-obs golden`.
        if std::env::var_os("OBS_REGEN_GOLDEN").is_some() {
            std::fs::write(
                concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_manifest.json"),
                fixture().to_json(),
            )
            .unwrap();
        }
        let golden = include_str!("../tests/golden_manifest.json");
        let parsed: RunManifest = serde_json::from_str(golden).unwrap();
        assert_eq!(parsed, fixture());
        assert_eq!(fixture().to_json().trim(), golden.trim());
    }

    #[test]
    fn builder_records_and_hashes_artifacts() {
        let path = std::env::temp_dir().join("fading_obs_artifact_test.jsonl");
        std::fs::write(&path, b"abc").unwrap();
        let m = ManifestBuilder::new("unit")
            .artifact("trace", &path)
            .artifact("missing", Path::new("/nonexistent/file"))
            .finish();
        assert_eq!(m.artifacts.len(), 2);
        assert_eq!(m.artifacts[0].kind, "trace");
        assert_eq!(
            m.artifacts[0].sha256,
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(m.artifacts[1].sha256, "unavailable");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn builder_captures_context_and_live_state() {
        crate::counter("obs.test.manifest_counter").add(7);
        let m = ManifestBuilder::new("unit")
            .seed(42)
            .config_kv("trials", 1000)
            .finish();
        assert_eq!(m.version, MANIFEST_VERSION);
        assert_eq!(m.name, "unit");
        assert_eq!(m.seed, 42);
        assert_eq!(m.config["trials"], "1000");
        assert!(m.metrics.counters["obs.test.manifest_counter"] >= 7);
        assert!(m.build_profile == "debug" || m.build_profile == "release");
        assert!(!m.git_describe.is_empty());
    }

    #[test]
    fn write_creates_parseable_json() {
        let path = std::env::temp_dir().join("fading_obs_manifest_test.json");
        fixture().write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: RunManifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, fixture());
        let _ = std::fs::remove_file(&path);
    }
}
