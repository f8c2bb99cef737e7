//! RAII wall-clock spans, recorded into the metrics registry.
//!
//! [`Span::enter`] appends a name to a thread-local dotted path and
//! starts a timer; dropping the guard (or [`Span::close`], which also
//! returns the measurement) records the elapsed nanoseconds into the
//! histogram `span.<path>` of the [`crate::metrics`] registry and
//! truncates the path back. Every span histogram shares the decade
//! bounds [`SPAN_BOUNDS`], so `--metrics-out` and `--prom-out` carry
//! each span's count, sum and p50/p99 like any other histogram.
//! [`span_snapshot`] folds those histograms into a hierarchical
//! [`SpanNode`] tree.
//!
//! The `span.` name prefix is reserved: register no other metric under
//! it. [`crate::reset_metrics`] zeroes spans along with everything
//! else; zeroed paths drop out of the tree.
//!
//! Spans opened on `rayon` worker threads start their own root (the
//! path is per-thread), which is the honest reading: a worker's time
//! is not lexically inside the caller's frame.
//!
//! # Allocation discipline
//!
//! Spans sit on the per-`schedule()` hot path of the zero-allocation
//! engine (`docs/engine.md`), so the warm path must not touch the heap:
//! the thread-local path is one reused `String` (names are appended in
//! place and truncated on drop) that already carries the `span.`
//! prefix, so the histogram is looked up by the borrowed path. The only
//! allocations are one-time: growing the path string past its
//! high-water mark and registering a path's histogram.

use crate::metrics::HistogramSnapshot;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name prefix of the span histograms in the metrics registry.
pub const SPAN_PREFIX: &str = "span.";

/// Nanosecond bucket bounds shared by every span histogram: decades
/// from 1 µs to 100 s.
pub const SPAN_BOUNDS: [f64; 9] = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11];

thread_local! {
    /// `span.` plus the dotted path of the spans currently open on
    /// this thread, e.g. `"span.sweep.scheduler.core.rle.schedule"`;
    /// empty while none is open. Reused across spans so steady-state
    /// enter/drop never allocates.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// An open timing span; created by [`Span::enter`] or the
/// [`crate::span!`] macro, recorded on drop or [`Span::close`].
pub struct Span {
    start: Instant,
    /// Path length before this span's segment was appended; closing
    /// truncates back to it.
    trunc: usize,
}

impl Span {
    /// Opens a span named `name` nested under the spans currently open
    /// on this thread. Guards must be dropped in reverse open order
    /// (the natural RAII scoping); bind the result to a local.
    pub fn enter(name: &str) -> Self {
        let trunc = PATH.with(|p| {
            let mut path = p.borrow_mut();
            let trunc = path.len();
            path.push_str(if trunc == 0 { SPAN_PREFIX } else { "." });
            path.push_str(name);
            trunc
        });
        Self {
            start: Instant::now(),
            trunc,
        }
    }

    /// Closes the span like a drop does, and returns the nanoseconds
    /// it recorded.
    pub fn close(self) -> u64 {
        let ns = self.record(Instant::now());
        std::mem::forget(self);
        ns
    }

    /// Closes the span and opens its sibling `name` at the same
    /// instant; returns the nanoseconds this span recorded and the
    /// sibling. Back-to-back phases handed off this way tile their
    /// parent: the cost of recording falls inside the sibling instead
    /// of between the two.
    pub fn handoff(self, name: &str) -> (u64, Span) {
        let now = Instant::now();
        let ns = self.record(now);
        std::mem::forget(self);
        let mut sibling = Span::enter(name);
        sibling.start = now;
        (ns, sibling)
    }

    fn record(&self, end: Instant) -> u64 {
        let ns = (end - self.start).as_nanos() as u64;
        PATH.with(|p| {
            let mut path = p.borrow_mut();
            crate::metrics::record_span(&path, ns);
            path.truncate(self.trunc);
        });
        ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record(Instant::now());
    }
}

/// One node of the reported timing tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Last path segment (span name).
    pub name: String,
    /// Number of completed spans at exactly this path. Zero for
    /// intermediate nodes that only exist as parents.
    pub calls: u64,
    /// Total wall time at exactly this path, in nanoseconds
    /// (children's time is included — the parent's clock was running).
    pub total_ns: u64,
    /// Child spans, sorted by name.
    pub children: Vec<SpanNode>,
}

fn insert(nodes: &mut Vec<SpanNode>, segments: &[&str], calls: u64, total_ns: u64) {
    let Some((&head, rest)) = segments.split_first() else {
        return;
    };
    let node = match nodes.iter().position(|n| n.name == head) {
        Some(i) => &mut nodes[i],
        None => {
            nodes.push(SpanNode {
                name: head.to_string(),
                calls: 0,
                total_ns: 0,
                children: Vec::new(),
            });
            nodes.last_mut().unwrap()
        }
    };
    if rest.is_empty() {
        node.calls += calls;
        node.total_ns += total_ns;
    } else {
        insert(&mut node.children, rest, calls, total_ns);
    }
}

/// The span tree of the `span.*` histograms in `histograms` (a
/// [`crate::MetricsSnapshot`]'s map). Sibling order follows the sorted
/// dotted paths, so the output is deterministic.
pub(crate) fn span_tree(histograms: &BTreeMap<String, HistogramSnapshot>) -> Vec<SpanNode> {
    let mut roots = Vec::new();
    for (name, h) in histograms {
        let Some(path) = name.strip_prefix(SPAN_PREFIX) else {
            continue;
        };
        if h.count > 0 {
            let segments: Vec<&str> = path.split('.').collect();
            insert(&mut roots, &segments, h.count, h.sum as u64);
        }
    }
    roots
}

/// The completed-span tree so far.
pub fn span_snapshot() -> Vec<SpanNode> {
    span_tree(&crate::metrics::snapshot().histograms)
}

/// Looks up a node by dotted path in a snapshot (helper for tests and
/// acceptance checks).
pub fn find<'a>(nodes: &'a [SpanNode], path: &str) -> Option<&'a SpanNode> {
    let (head, rest) = match path.split_once('.') {
        Some((h, r)) => (h, Some(r)),
        None => (path, None),
    };
    let node = nodes.iter().find(|n| n.name == head)?;
    match rest {
        None => Some(node),
        Some(r) => find(&node.children, r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_a_tree() {
        {
            let _outer = Span::enter("obs_test_outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = Span::enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _inner2 = Span::enter("inner2");
        }
        let snap = span_snapshot();
        let outer = find(&snap, "obs_test_outer").expect("outer recorded");
        assert_eq!(outer.calls, 1);
        let inner = find(&snap, "obs_test_outer.inner").expect("inner nested");
        assert_eq!(inner.calls, 1);
        assert!(inner.total_ns > 0);
        assert!(
            outer.total_ns >= inner.total_ns,
            "parent includes child time"
        );
        assert!(find(&snap, "obs_test_outer.inner2").is_some());
        assert!(find(&snap, "inner").is_none(), "inner is not a root");
    }

    #[test]
    fn dotted_names_create_levels() {
        {
            let _s = Span::enter("obs_test_ldp.partition");
        }
        let snap = span_snapshot();
        let leaf = find(&snap, "obs_test_ldp.partition").expect("leaf");
        assert_eq!(leaf.calls, 1);
        let parent = find(&snap, "obs_test_ldp").expect("intermediate");
        assert_eq!(parent.calls, 0, "purely structural node");
    }

    #[test]
    fn repeated_spans_accumulate_calls() {
        for _ in 0..5 {
            let _s = Span::enter("obs_test_repeat");
        }
        let snap = span_snapshot();
        assert!(find(&snap, "obs_test_repeat").unwrap().calls >= 5);
    }

    #[test]
    fn path_restores_after_nested_drops() {
        // The thread-local path must come back to its pre-enter state
        // even through interleaved sibling spans.
        {
            let _a = Span::enter("obs_test_restore");
            {
                let _b = Span::enter("child");
            }
            {
                let _c = Span::enter("child2");
            }
        }
        let before = PATH.with(|p| p.borrow().clone());
        {
            let _d = Span::enter("obs_test_restore2");
        }
        let after = PATH.with(|p| p.borrow().clone());
        assert_eq!(before, after, "path not restored");
        let snap = span_snapshot();
        assert!(find(&snap, "obs_test_restore.child2").is_some());
    }

    #[test]
    fn spans_are_histograms_in_the_registry_and_the_exposition() {
        // Unique names: the registry is process-global and shared with
        // the other tests of this binary.
        let mut outer_ns = 0;
        let mut inner_ns = 0;
        for _ in 0..3 {
            let outer = Span::enter("obs_test_hist");
            let (ns, inner) = Span::enter("inner").handoff("inner");
            inner_ns += ns + inner.close();
            outer_ns += outer.close();
        }
        let snap = crate::metrics::snapshot();
        let outer = &snap.histograms["span.obs_test_hist"];
        let inner = &snap.histograms["span.obs_test_hist.inner"];
        assert_eq!((outer.count, outer.sum as u64), (3, outer_ns));
        assert_eq!((inner.count, inner.sum as u64), (6, inner_ns));
        assert_eq!(inner.bounds, SPAN_BOUNDS);
        assert!(inner.p50.is_some() && inner.p99.is_some());

        let tree = span_tree(&snap.histograms);
        let node = find(&tree, "obs_test_hist").unwrap();
        assert_eq!((node.calls, node.total_ns), (3, outer_ns));
        let node = find(&tree, "obs_test_hist.inner").unwrap();
        assert_eq!((node.calls, node.total_ns), (6, inner_ns));

        let text = crate::render_prometheus(&snap);
        assert!(text.contains("# TYPE span_obs_test_hist_inner histogram"));
        assert!(text.contains("span_obs_test_hist_inner_bucket{le=\"1000\"}"));
        assert!(text.contains("span_obs_test_hist_inner_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains(&format!("span_obs_test_hist_inner_sum {inner_ns}")));
        assert!(text.contains("span_obs_test_hist_inner_count 6"));
    }
}
