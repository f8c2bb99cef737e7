//! The global metric registry: counters, gauges, and histograms.
//!
//! Counters and histograms shard their state across
//! [`SHARDS`] cache-line-padded atomics. Each thread is assigned a
//! shard by a thread-local sequential id, so concurrent increments
//! from different `rayon` workers land on different cache lines and a
//! hot-loop increment costs one relaxed `fetch_add`. [`snapshot`]
//! merges the shards into plain serializable maps.

use crate::span::SPAN_BOUNDS;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of per-metric shards; a power of two ≥ typical core counts.
pub const SHARDS: usize = 16;

/// A `u64` on its own cache line, so shards never false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    fn zero() -> Self {
        Self(AtomicU64::new(0))
    }
}

/// The calling thread's shard index (stable for the thread's lifetime).
fn shard_index() -> usize {
    static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Lock-free f64 accumulation into an atomic bit pattern.
fn add_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

struct CounterCell {
    shards: [PaddedU64; SHARDS],
}

impl CounterCell {
    fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| PaddedU64::zero()),
        }
    }

    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A monotonically increasing counter handle (cheap to clone).
#[derive(Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// Adds `n`; one relaxed atomic op on the caller's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current merged total.
    pub fn value(&self) -> u64 {
        self.0.sum()
    }
}

/// A last-write-wins `f64` gauge handle.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The last stored value (0.0 if never set).
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramShard {
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

struct HistogramCell {
    /// Finite bucket upper bounds, strictly increasing. A value `v`
    /// falls into the first bucket with `v <= bound` ("less-or-equal"
    /// semantics); values above the last bound count as overflow.
    bounds: Vec<f64>,
    shards: Vec<HistogramShard>,
}

impl HistogramCell {
    fn new(bounds: Vec<f64>) -> Self {
        let shards = (0..SHARDS)
            .map(|_| HistogramShard {
                buckets: (0..bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                overflow: AtomicU64::new(0),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0),
            })
            .collect();
        Self { bounds, shards }
    }

    fn record(&self, v: f64) {
        let shard = &self.shards[shard_index()];
        let idx = self.bounds.partition_point(|&b| v > b);
        if idx < self.bounds.len() {
            shard.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            shard.overflow.fetch_add(1, Ordering::Relaxed);
        }
        shard.count.fetch_add(1, Ordering::Relaxed);
        add_f64(&shard.sum_bits, v);
    }

    fn reset(&self) {
        for s in &self.shards {
            for b in &s.buckets {
                b.store(0, Ordering::Relaxed);
            }
            s.overflow.store(0, Ordering::Relaxed);
            s.count.store(0, Ordering::Relaxed);
            s.sum_bits.store(0, Ordering::Relaxed);
        }
    }
}

/// A fixed-bucket histogram handle.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Records one observation.
    pub fn record(&self, v: f64) {
        self.0.record(v);
    }

    /// The merged current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cell = &*self.0;
        let mut counts = vec![0u64; cell.bounds.len()];
        let mut overflow = 0u64;
        let mut count = 0u64;
        let mut sum = 0.0f64;
        for s in &cell.shards {
            for (acc, b) in counts.iter_mut().zip(&s.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
            overflow += s.overflow.load(Ordering::Relaxed);
            count += s.count.load(Ordering::Relaxed);
            sum += f64::from_bits(s.sum_bits.load(Ordering::Relaxed));
        }
        HistogramSnapshot::from_buckets(cell.bounds.clone(), counts, overflow, count, sum)
    }
}

/// Serializable state of one histogram, including derived p50/p95/p99
/// quantiles. Quantiles are exact with respect to the bucketed data:
/// the q-quantile is the smallest bucket upper bound whose cumulative
/// count reaches `ceil(q × count)`, or `None` when the histogram is
/// empty or the rank falls into the unbounded overflow bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (finite, increasing).
    pub bounds: Vec<f64>,
    /// Observations per bucket (`v <= bounds[i]`, first match).
    pub counts: Vec<u64>,
    /// Observations above the last bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Derived median (see [`HistogramSnapshot::quantile`]).
    pub p50: Option<f64>,
    /// Derived 95th percentile.
    pub p95: Option<f64>,
    /// Derived 99th percentile.
    pub p99: Option<f64>,
}

impl HistogramSnapshot {
    /// Builds a snapshot from raw bucket state, filling the derived
    /// quantile fields.
    pub fn from_buckets(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        overflow: u64,
        count: u64,
        sum: f64,
    ) -> Self {
        let mut s = Self {
            bounds,
            counts,
            overflow,
            count,
            sum,
            p50: None,
            p95: None,
            p99: None,
        };
        s.p50 = s.quantile(0.50);
        s.p95 = s.quantile(0.95);
        s.p99 = s.quantile(0.99);
        s
    }

    /// The q-quantile (`0 < q <= 1`) of the bucketed distribution: the
    /// smallest bucket upper bound whose cumulative count reaches
    /// `ceil(q × count)`. Returns `None` for an empty histogram, a
    /// `q` outside `(0, 1]`, or a rank that lands in the overflow
    /// bucket (no finite bound can be named for it).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (bound, c) in self.bounds.iter().zip(&self.counts) {
            cumulative += c;
            if cumulative >= rank {
                return Some(*bound);
            }
        }
        None // rank falls in the overflow bucket
    }
}

/// Serializable state of the whole registry at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot (useful as a fixture).
    pub fn empty() -> Self {
        Self {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Returns (registering on first use) the counter named `name`.
pub fn counter(name: &str) -> Counter {
    let mut map = registry().counters.lock().unwrap();
    let cell = map
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(CounterCell::new()));
    Counter(Arc::clone(cell))
}

/// Returns (registering on first use) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    let mut map = registry().gauges.lock().unwrap();
    let cell = map
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(AtomicU64::new(0)));
    Gauge(Arc::clone(cell))
}

/// Returns (registering on first use) the histogram named `name` with
/// the given finite, strictly increasing bucket upper `bounds`. An
/// existing histogram keeps its original bounds.
///
/// # Panics
/// Panics if `bounds` is empty, non-increasing, or non-finite on
/// first registration.
pub fn histogram(name: &str, bounds: &[f64]) -> Histogram {
    let mut map = registry().histograms.lock().unwrap();
    let cell = map.entry(name.to_string()).or_insert_with(|| {
        assert!(!bounds.is_empty(), "histogram {name}: no buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram {name}: bounds must be finite and strictly increasing"
        );
        Arc::new(HistogramCell::new(bounds.to_vec()))
    });
    Histogram(Arc::clone(cell))
}

/// Records `ns` into the span histogram `name` (`span.<path>`, see
/// [`crate::span`]), registering it with [`SPAN_BOUNDS`] on first use.
/// The lookup borrows `name`, so a warm call never allocates.
pub(crate) fn record_span(name: &str, ns: u64) {
    let mut map = registry().histograms.lock().unwrap();
    match map.get(name) {
        Some(cell) => cell.record(ns as f64),
        None => {
            let cell = HistogramCell::new(SPAN_BOUNDS.to_vec());
            cell.record(ns as f64);
            map.insert(name.to_string(), Arc::new(cell));
        }
    }
}

/// Merges every metric's shards into a serializable snapshot.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.sum()))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), Histogram(Arc::clone(v)).snapshot()))
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Zeroes every registered metric (registrations and handles stay
/// valid). Meant for tests and for isolating phases of a long process.
pub fn reset_metrics() {
    let reg = registry();
    for cell in reg.counters.lock().unwrap().values() {
        cell.reset();
    }
    for cell in reg.gauges.lock().unwrap().values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in reg.histograms.lock().unwrap().values() {
        cell.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state_by_name() {
        let a = counter("obs.test.shared");
        let b = counter("obs.test.shared");
        a.add(3);
        b.incr();
        assert_eq!(a.value(), b.value());
        assert!(a.value() >= 4);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = gauge("obs.test.gauge");
        g.set(2.5);
        g.set(-7.25);
        assert_eq!(g.value(), -7.25);
        assert_eq!(snapshot().gauges["obs.test.gauge"], -7.25);
    }

    #[test]
    fn histogram_respects_bucket_boundaries() {
        // "le" semantics: a value equal to a bound lands in that bucket.
        let h = histogram("obs.test.bounds", &[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 1.5, 10.0, 100.0, 1000.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 1]);
        assert_eq!(s.overflow, 1);
        assert_eq!(s.count, 6);
        assert!((s.sum - 1113.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_keeps_first_registration_bounds() {
        let h1 = histogram("obs.test.first_bounds", &[5.0, 50.0]);
        let h2 = histogram("obs.test.first_bounds", &[999.0]);
        h1.record(7.0);
        assert_eq!(h2.snapshot().bounds, vec![5.0, 50.0]);
        assert_eq!(h2.snapshot().counts, vec![0, 1]);
    }

    #[test]
    fn shards_merge_deterministically_under_rayon_join() {
        let c = counter("obs.test.join_total");
        let h = histogram("obs.test.join_hist", &[0.5, 1.5]);
        rayon::join(
            || {
                rayon::join(
                    || {
                        for _ in 0..10_000 {
                            c.incr();
                            h.record(1.0);
                        }
                    },
                    || {
                        for _ in 0..10_000 {
                            c.add(2);
                        }
                    },
                )
            },
            || {
                for _ in 0..10_000 {
                    c.incr();
                }
            },
        );
        // 10k + 20k + 10k regardless of thread interleaving.
        assert_eq!(c.value(), 40_000);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![0, 10_000]);
        assert_eq!(s.count, 10_000);
        assert!((s.sum - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn quantiles_match_a_known_distribution() {
        // 100 observations: 50 land in (<=10), 30 in (<=100), 15 in
        // (<=1000), 5 overflow. Ranks: p50 -> 50th obs -> bucket 10;
        // p95 -> 95th -> bucket 1000; p99 -> 99th -> overflow (None).
        let h = histogram("obs.test.quantiles", &[10.0, 100.0, 1000.0]);
        for _ in 0..50 {
            h.record(5.0);
        }
        for _ in 0..30 {
            h.record(50.0);
        }
        for _ in 0..15 {
            h.record(500.0);
        }
        for _ in 0..5 {
            h.record(5000.0);
        }
        let s = h.snapshot();
        assert_eq!(s.p50, Some(10.0));
        assert_eq!(s.p95, Some(1000.0));
        assert_eq!(s.p99, None);
        // Exact boundary rank: the 80th observation closes bucket 100.
        assert_eq!(s.quantile(0.80), Some(100.0));
        assert_eq!(s.quantile(0.81), Some(1000.0));
        // q=1.0 lands in overflow here; with no overflow it names the
        // last populated bucket.
        assert_eq!(s.quantile(1.0), None);
    }

    #[test]
    fn quantiles_of_single_bucket_and_empty_histograms() {
        let empty = HistogramSnapshot::from_buckets(vec![1.0, 2.0], vec![0, 0], 0, 0, 0.0);
        assert_eq!(empty.p50, None);
        assert_eq!(empty.quantile(0.5), None);

        let one = HistogramSnapshot::from_buckets(vec![1.0, 2.0], vec![0, 1], 0, 1, 1.5);
        assert_eq!(one.p50, Some(2.0));
        assert_eq!(one.p95, Some(2.0));
        assert_eq!(one.p99, Some(2.0));
        assert_eq!(one.quantile(1.0), Some(2.0));
        // Out-of-range q is rejected, not clamped.
        assert_eq!(one.quantile(0.0), None);
        assert_eq!(one.quantile(1.5), None);
    }

    #[test]
    fn quantile_fields_survive_a_serde_round_trip() {
        let s = HistogramSnapshot::from_buckets(vec![10.0, 100.0], vec![3, 1], 0, 4, 60.0);
        assert_eq!(s.p50, Some(10.0));
        let json = serde_json::to_string(&s).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn snapshot_includes_all_kinds() {
        counter("obs.test.snap_counter").add(5);
        gauge("obs.test.snap_gauge").set(1.5);
        histogram("obs.test.snap_hist", &[1.0]).record(0.25);
        let s = snapshot();
        assert!(s.counters["obs.test.snap_counter"] >= 5);
        assert_eq!(s.gauges["obs.test.snap_gauge"], 1.5);
        assert_eq!(s.histograms["obs.test.snap_hist"].count, 1);
    }
}
