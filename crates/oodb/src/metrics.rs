//! Process-wide metrics: relaxed-atomic counters and fixed-bucket latency
//! histograms, snapshot-able as JSON.
//!
//! This is the accounting half of the observability layer: the view layer's
//! per-view [`ViewStats`](../../ov_views/struct.ViewStats.html) counters say
//! what one view did; the registry here aggregates the same events — plus
//! store mutations, journal consumption, and index lookups — across the
//! whole process, so the bench harness (`--metrics out.json`) and the `ovq`
//! shell (`.metrics`) can report a single coherent picture.
//!
//! Design constraints: **no external dependencies** (hand-rolled JSON, std
//! atomics) and **no hot-path locking** — call sites cache their
//! `Arc<Counter>` in a `OnceLock` via [`metric_counter!`](crate::metric_counter), so steady-state
//! cost is one relaxed `fetch_add`. Every histogram is the duration of an
//! event close: the [`crate::event`] table names them.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use crate::trace::json_str;

/// Is the query profiler (workload registry + slow-query log + statistics
/// feeding) enabled? One relaxed load — this is the *entire* cost of the
/// profiler on the disabled hot path, same discipline as the flight
/// recorder's enabled check.
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Turns the query profiler on or off (process-wide).
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

static PROFILING: AtomicBool = AtomicBool::new(false);

/// A monotonically increasing relaxed-atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Smallest histogram bucket upper bound, in nanoseconds. Bucket `i` counts
/// samples `< BUCKET_FLOOR_NS << i`; the last bucket also absorbs overflow.
pub const BUCKET_FLOOR_NS: u64 = 128;

/// A fixed-bucket latency histogram over nanosecond samples.
///
/// Buckets are powers of two starting at [`BUCKET_FLOOR_NS`] (128 ns, 256 ns,
/// … ≈ 275 s), which covers everything from a cache-hit population to a cold
/// full recompute with ≤ 2× relative error per bucket. All cells are relaxed
/// atomics: recording is wait-free and never synchronizes readers.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index for a nanosecond sample.
    fn bucket_of(nanos: u64) -> usize {
        let mut bound = BUCKET_FLOOR_NS;
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            if nanos < bound {
                return i;
            }
            bound <<= 1;
        }
        HISTOGRAM_BUCKETS - 1
    }

    /// The inclusive upper bound of bucket `i`, in nanoseconds (the last
    /// bucket is unbounded; its nominal bound is returned).
    pub fn bucket_bound(i: usize) -> u64 {
        BUCKET_FLOOR_NS << i.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one nanosecond sample.
    pub fn record(&self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the histogram (relaxed reads; exact only
    /// in quiescence, which is all observability needs).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub sum: u64,
    /// Per-bucket sample counts (see [`Histogram::bucket_bound`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean sample, in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The median (p50) latency estimate, in nanoseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The p95 latency estimate, in nanoseconds.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The p99 latency estimate, in nanoseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Upper-bound estimate of the `q`-quantile (0 ≤ q ≤ 1), in
    /// nanoseconds: the bound of the first bucket whose cumulative count
    /// reaches `q·count`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return Histogram::bucket_bound(i);
            }
        }
        Histogram::bucket_bound(HISTOGRAM_BUCKETS - 1)
    }
}

/// A process-wide registry of named counters and histograms.
///
/// Metric names are dot-separated paths (`"oodb.store.mutations"`). Lookup
/// takes a read lock; hot call sites should cache the returned `Arc` (see
/// [`metric_counter!`](crate::metric_counter)).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry (the process normally uses [`registry`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry.
pub fn registry() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

/// A point-in-time copy of a [`MetricsRegistry`], serializable as JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as a self-contained JSON document (counters
    /// as integers; histograms as count/sum/mean/quantile summaries plus
    /// the non-empty buckets as `[upper_bound_ns, count]` pairs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {value}", json_str(name));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"count\": {}, \"sum_ns\": {}, \"mean_ns\": {:.0}, \
                 \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"buckets\": [",
                json_str(name),
                h.count,
                h.sum,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
            );
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    let sep = if first { "" } else { ", " };
                    let _ = write!(out, "{sep}[{}, {n}]", Histogram::bucket_bound(b));
                    first = false;
                }
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

// --- workload registry -----------------------------------------------------

/// Per-fingerprint workload aggregate: everything the profiler learns about
/// one query *shape* (see `ov_query::fingerprint`). All cells are relaxed
/// atomics; the entry is shared via `Arc` so recording never holds the
/// registry lock.
#[derive(Debug, Default)]
pub struct WorkloadEntry {
    /// The literal-normalized query text this fingerprint hashes (the
    /// first-seen exemplar; identical for every member by construction).
    pub normalized: String,
    /// Executions recorded.
    pub calls: Counter,
    /// Cumulative result rows across executions.
    pub rows: Counter,
    /// Wall-clock latency per execution.
    pub latency: Histogram,
    /// Executions whose top-level expression ran the compiled engine.
    pub compiled: Counter,
    /// Executions whose top-level expression ran the interpreter.
    pub interpreted: Counter,
    /// Population cache hits observed during executions.
    pub pop_cache_hits: Counter,
    /// Population delta patches observed during executions.
    pub pop_deltas: Counter,
    /// Population full recomputes observed during executions.
    pub pop_recomputes: Counter,
    /// Stale populations served during executions (degraded mode).
    pub pop_stale_serves: Counter,
    /// Executions whose plan was served from the fingerprint-keyed plan
    /// cache.
    pub plan_cache_hits: Counter,
    /// Executions that planned from scratch (cold cache, generation bump,
    /// or drift eviction).
    pub plan_cache_misses: Counter,
}

/// A process-wide registry of [`WorkloadEntry`]s keyed by fingerprint.
///
/// Populated by the query layer when [`profiling_enabled`] is on; read by
/// `ovq .workload` and `harness --workload FILE`.
#[derive(Debug, Default)]
pub struct WorkloadRegistry {
    entries: RwLock<BTreeMap<String, Arc<WorkloadEntry>>>,
}

impl WorkloadRegistry {
    /// An empty registry (the process normally uses [`workload`]).
    pub fn new() -> WorkloadRegistry {
        WorkloadRegistry::default()
    }

    /// The entry for `fingerprint`, created with `normalized` as its
    /// exemplar on first use.
    pub fn entry(&self, fingerprint: &str, normalized: &str) -> Arc<WorkloadEntry> {
        if let Some(e) = self.entries.read().get(fingerprint) {
            return e.clone();
        }
        self.entries
            .write()
            .entry(fingerprint.to_owned())
            .or_insert_with(|| {
                Arc::new(WorkloadEntry {
                    normalized: normalized.to_owned(),
                    ..WorkloadEntry::default()
                })
            })
            .clone()
    }

    /// Number of distinct fingerprints recorded.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Drops every entry.
    pub fn clear(&self) {
        self.entries.write().clear();
    }

    /// A point-in-time copy: `(fingerprint, entry)` pairs sorted by
    /// descending cumulative latency (the "what dominates this workload"
    /// order).
    pub fn snapshot(&self) -> Vec<(String, Arc<WorkloadEntry>)> {
        let mut v: Vec<_> = self
            .entries
            .read()
            .iter()
            .map(|(k, e)| (k.clone(), e.clone()))
            .collect();
        v.sort_by_key(|(_, e)| std::cmp::Reverse(e.latency.snapshot().sum));
        v
    }

    /// Serializes the registry as a JSON array, dominant fingerprints
    /// first.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (fp, e)) in self.snapshot().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let lat = e.latency.snapshot();
            let _ = write!(
                out,
                "{sep}\n  {{\"fingerprint\": {}, \"normalized\": {}, \"calls\": {}, \
                 \"rows\": {}, \"total_ns\": {}, \"mean_ns\": {:.0}, \"p95_ns\": {}, \
                 \"compiled\": {}, \"interpreted\": {}, \"pop_cache_hits\": {}, \
                 \"pop_deltas\": {}, \"pop_recomputes\": {}, \"pop_stale_serves\": {}, \
                 \"plan_cache_hits\": {}, \"plan_cache_misses\": {}}}",
                json_str(fp),
                json_str(&e.normalized),
                e.calls.get(),
                e.rows.get(),
                lat.sum,
                lat.mean(),
                lat.p95(),
                e.compiled.get(),
                e.interpreted.get(),
                e.pop_cache_hits.get(),
                e.pop_deltas.get(),
                e.pop_recomputes.get(),
                e.pop_stale_serves.get(),
                e.plan_cache_hits.get(),
                e.plan_cache_misses.get(),
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// The process-wide workload registry.
pub fn workload() -> &'static WorkloadRegistry {
    static GLOBAL: OnceLock<WorkloadRegistry> = OnceLock::new();
    GLOBAL.get_or_init(WorkloadRegistry::default)
}

// --- slow-query log --------------------------------------------------------

/// Maximum entries the slow-query ring retains (oldest evicted first).
pub const SLOW_QUERY_CAP: usize = 64;

/// Default slow-query threshold: 10 ms.
pub const DEFAULT_SLOW_QUERY_NS: u64 = 10_000_000;

/// One captured slow query: the text, its fingerprint, how long it took,
/// and the full rendered trace (stages, populations, actuals).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowQuery {
    /// The original query text.
    pub query: String,
    /// The query's workload fingerprint.
    pub fingerprint: String,
    /// Wall-clock execution time, in nanoseconds.
    pub nanos: u64,
    /// The rendered `QueryTrace` (multi-line).
    pub trace: String,
}

/// A bounded ring of the most recent queries that exceeded the threshold.
///
/// Recording takes a short mutex — acceptable because only queries already
/// past the (multi-millisecond) threshold ever reach it; the per-query fast
/// path is the one relaxed threshold load.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_ns: AtomicU64,
    entries: Mutex<VecDeque<SlowQuery>>,
}

impl Default for SlowQueryLog {
    fn default() -> SlowQueryLog {
        SlowQueryLog {
            threshold_ns: AtomicU64::new(DEFAULT_SLOW_QUERY_NS),
            entries: Mutex::new(VecDeque::new()),
        }
    }
}

impl SlowQueryLog {
    /// An empty log (the process normally uses [`slow_queries`]).
    pub fn new() -> SlowQueryLog {
        SlowQueryLog::default()
    }

    /// The current threshold, in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Sets the threshold, in nanoseconds.
    pub fn set_threshold_ns(&self, ns: u64) {
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Records `entry` if it meets the threshold, evicting the oldest entry
    /// past [`SLOW_QUERY_CAP`]. Returns whether it was kept.
    pub fn record(&self, entry: SlowQuery) -> bool {
        if entry.nanos < self.threshold_ns() {
            return false;
        }
        let mut ring = self.entries.lock();
        if ring.len() >= SLOW_QUERY_CAP {
            ring.pop_front();
        }
        ring.push_back(entry);
        true
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.entries.lock().iter().cloned().collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Drops every entry (the threshold is kept).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Serializes the log as a JSON array, oldest first.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"query\": {}, \"fingerprint\": {}, \"nanos\": {}, \"trace\": {}}}",
                json_str(&e.query),
                json_str(&e.fingerprint),
                e.nanos,
                json_str(&e.trace),
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// The process-wide slow-query log.
pub fn slow_queries() -> &'static SlowQueryLog {
    static GLOBAL: OnceLock<SlowQueryLog> = OnceLock::new();
    GLOBAL.get_or_init(SlowQueryLog::default)
}

/// The process-wide counter named by the literal, resolved once per call
/// site and cached in a `OnceLock` — steady-state cost is one relaxed
/// `fetch_add`, no locking.
#[macro_export]
macro_rules! metric_counter {
    ($name:expr) => {{
        static __METRIC: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        &**__METRIC.get_or_init(|| $crate::metrics::registry().counter($name))
    }};
}

/// The process-wide histogram named by the literal, cached per call site
/// like [`metric_counter!`](crate::metric_counter). Only the [`crate::event`] table records one.
#[macro_export]
macro_rules! metric_histogram {
    ($name:expr) => {{
        static __METRIC: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        &**__METRIC.get_or_init(|| $crate::metrics::registry().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let r = MetricsRegistry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.b").get(), 5);
        assert_eq!(r.snapshot().counters["a.b"], 5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(127), 0);
        assert_eq!(Histogram::bucket_of(128), 1);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for ns in [50u64, 200, 200, 5_000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 5_450);
        // p50 falls in the 200 ns bucket (bound 256), p95/p99 in the 5 µs
        // one.
        assert_eq!(s.quantile(0.5), 256);
        assert_eq!(s.p50(), s.quantile(0.5));
        assert!(s.p95() >= 5_000);
        assert_eq!(s.p99(), s.quantile(0.99));
        assert!(s.quantile(0.99) >= 5_000);
        assert!(s.mean() > 1_000.0);
        // Empty histograms report zero percentiles, not garbage.
        let empty = Histogram::new().snapshot();
        assert_eq!((empty.p50(), empty.p95(), empty.p99()), (0, 0, 0));
    }

    #[test]
    fn snapshot_serializes_as_json() {
        let r = MetricsRegistry::new();
        r.counter("x.count").add(3);
        r.histogram("y_ns").record(1_000);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"x.count\": 3"), "got: {json}");
        assert!(json.contains("\"y_ns\""), "got: {json}");
        assert!(json.contains("\"count\": 1"), "got: {json}");
        assert!(json.contains("\"p95_ns\""), "got: {json}");
        // Hand-rolled JSON must stay structurally balanced.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "got: {json}"
        );
    }

    #[test]
    fn global_registry_is_shared() {
        let a = registry().counter("test.metrics.shared");
        let before = a.get();
        metric_counter!("test.metrics.shared").inc();
        assert_eq!(a.get(), before + 1);
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn profiling_flag_toggles() {
        let was = profiling_enabled();
        set_profiling(true);
        assert!(profiling_enabled());
        set_profiling(false);
        assert!(!profiling_enabled());
        set_profiling(was);
    }

    #[test]
    fn workload_registry_aggregates_per_fingerprint() {
        let w = WorkloadRegistry::new();
        let e = w.entry(
            "deadbeefdeadbeef",
            "(select P from P in Person where P.Age > ?)",
        );
        e.calls.inc();
        e.rows.add(41);
        e.latency.record(1_000);
        e.compiled.inc();
        // Second lookup hits the same entry; the exemplar is kept.
        let e2 = w.entry("deadbeefdeadbeef", "(ignored — first exemplar wins)");
        e2.calls.inc();
        assert_eq!(w.len(), 1);
        let snap = w.snapshot();
        assert_eq!(snap[0].0, "deadbeefdeadbeef");
        assert_eq!(snap[0].1.calls.get(), 2);
        assert_eq!(
            snap[0].1.normalized,
            "(select P from P in Person where P.Age > ?)"
        );
        let json = w.to_json();
        assert!(json.contains("\"calls\": 2"), "got: {json}");
        assert!(json.contains("deadbeefdeadbeef"), "got: {json}");
        w.clear();
        assert!(w.is_empty());
    }

    #[test]
    fn workload_snapshot_orders_by_cumulative_latency() {
        let w = WorkloadRegistry::new();
        let cheap = w.entry("aaaa", "cheap");
        let hot = w.entry("bbbb", "hot");
        cheap.latency.record(100);
        hot.latency.record(1_000_000);
        let snap = w.snapshot();
        assert_eq!(snap[0].0, "bbbb");
        assert_eq!(snap[1].0, "aaaa");
    }

    #[test]
    fn slow_query_log_thresholds_and_bounds() {
        let log = SlowQueryLog::new();
        log.set_threshold_ns(1_000);
        let mk = |i: u64, nanos: u64| SlowQuery {
            query: format!("q{i}"),
            fingerprint: "f".into(),
            nanos,
            trace: "t".into(),
        };
        assert!(!log.record(mk(0, 999)), "below threshold");
        assert!(log.record(mk(1, 1_000)));
        for i in 2..(SLOW_QUERY_CAP as u64 + 10) {
            log.record(mk(i, 2_000));
        }
        assert_eq!(log.len(), SLOW_QUERY_CAP);
        // Oldest entries were evicted.
        let entries = log.entries();
        assert_eq!(entries[0].query, "q10");
        let json = log.to_json();
        assert!(json.contains("\"nanos\": 2000"), "got: {json}");
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.threshold_ns(), 1_000, "clear keeps the threshold");
    }
}
