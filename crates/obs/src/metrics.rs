//! Counters and streaming latency histograms.
//!
//! [`LogHistogram`] is a fixed-size log-linear histogram (HdrHistogram's
//! coarse scheme): each power-of-two octave is split into 4 sub-buckets,
//! so quantile estimates carry at most ~12.5 % relative error while the
//! whole structure is 2 KiB of plain counters — streaming, mergeable, and
//! allocation-free on the record path. [`MetricsRegistry`] keys counters
//! and histograms by phase name ("tuner.fit", "tuner.select", …) and
//! renders the end-of-run p50/p95/p99 table behind `--metrics-summary`.

use crate::event::Event;
use crate::recorder::Recorder;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Canonical [`MetricsRegistry`] key names published by the incremental
/// surrogate engine, so producers (the tuner) and consumers (summaries,
/// benches, tests) agree on spelling. Counters count delta-update work
/// items; `SURROGATE_DELTA_UPDATE` keys the span histogram over engine
/// maintenance (history sync and batch fantasy push/pop).
pub mod counters {
    /// Observations absorbed by O(churn) delta insertion.
    pub const SURROGATE_DELTA_INSERTS: &str = "surrogate.delta.inserts";
    /// Fantasy observations popped back off (LIFO undo).
    pub const SURROGATE_DELTA_REMOVES: &str = "surrogate.delta.removes";
    /// Failed configurations folded into the bad densities.
    pub const SURROGATE_DELTA_FAILURES: &str = "surrogate.delta.failures";
    /// Observations whose good/bad class flipped across a threshold move.
    pub const SURROGATE_DELTA_CHURNED: &str = "surrogate.delta.churned";
    /// Discrete score-table columns recomputed after delta updates.
    pub const SURROGATE_DELTA_COLUMNS: &str = "surrogate.delta.columns_rescored";
    /// Span histogram: nanoseconds spent in engine maintenance.
    pub const SURROGATE_DELTA_UPDATE: &str = "surrogate.delta.update";
}

/// Sub-buckets per power-of-two octave (2 bits of mantissa).
const SUBS: usize = 4;
/// Bucket count: values 0–3 exactly, then 4 sub-buckets for each octave
/// `[2^e, 2^(e+1))`, e = 2..=63.
const N_BUCKETS: usize = SUBS + 62 * SUBS;

/// A streaming log-linear histogram over `u64` samples (nanoseconds, by
/// convention). Records in O(1) with no allocation; quantiles are read
/// from cumulative bucket counts with ≤ 12.5 % relative error.
#[derive(Clone)]
pub struct LogHistogram {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // >= 2
        let sub = ((v >> (exp - 2)) & 0b11) as usize;
        SUBS + (exp - 2) * SUBS + sub
    }
}

/// `[lo, hi)` value range of bucket `b`.
fn bucket_bounds(b: usize) -> (u64, u64) {
    if b < SUBS {
        (b as u64, b as u64 + 1)
    } else {
        let exp = 2 + (b - SUBS) / SUBS;
        let sub = ((b - SUBS) % SUBS) as u64;
        let width = 1u64 << (exp - 2);
        let lo = (1u64 << exp) + sub * width;
        (lo, lo + width)
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of all samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket-midpoint estimate,
    /// clamped to the exact observed `[min, max]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                let (lo, hi) = bucket_bounds(b);
                let mid = lo + (hi - lo) / 2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable: counts always cover `count`
    }

    /// Convenience p50/p95/p99 triple.
    pub fn percentiles(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.95)?,
            self.quantile(0.99)?,
        ))
    }

    /// Folds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LogHistogram>,
}

/// A named collection of counters and latency histograms, shared across
/// threads. `BTreeMap` keys keep the summary table deterministically
/// ordered.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter.
    pub fn add(&self, name: &str, by: u64) {
        let mut inner = self.inner.lock();
        *inner.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Increments the named counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Records one latency sample (nanoseconds) into the named histogram.
    pub fn observe_ns(&self, name: &str, ns: u64) {
        let mut inner = self.inner.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(ns);
    }

    /// Times `f` and records its wall time into the named histogram.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.observe_ns(name, start.elapsed().as_nanos() as u64);
        out
    }

    /// The named counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// A snapshot of the named histogram.
    pub fn histogram(&self, name: &str) -> Option<LogHistogram> {
        self.inner.lock().histograms.get(name).cloned()
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.lock().counters.clone()
    }

    /// Snapshot of all histograms.
    pub fn histograms(&self) -> BTreeMap<String, LogHistogram> {
        self.inner.lock().histograms.clone()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock();
        inner.counters.is_empty() && inner.histograms.is_empty()
    }

    /// Renders the end-of-run summary: one row per latency phase with
    /// count and p50/p95/p99/mean/max, then the counters.
    pub fn render_summary(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        if !inner.histograms.is_empty() {
            out.push_str(&format!(
                "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "phase", "count", "p50", "p95", "p99", "mean", "max"
            ));
            for (name, h) in &inner.histograms {
                let (p50, p95, p99) = h.percentiles().unwrap_or((0, 0, 0));
                out.push_str(&format!(
                    "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    name,
                    h.count(),
                    format_ns(p50),
                    format_ns(p95),
                    format_ns(p99),
                    format_ns(h.mean().unwrap_or(0.0) as u64),
                    format_ns(h.max().unwrap_or(0)),
                ));
            }
        }
        if !inner.counters.is_empty() {
            out.push('\n');
            for (name, v) in &inner.counters {
                out.push_str(&format!("{name:<26} {v}\n"));
            }
            // Derived failure rate: permanent failures over all trials that
            // consumed budget (successes + failures).
            let failed = inner.counters.get("tuner.evaluations.failed").copied();
            if let Some(failed) = failed {
                let ok = inner
                    .counters
                    .get("tuner.evaluations.bootstrap")
                    .copied()
                    .unwrap_or(0)
                    + inner
                        .counters
                        .get("tuner.evaluations.model")
                        .copied()
                        .unwrap_or(0);
                let total = ok + failed;
                if total > 0 {
                    out.push_str(&format!(
                        "{:<26} {:.1}% ({failed}/{total})\n",
                        "tuner.failure_rate",
                        100.0 * failed as f64 / total as f64
                    ));
                }
            }
        }
        out
    }
}

/// Human-readable nanoseconds: `641ns`, `12.3µs`, `4.56ms`, `1.23s`.
pub fn format_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns_f / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns_f / 1e6)
    } else {
        format!("{:.2}s", ns_f / 1e9)
    }
}

/// A [`Recorder`] that folds the event stream into a [`MetricsRegistry`]:
/// latencies into per-phase histograms, lifecycle events into counters.
/// Metrics thus derive from exactly the same stream a JSONL sink writes,
/// so a live `--metrics-summary` and an offline `trace_replay` agree.
pub struct MetricsRecorder {
    registry: Arc<MetricsRegistry>,
}

impl MetricsRecorder {
    /// Wraps a shared registry.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self { registry }
    }

    /// The wrapped registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

impl Recorder for MetricsRecorder {
    fn record(&self, event: &Event) {
        if let Some((phase, ns)) = event.phase() {
            self.registry.observe_ns(phase, ns);
        }
        match event {
            Event::RunHeader(_) => self.registry.incr("runs.started"),
            Event::RunFinished { .. } => self.registry.incr("runs.finished"),
            Event::IterationStart { .. } => self.registry.incr("tuner.iterations"),
            Event::IncumbentImproved { .. } => self.registry.incr("tuner.improvements"),
            Event::ObjectiveEvaluated { bootstrap, .. } => {
                self.registry.incr(if *bootstrap {
                    "tuner.evaluations.bootstrap"
                } else {
                    "tuner.evaluations.model"
                });
            }
            Event::TrialFailed { elapsed_ns, .. } => {
                self.registry.incr("tuner.evaluations.failed");
                self.registry.observe_ns("tuner.evaluate", *elapsed_ns);
            }
            Event::TrialRetried { .. } => self.registry.incr("tuner.retries"),
            Event::BatchDispatched { .. } => self.registry.incr("tuner.batches"),
            Event::ProposalStalled { stalls, .. } => self.registry.add("tuner.stalls", *stalls),
            Event::HealthAlert(_) => self.registry.incr("health.alerts"),
            Event::PropagationRound { .. } => self.registry.incr("geist.rounds"),
            Event::TrialFinished { .. } => self.registry.incr("eval.trials"),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(3));
        // Buckets 0–3 hold single values, so mid == value.
        assert_eq!(h.quantile(0.25), Some(0));
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.75), Some(2));
    }

    #[test]
    fn bucket_bounds_partition_the_axis() {
        // Every bucket's hi equals the next bucket's lo, starting at 0.
        let mut expected_lo = 0u64;
        for b in 0..N_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(lo, expected_lo, "bucket {b}");
            assert!(hi > lo);
            expected_lo = hi;
        }
    }

    #[test]
    fn bucket_index_matches_bounds() {
        for v in (0u64..4096).chain([1u64 << 20, (1 << 40) + 12345, u64::MAX / 2]) {
            let b = bucket_index(v);
            let (lo, hi) = bucket_bounds(b);
            assert!(lo <= v && v < hi, "v={v} bucket={b} bounds=({lo},{hi})");
        }
    }

    #[test]
    fn quantiles_are_within_the_log_bucket_error_bound() {
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let est = h.quantile(q).unwrap() as f64;
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 0.125, "q={q}: est {est} vs exact {exact} ({rel:.3})");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = LogHistogram::new();
        for v in [10u64, 1_000, 1_000_000, 50_000_000] {
            h.record(v);
        }
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.95, 1.0]
            .iter()
            .map(|&q| h.quantile(q).unwrap())
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "{qs:?}");
        }
        assert_eq!(*qs.first().unwrap(), 10);
        assert_eq!(*qs.last().unwrap(), 50_000_000);
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentiles(), None);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in 0..500u64 {
            let x = v * v + 7;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.quantile(0.5), all.quantile(0.5));
        assert_eq!(a.quantile(0.99), all.quantile(0.99));
    }

    #[test]
    fn mean_and_extremes_are_exact() {
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        assert_eq!(h.mean(), Some(200.0));
        assert_eq!(h.min(), Some(100));
        assert_eq!(h.max(), Some(300));
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn registry_counts_and_times() {
        let r = MetricsRegistry::new();
        r.incr("a");
        r.add("a", 2);
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("missing"), 0);
        let out = r.time("phase", || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(r.histogram("phase").unwrap().count(), 1);
    }

    #[test]
    fn summary_table_lists_phases_and_counters() {
        let r = MetricsRegistry::new();
        r.observe_ns("tuner.fit", 1_500_000);
        r.observe_ns("tuner.fit", 2_500_000);
        r.incr("tuner.iterations");
        let s = r.render_summary();
        assert!(s.contains("tuner.fit"), "{s}");
        assert!(s.contains("p95"), "{s}");
        assert!(s.contains("tuner.iterations"), "{s}");
    }

    #[test]
    fn metrics_recorder_folds_events() {
        let registry = Arc::new(MetricsRegistry::new());
        let rec = MetricsRecorder::new(registry.clone());
        rec.record(&Event::SurrogateFit {
            iteration: 1,
            n_good: 1,
            n_bad: 1,
            threshold: 0.0,
            elapsed_ns: 5_000,
        });
        rec.record(&Event::ObjectiveEvaluated {
            iteration: 1,
            objective: 1.0,
            bootstrap: true,
            elapsed_ns: 900,
            config: None,
        });
        rec.record(&Event::IncumbentImproved {
            iteration: 1,
            objective: 1.0,
            previous_best: None,
        });
        assert_eq!(registry.histogram("tuner.fit").unwrap().count(), 1);
        assert_eq!(registry.histogram("tuner.evaluate").unwrap().count(), 1);
        assert_eq!(registry.counter("tuner.evaluations.bootstrap"), 1);
        assert_eq!(registry.counter("tuner.improvements"), 1);
    }

    #[test]
    fn failure_events_feed_counters_and_rate() {
        let registry = Arc::new(MetricsRegistry::new());
        let rec = MetricsRecorder::new(registry.clone());
        for i in 0..3 {
            rec.record(&Event::ObjectiveEvaluated {
                iteration: i,
                objective: 1.0,
                bootstrap: false,
                elapsed_ns: 100,
                config: None,
            });
        }
        rec.record(&Event::TrialRetried {
            iteration: 3,
            attempt: 0,
            backoff_ns: 1_000,
            reason: "crash".into(),
        });
        rec.record(&Event::TrialFailed {
            iteration: 3,
            reason: "crash".into(),
            elapsed_ns: 2_000,
            config: None,
        });
        assert_eq!(registry.counter("tuner.evaluations.failed"), 1);
        assert_eq!(registry.counter("tuner.retries"), 1);
        // Failed trials still contribute an evaluate latency sample.
        assert_eq!(registry.histogram("tuner.evaluate").unwrap().count(), 4);
        let s = registry.render_summary();
        assert!(s.contains("tuner.failure_rate"), "{s}");
        assert!(s.contains("25.0% (1/4)"), "{s}");
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(500), "500ns");
        assert_eq!(format_ns(1_500), "1.5µs");
        assert_eq!(format_ns(2_340_000), "2.34ms");
        assert_eq!(format_ns(1_500_000_000), "1.50s");
    }
}
