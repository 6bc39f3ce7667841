//! In-process metrics: counters, gauges, and fixed-bucket histograms.
//!
//! All handles are cheap to clone and safe to update from multiple threads.
//! Counters use lock-free atomics; gauges and histograms take a short
//! `parking_lot` lock. Metrics are aggregated in memory and exported on
//! demand via [`MetricsRegistry::snapshot`] — there is no background thread.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value.
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<Mutex<f64>>,
}

impl Gauge {
    pub fn set(&self, value: f64) {
        *self.value.lock() = value;
    }

    pub fn get(&self) -> f64 {
        *self.value.lock()
    }
}

/// Histogram over fixed bucket boundaries with exact min/max/sum tracking.
///
/// Bucket `i` counts observations `x <= bounds[i]`; one implicit overflow
/// bucket counts the rest. Quantiles are estimated by linear interpolation
/// within the bucket that crosses the target rank, clamped to the observed
/// min/max, so they are exact at the bucket resolution.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<Mutex<HistogramState>>,
}

struct HistogramState {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// `bounds` must be strictly increasing and finite; they are upper bucket
    /// edges.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Histogram {
            inner: Arc::new(Mutex::new(HistogramState {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len() + 1],
                total: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            })),
        }
    }

    /// Default bounds for durations in seconds: 1µs .. ~100s, quasi-log.
    pub fn duration_seconds() -> Self {
        let mut bounds = Vec::new();
        for exp in -6..=2 {
            let base = 10f64.powi(exp);
            bounds.push(base);
            bounds.push(2.5 * base);
            bounds.push(5.0 * base);
        }
        Histogram::with_bounds(&bounds)
    }

    /// Log-spaced request-latency bounds in seconds: 100µs to 10s, three
    /// per decade (1×/2.5×/5×). Serve-side latencies cluster below a
    /// millisecond, where linear buckets would collapse every observation
    /// into one bin and make p99 estimates meaningless.
    pub fn default_latency_bounds() -> Vec<f64> {
        let mut bounds = Vec::new();
        for exp in -4..=0 {
            let base = 10f64.powi(exp);
            bounds.push(base);
            bounds.push(2.5 * base);
            bounds.push(5.0 * base);
        }
        bounds.push(10.0);
        bounds
    }

    /// A histogram over [`Histogram::default_latency_bounds`].
    pub fn latency_seconds() -> Self {
        Histogram::with_bounds(&Histogram::default_latency_bounds())
    }

    pub fn observe(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut state = self.inner.lock();
        let idx = state
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(state.bounds.len());
        state.counts[idx] += 1;
        state.total += 1;
        state.sum += value;
        state.min = state.min.min(value);
        state.max = state.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.inner.lock().total
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let state = self.inner.lock();
        let quantile = |q: f64| -> f64 {
            if state.total == 0 {
                return 0.0;
            }
            let target = (q * state.total as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in state.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                seen += c;
                if seen >= target {
                    let hi = if i < state.bounds.len() {
                        state.bounds[i].min(state.max)
                    } else {
                        state.max
                    };
                    let lo = if i == 0 {
                        state.min
                    } else {
                        state.bounds[i - 1].max(state.min)
                    };
                    // Interpolate within the crossing bucket.
                    let frac = (target - (seen - c)) as f64 / c as f64;
                    return lo + frac * (hi - lo).max(0.0);
                }
            }
            state.max
        };
        let mut buckets = Vec::with_capacity(state.bounds.len());
        let mut cumulative = 0u64;
        for (i, &le) in state.bounds.iter().enumerate() {
            cumulative += state.counts[i];
            buckets.push(HistogramBucket {
                le,
                count: cumulative,
            });
        }
        HistogramSnapshot {
            count: state.total,
            sum: state.sum,
            mean: if state.total == 0 {
                0.0
            } else {
                state.sum / state.total as f64
            },
            min: if state.total == 0 { 0.0 } else { state.min },
            max: if state.total == 0 { 0.0 } else { state.max },
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            p999: quantile(0.999),
            buckets,
        }
    }
}

/// One cumulative bucket of a [`HistogramSnapshot`]: how many observations
/// were `<= le`. The implicit `+Inf` bucket is the snapshot's `count`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Upper bucket edge (inclusive).
    pub le: f64,
    /// Observations at or below `le` (cumulative, Prometheus-style).
    pub count: u64,
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// Interpolated 99.9th percentile (meaningful once counts are large).
    pub p999: f64,
    /// Cumulative bucket counts at each configured bound.
    pub buckets: Vec<HistogramBucket>,
}

/// Full registry export: every named metric with its current value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as stable, line-oriented plain text — one
    /// `name value` (or `name{stat} value`) pair per line, sorted by name.
    ///
    /// This is the human-readable `/metrics?format=text` surface of the
    /// serving layer; the JSON form (via serde) stays the machine interface.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "{name}{{count}} {}", h.count);
            let _ = writeln!(out, "{name}{{mean}} {}", h.mean);
            let _ = writeln!(out, "{name}{{p50}} {}", h.p50);
            let _ = writeln!(out, "{name}{{p95}} {}", h.p95);
            let _ = writeln!(out, "{name}{{p99}} {}", h.p99);
            let _ = writeln!(out, "{name}{{p999}} {}", h.p999);
            let _ = writeln!(out, "{name}{{max}} {}", h.max);
            // Cumulative bucket exposition, Prometheus-style: the series is
            // monotone in `le` and closed by the implicit +Inf bucket.
            for bucket in &h.buckets {
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {}",
                    bucket.le, bucket.count
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        }
        out
    }
}

#[derive(Default)]
struct RegistryState {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Handle for `name`, created by `make` on first use. A hit is a plain
/// lookup: the owned key is only allocated when the entry is created, so
/// the per-request lookups on the serving path allocate nothing.
fn get_or_create<T: Clone>(
    map: &mut BTreeMap<String, T>,
    name: &str,
    make: impl FnOnce() -> T,
) -> T {
    if let Some(handle) = map.get(name) {
        return handle.clone();
    }
    map.entry(name.to_string()).or_insert_with(make).clone()
}

/// Named metric registry shared across the instrumented pipeline.
///
/// `counter`/`gauge`/`histogram` are get-or-create: repeated calls with the
/// same name return handles onto the same underlying metric.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    state: Arc<Mutex<RegistryState>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Counter {
        get_or_create(&mut self.state.lock().counters, name, Counter::default)
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_create(&mut self.state.lock().gauges, name, Gauge::default)
    }

    /// Get-or-create a histogram; `bounds` applies only on first creation.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        get_or_create(&mut self.state.lock().histograms, name, || {
            Histogram::with_bounds(bounds)
        })
    }

    /// Get-or-create a histogram with the default duration-seconds bounds.
    pub fn duration_histogram(&self, name: &str) -> Histogram {
        get_or_create(
            &mut self.state.lock().histograms,
            name,
            Histogram::duration_seconds,
        )
    }

    /// Get-or-create a histogram with the log-spaced request-latency bounds
    /// ([`Histogram::default_latency_bounds`]).
    pub fn latency_histogram(&self, name: &str) -> Histogram {
        get_or_create(
            &mut self.state.lock().histograms,
            name,
            Histogram::latency_seconds,
        )
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.state.lock();
        MetricsSnapshot {
            counters: state
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: state
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("events");
        c.inc();
        c.add(4);
        // Same name -> same counter.
        assert_eq!(registry.counter("events").get(), 5);
    }

    #[test]
    fn gauge_last_write_wins() {
        let registry = MetricsRegistry::new();
        registry.gauge("lr").set(0.01);
        registry.gauge("lr").set(0.002);
        assert_eq!(registry.gauge("lr").get(), 0.002);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::with_bounds(&[1.0, 2.0, 5.0, 10.0]);
        for i in 1..=100 {
            h.observe(i as f64 / 10.0); // 0.1 .. 10.0 uniformly
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!((s.mean - 5.05).abs() < 1e-9);
        assert_eq!(s.min, 0.1);
        assert_eq!(s.max, 10.0);
        // Uniform data: p50 ~ 5, p95 ~ 9.5 at bucket resolution.
        assert!(s.p50 > 2.0 && s.p50 <= 5.0, "p50 = {}", s.p50);
        assert!(s.p95 > 5.0 && s.p95 <= 10.0, "p95 = {}", s.p95);
        assert!(s.p99 >= s.p95);
        assert!(s.max >= s.p99);
    }

    #[test]
    fn snapshot_renders_stable_text() {
        let registry = MetricsRegistry::new();
        registry.counter("requests").add(3);
        registry.gauge("depth").set(1.5);
        registry.histogram("lat", &[1.0]).observe(0.5);
        let text = registry.snapshot().render_text();
        assert!(text.contains("requests 3\n"));
        assert!(text.contains("depth 1.5\n"));
        assert!(text.contains("lat{count} 1\n"));
        assert!(text.contains("lat{p99}"));
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::with_bounds(&[1.0]);
        h.observe(100.0);
        h.observe(200.0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 200.0);
        assert!(s.p99 <= 200.0 && s.p99 >= 100.0);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let h = Histogram::with_bounds(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::with_bounds(&[1.0]).snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0.0);
        assert_eq!(s.p999, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.buckets, vec![HistogramBucket { le: 1.0, count: 0 }]);
    }

    #[test]
    fn default_latency_bounds_are_log_spaced_sub_ms_to_ten_seconds() {
        let bounds = Histogram::default_latency_bounds();
        assert_eq!(bounds.first().copied(), Some(1e-4));
        assert_eq!(bounds.last().copied(), Some(10.0));
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "strictly increasing"
        );
        // Sub-millisecond resolution exists: multiple bounds below 1 ms.
        assert!(bounds.iter().filter(|&&b| b < 1e-3).count() >= 3);
        // Log-spaced: the ratio between consecutive decade anchors is 10.
        assert!(bounds.contains(&1e-3) && bounds.contains(&1e-2) && bounds.contains(&1e-1));
        // with_bounds accepts them (finite, increasing).
        Histogram::latency_seconds().observe(0.0005);
    }

    #[test]
    fn snapshot_buckets_are_cumulative() {
        let h = Histogram::with_bounds(&[1.0, 2.0, 5.0]);
        for v in [0.5, 0.7, 1.5, 4.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(
            s.buckets,
            vec![
                HistogramBucket { le: 1.0, count: 2 },
                HistogramBucket { le: 2.0, count: 3 },
                HistogramBucket { le: 5.0, count: 4 },
            ]
        );
        assert_eq!(s.count, 5); // the +Inf bucket
    }

    #[test]
    fn render_text_exposes_prometheus_buckets() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", &[0.001, 0.01]);
        h.observe(0.0005);
        h.observe(0.5);
        let text = registry.snapshot().render_text();
        assert!(text.contains("lat_bucket{le=\"0.001\"} 1\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"0.01\"} 1\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 2\n"), "{text}");
        assert!(text.contains("lat{p999}"), "{text}");
    }
}
