//! The metrics registry of counters and gauges keyed by static names, and
//! the fixed-bucket [`Histogram`] that `lori-report profile` summarizes span
//! durations with.
//!
//! Metrics are independent of the event recorder: they always aggregate
//! (lock-free atomics on the hot path; the registry lock is only taken on
//! first registration and at snapshot time), so a run can report totals in
//! its manifest even when event recording is disabled. Gauge sets
//! additionally emit a [`crate::Event::Gauge`] event when recording is on,
//! because gauges (e.g. per-epoch training loss) are low-frequency and
//! their trajectory is the interesting part.

use crate::recorder::Event;
use crate::{epoch_ns, recording, with_recorder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn incr(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
    name: OnceLock<&'static str>,
}

impl Gauge {
    /// Sets the gauge; emits a gauge event when recording is enabled.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
        if recording() {
            if let Some(name) = self.name.get() {
                let t_ns = epoch_ns();
                with_recorder(|rec| {
                    rec.record(&Event::Gauge { name, t_ns, value });
                });
            }
        }
    }

    /// Current value (0.0 before the first set).
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram.
///
/// For edges `e0 < e1 < … < e(n-1)` there are `n + 1` buckets:
/// an underflow bucket for `v < e0`, interior buckets `[e_i, e_(i+1))`, and
/// an overflow bucket for `v ≥ e(n-1)`. Quantiles are estimated by linear
/// interpolation inside the containing bucket (underflow and overflow
/// report the nearest edge), so accuracy is set by bucket granularity.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
}

impl Histogram {
    /// Builds a histogram over the given bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two edges are given or the edges are not
    /// strictly increasing and finite.
    #[must_use]
    pub fn new(edges: &[f64]) -> Self {
        assert!(edges.len() >= 2, "histogram needs at least two edges");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1] && w[1].is_finite()),
            "histogram edges must be strictly increasing and finite"
        );
        Histogram {
            edges: edges.to_vec(),
            buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
        }
    }

    /// Log-spaced edges from `lo` to `hi` (both > 0), `per_decade` buckets
    /// per factor of ten. Handy default for duration-like metrics.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `per_decade > 0`.
    #[must_use]
    pub fn log_edges(lo: f64, hi: f64, per_decade: usize) -> Vec<f64> {
        assert!(lo > 0.0 && hi > lo && per_decade > 0, "bad log edge spec");
        let mut edges = Vec::new();
        let decades = (hi / lo).log10();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let n = (decades * per_decade as f64).ceil() as usize;
        for i in 0..=n {
            edges.push(lo * 10f64.powf(i as f64 / per_decade as f64));
        }
        edges
    }

    /// Records one observation. Non-finite values are dropped.
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Bucket index for `v`: 0 is underflow, `edges.len()` is overflow.
    #[must_use]
    pub fn bucket_index(&self, v: f64) -> usize {
        self.edges.partition_point(|&e| e <= v)
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated quantile `q` in `[0, 1]`; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.count();
        if total == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let target = q * total as f64;
        let mut cum = 0.0f64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let n = bucket.load(Ordering::Relaxed) as f64;
            if n == 0.0 {
                continue;
            }
            if cum + n >= target {
                let frac = ((target - cum) / n).clamp(0.0, 1.0);
                return Some(match (i.checked_sub(1), self.edges.get(i)) {
                    // Underflow: everything below the first edge.
                    (None, _) => self.edges[0],
                    // Interior bucket [edges[i-1], edges[i]).
                    (Some(lo), Some(&hi)) => {
                        let lo = self.edges[lo];
                        lo + (hi - lo) * frac
                    }
                    // Overflow: everything at or above the last edge.
                    (Some(_), None) => *self.edges.last().expect("validated edges"),
                });
            }
            cum += n;
        }
        Some(*self.edges.last().expect("validated edges"))
    }

    /// Raw bucket counts (underflow, interior…, overflow).
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge last value.
    Gauge(f64),
}

/// A named metric reading.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// The metric's registration name.
    pub name: &'static str,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

/// The process-wide metric registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<Gauge>>>,
}

impl Registry {
    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().expect("registry poisoned").get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .expect("registry poisoned")
                .entry(name)
                .or_default(),
        )
    }

    /// Gets or creates the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().expect("registry poisoned").get(name) {
            return Arc::clone(g);
        }
        let arc = Arc::clone(
            self.gauges
                .write()
                .expect("registry poisoned")
                .entry(name)
                .or_default(),
        );
        let _ = arc.name.set(name);
        arc
    }

    /// Reads every registered metric, sorted by name within each kind.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    #[must_use]
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let mut out = Vec::new();
        for (name, c) in self.counters.read().expect("registry poisoned").iter() {
            out.push(MetricSnapshot {
                name,
                value: MetricValue::Counter(c.get()),
            });
        }
        for (name, g) in self.gauges.read().expect("registry poisoned").iter() {
            out.push(MetricSnapshot {
                name,
                value: MetricValue::Gauge(g.get()),
            });
        }
        out
    }

    /// Drops every registered metric (test isolation helper).
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    pub fn clear(&self) {
        self.counters.write().expect("registry poisoned").clear();
        self.gauges.write().expect("registry poisoned").clear();
    }
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Shorthand: the global counter `name`.
pub fn counter(name: &'static str) -> Arc<Counter> {
    registry().counter(name)
}

/// Shorthand: the global gauge `name`.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    registry().gauge(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.incr(3);
        c.incr(4);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn gauge_last_value_wins() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::new(&[0.0, 1.0, 10.0]);
        // Underflow: strictly below the first edge.
        assert_eq!(h.bucket_index(-0.5), 0);
        // Edges belong to the bucket they open.
        assert_eq!(h.bucket_index(0.0), 1);
        assert_eq!(h.bucket_index(0.999), 1);
        assert_eq!(h.bucket_index(1.0), 2);
        assert_eq!(h.bucket_index(9.999), 2);
        // The last edge opens the overflow bucket.
        assert_eq!(h.bucket_index(10.0), 3);
        assert_eq!(h.bucket_index(1e9), 3);
    }

    #[test]
    fn histogram_counts() {
        let h = Histogram::new(&[0.0, 1.0, 10.0]);
        for v in [-1.0, 0.5, 0.6, 5.0, 20.0, f64::NAN] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5, "NaN must be dropped");
        assert_eq!(h.bucket_counts(), vec![1, 2, 1, 1]);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        // 100 observations spread uniformly over [0, 10) in a single-decade
        // histogram with 10 interior buckets.
        let edges: Vec<f64> = (0..=10).map(f64::from).collect();
        let h = Histogram::new(&edges);
        for i in 0..100 {
            h.observe(f64::from(i) / 10.0);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 5.0).abs() < 0.5, "p50 {p50}");
        assert!((p95 - 9.5).abs() < 0.5, "p95 {p95}");
        assert!((p99 - 9.9).abs() < 0.5, "p99 {p99}");
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        let h = Histogram::new(&[0.0, 1.0]);
        assert!(h.quantile(0.5).is_none(), "empty histogram");
        h.observe(-5.0); // underflow
        assert_eq!(h.quantile(0.5), Some(0.0), "underflow clamps to first edge");
        let h2 = Histogram::new(&[0.0, 1.0]);
        h2.observe(100.0); // overflow
        assert_eq!(h2.quantile(0.5), Some(1.0), "overflow clamps to last edge");
    }

    #[test]
    fn histogram_quantile_single_observation_and_extreme_q() {
        let h = Histogram::new(&[0.0, 1.0, 2.0]);
        assert!(h.quantile(0.0).is_none(), "q=0 on empty is still None");
        assert!(h.quantile(1.0).is_none(), "q=1 on empty is still None");

        h.observe(0.5); // single observation in the first interior bucket
        assert_eq!(h.quantile(0.0), Some(0.0), "q=0 is the bucket's low edge");
        assert_eq!(h.quantile(0.5), Some(0.5), "q=0.5 interpolates mid-bucket");
        assert_eq!(h.quantile(1.0), Some(1.0), "q=1 is the bucket's high edge");

        // With everything beyond the last edge, every quantile is the last
        // edge — the histogram cannot resolve past its range.
        let h2 = Histogram::new(&[0.0, 1.0]);
        h2.observe(1e9);
        assert_eq!(h2.quantile(0.0), Some(1.0));
        assert_eq!(h2.quantile(1.0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn histogram_quantile_rejects_out_of_range_q() {
        let h = Histogram::new(&[0.0, 1.0]);
        h.observe(0.5);
        let _ = h.quantile(1.5);
    }

    #[test]
    fn log_edges_shape() {
        let e = Histogram::log_edges(1.0, 1000.0, 3);
        assert!((e[0] - 1.0).abs() < 1e-12);
        assert!(e.last().unwrap() >= &1000.0);
        assert!(e.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(e.len(), 10);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_edges_panic() {
        let _ = Histogram::new(&[1.0, 0.5]);
    }

    #[test]
    fn registry_dedups_by_name() {
        let r = Registry::default();
        let a = r.counter("unit.same");
        let b = r.counter("unit.same");
        a.incr(1);
        assert_eq!(b.get(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].value, MetricValue::Counter(1));
    }

    #[test]
    fn registry_snapshot_covers_kinds() {
        let r = Registry::default();
        r.counter("unit.c").incr(2);
        r.gauge("unit.g").set(1.5);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].value, MetricValue::Counter(2));
        assert_eq!(snap[1].value, MetricValue::Gauge(1.5));
        r.clear();
        assert!(r.snapshot().is_empty());
    }
}
