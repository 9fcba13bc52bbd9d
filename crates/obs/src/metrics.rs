//! The metrics registry of counters and gauges keyed by static names.
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
