//! # lori-obs — zero-dependency observability for LORI
//!
//! All hand-rolled on `std` only:
//!
//! 1. **Span tracing** ([`span`], [`span_with`], [`in_span`]): nested,
//!    monotonic-timed scopes recorded through a global [`Recorder`]. With
//!    no recorder installed (or the [`NullRecorder`]), opening a span costs
//!    two relaxed atomic loads — safe to leave in Monte Carlo inner loops.
//!    Spans carry process-unique ids and [`TraceContext`] propagates them
//!    across worker threads, so recorded trees stay causally connected.
//! 2. **Metrics** ([`counter`], [`gauge`], [`histogram`]): process-wide
//!    registry of counters, gauges, and fixed-bucket histograms with
//!    p50/p95/p99 estimates, keyed by static names.
//! 3. **Run manifests** ([`RunManifest`]): a JSON document per experiment
//!    run with seed, config, code version, wall time, per-phase breakdown,
//!    and a metrics snapshot.
//! 4. **The live tier**: a [`flight`] recorder (per-thread ring buffers of
//!    recent events, dumped on panic/quarantine), [`progress`] heartbeats
//!    (`LORI_PROGRESS`), and a [`telemetry`] HTTP endpoint
//!    (`LORI_TELEMETRY`) serving Prometheus metrics, JSON status, live
//!    progress, and flight snapshots while a run executes.
//!
//! Install a [`JsonlRecorder`] to stream every event to an append-only
//! `.events.jsonl` file:
//!
//! ```no_run
//! use lori_obs as obs;
//!
//! let rec = obs::JsonlRecorder::create("results/exp.events.jsonl").unwrap();
//! obs::install(std::sync::Arc::new(rec));
//! {
//!     let _sweep = obs::span("ftsched.sweep");
//!     obs::counter("ftsched.rollbacks").incr(1);
//! }
//! obs::uninstall();
//! ```

#![warn(missing_docs)]

pub mod flight;
pub(crate) mod fsio;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod progress;
pub mod recorder;
pub mod span;
pub mod telemetry;
pub mod trace;

pub use json::Value;
pub use manifest::{version_string, PhaseRecord, RunManifest};
pub use metrics::{
    counter, gauge, histogram, registry, Counter, Gauge, Histogram, MetricSnapshot, MetricValue,
    Registry,
};
pub use progress::{progress_enabled, Progress, ProgressSnapshot};
pub use recorder::{Event, JsonlRecorder, MemoryRecorder, NullRecorder, Recorder};
pub use span::{in_span, span, span_with, Span};
pub use telemetry::TelemetryServer;
pub use trace::{ContextGuard, TraceContext};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Fast-path switch: `true` only while a non-null recorder is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed recorder. The `RwLock` is only contended during
/// install/uninstall; recording takes the read lock.
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Process start reference for monotonic event timestamps.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// `true` while events are being recorded. Instrumented code checks this
/// (one relaxed atomic load) before doing any tracing work.
#[inline]
#[must_use]
pub fn recording() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// `true` while any event consumer is live: the installed recorder or the
/// armed flight recorder. Two relaxed atomic loads — the combined fast
/// path for span instrumentation.
#[inline]
#[must_use]
pub(crate) fn active() -> bool {
    ENABLED.load(Ordering::Relaxed) || flight::enabled()
}

/// Monotonic nanoseconds since the observability epoch (first use in this
/// process). Saturates at `u64::MAX` after ~584 years.
#[must_use]
pub fn epoch_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Installs `recorder` as the process-wide event sink, replacing (and
/// flushing) any previous one. Installing a [`NullRecorder`] keeps the
/// disabled fast path.
///
/// # Panics
///
/// Panics if the recorder lock is poisoned.
pub fn install(recorder: Arc<dyn Recorder>) {
    // Pin the epoch before the first event so t_ns starts near zero.
    let _ = epoch_ns();
    let enabled = !recorder.is_null();
    let previous = {
        let mut slot = RECORDER.write().expect("recorder lock poisoned");
        ENABLED.store(enabled, Ordering::Relaxed);
        slot.replace(recorder)
    };
    if let Some(prev) = previous {
        prev.flush();
    }
}

/// Removes the installed recorder (flushing it) and returns it.
///
/// # Panics
///
/// Panics if the recorder lock is poisoned.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    let previous = {
        let mut slot = RECORDER.write().expect("recorder lock poisoned");
        ENABLED.store(false, Ordering::Relaxed);
        slot.take()
    };
    if let Some(prev) = &previous {
        prev.flush();
    }
    previous
}

/// Flushes the installed recorder, if any.
///
/// # Panics
///
/// Panics if the recorder lock is poisoned.
pub fn flush() {
    if let Some(rec) = RECORDER.read().expect("recorder lock poisoned").as_ref() {
        rec.flush();
    }
}

/// Runs `f` with the installed recorder, if one is present.
pub(crate) fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if let Ok(slot) = RECORDER.read() {
        if let Some(rec) = slot.as_ref() {
            f(rec.as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monotonic() {
        let a = epoch_ns();
        let b = epoch_ns();
        assert!(b >= a);
    }

    #[test]
    fn null_recorder_does_not_enable() {
        // Safe against parallel unit tests: install/uninstall of a null
        // recorder never sets ENABLED, and integration tests that install
        // real recorders live in a serialized harness.
        install(Arc::new(NullRecorder));
        assert!(!recording());
        uninstall();
        assert!(!recording());
    }
}
