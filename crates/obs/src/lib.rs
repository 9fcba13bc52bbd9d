//! # lori-obs — zero-dependency observability for LORI
//!
//! All hand-rolled on `std` only:
//!
//! 1. **Span tracing** ([`span`], [`span_with`], [`in_span`]): nested,
//!    monotonic-timed scopes recorded through a global [`Recorder`]. With
//!    no recorder installed (or the [`NullRecorder`]), opening a span costs
//!    one relaxed atomic load — safe to leave in Monte Carlo inner loops.
//!    Spans carry process-unique ids and [`TraceContext`] propagates them
//!    across worker threads, so recorded trees stay causally connected.
//! 2. **Metrics** ([`counter`], [`gauge`]): a process-wide registry of
//!    counters and gauges keyed by static names, plus the fixed-bucket
//!    [`Histogram`] with quantile estimates that `lori-report profile`
//!    uses for span durations.
//! 3. **Run manifests** ([`RunManifest`]): a JSON document per experiment
//!    run with seed, config, code version, wall time, per-phase breakdown,
//!    and a metrics snapshot, written with [`atomic_write`] (temp file,
//!    sync, rename), the one atomic writer every artifact shares.
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

pub(crate) mod fsio;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod recorder;
pub mod span;
pub mod trace;

pub use fsio::atomic_write;
pub use json::Value;
pub use manifest::{version_string, PhaseRecord, RunManifest};
pub use metrics::{
    counter, gauge, registry, Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry,
};
pub use recorder::{Event, JsonlRecorder, MemoryRecorder, NullRecorder, Recorder};
pub use span::{in_span, span, span_with, Span};
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
