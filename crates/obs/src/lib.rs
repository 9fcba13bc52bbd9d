//! # lori-obs — zero-dependency observability for LORI
//!
//! All hand-rolled on `std` only:
//!
//! 1. **Span tracing** ([`span()`], [`span_with`], [`span_under`]): nested,
//!    monotonic-timed scopes recorded through a global [`Recorder`]. With
//!    no recorder installed, opening a span costs one relaxed atomic load —
//!    safe to leave in Monte Carlo inner loops. Spans carry process-unique
//!    ids; a worker thread opens its outermost span under the
//!    [`current_span_id`] its caller read, so recorded trees stay causally
//!    connected across threads.
//! 2. **Metrics** ([`counter`], [`gauge`]): a process-wide registry of
//!    counters and gauges keyed by static names.
//! 3. **Run manifests** ([`RunManifest`]): a JSON document per experiment
//!    run with seed, config, code version, wall time, per-phase breakdown,
//!    and a metrics snapshot, written with [`atomic_write`] (temp file,
//!    sync, rename), the one atomic writer every artifact shares.
//!
//! Install a [`JsonlRecorder`] to stream every event to an append-only
//! `.events.jsonl` file, or a [`MemoryRecorder`] in tests:
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
//! obs::uninstall(); // drops the recorder: the file lands under its name
//! ```

#![warn(missing_docs)]

pub(crate) mod fsio;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use fsio::atomic_write;
pub use json::Value;
pub use manifest::{version_string, PhaseRecord, RunManifest};
pub use metrics::{
    counter, gauge, registry, Counter, Gauge, MetricSnapshot, MetricValue, Registry,
};
pub use recorder::{Event, JsonlRecorder, MemoryRecorder, Recorder};
pub use span::{current_span_id, span, span_under, span_with, Span};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Fast-path switch: `true` only while a recorder is installed.
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
pub(crate) fn epoch_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Installs `recorder` as the process-wide event sink, replacing (and
/// flushing) any previous one.
///
/// # Panics
///
/// Panics if the recorder lock is poisoned.
pub fn install(recorder: Arc<dyn Recorder>) {
    // Pin the epoch before the first event so t_ns starts near zero.
    let _ = epoch_ns();
    let previous = {
        let mut slot = RECORDER.write().expect("recorder lock poisoned");
        ENABLED.store(true, Ordering::Relaxed);
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
}
