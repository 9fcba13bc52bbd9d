//! The `LORI_PROGRESS` heartbeat: periodic progress lines for long runs.
//!
//! A multi-minute sweep that prints nothing until its manifest appears is
//! indistinguishable from a hung one. With `LORI_PROGRESS=stderr` set,
//! instrumented loops emit heartbeat lines like
//!
//! ```text
//! progress: sweep 412/1300 (31.7%) elapsed 12.4s eta 26.7s
//! ```
//!
//! at most once per interval (default 1000 ms, `LORI_PROGRESS_MS`
//! overrides), plus one final line when the phase completes. Heartbeats go
//! to stderr so they never contaminate stdout tables or piped output, and
//! the ETA is the naive linear extrapolation — honest enough for "is it
//! moving and roughly how long", which is all a heartbeat owes you.
//!
//! Disabled (the default), [`Progress::tick`] is one relaxed atomic add
//! and a branch — safe to leave in per-sample inner loops.
//!
//! Every live [`Progress`] also registers itself (weakly) with a global
//! registry, so the telemetry endpoint can report sweep progress over HTTP
//! via [`snapshot`] regardless of whether stderr heartbeats are on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::Instant;

/// Default milliseconds between heartbeat lines.
const DEFAULT_INTERVAL_MS: u64 = 1000;

/// Live progress trackers, held weakly: a tracker leaves the registry when
/// its phase completes (the `Progress` drops).
static REGISTRY: Mutex<Vec<Weak<Inner>>> = Mutex::new(Vec::new());

/// `true` when `LORI_PROGRESS` asks for stderr heartbeats.
#[must_use]
pub fn progress_enabled() -> bool {
    matches!(
        std::env::var("LORI_PROGRESS").as_deref(),
        Ok("stderr" | "1" | "on")
    )
}

fn interval_ms() -> u64 {
    std::env::var("LORI_PROGRESS_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(DEFAULT_INTERVAL_MS)
}

#[derive(Debug)]
struct Inner {
    phase: &'static str,
    total: u64,
    done: AtomicU64,
    /// Elapsed-millisecond threshold the next heartbeat may print at.
    next_print_ms: AtomicU64,
    interval_ms: u64,
    t0: Instant,
    enabled: bool,
}

/// A point-in-time reading of one live progress tracker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Phase label passed to [`Progress::start`].
    pub phase: &'static str,
    /// Units completed so far.
    pub done: u64,
    /// Total units (0 = unknown).
    pub total: u64,
    /// Milliseconds since the phase started.
    pub elapsed_ms: u64,
}

/// Reads every live tracker, in start order. Completed phases (dropped
/// trackers) are pruned as a side effect.
#[must_use]
pub fn snapshot() -> Vec<ProgressSnapshot> {
    let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    registry.retain(|w| w.strong_count() > 0);
    registry
        .iter()
        .filter_map(Weak::upgrade)
        .map(|inner| ProgressSnapshot {
            phase: inner.phase,
            done: inner.done.load(Ordering::Relaxed),
            total: inner.total,
            elapsed_ms: u64::try_from(inner.t0.elapsed().as_millis()).unwrap_or(u64::MAX),
        })
        .collect()
}

/// A heartbeat for one phase: share by reference across worker threads,
/// call [`Progress::tick`] per completed unit. Emits nothing unless
/// `LORI_PROGRESS=stderr` is set; always emits a final summary line (when
/// enabled) on drop. Visible to the telemetry endpoint through
/// [`snapshot`] for its whole lifetime either way.
#[derive(Debug)]
pub struct Progress {
    inner: Arc<Inner>,
}

impl Progress {
    /// Starts a heartbeat for `phase` with a known unit count (0 when the
    /// total is unknown; the line then omits percentage and ETA).
    #[must_use]
    pub fn start(phase: &'static str, total: u64) -> Self {
        let interval_ms = interval_ms();
        let inner = Arc::new(Inner {
            phase,
            total,
            done: AtomicU64::new(0),
            next_print_ms: AtomicU64::new(interval_ms),
            interval_ms,
            t0: Instant::now(),
            enabled: progress_enabled(),
        });
        let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        registry.retain(|w| w.strong_count() > 0);
        registry.push(Arc::downgrade(&inner));
        drop(registry);
        Progress { inner }
    }

    /// Records one completed unit; prints a heartbeat when the interval
    /// has elapsed.
    pub fn tick(&self) {
        self.add(1);
    }

    /// Records `n` completed units.
    pub fn add(&self, n: u64) {
        let inner = &self.inner;
        let done = inner.done.fetch_add(n, Ordering::Relaxed) + n;
        if !inner.enabled {
            return;
        }
        let elapsed_ms = u64::try_from(inner.t0.elapsed().as_millis()).unwrap_or(u64::MAX);
        let due = inner.next_print_ms.load(Ordering::Relaxed);
        if elapsed_ms < due {
            return;
        }
        // One thread wins the right to print this interval; the rest skip.
        if inner
            .next_print_ms
            .compare_exchange(
                due,
                elapsed_ms + inner.interval_ms,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            eprintln!("{}", inner.line(done, elapsed_ms));
        }
    }

    /// Units completed so far.
    #[must_use]
    pub fn done(&self) -> u64 {
        self.inner.done.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    fn enabled(&self) -> bool {
        self.inner.enabled
    }

    #[cfg(test)]
    fn line(&self, done: u64, elapsed_ms: u64) -> String {
        self.inner.line(done, elapsed_ms)
    }
}

impl Inner {
    #[allow(clippy::cast_precision_loss)]
    fn line(&self, done: u64, elapsed_ms: u64) -> String {
        let elapsed_s = elapsed_ms as f64 / 1e3;
        if self.total > 0 {
            let frac = done as f64 / self.total as f64;
            let eta_s = if done > 0 && done < self.total {
                elapsed_s * (self.total - done) as f64 / done as f64
            } else {
                0.0
            };
            format!(
                "progress: {} {done}/{} ({:.1}%) elapsed {elapsed_s:.1}s eta {eta_s:.1}s",
                self.phase,
                self.total,
                frac * 100.0
            )
        } else {
            format!(
                "progress: {} {done} units elapsed {elapsed_s:.1}s",
                self.phase
            )
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        if self.inner.enabled {
            let elapsed_ms = u64::try_from(self.inner.t0.elapsed().as_millis()).unwrap_or(u64::MAX);
            eprintln!("{} done", self.inner.line(self.done(), elapsed_ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var toggles are process-global, so one test exercises both modes.
    #[test]
    fn progress_counts_and_formats() {
        std::env::remove_var("LORI_PROGRESS");
        let p = Progress::start("sweep", 1300);
        assert!(!p.enabled(), "disabled without LORI_PROGRESS");
        for _ in 0..412 {
            p.tick();
        }
        assert_eq!(p.done(), 412);
        let line = p.line(412, 12_400);
        assert_eq!(
            line,
            "progress: sweep 412/1300 (31.7%) elapsed 12.4s eta 26.7s"
        );

        // Unknown total: no percentage, no ETA.
        let p = Progress::start("train", 0);
        p.add(7);
        assert_eq!(p.line(7, 2_000), "progress: train 7 units elapsed 2.0s");

        // Completed phase: ETA collapses to zero.
        let p = Progress::start("sweep", 10);
        p.add(10);
        assert!(p.line(10, 1_000).contains("eta 0.0s"));

        std::env::set_var("LORI_PROGRESS", "stderr");
        let p = Progress::start("sweep", 4);
        assert!(p.enabled());
        p.tick();
        std::env::remove_var("LORI_PROGRESS");
    }

    #[test]
    fn interval_env_override() {
        std::env::set_var("LORI_PROGRESS_MS", "250");
        assert_eq!(interval_ms(), 250);
        std::env::set_var("LORI_PROGRESS_MS", "0");
        assert_eq!(interval_ms(), DEFAULT_INTERVAL_MS, "zero falls back");
        std::env::set_var("LORI_PROGRESS_MS", "nope");
        assert_eq!(interval_ms(), DEFAULT_INTERVAL_MS);
        std::env::remove_var("LORI_PROGRESS_MS");
        assert_eq!(interval_ms(), DEFAULT_INTERVAL_MS);
    }

    #[test]
    fn registry_tracks_live_trackers_only() {
        let p = Progress::start("unit.registry", 100);
        p.add(40);
        let snap = snapshot();
        let mine = snap
            .iter()
            .find(|s| s.phase == "unit.registry")
            .expect("live tracker visible");
        assert_eq!(mine.done, 40);
        assert_eq!(mine.total, 100);
        drop(p);
        assert!(
            !snapshot().iter().any(|s| s.phase == "unit.registry"),
            "dropped tracker pruned"
        );
    }
}
