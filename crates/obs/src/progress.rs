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

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default milliseconds between heartbeat lines.
const DEFAULT_INTERVAL_MS: u64 = 1000;

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

/// A heartbeat for one phase: share by reference across worker threads,
/// call [`Progress::tick`] per completed unit. Emits nothing unless
/// `LORI_PROGRESS=stderr` is set; always emits a final summary line (when
/// enabled) on drop.
#[derive(Debug)]
pub struct Progress {
    phase: &'static str,
    total: u64,
    done: AtomicU64,
    /// Elapsed-millisecond threshold the next heartbeat may print at.
    next_print_ms: AtomicU64,
    interval_ms: u64,
    t0: Instant,
    enabled: bool,
}

impl Progress {
    /// Starts a heartbeat for `phase` with a known unit count (0 when the
    /// total is unknown; the line then omits percentage and ETA).
    #[must_use]
    pub fn start(phase: &'static str, total: u64) -> Self {
        let interval_ms = interval_ms();
        Progress {
            phase,
            total,
            done: AtomicU64::new(0),
            next_print_ms: AtomicU64::new(interval_ms),
            interval_ms,
            t0: Instant::now(),
            enabled: progress_enabled(),
        }
    }

    /// Records one completed unit; prints a heartbeat when the interval
    /// has elapsed.
    pub fn tick(&self) {
        self.add(1);
    }

    /// Records `n` completed units.
    pub fn add(&self, n: u64) {
        let done = self.done.fetch_add(n, Ordering::Relaxed) + n;
        if !self.enabled {
            return;
        }
        let elapsed_ms = self.elapsed_ms();
        let due = self.next_print_ms.load(Ordering::Relaxed);
        if elapsed_ms < due {
            return;
        }
        // One thread wins the right to print this interval; the rest skip.
        if self
            .next_print_ms
            .compare_exchange(
                due,
                elapsed_ms + self.interval_ms,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            eprintln!("{}", self.line(done, elapsed_ms));
        }
    }

    /// Units completed so far.
    #[must_use]
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

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
        if self.enabled {
            eprintln!("{} done", self.line(self.done(), self.elapsed_ms()));
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
        assert!(!p.enabled, "disabled without LORI_PROGRESS");
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
        assert!(p.enabled);
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
}
