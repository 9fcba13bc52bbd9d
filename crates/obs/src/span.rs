//! Span tracing: nested, monotonic-timed scopes.
//!
//! [`span`] returns a guard; the span closes when the guard drops. Nesting
//! is tracked per thread, and every live span carries a process-unique
//! span id (`sid`) plus its parent's id (see [`crate::trace`]), so
//! recorders can reconstruct one causally-connected tree across worker
//! threads — `(tid, depth, t_ns)` still orders events within a thread.
//! When both recording and the flight recorder are disabled the guard is a
//! no-op created after two relaxed atomic loads — no clock read, no
//! allocation.

use crate::recorder::Event;
use crate::{active, epoch_ns, flight, recording, trace, with_recorder};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// The small per-process index of the calling thread.
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// An open span; closes (and records its duration) on drop.
#[must_use = "a span guard must be held for the duration of the scope"]
#[derive(Debug)]
pub struct Span {
    /// `None` when tracing was disabled at entry — drop does nothing.
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    name: &'static str,
    t0_ns: u64,
    tid: u64,
    depth: u32,
    sid: u64,
    /// This thread's innermost-open sid before this span opened; restored
    /// on drop.
    prev_sid: u64,
}

impl Span {
    /// The span's process-unique id, or 0 when tracing was disabled at
    /// entry.
    #[must_use]
    pub fn sid(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.sid)
    }
}

/// Opens a span named `name`.
pub fn span(name: &'static str) -> Span {
    span_inner(name, None)
}

/// Opens a span with a numeric attribute (e.g. the parameter value the
/// iteration is working on).
pub fn span_with(name: &'static str, attr: f64) -> Span {
    span_inner(name, Some(attr))
}

fn span_inner(name: &'static str, attr: Option<f64>) -> Span {
    if !active() {
        return Span { live: None };
    }
    let t0_ns = epoch_ns();
    let tid = current_tid();
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    let sid = trace::next_sid();
    let parent = trace::current_parent();
    let prev_sid = trace::swap_current(sid);
    if recording() {
        with_recorder(|rec| {
            rec.record(&Event::SpanEnter {
                name,
                t_ns: t0_ns,
                tid,
                depth,
                attr,
                sid,
                parent,
            });
        });
    }
    if flight::enabled() {
        flight::record_enter(name, t0_ns, tid, sid, parent, attr);
    }
    Span {
        live: Some(LiveSpan {
            name,
            t0_ns,
            tid,
            depth,
            sid,
            prev_sid,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        trace::swap_current(live.prev_sid);
        let t_ns = epoch_ns();
        let dur_ns = t_ns.saturating_sub(live.t0_ns);
        if recording() {
            with_recorder(|rec| {
                rec.record(&Event::SpanExit {
                    name: live.name,
                    t_ns,
                    tid: live.tid,
                    depth: live.depth,
                    dur_ns,
                    sid: live.sid,
                });
            });
        }
        if flight::enabled() {
            flight::record_exit(live.name, t_ns, live.tid, live.sid, dur_ns);
        }
    }
}

/// Times `f` under a span and returns its result.
pub fn in_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = span(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        // No recorder installed in this process at this point (tests that
        // install one serialize on the integration-test lock instead).
        let g = span("unit.disabled");
        assert!(g.live.is_none());
        assert_eq!(g.sid(), 0);
        drop(g);
        let out = in_span("unit.disabled2", || 7);
        assert_eq!(out, 7);
    }

    #[test]
    fn tids_are_distinct_per_thread() {
        let a = current_tid();
        let b = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, b);
    }
}
