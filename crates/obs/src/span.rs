//! Span tracing: nested, monotonic-timed scopes.
//!
//! [`span`] returns a guard; the span closes when the guard drops. Nesting
//! is tracked per thread, and every live span carries a process-unique
//! span id (`sid`, from one atomic counter; 0 means "none") plus its
//! parent's id: the innermost span open on the same thread, or, for
//! [`span_under`], the parent the caller names. `lori-par` reads
//! [`current_span_id`] before it fans out and opens each worker span under
//! that id, so recorders can reconstruct one causally-connected tree across
//! worker threads, while `(tid, depth, t_ns)` still orders events within a
//! thread. When recording is disabled the guard is a no-op created after
//! one relaxed atomic load: no clock read, no allocation.

use crate::recorder::Event;
use crate::{epoch_ns, recording, with_recorder};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Span-id allocator. 0 is reserved for "no span".
static NEXT_SID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// The innermost span currently open on this thread (0 = none).
    static CURRENT_SID: Cell<u64> = const { Cell::new(0) };
}

/// The small per-process index of the calling thread.
fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// Allocates a fresh, process-unique span id.
fn next_sid() -> u64 {
    NEXT_SID.fetch_add(1, Ordering::Relaxed)
}

/// The id of the innermost span open on the calling thread, or 0 when none
/// is (always 0 while recording is off).
#[must_use]
pub fn current_span_id() -> u64 {
    CURRENT_SID.with(Cell::get)
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

/// Opens a span named `name`.
pub fn span(name: &'static str) -> Span {
    span_inner(name, None, None)
}

/// Opens a span with a numeric attribute (e.g. the parameter value the
/// iteration is working on).
pub fn span_with(name: &'static str, attr: f64) -> Span {
    span_inner(name, None, Some(attr))
}

/// Opens a span whose parent is `parent`, a [`current_span_id`] read on
/// another thread, instead of the innermost span open on this one. Spans
/// opened inside it nest under it as usual.
///
/// ```
/// let parent = lori_obs::current_span_id();
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         let _worker = lori_obs::span_under("worker.task", parent);
///         let _step = lori_obs::span("worker.step"); // child of worker.task
///     });
/// });
/// ```
pub fn span_under(name: &'static str, parent: u64) -> Span {
    span_inner(name, Some(parent), None)
}

fn span_inner(name: &'static str, parent: Option<u64>, attr: Option<f64>) -> Span {
    if !recording() {
        return Span { live: None };
    }
    let t0_ns = epoch_ns();
    let tid = current_tid();
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    let sid = next_sid();
    let prev_sid = CURRENT_SID.with(|c| c.replace(sid));
    let parent = parent.unwrap_or(prev_sid);
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
        CURRENT_SID.with(|c| c.set(live.prev_sid));
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
    }
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
        assert_eq!(current_span_id(), 0);
        drop(g);
        let g = span_under("unit.disabled2", 7);
        assert!(g.live.is_none());
        assert_eq!(current_span_id(), 0);
    }

    #[test]
    fn sids_are_unique_and_nonzero() {
        let a = next_sid();
        let b = next_sid();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn tids_are_distinct_per_thread() {
        let a = current_tid();
        let b = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, b);
    }
}
