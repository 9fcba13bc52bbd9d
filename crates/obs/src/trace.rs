//! Trace-context propagation: process-unique span IDs and cross-thread
//! parent adoption.
//!
//! Every live span is assigned a process-unique id (`sid`, never 0) and
//! records the id of its parent: the innermost span open on the same
//! thread, or — for a thread's outermost span — the span adopted from
//! another thread via [`TraceContext::adopt`]. `lori-par` captures
//! [`TraceContext::current`] before spawning workers and adopts it inside
//! each worker, so `par.worker` spans are causally attributed to the sweep
//! span that spawned them instead of appearing as per-thread orphan roots.
//!
//! The context is two thread-local cells and one relaxed atomic counter:
//! capturing and adopting a context is allocation-free and safe to do per
//! task.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Span-id allocator. 0 is reserved for "no span".
static NEXT_SID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The innermost span currently open on this thread (0 = none).
    static CURRENT_SID: Cell<u64> = const { Cell::new(0) };
    /// Parent adopted from another thread; applies to this thread's
    /// outermost spans only (0 = none).
    static ADOPTED_SID: Cell<u64> = const { Cell::new(0) };
}

/// Allocates a fresh, process-unique span id.
pub(crate) fn next_sid() -> u64 {
    NEXT_SID.fetch_add(1, Ordering::Relaxed)
}

/// The parent a span opened right now would get: the innermost open span
/// on this thread, else the adopted cross-thread parent, else 0.
pub(crate) fn current_parent() -> u64 {
    let cur = CURRENT_SID.with(Cell::get);
    if cur != 0 {
        cur
    } else {
        ADOPTED_SID.with(Cell::get)
    }
}

/// Swaps this thread's innermost-open-span id, returning the previous one.
pub(crate) fn swap_current(sid: u64) -> u64 {
    CURRENT_SID.with(|c| {
        let prev = c.get();
        c.set(sid);
        prev
    })
}

/// A capture of the calling thread's span position, cheap to copy across
/// threads. Adopting it makes spans opened on the adopting thread children
/// of the captured span.
///
/// ```
/// let ctx = lori_obs::TraceContext::current();
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         let _ctx = ctx.adopt();
///         let _span = lori_obs::span("worker.task"); // child of the captured span
///     });
/// });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    parent: u64,
}

impl TraceContext {
    /// Captures the calling thread's innermost open span (or its adopted
    /// parent when no span is open). Works whether or not recording is
    /// enabled: with tracing off the context is simply empty.
    #[must_use]
    pub fn current() -> Self {
        TraceContext {
            parent: current_parent(),
        }
    }

    /// An empty context; adopting it detaches the thread from any parent.
    #[must_use]
    pub fn root() -> Self {
        TraceContext { parent: 0 }
    }

    /// The captured span id (0 when none was open).
    #[must_use]
    pub fn parent_sid(&self) -> u64 {
        self.parent
    }

    /// Makes this context the parent of the calling thread's outermost
    /// spans until the returned guard drops (restoring the previous
    /// adoption, so adoptions nest).
    pub fn adopt(&self) -> ContextGuard {
        let prev = ADOPTED_SID.with(|a| {
            let prev = a.get();
            a.set(self.parent);
            prev
        });
        ContextGuard {
            prev,
            _not_send: PhantomData,
        }
    }
}

/// Restores the thread's previous adopted parent on drop. `!Send`: it must
/// drop on the thread that adopted.
#[must_use = "dropping the guard immediately undoes the adoption"]
#[derive(Debug)]
pub struct ContextGuard {
    prev: u64,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        ADOPTED_SID.with(|a| a.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sids_are_unique_and_nonzero() {
        let a = next_sid();
        let b = next_sid();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn adoption_nests_and_restores() {
        assert_eq!(TraceContext::current().parent_sid(), 0);
        let outer = TraceContext { parent: 7 };
        let inner = TraceContext { parent: 9 };
        {
            let _g1 = outer.adopt();
            assert_eq!(current_parent(), 7);
            {
                let _g2 = inner.adopt();
                assert_eq!(current_parent(), 9);
            }
            assert_eq!(current_parent(), 7);
        }
        assert_eq!(current_parent(), 0);
    }

    #[test]
    fn open_span_shadows_adoption() {
        let ctx = TraceContext { parent: 5 };
        let _g = ctx.adopt();
        let prev = swap_current(11);
        assert_eq!(prev, 0);
        assert_eq!(current_parent(), 11, "innermost open span wins");
        swap_current(prev);
        assert_eq!(current_parent(), 5, "falls back to adopted parent");
    }
}
