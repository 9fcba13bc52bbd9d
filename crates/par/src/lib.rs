//! # lori-par — deterministic std-only parallelism for LORI
//!
//! The workspace's hot loops (the Sec. V-D Monte Carlo sweep, library
//! characterization, ML-characterizer training, HDC batch encoding) are
//! embarrassingly parallel: every task owns a pre-split [`lori_core::Rng`]
//! sub-stream or is a pure function of its input. This crate fans those
//! tasks out over scoped OS threads while keeping one hard contract:
//!
//! **The output of [`par_map`] is identical — bit for bit — for every
//! worker count, including the serial fast path.**
//!
//! That holds because work is partitioned by *index*, never by timing:
//! each item's closure receives exactly the same inputs it would receive
//! serially, results are written back into their input slot, and any
//! cross-task accumulation (obs counters, RNG splitting) happens either in
//! commutative atomics or serially before the fan-out.
//!
//! Worker counts resolve from the `LORI_THREADS` environment variable via
//! [`Parallelism::from_env`] (unset or `0` → all available cores; `1` →
//! serial fast path with zero thread spawns). Panics inside a task
//! propagate to the caller after all workers have stopped.

#![warn(missing_docs)]

use std::fmt;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// How many worker threads a parallel region may use.
///
/// `Parallelism` is a plain value — cheap to copy, explicit to pass — so
/// library code can be tested at fixed worker counts regardless of the
/// process environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Exactly one worker: the calling thread. [`par_map`] takes a
    /// zero-spawn fast path.
    #[must_use]
    pub fn serial() -> Self {
        Parallelism {
            threads: NonZeroUsize::MIN,
        }
    }

    /// A fixed worker count. `0` is clamped to `1`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// All cores the OS reports (at least one).
    #[must_use]
    pub fn available() -> Self {
        Parallelism {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// Resolves the worker count from `LORI_THREADS`.
    ///
    /// Unset, empty, unparsable, or `0` all mean "use every available
    /// core"; any other value is the exact thread count (`1` = serial).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("LORI_THREADS") {
            Ok(s) => match s.trim().parse::<usize>() {
                Ok(0) | Err(_) => Self::available(),
                Ok(n) => Self::new(n),
            },
            Err(_) => Self::available(),
        }
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// `true` when the region runs on the calling thread only.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.threads.get() == 1
    }
}

/// The process-wide default parallelism, resolved from `LORI_THREADS` once
/// on first use and cached for the lifetime of the process.
#[must_use]
pub fn global() -> Parallelism {
    static GLOBAL: OnceLock<Parallelism> = OnceLock::new();
    *GLOBAL.get_or_init(Parallelism::from_env)
}

/// Maps `f` over `items`, in parallel, preserving input order.
///
/// `f` receives `(index, &item)` so tasks can key into pre-split RNG
/// streams or shared lookup tables. The result vector satisfies
/// `out[i] == f(i, &items[i])` regardless of the worker count — workers
/// steal *indices* from a shared atomic cursor and write results back into
/// the slot of their index, so scheduling order never shows in the output.
///
/// Each worker opens a `par.worker` obs span (a no-op unless a recorder is
/// installed), so traces show the fan-out shape; metric counters touched
/// inside `f` are process-global atomics and stay exact under parallelism.
/// The caller's [`lori_obs::TraceContext`] is captured before the fan-out
/// and adopted inside every worker, so worker spans are recorded as
/// children of the span enclosing the `par_map` call rather than as
/// orphan per-thread roots.
///
/// # Panics
///
/// If `f` panics for any item, the panic is propagated to the caller after
/// every worker has stopped (first panicking worker in spawn order wins).
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = par.threads().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let slots_ptr = SlotWriter::new(&mut slots);
    // Captured once, outside the workers: every worker span becomes a
    // child of the span open at the call site.
    let ctx = lori_obs::TraceContext::current();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let f = &f;
            let slots_ptr = &slots_ptr;
            handles.push(scope.spawn(move || {
                let _ctx = ctx.adopt();
                let _span = lori_obs::span("par.worker");
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(i, &items[i]);
                    // Index `i` is claimed by exactly one worker, so this
                    // write is race-free (see SlotWriter).
                    unsafe { slots_ptr.write(i, out) };
                }
            }));
        }
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Maps `f` over fixed-size chunks of `items`, in parallel, preserving
/// chunk order.
///
/// `f` receives `(chunk_index, chunk)` where every chunk has `chunk_size`
/// elements except possibly the last. Chunk boundaries depend only on
/// `chunk_size` — never on the worker count — so the output is
/// deterministic under any [`Parallelism`]. Use this when per-item work is
/// too small to amortize dispatch (e.g. HDC batch encoding).
///
/// # Panics
///
/// Panics if `chunk_size == 0`; propagates panics from `f` like
/// [`par_map`].
pub fn par_chunks<T, R, F>(par: Parallelism, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    par_map(par, &chunks, |i, chunk| f(i, chunk))
}

/// What to do when a task panics inside a parallel region.
///
/// The default, [`RecoveryPolicy::FailFast`], matches [`par_map`]: the
/// panic propagates to the caller after every worker has stopped. Under
/// [`RecoveryPolicy::Quarantine`] each task runs inside `catch_unwind`;
/// a panicking task is retried deterministically (same index, same
/// inputs, up to `retries` times) and, if it keeps failing, quarantined:
/// its slot is reported as failed while every other task completes
/// normally. Because tasks are pure functions of their index, retries
/// and quarantines never perturb other tasks' results — the surviving
/// outputs are bit-identical to a fault-free run at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Propagate the first panic (the [`par_map`] contract).
    #[default]
    FailFast,
    /// Catch panics per task, retry deterministically, then quarantine.
    Quarantine {
        /// Re-executions to attempt after the first failure.
        retries: u32,
    },
}

impl RecoveryPolicy {
    /// Resolves the policy from `LORI_RECOVERY`: unset/blank/`fail-fast` →
    /// [`RecoveryPolicy::FailFast`]; `quarantine` or `quarantine:<n>` →
    /// [`RecoveryPolicy::Quarantine`] with `n` retries (default 1).
    ///
    /// # Errors
    ///
    /// Any other value is a [`RecoveryPolicyError`] naming it.
    pub fn from_env() -> Result<Self, RecoveryPolicyError> {
        match std::env::var("LORI_RECOVERY") {
            Ok(s) if !s.trim().is_empty() => Self::parse(&s),
            _ => Ok(Self::default()),
        }
    }

    /// Parses a `LORI_RECOVERY`-style policy string (see [`Self::from_env`]).
    ///
    /// # Errors
    ///
    /// Returns a [`RecoveryPolicyError`] for anything but `fail-fast`,
    /// `quarantine`, or `quarantine:<n>` (case-insensitive).
    pub fn parse(s: &str) -> Result<Self, RecoveryPolicyError> {
        let norm = s.trim().to_ascii_lowercase();
        let retries = match norm.as_str() {
            "fail-fast" => return Ok(RecoveryPolicy::FailFast),
            "quarantine" => Some(1),
            _ => norm
                .strip_prefix("quarantine:")
                .and_then(|n| n.parse().ok()),
        };
        retries
            .map(|retries| RecoveryPolicy::Quarantine { retries })
            .ok_or_else(|| RecoveryPolicyError {
                value: s.to_owned(),
            })
    }
}

/// A `LORI_RECOVERY` value that is not a recovery policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicyError {
    /// The rejected value, as given.
    pub value: String,
}

impl fmt::Display for RecoveryPolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid LORI_RECOVERY value {:?}: expected fail-fast, quarantine, or quarantine:<n>",
            self.value
        )
    }
}

impl std::error::Error for RecoveryPolicyError {}

/// One task that exhausted its retries under quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// The input index of the failed task.
    pub index: usize,
    /// Total executions attempted (1 + retries).
    pub attempts: u32,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// The outcome of [`par_map_recover`]: per-slot results plus the
/// quarantined failures in input order.
#[derive(Debug)]
pub struct RecoveredMap<R> {
    /// `results[i]` is `Some(f(i, &items[i]))`, or `None` when the task
    /// was quarantined.
    pub results: Vec<Option<R>>,
    /// Quarantined tasks, sorted by input index.
    pub failures: Vec<TaskFailure>,
}

impl<R> RecoveredMap<R> {
    /// `true` when every task completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// [`par_map`] with a panic-recovery policy.
///
/// Under [`RecoveryPolicy::FailFast`] this is exactly [`par_map`] (and
/// panics propagate). Under [`RecoveryPolicy::Quarantine`] every task
/// increments the `fault.tasks` obs counter and panicking tasks are
/// retried then quarantined; every retry increments `fault.retried` and
/// every quarantined task increments `fault.quarantined`, so run
/// manifests record the blast radius (and the derived
/// `fault.quarantine_rate` = quarantined / tasks). A quarantine also
/// dumps the [`lori_obs::flight`] recorder (when armed), leaving a black
/// box of the events leading up to the failure.
///
/// # Panics
///
/// Only under [`RecoveryPolicy::FailFast`], when `f` panics.
pub fn par_map_recover<T, R, F>(
    par: Parallelism,
    policy: RecoveryPolicy,
    items: &[T],
    f: F,
) -> RecoveredMap<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let RecoveryPolicy::Quarantine { retries } = policy else {
        return RecoveredMap {
            results: par_map(par, items, f).into_iter().map(Some).collect(),
            failures: Vec::new(),
        };
    };
    let retried = lori_obs::counter(lori_fault::METRIC_RETRIED);
    let quarantined = lori_obs::counter(lori_fault::METRIC_QUARANTINED);
    lori_obs::counter("fault.tasks").incr(items.len() as u64);
    let failures: Mutex<Vec<TaskFailure>> = Mutex::new(Vec::new());
    let results = par_map(par, items, |i, item| {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(out) => return Some(out),
                Err(payload) => {
                    if attempts <= retries {
                        retried.incr(1);
                        continue;
                    }
                    quarantined.incr(1);
                    // Black-box the events that led here (no-op unless the
                    // flight recorder is armed with a dump path).
                    let _ = lori_obs::flight::dump("quarantine");
                    failures
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(TaskFailure {
                            index: i,
                            attempts,
                            message: panic_message(payload.as_ref()),
                        });
                    return None;
                }
            }
        }
    });
    let mut failures = failures
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Completion order is worker-dependent; the report is input-ordered.
    failures.sort_by_key(|t| t.index);
    RecoveredMap { results, failures }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// A shared writer over pre-allocated result slots.
///
/// Safety contract: [`SlotWriter::write`] may be called at most once per
/// index, with distinct indices never racing. `par_map` guarantees this by
/// handing out each index exactly once through an atomic cursor.
struct SlotWriter<R> {
    base: *mut Option<R>,
    len: usize,
}

// The raw pointer is only dereferenced under par_map's exclusive-index
// protocol; the underlying buffer outlives the thread scope.
unsafe impl<R: Send> Sync for SlotWriter<R> {}

impl<R> SlotWriter<R> {
    fn new(slots: &mut [Option<R>]) -> Self {
        SlotWriter {
            base: slots.as_mut_ptr(),
            len: slots.len(),
        }
    }

    /// # Safety
    ///
    /// `i` must be in bounds and claimed by exactly one caller, ever.
    unsafe fn write(&self, i: usize, value: R) {
        debug_assert!(i < self.len);
        *self.base.add(i) = Some(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, &x: &u64| x.wrapping_mul(31).wrapping_add(i as u64);
        let serial = par_map(Parallelism::serial(), &items, f);
        for workers in [2, 3, 4, 8] {
            let parallel = par_map(Parallelism::new(workers), &items, f);
            assert_eq!(serial, parallel, "worker count {workers}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        let out = par_map(Parallelism::new(4), &items, |_, &x| x + 1);
        assert!(out.is_empty());
        let chunked = par_chunks(Parallelism::new(4), &items, 8, |_, c| c.len());
        assert!(chunked.is_empty());
    }

    #[test]
    fn single_item_takes_serial_fast_path() {
        let out = par_map(Parallelism::new(8), &[5u32], |i, &x| (i, x * 2));
        assert_eq!(out, vec![(0, 10)]);
    }

    #[test]
    fn panic_propagates_from_worker() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(Parallelism::new(4), &items, |_, &x| {
                assert!(x != 17, "poison item");
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("poison item"), "payload: {msg}");
    }

    #[test]
    fn panic_propagates_on_serial_path() {
        let result = std::panic::catch_unwind(|| {
            par_map(Parallelism::serial(), &[1u32], |_, _| -> u32 {
                panic!("serial poison")
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn par_chunks_boundaries_independent_of_workers() {
        let items: Vec<usize> = (0..100).collect();
        let f = |ci: usize, chunk: &[usize]| (ci, chunk.iter().sum::<usize>());
        let serial = par_chunks(Parallelism::serial(), &items, 7, f);
        let parallel = par_chunks(Parallelism::new(4), &items, 7, f);
        assert_eq!(serial, parallel);
        // 100 items in chunks of 7 → 15 chunks, last of size 2.
        assert_eq!(serial.len(), 15);
        assert_eq!(
            serial.iter().map(|&(_, s)| s).sum::<usize>(),
            (0..100).sum::<usize>()
        );
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = par_chunks(Parallelism::serial(), &[1u8], 0, |_, c| c.len());
    }

    #[test]
    fn parallelism_resolution() {
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(6).threads(), 6);
        assert!(Parallelism::available().threads() >= 1);
        // from_env reads the ambient variable; whatever it is, the result
        // is at least one thread.
        assert!(Parallelism::from_env().threads() >= 1);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn results_use_every_input() {
        // A map whose output encodes its index catches any slot misrouting.
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(Parallelism::new(4), &items, |i, &x| {
            assert_eq!(i, x);
            i * 2
        });
        assert_eq!(out.len(), 1000);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * 2);
        }
    }

    #[test]
    fn quarantine_isolates_the_poisoned_task() {
        let items: Vec<usize> = (0..64).collect();
        let clean = par_map(Parallelism::new(4), &items, |_, &x| x * 3);
        for workers in [1, 2, 4, 8] {
            let out = par_map_recover(
                Parallelism::new(workers),
                RecoveryPolicy::Quarantine { retries: 1 },
                &items,
                |_, &x| {
                    assert!(x != 17, "injected failure");
                    x * 3
                },
            );
            assert_eq!(out.failures.len(), 1);
            assert_eq!(out.failures[0].index, 17);
            assert_eq!(out.failures[0].attempts, 2, "1 try + 1 retry");
            assert!(out.failures[0].message.contains("injected failure"));
            assert!(!out.is_complete());
            for (i, slot) in out.results.iter().enumerate() {
                if i == 17 {
                    assert!(slot.is_none());
                } else {
                    assert_eq!(*slot, Some(clean[i]), "survivors bit-identical");
                }
            }
        }
    }

    #[test]
    fn quarantine_retry_recovers_transient_failures() {
        use std::sync::atomic::AtomicU32;
        let items = [0usize; 4];
        let tries = AtomicU32::new(0);
        let out = par_map_recover(
            Parallelism::serial(),
            RecoveryPolicy::Quarantine { retries: 2 },
            &items,
            |i, _| {
                // Task 2 fails on its first attempt only.
                if i == 2 && tries.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                i
            },
        );
        assert!(out.is_complete());
        assert_eq!(out.results, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(tries.load(Ordering::Relaxed), 2, "one retry consumed");
    }

    #[test]
    fn fail_fast_still_propagates() {
        let items: Vec<usize> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map_recover(
                Parallelism::serial(),
                RecoveryPolicy::FailFast,
                &items,
                |_, &x| {
                    assert!(x != 3, "boom");
                    x
                },
            )
        });
        assert!(caught.is_err());
    }

    #[test]
    fn recovery_policy_parsing() {
        assert_eq!(
            RecoveryPolicy::parse("fail-fast"),
            Ok(RecoveryPolicy::FailFast)
        );
        assert_eq!(
            RecoveryPolicy::parse("quarantine"),
            Ok(RecoveryPolicy::Quarantine { retries: 1 })
        );
        assert_eq!(
            RecoveryPolicy::parse(" Quarantine:3 "),
            Ok(RecoveryPolicy::Quarantine { retries: 3 })
        );
        for bad in [
            "nonsense",
            "quarantine:abc",
            "quarantinefoo",
            "quarantine:",
            "",
        ] {
            let err = RecoveryPolicy::parse(bad).expect_err(bad);
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains("LORI_RECOVERY"), "{err}");
        }
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::FailFast);
    }
}
