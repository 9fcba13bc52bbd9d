//! `par_map`'s worker spans name the span open at the call site as their
//! parent, one worker span per spawned worker, and the serial path opens
//! none. The recorder slot is process-global, so this file is its own test
//! binary and its tests serialize on one lock.

use lori_obs::{self as obs, Value};
use lori_par::{par_map, Parallelism};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static RECORDER_TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDER_TEST_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` under a memory recorder and returns the enter events it
/// recorded.
fn enters(f: impl FnOnce()) -> Vec<Value> {
    let rec = Arc::new(obs::MemoryRecorder::new());
    obs::install(Arc::clone(&rec) as Arc<dyn obs::Recorder>);
    f();
    obs::uninstall();
    rec.lines()
        .iter()
        .map(|l| Value::parse(l).expect("event line parses"))
        .filter(|v| v.get("ev").and_then(Value::as_str) == Some("enter"))
        .collect()
}

fn named<'a>(events: &'a [Value], name: &str) -> Vec<&'a Value> {
    events
        .iter()
        .filter(|v| v.get("name").and_then(Value::as_str) == Some(name))
        .collect()
}

/// A span id member; 0 when absent, as for a root's `parent`.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn id(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_f64).map_or(0, |x| x as u64)
}

#[test]
fn worker_spans_are_children_of_the_call_site_span() {
    let _guard = lock();
    let items: Vec<u64> = (0..32).collect();
    let task = |_: usize, &x: &u64| {
        let _task = obs::span("t.task");
        x * 2
    };
    let (mut top_sid, mut nested_sid) = (0, 0);
    let events = enters(|| {
        {
            let _top = obs::span("t.top");
            top_sid = obs::current_span_id();
            let out = par_map(Parallelism::new(4), &items, task);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        let _outer = obs::span("t.outer");
        let _mid = obs::span("t.mid");
        let _inner = obs::span("t.inner");
        nested_sid = obs::current_span_id();
        par_map(Parallelism::new(4), &items[..3], task);
    });

    assert_ne!(top_sid, 0);
    assert_eq!(id(named(&events, "t.top")[0], "sid"), top_sid);
    let inner = named(&events, "t.inner")[0];
    assert_eq!(id(inner, "sid"), nested_sid);
    assert_eq!(
        id(inner, "depth"),
        2,
        "the second call site is nested two deep"
    );

    let workers = named(&events, "par.worker");
    let under = |parent: u64| workers.iter().filter(|w| id(w, "parent") == parent).count();
    assert_eq!(under(top_sid), 4, "min(4 workers, 32 items)");
    assert_eq!(under(nested_sid), 3, "min(4 workers, 3 items)");
    assert_eq!(workers.len(), 7, "every worker span names a call-site span");

    // Spans inside a task nest under their worker through its thread's stack.
    let worker_sids: Vec<u64> = workers.iter().map(|w| id(w, "sid")).collect();
    let tasks = named(&events, "t.task");
    assert_eq!(tasks.len(), 32 + 3);
    for t in tasks {
        assert!(
            worker_sids.contains(&id(t, "parent")),
            "task under a worker"
        );
        assert_eq!(id(t, "depth"), 1);
    }
}

#[test]
fn serial_path_opens_no_worker_span() {
    let _guard = lock();
    let items: Vec<u64> = (0..8).collect();
    let mut call_sid = 0;
    let events = enters(|| {
        let _call = obs::span("t.call");
        call_sid = obs::current_span_id();
        let task = |_: usize, &x: &u64| {
            let _task = obs::span("t.task");
            x
        };
        par_map(Parallelism::serial(), &items, task);
        par_map(Parallelism::new(4), &items[..1], task);
    });
    assert!(named(&events, "par.worker").is_empty());
    let tasks = named(&events, "t.task");
    assert_eq!(tasks.len(), 8 + 1);
    for t in tasks {
        assert_eq!(id(t, "parent"), call_sid, "tasks run on the calling thread");
    }
}
