//! Integration tests for lori-obs.
//!
//! The recorder slot is process-global, so every test that installs one
//! holds `RECORDER_TEST_LOCK` for its whole body; tests not touching the
//! recorder don't need it.

use lori_obs as obs;
use obs::{Event, Value};
use std::sync::{Arc, Mutex, MutexGuard};

static RECORDER_TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    // A panic under the lock in another test shouldn't cascade.
    RECORDER_TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs a memory recorder, runs `f`, uninstalls, returns parsed events.
fn record(f: impl FnOnce()) -> Vec<Value> {
    let rec = Arc::new(obs::MemoryRecorder::new());
    obs::install(Arc::clone(&rec) as Arc<dyn obs::Recorder>);
    f();
    obs::uninstall();
    rec.lines()
        .iter()
        .map(|l| Value::parse(l).expect("event line must parse"))
        .collect()
}

fn field_str<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap()
}

fn field_num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap()
}

#[test]
fn span_nesting_depth_and_ordering() {
    let _guard = lock();
    let events = record(|| {
        let _outer = obs::span("t.outer");
        {
            let _inner = obs::span_with("t.inner", 1e-6);
        }
        let _sibling = obs::span("t.sibling");
    });

    // enter(outer) enter(inner) exit(inner) enter(sibling) exit(sibling) exit(outer)
    let kinds: Vec<(String, String)> = events
        .iter()
        .map(|e| {
            (
                field_str(e, "ev").to_owned(),
                field_str(e, "name").to_owned(),
            )
        })
        .collect();
    assert_eq!(
        kinds,
        vec![
            ("enter".into(), "t.outer".into()),
            ("enter".into(), "t.inner".into()),
            ("exit".into(), "t.inner".into()),
            ("enter".into(), "t.sibling".into()),
            ("exit".into(), "t.sibling".into()),
            ("exit".into(), "t.outer".into()),
        ]
    );

    // Depth reflects nesting: inner and sibling both sit at depth 1.
    assert_eq!(field_num(&events[0], "depth"), 0.0);
    assert_eq!(field_num(&events[1], "depth"), 1.0);
    assert_eq!(field_num(&events[3], "depth"), 1.0);

    // The attribute survives the round trip.
    assert_eq!(field_num(&events[1], "attr"), 1e-6);

    // Timestamps are monotone within the thread and durations consistent.
    let times: Vec<f64> = events.iter().map(|e| field_num(e, "t_ns")).collect();
    assert!(times.windows(2).all(|w| w[1] >= w[0]));
    let inner_dur = field_num(&events[2], "dur_ns");
    assert!((inner_dur - (times[2] - times[1])).abs() < 1.0);
}

#[test]
fn jsonl_recorder_roundtrip_through_file() {
    let _guard = lock();
    let dir = std::env::temp_dir().join("lori-obs-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("roundtrip-{}.events.jsonl", std::process::id()));

    let rec = obs::JsonlRecorder::create(&path).unwrap();
    obs::install(Arc::new(rec));
    {
        let _s = obs::span_with("file.span", 0.25);
        obs::gauge("file.gauge").set(3.5);
    }
    obs::uninstall(); // drops the recorder, which renames the stream into place

    let text = std::fs::read_to_string(&path).unwrap();
    let events: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).expect("line parses"))
        .collect();
    assert_eq!(events.len(), 3, "enter + gauge + exit");
    assert_eq!(field_str(&events[0], "ev"), "enter");
    assert_eq!(field_str(&events[1], "ev"), "gauge");
    assert_eq!(field_num(&events[1], "value"), 3.5);
    assert_eq!(field_str(&events[2], "ev"), "exit");
    assert_eq!(field_str(&events[2], "name"), "file.span");
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_spans_and_metrics_smoke() {
    let _guard = lock();
    const THREADS: usize = 8;
    const SPANS_PER_THREAD: usize = 200;

    let events = record(|| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..SPANS_PER_THREAD {
                        let _outer = obs::span("mt.outer");
                        let _inner = obs::span("mt.inner");
                        obs::counter("mt.count").incr(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    // Every event parsed (checked in record()); enters and exits balance.
    let enters = events
        .iter()
        .filter(|e| field_str(e, "ev") == "enter")
        .count();
    let exits = events
        .iter()
        .filter(|e| field_str(e, "ev") == "exit")
        .count();
    assert_eq!(enters, THREADS * SPANS_PER_THREAD * 2);
    assert_eq!(enters, exits);

    // Per-thread streams are individually well-nested: depth alternates
    // 0,1 for enter and 1,0 for exit in that thread's order.
    let mut tids: Vec<u64> = events.iter().map(|e| field_num(e, "tid") as u64).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(tids.len() >= THREADS, "each thread gets its own tid");
    for tid in tids {
        let mut depth = 0i64;
        for e in events.iter().filter(|e| field_num(e, "tid") as u64 == tid) {
            match field_str(e, "ev") {
                "enter" => {
                    assert_eq!(field_num(e, "depth") as i64, depth);
                    depth += 1;
                }
                "exit" => {
                    depth -= 1;
                    assert_eq!(field_num(e, "depth") as i64, depth);
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "thread {tid} stream balances");
    }

    // Metrics aggregated exactly despite concurrency.
    assert_eq!(
        obs::counter("mt.count").get(),
        (THREADS * SPANS_PER_THREAD) as u64
    );
}

#[test]
fn disabled_recording_emits_nothing_and_is_cheap() {
    let _guard = lock();
    obs::uninstall();
    assert!(!obs::recording());
    let rec = Arc::new(obs::MemoryRecorder::new());
    {
        // Spans opened while disabled must not appear even if a recorder
        // is installed later.
        let _ghost = obs::span("t.ghost");
        obs::install(Arc::clone(&rec) as Arc<dyn obs::Recorder>);
    }
    obs::uninstall();
    assert!(
        rec.lines().iter().all(|l| !l.contains("t.ghost")),
        "a span opened while disabled must stay silent"
    );
}

#[test]
fn manifest_written_next_to_results() {
    let _guard = lock();
    let dir = std::env::temp_dir().join("lori-obs-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("manifest-{}.json", std::process::id()));

    let mut m = obs::RunManifest::start("exp-itest");
    m.set_seed(7);
    m.config("points", 16u64);
    m.push_phase("sweep", 5.0);
    m.finish(obs::registry().snapshot());
    m.write(&path).unwrap();

    let v = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(v.get("name").and_then(Value::as_str), Some("exp-itest"));
    assert_eq!(v.get("seed").and_then(Value::as_f64), Some(7.0));
    assert!(v.get("version").and_then(Value::as_str).is_some());
    assert!(v.get("metrics").is_some());
    std::fs::remove_file(&path).ok();
}

#[test]
fn event_enter_exit_gauge_schema_is_stable() {
    // Pure serialization — no global state involved.
    let line = Event::SpanEnter {
        name: "x",
        t_ns: 1,
        tid: 2,
        depth: 3,
        attr: None,
        sid: 7,
        parent: 0,
    }
    .to_json_line();
    assert_eq!(
        line,
        r#"{"ev":"enter","name":"x","t_ns":1,"tid":2,"depth":3,"sid":7}"#
    );
    let line = Event::SpanEnter {
        name: "x",
        t_ns: 1,
        tid: 2,
        depth: 3,
        attr: None,
        sid: 8,
        parent: 7,
    }
    .to_json_line();
    assert_eq!(
        line,
        r#"{"ev":"enter","name":"x","t_ns":1,"tid":2,"depth":3,"sid":8,"parent":7}"#
    );
    let line = Event::SpanExit {
        name: "x",
        t_ns: 9,
        tid: 2,
        depth: 3,
        dur_ns: 8,
        sid: 7,
    }
    .to_json_line();
    assert_eq!(
        line,
        r#"{"ev":"exit","name":"x","t_ns":9,"tid":2,"depth":3,"dur_ns":8,"sid":7}"#
    );
    let line = Event::Gauge {
        name: "g",
        t_ns: 4,
        value: 0.5,
    }
    .to_json_line();
    assert_eq!(line, r#"{"ev":"gauge","name":"g","t_ns":4,"value":0.5}"#);
}

#[test]
fn trace_context_attributes_cross_thread_children() {
    let _guard = lock();
    let mut read_sid = 0;
    let events = record(|| {
        assert_eq!(obs::current_span_id(), 0, "no span open yet");
        let parent = obs::span("tc.parent");
        let parent_sid = obs::current_span_id();
        assert_ne!(parent_sid, 0);
        read_sid = parent_sid;
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(move || {
                    let _w = obs::span_under("tc.worker", parent_sid);
                });
            }
        });
        // A detached root on this thread after the parent closes.
        drop(parent);
        let _detached = obs::span("tc.detached");
    });

    let find = |name: &str| -> Vec<&Value> {
        events
            .iter()
            .filter(|e| field_str(e, "ev") == "enter" && field_str(e, "name") == name)
            .collect()
    };
    let parent_sid = field_num(find("tc.parent")[0], "sid");
    assert_eq!(
        parent_sid, read_sid as f64,
        "current_span_id is the open span's sid"
    );
    let workers = find("tc.worker");
    assert_eq!(workers.len(), 3);
    for w in &workers {
        assert_eq!(
            field_num(w, "parent"),
            parent_sid,
            "worker records the spawning span as parent"
        );
        assert_ne!(field_num(w, "sid"), parent_sid, "sids stay unique");
    }
    assert!(
        find("tc.parent")[0].get("parent").is_none(),
        "top-level span has no parent field"
    );
    assert!(
        find("tc.detached")[0].get("parent").is_none(),
        "the named parent does not leak past the worker span"
    );

    // Exits carry the sid of the span they close.
    let worker_sids: Vec<f64> = workers.iter().map(|w| field_num(w, "sid")).collect();
    for e in events
        .iter()
        .filter(|e| field_str(e, "ev") == "exit" && field_str(e, "name") == "tc.worker")
    {
        assert!(worker_sids.contains(&field_num(e, "sid")));
    }
}
