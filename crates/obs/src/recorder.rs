//! Event sinks: the [`Recorder`] trait and its two implementations.
//!
//! A recorder receives every span and gauge event from the instrumented
//! code. At most one recorder is installed globally (see
//! [`crate::install`]); while none is, instrumentation short-circuits on a
//! single relaxed atomic load, so disabled tracing costs nothing measurable
//! on hot paths.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// One observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// A span opened.
    SpanEnter {
        /// Static span name, dot-separated (`layer.component.op`).
        name: &'a str,
        /// Monotonic nanoseconds since the recorder was installed.
        t_ns: u64,
        /// Small per-process thread index (not the OS thread id).
        tid: u64,
        /// Nesting depth on this thread (0 = top level).
        depth: u32,
        /// Optional numeric attribute (e.g. the sweep's error probability).
        attr: Option<f64>,
        /// Process-unique span id (never 0 for live spans).
        sid: u64,
        /// Parent span id: the innermost span open on this thread, or the
        /// cross-thread parent named through [`crate::span_under`]; 0 for
        /// roots.
        parent: u64,
    },
    /// A span closed.
    SpanExit {
        /// Static span name, matching the corresponding enter.
        name: &'a str,
        /// Monotonic nanoseconds since the recorder was installed.
        t_ns: u64,
        /// Small per-process thread index.
        tid: u64,
        /// Nesting depth on this thread.
        depth: u32,
        /// Span duration in nanoseconds.
        dur_ns: u64,
        /// Process-unique span id, matching the corresponding enter.
        sid: u64,
    },
    /// A gauge was set.
    Gauge {
        /// Static gauge name.
        name: &'a str,
        /// Monotonic nanoseconds since the recorder was installed.
        t_ns: u64,
        /// New gauge value.
        value: f64,
    },
}

impl Event<'_> {
    /// Serializes the event as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json_line(&mut out);
        out
    }

    /// Appends the event's JSON line (no trailing newline) to `out`.
    ///
    /// This is a direct serializer — no intermediate [`Value`] tree, no
    /// per-field allocations — because it runs once per event on the
    /// recording hot path. It shares the number/string writers with the
    /// [`Value`] serializer, so the bytes are identical to building the
    /// equivalent object and calling [`Value::to_json`] (pinned by a test).
    ///
    /// [`Value`]: crate::Value
    /// [`Value::to_json`]: crate::Value::to_json
    #[allow(clippy::cast_precision_loss)]
    pub fn write_json_line(&self, out: &mut String) {
        use crate::json::{write_num, write_str};
        let (kind, name, t_ns) = match *self {
            Event::SpanEnter { name, t_ns, .. } => ("enter", name, t_ns),
            Event::SpanExit { name, t_ns, .. } => ("exit", name, t_ns),
            Event::Gauge { name, t_ns, .. } => ("gauge", name, t_ns),
        };
        out.push_str("{\"ev\":\"");
        out.push_str(kind);
        out.push_str("\",\"name\":");
        write_str(name, out);
        out.push_str(",\"t_ns\":");
        write_num(t_ns as f64, out);
        match *self {
            Event::SpanEnter {
                tid,
                depth,
                attr,
                sid,
                parent,
                ..
            } => {
                out.push_str(",\"tid\":");
                write_num(tid as f64, out);
                out.push_str(",\"depth\":");
                write_num(f64::from(depth), out);
                out.push_str(",\"sid\":");
                write_num(sid as f64, out);
                if parent != 0 {
                    out.push_str(",\"parent\":");
                    write_num(parent as f64, out);
                }
                if let Some(a) = attr {
                    out.push_str(",\"attr\":");
                    write_num(a, out);
                }
            }
            Event::SpanExit {
                tid,
                depth,
                dur_ns,
                sid,
                ..
            } => {
                out.push_str(",\"tid\":");
                write_num(tid as f64, out);
                out.push_str(",\"depth\":");
                write_num(f64::from(depth), out);
                out.push_str(",\"dur_ns\":");
                write_num(dur_ns as f64, out);
                out.push_str(",\"sid\":");
                write_num(sid as f64, out);
            }
            Event::Gauge { value, .. } => {
                out.push_str(",\"value\":");
                write_num(value, out);
            }
        }
        out.push('}');
    }
}

/// An event sink. Implementations must be cheap and thread-safe: events
/// arrive from any thread, potentially concurrently.
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event<'_>);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Appends events to a file, one JSON object per line.
///
/// Each event is serialized first and then written under one writer lock,
/// so lines land whole and in record order, and each thread's events keep
/// their order. The stream goes to a same-directory temp file that is
/// renamed onto the destination when the recorder drops (after
/// [`crate::uninstall`] releases the last reference): a previous run's
/// complete event log is never replaced by a partial one, and a killed
/// process leaves only the temp file.
#[derive(Debug)]
pub struct JsonlRecorder {
    writer: Mutex<BufWriter<File>>,
    tmp: PathBuf,
    path: PathBuf,
}

impl JsonlRecorder {
    /// Creates the temp sibling of `path` that the stream goes to until
    /// the recorder drops.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let tmp = crate::fsio::tmp_sibling(&path);
        let file = File::create(&tmp)?;
        Ok(JsonlRecorder {
            writer: Mutex::new(BufWriter::new(file)),
            tmp,
            path,
        })
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let writer = self
            .writer
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let _ = writer.flush();
        let _ = std::fs::rename(&self.tmp, &self.path);
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &Event<'_>) {
        let mut line = String::with_capacity(128);
        event.write_json_line(&mut line);
        line.push('\n');
        let mut writer = self.writer.lock().expect("jsonl writer poisoned");
        let _ = writer.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl writer poisoned").flush();
    }
}

/// Collects event lines in memory; the test and bench recorder.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    lines: Mutex<Vec<String>>,
}

impl MemoryRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded JSON lines, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory recorder poisoned").clone()
    }

    /// Number of recorded events.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.lock().expect("memory recorder poisoned").len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: &Event<'_>) {
        self.lines
            .lock()
            .expect("memory recorder poisoned")
            .push(event.to_json_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    /// The direct serializer must emit exactly the bytes the [`Value`]
    /// builder would, for every variant and formatting corner (scientific
    /// notation, integral floats, escapes in names).
    #[test]
    fn direct_serializer_matches_value_builder() {
        let cases = [
            Event::SpanEnter {
                name: "layer.comp\"op",
                t_ns: 2_277_937,
                tid: 3,
                depth: 2,
                attr: Some(1e-6),
                sid: 41,
                parent: 40,
            },
            Event::SpanEnter {
                name: "a",
                t_ns: 0,
                tid: 0,
                depth: 0,
                attr: Some(0.000_000_01),
                sid: 1,
                parent: 0,
            },
            Event::SpanEnter {
                name: "a",
                t_ns: u64::MAX,
                tid: 17,
                depth: 40,
                attr: None,
                sid: u64::MAX >> 12,
                parent: 2,
            },
            Event::SpanExit {
                name: "a.b.c",
                t_ns: 9,
                tid: 1,
                depth: 0,
                dur_ns: 123_456_789,
                sid: 7,
            },
            Event::Gauge {
                name: "g",
                t_ns: 42,
                value: -3.25,
            },
            Event::Gauge {
                name: "g",
                t_ns: 42,
                value: 7.0,
            },
        ];
        for ev in &cases {
            let via_value = {
                let (kind, name, t_ns) = match *ev {
                    Event::SpanEnter { name, t_ns, .. } => ("enter", name, t_ns),
                    Event::SpanExit { name, t_ns, .. } => ("exit", name, t_ns),
                    Event::Gauge { name, t_ns, .. } => ("gauge", name, t_ns),
                };
                let mut members = vec![
                    ("ev".to_owned(), Value::from(kind)),
                    ("name".to_owned(), Value::from(name)),
                    ("t_ns".to_owned(), Value::from(t_ns)),
                ];
                match *ev {
                    Event::SpanEnter {
                        tid,
                        depth,
                        attr,
                        sid,
                        parent,
                        ..
                    } => {
                        members.push(("tid".to_owned(), Value::from(tid)));
                        members.push(("depth".to_owned(), Value::from(u64::from(depth))));
                        members.push(("sid".to_owned(), Value::from(sid)));
                        if parent != 0 {
                            members.push(("parent".to_owned(), Value::from(parent)));
                        }
                        if let Some(a) = attr {
                            members.push(("attr".to_owned(), Value::from(a)));
                        }
                    }
                    Event::SpanExit {
                        tid,
                        depth,
                        dur_ns,
                        sid,
                        ..
                    } => {
                        members.push(("tid".to_owned(), Value::from(tid)));
                        members.push(("depth".to_owned(), Value::from(u64::from(depth))));
                        members.push(("dur_ns".to_owned(), Value::from(dur_ns)));
                        members.push(("sid".to_owned(), Value::from(sid)));
                    }
                    Event::Gauge { value, .. } => {
                        members.push(("value".to_owned(), Value::from(value)));
                    }
                }
                Value::Obj(members).to_json()
            };
            assert_eq!(ev.to_json_line(), via_value, "for {ev:?}");
        }
    }

    #[test]
    fn event_lines_parse_back() {
        let enter = Event::SpanEnter {
            name: "a.b",
            t_ns: 5,
            tid: 1,
            depth: 0,
            attr: Some(1e-6),
            sid: 3,
            parent: 2,
        };
        let v = Value::parse(&enter.to_json_line()).unwrap();
        assert_eq!(v.get("ev").and_then(Value::as_str), Some("enter"));
        assert_eq!(v.get("name").and_then(Value::as_str), Some("a.b"));
        assert_eq!(v.get("attr").and_then(Value::as_f64), Some(1e-6));
        assert_eq!(v.get("sid").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("parent").and_then(Value::as_f64), Some(2.0));

        let root = Event::SpanEnter {
            name: "a",
            t_ns: 5,
            tid: 1,
            depth: 0,
            attr: None,
            sid: 1,
            parent: 0,
        };
        let v = Value::parse(&root.to_json_line()).unwrap();
        assert!(v.get("parent").is_none(), "parent omitted for roots");

        let exit = Event::SpanExit {
            name: "a.b",
            t_ns: 9,
            tid: 1,
            depth: 0,
            dur_ns: 4,
            sid: 3,
        };
        let v = Value::parse(&exit.to_json_line()).unwrap();
        assert_eq!(v.get("dur_ns").and_then(Value::as_f64), Some(4.0));
        assert_eq!(v.get("sid").and_then(Value::as_f64), Some(3.0));
    }

    fn gauge_event(name: &'static str, t_ns: u64) -> Event<'static> {
        Event::Gauge {
            name,
            t_ns,
            value: 1.0,
        }
    }

    #[test]
    fn jsonl_preserves_per_thread_order_and_loses_nothing() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lori-obs-order-{}.jsonl", std::process::id()));
        let rec = std::sync::Arc::new(JsonlRecorder::create(&path).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        rec.record(&Event::Gauge {
                            name: ["g0", "g1", "g2", "g3"][t],
                            t_ns: i,
                            value: 0.0,
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(rec);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut counts = [0u64; 4];
        let mut last_t = [None::<f64>; 4];
        for line in text.lines() {
            let v = Value::parse(line).expect("valid event line");
            let name = v.get("name").and_then(Value::as_str).unwrap();
            let idx = ["g0", "g1", "g2", "g3"]
                .iter()
                .position(|&n| n == name)
                .unwrap();
            counts[idx] += 1;
            let t = v.get("t_ns").and_then(Value::as_f64).unwrap();
            if let Some(prev) = last_t[idx] {
                assert!(t > prev, "per-thread order violated for {name}");
            }
            last_t[idx] = Some(t);
        }
        assert_eq!(counts, [500; 4], "no event may be dropped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_drains_and_renames_on_drop() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lori-obs-drop-{}.jsonl", std::process::id()));
        let rec = JsonlRecorder::create(&path).unwrap();
        rec.record(&gauge_event("g.drop", 1));
        assert!(
            !path.exists(),
            "the stream stays in its temp file until drop"
        );
        drop(rec); // well under the BufWriter's capacity: only drop writes it
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("g.drop"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_recorder_collects() {
        let rec = MemoryRecorder::new();
        assert!(rec.is_empty());
        rec.record(&Event::Gauge {
            name: "g",
            t_ns: 1,
            value: 2.0,
        });
        assert_eq!(rec.len(), 1);
        assert!(rec.lines()[0].contains("\"gauge\""));
    }
}
