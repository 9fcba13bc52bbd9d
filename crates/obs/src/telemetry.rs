//! The in-process telemetry endpoint: a std-only TCP/HTTP server exposing
//! live metrics, status, progress, and the flight recorder.
//!
//! Off by default. Set `LORI_TELEMETRY=<addr>` (e.g. `127.0.0.1:9464`, or
//! `127.0.0.1:0` for an ephemeral port) and the bench harness starts one
//! server per process, printing the bound address to stderr. Routes:
//!
//! | route       | payload                                                |
//! |-------------|--------------------------------------------------------|
//! | `/metrics`  | Prometheus text format: every registered metric, plus  |
//! |             | uptime, scrape count, and per-phase progress           |
//! | `/status`   | JSON: run name, phase, manifest-so-far, cache hit rate,|
//! |             | fault/quarantine counters, live progress               |
//! | `/progress` | JSON array of live [`crate::progress`] trackers        |
//! | `/flight`   | JSON flight-recorder snapshot ([`crate::flight`])      |
//!
//! The server is deliberately minimal: HTTP/1.1, `GET` only, one short
//! request per connection (`Connection: close`), thread per connection
//! with read/write timeouts. Scrape bookkeeping lives in module-local
//! atomics — never in the metric registry — so serving telemetry cannot
//! perturb the metrics snapshot a run writes to its manifest: artifacts
//! stay bit-identical with the endpoint on or off.

use crate::json::Value;
use crate::metrics::{registry, MetricValue};
use crate::progress;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Per-connection I/O timeout: a scraper that stalls longer than this is
/// dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request (line + headers) we bother reading.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Total scrapes served (module-local, intentionally not a registry
/// metric — see module docs).
static SCRAPES: AtomicU64 = AtomicU64::new(0);

/// Status document state, set by the harness as the run advances.
static STATUS: Mutex<RunStatus> = Mutex::new(RunStatus {
    run: None,
    phase: None,
    manifest_json: None,
});

struct RunStatus {
    run: Option<String>,
    phase: Option<String>,
    /// The run manifest serialized as of the last phase boundary.
    manifest_json: Option<String>,
}

/// The process-wide server started by [`init_from_env`], kept alive for
/// the process lifetime.
static GLOBAL: Mutex<Option<TelemetryServer>> = Mutex::new(None);

/// Records the current run name for `/status`.
pub fn set_run(name: &str) {
    status_lock().run = Some(name.to_owned());
}

/// Records the current phase for `/status`.
pub fn set_phase(phase: &str) {
    status_lock().phase = Some(phase.to_owned());
}

/// Records the manifest-so-far (a JSON document) for `/status`.
pub fn set_manifest_json(json: String) {
    status_lock().manifest_json = Some(json);
}

fn status_lock() -> std::sync::MutexGuard<'static, RunStatus> {
    STATUS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Starts the process-wide server if `LORI_TELEMETRY` names a bind
/// address. Idempotent: later calls return the already-bound address.
///
/// # Errors
///
/// Propagates the bind error when the requested address is unusable.
pub fn init_from_env() -> std::io::Result<Option<SocketAddr>> {
    let Ok(addr) = std::env::var("LORI_TELEMETRY") else {
        return Ok(None);
    };
    let addr = addr.trim().to_owned();
    if addr.is_empty() || addr == "off" || addr == "0" {
        return Ok(None);
    }
    let mut global = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(server) = global.as_ref() {
        return Ok(Some(server.addr()));
    }
    let server = serve(&addr)?;
    let bound = server.addr();
    *global = Some(server);
    Ok(Some(bound))
}

/// A running telemetry server. Dropping it (or calling
/// [`TelemetryServer::shutdown`]) stops the accept loop and unbinds.
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// The address the server actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and waits for it to exit. In-flight
    /// connections finish on their own threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in accept(); poke it awake.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and serves telemetry until the returned server shuts down.
///
/// # Errors
///
/// Propagates bind/spawn errors.
pub fn serve(addr: &str) -> std::io::Result<TelemetryServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("lori-telemetry".to_owned())
        .spawn(move || accept_loop(&listener, &accept_stop))?;
    Ok(TelemetryServer {
        addr: bound,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = std::thread::Builder::new()
            .name("lori-telemetry-conn".to_owned())
            .spawn(move || handle_connection(stream));
    }
}

fn handle_connection(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(request) => respond(&request),
        Err(status) => error_response(status),
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Reads the request head (line + headers) and returns the request line.
/// Errors carry the HTTP status to answer with.
fn read_request(stream: &mut TcpStream) -> Result<String, u16> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
                if buf.len() > MAX_REQUEST_BYTES {
                    return Err(400);
                }
            }
            Err(_) => return Err(400),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next().unwrap_or("").trim().to_owned();
    if line.is_empty() {
        return Err(400);
    }
    Ok(line)
}

fn respond(request_line: &str) -> String {
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return error_response(400);
    };
    if !version.starts_with("HTTP/") {
        return error_response(400);
    }
    if method != "GET" {
        return error_response(405);
    }
    // Ignore any query string; the routes take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    SCRAPES.fetch_add(1, Ordering::Relaxed);
    match path {
        "/" => text_response(
            200,
            "text/plain; charset=utf-8",
            "lori telemetry\nroutes: /metrics /status /progress /flight\n",
        ),
        "/metrics" => text_response(200, "text/plain; version=0.0.4", &prometheus_text()),
        "/status" => json_response(&status_value()),
        "/progress" => json_response(&progress_value()),
        "/flight" => json_response(&crate::flight::snapshot_value("scrape")),
        _ => error_response(404),
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    }
}

fn text_response(status: u16, content_type: &str, body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 128);
    out.push_str(&format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason(status),
        body.len()
    ));
    if status == 405 {
        out.push_str("allow: GET\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    out
}

fn json_response(doc: &Value) -> String {
    let body = doc.to_json() + "\n";
    text_response(200, "application/json", &body)
}

fn error_response(status: u16) -> String {
    text_response(
        status,
        "text/plain; charset=utf-8",
        &format!("{status} {}\n", reason(status)),
    )
}

/// A metric name in Prometheus charset: `[a-zA-Z0-9_]`, `lori_` prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("lori_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn prom_num(v: f64, out: &mut String) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else {
        out.push_str(&format!("{v}"));
    }
}

#[allow(clippy::cast_precision_loss)]
fn prometheus_text() -> String {
    let mut out = String::with_capacity(2048);
    for snap in registry().snapshot() {
        let name = prom_name(snap.name);
        match snap.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} "));
                prom_num(v, &mut out);
                out.push('\n');
            }
            MetricValue::Histogram {
                count,
                sum,
                p50,
                p95,
                p99,
            } => {
                out.push_str(&format!("# TYPE {name} summary\n"));
                for (q, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
                    out.push_str(&format!("{name}{{quantile=\"{q}\"}} "));
                    prom_num(v, &mut out);
                    out.push('\n');
                }
                out.push_str(&format!("{name}_sum "));
                prom_num(sum, &mut out);
                out.push('\n');
                out.push_str(&format!("{name}_count {count}\n"));
            }
        }
    }
    for p in progress::snapshot() {
        let phase = prom_name(p.phase);
        out.push_str(&format!(
            "# TYPE lori_progress_done counter\nlori_progress_done{{phase=\"{phase}\"}} {}\n",
            p.done
        ));
        out.push_str(&format!(
            "# TYPE lori_progress_total gauge\nlori_progress_total{{phase=\"{phase}\"}} {}\n",
            p.total
        ));
    }
    out.push_str(&format!(
        "# TYPE lori_uptime_seconds gauge\nlori_uptime_seconds {}\n",
        crate::epoch_ns() as f64 / 1e9
    ));
    out.push_str(&format!(
        "# TYPE lori_telemetry_scrapes counter\nlori_telemetry_scrapes {}\n",
        SCRAPES.load(Ordering::Relaxed)
    ));
    out
}

/// Reads a counter's value from a registry snapshot without registering
/// anything (registering would change the manifest's metric set).
fn counter_value(snaps: &[crate::MetricSnapshot], name: &str) -> u64 {
    snaps
        .iter()
        .find(|s| s.name == name)
        .and_then(|s| match s.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

#[allow(clippy::cast_precision_loss)]
fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[allow(clippy::cast_precision_loss)]
fn status_value() -> Value {
    let status = {
        let s = status_lock();
        (s.run.clone(), s.phase.clone(), s.manifest_json.clone())
    };
    let (run, phase, manifest_json) = status;
    let snaps = registry().snapshot();
    let hits = counter_value(&snaps, "cache.hits");
    let misses = counter_value(&snaps, "cache.misses");
    let retried = counter_value(&snaps, "fault.retried");
    let quarantined = counter_value(&snaps, "fault.quarantined");
    let tasks = counter_value(&snaps, "fault.tasks");
    let manifest = manifest_json
        .as_deref()
        .and_then(|j| Value::parse(j).ok())
        .unwrap_or(Value::Null);
    Value::Obj(vec![
        ("run".to_owned(), run.map_or(Value::Null, Value::from)),
        ("phase".to_owned(), phase.map_or(Value::Null, Value::from)),
        (
            "uptime_ms".to_owned(),
            Value::from(crate::epoch_ns() / 1_000_000),
        ),
        (
            "scrapes".to_owned(),
            Value::from(SCRAPES.load(Ordering::Relaxed)),
        ),
        (
            "cache".to_owned(),
            Value::Obj(vec![
                ("hits".to_owned(), Value::from(hits)),
                ("misses".to_owned(), Value::from(misses)),
                (
                    "hit_rate".to_owned(),
                    Value::from(rate(hits, hits + misses)),
                ),
            ]),
        ),
        (
            "fault".to_owned(),
            Value::Obj(vec![
                ("retried".to_owned(), Value::from(retried)),
                ("quarantined".to_owned(), Value::from(quarantined)),
                ("tasks".to_owned(), Value::from(tasks)),
                (
                    "quarantine_rate".to_owned(),
                    Value::from(rate(quarantined, tasks)),
                ),
            ]),
        ),
        ("progress".to_owned(), progress_value()),
        ("manifest".to_owned(), manifest),
    ])
}

fn progress_value() -> Value {
    let entries: Vec<Value> = progress::snapshot()
        .iter()
        .map(|p| {
            Value::Obj(vec![
                ("phase".to_owned(), Value::from(p.phase)),
                ("done".to_owned(), Value::from(p.done)),
                ("total".to_owned(), Value::from(p.total)),
                ("elapsed_ms".to_owned(), Value::from(p.elapsed_ms)),
            ])
        })
        .collect();
    Value::Arr(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("cache.hit_rate"), "lori_cache_hit_rate");
        assert_eq!(prom_name("a-b c"), "lori_a_b_c");
    }

    #[test]
    fn request_line_routing() {
        assert!(respond("GET / HTTP/1.1").starts_with("HTTP/1.1 200"));
        assert!(respond("GET /metrics HTTP/1.1").starts_with("HTTP/1.1 200"));
        assert!(respond("GET /status HTTP/1.1").starts_with("HTTP/1.1 200"));
        assert!(respond("GET /progress HTTP/1.1").starts_with("HTTP/1.1 200"));
        assert!(respond("GET /flight HTTP/1.1").starts_with("HTTP/1.1 200"));
        assert!(respond("GET /metrics?x=1 HTTP/1.1").starts_with("HTTP/1.1 200"));
        assert!(respond("GET /nope HTTP/1.1").starts_with("HTTP/1.1 404"));
        assert!(respond("POST /metrics HTTP/1.1").starts_with("HTTP/1.1 405"));
        assert!(respond("GET /metrics").starts_with("HTTP/1.1 400"));
        assert!(respond("nonsense").starts_with("HTTP/1.1 400"));
        assert!(respond("GET /metrics FTP/9").starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn status_document_shape() {
        set_run("unit-run");
        set_phase("unit-phase");
        let v = status_value();
        assert_eq!(v.get("run").and_then(Value::as_str), Some("unit-run"));
        assert_eq!(v.get("phase").and_then(Value::as_str), Some("unit-phase"));
        assert!(v.get("cache").and_then(|c| c.get("hit_rate")).is_some());
        assert!(v
            .get("fault")
            .and_then(|f| f.get("quarantine_rate"))
            .is_some());
        assert!(v.get("progress").is_some());
    }

    #[test]
    fn responses_frame_content_length() {
        let resp = text_response(200, "text/plain", "abc");
        assert!(resp.contains("content-length: 3\r\n"));
        assert!(resp.contains("connection: close\r\n"));
        assert!(resp.ends_with("\r\n\r\nabc"));
        let err = error_response(405);
        assert!(err.contains("allow: GET\r\n"));
    }
}
