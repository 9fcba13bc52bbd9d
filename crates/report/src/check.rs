//! Run sanity checks: scan a manifest plus its event stream for values
//! that cannot be true.
//!
//! This is the automated version of the eyeball pass a careful experimenter
//! does before trusting a result: do the phase times add up, are all the
//! metrics finite, is the event stream structurally sound, and — the class
//! of bug that motivated this module — could the machine physically have
//! done what a counter claims? (A checked-in manifest once reported
//! 368,266,406,769,412 rollbacks in 7.6 ms of wall time: ~5·10¹⁶ events
//! per second, four orders of magnitude past any conceivable CPU.)

use crate::error::ReportError;
use crate::profile::parse_events;
use lori_obs::Value;
use std::path::Path;

/// No computer this workspace runs on executes more than this many counted
/// events per second of wall time; a counter implying a higher rate is
/// recording something that never happened.
pub const MAX_PLAUSIBLE_RATE_PER_S: f64 = 1e11;

/// Tolerated slack when comparing phase totals (and the event-stream
/// extent) against manifest wall time: 10% relative plus 5 ms absolute,
/// covering timer granularity and out-of-phase work.
const WALL_SLACK_REL: f64 = 0.10;
const WALL_SLACK_ABS_MS: f64 = 5.0;

/// Outcome of a `check` run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Checks that passed, with a one-line description each.
    pub passed: Vec<String>,
    /// Suspicious but not definitely wrong findings.
    pub warnings: Vec<String>,
    /// Definitely-wrong findings (non-empty fails the check).
    pub failures: Vec<String>,
}

impl CheckReport {
    /// `true` when nothing definitely wrong was found.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    fn pass(&mut self, msg: impl Into<String>) {
        self.passed.push(msg.into());
    }

    fn warn(&mut self, msg: impl Into<String>) {
        self.warnings.push(msg.into());
    }

    fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }
}

/// Renders the report for terminal output.
#[must_use]
pub fn render(report: &CheckReport) -> String {
    let mut out = String::new();
    for msg in &report.passed {
        out.push_str(&format!("ok   {msg}\n"));
    }
    for msg in &report.warnings {
        out.push_str(&format!("WARN {msg}\n"));
    }
    for msg in &report.failures {
        out.push_str(&format!("FAIL {msg}\n"));
    }
    out
}

/// Sanity-checks the run `name` inside `results_dir`
/// (`<name>.manifest.json` plus, when present, `<name>.events.jsonl`).
///
/// # Errors
///
/// Returns an error only when the manifest itself cannot be read or parsed
/// at all; every finding about a *readable* run lands in the report.
pub fn check_run(results_dir: &Path, name: &str) -> Result<CheckReport, ReportError> {
    let manifest_path = results_dir.join(format!("{name}.manifest.json"));
    let text = std::fs::read_to_string(&manifest_path).map_err(|source| ReportError::Io {
        path: manifest_path.clone(),
        source,
    })?;
    let manifest = Value::parse(&text).map_err(|msg| ReportError::Malformed {
        path: manifest_path.clone(),
        msg,
    })?;

    let mut report = CheckReport::default();
    check_manifest(&manifest, name, &mut report);

    let wall_ms = manifest.get("wall_ms").and_then(Value::as_f64);
    let events_path = results_dir.join(format!("{name}.events.jsonl"));
    match std::fs::read_to_string(&events_path) {
        Ok(events_text) => check_events(&events_text, wall_ms, &mut report),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            report.warn(format!(
                "no event stream ({}): balance checks skipped",
                events_path.display()
            ));
        }
        Err(e) => {
            report.fail(format!("cannot read {}: {e}", events_path.display()));
        }
    }
    Ok(report)
}

/// Manifest-level checks, separated for testing on synthetic documents.
pub fn check_manifest(manifest: &Value, name: &str, report: &mut CheckReport) {
    match manifest.get("name").and_then(Value::as_str) {
        Some(n) if n == name => report.pass(format!("manifest name matches '{name}'")),
        Some(n) => report.fail(format!("manifest name '{n}' does not match run '{name}'")),
        None => report.fail("manifest has no 'name'"),
    }

    let wall_ms = manifest.get("wall_ms").and_then(Value::as_f64);
    match wall_ms {
        Some(w) if w.is_finite() && w > 0.0 => {
            report.pass(format!("wall_ms finite and positive ({w:.3})"));
        }
        Some(w) => report.fail(format!("wall_ms not a positive finite number: {w}")),
        None => report.fail("wall_ms missing or non-numeric (NaN serializes as null)"),
    }

    match manifest.get("phases").and_then(Value::as_arr) {
        None => report.warn("manifest has no phases array"),
        Some(phases) => {
            let mut total = 0.0f64;
            let mut bad = false;
            for (i, phase) in phases.iter().enumerate() {
                match phase.get("wall_ms").and_then(Value::as_f64) {
                    Some(p) if p.is_finite() && p >= 0.0 => total += p,
                    other => {
                        report.fail(format!("phase {i} wall_ms invalid: {other:?}"));
                        bad = true;
                    }
                }
            }
            if !bad {
                if let Some(w) = wall_ms.filter(|w| w.is_finite()) {
                    let limit = w * (1.0 + WALL_SLACK_REL) + WALL_SLACK_ABS_MS;
                    if total <= limit {
                        report.pass(format!(
                            "phase times consistent (sum {total:.3} ms <= wall {w:.3} ms + slack)"
                        ));
                    } else {
                        report.fail(format!(
                            "phase times sum to {total:.3} ms but the whole run took {w:.3} ms"
                        ));
                    }
                }
            }
        }
    }

    check_metrics(manifest, wall_ms, report);
}

fn check_metrics(manifest: &Value, wall_ms: Option<f64>, report: &mut CheckReport) {
    let Some(Value::Obj(metrics)) = manifest.get("metrics") else {
        report.warn("manifest has no metrics object");
        return;
    };
    let wall_s = wall_ms.map(|w| w / 1e3).filter(|w| *w > 0.0);
    let mut finite = 0usize;
    let failures_before = report.failures.len();
    for (name, value) in metrics {
        match value {
            Value::Null => {
                // `lori-obs` serializes NaN/infinity as null: a null metric
                // means a non-finite number reached the snapshot.
                report.fail(format!("metric '{name}' is null (non-finite at snapshot)"));
            }
            Value::Num(v) if !v.is_finite() => {
                report.fail(format!("metric '{name}' is non-finite: {v}"));
            }
            Value::Num(v) => {
                finite += 1;
                // Counters serialize as exact integers; only those carry an
                // events-per-second meaning. Gauges are floats and may
                // legitimately hold huge model quantities.
                let is_counter_like = *v >= 0.0 && v.fract() == 0.0;
                if let (true, Some(wall_s)) = (is_counter_like, wall_s) {
                    let rate = v / wall_s;
                    if rate > MAX_PLAUSIBLE_RATE_PER_S {
                        report.fail(format!(
                            "metric '{name}' = {v:.0} implies {rate:.3e} events/s over \
                             {wall_s:.3} s of wall time — physically impossible \
                             (limit {MAX_PLAUSIBLE_RATE_PER_S:.0e}/s)"
                        ));
                    }
                }
            }
            other => report.fail(format!("metric '{name}' has unexpected shape: {other:?}")),
        }
    }
    if metrics.is_empty() {
        report.pass("metrics object empty (nothing to validate)");
    } else if finite == metrics.len() && report.failures.len() == failures_before {
        report.pass(format!("all {finite} metrics finite and plausible"));
    }
}

fn check_events(events_text: &str, wall_ms: Option<f64>, report: &mut CheckReport) {
    match parse_events(events_text) {
        Err(e) => report.fail(format!("event stream invalid: {e}")),
        Ok(parsed) => {
            report.pass(format!(
                "event stream balanced ({} events, {} threads, {} roots)",
                parsed.events,
                parsed.threads,
                parsed.roots.len()
            ));
            if parsed.orphans.is_empty() {
                report.pass("trace context intact (no orphan spans)");
            } else {
                for o in &parsed.orphans {
                    report.fail(format!(
                        "orphan span '{}' (tid {}, sid {}, line {}): parent sid {} \
                         never appears in the stream — trace-context propagation broke",
                        o.name, o.tid, o.sid, o.line, o.parent
                    ));
                }
            }
            if let Some(w) = wall_ms.filter(|w| w.is_finite() && *w > 0.0) {
                let extent_ms = dur_ms(parsed.wall_ns());
                let limit = w * (1.0 + WALL_SLACK_REL) + WALL_SLACK_ABS_MS;
                if extent_ms <= limit {
                    report.pass(format!(
                        "event extent consistent with wall time \
                         ({extent_ms:.3} ms <= {w:.3} ms + slack)"
                    ));
                } else {
                    // The obs epoch starts at first use, which can predate
                    // the manifest clock — suspicious, not proof.
                    report.warn(format!(
                        "events span {extent_ms:.3} ms but manifest wall is {w:.3} ms"
                    ));
                }
            }
        }
    }
}

#[allow(clippy::cast_precision_loss)]
fn dur_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(wall_ms: f64, rollbacks: f64) -> Value {
        Value::Obj(vec![
            ("name".to_owned(), Value::from("exp-unit")),
            ("version".to_owned(), Value::from("test")),
            (
                "phases".to_owned(),
                Value::Arr(vec![Value::Obj(vec![
                    ("name".to_owned(), Value::from("sweep")),
                    ("wall_ms".to_owned(), Value::from(wall_ms * 0.9)),
                ])]),
            ),
            ("wall_ms".to_owned(), Value::from(wall_ms)),
            (
                "metrics".to_owned(),
                Value::Obj(vec![(
                    "ftsched.rollbacks".to_owned(),
                    Value::from(rollbacks),
                )]),
            ),
        ])
    }

    #[test]
    fn sane_manifest_passes() {
        let mut report = CheckReport::default();
        check_manifest(&manifest(7.6, 120_000.0), "exp-unit", &mut report);
        assert!(report.ok(), "failures: {:?}", report.failures);
    }

    #[test]
    fn flags_physically_impossible_counter_rate() {
        // The exact corrupt value once checked into exp-fig5's manifest.
        let mut report = CheckReport::default();
        check_manifest(
            &manifest(7.618_048, 368_266_406_769_412.0),
            "exp-unit",
            &mut report,
        );
        assert!(!report.ok());
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("physically impossible")),
            "failures: {:?}",
            report.failures
        );
    }

    #[test]
    fn huge_float_gauges_are_not_counters() {
        // A gauge legitimately holding an astronomic *model* quantity
        // (e.g. expected rollbacks per Eq. 2) must not trip the rate check.
        let mut report = CheckReport::default();
        check_manifest(&manifest(7.6, 1_500_000_000_000.5), "exp-unit", &mut report);
        assert!(report.ok(), "failures: {:?}", report.failures);
    }

    #[test]
    fn flags_null_metric_as_nan() {
        let mut m = manifest(7.6, 1.0);
        if let Value::Obj(members) = &mut m {
            if let Some((_, metrics)) = members.iter_mut().find(|(k, _)| k == "metrics") {
                *metrics = Value::Obj(vec![("loss".to_owned(), Value::Null)]);
            }
        }
        let mut report = CheckReport::default();
        check_manifest(&m, "exp-unit", &mut report);
        assert!(report.failures.iter().any(|f| f.contains("non-finite")));
    }

    #[test]
    fn flags_phase_total_exceeding_wall() {
        let mut m = manifest(10.0, 1.0);
        if let Value::Obj(members) = &mut m {
            if let Some((_, phases)) = members.iter_mut().find(|(k, _)| k == "phases") {
                *phases = Value::Arr(vec![Value::Obj(vec![
                    ("name".to_owned(), Value::from("sweep")),
                    ("wall_ms".to_owned(), Value::from(500.0)),
                ])]);
            }
        }
        let mut report = CheckReport::default();
        check_manifest(&m, "exp-unit", &mut report);
        assert!(report.failures.iter().any(|f| f.contains("phase times")));
    }

    #[test]
    fn flags_name_mismatch() {
        let mut report = CheckReport::default();
        check_manifest(&manifest(7.6, 1.0), "other-exp", &mut report);
        assert!(!report.ok());
    }

    #[test]
    fn check_run_reads_from_disk() {
        let dir = std::env::temp_dir().join(format!("lori-report-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("exp-unit.manifest.json"),
            manifest(7.6, 1.0).to_json(),
        )
        .unwrap();
        std::fs::write(
            dir.join("exp-unit.events.jsonl"),
            concat!(
                "{\"ev\":\"enter\",\"name\":\"sweep\",\"t_ns\":0,\"tid\":0,\"depth\":0}\n",
                "{\"ev\":\"exit\",\"name\":\"sweep\",\"t_ns\":1000,\"tid\":0,\"depth\":0,\"dur_ns\":1000}\n",
            ),
        )
        .unwrap();
        let report = check_run(&dir, "exp-unit").unwrap();
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert!(report.passed.iter().any(|p| p.contains("balanced")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_run_fails_on_unbalanced_stream() {
        let dir = std::env::temp_dir().join(format!("lori-report-unbal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("exp-unit.manifest.json"),
            manifest(7.6, 1.0).to_json(),
        )
        .unwrap();
        std::fs::write(
            dir.join("exp-unit.events.jsonl"),
            "{\"ev\":\"enter\",\"name\":\"sweep\",\"t_ns\":0,\"tid\":0,\"depth\":0}\n",
        )
        .unwrap();
        let report = check_run(&dir, "exp-unit").unwrap();
        assert!(!report.ok());
        assert!(report.failures.iter().any(|f| f.contains("still open")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_run_fails_on_orphan_spans() {
        // Regression fixture for broken trace-context propagation: a
        // worker-thread span names a parent sid that never appears.
        let dir = std::env::temp_dir().join(format!("lori-report-orphan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("exp-unit.manifest.json"),
            manifest(7.6, 1.0).to_json(),
        )
        .unwrap();
        std::fs::write(
            dir.join("exp-unit.events.jsonl"),
            concat!(
                "{\"ev\":\"enter\",\"name\":\"sweep\",\"t_ns\":0,\"tid\":0,\"depth\":0,\"sid\":3}\n",
                "{\"ev\":\"enter\",\"name\":\"par.worker\",\"t_ns\":10,\"tid\":1,\"depth\":0,\"sid\":4,\"parent\":77}\n",
                "{\"ev\":\"exit\",\"name\":\"par.worker\",\"t_ns\":500,\"tid\":1,\"depth\":0,\"dur_ns\":490,\"sid\":4}\n",
                "{\"ev\":\"exit\",\"name\":\"sweep\",\"t_ns\":1000,\"tid\":0,\"depth\":0,\"dur_ns\":1000,\"sid\":3}\n",
            ),
        )
        .unwrap();
        let report = check_run(&dir, "exp-unit").unwrap();
        assert!(!report.ok());
        assert!(
            report.failures.iter().any(|f| f.contains("orphan span")
                && f.contains("par.worker")
                && f.contains("parent sid 77")),
            "failures: {:?}",
            report.failures
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_stream_passes_trace_context_check() {
        let dir = std::env::temp_dir().join(format!("lori-report-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("exp-unit.manifest.json"),
            manifest(7.6, 1.0).to_json(),
        )
        .unwrap();
        std::fs::write(
            dir.join("exp-unit.events.jsonl"),
            concat!(
                "{\"ev\":\"enter\",\"name\":\"sweep\",\"t_ns\":0,\"tid\":0,\"depth\":0,\"sid\":3}\n",
                "{\"ev\":\"enter\",\"name\":\"par.worker\",\"t_ns\":10,\"tid\":1,\"depth\":0,\"sid\":4,\"parent\":3}\n",
                "{\"ev\":\"exit\",\"name\":\"par.worker\",\"t_ns\":500,\"tid\":1,\"depth\":0,\"dur_ns\":490,\"sid\":4}\n",
                "{\"ev\":\"exit\",\"name\":\"sweep\",\"t_ns\":1000,\"tid\":0,\"depth\":0,\"dur_ns\":1000,\"sid\":3}\n",
            ),
        )
        .unwrap();
        let report = check_run(&dir, "exp-unit").unwrap();
        assert!(report.ok(), "failures: {:?}", report.failures);
        assert!(report
            .passed
            .iter()
            .any(|p| p.contains("trace context intact")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_events_is_a_warning_not_failure() {
        let dir = std::env::temp_dir().join(format!("lori-report-noev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("exp-unit.manifest.json"),
            manifest(7.6, 1.0).to_json(),
        )
        .unwrap();
        let report = check_run(&dir, "exp-unit").unwrap();
        assert!(report.ok());
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("no event stream")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
