//! Run manifests: one JSON document per experiment run, written next to
//! the results, capturing everything needed to reproduce and sanity-check
//! the run — seed, config summary, code version, wall time, per-phase
//! breakdown, and a snapshot of every registered metric.

use crate::json::Value;
use crate::metrics::{MetricSnapshot, MetricValue};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// One timed phase of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Phase label (e.g. `"sweep"`, `"train"`).
    pub name: String,
    /// Phase wall time in milliseconds.
    pub wall_ms: f64,
}

/// A reproducibility manifest for one experiment run.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Experiment name (e.g. `"exp-fig5"`).
    pub name: String,
    /// Code version (`git describe`-style when available).
    pub version: String,
    /// Master RNG seed, when the run is seeded.
    pub seed: Option<u64>,
    /// Flat config summary as `(key, value)` pairs, insertion-ordered.
    pub config: Vec<(String, Value)>,
    /// Timed phases in execution order.
    pub phases: Vec<PhaseRecord>,
    /// Total wall time in milliseconds.
    pub wall_ms: f64,
    /// Metric readings at the end of the run.
    pub metrics: Vec<MetricSnapshot>,
    start: Instant,
}

impl RunManifest {
    /// Starts a manifest for `name`; the wall clock starts now.
    #[must_use]
    pub fn start(name: &str) -> Self {
        RunManifest {
            name: name.to_owned(),
            version: version_string(),
            seed: None,
            config: Vec::new(),
            phases: Vec::new(),
            wall_ms: 0.0,
            metrics: Vec::new(),
            start: Instant::now(),
        }
    }

    /// Records the master seed.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = Some(seed);
    }

    /// Adds one config entry.
    pub fn config(&mut self, key: &str, value: impl Into<Value>) {
        self.config.push((key.to_owned(), value.into()));
    }

    /// Appends a completed phase.
    pub fn push_phase(&mut self, name: &str, wall_ms: f64) {
        self.phases.push(PhaseRecord {
            name: name.to_owned(),
            wall_ms,
        });
    }

    /// Stamps the total wall time and captures `metrics`.
    pub fn finish(&mut self, metrics: Vec<MetricSnapshot>) {
        self.wall_ms = self.start.elapsed().as_secs_f64() * 1e3;
        self.metrics = metrics;
    }

    /// Serializes the manifest to a JSON value.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("name".to_owned(), Value::from(self.name.as_str())),
            ("version".to_owned(), Value::from(self.version.as_str())),
        ];
        members.push((
            "seed".to_owned(),
            self.seed.map_or(Value::Null, Value::from),
        ));
        members.push(("config".to_owned(), Value::Obj(self.config.clone())));
        members.push((
            "phases".to_owned(),
            Value::Arr(
                self.phases
                    .iter()
                    .map(|p| {
                        Value::Obj(vec![
                            ("name".to_owned(), Value::from(p.name.as_str())),
                            ("wall_ms".to_owned(), Value::from(p.wall_ms)),
                        ])
                    })
                    .collect(),
            ),
        ));
        members.push(("wall_ms".to_owned(), Value::from(self.wall_ms)));
        members.push((
            "metrics".to_owned(),
            Value::Obj(self.metrics.iter().map(metric_member).collect()),
        ));
        Value::Obj(members)
    }

    /// Serializes to pretty-enough compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Writes the manifest file atomically (temp file + rename), so a
    /// crash mid-write never leaves a truncated manifest and a concurrent
    /// reader never observes a partial one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        crate::fsio::atomic_write(path.as_ref(), (self.to_json() + "\n").as_bytes())
    }
}

fn metric_member(snap: &MetricSnapshot) -> (String, Value) {
    let value = match snap.value {
        MetricValue::Counter(n) => Value::from(n),
        MetricValue::Gauge(v) => Value::from(v),
    };
    (snap.name.to_owned(), value)
}

/// A `git describe`-style version: tag/commit plus a `-dirty` suffix when
/// the worktree has local modifications. Falls back to the crate version
/// when git is unavailable (e.g. a source tarball).
#[must_use]
pub fn version_string() -> String {
    let describe = git(&["describe", "--tags", "--always", "--dirty"])
        .or_else(|| git(&["rev-parse", "--short", "HEAD"]));
    match describe {
        Some(v) if !v.is_empty() => v,
        _ => format!("v{}+nogit", env!("CARGO_PKG_VERSION")),
    }
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips_through_json() {
        let mut m = RunManifest::start("exp-unit");
        m.set_seed(42);
        m.config("runs", Value::from(100u64));
        m.config("mitigation", "checkpointing");
        m.push_phase("sweep", 12.5);
        m.push_phase("report", 0.5);
        m.finish(Vec::new());
        let v = Value::parse(&m.to_json()).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("exp-unit"));
        assert_eq!(v.get("seed").and_then(Value::as_f64), Some(42.0));
        assert_eq!(
            v.get("config")
                .and_then(|c| c.get("mitigation"))
                .and_then(Value::as_str),
            Some("checkpointing")
        );
        let phases = v.get("phases").and_then(Value::as_arr).unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].get("wall_ms").and_then(Value::as_f64), Some(12.5));
        assert!(v.get("wall_ms").and_then(Value::as_f64).unwrap() >= 0.0);
    }

    #[test]
    fn unseeded_manifest_has_null_seed() {
        let mut m = RunManifest::start("exp-unit2");
        m.finish(Vec::new());
        let v = Value::parse(&m.to_json()).unwrap();
        assert_eq!(v.get("seed"), Some(&Value::Null));
    }

    #[test]
    fn version_string_is_nonempty() {
        assert!(!version_string().is_empty());
    }
}
