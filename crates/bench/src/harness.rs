//! The shared experiment entry point.
//!
//! Every `exp-*` binary runs through a [`Harness`]: it prints the standard
//! banner, installs a [`lori_obs::JsonlRecorder`] streaming to
//! `results/<name>.events.jsonl` (disable with `LORI_OBS=off`), arms the
//! `LORI_FAULT_PLAN` fault plan (if any), times each [`Harness::phase`],
//! and on [`Harness::finish`] writes a [`lori_obs::RunManifest`] to
//! `results/<name>.manifest.json` with the seed, config summary, code
//! version, per-phase wall times, shape-check outcomes, and a snapshot of
//! every metric the instrumented layers aggregated during the run.
//!
//! The harness never aborts a run over results plumbing: an uncreatable
//! results directory degrades to a [`lori_obs::NullRecorder`] with a
//! stderr warning, and manifest-write failures are returned from
//! [`Harness::finish`] for the binary to report. All file artifacts are
//! written atomically (temp file + rename), so a killed run never leaves a
//! truncated manifest or event log under its final name.
//!
//! The harness also arms the live telemetry plane: the flight recorder
//! (on by default, `LORI_FLIGHT=off` disables; dumps the recent-event ring
//! to `results/<name>.flight.json` on panic or quarantine) and, when
//! `LORI_TELEMETRY=<addr>` is set, the in-process HTTP endpoint serving
//! `/metrics`, `/status`, `/progress`, and `/flight` while the run
//! executes. Telemetry is read-only bookkeeping outside the metrics
//! registry, so enabling it never changes a run's artifacts.

use lori_obs as obs;
use obs::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Directory experiment outputs land in, honoring `LORI_RESULTS_DIR`.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("LORI_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// `true` unless `LORI_OBS=off|0|false` disables event recording.
fn obs_enabled() -> bool {
    !matches!(
        std::env::var("LORI_OBS").as_deref(),
        Ok("off" | "0" | "false")
    )
}

/// The shared experiment runner. See the module docs.
#[derive(Debug)]
pub struct Harness {
    name: String,
    manifest: obs::RunManifest,
    checks: Vec<(String, bool)>,
    events_path: Option<PathBuf>,
    finished: bool,
}

impl Harness {
    /// Starts an experiment: banner, results dir, recorder, fault plan,
    /// manifest.
    ///
    /// `name` keys the output files (`results/<name>.events.jsonl`,
    /// `results/<name>.manifest.json`); `id` and `title` feed the banner.
    ///
    /// Never panics over results plumbing: if the results directory cannot
    /// be created, the run continues with a [`obs::NullRecorder`] and a
    /// stderr warning, and the write failure surfaces again from
    /// [`Harness::finish`].
    #[must_use]
    pub fn new(name: &str, id: &str, title: &str) -> Self {
        crate::banner(id, title);
        let dir = results_dir();
        let dir_ok = match std::fs::create_dir_all(&dir) {
            Ok(()) => true,
            Err(err) => {
                eprintln!(
                    "warning: cannot create results dir {}: {err}; \
                     continuing without persistent outputs",
                    dir.display()
                );
                false
            }
        };
        let events_path = if dir_ok && obs_enabled() {
            let path = dir.join(format!("{name}.events.jsonl"));
            match obs::JsonlRecorder::create_atomic(&path) {
                Ok(rec) => {
                    obs::install(Arc::new(rec));
                    Some(path)
                }
                Err(err) => {
                    eprintln!("warning: cannot record events to {}: {err}", path.display());
                    None
                }
            }
        } else {
            None
        };
        if events_path.is_none() {
            obs::install(Arc::new(obs::NullRecorder));
        }
        // Black box: keep a ring of recent events unless explicitly off,
        // and dump it next to the other artifacts on panic/quarantine.
        if std::env::var_os("LORI_FLIGHT").is_none() {
            obs::flight::enable(obs::flight::DEFAULT_CAPACITY);
        } else {
            obs::flight::init_from_env();
        }
        if obs::flight::enabled() && dir_ok {
            obs::flight::set_dump_path(dir.join(format!("{name}.flight.json")));
            obs::flight::install_panic_hook();
        }
        match obs::telemetry::init_from_env() {
            Ok(Some(addr)) => eprintln!("telemetry: listening on {addr}"),
            Ok(None) => {}
            Err(err) => eprintln!("warning: cannot start LORI_TELEMETRY endpoint: {err}"),
        }
        obs::telemetry::set_run(name);
        let mut manifest = obs::RunManifest::start(name);
        manifest.config("obs", events_path.is_some());
        // The golden-model cache mode changes wall time, never bytes; it is
        // recorded (with the cache.* metric snapshot finish() takes) so a
        // perf-trajectory diff can tell a warm-cache run from a cold one.
        manifest.config("cache", lori_cache::mode_string());
        match lori_fault::init_from_env() {
            Ok(Some(plan)) => {
                let unknown = plan.unknown_sites();
                if !unknown.is_empty() {
                    eprintln!("warning: fault plan names unknown sites: {unknown:?}");
                }
                manifest.config("fault_plan", plan.to_string_lossless());
            }
            Ok(None) => {}
            Err(err) => eprintln!("warning: ignoring invalid LORI_FAULT_PLAN: {err}"),
        }
        Harness {
            name: name.to_owned(),
            manifest,
            checks: Vec::new(),
            events_path,
            finished: false,
        }
    }

    /// The experiment name keying all output files.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records the master RNG seed in the manifest.
    pub fn seed(&mut self, seed: u64) {
        self.manifest.set_seed(seed);
    }

    /// Records one config entry in the manifest.
    pub fn config(&mut self, key: &str, value: impl Into<Value>) {
        self.manifest.config(key, value);
    }

    /// Runs `f` as a named, timed phase: it gets a top-level span in the
    /// event stream and a `phases[]` entry in the manifest.
    pub fn phase<T>(&mut self, label: &'static str, f: impl FnOnce() -> T) -> T {
        obs::telemetry::set_phase(label);
        obs::telemetry::set_manifest_json(self.manifest.to_json());
        let _span = obs::span(label);
        let t0 = Instant::now();
        let out = f();
        self.manifest
            .push_phase(label, t0.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Prints and records one shape check against the paper's claims.
    pub fn check(&mut self, desc: &str, ok: bool) {
        if self.checks.is_empty() {
            println!("shape checks vs paper:");
        }
        println!("  - {desc}: {ok}");
        self.checks.push((desc.to_owned(), ok));
    }

    /// `true` when every recorded check passed (vacuously true for none).
    #[must_use]
    pub fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Ends the run: uninstalls the recorder, snapshots all metrics, and
    /// writes `results/<name>.manifest.json` atomically.
    ///
    /// # Errors
    ///
    /// Returns the manifest-write error; the run's computed results are
    /// unaffected, so binaries should warn rather than abort.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> std::io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        obs::uninstall();
        // Derived health ratios, computed after the recorder is gone so
        // they land in the manifest snapshot without touching the event
        // stream (artifacts stay identical with telemetry on or off).
        // Read through a snapshot rather than `obs::counter`, which would
        // register absent counters at zero in every manifest.
        let counters = obs::registry().snapshot();
        let get = |name: &str| {
            counters
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| match m.value {
                    obs::MetricValue::Counter(v) => Some(v),
                    _ => None,
                })
                .unwrap_or(0)
        };
        let hits = get("cache.hits");
        let misses = get("cache.misses");
        if hits + misses > 0 {
            obs::gauge("cache.hit_rate").set(ratio(hits, hits + misses));
        }
        let tasks = get("fault.tasks");
        if tasks > 0 {
            obs::gauge("fault.quarantine_rate").set(ratio(get("fault.quarantined"), tasks));
        }
        if !self.checks.is_empty() {
            let checks = Value::Obj(
                self.checks
                    .iter()
                    .map(|(desc, ok)| (desc.clone(), Value::from(*ok)))
                    .collect(),
            );
            self.manifest.config.push(("checks".to_owned(), checks));
        }
        self.manifest.finish(obs::registry().snapshot());
        obs::telemetry::set_phase("finished");
        obs::telemetry::set_manifest_json(self.manifest.to_json());
        let path = results_dir().join(format!("{}.manifest.json", self.name));
        self.manifest.write(&path)?;
        print!("manifest: {}", path.display());
        if let Some(events) = &self.events_path {
            print!("  events: {}", events.display());
        }
        println!();
        Ok(())
    }
}

/// `num / den` as a gauge value; callers guarantee `den > 0`.
#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

impl Drop for Harness {
    fn drop(&mut self) {
        // A panicking experiment still leaves a manifest behind.
        if let Err(err) = self.finish_inner() {
            eprintln!("warning: cannot write manifest for {}: {err}", self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Harness installs a process-global recorder, so this single test
    // exercises the full lifecycle in one body.
    #[test]
    fn harness_lifecycle_writes_events_and_manifest() {
        let _env = crate::env_lock();
        let dir = std::env::temp_dir().join(format!("lori-harness-{}", std::process::id()));
        std::env::set_var("LORI_RESULTS_DIR", &dir);
        let mut h = Harness::new("exp-unit", "E0", "harness unit test");
        assert_eq!(h.name(), "exp-unit");
        h.seed(9);
        h.config("runs", 3u64);
        let total: u64 = h.phase("compute", || (0..100u64).sum());
        assert_eq!(total, 4950);
        h.check("sum matches", total == 4950);
        assert!(h.all_checks_pass());
        h.finish().expect("manifest written");
        std::env::remove_var("LORI_RESULTS_DIR");

        let manifest =
            std::fs::read_to_string(dir.join("exp-unit.manifest.json")).expect("manifest");
        let v = Value::parse(&manifest).unwrap();
        assert_eq!(v.get("seed").and_then(Value::as_f64), Some(9.0));
        let phases = v.get("phases").and_then(Value::as_arr).unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(
            phases[0].get("name").and_then(Value::as_str),
            Some("compute")
        );
        assert_eq!(
            v.get("config")
                .and_then(|c| c.get("checks"))
                .and_then(|c| c.get("sum matches"))
                .and_then(Value::as_bool),
            Some(true)
        );

        let events = std::fs::read_to_string(dir.join("exp-unit.events.jsonl")).expect("events");
        assert!(events.lines().count() >= 2, "phase enter + exit recorded");
        for line in events.lines() {
            Value::parse(line).expect("event line parses");
        }
        std::fs::remove_dir_all(&dir).ok();

        // Degraded mode, same test body (the recorder and LORI_RESULTS_DIR
        // are process-global): a file where the results dir should be makes
        // create_dir_all fail; the harness must warn and keep computing,
        // and finish() must return the write error instead of panicking.
        let blocker = std::env::temp_dir().join(format!("lori-harness-blk-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        std::env::set_var("LORI_RESULTS_DIR", &blocker);
        let mut h = Harness::new("exp-degraded", "E0", "degraded harness");
        let out = h.phase("compute", || 21 * 2);
        assert_eq!(out, 42);
        let err = h.finish().expect_err("manifest write must fail");
        assert!(!err.to_string().is_empty());
        std::env::remove_var("LORI_RESULTS_DIR");
        std::fs::remove_file(&blocker).ok();
    }
}
