//! The shared experiment entry point.
//!
//! Every `exp-*` binary runs through a [`Harness`]: it prints the standard
//! banner, installs a [`lori_obs::JsonlRecorder`] streaming to
//! `results/<name>.events.jsonl`, times each [`Harness::phase`], and on
//! [`Harness::finish`] writes a [`lori_obs::RunManifest`] to
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
//! A run that panics still leaves its record: dropping the harness during
//! unwinding writes the manifest and renames the event stream into place,
//! so `results/<name>.events.jsonl` holds every span up to the crash.
//!
//! An environment the run would otherwise misread stops it before anything
//! is written: a `LORI_*` name the workspace does not read (a typo or a
//! retired switch), or a `LORI_THREADS` that is not a non-negative
//! integer, makes the binary exit with status 2 and name the variable.

use lori_obs as obs;
use obs::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Directory experiment outputs land in, honoring `LORI_RESULTS_DIR`.
fn results_dir() -> PathBuf {
    std::env::var_os("LORI_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Every `LORI_*` environment variable the workspace reads.
const KNOWN_VARS: [&str; 2] = ["LORI_RESULTS_DIR", "LORI_THREADS"];

/// Rejects `LORI_*` names outside [`KNOWN_VARS`] and a `LORI_THREADS` that
/// [`lori_par::Parallelism::parse`] refuses.
fn check_env() -> Result<(), String> {
    let mut unknown: Vec<String> = std::env::vars_os()
        .map(|(key, _)| key.to_string_lossy().into_owned())
        .filter(|key| key.starts_with("LORI_") && !KNOWN_VARS.contains(&key.as_str()))
        .collect();
    if !unknown.is_empty() {
        unknown.sort();
        return Err(format!(
            "unknown environment variable {}; the LORI_* names read are {}",
            unknown.join(", "),
            KNOWN_VARS.join(", ")
        ));
    }
    match std::env::var("LORI_THREADS") {
        Ok(value) => lori_par::Parallelism::parse(&value)
            .map(drop)
            .map_err(|err| err.to_string()),
        Err(std::env::VarError::NotPresent) => Ok(()),
        Err(err) => Err(format!("invalid LORI_THREADS: {err}")),
    }
}

/// The shared experiment runner. See the module docs.
#[derive(Debug)]
pub struct Harness {
    name: String,
    dir: PathBuf,
    manifest: obs::RunManifest,
    checks: Vec<(String, bool)>,
    events_path: Option<PathBuf>,
    finished: bool,
}

impl Harness {
    /// Starts an experiment: banner, results dir, recorder, manifest.
    ///
    /// `name` keys the output files (`results/<name>.events.jsonl`,
    /// `results/<name>.manifest.json`); `id` and `title` feed the banner.
    ///
    /// Never panics over results plumbing: if the results directory cannot
    /// be created, the run continues with a [`obs::NullRecorder`] and a
    /// stderr warning, and the write failure surfaces again from
    /// [`Harness::finish`]. Exits the process with status 2 when the
    /// environment holds an unknown `LORI_*` name or a malformed
    /// `LORI_THREADS`.
    #[must_use]
    pub fn new(name: &str, id: &str, title: &str) -> Self {
        crate::banner(id, title);
        if let Err(err) = check_env() {
            eprintln!("error: {err}");
            std::process::exit(2)
        }
        Self::in_dir(name, results_dir())
    }

    /// [`Harness::new`] after the banner and the environment check, with
    /// the results directory given rather than read from the environment.
    fn in_dir(name: &str, dir: PathBuf) -> Self {
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
        let events_path = if dir_ok {
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
        let mut manifest = obs::RunManifest::start(name);
        manifest.config("obs", events_path.is_some());
        Harness {
            name: name.to_owned(),
            dir,
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

    /// The results directory this run writes to, resolved once by
    /// [`Harness::new`]. Binaries put their data files here.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
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
        let path = self.dir.join(format!("{}.manifest.json", self.name));
        self.manifest.write(&path)?;
        print!("manifest: {}", path.display());
        if let Some(events) = &self.events_path {
            print!("  events: {}", events.display());
        }
        println!();
        Ok(())
    }
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
        let dir = std::env::temp_dir().join(format!("lori-harness-{}", std::process::id()));
        let mut h = Harness::in_dir("exp-unit", dir.clone());
        assert_eq!(h.name(), "exp-unit");
        h.seed(9);
        h.config("runs", 3u64);
        let total: u64 = h.phase("compute", || (0..100u64).sum());
        assert_eq!(total, 4950);
        h.check("sum matches", total == 4950);
        assert!(h.all_checks_pass());
        h.finish().expect("manifest written");

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

        // Degraded mode, same test body (the recorder is process-global): a
        // file where the results dir should be makes create_dir_all fail;
        // the harness must warn and keep computing, and finish() must
        // return the write error instead of panicking.
        let blocker = std::env::temp_dir().join(format!("lori-harness-blk-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut h = Harness::in_dir("exp-degraded", blocker.clone());
        let out = h.phase("compute", || 21 * 2);
        assert_eq!(out, 42);
        let err = h.finish().expect_err("manifest write must fail");
        assert!(!err.to_string().is_empty());
        std::fs::remove_file(&blocker).ok();

        // Crash mode: a phase panics and the harness drops while the panic
        // unwinds. The event stream is the crash record, so it must land
        // under its final name with the failing phase's enter event, next
        // to a manifest.
        let dir = std::env::temp_dir().join(format!("lori-harness-crash-{}", std::process::id()));
        let h = Harness::in_dir("exp-crash", dir.clone());
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut h = h;
            h.phase("doomed", || panic!("injected phase failure"));
        }));
        assert!(crashed.is_err(), "the phase panic propagates");
        let events = std::fs::read_to_string(dir.join("exp-crash.events.jsonl"))
            .expect("events renamed into place");
        assert!(
            events.lines().any(|line| {
                let v = Value::parse(line).expect("event line parses");
                v.get("ev").and_then(Value::as_str) == Some("enter")
                    && v.get("name").and_then(Value::as_str) == Some("doomed")
            }),
            "crashed phase's enter event recorded: {events}"
        );
        assert!(dir.join("exp-crash.manifest.json").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }
}
