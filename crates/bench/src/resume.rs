//! Crash-safe, resumable Monte Carlo sweeps.
//!
//! [`resumable_sweep`] wraps `ftsched::montecarlo` with three robustness
//! layers:
//!
//! 1. **Write-ahead result log** — every completed probability point is
//!    appended (checksummed) to `results/<name>.wal.jsonl` the moment it
//!    finishes. A killed run replays the log on restart and recomputes
//!    only the missing points; replayed results are bit-exact (the JSON
//!    float encoding round-trips `f64` losslessly), so the final
//!    artifacts are byte-identical to an uninterrupted run.
//! 2. **Recovery policy** — points run under the `LORI_RECOVERY` policy:
//!    `fail-fast` (default) propagates the first failure, `quarantine:<n>`
//!    retries a failing point deterministically and then excludes it,
//!    letting every other point complete. Quarantined points land in the
//!    manifest (`quarantined_points`) and the `fault.quarantined` metric.
//! 3. **Deterministic artifact** — the sweep's results are also written to
//!    `results/<name>.points.json` (atomic, no timestamps), the file to
//!    byte-compare across runs, worker counts, and resumes.

use crate::harness::{results_dir, Harness};
use lori_ftsched::montecarlo::{point_tasks, run_point, SweepConfig, SweepPoint};
use lori_ftsched::FtError;
use lori_obs::Value;
use lori_par::{par_map_recover, RecoveryPolicy, RecoveryPolicyError, TaskFailure};
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

/// The write-ahead log path for experiment `name`.
#[must_use]
pub fn wal_path(name: &str) -> PathBuf {
    results_dir().join(format!("{name}.wal.jsonl"))
}

/// The deterministic points artifact path for experiment `name`.
#[must_use]
pub fn points_path(name: &str) -> PathBuf {
    results_dir().join(format!("{name}.points.json"))
}

/// Serializes one sweep point for the WAL and the points artifact.
#[must_use]
pub fn point_to_value(point: &SweepPoint) -> Value {
    Value::Obj(vec![
        ("p".to_owned(), Value::from(point.p)),
        (
            "avg_rollbacks_per_segment".to_owned(),
            Value::from(point.avg_rollbacks_per_segment),
        ),
        ("rollbacks_std".to_owned(), Value::from(point.rollbacks_std)),
        (
            "hit_rate".to_owned(),
            Value::Arr(point.hit_rate.iter().map(|&h| Value::from(h)).collect()),
        ),
        (
            "cycle_overhead".to_owned(),
            Value::from(point.cycle_overhead),
        ),
    ])
}

/// Parses a WAL/artifact entry back into a sweep point.
#[must_use]
pub fn point_from_value(v: &Value) -> Option<SweepPoint> {
    let hit = v.get("hit_rate")?.as_arr()?;
    if hit.len() != 4 {
        return None;
    }
    let mut hit_rate = [0.0f64; 4];
    for (slot, value) in hit_rate.iter_mut().zip(hit) {
        *slot = value.as_f64()?;
    }
    Some(SweepPoint {
        p: v.get("p")?.as_f64()?,
        avg_rollbacks_per_segment: v.get("avg_rollbacks_per_segment")?.as_f64()?,
        rollbacks_std: v.get("rollbacks_std")?.as_f64()?,
        hit_rate,
        cycle_overhead: v.get("cycle_overhead")?.as_f64()?,
    })
}

/// The WAL header: a fingerprint of everything that determines the sweep's
/// results. A WAL whose header does not match is discarded on resume, so a
/// config change can never splice stale points into fresh results.
fn fingerprint(
    name: &str,
    p_values: &[f64],
    trace: &[lori_core::units::Cycles],
    config: &SweepConfig,
) -> Value {
    let mut trace_bytes = Vec::with_capacity(trace.len() * 8);
    for c in trace {
        trace_bytes.extend_from_slice(&c.value().to_le_bytes());
    }
    Value::Obj(vec![
        ("exp".to_owned(), Value::from(name)),
        ("seed".to_owned(), Value::from(config.seed)),
        ("runs".to_owned(), Value::from(config.runs as u64)),
        // Debug formatting covers every field of the nested configs, so
        // any parameter change invalidates the log.
        (
            "checkpoints".to_owned(),
            Value::from(format!("{:?}", config.checkpoints).as_str()),
        ),
        (
            "mitigation".to_owned(),
            Value::from(format!("{:?}", config.mitigation).as_str()),
        ),
        (
            "trace_fnv64".to_owned(),
            Value::from(format!("{:016x}", lori_fault::fnv64(&trace_bytes)).as_str()),
        ),
        (
            "axis".to_owned(),
            Value::Arr(p_values.iter().map(|&p| Value::from(p)).collect()),
        ),
    ])
}

/// The outcome of a resumable sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// `points[i]` is the result at `p_values[i]`, or `None` when the
    /// point was quarantined.
    pub points: Vec<Option<SweepPoint>>,
    /// Quarantined points in axis order (`index` is the axis index).
    pub failures: Vec<TaskFailure>,
    /// How many points were replayed from the WAL instead of computed.
    pub replayed: usize,
}

impl SweepOutcome {
    /// `true` when every point completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The completed points, in axis order, skipping quarantined ones.
    #[must_use]
    pub fn completed(&self) -> Vec<SweepPoint> {
        self.points.iter().filter_map(Clone::clone).collect()
    }
}

/// Why a resumable sweep could not produce its points.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// `LORI_RECOVERY` is set to something that is not a policy.
    Recovery(RecoveryPolicyError),
    /// A config validation error, or a point's typed failure under the
    /// fail-fast policy.
    Sweep(FtError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Recovery(err) => err.fmt(f),
            SweepError::Sweep(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<RecoveryPolicyError> for SweepError {
    fn from(err: RecoveryPolicyError) -> Self {
        SweepError::Recovery(err)
    }
}

impl From<FtError> for SweepError {
    fn from(err: FtError) -> Self {
        SweepError::Sweep(err)
    }
}

/// Runs the Fig. 5/6 sweep with WAL resume and panic quarantine, fanning
/// points out over the process-default worker pool. See the module docs.
///
/// Records `recovery`, `wal_replayed`, and (when nonempty)
/// `quarantined_points` in the harness manifest, and writes the
/// deterministic `results/<name>.points.json` artifact on the way out.
///
/// # Errors
///
/// A malformed `LORI_RECOVERY`, validation errors from
/// [`SweepConfig::validate`], and — under the default fail-fast policy
/// only — the first point's typed failure (e.g. [`FtError::NonFinite`]).
pub fn resumable_sweep(
    h: &mut Harness,
    p_values: &[f64],
    trace: &[lori_core::units::Cycles],
    config: &SweepConfig,
) -> Result<SweepOutcome, SweepError> {
    let tasks = point_tasks(p_values, trace, config)?;
    let policy = RecoveryPolicy::from_env()?;
    h.config("recovery", format!("{policy:?}").as_str());

    let header = fingerprint(h.name(), p_values, trace, config);
    let path = wal_path(h.name());
    let mut points: Vec<Option<SweepPoint>> = vec![None; p_values.len()];
    let mut replayed = 0usize;
    let wal = match lori_fault::WalWriter::resume(&path, &header) {
        Ok((writer, entries)) => {
            for (index, data) in &entries {
                #[allow(clippy::cast_possible_truncation)]
                let i = *index as usize;
                if i < points.len() && points[i].is_none() {
                    if let Some(point) = point_from_value(data) {
                        points[i] = Some(point);
                        replayed += 1;
                    }
                }
            }
            Some(writer)
        }
        Err(err) => {
            eprintln!(
                "warning: cannot open WAL {}: {err}; running without resume",
                path.display()
            );
            None
        }
    };
    h.config("wal_replayed", replayed as u64);

    let missing: Vec<_> = tasks
        .into_iter()
        .filter(|t| points[t.index].is_none())
        .collect();
    let wal = Mutex::new(wal);
    // Heartbeat under LORI_PROGRESS=stderr: one unit per probability point,
    // ticked from whichever worker finishes it.
    let progress = crate::Progress::start("sweep", missing.len() as u64);
    let out = h.phase("sweep", || {
        par_map_recover(lori_par::global(), policy, &missing, |_, task| {
            let point = run_point(task, trace, config)?;
            progress.tick();
            // Write-ahead: the point is durable before the sweep moves on.
            if let Some(writer) = wal
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .as_mut()
            {
                let index = task.index as u64;
                if let Err(err) = writer.append(index, &point_to_value(&point)) {
                    eprintln!("warning: WAL append failed: {err}");
                }
            }
            Ok::<_, FtError>(point)
        })
    });

    // Map slice-relative failure indices back onto the axis, and fold
    // typed errors into quarantine under a quarantine policy.
    let mut failures: Vec<TaskFailure> = out
        .failures
        .into_iter()
        .map(|f| TaskFailure {
            index: missing[f.index].index,
            ..f
        })
        .collect();
    for (slot, task) in out.results.into_iter().zip(&missing) {
        match slot {
            Some(Ok(point)) => points[task.index] = Some(point),
            Some(Err(err)) => {
                if policy == RecoveryPolicy::FailFast {
                    return Err(err.into());
                }
                lori_obs::counter(lori_fault::METRIC_QUARANTINED).incr(1);
                failures.push(TaskFailure {
                    index: task.index,
                    attempts: 1,
                    message: err.to_string(),
                });
            }
            None => {}
        }
    }
    failures.sort_by_key(|f| f.index);
    if !failures.is_empty() {
        h.config(
            "quarantined_points",
            Value::Arr(
                failures
                    .iter()
                    .map(|f| Value::from(f.index as u64))
                    .collect(),
            ),
        );
        for f in &failures {
            eprintln!(
                "warning: point {} quarantined after {} attempts: {}",
                f.index, f.attempts, f.message
            );
        }
    }

    let outcome = SweepOutcome {
        points,
        failures,
        replayed,
    };
    match write_points_artifact(h.name(), &outcome.points) {
        Ok(path) => println!("points: {}", path.display()),
        Err(err) => eprintln!("warning: cannot write points artifact: {err}"),
    }
    Ok(outcome)
}

/// Writes the deterministic `results/<name>.points.json` artifact:
/// results only — no timestamps, versions, or wall times — written
/// atomically, so runs that compute the same points produce byte-identical
/// files regardless of worker count, interruption, or resume.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_points_artifact(
    name: &str,
    points: &[Option<SweepPoint>],
) -> std::io::Result<PathBuf> {
    let doc = Value::Obj(vec![
        ("exp".to_owned(), Value::from(name)),
        (
            "points".to_owned(),
            Value::Arr(
                points
                    .iter()
                    .map(|p| p.as_ref().map_or(Value::Null, point_to_value))
                    .collect(),
            ),
        ),
    ]);
    let path = points_path(name);
    lori_fault::atomic_write(&path, format!("{}\n", doc.to_json()).as_bytes())?;
    Ok(path)
}
