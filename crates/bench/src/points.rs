//! The deterministic Fig. 5/6 points artifact.
//!
//! `exp-fig5` and `exp-fig6` write their sweep results to
//! `results/<name>.points.json`: results only, no timestamps, versions or
//! wall times, written atomically. It is the file to byte-compare across
//! runs and worker counts.

use crate::harness::Harness;
use lori_ftsched::montecarlo::SweepPoint;
use lori_obs::Value;
use std::path::PathBuf;

fn point_to_value(point: &SweepPoint) -> Value {
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

/// Writes the run's `<name>.points.json` artifact (see the module docs)
/// into the harness's results directory and returns its path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_points_artifact(h: &Harness, points: &[SweepPoint]) -> std::io::Result<PathBuf> {
    let name = h.name();
    let doc = Value::Obj(vec![
        ("exp".to_owned(), Value::from(name)),
        (
            "points".to_owned(),
            Value::Arr(points.iter().map(point_to_value).collect()),
        ),
    ]);
    let path = h.dir().join(format!("{name}.points.json"));
    lori_obs::atomic_write(&path, format!("{}\n", doc.to_json()).as_bytes())?;
    Ok(path)
}
