//! The machine-readable lane-engine performance record.
//!
//! [`write_bench_arch`] emits `BENCH_arch.json`: fault-injection
//! throughput of the 64-lane engine against the scalar path. The record
//! carries the machine's core count and the code version, and `lori-report
//! diff` compares a fresh record against the committed one.

use lori_obs::Value;
use std::path::{Path, PathBuf};

/// One measured injection workload for the lane-engine record: the same
/// fixed spec set timed on the scalar path and on the 64-lane engine.
#[derive(Debug, Clone, Copy)]
pub struct ArchGroup {
    /// Fault injections evaluated per timed pass.
    pub injections: usize,
    /// Wall-clock seconds for the scalar (`width = 1`) pass.
    pub scalar_wall_s: f64,
    /// Wall-clock seconds for the lane-engine pass.
    pub lane_wall_s: f64,
}

impl ArchGroup {
    /// The lane engine's throughput multiple over the scalar path.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.lane_wall_s > 0.0 {
            self.scalar_wall_s / self.lane_wall_s
        } else {
            0.0
        }
    }

    fn to_value(self) -> Value {
        #[allow(clippy::cast_precision_loss)]
        let per_s = |wall_s: f64| {
            if wall_s > 0.0 {
                self.injections as f64 / wall_s
            } else {
                0.0
            }
        };
        let pass = |wall_s: f64| {
            Value::Obj(vec![
                ("wall_s".to_owned(), Value::from(wall_s)),
                ("injections_per_s".to_owned(), Value::from(per_s(wall_s))),
            ])
        };
        Value::Obj(vec![
            ("injections".to_owned(), Value::from(self.injections as u64)),
            ("scalar".to_owned(), pass(self.scalar_wall_s)),
            ("lane".to_owned(), pass(self.lane_wall_s)),
            ("speedup".to_owned(), Value::from(self.speedup())),
        ])
    }
}

/// Writes `<dir>/BENCH_arch.json` atomically — the bit-parallel
/// fault-injection record: scalar-vs-lane wall time and injections/s for
/// the exp-ff-vulnerability-shaped and exp-anomaly-detection-shaped
/// campaigns, both measured serially so the speedup is the lane engine's
/// alone. Returns the path written.
///
/// The core count matters because a 1-core runner cannot show wall-time
/// speedup, and `lori-report diff` only gates hard between equal core
/// counts. The replace is atomic so that a diff never sees a half-written
/// record from a killed bench run.
///
/// # Panics
///
/// Panics if `dir` cannot be created or the record cannot be written — a
/// perf record that silently fails to persist is worse than a loud failure
/// in a bench run.
pub fn write_bench_arch(
    dir: &Path,
    lanes: usize,
    ff_vulnerability: ArchGroup,
    anomaly: ArchGroup,
) -> PathBuf {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let record = Value::Obj(vec![
        ("bench".to_owned(), Value::from("fault_throughput")),
        ("lanes".to_owned(), Value::from(lanes as u64)),
        ("cores".to_owned(), Value::from(cores as u64)),
        ("ff_vulnerability".to_owned(), ff_vulnerability.to_value()),
        ("anomaly_campaign".to_owned(), anomaly.to_value()),
        (
            "version".to_owned(),
            Value::from(lori_obs::version_string()),
        ),
    ]);
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("BENCH_arch.json");
    lori_obs::atomic_write(&path, format!("{}\n", record.to_json()).as_bytes())
        .unwrap_or_else(|err| panic!("write BENCH_arch.json: {err}"));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_arch_record_round_trips() {
        let dir = std::env::temp_dir().join(format!("lori-perf-arch-{}", std::process::id()));
        let ff = ArchGroup {
            injections: 10_240,
            scalar_wall_s: 8.0,
            lane_wall_s: 0.25,
        };
        let anomaly = ArchGroup {
            injections: 4096,
            scalar_wall_s: 2.0,
            lane_wall_s: 0.1,
        };
        let path = write_bench_arch(&dir, 64, ff, anomaly);
        let text = std::fs::read_to_string(&path).expect("record written");
        let v = Value::parse(&text).expect("valid json");
        assert_eq!(
            v.get("bench").and_then(Value::as_str),
            Some("fault_throughput")
        );
        assert_eq!(v.get("lanes").and_then(Value::as_f64), Some(64.0));
        let ffv = v.get("ff_vulnerability").expect("ff block");
        assert_eq!(ffv.get("speedup").and_then(Value::as_f64), Some(32.0));
        assert_eq!(
            ffv.get("lane")
                .and_then(|l| l.get("injections_per_s"))
                .and_then(Value::as_f64),
            Some(40_960.0)
        );
        let an = v.get("anomaly_campaign").expect("anomaly block");
        assert_eq!(an.get("speedup").and_then(Value::as_f64), Some(20.0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
