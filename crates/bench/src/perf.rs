//! Machine-readable performance trajectory records.
//!
//! [`write_bench_arch`] and [`write_bench_sta`] emit `BENCH_arch.json` and
//! `BENCH_sta.json`: the lane-engine fault-injection throughput and
//! full-pass vs incremental STA. Every record carries the
//! machine's core count and the code version, and `lori-report diff`
//! compares a fresh record against the committed one.

use lori_obs::Value;
use std::path::{Path, PathBuf};

/// Writes `<dir>/<file>` atomically: `{"bench": bench, <before_cores>,
/// "cores": n, <after_cores>, "version": v}`. The core count matters
/// because a 1-core runner cannot show wall-time speedup, and `lori-report
/// diff` only gates hard between equal core counts. Atomic replace: a
/// perf trajectory diff must never see a half-written record from a
/// killed bench run.
///
/// # Panics
///
/// Panics if `dir` cannot be created or the file cannot be written — a
/// perf record that silently fails to persist is worse than a loud failure
/// in a bench run.
fn write_record(
    dir: &Path,
    file: &str,
    bench: &str,
    before_cores: Vec<(String, Value)>,
    after_cores: Vec<(String, Value)>,
) -> PathBuf {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut fields = vec![("bench".to_owned(), Value::from(bench))];
    fields.extend(before_cores);
    fields.push(("cores".to_owned(), Value::from(cores as u64)));
    fields.extend(after_cores);
    fields.push((
        "version".to_owned(),
        Value::from(lori_obs::version_string()),
    ));
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(file);
    lori_obs::atomic_write(
        &path,
        format!("{}\n", Value::Obj(fields).to_json()).as_bytes(),
    )
    .unwrap_or_else(|err| panic!("write {file}: {err}"));
    path
}

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

/// Writes `<dir>/BENCH_arch.json` — the bit-parallel fault-injection
/// record: scalar-vs-lane wall time and injections/s for the
/// exp-ff-vulnerability-shaped and exp-anomaly-detection-shaped campaigns,
/// both measured serially so the speedup is the lane engine's alone.
/// Returns the path written.
///
/// # Panics
///
/// Panics if `dir` cannot be created or the record cannot be written.
pub fn write_bench_arch(
    dir: &Path,
    lanes: usize,
    ff_vulnerability: ArchGroup,
    anomaly: ArchGroup,
) -> PathBuf {
    write_record(
        dir,
        "BENCH_arch.json",
        "fault_throughput",
        vec![("lanes".to_owned(), Value::from(lanes as u64))],
        vec![
            ("ff_vulnerability".to_owned(), ff_vulnerability.to_value()),
            ("anomaly_campaign".to_owned(), anomaly.to_value()),
        ],
    )
}

/// One design's full-pass vs incremental-edit STA measurement.
#[derive(Debug, Clone)]
pub struct StaDesign {
    /// Design label (doubles as the JSON key, e.g. `random_logic_2000`).
    pub name: String,
    /// Instances in the netlist.
    pub instances: usize,
    /// Full from-scratch passes timed.
    pub full_passes: usize,
    /// Wall-clock seconds for all full passes.
    pub full_wall_s: f64,
    /// Single-instance edits re-timed incrementally.
    pub edits: usize,
    /// Wall-clock seconds for all incremental edits.
    pub incremental_wall_s: f64,
}

impl StaDesign {
    /// How many times faster one incremental single-edit retime is than
    /// one full from-scratch pass.
    #[must_use]
    pub fn single_edit_speedup(&self) -> f64 {
        if self.full_passes == 0 || self.edits == 0 || self.incremental_wall_s <= 0.0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let full_per = self.full_wall_s / self.full_passes as f64;
        #[allow(clippy::cast_precision_loss)]
        let inc_per = self.incremental_wall_s / self.edits as f64;
        if inc_per > 0.0 {
            full_per / inc_per
        } else {
            0.0
        }
    }

    fn to_value(&self) -> Value {
        #[allow(clippy::cast_precision_loss)]
        let per_s = |count: usize, wall_s: f64| {
            if wall_s > 0.0 {
                count as f64 / wall_s
            } else {
                0.0
            }
        };
        Value::Obj(vec![
            ("instances".to_owned(), Value::from(self.instances as u64)),
            (
                "full".to_owned(),
                Value::Obj(vec![
                    ("passes".to_owned(), Value::from(self.full_passes as u64)),
                    ("wall_s".to_owned(), Value::from(self.full_wall_s)),
                    (
                        "passes_per_s".to_owned(),
                        Value::from(per_s(self.full_passes, self.full_wall_s)),
                    ),
                ]),
            ),
            (
                "incremental".to_owned(),
                Value::Obj(vec![
                    ("edits".to_owned(), Value::from(self.edits as u64)),
                    ("wall_s".to_owned(), Value::from(self.incremental_wall_s)),
                    (
                        "edits_per_s".to_owned(),
                        Value::from(per_s(self.edits, self.incremental_wall_s)),
                    ),
                ]),
            ),
            (
                "single_edit_speedup".to_owned(),
                Value::from(self.single_edit_speedup()),
            ),
        ])
    }
}

/// Writes `<dir>/BENCH_sta.json` — the incremental STA record: for each
/// design size, full from-scratch pass throughput vs single-instance
/// incremental retime throughput on the `StaEngine`, plus the per-edit
/// speedup. Returns the path written.
///
/// # Panics
///
/// Panics if `dir` cannot be created or the record cannot be written.
pub fn write_bench_sta(dir: &Path, designs: &[StaDesign]) -> PathBuf {
    let designs = designs
        .iter()
        .map(|d| (d.name.clone(), d.to_value()))
        .collect();
    write_record(
        dir,
        "BENCH_sta.json",
        "sta_incremental",
        Vec::new(),
        vec![("designs".to_owned(), Value::Obj(designs))],
    )
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

    #[test]
    fn bench_sta_record_round_trips() {
        let dir = std::env::temp_dir().join(format!("lori-perf-sta-{}", std::process::id()));
        let design = StaDesign {
            name: "random_logic_2000".to_owned(),
            instances: 2000,
            full_passes: 10,
            full_wall_s: 1.0,
            edits: 1000,
            incremental_wall_s: 0.5,
        };
        assert!((design.single_edit_speedup() - 200.0).abs() < 1e-9);
        let path = write_bench_sta(&dir, &[design]);
        let text = std::fs::read_to_string(&path).expect("record written");
        let v = Value::parse(&text).expect("valid json");
        assert_eq!(
            v.get("bench").and_then(Value::as_str),
            Some("sta_incremental")
        );
        let d = v
            .get("designs")
            .and_then(|d| d.get("random_logic_2000"))
            .expect("design block");
        assert_eq!(d.get("instances").and_then(Value::as_f64), Some(2000.0));
        assert_eq!(
            d.get("full")
                .and_then(|f| f.get("passes_per_s"))
                .and_then(Value::as_f64),
            Some(10.0)
        );
        assert_eq!(
            d.get("incremental")
                .and_then(|i| i.get("edits_per_s"))
                .and_then(Value::as_f64),
            Some(2000.0)
        );
        assert_eq!(
            d.get("single_edit_speedup").and_then(Value::as_f64),
            Some(200.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
