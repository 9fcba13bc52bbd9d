//! Machine-readable performance trajectory records.
//!
//! [`write_bench_sweep`] emits `results/BENCH_sweep.json`: wall time and
//! throughput (probability points per second) for one fixed Fig. 5/6-sized
//! Monte Carlo sweep, measured serially and with the parallel executor.
//! [`write_bench_cache`] and [`write_bench_obs`] record the memoization
//! payoff and the observability tax in the same shape. Future PRs diff
//! these files to see whether a change moved the hot path.

use crate::harness::results_dir;
use lori_obs::Value;
use std::path::PathBuf;

/// One timed configuration of the fixed sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepTiming {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_s: f64,
}

impl SweepTiming {
    fn to_value(self, points: usize) -> Value {
        #[allow(clippy::cast_precision_loss)]
        let pps = if self.wall_s > 0.0 {
            points as f64 / self.wall_s
        } else {
            0.0
        };
        Value::Obj(vec![
            ("threads".to_owned(), Value::from(self.threads as u64)),
            ("wall_s".to_owned(), Value::from(self.wall_s)),
            ("points_per_s".to_owned(), Value::from(pps)),
        ])
    }
}

/// Writes `results/BENCH_sweep.json` describing a fixed sweep measured at
/// one and `parallel.threads` workers. Returns the path written.
///
/// The record includes the machine's core count: a 1-core runner cannot
/// show wall-time speedup no matter how good the executor is, and perf
/// trajectories are only comparable across equal-core environments. To
/// make those comparisons possible, the same record is also written to a
/// per-core-count baseline slot, `results/BENCH_sweep.cores-<n>.json` —
/// the perf gate prefers the slot matching the current runner, so a
/// multi-core runner's speedup is gated against a multi-core baseline
/// instead of being demoted to a warning against a 1-core one.
///
/// # Panics
///
/// Panics if the results directory cannot be created or the file cannot be
/// written — a perf record that silently fails to persist is worse than a
/// loud failure in a bench run.
pub fn write_bench_sweep(
    probability_points: usize,
    runs_per_point: usize,
    serial: SweepTiming,
    parallel: SweepTiming,
) -> PathBuf {
    let speedup = if parallel.wall_s > 0.0 {
        serial.wall_s / parallel.wall_s
    } else {
        0.0
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let doc = Value::Obj(vec![
        ("bench".to_owned(), Value::from("fig56_sweep")),
        (
            "probability_points".to_owned(),
            Value::from(probability_points as u64),
        ),
        (
            "runs_per_point".to_owned(),
            Value::from(runs_per_point as u64),
        ),
        ("cores".to_owned(), Value::from(cores as u64)),
        ("serial".to_owned(), serial.to_value(probability_points)),
        ("parallel".to_owned(), parallel.to_value(probability_points)),
        ("speedup".to_owned(), Value::from(speedup)),
        (
            "version".to_owned(),
            Value::from(lori_obs::version_string()),
        ),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_sweep.json");
    let bytes = format!("{}\n", doc.to_json());
    // Atomic replace: a perf trajectory diff must never see a half-written
    // record from a killed bench run.
    lori_fault::atomic_write(&path, bytes.as_bytes()).expect("write BENCH_sweep.json");
    // The per-core-count baseline slot (see the doc comment).
    let cores_slot = dir.join(format!("BENCH_sweep.cores-{cores}.json"));
    lori_fault::atomic_write(&cores_slot, bytes.as_bytes()).expect("write BENCH_sweep cores slot");
    path
}

/// One timed pass of the fixed golden-model workload for the cache bench.
#[derive(Debug, Clone, Copy)]
pub struct CacheTiming {
    /// Wall-clock seconds for the whole workload.
    pub wall_s: f64,
    /// Cache hit fraction observed during the pass (0 for a cold pass).
    pub hit_rate: f64,
}

impl CacheTiming {
    fn to_value(self, calls: usize) -> Value {
        #[allow(clippy::cast_precision_loss)]
        let cps = if self.wall_s > 0.0 {
            calls as f64 / self.wall_s
        } else {
            0.0
        };
        Value::Obj(vec![
            ("wall_s".to_owned(), Value::from(self.wall_s)),
            ("calls_per_s".to_owned(), Value::from(cps)),
            ("hit_rate".to_owned(), Value::from(self.hit_rate)),
        ])
    }
}

/// Writes `results/BENCH_cache.json` — the golden-model memoization record
/// in the same shape as [`write_bench_sweep`]'s: one fixed workload
/// (`characterize_library` + `mlchar::train` over the default 60-cell
/// library, `golden_calls` golden queries), timed cold (empty cache) and
/// warm (fully populated). Returns the path written.
///
/// # Panics
///
/// Panics if the results directory cannot be created or the file cannot be
/// written — a perf record that silently fails to persist is worse than a
/// loud failure in a bench run.
pub fn write_bench_cache(
    golden_calls: usize,
    cache_mode: &str,
    cold: CacheTiming,
    warm: CacheTiming,
) -> PathBuf {
    let speedup = if warm.wall_s > 0.0 {
        cold.wall_s / warm.wall_s
    } else {
        0.0
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let doc = Value::Obj(vec![
        ("bench".to_owned(), Value::from("golden_cache")),
        ("golden_calls".to_owned(), Value::from(golden_calls as u64)),
        ("cores".to_owned(), Value::from(cores as u64)),
        ("cache_mode".to_owned(), Value::from(cache_mode)),
        ("cold".to_owned(), cold.to_value(golden_calls)),
        ("warm".to_owned(), warm.to_value(golden_calls)),
        ("speedup".to_owned(), Value::from(speedup)),
        (
            "version".to_owned(),
            Value::from(lori_obs::version_string()),
        ),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_cache.json");
    // Atomic replace, same contract as BENCH_sweep.json.
    lori_fault::atomic_write(&path, format!("{}\n", doc.to_json()).as_bytes())
        .expect("write BENCH_cache.json");
    path
}

/// Writes `results/BENCH_obs.json` — the observability-tax record: median
/// wall seconds for one fixed Monte Carlo sweep with the telemetry plane
/// fully off (`baseline`) and with the shipping default (flight recorder
/// armed, no recorder, no endpoint — `telemetry_disabled`), plus the
/// relative overhead in percent. The acceptance bar is overhead < 2%.
/// Returns the path written.
///
/// # Panics
///
/// Panics if the results directory cannot be created or the file cannot be
/// written — a perf record that silently fails to persist is worse than a
/// loud failure in a bench run.
pub fn write_bench_obs(samples: usize, baseline_s: f64, telemetry_disabled_s: f64) -> PathBuf {
    let overhead_pct = if baseline_s > 0.0 {
        (telemetry_disabled_s - baseline_s) / baseline_s * 100.0
    } else {
        0.0
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let doc = Value::Obj(vec![
        ("bench".to_owned(), Value::from("obs_overhead")),
        ("samples".to_owned(), Value::from(samples as u64)),
        ("cores".to_owned(), Value::from(cores as u64)),
        (
            "baseline".to_owned(),
            Value::Obj(vec![("wall_s".to_owned(), Value::from(baseline_s))]),
        ),
        (
            "telemetry_disabled".to_owned(),
            Value::Obj(vec![(
                "wall_s".to_owned(),
                Value::from(telemetry_disabled_s),
            )]),
        ),
        ("overhead_pct".to_owned(), Value::from(overhead_pct)),
        (
            "version".to_owned(),
            Value::from(lori_obs::version_string()),
        ),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_obs.json");
    // Atomic replace, same contract as BENCH_sweep.json.
    lori_fault::atomic_write(&path, format!("{}\n", doc.to_json()).as_bytes())
        .expect("write BENCH_obs.json");
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

/// Writes `results/BENCH_arch.json` — the bit-parallel fault-injection
/// record: scalar-vs-lane wall time and injections/s for the
/// exp-ff-vulnerability-shaped and exp-anomaly-detection-shaped campaigns,
/// both measured serially so the speedup is the lane engine's alone.
/// Returns the path written.
///
/// # Panics
///
/// Panics if the results directory cannot be created or the file cannot be
/// written — a perf record that silently fails to persist is worse than a
/// loud failure in a bench run.
pub fn write_bench_arch(lanes: usize, ff_vulnerability: ArchGroup, anomaly: ArchGroup) -> PathBuf {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let doc = Value::Obj(vec![
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
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_arch.json");
    // Atomic replace, same contract as BENCH_sweep.json.
    lori_fault::atomic_write(&path, format!("{}\n", doc.to_json()).as_bytes())
        .expect("write BENCH_arch.json");
    path
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

/// Writes `results/BENCH_sta.json` — the incremental STA record: for each
/// design size, full from-scratch pass throughput vs single-instance
/// incremental retime throughput on the `StaEngine`, plus the per-edit
/// speedup. Returns the path written.
///
/// # Panics
///
/// Panics if the results directory cannot be created or the file cannot be
/// written — a perf record that silently fails to persist is worse than a
/// loud failure in a bench run.
pub fn write_bench_sta(designs: &[StaDesign]) -> PathBuf {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let doc = Value::Obj(vec![
        ("bench".to_owned(), Value::from("sta_incremental")),
        ("cores".to_owned(), Value::from(cores as u64)),
        (
            "designs".to_owned(),
            Value::Obj(
                designs
                    .iter()
                    .map(|d| (d.name.clone(), d.to_value()))
                    .collect(),
            ),
        ),
        (
            "version".to_owned(),
            Value::from(lori_obs::version_string()),
        ),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_sta.json");
    // Atomic replace, same contract as BENCH_sweep.json.
    lori_fault::atomic_write(&path, format!("{}\n", doc.to_json()).as_bytes())
        .expect("write BENCH_sta.json");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_arch_record_round_trips() {
        let _env = crate::env_lock();
        let dir = std::env::temp_dir().join(format!("lori-perf-arch-{}", std::process::id()));
        std::env::set_var("LORI_RESULTS_DIR", &dir);
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
        let path = write_bench_arch(64, ff, anomaly);
        std::env::remove_var("LORI_RESULTS_DIR");
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
        let _env = crate::env_lock();
        let dir = std::env::temp_dir().join(format!("lori-perf-sta-{}", std::process::id()));
        std::env::set_var("LORI_RESULTS_DIR", &dir);
        let design = StaDesign {
            name: "random_logic_2000".to_owned(),
            instances: 2000,
            full_passes: 10,
            full_wall_s: 1.0,
            edits: 1000,
            incremental_wall_s: 0.5,
        };
        assert!((design.single_edit_speedup() - 200.0).abs() < 1e-9);
        let path = write_bench_sta(&[design]);
        std::env::remove_var("LORI_RESULTS_DIR");
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

    #[test]
    fn bench_cache_record_round_trips() {
        let _env = crate::env_lock();
        let dir = std::env::temp_dir().join(format!("lori-perf-cache-{}", std::process::id()));
        std::env::set_var("LORI_RESULTS_DIR", &dir);
        let path = write_bench_cache(
            2160,
            "mem",
            CacheTiming {
                wall_s: 8.0,
                hit_rate: 0.0,
            },
            CacheTiming {
                wall_s: 0.5,
                hit_rate: 1.0,
            },
        );
        std::env::remove_var("LORI_RESULTS_DIR");
        let text = std::fs::read_to_string(&path).expect("record written");
        let v = Value::parse(&text).expect("valid json");
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("golden_cache"));
        assert_eq!(v.get("speedup").and_then(Value::as_f64), Some(16.0));
        assert_eq!(v.get("cache_mode").and_then(Value::as_str), Some("mem"));
        let warm = v.get("warm").expect("warm block");
        assert_eq!(warm.get("hit_rate").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            warm.get("calls_per_s").and_then(Value::as_f64),
            Some(4320.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_obs_record_round_trips() {
        let _env = crate::env_lock();
        let dir = std::env::temp_dir().join(format!("lori-perf-obs-{}", std::process::id()));
        std::env::set_var("LORI_RESULTS_DIR", &dir);
        let path = write_bench_obs(9, 2.0, 2.02);
        std::env::remove_var("LORI_RESULTS_DIR");
        let text = std::fs::read_to_string(&path).expect("record written");
        let v = Value::parse(&text).expect("valid json");
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("obs_overhead"));
        let pct = v.get("overhead_pct").and_then(Value::as_f64).unwrap();
        assert!((pct - 1.0).abs() < 1e-9, "overhead_pct = {pct}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_sweep_record_round_trips() {
        let _env = crate::env_lock();
        let dir = std::env::temp_dir().join(format!("lori-perf-{}", std::process::id()));
        std::env::set_var("LORI_RESULTS_DIR", &dir);
        let path = write_bench_sweep(
            13,
            100,
            SweepTiming {
                threads: 1,
                wall_s: 2.0,
            },
            SweepTiming {
                threads: 4,
                wall_s: 0.5,
            },
        );
        std::env::remove_var("LORI_RESULTS_DIR");
        let text = std::fs::read_to_string(&path).expect("record written");
        let v = Value::parse(&text).expect("valid json");
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("fig56_sweep"));
        assert_eq!(v.get("speedup").and_then(Value::as_f64), Some(4.0));
        let serial = v.get("serial").expect("serial block");
        assert_eq!(serial.get("threads").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            serial.get("points_per_s").and_then(Value::as_f64),
            Some(6.5)
        );
        assert!(v.get("cores").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
