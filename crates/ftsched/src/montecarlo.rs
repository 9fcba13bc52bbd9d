//! The Monte Carlo harness of Sec. V-D: sweeps error probability, runs 100
//! simulations per point, and produces the data behind Fig. 5 (average
//! rollbacks per segment) and Fig. 6 (deadline hit rate per algorithm).
//!
//! Every point is a pure function of `(axis index, config, trace)` — the
//! per-point RNG stream is derived from the seed and the point's index,
//! never from timing or worker identity. That purity is what lets
//! `lori_par::par_map` fan points out over threads with bit-identical
//! results at every worker count.

use crate::checkpoint::{CheckpointSystem, CHECKPOINT_CYCLES, ROLLBACK_CYCLES};
use crate::error::FtError;
use crate::error_model::ErrorModel;
use crate::mitigation::{
    check_max_speedup, BudgetAlgorithm, DeadlineTracker, MitigationSystem, DEFAULT_MAX_SPEEDUP,
};
use lori_core::stats::Running;
use lori_core::units::Cycles;
use lori_core::Rng;
use lori_par::Parallelism;

/// Configuration of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Checkpoint granularity.
    pub checkpoints: CheckpointSystem,
    /// Maximum processor speed-up over nominal, shared by the four budget
    /// algorithms that every sweep runs.
    pub max_speedup: f64,
    /// Monte Carlo runs per probability point (paper: 100).
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl SweepConfig {
    /// The paper's Sec. V-D setup: 100 Monte Carlo runs per probability
    /// point, seed 0, one checkpoint per segment and the
    /// [`DEFAULT_MAX_SPEEDUP`] headroom. Every `exp-*` binary that
    /// reproduces a paper figure starts from this.
    #[must_use]
    pub fn paper() -> Self {
        SweepConfig {
            checkpoints: CheckpointSystem::default(),
            max_speedup: DEFAULT_MAX_SPEEDUP,
            runs: 100,
            seed: 0,
        }
    }

    /// Validates the full sweep input: the config itself (positive
    /// parameters, nonzero runs) plus the probability axis and trace it
    /// will run over. [`sweep_with`] calls this, and experiment binaries
    /// call it up front so a bad run dies before any work is spent.
    ///
    /// # Errors
    ///
    /// [`FtError::EmptySweep`] for an empty axis or zero runs,
    /// [`FtError::EmptyTrace`] for an empty trace,
    /// [`FtError::BadProbability`] for non-finite or out-of-range
    /// probabilities, and parameter errors from the checkpoint validator
    /// and the headroom guard.
    pub fn validate(&self, p_values: &[f64], trace: &[Cycles]) -> Result<(), FtError> {
        if p_values.is_empty() {
            return Err(FtError::EmptySweep("probability point"));
        }
        if self.runs == 0 {
            return Err(FtError::EmptySweep("run"));
        }
        if trace.is_empty() {
            return Err(FtError::EmptyTrace);
        }
        for &p in p_values {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(FtError::BadProbability(p));
            }
        }
        self.checkpoints.validate()?;
        check_max_speedup(self.max_speedup)
    }
}

/// Results at one error-probability point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The per-cycle error probability.
    pub p: f64,
    /// Average rollbacks per segment (Fig. 5's y-axis).
    pub avg_rollbacks_per_segment: f64,
    /// Standard deviation of per-run average rollbacks.
    pub rollbacks_std: f64,
    /// Deadline hit rate per algorithm, ordered as
    /// [`BudgetAlgorithm::ALL`] (Fig. 6's y-axis).
    pub hit_rate: [f64; 4],
    /// Average cycle overhead over fault-free execution (fraction).
    pub cycle_overhead: f64,
}

/// Runs the full sweep over `p_values` for a segment `trace`, fanning the
/// probability points out over the process default's workers
/// ([`lori_par::global`]).
///
/// # Errors
///
/// Returns [`FtError::EmptySweep`] for empty probability lists or zero
/// runs, [`FtError::EmptyTrace`] for an empty trace,
/// [`FtError::BadProbability`] for out-of-range probabilities, and
/// propagates parameter-validation errors.
pub fn sweep(
    p_values: &[f64],
    trace: &[Cycles],
    config: &SweepConfig,
) -> Result<Vec<SweepPoint>, FtError> {
    sweep_with(p_values, trace, config, lori_par::global())
}

/// [`sweep`] with an explicit worker pool.
///
/// The output is bit-identical for every worker count: each probability
/// point's RNG stream is split off the root serially *before* the fan-out
/// (`root.split(pi)`, then `point_rng.split(run)` inside the point), every
/// floating-point accumulation stays inside one point's task, and the
/// `ftsched.rollbacks` / `ftsched.deadline_misses` counters are merged
/// with one atomic increment per point.
///
/// # Errors
///
/// Same as [`sweep`].
pub fn sweep_with(
    p_values: &[f64],
    trace: &[Cycles],
    config: &SweepConfig,
    par: Parallelism,
) -> Result<Vec<SweepPoint>, FtError> {
    let tasks = point_tasks(p_values, trace, config)?;
    let _sweep_span = lori_obs::span("ftsched.sweep");
    lori_par::par_map(par, &tasks, |_, task| run_point(task, trace, config))
        .into_iter()
        .collect()
}

/// One probability point's unit of work: its probability and the RNG
/// stream that was split off the sweep root for it. Tasks are produced by
/// [`point_tasks`] and executed by [`run_point`] in any order without
/// changing results.
#[derive(Debug, Clone)]
struct PointTask {
    /// The per-cycle error probability.
    p: f64,
    errors: ErrorModel,
    rng: Rng,
}

/// Validates the sweep input and splits one [`PointTask`] per probability
/// point. Streams are split off the root serially, in point order, before
/// any fan-out — the determinism contract: a point's stream depends only
/// on its index, never on scheduling.
///
/// # Errors
///
/// Same as [`SweepConfig::validate`].
fn point_tasks(
    p_values: &[f64],
    trace: &[Cycles],
    config: &SweepConfig,
) -> Result<Vec<PointTask>, FtError> {
    config.validate(p_values, trace)?;
    let mut root = Rng::from_seed(config.seed);
    p_values
        .iter()
        .enumerate()
        .map(|(pi, &p)| {
            #[allow(clippy::cast_possible_truncation)]
            let rng = root.split(pi as u64);
            Ok(PointTask {
                p,
                errors: ErrorModel::new(p)?,
                rng,
            })
        })
        .collect()
}

/// Largest number of rollbacks of each trace segment that any of the four
/// budget algorithms could actually *execute* before every deadline in the
/// run — including all slack conceivably carried over — has irrevocably
/// passed, aligned with `trace` by index.
///
/// A sampled rollback count comes from the unbounded geometric of Eq. (2)
/// and is never executed: at the top of the Fig. 5 axis it is about 5·10¹¹
/// for a 270k-cycle segment. The `ftsched.rollbacks` counter records the
/// recovery events the simulated system processed, and a deadline-scheduled
/// system stops observing a segment's recoveries once even the most
/// generous cumulative budget (Σ budgets × max speed-up) is exhausted, so
/// per-segment counts are clamped to that horizon (+1 for the rollback that
/// overruns it). Fig. 5's `avg_rollbacks_per_segment` statistics keep the
/// raw samples: the figure reports Eq. (2)'s expectation, not executed work.
#[must_use]
pub fn observable_rollback_caps(trace: &[Cycles], config: &SweepConfig) -> Vec<u64> {
    // The most generous whole-run cycle capacity any algorithm can grant:
    // cumulative budget at maximum processor speed.
    let wcet_work = trace.iter().copied().max().unwrap_or(Cycles(0));
    let run_capacity = BudgetAlgorithm::ALL
        .iter()
        .map(|&algorithm| {
            let sys = MitigationSystem {
                algorithm,
                max_speedup: config.max_speedup,
            };
            trace
                .iter()
                .map(|&work| {
                    sys.budget(
                        config.checkpoints.fault_free_cycles(work),
                        config.checkpoints.fault_free_cycles(wcet_work),
                    )
                    .as_f64()
                })
                .sum::<f64>()
                * sys.max_speedup
        })
        .fold(0.0f64, f64::max);
    trace
        .iter()
        .map(|&work| {
            // Each rollback of this segment re-runs one chunk window and
            // pays the rollback routine; more than capacity/per_rollback of
            // them cannot fit before the run's final deadline. A regular
            // chunk is the smallest, so it gives the most rollbacks.
            let chunk = work.value() / u64::from(config.checkpoints.checkpoints_per_segment);
            let per_rollback =
                Cycles(chunk + CHECKPOINT_CYCLES.value() + ROLLBACK_CYCLES.value()).as_f64();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let cap = (run_capacity / per_rollback).floor() as u64;
            cap.saturating_add(1)
        })
        .collect()
}

/// Runs one probability point to completion. Self-contained: every
/// floating-point accumulation stays inside this call, and the
/// `ftsched.rollbacks` / `ftsched.deadline_misses` counters are merged
/// with one atomic increment per point, so metric totals are exact no
/// matter how points interleave across workers. The rollbacks counter
/// records *deadline-observable* rollbacks (see
/// [`observable_rollback_caps`]); the returned [`SweepPoint`] statistics
/// keep the raw Eq. (2) samples.
///
/// # Errors
///
/// [`FtError::NonFinite`] when a per-point statistic comes out non-finite
/// (see [`check_point`]), so NaN never reaches an artifact.
fn run_point(
    task: &PointTask,
    trace: &[Cycles],
    config: &SweepConfig,
) -> Result<SweepPoint, FtError> {
    let _point_span = lori_obs::span_with("ftsched.sweep.point", task.p);
    let wcet_work = trace.iter().copied().max().ok_or(FtError::EmptyTrace)?;
    let systems = BudgetAlgorithm::ALL.map(|algorithm| MitigationSystem {
        algorithm,
        max_speedup: config.max_speedup,
    });
    // Per-segment fault-free cycles depend only on the checkpoint config.
    let fault_free_run_total: f64 = trace
        .iter()
        .map(|&work| config.checkpoints.fault_free_cycles(work).as_f64())
        .sum();

    let rollback_caps = observable_rollback_caps(trace, config);
    // Hoist the Eq.-(1) powf out of the runs × segments loop: one plan per
    // trace segment, executed `runs` times with identical RNG consumption.
    let plans: Vec<_> = trace
        .iter()
        .map(|&work| config.checkpoints.plan_segment(work, &task.errors))
        .collect();
    let mut point_rng = task.rng.clone();
    let mut rollback_runs = Running::new();
    let mut point_rollbacks = 0u64;
    let mut hits = [0u64; 4];
    let mut segments_total = 0u64;
    let mut cycles_actual = 0.0f64;
    let mut cycles_fault_free = 0.0f64;
    for run in 0..config.runs {
        #[allow(clippy::cast_possible_truncation)]
        let mut rng = point_rng.split(run as u64);
        let mut run_rollbacks = 0u64;
        let mut run_observable = 0u64;
        // One tracker per algorithm, fresh for each run.
        let mut trackers = [DeadlineTracker::default(); 4];
        for ((&work, &cap), plan) in trace.iter().zip(&rollback_caps).zip(&plans) {
            let ex = plan.execute(&mut rng);
            run_rollbacks = run_rollbacks.saturating_add(ex.rollbacks);
            run_observable = run_observable.saturating_add(ex.rollbacks.min(cap));
            segments_total += 1;
            cycles_actual += ex.total_cycles.as_f64();
            for ((s, t), h) in systems.iter().zip(&mut trackers).zip(&mut hits) {
                if t.advance(s, work, wcet_work, ex.total_cycles, &config.checkpoints) {
                    *h += 1;
                }
            }
        }
        cycles_fault_free += fault_free_run_total;
        point_rollbacks = point_rollbacks.saturating_add(run_observable);
        #[allow(clippy::cast_precision_loss)]
        rollback_runs.push(run_rollbacks as f64 / trace.len() as f64);
    }
    lori_obs::counter("ftsched.rollbacks").incr(point_rollbacks);
    lori_obs::counter("ftsched.deadline_misses")
        .incr(4 * segments_total - hits.iter().sum::<u64>());
    #[allow(clippy::cast_precision_loss)]
    let per_alg_total = segments_total as f64;
    #[allow(clippy::cast_precision_loss)]
    let hit_rate = [
        hits[0] as f64 / per_alg_total,
        hits[1] as f64 / per_alg_total,
        hits[2] as f64 / per_alg_total,
        hits[3] as f64 / per_alg_total,
    ];
    let point = SweepPoint {
        p: task.p,
        avg_rollbacks_per_segment: rollback_runs.mean(),
        rollbacks_std: rollback_runs.std_dev(),
        hit_rate,
        cycle_overhead: cycles_actual / cycles_fault_free - 1.0,
    };
    check_point(&point)?;
    Ok(point)
}

/// The `sweep.point` guard: a point whose statistics are not all finite
/// becomes [`FtError::NonFinite`] naming the bad statistic, instead of a
/// NaN in `points.json`.
fn check_point(point: &SweepPoint) -> Result<(), FtError> {
    for (what, v) in [
        ("avg_rollbacks_per_segment", point.avg_rollbacks_per_segment),
        ("rollbacks_std", point.rollbacks_std),
        ("cycle_overhead", point.cycle_overhead),
    ] {
        if !v.is_finite() {
            lori_obs::counter("fault.detected").incr(1);
            return Err(FtError::NonFinite {
                site: "sweep.point",
                what,
            });
        }
    }
    if point.hit_rate.iter().any(|h| !h.is_finite()) {
        lori_obs::counter("fault.detected").incr(1);
        return Err(FtError::NonFinite {
            site: "sweep.point",
            what: "hit_rate",
        });
    }
    Ok(())
}

/// The paper's Fig. 5/6 probability axis: log-spaced points from 1e-8 to
/// 1e-4.
#[must_use]
pub fn paper_probability_axis() -> Vec<f64> {
    // 4 decades × 3 mantissas + the closing 1e-4 endpoint.
    let mut v = Vec::with_capacity(13);
    for exp in -8..=-5 {
        for mantissa in [1.0, 2.0, 5.0] {
            v.push(mantissa * 10f64.powi(exp));
        }
    }
    v.push(1e-4);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::adpcm_reference_trace;

    fn quick_config() -> SweepConfig {
        SweepConfig {
            runs: 30,
            ..SweepConfig::paper()
        }
    }

    #[test]
    fn fig5_shape_knee_and_wall() {
        let trace = adpcm_reference_trace();
        let points = sweep(&[1e-8, 1e-6, 1e-5, 5e-5], &trace, &quick_config()).unwrap();
        // Negligible at 1e-8.
        assert!(points[0].avg_rollbacks_per_segment < 0.01);
        // Noticeable but below 1 at 1e-6 (the knee).
        assert!(points[1].avg_rollbacks_per_segment > 0.02);
        assert!(points[1].avg_rollbacks_per_segment < 1.0);
        // "More than 10 rollbacks per segment" beyond 1e-5 (paper quotes the
        // regime just past 1e-5; at 5e-5 it must clearly hold).
        assert!(
            points[3].avg_rollbacks_per_segment > 10.0,
            "at 5e-5: {}",
            points[3].avg_rollbacks_per_segment
        );
        // Monotone growth.
        for w in points.windows(2) {
            assert!(w[1].avg_rollbacks_per_segment >= w[0].avg_rollbacks_per_segment);
        }
    }

    #[test]
    fn fig6_shape_cliff_and_ordering() {
        let trace = adpcm_reference_trace();
        let points = sweep(&[1e-8, 3e-6, 1e-5, 1e-4], &trace, &quick_config()).unwrap();
        // Near-perfect hit rates far below the wall, for every algorithm.
        for &h in &points[0].hit_rate {
            assert!(h > 0.999, "hit rate {h} at p=1e-8");
        }
        // Inside the window, conservative algorithms win: DS ≤ DS1.5 ≤ DS2 ≤ WCET.
        let mid = &points[1];
        for w in 0..3 {
            assert!(
                mid.hit_rate[w] <= mid.hit_rate[w + 1] + 0.02,
                "ordering violated at p=3e-6: {:?}",
                mid.hit_rate
            );
        }
        // The window separates them materially.
        assert!(
            mid.hit_rate[3] - mid.hit_rate[0] > 0.05,
            "no spread at p=3e-6: {:?}",
            mid.hit_rate
        );
        // Beyond the wall everyone converges to ~zero.
        for &h in &points[3].hit_rate {
            assert!(h < 0.05, "hit rate {h} at p=1e-4");
        }
    }

    #[test]
    fn hit_rates_monotone_in_p() {
        let trace = adpcm_reference_trace();
        let points = sweep(&[1e-7, 1e-6, 5e-6, 1e-5], &trace, &quick_config()).unwrap();
        for alg in 0..4 {
            for w in points.windows(2) {
                assert!(
                    w[1].hit_rate[alg] <= w[0].hit_rate[alg] + 0.02,
                    "alg {alg} hit rate rose with p"
                );
            }
        }
    }

    #[test]
    fn overhead_grows_with_p() {
        let trace = adpcm_reference_trace();
        let points = sweep(&[1e-8, 1e-5], &trace, &quick_config()).unwrap();
        assert!(points[1].cycle_overhead > points[0].cycle_overhead);
        assert!(points[0].cycle_overhead >= 0.0);
    }

    #[test]
    fn sweep_validation() {
        let trace = adpcm_reference_trace();
        assert!(sweep(&[], &trace, &quick_config()).is_err());
        assert!(sweep(&[1e-6], &[], &quick_config()).is_err());
        let zero_runs = SweepConfig {
            runs: 0,
            ..quick_config()
        };
        assert!(sweep(&[1e-6], &trace, &zero_runs).is_err());
        assert!(sweep(&[2.0], &trace, &quick_config()).is_err());
    }

    #[test]
    fn validate_rejects_bad_axes_and_configs() {
        let trace = adpcm_reference_trace();
        let config = quick_config();
        assert!(config.validate(&[1e-6], &trace).is_ok());
        assert_eq!(
            config.validate(&[], &trace),
            Err(FtError::EmptySweep("probability point"))
        );
        assert_eq!(config.validate(&[1e-6], &[]), Err(FtError::EmptyTrace));
        let zero_runs = SweepConfig {
            runs: 0,
            ..config.clone()
        };
        assert_eq!(
            zero_runs.validate(&[1e-6], &trace),
            Err(FtError::EmptySweep("run"))
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 1.5] {
            assert!(
                matches!(
                    config.validate(&[1e-6, bad], &trace),
                    Err(FtError::BadProbability(_))
                ),
                "p={bad} must be rejected"
            );
        }
        let bad_ckpt = SweepConfig {
            checkpoints: CheckpointSystem {
                checkpoints_per_segment: 0,
            },
            ..config.clone()
        };
        assert!(bad_ckpt.validate(&[1e-6], &trace).is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad_headroom = SweepConfig {
                max_speedup: bad,
                ..config.clone()
            };
            assert_eq!(
                bad_headroom.validate(&[1e-6], &trace),
                Err(FtError::NonFinite {
                    site: "headroom",
                    what: "max_speedup"
                }),
                "max_speedup = {bad}"
            );
            assert_eq!(
                sweep(&[1e-5], &trace, &bad_headroom),
                Err(FtError::NonFinite {
                    site: "headroom",
                    what: "max_speedup"
                })
            );
        }
    }

    #[test]
    fn segments_shorter_than_their_chunk_count_sweep() {
        // Three-cycle segments at eight checkpoints each: empty chunks, no
        // underflow, and every fault-free run hits.
        let config = SweepConfig {
            checkpoints: CheckpointSystem {
                checkpoints_per_segment: 8,
            },
            ..quick_config()
        };
        let points = sweep(&[0.0, 1e-6], &[Cycles(3), Cycles(5)], &config).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].hit_rate, [1.0; 4]);
        assert_eq!(points[0].avg_rollbacks_per_segment, 0.0);
        assert!(points[1].hit_rate.iter().all(|h| (0.0..=1.0).contains(h)));
    }

    #[test]
    fn sweep_deterministic_per_seed() {
        let trace = adpcm_reference_trace();
        let a = sweep(&[1e-6], &trace, &quick_config()).unwrap();
        let b = sweep(&[1e-6], &trace, &quick_config()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_sweep_bit_identical_to_serial() {
        let trace = adpcm_reference_trace();
        let axis = paper_probability_axis();
        let config = SweepConfig {
            runs: 40,
            ..SweepConfig::paper()
        };
        let serial = sweep_with(&axis, &trace, &config, Parallelism::serial()).unwrap();
        let parallel = sweep_with(&axis, &trace, &config, Parallelism::new(4)).unwrap();
        // Full-struct equality: every f64 (means, stds, hit rates, cycle
        // overheads) must match bit for bit, not approximately.
        assert_eq!(serial, parallel);
        // And an uneven worker count, so points per worker don't divide
        // evenly either.
        let three = sweep_with(&axis, &trace, &config, Parallelism::new(3)).unwrap();
        assert_eq!(serial, three);
    }

    #[test]
    fn paper_config_runs_100_per_point_from_seed_0() {
        let paper = SweepConfig::paper();
        assert_eq!(paper.runs, 100);
        assert_eq!(paper.seed, 0);
        assert_eq!(paper.checkpoints, CheckpointSystem::default());
        assert_eq!(paper.max_speedup, DEFAULT_MAX_SPEEDUP);
    }

    #[test]
    fn paper_axis_is_log_spaced() {
        let axis = paper_probability_axis();
        assert!(axis.len() >= 10);
        assert!(axis.first().unwrap() <= &1e-8);
        assert!(axis.last().unwrap() >= &1e-4);
        for w in axis.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn non_finite_point_statistic_is_a_typed_error() {
        let finite = SweepPoint {
            p: 1e-6,
            avg_rollbacks_per_segment: 0.25,
            rollbacks_std: 0.05,
            hit_rate: [1.0, 0.98, 0.97, 0.9],
            cycle_overhead: 0.01,
        };
        assert_eq!(check_point(&finite), Ok(()));
        // Every checked field, as (index into `poison`'s match, name).
        let fields = [
            (0, "avg_rollbacks_per_segment"),
            (1, "rollbacks_std"),
            (2, "cycle_overhead"),
            (3, "hit_rate"),
            (4, "hit_rate"),
            (5, "hit_rate"),
            (6, "hit_rate"),
        ];
        let poison = |field: usize, v: f64| {
            let mut point = finite.clone();
            match field {
                0 => point.avg_rollbacks_per_segment = v,
                1 => point.rollbacks_std = v,
                2 => point.cycle_overhead = v,
                k => point.hit_rate[k - 3] = v,
            }
            point
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (field, what) in fields {
                assert_eq!(
                    check_point(&poison(field, bad)),
                    Err(FtError::NonFinite {
                        site: "sweep.point",
                        what
                    }),
                    "{what} = {bad}"
                );
            }
        }
    }
}
