//! Error-rate-wall localisation and parameter sensitivity (the future work
//! Sec. V-D names: "determining how system parameters affect the error rate
//! wall").
//!
//! The wall is the error probability at which a mitigation algorithm's
//! deadline hit rate crosses 50 %. [`find_wall`] localises it by bisection
//! on log10(p); [`wall_sensitivity`] sweeps system parameters (speed
//! headroom, checkpoint granularity) and reports how the wall moves.

use crate::checkpoint::CheckpointSystem;
use crate::error::FtError;
use crate::mitigation::BudgetAlgorithm;
use crate::montecarlo::{sweep, SweepConfig};
use lori_core::units::Cycles;

/// Localises the error-rate wall for one algorithm: the `p` where the hit
/// rate crosses `0.5`, found by bisection on `log10(p)` within
/// `[p_lo, p_hi]`.
///
/// # Errors
///
/// Before any sweep, rejects a bracket that bisection on `log10(p)` cannot
/// narrow: [`FtError::NonFinite`] for a non-finite end,
/// [`FtError::NonPositive`] for `p_lo <= 0` or `p_hi <= p_lo`, and
/// [`FtError::BadProbability`] for `p_hi > 1`. Propagates sweep errors;
/// returns [`FtError::EmptySweep`] if the hit rate does not bracket 0.5 in
/// the interval.
pub fn find_wall(
    algorithm: BudgetAlgorithm,
    trace: &[Cycles],
    config: &SweepConfig,
    p_lo: f64,
    p_hi: f64,
    iterations: usize,
) -> Result<f64, FtError> {
    check_bracket(p_lo, p_hi)?;
    let alg_index = BudgetAlgorithm::ALL
        .iter()
        .position(|&a| a == algorithm)
        .expect("algorithm in catalog");
    let hit_at =
        |p: f64| -> Result<f64, FtError> { Ok(sweep(&[p], trace, config)?[0].hit_rate[alg_index]) };
    let hi_rate = hit_at(p_lo)?;
    let lo_rate = hit_at(p_hi)?;
    if hi_rate < 0.5 || lo_rate > 0.5 {
        return Err(FtError::EmptySweep("bracketing interval"));
    }
    let mut lo = p_lo.log10();
    let mut hi = p_hi.log10();
    for _ in 0..iterations {
        let mid = (lo + hi) / 2.0;
        if hit_at(10f64.powf(mid))? >= 0.5 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(10f64.powf((lo + hi) / 2.0))
}

/// Accepts only finite ends with `0 < p_lo < p_hi <= 1`. At `p_lo = 0`
/// every midpoint of `log10(0) = -inf` is `-inf` too, and the bisection
/// would report a wall at p = 0.
fn check_bracket(p_lo: f64, p_hi: f64) -> Result<(), FtError> {
    for (what, p) in [("p_lo", p_lo), ("p_hi", p_hi)] {
        if !p.is_finite() {
            return Err(FtError::NonFinite {
                site: "wall.bracket",
                what,
            });
        }
    }
    if p_lo <= 0.0 {
        return Err(FtError::NonPositive {
            what: "p_lo",
            value: p_lo,
        });
    }
    if p_hi <= p_lo {
        return Err(FtError::NonPositive {
            what: "p_hi - p_lo",
            value: p_hi - p_lo,
        });
    }
    if p_hi > 1.0 {
        return Err(FtError::BadProbability(p_hi));
    }
    Ok(())
}

/// One row of the sensitivity study.
#[derive(Debug, Clone, PartialEq)]
pub struct WallPoint {
    /// Parameter label (e.g. "speedup=3.0").
    pub label: String,
    /// Wall position for each algorithm, ordered as
    /// [`BudgetAlgorithm::ALL`].
    pub wall_p: [f64; 4],
}

/// Sweeps speed headroom and checkpoint granularity and reports how the
/// wall moves (experiment E13).
///
/// The bisection inside each row sweeps one probability point at a time,
/// so parallelism lives at the row level instead: every parameter row is
/// bisected on its own worker ([`lori_par::global`]). Rows are
/// independent — each inner sweep re-seeds from `base.seed` — so the
/// output is identical for every worker count.
///
/// # Errors
///
/// Propagates [`find_wall`] errors.
pub fn wall_sensitivity(
    trace: &[Cycles],
    base: &SweepConfig,
    speedups: &[f64],
    checkpoint_granularities: &[u32],
) -> Result<Vec<WallPoint>, FtError> {
    let rows: Vec<(String, SweepConfig)> = speedups
        .iter()
        .map(|&s| {
            (
                format!("speedup={s}"),
                SweepConfig {
                    max_speedup: s,
                    ..base.clone()
                },
            )
        })
        .chain(checkpoint_granularities.iter().map(|&k| {
            (
                format!("checkpoints_per_segment={k}"),
                SweepConfig {
                    checkpoints: CheckpointSystem {
                        checkpoints_per_segment: k,
                    },
                    ..base.clone()
                },
            )
        }))
        .collect();
    let _span = lori_obs::span("ftsched.wall_sensitivity");
    let computed = lori_par::par_map(lori_par::global(), &rows, |_, (label, config)| {
        Ok(WallPoint {
            label: label.clone(),
            wall_p: walls(trace, config)?,
        })
    });
    computed.into_iter().collect()
}

fn walls(trace: &[Cycles], config: &SweepConfig) -> Result<[f64; 4], FtError> {
    let mut out = [0.0; 4];
    for (i, &alg) in BudgetAlgorithm::ALL.iter().enumerate() {
        out[i] = find_wall(alg, trace, config, 1e-9, 1e-3, 12)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::adpcm_reference_trace;

    fn quick() -> SweepConfig {
        SweepConfig {
            runs: 20,
            ..SweepConfig::paper()
        }
    }

    #[test]
    fn wall_sits_in_paper_window() {
        let trace = adpcm_reference_trace();
        let wall = find_wall(BudgetAlgorithm::Ds2, &trace, &quick(), 1e-9, 1e-3, 12).unwrap();
        // Paper: the wall lives around 1e-6 to 1e-5.
        assert!(
            wall > 3e-7 && wall < 5e-5,
            "wall at {wall}, expected within the paper's window"
        );
    }

    #[test]
    fn conservative_algorithms_push_the_wall_out() {
        let trace = adpcm_reference_trace();
        let cfg = quick();
        let ds = find_wall(BudgetAlgorithm::Ds, &trace, &cfg, 1e-9, 1e-3, 10).unwrap();
        let wcet = find_wall(BudgetAlgorithm::Wcet, &trace, &cfg, 1e-9, 1e-3, 10).unwrap();
        assert!(
            wcet >= ds,
            "WCET wall {wcet} should be at or beyond DS wall {ds}"
        );
    }

    #[test]
    fn more_speed_headroom_moves_the_wall_forward() {
        let trace = adpcm_reference_trace();
        let rows = wall_sensitivity(&trace, &quick(), &[1.5, 3.0], &[]).unwrap();
        assert_eq!(rows.len(), 2);
        // More headroom → wall at higher p for every algorithm.
        for alg in 0..4 {
            assert!(
                rows[1].wall_p[alg] >= rows[0].wall_p[alg],
                "alg {alg}: {} vs {}",
                rows[1].wall_p[alg],
                rows[0].wall_p[alg]
            );
        }
    }

    #[test]
    fn zero_p_lo_is_rejected() {
        let trace = adpcm_reference_trace();
        assert_eq!(
            find_wall(BudgetAlgorithm::Ds, &trace, &quick(), 0.0, 1e-3, 4),
            Err(FtError::NonPositive {
                what: "p_lo",
                value: 0.0
            })
        );
    }

    #[test]
    fn negative_p_lo_is_rejected() {
        let trace = adpcm_reference_trace();
        assert_eq!(
            find_wall(BudgetAlgorithm::Ds, &trace, &quick(), -1e-6, 1e-3, 4),
            Err(FtError::NonPositive {
                what: "p_lo",
                value: -1e-6
            })
        );
    }

    #[test]
    fn non_finite_ends_are_rejected() {
        let trace = adpcm_reference_trace();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (p_lo, p_hi, what) in [(bad, 1e-3, "p_lo"), (1e-9, bad, "p_hi")] {
                assert_eq!(
                    find_wall(BudgetAlgorithm::Ds, &trace, &quick(), p_lo, p_hi, 4),
                    Err(FtError::NonFinite {
                        site: "wall.bracket",
                        what
                    }),
                    "[{p_lo}, {p_hi}]"
                );
            }
        }
    }

    #[test]
    fn empty_or_reversed_bracket_is_rejected() {
        let trace = adpcm_reference_trace();
        for (p_lo, p_hi) in [(1e-3, 1e-3), (1e-3, 1e-9)] {
            assert!(
                matches!(
                    find_wall(BudgetAlgorithm::Ds, &trace, &quick(), p_lo, p_hi, 4),
                    Err(FtError::NonPositive {
                        what: "p_hi - p_lo",
                        ..
                    })
                ),
                "[{p_lo}, {p_hi}]"
            );
        }
    }

    #[test]
    fn p_hi_above_one_is_rejected() {
        let trace = adpcm_reference_trace();
        assert_eq!(
            find_wall(BudgetAlgorithm::Ds, &trace, &quick(), 1e-9, 2.0, 4),
            Err(FtError::BadProbability(2.0))
        );
    }

    #[test]
    fn unbracketed_interval_errors() {
        let trace = adpcm_reference_trace();
        // Interval entirely above the wall: hit rate < 0.5 at both ends.
        assert!(find_wall(BudgetAlgorithm::Ds, &trace, &quick(), 1e-4, 1e-3, 4).is_err());
    }
}
