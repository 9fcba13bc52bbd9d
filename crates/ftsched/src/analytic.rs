//! Closed-form cross-checks for the Monte Carlo harness.
//!
//! For a *single segment with its own deadline* (no slack carry-over), the
//! geometric rollback distribution of Eq. (2) gives the deadline-hit
//! probability in closed form: the segment hits iff its rollback count stays
//! at or below the largest `n` whose total cycles fit the budget at maximum
//! speed. These formulas cross-check the simulator and give instant wall
//! estimates without simulation. They are not a bound on it: the
//! simulator's `DeadlineTracker` carries debt as well as slack from segment
//! to segment, so past the knee one rollback burst makes later segments
//! miss and the Monte Carlo falls below the per-segment rate (DS reads
//! 0.043 against 0.639 at p = 4e-6).

use crate::checkpoint::{CheckpointSystem, CHECKPOINT_CYCLES, ROLLBACK_CYCLES};
use crate::error::FtError;
use crate::error_model::ErrorModel;
use crate::mitigation::MitigationSystem;
use lori_core::units::{Cycles, Probability};

/// Largest rollback count a segment of `work` cycles can absorb within
/// `budget` cycles at the system's maximum speed; `None` if even the
/// fault-free execution does not fit.
#[must_use]
pub fn max_tolerable_rollbacks(
    work: Cycles,
    budget: Cycles,
    system: &MitigationSystem,
    checkpoints: &CheckpointSystem,
) -> Option<u64> {
    let window = checkpoints.fault_free_cycles(work).as_f64()
        / f64::from(checkpoints.checkpoints_per_segment);
    // With k chunks, the worst case puts all rollbacks in one chunk; for the
    // closed form we use the single-chunk (k = 1) system, which is the
    // paper's configuration.
    let capacity = budget.as_f64() * system.max_speedup;
    let fault_free = checkpoints.fault_free_cycles(work).as_f64();
    if capacity < fault_free {
        return None;
    }
    let per_rollback = window + ROLLBACK_CYCLES.as_f64();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Some(((capacity - fault_free) / per_rollback).floor() as u64)
}

/// Closed-form per-segment deadline-hit probability (no slack carry-over):
/// `P(hit) = P(N_rb ≤ n_max) = 1 − (1−q)^{n_max+1}`.
///
/// # Errors
///
/// Returns [`FtError::NonPositive`] via parameter validation.
pub fn segment_hit_probability(
    work: Cycles,
    wcet_work: Cycles,
    errors: &ErrorModel,
    system: &MitigationSystem,
    checkpoints: &CheckpointSystem,
) -> Result<Probability, FtError> {
    system.validate()?;
    checkpoints.validate()?;
    let budget = system.budget(
        checkpoints.fault_free_cycles(work),
        checkpoints.fault_free_cycles(wcet_work),
    );
    let Some(n_max) = max_tolerable_rollbacks(work, budget, system, checkpoints) else {
        return Ok(Probability::ZERO);
    };
    let window = Cycles(
        work.value() / u64::from(checkpoints.checkpoints_per_segment) + CHECKPOINT_CYCLES.value(),
    );
    let q = errors.no_error_probability(window);
    // P(N ≤ n) = 1 − (1−q)^{n+1}
    #[allow(clippy::cast_precision_loss)]
    Ok(Probability::saturating(
        1.0 - q.complement().value().powf((n_max + 1) as f64),
    ))
}

/// Trace-level analytic per-segment hit rate under independent per-segment
/// deadlines, each segment scored alone. The simulator carries slack and
/// debt across segments, so its hit rate can sit above this (below the
/// knee) or far below it (past the knee).
///
/// # Errors
///
/// Propagates [`segment_hit_probability`] errors and
/// [`FtError::EmptyTrace`].
pub fn trace_hit_rate_no_carryover(
    trace: &[Cycles],
    errors: &ErrorModel,
    system: &MitigationSystem,
    checkpoints: &CheckpointSystem,
) -> Result<f64, FtError> {
    if trace.is_empty() {
        return Err(FtError::EmptyTrace);
    }
    let wcet = trace.iter().copied().max().expect("non-empty");
    let mut total = 0.0;
    for &work in trace {
        total += segment_hit_probability(work, wcet, errors, system, checkpoints)?.value();
    }
    #[allow(clippy::cast_precision_loss)]
    Ok(total / trace.len() as f64)
}

/// Analytic expected cycle overhead of checkpoint/rollback over fault-free
/// execution for a whole trace: `E[C]/C_ff − 1`.
///
/// # Errors
///
/// Returns [`FtError::EmptyTrace`] for an empty trace.
pub fn trace_expected_overhead(
    trace: &[Cycles],
    errors: &ErrorModel,
    checkpoints: &CheckpointSystem,
) -> Result<f64, FtError> {
    if trace.is_empty() {
        return Err(FtError::EmptyTrace);
    }
    let mut expected = 0.0;
    let mut fault_free = 0.0;
    for &work in trace {
        expected += checkpoints.expected_cycles(work, errors);
        fault_free += checkpoints.fault_free_cycles(work).as_f64();
    }
    Ok(expected / fault_free - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mitigation::BudgetAlgorithm;
    use crate::montecarlo::{sweep, SweepConfig};
    use crate::workload::adpcm_reference_trace;

    #[test]
    fn tolerable_rollbacks_ordering() {
        let cp = CheckpointSystem::default();
        let work = Cycles(100_000);
        let wcet = Cycles(270_000);
        let counts: Vec<Option<u64>> = BudgetAlgorithm::ALL
            .iter()
            .map(|&alg| {
                let sys = MitigationSystem::new(alg);
                let budget = sys.budget(cp.fault_free_cycles(work), cp.fault_free_cycles(wcet));
                max_tolerable_rollbacks(work, budget, &sys, &cp)
            })
            .collect();
        // All defined, and non-decreasing toward the conservative end.
        let vals: Vec<u64> = counts.into_iter().map(|c| c.expect("feasible")).collect();
        assert!(vals[0] <= vals[1] && vals[1] <= vals[2] && vals[2] <= vals[3]);
        // WCET (capacity 1.3×283k ≈ 369k) absorbs 2 rollbacks of a 100k segment.
        assert!(vals[3] >= 2, "WCET tolerates {} rollbacks", vals[3]);
    }

    #[test]
    fn infeasible_budget_is_zero_probability() {
        let cp = CheckpointSystem::default();
        let mut sys = MitigationSystem::new(BudgetAlgorithm::Ds);
        sys.max_speedup = 1.0;
        // Without headroom the 5 % DS margin tolerates zero rollbacks of a
        // 100k segment (a rollback costs a whole window), so the segment
        // hits only with no error at all:
        let p = segment_hit_probability(
            Cycles(100_000),
            Cycles(100_000),
            &ErrorModel::new(0.5).expect("p"),
            &sys,
            &cp,
        )
        .expect("probability");
        // q ~ 0 at p=0.5 → essentially never hits.
        assert!(p.value() < 1e-6);
    }

    #[test]
    fn hit_probability_monotone_in_p() {
        let cp = CheckpointSystem::default();
        let sys = MitigationSystem::new(BudgetAlgorithm::Ds2);
        let mut prev = 1.0;
        for &p in &[1e-8, 1e-7, 1e-6, 1e-5, 1e-4] {
            let errors = ErrorModel::new(p).expect("p");
            let hit = segment_hit_probability(Cycles(150_000), Cycles(270_000), &errors, &sys, &cp)
                .expect("probability")
                .value();
            assert!(hit <= prev + 1e-12, "p={p}: {hit} > {prev}");
            prev = hit;
        }
    }

    #[test]
    fn zero_error_rate_always_hits() {
        let cp = CheckpointSystem::default();
        let errors = ErrorModel::new(0.0).expect("p");
        for &alg in &BudgetAlgorithm::ALL {
            let sys = MitigationSystem::new(alg);
            let hit = segment_hit_probability(Cycles(200_000), Cycles(270_000), &errors, &sys, &cp)
                .expect("probability");
            assert!((hit.value() - 1.0).abs() < 1e-12, "{}", alg.label());
        }
    }

    #[test]
    fn analytic_overhead_matches_monte_carlo() {
        let trace = adpcm_reference_trace();
        let cp = CheckpointSystem::default();
        let p = 5e-6;
        let errors = ErrorModel::new(p).expect("p");
        let analytic = trace_expected_overhead(&trace, &errors, &cp).expect("analytic");
        let mc = sweep(
            &[p],
            &trace,
            &SweepConfig {
                runs: 60,
                ..SweepConfig::paper()
            },
        )
        .expect("sweep")[0]
            .cycle_overhead;
        assert!(
            (analytic - mc).abs() / analytic < 0.1,
            "analytic {analytic} vs monte carlo {mc}"
        );
    }

    #[test]
    fn wcet_mc_hit_rate_reaches_per_segment_rate_below_knee() {
        // At this one point, below WCET's knee, the simulator's carried
        // slack outweighs its carried debt, so its MC hit rate is at least
        // the per-segment rate. Past the knee it is not.
        let trace = adpcm_reference_trace();
        let cp = CheckpointSystem::default();
        let p = 4e-6;
        let errors = ErrorModel::new(p).expect("p");
        let sys = MitigationSystem::new(BudgetAlgorithm::Wcet);
        let per_segment =
            trace_hit_rate_no_carryover(&trace, &errors, &sys, &cp).expect("per-segment rate");
        let mc = sweep(
            &[p],
            &trace,
            &SweepConfig {
                runs: 60,
                ..SweepConfig::paper()
            },
        )
        .expect("sweep")[0]
            .hit_rate[3];
        assert!(
            mc + 0.03 >= per_segment,
            "carry-over MC {mc} more than 0.03 below the per-segment rate {per_segment}"
        );
    }

    #[test]
    fn empty_trace_rejected() {
        let cp = CheckpointSystem::default();
        let errors = ErrorModel::new(1e-6).expect("p");
        let sys = MitigationSystem::new(BudgetAlgorithm::Ds);
        assert!(trace_hit_rate_no_carryover(&[], &errors, &sys, &cp).is_err());
        assert!(trace_expected_overhead(&[], &errors, &cp).is_err());
    }
}
