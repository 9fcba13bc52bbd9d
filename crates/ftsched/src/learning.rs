//! Learning-based cycle-noise prediction (Sec. V: "cycle-noise mitigation
//! system can be optimized by learning-based approaches to improve its
//! prediction accuracy of execution time").
//!
//! [`LearnedBudget`] trains a linear regressor online: after each segment it
//! observes the actual consumed cycles and refits a model mapping
//! fault-free requirement → consumed cycles. Budgets then anticipate
//! rollback inflation instead of assuming fault-free execution, pushing the
//! DS cliff toward higher error rates without paying WCET's constant
//! pessimism (experiment E14).

use crate::checkpoint::CheckpointSystem;
use crate::error::FtError;
use crate::error_model::ErrorModel;
use crate::mitigation::{BudgetAlgorithm, DeadlineTracker, MitigationSystem, DS_MARGIN};
use lori_core::units::Cycles;
use lori_core::Rng;
use lori_ml::data::Dataset;
use lori_ml::linreg::LinearRegression;
use lori_ml::traits::Regressor;

/// An online-learned budget predictor.
#[derive(Debug, Clone)]
pub struct LearnedBudget {
    /// Observed (fault-free cycles, actual cycles) pairs.
    history: Vec<(f64, f64)>,
    /// Refit interval (segments).
    refit_every: usize,
    /// Current model, if enough history exists.
    model: Option<LinearRegression>,
}

impl LearnedBudget {
    /// Creates a predictor with the given refit interval.
    ///
    /// # Errors
    ///
    /// Returns [`FtError::NonPositive`] for a zero refit interval.
    pub fn new(refit_every: usize) -> Result<Self, FtError> {
        if refit_every == 0 {
            return Err(FtError::NonPositive {
                what: "refit_every",
                value: 0.0,
            });
        }
        Ok(LearnedBudget {
            history: Vec::new(),
            refit_every,
            model: None,
        })
    }

    /// Predicted budget (in cycles) for a segment whose fault-free
    /// requirement is `fault_free`: the model's prediction (at least
    /// `fault_free`) times [`DS_MARGIN`]. Before the first fit this is
    /// `fault_free` times the margin (plain DS behaviour).
    #[must_use]
    pub fn budget(&self, fault_free: Cycles) -> Cycles {
        let base = match &self.model {
            Some(m) => m.predict(&[fault_free.as_f64()]).max(fault_free.as_f64()),
            None => fault_free.as_f64(),
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Cycles((base * DS_MARGIN) as u64)
    }

    /// Records an observation and refits when due.
    pub fn observe(&mut self, fault_free: Cycles, actual: Cycles) {
        self.history.push((fault_free.as_f64(), actual.as_f64()));
        if self.history.len().is_multiple_of(self.refit_every) && self.history.len() >= 8 {
            let rows: Vec<Vec<f64>> = self.history.iter().map(|&(x, _)| vec![x]).collect();
            let ys: Vec<f64> = self.history.iter().map(|&(_, y)| y).collect();
            if let Ok(ds) = Dataset::from_rows(rows, ys) {
                if let Ok(m) = LinearRegression::fit(&ds, 1e-6) {
                    self.model = Some(m);
                }
            }
        }
    }
}

/// Result of comparing plain DS against learned-budget DS over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedComparison {
    /// Hit rate of plain DS.
    pub ds_hit_rate: f64,
    /// Hit rate of learned-budget DS.
    pub learned_hit_rate: f64,
    /// Mean budget of plain DS (cycles).
    pub ds_mean_budget: f64,
    /// Mean budget of learned DS (cycles).
    pub learned_mean_budget: f64,
}

/// Runs the comparison at error probability `p` on the paper's system: one
/// checkpoint per segment and DS budgets at the default speed headroom. The
/// trace is repeated `laps` times so the learner has history to train on;
/// hit rates are measured over the final lap.
///
/// # Errors
///
/// [`FtError::EmptyTrace`] for an empty trace, [`FtError::EmptySweep`] for
/// zero laps and [`FtError::BadProbability`] for `p` outside `[0, 1]`.
pub fn compare_ds_vs_learned(
    trace: &[Cycles],
    p: f64,
    laps: usize,
    seed: u64,
) -> Result<LearnedComparison, FtError> {
    if trace.is_empty() {
        return Err(FtError::EmptyTrace);
    }
    if laps == 0 {
        return Err(FtError::EmptySweep("lap"));
    }
    let checkpoints = CheckpointSystem::default();
    let mitigation = MitigationSystem::new(BudgetAlgorithm::Ds);
    let errors = ErrorModel::new(p)?;
    let plans: Vec<_> = trace
        .iter()
        .map(|&work| checkpoints.plan_segment(work, &errors))
        .collect();
    let mut rng = Rng::from_seed(seed);
    let mut learner = LearnedBudget::new(8)?;

    let mut ds_hits = 0u64;
    let mut learned_hits = 0u64;
    let mut measured = 0u64;
    let mut ds_budget_sum = 0.0;
    let mut learned_budget_sum = 0.0;
    let mut ds_tracker = DeadlineTracker::default();
    let mut learned_tracker = DeadlineTracker::default();

    for lap in 0..laps {
        let is_final = lap == laps - 1;
        if is_final {
            // Hit rates are measured over the final lap with fresh slack so
            // training laps cannot bank (or owe) budget.
            ds_tracker = DeadlineTracker::default();
            learned_tracker = DeadlineTracker::default();
        }
        for (&work, plan) in trace.iter().zip(&plans) {
            let fault_free = checkpoints.fault_free_cycles(work);
            let ex = plan.execute(&mut rng);
            // Plain DS budget: fault-free × margin.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let ds_budget = Cycles((fault_free.as_f64() * DS_MARGIN) as u64);
            let learned_budget = learner.budget(fault_free);
            let ds_hit = ds_tracker.advance_with_budget(&mitigation, ds_budget, ex.total_cycles);
            let learned_hit =
                learned_tracker.advance_with_budget(&mitigation, learned_budget, ex.total_cycles);
            if is_final {
                measured += 1;
                ds_budget_sum += ds_budget.as_f64();
                learned_budget_sum += learned_budget.as_f64();
                if ds_hit {
                    ds_hits += 1;
                }
                if learned_hit {
                    learned_hits += 1;
                }
            }
            learner.observe(fault_free, ex.total_cycles);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    Ok(LearnedComparison {
        ds_hit_rate: ds_hits as f64 / measured as f64,
        learned_hit_rate: learned_hits as f64 / measured as f64,
        ds_mean_budget: ds_budget_sum / measured as f64,
        learned_mean_budget: learned_budget_sum / measured as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::adpcm_reference_trace;

    #[test]
    fn learner_validation() {
        assert!(LearnedBudget::new(0).is_err());
        assert!(LearnedBudget::new(8).is_ok());
    }

    #[test]
    fn learner_fits_after_enough_observations() {
        let mut l = LearnedBudget::new(4).unwrap();
        assert!(l.model.is_none());
        for i in 0..16u64 {
            let ff = Cycles(40_000 + i * 10_000);
            l.observe(ff, Cycles((ff.as_f64() * 1.5) as u64));
        }
        assert!(l.model.is_some());
        // Budgets now anticipate the 1.5× inflation.
        let b = l.budget(Cycles(100_000)).as_f64();
        assert!(b > 140_000.0, "budget {b}");
    }

    #[test]
    fn unfitted_learner_acts_like_ds() {
        let l = LearnedBudget::new(8).unwrap();
        let b = l.budget(Cycles(100_000)).as_f64();
        assert!((b - 105_000.0).abs() < 2.0);
    }

    #[test]
    fn learned_budgets_win_in_the_window() {
        // At an error rate inside the cliff window, learned budgets should
        // hit more deadlines than plain DS.
        let trace = adpcm_reference_trace();
        let cmp = compare_ds_vs_learned(&trace, 4e-6, 6, 1).unwrap();
        assert!(
            cmp.learned_hit_rate > cmp.ds_hit_rate,
            "learned {} vs ds {}",
            cmp.learned_hit_rate,
            cmp.ds_hit_rate
        );
        // The learner pays with bigger budgets — but far less than WCET's
        // constant 270k-scale budget.
        assert!(cmp.learned_mean_budget > cmp.ds_mean_budget);
    }

    #[test]
    fn comparison_validation() {
        assert!(compare_ds_vs_learned(&[], 1e-6, 3, 1).is_err());
        let trace = adpcm_reference_trace();
        assert!(compare_ds_vs_learned(&trace, 1e-6, 0, 1).is_err());
        assert!(compare_ds_vs_learned(&trace, 2.0, 3, 1).is_err());
    }

    #[test]
    fn at_negligible_p_both_hit_everything() {
        let trace = adpcm_reference_trace();
        let cmp = compare_ds_vs_learned(&trace, 1e-9, 3, 2).unwrap();
        assert!((cmp.ds_hit_rate - 1.0).abs() < 1e-9);
        assert!((cmp.learned_hit_rate - 1.0).abs() < 1e-9);
    }
}
