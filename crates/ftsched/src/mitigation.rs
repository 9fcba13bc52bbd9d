//! Cycle-noise mitigation (Sec. V-C): per-segment budget scheduling with a
//! bounded speed-up headroom.
//!
//! Rollback-recovery fixes errors but injects *cycle noise* — run-to-run
//! variability in the cycles a segment needs. The multi-timescale
//! mitigation approach allocates each segment a time budget and raises the
//! processor speed in advance so potential rollbacks fit inside it. A
//! segment hits its deadline iff its consumed cycles fit within the budget
//! at the maximum processor speed:
//!
//! `hit ⇔ total_cycles ≤ budget_cycles × s_max`
//!
//! Four algorithms from aggressive to conservative, as in the paper:
//!
//! - **DS** — dynamic-scenario based: a tight per-segment budget derived at
//!   run time from the detected scenario (= the segment's own nominal work
//!   plus checkpoint overhead, with a small margin);
//! - **DS 1.5×**, **DS 2×** — DS budgets scaled by 1.5 and 2;
//! - **WCET** — worst-case execution time: every segment gets the budget of
//!   the largest segment in the application.

use crate::checkpoint::CheckpointSystem;
use crate::error::FtError;
use lori_core::units::Cycles;

/// The four budget algorithms of the paper's Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetAlgorithm {
    /// Dynamic-scenario based (most aggressive).
    Ds,
    /// Dynamic-scenario based, budgets × 1.5.
    Ds15,
    /// Dynamic-scenario based, budgets × 2.
    Ds2,
    /// Worst-case execution time (most conservative).
    Wcet,
}

impl BudgetAlgorithm {
    /// All four, in the paper's aggressive-to-conservative order.
    pub const ALL: [BudgetAlgorithm; 4] = [
        BudgetAlgorithm::Ds,
        BudgetAlgorithm::Ds15,
        BudgetAlgorithm::Ds2,
        BudgetAlgorithm::Wcet,
    ];

    /// Display label, matching the paper's legend.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BudgetAlgorithm::Ds => "DS",
            BudgetAlgorithm::Ds15 => "DS 1.5x",
            BudgetAlgorithm::Ds2 => "DS 2x",
            BudgetAlgorithm::Wcet => "WCET",
        }
    }

    /// The budget scale applied to the dynamic-scenario estimate.
    #[must_use]
    pub fn scale(self) -> f64 {
        match self {
            BudgetAlgorithm::Ds => 1.0,
            BudgetAlgorithm::Ds15 => 1.5,
            BudgetAlgorithm::Ds2 => 2.0,
            BudgetAlgorithm::Wcet => 1.0, // scale is irrelevant; see budget()
        }
    }
}

/// Multiplicative margin on the dynamic-scenario estimate (5 %).
pub const DS_MARGIN: f64 = 1.05;

/// The processor's default speed headroom over nominal (30 %), used by
/// [`MitigationSystem::new`] and the paper's sweep configuration.
pub const DEFAULT_MAX_SPEEDUP: f64 = 1.3;

/// The mitigation system: budget algorithm + processor speed headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationSystem {
    /// The budget algorithm in use.
    pub algorithm: BudgetAlgorithm,
    /// Maximum speed-up the processor can apply over nominal (the headroom
    /// the mitigation raises in advance of potential rollbacks).
    pub max_speedup: f64,
}

impl MitigationSystem {
    /// Creates a mitigation system with the [`DEFAULT_MAX_SPEEDUP`]
    /// headroom.
    #[must_use]
    pub fn new(algorithm: BudgetAlgorithm) -> Self {
        MitigationSystem {
            algorithm,
            max_speedup: DEFAULT_MAX_SPEEDUP,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// [`FtError::NonFinite`] for a NaN or infinite headroom,
    /// [`FtError::NonPositive`] for a finite one below 1.
    pub fn validate(&self) -> Result<(), FtError> {
        check_max_speedup(self.max_speedup)
    }

    /// The budget (in nominal-speed cycles) allocated to a segment whose
    /// fault-free requirement is `fault_free` cycles, given the workload's
    /// worst-case fault-free segment `wcet_fault_free`.
    #[must_use]
    pub fn budget(&self, fault_free: Cycles, wcet_fault_free: Cycles) -> Cycles {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        match self.algorithm {
            BudgetAlgorithm::Wcet => Cycles((wcet_fault_free.as_f64() * DS_MARGIN) as u64),
            alg => Cycles((fault_free.as_f64() * DS_MARGIN * alg.scale()) as u64),
        }
    }
}

/// The `headroom` guard: a speed headroom must be finite and at least 1
/// (no slow-down). Unchecked, a NaN headroom misses every deadline and +∞
/// hits every one.
///
/// # Errors
///
/// [`FtError::NonFinite`] for a NaN or infinite headroom,
/// [`FtError::NonPositive`] for a finite one below 1.
pub(crate) fn check_max_speedup(max_speedup: f64) -> Result<(), FtError> {
    if !max_speedup.is_finite() {
        return Err(FtError::NonFinite {
            site: "headroom",
            what: "max_speedup",
        });
    }
    if max_speedup < 1.0 {
        return Err(FtError::NonPositive {
            what: "max_speedup - 1",
            value: max_speedup - 1.0,
        });
    }
    Ok(())
}

/// Cumulative deadline accounting with slack carry-over, as in the
/// multi-timescale mitigation of the paper's ref \[53\]: segment `i`'s
/// deadline is the cumulative budget Σ_{j≤i} B_j, and the processor can run
/// up to `max_speedup` faster than nominal, so segment `i` hits its deadline
/// iff
///
/// `Σ_{j≤i} actual_j ≤ max_speedup · Σ_{j≤i} B_j`
///
/// Slack earned by conservative budgets on cheap segments carries forward
/// to absorb later rollback bursts — which is exactly why conservative
/// algorithms hold out longer inside the error-rate window. A run starts
/// from `DeadlineTracker::default()`, with nothing carried over.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeadlineTracker {
    cum_actual: f64,
    cum_budget: f64,
}

impl DeadlineTracker {
    /// Advances past one segment: allocates its budget, charges its actual
    /// cycles, and reports whether the segment hit its (cumulative)
    /// deadline.
    #[must_use]
    pub fn advance(
        &mut self,
        system: &MitigationSystem,
        work: Cycles,
        wcet_work: Cycles,
        actual: Cycles,
        checkpoints: &CheckpointSystem,
    ) -> bool {
        let budget = system.budget(
            checkpoints.fault_free_cycles(work),
            checkpoints.fault_free_cycles(wcet_work),
        );
        self.advance_with_budget(system, budget, actual)
    }

    /// Advances with an explicitly-computed budget (used by the learned-
    /// budget predictor).
    #[must_use]
    pub fn advance_with_budget(
        &mut self,
        system: &MitigationSystem,
        budget: Cycles,
        actual: Cycles,
    ) -> bool {
        self.cum_budget += budget.as_f64();
        self.cum_actual += actual.as_f64();
        self.cum_actual <= self.cum_budget * system.max_speedup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_order() {
        assert_eq!(BudgetAlgorithm::ALL.len(), 4);
        assert_eq!(BudgetAlgorithm::Ds.label(), "DS");
        assert_eq!(BudgetAlgorithm::Wcet.label(), "WCET");
        assert!(BudgetAlgorithm::Ds15.scale() < BudgetAlgorithm::Ds2.scale());
    }

    #[test]
    fn budgets_are_ordered_aggressive_to_conservative() {
        let cp = CheckpointSystem::default();
        let work = Cycles(100_000);
        let wcet = Cycles(270_000);
        let ff = cp.fault_free_cycles(work);
        let wff = cp.fault_free_cycles(wcet);
        let b: Vec<u64> = BudgetAlgorithm::ALL
            .iter()
            .map(|&a| MitigationSystem::new(a).budget(ff, wff).value())
            .collect();
        assert!(b[0] < b[1] && b[1] < b[2] && b[2] < b[3], "budgets {b:?}");
    }

    #[test]
    fn wcet_budget_ignores_segment_size() {
        let sys = MitigationSystem::new(BudgetAlgorithm::Wcet);
        let wcet = Cycles(270_100);
        assert_eq!(
            sys.budget(Cycles(40_100), wcet),
            sys.budget(Cycles(200_100), wcet)
        );
    }

    #[test]
    fn fault_free_always_hits() {
        let cp = CheckpointSystem::default();
        for &alg in &BudgetAlgorithm::ALL {
            let sys = MitigationSystem::new(alg);
            let mut tracker = DeadlineTracker::default();
            for work in [40_000u64, 100_000, 270_000] {
                let work = Cycles(work);
                let actual = cp.fault_free_cycles(work);
                assert!(
                    tracker.advance(&sys, work, Cycles(270_000), actual, &cp),
                    "{} missed a fault-free segment of {work}",
                    alg.label()
                );
            }
        }
    }

    #[test]
    fn ds_misses_before_wcet_under_rollbacks() {
        let cp = CheckpointSystem::default();
        let ds = MitigationSystem::new(BudgetAlgorithm::Ds);
        let wcet = MitigationSystem::new(BudgetAlgorithm::Wcet);
        let work = Cycles(60_000);
        // 4 rollbacks of a 60k segment: 5×60100 + 4×48 ≈ 300692 cycles.
        let actual = Cycles(5 * 60_100 + 4 * 48);
        let mut t_ds = DeadlineTracker::default();
        let mut t_wcet = DeadlineTracker::default();
        assert!(!t_ds.advance(&ds, work, Cycles(270_000), actual, &cp));
        assert!(t_wcet.advance(&wcet, work, Cycles(270_000), actual, &cp));
    }

    #[test]
    fn enough_rollbacks_defeat_everyone() {
        // Beyond the error-rate wall even WCET's headroom is not enough.
        let cp = CheckpointSystem::default();
        let work = Cycles(270_000);
        let actual = Cycles(12 * 270_100); // 11 rollbacks of the largest segment
        for &alg in &BudgetAlgorithm::ALL {
            let sys = MitigationSystem::new(alg);
            let mut tracker = DeadlineTracker::default();
            assert!(
                !tracker.advance(&sys, work, Cycles(270_000), actual, &cp),
                "{} absorbed 11 rollbacks of the WCET segment",
                alg.label()
            );
        }
    }

    #[test]
    fn slack_carries_over() {
        // Conservative budgets on cheap segments bank slack that later
        // absorbs a rollback burst an isolated segment could never survive.
        let cp = CheckpointSystem::default();
        let wcet = MitigationSystem::new(BudgetAlgorithm::Wcet);
        let mut tracker = DeadlineTracker::default();
        // Five cheap fault-free segments build slack…
        for _ in 0..5 {
            let work = Cycles(40_000);
            assert!(tracker.advance(
                &wcet,
                work,
                Cycles(270_000),
                cp.fault_free_cycles(work),
                &cp
            ));
        }
        assert!(tracker.cum_budget * wcet.max_speedup - tracker.cum_actual > 1_000_000.0);
        // …which then swallows four rollbacks of a big segment.
        let work = Cycles(270_000);
        let burst = Cycles(5 * 270_100 + 4 * 48);
        assert!(tracker.advance(&wcet, work, Cycles(270_000), burst, &cp));
        // A fresh tracker (no banked slack) misses the same burst.
        let mut fresh = DeadlineTracker::default();
        assert!(!fresh.advance(&wcet, work, Cycles(270_000), burst, &cp));
    }

    #[test]
    fn validation() {
        let mut sys = MitigationSystem::new(BudgetAlgorithm::Ds);
        sys.validate().unwrap();
        sys.max_speedup = 0.5;
        assert!(sys.validate().is_err());
    }

    #[test]
    fn non_finite_headroom_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let sys = MitigationSystem {
                max_speedup: bad,
                ..MitigationSystem::new(BudgetAlgorithm::Ds)
            };
            assert_eq!(
                sys.validate(),
                Err(FtError::NonFinite {
                    site: "headroom",
                    what: "max_speedup"
                }),
                "max_speedup = {bad}"
            );
        }
        assert_eq!(
            check_max_speedup(0.5),
            Err(FtError::NonPositive {
                what: "max_speedup - 1",
                value: -0.5
            })
        );
        for good in [1.0, DEFAULT_MAX_SPEEDUP, 3.0, 1e300] {
            assert_eq!(check_max_speedup(good), Ok(()), "max_speedup = {good}");
        }
    }

    #[test]
    fn higher_speedup_absorbs_more_noise() {
        let cp = CheckpointSystem::default();
        let mut slow = MitigationSystem::new(BudgetAlgorithm::Ds);
        slow.max_speedup = 1.2;
        let mut fast = MitigationSystem::new(BudgetAlgorithm::Ds);
        fast.max_speedup = 3.0;
        let work = Cycles(100_000);
        // One rollback: 2×100100 + 48.
        let actual = Cycles(2 * 100_100 + 48);
        let mut t_slow = DeadlineTracker::default();
        let mut t_fast = DeadlineTracker::default();
        assert!(!t_slow.advance(&slow, work, Cycles(270_000), actual, &cp));
        assert!(t_fast.advance(&fast, work, Cycles(270_000), actual, &cp));
    }
}
