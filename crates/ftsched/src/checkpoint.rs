//! The checkpointing and rollback-recovery timing model of Sec. V-B.
//!
//! Each application segment is atomic: a [`CHECKPOINT_CYCLES`]-cycle
//! checkpoint routine runs at the end of every (re-)computation, and every
//! error inserts a [`ROLLBACK_CYCLES`]-cycle rollback routine followed by a
//! full re-computation of the segment. The number of re-computations is
//! unbounded (geometric, Eq. 2).

use crate::error::FtError;
use crate::error_model::ErrorModel;
use lori_core::units::Cycles;
use lori_core::Rng;

/// Cycles per checkpoint routine (the paper's value, from OCEAN \[51\]).
pub const CHECKPOINT_CYCLES: Cycles = Cycles(100);

/// Cycles per rollback routine (the paper's value, from OCEAN \[51\]).
pub const ROLLBACK_CYCLES: Cycles = Cycles(48);

/// The checkpoint granularity of a checkpoint/rollback system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSystem {
    /// Checkpoints per segment (1 = the paper's setup; more = finer
    /// granularity, used by the wall-sensitivity study E13).
    pub checkpoints_per_segment: u32,
}

impl Default for CheckpointSystem {
    fn default() -> Self {
        CheckpointSystem {
            checkpoints_per_segment: 1,
        }
    }
}

/// The outcome of executing one segment under checkpoint/rollback-recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentExecution {
    /// Total rollbacks across all chunks of the segment.
    pub rollbacks: u64,
    /// Total cycles consumed, including checkpoints and rollbacks.
    pub total_cycles: Cycles,
}

impl CheckpointSystem {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FtError::NonPositive`] for zero checkpoints per segment.
    pub fn validate(&self) -> Result<(), FtError> {
        if self.checkpoints_per_segment == 0 {
            return Err(FtError::NonPositive {
                what: "checkpoints_per_segment",
                value: 0.0,
            });
        }
        Ok(())
    }

    /// The per-chunk recovery windows of a `work`-cycle segment: each of
    /// the `k` chunks plus its checkpoint routine, the last chunk absorbing
    /// the division remainder. A segment shorter than `k` cycles has empty
    /// chunks and puts all its work in the last one.
    fn windows(&self, work: Cycles) -> impl Iterator<Item = Cycles> {
        let k = u64::from(self.checkpoints_per_segment);
        let chunk = work.value() / k;
        (0..k).map(move |i| {
            let this_chunk = if i == k - 1 {
                work.value() - chunk * (k - 1)
            } else {
                chunk
            };
            // A (re-)computation window includes the checkpoint routine,
            // which is just as exposed to errors as the main computation.
            Cycles(this_chunk + CHECKPOINT_CYCLES.value())
        })
    }

    /// Precomputes the per-chunk windows and Eq.-(1) survival
    /// probabilities of a segment of `work` cycles under error model
    /// `errors`, so repeated executions skip the `powf` per draw.
    ///
    /// With `checkpoints_per_segment = k`, the segment is split into `k`
    /// equal chunks, each followed by its own checkpoint; a rollback only
    /// repeats the current chunk.
    ///
    /// # Panics
    ///
    /// Panics if a chunk can never complete (`q == 0`: `p == 1`, or a `p`
    /// so high that `(1 − p)^window` underflows, from about 2.8e-3 for a
    /// 270k-cycle window).
    #[must_use]
    pub fn plan_segment(&self, work: Cycles, errors: &ErrorModel) -> SegmentPlan {
        let chunks = self
            .windows(work)
            .map(|window| {
                let q = errors.no_error_probability(window).value();
                assert!(q > 0.0, "segment can never complete at p = 1");
                (window, q)
            })
            .collect();
        SegmentPlan { chunks }
    }

    /// Analytic expectation of total cycles for a segment of `work` cycles:
    /// per chunk, `E[C] = (E[N_rb] + 1)·window + E[N_rb]·rollback`.
    #[must_use]
    pub fn expected_cycles(&self, work: Cycles, errors: &ErrorModel) -> f64 {
        self.windows(work)
            .map(|window| {
                let n = errors.expected_rollbacks(window);
                (n + 1.0) * window.as_f64() + n * ROLLBACK_CYCLES.as_f64()
            })
            .sum()
    }

    /// Fault-free cycles for a segment (work + checkpoints).
    #[must_use]
    pub fn fault_free_cycles(&self, work: Cycles) -> Cycles {
        Cycles(work.value() + u64::from(self.checkpoints_per_segment) * CHECKPOINT_CYCLES.value())
    }
}

/// A precomputed segment-execution plan: per-chunk recovery windows with
/// their Eq.-(1) survival probabilities already evaluated. Built once per
/// `(segment, error model)` pair by [`CheckpointSystem::plan_segment`];
/// Monte Carlo loops then call [`SegmentPlan::execute`] per run, paying
/// one geometric draw per chunk and no `powf`.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentPlan {
    /// Per-chunk (recovery window, no-error probability).
    chunks: Vec<(Cycles, f64)>,
}

impl SegmentPlan {
    /// Executes the planned segment, sampling each chunk's rollback count
    /// from Eq. (2) (inverse-CDF sampling of the geometric distribution,
    /// exact and O(1) even for tiny `p`).
    #[must_use]
    pub fn execute(&self, rng: &mut Rng) -> SegmentExecution {
        let mut rollbacks = 0u64;
        let mut total = 0u64;
        for &(window, q) in &self.chunks {
            let rb = rng.geometric(q);
            rollbacks = rollbacks.saturating_add(rb);
            // Saturating: at extreme p the rollback count can be astronomical;
            // the deadline logic only needs "too many" to stay "too many".
            total = total
                .saturating_add(rb.saturating_add(1).saturating_mul(window.value()))
                .saturating_add(rb.saturating_mul(ROLLBACK_CYCLES.value()));
        }
        SegmentExecution {
            rollbacks,
            total_cycles: Cycles(total),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_error_is_fault_free() {
        let sys = CheckpointSystem::default();
        let errors = ErrorModel::new(0.0).unwrap();
        let mut rng = Rng::from_seed(1);
        let ex = sys.plan_segment(Cycles(100_000), &errors).execute(&mut rng);
        assert_eq!(ex.rollbacks, 0);
        assert_eq!(ex.total_cycles, Cycles(100_100));
        assert_eq!(sys.fault_free_cycles(Cycles(100_000)), Cycles(100_100));
    }

    #[test]
    fn sampled_cycles_match_expectation() {
        let sys = CheckpointSystem::default();
        let errors = ErrorModel::new(5e-6).unwrap();
        let mut rng = Rng::from_seed(2);
        let work = Cycles(150_000);
        let plan = sys.plan_segment(work, &errors);
        let n = 20_000;
        #[allow(clippy::cast_precision_loss)]
        let mean = (0..n)
            .map(|_| plan.execute(&mut rng).total_cycles.as_f64())
            .sum::<f64>()
            / f64::from(n);
        let expect = sys.expected_cycles(work, &errors);
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "sampled {mean} vs expected {expect}"
        );
    }

    #[test]
    fn each_rollback_costs_window_plus_rollback() {
        let sys = CheckpointSystem::default();
        let errors = ErrorModel::new(3e-5).unwrap();
        let mut rng = Rng::from_seed(3);
        let work = Cycles(40_000);
        let plan = sys.plan_segment(work, &errors);
        for _ in 0..200 {
            let ex = plan.execute(&mut rng);
            let window = 40_000 + 100;
            let expect = (ex.rollbacks + 1) * window + ex.rollbacks * 48;
            assert_eq!(ex.total_cycles.value(), expect);
        }
    }

    #[test]
    fn finer_checkpointing_reduces_recovery_cost_at_high_p() {
        // At high error rates, smaller chunks waste less work per rollback.
        let coarse = CheckpointSystem::default();
        let fine = CheckpointSystem {
            checkpoints_per_segment: 8,
        };
        let errors = ErrorModel::new(2e-5).unwrap();
        let work = Cycles(270_000);
        assert!(fine.expected_cycles(work, &errors) < coarse.expected_cycles(work, &errors));
    }

    #[test]
    fn coarser_checkpointing_wins_at_low_p() {
        // At negligible error rates, extra checkpoints are pure overhead.
        let coarse = CheckpointSystem::default();
        let fine = CheckpointSystem {
            checkpoints_per_segment: 8,
        };
        let errors = ErrorModel::new(1e-9).unwrap();
        let work = Cycles(270_000);
        assert!(coarse.expected_cycles(work, &errors) < fine.expected_cycles(work, &errors));
    }

    #[test]
    fn chunking_preserves_total_work() {
        let errors = ErrorModel::new(0.0).unwrap();
        let mut rng = Rng::from_seed(4);
        // 100000 not divisible by 7: remainder must not be lost. 3 cycles in
        // 8 chunks: seven empty chunks and a last one holding all 3 cycles,
        // each chunk still running its checkpoint routine.
        for (work, k) in [(100_000, 7), (3, 8)] {
            let sys = CheckpointSystem {
                checkpoints_per_segment: k,
            };
            let ex = sys.plan_segment(Cycles(work), &errors).execute(&mut rng);
            let fault_free = work + u64::from(k) * 100;
            assert_eq!(ex.total_cycles.value(), fault_free);
            #[allow(clippy::cast_precision_loss)]
            let expected = fault_free as f64;
            assert_eq!(sys.expected_cycles(Cycles(work), &errors), expected);
        }
    }

    #[test]
    #[should_panic(expected = "segment can never complete")]
    fn plan_p_one_panics_at_plan_time() {
        let sys = CheckpointSystem::default();
        let errors = ErrorModel::new(1.0).unwrap();
        let _ = sys.plan_segment(Cycles(10), &errors);
    }

    #[test]
    fn validation() {
        let bad = CheckpointSystem {
            checkpoints_per_segment: 0,
        };
        assert!(bad.validate().is_err());
        assert!(CheckpointSystem::default().validate().is_ok());
    }
}
