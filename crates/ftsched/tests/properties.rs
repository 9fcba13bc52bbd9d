//! Property-based tests for the Section-V models.

use lori_core::units::Cycles;
use lori_core::Rng;
use lori_ftsched::checkpoint::CheckpointSystem;
use lori_ftsched::error_model::ErrorModel;
use lori_ftsched::mitigation::{BudgetAlgorithm, DeadlineTracker, MitigationSystem};
use proptest::prelude::*;

proptest! {
    /// Eq. (2) is a distribution: probabilities are in range and the series
    /// sums to ~1 for moderate parameters.
    #[test]
    fn eq2_is_distribution(p in 1e-8f64..1e-4, nc in 1_000u64..500_000) {
        let m = ErrorModel::new(p).unwrap();
        let nc = Cycles(nc);
        let q = m.no_error_probability(nc).value();
        prop_assume!(q > 1e-5); // geometric tail must be summable in reasonable terms
        let terms = ((20.0 / q) as u64).clamp(100, 5_000_000);
        let mut total = 0.0;
        for n in 0..terms {
            let pr = m.rollback_probability(nc, n).value();
            prop_assert!((0.0..=1.0).contains(&pr));
            total += pr;
            if total > 1.0 - 1e-9 {
                break;
            }
        }
        prop_assert!(total > 0.99, "series sum {total}");
    }

    /// Expected rollbacks are monotone in p and in segment length.
    #[test]
    fn expected_rollbacks_monotone(p in 1e-8f64..1e-4, nc in 1_000u64..400_000) {
        let m1 = ErrorModel::new(p).unwrap();
        let m2 = ErrorModel::new(p * 2.0).unwrap();
        prop_assert!(m2.expected_rollbacks(Cycles(nc)) >= m1.expected_rollbacks(Cycles(nc)));
        prop_assert!(
            m1.expected_rollbacks(Cycles(nc * 2)) >= m1.expected_rollbacks(Cycles(nc))
        );
    }

    /// A segment execution always costs at least its fault-free cycles, and
    /// exactly the closed-form amount given its rollback count (k = 1).
    #[test]
    fn execution_cost_identity(p in 0.0f64..1e-4, nc in 1_000u64..400_000, seed in 0u64..500) {
        let sys = CheckpointSystem::default();
        let m = ErrorModel::new(p).unwrap();
        let mut rng = Rng::from_seed(seed);
        let ex = sys.plan_segment(Cycles(nc), &m).execute(&mut rng);
        let window = nc + 100;
        // Mirror the implementation's saturating arithmetic (extreme p can
        // produce astronomically many rollbacks).
        let expect = ex
            .rollbacks
            .saturating_add(1)
            .saturating_mul(window)
            .saturating_add(ex.rollbacks.saturating_mul(48));
        prop_assert_eq!(ex.total_cycles.value(), expect);
        prop_assert!(ex.total_cycles.value() >= sys.fault_free_cycles(Cycles(nc)).value());
    }

    /// Budgets are ordered DS ≤ DS1.5 ≤ DS2 for any segment, and WCET is
    /// the largest for segments at or below the mean... specifically WCET
    /// dominates DS for every segment.
    #[test]
    fn budget_ordering(work in 1_000u64..270_000) {
        let cp = CheckpointSystem::default();
        let ff = cp.fault_free_cycles(Cycles(work));
        let wff = cp.fault_free_cycles(Cycles(270_000));
        let b: Vec<u64> = BudgetAlgorithm::ALL
            .iter()
            .map(|&a| MitigationSystem::new(a).budget(ff, wff).value())
            .collect();
        prop_assert!(b[0] <= b[1] && b[1] <= b[2]);
        prop_assert!(b[3] >= b[0], "WCET must dominate DS");
    }

    /// The deadline tracker is monotone: if a run hits with some actual
    /// cycle sequence, it also hits with any cheaper sequence.
    #[test]
    fn tracker_monotone(extra in 0u64..1_000_000, seed in 0u64..100) {
        let cp = CheckpointSystem::default();
        let sys = MitigationSystem::new(BudgetAlgorithm::Ds2);
        let mut rng = Rng::from_seed(seed);
        let works: Vec<u64> = (0..10).map(|_| rng.range(40_000, 270_000)).collect();
        let run = |inflate: u64| -> bool {
            let mut t = DeadlineTracker::default();
            let mut all = true;
            for &w in &works {
                let actual = Cycles(cp.fault_free_cycles(Cycles(w)).value() + inflate);
                if !t.advance(&sys, Cycles(w), Cycles(270_000), actual, &cp) {
                    all = false;
                }
            }
            all
        };
        if run(extra) {
            prop_assert!(run(0), "cheaper run must also hit");
        }
    }

    /// Fault-free execution hits every deadline under every algorithm for
    /// arbitrary traces.
    #[test]
    fn fault_free_hits_everything(seed in 0u64..200, n in 1usize..40) {
        let cp = CheckpointSystem::default();
        let mut rng = Rng::from_seed(seed);
        let works: Vec<u64> = (0..n).map(|_| rng.range(40_000, 270_001)).collect();
        let wcet = Cycles(*works.iter().max().unwrap());
        for &alg in &BudgetAlgorithm::ALL {
            let sys = MitigationSystem::new(alg);
            let mut t = DeadlineTracker::default();
            for &w in &works {
                let actual = cp.fault_free_cycles(Cycles(w));
                prop_assert!(t.advance(&sys, Cycles(w), wcet, actual, &cp));
            }
        }
    }
}
