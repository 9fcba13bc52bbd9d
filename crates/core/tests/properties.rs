//! Property-based tests for the core reliability algebra.

use lori_core::reliability::no_error_probability;
use lori_core::stats::Running;
use lori_core::units::{Cycles, Probability};
use lori_core::Rng;
use proptest::prelude::*;

proptest! {
    /// Eq. (1) always yields a valid probability, monotone in both arguments.
    #[test]
    fn eq1_in_range(p in 0.0f64..=1.0, nc in 0u64..10_000_000) {
        let p = Probability::new(p).unwrap();
        let r = no_error_probability(p, Cycles(nc));
        prop_assert!((0.0..=1.0).contains(&r.value()));
    }

    /// More cycles can only lower (or keep) the no-error probability.
    #[test]
    fn eq1_monotone_in_cycles(p in 1e-9f64..=0.1, nc in 1u64..1_000_000) {
        let p = Probability::new(p).unwrap();
        let r1 = no_error_probability(p, Cycles(nc));
        let r2 = no_error_probability(p, Cycles(nc * 2));
        prop_assert!(r2.value() <= r1.value() + 1e-15);
    }

    /// Higher per-cycle error probability can only lower the no-error probability.
    #[test]
    fn eq1_monotone_in_p(p in 1e-9f64..=0.05, nc in 1u64..100_000) {
        let lo = Probability::new(p).unwrap();
        let hi = Probability::new((p * 2.0).min(1.0)).unwrap();
        let r_lo = no_error_probability(lo, Cycles(nc));
        let r_hi = no_error_probability(hi, Cycles(nc));
        prop_assert!(r_hi.value() <= r_lo.value() + 1e-15);
    }

    /// Probability constructor accepts exactly [0, 1].
    #[test]
    fn probability_domain(v in -10.0f64..10.0) {
        let ok = Probability::new(v).is_ok();
        prop_assert_eq!(ok, (0.0..=1.0).contains(&v));
    }

    /// Independent union/intersection stay within bounds and ordering.
    #[test]
    fn probability_combinators(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let pa = Probability::new(a).unwrap();
        let pb = Probability::new(b).unwrap();
        let u = pa.union_independent(pb).value();
        let i = pa.intersect_independent(pb).value();
        prop_assert!(i <= a + 1e-15 && i <= b + 1e-15);
        prop_assert!(u + 1e-15 >= a && u + 1e-15 >= b);
        prop_assert!((0.0..=1.0).contains(&u) && (0.0..=1.0).contains(&i));
    }

    /// Welford accumulator agrees with the naive batch computation.
    #[test]
    fn running_matches_naive(xs in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
        let r: Running = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((r.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((r.variance() - var).abs() < 1e-5 * (1.0 + var));
    }

    /// Geometric sampler support and determinism per seed.
    #[test]
    fn geometric_deterministic(seed in 0u64..1000, q in 0.001f64..1.0) {
        let mut a = Rng::from_seed(seed);
        let mut b = Rng::from_seed(seed);
        prop_assert_eq!(a.geometric(q), b.geometric(q));
    }
}
