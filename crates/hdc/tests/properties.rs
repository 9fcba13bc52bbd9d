//! Property-based tests for hypervector algebra.

use lori_core::Rng;
use lori_hdc::hypervector::{BinaryHv, BipolarHv, BundleAccumulator};
use proptest::prelude::*;

proptest! {
    /// XOR binding is self-inverse for any seed/dimension.
    #[test]
    fn bind_self_inverse(seed in 0u64..500, dim in 1usize..300) {
        let mut rng = Rng::from_seed(seed);
        let a = BinaryHv::random(dim, &mut rng);
        let b = BinaryHv::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&b).bind(&b), a);
    }

    /// Binding is commutative and associative.
    #[test]
    fn bind_commutative_associative(seed in 0u64..500, dim in 1usize..300) {
        let mut rng = Rng::from_seed(seed);
        let a = BinaryHv::random(dim, &mut rng);
        let b = BinaryHv::random(dim, &mut rng);
        let c = BinaryHv::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&b), b.bind(&a));
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
    }

    /// Similarity is symmetric, bounded, and 1 on identical vectors.
    #[test]
    fn similarity_axioms(seed in 0u64..500, dim in 1usize..300) {
        let mut rng = Rng::from_seed(seed);
        let a = BinaryHv::random(dim, &mut rng);
        let b = BinaryHv::random(dim, &mut rng);
        let s = a.similarity(&b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!((s - b.similarity(&a)).abs() < 1e-15);
        prop_assert!((a.similarity(&a) - 1.0).abs() < 1e-15);
    }

    /// Binding with a key preserves pairwise similarity exactly.
    #[test]
    fn bind_is_isometry(seed in 0u64..500, dim in 1usize..300) {
        let mut rng = Rng::from_seed(seed);
        let a = BinaryHv::random(dim, &mut rng);
        let b = BinaryHv::random(dim, &mut rng);
        let key = BinaryHv::random(dim, &mut rng);
        let before = a.similarity(&b);
        let after = a.bind(&key).similarity(&b.bind(&key));
        prop_assert!((before - after).abs() < 1e-15);
    }

    /// Flipping exactly k components moves similarity to exactly 1 - k/dim.
    #[test]
    fn flipping_k_components_sets_similarity(seed in 0u64..500, dim in 8usize..300, frac in 0.0f64..1.0) {
        let mut rng = Rng::from_seed(seed);
        let a = BinaryHv::random(dim, &mut rng);
        let k = ((dim as f64) * frac) as usize;
        let mut flipped = a.clone();
        for i in 0..k {
            flipped.set_bit(i, !a.bit(i));
        }
        let expect = 1.0 - k as f64 / dim as f64;
        prop_assert!((a.similarity(&flipped) - expect).abs() < 1e-12);
    }

    /// Bundle add/subtract round-trips to the same majority readout.
    #[test]
    fn bundle_roundtrip(seed in 0u64..200, dim in 1usize..200, extra in 1usize..5) {
        let mut rng = Rng::from_seed(seed);
        let keep = BinaryHv::random(dim, &mut rng);
        let tie = BinaryHv::random(dim, &mut rng);
        let mut acc = BundleAccumulator::new(dim);
        acc.add(&keep);
        let before = acc.majority(&tie);
        let extras: Vec<BinaryHv> =
            (0..extra).map(|_| BinaryHv::random(dim, &mut rng)).collect();
        for e in &extras {
            acc.add(e);
        }
        for e in &extras {
            acc.subtract(e);
        }
        prop_assert_eq!(acc.majority(&tie), before);
        prop_assert_eq!(acc.len(), 1);
    }

    /// Bipolar bind/similarity mirror the binary laws.
    #[test]
    fn bipolar_axioms(seed in 0u64..500, dim in 1usize..300) {
        let mut rng = Rng::from_seed(seed);
        let a = BipolarHv::random(dim, &mut rng);
        let b = BipolarHv::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&b).bind(&b), a.clone());
        let s = a.similarity(&b);
        prop_assert!((-1.0..=1.0).contains(&s));
        prop_assert!((a.similarity(&a) - 1.0).abs() < 1e-15);
    }
}
