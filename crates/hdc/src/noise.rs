//! Component-error injection for HDC robustness experiments.
//!
//! The paper's headline HDC claim (Sec. II): "Despite an error rate of about
//! 40 % on average, the inference accuracy with HDC drops only by 0.5 %".
//! Experiment E5 reproduces the shape of this claim by flipping a controlled
//! fraction of hypervector components before classification.

use crate::hypervector::BinaryHv;
use lori_core::Rng;

/// Returns a copy of `hv` with each component independently flipped with
/// probability `error_rate` (clamped to `[0, 1]`).
///
/// This models unreliable hardware corrupting individual components of the
/// in-memory hypervector representation.
#[must_use]
pub fn flip_components(hv: &BinaryHv, error_rate: f64, rng: &mut Rng) -> BinaryHv {
    let p = error_rate.clamp(0.0, 1.0);
    let dim = hv.dim();
    let mut out = hv.clone();
    // Draw one Bernoulli per component in ascending index order — the same
    // RNG stream a per-bit loop would consume — into a per-word mask built
    // without a branch and applied with a single XOR on the packed
    // representation.
    for (w, word) in out.words_mut().iter_mut().enumerate() {
        let bits = 64.min(dim - w * 64);
        let mut mask = 0u64;
        for b in 0..bits {
            mask |= u64::from(rng.bernoulli(p)) << b;
        }
        *word ^= mask;
    }
    out
}

/// Returns a copy of `hv` with exactly `count` distinct components flipped.
///
/// # Panics
///
/// Panics if `count > hv.dim()`.
#[must_use]
pub fn flip_exact(hv: &BinaryHv, count: usize, rng: &mut Rng) -> BinaryHv {
    assert!(count <= hv.dim(), "cannot flip more components than exist");
    let mut out = hv.clone();
    // Same index sample, but batched: sampled indices fold into per-word
    // XOR masks instead of one read-modify-write per flipped bit. Indices
    // are distinct, so no flip cancels another.
    let mut masks = vec![0u64; out.words_mut().len()];
    for i in rng.sample_indices(hv.dim(), count) {
        masks[i / 64] |= 1u64 << (i % 64);
    }
    for (word, mask) in out.words_mut().iter_mut().zip(masks) {
        *word ^= mask;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = Rng::from_seed(1);
        let hv = BinaryHv::random(1024, &mut rng);
        assert_eq!(flip_components(&hv, 0.0, &mut rng), hv);
        assert_eq!(flip_exact(&hv, 0, &mut rng), hv);
    }

    #[test]
    fn full_noise_is_complement() {
        let mut rng = Rng::from_seed(2);
        let hv = BinaryHv::random(1024, &mut rng);
        let flipped = flip_components(&hv, 1.0, &mut rng);
        assert!((hv.similarity(&flipped)).abs() < 1e-12);
    }

    #[test]
    fn flip_exact_changes_exact_count() {
        let mut rng = Rng::from_seed(3);
        let hv = BinaryHv::random(1024, &mut rng);
        let flipped = flip_exact(&hv, 100, &mut rng);
        // similarity = 1 - 100/1024
        let expect = 1.0 - 100.0 / 1024.0;
        assert!((hv.similarity(&flipped) - expect).abs() < 1e-12);
    }

    #[test]
    fn noise_rate_matches_similarity_drop() {
        let mut rng = Rng::from_seed(4);
        let hv = BinaryHv::random(8192, &mut rng);
        let noisy = flip_components(&hv, 0.3, &mut rng);
        let s = hv.similarity(&noisy);
        assert!((s - 0.7).abs() < 0.03, "similarity {s}");
    }

    #[test]
    fn flip_exact_word_mask_matches_per_bit_reference() {
        // Same draw-order guard for the exact-count path, including a
        // partial tail word.
        let mut seed_rng = Rng::from_seed(78);
        let hv = BinaryHv::random(1000, &mut seed_rng);
        let mut rng_fast = Rng::from_seed(321);
        let mut rng_ref = Rng::from_seed(321);
        let fast = flip_exact(&hv, 137, &mut rng_fast);
        let mut reference = hv.clone();
        for i in rng_ref.sample_indices(hv.dim(), 137) {
            let b = reference.bit(i);
            reference.set_bit(i, !b);
        }
        assert_eq!(fast, reference);
        assert_eq!(rng_fast.next_u64(), rng_ref.next_u64());
    }

    #[test]
    #[should_panic(expected = "cannot flip more components")]
    fn flip_exact_overflow_panics() {
        let mut rng = Rng::from_seed(5);
        let hv = BinaryHv::random(64, &mut rng);
        let _ = flip_exact(&hv, 65, &mut rng);
    }
}
