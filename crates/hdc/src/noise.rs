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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = Rng::from_seed(1);
        let hv = BinaryHv::random(1024, &mut rng);
        assert_eq!(flip_components(&hv, 0.0, &mut rng), hv);
    }

    #[test]
    fn full_noise_is_complement() {
        let mut rng = Rng::from_seed(2);
        let hv = BinaryHv::random(1024, &mut rng);
        let flipped = flip_components(&hv, 1.0, &mut rng);
        assert!((hv.similarity(&flipped)).abs() < 1e-12);
    }

    #[test]
    fn noise_rate_matches_similarity_drop() {
        let mut rng = Rng::from_seed(4);
        let hv = BinaryHv::random(8192, &mut rng);
        let noisy = flip_components(&hv, 0.3, &mut rng);
        let s = hv.similarity(&noisy);
        assert!((s - 0.7).abs() < 0.03, "similarity {s}");
    }
}
