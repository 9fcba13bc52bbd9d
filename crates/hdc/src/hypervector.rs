//! Hypervector types and algebra.
//!
//! Two representations are provided, matching the two families used in the
//! HDC literature the paper builds on:
//!
//! - [`BinaryHv`]: bit-packed `{0,1}` components. Bind = XOR, similarity =
//!   1 − normalized Hamming distance, bundling via a majority vote
//!   accumulated in a [`BundleAccumulator`]. This is the memory- and
//!   throughput-efficient representation (64 components per word, popcount
//!   similarity).
//! - [`BipolarHv`]: `{−1,+1}` components stored as `i8`. Bind =
//!   component-wise product, similarity = cosine, bundling = component sum +
//!   sign. Easier math, 8× the memory.
//!
//! Both keep components i.i.d. by construction — the property the paper
//! credits for HDC's robustness to hardware errors.

use crate::error::HdcError;
use lori_core::Rng;

/// A bit-packed binary hypervector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinaryHv {
    dim: usize,
    words: Vec<u64>,
}

impl BinaryHv {
    /// An all-zeros hypervector.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn zeros(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        BinaryHv {
            dim,
            words: vec![0; dim.div_ceil(64)],
        }
    }

    /// A uniformly random hypervector (each component i.i.d. Bernoulli(½)).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn random(dim: usize, rng: &mut Rng) -> Self {
        let mut hv = BinaryHv::zeros(dim);
        for w in &mut hv.words {
            *w = rng.next_u64();
        }
        hv.mask_tail();
        hv
    }

    /// Dimensionality (number of components).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The component at `i` as a bool.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.dim, "component index out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the component at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        assert!(i < self.dim, "component index out of range");
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// The packed words: component `i` is bit `i % 64` of word `i / 64`,
    /// and the bits at or above `dim` in the last word are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the packed words, for crate-internal bulk bit
    /// operations. Callers must not set bits at or above `dim` in the last
    /// word (the tail is kept zero as an invariant).
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// XOR binding: associates two hypervectors. Self-inverse:
    /// `a.bind(b).bind(b) == a`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn bind(&self, other: &BinaryHv) -> BinaryHv {
        assert_eq!(self.dim, other.dim, "hypervector dimensions differ");
        BinaryHv {
            dim: self.dim,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a ^ b)
                .collect(),
        }
    }

    /// Cyclic permutation by `k` component positions (used to encode
    /// sequence order). Bijective; `permute(k)` then `permute(dim - k)` is
    /// the identity.
    #[must_use]
    pub fn permute(&self, k: usize) -> BinaryHv {
        let k = k % self.dim;
        let mut out = BinaryHv::zeros(self.dim);
        for i in 0..self.dim {
            if self.bit(i) {
                out.set_bit((i + k) % self.dim, true);
            }
        }
        out
    }

    /// Normalized similarity in `[0, 1]`: `1 − hamming/dim`. Equal vectors
    /// score 1; complementary vectors score 0; random pairs ≈ 0.5.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn similarity(&self, other: &BinaryHv) -> f64 {
        assert_eq!(self.dim, other.dim, "hypervector dimensions differ");
        let hamming: u32 = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        #[allow(clippy::cast_precision_loss)]
        {
            1.0 - f64::from(hamming) / self.dim as f64
        }
    }

    /// Number of set components.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears any bits beyond `dim` in the last word.
    fn mask_tail(&mut self) {
        let rem = self.dim % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// An accumulator for majority-vote bundling of binary hypervectors.
///
/// Bundling `n` vectors takes each component to the majority value; ties
/// (even `n`) are broken by a caller-supplied tie-break vector so the result
/// stays deterministic. Counts are signed (`+1` per one, `−1` per zero), so
/// classifier retraining can subtract a vector it added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleAccumulator {
    pub(crate) dim: usize,
    pub(crate) counts: Vec<i32>,
    pub(crate) n: usize,
}

impl BundleAccumulator {
    /// An empty accumulator for `dim`-dimensional vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        BundleAccumulator {
            dim,
            counts: vec![0; dim],
            n: 0,
        }
    }

    /// Adds a hypervector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&mut self, hv: &BinaryHv) {
        assert_eq!(self.dim, hv.dim(), "hypervector dimensions differ");
        self.accumulate(hv, 1);
        self.n += 1;
    }

    /// Removes a previously-added hypervector (for online retraining).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or if the accumulator is empty.
    pub fn subtract(&mut self, hv: &BinaryHv) {
        assert_eq!(self.dim, hv.dim(), "hypervector dimensions differ");
        assert!(self.n > 0, "cannot subtract from an empty bundle");
        self.accumulate(hv, -1);
        self.n -= 1;
    }

    /// Adds `sign` to each count whose component in `hv` is 1 and
    /// subtracts it where the component is 0, one packed word (64 counts)
    /// at a time.
    fn accumulate(&mut self, hv: &BinaryHv, sign: i32) {
        for (counts, &word) in self.counts.chunks_mut(64).zip(hv.words()) {
            for (b, c) in counts.iter_mut().enumerate() {
                let vote = 2 * i32::from((word >> b) & 1 == 1) - 1;
                *c += sign * vote;
            }
        }
    }

    /// Number of vectors currently bundled.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the accumulator is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Majority-vote readout. Zero counts (ties) take the corresponding bit
    /// of `tie_break`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch with `tie_break`.
    #[must_use]
    pub fn majority(&self, tie_break: &BinaryHv) -> BinaryHv {
        assert_eq!(self.dim, tie_break.dim(), "hypervector dimensions differ");
        let mut out = BinaryHv::zeros(self.dim);
        let lanes = self.counts.chunks(64).zip(tie_break.words());
        for (word, (counts, &tie)) in out.words_mut().iter_mut().zip(lanes) {
            for (b, &c) in counts.iter().enumerate() {
                let bit = c > 0 || (c == 0 && (tie >> b) & 1 == 1);
                *word |= u64::from(bit) << b;
            }
        }
        out
    }
}

/// A bipolar (`{−1,+1}`) hypervector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipolarHv {
    components: Vec<i8>,
}

impl BipolarHv {
    /// A uniformly random bipolar hypervector.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    #[must_use]
    pub fn random(dim: usize, rng: &mut Rng) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        BipolarHv {
            components: (0..dim)
                .map(|_| if rng.bernoulli(0.5) { 1 } else { -1 })
                .collect(),
        }
    }

    /// Builds from raw `{−1,+1}` components.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] for empty input or
    /// [`HdcError::InvalidEncoder`] if any component is not ±1.
    pub fn from_components(components: Vec<i8>) -> Result<Self, HdcError> {
        if components.is_empty() {
            return Err(HdcError::ZeroDimension);
        }
        if components.iter().any(|&c| c != 1 && c != -1) {
            return Err(HdcError::InvalidEncoder("components must be ±1"));
        }
        Ok(BipolarHv { components })
    }

    /// Dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// The raw components.
    #[must_use]
    pub fn components(&self) -> &[i8] {
        &self.components
    }

    /// Component-wise product binding (self-inverse, like XOR).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn bind(&self, other: &BipolarHv) -> BipolarHv {
        assert_eq!(self.dim(), other.dim(), "hypervector dimensions differ");
        BipolarHv {
            components: self
                .components
                .iter()
                .zip(&other.components)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Cosine similarity in `[−1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn similarity(&self, other: &BipolarHv) -> f64 {
        assert_eq!(self.dim(), other.dim(), "hypervector dimensions differ");
        let dot: i64 = self
            .components
            .iter()
            .zip(&other.components)
            .map(|(&a, &b)| i64::from(a) * i64::from(b))
            .sum();
        #[allow(clippy::cast_precision_loss)]
        {
            dot as f64 / self.dim() as f64
        }
    }

    /// Bundles several vectors by component-wise sum + sign; ties fall back
    /// to the first vector's component.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyTrainingSet`] on an empty input or
    /// [`HdcError::DimensionMismatch`] if dimensions differ.
    pub fn bundle(vectors: &[BipolarHv]) -> Result<BipolarHv, HdcError> {
        let first = vectors.first().ok_or(HdcError::EmptyTrainingSet)?;
        let dim = first.dim();
        let mut sums = vec![0i32; dim];
        for v in vectors {
            if v.dim() != dim {
                return Err(HdcError::DimensionMismatch {
                    left: dim,
                    right: v.dim(),
                });
            }
            for (s, &c) in sums.iter_mut().zip(&v.components) {
                *s += i32::from(c);
            }
        }
        let components = sums
            .iter()
            .enumerate()
            .map(|(i, &s)| match s.cmp(&0) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => first.components[i],
            })
            .collect();
        Ok(BipolarHv { components })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIM: usize = 2048;

    #[test]
    fn random_vectors_quasi_orthogonal() {
        let mut rng = Rng::from_seed(1);
        let a = BinaryHv::random(DIM, &mut rng);
        let b = BinaryHv::random(DIM, &mut rng);
        let s = a.similarity(&b);
        assert!((s - 0.5).abs() < 0.05, "similarity {s}");
        assert!((a.similarity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bind_is_self_inverse() {
        let mut rng = Rng::from_seed(2);
        let a = BinaryHv::random(DIM, &mut rng);
        let b = BinaryHv::random(DIM, &mut rng);
        assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn bind_preserves_distance_structure() {
        // Binding with the same key preserves similarity between operands.
        let mut rng = Rng::from_seed(3);
        let a = BinaryHv::random(DIM, &mut rng);
        let b = BinaryHv::random(DIM, &mut rng);
        let key = BinaryHv::random(DIM, &mut rng);
        let s_before = a.similarity(&b);
        let s_after = a.bind(&key).similarity(&b.bind(&key));
        assert!((s_before - s_after).abs() < 1e-12);
    }

    #[test]
    fn bind_result_dissimilar_to_operands() {
        let mut rng = Rng::from_seed(4);
        let a = BinaryHv::random(DIM, &mut rng);
        let b = BinaryHv::random(DIM, &mut rng);
        let bound = a.bind(&b);
        assert!((bound.similarity(&a) - 0.5).abs() < 0.05);
        assert!((bound.similarity(&b) - 0.5).abs() < 0.05);
    }

    #[test]
    fn permute_is_bijective() {
        let mut rng = Rng::from_seed(5);
        let a = BinaryHv::random(DIM, &mut rng);
        let p = a.permute(7);
        assert_eq!(p.count_ones(), a.count_ones());
        assert_eq!(p.permute(DIM - 7), a);
        assert_eq!(a.permute(0), a);
        assert_eq!(a.permute(DIM), a);
    }

    #[test]
    fn permuted_vector_dissimilar() {
        let mut rng = Rng::from_seed(6);
        let a = BinaryHv::random(DIM, &mut rng);
        assert!((a.permute(1).similarity(&a) - 0.5).abs() < 0.05);
    }

    #[test]
    fn non_multiple_of_64_dims_work() {
        let mut rng = Rng::from_seed(7);
        let a = BinaryHv::random(100, &mut rng);
        let b = BinaryHv::random(100, &mut rng);
        assert_eq!(a.dim(), 100);
        assert!(a.count_ones() <= 100);
        let s = a.similarity(&b);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(a.bind(&b).bind(&b), a);
        // Permutation must stay within 100 components.
        assert_eq!(a.permute(40).permute(60), a);
    }

    #[test]
    fn bit_set_get_roundtrip() {
        let mut hv = BinaryHv::zeros(130);
        hv.set_bit(0, true);
        hv.set_bit(64, true);
        hv.set_bit(129, true);
        assert!(hv.bit(0) && hv.bit(64) && hv.bit(129));
        assert!(!hv.bit(1));
        assert_eq!(hv.count_ones(), 3);
        hv.set_bit(64, false);
        assert_eq!(hv.count_ones(), 2);
    }

    #[test]
    fn bundle_majority_is_similar_to_members() {
        let mut rng = Rng::from_seed(8);
        let members: Vec<BinaryHv> = (0..5).map(|_| BinaryHv::random(DIM, &mut rng)).collect();
        let outsider = BinaryHv::random(DIM, &mut rng);
        let tie = BinaryHv::random(DIM, &mut rng);
        let mut acc = BundleAccumulator::new(DIM);
        for m in &members {
            acc.add(m);
        }
        let proto = acc.majority(&tie);
        for m in &members {
            let sm = proto.similarity(m);
            let so = proto.similarity(&outsider);
            assert!(sm > so + 0.05, "member {sm} vs outsider {so}");
        }
    }

    #[test]
    fn bundle_subtract_undoes_add() {
        let mut rng = Rng::from_seed(9);
        let a = BinaryHv::random(DIM, &mut rng);
        let b = BinaryHv::random(DIM, &mut rng);
        let tie = BinaryHv::random(DIM, &mut rng);
        let mut acc = BundleAccumulator::new(DIM);
        acc.add(&a);
        let before = acc.majority(&tie);
        acc.add(&b);
        acc.subtract(&b);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc.majority(&tie), before);
    }

    #[test]
    #[should_panic(expected = "cannot subtract from an empty bundle")]
    fn bundle_subtract_empty_panics() {
        let mut rng = Rng::from_seed(10);
        let a = BinaryHv::random(64, &mut rng);
        let mut acc = BundleAccumulator::new(64);
        acc.subtract(&a);
    }

    #[test]
    fn bipolar_roundtrip_and_similarity() {
        let mut rng = Rng::from_seed(11);
        let a = BipolarHv::random(DIM, &mut rng);
        let b = BipolarHv::random(DIM, &mut rng);
        assert!((a.similarity(&a) - 1.0).abs() < 1e-12);
        assert!(a.similarity(&b).abs() < 0.1);
        assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn bipolar_bundle_similarity() {
        let mut rng = Rng::from_seed(12);
        let members: Vec<BipolarHv> = (0..7).map(|_| BipolarHv::random(DIM, &mut rng)).collect();
        let outsider = BipolarHv::random(DIM, &mut rng);
        let proto = BipolarHv::bundle(&members).unwrap();
        for m in &members {
            assert!(proto.similarity(m) > proto.similarity(&outsider) + 0.05);
        }
    }

    #[test]
    fn bipolar_validation() {
        assert_eq!(
            BipolarHv::from_components(vec![]),
            Err(HdcError::ZeroDimension)
        );
        assert!(BipolarHv::from_components(vec![1, -1, 0]).is_err());
        assert!(BipolarHv::from_components(vec![1, -1, 1]).is_ok());
        assert_eq!(BipolarHv::bundle(&[]), Err(HdcError::EmptyTrainingSet));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        let _ = BinaryHv::zeros(0);
    }
}
