//! Encoders from raw data to hypervectors.
//!
//! - [`LevelEncoder`]: continuous values onto a chain of correlated level
//!   hypervectors (nearby values → similar vectors; far values →
//!   quasi-orthogonal).
//! - [`RecordEncoder`]: dense feature vectors, binding each feature's
//!   identity vector with its level vector and bundling across features —
//!   the standard "record" encoding used by HDC classifiers.

use crate::error::HdcError;
use crate::hypervector::BinaryHv;
use lori_core::Rng;
use lori_par::Parallelism;

/// Rows per task in [`RecordEncoder::encode_batch`]. Single-row encodes
/// are microseconds, so batching amortizes dispatch; the size is a
/// constant (never derived from the worker count) so chunk boundaries —
/// and therefore the output — are identical under any parallelism.
const ENCODE_CHUNK: usize = 32;

/// Maps a continuous range onto `levels` hypervectors where adjacent levels
/// share most components: level 0 and level `L−1` are quasi-orthogonal, and
/// similarity decreases linearly in level distance.
#[derive(Debug, Clone)]
pub struct LevelEncoder {
    low: f64,
    high: f64,
    levels: Vec<BinaryHv>,
}

impl LevelEncoder {
    /// Builds the level chain by starting from a random vector and flipping a
    /// disjoint slice of `dim / (levels − 1)` components per step.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::ZeroDimension`] for `dim == 0` or
    /// [`HdcError::InvalidEncoder`] if a bound is NaN or infinite, the
    /// range's width overflows, `low >= high` or `levels < 2`.
    pub fn new(
        dim: usize,
        low: f64,
        high: f64,
        levels: usize,
        rng: &mut Rng,
    ) -> Result<Self, HdcError> {
        if dim == 0 {
            return Err(HdcError::ZeroDimension);
        }
        // NaN or infinite bounds, and finite bounds too far apart to
        // subtract, would put every value on level 0.
        if !(high - low).is_finite() {
            return Err(HdcError::InvalidEncoder("range must be finite"));
        }
        if low >= high {
            return Err(HdcError::InvalidEncoder("low must be below high"));
        }
        if levels < 2 {
            return Err(HdcError::InvalidEncoder("at least two levels required"));
        }
        let base = BinaryHv::random(dim, rng);
        // Random permutation of component indices; flip the next slice at
        // each level so flips never overlap (similarity falls linearly).
        // A total of dim/2 components flip across the whole chain, so the
        // extreme levels end up quasi-orthogonal (similarity ≈ 0.5), as in
        // the standard HDC level-encoding construction.
        let mut order: Vec<usize> = (0..dim).collect();
        rng.shuffle(&mut order);
        let half = dim / 2;
        let per_level = half / (levels - 1);
        let mut chain = Vec::with_capacity(levels);
        let mut current = base;
        chain.push(current.clone());
        for l in 1..levels {
            let start = (l - 1) * per_level;
            let end = if l == levels - 1 { half } else { l * per_level };
            for &i in &order[start..end] {
                let b = current.bit(i);
                current.set_bit(i, !b);
            }
            chain.push(current.clone());
        }
        Ok(LevelEncoder {
            low,
            high,
            levels: chain,
        })
    }

    /// Number of levels.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The level index for a value (clamped to the encoder's range).
    #[must_use]
    pub fn level_of(&self, value: f64) -> usize {
        let t = ((value - self.low) / (self.high - self.low)).clamp(0.0, 1.0);
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        {
            ((t * (self.levels.len() - 1) as f64).round() as usize).min(self.levels.len() - 1)
        }
    }

    /// Encodes a value as its level hypervector.
    #[must_use]
    pub fn encode(&self, value: f64) -> &BinaryHv {
        &self.levels[self.level_of(value)]
    }

    /// All level vectors, in order.
    #[must_use]
    pub fn levels(&self) -> &[BinaryHv] {
        &self.levels
    }
}

/// Checks that training rows all have the first row's length and hold only
/// finite values, so a fit fails with a typed error before encoding: a NaN
/// would encode as level 0, and an infinite value would stretch its level
/// encoder's range until every row fell on level 0.
///
/// # Errors
///
/// Returns [`HdcError::DimensionMismatch`] for a ragged row or
/// [`HdcError::InvalidEncoder`] for a NaN or infinite feature.
pub(crate) fn check_rows(xs: &[Vec<f64>]) -> Result<(), HdcError> {
    let d = xs.first().map_or(0, Vec::len);
    for row in xs {
        if row.len() != d {
            return Err(HdcError::DimensionMismatch {
                left: d,
                right: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(HdcError::InvalidEncoder("non-finite feature"));
        }
    }
    Ok(())
}

/// Encodes dense feature rows: `H(x) = majority_j( id_j ⊕ level_j(x_j) )`.
#[derive(Debug, Clone)]
pub struct RecordEncoder {
    pub(crate) ids: Vec<BinaryHv>,
    pub(crate) levels: Vec<LevelEncoder>,
    pub(crate) tie_break: BinaryHv,
}

impl RecordEncoder {
    /// Builds an encoder for `ranges.len()` features; each feature gets an
    /// identity vector and a level encoder over its `(low, high)` range.
    ///
    /// # Errors
    ///
    /// Propagates [`HdcError`] from the underlying encoders; fails with
    /// [`HdcError::InvalidEncoder`] for an empty range list.
    pub fn new(
        dim: usize,
        ranges: &[(f64, f64)],
        levels: usize,
        seed: u64,
    ) -> Result<Self, HdcError> {
        if ranges.is_empty() {
            return Err(HdcError::InvalidEncoder("at least one feature required"));
        }
        let mut rng = Rng::from_seed(seed);
        let ids = (0..ranges.len())
            .map(|_| BinaryHv::random(dim, &mut rng))
            .collect();
        let levels = ranges
            .iter()
            .map(|&(lo, hi)| LevelEncoder::new(dim, lo, hi, levels, &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        let tie_break = BinaryHv::random(dim, &mut rng);
        Ok(RecordEncoder {
            ids,
            levels,
            tie_break,
        })
    }

    /// Number of features the encoder expects.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.ids.len()
    }

    /// Dimensionality of produced hypervectors.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.tie_break.dim()
    }

    /// Encodes one feature row.
    ///
    /// Each output word is computed from the matching word of the `n`
    /// bound vectors `id_j ⊕ level_j(x_j)` with a bit-sliced counter:
    /// counter plane `k` holds bit `k` of every lane's count of ones. A
    /// component is 1 where its count exceeds `n / 2`; where the count
    /// equals `n / 2` (even `n` only) it takes the tie-break bit. That is
    /// the sign of an `i32` majority accumulator of `±1` votes.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`RecordEncoder::n_features`].
    #[must_use]
    pub fn encode(&self, x: &[f64]) -> BinaryHv {
        assert_eq!(x.len(), self.ids.len(), "feature count mismatch");
        let bound: Vec<(&[u64], &[u64])> = self
            .ids
            .iter()
            .zip(&self.levels)
            .zip(x)
            .map(|((id, lvl), &v)| (id.words(), lvl.encode(v).words()))
            .collect();
        let n = bound.len();
        // Enough planes to hold a count of `n`.
        let planes = (usize::BITS - n.leading_zeros()) as usize;
        let half = n / 2;
        let tie_lanes = if n.is_multiple_of(2) { u64::MAX } else { 0 };
        let mut count = [0u64; usize::BITS as usize];
        let count = &mut count[..planes];
        let mut hv = BinaryHv::zeros(self.dim());
        let words = hv.words_mut().iter_mut().zip(self.tie_break.words());
        for (w, (out, &tie)) in words.enumerate() {
            count.fill(0);
            for &(id, level) in &bound {
                // Ripple-carry add of one bit per lane.
                let mut carry = id[w] ^ level[w];
                for plane in count.iter_mut() {
                    let next = *plane & carry;
                    *plane ^= carry;
                    carry = next;
                }
            }
            // Compare each lane's count with `half`, top plane first.
            let (mut above, mut equal) = (0u64, u64::MAX);
            for (k, &plane) in count.iter().enumerate().rev() {
                if (half >> k) & 1 == 1 {
                    equal &= plane;
                } else {
                    above |= equal & plane;
                    equal &= !plane;
                }
            }
            *out = above | (equal & tie & tie_lanes);
        }
        hv
    }

    /// Encodes a batch of feature rows, fanning fixed-size row chunks out
    /// over `par`. Encoding is a pure function of `(self, row)`, so
    /// `encode_batch(rows, par)[i] == encode(&rows[i])` for every worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from
    /// [`RecordEncoder::n_features`].
    #[must_use]
    pub fn encode_batch(&self, rows: &[Vec<f64>], par: Parallelism) -> Vec<BinaryHv> {
        let _span = lori_obs::span("hdc.encode_batch");
        let chunks = lori_par::par_chunks(par, rows, ENCODE_CHUNK, |_, chunk| {
            chunk.iter().map(|row| self.encode(row)).collect::<Vec<_>>()
        });
        chunks.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIM: usize = 2048;

    #[test]
    fn level_similarity_decreases_with_distance() {
        let mut rng = Rng::from_seed(1);
        let enc = LevelEncoder::new(DIM, 0.0, 1.0, 16, &mut rng).unwrap();
        let l0 = enc.encode(0.0);
        let mut prev = 1.0;
        for i in 1..16 {
            #[allow(clippy::cast_precision_loss)]
            let v = i as f64 / 15.0;
            let s = l0.similarity(enc.encode(v));
            assert!(s < prev + 1e-9, "level {i}: {s} !< {prev}");
            prev = s;
        }
        // Extremes are quasi-orthogonal.
        let s_ends = l0.similarity(enc.encode(1.0));
        assert!((s_ends - 0.5).abs() < 0.05, "ends similarity {s_ends}");
    }

    #[test]
    fn level_encoder_clamps() {
        let mut rng = Rng::from_seed(2);
        let enc = LevelEncoder::new(DIM, 0.0, 1.0, 8, &mut rng).unwrap();
        assert_eq!(enc.level_of(-5.0), 0);
        assert_eq!(enc.level_of(10.0), 7);
        assert_eq!(enc.level_count(), 8);
    }

    #[test]
    fn level_encoder_validation() {
        let mut rng = Rng::from_seed(3);
        assert!(LevelEncoder::new(0, 0.0, 1.0, 4, &mut rng).is_err());
        assert!(LevelEncoder::new(DIM, 1.0, 1.0, 4, &mut rng).is_err());
        assert!(LevelEncoder::new(DIM, 0.0, 1.0, 1, &mut rng).is_err());
        for (lo, hi) in [
            (f64::NAN, 1.0),
            (0.0, f64::NAN),
            (f64::NEG_INFINITY, 1.0),
            (0.0, f64::INFINITY),
            (-1e308, 1e308),
        ] {
            assert_eq!(
                LevelEncoder::new(DIM, lo, hi, 4, &mut rng).unwrap_err(),
                HdcError::InvalidEncoder("range must be finite"),
                "({lo}, {hi})"
            );
        }
    }

    #[test]
    fn record_encoder_similar_inputs_similar_codes() {
        let enc = RecordEncoder::new(DIM, &[(0.0, 1.0), (0.0, 1.0)], 16, 4).unwrap();
        let a = enc.encode(&[0.2, 0.8]);
        let near = enc.encode(&[0.22, 0.81]);
        let far = enc.encode(&[0.9, 0.1]);
        assert!(a.similarity(&near) > a.similarity(&far));
    }

    #[test]
    fn record_encoder_deterministic() {
        let e1 = RecordEncoder::new(DIM, &[(0.0, 1.0)], 8, 9).unwrap();
        let e2 = RecordEncoder::new(DIM, &[(0.0, 1.0)], 8, 9).unwrap();
        assert_eq!(e1.encode(&[0.5]), e2.encode(&[0.5]));
    }

    #[test]
    fn record_encoder_validation() {
        assert!(RecordEncoder::new(DIM, &[], 8, 0).is_err());
        assert!(RecordEncoder::new(DIM, &[(1.0, 0.0)], 8, 0).is_err());
    }

    #[test]
    fn encode_batch_matches_serial_encode() {
        let enc = RecordEncoder::new(DIM, &[(0.0, 1.0), (-1.0, 1.0)], 16, 7).unwrap();
        let mut rng = Rng::from_seed(21);
        // More rows than one chunk, not a multiple of the chunk size.
        let rows: Vec<Vec<f64>> = (0..77)
            .map(|_| vec![rng.uniform(), rng.uniform_in(-1.0, 1.0)])
            .collect();
        let expected: Vec<BinaryHv> = rows.iter().map(|r| enc.encode(r)).collect();
        for workers in [1, 3, 4] {
            let batch = enc.encode_batch(&rows, Parallelism::new(workers));
            assert_eq!(batch, expected, "worker count {workers}");
        }
        assert!(enc.encode_batch(&[], Parallelism::new(4)).is_empty());
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn record_encoder_wrong_arity_panics() {
        let enc = RecordEncoder::new(DIM, &[(0.0, 1.0)], 8, 0).unwrap();
        let _ = enc.encode(&[0.5, 0.5]);
    }
}
