//! Similarity-weighted HDC regression.
//!
//! Ref \[18\] of the paper trains an HDC model to mimic a confidential
//! physics-based aging model: gate-voltage waveform features in, predicted
//! threshold-voltage degradation ΔVth out. Because the learned model lives
//! in hypervector space, it abstracts away the proprietary physics while
//! keeping the predictive relationship — the foundry can ship the model.
//!
//! The regressor quantizes the target range into prototype buckets, bundles
//! the encodings of all training samples that fall in each bucket, and
//! predicts by similarity-weighted averaging over bucket centers.

use crate::encoder::{check_rows, RecordEncoder};
use crate::error::HdcError;
use crate::hypervector::{BinaryHv, BundleAccumulator};
use lori_core::Rng;

/// Configuration for HDC regression.
#[derive(Debug, Clone, PartialEq)]
pub struct HdcRegressorConfig {
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Quantization levels per input feature.
    pub levels: usize,
    /// Number of target buckets (prototypes).
    pub buckets: usize,
    /// Softmax sharpness for similarity weighting; higher = closer to
    /// nearest-bucket readout.
    pub sharpness: f64,
    /// Seed for encoder construction.
    pub seed: u64,
}

impl Default for HdcRegressorConfig {
    fn default() -> Self {
        HdcRegressorConfig {
            dim: 4096,
            levels: 32,
            buckets: 24,
            sharpness: 60.0,
            seed: 0,
        }
    }
}

/// A trained HDC regressor.
#[derive(Debug, Clone)]
pub struct HdcRegressor {
    encoder: RecordEncoder,
    prototypes: Vec<BinaryHv>,
    bucket_centers: Vec<f64>,
    sharpness: f64,
}

impl HdcRegressor {
    /// Trains on feature rows and continuous targets.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyTrainingSet`] for empty/mismatched input,
    /// [`HdcError::DimensionMismatch`] for a row whose length differs from
    /// the first row's, or [`HdcError::InvalidEncoder`] for a NaN or
    /// infinite feature or target and for degenerate configurations (zero
    /// buckets, constant targets are handled by widening the range).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: &HdcRegressorConfig) -> Result<Self, HdcError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(HdcError::EmptyTrainingSet);
        }
        if config.buckets == 0 || config.sharpness.is_nan() || config.sharpness <= 0.0 {
            return Err(HdcError::InvalidEncoder("buckets/sharpness"));
        }
        check_rows(xs)?;
        if ys.iter().any(|y| !y.is_finite()) {
            return Err(HdcError::InvalidEncoder("non-finite target"));
        }
        let d = xs[0].len();
        let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); d];
        for row in xs {
            for (r, &v) in ranges.iter_mut().zip(row) {
                r.0 = r.0.min(v);
                r.1 = r.1.max(v);
            }
        }
        for r in &mut ranges {
            if r.1 - r.0 < 1e-12 {
                r.0 -= 0.5;
                r.1 += 0.5;
            }
        }
        let encoder = RecordEncoder::new(config.dim, &ranges, config.levels, config.seed)?;
        let mut rng = Rng::from_seed(config.seed ^ 0x4E67_BEEF);
        let tie = BinaryHv::random(config.dim, &mut rng);

        let (mut y_lo, mut y_hi) = ys
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &y| {
                (lo.min(y), hi.max(y))
            });
        if y_hi - y_lo < 1e-12 {
            y_lo -= 0.5;
            y_hi += 0.5;
        }
        let b = config.buckets;
        let mut accs: Vec<BundleAccumulator> =
            (0..b).map(|_| BundleAccumulator::new(config.dim)).collect();
        let mut sums = vec![0.0f64; b];
        let mut counts = vec![0usize; b];
        for (row, &y) in xs.iter().zip(ys) {
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            let bucket = (((y - y_lo) / (y_hi - y_lo) * b as f64).floor() as usize).min(b - 1);
            accs[bucket].add(&encoder.encode(row));
            sums[bucket] += y;
            counts[bucket] += 1;
        }
        let mut prototypes = Vec::new();
        let mut bucket_centers = Vec::new();
        for ((acc, &sum), &count) in accs.iter().zip(&sums).zip(&counts) {
            if count > 0 {
                prototypes.push(acc.majority(&tie));
                #[allow(clippy::cast_precision_loss)]
                bucket_centers.push(sum / count as f64);
            }
        }
        if prototypes.is_empty() {
            return Err(HdcError::EmptyTrainingSet);
        }
        Ok(HdcRegressor {
            encoder,
            prototypes,
            bucket_centers,
            sharpness: config.sharpness,
        })
    }

    /// Encodes a sample (exposed for noise-injection experiments).
    #[must_use]
    pub fn encode(&self, x: &[f64]) -> BinaryHv {
        self.encoder.encode(x)
    }

    /// Predicts from an already-encoded hypervector.
    #[must_use]
    pub fn predict_encoded(&self, hv: &BinaryHv) -> f64 {
        // Softmax over similarities, weighted sum of bucket centers.
        let sims: Vec<f64> = self.prototypes.iter().map(|p| p.similarity(hv)).collect();
        let max = sims.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut wsum = 0.0;
        let mut total = 0.0;
        for (&s, &c) in sims.iter().zip(&self.bucket_centers) {
            let w = ((s - max) * self.sharpness).exp();
            wsum += w * c;
            total += w;
        }
        wsum / total
    }

    /// Predicts the target for a raw feature row.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.predict_encoded(&self.encode(x))
    }

    /// Number of non-empty prototype buckets.
    #[must_use]
    pub fn prototype_count(&self) -> usize {
        self.prototypes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monotone_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = Rng::from_seed(seed);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.uniform_in(0.0, 1.0)]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 2.0 * r[0] + 0.5).collect();
        (xs, ys)
    }

    #[test]
    fn fits_monotone_function() {
        let (xs, ys) = monotone_data(500, 1);
        let reg = HdcRegressor::fit(&xs, &ys, &HdcRegressorConfig::default()).unwrap();
        let mut max_err: f64 = 0.0;
        for q in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let pred = reg.predict(&[q]);
            let truth = 2.0 * q + 0.5;
            max_err = max_err.max((pred - truth).abs());
        }
        assert!(max_err < 0.25, "max error {max_err}");
    }

    #[test]
    fn prediction_within_target_range() {
        let (xs, ys) = monotone_data(200, 2);
        let reg = HdcRegressor::fit(&xs, &ys, &HdcRegressorConfig::default()).unwrap();
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            let p = reg.predict(&[q]);
            assert!(
                p >= lo - 1e-9 && p <= hi + 1e-9,
                "prediction {p} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn validation() {
        assert!(matches!(
            HdcRegressor::fit(&[], &[], &HdcRegressorConfig::default()),
            Err(HdcError::EmptyTrainingSet)
        ));
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![0.0, 1.0];
        let bad = HdcRegressorConfig {
            buckets: 0,
            ..HdcRegressorConfig::default()
        };
        assert!(HdcRegressor::fit(&xs, &ys, &bad).is_err());
    }

    #[test]
    fn non_finite_target_rejected() {
        let xs = vec![vec![0.0], vec![0.5], vec![1.0]];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                HdcRegressor::fit(&xs, &[0.0, bad, 1.0], &HdcRegressorConfig::default())
                    .unwrap_err(),
                HdcError::InvalidEncoder("non-finite target"),
                "target {bad}"
            );
        }
    }

    #[test]
    fn non_finite_feature_rejected() {
        let ys = vec![0.0, 0.5, 1.0];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let xs = vec![vec![0.0], vec![bad], vec![1.0]];
            assert_eq!(
                HdcRegressor::fit(&xs, &ys, &HdcRegressorConfig::default()).unwrap_err(),
                HdcError::InvalidEncoder("non-finite feature"),
                "feature {bad}"
            );
        }
    }

    #[test]
    fn overflowing_feature_range_rejected() {
        // Both ends are finite, but the range's width is not.
        let xs = vec![vec![-1e308], vec![0.0], vec![1e308]];
        assert_eq!(
            HdcRegressor::fit(&xs, &[0.0, 0.5, 1.0], &HdcRegressorConfig::default()).unwrap_err(),
            HdcError::InvalidEncoder("range must be finite")
        );
    }

    #[test]
    fn ragged_row_is_a_dimension_mismatch() {
        let xs = vec![vec![0.0, 1.0], vec![0.5, 0.5], vec![1.0, 0.0, 2.0]];
        assert_eq!(
            HdcRegressor::fit(&xs, &[0.0, 0.5, 1.0], &HdcRegressorConfig::default()).unwrap_err(),
            HdcError::DimensionMismatch { left: 2, right: 3 }
        );
    }

    #[test]
    fn constant_targets_handled() {
        let xs = vec![vec![0.0], vec![0.5], vec![1.0]];
        let ys = vec![3.0, 3.0, 3.0];
        let reg = HdcRegressor::fit(&xs, &ys, &HdcRegressorConfig::default()).unwrap();
        assert!((reg.predict(&[0.25]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn robust_to_component_noise() {
        // The aging-model-mimicry claim: moderate component errors should
        // barely move the prediction.
        let (xs, ys) = monotone_data(500, 3);
        let reg = HdcRegressor::fit(&xs, &ys, &HdcRegressorConfig::default()).unwrap();
        let mut rng = Rng::from_seed(4);
        let hv = reg.encode(&[0.5]);
        let clean = reg.predict_encoded(&hv);
        let noisy_hv = crate::noise::flip_components(&hv, 0.2, &mut rng);
        let noisy = reg.predict_encoded(&noisy_hv);
        assert!((clean - noisy).abs() < 0.3, "clean {clean} noisy {noisy}");
    }
}
