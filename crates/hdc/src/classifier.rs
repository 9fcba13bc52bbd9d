//! A prototype-bundling HDC classifier with perceptron-style retraining.
//!
//! Training bundles all encoded samples of a class into a class prototype;
//! retraining epochs then move misclassified samples from the wrong
//! prototype to the right one (the standard "retraining" refinement from the
//! HDC classification literature the paper surveys, e.g. refs \[13\]\[15\]).

use crate::encoder::{check_rows, RecordEncoder};
use crate::error::HdcError;
use crate::hypervector::{BinaryHv, BundleAccumulator};
use lori_core::Rng;

/// Configuration for HDC classifier training.
#[derive(Debug, Clone, PartialEq)]
pub struct HdcClassifierConfig {
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Quantization levels per feature.
    pub levels: usize,
    /// Retraining epochs after the initial bundling.
    pub retrain_epochs: usize,
    /// Seed for encoder construction and tie-breaking.
    pub seed: u64,
}

impl Default for HdcClassifierConfig {
    fn default() -> Self {
        HdcClassifierConfig {
            dim: 4096,
            levels: 32,
            retrain_epochs: 10,
            seed: 0,
        }
    }
}

/// A trained HDC classifier: one prototype hypervector per class.
#[derive(Debug, Clone)]
pub struct HdcClassifier {
    encoder: RecordEncoder,
    prototypes: Vec<BinaryHv>,
    n_classes: usize,
}

impl HdcClassifier {
    /// Trains on feature rows and class labels. Feature ranges for the level
    /// encoders are taken from the training data (min/max per feature).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyTrainingSet`] for empty input,
    /// [`HdcError::DimensionMismatch`] for a row whose length differs from
    /// the first row's, [`HdcError::InvalidEncoder`] for a NaN or infinite
    /// feature, [`HdcError::SingleClass`] if fewer than two classes appear,
    /// or encoder-configuration errors.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[usize],
        config: &HdcClassifierConfig,
    ) -> Result<Self, HdcError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(HdcError::EmptyTrainingSet);
        }
        check_rows(xs)?;
        let n_classes = ys.iter().max().map_or(0, |m| m + 1);
        if n_classes < 2 {
            return Err(HdcError::SingleClass);
        }
        let d = xs[0].len();
        // Per-feature ranges with a little head-room so unseen values clamp
        // gracefully instead of saturating at training extremes.
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
            let pad = (r.1 - r.0) * 0.05;
            r.0 -= pad;
            r.1 += pad;
        }
        let encoder = RecordEncoder::new(config.dim, &ranges, config.levels, config.seed)?;
        let mut rng = Rng::from_seed(config.seed ^ 0xC1A5_51F1);
        let tie = BinaryHv::random(config.dim, &mut rng);

        // Encode once (fanned out over LORI_THREADS workers; the encoding
        // is pure, so the result is worker-count independent), bundle per
        // class.
        let encoded: Vec<BinaryHv> = encoder.encode_batch(xs, lori_par::global());
        let mut accs: Vec<BundleAccumulator> = (0..n_classes)
            .map(|_| BundleAccumulator::new(config.dim))
            .collect();
        for (hv, &y) in encoded.iter().zip(ys) {
            accs[y].add(hv);
        }
        // Empty classes get a random prototype (never matched in practice).
        let mut prototypes: Vec<BinaryHv> = accs
            .iter()
            .map(|a| {
                if a.is_empty() {
                    BinaryHv::random(config.dim, &mut rng)
                } else {
                    a.majority(&tie)
                }
            })
            .collect();

        // Retraining: move misclassified samples between accumulators.
        for _ in 0..config.retrain_epochs {
            let mut changed = false;
            for (hv, &y) in encoded.iter().zip(ys) {
                let pred = nearest(&prototypes, hv);
                if pred != y {
                    accs[y].add(hv);
                    if !accs[pred].is_empty() {
                        accs[pred].subtract(hv);
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            for (p, a) in prototypes.iter_mut().zip(&accs) {
                if !a.is_empty() {
                    *p = a.majority(&tie);
                }
            }
        }

        Ok(HdcClassifier {
            encoder,
            prototypes,
            n_classes,
        })
    }

    /// Number of classes.
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Hypervector dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.encoder.dim()
    }

    /// Encodes a sample into hyperspace (exposed so noise-injection
    /// experiments can corrupt the query vector before matching).
    #[must_use]
    pub fn encode(&self, x: &[f64]) -> BinaryHv {
        self.encoder.encode(x)
    }

    /// Classifies an already-encoded hypervector.
    #[must_use]
    pub fn classify_encoded(&self, hv: &BinaryHv) -> usize {
        nearest(&self.prototypes, hv)
    }

    /// Classifies a raw feature row.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> usize {
        self.classify_encoded(&self.encode(x))
    }

    /// Per-class similarities of an encoded query.
    #[must_use]
    pub fn similarities(&self, hv: &BinaryHv) -> Vec<f64> {
        self.prototypes.iter().map(|p| p.similarity(hv)).collect()
    }
}

fn nearest(prototypes: &[BinaryHv], hv: &BinaryHv) -> usize {
    let mut best = 0;
    let mut best_sim = f64::NEG_INFINITY;
    for (i, p) in prototypes.iter().enumerate() {
        let s = p.similarity(hv);
        if s > best_sim {
            best_sim = s;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = Rng::from_seed(seed);
        let centers = [(0.0, 0.0), (4.0, 4.0), (0.0, 4.0)];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let c = rng.below(3) as usize;
            let (cx, cy) = centers[c];
            xs.push(vec![rng.normal_with(cx, 0.5), rng.normal_with(cy, 0.5)]);
            ys.push(c);
        }
        (xs, ys)
    }

    #[test]
    fn classifies_blobs() {
        let (xs, ys) = blobs(300, 1);
        let clf = HdcClassifier::fit(&xs, &ys, &HdcClassifierConfig::default()).unwrap();
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| clf.predict(x) == y)
            .count();
        #[allow(clippy::cast_precision_loss)]
        let acc = correct as f64 / xs.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn generalizes_to_unseen() {
        let (xs, ys) = blobs(300, 2);
        let clf = HdcClassifier::fit(&xs, &ys, &HdcClassifierConfig::default()).unwrap();
        let (txs, tys) = blobs(100, 3);
        let correct = txs
            .iter()
            .zip(&tys)
            .filter(|(x, &y)| clf.predict(x) == y)
            .count();
        #[allow(clippy::cast_precision_loss)]
        let acc = correct as f64 / txs.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn similarities_have_class_structure() {
        let (xs, ys) = blobs(300, 4);
        let clf = HdcClassifier::fit(&xs, &ys, &HdcClassifierConfig::default()).unwrap();
        let hv = clf.encode(&[0.0, 0.0]);
        let sims = clf.similarities(&hv);
        assert_eq!(sims.len(), 3);
        assert!(sims[0] > sims[1]);
    }

    #[test]
    fn validation() {
        assert!(matches!(
            HdcClassifier::fit(&[], &[], &HdcClassifierConfig::default()),
            Err(HdcError::EmptyTrainingSet)
        ));
        let xs = vec![vec![0.0], vec![1.0]];
        assert!(matches!(
            HdcClassifier::fit(&xs, &[0, 0], &HdcClassifierConfig::default()),
            Err(HdcError::SingleClass)
        ));
    }

    #[test]
    fn ragged_row_is_a_dimension_mismatch() {
        let xs = vec![vec![0.0, 1.0], vec![1.0], vec![2.0, 0.0]];
        assert_eq!(
            HdcClassifier::fit(&xs, &[0, 1, 0], &HdcClassifierConfig::default()).unwrap_err(),
            HdcError::DimensionMismatch { left: 2, right: 1 }
        );
    }

    #[test]
    fn non_finite_feature_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let xs = vec![vec![0.0, 1.0], vec![1.0, bad], vec![2.0, 0.0]];
            assert_eq!(
                HdcClassifier::fit(&xs, &[0, 1, 0], &HdcClassifierConfig::default()).unwrap_err(),
                HdcError::InvalidEncoder("non-finite feature"),
                "feature {bad}"
            );
        }
    }

    #[test]
    fn constant_feature_handled() {
        let xs = vec![
            vec![1.0, 0.0],
            vec![1.0, 0.1],
            vec![1.0, 5.0],
            vec![1.0, 5.1],
        ];
        let ys = vec![0, 0, 1, 1];
        let clf = HdcClassifier::fit(&xs, &ys, &HdcClassifierConfig::default()).unwrap();
        assert_eq!(clf.predict(&[1.0, 0.05]), 0);
        assert_eq!(clf.predict(&[1.0, 5.05]), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let (xs, ys) = blobs(100, 5);
        let a = HdcClassifier::fit(&xs, &ys, &HdcClassifierConfig::default()).unwrap();
        let b = HdcClassifier::fit(&xs, &ys, &HdcClassifierConfig::default()).unwrap();
        for x in &xs {
            assert_eq!(a.predict(x), b.predict(x));
        }
    }
}
