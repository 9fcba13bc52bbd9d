//! Datasets, splits, and feature scaling.

use crate::error::MlError;
use lori_core::Rng;

/// A dense in-memory dataset: one feature row per sample plus an `f64`
/// target. Classification models interpret targets as class indices.
///
/// ```
/// use lori_ml::data::Dataset;
/// # fn main() -> Result<(), lori_ml::MlError> {
/// let ds = Dataset::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![0.0, 1.0])?;
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.n_features(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Builds a dataset from feature rows and targets.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`], [`MlError::RaggedRows`], or
    /// [`MlError::TargetMismatch`] when the inputs are malformed.
    pub fn from_rows(features: Vec<Vec<f64>>, targets: Vec<f64>) -> Result<Self, MlError> {
        if features.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if features.len() != targets.len() {
            return Err(MlError::TargetMismatch {
                features: features.len(),
                targets: targets.len(),
            });
        }
        let d = features[0].len();
        for (i, row) in features.iter().enumerate() {
            if row.len() != d {
                return Err(MlError::RaggedRows {
                    expected: d,
                    found: row.len(),
                    row: i,
                });
            }
        }
        Ok(Dataset { features, targets })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the dataset is empty. Always `false` for constructed datasets;
    /// present for API completeness alongside [`Dataset::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of features per sample.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// The feature rows.
    #[must_use]
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// The targets.
    #[must_use]
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// The `i`-th sample.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn sample(&self, i: usize) -> (&[f64], f64) {
        (&self.features[i], self.targets[i])
    }

    /// Targets interpreted as class indices (rounded, clamped at zero).
    #[must_use]
    pub fn class_targets(&self) -> Vec<usize> {
        self.targets
            .iter()
            .map(|&t| {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                {
                    t.round().max(0.0) as usize
                }
            })
            .collect()
    }

    /// Number of distinct classes (`max class index + 1`).
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.class_targets().iter().max().map_or(0, |m| m + 1)
    }

    /// Selects a subset by sample indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            targets: indices.iter().map(|&i| self.targets[i]).collect(),
        }
    }

    /// Splits into (train, test) with the given train fraction, shuffled with
    /// `rng`. Both halves are guaranteed non-empty for `len() >= 2` and
    /// `0 < train_fraction < 1`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] if `train_fraction` is not
    /// in `(0, 1)` or the dataset has fewer than two samples.
    pub fn split(&self, train_fraction: f64, rng: &mut Rng) -> Result<(Dataset, Dataset), MlError> {
        if !(train_fraction > 0.0 && train_fraction < 1.0) {
            return Err(MlError::InvalidHyperparameter("train_fraction"));
        }
        if self.len() < 2 {
            return Err(MlError::InvalidHyperparameter("dataset too small to split"));
        }
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let cut = ((self.len() as f64 * train_fraction).round() as usize).clamp(1, self.len() - 1);
        Ok((self.subset(&idx[..cut]), self.subset(&idx[cut..])))
    }

    /// Produces `k` cross-validation folds as (train, validation) pairs.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] if `k < 2` or `k > len()`.
    pub fn kfold(&self, k: usize, rng: &mut Rng) -> Result<Vec<(Dataset, Dataset)>, MlError> {
        if k < 2 || k > self.len() {
            return Err(MlError::InvalidHyperparameter("k"));
        }
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let mut folds = Vec::with_capacity(k);
        for f in 0..k {
            let val: Vec<usize> = idx
                .iter()
                .enumerate()
                .filter(|(i, _)| i % k == f)
                .map(|(_, &s)| s)
                .collect();
            let train: Vec<usize> = idx
                .iter()
                .enumerate()
                .filter(|(i, _)| i % k != f)
                .map(|(_, &s)| s)
                .collect();
            folds.push((self.subset(&train), self.subset(&val)));
        }
        Ok(folds)
    }
}

/// Standardizing scaler: maps each feature to zero mean / unit variance.
///
/// Constant features are left centered but unscaled (divisor 1).
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Learns per-feature statistics from a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] if the dataset has no samples.
    pub fn fit(ds: &Dataset) -> Result<Self, MlError> {
        if ds.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let d = ds.n_features();
        #[allow(clippy::cast_precision_loss)]
        let n = ds.len() as f64;
        let mut means = vec![0.0; d];
        for row in ds.features() {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x / n;
            }
        }
        let mut stds = vec![0.0; d];
        for row in ds.features() {
            for ((s, &m), &x) in stds.iter_mut().zip(&means).zip(row) {
                *s += (x - m).powi(2) / n;
            }
        }
        for s in &mut stds {
            *s = s.sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Ok(StandardScaler { means, stds })
    }

    /// Scales one row in place.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the fitted feature count.
    pub fn transform_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "feature count mismatch");
        for ((x, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *x = (*x - m) / s;
        }
    }

    /// Returns a scaled copy of a dataset.
    #[must_use]
    pub fn transform(&self, ds: &Dataset) -> Dataset {
        let features = ds
            .features()
            .iter()
            .map(|row| {
                let mut r = row.clone();
                self.transform_row(&mut r);
                r
            })
            .collect();
        Dataset {
            features,
            targets: ds.targets().to_vec(),
        }
    }
}

/// Squared Euclidean distance between two rows.
///
/// # Panics
///
/// Panics if the rows have different lengths.
#[must_use]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::from_rows(
            vec![
                vec![1.0, 10.0],
                vec![2.0, 20.0],
                vec![3.0, 30.0],
                vec![4.0, 40.0],
            ],
            vec![0.0, 0.0, 1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            Dataset::from_rows(vec![], vec![]),
            Err(MlError::EmptyDataset)
        );
        assert!(matches!(
            Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 1.0]),
            Err(MlError::RaggedRows { row: 1, .. })
        ));
        assert!(matches!(
            Dataset::from_rows(vec![vec![1.0]], vec![]),
            Err(MlError::TargetMismatch { .. })
        ));
    }

    #[test]
    fn accessors() {
        let ds = toy();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.class_targets(), vec![0, 0, 1, 1]);
        let (x, y) = ds.sample(2);
        assert_eq!(x, &[3.0, 30.0]);
        assert_eq!(y, 1.0);
    }

    #[test]
    fn subset_selects() {
        let ds = toy();
        let s = ds.subset(&[3, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.sample(0).0, &[4.0, 40.0]);
        assert_eq!(s.sample(1).0, &[1.0, 10.0]);
    }

    #[test]
    fn split_partitions() {
        let ds = toy();
        let mut rng = Rng::from_seed(1);
        let (tr, te) = ds.split(0.5, &mut rng).unwrap();
        assert_eq!(tr.len() + te.len(), ds.len());
        assert!(!tr.is_empty() && !te.is_empty());
        assert!(ds.split(0.0, &mut rng).is_err());
        assert!(ds.split(1.0, &mut rng).is_err());
    }

    #[test]
    fn kfold_covers_everything_once() {
        let ds = toy();
        let mut rng = Rng::from_seed(2);
        let folds = ds.kfold(2, &mut rng).unwrap();
        assert_eq!(folds.len(), 2);
        let total_val: usize = folds.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total_val, ds.len());
        for (tr, va) in &folds {
            assert_eq!(tr.len() + va.len(), ds.len());
        }
        assert!(ds.kfold(1, &mut rng).is_err());
        assert!(ds.kfold(5, &mut rng).is_err());
    }

    #[test]
    fn standard_scaler_zero_mean_unit_var() {
        let ds = toy();
        let sc = StandardScaler::fit(&ds).unwrap();
        let t = sc.transform(&ds);
        for j in 0..t.n_features() {
            let col: Vec<f64> = t.features().iter().map(|r| r[j]).collect();
            let mean = col.iter().sum::<f64>() / 4.0;
            let var = col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn standard_scaler_constant_feature() {
        let ds = Dataset::from_rows(vec![vec![5.0], vec![5.0], vec![5.0]], vec![0.0; 3]).unwrap();
        let sc = StandardScaler::fit(&ds).unwrap();
        let t = sc.transform(&ds);
        for r in t.features() {
            assert_eq!(r[0], 0.0);
        }
    }

    #[test]
    fn squared_distance_basics() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_distance(&[1.0], &[1.0]), 0.0);
    }
}
