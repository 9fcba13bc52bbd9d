//! Random forests (bagged CART trees with feature sub-sampling).

use crate::data::Dataset;
use crate::error::MlError;
use crate::traits::{Classifier, ProbabilisticClassifier, Regressor};
use crate::tree::{argmax, reject_nan_features, DecisionTree, RegressionTree, TreeConfig};
use lori_core::Rng;

/// Configuration for random-forest training.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth configuration. If `max_features` is `None`, it
    /// defaults to `ceil(sqrt(n_features))` during fitting.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 50,
            tree: TreeConfig::default(),
            seed: 0,
        }
    }
}

/// A fitted random-forest classifier (soft voting over tree probabilities).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Trains `n_trees` trees on bootstrap samples with per-split feature
    /// sub-sampling.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for zero trees,
    /// [`MlError::Numerical`] if a feature value is NaN, or the underlying
    /// tree errors ([`MlError::SingleClass`], ...). Bootstrap resamples
    /// that collapse to a single class are retried with a different seed
    /// and, failing that, skipped; if every tree is skipped the original
    /// error is propagated.
    pub fn fit(ds: &Dataset, config: &ForestConfig) -> Result<Self, MlError> {
        if config.n_trees == 0 {
            return Err(MlError::InvalidHyperparameter("n_trees"));
        }
        // Checked on the whole dataset: a bootstrap can miss the NaN row.
        reject_nan_features(ds.features())?;
        let mut tree_cfg = config.tree.clone();
        if tree_cfg.max_features.is_none() {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let k = (ds.n_features() as f64).sqrt().ceil() as usize;
            tree_cfg.max_features = Some(k.max(1));
        }
        let mut rng = Rng::from_seed(config.seed);
        let mut trees = Vec::with_capacity(config.n_trees);
        let mut last_err = None;
        for _ in 0..config.n_trees {
            let mut ok = false;
            for _retry in 0..4 {
                let boot = ds.bootstrap(&mut rng);
                match DecisionTree::fit_seeded(&boot, &tree_cfg, &mut rng) {
                    Ok(t) => {
                        trees.push(t);
                        ok = true;
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            if !ok {
                // A pathologically tiny/imbalanced dataset; keep what we have.
            }
        }
        if trees.is_empty() {
            return Err(last_err.unwrap_or(MlError::EmptyDataset));
        }
        Ok(RandomForest {
            trees,
            n_classes: ds.n_classes(),
        })
    }

    /// Number of trees that were actually grown.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }
}

impl Classifier for RandomForest {
    fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.scores(x))
    }
}

impl ProbabilisticClassifier for RandomForest {
    fn scores(&self, x: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.n_classes];
        for t in &self.trees {
            for (a, s) in acc.iter_mut().zip(t.scores(x)) {
                *a += s;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.trees.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        acc
    }
}

/// A fitted random-forest regressor (mean over tree predictions).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestRegressor {
    trees: Vec<RegressionTree>,
}

impl RandomForestRegressor {
    /// Trains `n_trees` regression trees on bootstrap samples.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for zero trees or invalid
    /// tree configuration, or [`MlError::Numerical`] if a feature value is
    /// NaN.
    pub fn fit(ds: &Dataset, config: &ForestConfig) -> Result<Self, MlError> {
        if config.n_trees == 0 {
            return Err(MlError::InvalidHyperparameter("n_trees"));
        }
        // Checked on the whole dataset: a bootstrap can miss the NaN row.
        reject_nan_features(ds.features())?;
        let mut tree_cfg = config.tree.clone();
        if tree_cfg.max_features.is_none() {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let k = (ds.n_features() as f64).sqrt().ceil() as usize;
            tree_cfg.max_features = Some(k.max(1));
        }
        let mut rng = Rng::from_seed(config.seed);
        let mut trees = Vec::with_capacity(config.n_trees);
        for _ in 0..config.n_trees {
            let boot = ds.bootstrap(&mut rng);
            trees.push(RegressionTree::fit_seeded(&boot, &tree_cfg, &mut rng)?);
        }
        Ok(RandomForestRegressor { trees })
    }
}

impl Regressor for RandomForestRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let n = self.trees.len() as f64;
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};

    fn spiral(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::from_seed(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let cls = rng.bernoulli(0.5);
            let t = rng.uniform_in(0.5, 3.0);
            let phase = if cls { 0.0 } else { std::f64::consts::PI };
            rows.push(vec![
                t * (2.0 * t + phase).cos() + rng.normal_with(0.0, 0.1),
                t * (2.0 * t + phase).sin() + rng.normal_with(0.0, 0.1),
            ]);
            ys.push(f64::from(u8::from(cls)));
        }
        Dataset::from_rows(rows, ys).unwrap()
    }

    #[test]
    fn forest_beats_chance_on_spiral() {
        let train = spiral(500, 1);
        let test = spiral(200, 2);
        let forest = RandomForest::fit(&train, &ForestConfig::default()).unwrap();
        let acc = accuracy(
            &test.class_targets(),
            &forest.predict_batch(test.features()),
        )
        .unwrap();
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn forest_scores_are_distribution() {
        let ds = spiral(200, 3);
        let forest = RandomForest::fit(&ds, &ForestConfig::default()).unwrap();
        let s = forest.scores(&[0.0, 0.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_trees_rejected() {
        let ds = spiral(50, 4);
        let cfg = ForestConfig {
            n_trees: 0,
            ..ForestConfig::default()
        };
        assert!(RandomForest::fit(&ds, &cfg).is_err());
        assert!(RandomForestRegressor::fit(&ds, &cfg).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = spiral(100, 5);
        let a = RandomForest::fit(&ds, &ForestConfig::default()).unwrap();
        let b = RandomForest::fit(&ds, &ForestConfig::default()).unwrap();
        let xs = ds.features();
        assert_eq!(a.predict_batch(xs), b.predict_batch(xs));
    }

    #[test]
    fn regressor_fits_smooth_function() {
        let mut rng = Rng::from_seed(6);
        let rows: Vec<Vec<f64>> = (0..600).map(|_| vec![rng.uniform_in(-3.0, 3.0)]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| (r[0]).sin() * 2.0).collect();
        let ds = Dataset::from_rows(rows.clone(), ys.clone()).unwrap();
        let f = RandomForestRegressor::fit(&ds, &ForestConfig::default()).unwrap();
        let preds: Vec<f64> = rows.iter().map(|r| f.predict(r)).collect();
        let score = r2(&ys, &preds).unwrap();
        assert!(score > 0.9, "r2 {score}");
    }

    #[test]
    fn tree_count_reported() {
        let ds = spiral(100, 7);
        let cfg = ForestConfig {
            n_trees: 7,
            ..ForestConfig::default()
        };
        let f = RandomForest::fit(&ds, &cfg).unwrap();
        assert_eq!(f.tree_count(), 7);
    }

    #[test]
    fn nan_feature_is_a_typed_error() {
        let mut rows: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i), 1.0]).collect();
        rows[7][1] = f64::NAN;
        let ys: Vec<f64> = (0..40).map(|i| f64::from(i % 2)).collect();
        let ds = Dataset::from_rows(rows, ys).unwrap();
        let nan = MlError::Numerical("NaN feature");
        assert_eq!(
            RandomForest::fit(&ds, &ForestConfig::default()),
            Err(nan.clone())
        );
        assert_eq!(
            RandomForestRegressor::fit(&ds, &ForestConfig::default()),
            Err(nan)
        );
    }
}
