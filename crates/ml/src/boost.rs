//! Boosted ensembles: AdaBoost (decision stumps, SAMME) and gradient
//! boosting (regression trees; squared loss for regression, logistic loss
//! for binary classification).
//!
//! Sec. III-B.1 of the paper highlights that "ML models like AdaBoost or
//! stochastic gradient boosting can be more consistently accurate" than
//! MLPs/naive Bayes/SVMs for scale-dependent fault-behaviour modeling,
//! because they keep learning from mispredicted samples.

use crate::data::Dataset;
use crate::error::MlError;
use crate::traits::{Classifier, ProbabilisticClassifier, Regressor};
use crate::tree::{Presort, RegressionTree, TreeBuffers, TreeConfig};

/// A decision stump: one feature, one threshold, one class on each side.
#[derive(Debug, Clone, PartialEq)]
struct Stump {
    feature: usize,
    threshold: f64,
    /// Predicted sign when `x[feature] <= threshold` (+1 or −1); the other
    /// side predicts the negation.
    left_sign: f64,
}

impl Stump {
    fn predict_sign(&self, x: &[f64]) -> f64 {
        if x[self.feature] <= self.threshold {
            self.left_sign
        } else {
            -self.left_sign
        }
    }

    /// Best stump under sample weights, by exhaustive threshold scan over
    /// each feature's presorted rows.
    fn fit(ds: &Dataset, presort: &Presort, signs: &[f64], weights: &[f64]) -> Stump {
        let d = ds.n_features();
        let mut best = Stump {
            feature: 0,
            threshold: f64::NEG_INFINITY,
            left_sign: 1.0,
        };
        let mut best_err = f64::INFINITY;
        for f in 0..d {
            let order = presort.feature(f);
            // err(left_sign=+1) for threshold before the first point:
            // everything is on the right predicting −1.
            let mut err_plus: f64 = order
                .iter()
                .map(|&i| if signs[i] > 0.0 { weights[i] } else { 0.0 })
                .sum();
            let consider =
                |err_plus: f64, thr: f64, f: usize, best: &mut Stump, best_err: &mut f64| {
                    let (err, sign) = if err_plus <= 1.0 - err_plus {
                        (err_plus, 1.0)
                    } else {
                        (1.0 - err_plus, -1.0)
                    };
                    if err < *best_err {
                        *best_err = err;
                        *best = Stump {
                            feature: f,
                            threshold: thr,
                            left_sign: sign,
                        };
                    }
                };
            consider(err_plus, f64::NEG_INFINITY, f, &mut best, &mut best_err);
            for w in 0..order.len() {
                let i = order[w];
                // Moving sample i to the left side (predicted +1 under
                // left_sign=+1): correct if its sign is +1.
                if signs[i] > 0.0 {
                    err_plus -= weights[i];
                } else {
                    err_plus += weights[i];
                }
                let here = ds.features()[i][f];
                let next = order.get(w + 1).map(|&j| ds.features()[j][f]);
                if next.is_none_or(|nx| nx - here > 1e-12) {
                    let thr = next.map_or(here, |nx| (here + nx) / 2.0);
                    consider(err_plus, thr, f, &mut best, &mut best_err);
                }
            }
        }
        best
    }
}

/// Configuration for AdaBoost training.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoostConfig {
    /// Number of boosting rounds (stumps).
    pub rounds: usize,
}

impl Default for AdaBoostConfig {
    fn default() -> Self {
        AdaBoostConfig { rounds: 50 }
    }
}

/// A fitted AdaBoost binary classifier over decision stumps.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoost {
    stumps: Vec<(f64, Stump)>,
    n_features: usize,
}

impl AdaBoost {
    /// Trains with the discrete AdaBoost reweighting scheme.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::SingleClass`] if only one class is present,
    /// [`MlError::InvalidHyperparameter`] for zero rounds, or
    /// [`MlError::Numerical`] if a feature value is NaN.
    pub fn fit(ds: &Dataset, config: &AdaBoostConfig) -> Result<Self, MlError> {
        if config.rounds == 0 {
            return Err(MlError::InvalidHyperparameter("rounds"));
        }
        let ys = ds.class_targets();
        if !ys.contains(&0) || !ys.contains(&1) {
            return Err(MlError::SingleClass);
        }
        let presort = Presort::new(ds.features())?;
        let signs: Vec<f64> = ys
            .iter()
            .map(|&y| if y == 1 { 1.0 } else { -1.0 })
            .collect();
        let n = ds.len();
        #[allow(clippy::cast_precision_loss)]
        let mut weights = vec![1.0 / n as f64; n];
        let mut stumps = Vec::new();
        for _ in 0..config.rounds {
            let stump = Stump::fit(ds, &presort, &signs, &weights);
            let err: f64 = (0..n)
                .filter(|&i| stump.predict_sign(ds.features()[i].as_slice()) != signs[i])
                .map(|i| weights[i])
                .sum();
            let err = err.clamp(1e-12, 1.0 - 1e-12);
            let alpha = 0.5 * ((1.0 - err) / err).ln();
            if alpha <= 0.0 {
                break; // weak learner no better than chance
            }
            for i in 0..n {
                let agree = stump.predict_sign(ds.features()[i].as_slice()) * signs[i];
                weights[i] *= (-alpha * agree).exp();
            }
            let z: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= z;
            }
            stumps.push((alpha, stump));
            if err < 1e-10 {
                break; // perfect fit
            }
        }
        if stumps.is_empty() {
            return Err(MlError::Numerical("no useful weak learner found"));
        }
        Ok(AdaBoost {
            stumps,
            n_features: ds.n_features(),
        })
    }

    /// The boosted margin `Σ αₜ hₜ(x)`; positive means class 1.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    #[must_use]
    pub fn decision(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        self.stumps.iter().map(|(a, s)| a * s.predict_sign(x)).sum()
    }

    /// Number of boosting rounds actually performed.
    #[must_use]
    pub fn round_count(&self) -> usize {
        self.stumps.len()
    }
}

impl Classifier for AdaBoost {
    fn predict(&self, x: &[f64]) -> usize {
        usize::from(self.decision(x) >= 0.0)
    }
}

impl ProbabilisticClassifier for AdaBoost {
    fn scores(&self, x: &[f64]) -> Vec<f64> {
        let p = 1.0 / (1.0 + (-2.0 * self.decision(x)).exp());
        vec![1.0 - p, p]
    }
}

/// Configuration for gradient-boosting training.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostConfig {
    /// Number of boosting stages (trees).
    pub stages: usize,
    /// Shrinkage applied to each stage.
    pub learning_rate: f64,
    /// Depth of each regression tree.
    pub max_depth: usize,
}

impl Default for GradientBoostConfig {
    fn default() -> Self {
        GradientBoostConfig {
            stages: 100,
            learning_rate: 0.1,
            max_depth: 3,
        }
    }
}

/// Gradient-boosted regression trees with squared loss.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostRegressor {
    base: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
}

impl GradientBoostRegressor {
    /// Fits by stage-wise residual fitting.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for zero stages or a
    /// non-positive learning rate, or [`MlError::Numerical`] if a feature
    /// value is NaN.
    pub fn fit(ds: &Dataset, config: &GradientBoostConfig) -> Result<Self, MlError> {
        let _span = lori_obs::span("ml.gbt.fit");
        if config.stages == 0 || config.learning_rate.is_nan() || config.learning_rate <= 0.0 {
            return Err(MlError::InvalidHyperparameter("gradient boost config"));
        }
        let presort = Presort::new(ds.features())?;
        #[allow(clippy::cast_precision_loss)]
        let base = ds.targets().iter().sum::<f64>() / ds.len() as f64;
        let tree_cfg = TreeConfig {
            max_depth: config.max_depth,
            min_samples_split: 2,
        };
        let mut buffers = TreeBuffers::default();
        let mut preds = vec![base; ds.len()];
        let mut residuals = vec![0.0; ds.len()];
        let mut trees = Vec::with_capacity(config.stages);
        for _ in 0..config.stages {
            for ((r, y), p) in residuals.iter_mut().zip(ds.targets()).zip(&preds) {
                *r = y - p;
            }
            let tree = RegressionTree::fit_presorted(
                ds.features(),
                &residuals,
                &tree_cfg,
                &presort,
                &mut buffers,
            );
            for (p, row) in preds.iter_mut().zip(ds.features()) {
                *p += config.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        Ok(GradientBoostRegressor {
            base,
            learning_rate: config.learning_rate,
            trees,
        })
    }

    /// Number of fitted stages.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.trees.len()
    }
}

impl Regressor for GradientBoostRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }
}

/// Gradient-boosted binary classifier (logistic loss on tree ensembles).
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostClassifier {
    base_logit: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
    n_features: usize,
}

impl GradientBoostClassifier {
    /// Fits by stage-wise fitting of the logistic-loss negative gradient
    /// (`y − p`).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::SingleClass`],
    /// [`MlError::InvalidHyperparameter`], or [`MlError::Numerical`] if a
    /// feature value is NaN.
    pub fn fit(ds: &Dataset, config: &GradientBoostConfig) -> Result<Self, MlError> {
        let _span = lori_obs::span("ml.gbt.fit");
        if config.stages == 0 || config.learning_rate.is_nan() || config.learning_rate <= 0.0 {
            return Err(MlError::InvalidHyperparameter("gradient boost config"));
        }
        let ys = ds.class_targets();
        let n_pos = ys.iter().filter(|&&y| y == 1).count();
        if n_pos == 0 || n_pos == ys.len() {
            return Err(MlError::SingleClass);
        }
        let presort = Presort::new(ds.features())?;
        #[allow(clippy::cast_precision_loss)]
        let p0 = (n_pos as f64 / ys.len() as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_logit = (p0 / (1.0 - p0)).ln();
        let tree_cfg = TreeConfig {
            max_depth: config.max_depth,
            min_samples_split: 2,
        };
        let mut buffers = TreeBuffers::default();
        let mut logits = vec![base_logit; ds.len()];
        let mut grads = vec![0.0; ds.len()];
        let mut trees = Vec::with_capacity(config.stages);
        for _ in 0..config.stages {
            for ((g, &y), &z) in grads.iter_mut().zip(&ys).zip(&logits) {
                let p = 1.0 / (1.0 + (-z).exp());
                #[allow(clippy::cast_precision_loss)]
                {
                    *g = y as f64 - p;
                }
            }
            let tree = RegressionTree::fit_presorted(
                ds.features(),
                &grads,
                &tree_cfg,
                &presort,
                &mut buffers,
            );
            for (z, row) in logits.iter_mut().zip(ds.features()) {
                *z += config.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        Ok(GradientBoostClassifier {
            base_logit,
            learning_rate: config.learning_rate,
            trees,
            n_features: ds.n_features(),
        })
    }

    /// Probability of class 1.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    #[must_use]
    pub fn probability(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        let z = self.base_logit
            + self.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f64>();
        1.0 / (1.0 + (-z).exp())
    }
}

impl Classifier for GradientBoostClassifier {
    fn predict(&self, x: &[f64]) -> usize {
        usize::from(self.probability(x) >= 0.5)
    }
}

impl ProbabilisticClassifier for GradientBoostClassifier {
    fn scores(&self, x: &[f64]) -> Vec<f64> {
        let p = self.probability(x);
        vec![1.0 - p, p]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use crate::tree::oracle;
    use lori_core::Rng;

    fn rings(n: usize, seed: u64) -> Dataset {
        // Inner disk = class 0, outer annulus = class 1: nonlinear.
        let mut rng = Rng::from_seed(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let outer = rng.bernoulli(0.5);
            let r = if outer {
                rng.uniform_in(2.0, 3.0)
            } else {
                rng.uniform_in(0.0, 1.0)
            };
            let a = rng.uniform_in(0.0, std::f64::consts::TAU);
            rows.push(vec![r * a.cos(), r * a.sin()]);
            ys.push(f64::from(u8::from(outer)));
        }
        Dataset::from_rows(rows, ys).unwrap()
    }

    #[test]
    fn adaboost_solves_rings() {
        let ds = rings(400, 1);
        let m = AdaBoost::fit(&ds, &AdaBoostConfig { rounds: 100 }).unwrap();
        let acc = accuracy(&ds.class_targets(), &m.predict_batch(ds.features())).unwrap();
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn adaboost_margin_sign() {
        let ds = rings(400, 2);
        let m = AdaBoost::fit(&ds, &AdaBoostConfig { rounds: 100 }).unwrap();
        assert!(m.decision(&[0.0, 0.0]) < 0.0);
        assert!(m.decision(&[2.5, 0.0]) > 0.0);
    }

    #[test]
    fn adaboost_validation() {
        let single = Dataset::from_rows(vec![vec![1.0], vec![2.0]], vec![0.0, 0.0]).unwrap();
        assert_eq!(
            AdaBoost::fit(&single, &AdaBoostConfig::default()),
            Err(MlError::SingleClass)
        );
        let two = Dataset::from_rows(vec![vec![1.0], vec![2.0]], vec![0.0, 1.0]).unwrap();
        assert!(AdaBoost::fit(&two, &AdaBoostConfig { rounds: 0 }).is_err());
    }

    #[test]
    fn adaboost_perfect_split_stops_early() {
        let ds = Dataset::from_rows(
            vec![vec![0.0], vec![0.1], vec![1.0], vec![1.1]],
            vec![0.0, 0.0, 1.0, 1.0],
        )
        .unwrap();
        let m = AdaBoost::fit(&ds, &AdaBoostConfig { rounds: 100 }).unwrap();
        assert!(m.round_count() < 100);
        let acc = accuracy(&ds.class_targets(), &m.predict_batch(ds.features())).unwrap();
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_boost_regression_sine() {
        let mut rng = Rng::from_seed(3);
        let rows: Vec<Vec<f64>> = (0..600).map(|_| vec![rng.uniform_in(-3.0, 3.0)]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0].sin() * 3.0 + 1.0).collect();
        let ds = Dataset::from_rows(rows.clone(), ys.clone()).unwrap();
        let m = GradientBoostRegressor::fit(&ds, &GradientBoostConfig::default()).unwrap();
        let preds: Vec<f64> = rows.iter().map(|r| m.predict(r)).collect();
        let score = r2(&ys, &preds).unwrap();
        assert!(score > 0.97, "r2 {score}");
        assert_eq!(m.stage_count(), 100);
    }

    #[test]
    fn gradient_boost_more_stages_fit_better() {
        let mut rng = Rng::from_seed(4);
        let rows: Vec<Vec<f64>> = (0..300).map(|_| vec![rng.uniform_in(-3.0, 3.0)]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0].powi(3)).collect();
        let ds = Dataset::from_rows(rows.clone(), ys.clone()).unwrap();
        let short = GradientBoostRegressor::fit(
            &ds,
            &GradientBoostConfig {
                stages: 5,
                ..GradientBoostConfig::default()
            },
        )
        .unwrap();
        let long = GradientBoostRegressor::fit(
            &ds,
            &GradientBoostConfig {
                stages: 200,
                ..GradientBoostConfig::default()
            },
        )
        .unwrap();
        let err = |m: &GradientBoostRegressor| -> f64 {
            rows.iter()
                .zip(&ys)
                .map(|(r, y)| (m.predict(r) - y).powi(2))
                .sum::<f64>()
        };
        assert!(err(&long) < err(&short));
    }

    #[test]
    fn gradient_boost_classifier_rings() {
        let ds = rings(400, 5);
        let m = GradientBoostClassifier::fit(&ds, &GradientBoostConfig::default()).unwrap();
        let acc = accuracy(&ds.class_targets(), &m.predict_batch(ds.features())).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
        let s = m.scores(&[0.0, 0.0]);
        assert!((s[0] + s[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_boost_classifier_validation() {
        let single = Dataset::from_rows(vec![vec![1.0], vec![2.0]], vec![1.0, 1.0]).unwrap();
        assert_eq!(
            GradientBoostClassifier::fit(&single, &GradientBoostConfig::default()),
            Err(MlError::SingleClass)
        );
    }

    #[test]
    fn nan_feature_is_a_typed_error() {
        let ds = Dataset::from_rows(
            vec![vec![0.0, 1.0], vec![1.0, f64::NAN], vec![2.0, 3.0]],
            vec![0.0, 1.0, 1.0],
        )
        .unwrap();
        let nan = MlError::Numerical("NaN feature");
        assert_eq!(
            AdaBoost::fit(&ds, &AdaBoostConfig::default()),
            Err(nan.clone())
        );
        let config = GradientBoostConfig::default();
        assert_eq!(GradientBoostRegressor::fit(&ds, &config), Err(nan.clone()));
        assert_eq!(GradientBoostClassifier::fit(&ds, &config), Err(nan));
    }

    fn oracle_tree_config(config: &GradientBoostConfig) -> TreeConfig {
        TreeConfig {
            max_depth: config.max_depth,
            min_samples_split: 2,
        }
    }

    /// The boosted regressor as fitted before the shared presort: a copy of
    /// the features per stage and the quadratic-scan tree.
    fn oracle_regressor(ds: &Dataset, config: &GradientBoostConfig) -> GradientBoostRegressor {
        #[allow(clippy::cast_precision_loss)]
        let base = ds.targets().iter().sum::<f64>() / ds.len() as f64;
        let mut preds = vec![base; ds.len()];
        let mut trees = Vec::with_capacity(config.stages);
        for _ in 0..config.stages {
            let residuals: Vec<f64> = ds
                .targets()
                .iter()
                .zip(&preds)
                .map(|(y, p)| y - p)
                .collect();
            let stage_ds = Dataset::from_rows(ds.features().to_vec(), residuals).unwrap();
            let tree = RegressionTree::fit_quadratic(&stage_ds, &oracle_tree_config(config));
            for (p, row) in preds.iter_mut().zip(ds.features()) {
                *p += config.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        GradientBoostRegressor {
            base,
            learning_rate: config.learning_rate,
            trees,
        }
    }

    /// The boosted classifier as fitted before the shared presort.
    fn oracle_classifier(ds: &Dataset, config: &GradientBoostConfig) -> GradientBoostClassifier {
        let ys = ds.class_targets();
        let n_pos = ys.iter().filter(|&&y| y == 1).count();
        #[allow(clippy::cast_precision_loss)]
        let p0 = (n_pos as f64 / ys.len() as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_logit = (p0 / (1.0 - p0)).ln();
        let mut logits = vec![base_logit; ds.len()];
        let mut trees = Vec::with_capacity(config.stages);
        for _ in 0..config.stages {
            let grads: Vec<f64> = ys
                .iter()
                .zip(&logits)
                .map(|(&y, &z)| {
                    let p = 1.0 / (1.0 + (-z).exp());
                    #[allow(clippy::cast_precision_loss)]
                    {
                        y as f64 - p
                    }
                })
                .collect();
            let stage_ds = Dataset::from_rows(ds.features().to_vec(), grads).unwrap();
            let tree = RegressionTree::fit_quadratic(&stage_ds, &oracle_tree_config(config));
            for (z, row) in logits.iter_mut().zip(ds.features()) {
                *z += config.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        GradientBoostClassifier {
            base_logit,
            learning_rate: config.learning_rate,
            trees,
            n_features: ds.n_features(),
        }
    }

    fn ensemble_bits(base: f64, trees: &[RegressionTree]) -> Vec<u64> {
        let mut bits = vec![base.to_bits()];
        for tree in trees {
            bits.extend(tree.fingerprint());
        }
        bits
    }

    #[test]
    fn gradient_boosting_matches_quadratic_oracle() {
        let mut rng = Rng::from_seed(44);
        for _ in 0..400 {
            #[allow(clippy::cast_possible_truncation)]
            let config = GradientBoostConfig {
                stages: 1 + rng.below(8) as usize,
                learning_rate: *rng.choose(&[0.1, 0.3, 1.0]).unwrap(),
                max_depth: 1 + rng.below(4) as usize,
            };
            let reg = oracle::random_dataset(&mut rng, 0);
            let fast = GradientBoostRegressor::fit(&reg, &config).unwrap();
            let slow = oracle_regressor(&reg, &config);
            assert_eq!(
                ensemble_bits(fast.base, &fast.trees),
                ensemble_bits(slow.base, &slow.trees),
                "{config:?} {reg:?}"
            );
            let cls = oracle::random_dataset(&mut rng, 2);
            let fast = GradientBoostClassifier::fit(&cls, &config).unwrap();
            let slow = oracle_classifier(&cls, &config);
            assert_eq!(
                ensemble_bits(fast.base_logit, &fast.trees),
                ensemble_bits(slow.base_logit, &slow.trees),
                "{config:?} {cls:?}"
            );
        }
    }
}
