//! k-nearest-neighbour classification.
//!
//! The paper cites kNN as one of the "simple ML models" used to predict
//! flip-flop vulnerability from structural features (Sec. III-B.1, ref \[20\]).

use crate::data::{squared_distance, Dataset};
use crate::error::MlError;
use crate::traits::{Classifier, ProbabilisticClassifier};

/// A fitted (memorized) k-nearest-neighbour classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Knn {
    data: Dataset,
    classes: Vec<usize>,
    n_classes: usize,
    k: usize,
}

impl Knn {
    /// Stores the training set for lazy prediction.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] if `k` is zero or exceeds
    /// the sample count.
    pub fn fit(ds: &Dataset, k: usize) -> Result<Self, MlError> {
        if k == 0 || k > ds.len() {
            return Err(MlError::InvalidHyperparameter("k"));
        }
        let classes = ds.class_targets();
        let n_classes = ds.n_classes().max(1);
        Ok(Knn {
            data: ds.clone(),
            classes,
            n_classes,
            k,
        })
    }

    /// Indices of the `k` nearest training samples to `x`.
    fn neighbours(&self, x: &[f64]) -> Vec<usize> {
        let mut dists: Vec<(usize, f64)> = self
            .data
            .features()
            .iter()
            .enumerate()
            .map(|(i, row)| (i, squared_distance(row, x)))
            .collect();
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN distance"));
        dists.truncate(self.k);
        dists.into_iter().map(|(i, _)| i).collect()
    }
}

impl Classifier for Knn {
    /// Majority vote among the `k` nearest neighbours; ties resolve to the
    /// smallest class index.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    fn predict(&self, x: &[f64]) -> usize {
        crate::tree::argmax(&self.scores(x))
    }
}

impl ProbabilisticClassifier for Knn {
    fn scores(&self, x: &[f64]) -> Vec<f64> {
        let mut votes = vec![0.0f64; self.n_classes];
        for i in self.neighbours(x) {
            votes[self.classes[i]] += 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let k = self.k as f64;
        for v in &mut votes {
            *v /= k;
        }
        votes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Dataset {
        Dataset::from_rows(
            vec![
                vec![0.0, 0.0],
                vec![0.5, 0.1],
                vec![0.1, 0.4],
                vec![5.0, 5.0],
                vec![5.2, 4.9],
                vec![4.8, 5.1],
            ],
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        )
        .unwrap()
    }

    #[test]
    fn classifies_blobs() {
        let knn = Knn::fit(&blobs(), 3).unwrap();
        assert_eq!(knn.predict(&[0.2, 0.2]), 0);
        assert_eq!(knn.predict(&[5.0, 5.0]), 1);
    }

    #[test]
    fn k_validation() {
        let ds = blobs();
        assert!(Knn::fit(&ds, 0).is_err());
        assert!(Knn::fit(&ds, 7).is_err());
        assert!(Knn::fit(&ds, 6).is_ok());
    }

    #[test]
    fn scores_are_vote_fractions() {
        let knn = Knn::fit(&blobs(), 3).unwrap();
        let s = knn.scores(&[0.2, 0.2]);
        assert_eq!(s, vec![1.0, 0.0]);
        let sum: f64 = knn.scores(&[2.5, 2.5]).iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_equal_n_predicts_majority() {
        let knn = Knn::fit(&blobs(), 6).unwrap();
        // All points vote; tie 3-3 resolves to class 0.
        assert_eq!(knn.predict(&[2.5, 2.5]), 0);
    }

    #[test]
    fn one_nn_memorizes() {
        let ds = blobs();
        let knn = Knn::fit(&ds, 1).unwrap();
        for (row, &t) in ds.features().iter().zip(ds.targets()) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let expect = t as usize;
            assert_eq!(knn.predict(row), expect);
        }
    }
}
