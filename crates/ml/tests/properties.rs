//! Property-based tests for the ML substrate.

use lori_core::Rng;
use lori_ml::data::{Dataset, StandardScaler};
use lori_ml::knn::Knn;
use lori_ml::linreg::LinearRegression;
use lori_ml::metrics::{accuracy, f1_score, mse, precision, r2, recall};
use lori_ml::traits::{Classifier, Regressor};
use lori_ml::tree::{DecisionTree, TreeConfig};
use proptest::prelude::*;

fn arb_dataset(max_n: usize, d: usize) -> impl Strategy<Value = Dataset> {
    proptest::collection::vec(
        (proptest::collection::vec(-100.0f64..100.0, d), 0.0f64..2.0),
        2..max_n,
    )
    .prop_map(|rows| {
        let (xs, ys): (Vec<_>, Vec<_>) = rows.into_iter().map(|(x, y)| (x, y.round())).unzip();
        Dataset::from_rows(xs, ys).expect("valid by construction")
    })
}

proptest! {
    /// Accuracy is always in [0, 1] and equals 1 iff predictions match.
    #[test]
    fn accuracy_bounds(labels in proptest::collection::vec(0usize..4, 1..50)) {
        let acc = accuracy(&labels, &labels).unwrap();
        prop_assert!((acc - 1.0).abs() < 1e-12);
    }

    /// Precision/recall/F1 stay within [0, 1].
    #[test]
    fn prf_bounds(pairs in proptest::collection::vec((0usize..2, 0usize..2), 1..60)) {
        let (t, p): (Vec<usize>, Vec<usize>) = pairs.into_iter().unzip();
        for m in [precision(&t, &p, 1).unwrap(), recall(&t, &p, 1).unwrap(),
                  f1_score(&t, &p, 1).unwrap()] {
            prop_assert!((0.0..=1.0).contains(&m));
        }
    }

    /// MSE is zero iff predictions equal targets; r2 of exact fit is 1.
    #[test]
    fn perfect_fit_metrics(ys in proptest::collection::vec(-50.0f64..50.0, 2..50)) {
        prop_assert!(mse(&ys, &ys).unwrap() < 1e-20);
        prop_assert!((r2(&ys, &ys).unwrap() - 1.0).abs() < 1e-9);
    }

    /// StandardScaler output always has |mean| ≈ 0 per feature.
    #[test]
    fn scaler_centers(ds in arb_dataset(40, 3)) {
        let sc = StandardScaler::fit(&ds).unwrap();
        let t = sc.transform(&ds);
        for j in 0..t.n_features() {
            let mean: f64 = t.features().iter().map(|r| r[j]).sum::<f64>()
                / t.len() as f64;
            prop_assert!(mean.abs() < 1e-8, "feature {j} mean {mean}");
        }
    }

    /// 1-NN always reproduces its training labels exactly.
    #[test]
    fn one_nn_memorizes(ds in arb_dataset(30, 2)) {
        // Deduplicate identical feature rows to avoid genuine ties.
        let mut seen: Vec<&Vec<f64>> = Vec::new();
        let distinct = ds.features().iter().all(|r| {
            if seen.contains(&r) { false } else { seen.push(r); true }
        });
        prop_assume!(distinct);
        let knn = Knn::fit(&ds, 1).unwrap();
        for (row, &t) in ds.features().iter().zip(ds.targets()) {
            prop_assert_eq!(knn.predict(row), t as usize);
        }
    }

    /// Linear regression on exactly-linear data recovers it (via prediction).
    #[test]
    fn linreg_interpolates_linear(w0 in -5.0f64..5.0, w1 in -5.0f64..5.0, b in -5.0f64..5.0,
                                  seed in 0u64..100) {
        let mut rng = Rng::from_seed(seed);
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|_| vec![rng.uniform_in(-10.0, 10.0), rng.uniform_in(-10.0, 10.0)])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| w0 * r[0] + w1 * r[1] + b).collect();
        let ds = Dataset::from_rows(rows, ys).unwrap();
        if let Ok(m) = LinearRegression::fit(&ds, 0.0) {
            let q = [3.3, -4.4];
            let expect = w0 * q[0] + w1 * q[1] + b;
            prop_assert!((m.predict(&q) - expect).abs() < 1e-5,
                         "{} vs {expect}", m.predict(&q));
        }
    }

    /// A decision tree never predicts a class index outside the training range.
    #[test]
    fn tree_predicts_known_classes(ds in arb_dataset(40, 2), q in proptest::collection::vec(-200.0f64..200.0, 2)) {
        let classes = ds.class_targets();
        prop_assume!(classes.contains(&0) && classes.contains(&1));
        let tree = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        let pred = tree.predict(&q);
        prop_assert!(pred < ds.n_classes());
    }

    /// Dataset split preserves every sample exactly once.
    #[test]
    fn split_is_partition(ds in arb_dataset(40, 2), seed in 0u64..50) {
        let mut rng = Rng::from_seed(seed);
        let (tr, te) = ds.split(0.7, &mut rng).unwrap();
        prop_assert_eq!(tr.len() + te.len(), ds.len());
        // Multiset equality on targets as a cheap proxy.
        let mut a: Vec<f64> = tr.targets().iter().chain(te.targets()).copied().collect();
        let mut b = ds.targets().to_vec();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        prop_assert_eq!(a, b);
    }
}
