//! # lori-ml
//!
//! A from-scratch machine-learning substrate for the LORI workspace.
//!
//! The paper surveys learning-based reliability techniques built on the
//! model families implemented here, and the experiments use each of them:
//! k-nearest neighbours and SVMs for flip-flop vulnerability prediction,
//! naive Bayes / MLPs / boosted ensembles for fault-outcome modeling,
//! decision trees for error-pattern mining, linear regression for learned
//! cycle budgets, and tabular Q-learning for run-time DVFS/DPM/mapping
//! managers.
//!
//! Nothing here depends on an external ML ecosystem; every model is
//! implemented directly on `Vec<f64>` rows with seeded, reproducible
//! training.
//!
//! ```
//! use lori_ml::data::Dataset;
//! use lori_ml::knn::Knn;
//! use lori_ml::traits::Classifier;
//!
//! # fn main() -> Result<(), lori_ml::MlError> {
//! let ds = Dataset::from_rows(
//!     vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![5.0, 5.0], vec![5.1, 5.0]],
//!     vec![0.0, 0.0, 1.0, 1.0],
//! )?;
//! let knn = Knn::fit(&ds, 1)?;
//! assert_eq!(knn.predict(&[0.05, 0.0]), 0);
//! assert_eq!(knn.predict(&[5.05, 5.0]), 1);
//! # Ok(())
//! # }
//! ```

pub mod boost;
pub mod data;
pub mod error;
pub mod knn;
pub mod linreg;
pub mod metrics;
pub mod mlp;
pub mod naive_bayes;
pub mod rl;
pub mod svm;
pub mod traits;
pub mod tree;

pub use error::MlError;
