//! Error type for `lori-ml`.

use std::fmt;

/// Errors produced by dataset construction and model fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// The dataset has no samples.
    EmptyDataset,
    /// Rows have inconsistent feature counts.
    RaggedRows {
        /// Expected feature count (from the first row).
        expected: usize,
        /// Feature count of the offending row.
        found: usize,
        /// Index of the offending row.
        row: usize,
    },
    /// Feature and target counts differ.
    TargetMismatch {
        /// Number of feature rows.
        features: usize,
        /// Number of targets.
        targets: usize,
    },
    /// A hyper-parameter was invalid.
    InvalidHyperparameter(&'static str),
    /// The model requires at least two distinct classes.
    SingleClass,
    /// Numerical failure (e.g. singular matrix in the normal equations).
    Numerical(&'static str),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyDataset => write!(f, "dataset must contain at least one sample"),
            MlError::RaggedRows {
                expected,
                found,
                row,
            } => write!(
                f,
                "row {row} has {found} features but {expected} were expected"
            ),
            MlError::TargetMismatch { features, targets } => write!(
                f,
                "feature rows ({features}) and targets ({targets}) differ in count"
            ),
            MlError::InvalidHyperparameter(name) => {
                write!(f, "invalid hyper-parameter: {name}")
            }
            MlError::SingleClass => write!(f, "training data contains a single class"),
            MlError::Numerical(what) => write!(f, "numerical failure: {what}"),
        }
    }
}

impl std::error::Error for MlError {}
