//! Error type for `lori-hdc`.

use std::fmt;

/// Errors produced by hypervector operations and HDC model training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdcError {
    /// Hypervector dimensionality must be positive.
    ZeroDimension,
    /// Two hypervectors had different dimensionalities, or a training row's
    /// length differs from the first row's.
    DimensionMismatch {
        /// Dimension of the left operand.
        left: usize,
        /// Dimension of the right operand.
        right: usize,
    },
    /// A training set was empty or otherwise unusable.
    EmptyTrainingSet,
    /// An encoder was configured with an invalid range or level count.
    InvalidEncoder(&'static str),
    /// Fewer than two classes were provided to a classifier.
    SingleClass,
}

impl fmt::Display for HdcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdcError::ZeroDimension => write!(f, "hypervector dimension must be positive"),
            HdcError::DimensionMismatch { left, right } => {
                write!(f, "hypervector dimensions differ: {left} vs {right}")
            }
            HdcError::EmptyTrainingSet => write!(f, "training set must not be empty"),
            HdcError::InvalidEncoder(what) => write!(f, "invalid encoder configuration: {what}"),
            HdcError::SingleClass => write!(f, "at least two classes are required"),
        }
    }
}

impl std::error::Error for HdcError {}
