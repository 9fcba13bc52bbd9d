//! Error type for `lori-ftsched`.

use std::fmt;

/// Errors produced by model configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum FtError {
    /// A probability was outside `[0, 1]`.
    BadProbability(f64),
    /// A cycle count or parameter that must be positive was not.
    NonPositive {
        /// Parameter name.
        what: &'static str,
        /// Offending value.
        value: f64,
    },
    /// An empty workload trace was supplied.
    EmptyTrace,
    /// A sweep was configured with no probability points or zero runs.
    EmptySweep(&'static str),
    /// A computation produced a non-finite value. `site` names the guard
    /// that caught it (`sweep.point`, the Monte Carlo sweep's per-point
    /// statistics) and `what` the quantity.
    NonFinite {
        /// Guard site that caught the value.
        site: &'static str,
        /// Name of the non-finite quantity.
        what: &'static str,
    },
}

impl fmt::Display for FtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtError::BadProbability(p) => write!(f, "probability {p} outside [0, 1]"),
            FtError::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            FtError::EmptyTrace => write!(f, "workload trace must not be empty"),
            FtError::EmptySweep(what) => write!(f, "sweep needs at least one {what}"),
            FtError::NonFinite { site, what } => {
                write!(f, "non-finite {what} detected at {site}")
            }
        }
    }
}

impl std::error::Error for FtError {}
