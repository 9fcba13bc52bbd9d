//! Error type for `lori-arch`.

use lori_ml::MlError;
use std::fmt;

/// Errors produced by program construction, campaign configuration and
/// dataset assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// A register index was out of range.
    BadRegister(u8),
    /// A program was empty.
    EmptyProgram,
    /// A campaign was configured with zero trials.
    NoTrials,
    /// The rows a dataset builder assembled do not form a dataset.
    Dataset(MlError),
    /// A protection configuration referenced an instruction out of range.
    BadProtectionIndex(usize),
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::BadRegister(r) => write!(f, "register r{r} out of range"),
            ArchError::EmptyProgram => write!(f, "program must contain at least one instruction"),
            ArchError::NoTrials => write!(f, "campaign needs at least one trial"),
            ArchError::Dataset(e) => write!(f, "dataset assembly failed: {e}"),
            ArchError::BadProtectionIndex(i) => {
                write!(f, "protected instruction index {i} out of range")
            }
        }
    }
}

impl std::error::Error for ArchError {}
