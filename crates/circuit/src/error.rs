//! Error type for `lori-circuit`.

use std::fmt;

/// Errors produced by circuit construction, characterization, and timing
/// analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A referenced cell name does not exist in the library.
    UnknownCell(String),
    /// A referenced net or instance id is out of range.
    DanglingReference {
        /// What kind of entity was referenced.
        what: &'static str,
        /// The offending index.
        index: usize,
    },
    /// The netlist contains a combinational cycle, so no topological order
    /// exists.
    CombinationalCycle,
    /// A characterization grid was empty or not strictly increasing.
    InvalidGrid(&'static str),
    /// A parameter was outside its physical domain.
    InvalidParameter {
        /// Parameter name.
        what: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A net has no driver (floating input to some instance).
    FloatingNet(usize),
    /// The ML characterization model failed to train.
    Training(String),
    /// A computation produced a non-finite value that a layer-boundary
    /// guard caught: `circuit.lut` in STA, `circuit.characterize` in
    /// library characterization or `circuit.mlchar` in ML training.
    NonFinite {
        /// Guard site that caught the value.
        site: &'static str,
        /// Name of the non-finite quantity.
        what: &'static str,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::UnknownCell(name) => write!(f, "unknown cell: {name}"),
            CircuitError::DanglingReference { what, index } => {
                write!(f, "dangling {what} reference: {index}")
            }
            CircuitError::CombinationalCycle => {
                write!(f, "netlist contains a combinational cycle")
            }
            CircuitError::InvalidGrid(what) => write!(f, "invalid characterization grid: {what}"),
            CircuitError::InvalidParameter { what, value } => {
                write!(f, "parameter {what} out of domain: {value}")
            }
            CircuitError::FloatingNet(id) => write!(f, "net {id} has no driver"),
            CircuitError::Training(msg) => write!(f, "ml characterization training failed: {msg}"),
            CircuitError::NonFinite { site, what } => {
                write!(f, "non-finite {what} detected at {site}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}
