//! # lori-core
//!
//! Shared substrate for the LORI (Learning-Oriented Reliability Improvement)
//! workspace: strongly-typed physical units, validated probabilities, seeded
//! reproducible randomness, running statistics, the paper's Eq. (1) and the
//! MWTF metric, and the generic learning-based reliability-management loop of
//! the paper's Fig. 1.
//!
//! Every stochastic component in LORI takes an explicit seed so that every
//! experiment in the workspace is reproducible bit-for-bit.
//!
//! ```
//! use lori_core::units::{Probability, Cycles};
//! use lori_core::reliability::no_error_probability;
//!
//! # fn main() -> Result<(), lori_core::Error> {
//! let p = Probability::new(1e-6)?;
//! // Eq. (1) of the paper: Pr(N_e = 0) = (1 - p)^n_c
//! let pr = no_error_probability(p, Cycles(100_000));
//! assert!(pr.value() < 1.0 && pr.value() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod mgmt;
pub mod reliability;
pub mod rng;
pub mod stats;
pub mod units;

pub use error::Error;
pub use rng::Rng;
