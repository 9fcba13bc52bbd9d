//! # LORI — Learning-Oriented Reliability Improvement
//!
//! Umbrella crate re-exporting the whole LORI workspace: a cross-layer,
//! learning-oriented reliability toolkit reproducing *"Learning-Oriented
//! Reliability Improvement of Computing Systems From Transistor to
//! Application Level"* (DATE 2023).
//!
//! The layers, bottom-up:
//!
//! - [`core`] — units, probability, RNG, reliability algebra, the Fig.-1
//!   learning-management loop.
//! - [`ml`] — from-scratch classical ML, MLPs, boosting, and tabular RL.
//! - [`hdc`] — hyperdimensional computing (robust brain-inspired inference).
//! - [`circuit`] — transistor aging and self-heating, standard-cell
//!   libraries, netlists, STA, and ML-based characterization (Sec. II).
//! - [`arch`] — architectural CPU simulation, register fault injection, ML
//!   vulnerability prediction, and selective protection (Sec. III).
//! - [`sys`] — multicore OS-level reliability management: DVFS and mapping
//!   knobs, thermal and lifetime models, RL managers (Sec. IV).
//! - [`ftsched`] — the paper's original Section V evaluation: checkpointing/
//!   rollback-recovery vs. cycle-noise mitigation, the "error rate wall".
//!
//! ```
//! use lori::core::units::{Cycles, Probability};
//! use lori::core::reliability::no_error_probability;
//!
//! # fn main() -> Result<(), lori::core::Error> {
//! let p = Probability::new(1e-6)?;
//! let survive = no_error_probability(p, Cycles(40_000));
//! assert!(survive.value() > 0.95);
//! # Ok(())
//! # }
//! ```

pub use lori_arch as arch;
pub use lori_circuit as circuit;
pub use lori_core as core;
pub use lori_ftsched as ftsched;
pub use lori_hdc as hdc;
pub use lori_ml as ml;
pub use lori_sys as sys;
