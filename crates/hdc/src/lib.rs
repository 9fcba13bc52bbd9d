//! # lori-hdc
//!
//! Hyperdimensional computing (HDC) for the LORI workspace.
//!
//! Sec. II of the paper presents HDC as a brain-inspired algorithm that keeps
//! working on unreliable hardware: instead of fault-sensitive matrix
//! multiplications, inference is a similarity comparison between hypervectors
//! with thousands of i.i.d. components, so even ~40 % component error rates
//! cost only a fraction of a percent of accuracy. The paper also describes
//! HDC models that *mimic confidential physics-based aging models*
//! (waveform → ΔVth) so foundries can share predictive power without sharing
//! physics (ref \[18\]).
//!
//! This crate provides:
//!
//! - [`hypervector`] — bit-packed binary hypervectors (XOR bind, majority
//!   bundle, Hamming similarity) and bipolar hypervectors (sign algebra,
//!   cosine similarity);
//! - [`encoder`] — level (thermometer) encoding for continuous values and
//!   record-based encoding of feature vectors;
//! - [`classifier`] — a prototype-bundling classifier with perceptron-style
//!   retraining;
//! - [`regressor`] — similarity-weighted regression used to mimic aging
//!   models;
//! - [`noise`] — component-error injection for robustness experiments (E5).
//!
//! ```
//! use lori_hdc::hypervector::BinaryHv;
//! use lori_core::Rng;
//!
//! let mut rng = Rng::from_seed(1);
//! let a = BinaryHv::random(4096, &mut rng);
//! let b = BinaryHv::random(4096, &mut rng);
//! // Random hypervectors are quasi-orthogonal: similarity ~ 0.5.
//! assert!((a.similarity(&b) - 0.5).abs() < 0.05);
//! // Binding is self-inverse.
//! assert_eq!(a.bind(&b).bind(&b), a);
//! ```

pub mod classifier;
pub mod encoder;
pub mod error;
pub mod hypervector;
pub mod noise;
#[cfg(test)]
mod oracle;
pub mod regressor;

pub use error::HdcError;
