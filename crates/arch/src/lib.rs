//! # lori-arch
//!
//! Architectural reliability substrate for LORI, implementing Sec. III of
//! the paper:
//!
//! - [`isa`] — a small RISC-style instruction set;
//! - [`cpu`] — an architectural simulator executing one instruction per
//!   cycle over registers, a PC, and memory, plus optional shadow-register
//!   replication;
//! - [`workload`] — real little programs (matrix multiply, sort, checksum,
//!   dot product, Fibonacci) used as injection targets;
//! - [`fault`] — register bit-flip injection campaigns (the one fault
//!   model) with outcome classification (Masked / SDC / Crash / Hang /
//!   Detected);
//! - [`lane`] — a bit-parallel injection engine evaluating up to 64 trials
//!   per simulation pass, bit-identical to the scalar path;
//! - [`features`] — structural feature extraction for registers
//!   ("flip-flops") and instructions, feeding the ML predictors;
//! - [`predict`] — dataset builders for vulnerability prediction (the
//!   ref-\[20\] "train on 20 % of injections" experiment and the ref-\[24\]
//!   SDC-proneness experiment);
//! - [`protect`] — coverage and overhead of selective instruction
//!   replication (IPAS-style, ref \[27\]).

pub(crate) mod accel;
pub mod cpu;
pub mod error;
pub mod fault;
pub mod features;
pub mod isa;
pub mod lane;
pub mod predict;
pub mod protect;
pub mod workload;

pub use error::ArchError;
