//! # lori-circuit
//!
//! Device- and circuit-level reliability substrate for LORI, implementing
//! Sec. II of the paper:
//!
//! - [`tech`] — an alpha-power-law transistor/gate model with temperature
//!   and threshold-voltage dependence;
//! - [`aging`] — NBTI/HCI threshold-voltage degradation (ΔVth) models with
//!   workload (duty-cycle / activity) dependency;
//! - [`she`] — transistor self-heating (SHE): per-instance temperature rise
//!   above chip temperature as a function of drive strength, input slew,
//!   output load, and switching activity;
//! - [`lut`] — NLDM-style 2-D lookup tables with bilinear interpolation;
//! - [`cell`] — standard cells, timing arcs, and libraries (a generated
//!   library of ~59 cells, as in the paper's Fig. 2 RISC-V case study);
//! - [`spicelike`] — a deliberately time-stepped "golden" transient
//!   characterization engine standing in for foundry SPICE;
//! - [`characterize`] — golden library characterization at a corner, and
//!   the Fig. 3 trick of writing SHE temperatures *into the delay slots* of
//!   the library so a conventional STA run emits an SDF full of
//!   temperatures;
//! - [`netlist`] — gate-level netlists and two generators (a ripple-carry
//!   adder and a processor-scale datapath);
//! - [`sta`] — static timing analysis with per-instance cell overrides and
//!   SDF export;
//! - [`mlchar`] — ML-based on-the-fly characterization: train fast models on
//!   golden-model samples, then generate thousands of instance-specific
//!   cells in milliseconds (the paper's refs \[9\]–\[12\]);
//! - [`flow`] — the end-to-end SHE flow of Fig. 3 and guardband analysis.

pub mod aging;
pub mod cell;
pub mod characterize;
pub mod error;
pub mod flow;
pub mod lut;
pub mod mlchar;
pub mod netlist;
pub mod she;
pub mod spicelike;
pub mod sta;
pub mod tech;

pub use error::CircuitError;
