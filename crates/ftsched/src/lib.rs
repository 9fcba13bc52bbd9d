//! # lori-ftsched
//!
//! The paper's original Section-V evaluation: reliability analysis of a
//! fault-tolerant, timing-guaranteed system where a **checkpointing and
//! rollback-recovery** mechanism (functional correctness) collaborates with
//! a **cycle-noise mitigation** mechanism (timing guarantees). Four
//! experiments run it: E3 (`exp-fig5`), E4 (`exp-fig6`), E13
//! (`exp-wall-sensitivity`) and E14 (`exp-learned-budgets`).
//!
//! - [`error_model`] — the register-level error model: a cycle is erroneous
//!   with static probability `p`; Eq. (1) `Pr(N_e = 0) = (1−p)^{n_c}` and
//!   the geometric rollback distribution of Eq. (2);
//! - [`checkpoint`] — the checkpoint (100 cycles) / rollback (48 cycles)
//!   timing model with unbounded re-computation, and the segment plan that
//!   samples a segment's rollbacks;
//! - [`workload`] — the ADPCM-like segment trace (segments of 40 k–270 k
//!   cycles, the paper's reported segmentation of the TACLeBench ADPCM
//!   lower sub-band quantization block on the Ariane core);
//! - [`mitigation`] — the four budget algorithms: DS (dynamic-scenario,
//!   most aggressive), DS 1.5×, DS 2×, and WCET (most conservative), and
//!   the cumulative deadline tracker;
//! - [`montecarlo`] — the 100-runs-per-point Monte Carlo harness producing
//!   Fig. 5 (average rollbacks per segment vs p) and Fig. 6 (deadline hit
//!   rate vs p);
//! - [`analytic`] — closed-form hit-probability and overhead cross-checks
//!   for the Monte Carlo (geometric-distribution algebra);
//! - [`wall`] — error-rate-wall localisation and the parameter-sensitivity
//!   study the paper lists as future work (E13);
//! - [`learning`] — a learned execution-time predictor that adapts DS
//!   budgets online (the paper's suggested learning-based optimisation of
//!   cycle-noise mitigation, E14).
//!
//! The paper's constants are constants (`CHECKPOINT_CYCLES`,
//! `ROLLBACK_CYCLES`, `DS_MARGIN`, `DEFAULT_MAX_SPEEDUP`); a
//! [`montecarlo::SweepConfig`] holds the two parameters E13 varies, speed
//! headroom and checkpoint granularity, besides its run count and seed.

pub mod analytic;
pub mod checkpoint;
pub mod error;
pub mod error_model;
pub mod learning;
pub mod mitigation;
pub mod montecarlo;
pub mod wall;
pub mod workload;

pub use error::FtError;
