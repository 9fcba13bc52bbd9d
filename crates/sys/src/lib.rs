//! # lori-sys
//!
//! OS/system-level reliability substrate for LORI, implementing Sec. IV of
//! the paper: two of its three optimization knobs, task-to-core mapping and
//! DVFS, exercised on a simulated multicore platform with power, thermal,
//! soft-error, and lifetime models — and learning-based run-time managers
//! on top. The third knob, DPM, is surveyed in Sec. IV but measured by no
//! experiment, so it is not reproduced.
//!
//! - [`platform`] — cores, V-f operating points, power model;
//! - [`task`] — periodic real-time tasks and task-set generation (UUniFast);
//! - [`thermal`] — a lumped RC thermal network with core-to-core coupling;
//! - [`ser`] — soft-error rate as a function of supply voltage (lowering
//!   V-f raises SER — the paper's central DVFS trade-off);
//! - [`mttf`] — device-level lifetime models (EM, TDDB, TC, NBTI, HCI),
//!   which the simulator combines by summing failure rates;
//! - [`sched`] — a quantum-based multicore simulator: EDF per core, static
//!   mapping, global V-f levels, deadline accounting;
//! - [`mapping`] — heterogeneous task mapping and the MWTF metric (ref \[2\]);
//! - [`manager`] — the Fig.-1 loop instantiated: an RL environment whose
//!   actions are global V-f levels and whose reward trades energy, deadline
//!   misses, SER, and lifetime;
//! - [`replication`] — adaptive replica management (Sec. IV-A.4): majority
//!   voting reliability and a learned ambient-fault-rate estimator;
//! - [`mixed_criticality`] — the Sec. VI-B open challenge implemented:
//!   LO/HI-mode EDF with reactive and learned proactive mode switching.

pub mod error;
pub mod manager;
pub mod mapping;
pub mod mixed_criticality;
pub mod mttf;
pub mod platform;
pub mod replication;
pub mod sched;
pub mod ser;
pub mod task;
pub mod thermal;

pub use error::SysError;
