//! # lori-fault — deterministic cross-layer fault injection for LORI
//!
//! The paper's thesis is that reliable systems must tolerate faults
//! injected at every abstraction level; this crate applies that standard
//! to the reproduction itself. Three pieces, all hand-rolled on `std`:
//!
//! 1. **Fault plans** ([`FaultPlan`]): parsed from the `LORI_FAULT_PLAN`
//!    environment variable (e.g. `panic@sweep.point:17`,
//!    `nan@circuit.lut:rate=1e-3`, `bitflip@checkpoint.state:seed=9`).
//!    A plan arms one or more *injection sites* — named points in the
//!    simulation stack that consult the plan before doing their real work.
//! 2. **Injection sites** ([`check_panic`], [`poison_f64`],
//!    [`corrupt_bytes`], [`flip_bit`]): with no plan active every site
//!    costs one relaxed atomic load, so they are safe inside Monte Carlo
//!    inner loops. Injection decisions are pure functions of
//!    `(directive seed, site, hit index)`, so single-threaded runs inject
//!    at exactly the same operations every time; index-addressed panics
//!    (`panic@site:N`) are deterministic under any `LORI_THREADS`.
//! 3. **Crash-safe results** ([`wal`]): a checksummed write-ahead log for
//!    per-item experiment results plus temp-file + atomic-rename helpers,
//!    so a killed run can resume and produce byte-identical artifacts.
//!
//! Injections and detections are counted through `lori-obs` under the
//! `fault.injected` / `fault.detected` metric names; the recovery layer in
//! `lori-par` adds `fault.quarantined` / `fault.retried`. All four land in
//! every run manifest automatically.

#![warn(missing_docs)]

pub mod inject;
pub mod plan;
pub mod wal;

pub use inject::{
    activate, active, check_panic, clear, corrupt_bytes, detected, flip_bit, init_from_env,
    poison_f64, PlanGuard, SITES,
};
pub use plan::{Directive, FaultKind, FaultPlan, PlanError};
pub use wal::{atomic_write, fnv64, replay, WalReplay, WalWriter};

/// Metric name for injections that actually fired.
pub const METRIC_INJECTED: &str = "fault.injected";
/// Metric name for faults caught by a guard (NaN check, checksum).
pub const METRIC_DETECTED: &str = "fault.detected";
/// Metric name for tasks that exhausted retries under quarantine.
pub const METRIC_QUARANTINED: &str = "fault.quarantined";
/// Metric name for deterministic task retries under quarantine.
pub const METRIC_RETRIED: &str = "fault.retried";
