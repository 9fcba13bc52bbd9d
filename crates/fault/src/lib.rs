//! # lori-fault — deterministic cross-layer fault injection for LORI's tests
//!
//! The paper's thesis is that reliable systems must tolerate faults
//! injected at every abstraction level; this crate applies that standard
//! to the reproduction itself. Fault injection is test-only: the `exp-*`
//! binaries never arm a plan, and tests arm one in-process with
//! [`activate`]. Two pieces, both hand-rolled on `std`:
//!
//! 1. **Fault plans** ([`FaultPlan`]): parsed from text such as
//!    `panic@sweep.point:17`, `nan@circuit.lut:rate=1e-3` or
//!    `bitflip@checkpoint.state:seed=9`. A plan arms one or more
//!    *injection sites*: named points in the simulation stack that consult
//!    the plan before doing their real work. The sites are `sweep.point`
//!    (ftsched Monte Carlo, one unit per probability point),
//!    `checkpoint.state` (serialized checkpoint bytes), `circuit.lut`
//!    (every `Lut2d::lookup` result), `circuit.characterize` (one unit per
//!    cell), `circuit.mlchar` (golden training samples) and `hdc.encoder`
//!    (encoded hypervectors).
//! 2. **Injection sites** ([`check_panic`], [`poison_f64`],
//!    [`corrupt_bytes`], [`flip_bit`]): with no plan active every site
//!    costs one relaxed atomic load, so they are safe inside Monte Carlo
//!    inner loops. Injection decisions are pure functions of
//!    `(directive seed, site, hit index)`, so single-threaded runs inject
//!    at exactly the same operations every time; index-addressed panics
//!    (`panic@site:N`) are deterministic at any worker count.
//!
//! Injections and detections are counted through `lori-obs` under the
//! `fault.injected` / `fault.detected` metric names.

#![warn(missing_docs)]

pub mod inject;
pub mod plan;

pub use inject::{
    activate, active, check_panic, clear, corrupt_bytes, detected, flip_bit, poison_f64, PlanGuard,
};
pub use plan::{Directive, FaultKind, FaultPlan, PlanError};

/// Metric name for injections that actually fired.
pub const METRIC_INJECTED: &str = "fault.injected";
/// Metric name for faults caught by a guard (NaN check, checksum).
pub const METRIC_DETECTED: &str = "fault.detected";

/// FNV-1a 64-bit over arbitrary bytes: the checkpoint checksum and the
/// injection-decision hash. Stable across platforms and runs.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
