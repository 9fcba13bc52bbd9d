//! # lori-report — trace analysis and run checks for LORI
//!
//! The read side of `lori-obs`: every run writes `.events.jsonl` and
//! `.manifest.json` artifacts, and this crate turns them back into
//! answers. Two pieces, both on `std` only:
//!
//! 1. **Profiling** ([`profile`]): reconstructs span trees from an event
//!    stream — validating nesting, depths, span ids, and timestamp
//!    monotonicity as it goes — then stitches worker-thread trees under
//!    their recorded parent spans via trace-context ids, so a parallel
//!    sweep profiles as one causal tree. Aggregates per-span-name
//!    wall/self time, call counts, exact p50/p95 (through
//!    `lori_core::stats::percentile`) and max durations, the critical
//!    path (which may cross threads), and flamegraph folded stacks.
//!    Deterministic: same input, byte-identical output.
//! 2. **Sanity checks** ([`check`]): scans a manifest and its event stream
//!    for values that cannot be true — non-finite metrics, phase times
//!    exceeding the run's wall time, unbalanced event streams, orphan
//!    spans whose recorded parent never appears (broken trace-context
//!    propagation), and counters implying physically impossible rates.
//!
//! The library reads no environment: the `lori-report` binary resolves the
//! results directory and exposes both as subcommands (`profile <name>`,
//! `check <name>`).

#![warn(missing_docs)]

pub mod check;
pub mod error;
pub mod profile;

pub use check::{check_run, CheckReport};
pub use error::ReportError;
pub use profile::{build_profile, parse_events, OrphanSpan, ParsedEvents, Profile, SpanNode};
