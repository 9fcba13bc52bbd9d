//! # lori-report — trace analysis and perf gating for LORI
//!
//! The read side of `lori-obs`: every run writes `.events.jsonl`,
//! `.manifest.json`, and `BENCH_*.json` artifacts, and this crate turns
//! them back into answers. Three pieces, all on `std` only:
//!
//! 1. **Profiling** ([`profile`]): reconstructs span trees from an event
//!    stream — validating nesting, depths, span ids, and timestamp
//!    monotonicity as it goes — then stitches worker-thread trees under
//!    their recorded parent spans via trace-context ids, so a parallel
//!    sweep profiles as one causal tree. Aggregates per-span-name
//!    wall/self time, call counts, p50/p95/max durations, the critical
//!    path (which may cross threads), and flamegraph folded stacks.
//!    Deterministic: same input, byte-identical output.
//! 2. **Diffing & gating** ([`diff`]): flattens two JSON records to
//!    dotted-path metric maps and compares them; with `--gate <pct>` it
//!    fails on wall-time or throughput regressions past the threshold,
//!    downgrading to warnings when the records' `cores` fields say the
//!    machines are not comparable.
//! 3. **Sanity checks** ([`check`]): scans a manifest and its event stream
//!    for values that cannot be true — non-finite metrics, phase times
//!    exceeding the run's wall time, unbalanced event streams, orphan
//!    spans whose recorded parent never appears (broken trace-context
//!    propagation), and counters implying physically impossible rates.
//!
//! The `lori-report` binary exposes all three as subcommands
//! (`profile <name>`, `diff <base> <cur> [--gate <pct>]`, `check <name>`).

#![warn(missing_docs)]

pub mod check;
pub mod diff;
pub mod error;
pub mod profile;

pub use check::{check_run, CheckReport};
pub use diff::{diff, flatten, DiffReport};
pub use error::ReportError;
pub use profile::{build_profile, parse_events, OrphanSpan, ParsedEvents, Profile, SpanNode};

use std::path::{Path, PathBuf};

/// The results directory: `$LORI_RESULTS_DIR` when set, else `results/`.
/// Mirrors `lori-bench`'s convention so the CLI finds what the harness
/// wrote without extra flags.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("LORI_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Atomic file replace (same-directory temp + rename): readers never see a
/// partial profile, and a crash never corrupts an existing artifact.
///
/// # Errors
///
/// Propagates filesystem errors from the write or the rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}
