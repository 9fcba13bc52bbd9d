//! The LORI reproduction benchmark.
//!
//! Four workloads mirror the `exp-*` binaries that regenerate the paper's
//! figures. Each repetition runs in a fresh child process, so process-wide
//! caches start cold as they do for a user running a binary. The parent
//! times the child from the outside (wall, set-up); the child reports its
//! CPU time, peak memory, headline values and, when traced, the spans it
//! recorded around every call into a layer crate.

pub mod checks;
pub mod stats;
pub mod trace;
pub mod workloads;
