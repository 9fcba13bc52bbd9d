//! The `LORI_PROGRESS` heartbeat, re-exported from `lori-obs`.
//!
//! Progress tracking lives in `lori-obs` so instrumented library code
//! (circuit characterization, ML training, HDC encoding) can emit
//! heartbeats without depending on the bench harness. This module stays
//! as a re-export to keep `lori_bench::Progress` call sites working.

pub use lori_obs::progress::{progress_enabled, Progress};
