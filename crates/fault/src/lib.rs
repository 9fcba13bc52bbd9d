//! # lori-fault — placeholder, no items
//!
//! This crate used to hold a test-only fault-plan runtime: a process-global
//! plan, armed in-process by tests, that panicked, poisoned values with NaN
//! or flipped bits at named sites in the circuit, fault-tolerant-scheduling
//! and HDC layers. No `exp-*` binary armed a plan, so it was deleted. Each
//! guard that the plans exercised is now tested directly with bad input
//! (DESIGN §9), and the faults the paper models stay where they belong:
//! register bit flips in `lori-arch`'s campaigns and component errors in
//! `lori_hdc::noise`.
//!
//! The crate itself stays, empty, because the benchmark's lock file
//! (`benchmark/Cargo.lock`, built with `--locked`) pins its `lori-obs`
//! edge and the `lori-fault` edges of `lori-circuit`, `lori-ftsched`,
//! `lori-hdc`, `lori-par` and `lori-cache`. It goes with `lori-cache` in
//! the next change allowed to regenerate that lock.
