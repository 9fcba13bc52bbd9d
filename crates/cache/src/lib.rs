//! # lori-cache — placeholder, no items
//!
//! This crate used to memoize `GoldenSimulator::characterize` behind a
//! content-addressed key, in memory and on disk. Across the 18 `exp-*`
//! binaries it served 0 hits in 18,764 golden lookups, so it was deleted;
//! the golden model now runs its transient integration on every call.
//!
//! The crate itself stays, empty, because the benchmark's lock file
//! (`benchmark/Cargo.lock`, built with `--locked`) pins the
//! `lori-circuit → lori-cache → {lori-fault, lori-obs}` dependency edges.
//! It goes with the next change allowed to regenerate that lock.
