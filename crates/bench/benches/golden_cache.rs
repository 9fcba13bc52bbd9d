//! Golden-model memoization payoff: the fixed workload is a full 60-cell
//! `characterize_library` plus an `mlchar::train` over every cell, timed
//! against an empty cache (cold) and a fully populated one (warm). Emits
//! `results/BENCH_cache.json`, the machine-readable perf-trajectory
//! record.
//!
//! Bit-identity is asserted, not assumed: before timing, the workload runs
//! with the cache off, cold, and warm, and the libraries and trained models
//! are compared `==`.
//!
//! `LORI_BENCH_SMOKE=1` skips the criterion sampling loops (CI runs it that
//! way) but still performs the identity checks, the timed cold/warm passes,
//! and the record write.

use criterion::{black_box, BenchmarkId, Criterion};
use lori_bench::harness::results_dir;
use lori_bench::{write_bench_cache, CacheTiming};
use lori_cache::{Cache, CacheMode};
use lori_circuit::cell::CellId;
use lori_circuit::characterize::{characterize_library_par, Corner};
use lori_circuit::mlchar::{MlCharConfig, MlCharacterizer};
use lori_circuit::spicelike::{ArcTiming, GoldenSimulator};
use lori_circuit::tech::TechParams;
use lori_circuit::{cell::Library, CircuitError};
use lori_par::Parallelism;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Training config for the cache benchmark: golden sampling (cacheable)
/// must dominate model fitting (not cacheable), so the measured speedup
/// reflects the memoization layer rather than GBT fitting cost. The full
/// default 60-cell library is still characterized and trained on.
fn bench_ml_config() -> MlCharConfig {
    MlCharConfig {
        samples_per_cell: 120,
        stages: 6,
        max_depth: 2,
        ..MlCharConfig::default()
    }
}

fn workload(
    sim: &GoldenSimulator,
    cfg: &MlCharConfig,
    par: Parallelism,
) -> Result<(Library, MlCharacterizer), CircuitError> {
    let corner = Corner::default();
    let lib = characterize_library_par(sim, &corner, par)?;
    let cells: Vec<CellId> = lib.iter().map(|(id, _)| id).collect();
    let ml = MlCharacterizer::train_with(sim, &lib, &cells, cfg, par)?;
    Ok((lib, ml))
}

fn smoke_mode() -> bool {
    std::env::var("LORI_BENCH_SMOKE").is_ok_and(|v| !matches!(v.as_str(), "" | "0" | "false"))
}

/// The cache mode under measurement: `LORI_CACHE` if it names a caching
/// mode, else `mem`. (`off` would make cold == warm — there would be
/// nothing to measure — so it is promoted to `mem` here.)
fn measured_mode() -> CacheMode {
    match CacheMode::from_env() {
        CacheMode::Off => CacheMode::Mem,
        m => m,
    }
}

fn fresh_cached_sim(mode: &CacheMode) -> (GoldenSimulator, Arc<Cache<ArcTiming>>) {
    let cache = Arc::new(Cache::new(mode.clone()));
    let sim =
        GoldenSimulator::with_cache(TechParams::default(), Arc::clone(&cache)).expect("simulator");
    (sim, cache)
}

fn main() {
    let par = Parallelism::new(lori_par::global().threads().max(2));
    let cfg = bench_ml_config();
    let mode = measured_mode();
    let golden_calls = 2160 + 60 * cfg.samples_per_cell; // 6×6 grid ×60 + samples

    // Reference: cache off entirely.
    let off_sim =
        GoldenSimulator::with_cache(TechParams::default(), Arc::new(Cache::new(CacheMode::Off)))
            .expect("simulator");
    let (lib_off, ml_off) = workload(&off_sim, &cfg, par).expect("off workload");

    // Cold pass: a fresh cache, every golden call computes and stores.
    let (cached_sim, cache) = fresh_cached_sim(&mode);
    let t0 = Instant::now();
    let (lib_cold, ml_cold) = black_box(workload(&cached_sim, &cfg, par).expect("cold workload"));
    let cold_wall = t0.elapsed().as_secs_f64();
    let after_cold = cache.stats();
    assert_eq!(lib_off, lib_cold, "cold cache changed library bytes");
    assert_eq!(ml_off, ml_cold, "cold cache changed trained models");

    // Warm pass: identical workload, same cache.
    let t0 = Instant::now();
    let (lib_warm, ml_warm) = black_box(workload(&cached_sim, &cfg, par).expect("warm workload"));
    let warm_wall = t0.elapsed().as_secs_f64();
    let after_warm = cache.stats();
    assert_eq!(lib_off, lib_warm, "warm cache changed library bytes");
    assert_eq!(ml_off, ml_warm, "warm cache changed trained models");

    let warm_lookups =
        (after_warm.hits + after_warm.misses) - (after_cold.hits + after_cold.misses);
    let warm_hits = after_warm.hits - after_cold.hits;
    #[allow(clippy::cast_precision_loss)]
    let warm_hit_rate = if warm_lookups == 0 {
        0.0
    } else {
        warm_hits as f64 / warm_lookups as f64
    };

    if !smoke_mode() {
        let mut c = Criterion::default()
            .measurement_time(Duration::from_millis(1500))
            .warm_up_time(Duration::from_millis(300))
            .sample_size(10);
        let mut group = c.benchmark_group("golden_cache");
        // Warm full workload (library + training) vs the uncached baseline
        // on the library alone — the training fit cost is identical either
        // way, so the library pair isolates pure memoization payoff.
        let corner = Corner::default();
        group.bench_with_input(BenchmarkId::new("library", "off"), &par, |b, &p| {
            b.iter(|| characterize_library_par(black_box(&off_sim), &corner, p).expect("lib"));
        });
        group.bench_with_input(BenchmarkId::new("library", "warm"), &par, |b, &p| {
            b.iter(|| characterize_library_par(black_box(&cached_sim), &corner, p).expect("lib"));
        });
        group.finish();
    }

    let cold = CacheTiming {
        wall_s: cold_wall,
        hit_rate: 0.0,
    };
    let warm = CacheTiming {
        wall_s: warm_wall,
        hit_rate: warm_hit_rate,
    };
    let path = write_bench_cache(&results_dir(), golden_calls, &mode.label(), cold, warm);
    println!(
        "BENCH_cache: {} golden calls, cold {:.3}s, warm {:.3}s ({:.1}x, hit rate {:.3}) -> {}",
        golden_calls,
        cold.wall_s,
        warm.wall_s,
        cold.wall_s / warm.wall_s.max(1e-12),
        warm.hit_rate,
        path.display()
    );
}
