//! Parallel-executor speedup: the Fig. 5/6 Monte Carlo sweep and the
//! 60-cell library characterization at 1 worker vs the process default
//! (every available core).
//!
//! Determinism is asserted, not assumed: before timing, both kernels are
//! run serially and in parallel and the results compared `==`.

use criterion::{black_box, BenchmarkId, Criterion};
use lori_circuit::characterize::{characterize_library_par, Corner};
use lori_circuit::spicelike::GoldenSimulator;
use lori_circuit::tech::TechParams;
use lori_ftsched::montecarlo::{paper_probability_axis, sweep_with, SweepConfig};
use lori_ftsched::workload::adpcm_reference_trace;
use lori_par::Parallelism;
use std::time::Duration;

/// The parallel side of every comparison: the process default, every
/// available core, but at least 2 so the comparison is meaningful even
/// where `available_parallelism` reports 1.
fn parallel_workers() -> Parallelism {
    Parallelism::new(lori_par::global().threads().max(2))
}

fn bench_sweep(c: &mut Criterion) {
    let trace = adpcm_reference_trace();
    let config = SweepConfig::paper();
    let axis = paper_probability_axis();
    let par = parallel_workers();

    let serial = sweep_with(&axis, &trace, &config, Parallelism::serial()).expect("sweep");
    let parallel = sweep_with(&axis, &trace, &config, par).expect("sweep");
    assert_eq!(serial, parallel, "parallel sweep must be bit-identical");

    let mut group = c.benchmark_group("par_sweep");
    for (label, p) in [("1", Parallelism::serial()), ("N", par)] {
        group.bench_with_input(BenchmarkId::new("threads", label), &p, |b, &p| {
            b.iter(|| sweep_with(black_box(&axis), &trace, &config, p).expect("sweep"));
        });
    }
    group.finish();
}

fn bench_characterize(c: &mut Criterion) {
    let sim = GoldenSimulator::new(TechParams::default()).expect("simulator");
    let corner = Corner::default();
    let par = parallel_workers();

    let serial = characterize_library_par(&sim, &corner, Parallelism::serial()).expect("lib");
    let parallel = characterize_library_par(&sim, &corner, par).expect("lib");
    assert_eq!(
        serial, parallel,
        "parallel characterization must be bit-identical"
    );

    let mut group = c.benchmark_group("par_characterize");
    for (label, p) in [("1", Parallelism::serial()), ("N", par)] {
        group.bench_with_input(BenchmarkId::new("threads", label), &p, |b, &p| {
            b.iter(|| characterize_library_par(black_box(&sim), &corner, p).expect("lib"));
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default()
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(400))
        .sample_size(10);
    bench_sweep(&mut c);
    bench_characterize(&mut c);
}
