//! E2's speed claim as a benchmark: golden (SPICE-like) vs ML
//! characterization of one cell arc, and per-instance library generation.
//! Golden arcs run alone and in one batch of 220, the size of a cell's
//! training sample, whose rail phases step eight arcs together.

use criterion::{criterion_group, criterion_main, Criterion};
use lori_circuit::cell::CellKind;
use lori_circuit::characterize::{characterize_library, Corner};
use lori_circuit::mlchar::{InstanceContext, MlCharConfig, MlCharacterizer};
use lori_circuit::netlist::processor_datapath;
use lori_circuit::spicelike::{GoldenSimulator, OperatingPoint};
use lori_circuit::tech::TechParams;
use lori_core::units::{Celsius, Volts};
use lori_core::Rng;
use std::hint::black_box;

fn bench_mlchar(c: &mut Criterion) {
    let sim = GoldenSimulator::new(TechParams::default()).expect("tech");
    let lib = characterize_library(&sim, &Corner::default()).expect("library");
    let netlist = processor_datapath(&lib, 8, 3).expect("netlist");
    let ml = MlCharacterizer::train_for_netlist(
        &sim,
        &lib,
        &netlist,
        &MlCharConfig {
            samples_per_cell: 120,
            ..MlCharConfig::default()
        },
    )
    .expect("training");

    let op = OperatingPoint {
        slew_ps: 35.0,
        load_ff: 6.0,
        temperature: Celsius(80.0),
        delta_vth: Volts(0.02),
    };
    c.bench_function("golden_single_arc", |b| {
        b.iter(|| sim.characterize(black_box(CellKind::Nand2), 2.0, black_box(&op)));
    });
    // NAND2 X2 arcs drawn from `MlCharConfig::default()`'s training box.
    let mut rng = Rng::from_seed(0);
    let batch: Vec<_> = (0..220)
        .map(|_| {
            let op = OperatingPoint {
                slew_ps: rng.uniform_in(5.0, 160.0),
                load_ff: rng.uniform_in(0.5, 16.0),
                temperature: Celsius(65.0 + rng.uniform_in(0.0, 45.0)),
                delta_vth: Volts(rng.uniform_in(0.0, 0.08)),
            };
            (CellKind::Nand2, 2.0, op)
        })
        .collect();
    c.bench_function("golden_batch_of_220_arcs", |b| {
        b.iter(|| sim.characterize_many(black_box(&batch)));
    });
    let nand2 = lib.find("NAND2_X2").expect("cell");
    c.bench_function("ml_single_arc", |b| {
        b.iter(|| {
            ml.predict(black_box(nand2), 35.0, 6.0, 15.0, 0.02)
                .expect("prediction")
        });
    });

    let contexts: Vec<InstanceContext> = (0..netlist.instance_count())
        .map(|i| InstanceContext {
            slew_ps: 10.0 + (i % 30) as f64,
            load_ff: 1.0 + (i % 10) as f64,
            delta_t_k: (i % 25) as f64,
            delta_vth_v: 0.01,
        })
        .collect();
    c.bench_function("ml_instance_library", |b| {
        b.iter(|| {
            ml.generate_instance_library(black_box(&netlist), black_box(&contexts))
                .expect("generation")
        });
    });
}

criterion_group! {
    name = benches;
    // Short measurement windows keep `cargo bench --workspace` to a few
    // minutes while still giving stable medians for these coarse kernels.
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(400))
        .sample_size(20);
    targets = bench_mlchar
}
criterion_main!(benches);
