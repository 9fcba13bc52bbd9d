//! STA throughput: full from-scratch timing analysis vs incremental
//! single-edit retiming on the `StaEngine`, at increasing design scale.
//! Emits `results/BENCH_sta.json`, the machine-readable perf-trajectory
//! record in the same shape as the other `BENCH_*` files.
//!
//! Exactness is asserted, not assumed: after the timed incremental edit
//! sequence, the engine's report is compared `==` against a from-scratch
//! pass carrying the same override set.
//!
//! `LORI_BENCH_SMOKE=1` skips the criterion sampling loops (CI runs it
//! that way) but still performs the timed full/incremental measurements,
//! the identity check, and the record write, so the gate keys stay
//! comparable between smoke and full runs.

use criterion::{black_box, BenchmarkId, Criterion};
use lori_bench::harness::results_dir;
use lori_bench::{write_bench_sta, StaDesign};
use lori_circuit::characterize::{characterize_library, Corner};
use lori_circuit::netlist::{processor_datapath, random_logic, InstId, Netlist};
use lori_circuit::spicelike::GoldenSimulator;
use lori_circuit::sta::{run_sta, InstanceTiming, StaConfig, StaEngine};
use lori_circuit::tech::TechParams;
use lori_core::Rng;
use std::time::{Duration, Instant};

fn smoke_mode() -> bool {
    std::env::var("LORI_BENCH_SMOKE").is_ok_and(|v| !matches!(v.as_str(), "" | "0" | "false"))
}

/// A pre-generated single-instance edit schedule, so the timed loop holds
/// nothing but `set_timing` calls.
fn edit_schedule(n_instances: usize, edits: usize, seed: u64) -> Vec<(InstId, InstanceTiming)> {
    let mut rng = Rng::from_seed(seed);
    (0..edits)
        .map(|_| {
            #[allow(clippy::cast_possible_truncation)]
            let inst = InstId(rng.below(n_instances as u64) as usize);
            let t = InstanceTiming {
                delay_ps: rng.uniform_in(1.0, 400.0),
                out_slew_ps: rng.uniform_in(1.0, 120.0),
            };
            (inst, t)
        })
        .collect()
}

/// Times `full_passes` from-scratch runs and `edits` incremental
/// single-edit retimes on one design, then asserts the incremental end
/// state equals a from-scratch pass with the same overrides.
fn measure(
    name: &str,
    netlist: &Netlist,
    lib: &lori_circuit::cell::Library,
    cfg: &StaConfig,
    full_passes: usize,
    edits: usize,
) -> StaDesign {
    let n = netlist.instance_count();

    let t0 = Instant::now();
    for _ in 0..full_passes {
        black_box(run_sta(netlist, lib, cfg).expect("full sta"));
    }
    let full_wall_s = t0.elapsed().as_secs_f64();

    let mut engine = StaEngine::new(netlist, lib, cfg).expect("engine");
    let schedule = edit_schedule(n, edits, 7);
    let t0 = Instant::now();
    for &(inst, t) in &schedule {
        engine.set_timing(netlist, lib, inst, t).expect("retime");
    }
    let incremental_wall_s = t0.elapsed().as_secs_f64();

    // Exactness: the incremental end state must byte-match a from-scratch
    // pass carrying the same (last-writer-wins) override set.
    let mut overrides: Vec<Option<InstanceTiming>> = vec![None; n];
    for &(inst, t) in &schedule {
        overrides[inst.0] = Some(t);
    }
    let scratch = StaEngine::with_sparse_overrides(netlist, lib, cfg, &overrides)
        .expect("reference")
        .into_report();
    assert_eq!(
        engine.report(),
        scratch,
        "{name}: incremental end state diverged from a from-scratch pass"
    );

    StaDesign {
        name: name.to_owned(),
        instances: n,
        full_passes,
        full_wall_s,
        edits,
        incremental_wall_s,
    }
}

fn main() {
    let sim = GoldenSimulator::new(TechParams::default()).expect("tech");
    let lib = characterize_library(&sim, &Corner::default()).expect("library");
    let cfg = StaConfig::default();

    // The design ladder: the last rung is the paper-scale datapath the
    // acceptance bar (>= 10x single-edit speedup at >= 100k instances) is
    // measured on.
    let rl_2000 = random_logic(&lib, 32, 2000, 1).expect("netlist");
    let rl_8000 = random_logic(&lib, 32, 8000, 1).expect("netlist");
    let dp_small = processor_datapath(&lib, 16, 2).expect("netlist");
    let dp_large = processor_datapath(&lib, 176, 2).expect("netlist");
    assert!(
        dp_large.instance_count() >= 100_000,
        "large datapath must be >= 100k instances, got {}",
        dp_large.instance_count()
    );

    let designs = vec![
        measure("random_logic_2000", &rl_2000, &lib, &cfg, 20, 2000),
        measure("random_logic_8000", &rl_8000, &lib, &cfg, 10, 1000),
        measure(
            &format!("processor_datapath_{}", dp_small.instance_count()),
            &dp_small,
            &lib,
            &cfg,
            10,
            1000,
        ),
        measure(
            &format!("processor_datapath_{}", dp_large.instance_count()),
            &dp_large,
            &lib,
            &cfg,
            3,
            300,
        ),
    ];

    // The acceptance bar from the incremental-STA refactor: a single-edit
    // retime on the >= 100k-gate datapath beats a full pass by >= 10x.
    let large = designs.last().expect("large design measured");
    assert!(
        large.single_edit_speedup() >= 10.0,
        "single-edit retime speedup {:.1}x below the 10x bar on {}",
        large.single_edit_speedup(),
        large.name
    );

    if !smoke_mode() {
        let mut c = Criterion::default()
            .measurement_time(Duration::from_millis(1500))
            .warm_up_time(Duration::from_millis(400))
            .sample_size(20);
        let mut group = c.benchmark_group("sta");
        for (gates, nl) in [(2000usize, &rl_2000), (8000, &rl_8000)] {
            group.bench_with_input(BenchmarkId::new("full/random_logic", gates), nl, |b, nl| {
                b.iter(|| run_sta(nl, &lib, &cfg).expect("sta"));
            });
            let schedule = edit_schedule(nl.instance_count(), 256, 11);
            group.bench_with_input(
                BenchmarkId::new("incremental/random_logic", gates),
                nl,
                |b, nl| {
                    let mut engine = StaEngine::new(nl, &lib, &cfg).expect("engine");
                    let mut i = 0usize;
                    b.iter(|| {
                        let (inst, t) = schedule[i % schedule.len()];
                        i += 1;
                        engine.set_timing(nl, &lib, inst, t).expect("retime");
                        black_box(engine.max_arrival_ps())
                    });
                },
            );
        }
        group.bench_with_input(
            BenchmarkId::new("full/processor_datapath", dp_small.instance_count()),
            &dp_small,
            |b, nl| {
                b.iter(|| run_sta(nl, &lib, &cfg).expect("sta"));
            },
        );
        group.finish();
    }

    let path = write_bench_sta(&results_dir(), &designs);
    for d in &designs {
        println!(
            "BENCH_sta: {} ({} instances) full {:.2} passes/s, incremental {:.0} edits/s ({:.0}x per edit)",
            d.name,
            d.instances,
            d.full_passes as f64 / d.full_wall_s.max(1e-12),
            d.edits as f64 / d.incremental_wall_s.max(1e-12),
            d.single_edit_speedup()
        );
    }
    println!("BENCH_sta: record -> {}", path.display());
}
