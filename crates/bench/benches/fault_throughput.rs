//! Bit-parallel fault-injection throughput: the lane engine vs the scalar
//! path on the two campaign shapes the paper's architecture studies run at
//! survey scale.
//!
//! Two fixed spec sets, both timed at `Parallelism::serial()` so the
//! measured speedup is the lane engine's alone (thread scaling is
//! `par_speedup`'s subject):
//!
//! - **ff_vulnerability** — the exp-ff-vulnerability hot phase: every
//!   (program, register, bit) cell of all five workloads, trials drawn in
//!   dataset order;
//! - **anomaly_campaign** — an exp-anomaly-detection-shaped random register
//!   campaign on the checksum workload the detector monitors.
//!
//! Bit-identity is asserted, not assumed: both paths run over the full
//! spec sets once and their outcome sequences are compared `==` before any
//! timing. Each benchmark id carries the pass's injection count, so
//! injections/s is that count over the printed time per iteration.

use criterion::{black_box, BenchmarkId, Criterion};
use lori_arch::cpu::{run_golden, CpuConfig, ExecResult, Protection};
use lori_arch::fault::{run_with_fault, FaultSpec, FaultTarget, Outcome};
use lori_arch::isa::{Program, Reg, NUM_REGS};
use lori_arch::lane::campaign_outcomes;
use lori_arch::workload;
use lori_core::Rng;
use lori_par::Parallelism;
use std::time::Duration;

/// One program's fixed campaign: golden run plus the spec set evaluated
/// against it.
struct CampaignSet {
    program: Program,
    golden: ExecResult,
    specs: Vec<FaultSpec>,
}

/// The exp-ff-vulnerability hot phase: for each workload, one spec per
/// (register, bit, trial) in dataset draw order.
fn ff_vulnerability_sets(config: &CpuConfig, trials_per_ff: usize, seed: u64) -> Vec<CampaignSet> {
    let mut rng = Rng::from_seed(seed);
    workload::all()
        .into_iter()
        .map(|program| {
            let golden = run_golden(&program, config);
            let mut specs = Vec::with_capacity(NUM_REGS * 32 * trials_per_ff);
            for reg_idx in 0..NUM_REGS {
                for bit in 0..32u8 {
                    for _ in 0..trials_per_ff {
                        #[allow(clippy::cast_possible_truncation)]
                        specs.push(FaultSpec {
                            target: FaultTarget::Register {
                                reg: Reg::new(reg_idx as u8).expect("in range"),
                                bit,
                            },
                            cycle: rng.below(golden.cycles.max(1)),
                        });
                    }
                }
            }
            CampaignSet {
                program,
                golden,
                specs,
            }
        })
        .collect()
}

/// An exp-anomaly-detection-shaped campaign: random register/bit/cycle
/// faults on the checksum workload the detector monitors.
fn anomaly_set(config: &CpuConfig, trials: usize, seed: u64) -> CampaignSet {
    let program = workload::checksum();
    let golden = run_golden(&program, config);
    let mut rng = Rng::from_seed(seed);
    let specs = (0..trials)
        .map(|_| {
            #[allow(clippy::cast_possible_truncation)]
            FaultSpec {
                target: FaultTarget::Register {
                    reg: Reg::new(rng.below(NUM_REGS as u64) as u8).expect("in range"),
                    bit: rng.below(32) as u8,
                },
                cycle: rng.below(golden.cycles.max(1)),
            }
        })
        .collect();
    CampaignSet {
        program,
        golden,
        specs,
    }
}

/// The reference path: [`run_with_fault`] mapped over every spec.
fn scalar_outcomes(set: &CampaignSet, config: &CpuConfig, protection: &Protection) -> Vec<Outcome> {
    set.specs
        .iter()
        .map(|f| run_with_fault(&set.program, config, protection, &set.golden, f))
        .collect()
}

/// The lane engine, serially.
fn lane_outcomes(set: &CampaignSet, config: &CpuConfig, protection: &Protection) -> Vec<Outcome> {
    campaign_outcomes(
        &set.program,
        config,
        protection,
        &set.golden,
        &set.specs,
        Parallelism::serial(),
    )
}

type Evaluator = fn(&CampaignSet, &CpuConfig, &Protection) -> Vec<Outcome>;

/// Asserts lane == scalar on every spec of `sets`, then times one scalar
/// and one lane pass over all of them as criterion group `name`.
fn bench_campaign(c: &mut Criterion, name: &str, sets: &[CampaignSet]) {
    let config = CpuConfig::default();
    let protection = Protection::none();
    // Bit-identity first: the speedup claim is void if the outcomes drift.
    for set in sets {
        assert_eq!(
            scalar_outcomes(set, &config, &protection),
            lane_outcomes(set, &config, &protection),
            "{name}: lane outcomes diverged from scalar on {}",
            set.program.name
        );
    }
    let injections: usize = sets.iter().map(|s| s.specs.len()).sum();
    let mut group = c.benchmark_group(name);
    for (label, eval) in [
        ("scalar", scalar_outcomes as Evaluator),
        ("lanes", lane_outcomes),
    ] {
        group.bench_with_input(BenchmarkId::new(label, injections), &eval, |b, eval| {
            b.iter(|| {
                for set in sets {
                    black_box(eval(black_box(set), &config, &protection));
                }
            });
        });
    }
    group.finish();
}

fn main() {
    let config = CpuConfig::default();
    // 5 programs × 16 regs × 32 bits × 4 trials = 10240 injections, the
    // exp-ff-vulnerability hot phase.
    let ff_sets = ff_vulnerability_sets(&config, 4, 1);
    let anomaly_sets = [anomaly_set(&config, 8192, 2)];
    // One scalar ff pass takes seconds, so each of its samples is a single
    // pass; ten samples keep the whole bench near a minute on 2 cores.
    let mut c = Criterion::default()
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(400))
        .sample_size(10);
    bench_campaign(&mut c, "ff_vulnerability", &ff_sets);
    bench_campaign(&mut c, "anomaly_campaign", &anomaly_sets);
}
