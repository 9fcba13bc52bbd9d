//! Bit-parallel fault-injection throughput: the lane engine vs the scalar
//! path on the two campaign shapes the paper's architecture studies run at
//! survey scale. Emits `results/BENCH_arch.json`, the machine-readable
//! perf-trajectory record.
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
//! timing. `LORI_BENCH_SMOKE=1` shrinks the trial counts (CI runs it that
//! way) but still performs the identity checks, both timed passes, and the
//! record write.

use lori_arch::cpu::{run_golden, CpuConfig, ExecResult, Protection};
use lori_arch::fault::{run_with_fault, FaultSpec, FaultTarget, Outcome};
use lori_arch::isa::{Program, Reg, NUM_REGS};
use lori_arch::lane::{campaign_outcomes, MAX_LANES};
use lori_arch::workload;
use lori_bench::harness::results_dir;
use lori_bench::{write_bench_arch, ArchGroup};
use lori_core::Rng;
use lori_par::Parallelism;
use std::time::Instant;

fn smoke_mode() -> bool {
    std::env::var("LORI_BENCH_SMOKE").is_ok_and(|v| !matches!(v.as_str(), "" | "0" | "false"))
}

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

/// Median wall seconds over `reps` passes of `eval` over every set.
fn time_path(
    sets: &[CampaignSet],
    config: &CpuConfig,
    protection: &Protection,
    eval: Evaluator,
    reps: usize,
) -> f64 {
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for set in sets {
                std::hint::black_box(eval(set, config, protection));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

fn measure_group(
    name: &str,
    sets: &[CampaignSet],
    config: &CpuConfig,
    protection: &Protection,
    reps: usize,
) -> ArchGroup {
    // Bit-identity first: the speedup claim is void if the outcomes drift.
    for set in sets {
        assert_eq!(
            scalar_outcomes(set, config, protection),
            lane_outcomes(set, config, protection),
            "{name}: lane outcomes diverged from scalar on {}",
            set.program.name
        );
    }
    let injections: usize = sets.iter().map(|s| s.specs.len()).sum();
    let scalar_wall_s = time_path(sets, config, protection, scalar_outcomes, reps);
    let lane_wall_s = time_path(sets, config, protection, lane_outcomes, reps);
    ArchGroup {
        injections,
        scalar_wall_s,
        lane_wall_s,
    }
}

fn main() {
    let smoke = smoke_mode();
    let config = CpuConfig::default();
    let protection = Protection::none();
    // Full mode matches the exp-ff-vulnerability hot phase (5 programs ×
    // 16 regs × 32 bits × 4 trials = 10240 injections); smoke shrinks the
    // trial counts but keeps every (program, register, bit) cell.
    let trials_per_ff = if smoke { 1 } else { 4 };
    let anomaly_trials = if smoke { 1024 } else { 8192 };
    let reps = if smoke { 1 } else { 3 };

    let ff_sets = ff_vulnerability_sets(&config, trials_per_ff, 1);
    let anomaly_sets = [anomaly_set(&config, anomaly_trials, 2)];

    let ff = measure_group("ff_vulnerability", &ff_sets, &config, &protection, reps);
    let anomaly = measure_group(
        "anomaly_campaign",
        &anomaly_sets,
        &config,
        &protection,
        reps,
    );

    let path = write_bench_arch(&results_dir(), MAX_LANES, ff, anomaly);
    #[allow(clippy::cast_precision_loss)]
    let per_s = |g: &ArchGroup| g.injections as f64 / g.lane_wall_s.max(1e-12);
    println!(
        "BENCH_arch: ff {} injections, scalar {:.3}s, lanes {:.3}s ({:.1}x, {:.0}/s); \
         anomaly {} injections, scalar {:.3}s, lanes {:.3}s ({:.1}x, {:.0}/s) -> {}",
        ff.injections,
        ff.scalar_wall_s,
        ff.lane_wall_s,
        ff.speedup(),
        per_s(&ff),
        anomaly.injections,
        anomaly.scalar_wall_s,
        anomaly.lane_wall_s,
        anomaly.speedup(),
        per_s(&anomaly),
        path.display()
    );
}
