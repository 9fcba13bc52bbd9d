//! Scalar-vs-lane equivalence: the bit-parallel engine must be
//! indistinguishable from the scalar loop at every public API.
//!
//! The lane engine's contract (DESIGN.md §12) is *bit-identical trials,
//! counts, and artifacts* for any seed and worker count. The oracle is
//! the scalar reference [`run_with_fault`], mapped over the same specs
//! here in the test. These tests pin the contract across workloads,
//! protections, ragged blocks, and the edge cycles (0 and the golden run's
//! cycle count, where the flip lands before the first step or never lands
//! at all).

use lori_arch::cpu::{run_golden, CpuConfig, ExecResult, Protection};
use lori_arch::fault::{
    per_instruction_sdc_with, random_register_campaign_with, run_with_fault, FaultSpec, Outcome,
};
use lori_arch::isa::{Program, Reg, NUM_REGS};
use lori_arch::lane::{campaign_outcomes, MAX_LANES};
use lori_arch::predict::ff_vulnerability_dataset_with;
use lori_arch::workload;
use lori_core::Rng;
use lori_par::Parallelism;

/// The reference oracle: one scalar simulation per spec.
fn scalar_outcomes(
    program: &Program,
    config: &CpuConfig,
    protection: &Protection,
    golden: &ExecResult,
    specs: &[FaultSpec],
) -> Vec<Outcome> {
    specs
        .iter()
        .map(|f| run_with_fault(program, config, protection, golden, f))
        .collect()
}

#[test]
fn random_campaign_matches_scalar_oracle_at_any_thread_count() {
    let config = CpuConfig::default();
    for program in workload::all() {
        let golden = run_golden(&program, &config);
        for (protection, tag) in [
            (Protection::none(), "none"),
            (Protection::full(&program), "full"),
            (
                Protection::for_instructions(&program, (0..program.len()).step_by(2)).unwrap(),
                "partial",
            ),
        ] {
            for seed in [1u64, 99] {
                // 100 trials: one full 64-lane block plus a ragged tail.
                let serial = random_register_campaign_with(
                    &program,
                    &config,
                    &protection,
                    100,
                    seed,
                    Parallelism::serial(),
                )
                .unwrap();
                let specs: Vec<FaultSpec> = serial.trials.iter().map(|t| t.fault).collect();
                let outcomes: Vec<Outcome> = serial.trials.iter().map(|t| t.outcome).collect();
                assert_eq!(
                    scalar_outcomes(&program, &config, &protection, &golden, &specs),
                    outcomes,
                    "{} protection={tag} seed={seed}",
                    program.name
                );
                let parallel = random_register_campaign_with(
                    &program,
                    &config,
                    &protection,
                    100,
                    seed,
                    Parallelism::new(4),
                )
                .unwrap();
                assert_eq!(
                    serial, parallel,
                    "{} protection={tag} seed={seed} threads=4",
                    program.name
                );
            }
        }
    }
}

#[test]
fn per_instruction_sdc_identical_across_threads() {
    let config = CpuConfig::default();
    for program in [workload::dot_product(), workload::checksum()] {
        let serial =
            per_instruction_sdc_with(&program, &config, 16, 7, Parallelism::serial()).unwrap();
        let parallel =
            per_instruction_sdc_with(&program, &config, 16, 7, Parallelism::new(4)).unwrap();
        assert_eq!(serial, parallel, "{}", program.name);
    }
}

#[test]
fn ff_dataset_identical_across_threads() {
    let config = CpuConfig::default();
    let programs = [workload::fibonacci(), workload::dot_product()];
    let serial =
        ff_vulnerability_dataset_with(&programs, &config, 2, 0.0, 3, Parallelism::serial())
            .unwrap();
    let parallel =
        ff_vulnerability_dataset_with(&programs, &config, 2, 0.0, 3, Parallelism::new(4)).unwrap();
    assert_eq!(serial.features(), parallel.features());
    assert_eq!(serial.class_targets(), parallel.class_targets());
}

#[test]
fn edge_cycles_match() {
    // Faults at cycle 0 (flip before the first step), at the golden cycle
    // count (never injected: the run halts first), and past it, in random
    // registers — engine vs scalar oracle, every workload.
    let config = CpuConfig::default();
    for program in workload::all() {
        let golden = run_golden(&program, &config);
        let protection = Protection::full(&program);
        let mut rng = Rng::from_seed(0xedce);
        let mut specs = Vec::new();
        for cycle in [
            0,
            1,
            golden.cycles,
            golden.cycles + 17,
            golden.cycles / 2,
            golden.cycles.saturating_sub(1),
        ] {
            for bit in [0u8, 5, 13, 31] {
                for _ in 0..3 {
                    specs.push(FaultSpec {
                        reg: Reg::new((rng.below(NUM_REGS as u64)) as u8).unwrap(),
                        bit,
                        cycle,
                    });
                }
            }
        }
        assert!(specs.len() > MAX_LANES, "forces a ragged final block");
        let scalar = scalar_outcomes(&program, &config, &protection, &golden, &specs);
        let block = campaign_outcomes(
            &program,
            &config,
            &protection,
            &golden,
            &specs[..MAX_LANES],
            Parallelism::serial(),
        );
        assert_eq!(&scalar[..MAX_LANES], &block[..], "{}", program.name);
        let all = campaign_outcomes(
            &program,
            &config,
            &protection,
            &golden,
            &specs,
            Parallelism::new(4),
        );
        assert_eq!(scalar, all, "{}", program.name);
    }
}
