//! Fault injection campaigns and outcome classification.
//!
//! One trial = run the program with a single bit flip at a chosen cycle in a
//! chosen architectural element, then compare against the golden run:
//!
//! - **Detected** — a protection mechanism stopped the run;
//! - **Masked** — identical output digest;
//! - **SDC** — silent data corruption: run "succeeded" with a wrong digest;
//! - **Crash** — out-of-bounds access or runaway PC;
//! - **Hang** — cycle-limit exhaustion.

use crate::cpu::{Cpu, CpuConfig, ExecResult, Protection, StopReason};
use crate::error::ArchError;
use crate::isa::{Program, Reg, NUM_REGS};
use crate::lane;
use lori_core::Rng;
use lori_par::Parallelism;

/// Where a fault lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// An architectural register bit.
    Register {
        /// Which register.
        reg: Reg,
        /// Which bit (0–31).
        bit: u8,
    },
    /// A program-counter bit.
    Pc {
        /// Which bit (0–15).
        bit: u8,
    },
    /// A data-memory bit.
    Memory {
        /// Word address.
        addr: usize,
        /// Which bit (0–31).
        bit: u8,
    },
}

/// A fully-specified single-fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where the bit flips.
    pub target: FaultTarget,
    /// After how many executed instructions the flip is applied.
    pub cycle: u64,
}

/// The classified outcome of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The output digest matched the golden run.
    Masked,
    /// Silent data corruption.
    Sdc,
    /// Architectural crash (bad memory access / runaway PC).
    Crash,
    /// Cycle-limit hang.
    Hang,
    /// Protection detected the fault.
    Detected,
}

impl Outcome {
    /// All outcome kinds, for tabulation.
    pub const ALL: [Outcome; 5] = [
        Outcome::Masked,
        Outcome::Sdc,
        Outcome::Crash,
        Outcome::Hang,
        Outcome::Detected,
    ];

    /// The outcome's position in [`Outcome::ALL`] — the tabulation index
    /// used by [`OutcomeCounts`]. Constant-time; the per-trial hot path
    /// must not scan.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Outcome::Masked => 0,
            Outcome::Sdc => 1,
            Outcome::Crash => 2,
            Outcome::Hang => 3,
            Outcome::Detected => 4,
        }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::Crash => "crash",
            Outcome::Hang => "hang",
            Outcome::Detected => "detected",
        }
    }
}

/// Runs one faulty trial and classifies it against `golden`.
#[must_use]
pub fn run_with_fault(
    program: &Program,
    config: &CpuConfig,
    protection: &Protection,
    golden: &ExecResult,
    fault: &FaultSpec,
) -> Outcome {
    let mut cpu = Cpu::new(program, config);
    let mut injected = false;
    let mut executed: u64 = 0;
    let result = loop {
        if !injected && executed >= fault.cycle {
            match fault.target {
                FaultTarget::Register { reg, bit } => cpu.flip_register_bit(reg, bit),
                FaultTarget::Pc { bit } => cpu.flip_pc_bit(bit),
                FaultTarget::Memory { addr, bit } => cpu.flip_memory_bit(addr, bit),
            }
            injected = true;
        }
        let info = cpu.step(program, protection);
        executed += 1;
        if let Some(stop) = info.stop {
            break cpu.finish(program, stop);
        }
    };
    classify(&result, golden)
}

/// Classifies a faulty result against the golden result.
#[must_use]
pub fn classify(faulty: &ExecResult, golden: &ExecResult) -> Outcome {
    match faulty.stop {
        StopReason::DetectedMismatch => Outcome::Detected,
        StopReason::OutOfBounds | StopReason::BadPc => Outcome::Crash,
        StopReason::CycleLimit => Outcome::Hang,
        StopReason::Halted => {
            if faulty.digest == golden.digest {
                Outcome::Masked
            } else {
                Outcome::Sdc
            }
        }
    }
}

/// One campaign trial record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// The injected fault.
    pub fault: FaultSpec,
    /// The instruction index that was about to execute at injection time
    /// (approximated as `cycle` clamped to the golden instruction stream —
    /// exact for the 1-instruction-per-cycle model).
    pub outcome: Outcome,
}

/// Aggregate campaign statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    /// Count per outcome kind, indexed as in [`Outcome::ALL`].
    counts: [usize; 5],
}

impl OutcomeCounts {
    /// Tallies one outcome.
    pub fn record(&mut self, o: Outcome) {
        self.counts[o.index()] += 1;
    }

    /// The count for one outcome kind.
    #[must_use]
    pub fn count(&self, o: Outcome) -> usize {
        self.counts[o.index()]
    }

    /// Total trials recorded.
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Fraction of trials with the given outcome (0 when empty).
    #[must_use]
    pub fn fraction(&self, o: Outcome) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.count(o) as f64 / self.total() as f64
            }
        }
    }

    /// Architectural vulnerability: fraction of trials that end in SDC,
    /// crash, or hang (i.e. not masked and not detected).
    #[must_use]
    pub fn vulnerability(&self) -> f64 {
        self.fraction(Outcome::Sdc) + self.fraction(Outcome::Crash) + self.fraction(Outcome::Hang)
    }
}

/// Campaign results: all trials plus aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// Every trial, in injection order.
    pub trials: Vec<Trial>,
    /// Aggregate counts.
    pub counts: OutcomeCounts,
    /// The golden cycle count the faults were injected within.
    pub golden_cycles: u64,
}

/// Runs `n` random register-bit injections at uniformly random cycles.
///
/// Trials run on the lane engine across the process-global worker pool;
/// results are bit-identical for any worker count and to the scalar
/// [`run_with_fault`] loop (see [`crate::lane`]).
///
/// # Errors
///
/// Returns [`ArchError::NoTrials`] for `n == 0`.
pub fn random_register_campaign(
    program: &Program,
    config: &CpuConfig,
    protection: &Protection,
    n: usize,
    seed: u64,
) -> Result<Campaign, ArchError> {
    random_register_campaign_with(program, config, protection, n, seed, lori_par::global())
}

/// [`random_register_campaign`] with explicit parallelism.
///
/// # Errors
///
/// Returns [`ArchError::NoTrials`] for `n == 0`.
pub fn random_register_campaign_with(
    program: &Program,
    config: &CpuConfig,
    protection: &Protection,
    n: usize,
    seed: u64,
    par: Parallelism,
) -> Result<Campaign, ArchError> {
    if n == 0 {
        return Err(ArchError::NoTrials);
    }
    let golden = crate::cpu::run_golden(program, config);
    // All specs are drawn up front, in exactly the order the scalar loop
    // would draw them — the block split never touches the RNG stream.
    let mut rng = Rng::from_seed(seed);
    let specs: Vec<FaultSpec> = (0..n)
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
    let outcomes = lane::campaign_outcomes(program, config, protection, &golden, &specs, par);
    let mut counts = OutcomeCounts::default();
    let trials: Vec<Trial> = specs
        .into_iter()
        .zip(outcomes)
        .map(|(fault, outcome)| {
            counts.record(outcome);
            Trial { fault, outcome }
        })
        .collect();
    Ok(Campaign {
        trials,
        counts,
        golden_cycles: golden.cycles,
    })
}

/// Per-register vulnerability: `n_per_reg` random-bit/random-cycle trials
/// for each architectural register, returning each register's AVF-style
/// vulnerability fraction.
///
/// # Errors
///
/// Returns [`ArchError::NoTrials`] for `n_per_reg == 0`.
pub fn per_register_vulnerability(
    program: &Program,
    config: &CpuConfig,
    n_per_reg: usize,
    seed: u64,
) -> Result<Vec<f64>, ArchError> {
    per_register_vulnerability_with(program, config, n_per_reg, seed, lori_par::global())
}

/// [`per_register_vulnerability`] with explicit parallelism.
///
/// # Errors
///
/// Returns [`ArchError::NoTrials`] for `n_per_reg == 0`.
pub fn per_register_vulnerability_with(
    program: &Program,
    config: &CpuConfig,
    n_per_reg: usize,
    seed: u64,
    par: Parallelism,
) -> Result<Vec<f64>, ArchError> {
    if n_per_reg == 0 {
        return Err(ArchError::NoTrials);
    }
    let golden = crate::cpu::run_golden(program, config);
    let protection = Protection::none();
    // Register-major spec generation, one shared RNG stream — the draw
    // order of the original nested loops.
    let mut rng = Rng::from_seed(seed);
    let mut specs = Vec::with_capacity(NUM_REGS * n_per_reg);
    for reg_idx in 0..NUM_REGS {
        for _ in 0..n_per_reg {
            #[allow(clippy::cast_possible_truncation)]
            specs.push(FaultSpec {
                target: FaultTarget::Register {
                    reg: Reg::new(reg_idx as u8).expect("in range"),
                    bit: rng.below(32) as u8,
                },
                cycle: rng.below(golden.cycles.max(1)),
            });
        }
    }
    let outcomes = lane::campaign_outcomes(program, config, &protection, &golden, &specs, par);
    let result = outcomes
        .chunks(n_per_reg)
        .map(|chunk| {
            let mut counts = OutcomeCounts::default();
            for &o in chunk {
                counts.record(o);
            }
            counts.vulnerability()
        })
        .collect();
    Ok(result)
}

/// Per-instruction SDC proneness: inject faults into the destination
/// register *immediately after* each dynamic execution of each static
/// instruction, `n_per_instr` times, and report the SDC fraction per static
/// instruction. Instructions without a destination get 0.
///
/// # Errors
///
/// Returns [`ArchError::NoTrials`] for `n_per_instr == 0`.
pub fn per_instruction_sdc(
    program: &Program,
    config: &CpuConfig,
    n_per_instr: usize,
    seed: u64,
) -> Result<Vec<f64>, ArchError> {
    per_instruction_sdc_with(program, config, n_per_instr, seed, lori_par::global())
}

/// [`per_instruction_sdc`] with explicit parallelism.
///
/// # Errors
///
/// Returns [`ArchError::NoTrials`] for `n_per_instr == 0`.
pub fn per_instruction_sdc_with(
    program: &Program,
    config: &CpuConfig,
    n_per_instr: usize,
    seed: u64,
    par: Parallelism,
) -> Result<Vec<f64>, ArchError> {
    if n_per_instr == 0 {
        return Err(ArchError::NoTrials);
    }
    let protection = Protection::none();

    // One golden pass yields both the reference result and the map from
    // each static instruction to the cycles at which it executes.
    let mut exec_cycles: Vec<Vec<u64>> = vec![Vec::new(); program.len()];
    let golden = {
        let mut cpu = Cpu::new(program, config);
        let mut cycle: u64 = 0;
        loop {
            let info = cpu.step(program, &protection);
            exec_cycles[info.instr_index].push(cycle);
            cycle += 1;
            if let Some(stop) = info.stop {
                break cpu.finish(program, stop);
            }
        }
    };

    // Specs drawn up front in the scalar loop's exact order: instructions
    // without a destination or never executed draw nothing.
    let mut rng = Rng::from_seed(seed);
    let mut specs = Vec::new();
    let mut sampled: Vec<bool> = Vec::with_capacity(program.len());
    for (i, instr) in program.instrs.iter().enumerate() {
        let Some(dest) = instr.dest() else {
            sampled.push(false);
            continue;
        };
        if exec_cycles[i].is_empty() {
            sampled.push(false);
            continue;
        }
        sampled.push(true);
        for _ in 0..n_per_instr {
            let &cycle = rng.choose(&exec_cycles[i]).expect("non-empty");
            #[allow(clippy::cast_possible_truncation)]
            specs.push(FaultSpec {
                target: FaultTarget::Register {
                    reg: dest,
                    bit: rng.below(32) as u8,
                },
                // Inject right after the instruction writes its result.
                cycle: cycle + 1,
            });
        }
    }
    let outcomes = lane::campaign_outcomes(program, config, &protection, &golden, &specs, par);

    let mut chunks = outcomes.chunks(n_per_instr);
    let result = sampled
        .into_iter()
        .map(|has_specs| {
            if !has_specs {
                return 0.0;
            }
            let chunk = chunks.next().expect("one chunk per sampled instruction");
            let sdc = chunk.iter().filter(|&&o| o == Outcome::Sdc).count();
            #[allow(clippy::cast_precision_loss)]
            {
                sdc as f64 / n_per_instr as f64
            }
        })
        .collect();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::run_golden;
    use crate::workload;

    #[test]
    fn campaign_outcome_distribution_sane() {
        let p = workload::checksum();
        let cfg = CpuConfig::default();
        let c = random_register_campaign(&p, &cfg, &Protection::none(), 400, 1).unwrap();
        assert_eq!(c.counts.total(), 400);
        // Faults in mostly-dead registers are often masked; some are not.
        assert!(c.counts.fraction(Outcome::Masked) > 0.3);
        assert!(c.counts.vulnerability() > 0.02);
        assert_eq!(c.counts.count(Outcome::Detected), 0, "no protection active");
    }

    #[test]
    fn protection_converts_sdc_to_detected() {
        let p = workload::dot_product();
        let cfg = CpuConfig::default();
        let unprotected = random_register_campaign(&p, &cfg, &Protection::none(), 300, 2).unwrap();
        let protected = random_register_campaign(&p, &cfg, &Protection::full(&p), 300, 2).unwrap();
        assert!(protected.counts.count(Outcome::Detected) > 0);
        assert!(
            protected.counts.fraction(Outcome::Sdc) < unprotected.counts.fraction(Outcome::Sdc),
            "full protection should reduce SDC: {} vs {}",
            protected.counts.fraction(Outcome::Sdc),
            unprotected.counts.fraction(Outcome::Sdc)
        );
    }

    #[test]
    fn per_register_vulnerability_varies() {
        let p = workload::fibonacci();
        let cfg = CpuConfig::default();
        let v = per_register_vulnerability(&p, &cfg, 60, 3).unwrap();
        assert_eq!(v.len(), NUM_REGS);
        // Loop-carried registers must be far more vulnerable than unused ones.
        let max = v.iter().copied().fold(0.0f64, f64::max);
        let min = v.iter().copied().fold(1.0f64, f64::min);
        assert!(max > 0.2, "max vulnerability {max}");
        assert!(min < 0.05, "min vulnerability {min}");
    }

    #[test]
    fn per_instruction_sdc_shapes() {
        let p = workload::dot_product();
        let cfg = CpuConfig::default();
        let sdc = per_instruction_sdc(&p, &cfg, 24, 4).unwrap();
        assert_eq!(sdc.len(), p.len());
        // Store/branch/halt have no dest → zero by construction.
        for (i, instr) in p.instrs.iter().enumerate() {
            if instr.dest().is_none() {
                assert_eq!(sdc[i], 0.0);
            }
        }
        // The accumulator-updating instruction is highly SDC-prone.
        assert!(sdc.iter().copied().fold(0.0f64, f64::max) > 0.3);
    }

    #[test]
    fn classify_matrix() {
        let p = workload::fibonacci();
        let cfg = CpuConfig::default();
        let golden = run_golden(&p, &cfg);
        assert_eq!(classify(&golden, &golden), Outcome::Masked);
        let mut sdc = golden.clone();
        sdc.digest ^= 1;
        assert_eq!(classify(&sdc, &golden), Outcome::Sdc);
        let mut crash = golden.clone();
        crash.stop = StopReason::BadPc;
        assert_eq!(classify(&crash, &golden), Outcome::Crash);
        let mut hang = golden.clone();
        hang.stop = StopReason::CycleLimit;
        assert_eq!(classify(&hang, &golden), Outcome::Hang);
        let mut det = golden.clone();
        det.stop = StopReason::DetectedMismatch;
        assert_eq!(classify(&det, &golden), Outcome::Detected);
    }

    #[test]
    fn zero_trials_rejected() {
        let p = workload::fibonacci();
        let cfg = CpuConfig::default();
        assert!(random_register_campaign(&p, &cfg, &Protection::none(), 0, 1).is_err());
        assert!(per_register_vulnerability(&p, &cfg, 0, 1).is_err());
        assert!(per_instruction_sdc(&p, &cfg, 0, 1).is_err());
    }

    #[test]
    fn campaigns_deterministic_per_seed() {
        let p = workload::checksum();
        let cfg = CpuConfig::default();
        let a = random_register_campaign(&p, &cfg, &Protection::none(), 100, 7).unwrap();
        let b = random_register_campaign(&p, &cfg, &Protection::none(), 100, 7).unwrap();
        assert_eq!(a, b);
    }
}
