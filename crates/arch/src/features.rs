//! Structural feature extraction for ML-based vulnerability prediction.
//!
//! Two feature families mirror the surveyed approaches:
//!
//! - **Register ("flip-flop") features** — read/write counts, liveness —
//!   the fan-in/fan-out-style structural features ref \[20\] trains on;
//! - **Instruction features** — opcode class, operand structure, distance
//!   to the next store, dependent-instruction count — the graph-ish
//!   features refs \[24\]/\[27\] use to predict SDC-prone instructions.

use crate::cpu::{Cpu, CpuConfig, Protection};
use crate::isa::{Program, NUM_REGS};

/// Per-register structural/behavioural features over one program execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegisterFeatures {
    /// Dynamic read count.
    pub reads: f64,
    /// Dynamic write count.
    pub writes: f64,
    /// Fraction of cycles the register is live (written earlier, read later).
    pub live_fraction: f64,
    /// Mean distance (in cycles) from a write to its last read.
    pub mean_lifetime: f64,
    /// Static number of instructions that read the register.
    pub static_readers: f64,
    /// Static number of instructions that write the register.
    pub static_writers: f64,
}

impl RegisterFeatures {
    /// Flattens into an ML feature row.
    #[must_use]
    pub fn to_row(&self) -> Vec<f64> {
        vec![
            self.reads,
            self.writes,
            self.live_fraction,
            self.mean_lifetime,
            self.static_readers,
            self.static_writers,
        ]
    }
}

/// Extracts per-register features by executing the program once.
#[must_use]
pub fn register_features(program: &Program, config: &CpuConfig) -> [RegisterFeatures; NUM_REGS] {
    let mut feats = [RegisterFeatures::default(); NUM_REGS];
    for instr in &program.instrs {
        for s in instr.sources() {
            feats[s.index()].static_readers += 1.0;
        }
        if let Some(d) = instr.dest() {
            feats[d.index()].static_writers += 1.0;
        }
    }

    // Dynamic pass: track reads/writes/liveness intervals.
    let mut cpu = Cpu::new(program, config);
    let protection = Protection::none();
    let mut last_write: [Option<u64>; NUM_REGS] = [None; NUM_REGS];
    let mut last_read: [Option<u64>; NUM_REGS] = [None; NUM_REGS];
    let mut live_cycles = [0.0f64; NUM_REGS];
    let mut lifetime_sum = [0.0f64; NUM_REGS];
    let mut lifetime_n = [0.0f64; NUM_REGS];
    let mut cycle: u64 = 0;
    loop {
        let pc = cpu.pc();
        let instr = program.instrs.get(pc).copied();
        let info = cpu.step(program, &protection);
        if let Some(instr) = instr {
            for s in instr.sources() {
                feats[s.index()].reads += 1.0;
                last_read[s.index()] = Some(cycle);
            }
            if let Some(d) = instr.dest() {
                let di = d.index();
                // Close the previous live interval.
                if let (Some(w), Some(r)) = (last_write[di], last_read[di]) {
                    if r >= w {
                        #[allow(clippy::cast_precision_loss)]
                        {
                            live_cycles[di] += (r - w + 1) as f64;
                            lifetime_sum[di] += (r - w) as f64;
                            lifetime_n[di] += 1.0;
                        }
                    }
                }
                feats[di].writes += 1.0;
                last_write[di] = Some(cycle);
                last_read[di] = None;
            }
        }
        cycle += 1;
        if info.stop.is_some() {
            break;
        }
    }
    // Close trailing intervals.
    for i in 0..NUM_REGS {
        if let (Some(w), Some(r)) = (last_write[i], last_read[i]) {
            if r >= w {
                #[allow(clippy::cast_precision_loss)]
                {
                    live_cycles[i] += (r - w + 1) as f64;
                    lifetime_sum[i] += (r - w) as f64;
                    lifetime_n[i] += 1.0;
                }
            }
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let total = cycle as f64;
    for i in 0..NUM_REGS {
        feats[i].live_fraction = if total > 0.0 {
            (live_cycles[i] / total).min(1.0)
        } else {
            0.0
        };
        feats[i].mean_lifetime = if lifetime_n[i] > 0.0 {
            lifetime_sum[i] / lifetime_n[i]
        } else {
            0.0
        };
    }
    feats
}

/// Per-static-instruction features.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InstructionFeatures {
    /// Opcode class (see [`crate::isa::Instr::opcode_class`]).
    pub opcode_class: f64,
    /// Number of source operands.
    pub n_sources: f64,
    /// Whether the instruction writes a register.
    pub has_dest: f64,
    /// Whether it is a memory access.
    pub is_memory: f64,
    /// Whether it is a branch.
    pub is_branch: f64,
    /// Static distance (instructions) to the next store, capped at 32.
    pub dist_to_store: f64,
    /// Number of later static instructions reading this one's destination
    /// before it is overwritten (def-use fan-out).
    pub dependents: f64,
}

impl InstructionFeatures {
    /// Flattens into an ML feature row.
    #[must_use]
    pub fn to_row(&self) -> Vec<f64> {
        vec![
            self.opcode_class,
            self.n_sources,
            self.has_dest,
            self.is_memory,
            self.is_branch,
            self.dist_to_store,
            self.dependents,
        ]
    }
}

/// Extracts static features for every instruction.
#[must_use]
pub fn instruction_features(program: &Program) -> Vec<InstructionFeatures> {
    let n = program.len();
    let mut out = Vec::with_capacity(n);
    for (i, instr) in program.instrs.iter().enumerate() {
        // Distance to next store.
        let mut dist = 32.0;
        for (j, later) in program.instrs.iter().enumerate().skip(i) {
            if later.is_store() {
                #[allow(clippy::cast_precision_loss)]
                {
                    dist = ((j - i) as f64).min(32.0);
                }
                break;
            }
        }
        // Def-use fan-out (straight-line approximation).
        let mut dependents = 0.0;
        if let Some(d) = instr.dest() {
            for later in program.instrs.iter().skip(i + 1) {
                if later.sources().any(|s| s == d) {
                    dependents += 1.0;
                }
                if later.dest() == Some(d) {
                    break;
                }
            }
        }
        #[allow(clippy::cast_precision_loss)]
        out.push(InstructionFeatures {
            opcode_class: instr.opcode_class() as f64,
            n_sources: instr.sources().count() as f64,
            has_dest: f64::from(u8::from(instr.dest().is_some())),
            is_memory: f64::from(u8::from(instr.is_memory())),
            is_branch: f64::from(u8::from(instr.is_branch())),
            dist_to_store: dist,
            dependents,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn register_features_reflect_usage() {
        let p = workload::fibonacci();
        let f = register_features(&p, &CpuConfig::default());
        // r1/r2 are loop-carried: many reads and writes, high liveness.
        assert!(f[1].reads > 10.0);
        assert!(f[2].writes > 10.0);
        assert!(f[1].live_fraction > 0.3);
        // r15 untouched.
        assert_eq!(f[15].reads, 0.0);
        assert_eq!(f[15].writes, 0.0);
        assert_eq!(f[15].live_fraction, 0.0);
    }

    #[test]
    fn register_feature_rows_have_fixed_width() {
        let p = workload::matmul();
        let f = register_features(&p, &CpuConfig::default());
        for rf in &f {
            assert_eq!(rf.to_row().len(), 6);
        }
    }

    #[test]
    fn instruction_features_reflect_structure() {
        let p = workload::dot_product();
        let f = instruction_features(&p);
        assert_eq!(f.len(), p.len());
        for (feat, instr) in f.iter().zip(&p.instrs) {
            assert_eq!(feat.is_branch > 0.5, instr.is_branch());
            assert_eq!(feat.is_memory > 0.5, instr.is_memory());
            assert_eq!(feat.has_dest > 0.5, instr.dest().is_some());
        }
        // The store itself has distance 0 to the next store.
        let store_idx = p
            .instrs
            .iter()
            .position(crate::isa::Instr::is_store)
            .unwrap();
        assert_eq!(f[store_idx].dist_to_store, 0.0);
    }

    #[test]
    fn dependents_counts_def_use() {
        let p = workload::fibonacci();
        let f = instruction_features(&p);
        // Instruction 4 (Add r5 = a+b) has r5 read by instruction 6.
        assert!(f[4].dependents >= 1.0);
    }

    #[test]
    fn all_workloads_have_finite_features() {
        for p in workload::all() {
            for rf in register_features(&p, &CpuConfig::default()) {
                assert!(rf.to_row().iter().all(|v| v.is_finite()));
            }
            for inf in instruction_features(&p) {
                assert!(inf.to_row().iter().all(|v| v.is_finite()));
            }
        }
    }
}
