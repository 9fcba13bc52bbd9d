//! The architectural CPU simulator.
//!
//! Executes [`crate::isa::Program`]s one instruction per cycle over an
//! architectural state of 16 registers, a PC, and word-addressed memory.
//! Supports shadow-register instruction replication (selective protection)
//! with compare points at stores and branches — the mechanism behind the
//! IPAS-style experiment E8.

use crate::error::ArchError;
use crate::isa::{Instr, Program, Reg, NUM_REGS};
use std::collections::BTreeSet;

/// Why execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// `Halt` executed — normal completion.
    Halted,
    /// A load/store touched memory outside the address space.
    OutOfBounds,
    /// The PC left the program (and it wasn't a `Halt`).
    BadPc,
    /// The cycle limit was reached (hang).
    CycleLimit,
    /// A shadow-register compare caught a divergence.
    DetectedMismatch,
}

/// Execution configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuConfig {
    /// Size of data memory in 32-bit words.
    pub memory_words: usize,
    /// Cycle budget before the run is declared hung.
    pub max_cycles: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            memory_words: 4096,
            max_cycles: 2_000_000,
        }
    }
}

/// Selective-replication configuration: the instruction indices whose
/// computation is duplicated into a shadow register file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Protection {
    protected: BTreeSet<usize>,
}

impl Protection {
    /// No protection.
    #[must_use]
    pub fn none() -> Self {
        Protection::default()
    }

    /// Protects the given instruction indices.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::BadProtectionIndex`] if any index is outside the
    /// program.
    pub fn for_instructions(
        program: &Program,
        indices: impl IntoIterator<Item = usize>,
    ) -> Result<Self, ArchError> {
        let mut protected = BTreeSet::new();
        for i in indices {
            if i >= program.len() {
                return Err(ArchError::BadProtectionIndex(i));
            }
            protected.insert(i);
        }
        Ok(Protection { protected })
    }

    /// Protects every instruction (full DMR).
    #[must_use]
    pub fn full(program: &Program) -> Self {
        Protection {
            protected: (0..program.len()).collect(),
        }
    }

    /// Whether instruction `i` is protected.
    #[must_use]
    pub fn covers(&self, i: usize) -> bool {
        self.protected.contains(&i)
    }

    /// Number of protected instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.protected.len()
    }

    /// Whether no instruction is protected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.protected.is_empty()
    }
}

/// What one `step` did (for monitors and fault campaigns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// The instruction index that executed.
    pub instr_index: usize,
    /// The register written, with its new value, if any.
    pub wrote: Option<(Reg, u32)>,
    /// A stop reason, if execution ended on this step.
    pub stop: Option<StopReason>,
}

/// The result of running a program to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// Why execution stopped.
    pub stop: StopReason,
    /// Cycles consumed (includes replication/compare overhead).
    pub cycles: u64,
    /// FNV-1a digest of the output memory range (plus the stop kind).
    pub digest: u64,
    /// The output memory words.
    pub output: Vec<u32>,
}

/// The architectural machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    regs: [u32; NUM_REGS],
    shadow: [u32; NUM_REGS],
    pc: usize,
    mem: Vec<u32>,
    cycles: u64,
    max_cycles: u64,
}

impl Cpu {
    /// Creates a CPU loaded with the program's data memory.
    #[must_use]
    pub fn new(program: &Program, config: &CpuConfig) -> Self {
        let mut mem = vec![0u32; config.memory_words.max(program.data.len())];
        mem[..program.data.len()].copy_from_slice(&program.data);
        Cpu {
            regs: [0; NUM_REGS],
            shadow: [0; NUM_REGS],
            pc: 0,
            mem,
            cycles: 0,
            max_cycles: config.max_cycles,
        }
    }

    /// Rebuilds a CPU mid-run from explicit architectural state. This is
    /// the lane engine's detach path: a lane that diverges from the shared
    /// reference trace materializes into a scalar CPU and runs the rest of
    /// its trial alone (see `crate::lane`).
    pub(crate) fn from_parts(
        regs: [u32; NUM_REGS],
        shadow: [u32; NUM_REGS],
        pc: usize,
        mem: Vec<u32>,
        cycles: u64,
        max_cycles: u64,
    ) -> Self {
        Cpu {
            regs,
            shadow,
            pc,
            mem,
            cycles,
            max_cycles,
        }
    }

    /// The cycle budget this CPU was configured with.
    pub(crate) fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// Reads a shadow register.
    pub(crate) fn shadow_reg(&self, r: Reg) -> u32 {
        self.shadow[r.index()]
    }

    /// A snapshot of the shadow register file.
    pub(crate) fn shadow_snapshot(&self) -> [u32; NUM_REGS] {
        self.shadow
    }

    /// The full data memory.
    pub(crate) fn mem_words(&self) -> &[u32] {
        &self.mem
    }

    /// Teleports architectural state by an externally computed amount —
    /// the loop accelerator's skip (see `crate::accel`). Shadow registers
    /// are intentionally untouched: acceleration only runs with empty
    /// protection, where shadow state is never read.
    pub(crate) fn time_warp(&mut self, regs: [u32; NUM_REGS], cycles_delta: u64) {
        self.regs = regs;
        self.cycles += cycles_delta;
    }

    /// The current cycle count.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The current PC.
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Reads a register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// A snapshot of all registers (for anomaly detectors).
    #[must_use]
    pub fn reg_snapshot(&self) -> [u32; NUM_REGS] {
        self.regs
    }

    /// Reads a memory word (None if out of range).
    #[must_use]
    pub fn mem(&self, addr: usize) -> Option<u32> {
        self.mem.get(addr).copied()
    }

    /// Flips one bit of a register.
    pub fn flip_register_bit(&mut self, r: Reg, bit: u8) {
        self.regs[r.index()] ^= 1u32 << (bit % 32);
    }

    fn addr(&self, base: Reg, offset: i32) -> Option<usize> {
        let a = i64::from(self.regs[base.index()]) + i64::from(offset);
        if a < 0 || a as usize >= self.mem.len() {
            None
        } else {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(a as usize)
        }
    }

    fn branch(&mut self, taken: bool, offset: i32) {
        // pc already points at the *next* instruction when this is called.
        if taken {
            let target = self.pc as i64 + i64::from(offset);
            self.pc = if target < 0 {
                usize::MAX
            } else {
                target as usize
            };
        }
    }

    /// Executes one instruction.
    ///
    /// When `protection` covers the executing instruction, its computation
    /// also runs on the shadow register file (costing one extra cycle);
    /// stores and branches compare their sources against the shadow copy
    /// when any protection is active, flagging divergence as
    /// [`StopReason::DetectedMismatch`].
    pub fn step(&mut self, program: &Program, protection: &Protection) -> StepInfo {
        if self.cycles >= self.max_cycles {
            return StepInfo {
                instr_index: self.pc.min(program.len().saturating_sub(1)),
                wrote: None,
                stop: Some(StopReason::CycleLimit),
            };
        }
        if self.pc >= program.len() {
            return StepInfo {
                instr_index: program.len().saturating_sub(1),
                wrote: None,
                stop: Some(StopReason::BadPc),
            };
        }
        let idx = self.pc;
        let instr = program.instrs[idx];
        self.pc += 1;
        self.cycles += 1;
        let protected = protection.covers(idx);
        if protected {
            self.cycles += 1; // duplicated execution
        }
        let guard_active = !protection.is_empty();

        // Compare sources at stores/branches when protection is active.
        if guard_active && (instr.is_store() || instr.is_branch()) {
            self.cycles += 1; // compare cost
            for src in instr.sources() {
                if self.regs[src.index()] != self.shadow[src.index()] {
                    return StepInfo {
                        instr_index: idx,
                        wrote: None,
                        stop: Some(StopReason::DetectedMismatch),
                    };
                }
            }
        }

        let mut wrote = None;
        let mut stop = None;
        macro_rules! alu {
            ($rd:expr, $f:expr) => {{
                let v: u32 = $f(&self.regs);
                self.regs[$rd.index()] = v;
                if protected {
                    let sv: u32 = $f(&self.shadow);
                    self.shadow[$rd.index()] = sv;
                } else {
                    self.shadow[$rd.index()] = v;
                }
                wrote = Some(($rd, v));
            }};
        }

        match instr {
            Instr::Add(rd, a, b) => {
                alu!(rd, |r: &[u32; NUM_REGS]| r[a.index()]
                    .wrapping_add(r[b.index()]));
            }
            Instr::Sub(rd, a, b) => {
                alu!(rd, |r: &[u32; NUM_REGS]| r[a.index()]
                    .wrapping_sub(r[b.index()]));
            }
            Instr::Mul(rd, a, b) => {
                alu!(rd, |r: &[u32; NUM_REGS]| r[a.index()]
                    .wrapping_mul(r[b.index()]));
            }
            Instr::And(rd, a, b) => {
                alu!(rd, |r: &[u32; NUM_REGS]| r[a.index()] & r[b.index()]);
            }
            Instr::Or(rd, a, b) => {
                alu!(rd, |r: &[u32; NUM_REGS]| r[a.index()] | r[b.index()]);
            }
            Instr::Xor(rd, a, b) => {
                alu!(rd, |r: &[u32; NUM_REGS]| r[a.index()] ^ r[b.index()]);
            }
            Instr::Sll(rd, a, b) => {
                alu!(rd, |r: &[u32; NUM_REGS]| r[a.index()]
                    << (r[b.index()] & 31));
            }
            Instr::Srl(rd, a, b) => {
                alu!(rd, |r: &[u32; NUM_REGS]| r[a.index()]
                    >> (r[b.index()] & 31));
            }
            Instr::Addi(rd, a, imm) => {
                alu!(rd, |r: &[u32; NUM_REGS]| r[a.index()]
                    .wrapping_add(imm as u32));
            }
            Instr::Ld(rd, base, off) => match self.addr(base, off) {
                Some(a) => {
                    let v = self.mem[a];
                    self.regs[rd.index()] = v;
                    self.shadow[rd.index()] = v;
                    wrote = Some((rd, v));
                }
                None => stop = Some(StopReason::OutOfBounds),
            },
            Instr::St(src, base, off) => match self.addr(base, off) {
                Some(a) => self.mem[a] = self.regs[src.index()],
                None => stop = Some(StopReason::OutOfBounds),
            },
            Instr::Beq(a, b, off) => {
                let taken = self.regs[a.index()] == self.regs[b.index()];
                self.branch(taken, off);
            }
            Instr::Bne(a, b, off) => {
                let taken = self.regs[a.index()] != self.regs[b.index()];
                self.branch(taken, off);
            }
            Instr::Blt(a, b, off) => {
                let taken = self.regs[a.index()] < self.regs[b.index()];
                self.branch(taken, off);
            }
            Instr::Jmp(off) => self.branch(true, off),
            Instr::Nop => {}
            Instr::Halt => stop = Some(StopReason::Halted),
        }

        StepInfo {
            instr_index: idx,
            wrote,
            stop,
        }
    }

    /// Runs to completion and digests the output.
    #[must_use]
    pub fn run(mut self, program: &Program, protection: &Protection) -> ExecResult {
        loop {
            let info = self.step(program, protection);
            if let Some(stop) = info.stop {
                return self.finish(program, stop);
            }
        }
    }

    /// Finalizes a run into an [`ExecResult`].
    #[must_use]
    pub fn finish(self, program: &Program, stop: StopReason) -> ExecResult {
        let output: Vec<u32> = program
            .output_range
            .clone()
            .filter_map(|a| self.mem.get(a).copied())
            .collect();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            digest ^= v;
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(match stop {
            StopReason::Halted => 1,
            StopReason::OutOfBounds => 2,
            StopReason::BadPc => 3,
            StopReason::CycleLimit => 4,
            StopReason::DetectedMismatch => 5,
        });
        for &w in &output {
            mix(u64::from(w));
        }
        ExecResult {
            stop,
            cycles: self.cycles,
            digest,
            output,
        }
    }
}

/// Convenience: run a program fault-free with the default CPU configuration.
#[must_use]
pub fn run_golden(program: &Program, config: &CpuConfig) -> ExecResult {
    Cpu::new(program, config).run(program, &Protection::none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::r;

    fn add_program() -> Program {
        // mem[2] = mem[0] + mem[1]
        Program::new(
            "add",
            vec![
                Instr::Addi(r(1), r(0), 0), // r1 = r0 + 0 (base addr 0... r0 starts at 0)
                Instr::Ld(r(2), r(1), 0),
                Instr::Ld(r(3), r(1), 1),
                Instr::Add(r(4), r(2), r(3)),
                Instr::St(r(4), r(1), 2),
                Instr::Halt,
            ],
            vec![20, 22, 0],
            2..3,
        )
        .unwrap()
    }

    #[test]
    fn executes_straight_line() {
        let p = add_program();
        let res = run_golden(&p, &CpuConfig::default());
        assert_eq!(res.stop, StopReason::Halted);
        assert_eq!(res.output, vec![42]);
        assert_eq!(res.cycles, 6);
    }

    #[test]
    fn branches_loop() {
        // r2 = 5 + 4 + 3 + 2 + 1 via a countdown loop.
        let p = Program::new(
            "loop",
            vec![
                Instr::Addi(r(1), r(0), 5),   // counter
                Instr::Addi(r(2), r(0), 0),   // acc
                Instr::Add(r(2), r(2), r(1)), // L: acc += counter
                Instr::Addi(r(1), r(1), -1),
                Instr::Bne(r(1), r(0), -3), // loop while counter != 0 (r0 == 0)
                Instr::St(r(2), r(0), 0),
                Instr::Halt,
            ],
            vec![0],
            0..1,
        )
        .unwrap();
        let res = run_golden(&p, &CpuConfig::default());
        assert_eq!(res.stop, StopReason::Halted);
        assert_eq!(res.output, vec![15]);
    }

    #[test]
    fn out_of_bounds_crashes() {
        let p = Program::new(
            "oob",
            vec![
                Instr::Addi(r(1), r(0), 100_000),
                Instr::Ld(r(2), r(1), 0),
                Instr::Halt,
            ],
            vec![0],
            0..1,
        )
        .unwrap();
        let res = run_golden(&p, &CpuConfig::default());
        assert_eq!(res.stop, StopReason::OutOfBounds);
    }

    #[test]
    fn runaway_pc_crashes() {
        let p = Program::new("runaway", vec![Instr::Nop, Instr::Nop], vec![], 0..0).unwrap();
        let res = run_golden(&p, &CpuConfig::default());
        assert_eq!(res.stop, StopReason::BadPc);
    }

    #[test]
    fn infinite_loop_hangs() {
        let p = Program::new("hang", vec![Instr::Jmp(-1)], vec![], 0..0).unwrap();
        let cfg = CpuConfig {
            max_cycles: 1000,
            ..CpuConfig::default()
        };
        let res = Cpu::new(&p, &cfg).run(&p, &Protection::none());
        assert_eq!(res.stop, StopReason::CycleLimit);
        assert_eq!(res.cycles, 1000);
    }

    #[test]
    fn digest_distinguishes_outputs() {
        let p = add_program();
        let good = run_golden(&p, &CpuConfig::default());
        let mut bad_prog = p.clone();
        bad_prog.data[0] = 21;
        let bad = run_golden(&bad_prog, &CpuConfig::default());
        assert_ne!(good.digest, bad.digest);
    }

    #[test]
    fn fault_in_dead_register_is_masked() {
        let p = add_program();
        let cfg = CpuConfig::default();
        let golden = run_golden(&p, &cfg);
        let mut cpu = Cpu::new(&p, &cfg);
        cpu.flip_register_bit(r(15), 7); // r15 never used
        let res = cpu.run(&p, &Protection::none());
        assert_eq!(res.digest, golden.digest);
    }

    #[test]
    fn fault_in_live_register_corrupts_output() {
        let p = add_program();
        let cfg = CpuConfig::default();
        let golden = run_golden(&p, &cfg);
        let mut cpu = Cpu::new(&p, &cfg);
        // Execute the two loads, then corrupt r2 before the add.
        for _ in 0..3 {
            let _ = cpu.step(&p, &Protection::none());
        }
        cpu.flip_register_bit(r(2), 4);
        let res = loop {
            let info = cpu.step(&p, &Protection::none());
            if let Some(stop) = info.stop {
                break cpu.finish(&p, stop);
            }
        };
        assert_eq!(res.stop, StopReason::Halted);
        assert_ne!(res.digest, golden.digest, "SDC expected");
    }

    #[test]
    fn protection_detects_register_corruption() {
        let p = add_program();
        let cfg = CpuConfig::default();
        let protection = Protection::full(&p);
        let mut cpu = Cpu::new(&p, &cfg);
        for _ in 0..3 {
            let _ = cpu.step(&p, &protection);
        }
        cpu.flip_register_bit(r(2), 4);
        loop {
            let info = cpu.step(&p, &protection);
            if let Some(stop) = info.stop {
                assert_eq!(stop, StopReason::DetectedMismatch);
                break;
            }
        }
    }

    #[test]
    fn protection_costs_cycles() {
        let p = add_program();
        let cfg = CpuConfig::default();
        let plain = Cpu::new(&p, &cfg).run(&p, &Protection::none());
        let dmr = Cpu::new(&p, &cfg).run(&p, &Protection::full(&p));
        assert_eq!(dmr.stop, StopReason::Halted);
        assert!(dmr.cycles > plain.cycles);
        assert_eq!(
            dmr.digest, plain.digest,
            "protection must not change results"
        );
    }

    #[test]
    fn protection_validation() {
        let p = add_program();
        assert!(Protection::for_instructions(&p, [0, 3]).is_ok());
        assert_eq!(
            Protection::for_instructions(&p, [99]),
            Err(ArchError::BadProtectionIndex(99))
        );
        assert!(Protection::none().is_empty());
        assert_eq!(Protection::full(&p).len(), p.len());
    }
}
