//! A small RISC-style instruction set.
//!
//! 16 general-purpose 32-bit registers (`r0`–`r15`, all writable), word-
//! addressed memory, PC-relative branches. Rich enough to express the
//! workloads of [`crate::workload`], small enough that exhaustive-ish fault
//! campaigns stay cheap.

use crate::error::ArchError;
use std::fmt;

/// Number of architectural registers.
pub const NUM_REGS: usize = 16;

/// A register index (`0..16`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register index.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::BadRegister`] for indices ≥ 16.
    pub fn new(index: u8) -> Result<Self, ArchError> {
        if (index as usize) < NUM_REGS {
            Ok(Reg(index))
        } else {
            Err(ArchError::BadRegister(index))
        }
    }

    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Shorthand constructor used heavily by workload builders.
///
/// # Panics
///
/// Panics for indices ≥ 16 (workloads are static, so this is a programming
/// error, not input validation).
#[must_use]
pub fn r(index: u8) -> Reg {
    Reg::new(index).expect("register index below 16")
}

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `rd = rs1 + rs2` (wrapping).
    Add(Reg, Reg, Reg),
    /// `rd = rs1 - rs2` (wrapping).
    Sub(Reg, Reg, Reg),
    /// `rd = rs1 * rs2` (wrapping, low 32 bits).
    Mul(Reg, Reg, Reg),
    /// `rd = rs1 & rs2`.
    And(Reg, Reg, Reg),
    /// `rd = rs1 | rs2`.
    Or(Reg, Reg, Reg),
    /// `rd = rs1 ^ rs2`.
    Xor(Reg, Reg, Reg),
    /// `rd = rs1 << (rs2 & 31)`.
    Sll(Reg, Reg, Reg),
    /// `rd = rs1 >> (rs2 & 31)` (logical).
    Srl(Reg, Reg, Reg),
    /// `rd = rs1 + imm` (wrapping).
    Addi(Reg, Reg, i32),
    /// `rd = mem[rs1 + imm]`.
    Ld(Reg, Reg, i32),
    /// `mem[rs1 + imm] = rs2`.
    St(Reg, Reg, i32),
    /// `if rs1 == rs2 { pc += offset }` (offset in instructions, relative to
    /// the next instruction).
    Beq(Reg, Reg, i32),
    /// `if rs1 != rs2 { pc += offset }`.
    Bne(Reg, Reg, i32),
    /// `if rs1 < rs2 (unsigned) { pc += offset }`.
    Blt(Reg, Reg, i32),
    /// Unconditional relative jump.
    Jmp(i32),
    /// No operation.
    Nop,
    /// Stop execution successfully.
    Halt,
}

impl Instr {
    /// The destination register, if the instruction writes one.
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Instr::Add(rd, _, _)
            | Instr::Sub(rd, _, _)
            | Instr::Mul(rd, _, _)
            | Instr::And(rd, _, _)
            | Instr::Or(rd, _, _)
            | Instr::Xor(rd, _, _)
            | Instr::Sll(rd, _, _)
            | Instr::Srl(rd, _, _)
            | Instr::Addi(rd, _, _)
            | Instr::Ld(rd, _, _) => Some(rd),
            _ => None,
        }
    }

    /// The registers the instruction reads (at most two, the base register
    /// first for memory accesses). Does not allocate: the simulator's guard
    /// compares and the lane engine's divergence masks call it every step.
    pub fn sources(&self) -> impl Iterator<Item = Reg> {
        let slots = match *self {
            Instr::Add(_, a, b)
            | Instr::Sub(_, a, b)
            | Instr::Mul(_, a, b)
            | Instr::And(_, a, b)
            | Instr::Or(_, a, b)
            | Instr::Xor(_, a, b)
            | Instr::Sll(_, a, b)
            | Instr::Srl(_, a, b) => [Some(a), Some(b)],
            Instr::Addi(_, a, _) | Instr::Ld(_, a, _) => [Some(a), None],
            Instr::St(b, a, _) => [Some(a), Some(b)],
            Instr::Beq(a, b, _) | Instr::Bne(a, b, _) | Instr::Blt(a, b, _) => [Some(a), Some(b)],
            Instr::Jmp(_) | Instr::Nop | Instr::Halt => [None, None],
        };
        slots.into_iter().flatten()
    }

    /// Whether this is a memory access.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(self, Instr::Ld(..) | Instr::St(..))
    }

    /// Whether this is a control-flow instruction.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Instr::Beq(..) | Instr::Bne(..) | Instr::Blt(..) | Instr::Jmp(..)
        )
    }

    /// Whether this is a store (externally visible side effect).
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::St(..))
    }

    /// A small integer encoding of the opcode class, for ML features.
    #[must_use]
    pub fn opcode_class(&self) -> usize {
        match self {
            Instr::Add(..) | Instr::Sub(..) | Instr::Addi(..) => 0, // arithmetic
            Instr::Mul(..) => 1,
            Instr::And(..) | Instr::Or(..) | Instr::Xor(..) | Instr::Sll(..) | Instr::Srl(..) => 2,
            Instr::Ld(..) => 3,
            Instr::St(..) => 4,
            Instr::Beq(..) | Instr::Bne(..) | Instr::Blt(..) | Instr::Jmp(..) => 5,
            Instr::Nop | Instr::Halt => 6,
        }
    }
}

/// A program: instructions plus initial data memory and the memory range
/// holding the architecturally-visible result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The instruction stream.
    pub instrs: Vec<Instr>,
    /// Initial data memory (word-addressed).
    pub data: Vec<u32>,
    /// The memory words that constitute the program's output.
    pub output_range: std::ops::Range<usize>,
    /// Human-readable name for reports.
    pub name: String,
}

impl Program {
    /// Creates a program.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::EmptyProgram`] for an empty instruction stream.
    pub fn new(
        name: impl Into<String>,
        instrs: Vec<Instr>,
        data: Vec<u32>,
        output_range: std::ops::Range<usize>,
    ) -> Result<Self, ArchError> {
        if instrs.is_empty() {
            return Err(ArchError::EmptyProgram);
        }
        Ok(Program {
            instrs,
            data,
            output_range,
            name: name.into(),
        })
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty (never true for constructed programs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_bounds() {
        assert!(Reg::new(15).is_ok());
        assert_eq!(Reg::new(16), Err(ArchError::BadRegister(16)));
        assert_eq!(r(3).index(), 3);
        assert_eq!(format!("{}", r(7)), "r7");
    }

    #[test]
    #[should_panic(expected = "register index below 16")]
    fn r_panics_out_of_range() {
        let _ = r(16);
    }

    #[test]
    fn dest_and_sources() {
        let add = Instr::Add(r(1), r(2), r(3));
        assert_eq!(add.dest(), Some(r(1)));
        assert_eq!(add.sources().collect::<Vec<_>>(), vec![r(2), r(3)]);
        let st = Instr::St(r(4), r(5), 0);
        assert_eq!(st.dest(), None);
        assert_eq!(st.sources().collect::<Vec<_>>(), vec![r(5), r(4)]);
        assert_eq!(Instr::Halt.sources().count(), 0);
        assert_eq!(Instr::Jmp(-2).dest(), None);
    }

    #[test]
    fn classification_flags() {
        assert!(Instr::Ld(r(0), r(1), 0).is_memory());
        assert!(Instr::St(r(0), r(1), 0).is_store());
        assert!(Instr::Beq(r(0), r(1), 2).is_branch());
        assert!(!Instr::Add(r(0), r(1), r(2)).is_branch());
        assert_eq!(Instr::Mul(r(0), r(1), r(2)).opcode_class(), 1);
        assert_eq!(Instr::Halt.opcode_class(), 6);
    }

    #[test]
    fn program_validation() {
        assert_eq!(
            Program::new("empty", vec![], vec![], 0..0),
            Err(ArchError::EmptyProgram)
        );
        let p = Program::new("one", vec![Instr::Halt], vec![1, 2], 0..2).unwrap();
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }
}
