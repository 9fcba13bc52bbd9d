//! Property-based tests for the architectural simulator.

use lori_arch::cpu::{run_golden, Cpu, CpuConfig, Protection, StopReason};
use lori_arch::fault::{run_with_fault, FaultSpec, Outcome};
use lori_arch::isa::{r, Instr, Program, Reg};
use lori_arch::workload;
use proptest::prelude::*;

proptest! {
    /// Golden runs are deterministic for every workload.
    #[test]
    fn golden_runs_deterministic(which in 0usize..5) {
        let p = &workload::all()[which];
        let cfg = CpuConfig::default();
        let a = run_golden(p, &cfg);
        let b = run_golden(p, &cfg);
        prop_assert_eq!(a, b);
    }

    /// A fault injected after the program halts can never change anything.
    #[test]
    fn late_faults_are_masked(which in 0usize..5, reg in 0u8..16, bit in 0u8..32) {
        let p = &workload::all()[which];
        let cfg = CpuConfig::default();
        let golden = run_golden(p, &cfg);
        let fault = FaultSpec {
            reg: Reg::new(reg).unwrap(),
            bit,
            cycle: golden.cycles + 10,
        };
        let o = run_with_fault(p, &cfg, &Protection::none(), &golden, &fault);
        prop_assert_eq!(o, Outcome::Masked);
    }

    /// Flipping the same register bit twice before execution restores the
    /// golden outcome.
    #[test]
    fn double_flip_cancels(which in 0usize..5, reg in 0u8..16, bit in 0u8..32) {
        let p = &workload::all()[which];
        let cfg = CpuConfig::default();
        let golden = run_golden(p, &cfg);
        let mut cpu = Cpu::new(p, &cfg);
        let reg = Reg::new(reg).unwrap();
        cpu.flip_register_bit(reg, bit);
        cpu.flip_register_bit(reg, bit);
        let res = cpu.run(p, &Protection::none());
        prop_assert_eq!(res.digest, golden.digest);
    }

    /// Protection never changes the computed result of a fault-free run.
    #[test]
    fn protection_preserves_results(which in 0usize..5, density in 0usize..4) {
        let p = &workload::all()[which];
        let cfg = CpuConfig::default();
        let golden = run_golden(p, &cfg);
        let indices: Vec<usize> = (0..p.len()).filter(|i| density == 0 || i % (density + 1) == 0).collect();
        let prot = Protection::for_instructions(p, indices).unwrap();
        let res = Cpu::new(p, &cfg).run(p, &prot);
        prop_assert_eq!(res.stop, StopReason::Halted);
        prop_assert_eq!(res.digest, golden.digest);
        prop_assert!(res.cycles >= golden.cycles);
    }

    /// Arithmetic instruction semantics match Rust's wrapping ops.
    #[test]
    fn alu_semantics(a in any::<u32>(), b in any::<u32>()) {
        let make = |op: Instr| -> Program {
            Program::new(
                "alu",
                vec![
                    Instr::Addi(r(1), r(0), 0),
                    op,
                    Instr::St(r(3), r(0), 0),
                    Instr::Halt,
                ],
                vec![0],
                0..1,
            )
            .unwrap()
        };
        let cfg = CpuConfig::default();
        // Seed registers via memory-free init: use Addi chains on small
        // values is impractical for arbitrary u32, so poke registers
        // directly through the fault API (bit flips compose any value).
        let run_op = |op: Instr| -> u32 {
            let p = make(op);
            let mut cpu = Cpu::new(&p, &cfg);
            for bit in 0..32 {
                if a & (1 << bit) != 0 {
                    cpu.flip_register_bit(r(4), bit as u8);
                }
                if b & (1 << bit) != 0 {
                    cpu.flip_register_bit(r(5), bit as u8);
                }
            }
            let res = cpu.run(&p, &Protection::none());
            res.output[0]
        };
        prop_assert_eq!(run_op(Instr::Add(r(3), r(4), r(5))), a.wrapping_add(b));
        prop_assert_eq!(run_op(Instr::Sub(r(3), r(4), r(5))), a.wrapping_sub(b));
        prop_assert_eq!(run_op(Instr::Mul(r(3), r(4), r(5))), a.wrapping_mul(b));
        prop_assert_eq!(run_op(Instr::Xor(r(3), r(4), r(5))), a ^ b);
        prop_assert_eq!(run_op(Instr::And(r(3), r(4), r(5))), a & b);
        prop_assert_eq!(run_op(Instr::Or(r(3), r(4), r(5))), a | b);
    }
}
