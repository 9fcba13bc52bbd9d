//! Bit-parallel fault-injection lanes: one simulation pass, 64 scenarios.
//!
//! [`run_fault_block`] evaluates up to [`MAX_LANES`] single-bit-flip trials
//! of the same program/protection pair in a single pass over the
//! instruction stream. The engine exploits the structure of single-fault
//! campaigns: every trial is the fault-free execution plus a *sparse*
//! perturbation, so instead of 64 full architectural copies it keeps
//!
//! - **one reference CPU** — the fault-free machine, stepped normally;
//! - **structure-of-arrays diffs** — for each register (and shadow
//!   register) a `u64` lane mask marking which lanes currently differ from
//!   the reference, plus the per-lane differing values; memory diffs live
//!   in a sparse `addr → (mask, values)` map;
//! - **one `u64` active-lane mask** — a lane that crashes, hangs, or is
//!   caught by a protection compare drops out of the mask and records its
//!   outcome without stopping the other 63.
//!
//! Each step computes the *affected* mask — the union of the source
//! registers' diff masks (plus the memory-diff mask for loads) — and only
//! lanes in it pay per-lane work. Unaffected lanes ride the reference for
//! free, and a write whose lane value matches the reference *clears* the
//! diff bit, so masked faults re-converge and cost nothing from then on.
//! A lane whose control flow leaves the reference trace (divergent branch
//! direction, a PC-bit fault, or an access fate different from the
//! reference's) **detaches**: its full state is materialized from
//! reference + diffs into a scalar [`Cpu`] that runs the rest of the trial
//! alone. Detached lanes are the slow path; campaign faults land mostly in
//! dead or data registers, so blocks typically finish attached.
//!
//! The determinism contract: for every [`FaultSpec`] the block outcome is
//! identical to [`run_with_fault`]'s — same injection timing (the flip
//! lands just before executed step `cycle`), same protection cycle
//! accounting, same digest. The equivalence suite in
//! `tests/lane_equivalence.rs` checks this across workloads, protections,
//! block sizes, and edge cycles against a scalar map over
//! [`run_with_fault`].
//!
//! [`run_with_fault`]: crate::fault::run_with_fault

use crate::cpu::{Cpu, CpuConfig, ExecResult, Protection, StopReason};
use crate::fault::{classify, FaultSpec, FaultTarget, Outcome};
use crate::isa::{Instr, Program, Reg, NUM_REGS};
use lori_par::Parallelism;
use std::collections::HashMap;

/// Maximum trials per block: one bit of the active mask per lane.
pub const MAX_LANES: usize = 64;

/// Evaluates every fault in `specs` against one shared `golden` run,
/// returning outcomes in input order — bit-identical to mapping
/// [`run_with_fault`] over `specs`.
///
/// Specs are split into [`MAX_LANES`]-sized blocks, each run in one
/// simulation pass, and the blocks are distributed over `par` workers
/// (block boundaries depend only on the input, so results are identical
/// at any worker count). The whole campaign runs under one `arch.campaign`
/// span.
///
/// [`run_with_fault`]: crate::fault::run_with_fault
#[must_use]
pub fn campaign_outcomes(
    program: &Program,
    config: &CpuConfig,
    protection: &Protection,
    golden: &ExecResult,
    specs: &[FaultSpec],
    par: Parallelism,
) -> Vec<Outcome> {
    let _span = lori_obs::span("arch.campaign");
    let blocks: Vec<&[FaultSpec]> = specs.chunks(MAX_LANES).collect();
    let results = lori_par::par_map(par, &blocks, |_, block| {
        run_fault_block(program, config, protection, golden, block)
    });
    results.into_iter().flatten().collect()
}

/// Runs one block of up to [`MAX_LANES`] faulty trials in a single pass
/// and classifies each against `golden`. Outcomes are returned in spec
/// order and are bit-identical to [`run_with_fault`] per spec.
///
/// # Panics
///
/// Panics if `faults` is empty or holds more than [`MAX_LANES`] specs.
///
/// [`run_with_fault`]: crate::fault::run_with_fault
#[must_use]
pub fn run_fault_block(
    program: &Program,
    config: &CpuConfig,
    protection: &Protection,
    golden: &ExecResult,
    faults: &[FaultSpec],
) -> Vec<Outcome> {
    assert!(
        !faults.is_empty() && faults.len() <= MAX_LANES,
        "block must hold 1..={MAX_LANES} faults"
    );
    Block::new(program, config, protection, golden, faults).run()
}

/// Sparse per-word memory divergence: which lanes differ at one address,
/// and with what value.
struct MemCell {
    mask: u64,
    vals: [u32; MAX_LANES],
}

struct Block<'a> {
    program: &'a Program,
    protection: &'a Protection,
    golden: &'a ExecResult,
    faults: &'a [FaultSpec],
    /// The fault-free reference machine all attached lanes ride.
    cpu: Cpu,
    /// Lanes still attached to the reference and unfinished.
    active: u64,
    reg_diff: [u64; NUM_REGS],
    reg_val: [[u32; MAX_LANES]; NUM_REGS],
    shadow_diff: [u64; NUM_REGS],
    shadow_val: [[u32; MAX_LANES]; NUM_REGS],
    mem_diff: HashMap<usize, MemCell>,
    /// Per-lane count of set memory-diff bits (digest fast path).
    mem_diff_count: [u32; MAX_LANES],
    outcomes: [Option<Outcome>; MAX_LANES],
}

/// The value an ALU instruction writes, over an arbitrary register view.
fn alu_value(instr: Instr, get: impl Fn(Reg) -> u32) -> u32 {
    match instr {
        Instr::Add(_, a, b) => get(a).wrapping_add(get(b)),
        Instr::Sub(_, a, b) => get(a).wrapping_sub(get(b)),
        Instr::Mul(_, a, b) => get(a).wrapping_mul(get(b)),
        Instr::And(_, a, b) => get(a) & get(b),
        Instr::Or(_, a, b) => get(a) | get(b),
        Instr::Xor(_, a, b) => get(a) ^ get(b),
        Instr::Sll(_, a, b) => get(a) << (get(b) & 31),
        Instr::Srl(_, a, b) => get(a) >> (get(b) & 31),
        #[allow(clippy::cast_sign_loss)]
        Instr::Addi(_, a, imm) => get(a).wrapping_add(imm as u32),
        _ => unreachable!("not an ALU instruction"),
    }
}

/// Whether a conditional branch is taken, given its source values.
fn branch_taken(instr: Instr, a: u32, b: u32) -> bool {
    match instr {
        Instr::Beq(..) => a == b,
        Instr::Bne(..) => a != b,
        Instr::Blt(..) => a < b,
        _ => unreachable!("not a conditional branch"),
    }
}

/// The effective address of a memory access, `None` when out of bounds —
/// mirrors `Cpu::addr`.
fn addr_of(base: u32, offset: i32, mem_len: usize) -> Option<usize> {
    let a = i64::from(base) + i64::from(offset);
    if a < 0 || a as usize >= mem_len {
        None
    } else {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(a as usize)
    }
}

impl<'a> Block<'a> {
    fn new(
        program: &'a Program,
        config: &'a CpuConfig,
        protection: &'a Protection,
        golden: &'a ExecResult,
        faults: &'a [FaultSpec],
    ) -> Self {
        let n = faults.len();
        let active = if n == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << n) - 1
        };
        Block {
            program,
            protection,
            golden,
            faults,
            cpu: Cpu::new(program, config),
            active,
            reg_diff: [0; NUM_REGS],
            reg_val: [[0; MAX_LANES]; NUM_REGS],
            shadow_diff: [0; NUM_REGS],
            shadow_val: [[0; MAX_LANES]; NUM_REGS],
            mem_diff: HashMap::new(),
            mem_diff_count: [0; MAX_LANES],
            outcomes: [None; MAX_LANES],
        }
    }

    /// A lane's view of a register (reference pre-step state + diffs).
    fn get_reg(&self, lane: usize, r: Reg) -> u32 {
        if self.reg_diff[r.index()] >> lane & 1 == 1 {
            self.reg_val[r.index()][lane]
        } else {
            self.cpu.reg(r)
        }
    }

    /// A lane's view of a shadow register.
    fn get_shadow(&self, lane: usize, r: Reg) -> u32 {
        if self.shadow_diff[r.index()] >> lane & 1 == 1 {
            self.shadow_val[r.index()][lane]
        } else {
            self.cpu.shadow_reg(r)
        }
    }

    /// A lane's view of a memory word the reference holds at `ref_v`.
    fn get_mem(&self, lane: usize, addr: usize, ref_v: u32) -> u32 {
        match self.mem_diff.get(&addr) {
            Some(cell) if cell.mask >> lane & 1 == 1 => cell.vals[lane],
            _ => ref_v,
        }
    }

    /// Records that `lane` holds `lane_v` at `addr` where the reference
    /// holds `ref_v`, setting or clearing the diff bit as needed.
    fn mem_set(&mut self, lane: usize, addr: usize, lane_v: u32, ref_v: u32) {
        if lane_v == ref_v {
            self.mem_clear_mask(addr, 1u64 << lane);
        } else {
            let cell = self.mem_diff.entry(addr).or_insert_with(|| MemCell {
                mask: 0,
                vals: [0; MAX_LANES],
            });
            if cell.mask >> lane & 1 == 0 {
                cell.mask |= 1u64 << lane;
                self.mem_diff_count[lane] += 1;
            }
            cell.vals[lane] = lane_v;
        }
    }

    /// Clears the memory diffs of every lane in `lanes` at `addr` (they
    /// now agree with the reference there).
    fn mem_clear_mask(&mut self, addr: usize, lanes: u64) {
        if let Some(cell) = self.mem_diff.get_mut(&addr) {
            let mut cleared = cell.mask & lanes;
            cell.mask &= !lanes;
            let empty = cell.mask == 0;
            while cleared != 0 {
                let lane = cleared.trailing_zeros() as usize;
                cleared &= cleared - 1;
                self.mem_diff_count[lane] -= 1;
            }
            if empty {
                self.mem_diff.remove(&addr);
            }
        }
    }

    fn finish_lane(&mut self, lane: usize, outcome: Outcome) {
        self.outcomes[lane] = Some(outcome);
        self.active &= !(1u64 << lane);
        // Hygiene: stale register diffs of a dead lane must not keep
        // marking steps as affected.
        for r in 0..NUM_REGS {
            self.reg_diff[r] &= self.active;
            self.shadow_diff[r] &= self.active;
        }
    }

    /// Applies `lane`'s fault to its diff state. Register and memory flips
    /// become diffs; PC flips diverge immediately and detach.
    fn inject(&mut self, lane: usize) {
        match self.faults[lane].target {
            FaultTarget::Register { reg, bit } => {
                // The lane is diff-free before its single injection, so its
                // pre-flip value is the reference's; the flip always differs.
                let r = reg.index();
                self.reg_val[r][lane] = self.cpu.reg(reg) ^ (1u32 << (bit % 32));
                self.reg_diff[r] |= 1u64 << lane;
            }
            FaultTarget::Pc { bit } => {
                let pc = self.cpu.pc() ^ (1usize << (bit % 16));
                self.detach(lane, Some(pc));
            }
            FaultTarget::Memory { addr, bit } => {
                // Out-of-range flips are no-ops, mirroring
                // `Cpu::flip_memory_bit`.
                if let Some(ref_v) = self.cpu.mem(addr) {
                    self.mem_set(lane, addr, ref_v ^ (1u32 << (bit % 32)), ref_v);
                }
            }
        }
    }

    /// Materializes `lane` into a scalar CPU at the reference's *pre-step*
    /// state (plus the lane's diffs) and runs its trial to completion. The
    /// scalar machine re-executes the diverging instruction itself, so
    /// cycle accounting and stop classification stay exact.
    fn detach(&mut self, lane: usize, pc_override: Option<usize>) {
        let mut regs = self.cpu.reg_snapshot();
        let mut shadow = self.cpu.shadow_snapshot();
        for r in 0..NUM_REGS {
            if self.reg_diff[r] >> lane & 1 == 1 {
                regs[r] = self.reg_val[r][lane];
            }
            if self.shadow_diff[r] >> lane & 1 == 1 {
                shadow[r] = self.shadow_val[r][lane];
            }
        }
        let mut mem = self.cpu.mem_words().to_vec();
        for (&addr, cell) in &self.mem_diff {
            if cell.mask >> lane & 1 == 1 {
                mem[addr] = cell.vals[lane];
            }
        }
        let cpu = Cpu::from_parts(
            regs,
            shadow,
            pc_override.unwrap_or(self.cpu.pc()),
            mem,
            self.cpu.cycles(),
            self.cpu.max_cycles(),
        );
        // The accelerated replay collapses steady wander loops (flipped
        // bounds walking an index for millions of cycles) while staying
        // bit-identical to plain stepping — see `crate::accel`.
        let result = crate::accel::replay(cpu, self.program, self.protection);
        self.finish_lane(lane, classify(&result, self.golden));
    }

    /// Finishes every still-attached lane: the reference stopped with
    /// `stop`, and attached lanes share its control flow, cycles, and
    /// memory (modulo their diffs).
    fn finish_attached(&mut self, stop: StopReason) {
        // Lanes with no memory diffs share the reference digest exactly.
        let mut clean_digest: Option<u64> = None;
        let mut done: Vec<(usize, Outcome)> = Vec::new();
        let mut m = self.active;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let outcome = match stop {
                StopReason::Halted => {
                    let digest = if self.mem_diff_count[lane] == 0 {
                        *clean_digest.get_or_insert_with(|| self.digest_for(lane))
                    } else {
                        self.digest_for(lane)
                    };
                    if digest == self.golden.digest {
                        Outcome::Masked
                    } else {
                        Outcome::Sdc
                    }
                }
                StopReason::OutOfBounds | StopReason::BadPc => Outcome::Crash,
                StopReason::CycleLimit => Outcome::Hang,
                StopReason::DetectedMismatch => {
                    unreachable!("fault-free reference never detects a mismatch")
                }
            };
            done.push((lane, outcome));
        }
        for (lane, outcome) in done {
            self.finish_lane(lane, outcome);
        }
    }

    /// A lane's output digest at a `Halted` stop — `Cpu::finish`'s FNV-1a
    /// over the stop kind and output range, with the lane's memory diffs
    /// patched in.
    fn digest_for(&self, lane: usize) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            digest ^= v;
            digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(1); // StopReason::Halted
        for addr in self.program.output_range.clone() {
            if let Some(ref_v) = self.cpu.mem(addr) {
                mix(u64::from(self.get_mem(lane, addr, ref_v)));
            }
        }
        digest
    }

    fn run(mut self) -> Vec<Outcome> {
        let n = self.faults.len();
        // Injection schedule: lanes ordered by fault cycle, applied just
        // before the executed-step counter reaches it — exactly
        // `run_with_fault`'s pre-step check.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&l| self.faults[l].cycle);
        let mut next = 0usize;
        let mut executed: u64 = 0;
        let stop = loop {
            while next < n && self.faults[order[next]].cycle <= executed {
                let lane = order[next];
                next += 1;
                if self.active >> lane & 1 == 1 {
                    self.inject(lane);
                }
            }
            if self.active == 0 {
                break None;
            }
            // Replicate `Cpu::step`'s entry checks against the shared state.
            if self.cpu.cycles() >= self.cpu.max_cycles() {
                break Some(StopReason::CycleLimit);
            }
            if self.cpu.pc() >= self.program.len() {
                break Some(StopReason::BadPc);
            }
            if let Some(stop) = self.step_lanes() {
                break Some(stop);
            }
            executed += 1;
        };
        if let Some(stop) = stop {
            self.finish_attached(stop);
        }
        (0..n)
            .map(|l| self.outcomes[l].expect("every lane classified"))
            .collect()
    }

    /// Executes one reference step and the per-lane divergence bookkeeping.
    /// Returns the reference's stop reason when it ends on this step; the
    /// caller then finishes the remaining attached lanes.
    #[allow(clippy::too_many_lines)]
    fn step_lanes(&mut self) -> Option<StopReason> {
        let pc = self.cpu.pc();
        let instr = self.program.instrs[pc];
        let protected = self.protection.covers(pc);
        let guard_active = !self.protection.is_empty();
        let is_guard = guard_active && (instr.is_store() || instr.is_branch());
        let srcs = instr.sources_fixed();

        // Which lanes can behave differently from the reference here: any
        // lane whose source registers diverge (shadow divergence matters
        // only where shadow state is read — protected compute and guard
        // compares).
        let mut affected: u64 = 0;
        for r in srcs.into_iter().flatten() {
            affected |= self.reg_diff[r.index()];
            if protected || is_guard {
                affected |= self.shadow_diff[r.index()];
            }
        }
        affected &= self.active;

        // Protection guard: stores and branches compare sources against
        // the shadow file before executing. The reference (and every
        // unaffected lane) passes by construction; affected lanes check
        // for real and drop out Detected on mismatch.
        if is_guard && affected != 0 {
            let mut m = affected;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                for r in srcs.into_iter().flatten() {
                    if self.get_reg(lane, r) != self.get_shadow(lane, r) {
                        self.finish_lane(lane, Outcome::Detected);
                        break;
                    }
                }
            }
            affected &= self.active;
        }

        match instr {
            Instr::Add(..)
            | Instr::Sub(..)
            | Instr::Mul(..)
            | Instr::And(..)
            | Instr::Or(..)
            | Instr::Xor(..)
            | Instr::Sll(..)
            | Instr::Srl(..)
            | Instr::Addi(..) => {
                let rd = instr.dest().expect("ALU writes a register").index();
                // Lane results from the pre-step view.
                let mut vals = [0u32; MAX_LANES];
                let mut svals = [0u32; MAX_LANES];
                let mut m = affected;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    vals[lane] = alu_value(instr, |r| self.get_reg(lane, r));
                    svals[lane] = if protected {
                        alu_value(instr, |r| self.get_shadow(lane, r))
                    } else {
                        vals[lane]
                    };
                }
                let info = self.cpu.step(self.program, self.protection);
                debug_assert!(info.stop.is_none(), "ALU never stops");
                let ref_v = info.wrote.expect("ALU writes").1;
                // Every live lane (affected or not) now holds a value in
                // rd; only affected lanes can differ from the reference.
                let mut new_rd = 0u64;
                let mut new_srd = 0u64;
                m = affected;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if vals[lane] != ref_v {
                        new_rd |= 1u64 << lane;
                        self.reg_val[rd][lane] = vals[lane];
                    }
                    if svals[lane] != ref_v {
                        new_srd |= 1u64 << lane;
                        self.shadow_val[rd][lane] = svals[lane];
                    }
                }
                self.reg_diff[rd] = new_rd;
                self.shadow_diff[rd] = new_srd;
                None
            }
            Instr::Ld(rd_reg, base, off) => {
                let mem_len = self.cpu.mem_words().len();
                let ref_addr = addr_of(self.cpu.reg(base), off, mem_len);
                let Some(ra) = ref_addr else {
                    // The reference crashes here. Affected lanes get their
                    // own fate: out-of-bounds crashes too, in-bounds keeps
                    // running — detached from the (dead) reference.
                    let mut m = affected;
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        m &= m - 1;
                        match addr_of(self.get_reg(lane, base), off, mem_len) {
                            Some(_) => self.detach(lane, None),
                            None => self.finish_lane(lane, Outcome::Crash),
                        }
                    }
                    return Some(StopReason::OutOfBounds);
                };
                // Lanes differing at the reference's load address read a
                // different value even with an identical base register.
                if let Some(cell) = self.mem_diff.get(&ra) {
                    affected |= cell.mask & self.active;
                }
                let ref_at_ra = self.cpu.mem(ra).expect("in bounds");
                let mut vals = [0u32; MAX_LANES];
                let mut crashed = 0u64;
                let mut m = affected;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    match addr_of(self.get_reg(lane, base), off, mem_len) {
                        Some(la) if la == ra => vals[lane] = self.get_mem(lane, ra, ref_at_ra),
                        Some(la) => {
                            let ref_at_la = self.cpu.mem(la).expect("in bounds");
                            vals[lane] = self.get_mem(lane, la, ref_at_la);
                        }
                        None => crashed |= 1u64 << lane,
                    }
                }
                let info = self.cpu.step(self.program, self.protection);
                debug_assert!(info.stop.is_none(), "reference address in bounds");
                let ref_v = info.wrote.expect("load writes").1;
                let mut mc = crashed;
                while mc != 0 {
                    let lane = mc.trailing_zeros() as usize;
                    mc &= mc - 1;
                    self.finish_lane(lane, Outcome::Crash);
                }
                let rd = rd_reg.index();
                let mut new_rd = 0u64;
                m = affected & self.active;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if vals[lane] != ref_v {
                        new_rd |= 1u64 << lane;
                        self.reg_val[rd][lane] = vals[lane];
                        self.shadow_val[rd][lane] = vals[lane];
                    }
                }
                // Loads write regs and shadow identically.
                self.reg_diff[rd] = new_rd;
                self.shadow_diff[rd] = new_rd;
                None
            }
            Instr::St(src, base, off) => {
                let mem_len = self.cpu.mem_words().len();
                let ref_addr = addr_of(self.cpu.reg(base), off, mem_len);
                let Some(ra) = ref_addr else {
                    let mut m = affected;
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        m &= m - 1;
                        match addr_of(self.get_reg(lane, base), off, mem_len) {
                            Some(_) => self.detach(lane, None),
                            None => self.finish_lane(lane, Outcome::Crash),
                        }
                    }
                    return Some(StopReason::OutOfBounds);
                };
                let ref_v = self.cpu.reg(src);
                let ref_old = self.cpu.mem(ra).expect("in bounds");
                // Per-lane store plans from the pre-step view.
                let mut laddr = [0usize; MAX_LANES];
                let mut lval = [0u32; MAX_LANES];
                let mut lold = [0u32; MAX_LANES];
                let mut lref_at = [0u32; MAX_LANES];
                let mut crashed = 0u64;
                let mut m = affected;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    match addr_of(self.get_reg(lane, base), off, mem_len) {
                        Some(la) => {
                            laddr[lane] = la;
                            lval[lane] = self.get_reg(lane, src);
                            lold[lane] = self.get_mem(lane, ra, ref_old);
                            // The reference only writes `ra`, so its value
                            // at any other address is the pre-step one.
                            lref_at[lane] = self.cpu.mem(la).expect("in bounds");
                        }
                        None => crashed |= 1u64 << lane,
                    }
                }
                let info = self.cpu.step(self.program, self.protection);
                debug_assert!(info.stop.is_none(), "reference address in bounds");
                let mut mc = crashed;
                while mc != 0 {
                    let lane = mc.trailing_zeros() as usize;
                    mc &= mc - 1;
                    self.finish_lane(lane, Outcome::Crash);
                }
                let survivors = affected & self.active;
                // Unaffected lanes stored the same value at the same
                // address as the reference: any stale diff there clears.
                self.mem_clear_mask(ra, self.active & !survivors);
                let mut ms = survivors;
                while ms != 0 {
                    let lane = ms.trailing_zeros() as usize;
                    ms &= ms - 1;
                    let (la, lv) = (laddr[lane], lval[lane]);
                    if la == ra {
                        self.mem_set(lane, ra, lv, ref_v);
                    } else {
                        self.mem_set(lane, ra, lold[lane], ref_v);
                        self.mem_set(lane, la, lv, lref_at[lane]);
                    }
                }
                None
            }
            Instr::Beq(a, b, _) | Instr::Bne(a, b, _) | Instr::Blt(a, b, _) => {
                let ref_taken = branch_taken(instr, self.cpu.reg(a), self.cpu.reg(b));
                let mut m = affected;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let taken = branch_taken(instr, self.get_reg(lane, a), self.get_reg(lane, b));
                    if taken != ref_taken {
                        self.detach(lane, None);
                    }
                }
                let info = self.cpu.step(self.program, self.protection);
                debug_assert!(info.stop.is_none(), "branches never stop");
                None
            }
            Instr::Jmp(_) | Instr::Nop => {
                let info = self.cpu.step(self.program, self.protection);
                debug_assert!(info.stop.is_none(), "jmp/nop never stop");
                None
            }
            Instr::Halt => {
                // No state changes: attached lanes halt exactly like the
                // reference, differing only through their memory diffs.
                Some(StopReason::Halted)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::run_golden;
    use crate::fault::run_with_fault;
    use crate::workload;
    use lori_core::rng::Rng;

    /// Random mixed-target specs in a fixed order, covering edge cycles.
    fn mixed_specs(
        rng: &mut Rng,
        golden: &ExecResult,
        mem_words: usize,
        n: usize,
    ) -> Vec<FaultSpec> {
        (0..n)
            .map(|i| {
                let cycle = match i {
                    0 => 0,
                    1 => golden.cycles,
                    2 => golden.cycles.saturating_sub(1),
                    _ => rng.below(golden.cycles.max(1) + 2),
                };
                let target = match rng.below(4) {
                    0 => FaultTarget::Pc {
                        bit: u8::try_from(rng.below(16)).unwrap(),
                    },
                    1 => FaultTarget::Memory {
                        addr: rng.below(mem_words as u64 + 8) as usize,
                        bit: u8::try_from(rng.below(32)).unwrap(),
                    },
                    _ => FaultTarget::Register {
                        reg: Reg::new(u8::try_from(rng.below(NUM_REGS as u64)).unwrap()).unwrap(),
                        bit: u8::try_from(rng.below(32)).unwrap(),
                    },
                };
                FaultSpec { target, cycle }
            })
            .collect()
    }

    #[test]
    fn block_matches_scalar_across_workloads_and_protections() {
        let config = CpuConfig::default();
        for (w, program) in workload::all().iter().enumerate() {
            let golden = run_golden(program, &config);
            let protections = [
                Protection::none(),
                Protection::full(program),
                Protection::for_instructions(program, (0..program.len()).step_by(3)).unwrap(),
            ];
            for (p, protection) in protections.iter().enumerate() {
                let mut rng = Rng::from_seed(0x1a9e + w as u64 * 31 + p as u64);
                let specs = mixed_specs(&mut rng, &golden, config.memory_words, 64);
                let scalar: Vec<Outcome> = specs
                    .iter()
                    .map(|f| run_with_fault(program, &config, protection, &golden, f))
                    .collect();
                let lanes = run_fault_block(program, &config, protection, &golden, &specs);
                assert_eq!(scalar, lanes, "{} protection #{p}", program.name);
            }
        }
    }

    #[test]
    fn ragged_and_narrow_blocks_match_scalar() {
        let config = CpuConfig::default();
        let program = &workload::all()[1]; // bubble_sort: branch-heavy
        let golden = run_golden(program, &config);
        let protection = Protection::for_instructions(program, 0..program.len() / 2).unwrap();
        let mut rng = Rng::from_seed(0xbeef);
        let specs = mixed_specs(&mut rng, &golden, config.memory_words, 100);
        let scalar: Vec<Outcome> = specs
            .iter()
            .map(|f| run_with_fault(program, &config, &protection, &golden, f))
            .collect();
        for n in [2, 7, 33] {
            let blocks: Vec<Outcome> = specs
                .chunks(n)
                .flat_map(|block| run_fault_block(program, &config, &protection, &golden, block))
                .collect();
            assert_eq!(scalar, blocks, "block size {n}");
        }
        for threads in [1, 4] {
            let campaign = campaign_outcomes(
                program,
                &config,
                &protection,
                &golden,
                &specs,
                Parallelism::new(threads),
            );
            assert_eq!(scalar, campaign, "threads {threads}");
        }
    }
}
