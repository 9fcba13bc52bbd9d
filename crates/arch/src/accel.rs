//! Sound affine loop acceleration for detached fault-trial replay.
//!
//! A detached lane (see [`crate::lane`]) replays the rest of its trial on a
//! private scalar [`Cpu`]. Faulty trials routinely wander into long loops —
//! a flipped loop bound walks an index over millions of iterations before
//! the cycle budget expires (`Hang`) or an address leaves memory (`Crash`)
//! — and stepping those loops one instruction at a time dominates campaign
//! wall time. [`replay`] collapses them *without changing a single
//! outcome*:
//!
//! 1. **Probe** one loop period concretely: anchor at the smallest pc seen
//!    in a short observation window (the head of the outermost steady loop,
//!    so nested loops expose their full outer period), then step until
//!    control returns to the anchor, recording the pc trace, load/store
//!    addresses, and stored values.
//! 2. **Validate** the period symbolically. Hypothesising that the state at
//!    the start of period `p` is `S + p·Δ` (per-register wrapping stride
//!    `Δ` measured from the probe), every traced instruction is re-executed
//!    over affine values `c + p·d (mod 2³²)`. Add/Sub/Addi and
//!    multiplication by a period-invariant factor are exact in this domain;
//!    anything else poisons its destination. Registers whose end-of-period
//!    value fails to reproduce `S + (p+1)·Δ` are poisoned and the pass
//!    repeats to a fixed point. Poisoned values are *inert data*: the
//!    moment one feeds a branch, an address, or a stored value, the attempt
//!    aborts.
//! 3. **Bound** the skip. For every traced branch the first period whose
//!    outcome differs (exact i64 linear arithmetic inside each operand's
//!    no-wrap window) caps validity; a striding access's first
//!    out-of-bounds period and the cycle budget's expiry period are
//!    *fates* — periods in which the run provably stops. A striding load
//!    whose whole in-bounds progression holds a single value (a wander
//!    across the untouched zero region) reads that constant; otherwise it
//!    poisons its destination. With a fully affine boundary the engine may
//!    skip to the earliest violation or fate; with poisoned registers it
//!    may skip only when a fate strictly precedes every violation, since
//!    then the trial dies — on a stop whose classification reads memory and
//!    stop reason, never registers — before any poisoned value becomes
//!    observable.
//! 4. **Teleport**: `regs += p·Δ`, `cycles += p·period`, memory and pc
//!    untouched. Stores must be provably idempotent — a constant value
//!    written to a constant address that already holds it, or a constant
//!    value striding across a region that holds it everywhere — or the
//!    attempt aborts. The fated or diverging period then executes
//!    concretely, so the stop reason, stop cycle, output, and digest are
//!    bit-identical to the unaccelerated run.
//!
//! Acceleration only engages when no protection is configured (shadow
//! state is never read then); protected replays take the plain path. The
//! scalar reference (`run_with_fault`) never calls into this module — it
//! stays the test oracle and the measured baseline.

use crate::cpu::{Cpu, ExecResult, Protection};
use crate::isa::{Instr, Program, Reg, NUM_REGS};

/// Replay steps before the first acceleration attempt. Most divergent
/// trials halt or crash quickly; only long wanderers reach a probe.
const WARMUP: u64 = 256;
/// Longest loop period the probe will chase, in instructions.
const MAX_PERIOD: usize = 512;
/// Skips shorter than this are not worth a teleport.
const MIN_SKIP: u64 = 4;
/// Attempt delay after a successful skip (a new loop phase often follows).
const RETRY: u64 = 128;

/// Runs a detached trial to completion, accelerating steady loops.
/// Bit-identical to `cpu.run(program, protection)` — same stop reason,
/// stop cycle, output, and digest.
pub(crate) fn replay(mut cpu: Cpu, program: &Program, protection: &Protection) -> ExecResult {
    if !protection.is_empty() {
        return cpu.run(program, protection);
    }
    let mut steps: u64 = 0;
    let mut next_attempt = WARMUP;
    let mut last_anchor: Option<usize> = None;
    loop {
        let info = cpu.step(program, protection);
        if let Some(stop) = info.stop {
            return cpu.finish(program, stop);
        }
        steps += 1;
        if steps >= next_attempt {
            match try_accelerate(&mut cpu, program, protection, &mut steps, &mut last_anchor) {
                Ok(true) => next_attempt = steps + RETRY,
                Ok(false) => next_attempt = steps.saturating_mul(2),
                Err(stop) => return cpu.finish(program, stop),
            }
        }
    }
}

/// One recorded probe step: the pc executed, plus the resolved address and
/// stored value for memory instructions.
struct Probe {
    pc: usize,
    addr: usize,
    st_val: u32,
}

/// A register's value as a function of the period index `p`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Sym {
    /// `value(p) = c + p·d (mod 2³²)`; `d == 0` means period-invariant.
    Aff { c: u32, d: u32 },
    /// Not affine in `p` — inert data, unusable for control or memory.
    Poison,
}

fn aff(c: u32, d: u32) -> Sym {
    Sym::Aff { c, d }
}

/// A stride reinterpreted as a signed step for exact i64 modelling.
fn signed(d: u32) -> i64 {
    #[allow(clippy::cast_possible_wrap)]
    i64::from(d as i32)
}

/// Last period index for which `c + p·signed(d)` has stayed inside
/// `[0, 2³²)` — the window where the linear i64 model equals the wrapping
/// u32 value.
fn horizon(c: u32, d: u32) -> u64 {
    let ds = signed(d);
    #[allow(clippy::cast_sign_loss)]
    if ds == 0 {
        u64::MAX
    } else if ds > 0 {
        ((0xFFFF_FFFF_i64 - i64::from(c)) / ds) as u64
    } else {
        (i64::from(c) / -ds) as u64
    }
}

/// Everything `analyze` learns from one symbolic pass.
struct PassOut {
    fin: [Sym; NUM_REGS],
    /// First period index at which validity may break (branch flip or a
    /// value leaving its no-wrap window).
    viol: u64,
    /// First period index in which the run provably stops (cycle budget or
    /// a striding access leaving memory).
    fate: u64,
    /// Idempotence obligations: `addr -> last stored value` per period.
    stores: Vec<(usize, u32)>,
}

/// Attempts acceleration at the current execution point. `Ok(true)` means
/// state was teleported at least once; `Ok(false)` means no (or no
/// worthwhile) skip; `Err` is a stop that fired while seeking or probing
/// (those steps are real execution). A teleport leaves the pc at the
/// anchor, so after each success the same anchor is re-probed immediately —
/// a long wander collapses in a handful of probes even when individual
/// skips are capped by the scan window.
fn try_accelerate(
    cpu: &mut Cpu,
    program: &Program,
    protection: &Protection,
    steps: &mut u64,
    last_anchor: &mut Option<usize>,
) -> Result<bool, crate::cpu::StopReason> {
    if !seek_anchor(cpu, program, protection, steps, last_anchor)? {
        return Ok(false);
    }
    let mut skipped = false;
    while probe_and_skip(cpu, program, protection, steps)? {
        skipped = true;
        *last_anchor = Some(cpu.pc());
    }
    if !skipped {
        *last_anchor = None;
    }
    Ok(skipped)
}

/// Steps until the pc equals `target`, bounded by one probe window.
fn walk_to(
    cpu: &mut Cpu,
    program: &Program,
    protection: &Protection,
    steps: &mut u64,
    target: usize,
) -> Result<bool, crate::cpu::StopReason> {
    for _ in 0..MAX_PERIOD {
        if cpu.pc() == target {
            return Ok(true);
        }
        let info = cpu.step(program, protection);
        *steps += 1;
        if let Some(stop) = info.stop {
            return Err(stop);
        }
    }
    Ok(cpu.pc() == target)
}

/// Positions the pc on a probe anchor: the previously successful anchor if
/// it is still reachable, else the smallest pc visited in an observation
/// window — the head of the outermost steady loop, so nested loops expose
/// their full outer period rather than a single inner iteration.
fn seek_anchor(
    cpu: &mut Cpu,
    program: &Program,
    protection: &Protection,
    steps: &mut u64,
    last_anchor: &mut Option<usize>,
) -> Result<bool, crate::cpu::StopReason> {
    if let Some(a) = *last_anchor {
        if walk_to(cpu, program, protection, steps, a)? {
            return Ok(true);
        }
        *last_anchor = None;
    }
    let mut min_pc = cpu.pc();
    for _ in 0..MAX_PERIOD {
        let info = cpu.step(program, protection);
        *steps += 1;
        if let Some(stop) = info.stop {
            return Err(stop);
        }
        min_pc = min_pc.min(cpu.pc());
    }
    walk_to(cpu, program, protection, steps, min_pc)
}

/// One probe-validate-teleport attempt anchored at the current pc.
fn probe_and_skip(
    cpu: &mut Cpu,
    program: &Program,
    protection: &Protection,
    steps: &mut u64,
) -> Result<bool, crate::cpu::StopReason> {
    let anchor_pc = cpu.pc();
    let s0 = cpu.reg_snapshot();
    let mem_len = cpu.mem_words().len();

    // Probe one period: step until control returns to the anchor.
    let mut trace: Vec<Probe> = Vec::new();
    loop {
        if trace.len() >= MAX_PERIOD {
            return Ok(false);
        }
        let pc = cpu.pc();
        let mut rec = Probe {
            pc,
            addr: usize::MAX,
            st_val: 0,
        };
        if pc < program.len() {
            match program.instrs[pc] {
                Instr::Ld(_, base, off) => {
                    if let Some(a) = addr_checked(cpu.reg(base), off, mem_len) {
                        rec.addr = a;
                    }
                }
                Instr::St(src, base, off) => {
                    if let Some(a) = addr_checked(cpu.reg(base), off, mem_len) {
                        rec.addr = a;
                    }
                    rec.st_val = cpu.reg(src);
                }
                _ => {}
            }
        }
        let info = cpu.step(program, protection);
        *steps += 1;
        if let Some(stop) = info.stop {
            return Err(stop);
        }
        trace.push(rec);
        if cpu.pc() == anchor_pc {
            break;
        }
    }

    let s1 = cpu.reg_snapshot();
    let mut delta = [0u32; NUM_REGS];
    for r in 0..NUM_REGS {
        delta[r] = s1[r].wrapping_sub(s0[r]);
    }
    let period = trace.len() as u64;
    let p_budget = cpu.max_cycles().saturating_sub(cpu.cycles()) / period;

    // Two analysis modes, poison-first: treating striding loads as poison
    // costs no scans and lets a fate-bound skip run to its full length,
    // while the uniform-region mode (striding loads over single-valued
    // memory read a constant) validates control that depends on them at
    // the price of a scan-capped skip. The first mode to produce a
    // worthwhile plan wins.
    let mut plan: Option<(u64, [bool; NUM_REGS])> = None;
    'modes: for assume_uniform in [false, true] {
        // Poison fixed point: registers whose end-of-period symbol fails
        // to reproduce the affine hypothesis are untrusted, and distrust
        // spreads.
        let mut bad = [false; NUM_REGS];
        let out = loop {
            let Some(out) = analyze(
                cpu,
                program,
                &trace,
                &s1,
                &delta,
                &bad,
                p_budget,
                assume_uniform,
            ) else {
                continue 'modes;
            };
            let mut grew = false;
            for r in 0..NUM_REGS {
                let want = aff(s1[r].wrapping_add(delta[r]), delta[r]);
                if !bad[r] && out.fin[r] != want {
                    bad[r] = true;
                    grew = true;
                }
            }
            if !grew {
                break out;
            }
        };

        // Memory must be period-invariant: every store re-writes what
        // memory already holds.
        if out.stores.iter().any(|&(addr, v)| cpu.mem(addr) != Some(v)) {
            continue 'modes;
        }

        let clean = !bad.iter().any(|&b| b);
        let p_skip = if clean {
            out.viol.min(out.fate)
        } else if out.fate < out.viol {
            // Poisoned registers are only unobservable if the trial
            // provably stops (on a memory-and-stop-reason classification)
            // while the trace is still valid.
            out.fate
        } else {
            continue 'modes;
        };
        if p_skip >= MIN_SKIP {
            plan = Some((p_skip, bad));
            break 'modes;
        }
    }
    let Some((p_skip, bad)) = plan else {
        return Ok(false);
    };

    let mut regs = s1;
    for r in 0..NUM_REGS {
        if !bad[r] {
            // Δ·p mod 2³² — poisoned registers keep their (inert) values.
            #[allow(clippy::cast_possible_truncation)]
            let stride = u64::from(delta[r]).wrapping_mul(p_skip) as u32;
            regs[r] = s1[r].wrapping_add(stride);
        }
    }
    cpu.time_warp(regs, p_skip * period);
    Ok(true)
}

/// The effective address of a memory access, `None` when out of bounds —
/// mirrors `Cpu::addr`.
fn addr_checked(base: u32, offset: i32, mem_len: usize) -> Option<usize> {
    let a = i64::from(base) + i64::from(offset);
    if a < 0 || a as usize >= mem_len {
        None
    } else {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(a as usize)
    }
}

/// First period index at which the striding access `a0 + p·ds` leaves
/// `[0, mem_len)`.
#[allow(clippy::cast_sign_loss, clippy::cast_possible_wrap)]
fn first_oob(a0: i64, ds: i64, mem_len: usize) -> u64 {
    if a0 < 0 || a0 >= mem_len as i64 {
        0
    } else if ds > 0 {
        ((mem_len as i64 - a0) + ds - 1).div_euclid(ds) as u64
    } else {
        (a0 / -ds + 1) as u64
    }
}

/// Longest scan per striding access, in periods. A capped scan turns into
/// a validity bound rather than an abort, and the immediate re-probe after
/// each teleport picks up where the window ended.
const SCAN_CAP: u64 = 1024;

/// Length of the leading run of words along the progression `a0 + p·ds`
/// that hold `v`, scanning at most `min(n, SCAN_CAP)` periods. The caller
/// guarantees `a0 + p·ds` is in bounds for `p < n`.
fn uniform_prefix(cpu: &Cpu, a0: i64, ds: i64, n: u64, v: u32) -> u64 {
    let n = n.min(SCAN_CAP);
    let mut a = a0;
    for p in 0..n {
        #[allow(clippy::cast_sign_loss)]
        if cpu.mem(a as usize) != Some(v) {
            return p;
        }
        a += ds;
    }
    n
}

/// One symbolic pass over the probed trace. Returns `None` when the period
/// cannot be modelled at all (poison reaching control or memory, a
/// non-constant store, a constant address that moved).
#[allow(clippy::too_many_lines)]
#[allow(clippy::too_many_arguments)]
fn analyze(
    cpu: &Cpu,
    program: &Program,
    trace: &[Probe],
    s1: &[u32; NUM_REGS],
    delta: &[u32; NUM_REGS],
    bad: &[bool; NUM_REGS],
    p_budget: u64,
    assume_uniform: bool,
) -> Option<PassOut> {
    let mem_len = cpu.mem_words().len();
    let mut syms = [Sym::Poison; NUM_REGS];
    for r in 0..NUM_REGS {
        if !bad[r] {
            syms[r] = aff(s1[r], delta[r]);
        }
    }
    let mut stores: Vec<(usize, u32)> = Vec::new();
    let mut viol = u64::MAX;
    let mut fate = p_budget;

    let get = |syms: &[Sym; NUM_REGS], r: Reg| syms[r.index()];
    for (i, rec) in trace.iter().enumerate() {
        let instr = program.instrs[rec.pc];
        let next_pc = if i + 1 < trace.len() {
            trace[i + 1].pc
        } else {
            trace[0].pc
        };
        match instr {
            Instr::Add(rd, a, b)
            | Instr::Sub(rd, a, b)
            | Instr::Mul(rd, a, b)
            | Instr::And(rd, a, b)
            | Instr::Or(rd, a, b)
            | Instr::Xor(rd, a, b)
            | Instr::Sll(rd, a, b)
            | Instr::Srl(rd, a, b) => {
                syms[rd.index()] = alu_sym(instr, get(&syms, a), get(&syms, b));
            }
            Instr::Addi(rd, a, imm) => {
                #[allow(clippy::cast_sign_loss)]
                let v = match get(&syms, a) {
                    Sym::Aff { c, d } => aff(c.wrapping_add(imm as u32), d),
                    Sym::Poison => Sym::Poison,
                };
                syms[rd.index()] = v;
            }
            Instr::Ld(rd, base, off) => match get(&syms, base) {
                Sym::Aff { c, d: 0 } => {
                    // Constant address: must match the probe and stay in
                    // bounds; the loaded value is period-invariant.
                    let addr = addr_checked(c, off, mem_len)?;
                    if addr != rec.addr {
                        return None;
                    }
                    let v = stores
                        .iter()
                        .rev()
                        .find(|&&(a, _)| a == addr)
                        .map(|&(_, v)| v)
                        .or_else(|| cpu.mem(addr))?;
                    syms[rd.index()] = aff(v, 0);
                }
                Sym::Aff { c, d } => {
                    // Striding address: the first out-of-bounds period is a
                    // fate. In uniform mode a load across single-valued
                    // memory (a wander over the untouched zero region)
                    // reads that constant, valid as far as the scan
                    // confirmed; otherwise the value is poison.
                    let a0 = i64::from(c) + i64::from(off);
                    let ds = signed(d);
                    let p_oob = first_oob(a0, ds, mem_len);
                    if p_oob <= horizon(c, d) {
                        fate = fate.min(p_oob);
                    } else {
                        viol = viol.min(horizon(c, d).saturating_add(1));
                    }
                    syms[rd.index()] = if assume_uniform && p_oob > 0 {
                        #[allow(clippy::cast_sign_loss)]
                        let v = cpu.mem(a0 as usize)?;
                        let k = uniform_prefix(cpu, a0, ds, p_oob, v);
                        if k < p_oob {
                            viol = viol.min(k);
                        }
                        aff(v, 0)
                    } else {
                        Sym::Poison
                    };
                }
                Sym::Poison => return None,
            },
            Instr::St(src, base, off) => match (get(&syms, base), get(&syms, src)) {
                (Sym::Aff { c: cb, d: 0 }, Sym::Aff { c: cv, d: 0 }) => {
                    let addr = addr_checked(cb, off, mem_len)?;
                    if addr != rec.addr {
                        return None;
                    }
                    stores.push((addr, cv));
                }
                (Sym::Aff { c: cb, d }, Sym::Aff { c: cv, d: 0 }) => {
                    // Striding idempotent store: one constant re-written
                    // over a region that already holds it, so memory stays
                    // invariant as far as the scan confirmed; the first
                    // out-of-bounds period is a fate.
                    let a0 = i64::from(cb) + i64::from(off);
                    let ds = signed(d);
                    let p_oob = first_oob(a0, ds, mem_len);
                    if p_oob <= horizon(cb, d) {
                        fate = fate.min(p_oob);
                    } else {
                        viol = viol.min(horizon(cb, d).saturating_add(1));
                    }
                    let k = uniform_prefix(cpu, a0, ds, p_oob, cv);
                    if k < p_oob {
                        viol = viol.min(k);
                    }
                }
                _ => return None,
            },
            Instr::Beq(a, b, off) | Instr::Bne(a, b, off) | Instr::Blt(a, b, off) => {
                if off == 0 {
                    continue; // Taken and fall-through coincide.
                }
                let (Sym::Aff { c: ca, d: da }, Sym::Aff { c: cb, d: db }) =
                    (get(&syms, a), get(&syms, b))
                else {
                    return None;
                };
                let taken = next_pc != rec.pc + 1;
                for (c, d) in [(ca, da), (cb, db)] {
                    if d != 0 {
                        viol = viol.min(horizon(c, d).saturating_add(1));
                    }
                }
                match branch_first_flip(instr, (ca, da), (cb, db), taken) {
                    Flip::Never => {}
                    Flip::At(p) => viol = viol.min(p),
                    Flip::Immediate => return None,
                }
            }
            Instr::Jmp(_) | Instr::Nop => {}
            Instr::Halt => return None, // A halting period never re-probes.
        }
    }

    Some(PassOut {
        fin: syms,
        viol,
        fate,
        stores,
    })
}

/// Symbolic ALU over affine values: exact mod 2³² for linear forms,
/// poison otherwise.
fn alu_sym(instr: Instr, a: Sym, b: Sym) -> Sym {
    let (Sym::Aff { c: ca, d: da }, Sym::Aff { c: cb, d: db }) = (a, b) else {
        return Sym::Poison;
    };
    match instr {
        Instr::Add(..) => aff(ca.wrapping_add(cb), da.wrapping_add(db)),
        Instr::Sub(..) => aff(ca.wrapping_sub(cb), da.wrapping_sub(db)),
        Instr::Mul(..) if da == 0 => aff(ca.wrapping_mul(cb), ca.wrapping_mul(db)),
        Instr::Mul(..) if db == 0 => aff(ca.wrapping_mul(cb), cb.wrapping_mul(da)),
        Instr::And(..) if da == 0 && db == 0 => aff(ca & cb, 0),
        Instr::Or(..) if da == 0 && db == 0 => aff(ca | cb, 0),
        Instr::Xor(..) if da == 0 && db == 0 => aff(ca ^ cb, 0),
        Instr::Sll(..) if da == 0 && db == 0 => aff(ca << (cb & 31), 0),
        Instr::Srl(..) if da == 0 && db == 0 => aff(ca >> (cb & 31), 0),
        _ => Sym::Poison,
    }
}

/// When a traced branch's outcome first differs from the probed one.
enum Flip {
    Never,
    At(u64),
    /// The symbolic period-0 outcome already disagrees with the probe —
    /// the loop is not steady yet.
    Immediate,
}

/// Exact first-flip computation inside both operands' no-wrap windows
/// (window exits are capped separately by the caller via [`horizon`]).
fn branch_first_flip(instr: Instr, a: (u32, u32), b: (u32, u32), taken: bool) -> Flip {
    let d0 = i64::from(a.0) - i64::from(b.0);
    let s = signed(a.1) - signed(b.1);
    #[allow(clippy::cast_sign_loss)]
    match instr {
        Instr::Blt(..) => {
            if (d0 < 0) != taken {
                return Flip::Immediate;
            }
            if taken {
                // diff < 0 holds until it climbs to 0.
                if s <= 0 {
                    Flip::Never
                } else {
                    Flip::At((((-d0) + s - 1) / s) as u64)
                }
            } else if s >= 0 {
                Flip::Never
            } else {
                Flip::At((d0 / -s + 1) as u64)
            }
        }
        Instr::Beq(..) | Instr::Bne(..) => {
            let want_equal = matches!(instr, Instr::Beq(..)) == taken;
            if (d0 == 0) != want_equal {
                return Flip::Immediate;
            }
            if want_equal {
                // Equality with any relative stride breaks in one period.
                if s == 0 {
                    Flip::Never
                } else {
                    Flip::At(1)
                }
            } else if s != 0 && (-d0) % s == 0 && (-d0) / s >= 1 {
                Flip::At(((-d0) / s) as u64)
            } else {
                Flip::Never
            }
        }
        _ => unreachable!("not a conditional branch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{run_golden, CpuConfig, StopReason};
    use crate::isa::{r, Program};
    use crate::workload;

    /// Builds a CPU that ran fault-free for `cycle` steps and then had one
    /// register bit flipped — the state a wandering trial replays from.
    fn faulty_cpu(program: &Program, config: &CpuConfig, cycle: u64, reg: u8, bit: u8) -> Cpu {
        let mut cpu = Cpu::new(program, config);
        let none = Protection::none();
        for _ in 0..cycle {
            let info = cpu.step(program, &none);
            assert!(info.stop.is_none(), "fault cycle within the golden run");
        }
        cpu.flip_register_bit(r(reg), bit);
        cpu
    }

    fn assert_replay_matches(program: &Program, config: &CpuConfig, cycle: u64, reg: u8, bit: u8) {
        let none = Protection::none();
        let plain = faulty_cpu(program, config, cycle, reg, bit).run(program, &none);
        let fast = replay(faulty_cpu(program, config, cycle, reg, bit), program, &none);
        assert_eq!(
            plain, fast,
            "{}: replay diverged for reg r{reg} bit {bit} at cycle {cycle}",
            program.name
        );
    }

    #[test]
    fn replay_matches_plain_run_across_workloads() {
        let config = CpuConfig::default();
        for program in workload::all() {
            let golden = run_golden(&program, &config);
            for (reg, bit) in [(1u8, 31u8), (2, 30), (3, 31), (4, 29), (5, 31), (5, 4)] {
                for cycle in [0, golden.cycles / 2, golden.cycles.saturating_sub(2)] {
                    assert_replay_matches(&program, &config, cycle, reg, bit);
                }
            }
        }
    }

    #[test]
    fn accelerates_pure_counter_hang_to_exact_cycle_limit() {
        // Counter climbs to an unreachable bound: a pure ALU hang whose
        // data register (the doubling accumulator) is non-affine poison.
        let program = Program::new(
            "hangs",
            vec![
                Instr::Addi(r(1), r(0), 0),   // i = 0
                Instr::Addi(r(2), r(0), 1),   // acc = 1
                Instr::Addi(r(3), r(0), 7),   // bound (never hit: i += 2)
                Instr::Add(r(2), r(2), r(2)), // L: acc *= 2  (poison)
                Instr::Addi(r(1), r(1), 2),
                Instr::Bne(r(1), r(3), -3),
                Instr::St(r(2), r(0), 0),
                Instr::Halt,
            ],
            vec![0],
            0..1,
        )
        .expect("valid program");
        let config = CpuConfig {
            max_cycles: 5_000_000,
            ..CpuConfig::default()
        };
        let none = Protection::none();
        let fast = replay(Cpu::new(&program, &config), &program, &none);
        let plain = Cpu::new(&program, &config).run(&program, &none);
        assert_eq!(plain, fast);
        assert_eq!(fast.stop, StopReason::CycleLimit);
    }

    #[test]
    fn accelerates_striding_load_to_exact_oob_crash() {
        // An index walks loads off the end of memory; the accumulated sum
        // is poison but the crash point and digest must stay exact.
        let program = Program::new(
            "strider",
            vec![
                Instr::Addi(r(1), r(0), 0), // idx
                Instr::Addi(r(2), r(0), 0), // acc
                Instr::Addi(r(3), r(0), 0), // bound 0: Bne loops ~2^32 times
                Instr::Ld(r(4), r(1), 0),   // L: a[idx] -> crashes at mem_len
                Instr::Add(r(2), r(2), r(4)),
                Instr::Addi(r(1), r(1), 1),
                Instr::Bne(r(1), r(3), -4),
                Instr::Halt,
            ],
            vec![3, 1, 4, 1, 5],
            0..1,
        )
        .expect("valid program");
        let config = CpuConfig::default();
        let none = Protection::none();
        let fast = replay(Cpu::new(&program, &config), &program, &none);
        let plain = Cpu::new(&program, &config).run(&program, &none);
        assert_eq!(plain, fast);
        assert_eq!(fast.stop, StopReason::OutOfBounds);
    }

    #[test]
    fn accelerates_finite_loop_and_preserves_digest() {
        // A long but finite counted loop that ends in a store and Halt: the
        // skip must land exactly where the exit branch flips so the stored
        // value (and digest) match the plain run.
        let program = Program::new(
            "finite",
            vec![
                Instr::Addi(r(1), r(0), 0),       // i
                Instr::Addi(r(2), r(0), 0),       // sum of constants
                Instr::Addi(r(3), r(0), 3),       // step
                Instr::Addi(r(4), r(1), 300_000), // bound
                Instr::Add(r(2), r(2), r(3)),     // L: sum += 3
                Instr::Addi(r(1), r(1), 1),
                Instr::Bne(r(1), r(4), -3),
                Instr::St(r(2), r(0), 0),
                Instr::Halt,
            ],
            vec![0],
            0..1,
        )
        .expect("valid program");
        let config = CpuConfig::default();
        let none = Protection::none();
        let fast = replay(Cpu::new(&program, &config), &program, &none);
        let plain = Cpu::new(&program, &config).run(&program, &none);
        assert_eq!(plain, fast);
        assert_eq!(fast.stop, StopReason::Halted);
        assert_eq!(fast.output, vec![900_000]);
    }

    #[test]
    fn idempotent_store_loop_accelerates() {
        // The loop body re-writes a constant to the same address each
        // period: memory is period-invariant, so the hang still skips.
        let program = Program::new(
            "idem",
            vec![
                Instr::Addi(r(1), r(0), 0), // i
                Instr::Addi(r(2), r(0), 9), // constant
                Instr::Addi(r(3), r(0), 1),
                Instr::St(r(2), r(0), 0), // L: mem[0] = 9 (idempotent)
                Instr::Add(r(1), r(1), r(3)),
                Instr::Bne(r(1), r(0), -2),
                Instr::Halt,
            ],
            vec![0],
            0..1,
        )
        .expect("valid program");
        let config = CpuConfig::default();
        let none = Protection::none();
        let fast = replay(Cpu::new(&program, &config), &program, &none);
        let plain = Cpu::new(&program, &config).run(&program, &none);
        assert_eq!(plain, fast);
        assert_eq!(fast.stop, StopReason::CycleLimit);
    }

    #[test]
    fn protected_replay_takes_the_plain_path() {
        let program = workload::fibonacci();
        let config = CpuConfig::default();
        let full = Protection::full(&program);
        let plain = Cpu::new(&program, &config).run(&program, &full);
        let fast = replay(Cpu::new(&program, &config), &program, &full);
        assert_eq!(plain, fast);
    }

    #[test]
    fn horizon_and_flip_math_edges() {
        assert_eq!(horizon(10, 0), u64::MAX);
        assert_eq!(horizon(0xFFFF_FFFE, 1), 1);
        assert_eq!(horizon(10, u32::MAX), 10); // stride -1
                                               // Blt taken, closing gap of 10 at +3/period: flips at ceil(10/3).
        let Flip::At(p) = branch_first_flip(Instr::Blt(r(1), r(2), -1), (0, 3), (10, 0), true)
        else {
            panic!("expected a flip")
        };
        assert_eq!(p, 4);
        // Bne not-taken at equality with stride: breaks next period.
        let Flip::At(p) = branch_first_flip(Instr::Bne(r(1), r(2), -1), (5, 1), (5, 0), false)
        else {
            panic!("expected a flip")
        };
        assert_eq!(p, 1);
        // Bne taken, counter meets bound exactly 7 periods out.
        let Flip::At(p) = branch_first_flip(Instr::Bne(r(1), r(2), -1), (3, 2), (17, 0), true)
        else {
            panic!("expected a flip")
        };
        assert_eq!(p, 7);
    }
}
