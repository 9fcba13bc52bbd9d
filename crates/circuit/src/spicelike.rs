//! The "golden" transient characterization engine.
//!
//! This is the stand-in for the foundry's calibrated SPICE setup: a
//! deliberately time-stepped transient simulation of a switching cell. The
//! output node is discharged by an alpha-power-law device (with a
//! linear/saturation region split), driven by a ramped input. Delay is
//! measured 50 %-input to 50 %-output; output slew is the 10–90 % transition
//! time scaled to the 0–100 % equivalent.
//!
//! The integration is forward Euler at 40 steps per ps (25 fs a step). The
//! step budget covers the input ramp plus 30 RC time constants, with a
//! floor of 20,000 steps, and the run stops at the 10 % output crossing:
//! an INV X1 arc at a 20 ps slew into 4 fF takes 6,305 steps, and Fig. 3's
//! golden calls average about 17,000. Every step is taken — no phase is
//! skipped in closed form — so the cost that experiment E2 weighs the ML
//! characterizer against is a genuine golden-model cost, counted by the
//! `circuit.transient.steps` metric, not a staged one. An arc whose budget
//! would exceed 10¹⁰ steps answers "cannot switch" without taking one.
//!
//! Each step computes only what changes in its phase of the transient
//! (input ramp, saturated at the rail, linear at the rail). The ramp runs
//! one arc at a time: it is bound by the throughput of its `powf`, which
//! interleaving does not raise. The two rail phases are chains of
//! dependent operations, a subtraction per step when saturated and two
//! divisions when linear, so [`GoldenSimulator::characterize_many`] steps
//! them for up to eight arcs of a batch at once, one arc per lane, and the
//! lanes' chains overlap; an arc that crosses a threshold, leaves its phase
//! or ends hands its lane to the next arc of the batch. Each lane's
//! arithmetic is its own arc's, so a batch gives every arc the steps and
//! the bits it gets alone. The single-loop form that recomputes the whole
//! device current at every step is kept as the test oracle.

use crate::cell::CellKind;
use crate::error::CircuitError;
use crate::tech::TechParams;
use lori_core::units::{Celsius, Volts};

#[cfg(test)]
mod oracle;

/// One characterization query: the full operating context of a cell arc.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Input transition time (0–100 %) in ps.
    pub slew_ps: f64,
    /// Output load in fF.
    pub load_ff: f64,
    /// Device temperature (chip + self-heating).
    pub temperature: Celsius,
    /// Aging-induced threshold shift.
    pub delta_vth: Volts,
}

/// The result of a transient characterization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArcTiming {
    /// Propagation delay (50 % in → 50 % out) in ps.
    pub delay_ps: f64,
    /// Output transition time (0–100 % equivalent) in ps.
    pub out_slew_ps: f64,
}

/// The largest step budget an arc may size: an arc whose budget exceeds
/// it answers "cannot switch" in 0 steps.
///
/// The budget grows without bound as `vth` nears `vdd`, because the drive
/// current falls as `(vdd − vth)^alpha`: INV X1 at 20 ps into 4 fF sizes
/// about 5.7·10⁸ steps at ΔVth 0.499 V (and takes 1.7·10⁷ of them),
/// 1.1·10¹⁰ at 0.4999 V and 2.3·10¹¹ at 0.49999 V. The largest budget
/// any test sizes is about 7.0·10⁸ steps (XOR2 at drive 0.001, an oracle
/// edge point; the oracle's random ranges reach about 5.3·10⁸), and the
/// binaries and the benchmark's workloads stay below 2.6·10⁶, so the
/// ceiling stands more than ten times above every one of them.
const STEP_CEILING: u64 = 10_000_000_000;

/// How many arcs step the rail phases together. Eight lanes hide most of
/// the division latency of the linear phase; four left some of it, and
/// sixteen were no faster.
const LANES: usize = 8;

/// The golden transient engine.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenSimulator {
    tech: TechParams,
    /// Integration steps per input-slew unit; total step count is
    /// `steps_per_ps × simulated time`, floored at `min_steps`.
    steps_per_ps: f64,
    min_steps: u64,
}

impl GoldenSimulator {
    /// Creates a simulator over the given technology.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] if the technology fails
    /// validation.
    pub fn new(tech: TechParams) -> Result<Self, CircuitError> {
        tech.validate()?;
        Ok(GoldenSimulator {
            tech,
            steps_per_ps: 40.0,
            min_steps: 20_000,
        })
    }

    /// The underlying technology parameters.
    #[must_use]
    pub fn tech(&self) -> &TechParams {
        &self.tech
    }

    /// Characterizes one arc of `kind` at `drive` under `op` by running the
    /// transient integration: [`GoldenSimulator::characterize_many`] on a
    /// batch of one.
    #[must_use]
    pub fn characterize(&self, kind: CellKind, drive: f64, op: &OperatingPoint) -> ArcTiming {
        self.characterize_many(&[(kind, drive, *op)])[0]
    }

    /// Characterizes every `(kind, drive, op)` arc of `arcs`, in order,
    /// stepping the rail phases of up to eight arcs together.
    ///
    /// Every arc gets the timing and takes the steps it would alone. An
    /// arc gets infinite delay and slew if the device cannot switch (e.g.
    /// catastrophic aging), and the same answer, without taking a step, if
    /// any field of its `op` is NaN or infinite or its step budget exceeds
    /// 10¹⁰ steps. The batch opens one `circuit.transient.characterize`
    /// span and adds its steps to `circuit.transient.steps`.
    #[must_use]
    pub fn characterize_many(&self, arcs: &[(CellKind, f64, OperatingPoint)]) -> Vec<ArcTiming> {
        let _span = lori_obs::span("circuit.transient.characterize");
        let runs = self.transients(arcs);
        lori_obs::counter("circuit.transient.steps").incr(runs.iter().map(|r| r.steps).sum());
        runs.into_iter().map(|r| r.timing).collect()
    }

    /// The transients behind [`GoldenSimulator::characterize_many`].
    ///
    /// `t` only grows and `v_out` only falls, so a transient passes through
    /// three phases in order (with `dt ≤ 0` it never leaves the first), and
    /// each computes per step only what changes per step:
    /// 1. the input ramp, while `vdd·t/slew < vdd`: the current is
    ///    `k · overdrive^alpha`, one `powf` per step;
    /// 2. the input at the rail with the device saturated
    ///    (`v_out ≥ vdsat`): the current is `i_sat_ua`, so each step
    ///    subtracts one constant;
    /// 3. the input at the rail in the linear region: `i_sat_ua` scaled by
    ///    `v_out / vdsat`.
    ///
    /// Each arc runs its ramp alone, in batch order; then every arc still
    /// saturated goes through the saturated lanes, and every arc in its
    /// linear region through the linear lanes. Every floating-point
    /// operation keeps the operands and the order of the single-loop form
    /// that recomputes the whole current at every step (the test oracle),
    /// so the steps and the bits are the same.
    fn transients(&self, arcs: &[(CellKind, f64, OperatingPoint)]) -> Vec<Transient> {
        let mut runs = Vec::with_capacity(arcs.len());
        let mut saturated = Vec::new();
        let mut linear = Vec::new();
        for (index, &(kind, drive, op)) in arcs.iter().enumerate() {
            match self.ramp(index, kind, drive, &op) {
                Ramped::Done(run) => runs.push(run),
                Ramped::AtRail(arc) => {
                    // Where the arc stands now, until it ends on the rail.
                    runs.push(arc.finish());
                    if arc.v_out >= arc.vdsat {
                        saturated.push(arc);
                    } else {
                        linear.push(arc);
                    }
                }
            }
        }
        step_rail(Rail::Saturated, &mut saturated, &mut runs, &mut linear);
        step_rail(Rail::Linear, &mut linear, &mut runs, &mut Vec::new());
        runs
    }

    /// Sizes one arc's transient and runs its input ramp.
    fn ramp(&self, index: usize, kind: CellKind, drive: f64, op: &OperatingPoint) -> Ramped {
        let vdd = self.tech.vdd.value();
        let fields = [
            op.slew_ps,
            op.load_ff,
            op.temperature.value(),
            op.delta_vth.value(),
        ];
        if !fields.iter().all(|x| x.is_finite()) {
            return Ramped::Done(Transient::no_step(vdd));
        }
        let vth = self.tech.vth_at(op.temperature, op.delta_vth).value();
        if vth >= vdd {
            return Ramped::Done(Transient::no_step(vdd));
        }

        // Effective drive width: stacking (logical effort) divides current.
        let width = drive / kind.logical_effort();
        let i_sat_ua = self
            .tech
            .drive_current_ua(width, op.temperature, op.delta_vth);
        if i_sat_ua <= 0.0 {
            return Ramped::Done(Transient::no_step(vdd));
        }

        // Total switched capacitance: external load + self-parasitics.
        let c_par = kind.parasitic() * self.tech.unit_pin_cap_ff * drive * 0.5;
        let c_total = op.load_ff.max(1e-3) + c_par;

        // Saturation voltage: below it, current falls off linearly with Vds.
        let vdsat = 0.4 * (vdd - vth);

        // Rough RC to bound the simulated window.
        let t_rc = 1000.0 * c_total * vdd / i_sat_ua; // ps
        let t_end = op.slew_ps + 30.0 * t_rc;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let steps = ((t_end * self.steps_per_ps) as u64).max(self.min_steps);
        if steps > STEP_CEILING {
            return Ramped::Done(Transient::no_step(vdd));
        }
        #[allow(clippy::cast_precision_loss)]
        let dt = t_end / steps as f64;

        let slew = op.slew_ps.max(1e-3);
        // The alpha-power current is `k · overdrive^alpha`; at the rail it
        // is `i_sat_ua`, the same product in the same order.
        let k = self.tech.unit_current_ua * width * self.tech.mobility_factor(op.temperature);
        let alpha = self.tech.alpha;
        let mut out = Crossings::new(vdd);
        let mut v_out = vdd;
        let mut t = 0.0f64;
        let mut taken = 0u64;
        let mut crossed = false;
        // dV/dt = −I/C; I in µA, C in fF, t in ps → dV = I·dt/C · 1e-3.
        // Input ramp 0 → Vdd over `slew`, until the first step whose input
        // would reach the rail or whose `t` is NaN.
        while taken < steps && vdd * t / slew < vdd {
            taken += 1;
            let overdrive = vdd * t / slew - vth;
            let i_ua = if overdrive <= 0.0 {
                0.0
            } else {
                let sat = k * overdrive.powf(alpha);
                if v_out >= vdsat {
                    sat
                } else {
                    sat * (v_out / vdsat).max(0.0)
                }
            };
            v_out -= 1.0e-3 * i_ua * dt / c_total;
            t += dt;
            if v_out <= out.level && out.record(v_out, t) {
                crossed = true;
                break;
            }
        }
        let arc = RailArc {
            index,
            steps,
            taken,
            dt,
            vdsat,
            i_sat_ua,
            c_total,
            t_in_50: 0.5 * slew,
            v_out,
            t,
            out,
        };
        if crossed || taken == steps {
            Ramped::Done(arc.finish())
        } else {
            Ramped::AtRail(arc)
        }
    }
}

/// The answer for an arc whose output never crosses 50 %.
const CANNOT_SWITCH: ArcTiming = ArcTiming {
    delay_ps: f64::INFINITY,
    out_slew_ps: f64::INFINITY,
};

/// One arc's transient, run to its end.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transient {
    timing: ArcTiming,
    /// Integration steps taken.
    steps: u64,
    /// The output voltage and the time after the last step, which the
    /// oracle tests compare too: a step can change them in the last bit
    /// without moving a crossing.
    #[cfg_attr(not(test), allow(dead_code))]
    v_out: f64,
    #[cfg_attr(not(test), allow(dead_code))]
    t: f64,
}

impl Transient {
    /// The cannot-switch answer of an arc that takes no step.
    fn no_step(vdd: f64) -> Self {
        Transient {
            timing: CANNOT_SWITCH,
            steps: 0,
            v_out: vdd,
            t: 0.0,
        }
    }
}

/// Where an arc stands when its input ramp ends.
enum Ramped {
    /// Its transient is over: it never started, its output crossed 10 %,
    /// or its step budget ran out.
    Done(Transient),
    /// Its input is at the rail, with steps left in its budget.
    AtRail(RailArc),
}

/// An arc with its input at the rail: the constants its rail steps read
/// and where its transient stands.
#[derive(Clone, Copy)]
struct RailArc {
    /// Position in the batch.
    index: usize,
    /// The step budget, and the steps taken so far.
    steps: u64,
    taken: u64,
    dt: f64,
    vdsat: f64,
    i_sat_ua: f64,
    c_total: f64,
    /// The input's 50 % point.
    t_in_50: f64,
    v_out: f64,
    t: f64,
    out: Crossings,
}

impl RailArc {
    fn finish(&self) -> Transient {
        Transient {
            timing: self.out.timing(self.t_in_50),
            steps: self.taken,
            v_out: self.v_out,
            t: self.t,
        }
    }
}

/// The two phases with the input at the rail.
#[derive(Clone, Copy, PartialEq)]
enum Rail {
    /// `v_out ≥ vdsat`: each step subtracts the constant `sat_step`.
    Saturated,
    /// Below `vdsat`: the current scales with `v_out / vdsat`.
    Linear,
}

/// Runs every arc of `queue` through `phase` in [`LANES`] lanes, until it
/// ends (written to `runs` at its batch index) or, saturated, falls into
/// its linear region (pushed onto `next`).
///
/// The lanes step together until one reaches its next threshold, leaves
/// the phase or uses up its budget; that lane's arc is then handled here,
/// and a lane whose arc is done takes the next one from the queue.
fn step_rail(phase: Rail, queue: &mut [RailArc], runs: &mut [Transient], next: &mut Vec<RailArc>) {
    let mut lanes = Lanes::default();
    let mut waiting = 0..queue.len();
    for lane in 0..LANES {
        lanes.load(lane, waiting.next(), queue);
    }
    loop {
        let budget = lanes.left.iter().copied().min().unwrap_or(u64::MAX);
        if budget == u64::MAX {
            return; // every lane idle
        }
        let n = match phase {
            Rail::Saturated => lanes.step_saturated(budget),
            Rail::Linear => lanes.step_linear(budget),
        };
        for lane in 0..LANES {
            let Some(q) = lanes.held[lane] else { continue };
            lanes.left[lane] -= n;
            let v_out = lanes.v_out[lane];
            // A NaN `v_out` is not saturated either, and leaves the phase.
            let saturated = v_out >= lanes.vdsat[lane];
            let leaves = phase == Rail::Saturated && !saturated;
            if !(v_out <= lanes.level[lane] || leaves || lanes.left[lane] == 0) {
                continue;
            }
            let arc = &mut queue[q];
            arc.v_out = v_out;
            arc.t = lanes.t[lane];
            arc.taken = arc.steps - lanes.left[lane];
            let crossed = v_out <= arc.out.level && arc.out.record(v_out, arc.t);
            if crossed || arc.taken == arc.steps {
                runs[arc.index] = arc.finish();
            } else if leaves {
                next.push(*arc);
            } else {
                lanes.level[lane] = arc.out.level;
                continue;
            }
            lanes.load(lane, waiting.next(), queue);
        }
    }
}

/// The rail-phase state of up to [`LANES`] arcs, one per lane, in
/// fixed-size arrays the step loops run over.
#[derive(Default)]
struct Lanes {
    /// Each lane's queue position, `None` when idle.
    held: [Option<usize>; LANES],
    /// Steps left in each lane's budget; `u64::MAX` when idle.
    left: [u64; LANES],
    v_out: [f64; LANES],
    t: [f64; LANES],
    dt: [f64; LANES],
    /// The next output threshold each lane's arc will cross.
    level: [f64; LANES],
    vdsat: [f64; LANES],
    /// The saturated phase's decrement, `1e-3 · i_sat_ua · dt / c_total`.
    sat_step: [f64; LANES],
    i_sat_ua: [f64; LANES],
    c_total: [f64; LANES],
}

/// What an idle lane holds: an arc that never moves, never crosses a
/// threshold and never runs out of steps.
const IDLE: RailArc = RailArc {
    index: 0,
    steps: u64::MAX,
    taken: 0,
    dt: 0.0,
    vdsat: 1.0,
    i_sat_ua: 0.0,
    c_total: 1.0,
    t_in_50: 0.0,
    v_out: 1.0,
    t: 0.0,
    out: Crossings {
        thresholds: [f64::NEG_INFINITY; 3],
        times: [f64::NAN; 3],
        next: 0,
        level: f64::NEG_INFINITY,
    },
};

impl Lanes {
    /// Puts the arc at queue position `q` into `lane`, or [`IDLE`] when
    /// `q` is `None`.
    fn load(&mut self, lane: usize, q: Option<usize>, queue: &[RailArc]) {
        let arc = q.map_or(&IDLE, |q| &queue[q]);
        self.held[lane] = q;
        self.left[lane] = arc.steps - arc.taken;
        self.v_out[lane] = arc.v_out;
        self.t[lane] = arc.t;
        self.dt[lane] = arc.dt;
        self.level[lane] = arc.out.level;
        self.vdsat[lane] = arc.vdsat;
        self.sat_step[lane] = 1.0e-3 * arc.i_sat_ua * arc.dt / arc.c_total;
        self.i_sat_ua[lane] = arc.i_sat_ua;
        self.c_total[lane] = arc.c_total;
    }

    /// Steps every lane through the saturated phase, at most `max` steps,
    /// stopping after the first step on which a lane reaches its next
    /// threshold or falls below `vdsat`; returns the steps taken.
    fn step_saturated(&mut self, max: u64) -> u64 {
        let (mut v_out, mut t) = (self.v_out, self.t);
        let mut n = 0;
        while n < max {
            n += 1;
            let mut stop = false;
            for l in 0..LANES {
                v_out[l] -= self.sat_step[l];
                t[l] += self.dt[l];
                let saturated = v_out[l] >= self.vdsat[l];
                stop |= (v_out[l] <= self.level[l]) | !saturated;
            }
            if stop {
                break;
            }
        }
        (self.v_out, self.t) = (v_out, t);
        n
    }

    /// Steps every lane through the linear phase, at most `max` steps,
    /// stopping after the first step on which a lane reaches its next
    /// threshold; returns the steps taken.
    fn step_linear(&mut self, max: u64) -> u64 {
        let (mut v_out, mut t) = (self.v_out, self.t);
        let mut n = 0;
        while n < max {
            n += 1;
            let mut stop = false;
            for l in 0..LANES {
                let i_ua = self.i_sat_ua[l] * (v_out[l] / self.vdsat[l]).max(0.0);
                v_out[l] -= 1.0e-3 * i_ua * self.dt[l] / self.c_total[l];
                t[l] += self.dt[l];
                stop |= v_out[l] <= self.level[l];
            }
            if stop {
                break;
            }
        }
        (self.v_out, self.t) = (v_out, t);
        n
    }
}

/// The 90/50/10 % output crossing times of one falling transient.
///
/// The thresholds fall, so they are recorded in order: a step compares
/// `v_out` with `level`, the next unrecorded one, and leaves the rest to
/// the rare [`Crossings::record`].
#[derive(Clone, Copy)]
struct Crossings {
    thresholds: [f64; 3],
    times: [f64; 3],
    next: usize,
    level: f64,
}

impl Crossings {
    fn new(vdd: f64) -> Self {
        let thresholds = [0.9 * vdd, 0.5 * vdd, 0.1 * vdd];
        Crossings {
            thresholds,
            times: [f64::NAN; 3],
            next: 0,
            level: thresholds[0],
        }
    }

    /// Records `t` for every threshold `v_out` has reached; returns true
    /// once the 10 % crossing is in, which ends the transient.
    #[cold]
    fn record(&mut self, v_out: f64, t: f64) -> bool {
        while self.next < 3 && v_out <= self.thresholds[self.next] {
            self.times[self.next] = t;
            self.next += 1;
        }
        match self.thresholds.get(self.next) {
            Some(&level) => {
                self.level = level;
                false
            }
            None => true,
        }
    }

    /// The arc timing, with the input's 50 % point at `t_in_50`.
    fn timing(&self, t_in_50: f64) -> ArcTiming {
        let [t_out_90, t_out_50, t_out_10] = self.times;
        if t_out_50.is_nan() {
            return CANNOT_SWITCH;
        }
        let out_slew = if t_out_10.is_nan() || t_out_90.is_nan() {
            f64::INFINITY
        } else {
            (t_out_10 - t_out_90) * 1.25 // 10–90 % → 0–100 % equivalent
        };
        ArcTiming {
            delay_ps: (t_out_50 - t_in_50).max(0.1),
            out_slew_ps: out_slew,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> GoldenSimulator {
        GoldenSimulator::new(TechParams::default()).unwrap()
    }

    fn op(slew: f64, load: f64) -> OperatingPoint {
        OperatingPoint {
            slew_ps: slew,
            load_ff: load,
            temperature: Celsius(25.0),
            delta_vth: Volts(0.0),
        }
    }

    #[test]
    fn delay_grows_with_load() {
        let s = sim();
        let light = s.characterize(CellKind::Inv, 1.0, &op(20.0, 1.0));
        let heavy = s.characterize(CellKind::Inv, 1.0, &op(20.0, 16.0));
        assert!(heavy.delay_ps > light.delay_ps);
        assert!(heavy.out_slew_ps > light.out_slew_ps);
    }

    #[test]
    fn delay_grows_with_input_slew() {
        let s = sim();
        let fast = s.characterize(CellKind::Inv, 1.0, &op(5.0, 4.0));
        let slow = s.characterize(CellKind::Inv, 1.0, &op(160.0, 4.0));
        assert!(slow.delay_ps > fast.delay_ps);
    }

    #[test]
    fn stronger_drive_is_faster() {
        let s = sim();
        let x1 = s.characterize(CellKind::Nand2, 1.0, &op(20.0, 8.0));
        let x4 = s.characterize(CellKind::Nand2, 4.0, &op(20.0, 8.0));
        assert!(x4.delay_ps < x1.delay_ps);
    }

    #[test]
    fn stacked_kinds_are_slower_than_inverter() {
        let s = sim();
        let inv = s.characterize(CellKind::Inv, 1.0, &op(20.0, 4.0));
        let xor = s.characterize(CellKind::Xor2, 1.0, &op(20.0, 4.0));
        assert!(xor.delay_ps > inv.delay_ps);
    }

    #[test]
    fn heat_slows_the_cell() {
        let s = sim();
        let cold = s.characterize(CellKind::Inv, 1.0, &op(20.0, 4.0));
        let hot = s.characterize(
            CellKind::Inv,
            1.0,
            &OperatingPoint {
                temperature: Celsius(110.0),
                ..op(20.0, 4.0)
            },
        );
        assert!(hot.delay_ps > cold.delay_ps);
    }

    #[test]
    fn aging_slows_the_cell() {
        let s = sim();
        let fresh = s.characterize(CellKind::Inv, 1.0, &op(20.0, 4.0));
        let aged = s.characterize(
            CellKind::Inv,
            1.0,
            &OperatingPoint {
                delta_vth: Volts(0.06),
                ..op(20.0, 4.0)
            },
        );
        assert!(aged.delay_ps > fresh.delay_ps);
    }

    #[test]
    fn dead_device_reports_infinity() {
        let s = sim();
        let dead = s.characterize(
            CellKind::Inv,
            1.0,
            &OperatingPoint {
                delta_vth: Volts(0.8),
                ..op(20.0, 4.0)
            },
        );
        assert!(dead.delay_ps.is_infinite());
    }

    #[test]
    fn non_finite_operating_point_cannot_switch_and_takes_no_step() {
        let s = sim();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let points = [
                OperatingPoint {
                    slew_ps: bad,
                    ..op(20.0, 4.0)
                },
                OperatingPoint {
                    load_ff: bad,
                    ..op(20.0, 4.0)
                },
                OperatingPoint {
                    temperature: Celsius(bad),
                    ..op(20.0, 4.0)
                },
                OperatingPoint {
                    delta_vth: Volts(bad),
                    ..op(20.0, 4.0)
                },
            ];
            for p in &points {
                assert_eq!(
                    s.transients(&[(CellKind::Inv, 1.0, *p)]),
                    [Transient::no_step(0.8)],
                    "{p:?}"
                );
                assert_eq!(
                    s.characterize(CellKind::Inv, 1.0, p),
                    CANNOT_SWITCH,
                    "{p:?}"
                );
            }
        }
    }

    #[test]
    fn delays_in_plausible_ps_range() {
        let s = sim();
        let t = s.characterize(CellKind::Inv, 1.0, &op(20.0, 2.0));
        assert!(
            t.delay_ps > 0.5 && t.delay_ps < 200.0,
            "delay {} ps",
            t.delay_ps
        );
        assert!(t.out_slew_ps.is_finite() && t.out_slew_ps > 0.0);
    }

    #[test]
    fn deterministic() {
        let s = sim();
        let a = s.characterize(CellKind::Aoi21, 2.0, &op(40.0, 6.0));
        let b = s.characterize(CellKind::Aoi21, 2.0, &op(40.0, 6.0));
        assert_eq!(a, b);
    }
}
