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
//! `circuit.transient.steps` metric, not a staged one. Each step computes
//! only what changes in its phase of the transient (input ramp, saturated
//! at the rail, linear at the rail); the single-loop form that recomputes
//! the whole device current at every step is kept as the test oracle.

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

/// The golden transient engine.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenSimulator {
    tech: TechParams,
    /// Integration steps per input-slew unit; total step count is
    /// `steps_per_ps × simulated time`, floored at `min_steps`.
    steps_per_ps: f64,
    min_steps: usize,
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
    /// transient integration.
    ///
    /// Returns an [`ArcTiming`] with infinite delay and slew if the device
    /// cannot switch (e.g. catastrophic aging), and the same answer, without
    /// taking a step, if any field of `op` is NaN or infinite.
    #[must_use]
    pub fn characterize(&self, kind: CellKind, drive: f64, op: &OperatingPoint) -> ArcTiming {
        let _span = lori_obs::span("circuit.transient.characterize");
        let (timing, steps) = self.transient(kind, drive, op);
        lori_obs::counter("circuit.transient.steps").incr(steps);
        timing
    }

    /// The transient behind [`GoldenSimulator::characterize`]: the arc's
    /// timing and the number of integration steps taken.
    ///
    /// `t` only grows and `v_out` only falls, so the run passes through
    /// three phases in order (with `dt ≤ 0` it never leaves the first),
    /// and each computes per step only what changes per step:
    /// 1. the input ramp, while `vdd·t/slew < vdd`: the current is
    ///    `k · overdrive^alpha`, one `powf` per step;
    /// 2. the input at the rail with the device saturated
    ///    (`v_out ≥ vdsat`): the current is `i_sat_ua`, so each step
    ///    subtracts one constant;
    /// 3. the input at the rail in the linear region: `i_sat_ua` scaled by
    ///    `v_out / vdsat`.
    ///
    /// Every floating-point operation keeps the operands and the order of
    /// the single-loop form that recomputes the whole current at every
    /// step (the test oracle), so the steps and the bits are the same.
    fn transient(&self, kind: CellKind, drive: f64, op: &OperatingPoint) -> (ArcTiming, u64) {
        let fields = [
            op.slew_ps,
            op.load_ff,
            op.temperature.value(),
            op.delta_vth.value(),
        ];
        if !fields.iter().all(|x| x.is_finite()) {
            return (CANNOT_SWITCH, 0);
        }
        let vdd = self.tech.vdd.value();
        let vth = self.tech.vth_at(op.temperature, op.delta_vth).value();
        if vth >= vdd {
            return (CANNOT_SWITCH, 0);
        }

        // Effective drive width: stacking (logical effort) divides current.
        let width = drive / kind.logical_effort();
        let i_sat_ua = self
            .tech
            .drive_current_ua(width, op.temperature, op.delta_vth);
        if i_sat_ua <= 0.0 {
            return (CANNOT_SWITCH, 0);
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
        let steps = ((t_end * self.steps_per_ps) as usize).max(self.min_steps);
        #[allow(clippy::cast_precision_loss)]
        let dt = t_end / steps as f64;

        let slew = op.slew_ps.max(1e-3);
        let t_in_50 = 0.5 * slew;
        // The alpha-power current is `k · overdrive^alpha`; at the rail it
        // is `i_sat_ua`, the same product in the same order.
        let k = self.tech.unit_current_ua * width * self.tech.mobility_factor(op.temperature);
        let alpha = self.tech.alpha;
        let mut out = Crossings::new(vdd);
        let mut v_out = vdd;
        let mut t = 0.0f64;
        let mut taken = 0usize;
        // dV/dt = −I/C; I in µA, C in fF, t in ps → dV = I·dt/C · 1e-3.
        'run: {
            // Input ramp 0 → Vdd over `slew`, until the first step whose
            // input would reach the rail or whose `t` is NaN.
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
                    break 'run;
                }
            }
            // Input at the rail, device saturated: a constant decrement.
            let sat_step = 1.0e-3 * i_sat_ua * dt / c_total;
            while taken < steps && v_out >= vdsat {
                taken += 1;
                v_out -= sat_step;
                t += dt;
                if v_out <= out.level && out.record(v_out, t) {
                    break 'run;
                }
            }
            // Input at the rail, linear region, until the step budget ends.
            while taken < steps {
                taken += 1;
                let i_ua = i_sat_ua * (v_out / vdsat).max(0.0);
                v_out -= 1.0e-3 * i_ua * dt / c_total;
                t += dt;
                if v_out <= out.level && out.record(v_out, t) {
                    break 'run;
                }
            }
        }
        (out.timing(t_in_50), taken as u64)
    }
}

/// The answer for an arc whose output never crosses 50 %.
const CANNOT_SWITCH: ArcTiming = ArcTiming {
    delay_ps: f64::INFINITY,
    out_slew_ps: f64::INFINITY,
};

/// The 90/50/10 % output crossing times of one falling transient.
///
/// The thresholds fall, so they are recorded in order: a step compares
/// `v_out` with `level`, the next unrecorded one, and leaves the rest to
/// the rare [`Crossings::record`].
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
                    s.transient(CellKind::Inv, 1.0, p),
                    (CANNOT_SWITCH, 0),
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
