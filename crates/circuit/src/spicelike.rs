//! The "golden" transient characterization engine.
//!
//! This is the stand-in for the foundry's calibrated SPICE setup: a
//! deliberately time-stepped transient simulation of a switching cell. The
//! output node is discharged by an alpha-power-law device (with a
//! linear/saturation region split), driven by a ramped input. Delay is
//! measured 50 %-input to 50 %-output; output slew is the 10–90 % transition
//! time scaled to the 0–100 % equivalent.
//!
//! It is intentionally *expensive* — tens of thousands of integration steps
//! per arc — so that the ML-characterization speedup measured by experiment
//! E2 reflects a genuine golden-model cost, not a staged one.

use crate::cell::CellKind;
use crate::error::CircuitError;
use crate::tech::TechParams;
use lori_core::units::{Celsius, Volts};

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
    /// Returns an [`ArcTiming`] with infinite delay if the device cannot
    /// switch (e.g. catastrophic aging).
    #[must_use]
    pub fn characterize(&self, kind: CellKind, drive: f64, op: &OperatingPoint) -> ArcTiming {
        let _span = lori_obs::span("circuit.transient.characterize");
        let vdd = self.tech.vdd.value();
        let vth = self.tech.vth_at(op.temperature, op.delta_vth).value();
        if vth >= vdd {
            return ArcTiming {
                delay_ps: f64::INFINITY,
                out_slew_ps: f64::INFINITY,
            };
        }

        // Effective drive width: stacking (logical effort) divides current.
        let width = drive / kind.logical_effort();
        let i_sat_ua = self
            .tech
            .drive_current_ua(width, op.temperature, op.delta_vth);
        if i_sat_ua <= 0.0 {
            return ArcTiming {
                delay_ps: f64::INFINITY,
                out_slew_ps: f64::INFINITY,
            };
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
        let mut v_out = vdd;
        let mut t = 0.0f64;
        let mut t_in_50 = 0.5 * slew;
        if t_in_50 <= 0.0 {
            t_in_50 = 0.0;
        }
        let mut t_out_50 = f64::NAN;
        let mut t_out_90 = f64::NAN;
        let mut t_out_10 = f64::NAN;

        let mut steps_taken = 0u64;
        for _ in 0..steps {
            steps_taken += 1;
            // Input ramp 0 → Vdd over `slew`.
            let v_in = (vdd * t / slew).min(vdd);
            let overdrive = v_in - vth;
            let i_ua = if overdrive <= 0.0 {
                0.0
            } else {
                let sat = self.tech.unit_current_ua
                    * width
                    * mobility_factor(&self.tech, op.temperature)
                    * overdrive.powf(self.tech.alpha);
                if v_out >= vdsat {
                    sat
                } else {
                    sat * (v_out / vdsat).max(0.0)
                }
            };
            // dV/dt = −I/C; I in µA, C in fF, t in ps → dV = I·dt/C · 1e-3.
            v_out -= 1.0e-3 * i_ua * dt / c_total;
            t += dt;
            if t_out_90.is_nan() && v_out <= 0.9 * vdd {
                t_out_90 = t;
            }
            if t_out_50.is_nan() && v_out <= 0.5 * vdd {
                t_out_50 = t;
            }
            if t_out_10.is_nan() && v_out <= 0.1 * vdd {
                t_out_10 = t;
                break;
            }
        }
        lori_obs::counter("circuit.transient.steps").incr(steps_taken);

        if t_out_50.is_nan() {
            return ArcTiming {
                delay_ps: f64::INFINITY,
                out_slew_ps: f64::INFINITY,
            };
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

fn mobility_factor(tech: &TechParams, t: Celsius) -> f64 {
    (t.as_absolute_kelvin() / tech.t_ref.as_absolute_kelvin()).powf(-tech.mobility_exponent)
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
