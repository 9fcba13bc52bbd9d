//! Technology parameters and the alpha-power-law device model.
//!
//! The golden characterization engine ([`crate::spicelike`]) and the
//! self-heating model are built on this: drive current follows Sakurai's
//! alpha-power law `I ∝ (V_gs − V_th)^α` with temperature-dependent mobility
//! and threshold voltage, which captures the first-order dependencies that
//! matter for reliability analysis (delay grows with ΔVth, with temperature
//! at nominal V_dd, with load, and with input slew).

use crate::error::CircuitError;
use lori_core::units::{Celsius, Volts};

/// Technology/device parameters shared by all cells of a library.
#[derive(Debug, Clone, PartialEq)]
pub struct TechParams {
    /// Nominal supply voltage.
    pub vdd: Volts,
    /// Fresh (unaged) threshold voltage at the reference temperature.
    pub vth0: Volts,
    /// Alpha-power-law velocity-saturation exponent (≈1.2–1.5 for modern
    /// nodes).
    pub alpha: f64,
    /// Reference temperature for mobility/threshold parameters.
    pub t_ref: Celsius,
    /// Mobility temperature exponent: `µ(T) = µ0 (T/T_ref)^(−m)`.
    pub mobility_exponent: f64,
    /// Threshold temperature coefficient in V/K (V_th drops as T rises).
    pub vth_temp_coeff: f64,
    /// Drive-current scale of a unit-width device, in µA at
    /// `(V_gs − V_th) = 1 V` overdrive.
    pub unit_current_ua: f64,
    /// Input pin capacitance of a unit-width device, in fF.
    pub unit_pin_cap_ff: f64,
}

impl Default for TechParams {
    /// A 7-nm-class FinFET-flavoured parameter set (values chosen for
    /// realistic *trends*, not to match any foundry PDK).
    fn default() -> Self {
        TechParams {
            vdd: Volts(0.8),
            vth0: Volts(0.30),
            alpha: 1.3,
            t_ref: Celsius(25.0),
            mobility_exponent: 1.5,
            vth_temp_coeff: 8.0e-4,
            unit_current_ua: 60.0,
            unit_pin_cap_ff: 0.9,
        }
    }
}

impl TechParams {
    /// Validates physical sanity of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] if V_dd ≤ V_th0, either
    /// voltage is non-positive, or scale parameters are non-positive.
    pub fn validate(&self) -> Result<(), CircuitError> {
        if self.vdd.value() <= 0.0 {
            return Err(CircuitError::InvalidParameter {
                what: "vdd",
                value: self.vdd.value(),
            });
        }
        if self.vth0.value() <= 0.0 || self.vth0.value() >= self.vdd.value() {
            return Err(CircuitError::InvalidParameter {
                what: "vth0",
                value: self.vth0.value(),
            });
        }
        if self.alpha < 1.0 || self.alpha > 2.0 {
            return Err(CircuitError::InvalidParameter {
                what: "alpha",
                value: self.alpha,
            });
        }
        if self.unit_current_ua <= 0.0 {
            return Err(CircuitError::InvalidParameter {
                what: "unit_current_ua",
                value: self.unit_current_ua,
            });
        }
        if self.unit_pin_cap_ff <= 0.0 {
            return Err(CircuitError::InvalidParameter {
                what: "unit_pin_cap_ff",
                value: self.unit_pin_cap_ff,
            });
        }
        Ok(())
    }

    /// Effective threshold voltage at temperature `t` with aging shift
    /// `delta_vth` applied.
    #[must_use]
    pub fn vth_at(&self, t: Celsius, delta_vth: Volts) -> Volts {
        Volts(
            self.vth0.value() - self.vth_temp_coeff * (t.value() - self.t_ref.value())
                + delta_vth.value(),
        )
    }

    /// Saturation drive current (µA) of a device of `width` (in unit widths)
    /// at temperature `t` and aging shift `delta_vth`, for gate overdrive at
    /// full rail. Returns 0 if the device no longer turns on.
    #[must_use]
    pub fn drive_current_ua(&self, width: f64, t: Celsius, delta_vth: Volts) -> f64 {
        let vth = self.vth_at(t, delta_vth).value();
        let overdrive = self.vdd.value() - vth;
        if overdrive <= 0.0 {
            return 0.0;
        }
        self.unit_current_ua * width * self.mobility_factor(t) * overdrive.powf(self.alpha)
    }

    /// Carrier-mobility scale at temperature `t` relative to `t_ref`:
    /// `(T/T_ref)^(−m)` in kelvin.
    pub(crate) fn mobility_factor(&self, t: Celsius) -> f64 {
        (t.as_absolute_kelvin() / self.t_ref.as_absolute_kelvin()).powf(-self.mobility_exponent)
    }

    /// First-order gate delay (ps) of a stage driving `load_ff` femtofarads
    /// with a device of `width` unit widths: `t ≈ C·V_dd / (2·I_d)`.
    ///
    /// Returns `f64::INFINITY` when the device cannot switch (fully aged /
    /// over-threshold), which downstream guardband analysis treats as a
    /// failure.
    #[must_use]
    pub fn rc_delay_ps(&self, width: f64, load_ff: f64, t: Celsius, delta_vth: Volts) -> f64 {
        let i = self.drive_current_ua(width, t, delta_vth);
        if i <= 0.0 {
            return f64::INFINITY;
        }
        // fF · V / µA = ns·1e-3 = ps
        1000.0 * load_ff * self.vdd.value() / (2.0 * i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        TechParams::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_params() {
        let p = TechParams {
            vth0: Volts(1.0),
            ..TechParams::default()
        };
        assert!(p.validate().is_err());
        let p = TechParams {
            vdd: Volts(0.0),
            ..TechParams::default()
        };
        assert!(p.validate().is_err());
        let p = TechParams {
            alpha: 3.0,
            ..TechParams::default()
        };
        assert!(p.validate().is_err());
        let p = TechParams {
            unit_current_ua: 0.0,
            ..TechParams::default()
        };
        assert!(p.validate().is_err());
        let p = TechParams {
            unit_pin_cap_ff: -1.0,
            ..TechParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn aging_raises_vth_and_delay() {
        let p = TechParams::default();
        let fresh = p.rc_delay_ps(1.0, 5.0, Celsius(25.0), Volts(0.0));
        let aged = p.rc_delay_ps(1.0, 5.0, Celsius(25.0), Volts(0.05));
        assert!(aged > fresh, "aged {aged} fresh {fresh}");
    }

    #[test]
    fn temperature_slows_gates_at_nominal_vdd() {
        // Mobility degradation dominates Vth reduction at 0.8 V / 0.3 Vth.
        let p = TechParams::default();
        let cold = p.rc_delay_ps(1.0, 5.0, Celsius(25.0), Volts(0.0));
        let hot = p.rc_delay_ps(1.0, 5.0, Celsius(100.0), Volts(0.0));
        assert!(hot > cold, "hot {hot} cold {cold}");
    }

    #[test]
    fn wider_devices_are_faster() {
        let p = TechParams::default();
        let x1 = p.rc_delay_ps(1.0, 5.0, Celsius(25.0), Volts(0.0));
        let x4 = p.rc_delay_ps(4.0, 5.0, Celsius(25.0), Volts(0.0));
        assert!((x1 / x4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn delay_scales_linearly_with_load() {
        let p = TechParams::default();
        let small = p.rc_delay_ps(1.0, 2.0, Celsius(25.0), Volts(0.0));
        let large = p.rc_delay_ps(1.0, 8.0, Celsius(25.0), Volts(0.0));
        assert!((large / small - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dead_device_has_infinite_delay() {
        let p = TechParams::default();
        // ΔVth pushes Vth beyond Vdd.
        let d = p.rc_delay_ps(1.0, 5.0, Celsius(25.0), Volts(1.0));
        assert!(d.is_infinite());
        assert_eq!(p.drive_current_ua(1.0, Celsius(25.0), Volts(1.0)), 0.0);
    }

    #[test]
    fn vth_at_tracks_temperature_and_aging() {
        let p = TechParams::default();
        let base = p.vth_at(Celsius(25.0), Volts(0.0)).value();
        assert!((base - 0.30).abs() < 1e-12);
        let hot = p.vth_at(Celsius(125.0), Volts(0.0)).value();
        assert!(hot < base);
        let aged = p.vth_at(Celsius(25.0), Volts(0.04)).value();
        assert!((aged - 0.34).abs() < 1e-12);
    }
}
