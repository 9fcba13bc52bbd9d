//! Soft-error rate (SER) as a function of supply voltage.
//!
//! The standard exponential model: lowering V_dd shrinks the critical
//! charge, so the SER grows as `λ(V) = λ0 · 10^((V_nom − V)/S)` with a
//! sensitivity `S` of a few hundred mV per decade. This is the functional-
//! reliability side of the paper's DVFS trade-off (Sec. IV-A.1): DVFS saves
//! energy and heat but raises the fault rate *and* stretches execution,
//! both of which raise the per-task failure probability.

use crate::error::SysError;
use lori_core::units::{Fit, Volts};

/// Voltage-dependent SER model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerModel {
    /// Raw SER at nominal voltage, in FIT per core.
    pub nominal_fit: Fit,
    /// Nominal supply voltage.
    pub v_nominal: Volts,
    /// Voltage sensitivity: volts per decade of SER.
    pub volts_per_decade: f64,
}

impl Default for SerModel {
    fn default() -> Self {
        SerModel {
            nominal_fit: Fit(2000.0),
            v_nominal: Volts(1.0),
            volts_per_decade: 0.25,
        }
    }
}

impl SerModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::BadParameter`] for non-positive rate, voltage, or
    /// sensitivity.
    pub fn validate(&self) -> Result<(), SysError> {
        if self.nominal_fit.value().is_nan() || self.nominal_fit.value() <= 0.0 {
            return Err(SysError::BadParameter {
                what: "nominal_fit",
                value: self.nominal_fit.value(),
            });
        }
        if self.v_nominal.value().is_nan() || self.v_nominal.value() <= 0.0 {
            return Err(SysError::BadParameter {
                what: "v_nominal",
                value: self.v_nominal.value(),
            });
        }
        if self.volts_per_decade.is_nan() || self.volts_per_decade <= 0.0 {
            return Err(SysError::BadParameter {
                what: "volts_per_decade",
                value: self.volts_per_decade,
            });
        }
        Ok(())
    }

    /// SER at a supply voltage, scaled by a core's cross section.
    #[must_use]
    pub fn rate_at(&self, voltage: Volts, cross_section: f64) -> Fit {
        let decades = (self.v_nominal.value() - voltage.value()) / self.volts_per_decade;
        Fit(self.nominal_fit.value() * cross_section.max(0.0) * 10f64.powf(decades))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        SerModel::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad() {
        let m = SerModel {
            nominal_fit: Fit(0.0),
            ..SerModel::default()
        };
        assert!(m.validate().is_err());
        let m = SerModel {
            v_nominal: Volts(0.0),
            ..SerModel::default()
        };
        assert!(m.validate().is_err());
        let m = SerModel {
            volts_per_decade: 0.0,
            ..SerModel::default()
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn lowering_voltage_raises_ser_exponentially() {
        let m = SerModel::default();
        let at_nominal = m.rate_at(Volts(1.0), 1.0).value();
        let quarter_down = m.rate_at(Volts(0.75), 1.0).value();
        let half_down = m.rate_at(Volts(0.5), 1.0).value();
        assert!((at_nominal - 2000.0).abs() < 1e-9);
        assert!((quarter_down / at_nominal - 10.0).abs() < 1e-6);
        assert!((half_down / at_nominal - 100.0).abs() < 1e-3);
    }

    #[test]
    fn cross_section_scales_linearly() {
        let m = SerModel::default();
        let small = m.rate_at(Volts(0.8), 1.0).value();
        let big = m.rate_at(Volts(0.8), 1.8).value();
        assert!((big / small - 1.8).abs() < 1e-9);
    }
}
