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
    /// Returns [`SysError::BadParameter`] for a rate, voltage, or
    /// sensitivity that is not finite and positive.
    pub fn validate(&self) -> Result<(), SysError> {
        for (what, value) in [
            ("nominal_fit", self.nominal_fit.value()),
            ("v_nominal", self.v_nominal.value()),
            ("volts_per_decade", self.volts_per_decade),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(SysError::BadParameter { what, value });
            }
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
    fn non_finite_field_is_a_typed_error() {
        let fields = ["nominal_fit", "v_nominal", "volts_per_decade"];
        let poison = |field: &str, v: f64| {
            let mut m = SerModel::default();
            match field {
                "nominal_fit" => m.nominal_fit = Fit(v),
                "v_nominal" => m.v_nominal = Volts(v),
                _ => m.volts_per_decade = v,
            }
            m
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for what in fields {
                match poison(what, bad).validate() {
                    Err(SysError::BadParameter { what: w, value }) => {
                        assert_eq!(w, what);
                        assert_eq!(value.to_bits(), bad.to_bits(), "{what} = {bad}");
                    }
                    other => panic!("{what} = {bad}: {other:?}"),
                }
            }
        }
        for what in fields {
            assert_eq!(poison(what, 0.5).validate(), Ok(()), "{what} = 0.5");
        }
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
