//! Device-level lifetime models: EM, TDDB, TC, NBTI, HCI (Sec. IV-B.1).
//!
//! Each mechanism maps a steady operating condition (temperature, voltage,
//! activity) to an MTTF, using the standard public-literature forms (Black's
//! equation, exponential-law TDDB, Coffin–Manson thermal cycling, power-law
//! BTI/HCI). All are calibrated to a common reference point — `REF_YEARS`
//! at 1.0 V / 80 °C / full activity — so their *relative* responses to
//! knobs are meaningful even though absolute values are synthetic.

use crate::error::SysError;
use lori_core::units::{Celsius, Seconds, Volts};

/// Boltzmann constant in eV/K.
const K_B_EV: f64 = 8.617_333e-5;

/// Reference lifetime at the calibration point, in years.
pub const REF_YEARS: f64 = 20.0;

const REF_TEMP_K: f64 = 80.0 + 273.15;
const REF_VOLT: f64 = 1.0;
const ABSOLUTE_ZERO_C: f64 = -273.15;

/// A steady-state operating condition for lifetime evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Operating {
    /// Average junction temperature.
    pub temperature: Celsius,
    /// Supply voltage.
    pub voltage: Volts,
    /// Activity factor in `[0, 1]` (current density / switching proxy).
    pub activity: f64,
}

impl Operating {
    /// Creates an operating condition.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::BadParameter`] for a temperature that is not
    /// finite or not above absolute zero (−273.15 °C), a voltage that is not
    /// finite and positive, or an activity outside `[0, 1]`.
    pub fn new(temperature: Celsius, voltage: Volts, activity: f64) -> Result<Self, SysError> {
        if !temperature.value().is_finite() || temperature.value() <= ABSOLUTE_ZERO_C {
            return Err(SysError::BadParameter {
                what: "temperature",
                value: temperature.value(),
            });
        }
        if !voltage.value().is_finite() || voltage.value() <= 0.0 {
            return Err(SysError::BadParameter {
                what: "voltage",
                value: voltage.value(),
            });
        }
        if !(0.0..=1.0).contains(&activity) || activity.is_nan() {
            return Err(SysError::BadParameter {
                what: "activity",
                value: activity,
            });
        }
        Ok(Operating {
            temperature,
            voltage,
            activity,
        })
    }
}

/// Electromigration (Black's equation): `MTTF ∝ J^−n · exp(Ea/kT)` with
/// current density proxied by `activity · V`.
#[must_use]
pub fn em_mttf(op: &Operating) -> Seconds {
    const N: f64 = 2.0;
    const EA: f64 = 0.7;
    let j = (op.activity.max(0.01) * op.voltage.value()) / (1.0 * REF_VOLT);
    let t_k = op.temperature.as_absolute_kelvin();
    let accel = j.powf(N) * ((EA / K_B_EV) * (1.0 / REF_TEMP_K - 1.0 / t_k)).exp();
    Seconds(Seconds::from_years(REF_YEARS).value() / accel.max(1e-12))
}

/// Time-dependent dielectric breakdown: exponential in voltage,
/// temperature-activated.
#[must_use]
pub fn tddb_mttf(op: &Operating) -> Seconds {
    const GAMMA: f64 = 12.0; // per volt
    const EA: f64 = 0.3;
    let t_k = op.temperature.as_absolute_kelvin();
    let accel = (GAMMA * (op.voltage.value() - REF_VOLT)).exp()
        * ((EA / K_B_EV) * (1.0 / REF_TEMP_K - 1.0 / t_k)).exp();
    Seconds(Seconds::from_years(REF_YEARS).value() / accel.max(1e-12))
}

/// Thermal cycling (Coffin–Manson): lifetime in cycles falls with the
/// amplitude of temperature swings; converted to time via the cycle rate.
///
/// `cycles_to_failure = C · ΔT^−q`; MTTF = cycles_to_failure / rate.
///
/// # Errors
///
/// Returns [`SysError::BadParameter`] for a non-positive cycle rate when
/// `amplitude_k > 0`.
pub fn tc_mttf(amplitude_k: f64, cycles_per_hour: f64) -> Result<Seconds, SysError> {
    const Q: f64 = 2.35;
    // Calibrated: 20-K swings at 10 cycles/hour → REF_YEARS.
    if amplitude_k <= 0.0 || cycles_per_hour <= 0.0 {
        // No meaningful cycling: effectively immortal w.r.t. TC.
        return Ok(Seconds::from_years(REF_YEARS * 100.0));
    }
    let ref_cycles = REF_YEARS * 365.25 * 24.0 * 10.0; // cycles to failure at 20 K
    let cycles_to_failure = ref_cycles * (20.0 / amplitude_k).powf(Q);
    Ok(Seconds(cycles_to_failure / cycles_per_hour * 3600.0))
}

/// Negative-bias temperature instability: power-law in voltage,
/// temperature-activated, duty-driven.
#[must_use]
pub fn nbti_mttf(op: &Operating) -> Seconds {
    const GAMMA: f64 = 6.0;
    const EA: f64 = 0.2;
    let t_k = op.temperature.as_absolute_kelvin();
    let duty = (0.3 + 0.7 * op.activity).clamp(0.0, 1.0);
    let accel = (op.voltage.value() / REF_VOLT).powf(GAMMA)
        * duty
        * ((EA / K_B_EV) * (1.0 / REF_TEMP_K - 1.0 / t_k)).exp();
    Seconds(Seconds::from_years(REF_YEARS).value() / accel.max(1e-12))
}

/// Hot-carrier injection: strongly voltage-driven, mildly *inverse*
/// temperature-dependent (worst cold), activity-driven.
#[must_use]
pub fn hci_mttf(op: &Operating) -> Seconds {
    const GAMMA: f64 = 8.0;
    const EA: f64 = -0.1; // inverse temperature dependence
    let t_k = op.temperature.as_absolute_kelvin();
    let accel = (op.voltage.value() / REF_VOLT).powf(GAMMA)
        * op.activity.max(0.01)
        * ((EA / K_B_EV) * (1.0 / REF_TEMP_K - 1.0 / t_k)).exp();
    Seconds(Seconds::from_years(REF_YEARS).value() / accel.max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(t: f64, v: f64, a: f64) -> Operating {
        Operating::new(Celsius(t), Volts(v), a).unwrap()
    }

    #[test]
    fn reference_point_calibration() {
        let reference = op(80.0, 1.0, 1.0);
        for (name, mttf) in [
            ("em", em_mttf(&reference)),
            ("tddb", tddb_mttf(&reference)),
            ("hci", hci_mttf(&reference)),
        ] {
            let years = mttf.as_years();
            assert!(
                (years - REF_YEARS).abs() < 0.5,
                "{name}: {years} years at reference"
            );
        }
        // NBTI includes the duty factor (1.0 at full activity).
        assert!((nbti_mttf(&reference).as_years() - REF_YEARS).abs() < 0.5);
    }

    #[test]
    fn heat_shortens_em_tddb_nbti() {
        let cool = op(60.0, 1.0, 0.5);
        let hot = op(110.0, 1.0, 0.5);
        assert!(em_mttf(&hot).value() < em_mttf(&cool).value());
        assert!(tddb_mttf(&hot).value() < tddb_mttf(&cool).value());
        assert!(nbti_mttf(&hot).value() < nbti_mttf(&cool).value());
    }

    #[test]
    fn hci_is_worst_cold() {
        let cool = op(40.0, 1.0, 0.5);
        let hot = op(100.0, 1.0, 0.5);
        assert!(hci_mttf(&cool).value() < hci_mttf(&hot).value());
    }

    #[test]
    fn voltage_shortens_wearout() {
        let low = op(80.0, 0.8, 0.5);
        let high = op(80.0, 1.1, 0.5);
        for f in [tddb_mttf, nbti_mttf, hci_mttf, em_mttf] {
            assert!(f(&high).value() < f(&low).value());
        }
    }

    #[test]
    fn tc_follows_coffin_manson() {
        let small = tc_mttf(10.0, 10.0).unwrap();
        let large = tc_mttf(40.0, 10.0).unwrap();
        assert!(large.value() < small.value());
        // Quadrupling amplitude with q=2.35 cuts life by ~4^2.35 ≈ 26×.
        let ratio = small.value() / large.value();
        assert!(ratio > 15.0 && ratio < 40.0, "ratio {ratio}");
        // No cycling → effectively immortal.
        assert!(tc_mttf(0.0, 10.0).unwrap().as_years() > REF_YEARS * 50.0);
    }

    #[test]
    fn operating_validation() {
        assert!(Operating::new(Celsius(80.0), Volts(0.0), 0.5).is_err());
        assert!(Operating::new(Celsius(80.0), Volts(1.0), 1.5).is_err());
        assert!(Operating::new(Celsius(80.0), Volts(1.0), f64::NAN).is_err());
    }

    #[test]
    fn non_finite_or_sub_absolute_zero_point_is_a_typed_error() {
        let rejects = |op: Result<Operating, SysError>, field: &str, bad: f64| match op {
            Err(SysError::BadParameter { what, value }) => {
                assert_eq!(what, field);
                assert_eq!(value.to_bits(), bad.to_bits(), "{field} = {bad}");
            }
            other => panic!("{field} = {bad}: {other:?}"),
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            rejects(
                Operating::new(Celsius(bad), Volts(0.9), 0.5),
                "temperature",
                bad,
            );
            rejects(
                Operating::new(Celsius(80.0), Volts(bad), 0.5),
                "voltage",
                bad,
            );
            rejects(
                Operating::new(Celsius(80.0), Volts(0.9), bad),
                "activity",
                bad,
            );
        }
        for cold in [-273.15, -300.0] {
            rejects(
                Operating::new(Celsius(cold), Volts(0.9), 0.5),
                "temperature",
                cold,
            );
        }
        for t in [-273.0, -40.0, 25.0, 150.0] {
            assert!(
                Operating::new(Celsius(t), Volts(0.9), 0.5).is_ok(),
                "{t} °C"
            );
        }
    }
}
