//! A lumped RC thermal network for multicore dies.
//!
//! Each core is one thermal node with resistance to ambient and capacitance;
//! adjacent cores couple through a lateral conductance. Euler integration at
//! the simulator quantum is plenty at these time constants (tens of ms).

use crate::error::SysError;
use lori_core::units::{Celsius, Watts};

/// Thermal model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Ambient (heatsink) temperature.
    pub ambient: Celsius,
    /// Core-to-ambient thermal resistance (K/W).
    pub r_to_ambient: f64,
    /// Core thermal capacitance (J/K).
    pub capacitance: f64,
    /// Core-to-core lateral conductance (W/K); applied between all pairs.
    pub lateral_conductance: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig {
            ambient: Celsius(45.0),
            r_to_ambient: 8.0,
            capacitance: 0.04,
            lateral_conductance: 0.05,
        }
    }
}

/// The thermal state of the die.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalModel {
    config: ThermalConfig,
    temps: Vec<f64>,
}

impl ThermalModel {
    /// Creates a model with all cores at ambient.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::BadParameter`] for a non-finite field, a
    /// non-positive R or C or a negative lateral conductance, and
    /// [`SysError::EmptyPlatform`] for zero cores.
    pub fn new(n_cores: usize, config: ThermalConfig) -> Result<Self, SysError> {
        if n_cores == 0 {
            return Err(SysError::EmptyPlatform("thermal nodes"));
        }
        check_config(&config)?;
        let ambient = config.ambient.value();
        Ok(ThermalModel {
            config,
            temps: vec![ambient; n_cores],
        })
    }

    /// Current temperature of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn temperature(&self, core: usize) -> Celsius {
        Celsius(self.temps[core])
    }

    /// Hottest core temperature.
    #[must_use]
    pub fn peak(&self) -> Celsius {
        Celsius(self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }

    /// Advances the network by `dt_ms` under the given per-core power draw.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` differs from the core count.
    pub fn step(&mut self, power: &[Watts], dt_ms: f64) {
        assert_eq!(power.len(), self.temps.len(), "power vector length");
        let dt = dt_ms / 1000.0;
        let ambient = self.config.ambient.value();
        let n = self.temps.len();
        let mut dtemps = vec![0.0f64; n];
        for i in 0..n {
            let mut q = power[i].value() - (self.temps[i] - ambient) / self.config.r_to_ambient;
            for j in 0..n {
                if i != j {
                    q += self.config.lateral_conductance * (self.temps[j] - self.temps[i]);
                }
            }
            dtemps[i] = q * dt / self.config.capacitance;
        }
        for (t, d) in self.temps.iter_mut().zip(&dtemps) {
            *t += d;
        }
    }

    /// Steady-state temperature of a single isolated core at constant power.
    #[must_use]
    pub fn steady_state(&self, power: Watts) -> Celsius {
        Celsius(self.config.ambient.value() + power.value() * self.config.r_to_ambient)
    }
}

/// The `ThermalModel::new` guard: every field finite, R and C positive, and
/// the lateral conductance non-negative. A NaN ambient or conductance makes
/// every temperature NaN, and a simulation then reports NaN energy, an
/// average peak of −∞ °C and next to no wear.
fn check_config(config: &ThermalConfig) -> Result<(), SysError> {
    let ambient = config.ambient.value();
    let r = config.r_to_ambient;
    let c = config.capacitance;
    let g = config.lateral_conductance;
    for (what, value, ok) in [
        ("ambient", ambient, ambient.is_finite()),
        ("r_to_ambient", r, r.is_finite() && r > 0.0),
        ("capacitance", c, c.is_finite() && c > 0.0),
        ("lateral_conductance", g, g.is_finite() && g >= 0.0),
    ] {
        if !ok {
            return Err(SysError::BadParameter { what, value });
        }
    }
    Ok(())
}

/// Counts thermal cycles in a temperature trace with a simple peak-valley
/// (rainflow-lite) detector: a cycle is a valley→peak→valley excursion with
/// amplitude above `threshold_k`. Returns `(count, mean_amplitude_k)`.
#[must_use]
pub fn count_thermal_cycles(trace: &[f64], threshold_k: f64) -> (usize, f64) {
    if trace.len() < 3 {
        return (0, 0.0);
    }
    // Extract turning points.
    let mut extrema = vec![trace[0]];
    for w in trace.windows(3) {
        let (a, b, c) = (w[0], w[1], w[2]);
        if (b > a && b >= c) || (b < a && b <= c) {
            extrema.push(b);
        }
    }
    extrema.push(*trace.last().expect("non-empty"));
    let mut count = 0usize;
    let mut amp_sum = 0.0;
    for pair in extrema.windows(2) {
        let amp = (pair[1] - pair[0]).abs();
        if amp >= threshold_k {
            count += 1;
            amp_sum += amp;
        }
    }
    // Two half-cycles make a full cycle.
    let full = count / 2;
    #[allow(clippy::cast_precision_loss)]
    let mean_amp = if count == 0 {
        0.0
    } else {
        amp_sum / count as f64
    };
    (full, mean_amp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heats_under_power_and_cools_idle() {
        let mut m = ThermalModel::new(1, ThermalConfig::default()).unwrap();
        let p = [Watts(2.0)];
        for _ in 0..5000 {
            m.step(&p, 1.0);
        }
        let hot = m.temperature(0).value();
        let ss = m.steady_state(Watts(2.0)).value();
        assert!((hot - ss).abs() < 1.0, "hot {hot} vs steady {ss}");
        for _ in 0..5000 {
            m.step(&[Watts(0.0)], 1.0);
        }
        let cooled = m.temperature(0).value();
        assert!((cooled - 45.0).abs() < 1.0, "cooled {cooled}");
    }

    #[test]
    fn lateral_coupling_shares_heat() {
        let mut m = ThermalModel::new(2, ThermalConfig::default()).unwrap();
        for _ in 0..3000 {
            m.step(&[Watts(3.0), Watts(0.0)], 1.0);
        }
        let t0 = m.temperature(0).value();
        let t1 = m.temperature(1).value();
        assert!(t0 > t1, "powered core hotter");
        assert!(t1 > 45.5, "idle neighbour warmed by coupling: {t1}");
    }

    #[test]
    fn validation() {
        assert!(ThermalModel::new(0, ThermalConfig::default()).is_err());
        let bad = ThermalConfig {
            r_to_ambient: 0.0,
            ..ThermalConfig::default()
        };
        assert!(ThermalModel::new(1, bad).is_err());
        let bad_c = ThermalConfig {
            capacitance: -1.0,
            ..ThermalConfig::default()
        };
        assert!(ThermalModel::new(1, bad_c).is_err());
        let bad_g = ThermalConfig {
            lateral_conductance: -0.1,
            ..ThermalConfig::default()
        };
        assert!(ThermalModel::new(1, bad_g).is_err());
    }

    #[test]
    fn non_finite_config_is_a_typed_error() {
        type Set = fn(&mut ThermalConfig, f64);
        let fields: [(&str, Set); 4] = [
            ("ambient", |c, v| c.ambient = Celsius(v)),
            ("r_to_ambient", |c, v| c.r_to_ambient = v),
            ("capacitance", |c, v| c.capacitance = v),
            ("lateral_conductance", |c, v| c.lateral_conductance = v),
        ];
        for (field, set) in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut config = ThermalConfig::default();
                set(&mut config, bad);
                match ThermalModel::new(2, config) {
                    Err(SysError::BadParameter { what, .. }) => assert_eq!(what, field),
                    other => panic!("{field} = {bad} gave {other:?}"),
                }
            }
        }
        // Finite edge values pass: a cold ambient and no lateral coupling.
        let edge = ThermalConfig {
            ambient: Celsius(-40.0),
            lateral_conductance: 0.0,
            ..ThermalConfig::default()
        };
        assert!(ThermalModel::new(2, edge).is_ok());
    }

    #[test]
    fn peak_reports_hottest() {
        let mut m = ThermalModel::new(3, ThermalConfig::default()).unwrap();
        for _ in 0..2000 {
            m.step(&[Watts(0.5), Watts(4.0), Watts(1.0)], 1.0);
        }
        assert!((m.peak().value() - m.temperature(1).value()).abs() < 1e-9);
    }

    #[test]
    fn thermal_cycle_counter() {
        // A clean triangle wave: 4 full excursions of amplitude 20.
        let mut trace = Vec::new();
        for _ in 0..4 {
            for i in 0..10 {
                trace.push(50.0 + 2.0 * f64::from(i));
            }
            for i in 0..10 {
                trace.push(70.0 - 2.0 * f64::from(i));
            }
        }
        let (count, amp) = count_thermal_cycles(&trace, 5.0);
        assert!((3..=5).contains(&count), "count {count}");
        assert!((amp - 20.0).abs() < 3.0, "amplitude {amp}");
        // Flat trace: no cycles.
        let flat = vec![60.0; 100];
        assert_eq!(count_thermal_cycles(&flat, 5.0).0, 0);
    }
}
