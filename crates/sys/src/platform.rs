//! Cores, V-f operating points, and the power model.
//!
//! A core draws dynamic power while it runs a job and leakage whenever it
//! is powered; there are no DPM sleep states (Sec. IV surveys DPM, but no
//! experiment here measures it).

use crate::error::SysError;
use lori_core::units::{Celsius, MegaHertz, Volts, Watts};

/// A discrete voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfPoint {
    /// Supply voltage.
    pub voltage: Volts,
    /// Clock frequency.
    pub frequency: MegaHertz,
}

/// Heterogeneous core flavour, in the big.LITTLE mold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Wide out-of-order core: fast, power-hungry, larger soft-error cross
    /// section (more state).
    Big,
    /// Narrow in-order core: slower, efficient, smaller cross section.
    Little,
}

impl CoreKind {
    /// Effective switched capacitance in nF (scales dynamic power).
    #[must_use]
    pub fn ceff_nf(self) -> f64 {
        match self {
            CoreKind::Big => 1.3,
            CoreKind::Little => 0.45,
        }
    }

    /// Instructions-per-cycle factor relative to a Little core.
    #[must_use]
    pub fn ipc_factor(self) -> f64 {
        match self {
            CoreKind::Big => 2.0,
            CoreKind::Little => 1.0,
        }
    }

    /// Relative soft-error cross section (state bits exposed). Wide
    /// out-of-order cores carry far more vulnerable state (ROB, rename,
    /// load/store queues, larger caches) than in-order cores, so even with
    /// their shorter execution windows, high-AVF tasks can be safer on a
    /// Little core — the tension MWTF-aware mapping (E12) exploits.
    #[must_use]
    pub fn ser_cross_section(self) -> f64 {
        match self {
            CoreKind::Big => 5.0,
            CoreKind::Little => 1.0,
        }
    }

    /// Leakage scale in W at the reference temperature and 1 V.
    #[must_use]
    pub fn leakage_scale_w(self) -> f64 {
        match self {
            CoreKind::Big => 0.35,
            CoreKind::Little => 0.12,
        }
    }

    /// The default V-f ladder for this kind (five points).
    #[must_use]
    pub fn default_vf_ladder(self) -> Vec<VfPoint> {
        let points = match self {
            CoreKind::Big => [
                (0.60, 600.0),
                (0.70, 1000.0),
                (0.80, 1400.0),
                (0.90, 1800.0),
                (1.00, 2200.0),
            ],
            CoreKind::Little => [
                (0.55, 400.0),
                (0.65, 700.0),
                (0.75, 1000.0),
                (0.85, 1300.0),
                (0.95, 1600.0),
            ],
        };
        points
            .iter()
            .map(|&(v, f)| VfPoint {
                voltage: Volts(v),
                frequency: MegaHertz(f),
            })
            .collect()
    }
}

/// A core: kind plus its V-f ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Core {
    /// Core flavour.
    pub kind: CoreKind,
    /// V-f operating points, slowest first.
    pub vf_points: Vec<VfPoint>,
}

impl Core {
    /// A core with the default ladder for its kind.
    #[must_use]
    pub fn new(kind: CoreKind) -> Self {
        Core {
            kind,
            vf_points: kind.default_vf_ladder(),
        }
    }

    /// Number of V-f levels.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.vf_points.len()
    }

    /// The V-f point at a level.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::BadLevel`] (with core index 0 — callers with
    /// platform context re-wrap) for an out-of-range level.
    pub fn vf(&self, level: usize) -> Result<VfPoint, SysError> {
        self.vf_points
            .get(level)
            .copied()
            .ok_or(SysError::BadLevel { core: 0, level })
    }

    /// Dynamic power at a level and utilization in `[0, 1]`:
    /// `P = C_eff · V² · f · u`.
    #[must_use]
    pub fn dynamic_power(&self, vf: VfPoint, utilization: f64) -> Watts {
        let u = utilization.clamp(0.0, 1.0);
        // nF · V² · MHz = mW; convert to W.
        Watts(self.kind.ceff_nf() * vf.voltage.value().powi(2) * vf.frequency.value() * u / 1000.0)
    }

    /// Leakage power at a voltage and temperature (exponential in T):
    /// `P = P0 · V · exp(k·(T − T_ref))`.
    #[must_use]
    pub fn leakage_power(&self, voltage: Volts, temp: Celsius) -> Watts {
        let k = 0.013; // per kelvin
        Watts(self.kind.leakage_scale_w() * voltage.value() * (k * (temp.value() - 45.0)).exp())
    }

    /// Throughput at a level in "work units" per millisecond, where a work
    /// unit is one Little-core cycle: `f(MHz) × 1000 cycles/ms × IPC`.
    #[must_use]
    pub fn throughput_per_ms(&self, vf: VfPoint) -> f64 {
        vf.frequency.value() * 1000.0 * self.kind.ipc_factor()
    }
}

/// A multicore platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    cores: Vec<Core>,
}

impl Platform {
    /// Creates a platform.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::EmptyPlatform`] if there are no cores or a core
    /// has no V-f points.
    pub fn new(cores: Vec<Core>) -> Result<Self, SysError> {
        if cores.is_empty() {
            return Err(SysError::EmptyPlatform("no cores"));
        }
        if cores.iter().any(|c| c.vf_points.is_empty()) {
            return Err(SysError::EmptyPlatform("core without V-f points"));
        }
        Ok(Platform { cores })
    }

    /// A homogeneous platform of `n` cores of one kind.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::EmptyPlatform`] for `n == 0`.
    pub fn homogeneous(kind: CoreKind, n: usize) -> Result<Self, SysError> {
        Platform::new((0..n).map(|_| Core::new(kind)).collect())
    }

    /// The classic 2-big + 2-little heterogeneous platform used by the
    /// mapping experiments.
    #[must_use]
    pub fn big_little_2x2() -> Self {
        Platform {
            cores: vec![
                Core::new(CoreKind::Big),
                Core::new(CoreKind::Big),
                Core::new(CoreKind::Little),
                Core::new(CoreKind::Little),
            ],
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The cores.
    #[must_use]
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// A core by index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_are_monotone() {
        for kind in [CoreKind::Big, CoreKind::Little] {
            let ladder = kind.default_vf_ladder();
            assert_eq!(ladder.len(), 5);
            for w in ladder.windows(2) {
                assert!(w[0].voltage.value() < w[1].voltage.value());
                assert!(w[0].frequency.value() < w[1].frequency.value());
            }
        }
    }

    #[test]
    fn dynamic_power_scales_with_vf_and_util() {
        let core = Core::new(CoreKind::Big);
        let lo = core.vf(0).unwrap();
        let hi = core.vf(4).unwrap();
        assert!(core.dynamic_power(hi, 1.0).value() > core.dynamic_power(lo, 1.0).value());
        assert!(core.dynamic_power(hi, 0.5).value() < core.dynamic_power(hi, 1.0).value());
        assert_eq!(core.dynamic_power(hi, 0.0).value(), 0.0);
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let core = Core::new(CoreKind::Little);
        let v = Volts(0.75);
        let cool = core.leakage_power(v, Celsius(45.0));
        let hot = core.leakage_power(v, Celsius(85.0));
        assert!(hot.value() > cool.value());
    }

    #[test]
    fn big_cores_are_faster_and_hungrier() {
        let big = Core::new(CoreKind::Big);
        let little = Core::new(CoreKind::Little);
        let bp = big.vf(2).unwrap();
        let lp = little.vf(2).unwrap();
        assert!(big.throughput_per_ms(bp) > little.throughput_per_ms(lp));
        assert!(big.dynamic_power(bp, 1.0).value() > little.dynamic_power(lp, 1.0).value());
        assert!(CoreKind::Big.ser_cross_section() > CoreKind::Little.ser_cross_section());
    }

    #[test]
    fn platform_validation() {
        assert!(Platform::new(vec![]).is_err());
        assert!(Platform::homogeneous(CoreKind::Big, 0).is_err());
        let p = Platform::big_little_2x2();
        assert_eq!(p.core_count(), 4);
        assert_eq!(p.core(0).kind, CoreKind::Big);
        assert_eq!(p.core(3).kind, CoreKind::Little);
        let bad = Platform::new(vec![Core {
            kind: CoreKind::Big,
            vf_points: vec![],
        }]);
        assert!(bad.is_err());
    }

    #[test]
    fn level_bounds() {
        let core = Core::new(CoreKind::Big);
        assert!(core.vf(4).is_ok());
        assert!(matches!(core.vf(5), Err(SysError::BadLevel { .. })));
    }
}
