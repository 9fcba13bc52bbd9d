//! Property-based tests for the system-level models.

use lori_core::units::{Celsius, Volts, Watts};
use lori_core::Rng;
use lori_sys::mttf::{em_mttf, hci_mttf, nbti_mttf, tddb_mttf, Operating};
use lori_sys::platform::{Core, CoreKind};
use lori_sys::ser::SerModel;
use lori_sys::task::{generate_task_set, total_utilization};
use lori_sys::thermal::{ThermalConfig, ThermalModel};
use proptest::prelude::*;

proptest! {
    /// UUniFast hits its utilization target for any configuration.
    #[test]
    fn uunifast_target(n in 1usize..30, u in 0.05f64..4.0, seed in 0u64..200) {
        let mut rng = Rng::from_seed(seed);
        let tasks = generate_task_set(n, u, 1.0e6, (5.0, 100.0), &mut rng).unwrap();
        let total = total_utilization(&tasks, 1.0e6);
        prop_assert!((total - u).abs() / u < 0.1, "target {u}, got {total}");
    }

    /// SER grows monotonically as voltage drops.
    #[test]
    fn ser_monotone(v in 0.4f64..1.0, dv in 0.01f64..0.3) {
        let m = SerModel::default();
        let high_v = m.rate_at(Volts(v + dv), 1.0).value();
        let low_v = m.rate_at(Volts(v), 1.0).value();
        prop_assert!(low_v > high_v);
    }

    /// Every wear-out mechanism returns a positive, finite MTTF across the
    /// operating envelope.
    #[test]
    fn mttf_domain(t in 20.0f64..130.0, v in 0.5f64..1.2, a in 0.0f64..=1.0) {
        let op = Operating::new(Celsius(t), Volts(v), a).unwrap();
        for mttf in [em_mttf(&op), tddb_mttf(&op), nbti_mttf(&op), hci_mttf(&op)] {
            prop_assert!(mttf.value() > 0.0 && mttf.value().is_finite());
        }
    }

    /// Dynamic power is monotone in utilization and in V-f level.
    #[test]
    fn power_monotone(kind_big in any::<bool>(), u in 0.0f64..=1.0, level in 0usize..4) {
        let core = Core::new(if kind_big { CoreKind::Big } else { CoreKind::Little });
        let lo = core.vf(level).unwrap();
        let hi = core.vf(level + 1).unwrap();
        prop_assert!(core.dynamic_power(hi, u).value() + 1e-15 >= core.dynamic_power(lo, u).value());
        let less = core.dynamic_power(lo, u * 0.5).value();
        let more = core.dynamic_power(lo, u).value();
        prop_assert!(more + 1e-15 >= less);
    }

    /// The thermal model never undershoots ambient and approaches steady
    /// state from below under constant power.
    #[test]
    fn thermal_bounded(p in 0.0f64..6.0, steps in 10usize..2000) {
        let cfg = ThermalConfig::default();
        let ambient = cfg.ambient.value();
        let mut m = ThermalModel::new(1, cfg).unwrap();
        for _ in 0..steps {
            m.step(&[Watts(p)], 1.0);
            let t = m.temperature(0).value();
            prop_assert!(t + 1e-9 >= ambient);
            prop_assert!(t <= m.steady_state(Watts(p)).value() + 1e-6);
        }
    }

    /// Leakage is positive across the operating envelope.
    #[test]
    fn leakage_positive(t in 20.0f64..120.0, v in 0.4f64..1.2) {
        let core = Core::new(CoreKind::Big);
        prop_assert!(core.leakage_power(Volts(v), Celsius(t)).value() > 0.0);
    }
}
