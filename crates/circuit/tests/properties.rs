//! Property-based tests for the circuit substrate.

use lori_circuit::aging::{AgingModel, StressProfile};
use lori_circuit::characterize::{characterize_library, Corner};
use lori_circuit::lut::Lut2d;
use lori_circuit::netlist::{processor_datapath, ripple_carry_adder, InstId, NetId};
use lori_circuit::she::SheModel;
use lori_circuit::spicelike::GoldenSimulator;
use lori_circuit::tech::TechParams;
use lori_core::units::{Celsius, Seconds, Volts};
use proptest::prelude::*;

proptest! {
    /// LUT interpolation never leaves the convex hull of table values.
    #[test]
    fn lut_within_hull(q_slew in -50.0f64..500.0, q_load in -5.0f64..50.0,
                       base in 1.0f64..100.0, step in 0.1f64..20.0) {
        let lut = Lut2d::new(
            vec![10.0, 20.0, 40.0],
            vec![1.0, 2.0, 4.0],
            vec![
                vec![base, base + step, base + 2.0 * step],
                vec![base + step, base + 2.0 * step, base + 3.0 * step],
                vec![base + 2.0 * step, base + 3.0 * step, base + 4.0 * step],
            ],
        ).unwrap();
        let v = lut.lookup(q_slew, q_load);
        prop_assert!(v >= base - 1e-9 && v <= base + 4.0 * step + 1e-9);
    }

    /// LUT lookup is monotone when the table is monotone in both axes.
    #[test]
    fn lut_monotone(q1 in 0.0f64..200.0, dq in 0.0f64..100.0) {
        let lut = Lut2d::new(
            vec![10.0, 20.0, 40.0, 80.0],
            vec![1.0, 4.0],
            vec![
                vec![1.0, 2.0],
                vec![2.0, 4.0],
                vec![4.0, 8.0],
                vec![8.0, 16.0],
            ],
        ).unwrap();
        prop_assert!(lut.lookup(q1 + dq, 2.0) + 1e-12 >= lut.lookup(q1, 2.0));
        prop_assert!(lut.lookup(20.0, q1 + dq) + 1e-12 >= lut.lookup(20.0, q1));
    }

    /// Aging ΔVth is non-negative and monotone in time for any valid stress.
    #[test]
    fn aging_monotone(duty in 0.0f64..=1.0, act in 0.0f64..=1.0,
                      temp in -20.0f64..150.0, years in 0.01f64..30.0) {
        let m = AgingModel::default();
        let s = StressProfile::new(duty, act, Celsius(temp)).unwrap();
        let d1 = m.delta_vth(&s, Seconds::from_years(years)).value();
        let d2 = m.delta_vth(&s, Seconds::from_years(years * 2.0)).value();
        prop_assert!(d1 >= 0.0);
        prop_assert!(d2 + 1e-15 >= d1);
    }

    /// SHE ΔT is non-negative and monotone in load.
    #[test]
    fn she_monotone_in_load(width in 0.5f64..8.0, slew in 1.0f64..200.0,
                            load in 0.0f64..30.0, act in 0.0f64..=1.0) {
        let m = SheModel::default();
        let a = m.delta_t(width, slew, load, act).value();
        let b = m.delta_t(width, slew, load + 1.0, act).value();
        prop_assert!(a >= 0.0);
        prop_assert!(b + 1e-12 >= a);
    }

    /// First-order gate delay is monotone in ΔVth and in load.
    #[test]
    fn tech_delay_monotone(load in 0.5f64..30.0, dvth in 0.0f64..0.2, extra in 0.001f64..0.1) {
        let p = TechParams::default();
        let t = Celsius(65.0);
        let base = p.rc_delay_ps(1.0, load, t, Volts(dvth));
        let aged = p.rc_delay_ps(1.0, load, t, Volts(dvth + extra));
        let loaded = p.rc_delay_ps(1.0, load + 1.0, t, Volts(dvth));
        prop_assert!(aged >= base);
        prop_assert!(loaded >= base);
    }

    /// Drive current is never negative and vanishes exactly when the device
    /// can no longer turn on.
    #[test]
    fn drive_current_domain(dvth in 0.0f64..1.0, temp in -20.0f64..150.0) {
        let p = TechParams::default();
        let i = p.drive_current_ua(1.0, Celsius(temp), Volts(dvth));
        prop_assert!(i >= 0.0);
        let vth = p.vth_at(Celsius(temp), Volts(dvth)).value();
        if vth >= p.vdd.value() {
            prop_assert_eq!(i, 0.0);
        } else {
            prop_assert!(i > 0.0);
        }
    }
}

/// The CSR-backed `fanout` must agree with a naive scan over all
/// instances, for every net of both generators.
#[test]
fn fanout_matches_naive_scan() {
    let sim = GoldenSimulator::new(TechParams::default()).unwrap();
    let lib = characterize_library(&sim, &Corner::default()).unwrap();
    let designs = [
        ("ripple_carry_adder", ripple_carry_adder(&lib, 8).unwrap()),
        (
            "processor_datapath",
            processor_datapath(&lib, 6, 5).unwrap(),
        ),
    ];
    for (name, netlist) in designs {
        for net in 0..netlist.net_count() {
            let net = NetId(net);
            let mut naive = Vec::new();
            for (i, inst) in netlist.instances().iter().enumerate() {
                if inst.inputs.contains(&net) {
                    naive.push(InstId(i));
                }
            }
            assert_eq!(netlist.fanout(net), naive, "{name}: net {}", net.0);
        }
    }
}
