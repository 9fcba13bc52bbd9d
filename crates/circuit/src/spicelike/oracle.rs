//! The single-loop transient, kept as the oracle the phased engine must
//! equal step for step and bit for bit, and the tests that compare them.
//!
//! The oracle recomputes the whole alpha-power current at every step, the
//! mobility factor's and the overdrive's `powf` included, clamps the input
//! ramp with `.min(vdd)`, and tests all three output thresholds after every
//! step.

use super::{ArcTiming, GoldenSimulator, OperatingPoint, CANNOT_SWITCH};
use crate::cell::{CellKind, DRIVE_STRENGTHS};
use crate::tech::TechParams;
use lori_core::units::{Celsius, Volts};
use lori_core::Rng;

/// [`GoldenSimulator::transient`] as one loop over every step.
pub(crate) fn transient(
    sim: &GoldenSimulator,
    kind: CellKind,
    drive: f64,
    op: &OperatingPoint,
) -> (ArcTiming, u64) {
    let vdd = sim.tech.vdd.value();
    let vth = sim.tech.vth_at(op.temperature, op.delta_vth).value();
    if vth >= vdd {
        return (
            ArcTiming {
                delay_ps: f64::INFINITY,
                out_slew_ps: f64::INFINITY,
            },
            0,
        );
    }

    // Effective drive width: stacking (logical effort) divides current.
    let width = drive / kind.logical_effort();
    let i_sat_ua = sim
        .tech
        .drive_current_ua(width, op.temperature, op.delta_vth);
    if i_sat_ua <= 0.0 {
        return (
            ArcTiming {
                delay_ps: f64::INFINITY,
                out_slew_ps: f64::INFINITY,
            },
            0,
        );
    }

    // Total switched capacitance: external load + self-parasitics.
    let c_par = kind.parasitic() * sim.tech.unit_pin_cap_ff * drive * 0.5;
    let c_total = op.load_ff.max(1e-3) + c_par;

    // Saturation voltage: below it, current falls off linearly with Vds.
    let vdsat = 0.4 * (vdd - vth);

    // Rough RC to bound the simulated window.
    let t_rc = 1000.0 * c_total * vdd / i_sat_ua; // ps
    let t_end = op.slew_ps + 30.0 * t_rc;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let steps = ((t_end * sim.steps_per_ps) as usize).max(sim.min_steps);
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
            let sat = sim.tech.unit_current_ua
                * width
                * sim.tech.mobility_factor(op.temperature)
                * overdrive.powf(sim.tech.alpha);
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

    if t_out_50.is_nan() {
        return (
            ArcTiming {
                delay_ps: f64::INFINITY,
                out_slew_ps: f64::INFINITY,
            },
            steps_taken,
        );
    }
    let out_slew = if t_out_10.is_nan() || t_out_90.is_nan() {
        f64::INFINITY
    } else {
        (t_out_10 - t_out_90) * 1.25 // 10–90 % → 0–100 % equivalent
    };
    (
        ArcTiming {
            delay_ps: (t_out_50 - t_in_50).max(0.1),
            out_slew_ps: out_slew,
        },
        steps_taken,
    )
}

fn sim_with(tech: TechParams) -> GoldenSimulator {
    GoldenSimulator::new(tech).unwrap()
}

fn op(slew_ps: f64, load_ff: f64, celsius: f64, delta_vth: f64) -> OperatingPoint {
    OperatingPoint {
        slew_ps,
        load_ff,
        temperature: Celsius(celsius),
        delta_vth: Volts(delta_vth),
    }
}

/// Asserts that the phased engine and the oracle take the same number
/// of steps to the same timing bits; returns that number.
fn assert_same(sim: &GoldenSimulator, kind: CellKind, drive: f64, op: &OperatingPoint) -> u64 {
    let (fast, fast_steps) = sim.transient(kind, drive, op);
    let (slow, slow_steps) = transient(sim, kind, drive, op);
    let case = format!("{kind:?} X{drive} at {op:?}");
    assert_eq!(fast_steps, slow_steps, "steps: {case}");
    assert_eq!(
        fast.delay_ps.to_bits(),
        slow.delay_ps.to_bits(),
        "delay {} vs {}: {case}",
        fast.delay_ps,
        slow.delay_ps
    );
    assert_eq!(
        fast.out_slew_ps.to_bits(),
        slow.out_slew_ps.to_bits(),
        "slew {} vs {}: {case}",
        fast.out_slew_ps,
        slow.out_slew_ps
    );
    fast_steps
}

/// A point drawn from slew 0–3,000 ps, load 0–80 fF, −40–150 °C and
/// ΔVth 0–0.3 V.
fn random_op(rng: &mut Rng) -> OperatingPoint {
    op(
        rng.uniform_in(0.0, 3000.0),
        rng.uniform_in(0.0, 80.0),
        rng.uniform_in(-40.0, 150.0),
        rng.uniform_in(0.0, 0.3),
    )
}

#[test]
fn every_catalog_cell_matches_the_oracle_at_random_points() {
    let sim = sim_with(TechParams::default());
    let mut rng = Rng::from_seed(0x0517_ce11);
    for kind in CellKind::ALL {
        for drive in DRIVE_STRENGTHS {
            assert_same(&sim, kind, drive, &random_op(&mut rng));
        }
    }
    // Off-catalog drives, from a small fraction of X1 to beyond X8.
    for _ in 0..40 {
        let kind = CellKind::ALL[rng.below(12) as usize];
        let drive = rng.uniform_in(0.05, 16.0);
        assert_same(&sim, kind, drive, &random_op(&mut rng));
    }
}

#[test]
fn edge_points_match_the_oracle() {
    let sim = sim_with(TechParams::default());
    let inv = CellKind::Inv;
    // Zero, tiny and negative slews; the last makes `t_end < 0`, so
    // `dt < 0` and the input never leaves the ramp.
    for slew in [0.0, 1e-9, 5e-4, 1e-3, -1e-3, -5.0, -1e5] {
        assert_same(&sim, inv, 1.0, &op(slew, 4.0, 25.0, 0.0));
    }
    let (stuck, steps) = sim.transient(inv, 1.0, &op(-1e5, 4.0, 25.0, 0.0));
    assert!(stuck.delay_ps.is_infinite() && steps == 20_000);
    // Loads at and below the 1e-3 fF floor.
    for load in [1e-3, 5e-4, 0.0, -3.0] {
        assert_same(&sim, inv, 1.0, &op(20.0, load, 25.0, 0.0));
        assert_same(&sim, CellKind::Maj3, 8.0, &op(400.0, load, 25.0, 0.0));
    }
    // `vth` 0.1 V and 0.05 V below `vdd` (long windows: the device is
    // weak and `vdsat` lies below the 10 % threshold).
    for delta_vth in [0.4, 0.45] {
        assert_same(&sim, inv, 2.0, &op(20.0, 2.0, 25.0, delta_vth));
    }
    // Both dead-device returns: `vth ≥ vdd`, and no drive current.
    assert_eq!(assert_same(&sim, inv, 1.0, &op(20.0, 4.0, 25.0, 0.6)), 0);
    for drive in [0.0, -1.0] {
        assert_eq!(assert_same(&sim, inv, drive, &op(20.0, 4.0, 25.0, 0.0)), 0);
    }
    // Negative `vth`: the device conducts from the first step.
    assert_same(&sim, inv, 1.0, &op(20.0, 4.0, 150.0, -0.3));
    assert_same(&sim, CellKind::Nor2, 3.0, &op(900.0, 0.5, 140.0, -0.25));
    // Off-catalog drives. A NaN or infinite drive makes `dt` NaN: both
    // forms walk the 20,000-step floor and cannot switch.
    for drive in [1e-3, 0.5, 6.0, 64.0] {
        assert_same(&sim, CellKind::Xor2, drive, &op(40.0, 6.0, 65.0, 0.04));
    }
    for drive in [f64::NAN, f64::INFINITY] {
        let xor = op(40.0, 6.0, 65.0, 0.04);
        assert_eq!(assert_same(&sim, CellKind::Xor2, drive, &xor), 20_000);
        assert_eq!(sim.transient(CellKind::Xor2, drive, &xor).0, CANNOT_SWITCH);
    }
    // Alpha at both ends of its valid range.
    for alpha in [1.0, 2.0] {
        let sim = sim_with(TechParams {
            alpha,
            ..TechParams::default()
        });
        assert_same(&sim, CellKind::Aoi21, 2.0, &op(80.0, 8.0, 25.0, 0.0));
        assert_same(&sim, CellKind::Buf, 1.0, &op(1500.0, 1.0, 110.0, 0.08));
    }
    // A device strong enough to cross all three thresholds in one step.
    let strong = sim_with(TechParams {
        unit_current_ua: 1e13,
        ..TechParams::default()
    });
    let (burst, _) = strong.transient(inv, 1.0, &op(3000.0, 0.0, 25.0, 0.0));
    assert_eq!(burst.out_slew_ps, 0.0);
    assert_same(&strong, inv, 1.0, &op(3000.0, 0.0, 25.0, 0.0));
}
