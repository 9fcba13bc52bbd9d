//! The single-loop transient, kept as the oracle the phased, laned engine
//! must equal step for step and bit for bit, and the tests that compare
//! them.
//!
//! The oracle recomputes the whole alpha-power current at every step, the
//! mobility factor's and the overdrive's `powf` included, clamps the input
//! ramp with `.min(vdd)`, and tests all three output thresholds after every
//! step. It runs one arc at a time. The tests compare the timing bits, the
//! step count, and the bits of `v_out` and `t` after the last step, which a
//! reassociated step can change without moving a crossing.

use super::{ArcTiming, GoldenSimulator, OperatingPoint, Transient, CANNOT_SWITCH, STEP_CEILING};
use crate::cell::{CellKind, DRIVE_STRENGTHS};
use crate::tech::TechParams;
use lori_core::units::{Celsius, Volts};
use lori_core::Rng;

/// [`GoldenSimulator::transients`] for one arc, as one loop over every
/// step.
pub(crate) fn transient(
    sim: &GoldenSimulator,
    kind: CellKind,
    drive: f64,
    op: &OperatingPoint,
) -> Transient {
    let vdd = sim.tech.vdd.value();
    let no_step = Transient {
        timing: ArcTiming {
            delay_ps: f64::INFINITY,
            out_slew_ps: f64::INFINITY,
        },
        steps: 0,
        v_out: vdd,
        t: 0.0,
    };
    let fields = [
        op.slew_ps,
        op.load_ff,
        op.temperature.value(),
        op.delta_vth.value(),
    ];
    if fields.iter().any(|x| !x.is_finite()) {
        return no_step;
    }
    let vth = sim.tech.vth_at(op.temperature, op.delta_vth).value();
    if vth >= vdd {
        return no_step;
    }

    // Effective drive width: stacking (logical effort) divides current.
    let width = drive / kind.logical_effort();
    let i_sat_ua = sim
        .tech
        .drive_current_ua(width, op.temperature, op.delta_vth);
    if i_sat_ua <= 0.0 {
        return no_step;
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
    let steps = ((t_end * sim.steps_per_ps) as u64).max(sim.min_steps);
    if steps > STEP_CEILING {
        return no_step;
    }
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

    let end = Transient {
        steps: steps_taken,
        v_out,
        t,
        ..no_step
    };
    if t_out_50.is_nan() {
        return end;
    }
    let out_slew = if t_out_10.is_nan() || t_out_90.is_nan() {
        f64::INFINITY
    } else {
        (t_out_10 - t_out_90) * 1.25 // 10–90 % → 0–100 % equivalent
    };
    Transient {
        timing: ArcTiming {
            delay_ps: (t_out_50 - t_in_50).max(0.1),
            out_slew_ps: out_slew,
        },
        ..end
    }
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

/// The bits the engine and the oracle must agree on.
fn bits(run: &Transient) -> [u64; 5] {
    [
        run.timing.delay_ps.to_bits(),
        run.timing.out_slew_ps.to_bits(),
        run.steps,
        run.v_out.to_bits(),
        run.t.to_bits(),
    ]
}

/// Asserts that the engine's run of `arc` equals the oracle's: timing,
/// step count, final `v_out` and `t`, bit for bit.
fn assert_matches_oracle(sim: &GoldenSimulator, arc: &Arc, run: &Transient) {
    let (kind, drive, op) = arc;
    let want = transient(sim, *kind, *drive, op);
    assert_eq!(
        bits(run),
        bits(&want),
        "{kind:?} X{drive} at {op:?}: engine {run:?}, oracle {want:?}"
    );
}

/// Runs `arc` alone through the engine, asserts it equals the oracle and
/// returns its step count.
fn assert_same(sim: &GoldenSimulator, kind: CellKind, drive: f64, op: &OperatingPoint) -> u64 {
    let arc = (kind, drive, *op);
    let run = single(sim, &arc);
    assert_matches_oracle(sim, &arc, &run);
    run.steps
}

/// Runs `batch` through the engine as one batch and asserts that every
/// arc equals the oracle.
fn assert_batch_matches(sim: &GoldenSimulator, batch: &[Arc]) -> Vec<Transient> {
    let runs = sim.transients(batch);
    assert_eq!(runs.len(), batch.len());
    for (arc, run) in batch.iter().zip(&runs) {
        assert_matches_oracle(sim, arc, run);
    }
    runs
}

type Arc = (CellKind, f64, OperatingPoint);

fn single(sim: &GoldenSimulator, arc: &Arc) -> Transient {
    sim.transients(std::slice::from_ref(arc))[0]
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
    let stuck = single(&sim, &(inv, 1.0, op(-1e5, 4.0, 25.0, 0.0)));
    assert!(stuck.timing.delay_ps.is_infinite() && stuck.steps == 20_000);
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
    // The three returns without a step: `vth ≥ vdd`, no drive current,
    // and a budget past the ceiling (`vth` 10 µV below `vdd`).
    assert_eq!(assert_same(&sim, inv, 1.0, &op(20.0, 4.0, 25.0, 0.6)), 0);
    assert_eq!(
        assert_same(&sim, inv, 1.0, &op(20.0, 4.0, 25.0, 0.49999)),
        0
    );
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
        assert_eq!(
            single(&sim, &(CellKind::Xor2, drive, xor)).timing,
            CANNOT_SWITCH
        );
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
    // Arcs whose final `v_out`, but not their timing, changes when the
    // saturated decrement is reassociated as `1e-3 · (i_sat_ua · dt) /
    // c_total`: within one binade of `v_out` each step subtracts the
    // decrement rounded to `v_out`'s grid, and a one-ulp change of the
    // decrement moves that rounding for about one training-box arc in
    // 1,600.
    let and2 = op(
        146.70719906608772,
        13.333755154779194,
        75.43606281812939,
        0.07395677297229858,
    );
    assert_same(&sim, CellKind::And2, 3.0, &and2);
    let nand2 = op(
        113.6289486383271,
        4.950225946805541,
        83.57728400590118,
        0.05986922416969507,
    );
    assert_same(&sim, CellKind::Nand2, 4.0, &nand2);
    // A device strong enough to cross all three thresholds in one step.
    let strong = sim_with(TechParams {
        unit_current_ua: 1e13,
        ..TechParams::default()
    });
    let burst = single(&strong, &(inv, 1.0, op(3000.0, 0.0, 25.0, 0.0)));
    assert_eq!(burst.timing.out_slew_ps, 0.0);
    assert_same(&strong, inv, 1.0, &op(3000.0, 0.0, 25.0, 0.0));
}

/// Arcs that end each way an arc can, to mix into batches.
fn special_arcs() -> [Arc; 9] {
    let inv = CellKind::Inv;
    [
        // Non-finite fields: cannot switch in 0 steps.
        (inv, 1.0, op(f64::NAN, 4.0, 25.0, 0.0)),
        (CellKind::Nand2, 2.0, op(20.0, f64::INFINITY, 25.0, 0.0)),
        // Dead devices: `vth ≥ vdd`, no drive current, a runaway budget.
        (inv, 1.0, op(20.0, 4.0, 25.0, 0.6)),
        (inv, 0.0, op(20.0, 4.0, 25.0, 0.0)),
        (inv, 1.0, op(20.0, 4.0, 25.0, 0.49999)),
        // A strong device under a slow edge ends inside the input ramp.
        (inv, 8.0, op(3000.0, 0.5, 25.0, 0.0)),
        // Budgets that run out: in the ramp (`dt < 0`), and on the rail (a
        // NaN drive makes every step NaN).
        (inv, 1.0, op(-1e5, 4.0, 25.0, 0.0)),
        (CellKind::Xor2, f64::NAN, op(40.0, 6.0, 65.0, 0.04)),
        // `vdsat` below the 10 % threshold: ends while saturated.
        (inv, 2.0, op(20.0, 2.0, 25.0, 0.4)),
    ]
}

/// An arc of a random kind at a catalog or off-catalog drive.
fn random_arc(rng: &mut Rng, op: impl FnOnce(&mut Rng) -> OperatingPoint) -> Arc {
    let kind = CellKind::ALL[rng.below(12) as usize];
    let drive = if rng.bernoulli(0.5) {
        DRIVE_STRENGTHS[rng.below(5) as usize]
    } else {
        rng.uniform_in(0.05, 16.0)
    };
    (kind, drive, op(rng))
}

/// Builds a batch of `size` arcs in which every third arc is one of
/// [`special_arcs`] and the rest are drawn by `draw`.
fn mixed_batch(size: usize, rng: &mut Rng, mut draw: impl FnMut(&mut Rng) -> Arc) -> Vec<Arc> {
    let special = special_arcs();
    (0..size)
        .map(|i| {
            if i % 3 == 2 {
                special[(i / 3 + size) % special.len()]
            } else {
                draw(rng)
            }
        })
        .collect()
}

#[test]
fn mixed_batches_match_the_oracle() {
    let sim = sim_with(TechParams::default());
    let mut rng = Rng::from_seed(0xba7c_4e55);
    // Arcs in Fig. 3's training box, kept short for a debug build.
    let training_box = |rng: &mut Rng| {
        random_arc(rng, |rng| {
            op(
                rng.uniform_in(5.0, 160.0),
                rng.uniform_in(0.5, 16.0),
                rng.uniform_in(25.0, 110.0),
                rng.uniform_in(0.0, 0.08),
            )
        })
    };
    for size in [0, 1, 7, 8, 9, 220] {
        let batch = mixed_batch(size, &mut rng, training_box);
        assert_batch_matches(&sim, &batch);
    }
    // Every special arc ends as its comment says, in a batch of its own.
    let special = special_arcs();
    let runs = assert_batch_matches(&sim, &special);
    let steps: Vec<u64> = runs.iter().map(|r| r.steps).collect();
    assert_eq!(steps[..5], [0; 5]);
    assert!(runs[5].timing.delay_ps.is_finite() && runs[5].t < 3000.0);
    assert_eq!(steps[6..8], [20_000; 2]);
    let vdsat = 0.4 * (0.8 - 0.7);
    assert!(runs[8].timing.out_slew_ps.is_finite() && runs[8].v_out >= vdsat);
}

/// The release sweep: 10,000 random arcs over the oracle tests' full
/// ranges, in batches of random size with the special arcs mixed in.
#[test]
#[ignore = "about 40 s in a release build; CI runs it with `cargo test --release -- --ignored`"]
fn random_arcs_in_mixed_batches_match_the_oracle() {
    let sim = sim_with(TechParams::default());
    let mut rng = Rng::from_seed(0x5eed_5a1e);
    let mut drawn = 0;
    while drawn < 10_000 {
        let size = 1 + rng.below(256) as usize;
        let batch = mixed_batch(size, &mut rng, |rng| {
            drawn += 1;
            random_arc(rng, random_op)
        });
        assert_batch_matches(&sim, &batch);
    }
}
