//! The golden transient engine must take the same steps and return the same
//! bits across rewrites of its step loop.
//!
//! The expected values below were recorded by running this test at commit
//! 26d903f, on the single-phase step loop that recomputed the
//! alpha-power-law current, two `powf` calls included, at every step. The
//! operating points put each phase of the transient in front: a fast input
//! edge into a heavy load spends most steps at the rail with the device
//! saturated, a slow edge into a light load spends them in the input ramp
//! and the linear region, and the hot, aged points reach
//! `MlCharConfig::default()`'s ΔT 45 K and ΔVth 0.08 V. Every catalog kind
//! runs at every catalog drive, so a one-bit drift in a delay or a slew, or
//! one step more or fewer, shows up here.
//!
//! The 240 arcs run twice: once as single calls and once as one batch,
//! whose rail phases step eight arcs together. Both must give the recorded
//! bits and steps.
//!
//! This file holds one test, so no other golden call in the process moves
//! the `circuit.transient.steps` counter while it runs.

use lori::circuit::cell::{CellKind, DRIVE_STRENGTHS};
use lori::circuit::spicelike::{ArcTiming, GoldenSimulator, OperatingPoint};
use lori::circuit::tech::TechParams;
use lori::core::units::{Celsius, Volts};

/// Folds `word`'s little-endian bytes into an FNV-1a hash.
fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn op(slew_ps: f64, load_ff: f64, celsius: f64, delta_vth: f64) -> OperatingPoint {
    OperatingPoint {
        slew_ps,
        load_ff,
        temperature: Celsius(celsius),
        delta_vth: Volts(delta_vth),
    }
}

/// Folds every timing's delay and slew bits into one hash.
fn hash(timings: &[ArcTiming]) -> u64 {
    timings.iter().fold(FNV_OFFSET, |hash, t| {
        fnv1a(fnv1a(hash, t.delay_ps.to_bits()), t.out_slew_ps.to_bits())
    })
}

#[test]
fn golden_arcs_match_recorded_bits_and_steps() {
    let sim = GoldenSimulator::new(TechParams::default()).expect("valid tech");
    let points = [
        // Fast edge, heavy load: saturated at the rail.
        op(5.0, 16.0, 25.0, 0.0),
        // Slow edge, light load: input ramp and linear region.
        op(160.0, 0.5, 25.0, 0.0),
        // Mid-grid, hot and aged to the training box's corner.
        op(40.0, 4.0, 110.0, 0.08),
        // Slow edge, heavy load, cold and half aged.
        op(120.0, 12.0, -40.0, 0.04),
    ];
    let arcs: Vec<(CellKind, f64, OperatingPoint)> = points
        .iter()
        .flat_map(|&point| {
            CellKind::ALL.into_iter().flat_map(move |kind| {
                DRIVE_STRENGTHS
                    .into_iter()
                    .map(move |drive| (kind, drive, point))
            })
        })
        .collect();
    assert_eq!(arcs.len(), 240);
    let steps = lori_obs::counter("circuit.transient.steps");

    let before = steps.get();
    let single: Vec<ArcTiming> = arcs
        .iter()
        .map(|(kind, drive, point)| sim.characterize(*kind, *drive, point))
        .collect();
    let single_steps = steps.get() - before;

    let before = steps.get();
    let batch = sim.characterize_many(&arcs);
    let batch_steps = steps.get() - before;

    for (run, timings, taken) in [
        ("single calls", &single, single_steps),
        ("one batch", &batch, batch_steps),
    ] {
        assert_eq!(
            hash(timings),
            0x448a_9f50_a158_a199,
            "{run}: delay/slew bits"
        );
        assert_eq!(taken, 3_454_209, "{run}: circuit.transient.steps");
    }
}
