//! Section V's model (Figs. 5 and 6, E13 and E14) must report the same bits
//! across rewrites of its checkpoint, mitigation and Monte Carlo code.
//!
//! The expected hash and counter values below were recorded by running this
//! test at commit 54e3666, before `lori-ftsched` was cut down to what E3,
//! E4, E13 and E14 run. One hash folds, in this order:
//!
//! - every field of every `SweepPoint` on the 13-point paper axis at 30
//!   runs per point, with 1 and with 4 checkpoints per segment;
//! - the observable rollback caps of both configurations;
//! - `expected_cycles` and `fault_free_cycles` of each trace segment at
//!   p = 0, 1e-6 and 2e-5, with 1 and with 4 checkpoints per segment;
//! - every wall of a `wall_sensitivity` study at 20 runs per point over
//!   speedups 1.3 and 2.0 and granularities 1 and 4;
//! - the DS 1.5× wall that `find_wall` bisects on the same 20-run config;
//! - every field of `compare_ds_vs_learned` at p = 1e-7, 3e-6 and 1e-5
//!   (8 laps, seed 1);
//! - the `ftsched.rollbacks` and `ftsched.deadline_misses` counters that the
//!   sweeps and bisections above leave behind.
//!
//! This test is the only one in its binary, so no other test touches the
//! process-global counters.

use lori::ftsched::checkpoint::CheckpointSystem;
use lori::ftsched::error_model::ErrorModel;
use lori::ftsched::learning::compare_ds_vs_learned;
use lori::ftsched::mitigation::BudgetAlgorithm;
use lori::ftsched::montecarlo::{
    observable_rollback_caps, paper_probability_axis, sweep, SweepConfig,
};
use lori::ftsched::wall::{find_wall, wall_sensitivity};
use lori::ftsched::workload::adpcm_reference_trace;

/// Folds `word`'s little-endian bytes into an FNV-1a hash.
fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn with_checkpoints(k: u32, runs: usize) -> SweepConfig {
    SweepConfig {
        checkpoints: CheckpointSystem {
            checkpoints_per_segment: k,
        },
        runs,
        ..SweepConfig::paper()
    }
}

#[test]
fn section_v_matches_recorded_bits() {
    let trace = adpcm_reference_trace();
    let axis = paper_probability_axis();
    let rollbacks = lori_obs::counter("ftsched.rollbacks");
    let misses = lori_obs::counter("ftsched.deadline_misses");
    let (rollbacks_before, misses_before) = (rollbacks.get(), misses.get());
    let mut hash = FNV_OFFSET;

    for k in [1, 4] {
        let config = with_checkpoints(k, 30);
        for point in sweep(&axis, &trace, &config).expect("sweep") {
            hash = [
                point.p.to_bits(),
                point.avg_rollbacks_per_segment.to_bits(),
                point.rollbacks_std.to_bits(),
                point.hit_rate[0].to_bits(),
                point.hit_rate[1].to_bits(),
                point.hit_rate[2].to_bits(),
                point.hit_rate[3].to_bits(),
                point.cycle_overhead.to_bits(),
            ]
            .into_iter()
            .fold(hash, fnv1a);
        }
        hash = observable_rollback_caps(&trace, &config)
            .into_iter()
            .fold(hash, fnv1a);
        for p in [0.0, 1e-6, 2e-5] {
            let errors = ErrorModel::new(p).expect("probability");
            for &work in &trace {
                hash = fnv1a(
                    hash,
                    config.checkpoints.expected_cycles(work, &errors).to_bits(),
                );
                hash = fnv1a(hash, config.checkpoints.fault_free_cycles(work).value());
            }
        }
    }

    let config = with_checkpoints(1, 20);
    for row in wall_sensitivity(&trace, &config, &[1.3, 2.0], &[1, 4]).expect("sensitivity") {
        hash = row.wall_p.iter().map(|w| w.to_bits()).fold(hash, fnv1a);
    }
    let wall = find_wall(BudgetAlgorithm::Ds15, &trace, &config, 1e-9, 1e-3, 10).expect("wall");
    hash = fnv1a(hash, wall.to_bits());

    for p in [1e-7, 3e-6, 1e-5] {
        let cmp = compare_ds_vs_learned(&trace, p, 8, 1).expect("comparison");
        hash = [
            cmp.ds_hit_rate.to_bits(),
            cmp.learned_hit_rate.to_bits(),
            cmp.ds_mean_budget.to_bits(),
            cmp.learned_mean_budget.to_bits(),
        ]
        .into_iter()
        .fold(hash, fnv1a);
    }

    let counted = (
        rollbacks.get() - rollbacks_before,
        misses.get() - misses_before,
    );
    hash = fnv1a(hash, counted.0);
    hash = fnv1a(hash, counted.1);
    assert_eq!(
        (hash, counted),
        (0x00a1_d070_0b07_fd10, (13_638_443, 665_034)),
        "Section V bits drifted: hash {hash:#018x}, (rollbacks, misses) {counted:?}"
    );
}
