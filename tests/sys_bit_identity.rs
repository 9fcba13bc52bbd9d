//! The multicore simulator must report the same bits across rewrites of its
//! scheduler, governor and power-state code.
//!
//! The expected values below were recorded by running this test at commit
//! 2344e83, before the simulator was cut down to what E11a and E11b run.
//! Two runs are folded into one hash each:
//!
//! - E11a's setup (`exp-dvfs-tradeoff`: six tasks at 0.9 utilization on two
//!   Little cores) at each of the five V-f levels, set through
//!   `set_global_level` before the first quantum, for 3 s of simulated time;
//! - one 40-epoch `DvfsEnvironment` episode on E11b's setup
//!   (`exp-rl-manager`: six tasks at 0.8 utilization) with a fixed action
//!   sequence that visits every level and changes level at most epochs but
//!   not all.
//!
//! Every float in `Metrics`, the average peak temperature and the MTTF
//! estimate, every count, every reward and every observed state goes in,
//! so a one-bit drift in energy, soft-error exposure, wear or temperature,
//! or one job more or fewer, shows up here.

use lori::core::mgmt::Environment;
use lori::core::Rng;
use lori::sys::manager::{DvfsEnvConfig, DvfsEnvironment};
use lori::sys::platform::{CoreKind, Platform};
use lori::sys::sched::{Mapping, Metrics, SimConfig, Simulator};
use lori::sys::task::generate_task_set;

/// Folds `word`'s little-endian bytes into an FNV-1a hash.
fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds every field of `m` into `hash`.
fn fold_metrics(hash: u64, m: &Metrics) -> u64 {
    [
        m.energy_j.to_bits(),
        m.released,
        m.completed,
        m.missed,
        m.expected_soft_errors.to_bits(),
        m.worst_wear_damage.to_bits(),
        m.elapsed_ms.to_bits(),
    ]
    .into_iter()
    .fold(hash, fnv1a)
}

fn two_little_cores() -> Platform {
    Platform::homogeneous(CoreKind::Little, 2).expect("platform")
}

#[test]
fn simulator_runs_match_recorded_bits() {
    // E11a: five fixed levels.
    let mut rng = Rng::from_seed(1);
    let tasks = generate_task_set(6, 0.9, 1.6e6, (10.0, 60.0), &mut rng).expect("tasks");
    let mapping = Mapping::round_robin(tasks.len(), 2);
    let mut levels_hash = FNV_OFFSET;
    for level in 0..5 {
        let mut sim = Simulator::new(
            two_little_cores(),
            tasks.clone(),
            mapping.clone(),
            SimConfig::default(),
        )
        .expect("simulator");
        sim.set_global_level(level).expect("level");
        sim.run_for(3000.0).expect("duration");
        let r = sim.report();
        levels_hash = fold_metrics(levels_hash, &r.metrics);
        levels_hash = fnv1a(levels_hash, r.avg_peak_temp.value().to_bits());
        levels_hash = fnv1a(levels_hash, r.mttf_estimate.value().to_bits());
    }

    // E11b: one episode with fixed actions.
    let mut rng = Rng::from_seed(3);
    let tasks = generate_task_set(6, 0.8, 1.6e6, (10.0, 60.0), &mut rng).expect("tasks");
    let mapping = Mapping::round_robin(tasks.len(), 2);
    let mut env = DvfsEnvironment::new(
        two_little_cores(),
        tasks,
        mapping,
        SimConfig::default(),
        DvfsEnvConfig::default(),
    )
    .expect("environment");
    let mut episode_hash = fnv1a(FNV_OFFSET, env.reset() as u64);
    for epoch in 0..40usize {
        let action = [4, 4, 3, 1, 0, 0, 2, 4][epoch % 8];
        let tr = env.step(action);
        episode_hash = fnv1a(episode_hash, tr.reward.to_bits());
        episode_hash = fnv1a(episode_hash, tr.next_state as u64);
        episode_hash = fnv1a(episode_hash, u64::from(tr.done));
    }
    episode_hash = fold_metrics(episode_hash, &env.metrics());

    assert_eq!(
        (levels_hash, episode_hash),
        (0x945c_caf8_c92b_39d4, 0xe83f_e633_62e9_93c1),
        "simulator bits drifted: (levels, episode) = ({levels_hash:#018x}, {episode_hash:#018x})"
    );
}
