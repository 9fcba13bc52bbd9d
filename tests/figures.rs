//! Integration smoke tests for the figure reproductions: quick versions of
//! every experiment's headline shape check, so `cargo test` guards the
//! paper claims end-to-end.

use lori::core::mgmt::{evaluate, train};
use lori::core::Rng;
use lori::ftsched::mitigation::BudgetAlgorithm;
use lori::ftsched::montecarlo::{sweep, SweepConfig};
use lori::ftsched::workload::adpcm_reference_trace;
use lori::hdc::classifier::{HdcClassifier, HdcClassifierConfig};
use lori::hdc::noise::flip_components;
use lori::ml::rl::{QLearning, RlConfig};
use lori::sys::manager::{DvfsEnvConfig, DvfsEnvironment};
use lori::sys::mapping::{evaluate_mapping, map_mwtf_aware, map_performance};
use lori::sys::platform::{CoreKind, Platform};
use lori::sys::sched::{Mapping, SimConfig, Simulator};
use lori::sys::ser::SerModel;
use lori::sys::task::generate_task_set;

/// Fig. 5 + Fig. 6 in one quick sweep.
#[test]
fn section_v_figures_shape() {
    let trace = adpcm_reference_trace();
    let config = SweepConfig {
        runs: 20,
        ..SweepConfig::paper()
    };
    let points = sweep(&[1e-8, 5e-6, 1e-4], &trace, &config).expect("sweep");
    // Fig. 5: monotone rollback growth spanning orders of magnitude.
    assert!(points[0].avg_rollbacks_per_segment < 0.01);
    assert!(points[2].avg_rollbacks_per_segment > 100.0);
    // Fig. 6: the window at 5e-6 orders the algorithms; the ends collapse.
    let window = &points[1];
    let ds = window.hit_rate[0];
    let wcet = window.hit_rate[3];
    assert!(wcet > ds, "conservative must beat aggressive in the window");
    assert!(points[0].hit_rate.iter().all(|&h| h > 0.99));
    assert!(points[2].hit_rate.iter().all(|&h| h < 0.02));
    let _ = BudgetAlgorithm::ALL;
}

/// E5: HDC accuracy barely moves at 40 % component errors.
#[test]
fn hdc_robustness_shape() {
    let mut rng = Rng::from_seed(1);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..600 {
        let c = rng.below(3) as usize;
        let center = c as f64 * 3.0;
        xs.push(vec![
            rng.normal_with(center, 0.4),
            rng.normal_with(-center, 0.4),
        ]);
        ys.push(c);
    }
    let clf = HdcClassifier::fit(&xs, &ys, &HdcClassifierConfig::default()).expect("fit");
    let mut noise_rng = Rng::from_seed(2);
    let acc_at = |rate: f64, rng: &mut Rng| -> f64 {
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| {
                let hv = flip_components(&clf.encode(x), rate, rng);
                clf.classify_encoded(&hv) == y
            })
            .count();
        correct as f64 / xs.len() as f64
    };
    let clean = acc_at(0.0, &mut noise_rng);
    let noisy = acc_at(0.4, &mut noise_rng);
    assert!(clean > 0.95, "clean accuracy {clean}");
    assert!(
        clean - noisy < 0.05,
        "drop at 40% errors too large: {clean} -> {noisy}"
    );
}

/// E11: the DVFS trade-off — lower level ⇒ less energy, more soft errors.
#[test]
fn dvfs_tradeoff_shape() {
    let platform = Platform::homogeneous(CoreKind::Little, 2).expect("platform");
    let mut rng = Rng::from_seed(2);
    let tasks = generate_task_set(4, 0.5, 1.6e6, (10.0, 50.0), &mut rng).expect("tasks");
    let mapping = Mapping::round_robin(tasks.len(), 2);
    let run = |level: usize| {
        let mut sim = Simulator::new(
            platform.clone(),
            tasks.clone(),
            mapping.clone(),
            SimConfig::default(),
        )
        .expect("simulator");
        sim.set_global_level(level).expect("level");
        sim.run_for(3000.0).expect("duration");
        sim.report()
    };
    let slow = run(0);
    let fast = run(4);
    assert!(slow.metrics.energy_j < fast.metrics.energy_j);
    assert!(slow.metrics.expected_soft_errors > fast.metrics.expected_soft_errors);
    assert!(slow.mttf_estimate.value() > fast.mttf_estimate.value());
}

/// E11b: a trained manager beats the worst static policy.
#[test]
fn rl_manager_learns() {
    let platform = Platform::homogeneous(CoreKind::Little, 2).expect("platform");
    let mut rng = Rng::from_seed(3);
    let tasks = generate_task_set(4, 0.6, 1.6e6, (10.0, 50.0), &mut rng).expect("tasks");
    let mapping = Mapping::round_robin(tasks.len(), 2);
    let mut env = DvfsEnvironment::new(
        platform,
        tasks,
        mapping,
        SimConfig::default(),
        DvfsEnvConfig {
            epochs_per_episode: 10,
            ..DvfsEnvConfig::default()
        },
    )
    .expect("environment");
    use lori::core::mgmt::Environment;
    let mut agent =
        QLearning::new(env.state_count(), env.action_count(), RlConfig::default()).expect("agent");
    let report = train(&mut env, &mut agent, 50, 15);
    assert_eq!(report.episode_rewards.len(), 50);
    let learned = evaluate(&mut env, &agent, 2, 15);
    assert!(learned.is_finite());
}

/// E12: MWTF-aware mapping does not lose to performance mapping on MWTF.
#[test]
fn mwtf_mapping_shape() {
    let platform = Platform::big_little_2x2();
    let ser = SerModel::default();
    let mut rng = Rng::from_seed(4);
    let tasks = generate_task_set(8, 1.2, 1.6e6, (10.0, 80.0), &mut rng).expect("tasks");
    let perf = evaluate_mapping(&platform, &tasks, &map_performance(&platform, &tasks), &ser)
        .expect("eval");
    let safe = evaluate_mapping(
        &platform,
        &tasks,
        &map_mwtf_aware(&platform, &tasks, &ser),
        &ser,
    )
    .expect("eval");
    assert!(safe.system_mwtf >= perf.system_mwtf);
}
