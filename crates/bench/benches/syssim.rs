//! Multicore reliability-simulator throughput (simulated ms per wall
//! second), including the tabular-RL manager's per-decision overhead — the
//! "lightweight ML at run time" requirement the paper stresses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lori_core::mgmt::{Agent, Environment};
use lori_core::Rng;
use lori_ml::rl::{QLearning, RlConfig};
use lori_sys::manager::{DvfsEnvConfig, DvfsEnvironment};
use lori_sys::platform::{CoreKind, Platform};
use lori_sys::sched::{Mapping, SimConfig, Simulator};
use lori_sys::task::generate_task_set;
use std::hint::black_box;

fn bench_syssim(c: &mut Criterion) {
    let mut group = c.benchmark_group("syssim");
    for cores in [2usize, 4, 8] {
        let platform = Platform::homogeneous(CoreKind::Little, cores).expect("platform");
        let mut rng = Rng::from_seed(1);
        let tasks = generate_task_set(cores * 3, 0.5 * cores as f64, 1.6e6, (10.0, 60.0), &mut rng)
            .expect("tasks");
        let mapping = Mapping::round_robin(tasks.len(), cores);
        group.bench_with_input(BenchmarkId::new("simulate_1s", cores), &cores, |b, _| {
            b.iter(|| {
                let mut sim = Simulator::new(
                    platform.clone(),
                    tasks.clone(),
                    mapping.clone(),
                    SimConfig::default(),
                )
                .expect("simulator");
                sim.run_for(1000.0).expect("duration");
                sim.report()
            });
        });
    }
    group.finish();

    // Per-decision cost of the tabular RL manager.
    let platform = Platform::homogeneous(CoreKind::Little, 2).expect("platform");
    let mut rng = Rng::from_seed(2);
    let tasks = generate_task_set(4, 0.5, 1.6e6, (10.0, 50.0), &mut rng).expect("tasks");
    let mapping = Mapping::round_robin(tasks.len(), 2);
    let env = DvfsEnvironment::new(
        platform,
        tasks,
        mapping,
        SimConfig::default(),
        DvfsEnvConfig::default(),
    )
    .expect("environment");
    let mut agent =
        QLearning::new(env.state_count(), env.action_count(), RlConfig::default()).expect("agent");
    c.bench_function("rl_decision", |b| {
        b.iter(|| agent.act(black_box(7)));
    });
}

criterion_group! {
    name = benches;
    // Short measurement windows keep `cargo bench --workspace` to a few
    // minutes while still giving stable medians for these coarse kernels.
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(400))
        .sample_size(20);
    targets = bench_syssim
}
criterion_main!(benches);
