//! E11b (Sec. IV, refs \[1\]\[43\]\[44\]): a Q-learning DVFS manager vs the
//! five static V-f levels.
//!
//! Paper claim: reinforcement-learning managers adapt the V-f knob at run
//! time and find better reliability/energy operating points than static
//! policies.

use lori_bench::{fmt, render_table, Harness};
use lori_core::mgmt::{evaluate, train, Agent, Environment, Transition};
use lori_core::Rng;
use lori_ml::rl::{QLearning, RlConfig};
use lori_sys::manager::{DvfsEnvConfig, DvfsEnvironment};
use lori_sys::platform::{CoreKind, Platform};
use lori_sys::sched::{Mapping, SimConfig};
use lori_sys::task::generate_task_set;

struct Fixed(usize);
impl Agent for Fixed {
    fn act(&mut self, _s: usize) -> usize {
        self.0
    }
    fn best_action(&self, _s: usize) -> usize {
        self.0
    }
    fn learn(&mut self, _s: usize, _a: usize, _t: &Transition) {}
}

fn main() {
    let mut h = Harness::new(
        "exp-rl-manager",
        "E11b",
        "Q-learning DVFS manager vs static governors",
    );
    h.seed(3);
    let platform = Platform::homogeneous(CoreKind::Little, 2).expect("platform");
    let mut rng = Rng::from_seed(3);
    let tasks = generate_task_set(6, 0.8, 1.6e6, (10.0, 60.0), &mut rng).expect("tasks");
    let mapping = Mapping::round_robin(tasks.len(), 2);
    let mut env = DvfsEnvironment::new(
        platform,
        tasks,
        mapping,
        SimConfig::default(),
        DvfsEnvConfig::default(),
    )
    .expect("environment");

    println!(
        "environment: {} states × {} actions; reward = completions − misses − energy − SER − wear",
        env.state_count(),
        env.action_count()
    );

    let mut agent =
        QLearning::new(env.state_count(), env.action_count(), RlConfig::default()).expect("agent");
    println!("training 150 episodes...");
    h.config("episodes", 150u64);
    let report = h.phase("train", || train(&mut env, &mut agent, 150, 40));
    println!(
        "first-10 mean episode reward {} -> last-10 mean {}",
        fmt(report.episode_rewards.iter().take(10).sum::<f64>() / 10.0),
        fmt(report.recent_mean_reward(10)),
    );

    let mut rows = Vec::new();
    let mut learned = 0.0;
    let mut best_static = f64::NEG_INFINITY;
    h.phase("evaluate", || {
        learned = evaluate(&mut env, &agent, 5, 40);
        rows.push(vec!["Q-learning (greedy)".to_owned(), fmt(learned)]);
        for level in 0..env.action_count() {
            let r = evaluate(&mut env, &Fixed(level), 5, 40);
            best_static = best_static.max(r);
            rows.push(vec![format!("static level {level}"), fmt(r)]);
        }
    });
    println!(
        "{}",
        render_table(&["policy", "mean episode reward"], &rows)
    );
    println!("claim shape: the learned policy converges to the best static level's");
    println!("reward (and can beat it under time-varying load) while avoiding the");
    println!("catastrophic deadline-missing low levels a wrong static pick causes.");
    h.check(
        "learned policy within 20% of the best static level",
        learned >= best_static - 0.2 * best_static.abs(),
    );
    if let Err(err) = h.finish() {
        eprintln!("warning: manifest not written: {err}");
    }
}
