//! Learning-based reliability managers: the paper's Fig.-1 loop
//! instantiated on the multicore simulator.
//!
//! [`DvfsEnvironment`] exposes the simulator as an RL environment: the
//! *state* is the discretized (peak temperature, recent utilization), the
//! *actions* are global V-f levels, and the *reward* trades energy,
//! deadline misses, expected soft errors, and wear-out damage — the
//! multi-objective the Sec.-IV approaches (refs \[1\], \[33\], \[43\], \[44\])
//! optimize.

use crate::error::SysError;
use crate::platform::Platform;
use crate::sched::{Mapping, Metrics, SimConfig, Simulator};
use crate::task::Task;
use lori_core::mgmt::{Environment, Transition};
use lori_ml::rl::Discretizer;

/// Reward weights. All terms are normalized per control epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct RewardWeights {
    /// Reward per completed job.
    pub completed: f64,
    /// Penalty per missed deadline.
    pub missed: f64,
    /// Penalty per joule.
    pub energy: f64,
    /// Penalty per expected soft error (scaled; expected counts are tiny).
    pub soft_error: f64,
    /// Penalty per unit of wear damage (scaled; damage is tiny per epoch).
    pub wear: f64,
    /// Penalty applied when peak temperature exceeds `temp_limit_c`.
    pub overtemp: f64,
    /// Thermal limit in °C.
    pub temp_limit_c: f64,
}

impl Default for RewardWeights {
    fn default() -> Self {
        RewardWeights {
            completed: 1.0,
            missed: 20.0,
            energy: 2.0,
            soft_error: 5.0e6,
            wear: 5.0e7,
            overtemp: 10.0,
            temp_limit_c: 90.0,
        }
    }
}

impl RewardWeights {
    /// Computes the epoch reward from a metrics delta and the epoch-end
    /// peak temperature.
    #[must_use]
    pub fn reward(&self, delta: &Metrics, peak_temp_c: f64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let mut r = self.completed * delta.completed as f64
            - self.missed * delta.missed as f64
            - self.energy * delta.energy_j
            - self.soft_error * delta.expected_soft_errors
            - self.wear * delta.worst_wear_damage;
        if peak_temp_c > self.temp_limit_c {
            r -= self.overtemp * (peak_temp_c - self.temp_limit_c);
        }
        r
    }
}

/// Configuration of the DVFS learning environment.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsEnvConfig {
    /// Control epoch in ms (one RL step).
    pub epoch_ms: f64,
    /// Epochs per episode.
    pub epochs_per_episode: usize,
    /// Reward weights.
    pub weights: RewardWeights,
    /// Temperature discretization range (°C) and bins.
    pub temp_bins: (f64, f64, usize),
    /// Utilization bins.
    pub util_bins: usize,
}

impl Default for DvfsEnvConfig {
    fn default() -> Self {
        DvfsEnvConfig {
            epoch_ms: 50.0,
            epochs_per_episode: 40,
            weights: RewardWeights::default(),
            temp_bins: (45.0, 105.0, 6),
            util_bins: 4,
        }
    }
}

/// An RL environment whose action is the global V-f level of the platform.
#[derive(Debug, Clone)]
pub struct DvfsEnvironment {
    /// The simulator as constructed, which every episode starts from.
    initial: Simulator,
    config: DvfsEnvConfig,
    discretizer: Discretizer,
    n_levels: usize,
    sim: Simulator,
    epoch: usize,
    last_metrics: Metrics,
}

impl DvfsEnvironment {
    /// Creates the environment.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::BadParameter`] for a non-finite or non-positive
    /// `epoch_ms`, and propagates simulator construction errors and
    /// discretizer errors (reported as [`SysError::BadParameter`]).
    pub fn new(
        platform: Platform,
        tasks: Vec<Task>,
        mapping: Mapping,
        sim_config: SimConfig,
        config: DvfsEnvConfig,
    ) -> Result<Self, SysError> {
        check_epoch(config.epoch_ms)?;
        let n_levels = platform
            .cores()
            .iter()
            .map(crate::platform::Core::level_count)
            .min()
            .unwrap_or(0);
        if n_levels == 0 {
            return Err(SysError::EmptyPlatform("no common V-f levels"));
        }
        let (t_lo, t_hi, t_bins) = config.temp_bins;
        let discretizer =
            Discretizer::new(vec![(t_lo, t_hi, t_bins), (0.0, 1.0, config.util_bins)]).map_err(
                |_| SysError::BadParameter {
                    what: "discretizer bins",
                    value: 0.0,
                },
            )?;
        let initial = Simulator::new(platform, tasks, mapping, sim_config)?;
        Ok(DvfsEnvironment {
            sim: initial.clone(),
            initial,
            config,
            discretizer,
            n_levels,
            epoch: 0,
            last_metrics: Metrics::default(),
        })
    }

    fn observe(&self) -> usize {
        self.discretizer.index(&[
            self.sim.peak_temperature().value(),
            self.sim.recent_utilization(),
        ])
    }

    /// The simulator's cumulative metrics (for end-of-episode evaluation).
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.sim.metrics()
    }
}

impl Environment for DvfsEnvironment {
    fn state_count(&self) -> usize {
        self.discretizer.state_count()
    }

    fn action_count(&self) -> usize {
        self.n_levels
    }

    fn reset(&mut self) -> usize {
        self.sim = self.initial.clone();
        self.epoch = 0;
        self.last_metrics = Metrics::default();
        self.observe()
    }

    fn step(&mut self, action: usize) -> Transition {
        #[allow(clippy::cast_precision_loss)]
        let _tick_span = lori_obs::span_with("sys.manager.tick", action as f64);
        assert!(action < self.n_levels, "action out of range");
        self.sim
            .set_global_level(action)
            .expect("level validated by action_count");
        self.sim
            .run_for(self.config.epoch_ms)
            .expect("epoch validated at construction");
        let now = self.sim.metrics();
        let delta = now.since(&self.last_metrics);
        self.last_metrics = now;
        let reward = self
            .config
            .weights
            .reward(&delta, self.sim.peak_temperature().value());
        self.epoch += 1;
        Transition {
            next_state: self.observe(),
            reward,
            done: self.epoch >= self.config.epochs_per_episode,
        }
    }
}

/// The `DvfsEnvironment::new` guard: a control epoch must be a finite,
/// positive duration, or every step would simulate nothing or never return.
fn check_epoch(epoch_ms: f64) -> Result<(), SysError> {
    if epoch_ms.is_finite() && epoch_ms > 0.0 {
        return Ok(());
    }
    Err(SysError::BadParameter {
        what: "epoch_ms",
        value: epoch_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::CoreKind;
    use crate::task::generate_task_set;
    use lori_core::mgmt::{evaluate, train};
    use lori_core::Rng;
    use lori_ml::rl::{QLearning, RlConfig};

    fn env_with(seed: u64, epoch_ms: f64) -> Result<DvfsEnvironment, SysError> {
        let platform = Platform::homogeneous(CoreKind::Little, 2).unwrap();
        let mut rng = Rng::from_seed(seed);
        let tasks = generate_task_set(4, 0.5, 1.6e6, (10.0, 50.0), &mut rng).unwrap();
        let mapping = Mapping::round_robin(tasks.len(), 2);
        DvfsEnvironment::new(
            platform,
            tasks,
            mapping,
            SimConfig::default(),
            DvfsEnvConfig {
                epoch_ms,
                epochs_per_episode: 10,
                ..DvfsEnvConfig::default()
            },
        )
    }

    fn env(seed: u64) -> DvfsEnvironment {
        env_with(seed, DvfsEnvConfig::default().epoch_ms).unwrap()
    }

    #[test]
    fn environment_shape() {
        let e = env(1);
        assert_eq!(e.state_count(), 24);
        assert_eq!(e.action_count(), 5);
    }

    #[test]
    fn episodes_terminate() {
        let mut e = env(2);
        let first = e.reset();
        assert!(first < e.state_count());
        let mut steps = 0;
        loop {
            let tr = e.step(2.min(e.action_count() - 1));
            steps += 1;
            assert!(tr.next_state < e.state_count());
            if tr.done {
                break;
            }
        }
        assert_eq!(steps, 10);
    }

    #[test]
    fn reward_prefers_meeting_deadlines_over_starving() {
        // With a moderately loaded system, the slowest level misses
        // deadlines and should earn less reward than a mid level.
        let mut e = env(3);
        e.reset();
        let r_slow: f64 = (0..10).map(|_| e.step(0).reward).sum();
        e.reset();
        let r_mid: f64 = (0..10).map(|_| e.step(3).reward).sum();
        assert!(
            r_mid > r_slow,
            "mid level reward {r_mid} vs slowest {r_slow}"
        );
    }

    #[test]
    fn q_learning_beats_worst_static_policy() {
        let mut e = env(4);
        let mut agent =
            QLearning::new(e.state_count(), e.action_count(), RlConfig::default()).unwrap();
        train(&mut e, &mut agent, 60, 20);
        let learned = evaluate(&mut e, &agent, 3, 20);
        // Compare against the worst static level.
        let mut worst = f64::INFINITY;
        for level in 0..e.action_count() {
            struct Fixed(usize);
            impl lori_core::mgmt::Agent for Fixed {
                fn act(&mut self, _s: usize) -> usize {
                    self.0
                }
                fn best_action(&self, _s: usize) -> usize {
                    self.0
                }
                fn learn(&mut self, _s: usize, _a: usize, _t: &lori_core::mgmt::Transition) {}
            }
            let r = evaluate(&mut e, &Fixed(level), 2, 20);
            worst = worst.min(r);
        }
        assert!(
            learned > worst,
            "learned {learned} should beat worst static {worst}"
        );
    }

    #[test]
    fn reward_weights_penalize_misses() {
        let w = RewardWeights::default();
        let good = Metrics {
            completed: 10,
            ..Metrics::default()
        };
        let bad = Metrics {
            completed: 5,
            missed: 5,
            ..Metrics::default()
        };
        assert!(w.reward(&good, 60.0) > w.reward(&bad, 60.0));
        // Overtemp penalty bites.
        assert!(w.reward(&good, 100.0) < w.reward(&good, 60.0));
    }

    #[test]
    fn non_finite_or_non_positive_epoch_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -50.0] {
            match env_with(5, bad) {
                Err(SysError::BadParameter { what, .. }) => assert_eq!(what, "epoch_ms"),
                other => panic!("epoch_ms {bad} gave {:?}", other.map(|_| ())),
            }
        }
        let mut e = env_with(5, 0.5).unwrap();
        e.reset();
        e.step(4);
        assert_eq!(e.metrics().elapsed_ms, 1.0);
    }
}
