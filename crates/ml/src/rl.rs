//! Tabular reinforcement learning: a Q-learning agent implementing the
//! [`lori_core::mgmt::Agent`] trait, plus a uniform grid discretizer for
//! mapping continuous observations (temperature, utilization, ...) onto
//! state indices.
//!
//! The paper's Sec. IV credits reinforcement learning as the most commonly
//! used technique for run-time reliability management (DVFS governors,
//! thermal-aware mapping, replica management). Tabular learners are exactly
//! the "lightweight ML" the paper calls for in resource-constrained
//! real-time systems.

use crate::error::MlError;
use lori_core::mgmt::{Agent, Transition};
use lori_core::Rng;

/// Hyper-parameters of the tabular learner.
#[derive(Debug, Clone, PartialEq)]
pub struct RlConfig {
    /// Learning rate α ∈ (0, 1].
    pub alpha: f64,
    /// Discount factor γ ∈ [0, 1].
    pub gamma: f64,
    /// Initial exploration rate ε ∈ [0, 1].
    pub epsilon: f64,
    /// Multiplicative ε decay applied at each episode end.
    pub epsilon_decay: f64,
    /// Exploration floor.
    pub epsilon_min: f64,
    /// RNG seed for exploration.
    pub seed: u64,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig {
            alpha: 0.1,
            gamma: 0.95,
            epsilon: 1.0,
            epsilon_decay: 0.99,
            epsilon_min: 0.01,
            seed: 0,
        }
    }
}

impl RlConfig {
    fn validate(&self) -> Result<(), MlError> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(MlError::InvalidHyperparameter("alpha"));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(MlError::InvalidHyperparameter("gamma"));
        }
        if !(0.0..=1.0).contains(&self.epsilon)
            || !(0.0..=1.0).contains(&self.epsilon_decay)
            || !(0.0..=1.0).contains(&self.epsilon_min)
        {
            return Err(MlError::InvalidHyperparameter("epsilon"));
        }
        Ok(())
    }
}

/// A tabular Q-learning agent (off-policy TD control).
#[derive(Debug, Clone)]
pub struct QLearning {
    q: Vec<Vec<f64>>,
    config: RlConfig,
    epsilon: f64,
    rng: Rng,
}

impl QLearning {
    /// Creates an agent with a zero-initialized Q table.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for invalid config or zero
    /// state/action counts.
    pub fn new(n_states: usize, n_actions: usize, config: RlConfig) -> Result<Self, MlError> {
        config.validate()?;
        if n_states == 0 || n_actions == 0 {
            return Err(MlError::InvalidHyperparameter("state/action count"));
        }
        let rng = Rng::from_seed(config.seed);
        let epsilon = config.epsilon;
        Ok(QLearning {
            q: vec![vec![0.0; n_actions]; n_states],
            config,
            epsilon,
            rng,
        })
    }

    /// The current Q table (`q[state][action]`).
    #[must_use]
    pub fn q_table(&self) -> &[Vec<f64>] {
        &self.q
    }

    /// Current exploration rate.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Agent for QLearning {
    fn act(&mut self, state: usize) -> usize {
        if self.rng.bernoulli(self.epsilon) {
            #[allow(clippy::cast_possible_truncation)]
            {
                self.rng.below(self.q[state].len() as u64) as usize
            }
        } else {
            self.best_action(state)
        }
    }

    fn best_action(&self, state: usize) -> usize {
        crate::tree::argmax(&self.q[state])
    }

    fn learn(&mut self, state: usize, action: usize, tr: &Transition) {
        let future = if tr.done {
            0.0
        } else {
            self.q[tr.next_state]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let target = tr.reward + self.config.gamma * future;
        let q = &mut self.q[state][action];
        *q += self.config.alpha * (target - *q);
    }

    fn end_episode(&mut self) {
        self.epsilon = (self.epsilon * self.config.epsilon_decay).max(self.config.epsilon_min);
    }
}

/// A uniform grid discretizer: maps an n-dimensional continuous observation
/// into a single dense state index.
///
/// ```
/// use lori_ml::rl::Discretizer;
/// # fn main() -> Result<(), lori_ml::MlError> {
/// // Temperature 40..100 °C in 6 bins, utilization 0..1 in 4 bins.
/// let d = Discretizer::new(vec![(40.0, 100.0, 6), (0.0, 1.0, 4)])?;
/// assert_eq!(d.state_count(), 24);
/// let s = d.index(&[55.0, 0.9]);
/// assert!(s < 24);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Discretizer {
    dims: Vec<(f64, f64, usize)>,
}

impl Discretizer {
    /// Creates a discretizer from `(low, high, bins)` per dimension.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] if any dimension has
    /// `low >= high` or zero bins, or if there are no dimensions.
    pub fn new(dims: Vec<(f64, f64, usize)>) -> Result<Self, MlError> {
        if dims.is_empty() {
            return Err(MlError::InvalidHyperparameter("dimensions"));
        }
        for &(lo, hi, bins) in &dims {
            if lo.is_nan() || hi.is_nan() || lo >= hi || bins == 0 {
                return Err(MlError::InvalidHyperparameter("dimension range/bins"));
            }
        }
        Ok(Discretizer { dims })
    }

    /// Total number of states (product of bin counts).
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.dims.iter().map(|&(_, _, b)| b).product()
    }

    /// Maps an observation to a state index; out-of-range values clamp to
    /// the boundary bins.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` differs from the number of dimensions.
    #[must_use]
    pub fn index(&self, obs: &[f64]) -> usize {
        assert_eq!(obs.len(), self.dims.len(), "observation dimension mismatch");
        let mut idx = 0usize;
        for (&x, &(lo, hi, bins)) in obs.iter().zip(&self.dims) {
            #[allow(clippy::cast_precision_loss)]
            let t = ((x - lo) / (hi - lo) * bins as f64).floor();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let bin = (t.max(0.0) as usize).min(bins - 1);
            idx = idx * bins + bin;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lori_core::mgmt::{evaluate, train, Environment};

    /// A 1-D grid world: states 0..n-1, start in the middle, +1 at the right
    /// end, -1 at the left end; both ends terminate.
    struct Cliff {
        n: usize,
        pos: usize,
    }

    impl Environment for Cliff {
        fn state_count(&self) -> usize {
            self.n
        }
        fn action_count(&self) -> usize {
            2
        }
        fn reset(&mut self) -> usize {
            self.pos = self.n / 2;
            self.pos
        }
        fn step(&mut self, action: usize) -> Transition {
            if action == 1 {
                self.pos = (self.pos + 1).min(self.n - 1);
            } else {
                self.pos = self.pos.saturating_sub(1);
            }
            let (reward, done) = if self.pos == self.n - 1 {
                (1.0, true)
            } else if self.pos == 0 {
                (-1.0, true)
            } else {
                (-0.01, false)
            };
            Transition {
                next_state: self.pos,
                reward,
                done,
            }
        }
    }

    #[test]
    fn q_learning_finds_goal() {
        let mut env = Cliff { n: 7, pos: 0 };
        let mut agent = QLearning::new(7, 2, RlConfig::default()).unwrap();
        train(&mut env, &mut agent, 300, 100);
        // Greedy policy should walk right from every interior state.
        for s in 1..6 {
            assert_eq!(agent.best_action(s), 1, "state {s}");
        }
        let mean = evaluate(&mut env, &agent, 10, 100);
        assert!(mean > 0.9, "mean reward {mean}");
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let cfg = RlConfig {
            epsilon: 1.0,
            epsilon_decay: 0.5,
            epsilon_min: 0.1,
            ..RlConfig::default()
        };
        let mut agent = QLearning::new(2, 2, cfg).unwrap();
        for _ in 0..20 {
            agent.end_episode();
        }
        assert!((agent.epsilon() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad_alpha = RlConfig {
            alpha: 0.0,
            ..RlConfig::default()
        };
        assert!(QLearning::new(2, 2, bad_alpha).is_err());
        let bad_gamma = RlConfig {
            gamma: 1.5,
            ..RlConfig::default()
        };
        assert!(QLearning::new(2, 2, bad_gamma).is_err());
        assert!(QLearning::new(0, 2, RlConfig::default()).is_err());
        assert!(QLearning::new(2, 0, RlConfig::default()).is_err());
    }

    #[test]
    fn q_update_moves_toward_target() {
        let mut agent = QLearning::new(2, 2, RlConfig::default()).unwrap();
        let tr = Transition {
            next_state: 1,
            reward: 1.0,
            done: true,
        };
        agent.learn(0, 0, &tr);
        assert!((agent.q_table()[0][0] - 0.1).abs() < 1e-12); // α·(1−0)
        agent.learn(0, 0, &tr);
        assert!(agent.q_table()[0][0] > 0.1);
    }

    #[test]
    fn discretizer_grid() {
        let d = Discretizer::new(vec![(0.0, 10.0, 5), (0.0, 1.0, 2)]).unwrap();
        assert_eq!(d.state_count(), 10);
        assert_eq!(d.index(&[0.0, 0.0]), 0);
        assert_eq!(d.index(&[9.99, 0.99]), 9);
        // Clamping.
        assert_eq!(d.index(&[-5.0, -1.0]), 0);
        assert_eq!(d.index(&[100.0, 100.0]), 9);
    }

    #[test]
    fn discretizer_validation() {
        assert!(Discretizer::new(vec![]).is_err());
        assert!(Discretizer::new(vec![(1.0, 1.0, 3)]).is_err());
        assert!(Discretizer::new(vec![(0.0, 1.0, 0)]).is_err());
    }

    #[test]
    fn discretizer_distinct_cells() {
        let d = Discretizer::new(vec![(0.0, 4.0, 4)]).unwrap();
        let idx: Vec<usize> = [0.5, 1.5, 2.5, 3.5]
            .iter()
            .map(|&x| d.index(&[x]))
            .collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }
}
