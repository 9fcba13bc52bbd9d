//! Replica management (Sec. IV-A.4): adapting the number of task replicas
//! to the observed environment.
//!
//! Replication guarantees correct execution of real-time tasks: with `r`
//! independent replicas and majority voting, a job fails only if a majority
//! of replicas are hit. The survey (ref \[45\]) describes ML-driven managers
//! that "modify the fault-tolerance attributes and change the number of task
//! replicas in response to environmental changes" — here, a Bayesian-style
//! estimator tracks the ambient fault rate from observed replica
//! disagreements and picks the cheapest replica count meeting a reliability
//! target.

use crate::error::SysError;
use lori_core::units::Probability;
use lori_core::Rng;

/// Reliability of `replicas`-modular redundancy with majority voting, given
/// a per-replica failure probability.
///
/// A configuration with an even replica count breaks ties pessimistically
/// (a tie counts as failure). `replicas = 1` means no redundancy.
#[must_use]
pub fn majority_reliability(per_replica_failure: Probability, replicas: u32) -> Probability {
    let p = per_replica_failure.value();
    let n = replicas.max(1);
    // A job succeeds if at most floor((n-1)/2) replicas fail.
    let tolerable = (n - 1) / 2;
    let mut ok = 0.0;
    for k in 0..=tolerable {
        ok += binomial_pmf(n, k, p);
    }
    Probability::saturating(ok)
}

fn binomial_pmf(n: u32, k: u32, p: f64) -> f64 {
    let mut coeff = 1.0;
    for i in 0..k {
        coeff *= f64::from(n - i) / f64::from(i + 1);
    }
    coeff * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
}

/// Configuration of the adaptive replica manager.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaManagerConfig {
    /// Required per-job success probability.
    pub reliability_target: Probability,
    /// Largest replica count the platform can afford.
    pub max_replicas: u32,
    /// Prior pseudo-observations for the failure-rate estimator (Beta
    /// prior: `alpha` failures over `beta` replica-executions).
    pub prior_failures: f64,
    /// Prior pseudo-count of clean replica executions.
    pub prior_successes: f64,
}

impl Default for ReplicaManagerConfig {
    fn default() -> Self {
        ReplicaManagerConfig {
            reliability_target: Probability::saturating(0.999_999),
            max_replicas: 7,
            prior_failures: 0.5,
            prior_successes: 500.0,
        }
    }
}

/// An adaptive replica manager: learns the ambient per-replica failure
/// probability from observed outcomes and picks the cheapest replica count
/// meeting the target.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaManager {
    config: ReplicaManagerConfig,
    failures: f64,
    executions: f64,
}

impl ReplicaManager {
    /// Creates a manager.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::BadParameter`] for zero max replicas or
    /// non-positive priors.
    pub fn new(config: ReplicaManagerConfig) -> Result<Self, SysError> {
        if config.max_replicas == 0 {
            return Err(SysError::BadParameter {
                what: "max_replicas",
                value: 0.0,
            });
        }
        if config.prior_failures < 0.0 || config.prior_successes <= 0.0 {
            return Err(SysError::BadParameter {
                what: "prior",
                value: config.prior_failures,
            });
        }
        Ok(ReplicaManager {
            failures: config.prior_failures,
            executions: config.prior_failures + config.prior_successes,
            config,
        })
    }

    /// Current posterior-mean estimate of the per-replica failure
    /// probability.
    #[must_use]
    pub fn estimated_failure_probability(&self) -> Probability {
        Probability::saturating(self.failures / self.executions)
    }

    /// Records the outcomes of one job's replica set (`failed` of `total`
    /// replicas disagreed with the majority / failed checks).
    pub fn observe(&mut self, failed: u32, total: u32) {
        self.failures += f64::from(failed);
        self.executions += f64::from(total);
    }

    /// The smallest replica count whose majority reliability meets the
    /// target under the current estimate. Returns `max_replicas` (the best
    /// the platform can do) when even that cannot meet the target.
    #[must_use]
    pub fn recommended_replicas(&self) -> u32 {
        let p = self.estimated_failure_probability();
        // Even counts never beat the odd count below them under majority
        // voting with pessimistic ties, so scan odd counts.
        let mut r = 1;
        while r <= self.config.max_replicas {
            if majority_reliability(p, r).value() >= self.config.reliability_target.value() {
                return r;
            }
            r += 2;
        }
        self.config.max_replicas
    }

    /// Simulates `jobs` jobs in an environment with true per-replica failure
    /// probability `true_p`, adapting the replica count after every job.
    /// Returns `(job_failures, replica_executions)`.
    pub fn run_adaptive(&mut self, true_p: Probability, jobs: usize, rng: &mut Rng) -> (u64, u64) {
        let mut job_failures = 0u64;
        let mut replica_execs = 0u64;
        for _ in 0..jobs {
            let r = self.recommended_replicas();
            let mut failed = 0u32;
            for _ in 0..r {
                if rng.bernoulli(true_p.value()) {
                    failed += 1;
                }
            }
            replica_execs += u64::from(r);
            if failed * 2 >= r {
                job_failures += 1;
            }
            self.observe(failed, r);
        }
        (job_failures, replica_execs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_reliability_basics() {
        let p = Probability::saturating(0.1);
        // One replica: succeeds iff it doesn't fail.
        assert!((majority_reliability(p, 1).value() - 0.9).abs() < 1e-12);
        // TMR: P(0 or 1 failure) = 0.9³ + 3·0.1·0.9² = 0.972.
        assert!((majority_reliability(p, 3).value() - 0.972).abs() < 1e-12);
        // More replicas help (for p < 0.5).
        assert!(majority_reliability(p, 5).value() > majority_reliability(p, 3).value());
        // Perfect replicas are perfect.
        assert_eq!(majority_reliability(Probability::ZERO, 3), Probability::ONE);
    }

    #[test]
    fn unreliable_replicas_make_voting_worse() {
        // Above p = 0.5, majority voting amplifies failure.
        let p = Probability::saturating(0.7);
        assert!(majority_reliability(p, 3).value() < majority_reliability(p, 1).value());
    }

    #[test]
    fn manager_scales_replicas_with_threat() {
        let mut calm = ReplicaManager::new(ReplicaManagerConfig::default()).unwrap();
        calm.observe(0, 10_000);
        let calm_r = calm.recommended_replicas();

        let mut hostile = ReplicaManager::new(ReplicaManagerConfig::default()).unwrap();
        hostile.observe(300, 10_000); // 3 % per-replica failure
        let hostile_r = hostile.recommended_replicas();
        assert!(
            hostile_r > calm_r,
            "hostile {hostile_r} vs calm {calm_r} replicas"
        );
    }

    #[test]
    fn adaptive_run_converges_and_protects() {
        let mut rng = Rng::from_seed(1);
        let mut mgr = ReplicaManager::new(ReplicaManagerConfig::default()).unwrap();
        let true_p = Probability::saturating(0.02);
        let (failures, execs) = mgr.run_adaptive(true_p, 3000, &mut rng);
        // Estimate converged near truth.
        let est = mgr.estimated_failure_probability().value();
        assert!((est - 0.02).abs() < 0.01, "estimate {est}");
        // Replication held job failures far below the raw 2 % rate.
        #[allow(clippy::cast_precision_loss)]
        let job_rate = failures as f64 / 3000.0;
        assert!(job_rate < 0.005, "job failure rate {job_rate}");
        // And it did not burn max replicas on every job.
        assert!(execs < 3000 * 7, "replica executions {execs}");
    }

    #[test]
    fn adaptation_reduces_cost_in_calm_environments() {
        let mut rng = Rng::from_seed(2);
        let mut mgr = ReplicaManager::new(ReplicaManagerConfig::default()).unwrap();
        let (_, execs) = mgr.run_adaptive(Probability::saturating(1e-7), 2000, &mut rng);
        // Near-zero threat → settles at 1–3 replicas, not 7.
        assert!(execs < 2000 * 4, "replica executions {execs}");
        assert!(mgr.recommended_replicas() <= 3);
    }

    #[test]
    fn config_validation() {
        let bad = ReplicaManagerConfig {
            max_replicas: 0,
            ..ReplicaManagerConfig::default()
        };
        assert!(ReplicaManager::new(bad).is_err());
        let bad_prior = ReplicaManagerConfig {
            prior_successes: 0.0,
            ..ReplicaManagerConfig::default()
        };
        assert!(ReplicaManager::new(bad_prior).is_err());
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &(n, p) in &[(3u32, 0.2f64), (5, 0.45), (7, 0.01)] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
            assert!((total - 1.0).abs() < 1e-12, "n={n} p={p}: {total}");
        }
    }
}
