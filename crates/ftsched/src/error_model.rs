//! The register-level error model of Sec. V-A.
//!
//! A cycle is erroneous if any pipeline register holds a wrong value; the
//! per-cycle error probability `p` is static over time. Unlike prior work,
//! the model bounds neither the number of errors nor when they strike —
//! re-computations are just as exposed as first executions.
//!
//! Eq. (1): `Pr(N_e = 0) = (1 − p)^{n_c}`
//! Eq. (2): `Pr(N_rb = n) = (1 − q)^n · q` with `q = (1 − p)^{n_c}` —
//! the number of rollbacks of a segment is geometric.

use crate::error::FtError;
use lori_core::reliability::no_error_probability;
use lori_core::units::{Cycles, Probability};

/// The register-level error model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    p: Probability,
}

impl ErrorModel {
    /// Creates a model with per-cycle error probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`FtError::BadProbability`] for `p` outside `[0, 1]`.
    pub fn new(p: f64) -> Result<Self, FtError> {
        Probability::new(p)
            .map(|p| ErrorModel { p })
            .map_err(|_| FtError::BadProbability(p))
    }

    /// The per-cycle error probability.
    #[must_use]
    pub fn p(&self) -> Probability {
        self.p
    }

    /// Eq. (1): probability that a window of `n_c` cycles is error-free.
    #[must_use]
    pub fn no_error_probability(&self, n_c: Cycles) -> Probability {
        no_error_probability(self.p, n_c)
    }

    /// Eq. (2) evaluated at `n`: probability of exactly `n` rollbacks for a
    /// segment of `n_c` cycles.
    #[must_use]
    pub fn rollback_probability(&self, n_c: Cycles, n: u64) -> Probability {
        let q = self.no_error_probability(n_c);
        #[allow(clippy::cast_precision_loss)]
        Probability::saturating(q.complement().value().powf(n as f64) * q.value())
    }

    /// Analytic mean of Eq. (2): `E[N_rb] = (1 − q)/q`. Returns infinity
    /// when a segment can never complete (`q = 0`).
    #[must_use]
    pub fn expected_rollbacks(&self, n_c: Cycles) -> f64 {
        let q = self.no_error_probability(n_c).value();
        if q <= 0.0 {
            f64::INFINITY
        } else {
            (1.0 - q) / q
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointSystem;
    use lori_core::Rng;

    #[test]
    fn construction_validates() {
        assert!(ErrorModel::new(1e-6).is_ok());
        assert!(ErrorModel::new(0.0).is_ok());
        assert!(ErrorModel::new(1.0).is_ok());
        assert_eq!(ErrorModel::new(-0.1), Err(FtError::BadProbability(-0.1)));
        assert_eq!(ErrorModel::new(1.1), Err(FtError::BadProbability(1.1)));
    }

    #[test]
    fn eq1_matches_closed_form() {
        let m = ErrorModel::new(1e-6).unwrap();
        let q = m.no_error_probability(Cycles(100_000)).value();
        let direct = (1.0f64 - 1e-6).powi(100_000);
        assert!((q - direct).abs() < 1e-9);
    }

    #[test]
    fn eq2_normalizes() {
        let m = ErrorModel::new(5e-6).unwrap();
        let nc = Cycles(100_000);
        let total: f64 = (0..200)
            .map(|n| m.rollback_probability(nc, n).value())
            .sum();
        assert!((total - 1.0).abs() < 1e-6, "sum {total}");
    }

    #[test]
    fn eq2_mean_matches_analytic() {
        let m = ErrorModel::new(5e-6).unwrap();
        let nc = Cycles(100_000);
        let mean_series: f64 = (0..500)
            .map(|n| n as f64 * m.rollback_probability(nc, n).value())
            .sum();
        let analytic = m.expected_rollbacks(nc);
        assert!((mean_series - analytic).abs() / analytic < 1e-3);
    }

    #[test]
    fn zero_p_never_rolls_back() {
        let m = ErrorModel::new(0.0).unwrap();
        let mut rng = Rng::from_seed(2);
        assert_eq!(m.expected_rollbacks(Cycles(270_000)), 0.0);
        let plan = CheckpointSystem::default().plan_segment(Cycles(270_000), &m);
        for _ in 0..100 {
            assert_eq!(plan.execute(&mut rng).rollbacks, 0);
        }
    }

    #[test]
    fn expected_rollbacks_monotone_in_p_and_nc() {
        let lo = ErrorModel::new(1e-7).unwrap();
        let hi = ErrorModel::new(1e-5).unwrap();
        let nc = Cycles(100_000);
        assert!(hi.expected_rollbacks(nc) > lo.expected_rollbacks(nc));
        assert!(hi.expected_rollbacks(Cycles(270_000)) > hi.expected_rollbacks(Cycles(40_000)));
    }

    #[test]
    fn paper_regime_check() {
        // Paper: beyond 1e-5 the rollbacks exceed 10 per segment (for the
        // longer segments of the trace).
        let m = ErrorModel::new(1e-5).unwrap();
        assert!(m.expected_rollbacks(Cycles(270_000)) > 10.0);
        // And below 1e-6 they are well under 1.
        let m = ErrorModel::new(1e-6).unwrap();
        assert!(m.expected_rollbacks(Cycles(270_000)) < 1.0);
    }
}
