//! Reliability metrics: the paper's Eq. (1) and MWTF.

use crate::error::Error;
use crate::units::{Cycles, Fit, Probability, Seconds};

/// Eq. (1) of the paper: the probability that *no* cycle in an interval of
/// `n_c` cycles is erroneous, when each cycle is independently erroneous with
/// probability `p`:
///
/// `Pr(N_e = 0) = (1 - p)^n_c`
///
/// ```
/// use lori_core::units::{Probability, Cycles};
/// use lori_core::reliability::no_error_probability;
/// # fn main() -> Result<(), lori_core::Error> {
/// let p = Probability::new(0.5)?;
/// let pr = no_error_probability(p, Cycles(2));
/// assert!((pr.value() - 0.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn no_error_probability(p: Probability, n_c: Cycles) -> Probability {
    p.complement().powi(n_c.value())
}

/// Mean Workload To Failure: the expected amount of useful work completed
/// before a failure, the metric maximized by reliability-aware mapping
/// approaches surveyed in Sec. IV-A.3 (e.g. Tonetto et al., DAC 2020).
///
/// `MWTF = 1 / (raw_error_rate × AVF × execution_time)` — the definition used
/// in the MWTF literature: lower vulnerability or faster execution both let
/// more work complete per failure. All inputs are per-task; the result is in
/// "workloads per failure" (dimensionless, relative).
///
/// # Errors
///
/// Returns [`Error::NonPositive`] if any input is not strictly positive
/// (an AVF of zero would be "never fails", which is expressed as infinity by
/// the caller, not here).
pub fn mwtf(raw_error_rate: Fit, avf: f64, execution_time: Seconds) -> Result<f64, Error> {
    if raw_error_rate.value().is_nan() || raw_error_rate.value() <= 0.0 {
        return Err(Error::NonPositive {
            what: "raw error rate",
            value: raw_error_rate.value(),
        });
    }
    if !avf.is_finite() || avf <= 0.0 {
        return Err(Error::NonPositive {
            what: "AVF",
            value: avf,
        });
    }
    if execution_time.value().is_nan() || execution_time.value() <= 0.0 {
        return Err(Error::NonPositive {
            what: "execution time",
            value: execution_time.value(),
        });
    }
    Ok(1.0 / (raw_error_rate.per_second() * avf * execution_time.value()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_matches_paper_form() {
        let p = Probability::new(1e-6).unwrap();
        let pr = no_error_probability(p, Cycles(100_000));
        let direct = (1.0f64 - 1e-6).powi(100_000);
        assert!((pr.value() - direct).abs() < 1e-9);
    }

    #[test]
    fn eq1_edge_cases() {
        assert_eq!(
            no_error_probability(Probability::ZERO, Cycles(1_000_000)),
            Probability::ONE
        );
        assert_eq!(
            no_error_probability(Probability::ONE, Cycles(1)),
            Probability::ZERO
        );
        assert_eq!(
            no_error_probability(Probability::new(0.3).unwrap(), Cycles(0)),
            Probability::ONE
        );
    }

    #[test]
    fn mwtf_inverse_relations() {
        let base = mwtf(Fit(1000.0), 0.5, Seconds(1.0)).unwrap();
        // Halving AVF doubles MWTF.
        let half_avf = mwtf(Fit(1000.0), 0.25, Seconds(1.0)).unwrap();
        assert!((half_avf / base - 2.0).abs() < 1e-9);
        // Doubling execution time halves MWTF.
        let slow = mwtf(Fit(1000.0), 0.5, Seconds(2.0)).unwrap();
        assert!((slow / base - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mwtf_validates() {
        assert!(mwtf(Fit(0.0), 0.5, Seconds(1.0)).is_err());
        assert!(mwtf(Fit(1.0), 0.0, Seconds(1.0)).is_err());
        assert!(mwtf(Fit(1.0), 0.5, Seconds(0.0)).is_err());
    }
}
