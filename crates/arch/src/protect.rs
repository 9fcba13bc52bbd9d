//! Protection evaluation.
//!
//! **Selective replication** (IPAS-style, ref \[27\]): protect only the
//! instructions an ML classifier flags as SDC-prone, trading coverage for
//! slowdown. [`evaluate_protection`] measures both.

use crate::cpu::{Cpu, CpuConfig, Protection};
use crate::error::ArchError;
use crate::fault::{Outcome, OutcomeCounts};
use crate::isa::Program;

/// Coverage/overhead report for a protection configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectionReport {
    /// Outcome tallies with the protection active.
    pub counts: OutcomeCounts,
    /// Fault-free cycles without protection.
    pub baseline_cycles: u64,
    /// Fault-free cycles with protection (replication + compare overhead).
    pub protected_cycles: u64,
}

impl ProtectionReport {
    /// Execution-time overhead of the protection (fraction over baseline).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        if self.baseline_cycles == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.protected_cycles as f64 / self.baseline_cycles as f64 - 1.0
            }
        }
    }

    /// SDC rate under this protection.
    #[must_use]
    pub fn sdc_rate(&self) -> f64 {
        self.counts.fraction(Outcome::Sdc)
    }

    /// Detection rate among non-masked faults.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        let non_masked = self.counts.total() - self.counts.count(Outcome::Masked);
        if non_masked == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.counts.count(Outcome::Detected) as f64 / non_masked as f64
            }
        }
    }
}

/// Evaluates a protection configuration with a random register campaign.
///
/// # Errors
///
/// Returns [`ArchError::NoTrials`] for `n == 0`.
pub fn evaluate_protection(
    program: &Program,
    config: &CpuConfig,
    protection: &Protection,
    n: usize,
    seed: u64,
) -> Result<ProtectionReport, ArchError> {
    if n == 0 {
        return Err(ArchError::NoTrials);
    }
    let baseline = crate::cpu::run_golden(program, config);
    let protected_golden = Cpu::new(program, config).run(program, protection);
    let campaign = crate::fault::random_register_campaign(program, config, protection, n, seed)?;
    Ok(ProtectionReport {
        counts: campaign.counts,
        baseline_cycles: baseline.cycles,
        protected_cycles: protected_golden.cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn full_protection_has_high_overhead_and_high_detection() {
        let p = workload::dot_product();
        let cfg = CpuConfig::default();
        let report = evaluate_protection(&p, &cfg, &Protection::full(&p), 300, 1).unwrap();
        assert!(report.overhead() > 0.3, "overhead {}", report.overhead());
        assert!(
            report.detection_rate() > 0.5,
            "detection {}",
            report.detection_rate()
        );
    }

    #[test]
    fn no_protection_has_zero_overhead() {
        let p = workload::dot_product();
        let cfg = CpuConfig::default();
        let report = evaluate_protection(&p, &cfg, &Protection::none(), 100, 2).unwrap();
        assert_eq!(report.overhead(), 0.0);
        assert_eq!(report.counts.count(Outcome::Detected), 0);
    }

    #[test]
    fn selective_protection_cheaper_than_full() {
        let p = workload::dot_product();
        let cfg = CpuConfig::default();
        // Protect just the accumulator-chain instructions (5 and 6).
        let sel = Protection::for_instructions(&p, [5, 6]).unwrap();
        let full_report = evaluate_protection(&p, &cfg, &Protection::full(&p), 200, 3).unwrap();
        let sel_report = evaluate_protection(&p, &cfg, &sel, 200, 3).unwrap();
        assert!(sel_report.overhead() < full_report.overhead());
        assert!(sel_report.counts.count(Outcome::Detected) > 0);
    }

    #[test]
    fn zero_trials_rejected() {
        let p = workload::fibonacci();
        let cfg = CpuConfig::default();
        assert!(evaluate_protection(&p, &cfg, &Protection::none(), 0, 1).is_err());
    }
}
