//! Dataset builders for ML-based vulnerability prediction.
//!
//! - [`ff_vulnerability_dataset`] builds a per-flip-flop (register bit)
//!   dataset: structural features → "vulnerable" label derived from real
//!   injections. Experiment E7 trains on a 20 % subset and shows prediction
//!   accuracy comparable to running the full campaign (ref \[20\]).
//! - [`instruction_sdc_dataset`] builds a per-instruction dataset:
//!   structural features → SDC-prone label (refs \[24\]/\[27\]); experiment E8
//!   feeds it to an SVM for IPAS-style selective replication.

use crate::cpu::{CpuConfig, Protection};
use crate::error::ArchError;
use crate::fault::{FaultSpec, Outcome};
use crate::features::{instruction_features, register_features};
use crate::isa::{Program, Reg, NUM_REGS};
use crate::lane;
use lori_core::Rng;
use lori_ml::data::Dataset;
use lori_par::Parallelism;

/// Builds the per-flip-flop vulnerability dataset for one or more programs.
///
/// One sample per (program, register, bit): features are the register's
/// structural/behavioural features plus the normalized bit position; the
/// label is 1 when more than `vuln_threshold` of `trials_per_ff` injections
/// into that exact bit were *not* masked.
///
/// # Errors
///
/// Returns [`ArchError::NoTrials`] for `trials_per_ff == 0`, and
/// [`ArchError::Dataset`] if the rows do not form a dataset (no programs
/// gives [`MlError::EmptyDataset`]).
///
/// [`MlError::EmptyDataset`]: lori_ml::MlError::EmptyDataset
pub fn ff_vulnerability_dataset(
    programs: &[Program],
    config: &CpuConfig,
    trials_per_ff: usize,
    vuln_threshold: f64,
    seed: u64,
) -> Result<Dataset, ArchError> {
    ff_vulnerability_dataset_with(
        programs,
        config,
        trials_per_ff,
        vuln_threshold,
        seed,
        lori_par::global(),
    )
}

/// [`ff_vulnerability_dataset`] with explicit parallelism.
///
/// # Errors
///
/// Returns [`ArchError::NoTrials`] for `trials_per_ff == 0`, and
/// [`ArchError::Dataset`] if the rows do not form a dataset (no programs
/// gives [`MlError::EmptyDataset`]).
///
/// [`MlError::EmptyDataset`]: lori_ml::MlError::EmptyDataset
pub fn ff_vulnerability_dataset_with(
    programs: &[Program],
    config: &CpuConfig,
    trials_per_ff: usize,
    vuln_threshold: f64,
    seed: u64,
    par: Parallelism,
) -> Result<Dataset, ArchError> {
    if trials_per_ff == 0 {
        return Err(ArchError::NoTrials);
    }
    let mut rng = Rng::from_seed(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for program in programs {
        let golden = crate::cpu::run_golden(program, config);
        let feats = register_features(program, config);
        let protection = Protection::none();
        // Specs for the whole program in the scalar loop's draw order:
        // register-major, then bit, then trial.
        let mut specs = Vec::with_capacity(NUM_REGS * 32 * trials_per_ff);
        for reg_idx in 0..NUM_REGS {
            for bit in 0..32u8 {
                for _ in 0..trials_per_ff {
                    specs.push(FaultSpec {
                        reg: Reg::new(reg_idx as u8).expect("in range"),
                        bit,
                        cycle: rng.below(golden.cycles.max(1)),
                    });
                }
            }
        }
        let outcomes = lane::campaign_outcomes(program, config, &protection, &golden, &specs, par);
        let mut chunks = outcomes.chunks(trials_per_ff);
        for feat in feats.iter().take(NUM_REGS) {
            for bit in 0..32u8 {
                let chunk = chunks.next().expect("one chunk per (reg, bit)");
                let vulnerable = chunk.iter().filter(|&&o| o != Outcome::Masked).count();
                #[allow(clippy::cast_precision_loss)]
                let frac = vulnerable as f64 / trials_per_ff as f64;
                let mut row = feat.to_row();
                row.push(f64::from(bit) / 31.0);
                rows.push(row);
                labels.push(f64::from(u8::from(frac > vuln_threshold)));
            }
        }
    }
    Dataset::from_rows(rows, labels).map_err(ArchError::Dataset)
}

/// Builds the per-instruction SDC-proneness dataset for one program.
///
/// # Errors
///
/// Returns [`ArchError::NoTrials`] for `trials_per_instr == 0`, and
/// [`ArchError::Dataset`] if the rows do not form a dataset.
pub fn instruction_sdc_dataset(
    program: &Program,
    config: &CpuConfig,
    trials_per_instr: usize,
    sdc_threshold: f64,
    seed: u64,
) -> Result<Dataset, ArchError> {
    let sdc = crate::fault::per_instruction_sdc(program, config, trials_per_instr, seed)?;
    let feats = instruction_features(program);
    let rows: Vec<Vec<f64>> = feats
        .iter()
        .map(super::features::InstructionFeatures::to_row)
        .collect();
    let labels: Vec<f64> = sdc
        .iter()
        .map(|&f| f64::from(u8::from(f > sdc_threshold)))
        .collect();
    Dataset::from_rows(rows, labels).map_err(ArchError::Dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use lori_ml::knn::Knn;
    use lori_ml::metrics::accuracy;
    use lori_ml::traits::Classifier;
    use lori_ml::MlError;

    #[test]
    fn ff_dataset_shape() {
        let programs = [workload::fibonacci()];
        let ds = ff_vulnerability_dataset(&programs, &CpuConfig::default(), 2, 0.0, 1).unwrap();
        assert_eq!(ds.len(), NUM_REGS * 32);
        assert_eq!(ds.n_features(), 7);
        // Both classes should appear (dead vs loop-carried registers).
        let classes = ds.class_targets();
        assert!(classes.contains(&0));
        assert!(classes.contains(&1));
    }

    #[test]
    fn ff_dataset_supports_prediction_from_subset() {
        // Miniature version of E7: train a kNN on 20 % of flip-flops and
        // check it beats the majority-class baseline on the rest.
        let programs = [workload::fibonacci(), workload::dot_product()];
        let ds = ff_vulnerability_dataset(&programs, &CpuConfig::default(), 3, 0.0, 2).unwrap();
        let mut rng = lori_core::Rng::from_seed(3);
        let (train, test) = ds.split(0.2, &mut rng).unwrap();
        let knn = Knn::fit(&train, 5).unwrap();
        let preds = knn.predict_batch(test.features());
        let truth = test.class_targets();
        let acc = accuracy(&truth, &preds).unwrap();
        #[allow(clippy::cast_precision_loss)]
        let majority = {
            let ones = truth.iter().filter(|&&c| c == 1).count() as f64 / truth.len() as f64;
            ones.max(1.0 - ones)
        };
        assert!(
            acc >= majority - 0.02,
            "kNN accuracy {acc} vs majority {majority}"
        );
    }

    #[test]
    fn instruction_dataset_shape() {
        let p = workload::dot_product();
        let ds = instruction_sdc_dataset(&p, &CpuConfig::default(), 16, 0.2, 4).unwrap();
        assert_eq!(ds.len(), p.len());
        assert_eq!(ds.n_features(), 7);
    }

    #[test]
    fn zero_trials_rejected() {
        let programs = [workload::fibonacci()];
        assert!(ff_vulnerability_dataset(&programs, &CpuConfig::default(), 0, 0.0, 1).is_err());
        assert!(instruction_sdc_dataset(&programs[0], &CpuConfig::default(), 0, 0.2, 1).is_err());
    }

    #[test]
    fn no_programs_is_a_dataset_error() {
        assert_eq!(
            ff_vulnerability_dataset(&[], &CpuConfig::default(), 2, 0.0, 1),
            Err(ArchError::Dataset(MlError::EmptyDataset))
        );
    }
}
