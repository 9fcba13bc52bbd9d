//! Evaluation metrics for classification and regression.

use crate::error::MlError;

/// Fraction of matching labels.
///
/// # Errors
///
/// Returns [`MlError::TargetMismatch`] on length mismatch or
/// [`MlError::EmptyDataset`] on empty inputs.
pub fn accuracy(truth: &[usize], pred: &[usize]) -> Result<f64, MlError> {
    check(truth.len(), pred.len())?;
    let hits = truth.iter().zip(pred).filter(|(t, p)| t == p).count();
    #[allow(clippy::cast_precision_loss)]
    Ok(hits as f64 / truth.len() as f64)
}

/// Precision for `positive` class: TP / (TP + FP). Returns 0 when nothing was
/// predicted positive.
///
/// # Errors
///
/// Returns [`MlError::TargetMismatch`] or [`MlError::EmptyDataset`].
pub fn precision(truth: &[usize], pred: &[usize], positive: usize) -> Result<f64, MlError> {
    check(truth.len(), pred.len())?;
    let tp = count(truth, pred, |t, p| t == positive && p == positive);
    let fp = count(truth, pred, |t, p| t != positive && p == positive);
    #[allow(clippy::cast_precision_loss)]
    Ok(if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    })
}

/// Recall for `positive` class: TP / (TP + FN). Returns 0 when no positives
/// exist in the truth.
///
/// # Errors
///
/// Returns [`MlError::TargetMismatch`] or [`MlError::EmptyDataset`].
pub fn recall(truth: &[usize], pred: &[usize], positive: usize) -> Result<f64, MlError> {
    check(truth.len(), pred.len())?;
    let tp = count(truth, pred, |t, p| t == positive && p == positive);
    let fne = count(truth, pred, |t, p| t == positive && p != positive);
    #[allow(clippy::cast_precision_loss)]
    Ok(if tp + fne == 0 {
        0.0
    } else {
        tp as f64 / (tp + fne) as f64
    })
}

/// F1 score (harmonic mean of precision and recall) for `positive` class.
///
/// # Errors
///
/// Returns [`MlError::TargetMismatch`] or [`MlError::EmptyDataset`].
pub fn f1_score(truth: &[usize], pred: &[usize], positive: usize) -> Result<f64, MlError> {
    let p = precision(truth, pred, positive)?;
    let r = recall(truth, pred, positive)?;
    Ok(if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    })
}

/// Mean squared error.
///
/// # Errors
///
/// Returns [`MlError::TargetMismatch`] or [`MlError::EmptyDataset`].
pub fn mse(truth: &[f64], pred: &[f64]) -> Result<f64, MlError> {
    check(truth.len(), pred.len())?;
    #[allow(clippy::cast_precision_loss)]
    Ok(truth
        .iter()
        .zip(pred)
        .map(|(t, p)| (t - p).powi(2))
        .sum::<f64>()
        / truth.len() as f64)
}

/// Mean absolute error.
///
/// # Errors
///
/// Returns [`MlError::TargetMismatch`] or [`MlError::EmptyDataset`].
pub fn mae(truth: &[f64], pred: &[f64]) -> Result<f64, MlError> {
    check(truth.len(), pred.len())?;
    #[allow(clippy::cast_precision_loss)]
    Ok(truth
        .iter()
        .zip(pred)
        .map(|(t, p)| (t - p).abs())
        .sum::<f64>()
        / truth.len() as f64)
}

/// Coefficient of determination R². Can be negative for models worse than
/// predicting the mean; returns 0 when the truth is constant and predictions
/// match it exactly, negative infinity otherwise avoided by clamping the
/// denominator.
///
/// # Errors
///
/// Returns [`MlError::TargetMismatch`] or [`MlError::EmptyDataset`].
pub fn r2(truth: &[f64], pred: &[f64]) -> Result<f64, MlError> {
    check(truth.len(), pred.len())?;
    #[allow(clippy::cast_precision_loss)]
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_res: f64 = truth.iter().zip(pred).map(|(t, p)| (t - p).powi(2)).sum();
    let ss_tot: f64 = truth.iter().map(|t| (t - mean).powi(2)).sum();
    if ss_tot < 1e-30 {
        return Ok(if ss_res < 1e-30 { 1.0 } else { 0.0 });
    }
    Ok(1.0 - ss_res / ss_tot)
}

fn count<F: Fn(usize, usize) -> bool>(truth: &[usize], pred: &[usize], f: F) -> usize {
    truth.iter().zip(pred).filter(|(&t, &p)| f(t, p)).count()
}

fn check(a: usize, b: usize) -> Result<(), MlError> {
    if a == 0 {
        return Err(MlError::EmptyDataset);
    }
    if a != b {
        return Err(MlError::TargetMismatch {
            features: a,
            targets: b,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]).unwrap(), 0.75);
        assert!(accuracy(&[], &[]).is_err());
        assert!(accuracy(&[0], &[0, 1]).is_err());
    }

    #[test]
    fn precision_recall_f1() {
        // truth:  1 1 0 0 1
        // pred:   1 0 0 1 1  -> TP=2, FP=1, FN=1
        let t = [1, 1, 0, 0, 1];
        let p = [1, 0, 0, 1, 1];
        assert!((precision(&t, &p, 1).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((recall(&t, &p, 1).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((f1_score(&t, &p, 1).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_degenerate() {
        // Nothing predicted positive.
        assert_eq!(precision(&[1, 0], &[0, 0], 1).unwrap(), 0.0);
        // No positives in truth.
        assert_eq!(recall(&[0, 0], &[1, 0], 1).unwrap(), 0.0);
        assert_eq!(f1_score(&[0, 0], &[0, 0], 1).unwrap(), 0.0);
    }

    #[test]
    fn regression_metrics() {
        let t = [1.0, 2.0, 3.0];
        let p = [1.0, 2.0, 3.0];
        assert_eq!(mse(&t, &p).unwrap(), 0.0);
        assert_eq!(mae(&t, &p).unwrap(), 0.0);
        assert_eq!(r2(&t, &p).unwrap(), 1.0);
        let p2 = [2.0, 2.0, 2.0]; // mean predictor
        assert!((r2(&t, &p2).unwrap()).abs() < 1e-12);
        assert!((mse(&t, &p2).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn r2_constant_truth() {
        assert_eq!(r2(&[2.0, 2.0], &[2.0, 2.0]).unwrap(), 1.0);
        assert_eq!(r2(&[2.0, 2.0], &[1.0, 3.0]).unwrap(), 0.0);
    }
}
