//! The ADPCM-like segment workload (Sec. V-D).
//!
//! The paper benchmarks the lower sub-band quantization block of the
//! TACLeBench ADPCM encoder on the Ariane RTL and segments it into pieces
//! of 40 k–270 k cycles. We do not have that RTL run; DESIGN.md documents
//! the substitution: a deterministic synthetic trace with the same reported
//! segment-length range and a periodic structure (real encoder blocks
//! alternate cheap and expensive phases).

use lori_core::units::Cycles;

/// Smallest segment the paper reports.
pub const MIN_SEGMENT_CYCLES: u64 = 40_000;
/// Largest segment the paper reports.
pub const MAX_SEGMENT_CYCLES: u64 = 270_000;

/// The deterministic reference trace used by the figure reproductions:
/// 64 segments spanning the paper's 40 k–270 k range with an
/// encoder-like periodic structure (deterministic, seed-free).
#[must_use]
pub fn adpcm_reference_trace() -> Vec<Cycles> {
    let n = 64;
    (0..n)
        .map(|i| {
            // Two superposed periodicities + a ramp, mapped into range.
            let i_f = f64::from(i);
            let phase = (i_f * std::f64::consts::TAU / 8.0).sin() * 0.35
                + (i_f * std::f64::consts::TAU / 23.0).sin() * 0.25
                + (i_f / f64::from(n)) * 0.2;
            let t = (0.5 + phase).clamp(0.0, 1.0);
            // Cubing skews the distribution toward short segments — real
            // encoder blocks are mostly cheap with an expensive tail, which
            // is also what makes the WCET allocation genuinely conservative
            // relative to the typical segment.
            let t = t * t * t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Cycles(
                MIN_SEGMENT_CYCLES + ((MAX_SEGMENT_CYCLES - MIN_SEGMENT_CYCLES) as f64 * t) as u64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_trace_matches_paper_range() {
        let trace = adpcm_reference_trace();
        let min = trace.iter().copied().min().unwrap();
        let max = trace.iter().copied().max().unwrap();
        assert_eq!(trace.len(), 64);
        assert!(min.value() >= MIN_SEGMENT_CYCLES);
        assert!(max.value() <= MAX_SEGMENT_CYCLES);
        // The trace should actually span most of the range.
        assert!(min.value() < 80_000, "min {min}");
        assert!(max.value() > 200_000, "max {max}");
    }

    #[test]
    fn reference_trace_is_deterministic() {
        assert_eq!(adpcm_reference_trace(), adpcm_reference_trace());
    }
}
