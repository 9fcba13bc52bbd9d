//! Quickstart: the paper's Section-V analysis in a dozen lines.
//!
//! Run with: `cargo run --release --example quickstart`

use lori::core::units::Cycles;
use lori::ftsched::checkpoint::CheckpointSystem;
use lori::ftsched::error_model::ErrorModel;
use lori::ftsched::montecarlo::{sweep, SweepConfig};
use lori::ftsched::workload::adpcm_reference_trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The register-level error model: Eq. (1) and Eq. (2) of the paper.
    let errors = ErrorModel::new(1e-6)?;
    let segment = Cycles(100_000);
    println!(
        "Pr(no error in a {segment}) = {:.6}",
        errors.no_error_probability(segment).value()
    );
    println!(
        "expected rollbacks for that segment: {:.4}",
        errors.expected_rollbacks(segment)
    );

    // The checkpoint/rollback system (the paper's 100-cycle checkpoints and
    // 48-cycle rollbacks, one checkpoint per segment) and its expected cost.
    let cp = CheckpointSystem::default();
    println!(
        "expected cycles incl. recovery: {:.0} (fault-free: {})",
        cp.expected_cycles(segment, &errors),
        cp.fault_free_cycles(segment)
    );

    // A three-point mini version of Fig. 5 / Fig. 6.
    let trace = adpcm_reference_trace();
    let config = SweepConfig {
        runs: 25,
        ..SweepConfig::paper()
    };
    println!("\np          rollbacks/seg   DS      DS1.5x  DS2x    WCET");
    for point in sweep(&[1e-7, 3e-6, 3e-5], &trace, &config)? {
        println!(
            "{:<9.0e}  {:<14.3}  {:<6.3}  {:<6.3}  {:<6.3}  {:<6.3}",
            point.p,
            point.avg_rollbacks_per_segment,
            point.hit_rate[0],
            point.hit_rate[1],
            point.hit_rate[2],
            point.hit_rate[3],
        );
    }
    println!("\nThe 'error rate wall' sits between the second and third rows.");
    Ok(())
}
