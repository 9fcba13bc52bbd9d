//! Locating the "error rate wall" (paper Sec. V-D): bisect the error
//! probability where each mitigation algorithm's deadline hit rate
//! collapses, then see how extra speed headroom moves it.
//!
//! Run with: `cargo run --release --example error_rate_wall`

use lori::ftsched::mitigation::BudgetAlgorithm;
use lori::ftsched::montecarlo::SweepConfig;
use lori::ftsched::wall::{find_wall, wall_sensitivity};
use lori::ftsched::workload::adpcm_reference_trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = adpcm_reference_trace();
    let config = SweepConfig {
        runs: 30,
        ..SweepConfig::paper()
    };

    println!("error-rate wall per algorithm (hit rate crosses 50 %):");
    for alg in BudgetAlgorithm::ALL {
        let wall = find_wall(alg, &trace, &config, 1e-9, 1e-3, 12)?;
        println!("  {:<8} wall at p = {:.2e}", alg.label(), wall);
    }

    println!("\nmoving the wall with speed headroom:");
    for row in wall_sensitivity(&trace, &config, &[1.2, 1.6, 2.4], &[])? {
        println!(
            "  {:<14} DS {:.1e}   WCET {:.1e}",
            row.label, row.wall_p[0], row.wall_p[3]
        );
    }
    Ok(())
}
