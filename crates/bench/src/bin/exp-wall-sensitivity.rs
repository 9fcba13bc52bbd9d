//! E13 (Sec. V future work): how system parameters move the error-rate
//! wall.
//!
//! The paper observes that the wall's position "is strongly dependent on
//! system parameters, such as the processor speed, the granularity of
//! checkpointing" and leaves the study as future work — this experiment
//! runs it.

use lori_bench::{fmt_prob, render_table, Harness};
use lori_ftsched::montecarlo::SweepConfig;
use lori_ftsched::wall::wall_sensitivity;
use lori_ftsched::workload::adpcm_reference_trace;

fn main() {
    let mut h = Harness::new(
        "exp-wall-sensitivity",
        "E13",
        "Error-rate-wall sensitivity to speed headroom and checkpoint granularity",
    );
    let trace = adpcm_reference_trace();
    let config = SweepConfig {
        runs: 40,
        ..SweepConfig::paper()
    };
    // The bisection probes p inside [1e-8, 1e-4]; validating the bracket
    // endpoints also validates runs, trace, and the nested configs.
    config
        .validate(&[1e-8, 1e-4], &trace)
        .expect("valid sweep config");
    h.seed(config.seed);
    h.config("runs_per_point", config.runs as u64);
    println!("bisecting the p where each algorithm's hit rate crosses 50 %...");
    let rows = h.phase("bisect", || {
        wall_sensitivity(&trace, &config, &[1.1, 1.3, 1.6, 2.0], &[1, 2, 4, 8])
            .expect("sensitivity sweep")
    });

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.label.clone()];
            row.extend(r.wall_p.iter().map(|&p| fmt_prob(p)));
            row
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "parameter",
                "DS wall",
                "DS1.5 wall",
                "DS2 wall",
                "WCET wall"
            ],
            &table
        )
    );
    println!("findings:");
    println!("  - more speed headroom moves every wall to higher p (more noise absorbed);");
    println!("  - finer checkpointing moves the wall forward at high p (less work lost");
    println!("    per rollback) at the cost of checkpoint overhead at low p.");
    if let Err(err) = h.finish() {
        eprintln!("warning: manifest not written: {err}");
    }
}
