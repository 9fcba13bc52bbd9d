//! E3 (paper Fig. 5): average rollbacks per segment vs error probability.
//!
//! Paper claims: negligible below 1e-6; rapid growth beyond; more than 10
//! rollbacks per segment past 1e-5 ("formidable to deal with").

use lori_bench::points::write_points_artifact;
use lori_bench::{fmt, fmt_prob, render_table, Harness};
use lori_ftsched::montecarlo::{paper_probability_axis, sweep, SweepConfig};
use lori_ftsched::workload::adpcm_reference_trace;

fn main() {
    let mut h = Harness::new(
        "exp-fig5",
        "E3 / Fig. 5",
        "Average rollbacks per segment vs error probability",
    );
    let trace = adpcm_reference_trace();
    let config = SweepConfig::paper(); // 100 Monte Carlo runs per point
    let axis = paper_probability_axis();
    config.validate(&axis, &trace).expect("valid sweep config");
    h.seed(config.seed);
    h.config("runs_per_point", config.runs as u64);
    h.config("trace_segments", trace.len() as u64);
    h.config("probability_points", axis.len() as u64);
    // The sweep fans probability points out over LORI_THREADS workers;
    // results are bit-identical to the serial flow. The manifest's
    // `phases[].wall_ms` records the parallel wall time.
    h.config("threads", lori_par::global().threads() as u64);

    let points = h
        .phase("sweep", || sweep(&axis, &trace, &config))
        .unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2)
        });
    match write_points_artifact(&h, &points) {
        Ok(path) => println!("points: {}", path.display()),
        Err(err) => eprintln!("warning: cannot write points artifact: {err}"),
    }

    h.phase("report", || {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|pt| {
                vec![
                    fmt_prob(pt.p),
                    fmt(pt.avg_rollbacks_per_segment),
                    fmt(pt.rollbacks_std),
                    fmt(pt.cycle_overhead),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "p (per cycle)",
                    "avg rollbacks/segment",
                    "std",
                    "cycle overhead"
                ],
                &rows
            )
        );
    });

    let at_1e6 = points.iter().find(|p| (p.p - 1e-6).abs() < 1e-12);
    let past_wall = points
        .iter()
        .find(|p| p.p > 1e-5 && p.avg_rollbacks_per_segment > 10.0);
    h.check(
        "at p=1e-6 rollbacks are below 1/segment",
        at_1e6.is_some_and(|p| p.avg_rollbacks_per_segment < 1.0),
    );
    h.check(
        ">10 rollbacks/segment occurs past 1e-5",
        past_wall.is_some(),
    );
    if let Err(err) = h.finish() {
        eprintln!("warning: manifest not written: {err}");
    }
}
