//! E4 (paper Fig. 6): deadline hit rate vs error probability for the four
//! cycle-noise mitigation algorithms (DS, DS 1.5×, DS 2×, WCET).
//!
//! Paper claims: hit rates drop from ~1 to ~0 inside a small window around
//! 1e-6..1e-5; within the window conservative algorithms hold higher hit
//! rates; beyond the wall every algorithm converges to zero.

use lori_bench::points::write_points_artifact;
use lori_bench::{fmt, fmt_prob, render_table, Harness};
use lori_ftsched::mitigation::BudgetAlgorithm;
use lori_ftsched::montecarlo::{paper_probability_axis, sweep, SweepConfig};
use lori_ftsched::workload::adpcm_reference_trace;

fn main() {
    let mut h = Harness::new(
        "exp-fig6",
        "E4 / Fig. 6",
        "Deadline hit rate vs error probability, per algorithm",
    );
    let trace = adpcm_reference_trace();
    let config = SweepConfig::paper();
    let axis = paper_probability_axis();
    config.validate(&axis, &trace).expect("valid sweep config");
    h.seed(config.seed);
    h.config("runs_per_point", config.runs as u64);
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
                let mut row = vec![fmt_prob(pt.p)];
                row.extend(pt.hit_rate.iter().map(|&hit| fmt(hit)));
                row
            })
            .collect();
        let headers: Vec<&str> = std::iter::once("p (per cycle)")
            .chain(BudgetAlgorithm::ALL.iter().map(|a| a.label()))
            .collect();
        println!("{}", render_table(&headers, &rows));
    });

    let low = points.first().expect("points");
    let high = points.last().expect("points");
    h.check(
        "all algorithms near 1.0 at the lowest p",
        low.hit_rate.iter().all(|&hit| hit > 0.99),
    );
    h.check(
        "all algorithms near 0.0 at the highest p",
        high.hit_rate.iter().all(|&hit| hit < 0.05),
    );
    let window = points
        .iter()
        .find(|pt| pt.hit_rate[3] - pt.hit_rate[0] > 0.2);
    h.check(
        "a window exists where WCET beats DS by >0.2",
        window.is_some(),
    );
    if let Some(pt) = window {
        println!(
            "    window at p={} (DS {} vs WCET {})",
            fmt_prob(pt.p),
            fmt(pt.hit_rate[0]),
            fmt(pt.hit_rate[3])
        );
    }
    if let Err(err) = h.finish() {
        eprintln!("warning: manifest not written: {err}");
    }
}
