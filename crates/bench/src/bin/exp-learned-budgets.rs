//! E14 (Sec. V): learning-based execution-time prediction for cycle-noise
//! budgets.
//!
//! The paper notes the mitigation "can be optimized by learning-based
//! approaches to improve its prediction accuracy of execution time". This
//! experiment compares plain DS budgets against budgets from an online-
//! trained linear predictor of consumed cycles.

use lori_bench::{fmt, fmt_prob, render_table, Harness};
use lori_ftsched::learning::compare_ds_vs_learned;
use lori_ftsched::workload::adpcm_reference_trace;

fn main() {
    let mut h = Harness::new(
        "exp-learned-budgets",
        "E14",
        "Learned execution-time budgets vs plain dynamic-scenario budgets",
    );
    let trace = adpcm_reference_trace();
    let p_axis = [1e-7, 1e-6, 3e-6, 6e-6, 1e-5];
    h.config("probability_points", p_axis.len() as u64);

    let rows = h.phase("compare", || {
        let mut rows = Vec::new();
        for &p in &p_axis {
            let cmp = compare_ds_vs_learned(&trace, p, 8, 1).expect("comparison");
            rows.push(vec![
                fmt_prob(p),
                fmt(cmp.ds_hit_rate),
                fmt(cmp.learned_hit_rate),
                fmt(cmp.ds_mean_budget),
                fmt(cmp.learned_mean_budget),
            ]);
        }
        rows
    });
    println!(
        "{}",
        render_table(
            &[
                "p",
                "DS hit rate",
                "learned hit rate",
                "DS mean budget (cy)",
                "learned mean budget (cy)"
            ],
            &rows
        )
    );
    println!("claim shape: inside the cliff window the learned budgets hold the hit");
    println!("rate high by anticipating rollback inflation, at budgets far below");
    println!("WCET's constant worst-case allocation (~284k cycles).");
    if let Err(err) = h.finish() {
        eprintln!("warning: manifest not written: {err}");
    }
}
