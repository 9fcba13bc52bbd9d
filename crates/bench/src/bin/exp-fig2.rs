//! E1 (paper Fig. 2): per-instance transistor self-heating across a
//! processor-scale netlist.
//!
//! Paper claims: although only ~59 distinct standard cells are used, the
//! per-instance SHE temperatures spread widely because each instance's
//! input slew, connected load, and position differ.

use lori_bench::harness::results_dir;
use lori_bench::{fmt, render_table, Harness};
use lori_circuit::characterize::{characterize_library, she_as_delay_library, Corner};
use lori_circuit::netlist::processor_datapath;
use lori_circuit::she::SheModel;
use lori_circuit::spicelike::GoldenSimulator;
use lori_circuit::sta::{run_sta, StaConfig};
use lori_circuit::tech::TechParams;
use lori_core::stats::{max, mean, min, percentile, std_dev};
use lori_obs::Value;
use std::collections::BTreeMap;

fn main() {
    let mut h = Harness::new(
        "exp-fig2",
        "E1 / Fig. 2",
        "Per-instance SHE temperatures in a processor-scale design",
    );
    let sim = GoldenSimulator::new(TechParams::default()).expect("valid tech");
    println!("characterizing 60-cell library (golden transient engine)...");
    let lib = h.phase("characterize_library", || {
        characterize_library(&sim, &Corner::default()).expect("library")
    });
    println!("library: {} cells (paper: 59 distinct cells)", lib.len());

    let netlist = processor_datapath(&lib, 16, 42).expect("netlist");
    h.seed(42);
    h.config("instances", netlist.instance_count() as u64);
    h.config("nets", netlist.net_count() as u64);
    println!(
        "netlist: {} instances, {} nets",
        netlist.instance_count(),
        netlist.net_count()
    );

    // The Fig.-3 trick: SHE temperatures in the delay slots, conventional STA.
    let report = h.phase("she_sta", || {
        let she_lib = she_as_delay_library(&lib, &SheModel::default()).expect("she library");
        run_sta(&netlist, &she_lib, &StaConfig::default()).expect("sta")
    });
    let she = &report.instance_delay_ps; // these numbers are ΔT in kelvin

    let distinct_cells: std::collections::BTreeSet<&str> = netlist
        .instances()
        .iter()
        .map(|i| lib.cell(i.cell).name.as_str())
        .collect();
    println!("distinct cells instantiated: {}", distinct_cells.len());

    println!();
    println!("per-instance SHE above chip temperature (K):");
    let rows = vec![vec![
        fmt(min(she).expect("non-empty")),
        fmt(percentile(she, 0.25).expect("non-empty")),
        fmt(percentile(she, 0.5).expect("non-empty")),
        fmt(percentile(she, 0.75).expect("non-empty")),
        fmt(max(she).expect("non-empty")),
        fmt(mean(she).expect("non-empty")),
        fmt(std_dev(she).expect("non-empty")),
    ]];
    println!(
        "{}",
        render_table(
            &["min", "p25", "median", "p75", "max", "mean", "std"],
            &rows
        )
    );

    // Histogram, the textual analogue of Fig. 2's color map.
    let lo = min(she).expect("non-empty");
    let hi = max(she).expect("non-empty");
    let bins = 12usize;
    let mut hist = vec![0usize; bins];
    for &v in she {
        let t = ((v - lo) / (hi - lo + 1e-12) * bins as f64) as usize;
        hist[t.min(bins - 1)] += 1;
    }
    println!("SHE histogram:");
    let peak = *hist.iter().max().expect("bins") as f64;
    for (b, &count) in hist.iter().enumerate() {
        let left = lo + (hi - lo) * b as f64 / bins as f64;
        let right = lo + (hi - lo) * (b + 1) as f64 / bins as f64;
        let bar = "#".repeat(((count as f64 / peak) * 50.0).round() as usize);
        println!(
            "  [{:>6.2}, {:>6.2}) K | {:<50} {}",
            left, right, bar, count
        );
    }

    // Per-cell-type spread: same cell, different contexts → different SHE.
    let mut per_cell: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (inst, &dt) in netlist.instances().iter().zip(she) {
        per_cell
            .entry(lib.cell(inst.cell).name.as_str())
            .or_default()
            .push(dt);
    }
    let mut spread_rows = Vec::new();
    for (name, vals) in per_cell.iter().filter(|(_, v)| v.len() >= 20).take(8) {
        spread_rows.push(vec![
            (*name).to_owned(),
            vals.len().to_string(),
            fmt(min(vals).expect("non-empty")),
            fmt(max(vals).expect("non-empty")),
        ]);
    }
    println!("same cell, different contexts (the Fig. 2 point):");
    println!(
        "{}",
        render_table(
            &["cell", "instances", "min SHE (K)", "max SHE (K)"],
            &spread_rows
        )
    );
    h.check(
        "SHE temperatures spread despite few distinct cells",
        std_dev(she).expect("non-empty") > 0.0 && distinct_cells.len() < 100,
    );

    // Deterministic data artifact (no timestamps, atomic write): the full
    // per-instance SHE vector. Runs at different thread counts must produce
    // byte-identical files — CI compares them directly.
    let doc = Value::Arr(she.iter().map(|&v| Value::from(v)).collect());
    let path = results_dir().join("exp-fig2.she.json");
    match lori_obs::atomic_write(&path, format!("{}\n", doc.to_json()).as_bytes()) {
        Ok(()) => println!("she data: {}", path.display()),
        Err(err) => eprintln!("warning: she data not written: {err}"),
    }

    if let Err(err) = h.finish() {
        eprintln!("warning: manifest not written: {err}");
    }
}
