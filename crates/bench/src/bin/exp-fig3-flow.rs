//! E2 (paper Fig. 3): the end-to-end SHE flow, including the ML-based
//! circuit-specific library generation and its speedup over the golden
//! (SPICE-like) engine.
//!
//! Paper claims: per-instance characterization is "practically infeasible"
//! with conventional SPICE; the ML approach generates a circuit-specific
//! library of thousands of cells "within seconds"; the resulting guardbands
//! are less pessimistic than worst-case corners while remaining safe.

use lori_bench::harness::results_dir;
use lori_bench::{fmt, render_table, Harness};
use lori_circuit::characterize::{characterize_library, Corner};
use lori_circuit::flow::{run_she_flow, SheFlowConfig};
use lori_circuit::mlchar::{
    golden_instance_library, InstanceContext, MlCharConfig, MlCharacterizer,
};
use lori_circuit::netlist::processor_datapath;
use lori_circuit::spicelike::GoldenSimulator;
use lori_circuit::tech::TechParams;
use lori_core::units::Celsius;
use lori_obs::Value;
use std::time::Instant;

fn main() {
    let mut h = Harness::new(
        "exp-fig3-flow",
        "E2 / Fig. 3",
        "SHE flow: ML-based instance-specific characterization",
    );
    let sim = GoldenSimulator::new(TechParams::default()).expect("valid tech");
    let lib = h.phase("characterize_library", || {
        characterize_library(&sim, &Corner::default()).expect("library")
    });
    let netlist = processor_datapath(&lib, 12, 7).expect("netlist");
    h.seed(7);
    h.config("instances", netlist.instance_count() as u64);
    println!("netlist: {} instances", netlist.instance_count());

    // Train the ML characterizer on the cells the netlist uses.
    let t0 = Instant::now();
    let ml = h.phase("ml_training", || {
        MlCharacterizer::train_for_netlist(&sim, &lib, &netlist, &MlCharConfig::default())
            .expect("training")
    });
    let train_time = t0.elapsed();
    println!(
        "ML training: {} cell models in {:.2} s (one-time, per library)",
        ml.model_count(),
        train_time.as_secs_f64()
    );

    // Instance contexts (shared by both paths).
    let contexts: Vec<InstanceContext> = (0..netlist.instance_count())
        .map(|i| InstanceContext {
            slew_ps: 10.0 + (i % 40) as f64 * 3.0,
            load_ff: 0.8 + (i % 17) as f64 * 0.7,
            delta_t_k: (i % 29) as f64,
            delta_vth_v: 0.005 + (i % 11) as f64 * 0.004,
        })
        .collect();

    // Golden path (what SPICE would have to do).
    let t0 = Instant::now();
    let golden = h.phase("golden_library", || {
        golden_instance_library(&sim, &lib, &netlist, &contexts, Celsius(65.0))
    });
    let golden_time = t0.elapsed();

    // ML path.
    let t0 = Instant::now();
    let predicted = h.phase("ml_library", || {
        ml.generate_instance_library(&netlist, &contexts)
            .expect("prediction")
    });
    let ml_time = t0.elapsed();

    let mut rel_err = 0.0;
    let mut n = 0.0;
    for (g, p) in golden.iter().zip(&predicted) {
        if g.delay_ps.is_finite() && g.delay_ps > 0.0 {
            rel_err += ((p.delay_ps - g.delay_ps) / g.delay_ps).abs();
            n += 1.0;
        }
    }
    let speedup = golden_time.as_secs_f64() / ml_time.as_secs_f64().max(1e-9);
    println!(
        "{}",
        render_table(
            &["path", "time (s)", "per-instance (µs)", "mean |rel err|"],
            &[
                vec![
                    "golden (SPICE-like)".into(),
                    fmt(golden_time.as_secs_f64()),
                    fmt(golden_time.as_secs_f64() * 1e6 / netlist.instance_count() as f64),
                    "0 (reference)".into(),
                ],
                vec![
                    "ML characterizer".into(),
                    fmt(ml_time.as_secs_f64()),
                    fmt(ml_time.as_secs_f64() * 1e6 / netlist.instance_count() as f64),
                    fmt(rel_err / n),
                ],
            ]
        )
    );
    println!("instance-library generation speedup: {:.0}x", speedup);
    h.check("ML path is faster than the golden path", speedup > 1.0);

    // Full flow: guardbands.
    let flow = h.phase("she_flow", || {
        run_she_flow(&sim, &lib, &netlist, &ml, &SheFlowConfig::default()).expect("flow")
    });
    println!();
    println!("guardband analysis (10-year mission, SHE + aging):");
    println!(
        "{}",
        render_table(
            &[
                "corner",
                "critical path (ps)",
                "margin over nominal (ps)",
                "relative"
            ],
            &[
                vec![
                    "nominal (fresh, no SHE)".into(),
                    fmt(flow.nominal.max_arrival_ps),
                    "-".into(),
                    "-".into(),
                ],
                vec![
                    "per-instance accurate".into(),
                    fmt(flow.accurate.max_arrival_ps),
                    fmt(flow.accurate_guardband().margin_ps()),
                    fmt(flow.accurate_guardband().relative()),
                ],
                vec![
                    "worst-case corner".into(),
                    fmt(flow.worst_case.max_arrival_ps),
                    fmt(flow.worst_case_guardband().margin_ps()),
                    fmt(flow.worst_case_guardband().relative()),
                ],
            ]
        )
    );
    println!(
        "pessimism reduction vs worst-case corner: {:.1} %",
        flow.pessimism_reduction() * 100.0
    );
    h.check(
        "accurate guardband below worst-case corner",
        flow.pessimism_reduction() > 0.0,
    );

    // Deterministic guardband artifact (no timestamps, atomic write).
    // The engine and legacy STA substrates must produce byte-identical
    // files at any thread count — CI compares them with `cmp`.
    let doc = Value::Obj(vec![
        (
            "nominal_max_arrival_ps".to_owned(),
            Value::from(flow.nominal.max_arrival_ps),
        ),
        (
            "accurate_max_arrival_ps".to_owned(),
            Value::from(flow.accurate.max_arrival_ps),
        ),
        (
            "worst_case_max_arrival_ps".to_owned(),
            Value::from(flow.worst_case.max_arrival_ps),
        ),
        (
            "accurate_margin_ps".to_owned(),
            Value::from(flow.accurate_guardband().margin_ps()),
        ),
        (
            "worst_case_margin_ps".to_owned(),
            Value::from(flow.worst_case_guardband().margin_ps()),
        ),
        (
            "pessimism_reduction".to_owned(),
            Value::from(flow.pessimism_reduction()),
        ),
        (
            "instance_she_k".to_owned(),
            Value::Arr(
                flow.instance_she_k
                    .iter()
                    .map(|&v| Value::from(v))
                    .collect(),
            ),
        ),
        (
            "instance_delta_vth_v".to_owned(),
            Value::Arr(
                flow.instance_delta_vth_v
                    .iter()
                    .map(|&v| Value::from(v))
                    .collect(),
            ),
        ),
    ]);
    let path = results_dir().join("exp-fig3-flow.guardbands.json");
    match lori_obs::atomic_write(&path, format!("{}\n", doc.to_json()).as_bytes()) {
        Ok(()) => println!("guardband data: {}", path.display()),
        Err(err) => eprintln!("warning: guardband data not written: {err}"),
    }

    if let Err(err) = h.finish() {
        eprintln!("warning: manifest not written: {err}");
    }
}
