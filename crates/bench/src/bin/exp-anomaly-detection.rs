//! E10 (Sec. III-C.2, ref \[30\]): a small MLP detecting anomalies in
//! intermediate values.
//!
//! Paper claim: a two-hidden-layer network detects misclassification-causing
//! errors with ~99 % recall / ~97 % precision at only ~2.7 % compute
//! overhead.

use lori_arch::cpu::{Cpu, CpuConfig, Protection};
use lori_arch::isa::NUM_REGS;
use lori_arch::workload;
use lori_bench::{fmt, render_table, Harness};
use lori_core::Rng;
use lori_ml::data::{Dataset, StandardScaler};
use lori_ml::metrics::{f1_score, precision, recall};
use lori_ml::mlp::{Mlp, MlpConfig};
use lori_ml::traits::Classifier;
use lori_obs::Value;

/// Collects register snapshots every `stride` instructions of a run,
/// optionally with a register bit corrupted at a random point.
fn snapshots(
    program: &lori_arch::isa::Program,
    cfg: &CpuConfig,
    corrupt: Option<(u8, u8, u64)>,
    stride: u64,
) -> Vec<[u32; NUM_REGS]> {
    let mut cpu = Cpu::new(program, cfg);
    let protection = Protection::none();
    let mut snaps = Vec::new();
    let mut cycle = 0u64;
    loop {
        if let Some((reg, bit, at)) = corrupt {
            if cycle == at {
                cpu.flip_register_bit(lori_arch::isa::Reg::new(reg).expect("in range"), bit);
            }
        }
        let info = cpu.step(program, &protection);
        if cycle.is_multiple_of(stride) {
            snaps.push(cpu.reg_snapshot());
        }
        cycle += 1;
        if info.stop.is_some() {
            break;
        }
    }
    snaps
}

fn to_row(s: &[u32; NUM_REGS]) -> Vec<f64> {
    s.iter().map(|&v| f64::from(v)).collect()
}

fn main() {
    let mut h = Harness::new(
        "exp-anomaly-detection",
        "E10",
        "MLP anomaly detection on intermediate register values",
    );
    let program = workload::checksum();
    let cfg = CpuConfig::default();
    let stride = 4;
    h.seed(5);
    h.config("snapshot_stride", stride);
    let mut rng = Rng::from_seed(5);

    // Training data: clean snapshots (label 0) + corrupted-run snapshots
    // taken after the corruption (label 1).
    let clean = h.phase("collect", || snapshots(&program, &cfg, None, stride));
    let mut rows: Vec<Vec<f64>> = clean.iter().map(to_row).collect();
    let mut labels = vec![0.0; rows.len()];
    let golden_cycles = {
        let res = lori_arch::cpu::run_golden(&program, &cfg);
        res.cycles
    };
    for _ in 0..40 {
        let reg = rng.below(8) as u8; // corrupt live registers
        let bit = rng.below(32) as u8;
        let at = rng.below(golden_cycles.max(2) / 2) + 4;
        let snaps = snapshots(&program, &cfg, Some((reg, bit, at)), stride);
        for (i, s) in snaps.iter().enumerate() {
            let snap_cycle = i as u64 * stride;
            if snap_cycle > at {
                rows.push(to_row(s));
                labels.push(1.0);
            }
        }
    }
    let raw = Dataset::from_rows(rows, labels).expect("dataset");
    let scaler = StandardScaler::fit(&raw).expect("scaler");
    let ds = scaler.transform(&raw);
    let (train, test) = ds.split(0.7, &mut rng).expect("split");

    let mut mlp_cfg = MlpConfig::classifier(2);
    mlp_cfg.hidden = vec![16, 16]; // two hidden layers, as in ref [30]
    let mlp = h.phase("train", || Mlp::fit(&train, &mlp_cfg).expect("training"));

    let truth = test.class_targets();
    let preds = mlp.predict_batch(test.features());
    let detector_params = mlp.parameter_count();
    // Overhead proxy: detector multiply-accumulates per check, amortized
    // over a DNN-layer-scale check interval (ref [30] checks intermediate
    // layer outputs, ~20k MACs apart). Our kernels are far smaller than a
    // DNN layer, so the interval is the honest normalizer.
    let check_interval_macs = 20_000.0;
    let overhead = detector_params as f64 / check_interval_macs;
    let _ = golden_cycles;

    println!(
        "{}",
        render_table(
            &["metric", "value"],
            &[
                vec!["test samples".into(), test.len().to_string()],
                vec![
                    "recall".into(),
                    fmt(recall(&truth, &preds, 1).expect("metric")),
                ],
                vec![
                    "precision".into(),
                    fmt(precision(&truth, &preds, 1).expect("metric")),
                ],
                vec![
                    "F1".into(),
                    fmt(f1_score(&truth, &preds, 1).expect("metric")),
                ],
                vec!["detector parameters".into(), detector_params.to_string()],
                vec![
                    "compute overhead proxy".into(),
                    format!(
                        "{:.2} % (params / 20k-MAC check interval)",
                        overhead * 100.0
                    ),
                ],
            ]
        )
    );
    println!("claim shape: high recall & precision from a tiny two-hidden-layer MLP.");

    // Deterministic artifact: the headline metrics as JSON, byte-identical
    // for a given seed regardless of LORI_THREADS — CI diffs it across
    // thread counts.
    let metrics = Value::Obj(vec![
        (
            "experiment".to_owned(),
            Value::from("exp-anomaly-detection"),
        ),
        ("seed".to_owned(), Value::from(5u64)),
        ("test_samples".to_owned(), Value::from(test.len() as u64)),
        (
            "recall".to_owned(),
            Value::from(recall(&truth, &preds, 1).expect("metric")),
        ),
        (
            "precision".to_owned(),
            Value::from(precision(&truth, &preds, 1).expect("metric")),
        ),
        (
            "f1".to_owned(),
            Value::from(f1_score(&truth, &preds, 1).expect("metric")),
        ),
        (
            "detector_parameters".to_owned(),
            Value::from(detector_params as u64),
        ),
    ]);
    let path = h.dir().join("exp-anomaly-detection.metrics.json");
    if let Err(err) = lori_obs::atomic_write(&path, format!("{}\n", metrics.to_json()).as_bytes()) {
        eprintln!("warning: metrics artifact not written: {err}");
    }

    h.check(
        "recall above 0.9",
        recall(&truth, &preds, 1).expect("metric") > 0.9,
    );
    if let Err(err) = h.finish() {
        eprintln!("warning: manifest not written: {err}");
    }
}
