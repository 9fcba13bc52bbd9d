//! Mirrors `exp-anomaly-detection` (E10). About 99% of it is one
//! single-threaded 16×16 MLP fit for 200 epochs, so it exercises the MLP
//! kernels and bypasses trees, golden simulation and `lori-par`.

use super::{as_f64, reseed, Values};
use crate::trace::Tracer;
use lori_arch::cpu::{run_golden, Cpu, CpuConfig, Protection};
use lori_arch::isa::{Program, Reg, NUM_REGS};
use lori_arch::workload;
use lori_core::Rng;
use lori_ml::data::{Dataset, StandardScaler};
use lori_ml::metrics::{f1_score, precision, recall};
use lori_ml::mlp::{Mlp, MlpConfig};
use lori_ml::traits::Classifier;

const STRIDE: u64 = 4;
/// Corrupted runs of `exp-anomaly-detection`.
const CORRUPTED_RUNS: usize = 40;
/// Dataset rows at the canonical seed. At other seeds the corrupted runs
/// continue past 40 until the dataset has this many rows, and it is cut to
/// this size: corruptions that stop a run early would otherwise shrink the
/// MLP fit up to threefold. So every seed fits the same amount of work and
/// only the corruptions the rows come from change.
const ROWS: usize = 50_748;
/// Bounds the loop should corruptions keep ending runs at once.
const MAX_CORRUPTED_RUNS: usize = 4_000;

pub struct Inputs {
    program: Program,
    cpu: CpuConfig,
    rng: Rng,
    mlp: MlpConfig,
}

pub fn setup(seed: u64) -> Inputs {
    let mut mlp = MlpConfig::classifier(2);
    mlp.hidden = vec![16, 16];
    mlp.seed = reseed(mlp.seed, seed);
    Inputs {
        program: workload::checksum(),
        cpu: CpuConfig::default(),
        rng: Rng::from_seed(reseed(5, seed)),
        mlp,
    }
}

/// Register snapshots every `STRIDE` cycles, optionally with one register
/// bit flipped at a given cycle, and the number of cycles stepped.
fn snapshots(
    program: &Program,
    cfg: &CpuConfig,
    corrupt: Option<(u8, u8, u64)>,
) -> (Vec<[u32; NUM_REGS]>, u64) {
    let mut cpu = Cpu::new(program, cfg);
    let protection = Protection::none();
    let mut snaps = Vec::new();
    let mut cycle = 0u64;
    loop {
        if let Some((reg, bit, at)) = corrupt {
            if cycle == at {
                cpu.flip_register_bit(Reg::new(reg).expect("register index below 8"), bit);
            }
        }
        let info = cpu.step(program, &protection);
        if cycle.is_multiple_of(STRIDE) {
            snaps.push(cpu.reg_snapshot());
        }
        cycle += 1;
        if info.stop.is_some() {
            return (snaps, cycle);
        }
    }
}

fn to_row(s: &[u32; NUM_REGS]) -> Vec<f64> {
    s.iter().map(|&v| f64::from(v)).collect()
}

pub fn run(inputs: Inputs, tr: &mut Tracer) -> Values {
    let Inputs {
        program,
        cpu,
        mut rng,
        mlp,
    } = inputs;
    // Clean snapshots are label 0; snapshots taken after a corruption are
    // label 1.
    let (rows, labels, cycles) = tr.span("arch.snapshots", |_| {
        let (clean, mut cycles) = snapshots(&program, &cpu, None);
        let mut rows: Vec<Vec<f64>> = clean.iter().map(to_row).collect();
        let mut labels = vec![0.0; rows.len()];
        let golden_cycles = run_golden(&program, &cpu).cycles;
        for run in 0..MAX_CORRUPTED_RUNS {
            if run >= CORRUPTED_RUNS && rows.len() >= ROWS {
                break;
            }
            let reg = rng.below(8) as u8;
            let bit = rng.below(32) as u8;
            let at = rng.below(golden_cycles.max(2) / 2) + 4;
            let (snaps, n) = snapshots(&program, &cpu, Some((reg, bit, at)));
            cycles += n;
            for (i, s) in (0u64..).zip(&snaps) {
                if i * STRIDE > at {
                    rows.push(to_row(s));
                    labels.push(1.0);
                }
            }
        }
        rows.truncate(ROWS);
        labels.truncate(ROWS);
        (rows, labels, cycles)
    });
    #[allow(clippy::cast_precision_loss)]
    tr.count("arch.snapshots.cycles", cycles as f64);

    let raw = tr.span("ml.dataset", |_| {
        Dataset::from_rows(rows, labels).expect("dataset")
    });
    let ds = tr.span("ml.scaler", |_| {
        StandardScaler::fit(&raw).expect("scaler").transform(&raw)
    });
    let (train, test) = tr.span("ml.dataset", |_| ds.split(0.7, &mut rng).expect("split"));
    let model = tr.span("ml.mlp_fit", |_| Mlp::fit(&train, &mlp).expect("training"));
    tr.count("ml.mlp_fit.sample_epochs", as_f64(train.len() * mlp.epochs));
    let preds = tr.span("ml.mlp_predict", |_| model.predict_batch(test.features()));

    let truth = test.class_targets();
    let mut v = Values::default();
    v.set("rows", as_f64(raw.len()));
    v.set("test_samples", as_f64(test.len()));
    v.set("recall", recall(&truth, &preds, 1).expect("metric"));
    v.set("precision", precision(&truth, &preds, 1).expect("metric"));
    v.set("f1", f1_score(&truth, &preds, 1).expect("metric"));
    v.set("detector_parameters", as_f64(model.parameter_count()));
    v
}
