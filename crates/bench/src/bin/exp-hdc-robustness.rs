//! E5 (Sec. II claim): HDC inference robustness against component errors.
//!
//! Paper claim: "Despite an error rate of about 40 % on average, the
//! inference accuracy with HDC drops only by 0.5 %" — because hypervector
//! components are i.i.d. by design.

use lori_bench::{fmt, render_table, Harness};
use lori_core::Rng;
use lori_hdc::classifier::{HdcClassifier, HdcClassifierConfig};
use lori_hdc::noise::flip_components;

fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = Rng::from_seed(seed);
    let centers = [
        (0.0, 0.0, 1.0),
        (4.0, 4.0, -1.0),
        (0.0, 4.0, 2.0),
        (4.0, 0.0, -2.0),
        (2.0, 2.0, 4.0),
    ];
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..n {
        let c = rng.below(centers.len() as u64) as usize;
        let (cx, cy, cz) = centers[c];
        xs.push(vec![
            rng.normal_with(cx, 0.45),
            rng.normal_with(cy, 0.45),
            rng.normal_with(cz, 0.45),
        ]);
        ys.push(c);
    }
    (xs, ys)
}

fn main() {
    let mut h = Harness::new(
        "exp-hdc-robustness",
        "E5",
        "HDC inference accuracy vs hypervector component error rate",
    );
    h.seed(3);
    let (train_x, train_y) = blobs(1500, 1);
    let (test_x, test_y) = blobs(600, 2);
    let config = HdcClassifierConfig {
        dim: 8192,
        ..HdcClassifierConfig::default()
    };
    let clf = h.phase("train", || {
        HdcClassifier::fit(&train_x, &train_y, &config).expect("training")
    });
    println!("classifier: 5 classes, dim {}", clf.dim());

    let mut rng = Rng::from_seed(3);
    let mut rows = Vec::new();
    let mut clean_acc = 0.0;
    let mut acc_at_40 = 0.0;
    let error_rates = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.48];
    h.phase("noise_sweep", || {
        for &error_rate in &error_rates {
            let mut correct = 0usize;
            for (x, &y) in test_x.iter().zip(&test_y) {
                let hv = clf.encode(x);
                let noisy = flip_components(&hv, error_rate, &mut rng);
                if clf.classify_encoded(&noisy) == y {
                    correct += 1;
                }
            }
            let acc = correct as f64 / test_x.len() as f64;
            if error_rate == 0.0 {
                clean_acc = acc;
            }
            if error_rate == 0.4 {
                acc_at_40 = acc;
            }
            rows.push(vec![
                fmt(error_rate),
                fmt(acc),
                fmt((clean_acc - acc) * 100.0),
            ]);
        }
    });
    println!(
        "{}",
        render_table(
            &["component error rate", "accuracy", "drop vs clean (pp)"],
            &rows
        )
    );
    println!("paper reference point: at ~40 % error rate, drop ≈ 0.5 pp");
    h.check(
        "accuracy drop at 40% error rate below 5 pp",
        (clean_acc - acc_at_40) * 100.0 < 5.0,
    );
    if let Err(err) = h.finish() {
        eprintln!("warning: manifest not written: {err}");
    }
}
