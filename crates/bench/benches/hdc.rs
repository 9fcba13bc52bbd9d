//! Hypervector algebra throughput, including the bit-packed-vs-bipolar
//! ablation called out in DESIGN.md, and the two per-row kernels of E5's
//! noise sweep and E6's fit (record encoding and noise flips, DESIGN §16).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lori_core::Rng;
use lori_hdc::classifier::{HdcClassifier, HdcClassifierConfig};
use lori_hdc::encoder::RecordEncoder;
use lori_hdc::hypervector::{BinaryHv, BipolarHv};
use lori_hdc::noise::flip_components;
use std::hint::black_box;

fn bench_hdc(c: &mut Criterion) {
    let mut rng = Rng::from_seed(1);
    for dim in [4096usize, 16_384] {
        let a = BinaryHv::random(dim, &mut rng);
        let b = BinaryHv::random(dim, &mut rng);
        let pa = BipolarHv::random(dim, &mut rng);
        let pb = BipolarHv::random(dim, &mut rng);
        c.bench_with_input(BenchmarkId::new("binary_bind", dim), &dim, |bench, _| {
            bench.iter(|| black_box(&a).bind(black_box(&b)));
        });
        c.bench_with_input(
            BenchmarkId::new("binary_similarity", dim),
            &dim,
            |bench, _| {
                bench.iter(|| black_box(&a).similarity(black_box(&b)));
            },
        );
        c.bench_with_input(BenchmarkId::new("bipolar_bind", dim), &dim, |bench, _| {
            bench.iter(|| black_box(&pa).bind(black_box(&pb)));
        });
        c.bench_with_input(
            BenchmarkId::new("bipolar_similarity", dim),
            &dim,
            |bench, _| {
                bench.iter(|| black_box(&pa).similarity(black_box(&pb)));
            },
        );
    }

    // E5 encodes 3 features and E6 4, both at dim 8192; 4 features reach
    // the tie-break.
    let dim = 8192;
    for n_features in [3usize, 4] {
        let ranges = vec![(0.0, 1.0); n_features];
        let enc = RecordEncoder::new(dim, &ranges, 32, 3).expect("valid encoder");
        let row: Vec<f64> = (0..n_features).map(|_| rng.uniform()).collect();
        c.bench_with_input(
            BenchmarkId::new("record_encode", n_features),
            &n_features,
            |bench, _| {
                bench.iter(|| enc.encode(black_box(&row)));
            },
        );
    }
    // E5's 40% error rate: one Bernoulli draw per component.
    let hv = BinaryHv::random(dim, &mut rng);
    let mut noise = Rng::from_seed(4);
    c.bench_with_input(
        BenchmarkId::new("flip_components", dim),
        &dim,
        |bench, _| {
            bench.iter(|| flip_components(black_box(&hv), black_box(0.4), &mut noise));
        },
    );

    // End-to-end classification query.
    let mut rng = Rng::from_seed(2);
    let xs: Vec<Vec<f64>> = (0..300)
        .map(|_| vec![rng.uniform_in(0.0, 1.0), rng.uniform_in(0.0, 1.0)])
        .collect();
    let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] + x[1] > 1.0)).collect();
    let clf = HdcClassifier::fit(&xs, &ys, &HdcClassifierConfig::default()).expect("training");
    c.bench_function("hdc_classify_query", |b| {
        b.iter(|| clf.predict(black_box(&[0.3, 0.8])));
    });
}

criterion_group! {
    name = benches;
    // Short measurement windows keep `cargo bench --workspace` to a few
    // minutes while still giving stable medians for these coarse kernels.
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_millis(1500))
        .warm_up_time(std::time::Duration::from_millis(400))
        .sample_size(20);
    targets = bench_hdc
}
criterion_main!(benches);
