//! HDC encodings, noisy queries and regressions must stay bit-identical
//! across rewrites of the `lori-hdc` kernels.
//!
//! The expected values below were recorded by running this test at commit
//! 6fc6170, on the per-component kernels: record encoding through an `i32`
//! bundle accumulator, bundling and majority readout through
//! `BinaryHv::bit`/`set_bit`, and a noise flip that branched on each
//! Bernoulli draw. The 2- and 4-feature encoders reach the tie-break, the
//! rows include values outside the encoders' ranges, and the noisy sweep
//! pins the RNG position after its last flip, so a one-bit drift in an
//! encoding, a prototype or a draw shows up here.

use lori::core::Rng;
use lori::hdc::classifier::{HdcClassifier, HdcClassifierConfig};
use lori::hdc::encoder::RecordEncoder;
use lori::hdc::hypervector::BinaryHv;
use lori::hdc::noise::flip_components;
use lori::hdc::regressor::{HdcRegressor, HdcRegressorConfig};

/// The packed words of `hv`, LSB-first, read through the public API.
fn words(hv: &BinaryHv) -> Vec<u64> {
    let mut words = vec![0u64; hv.dim().div_ceil(64)];
    for i in (0..hv.dim()).filter(|&i| hv.bit(i)) {
        words[i / 64] |= 1 << (i % 64);
    }
    words
}

/// Folds `word`'s little-endian bytes into an FNV-1a hash.
fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a hash over the encodings of 12 rows by an `n_features`
/// encoder: interior values, both range ends and values up to a quarter
/// of the range outside it.
fn encoder_fold(n_features: usize, dim: usize) -> u64 {
    let ranges = [(0.0, 1.0), (-2.0, 2.0), (10.0, 20.0), (-1.0, -0.5)];
    let levels = [5, 16, 32, 48][n_features - 1];
    let ranges = &ranges[..n_features];
    let enc = RecordEncoder::new(dim, ranges, levels, 40 + n_features as u64).expect("valid");
    let mut rng = Rng::from_seed(n_features as u64);
    let mut hash = FNV_OFFSET;
    for r in 0..12 {
        let row: Vec<f64> = ranges
            .iter()
            .map(|&(lo, hi)| match r {
                0 => lo,
                1 => hi,
                _ => {
                    let pad = (hi - lo) / 4.0;
                    rng.uniform_in(lo - pad, hi + pad)
                }
            })
            .collect();
        hash = words(&enc.encode(&row)).into_iter().fold(hash, fnv1a);
    }
    hash
}

#[test]
fn record_encodings_match_recorded_hashes() {
    let folds: Vec<u64> = [1000, 8192]
        .into_iter()
        .flat_map(|dim| (1..=4).map(move |n| encoder_fold(n, dim)))
        .collect();
    assert_eq!(
        folds,
        [
            // dim 1000, 1 to 4 features
            0xcd92_27da_29ec_759a,
            0xd3db_9fc2_416d_32d2,
            0xd2ba_5911_2d59_585b,
            0x7a14_b21a_78d8_89c6,
            // dim 8192, 1 to 4 features
            0xa626_5bb1_6fc6_96cb,
            0x32a0_c3b9_c7f1_a8b8,
            0x4aaa_153f_ddb6_2dcc,
            0x9ef3_d1e5_ae41_4a71,
        ]
    );
}

/// E5's five Gaussian blobs in 3-D, wider than E5's so the clean
/// classifier already errs on some queries.
fn blobs(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
    let centers = [
        (0.0, 0.0, 1.0),
        (4.0, 4.0, -1.0),
        (0.0, 4.0, 2.0),
        (4.0, 0.0, -2.0),
        (2.0, 2.0, 4.0),
    ];
    let mut rng = Rng::from_seed(seed);
    (0..n)
        .map(|_| {
            let c = rng.below(5) as usize;
            let (cx, cy, cz) = centers[c];
            let x = vec![
                rng.normal_with(cx, 1.2),
                rng.normal_with(cy, 1.2),
                rng.normal_with(cz, 1.2),
            ];
            (x, c)
        })
        .unzip()
}

#[test]
fn noisy_queries_match_recorded_classes() {
    let (train_x, train_y) = blobs(150, 1);
    let (test_x, _) = blobs(30, 2);
    let config = HdcClassifierConfig {
        dim: 8192,
        seed: 5,
        ..HdcClassifierConfig::default()
    };
    let clf = HdcClassifier::fit(&train_x, &train_y, &config).expect("training");
    let mut rng = Rng::from_seed(3);
    let classes: Vec<String> = [0.0, 0.2, 0.4, 0.45, 0.48]
        .into_iter()
        .map(|rate| {
            test_x
                .iter()
                .map(|x| {
                    let noisy = flip_components(&clf.encode(x), rate, &mut rng);
                    char::from(b'0' + clf.classify_encoded(&noisy) as u8)
                })
                .collect()
        })
        .collect();
    assert_eq!(
        classes,
        [
            "321111130403402041302113440010",
            "321111133403402041302113040010",
            "321111130433402041302133040210",
            "321131100403402041302133040014",
            "341132242040444421102331040231",
        ]
    );
    // 150 flips of 8192 components each: the draws' count and order.
    assert_eq!(rng.next_u64(), 0xec33_1f99_01e4_2bd9);
}

#[test]
fn aging_shaped_regressor_matches_recorded_bits() {
    // Duty cycle, switching activity, temperature and years, as in E6.
    let mut rng = Rng::from_seed(6);
    let xs: Vec<Vec<f64>> = (0..240)
        .map(|_| {
            vec![
                rng.uniform_in(0.05, 0.95),
                rng.uniform_in(0.01, 0.8),
                rng.uniform_in(40.0, 120.0),
                rng.uniform_in(0.5, 10.0),
            ]
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 0.01 * x[0].sqrt() * (x[2] / 60.0).exp() * x[3].powf(0.2) + 0.004 * x[1])
        .collect();
    let config = HdcRegressorConfig {
        dim: 8192,
        levels: 48,
        buckets: 32,
        seed: 7,
        ..HdcRegressorConfig::default()
    };
    let model = HdcRegressor::fit(&xs, &ys, &config).expect("training");
    let queries = [
        xs[0].clone(),
        xs[117].clone(),
        vec![0.5, 0.4, 80.0, 5.0],
        vec![0.05, 0.01, 40.0, 0.5],
        vec![0.95, 0.8, 120.0, 10.0],
        vec![1.5, -0.2, 150.0, 20.0],
        vec![-1.0, 0.3, 10.0, 0.0],
    ];
    let bits: Vec<u64> = queries.iter().map(|q| model.predict(q).to_bits()).collect();
    assert_eq!(
        bits,
        [
            0x3fa4_bd4a_5fa5_87c5,
            0x3fb0_3379_aa70_881c,
            0x3fa2_d578_1204_64a5,
            0x3f8d_aa64_7370_50f4,
            0x3fb7_babb_bc04_a191,
            0x3fb6_0f42_b619_f9b5,
            0x3f8a_72e5_02df_961c,
        ]
    );
}
