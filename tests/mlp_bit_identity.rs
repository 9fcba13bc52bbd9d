//! MLP fits must stay bit-identical across refactors of the training loop.
//!
//! The expected bit patterns below were recorded by running this test's
//! fits before the training loop was batched: the first two at commit
//! ed57f6e, on the fit that allocated its gradients per mini-batch and its
//! activations and deltas per sample, and the anomaly-shaped one at
//! fc641ed, on the per-sample workspace fit. The datasets have `-0.0`
//! beside `0.0`, exact zeros and duplicate rows, and the batch size does
//! not divide the row count, so any change in summation order,
//! initialization order or shuffling shows up here.

use lori::ml::data::Dataset;
use lori::ml::mlp::{Mlp, MlpConfig};

/// 41 rows of 4 features: `-0.0` beside `0.0`, an all-zero row, exact
/// zeros in every column, and every fifth row a duplicate of the one
/// before it.
fn rows() -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for i in 0..41u32 {
        if i % 5 == 4 {
            let dup = rows[rows.len() - 1].clone();
            rows.push(dup);
            continue;
        }
        let f = f64::from(i);
        rows.push(vec![
            if i % 3 == 0 {
                -0.0
            } else {
                f64::from(i % 4) - 1.5
            },
            if i % 2 == 0 { 0.0 } else { (f * 0.7).sin() },
            f64::from((i * 7) % 5) * 0.25,
            if i == 10 { 0.0 } else { (f * 0.13).cos() * 2.0 },
        ]);
    }
    rows[10] = vec![0.0; 4];
    rows
}

fn fits() -> (Mlp, Mlp) {
    let xs = rows();
    let classes = xs
        .iter()
        .map(|r| f64::from(u8::from(r[0] + r[1] > 0.0) + u8::from(r[2] > 0.5)))
        .collect();
    let targets = xs
        .iter()
        .map(|r| (r[0] - r[3]).tanh() + 0.5 * r[1])
        .collect();
    let mut classifier = MlpConfig::classifier(3);
    classifier.epochs = 6;
    classifier.batch_size = 7;
    classifier.seed = 11;
    let mut regressor = MlpConfig::regressor();
    regressor.epochs = 6;
    regressor.batch_size = 7;
    regressor.seed = 12;
    let c = Mlp::fit(
        &Dataset::from_rows(xs.clone(), classes).expect("valid"),
        &classifier,
    )
    .expect("classifier fits");
    let r = Mlp::fit(&Dataset::from_rows(xs, targets).expect("valid"), &regressor)
        .expect("regressor fits");
    (c, r)
}

fn queries() -> Vec<Vec<f64>> {
    let xs = rows();
    vec![
        xs[0].clone(),
        xs[10].clone(),
        xs[23].clone(),
        vec![-0.0, 0.0, 1.0, -2.0],
        vec![1.5, -0.9, 0.0, 0.5],
    ]
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

/// 75 rows of 17 features, the anomaly detector's shape plus one: `-0.0`
/// beside `0.0`, an all-zero row, exact zeros in every column, and every
/// fifth row a duplicate of the one before it. 75 rows in mini-batches of
/// 32 leave a last batch of 11.
fn wide_rows() -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for i in 0..75u32 {
        if i % 5 == 4 {
            let dup = rows[rows.len() - 1].clone();
            rows.push(dup);
            continue;
        }
        let row = (0..17u32)
            .map(|j| match (i + j) % 6 {
                0 => -0.0,
                1 => 0.0,
                2 => f64::from((i * 3 + j) % 5) - 2.0,
                _ => (f64::from(i * 17 + j) * 0.31).sin() * 1.5,
            })
            .collect();
        rows.push(row);
    }
    rows[12] = vec![0.0; 17];
    rows
}

fn wide_fit() -> Mlp {
    let xs = wide_rows();
    let classes = xs
        .iter()
        .map(|r| f64::from(u8::from(r[0] + r[8] - r[16] > 0.0)))
        .collect();
    // The anomaly detector's config (ReLU 16×16, batch 32) for 4 epochs.
    let mut config = MlpConfig::classifier(2);
    config.epochs = 4;
    config.seed = 13;
    Mlp::fit(&Dataset::from_rows(xs, classes).expect("valid"), &config).expect("classifier fits")
}

#[test]
fn mlp_fits_match_recorded_bits() {
    let (classifier, regressor) = fits();
    let qs = queries();
    assert_eq!(
        bits(classifier.loss_history().iter().copied()),
        [
            0x3ff7_009b_48dd_da70,
            0x3feb_52a9_1883_9338,
            0x3fe7_e8f9_4b41_252c,
            0x3fe0_b4a0_f194_33db,
            0x3fdd_9fe2_a3fc_0927,
            0x3fd6_e1aa_ae4f_38ba,
        ]
    );
    assert_eq!(
        bits(regressor.loss_history().iter().copied()),
        [
            0x3fe0_0cff_45ca_0c74,
            0x3fcf_95f8_137a_aed7,
            0x3fc5_25e9_893e_64d0,
            0x3fb1_fdf4_ced5_db82,
            0x3fb1_64e4_3f04_b84c,
            0x3fa6_3a72_bf55_c9a5,
        ]
    );
    // Three class probabilities per query.
    assert_eq!(
        bits(qs.iter().flat_map(|q| classifier.forward(q))),
        [
            0x3fef_bf47_f51a_66f0,
            0x3f58_e6dc_82de_e5f0,
            0x3f7a_224e_5214_cf64,
            0x3fe5_f4f3_6599_972b,
            0x3fcd_65ba_f377_c6e9,
            0x3fb5_8cee_ec43_b8e1,
            0x3f2d_edaf_3000_3844,
            0x3fef_a58e_0441_7a83,
            0x3f86_24c8_32e1_5e59,
            0x3fd6_78c8_f593_bb45,
            0x3fd9_e553_b6c8_874b,
            0x3fcf_43c6_a747_7ae0,
            0x3fb3_316e_3924_77f8,
            0x3fce_e9de_06f5_caf4,
            0x3fe5_df5a_b71d_fe44,
        ]
    );
    assert_eq!(
        bits(qs.iter().flat_map(|q| regressor.forward(q))),
        [
            0xbfea_eef0_2518_ac29,
            0x3fbe_9c00_1049_e346,
            0x3fed_2bbe_832b_8681,
            0x3fed_19cd_9453_c131,
            0x3fe7_4706_577d_f4a6,
        ]
    );
}

/// The anomaly detector's shape: 17 inputs fill two 8-wide kernel blocks
/// and leave one over, and the last mini-batch of 11 rows leaves a
/// partial sample block. Recorded at fc641ed, on the per-sample fit.
#[test]
fn anomaly_shaped_fit_matches_recorded_bits() {
    let detector = wide_fit();
    let xs = wide_rows();
    let qs = [
        xs[0].clone(),
        xs[12].clone(),
        xs[74].clone(),
        (0..17)
            .map(|j| {
                if j % 2 == 0 {
                    -0.0
                } else {
                    f64::from(j) * 0.1 - 0.8
                }
            })
            .collect(),
    ];
    assert_eq!(
        bits(detector.loss_history().iter().copied()),
        [
            0x3feb_5c82_add4_7360,
            0x3fe3_49e1_6092_64d1,
            0x3fe2_aec8_2f47_8356,
            0x3fdf_f0ba_aa75_e28c,
        ]
    );
    // Two class probabilities per query.
    assert_eq!(
        bits(qs.iter().flat_map(|q| detector.forward(q))),
        [
            0x3fbf_30c4_82dc_6f4f,
            0x3fec_19e7_6fa4_7217,
            0x3fdb_ebbd_389b_d006,
            0x3fe2_0a21_63b2_17fd,
            0x3fe5_1086_aeda_a5c9,
            0x3fd5_def2_a24a_b46e,
            0x3fd9_be40_09f0_1507,
            0x3fe3_20df_fb07_f57d,
        ]
    );
}
