//! Tree fits must stay bit-identical across refactors of the split search.
//!
//! The expected bit patterns below were recorded by running this test's
//! fits on the quadratic split search of commit b4ccd8f (every feature
//! re-sorted at every node, both sides' impurity recomputed at every
//! threshold). The dataset has tied feature values, `-0.0` beside `0.0`
//! and a constant feature, so any change in tie order, candidate order or
//! summation order shows up here.

use lori::ml::boost::{GradientBoostClassifier, GradientBoostConfig, GradientBoostRegressor};
use lori::ml::data::Dataset;
use lori::ml::traits::{ProbabilisticClassifier, Regressor};
use lori::ml::tree::{DecisionTree, RegressionTree, TreeConfig};

fn rows() -> Vec<Vec<f64>> {
    (0..60u32)
        .map(|i| {
            let f = f64::from(i);
            let tied = f64::from(i % 7);
            let signed_zero = if i % 7 == 0 && i % 2 == 1 { -0.0 } else { tied };
            vec![
                signed_zero,
                f64::from((i * 13) % 11) * 0.5,
                (f * 0.37).sin(),
                2.5,
            ]
        })
        .collect()
}

fn regression() -> Dataset {
    let xs = rows();
    let ys = xs
        .iter()
        .map(|r| (r[0] * 1.5 - r[1]).sin() * 3.0 + r[2] * r[2] + 1e6)
        .collect();
    Dataset::from_rows(xs, ys).expect("valid dataset")
}

fn classification() -> Dataset {
    let xs = rows();
    let ys = xs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let above = r[0] + r[1] > 4.0;
            f64::from(u8::from(above ^ (i % 9 == 4)))
        })
        .collect();
    Dataset::from_rows(xs, ys).expect("valid dataset")
}

fn queries() -> Vec<Vec<f64>> {
    let xs = rows();
    vec![
        xs[0].clone(),
        xs[17].clone(),
        xs[44].clone(),
        vec![3.0, 2.75, 0.1, 2.5],
        vec![5.5, 0.5, 0.9, 2.5],
        vec![1.0, 4.5, -0.9, 2.5],
        vec![-0.0, 0.0, -0.5, 2.5],
    ]
}

fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

#[test]
fn tree_and_gbt_predictions_match_recorded_bits() {
    let config = GradientBoostConfig {
        stages: 20,
        learning_rate: 0.1,
        max_depth: 3,
    };
    let shallow = TreeConfig {
        max_depth: 3,
        ..TreeConfig::default()
    };
    let tree = DecisionTree::fit(&classification(), &shallow).expect("tree fits");
    let rtree = RegressionTree::fit(&regression(), &shallow).expect("tree fits");
    let gbr = GradientBoostRegressor::fit(&regression(), &config).expect("regressor fits");
    let gbc = GradientBoostClassifier::fit(&classification(), &config).expect("classifier fits");
    let qs = queries();
    assert_eq!(
        bits(qs.iter().map(|q| tree.scores(q)[1])),
        [
            0x3fac_71c7_1c71_c71c,
            0x3fe8_0000_0000_0000,
            0x3fac_71c7_1c71_c71c,
            0x3fee_1e1e_1e1e_1e1e,
            0x3fe8_0000_0000_0000,
            0x3ff0_0000_0000_0000,
            0x3fac_71c7_1c71_c71c,
        ]
    );
    assert_eq!(
        bits(qs.iter().map(|q| rtree.predict(q))),
        [
            0x412e_847f_541d_bad6,
            0x412e_8481_003b_da67,
            0x412e_8481_003b_da67,
            0x412e_8481_003b_da67,
            0x412e_8481_003b_da67,
            0x412e_847f_541d_bad6,
            0x412e_847f_541d_bad6,
        ]
    );
    assert_eq!(
        bits(qs.iter().map(|q| gbr.predict(q))),
        [
            0x412e_8481_17a5_4d39,
            0x412e_8480_4b95_99be,
            0x412e_8481_549c_cfbe,
            0x412e_8481_5612_c2a4,
            0x412e_8480_4c8b_a6a2,
            0x412e_8481_14b3_d83e,
            0x412e_8481_17a5_4d39,
        ]
    );
    assert_eq!(
        bits(qs.iter().map(|q| gbc.probability(q))),
        [
            0x3fd7_7a68_a7d5_f8d3,
            0x3fe4_9148_ae57_d0bc,
            0x3fd7_7a68_a7d5_f8d3,
            0x3fe6_13cd_26b1_f63d,
            0x3fe5_050c_e861_4922,
            0x3fe6_c1b2_e759_1f85,
            0x3fd7_7a68_a7d5_f8d3,
        ]
    );
}
