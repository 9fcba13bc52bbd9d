//! At the canonical seed each workload computes the same headline values
//! as the `exp-*` binaries it mirrors printed into the committed
//! `results/`, so the benchmark measures the program users run. Printed
//! tables are compared at their printed precision, JSON artifacts exactly.

use lori_benchmark::workloads::Values;
use lori_obs::Value;
use std::process::Command;

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results");

fn values(workload: &str) -> Values {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lori-benchmark"));
    cmd.args(["child", workload, "--seed", "0"]);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LORI_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd.output().expect("child runs");
    assert!(out.status.success(), "{workload} child failed");
    let text = String::from_utf8(out.stdout).expect("UTF-8");
    let last = text.lines().last().expect("a result line");
    let doc = Value::parse(last).expect("JSON result");
    Values::from_value(doc.get("values").expect("values")).expect("values")
}

fn read(name: &str) -> String {
    std::fs::read_to_string(format!("{RESULTS}/{name}")).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// `lori_bench::fmt`, the formatting of every exp-* table.
fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// `lori_bench::fmt_prob`.
fn fmt_prob(p: f64) -> String {
    format!("{p:.1e}")
}

/// Every table row of a console transcript, as trimmed cells.
fn rows(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .filter(|l| l.starts_with('|'))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_owned())
                .collect()
        })
        .collect()
}

/// Cell `col` of every row whose first cell is `label`, in order.
fn column(text: &str, label: &str, col: usize) -> Vec<String> {
    rows(text)
        .into_iter()
        .filter(|r| r[0] == label)
        .map(|r| r[col].clone())
        .collect()
}

fn one(text: &str, label: &str, col: usize) -> String {
    let cells = column(text, label, col);
    assert_eq!(cells.len(), 1, "one row labelled {label:?}");
    cells[0].clone()
}

fn scalar(v: &Values, name: &str) -> f64 {
    v.get(name).unwrap_or_else(|| panic!("{name} missing"))[0]
}

#[test]
fn sheflow_matches_exp_fig3_flow() {
    let v = values("sheflow");
    let txt = read("exp-fig3-flow.txt");
    assert!(txt.contains(&format!("netlist: {} instances", scalar(&v, "instances"))));
    assert!(txt.contains(&format!(
        "ML training: {} cell models",
        scalar(&v, "models")
    )));
    assert_eq!(
        one(&txt, "ML characterizer", 3),
        fmt(scalar(&v, "mean_abs_rel_err"))
    );
    let reduction = format!("{:.1} %", scalar(&v, "pessimism_reduction") * 100.0);
    assert!(txt.contains(&format!(
        "pessimism reduction vs worst-case corner: {reduction}"
    )));
    for (label, name) in [
        ("nominal (fresh, no SHE)", "nominal_max_arrival_ps"),
        ("per-instance accurate", "accurate_max_arrival_ps"),
        ("worst-case corner", "worst_case_max_arrival_ps"),
    ] {
        assert_eq!(one(&txt, label, 1), fmt(scalar(&v, name)), "{label}");
    }
}

#[test]
fn anomaly_matches_exp_anomaly_detection() {
    let v = values("anomaly");
    let committed = Value::parse(&read("exp-anomaly-detection.metrics.json")).expect("JSON");
    for name in [
        "test_samples",
        "recall",
        "precision",
        "f1",
        "detector_parameters",
    ] {
        let want = committed.get(name).and_then(Value::as_f64).expect(name);
        assert_eq!(scalar(&v, name).to_bits(), want.to_bits(), "{name}");
    }
}

#[test]
fn bakeoff_matches_exp_model_bakeoff() {
    let v = values("bakeoff");
    let txt = read("exp-model-bakeoff.txt");
    for (label, name) in [
        ("naive bayes", "acc.naive_bayes"),
        ("kNN (k=5)", "acc.knn"),
        ("linear SVM", "acc.svm"),
        ("decision tree", "acc.tree"),
        ("MLP 16x16", "acc.mlp"),
        ("AdaBoost", "acc.adaboost"),
        ("gradient boosting", "acc.gbt"),
    ] {
        assert_eq!(one(&txt, label, 1), fmt(scalar(&v, name)), "{label}");
    }
}

#[test]
fn reliability_matches_its_nine_binaries() {
    let v = values("reliability");
    let list = |name: &str| {
        v.get(name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .to_vec()
    };

    let committed = Value::parse(&read("exp-ff-vulnerability.table.json")).expect("JSON");
    let table: Vec<f64> = committed
        .get("rows")
        .and_then(Value::as_arr)
        .expect("rows")
        .iter()
        .flat_map(|r| {
            r.as_arr()
                .expect("row")
                .iter()
                .map(|x| x.as_f64().expect("number"))
        })
        .collect();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&list("ff.table")), bits(&table));

    let axis = lori_ftsched::montecarlo::paper_probability_axis();
    let fig5 = read("exp-fig5.txt");
    let fig6 = read("exp-fig6.txt");
    let hits = list("fig6.hit_rates");
    for (i, (p, rollbacks)) in axis.iter().zip(list("fig5.rollbacks")).enumerate() {
        assert_eq!(one(&fig5, &fmt_prob(*p), 1), fmt(rollbacks), "fig5 at {p}");
        for alg in 0..4 {
            assert_eq!(
                one(&fig6, &fmt_prob(*p), 1 + alg),
                fmt(hits[i * 4 + alg]),
                "fig6 at {p}"
            );
        }
    }

    let hdc = read("exp-hdc-robustness.txt");
    for (rate, acc) in [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.48]
        .iter()
        .zip(list("hdc.accuracy"))
    {
        assert_eq!(one(&hdc, &fmt(*rate), 1), fmt(acc), "HDC at {rate}");
    }
    assert_eq!(
        one(&read("exp-hdc-aging.txt"), "test R²", 1),
        fmt(scalar(&v, "hdc_aging.r2"))
    );

    let wall: Vec<String> = rows(&read("exp-wall-sensitivity.txt"))[1..]
        .iter()
        .map(|r| r[1].clone())
        .collect();
    let ds: Vec<String> = list("wall.ds").into_iter().map(fmt_prob).collect();
    assert_eq!(wall, ds);

    let selrep = read("exp-selective-replication.txt");
    let printed: Vec<String> = rows(&selrep)
        .into_iter()
        .filter(|r| ["none", "ML-selective (SVM)", "full DMR"].contains(&r[0].as_str()))
        .map(|r| r[3].clone())
        .collect();
    let sdc: Vec<String> = list("selrep.sdc").into_iter().map(fmt).collect();
    assert_eq!(printed, sdc);

    let fig2 = rows(&read("exp-fig2.txt"));
    let header = fig2
        .iter()
        .position(|r| r[0] == "min")
        .expect("SHE stats table");
    assert_eq!(fig2[header + 1][5], fmt(scalar(&v, "fig2.she_mean")));
    assert_eq!(fig2[header + 1][6], fmt(scalar(&v, "fig2.she_std")));

    let rl = read("exp-rl-manager.txt");
    assert_eq!(
        one(&rl, "Q-learning (greedy)", 1),
        fmt(scalar(&v, "rl.learned"))
    );
    let best_static = (0..5)
        .map(|l| one(&rl, &format!("static level {l}"), 1))
        .find(|cell| *cell == fmt(scalar(&v, "rl.best_static")));
    assert!(best_static.is_some(), "best static level reward");
}
