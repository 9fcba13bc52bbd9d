//! The tolerances in `expected.json` were set from seeds 0 and 2–15. At the
//! held-out seed 1 every workload must still pass every output check.

use lori_obs::Value;
use std::process::Command;

#[test]
fn every_workload_passes_its_checks_at_a_held_out_seed() {
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out/test-held-out-seed.json");
    let status = Command::new(env!("CARGO_BIN_EXE_lori-benchmark"))
        .args(["run", "--seed", "1", "--reps", "1", "--out", out])
        .status()
        .expect("lori-benchmark runs");
    assert!(status.success(), "run --seed 1 failed: {status}");

    let doc = Value::parse(&std::fs::read_to_string(out).expect("result written")).expect("JSON");
    for workload in ["sheflow", "anomaly", "bakeoff", "reliability"] {
        let w = doc
            .get("workloads")
            .and_then(|ws| ws.get(workload))
            .unwrap_or_else(|| panic!("{workload} missing"));
        let fail_frac = w
            .get("end_to_end")
            .and_then(|m| m.get("fail_frac"))
            .and_then(|m| m.get("samples"))
            .and_then(Value::as_arr)
            .and_then(|s| s.first())
            .and_then(Value::as_f64);
        assert_eq!(fail_frac, Some(0.0), "{workload}: {:?}", w.get("failures"));
    }
}
