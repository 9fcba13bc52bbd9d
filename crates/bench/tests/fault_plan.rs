//! A malformed `LORI_FAULT_PLAN` must stop an experiment binary before it
//! writes anything, instead of running fault-free under a warning.

use std::process::Command;

#[test]
fn malformed_fault_plan_exits_2_without_artifacts() {
    let dir = std::env::temp_dir().join(format!("lori-bad-plan-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_exp-fig5"))
        .env("LORI_FAULT_PLAN", "pnic@sweep.point:3")
        .env("LORI_RESULTS_DIR", &dir)
        .output()
        .expect("spawn exp-fig5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("LORI_FAULT_PLAN"), "stderr: {stderr}");
    assert!(
        !dir.join("exp-fig5.points.json").exists(),
        "no sweep result from a rejected plan"
    );
    std::fs::remove_dir_all(&dir).ok();
}
