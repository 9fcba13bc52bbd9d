//! An environment an experiment binary would misread must stop it before it
//! writes anything, instead of running under a warning or a silent default:
//! a `LORI_*` name the workspace does not read (a typo or a retired switch)
//! or a `LORI_THREADS` that is not a non-negative integer.

use std::process::Command;

/// Runs `exp-fig5` with `var=value` and asserts it exits 2, names `var` on
/// stderr, and leaves no result or manifest behind.
fn assert_rejected(tag: &str, var: &str, value: &str) {
    let dir = std::env::temp_dir().join(format!("lori-bad-env-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_exp-fig5"))
        .env(var, value)
        .env("LORI_RESULTS_DIR", &dir)
        .output()
        .expect("spawn exp-fig5");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{var}={value}, stderr: {stderr}"
    );
    assert!(stderr.contains(var), "{var}={value}, stderr: {stderr}");
    assert!(
        !dir.join("exp-fig5.points.json").exists(),
        "no sweep result from a rejected {var}"
    );
    assert!(
        !dir.join("exp-fig5.manifest.json").exists(),
        "no manifest from a rejected {var}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_lori_variable_exits_2_without_artifacts() {
    // Retired switches: a leftover setting must not be silently ignored.
    assert_rejected("cache", "LORI_CACHE", "disk");
    assert_rejected("recovery", "LORI_RECOVERY", "quarantine:1");
    assert_rejected("plan", "LORI_FAULT_PLAN", "panic@sweep.point:3");
    assert_rejected("smoke", "LORI_BENCH_SMOKE", "1");
    assert_rejected("obs", "LORI_OBS", "off");
}

#[test]
fn malformed_thread_count_exits_2_without_artifacts() {
    assert_rejected("threads", "LORI_THREADS", "abc");
}
