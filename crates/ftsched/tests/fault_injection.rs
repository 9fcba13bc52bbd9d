//! Cross-layer fault-injection tests for the Monte Carlo sweep. These
//! live in their own integration-test process because a fault plan is
//! process-global state.

use lori_ftsched::montecarlo::{sweep_with, SweepConfig};
use lori_ftsched::workload::adpcm_reference_trace;
use lori_ftsched::FtError;
use lori_par::Parallelism;

fn quick_config() -> SweepConfig {
    SweepConfig {
        runs: 20,
        ..SweepConfig::default()
    }
}

const AXIS: [f64; 5] = [1e-8, 1e-7, 1e-6, 5e-6, 1e-5];

/// Arms a directive that can never fire (index off the 5-point axis).
/// Computations that must run clean still hold the activation lock this
/// way, so concurrently running tests in this binary cannot poison them.
fn inert_guard() -> lori_fault::PlanGuard {
    lori_fault::activate(&lori_fault::FaultPlan::parse("panic@sweep.point:99").unwrap())
}

#[test]
fn injected_panic_at_one_point_propagates_out_of_the_sweep() {
    let trace = adpcm_reference_trace();
    let config = quick_config();
    let plan = lori_fault::FaultPlan::parse("panic@sweep.point:2").unwrap();
    let _guard = lori_fault::activate(&plan);
    for workers in [1, 2, 4] {
        let caught = std::panic::catch_unwind(|| {
            sweep_with(&AXIS, &trace, &config, Parallelism::new(workers))
        });
        let payload = caught.expect_err("the injected panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("sweep.point[2]"), "workers={workers}: {msg}");
    }
}

#[test]
fn injected_nan_becomes_a_typed_error_not_a_poisoned_artifact() {
    let trace = adpcm_reference_trace();
    let config = quick_config();
    let plan = lori_fault::FaultPlan::parse("nan@sweep.point").unwrap();
    let _guard = lori_fault::activate(&plan);
    let err = sweep_with(&AXIS, &trace, &config, Parallelism::serial())
        .expect_err("poisoned cycle total must surface as an error");
    assert!(
        matches!(
            err,
            FtError::NonFinite {
                site: "sweep.point",
                ..
            }
        ),
        "got {err}"
    );
}

#[test]
fn inert_directive_leaves_the_sweep_deterministic() {
    // A plan that never fires must not perturb results or determinism.
    let _guard = inert_guard();
    let trace = adpcm_reference_trace();
    let config = quick_config();
    let a = sweep_with(&AXIS, &trace, &config, Parallelism::serial()).unwrap();
    let b = sweep_with(&AXIS, &trace, &config, Parallelism::new(3)).unwrap();
    assert_eq!(a, b);
}
