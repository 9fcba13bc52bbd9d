//! Fault-injection tests for the circuit layer: poisoned LUT reads must
//! surface as typed errors from STA, per-cell characterization panics must
//! be index-deterministic, and corrupted ML training targets must refuse
//! to fit. Own process: fault plans are process-global.

use lori_circuit::cell::Library;
use lori_circuit::characterize::{characterize_library, characterize_library_par, Corner};
use lori_circuit::mlchar::{MlCharConfig, MlCharacterizer};
use lori_circuit::netlist::ripple_carry_adder;
use lori_circuit::spicelike::GoldenSimulator;
use lori_circuit::sta::{run_sta, StaConfig};
use lori_circuit::tech::TechParams;
use lori_circuit::CircuitError;
use lori_par::Parallelism;
use std::sync::OnceLock;

fn sim() -> GoldenSimulator {
    GoldenSimulator::new(TechParams::default()).unwrap()
}

/// A directive that can never fire (cell index far past the 60-cell
/// catalog): computations that must run clean still hold the activation
/// lock so concurrent tests in this binary cannot poison them.
fn inert_guard() -> lori_fault::PlanGuard {
    lori_fault::activate(&lori_fault::FaultPlan::parse("panic@circuit.characterize:9999").unwrap())
}

/// The default-corner library, characterized once under the inert guard and
/// shared by the tests that need a clean one.
fn clean_lib() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(|| {
        let _guard = inert_guard();
        characterize_library(&sim(), &Corner::default()).unwrap()
    })
}

#[test]
fn poisoned_lut_read_becomes_a_typed_sta_error() {
    let lib = clean_lib();
    let nl = ripple_carry_adder(lib, 4).unwrap();
    let plan = lori_fault::FaultPlan::parse("nan@circuit.lut").unwrap();
    let _guard = lori_fault::activate(&plan);
    let err = run_sta(&nl, lib, &StaConfig::default()).expect_err("NaN must not pass STA");
    assert!(
        matches!(
            err,
            CircuitError::NonFinite {
                site: "circuit.lut",
                ..
            }
        ),
        "got {err}"
    );
}

#[test]
fn characterization_panic_hits_the_same_cell_at_any_worker_count() {
    let s = sim();
    let plan = lori_fault::FaultPlan::parse("panic@circuit.characterize:7").unwrap();
    let _guard = lori_fault::activate(&plan);
    for workers in [1, 4] {
        let caught = std::panic::catch_unwind(|| {
            characterize_library_par(&s, &Corner::default(), Parallelism::new(workers))
        });
        let payload = caught.expect_err("characterization must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("circuit.characterize[7]"),
            "workers={workers}, payload: {msg}"
        );
    }
}

#[test]
fn poisoned_training_targets_refuse_to_fit() {
    let s = sim();
    let lib = clean_lib();
    let cells = vec![lib.find("INV_X1").unwrap()];
    let config = MlCharConfig {
        samples_per_cell: 32,
        ..MlCharConfig::default()
    };
    let clean = {
        let _guard = inert_guard();
        MlCharacterizer::train(&s, lib, &cells, &config)
    };
    assert!(clean.is_ok());
    let plan = lori_fault::FaultPlan::parse("nan@circuit.mlchar:rate=0.1,seed=3").unwrap();
    let _guard = lori_fault::activate(&plan);
    let err = MlCharacterizer::train(&s, lib, &cells, &config)
        .expect_err("poisoned targets must not train");
    assert!(
        matches!(
            err,
            CircuitError::NonFinite {
                site: "circuit.mlchar",
                ..
            }
        ),
        "got {err}"
    );
}
