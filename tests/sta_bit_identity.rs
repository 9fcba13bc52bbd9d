//! STA results must stay bit-identical across refactors of the timing pass.
//!
//! The expected values below were recorded by running this test's three
//! passes at commit 9a99c39, where `run_sta` and `run_sta_with_overrides`
//! were wrappers over the incremental engine's from-scratch build. Each
//! pass pins `max_arrival_ps`, an FNV-1a fold of every per-net arrival and
//! slew and every per-instance delay, and the critical path, so a change
//! in the net-load summation order, the timing formula or the
//! critical-path walk shows up here.

use lori::circuit::characterize::{characterize_library, she_as_delay_library, Corner};
use lori::circuit::netlist::processor_datapath;
use lori::circuit::she::SheModel;
use lori::circuit::spicelike::GoldenSimulator;
use lori::circuit::sta::{run_sta, run_sta_with_overrides, InstanceTiming, StaConfig, StaReport};
use lori::circuit::tech::TechParams;

/// FNV-1a over the little-endian bit patterns of every `arrival_ps`, then
/// every `slew_ps`, then every `instance_delay_ps`.
fn fold(report: &StaReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let values = report
        .arrival_ps
        .iter()
        .chain(&report.slew_ps)
        .chain(&report.instance_delay_ps);
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn assert_pinned(name: &str, report: &StaReport, max_bits: u64, fold_bits: u64, path: &[usize]) {
    assert_eq!(
        report.max_arrival_ps.to_bits(),
        max_bits,
        "{name}: max_arrival_ps {}",
        report.max_arrival_ps
    );
    assert_eq!(fold(report), fold_bits, "{name}: arrival/slew/delay bits");
    let got: Vec<usize> = report.critical_path.iter().map(|i| i.0).collect();
    assert_eq!(got, path, "{name}: critical path");
}

#[test]
fn sta_passes_match_recorded_bits() {
    let sim = GoldenSimulator::new(TechParams::default()).expect("valid tech");
    let lib = characterize_library(&sim, &Corner::default()).expect("library");
    let netlist = processor_datapath(&lib, 6, 11).expect("netlist");
    assert_eq!(netlist.instance_count(), 482);
    let config = StaConfig::default();

    let timing = run_sta(&netlist, &lib, &config).expect("timing-library pass");
    assert_pinned(
        "timing library",
        &timing,
        0x40c3_8625_2326_93a4,
        0x0b28_baa2_cf59_28b2,
        &[
            167, 194, 206, 209, 217, 230, 233, 257, 260, 270, 272, 289, 292, 315, 317, 330, 341,
            346, 354, 362, 375, 381, 383, 396, 403, 412, 427, 448, 453,
        ],
    );

    let she_lib = she_as_delay_library(&lib, &SheModel::default()).expect("she library");
    let she = run_sta(&netlist, &she_lib, &config).expect("SHE-as-delay pass");
    assert_pinned(
        "SHE-as-delay library",
        &she,
        0x405c_e85f_d3db_725e,
        0x2fd6_bf01_4c5a_638c,
        &[
            186, 187, 194, 206, 209, 217, 220, 221, 229, 257, 260, 270, 272, 289, 292, 315, 317,
            327, 341, 352, 358, 367, 373, 393, 400, 407, 411, 419, 422, 434, 436, 447,
        ],
    );

    #[allow(clippy::cast_precision_loss)]
    let overrides: Vec<InstanceTiming> = (0..netlist.instance_count())
        .map(|i| InstanceTiming {
            delay_ps: 5.0 + ((i * 37) % 101) as f64 * 0.37,
            out_slew_ps: 2.0 + ((i * 13) % 29) as f64 / 3.0,
        })
        .collect();
    let overridden =
        run_sta_with_overrides(&netlist, &lib, &config, &overrides).expect("override pass");
    assert_pinned(
        "formula overrides",
        &overridden,
        0x408e_afae_147a_e148,
        0xe068_d475_4517_6e9f,
        &[
            171, 181, 182, 214, 236, 237, 242, 244, 251, 256, 267, 270, 272, 289, 292, 304, 307,
            319, 335, 341, 346, 354, 362, 378, 393, 400, 407, 411, 419, 422, 434, 436, 447,
        ],
    );
}
