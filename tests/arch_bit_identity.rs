//! Sec. III's fault-injection flows must report the same bits across
//! rewrites of the architectural simulator, the lane engine and the
//! dataset builders.
//!
//! The expected values below were recorded by running this test at commit
//! 4ec2796, before `lori-arch` was cut down to register bit flips as its one
//! fault model. Five runs are folded into one hash each:
//!
//! - a 200-trial `random_register_campaign` (seed 5) on every workload,
//!   unprotected and fully protected: each trial's register, bit, cycle and
//!   outcome, then the count of every outcome kind;
//! - the features and labels of `ff_vulnerability_dataset` over fibonacci
//!   and dot_product (2 trials per flip-flop, threshold 0.0, seed 3), the
//!   E7 and E9 dataset;
//! - `per_instruction_sdc(checksum, 16, 7)`, E8's per-instruction labels;
//! - the features and labels of `instruction_sdc_dataset(dot_product, 16,
//!   0.2, 4)`;
//! - `evaluate_protection` on dot_product with no protection, with
//!   instructions 5 and 6, and with full protection, at 300 trials each
//!   (seed 9): every outcome count and both cycle counts.
//!
//! Every draw of the campaign RNG shows up in a trial's register, bit or
//! cycle, and every outcome the lane engine classifies shows up in the
//! outcome or a count, so one draw out of order or one lane classified
//! differently changes a hash.

use lori::arch::cpu::{CpuConfig, Protection};
use lori::arch::fault::{per_instruction_sdc, random_register_campaign, Outcome, Trial};
use lori::arch::predict::{ff_vulnerability_dataset, instruction_sdc_dataset};
use lori::arch::protect::evaluate_protection;
use lori::arch::workload;
use lori::ml::data::Dataset;

/// Folds `word`'s little-endian bytes into an FNV-1a hash.
fn fnv1a(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds a trial's register, bit, cycle and outcome into `hash`.
fn fold_trial(hash: u64, t: &Trial) -> u64 {
    [
        t.fault.reg.index() as u64,
        u64::from(t.fault.bit),
        t.fault.cycle,
        t.outcome.index() as u64,
    ]
    .into_iter()
    .fold(hash, fnv1a)
}

/// Folds every feature bit and label of `ds` into `hash`.
fn fold_dataset(hash: u64, ds: &Dataset) -> u64 {
    let hash = ds
        .features()
        .iter()
        .flatten()
        .map(|v| v.to_bits())
        .fold(hash, fnv1a);
    ds.targets().iter().map(|v| v.to_bits()).fold(hash, fnv1a)
}

#[test]
fn fault_injection_flows_match_recorded_bits() {
    let config = CpuConfig::default();

    let mut campaign_hash = FNV_OFFSET;
    for program in workload::all() {
        for protection in [Protection::none(), Protection::full(&program)] {
            let c =
                random_register_campaign(&program, &config, &protection, 200, 5).expect("campaign");
            campaign_hash = c.trials.iter().fold(campaign_hash, fold_trial);
            campaign_hash = Outcome::ALL
                .iter()
                .map(|&o| c.counts.count(o) as u64)
                .fold(campaign_hash, fnv1a);
        }
    }

    let ff = ff_vulnerability_dataset(
        &[workload::fibonacci(), workload::dot_product()],
        &config,
        2,
        0.0,
        3,
    )
    .expect("ff dataset");
    let ff_hash = fold_dataset(FNV_OFFSET, &ff);

    let sdc_hash = per_instruction_sdc(&workload::checksum(), &config, 16, 7)
        .expect("per-instruction sdc")
        .iter()
        .map(|v| v.to_bits())
        .fold(FNV_OFFSET, fnv1a);

    let dot = workload::dot_product();
    let instr = instruction_sdc_dataset(&dot, &config, 16, 0.2, 4).expect("instruction dataset");
    let instr_hash = fold_dataset(FNV_OFFSET, &instr);

    let mut protection_hash = FNV_OFFSET;
    for protection in [
        Protection::none(),
        Protection::for_instructions(&dot, [5, 6]).expect("indices"),
        Protection::full(&dot),
    ] {
        let r = evaluate_protection(&dot, &config, &protection, 300, 9).expect("protection");
        protection_hash = Outcome::ALL
            .iter()
            .map(|&o| r.counts.count(o) as u64)
            .chain([r.baseline_cycles, r.protected_cycles])
            .fold(protection_hash, fnv1a);
    }

    let got = (
        campaign_hash,
        ff_hash,
        sdc_hash,
        instr_hash,
        protection_hash,
    );
    assert_eq!(
        got,
        (
            0xaea8_a832_1a96_4ed2,
            0xc368_382b_0227_08d5,
            0xc412_52a0_35fd_f74c,
            0x7047_c9cc_313c_e00b,
            0x9ebf_4f5e_5ed3_0caa
        ),
        "arch bits drifted: (campaign, ff, sdc, instr, protection) = \
         ({:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2,
        got.3,
        got.4
    );
}
