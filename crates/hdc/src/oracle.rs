//! The per-component kernels, kept as the oracle the word-parallel kernels
//! must equal bit for bit, and the generated-case test that compares them.
//!
//! Each oracle visits one component at a time through the bounds-checked
//! [`BinaryHv::bit`]/[`BinaryHv::set_bit`]: bundling adds `±1` per
//! component to an `i32` count, the record encode binds each feature and
//! bundles the products through such an accumulator, and a noise flip
//! draws one Bernoulli per component in ascending index order.

use crate::encoder::RecordEncoder;
use crate::hypervector::{BinaryHv, BundleAccumulator};
use lori_core::Rng;

/// Per-component [`BundleAccumulator::add`].
pub(crate) fn add(acc: &mut BundleAccumulator, hv: &BinaryHv) {
    assert_eq!(acc.dim, hv.dim(), "hypervector dimensions differ");
    for (i, c) in acc.counts.iter_mut().enumerate() {
        *c += if hv.bit(i) { 1 } else { -1 };
    }
    acc.n += 1;
}

/// Per-component [`BundleAccumulator::subtract`].
pub(crate) fn subtract(acc: &mut BundleAccumulator, hv: &BinaryHv) {
    assert_eq!(acc.dim, hv.dim(), "hypervector dimensions differ");
    assert!(acc.n > 0, "cannot subtract from an empty bundle");
    for (i, c) in acc.counts.iter_mut().enumerate() {
        *c -= if hv.bit(i) { 1 } else { -1 };
    }
    acc.n -= 1;
}

/// Per-component [`BundleAccumulator::majority`].
pub(crate) fn majority(acc: &BundleAccumulator, tie_break: &BinaryHv) -> BinaryHv {
    assert_eq!(acc.dim, tie_break.dim(), "hypervector dimensions differ");
    let mut out = BinaryHv::zeros(acc.dim);
    for (i, &c) in acc.counts.iter().enumerate() {
        let bit = match c.cmp(&0) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => tie_break.bit(i),
        };
        out.set_bit(i, bit);
    }
    out
}

/// [`RecordEncoder::encode`] through an `i32` accumulator: each feature's
/// bound vector is allocated and added, then the majority is read out.
pub(crate) fn encode(enc: &RecordEncoder, x: &[f64]) -> BinaryHv {
    assert_eq!(x.len(), enc.ids.len(), "feature count mismatch");
    let mut acc = BundleAccumulator::new(enc.dim());
    for ((id, lvl), &v) in enc.ids.iter().zip(&enc.levels).zip(x) {
        add(&mut acc, &id.bind(lvl.encode(v)));
    }
    majority(&acc, &enc.tie_break)
}

/// Per-component [`crate::noise::flip_components`].
pub(crate) fn flip_components(hv: &BinaryHv, error_rate: f64, rng: &mut Rng) -> BinaryHv {
    let p = error_rate.clamp(0.0, 1.0);
    let mut out = hv.clone();
    for i in 0..hv.dim() {
        if rng.bernoulli(p) {
            let b = out.bit(i);
            out.set_bit(i, !b);
        }
    }
    out
}

/// One bit, one word less one, one word, one word and one, a partial
/// tail word, and the experiments' dimension.
const DIMS: [usize; 6] = [1, 63, 64, 65, 1000, 8192];

/// Inside `[0, 1]`, both ends, and out of range on either side or NaN,
/// all of which must consume one draw per component all the same.
const ERROR_RATES: [f64; 8] = [0.0, 1e-3, 0.4, 0.5, 1.0, -0.1, 1.5, f64::NAN];

#[test]
fn word_kernels_match_per_component_oracle() {
    let mut gen = Rng::from_seed(29);
    for dim in DIMS {
        // Even feature counts reach the tie-break.
        for n_features in 1..=9 {
            let levels = 2 + gen.below(63) as usize;
            let ranges: Vec<(f64, f64)> = (0..n_features)
                .map(|_| {
                    let lo = gen.uniform_in(-5.0, 5.0);
                    (lo, lo + gen.uniform_in(0.1, 10.0))
                })
                .collect();
            let enc = RecordEncoder::new(dim, &ranges, levels, gen.next_u64()).unwrap();
            let case = format!("dim {dim}, {n_features} features, {levels} levels");
            let tie = BinaryHv::random(dim, &mut gen);
            let mut fast = BundleAccumulator::new(dim);
            let mut slow = BundleAccumulator::new(dim);
            assert_eq!(fast.majority(&tie), majority(&slow, &tie), "{case}");
            let mut encoded = Vec::new();
            for _ in 0..4 {
                // Up to half a range outside either end.
                let row: Vec<f64> = ranges
                    .iter()
                    .map(|&(lo, hi)| {
                        let pad = (hi - lo) / 2.0;
                        gen.uniform_in(lo - pad, hi + pad)
                    })
                    .collect();
                let hv = enc.encode(&row);
                assert_eq!(hv, encode(&enc, &row), "{case}, row {row:?}");
                fast.add(&hv);
                add(&mut slow, &hv);
                assert_eq!(fast, slow, "{case}");
                assert_eq!(fast.majority(&tie), majority(&slow, &tie), "{case}");
                encoded.push(hv);
            }
            for hv in &encoded[1..] {
                fast.subtract(hv);
                subtract(&mut slow, hv);
                assert_eq!(fast, slow, "{case}");
                assert_eq!(fast.majority(&tie), majority(&slow, &tie), "{case}");
            }
            for rate in ERROR_RATES {
                let mut rng_fast = Rng::from_seed(gen.next_u64());
                let mut rng_slow = rng_fast.clone();
                let flipped = crate::noise::flip_components(&encoded[0], rate, &mut rng_fast);
                let reference = flip_components(&encoded[0], rate, &mut rng_slow);
                assert_eq!(flipped, reference, "{case}, error rate {rate}");
                // Both consumed the same draws.
                assert_eq!(rng_fast.next_u64(), rng_slow.next_u64(), "{case}");
            }
        }
    }
}
