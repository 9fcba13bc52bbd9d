//! Seeded, reproducible randomness for all LORI experiments.
//!
//! [`Rng`] wraps a small, fast PRNG behind a domain-oriented API (uniform,
//! normal, Bernoulli, geometric sampling, shuffling, sub-stream splitting).
//! Every simulator and model in the workspace takes an `Rng` or a `u64` seed,
//! never ambient randomness, so all results are reproducible.

use rand::rngs::SmallRng;
use rand::{Rng as _, RngCore, SeedableRng};

/// A seeded pseudo-random number generator.
///
/// ```
/// use lori_core::Rng;
/// let mut a = Rng::from_seed(42);
/// let mut b = Rng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    inner: SmallRng,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Rng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent sub-stream, e.g. one per Monte Carlo run.
    ///
    /// Mixing the stream index through a SplitMix64 step keeps sub-streams
    /// decorrelated even for consecutive indices.
    #[must_use]
    pub fn split(&mut self, stream: u64) -> Self {
        let mut z = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng::from_seed(z ^ (z >> 31))
    }

    /// Next raw 64-bit value.
    #[inline]
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    #[must_use]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    #[must_use]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range must be non-empty");
        self.inner.gen_range(0..n)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[must_use]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range must be non-empty");
        self.inner.gen_range(lo..hi)
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    #[must_use]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal sample (Box–Muller).
    #[must_use]
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[must_use]
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Geometric sample: the number of failures before the first success,
    /// where each trial succeeds with probability `q` (support `{0, 1, ...}`).
    ///
    /// Uses inverse-CDF sampling, which is exact and O(1) even for tiny `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1]`.
    #[must_use]
    pub fn geometric(&mut self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "success probability must be in (0, 1]");
        if q == 1.0 {
            return 0;
        }
        let u = 1.0 - self.uniform(); // in (0, 1]
                                      // ln_1p keeps precision for q near 0 AND avoids ln(1-q) rounding to
                                      // ln(1) = 0 for q below ~1e-16 (which would wrongly yield 0).
        let k = (u.ln() / (-q).ln_1p()).floor();
        if k.is_finite() && k >= 0.0 {
            // Cap at u64::MAX; astronomically unlikely to matter.
            if k >= 1.8e19 {
                u64::MAX
            } else {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                {
                    k as u64
                }
            }
        } else {
            0
        }
    }

    /// Exponential sample with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    #[must_use]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be strictly positive");
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            #[allow(clippy::cast_possible_truncation)]
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Chooses a uniformly random element.
    ///
    /// Returns `None` on an empty slice.
    #[must_use]
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            #[allow(clippy::cast_possible_truncation)]
            let i = self.below(slice.len() as u64) as usize;
            Some(&slice[i])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible() {
        let mut a = Rng::from_seed(7);
        let mut b = Rng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_differ() {
        let mut root = Rng::from_seed(1);
        let mut s0 = root.split(0);
        let mut s1 = root.split(1);
        let a: Vec<u64> = (0..8).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng::from_seed(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_in_respects_bounds() {
        let mut r = Rng::from_seed(4);
        for _ in 0..1000 {
            let v = r.uniform_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = Rng::from_seed(5);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.3)).count();
        #[allow(clippy::cast_precision_loss)]
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::from_seed(6);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        #[allow(clippy::cast_precision_loss)]
        let mean = samples.iter().sum::<f64>() / n as f64;
        #[allow(clippy::cast_precision_loss)]
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn geometric_mean_matches_theory() {
        // Mean of geometric (failures before success) is (1-q)/q.
        let mut r = Rng::from_seed(8);
        let q = 0.2;
        let n = 200_000;
        #[allow(clippy::cast_precision_loss)]
        let mean = (0..n).map(|_| r.geometric(q) as f64).sum::<f64>() / n as f64;
        let expect = (1.0 - q) / q;
        assert!((mean - expect).abs() < 0.05, "mean {mean}, expect {expect}");
    }

    #[test]
    fn geometric_q_one_is_zero() {
        let mut r = Rng::from_seed(9);
        for _ in 0..100 {
            assert_eq!(r.geometric(1.0), 0);
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::from_seed(10);
        let n = 100_000;
        #[allow(clippy::cast_precision_loss)]
        let mean = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::from_seed(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = Rng::from_seed(13);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[42]), Some(&42));
    }
}
