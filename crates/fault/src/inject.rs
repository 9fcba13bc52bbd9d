//! The injection-site runtime: a process-global armed plan plus the
//! site-side API the instrumented layers call.
//!
//! With no plan active every site call is one relaxed atomic load, so
//! sites are safe in hot loops. Decisions are deterministic:
//!
//! - `panic@site:N` fires when the *caller-supplied* unit index equals
//!   `N`, so it is reproducible under any worker count — the index is the
//!   sweep-point/cell/task index, not a timing-dependent hit counter.
//! - `nan@site` / `bitflip@site` consume a per-directive hit counter; the
//!   fire decision and the flipped bit are pure functions of
//!   `(seed, site, hit)`. Hit order is deterministic single-threaded and
//!   statistically identical under parallelism.

use crate::fnv64;
use crate::plan::{Directive, FaultKind, FaultPlan};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

/// Fast-path switch: `true` only while a non-empty plan is armed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The armed plan. The `RwLock` is only written by activate/clear.
static ARMED: RwLock<Vec<ArmedDirective>> = RwLock::new(Vec::new());

/// Serializes activations so concurrent tests cannot fight over the
/// process-global plan.
static ACTIVATION: Mutex<()> = Mutex::new(());

#[derive(Debug)]
struct ArmedDirective {
    directive: Directive,
    hits: AtomicU64,
}

/// Keeps a plan armed for a lexical scope; clearing happens on drop.
/// Holding the guard also holds the process-wide activation lock, so
/// concurrent tests that arm plans serialize instead of interfering.
#[derive(Debug)]
pub struct PlanGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        clear();
    }
}

fn install(plan: &FaultPlan) {
    let armed: Vec<ArmedDirective> = plan
        .directives
        .iter()
        .map(|d| ArmedDirective {
            directive: d.clone(),
            hits: AtomicU64::new(0),
        })
        .collect();
    let enabled = !armed.is_empty();
    let mut slot = ARMED.write().expect("fault plan lock poisoned");
    *slot = armed;
    ACTIVE.store(enabled, Ordering::Relaxed);
}

/// Arms `plan` for the lifetime of the returned guard. This is the only
/// way to arm a plan: fault injection is for tests, never a run-time
/// switch of the experiment binaries.
///
/// # Panics
///
/// Panics if the activation lock is poisoned.
#[must_use]
pub fn activate(plan: &FaultPlan) -> PlanGuard {
    let lock = ACTIVATION
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    install(plan);
    PlanGuard { _lock: lock }
}

/// Disarms the plan (idempotent).
pub fn clear() {
    let mut slot = ARMED.write().expect("fault plan lock poisoned");
    slot.clear();
    ACTIVE.store(false, Ordering::Relaxed);
}

/// `true` while a non-empty fault plan is armed (one relaxed load).
#[inline]
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn mix(seed: u64, site: &str, hit: u64) -> u64 {
    let mut bytes = Vec::with_capacity(site.len() + 16);
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.extend_from_slice(site.as_bytes());
    bytes.extend_from_slice(&hit.to_le_bytes());
    fnv64(&bytes)
}

fn fires(d: &Directive, site: &str, hit: u64) -> bool {
    if d.rate >= 1.0 {
        return true;
    }
    #[allow(clippy::cast_precision_loss)]
    let frac = mix(d.seed, site, hit) as f64 / u64::MAX as f64;
    frac < d.rate
}

fn injected() {
    lori_obs::counter(crate::METRIC_INJECTED).incr(1);
}

/// Counts one guard-side detection (NaN caught, checksum mismatch). Call
/// it whenever a typed error is about to be returned because corrupted
/// state was recognized rather than silently propagated.
pub fn detected(_site: &'static str) {
    lori_obs::counter(crate::METRIC_DETECTED).incr(1);
}

fn with_site<R>(
    site: &str,
    kind: FaultKind,
    f: impl FnMut(&ArmedDirective) -> Option<R>,
) -> Option<R> {
    let slot = ARMED.read().expect("fault plan lock poisoned");
    slot.iter()
        .filter(|a| a.directive.kind == kind && a.directive.site == site)
        .find_map(f)
}

/// Panics iff a `panic@site:index` directive is armed for exactly this
/// `(site, index)` unit. The index must be the caller's deterministic
/// unit number (sweep-point index, cell index, …), which is what makes
/// the injection reproducible under any worker count.
///
/// # Panics
///
/// By design, when armed.
pub fn check_panic(site: &'static str, index: u64) {
    if !active() {
        return;
    }
    let armed = with_site(site, FaultKind::Panic, |a| {
        (a.directive.index == Some(index)).then_some(())
    });
    if armed.is_some() {
        injected();
        panic!("lori-fault: injected panic at {site}[{index}]");
    }
}

/// Passes `value` through the site, replacing it with NaN when an armed
/// `nan@site` directive fires for this hit.
#[inline]
#[must_use]
pub fn poison_f64(site: &'static str, value: f64) -> f64 {
    if !active() {
        return value;
    }
    let poisoned = with_site(site, FaultKind::Nan, |a| {
        let hit = a.hits.fetch_add(1, Ordering::Relaxed);
        fires(&a.directive, site, hit).then_some(())
    });
    if poisoned.is_some() {
        injected();
        f64::NAN
    } else {
        value
    }
}

/// Flips one seed-deterministic bit of `bytes` when an armed
/// `bitflip@site` directive fires for this hit. Returns the flipped bit
/// index, if any.
pub fn corrupt_bytes(site: &'static str, bytes: &mut [u8]) -> Option<usize> {
    if bytes.is_empty() {
        return None;
    }
    let bit = flip_bit(site, bytes.len() * 8)?;
    bytes[bit / 8] ^= 1 << (bit % 8);
    Some(bit)
}

/// Like [`corrupt_bytes`] but for bit-addressed containers (e.g. binary
/// hypervectors): returns which of `nbits` bits to flip when an armed
/// `bitflip@site` directive fires, or `None`.
#[must_use]
pub fn flip_bit(site: &'static str, nbits: usize) -> Option<usize> {
    if !active() || nbits == 0 {
        return None;
    }
    let bit = with_site(site, FaultKind::BitFlip, |a| {
        let hit = a.hits.fetch_add(1, Ordering::Relaxed);
        fires(&a.directive, site, hit).then(|| {
            #[allow(clippy::cast_possible_truncation)]
            let b = (mix(a.directive.seed ^ 0x5bd1_e995, site, hit) % nbits as u64) as usize;
            b
        })
    });
    if bit.is_some() {
        injected();
    }
    bit
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed plan is process-global; every test that reads or arms it
    // holds a PlanGuard (or the activation lock itself), which serializes
    // them.

    #[test]
    fn inactive_sites_are_passthrough() {
        let _guard = activate(&FaultPlan::default());
        assert!(!active());
        check_panic("sweep.point", 17);
        assert_eq!(poison_f64("circuit.lut", 2.5), 2.5);
        let mut bytes = [0xAAu8; 4];
        assert_eq!(corrupt_bytes("checkpoint.state", &mut bytes), None);
        assert_eq!(bytes, [0xAAu8; 4]);
        assert_eq!(flip_bit("hdc.encoder", 128), None);
    }

    #[test]
    fn panic_fires_only_at_its_index() {
        let plan = FaultPlan::parse("panic@sweep.point:3").unwrap();
        let _guard = activate(&plan);
        check_panic("sweep.point", 2);
        check_panic("sweep.point", 4);
        check_panic("other.site", 3);
        let caught = std::panic::catch_unwind(|| check_panic("sweep.point", 3));
        let payload = caught.expect_err("must panic at index 3");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("sweep.point[3]"), "payload: {msg}");
    }

    #[test]
    fn nan_rate_one_poisons_every_hit() {
        let plan = FaultPlan::parse("nan@circuit.lut").unwrap();
        let _guard = activate(&plan);
        assert!(poison_f64("circuit.lut", 1.0).is_nan());
        assert!(poison_f64("circuit.lut", 2.0).is_nan());
        assert_eq!(poison_f64("circuit.mlchar", 2.0), 2.0, "other site clean");
    }

    #[test]
    fn nan_rate_is_statistical_and_seed_deterministic() {
        let plan = FaultPlan::parse("nan@circuit.lut:rate=0.25,seed=7").unwrap();
        let pattern = |plan: &FaultPlan| {
            let _guard = activate(plan);
            (0..400)
                .map(|_| poison_f64("circuit.lut", 1.0).is_nan())
                .collect::<Vec<_>>()
        };
        let a = pattern(&plan);
        let b = pattern(&plan);
        assert_eq!(a, b, "same seed, same hit sequence");
        let hits = a.iter().filter(|&&x| x).count();
        assert!((50..150).contains(&hits), "rate 0.25 of 400: {hits}");
        let other = FaultPlan::parse("nan@circuit.lut:rate=0.25,seed=8").unwrap();
        assert_ne!(pattern(&other), a, "different seed, different pattern");
    }

    #[test]
    fn bitflip_flips_exactly_one_bit() {
        let plan = FaultPlan::parse("bitflip@checkpoint.state:seed=9").unwrap();
        let _guard = activate(&plan);
        let mut bytes = [0u8; 16];
        let bit = corrupt_bytes("checkpoint.state", &mut bytes).expect("must flip");
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        assert!(bytes[bit / 8] & (1 << (bit % 8)) != 0);
    }

    #[test]
    fn clear_disarms() {
        {
            let _guard = activate(&FaultPlan::parse("nan@circuit.lut").unwrap());
            assert!(active());
        }
        // Once the lock is ours no guard is alive, and every guard disarms
        // on drop.
        let _lock = ACTIVATION
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(!active(), "guard drop disarms");
        assert_eq!(poison_f64("circuit.lut", 3.0), 3.0);
    }
}
