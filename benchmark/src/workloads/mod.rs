//! The four workloads. Each mirrors one or more `exp-*` binaries: the same
//! calls into the layer crates, with the same configurations and, at the
//! canonical seed 0, the same seeds.
//!
//! A workload runs in two steps. `setup` generates its inputs from the
//! seed; `run` makes the layer calls, each inside a span, and returns the
//! headline values the output checks read.

mod anomaly;
mod bakeoff;
mod reliability;
mod sheflow;

use crate::trace::Tracer;
use lori_obs::Value;
use std::collections::BTreeMap;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `exp-fig3-flow`: ML cell characterization and the SHE flow.
    Sheflow,
    /// `exp-anomaly-detection`: one MLP fit on register snapshots.
    Anomaly,
    /// `exp-model-bakeoff`: 5-fold cross-validation of 7 classifiers.
    Bakeoff,
    /// The light binaries: fig2, fig5, fig6, wall sensitivity, HDC
    /// robustness and aging, flip-flop vulnerability, selective
    /// replication and the RL manager.
    Reliability,
}

impl Workload {
    /// Every workload, in the order `run` measures them.
    pub const ALL: [Workload; 4] = [
        Workload::Sheflow,
        Workload::Anomaly,
        Workload::Bakeoff,
        Workload::Reliability,
    ];

    /// The name used on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sheflow => "sheflow",
            Workload::Anomaly => "anomaly",
            Workload::Bakeoff => "bakeoff",
            Workload::Reliability => "reliability",
        }
    }

    /// The workload with this name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid workloads.
    pub fn parse(name: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown workload {name:?}; expected sheflow, anomaly, bakeoff or reliability"
                )
            })
    }

    /// Generates the workload's inputs from `seed`.
    #[must_use]
    pub fn setup(self, seed: u64) -> Prepared {
        match self {
            Workload::Sheflow => Prepared::Sheflow(sheflow::setup(seed)),
            Workload::Anomaly => Prepared::Anomaly(anomaly::setup(seed)),
            Workload::Bakeoff => Prepared::Bakeoff(bakeoff::setup(seed)),
            Workload::Reliability => Prepared::Reliability(Box::new(reliability::setup(seed))),
        }
    }
}

/// A workload with its inputs generated.
pub enum Prepared {
    /// See [`Workload::Sheflow`].
    Sheflow(sheflow::Inputs),
    /// See [`Workload::Anomaly`].
    Anomaly(anomaly::Inputs),
    /// See [`Workload::Bakeoff`].
    Bakeoff(bakeoff::Inputs),
    /// See [`Workload::Reliability`].
    Reliability(Box<reliability::Inputs>),
}

impl Prepared {
    /// Makes the workload's layer calls under a root span `bench` and
    /// returns its headline values.
    pub fn run(self, tr: &mut Tracer) -> Values {
        let hits = lori_obs::counter("cache.hits");
        let misses = lori_obs::counter("cache.misses");
        let (hits0, misses0) = (hits.get(), misses.get());
        let values = tr.span("bench", |tr| match self {
            Prepared::Sheflow(inputs) => sheflow::run(inputs, tr),
            Prepared::Anomaly(inputs) => anomaly::run(inputs, tr),
            Prepared::Bakeoff(inputs) => bakeoff::run(inputs, tr),
            Prepared::Reliability(inputs) => reliability::run(*inputs, tr),
        });
        let (dh, dm) = (hits.get() - hits0, misses.get() - misses0);
        #[allow(clippy::cast_precision_loss)]
        {
            tr.count("cache.golden.hits", dh as f64);
            tr.count("cache.golden.lookups", (dh + dm) as f64);
        }
        values
    }
}

/// Headline values of one repetition. A scalar is a one-element list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(pub BTreeMap<String, Vec<f64>>);

impl Values {
    /// Records a scalar.
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_owned(), vec![v]);
    }

    /// Records a list.
    pub fn set_all(&mut self, name: &str, vs: Vec<f64>) {
        self.0.insert(name.to_owned(), vs);
    }

    /// The value called `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.0.get(name).map(Vec::as_slice)
    }

    /// As JSON: scalars as numbers, lists as arrays.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|(k, v)| {
                    let v = match v.as_slice() {
                        [x] => Value::from(*x),
                        xs => Value::Arr(xs.iter().map(|&x| Value::from(x)).collect()),
                    };
                    (k.clone(), v)
                })
                .collect(),
        )
    }

    /// Reads [`Values::to_value`]'s output back.
    ///
    /// # Errors
    ///
    /// Returns a message for anything but an object of numbers and arrays
    /// of numbers.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let Value::Obj(members) = v else {
            return Err("values: expected an object".into());
        };
        let mut out = Values::default();
        for (k, v) in members {
            let nums = match v {
                Value::Num(x) => vec![*x],
                Value::Arr(xs) => xs
                    .iter()
                    .map(|x| {
                        x.as_f64()
                            .ok_or_else(|| format!("values.{k}: not a number"))
                    })
                    .collect::<Result<_, _>>()?,
                _ => return Err(format!("values.{k}: expected a number or an array")),
            };
            out.0.insert(k.clone(), nums);
        }
        Ok(out)
    }
}

/// The seed one RNG of a workload uses: the mirrored binary's own seed
/// (`canonical`) at the canonical workload seed 0, and otherwise a seed
/// mixed from both, so every RNG gets a different stream per workload seed.
#[must_use]
pub fn reseed(canonical: u64, seed: u64) -> u64 {
    if seed == 0 {
        return canonical;
    }
    // SplitMix64 finalizer over both seeds.
    let mut z = canonical ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[allow(clippy::cast_precision_loss)]
fn as_f64(n: usize) -> f64 {
    n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_seed_keeps_the_binaries_seeds() {
        assert_eq!(reseed(7, 0), 7);
        assert_ne!(reseed(7, 1), 7);
        assert_ne!(reseed(7, 1), reseed(0, 1));
        assert_ne!(reseed(7, 1), reseed(7, 2));
    }

    #[test]
    fn values_round_trip_through_json() {
        let mut v = Values::default();
        v.set("recall", 0.999_408_828_166_053_6);
        v.set_all("ff.table", vec![0.1, 0.935_763_888_888_888_8]);
        let text = v.to_value().to_json();
        let back = Values::from_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, v);
    }
}
