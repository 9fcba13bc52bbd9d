//! Output checks, read from `expected.json`.
//!
//! Each check names one headline value and a rule:
//!
//! - `"near": x, "tol": t`: every element is within `t` of `x` (or of the
//!   matching element when `x` is a list);
//! - `"exact": x`: the value equals `x` bit for bit;
//! - `"min": x` / `"max": x`: every element is at least / at most `x`;
//! - `"increasing": true`: the list is strictly increasing.
//!
//! A check with `"canonical": true` applies only at the canonical seed 0,
//! where the workload reproduces the committed `results/` artifacts.

use crate::workloads::{Values, Workload};
use lori_obs::Value;

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What the check asserts, in words.
    pub name: String,
    value: String,
    rule: Rule,
    canonical: bool,
}

#[derive(Debug, Clone)]
enum Rule {
    Near(Vec<f64>, f64),
    Exact(Vec<f64>),
    Min(f64),
    Max(f64),
    Increasing,
}

/// The result of one check on one repetition.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The check's name.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// The value it saw.
    pub seen: Vec<f64>,
}

fn numbers(v: &Value, what: &str) -> Result<Vec<f64>, String> {
    match v {
        Value::Num(x) => Ok(vec![*x]),
        Value::Arr(xs) => xs
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| format!("{what}: not a number")))
            .collect(),
        _ => Err(format!("{what}: expected a number or a list of numbers")),
    }
}

fn parse_check(v: &Value, workload: &str) -> Result<Check, String> {
    let field = |k: &str| v.get(k);
    let text = |k: &str| {
        field(k)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{workload}: a check has no string {k:?}"))
    };
    let name = text("name")?;
    let num = |k: &str| {
        field(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}/{name}: {k:?} is not a number"))
    };
    let rule = if let Some(x) = field("near") {
        Rule::Near(numbers(x, &name)?, num("tol")?)
    } else if let Some(x) = field("exact") {
        Rule::Exact(numbers(x, &name)?)
    } else if field("min").is_some() {
        Rule::Min(num("min")?)
    } else if field("max").is_some() {
        Rule::Max(num("max")?)
    } else if field("increasing").and_then(Value::as_bool) == Some(true) {
        Rule::Increasing
    } else {
        return Err(format!(
            "{workload}/{name}: no rule (near, exact, min, max, increasing)"
        ));
    };
    Ok(Check {
        value: text("value")?,
        canonical: field("canonical").and_then(Value::as_bool) == Some(true),
        name,
        rule,
    })
}

/// The checks of `workload` in an `expected.json` document.
///
/// # Errors
///
/// Returns a message for malformed JSON or a check without a valid rule.
pub fn load(text: &str, workload: Workload) -> Result<Vec<Check>, String> {
    let doc = Value::parse(text).map_err(|e| format!("expected.json: {e}"))?;
    let list = doc
        .get(workload.name())
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("expected.json: no list of checks for {}", workload.name()))?;
    list.iter()
        .map(|c| parse_check(c, workload.name()))
        .collect()
}

impl Check {
    /// Applies the check, or returns `None` when it does not apply at
    /// `seed`. A value the workload did not report fails.
    #[must_use]
    pub fn evaluate(&self, values: &Values, seed: u64) -> Option<Outcome> {
        if self.canonical && seed != 0 {
            return None;
        }
        let seen = values.get(&self.value).unwrap_or_default().to_vec();
        let pass = !seen.is_empty()
            && match &self.rule {
                Rule::Near(expect, tol) => {
                    (expect.len() == 1 || expect.len() == seen.len())
                        && seen.iter().enumerate().all(|(i, v)| {
                            let e = if expect.len() == 1 {
                                expect[0]
                            } else {
                                expect[i]
                            };
                            (v - e).abs() <= *tol
                        })
                }
                Rule::Exact(expect) => {
                    expect.len() == seen.len()
                        && expect
                            .iter()
                            .zip(&seen)
                            .all(|(e, v)| e.to_bits() == v.to_bits())
                }
                Rule::Min(lo) => seen.iter().all(|v| v >= lo),
                Rule::Max(hi) => seen.iter().all(|v| v <= hi),
                Rule::Increasing => seen.windows(2).all(|w| w[0] < w[1]),
            };
        Some(Outcome {
            name: self.name.clone(),
            pass,
            seen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"anomaly": [
        {"name": "recall above 0.9", "value": "recall", "min": 0.9},
        {"name": "recall as committed", "value": "recall", "exact": 1, "canonical": true},
        {"name": "pair near", "value": "pair", "near": [1, 2], "tol": 0.1},
        {"name": "pair increasing", "value": "pair", "increasing": true},
        {"name": "missing value", "value": "nope", "max": 1}
    ]}"#;

    #[test]
    fn rules_apply_per_element_and_per_seed() {
        let checks = load(DOC, Workload::Anomaly).unwrap();
        let mut v = Values::default();
        v.set("recall", 1.0);
        v.set_all("pair", vec![1.05, 1.95]);
        let at = |seed| -> Vec<(String, bool)> {
            checks
                .iter()
                .filter_map(|c| c.evaluate(&v, seed))
                .map(|o| (o.name, o.pass))
                .collect()
        };
        let canonical = at(0);
        assert_eq!(canonical.len(), 5);
        assert_eq!(canonical.iter().filter(|(_, pass)| !pass).count(), 1);
        assert!(!canonical[4].1, "a missing value fails");
        assert_eq!(at(1).len(), 4, "canonical-only checks are skipped");
    }

    #[test]
    fn a_check_without_a_rule_is_refused() {
        let doc = r#"{"bakeoff": [{"name": "x", "value": "y"}]}"#;
        assert!(load(doc, Workload::Bakeoff).is_err());
        assert!(load("{}", Workload::Bakeoff).is_err());
    }
}
