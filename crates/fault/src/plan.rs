//! The fault-plan grammar.
//!
//! A plan is a `;`-separated list of directives, each of the form
//! `<kind>@<site>[:<args>]`:
//!
//! ```text
//! panic@sweep.point:17                 panic at the 18th (0-based) unit of site sweep.point
//! nan@circuit.lut:rate=1e-3            poison ~0.1 % of values flowing through circuit.lut
//! bitflip@checkpoint.state:seed=9      flip one seed-deterministic bit per pass
//! nan@circuit.mlchar:rate=0.5,seed=4   args combine, comma-separated
//! ```
//!
//! `panic` takes a bare non-negative integer: the deterministic unit index
//! (sweep point, cell index, …) at which to panic. `nan` and `bitflip`
//! take `rate=<f64 in [0,1]>` (default 1.0) and `seed=<u64>` (default 0);
//! the decision for hit *n* is a pure function of `(seed, site, n)`.

use std::fmt;

/// What a directive injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at one deterministic unit index.
    Panic,
    /// Replace an `f64` flowing through the site with NaN.
    Nan,
    /// Flip one deterministic bit of data flowing through the site.
    BitFlip,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "nan" => Some(FaultKind::Nan),
            "bitflip" => Some(FaultKind::BitFlip),
            _ => None,
        }
    }
}

/// One parsed fault directive.
#[derive(Debug, Clone, PartialEq)]
pub struct Directive {
    /// What to inject.
    pub kind: FaultKind,
    /// The injection-site name it arms (the sites are listed in the crate
    /// docs).
    pub site: String,
    /// For [`FaultKind::Panic`]: the unit index to panic at.
    pub index: Option<u64>,
    /// Injection probability per hit for rate-based kinds (default 1.0).
    pub rate: f64,
    /// Seed feeding the per-hit injection decision (default 0).
    pub seed: u64,
}

/// A parse failure, with the offending fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The directive fragment that failed to parse.
    pub fragment: String,
    /// Why it failed.
    pub reason: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault directive {:?}: {}",
            self.fragment, self.reason
        )
    }
}

impl std::error::Error for PlanError {}

/// A full fault plan: zero or more directives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The parsed directives, in plan order.
    pub directives: Vec<Directive>,
}

impl FaultPlan {
    /// Parses a plan string (see the module docs for the grammar).
    /// Empty strings and empty `;`-segments are allowed and ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the first malformed directive.
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        let mut directives = Vec::new();
        for fragment in text.split(';') {
            let fragment = fragment.trim();
            if fragment.is_empty() {
                continue;
            }
            directives.push(parse_directive(fragment)?);
        }
        Ok(FaultPlan { directives })
    }

    /// `true` when the plan has no directives.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }
}

fn err(fragment: &str, reason: impl Into<String>) -> PlanError {
    PlanError {
        fragment: fragment.to_owned(),
        reason: reason.into(),
    }
}

fn parse_directive(fragment: &str) -> Result<Directive, PlanError> {
    let (kind_str, rest) = fragment
        .split_once('@')
        .ok_or_else(|| err(fragment, "expected <kind>@<site>"))?;
    let kind = FaultKind::parse(kind_str.trim())
        .ok_or_else(|| err(fragment, "kind must be panic, nan, or bitflip"))?;
    let (site, args) = match rest.split_once(':') {
        Some((site, args)) => (site.trim(), Some(args)),
        None => (rest.trim(), None),
    };
    if site.is_empty() {
        return Err(err(fragment, "empty site name"));
    }
    let mut directive = Directive {
        kind,
        site: site.to_owned(),
        index: None,
        rate: 1.0,
        seed: 0,
    };
    if let Some(args) = args {
        for arg in args.split(',') {
            let arg = arg.trim();
            if arg.is_empty() {
                continue;
            }
            if let Some(v) = arg.strip_prefix("rate=") {
                let rate: f64 = v
                    .parse()
                    .map_err(|_| err(fragment, format!("bad rate {v:?}")))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(err(fragment, format!("rate {rate} outside [0, 1]")));
                }
                directive.rate = rate;
            } else if let Some(v) = arg.strip_prefix("seed=") {
                directive.seed = v
                    .parse()
                    .map_err(|_| err(fragment, format!("bad seed {v:?}")))?;
            } else {
                directive.index = Some(
                    arg.parse()
                        .map_err(|_| err(fragment, format!("bad unit index {arg:?}")))?,
                );
            }
        }
    }
    if kind == FaultKind::Panic && directive.index.is_none() {
        return Err(err(fragment, "panic needs a unit index (panic@site:N)"));
    }
    Ok(directive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_examples() {
        let plan = FaultPlan::parse(
            "panic@sweep.point:17;nan@circuit.lut:rate=1e-3;bitflip@checkpoint.state:seed=9",
        )
        .unwrap();
        assert_eq!(plan.directives.len(), 3);
        assert_eq!(plan.directives[0].kind, FaultKind::Panic);
        assert_eq!(plan.directives[0].site, "sweep.point");
        assert_eq!(plan.directives[0].index, Some(17));
        assert_eq!(plan.directives[1].kind, FaultKind::Nan);
        assert!((plan.directives[1].rate - 1e-3).abs() < 1e-18);
        assert_eq!(plan.directives[2].kind, FaultKind::BitFlip);
        assert_eq!(plan.directives[2].seed, 9);
    }

    #[test]
    fn combined_args_and_defaults() {
        let plan = FaultPlan::parse("nan@circuit.mlchar:rate=0.5,seed=4").unwrap();
        let d = &plan.directives[0];
        assert_eq!(d.rate, 0.5);
        assert_eq!(d.seed, 4);
        assert_eq!(d.index, None);
        let d = &FaultPlan::parse("bitflip@hdc.encoder").unwrap().directives[0];
        assert_eq!(d.rate, 1.0);
        assert_eq!(d.seed, 0);
    }

    #[test]
    fn empty_plans_are_empty() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ;").unwrap().is_empty());
    }

    #[test]
    fn rejections() {
        assert!(FaultPlan::parse("panic@sweep.point").is_err(), "no index");
        assert!(FaultPlan::parse("explode@sweep.point:1").is_err());
        assert!(FaultPlan::parse("panic@:1").is_err(), "empty site");
        assert!(FaultPlan::parse("nan@x:rate=2.0").is_err(), "rate > 1");
        assert!(FaultPlan::parse("nan@x:rate=abc").is_err());
        assert!(FaultPlan::parse("panic@x:minus").is_err());
        assert!(FaultPlan::parse("justtext").is_err());
    }
}
