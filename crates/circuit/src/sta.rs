//! Static timing analysis.
//!
//! A single-corner, max-delay STA: topological arrival-time and slew
//! propagation over the netlist, NLDM lookups per instance, per-net loads
//! from sink pin capacitances plus a simple wire model, critical-path
//! extraction, and SDF-style export.
//!
//! Two entry points run the same full pass:
//!
//! - [`run_sta`] — library lookup per instance (conventional flow);
//! - [`run_sta_with_overrides`] — per-instance delay/slew values, which is
//!   how instance-specific "libraries of thousands of cells" (Fig. 3, lower
//!   path) plug in without string lookups on the hot path.

use crate::cell::Library;
use crate::error::CircuitError;
use crate::netlist::{Driver, InstId, NetId, Netlist};
use std::fmt::Write as _;

/// STA configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StaConfig {
    /// Transition time assumed at primary inputs, in ps.
    pub input_slew_ps: f64,
    /// Wire capacitance added per fanout pin, in fF.
    pub wire_cap_per_fanout_ff: f64,
    /// Fixed wire capacitance per net, in fF.
    pub wire_cap_base_ff: f64,
    /// Load modeled on primary-output nets, in fF.
    pub output_load_ff: f64,
}

impl Default for StaConfig {
    fn default() -> Self {
        StaConfig {
            input_slew_ps: 20.0,
            wire_cap_per_fanout_ff: 0.25,
            wire_cap_base_ff: 0.1,
            output_load_ff: 2.0,
        }
    }
}

/// Per-instance timing override (delay and output slew in ps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceTiming {
    /// Propagation delay in ps.
    pub delay_ps: f64,
    /// Output slew in ps.
    pub out_slew_ps: f64,
}

/// The result of an STA run.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// Arrival time per net (ps). Primary inputs arrive at 0.
    pub arrival_ps: Vec<f64>,
    /// Transition time per net (ps).
    pub slew_ps: Vec<f64>,
    /// Delay used for each instance (ps).
    pub instance_delay_ps: Vec<f64>,
    /// Input slew seen by each instance (worst input, ps).
    pub instance_input_slew_ps: Vec<f64>,
    /// Capacitive load driven by each instance (fF).
    pub instance_load_ff: Vec<f64>,
    /// Longest-path arrival over all primary outputs (ps).
    pub max_arrival_ps: f64,
    /// Instances along the critical path, source to sink.
    pub critical_path: Vec<InstId>,
}

impl StaReport {
    /// SDF-flavoured text dump: one line per instance with its delay. For a
    /// library produced by
    /// [`crate::characterize::she_as_delay_library`], these numbers are SHE
    /// temperatures instead of delays — exactly the Fig. 3 trick.
    #[must_use]
    pub fn to_sdf(&self, netlist: &Netlist, lib: &Library) -> String {
        let mut out = String::new();
        out.push_str("(DELAYFILE (SDFVERSION \"lori-3.0\")\n");
        for (i, inst) in netlist.instances().iter().enumerate() {
            let cell = lib.cell(inst.cell);
            let _ = writeln!(
                out,
                "  (CELL (CELLTYPE \"{}\") (INSTANCE u{}) (DELAY (ABSOLUTE (IOPATH i z ({:.4})))))",
                cell.name, i, self.instance_delay_ps[i]
            );
        }
        out.push_str(")\n");
        out
    }
}

/// Computes the capacitive load of one net from the CSR sink index: base
/// wire cap, one `pin + wire` term per sink pin in (instance, pin) order,
/// then the primary-output load once per marking. This summation order is
/// part of the result: reordering it moves the loads' last bits, and with
/// them every timing artifact downstream.
fn net_load(netlist: &Netlist, lib: &Library, config: &StaConfig, net: NetId) -> f64 {
    let mut load = config.wire_cap_base_ff;
    let index = netlist.index();
    for &sink in index.sink_pins(net) {
        let pin = lib.cell(netlist.instances()[sink.0].cell).pin_cap_ff;
        load += pin + config.wire_cap_per_fanout_ff;
    }
    for _ in 0..index.po_count(net) {
        load += config.output_load_ff;
    }
    load
}

/// Computes the capacitive load on every net, in one pass over the index.
fn net_loads(netlist: &Netlist, lib: &Library, config: &StaConfig) -> Vec<f64> {
    (0..netlist.net_count())
        .map(|n| net_load(netlist, lib, config, NetId(n)))
        .collect()
}

/// Runs a full STA pass with library lookups.
///
/// # Errors
///
/// Propagates netlist validation and topological-order errors.
pub fn run_sta(
    netlist: &Netlist,
    lib: &Library,
    config: &StaConfig,
) -> Result<StaReport, CircuitError> {
    full_pass(netlist, lib, config, None)
}

/// Runs a full STA pass with per-instance timing overrides (one entry per
/// instance).
///
/// # Errors
///
/// Returns [`CircuitError::DanglingReference`] if `overrides.len()` differs
/// from the instance count, [`CircuitError::NonFinite`] for a non-finite
/// override, plus the usual validation errors.
pub fn run_sta_with_overrides(
    netlist: &Netlist,
    lib: &Library,
    config: &StaConfig,
    overrides: &[InstanceTiming],
) -> Result<StaReport, CircuitError> {
    if overrides.len() != netlist.instance_count() {
        return Err(CircuitError::DanglingReference {
            what: "override",
            index: overrides.len(),
        });
    }
    full_pass(netlist, lib, config, Some(overrides))
}

/// The values one instance evaluation produces.
struct InstEval {
    worst_in: usize,
    in_slew: f64,
    delay: f64,
    out_slew: f64,
}

/// Evaluates one instance against the arrival/slew of its inputs, which
/// the topological order has already timed.
#[inline]
fn eval_instance(
    netlist: &Netlist,
    lib: &Library,
    arrival: &[f64],
    slew: &[f64],
    load: f64,
    ov: Option<InstanceTiming>,
    inst_id: InstId,
) -> Result<InstEval, CircuitError> {
    let inst = &netlist.instances()[inst_id.0];
    // Worst (latest) input and worst slew.
    let (&worst_in, _) = inst
        .inputs
        .iter()
        .map(|n| (n, arrival[n.0]))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("cells have at least one input");
    let in_slew = inst.inputs.iter().map(|n| slew[n.0]).fold(0.0f64, f64::max);

    let (delay, out_slew) = match ov {
        Some(t) => (t.delay_ps, t.out_slew_ps),
        None => lib.cell(inst.cell).timing(in_slew, load),
    };
    // Layer-boundary NaN guard: a non-finite library read or override
    // must surface as a typed error here, not silently propagate NaN
    // arrivals into timing reports.
    if !delay.is_finite() || !out_slew.is_finite() {
        lori_obs::counter("fault.detected").incr(1);
        return Err(CircuitError::NonFinite {
            site: "circuit.lut",
            what: if delay.is_finite() {
                "out_slew"
            } else {
                "delay"
            },
        });
    }
    Ok(InstEval {
        worst_in: worst_in.0,
        in_slew,
        delay,
        out_slew,
    })
}

/// One full STA pass: validates the netlist, times every instance in the
/// cached topological order, then walks the critical path back from the
/// latest endpoint. `overrides`, when given, holds one entry per instance.
fn full_pass(
    netlist: &Netlist,
    lib: &Library,
    config: &StaConfig,
    overrides: Option<&[InstanceTiming]>,
) -> Result<StaReport, CircuitError> {
    let _span = lori_obs::span("circuit.sta.run");
    netlist.validate(lib)?;
    let index = netlist.index();
    let loads = net_loads(netlist, lib, config);

    let n_nets = netlist.net_count();
    let mut arrival = vec![0.0f64; n_nets];
    let mut slew = vec![config.input_slew_ps; n_nets];
    // Which net determined each net's arrival (for path walking).
    let mut from_net: Vec<Option<usize>> = vec![None; n_nets];

    let n_inst = netlist.instance_count();
    let mut instance_delay_ps = vec![0.0f64; n_inst];
    let mut instance_input_slew_ps = vec![0.0f64; n_inst];
    let mut instance_load_ff = vec![0.0f64; n_inst];

    for &inst_id in index.topo()? {
        let i = inst_id.0;
        let out = netlist.instances()[i].output.0;
        let load = loads[out];
        let ov = overrides.map(|o| o[i]);
        let e = eval_instance(netlist, lib, &arrival, &slew, load, ov, inst_id)?;
        instance_delay_ps[i] = e.delay;
        instance_input_slew_ps[i] = e.in_slew;
        instance_load_ff[i] = load;
        arrival[out] = arrival[e.worst_in] + e.delay;
        slew[out] = e.out_slew;
        from_net[out] = Some(e.worst_in);
    }
    lori_obs::counter("circuit.sta.instances").incr(n_inst as u64);

    // The critical endpoint is the latest primary output, falling back to
    // the global max for netlists without marked outputs.
    let endpoint = netlist
        .primary_outputs()
        .iter()
        .map(|n| n.0)
        .max_by(|&a, &b| arrival[a].total_cmp(&arrival[b]))
        .or_else(|| (0..arrival.len()).max_by(|&a, &b| arrival[a].total_cmp(&arrival[b])));
    let (max_arrival_ps, critical_path) = match endpoint {
        Some(end) => {
            let mut path = Vec::new();
            let mut cursor = Some(end);
            while let Some(net) = cursor {
                if let Some(Driver::Instance(inst)) = netlist.driver(NetId(net)) {
                    path.push(inst);
                }
                cursor = from_net[net];
            }
            path.reverse();
            (arrival[end], path)
        }
        None => (0.0, Vec::new()),
    };

    Ok(StaReport {
        arrival_ps: arrival,
        slew_ps: slew,
        instance_delay_ps,
        instance_input_slew_ps,
        instance_load_ff,
        max_arrival_ps,
        critical_path,
    })
}

/// One [`run_sta`] pass under its older name. The suite benchmark
/// (`benchmark/`, built from its own lock file) still calls
/// `StaEngine::new(..).into_report()`; new code calls [`run_sta`].
#[derive(Debug, Clone)]
pub struct StaEngine(StaReport);

impl StaEngine {
    /// Runs [`run_sta`].
    ///
    /// # Errors
    ///
    /// Same as [`run_sta`].
    pub fn new(
        netlist: &Netlist,
        lib: &Library,
        config: &StaConfig,
    ) -> Result<StaEngine, CircuitError> {
        run_sta(netlist, lib, config).map(StaEngine)
    }

    /// The pass's report.
    #[must_use]
    pub fn into_report(self) -> StaReport {
        self.0
    }
}

/// Guardband analysis: compares a nominal and a degraded (aged / heated)
/// report for the same netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guardband {
    /// Nominal critical-path delay (ps).
    pub nominal_ps: f64,
    /// Degraded critical-path delay (ps).
    pub degraded_ps: f64,
}

impl Guardband {
    /// Derives a guardband from two reports.
    #[must_use]
    pub fn from_reports(nominal: &StaReport, degraded: &StaReport) -> Guardband {
        Guardband {
            nominal_ps: nominal.max_arrival_ps,
            degraded_ps: degraded.max_arrival_ps,
        }
    }

    /// Absolute margin that must be added to the nominal period (ps).
    #[must_use]
    pub fn margin_ps(&self) -> f64 {
        (self.degraded_ps - self.nominal_ps).max(0.0)
    }

    /// Relative margin (fraction of nominal).
    #[must_use]
    pub fn relative(&self) -> f64 {
        if self.nominal_ps <= 0.0 {
            0.0
        } else {
            self.margin_ps() / self.nominal_ps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_library, default_library as lib, Corner};
    use crate::netlist::{processor_datapath, ripple_carry_adder};
    use crate::spicelike::GoldenSimulator;
    use crate::tech::TechParams;
    use lori_core::units::Volts;

    #[test]
    fn adder_delay_scales_with_width() {
        let cfg = StaConfig::default();
        let d4 = run_sta(&ripple_carry_adder(lib(), 4).unwrap(), lib(), &cfg)
            .unwrap()
            .max_arrival_ps;
        let d16 = run_sta(&ripple_carry_adder(lib(), 16).unwrap(), lib(), &cfg)
            .unwrap()
            .max_arrival_ps;
        assert!(d16 > 2.0 * d4, "4-bit {d4} ps vs 16-bit {d16} ps");
    }

    #[test]
    fn critical_path_is_carry_chain() {
        let nl = ripple_carry_adder(lib(), 8).unwrap();
        let report = run_sta(&nl, lib(), &StaConfig::default()).unwrap();
        // The carry chain has one MAJ3 per bit; the path should be long.
        assert!(
            report.critical_path.len() >= 8,
            "path length {}",
            report.critical_path.len()
        );
        // Path arrivals must be non-decreasing along the path.
        let mut prev = 0.0;
        for inst in &report.critical_path {
            let out = nl.instances()[inst.0].output;
            assert!(report.arrival_ps[out.0] >= prev);
            prev = report.arrival_ps[out.0];
        }
    }

    #[test]
    fn arrivals_are_nonnegative_and_finite() {
        let nl = processor_datapath(lib(), 6, 9).unwrap();
        let report = run_sta(&nl, lib(), &StaConfig::default()).unwrap();
        for &a in &report.arrival_ps {
            assert!(a.is_finite() && a >= 0.0);
        }
        assert!(report.max_arrival_ps > 0.0);
    }

    #[test]
    fn overrides_change_timing() {
        let nl = ripple_carry_adder(lib(), 4).unwrap();
        let base = run_sta(&nl, lib(), &StaConfig::default()).unwrap();
        let overrides: Vec<InstanceTiming> = (0..nl.instance_count())
            .map(|_| InstanceTiming {
                delay_ps: 1.0,
                out_slew_ps: 10.0,
            })
            .collect();
        let fixed = run_sta_with_overrides(&nl, lib(), &StaConfig::default(), &overrides).unwrap();
        assert!(fixed.max_arrival_ps < base.max_arrival_ps);
        // Max arrival with unit delays = longest path in gate count.
        assert!((fixed.max_arrival_ps - fixed.critical_path.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn override_count_must_match() {
        let nl = ripple_carry_adder(lib(), 4).unwrap();
        assert!(run_sta_with_overrides(&nl, lib(), &StaConfig::default(), &[]).is_err());
    }

    /// A non-finite override becomes a typed error naming the bad quantity.
    fn nan_override_error(bad: InstanceTiming) -> CircuitError {
        let nl = ripple_carry_adder(lib(), 4).unwrap();
        let mut overrides = vec![
            InstanceTiming {
                delay_ps: 10.0,
                out_slew_ps: 5.0,
            };
            nl.instance_count()
        ];
        overrides[nl.instance_count() / 2] = bad;
        run_sta_with_overrides(&nl, lib(), &StaConfig::default(), &overrides).unwrap_err()
    }

    #[test]
    fn nan_override_delay_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = nan_override_error(InstanceTiming {
                delay_ps: bad,
                out_slew_ps: 5.0,
            });
            assert_eq!(
                err,
                CircuitError::NonFinite {
                    site: "circuit.lut",
                    what: "delay"
                },
                "delay {bad}"
            );
        }
    }

    #[test]
    fn nan_override_out_slew_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = nan_override_error(InstanceTiming {
                delay_ps: 10.0,
                out_slew_ps: bad,
            });
            assert_eq!(
                err,
                CircuitError::NonFinite {
                    site: "circuit.lut",
                    what: "out_slew"
                },
                "out_slew {bad}"
            );
        }
    }

    #[test]
    fn aged_library_needs_guardband() {
        let sim = GoldenSimulator::new(TechParams::default()).unwrap();
        let aged_lib = characterize_library(
            &sim,
            &Corner {
                delta_vth: Volts(0.04),
                ..Corner::default()
            },
        )
        .unwrap();
        let nl = ripple_carry_adder(lib(), 8).unwrap();
        let cfg = StaConfig::default();
        let nominal = run_sta(&nl, lib(), &cfg).unwrap();
        let degraded = run_sta(&nl, &aged_lib, &cfg).unwrap();
        let gb = Guardband::from_reports(&nominal, &degraded);
        assert!(gb.margin_ps() > 0.0);
        assert!(gb.relative() > 0.0 && gb.relative() < 1.0);
    }

    #[test]
    fn sdf_export_mentions_every_instance() {
        let nl = ripple_carry_adder(lib(), 4).unwrap();
        let report = run_sta(&nl, lib(), &StaConfig::default()).unwrap();
        let sdf = report.to_sdf(&nl, lib());
        assert_eq!(
            sdf.matches("IOPATH").count(),
            nl.instance_count(),
            "one IOPATH per instance"
        );
        assert!(sdf.contains("XOR2_X1"));
    }

    #[test]
    fn instance_features_populated() {
        let nl = ripple_carry_adder(lib(), 4).unwrap();
        let report = run_sta(&nl, lib(), &StaConfig::default()).unwrap();
        for i in 0..nl.instance_count() {
            assert!(report.instance_load_ff[i] > 0.0);
            assert!(report.instance_input_slew_ps[i] > 0.0);
            assert!(report.instance_delay_ps[i] > 0.0);
        }
    }
}
