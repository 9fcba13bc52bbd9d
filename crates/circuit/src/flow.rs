//! The end-to-end SHE flow of the paper's Fig. 3.
//!
//! Steps:
//!
//! 1. Characterize a conventional timing library at the nominal corner
//!    (blue path, upper-left of Fig. 3).
//! 2. Build the SHE-as-delay library and run conventional STA with it —
//!    the resulting "SDF" contains each instance's self-heating temperature
//!    (upper path of Fig. 3, reproducing Fig. 2's per-instance SHE map).
//! 3. Derive each instance's full context (slew, load, ΔT, aging ΔVth from
//!    its activity/duty profile) and use the ML characterizer to generate
//!    the circuit-specific instance library (lower path).
//! 4. Run STA with the instance-specific timings → the SHE/aging-accurate
//!    circuit delay, and compare against (a) the nominal corner and (b) a
//!    pessimistic worst-case corner where every instance is assumed to run
//!    at the hottest observed SHE and maximal aging.
//!
//! The flow's claim, which experiment E2 checks: the per-instance guardband
//! sits *between* nominal and worst-case — full reliability without
//! worst-case pessimism.

use crate::aging::{AgingModel, StressProfile};
use crate::cell::Library;
use crate::characterize::she_as_delay_library;
use crate::error::CircuitError;
use crate::mlchar::{InstanceContext, MlCharacterizer};
use crate::netlist::Netlist;
use crate::she::SheModel;
use crate::spicelike::GoldenSimulator;
use crate::sta::{Guardband, StaConfig, StaEngine, StaReport};
use lori_core::units::{Celsius, Seconds};

/// Configuration of the SHE flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SheFlowConfig {
    /// STA settings shared by every run.
    pub sta: StaConfig,
    /// Self-heating model.
    pub she: SheModel,
    /// Aging model.
    pub aging: AgingModel,
    /// Chip (ambient die) temperature.
    pub chip_temperature: Celsius,
    /// Mission time for the aging projection.
    pub lifetime: Seconds,
}

impl Default for SheFlowConfig {
    fn default() -> Self {
        SheFlowConfig {
            sta: StaConfig::default(),
            she: SheModel::default(),
            aging: AgingModel::default(),
            chip_temperature: Celsius(65.0),
            lifetime: Seconds::from_years(10.0),
        }
    }
}

/// The output of the flow.
#[derive(Debug, Clone)]
pub struct SheFlowReport {
    /// Per-instance SHE temperature above chip temperature (K), from the
    /// SHE-as-delay STA run (the Fig. 2 data).
    pub instance_she_k: Vec<f64>,
    /// Per-instance aging shift (V) after the mission time.
    pub instance_delta_vth_v: Vec<f64>,
    /// Nominal (fresh, SHE-free) timing.
    pub nominal: StaReport,
    /// Per-instance SHE/aging-accurate timing (the flow's product).
    pub accurate: StaReport,
    /// Pessimistic worst-case-corner timing (every instance at max SHE and
    /// max aging).
    pub worst_case: StaReport,
}

impl SheFlowReport {
    /// Guardband required by the accurate flow.
    #[must_use]
    pub fn accurate_guardband(&self) -> Guardband {
        Guardband::from_reports(&self.nominal, &self.accurate)
    }

    /// Guardband required by the conventional worst-case corner.
    #[must_use]
    pub fn worst_case_guardband(&self) -> Guardband {
        Guardband::from_reports(&self.nominal, &self.worst_case)
    }

    /// Fraction of the worst-case margin the accurate flow saves.
    #[must_use]
    pub fn pessimism_reduction(&self) -> f64 {
        let wc = self.worst_case_guardband().margin_ps();
        if wc <= 0.0 {
            0.0
        } else {
            1.0 - self.accurate_guardband().margin_ps() / wc
        }
    }
}

/// Runs the full Fig.-3 flow.
///
/// One [`StaEngine`] over the timing library serves the nominal,
/// accurate, and worst-case corners (validation, topological order, and
/// net loads computed once; the corner changes re-time in-place), and the
/// SHE extraction builds a second engine over the SHE-as-delay library
/// that still shares the netlist's cached topological order. The result
/// equals four independent full STA passes exactly; `flow::tests` keeps
/// that four-pass oracle.
///
/// `timing_library` must be characterized at the flow's nominal corner;
/// `ml` must be trained for every cell the netlist uses (e.g. via
/// [`MlCharacterizer::train_for_netlist`]).
///
/// # Errors
///
/// Propagates characterization, validation, and STA errors.
pub fn run_she_flow(
    sim: &GoldenSimulator,
    timing_library: &Library,
    netlist: &Netlist,
    ml: &MlCharacterizer,
    config: &SheFlowConfig,
) -> Result<SheFlowReport, CircuitError> {
    let _ = sim; // the golden engine already produced `timing_library`; kept for API symmetry
    config.she.validate()?;

    // Step 1-2: nominal STA and SHE extraction via the delay-slot trick.
    let mut engine = StaEngine::new(netlist, timing_library, &config.sta)?;
    let nominal = engine.report();
    let she_lib = she_as_delay_library(timing_library, &config.she)?;
    let she_run = StaEngine::new(netlist, &she_lib, &config.sta)?.into_report();
    let instance_she_k = she_run.instance_delay_ps;

    // Step 3: per-instance contexts.
    let (contexts, instance_delta_vth_v) =
        instance_contexts(netlist, &nominal, &instance_she_k, config)?;

    // Step 4a: accurate per-instance STA — an override-set retime on the
    // nominal engine state.
    let overrides = ml.generate_instance_library(netlist, &contexts)?;
    engine.set_all_timings(netlist, timing_library, &overrides)?;
    let accurate = engine.report();

    // Step 4b: worst-case corner — a second retime on the same engine.
    let wc_contexts = worst_case_contexts(&contexts, &instance_she_k, &instance_delta_vth_v);
    let wc_overrides = ml.generate_instance_library(netlist, &wc_contexts)?;
    engine.set_all_timings(netlist, timing_library, &wc_overrides)?;
    let worst_case = engine.into_report();

    Ok(SheFlowReport {
        instance_she_k,
        instance_delta_vth_v,
        nominal,
        accurate,
        worst_case,
    })
}

/// Step 3 of the flow: per-instance contexts (slew, load, SHE ΔT, aging
/// ΔVth) from the nominal timing and the SHE extraction.
fn instance_contexts(
    netlist: &Netlist,
    nominal: &StaReport,
    instance_she_k: &[f64],
    config: &SheFlowConfig,
) -> Result<(Vec<InstanceContext>, Vec<f64>), CircuitError> {
    let mut contexts = Vec::with_capacity(netlist.instance_count());
    let mut instance_delta_vth_v = Vec::with_capacity(netlist.instance_count());
    for (i, inst) in netlist.instances().iter().enumerate() {
        let she_k = instance_she_k[i];
        let device_temp = Celsius(config.chip_temperature.value() + she_k);
        // Duty cycle approximated from activity: busier gates spend more
        // time in stressed states; floor keeps static-stress NBTI alive.
        let duty = (0.3 + inst.activity).clamp(0.0, 1.0);
        let stress = StressProfile::new(duty, inst.activity, device_temp)?;
        let dvth = config.aging.delta_vth(&stress, config.lifetime).value();
        instance_delta_vth_v.push(dvth);
        contexts.push(InstanceContext {
            slew_ps: nominal.instance_input_slew_ps[i],
            load_ff: nominal.instance_load_ff[i],
            delta_t_k: she_k,
            delta_vth_v: dvth,
        });
    }
    Ok((contexts, instance_delta_vth_v))
}

/// Worst-case contexts: every instance at the hottest observed SHE and the
/// worst observed aging.
fn worst_case_contexts(
    contexts: &[InstanceContext],
    she: &[f64],
    dvth: &[f64],
) -> Vec<InstanceContext> {
    let max_she = she.iter().copied().fold(0.0f64, f64::max);
    let max_dvth = dvth.iter().copied().fold(0.0f64, f64::max);
    contexts
        .iter()
        .map(|c| InstanceContext {
            delta_t_k: max_she,
            delta_vth_v: max_dvth,
            ..*c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_library, Corner};
    use crate::mlchar::MlCharConfig;
    use crate::netlist::processor_datapath;
    use crate::sta::{run_sta, run_sta_with_overrides};
    use crate::tech::TechParams;
    use std::sync::OnceLock;

    struct Setup {
        sim: GoldenSimulator,
        lib: Library,
        netlist: Netlist,
        ml: MlCharacterizer,
    }

    fn setup() -> &'static Setup {
        static S: OnceLock<Setup> = OnceLock::new();
        S.get_or_init(|| {
            let sim = GoldenSimulator::new(TechParams::default()).unwrap();
            let lib = characterize_library(&sim, &Corner::default()).unwrap();
            let netlist = processor_datapath(&lib, 4, 11).unwrap();
            let ml = MlCharacterizer::train_for_netlist(
                &sim,
                &lib,
                &netlist,
                &MlCharConfig {
                    samples_per_cell: 90,
                    stages: 50,
                    ..MlCharConfig::default()
                },
            )
            .unwrap();
            Setup {
                sim,
                lib,
                netlist,
                ml,
            }
        })
    }

    #[test]
    fn flow_produces_ordered_guardbands() {
        let s = setup();
        let report =
            run_she_flow(&s.sim, &s.lib, &s.netlist, &s.ml, &SheFlowConfig::default()).unwrap();
        // nominal <= accurate <= worst-case (allowing small ML noise).
        assert!(
            report.accurate.max_arrival_ps > report.nominal.max_arrival_ps * 0.98,
            "accurate {} vs nominal {}",
            report.accurate.max_arrival_ps,
            report.nominal.max_arrival_ps
        );
        assert!(
            report.worst_case.max_arrival_ps >= report.accurate.max_arrival_ps * 0.98,
            "worst-case {} vs accurate {}",
            report.worst_case.max_arrival_ps,
            report.accurate.max_arrival_ps
        );
    }

    #[test]
    fn per_instance_she_spreads_like_fig2() {
        let s = setup();
        let report =
            run_she_flow(&s.sim, &s.lib, &s.netlist, &s.ml, &SheFlowConfig::default()).unwrap();
        let she = &report.instance_she_k;
        let min = she.iter().copied().fold(f64::INFINITY, f64::min);
        let max = she.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Fig. 2: wide spread of per-instance SHE from few cell types.
        assert!(max > 2.0 * min.max(0.1), "spread [{min}, {max}] too narrow");
        assert!(max < 80.0, "max SHE {max} K implausible");
    }

    #[test]
    fn pessimism_reduction_is_positive() {
        let s = setup();
        let report =
            run_she_flow(&s.sim, &s.lib, &s.netlist, &s.ml, &SheFlowConfig::default()).unwrap();
        let saving = report.pessimism_reduction();
        assert!(
            saving > 0.0 && saving <= 1.0,
            "pessimism reduction {saving}"
        );
    }

    /// The reference oracle: the flow as four independent full STA passes.
    fn four_pass_flow(s: &Setup, config: &SheFlowConfig) -> SheFlowReport {
        let Setup {
            lib, netlist, ml, ..
        } = s;
        let nominal = run_sta(netlist, lib, &config.sta).unwrap();
        let she_lib = she_as_delay_library(lib, &config.she).unwrap();
        let instance_she_k = run_sta(netlist, &she_lib, &config.sta)
            .unwrap()
            .instance_delay_ps;
        let (contexts, instance_delta_vth_v) =
            instance_contexts(netlist, &nominal, &instance_she_k, config).unwrap();
        let overrides = ml.generate_instance_library(netlist, &contexts).unwrap();
        let accurate = run_sta_with_overrides(netlist, lib, &config.sta, &overrides).unwrap();
        let wc_contexts = worst_case_contexts(&contexts, &instance_she_k, &instance_delta_vth_v);
        let wc_overrides = ml.generate_instance_library(netlist, &wc_contexts).unwrap();
        let worst_case = run_sta_with_overrides(netlist, lib, &config.sta, &wc_overrides).unwrap();
        SheFlowReport {
            instance_she_k,
            instance_delta_vth_v,
            nominal,
            accurate,
            worst_case,
        }
    }

    #[test]
    fn engine_flow_matches_four_pass_oracle_exactly() {
        let s = setup();
        let config = SheFlowConfig::default();
        let engine = run_she_flow(&s.sim, &s.lib, &s.netlist, &s.ml, &config).unwrap();
        let oracle = four_pass_flow(s, &config);
        assert_eq!(engine.instance_she_k, oracle.instance_she_k);
        assert_eq!(engine.instance_delta_vth_v, oracle.instance_delta_vth_v);
        assert_eq!(engine.nominal, oracle.nominal);
        assert_eq!(engine.accurate, oracle.accurate);
        assert_eq!(engine.worst_case, oracle.worst_case);
    }

    #[test]
    fn aging_shifts_are_plausible() {
        let s = setup();
        let report =
            run_she_flow(&s.sim, &s.lib, &s.netlist, &s.ml, &SheFlowConfig::default()).unwrap();
        for &dv in &report.instance_delta_vth_v {
            assert!(dv > 0.0 && dv < 0.15, "ΔVth {dv} V");
        }
    }
}
