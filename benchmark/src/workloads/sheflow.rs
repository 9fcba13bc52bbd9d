//! Mirrors `exp-fig3-flow` (E2, paper Fig. 3). About 84% of it is fitting
//! gradient-boosted trees for every cell of the 1244-instance datapath,
//! fanned out over `lori-par`. Its 16.6k golden-model lookups all miss in
//! a fresh process: every library point, training sample and instance
//! context is distinct.

use super::{as_f64, reseed, Values};
use crate::trace::Tracer;
use lori_circuit::characterize::{characterize_library, Corner};
use lori_circuit::flow::{run_she_flow, SheFlowConfig};
use lori_circuit::mlchar::{
    golden_instance_library, InstanceContext, MlCharConfig, MlCharacterizer,
};
use lori_circuit::netlist::processor_datapath;
use lori_circuit::spicelike::GoldenSimulator;
use lori_circuit::tech::TechParams;
use lori_core::units::Celsius;
use std::time::Instant;

pub struct Inputs {
    sim: GoldenSimulator,
    netlist_seed: u64,
    config: MlCharConfig,
}

pub fn setup(seed: u64) -> Inputs {
    Inputs {
        sim: GoldenSimulator::new(TechParams::default()).expect("default technology is valid"),
        netlist_seed: reseed(7, seed),
        config: MlCharConfig {
            seed: reseed(0, seed),
            ..MlCharConfig::default()
        },
    }
}

pub fn run(inputs: Inputs, tr: &mut Tracer) -> Values {
    let Inputs {
        sim,
        netlist_seed,
        config,
    } = inputs;
    let lib = tr.par_span("circuit.characterize_library", |_| {
        characterize_library(&sim, &Corner::default()).expect("library characterizes")
    });
    let netlist = tr.span("circuit.netlist", |_| {
        processor_datapath(&lib, 12, netlist_seed).expect("datapath builds")
    });
    let ml = tr.par_span("circuit.mlchar_train", |_| {
        MlCharacterizer::train_for_netlist(&sim, &lib, &netlist, &config).expect("training")
    });
    tr.count("circuit.mlchar_train.models", as_f64(ml.model_count()));

    let contexts: Vec<InstanceContext> = (0..netlist.instance_count())
        .map(|i| InstanceContext {
            slew_ps: 10.0 + as_f64(i % 40) * 3.0,
            load_ff: 0.8 + as_f64(i % 17) * 0.7,
            delta_t_k: as_f64(i % 29),
            delta_vth_v: 0.005 + as_f64(i % 11) * 0.004,
        })
        .collect();
    let t = Instant::now();
    let golden = tr.span("circuit.golden_instance_library", |_| {
        golden_instance_library(&sim, &lib, &netlist, &contexts, Celsius(65.0))
    });
    let golden_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let predicted = tr.span("circuit.ml_instance_library", |_| {
        ml.generate_instance_library(&netlist, &contexts)
            .expect("every used cell is trained")
    });
    let ml_s = t.elapsed().as_secs_f64();

    let (mut rel_err, mut n) = (0.0, 0.0);
    for (g, p) in golden.iter().zip(&predicted) {
        if g.delay_ps.is_finite() && g.delay_ps > 0.0 {
            rel_err += ((p.delay_ps - g.delay_ps) / g.delay_ps).abs();
            n += 1.0;
        }
    }
    let flow = tr.span("circuit.she_flow", |_| {
        run_she_flow(&sim, &lib, &netlist, &ml, &SheFlowConfig::default()).expect("flow")
    });

    let mut v = Values::default();
    v.set("instances", as_f64(netlist.instance_count()));
    v.set("models", as_f64(ml.model_count()));
    v.set("mean_abs_rel_err", rel_err / n);
    v.set("ml_speedup", golden_s / ml_s.max(1e-9));
    v.set("pessimism_reduction", flow.pessimism_reduction());
    v.set("nominal_max_arrival_ps", flow.nominal.max_arrival_ps);
    v.set("accurate_max_arrival_ps", flow.accurate.max_arrival_ps);
    v.set("worst_case_max_arrival_ps", flow.worst_case.max_arrival_ps);
    v
}
