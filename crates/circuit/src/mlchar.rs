//! ML-based on-the-fly cell characterization (paper refs \[9\]–\[12\]).
//!
//! The conventional flow characterizes each *library cell* once; the
//! SHE/aging-accurate flow needs each *instance* characterized under its own
//! context (slew, load, self-heating ΔT, aging ΔVth) — thousands of cells,
//! "practically infeasible" with SPICE (Sec. II). The fix: train fast ML
//! models on golden-model samples once per library cell, then generate the
//! instance-specific library with model inference in milliseconds.
//!
//! Features per sample: `(input slew, output load, ΔT, ΔVth)`; targets:
//! delay and output slew. Models: gradient-boosted regression trees from
//! `lori-ml`.

use crate::cell::{CellId, Library};
use crate::error::CircuitError;
use crate::spicelike::{GoldenSimulator, OperatingPoint};
use crate::sta::InstanceTiming;
use lori_core::units::{Celsius, Volts};
use lori_core::Rng;
use lori_ml::boost::{GradientBoostConfig, GradientBoostRegressor};
use lori_ml::data::Dataset;
use lori_ml::traits::Regressor;
use lori_par::Parallelism;
use std::collections::HashMap;

/// Training configuration for the ML characterizer.
#[derive(Debug, Clone, PartialEq)]
pub struct MlCharConfig {
    /// Golden-model samples drawn per library cell.
    pub samples_per_cell: usize,
    /// Boosting stages per model.
    pub stages: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Sampled slew range (ps).
    pub slew_range: (f64, f64),
    /// Sampled load range (fF).
    pub load_range: (f64, f64),
    /// Sampled self-heating range (K above chip temperature).
    pub delta_t_range: (f64, f64),
    /// Sampled aging range (V).
    pub delta_vth_range: (f64, f64),
    /// Chip (ambient die) temperature the ΔT adds onto.
    pub chip_temperature: Celsius,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MlCharConfig {
    fn default() -> Self {
        MlCharConfig {
            samples_per_cell: 220,
            stages: 80,
            max_depth: 4,
            slew_range: (5.0, 160.0),
            load_range: (0.5, 16.0),
            delta_t_range: (0.0, 45.0),
            delta_vth_range: (0.0, 0.08),
            chip_temperature: Celsius(65.0),
            seed: 0,
        }
    }
}

/// One cell's trained pair of models.
#[derive(Debug, Clone, PartialEq)]
struct CellModels {
    delay: GradientBoostRegressor,
    out_slew: GradientBoostRegressor,
}

/// A trained ML characterizer: per-cell models mapping operating context to
/// timing.
#[derive(Debug, Clone, PartialEq)]
pub struct MlCharacterizer {
    models: HashMap<usize, CellModels>,
    chip_temperature: Celsius,
}

impl MlCharacterizer {
    /// Trains models for every cell id in `cells` using golden-model
    /// samples, fanning cells out over the process-default worker pool
    /// ([`lori_par::global`]).
    ///
    /// Each cell draws its samples from an independent RNG sub-stream
    /// split off `config.seed` by cell id, so the trained models are
    /// identical for every worker count (and independent of the order the
    /// cell list is given in, beyond the serial split sequence). A cell
    /// draws all its samples first and characterizes them in one golden
    /// batch ([`GoldenSimulator::characterize_many`]); samples at which the
    /// cell cannot switch are dropped, in order.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::Training`] if model fitting fails or
    /// [`CircuitError::InvalidParameter`] for degenerate ranges: a NaN or
    /// infinite bound, `lo > hi`, or a negative lower bound of the slew or
    /// load range, which the golden engine would clamp silently.
    pub fn train(
        sim: &GoldenSimulator,
        lib: &Library,
        cells: &[CellId],
        config: &MlCharConfig,
    ) -> Result<Self, CircuitError> {
        Self::train_with(sim, lib, cells, config, lori_par::global())
    }

    /// [`MlCharacterizer::train`] with an explicit worker pool.
    ///
    /// # Errors
    ///
    /// Same as [`MlCharacterizer::train`].
    pub fn train_with(
        sim: &GoldenSimulator,
        lib: &Library,
        cells: &[CellId],
        config: &MlCharConfig,
        par: Parallelism,
    ) -> Result<Self, CircuitError> {
        if config.samples_per_cell < 8 {
            return Err(CircuitError::InvalidParameter {
                what: "samples_per_cell",
                value: 0.0,
            });
        }
        for (lo, hi) in [
            config.slew_range,
            config.load_range,
            config.delta_t_range,
            config.delta_vth_range,
        ] {
            let non_finite = [lo, hi].into_iter().find(|x| !x.is_finite());
            if non_finite.is_some() || lo > hi {
                return Err(CircuitError::InvalidParameter {
                    what: "sample range",
                    value: non_finite.unwrap_or(lo),
                });
            }
        }
        for lo in [config.slew_range.0, config.load_range.0] {
            if lo < 0.0 {
                return Err(CircuitError::InvalidParameter {
                    what: "sample range",
                    value: lo,
                });
            }
        }
        let gb_cfg = GradientBoostConfig {
            stages: config.stages,
            learning_rate: 0.1,
            max_depth: config.max_depth,
        };
        // Split one RNG sub-stream per cell serially, in list order,
        // before the fan-out: sample generation then depends only on a
        // cell's own stream, never on how many cells other workers have
        // already processed.
        let mut root = Rng::from_seed(config.seed);
        let tasks: Vec<(CellId, Rng)> = cells
            .iter()
            .map(|&cell_id| {
                #[allow(clippy::cast_possible_truncation)]
                let stream = root.split(cell_id.0 as u64);
                (cell_id, stream)
            })
            .collect();
        let _span = lori_obs::span("circuit.mlchar.train");
        let fitted = lori_par::par_map(par, &tasks, |_, (cell_id, cell_rng)| {
            let cell = lib.cell(*cell_id);
            let mut rng = cell_rng.clone();
            let samples: Vec<[f64; 4]> = (0..config.samples_per_cell)
                .map(|_| {
                    let slew = rng.uniform_in(
                        config.slew_range.0,
                        config.slew_range.1.max(config.slew_range.0 + 1e-9),
                    );
                    let load = rng.uniform_in(
                        config.load_range.0,
                        config.load_range.1.max(config.load_range.0 + 1e-9),
                    );
                    let dt = rng.uniform_in(
                        config.delta_t_range.0,
                        config.delta_t_range.1.max(config.delta_t_range.0 + 1e-9),
                    );
                    let dvth = rng.uniform_in(
                        config.delta_vth_range.0,
                        config
                            .delta_vth_range
                            .1
                            .max(config.delta_vth_range.0 + 1e-9),
                    );
                    [slew, load, dt, dvth]
                })
                .collect();
            let arcs: Vec<_> = samples
                .iter()
                .map(|&[slew, load, dt, dvth]| {
                    let op = OperatingPoint {
                        slew_ps: slew,
                        load_ff: load,
                        temperature: Celsius(config.chip_temperature.value() + dt),
                        delta_vth: Volts(dvth),
                    };
                    (cell.kind, cell.drive, op)
                })
                .collect();
            let timings = sim.characterize_many(&arcs);
            let mut xs = Vec::with_capacity(config.samples_per_cell);
            let mut delays = Vec::with_capacity(config.samples_per_cell);
            let mut slews = Vec::with_capacity(config.samples_per_cell);
            for (x, t) in samples.iter().zip(&timings) {
                if !t.delay_ps.is_finite() {
                    continue; // dead corner sample; skip
                }
                xs.push(x.to_vec());
                delays.push(t.delay_ps);
                slews.push(t.out_slew_ps);
            }
            check_targets(&delays, &slews)?;
            let delay_ds = Dataset::from_rows(xs.clone(), delays)
                .map_err(|e| CircuitError::Training(e.to_string()))?;
            let slew_ds =
                Dataset::from_rows(xs, slews).map_err(|e| CircuitError::Training(e.to_string()))?;
            let delay = GradientBoostRegressor::fit(&delay_ds, &gb_cfg)
                .map_err(|e| CircuitError::Training(e.to_string()))?;
            let out_slew = GradientBoostRegressor::fit(&slew_ds, &gb_cfg)
                .map_err(|e| CircuitError::Training(e.to_string()))?;
            Ok((cell_id.0, CellModels { delay, out_slew }))
        });
        // First error in cell-list order wins, matching the serial flow.
        let mut models = HashMap::new();
        for f in fitted {
            let (id, cell_models) = f?;
            models.insert(id, cell_models);
        }
        Ok(MlCharacterizer {
            models,
            chip_temperature: config.chip_temperature,
        })
    }

    /// Trains models only for the cells a netlist actually instantiates.
    ///
    /// # Errors
    ///
    /// Same as [`MlCharacterizer::train`].
    pub fn train_for_netlist(
        sim: &GoldenSimulator,
        lib: &Library,
        netlist: &crate::netlist::Netlist,
        config: &MlCharConfig,
    ) -> Result<Self, CircuitError> {
        Self::train_for_netlist_with(sim, lib, netlist, config, lori_par::global())
    }

    /// [`MlCharacterizer::train_for_netlist`] with an explicit worker pool.
    ///
    /// # Errors
    ///
    /// Same as [`MlCharacterizer::train`].
    pub fn train_for_netlist_with(
        sim: &GoldenSimulator,
        lib: &Library,
        netlist: &crate::netlist::Netlist,
        config: &MlCharConfig,
        par: Parallelism,
    ) -> Result<Self, CircuitError> {
        let mut used: Vec<CellId> = netlist.instances().iter().map(|i| i.cell).collect();
        used.sort_unstable();
        used.dedup();
        Self::train_with(sim, lib, &used, config, par)
    }

    /// Number of cells with trained models.
    #[must_use]
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// Predicts the timing of one cell in a context.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownCell`] if the cell was not trained.
    pub fn predict(
        &self,
        cell: CellId,
        slew_ps: f64,
        load_ff: f64,
        delta_t_k: f64,
        delta_vth_v: f64,
    ) -> Result<InstanceTiming, CircuitError> {
        let m = self
            .models
            .get(&cell.0)
            .ok_or_else(|| CircuitError::UnknownCell(format!("cell id {} untrained", cell.0)))?;
        let x = [slew_ps, load_ff, delta_t_k, delta_vth_v];
        Ok(InstanceTiming {
            delay_ps: m.delay.predict(&x).max(0.05),
            out_slew_ps: m.out_slew.predict(&x).max(0.05),
        })
    }

    /// The chip temperature the ΔT feature is relative to.
    #[must_use]
    pub fn chip_temperature(&self) -> Celsius {
        self.chip_temperature
    }

    /// Generates a full instance-specific "library": one timing per
    /// instance, given each instance's context.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownCell`] for untrained cells or a length
    /// mismatch via [`CircuitError::DanglingReference`].
    pub fn generate_instance_library(
        &self,
        netlist: &crate::netlist::Netlist,
        contexts: &[InstanceContext],
    ) -> Result<Vec<InstanceTiming>, CircuitError> {
        if contexts.len() != netlist.instance_count() {
            return Err(CircuitError::DanglingReference {
                what: "instance context",
                index: contexts.len(),
            });
        }
        netlist
            .instances()
            .iter()
            .zip(contexts)
            .map(|(inst, ctx)| {
                self.predict(
                    inst.cell,
                    ctx.slew_ps,
                    ctx.load_ff,
                    ctx.delta_t_k,
                    ctx.delta_vth_v,
                )
            })
            .collect()
    }
}

/// The `circuit.mlchar` guard: refuses to fit a cell's models on a
/// non-finite golden delay or output-slew target.
fn check_targets(delays: &[f64], slews: &[f64]) -> Result<(), CircuitError> {
    if delays.iter().chain(slews).any(|v| !v.is_finite()) {
        lori_obs::counter("fault.detected").incr(1);
        return Err(CircuitError::NonFinite {
            site: "circuit.mlchar",
            what: "training target",
        });
    }
    Ok(())
}

/// The per-instance operating context an instance-specific library is built
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InstanceContext {
    /// Input slew at the instance (ps).
    pub slew_ps: f64,
    /// Output load (fF).
    pub load_ff: f64,
    /// Self-heating above chip temperature (K).
    pub delta_t_k: f64,
    /// Aging shift (V).
    pub delta_vth_v: f64,
}

/// Golden (slow-path) instance library generation, for validating the ML
/// path and for measuring the speedup of E2: every instance's arc in one
/// golden batch, on the calling thread.
#[must_use]
pub fn golden_instance_library(
    sim: &GoldenSimulator,
    lib: &Library,
    netlist: &crate::netlist::Netlist,
    contexts: &[InstanceContext],
    chip_temperature: Celsius,
) -> Vec<InstanceTiming> {
    let arcs: Vec<_> = netlist
        .instances()
        .iter()
        .zip(contexts)
        .map(|(inst, ctx)| {
            let cell = lib.cell(inst.cell);
            let op = OperatingPoint {
                slew_ps: ctx.slew_ps,
                load_ff: ctx.load_ff,
                temperature: Celsius(chip_temperature.value() + ctx.delta_t_k),
                delta_vth: Volts(ctx.delta_vth_v),
            };
            (cell.kind, cell.drive, op)
        })
        .collect();
    sim.characterize_many(&arcs)
        .into_iter()
        .map(|t| InstanceTiming {
            delay_ps: t.delay_ps,
            out_slew_ps: t.out_slew_ps,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::default_library;
    use crate::netlist::ripple_carry_adder;
    use crate::tech::TechParams;
    use std::sync::OnceLock;

    fn setup() -> (&'static GoldenSimulator, &'static Library) {
        static SIM: OnceLock<GoldenSimulator> = OnceLock::new();
        let sim = SIM.get_or_init(|| GoldenSimulator::new(TechParams::default()).unwrap());
        (sim, default_library())
    }

    fn small_config() -> MlCharConfig {
        MlCharConfig {
            samples_per_cell: 100,
            stages: 60,
            ..MlCharConfig::default()
        }
    }

    #[test]
    fn ml_models_match_golden_within_tolerance() {
        let (sim, lib) = setup();
        let inv = lib.find("INV_X1").unwrap();
        let ml = MlCharacterizer::train(sim, lib, &[inv], &small_config()).unwrap();
        let mut rng = Rng::from_seed(77);
        let mut rel_err_sum = 0.0;
        let n = 40;
        for _ in 0..n {
            let slew = rng.uniform_in(10.0, 150.0);
            let load = rng.uniform_in(1.0, 15.0);
            let dt = rng.uniform_in(0.0, 40.0);
            let dvth = rng.uniform_in(0.0, 0.07);
            let pred = ml.predict(inv, slew, load, dt, dvth).unwrap();
            let gold = sim.characterize(
                lib.cell(inv).kind,
                lib.cell(inv).drive,
                &OperatingPoint {
                    slew_ps: slew,
                    load_ff: load,
                    temperature: Celsius(65.0 + dt),
                    delta_vth: Volts(dvth),
                },
            );
            rel_err_sum += ((pred.delay_ps - gold.delay_ps) / gold.delay_ps).abs();
        }
        let mean_rel_err = rel_err_sum / f64::from(n);
        assert!(mean_rel_err < 0.10, "mean relative error {mean_rel_err}");
    }

    #[test]
    fn train_for_netlist_covers_used_cells_only() {
        let (sim, lib) = setup();
        let nl = ripple_carry_adder(lib, 4).unwrap();
        let ml = MlCharacterizer::train_for_netlist(sim, lib, &nl, &small_config()).unwrap();
        // RCA uses XOR2, MAJ3, AND2 at one drive each → few models, not 60.
        assert!(ml.model_count() >= 2 && ml.model_count() < 10);
    }

    #[test]
    fn untrained_cell_rejected() {
        let (sim, lib) = setup();
        let inv = lib.find("INV_X1").unwrap();
        let nand = lib.find("NAND2_X1").unwrap();
        let ml = MlCharacterizer::train(sim, lib, &[inv], &small_config()).unwrap();
        assert!(ml.predict(nand, 20.0, 4.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn instance_library_generation() {
        let (sim, lib) = setup();
        let nl = ripple_carry_adder(lib, 4).unwrap();
        let ml = MlCharacterizer::train_for_netlist(sim, lib, &nl, &small_config()).unwrap();
        let contexts: Vec<InstanceContext> = (0..nl.instance_count())
            .map(|i| InstanceContext {
                slew_ps: 20.0 + i as f64,
                load_ff: 2.0,
                delta_t_k: 5.0,
                delta_vth_v: 0.01,
            })
            .collect();
        let timings = ml.generate_instance_library(&nl, &contexts).unwrap();
        assert_eq!(timings.len(), nl.instance_count());
        assert!(timings
            .iter()
            .all(|t| t.delay_ps > 0.0 && t.out_slew_ps > 0.0));
        // Length mismatch rejected.
        assert!(ml.generate_instance_library(&nl, &contexts[1..]).is_err());
    }

    #[test]
    fn parallel_train_bit_identical_to_serial() {
        let (sim, lib) = setup();
        let nl = ripple_carry_adder(lib, 4).unwrap();
        let cfg = small_config();
        let serial =
            MlCharacterizer::train_for_netlist_with(sim, lib, &nl, &cfg, Parallelism::serial())
                .unwrap();
        let parallel =
            MlCharacterizer::train_for_netlist_with(sim, lib, &nl, &cfg, Parallelism::new(4))
                .unwrap();
        // Full-struct equality: every trained tree in every per-cell model
        // must match exactly, not just predictions.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn config_validation() {
        let (sim, lib) = setup();
        let inv = lib.find("INV_X1").unwrap();
        let bad = MlCharConfig {
            samples_per_cell: 2,
            ..MlCharConfig::default()
        };
        assert!(MlCharacterizer::train(sim, lib, &[inv], &bad).is_err());
        let bad_range = MlCharConfig {
            slew_range: (100.0, 10.0),
            ..small_config()
        };
        assert!(MlCharacterizer::train(sim, lib, &[inv], &bad_range).is_err());
    }

    /// Training with `range` written into one sample-range field of the
    /// config must fail before any golden call, naming the bad bound.
    fn assert_range_rejected(set: fn(&mut MlCharConfig, (f64, f64))) {
        let (sim, lib) = setup();
        let inv = lib.find("INV_X1").unwrap();
        for (range, bad) in [
            ((5.0, f64::INFINITY), f64::INFINITY),
            ((f64::NEG_INFINITY, 5.0), f64::NEG_INFINITY),
            ((f64::NEG_INFINITY, f64::INFINITY), f64::NEG_INFINITY),
        ] {
            let mut config = small_config();
            set(&mut config, range);
            assert_eq!(
                MlCharacterizer::train(sim, lib, &[inv], &config),
                Err(CircuitError::InvalidParameter {
                    what: "sample range",
                    value: bad,
                }),
                "{range:?}"
            );
        }
    }

    #[test]
    fn infinite_slew_range_is_rejected() {
        assert_range_rejected(|c, r| c.slew_range = r);
    }

    #[test]
    fn infinite_load_range_is_rejected() {
        assert_range_rejected(|c, r| c.load_range = r);
    }

    #[test]
    fn infinite_delta_t_range_is_rejected() {
        assert_range_rejected(|c, r| c.delta_t_range = r);
    }

    #[test]
    fn infinite_delta_vth_range_is_rejected() {
        assert_range_rejected(|c, r| c.delta_vth_range = r);
    }

    #[test]
    fn negative_slew_or_load_lower_bound_is_rejected() {
        let (sim, lib) = setup();
        let inv = lib.find("INV_X1").unwrap();
        let slew: fn(&mut MlCharConfig, (f64, f64)) = |c, r| c.slew_range = r;
        let load: fn(&mut MlCharConfig, (f64, f64)) = |c, r| c.load_range = r;
        for set in [slew, load] {
            for (range, bad) in [((-3.0, 16.0), -3.0), ((-1e-9, -1e-9), -1e-9)] {
                let mut config = small_config();
                set(&mut config, range);
                assert_eq!(
                    MlCharacterizer::train(sim, lib, &[inv], &config),
                    Err(CircuitError::InvalidParameter {
                        what: "sample range",
                        value: bad,
                    }),
                    "{range:?}"
                );
            }
            // A zero lower bound is a range, and trains.
            let mut config = small_config();
            set(&mut config, (0.0, 16.0));
            assert!(MlCharacterizer::train(sim, lib, &[inv], &config).is_ok());
        }
        // ΔT and ΔVth may fall below zero: cooler than the chip, or recovered.
        let config = MlCharConfig {
            delta_t_range: (-5.0, 45.0),
            delta_vth_range: (-0.01, 0.08),
            ..small_config()
        };
        assert!(MlCharacterizer::train(sim, lib, &[inv], &config).is_ok());
    }

    #[test]
    fn non_finite_training_target_is_a_typed_error() {
        let finite = [10.0, 12.5, 9.0];
        assert_eq!(check_targets(&finite, &finite), Ok(()));
        let expected = Err(CircuitError::NonFinite {
            site: "circuit.mlchar",
            what: "training target",
        });
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in 0..finite.len() {
                let mut poisoned = finite;
                poisoned[at] = bad;
                assert_eq!(check_targets(&poisoned, &finite), expected, "delay {bad}");
                assert_eq!(check_targets(&finite, &poisoned), expected, "slew {bad}");
            }
        }
    }
}
