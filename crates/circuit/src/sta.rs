//! Static timing analysis.
//!
//! A single-corner, max-delay STA: topological arrival-time and slew
//! propagation over the netlist, NLDM lookups per instance, per-net loads
//! from sink pin capacitances plus a simple wire model, critical-path
//! extraction, and SDF-style export.
//!
//! Three run modes:
//!
//! - [`run_sta`] — library lookup per instance (conventional flow);
//! - [`run_sta_with_overrides`] — per-instance delay/slew values, which is
//!   how instance-specific "libraries of thousands of cells" (Fig. 3, lower
//!   path) plug in without string lookups on the hot path;
//! - [`StaEngine`] — the incremental engine both wrappers are built on: it
//!   keeps arrival/slew/load state alive between runs and, on edit,
//!   re-times only the affected fanout cone via a topo-ordered worklist
//!   with exact-equality early termination. Every report it produces is
//!   bit-identical to a from-scratch pass — determinism is the contract,
//!   checked by the randomized edit-schedule suite and by the SHE flow's
//!   four-full-pass oracle test.

use crate::cell::{CellId, Library};
use crate::error::CircuitError;
use crate::netlist::{Driver, InstId, NetId, Netlist, NetlistEdit};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
    /// Required clock period for this circuit with the given setup margin.
    #[must_use]
    pub fn min_period_ps(&self, setup_margin_ps: f64) -> f64 {
        self.max_arrival_ps + setup_margin_ps
    }

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
/// then the primary-output load once per marking. The accumulation order
/// matches the legacy whole-netlist scan exactly, so full and incremental
/// load computations agree to the last bit.
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
/// A thin wrapper over [`StaEngine::new`]: one engine build, one report.
///
/// # Errors
///
/// Propagates netlist validation and topological-order errors.
pub fn run_sta(
    netlist: &Netlist,
    lib: &Library,
    config: &StaConfig,
) -> Result<StaReport, CircuitError> {
    Ok(StaEngine::new(netlist, lib, config)?.into_report())
}

/// Runs a full STA pass with per-instance timing overrides (one entry per
/// instance). A thin wrapper over [`StaEngine::with_overrides`].
///
/// # Errors
///
/// Returns [`CircuitError::DanglingReference`] if `overrides.len()` differs
/// from the instance count, plus the usual validation errors.
pub fn run_sta_with_overrides(
    netlist: &Netlist,
    lib: &Library,
    config: &StaConfig,
    overrides: &[InstanceTiming],
) -> Result<StaReport, CircuitError> {
    Ok(StaEngine::with_overrides(netlist, lib, config, overrides)?.into_report())
}

/// The values one instance evaluation produces.
struct InstEval {
    worst_in: usize,
    in_slew: f64,
    delay: f64,
    out_slew: f64,
}

/// Evaluates one instance against the current arrival/slew/load state.
/// This is THE timing formula: the full pass and the incremental retime
/// both call it, which is what makes their results bit-identical.
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
    // Layer-boundary NaN guard: a corrupted library read (real, or an
    // injected nan@circuit.lut) must surface as a typed error here,
    // not silently propagate NaN arrivals into timing reports.
    if !delay.is_finite() || !out_slew.is_finite() {
        lori_fault::detected("circuit.lut");
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

/// Incremental static-timing engine.
///
/// One full pass at construction ([`StaEngine::new`] /
/// [`StaEngine::with_overrides`]) establishes per-net arrival/slew, per-net
/// loads, per-instance delay/slew-in/load, and the critical path. After
/// that, edits re-time only the affected fanout cone:
///
/// - [`StaEngine::set_timing`] / [`StaEngine::clear_timing`] /
///   [`StaEngine::set_all_timings`] change per-instance overrides (the
///   Fig.-3 instance-specific-library path) and seed the edited instances;
/// - [`StaEngine::swap_cell`] rebinds a cell, recomputes the loads of its
///   input nets from the CSR index, and seeds their drivers;
/// - [`StaEngine::refresh`] drains the netlist's timing-only dirty-set.
///
/// Seeded instances propagate through a worklist ordered by cached
/// topological position; propagation stops at any net whose (arrival,
/// slew) recompute to bit-identical values, which keeps single-edit cones
/// small. Every quantity is recomputed with exactly the full-pass formula
/// ([`eval_instance`], [`net_load`]), so [`StaEngine::report`] is always
/// bit-identical to a from-scratch pass over the same netlist state.
///
/// The engine detects staleness: structural netlist edits (tracked by
/// [`Netlist::generation`]) and failed edits (a non-finite override caught
/// mid-retime) poison it, and every subsequent call returns
/// [`CircuitError::StaleEngine`] until it is rebuilt.
#[derive(Debug, Clone)]
pub struct StaEngine {
    config: StaConfig,
    generation: u64,
    // Per-net state.
    loads: Vec<f64>,
    arrival: Vec<f64>,
    slew: Vec<f64>,
    from_net: Vec<Option<usize>>,
    // Per-instance state.
    inst_delay: Vec<f64>,
    inst_slew_in: Vec<f64>,
    inst_load: Vec<f64>,
    overrides: Vec<Option<InstanceTiming>>,
    // Endpoint state.
    max_arrival: f64,
    critical_path: Vec<InstId>,
    // Worklist scratch, persisted across retimes to avoid reallocation.
    queued: Vec<bool>,
    heap: BinaryHeap<Reverse<(u32, usize)>>,
    // Lifetime instance-evaluation counter (full pass + retimes).
    evals: u64,
    poisoned: bool,
}

impl StaEngine {
    /// Builds an engine with library timing for every instance (one full
    /// STA pass).
    ///
    /// # Errors
    ///
    /// Propagates netlist validation and topological-order errors.
    pub fn new(
        netlist: &Netlist,
        lib: &Library,
        config: &StaConfig,
    ) -> Result<StaEngine, CircuitError> {
        Self::build(netlist, lib, config, &|_| None)
    }

    /// Builds an engine with a dense per-instance override set (one full
    /// STA pass) — the from-scratch reference for
    /// [`run_sta_with_overrides`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DanglingReference`] on a length mismatch,
    /// plus the usual validation errors.
    pub fn with_overrides(
        netlist: &Netlist,
        lib: &Library,
        config: &StaConfig,
        overrides: &[InstanceTiming],
    ) -> Result<StaEngine, CircuitError> {
        if overrides.len() != netlist.instance_count() {
            return Err(CircuitError::DanglingReference {
                what: "override",
                index: overrides.len(),
            });
        }
        Self::build(netlist, lib, config, &|i| Some(overrides[i]))
    }

    /// Builds an engine with a sparse override set (one full STA pass):
    /// `None` entries use library timing. This is the from-scratch
    /// reference the equivalence tests compare incremental state against.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DanglingReference`] on a length mismatch,
    /// plus the usual validation errors.
    pub fn with_sparse_overrides(
        netlist: &Netlist,
        lib: &Library,
        config: &StaConfig,
        overrides: &[Option<InstanceTiming>],
    ) -> Result<StaEngine, CircuitError> {
        if overrides.len() != netlist.instance_count() {
            return Err(CircuitError::DanglingReference {
                what: "override",
                index: overrides.len(),
            });
        }
        Self::build(netlist, lib, config, &|i| overrides[i])
    }

    fn build(
        netlist: &Netlist,
        lib: &Library,
        config: &StaConfig,
        override_of: &dyn Fn(usize) -> Option<InstanceTiming>,
    ) -> Result<StaEngine, CircuitError> {
        let _span = lori_obs::span("circuit.sta.run");
        netlist.validate_cached(lib)?;
        let index = netlist.index();
        let loads = net_loads(netlist, lib, config);

        let n_nets = netlist.net_count();
        let mut arrival = vec![0.0f64; n_nets];
        let mut slew = vec![config.input_slew_ps; n_nets];
        // Which net determined each net's arrival (for path walking).
        let mut from_net: Vec<Option<usize>> = vec![None; n_nets];

        let n_inst = netlist.instance_count();
        let mut inst_delay = vec![0.0f64; n_inst];
        let mut inst_slew_in = vec![0.0f64; n_inst];
        let mut inst_load = vec![0.0f64; n_inst];
        let mut overrides = vec![None; n_inst];

        for &inst_id in index.topo()? {
            let i = inst_id.0;
            let out = netlist.instances()[i].output.0;
            let load = loads[out];
            overrides[i] = override_of(i);
            let e = eval_instance(netlist, lib, &arrival, &slew, load, overrides[i], inst_id)?;
            inst_delay[i] = e.delay;
            inst_slew_in[i] = e.in_slew;
            inst_load[i] = load;
            arrival[out] = arrival[e.worst_in] + e.delay;
            slew[out] = e.out_slew;
            from_net[out] = Some(e.worst_in);
        }
        lori_obs::counter("circuit.sta.instances").incr(n_inst as u64);

        let mut engine = StaEngine {
            config: config.clone(),
            generation: netlist.generation(),
            loads,
            arrival,
            slew,
            from_net,
            inst_delay,
            inst_slew_in,
            inst_load,
            overrides,
            max_arrival: 0.0,
            critical_path: Vec::new(),
            queued: vec![false; n_inst],
            heap: BinaryHeap::new(),
            evals: n_inst as u64,
            poisoned: false,
        };
        engine.update_endpoint(netlist);
        Ok(engine)
    }

    /// Recomputes the critical endpoint and path from current arrivals —
    /// exactly the legacy full-pass selection: the latest primary output,
    /// falling back to the global max for netlists without marked outputs.
    fn update_endpoint(&mut self, netlist: &Netlist) {
        let arrival = &self.arrival;
        let endpoint = netlist
            .primary_outputs()
            .iter()
            .map(|n| n.0)
            .max_by(|&a, &b| arrival[a].total_cmp(&arrival[b]))
            .or_else(|| (0..arrival.len()).max_by(|&a, &b| arrival[a].total_cmp(&arrival[b])));
        match endpoint {
            Some(end) => {
                let mut path = Vec::new();
                let mut cursor = Some(end);
                while let Some(net) = cursor {
                    if let Some(Driver::Instance(inst)) = netlist.driver(NetId(net)) {
                        path.push(inst);
                    }
                    cursor = self.from_net[net];
                }
                path.reverse();
                self.max_arrival = arrival[end];
                self.critical_path = path;
            }
            None => {
                self.max_arrival = 0.0;
                self.critical_path = Vec::new();
            }
        }
    }

    /// Guards every edit entry point: a poisoned engine or a structurally
    /// changed netlist can only mislead.
    fn check_live(&self, netlist: &Netlist) -> Result<(), CircuitError> {
        if self.poisoned {
            return Err(CircuitError::StaleEngine("a previous edit failed"));
        }
        if netlist.generation() != self.generation {
            return Err(CircuitError::StaleEngine("netlist structure changed"));
        }
        Ok(())
    }

    fn check_instance(&self, inst: InstId) -> Result<(), CircuitError> {
        if inst.0 >= self.inst_delay.len() {
            return Err(CircuitError::DanglingReference {
                what: "instance",
                index: inst.0,
            });
        }
        Ok(())
    }

    fn seed(&mut self, netlist: &Netlist, inst: InstId) {
        if !self.queued[inst.0] {
            self.queued[inst.0] = true;
            self.heap
                .push(Reverse((netlist.index().topo_pos(inst), inst.0)));
        }
    }

    /// Processes the worklist in topological order, stopping propagation
    /// at bit-identical (arrival, slew) recomputes, then refreshes the
    /// endpoint. On error the engine is poisoned.
    fn retime(&mut self, netlist: &Netlist, lib: &Library) -> Result<(), CircuitError> {
        let _span = lori_obs::span("circuit.sta.retime");
        let mut evals = 0u64;
        while let Some(Reverse((_, i))) = self.heap.pop() {
            self.queued[i] = false;
            let inst_id = InstId(i);
            let out = netlist.instances()[i].output.0;
            let load = self.loads[out];
            let e = match eval_instance(
                netlist,
                lib,
                &self.arrival,
                &self.slew,
                load,
                self.overrides[i],
                inst_id,
            ) {
                Ok(e) => e,
                Err(err) => {
                    // Arrivals downstream of already-applied updates are
                    // now inconsistent; refuse all further use.
                    self.poisoned = true;
                    self.heap.clear();
                    self.queued.fill(false);
                    return Err(err);
                }
            };
            evals += 1;
            self.inst_delay[i] = e.delay;
            self.inst_slew_in[i] = e.in_slew;
            self.inst_load[i] = load;

            let new_arrival = self.arrival[e.worst_in] + e.delay;
            let changed = self.arrival[out].to_bits() != new_arrival.to_bits()
                || self.slew[out].to_bits() != e.out_slew.to_bits();
            self.arrival[out] = new_arrival;
            self.slew[out] = e.out_slew;
            // from_net may move on arrival ties without changing any
            // downstream number; updating it in place keeps path walks
            // identical to a from-scratch pass.
            self.from_net[out] = Some(e.worst_in);
            if changed {
                let index = netlist.index();
                let mut last = usize::MAX;
                for &sink in index.sink_pins(NetId(out)) {
                    if sink.0 != last {
                        last = sink.0;
                        self.seed(netlist, sink);
                    }
                }
            }
        }
        self.evals += evals;
        lori_obs::counter("circuit.sta.retimed").incr(evals);
        self.update_endpoint(netlist);
        Ok(())
    }

    /// Sets one instance's timing override and re-times its cone.
    ///
    /// # Errors
    ///
    /// [`CircuitError::StaleEngine`] on a poisoned/outdated engine,
    /// [`CircuitError::DanglingReference`] for a bad id,
    /// [`CircuitError::NonFinite`] for a non-finite override (which also
    /// poisons the engine).
    pub fn set_timing(
        &mut self,
        netlist: &Netlist,
        lib: &Library,
        inst: InstId,
        timing: InstanceTiming,
    ) -> Result<(), CircuitError> {
        self.check_live(netlist)?;
        self.check_instance(inst)?;
        self.overrides[inst.0] = Some(timing);
        self.seed(netlist, inst);
        self.retime(netlist, lib)
    }

    /// Removes one instance's override (back to library timing) and
    /// re-times its cone.
    ///
    /// # Errors
    ///
    /// Same as [`StaEngine::set_timing`].
    pub fn clear_timing(
        &mut self,
        netlist: &Netlist,
        lib: &Library,
        inst: InstId,
    ) -> Result<(), CircuitError> {
        self.check_live(netlist)?;
        self.check_instance(inst)?;
        self.overrides[inst.0] = None;
        self.seed(netlist, inst);
        self.retime(netlist, lib)
    }

    /// Replaces the whole override set (one entry per instance), seeding
    /// only the instances whose override actually changed — the engine
    /// path `flow::run_she_flow` uses between its accurate and worst-case
    /// corners.
    ///
    /// # Errors
    ///
    /// Same as [`StaEngine::set_timing`], plus
    /// [`CircuitError::DanglingReference`] on a length mismatch.
    pub fn set_all_timings(
        &mut self,
        netlist: &Netlist,
        lib: &Library,
        overrides: &[InstanceTiming],
    ) -> Result<(), CircuitError> {
        self.check_live(netlist)?;
        if overrides.len() != self.overrides.len() {
            return Err(CircuitError::DanglingReference {
                what: "override",
                index: overrides.len(),
            });
        }
        // Bitwise comparison, not `==`: skipping a -0.0 -> 0.0 change
        // could leave a last-bit difference against a from-scratch pass.
        let same = |a: Option<InstanceTiming>, b: InstanceTiming| {
            a.is_some_and(|a| {
                a.delay_ps.to_bits() == b.delay_ps.to_bits()
                    && a.out_slew_ps.to_bits() == b.out_slew_ps.to_bits()
            })
        };
        for (i, &t) in overrides.iter().enumerate() {
            if !same(self.overrides[i], t) {
                self.overrides[i] = Some(t);
                self.seed(netlist, InstId(i));
            }
        }
        self.retime(netlist, lib)
    }

    /// Applies a cell swap/resize through the netlist's edit API and
    /// re-times: the loads of the instance's input nets are recomputed
    /// from the CSR index and their drivers re-timed along with the
    /// instance itself.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownCell`] if the new cell's arity differs (the
    /// netlist is left unmodified), plus the [`StaEngine::set_timing`]
    /// errors.
    pub fn swap_cell(
        &mut self,
        netlist: &mut Netlist,
        lib: &Library,
        inst: InstId,
        cell: CellId,
    ) -> Result<(), CircuitError> {
        self.check_live(netlist)?;
        self.check_instance(inst)?;
        if cell.0 >= lib.len() {
            return Err(CircuitError::DanglingReference {
                what: "cell",
                index: cell.0,
            });
        }
        let arity = netlist.instances()[inst.0].inputs.len();
        let kind = lib.cell(cell).kind;
        if arity != kind.input_count() {
            return Err(CircuitError::UnknownCell(format!(
                "swap to {} needs {} inputs, instance has {}",
                lib.cell(cell).name,
                kind.input_count(),
                arity
            )));
        }
        netlist.swap_cell(inst, cell)?;
        self.refresh(netlist, lib)
    }

    /// Drains the netlist's timing-only dirty-set and re-times the
    /// affected cones. Cell edits move the loads of the instance's input
    /// nets, so those nets' drivers are seeded too; activity edits are
    /// absorbed without any re-timing (activity never enters STA).
    ///
    /// # Errors
    ///
    /// [`CircuitError::StaleEngine`] on a poisoned/outdated engine,
    /// [`CircuitError::UnknownCell`] if a swapped cell's arity no longer
    /// matches (poisons the engine — the netlist already changed),
    /// [`CircuitError::NonFinite`] for non-finite timing (also poisons).
    pub fn refresh(&mut self, netlist: &mut Netlist, lib: &Library) -> Result<(), CircuitError> {
        self.check_live(netlist)?;
        let edits = netlist.take_dirty();
        for edit in edits {
            match edit {
                NetlistEdit::Cell(inst) => self.apply_cell_edit(netlist, lib, inst)?,
                NetlistEdit::Activity(_) => {}
            }
        }
        self.retime(netlist, lib)
    }

    fn apply_cell_edit(
        &mut self,
        netlist: &Netlist,
        lib: &Library,
        inst: InstId,
    ) -> Result<(), CircuitError> {
        self.check_instance(inst)?;
        let instance = &netlist.instances()[inst.0];
        if instance.cell.0 >= lib.len() {
            self.poisoned = true;
            return Err(CircuitError::DanglingReference {
                what: "cell",
                index: instance.cell.0,
            });
        }
        let kind = lib.cell(instance.cell).kind;
        if instance.inputs.len() != kind.input_count() {
            // The netlist was already mutated into an invalid state; the
            // engine can no longer trust its cached timing.
            self.poisoned = true;
            return Err(CircuitError::UnknownCell(format!(
                "instance of {} has {} inputs, expected {}",
                lib.cell(instance.cell).name,
                instance.inputs.len(),
                kind.input_count()
            )));
        }
        // New pin caps move the loads of the nets this instance taps;
        // each such net's driver sees a different load and must re-time.
        // Input lists are tiny (<= 3 pins), so the duplicate-net dedup is
        // a linear scan.
        for (p, &net) in instance.inputs.iter().enumerate() {
            if instance.inputs[..p].contains(&net) {
                continue;
            }
            let new_load = net_load(netlist, lib, &self.config, net);
            if self.loads[net.0].to_bits() != new_load.to_bits() {
                self.loads[net.0] = new_load;
                if let Some(Driver::Instance(driver)) = netlist.driver(net) {
                    self.seed(netlist, driver);
                }
            }
        }
        // And the instance itself: its timing surfaces changed.
        self.seed(netlist, inst);
        Ok(())
    }

    /// The current longest-path arrival over all primary outputs (ps).
    #[must_use]
    pub fn max_arrival_ps(&self) -> f64 {
        self.max_arrival
    }

    /// The current critical path, source to sink.
    #[must_use]
    pub fn critical_path(&self) -> &[InstId] {
        &self.critical_path
    }

    /// Lifetime count of instance evaluations (full pass + every retime).
    /// The incremental win is this number staying near the edit count
    /// instead of `edits x instance_count`.
    #[must_use]
    pub fn instance_evals(&self) -> u64 {
        self.evals
    }

    /// Materializes the current timing state as a report, bit-identical
    /// to a from-scratch pass over the same netlist state.
    #[must_use]
    pub fn report(&self) -> StaReport {
        StaReport {
            arrival_ps: self.arrival.clone(),
            slew_ps: self.slew.clone(),
            instance_delay_ps: self.inst_delay.clone(),
            instance_input_slew_ps: self.inst_slew_in.clone(),
            instance_load_ff: self.inst_load.clone(),
            max_arrival_ps: self.max_arrival,
            critical_path: self.critical_path.clone(),
        }
    }

    /// Consumes the engine into a report without copying the state.
    #[must_use]
    pub fn into_report(self) -> StaReport {
        StaReport {
            arrival_ps: self.arrival,
            slew_ps: self.slew,
            instance_delay_ps: self.inst_delay,
            instance_input_slew_ps: self.inst_slew_in,
            instance_load_ff: self.inst_load,
            max_arrival_ps: self.max_arrival,
            critical_path: self.critical_path,
        }
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
    use crate::characterize::{characterize_library, Corner};
    use crate::netlist::{random_logic, ripple_carry_adder};
    use crate::spicelike::GoldenSimulator;
    use crate::tech::TechParams;
    use lori_core::units::Volts;
    use std::sync::OnceLock;

    fn lib() -> &'static Library {
        static LIB: OnceLock<Library> = OnceLock::new();
        LIB.get_or_init(|| {
            let sim = GoldenSimulator::new(TechParams::default()).unwrap();
            characterize_library(&sim, &Corner::default()).unwrap()
        })
    }

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
        let nl = random_logic(lib(), 12, 300, 9).unwrap();
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
    fn min_period_adds_margin() {
        let nl = ripple_carry_adder(lib(), 4).unwrap();
        let report = run_sta(&nl, lib(), &StaConfig::default()).unwrap();
        assert!((report.min_period_ps(50.0) - report.max_arrival_ps - 50.0).abs() < 1e-12);
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
