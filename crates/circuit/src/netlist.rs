//! Gate-level netlists and circuit generators.
//!
//! A [`Netlist`] is a DAG of single-output cell instances over nets, with
//! primary inputs/outputs. Two generators produce the designs the
//! experiments and tests run on: a ripple-carry adder, and a composite
//! "processor datapath" (adder, logic unit, multiplier array, random control
//! logic and buffer trees) standing in for the paper's RISC-V core case
//! study (Fig. 2).
//!
//! The netlist carries an indexed graph core (the private `NetlistIndex`): a
//! CSR-style sink index per net, primary-output multiplicities, and the
//! cached topological order. The index is built once on first use, and
//! every edit (adding nets, gates, or outputs) drops it.

use crate::cell::{CellId, CellKind, Library};
use crate::error::CircuitError;
use lori_core::Rng;
use std::sync::OnceLock;

/// Index of a net within a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

/// Index of an instance within a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub usize);

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The net is a primary input.
    PrimaryInput,
    /// The net is driven by an instance's output.
    Instance(InstId),
}

/// A cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// The library cell this instance implements.
    pub cell: CellId,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
    /// Switching activity (transitions per cycle) for power/SHE/aging.
    pub activity: f64,
}

/// The indexed graph core of a netlist: CSR sink index, primary-output
/// multiplicities, and the cached topological order. Built lazily, shared
/// by `fanout`, `evaluate`, and the STA pass; dropped on any edit.
#[derive(Debug, Clone)]
pub(crate) struct NetlistIndex {
    /// CSR offsets into `sink_pins`, one slice per net (`net_count + 1`).
    sink_offsets: Vec<u32>,
    /// One entry per (instance, input pin) consuming the net, grouped by
    /// net in (instance, pin) order — the exact order the legacy
    /// `net_loads` scan visited them, which keeps float sums identical.
    sink_pins: Vec<InstId>,
    /// How many times each net appears in the primary-output list.
    po_count: Vec<u32>,
    /// Topological order of instances, or the cycle error.
    topo: Result<Vec<InstId>, CircuitError>,
}

impl NetlistIndex {
    /// Per-pin sinks of a net, in (instance, pin) order. Out-of-range nets
    /// have no sinks.
    pub(crate) fn sink_pins(&self, net: NetId) -> &[InstId] {
        if net.0 + 1 >= self.sink_offsets.len() {
            return &[];
        }
        let lo = self.sink_offsets[net.0] as usize;
        let hi = self.sink_offsets[net.0 + 1] as usize;
        &self.sink_pins[lo..hi]
    }

    /// Number of times the net is marked as a primary output.
    pub(crate) fn po_count(&self, net: NetId) -> u32 {
        self.po_count.get(net.0).copied().unwrap_or(0)
    }

    /// The cached topological order.
    pub(crate) fn topo(&self) -> Result<&[InstId], CircuitError> {
        match &self.topo {
            Ok(order) => Ok(order),
            Err(err) => Err(err.clone()),
        }
    }
}

/// A gate-level netlist.
#[derive(Debug, Default, Clone)]
pub struct Netlist {
    drivers: Vec<Option<Driver>>,
    instances: Vec<Instance>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    /// Lazily built graph index; dropped on every edit.
    index: OnceLock<NetlistIndex>,
}

impl Netlist {
    /// An empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Adds a primary input net.
    pub fn add_input(&mut self) -> NetId {
        self.index.take();
        let id = NetId(self.drivers.len());
        self.drivers.push(Some(Driver::PrimaryInput));
        self.primary_inputs.push(id);
        id
    }

    /// Adds an instance of `cell` driven by `inputs`, returning its output
    /// net. `activity` defaults to 0.15 via [`Netlist::add_gate`].
    pub fn add_gate_with_activity(
        &mut self,
        cell: CellId,
        inputs: &[NetId],
        activity: f64,
    ) -> NetId {
        self.index.take();
        let out = NetId(self.drivers.len());
        self.drivers.push(None);
        let inst = InstId(self.instances.len());
        self.instances.push(Instance {
            cell,
            inputs: inputs.to_vec(),
            output: out,
            activity: activity.clamp(0.0, 1.0),
        });
        self.drivers[out.0] = Some(Driver::Instance(inst));
        out
    }

    /// Adds an instance with the default switching activity.
    pub fn add_gate(&mut self, cell: CellId, inputs: &[NetId]) -> NetId {
        self.add_gate_with_activity(cell, inputs, 0.15)
    }

    /// Marks a net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.index.take();
        self.primary_outputs.push(net);
    }

    /// The graph index, building it on first use.
    pub(crate) fn index(&self) -> &NetlistIndex {
        self.index.get_or_init(|| self.build_index())
    }

    fn build_index(&self) -> NetlistIndex {
        let n_nets = self.drivers.len();

        // CSR sink index: count, prefix-sum, fill. Iterating instances in
        // id order (and pins in pin order) groups each net's entries in
        // (instance, pin) order. Out-of-range input nets (possible only in
        // netlists that fail validation) are skipped.
        let mut sink_offsets = vec![0u32; n_nets + 1];
        for inst in &self.instances {
            for &net in &inst.inputs {
                if net.0 < n_nets {
                    sink_offsets[net.0 + 1] += 1;
                }
            }
        }
        for i in 0..n_nets {
            sink_offsets[i + 1] += sink_offsets[i];
        }
        let mut cursor: Vec<u32> = sink_offsets[..n_nets].to_vec();
        let mut sink_pins = vec![InstId(0); sink_offsets[n_nets] as usize];
        for (i, inst) in self.instances.iter().enumerate() {
            for &net in &inst.inputs {
                if net.0 < n_nets {
                    sink_pins[cursor[net.0] as usize] = InstId(i);
                    cursor[net.0] += 1;
                }
            }
        }

        let mut po_count = vec![0u32; n_nets];
        for &net in &self.primary_outputs {
            if net.0 < n_nets {
                po_count[net.0] += 1;
            }
        }

        NetlistIndex {
            sink_offsets,
            sink_pins,
            po_count,
            topo: self.compute_topological_order(),
        }
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.drivers.len()
    }

    /// Number of instances.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// The instances, indexed by [`InstId`].
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// The driver of a net (None for a malformed floating net).
    #[must_use]
    pub fn driver(&self, net: NetId) -> Option<Driver> {
        self.drivers.get(net.0).copied().flatten()
    }

    /// Primary inputs, in creation order.
    #[must_use]
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary outputs, in marking order.
    #[must_use]
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// The instances whose inputs include `net` (the net's fanout).
    ///
    /// Served from the CSR sink index in O(fanout) — the legacy
    /// implementation scanned every instance per call. An instance with
    /// several pins on the net appears once.
    #[must_use]
    pub fn fanout(&self, net: NetId) -> Vec<InstId> {
        let pins = self.index().sink_pins(net);
        let mut out = Vec::with_capacity(pins.len());
        for &inst in pins {
            // Same-instance pins are adjacent in the (instance, pin)-ordered
            // slice, so consecutive dedup is exact.
            if out.last() != Some(&inst) {
                out.push(inst);
            }
        }
        out
    }

    /// Validates the netlist against a library: pin arity, references, and
    /// drivers.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::DanglingReference`] for bad ids,
    /// [`CircuitError::FloatingNet`] for an undriven net used as an input,
    /// or [`CircuitError::UnknownCell`] via arity checks.
    pub fn validate(&self, lib: &Library) -> Result<(), CircuitError> {
        for inst in &self.instances {
            if inst.cell.0 >= lib.len() {
                return Err(CircuitError::DanglingReference {
                    what: "cell",
                    index: inst.cell.0,
                });
            }
            let kind = lib.cell(inst.cell).kind;
            if inst.inputs.len() != kind.input_count() {
                return Err(CircuitError::UnknownCell(format!(
                    "instance of {} has {} inputs, expected {}",
                    lib.cell(inst.cell).name,
                    inst.inputs.len(),
                    kind.input_count()
                )));
            }
            for &net in &inst.inputs {
                if net.0 >= self.drivers.len() {
                    return Err(CircuitError::DanglingReference {
                        what: "net",
                        index: net.0,
                    });
                }
                if self.drivers[net.0].is_none() {
                    return Err(CircuitError::FloatingNet(net.0));
                }
            }
        }
        for &net in &self.primary_outputs {
            if net.0 >= self.drivers.len() {
                return Err(CircuitError::DanglingReference {
                    what: "output net",
                    index: net.0,
                });
            }
        }
        Ok(())
    }

    /// A topological order of instances (every instance appears after the
    /// drivers of all its inputs). Served from the cached index, so the
    /// order is computed on first use after the last edit.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::CombinationalCycle`] if no such order exists.
    pub fn topological_order(&self) -> Result<Vec<InstId>, CircuitError> {
        Ok(self.index().topo()?.to_vec())
    }

    fn compute_topological_order(&self) -> Result<Vec<InstId>, CircuitError> {
        let n = self.instances.len();
        // In-degree = number of input nets driven by instances not yet placed.
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, inst) in self.instances.iter().enumerate() {
            for &net in &inst.inputs {
                if let Some(Driver::Instance(src)) = self.driver(net) {
                    indegree[i] += 1;
                    dependents[src.0].push(i);
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(InstId(i));
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push(d);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(CircuitError::CombinationalCycle)
        }
    }

    /// Evaluates the logic function on boolean primary-input values.
    ///
    /// # Errors
    ///
    /// Propagates topological-order errors.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count.
    pub fn evaluate(&self, lib: &Library, inputs: &[bool]) -> Result<Vec<bool>, CircuitError> {
        assert_eq!(
            inputs.len(),
            self.primary_inputs.len(),
            "primary input count mismatch"
        );
        let mut values = vec![false; self.drivers.len()];
        for (&net, &v) in self.primary_inputs.iter().zip(inputs) {
            values[net.0] = v;
        }
        for &inst_id in self.index().topo()? {
            let inst = &self.instances[inst_id.0];
            let ins: Vec<bool> = inst.inputs.iter().map(|&n| values[n.0]).collect();
            values[inst.output.0] = lib.cell(inst.cell).kind.eval(&ins);
        }
        Ok(self.primary_outputs.iter().map(|&n| values[n.0]).collect())
    }
}

/// Convenience handle bundling the cell ids a generator needs.
struct Gates {
    inv: CellId,
    buf: CellId,
    nand2: CellId,
    nor2: CellId,
    and2: CellId,
    or2: CellId,
    xor2: CellId,
    xnor2: CellId,
    aoi21: CellId,
    oai21: CellId,
    mux2: CellId,
    maj3: CellId,
}

impl Gates {
    fn from_library(lib: &Library, drive: f64) -> Result<Gates, CircuitError> {
        let pick = |kind: CellKind| {
            lib.closest_drive(kind, drive)
                .ok_or_else(|| CircuitError::UnknownCell(format!("{kind} missing from library")))
        };
        Ok(Gates {
            inv: pick(CellKind::Inv)?,
            buf: pick(CellKind::Buf)?,
            nand2: pick(CellKind::Nand2)?,
            nor2: pick(CellKind::Nor2)?,
            and2: pick(CellKind::And2)?,
            or2: pick(CellKind::Or2)?,
            xor2: pick(CellKind::Xor2)?,
            xnor2: pick(CellKind::Xnor2)?,
            aoi21: pick(CellKind::Aoi21)?,
            oai21: pick(CellKind::Oai21)?,
            mux2: pick(CellKind::Mux2)?,
            maj3: pick(CellKind::Maj3)?,
        })
    }
}

/// Builds an n-bit ripple-carry adder: `sum = a + b + cin`.
/// Inputs in order: `a[0..n], b[0..n], cin`; outputs: `sum[0..n], cout`.
///
/// # Errors
///
/// Returns [`CircuitError::UnknownCell`] if the library lacks XOR2/MAJ3.
pub fn ripple_carry_adder(lib: &Library, bits: usize) -> Result<Netlist, CircuitError> {
    let g = Gates::from_library(lib, 1.0)?;
    let mut nl = Netlist::new();
    let a: Vec<NetId> = (0..bits).map(|_| nl.add_input()).collect();
    let b: Vec<NetId> = (0..bits).map(|_| nl.add_input()).collect();
    let mut carry = nl.add_input(); // cin
    let mut sums = Vec::with_capacity(bits);
    for i in 0..bits {
        let axb = nl.add_gate(g.xor2, &[a[i], b[i]]);
        let sum = nl.add_gate(g.xor2, &[axb, carry]);
        let cout = nl.add_gate(g.maj3, &[a[i], b[i], carry]);
        sums.push(sum);
        carry = cout;
    }
    for s in sums {
        nl.mark_output(s);
    }
    nl.mark_output(carry);
    Ok(nl)
}

/// Builds a processor-scale composite datapath: an adder, a multiplier,
/// random control blocks, and buffer trees, merged into one netlist. For
/// `width = 8` this lands in the thousands of instances — the scale regime
/// of the paper's Fig. 2 case study.
///
/// # Errors
///
/// Propagates generator errors.
pub fn processor_datapath(lib: &Library, width: usize, seed: u64) -> Result<Netlist, CircuitError> {
    let g = Gates::from_library(lib, 1.0)?;
    let mut rng = Rng::from_seed(seed);
    let mut nl = Netlist::new();
    let a: Vec<NetId> = (0..width).map(|_| nl.add_input()).collect();
    let b: Vec<NetId> = (0..width).map(|_| nl.add_input()).collect();
    let ctrl: Vec<NetId> = (0..8).map(|_| nl.add_input()).collect();

    // Adder slice.
    let mut carry = ctrl[0];
    let mut add_out = Vec::with_capacity(width);
    for i in 0..width {
        let axb = nl.add_gate(g.xor2, &[a[i], b[i]]);
        let sum = nl.add_gate(g.xor2, &[axb, carry]);
        carry = nl.add_gate(g.maj3, &[a[i], b[i], carry]);
        add_out.push(sum);
    }

    // Logic unit: AND / OR / XOR / NOR lanes muxed by control.
    let mut logic_out = Vec::with_capacity(width);
    for i in 0..width {
        let and = nl.add_gate(g.and2, &[a[i], b[i]]);
        let or = nl.add_gate(g.or2, &[a[i], b[i]]);
        let xor = nl.add_gate(g.xor2, &[a[i], b[i]]);
        let nor = nl.add_gate(g.nor2, &[a[i], b[i]]);
        let m0 = nl.add_gate(g.mux2, &[and, or, ctrl[1]]);
        let m1 = nl.add_gate(g.mux2, &[xor, nor, ctrl[1]]);
        let m = nl.add_gate(g.mux2, &[m0, m1, ctrl[2]]);
        logic_out.push(m);
    }

    // Multiplier partial array.
    let half = width.max(2);
    let mut mult_running: Vec<NetId> = (0..half)
        .map(|j| nl.add_gate(g.and2, &[a[j], b[0]]))
        .collect();
    for &bi in b.iter().take(half).skip(1) {
        let mut next = Vec::with_capacity(half);
        let mut c: Option<NetId> = None;
        for (j, &aj) in a.iter().enumerate().take(half) {
            let ppij = nl.add_gate(g.and2, &[aj, bi]);
            let y = mult_running.get(j + 1).copied();
            match (y, c) {
                (Some(y), Some(cc)) => {
                    let axb = nl.add_gate(g.xor2, &[ppij, y]);
                    next.push(nl.add_gate(g.xor2, &[axb, cc]));
                    c = Some(nl.add_gate(g.maj3, &[ppij, y, cc]));
                }
                (Some(y), None) => {
                    next.push(nl.add_gate(g.xor2, &[ppij, y]));
                    c = Some(nl.add_gate(g.and2, &[ppij, y]));
                }
                (None, prev) => {
                    next.push(ppij);
                    c = prev;
                }
            }
        }
        mult_running = next;
    }

    // Control blocks: random logic fed by control + data bits.
    let control_nets: Vec<NetId> = {
        let mut pool: Vec<NetId> = ctrl.clone();
        pool.extend(a.iter().take(4));
        let kinds = CellKind::ALL;
        let mut outs = Vec::new();
        for _ in 0..width * 48 {
            let kind = kinds[rng.below(kinds.len() as u64) as usize];
            let cell = lib
                .closest_drive(kind, crate::cell::DRIVE_STRENGTHS[rng.below(5) as usize])
                .ok_or_else(|| CircuitError::UnknownCell(format!("{kind} missing")))?;
            let mut ins = Vec::with_capacity(kind.input_count());
            for _ in 0..kind.input_count() {
                let span = pool.len().min(32);
                let base = pool.len() - span;
                #[allow(clippy::cast_possible_truncation)]
                let idx = base + rng.below(span as u64) as usize;
                ins.push(pool[idx]);
            }
            let out = nl.add_gate_with_activity(cell, &ins, rng.uniform_in(0.02, 0.5));
            pool.push(out);
            outs.push(out);
        }
        outs
    };

    // Writeback mux between adder and logic unit, buffered fan-out trees.
    for i in 0..width {
        let wb = nl.add_gate(g.mux2, &[add_out[i], logic_out[i], ctrl[3]]);
        let buf1 = nl.add_gate_with_activity(g.buf, &[wb], 0.3);
        let buf2 = nl.add_gate_with_activity(g.buf, &[buf1], 0.3);
        nl.mark_output(buf2);
        let inv = nl.add_gate(g.inv, &[wb]);
        nl.mark_output(inv);
    }
    for net in mult_running {
        nl.mark_output(net);
    }
    for &net in control_nets.iter().rev().take(8) {
        nl.mark_output(net);
    }
    // Tie a couple of AOI/OAI cells to exercise every kind at top level.
    let extra = nl.add_gate(g.aoi21, &[a[0], b[0], ctrl[4]]);
    let extra2 = nl.add_gate(g.oai21, &[a[1], b[1], extra]);
    let extra3 = nl.add_gate(g.xnor2, &[extra2, ctrl[5]]);
    let extra4 = nl.add_gate(g.nand2, &[extra3, ctrl[6]]);
    nl.mark_output(extra4);
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::default_library as lib;

    fn to_bits(mut v: u64, n: usize) -> Vec<bool> {
        let mut bits = Vec::with_capacity(n);
        for _ in 0..n {
            bits.push(v & 1 == 1);
            v >>= 1;
        }
        bits
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    #[test]
    fn adder_adds() {
        let nl = ripple_carry_adder(lib(), 8).unwrap();
        nl.validate(lib()).unwrap();
        for (a, b, cin) in [(0u64, 0u64, 0u64), (5, 7, 0), (255, 1, 0), (200, 100, 1)] {
            let mut inputs = to_bits(a, 8);
            inputs.extend(to_bits(b, 8));
            inputs.push(cin == 1);
            let out = nl.evaluate(lib(), &inputs).unwrap();
            let got = from_bits(&out);
            assert_eq!(got, (a + b + cin) & 0x1FF, "a={a} b={b} cin={cin}");
        }
    }

    #[test]
    fn datapath_is_processor_scale() {
        let nl = processor_datapath(lib(), 8, 1).unwrap();
        nl.validate(lib()).unwrap();
        assert!(
            nl.instance_count() > 400,
            "instances: {}",
            nl.instance_count()
        );
        assert!(nl.topological_order().is_ok());
    }

    #[test]
    fn validation_catches_floating_net() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let inv = lib().find("INV_X1").unwrap();
        // Manually construct a gate with a bogus input net.
        nl.add_gate(inv, &[a]);
        let bogus = NetId(999);
        nl.add_gate(inv, &[bogus]);
        assert!(matches!(
            nl.validate(lib()),
            Err(CircuitError::DanglingReference { .. })
        ));
    }

    #[test]
    fn validation_catches_bad_arity() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let nand = lib().find("NAND2_X1").unwrap();
        nl.add_gate(nand, &[a]); // NAND2 needs two inputs
        assert!(nl.validate(lib()).is_err());
    }

    #[test]
    fn fanout_lists_sinks() {
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let inv = lib().find("INV_X1").unwrap();
        let n1 = nl.add_gate(inv, &[a]);
        let _n2 = nl.add_gate(inv, &[n1]);
        let _n3 = nl.add_gate(inv, &[n1]);
        assert_eq!(nl.fanout(n1).len(), 2);
        assert_eq!(nl.fanout(a).len(), 1);
    }
}
