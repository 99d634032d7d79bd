//! The structural netlist intermediate representation.
//!
//! A [`Netlist`] is a DAG of sized standard cells connected by nets, with
//! gates tagged by functional *group* (for per-block area breakdown) and
//! annotated with a switching activity used by the power model.

use std::collections::BTreeMap;
use std::fmt;

use crate::cells::CellKind;

/// Identifier of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub u32);

/// Identifier of a functional group (block) within a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub u16);

/// One cell instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Cell kind.
    pub cell: CellKind,
    /// Input nets inline: the first `cell.input_pins()` are the pins in
    /// order, the rest `NetId(0)`. Read through [`Gate::inputs`].
    pins: [NetId; 4],
    /// Output net (every gate drives exactly one net).
    pub output: NetId,
    /// Discrete drive size (1..=`crate::cells::MAX_SIZE`).
    pub size: u8,
    /// Functional group for breakdowns.
    pub group: GroupId,
    /// Output switching activity (expected toggles per cycle).
    pub activity: f64,
}

// A gate owns no heap block, so a netlist is built, cloned and dropped
// with O(1) allocations; keep the record small too.
const _: () = assert!(size_of::<Gate>() <= 32);

impl Gate {
    /// A size-1 gate; `inputs` must hold exactly `cell.input_pins()` nets.
    fn new(cell: CellKind, inputs: &[NetId], output: NetId, group: GroupId, activity: f64) -> Gate {
        let mut pins = [NetId(0); 4];
        pins[..cell.input_pins()].copy_from_slice(inputs);
        Gate {
            cell,
            pins,
            output,
            size: 1,
            group,
            activity,
        }
    }

    /// Input nets (length = `cell.input_pins()`).
    pub fn inputs(&self) -> &[NetId] {
        &self.pins[..self.cell.input_pins()]
    }
}

/// A complete structural netlist.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    groups: Vec<String>,
    net_count: u32,
}

impl Netlist {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gate instances.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// One gate by id.
    pub(crate) fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.0 as usize]
    }

    /// Sets a gate's drive size (used by the sizing engine).
    ///
    /// # Panics
    ///
    /// Panics on size 0 or above [`crate::cells::MAX_SIZE`].
    pub(crate) fn set_size(&mut self, id: GateId, size: u8) {
        assert!(
            (1..=crate::cells::MAX_SIZE).contains(&size),
            "bad drive size {size}"
        );
        self.gates[id.0 as usize].size = size;
    }

    /// Restores every drive size from `from`, a copy of this netlist.
    pub(crate) fn reset_sizes(&mut self, from: &Netlist) {
        self.gates.copy_from_slice(&from.gates);
    }

    /// `value` summed over each group's gates in gate order, keyed by
    /// group name; a group without gates has no entry.
    pub(crate) fn sum_by_group(&self, value: impl Fn(&Gate) -> f64) -> BTreeMap<String, f64> {
        let mut sums = vec![None; self.groups.len()];
        for g in &self.gates {
            *sums[g.group.0 as usize].get_or_insert(0.0) += value(g);
        }
        let named = self.groups.iter().zip(sums);
        named
            .filter_map(|(name, sum)| Some((name.clone(), sum?)))
            .collect()
    }

    /// Total number of nets.
    pub fn net_count(&self) -> u32 {
        self.net_count
    }

    /// Number of gate instances.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops.
    pub fn dff_count(&self) -> usize {
        self.gates.iter().filter(|g| g.cell.is_sequential()).count()
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} gates ({} DFF), {} nets, {} groups",
            self.name,
            self.gate_count(),
            self.dff_count(),
            self.net_count,
            self.groups.len()
        )
    }
}

/// Incremental netlist constructor used by the component generators.
///
/// # Examples
///
/// ```
/// use xpipes_synth::{NetlistBuilder, CellKind};
///
/// let mut b = NetlistBuilder::new("adder_bit");
/// let g = b.group("sum", 0.25);
/// let a = b.input();
/// let c = b.input();
/// let s = b.gate(g, CellKind::Xor2, &[a, c]);
/// let _q = b.dff(g, s);
/// let n = b.finish();
/// assert_eq!(n.gate_count(), 2);
/// assert_eq!(n.dff_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    gates: Vec<Gate>,
    groups: Vec<String>,
    group_activity: Vec<f64>,
    net_count: u32,
}

impl NetlistBuilder {
    /// Starts an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            gates: Vec::new(),
            groups: Vec::new(),
            group_activity: Vec::new(),
            net_count: 0,
        }
    }

    /// Declares (or reuses) a functional group with a default switching
    /// activity for its gates.
    pub fn group(&mut self, name: &str, activity: f64) -> GroupId {
        if let Some(idx) = self.groups.iter().position(|g| g == name) {
            return GroupId(idx as u16);
        }
        self.groups.push(name.to_string());
        self.group_activity.push(activity.clamp(0.0, 1.0));
        GroupId((self.groups.len() - 1) as u16)
    }

    /// Allocates a fresh net.
    pub(crate) fn net(&mut self) -> NetId {
        let id = NetId(self.net_count);
        self.net_count += 1;
        id
    }

    /// Allocates a primary-input net: one no gate drives, which times
    /// as arriving at 0.
    pub fn input(&mut self) -> NetId {
        self.net()
    }

    /// Allocates `width` primary-input nets.
    pub(crate) fn inputs(&mut self, width: u32) -> Vec<NetId> {
        (0..width).map(|_| self.input()).collect()
    }

    /// Instantiates a combinational gate; returns its output net.
    ///
    /// # Panics
    ///
    /// Panics when the input count does not match the cell's pins or when
    /// a sequential cell is passed (use [`dff`](Self::dff)).
    pub fn gate(&mut self, group: GroupId, cell: CellKind, inputs: &[NetId]) -> NetId {
        assert!(!cell.is_sequential(), "use dff() for sequential cells");
        assert_eq!(inputs.len(), cell.input_pins(), "{cell:?} pin count");
        let output = self.net();
        self.push(group, cell, inputs, output);
        output
    }

    /// Instantiates a flip-flop fed by `d`; returns its Q net.
    pub fn dff(&mut self, group: GroupId, d: NetId) -> NetId {
        let output = self.net();
        self.push(group, CellKind::Dff, &[d], output);
        output
    }

    /// Instantiates a `width`-bit register; returns the Q nets.
    pub(crate) fn register(&mut self, group: GroupId, d: &[NetId]) -> Vec<NetId> {
        d.iter().map(|&bit| self.dff(group, bit)).collect()
    }

    /// A `width`-bit 2:1 mux (one [`CellKind::Mux2`] per bit).
    pub(crate) fn mux2_bus(
        &mut self,
        group: GroupId,
        sel: NetId,
        a: &[NetId],
        b: &[NetId],
    ) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "mux bus width mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.gate(group, CellKind::Mux2, &[sel, x, y]))
            .collect()
    }

    /// An N:1 one-hot mux tree over equal-width buses; returns the output
    /// bus. Structure: a balanced tree of 2:1 muxes, `(N-1)·width` cells —
    /// exactly the crossbar column of a switch output.
    ///
    /// # Panics
    ///
    /// Panics when `buses` is empty or widths differ.
    pub(crate) fn mux_tree(
        &mut self,
        group: GroupId,
        sels: &[NetId],
        buses: &[Vec<NetId>],
    ) -> Vec<NetId> {
        assert!(!buses.is_empty(), "mux tree needs at least one bus");
        let mut level: Vec<Vec<NetId>> = buses.to_vec();
        let mut sel_idx = 0;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut iter = level.chunks(2);
            for pair in iter.by_ref() {
                if pair.len() == 2 {
                    let sel = sels[sel_idx % sels.len().max(1)];
                    sel_idx += 1;
                    next.push(self.mux2_bus(group, sel, &pair[0], &pair[1]));
                } else {
                    next.push(pair[0].clone());
                }
            }
            level = next;
        }
        level.pop().expect("nonempty")
    }

    /// An XOR reduction tree over `bits` (parity / CRC checker).
    pub(crate) fn xor_tree(&mut self, group: GroupId, bits: &[NetId]) -> NetId {
        assert!(!bits.is_empty(), "xor tree needs inputs");
        let mut level = bits.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut chunks = level.chunks(2);
            for pair in chunks.by_ref() {
                if pair.len() == 2 {
                    next.push(self.gate(group, CellKind::Xor2, &[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// An equality comparator between two equal-width buses: per-bit XOR
    /// feeding a NOR reduction. Returns the match net.
    pub(crate) fn comparator(&mut self, group: GroupId, a: &[NetId], b: &[NetId]) -> NetId {
        assert_eq!(a.len(), b.len(), "comparator width mismatch");
        let diffs: Vec<NetId> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| self.gate(group, CellKind::Xor2, &[x, y]))
            .collect();
        // NOR-reduce the difference bits.
        let mut level = diffs;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut chunks = level.chunks(2);
            for pair in chunks.by_ref() {
                if pair.len() == 2 {
                    next.push(self.gate(group, CellKind::Nor2, &[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    /// A ripple priority chain over `requests`: `grant[i]` is `request[i]`
    /// masked by all lower requests — the fixed-priority arbiter core. The
    /// chain depth grows linearly with the request count, which is what
    /// makes high-radix switches slower.
    pub(crate) fn priority_chain(&mut self, group: GroupId, requests: &[NetId]) -> Vec<NetId> {
        assert!(!requests.is_empty(), "priority chain needs requests");
        let mut grants = Vec::with_capacity(requests.len());
        let mut any_above: Option<NetId> = None;
        for &req in requests {
            let grant = match any_above {
                None => req,
                Some(blocker) => {
                    let nb = self.gate(group, CellKind::Inv, &[blocker]);
                    let g = self.gate(group, CellKind::Nand2, &[req, nb]);
                    self.gate(group, CellKind::Inv, &[g])
                }
            };
            grants.push(grant);
            any_above = Some(match any_above {
                None => req,
                Some(prev) => {
                    let or = self.gate(group, CellKind::Nor2, &[prev, req]);
                    self.gate(group, CellKind::Inv, &[or])
                }
            });
        }
        grants
    }

    /// A `width`-bit binary counter (DFF + XOR/carry chain); returns the
    /// Q nets. Used for sequence numbers and FIFO pointers.
    pub(crate) fn counter(&mut self, group: GroupId, width: u32) -> Vec<NetId> {
        let mut qs = Vec::with_capacity(width as usize);
        let mut carry: Option<NetId> = None;
        for _ in 0..width {
            // Feedback toggle bit: q -> xor with carry -> d.
            let d_net = self.net();
            let q = self.dff(group, d_net);
            let toggled = match carry {
                None => self.gate(group, CellKind::Inv, &[q]),
                Some(c) => self.gate(group, CellKind::Xor2, &[q, c]),
            };
            // Patch the DFF's D input to the computed toggle net.
            let dff_gate = self
                .gates
                .iter_mut()
                .rev()
                .find(|g| g.output == q)
                .expect("dff just created");
            dff_gate.pins[0] = toggled;
            carry = Some(match carry {
                None => q,
                Some(c) => {
                    let n = self.gate(group, CellKind::Nand2, &[q, c]);
                    self.gate(group, CellKind::Inv, &[n])
                }
            });
            qs.push(q);
        }
        qs
    }

    /// Re-targets the D input of the flip-flop driving `q`. Used to close
    /// recirculation (clock-enable) loops that are built after the DFF.
    ///
    /// # Panics
    ///
    /// Panics when no flip-flop drives `q`.
    pub(crate) fn patch_last_dff(&mut self, q: NetId, new_d: NetId) {
        let gate = self
            .gates
            .iter_mut()
            .rev()
            .find(|g| g.output == q && g.cell.is_sequential())
            .expect("patch_last_dff: no flip-flop drives the given net");
        gate.pins[0] = new_d;
    }

    fn push(&mut self, group: GroupId, cell: CellKind, inputs: &[NetId], output: NetId) {
        let activity = self.group_activity[group.0 as usize];
        self.gates
            .push(Gate::new(cell, inputs, output, group, activity));
    }

    /// Freezes the builder into an immutable netlist.
    pub fn finish(self) -> Netlist {
        Netlist {
            name: self.name,
            gates: self.gates,
            groups: self.groups,
            net_count: self.net_count,
        }
    }
}

/// Test-only constructor and structural oracle for the netlist generators.
#[cfg(test)]
impl Netlist {
    /// A netlist straight from `(cell, input nets)` pairs, bypassing the
    /// builder: nets `0..inputs` are primary inputs and gate `i` drives
    /// net `inputs + i`, so a gate may read a net a later gate drives.
    /// This is how tests build the combinational loop that
    /// [`NetlistBuilder`] cannot close.
    pub(crate) fn from_gates(inputs: u32, gates: &[(CellKind, &[u32])]) -> Netlist {
        let gates: Vec<Gate> = (0..)
            .zip(gates)
            .map(|(i, &(cell, pins))| {
                let pins: Vec<NetId> = pins.iter().map(|&n| NetId(n)).collect();
                Gate::new(cell, &pins, NetId(inputs + i), GroupId(0), 0.2)
            })
            .collect();
        Netlist {
            name: "from_gates".to_string(),
            net_count: inputs + gates.len() as u32,
            gates,
            groups: vec!["all".to_string()],
        }
    }

    /// Structural sanity check: every net id in range, exactly one driver
    /// per driven net, drive sizes in range (pin counts follow the cell).
    /// Every generator is checked against it in tests.
    ///
    /// # Errors
    ///
    /// The first structural problem found.
    pub(crate) fn validate(&self) -> Result<(), ValidateNetlistError> {
        let mut drivers = std::collections::HashMap::new();
        for (i, g) in self.gates.iter().enumerate() {
            let id = GateId(i as u32);
            if !(1..=crate::cells::MAX_SIZE).contains(&g.size) {
                return Err(ValidateNetlistError::BadSize(id));
            }
            for n in g.inputs().iter().chain(std::iter::once(&g.output)) {
                if n.0 >= self.net_count {
                    return Err(ValidateNetlistError::NetOutOfRange(id, *n));
                }
            }
            if let Some(prev) = drivers.insert(g.output, id) {
                return Err(ValidateNetlistError::MultipleDrivers(g.output, prev, id));
            }
        }
        Ok(())
    }
}

/// Structural problems reported by [`Netlist::validate`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValidateNetlistError {
    /// A gate's drive size is outside `1..=MAX_SIZE`.
    BadSize(GateId),
    /// A gate references a net id beyond the allocated count.
    NetOutOfRange(GateId, NetId),
    /// Two gates drive the same net.
    MultipleDrivers(NetId, GateId, GateId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts() {
        let mut b = NetlistBuilder::new("t");
        let g = b.group("core", 0.2);
        let a = b.input();
        let c = b.input();
        let x = b.gate(g, CellKind::Nand2, &[a, c]);
        b.dff(g, x);
        let n = b.finish();
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.dff_count(), 1);
        assert_eq!(n.net_count(), 4);
        assert_eq!(n.name(), "t");
        assert!(n.to_string().contains("2 gates"));
    }

    #[test]
    fn group_reuse() {
        let mut b = NetlistBuilder::new("t");
        let g1 = b.group("x", 0.1);
        let g2 = b.group("x", 0.9);
        assert_eq!(g1, g2);
        let n = b.finish();
        assert_eq!(n.groups.len(), 1);
    }

    #[test]
    fn mux_tree_cell_count() {
        let mut b = NetlistBuilder::new("t");
        let g = b.group("xbar", 0.25);
        let sels: Vec<NetId> = (0..3).map(|_| b.input()).collect();
        let buses: Vec<Vec<NetId>> = (0..4).map(|_| b.inputs(8)).collect();
        let out = b.mux_tree(g, &sels, &buses);
        assert_eq!(out.len(), 8);
        // (N-1) * width muxes = 3 * 8 = 24.
        let n = b.finish();
        assert_eq!(n.gate_count(), 24);
    }

    #[test]
    fn mux_tree_single_bus_passthrough() {
        let mut b = NetlistBuilder::new("t");
        let g = b.group("xbar", 0.25);
        let bus = b.inputs(4);
        let out = b.mux_tree(g, &[], std::slice::from_ref(&bus));
        assert_eq!(out, bus);
        assert_eq!(b.finish().gate_count(), 0);
    }

    #[test]
    fn xor_tree_reduces() {
        let mut b = NetlistBuilder::new("t");
        let g = b.group("crc", 0.3);
        let bits = b.inputs(9);
        b.xor_tree(g, &bits);
        let n = b.finish();
        assert_eq!(n.gate_count(), 8); // n-1 XORs
    }

    #[test]
    fn comparator_structure() {
        let mut b = NetlistBuilder::new("t");
        let g = b.group("cmp", 0.2);
        let a = b.inputs(6);
        let c = b.inputs(6);
        b.comparator(g, &a, &c);
        let n = b.finish();
        // 6 XOR + 5 reduce gates.
        assert_eq!(n.gate_count(), 11);
    }

    #[test]
    fn priority_chain_grows_linearly() {
        let count = |n: usize| {
            let mut b = NetlistBuilder::new("t");
            let g = b.group("arb", 0.1);
            let reqs = b.inputs(n as u32);
            b.priority_chain(g, &reqs);
            b.finish().gate_count()
        };
        let c4 = count(4);
        let c6 = count(6);
        let c8 = count(8);
        assert!(c6 > c4 && c8 > c6);
        // Linear growth: equal increments.
        assert_eq!(c8 - c6, c6 - c4);
    }

    #[test]
    fn counter_has_width_dffs() {
        let mut b = NetlistBuilder::new("t");
        let g = b.group("ctr", 0.5);
        let qs = b.counter(g, 6);
        assert_eq!(qs.len(), 6);
        let n = b.finish();
        assert_eq!(n.dff_count(), 6);
        // No dangling D inputs: every DFF input must be a driven net.
        for gate in n.gates() {
            if gate.cell.is_sequential() {
                assert!(
                    n.gates().iter().any(|d| d.output == gate.inputs()[0]),
                    "counter DFF D must be driven"
                );
            }
        }
    }

    #[test]
    fn validate_passes_builder_output() {
        let mut b = NetlistBuilder::new("ok");
        let g = b.group("c", 0.2);
        let a = b.input();
        let x = b.gate(g, CellKind::Inv, &[a]);
        b.dff(g, x);
        assert!(b.finish().validate().is_ok());
    }

    #[test]
    fn validate_rejects_double_driver() {
        let mut b = NetlistBuilder::new("dup");
        let g = b.group("c", 0.2);
        let a = b.input();
        let x = b.gate(g, CellKind::Inv, &[a]);
        let y = b.gate(g, CellKind::Inv, &[x]);
        // Force gate 1 to drive gate 0's output net (illegal). The test
        // module sits inside netlist.rs, so private fields are reachable.
        let _ = y;
        let mut n = b.finish();
        let out0 = n.gates[0].output;
        n.gates[1].output = out0;
        assert!(matches!(
            n.validate(),
            Err(ValidateNetlistError::MultipleDrivers(net, _, _)) if net == out0
        ));
    }

    #[test]
    #[should_panic(expected = "pin count")]
    fn wrong_pin_count_panics() {
        let mut b = NetlistBuilder::new("t");
        let g = b.group("c", 0.2);
        let a = b.input();
        b.gate(g, CellKind::Nand2, &[a]);
    }

    #[test]
    #[should_panic(expected = "bad drive size")]
    fn set_size_validates() {
        let mut b = NetlistBuilder::new("t");
        let g = b.group("c", 0.2);
        let a = b.input();
        b.gate(g, CellKind::Inv, &[a]);
        let mut n = b.finish();
        n.set_size(GateId(0), 0);
    }
}
