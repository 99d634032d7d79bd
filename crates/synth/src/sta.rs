//! Static timing analysis over the netlist DAG.
//!
//! Sources are undriven nets, primary inputs and tie-offs (arrival 0),
//! and DFF Q pins (clock-to-Q);
//! sinks are DFF D pins (arrival + setup) and primary outputs, the driven
//! nets that feed no pin. The minimum clock period is the worst sink
//! arrival. Sinks are visited in a fixed order, DFF D pins in gate order
//! and then primary outputs in ascending `NetId`, and a later sink
//! replaces the current worst only with a strictly greater arrival: an
//! exact tie goes to the first sink, which fixes the critical path and
//! its depth.
//!
//! Per-net state lives in `Vec`s indexed by `NetId.0`, which is below
//! `Netlist::net_count`; per-gate state in `Vec`s indexed by gate. A
//! `Structure` holds what drive sizes cannot change: fan-out and driver
//! per net, the topological order of the combinational gates and the
//! primary outputs. It is built once per synthesized component, and each
//! timing run on it (`Structure::time`) recomputes only the arrivals, so
//! the at-target fit, the max-speed probe and the refit pay for the
//! graph walk once and for the arithmetic per round.

use crate::cells;
use crate::netlist::{Gate, GateId, NetId, Netlist};

/// Timing analysis results.
#[derive(Debug, Clone)]
pub(crate) struct TimingReport {
    /// Minimum clock period in ps.
    pub min_period_ps: f64,
    /// Maximum frequency in MHz.
    pub fmax_mhz: f64,
    /// Logic depth of the critical path (combinational gates).
    pub critical_depth: usize,
}

/// Errors from timing analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingError {
    /// The combinational graph has a cycle; names the lowest gate id the
    /// topological evaluation left unresolved.
    CombinationalLoop(GateId),
    /// The netlist contains no timed elements at all.
    EmptyNetlist,
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::CombinationalLoop(g) => {
                write!(f, "combinational loop through gate {}", g.0)
            }
            TimingError::EmptyNetlist => write!(f, "netlist has no gates"),
        }
    }
}

impl std::error::Error for TimingError {}

/// Runs static timing analysis (summary only); the tests' one-call form
/// of `Structure::new` then `Structure::time`.
///
/// # Errors
///
/// See [`Structure::new`].
#[cfg(test)]
pub(crate) fn analyze(netlist: &Netlist) -> Result<TimingReport, TimingError> {
    Ok(Structure::new(netlist)?.time(netlist).0)
}

/// The size-independent timing graph of one netlist.
#[derive(Debug, Clone)]
pub(crate) struct Structure {
    /// Input pins each net feeds: the load its driver sees.
    fanout: Vec<u32>,
    /// The gate driving each net; `None` for primary inputs and tie-offs.
    driver: Vec<Option<GateId>>,
    /// Combinational gates in evaluation (topological) order.
    pub topo_order: Vec<usize>,
    /// Primary outputs (driven nets with no fan-out), ascending id.
    pub outputs: Vec<NetId>,
}

impl Structure {
    /// Analyses `netlist`'s structure. Inputs that are neither primary
    /// nor driven are tie-offs: they time as constants (arrival 0).
    ///
    /// # Errors
    ///
    /// [`TimingError::CombinationalLoop`] if the combinational subgraph is
    /// cyclic; [`TimingError::EmptyNetlist`] for a gate-less netlist.
    pub(crate) fn new(netlist: &Netlist) -> Result<Structure, TimingError> {
        let gates = netlist.gates();
        if gates.is_empty() {
            return Err(TimingError::EmptyNetlist);
        }
        let nets = netlist.net_count() as usize;
        let mut fanout = vec![0u32; nets];
        let mut driver = vec![None; nets];
        for (i, g) in gates.iter().enumerate() {
            for n in g.inputs() {
                fanout[n.0 as usize] += 1;
            }
            driver[g.output.0 as usize] = Some(GateId(i as u32));
        }
        let comb_driven = |n: &NetId| {
            driver[n.0 as usize].is_some_and(|d: GateId| !gates[d.0 as usize].cell.is_sequential())
        };

        // Consumers of net `n` are `consumers[first[n]..first[n + 1]]`,
        // in gate order.
        let mut first = Vec::with_capacity(nets + 1);
        first.push(0);
        for &f in &fanout {
            first.push(first[first.len() - 1] + f as usize);
        }
        let mut fill = first.clone();
        let mut consumers = vec![0; first[nets]];
        for (i, g) in gates.iter().enumerate() {
            for n in g.inputs() {
                consumers[fill[n.0 as usize]] = i;
                fill[n.0 as usize] += 1;
            }
        }

        // Kahn evaluation order over combinational gates; `missing[i]`
        // counts gate `i`'s pins on combinational nets not yet evaluated.
        let mut missing = vec![0u32; gates.len()];
        let mut ready = Vec::new();
        let mut comb = 0;
        for (i, g) in gates.iter().enumerate() {
            if !g.cell.is_sequential() {
                comb += 1;
                missing[i] = g.inputs().iter().filter(|n| comb_driven(n)).count() as u32;
                if missing[i] == 0 {
                    ready.push(i);
                }
            }
        }
        let mut topo_order = Vec::with_capacity(comb);
        while let Some(gi) = ready.pop() {
            topo_order.push(gi);
            let out = gates[gi].output.0 as usize;
            for &w in &consumers[first[out]..first[out + 1]] {
                if !gates[w].cell.is_sequential() {
                    missing[w] -= 1;
                    if missing[w] == 0 {
                        ready.push(w);
                    }
                }
            }
        }
        if topo_order.len() < comb {
            let stuck = missing
                .iter()
                .position(|&m| m > 0)
                .expect("a gate is unresolved");
            return Err(TimingError::CombinationalLoop(GateId(stuck as u32)));
        }

        let outputs = (0..nets)
            .filter(|&n| fanout[n] == 0 && driver[n].is_some())
            .map(|n| NetId(n as u32))
            .collect();
        Ok(Structure {
            fanout,
            driver,
            topo_order,
            outputs,
        })
    }

    /// The delay of gate `g` at its drive size and its output's load.
    pub(crate) fn delay_ps(&self, g: &Gate) -> f64 {
        cells::delay_ps(g.cell, g.size, self.fanout[g.output.0 as usize] as usize)
    }

    /// Times `netlist`, which must have this structure, at its current
    /// drive sizes. Returns the report and the arrival per net in ps.
    pub(crate) fn time(&self, netlist: &Netlist) -> (TimingReport, Vec<f64>) {
        let gates = netlist.gates();
        let mut arrival = vec![0.0_f64; self.fanout.len()];
        for g in gates.iter().filter(|g| g.cell.is_sequential()) {
            arrival[g.output.0 as usize] = self.delay_ps(g);
        }
        for &gi in &self.topo_order {
            let g = &gates[gi];
            let in_arr = g
                .inputs()
                .iter()
                .map(|n| arrival[n.0 as usize])
                .fold(0.0_f64, f64::max);
            arrival[g.output.0 as usize] = in_arr + self.delay_ps(g);
        }

        let mut worst = 0.0_f64;
        let mut worst_net: Option<NetId> = None;
        let dff_sinks = gates
            .iter()
            .filter(|g| g.cell.is_sequential())
            .map(|g| (g.inputs()[0], g.cell.setup_ps()));
        for (net, setup) in dff_sinks.chain(self.outputs.iter().map(|&n| (n, 0.0))) {
            let t = arrival[net.0 as usize] + setup;
            if t > worst {
                worst = t;
                worst_net = Some(net);
            }
        }

        // Trace the critical path back from the worst net to its launching
        // flop or primary input, counting its combinational gates.
        let mut depth = 0;
        let mut cur = worst_net;
        while let Some(net) = cur {
            let Some(gid) = self.driver[net.0 as usize] else {
                break;
            };
            let g = netlist.gate(gid);
            if g.cell.is_sequential() {
                break;
            }
            depth += 1;
            cur = g
                .inputs()
                .iter()
                .max_by(|a, b| {
                    let (ta, tb) = (arrival[a.0 as usize], arrival[b.0 as usize]);
                    ta.partial_cmp(&tb).expect("arrivals are finite")
                })
                .copied();
        }
        let min_period_ps = worst.max(1.0);
        let report = TimingReport {
            min_period_ps,
            fmax_mhz: 1.0e6 / min_period_ps,
            critical_depth: depth,
        };
        (report, arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellKind;
    use crate::netlist::NetlistBuilder;

    /// reg -> inv chain of depth `n` -> reg.
    fn chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let g = b.group("c", 0.2);
        let d0 = b.input();
        let mut net = b.dff(g, d0);
        for _ in 0..n {
            net = b.gate(g, CellKind::Inv, &[net]);
        }
        b.dff(g, net);
        b.finish()
    }

    #[test]
    fn period_grows_with_depth() {
        let short = analyze(&chain(2)).unwrap();
        let long = analyze(&chain(10)).unwrap();
        assert!(long.min_period_ps > short.min_period_ps);
        assert!(long.fmax_mhz < short.fmax_mhz);
        assert_eq!(long.critical_depth, 10);
    }

    #[test]
    fn period_includes_clkq_and_setup() {
        let r = analyze(&chain(0)).unwrap();
        let expected = cells::delay_ps(CellKind::Dff, 1, 1) + CellKind::Dff.setup_ps();
        assert!(
            (r.min_period_ps - expected).abs() < 1e-9,
            "{}",
            r.min_period_ps
        );
    }

    #[test]
    fn critical_path_traced() {
        let n = chain(4);
        assert_eq!(analyze(&n).unwrap().critical_depth, 4);
    }

    #[test]
    fn upsizing_critical_gates_reduces_period() {
        let mut n = chain(8);
        let before = analyze(&n).unwrap();
        for gid in 0..n.gate_count() {
            n.set_size(GateId(gid as u32), 8);
        }
        let after = analyze(&n).unwrap();
        assert!(after.min_period_ps < before.min_period_ps);
    }

    #[test]
    fn fanout_slows_driver() {
        let build = |consumers: usize| {
            let mut b = NetlistBuilder::new("f");
            let g = b.group("c", 0.2);
            let d0 = b.input();
            let q = b.dff(g, d0);
            let x = b.gate(g, CellKind::Inv, &[q]);
            for _ in 0..consumers {
                let y = b.gate(g, CellKind::Inv, &[x]);
                b.dff(g, y);
            }
            b.finish()
        };
        let light = analyze(&build(1)).unwrap();
        let heavy = analyze(&build(12)).unwrap();
        assert!(heavy.min_period_ps > light.min_period_ps);
    }

    #[test]
    fn empty_netlist_rejected() {
        let b = NetlistBuilder::new("empty");
        assert_eq!(analyze(&b.finish()).unwrap_err(), TimingError::EmptyNetlist);
    }

    #[test]
    fn pure_combinational_po_timed() {
        let mut b = NetlistBuilder::new("comb");
        let g = b.group("c", 0.2);
        let a = b.input();
        let c = b.input();
        let x = b.gate(g, CellKind::Nand2, &[a, c]);
        let _y = b.gate(g, CellKind::Inv, &[x]);
        let r = analyze(&b.finish()).unwrap();
        assert!(r.min_period_ps > 0.0);
        assert_eq!(r.critical_depth, 2);
    }

    #[test]
    fn undriven_inputs_treated_as_constants() {
        let mut b = NetlistBuilder::new("tieoff");
        let g = b.group("c", 0.2);
        let tie = b.net();
        let mut net = b.gate(g, CellKind::Inv, &[tie]);
        for _ in 0..9 {
            net = b.gate(g, CellKind::Inv, &[net]);
        }
        b.dff(g, net);
        let r = analyze(&b.finish()).unwrap();
        assert!(r.min_period_ps > 0.0);
        assert_eq!(r.critical_depth, 10);
    }

    #[test]
    fn structure_counts_fanout_and_drivers() {
        let mut b = NetlistBuilder::new("t");
        let g = b.group("c", 0.2);
        let a = b.input();
        let x = b.gate(g, CellKind::Inv, &[a]);
        let y = b.gate(g, CellKind::Inv, &[x]);
        let z = b.gate(g, CellKind::Inv, &[x]);
        let s = Structure::new(&b.finish()).unwrap();
        assert_eq!((s.fanout[a.0 as usize], s.fanout[x.0 as usize]), (1, 2));
        assert_eq!(s.driver[a.0 as usize], None);
        assert_eq!(s.driver[x.0 as usize], Some(GateId(0)));
        assert_eq!(s.outputs, [y, z]);
    }

    #[test]
    fn arrivals_rise_in_topological_order() {
        let n = chain(3);
        let s = Structure::new(&n).unwrap();
        assert_eq!(s.topo_order.len(), 3);
        // Arrivals strictly increase along the inverter chain.
        let (_, arrival) = s.time(&n);
        let mut last = 0.0;
        for &gi in &s.topo_order {
            let t = arrival[n.gates()[gi].output.0 as usize];
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn equal_sinks_resolve_to_the_lowest_net_id() {
        // An XOR at drive 4 (42 + 16/4 ps) and two inverters in series
        // (2 x (14 + 9) ps) reach their primary outputs at exactly 46 ps,
        // one gate deep and two. Whichever is built first owns the
        // lower net id and so the critical path.
        let build = |xor_first: bool| {
            let mut b = NetlistBuilder::new("tie");
            let g = b.group("c", 0.2);
            let (a, c) = (b.input(), b.input());
            let mut xor = || b.gate(g, CellKind::Xor2, &[a, c]);
            let xor_net = if xor_first { Some(xor()) } else { None };
            let y = b.gate(g, CellKind::Inv, &[a]);
            let z = b.gate(g, CellKind::Inv, &[y]);
            let xor_net = xor_net.unwrap_or_else(|| b.gate(g, CellKind::Xor2, &[a, c]));
            let mut n = b.finish();
            let xor_gate = n.gates().iter().position(|g| g.output == xor_net).unwrap();
            n.set_size(GateId(xor_gate as u32), 4);
            let (report, arrival) = Structure::new(&n).unwrap().time(&n);
            assert_eq!(arrival[xor_net.0 as usize], 46.0);
            assert_eq!(arrival[z.0 as usize], 46.0);
            report
        };
        assert_eq!(build(true).critical_depth, 1);
        assert_eq!(build(false).critical_depth, 2);
    }

    #[test]
    fn loop_names_the_lowest_unresolved_gate() {
        // Net 0 is an input; gate i drives net 1 + i. Gate 0 resolves,
        // gates 1 and 2 form a loop, and gate 3 hangs off it.
        let n = Netlist::from_gates(
            1,
            &[
                (CellKind::Inv, &[0]),
                (CellKind::Nand2, &[1, 3]),
                (CellKind::Inv, &[2]),
                (CellKind::Inv, &[3]),
            ],
        );
        let err = Structure::new(&n).unwrap_err();
        assert_eq!(err, TimingError::CombinationalLoop(GateId(1)));
        assert_eq!(err.to_string(), "combinational loop through gate 1");
    }
}
