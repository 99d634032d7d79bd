//! Static timing analysis over the netlist DAG.
//!
//! Sources are primary inputs (arrival 0) and DFF Q pins (clock-to-Q);
//! sinks are DFF D pins (arrival + setup) and undriven-fanout nets
//! (primary outputs). The minimum clock period is the worst sink arrival.
//! `analyze_detailed` additionally exposes per-net arrivals and the
//! topological order, which the slack-based sizing engine consumes.

use std::collections::HashMap;

use crate::cells;
use crate::netlist::{GateId, NetId, Netlist};

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

/// Full analysis detail for downstream optimization passes.
#[derive(Debug, Clone)]
pub(crate) struct TimingDetail {
    /// Summary report.
    pub report: TimingReport,
    /// Arrival time per net, in ps.
    pub arrival: HashMap<NetId, f64>,
    /// Combinational gates in evaluation (topological) order.
    pub topo_order: Vec<usize>,
}

/// Errors from timing analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingError {
    /// The combinational graph has a cycle through the listed gate.
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

/// Runs static timing analysis (summary only).
///
/// # Errors
///
/// See [`analyze_detailed`].
pub(crate) fn analyze(netlist: &Netlist) -> Result<TimingReport, TimingError> {
    analyze_detailed(netlist).map(|d| d.report)
}

/// Runs static timing analysis, returning arrivals and evaluation order.
///
/// # Errors
///
/// [`TimingError::CombinationalLoop`] if the combinational subgraph is
/// cyclic; [`TimingError::EmptyNetlist`] for a gate-less netlist.
pub(crate) fn analyze_detailed(netlist: &Netlist) -> Result<TimingDetail, TimingError> {
    if netlist.gate_count() == 0 {
        return Err(TimingError::EmptyNetlist);
    }
    let fanout = netlist.fanout();

    let mut arrival: HashMap<NetId, f64> = HashMap::new();
    let mut arrival_from: HashMap<NetId, GateId> = HashMap::new();

    for &pi in netlist.primary_inputs() {
        arrival.insert(pi, 0.0);
    }
    for (i, g) in netlist.gates().iter().enumerate() {
        if g.cell.is_sequential() {
            let load = fanout.get(&g.output).copied().unwrap_or(0);
            arrival.insert(g.output, cells::delay_ps(g.cell, g.size, load));
            arrival_from.insert(g.output, GateId(i as u32));
        }
    }

    // Kahn topological evaluation over combinational gates. Inputs that
    // are neither primary, nor gate-driven, nor DFF-driven are tie-offs:
    // they time as constants (arrival 0).
    let comb: Vec<usize> = (0..netlist.gate_count())
        .filter(|&i| !netlist.gates()[i].cell.is_sequential())
        .collect();
    let known = |arr: &HashMap<NetId, f64>, nl: &Netlist, n: &NetId| {
        arr.contains_key(n) || nl.driver(*n).is_none()
    };
    let mut unresolved: HashMap<usize, usize> = HashMap::new();
    let mut consumers: HashMap<NetId, Vec<usize>> = HashMap::new();
    let mut ready: Vec<usize> = Vec::new();
    for &gi in &comb {
        let g = &netlist.gates()[gi];
        let missing = g
            .inputs
            .iter()
            .filter(|n| !known(&arrival, netlist, n))
            .count();
        if missing == 0 {
            ready.push(gi);
        } else {
            unresolved.insert(gi, missing);
            for n in &g.inputs {
                if !known(&arrival, netlist, n) {
                    consumers.entry(*n).or_default().push(gi);
                }
            }
        }
    }

    let mut topo_order = Vec::with_capacity(comb.len());
    while let Some(gi) = ready.pop() {
        topo_order.push(gi);
        let g = &netlist.gates()[gi];
        let load = fanout.get(&g.output).copied().unwrap_or(0);
        let in_arr = g
            .inputs
            .iter()
            .map(|n| arrival.get(n).copied().unwrap_or(0.0))
            .fold(0.0_f64, f64::max);
        let out_arr = in_arr + cells::delay_ps(g.cell, g.size, load);
        arrival.insert(g.output, out_arr);
        arrival_from.insert(g.output, GateId(gi as u32));
        if let Some(waiters) = consumers.remove(&g.output) {
            for w in waiters {
                if let Some(m) = unresolved.get_mut(&w) {
                    *m -= 1;
                    if *m == 0 {
                        unresolved.remove(&w);
                        ready.push(w);
                    }
                }
            }
        }
    }
    if !unresolved.is_empty() {
        let stuck = *unresolved.keys().next().expect("nonempty");
        return Err(TimingError::CombinationalLoop(GateId(stuck as u32)));
    }

    // Sinks: DFF D pins (+setup) and undriven-fanout nets.
    let mut worst = 0.0_f64;
    let mut worst_net: Option<NetId> = None;
    for g in netlist.gates() {
        if g.cell.is_sequential() {
            let d = g.inputs[0];
            let t = arrival.get(&d).copied().unwrap_or(0.0) + g.cell.setup_ps();
            if t > worst {
                worst = t;
                worst_net = Some(d);
            }
        }
    }
    for (net, t) in &arrival {
        if !fanout.contains_key(net) && *t > worst {
            worst = *t;
            worst_net = Some(*net);
        }
    }

    // Trace the critical path back from the worst net to its launching
    // flop or primary input, counting its combinational gates.
    let mut depth = 0;
    let mut cur = worst_net;
    while let Some(net) = cur {
        let Some(gid) = arrival_from.get(&net).copied() else {
            break;
        };
        let g = netlist.gate(gid);
        if g.cell.is_sequential() {
            break;
        }
        depth += 1;
        cur = g
            .inputs
            .iter()
            .max_by(|a, b| {
                let ta = arrival.get(a).copied().unwrap_or(0.0);
                let tb = arrival.get(b).copied().unwrap_or(0.0);
                ta.partial_cmp(&tb).expect("arrivals are finite")
            })
            .copied();
    }
    let min_period_ps = worst.max(1.0);
    Ok(TimingDetail {
        report: TimingReport {
            min_period_ps,
            fmax_mhz: 1.0e6 / min_period_ps,
            critical_depth: depth,
        },
        arrival,
        topo_order,
    })
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
    fn detailed_exposes_arrivals_and_order() {
        let n = chain(3);
        let d = analyze_detailed(&n).unwrap();
        assert_eq!(d.topo_order.len(), 3);
        // Arrivals strictly increase along the inverter chain.
        let mut last = 0.0;
        for &gi in &d.topo_order {
            let out = n.gates()[gi].output;
            let t = d.arrival[&out];
            assert!(t > last);
            last = t;
        }
    }
}
