//! Area accounting.

use std::collections::BTreeMap;

use crate::cells;
use crate::netlist::Netlist;

/// Total cell area in µm² (before routing overhead).
pub(crate) fn cell_area_um2(netlist: &Netlist) -> f64 {
    netlist
        .gates()
        .iter()
        .map(|g| cells::area_um2(g.cell, g.size))
        .sum()
}

/// Macro area in mm² including routing/clock-tree overhead — the figure
/// a post-synthesis report would show.
pub(crate) fn macro_area_mm2(netlist: &Netlist) -> f64 {
    cell_area_um2(netlist) * cells::ROUTING_OVERHEAD / 1.0e6
}

/// Per-group area breakdown in µm² (cell area, no overhead).
pub(crate) fn breakdown_um2(netlist: &Netlist) -> BTreeMap<String, f64> {
    netlist.sum_by_group(|g| cells::area_um2(g.cell, g.size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellKind;
    use crate::netlist::NetlistBuilder;

    fn two_group_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let ga = b.group("a", 0.2);
        let gb = b.group("b", 0.2);
        let i = b.input();
        b.dff(ga, i);
        let x = b.gate(gb, CellKind::Inv, &[i]);
        b.gate(gb, CellKind::Inv, &[x]);
        b.finish()
    }

    #[test]
    fn cell_area_sums() {
        let n = two_group_netlist();
        let expected = cells::area_um2(CellKind::Dff, 1) + 2.0 * cells::area_um2(CellKind::Inv, 1);
        assert!((cell_area_um2(&n) - expected).abs() < 1e-9);
    }

    #[test]
    fn macro_area_applies_overhead() {
        let n = two_group_netlist();
        let macro_mm2 = macro_area_mm2(&n);
        assert!((macro_mm2 * 1.0e6 / cells::ROUTING_OVERHEAD - cell_area_um2(&n)).abs() < 1e-6);
    }

    #[test]
    fn breakdown_covers_all_groups() {
        let n = two_group_netlist();
        let bd = breakdown_um2(&n);
        assert_eq!(bd.len(), 2);
        let total: f64 = bd.values().sum();
        assert!((total - cell_area_um2(&n)).abs() < 1e-9);
        assert!(bd["a"] > bd["b"], "one DFF outweighs two inverters");
    }

    #[test]
    fn sizing_increases_area() {
        let mut n = two_group_netlist();
        let before = cell_area_um2(&n);
        n.set_size(crate::netlist::GateId(1), 8);
        assert!(cell_area_um2(&n) > before);
    }
}
