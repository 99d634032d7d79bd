//! Activity-based power estimation.
//!
//! `P = Σ_gates α·E(size)·f  +  clock-tree  +  Σ leakage`, with the
//! per-gate activity annotated by the netlist generators (data paths
//! toggle more than control).

use std::collections::BTreeMap;

use crate::cells;
use crate::netlist::Netlist;

/// Power estimate at one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PowerReport {
    /// Dynamic switching power in mW.
    pub dynamic_mw: f64,
    /// Clock-tree power in mW.
    pub clock_mw: f64,
    /// Leakage power in mW.
    pub leakage_mw: f64,
}

impl PowerReport {
    /// Total power in mW.
    pub(crate) fn total_mw(&self) -> f64 {
        self.dynamic_mw + self.clock_mw + self.leakage_mw
    }
}

/// Estimates power at clock frequency `freq_mhz`.
pub(crate) fn estimate(netlist: &Netlist, freq_mhz: f64) -> PowerReport {
    let f_hz = freq_mhz * 1.0e6;
    let mut dynamic_fj_per_cycle = 0.0;
    let mut leakage_nw = 0.0;
    let mut dff_count = 0usize;
    for g in netlist.gates() {
        dynamic_fj_per_cycle += g.activity * cells::energy_fj(g.cell, g.size);
        leakage_nw += cells::leakage_nw(g.cell, g.size);
        if g.cell.is_sequential() {
            dff_count += 1;
        }
    }
    let clock_fj_per_cycle = dff_count as f64 * cells::CLOCK_TREE_FJ_PER_DFF;
    PowerReport {
        // fJ/cycle × Hz = fW×... : 1 fJ × 1 Hz = 1e-15 W; to mW: ×1e-12.
        dynamic_mw: dynamic_fj_per_cycle * f_hz * 1.0e-12,
        clock_mw: clock_fj_per_cycle * f_hz * 1.0e-12,
        leakage_mw: leakage_nw * 1.0e-6,
    }
}

/// Per-group dynamic power breakdown in mW at `freq_mhz`.
pub fn breakdown_mw(netlist: &Netlist, freq_mhz: f64) -> BTreeMap<String, f64> {
    let f_hz = freq_mhz * 1.0e6;
    netlist.sum_by_group(|g| g.activity * cells::energy_fj(g.cell, g.size) * f_hz * 1.0e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellKind;
    use crate::netlist::NetlistBuilder;

    fn reg_bank(width: u32, activity: f64) -> Netlist {
        let mut b = NetlistBuilder::new("regs");
        let g = b.group("regs", activity);
        let d = b.inputs(width);
        b.register(g, &d);
        b.finish()
    }

    #[test]
    fn power_scales_with_frequency() {
        let n = reg_bank(32, 0.25);
        let p500 = estimate(&n, 500.0);
        let p1000 = estimate(&n, 1000.0);
        assert!((p1000.dynamic_mw - 2.0 * p500.dynamic_mw).abs() < 1e-12);
        assert!((p1000.clock_mw - 2.0 * p500.clock_mw).abs() < 1e-12);
        // Leakage is frequency independent.
        assert_eq!(p1000.leakage_mw, p500.leakage_mw);
    }

    #[test]
    fn power_scales_with_width() {
        let p32 = estimate(&reg_bank(32, 0.25), 1000.0);
        let p128 = estimate(&reg_bank(128, 0.25), 1000.0);
        assert!((p128.total_mw() / p32.total_mw() - 4.0).abs() < 0.01);
    }

    #[test]
    fn activity_drives_dynamic_power() {
        let idle = estimate(&reg_bank(32, 0.0), 1000.0);
        let busy = estimate(&reg_bank(32, 0.5), 1000.0);
        assert_eq!(idle.dynamic_mw, 0.0);
        assert!(busy.dynamic_mw > 0.0);
        // Clock tree burns power regardless of data activity.
        assert!(idle.clock_mw > 0.0);
    }

    #[test]
    fn magnitudes_are_plausible() {
        // 1024 DFF at 25% activity, 1 GHz: single-digit mW at 130 nm.
        let n = reg_bank(1024, 0.25);
        let p = estimate(&n, 1000.0);
        assert!(
            p.total_mw() > 1.0 && p.total_mw() < 20.0,
            "{}",
            p.total_mw()
        );
    }

    #[test]
    fn breakdown_sums_to_dynamic() {
        let mut b = NetlistBuilder::new("t");
        let g1 = b.group("a", 0.3);
        let g2 = b.group("b", 0.1);
        let i = b.input();
        let x = b.gate(g1, CellKind::Inv, &[i]);
        b.gate(g2, CellKind::Inv, &[x]);
        let n = b.finish();
        let p = estimate(&n, 800.0);
        let total: f64 = breakdown_mw(&n, 800.0).values().sum();
        assert!((total - p.dynamic_mw).abs() < 1e-12);
    }
}
