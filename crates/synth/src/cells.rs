//! The 130 nm-class standard-cell model.
//!
//! One free-parameter set, calibrated once against the paper's stated
//! anchors (1 GHz 4x4 switch at 130 nm; 0.10–0.18 mm² 5x5 switch band;
//! ~2.6 mm² 3x4 mesh) and then frozen — every sweep in the benches uses
//! these same constants.
//!
//! Delay model: `delay = intrinsic + drive · load / size` where `load` is
//! the number of driven inputs. Area and energy grow affinely with drive
//! size; leakage linearly.

/// Combinational and sequential cell kinds the netlist generators use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-to-1 multiplexer.
    Mux2,
    /// AND-OR-invert 2-2 (complex gate used for decode/compare).
    Aoi22,
    /// D flip-flop (the only sequential cell).
    Dff,
}

impl CellKind {
    /// Number of input pins.
    pub(crate) const fn input_pins(self) -> usize {
        match self {
            CellKind::Inv => 1,
            CellKind::Nand2 | CellKind::Nor2 | CellKind::Xor2 => 2,
            CellKind::Mux2 => 3,
            CellKind::Aoi22 => 4,
            CellKind::Dff => 1,
        }
    }

    /// True for the sequential cell.
    pub(crate) const fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// Nominal (size-1) cell area in µm².
    pub(crate) const fn base_area_um2(self) -> f64 {
        match self {
            CellKind::Inv => 2.8,
            CellKind::Nand2 => 3.7,
            CellKind::Nor2 => 3.7,
            CellKind::Xor2 => 8.3,
            CellKind::Mux2 => 7.4,
            CellKind::Aoi22 => 6.5,
            CellKind::Dff => 27.7,
        }
    }

    /// Intrinsic delay in ps (for `Dff`, the clock-to-Q delay).
    pub(crate) const fn intrinsic_ps(self) -> f64 {
        match self {
            CellKind::Inv => 14.0,
            CellKind::Nand2 => 22.0,
            CellKind::Nor2 => 26.0,
            CellKind::Xor2 => 42.0,
            CellKind::Mux2 => 38.0,
            CellKind::Aoi22 => 34.0,
            CellKind::Dff => 190.0,
        }
    }

    /// Load-dependent delay in ps per driven input pin, at size 1.
    pub(crate) const fn drive_ps_per_load(self) -> f64 {
        match self {
            CellKind::Inv => 9.0,
            CellKind::Nand2 => 13.0,
            CellKind::Nor2 => 15.0,
            CellKind::Xor2 => 16.0,
            CellKind::Mux2 => 14.0,
            CellKind::Aoi22 => 15.0,
            CellKind::Dff => 11.0,
        }
    }

    /// Setup time in ps (sequential only; 0 for combinational cells).
    pub(crate) const fn setup_ps(self) -> f64 {
        match self {
            CellKind::Dff => 95.0,
            _ => 0.0,
        }
    }

    /// Switching energy per output toggle in fJ, at size 1 (includes the
    /// internal clock pin energy for the DFF).
    pub(crate) const fn energy_fj(self) -> f64 {
        match self {
            CellKind::Inv => 1.2,
            CellKind::Nand2 => 1.8,
            CellKind::Nor2 => 1.8,
            CellKind::Xor2 => 3.5,
            CellKind::Mux2 => 3.0,
            CellKind::Aoi22 => 2.6,
            CellKind::Dff => 9.5,
        }
    }

    /// Leakage in nW at size 1.
    pub(crate) const fn leakage_nw(self) -> f64 {
        match self {
            CellKind::Inv => 1.6,
            CellKind::Nand2 => 2.4,
            CellKind::Nor2 => 2.4,
            CellKind::Xor2 => 4.8,
            CellKind::Mux2 => 4.2,
            CellKind::Aoi22 => 3.8,
            CellKind::Dff => 9.0,
        }
    }
}

/// Largest discrete drive size.
pub(crate) const MAX_SIZE: u8 = 8;

/// Area of a cell at drive size `size` in µm².
pub(crate) fn area_um2(cell: CellKind, size: u8) -> f64 {
    cell.base_area_um2() * (0.40 + 0.60 * size as f64)
}

/// Delay of a cell at drive size `size` driving `load` input pins, in ps.
pub(crate) fn delay_ps(cell: CellKind, size: u8, load: usize) -> f64 {
    // A floor of one load models the cell's own output parasitics.
    let load = load.max(1) as f64;
    cell.intrinsic_ps() + cell.drive_ps_per_load() * load / size as f64
}

/// Switching energy per toggle at drive size `size`, in fJ.
pub(crate) fn energy_fj(cell: CellKind, size: u8) -> f64 {
    cell.energy_fj() * (0.60 + 0.40 * size as f64)
}

/// Leakage at drive size `size`, in nW.
pub(crate) fn leakage_nw(cell: CellKind, size: u8) -> f64 {
    cell.leakage_nw() * size as f64
}

/// Routing/clock-tree area overhead multiplier applied to summed cell
/// area (placed-and-routed macros are never 100% cell area).
pub(crate) const ROUTING_OVERHEAD: f64 = 1.18;

/// Clock-tree energy per clocked flop per cycle, in fJ (always switching).
pub(crate) const CLOCK_TREE_FJ_PER_DFF: f64 = 2.2;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell kind.
    const ALL: [CellKind; 7] = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Mux2,
        CellKind::Aoi22,
        CellKind::Dff,
    ];

    #[test]
    fn upsizing_speeds_up_and_grows() {
        // Strictly at every step and every load: the max-speed probe
        // rests on MAX_SIZE being the fastest drive of every cell.
        for cell in ALL {
            for size in 1..MAX_SIZE {
                for load in 0..=16 {
                    let (d, d_up) = (delay_ps(cell, size, load), delay_ps(cell, size + 1, load));
                    assert!(
                        d_up < d,
                        "{cell:?} must speed up from size {size} at load {load}"
                    );
                }
                let (a, a_up) = (area_um2(cell, size), area_um2(cell, size + 1));
                assert!(a_up > a, "{cell:?} must grow from size {size}");
            }
        }
    }

    #[test]
    fn delay_grows_with_load() {
        let light = delay_ps(CellKind::Nand2, 1, 1);
        let heavy = delay_ps(CellKind::Nand2, 1, 16);
        assert!(heavy > light);
    }

    #[test]
    fn zero_load_has_floor() {
        assert_eq!(delay_ps(CellKind::Inv, 1, 0), delay_ps(CellKind::Inv, 1, 1));
    }

    #[test]
    fn dff_is_sequential_only() {
        for cell in ALL {
            assert_eq!(cell.is_sequential(), cell == CellKind::Dff);
            if !cell.is_sequential() {
                assert_eq!(cell.setup_ps(), 0.0);
            }
        }
        assert!(CellKind::Dff.setup_ps() > 0.0);
    }

    #[test]
    fn pin_counts() {
        assert_eq!(CellKind::Inv.input_pins(), 1);
        assert_eq!(CellKind::Mux2.input_pins(), 3);
        assert_eq!(CellKind::Aoi22.input_pins(), 4);
        assert_eq!(CellKind::Dff.input_pins(), 1);
    }

    #[test]
    fn dff_dominates_area() {
        // Buffer-dominated components rely on this ordering.
        for cell in ALL {
            if cell != CellKind::Dff {
                assert!(CellKind::Dff.base_area_um2() > cell.base_area_um2());
            }
        }
    }

    #[test]
    fn energy_scales_with_size() {
        assert!(energy_fj(CellKind::Dff, 4) > energy_fj(CellKind::Dff, 1));
        assert!(leakage_nw(CellKind::Inv, 8) == 8.0 * CellKind::Inv.leakage_nw());
    }
}
