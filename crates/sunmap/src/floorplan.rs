//! Floorplanning: placement, link lengths and wire-delay derating.
//!
//! The SunMap flow consults a floorplanner when evaluating candidate
//! topologies: component macros are placed on a grid, link lengths follow
//! from placement, and long wires derate the achievable clock (at 130 nm
//! a repeated global wire costs roughly 0.5 ns/mm — a link much longer
//! than a tile pitch caps the clock below the component fmax).

use std::collections::HashMap;

use xpipes_topology::spec::NocSpec;
use xpipes_topology::SwitchId;

/// Wire delay per millimetre for repeated global wires at 130 nm, in ps.
pub(crate) const WIRE_PS_PER_MM: f64 = 500.0;

/// Tile pitch assumed for one mesh slot, in millimetres.
pub(crate) const TILE_PITCH_MM: f64 = 1.0;

/// A computed floorplan.
#[derive(Debug, Clone)]
pub struct Floorplan {
    /// Switch position in millimetres.
    pub position_mm: HashMap<SwitchId, (f64, f64)>,
    /// Longest link in millimetres.
    pub max_link_mm: f64,
    /// Total half-perimeter wire length across links, in millimetres.
    pub total_wire_mm: f64,
}

impl Floorplan {
    /// The highest clock the longest wire supports within one cycle per
    /// pipeline stage, in MHz.
    pub(crate) fn wire_limited_fmax_mhz(&self, pipeline_stages_per_link: u32) -> f64 {
        if self.max_link_mm <= 0.0 {
            return f64::INFINITY;
        }
        let ps = self.max_link_mm * WIRE_PS_PER_MM / pipeline_stages_per_link.max(1) as f64;
        1.0e6 / ps
    }

    /// Derates a component fmax by the wire limit.
    pub(crate) fn derate(&self, component_fmax_mhz: f64, pipeline_stages_per_link: u32) -> f64 {
        component_fmax_mhz.min(self.wire_limited_fmax_mhz(pipeline_stages_per_link))
    }
}

/// Places the switches of `spec` and measures its links.
///
/// Mesh-built topologies carry grid names (`sw_x_y`) and are placed at
/// their grid coordinates; other topologies fall back to a square
/// raster in switch-id order (the classic quick floorplan estimate).
/// Link lengths are written back into the returned plan (half-perimeter
/// Manhattan estimate).
pub fn floorplan(spec: &NocSpec) -> Floorplan {
    let topo = &spec.topology;
    let n = topo.switch_count().max(1);
    let side = (n as f64).sqrt().ceil() as usize;
    let mut position_mm = HashMap::new();
    for s in topo.switches() {
        let name = topo.switch_name(s).unwrap_or("");
        let coord = parse_grid_name(name).unwrap_or((s.0 % side, s.0 / side));
        position_mm.insert(
            s,
            (
                coord.0 as f64 * TILE_PITCH_MM,
                coord.1 as f64 * TILE_PITCH_MM,
            ),
        );
    }
    let mut max_link: f64 = 0.0;
    let mut total: f64 = 0.0;
    for l in topo.links() {
        let (ax, ay) = position_mm[&l.from];
        let (bx, by) = position_mm[&l.to];
        let len = (ax - bx).abs() + (ay - by).abs();
        max_link = max_link.max(len);
        total += len;
    }
    Floorplan {
        position_mm,
        max_link_mm: max_link,
        total_wire_mm: total,
    }
}

fn parse_grid_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix("sw_")?;
    let (x, y) = rest.split_once('_')?;
    Some((x.parse().ok()?, y.parse().ok()?))
}

/// Improves a floorplan by greedy pairwise position swaps: repeatedly
/// exchange two switches when it shortens total wire length. Converges
/// quickly for the small (≤ tens of switches) NoCs of this flow and
/// tightens custom topologies whose raster placement scatters
/// communicating clusters.
pub fn optimize(spec: &NocSpec, plan: &Floorplan) -> Floorplan {
    let topo = &spec.topology;
    let mut position = plan.position_mm.clone();
    let switches: Vec<SwitchId> = topo.switches().collect();
    let wire = |pos: &HashMap<SwitchId, (f64, f64)>| -> (f64, f64) {
        let mut total = 0.0;
        let mut max: f64 = 0.0;
        for l in topo.links() {
            let (ax, ay) = pos[&l.from];
            let (bx, by) = pos[&l.to];
            let len = (ax - bx).abs() + (ay - by).abs();
            total += len;
            max = max.max(len);
        }
        (total, max)
    };
    let (mut best_total, _) = wire(&position);
    // Greedy passes: O(n²) swaps per pass, few passes needed.
    for _pass in 0..8 {
        let mut improved = false;
        for i in 0..switches.len() {
            for j in i + 1..switches.len() {
                let (a, b) = (switches[i], switches[j]);
                let (pa, pb) = (position[&a], position[&b]);
                position.insert(a, pb);
                position.insert(b, pa);
                let (total, _) = wire(&position);
                if total + 1e-12 < best_total {
                    best_total = total;
                    improved = true;
                } else {
                    position.insert(a, pa);
                    position.insert(b, pb);
                }
            }
        }
        if !improved {
            break;
        }
    }
    let (total_wire_mm, max_link_mm) = wire(&position);
    Floorplan {
        position_mm: position,
        max_link_mm,
        total_wire_mm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_topology::builders::{mesh, ring};
    use xpipes_topology::Topology;

    #[test]
    fn mesh_uses_grid_coordinates() {
        let b = mesh(3, 2).unwrap();
        let spec = NocSpec::new("m", b.into_topology());
        let plan = floorplan(&spec);
        assert_eq!(plan.position_mm[&SwitchId(0)], (0.0, 0.0));
        assert_eq!(plan.position_mm[&SwitchId(4)], (1.0, 1.0));
        // All mesh links span one tile pitch.
        assert_eq!(plan.max_link_mm, TILE_PITCH_MM);
        // 7 bidi links = 14 edges × 1mm.
        assert_eq!(plan.total_wire_mm, 14.0);
    }

    #[test]
    fn ring_raster_creates_long_wrap_wires() {
        let spec = NocSpec::new("r", ring(9).unwrap());
        let plan = floorplan(&spec);
        // 3x3 raster: the closing ring link crosses the raster.
        assert!(plan.max_link_mm > TILE_PITCH_MM);
    }

    #[test]
    fn wire_limit_caps_frequency() {
        let b = mesh(2, 2).unwrap();
        let spec = NocSpec::new("m", b.into_topology());
        let plan = floorplan(&spec);
        // 1 mm at 500 ps/mm → 2 GHz cap with 1 stage.
        let cap = plan.wire_limited_fmax_mhz(1);
        assert!((cap - 2000.0).abs() < 1.0, "{cap}");
        assert_eq!(plan.derate(1500.0, 1), 1500.0);
        assert_eq!(plan.derate(2500.0, 1), cap);
        // Extra pipeline stages raise the cap.
        assert!(plan.wire_limited_fmax_mhz(2) > cap);
    }

    #[test]
    fn empty_topology_is_unconstrained() {
        let spec = NocSpec::new("e", Topology::new());
        let plan = floorplan(&spec);
        assert_eq!(plan.max_link_mm, 0.0);
        assert_eq!(plan.wire_limited_fmax_mhz(1), f64::INFINITY);
    }

    #[test]
    fn optimize_shortens_ring_wires() {
        let spec = NocSpec::new("r", ring(9).unwrap());
        let raster = floorplan(&spec);
        let tuned = optimize(&spec, &raster);
        assert!(tuned.total_wire_mm <= raster.total_wire_mm);
        assert!(tuned.max_link_mm <= raster.max_link_mm);
        // A 9-ring on a 3x3 raster can be placed as a cycle with unit or
        // near-unit hops: the optimizer should get close.
        assert!(
            tuned.total_wire_mm < raster.total_wire_mm,
            "greedy must find a swap"
        );
    }

    #[test]
    fn optimize_leaves_mesh_untouched() {
        let b = mesh(3, 3).unwrap();
        let spec = NocSpec::new("m", b.into_topology());
        let plan = floorplan(&spec);
        let tuned = optimize(&spec, &plan);
        // Grid placement is already optimal for a mesh.
        assert_eq!(tuned.total_wire_mm, plan.total_wire_mm);
    }

    #[test]
    fn grid_name_parsing() {
        assert_eq!(parse_grid_name("sw_2_3"), Some((2, 3)));
        assert_eq!(parse_grid_name("hub"), None);
        assert_eq!(parse_grid_name("sw_x_1"), None);
    }
}
