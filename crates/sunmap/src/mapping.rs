//! Application mapping: placing cores onto mesh slots.
//!
//! The SunMap stage "Mapping Onto Topologies": a greedy constructive
//! placement (heaviest-communicating cores first, each at the slot
//! minimising bandwidth-weighted hop cost) refined by simulated
//! annealing (random pairwise swaps under a geometric cooling schedule).

use std::collections::HashMap;

use xpipes_sim::SimRng;
use xpipes_topology::appgraph::CoreId;
use xpipes_topology::builders::{mesh, torus};
use xpipes_topology::spec::NocSpec;
use xpipes_topology::{TaskGraph, TopologyError};

/// Regular grid family a mapping is instantiated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GridKind {
    /// 2-D mesh.
    Mesh,
    /// 2-D torus (mesh plus wrap-around links).
    Torus,
}

use xpipes_traffic::appdriven::{INITIATOR_SUFFIX, TARGET_SUFFIX};

/// A placement of cores onto the slots of a `cols`×`rows` mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshMapping {
    /// Grid width.
    pub cols: usize,
    /// Grid height.
    pub rows: usize,
    /// Slot (grid cell index, `y*cols+x`) per core.
    pub slot_of: Vec<usize>,
}

impl MeshMapping {
    /// Grid coordinate of a core.
    pub fn coord_of(&self, core: CoreId) -> (usize, usize) {
        let slot = self.slot_of[core.0];
        (slot % self.cols, slot / self.cols)
    }

    /// Manhattan hop distance between two cores' switches.
    pub(crate) fn hops(&self, a: CoreId, b: CoreId) -> usize {
        let (ax, ay) = self.coord_of(a);
        let (bx, by) = self.coord_of(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Bandwidth-weighted communication cost of the mapping: the SunMap
    /// objective Σ bandwidth × (hops + 1).
    pub fn cost(&self, graph: &TaskGraph) -> f64 {
        graph
            .flows()
            .iter()
            .map(|f| f.bandwidth_mbps * (self.hops(f.src, f.dst) + 1) as f64)
            .sum()
    }

    /// Number of cores placed on each slot.
    pub fn occupancy(&self) -> Vec<usize> {
        let mut occ = vec![0usize; self.cols * self.rows];
        for &s in &self.slot_of {
            occ[s] += 1;
        }
        occ
    }
}

/// Maps `graph` onto a `cols`×`rows` mesh, at most `cap` cores per switch.
///
/// # Errors
///
/// [`TopologyError::EmptyDimension`] when the grid has no slots or too
/// little total capacity for the cores.
pub fn map_to_mesh(
    graph: &TaskGraph,
    cols: usize,
    rows: usize,
    cap: usize,
    seed: u64,
) -> Result<MeshMapping, TopologyError> {
    let slots = cols * rows;
    if slots == 0 || cap == 0 || slots * cap < graph.core_count() {
        return Err(TopologyError::EmptyDimension);
    }
    let mut rng = SimRng::seed(seed);

    // Order cores by total communication volume, heaviest first.
    let mut volume: HashMap<CoreId, f64> = HashMap::new();
    for f in graph.flows() {
        *volume.entry(f.src).or_insert(0.0) += f.bandwidth_mbps;
        *volume.entry(f.dst).or_insert(0.0) += f.bandwidth_mbps;
    }
    let mut order: Vec<CoreId> = graph.cores().collect();
    order.sort_by(|a, b| {
        let va = volume.get(a).copied().unwrap_or(0.0);
        let vb = volume.get(b).copied().unwrap_or(0.0);
        vb.partial_cmp(&va).expect("finite volumes")
    });

    // Greedy constructive placement.
    let mut slot_of = vec![usize::MAX; graph.core_count()];
    let mut occupancy = vec![0usize; slots];
    for &core in &order {
        let mut best = None;
        let mut best_cost = f64::INFINITY;
        #[allow(clippy::needless_range_loop)]
        for slot in 0..slots {
            if occupancy[slot] >= cap {
                continue;
            }
            let (sx, sy) = (slot % cols, slot / cols);
            let mut cost = 0.0;
            for f in graph.flows() {
                let other = if f.src == core {
                    f.dst
                } else if f.dst == core {
                    f.src
                } else {
                    continue;
                };
                if slot_of[other.0] != usize::MAX {
                    let os = slot_of[other.0];
                    let (ox, oy) = (os % cols, os / cols);
                    cost += f.bandwidth_mbps * (sx.abs_diff(ox) + sy.abs_diff(oy)) as f64;
                }
            }
            // Mild preference for central slots when unconstrained.
            let center_bias = (sx.abs_diff(cols / 2) + sy.abs_diff(rows / 2)) as f64 * 1e-3;
            let cost = cost + center_bias;
            if cost < best_cost {
                best_cost = cost;
                best = Some(slot);
            }
        }
        let slot = best.expect("capacity checked above");
        slot_of[core.0] = slot;
        occupancy[slot] += 1;
    }
    let mut mapping = MeshMapping {
        cols,
        rows,
        slot_of,
    };

    // Simulated-annealing refinement: random swaps / moves.
    let mut cost = mapping.cost(graph);
    let mut temp = cost * 0.05 + 1.0;
    let iterations = 300 * graph.core_count().max(4);
    for _ in 0..iterations {
        let a = CoreId(rng.below(graph.core_count()));
        let new_slot = rng.below(slots);
        let old_slot = mapping.slot_of[a.0];
        if new_slot == old_slot {
            continue;
        }
        // Move, or swap with a random occupant if the slot is full (a
        // swap leaves `occupancy` as it was).
        let mut swapped: Option<CoreId> = None;
        if occupancy[new_slot] >= cap {
            let k = rng.below(occupancy[new_slot]);
            let mut occupants = graph.cores().filter(|c| mapping.slot_of[c.0] == new_slot);
            let victim = occupants.nth(k).expect("slot holds its count");
            mapping.slot_of[victim.0] = old_slot;
            swapped = Some(victim);
        } else {
            occupancy[old_slot] -= 1;
            occupancy[new_slot] += 1;
        }
        mapping.slot_of[a.0] = new_slot;
        let new_cost = mapping.cost(graph);
        let accept = new_cost <= cost || rng.chance(((cost - new_cost) / temp).exp());
        if accept {
            cost = new_cost;
        } else {
            mapping.slot_of[a.0] = old_slot;
            match swapped {
                Some(v) => mapping.slot_of[v.0] = new_slot,
                None => {
                    occupancy[old_slot] += 1;
                    occupancy[new_slot] -= 1;
                }
            }
        }
        temp *= 0.999;
    }
    Ok(mapping)
}

/// Builds a complete [`NocSpec`] from a mapping: a mesh topology with one
/// initiator NI per master role and one target NI (with a 1 MiB address
/// window) per slave role, named `<core>#i` / `<core>#t` per the traffic
/// convention.
///
/// # Errors
///
/// Propagates attachment errors (e.g. too many cores on one switch).
pub fn build_spec(
    graph: &TaskGraph,
    mapping: &MeshMapping,
    flit_width: u32,
) -> Result<NocSpec, TopologyError> {
    build_spec_grid(graph, mapping, flit_width, GridKind::Mesh)
}

/// Like [`build_spec`], but choosing the grid family (mesh or torus).
///
/// # Errors
///
/// Propagates attachment errors (e.g. too many cores on one switch).
pub(crate) fn build_spec_grid(
    graph: &TaskGraph,
    mapping: &MeshMapping,
    flit_width: u32,
    kind: GridKind,
) -> Result<NocSpec, TopologyError> {
    let mut b = match kind {
        GridKind::Mesh => mesh(mapping.cols, mapping.rows)?,
        GridKind::Torus => torus(mapping.cols, mapping.rows)?,
    };
    let mut targets = Vec::new();
    for core in graph.cores() {
        let name = graph.core_name(core).unwrap_or_default().to_string();
        let kind = graph.core_kind(core).expect("core exists");
        let at = mapping.coord_of(core);
        if kind.can_initiate() {
            b.attach_initiator(format!("{name}{INITIATOR_SUFFIX}"), at)?;
        }
        if kind.can_serve() {
            let ni = b.attach_target(format!("{name}{TARGET_SUFFIX}"), at)?;
            targets.push(ni);
        }
    }
    let mut spec = NocSpec::new(graph.name(), b.into_topology());
    spec.flit_width = flit_width;
    for (i, ni) in targets.into_iter().enumerate() {
        spec.map_address(ni, (i as u64) << 20, 1 << 20)
            .map_err(|_| TopologyError::EmptyDimension)?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use xpipes_topology::{CoreKind, NiKind};

    #[test]
    fn mapping_respects_capacity() {
        let g = apps::d26_media_soc().expect("app builds");
        let m = map_to_mesh(&g, 3, 4, 2, 1).unwrap();
        assert!(m.occupancy().iter().all(|&o| o <= 2));
        assert_eq!(m.slot_of.len(), 19);
    }

    #[test]
    fn insufficient_capacity_rejected() {
        let g = apps::d26_media_soc().expect("app builds"); // 19 cores
        assert!(map_to_mesh(&g, 3, 3, 2, 1).is_err()); // 18 slots*cap
        assert!(map_to_mesh(&g, 0, 4, 2, 1).is_err());
    }

    #[test]
    fn annealed_cost_beats_random() {
        let g = apps::vopd().expect("app builds");
        let good = map_to_mesh(&g, 3, 4, 1, 7).unwrap();
        // A deliberately poor mapping: identity order, round-robin slots
        // reversed (pipeline neighbours scattered).
        let mut bad_slots = Vec::new();
        for i in 0..g.core_count() {
            bad_slots.push((i * 5) % 12);
        }
        let bad = MeshMapping {
            cols: 3,
            rows: 4,
            slot_of: bad_slots,
        };
        assert!(
            good.cost(&g) < bad.cost(&g),
            "annealed {} vs scattered {}",
            good.cost(&g),
            bad.cost(&g)
        );
    }

    #[test]
    fn heavy_pairs_end_up_adjacent() {
        let g = apps::vopd().expect("app builds");
        let m = map_to_mesh(&g, 3, 4, 1, 3).unwrap();
        // The heaviest flows (≥300 MB/s) should average under 2 hops.
        let heavy: Vec<_> = g
            .flows()
            .iter()
            .filter(|f| f.bandwidth_mbps >= 300.0)
            .collect();
        let avg: f64 = heavy
            .iter()
            .map(|f| m.hops(f.src, f.dst) as f64)
            .sum::<f64>()
            / heavy.len() as f64;
        assert!(avg < 2.0, "avg heavy-flow hops {avg}");
    }

    #[test]
    fn cost_is_bandwidth_weighted() {
        let mut g = TaskGraph::new("t");
        let a = g.add_core("a", CoreKind::Initiator);
        let b2 = g.add_core("b", CoreKind::Target);
        g.add_flow(a, b2, 100.0).unwrap();
        let near = MeshMapping {
            cols: 2,
            rows: 1,
            slot_of: vec![0, 0],
        };
        let far = MeshMapping {
            cols: 2,
            rows: 1,
            slot_of: vec![0, 1],
        };
        assert_eq!(near.cost(&g), 100.0);
        assert_eq!(far.cost(&g), 200.0);
    }

    #[test]
    fn build_spec_attaches_roles() {
        let g = apps::d26_media_soc().expect("app builds");
        let m = map_to_mesh(&g, 3, 4, 2, 1).unwrap();
        let spec = build_spec(&g, &m, 32).unwrap();
        assert_eq!(spec.topology.nis_of_kind(NiKind::Initiator).count(), 8);
        assert_eq!(spec.topology.nis_of_kind(NiKind::Target).count(), 11);
        assert!(spec.validate().is_ok());
        assert!(spec.topology.ni_by_name("arm0#i").is_some());
        assert!(spec.topology.ni_by_name("sdram0#t").is_some());
    }

    #[test]
    fn build_spec_for_both_cores_gets_two_nis() {
        let g = apps::vopd().expect("app builds"); // all Both except none
        let m = map_to_mesh(&g, 4, 4, 1, 1).unwrap();
        let spec = build_spec(&g, &m, 32).unwrap();
        // 12 cores, all Both → 12 initiators + 12 targets.
        assert_eq!(spec.topology.nis().len(), 24);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn torus_spec_has_more_links_than_mesh() {
        let g = apps::mwd().expect("app builds");
        let m = map_to_mesh(&g, 3, 4, 1, 5).unwrap();
        let mesh_spec = build_spec_grid(&g, &m, 32, GridKind::Mesh).unwrap();
        let torus_spec = build_spec_grid(&g, &m, 32, GridKind::Torus).unwrap();
        assert!(torus_spec.topology.links().len() > mesh_spec.topology.links().len());
        assert!(torus_spec.validate().is_ok());
        // Wrap links shorten worst-case paths.
        assert!(
            torus_spec.topology.avg_initiator_target_hops()
                <= mesh_spec.topology.avg_initiator_target_hops()
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = apps::mwd().expect("app builds");
        let a = map_to_mesh(&g, 3, 4, 1, 5).unwrap();
        let b = map_to_mesh(&g, 3, 4, 1, 5).unwrap();
        assert_eq!(a, b);
    }
}
