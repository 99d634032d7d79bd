//! Routing-function co-design analysis.
//!
//! Computes the bandwidth each physical link carries under the
//! application's flows and the chosen (shortest-path source) routes. The
//! selection stage uses the imbalance metric to prefer topologies whose
//! routing spreads load; custom topologies are generated so heavy flows
//! get short, private paths.

use std::collections::HashMap;

use xpipes::{Elaboration, XpipesError};
use xpipes_topology::spec::NocSpec;
use xpipes_topology::{NiId, PortId, SwitchId, TaskGraph};

use xpipes_traffic::appdriven::{INITIATOR_SUFFIX, TARGET_SUFFIX};

/// Bandwidth (MB/s) per directed link, keyed by (source switch, output
/// port).
pub(crate) type LinkLoads = HashMap<(SwitchId, PortId), f64>;

/// Summary metrics over the link-load distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Heaviest link load in MB/s.
    pub max_mbps: f64,
    /// Mean load over loaded links in MB/s.
    pub mean_mbps: f64,
    /// `max / mean` — 1.0 is perfectly balanced.
    pub imbalance: f64,
    /// Number of links carrying any traffic.
    pub loaded_links: usize,
}

/// Computes per-link bandwidth loads for `graph` mapped on the elaborated
/// specification, along its elaborated routes.
///
/// # Errors
///
/// [`XpipesError::UnknownNi`] when a flow endpoint has no NI in the
/// specification.
pub fn link_loads(elab: &Elaboration, graph: &TaskGraph) -> Result<LinkLoads, XpipesError> {
    let (spec, tables) = (elab.spec, &elab.tables);
    let mut loads: LinkLoads = HashMap::new();
    for flow in graph.flows() {
        let src = ni_of(
            spec,
            graph.core_name(flow.src).unwrap_or_default(),
            INITIATOR_SUFFIX,
        )?;
        let dst = ni_of(
            spec,
            graph.core_name(flow.dst).unwrap_or_default(),
            TARGET_SUFFIX,
        )?;
        let route = tables.route(src, dst).ok_or(XpipesError::UnknownNi(dst))?;
        // Walk the route through the topology, loading each traversed
        // link (the final hop is the ejection port; count it too — it is
        // the switch-to-NI link).
        let mut cur = spec
            .topology
            .ni(src)
            .ok_or(XpipesError::UnknownNi(src))?
            .switch;
        for (i, hop) in route.hops().iter().enumerate() {
            *loads.entry((cur, *hop)).or_insert(0.0) += flow.bandwidth_mbps;
            if i + 1 < route.hops().len() {
                let link = spec
                    .topology
                    .out_links(cur)
                    .find(|l| l.from_port == *hop)
                    .ok_or(XpipesError::ReassemblyError("route leaves topology"))?;
                cur = link.to;
            }
        }
    }
    Ok(loads)
}

/// Summarises a load map.
pub fn load_report(loads: &LinkLoads) -> LoadReport {
    if loads.is_empty() {
        return LoadReport {
            max_mbps: 0.0,
            mean_mbps: 0.0,
            imbalance: 1.0,
            loaded_links: 0,
        };
    }
    let max = loads.values().copied().fold(0.0, f64::max);
    let mean = loads.values().sum::<f64>() / loads.len() as f64;
    LoadReport {
        max_mbps: max,
        mean_mbps: mean,
        imbalance: if mean > 0.0 { max / mean } else { 1.0 },
        loaded_links: loads.len(),
    }
}

/// Recommends per-switch output-queue depths from the link-load profile:
/// switches sourcing above-average load get proportionally deeper queues
/// (capped at 2× the base) — the xpipesCompiler's "Component
/// Optimizations: Buffer Sizes" stage.
///
/// # Errors
///
/// Propagates load-analysis failures.
pub(crate) fn recommend_queue_depths(
    spec: &NocSpec,
    graph: &TaskGraph,
    base_depth: u32,
) -> Result<std::collections::HashMap<SwitchId, u32>, XpipesError> {
    let loads = link_loads(&Elaboration::new(spec)?, graph)?;
    let report = load_report(&loads);
    let mut per_switch: std::collections::HashMap<SwitchId, f64> = std::collections::HashMap::new();
    for ((sw, _port), mbps) in &loads {
        let e = per_switch.entry(*sw).or_insert(0.0);
        *e = e.max(*mbps);
    }
    let mean = report.mean_mbps.max(1e-9);
    let mut depths = std::collections::HashMap::new();
    for (sw, load) in per_switch {
        let scale = (load / mean).clamp(1.0, 2.0);
        let depth = ((base_depth as f64) * scale).round() as u32;
        if depth > base_depth {
            depths.insert(sw, depth.max(2));
        }
    }
    Ok(depths)
}

fn ni_of(spec: &NocSpec, core: &str, suffix: &str) -> Result<NiId, XpipesError> {
    let suffixed = format!("{core}{suffix}");
    spec.topology
        .ni_by_name(&suffixed)
        .or_else(|| spec.topology.ni_by_name(core))
        .map(|a| a.ni)
        .ok_or(XpipesError::UnknownNi(NiId(usize::MAX)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::mapping::{build_spec, map_to_mesh};

    fn setup() -> (NocSpec, TaskGraph) {
        let g = apps::vopd().expect("app builds");
        let m = map_to_mesh(&g, 3, 4, 1, 3).unwrap();
        let spec = build_spec(&g, &m, 32).unwrap();
        (spec, g)
    }

    #[test]
    fn loads_cover_all_flows() {
        let (spec, g) = setup();
        let loads = link_loads(&Elaboration::new(&spec).unwrap(), &g).unwrap();
        assert!(!loads.is_empty());
        // Total load ≥ total bandwidth (each flow loads ≥1 link: its
        // ejection hop).
        let total: f64 = loads.values().sum();
        assert!(total >= g.total_bandwidth());
    }

    #[test]
    fn report_metrics_consistent() {
        let (spec, g) = setup();
        let loads = link_loads(&Elaboration::new(&spec).unwrap(), &g).unwrap();
        let r = load_report(&loads);
        assert!(r.max_mbps >= r.mean_mbps);
        assert!(r.imbalance >= 1.0);
        assert_eq!(r.loaded_links, loads.len());
    }

    #[test]
    fn empty_loads_report() {
        let r = load_report(&LinkLoads::new());
        assert_eq!(r.loaded_links, 0);
        assert_eq!(r.imbalance, 1.0);
    }

    #[test]
    fn better_mapping_lowers_max_load() {
        let g = apps::vopd().expect("app builds");
        let good = {
            let m = map_to_mesh(&g, 3, 4, 1, 3).unwrap();
            let spec = build_spec(&g, &m, 32).unwrap();
            load_report(&link_loads(&Elaboration::new(&spec).unwrap(), &g).unwrap()).max_mbps
        };
        // A scattered mapping forces heavy flows across the mesh,
        // concentrating load on central links.
        let bad = {
            let slot_of: Vec<usize> = (0..g.core_count()).map(|i| (i * 5) % 12).collect();
            let m = crate::mapping::MeshMapping {
                cols: 3,
                rows: 4,
                slot_of,
            };
            let spec = build_spec(&g, &m, 32).unwrap();
            load_report(&link_loads(&Elaboration::new(&spec).unwrap(), &g).unwrap()).max_mbps
        };
        assert!(good <= bad, "good {good} bad {bad}");
    }

    #[test]
    fn queue_recommendations_target_hot_switches() {
        let (mut spec, g) = setup();
        let depths = recommend_queue_depths(&spec, &g, 6).unwrap();
        assert!(
            !depths.is_empty(),
            "VOPD load is uneven: some switch must deepen"
        );
        for (&sw, &d) in &depths {
            assert!((7..=12).contains(&d), "depth {d}");
            spec.set_queue_depth(sw, d).unwrap();
        }
        // The optimized spec still instantiates and validates.
        assert!(spec.validate().is_ok());
        // The hottest switch (most loaded outgoing link) got the deepest queue.
        let loads = link_loads(&Elaboration::new(&spec).unwrap(), &g).unwrap();
        let (hot, _) = loads
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!(
            depths.contains_key(&hot.0),
            "hottest switch {:?} missing from {depths:?}",
            hot.0
        );
    }

    #[test]
    fn missing_core_errors() {
        let (spec, _) = setup();
        let mut g2 = TaskGraph::new("ghost");
        let a = g2.add_core("nosuch", xpipes_topology::CoreKind::Initiator);
        let b = g2.add_core("vld", xpipes_topology::CoreKind::Target);
        g2.add_flow(a, b, 1.0).unwrap();
        assert!(link_loads(&Elaboration::new(&spec).unwrap(), &g2).is_err());
    }
}
