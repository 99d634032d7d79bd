//! Source routing: per-hop port paths and whole-network routing tables.
//!
//! xpipes Lite switches perform **source-based routing**: the packet header
//! carries the entire path as a string of 4-bit output-port indices; each
//! switch consumes the lowest field and shifts the rest. The initiator NI
//! obtains the path from its LUT, indexed by the transaction address after
//! decode (the paper's "from MAddr after LUT").

use std::collections::BTreeMap;
use std::fmt;

use crate::graph::{NiId, NiKind, PortId, Topology, TopologyError};

/// Bits per hop in the header's route field.
pub(crate) const BITS_PER_HOP: u32 = 4;

/// Maximum number of hops a single header route field can carry (28 route
/// bits in the ~50-bit header).
pub const MAX_HOPS: usize = 7;

/// A source route: the output port to take at each switch along the path,
/// ending with the ejection port at the destination switch.
///
/// # Examples
///
/// ```
/// use xpipes_topology::route::SourceRoute;
/// use xpipes_topology::PortId;
///
/// let route = SourceRoute::new(vec![PortId(2), PortId(3), PortId(0)]).unwrap();
/// let bits = route.encode();
/// let (first, rest) = SourceRoute::consume(bits);
/// assert_eq!(first, PortId(2));
/// let (second, _) = SourceRoute::consume(rest);
/// assert_eq!(second, PortId(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SourceRoute {
    hops: Vec<PortId>,
}

impl SourceRoute {
    /// Creates a route from hop ports.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::PortOutOfRange`] if any hop exceeds 4 bits.
    /// * [`TopologyError::EmptyDimension`] if `hops` is empty (a route
    ///   always contains at least the ejection port).
    pub fn new(hops: Vec<PortId>) -> Result<Self, TopologyError> {
        if hops.is_empty() {
            return Err(TopologyError::EmptyDimension);
        }
        for h in &hops {
            if h.0 > PortId::MAX {
                return Err(TopologyError::PortOutOfRange(h.0));
            }
        }
        Ok(SourceRoute { hops })
    }

    /// The hop sequence.
    pub fn hops(&self) -> &[PortId] {
        &self.hops
    }

    /// Packs the route into the header's route field, first hop in the
    /// least-significant bits.
    pub fn encode(&self) -> u32 {
        let mut bits = 0u32;
        for (i, hop) in self.hops.iter().enumerate().take(8) {
            bits |= (hop.0 as u32) << (i as u32 * BITS_PER_HOP);
        }
        bits
    }

    /// Switch-side route consumption: extract the next output port and
    /// shift the remaining field down, exactly as the RTL does.
    pub fn consume(bits: u32) -> (PortId, u32) {
        (PortId((bits & 0xF) as u8), bits >> BITS_PER_HOP)
    }

    /// Rebuilds a route of known hop count from an encoded field.
    pub fn decode(mut bits: u32, len: usize) -> Self {
        let mut hops = Vec::with_capacity(len);
        for _ in 0..len {
            let (p, rest) = Self::consume(bits);
            hops.push(p);
            bits = rest;
        }
        SourceRoute { hops }
    }
}

impl fmt::Display for SourceRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.hops.iter().map(|p| p.0.to_string()).collect();
        write!(f, "[{}]", parts.join("→"))
    }
}

/// Grid coordinate of a builder-named switch (`sw_<x>_<y>`).
fn grid_coord(topo: &Topology, s: crate::graph::SwitchId) -> Option<(i64, i64)> {
    let name = topo.switch_name(s)?;
    let rest = name.strip_prefix("sw_")?;
    let (x, y) = rest.split_once('_')?;
    Some((x.parse().ok()?, y.parse().ok()?))
}

/// Dimension-ordered route between two grid switches, or `None` when the
/// topology is not a builder grid (names/links don't match) — callers
/// then fall back to generic shortest paths.
fn xy_route(
    topo: &Topology,
    from: crate::graph::SwitchId,
    to: crate::graph::SwitchId,
) -> Option<Vec<PortId>> {
    let (mut x, mut y) = grid_coord(topo, from)?;
    let (tx, ty) = grid_coord(topo, to)?;
    let mut hops = Vec::new();
    let mut cur = from;
    let step =
        |cur: &mut crate::graph::SwitchId, hops: &mut Vec<PortId>, port: PortId| -> Option<()> {
            let link = topo.out_links(*cur).find(|l| l.from_port == port)?;
            hops.push(port);
            *cur = link.to;
            Some(())
        };
    // X dimension first (ports 0 = East, 1 = West per the grid
    // builders). The walk is strictly monotone toward the target, so
    // torus wrap links are never taken: XY stays deadlock-free at the
    // cost of ignoring wrap shortcuts (VC-less wormhole rings deadlock).
    while x != tx {
        let east = tx > x;
        let port = if east { PortId(0) } else { PortId(1) };
        step(&mut cur, &mut hops, port)?;
        let (nx, ny) = grid_coord(topo, cur)?;
        if ny != y || (nx - tx).abs() >= (x - tx).abs() {
            return None; // link structure is not the expected grid
        }
        x = nx;
    }
    // Then Y (2 = North, 3 = South).
    while y != ty {
        let south = ty > y;
        let port = if south { PortId(3) } else { PortId(2) };
        step(&mut cur, &mut hops, port)?;
        let (nx, ny) = grid_coord(topo, cur)?;
        if nx != tx || (ny - ty).abs() >= (y - ty).abs() {
            return None;
        }
        y = ny;
    }
    (cur == to).then_some(hops)
}

/// Precomputed routing tables for a topology: for every ordered NI pair,
/// the source route between them (requests initiator→target, responses
/// target→initiator).
///
/// These are the LUT contents the xpipesCompiler programs into each NI.
/// Kept in (source, destination) order, so a LUT lists its destinations
/// in NI order and building or dropping the tables allocates and frees in
/// the same order in every process.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    routes: BTreeMap<(NiId, NiId), SourceRoute>,
}

impl RoutingTables {
    /// Builds shortest-path routes between all initiator↔target pairs.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NoRoute`] if any initiator cannot reach any target
    /// (or vice versa for the response path).
    pub fn build(topo: &Topology) -> Result<Self, TopologyError> {
        let mut routes = BTreeMap::new();
        let initiators: Vec<_> = topo.nis_of_kind(NiKind::Initiator).cloned().collect();
        let targets: Vec<_> = topo.nis_of_kind(NiKind::Target).cloned().collect();
        for src in initiators.iter() {
            for dst in targets.iter() {
                let fwd = Self::route_between(topo, src.switch, dst.switch, dst.port).ok_or(
                    TopologyError::NoRoute {
                        from: src.ni,
                        to: dst.ni,
                    },
                )?;
                routes.insert((src.ni, dst.ni), fwd);
                let back = Self::route_between(topo, dst.switch, src.switch, src.port).ok_or(
                    TopologyError::NoRoute {
                        from: dst.ni,
                        to: src.ni,
                    },
                )?;
                routes.insert((dst.ni, src.ni), back);
            }
        }
        Ok(RoutingTables { routes })
    }

    fn route_between(
        topo: &Topology,
        from: crate::graph::SwitchId,
        to: crate::graph::SwitchId,
        eject_port: PortId,
    ) -> Option<SourceRoute> {
        // Grids get dimension-ordered (XY) routes: all X moves, then all
        // Y moves. XY routing is deadlock-free under wormhole switching
        // without virtual channels, which generic shortest paths are not.
        let mut hops: Vec<PortId> = match xy_route(topo, from, to) {
            Some(h) => h,
            None => topo
                .shortest_path(from, to)?
                .iter()
                .map(|l| l.from_port)
                .collect(),
        };
        hops.push(eject_port);
        SourceRoute::new(hops).ok()
    }

    /// Route from NI `from` to NI `to`, if one was computed.
    pub fn route(&self, from: NiId, to: NiId) -> Option<&SourceRoute> {
        self.routes.get(&(from, to))
    }

    /// All routes originating at `from` (that NI's LUT contents), by
    /// destination.
    pub fn lut_for(&self, from: NiId) -> impl Iterator<Item = (NiId, &SourceRoute)> {
        self.routes
            .range((from, NiId(0))..=(from, NiId(usize::MAX)))
            .map(|((_, t), r)| (*t, r))
    }

    /// The longest route in hops (determines whether multi-flit headers
    /// are needed and sizes the compiler's route field checks).
    pub fn max_hops(&self) -> usize {
        self.routes
            .values()
            .map(|r| r.hops().len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::mesh;
    use crate::graph::{NiKind, SwitchId};

    #[test]
    fn route_requires_nonempty() {
        assert!(SourceRoute::new(vec![]).is_err());
    }

    #[test]
    fn route_rejects_wide_ports() {
        assert!(SourceRoute::new(vec![PortId(16)]).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let route = SourceRoute::new(vec![PortId(1), PortId(15), PortId(0), PortId(7)]).unwrap();
        let decoded = SourceRoute::decode(route.encode(), 4);
        assert_eq!(decoded, route);
    }

    #[test]
    fn consume_matches_shift_semantics() {
        let route = SourceRoute::new(vec![PortId(3), PortId(5)]).unwrap();
        let bits = route.encode();
        let (p0, rest) = SourceRoute::consume(bits);
        let (p1, rest2) = SourceRoute::consume(rest);
        assert_eq!((p0, p1), (PortId(3), PortId(5)));
        assert_eq!(rest2, 0);
    }

    #[test]
    fn display_shows_hops() {
        let route = SourceRoute::new(vec![PortId(2), PortId(0)]).unwrap();
        assert_eq!(route.to_string(), "[2→0]");
    }

    #[test]
    fn tables_cover_all_pairs_both_ways() {
        let mut b = mesh(2, 2).unwrap();
        let cpu = b.attach_initiator("cpu", (0, 0)).unwrap();
        let mem = b.attach_target("mem", (1, 1)).unwrap();
        let topo = b.into_topology();
        let tables = RoutingTables::build(&topo).unwrap();
        assert_eq!(tables.routes.len(), 2);
        assert!(tables.route(cpu, mem).is_some());
        assert!(tables.route(mem, cpu).is_some());
        assert!(tables.route(cpu, cpu).is_none());
    }

    #[test]
    fn routes_follow_topology_edges() {
        let mut b = mesh(3, 1).unwrap();
        let cpu = b.attach_initiator("cpu", (0, 0)).unwrap();
        let mem = b.attach_target("mem", (2, 0)).unwrap();
        let topo = b.into_topology();
        let tables = RoutingTables::build(&topo).unwrap();
        let route = tables.route(cpu, mem).unwrap();
        // 2 link hops + ejection = 3 hops.
        assert_eq!(route.hops().len(), 3);
        // Walk the route through the graph and confirm it lands on mem.
        let src = topo.ni(cpu).unwrap();
        let dst = topo.ni(mem).unwrap();
        let mut cur = src.switch;
        for (i, hop) in route.hops().iter().enumerate() {
            if i + 1 == route.hops().len() {
                assert_eq!(cur, dst.switch);
                assert_eq!(*hop, dst.port);
            } else {
                let link = topo
                    .out_links(cur)
                    .find(|l| l.from_port == *hop)
                    .expect("route uses an existing link");
                cur = link.to;
            }
        }
    }

    #[test]
    fn lut_for_lists_destinations() {
        let mut b = mesh(2, 2).unwrap();
        let cpu = b.attach_initiator("cpu", (0, 0)).unwrap();
        b.attach_target("m0", (1, 0)).unwrap();
        b.attach_target("m1", (1, 1)).unwrap();
        let topo = b.into_topology();
        let tables = RoutingTables::build(&topo).unwrap();
        assert_eq!(tables.lut_for(cpu).count(), 2);
        assert!(tables.max_hops() >= 2);
    }

    #[test]
    fn luts_list_destinations_in_ni_order() {
        let mut b = mesh(3, 3).unwrap();
        let m0 = b.attach_target("m0", (2, 2)).unwrap();
        let cpu = b.attach_initiator("cpu", (1, 1)).unwrap();
        let m1 = b.attach_target("m1", (0, 0)).unwrap();
        let m2 = b.attach_target("m2", (2, 0)).unwrap();
        let tables = RoutingTables::build(&b.into_topology()).unwrap();
        let dsts: Vec<_> = tables.lut_for(cpu).map(|(dst, _)| dst).collect();
        assert_eq!(dsts, [m0, m1, m2]);
        let back: Vec<_> = tables.lut_for(m1).map(|(dst, _)| dst).collect();
        assert_eq!(back, [cpu]);
    }

    #[test]
    fn mesh_routes_are_dimension_ordered() {
        // Every initiator→target route on a mesh must make all its X
        // moves (ports 0/1) before any Y move (ports 2/3): the XY
        // deadlock-freedom discipline.
        let mut b = mesh(4, 4).unwrap();
        let mut inis = Vec::new();
        let mut tgts = Vec::new();
        for i in 0..4 {
            inis.push(b.attach_initiator(format!("c{i}"), (i, i % 2)).unwrap());
            tgts.push(
                b.attach_target(format!("m{i}"), (3 - i, 2 + i % 2))
                    .unwrap(),
            );
        }
        let topo = b.into_topology();
        let tables = RoutingTables::build(&topo).unwrap();
        for &src in &inis {
            for &dst in &tgts {
                let route = tables.route(src, dst).unwrap();
                let hops = route.hops();
                // Drop the ejection hop; check X-before-Y on the rest.
                let transit = &hops[..hops.len() - 1];
                let mut seen_y = false;
                for p in transit {
                    match p.0 {
                        0 | 1 => {
                            assert!(!seen_y, "{src:?}->{dst:?}: X move after Y in {route}")
                        }
                        2 | 3 => seen_y = true,
                        other => panic!("unexpected transit port {other}"),
                    }
                }
            }
        }
    }

    #[test]
    fn xy_route_matches_manhattan_length() {
        let b = mesh(5, 5).unwrap();
        let topo = b.into_topology();
        for (from, to, expect) in [
            (SwitchId(0), SwitchId(24), 8), // corner to corner: 4+4
            (SwitchId(7), SwitchId(7), 0),
            (SwitchId(3), SwitchId(15), 6), // (3,0) -> (0,3): 3+3
        ] {
            let hops = xy_route(&topo, from, to).expect("grid route");
            assert_eq!(hops.len(), expect, "{from:?}->{to:?}");
        }
    }

    #[test]
    fn non_grid_falls_back_to_bfs() {
        use crate::builders::ring;
        let mut topo = ring(5).unwrap();
        topo.attach_ni("cpu", NiKind::Initiator, SwitchId(0), PortId(2))
            .unwrap();
        topo.attach_ni("mem", NiKind::Target, SwitchId(2), PortId(2))
            .unwrap();
        let tables = RoutingTables::build(&topo).unwrap();
        assert_eq!(tables.max_hops(), 3); // 2 ring hops + ejection
    }

    #[test]
    fn disconnected_pair_is_error() {
        let mut topo = Topology::new();
        let a = topo.add_switch("a");
        let b = topo.add_switch("b");
        // no link between a and b
        topo.attach_ni("cpu", NiKind::Initiator, a, PortId(0))
            .unwrap();
        topo.attach_ni("mem", NiKind::Target, b, PortId(0)).unwrap();
        let err = RoutingTables::build(&topo).unwrap_err();
        assert!(matches!(err, TopologyError::NoRoute { .. }));
    }
}
