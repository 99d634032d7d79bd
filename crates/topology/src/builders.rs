//! Regular-topology builders: mesh, torus, ring, star, spidergon.
//!
//! These populate the topology library that SunMap's selection stage
//! iterates over; application-specific (custom) topologies are built
//! directly through [`Topology`]'s methods.

use crate::graph::{NiId, NiKind, PortId, SwitchId, Topology, TopologyError};

/// Mesh/torus direction port numbering: East.
pub(crate) const PORT_E: PortId = PortId(0);
/// West.
pub(crate) const PORT_W: PortId = PortId(1);
/// North.
pub(crate) const PORT_N: PortId = PortId(2);
/// South.
pub(crate) const PORT_S: PortId = PortId(3);

/// A 2-D grid builder produced by [`mesh`] or [`torus`]: lets callers
/// attach NIs by grid coordinate before freezing into a [`Topology`].
#[derive(Debug, Clone)]
pub struct GridBuilder {
    topo: Topology,
    cols: usize,
    rows: usize,
}

impl GridBuilder {
    /// Switch at grid coordinate `(x, y)`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::CoordOutOfRange`] for coordinates outside the grid.
    pub(crate) fn switch_at(&self, (x, y): (usize, usize)) -> Result<SwitchId, TopologyError> {
        if x >= self.cols || y >= self.rows {
            return Err(TopologyError::CoordOutOfRange { x, y });
        }
        Ok(SwitchId(y * self.cols + x))
    }

    /// Attaches an initiator NI to the switch at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Propagates coordinate and port-exhaustion errors.
    pub fn attach_initiator(
        &mut self,
        name: impl Into<String>,
        at: (usize, usize),
    ) -> Result<NiId, TopologyError> {
        let s = self.switch_at(at)?;
        self.topo.attach_ni_auto(name, NiKind::Initiator, s)
    }

    /// Attaches a target NI to the switch at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Propagates coordinate and port-exhaustion errors.
    pub fn attach_target(
        &mut self,
        name: impl Into<String>,
        at: (usize, usize),
    ) -> Result<NiId, TopologyError> {
        let s = self.switch_at(at)?;
        self.topo.attach_ni_auto(name, NiKind::Target, s)
    }

    /// Freezes the builder into the underlying topology.
    pub fn into_topology(self) -> Topology {
        self.topo
    }

    /// Borrow the topology under construction.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

/// Builds a `cols` × `rows` 2-D mesh with single-cycle pipelined links.
///
/// Grid switches use ports 0–3 for E/W/N/S neighbours; NIs attach from
/// port 4 upward.
///
/// # Errors
///
/// [`TopologyError::EmptyDimension`] when either dimension is zero.
///
/// # Examples
///
/// ```
/// use xpipes_topology::builders::mesh;
///
/// let m = mesh(3, 4).unwrap();
/// assert_eq!(m.topology().switch_count(), 12);
/// ```
pub fn mesh(cols: usize, rows: usize) -> Result<GridBuilder, TopologyError> {
    grid(cols, rows, false)
}

/// Builds a `cols` × `rows` 2-D torus (mesh plus wrap-around links).
///
/// # Errors
///
/// [`TopologyError::EmptyDimension`] when either dimension is zero.
pub fn torus(cols: usize, rows: usize) -> Result<GridBuilder, TopologyError> {
    grid(cols, rows, true)
}

fn grid(cols: usize, rows: usize, wrap: bool) -> Result<GridBuilder, TopologyError> {
    if cols == 0 || rows == 0 {
        return Err(TopologyError::EmptyDimension);
    }
    let mut topo = Topology::new();
    for y in 0..rows {
        for x in 0..cols {
            topo.add_switch(format!("sw_{x}_{y}"));
        }
    }
    let at = |x: usize, y: usize| SwitchId(y * cols + x);
    for y in 0..rows {
        for x in 0..cols {
            // East link (and wrap link from last column).
            if x + 1 < cols {
                topo.add_bidi_link(at(x, y), PORT_E, at(x + 1, y), PORT_W, 1)?;
            } else if wrap && cols > 2 {
                topo.add_bidi_link(at(x, y), PORT_E, at(0, y), PORT_W, 1)?;
            }
            // South link (and wrap link from last row).
            if y + 1 < rows {
                topo.add_bidi_link(at(x, y), PORT_S, at(x, y + 1), PORT_N, 1)?;
            } else if wrap && rows > 2 {
                topo.add_bidi_link(at(x, y), PORT_S, at(x, 0), PORT_N, 1)?;
            }
        }
    }
    Ok(GridBuilder { topo, cols, rows })
}

/// Builds an `n`-switch bidirectional ring (ports 0 = clockwise,
/// 1 = counter-clockwise; NIs from port 2).
///
/// # Errors
///
/// [`TopologyError::EmptyDimension`] when `n < 2`.
pub fn ring(n: usize) -> Result<Topology, TopologyError> {
    if n < 2 {
        return Err(TopologyError::EmptyDimension);
    }
    let mut topo = Topology::new();
    let switches: Vec<_> = (0..n)
        .map(|i| topo.add_switch(format!("ring{i}")))
        .collect();
    for i in 0..n {
        let next = (i + 1) % n;
        if n == 2 && i == 1 {
            break; // avoid doubling the single link of a 2-ring
        }
        topo.add_bidi_link(switches[i], PortId(0), switches[next], PortId(1), 1)?;
    }
    Ok(topo)
}

/// Builds a star: one hub switch and `leaves` leaf switches.
///
/// Leaf port 0 faces the hub; hub ports count up from 0. The hub radix is
/// `leaves`, so at most 16 leaves are supported.
///
/// # Errors
///
/// [`TopologyError::EmptyDimension`] for zero leaves;
/// [`TopologyError::PortOutOfRange`] above 16 leaves.
pub fn star(leaves: usize) -> Result<Topology, TopologyError> {
    if leaves == 0 {
        return Err(TopologyError::EmptyDimension);
    }
    if leaves > 16 {
        return Err(TopologyError::PortOutOfRange(leaves as u8));
    }
    let mut topo = Topology::new();
    let hub = topo.add_switch("hub");
    for i in 0..leaves {
        let leaf = topo.add_switch(format!("leaf{i}"));
        topo.add_bidi_link(hub, PortId(i as u8), leaf, PortId(0), 1)?;
    }
    Ok(topo)
}

/// Builds a balanced tree of switches with the given `arity` and number
/// of `levels` (level 0 is the single root).
///
/// Port convention: port 0 faces the parent; children occupy ports
/// 1..=arity. NIs typically attach to the leaves on the remaining ports.
///
/// # Errors
///
/// [`TopologyError::EmptyDimension`] for zero levels or zero arity;
/// [`TopologyError::PortOutOfRange`] when `arity` exceeds 14 (ports 1-15
/// must fit the children plus at least one NI port on leaves).
///
/// # Examples
///
/// ```
/// use xpipes_topology::builders::tree;
///
/// let t = tree(2, 3).unwrap(); // binary tree: 1 + 2 + 4 switches
/// assert_eq!(t.switch_count(), 7);
/// assert!(t.validate_connected().is_ok());
/// ```
pub fn tree(arity: usize, levels: usize) -> Result<Topology, TopologyError> {
    if arity == 0 || levels == 0 {
        return Err(TopologyError::EmptyDimension);
    }
    if arity > 14 {
        return Err(TopologyError::PortOutOfRange(arity as u8));
    }
    let mut topo = Topology::new();
    let mut previous_level: Vec<SwitchId> = vec![topo.add_switch("tree_root")];
    for level in 1..levels {
        let mut current = Vec::new();
        for (pi, &parent) in previous_level.iter().enumerate() {
            for c in 0..arity {
                let child = topo.add_switch(format!("tree_{level}_{pi}_{c}"));
                topo.add_bidi_link(parent, PortId((1 + c) as u8), child, PortId(0), 1)?;
                current.push(child);
            }
        }
        previous_level = current;
    }
    Ok(topo)
}

/// Builds a spidergon of even `n` switches: a ring plus cross links to the
/// diametrically opposite switch (ports 0 = CW, 1 = CCW, 2 = across).
///
/// # Errors
///
/// [`TopologyError::EmptyDimension`] when `n < 4` or `n` is odd.
pub fn spidergon(n: usize) -> Result<Topology, TopologyError> {
    if n < 4 || !n.is_multiple_of(2) {
        return Err(TopologyError::EmptyDimension);
    }
    let mut topo = ring(n)?;
    let half = n / 2;
    for i in 0..half {
        topo.add_bidi_link(SwitchId(i), PortId(2), SwitchId(i + half), PortId(2), 1)?;
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_counts() {
        let m = mesh(3, 4).unwrap();
        let t = m.topology();
        assert_eq!(t.switch_count(), 12);
        // Internal links: horizontal 2*4=8, vertical 3*3=9; bidi doubles.
        assert_eq!(t.links().len(), 2 * (8 + 9));
        assert!(t.validate_connected().is_ok());
    }

    #[test]
    fn mesh_rejects_empty() {
        assert_eq!(mesh(0, 3).unwrap_err(), TopologyError::EmptyDimension);
        assert_eq!(mesh(3, 0).unwrap_err(), TopologyError::EmptyDimension);
    }

    #[test]
    fn mesh_corner_degree() {
        let m = mesh(3, 3).unwrap();
        let t = m.topology();
        let corner = m.switch_at((0, 0)).unwrap();
        let center = m.switch_at((1, 1)).unwrap();
        assert_eq!(t.switch_degree(corner), 2);
        assert_eq!(t.switch_degree(center), 4);
    }

    #[test]
    fn mesh_coord_out_of_range() {
        let m = mesh(2, 2).unwrap();
        assert!(matches!(
            m.switch_at((2, 0)),
            Err(TopologyError::CoordOutOfRange { x: 2, y: 0 })
        ));
    }

    #[test]
    fn mesh_attachment_by_coordinate() {
        let mut m = mesh(2, 2).unwrap();
        let ni = m.attach_initiator("cpu", (1, 0)).unwrap();
        let t = m.into_topology();
        let att = t.ni(ni).unwrap();
        assert_eq!(att.switch, SwitchId(1));
        // (1,0) is a corner of the 2x2 grid: its East port is unused, so
        // the auto-attacher compacts the radix by reusing it.
        assert_eq!(att.port, PortId(0));
    }

    #[test]
    fn torus_adds_wrap_links() {
        let mesh_links = mesh(3, 3).unwrap().topology().links().len();
        let torus_links = torus(3, 3).unwrap().topology().links().len();
        // 3 wrap rows + 3 wrap cols, bidi → 12 extra edges.
        assert_eq!(torus_links, mesh_links + 12);
        assert!(torus(3, 3).unwrap().topology().validate_connected().is_ok());
    }

    #[test]
    fn torus_2xn_skips_duplicate_wrap() {
        // A 2-column torus would duplicate the E/W link; the builder must
        // not attempt it (port conflict would error).
        let t = torus(2, 3).unwrap();
        assert!(t.topology().validate_connected().is_ok());
    }

    #[test]
    fn torus_diameter_shrinks() {
        let m = mesh(4, 1).unwrap().into_topology();
        let t = torus(4, 1).unwrap().into_topology();
        let far_mesh = m.shortest_path(SwitchId(0), SwitchId(3)).unwrap().len();
        let far_torus = t.shortest_path(SwitchId(0), SwitchId(3)).unwrap().len();
        assert_eq!(far_mesh, 3);
        assert_eq!(far_torus, 1); // wrap link
    }

    #[test]
    fn ring_connects() {
        let t = ring(5).unwrap();
        assert_eq!(t.switch_count(), 5);
        assert_eq!(t.links().len(), 10);
        assert!(t.validate_connected().is_ok());
        assert_eq!(t.shortest_path(SwitchId(0), SwitchId(3)).unwrap().len(), 2);
    }

    #[test]
    fn ring_of_two() {
        let t = ring(2).unwrap();
        assert_eq!(t.links().len(), 2);
        assert!(t.validate_connected().is_ok());
    }

    #[test]
    fn ring_rejects_one() {
        assert!(ring(1).is_err());
    }

    #[test]
    fn star_shape() {
        let t = star(4).unwrap();
        assert_eq!(t.switch_count(), 5);
        assert_eq!(t.switch_degree(SwitchId(0)), 4);
        assert!(t.validate_connected().is_ok());
        // leaf to leaf goes through hub: 2 hops.
        assert_eq!(t.shortest_path(SwitchId(1), SwitchId(2)).unwrap().len(), 2);
    }

    #[test]
    fn star_limits() {
        assert!(star(0).is_err());
        assert!(star(17).is_err());
        assert!(star(16).is_ok());
    }

    #[test]
    fn tree_shape() {
        let t = tree(2, 3).unwrap();
        assert_eq!(t.switch_count(), 7);
        assert_eq!(t.links().len(), 12); // 6 bidi edges
        assert!(t.validate_connected().is_ok());
        // Leaf to leaf across the root: 4 hops.
        assert_eq!(t.shortest_path(SwitchId(3), SwitchId(6)).unwrap().len(), 4);
        // Root degree = arity; leaf degree = 1.
        assert_eq!(t.switch_degree(SwitchId(0)), 2);
        assert_eq!(t.switch_degree(SwitchId(3)), 1);
    }

    #[test]
    fn tree_single_level_is_one_switch() {
        let t = tree(4, 1).unwrap();
        assert_eq!(t.switch_count(), 1);
        assert!(t.links().is_empty());
    }

    #[test]
    fn tree_limits() {
        assert!(tree(0, 2).is_err());
        assert!(tree(2, 0).is_err());
        assert!(tree(15, 2).is_err());
        assert!(tree(14, 2).is_ok());
    }

    #[test]
    fn spidergon_cross_links() {
        let t = spidergon(8).unwrap();
        assert_eq!(t.switch_count(), 8);
        // ring: 16 edges; cross: 4 bidi = 8 edges.
        assert_eq!(t.links().len(), 24);
        // opposite node reachable in 1 hop via the cross link.
        assert_eq!(t.shortest_path(SwitchId(0), SwitchId(4)).unwrap().len(), 1);
    }

    #[test]
    fn spidergon_rejects_odd_and_small() {
        assert!(spidergon(5).is_err());
        assert!(spidergon(2).is_err());
        assert!(spidergon(4).is_ok());
    }
}
