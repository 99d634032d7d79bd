//! The [`Topology`] graph: switches, directed links and NI attachments.

use std::collections::{HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;

/// Identifier of a switch within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub usize);

/// Identifier of a network interface within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NiId(pub usize);

/// A switch port index. xpipes source routes encode ports in 4 bits, so
/// valid ports are `0..=15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u8);

impl PortId {
    /// Largest representable port (source-route field is 4 bits).
    pub(crate) const MAX: u8 = 15;
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SB{}", self.0)
    }
}

impl fmt::Display for NiId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NI{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Which side of the transaction protocol an NI serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NiKind {
    /// Connects a master core (CPU, DMA): packetizes requests, receives
    /// responses.
    Initiator,
    /// Connects a slave core (memory, peripheral): receives requests,
    /// packetizes responses.
    Target,
}

impl fmt::Display for NiKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NiKind::Initiator => "initiator",
            NiKind::Target => "target",
        })
    }
}

/// A unidirectional switch-to-switch channel. Bidirectional links are two
/// edges.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkEdge {
    /// Source switch.
    pub from: SwitchId,
    /// Output port on the source switch.
    pub from_port: PortId,
    /// Destination switch.
    pub to: SwitchId,
    /// Input port on the destination switch.
    pub to_port: PortId,
    /// Physical length estimate in millimetres (filled by the
    /// floorplanner; 1.0 by default).
    pub length_mm: f64,
    /// Link pipeline depth in cycles (paper: links are pipelined).
    pub pipeline_stages: u32,
}

/// An NI attached to a switch port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NiAttachment {
    /// The NI.
    pub ni: NiId,
    /// Human-readable core name ("arm0", "sdram").
    pub name: String,
    /// Initiator or target.
    pub kind: NiKind,
    /// Switch it attaches to.
    pub switch: SwitchId,
    /// Port on that switch (used both to inject and to eject).
    pub port: PortId,
}

/// Errors from topology construction and validation.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// Referenced switch does not exist.
    UnknownSwitch(SwitchId),
    /// Referenced NI does not exist.
    UnknownNi(NiId),
    /// Port number exceeds `PortId::MAX`.
    PortOutOfRange(u8),
    /// Two connections claim the same (switch, port).
    PortConflict { switch: SwitchId, port: PortId },
    /// The switch graph is not strongly connected.
    Disconnected {
        from: SwitchId,
        unreachable: SwitchId,
    },
    /// A mesh/torus dimension was zero.
    EmptyDimension,
    /// No route exists between the two NIs.
    NoRoute { from: NiId, to: NiId },
    /// A grid coordinate was outside the mesh.
    CoordOutOfRange { x: usize, y: usize },
    /// Too many NIs attached to one switch (ports exhausted).
    PortsExhausted(SwitchId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownSwitch(s) => write!(f, "unknown switch {s}"),
            TopologyError::UnknownNi(n) => write!(f, "unknown NI {n}"),
            TopologyError::PortOutOfRange(p) => {
                write!(f, "port {p} exceeds the 4-bit source-route field")
            }
            TopologyError::PortConflict { switch, port } => {
                write!(f, "port {port} on {switch} connected twice")
            }
            TopologyError::Disconnected { from, unreachable } => {
                write!(f, "{unreachable} unreachable from {from}")
            }
            TopologyError::EmptyDimension => write!(f, "topology dimension must be positive"),
            TopologyError::NoRoute { from, to } => write!(f, "no route from {from} to {to}"),
            TopologyError::CoordOutOfRange { x, y } => {
                write!(f, "coordinate ({x}, {y}) outside the grid")
            }
            TopologyError::PortsExhausted(s) => {
                write!(f, "no free port left on {s}")
            }
        }
    }
}

impl Error for TopologyError {}

/// A validated NoC topology: switches, unidirectional links and NI
/// attachment points.
///
/// Construct with [`Topology::new`] and the `add_*` methods, or through
/// the regular builders in [`crate::builders`]. All mutating methods
/// validate their arguments eagerly.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    switch_names: Vec<String>,
    links: Vec<LinkEdge>,
    nis: Vec<NiAttachment>,
    /// Per-switch port occupancy, for conflict detection.
    port_use: Vec<PortUse>,
    /// Per-switch indices into `links` of the edges leaving that switch.
    /// Keeps [`Topology::out_links`] O(degree) instead of O(links) — the
    /// difference between milliseconds and minutes when validating and
    /// routing a 64x64 mesh.
    out_adj: Vec<Vec<usize>>,
}

/// The ports of one switch in use, one bit per port.
#[derive(Debug, Clone, Copy, Default)]
struct PortUse {
    /// Output direction: the `from_port` of some link.
    out: u16,
    /// Input direction: the `to_port` of some link.
    inp: u16,
    /// Taken by an NI attachment.
    ni: u16,
}

impl PortUse {
    fn bit(port: PortId) -> u16 {
        1 << port.0
    }

    /// True when a link (either direction) or an NI uses `port`.
    fn taken(self, port: PortId) -> bool {
        (self.out | self.inp | self.ni) & Self::bit(port) != 0
    }
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a switch and returns its id.
    pub fn add_switch(&mut self, name: impl Into<String>) -> SwitchId {
        let id = SwitchId(self.switch_names.len());
        self.switch_names.push(name.into());
        self.out_adj.push(Vec::new());
        self.port_use.push(PortUse::default());
        id
    }

    /// Adds a unidirectional link.
    ///
    /// # Errors
    ///
    /// Rejects unknown switches, out-of-range ports and port conflicts
    /// (an output port can feed only one link, an input port can be fed by
    /// only one link; input and output directions are tracked separately).
    pub(crate) fn add_link(
        &mut self,
        from: SwitchId,
        from_port: PortId,
        to: SwitchId,
        to_port: PortId,
        pipeline_stages: u32,
    ) -> Result<(), TopologyError> {
        self.check_switch(from)?;
        self.check_switch(to)?;
        Self::check_port(from_port)?;
        Self::check_port(to_port)?;
        let bit = PortUse::bit;
        if self.port_use[from.0].out & bit(from_port) != 0 {
            return Err(TopologyError::PortConflict {
                switch: from,
                port: from_port,
            });
        }
        if self.port_use[to.0].inp & bit(to_port) != 0 {
            return Err(TopologyError::PortConflict {
                switch: to,
                port: to_port,
            });
        }
        if self.port_use[from.0].ni & bit(from_port) != 0
            || self.port_use[to.0].ni & bit(to_port) != 0
        {
            return Err(TopologyError::PortConflict {
                switch: from,
                port: from_port,
            });
        }
        self.port_use[from.0].out |= bit(from_port);
        self.port_use[to.0].inp |= bit(to_port);
        self.out_adj[from.0].push(self.links.len());
        self.links.push(LinkEdge {
            from,
            from_port,
            to,
            to_port,
            length_mm: 1.0,
            pipeline_stages,
        });
        Ok(())
    }

    /// Adds a bidirectional link: two edges using the same port number on
    /// each side (xpipes ports are full-duplex in/out pairs).
    pub fn add_bidi_link(
        &mut self,
        a: SwitchId,
        a_port: PortId,
        b: SwitchId,
        b_port: PortId,
        pipeline_stages: u32,
    ) -> Result<(), TopologyError> {
        self.add_link(a, a_port, b, b_port, pipeline_stages)?;
        self.add_link(b, b_port, a, a_port, pipeline_stages)
    }

    /// Attaches an NI to a switch port and returns its id.
    ///
    /// # Errors
    ///
    /// Rejects unknown switches, out-of-range ports and ports already in
    /// use by links or other NIs.
    pub fn attach_ni(
        &mut self,
        name: impl Into<String>,
        kind: NiKind,
        switch: SwitchId,
        port: PortId,
    ) -> Result<NiId, TopologyError> {
        self.check_switch(switch)?;
        Self::check_port(port)?;
        if self.port_use[switch.0].taken(port) {
            return Err(TopologyError::PortConflict { switch, port });
        }
        let ni = NiId(self.nis.len());
        self.port_use[switch.0].ni |= PortUse::bit(port);
        self.nis.push(NiAttachment {
            ni,
            name: name.into(),
            kind,
            switch,
            port,
        });
        Ok(ni)
    }

    /// Attaches an NI on the lowest free port of `switch`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::PortsExhausted`] if all 16 ports are taken.
    pub fn attach_ni_auto(
        &mut self,
        name: impl Into<String>,
        kind: NiKind,
        switch: SwitchId,
    ) -> Result<NiId, TopologyError> {
        self.check_switch(switch)?;
        for p in 0..=PortId::MAX {
            let port = PortId(p);
            if !self.port_use[switch.0].taken(port) {
                return self.attach_ni(name, kind, switch, port);
            }
        }
        Err(TopologyError::PortsExhausted(switch))
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switch_names.len()
    }

    /// Name of a switch.
    pub fn switch_name(&self, id: SwitchId) -> Option<&str> {
        self.switch_names.get(id.0).map(String::as_str)
    }

    /// All switch ids.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        (0..self.switch_names.len()).map(SwitchId)
    }

    /// All link edges.
    pub fn links(&self) -> &[LinkEdge] {
        &self.links
    }

    /// Mutable access to link edges (floorplanner updates lengths).
    ///
    /// Only `length_mm` and `pipeline_stages` may be changed: rewiring
    /// endpoints or ports here would desynchronise the adjacency index
    /// that backs [`Topology::out_links`].
    pub fn links_mut(&mut self) -> &mut [LinkEdge] {
        &mut self.links
    }

    /// All NI attachments.
    pub fn nis(&self) -> &[NiAttachment] {
        &self.nis
    }

    /// Attachment record of an NI.
    pub fn ni(&self, id: NiId) -> Option<&NiAttachment> {
        self.nis.get(id.0)
    }

    /// NIs of a given kind.
    pub fn nis_of_kind(&self, kind: NiKind) -> impl Iterator<Item = &NiAttachment> {
        self.nis.iter().filter(move |ni| ni.kind == kind)
    }

    /// Looks up an NI by core name.
    pub fn ni_by_name(&self, name: &str) -> Option<&NiAttachment> {
        self.nis.iter().find(|ni| ni.name == name)
    }

    /// Number of ports in use on a switch (its radix when instantiated).
    pub fn switch_degree(&self, id: SwitchId) -> usize {
        self.port_use
            .get(id.0)
            .map_or(0, |u| (u.out | u.inp | u.ni).count_ones() as usize)
    }

    /// Out-edges of a switch, via the per-switch adjacency index.
    pub fn out_links(&self, id: SwitchId) -> impl Iterator<Item = &LinkEdge> {
        self.out_adj
            .get(id.0)
            .into_iter()
            .flatten()
            .map(move |&i| &self.links[i])
    }

    /// Shortest switch-to-switch path by hop count (BFS). Returns the
    /// sequence of link edges traversed, or `None` if unreachable.
    pub fn shortest_path(&self, from: SwitchId, to: SwitchId) -> Option<Vec<&LinkEdge>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: HashMap<SwitchId, &LinkEdge> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        let mut seen = HashSet::new();
        seen.insert(from);
        while let Some(s) = queue.pop_front() {
            for l in self.out_links(s) {
                if seen.insert(l.to) {
                    prev.insert(l.to, l);
                    if l.to == to {
                        let mut path = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let l = prev[&cur];
                            path.push(l);
                            cur = l.from;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(l.to);
                }
            }
        }
        None
    }

    /// Checks that every switch can reach every other switch.
    ///
    /// # Errors
    ///
    /// [`TopologyError::Disconnected`] naming the first unreachable pair.
    pub fn validate_connected(&self) -> Result<(), TopologyError> {
        if self.switch_names.is_empty() {
            return Ok(());
        }
        // Strong connectivity in two BFS passes instead of one per
        // switch: every node reaches every other node iff some root
        // reaches all (forward pass) and all reach the root (reverse
        // pass). O(V + E) twice — the all-sources scan was O(V²·E) and
        // took minutes on a 64x64 mesh.
        let root = SwitchId(0);
        let mut seen = vec![false; self.switch_names.len()];
        seen[root.0] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(s) = queue.pop_front() {
            for l in self.out_links(s) {
                if !seen[l.to.0] {
                    seen[l.to.0] = true;
                    queue.push_back(l.to);
                }
            }
        }
        if let Some(u) = seen.iter().position(|&v| !v) {
            return Err(TopologyError::Disconnected {
                from: root,
                unreachable: SwitchId(u),
            });
        }
        let mut in_adj: Vec<Vec<SwitchId>> = vec![Vec::new(); self.switch_names.len()];
        for l in &self.links {
            in_adj[l.to.0].push(l.from);
        }
        let mut seen = vec![false; self.switch_names.len()];
        seen[root.0] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(s) = queue.pop_front() {
            for &from in &in_adj[s.0] {
                if !seen[from.0] {
                    seen[from.0] = true;
                    queue.push_back(from);
                }
            }
        }
        if let Some(u) = seen.iter().position(|&v| !v) {
            return Err(TopologyError::Disconnected {
                from: SwitchId(u),
                unreachable: root,
            });
        }
        Ok(())
    }

    /// Average hop distance between all initiator→target NI pairs
    /// (switch traversals, not counting injection/ejection).
    pub fn avg_initiator_target_hops(&self) -> f64 {
        let mut total = 0usize;
        let mut pairs = 0usize;
        for src in self.nis_of_kind(NiKind::Initiator) {
            for dst in self.nis_of_kind(NiKind::Target) {
                if let Some(path) = self.shortest_path(src.switch, dst.switch) {
                    total += path.len() + 1; // +1: traversal of the final switch
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }

    fn check_switch(&self, id: SwitchId) -> Result<(), TopologyError> {
        if id.0 < self.switch_names.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownSwitch(id))
        }
    }

    fn check_port(port: PortId) -> Result<(), TopologyError> {
        if port.0 <= PortId::MAX {
            Ok(())
        } else {
            Err(TopologyError::PortOutOfRange(port.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switch_topo() -> (Topology, SwitchId, SwitchId) {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        t.add_bidi_link(a, PortId(0), b, PortId(0), 1).unwrap();
        (t, a, b)
    }

    #[test]
    fn add_switch_assigns_sequential_ids() {
        let mut t = Topology::new();
        assert_eq!(t.add_switch("x"), SwitchId(0));
        assert_eq!(t.add_switch("y"), SwitchId(1));
        assert_eq!(t.switch_name(SwitchId(1)), Some("y"));
        assert_eq!(t.switch_count(), 2);
    }

    #[test]
    fn bidi_link_creates_two_edges() {
        let (t, a, b) = two_switch_topo();
        assert_eq!(t.links().len(), 2);
        assert_eq!(t.out_links(a).count(), 1);
        assert_eq!(t.out_links(b).count(), 1);
    }

    #[test]
    fn link_to_unknown_switch_rejected() {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let err = t
            .add_link(a, PortId(0), SwitchId(7), PortId(0), 1)
            .unwrap_err();
        assert_eq!(err, TopologyError::UnknownSwitch(SwitchId(7)));
    }

    #[test]
    fn output_port_conflict_rejected() {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let b = t.add_switch("b");
        let c = t.add_switch("c");
        t.add_link(a, PortId(0), b, PortId(0), 1).unwrap();
        let err = t.add_link(a, PortId(0), c, PortId(0), 1).unwrap_err();
        assert!(matches!(err, TopologyError::PortConflict { .. }));
    }

    #[test]
    fn ni_port_conflict_with_link_rejected() {
        let (mut t, a, _) = two_switch_topo();
        let err = t
            .attach_ni("cpu", NiKind::Initiator, a, PortId(0))
            .unwrap_err();
        assert!(matches!(err, TopologyError::PortConflict { .. }));
    }

    #[test]
    fn ni_attach_and_lookup() {
        let (mut t, a, b) = two_switch_topo();
        let cpu = t.attach_ni("cpu", NiKind::Initiator, a, PortId(1)).unwrap();
        let mem = t.attach_ni("mem", NiKind::Target, b, PortId(1)).unwrap();
        assert_eq!(t.ni(cpu).unwrap().name, "cpu");
        assert_eq!(t.ni_by_name("mem").unwrap().ni, mem);
        assert_eq!(t.nis_of_kind(NiKind::Initiator).count(), 1);
        assert_eq!(t.nis_of_kind(NiKind::Target).count(), 1);
    }

    #[test]
    fn auto_attach_picks_free_ports() {
        let (mut t, a, _) = two_switch_topo();
        let n1 = t.attach_ni_auto("x", NiKind::Initiator, a).unwrap();
        let n2 = t.attach_ni_auto("y", NiKind::Target, a).unwrap();
        assert_eq!(t.ni(n1).unwrap().port, PortId(1)); // 0 used by link
        assert_eq!(t.ni(n2).unwrap().port, PortId(2));
    }

    #[test]
    fn auto_attach_exhausts() {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        for i in 0..16 {
            t.attach_ni(format!("n{i}"), NiKind::Target, a, PortId(i))
                .unwrap();
        }
        let err = t.attach_ni_auto("overflow", NiKind::Target, a).unwrap_err();
        assert_eq!(err, TopologyError::PortsExhausted(a));
    }

    #[test]
    fn port_out_of_range_rejected() {
        let mut t = Topology::new();
        let a = t.add_switch("a");
        let err = t.attach_ni("n", NiKind::Target, a, PortId(16)).unwrap_err();
        assert_eq!(err, TopologyError::PortOutOfRange(16));
    }

    #[test]
    fn switch_degree_counts_distinct_ports() {
        let (mut t, a, _) = two_switch_topo();
        t.attach_ni("cpu", NiKind::Initiator, a, PortId(1)).unwrap();
        t.attach_ni("dsp", NiKind::Initiator, a, PortId(2)).unwrap();
        assert_eq!(t.switch_degree(a), 3); // link port + 2 NI ports
    }

    #[test]
    fn shortest_path_on_line() {
        let mut t = Topology::new();
        let s: Vec<_> = (0..4).map(|i| t.add_switch(format!("s{i}"))).collect();
        for w in s.windows(2) {
            t.add_bidi_link(w[0], PortId(0), w[1], PortId(1), 1)
                .unwrap();
        }
        let path = t.shortest_path(s[0], s[3]).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0].from, s[0]);
        assert_eq!(path[2].to, s[3]);
        assert!(t.shortest_path(s[2], s[2]).unwrap().is_empty());
    }

    #[test]
    fn connectivity_validation() {
        let (t, _, _) = two_switch_topo();
        assert!(t.validate_connected().is_ok());

        let mut t2 = Topology::new();
        let a = t2.add_switch("a");
        let b = t2.add_switch("b");
        t2.add_link(a, PortId(0), b, PortId(0), 1).unwrap(); // one-way only
        let err = t2.validate_connected().unwrap_err();
        assert!(matches!(err, TopologyError::Disconnected { .. }));
    }

    #[test]
    fn empty_topology_is_connected() {
        assert!(Topology::new().validate_connected().is_ok());
    }

    #[test]
    fn avg_hops_simple() {
        let (mut t, a, b) = two_switch_topo();
        t.attach_ni("cpu", NiKind::Initiator, a, PortId(1)).unwrap();
        t.attach_ni("mem", NiKind::Target, b, PortId(1)).unwrap();
        // one link + final switch traversal = 2
        assert_eq!(t.avg_initiator_target_hops(), 2.0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(SwitchId(3).to_string(), "SB3");
        assert_eq!(NiId(1).to_string(), "NI1");
        assert_eq!(PortId(5).to_string(), "p5");
        assert_eq!(NiKind::Initiator.to_string(), "initiator");
    }
}
