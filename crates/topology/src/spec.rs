//! The NoC specification: everything the xpipesCompiler needs to
//! instantiate a network.
//!
//! A [`NocSpec`] bundles the topology with the component parameters the
//! paper exposes (flit width, arbitration policy, buffer sizing, link
//! reliability) and the system address map that programs the initiator
//! NI LUTs.

use std::error::Error;
use std::fmt;

use crate::graph::{NiId, NiKind, SwitchId, Topology, TopologyError};
use crate::route::RoutingTables;

/// Switch arbitration policy (paper: "Arbitration: Fixed / RR").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Fixed priority: lower input port index always wins.
    Fixed,
    /// Round-robin rotating priority.
    #[default]
    RoundRobin,
}

impl fmt::Display for Arbitration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Arbitration::Fixed => "fixed",
            Arbitration::RoundRobin => "round-robin",
        })
    }
}

/// An address window owned by one target NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressRange {
    /// Owning target NI.
    pub ni: NiId,
    /// Base address (inclusive).
    pub base: u64,
    /// Window size in bytes.
    pub size: u64,
}

impl AddressRange {
    /// True if `addr` falls inside the window.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr - self.base < self.size
    }

    /// True if the two windows share any address.
    pub(crate) fn overlaps(&self, other: &AddressRange) -> bool {
        self.base < other.base.saturating_add(other.size)
            && other.base < self.base.saturating_add(self.size)
    }
}

/// Errors from NoC specification validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// Flit width outside the supported range.
    BadFlitWidth(u32),
    /// Output queue depth must be at least 2 flits for full throughput.
    BadQueueDepth(u32),
    /// A target NI has no address window.
    UnmappedTarget(NiId),
    /// An address window belongs to a non-target NI.
    RangeOnNonTarget(NiId),
    /// Two address windows overlap.
    OverlappingRanges(NiId, NiId),
    /// An address window has zero size.
    EmptyRange(NiId),
    /// Underlying topology problem.
    Topology(TopologyError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadFlitWidth(w) => {
                write!(f, "flit width {w} outside supported range 8..=128")
            }
            SpecError::BadQueueDepth(d) => write!(f, "output queue depth {d} below minimum 2"),
            SpecError::UnmappedTarget(ni) => write!(f, "target {ni} has no address window"),
            SpecError::RangeOnNonTarget(ni) => {
                write!(f, "address window assigned to non-target {ni}")
            }
            SpecError::OverlappingRanges(a, b) => {
                write!(f, "address windows of {a} and {b} overlap")
            }
            SpecError::EmptyRange(ni) => write!(f, "address window of {ni} is empty"),
            SpecError::Topology(e) => write!(f, "topology error: {e}"),
        }
    }
}

impl Error for SpecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpecError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for SpecError {
    fn from(e: TopologyError) -> Self {
        SpecError::Topology(e)
    }
}

/// A complete NoC specification: topology + component parameters +
/// address map. This is the xpipesCompiler's input.
///
/// # Examples
///
/// ```
/// use xpipes_topology::builders::mesh;
/// use xpipes_topology::NocSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = mesh(2, 2)?;
/// b.attach_initiator("cpu", (0, 0))?;
/// let mem = b.attach_target("mem", (1, 1))?;
/// let mut spec = NocSpec::new("demo", b.into_topology());
/// spec.map_address(mem, 0x0, 0x1000)?;
/// spec.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NocSpec {
    /// Design name (used in emitted files).
    pub name: String,
    /// Flit width in bits (paper sweeps 16–128).
    pub flit_width: u32,
    /// Switch arbitration policy.
    pub arbitration: Arbitration,
    /// Output queue depth in flits.
    pub output_queue_depth: u32,
    /// Flit error probability per link traversal (ACK/nACK exercises it).
    pub link_error_rate: f64,
    /// Extra switch input-pipeline stages. 0 instantiates the 2-stage
    /// xpipes Lite switch; 5 models the first-generation 7-stage switch
    /// the paper compares against.
    pub extra_switch_stages: u32,
    /// The network graph.
    pub topology: Topology,
    /// Target address windows.
    pub address_map: Vec<AddressRange>,
    /// Per-switch output-queue depth overrides (the xpipesCompiler's
    /// "Component Optimizations: Buffer Sizes").
    pub queue_depth_overrides: std::collections::HashMap<SwitchId, u32>,
}

impl NocSpec {
    /// Default flit width used by the paper's headline results.
    pub const DEFAULT_FLIT_WIDTH: u32 = 32;
    /// Default output-queue depth in flits.
    pub const DEFAULT_QUEUE_DEPTH: u32 = 6;

    /// Creates a specification with paper-default parameters.
    pub fn new(name: impl Into<String>, topology: Topology) -> Self {
        NocSpec {
            name: name.into(),
            flit_width: Self::DEFAULT_FLIT_WIDTH,
            arbitration: Arbitration::RoundRobin,
            output_queue_depth: Self::DEFAULT_QUEUE_DEPTH,
            link_error_rate: 0.0,
            extra_switch_stages: 0,
            topology,
            address_map: Vec::new(),
            queue_depth_overrides: std::collections::HashMap::new(),
        }
    }

    /// Overrides the output-queue depth of one switch.
    ///
    /// # Errors
    ///
    /// Rejects unknown switches and depths below 2 flits.
    pub fn set_queue_depth(&mut self, switch: SwitchId, depth: u32) -> Result<(), SpecError> {
        if switch.0 >= self.topology.switch_count() {
            return Err(SpecError::Topology(TopologyError::UnknownSwitch(switch)));
        }
        if depth < 2 {
            return Err(SpecError::BadQueueDepth(depth));
        }
        self.queue_depth_overrides.insert(switch, depth);
        Ok(())
    }

    /// The effective output-queue depth of a switch (override or global).
    pub fn queue_depth_of(&self, switch: SwitchId) -> u32 {
        self.queue_depth_overrides
            .get(&switch)
            .copied()
            .unwrap_or(self.output_queue_depth)
    }

    /// Assigns an address window to a target NI.
    ///
    /// # Errors
    ///
    /// Rejects unknown NIs, windows on non-targets, empty windows and
    /// overlaps with existing windows.
    pub fn map_address(&mut self, ni: NiId, base: u64, size: u64) -> Result<(), SpecError> {
        let att = self
            .topology
            .ni(ni)
            .ok_or(SpecError::Topology(TopologyError::UnknownNi(ni)))?;
        if att.kind != NiKind::Target {
            return Err(SpecError::RangeOnNonTarget(ni));
        }
        if size == 0 {
            return Err(SpecError::EmptyRange(ni));
        }
        let range = AddressRange { ni, base, size };
        for existing in &self.address_map {
            if existing.overlaps(&range) {
                return Err(SpecError::OverlappingRanges(existing.ni, ni));
            }
        }
        self.address_map.push(range);
        Ok(())
    }

    /// Target NI owning `addr`, if mapped (the NI LUT decode).
    pub fn decode_address(&self, addr: u64) -> Option<NiId> {
        self.address_map
            .iter()
            .find(|r| r.contains(addr))
            .map(|r| r.ni)
    }

    /// Address window of a target NI.
    pub fn range_of(&self, ni: NiId) -> Option<&AddressRange> {
        self.address_map.iter().find(|r| r.ni == ni)
    }

    /// Full validation: parameters, topology connectivity, routability and
    /// address-map consistency. Returns the routing tables that proved
    /// the spec routable, so a caller that needs them builds them once.
    ///
    /// # Errors
    ///
    /// The first problem found, see [`SpecError`].
    pub fn validate(&self) -> Result<RoutingTables, SpecError> {
        if !(8..=128).contains(&self.flit_width) {
            return Err(SpecError::BadFlitWidth(self.flit_width));
        }
        if self.output_queue_depth < 2 {
            return Err(SpecError::BadQueueDepth(self.output_queue_depth));
        }
        self.topology.validate_connected()?;
        let tables = RoutingTables::build(&self.topology)?;
        for target in self.topology.nis_of_kind(NiKind::Target) {
            if self.range_of(target.ni).is_none() {
                return Err(SpecError::UnmappedTarget(target.ni));
            }
        }
        Ok(tables)
    }

    /// Builds the routing tables for this spec's topology.
    ///
    /// # Errors
    ///
    /// Propagates unroutable pairs.
    pub fn routing_tables(&self) -> Result<RoutingTables, SpecError> {
        Ok(RoutingTables::build(&self.topology)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::mesh;

    fn spec_2x2() -> (NocSpec, NiId, NiId) {
        let mut b = mesh(2, 2).unwrap();
        b.attach_initiator("cpu", (0, 0)).unwrap();
        let m0 = b.attach_target("m0", (1, 0)).unwrap();
        let m1 = b.attach_target("m1", (1, 1)).unwrap();
        let mut spec = NocSpec::new("test", b.into_topology());
        spec.map_address(m0, 0x0000, 0x1000).unwrap();
        spec.map_address(m1, 0x1000, 0x1000).unwrap();
        (spec, m0, m1)
    }

    #[test]
    fn valid_spec_passes() {
        let (spec, _, _) = spec_2x2();
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn address_decode() {
        let (spec, m0, m1) = spec_2x2();
        assert_eq!(spec.decode_address(0x0), Some(m0));
        assert_eq!(spec.decode_address(0x0FFF), Some(m0));
        assert_eq!(spec.decode_address(0x1000), Some(m1));
        assert_eq!(spec.decode_address(0x2000), None);
    }

    #[test]
    fn overlapping_ranges_rejected() {
        let mut b = mesh(1, 1).unwrap();
        b.attach_initiator("cpu", (0, 0)).unwrap();
        let t0 = b.attach_target("t0", (0, 0)).unwrap();
        let t1 = b.attach_target("t1", (0, 0)).unwrap();
        let mut spec = NocSpec::new("x", b.into_topology());
        spec.map_address(t0, 0x0, 0x2000).unwrap();
        let err = spec.map_address(t1, 0x1000, 0x1000).unwrap_err();
        assert_eq!(err, SpecError::OverlappingRanges(t0, t1));
    }

    #[test]
    fn range_on_initiator_rejected() {
        let mut b = mesh(1, 1).unwrap();
        let cpu = b.attach_initiator("cpu", (0, 0)).unwrap();
        b.attach_target("t", (0, 0)).unwrap();
        let mut spec = NocSpec::new("x", b.into_topology());
        assert_eq!(
            spec.map_address(cpu, 0, 16).unwrap_err(),
            SpecError::RangeOnNonTarget(cpu)
        );
    }

    #[test]
    fn empty_range_rejected() {
        let (mut spec, _, _) = spec_2x2();
        let t = spec.topology.nis_of_kind(NiKind::Target).next().unwrap().ni;
        // remove existing window first to avoid overlap short-circuit
        spec.address_map.clear();
        assert_eq!(
            spec.map_address(t, 0, 0).unwrap_err(),
            SpecError::EmptyRange(t)
        );
    }

    #[test]
    fn unmapped_target_fails_validation() {
        let (mut spec, _, m1) = spec_2x2();
        spec.address_map.retain(|r| r.ni != m1);
        assert_eq!(spec.validate().unwrap_err(), SpecError::UnmappedTarget(m1));
    }

    #[test]
    fn bad_parameters_fail_validation() {
        let (mut spec, _, _) = spec_2x2();
        spec.flit_width = 4;
        assert_eq!(spec.validate().unwrap_err(), SpecError::BadFlitWidth(4));
        spec.flit_width = 32;
        spec.output_queue_depth = 1;
        assert_eq!(spec.validate().unwrap_err(), SpecError::BadQueueDepth(1));
    }

    #[test]
    fn range_contains_and_overlaps() {
        let a = AddressRange {
            ni: NiId(0),
            base: 0x100,
            size: 0x100,
        };
        assert!(a.contains(0x100));
        assert!(a.contains(0x1FF));
        assert!(!a.contains(0x200));
        assert!(!a.contains(0xFF));
        let b = AddressRange {
            ni: NiId(1),
            base: 0x1FF,
            size: 1,
        };
        let c = AddressRange {
            ni: NiId(2),
            base: 0x200,
            size: 0x10,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn overflow_safe_overlap() {
        let a = AddressRange {
            ni: NiId(0),
            base: u64::MAX - 1,
            size: u64::MAX,
        };
        let b = AddressRange {
            ni: NiId(1),
            base: 0,
            size: 1,
        };
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn defaults_match_paper() {
        let spec = NocSpec::new("d", Topology::new());
        assert_eq!(spec.flit_width, 32);
        assert_eq!(spec.arbitration, Arbitration::RoundRobin);
        assert_eq!(spec.output_queue_depth, 6);
        assert_eq!(spec.link_error_rate, 0.0);
    }

    #[test]
    fn queue_depth_overrides() {
        let (mut spec, _, _) = spec_2x2();
        assert_eq!(
            spec.queue_depth_of(SwitchId(0)),
            NocSpec::DEFAULT_QUEUE_DEPTH
        );
        spec.set_queue_depth(SwitchId(1), 10).unwrap();
        assert_eq!(spec.queue_depth_of(SwitchId(1)), 10);
        assert_eq!(
            spec.queue_depth_of(SwitchId(0)),
            NocSpec::DEFAULT_QUEUE_DEPTH
        );
        assert_eq!(
            spec.set_queue_depth(SwitchId(1), 1).unwrap_err(),
            SpecError::BadQueueDepth(1)
        );
        assert!(matches!(
            spec.set_queue_depth(SwitchId(99), 4),
            Err(SpecError::Topology(TopologyError::UnknownSwitch(_)))
        ));
    }

    #[test]
    fn arbitration_display() {
        assert_eq!(Arbitration::Fixed.to_string(), "fixed");
        assert_eq!(Arbitration::RoundRobin.to_string(), "round-robin");
    }

    #[test]
    fn routing_tables_accessor() {
        let (spec, _, _) = spec_2x2();
        let tables = spec.routing_tables().unwrap();
        let routes: usize = spec
            .topology
            .nis()
            .iter()
            .map(|a| tables.lut_for(a.ni).count())
            .sum();
        assert_eq!(routes, 4); // 1 initiator x 2 targets, both directions
    }
}
