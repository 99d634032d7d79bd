//! Application task graphs: the input to the SunMap mapping flow.
//!
//! A task graph captures the communication structure of the target MPSoC
//! application — "complex, highly heterogeneous, communication intensive"
//! in the paper's words: cores (processors, DSPs, memories, peripherals)
//! and directed bandwidth-annotated flows between them.

use std::error::Error;
use std::fmt;

/// Identifier of a core within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Protocol role(s) a core plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Pure master (issues transactions): CPU, DMA engine.
    Initiator,
    /// Pure slave (serves transactions): memory, peripheral.
    Target,
    /// Both master and slave (gets an initiator NI *and* a target NI).
    Both,
}

impl CoreKind {
    /// True if the core can source request flows.
    pub const fn can_initiate(self) -> bool {
        matches!(self, CoreKind::Initiator | CoreKind::Both)
    }

    /// True if the core can sink request flows.
    pub const fn can_serve(self) -> bool {
        matches!(self, CoreKind::Target | CoreKind::Both)
    }
}

/// A directed communication flow between two cores.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Source (master side) core.
    pub src: CoreId,
    /// Destination (slave side) core.
    pub dst: CoreId,
    /// Average bandwidth demand in MB/s.
    pub bandwidth_mbps: f64,
    /// Optional latency constraint in cycles (used by routing co-design).
    pub max_latency: Option<u64>,
}

/// Errors from task-graph construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskGraphError {
    /// Flow endpoint does not exist.
    UnknownCore(CoreId),
    /// Flow source cannot initiate or destination cannot serve.
    RoleMismatch { src: CoreId, dst: CoreId },
    /// Self-flows are meaningless on a NoC.
    SelfFlow(CoreId),
    /// Bandwidth must be positive and finite.
    BadBandwidth(f64),
}

impl fmt::Display for TaskGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskGraphError::UnknownCore(c) => write!(f, "unknown core {c}"),
            TaskGraphError::RoleMismatch { src, dst } => {
                write!(f, "flow {src}→{dst} violates initiator/target roles")
            }
            TaskGraphError::SelfFlow(c) => write!(f, "flow from {c} to itself"),
            TaskGraphError::BadBandwidth(b) => write!(f, "bad bandwidth {b} MB/s"),
        }
    }
}

impl Error for TaskGraphError {}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Core {
    name: String,
    kind: CoreKind,
}

/// An application task graph: named cores plus bandwidth-annotated flows.
///
/// # Examples
///
/// ```
/// use xpipes_topology::{TaskGraph, CoreKind};
///
/// # fn main() -> Result<(), xpipes_topology::appgraph::TaskGraphError> {
/// let mut g = TaskGraph::new("decoder");
/// let cpu = g.add_core("cpu", CoreKind::Initiator);
/// let mem = g.add_core("sdram", CoreKind::Target);
/// g.add_flow(cpu, mem, 160.0)?;
/// assert_eq!(g.total_bandwidth(), 160.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    name: String,
    cores: Vec<Core>,
    flows: Vec<Flow>,
}

impl TaskGraph {
    /// Creates an empty task graph.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            cores: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a core and returns its id.
    pub fn add_core(&mut self, name: impl Into<String>, kind: CoreKind) -> CoreId {
        let id = CoreId(self.cores.len());
        self.cores.push(Core {
            name: name.into(),
            kind,
        });
        id
    }

    /// Adds a flow of `bandwidth_mbps` from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Rejects unknown cores, self-flows, role mismatches and non-positive
    /// bandwidths.
    pub fn add_flow(
        &mut self,
        src: CoreId,
        dst: CoreId,
        bandwidth_mbps: f64,
    ) -> Result<(), TaskGraphError> {
        self.add_flow_with_latency(src, dst, bandwidth_mbps, None)
    }

    /// Adds a flow with an optional latency constraint.
    ///
    /// # Errors
    ///
    /// Same as [`add_flow`](Self::add_flow).
    pub(crate) fn add_flow_with_latency(
        &mut self,
        src: CoreId,
        dst: CoreId,
        bandwidth_mbps: f64,
        max_latency: Option<u64>,
    ) -> Result<(), TaskGraphError> {
        let src_core = self
            .cores
            .get(src.0)
            .ok_or(TaskGraphError::UnknownCore(src))?;
        let dst_core = self
            .cores
            .get(dst.0)
            .ok_or(TaskGraphError::UnknownCore(dst))?;
        if src == dst {
            return Err(TaskGraphError::SelfFlow(src));
        }
        if !src_core.kind.can_initiate() || !dst_core.kind.can_serve() {
            return Err(TaskGraphError::RoleMismatch { src, dst });
        }
        if !(bandwidth_mbps.is_finite() && bandwidth_mbps > 0.0) {
            return Err(TaskGraphError::BadBandwidth(bandwidth_mbps));
        }
        self.flows.push(Flow {
            src,
            dst,
            bandwidth_mbps,
            max_latency,
        });
        Ok(())
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.cores.len()).map(CoreId)
    }

    /// Core name.
    pub fn core_name(&self, id: CoreId) -> Option<&str> {
        self.cores.get(id.0).map(|c| c.name.as_str())
    }

    /// Core kind.
    pub fn core_kind(&self, id: CoreId) -> Option<CoreKind> {
        self.cores.get(id.0).map(|c| c.kind)
    }

    /// All flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Flows departing `core`.
    pub fn flows_from(&self, core: CoreId) -> impl Iterator<Item = &Flow> {
        self.flows.iter().filter(move |f| f.src == core)
    }

    /// Flows arriving at `core`.
    pub fn flows_to(&self, core: CoreId) -> impl Iterator<Item = &Flow> {
        self.flows.iter().filter(move |f| f.dst == core)
    }

    /// Sum of all flow bandwidths (MB/s).
    pub fn total_bandwidth(&self) -> f64 {
        self.flows.iter().map(|f| f.bandwidth_mbps).sum()
    }

    /// Communication volume between a specific ordered pair.
    pub fn bandwidth_between(&self, src: CoreId, dst: CoreId) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.src == src && f.dst == dst)
            .map(|f| f.bandwidth_mbps)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> (TaskGraph, CoreId, CoreId, CoreId) {
        let mut g = TaskGraph::new("t");
        let cpu = g.add_core("cpu", CoreKind::Initiator);
        let dsp = g.add_core("dsp", CoreKind::Both);
        let mem = g.add_core("mem", CoreKind::Target);
        (g, cpu, dsp, mem)
    }

    #[test]
    fn add_cores_and_flows() {
        let (mut g, cpu, dsp, mem) = graph();
        g.add_flow(cpu, mem, 100.0).unwrap();
        g.add_flow(cpu, dsp, 50.0).unwrap(); // dsp can serve
        g.add_flow(dsp, mem, 25.0).unwrap(); // dsp can initiate
        assert_eq!(g.core_count(), 3);
        assert_eq!(g.flows().len(), 3);
        assert_eq!(g.total_bandwidth(), 175.0);
        assert_eq!(g.bandwidth_between(cpu, mem), 100.0);
    }

    #[test]
    fn role_mismatch_rejected() {
        let (mut g, cpu, _, mem) = graph();
        // mem is a pure target: cannot initiate.
        let err = g.add_flow(mem, cpu, 10.0).unwrap_err();
        assert!(matches!(err, TaskGraphError::RoleMismatch { .. }));
        // cpu is a pure initiator: cannot serve.
        let mut g2 = TaskGraph::new("t2");
        let a = g2.add_core("a", CoreKind::Initiator);
        let b = g2.add_core("b", CoreKind::Initiator);
        let err2 = g2.add_flow(a, b, 10.0).unwrap_err();
        assert!(matches!(err2, TaskGraphError::RoleMismatch { .. }));
    }

    #[test]
    fn self_flow_rejected() {
        let (mut g, _, dsp, _) = graph();
        assert_eq!(
            g.add_flow(dsp, dsp, 5.0).unwrap_err(),
            TaskGraphError::SelfFlow(dsp)
        );
    }

    #[test]
    fn unknown_core_rejected() {
        let (mut g, cpu, _, _) = graph();
        let err = g.add_flow(cpu, CoreId(99), 5.0).unwrap_err();
        assert_eq!(err, TaskGraphError::UnknownCore(CoreId(99)));
    }

    #[test]
    fn bad_bandwidth_rejected() {
        let (mut g, cpu, _, mem) = graph();
        assert!(g.add_flow(cpu, mem, 0.0).is_err());
        assert!(g.add_flow(cpu, mem, -4.0).is_err());
        assert!(g.add_flow(cpu, mem, f64::NAN).is_err());
        assert!(g.add_flow(cpu, mem, f64::INFINITY).is_err());
    }

    #[test]
    fn flow_queries() {
        let (mut g, cpu, dsp, mem) = graph();
        g.add_flow(cpu, mem, 10.0).unwrap();
        g.add_flow(cpu, dsp, 20.0).unwrap();
        g.add_flow(dsp, mem, 30.0).unwrap();
        assert_eq!(g.flows_from(cpu).count(), 2);
        assert_eq!(g.flows_to(mem).count(), 2);
        assert_eq!(g.flows_from(mem).count(), 0);
    }

    #[test]
    fn latency_constraint_carried() {
        let (mut g, cpu, _, mem) = graph();
        g.add_flow_with_latency(cpu, mem, 10.0, Some(20)).unwrap();
        assert_eq!(g.flows()[0].max_latency, Some(20));
    }

    #[test]
    fn kind_predicates() {
        assert!(CoreKind::Initiator.can_initiate());
        assert!(!CoreKind::Initiator.can_serve());
        assert!(CoreKind::Target.can_serve());
        assert!(!CoreKind::Target.can_initiate());
        assert!(CoreKind::Both.can_initiate() && CoreKind::Both.can_serve());
    }

    #[test]
    fn metadata_accessors() {
        let (g, cpu, _, _) = graph();
        assert_eq!(g.name(), "t");
        assert_eq!(g.core_name(cpu), Some("cpu"));
        assert_eq!(g.core_kind(cpu), Some(CoreKind::Initiator));
        assert_eq!(g.core_name(CoreId(9)), None);
        assert_eq!(g.cores().count(), 3);
    }
}
