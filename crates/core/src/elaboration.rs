//! The one place a [`NocSpec`] is validated, routed and sized into
//! component configurations. The simulator ([`Noc`](crate::Noc)), the
//! synthesis report and SunMap's candidate evaluation all read it, as
//! the paper's xpipesCompiler emits both views from one instantiation.

use xpipes_topology::route::RoutingTables;
use xpipes_topology::spec::{NocSpec, SpecError};

use crate::config::{NiConfig, SwitchConfig};

/// A validated specification, its routing tables and the configuration
/// of every component.
#[derive(Debug, Clone)]
pub struct Elaboration<'a> {
    /// The specification elaborated.
    pub spec: &'a NocSpec,
    /// The routing tables validation built.
    pub tables: RoutingTables,
    /// Each switch's configuration, in `topology.switches()` order:
    /// square at its highest used port + 1, its own queue depth, the
    /// spec's arbitration and the deepest link's pipeline. No ACK
    /// timeout: the network arms one under faults.
    pub switches: Vec<SwitchConfig>,
    /// The configuration every NI shares.
    pub ni: NiConfig,
}

impl<'a> Elaboration<'a> {
    /// Validates `spec`, keeps its routing tables and sizes its
    /// components.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`NocSpec::validate`].
    pub fn new(spec: &'a NocSpec) -> Result<Self, SpecError> {
        let tables = spec.validate()?;
        let topo = &spec.topology;
        let link_pipeline = topo.links().iter().fold(1, |d, l| d.max(l.pipeline_stages));
        let mut switches: Vec<SwitchConfig> = (topo.switches())
            .map(|s| SwitchConfig {
                output_queue_depth: spec.queue_depth_of(s) as usize,
                arbitration: spec.arbitration,
                link_pipeline,
                ..SwitchConfig::new(1, 1, spec.flit_width)
            })
            .collect();
        let links = topo.links().iter();
        let ports = links.flat_map(|l| [(l.from, l.from_port), (l.to, l.to_port)]);
        for (s, port) in ports.chain(topo.nis().iter().map(|ni| (ni.switch, ni.port))) {
            let cfg = &mut switches[s.0];
            cfg.inputs = cfg.inputs.max(port.0 as usize + 1);
            cfg.outputs = cfg.inputs;
        }
        let ni = NiConfig::new(spec.flit_width);
        Ok(Elaboration {
            spec,
            tables,
            switches,
            ni,
        })
    }
}
