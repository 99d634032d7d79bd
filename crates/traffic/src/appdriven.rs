//! Task-graph-driven traffic.
//!
//! Converts an application [`TaskGraph`] into per-flow injection
//! processes: each flow becomes a Bernoulli stream of burst writes from
//! the source core's initiator NI into the destination core's target
//! window, with a rate proportional to the flow's bandwidth annotation.
//! This is the workload the SunMap evaluation flow replays on candidate
//! topologies.

use xpipes::noc::Noc;
use xpipes::XpipesError;
use xpipes_ocp::Request;
use xpipes_sim::SimRng;
use xpipes_topology::spec::NocSpec;
use xpipes_topology::{NiId, TaskGraph};

/// Name suffix of initiator NIs created for a core ("dsp#i").
pub const INITIATOR_SUFFIX: &str = "#i";
/// Name suffix of target NIs created for a core ("dsp#t").
pub const TARGET_SUFFIX: &str = "#t";

#[derive(Debug, Clone)]
struct FlowInjector {
    src: NiId,
    base: u64,
    window: u64,
    rate: f64,
    burst: u32,
}

/// Replays a task graph's communication on a NoC.
#[derive(Debug, Clone)]
pub struct AppTraffic {
    flows: Vec<FlowInjector>,
    rng: SimRng,
}

impl AppTraffic {
    /// Builds injectors for every flow of `graph` against `spec`.
    ///
    /// `rate_per_mbps` converts a flow's MB/s annotation into packets per
    /// cycle (it folds in clock frequency and packet size); `burst` is the
    /// write burst length per packet.
    ///
    /// Core NIs are located by the naming convention
    /// `<core>{INITIATOR_SUFFIX}` / `<core>{TARGET_SUFFIX}`, falling back
    /// to the bare core name.
    ///
    /// # Errors
    ///
    /// [`XpipesError::UnknownNi`] when a flow endpoint has no NI, or
    /// [`XpipesError::UnmappedAddress`] when a destination core's target
    /// NI has no address window.
    pub fn new(
        spec: &NocSpec,
        graph: &TaskGraph,
        rate_per_mbps: f64,
        burst: u32,
        seed: u64,
    ) -> Result<Self, XpipesError> {
        let mut flows = Vec::with_capacity(graph.flows().len());
        for flow in graph.flows() {
            let src_name = graph.core_name(flow.src).unwrap_or_default();
            let dst_name = graph.core_name(flow.dst).unwrap_or_default();
            let src_ni = find_ni(spec, src_name, INITIATOR_SUFFIX)
                .ok_or(XpipesError::UnknownNi(NiId(usize::MAX)))?;
            let dst_ni = find_ni(spec, dst_name, TARGET_SUFFIX)
                .ok_or(XpipesError::UnknownNi(NiId(usize::MAX)))?;
            let window = spec
                .range_of(dst_ni)
                .ok_or(XpipesError::UnmappedAddress(0))?;
            flows.push(FlowInjector {
                src: src_ni,
                base: window.base,
                window: window.size,
                rate: (flow.bandwidth_mbps * rate_per_mbps).min(1.0),
                burst,
            });
        }
        Ok(AppTraffic {
            flows,
            rng: SimRng::seed(seed),
        })
    }

    /// Offers one cycle of traffic, then advances the network.
    pub(crate) fn step(&mut self, noc: &mut Noc) {
        for i in 0..self.flows.len() {
            let fire = self.rng.chance(self.flows[i].rate);
            if !fire {
                continue;
            }
            let f = &self.flows[i];
            let offset = (self.rng.next_u64() % (f.window / 8).max(1)) * 8;
            let data: Vec<u64> = (0..f.burst as u64).collect();
            if let Ok(req) = Request::write(f.base + offset, data) {
                let _ = noc.submit(f.src, req);
            }
        }
        noc.step();
    }

    /// Runs `cycles` of injection + simulation.
    pub fn run(&mut self, noc: &mut Noc, cycles: u64) {
        for _ in 0..cycles {
            self.step(noc);
        }
    }
}

fn find_ni(spec: &NocSpec, core: &str, suffix: &str) -> Option<NiId> {
    let suffixed = format!("{core}{suffix}");
    spec.topology
        .ni_by_name(&suffixed)
        .or_else(|| spec.topology.ni_by_name(core))
        .map(|a| a.ni)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_topology::builders::mesh;
    use xpipes_topology::CoreKind;

    fn setup() -> (NocSpec, TaskGraph) {
        let mut g = TaskGraph::new("app");
        let cpu = g.add_core("cpu", CoreKind::Initiator);
        let dsp = g.add_core("dsp", CoreKind::Both);
        let mem = g.add_core("mem", CoreKind::Target);
        g.add_flow(cpu, dsp, 100.0).unwrap();
        g.add_flow(dsp, mem, 50.0).unwrap();

        let mut b = mesh(2, 2).unwrap();
        b.attach_initiator("cpu#i", (0, 0)).unwrap();
        b.attach_initiator("dsp#i", (1, 0)).unwrap();
        let dsp_t = b.attach_target("dsp#t", (1, 0)).unwrap();
        let mem_t = b.attach_target("mem#t", (1, 1)).unwrap();
        let mut spec = NocSpec::new("app", b.into_topology());
        spec.map_address(dsp_t, 0, 1 << 20).unwrap();
        spec.map_address(mem_t, 1 << 20, 1 << 20).unwrap();
        (spec, g)
    }

    /// Packets the initiator NI `name` has sent into the network.
    fn sent(noc: &Noc, spec: &NocSpec, name: &str) -> u64 {
        let ni = spec.topology.ni_by_name(name).expect("NI exists").ni;
        noc.initiator_stats(ni).expect("initiator").packets_sent
    }

    #[test]
    fn flows_bind_to_nis() {
        let (spec, g) = setup();
        let app = AppTraffic::new(&spec, &g, 1e-4, 4, 1).unwrap();
        assert_eq!(app.flows.len(), 2);
    }

    #[test]
    fn traffic_flows_proportionally_to_bandwidth() {
        let (spec, g) = setup();
        let mut noc = Noc::new(&spec).unwrap();
        let mut app = AppTraffic::new(&spec, &g, 2e-4, 2, 3).unwrap();
        app.run(&mut noc, 5000);
        // Flow rates: 100 MB/s → 0.02, 50 MB/s → 0.01 per cycle.
        // Expected total ≈ 5000 * 0.03 = 150.
        noc.run_until_idle(50_000);
        let got = sent(&noc, &spec, "cpu#i") + sent(&noc, &spec, "dsp#i");
        assert!((100..220).contains(&got), "injected {got}");
        assert!(noc.stats().packets_delivered > 0);
    }

    #[test]
    fn per_flow_counts_track_bandwidth() {
        let (spec, g) = setup();
        let mut noc = Noc::new(&spec).unwrap();
        let mut app = AppTraffic::new(&spec, &g, 2e-4, 2, 11).unwrap();
        app.run(&mut noc, 8000);
        noc.run_until_idle(50_000);
        // Each flow has its own source NI.
        let counts = [sent(&noc, &spec, "cpu#i"), sent(&noc, &spec, "dsp#i")];
        // Flow 0 is 100 MB/s, flow 1 is 50 MB/s: roughly 2:1.
        let ratio = counts[0] as f64 / counts[1].max(1) as f64;
        assert!(
            (1.3..3.0).contains(&ratio),
            "ratio {ratio} counts {counts:?}"
        );
    }

    #[test]
    fn missing_ni_is_an_error() {
        let (spec, _) = setup();
        let mut g2 = TaskGraph::new("bad");
        let a = g2.add_core("ghost", CoreKind::Initiator);
        let b2 = g2.add_core("mem", CoreKind::Target);
        g2.add_flow(a, b2, 10.0).unwrap();
        assert!(AppTraffic::new(&spec, &g2, 1e-4, 4, 1).is_err());
    }

    #[test]
    fn rate_clamped_to_one() {
        let (spec, g) = setup();
        // Absurd scale: rates clamp at 1 packet/cycle.
        let app = AppTraffic::new(&spec, &g, 1.0, 4, 1).unwrap();
        assert!(app.flows.iter().all(|f| f.rate <= 1.0));
    }
}
