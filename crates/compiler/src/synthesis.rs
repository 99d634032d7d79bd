//! The synthesis report of an [`Elaboration`]: how a specification maps
//! onto components of the area/power library, and what each costs.
//!
//! This is the only place that decides which library component stands
//! for a switch or NI of an elaborated specification. SunMap's candidate
//! evaluation, the E5/E7 experiments and `xpipesc --synthesize` all
//! read the view built here and keep only their own summation.
//!
//! Reports come from a caller-owned [`SynthCache`], which synthesizes
//! each distinct component once per clock target. The cache lives as
//! long as its owner keeps it: one `select` call, one experiment, one
//! `xpipesc` run. There is no global state, so no call inherits another
//! call's work.

use std::rc::Rc;

use xpipes::config::{NiConfig, SwitchConfig};
use xpipes::Elaboration;
use xpipes_synth::components::{initiator_ni_netlist, switch_netlist, target_ni_netlist};
use xpipes_synth::report::{synthesize_or_best, SynthError, SynthReport};
use xpipes_synth::Netlist;
use xpipes_topology::spec::Arbitration;
use xpipes_topology::SwitchId;

/// A library component, described by the complete configuration its
/// netlist is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// A switch.
    Switch(SwitchConfig),
    /// An initiator network interface.
    InitiatorNi(NiConfig),
    /// A target network interface.
    TargetNi(NiConfig),
}

impl Component {
    fn netlist(&self) -> Netlist {
        match self {
            Component::Switch(cfg) => switch_netlist(cfg),
            Component::InitiatorNi(cfg) => initiator_ni_netlist(cfg),
            Component::TargetNi(cfg) => target_ni_netlist(cfg),
        }
    }
}

/// How often a [`SynthCache`] was asked for a report, and how many of
/// those requests ran synthesis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reports requested.
    pub lookups: usize,
    /// Reports synthesized: one per distinct (component, target).
    pub syntheses: usize,
}

/// Synthesis reports keyed by component and clock target (its `f64`
/// bits), each synthesized on its first request and shared after.
///
/// The owner sets the scope: create one per exploration and drop it
/// with the exploration's result.
#[derive(Debug, Default)]
pub struct SynthCache {
    /// In first-request order.
    entries: Vec<(Component, u64, Rc<SynthReport>)>,
    lookups: usize,
}

impl SynthCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The report of `component` at a `target_mhz` clock, or at its
    /// maximum speed when the target is out of reach.
    ///
    /// # Errors
    ///
    /// [`SynthError::Timing`] on a malformed component netlist.
    pub fn report(
        &mut self,
        component: Component,
        target_mhz: f64,
    ) -> Result<Rc<SynthReport>, SynthError> {
        self.lookups += 1;
        let target = target_mhz.to_bits();
        if let Some((_, _, report)) = self
            .entries
            .iter()
            .find(|(c, t, _)| *c == component && *t == target)
        {
            return Ok(Rc::clone(report));
        }
        let report = Rc::new(synthesize_or_best(&component.netlist(), target_mhz)?);
        self.entries.push((component, target, Rc::clone(&report)));
        Ok(report)
    }

    /// Every report synthesized so far, in first-request order.
    pub fn reports(&self) -> impl Iterator<Item = &SynthReport> {
        self.entries.iter().map(|(_, _, report)| &**report)
    }

    /// Lookups and syntheses so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups,
            syntheses: self.entries.len(),
        }
    }
}

/// Component synthesis reports for one specification at one clock.
#[derive(Debug, Clone)]
pub struct SpecSynthesis {
    /// The report of every switch, in `topology.switches()` order.
    /// Switches of one configuration share one report.
    pub switches: Vec<Rc<SynthReport>>,
    /// The initiator NI at the specification's flit width.
    pub initiator_ni: Rc<SynthReport>,
    /// The target NI at the specification's flit width.
    pub target_ni: Rc<SynthReport>,
}

impl SpecSynthesis {
    /// The report of every switch, in `topology.switches()` order.
    pub fn switch_reports(&self) -> impl Iterator<Item = &SynthReport> {
        self.switches.iter().map(|report| &**report)
    }
}

/// The switch configuration synthesis prices for elaborated switch `s`.
/// Synthesis does not price every field of the switch the simulator
/// runs yet, and overrides these:
/// - the radix: `switch_degree(s).max(2)`, not the highest used port + 1;
/// - arbitration: round-robin, whatever the spec sets;
/// - the link pipeline: 1, not the deepest link's stages;
/// - the ACK timeout: none, though the simulator arms one under faults.
///
/// Not priced either: `extra_switch_stages`, which is not a
/// `SwitchConfig` field. `emit`'s Verilog and SystemC switch instances
/// are sized by `switch_degree` too.
fn priced_switch(elab: &Elaboration, s: SwitchId) -> SwitchConfig {
    let radix = elab.spec.topology.switch_degree(s).max(2);
    SwitchConfig {
        inputs: radix,
        outputs: radix,
        arbitration: Arbitration::RoundRobin,
        link_pipeline: 1,
        ack_timeout: None,
        ..elab.switches[s.0]
    }
}

/// Reads every component of `elab` at a `target_mhz` clock from
/// `cache`: each switch as `priced_switch` sizes it, then both NIs.
/// A component that cannot reach the clock is reported at its maximum
/// speed.
///
/// # Errors
///
/// [`SynthError::Timing`] on a malformed component netlist.
pub fn synthesize_spec(
    elab: &Elaboration,
    target_mhz: f64,
    cache: &mut SynthCache,
) -> Result<SpecSynthesis, SynthError> {
    let switches = (elab.spec.topology.switches())
        .map(|s| cache.report(Component::Switch(priced_switch(elab, s)), target_mhz))
        .collect::<Result<_, _>>()?;
    Ok(SpecSynthesis {
        switches,
        initiator_ni: cache.report(Component::InitiatorNi(elab.ni), target_mhz)?,
        target_ni: cache.report(Component::TargetNi(elab.ni), target_mhz)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xpipes_topology::builders::mesh;
    use xpipes_topology::spec::NocSpec;

    fn shipped(name: &str) -> NocSpec {
        let path = format!("{}/../../specs/{name}.noc", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("shipped spec is readable");
        crate::parse_spec(&text).expect("shipped spec parses")
    }

    #[test]
    fn shipped_specs_get_one_report_per_distinct_config() {
        for name in ["mesh4x4", "ring6", "media3"] {
            let spec = shipped(name);
            let mut cache = SynthCache::new();
            let view = synthesize_spec(&Elaboration::new(&spec).unwrap(), 1000.0, &mut cache)
                .expect("synthesizes");
            let config = |s| (spec.topology.switch_degree(s), spec.queue_depth_of(s));
            let distinct: BTreeSet<(usize, u32)> = spec.topology.switches().map(config).collect();
            let stats = cache.stats();
            assert_eq!(stats.syntheses, distinct.len() + 2, "{name}");
            assert_eq!(stats.lookups, spec.topology.switch_count() + 2, "{name}");
            assert_eq!(view.switches.len(), spec.topology.switch_count(), "{name}");
            // Switches share a report exactly when they share a config,
            // and the report is the one for their radix.
            let switches: Vec<SwitchId> = spec.topology.switches().collect();
            for (&a, ra) in switches.iter().zip(&view.switches) {
                let (radix, _) = config(a);
                let w = spec.flit_width;
                assert_eq!(ra.name, format!("switch_{radix}x{radix}_w{w}"), "{name}");
                for (&b, rb) in switches.iter().zip(&view.switches) {
                    assert_eq!(
                        Rc::ptr_eq(ra, rb),
                        config(a) == config(b),
                        "{name}: {a:?} {b:?}"
                    );
                }
            }
            assert!(view.initiator_ni.area_mm2 > view.target_ni.area_mm2);
        }
    }

    #[test]
    fn queue_depth_override_is_its_own_config() {
        let mut b = mesh(2, 2).unwrap();
        b.attach_initiator("cpu", (0, 0)).unwrap();
        let mem = b.attach_target("mem", (1, 1)).unwrap();
        let mut spec = NocSpec::new("deep", b.into_topology());
        spec.map_address(mem, 0, 64).unwrap();
        // Switches 1 and 2 are the NI-free corners: equal radix.
        let mut cache = SynthCache::new();
        let before =
            synthesize_spec(&Elaboration::new(&spec).unwrap(), 1000.0, &mut cache).unwrap();
        assert!(Rc::ptr_eq(&before.switches[1], &before.switches[2]));
        spec.set_queue_depth(SwitchId(2), spec.output_queue_depth * 4)
            .unwrap();
        let syntheses = cache.stats().syntheses;
        let view = synthesize_spec(&Elaboration::new(&spec).unwrap(), 1000.0, &mut cache).unwrap();
        assert_eq!(cache.stats().syntheses, syntheses + 1);
        let (shallow, deep) = (&view.switches[1], &view.switches[2]);
        assert!(Rc::ptr_eq(shallow, &before.switches[1]));
        assert_eq!(shallow.name, deep.name, "equal radix");
        assert!(deep.area_mm2 > shallow.area_mm2);
    }

    #[test]
    fn cache_keys_the_whole_config_and_the_target_bits() {
        let mut cache = SynthCache::new();
        let base = SwitchConfig::new(4, 4, 32);
        let mut piped = base;
        piped.link_pipeline = 3;
        let a = cache.report(Component::Switch(base), 1000.0).unwrap();
        let b = cache.report(Component::Switch(piped), 1000.0).unwrap();
        assert_eq!(a.name, b.name, "one name, two configs");
        assert!(!Rc::ptr_eq(&a, &b));
        assert!(Rc::ptr_eq(
            &a,
            &cache.report(Component::Switch(base), 1000.0).unwrap()
        ));
        // A target one ulp away is another clock.
        let next = f64::from_bits(1000.0f64.to_bits() + 1);
        assert!(!Rc::ptr_eq(
            &a,
            &cache.report(Component::Switch(base), next).unwrap()
        ));
        // The two NIs of one config are two components.
        let ni = NiConfig::new(32);
        let ini = cache.report(Component::InitiatorNi(ni), 1000.0).unwrap();
        let tgt = cache.report(Component::TargetNi(ni), 1000.0).unwrap();
        assert_ne!(ini.name, tgt.name);
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.syntheses), (6, 5));
        let names: Vec<&str> = cache.reports().map(|r| r.name.as_str()).collect();
        assert_eq!(names.len(), 5);
        assert_eq!(names[3..], [ini.name.as_str(), tgt.name.as_str()]);
    }

    #[test]
    fn unreachable_target_reports_max_speed() {
        let spec = shipped("media3");
        let view = synthesize_spec(
            &Elaboration::new(&spec).unwrap(),
            100_000.0,
            &mut SynthCache::new(),
        )
        .expect("falls back, no error");
        for r in view
            .switch_reports()
            .chain([&*view.initiator_ni, &*view.target_ni])
        {
            assert!(r.fmax_mhz > 300.0 && r.fmax_mhz < 100_000.0, "{r}");
        }
    }
}
