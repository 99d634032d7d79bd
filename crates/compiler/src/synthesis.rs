//! The synthesis report of a specification: how a [`NocSpec`] maps onto
//! components of the area/power library, and what each costs.
//!
//! This is the only place that decides which library component stands
//! for a switch or NI of a specification. SunMap's candidate
//! evaluation, the E5/E7 experiments and `xpipesc --synthesize` all
//! read the view built here and keep only their own summation.

use xpipes::config::{NiConfig, SwitchConfig};
use xpipes_synth::components::{initiator_ni_netlist, switch_netlist, target_ni_netlist};
use xpipes_synth::report::{synthesize_or_best, SynthError, SynthReport};
use xpipes_topology::spec::NocSpec;

/// Component synthesis reports for one specification at one clock.
#[derive(Debug, Clone)]
pub struct SpecSynthesis {
    /// One report per distinct `(radix, queue depth)` switch
    /// configuration, in the order the configurations first appear among
    /// the switches.
    pub switch_configs: Vec<SynthReport>,
    /// Index into `switch_configs` for every switch, in
    /// `topology.switches()` order.
    pub config_of_switch: Vec<usize>,
    /// The initiator NI at the specification's flit width.
    pub initiator_ni: SynthReport,
    /// The target NI at the specification's flit width.
    pub target_ni: SynthReport,
}

impl SpecSynthesis {
    /// The report of every switch, in `topology.switches()` order.
    pub fn switch_reports(&self) -> impl Iterator<Item = &SynthReport> {
        self.config_of_switch
            .iter()
            .map(|&c| &self.switch_configs[c])
    }
}

/// Synthesizes every distinct component of `spec` for a `target_mhz`
/// clock: each switch square at its degree (at least 2) with its own
/// queue depth, both NIs at the flit width. A component that cannot
/// reach the clock is reported at its maximum speed.
///
/// # Errors
///
/// [`SynthError::Timing`] on a malformed component netlist.
pub fn synthesize_spec(spec: &NocSpec, target_mhz: f64) -> Result<SpecSynthesis, SynthError> {
    let mut keys: Vec<(usize, u32)> = Vec::new();
    let mut switch_configs = Vec::new();
    let mut config_of_switch = Vec::with_capacity(spec.topology.switch_count());
    for s in spec.topology.switches() {
        let key = (
            spec.topology.switch_degree(s).max(2),
            spec.queue_depth_of(s),
        );
        let index = keys.iter().position(|k| *k == key).unwrap_or(keys.len());
        if index == keys.len() {
            let (radix, queue_depth) = key;
            let mut cfg = SwitchConfig::new(radix, radix, spec.flit_width);
            cfg.output_queue_depth = queue_depth as usize;
            switch_configs.push(synthesize_or_best(&switch_netlist(&cfg), target_mhz)?);
            keys.push(key);
        }
        config_of_switch.push(index);
    }
    let ni_cfg = NiConfig::new(spec.flit_width);
    Ok(SpecSynthesis {
        switch_configs,
        config_of_switch,
        initiator_ni: synthesize_or_best(&initiator_ni_netlist(&ni_cfg), target_mhz)?,
        target_ni: synthesize_or_best(&target_ni_netlist(&ni_cfg), target_mhz)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xpipes_topology::builders::mesh;
    use xpipes_topology::SwitchId;

    fn shipped(name: &str) -> NocSpec {
        let path = format!("{}/../../specs/{name}.noc", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("shipped spec is readable");
        crate::parse_spec(&text).expect("shipped spec parses")
    }

    #[test]
    fn shipped_specs_get_one_report_per_distinct_config() {
        for name in ["mesh4x4", "ring6", "media3"] {
            let spec = shipped(name);
            let view = synthesize_spec(&spec, 1000.0).expect("synthesizes");
            let config = |s| (spec.topology.switch_degree(s), spec.queue_depth_of(s));
            let distinct: BTreeSet<(usize, u32)> = spec.topology.switches().map(config).collect();
            assert_eq!(view.switch_configs.len(), distinct.len(), "{name}");
            assert_eq!(
                view.config_of_switch.len(),
                spec.topology.switch_count(),
                "{name}"
            );
            // Switches share a report exactly when they share a config,
            // and the report is the one for their radix.
            let switches: Vec<SwitchId> = spec.topology.switches().collect();
            for (&a, &ca) in switches.iter().zip(&view.config_of_switch) {
                let (radix, _) = config(a);
                let w = spec.flit_width;
                let expected = format!("switch_{radix}x{radix}_w{w}");
                assert_eq!(view.switch_configs[ca].name, expected, "{name}");
                for (&b, &cb) in switches.iter().zip(&view.config_of_switch) {
                    assert_eq!(ca == cb, config(a) == config(b), "{name}: {a:?} {b:?}");
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
        let before = synthesize_spec(&spec, 1000.0).unwrap();
        assert_eq!(before.config_of_switch[1], before.config_of_switch[2]);
        spec.set_queue_depth(SwitchId(2), spec.output_queue_depth * 4)
            .unwrap();
        let view = synthesize_spec(&spec, 1000.0).unwrap();
        assert_eq!(view.switch_configs.len(), before.switch_configs.len() + 1);
        let shallow = &view.switch_configs[view.config_of_switch[1]];
        let deep = &view.switch_configs[view.config_of_switch[2]];
        assert_eq!(shallow.name, deep.name, "equal radix");
        assert!(deep.area_mm2 > shallow.area_mm2);
    }

    #[test]
    fn unreachable_target_reports_max_speed() {
        let spec = shipped("media3");
        let view = synthesize_spec(&spec, 100_000.0).expect("falls back, no error");
        for r in view
            .switch_reports()
            .chain([&view.initiator_ni, &view.target_ni])
        {
            assert!(r.fmax_mhz > 300.0 && r.fmax_mhz < 100_000.0, "{r}");
        }
    }
}
