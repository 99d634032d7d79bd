//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repo root lists the same names
//! (a unit test keeps the two in step).
//!
//! Every workload prints every metric. A per-layer metric of a layer the
//! workload does not exercise reads 0 — "this workload spends nothing
//! there" — which is what a bypass workload is supposed to show.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Metrics a user of the flows sees. Host time, except `sim_*`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_latency_cycles",
        unit: "cycles",
        better: Lower,
        bound: 0.10,
    },
];

/// Offered loads of the `sweep_mesh4` curve and the suffix each gets in
/// per-rate metric names.
pub const SWEEP_RATES: [(f64, &str); 7] = [
    (0.02, "r002"),
    (0.05, "r005"),
    (0.1, "r010"),
    (0.2, "r020"),
    (0.3, "r030"),
    (0.5, "r050"),
    (0.8, "r080"),
];

/// Applications of the `design_flow` selection, by metric suffix.
pub const APPS: [&str; 6] = ["mpeg4", "vopd", "mwd", "pip", "h263enc", "d26"];

/// Paper anchors of `design_flow`, by metric infix.
pub const ANCHORS: [&str; 5] = [
    "sw5x5_floor",
    "clk_6x4_ratio",
    "mesh_d26_area",
    "custom_clk_ratio",
    "sw6x4_w128_area",
];

/// `(name, unit, better)` of every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut v: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |name: &str, unit, better| v.push((name.to_string(), unit, better));

    add("topology.build_s", "s", Lower);
    add("topology.routing_tables_s", "s", Lower);

    add("core.assemble_s", "s", Lower);
    add("core.ns_per_flit_hop", "ns", Lower);
    add("core.sim_cycles_per_s", "cycles/s", Higher);
    add("core.event_steps", "count", Higher);
    add("core.fallback_steps", "count", Lower);
    add("core.time_jumps", "count", Higher);
    add("core.fallback_frac", "ratio", Lower);
    add("core.observers.monitored_slowdown", "ratio", Lower);
    for phase in xpipes_sim::KernelPhase::ALL {
        add(&format!("core.phase.{}_s", phase.label()), "s", Lower);
    }
    for (_, tag) in SWEEP_RATES {
        add(&format!("core.ns_per_flit_hop.{tag}"), "ns", Lower);
    }
    add("core.active_channels_mean", "count", Higher);
    add("core.checkpoint_s", "s", Lower);
    add("core.restore_s", "s", Lower);
    add("core.checkpoint_bytes", "B", Lower);

    add("sim.snapshot.encode_mb_s", "MB/s", Higher);
    add("sim.snapshot.decode_mb_s", "MB/s", Higher);
    add("sim.telemetry.overhead_frac", "ratio", Lower);
    add("sim.attribution.overhead_frac", "ratio", Lower);
    add("sim.parallel.busy_frac_2w", "ratio", Higher);
    add("sim.parallel.imbalance_2w", "ratio", Lower);
    add("sim.json.render_mb_s", "MB/s", Higher);
    add("sim.json.parse_mb_s", "MB/s", Higher);

    add("traffic.campaign.simulate_s", "s", Lower);
    add("traffic.campaign.point_ms_p50", "ms", Lower);
    add("traffic.campaign.point_ms_p90", "ms", Lower);
    add("traffic.campaign.warm_checkpoint_s", "s", Lower);
    add("traffic.campaign.point_codec_us", "us", Lower);
    add("traffic.campaign.assemble_report_s", "s", Lower);
    for (_, tag) in SWEEP_RATES {
        add(&format!("traffic.sweep.point_s.{tag}"), "s", Lower);
    }
    add(
        "traffic.sweep.saturation_pkts_per_cycle",
        "packets/cycle",
        Higher,
    );

    add("service.points_per_s", "1/s", Higher);
    add("service.point_ms_p50", "ms", Lower);
    add("service.point_ms_p90", "ms", Lower);
    add("service.overhead_s", "s", Lower);
    add("service.overhead_per_point_ms", "ms", Lower);
    add("service.submit_ms", "ms", Lower);
    add("service.fetch_report_ms", "ms", Lower);
    add("service.journal_bytes", "B", Lower);
    add("service.resume_s", "s", Lower);
    add("service.wall_s_2w", "s", Lower);
    add("service.speedup_2w", "ratio", Higher);
    add("service.proto.json_rtt_ms", "ms", Lower);
    add("service.proto.blob_mb_s", "MB/s", Higher);
    add("service.spec.codec_us", "us", Lower);

    for app in APPS {
        add(&format!("sunmap.select_s.{app}"), "s", Lower);
    }
    add("sunmap.map_to_mesh_s", "s", Lower);
    add("sunmap.evaluate_s", "s", Lower);
    add("sunmap.candidates", "count", Higher);
    add("sunmap.failures", "count", Lower);

    add("synth.switch_synthesis_s", "s", Lower);
    add("synth.ni_synthesis_s", "s", Lower);
    add("synth.freq_area_tradeoff_s", "s", Lower);
    add("synth.mesh_case_study_s", "s", Lower);
    for anchor in ANCHORS {
        add(&format!("synth.anchor.{anchor}_rel_err"), "ratio", Lower);
    }
    add("synth.anchor.max_rel_err", "ratio", Lower);

    add("compiler.parse_spec_us", "us", Lower);
    add("compiler.print_spec_us", "us", Lower);
    add("compiler.emit_views_us", "us", Lower);
    add("compiler.routing_report_us", "us", Lower);
    add("compiler.instantiate_us", "us", Lower);

    add("trace.overhead_frac", "ratio", Lower);
    add("harness.verify_s", "s", Lower);
    add("harness.cpu_s", "s", Lower);
    v
}

/// Values of the per-layer metrics one traced run measured; the rest
/// read 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Names set that the catalogue does not list (a typo in a
    /// workload would otherwise vanish silently).
    pub fn unknown(&self) -> Vec<&str> {
        let known = per_layer();
        self.0
            .keys()
            .filter(|k| !known.iter().any(|(n, _, _)| n == *k))
            .map(String::as_str)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_sim::Json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_obeys_the_contract_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = layers.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        for (_, unit, _) in &layers {
            assert!(valid_unit(unit), "{unit}");
        }
        for m in END_TO_END {
            assert!(valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must agree name for name.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = crate::harness::package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");

        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                )
            })
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        for (m, j) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_array).unwrap())
        {
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.label().to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
