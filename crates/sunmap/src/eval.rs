//! Candidate evaluation: synthesis estimation + simulated performance.
//!
//! For a candidate specification this reads the xpipesCompiler's
//! synthesis report (one library run per distinct switch configuration
//! plus the two NIs, through a caller-owned [`SynthCache`]), consults
//! the floorplanner for wire derating, and replays the application
//! traffic on the cycle-accurate simulator — producing the numbers the
//! SunMap selection stage compares (and that experiment E7 reports).

use std::fmt;

use xpipes::noc::Noc;
use xpipes::{Elaboration, XpipesError};
use xpipes_compiler::{synthesize_spec, SynthCache};
use xpipes_synth::report::{SynthError, SynthReport};
use xpipes_topology::spec::NocSpec;
use xpipes_topology::{NiKind, TaskGraph};
use xpipes_traffic::appdriven::AppTraffic;

use crate::codesign;
use crate::floorplan::floorplan;

/// Evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Clock target for component synthesis, in MHz.
    pub target_mhz: f64,
    /// Injection-rate scale: packets/cycle per MB/s of flow bandwidth.
    pub rate_per_mbps: f64,
    /// Write burst length for application traffic.
    pub burst: u32,
    /// Warm-up cycles before measuring.
    pub warmup: u64,
    /// Measured cycles.
    pub window: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            target_mhz: 1000.0,
            rate_per_mbps: 2.0e-5,
            burst: 4,
            warmup: 1_000,
            window: 8_000,
            seed: 0xD5EC7,
        }
    }
}

/// Evaluation results for one candidate topology.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Candidate name.
    pub name: String,
    /// Total component area in mm².
    pub area_mm2: f64,
    /// Switch-fabric share of `area_mm2` (no NIs), in mm².
    pub fabric_area_mm2: f64,
    /// Operating frequency in MHz: the slowest component's fmax, derated
    /// by the floorplan wire limit and capped at the synthesis target.
    pub fmax_mhz: f64,
    /// Library power summed over every switch and NI, in mW: each
    /// component's estimate at its assumed activities, evaluated at the
    /// synthesis target clock, or at the component's own fmax when it
    /// misses the target. Not re-evaluated at `fmax_mhz`.
    pub power_mw: f64,
    /// Mean transaction latency in cycles (application traffic).
    pub avg_latency_cycles: f64,
    /// Mean transaction latency in nanoseconds (cycles / fmax).
    pub avg_latency_ns: f64,
    /// Accepted application throughput in packets per cycle.
    pub accepted_packets_per_cycle: f64,
    /// Accepted throughput normalised by clock, packets per microsecond.
    pub accepted_packets_per_us: f64,
    /// Link-load imbalance (max/mean) from routing analysis.
    pub load_imbalance: f64,
    /// Number of switches.
    pub switches: usize,
    /// Number of NIs.
    pub nis: usize,
}

impl fmt::Display for CandidateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3} mm², {:.0} MHz, {:.1} mW, {:.1} cyc ({:.1} ns) latency, {:.3} pkt/us",
            self.name,
            self.area_mm2,
            self.fmax_mhz,
            self.power_mw,
            self.avg_latency_cycles,
            self.avg_latency_ns,
            self.accepted_packets_per_us
        )
    }
}

/// Errors from candidate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Synthesis failed for a component.
    Synth(SynthError),
    /// Simulation or specification failure.
    Xpipes(XpipesError),
    /// A bundled benchmark application graph failed to build.
    App(crate::apps::AppBuildError),
    /// Topology selection evaluated no candidate; carries the first
    /// candidate that failed and why.
    NoCandidate {
        /// The failed candidate's name.
        candidate: String,
        /// Why it failed.
        reason: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Synth(e) => write!(f, "synthesis: {e}"),
            EvalError::Xpipes(e) => write!(f, "network: {e}"),
            EvalError::App(e) => write!(f, "application: {e}"),
            EvalError::NoCandidate { candidate, reason } => {
                write!(
                    f,
                    "no candidate evaluated; first failure: {candidate}: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SynthError> for EvalError {
    fn from(e: SynthError) -> Self {
        EvalError::Synth(e)
    }
}

impl From<XpipesError> for EvalError {
    fn from(e: XpipesError) -> Self {
        EvalError::Xpipes(e)
    }
}

impl From<crate::apps::AppBuildError> for EvalError {
    fn from(e: crate::apps::AppBuildError) -> Self {
        EvalError::App(e)
    }
}

/// Evaluates one candidate specification against its application,
/// synthesizing its components afresh.
///
/// # Errors
///
/// Propagates synthesis and simulation failures; a candidate whose
/// specification does not validate is an error, not a silent skip.
pub fn evaluate(
    name: &str,
    spec: &NocSpec,
    graph: &TaskGraph,
    config: &EvalConfig,
) -> Result<CandidateReport, EvalError> {
    evaluate_with(name, spec, graph, config, &mut SynthCache::new())
}

/// [`evaluate`], reading component reports through `cache`: candidates
/// evaluated with one cache share the synthesis of every component they
/// have in common.
///
/// # Errors
///
/// As [`evaluate`].
pub fn evaluate_with(
    name: &str,
    spec: &NocSpec,
    graph: &TaskGraph,
    config: &EvalConfig,
    cache: &mut SynthCache,
) -> Result<CandidateReport, EvalError> {
    let elab = Elaboration::new(spec).map_err(XpipesError::from)?;

    // --- Synthesis side: every switch and NI, summed in topology order.
    let synthesis = synthesize_spec(&elab, config.target_mhz, cache)?;
    let add = |(area, power, fmax): (f64, f64, f64), r: &SynthReport| {
        (area + r.area_mm2, power + r.power_mw, fmax.min(r.fmax_mhz))
    };
    let fabric = synthesis
        .switch_reports()
        .fold((0.0, 0.0, f64::INFINITY), add);
    let fabric_area_mm2 = fabric.0;
    let ni_reports = spec.topology.nis().iter().map(|ni| match ni.kind {
        NiKind::Initiator => &*synthesis.initiator_ni,
        NiKind::Target => &*synthesis.target_ni,
    });
    let (area, power, fmax) = ni_reports.fold(fabric, add);

    // --- Floorplan derating (with greedy placement improvement, which
    // matters for custom topologies whose raster start is poor).
    let plan = crate::floorplan::optimize(spec, &floorplan(spec));
    let stages = spec
        .topology
        .links()
        .iter()
        .map(|l| l.pipeline_stages)
        .max()
        .unwrap_or(1);
    let operating_mhz = plan.derate(fmax, stages).min(config.target_mhz);

    // --- Routing balance, read before the network takes the elaboration.
    let loads = codesign::link_loads(&elab, graph);

    // --- Performance side: replay the application traffic.
    let mut noc = Noc::from_elaboration(elab, config.seed)?;
    let mut app = AppTraffic::new(spec, graph, config.rate_per_mbps, config.burst, config.seed)?;
    app.run(&mut noc, config.warmup);
    let before = noc.stats();
    app.run(&mut noc, config.window);
    let after = noc.stats();
    let delivered = after.packets_delivered - before.packets_delivered;
    let latency_cycles = after.transaction_latency.mean().max(
        // Pure-write workloads have no round trips; fall back to the
        // one-way request latency.
        after.request_latency.mean(),
    );

    let imbalance = codesign::load_report(&loads?).imbalance;
    let accepted_per_cycle = delivered as f64 / config.window as f64;
    Ok(CandidateReport {
        name: name.to_string(),
        area_mm2: area,
        fabric_area_mm2,
        fmax_mhz: operating_mhz,
        power_mw: power,
        avg_latency_cycles: latency_cycles,
        avg_latency_ns: latency_cycles / operating_mhz * 1000.0,
        accepted_packets_per_cycle: accepted_per_cycle,
        accepted_packets_per_us: accepted_per_cycle * operating_mhz,
        load_imbalance: imbalance,
        switches: spec.topology.switch_count(),
        nis: spec.topology.nis().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::mapping::{build_spec, map_to_mesh};

    fn quick_config() -> EvalConfig {
        EvalConfig {
            warmup: 200,
            window: 1500,
            ..EvalConfig::default()
        }
    }

    #[test]
    fn evaluates_vopd_on_mesh() {
        let g = apps::vopd().expect("app builds");
        let m = map_to_mesh(&g, 3, 4, 1, 3).unwrap();
        let spec = build_spec(&g, &m, 32).unwrap();
        let r = evaluate("vopd-3x4", &spec, &g, &quick_config()).unwrap();
        assert!(r.area_mm2 > 0.5, "{}", r.area_mm2);
        assert!(r.fmax_mhz > 500.0 && r.fmax_mhz <= 1000.0, "{}", r.fmax_mhz);
        assert!(r.power_mw > 10.0);
        assert!(r.avg_latency_cycles > 0.0);
        assert!(r.avg_latency_ns > 0.0);
        assert!(r.switches == 12 && r.nis == 24);
        assert!(r.load_imbalance >= 1.0);
        assert!(r.to_string().contains("mm²"));

        // The fabric share plus the NIs is the total.
        let elab = Elaboration::new(&spec).unwrap();
        let view = synthesize_spec(&elab, quick_config().target_mhz, &mut SynthCache::new());
        let view = view.unwrap();
        let count = |kind| spec.topology.nis_of_kind(kind).count() as f64;
        let ni_area = view.initiator_ni.area_mm2 * count(NiKind::Initiator)
            + view.target_ni.area_mm2 * count(NiKind::Target);
        let rel = (r.fabric_area_mm2 + ni_area - r.area_mm2).abs() / r.area_mm2;
        assert!(
            rel < 1e-12,
            "fabric {} + NIs {ni_area} vs {}",
            r.fabric_area_mm2,
            r.area_mm2
        );
    }

    #[test]
    fn library_power_ignores_load() {
        let g = apps::vopd().expect("app builds");
        let m = map_to_mesh(&g, 3, 4, 1, 3).unwrap();
        let spec = build_spec(&g, &m, 32).unwrap();
        let mut light = quick_config();
        light.rate_per_mbps = 5.0e-6;
        let mut heavy = quick_config();
        heavy.rate_per_mbps = 8.0e-5;
        let r_light = evaluate("light", &spec, &g, &light).unwrap();
        let r_heavy = evaluate("heavy", &spec, &g, &heavy).unwrap();
        // The library estimate is workload independent.
        assert_eq!(r_light.power_mw, r_heavy.power_mw);
    }

    #[test]
    fn larger_flit_width_costs_area() {
        let g = apps::mwd().expect("app builds");
        let m = map_to_mesh(&g, 3, 4, 1, 3).unwrap();
        let s32 = build_spec(&g, &m, 32).unwrap();
        let s64 = build_spec(&g, &m, 64).unwrap();
        let cfg = quick_config();
        let r32 = evaluate("w32", &s32, &g, &cfg).unwrap();
        let r64 = evaluate("w64", &s64, &g, &cfg).unwrap();
        assert!(r64.area_mm2 > r32.area_mm2 * 1.3);
    }

    #[test]
    fn invalid_spec_is_error() {
        let g = apps::mwd().expect("app builds");
        let m = map_to_mesh(&g, 3, 4, 1, 3).unwrap();
        let mut spec = build_spec(&g, &m, 32).unwrap();
        spec.flit_width = 1; // invalid
        assert!(evaluate("bad", &spec, &g, &quick_config()).is_err());
    }
}
