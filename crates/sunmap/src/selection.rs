//! Topology selection: candidate generation and scored comparison.
//!
//! The SunMap "Topology Selection" stage: iterate a topology library
//! (mesh variants) plus a **custom application-specific topology**
//! clustered from the task graph, map the application onto each, evaluate
//! with the area/power libraries + floorplanner + simulator, and pick the
//! best under a weighted objective. The full report list reproduces the
//! paper's "sample xpipes topologies" comparison (experiment E7).
//!
//! One `select` call characterises each distinct component once: its
//! candidates share one [`SynthCache`], created when the call starts and
//! dropped when it returns. No synthesis result outlives the call, so a
//! second `select` repeats the first one's work.

use std::fmt;

use xpipes::XpipesError;
use xpipes_compiler::{CacheStats, SynthCache};
use xpipes_topology::appgraph::CoreId;
use xpipes_topology::spec::NocSpec;
use xpipes_topology::{PortId, TaskGraph, Topology};

use xpipes_traffic::appdriven::{INITIATOR_SUFFIX, TARGET_SUFFIX};

use crate::eval::{evaluate, evaluate_with, CandidateReport, EvalConfig, EvalError};
use crate::mapping::{build_spec_grid, map_to_mesh, GridKind};

/// Selection parameters.
#[derive(Debug, Clone, Copy)]
pub struct SelectionConfig {
    /// Flit width for all candidates.
    pub flit_width: u32,
    /// Cores per mesh switch.
    pub cores_per_switch: usize,
    /// Cores per custom-topology cluster.
    pub cluster_size: usize,
    /// Evaluation parameters.
    pub eval: EvalConfig,
    /// Objective weight on area.
    pub weight_area: f64,
    /// Objective weight on power.
    pub weight_power: f64,
    /// Objective weight on latency (ns).
    pub weight_latency: f64,
    /// Mapping/annealing seed.
    pub seed: u64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            flit_width: 32,
            cores_per_switch: 2,
            cluster_size: 3,
            eval: EvalConfig::default(),
            weight_area: 1.0,
            weight_power: 0.5,
            weight_latency: 1.0,
            seed: 0x5E1EC7,
        }
    }
}

/// Result of a selection run.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// Successfully evaluated candidates.
    pub reports: Vec<CandidateReport>,
    /// Index of the winner in `reports`.
    pub winner: usize,
    /// Candidates that failed, with reasons.
    pub failures: Vec<(String, String)>,
    /// Component reports the candidates asked for, and how many of them
    /// ran synthesis.
    pub synthesis: CacheStats,
}

impl SelectionOutcome {
    /// The winning candidate's report.
    pub fn winner(&self) -> &CandidateReport {
        &self.reports[self.winner]
    }
}

impl fmt::Display for SelectionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.reports.iter().enumerate() {
            let mark = if i == self.winner { "*" } else { " " };
            writeln!(f, "{mark} {r}")?;
        }
        Ok(())
    }
}

/// Candidate mesh dimensions for `cores` cores at `cap` cores/switch.
fn mesh_candidates(cores: usize, cap: usize) -> Vec<(usize, usize)> {
    let needed = cores.div_ceil(cap).max(2);
    let side = (needed as f64).sqrt().ceil() as usize;
    let mut dims = vec![
        (side, needed.div_ceil(side)),
        (side + 1, needed.div_ceil(side + 1)),
        (needed.div_ceil(2), 2),
    ];
    dims.retain(|&(a, b)| a * b * cap >= cores && a >= 1 && b >= 1);
    dims.sort();
    dims.dedup();
    dims
}

/// Runs the full selection flow for `graph`.
///
/// # Errors
///
/// [`EvalError`] only when *no* candidate evaluates successfully;
/// individual candidate failures are collected in the outcome.
pub fn select(graph: &TaskGraph, config: &SelectionConfig) -> Result<SelectionOutcome, EvalError> {
    let mut cache = SynthCache::new();
    let mut reports = Vec::new();
    let mut failures = Vec::new();

    for (cols, rows) in mesh_candidates(graph.core_count(), config.cores_per_switch) {
        let mut kinds = vec![(GridKind::Mesh, format!("mesh{cols}x{rows}"))];
        // A torus only differs from the mesh when a dimension can wrap.
        if cols > 2 || rows > 2 {
            kinds.push((GridKind::Torus, format!("torus{cols}x{rows}")));
        }
        for (kind, name) in kinds {
            let result = map_to_mesh(graph, cols, rows, config.cores_per_switch, config.seed)
                .and_then(|m| build_spec_grid(graph, &m, config.flit_width, kind))
                .map_err(|e| EvalError::from(XpipesError::from(e)))
                .and_then(|spec| evaluate_with(&name, &spec, graph, &config.eval, &mut cache));
            match result {
                Ok(r) => reports.push(r),
                Err(e) => failures.push((name, e.to_string())),
            }
        }
    }

    let custom = custom_topology(graph, config.flit_width, config.cluster_size)
        .map_err(EvalError::from)
        .and_then(|spec| evaluate_with("custom", &spec, graph, &config.eval, &mut cache));
    match custom {
        Ok(r) => reports.push(r),
        Err(e) => failures.push(("custom".to_string(), e.to_string())),
    }

    if reports.is_empty() {
        // The custom candidate is always tried, so something failed.
        let (candidate, reason) = failures.swap_remove(0);
        return Err(EvalError::NoCandidate { candidate, reason });
    }

    // Weighted score against the per-objective minima.
    let min_area = reports
        .iter()
        .map(|r| r.area_mm2)
        .fold(f64::INFINITY, f64::min);
    let min_power = reports
        .iter()
        .map(|r| r.power_mw)
        .fold(f64::INFINITY, f64::min);
    let min_lat = reports
        .iter()
        .map(|r| r.avg_latency_ns.max(1e-9))
        .fold(f64::INFINITY, f64::min);
    let score = |r: &CandidateReport| {
        config.weight_area * r.area_mm2 / min_area
            + config.weight_power * r.power_mw / min_power
            + config.weight_latency * r.avg_latency_ns.max(1e-9) / min_lat
    };
    let winner = reports
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| score(a).partial_cmp(&score(b)).expect("finite scores"))
        .map(|(i, _)| i)
        .expect("nonempty");
    Ok(SelectionOutcome {
        reports,
        winner,
        failures,
        synthesis: cache.stats(),
    })
}

/// Applies the routing co-design's buffer-size recommendations to a
/// specification and re-evaluates it — the optional "Component
/// Optimizations: Buffer Sizes" pass run on a selection winner.
///
/// Returns the optimized spec and its report.
///
/// # Errors
///
/// Propagates analysis and evaluation failures.
pub fn optimize_buffers(
    spec: &NocSpec,
    graph: &TaskGraph,
    eval: &EvalConfig,
) -> Result<(NocSpec, CandidateReport), EvalError> {
    let mut optimized = spec.clone();
    let depths = crate::codesign::recommend_queue_depths(spec, graph, spec.output_queue_depth)?;
    for (sw, depth) in depths {
        optimized
            .set_queue_depth(sw, depth)
            .map_err(XpipesError::from)?;
    }
    let name = format!("{}+buffers", spec.name);
    let report = evaluate(&name, &optimized, graph, eval)?;
    Ok((optimized, report))
}

/// Builds a custom application-specific topology: cores are clustered by
/// communication affinity (greedy pair merging up to `cluster_size`),
/// each cluster becomes one switch, clusters are chained into a ring
/// ordered by affinity, and express links shortcut the heaviest
/// non-adjacent cluster pairs.
///
/// # Errors
///
/// Propagates construction errors; in particular, graphs whose clustered
/// diameter exceeds the 7-hop source-route limit are rejected at
/// validation.
pub fn custom_topology(
    graph: &TaskGraph,
    flit_width: u32,
    cluster_size: usize,
) -> Result<NocSpec, XpipesError> {
    let n = graph.core_count();
    assert!(cluster_size >= 1, "cluster size must be positive");
    // Affinity matrix between cores.
    let bw = |a: CoreId, b: CoreId| graph.bandwidth_between(a, b) + graph.bandwidth_between(b, a);

    // Greedy merging.
    let mut clusters: Vec<Vec<CoreId>> = graph.cores().map(|c| vec![c]).collect();
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..clusters.len() {
            for j in i + 1..clusters.len() {
                if clusters[i].len() + clusters[j].len() > cluster_size {
                    continue;
                }
                let affinity: f64 = clusters[i]
                    .iter()
                    .flat_map(|&a| clusters[j].iter().map(move |&b| bw(a, b)))
                    .sum();
                if affinity > 0.0 && best.is_none_or(|(_, _, w)| affinity > w) {
                    best = Some((i, j, affinity));
                }
            }
        }
        let Some((i, j, _)) = best else { break };
        let merged = clusters.remove(j);
        clusters[i].extend(merged);
    }

    // Order clusters into a chain by inter-cluster affinity (greedy
    // nearest-neighbour from the heaviest cluster).
    let cluster_affinity = |a: &[CoreId], b: &[CoreId]| -> f64 {
        a.iter()
            .flat_map(|&x| b.iter().map(move |&y| bw(x, y)))
            .sum()
    };
    let mut order: Vec<usize> = Vec::with_capacity(clusters.len());
    let mut remaining: Vec<usize> = (0..clusters.len()).collect();
    // Start at the cluster with the largest total traffic.
    remaining.sort_by(|&a, &b| {
        let ta: f64 = clusters[a]
            .iter()
            .map(|&c| {
                graph
                    .flows_from(c)
                    .chain(graph.flows_to(c))
                    .map(|f| f.bandwidth_mbps)
                    .sum::<f64>()
            })
            .sum();
        let tb: f64 = clusters[b]
            .iter()
            .map(|&c| {
                graph
                    .flows_from(c)
                    .chain(graph.flows_to(c))
                    .map(|f| f.bandwidth_mbps)
                    .sum::<f64>()
            })
            .sum();
        tb.partial_cmp(&ta).expect("finite")
    });
    order.push(remaining.remove(0));
    while !remaining.is_empty() {
        let last = *order.last().expect("nonempty");
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                cluster_affinity(&clusters[last], &clusters[a])
                    .partial_cmp(&cluster_affinity(&clusters[last], &clusters[b]))
                    .expect("finite")
            })
            .expect("nonempty");
        order.push(remaining.remove(pos));
    }

    // Build the topology: one switch per cluster, ring + express links.
    let mut topo = Topology::new();
    let switches: Vec<_> = (0..order.len())
        .map(|i| topo.add_switch(format!("cl{i}")))
        .collect();
    let k = switches.len();
    if k > 1 {
        for i in 0..k {
            let next = (i + 1) % k;
            if k == 2 && i == 1 {
                break;
            }
            topo.add_bidi_link(switches[i], PortId(0), switches[next], PortId(1), 1)?;
        }
    }
    // Express links: heaviest non-adjacent ordered-cluster pairs.
    if k > 4 {
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..k {
            for j in i + 2..k {
                if i == 0 && j == k - 1 {
                    continue; // ring-adjacent via wraparound
                }
                let w = cluster_affinity(&clusters[order[i]], &clusters[order[j]]);
                if w > 0.0 {
                    pairs.push((i, j, w));
                }
            }
        }
        pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));
        let mut express_ports = vec![2u8; k];
        for (i, j, _) in pairs.into_iter().take(k / 2) {
            if express_ports[i] >= 4 || express_ports[j] >= 4 {
                continue;
            }
            let (pa, pb) = (express_ports[i], express_ports[j]);
            if topo
                .add_bidi_link(switches[i], PortId(pa), switches[j], PortId(pb), 1)
                .is_ok()
            {
                express_ports[i] += 1;
                express_ports[j] += 1;
            }
        }
    }

    // Attach NIs per cluster.
    let mut targets = Vec::new();
    for (pos, &ci) in order.iter().enumerate() {
        for &core in &clusters[ci] {
            let name = graph.core_name(core).unwrap_or_default().to_string();
            let kind = graph.core_kind(core).expect("exists");
            if kind.can_initiate() {
                topo.attach_ni_auto(
                    format!("{name}{INITIATOR_SUFFIX}"),
                    xpipes_topology::NiKind::Initiator,
                    switches[pos],
                )?;
            }
            if kind.can_serve() {
                let ni = topo.attach_ni_auto(
                    format!("{name}{TARGET_SUFFIX}"),
                    xpipes_topology::NiKind::Target,
                    switches[pos],
                )?;
                targets.push(ni);
            }
        }
    }
    let mut spec = NocSpec::new(format!("{}-custom", graph.name()), topo);
    spec.flit_width = flit_width;
    for (i, ni) in targets.into_iter().enumerate() {
        spec.map_address(ni, (i as u64) << 20, 1 << 20)?;
    }
    let tables = spec.validate()?;
    // Source routes must fit the header field.
    if tables.max_hops() > xpipes_topology::route::MAX_HOPS {
        return Err(XpipesError::RouteTooLong {
            hops: tables.max_hops(),
            max: xpipes_topology::route::MAX_HOPS,
        });
    }
    let _ = n;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    #[test]
    fn mesh_candidate_dims_cover_cores() {
        for cores in [6, 12, 19, 30] {
            let dims = mesh_candidates(cores, 2);
            assert!(!dims.is_empty());
            for (a, b) in dims {
                assert!(a * b * 2 >= cores, "{a}x{b} cannot host {cores}");
            }
        }
    }

    #[test]
    fn custom_topology_is_valid_and_smaller_diameter() {
        let g = apps::vopd().expect("app builds");
        let spec = custom_topology(&g, 32, 3).unwrap();
        assert!(spec.validate().is_ok());
        // 12 cores at ≤3/cluster: at least 4 switches.
        assert!(spec.topology.switch_count() >= 4);
        // Fewer switches than the 3x4 mesh the paper would use.
        assert!(spec.topology.switch_count() < 12);
        // Heavy pipeline stages are clustered: average hops must beat a
        // scattered placement bound.
        assert!(spec.topology.avg_initiator_target_hops() < 4.0);
    }

    #[test]
    fn custom_topology_clusters_heavy_pairs() {
        let g = apps::vopd().expect("app builds");
        let spec = custom_topology(&g, 32, 3).unwrap();
        // run_le_dec -> inv_scan is the heaviest flow (362): they should
        // share a switch or be adjacent.
        let a = spec.topology.ni_by_name("run_le_dec#i").unwrap().switch;
        let b = spec.topology.ni_by_name("inv_scan#t").unwrap().switch;
        let hops = spec
            .topology
            .shortest_path(a, b)
            .map(|p| p.len())
            .unwrap_or(usize::MAX);
        assert!(hops <= 1, "heaviest pair is {hops} hops apart");
    }

    #[test]
    fn selection_runs_end_to_end() {
        let g = apps::mwd().expect("app builds");
        let mut cfg = SelectionConfig::default();
        cfg.eval.warmup = 200;
        cfg.eval.window = 1200;
        let outcome = select(&g, &cfg).unwrap();
        assert!(
            outcome.reports.len() >= 2,
            "failures: {:?}",
            outcome.failures
        );
        let display = outcome.to_string();
        assert!(display.contains('*'));
        // Winner must be a member.
        assert!(outcome.winner < outcome.reports.len());
        let _ = outcome.winner();
    }

    #[test]
    fn each_distinct_component_is_synthesized_once_per_select() {
        // Lookups are one per switch plus the two NIs of every candidate;
        // syntheses are the distinct (config, target) pairs among them.
        // Neither count depends on the simulated window.
        let mut cfg = SelectionConfig::default();
        cfg.eval.warmup = 50;
        cfg.eval.window = 200;
        let expected = [
            ("mpeg4", apps::mpeg4_decoder as fn() -> _, (44, 8)),
            ("vopd", apps::vopd, (43, 9)),
            ("mwd", apps::mwd, (42, 8)),
            ("pip", apps::pip, (28, 9)),
            ("h263enc", apps::h263_enc_mp3_dec, (43, 9)),
            ("d26", apps::d26_media_soc, (63, 8)),
        ];
        for (app, graph, (lookups, syntheses)) in expected {
            let outcome = select(&graph().expect("app builds"), &cfg).unwrap();
            let lookups_wanted: usize = outcome.reports.iter().map(|r| r.switches + 2).sum();
            assert_eq!(outcome.synthesis.lookups, lookups_wanted, "{app}");
            assert_eq!(
                (outcome.synthesis.lookups, outcome.synthesis.syntheses),
                (lookups, syntheses),
                "{app}"
            );
        }
    }

    #[test]
    fn no_evaluated_candidate_is_its_own_error() {
        let g = apps::vopd().expect("app builds");
        let cfg = SelectionConfig {
            flit_width: 0,
            ..SelectionConfig::default()
        };
        let err = select(&g, &cfg).unwrap_err();
        assert!(matches!(err, EvalError::NoCandidate { .. }), "{err:?}");
        assert_eq!(
            err.to_string(),
            "no candidate evaluated; first failure: mesh3x2: network: spec error: \
             flit width 0 outside supported range 8..=128"
        );
    }

    #[test]
    fn torus_candidates_appear_for_wrappable_grids() {
        let g = apps::vopd().expect("app builds");
        let mut cfg = SelectionConfig::default();
        cfg.eval.warmup = 100;
        cfg.eval.window = 600;
        let outcome = select(&g, &cfg).unwrap();
        let names: Vec<&str> = outcome.reports.iter().map(|r| r.name.as_str()).collect();
        assert!(
            names.iter().any(|n| n.starts_with("torus")),
            "no torus candidate in {names:?} (failures {:?})",
            outcome.failures
        );
    }

    #[test]
    fn buffer_optimization_is_applicable() {
        let g = apps::vopd().expect("app builds");
        let m = crate::mapping::map_to_mesh(&g, 3, 4, 1, 7).unwrap();
        let spec = crate::mapping::build_spec(&g, &m, 32).unwrap();
        let eval = crate::eval::EvalConfig {
            warmup: 200,
            window: 1200,
            ..Default::default()
        };
        let base = crate::eval::evaluate("base", &spec, &g, &eval).unwrap();
        let (optimized, report) = optimize_buffers(&spec, &g, &eval).unwrap();
        assert!(!optimized.queue_depth_overrides.is_empty());
        assert!(report.name.ends_with("+buffers"));
        // Deeper queues cost area, never save it.
        assert!(report.area_mm2 >= base.area_mm2);
    }

    #[test]
    fn latency_weight_steers_selection() {
        let g = apps::vopd().expect("app builds");
        let mut fast = SelectionConfig::default();
        fast.eval.warmup = 200;
        fast.eval.window = 1200;
        fast.weight_latency = 50.0;
        fast.weight_area = 0.01;
        fast.weight_power = 0.0;
        let fast_outcome = select(&g, &fast).unwrap();

        let mut small = fast;
        small.weight_latency = 0.01;
        small.weight_area = 50.0;
        let small_outcome = select(&g, &small).unwrap();

        let fast_winner = fast_outcome.winner();
        let small_winner = small_outcome.winner();
        assert!(small_winner.area_mm2 <= fast_winner.area_mm2 + 1e-9);
        assert!(fast_winner.avg_latency_ns <= small_winner.avg_latency_ns + 1e-9);
    }
}
