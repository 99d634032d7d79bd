//! Cycle-engine throughput benchmark.
//!
//! Measures how fast the simulation engine itself runs — cycles per
//! wall-clock second and flits routed per second — on two reference
//! workloads: a 4x4 mesh under uniform-random traffic and the same mesh
//! under hotspot traffic. The workloads are fully seeded, so the *work*
//! (packets injected, flits routed, cycles simulated) is identical across
//! engine versions; only the wall-clock changes. This is the perf
//! baseline future engine changes are judged against: the `cycle_engine`
//! binary writes `BENCH_cycle_engine.json` at the repo root recording
//! both the checked-in pre-overhaul reference numbers and the current
//! measurement.

use std::time::Instant;

use crate::progress::{rate_fields, ProgressStream};
use xpipes::noc::{Noc, TelemetryConfig};
use xpipes::XpipesError;
use xpipes_sim::{Json, KernelHealth, Snapshot, SnapshotReader, SnapshotWriter};
use xpipes_topology::builders::mesh;
use xpipes_topology::spec::NocSpec;
use xpipes_traffic::generator::{Injector, InjectorConfig};
use xpipes_traffic::pattern::Pattern;

/// Seed shared by every reference workload.
pub const BENCH_SEED: u64 = 42;

/// Injection rate (packets per cycle per initiator) of the reference
/// workloads: light enough that the network never saturates, so the
/// engine spends most cycles in the common lightly-loaded regime.
pub const BENCH_RATE: f64 = 0.05;

/// Injection rate of the large-fabric workloads. Sixteen initiators at
/// this rate keep the aggregate offered load below the 4x4 reference
/// (0.16 vs 0.2 packets/cycle), so the big meshes also stay in the
/// lightly-loaded regime the engine is benchmarked in.
pub const BENCH_RATE_LARGE: f64 = 0.01;

/// Default measured cycles per workload.
pub const DEFAULT_CYCLES: u64 = 200_000;

/// Pre-overhaul engine throughput on the reference host (cycles/sec),
/// measured at the commit before the hot-path overhaul with this exact
/// harness. Kept so the report always records the pre/post pair the
/// overhaul is judged against.
pub const PRE_PR_UNIFORM_CYCLES_PER_SEC: f64 = 145_538.0;
/// Pre-overhaul hotspot throughput (cycles/sec) on the reference host.
pub const PRE_PR_HOTSPOT_CYCLES_PER_SEC: f64 = 144_953.0;

/// The reference 4x4 mesh: four initiators along the top row, four
/// targets along the bottom row, each target owning a 1 MiB window.
pub fn reference_spec() -> NocSpec {
    let mut b = mesh(4, 4).expect("4x4 mesh is valid");
    for i in 0..4 {
        b.attach_initiator(format!("cpu{i}"), (i, 0))
            .expect("free port");
    }
    let mut targets = Vec::new();
    for i in 0..4 {
        targets.push(b.attach_target(format!("m{i}"), (i, 3)).expect("free port"));
    }
    let mut spec = NocSpec::new("cycle-engine-4x4", b.into_topology());
    for (i, t) in targets.into_iter().enumerate() {
        spec.map_address(t, (i as u64) << 20, 1 << 20)
            .expect("window fits");
    }
    spec
}

/// A `dim`x`dim` mesh partitioned into sixteen square tiles, each with
/// one central initiator and four tile-local targets placed a Manhattan
/// distance of 6 from it — the longest route (6 switch traversals plus
/// the ejection hop) exactly fills the 7-hop source-route budget, so
/// the same tiling scales to any mesh size. Targets are attached
/// tile-major, 4 per tile, which is the indexing
/// [`Pattern::TileUniform`] assumes.
pub fn tiled_spec(dim: usize, name: &str) -> NocSpec {
    assert!(
        dim.is_multiple_of(4) && dim / 4 >= 8,
        "tiled meshes need a multiple-of-4 dimension with tiles of at least 8x8"
    );
    let tile = dim / 4;
    let mid = tile / 2;
    let (lo, hi) = (mid - 3, mid + 3);
    let mut b = mesh(dim, dim).expect("mesh is valid");
    let mut targets = Vec::new();
    for ty in 0..4 {
        for tx in 0..4 {
            let t = ty * 4 + tx;
            let (ox, oy) = (tx * tile, ty * tile);
            b.attach_initiator(format!("cpu{t}"), (ox + mid, oy + mid))
                .expect("free port");
            for (k, (dx, dy)) in [(lo, lo), (hi, lo), (lo, hi), (hi, hi)]
                .into_iter()
                .enumerate()
            {
                targets.push(
                    b.attach_target(format!("m{}", t * 4 + k), (ox + dx, oy + dy))
                        .expect("free port"),
                );
            }
        }
    }
    let mut spec = NocSpec::new(name, b.into_topology());
    for (i, t) in targets.into_iter().enumerate() {
        spec.map_address(t, (i as u64) << 20, 1 << 20)
            .expect("window fits");
    }
    spec
}

/// The reference workloads: the original 4x4 pair plus the large-fabric
/// tiled meshes that exercise the event-driven kernel at scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform-random destinations on the 4x4 reference mesh.
    UniformRandom,
    /// 50% of traffic aimed at target 0 on the 4x4 reference mesh.
    Hotspot,
    /// Tile-local uniform traffic on a 32x32 mesh (16 tiles of 8x8).
    UniformRandom32,
    /// Tile-local uniform traffic on a 64x64 mesh (16 tiles of 16x16).
    UniformRandom64,
    /// Tile-local hotspot traffic on the 64x64 mesh.
    Hotspot64,
}

/// Every workload, in the canonical report order.
pub const ALL_WORKLOADS: [Workload; 5] = [
    Workload::UniformRandom,
    Workload::Hotspot,
    Workload::UniformRandom32,
    Workload::UniformRandom64,
    Workload::Hotspot64,
];

impl Workload {
    /// Stable machine-readable name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformRandom => "uniform_random_4x4",
            Workload::Hotspot => "hotspot_4x4",
            Workload::UniformRandom32 => "uniform_random_32x32",
            Workload::UniformRandom64 => "uniform_random_64x64",
            Workload::Hotspot64 => "hotspot_64x64",
        }
    }

    /// Parses a [`name`](Self::name) back into a workload.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The network this workload runs on.
    pub fn spec(self) -> NocSpec {
        match self {
            Workload::UniformRandom | Workload::Hotspot => reference_spec(),
            Workload::UniformRandom32 => tiled_spec(32, "cycle-engine-32x32"),
            Workload::UniformRandom64 | Workload::Hotspot64 => tiled_spec(64, "cycle-engine-64x64"),
        }
    }

    /// Injection rate (packets per cycle per initiator).
    pub fn rate(self) -> f64 {
        match self {
            Workload::UniformRandom | Workload::Hotspot => BENCH_RATE,
            _ => BENCH_RATE_LARGE,
        }
    }

    fn pattern(self) -> Pattern {
        match self {
            Workload::UniformRandom => Pattern::Uniform,
            Workload::Hotspot => Pattern::Hotspot {
                target: 0,
                fraction: 0.5,
            },
            Workload::UniformRandom32 | Workload::UniformRandom64 => Pattern::TileUniform {
                targets_per_tile: 4,
            },
            Workload::Hotspot64 => Pattern::TileHotspot {
                targets_per_tile: 4,
                fraction: 0.5,
            },
        }
    }
}

/// One measured workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Total cycles simulated (injection + drain).
    pub cycles: u64,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Flits moved through switch crossbars per wall-clock second.
    pub flits_per_sec: f64,
    /// Flits routed (work fingerprint: must not change across engine
    /// versions for the same seed).
    pub flits_routed: u64,
    /// Packets delivered end to end (work fingerprint).
    pub packets_delivered: u64,
    /// Flit retransmissions over all links (deterministic; excluded
    /// from the work fingerprint, which predates it, but recorded in
    /// the run ledger where the sentinel watches it).
    pub retransmissions: u64,
    /// Kernel-health counters for the run (deterministic; excluded
    /// from the work fingerprint, which predates it).
    pub kernel_health: KernelHealth,
}

/// Which observers ride a timed workload run. The default is the bare
/// engine — no telemetry, no attribution, no profiler.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Attach the telemetry layer (metric registry, optional timeline
    /// and flight recorder).
    pub telemetry: Option<TelemetryConfig>,
    /// Attach the per-packet latency attribution ledger.
    pub attribution: bool,
    /// Arm the wall-clock kernel phase profiler.
    pub profile: bool,
}

/// One NDJSON heartbeat line. `remaining` is the known-remaining cycle
/// count (injection phase) or `None` (drain — the end is data-dependent).
/// The `"done"` phase marks the final line of a run.
fn emit_heartbeat(
    p: &mut ProgressStream,
    workload: Workload,
    phase: &str,
    noc: &Noc,
    target: u64,
    remaining: Option<u64>,
    start: Instant,
) {
    let final_line = phase == "done";
    let stats = noc.stats();
    let health = noc.kernel_health();
    let (cps, eta) = rate_fields(stats.cycles, start.elapsed().as_secs_f64(), remaining);
    p.emit(
        &Json::object()
            .field("workload", Json::str(workload.name()))
            .field("phase", Json::str(phase))
            .field("cycle", Json::UInt(stats.cycles))
            .field("target_cycles", Json::UInt(target))
            .field("packets_delivered", Json::UInt(stats.packets_delivered))
            .field("retransmissions", Json::UInt(stats.retransmissions))
            .field("flits_routed", Json::UInt(stats.flits_routed))
            .field("event_steps", Json::UInt(health.event_steps()))
            .field("fallback_steps", Json::UInt(health.fallback_steps()))
            .field("time_jumps", Json::UInt(health.time_jumps()))
            .field("cycles_per_sec", cps)
            .field("eta_s", eta)
            .field("final", Json::Bool(final_line))
            .build(),
    );
}

/// Runs one reference workload for `cycles` injection cycles plus drain,
/// timing the whole simulation. Returns the network alongside the
/// measurement so instrumented callers can export telemetry artifacts.
/// With a progress stream the run is chunked at the stream's heartbeat
/// interval — state-identical to the unchunked run (time jumps are
/// bounded by the remaining chunk instead of the remaining budget, but
/// every skipped cycle is a no-op either way).
fn run_timed(
    workload: Workload,
    cycles: u64,
    opts: &RunOptions,
    mut progress: Option<&mut ProgressStream>,
) -> Result<(Noc, WorkloadResult), XpipesError> {
    let spec = workload.spec();
    let mut noc = Noc::with_seed(&spec, BENCH_SEED)?;
    if let Some(cfg) = &opts.telemetry {
        noc.enable_telemetry(*cfg);
    }
    if opts.attribution {
        noc.enable_attribution();
    }
    if opts.profile {
        noc.enable_profiling();
    }
    let mut inj = Injector::new(
        &spec,
        InjectorConfig::new(workload.rate(), workload.pattern()),
        BENCH_SEED ^ 0x5EED,
    )?;
    let start = Instant::now();
    match progress.as_deref_mut() {
        None => {
            inj.run(&mut noc, cycles);
            noc.run_until_idle(cycles / 2);
        }
        Some(p) => {
            let chunk = p.interval;
            let mut done = 0u64;
            while done < cycles {
                let n = chunk.min(cycles - done);
                inj.run(&mut noc, n);
                done += n;
                emit_heartbeat(
                    p,
                    workload,
                    "inject",
                    &noc,
                    cycles,
                    Some(cycles - done),
                    start,
                );
            }
            let budget = cycles / 2;
            let mut used = 0u64;
            while used < budget {
                let n = chunk.min(budget - used);
                let idle = noc.run_until_idle(n);
                used += n;
                emit_heartbeat(p, workload, "drain", &noc, cycles, None, start);
                if idle {
                    break;
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    inj.drain_responses(&mut noc);
    noc.flush_telemetry();
    let stats = noc.stats();
    if let Some(p) = progress {
        emit_heartbeat(p, workload, "done", &noc, cycles, Some(0), start);
    }
    let total_cycles = stats.cycles;
    let result = WorkloadResult {
        name: workload.name(),
        cycles: total_cycles,
        elapsed_s: elapsed,
        cycles_per_sec: total_cycles as f64 / elapsed,
        flits_per_sec: stats.flits_routed as f64 / elapsed,
        flits_routed: stats.flits_routed,
        packets_delivered: stats.packets_delivered,
        retransmissions: stats.retransmissions,
        kernel_health: noc.kernel_health().clone(),
    };
    Ok((noc, result))
}

/// Runs one reference workload for `cycles` injection cycles plus drain,
/// timing the whole simulation.
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn run_workload(workload: Workload, cycles: u64) -> Result<WorkloadResult, XpipesError> {
    run_timed(workload, cycles, &RunOptions::default(), None).map(|(_, r)| r)
}

/// A workload measurement with every requested observer's rendered
/// artifact: the one-stop result the `cycle_engine` binary consumes.
#[derive(Debug)]
pub struct ObservedRun {
    /// The timed measurement (work fingerprint unchanged by observers).
    pub result: WorkloadResult,
    /// Rendered metric-registry JSON, when telemetry ran.
    pub registry_json: Option<String>,
    /// Rendered congestion-timeline JSON, when the config collected one.
    pub timeline_json: Option<String>,
    /// Rendered Perfetto trace (flit spans, attribution spans, and
    /// kernel-health counter tracks), when a flight recorder ran.
    pub perfetto_json: Option<String>,
    /// The attribution report, when the ledger ran.
    pub attribution: Option<Json>,
    /// The kernel phase profile, when profiling was armed. Wall-clock
    /// data: emit only in sections excluded from byte comparison.
    pub kernel_profile: Option<Json>,
    /// Per-run telemetry digest (total/per-link retransmissions, peak
    /// queue depth). A pure function of end-of-run counters —
    /// deterministic, available with or without the telemetry layer —
    /// recorded in the run ledger.
    pub telemetry_summary: Json,
}

/// Runs one reference workload with the observers selected in `opts`,
/// streaming NDJSON heartbeats to `progress` when given.
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn run_workload_observed(
    workload: Workload,
    cycles: u64,
    opts: &RunOptions,
    progress: Option<&mut ProgressStream>,
) -> Result<ObservedRun, XpipesError> {
    let (noc, result) = run_timed(workload, cycles, opts, progress)?;
    Ok(ObservedRun {
        result,
        registry_json: noc.telemetry_registry().map(|r| r.to_json().render()),
        timeline_json: noc.timeline_json(),
        perfetto_json: noc.perfetto_json_with_health(),
        attribution: noc.attribution_report(),
        kernel_profile: noc.kernel_profile().map(|p| p.to_json()),
        telemetry_summary: noc.telemetry_summary().to_json(),
    })
}

/// A workload measurement taken with the telemetry layer attached, plus
/// the rendered observability artifacts it produced.
#[derive(Debug)]
pub struct InstrumentedRun {
    /// The timed measurement (same fields as an uninstrumented run; the
    /// work fingerprint must match it exactly).
    pub result: WorkloadResult,
    /// Rendered metric-registry JSON.
    pub registry_json: String,
    /// Rendered congestion-timeline JSON, when the config collects one.
    pub timeline_json: Option<String>,
    /// Rendered Chrome/Perfetto `trace_event` JSON of the flight
    /// recorder's event window, when the config runs a recorder.
    pub perfetto_json: Option<String>,
}

/// Runs one reference workload with telemetry enabled and returns the
/// measurement together with the rendered artifacts.
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn run_workload_instrumented(
    workload: Workload,
    cycles: u64,
    config: TelemetryConfig,
) -> Result<InstrumentedRun, XpipesError> {
    let opts = RunOptions {
        telemetry: Some(config),
        ..RunOptions::default()
    };
    let (noc, result) = run_timed(workload, cycles, &opts, None)?;
    Ok(InstrumentedRun {
        result,
        registry_json: noc
            .telemetry_registry()
            .expect("telemetry was enabled")
            .to_json()
            .render(),
        timeline_json: noc.timeline_json(),
        perfetto_json: noc.perfetto_json_with_health(),
    })
}

/// A workload measurement taken with the per-packet attribution ledger
/// attached, plus the attribution report it produced.
#[derive(Debug)]
pub struct AttributedRun {
    /// The timed measurement (the work fingerprint must match an
    /// unattributed run exactly).
    pub result: WorkloadResult,
    /// The full attribution report (`xpipes_sim::attribution` schema),
    /// deterministic for the fixed seed.
    pub attribution: Json,
}

/// Runs one reference workload with the attribution ledger enabled and
/// returns the measurement together with the report.
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn run_workload_attributed(
    workload: Workload,
    cycles: u64,
) -> Result<AttributedRun, XpipesError> {
    let opts = RunOptions {
        attribution: true,
        ..RunOptions::default()
    };
    let (noc, result) = run_timed(workload, cycles, &opts, None)?;
    Ok(AttributedRun {
        result,
        attribution: noc.attribution_report().expect("attribution was enabled"),
    })
}

/// Runs a reference workload for `checkpoint_at` injection cycles and
/// returns the simulation state as one self-contained checkpoint
/// container (network, injector, and the cycle count), ready for
/// [`resume_workload`] — possibly in a different process.
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn checkpoint_workload(workload: Workload, checkpoint_at: u64) -> Result<Vec<u8>, XpipesError> {
    let spec = workload.spec();
    let mut noc = Noc::with_seed(&spec, BENCH_SEED)?;
    let mut inj = Injector::new(
        &spec,
        InjectorConfig::new(workload.rate(), workload.pattern()),
        BENCH_SEED ^ 0x5EED,
    )?;
    inj.run(&mut noc, checkpoint_at);
    let mut w = SnapshotWriter::new();
    w.str(workload.name());
    w.u64(checkpoint_at);
    w.bytes(&noc.checkpoint());
    let mut iw = SnapshotWriter::new();
    inj.save_state(&mut iw);
    w.bytes(&iw.finish());
    Ok(w.finish())
}

/// Restores a [`checkpoint_workload`] container and continues the run to
/// `cycles` total injection cycles plus drain. The work fingerprint
/// (`cycles`, `flits_routed`, `packets_delivered`) is byte-identical to
/// an uninterrupted [`run_workload`] of the same length; wall-clock
/// fields cover only the resumed portion.
///
/// # Errors
///
/// Propagates assembly failures and checkpoint-decode failures (damaged
/// file, wrong workload, or a checkpoint taken past `cycles`).
pub fn resume_workload(bytes: &[u8], cycles: u64) -> Result<WorkloadResult, XpipesError> {
    resume_workload_observed(bytes, cycles, None)
}

/// [`resume_workload`] with optional NDJSON progress heartbeats for the
/// resumed portion (same chunking contract as [`run_workload_observed`]).
///
/// # Errors
///
/// Propagates assembly failures and checkpoint-decode failures.
pub fn resume_workload_observed(
    bytes: &[u8],
    cycles: u64,
    mut progress: Option<&mut ProgressStream>,
) -> Result<WorkloadResult, XpipesError> {
    let mut r = SnapshotReader::open(bytes).map_err(XpipesError::from)?;
    let name = r.str().map_err(XpipesError::from)?;
    let checkpoint_at = r.u64().map_err(XpipesError::from)?;
    let noc_bytes = r.bytes().map_err(XpipesError::from)?;
    let inj_bytes = r.bytes().map_err(XpipesError::from)?;
    r.finish().map_err(XpipesError::from)?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        XpipesError::Snapshot(xpipes_sim::SnapshotError::Malformed(format!(
            "checkpoint is for unknown workload {name:?}"
        )))
    })?;
    if checkpoint_at > cycles {
        return Err(XpipesError::Snapshot(xpipes_sim::SnapshotError::Malformed(
            format!("checkpoint at cycle {checkpoint_at} is past the {cycles}-cycle run"),
        )));
    }
    let spec = workload.spec();
    let mut noc = Noc::with_seed(&spec, BENCH_SEED)?;
    noc.restore(&noc_bytes)?;
    let mut inj = Injector::new(
        &spec,
        InjectorConfig::new(workload.rate(), workload.pattern()),
        BENCH_SEED ^ 0x5EED,
    )?;
    let mut ir = SnapshotReader::open(&inj_bytes).map_err(XpipesError::from)?;
    inj.load_state(&mut ir).map_err(XpipesError::from)?;
    ir.finish().map_err(XpipesError::from)?;
    let start = Instant::now();
    let to_inject = cycles - checkpoint_at;
    match progress.as_deref_mut() {
        None => {
            inj.run(&mut noc, to_inject);
            noc.run_until_idle(cycles / 2);
        }
        Some(p) => {
            let chunk = p.interval;
            let mut done = 0u64;
            while done < to_inject {
                let n = chunk.min(to_inject - done);
                inj.run(&mut noc, n);
                done += n;
                emit_heartbeat(
                    p,
                    workload,
                    "inject",
                    &noc,
                    cycles,
                    Some(to_inject - done),
                    start,
                );
            }
            let budget = cycles / 2;
            let mut used = 0u64;
            while used < budget {
                let n = chunk.min(budget - used);
                let idle = noc.run_until_idle(n);
                used += n;
                emit_heartbeat(p, workload, "drain", &noc, cycles, None, start);
                if idle {
                    break;
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    inj.drain_responses(&mut noc);
    let stats = noc.stats();
    if let Some(p) = progress {
        emit_heartbeat(p, workload, "done", &noc, cycles, Some(0), start);
    }
    Ok(WorkloadResult {
        name: workload.name(),
        cycles: stats.cycles,
        elapsed_s: elapsed,
        cycles_per_sec: stats.cycles as f64 / elapsed,
        flits_per_sec: stats.flits_routed as f64 / elapsed,
        flits_routed: stats.flits_routed,
        packets_delivered: stats.packets_delivered,
        retransmissions: stats.retransmissions,
        kernel_health: noc.kernel_health().clone(),
    })
}

/// Renders the deterministic work fingerprint of measured workloads:
/// cycles simulated, flits routed, and packets delivered — everything a
/// measurement carries except wall-clock. Two runs of the same seeded
/// work render byte-identically, which is what the checkpoint smoke
/// test diffs across a checkpoint/restore boundary.
pub fn fingerprint_json(results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            Json::object()
                .field("name", Json::str(r.name))
                .field("cycles", Json::UInt(r.cycles))
                .field("flits_routed", Json::UInt(r.flits_routed))
                .field("packets_delivered", Json::UInt(r.packets_delivered))
                .build()
        })
        .collect();
    Json::object()
        .field("bench", Json::str("cycle_engine_fingerprint"))
        .field("seed", Json::UInt(BENCH_SEED))
        .field("workloads", Json::Array(workloads))
        .build()
}

/// Renders the attribution benchmark document: both reference workloads'
/// attribution reports keyed by workload name, with the run parameters.
/// Everything inside is measured in cycles (no wall-clock), so the
/// document is byte-identical on any machine for the same `cycles`.
pub fn attribution_bench_json(cycles: u64, reports: Vec<(&'static str, Json)>) -> Json {
    let workloads = reports
        .into_iter()
        .map(|(name, report)| {
            Json::object()
                .field("name", Json::str(name))
                .field("report", report)
                .build()
        })
        .collect();
    Json::object()
        .field("bench", Json::str("cycle_engine_attribution"))
        .field("seed", Json::UInt(BENCH_SEED))
        .field("injection_rate", Json::Fixed(BENCH_RATE, 3))
        .field("cycles", Json::UInt(cycles))
        .field("workloads", Json::Array(workloads))
        .build()
}

/// Looks up a workload's attribution report inside an attribution
/// benchmark document.
fn bench_workload_report<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))?
        .get("report")
}

/// Diffs a freshly measured attribution benchmark document against a
/// previously recorded baseline, workload by workload, and renders the
/// ranked movers. Byte-deterministic for deterministic inputs.
///
/// # Errors
///
/// A one-line message when the baseline text is not an attribution
/// benchmark document or misses a workload the current document has.
pub fn diff_attribution_bench(baseline_text: &str, current: &Json) -> Result<String, String> {
    let baseline =
        Json::parse(baseline_text).map_err(|e| format!("malformed attribution baseline: {e}"))?;
    let current_workloads = current
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("current attribution document has no workloads")?;
    let mut out = String::new();
    for w in current_workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("current attribution document has an unnamed workload")?;
        let cur_report = w.get("report").ok_or_else(|| {
            format!("current attribution document: workload {name} has no report")
        })?;
        let base_report = bench_workload_report(&baseline, name)
            .ok_or_else(|| format!("attribution baseline has no workload {name}"))?;
        let d = xpipes_sim::attribution::diff(base_report, cur_report)?;
        out.push_str(&format!("== {name} ==\n"));
        out.push_str(&d.render(10));
    }
    Ok(out)
}

/// Telemetry overhead on a reference workload: the fractional slowdown
/// of the metrics-registry epoch sampling relative to an uninstrumented
/// run, measured best-of-`trials` (minimum elapsed on each side, which
/// suppresses scheduler noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryOverhead {
    /// Best uninstrumented throughput (cycles/sec).
    pub baseline_cycles_per_sec: f64,
    /// Best telemetry-enabled throughput (cycles/sec).
    pub telemetry_cycles_per_sec: f64,
    /// Fractional slowdown: `1 - on/off`, clamped at 0.
    pub overhead: f64,
}

/// Measures telemetry overhead on `workload` by interleaving `trials`
/// uninstrumented and telemetry-enabled runs (registry sampling only —
/// the configuration the ≤5% budget is defined for) and comparing the
/// best of each.
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn measure_telemetry_overhead(
    workload: Workload,
    cycles: u64,
    trials: u32,
) -> Result<TelemetryOverhead, XpipesError> {
    let trials = trials.max(1);
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let telemetry_opts = RunOptions {
        telemetry: Some(TelemetryConfig::default()),
        ..RunOptions::default()
    };
    for _ in 0..trials {
        let (_, off) = run_timed(workload, cycles, &RunOptions::default(), None)?;
        let (_, on) = run_timed(workload, cycles, &telemetry_opts, None)?;
        best_off = best_off.min(off.elapsed_s);
        best_on = best_on.min(on.elapsed_s);
    }
    let baseline = cycles as f64 / best_off;
    let with_telemetry = cycles as f64 / best_on;
    Ok(TelemetryOverhead {
        baseline_cycles_per_sec: baseline,
        telemetry_cycles_per_sec: with_telemetry,
        overhead: (1.0 - with_telemetry / baseline).max(0.0),
    })
}

/// Measures attribution overhead on `workload` by interleaving `trials`
/// bare and attribution-enabled runs and comparing the best of each —
/// the same best-of protocol (and the same budget) as
/// [`measure_telemetry_overhead`].
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn measure_attribution_overhead(
    workload: Workload,
    cycles: u64,
    trials: u32,
) -> Result<TelemetryOverhead, XpipesError> {
    let trials = trials.max(1);
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let attribution_opts = RunOptions {
        attribution: true,
        ..RunOptions::default()
    };
    for _ in 0..trials {
        let (_, off) = run_timed(workload, cycles, &RunOptions::default(), None)?;
        let (_, on) = run_timed(workload, cycles, &attribution_opts, None)?;
        best_off = best_off.min(off.elapsed_s);
        best_on = best_on.min(on.elapsed_s);
    }
    let baseline = cycles as f64 / best_off;
    let with_attribution = cycles as f64 / best_on;
    Ok(TelemetryOverhead {
        baseline_cycles_per_sec: baseline,
        telemetry_cycles_per_sec: with_attribution,
        overhead: (1.0 - with_attribution / baseline).max(0.0),
    })
}

/// Renders the benchmark report: the current measurements next to the
/// checked-in pre-overhaul reference numbers.
pub fn report_json(results: &[WorkloadResult]) -> Json {
    let mut workloads = Vec::new();
    for r in results {
        let pre = match r.name {
            "uniform_random_4x4" => PRE_PR_UNIFORM_CYCLES_PER_SEC,
            "hotspot_4x4" => PRE_PR_HOTSPOT_CYCLES_PER_SEC,
            _ => 0.0,
        };
        let speedup = if pre > 0.0 {
            r.cycles_per_sec / pre
        } else {
            0.0
        };
        workloads.push(
            Json::object()
                .field("name", Json::str(r.name))
                .field("cycles", Json::UInt(r.cycles))
                .field("elapsed_s", Json::Fixed(r.elapsed_s, 4))
                .field("cycles_per_sec", Json::Fixed(r.cycles_per_sec, 0))
                .field("flits_per_sec", Json::Fixed(r.flits_per_sec, 0))
                .field("flits_routed", Json::UInt(r.flits_routed))
                .field("packets_delivered", Json::UInt(r.packets_delivered))
                .field("pre_pr_cycles_per_sec", Json::Fixed(pre, 0))
                .field("speedup_vs_pre_pr", Json::Fixed(speedup, 2))
                .field("kernel_health", r.kernel_health.to_json())
                .build(),
        );
    }
    Json::object()
        .field("bench", Json::str("cycle_engine"))
        .field("seed", Json::UInt(BENCH_SEED))
        .field("injection_rate", Json::Fixed(BENCH_RATE, 3))
        .field("workloads", Json::Array(workloads))
        .build()
}

/// Extracts `"cycles_per_sec"` for a named workload from a rendered
/// report (the minimal parsing the CI regression gate needs; the report
/// format is owned by [`report_json`], so positional scanning is safe).
pub fn parse_cycles_per_sec(report: &str, workload: &str) -> Option<f64> {
    let name_pos = report.find(&format!("\"name\": \"{workload}\""))?;
    let rest = &report[name_pos..];
    let key_pos = rest.find("\"cycles_per_sec\":")?;
    let after = rest[key_pos + "\"cycles_per_sec\":".len()..].trim_start();
    let end = after
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_runs_and_delivers() {
        let r = run_workload(Workload::UniformRandom, 3000).unwrap();
        assert!(r.packets_delivered > 0);
        assert!(r.flits_routed > 0);
        assert!(r.cycles >= 3000);
        assert!(r.cycles_per_sec > 0.0);
    }

    #[test]
    fn instrumented_run_preserves_work_fingerprint() {
        let plain = run_workload(Workload::UniformRandom, 2000).unwrap();
        let inst =
            run_workload_instrumented(Workload::UniformRandom, 2000, TelemetryConfig::full())
                .unwrap();
        assert_eq!(plain.flits_routed, inst.result.flits_routed);
        assert_eq!(plain.packets_delivered, inst.result.packets_delivered);
        assert_eq!(plain.cycles, inst.result.cycles);
        assert!(inst.timeline_json.is_some());
        assert!(inst.perfetto_json.is_some());
        assert!(inst.registry_json.contains("\"components\""));
    }

    #[test]
    fn overhead_measurement_is_sane() {
        let o = measure_telemetry_overhead(Workload::UniformRandom, 1000, 1).unwrap();
        assert!(o.baseline_cycles_per_sec > 0.0);
        assert!(o.telemetry_cycles_per_sec > 0.0);
        assert!((0.0..=1.0).contains(&o.overhead), "{o:?}");
    }

    #[test]
    fn large_fabric_workload_runs_and_delivers() {
        let r = run_workload(Workload::UniformRandom32, 3000).unwrap();
        assert_eq!(r.name, "uniform_random_32x32");
        assert!(r.packets_delivered > 0, "{r:?}");
        assert!(r.flits_routed > 0);
        assert!(r.cycles >= 3000);
    }

    #[test]
    fn large_fabric_names_round_trip() {
        for w in ALL_WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("bogus"), None);
    }

    #[test]
    fn tiled_specs_fit_the_hop_budget() {
        // Assembly + a submit through the longest tile route would fail
        // if the 7-hop source-route budget were exceeded; a short run
        // with deliveries proves the routes validate.
        let r = run_workload(Workload::Hotspot64, 1500).unwrap();
        assert!(r.packets_delivered > 0, "{r:?}");
    }

    #[test]
    fn workloads_are_deterministic_work() {
        let a = run_workload(Workload::Hotspot, 2000).unwrap();
        let b = run_workload(Workload::Hotspot, 2000).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.flits_routed, b.flits_routed);
        assert_eq!(a.packets_delivered, b.packets_delivered);
    }

    #[test]
    fn attributed_run_preserves_work_and_is_deterministic() {
        let plain = run_workload(Workload::UniformRandom, 2000).unwrap();
        let a = run_workload_attributed(Workload::UniformRandom, 2000).unwrap();
        assert_eq!(plain.flits_routed, a.result.flits_routed);
        assert_eq!(plain.packets_delivered, a.result.packets_delivered);
        assert_eq!(plain.cycles, a.result.cycles);
        let b = run_workload_attributed(Workload::UniformRandom, 2000).unwrap();
        assert_eq!(a.attribution.render(), b.attribution.render());
        let text = a.attribution.render();
        assert!(text.contains("\"phase_totals\""));
        assert!(text.contains("\"flows\""));
    }

    #[test]
    fn self_diff_of_attribution_bench_reports_no_movers() {
        let a = run_workload_attributed(Workload::UniformRandom, 1500).unwrap();
        let doc =
            attribution_bench_json(1500, vec![(Workload::UniformRandom.name(), a.attribution)]);
        let text = diff_attribution_bench(&doc.render(), &doc).unwrap();
        assert!(text.contains("== uniform_random_4x4 =="));
        assert!(text.contains("no component moved"), "{text}");
        assert!(
            diff_attribution_bench("not json", &doc).is_err(),
            "malformed baseline must be rejected"
        );
    }

    #[test]
    fn resumed_workload_matches_uninterrupted_fingerprint() {
        let whole = run_workload(Workload::UniformRandom, 4000).unwrap();
        let ckpt = checkpoint_workload(Workload::UniformRandom, 1500).unwrap();
        let resumed = resume_workload(&ckpt, 4000).unwrap();
        assert_eq!(resumed.cycles, whole.cycles);
        assert_eq!(resumed.flits_routed, whole.flits_routed);
        assert_eq!(resumed.packets_delivered, whole.packets_delivered);
        assert_eq!(
            fingerprint_json(&[resumed]).render(),
            fingerprint_json(&[whole]).render()
        );
    }

    #[test]
    fn resume_rejects_bad_checkpoints() {
        assert!(resume_workload(b"junk", 4000).is_err());
        let ckpt = checkpoint_workload(Workload::Hotspot, 2000).unwrap();
        assert!(
            resume_workload(&ckpt, 1000).is_err(),
            "checkpoint past the run length is rejected"
        );
    }

    #[test]
    fn kernel_health_is_deterministic_and_reported() {
        let a = run_workload(Workload::UniformRandom, 1500).unwrap();
        let b = run_workload(Workload::UniformRandom, 1500).unwrap();
        assert_eq!(a.kernel_health, b.kernel_health);
        assert_eq!(
            a.kernel_health.fallback_steps(),
            0,
            "bare run stays on the event kernel"
        );
        assert!(a.kernel_health.event_steps() > 0);
        let text = report_json(&[a]).render();
        assert!(text.contains("\"kernel_health\""));
        assert!(text.contains("\"fallback_steps\": 0"));
    }

    #[test]
    fn profile_and_progress_leave_the_fingerprint_unchanged() {
        let plain = run_workload(Workload::UniformRandom, 2000).unwrap();
        let dir = std::env::temp_dir().join("xpipes_engine_progress_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("progress.ndjson");
        let mut stream = ProgressStream::create(path.to_str().unwrap())
            .unwrap()
            .with_interval(500);
        let opts = RunOptions {
            profile: true,
            ..RunOptions::default()
        };
        let observed =
            run_workload_observed(Workload::UniformRandom, 2000, &opts, Some(&mut stream)).unwrap();
        drop(stream);
        // Observers are quarantined: the byte-compared work fingerprint
        // is identical with profiling and progress streaming armed, and
        // carries no wall-clock profile data.
        let fp = fingerprint_json(std::slice::from_ref(&observed.result)).render();
        assert_eq!(fingerprint_json(&[plain]).render(), fp);
        assert!(!fp.contains("kernel_profile"));
        assert!(observed.kernel_profile.is_some());
        // The heartbeat file is well-formed NDJSON whose final line
        // totals match the measurement.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() >= 2);
        for line in text.lines() {
            Json::parse(line).expect("well-formed NDJSON");
        }
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("final"), Some(&Json::Bool(true)));
        assert_eq!(
            last.get("cycle").and_then(Json::as_u64),
            Some(observed.result.cycles)
        );
        assert_eq!(
            last.get("packets_delivered").and_then(Json::as_u64),
            Some(observed.result.packets_delivered)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_round_trips_through_parser() {
        let r = WorkloadResult {
            name: "uniform_random_4x4",
            cycles: 1000,
            elapsed_s: 0.5,
            cycles_per_sec: 123456.0,
            flits_per_sec: 789.0,
            flits_routed: 400,
            packets_delivered: 20,
            retransmissions: 0,
            kernel_health: KernelHealth::new(),
        };
        let text = report_json(&[r]).render();
        assert_eq!(
            parse_cycles_per_sec(&text, "uniform_random_4x4"),
            Some(123456.0)
        );
        assert_eq!(parse_cycles_per_sec(&text, "missing"), None);
    }
}
