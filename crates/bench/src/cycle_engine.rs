//! Cycle-engine throughput benchmark.
//!
//! Measures how fast the simulation engine itself runs — cycles per
//! wall-clock second and flits routed per second — on two reference
//! workloads: a 4x4 mesh under uniform-random traffic and the same mesh
//! under hotspot traffic. The workloads are fully seeded, so the *work*
//! (packets injected, flits routed, cycles simulated) is identical across
//! engine versions; only the wall-clock changes. The `cycle_engine`
//! binary writes `BENCH_cycle_engine.json` at the repo root as a
//! throughput trajectory for this host; engine changes are timed by the
//! `benchmark/` workloads (`kernel_mesh64` measures what a large fabric
//! costs per flit-hop, scaling its load with the mesh).

use std::time::Instant;

use crate::progress::{rate_fields, ProgressStream};
use xpipes::noc::{Noc, TelemetryConfig};
use xpipes::XpipesError;
use xpipes_sim::{Json, KernelHealth, SnapshotError, SnapshotReader, SnapshotWriter};
use xpipes_topology::builders::mesh;
use xpipes_topology::spec::NocSpec;
use xpipes_traffic::generator::{Injector, InjectorConfig, WarmStart};
use xpipes_traffic::pattern::Pattern;

/// Seed shared by every reference workload.
pub(crate) const BENCH_SEED: u64 = 42;

/// Injection rate (packets per cycle per initiator) of the reference
/// workloads: light enough that the network never saturates, so the
/// engine spends most cycles in the common lightly-loaded regime.
pub(crate) const BENCH_RATE: f64 = 0.05;

/// Default measured cycles per workload.
pub const DEFAULT_CYCLES: u64 = 200_000;

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

/// The reference workloads, both on [`reference_spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform-random destinations.
    UniformRandom,
    /// 50% of traffic aimed at target 0.
    Hotspot,
}

/// Every workload, in the canonical report order.
pub(crate) const ALL_WORKLOADS: [Workload; 2] = [Workload::UniformRandom, Workload::Hotspot];

impl Workload {
    /// Stable machine-readable name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformRandom => "uniform_random_4x4",
            Workload::Hotspot => "hotspot_4x4",
        }
    }

    /// Parses a [`name`](Self::name) back into a workload.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Injection rate (packets per cycle per initiator).
    pub(crate) fn rate(self) -> f64 {
        BENCH_RATE
    }

    fn pattern(self) -> Pattern {
        match self {
            Workload::UniformRandom => Pattern::Uniform,
            Workload::Hotspot => Pattern::Hotspot {
                target: 0,
                fraction: 0.5,
            },
        }
    }

    /// The workload's observer-free network and injector at cycle 0.
    fn assemble(self) -> Result<(Noc, Injector), XpipesError> {
        let spec = reference_spec();
        let noc = Noc::with_seed(&spec, BENCH_SEED)?;
        let config = InjectorConfig::new(self.rate(), self.pattern());
        let inj = Injector::new(&spec, config, BENCH_SEED ^ 0x5EED)?;
        Ok((noc, inj))
    }
}

/// One measured workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Total cycles simulated (injection + drain).
    pub cycles: u64,
    /// Wall-clock seconds of the timed portion: the whole simulation,
    /// or what followed the checkpoint in a resumed run.
    pub elapsed_s: f64,
    /// Cycles simulated in the timed portion per wall-clock second.
    pub cycles_per_sec: f64,
    /// Flits moved through switch crossbars in the timed portion per
    /// wall-clock second.
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

/// The one timed drive loop: runs a reference workload to `cycles`
/// injection cycles plus drain — from cycle 0, or from the state in
/// `from` — under the observers in `opts`, and times the simulation.
/// Returns the network alongside the measurement so callers can export
/// observer artifacts. With a progress stream the run is chunked at the
/// stream's heartbeat interval — state-identical to the unchunked run
/// (time jumps are bounded by the remaining chunk instead of the
/// remaining budget, but every skipped cycle is a no-op either way).
fn run_timed(
    workload: Workload,
    cycles: u64,
    opts: &RunOptions,
    from: Option<&WarmStart>,
    mut progress: Option<&mut ProgressStream>,
) -> Result<(Noc, WorkloadResult), XpipesError> {
    let (mut noc, mut inj) = workload.assemble()?;
    if let Some(cfg) = &opts.telemetry {
        noc.enable_telemetry(*cfg);
    }
    if opts.attribution {
        noc.enable_attribution();
    }
    if opts.profile {
        noc.enable_profiling();
    }
    let mut to_inject = cycles;
    // Observers attach before the restore: a section the checkpoint
    // carries is taken up, one it lacks leaves the observer fresh.
    if let Some(from) = from {
        from.restore_into(&mut noc, &mut inj)?;
        to_inject -= from.cycles();
    }
    // Rates cover what this call simulates, not what a checkpoint
    // brought along.
    let entry = noc.stats();
    let chunk = progress.as_deref().map_or(u64::MAX, |p| p.interval);
    let start = Instant::now();
    // One NDJSON heartbeat line. `remaining` is the known-remaining cycle
    // count (injection phase) or `None` (drain — the end is
    // data-dependent). The `"done"` phase marks the final line of a run.
    let mut heartbeat = |noc: &Noc, phase: &str, remaining: Option<u64>| {
        let Some(p) = progress.as_deref_mut() else {
            return;
        };
        let stats = noc.stats();
        let health = noc.kernel_health();
        let timed = stats.cycles - entry.cycles;
        let (cps, eta) = rate_fields(timed, start.elapsed().as_secs_f64(), remaining);
        p.emit(
            &Json::object()
                .field("workload", Json::str(workload.name()))
                .field("phase", Json::str(phase))
                .field("cycle", Json::UInt(stats.cycles))
                .field("target_cycles", Json::UInt(cycles))
                .field("packets_delivered", Json::UInt(stats.packets_delivered))
                .field("retransmissions", Json::UInt(stats.retransmissions))
                .field("flits_routed", Json::UInt(stats.flits_routed))
                .field("event_steps", Json::UInt(health.event_steps()))
                .field("fallback_steps", Json::UInt(health.fallback_steps()))
                .field("time_jumps", Json::UInt(health.time_jumps()))
                .field("cycles_per_sec", cps)
                .field("eta_s", eta)
                .field("final", Json::Bool(phase == "done"))
                .build(),
        );
    };
    while to_inject > 0 {
        let n = chunk.min(to_inject);
        inj.run(&mut noc, n);
        to_inject -= n;
        heartbeat(&noc, "inject", Some(to_inject));
    }
    let mut budget = cycles / 2;
    while budget > 0 {
        let n = chunk.min(budget);
        let idle = noc.run_until_idle(n);
        budget -= n;
        heartbeat(&noc, "drain", None);
        if idle {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    inj.drain_responses(&mut noc);
    noc.flush_telemetry();
    heartbeat(&noc, "done", Some(0));
    let stats = noc.stats();
    let result = WorkloadResult {
        name: workload.name(),
        cycles: stats.cycles,
        elapsed_s: elapsed,
        cycles_per_sec: (stats.cycles - entry.cycles) as f64 / elapsed,
        flits_per_sec: (stats.flits_routed - entry.flits_routed) as f64 / elapsed,
        flits_routed: stats.flits_routed,
        packets_delivered: stats.packets_delivered,
        retransmissions: stats.retransmissions,
        kernel_health: noc.kernel_health().clone(),
    };
    Ok((noc, result))
}

/// A workload measurement with every requested observer's rendered
/// artifact: what both run functions return.
#[derive(Debug)]
pub struct ObservedRun {
    /// The timed measurement (work fingerprint unchanged by observers).
    pub result: WorkloadResult,
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

impl ObservedRun {
    fn render((noc, result): (Noc, WorkloadResult)) -> Self {
        ObservedRun {
            result,
            timeline_json: noc.timeline_json(),
            perfetto_json: noc.perfetto_json_with_health(),
            attribution: noc.attribution_report(),
            kernel_profile: noc.kernel_profile().map(|p| p.to_json()),
            telemetry_summary: noc.telemetry_summary().to_json(),
        }
    }
}

/// Runs one reference workload for `cycles` injection cycles plus drain
/// with the observers selected in `opts`, timing the whole simulation
/// and streaming NDJSON heartbeats to `progress` when given.
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn run_workload(
    workload: Workload,
    cycles: u64,
    opts: &RunOptions,
    progress: Option<&mut ProgressStream>,
) -> Result<ObservedRun, XpipesError> {
    run_timed(workload, cycles, opts, None, progress).map(ObservedRun::render)
}

/// Runs a reference workload for `checkpoint_at` injection cycles and
/// returns the simulation state as one self-contained checkpoint
/// container (`str workload name · bytes WarmStart`), ready for
/// [`resume_workload`] — possibly in a different process.
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn checkpoint_workload(workload: Workload, checkpoint_at: u64) -> Result<Vec<u8>, XpipesError> {
    let (mut noc, mut inj) = workload.assemble()?;
    inj.run(&mut noc, checkpoint_at);
    let mut w = SnapshotWriter::new();
    w.str(workload.name());
    w.bytes(WarmStart::capture(&noc, &inj, checkpoint_at).as_bytes());
    Ok(w.finish())
}

/// Restores a [`checkpoint_workload`] container and continues the run to
/// `cycles` total injection cycles plus drain, with the same observers
/// and heartbeats a fresh [`run_workload`] takes. The work fingerprint
/// (`cycles`, `flits_routed`, `packets_delivered`) is byte-identical to
/// an uninterrupted run of the same length; wall-clock fields and rates
/// cover only the resumed portion, and observers report what they saw
/// from the checkpoint on.
///
/// # Errors
///
/// Propagates assembly failures and checkpoint-decode failures (damaged
/// file, wrong workload, or a checkpoint taken past `cycles`).
pub fn resume_workload(
    bytes: &[u8],
    cycles: u64,
    opts: &RunOptions,
    progress: Option<&mut ProgressStream>,
) -> Result<ObservedRun, XpipesError> {
    let mut r = SnapshotReader::open(bytes)?;
    let name = r.str()?;
    let warm = WarmStart::read(&mut r)?;
    r.finish()?;
    let workload = Workload::from_name(&name).ok_or_else(|| {
        SnapshotError::Malformed(format!("checkpoint is for unknown workload {name:?}"))
    })?;
    if warm.cycles() > cycles {
        return Err(SnapshotError::Malformed(format!(
            "checkpoint at cycle {} is past the {cycles}-cycle run",
            warm.cycles()
        ))
        .into());
    }
    run_timed(workload, cycles, opts, Some(&warm), progress).map(ObservedRun::render)
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

/// Looks up a workload's entry by name inside a benchmark document
/// ([`report_json`] or [`attribution_bench_json`]).
pub(crate) fn bench_workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
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
        let base_report = bench_workload(&baseline, name)
            .and_then(|w| w.get("report"))
            .ok_or_else(|| format!("attribution baseline has no workload {name}"))?;
        let d = xpipes_sim::attribution::diff(base_report, cur_report)?;
        out.push_str(&format!("== {name} ==\n"));
        out.push_str(&d.render(10));
    }
    Ok(out)
}

/// Observer overhead on a reference workload: the fractional slowdown
/// of a run with an observer attached relative to an uninstrumented
/// run, measured best-of-`trials` (minimum elapsed on each side, which
/// suppresses scheduler noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryOverhead {
    /// Best uninstrumented throughput (cycles/sec).
    pub baseline_cycles_per_sec: f64,
    /// Best throughput with the observer attached (cycles/sec).
    pub telemetry_cycles_per_sec: f64,
    /// Fractional slowdown: `1 - on/off`, clamped at 0.
    pub overhead: f64,
}

/// Interleaves `trials` bare runs with runs under `observed` and
/// compares the best of each.
fn measure_overhead(
    workload: Workload,
    cycles: u64,
    trials: u32,
    observed: &RunOptions,
) -> Result<TelemetryOverhead, XpipesError> {
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..trials.max(1) {
        let (_, off) = run_timed(workload, cycles, &RunOptions::default(), None, None)?;
        let (_, on) = run_timed(workload, cycles, observed, None, None)?;
        best_off = best_off.min(off.elapsed_s);
        best_on = best_on.min(on.elapsed_s);
    }
    let baseline = cycles as f64 / best_off;
    let with_observer = cycles as f64 / best_on;
    Ok(TelemetryOverhead {
        baseline_cycles_per_sec: baseline,
        telemetry_cycles_per_sec: with_observer,
        overhead: (1.0 - with_observer / baseline).max(0.0),
    })
}

/// Measures telemetry overhead on `workload`: registry sampling only —
/// the configuration the ≤5% budget is defined for.
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn measure_telemetry_overhead(
    workload: Workload,
    cycles: u64,
    trials: u32,
) -> Result<TelemetryOverhead, XpipesError> {
    let observed = RunOptions {
        telemetry: Some(TelemetryConfig::default()),
        ..RunOptions::default()
    };
    measure_overhead(workload, cycles, trials, &observed)
}

/// Measures the overhead of the per-packet attribution ledger on
/// `workload`, by the same protocol as [`measure_telemetry_overhead`].
///
/// # Errors
///
/// Propagates network-assembly failures.
pub fn measure_attribution_overhead(
    workload: Workload,
    cycles: u64,
    trials: u32,
) -> Result<TelemetryOverhead, XpipesError> {
    let observed = RunOptions {
        attribution: true,
        ..RunOptions::default()
    };
    measure_overhead(workload, cycles, trials, &observed)
}

/// Renders the benchmark report written to `BENCH_cycle_engine.json`.
pub fn report_json(results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            Json::object()
                .field("name", Json::str(r.name))
                .field("cycles", Json::UInt(r.cycles))
                .field("elapsed_s", Json::Fixed(r.elapsed_s, 4))
                .field("cycles_per_sec", Json::Fixed(r.cycles_per_sec, 0))
                .field("flits_per_sec", Json::Fixed(r.flits_per_sec, 0))
                .field("flits_routed", Json::UInt(r.flits_routed))
                .field("packets_delivered", Json::UInt(r.packets_delivered))
                .field("kernel_health", r.kernel_health.to_json())
                .build()
        })
        .collect();
    Json::object()
        .field("bench", Json::str("cycle_engine"))
        .field("seed", Json::UInt(BENCH_SEED))
        .field("injection_rate", Json::Fixed(BENCH_RATE, 3))
        .field("workloads", Json::Array(workloads))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bare engine: no observers, no progress.
    fn plain(workload: Workload, cycles: u64) -> WorkloadResult {
        run_workload(workload, cycles, &RunOptions::default(), None)
            .unwrap()
            .result
    }

    fn fingerprint(r: &WorkloadResult) -> String {
        fingerprint_json(std::slice::from_ref(r)).render()
    }

    fn attributed() -> RunOptions {
        RunOptions {
            attribution: true,
            ..RunOptions::default()
        }
    }

    #[test]
    fn workload_runs_and_delivers() {
        let r = plain(Workload::UniformRandom, 3000);
        assert!(r.packets_delivered > 0);
        assert!(r.flits_routed > 0);
        assert!(r.cycles >= 3000);
        assert!(r.cycles_per_sec > 0.0);
    }

    #[test]
    fn instrumented_run_preserves_work_fingerprint() {
        let plain = plain(Workload::UniformRandom, 2000);
        let opts = RunOptions {
            telemetry: Some(TelemetryConfig::full()),
            ..RunOptions::default()
        };
        let inst = run_workload(Workload::UniformRandom, 2000, &opts, None).unwrap();
        assert_eq!(fingerprint(&plain), fingerprint(&inst.result));
        // Only an armed telemetry layer renders a timeline, at the fixed
        // 64-cycle epoch.
        assert!(inst.timeline_json.unwrap().contains("\"interval\": 64"));
        assert!(inst.perfetto_json.is_some());
        assert!(inst.attribution.is_none() && inst.kernel_profile.is_none());
    }

    #[test]
    fn overhead_measurement_is_sane() {
        for o in [
            measure_telemetry_overhead(Workload::UniformRandom, 1000, 1).unwrap(),
            measure_attribution_overhead(Workload::UniformRandom, 1000, 1).unwrap(),
        ] {
            assert!(o.baseline_cycles_per_sec > 0.0);
            assert!(o.telemetry_cycles_per_sec > 0.0);
            assert!((0.0..=1.0).contains(&o.overhead), "{o:?}");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in ALL_WORKLOADS {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("uniform_random_64x64"), None);
    }

    #[test]
    fn workloads_are_deterministic_work() {
        let a = plain(Workload::Hotspot, 2000);
        let b = plain(Workload::Hotspot, 2000);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn attributed_run_preserves_work_and_is_deterministic() {
        let plain = plain(Workload::UniformRandom, 2000);
        let a = run_workload(Workload::UniformRandom, 2000, &attributed(), None).unwrap();
        assert_eq!(fingerprint(&plain), fingerprint(&a.result));
        let b = run_workload(Workload::UniformRandom, 2000, &attributed(), None).unwrap();
        let text = a.attribution.expect("attribution was enabled").render();
        assert_eq!(text, b.attribution.unwrap().render());
        assert!(text.contains("\"phase_totals\""));
        assert!(text.contains("\"flows\""));
    }

    #[test]
    fn self_diff_of_attribution_bench_reports_no_movers() {
        let a = run_workload(Workload::UniformRandom, 1500, &attributed(), None).unwrap();
        let report = a.attribution.expect("attribution was enabled");
        let doc = attribution_bench_json(1500, vec![(Workload::UniformRandom.name(), report)]);
        let text = diff_attribution_bench(&doc.render(), &doc).unwrap();
        assert!(text.contains("== uniform_random_4x4 =="));
        assert!(text.contains("no component moved"), "{text}");
        assert!(
            diff_attribution_bench("not json", &doc).is_err(),
            "malformed baseline must be rejected"
        );
    }

    /// The golden `tests/golden/attribution_50k.json` is what
    /// `cycle_engine --cycles 50000 --attribution` writes: attribution
    /// counts cycles only, so any change to it is an engine change.
    #[test]
    fn tracked_attribution_bench_is_reproduced() {
        let reports = ALL_WORKLOADS
            .into_iter()
            .map(|w| {
                let run = run_workload(w, 50_000, &attributed(), None).unwrap();
                (w.name(), run.attribution.expect("attribution was enabled"))
            })
            .collect();
        let fresh = attribution_bench_json(50_000, reports).render();
        let tracked = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/attribution_50k.json"
        );
        let tracked = std::fs::read_to_string(tracked).unwrap();
        assert!(fresh == tracked, "attribution_50k.json is stale");
    }

    #[test]
    fn resumed_workload_matches_uninterrupted_fingerprint() {
        let whole = plain(Workload::UniformRandom, 4000);
        let ckpt = checkpoint_workload(Workload::UniformRandom, 1500).unwrap();
        let resumed = resume_workload(&ckpt, 4000, &RunOptions::default(), None).unwrap();
        assert_eq!(fingerprint(&resumed.result), fingerprint(&whole));
        // Rates cover the resumed portion only; the totals above do not.
        let r = resumed.result;
        let timed = r.cycles_per_sec * r.elapsed_s;
        assert!((timed - (r.cycles - 1500) as f64).abs() <= 1.0, "{r:?}");
        assert!(
            r.flits_per_sec * r.elapsed_s < r.flits_routed as f64,
            "{r:?}"
        );
    }

    #[test]
    fn resumed_workload_honours_every_observer() {
        let whole = plain(Workload::UniformRandom, 4000);
        let ckpt = checkpoint_workload(Workload::UniformRandom, 1500).unwrap();
        let opts = RunOptions {
            telemetry: Some(TelemetryConfig::full()),
            attribution: true,
            profile: true,
        };
        let dir = std::env::temp_dir().join("xpipes_engine_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("progress.ndjson");
        let mut stream = ProgressStream::create(path.to_str().unwrap())
            .unwrap()
            .with_interval(500);
        let resumed = resume_workload(&ckpt, 4000, &opts, Some(&mut stream)).unwrap();
        drop(stream);
        assert_eq!(fingerprint(&resumed.result), fingerprint(&whole));
        assert!(resumed.timeline_json.unwrap().contains("\"interval\": 64"));
        assert!(resumed.perfetto_json.is_some());
        assert!(resumed.kernel_profile.is_some());
        let report = resumed.attribution.expect("attribution was enabled");
        assert!(report.get("packets").and_then(Json::as_u64) > Some(0));
        // The heartbeat is the fresh run's: inject lines count down from
        // the checkpoint, the final line carries the totals.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines[0].get("cycle").and_then(Json::as_u64), Some(2000));
        let last = lines.last().unwrap();
        assert_eq!(last.get("final"), Some(&Json::Bool(true)));
        assert_eq!(
            last.get("cycle").and_then(Json::as_u64),
            Some(resumed.result.cycles)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_bad_checkpoints() {
        let resume = |bytes: &[u8], cycles| {
            resume_workload(bytes, cycles, &RunOptions::default(), None)
                .map(|_| ())
                .map_err(|e| e.to_string())
        };
        assert!(resume(b"junk", 4000).is_err());
        let ckpt = checkpoint_workload(Workload::Hotspot, 2000).unwrap();
        let err = resume(&ckpt, 1000).unwrap_err();
        assert!(err.contains("is past the 1000-cycle run"), "{err}");
        assert!(resume(&ckpt[..ckpt.len() / 2], 4000).is_err());

        let (mut noc, mut inj) = Workload::Hotspot.assemble().unwrap();
        inj.run(&mut noc, 100);
        let warm = WarmStart::capture(&noc, &inj, 100).to_bytes();
        let mut w = SnapshotWriter::new();
        w.str("hotspot_64x64");
        w.bytes(&warm);
        let err = resume(&w.finish(), 4000).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        // The layout older builds wrote (`str · u64 · bytes · bytes`)
        // is a decode error, not a panic.
        let mut w = SnapshotWriter::new();
        w.str("hotspot_4x4");
        w.u64(100);
        w.bytes(&noc.checkpoint());
        w.bytes(&warm);
        assert!(resume(&w.finish(), 4000).is_err());
    }

    #[test]
    fn kernel_health_is_deterministic_and_reported() {
        let a = plain(Workload::UniformRandom, 1500);
        let b = plain(Workload::UniformRandom, 1500);
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
        let plain = plain(Workload::UniformRandom, 2000);
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
            run_workload(Workload::UniformRandom, 2000, &opts, Some(&mut stream)).unwrap();
        drop(stream);
        // Observers are quarantined: the byte-compared work fingerprint
        // is identical with profiling and progress streaming armed, and
        // carries no wall-clock profile data.
        let fp = fingerprint(&observed.result);
        assert_eq!(fingerprint(&plain), fp);
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
    fn report_entries_are_found_by_name() {
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
        let doc = Json::parse(&report_json(&[r]).render()).unwrap();
        let entry = bench_workload(&doc, "uniform_random_4x4").unwrap();
        assert_eq!(
            entry.get("cycles_per_sec").and_then(Json::as_f64),
            Some(123456.0)
        );
        assert!(bench_workload(&doc, "missing").is_none());
    }
}
