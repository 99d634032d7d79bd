//! Deterministic fault-injection campaigns.
//!
//! A campaign sweeps the fault models of [`FaultKind`] across an
//! error-rate grid on a reference network, with the protocol monitor
//! attached to every channel, and reduces each grid point to pass/fail
//! plus measurements ([`CampaignReport`]). Everything is seeded: the same
//! seed produces byte-identical JSON reports, so a campaign can be golden
//! -tested and diffed across code changes.
//!
//! The fault-free baseline run anchors the latency-degradation metric:
//! each grid point reports `avg_latency / baseline_avg_latency`.
//!
//! # Examples
//!
//! ```
//! use xpipes_sim::FaultKind;
//! use xpipes_traffic::faultcampaign::{campaign_spec, run_campaign, CampaignConfig};
//!
//! let mut cfg = CampaignConfig::new(7, 600);
//! cfg.error_rates = vec![0.02];
//! let report = run_campaign(&campaign_spec(), &[FaultKind::FlitCorruption], &cfg).unwrap();
//! assert!(report.pass, "{}", report.to_json());
//! ```

use xpipes::monitor::MonitorConfig;
use xpipes::noc::{Noc, TelemetryConfig};
use xpipes::XpipesError;
use xpipes_sim::attribution::{AttributionSummary, PHASE_COUNT};
use xpipes_sim::parallel::PoolStats;
use xpipes_sim::snapshot::fnv64;
use xpipes_sim::telemetry::TelemetrySummary;
use xpipes_sim::{
    CampaignReport, FaultKind, FaultPlan, FaultRun, Json, RunSummary, SnapshotError,
    SnapshotReader, SnapshotWriter,
};
use xpipes_topology::builders::mesh;
use xpipes_topology::spec::NocSpec;

pub use crate::generator::WarmStart;
use crate::generator::{Injector, InjectorConfig};
use crate::pattern::Pattern;

/// Campaign parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; every run derives its own streams from it.
    pub seed: u64,
    /// Injection cycles per run.
    pub cycles: u64,
    /// Extra cycle budget for draining after injection stops.
    pub drain_cycles: u64,
    /// Offered load (packets per cycle per initiator).
    pub injection_rate: f64,
    /// Error-rate grid swept for every fault model.
    pub error_rates: Vec<f64>,
    /// Liveness bound handed to the protocol monitor (cycles without
    /// progress on a channel holding undelivered flits).
    pub liveness_bound: u64,
    /// Flight-recorder depth (recent flit-level events kept per run);
    /// failing runs embed the rendered dump in the report. 0 disables.
    pub flight_recorder_depth: usize,
}

impl CampaignConfig {
    /// Defaults tuned for the reference 2x2 mesh: light load, the paper's
    /// tolerated error-rate range, and a generous drain budget.
    pub fn new(seed: u64, cycles: u64) -> Self {
        CampaignConfig {
            seed,
            cycles,
            drain_cycles: cycles.max(2000) * 4,
            injection_rate: 0.02,
            error_rates: vec![0.01, 0.03, 0.05],
            liveness_bound: 2500,
            flight_recorder_depth: 512,
        }
    }
}

/// The reference campaign network: a 2x2 mesh with two initiators and two
/// mapped targets — every link class is exercised (NI↔switch and
/// switch↔switch) with cross traffic.
pub fn campaign_spec() -> NocSpec {
    let mut b = mesh(2, 2).expect("2x2 mesh is valid");
    b.attach_initiator("cpu0", (0, 0)).expect("free port");
    b.attach_initiator("cpu1", (1, 0)).expect("free port");
    let m0 = b.attach_target("m0", (0, 1)).expect("free port");
    let m1 = b.attach_target("m1", (1, 1)).expect("free port");
    let mut spec = NocSpec::new("fault-campaign", b.into_topology());
    spec.map_address(m0, 0, 1 << 20).expect("window fits");
    spec.map_address(m1, 1 << 20, 1 << 20).expect("window fits");
    spec
}

/// Per-run seed derivation: decorrelates grid points while keeping the
/// whole campaign a pure function of the master seed.
fn run_seed(master: u64, index: u64) -> u64 {
    master.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Attaches the campaign observer set (protocol monitor, telemetry with
/// flight recorder, latency attribution) to a freshly built network.
fn instrument(noc: &mut Noc, cfg: &CampaignConfig) {
    noc.enable_monitor(MonitorConfig {
        liveness_bound: cfg.liveness_bound,
        max_violations: 64,
    });
    noc.enable_telemetry(TelemetryConfig {
        flight_recorder_depth: cfg.flight_recorder_depth,
        ..TelemetryConfig::default()
    });
    noc.enable_attribution();
}

/// Executes one monitored run (optionally branched off a shared warm
/// checkpoint); returns measurements, rendered violations (monitor
/// findings plus end-to-end delivery checks), and — for failing runs
/// with a flight recorder — the rendered event dump.
fn run_one(
    spec: &NocSpec,
    plan: &FaultPlan,
    cfg: &CampaignConfig,
    seed: u64,
    warm: Option<&WarmStart>,
) -> Result<(RunSummary, Vec<String>, Vec<String>), XpipesError> {
    let mut noc = Noc::with_faults(spec, seed, plan)?;
    instrument(&mut noc, cfg);
    let inj_cfg = InjectorConfig::new(cfg.injection_rate, Pattern::Uniform);
    let mut inj = Injector::new(spec, inj_cfg, seed ^ 0x5EED)?;
    if let Some(warm) = warm {
        // Branch off the shared warm state: all mutable state (including
        // every RNG stream position) comes from the checkpoint; the
        // branch keeps only its structural identity — its fault plan.
        warm.restore_into(&mut noc, &mut inj)?;
    }
    for cycle in 0..cfg.cycles {
        inj.step(&mut noc);
        if cycle % 512 == 511 {
            inj.drain_responses(&mut noc);
        }
    }
    let drained = noc.run_until_idle(cfg.drain_cycles);
    inj.drain_responses(&mut noc);
    noc.finish_monitor();

    let mut violations: Vec<String> = noc
        .monitor_violations()
        .iter()
        .map(|v| v.to_string())
        .collect();
    let stats = noc.stats();
    if !drained {
        violations.push(format!(
            "network failed to drain within {} cycles",
            cfg.drain_cycles
        ));
    } else if stats.packets_delivered != stats.packets_sent {
        violations.push(format!(
            "end-to-end loss: {} of {} packets delivered after drain",
            stats.packets_delivered, stats.packets_sent
        ));
    }
    let avg_latency = if stats.transaction_latency.count() > 0 {
        stats.transaction_latency.mean()
    } else {
        0.0
    };
    noc.flush_telemetry();
    let summary = RunSummary {
        cycles: stats.cycles,
        packets_sent: stats.packets_sent,
        packets_delivered: stats.packets_delivered,
        retransmissions: stats.retransmissions,
        flits_corrupted: stats.flits_corrupted,
        acks_dropped: stats.acks_dropped,
        acks_corrupted: stats.acks_corrupted,
        ack_timeouts: stats.ack_timeouts,
        stall_cycles: stats.stall_cycles,
        avg_latency,
        drained,
        telemetry: Some(noc.telemetry_summary()),
        attribution: noc.attribution_summary(),
    };
    // Dump the recorder only for failing runs: the report stays compact
    // and byte-deterministic, and the dump is the frozen pre-violation
    // window when the monitor tripped mid-run.
    let flight_dump = if violations.is_empty() {
        Vec::new()
    } else {
        noc.flight_dump_rendered()
    };
    Ok((summary, violations, flight_dump))
}

/// Warms a fault-free, fully instrumented network for `warm_cycles` of
/// injection and checkpoints it for branching.
///
/// The warm-up runs with the complete campaign observer set (protocol
/// monitor, telemetry, attribution), so each branch restores the
/// observers' history from cycle 0 along with the network: violations,
/// attribution aggregates and timeline cover the warm-up too.
///
/// Warm-start campaigns restore this one checkpoint into every grid
/// point, so all branches start from identical queue occupancy, RNG
/// stream positions, and observer state, and differ **only** in their
/// fault plan. That is a deliberately different measurement protocol
/// from the cold campaign (where every point derives decorrelated
/// streams from its grid index): it isolates the fault model's effect
/// from stream variation, at the cost of correlated randomness across
/// points. Cold and warm reports are therefore not comparable
/// point-for-point — compare within one protocol.
///
/// # Errors
///
/// Propagates network-assembly failures from the specification.
pub fn warm_checkpoint(
    spec: &NocSpec,
    cfg: &CampaignConfig,
    warm_cycles: u64,
) -> Result<WarmStart, XpipesError> {
    let mut noc = Noc::with_faults(spec, cfg.seed, &FaultPlan::none())?;
    instrument(&mut noc, cfg);
    let inj_cfg = InjectorConfig::new(cfg.injection_rate, Pattern::Uniform);
    let mut inj = Injector::new(spec, inj_cfg, cfg.seed ^ 0x5EED)?;
    for cycle in 0..warm_cycles {
        inj.step(&mut noc);
        if cycle % 512 == 511 {
            inj.drain_responses(&mut noc);
        }
    }
    Ok(WarmStart::capture(&noc, &inj, warm_cycles))
}

/// Checks an error-rate grid and a fault list that came from outside the
/// program (`faultcampaign --rates/--faults`, a spec submitted to
/// `xpipesd`), so both tools refuse the same inputs with the same words
/// instead of running a clamped or duplicated grid.
///
/// # Errors
///
/// One line: an empty fault list or rate grid, a fault model listed
/// twice, or a rate outside `[0, 1]` (NaN included).
pub fn validate_grid(faults: &[FaultKind], error_rates: &[f64]) -> Result<(), String> {
    if faults.is_empty() {
        return Err("the fault list must name at least one fault model".to_string());
    }
    for (i, kind) in faults.iter().enumerate() {
        if faults[..i].contains(kind) {
            return Err(format!("fault model '{}' listed twice", kind.name()));
        }
    }
    if error_rates.is_empty() {
        return Err("the error-rate grid must list at least one error rate".to_string());
    }
    match error_rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
        Some(r) => Err(format!("error rate {r} outside [0, 1]")),
        None => Ok(()),
    }
}

/// Number of grid points a campaign over `faults` executes: the
/// fault-free baseline plus one point per fault model per error rate.
pub fn grid_size(faults: &[FaultKind], cfg: &CampaignConfig) -> u64 {
    1 + (faults.len() * cfg.error_rates.len()) as u64
}

/// Fault model and error rate of grid point `index`, `None` for the
/// fault-free baseline (index 0): fault-major, rate-minor. Each point is
/// a pure function of the master seed and this index, which is what
/// makes the campaign safe to fan out across threads and machines.
///
/// # Panics
///
/// When `index` is outside `0..grid_size(faults, cfg)`.
fn grid_point(faults: &[FaultKind], cfg: &CampaignConfig, index: u64) -> Option<(FaultKind, f64)> {
    let grid = grid_size(faults, cfg);
    assert!(
        index < grid,
        "grid index {index} out of range ({grid} points)"
    );
    let i = index.checked_sub(1)? as usize;
    let rates = &cfg.error_rates;
    Some((faults[i / rates.len()], rates[i % rates.len()]))
}

/// Runs the full campaign serially: a fault-free baseline, then every
/// fault model in `faults` at every rate in the config's grid.
///
/// # Errors
///
/// Propagates network-assembly failures from the specification.
pub fn run_campaign(
    spec: &NocSpec,
    faults: &[FaultKind],
    cfg: &CampaignConfig,
) -> Result<CampaignReport, XpipesError> {
    run_campaign_streaming(spec, faults, cfg, None, 1, 0, Vec::new(), &mut |_| Ok(()))
        .map(|(report, _)| report)
}

/// Runs the campaign with every grid point branched off the shared
/// [`WarmStart`] instead of a cold network. See [`warm_checkpoint`] for
/// how this measurement protocol differs from the cold campaign.
///
/// # Errors
///
/// Propagates assembly failures and checkpoint-decode failures (e.g. a
/// warm state captured on a differently shaped network).
pub fn run_campaign_warm(
    spec: &NocSpec,
    faults: &[FaultKind],
    cfg: &CampaignConfig,
    warm: &WarmStart,
) -> Result<CampaignReport, XpipesError> {
    run_campaign_streaming(spec, faults, cfg, Some(warm), 1, 0, Vec::new(), &mut |_| {
        Ok(())
    })
    .map(|(report, _)| report)
}

/// One per-grid-point progress-journal line: index, fault/rate label,
/// pass/fail status, and the deterministic run counters. Every field is
/// a pure function of the campaign seed and grid index — no wall-clock —
/// so a progress journal is **byte-identical across `--jobs` worker
/// counts** and across resumed runs.
///
/// # Panics
///
/// When the point's index is outside `0..grid_size(faults, cfg)`.
pub fn progress_line(faults: &[FaultKind], cfg: &CampaignConfig, point: &CompletedPoint) -> Json {
    let (fault, rate) = grid_point(faults, cfg, point.index)
        .map_or(("baseline", 0.0), |(kind, rate)| (kind.name(), rate));
    let pass = point.violations.is_empty() && point.summary.drained;
    Json::object()
        .field("point", Json::UInt(point.index))
        .field("grid", Json::UInt(grid_size(faults, cfg)))
        .field("fault", Json::str(fault))
        .field("rate", Json::Fixed(rate, 4))
        .field("status", Json::str(if pass { "pass" } else { "fail" }))
        .field("cycles", Json::UInt(point.summary.cycles))
        .field("delivered", Json::UInt(point.summary.packets_delivered))
        .field("retransmissions", Json::UInt(point.summary.retransmissions))
        .field("violations", Json::UInt(point.violations.len() as u64))
        .field("drained", Json::Bool(point.summary.drained))
        .build()
}

/// The one campaign runner. Executes every grid point not already in
/// `points` (what a resumed journal held; empty for a fresh run) on
/// `workers` threads (0 = host parallelism, 1 = inline on the calling
/// thread), `chunk_len` points at a time (0 = one per worker; the
/// `faultcampaign --checkpoint-every` value), and hands every fresh
/// point to `on_point` **in ascending grid order** as its chunk
/// finishes — the hook that journals points and feeds `--progress`; an
/// error from it stops the campaign and is returned.
///
/// Each point is a pure function of the master seed and its index, so
/// emission order, point contents and the report are independent of the
/// worker count and of where a resumed run picked up: the report is
/// byte-identical to [`run_campaign`] ([`run_campaign_warm`] when
/// `warm` is given). The [`PoolStats`] cover the fresh points only and
/// are wall-clock: keep them quarantined from byte-compared artifacts.
///
/// # Panics
///
/// When `points` holds a duplicated or out-of-range grid index.
///
/// # Errors
///
/// Assembly and checkpoint-decode failures, and whatever `on_point`
/// returns.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_streaming<E: From<XpipesError>>(
    spec: &NocSpec,
    faults: &[FaultKind],
    cfg: &CampaignConfig,
    warm: Option<&WarmStart>,
    workers: usize,
    chunk_len: usize,
    mut points: Vec<CompletedPoint>,
    on_point: &mut dyn FnMut(&CompletedPoint) -> Result<(), E>,
) -> Result<(CampaignReport, PoolStats), E> {
    let remaining: Vec<u64> = (0..grid_size(faults, cfg))
        .filter(|index| points.iter().all(|p| p.index != *index))
        .collect();
    let workers = if workers == 0 {
        xpipes_sim::parallel::worker_count(remaining.len())
    } else {
        workers
    };
    let chunk_len = if chunk_len == 0 { workers } else { chunk_len };
    let mut pool = PoolStats::default();
    // Chunked so completed points stream out (and reach the journal) as
    // the campaign advances instead of all at once at the end.
    for chunk in remaining.chunks(chunk_len) {
        let (ran, stats) =
            xpipes_sim::parallel::parallel_map_ordered_stats(chunk, workers, |_, &index| {
                run_grid_point(spec, faults, cfg, index, warm)
            });
        pool.merge(&stats);
        for done in ran {
            let point = done?;
            on_point(&point)?;
            points.push(point);
        }
    }
    Ok((assemble_report(spec, faults, cfg, points), pool))
}

/// Fingerprint of everything that determines a campaign's results:
/// spec name, seed, cycle/drain budgets, injection rate, error-rate
/// grid, monitor/recorder parameters, and the fault list. A resumable
/// campaign journals this next to its completed points so a resume with
/// different parameters is rejected instead of silently mixing results.
pub fn config_fingerprint(spec: &NocSpec, faults: &[FaultKind], cfg: &CampaignConfig) -> u64 {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "spec={};seed={};cycles={};drain={};rate={:016x};liveness={};depth={};rates=",
        spec.name,
        cfg.seed,
        cfg.cycles,
        cfg.drain_cycles,
        cfg.injection_rate.to_bits(),
        cfg.liveness_bound,
        cfg.flight_recorder_depth,
    );
    for r in &cfg.error_rates {
        let _ = write!(s, "{:016x},", r.to_bits());
    }
    s.push_str(";faults=");
    for k in faults {
        s.push_str(k.name());
        s.push(',');
    }
    fnv64(s.as_bytes())
}

fn save_strings(w: &mut SnapshotWriter, items: &[String]) {
    w.len(items.len());
    for s in items {
        w.str(s);
    }
}

fn load_strings(r: &mut SnapshotReader<'_>) -> Result<Vec<String>, SnapshotError> {
    let n = r.len()?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(r.str()?);
    }
    Ok(out)
}

fn save_summary(w: &mut SnapshotWriter, s: &RunSummary) {
    w.u64(s.cycles);
    w.u64(s.packets_sent);
    w.u64(s.packets_delivered);
    w.u64(s.retransmissions);
    w.u64(s.flits_corrupted);
    w.u64(s.acks_dropped);
    w.u64(s.acks_corrupted);
    w.u64(s.ack_timeouts);
    w.u64(s.stall_cycles);
    w.f64(s.avg_latency);
    w.bool(s.drained);
    w.bool(s.telemetry.is_some());
    if let Some(t) = &s.telemetry {
        w.u64(t.total_retransmissions);
        w.len(t.link_retransmissions.len());
        for (label, n) in &t.link_retransmissions {
            w.str(label);
            w.u64(*n);
        }
        w.u64(t.peak_queue_depth);
        w.str(&t.peak_queue_switch);
    }
    w.bool(s.attribution.is_some());
    if let Some(a) = &s.attribution {
        w.u64(a.packets);
        w.u64(a.incomplete);
        w.u64(a.in_flight);
        w.len(a.phase_totals.len());
        for t in &a.phase_totals {
            w.u64(*t);
        }
        w.bool(a.worst_flow.is_some());
        if let Some((src, dst, latency)) = &a.worst_flow {
            w.str(src);
            w.str(dst);
            w.u64(*latency);
        }
    }
}

fn load_summary(r: &mut SnapshotReader<'_>) -> Result<RunSummary, SnapshotError> {
    let cycles = r.u64()?;
    let packets_sent = r.u64()?;
    let packets_delivered = r.u64()?;
    let retransmissions = r.u64()?;
    let flits_corrupted = r.u64()?;
    let acks_dropped = r.u64()?;
    let acks_corrupted = r.u64()?;
    let ack_timeouts = r.u64()?;
    let stall_cycles = r.u64()?;
    let avg_latency = r.f64()?;
    let drained = r.bool()?;
    let telemetry = if r.bool()? {
        let total_retransmissions = r.u64()?;
        let n = r.len()?;
        let mut link_retransmissions = Vec::new();
        for _ in 0..n {
            let label = r.str()?;
            let count = r.u64()?;
            link_retransmissions.push((label, count));
        }
        Some(TelemetrySummary {
            total_retransmissions,
            link_retransmissions,
            peak_queue_depth: r.u64()?,
            peak_queue_switch: r.str()?,
        })
    } else {
        None
    };
    let attribution = if r.bool()? {
        let packets = r.u64()?;
        let incomplete = r.u64()?;
        let in_flight = r.u64()?;
        let n = r.len()?;
        if n != PHASE_COUNT {
            return Err(SnapshotError::Malformed(format!(
                "attribution has {PHASE_COUNT} phases, snapshot {n}"
            )));
        }
        let mut phase_totals = [0u64; PHASE_COUNT];
        for t in phase_totals.iter_mut() {
            *t = r.u64()?;
        }
        let worst_flow = if r.bool()? {
            Some((r.str()?, r.str()?, r.u64()?))
        } else {
            None
        };
        Some(AttributionSummary {
            packets,
            incomplete,
            in_flight,
            phase_totals,
            worst_flow,
        })
    } else {
        None
    };
    Ok(RunSummary {
        cycles,
        packets_sent,
        packets_delivered,
        retransmissions,
        flits_corrupted,
        acks_dropped,
        acks_corrupted,
        ack_timeouts,
        stall_cycles,
        avg_latency,
        drained,
        telemetry,
        attribution,
    })
}

/// One executed grid point, self-contained for journaling: a
/// crash-resumable campaign writes each point to disk as it completes
/// (via [`CompletedPoint::to_bytes`]) and a resume decodes the journal,
/// runs only the missing indices, and [`assemble_report`]s the union.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedPoint {
    /// Grid index (0 = baseline; see [`grid_size`]).
    pub index: u64,
    /// Measurements of the run.
    pub summary: RunSummary,
    /// Rendered monitor findings plus end-to-end checks.
    pub violations: Vec<String>,
    /// Flight-recorder dump (failing runs only).
    pub flight_dump: Vec<String>,
}

impl CompletedPoint {
    /// Serializes the point into one snapshot container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.u64(self.index);
        save_summary(&mut w, &self.summary);
        save_strings(&mut w, &self.violations);
        save_strings(&mut w, &self.flight_dump);
        w.finish()
    }

    /// Decodes a container produced by [`CompletedPoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the container is damaged or truncated.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        let index = r.u64()?;
        let summary = load_summary(&mut r)?;
        let violations = load_strings(&mut r)?;
        let flight_dump = load_strings(&mut r)?;
        r.finish()?;
        Ok(CompletedPoint {
            index,
            summary,
            violations,
            flight_dump,
        })
    }
}

/// Executes the single grid point `index` of the campaign over `faults`
/// — the unit of work a crash-resumable campaign journals. The result
/// is identical to what [`run_campaign`] (or [`run_campaign_warm`],
/// when `warm` is given) computes for that index.
///
/// # Panics
///
/// When `index` is outside `0..grid_size(faults, cfg)`.
///
/// # Errors
///
/// Propagates assembly and checkpoint-decode failures.
pub fn run_grid_point(
    spec: &NocSpec,
    faults: &[FaultKind],
    cfg: &CampaignConfig,
    index: u64,
    warm: Option<&WarmStart>,
) -> Result<CompletedPoint, XpipesError> {
    let plan =
        grid_point(faults, cfg, index).map_or_else(FaultPlan::none, |(kind, rate)| kind.plan(rate));
    let (summary, violations, flight_dump) =
        run_one(spec, &plan, cfg, run_seed(cfg.seed, index), warm)?;
    Ok(CompletedPoint {
        index,
        summary,
        violations,
        flight_dump,
    })
}

/// Folds a complete set of journaled grid points (any order) into the
/// campaign report. Byte-identical to the report the one-shot runners
/// produce from the same configuration.
///
/// # Panics
///
/// When a grid index is missing, duplicated, or out of range — a
/// resumable campaign must finish every point before assembling.
pub fn assemble_report(
    spec: &NocSpec,
    faults: &[FaultKind],
    cfg: &CampaignConfig,
    mut points: Vec<CompletedPoint>,
) -> CampaignReport {
    let grid = grid_size(faults, cfg);
    assert_eq!(
        points.len() as u64,
        grid,
        "campaign has {grid} grid points, got {}",
        points.len()
    );
    points.sort_by_key(|p| p.index);
    for (i, p) in points.iter().enumerate() {
        assert_eq!(p.index, i as u64, "grid point {i} missing or duplicated");
    }
    let mut points = points.into_iter();
    let base = points.next().expect("the grid always has its baseline");
    let baseline = base.summary;
    let runs: Vec<FaultRun> = points
        .map(|p| {
            let (kind, rate) = grid_point(faults, cfg, p.index).expect("index 0 is consumed");
            let latency_factor = if baseline.avg_latency > 0.0 && p.summary.avg_latency > 0.0 {
                p.summary.avg_latency / baseline.avg_latency
            } else {
                1.0
            };
            let pass = p.violations.is_empty() && p.summary.drained;
            FaultRun {
                fault: kind.name().to_string(),
                rate,
                summary: p.summary,
                violations: p.violations,
                flight_dump: p.flight_dump,
                latency_factor,
                pass,
            }
        })
        .collect();
    let pass = base.violations.is_empty() && baseline.drained && runs.iter().all(|r| r.pass);
    CampaignReport {
        name: spec.name.clone(),
        seed: cfg.seed,
        cycles: cfg.cycles,
        baseline,
        runs,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_clean_and_drains() {
        let cfg = CampaignConfig::new(11, 800);
        let (summary, violations, flight_dump) =
            run_one(&campaign_spec(), &FaultPlan::none(), &cfg, 11, None).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(flight_dump.is_empty(), "clean runs carry no dump");
        assert!(summary.drained);
        assert!(summary.packets_sent > 0);
        assert_eq!(summary.packets_sent, summary.packets_delivered);
        assert_eq!(summary.flits_corrupted, 0);
        let telem = summary
            .telemetry
            .as_ref()
            .expect("campaign runs collect telemetry");
        assert_eq!(telem.total_retransmissions, summary.retransmissions);
    }

    #[test]
    fn single_grid_point_passes_under_corruption() {
        let mut cfg = CampaignConfig::new(13, 600);
        cfg.error_rates = vec![0.03];
        let report = run_campaign(&campaign_spec(), &[FaultKind::FlitCorruption], &cfg).unwrap();
        assert!(report.pass, "{}", report.to_json());
        assert_eq!(report.runs.len(), 1);
        assert!(report.runs[0].summary.flits_corrupted > 0);
        assert!(report.runs[0].summary.retransmissions > 0);
    }

    #[test]
    fn run_seeds_decorrelate() {
        assert_ne!(run_seed(7, 0), run_seed(7, 1));
        assert_ne!(run_seed(7, 1), run_seed(7, 2));
    }

    #[test]
    fn parallel_report_is_byte_identical_to_serial() {
        let mut cfg = CampaignConfig::new(29, 500);
        cfg.error_rates = vec![0.02, 0.04];
        let faults = [FaultKind::FlitCorruption, FaultKind::AckLoss];
        let serial = run_campaign(&campaign_spec(), &faults, &cfg).unwrap();
        for workers in [1, 2, 4] {
            let (par, _) = run_campaign_streaming::<XpipesError>(
                &campaign_spec(),
                &faults,
                &cfg,
                None,
                workers,
                0,
                Vec::new(),
                &mut |_| Ok(()),
            )
            .unwrap();
            assert_eq!(par.to_json(), serial.to_json(), "workers={workers}");
        }
    }

    /// The `u64 cycles · bytes noc · bytes injector` container is what
    /// `warm.bin` journals hold and what `xpipesd` ships to workers, so
    /// its bytes are pinned: blobs written by earlier builds keep
    /// loading. Re-bless only in a change that alters kernel state on
    /// purpose.
    #[test]
    fn warm_checkpoint_bytes_are_pinned() {
        let warm = warm_checkpoint(&campaign_spec(), &CampaignConfig::new(7, 600), 200).unwrap();
        let bytes = warm.to_bytes();
        assert_eq!(bytes.len(), 28_329);
        assert_eq!(fnv64(&bytes), 0xf9fa_f866_3f68_13e1);
    }

    #[test]
    fn warm_campaign_is_deterministic_and_parallel_identical() {
        let mut cfg = CampaignConfig::new(31, 400);
        cfg.error_rates = vec![0.02];
        let faults = [FaultKind::FlitCorruption, FaultKind::AckLoss];
        let warm = warm_checkpoint(&campaign_spec(), &cfg, 300).unwrap();
        let a = run_campaign_warm(&campaign_spec(), &faults, &cfg, &warm).unwrap();
        let b = run_campaign_warm(&campaign_spec(), &faults, &cfg, &warm).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "warm campaign is deterministic");
        for workers in [2, 4] {
            let (par, _) = run_campaign_streaming::<XpipesError>(
                &campaign_spec(),
                &faults,
                &cfg,
                Some(&warm),
                workers,
                0,
                Vec::new(),
                &mut |_| Ok(()),
            )
            .unwrap();
            assert_eq!(par.to_json(), a.to_json(), "workers={workers}");
        }
        // The warmed-up traffic is part of every branch's measurements.
        let cold = run_campaign(&campaign_spec(), &faults, &cfg).unwrap();
        assert!(a.baseline.packets_sent > cold.baseline.packets_sent);
    }

    #[test]
    fn grid_points_assemble_into_the_serial_report() {
        let mut cfg = CampaignConfig::new(17, 400);
        cfg.error_rates = vec![0.03];
        let faults = [FaultKind::FlitCorruption];
        let serial = run_campaign(&campaign_spec(), &faults, &cfg).unwrap();
        let n = grid_size(&faults, &cfg);
        assert_eq!(n, 2);
        // Journaled out of order and round-tripped through bytes, as a
        // crash-resumed campaign would see them.
        let mut points = Vec::new();
        for index in (0..n).rev() {
            let p = run_grid_point(&campaign_spec(), &faults, &cfg, index, None).unwrap();
            points.push(CompletedPoint::from_bytes(&p.to_bytes()).unwrap());
        }
        let assembled = assemble_report(&campaign_spec(), &faults, &cfg, points);
        assert_eq!(assembled.to_json(), serial.to_json());
    }

    #[test]
    #[should_panic(expected = "grid point")]
    fn assemble_rejects_missing_points() {
        let mut cfg = CampaignConfig::new(17, 200);
        cfg.error_rates = vec![0.03];
        let faults = [FaultKind::FlitCorruption];
        let p = run_grid_point(&campaign_spec(), &faults, &cfg, 1, None).unwrap();
        let dup = p.clone();
        assemble_report(&campaign_spec(), &faults, &cfg, vec![p, dup]);
    }

    #[test]
    fn config_fingerprint_tracks_parameters() {
        let spec = campaign_spec();
        let cfg = CampaignConfig::new(7, 500);
        let faults = [FaultKind::FlitCorruption];
        let base = config_fingerprint(&spec, &faults, &cfg);
        assert_eq!(base, config_fingerprint(&spec, &faults, &cfg));
        let mut other = cfg.clone();
        other.seed = 8;
        assert_ne!(base, config_fingerprint(&spec, &faults, &other));
        let mut other = cfg.clone();
        other.error_rates = vec![0.01];
        assert_ne!(base, config_fingerprint(&spec, &faults, &other));
        assert_ne!(base, config_fingerprint(&spec, &[FaultKind::AckLoss], &cfg));
    }
}
