//! The run ledger: a durable, append-only NDJSON record of every run.
//!
//! A single run's introspection (telemetry, attribution, kernel health)
//! evaporates the moment the process exits; the ledger is the cross-run
//! layer. Every bench binary appends one schema-versioned JSON line per
//! run (`--ledger PATH`), recording what was run (workload, seed, config
//! digest), what work it did (the deterministic fingerprint counters),
//! what the observers saw (kernel step counts, attribution phase
//! totals, telemetry summary), and how fast the wall clock said it went.
//!
//! The determinism quarantine follows `KernelProfile`'s contract: every
//! wall-clock-derived field lives under the record's single `wall` key,
//! and [`deterministic_view`] strips exactly that key — two runs of the
//! same seeded work render byte-identical deterministic views at any
//! `--jobs` count. The `xpipesobs` binary reads the ledger back:
//! `list`/`show` render history, `trend` prints per-workload metric
//! trajectories, `compare` reuses [`xpipes_sim::attribution::diff`]'s
//! mover ranking across two entries, and `check` is the regression
//! sentinel — the latest run per group against a rolling window
//! (median ± MAD tolerance) of its predecessors.

use crate::cycle_engine::{Workload, WorkloadResult, BENCH_SEED};
use crate::progress::{open_sink, SinkMode};
use xpipes_sim::snapshot::fnv64;
use xpipes_sim::{CampaignReport, Json};
use xpipes_traffic::journal::Journal;

/// Ledger line schema version understood (and written) by this build.
/// Lines carrying a newer version are rejected rather than misread.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// Digest of the run configuration: everything that makes two runs
/// comparable (workload parameters, cycle budgets, rates). Runs with
/// different digests are never compared by the sentinel.
#[must_use]
pub(crate) fn config_digest(parts: &[(&str, String)]) -> u64 {
    let mut s = String::new();
    for (key, value) in parts {
        s.push_str(key);
        s.push('=');
        s.push_str(value);
        s.push(';');
    }
    fnv64(s.as_bytes())
}

/// Builds one ledger record. Deterministic sections (`work`, `kernel`,
/// `telemetry`, `attribution`) and the quarantined `wall` section are
/// kept apart by construction: wall-clock data can only enter through
/// [`wall_fixed`](Self::wall_fixed) / `pool`, which land
/// under the single stripped key.
pub struct RecordBuilder {
    source: &'static str,
    workload: String,
    seed: u64,
    config: u64,
    pass: bool,
    work: Vec<(String, Json)>,
    kernel: Option<Json>,
    telemetry: Option<Json>,
    attribution: Option<Json>,
    wall: Vec<(String, Json)>,
}

impl RecordBuilder {
    /// Starts a record for one run of `workload` by `source` (the bench
    /// binary name), seeded with `seed` under the given config digest.
    #[must_use]
    pub fn new(source: &'static str, workload: &str, seed: u64, config: u64) -> Self {
        RecordBuilder {
            source,
            workload: workload.to_string(),
            seed,
            config,
            pass: true,
            work: Vec::new(),
            kernel: None,
            telemetry: None,
            attribution: None,
            wall: Vec::new(),
        }
    }

    /// Marks the run's verdict (campaign monitors, gate checks). Defaults
    /// to `true` for plain measurements.
    #[must_use]
    pub(crate) fn pass(mut self, pass: bool) -> Self {
        self.pass = pass;
        self
    }

    /// Adds a deterministic work counter (fingerprint material).
    #[must_use]
    pub fn work_u64(mut self, key: &str, value: u64) -> Self {
        self.work.push((key.to_string(), Json::UInt(value)));
        self
    }

    /// Adds a deterministic fixed-precision work metric (e.g. average
    /// latency in cycles — simulated time, not wall time).
    #[must_use]
    pub(crate) fn work_fixed(mut self, key: &str, value: f64, precision: usize) -> Self {
        self.work
            .push((key.to_string(), Json::Fixed(value, precision)));
        self
    }

    /// Attaches the kernel-health counters (deterministic counters).
    #[must_use]
    pub(crate) fn kernel(mut self, health: Json) -> Self {
        self.kernel = Some(health);
        self
    }

    /// Attaches the telemetry summary (deterministic counters).
    #[must_use]
    pub(crate) fn telemetry(mut self, summary: Json) -> Self {
        self.telemetry = Some(summary);
        self
    }

    /// Attaches the attribution section extracted from a full report or
    /// an [`xpipes_sim::AttributionSummary`] JSON — anything carrying
    /// `phase_totals`. Per-channel `components` are kept when present so
    /// `xpipesobs compare` can rank movers; otherwise an empty component
    /// list keeps the section diffable.
    #[must_use]
    pub(crate) fn attribution(mut self, report: &Json) -> Self {
        if let Some(totals) = report.get("phase_totals") {
            let components = report
                .get("components")
                .cloned()
                .unwrap_or(Json::Array(Vec::new()));
            self.attribution = Some(
                Json::object()
                    .field("phase_totals", totals.clone())
                    .field("components", components)
                    .build(),
            );
        }
        self
    }

    /// Adds a wall-clock metric to the quarantined `wall` section.
    #[must_use]
    pub fn wall_fixed(mut self, key: &str, value: f64, precision: usize) -> Self {
        self.wall
            .push((key.to_string(), Json::Fixed(value, precision)));
        self
    }

    /// Attaches worker-pool utilization (wall-clock; quarantined).
    #[must_use]
    pub(crate) fn pool(mut self, stats: Json) -> Self {
        self.wall.push(("pool".to_string(), stats));
        self
    }

    /// Renders the record. Field order is fixed so identical runs render
    /// byte-identically; `wall` is last and is the only key
    /// [`deterministic_view`] removes.
    #[must_use]
    pub fn build(self) -> Json {
        let build_info = Json::object()
            .field("package", Json::str(env!("CARGO_PKG_VERSION")))
            .field(
                "profile",
                Json::str(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            )
            .build();
        let mut b = Json::object()
            .field("schema", Json::UInt(SCHEMA_VERSION))
            .field("source", Json::str(self.source))
            .field("workload", Json::str(self.workload))
            .field("seed", Json::UInt(self.seed))
            .field("config", Json::str(format!("{:016x}", self.config)))
            .field("pass", Json::Bool(self.pass))
            .field("build", build_info)
            .field("work", Json::Object(self.work));
        if let Some(kernel) = self.kernel {
            b = b.field("kernel", kernel);
        }
        if let Some(telemetry) = self.telemetry {
            b = b.field("telemetry", telemetry);
        }
        if let Some(attribution) = self.attribution {
            b = b.field("attribution", attribution);
        }
        b.field("wall", Json::Object(self.wall)).build()
    }
}

/// One `cycle_engine` run as a ledger record. The attribution report
/// (when the ledger ran) contributes the network-wide mean end-to-end
/// latency to the `work` section and the diffable attribution section;
/// the telemetry digest rides along when given. Everything outside
/// `wall` is a pure function of the seeded work.
#[must_use]
pub fn engine_record(
    result: &WorkloadResult,
    run_cycles: u64,
    telemetry_summary: Option<Json>,
    attribution_report: Option<&Json>,
) -> Json {
    let rate = Workload::from_name(result.name)
        .map(|w| format!("{:016x}", w.rate().to_bits()))
        .unwrap_or_default();
    let config = config_digest(&[
        ("workload", result.name.to_string()),
        ("cycles", run_cycles.to_string()),
        ("rate", rate),
    ]);
    let mut b = RecordBuilder::new("cycle_engine", result.name, BENCH_SEED, config)
        .work_u64("cycles", result.cycles)
        .work_u64("flits_routed", result.flits_routed)
        .work_u64("packets_delivered", result.packets_delivered)
        .work_u64("retransmissions", result.retransmissions);
    if let Some(latency) = attribution_report.and_then(mean_latency_of_report) {
        b = b.work_fixed("avg_latency", latency, 2);
    }
    b = b.kernel(result.kernel_health.to_json());
    if let Some(summary) = telemetry_summary {
        b = b.telemetry(summary);
    }
    if let Some(report) = attribution_report {
        b = b.attribution(report);
    }
    b.wall_fixed("elapsed_s", result.elapsed_s, 4)
        .wall_fixed("cycles_per_sec", result.cycles_per_sec, 0)
        .wall_fixed("flits_per_sec", result.flits_per_sec, 0)
        .build()
}

/// Mean end-to-end packet latency (cycles) from an attribution report
/// or summary: the six phase totals telescope to the exact end-to-end
/// latency, so their sum over the delivered-packet count is the mean.
fn mean_latency_of_report(report: &Json) -> Option<f64> {
    let packets = report.get("packets").and_then(Json::as_u64)?;
    if packets == 0 {
        return None;
    }
    let Json::Object(totals) = report.get("phase_totals")? else {
        return None;
    };
    let sum: f64 = totals.iter().filter_map(|(_, v)| v.as_f64()).sum();
    Some(sum / packets as f64)
}

/// One `faultcampaign` run as a ledger record: the whole grid collapses
/// to one line (work counters summed across every grid point, the
/// pass/fail verdict, the baseline point's telemetry and attribution
/// digests). `config` is the campaign config fingerprint — the same
/// digest the resume journal checks — so only identically-parameterized
/// campaigns are compared.
///
/// No kernel section: the campaign runner returns reports, not the
/// per-point networks whose `KernelHealth` it would summarize. `pool`
/// is the worker pool's (wall-clock, quarantined) utilization.
#[must_use]
pub(crate) fn campaign_record(
    report: &CampaignReport,
    config: u64,
    elapsed_s: f64,
    pool: Option<Json>,
) -> Json {
    let mut cycles = report.baseline.cycles;
    let mut delivered = report.baseline.packets_delivered;
    let mut retransmissions = report.baseline.retransmissions;
    for run in &report.runs {
        cycles += run.summary.cycles;
        delivered += run.summary.packets_delivered;
        retransmissions += run.summary.retransmissions;
    }
    let mut b = RecordBuilder::new("faultcampaign", &report.name, report.seed, config)
        .pass(report.pass)
        .work_u64("cycles", cycles)
        .work_u64("grid_points", 1 + report.runs.len() as u64)
        .work_u64("packets_delivered", delivered)
        .work_u64("retransmissions", retransmissions)
        .work_fixed("avg_latency", report.baseline.avg_latency, 2);
    if let Some(telemetry) = &report.baseline.telemetry {
        b = b.telemetry(telemetry.to_json());
    }
    if let Some(attribution) = &report.baseline.attribution {
        b = b.attribution(&attribution.to_json());
    }
    b = b.wall_fixed("elapsed_s", elapsed_s, 4).wall_fixed(
        "cycles_per_sec",
        if elapsed_s > 0.0 {
            cycles as f64 / elapsed_s
        } else {
            0.0
        },
        0,
    );
    if let Some(stats) = pool {
        b = b.pool(stats);
    }
    b.build()
}

/// Appends `report`'s `campaign_record` to the ledger at `path` — at
/// most once per journal: a campaign killed after the append and resumed
/// to completion finds the journal's marker and appends nothing.
/// Returns whether a record was appended.
///
/// # Errors
///
/// One line when the ledger cannot be opened or the journal's marker
/// cannot be written.
pub fn append_campaign_once(
    path: &str,
    journal: Option<&Journal>,
    report: &CampaignReport,
    config: u64,
    elapsed_s: f64,
    pool: Option<Json>,
) -> Result<bool, String> {
    if journal.is_some_and(Journal::ledger_recorded) {
        return Ok(false);
    }
    if let Some(mut sink) = open_sink(Some(path), "ledger", SinkMode::Append)? {
        sink.emit(&campaign_record(report, config, elapsed_s, pool));
    }
    if let Some(journal) = journal {
        journal.mark_ledger_recorded()?;
    }
    Ok(true)
}

/// The record minus its quarantined `wall` section: everything left is
/// deterministic for seeded work, so two renderings of the same run —
/// any `--jobs`, any host — are byte-identical.
#[must_use]
pub fn deterministic_view(record: &Json) -> Json {
    match record {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .filter(|(key, _)| key != "wall")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// One validated ledger line.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// 1-based line number in the ledger file (the `list`/`show`/
    /// `compare` handle).
    pub line: usize,
    /// The parsed record.
    pub json: Json,
}

impl LedgerEntry {
    /// The bench binary that wrote the record.
    #[must_use]
    pub fn source(&self) -> &str {
        self.json
            .get("source")
            .and_then(Json::as_str)
            .unwrap_or("?")
    }

    /// The workload name.
    #[must_use]
    pub fn workload(&self) -> &str {
        self.json
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
    }

    /// The run seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.json.get("seed").and_then(Json::as_u64).unwrap_or(0)
    }

    /// The 16-hex config digest.
    #[must_use]
    pub(crate) fn config(&self) -> &str {
        self.json
            .get("config")
            .and_then(Json::as_str)
            .unwrap_or("?")
    }

    /// The run verdict.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.json.get("pass") == Some(&Json::Bool(true))
    }

    /// Comparison-group key: only entries from the same source,
    /// workload, and config digest are comparable runs of the same work.
    #[must_use]
    pub fn group_key(&self) -> String {
        format!("{}:{}@{}", self.source(), self.workload(), self.config())
    }

    /// First 8 hex digits of the config digest (display form).
    #[must_use]
    pub fn short_config(&self) -> &str {
        let c = self.config();
        c.get(..8).unwrap_or(c)
    }

    /// Looks a metric up by name in the deterministic `work` section
    /// first, then the quarantined `wall` section.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        for section in ["work", "wall"] {
            if let Some(v) = self
                .json
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(Json::as_f64)
            {
                return Some(v);
            }
        }
        None
    }
}

fn require_str(json: &Json, key: &str, origin: &str, line: usize) -> Result<(), String> {
    if json.get(key).and_then(Json::as_str).is_none() {
        return Err(format!(
            "{origin} line {line}: missing string field {key:?}"
        ));
    }
    Ok(())
}

/// Parses and validates ledger text (`origin` names the source in error
/// messages). Blank lines are tolerated; anything else must be a
/// well-formed, schema-compatible record.
///
/// # Errors
///
/// One-line message naming the first offending line: unparsable JSON, a
/// missing/zero schema version, a schema version newer than
/// `SCHEMA_VERSION`, or a missing required field.
pub fn parse_ledger(text: &str, origin: &str) -> Result<Vec<LedgerEntry>, String> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let json =
            Json::parse(raw).map_err(|e| format!("{origin} line {line}: not valid JSON: {e}"))?;
        let schema = json
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{origin} line {line}: missing schema version"))?;
        if schema == 0 || schema > SCHEMA_VERSION {
            return Err(format!(
                "{origin} line {line}: schema version {schema} not understood \
                 (this build reads 1..={SCHEMA_VERSION})"
            ));
        }
        require_str(&json, "source", origin, line)?;
        require_str(&json, "workload", origin, line)?;
        require_str(&json, "config", origin, line)?;
        if json.get("seed").and_then(Json::as_u64).is_none() {
            return Err(format!(
                "{origin} line {line}: missing integer field \"seed\""
            ));
        }
        let work = json
            .get("work")
            .ok_or_else(|| format!("{origin} line {line}: missing work section"))?;
        if work.get("cycles").and_then(Json::as_u64).is_none() {
            return Err(format!(
                "{origin} line {line}: work section has no cycle count"
            ));
        }
        if json.get("wall").is_none() {
            return Err(format!("{origin} line {line}: missing wall section"));
        }
        entries.push(LedgerEntry { line, json });
    }
    Ok(entries)
}

/// Reads and validates a ledger file.
///
/// # Errors
///
/// `cannot read ledger <path>: <cause>` on I/O failure, otherwise
/// [`parse_ledger`]'s per-line messages.
pub fn read_ledger(path: &str) -> Result<Vec<LedgerEntry>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read ledger {path}: {e}"))?;
    parse_ledger(&text, &format!("ledger {path}"))
}

/// [`read_ledger`], but a ledger that does not exist yet is `Ok(None)`
/// rather than an I/O error — a ledger nobody has appended to is an
/// ordinary state for `xpipesobs list`, not a failure.
///
/// # Errors
///
/// Everything [`read_ledger`] reports, except file-not-found.
pub fn read_ledger_if_exists(path: &str) -> Result<Option<Vec<LedgerEntry>>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_ledger(&text, &format!("ledger {path}")).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read ledger {path}: {e}")),
    }
}

/// One sentinel-checked metric and which direction is a regression.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricSpec {
    /// Metric name (looked up per [`LedgerEntry::metric`]).
    pub name: &'static str,
    /// `true` when growth is the anomaly (latency, retransmissions);
    /// `false` when shrinkage is (throughput).
    pub higher_is_worse: bool,
}

/// The metrics `xpipesobs check` watches, when a group records them.
pub(crate) const CHECKED_METRICS: [MetricSpec; 3] = [
    MetricSpec {
        name: "cycles_per_sec",
        higher_is_worse: false,
    },
    MetricSpec {
        name: "avg_latency",
        higher_is_worse: true,
    },
    MetricSpec {
        name: "retransmissions",
        higher_is_worse: true,
    },
];

/// Sentinel tuning.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Rolling window: at most this many prior entries per group.
    pub window: usize,
    /// Tolerance in MADs around the prior median.
    pub mad_k: f64,
    /// Relative tolerance floor (fraction of the median), so a
    /// zero-spread (fully deterministic) history still tolerates
    /// harmless jitter in wall metrics.
    pub min_rel: f64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            window: 8,
            mad_k: 4.0,
            min_rel: 0.10,
        }
    }
}

/// One sentinel verdict: the latest run's metric against its group's
/// rolling history.
#[derive(Debug, Clone)]
pub struct MetricCheck {
    /// Comparison group ([`LedgerEntry::group_key`]).
    pub group: String,
    /// Metric name.
    pub metric: &'static str,
    /// Latest run's value.
    pub latest: f64,
    /// Median of the prior window.
    pub median: f64,
    /// Median absolute deviation of the prior window.
    pub mad: f64,
    /// Allowed deviation from the median (`max(mad_k·MAD, min_rel·|median|)`).
    pub tolerance: f64,
    /// Prior entries that carried the metric.
    pub priors: usize,
    /// Direction (`MetricSpec::higher_is_worse`).
    pub higher_is_worse: bool,
    /// `true` when the latest value left the tolerated band on the
    /// regression side.
    pub anomalous: bool,
}

fn median_of(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("ledger metrics are finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median and median absolute deviation of `values`.
#[must_use]
pub(crate) fn median_mad(values: &[f64]) -> (f64, f64) {
    let median = median_of(values.to_vec());
    let deviations = values.iter().map(|v| (v - median).abs()).collect();
    (median, median_of(deviations))
}

/// Splits entries into comparison groups, in order of first appearance,
/// preserving per-group run order.
#[must_use]
pub(crate) fn group_entries(entries: &[LedgerEntry]) -> Vec<(String, Vec<&LedgerEntry>)> {
    let mut groups: Vec<(String, Vec<&LedgerEntry>)> = Vec::new();
    for entry in entries {
        let key = entry.group_key();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(entry),
            None => groups.push((key, vec![entry])),
        }
    }
    groups
}

/// The regression sentinel: for every group with history, compares the
/// latest entry's checked metrics against the rolling window of its
/// predecessors. Groups with no prior entries, and metrics absent from
/// either side, are skipped (nothing to compare — not an anomaly).
#[must_use]
pub fn check(entries: &[LedgerEntry], cfg: &CheckConfig) -> Vec<MetricCheck> {
    let mut out = Vec::new();
    for (key, members) in group_entries(entries) {
        let (latest, priors) = members.split_last().expect("groups are non-empty");
        if priors.is_empty() {
            continue;
        }
        for spec in &CHECKED_METRICS {
            let Some(current) = latest.metric(spec.name) else {
                continue;
            };
            let values: Vec<f64> = priors
                .iter()
                .rev()
                .take(cfg.window)
                .filter_map(|e| e.metric(spec.name))
                .collect();
            if values.is_empty() {
                continue;
            }
            let (median, mad) = median_mad(&values);
            let tolerance = (cfg.mad_k * mad).max(cfg.min_rel * median.abs());
            let anomalous = if spec.higher_is_worse {
                current > median + tolerance
            } else {
                current < median - tolerance
            };
            out.push(MetricCheck {
                group: key.clone(),
                metric: spec.name,
                latest: current,
                median,
                mad,
                tolerance,
                priors: values.len(),
                higher_is_worse: spec.higher_is_worse,
                anomalous,
            });
        }
    }
    out
}

/// Renders sentinel verdicts, one line per checked metric.
#[must_use]
pub fn render_checks(checks: &[MetricCheck]) -> String {
    let mut out = String::new();
    for c in checks {
        let verdict = if c.anomalous { "FAIL" } else { "ok" };
        let side = if c.higher_is_worse { "above" } else { "below" };
        out.push_str(&format!(
            "{verdict:<4} {group} {metric}: latest {latest:.2} vs median {median:.2} \
             (mad {mad:.2}, tolerated {side} up to {tolerance:.2}, {priors} prior runs)\n",
            group = c.group,
            metric = c.metric,
            latest = c.latest,
            median = c.median,
            mad = c.mad,
            tolerance = c.tolerance,
            priors = c.priors,
        ));
    }
    out
}

/// Per-group trajectory of one metric: `(group key, [(line, value)])`
/// in run order — the `trend` subcommand's data.
#[must_use]
pub fn trend(entries: &[LedgerEntry], metric: &str) -> Vec<(String, Vec<(usize, f64)>)> {
    group_entries(entries)
        .into_iter()
        .filter_map(|(key, members)| {
            let series: Vec<(usize, f64)> = members
                .iter()
                .filter_map(|e| e.metric(metric).map(|v| (e.line, v)))
                .collect();
            if series.is_empty() {
                None
            } else {
                Some((key, series))
            }
        })
        .collect()
}

/// Renders a [`trend`] table.
#[must_use]
pub fn render_trend(rows: &[(String, Vec<(usize, f64)>)], metric: &str) -> String {
    let mut out = String::new();
    for (group, series) in rows {
        out.push_str(&format!("{group} {metric}:\n"));
        for (line, value) in series {
            out.push_str(&format!("  line {line:>4}  {value:.2}\n"));
        }
        if let (Some((_, first)), Some((_, last))) = (series.first(), series.last()) {
            let delta = if *first != 0.0 {
                (last - first) / first * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {n} runs, first-to-latest {delta:+.1}%\n",
                n = series.len()
            ));
        }
    }
    out
}

/// Renders the `list` table: one row per entry.
#[must_use]
pub fn render_list(entries: &[LedgerEntry]) -> String {
    let mut out = format!(
        "{:>5}  {:<16} {:<22} {:>6} {:<8} {:>12} {:>11} {:>12} {:>5}\n",
        "line", "source", "workload", "seed", "config", "cycles", "delivered", "cycles/s", "pass"
    );
    for e in entries {
        let cycles = e
            .metric("cycles")
            .map_or("-".to_string(), |v| format!("{v:.0}"));
        let delivered = e
            .metric("packets_delivered")
            .map_or("-".to_string(), |v| format!("{v:.0}"));
        let cps = e
            .metric("cycles_per_sec")
            .map_or("-".to_string(), |v| format!("{v:.0}"));
        out.push_str(&format!(
            "{:>5}  {:<16} {:<22} {:>6} {:<8} {:>12} {:>11} {:>12} {:>5}\n",
            e.line,
            e.source(),
            e.workload(),
            e.seed(),
            e.short_config(),
            cycles,
            delivered,
            cps,
            if e.pass() { "yes" } else { "NO" },
        ));
    }
    out
}

/// Compares two entries: headline metric deltas, then — when both
/// recorded attribution — the [`xpipes_sim::attribution::diff`] mover
/// ranking explaining where the latency moved.
///
/// # Errors
///
/// Propagates attribution-diff shape errors (malformed sections).
pub fn compare(a: &LedgerEntry, b: &LedgerEntry) -> Result<String, String> {
    let mut out = format!(
        "compare line {} ({}) -> line {} ({})\n",
        a.line,
        a.group_key(),
        b.line,
        b.group_key()
    );
    if a.group_key() != b.group_key() {
        out.push_str(
            "note: entries are from different run groups — deltas compare different work\n",
        );
    }
    for name in [
        "cycles",
        "packets_delivered",
        "flits_routed",
        "retransmissions",
        "avg_latency",
        "cycles_per_sec",
    ] {
        let (Some(va), Some(vb)) = (a.metric(name), b.metric(name)) else {
            continue;
        };
        let delta = if va != 0.0 {
            format!("{:+.1}%", (vb - va) / va * 100.0)
        } else {
            "n/a".to_string()
        };
        out.push_str(&format!(
            "  {name:<18} {va:>14.2} -> {vb:>14.2}  ({delta})\n"
        ));
    }
    match (a.json.get("attribution"), b.json.get("attribution")) {
        (Some(base), Some(current)) => {
            let diff = xpipes_sim::attribution::diff(base, current)?;
            out.push_str("attribution movers:\n");
            out.push_str(&diff.render(10));
        }
        _ => out.push_str("attribution: not recorded on both entries; no mover ranking\n"),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, cps: f64, latency: f64, retx: u64) -> Json {
        RecordBuilder::new("cycle_engine", workload, 42, 0xDEAD_BEEF)
            .work_u64("cycles", 1000)
            .work_u64("flits_routed", 400)
            .work_u64("packets_delivered", 20)
            .work_u64("retransmissions", retx)
            .work_fixed("avg_latency", latency, 2)
            .wall_fixed("elapsed_s", 0.5, 4)
            .wall_fixed("cycles_per_sec", cps, 0)
            .build()
    }

    fn ledger_from(records: &[Json]) -> Vec<LedgerEntry> {
        let text: String = records
            .iter()
            .map(|r| format!("{}\n", r.render_compact()))
            .collect();
        parse_ledger(&text, "test").expect("builder records validate")
    }

    #[test]
    fn built_records_validate_and_round_trip() {
        let rec = record("uniform_random_4x4", 350_000.0, 41.5, 0);
        let entries = ledger_from(std::slice::from_ref(&rec));
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.source(), "cycle_engine");
        assert_eq!(e.workload(), "uniform_random_4x4");
        assert_eq!(e.seed(), 42);
        assert_eq!(e.config(), "00000000deadbeef");
        assert!(e.pass());
        assert_eq!(e.metric("cycles"), Some(1000.0));
        assert_eq!(e.metric("cycles_per_sec"), Some(350_000.0));
        assert_eq!(e.metric("no_such_metric"), None);
    }

    #[test]
    fn deterministic_view_strips_exactly_the_wall_section() {
        let rec = record("uniform_random_4x4", 1.0, 2.0, 3);
        let view = deterministic_view(&rec);
        let text = view.render_compact();
        assert!(!text.contains("\"wall\""));
        assert!(!text.contains("cycles_per_sec"));
        assert!(text.contains("\"work\""));
        assert!(text.contains("\"schema\""));
        // Different wall clocks, same work: views are byte-identical.
        let other = record("uniform_random_4x4", 999.0, 2.0, 3);
        assert_eq!(text, deterministic_view(&other).render_compact());
    }

    #[test]
    fn parser_rejects_garbage_and_future_schema() {
        assert!(parse_ledger("not json\n", "test")
            .unwrap_err()
            .contains("line 1"));
        let no_schema = r#"{"source":"x"}"#;
        assert!(parse_ledger(no_schema, "test")
            .unwrap_err()
            .contains("missing schema version"));
        let future = record("w", 1.0, 1.0, 0);
        let future_text = future
            .render_compact()
            .replace("\"schema\":1", "\"schema\":99");
        let err = parse_ledger(&future_text, "test").unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
        // A truncated (corrupted) line is rejected too.
        let whole = record("w", 1.0, 1.0, 0).render_compact();
        let truncated = &whole[..whole.len() / 2];
        assert!(parse_ledger(truncated, "test").is_err());
        // Blank lines are tolerated.
        let ok_text = format!("\n{whole}\n\n");
        assert_eq!(parse_ledger(&ok_text, "test").unwrap().len(), 1);
    }

    #[test]
    fn flat_history_passes_and_regression_is_flagged() {
        let mut records: Vec<Json> = (0..5)
            .map(|i| {
                record(
                    "uniform_random_4x4",
                    350_000.0 + i as f64 * 1_000.0,
                    41.5,
                    0,
                )
            })
            .collect();
        // Flat history: latest within 1% of the median — no anomaly.
        records.push(record("uniform_random_4x4", 351_000.0, 41.5, 0));
        let checks = check(&ledger_from(&records), &CheckConfig::default());
        assert!(!checks.is_empty());
        assert!(checks.iter().all(|c| !c.anomalous), "{checks:?}");

        // A 20% throughput drop must be flagged.
        records.pop();
        records.push(record("uniform_random_4x4", 352_000.0 * 0.8, 41.5, 0));
        let checks = check(&ledger_from(&records), &CheckConfig::default());
        let cps = checks
            .iter()
            .find(|c| c.metric == "cycles_per_sec")
            .expect("throughput was checked");
        assert!(cps.anomalous, "{cps:?}");
    }

    #[test]
    fn direction_matters_for_anomalies() {
        let mut records: Vec<Json> = (0..4)
            .map(|_| record("hotspot_4x4", 100_000.0, 40.0, 10))
            .collect();
        // Faster, lower-latency, fewer retransmissions: improvements are
        // never anomalies.
        records.push(record("hotspot_4x4", 150_000.0, 20.0, 0));
        let checks = check(&ledger_from(&records), &CheckConfig::default());
        assert!(checks.iter().all(|c| !c.anomalous), "{checks:?}");

        // Higher latency and retransmission growth are.
        records.pop();
        records.push(record("hotspot_4x4", 100_000.0, 55.0, 14));
        let checks = check(&ledger_from(&records), &CheckConfig::default());
        assert!(
            checks
                .iter()
                .find(|c| c.metric == "avg_latency")
                .is_some_and(|c| c.anomalous),
            "{checks:?}"
        );
        assert!(
            checks
                .iter()
                .find(|c| c.metric == "retransmissions")
                .is_some_and(|c| c.anomalous),
            "{checks:?}"
        );
    }

    #[test]
    fn single_entry_groups_are_skipped() {
        let records = [
            record("uniform_random_4x4", 1.0, 1.0, 0),
            record("hotspot_4x4", 2.0, 1.0, 0),
        ];
        assert!(check(&ledger_from(&records), &CheckConfig::default()).is_empty());
    }

    #[test]
    fn groups_separate_by_config_digest() {
        let a = record("uniform_random_4x4", 100.0, 1.0, 0);
        let b = RecordBuilder::new("cycle_engine", "uniform_random_4x4", 42, 0x0BAD_CAFE)
            .work_u64("cycles", 9999)
            .wall_fixed("cycles_per_sec", 1.0, 0)
            .build();
        let entries = ledger_from(&[a, b]);
        let groups = group_entries(&entries);
        assert_eq!(groups.len(), 2, "different digests must not be compared");
        assert!(check(&entries, &CheckConfig::default()).is_empty());
    }

    #[test]
    fn median_mad_basics() {
        let (m, d) = median_mad(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(m, 3.0);
        assert_eq!(d, 1.0, "MAD shrugs off the outlier");
        let (m, d) = median_mad(&[5.0, 5.0]);
        assert_eq!((m, d), (5.0, 0.0));
    }

    #[test]
    fn trend_tracks_groups_in_order() {
        let records = [
            record("uniform_random_4x4", 100.0, 1.0, 0),
            record("hotspot_4x4", 50.0, 1.0, 0),
            record("uniform_random_4x4", 110.0, 1.0, 0),
        ];
        let rows = trend(&ledger_from(&records), "cycles_per_sec");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, vec![(1, 100.0), (3, 110.0)]);
        assert_eq!(rows[1].1, vec![(2, 50.0)]);
        let text = render_trend(&rows, "cycles_per_sec");
        assert!(text.contains("first-to-latest +10.0%"), "{text}");
        assert!(trend(&ledger_from(&records), "no_such_metric").is_empty());
    }

    #[test]
    fn compare_renders_deltas_and_handles_missing_attribution() {
        let entries = ledger_from(&[
            record("uniform_random_4x4", 100_000.0, 40.0, 0),
            record("uniform_random_4x4", 120_000.0, 44.0, 0),
        ]);
        let text = compare(&entries[0], &entries[1]).unwrap();
        assert!(text.contains("cycles_per_sec"), "{text}");
        assert!(text.contains("+20.0%"), "{text}");
        assert!(text.contains("no mover ranking"), "{text}");
    }

    #[test]
    fn compare_ranks_movers_when_attribution_is_recorded() {
        let section = |stall: u64| {
            Json::object()
                .field(
                    "phase_totals",
                    Json::object()
                        .field("source_queue", Json::UInt(10))
                        .field("ni_packetization", Json::UInt(20))
                        .field("output_queue", Json::UInt(5))
                        .field("arbitration_stall", Json::UInt(stall))
                        .field("link_traversal", Json::UInt(100))
                        .field("retx_penalty", Json::UInt(0))
                        .build(),
                )
                .field(
                    "components",
                    Json::Array(vec![Json::object()
                        .field("channel", Json::str("sw0->sw1"))
                        .field(
                            "phases",
                            Json::object()
                                .field("source_queue", Json::UInt(10))
                                .field("ni_packetization", Json::UInt(20))
                                .field("output_queue", Json::UInt(5))
                                .field("arbitration_stall", Json::UInt(stall))
                                .field("link_traversal", Json::UInt(100))
                                .field("retx_penalty", Json::UInt(0))
                                .build(),
                        )
                        .build()]),
                )
                .build()
        };
        let make = |stall: u64| {
            RecordBuilder::new("cycle_engine", "uniform_random_4x4", 42, 1)
                .work_u64("cycles", 1000)
                .attribution(&section(stall))
                .wall_fixed("elapsed_s", 0.1, 4)
                .build()
        };
        let entries = ledger_from(&[make(10), make(500)]);
        let text = compare(&entries[0], &entries[1]).unwrap();
        assert!(text.contains("attribution movers"), "{text}");
        assert!(text.contains("sw0->sw1"), "{text}");
    }

    #[test]
    fn list_renders_one_row_per_entry() {
        let entries = ledger_from(&[
            record("uniform_random_4x4", 100.0, 1.0, 0),
            record("hotspot_4x4", 50.0, 1.0, 0),
        ]);
        let text = render_list(&entries);
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("uniform_random_4x4"));
        assert!(text.contains("hotspot_4x4"));
    }

    #[test]
    fn config_digest_tracks_parts() {
        let a = config_digest(&[("cycles", "1000".to_string())]);
        let b = config_digest(&[("cycles", "2000".to_string())]);
        assert_ne!(a, b);
        assert_eq!(a, config_digest(&[("cycles", "1000".to_string())]));
    }
}
