//! Fault models and campaign reports for deterministic fault injection.
//!
//! The xpipes Lite protocol stack is "designed for pipelined, unreliable
//! links": the ACK/nACK go-back-N layer must mask forward-channel flit
//! corruption, reverse-channel ACK/nACK loss, and transient backpressure.
//! This module defines the *specification* side of a fault-injection
//! campaign — which fault to inject at what rate — and the
//! machine-readable report the campaign runner emits. The injection
//! itself happens in the component models: corruption and ACK/nACK
//! loss in `xpipes::link`, stall draws in `xpipes::noc` (counted down
//! in the channel records); the sweep orchestration lives in
//! `xpipes_traffic::faultcampaign`.
//!
//! Everything here is deterministic: a [`FaultPlan`] contains only rates
//! and lengths (the RNG streams live in the simulated components), and
//! [`CampaignReport::to_json`] renders byte-stable JSON.

use crate::json::Json;

/// The fault models a campaign can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Independent single-flit corruption on the forward channel
    /// (a failed CRC at the receiver).
    FlitCorruption,
    /// Bursty forward-channel corruption: each trigger corrupts a run of
    /// consecutive flits (models a multi-cycle glitch on the wires).
    BurstCorruption,
    /// Reverse-channel ACK/nACK messages dropped in flight.
    AckLoss,
    /// Reverse-channel ACK/nACK messages corrupted in flight. Control
    /// lines are CRC-protected, so a corrupted message is detected and
    /// discarded at the receiving sender — observably a drop, but
    /// counted separately.
    AckCorruption,
    /// Transient backpressure stalls at switch output buffers: a stalled
    /// output transmits nothing for a run of cycles.
    OutputStall,
}

impl FaultKind {
    /// Every fault model, in canonical campaign order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::FlitCorruption,
        FaultKind::BurstCorruption,
        FaultKind::AckLoss,
        FaultKind::AckCorruption,
        FaultKind::OutputStall,
    ];

    /// Stable machine-readable name (used in reports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::FlitCorruption => "flit-corruption",
            FaultKind::BurstCorruption => "burst-corruption",
            FaultKind::AckLoss => "ack-loss",
            FaultKind::AckCorruption => "ack-corruption",
            FaultKind::OutputStall => "output-stall",
        }
    }

    /// Parses a [`name`](Self::name) back into a kind.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The single-fault plan injecting this model at `rate`.
    pub fn plan(self, rate: f64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        match self {
            FaultKind::FlitCorruption => plan.flit_corruption_rate = rate,
            FaultKind::BurstCorruption => {
                plan.flit_corruption_rate = rate;
                plan.corruption_burst_len = FaultPlan::DEFAULT_BURST_LEN;
            }
            FaultKind::AckLoss => plan.ack_loss_rate = rate,
            FaultKind::AckCorruption => plan.ack_corruption_rate = rate,
            FaultKind::OutputStall => {
                plan.stall_rate = rate;
                plan.stall_len = FaultPlan::DEFAULT_STALL_LEN;
            }
        }
        plan.clamped()
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete fault-injection configuration. Fault models compose: a
/// plan may corrupt flits *and* drop ACKs *and* stall outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Per-traversal probability that an entering forward flit starts a
    /// corruption event.
    pub flit_corruption_rate: f64,
    /// Flits corrupted per corruption event (1 = independent single-flit
    /// corruption).
    pub corruption_burst_len: u32,
    /// Per-message probability that a reverse-channel ACK/nACK is lost.
    pub ack_loss_rate: f64,
    /// Per-message probability that a reverse-channel ACK/nACK is
    /// corrupted (detected by the control CRC and discarded).
    pub ack_corruption_rate: f64,
    /// Per-cycle, per-switch-output probability of triggering a stall.
    pub stall_rate: f64,
    /// Cycles a triggered output stall lasts.
    pub stall_len: u32,
}

impl FaultPlan {
    /// Burst length used by [`FaultKind::BurstCorruption`].
    pub(crate) const DEFAULT_BURST_LEN: u32 = 4;
    /// Stall duration used by [`FaultKind::OutputStall`].
    pub const DEFAULT_STALL_LEN: u32 = 12;

    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan {
            flit_corruption_rate: 0.0,
            corruption_burst_len: 1,
            ack_loss_rate: 0.0,
            ack_corruption_rate: 0.0,
            stall_rate: 0.0,
            stall_len: 0,
        }
    }

    /// True when the plan injects nothing.
    pub fn is_benign(&self) -> bool {
        self.flit_corruption_rate <= 0.0
            && self.ack_loss_rate <= 0.0
            && self.ack_corruption_rate <= 0.0
            && self.stall_rate <= 0.0
    }

    /// Same plan with all probabilities clamped into `[0, 1]` and
    /// lengths floored at 1 where a trigger exists.
    #[must_use]
    pub fn clamped(mut self) -> Self {
        self.flit_corruption_rate = self.flit_corruption_rate.clamp(0.0, 1.0);
        self.ack_loss_rate = self.ack_loss_rate.clamp(0.0, 1.0);
        self.ack_corruption_rate = self.ack_corruption_rate.clamp(0.0, 1.0);
        self.stall_rate = self.stall_rate.clamp(0.0, 1.0);
        self.corruption_burst_len = self.corruption_burst_len.max(1);
        if self.stall_rate > 0.0 {
            self.stall_len = self.stall_len.max(1);
        }
        self
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Aggregate measurements of one simulated run (fault-free baseline or
/// one fault/rate grid point).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Cycles simulated, including the drain phase.
    pub cycles: u64,
    /// Packets injected by all NIs.
    pub packets_sent: u64,
    /// Packets fully reassembled at their destination NI.
    pub packets_delivered: u64,
    /// Flit retransmissions over all links (switch and NI senders).
    pub retransmissions: u64,
    /// Forward flits corrupted by the injectors.
    pub flits_corrupted: u64,
    /// Reverse-channel messages dropped.
    pub acks_dropped: u64,
    /// Reverse-channel messages corrupted (detected and discarded).
    pub acks_corrupted: u64,
    /// Sender ACK-timeout rewinds.
    pub ack_timeouts: u64,
    /// Switch output cycles lost to injected stalls.
    pub stall_cycles: u64,
    /// Mean transaction round-trip latency in cycles.
    pub avg_latency: f64,
    /// Whether the network drained within the cycle budget.
    pub drained: bool,
    /// Per-component telemetry digest (hot links, peak queue depth),
    /// when the run collected one. A pure function of end-of-run
    /// component counters, so reports stay byte-deterministic at any
    /// worker count.
    pub telemetry: Option<crate::telemetry::TelemetrySummary>,
    /// Per-packet latency attribution digest (phase totals, worst flow),
    /// when the run collected one. Like `telemetry`, a pure function of
    /// end-of-run state — byte-deterministic at any worker count.
    pub attribution: Option<crate::attribution::AttributionSummary>,
}

impl RunSummary {
    fn to_json(&self) -> Json {
        let mut b = Json::object()
            .field("cycles", Json::UInt(self.cycles))
            .field("packets_sent", Json::UInt(self.packets_sent))
            .field("packets_delivered", Json::UInt(self.packets_delivered))
            .field("retransmissions", Json::UInt(self.retransmissions))
            .field("flits_corrupted", Json::UInt(self.flits_corrupted))
            .field("acks_dropped", Json::UInt(self.acks_dropped))
            .field("acks_corrupted", Json::UInt(self.acks_corrupted))
            .field("ack_timeouts", Json::UInt(self.ack_timeouts))
            .field("stall_cycles", Json::UInt(self.stall_cycles))
            .field("avg_latency", Json::Fixed(self.avg_latency, 3))
            .field("drained", Json::Bool(self.drained));
        if let Some(telemetry) = &self.telemetry {
            b = b.field("telemetry", telemetry.to_json());
        }
        if let Some(attribution) = &self.attribution {
            b = b.field("attribution", attribution.to_json());
        }
        b.build()
    }
}

/// One grid point of the campaign: a fault model at an error rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRun {
    /// Fault model name ([`FaultKind::name`]).
    pub fault: String,
    /// Injected error rate.
    pub rate: f64,
    /// Measurements.
    pub summary: RunSummary,
    /// Rendered invariant violations (empty on a clean run).
    pub violations: Vec<String>,
    /// `avg_latency / baseline.avg_latency` (1.0 when the baseline is
    /// degenerate).
    pub latency_factor: f64,
    /// True when no invariant was violated and the network drained.
    pub pass: bool,
    /// Flight-recorder dump (rendered last-K flit events), captured when
    /// the run tripped an invariant or failed to drain. Empty on a
    /// clean run.
    pub flight_dump: Vec<String>,
}

impl FaultRun {
    fn to_json(&self) -> Json {
        let mut b = Json::object()
            .field("fault", Json::str(&self.fault))
            .field("rate", Json::Fixed(self.rate, 4))
            .field("pass", Json::Bool(self.pass))
            .field("latency_factor", Json::Fixed(self.latency_factor, 3))
            .field(
                "violations",
                Json::Array(self.violations.iter().map(Json::str).collect()),
            );
        if !self.flight_dump.is_empty() {
            b = b.field(
                "flight_dump",
                Json::Array(self.flight_dump.iter().map(Json::str).collect()),
            );
        }
        b.field("summary", self.summary.to_json()).build()
    }
}

/// The complete campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Design / campaign name.
    pub name: String,
    /// Master seed every run's RNG streams derive from.
    pub seed: u64,
    /// Injection cycles per run (drain budget excluded).
    pub cycles: u64,
    /// The fault-free reference run.
    pub baseline: RunSummary,
    /// One entry per (fault model, rate) grid point.
    pub runs: Vec<FaultRun>,
    /// True when every grid point passed.
    pub pass: bool,
}

impl CampaignReport {
    /// Renders the byte-stable JSON document.
    pub fn to_json(&self) -> String {
        Json::object()
            .field("campaign", Json::str(&self.name))
            .field("seed", Json::UInt(self.seed))
            .field("cycles", Json::UInt(self.cycles))
            .field("pass", Json::Bool(self.pass))
            .field("baseline", self.baseline.to_json())
            .field(
                "runs",
                Json::Array(self.runs.iter().map(FaultRun::to_json).collect()),
            )
            .build()
            .render()
    }

    /// Grid points that violated an invariant or failed to drain.
    pub fn failures(&self) -> impl Iterator<Item = &FaultRun> {
        self.runs.iter().filter(|r| !r.pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FaultKind::from_name("nope"), None);
    }

    #[test]
    fn single_fault_plans_touch_one_knob() {
        let p = FaultKind::FlitCorruption.plan(0.1);
        assert_eq!(p.flit_corruption_rate, 0.1);
        assert_eq!(p.corruption_burst_len, 1);
        assert_eq!(p.ack_loss_rate, 0.0);

        let b = FaultKind::BurstCorruption.plan(0.1);
        assert_eq!(b.corruption_burst_len, FaultPlan::DEFAULT_BURST_LEN);

        let s = FaultKind::OutputStall.plan(0.05);
        assert_eq!(s.stall_len, FaultPlan::DEFAULT_STALL_LEN);
        assert!(!s.is_benign());
        assert!(FaultPlan::none().is_benign());
    }

    #[test]
    fn plans_clamp_rates() {
        let p = FaultKind::AckLoss.plan(7.0);
        assert_eq!(p.ack_loss_rate, 1.0);
        let mut raw = FaultPlan::none();
        raw.stall_rate = -1.0;
        raw.corruption_burst_len = 0;
        let c = raw.clamped();
        assert_eq!(c.stall_rate, 0.0);
        assert_eq!(c.corruption_burst_len, 1);
    }

    #[test]
    fn report_json_is_stable_and_ordered() {
        let summary = RunSummary {
            cycles: 100,
            packets_sent: 10,
            packets_delivered: 10,
            retransmissions: 2,
            flits_corrupted: 1,
            acks_dropped: 0,
            acks_corrupted: 0,
            ack_timeouts: 0,
            stall_cycles: 0,
            avg_latency: 31.25,
            drained: true,
            telemetry: Some(crate::telemetry::TelemetrySummary {
                total_retransmissions: 2,
                link_retransmissions: vec![("sw0.p1->sw1.p0".into(), 2)],
                peak_queue_depth: 3,
                peak_queue_switch: "sw0".into(),
            }),
            attribution: Some(crate::attribution::AttributionSummary {
                packets: 10,
                incomplete: 0,
                in_flight: 0,
                phase_totals: [5, 10, 0, 0, 290, 8],
                worst_flow: Some(("ini0".into(), "tgt3".into(), 44)),
            }),
        };
        let report = CampaignReport {
            name: "demo".into(),
            seed: 7,
            cycles: 100,
            baseline: summary.clone(),
            runs: vec![FaultRun {
                fault: "flit-corruption".into(),
                rate: 0.01,
                summary,
                violations: vec![],
                latency_factor: 1.0,
                pass: true,
                flight_dump: vec!["[cycle 90] transmit ch0(a->b) pkt 1 seq 0".into()],
            }],
            pass: true,
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"campaign\": \"demo\""));
        assert!(a.contains("\"rate\": 0.0100"));
        assert!(a.contains("\"avg_latency\": 31.250"));
        assert!(a.contains("\"peak_queue_depth\": 3"));
        assert!(a.contains("\"flight_dump\""));
        assert!(a.contains("\"retx_penalty\": 8"));
        assert!(a.contains("\"worst_flow\""));
        assert_eq!(report.failures().count(), 0);
    }
}
