//! # xpipes-sim — cycle-accurate simulation kernel
//!
//! This crate is the substrate on which the behavioural models of the
//! xpipes Lite NoC library (crate `xpipes`) execute. The original library
//! was written in SystemC; this kernel reproduces the subset of SystemC
//! semantics the library relies on:
//!
//! * a global cycle counter ([`Cycle`]),
//! * deterministic random sources ([`rng::SimRng`]),
//! * the scheduling primitive of the structure-of-arrays NoC kernel:
//!   two-level activity bitmaps ([`active::ActiveSet`]),
//! * versioned, integrity-hashed state snapshots for checkpoint/restore
//!   ([`snapshot`]),
//! * deterministic fan-out of independent seeded runs ([`parallel`]),
//! * statistics gathering ([`stats`]),
//! * value-change-dump tracing ([`trace::VcdWriter`]),
//! * low-overhead observability ([`telemetry`]): per-component metric
//!   registry, congestion timelines, flight-recorder event traces with
//!   Chrome/Perfetto export,
//! * per-packet latency attribution ([`attribution`]): causal span
//!   ledgers with an exact conservation invariant, per-flow latency
//!   histograms, and a run-diff regression explainer,
//! * fault-model specifications and campaign reports ([`faults`]) with a
//!   byte-stable JSON renderer ([`json`]),
//! * deterministic kernel-health introspection ([`health`]) and an
//!   opt-in wall-clock phase profiler ([`profile`]).

pub mod active;
pub mod attribution;
pub mod faults;
pub mod health;
pub mod json;
pub mod parallel;
pub mod profile;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use active::ActiveSet;
pub use attribution::{
    AttributionDiff, AttributionEngine, AttributionSummary, ChannelConsumer, ChannelInfo, Phase,
};
pub use faults::{CampaignReport, FaultKind, FaultPlan, FaultRun, RunSummary};
pub use health::KernelHealth;
pub use json::Json;
pub use profile::{KernelPhase, KernelProfile};
pub use rng::{RngState, SimRng};
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
pub use stats::{Histogram, RunningStats};
pub use telemetry::{
    CongestionTimeline, FlightRecorder, MetricsRegistry, TelemetrySummary, TraceEvent,
    TraceEventKind,
};
pub use time::Cycle;
