//! Conformance suite for the telemetry subsystem.
//!
//! Pins the observability acceptance criteria end to end: the congestion
//! timeline of the reference workload is byte-stable (golden-hashed like
//! the VCD dump), a tripped protocol-monitor invariant freezes the
//! flight recorder with the offending flit's recent event history,
//! campaign reports embed telemetry summaries without breaking parallel
//! determinism, the Perfetto export is well-formed, and attaching
//! telemetry never perturbs the simulated work.

use xpipes::flow_control::FlowSabotage;
use xpipes::monitor::MonitorConfig;
use xpipes::noc::{Noc, TelemetryConfig};
use xpipes_bench::cycle_engine::{run_workload, ObservedRun, RunOptions, Workload};
use xpipes_sim::{FaultKind, FaultPlan, TraceEventKind};
use xpipes_traffic::faultcampaign::{
    campaign_spec, run_campaign, run_campaign_streaming, CampaignConfig,
};
use xpipes_traffic::generator::{Injector, InjectorConfig};
use xpipes_traffic::pattern::Pattern;

/// FNV-1a 64-bit — tiny, dependency-free, and stable across platforms.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pinned congestion timeline: the reference 4x4-mesh uniform-random
/// workload at 4000 injection cycles with full telemetry. Recompute by
/// printing `fnv64` here after an intentional simulator change.
const TIMELINE_GOLDEN_FNV64: u64 = 0x8592_9c62_ab19_144e;

/// The reference uniform-random workload under full telemetry.
fn instrumented(cycles: u64) -> ObservedRun {
    let opts = RunOptions {
        telemetry: Some(TelemetryConfig::full()),
        ..RunOptions::default()
    };
    run_workload(Workload::UniformRandom, cycles, &opts, None).expect("workload runs")
}

fn reference_timeline() -> String {
    instrumented(4000)
        .timeline_json
        .expect("full config collects a timeline")
}

#[test]
fn timeline_json_is_byte_stable_for_fixed_seed() {
    let a = reference_timeline();
    let b = reference_timeline();
    assert_eq!(a, b, "same seed must reproduce the same timeline");
    assert!(a.contains("\"interval\": 64"));
    assert!(a.contains("\"windows\""));
    assert_eq!(
        fnv64(a.as_bytes()),
        TIMELINE_GOLDEN_FNV64,
        "timeline diverged from the pinned golden dump \
         (actual fnv64: {:#018x}, {} bytes)",
        fnv64(a.as_bytes()),
        a.len()
    );
}

/// The tentpole acceptance criterion: when a protocol-monitor invariant
/// trips, the flight recorder freezes and the dump holds the offending
/// flit's recent event history — the events on the violating channel in
/// the cycles leading up to the trip.
#[test]
fn monitor_trip_freezes_flight_recorder_with_event_history() {
    let spec = campaign_spec();
    let plan = FaultPlan {
        flit_corruption_rate: 0.2,
        ..FaultPlan::none()
    };
    let mut noc = Noc::with_faults(&spec, 7, &plan).expect("instantiates");
    noc.enable_monitor(MonitorConfig {
        liveness_bound: 400,
        max_violations: 64,
    });
    noc.enable_telemetry(TelemetryConfig {
        flight_recorder_depth: 1024,
        ..TelemetryConfig::default()
    });
    // A sender that aliases go-back-N sequence numbers trips the
    // monitor's SeqAliasing invariant deterministically under corruption.
    noc.sabotage_all_senders(FlowSabotage::ReuseSequence);
    let mut inj =
        Injector::new(&spec, InjectorConfig::new(0.05, Pattern::Uniform), 7).expect("injector");
    for _ in 0..3000 {
        inj.step(&mut noc);
    }
    noc.run_until_idle(5000);
    noc.finish_monitor();

    let violations = noc.monitor_violations();
    assert!(!violations.is_empty(), "sabotaged network reported clean");
    let first = &violations[0];

    let recorder = noc.flight_recorder().expect("recorder enabled");
    let dump = recorder.frozen().expect("violation must freeze the ring");
    assert!(
        dump.cycle <= first.cycle + 1,
        "freeze ({}) must capture the state at the first violation ({})",
        dump.cycle,
        first.cycle
    );
    assert!(!dump.events.is_empty());
    // Every recorded event predates the freeze, and the window covers
    // the cycles immediately before the trip.
    let newest = dump.events.iter().map(|e| e.cycle).max().unwrap();
    assert!(dump.events.iter().all(|e| e.cycle <= dump.cycle));
    assert!(newest + 2 >= dump.cycle, "ring is stale at freeze time");
    // The offending channel's history is in the dump: the violation
    // names a channel label, and events on that channel appear with
    // wire-level detail (packet ids and sequence numbers).
    let labels = noc.channel_labels();
    let offending: Vec<_> = dump
        .events
        .iter()
        .filter(|e| labels[e.channel as usize] == first.channel)
        .collect();
    assert!(
        !offending.is_empty(),
        "no events for violating channel {} in the frozen dump",
        first.channel
    );
    assert!(offending.iter().any(|e| matches!(
        e.kind,
        TraceEventKind::Transmit | TraceEventKind::Retransmit
    )));
    // The rendered dump carries the channel label for human triage.
    let rendered = noc.flight_dump_rendered();
    assert_eq!(rendered.len(), dump.events.len());
    assert!(rendered.iter().any(|l| l.contains(&first.channel)));
}

/// Campaign reports embed per-grid-point telemetry summaries, and the
/// parallel path still renders byte-identical JSON.
#[test]
fn campaign_report_embeds_telemetry_and_stays_parallel_deterministic() {
    let mut cfg = CampaignConfig::new(7, 1200);
    cfg.error_rates = vec![0.03];
    let faults = [FaultKind::FlitCorruption, FaultKind::AckLoss];
    let serial = run_campaign(&campaign_spec(), &faults, &cfg).expect("serial run");
    let json = serial.to_json();
    assert!(json.contains("\"telemetry\""));
    assert!(json.contains("\"peak_queue_depth\""));
    // Corruption at 3% forces retransmissions, which the summary
    // attributes to specific links.
    let corr = &serial.runs[0];
    let telem = corr.summary.telemetry.as_ref().expect("summary embedded");
    assert_eq!(telem.total_retransmissions, corr.summary.retransmissions);
    assert!(telem.total_retransmissions > 0);
    assert!(!telem.link_retransmissions.is_empty());
    assert!(telem.peak_queue_depth > 0);
    for workers in [1, 3] {
        let (par, _) = run_campaign_streaming::<xpipes::XpipesError>(
            &campaign_spec(),
            &faults,
            &cfg,
            None,
            workers,
            0,
            Vec::new(),
            &mut |_| Ok(()),
        )
        .expect("parallel run");
        assert_eq!(par.to_json(), json, "workers={workers}");
    }
}

/// The Perfetto export is a `trace_event` document: async begin/end span
/// pairs per packet plus instant wire events, deterministic across runs.
#[test]
fn perfetto_export_has_matched_spans() {
    let run = || {
        instrumented(1500)
            .perfetto_json
            .expect("full config runs a recorder")
    };
    let a = run();
    assert_eq!(a, run(), "perfetto export must be deterministic");
    assert!(a.contains("\"traceEvents\""));
    assert!(a.contains("\"displayTimeUnit\""));
    let begins = a.matches("\"ph\": \"b\"").count();
    let ends = a.matches("\"ph\": \"e\"").count();
    let instants = a.matches("\"ph\": \"i\"").count();
    assert!(begins > 0, "no spans in {a}");
    assert_eq!(begins, ends, "unbalanced async spans");
    assert!(instants >= begins, "spans without wire events");
}

/// Attaching the full telemetry stack must be behaviourally invisible:
/// the instrumented run performs exactly the same simulated work as the
/// bare run — counters, latency distribution, everything.
#[test]
fn telemetry_does_not_perturb_simulation() {
    let spec = campaign_spec();
    let run = |telemetry: bool| {
        let mut noc = Noc::with_seed(&spec, 23).expect("instantiates");
        if telemetry {
            noc.enable_telemetry(TelemetryConfig::full());
        }
        let mut inj = Injector::new(
            &spec,
            InjectorConfig::new(0.05, Pattern::Uniform),
            23 ^ 0x5EED,
        )
        .expect("injector");
        for _ in 0..1500 {
            inj.step(&mut noc);
        }
        assert!(noc.run_until_idle(20_000), "network drains");
        inj.drain_responses(&mut noc);
        noc.stats()
    };
    let bare = run(false);
    let instrumented = run(true);
    assert_eq!(bare.cycles, instrumented.cycles);
    assert_eq!(bare.packets_sent, instrumented.packets_sent);
    assert_eq!(bare.packets_delivered, instrumented.packets_delivered);
    assert_eq!(bare.flits_routed, instrumented.flits_routed);
    assert_eq!(bare.retransmissions, instrumented.retransmissions);
    assert_eq!(bare.ack_timeouts, instrumented.ack_timeouts);
    assert_eq!(
        bare.transaction_latency.mean(),
        instrumented.transaction_latency.mean()
    );
    assert_eq!(
        bare.transaction_latency.max(),
        instrumented.transaction_latency.max()
    );
}

/// The metric registry agrees with the engine's own statistics — the
/// cheap per-component counters are not drifting approximations.
#[test]
fn registry_counters_agree_with_engine_stats() {
    let spec = campaign_spec();
    let plan = FaultPlan {
        flit_corruption_rate: 0.03,
        ..FaultPlan::none()
    };
    let mut noc = Noc::with_faults(&spec, 7, &plan).expect("instantiates");
    noc.enable_telemetry(TelemetryConfig::default());
    let mut inj =
        Injector::new(&spec, InjectorConfig::new(0.05, Pattern::Uniform), 7).expect("injector");
    for _ in 0..2000 {
        inj.step(&mut noc);
    }
    noc.run_until_idle(10_000);
    noc.flush_telemetry();
    let stats = noc.stats();
    let registry = noc.telemetry_registry().expect("telemetry enabled");
    assert!(registry.epochs() > 0);
    let json = registry.to_json().render();
    assert!(json.contains("\"flits_forwarded\""));
    assert!(json.contains("\"retransmissions\""));
    assert!(json.contains("\"packetization_stalls\""));
    let summary = noc.telemetry_summary();
    assert_eq!(summary.total_retransmissions, stats.retransmissions);
    assert!(stats.retransmissions > 0, "corruption must force recovery");
}
