//! Conformance suite for the per-packet latency attribution subsystem.
//!
//! Pins the attribution acceptance criteria end to end: the phase
//! decomposition conserves latency exactly on the seeded reference mesh
//! with and without fault injection (`incomplete == 0` proves every
//! delivered packet summed exactly, even in release builds), attaching
//! the ledger never perturbs the simulated work, reports are
//! byte-deterministic, the run-diff explainer ranks an artificially
//! stalled link first, the Perfetto export nests attribution spans under
//! the flight-recorder trace, and campaign reports embed attribution
//! summaries without breaking parallel determinism.

use xpipes::noc::{Noc, NocStats, TelemetryConfig};
use xpipes_bench::cycle_engine::reference_spec;
use xpipes_sim::attribution::{self, Phase};
use xpipes_sim::{FaultKind, FaultPlan, Json};
use xpipes_topology::spec::NocSpec;
use xpipes_traffic::faultcampaign::{
    campaign_spec, run_campaign, run_campaign_streaming, CampaignConfig,
};
use xpipes_traffic::generator::{Injector, InjectorConfig};
use xpipes_traffic::pattern::Pattern;

/// Drives uniform-random traffic into `noc` and drains it completely.
fn drive(noc: &mut Noc, spec: &NocSpec, seed: u64, steps: u64) {
    let mut inj =
        Injector::new(spec, InjectorConfig::new(0.05, Pattern::Uniform), seed).expect("injector");
    for _ in 0..steps {
        inj.step(noc);
    }
    assert!(noc.run_until_idle(100_000), "network failed to drain");
    inj.drain_responses(noc);
}

/// Sums the canonical six-phase object from a parsed report.
fn phase_sum(phases: &Json) -> u64 {
    Phase::ALL
        .iter()
        .map(|p| {
            phases
                .get(p.name())
                .and_then(Json::as_u64)
                .expect("every phase key present")
        })
        .sum()
}

/// The tentpole acceptance criterion, fault-free half: on the seeded
/// reference 4x4 mesh every delivered packet decomposes into phases that
/// sum exactly to its end-to-end latency. `decompose` rejects inexact
/// sums, so `incomplete == 0` is the conservation proof.
#[test]
fn conservation_holds_on_reference_mesh() {
    let spec = reference_spec();
    let mut noc = Noc::with_seed(&spec, 42).expect("instantiates");
    noc.enable_attribution();
    drive(&mut noc, &spec, 42 ^ 0x5EED, 3000);

    let a = noc.attribution().expect("enabled");
    assert!(a.delivered() > 200, "delivered only {}", a.delivered());
    assert_eq!(a.incomplete(), 0, "a packet failed exact decomposition");
    assert_eq!(a.in_flight(), 0, "drained network must retire every ledger");

    let report = noc.attribution_report().expect("enabled");
    let flows = report
        .get("flows")
        .and_then(Json::as_array)
        .expect("flows array");
    assert!(!flows.is_empty());
    for f in flows {
        let worst = f.get("worst").expect("worst exemplar");
        let total = worst.get("total").and_then(Json::as_u64).expect("total");
        assert_eq!(
            phase_sum(worst.get("phases").expect("phases")),
            total,
            "exemplar phases must sum to its end-to-end latency"
        );
        let lat = f.get("latency").expect("latency");
        let p50 = lat.get("p50").and_then(Json::as_u64).unwrap();
        let p99 = lat.get("p99").and_then(Json::as_u64).unwrap();
        let max = lat.get("max").and_then(Json::as_u64).unwrap();
        assert!(p50 <= p99, "histogram percentiles out of order");
        assert!(total <= max || max < total + 32, "exemplar beyond max");
    }
    // Per-component phase totals telescope up to the global totals.
    let global = phase_sum(report.get("phase_totals").expect("phase_totals"));
    let component_sum: u64 = report
        .get("components")
        .and_then(Json::as_array)
        .expect("components")
        .iter()
        .map(|c| c.get("total").and_then(Json::as_u64).expect("total"))
        .sum();
    assert_eq!(global, component_sum);
}

/// Attribution armed on a network restored from a plain checkpoint
/// taken mid-flight, with rewinds in progress: before the restore (the
/// fresh engine finds no section to take up) and after it. Packets
/// already past their source NI are not attributed; every packet that
/// starts after arming decomposes exactly, which debug builds assert
/// packet by packet.
#[test]
fn attribution_arms_on_a_restored_mid_flight_checkpoint() {
    let spec = reference_spec();
    let plan = FaultPlan {
        flit_corruption_rate: 0.02,
        ack_loss_rate: 0.01,
        ..FaultPlan::none()
    };
    let fresh = || Noc::with_faults(&spec, 31, &plan).expect("instantiates");
    let mut inj =
        Injector::new(&spec, InjectorConfig::new(0.05, Pattern::Uniform), 31).expect("injector");
    let mut noc = fresh();
    inj.run(&mut noc, 1_500);
    let in_flight = noc.stats().packets_sent - noc.stats().packets_delivered;
    assert!(
        in_flight > 0,
        "the checkpoint must catch packets mid-flight"
    );
    let bytes = noc.checkpoint();
    for arm_first in [true, false] {
        let mut replay = fresh();
        if arm_first {
            replay.enable_attribution();
        }
        replay.restore(&bytes).expect("restores");
        if !arm_first {
            replay.enable_attribution();
        }
        let mut inj = inj.clone();
        inj.run(&mut replay, 1_500);
        assert!(replay.run_until_idle(100_000), "network failed to drain");
        let a = replay.attribution().expect("enabled");
        assert!(a.delivered() > 100, "delivered only {}", a.delivered());
        assert_eq!(a.incomplete(), 0, "arm_first {arm_first}");
        assert_eq!(a.in_flight(), 0, "arm_first {arm_first}");
    }
}

/// Conservation under fault injection: corruption, ACK loss, and
/// transient stalls stretch packets with retransmissions and replays —
/// the decomposition must still sum exactly, with the extra latency
/// landing in the retransmission-penalty phase.
#[test]
fn conservation_holds_under_fault_injection() {
    let spec = reference_spec();
    let plan = FaultPlan {
        flit_corruption_rate: 0.01,
        corruption_burst_len: 2,
        ack_loss_rate: 0.01,
        ack_corruption_rate: 0.005,
        stall_rate: 0.0005,
        stall_len: 12,
    };
    let mut noc = Noc::with_faults(&spec, 97, &plan).expect("instantiates");
    noc.enable_attribution();
    drive(&mut noc, &spec, 97 ^ 0x5EED, 3000);

    let s = noc.attribution_summary().expect("enabled");
    assert!(s.packets > 200, "delivered only {}", s.packets);
    assert_eq!(s.incomplete, 0, "faults broke exact decomposition");
    assert_eq!(s.in_flight, 0);
    assert!(noc.stats().retransmissions > 0, "plan injected no faults");
    assert!(
        s.phase_totals[Phase::RetxPenalty.index()] > 0,
        "retransmissions must surface in the penalty phase"
    );
}

/// Attribution is observability, not behaviour: with the ledger attached
/// the simulated work is identical to the bare engine, packet for packet.
#[test]
fn attribution_never_perturbs_the_simulation() {
    let run = |attr: bool| -> NocStats {
        let spec = reference_spec();
        let mut noc = Noc::with_seed(&spec, 23).expect("instantiates");
        if attr {
            noc.enable_attribution();
        }
        drive(&mut noc, &spec, 23 ^ 0x5EED, 1500);
        noc.stats().clone()
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.packets_sent, on.packets_sent);
    assert_eq!(off.packets_delivered, on.packets_delivered);
    assert_eq!(off.flits_routed, on.flits_routed);
    assert_eq!(off.retransmissions, on.retransmissions);
    assert_eq!(off.cycles, on.cycles);
}

/// The full report renders byte-identically for a fixed seed.
#[test]
fn report_is_byte_deterministic() {
    let render = || {
        let spec = reference_spec();
        let mut noc = Noc::with_seed(&spec, 31).expect("instantiates");
        noc.enable_attribution();
        drive(&mut noc, &spec, 31 ^ 0x5EED, 1200);
        noc.attribution_report().expect("enabled").render()
    };
    assert_eq!(render(), render());
}

/// The run-diff regression explainer: a degraded link — one switch
/// output repeatedly stalling for short bursts — must rank that link's
/// channel as the top mover, in a queueing phase, with a positive delta.
///
/// The bursts are kept short (30 cycles every 250) so the network's own
/// buffering absorbs the backpressure: a single long stall is honestly
/// attributed mostly to source-queue residency at the blocked NIs, which
/// is true but points upstream of the culprit.
#[test]
fn diff_ranks_artificially_stalled_link_first() {
    let spec = reference_spec();
    let run = |stall: Option<(usize, usize)>| -> Json {
        let mut noc = Noc::with_seed(&spec, 42).expect("instantiates");
        noc.enable_attribution();
        let mut inj = Injector::new(
            &spec,
            InjectorConfig::new(0.05, Pattern::Uniform),
            42 ^ 0x5EED,
        )
        .expect("injector");
        for cycle in 0..2500u64 {
            if let Some((s, p)) = stall {
                if cycle >= 500 && (cycle - 500) % 250 == 0 {
                    noc.stall_switch_output(s, p, 30);
                }
            }
            inj.step(&mut noc);
        }
        assert!(noc.run_until_idle(100_000), "network failed to drain");
        inj.drain_responses(&mut noc);
        noc.attribution_report().expect("enabled")
    };

    let baseline = run(None);
    // Pick the busiest switch-driven channel from the baseline so the
    // stall actually sits in a traffic path.
    let (label, _) = baseline
        .get("components")
        .and_then(Json::as_array)
        .expect("components")
        .iter()
        .filter_map(|c| {
            let l = c.get("channel")?.as_str()?;
            if !l.starts_with("sw") {
                return None;
            }
            Some((l.to_string(), c.get("total")?.as_u64()?))
        })
        .max_by_key(|&(_, t)| t)
        .expect("a switch-driven channel carries traffic");
    // Parse "sw{S}.p{P}->..." back into the stall coordinates.
    let body = &label[2..label.find("->").expect("label arrow")];
    let (s, p) = body.split_once(".p").expect("switch port label");
    let current = run(Some((
        s.parse().expect("switch index"),
        p.parse().expect("port index"),
    )));

    let d = attribution::diff(&baseline, &current).expect("reports parse");
    assert!(d.current_total > d.baseline_total, "stall added no latency");
    let top = d.entries.first().expect("movers found");
    assert_eq!(top.channel, label, "stalled link must rank first");
    assert!(top.delta() > 0);
    assert!(
        top.phase == "output_queue" || top.phase == "arbitration_stall",
        "stall must surface as queueing, got {}",
        top.phase
    );
    // The rendering is itself deterministic and names the culprit first.
    let text = d.render(5);
    let culprit = text
        .lines()
        .find(|l| l.trim_start().starts_with("1."))
        .expect("ranked mover line");
    assert!(
        culprit.contains(&label),
        "render buries the culprit: {text}"
    );
}

/// Attribution spans ride in the Perfetto trace next to the flight
/// recorder's events: pid 1, complete (`X`) spans, one thread per flow.
#[test]
fn perfetto_export_nests_attribution_spans() {
    let spec = reference_spec();
    let mut noc = Noc::with_seed(&spec, 11).expect("instantiates");
    noc.enable_telemetry(TelemetryConfig {
        flight_recorder_depth: 1024,
        ..TelemetryConfig::default()
    });
    noc.enable_attribution();
    drive(&mut noc, &spec, 11 ^ 0x5EED, 1000);

    let trace = noc.perfetto_json().expect("recorder enabled");
    let doc = Json::parse(&trace).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("attribution"))
        .collect();
    assert!(!spans.is_empty(), "no attribution spans exported");
    for e in &spans {
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1));
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("dur").and_then(Json::as_u64).is_some());
    }
    // The recorder's own events are still present on pid 0.
    assert!(events
        .iter()
        .any(|e| e.get("pid").and_then(Json::as_u64) == Some(0)));
}

/// Campaign grid points embed attribution summaries, and fanning the grid
/// across workers still reproduces the serial report byte for byte.
#[test]
fn campaign_reports_embed_attribution_deterministically() {
    let spec = campaign_spec();
    let mut cfg = CampaignConfig::new(7, 1200);
    cfg.error_rates = vec![0.02];
    let serial = run_campaign(&spec, &[FaultKind::FlitCorruption], &cfg).expect("serial campaign");
    let json = serial.to_json();
    assert!(json.contains("\"attribution\""));
    assert!(json.contains("\"phase_totals\""));
    let base = serial
        .baseline
        .attribution
        .as_ref()
        .expect("baseline embeds attribution");
    assert!(base.packets > 0);
    assert_eq!(base.incomplete, 0, "campaign baseline broke conservation");
    for run in &serial.runs {
        let a = run
            .summary
            .attribution
            .as_ref()
            .expect("grid point embeds attribution");
        assert_eq!(
            a.incomplete, 0,
            "{} @ {} broke conservation",
            run.fault, run.rate
        );
    }
    let (parallel, _) = run_campaign_streaming::<xpipes::XpipesError>(
        &spec,
        &[FaultKind::FlitCorruption],
        &cfg,
        None,
        4,
        0,
        Vec::new(),
        &mut |_| Ok(()),
    )
    .expect("parallel campaign");
    assert_eq!(json, parallel.to_json());
}
