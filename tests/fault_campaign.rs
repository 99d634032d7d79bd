//! Conformance suite for the fault-injection campaign subsystem.
//!
//! Pins the acceptance criteria of the campaign runner end to end:
//! every fault model is tolerated at the grid error rates, reports are
//! byte-deterministic, every fault model demonstrably fires, and a
//! deliberately broken flow-control implementation is caught by the
//! protocol invariant checkers.

use xpipes::flow_control::FlowSabotage;
use xpipes::monitor::{InvariantKind, MonitorConfig};
use xpipes::noc::Noc;
use xpipes_sim::{FaultKind, FaultPlan};
use xpipes_traffic::faultcampaign::{
    campaign_spec, run_campaign, run_campaign_streaming, CampaignConfig,
};
use xpipes_traffic::generator::{Injector, InjectorConfig};
use xpipes_traffic::pattern::Pattern;

/// All five fault models at every grid rate complete with zero
/// invariant violations and no end-to-end loss — the paper's claim that
/// the ACK/nACK go-back-N layer masks link faults from the transport.
#[test]
fn fault_models_tolerated_at_grid_rates() {
    let cfg = CampaignConfig::new(7, 4000);
    let report = run_campaign(&campaign_spec(), &FaultKind::ALL, &cfg).expect("campaign runs");
    assert_eq!(
        report.runs.len(),
        FaultKind::ALL.len() * cfg.error_rates.len()
    );
    for run in &report.runs {
        assert!(
            run.pass,
            "{} @ {} violated: {:?}",
            run.fault, run.rate, run.violations
        );
        assert!(run.summary.drained);
        assert_eq!(run.summary.packets_sent, run.summary.packets_delivered);
    }
    assert!(report.pass, "{}", report.to_json());
}

/// Two campaigns from the same seed render byte-identical JSON reports.
#[test]
fn report_is_deterministic() {
    let mut cfg = CampaignConfig::new(7, 1500);
    cfg.error_rates = vec![0.01, 0.05];
    let a = run_campaign(&campaign_spec(), &FaultKind::ALL, &cfg).expect("first run");
    let b = run_campaign(&campaign_spec(), &FaultKind::ALL, &cfg).expect("second run");
    assert_eq!(a.to_json(), b.to_json());
    // And a different seed actually changes the measurements.
    let mut other = cfg.clone();
    other.seed = 8;
    let c = run_campaign(&campaign_spec(), &FaultKind::ALL, &other).expect("third run");
    assert_ne!(a.to_json(), c.to_json());
}

/// Fanning the campaign grid across worker threads must not perturb the
/// report: every run derives its streams from the master seed and its
/// grid index, and the pool merges results in submission order, so the
/// JSON is byte-identical to the serial rendering at any worker count.
#[test]
fn parallel_campaign_matches_serial_byte_for_byte() {
    let mut cfg = CampaignConfig::new(7, 1200);
    cfg.error_rates = vec![0.01, 0.04];
    let serial = run_campaign(&campaign_spec(), &FaultKind::ALL, &cfg).expect("serial run");
    // 0 = host parallelism.
    for workers in [0, 3] {
        let (parallel, _) = run_campaign_streaming::<xpipes::XpipesError>(
            &campaign_spec(),
            &FaultKind::ALL,
            &cfg,
            None,
            workers,
            0,
            Vec::new(),
            &mut |_| Ok(()),
        )
        .expect("parallel run");
        assert_eq!(serial.to_json(), parallel.to_json(), "workers={workers}");
    }
}

/// The protocol monitor is a passive observer: a monitored run and a
/// bare run from the same seed agree on every counter and on the
/// latency distribution.
#[test]
fn monitored_run_matches_bare_run() {
    let spec = campaign_spec();
    let run = |monitored: bool| {
        let mut noc = Noc::with_seed(&spec, 23).expect("instantiates");
        if monitored {
            noc.enable_monitor(MonitorConfig {
                liveness_bound: 2500,
                max_violations: 64,
            });
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
        if monitored {
            noc.finish_monitor();
            assert!(noc.monitor_violations().is_empty());
        }
        let (active, _total) = noc.active_channels().expect("schedule is live");
        assert_eq!(active, 0, "idle network must report zero active channels");
        noc.stats()
    };
    let bare = run(false);
    let monitored = run(true);
    assert_eq!(bare.cycles, monitored.cycles);
    assert_eq!(bare.packets_sent, monitored.packets_sent);
    assert_eq!(bare.packets_delivered, monitored.packets_delivered);
    assert_eq!(bare.flits_routed, monitored.flits_routed);
    assert_eq!(bare.retransmissions, monitored.retransmissions);
    assert_eq!(bare.ack_timeouts, monitored.ack_timeouts);
    assert_eq!(
        bare.transaction_latency.mean(),
        monitored.transaction_latency.mean()
    );
    assert_eq!(
        bare.transaction_latency.max(),
        monitored.transaction_latency.max()
    );
}

/// Each fault model leaves its fingerprint in the run counters — the
/// campaign is not vacuously passing because nothing was injected.
#[test]
fn faults_actually_fire() {
    let mut cfg = CampaignConfig::new(7, 2500);
    cfg.error_rates = vec![0.05];
    let report = run_campaign(&campaign_spec(), &FaultKind::ALL, &cfg).expect("campaign runs");
    assert!(report.pass, "{}", report.to_json());
    for run in &report.runs {
        let s = &run.summary;
        match FaultKind::from_name(&run.fault).expect("known fault name") {
            FaultKind::FlitCorruption | FaultKind::BurstCorruption => {
                assert!(s.flits_corrupted > 0, "{}: no corruption", run.fault);
                assert!(s.retransmissions > 0, "{}: no recovery", run.fault);
            }
            FaultKind::AckLoss => {
                assert!(s.acks_dropped > 0, "{}: no drops", run.fault);
            }
            FaultKind::AckCorruption => {
                assert!(s.acks_corrupted > 0, "{}: no corruption", run.fault);
            }
            FaultKind::OutputStall => {
                assert!(s.stall_cycles > 0, "{}: no stalls", run.fault);
            }
        }
    }
    // The baseline run stays fault-free.
    assert_eq!(report.baseline.flits_corrupted, 0);
    assert_eq!(report.baseline.acks_dropped, 0);
    assert_eq!(report.baseline.stall_cycles, 0);
}

/// Drives a sabotaged network under forward-channel corruption and
/// returns the invariant kinds the monitor reported.
fn kinds_caught_by(mode: FlowSabotage) -> Vec<InvariantKind> {
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
    noc.sabotage_all_senders(mode);
    let mut inj =
        Injector::new(&spec, InjectorConfig::new(0.05, Pattern::Uniform), 7).expect("injector");
    for _ in 0..3000 {
        inj.step(&mut noc);
    }
    noc.run_until_idle(5000);
    noc.finish_monitor();
    noc.monitor_violations().iter().map(|v| v.kind).collect()
}

/// A sender that ignores nACKs and never rewinds loses corrupted flits
/// for good; the monitor must flag the stalled / incomplete channel.
#[test]
fn broken_retransmission_is_caught() {
    let kinds = kinds_caught_by(FlowSabotage::SkipRetransmission);
    assert!(!kinds.is_empty(), "sabotaged network reported clean");
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, InvariantKind::Liveness | InvariantKind::Conservation)),
        "expected a liveness or conservation violation, got {kinds:?}"
    );
}

/// A sender that stamps two in-flight flits with the same sequence
/// number aliases the go-back-N window; the monitor must flag it.
#[test]
fn seq_reuse_is_caught() {
    let kinds = kinds_caught_by(FlowSabotage::ReuseSequence);
    assert!(
        kinds.contains(&InvariantKind::SeqAliasing),
        "expected seq-aliasing, got {kinds:?}"
    );
}

/// A sender that silently discards its window on nACK destroys flits;
/// the monitor must flag the conservation break.
#[test]
fn drop_on_nack_is_caught() {
    let kinds = kinds_caught_by(FlowSabotage::DropOnNack);
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, InvariantKind::Conservation | InvariantKind::Liveness)),
        "expected a conservation or liveness violation, got {kinds:?}"
    );
}
