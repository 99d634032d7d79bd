//! Restore-equivalence conformance suite for the checkpoint subsystem.
//!
//! The contract under test: a run checkpointed at cycle C and restored
//! into a freshly assembled network resumes **bit-exactly** — the final
//! report JSON (telemetry timeline, attribution report, Perfetto
//! export), the work fingerprint (cycles / flits routed / packets
//! delivered), and the VCD waveform hash are byte-identical to the
//! uninterrupted run. That holds with fault injection, the protocol
//! monitor, telemetry, and attribution all active across the
//! checkpoint boundary. On top of it: a campaign killed part-way and
//! resumed from journaled grid points assembles a report byte-identical
//! to an uninterrupted run at any worker count, and a damaged snapshot
//! container is rejected before it can poison a network.

use xpipes::flow_control::FlowSabotage;
use xpipes::monitor::{InvariantKind, MonitorConfig};
use xpipes::noc::{Noc, TelemetryConfig};
use xpipes_bench::cycle_engine::reference_spec;
use xpipes_ocp::Request;
use xpipes_sim::snapshot::{self, FORMAT_VERSION, MAGIC};
use xpipes_sim::{
    FaultKind, FaultPlan, SimRng, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use xpipes_topology::spec::NocSpec;
use xpipes_traffic::faultcampaign::{
    campaign_spec, config_fingerprint, grid_size, run_campaign, run_campaign_streaming,
    run_grid_point, warm_checkpoint, CampaignConfig, CompletedPoint,
};
use xpipes_traffic::generator::{Injector, InjectorConfig, WarmStart};
use xpipes_traffic::journal::Journal;
use xpipes_traffic::pattern::Pattern;
use xpipes_traffic::runner;

/// FNV-1a 64-bit — tiny, dependency-free, and stable across platforms.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const SEED: u64 = 7;
const TOTAL_CYCLES: u64 = 4000;

fn reference_plan() -> FaultPlan {
    FaultPlan {
        flit_corruption_rate: 0.02,
        ack_loss_rate: 0.01,
        ..FaultPlan::none()
    }
}

/// A fully instrumented network: fault injection plus every observer the
/// simulator offers — the hardest state a checkpoint has to carry.
fn instrumented_noc() -> Noc {
    let mut noc = Noc::with_faults(&campaign_spec(), SEED, &reference_plan()).expect("assembles");
    noc.enable_trace();
    noc.enable_monitor(MonitorConfig {
        liveness_bound: 100_000,
        max_violations: 64,
    });
    noc.enable_telemetry(TelemetryConfig::full());
    noc.enable_attribution();
    noc
}

fn fresh_injector() -> Injector {
    Injector::new(
        &campaign_spec(),
        InjectorConfig::new(0.05, Pattern::Uniform),
        SEED ^ 0x5EED,
    )
    .expect("injector")
}

/// Advances the run over absolute cycles `[from, to)` with the campaign
/// drain cadence, so the schedule is identical whether or not the span
/// was split by a checkpoint.
fn run_span(noc: &mut Noc, inj: &mut Injector, from: u64, to: u64) {
    for cycle in from..to {
        inj.step(noc);
        if cycle % 512 == 511 {
            inj.drain_responses(noc);
        }
    }
}

/// Everything the acceptance criteria compare byte-for-byte.
#[derive(Debug, PartialEq)]
struct Artifacts {
    /// Work fingerprint: the simulated-work fields of [`Noc::stats`].
    cycles: u64,
    packets_delivered: u64,
    flits_routed: u64,
    retransmissions: u64,
    /// Full waveform and its golden hash.
    vcd: String,
    vcd_fnv64: u64,
    /// Report JSON from each observer.
    timeline_json: String,
    attribution_json: String,
    perfetto_json: String,
    telemetry_summary: String,
}

fn finish(mut noc: Noc, inj: &mut Injector) -> Artifacts {
    noc.run_until_idle(TOTAL_CYCLES / 2);
    inj.drain_responses(&mut noc);
    noc.flush_telemetry();
    let stats = noc.stats();
    let vcd = noc.vcd().expect("tracing enabled");
    Artifacts {
        cycles: stats.cycles,
        packets_delivered: stats.packets_delivered,
        flits_routed: stats.flits_routed,
        retransmissions: stats.retransmissions,
        vcd_fnv64: fnv64(vcd.as_bytes()),
        vcd,
        timeline_json: noc.timeline_json().expect("timeline enabled"),
        attribution_json: noc
            .attribution_report()
            .expect("attribution enabled")
            .render(),
        perfetto_json: noc.perfetto_json().expect("telemetry enabled"),
        telemetry_summary: format!("{:?}", noc.telemetry_summary()),
    }
}

/// The uninterrupted reference: inject for `TOTAL_CYCLES`, drain, report.
fn uninterrupted() -> Artifacts {
    let mut noc = instrumented_noc();
    let mut inj = fresh_injector();
    run_span(&mut noc, &mut inj, 0, TOTAL_CYCLES);
    finish(noc, &mut inj)
}

/// The same run split at cycle `c`: checkpoint network + injector into
/// bytes, rebuild both from scratch, restore, and run the remainder.
///
/// The VCD writer checkpoints its *emission state*, not the emitted
/// text — the first process keeps the document it already wrote and the
/// restored process continues the change stream, so the two halves are
/// concatenated here before comparing against the uninterrupted dump.
fn split_at(c: u64) -> Artifacts {
    let mut noc = instrumented_noc();
    let mut inj = fresh_injector();
    run_span(&mut noc, &mut inj, 0, c);
    let noc_bytes = noc.checkpoint();
    let mut w = SnapshotWriter::new();
    inj.save_state(&mut w);
    let inj_bytes = w.finish();
    let vcd_head = noc.vcd().expect("tracing enabled");
    drop((noc, inj));

    let mut noc = instrumented_noc();
    let mut inj = fresh_injector();
    noc.restore(&noc_bytes).expect("restores");
    let mut r = SnapshotReader::open(&inj_bytes).expect("opens");
    inj.load_state(&mut r).expect("loads");
    r.finish().expect("no trailing bytes");
    run_span(&mut noc, &mut inj, c, TOTAL_CYCLES);
    let mut artifacts = finish(noc, &mut inj);
    artifacts.vcd = format!("{vcd_head}{}", artifacts.vcd);
    artifacts.vcd_fnv64 = fnv64(artifacts.vcd.as_bytes());
    artifacts
}

/// The headline acceptance criterion: for several checkpoint cycles C —
/// early, mid-run, and late — the restored continuation is
/// byte-identical to the uninterrupted run in every artifact.
#[test]
fn restore_is_byte_identical_to_uninterrupted_run() {
    let reference = uninterrupted();
    assert!(
        reference.packets_delivered > 0,
        "reference run must do real work"
    );
    for c in [512, 1500, 3327] {
        let resumed = split_at(c);
        assert_eq!(
            resumed, reference,
            "run split at cycle {c} diverged from the uninterrupted run"
        );
    }
}

/// The checkpoint bytes themselves are deterministic: capturing the same
/// run state twice yields identical containers, so journal files and
/// warm-start blobs can be byte-diffed.
#[test]
fn checkpoint_bytes_are_deterministic() {
    let capture = || {
        let mut noc = instrumented_noc();
        let mut inj = fresh_injector();
        run_span(&mut noc, &mut inj, 0, 1000);
        noc.checkpoint()
    };
    assert_eq!(capture(), capture());
}

/// Damaged containers are rejected up front: a flipped payload byte
/// fails the integrity hash, a truncated container fails cleanly, and
/// a checkpoint from a differently shaped network is refused — none of
/// them may silently poison a restored run.
#[test]
fn damaged_snapshots_are_rejected() {
    let mut noc = instrumented_noc();
    let mut inj = fresh_injector();
    run_span(&mut noc, &mut inj, 0, 600);
    let good = noc.checkpoint();

    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    match noc.restore(&flipped) {
        Err(SnapshotError::IntegrityMismatch { .. }) => {}
        other => panic!("flipped byte must fail the integrity hash, got {other:?}"),
    }

    match noc.restore(&good[..good.len() / 3]) {
        Err(SnapshotError::Truncated) => {}
        other => panic!("truncated container must be rejected, got {other:?}"),
    }

    let mut tiny = Noc::new(&tiny_spec()).expect("assembles");
    match tiny.restore(&good) {
        Err(SnapshotError::Malformed(_)) => {}
        other => panic!("wrong-shaped network must be refused, got {other:?}"),
    }

    // The original network still restores the intact container.
    noc.restore(&good).expect("intact container still restores");
}

/// A nested observer section rides on the hash of the container around
/// it. Flip one byte inside the monitor, telemetry, flight-recorder or
/// attribution section and reseal that section's own hash: the restore
/// refuses the container on the outer hash, before decoding anything.
#[test]
fn damaged_nested_sections_fail_the_outer_hash() {
    let spec = campaign_spec();
    let mut noc = Noc::with_faults(&spec, 31, &reference_plan()).expect("assembles");
    noc.enable_monitor(MonitorConfig::default());
    noc.enable_telemetry(TelemetryConfig::full());
    noc.enable_attribution();
    let mut inj =
        Injector::new(&spec, InjectorConfig::new(0.05, Pattern::Uniform), 31).expect("injector");
    inj.run(&mut noc, 1_500);
    let good = noc.checkpoint();
    let outer_hash = field_at(&good, 16) as u64;
    // Outermost first: the network, then its sections in the order
    // `Noc::checkpoint` writes them, the telemetry section holding the
    // timeline and flight-recorder sections.
    let nested = containers(&good);
    assert_eq!(nested.len(), 6, "{nested:?}");
    assert_eq!(nested[0], (0, good.len() - HEADER_LEN));
    for (what, (head, len)) in [
        ("monitor", nested[1]),
        ("telemetry", nested[2]),
        ("flight recorder", nested[4]),
        ("attribution", nested[5]),
    ] {
        // A byte of the section's own, ahead of any section nested in it.
        let start = head + HEADER_LEN;
        let end = nested
            .iter()
            .map(|&(h, _)| h)
            .find(|&h| h > head && h < start + len)
            .unwrap_or(start + len);
        let at = (start + end) / 2;
        let mut forged = good.clone();
        forged[at] ^= 0x08;
        let hash = snapshot::fnv64(&forged[start..start + len]);
        forged[head + 16..start].copy_from_slice(&hash.to_le_bytes());
        match noc.restore(&forged) {
            Err(SnapshotError::IntegrityMismatch { expected, .. }) => {
                assert_eq!(expected, outer_hash, "{what}: not the outer hash");
            }
            other => panic!("damaged {what} section must fail the outer hash, got {other:?}"),
        }
    }
    noc.restore(&good)
        .expect("the intact container still restores");
}

/// A warm start restores through the one restore body whichever way its
/// bytes came in: branched off the campaign 2x2 warm checkpoint with
/// `WarmStart::restore_into` (nothing hashed) or restored from the
/// network's own container with `Noc::restore` (hashed there), every
/// fault model at rate 0.05 ends in the same state — identical
/// checkpoint bytes right after the restore, identical statistics,
/// violations and attribution summary after 300 cycles and the drain.
#[test]
fn warm_start_restore_matches_a_hashed_restore() {
    const WARM: u64 = 2_000;
    let spec = campaign_spec();
    let cfg = CampaignConfig::new(SEED, 300);
    let observe = |noc: &mut Noc| {
        noc.enable_monitor(MonitorConfig {
            liveness_bound: cfg.liveness_bound,
            max_violations: 64,
        });
        noc.enable_telemetry(TelemetryConfig {
            flight_recorder_depth: cfg.flight_recorder_depth,
            ..TelemetryConfig::default()
        });
        noc.enable_attribution();
    };
    let mut noc = Noc::with_faults(&spec, SEED, &FaultPlan::none()).expect("assembles");
    observe(&mut noc);
    let inj_cfg = InjectorConfig::new(cfg.injection_rate, Pattern::Uniform);
    let mut inj = Injector::new(&spec, inj_cfg, SEED ^ 0x5EED).expect("injector");
    run_span(&mut noc, &mut inj, 0, WARM);
    let warm = WarmStart::capture(&noc, &inj, WARM);
    assert_eq!(
        warm,
        warm_checkpoint(&spec, &cfg, WARM).expect("warms"),
        "not the campaign warm checkpoint"
    );
    let noc_bytes = noc.checkpoint();

    for kind in FaultKind::ALL {
        let plan = kind.plan(0.05);
        let run = |restore: &dyn Fn(&mut Noc, &mut Injector)| {
            let mut noc = Noc::with_faults(&spec, SEED, &plan).expect("assembles");
            observe(&mut noc);
            let mut twin = Injector::new(&spec, inj_cfg, 1).expect("injector");
            restore(&mut noc, &mut twin);
            let restored = noc.checkpoint();
            run_span(&mut noc, &mut twin, WARM, WARM + cfg.cycles);
            assert!(noc.run_until_idle(cfg.drain_cycles), "{kind} drains");
            twin.drain_responses(&mut noc);
            noc.finish_monitor();
            let violations: Vec<String> = noc
                .monitor_violations()
                .iter()
                .map(|v| v.to_string())
                .collect();
            let after = (
                format!("{:?}", noc.stats()),
                violations,
                format!("{:?}", noc.attribution_summary()),
            );
            (restored, after)
        };
        let branched = run(&|noc, twin| warm.restore_into(noc, twin).expect("restores"));
        let hashed = run(&|noc, twin| {
            noc.restore(&noc_bytes).expect("restores");
            *twin = inj.clone();
        });
        assert!(
            branched.0 == hashed.0,
            "{kind}: restored checkpoints differ"
        );
        assert_eq!(branched.1, hashed.1, "{kind}");
    }
}

/// A network of `spec` at seed 31 under `plan`, run for 1,500 cycles of
/// uniform traffic at rate 0.05 with no observer armed, so packets are
/// mid-flight and windows open; returns its checkpoint, which carries
/// no observer section, and the injector to continue with.
fn plain_mid_flight_checkpoint(spec: &NocSpec, plan: &FaultPlan) -> (Vec<u8>, Injector) {
    let mut noc = Noc::with_faults(spec, 31, plan).expect("assembles");
    let mut inj =
        Injector::new(spec, InjectorConfig::new(0.05, Pattern::Uniform), 31).expect("injector");
    inj.run(&mut noc, 1_500);
    let stats = noc.stats();
    assert!(
        stats.packets_sent > stats.packets_delivered,
        "nothing mid-flight"
    );
    (noc.checkpoint(), inj)
}

/// A protocol monitor armed on a network restored from a plain
/// mid-flight checkpoint, before the restore or after it, watches from
/// the restored state on: with no defect in the network it reports
/// nothing, with or without faults, through 1,500 more cycles and the
/// drain. Attribution and the flight recorder ride along, and every
/// packet attribution opens decomposes exactly.
#[test]
fn monitor_arms_on_a_restored_mid_flight_checkpoint() {
    let faulted = FaultPlan {
        flit_corruption_rate: 0.02,
        ack_loss_rate: 0.01,
        ..FaultPlan::none()
    };
    for (name, spec) in [
        ("campaign", campaign_spec()),
        ("reference", reference_spec()),
    ] {
        for plan in [FaultPlan::none(), faulted] {
            let (bytes, inj) = plain_mid_flight_checkpoint(&spec, &plan);
            for arm_first in [true, false] {
                let mut noc = Noc::with_faults(&spec, 31, &plan).expect("assembles");
                let arm = |noc: &mut Noc| {
                    noc.enable_monitor(MonitorConfig::default());
                    noc.enable_telemetry(TelemetryConfig::full());
                    noc.enable_attribution();
                };
                if arm_first {
                    arm(&mut noc);
                }
                noc.restore(&bytes).expect("restores");
                if !arm_first {
                    arm(&mut noc);
                }
                let mut inj = inj.clone();
                inj.run(&mut noc, 1_500);
                assert!(noc.run_until_idle(100_000), "network failed to drain");
                noc.finish_monitor();
                let case = format!("{name} {plan:?} arm_first {arm_first}");
                let violations = noc.monitor_violations();
                let n = violations.len();
                assert_eq!(n, 0, "{case}: {n} violations, first {}", violations[0]);
                let a = noc.attribution().expect("enabled");
                assert!(
                    a.delivered() > 50,
                    "{case}: delivered only {}",
                    a.delivered()
                );
                assert_eq!((a.incomplete(), a.in_flight()), (0, 0), "{case}");
            }
        }
    }
}

/// The seeded monitor is still the checker: a sender that reuses its
/// sequence number after the restore is caught as aliasing.
#[test]
fn monitor_armed_on_a_restored_network_catches_sequence_reuse() {
    let spec = campaign_spec();
    let (bytes, mut inj) = plain_mid_flight_checkpoint(&spec, &FaultPlan::none());
    let mut noc = Noc::with_faults(&spec, 31, &FaultPlan::none()).expect("assembles");
    noc.restore(&bytes).expect("restores");
    noc.enable_monitor(MonitorConfig::default());
    noc.sabotage_all_senders(FlowSabotage::ReuseSequence);
    inj.run(&mut noc, 500);
    let violations = noc.monitor_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::SeqAliasing),
        "{violations:?}"
    );
}

/// The attribution and flight-recorder sections carry every sender's
/// next sequence number; a restore checks them against the restored
/// senders and refuses a forged one with a one-line error.
#[test]
fn forged_observer_sequence_bytes_are_refused() {
    let spec = campaign_spec();
    let mut noc = Noc::with_faults(&spec, 31, &reference_plan()).expect("assembles");
    noc.enable_telemetry(TelemetryConfig::full());
    noc.enable_attribution();
    let mut inj =
        Injector::new(&spec, InjectorConfig::new(0.05, Pattern::Uniform), 31).expect("injector");
    inj.run(&mut noc, 1_500);
    let good = noc.checkpoint();
    let n = noc.channel_labels().len();
    let count = (n as u64).to_le_bytes();
    let nested = containers(&good);
    let payloads = || {
        nested
            .iter()
            .map(|&(head, len)| head + HEADER_LEN..head + HEADER_LEN + len)
            .filter(|p| p.len() >= n + 8)
    };
    // The attribution section opens with the sequence list, the flight
    // recorder's closes with it (and so does the telemetry section
    // around it).
    let attribution: Vec<usize> = payloads()
        .filter(|p| good[p.start..p.start + 8] == count)
        .map(|p| p.start + 8)
        .collect();
    let flight: Vec<usize> = payloads()
        .filter(|p| good[p.end - n - 8..p.end - n] == count)
        .map(|p| p.end - n)
        .collect();
    for (what, mut found) in [("attribution", attribution), ("flight recorder", flight)] {
        found.dedup();
        assert_eq!(found.len(), 1, "{what} section not found");
        let at = found[0] + n / 2;
        let forged = forge(&good, &nested, at, &[(good[at] + 1) % 64]);
        match noc.restore(&forged) {
            Err(SnapshotError::Malformed(msg)) => {
                assert!(msg.starts_with(what) && !msg.contains('\n'), "{msg}");
            }
            other => panic!("forged {what} seq must be refused, got {other:?}"),
        }
    }
    noc.restore(&good)
        .expect("the intact container still restores");
}

/// One initiator and one target on a 2x1 mesh: a differently shaped
/// network, and the smallest state that still has every kind of queue.
fn tiny_spec() -> NocSpec {
    let mut b = xpipes_topology::builders::mesh(2, 1).expect("builds");
    b.attach_initiator("cpu", (0, 0)).expect("attaches");
    let mem = b.attach_target("mem", (1, 0)).expect("attaches");
    let mut spec = NocSpec::new("tiny", b.into_topology());
    spec.map_address(mem, 0x0, 0x10000).expect("maps");
    spec
}

/// Bytes of an `XPSN` container header: magic, version, payload length,
/// payload hash.
const HEADER_LEN: usize = 24;

/// A count no container can hold: pre-allocating for it overflows `Vec`'s
/// capacity and panics.
const FORGED_COUNT: u64 = 1 << 60;

/// The little-endian `u64` field at byte offset `at`, as a `usize`.
fn field_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")) as usize
}

/// Header offset and payload length of `bytes` (one container) and of
/// every container nested inside it, found by magic and version,
/// outermost first.
fn containers(bytes: &[u8]) -> Vec<(usize, usize)> {
    (0..bytes.len().saturating_sub(HEADER_LEN))
        .filter(|&at| bytes[at..at + 4] == MAGIC)
        .filter(|&at| bytes[at + 4..at + 8] == FORMAT_VERSION.to_le_bytes())
        .map(|at| (at, field_at(bytes, at + 8)))
        .filter(|&(at, len)| len <= bytes.len() - at - HEADER_LEN)
        .collect()
}

/// Overwrites the bytes at `at` with `value` and re-seals every container
/// around them, innermost first, so magic, version, length and hash all
/// still hold and only a decoder that trusts the field can trip.
fn forge(good: &[u8], nested: &[(usize, usize)], at: usize, value: &[u8]) -> Vec<u8> {
    let mut forged = good.to_vec();
    forged[at..at + value.len()].copy_from_slice(value);
    for &(head, len) in nested.iter().rev() {
        let end = head + HEADER_LEN + len;
        if head < at + value.len() && at < end {
            let hash = snapshot::fnv64(&forged[head + HEADER_LEN..end]);
            forged[head + 16..head + HEADER_LEN].copy_from_slice(&hash.to_le_bytes());
        }
    }
    forged
}

/// [`forge`] with the eight bytes at `at` set to [`FORGED_COUNT`].
fn forge_count(good: &[u8], nested: &[(usize, usize)], at: usize) -> Vec<u8> {
    forge(good, nested, at, &FORGED_COUNT.to_le_bytes())
}

/// Hands `decode` a forgery of `good` for every payload offset that can
/// hold a count — eight bytes whose value does not exceed the bytes
/// behind them, as every real count's must — at every nesting depth, and
/// returns how many it rejected. A decoder that panics fails the test by
/// panicking.
fn sweep_forged_counts(good: &[u8], mut decode: impl FnMut(&[u8]) -> bool) -> usize {
    let nested = containers(good);
    (HEADER_LEN..good.len() - 8)
        .filter(|&at| field_at(good, at) <= good.len() - at - 8)
        .filter(|&at| !decode(&forge_count(good, &nested, at)))
        .count()
}

/// A decoded count is untrusted input (every decoder must reject
/// arbitrary bytes without panicking). `xpipesd` runs
/// `CompletedPoint::from_bytes` on bytes a worker sent and the journal
/// runs it on files whose contract is "discard and recompute"; a warm
/// checkpoint crosses the same wire and the same disk. A container whose
/// magic, version, length and hash are all valid but whose payload
/// claims 2^60 elements somewhere must decode to an error — or to some
/// other valid value, where the bytes hit were not a count — and never
/// to a `capacity overflow` panic.
#[test]
fn forged_element_counts_are_errors_not_panics() {
    // The reported case: a passing point ends in two empty string lists,
    // so its last sixteen payload bytes are their counts.
    let cfg = CampaignConfig::new(SEED, 300);
    let point = run_grid_point(&campaign_spec(), &[], &cfg, 0, None).expect("baseline runs");
    assert!(point.violations.is_empty() && point.flight_dump.is_empty());
    let good = point.to_bytes();
    let forged = forge_count(&good, &containers(&good), good.len() - 16);
    match CompletedPoint::from_bytes(&forged) {
        Err(SnapshotError::Truncated) => {}
        other => panic!("2^60 violations must read as truncated, got {other:?}"),
    }
    let rejected = sweep_forged_counts(&good, |b| CompletedPoint::from_bytes(b).is_ok());
    assert!(rejected > 0, "no forged point was rejected");

    // A warm checkpoint of a small, saturated, monitored network taken
    // mid-flight: requests in the backlog, responses in the latency
    // queue, memory words, undelivered flits in the monitor's queues.
    let spec = tiny_spec();
    let mut noc = Noc::with_faults(&spec, SEED, &reference_plan()).expect("assembles");
    noc.enable_monitor(MonitorConfig::default());
    let mut inj =
        Injector::new(&spec, InjectorConfig::new(0.5, Pattern::Uniform), SEED).expect("injector");
    run_span(&mut noc, &mut inj, 0, 25);
    assert!(!noc.is_idle(), "nothing in flight to forge");
    let good = noc.checkpoint();
    let warm = WarmStart::capture(&noc, &inj, 25).to_bytes();
    let rejected = sweep_forged_counts(&warm, |b| {
        WarmStart::from_bytes(b).is_ok_and(|w| w.restore_into(&mut noc, &mut inj).is_ok())
    });
    assert!(rejected > 0, "no forged warm checkpoint was rejected");

    // The network's own container, without the wrapper around it.
    let rejected = sweep_forged_counts(&good, |b| noc.restore(b).is_ok());
    assert!(rejected > 0, "no forged network checkpoint was rejected");
    noc.restore(&good)
        .expect("the intact container still restores");
}

/// A decoded transaction tag is untrusted input too. The initiator's tag
/// table has 16 slots: a checkpoint that names tag 200, or one tag twice,
/// must be refused with a one-line error. Loading it instead would hold a
/// tag no response can free, so the network never goes idle and
/// `run_until_idle` burns its whole budget.
#[test]
fn forged_transaction_tags_are_errors_not_hangs() {
    // A submit cycle and two OCP tags that make the two table entries
    // easy to find: (tag, OCP tag, expects response, submit cycle).
    const AT: u64 = 0x02A5;
    const OCP_TAGS: [u8; 2] = [0xC3, 0x5A];
    let spec = tiny_spec();
    let cpu = spec
        .topology
        .nis_of_kind(xpipes_topology::NiKind::Initiator)
        .map(|a| a.ni)
        .next()
        .expect("one initiator");
    let mut noc = Noc::new(&spec).expect("assembles");
    noc.run(AT);
    for (i, ocp_tag) in OCP_TAGS.into_iter().enumerate() {
        let req =
            xpipes_ocp::transaction::RequestBuilder::new(xpipes_ocp::MCmd::Read, 8 * i as u64)
                .tag(ocp_tag)
                .build()
                .expect("valid read");
        noc.submit(cpu, req).expect("submits");
    }
    let good = noc.checkpoint();
    // The offset of the entry that holds tag `tag`.
    let entry = |tag: u8| {
        let mut pattern = vec![tag, OCP_TAGS[tag as usize], 1];
        pattern.extend_from_slice(&AT.to_le_bytes());
        good.windows(pattern.len())
            .position(|w| w == pattern)
            .expect("tag table entry present")
    };
    let nested = containers(&good);
    // Tag 0 becomes 200; tag 1 becomes a second tag 0.
    for (at, tag) in [(entry(0), 200), (entry(1), 0)] {
        match noc.restore(&forge(&good, &nested, at, &[tag])) {
            Err(SnapshotError::Malformed(msg)) => {
                assert!(!msg.contains('\n'), "one line: {msg}");
            }
            other => panic!("forged tag {tag} must be refused, got {other:?}"),
        }
    }
    noc.restore(&good)
        .expect("the intact container still restores");
    assert!(noc.run_until_idle(1_000), "both reads complete");
}

/// The paper's load–latency fabric, as the sweep benchmark builds it: a
/// 4x4 mesh, four initiators along the top row, four targets along the
/// bottom row, 1 MiB per target.
fn mesh4_spec() -> NocSpec {
    let mut b = xpipes_topology::builders::mesh(4, 4).expect("builds");
    for i in 0..4 {
        b.attach_initiator(format!("cpu{i}"), (i, 0))
            .expect("attaches");
    }
    let targets: Vec<_> = (0..4)
        .map(|i| b.attach_target(format!("m{i}"), (i, 3)).expect("attaches"))
        .collect();
    let mut spec = NocSpec::new("sweep-mesh4", b.into_topology());
    for (i, t) in targets.into_iter().enumerate() {
        spec.map_address(t, (i as u64) << 20, 1 << 20)
            .expect("maps");
    }
    spec
}

/// The saturated regime, pinned byte for byte. At rate 0.8 the 4x4 is far
/// past its 0.70 packets/cycle saturation: every initiator holds all 16
/// transaction tags and queues the rest in its backlog. The checkpoint
/// carries the tag tables (in ascending tag order), the backlogs and
/// every queued flit; the load point carries the curve's saturated end.
/// Neither hash may move under a change to how the NI stores its tables.
#[test]
fn saturated_initiator_bytes_are_pinned() {
    let spec = mesh4_spec();
    let mut noc = Noc::with_seed(&spec, SEED).expect("assembles");
    let mut inj = Injector::new(
        &spec,
        InjectorConfig::new(0.8, Pattern::Uniform),
        SEED ^ 0x9E37,
    )
    .expect("injector");
    for _ in 0..3 {
        inj.run(&mut noc, 1_000);
        inj.drain_responses(&mut noc);
    }
    let stats = noc.stats();
    assert!(
        inj.injected() > stats.packets_sent + 1_000,
        "requests must be waiting for tags: {} injected, {} packets sent",
        inj.injected(),
        stats.packets_sent
    );
    let point =
        runner::measure(&spec, Pattern::Uniform, 0.8, 1_000, 2_000, SEED).expect("measures");
    assert_eq!(
        (
            fnv64(&noc.checkpoint()),
            fnv64(format!("{point:?}").as_bytes())
        ),
        (0xaea5_70fe_8441_9796, 0xb906_4fa5_09ba_2da5),
        "{point:?}"
    );
}

/// Faulted port state, pinned byte for byte. The other pins run on
/// fault-free or rewind-free state; here the campaign 2x2 runs under
/// flit corruption, ACK loss (with the ACK timeout armed) and output
/// stalls, so the checkpoints carry output queues, retransmission
/// windows in mid-rewind, timeout silence counters and stall
/// countdowns. Each run pins the checkpoint at several cycles and the
/// network statistics after the drain. The event kernel and its
/// reference share the switch and NI code, so a change to how a port
/// stores its flits that alters both stays invisible to the kernel
/// matrix; these hashes see it.
#[test]
fn faulted_port_state_bytes_are_pinned() {
    let spec = campaign_spec();
    let mut hashes = Vec::new();
    for kind in [
        FaultKind::FlitCorruption,
        FaultKind::AckLoss,
        FaultKind::OutputStall,
    ] {
        let mut noc = Noc::with_faults(&spec, SEED, &kind.plan(0.05)).expect("assembles");
        let mut inj = Injector::new(
            &spec,
            InjectorConfig::new(0.08, Pattern::Uniform),
            SEED ^ 0xFA17,
        )
        .expect("injector");
        for _ in 0..4 {
            inj.run(&mut noc, 700);
            inj.drain_responses(&mut noc);
            hashes.push(fnv64(&noc.checkpoint()));
        }
        assert!(noc.run_until_idle(20_000), "{kind} run drains");
        inj.drain_responses(&mut noc);
        let stats = noc.stats();
        assert_eq!(stats.packets_delivered, stats.packets_sent, "{kind}");
        match kind {
            FaultKind::FlitCorruption => assert!(stats.retransmissions > 0, "{stats:?}"),
            FaultKind::AckLoss => assert!(stats.ack_timeouts > 0, "{stats:?}"),
            _ => assert!(stats.stall_cycles > 0, "{stats:?}"),
        }
        hashes.push(fnv64(format!("{stats:?}").as_bytes()));
    }
    let hex: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(
        hashes,
        [
            // flit-corruption: cycles 700, 1400, 2100, 2800; stats after the drain
            0x5d2a_6f30_1cbd_f85c,
            0x18ad_6386_ced0_2b46,
            0x24e9_8f5b_4ce7_66cf,
            0x4f1c_956e_d037_1fd7,
            0xfac8_4a07_cb3a_1e53,
            // ack-loss: cycles 700, 1400, 2100, 2800; stats after the drain
            0xd92e_1752_75ff_5278,
            0x60c0_3c3f_7154_6950,
            0xdc2e_b392_4919_59be,
            0xa5ef_378e_699a_ed62,
            0xf39e_33ce_8cc7_6d4a,
            // output-stall: cycles 700, 1400, 2100, 2800; stats after the drain
            0xafc1_8ef1_fa90_2c03,
            0x60ae_098c_6011_26d0,
            0x7b5a_cb20_5f65_7180,
            0xb87d_b260_b7fa_94ba,
            0x6325_64ae_eba6_856f,
        ],
        "{hex:?}"
    );
}

/// The legacy 7-stage switch, pinned byte for byte. Its five extra input
/// stages are delay slots that only `extra_switch_stages` fills, so no
/// other pin carries a flit in one. The campaign 2x2 runs it under flit
/// corruption and output stalls; each run pins the checkpoint at four
/// mid-flight cycles and the network statistics after the drain.
#[test]
fn legacy_switch_bytes_are_pinned() {
    let mut spec = campaign_spec();
    spec.extra_switch_stages = 5;
    let mut hashes = Vec::new();
    for kind in [FaultKind::FlitCorruption, FaultKind::OutputStall] {
        let mut noc = Noc::with_faults(&spec, SEED, &kind.plan(0.05)).expect("assembles");
        let mut inj = Injector::new(
            &spec,
            InjectorConfig::new(0.08, Pattern::Uniform),
            SEED ^ 0x1E6A,
        )
        .expect("injector");
        for _ in 0..4 {
            inj.run(&mut noc, 700);
            inj.drain_responses(&mut noc);
            assert!(!noc.is_idle(), "{kind}: nothing in flight to pin");
            hashes.push(fnv64(&noc.checkpoint()));
        }
        assert!(noc.run_until_idle(20_000), "{kind} run drains");
        inj.drain_responses(&mut noc);
        let stats = noc.stats();
        assert_eq!(stats.packets_delivered, stats.packets_sent, "{kind}");
        hashes.push(fnv64(format!("{stats:?}").as_bytes()));
    }
    let hex: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(
        hashes,
        [
            // flit-corruption: cycles 700, 1400, 2100, 2800; stats after the drain
            0xa773_7835_9268_39d3,
            0x401e_4b27_202a_5d86,
            0x7a53_b5ef_3ede_78d6,
            0x2157_043c_62a2_a20e,
            0xd4dd_abec_c057_e394,
            // output-stall: cycles 700, 1400, 2100, 2800; stats after the drain
            0xb31b_e821_f8b8_6bfa,
            0x17aa_18be_12fd_2012,
            0x9f3f_bd37_eaf8_8a32,
            0x08a7_68b8_7e0b_93f1,
            0x52e6_2c1c_b5a1_1fd6,
        ],
        "{hex:?}"
    );
}

/// Drives deterministic offered load over absolute cycles `[from, to)`
/// with the supplied kernel stepper. Unlike [`run_span`] this does not
/// go through the `Injector` (whose `step` hardwires the production
/// kernel), so the same schedule can be replayed under either kernel.
fn manual_span(noc: &mut Noc, rng: &mut SimRng, from: u64, to: u64, step: fn(&mut Noc)) {
    let spec = campaign_spec();
    let initiators: Vec<_> = spec
        .topology
        .nis_of_kind(xpipes_topology::NiKind::Initiator)
        .map(|a| a.ni)
        .collect();
    let windows: Vec<_> = spec
        .topology
        .nis_of_kind(xpipes_topology::NiKind::Target)
        .map(|a| {
            let r = spec.range_of(a.ni).expect("target mapped");
            (r.base, r.size)
        })
        .collect();
    for cycle in from..to {
        for &ni in &initiators {
            if !rng.chance(0.05) {
                continue;
            }
            let (base, size) = windows[rng.below(windows.len())];
            let addr = base + (rng.next_u64() % (size / 8).max(1)) * 8;
            let req = if rng.chance(0.5) {
                Request::read(addr, 4)
            } else {
                Request::write(addr, (0..4u64).collect())
            };
            if let Ok(r) = req {
                let _ = noc.submit(ni, r);
            }
        }
        step(noc);
        if cycle % 512 == 511 {
            for &ni in &initiators {
                while let Ok(Some(_)) = noc.take_response(ni) {}
            }
        }
    }
}

/// Cross-kernel restore: a snapshot written at cycle C by a network
/// stepped with the **reference** full-scan kernel restores into a fresh
/// network that continues under the **event-driven** kernel, and the
/// continuation is byte-identical to an uninterrupted event-kernel run.
/// The snapshot carries only architectural state — the event schedule is
/// rebuilt from it, so kernel choice before the checkpoint must be
/// unobservable after it.
#[test]
fn reference_kernel_checkpoint_restores_into_event_kernel() {
    const SPLIT: u64 = 1700;
    let observe = |mut noc: Noc| {
        noc.flush_telemetry();
        let stats = noc.stats();
        (
            stats.cycles,
            stats.packets_delivered,
            stats.flits_routed,
            stats.retransmissions,
            noc.timeline_json().expect("timeline enabled"),
            noc.attribution_report()
                .expect("attribution enabled")
                .render(),
            fnv64(&noc.checkpoint()),
        )
    };
    let fresh = || {
        let mut noc =
            Noc::with_faults(&campaign_spec(), SEED, &reference_plan()).expect("assembles");
        noc.enable_telemetry(TelemetryConfig::full());
        noc.enable_attribution();
        noc
    };

    // Uninterrupted run, production kernel throughout.
    let mut noc = fresh();
    let mut rng = SimRng::seed(SEED ^ 0xD1FF);
    manual_span(&mut noc, &mut rng, 0, TOTAL_CYCLES, Noc::step);
    let uninterrupted = observe(noc);

    // Reference kernel to the split, snapshot both the network and the
    // load generator, then restore and continue under the event kernel.
    let mut noc = fresh();
    let mut rng = SimRng::seed(SEED ^ 0xD1FF);
    manual_span(&mut noc, &mut rng, 0, SPLIT, Noc::step_reference);
    let noc_bytes = noc.checkpoint();
    let mut w = SnapshotWriter::new();
    w.rng(&rng);
    let rng_bytes = w.finish();
    drop(noc);

    let mut noc = fresh();
    noc.restore(&noc_bytes).expect("restores");
    let mut r = SnapshotReader::open(&rng_bytes).expect("opens");
    let mut rng = r.rng().expect("loads");
    r.finish().expect("no trailing bytes");
    manual_span(&mut noc, &mut rng, SPLIT, TOTAL_CYCLES, Noc::step);
    let resumed = observe(noc);

    assert_eq!(
        resumed, uninterrupted,
        "reference-kernel snapshot diverged under event-kernel continuation"
    );
}

/// A campaign killed part-way and resumed from its journal produces a
/// report byte-identical to an uninterrupted run — regardless of how
/// many workers either half used. Grid points go through the real
/// `Journal` on a temp directory, exactly as `faultcampaign --resume`
/// and `xpipesd` keep them.
#[test]
fn killed_and_resumed_campaign_report_is_byte_identical_across_jobs() {
    let spec = campaign_spec();
    let faults = [
        xpipes_sim::FaultKind::FlitCorruption,
        xpipes_sim::FaultKind::AckLoss,
    ];
    let mut cfg = CampaignConfig::new(11, 3000);
    cfg.error_rates = vec![0.01, 0.03];
    let grid = grid_size(&faults, &cfg);
    let fingerprint = config_fingerprint(&spec, &faults, &cfg);

    let uninterrupted = run_campaign(&spec, &faults, &cfg).expect("runs").to_json();

    for jobs in [1, 2, 4] {
        let dir = std::env::temp_dir().join(format!("xpipes_checkpoint_it_journal_j{jobs}"));
        let _ = std::fs::remove_dir_all(&dir);
        // "Crash" after three grid points: the first process journals
        // points 0..3 and dies; its state is only what is on disk.
        let journal = Journal::open(&dir, fingerprint, grid, 0).expect("opens");
        for index in 0..3 {
            let point = run_grid_point(&spec, &faults, &cfg, index, None).expect("runs");
            journal.record(&point).expect("journals");
        }
        drop(journal);

        // The resuming process reopens the directory and finishes the
        // rest at its own worker count, journaling as it goes.
        let journal = Journal::open(&dir, fingerprint, grid, 0).expect("reopens");
        let held = journal.load_points().expect("loads");
        assert_eq!(held.len(), 3);
        let (resumed, pool) = run_campaign_streaming::<Box<dyn std::error::Error>>(
            &spec,
            &faults,
            &cfg,
            None,
            jobs,
            2,
            held,
            &mut |point| Ok(journal.record(point)?),
        )
        .expect("resumes");
        assert_eq!(pool.items, grid - 3, "journaled points are not re-run");
        assert_eq!(
            resumed.to_json(),
            uninterrupted,
            "journal-resumed report must be byte-identical at {jobs} workers"
        );
        assert_eq!(journal.load_points().expect("loads").len() as u64, grid);
    }
}
