//! Differential equivalence suite: event-driven kernel vs full-scan oracle.
//!
//! `Noc::step` is an event-driven kernel that only visits channels,
//! switches and NIs with scheduled work, whatever observers and fault
//! models are armed, and `Noc::run` jumps time across provably idle
//! gaps. This suite pins the contract that makes that safe: over a
//! seeded matrix of mesh sizes, injection rates, fault plans and
//! observer configurations, a network driven exclusively by the
//! full-scan oracle (`Noc::step_reference`, compiled only under the
//! `reference-kernel` feature) finishes in **byte-identical
//! architectural state** to one driven by the production kernel. Every
//! row checks that the two sides really ran different kernels.
//!
//! "Byte-identical" is enforced through the checkpoint container, which
//! serialises every latch, queue, memory, statistic and RNG stream
//! position — so RNG-draw parity and delivered-packet parity are
//! subsumed by one comparison — plus the explicit work fingerprint,
//! the VCD waveform hash when tracing is on, and every observer report
//! when telemetry/attribution/monitoring are on.

use xpipes::flow_control::FlowSabotage;
use xpipes::monitor::MonitorConfig;
use xpipes::noc::{Noc, TelemetryConfig};
use xpipes_ocp::{Request, SlaveMemory};
use xpipes_sim::{FaultPlan, KernelHealth, SimRng};
use xpipes_topology::builders::mesh;
use xpipes_topology::spec::{Arbitration, NocSpec};
use xpipes_topology::NiId;
use xpipes_traffic::faultcampaign::campaign_spec;

/// FNV-1a 64-bit, for VCD hashing.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const INJECT_CYCLES: u64 = 900;
const DRAIN_CYCLES: u64 = 2000;

/// A 2x2 mesh with one initiator and two targets: the smallest network
/// with a routing decision in it.
fn demo_2x2() -> NocSpec {
    let mut b = mesh(2, 2).expect("builds");
    b.attach_initiator("cpu", (0, 0)).expect("attaches");
    let m0 = b.attach_target("m0", (1, 0)).expect("attaches");
    let m1 = b.attach_target("m1", (1, 1)).expect("attaches");
    let mut spec = NocSpec::new("kdiff-2x2", b.into_topology());
    spec.map_address(m0, 0x0000, 0x1_0000).expect("maps");
    spec.map_address(m1, 0x1_0000, 0x1_0000).expect("maps");
    spec
}

/// An 8x8 mesh with four central initiators and four spread targets,
/// placed so every route fits the 7-hop source-route field (manhattan
/// distance at most 6 plus the ejection hop).
fn spread_8x8() -> NocSpec {
    let mut b = mesh(8, 8).expect("builds");
    for (i, at) in [(3, 3), (4, 3), (3, 4), (4, 4)].into_iter().enumerate() {
        b.attach_initiator(format!("cpu{i}"), at).expect("attaches");
    }
    let mut spec_targets = Vec::new();
    for (i, at) in [(1, 1), (6, 1), (1, 6), (6, 6)].into_iter().enumerate() {
        spec_targets.push(b.attach_target(format!("m{i}"), at).expect("attaches"));
    }
    let mut spec = NocSpec::new("kdiff-8x8", b.into_topology());
    for (i, t) in spec_targets.into_iter().enumerate() {
        spec.map_address(t, (i as u64) << 20, 1 << 20)
            .expect("maps");
    }
    spec
}

/// The 2x2 with everything the other specs leave at its default: 3-stage
/// links (interior pipe slots, so a channel can hold a flit with both
/// latches empty), the legacy 7-stage switch (`extra_switch_stages = 5`:
/// flits held in input delay lines, which the switch's held-flit counts
/// must cover) and fixed-priority arbitration.
fn pipelined_legacy_2x2() -> NocSpec {
    let mut spec = demo_2x2();
    spec.name = "kdiff-2x2-pipelined-legacy".into();
    for link in spec.topology.links_mut() {
        link.pipeline_stages = 3;
    }
    spec.extra_switch_stages = 5;
    spec.arbitration = Arbitration::Fixed;
    spec
}

/// The observer configurations in the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Observers {
    /// Bare network.
    None,
    /// Telemetry + attribution + flight recorder: epoch-sampled, or fed
    /// only by channels the kernel walks anyway.
    Light,
    /// VCD tracing + protocol monitor: the observers that watch every
    /// channel every cycle under the oracle, so the event kernel has to
    /// prove the channels it skips have nothing to show them.
    Heavy,
}

/// Deterministic open-loop driver, independent of the production
/// `Injector` (whose `step` hardwires the production kernel). Each cycle
/// every initiator starts a transaction with probability `rate`;
/// interrupts are raised on a fixed cadence to exercise the target-side
/// wakes.
#[derive(Clone)]
struct Driver {
    rng: SimRng,
    initiators: Vec<NiId>,
    targets: Vec<NiId>,
    windows: Vec<(u64, u64)>,
    rate: f64,
}

impl Driver {
    fn new(spec: &NocSpec, rate: f64, seed: u64) -> Self {
        let topo = &spec.topology;
        let initiators: Vec<NiId> = topo
            .nis_of_kind(xpipes_topology::NiKind::Initiator)
            .map(|a| a.ni)
            .collect();
        let targets: Vec<NiId> = topo
            .nis_of_kind(xpipes_topology::NiKind::Target)
            .map(|a| a.ni)
            .collect();
        let windows = targets
            .iter()
            .map(|t| {
                let r = spec.range_of(*t).expect("target mapped");
                (r.base, r.size)
            })
            .collect();
        Driver {
            rng: SimRng::seed(seed),
            initiators,
            targets,
            windows,
            rate,
        }
    }

    /// One cycle of offered load (submissions only — stepping is the
    /// harness's job, so either kernel can advance the clock).
    fn inject(&mut self, noc: &mut Noc, cycle: u64) {
        for idx in 0..self.initiators.len() {
            if !self.rng.chance(self.rate) {
                continue;
            }
            let dst = self.rng.below(self.windows.len());
            let (base, size) = self.windows[dst];
            let addr = base + (self.rng.next_u64() % (size / 8).max(1)) * 8;
            let req = if self.rng.chance(0.5) {
                Request::read(addr, 4)
            } else {
                Request::write(addr, (0..4u64).collect())
            };
            if let Ok(r) = req {
                let _ = noc.submit(self.initiators[idx], r);
            }
        }
        // A steady trickle of interrupts keeps the pending-target set and
        // the reverse NI→switch channels honest.
        if cycle % 97 == 13 {
            let t = self.targets[(cycle / 97) as usize % self.targets.len()];
            let i = self.initiators[(cycle / 97) as usize % self.initiators.len()];
            let _ = noc.raise_interrupt(t, i);
        }
    }

    /// Drains response and interrupt queues identically on both sides.
    fn drain(&self, noc: &mut Noc) -> u64 {
        let mut drained = 0;
        for &ni in &self.initiators {
            while let Ok(Some(_)) = noc.take_response(ni) {
                drained += 1;
            }
            while let Ok(true) = noc.take_interrupt(ni) {
                drained += 1;
            }
        }
        drained
    }
}

/// Everything compared between the two kernels.
#[derive(Debug, PartialEq)]
struct Artifacts {
    cycles: u64,
    packets_delivered: u64,
    flits_routed: u64,
    retransmissions: u64,
    responses_drained: u64,
    /// The checkpoint container: every latch, queue, memory, statistic
    /// and RNG position in one byte string.
    checkpoint_fnv64: u64,
    vcd_fnv64: Option<u64>,
    monitor_violations: Vec<String>,
    telemetry_summary: Option<String>,
    attribution_json: Option<String>,
}

/// The monitor's findings as text: cycle, invariant, channel and detail.
fn rendered_violations(noc: &Noc) -> Vec<String> {
    noc.monitor_violations()
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// Assembles one matrix point's network. A sabotaged network gets a
/// liveness bound short enough to trip inside the run.
fn build(
    spec: &NocSpec,
    plan: &FaultPlan,
    obs: Observers,
    sabotage: Option<FlowSabotage>,
    seed: u64,
) -> Noc {
    let mut noc = Noc::with_faults(spec, seed, plan).expect("assembles");
    match obs {
        Observers::None => {}
        Observers::Light => {
            noc.enable_telemetry(TelemetryConfig::full());
            noc.enable_attribution();
        }
        Observers::Heavy => {
            noc.enable_trace();
            noc.enable_monitor(MonitorConfig {
                liveness_bound: if sabotage.is_some() { 300 } else { 100_000 },
                max_violations: 64,
            });
        }
    }
    if let Some(mode) = sabotage {
        noc.sabotage_all_senders(mode);
    }
    noc
}

/// The access latency `Noc` assembles every target memory with.
const DEFAULT_LATENCY: u64 = 1;

/// Makes every target answer `latency` cycles after a request arrives.
fn set_target_latency(noc: &mut Noc, spec: &NocSpec, latency: u64) {
    for t in spec.topology.nis_of_kind(xpipes_topology::NiKind::Target) {
        *noc.memory_mut(t.ni).expect("a target") = SlaveMemory::new(latency);
    }
}

/// Runs one matrix point to completion with the given stepper and
/// collects the comparison artifacts plus the kernel's own step counts.
#[allow(clippy::too_many_arguments)]
fn drive(
    spec: &NocSpec,
    rate: f64,
    latency: u64,
    plan: &FaultPlan,
    obs: Observers,
    sabotage: Option<FlowSabotage>,
    seed: u64,
    step: fn(&mut Noc),
) -> (Artifacts, KernelHealth) {
    let mut noc = build(spec, plan, obs, sabotage, seed);
    set_target_latency(&mut noc, spec, latency);
    let mut driver = Driver::new(spec, rate, seed ^ 0x5EED);
    let mut drained = 0;
    for cycle in 0..INJECT_CYCLES {
        driver.inject(&mut noc, cycle);
        step(&mut noc);
        if cycle % 256 == 255 {
            drained += driver.drain(&mut noc);
        }
    }
    for _ in 0..DRAIN_CYCLES {
        if noc.is_idle() {
            break;
        }
        step(&mut noc);
    }
    drained += driver.drain(&mut noc);
    noc.finish_monitor();
    noc.flush_telemetry();
    let stats = noc.stats();
    let artifacts = Artifacts {
        cycles: stats.cycles,
        packets_delivered: stats.packets_delivered,
        flits_routed: stats.flits_routed,
        retransmissions: stats.retransmissions,
        responses_drained: drained,
        checkpoint_fnv64: fnv64(&noc.checkpoint()),
        vcd_fnv64: noc.vcd().map(|v| fnv64(v.as_bytes())),
        monitor_violations: rendered_violations(&noc),
        telemetry_summary: (obs == Observers::Light)
            .then(|| format!("{:?}", noc.telemetry_summary())),
        attribution_json: noc.attribution_report().map(|r| r.render()),
    };
    (artifacts, noc.kernel_health().clone())
}

/// One matrix point: oracle vs production kernel. Returns the (shared)
/// artifacts so a caller can check the point was not vacuous.
fn assert_equivalent(
    spec: &NocSpec,
    rate: f64,
    latency: u64,
    plan: &FaultPlan,
    obs: Observers,
    sabotage: Option<FlowSabotage>,
    seed: u64,
) -> Artifacts {
    let run = |step| drive(spec, rate, latency, plan, obs, sabotage, seed, step);
    let (reference, oracle_health) = run(Noc::step_reference);
    let (event, event_health) = run(Noc::step);
    let point = format!(
        "{} rate {rate} latency {latency} obs {obs:?} sabotage {sabotage:?} plan {plan:?}",
        spec.name
    );
    assert_eq!(reference, event, "kernels diverged: {point}");
    // A real differential: no oracle step on the production side, no
    // event step on the oracle side.
    assert_eq!(event_health.fallback_steps(), 0, "{point}");
    assert_eq!(oracle_health.event_steps(), 0, "{point}");
    assert_eq!(event_health.steps(), oracle_health.steps(), "{point}");
    event
}

fn matrix_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        (
            "lossy",
            FaultPlan {
                flit_corruption_rate: 0.02,
                ack_loss_rate: 0.01,
                ..FaultPlan::none()
            },
        ),
        (
            "stall",
            FaultPlan {
                stall_rate: 0.002,
                stall_len: FaultPlan::DEFAULT_STALL_LEN,
                ..FaultPlan::none()
            },
        ),
    ]
}

/// The full seeded matrix: four specs, two injection rates, three fault
/// plans, three observer configurations.
#[test]
fn event_kernel_matches_reference_kernel_across_the_matrix() {
    let specs = [
        demo_2x2(),
        campaign_spec(),
        spread_8x8(),
        pipelined_legacy_2x2(),
    ];
    let mut points = 0;
    for (si, spec) in specs.iter().enumerate() {
        for (ri, &rate) in [0.02, 0.10].iter().enumerate() {
            for (pi, (_, plan)) in matrix_plans().iter().enumerate() {
                for (oi, &obs) in [Observers::None, Observers::Light, Observers::Heavy]
                    .iter()
                    .enumerate()
                {
                    let seed = 0x9E37
                        ^ ((si as u64) << 24 | (ri as u64) << 16 | (pi as u64) << 8 | oi as u64);
                    assert_equivalent(spec, rate, DEFAULT_LATENCY, plan, obs, None, seed);
                    points += 1;
                }
            }
        }
    }
    assert_eq!(points, 72);
}

/// The matrix above runs every target at the latency `Noc` assembles it
/// with. These rows move the wake: at latency 0 a response is due in the
/// cycle its request arrives, so the target must tick in the step that
/// handed it the request; at latency 40 responses wait in the queue
/// while the fabric around them drains, several targets come due in
/// the same cycle, and the interrupt trickle queues behind a response
/// that is not due yet.
#[test]
fn target_latency_rows_match_reference_kernel() {
    let specs = [demo_2x2(), spread_8x8()];
    let plans = matrix_plans();
    let mut points = 0;
    for (li, latency) in [0, 40].into_iter().enumerate() {
        for (si, spec) in specs.iter().enumerate() {
            for (pi, (_, plan)) in plans.iter().take(2).enumerate() {
                for (oi, &obs) in [Observers::None, Observers::Light, Observers::Heavy]
                    .iter()
                    .enumerate()
                {
                    let seed = 0x1A7E
                        ^ ((li as u64) << 24 | (si as u64) << 16 | (pi as u64) << 8 | oi as u64);
                    let a = assert_equivalent(spec, 0.10, latency, plan, obs, None, seed);
                    assert!(a.responses_drained > 0, "{} drained nothing", spec.name);
                    points += 1;
                }
            }
        }
    }
    assert_eq!(points, 24);
}

/// A long-latency wait is an idle gap: four reads reach the four targets
/// of the 8x8 in the same cycle (every initiator sits four hops from its
/// target), the fabric drains, and nothing moves until all four
/// responses come due 40 cycles later. `run` jumps that wait — and the
/// drained tail after the responses land — and still finishes in the
/// state single steps walk to.
#[test]
fn long_latency_wait_is_jumped_not_walked() {
    let spec = spread_8x8();
    let finish = |jump: bool| {
        let mut noc = build(&spec, &FaultPlan::none(), Observers::Light, None, 23);
        set_target_latency(&mut noc, &spec, 40);
        let driver = Driver::new(&spec, 0.0, 0);
        for (&cpu, &(base, _)) in driver.initiators.iter().zip(&driver.windows) {
            noc.submit(cpu, Request::read(base, 4).expect("valid"))
                .expect("submits");
        }
        if jump {
            noc.run(300);
        } else {
            for _ in 0..300 {
                noc.step();
            }
        }
        let drained = driver.drain(&mut noc);
        noc.flush_telemetry();
        let artifacts = (
            noc.now(),
            drained,
            fnv64(&noc.checkpoint()),
            noc.telemetry_registry().map(|r| r.to_json().render()),
            noc.attribution_report().map(|r| r.render()),
        );
        (artifacts, noc.kernel_health().clone())
    };
    let (jumped, jumped_health) = finish(true);
    let (stepped, stepped_health) = finish(false);
    assert_eq!(jumped, stepped, "jumped wait diverged from stepped");
    assert_eq!(jumped.1, 4, "every read must be answered");
    assert_jumped(&jumped_health, &stepped_health);
    assert!(
        jumped_health.time_jumps() >= 2,
        "the 40-cycle wait and the drained tail are separate gaps"
    );
}

/// A mid-run checkpoint of the pipelined, legacy-switch network — flits
/// in link pipes, delay lines, queues and windows — restored into a
/// fresh network continues byte-identically to the uninterrupted run.
/// The switch's held-flit counts are not in the container; `load_state`
/// has to recount them, or the restored switches look idle and stall.
#[test]
fn pipelined_rows_resume_from_a_mid_run_checkpoint() {
    const CUT: u64 = 450;
    let spec = pipelined_legacy_2x2();
    for (pi, (name, plan)) in matrix_plans().iter().enumerate() {
        let seed = 0xC4EC ^ pi as u64;
        let mut whole = build(&spec, plan, Observers::Light, None, seed);
        let mut driver = Driver::new(&spec, 0.10, seed ^ 0x5EED);
        for cycle in 0..CUT {
            driver.inject(&mut whole, cycle);
            whole.step();
        }
        let routed_at_cut = whole.stats().flits_routed;
        assert!(!whole.is_idle(), "{name}: nothing in flight at the cut");

        let mut resumed = build(&spec, plan, Observers::Light, None, seed);
        resumed.restore(&whole.checkpoint()).expect("restores");
        let mut twin = driver.clone();
        for cycle in CUT..INJECT_CYCLES {
            driver.inject(&mut whole, cycle);
            whole.step();
            twin.inject(&mut resumed, cycle);
            resumed.step();
        }
        assert!(whole.run_until_idle(DRAIN_CYCLES), "{name}: must drain");
        assert!(resumed.run_until_idle(DRAIN_CYCLES), "{name}: must drain");
        assert!(resumed.stats().flits_routed > routed_at_cut);
        assert_eq!(
            fnv64(&whole.checkpoint()),
            fnv64(&resumed.checkpoint()),
            "{name}: restored run diverged"
        );
        assert_eq!(
            whole.attribution_report().map(|r| r.render()),
            resumed.attribution_report().map(|r| r.render()),
            "{name}"
        );
    }
}

/// A sabotaged sender under the full observer set: the monitor must
/// report the same violations — cycle, channel and text — under both
/// kernels. This is where the event kernel's skipping is most exposed:
/// a dropped flit empties the sender's window, the channel falls off
/// the schedule, and only the monitor's own watch list keeps its
/// liveness clock running there.
#[test]
fn sabotaged_senders_trip_the_monitor_identically() {
    let spec = demo_2x2();
    // Each defect with the invariant it must (at least) trip.
    let modes = [
        (FlowSabotage::SkipRetransmission, "liveness"),
        (FlowSabotage::ReuseSequence, "seq-aliasing"),
        (FlowSabotage::DropOnNack, "liveness"),
    ];
    for (mi, &(mode, invariant)) in modes.iter().enumerate() {
        let mut tripped = Vec::new();
        for (ri, &rate) in [0.02, 0.10].iter().enumerate() {
            for (pi, (_, plan)) in matrix_plans().iter().enumerate() {
                let seed = 0x5AB0 ^ ((mi as u64) << 16 | (ri as u64) << 8 | pi as u64);
                let obs = Observers::Heavy;
                let a =
                    assert_equivalent(&spec, rate, DEFAULT_LATENCY, plan, obs, Some(mode), seed);
                tripped.extend(a.monitor_violations);
            }
        }
        assert!(
            tripped.iter().any(|v| v.contains(invariant)),
            "{mode:?} never tripped {invariant}: {tripped:?}"
        );
    }
}

/// The matrix does real work: the no-fault high-rate point delivers
/// packets on every mesh (a silent all-idle matrix would vacuously
/// pass).
#[test]
fn matrix_points_deliver_real_work() {
    for spec in [demo_2x2(), campaign_spec(), spread_8x8()] {
        let (a, _) = drive(
            &spec,
            0.10,
            DEFAULT_LATENCY,
            &FaultPlan::none(),
            Observers::None,
            None,
            1,
            Noc::step,
        );
        assert!(
            a.packets_delivered > 0,
            "{} delivered no packets",
            spec.name
        );
        assert!(a.responses_drained > 0, "{} drained nothing", spec.name);
    }
}

/// Injects for 600 cycles, then crosses a 3000-cycle quiet stretch, one
/// late interrupt and 200 more cycles — with `run`, which leaps to the
/// next target wake, or by single steps, which walk there.
fn cross_quiet_stretch(arm: fn(&mut Noc), seed: u64, jump: bool) -> Noc {
    let spec = campaign_spec();
    let mut noc = build(&spec, &FaultPlan::none(), Observers::None, None, seed);
    arm(&mut noc);
    let mut driver = Driver::new(&spec, 0.05, seed ^ 0x5EED);
    for cycle in 0..600 {
        driver.inject(&mut noc, cycle);
        noc.step();
    }
    let advance = |noc: &mut Noc, cycles: u64| {
        if jump {
            noc.run(cycles);
        } else {
            for _ in 0..cycles {
                noc.step();
            }
        }
    };
    advance(&mut noc, 3000);
    noc.raise_interrupt(driver.targets[0], driver.initiators[0])
        .expect("raises");
    advance(&mut noc, 200);
    driver.drain(&mut noc);
    noc
}

/// The jumped run really jumped, on the event kernel, and so took fewer
/// steps than the stepped one.
fn assert_jumped(jumped: &KernelHealth, stepped: &KernelHealth) {
    assert!(jumped.time_jumps() > 0, "an observer blocked the jump");
    assert!(jumped.cycles_skipped() > 0);
    assert_eq!(jumped.fallback_steps(), 0);
    assert_eq!(stepped.time_jumps(), 0);
    assert!(jumped.steps() < stepped.steps());
}

/// Time jumping is observationally transparent: `run`, which skips
/// provably idle gaps, finishes in the same state as
/// single-stepping the same span — including across a drained-idle
/// stretch with a scheduled interrupt at the far end.
#[test]
fn time_jumping_matches_single_stepping() {
    let finish = |jump: bool| {
        let noc = cross_quiet_stretch(|_| {}, 99, jump);
        (noc.now(), fnv64(&noc.checkpoint()))
    };
    assert_eq!(finish(true), finish(false));
}

/// Jump-aware telemetry: a telemetry-armed `run` still time-jumps across
/// provably idle gaps, synthesizing the epoch samples the stepped run
/// would have taken — and every telemetry artifact (registry, timeline,
/// summary) plus the checkpoint renders byte-identically to
/// single-stepping.
#[test]
fn telemetry_armed_jumps_match_stepped_sampling() {
    let finish = |jump: bool| {
        let mut noc = cross_quiet_stretch(|n| n.enable_telemetry(TelemetryConfig::full()), 7, jump);
        noc.flush_telemetry();
        let artifacts = (
            noc.now(),
            fnv64(&noc.checkpoint()),
            noc.telemetry_registry().map(|r| r.to_json().render()),
            noc.timeline_json(),
            format!("{:?}", noc.telemetry_summary()),
        );
        (artifacts, noc.kernel_health().clone())
    };
    let (jumped, jumped_health) = finish(true);
    let (stepped, stepped_health) = finish(false);
    assert_eq!(jumped, stepped, "jumped telemetry diverged from stepped");
    assert_jumped(&jumped_health, &stepped_health);
    assert!(jumped_health.synthetic_samples() > 0);
}

/// The protocol monitor and the VCD trace jump too: once every flit is
/// delivered no liveness clock runs and no signal changes, so a monitored,
/// traced `run` skips the quiet stretch and still ends with the same
/// checkpoint (monitor state included), waveform and verdict.
#[test]
fn monitor_and_trace_armed_jumps_match_single_stepping() {
    let finish = |jump: bool| {
        let arm = |n: &mut Noc| {
            n.enable_trace();
            n.enable_monitor(MonitorConfig::default());
        };
        let mut noc = cross_quiet_stretch(arm, 31, jump);
        noc.finish_monitor();
        let artifacts = (
            noc.now(),
            fnv64(&noc.checkpoint()),
            noc.vcd().map(|v| fnv64(v.as_bytes())),
            rendered_violations(&noc),
        );
        (artifacts, noc.kernel_health().clone())
    };
    let (jumped, jumped_health) = finish(true);
    let (stepped, stepped_health) = finish(false);
    assert_eq!(
        jumped, stepped,
        "jumped monitor/trace diverged from stepped"
    );
    assert!(jumped.3.is_empty(), "clean run tripped: {:?}", jumped.3);
    assert_jumped(&jumped_health, &stepped_health);
}

/// An empty schedule is not an idle gap while the monitor waits for a
/// delivery. The last flit of an interrupt packet is corrupted on a
/// link, the sabotaged sender drops it on the nACK, and nothing is left
/// to schedule anywhere — yet `run` must not leap over the cycle at
/// which the liveness bound expires.
#[test]
fn lost_flit_liveness_clock_survives_an_empty_schedule() {
    let spec = demo_2x2();
    let plan = FaultPlan {
        flit_corruption_rate: 0.5,
        ..FaultPlan::none()
    };
    let finish = |jump: bool| {
        let mut noc = build(
            &spec,
            &plan,
            Observers::Heavy,
            Some(FlowSabotage::DropOnNack),
            13,
        );
        let driver = Driver::new(&spec, 0.0, 0);
        noc.raise_interrupt(driver.targets[0], driver.initiators[0])
            .expect("raises");
        if jump {
            noc.run(1000);
        } else {
            for _ in 0..1000 {
                noc.step();
            }
        }
        let scheduled = noc.active_channels().map(|(active, _)| active);
        noc.finish_monitor();
        (
            scheduled,
            fnv64(&noc.checkpoint()),
            noc.vcd().map(|v| fnv64(v.as_bytes())),
            rendered_violations(&noc),
        )
    };
    let jumped = finish(true);
    assert_eq!(jumped, finish(false));
    assert_eq!(jumped.0, Some(0), "the lost flit left work scheduled");
    assert!(
        jumped.3.iter().any(|v| v.contains("liveness")),
        "lost flit never tripped liveness: {:?}",
        jumped.3
    );
}

/// `run_until_idle` with time jumps agrees with a manual is-idle loop.
#[test]
fn run_until_idle_matches_manual_drain() {
    let spec = spread_8x8();
    let drain = |auto: bool| {
        let mut noc = build(&spec, &FaultPlan::none(), Observers::None, None, 17);
        let mut driver = Driver::new(&spec, 0.10, 17 ^ 0x5EED);
        for cycle in 0..400 {
            driver.inject(&mut noc, cycle);
            noc.step();
        }
        if auto {
            assert!(noc.run_until_idle(20_000), "must drain");
        } else {
            let mut left = 20_000u64;
            while !noc.is_idle() && left > 0 {
                noc.step();
                left -= 1;
            }
            assert!(noc.is_idle(), "must drain");
        }
        driver.drain(&mut noc);
        (noc.now(), fnv64(&noc.checkpoint()))
    };
    assert_eq!(drain(true), drain(false));
}
