//! Whole-network assembly and cycle-accurate simulation.
//!
//! [`Noc::new`] performs what the xpipesCompiler's *simulation view* does:
//! from a validated [`NocSpec`] it instantiates one switch per topology
//! node (sized to the ports actually used), one NI per attachment
//! (programming its routing LUT from the computed routing tables), and one
//! pipelined link per directed channel, then wires them together.
//!
//! Each [`step`](Noc::step) advances one clock cycle in four phases that
//! together model the register boundaries of the RTL:
//!
//! 1. all links shift (flits/ACKs advance one pipeline stage),
//! 2. all producers transmit (output registers drive the links),
//! 3. all switches run allocation + crossbar traversal,
//! 4. all consumers receive (input registers capture arrivals and return
//!    ACK/nACK replies).

use xpipes_ocp::{Request, Response, SlaveMemory};
use xpipes_sim::attribution::{
    AttributionEngine, AttributionSummary, ChannelConsumer as AttrConsumer,
    ChannelInfo as AttrChannel,
};
use xpipes_sim::json::Json;
use xpipes_sim::telemetry::{
    perfetto_trace_with, CongestionTimeline, FlightRecorder, MetricId, MetricsRegistry,
    TelemetrySummary, TraceEvent, TraceEventKind,
};
use xpipes_sim::trace::{SignalId, VcdWriter};
use xpipes_sim::{
    ActiveSet, Cycle, FaultPlan, KernelHealth, KernelPhase, KernelProfile, RunningStats, SimRng,
    Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use xpipes_topology::spec::NocSpec;
use xpipes_topology::{NiId, NiKind, SwitchId};

use crate::channel::{Channel, Endpoint};
use crate::config::{NiConfig, SwitchConfig};
use crate::error::XpipesError;
use crate::flit::Flit;
use crate::flow_control::{default_ack_timeout, FlowSabotage, LinkFlit, LinkTx};
use crate::header::Header;
use crate::link::Link;
use crate::monitor::{InvariantViolation, MonitorConfig, ProtocolMonitor};
use crate::ni::{InitiatorNi, NiStats, TargetNi};
use crate::snap;
use crate::switch::Switch;

/// Aggregate network statistics.
#[derive(Debug, Clone)]
pub struct NocStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Packets injected by all NIs.
    pub packets_sent: u64,
    /// Packets fully reassembled at their destination NI.
    pub packets_delivered: u64,
    /// Flits moved through switch crossbars.
    pub flits_routed: u64,
    /// Flits retransmitted by the ACK/nACK protocol (all senders: switch
    /// output ports and NI network ports).
    pub retransmissions: u64,
    /// Flits corrupted by link error injection.
    pub flits_corrupted: u64,
    /// Reverse-channel ACK/nACK messages dropped by fault injection.
    pub acks_dropped: u64,
    /// Reverse-channel ACK/nACK messages corrupted (and discarded).
    pub acks_corrupted: u64,
    /// ACK timeouts fired by senders (full-window rewinds).
    pub ack_timeouts: u64,
    /// Cycles switch outputs spent in injected transient stalls.
    pub stall_cycles: u64,
    /// Transaction round-trip latency distribution (initiator-observed).
    pub transaction_latency: RunningStats,
    /// Request one-way delivery latency distribution (target-observed).
    pub request_latency: RunningStats,
    /// Transaction latency histogram (cycles), for percentiles.
    pub latency_histogram: xpipes_sim::Histogram,
}

impl Default for NocStats {
    fn default() -> Self {
        let (lo, hi, buckets) = crate::ni::NiStats::HIST_RANGE;
        NocStats {
            cycles: 0,
            packets_sent: 0,
            packets_delivered: 0,
            flits_routed: 0,
            retransmissions: 0,
            flits_corrupted: 0,
            acks_dropped: 0,
            acks_corrupted: 0,
            ack_timeouts: 0,
            stall_cycles: 0,
            transaction_latency: RunningStats::new(),
            request_latency: RunningStats::new(),
            latency_histogram: xpipes_sim::Histogram::new(lo, hi, buckets),
        }
    }
}

/// Waveform capture state: one valid-bit and one packet-id byte per
/// channel.
struct TraceState {
    vcd: VcdWriter,
    valid: Vec<SignalId>,
    packet: Vec<SignalId>,
    /// Every channel has been dumped once since the trace was armed or
    /// restored. From then on an unscheduled channel still reads the
    /// `0` it last dumped, so a step only visits scheduled channels.
    primed: bool,
}

/// Telemetry configuration for [`Noc::enable_telemetry`].
///
/// Metrics are epoch-aggregated (the engine scans component counters
/// once every 64 cycles) and the flight recorder only sees events from
/// channels the engine actually touched — a skipped channel is provably
/// inert and produces none. No RNG stream is read, so simulated
/// behaviour is bit-identical with telemetry on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record a time-windowed congestion timeline (per-link utilization
    /// and per-switch queue depth).
    pub timeline: bool,
    /// Flight-recorder capacity in events; 0 disables the recorder.
    pub flight_recorder_depth: usize,
}

impl TelemetryConfig {
    /// Everything on: timeline plus a generously sized flight recorder.
    pub fn full() -> Self {
        TelemetryConfig {
            timeline: true,
            flight_recorder_depth: 4096,
        }
    }
}

/// Metric handles of one switch.
struct SwitchMetrics {
    flits: MetricId,
    grants: MetricId,
    denials: MetricId,
    retx: MetricId,
    timeouts: MetricId,
    queue: MetricId,
}

/// Metric handles of one channel (link + its producer/consumer view).
struct ChannelMetrics {
    traversals: MetricId,
    corrupted: MetricId,
    retx: MetricId,
    acks: MetricId,
    nacks: MetricId,
}

/// Metric handles of one NI.
struct NiMetrics {
    packets: MetricId,
    flits: MetricId,
    stalls: MetricId,
}

/// Everything telemetry: the registry plus the component→metric handle
/// maps, the optional timeline, and the optional flight recorder.
struct TelemetryState {
    registry: MetricsRegistry,
    sw_metrics: Vec<SwitchMetrics>,
    ch_metrics: Vec<ChannelMetrics>,
    ini_metrics: Vec<NiMetrics>,
    tgt_metrics: Vec<NiMetrics>,
    timeline: Option<CongestionTimeline>,
    /// Per-channel traversal count at the last sample, for window deltas.
    last_traversals: Vec<u64>,
    /// First cycle of the currently accumulating timeline window.
    window_start: u64,
    /// The next epoch boundary: the first cycle `c` not yet sampled with
    /// `c + 1` a multiple of `SAMPLE_INTERVAL`. Derived from the clock
    /// (set on arming and restore, advanced by every sample), so the step
    /// compares instead of dividing; never serialized.
    next_sample: u64,
    flight: Option<FlightRecorder>,
}

/// Cycles between telemetry registry samples (and timeline windows).
const SAMPLE_INTERVAL: u64 = 64;

/// The first cycle `c >= from` with `c + 1` a multiple of
/// `SAMPLE_INTERVAL`.
fn epoch_boundary(from: u64) -> u64 {
    (from + 1).next_multiple_of(SAMPLE_INTERVAL) - 1
}

/// The event-driven step scheduler: which components have (or may
/// have) work next cycle, plus the cached idle-blocker census.
///
/// The membership rules are conservative supersets of the legacy
/// activity-refresh predicate — processing an extra provably-inert
/// component is a no-op (it moves no flit and draws no RNG), but a
/// component with work is never missed. The blocker bits cache each
/// channel's and NI's contribution to [`Noc::is_idle`], re-evaluated
/// only for components a step actually touched, so `is_idle` stays
/// O(1); a switch holds a flit exactly when it is in `sw_sched`.
struct Scheduler {
    /// The sets/blockers are coherent with current state.
    /// Invalidated by out-of-band mutation (oracle steps, restore,
    /// stall/sabotage hooks); rebuilt by a full scan on the next step.
    valid: bool,
    /// Channels to process in the next step's phases 1/2/4.
    chan_sched: ActiveSet,
    /// Channels on which the protocol monitor still waits for a
    /// delivery. A lost flit leaves its channel unscheduled, but the
    /// monitor's liveness clock must keep running there, so these are
    /// checked every cycle whether scheduled or not. Always empty
    /// without a monitor.
    mon_watch: ActiveSet,
    /// Switches whose input side holds a flit: crossbar next step. Kept
    /// where flits enter and leave the input side (phase 4 deliveries and
    /// phase 3 crossbars), so it is exact at every step boundary.
    sw_sched: ActiveSet,
    /// Initiator NIs with a non-empty submit backlog (their tick can
    /// make progress; all other initiator ticks are provable no-ops).
    ini_pending: ActiveSet,
    /// Target NIs with a non-empty latency queue. Such a target's tick
    /// makes progress once the response at the head of its queue is due
    /// (the queue drains head-of-line, so that cycle is its exact next
    /// wake); all other target ticks are provable no-ops.
    tgt_pending: ActiveSet,
    /// Count of channel and NI idle blockers; zero with `sw_sched` empty
    /// ⇔ the network is idle.
    idle_blockers: usize,
    /// Cached per-component blocker bits (the component's current
    /// contribution to `idle_blockers`). A channel's bit is taken at its
    /// visit and wherever its sender is handed a flit; NI bits are
    /// re-derived after the ticks.
    blocking_chan: Vec<bool>,
    blocking_ini: Vec<bool>,
    blocking_tgt: Vec<bool>,
    /// Scratch: swapped with `chan_sched`/`sw_sched` at step start so
    /// next-cycle membership accumulates while this cycle's is walked.
    chan_scratch: ActiveSet,
    sw_scratch: ActiveSet,
    /// NIs touched this step, for blocker re-evaluation.
    ini_touched: ActiveSet,
    tgt_touched: ActiveSet,
}

impl Scheduler {
    fn new(channels: usize, switches: usize, initiators: usize, targets: usize) -> Self {
        Scheduler {
            valid: false,
            chan_sched: ActiveSet::new(channels),
            mon_watch: ActiveSet::new(channels),
            sw_sched: ActiveSet::new(switches),
            ini_pending: ActiveSet::new(initiators),
            tgt_pending: ActiveSet::new(targets),
            idle_blockers: 0,
            blocking_chan: vec![false; channels],
            blocking_ini: vec![false; initiators],
            blocking_tgt: vec![false; targets],
            chan_scratch: ActiveSet::new(channels),
            sw_scratch: ActiveSet::new(switches),
            ini_touched: ActiveSet::new(initiators),
            tgt_touched: ActiveSet::new(targets),
        }
    }
}

/// Closes one profiled segment: charges the time since `mark` to
/// `phase` and restarts the mark. A no-op (no `Instant` taken) when
/// profiling is disabled.
#[inline]
fn prof_mark(
    prof: &mut Option<Box<KernelProfile>>,
    mark: &mut Option<std::time::Instant>,
    phase: KernelPhase,
) {
    if let (Some(p), Some(t)) = (prof.as_deref_mut(), mark.as_mut()) {
        let now = std::time::Instant::now();
        p.note(phase, now.duration_since(*t));
        *t = now;
    }
}

/// Updates one cached blocker bit and the blocker count it feeds.
fn note_blocker(count: &mut usize, slot: &mut bool, blocking: bool) {
    if *slot != blocking {
        *slot = blocking;
        if blocking {
            *count += 1;
        } else {
            *count -= 1;
        }
    }
}

/// The flight-recorder event of `lf` seen on channel `i` at `cycle`.
fn flit_event(cycle: u64, i: usize, lf: &LinkFlit, kind: TraceEventKind) -> TraceEvent {
    TraceEvent {
        cycle,
        channel: i as u32,
        packet_id: lf.flit.meta.packet_id,
        injected_at: lf.flit.meta.injected_at.as_u64(),
        seq: lf.seq,
        kind,
    }
}

/// An assembled, runnable xpipes network.
///
/// See the crate-level documentation for a complete example.
pub struct Noc {
    switches: Vec<Switch>,
    initiators: Vec<InitiatorNi>,
    targets: Vec<TargetNi>,
    chan: Vec<Channel>,
    /// Endpoint of every NI, indexed by `NiId`: the topology hands ids
    /// out densely in attachment order, and assembly bounds them by the
    /// header's 6-bit `src_ni` field.
    ni_endpoint: Vec<Endpoint>,
    now: Cycle,
    name: String,
    trace: Option<TraceState>,
    /// Epoch-sampled metrics / timeline / flight recorder. Boxed so the
    /// sampling take-put dance moves one pointer.
    telemetry: Option<Box<TelemetryState>>,
    faults: FaultPlan,
    /// Dedicated RNG stream for network-level fault injection (output
    /// stalls), kept separate from the per-link streams so enabling one
    /// fault model never perturbs another.
    fault_rng: SimRng,
    /// Hoisted from the plan at assembly: fault-free runs never enter the
    /// per-cycle stall loop, so they never touch `fault_rng`.
    stall_faults: bool,
    monitor: Option<ProtocolMonitor>,
    /// Per-packet latency attribution ledger. Boxed like telemetry.
    /// Skipped channels transmit and accept nothing, so skipping them
    /// loses no attribution event.
    attribution: Option<Box<AttributionEngine>>,
    /// Event-driven step schedule (see [`Scheduler`]).
    sched: Scheduler,
    /// Deterministic per-run dispatch counters (see [`KernelHealth`]).
    /// Always on (plain counter bumps), never serialized into
    /// checkpoints, and never folded into byte-compared artifacts.
    health: KernelHealth,
    /// Opt-in wall-clock phase profiler. `None` means the kernel takes
    /// no timestamps at all; boxed so the take-put dance moves one
    /// pointer like the telemetry state.
    profile: Option<Box<KernelProfile>>,
}

impl Noc {
    /// Instantiates the network described by `spec` with a default RNG
    /// seed for link error injection.
    ///
    /// # Errors
    ///
    /// Propagates specification validation and routing failures.
    pub fn new(spec: &NocSpec) -> Result<Self, XpipesError> {
        Self::with_seed(spec, 0xC0FFEE)
    }

    /// Instantiates the network with an explicit error-injection seed.
    ///
    /// # Errors
    ///
    /// Propagates specification validation and routing failures.
    pub fn with_seed(spec: &NocSpec, seed: u64) -> Result<Self, XpipesError> {
        Self::assemble(spec, seed, FaultPlan::none())
    }

    /// Instantiates the network with a fault-injection plan: forward-flit
    /// corruption (single or burst) on every link, reverse-channel
    /// ACK/nACK loss and corruption, and transient stalls at switch
    /// outputs. Non-benign plans arm the senders' ACK timeout so the
    /// protocol stays live when the reverse channel itself is lossy.
    ///
    /// # Errors
    ///
    /// Propagates specification validation and routing failures.
    pub fn with_faults(spec: &NocSpec, seed: u64, faults: &FaultPlan) -> Result<Self, XpipesError> {
        Self::assemble(spec, seed, faults.clamped())
    }

    fn assemble(spec: &NocSpec, seed: u64, faults: FaultPlan) -> Result<Self, XpipesError> {
        let topo = &spec.topology;
        // The channel records are the network's largest block. Reserved
        // before validation and routing allocate their temporaries, a
        // rebuilt network reuses the slot the last one freed.
        let mut chan = Vec::with_capacity(topo.links().len() + 2 * topo.nis().len());
        let tables = spec.validate()?;
        // The header names a packet's source NI in 6 bits. A fabric with
        // a larger id would assemble and then refuse that NI's requests
        // (or drop its responses) at run time, so it is refused here.
        if let Some(att) = topo.nis().iter().find(|att| att.ni.0 >= Header::MAX_NIS) {
            return Err(XpipesError::FieldOverflow {
                field: "src_ni",
                value: att.ni.0 as u64,
                bits: Header::SRC_NI_BITS,
            });
        }
        let master_rng = SimRng::seed(seed);
        // Lossy reverse channels can silently starve a sender; arm the
        // ACK timeout whenever any fault model is active. Benign plans
        // keep it off so fault-free behaviour is bit-identical to before.
        let arm_timeout = !faults.is_benign();
        // The link-level view of the plan: the spec's legacy error rate
        // feeds single-flit corruption unless the plan sets its own.
        let mut link_plan = faults;
        if link_plan.flit_corruption_rate == 0.0 {
            link_plan.flit_corruption_rate = spec.link_error_rate;
            link_plan.corruption_burst_len = 1;
        }

        // Switches, sized to the ports their node actually uses. One
        // pass over the links/NIs computes every switch's radix and the
        // global pipeline maximum (the old per-switch rescan was
        // O(switches × links) — ruinous at 64x64).
        let mut max_ports = vec![0usize; topo.switch_count()];
        let mut link_pipeline = 1u32;
        for l in topo.links() {
            max_ports[l.from.0] = max_ports[l.from.0].max(l.from_port.0 as usize);
            max_ports[l.to.0] = max_ports[l.to.0].max(l.to_port.0 as usize);
            link_pipeline = link_pipeline.max(l.pipeline_stages);
        }
        for ni in topo.nis() {
            max_ports[ni.switch.0] = max_ports[ni.switch.0].max(ni.port.0 as usize);
        }
        let switch_cfgs: Vec<SwitchConfig> = topo
            .switches()
            .map(|s| {
                let max_port = max_ports[s.0];
                let mut cfg = SwitchConfig::new(max_port + 1, max_port + 1, spec.flit_width);
                cfg.output_queue_depth = spec.queue_depth_of(s) as usize;
                cfg.arbitration = spec.arbitration;
                cfg.link_pipeline = link_pipeline;
                if arm_timeout {
                    cfg.ack_timeout = Some(default_ack_timeout(cfg.retransmit_depth()));
                }
                cfg
            })
            .collect();

        let mut ni_cfg = NiConfig::new(spec.flit_width);
        let ni_window = (2 * ni_cfg.link_pipeline + 2) as usize;
        if arm_timeout {
            ni_cfg.ack_timeout = Some(default_ack_timeout(ni_window));
        }

        // Channels: one per directed topology link, two per NI
        // attachment, in dense-id order. The per-link RNG stream
        // numbering (streams from 1, in push order) is part of the
        // determinism contract. Each sender is sized by the port that
        // drives it, and each switch port learns its channel.
        let unwired = |ports| vec![usize::MAX; ports];
        let mut in_chan: Vec<_> = switch_cfgs.iter().map(|c| unwired(c.inputs)).collect();
        let mut out_chan: Vec<_> = switch_cfgs.iter().map(|c| unwired(c.outputs)).collect();
        let mut mkchannel = |chan: &mut Vec<Channel>, producer, consumer, stages: u32| {
            let id = chan.len();
            let tx = match producer {
                Endpoint::SwitchPort { switch, port } => {
                    out_chan[switch][port] = id;
                    let cfg: &SwitchConfig = &switch_cfgs[switch];
                    LinkTx::new(cfg.retransmit_depth(), cfg.ack_timeout)
                }
                _ => LinkTx::new(ni_window, ni_cfg.ack_timeout),
            };
            if let Endpoint::SwitchPort { switch, port } = consumer {
                in_chan[switch][port] = id;
            }
            let link = Link::new(stages, master_rng.child(id as u64 + 1), link_plan);
            chan.push(Channel::new(producer, consumer, tx, link));
            id
        };
        for l in topo.links() {
            mkchannel(
                &mut chan,
                Endpoint::SwitchPort {
                    switch: l.from.0,
                    port: l.from_port.0 as usize,
                },
                Endpoint::SwitchPort {
                    switch: l.to.0,
                    port: l.to_port.0 as usize,
                },
                l.pipeline_stages,
            );
        }
        // NIs with their LUTs, each wired to the (drives, sinks) channel
        // pair it pushes after the links'.
        let mut initiators = Vec::new();
        let mut targets = Vec::new();
        let mut ni_endpoint = Vec::with_capacity(topo.nis().len());
        for att in topo.nis() {
            debug_assert_eq!(att.ni.0, ni_endpoint.len(), "NI ids are dense");
            let ni_ep = match att.kind {
                NiKind::Initiator => Endpoint::Initiator(initiators.len()),
                NiKind::Target => Endpoint::Target(targets.len()),
            };
            ni_endpoint.push(ni_ep);
            let sw_ep = Endpoint::SwitchPort {
                switch: att.switch.0,
                port: att.port.0 as usize,
            };
            let chans = (
                mkchannel(&mut chan, ni_ep, sw_ep, 1),
                mkchannel(&mut chan, sw_ep, ni_ep, 1),
            );
            let mut routes = vec![None; topo.nis().len()];
            for (dst, r) in tables.lut_for(att.ni) {
                routes[dst.0] = Some(r.clone());
            }
            match att.kind {
                NiKind::Initiator => {
                    let map = spec.address_map.clone();
                    initiators.push(InitiatorNi::new(att.ni, ni_cfg, routes, map, chans));
                }
                NiKind::Target => {
                    let memory = SlaveMemory::new(1);
                    targets.push(TargetNi::new(att.ni, ni_cfg, routes, memory, chans));
                }
            }
        }
        let extra = spec.extra_switch_stages as usize;
        let switches: Vec<Switch> = (switch_cfgs.into_iter().zip(in_chan).zip(out_chan))
            .map(|((cfg, inp), out)| Switch::new(cfg, extra, inp, out))
            .collect();
        let sched = Scheduler::new(chan.len(), switches.len(), initiators.len(), targets.len());
        Ok(Noc {
            switches,
            initiators,
            targets,
            chan,
            ni_endpoint,
            now: Cycle::ZERO,
            name: spec.name.clone(),
            trace: None,
            telemetry: None,
            stall_faults: faults.stall_rate > 0.0,
            faults,
            // Stream 0 is never handed to a link (their streams start at
            // 1), so stall injection never disturbs link error draws.
            fault_rng: master_rng.child(0),
            monitor: None,
            attribution: None,
            sched,
            health: KernelHealth::new(),
            profile: None,
        })
    }

    /// Enables waveform capture: every channel's flit-valid line and the
    /// low byte of the travelling packet id are recorded from now on.
    /// Retrieve the dump with [`vcd`](Self::vcd).
    pub fn enable_trace(&mut self) {
        let mut vcd = VcdWriter::new(self.name.clone());
        let mut valid = Vec::with_capacity(self.chan.len());
        let mut packet = Vec::with_capacity(self.chan.len());
        for i in 0..self.chan.len() {
            valid.push(vcd.declare(format!("ch{i}_valid"), 1));
            packet.push(vcd.declare(format!("ch{i}_pkt"), 8));
        }
        self.trace = Some(TraceState {
            vcd,
            valid,
            packet,
            primed: false,
        });
    }

    /// The captured VCD document, if tracing is enabled.
    pub fn vcd(&self) -> Option<String> {
        self.trace.as_ref().map(|t| t.vcd.finish())
    }

    /// Design name from the specification.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Submits an OCP request at an initiator NI.
    ///
    /// # Errors
    ///
    /// * [`XpipesError::UnknownNi`] / [`XpipesError::WrongNiKind`] for bad
    ///   NI ids.
    /// * Address-decode and header errors from the NI.
    pub fn submit(&mut self, ni: NiId, req: Request) -> Result<(), XpipesError> {
        let idx = self.initiator_idx(ni)?;
        // Incremental schedule update: a submit touches exactly one NI
        // and its producer channel, so the schedule stays valid without
        // a full rebuild (important — injectors submit mid-run every few
        // cycles).
        let result = self.initiators[idx].submit(req, self.now, &mut self.chan);
        if result.is_ok() && self.sched.valid {
            self.sched.ini_touched.insert(idx);
            self.rederive_touched();
        }
        result
    }

    /// Collects a completed response at an initiator NI.
    ///
    /// # Errors
    ///
    /// NI-identity errors as for [`submit`](Self::submit).
    pub fn take_response(&mut self, ni: NiId) -> Result<Option<Response>, XpipesError> {
        let idx = self.initiator_idx(ni)?;
        Ok(self.initiators[idx].take_response())
    }

    /// Dense index of initiator NI `ni`.
    fn initiator_idx(&self, ni: NiId) -> Result<usize, XpipesError> {
        match self.ni_endpoint.get(ni.0) {
            Some(&Endpoint::Initiator(idx)) => Ok(idx),
            Some(_) => Err(XpipesError::WrongNiKind(ni)),
            None => Err(XpipesError::UnknownNi(ni)),
        }
    }

    /// Dense index of target NI `ni`.
    fn target_idx(&self, ni: NiId) -> Result<usize, XpipesError> {
        match self.ni_endpoint.get(ni.0) {
            Some(&Endpoint::Target(idx)) => Ok(idx),
            Some(_) => Err(XpipesError::WrongNiKind(ni)),
            None => Err(XpipesError::UnknownNi(ni)),
        }
    }

    /// The slave memory attached to a target NI.
    ///
    /// # Errors
    ///
    /// NI-identity errors as for [`submit`](Self::submit).
    pub fn memory(&self, ni: NiId) -> Result<&SlaveMemory, XpipesError> {
        let idx = self.target_idx(ni)?;
        Ok(self.targets[idx].memory())
    }

    /// Mutable access to a target NI's slave memory (preloading contents,
    /// changing latency).
    ///
    /// # Errors
    ///
    /// NI-identity errors as for [`submit`](Self::submit).
    pub fn memory_mut(&mut self, ni: NiId) -> Result<&mut SlaveMemory, XpipesError> {
        let idx = self.target_idx(ni)?;
        Ok(self.targets[idx].memory_mut())
    }

    /// Raises a sideband interrupt from a target NI toward an initiator
    /// NI (the paper's interrupt-forwarding support).
    ///
    /// # Errors
    ///
    /// NI-identity errors for either endpoint.
    pub fn raise_interrupt(&mut self, target: NiId, initiator: NiId) -> Result<(), XpipesError> {
        self.initiator_idx(initiator)?;
        let idx = self.target_idx(target)?;
        let result = self.targets[idx].raise_interrupt(initiator, self.now);
        if result.is_ok() && self.sched.valid {
            self.sched.tgt_touched.insert(idx);
            self.rederive_touched();
        }
        result
    }

    /// Pending sideband interrupts at an initiator NI.
    ///
    /// # Errors
    ///
    /// NI-identity errors as for [`submit`](Self::submit).
    pub fn pending_interrupts(&self, ni: NiId) -> Result<u64, XpipesError> {
        let idx = self.initiator_idx(ni)?;
        Ok(self.initiators[idx].pending_interrupts())
    }

    /// Consumes one pending interrupt at an initiator NI.
    ///
    /// # Errors
    ///
    /// NI-identity errors as for [`submit`](Self::submit).
    pub fn take_interrupt(&mut self, ni: NiId) -> Result<bool, XpipesError> {
        let idx = self.initiator_idx(ni)?;
        Ok(self.initiators[idx].take_interrupt())
    }

    /// Forward-flit traversal counts of the switch-to-switch links, keyed
    /// by (source switch, output port). Lets callers compare measured
    /// utilization against analytical link-load predictions.
    pub fn link_traversals(&self) -> Vec<(SwitchId, u8, u64)> {
        self.chan
            .iter()
            .filter_map(|ch| match (ch.producer, ch.consumer) {
                (Endpoint::SwitchPort { switch, port }, Endpoint::SwitchPort { .. }) => {
                    Some((SwitchId(switch), port as u8, ch.link.traversals()))
                }
                _ => None,
            })
            .collect()
    }

    /// Statistics of one initiator NI.
    pub fn initiator_stats(&self, ni: NiId) -> Option<&NiStats> {
        let idx = self.initiator_idx(ni).ok()?;
        Some(self.initiators[idx].stats())
    }

    fn endpoint_label(&self, ep: Endpoint) -> String {
        match ep {
            Endpoint::SwitchPort { switch, port } => format!("sw{switch}.p{port}"),
            Endpoint::Initiator(idx) => format!("ini{}", self.initiators[idx].id().0),
            Endpoint::Target(idx) => format!("tgt{}", self.targets[idx].id().0),
        }
    }

    /// Attaches a protocol monitor: from now on every channel is watched
    /// for in-order exactly-once delivery, sequence aliasing, liveness
    /// and flit conservation. It may attach mid-run, or before or after a
    /// restore: each channel's watch starts from its endpoints' state.
    pub fn enable_monitor(&mut self, config: MonitorConfig) {
        let mut monitor = ProtocolMonitor::new(config);
        let now = self.now.as_u64();
        for (i, ch) in self.chan.iter().enumerate() {
            let label = self.channel_label(i).expect("in range");
            monitor.add_channel(label, &ch.tx, &ch.rx, now);
            self.sched.mon_watch.set(i, monitor.awaits_delivery(i));
        }
        self.monitor = Some(monitor);
    }

    /// Violations recorded so far (empty when no monitor is attached).
    pub fn monitor_violations(&self) -> &[InvariantViolation] {
        self.monitor.as_ref().map(|m| m.violations()).unwrap_or(&[])
    }

    /// Runs the monitor's end-of-run conservation check (call after the
    /// network has drained).
    pub fn finish_monitor(&mut self) {
        let now = self.now.as_u64();
        if let Some(m) = &mut self.monitor {
            m.finish(now);
        }
    }

    /// Attaches the per-packet latency attribution ledger
    /// (`xpipes_sim::attribution`): every delivered packet's end-to-end
    /// latency is decomposed into named phases with an exact conservation
    /// invariant, aggregated into per-flow histograms with worst-packet
    /// exemplars. It may attach mid-run or before a restore: packets
    /// already past their source NI are not attributed.
    ///
    /// Attribution never changes simulated behaviour, RNG streams, or
    /// traces.
    pub fn enable_attribution(&mut self) {
        let label = |(id, &ep): (usize, &Endpoint)| (id, self.endpoint_label(ep));
        let ni_labels = self.ni_endpoint.iter().enumerate().map(label).collect();
        let channels = (self.chan.iter().enumerate())
            .map(|(i, ch)| AttrChannel {
                label: self.channel_label(i).expect("in range"),
                stages: ch.link.stages() as u64,
                consumer: match ch.consumer {
                    Endpoint::SwitchPort { switch, .. } => AttrConsumer::Switch {
                        extra: self.switches[switch].extra_stages() as u64,
                    },
                    Endpoint::Initiator(idx) => AttrConsumer::Ni {
                        id: self.initiators[idx].id().0,
                    },
                    Endpoint::Target(idx) => AttrConsumer::Ni {
                        id: self.targets[idx].id().0,
                    },
                },
                producer_ni: self.ni_endpoint.iter().position(|&ep| ep == ch.producer),
            })
            .collect();
        // The (switch, port) → produced-channel map the switches were
        // wired with.
        let grant_channel = (self.switches.iter())
            .map(|sw| sw.out_chan().to_vec())
            .collect();
        for sw in &mut self.switches {
            sw.set_record_grants(true);
        }
        self.attribution = Some(Box::new(AttributionEngine::new(
            channels,
            ni_labels,
            grant_channel,
        )));
    }

    /// The attribution engine, when enabled.
    pub fn attribution(&self) -> Option<&AttributionEngine> {
        self.attribution.as_deref()
    }

    /// The full attribution report (deterministic JSON), when enabled.
    pub fn attribution_report(&self) -> Option<Json> {
        self.attribution.as_deref().map(AttributionEngine::report)
    }

    /// The compact attribution digest for campaign reports, when enabled.
    pub fn attribution_summary(&self) -> Option<AttributionSummary> {
        self.attribution.as_deref().map(AttributionEngine::summary)
    }

    /// Forces output `port` of switch `switch` to stall for `cycles`
    /// cycles, modelling persistent backpressure on one link.
    /// Deterministic (no RNG involved) — the injected-regression hook for
    /// attribution diff tests.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range switch or port.
    pub fn stall_switch_output(&mut self, switch: usize, port: usize, cycles: u64) {
        self.sched.valid = false;
        self.switches[switch].stall_output(&mut self.chan, port, cycles);
    }

    /// Human-readable label of channel `i` (`producer->consumer`), or
    /// `None` for an out-of-range index.
    pub(crate) fn channel_label(&self, i: usize) -> Option<String> {
        self.chan.get(i).map(|ch| {
            format!(
                "{}->{}",
                self.endpoint_label(ch.producer),
                self.endpoint_label(ch.consumer)
            )
        })
    }

    /// Labels of every channel, in dense channel order.
    pub fn channel_labels(&self) -> Vec<String> {
        (0..self.chan.len())
            .map(|i| self.channel_label(i).expect("in range"))
            .collect()
    }

    /// Attaches the telemetry layer: a per-component metric registry
    /// sampled every 64 cycles, plus
    /// the optional congestion timeline and flight recorder.
    ///
    /// Telemetry never changes simulated behaviour (see
    /// [`TelemetryConfig`]).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        let mut registry = MetricsRegistry::new();
        let mut sw_metrics = Vec::with_capacity(self.switches.len());
        for s in 0..self.switches.len() {
            let c = registry.add_component(format!("sw{s}"));
            sw_metrics.push(SwitchMetrics {
                flits: registry.counter(c, "flits_forwarded"),
                grants: registry.counter(c, "arb_grants"),
                denials: registry.counter(c, "arb_denials"),
                retx: registry.counter(c, "retransmissions"),
                timeouts: registry.counter(c, "ack_timeouts"),
                queue: registry.gauge(c, "queue_depth"),
            });
        }
        let link_labels = self.channel_labels();
        let mut ch_metrics = Vec::with_capacity(self.chan.len());
        for label in &link_labels {
            let c = registry.add_component(format!("link:{label}"));
            ch_metrics.push(ChannelMetrics {
                traversals: registry.counter(c, "flit_traversals"),
                corrupted: registry.counter(c, "flits_corrupted"),
                retx: registry.counter(c, "retransmissions"),
                acks: registry.counter(c, "acks"),
                nacks: registry.counter(c, "nacks"),
            });
        }
        let ni_component = |registry: &mut MetricsRegistry, name: String| {
            let c = registry.add_component(name);
            NiMetrics {
                packets: registry.counter(c, "packets_sent"),
                flits: registry.counter(c, "flits_sent"),
                stalls: registry.counter(c, "packetization_stalls"),
            }
        };
        let ini_metrics = self
            .initiators
            .iter()
            .map(|ni| ni_component(&mut registry, format!("ini{}", ni.id().0)))
            .collect();
        let tgt_metrics = self
            .targets
            .iter()
            .map(|ni| ni_component(&mut registry, format!("tgt{}", ni.id().0)))
            .collect();
        let switch_labels: Vec<String> =
            (0..self.switches.len()).map(|s| format!("sw{s}")).collect();
        let timeline = config
            .timeline
            .then(|| CongestionTimeline::new(SAMPLE_INTERVAL, link_labels, switch_labels));
        let depth = config.flight_recorder_depth;
        self.telemetry = Some(Box::new(TelemetryState {
            flight: (depth > 0).then(|| FlightRecorder::new(depth)),
            registry,
            sw_metrics,
            ch_metrics,
            ini_metrics,
            tgt_metrics,
            timeline,
            last_traversals: vec![0; self.chan.len()],
            window_start: self.now.as_u64(),
            next_sample: epoch_boundary(self.now.as_u64()),
        }));
    }

    /// The metric registry, when telemetry is enabled.
    pub fn telemetry_registry(&self) -> Option<&MetricsRegistry> {
        self.telemetry.as_ref().map(|t| &t.registry)
    }

    /// The congestion timeline, when telemetry collects one.
    pub(crate) fn timeline(&self) -> Option<&CongestionTimeline> {
        self.telemetry.as_ref().and_then(|t| t.timeline.as_ref())
    }

    /// Rendered timeline JSON, when telemetry collects one.
    pub fn timeline_json(&self) -> Option<String> {
        self.timeline().map(CongestionTimeline::render)
    }

    /// The flight recorder, when telemetry runs one.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.telemetry.as_ref().and_then(|t| t.flight.as_ref())
    }

    /// Rendered flight-recorder dump: the frozen last-K events when an
    /// invariant tripped, otherwise the live ring. Empty without a
    /// recorder.
    pub fn flight_dump_rendered(&self) -> Vec<String> {
        let Some(fr) = self.flight_recorder() else {
            return Vec::new();
        };
        let labels = self.channel_labels();
        let label = |ev: &TraceEvent| labels.get(ev.channel as usize).map_or("?", String::as_str);
        fr.snapshot()
            .iter()
            .map(|ev| ev.render(label(ev)))
            .collect()
    }

    /// Chrome/Perfetto `trace_event` JSON of the flight recorder's
    /// flit lifetimes (inject→route→deliver spans), when a recorder
    /// runs. This export is a pure function of the simulated events, so
    /// it is byte-stable across a checkpoint/restore boundary.
    pub fn perfetto_json(&self) -> Option<String> {
        self.perfetto(false)
    }

    /// [`perfetto_json`](Self::perfetto_json) plus the kernel-health
    /// counter tracks (pid 2), so the dispatch mix lines up with flit
    /// and attribution spans. Health counters describe *this process's*
    /// engine run and are not checkpointed, so unlike the plain export
    /// this variant is **not** byte-stable across a restore — keep it
    /// out of byte-compared artifact sets.
    pub fn perfetto_json_with_health(&self) -> Option<String> {
        self.perfetto(true)
    }

    fn perfetto(&self, health: bool) -> Option<String> {
        self.flight_recorder().map(|fr| {
            let mut extra = self
                .attribution
                .as_deref()
                .map(AttributionEngine::perfetto_events)
                .unwrap_or_default();
            if health {
                extra.extend(self.health.perfetto_counter_events());
            }
            perfetto_trace_with(&fr.snapshot(), &self.channel_labels(), extra).render()
        })
    }

    /// Samples component counters into the registry and timeline. The
    /// take-put dance moves the boxed state out of `self` so the scan
    /// can use `&self` accessors freely.
    fn sample_telemetry(&mut self, cycle: u64) {
        let Some(mut t) = self.telemetry.take() else {
            return;
        };
        let mut queue_w: Vec<u32> = Vec::new();
        for (s, sw) in self.switches.iter().enumerate() {
            let st = sw.stats(&self.chan);
            let qmax = sw.max_queue(&self.chan);
            let ids = &t.sw_metrics[s];
            // A crossbar traversal is a granted arbitration; contention
            // stalls are the denials.
            t.registry.set(ids.flits, st.flits_routed);
            t.registry.set(ids.grants, st.flits_routed);
            t.registry.set(ids.denials, st.contention_stalls);
            t.registry.set(ids.retx, st.retransmissions);
            t.registry.set(ids.timeouts, st.ack_timeouts);
            t.registry.sample(ids.queue, qmax as u64);
            if t.timeline.is_some() {
                queue_w.push(qmax as u32);
            }
        }
        let mut link_w: Vec<u32> = Vec::new();
        for (i, ch) in self.chan.iter().enumerate() {
            let ids = &t.ch_metrics[i];
            let trav = ch.link.traversals();
            t.registry.set(ids.traversals, trav);
            t.registry.set(ids.corrupted, ch.link.corrupted());
            t.registry.set(ids.retx, ch.tx.retransmissions());
            t.registry.set(ids.acks, ch.rx.accepted());
            t.registry.set(ids.nacks, ch.rx.rejected());
            if t.timeline.is_some() {
                link_w.push(trav.saturating_sub(t.last_traversals[i]) as u32);
                t.last_traversals[i] = trav;
            }
        }
        let ini = self.initiators.iter().map(|ni| (ni.stats(), ni.out_chan()));
        let tgt = self.targets.iter().map(|ni| (ni.stats(), ni.out_chan()));
        for ((st, out), ids) in ini
            .chain(tgt)
            .zip(t.ini_metrics.iter().chain(&t.tgt_metrics))
        {
            t.registry.set(ids.packets, st.packets_sent);
            t.registry.set(ids.flits, st.flits_sent);
            t.registry.set(ids.stalls, self.chan[out].window_waits);
        }
        if let Some(tl) = &mut t.timeline {
            tl.push(t.window_start, link_w, queue_w);
            t.window_start = cycle + 1;
        }
        t.registry.note_epoch();
        t.next_sample = epoch_boundary(cycle + 1);
        self.telemetry = Some(t);
        // Kernel-health counters snapshot on the same epoch cadence so
        // the Perfetto counter tracks line up with congestion windows.
        self.health.sample(cycle);
    }

    /// Forces a final sample covering any cycles since the last epoch
    /// boundary (the trailing partial timeline window). Call after a
    /// run, before exporting telemetry.
    pub fn flush_telemetry(&mut self) {
        let now = self.now.as_u64();
        let Some(t) = &self.telemetry else { return };
        if now > t.window_start {
            self.sample_telemetry(now - 1);
        }
    }

    /// Per-run telemetry digest: total and per-link retransmissions
    /// plus the deepest output queue any switch reached. A pure
    /// function of end-of-run component counters — deterministic and
    /// available with or without [`enable_telemetry`](Self::enable_telemetry).
    pub fn telemetry_summary(&self) -> TelemetrySummary {
        let mut links = Vec::new();
        let mut total = 0u64;
        for (i, ch) in self.chan.iter().enumerate() {
            let r = ch.tx.retransmissions();
            total += r;
            if r > 0 {
                links.push((self.channel_label(i).expect("in range"), r));
            }
        }
        let mut peak = 0u64;
        let mut peak_switch = String::new();
        for (s, sw) in self.switches.iter().enumerate() {
            let d = sw.stats(&self.chan).max_queue_depth as u64;
            if peak_switch.is_empty() || d > peak {
                peak = d;
                peak_switch = format!("sw{s}");
            }
        }
        TelemetrySummary {
            total_retransmissions: total,
            link_retransmissions: links,
            peak_queue_depth: peak,
            peak_queue_switch: peak_switch,
        }
    }

    /// The per-run kernel counters: event-kernel steps (and test-oracle
    /// steps, zero in production), schedule occupancy, and pending target
    /// wakes and the earliest of them. Always collected (plain counter
    /// bumps) and deterministic; introspection only — never serialized
    /// into checkpoints or folded into byte-compared artifacts.
    pub fn kernel_health(&self) -> &KernelHealth {
        &self.health
    }

    /// Arms the wall-clock kernel phase profiler. Until this is called
    /// the kernel takes no timestamps at all. Profile data is
    /// non-deterministic (wall clock) and must only be emitted in report
    /// sections excluded from byte comparison.
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::new(KernelProfile::new()));
        }
    }

    /// The accumulated phase profile, when profiling is armed.
    pub fn kernel_profile(&self) -> Option<&KernelProfile> {
        self.profile.as_deref()
    }

    /// Arms a flow-control sabotage mode on **every** sender in the
    /// network (switch output ports and NI network ports). Conformance
    /// hook: a sabotaged network must trip the protocol monitor.
    pub fn sabotage_all_senders(&mut self, mode: FlowSabotage) {
        self.sched.valid = false;
        self.chan.iter_mut().for_each(|ch| ch.tx.sabotage(mode));
    }

    /// Rebuilds the event schedule and the cached idle-blocker census
    /// from a full scan of current state. A channel is left unscheduled
    /// only when *every* step phase is a no-op for it (see
    /// [`Channel::active`]); switches are read off their held-flit
    /// counts, and every NI counts as touched, so the step's own
    /// re-derive takes their bits from state.
    fn rebuild_schedule(&mut self) {
        let sched = &mut self.sched;
        sched.chan_sched.clear();
        sched.mon_watch.clear();
        sched.sw_sched.clear();
        (0..self.initiators.len()).for_each(|n| sched.ini_touched.set(n, true));
        (0..self.targets.len()).for_each(|n| sched.tgt_touched.set(n, true));
        sched.idle_blockers = 0;
        sched.blocking_ini.fill(false);
        sched.blocking_tgt.fill(false);
        for (s, sw) in self.switches.iter().enumerate() {
            sched.sw_sched.set(s, !sw.is_idle());
        }
        for (i, ch) in self.chan.iter().enumerate() {
            let blocking = ch.holds_flit();
            sched.blocking_chan[i] = blocking;
            sched.idle_blockers += usize::from(blocking);
            if ch.active() {
                sched.chan_sched.insert(i);
            }
            if self.monitor.as_ref().is_some_and(|m| m.awaits_delivery(i)) {
                sched.mon_watch.insert(i);
            }
        }
        self.rederive_touched();
        self.sched.valid = true;
    }

    /// Re-derives backlog, pending-response and blocker bits for every
    /// NI in the touched sets, and the blocker bit and schedule
    /// membership of the channel each drives (it may have packetized
    /// into it), then empties those sets. Untouched NIs' cached bits
    /// still hold.
    fn rederive_touched(&mut self) {
        let (chan, sched) = (&self.chan, &mut self.sched);
        for n in sched.ini_touched.iter() {
            let ni = &self.initiators[n];
            note_blocker(
                &mut sched.idle_blockers,
                &mut sched.blocking_ini[n],
                !ni.is_idle(),
            );
            sched.ini_pending.set(n, ni.has_backlog());
        }
        for n in sched.tgt_touched.iter() {
            let ni = &self.targets[n];
            note_blocker(
                &mut sched.idle_blockers,
                &mut sched.blocking_tgt[n],
                !ni.is_idle(),
            );
            sched.tgt_pending.set(n, ni.next_response_at().is_some());
        }
        let ini = sched
            .ini_touched
            .iter()
            .map(|n| self.initiators[n].out_chan());
        let tgt = sched.tgt_touched.iter().map(|n| self.targets[n].out_chan());
        for c in ini.chain(tgt) {
            let blocking = chan[c].holds_flit();
            note_blocker(
                &mut sched.idle_blockers,
                &mut sched.blocking_chan[c],
                blocking,
            );
            if chan[c].active() {
                sched.chan_sched.insert(c);
            }
        }
        sched.ini_touched.clear();
        sched.tgt_touched.clear();
    }

    /// Step phase 2 for one channel: its sender consumes the reverse
    /// arrival and drives the forward latch. Shared verbatim between the
    /// event kernel and the test oracle so observer hooks (monitor,
    /// attribution, flight recorder) fire identically on both.
    #[inline]
    fn phase2_transmit(&mut self, i: usize) {
        let cycle = self.now.as_u64();
        let out = self.chan[i].transmit();
        if let Some((lf, new)) = &out {
            if let Some(m) = &mut self.monitor {
                m.note_transmit(i, lf.seq, &lf.flit, cycle);
            }
            if let Some(a) = self.attribution.as_mut().filter(|_| *new) {
                a.note_transmit(
                    i,
                    lf.flit.meta.packet_id,
                    lf.flit.kind.is_head(),
                    lf.flit.kind.is_tail(),
                    lf.flit.meta.injected_at.as_u64(),
                    cycle,
                );
            }
            if let Some(fr) = self.telemetry.as_mut().and_then(|t| t.flight.as_mut()) {
                use TraceEventKind::{Retransmit, Transmit};
                let kind = if *new { Transmit } else { Retransmit };
                fr.record(flit_event(cycle, i, lf, kind));
            }
        }
        self.chan[i].fwd_latch = out.map(|(lf, _)| lf);
    }

    /// Step phase 4 for one channel: its receiver takes the forward
    /// arrival and drives the reverse latch, and a flit it accepts is
    /// handed to the consumer. Shared verbatim between the event kernel
    /// and the test oracle.
    #[inline]
    fn phase4_receive(&mut self, i: usize) {
        let cycle = self.now.as_u64();
        let ch = &mut self.chan[i];
        let Some(lf) = ch.fwd_arrival.take() else {
            ch.rev_latch = None;
            return;
        };
        let consumer = ch.consumer;
        if let Some(fr) = self.telemetry.as_mut().and_then(|t| t.flight.as_mut()) {
            // Wire-level classification: a corrupted flit will be nACKed; an
            // intact tail reaching an NI leaves the network. (A stale
            // duplicate still logs an arrival — the recorder shows what
            // crossed the link.)
            let kind = if lf.corrupted {
                TraceEventKind::CorruptArrival
            } else if consumer.is_ni() && lf.flit.kind.is_tail() {
                TraceEventKind::Deliver
            } else {
                TraceEventKind::Arrival
            };
            fr.record(flit_event(cycle, i, &lf, kind));
        }
        let ready = self.consumer_ready(consumer);
        let ch = &mut self.chan[i];
        let (accepted, reply) = ch.rx.receive(lf, ready);
        ch.rev_latch = Some(reply);
        let Some(flit) = accepted else { return };
        if let Some(m) = &mut self.monitor {
            m.note_accept(i, &flit, cycle);
        }
        if let Some(a) = self.attribution.as_mut().filter(|_| flit.kind.is_tail()) {
            a.note_accept(i, flit.meta.packet_id, cycle);
        }
        self.deliver(consumer, flit);
    }

    /// True when consumer `ep` can take a flit this cycle: a switch input
    /// whose entry stage is free, or an NI (NIs always sink their
    /// traffic: ejection is never back-pressured).
    fn consumer_ready(&self, ep: Endpoint) -> bool {
        match ep {
            Endpoint::SwitchPort { switch, port } => self.switches[switch].can_accept(port),
            Endpoint::Initiator(_) | Endpoint::Target(_) => true,
        }
    }

    /// Hands a flit a channel's receiver accepted to consumer `ep`, and
    /// takes what that changed for the schedule: the switch joins next
    /// cycle's crossbar set; the NI is re-derived after the ticks, and a
    /// target handed a request joins the pending set ahead of them, so a
    /// zero-latency response leaves in the cycle its request arrived.
    fn deliver(&mut self, ep: Endpoint, flit: Flit) {
        let sched = &mut self.sched;
        match ep {
            Endpoint::SwitchPort { switch, port } => {
                self.switches[switch].store(port, flit);
                sched.sw_sched.insert(switch);
            }
            Endpoint::Initiator(idx) => {
                self.initiators[idx].receive(flit, self.now);
                sched.ini_touched.insert(idx);
            }
            Endpoint::Target(idx) => {
                let target = &mut self.targets[idx];
                target.receive(flit, self.now);
                sched.tgt_touched.insert(idx);
                sched
                    .tgt_pending
                    .set(idx, target.next_response_at().is_some());
            }
        }
    }

    /// Fault injection: transient backpressure at switch outputs. One
    /// draw per output per cycle, in switch then port order — the draw
    /// sequence is part of the byte-identity contract, so an output that
    /// feeds no channel draws too. `stalled` hears the channel of every
    /// output that drew a stall. Runs only when the plan injects stalls:
    /// fault-free runs never touch `fault_rng`, so their RNG streams are
    /// bit-identical whether or not a plan is armed.
    fn inject_stalls(&mut self, mut stalled: impl FnMut(usize)) {
        let len = self.faults.stall_len as u64;
        for sw in &mut self.switches {
            for p in 0..sw.out_chan().len() {
                if self.fault_rng.chance(self.faults.stall_rate) {
                    if let Some(c) = sw.stall_output(&mut self.chan, p, len) {
                        stalled(c);
                    }
                }
            }
        }
    }

    /// Monitor: the once-per-cycle endpoint invariants on `channels`, in
    /// the order given, after which a violation count above
    /// `viol_before` (taken at the start of the step) freezes the
    /// flight recorder: the first tripped invariant preserves the last-K
    /// events around it however long the run continues. The monitor is
    /// moved out meanwhile so it can be handed `&self`'s endpoints.
    fn check_endpoints(&mut self, channels: impl Iterator<Item = usize>, viol_before: usize) {
        let Some(mut m) = self.monitor.take() else {
            return;
        };
        let cycle = self.now.as_u64();
        for i in channels {
            m.check_endpoints(i, &self.chan[i].tx, &self.chan[i].rx, cycle);
        }
        if m.violations().len() > viol_before {
            if let Some(fr) = self.telemetry.as_mut().and_then(|t| t.flight.as_mut()) {
                fr.freeze(cycle);
            }
        }
        self.monitor = Some(m);
    }

    /// Advances the network one clock cycle with the event-driven
    /// kernel, which visits only scheduled components. Every observer
    /// (VCD trace, protocol monitor, telemetry, attribution) and every
    /// fault model rides this one kernel; its state, statistics, RNG
    /// streams, and observer output are bit-identical to the full-scan
    /// test oracle's — pinned by `tests/kernel_equivalence.rs`.
    pub fn step(&mut self) {
        if !self.sched.valid {
            self.health.note_rebuild();
            let mark = self.profile.is_some().then(std::time::Instant::now);
            self.rebuild_schedule();
            if let (Some(p), Some(t)) = (self.profile.as_deref_mut(), mark) {
                p.note(KernelPhase::Scheduling, t.elapsed());
            }
        }
        self.step_event();
    }

    /// Advances one cycle with the full-scan oracle instead of the
    /// production kernel. The differential equivalence harness drives
    /// this side-by-side with [`step`](Self::step).
    #[cfg(any(test, feature = "reference-kernel"))]
    pub fn step_reference(&mut self) {
        self.step_full();
    }

    /// The oracle step: every channel, switch, and NI is processed every
    /// cycle, with no schedule to consult. Compiled for tests only — it
    /// shares the per-channel phase bodies with the event kernel and
    /// nothing of its scheduling.
    #[cfg(any(test, feature = "reference-kernel"))]
    fn step_full(&mut self) {
        let cycle = self.now.as_u64();
        self.health.note_fallback_step();
        let mut prof = self.profile.take();
        let mut mark = prof.as_ref().map(|_| std::time::Instant::now());
        // Violation count going in: if it grows this cycle, the flight
        // recorder freezes its ring at the end of the step.
        let viol_before = self.monitor_violations().len();

        // Phase 1: every link shifts, idle or not: the oracle keeps out
        // of the event kernel's skip, so a wrong skip condition shows.
        for ch in &mut self.chan {
            (ch.fwd_arrival, ch.rev_arrival) =
                ch.link.shift(ch.fwd_latch.take(), ch.rev_latch.take());
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::ChannelPass);
        if let Some(trace) = &mut self.trace {
            for (i, ch) in self.chan.iter().enumerate() {
                let (valid, pkt) = match &ch.fwd_arrival {
                    Some(lf) => (1, lf.flit.meta.packet_id & 0xFF),
                    None => (0, 0),
                };
                trace.vcd.change(self.now, trace.valid[i], valid);
                trace.vcd.change(self.now, trace.packet[i], pkt);
            }
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::ObserverHooks);
        if self.stall_faults {
            self.inject_stalls(|_| {});
            prof_mark(&mut prof, &mut mark, KernelPhase::SwitchPass);
        }
        // Phase 2: producers transmit (consume reverse arrivals).
        for i in 0..self.chan.len() {
            self.phase2_transmit(i);
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::ChannelPass);
        // Phase 3: switch allocation + crossbar.
        for sw in &mut self.switches {
            sw.crossbar(&mut self.chan);
        }
        // Attribution: drain the crossbar tail grants collected in
        // phase 3.
        if let Some(a) = &mut self.attribution {
            for (s, sw) in self.switches.iter_mut().enumerate() {
                for &(port, pkt) in sw.granted_tails() {
                    a.note_grant(s, port, pkt, cycle);
                }
                sw.clear_granted_tails();
            }
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::SwitchPass);
        // Phase 4: consumers receive (produce reverse replies).
        for i in 0..self.chan.len() {
            self.phase4_receive(i);
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::ChannelPass);
        // Monitor: once-per-cycle endpoint invariants on every channel.
        self.check_endpoints(0..self.chan.len(), viol_before);
        prof_mark(&mut prof, &mut mark, KernelPhase::ObserverHooks);
        // NI housekeeping.
        for ni in &mut self.initiators {
            ni.tick(self.now, &mut self.chan);
        }
        for ni in &mut self.targets {
            ni.tick(self.now, &mut self.chan);
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::WheelService);
        // Telemetry epoch boundary: scan component counters into the
        // registry (and close a timeline window) once per interval. This
        // is the whole per-cycle cost of the metric layer.
        if self.telemetry.is_some() && (cycle + 1).is_multiple_of(SAMPLE_INTERVAL) {
            self.sample_telemetry(cycle);
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::ObserverHooks);
        // The oracle mutates state behind the schedule's back.
        self.sched.valid = false;
        self.profile = prof;
        self.now = self.now.next();
    }

    /// The event-driven step: walks only scheduled channels/switches and
    /// pending NIs, maintaining the schedule incrementally. Requires a
    /// valid schedule ([`step`](Self::step) rebuilds a stale one first).
    fn step_event(&mut self) {
        debug_assert!(self.sched.valid);
        let cycle = self.now.as_u64();
        // Violation count going in: if it grows this cycle, the flight
        // recorder freezes its ring at the end of the step.
        let viol_before = self.monitor_violations().len();

        // Swap this cycle's schedules out against empty scratch sets:
        // next-cycle membership accumulates in `chan_sched`/`sw_sched`
        // while this cycle's membership is walked.
        let mut chan_cur = std::mem::replace(
            &mut self.sched.chan_sched,
            std::mem::take(&mut self.sched.chan_scratch),
        );
        let mut sw_cur = std::mem::replace(
            &mut self.sched.sw_sched,
            std::mem::take(&mut self.sched.sw_scratch),
        );
        self.health.note_event_step(
            chan_cur.len() as u64,
            sw_cur.len() as u64,
            self.sched.tgt_pending.len() as u64,
            self.next_target_wake(),
        );
        let mut prof = self.profile.take();
        let mut mark = prof.as_ref().map(|_| std::time::Instant::now());

        // A stalled port counts down in its channel's phase 2 from this
        // cycle on, so the channel joins the walk.
        if self.stall_faults {
            self.inject_stalls(|c| {
                chan_cur.insert(c);
            });
            prof_mark(&mut prof, &mut mark, KernelPhase::SwitchPass);
        }
        // Phases 1 and 2 in one visit per channel: the link shifts, then
        // the sender transmits. Phase 2 of a channel reads only what its
        // own phase 1 wrote, and every link draws from its own RNG
        // stream, so no channel sees another's shift. Neither reaches a
        // switch or an NI: both run on the channel record alone.
        for i in chan_cur.iter() {
            self.chan[i].shift();
            self.phase2_transmit(i);
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::ChannelPass);
        // VCD trace, from `fwd_arrival` alone (phase 2 does not touch
        // it). An unscheduled channel's arrival is `None` and, once
        // every channel has been dumped, so is its last dumped value (a
        // channel that dumped a flit is still scheduled the cycle after,
        // when it dumps the `0`) — the writer would drop the change.
        if let Some(trace) = &mut self.trace {
            let mut dump = |i: usize| {
                let (valid, pkt) = match &self.chan[i].fwd_arrival {
                    Some(lf) => (1, lf.flit.meta.packet_id & 0xFF),
                    None => (0, 0),
                };
                trace.vcd.change(self.now, trace.valid[i], valid);
                trace.vcd.change(self.now, trace.packet[i], pkt);
            };
            if trace.primed {
                chan_cur.iter().for_each(&mut dump);
            } else {
                (0..self.chan.len()).for_each(&mut dump);
                trace.primed = true;
            }
            prof_mark(&mut prof, &mut mark, KernelPhase::ObserverHooks);
        }
        // Phase 3: switch allocation + crossbar for switches whose input
        // side held work; one still holding some (a lost arbitration, a
        // full queue, a body flit behind its lock) crossbars again next
        // cycle. A granted flit lands in an output channel's sender, so
        // that channel blocks idleness and joins next cycle's schedule;
        // any other pending output was pending going in, so its channel
        // is in the walk and re-derives itself below.
        for s in sw_cur.iter() {
            let (sw, sched) = (&mut self.switches[s], &mut self.sched);
            let mut fed = sw.crossbar(&mut self.chan);
            if !sw.is_idle() {
                sched.sw_sched.insert(s);
            }
            while fed != 0 {
                let c = sw.out_chan()[fed.trailing_zeros() as usize];
                fed &= fed - 1;
                sched.chan_sched.insert(c);
                note_blocker(&mut sched.idle_blockers, &mut sched.blocking_chan[c], true);
            }
        }
        // Attribution: drain the crossbar tail grants. Ascending switch
        // order matches the oracle step; switches that did not
        // crossbar this cycle collected no grants.
        if let Some(a) = &mut self.attribution {
            for s in sw_cur.iter() {
                let sw = &mut self.switches[s];
                for &(port, pkt) in sw.granted_tails() {
                    a.note_grant(s, port, pkt, cycle);
                }
                sw.clear_granted_tails();
            }
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::SwitchPass);
        // Phase 4 and the channel's re-derive in one visit: the receiver
        // takes the arrival (the consumer it hands a flit to takes its
        // own schedule notes), then the channel's blocker bit, schedule
        // membership and monitor watch are taken from state that is
        // final once phase 3 and this channel's own phase 4 have run (an
        // NI that packetizes later, in its tick, re-derives its channel).
        for i in chan_cur.iter() {
            self.phase4_receive(i);
            let ch = &self.chan[i];
            note_blocker(
                &mut self.sched.idle_blockers,
                &mut self.sched.blocking_chan[i],
                ch.holds_flit(),
            );
            if ch.active() {
                self.sched.chan_sched.insert(i);
            }
            if let Some(m) = &self.monitor {
                self.sched.mon_watch.set(i, m.awaits_delivery(i));
            }
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::ChannelPass);
        // Monitor: once-per-cycle endpoint invariants, in channel order,
        // on every channel that can trip one — those walked this cycle
        // plus those still awaiting a delivery. Anywhere else the window
        // is empty and nothing is owed, so the check cannot fire. Its own
        // pass: violation order (phase-2 notes, phase-4 notes, endpoint
        // checks) is byte-compared.
        if self.monitor.is_some() && !(chan_cur.is_empty() && self.sched.mon_watch.is_empty()) {
            let watch = std::mem::take(&mut self.sched.mon_watch);
            self.check_endpoints(chan_cur.union(&watch), viol_before);
            self.sched.mon_watch = watch;
            prof_mark(&mut prof, &mut mark, KernelPhase::ObserverHooks);
        }
        // NI housekeeping: only initiators with a submit backlog and
        // targets with a due response can make progress; every other
        // tick is a provable no-op.
        {
            let sched = &mut self.sched;
            for idx in sched.ini_pending.iter() {
                self.initiators[idx].tick(self.now, &mut self.chan);
                sched.ini_touched.insert(idx);
            }
            for idx in sched.tgt_pending.iter() {
                let target = &mut self.targets[idx];
                if target.next_response_at().is_some_and(|at| at > self.now) {
                    continue;
                }
                target.tick(self.now, &mut self.chan);
                sched.tgt_touched.insert(idx);
            }
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::WheelService);
        self.rederive_touched();
        debug_assert!(
            (self.sched.sw_sched.iter())
                .eq((0..self.switches.len()).filter(|&s| !self.switches[s].is_idle())),
            "switch schedule out of sync with the held-flit counts"
        );
        prof_mark(&mut prof, &mut mark, KernelPhase::Scheduling);
        // Telemetry epoch boundary: scan component counters into the
        // registry (and close a timeline window) once per interval. This
        // is the whole per-cycle cost of the metric layer.
        if self
            .telemetry
            .as_ref()
            .is_some_and(|t| cycle == t.next_sample)
        {
            self.sample_telemetry(cycle);
        }
        prof_mark(&mut prof, &mut mark, KernelPhase::ObserverHooks);
        self.profile = prof;
        // Return the walked (now cleared) sets to the scratch slots.
        chan_cur.clear();
        sw_cur.clear();
        self.sched.chan_scratch = chan_cur;
        self.sched.sw_scratch = sw_cur;
        self.now = self.now.next();
    }

    /// The earliest cycle at which a pending target's tick makes
    /// progress, if any target is pending.
    fn next_target_wake(&self) -> Option<u64> {
        let pending = self.sched.tgt_pending.iter();
        pending
            .filter_map(|t| self.targets[t].next_response_at())
            .min()
            .map(Cycle::as_u64)
    }

    /// Runs `cycles` clock cycles, one [`step`](Self::step) each.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// True when no flit is buffered or in flight anywhere. While the
    /// schedule is valid (every event step maintains it) this is an O(1)
    /// counter check instead of a full network scan.
    pub fn is_idle(&self) -> bool {
        if self.sched.valid {
            let idle = self.sched.idle_blockers == 0 && self.sched.sw_sched.is_empty();
            debug_assert_eq!(idle, self.full_idle_scan(), "idle cache out of sync");
            return idle;
        }
        self.full_idle_scan()
    }

    /// `(scheduled, total)` channel counts from the live schedule, or
    /// `None` while it is stale (fresh or just-restored networks).
    /// Introspection for perf analysis and tests.
    pub fn active_channels(&self) -> Option<(usize, usize)> {
        self.sched
            .valid
            .then(|| (self.sched.chan_sched.len(), self.chan.len()))
    }

    fn full_idle_scan(&self) -> bool {
        self.initiators.iter().all(InitiatorNi::is_idle)
            && self.targets.iter().all(TargetNi::is_idle)
            && self.switches.iter().all(Switch::is_idle)
            && !self.chan.iter().any(Channel::holds_flit)
    }

    /// Steps until the network drains or `max_cycles` elapse; returns
    /// true if it drained.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_idle() {
                return true;
            }
            self.step();
        }
        self.is_idle()
    }

    /// Aggregate statistics over all components.
    pub fn stats(&self) -> NocStats {
        let mut s = NocStats {
            cycles: self.now.as_u64(),
            ..NocStats::default()
        };
        for sw in &self.switches {
            s.flits_routed += sw.stats(&self.chan).flits_routed;
        }
        for ni in &self.initiators {
            let st = ni.stats();
            s.packets_sent += st.packets_sent;
            s.packets_delivered += st.packets_received;
            s.transaction_latency.merge(&st.latency);
            s.latency_histogram.merge(&st.latency_hist);
        }
        for ni in &self.targets {
            let st = ni.stats();
            s.packets_sent += st.packets_sent;
            s.packets_delivered += st.packets_received;
            s.request_latency.merge(&st.latency);
        }
        // Every sender that ever transmits produces a channel.
        for ch in &self.chan {
            s.retransmissions += ch.tx.retransmissions();
            s.ack_timeouts += ch.tx.timeouts();
            s.stall_cycles += ch.stalled;
            s.flits_corrupted += ch.link.corrupted();
            s.acks_dropped += ch.link.rev_dropped();
            s.acks_corrupted += ch.link.rev_corrupted();
        }
        s
    }
}

impl TelemetryState {
    /// Mutable telemetry state only: the registry values/epochs, the
    /// per-channel traversal baselines, the open window start, and the
    /// timeline/flight sub-observers. Metric handle maps and the config
    /// are structural and rebuilt by [`Noc::enable_telemetry`]. The
    /// sub-observers ride in skippable blobs so a snapshot taken with a
    /// different timeline/flight setting still restores the rest; the
    /// flight blob ends with the senders' `seqs` (`snap::save_seqs`).
    fn save(&self, w: &mut SnapshotWriter, seqs: &[u8]) {
        self.registry.save_state(w);
        w.len(self.last_traversals.len());
        self.last_traversals.iter().for_each(|&t| w.u64(t));
        w.u64(self.window_start);
        save_section(w, self.timeline.as_ref(), Snapshot::save_state);
        save_section(w, self.flight.as_ref(), |f, w| {
            f.save_state(w);
            snap::save_seqs(w, seqs);
        });
    }

    /// Reads what [`save`](Self::save) wrote.
    fn load(&mut self, r: &mut SnapshotReader<'_>, seqs: &[u8]) -> Result<(), SnapshotError> {
        self.registry.load_state(r)?;
        load_count(r, self.last_traversals.len(), "telemetry channels")?;
        for t in &mut self.last_traversals {
            *t = r.u64()?;
        }
        self.window_start = r.u64()?;
        load_section(r, self.timeline.as_mut(), Snapshot::load_state)?;
        load_section(r, self.flight.as_mut(), |f, r| {
            f.load_state(r)?;
            snap::check_seqs(r, seqs, "flight recorder")
        })?;
        Ok(())
    }
}

/// Writes one optional observer section: a presence flag, then (when
/// present) what `save` writes as a nested length-prefixed container.
/// The length prefix lets a reader skip a section its network does not
/// collect, so observers can differ between save and restore.
fn save_section<T: ?Sized>(
    w: &mut SnapshotWriter,
    obs: Option<&T>,
    save: impl FnOnce(&T, &mut SnapshotWriter),
) {
    match obs {
        Some(t) => {
            w.bool(true);
            let mut inner = SnapshotWriter::new();
            save(t, &mut inner);
            w.bytes(&inner.finish());
        }
        None => w.bool(false),
    }
}

/// Reads one optional observer section written by [`save_section`].
/// Present in the snapshot but absent here → skipped; absent in the
/// snapshot but enabled here → the observer keeps its fresh state (so a
/// plain checkpoint can be replayed with recorders armed). Returns
/// whether the snapshot carried the section. The section is read in
/// place with header checks only: the enclosing container's hash
/// already covered it.
fn load_section<T: ?Sized>(
    r: &mut SnapshotReader<'_>,
    obs: Option<&mut T>,
    load: impl FnOnce(&mut T, &mut SnapshotReader<'_>) -> Result<(), SnapshotError>,
) -> Result<bool, SnapshotError> {
    if !r.bool()? {
        return Ok(false);
    }
    let mut inner = r.nested()?;
    if let Some(t) = obs {
        load(t, &mut inner)?;
        inner.finish()?;
    }
    Ok(true)
}

/// Reads a component count and checks it against this network's.
fn load_count(r: &mut SnapshotReader<'_>, have: usize, what: &str) -> Result<(), SnapshotError> {
    let n = r.len()?;
    if n != have {
        return Err(SnapshotError::Malformed(format!(
            "network has {have} {what}, snapshot {n}"
        )));
    }
    Ok(())
}

/// Writes a component count, then each component with `save`.
fn save_all<T>(w: &mut SnapshotWriter, all: &[T], save: impl Fn(&T, &mut SnapshotWriter)) {
    w.len(all.len());
    all.iter().for_each(|c| save(c, w));
}

/// Reads what [`save_all`] wrote into this network's components.
fn load_all<T>(
    r: &mut SnapshotReader<'_>,
    all: &mut [T],
    what: &str,
    mut load: impl FnMut(&mut T, &mut SnapshotReader<'_>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    load_count(r, all.len(), what)?;
    all.iter_mut().try_for_each(|c| load(c, r))
}

impl Noc {
    /// Captures the complete mutable simulation state — every switch
    /// queue and arbitration pointer, NI packetization register, link
    /// pipeline stage and ACK/nACK back-channel, retransmission window,
    /// RNG stream position, and (when enabled) observer state — into a
    /// versioned, integrity-hashed byte container.
    ///
    /// Restoring the bytes with [`restore`](Self::restore) into a
    /// network freshly assembled from the **same spec, seed, and fault
    /// plan** resumes the run bit-exactly: statistics, reports, VCD
    /// continuations, and all future RNG draws match the uninterrupted
    /// run. Structural configuration is deliberately not stored.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.u64(self.now.as_u64());
        w.rng(&self.fault_rng);
        // Each port's sender and receiver go into the section of the
        // switch or NI that owns the port, read from its channel.
        let chan = &self.chan;
        save_all(&mut w, &self.switches, |sw, w| sw.save_state(w, chan));
        save_all(&mut w, &self.initiators, |ni, w| ni.save_state(w, chan));
        save_all(&mut w, &self.targets, |ni, w| ni.save_state(w, chan));
        save_all(&mut w, chan, Snapshot::save_state);
        // Observers, each in a skippable section: the restored network
        // may collect a different set.
        let seqs = self.next_seqs();
        let vcd = self.trace.as_ref().map(|t| &t.vcd);
        save_section(&mut w, vcd, Snapshot::save_state);
        save_section(&mut w, self.monitor.as_ref(), Snapshot::save_state);
        save_section(&mut w, self.telemetry.as_deref(), |t, w| t.save(w, &seqs));
        save_section(&mut w, self.attribution.as_deref(), |a, w| {
            snap::save_seqs(w, &seqs);
            a.save_state(w);
        });
        w.finish()
    }

    /// Every sender's next sequence number, in channel order.
    fn next_seqs(&self) -> Vec<u8> {
        self.chan.iter().map(|ch| ch.tx.next_seq()).collect()
    }

    /// Restores state captured by [`checkpoint`](Self::checkpoint) into
    /// this network, which must have been assembled from the same spec,
    /// seed, and fault plan as the one the checkpoint was taken from.
    ///
    /// Observers need not match: a section present in the snapshot but
    /// not enabled here is skipped, and an observer enabled here but
    /// absent from the snapshot keeps its state, except that a monitor
    /// is re-armed on the restored state as `enable_monitor` arms it.
    ///
    /// `bytes` are hashed once, here; the observer sections nested
    /// inside ride on that hash and are read with header checks only.
    ///
    /// # Errors
    ///
    /// Container-level problems (truncation, bad magic, version or hash
    /// mismatch) are reported before anything is touched; shape
    /// mismatches surface as [`SnapshotError::Malformed`] or
    /// [`SnapshotError::TrailingBytes`] part-way through — the network
    /// is then in an unspecified state and should be rebuilt.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.restore_from(SnapshotReader::open(bytes)?)
    }

    /// [`restore`](Self::restore) from a reader over a checkpoint that
    /// was verified already — one nested in a verified container
    /// ([`SnapshotReader::nested`]) or held as a
    /// [`Verified`](xpipes_sim::snapshot::Verified) one — so nothing is
    /// hashed again. Reads `r` to its end.
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore), past the container-level checks.
    pub fn restore_from(&mut self, mut r: SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let now = r.u64()?;
        self.fault_rng = r.rng()?;
        let chan = &mut self.chan;
        load_all(&mut r, &mut self.switches, "switches", |sw, r| {
            sw.load_state(r, chan)
        })?;
        load_all(&mut r, &mut self.initiators, "initiator NIs", |ni, r| {
            ni.load_state(r, chan)
        })?;
        load_all(&mut r, &mut self.targets, "target NIs", |ni, r| {
            ni.load_state(r, chan)
        })?;
        load_all(&mut r, chan, "channels", Snapshot::load_state)?;
        let seqs = self.next_seqs();
        let vcd = self.trace.as_mut().map(|t| &mut t.vcd);
        load_section(&mut r, vcd, Snapshot::load_state)?;
        let monitored = load_section(&mut r, self.monitor.as_mut(), Snapshot::load_state)?;
        let telemetry = self.telemetry.as_deref_mut();
        load_section(&mut r, telemetry, |t, r| t.load(r, &seqs))?;
        load_section(&mut r, self.attribution.as_deref_mut(), |a, r| {
            snap::check_seqs(r, &seqs, "attribution")?;
            a.load_state(r)
        })?;
        r.finish()?;
        self.now = Cycle::new(now);
        if let (false, Some(m)) = (monitored, &self.monitor) {
            self.enable_monitor(m.config());
        }
        // The event schedule is a cache over the state just replaced;
        // the next step rebuilds it. Likewise the trace's last-dumped
        // values: re-dump every channel once.
        self.sched.valid = false;
        if let Some(t) = &mut self.trace {
            t.primed = false;
        }
        if let Some(t) = &mut self.telemetry {
            t.next_sample = epoch_boundary(now);
        }
        Ok(())
    }
}

impl std::fmt::Debug for Noc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Noc")
            .field("name", &self.name)
            .field("switches", &self.switches.len())
            .field("initiators", &self.initiators.len())
            .field("targets", &self.targets.len())
            .field("channels", &self.chan.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_topology::builders::mesh;

    fn demo_spec() -> (NocSpec, NiId, NiId) {
        let mut b = mesh(2, 2).unwrap();
        let cpu = b.attach_initiator("cpu", (0, 0)).unwrap();
        let mem = b.attach_target("mem", (1, 1)).unwrap();
        let mut spec = NocSpec::new("demo", b.into_topology());
        spec.map_address(mem, 0x0, 0x10000).unwrap();
        (spec, cpu, mem)
    }

    #[test]
    fn write_crosses_the_mesh() {
        let (spec, cpu, mem) = demo_spec();
        let mut noc = Noc::new(&spec).unwrap();
        noc.submit(cpu, Request::write(0x100, vec![0xAA]).unwrap())
            .unwrap();
        assert!(noc.run_until_idle(500), "network must drain");
        assert_eq!(noc.memory(mem).unwrap().peek(0x100), 0xAA);
        let stats = noc.stats();
        assert_eq!(stats.packets_delivered, 1);
        assert!(stats.flits_routed > 0);
    }

    #[test]
    fn read_round_trips() {
        let (spec, cpu, mem) = demo_spec();
        let mut noc = Noc::new(&spec).unwrap();
        noc.memory_mut(mem).unwrap().poke(0x40, 1234);
        noc.submit(cpu, Request::read(0x40, 1).unwrap()).unwrap();
        assert!(noc.run_until_idle(500));
        let resp = noc.take_response(cpu).unwrap().expect("response");
        assert_eq!(resp.data(), &[1234]);
        assert_eq!(noc.stats().packets_delivered, 2); // request + response
    }

    #[test]
    fn latency_scales_with_distance() {
        // 4x1 line: near target at (1,0), far target at (3,0).
        let mut b = mesh(4, 1).unwrap();
        let cpu = b.attach_initiator("cpu", (0, 0)).unwrap();
        let near = b.attach_target("near", (1, 0)).unwrap();
        let far = b.attach_target("far", (3, 0)).unwrap();
        let mut spec = NocSpec::new("line", b.into_topology());
        spec.map_address(near, 0x0000, 0x1000).unwrap();
        spec.map_address(far, 0x1000, 0x1000).unwrap();

        let mut noc = Noc::new(&spec).unwrap();
        noc.submit(cpu, Request::read(0x0, 1).unwrap()).unwrap();
        assert!(noc.run_until_idle(500));
        let near_lat = noc.stats().transaction_latency.mean();

        let mut noc2 = Noc::new(&spec).unwrap();
        noc2.submit(cpu, Request::read(0x1000, 1).unwrap()).unwrap();
        assert!(noc2.run_until_idle(500));
        let far_lat = noc2.stats().transaction_latency.mean();
        // 2 extra switches each way, 2 cycles per switch + link stages.
        assert!(far_lat > near_lat + 4.0, "near={near_lat} far={far_lat}");
    }

    #[test]
    fn unreliable_links_still_deliver() {
        let (mut spec, cpu, mem) = demo_spec();
        spec.link_error_rate = 0.05;
        let mut noc = Noc::with_seed(&spec, 42).unwrap();
        for i in 0..10u64 {
            noc.submit(cpu, Request::write(i * 8, vec![i + 1]).unwrap())
                .unwrap();
        }
        assert!(
            noc.run_until_idle(20_000),
            "network must drain despite errors"
        );
        for i in 0..10u64 {
            assert_eq!(noc.memory(mem).unwrap().peek(i * 8), i + 1);
        }
        let stats = noc.stats();
        assert!(stats.flits_corrupted > 0, "error injection must have fired");
        assert!(stats.retransmissions >= stats.flits_corrupted);
    }

    #[test]
    fn wrong_ni_kind_reported() {
        let (spec, cpu, mem) = demo_spec();
        let mut noc = Noc::new(&spec).unwrap();
        let err = noc.submit(mem, Request::read(0, 1).unwrap()).unwrap_err();
        assert_eq!(err, XpipesError::WrongNiKind(mem));
        let err2 = noc.memory(cpu).unwrap_err();
        assert_eq!(err2, XpipesError::WrongNiKind(cpu));
        let err3 = noc
            .submit(NiId(99), Request::read(0, 1).unwrap())
            .unwrap_err();
        assert_eq!(err3, XpipesError::UnknownNi(NiId(99)));
    }

    #[test]
    fn multiple_initiators_share_targets() {
        let mut b = mesh(2, 2).unwrap();
        let cpu0 = b.attach_initiator("cpu0", (0, 0)).unwrap();
        let cpu1 = b.attach_initiator("cpu1", (1, 0)).unwrap();
        let mem = b.attach_target("mem", (0, 1)).unwrap();
        let mut spec = NocSpec::new("multi", b.into_topology());
        spec.map_address(mem, 0x0, 0x10000).unwrap();
        let mut noc = Noc::new(&spec).unwrap();
        noc.submit(cpu0, Request::write(0x0, vec![1]).unwrap())
            .unwrap();
        noc.submit(cpu1, Request::write(0x8, vec![2]).unwrap())
            .unwrap();
        assert!(noc.run_until_idle(1000));
        assert_eq!(noc.memory(mem).unwrap().peek(0x0), 1);
        assert_eq!(noc.memory(mem).unwrap().peek(0x8), 2);
    }

    #[test]
    fn stats_accessors() {
        let (spec, cpu, _) = demo_spec();
        let mut noc = Noc::new(&spec).unwrap();
        noc.submit(cpu, Request::write(0x0, vec![1]).unwrap())
            .unwrap();
        noc.run_until_idle(500);
        assert!(noc.initiator_stats(cpu).is_some());
        assert_eq!(noc.name(), "demo");
        assert!(noc.now().as_u64() > 0);
        let dbg = format!("{noc:?}");
        assert!(dbg.contains("switches"));
    }

    #[test]
    fn interrupt_crosses_the_network() {
        let (spec, cpu, mem) = demo_spec();
        let mut noc = Noc::new(&spec).unwrap();
        assert_eq!(noc.pending_interrupts(cpu).unwrap(), 0);
        noc.raise_interrupt(mem, cpu).unwrap();
        assert!(noc.run_until_idle(500));
        assert_eq!(noc.pending_interrupts(cpu).unwrap(), 1);
        assert!(noc.take_interrupt(cpu).unwrap());
        assert!(!noc.take_interrupt(cpu).unwrap());
        // Interrupt packets must not fabricate OCP responses.
        assert!(noc.take_response(cpu).unwrap().is_none());
    }

    #[test]
    fn interrupt_endpoint_validation() {
        let (spec, cpu, mem) = demo_spec();
        let mut noc = Noc::new(&spec).unwrap();
        assert!(
            noc.raise_interrupt(cpu, mem).is_err(),
            "swapped roles rejected"
        );
        assert!(noc.raise_interrupt(mem, NiId(99)).is_err());
        assert!(noc.pending_interrupts(mem).is_err());
    }

    #[test]
    fn trace_captures_channel_activity() {
        let (spec, cpu, _) = demo_spec();
        let mut noc = Noc::new(&spec).unwrap();
        noc.enable_trace();
        noc.submit(cpu, Request::write(0x0, vec![1, 2]).unwrap())
            .unwrap();
        noc.run_until_idle(500);
        let vcd = noc.vcd().expect("tracing enabled");
        assert!(vcd.contains("$var wire 1"));
        assert!(vcd.contains("$var wire 8"));
        // Some channel asserted valid at some point.
        assert!(
            vcd.lines().any(|l| l.starts_with("1")),
            "no activity recorded"
        );
        assert!(Noc::new(&spec).unwrap().vcd().is_none());
    }

    /// Drives both networks forward in lock-step, submitting the same
    /// traffic, and asserts their checkpoints stay byte-identical (the
    /// strongest state-equality check available: every queue, window,
    /// RNG position, and statistic must match).
    fn assert_locked_futures(a: &mut Noc, b: &mut Noc, cpu: NiId, cycles: u64) {
        for t in 0..cycles {
            if t % 17 == 0 {
                let req = Request::write(8 * (t % 64), vec![t]).unwrap();
                a.submit(cpu, req.clone()).unwrap();
                b.submit(cpu, req).unwrap();
            }
            a.step();
            b.step();
        }
        assert_eq!(
            a.checkpoint(),
            b.checkpoint(),
            "restored network diverged from the original"
        );
    }

    #[test]
    fn checkpoint_restore_resumes_identically_under_faults() {
        let (spec, cpu, mem) = demo_spec();
        let plan = FaultPlan {
            flit_corruption_rate: 0.02,
            ack_loss_rate: 0.02,
            stall_rate: 0.001,
            stall_len: 3,
            ..FaultPlan::none()
        };
        let mut noc = Noc::with_faults(&spec, 77, &plan).unwrap();
        for i in 0..6u64 {
            noc.submit(cpu, Request::write(i * 8, vec![i + 1]).unwrap())
                .unwrap();
        }
        noc.run(120); // checkpoint mid-flight, retransmissions pending
        let bytes = noc.checkpoint();

        let mut twin = Noc::with_faults(&spec, 77, &plan).unwrap();
        twin.restore(&bytes).unwrap();
        assert_eq!(twin.now(), noc.now());
        assert_locked_futures(&mut noc, &mut twin, cpu, 600);
        assert!(noc.run_until_idle(20_000));
        assert!(twin.run_until_idle(20_000));
        assert_eq!(
            noc.memory(mem).unwrap().export_words(),
            twin.memory(mem).unwrap().export_words()
        );
    }

    #[test]
    fn checkpoint_roundtrips_observer_state() {
        let (spec, cpu, _) = demo_spec();
        let mut noc = Noc::with_seed(&spec, 5).unwrap();
        noc.enable_monitor(MonitorConfig::default());
        noc.enable_telemetry(TelemetryConfig::full());
        noc.enable_attribution();
        noc.submit(cpu, Request::write(0x0, vec![1, 2, 3]).unwrap())
            .unwrap();
        noc.run(40);
        let bytes = noc.checkpoint();

        let mut twin = Noc::with_seed(&spec, 5).unwrap();
        twin.enable_monitor(MonitorConfig::default());
        twin.enable_telemetry(TelemetryConfig::full());
        twin.enable_attribution();
        twin.restore(&bytes).unwrap();
        assert_locked_futures(&mut noc, &mut twin, cpu, 300);
        noc.flush_telemetry();
        twin.flush_telemetry();
        assert_eq!(
            noc.telemetry_registry().unwrap().to_json().render(),
            twin.telemetry_registry().unwrap().to_json().render()
        );
        assert_eq!(noc.timeline_json(), twin.timeline_json());
        assert_eq!(
            noc.attribution_report().map(|j| j.render()),
            twin.attribution_report().map(|j| j.render())
        );
    }

    #[test]
    fn restore_tolerates_observer_mismatch() {
        let (spec, cpu, _) = demo_spec();
        // Snapshot from a plain network...
        let mut noc = Noc::with_seed(&spec, 5).unwrap();
        noc.submit(cpu, Request::write(0x0, vec![9]).unwrap())
            .unwrap();
        noc.run(25);
        let plain = noc.checkpoint();
        // ...restores into one with every recorder armed.
        let mut replay = Noc::with_seed(&spec, 5).unwrap();
        replay.enable_monitor(MonitorConfig::default());
        replay.enable_telemetry(TelemetryConfig::full());
        replay.enable_attribution();
        replay.restore(&plain).unwrap();
        assert_eq!(replay.now(), noc.now());
        assert!(replay.run_until_idle(2_000));
        assert!(replay.monitor_violations().is_empty());

        // And a snapshot with observers restores into a plain network:
        // the sections are skipped wholesale.
        let rich = replay.checkpoint();
        let mut plain_noc = Noc::with_seed(&spec, 5).unwrap();
        plain_noc.restore(&rich).unwrap();
        assert_eq!(plain_noc.now(), replay.now());
    }

    #[test]
    fn restore_rejects_differently_shaped_network() {
        let (spec, cpu, _) = demo_spec();
        let mut noc = Noc::new(&spec).unwrap();
        noc.submit(cpu, Request::write(0x0, vec![1]).unwrap())
            .unwrap();
        noc.run(10);
        let bytes = noc.checkpoint();

        let mut b = mesh(3, 3).unwrap();
        let cpu2 = b.attach_initiator("cpu", (0, 0)).unwrap();
        let mem2 = b.attach_target("mem", (2, 2)).unwrap();
        let mut other_spec = NocSpec::new("other", b.into_topology());
        other_spec.map_address(mem2, 0x0, 0x10000).unwrap();
        let _ = cpu2;
        let mut other = Noc::new(&other_spec).unwrap();
        assert!(other.restore(&bytes).is_err());
        assert!(matches!(
            Noc::new(&spec).unwrap().restore(b"junk"),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn checkpoint_stitches_byte_identical_vcd() {
        let (spec, cpu, _) = demo_spec();
        // Uninterrupted traced run.
        let mut whole = Noc::with_seed(&spec, 11).unwrap();
        whole.enable_trace();
        whole
            .submit(cpu, Request::write(0x0, vec![1, 2, 3, 4]).unwrap())
            .unwrap();
        whole.run(200);

        // Same run checkpointed at cycle 60 and continued elsewhere.
        let mut first = Noc::with_seed(&spec, 11).unwrap();
        first.enable_trace();
        first
            .submit(cpu, Request::write(0x0, vec![1, 2, 3, 4]).unwrap())
            .unwrap();
        first.run(60);
        let bytes = first.checkpoint();
        let head = first.vcd().unwrap();

        let mut second = Noc::with_seed(&spec, 11).unwrap();
        second.enable_trace();
        second.restore(&bytes).unwrap();
        second.run(140);
        let tail = second.vcd().unwrap();
        assert_eq!(format!("{head}{tail}"), whole.vcd().unwrap());
    }

    #[test]
    fn burst_write_throughput() {
        let (spec, cpu, mem) = demo_spec();
        let mut noc = Noc::new(&spec).unwrap();
        let data: Vec<u64> = (0..16).collect();
        noc.submit(cpu, Request::write(0x0, data.clone()).unwrap())
            .unwrap();
        assert!(noc.run_until_idle(1000));
        for (i, v) in data.iter().enumerate() {
            assert_eq!(noc.memory(mem).unwrap().peek((i * 8) as u64), *v);
        }
    }
}
