//! Per-packet latency attribution: a causal span ledger that decomposes
//! every delivered packet's end-to-end latency into named phases, with an
//! exact conservation invariant.
//!
//! The engine is fed three kinds of events by the network assembly (it
//! knows nothing about the component types themselves, only channel
//! indices and cycle numbers):
//!
//! * **transmit** — a flit was sent onto a channel for the first time
//!   this cycle. The link layer's sender tells first sends from replays;
//!   the assembly passes on only the former, so replays open no spans.
//! * **grant** — a switch crossbar moved a tail flit into an output
//!   queue this cycle.
//! * **accept** — a consumer's link receiver accepted a tail flit
//!   in order this cycle. Accepts at NI consumers finalize the packet.
//!
//! From the resulting per-packet milestones the decomposition is a pure
//! telescoping sum, so the six phases add up to the measured end-to-end
//! latency *exactly* — not approximately — for every delivered packet:
//!
//! | phase | meaning |
//! |---|---|
//! | `source_queue` | injection until the head flit first hits the wire |
//! | `ni_packetization` | head first-send until the tail first-send (flit serialization) |
//! | `output_queue` | granted tail waiting in switch output queues |
//! | `arbitration_stall` | tail waiting in switch input stages beyond the pipeline minimum |
//! | `link_traversal` | nominal pipeline: link stages plus 2 (+extra) cycles per switch |
//! | `retx_penalty` | first send until in-order accept beyond the link depth (replays, nACK backpressure) |
//!
//! The invariant is `debug_assert!`ed on every finalization and pinned by
//! the conformance suite (`tests/attribution.rs` in crate `xpipes`); in
//! release builds a packet whose ledger cannot be decomposed (e.g. the
//! engine was attached mid-flight) is counted in
//! [`AttributionEngine::incomplete`] instead of panicking.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::json::Json;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::{Histogram, RunningStats};

/// Multiplicative hasher for packet ids. Packet ids are small sequential
/// integers handed out by the NIs, so SipHash (the `HashMap` default) is
/// pure overhead on the per-flit event path; a single Fibonacci-style
/// multiply spreads consecutive ids across buckets just as well.
#[derive(Debug, Default, Clone, Copy)]
struct PacketIdHasher(u64);

impl Hasher for PacketIdHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("packet ids hash via write_u64");
    }
    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type PacketMap = HashMap<u64, PacketLedger, BuildHasherDefault<PacketIdHasher>>;

/// Number of attribution phases.
pub const PHASE_COUNT: usize = 6;

/// One latency phase of the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Injection (packetization cycle) until the head flit's first
    /// transmission: NI source-queue residency and window backpressure.
    SourceQueue,
    /// Head first-send until tail first-send on the source channel: the
    /// cost of serializing the packet into flits.
    NiPacketization,
    /// Cycles a granted tail flit sat in switch output queues beyond the
    /// single nominal queue cycle.
    OutputQueue,
    /// Cycles a tail flit waited at switch inputs beyond the pipeline
    /// minimum — lost arbitration rounds and full output queues.
    ArbitrationStall,
    /// Nominal forwarding pipeline: link stages on every hop plus the
    /// 2-cycle switch transit (+ extra input stages on legacy switches).
    LinkTraversal,
    /// First send until in-order accept beyond the link depth:
    /// retransmissions after corruption, nACK replays, input
    /// backpressure.
    RetxPenalty,
}

impl Phase {
    /// All phases in canonical (report) order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::SourceQueue,
        Phase::NiPacketization,
        Phase::OutputQueue,
        Phase::ArbitrationStall,
        Phase::LinkTraversal,
        Phase::RetxPenalty,
    ];

    /// Stable snake_case name used in every JSON export.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SourceQueue => "source_queue",
            Phase::NiPacketization => "ni_packetization",
            Phase::OutputQueue => "output_queue",
            Phase::ArbitrationStall => "arbitration_stall",
            Phase::LinkTraversal => "link_traversal",
            Phase::RetxPenalty => "retx_penalty",
        }
    }

    /// Canonical index of this phase (position in [`Phase::ALL`]).
    pub fn index(self) -> usize {
        Phase::ALL.iter().position(|&p| p == self).expect("in ALL")
    }
}

/// What sits at the consuming end of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelConsumer {
    /// A switch input port with `extra` pipeline stages beyond the
    /// 2-stage xpipes Lite minimum (0 for the Lite switch).
    Switch {
        /// Extra input pipeline stages (5 models the legacy switch).
        extra: u64,
    },
    /// A network interface: an accept here finalizes the packet.
    Ni {
        /// Raw NI identifier (key into the engine's label map).
        id: usize,
    },
}

/// Static description of one channel, provided by the network assembly.
#[derive(Debug, Clone)]
pub struct ChannelInfo {
    /// Human-readable `producer->consumer` label.
    pub label: String,
    /// Link pipeline depth in cycles (a flit needs exactly this many
    /// cycles from transmit to earliest arrival).
    pub stages: u64,
    /// The consuming endpoint.
    pub consumer: ChannelConsumer,
    /// Raw id of the producing NI, `None` when a switch port produces
    /// the channel. Packets start on NI-produced channels.
    pub producer_ni: Option<usize>,
}

/// Histogram range for per-flow latency distributions. Matches the NI
/// statistics range (`NiStats::HIST_RANGE` in crate `xpipes`) so flow
/// percentiles line up with NI-observed latency percentiles.
const HIST_RANGE: (u64, u64, usize) = (0, 4096, 128);

/// Milestones of one hop of one packet's tail flit.
#[derive(Debug, Clone, Copy)]
struct HopRecord {
    channel: u32,
    /// Crossbar grant cycle (`None` on the source-NI hop).
    grant: Option<u64>,
    /// First *new* transmission cycle on this channel.
    first_tx: Option<u64>,
    /// In-order accept cycle at the consumer.
    accepted: Option<u64>,
}

/// The span ledger of one in-flight packet.
#[derive(Debug, Clone)]
struct PacketLedger {
    injected_at: u64,
    src: usize,
    /// First new transmission of the head flit on the source channel.
    head_first_tx: Option<u64>,
    /// Tail-flit milestones, in path order.
    hops: Vec<HopRecord>,
}

/// A finalized hop trace entry of the worst packet of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExemplarHop {
    /// Channel index the tail flit traversed.
    pub channel: u32,
    /// Crossbar grant cycle (`None` on the source-NI hop).
    pub grant: Option<u64>,
    /// First new transmission cycle.
    pub first_tx: u64,
    /// In-order accept cycle.
    pub accepted: u64,
}

/// Flight-recorder-style record of a flow's worst (slowest) packet.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Exemplar {
    /// Packet identifier.
    pub packet_id: u64,
    /// Injection cycle.
    pub injected_at: u64,
    /// Delivery (tail accept) cycle.
    pub delivered_at: u64,
    /// End-to-end latency in cycles.
    pub total: u64,
    /// Per-phase decomposition (canonical order).
    pub phases: [u64; PHASE_COUNT],
    /// Per-hop milestones along the path.
    pub hops: Vec<ExemplarHop>,
}

/// Aggregated attribution of one (source NI, destination NI) flow.
#[derive(Debug, Clone)]
struct FlowAgg {
    packets: u64,
    hist: Histogram,
    stats: RunningStats,
    max: u64,
    phases: [u64; PHASE_COUNT],
    worst: Exemplar,
}

/// Compact per-run digest for campaign reports (the attribution
/// counterpart of `TelemetrySummary`). A pure function of end-of-run
/// engine state, so it is byte-deterministic at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionSummary {
    /// Packets finalized (delivered with a complete ledger).
    pub packets: u64,
    /// Packets whose ledger could not be decomposed.
    pub incomplete: u64,
    /// Packets still in flight at the end of the run.
    pub in_flight: u64,
    /// Network-wide per-phase cycle totals (canonical order).
    pub phase_totals: [u64; PHASE_COUNT],
    /// `(src, dst, latency)` of the slowest delivered packet, when any.
    pub worst_flow: Option<(String, String, u64)>,
}

impl AttributionSummary {
    /// Deterministic JSON form.
    pub fn to_json(&self) -> Json {
        let mut b = Json::object()
            .field("packets", Json::UInt(self.packets))
            .field("incomplete", Json::UInt(self.incomplete))
            .field("in_flight", Json::UInt(self.in_flight))
            .field("phase_totals", phase_object(&self.phase_totals));
        if let Some((src, dst, latency)) = &self.worst_flow {
            b = b.field(
                "worst_flow",
                Json::object()
                    .field("src", Json::str(src.clone()))
                    .field("dst", Json::str(dst.clone()))
                    .field("latency", Json::UInt(*latency))
                    .build(),
            );
        }
        b.build()
    }
}

/// The exact phase decomposition of one delivered packet.
#[derive(Debug, Clone)]
struct Decomposed {
    total: u64,
    phases: [u64; PHASE_COUNT],
    /// Per-channel contributions, in hop order.
    per_channel: Vec<(u32, [u64; PHASE_COUNT])>,
    hops: Vec<ExemplarHop>,
}

/// The per-packet span ledger and its aggregations.
///
/// Drive it with `note_transmit` / `note_grant` / `note_accept` from the
/// simulation loop; read the results with [`report`](Self::report),
/// [`summary`](Self::summary) and
/// [`perfetto_events`](Self::perfetto_events). It may attach to a
/// running or restored network: packets already past their source NI
/// are not attributed.
#[derive(Debug, Clone)]
pub struct AttributionEngine {
    channels: Vec<ChannelInfo>,
    ni_labels: BTreeMap<usize, String>,
    /// `[switch][output port] -> channel index` (usize::MAX when the port
    /// drives no channel).
    grant_channel: Vec<Vec<usize>>,
    inflight: PacketMap,
    flows: BTreeMap<(usize, usize), FlowAgg>,
    channel_phases: Vec<[u64; PHASE_COUNT]>,
    delivered: u64,
    incomplete: u64,
}

impl AttributionEngine {
    /// Creates an engine over `channels`, with NI id → label mapping and
    /// the `[switch][port] -> channel` grant routing table.
    pub fn new(
        channels: Vec<ChannelInfo>,
        ni_labels: BTreeMap<usize, String>,
        grant_channel: Vec<Vec<usize>>,
    ) -> Self {
        let n = channels.len();
        AttributionEngine {
            channels,
            ni_labels,
            grant_channel,
            inflight: PacketMap::default(),
            flows: BTreeMap::new(),
            channel_phases: vec![[0; PHASE_COUNT]; n],
            delivered: 0,
            incomplete: 0,
        }
    }

    /// Packets finalized with an exact decomposition.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets whose ledger could not be decomposed: an event feed that
    /// missed a milestone (a bug, trapped by a debug assertion).
    pub fn incomplete(&self) -> u64 {
        self.incomplete
    }

    /// Packets with an open ledger (still in the network).
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Records a flit sent onto `channel` for the first time this cycle
    /// (its sender's retransmissions are not noted).
    pub fn note_transmit(
        &mut self,
        channel: usize,
        packet_id: u64,
        is_head: bool,
        is_tail: bool,
        injected_at: u64,
        cycle: u64,
    ) {
        if !is_head && !is_tail {
            return; // body flits carry no milestones
        }
        // A ledger opens where the packet starts: its head leaving the
        // source NI. A packet already past it has none and is skipped.
        let source = self.channels[channel].producer_ni.filter(|_| is_head);
        if let Some(src) = source {
            self.inflight.entry(packet_id).or_insert(PacketLedger {
                injected_at,
                src,
                head_first_tx: None,
                hops: Vec::new(),
            });
        }
        let Some(ledger) = self.inflight.get_mut(&packet_id) else {
            return;
        };
        if source.is_some() && ledger.head_first_tx.is_none() {
            ledger.head_first_tx = Some(cycle);
        }
        if is_tail {
            let ch = channel as u32;
            match ledger
                .hops
                .iter_mut()
                .find(|h| h.channel == ch && h.first_tx.is_none())
            {
                Some(hop) => hop.first_tx = Some(cycle),
                // Source-NI hop: no grant event precedes the send.
                None => ledger.hops.push(HopRecord {
                    channel: ch,
                    grant: None,
                    first_tx: Some(cycle),
                    accepted: None,
                }),
            }
        }
    }

    /// Records a switch crossbar moving a tail flit into output `port`
    /// this cycle.
    pub fn note_grant(&mut self, switch: usize, port: usize, packet_id: u64, cycle: u64) {
        let channel = match self.grant_channel.get(switch).and_then(|p| p.get(port)) {
            Some(&c) if c != usize::MAX => c,
            _ => return,
        };
        // No ledger means the packet predates the engine: skip (it will
        // be counted incomplete if it finalizes here at all).
        let Some(ledger) = self.inflight.get_mut(&packet_id) else {
            return;
        };
        ledger.hops.push(HopRecord {
            channel: channel as u32,
            grant: Some(cycle),
            first_tx: None,
            accepted: None,
        });
    }

    /// Records an in-order accept of a tail flit at `channel`'s consumer
    /// this cycle. Accepts at NI consumers finalize the packet.
    pub fn note_accept(&mut self, channel: usize, packet_id: u64, cycle: u64) {
        let ch = channel as u32;
        let dst = match self.channels[channel].consumer {
            ChannelConsumer::Ni { id } => Some(id),
            ChannelConsumer::Switch { .. } => None,
        };
        let Some(ledger) = self.inflight.get_mut(&packet_id) else {
            return;
        };
        if let Some(hop) = ledger
            .hops
            .iter_mut()
            .find(|h| h.channel == ch && h.accepted.is_none())
        {
            hop.accepted = Some(cycle);
        }
        if let Some(dst) = dst {
            self.finalize(packet_id, dst, cycle);
        }
    }

    /// Removes the packet's ledger and folds its exact decomposition into
    /// the aggregates.
    fn finalize(&mut self, packet_id: u64, dst: usize, delivered_at: u64) {
        let Some(ledger) = self.inflight.remove(&packet_id) else {
            return;
        };
        let Some(d) = decompose(&self.channels, &ledger, delivered_at) else {
            // Conservation is exact by construction; a failed
            // decomposition means the event feed missed a milestone (a
            // bug — trapped in debug builds).
            debug_assert!(
                false,
                "attribution conservation failed for packet {packet_id}"
            );
            self.incomplete += 1;
            return;
        };
        self.delivered += 1;
        for (ch, phases) in &d.per_channel {
            let slot = &mut self.channel_phases[*ch as usize];
            for (acc, v) in slot.iter_mut().zip(phases) {
                *acc += v;
            }
        }
        let flow = self
            .flows
            .entry((ledger.src, dst))
            .or_insert_with(|| FlowAgg {
                packets: 0,
                hist: Histogram::new(HIST_RANGE.0, HIST_RANGE.1, HIST_RANGE.2),
                stats: RunningStats::new(),
                max: 0,
                phases: [0; PHASE_COUNT],
                worst: Exemplar {
                    packet_id,
                    injected_at: ledger.injected_at,
                    delivered_at,
                    total: d.total,
                    phases: d.phases,
                    hops: d.hops.clone(),
                },
            });
        flow.packets += 1;
        flow.hist.record(d.total);
        flow.stats.record(d.total as f64);
        flow.max = flow.max.max(d.total);
        for (acc, v) in flow.phases.iter_mut().zip(&d.phases) {
            *acc += v;
        }
        // Strict > keeps the earliest packet on ties — deterministic.
        if d.total > flow.worst.total {
            flow.worst = Exemplar {
                packet_id,
                injected_at: ledger.injected_at,
                delivered_at,
                total: d.total,
                phases: d.phases,
                hops: d.hops,
            };
        }
    }

    fn ni_label(&self, id: usize) -> String {
        self.ni_labels
            .get(&id)
            .cloned()
            .unwrap_or_else(|| format!("ni{id}"))
    }

    /// The full attribution report as a deterministic JSON document:
    /// network-wide phase totals, per-flow latency histograms with worst
    /// packet exemplars, and per-channel phase contributions.
    pub fn report(&self) -> Json {
        let mut totals = [0u64; PHASE_COUNT];
        for phases in &self.channel_phases {
            for (acc, v) in totals.iter_mut().zip(phases) {
                *acc += v;
            }
        }
        let flows = self
            .flows
            .iter()
            .map(|(&(src, dst), agg)| {
                let p = |q: f64| Json::UInt(agg.hist.percentile(q).unwrap_or(0));
                Json::object()
                    .field("src", Json::str(self.ni_label(src)))
                    .field("dst", Json::str(self.ni_label(dst)))
                    .field("packets", Json::UInt(agg.packets))
                    .field(
                        "latency",
                        Json::object()
                            .field("mean", Json::Fixed(agg.stats.mean(), 2))
                            .field("p50", p(50.0))
                            .field("p95", p(95.0))
                            .field("p99", p(99.0))
                            .field("max", Json::UInt(agg.max))
                            .build(),
                    )
                    .field("phases", phase_object(&agg.phases))
                    .field("worst", self.exemplar_json(&agg.worst))
                    .build()
            })
            .collect();
        let components = self
            .channel_phases
            .iter()
            .enumerate()
            .filter(|(_, phases)| phases.iter().any(|&v| v > 0))
            .map(|(i, phases)| {
                Json::object()
                    .field("channel", Json::str(self.channels[i].label.clone()))
                    .field("total", Json::UInt(phases.iter().sum()))
                    .field("phases", phase_object(phases))
                    .build()
            })
            .collect();
        Json::object()
            .field("schema", Json::str("xpipes-attribution-v1"))
            .field("packets", Json::UInt(self.delivered))
            .field("incomplete", Json::UInt(self.incomplete))
            .field("in_flight", Json::UInt(self.inflight.len() as u64))
            .field("phase_totals", phase_object(&totals))
            .field("flows", Json::Array(flows))
            .field("components", Json::Array(components))
            .build()
    }

    fn exemplar_json(&self, ex: &Exemplar) -> Json {
        let hops = ex
            .hops
            .iter()
            .map(|h| {
                let label = self
                    .channels
                    .get(h.channel as usize)
                    .map(|c| c.label.clone())
                    .unwrap_or_else(|| format!("ch{}", h.channel));
                Json::object()
                    .field("channel", Json::str(label))
                    .field(
                        "grant",
                        match h.grant {
                            Some(g) => Json::UInt(g),
                            None => Json::Null,
                        },
                    )
                    .field("first_tx", Json::UInt(h.first_tx))
                    .field("accepted", Json::UInt(h.accepted))
                    .build()
            })
            .collect();
        Json::object()
            .field("packet", Json::UInt(ex.packet_id))
            .field("injected_at", Json::UInt(ex.injected_at))
            .field("delivered_at", Json::UInt(ex.delivered_at))
            .field("total", Json::UInt(ex.total))
            .field("phases", phase_object(&ex.phases))
            .field("hops", Json::Array(hops))
            .build()
    }

    /// Compact digest for campaign reports.
    pub fn summary(&self) -> AttributionSummary {
        let mut totals = [0u64; PHASE_COUNT];
        for phases in &self.channel_phases {
            for (acc, v) in totals.iter_mut().zip(phases) {
                *acc += v;
            }
        }
        let worst_flow = self
            .flows
            .iter()
            .max_by_key(|(_, agg)| agg.worst.total)
            .map(|(&(src, dst), agg)| (self.ni_label(src), self.ni_label(dst), agg.worst.total));
        AttributionSummary {
            packets: self.delivered,
            incomplete: self.incomplete,
            in_flight: self.inflight.len() as u64,
            phase_totals: totals,
            worst_flow,
        }
    }

    /// Chrome/Perfetto `trace_event`s for the worst packet of every flow,
    /// to be appended to the flight recorder's trace. Spans live on
    /// pid 1 (the recorder uses pid 0) with one thread per flow.
    pub fn perfetto_events(&self) -> Vec<Json> {
        let span = |name: String, ts: u64, dur: u64, tid: u64| {
            Json::object()
                .field("name", Json::str(name))
                .field("cat", Json::str("attribution"))
                .field("ph", Json::str("X"))
                .field("ts", Json::UInt(ts))
                .field("dur", Json::UInt(dur))
                .field("pid", Json::UInt(1))
                .field("tid", Json::UInt(tid))
                .build()
        };
        let mut events = Vec::new();
        for (flow_idx, (&(src, dst), agg)) in self.flows.iter().enumerate() {
            let tid = flow_idx as u64 + 1;
            events.push(
                Json::object()
                    .field("name", Json::str("thread_name"))
                    .field("ph", Json::str("M"))
                    .field("pid", Json::UInt(1))
                    .field("tid", Json::UInt(tid))
                    .field(
                        "args",
                        Json::object()
                            .field(
                                "name",
                                Json::str(format!(
                                    "worst {}->{}",
                                    self.ni_label(src),
                                    self.ni_label(dst)
                                )),
                            )
                            .build(),
                    )
                    .build(),
            );
            let ex = &agg.worst;
            events.push(span(
                format!("pkt {} e2e", ex.packet_id),
                ex.injected_at,
                ex.total,
                tid,
            ));
            let sq = ex.phases[Phase::SourceQueue.index()];
            if sq > 0 {
                events.push(span("source_queue".into(), ex.injected_at, sq, tid));
            }
            let pack = ex.phases[Phase::NiPacketization.index()];
            if pack > 0 {
                events.push(span(
                    "ni_packetization".into(),
                    ex.injected_at + sq,
                    pack,
                    tid,
                ));
            }
            for h in &ex.hops {
                let label = self
                    .channels
                    .get(h.channel as usize)
                    .map(|c| c.label.clone())
                    .unwrap_or_else(|| format!("ch{}", h.channel));
                if let Some(g) = h.grant {
                    events.push(span(
                        format!("queue {label}"),
                        g,
                        h.first_tx.saturating_sub(g),
                        tid,
                    ));
                }
                events.push(span(
                    format!("hop {label}"),
                    h.first_tx,
                    h.accepted.saturating_sub(h.first_tx),
                    tid,
                ));
            }
        }
        events
    }
}

fn save_opt_u64(w: &mut SnapshotWriter, v: Option<u64>) {
    w.bool(v.is_some());
    w.u64(v.unwrap_or(0));
}

fn load_opt_u64(r: &mut SnapshotReader<'_>) -> Result<Option<u64>, SnapshotError> {
    let present = r.bool()?;
    let v = r.u64()?;
    Ok(present.then_some(v))
}

fn save_phases(w: &mut SnapshotWriter, phases: &[u64; PHASE_COUNT]) {
    for &p in phases {
        w.u64(p);
    }
}

fn load_phases(r: &mut SnapshotReader<'_>) -> Result<[u64; PHASE_COUNT], SnapshotError> {
    let mut phases = [0u64; PHASE_COUNT];
    for p in &mut phases {
        *p = r.u64()?;
    }
    Ok(phases)
}

fn save_exemplar(w: &mut SnapshotWriter, ex: &Exemplar) {
    w.u64(ex.packet_id);
    w.u64(ex.injected_at);
    w.u64(ex.delivered_at);
    w.u64(ex.total);
    save_phases(w, &ex.phases);
    w.len(ex.hops.len());
    for h in &ex.hops {
        w.u32(h.channel);
        save_opt_u64(w, h.grant);
        w.u64(h.first_tx);
        w.u64(h.accepted);
    }
}

fn load_exemplar(r: &mut SnapshotReader<'_>) -> Result<Exemplar, SnapshotError> {
    let packet_id = r.u64()?;
    let injected_at = r.u64()?;
    let delivered_at = r.u64()?;
    let total = r.u64()?;
    let phases = load_phases(r)?;
    let n = r.len()?;
    let mut hops = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        hops.push(ExemplarHop {
            channel: r.u32()?,
            grant: load_opt_u64(r)?,
            first_tx: r.u64()?,
            accepted: r.u64()?,
        });
    }
    Ok(Exemplar {
        packet_id,
        injected_at,
        delivered_at,
        total,
        phases,
        hops,
    })
}

impl Snapshot for AttributionEngine {
    /// Saves the mutable ledger state — channels, NI labels and the
    /// grant routing table are structural (rebuilt by
    /// `enable_attribution`). In-flight ledgers are written in ascending
    /// packet-id order so the payload is deterministic despite the hash
    /// map.
    fn save_state(&self, w: &mut SnapshotWriter) {
        let mut ids: Vec<u64> = self.inflight.keys().copied().collect();
        ids.sort_unstable();
        w.len(ids.len());
        for id in ids {
            let ledger = &self.inflight[&id];
            w.u64(id);
            w.u64(ledger.injected_at);
            w.u64(ledger.src as u64);
            save_opt_u64(w, ledger.head_first_tx);
            w.len(ledger.hops.len());
            for h in &ledger.hops {
                w.u32(h.channel);
                save_opt_u64(w, h.grant);
                save_opt_u64(w, h.first_tx);
                save_opt_u64(w, h.accepted);
            }
        }
        w.len(self.flows.len());
        for (&(src, dst), agg) in &self.flows {
            w.u64(src as u64);
            w.u64(dst as u64);
            w.u64(agg.packets);
            agg.hist.save_state(w);
            agg.stats.save_state(w);
            w.u64(agg.max);
            save_phases(w, &agg.phases);
            save_exemplar(w, &agg.worst);
        }
        w.len(self.channel_phases.len());
        for phases in &self.channel_phases {
            save_phases(w, phases);
        }
        w.u64(self.delivered);
        w.u64(self.incomplete);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inflight.clear();
        let packets = r.len()?;
        for _ in 0..packets {
            let id = r.u64()?;
            let injected_at = r.u64()?;
            let src = r.u64()? as usize;
            let head_first_tx = load_opt_u64(r)?;
            let hop_count = r.len()?;
            let mut hops = Vec::with_capacity(hop_count.min(256));
            for _ in 0..hop_count {
                hops.push(HopRecord {
                    channel: r.u32()?,
                    grant: load_opt_u64(r)?,
                    first_tx: load_opt_u64(r)?,
                    accepted: load_opt_u64(r)?,
                });
            }
            self.inflight.insert(
                id,
                PacketLedger {
                    injected_at,
                    src,
                    head_first_tx,
                    hops,
                },
            );
        }
        self.flows.clear();
        let flow_count = r.len()?;
        for _ in 0..flow_count {
            let src = r.u64()? as usize;
            let dst = r.u64()? as usize;
            let packets = r.u64()?;
            let mut hist = Histogram::new(HIST_RANGE.0, HIST_RANGE.1, HIST_RANGE.2);
            hist.load_state(r)?;
            let mut stats = RunningStats::new();
            stats.load_state(r)?;
            let max = r.u64()?;
            let phases = load_phases(r)?;
            let worst = load_exemplar(r)?;
            self.flows.insert(
                (src, dst),
                FlowAgg {
                    packets,
                    hist,
                    stats,
                    max,
                    phases,
                    worst,
                },
            );
        }
        let chans = r.len()?;
        if chans != self.channel_phases.len() {
            return Err(SnapshotError::Malformed(format!(
                "attribution phase-table size mismatch: snapshot {chans}, target {}",
                self.channel_phases.len()
            )));
        }
        for phases in &mut self.channel_phases {
            *phases = load_phases(r)?;
        }
        self.delivered = r.u64()?;
        self.incomplete = r.u64()?;
        Ok(())
    }
}

/// Builds the canonical six-field phase object.
fn phase_object(phases: &[u64; PHASE_COUNT]) -> Json {
    let mut b = Json::object();
    for ph in Phase::ALL {
        b = b.field(ph.name(), Json::UInt(phases[ph.index()]));
    }
    b.build()
}

/// Computes the exact telescoping decomposition of one ledger, or `None`
/// when a milestone is missing or inconsistent.
fn decompose(
    channels: &[ChannelInfo],
    ledger: &PacketLedger,
    delivered_at: u64,
) -> Option<Decomposed> {
    let total = delivered_at.checked_sub(ledger.injected_at)?;
    let head_first_tx = ledger.head_first_tx?;
    let mut phases = [0u64; PHASE_COUNT];
    let mut per_channel: Vec<(u32, [u64; PHASE_COUNT])> = Vec::with_capacity(ledger.hops.len());
    let mut hops = Vec::with_capacity(ledger.hops.len());

    let first = ledger.hops.first()?;
    let first_tx0 = first.first_tx?;
    let source_queue = head_first_tx.checked_sub(ledger.injected_at)?;
    let ni_pack = first_tx0.checked_sub(head_first_tx)?;

    let mut prev_accept: Option<u64> = None;
    for (h, hop) in ledger.hops.iter().enumerate() {
        let info = channels.get(hop.channel as usize)?;
        let first_tx = hop.first_tx?;
        let accepted = hop.accepted?;
        let mut contrib = [0u64; PHASE_COUNT];
        // Retransmission penalty: time beyond the link's nominal depth.
        let retx = accepted.checked_sub(first_tx.checked_add(info.stages)?)?;
        contrib[Phase::RetxPenalty.index()] = retx;
        contrib[Phase::LinkTraversal.index()] = info.stages;
        if h == 0 {
            if info.producer_ni.is_none() || hop.grant.is_some() {
                return None; // the first hop must leave a source NI
            }
            contrib[Phase::SourceQueue.index()] = source_queue;
            contrib[Phase::NiPacketization.index()] = ni_pack;
        } else {
            // The switch producing this hop is the consumer of the
            // previous one; its input pipeline sets the nominal transit.
            let prev_info = channels.get(ledger.hops[h - 1].channel as usize)?;
            let extra = match prev_info.consumer {
                ChannelConsumer::Switch { extra } => extra,
                ChannelConsumer::Ni { .. } => return None,
            };
            let grant = hop.grant?;
            let prev = prev_accept?;
            let arb = grant.checked_sub(prev.checked_add(1 + extra)?)?;
            let outq = first_tx.checked_sub(grant.checked_add(1)?)?;
            contrib[Phase::ArbitrationStall.index()] = arb;
            contrib[Phase::OutputQueue.index()] = outq;
            contrib[Phase::LinkTraversal.index()] += 2 + extra;
        }
        for (acc, v) in phases.iter_mut().zip(&contrib) {
            *acc += v;
        }
        per_channel.push((hop.channel, contrib));
        hops.push(ExemplarHop {
            channel: hop.channel,
            grant: hop.grant,
            first_tx,
            accepted,
        });
        prev_accept = Some(accepted);
    }
    // The last hop's accept must be the delivery itself.
    if prev_accept != Some(delivered_at) {
        return None;
    }
    // Conservation: the telescoping construction guarantees equality;
    // anything else is an engine bug.
    if phases.iter().sum::<u64>() != total {
        return None;
    }
    Some(Decomposed {
        total,
        phases,
        per_channel,
        hops,
    })
}

/// One ranked `(channel, phase)` cell of a report diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// Channel (component) label.
    pub channel: String,
    /// Phase name.
    pub phase: &'static str,
    /// Cycles attributed in the baseline report.
    pub baseline: u64,
    /// Cycles attributed in the current report.
    pub current: u64,
}

impl DiffEntry {
    /// Signed movement (`current - baseline`).
    pub fn delta(&self) -> i64 {
        self.current as i64 - self.baseline as i64
    }
}

/// The comparison of two attribution reports: which components and
/// phases moved, ranked by absolute contribution to the delta.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionDiff {
    /// Total attributed cycles in the baseline report.
    pub baseline_total: u64,
    /// Total attributed cycles in the current report.
    pub current_total: u64,
    /// Network-wide per-phase totals: `(phase, baseline, current)`.
    pub phase_totals: Vec<(&'static str, u64, u64)>,
    /// Moved `(channel, phase)` cells, largest |delta| first (ties break
    /// on channel label, then canonical phase order).
    pub entries: Vec<DiffEntry>,
}

impl AttributionDiff {
    /// Deterministic human-readable rendering; `limit` caps the number
    /// of ranked movers printed.
    pub fn render(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let delta = self.current_total as i64 - self.baseline_total as i64;
        let _ = writeln!(
            out,
            "attribution diff: total attributed cycles {} -> {} ({:+})",
            self.baseline_total, self.current_total, delta
        );
        let _ = writeln!(out, "  phase totals:");
        for (name, base, cur) in &self.phase_totals {
            let _ = writeln!(
                out,
                "    {name:<18} {base} -> {cur} ({:+})",
                *cur as i64 - *base as i64
            );
        }
        if self.entries.is_empty() {
            let _ = writeln!(out, "  no component moved");
            return out;
        }
        let _ = writeln!(out, "  top movers (channel x phase):");
        for (rank, e) in self.entries.iter().take(limit).enumerate() {
            let _ = writeln!(
                out,
                "    {:>2}. {:>+8}  {:<18} {}  ({} -> {})",
                rank + 1,
                e.delta(),
                e.phase,
                e.channel,
                e.baseline,
                e.current
            );
        }
        if self.entries.len() > limit {
            let _ = writeln!(out, "    ... {} more", self.entries.len() - limit);
        }
        out
    }
}

/// Reads the six-phase object at `key` of an attribution report.
fn phases_from(report: &Json, key: &str, ctx: &str) -> Result<[u64; PHASE_COUNT], String> {
    let obj = report
        .get(key)
        .ok_or_else(|| format!("malformed attribution report: {ctx} has no \"{key}\""))?;
    let mut out = [0u64; PHASE_COUNT];
    for ph in Phase::ALL {
        out[ph.index()] = obj.get(ph.name()).and_then(Json::as_u64).ok_or_else(|| {
            format!(
                "malformed attribution report: {ctx} \"{key}\" misses phase \"{}\"",
                ph.name()
            )
        })?;
    }
    Ok(out)
}

/// Extracts `channel -> phases` from a report's `components` array.
fn components_from(
    report: &Json,
    ctx: &str,
) -> Result<BTreeMap<String, [u64; PHASE_COUNT]>, String> {
    let comps = report
        .get("components")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("malformed attribution report: {ctx} has no \"components\""))?;
    let mut out = BTreeMap::new();
    for comp in comps {
        let channel = comp.get("channel").and_then(Json::as_str).ok_or_else(|| {
            format!("malformed attribution report: {ctx} component misses \"channel\"")
        })?;
        out.insert(channel.to_string(), phases_from(comp, "phases", ctx)?);
    }
    Ok(out)
}

/// Compares two attribution reports (as parsed JSON), ranking
/// `(channel, phase)` cells by their contribution to the latency delta.
/// The result — and its rendering — is byte-deterministic.
///
/// # Errors
///
/// A message naming the missing/ill-typed field when either document is
/// not an attribution report.
pub fn diff(baseline: &Json, current: &Json) -> Result<AttributionDiff, String> {
    let base_phases = phases_from(baseline, "phase_totals", "baseline")?;
    let cur_phases = phases_from(current, "phase_totals", "current")?;
    let base_comps = components_from(baseline, "baseline")?;
    let cur_comps = components_from(current, "current")?;

    let mut keys: Vec<&String> = base_comps.keys().collect();
    for k in cur_comps.keys() {
        if !base_comps.contains_key(k) {
            keys.push(k);
        }
    }
    keys.sort();

    let zero = [0u64; PHASE_COUNT];
    let mut entries = Vec::new();
    for channel in keys {
        let base = base_comps.get(channel).unwrap_or(&zero);
        let cur = cur_comps.get(channel).unwrap_or(&zero);
        for ph in Phase::ALL {
            let (b, c) = (base[ph.index()], cur[ph.index()]);
            if b != c {
                entries.push(DiffEntry {
                    channel: channel.clone(),
                    phase: ph.name(),
                    baseline: b,
                    current: c,
                });
            }
        }
    }
    entries.sort_by(|a, b| {
        b.delta()
            .abs()
            .cmp(&a.delta().abs())
            .then_with(|| a.channel.cmp(&b.channel))
            .then_with(|| a.phase.cmp(b.phase))
    });

    Ok(AttributionDiff {
        baseline_total: base_phases.iter().sum(),
        current_total: cur_phases.iter().sum(),
        phase_totals: Phase::ALL
            .iter()
            .map(|&ph| (ph.name(), base_phases[ph.index()], cur_phases[ph.index()]))
            .collect(),
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic 3-channel path: ini0 -> sw0.p0 -> tgt1, one-stage links,
    /// Lite switch (extra = 0).
    fn engine() -> AttributionEngine {
        let channels = vec![
            ChannelInfo {
                label: "ini0->sw0.p0".into(),
                stages: 1,
                consumer: ChannelConsumer::Switch { extra: 0 },
                producer_ni: Some(0),
            },
            ChannelInfo {
                label: "sw0.p1->tgt1".into(),
                stages: 1,
                consumer: ChannelConsumer::Ni { id: 1 },
                producer_ni: None,
            },
        ];
        let mut labels = BTreeMap::new();
        labels.insert(0usize, "ini0".to_string());
        labels.insert(1usize, "tgt1".to_string());
        // sw0: port 1 drives channel 1.
        let grant_channel = vec![vec![usize::MAX, 1]];
        AttributionEngine::new(channels, labels, grant_channel)
    }

    /// Drives one single-flit packet along the minimal schedule:
    /// inject 0, tx 1, accept 2 (stage-1 link), grant 3, tx 4, accept 5.
    fn minimal_packet(e: &mut AttributionEngine, id: u64) {
        e.note_transmit(0, id, true, true, 0, 1);
        e.note_accept(0, id, 2);
        e.note_grant(0, 1, id, 3);
        e.note_transmit(1, id, true, true, 0, 4);
        e.note_accept(1, id, 5);
    }

    #[test]
    fn minimal_path_is_pure_pipeline() {
        let mut e = engine();
        minimal_packet(&mut e, 7);
        assert_eq!(e.delivered(), 1);
        assert_eq!(e.incomplete(), 0);
        assert_eq!(e.in_flight(), 0);
        let s = e.summary();
        // total = 5: 1 cycle source queue + link(1) + switch transit(2) + link(1).
        assert_eq!(s.phase_totals[Phase::SourceQueue.index()], 1);
        assert_eq!(s.phase_totals[Phase::NiPacketization.index()], 0);
        assert_eq!(s.phase_totals[Phase::OutputQueue.index()], 0);
        assert_eq!(s.phase_totals[Phase::ArbitrationStall.index()], 0);
        assert_eq!(s.phase_totals[Phase::LinkTraversal.index()], 4);
        assert_eq!(s.phase_totals[Phase::RetxPenalty.index()], 0);
        assert_eq!(s.phase_totals.iter().sum::<u64>(), 5);
        assert_eq!(s.worst_flow, Some(("ini0".into(), "tgt1".into(), 5)));
    }

    #[test]
    fn stalls_and_replays_land_in_their_phases() {
        let mut e = engine();
        // Head tx at 3 (source queue 3), tail tx at 5 (packetization 2).
        e.note_transmit(0, 9, true, false, 0, 3);
        e.note_transmit(0, 9, false, true, 0, 5);
        // Tail nACKed once: its replay at 7 is no first send and is not
        // noted; accepted at 8 → retx penalty 8 - 5 - 1 = 2.
        e.note_accept(0, 9, 8);
        // Grant delayed to 11 → arbitration stall 11 - 8 - 1 = 2.
        e.note_grant(0, 1, 9, 11);
        // Out-queue wait: tx at 14 → output queue 14 - 11 - 1 = 2.
        e.note_transmit(1, 9, false, true, 0, 14);
        e.note_accept(1, 9, 15);
        let s = e.summary();
        assert_eq!(s.phase_totals[Phase::SourceQueue.index()], 3);
        assert_eq!(s.phase_totals[Phase::NiPacketization.index()], 2);
        assert_eq!(s.phase_totals[Phase::RetxPenalty.index()], 2);
        assert_eq!(s.phase_totals[Phase::ArbitrationStall.index()], 2);
        assert_eq!(s.phase_totals[Phase::OutputQueue.index()], 2);
        assert_eq!(s.phase_totals[Phase::LinkTraversal.index()], 4);
        assert_eq!(s.phase_totals.iter().sum::<u64>(), 15);
        assert_eq!(e.delivered(), 1);
    }

    #[test]
    fn report_is_deterministic_and_parseable() {
        let mk = || {
            let mut e = engine();
            minimal_packet(&mut e, 1);
            e.report().render()
        };
        let text = mk();
        assert_eq!(text, mk());
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("packets").unwrap().as_u64(), Some(1));
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("xpipes-attribution-v1")
        );
        let flows = doc.get("flows").unwrap().as_array().unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].get("src").unwrap().as_str(), Some("ini0"));
        let worst = flows[0].get("worst").unwrap();
        assert_eq!(worst.get("total").unwrap().as_u64(), Some(5));
        assert_eq!(worst.get("hops").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn diff_ranks_biggest_mover_first() {
        let mut base = engine();
        minimal_packet(&mut base, 1);
        let baseline = base.report();

        // Current run: same packet shape, but the switch output stalls the
        // second hop for 40 cycles (output queue).
        let mut cur = engine();
        cur.note_transmit(0, 1, true, true, 0, 1);
        cur.note_accept(0, 1, 2);
        cur.note_grant(0, 1, 1, 3);
        cur.note_transmit(1, 1, true, true, 0, 44);
        cur.note_accept(1, 1, 45);
        let current = cur.report();

        let d = diff(&baseline, &current).unwrap();
        assert_eq!(d.entries[0].channel, "sw0.p1->tgt1");
        assert_eq!(d.entries[0].phase, "output_queue");
        assert_eq!(d.entries[0].delta(), 40);
        // Rendering is deterministic.
        assert_eq!(d.render(10), diff(&baseline, &current).unwrap().render(10));
        assert!(d.render(10).contains("output_queue"));
    }

    #[test]
    fn diff_rejects_malformed_reports() {
        let good = {
            let mut e = engine();
            minimal_packet(&mut e, 1);
            e.report()
        };
        let bad = Json::parse("{\"phase_totals\": {}}").unwrap();
        assert!(diff(&bad, &good).unwrap_err().contains("phase"));
        let empty = Json::parse("{}").unwrap();
        assert!(diff(&good, &empty).unwrap_err().contains("current"));
    }

    #[test]
    fn mid_flight_attach_counts_incomplete_not_panic() {
        let mut e = engine();
        // Accept for a packet the engine never saw transmitted: ignored.
        e.note_accept(1, 99, 5);
        assert_eq!(e.incomplete(), 0);
        assert_eq!(e.delivered(), 0);
    }

    #[test]
    fn perfetto_events_cover_worst_packets() {
        let mut e = engine();
        minimal_packet(&mut e, 1);
        let events = e.perfetto_events();
        // thread_name + e2e + source_queue + 2 hops + 1 queue span.
        assert!(events.len() >= 4);
        let rendered: Vec<String> = events.iter().map(Json::render).collect();
        assert!(rendered.iter().any(|s| s.contains("thread_name")));
        assert!(rendered.iter().any(|s| s.contains("pkt 1 e2e")));
        assert!(rendered.iter().any(|s| s.contains("hop ini0->sw0.p0")));
    }
}
