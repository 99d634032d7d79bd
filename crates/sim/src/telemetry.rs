//! Low-overhead observability primitives: a per-component metric
//! registry, time-windowed congestion timelines, and a bounded
//! flight-recorder event trace with Chrome/Perfetto export.
//!
//! The design constraint throughout is that observation must compose
//! with the cycle engine's idle-skipping fast path instead of disabling
//! it. Components therefore keep their own cheap cumulative counters
//! (they already do — switch stats, link traversal counts, NI stats)
//! and the registry is *epoch-aggregated*: once per epoch (every 64
//! cycles in the network engine) the engine scans those counters and
//! publishes the values here. Between epochs telemetry costs one compare
//! per cycle against the next epoch boundary, no atomics are involved
//! (the simulator is single-threaded per network), and no RNG stream is
//! touched, so enabling telemetry cannot perturb simulated behaviour.
//!
//! All exports render through [`crate::json::Json`], so they are
//! byte-deterministic for a given seed and sampling configuration.

use std::collections::VecDeque;

use crate::json::Json;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Handle to a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(usize);

/// Handle to a registered component (a switch, link/channel, or NI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(usize);

/// Whether a metric is a monotone counter or an instantaneous gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Cumulative count; `set` publishes the latest running total.
    Counter,
    /// Point-in-time sample; the registry also tracks the peak observed.
    Gauge,
}

#[derive(Debug, Clone)]
struct Metric {
    component: usize,
    name: String,
    kind: MetricKind,
    value: u64,
    peak: u64,
}

/// Registry of per-component counters and gauges, fed by epoch
/// sampling.
///
/// Registration order is the export order, which makes `to_json`
/// deterministic. Publishing a value is a plain store — there is no
/// per-event instrumentation and no synchronization.
///
/// # Examples
///
/// ```
/// use xpipes_sim::telemetry::{MetricsRegistry, MetricKind};
///
/// let mut reg = MetricsRegistry::new();
/// let sw = reg.add_component("sw0");
/// let flits = reg.counter(sw, "flits_forwarded");
/// let depth = reg.gauge(sw, "queue_depth");
/// reg.set(flits, 120);
/// reg.sample(depth, 3);
/// reg.sample(depth, 1);
/// reg.note_epoch();
/// assert_eq!(reg.value(flits), 120);
/// assert_eq!(reg.peak(depth), 3);
/// assert_eq!(reg.value(depth), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    components: Vec<String>,
    metrics: Vec<Metric>,
    epochs: u64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a component; the name appears in the JSON export.
    pub fn add_component(&mut self, name: impl Into<String>) -> ComponentId {
        self.components.push(name.into());
        ComponentId(self.components.len() - 1)
    }

    /// Registers a cumulative counter under `component`.
    pub fn counter(&mut self, component: ComponentId, name: impl Into<String>) -> MetricId {
        self.register(component, name.into(), MetricKind::Counter)
    }

    /// Registers an instantaneous gauge under `component`.
    pub fn gauge(&mut self, component: ComponentId, name: impl Into<String>) -> MetricId {
        self.register(component, name.into(), MetricKind::Gauge)
    }

    fn register(&mut self, component: ComponentId, name: String, kind: MetricKind) -> MetricId {
        assert!(component.0 < self.components.len(), "unknown component");
        self.metrics.push(Metric {
            component: component.0,
            name,
            kind,
            value: 0,
            peak: 0,
        });
        MetricId(self.metrics.len() - 1)
    }

    /// Publishes a counter's running total (last write wins).
    pub fn set(&mut self, id: MetricId, total: u64) {
        let m = &mut self.metrics[id.0];
        m.value = total;
        m.peak = m.peak.max(total);
    }

    /// Publishes a gauge sample, tracking the peak.
    pub fn sample(&mut self, id: MetricId, value: u64) {
        let m = &mut self.metrics[id.0];
        m.value = value;
        m.peak = m.peak.max(value);
    }

    /// Marks the end of a sampling epoch.
    pub fn note_epoch(&mut self) {
        self.epochs += 1;
    }

    /// Number of completed sampling epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Latest published value of a metric.
    pub fn value(&self, id: MetricId) -> u64 {
        self.metrics[id.0].value
    }

    /// Peak value observed for a metric (equals the latest total for
    /// counters, which are monotone).
    pub fn peak(&self, id: MetricId) -> u64 {
        self.metrics[id.0].peak
    }

    /// Deterministic JSON export, grouped by component in registration
    /// order.
    pub fn to_json(&self) -> Json {
        let mut components = Vec::with_capacity(self.components.len());
        for (ci, name) in self.components.iter().enumerate() {
            let mut metrics = Vec::new();
            for m in self.metrics.iter().filter(|m| m.component == ci) {
                let mut b = Json::object()
                    .field("name", Json::str(m.name.clone()))
                    .field(
                        "kind",
                        Json::str(match m.kind {
                            MetricKind::Counter => "counter",
                            MetricKind::Gauge => "gauge",
                        }),
                    )
                    .field("value", Json::UInt(m.value));
                if m.kind == MetricKind::Gauge {
                    b = b.field("peak", Json::UInt(m.peak));
                }
                metrics.push(b.build());
            }
            components.push(
                Json::object()
                    .field("name", Json::str(name.clone()))
                    .field("metrics", Json::Array(metrics))
                    .build(),
            );
        }
        Json::object()
            .field("epochs", Json::UInt(self.epochs))
            .field("components", Json::Array(components))
            .build()
    }
}

impl Snapshot for MetricsRegistry {
    /// Saves the published values — components and metric names are
    /// structural (re-registered by `enable_telemetry` on restore).
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.u64(self.epochs);
        w.len(self.metrics.len());
        for m in &self.metrics {
            w.u64(m.value);
            w.u64(m.peak);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.epochs = r.u64()?;
        let n = r.len()?;
        if n != self.metrics.len() {
            return Err(SnapshotError::Malformed(format!(
                "metric count mismatch: snapshot {n}, registry {}",
                self.metrics.len()
            )));
        }
        for m in &mut self.metrics {
            m.value = r.u64()?;
            m.peak = r.u64()?;
        }
        Ok(())
    }
}

/// One sampling window of the congestion timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TimelineWindow {
    /// First cycle covered by the window.
    pub start: u64,
    /// Forward-flit traversals per link during the window (link order
    /// matches [`CongestionTimeline::link_labels`]).
    pub link_flits: Vec<u32>,
    /// Output-queue occupancy per switch, sampled at the window
    /// boundary (switch order matches
    /// [`CongestionTimeline::switch_labels`]).
    pub queue_depth: Vec<u32>,
}

/// Time-windowed per-link utilization and per-switch queue depth.
///
/// The engine pushes one window every `interval` cycles; each window
/// stores the traversal *delta* over the window (so utilization is
/// `link_flits / interval`) and a point sample of queue occupancy.
#[derive(Debug, Clone)]
pub struct CongestionTimeline {
    interval: u64,
    link_labels: Vec<String>,
    switch_labels: Vec<String>,
    windows: Vec<TimelineWindow>,
}

impl CongestionTimeline {
    /// Creates an empty timeline over the given links and switches.
    pub fn new(interval: u64, link_labels: Vec<String>, switch_labels: Vec<String>) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        CongestionTimeline {
            interval,
            link_labels,
            switch_labels,
            windows: Vec::new(),
        }
    }

    /// Appends a completed window.
    ///
    /// # Panics
    ///
    /// Panics when the column counts do not match the labels.
    pub fn push(&mut self, start: u64, link_flits: Vec<u32>, queue_depth: Vec<u32>) {
        assert_eq!(link_flits.len(), self.link_labels.len());
        assert_eq!(queue_depth.len(), self.switch_labels.len());
        self.windows.push(TimelineWindow {
            start,
            link_flits,
            queue_depth,
        });
    }

    /// Deterministic JSON export.
    pub(crate) fn to_json(&self) -> Json {
        let windows = self
            .windows
            .iter()
            .map(|w| {
                Json::object()
                    .field("start", Json::UInt(w.start))
                    .field(
                        "link_flits",
                        Json::Array(w.link_flits.iter().map(|&v| Json::UInt(v as u64)).collect()),
                    )
                    .field(
                        "queue_depth",
                        Json::Array(
                            w.queue_depth
                                .iter()
                                .map(|&v| Json::UInt(v as u64))
                                .collect(),
                        ),
                    )
                    .build()
            })
            .collect();
        Json::object()
            .field("interval", Json::UInt(self.interval))
            .field(
                "links",
                Json::Array(self.link_labels.iter().map(Json::str).collect()),
            )
            .field(
                "switches",
                Json::Array(self.switch_labels.iter().map(Json::str).collect()),
            )
            .field("windows", Json::Array(windows))
            .build()
    }

    /// Rendered JSON document.
    pub fn render(&self) -> String {
        self.to_json().render()
    }
}

impl Snapshot for CongestionTimeline {
    /// Saves the recorded windows — interval and labels are structural.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.len(self.windows.len());
        for win in &self.windows {
            w.u64(win.start);
            for &v in &win.link_flits {
                w.u32(v);
            }
            for &v in &win.queue_depth {
                w.u32(v);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.len()?;
        self.windows.clear();
        for _ in 0..n {
            let start = r.u64()?;
            let mut link_flits = Vec::with_capacity(self.link_labels.len());
            for _ in 0..self.link_labels.len() {
                link_flits.push(r.u32()?);
            }
            let mut queue_depth = Vec::with_capacity(self.switch_labels.len());
            for _ in 0..self.switch_labels.len() {
                queue_depth.push(r.u32()?);
            }
            self.windows.push(TimelineWindow {
                start,
                link_flits,
                queue_depth,
            });
        }
        Ok(())
    }
}

/// What a flight-recorder event witnessed on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A new flit entered the forward channel.
    Transmit,
    /// A previously sent sequence number went out again (go-back-N
    /// rewind or timeout replay).
    Retransmit,
    /// A flit arrived intact at the consumer.
    Arrival,
    /// A flit arrived with its corruption flag set (will be nACKed).
    CorruptArrival,
    /// A tail flit arrived intact at a destination NI — the packet left
    /// the network.
    Deliver,
}

impl TraceEventKind {
    /// Stable lowercase name used in exports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            TraceEventKind::Transmit => "transmit",
            TraceEventKind::Retransmit => "retransmit",
            TraceEventKind::Arrival => "arrival",
            TraceEventKind::CorruptArrival => "corrupt_arrival",
            TraceEventKind::Deliver => "deliver",
        }
    }
}

/// One flit-level observation. Events record what appeared on the wire
/// — an out-of-window duplicate still logs an `Arrival` even though the
/// receiver re-ACKs it without delivering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the event was observed.
    pub cycle: u64,
    /// Channel index (dense, network assembly order).
    pub channel: u32,
    /// Packet the flit belongs to.
    pub packet_id: u64,
    /// Cycle the packet was injected at its source NI.
    pub injected_at: u64,
    /// Link-level go-back-N sequence number.
    pub seq: u8,
    /// What was observed.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Human-readable one-line rendering; `label` names the channel.
    pub fn render(&self, label: &str) -> String {
        format!(
            "[cycle {}] {} ch{}({}) pkt {} seq {}",
            self.cycle,
            self.kind.name(),
            self.channel,
            label,
            self.packet_id,
            self.seq
        )
    }
}

/// A frozen snapshot of the flight recorder, captured at the moment an
/// invariant tripped.
#[derive(Debug, Clone)]
pub struct FrozenDump {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Ring contents at that moment, oldest first.
    pub events: Vec<TraceEvent>,
}

/// Bounded ring buffer of recent flit-level events.
///
/// The recorder is fed only from channels the engine actually touches,
/// so the idle-skipping fast path stays intact: a skipped channel is
/// provably inert and produces no events. When a protocol invariant
/// trips, [`freeze`](Self::freeze) captures the ring so the last-K
/// events survive however long the run continues afterwards.
///
/// Transmissions arrive already classified: the link layer's sender
/// says whether a flit is a first send (`Transmit`) or a replay
/// (`Retransmit`), so the recorder keeps no per-channel state and may
/// be armed at any point of a run.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    depth: usize,
    ring: VecDeque<TraceEvent>,
    frozen: Option<FrozenDump>,
}

impl FlightRecorder {
    /// A recorder holding at most `depth` events.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "flight recorder depth must be positive");
        FlightRecorder {
            depth,
            ring: VecDeque::with_capacity(depth.min(4096)),
            frozen: None,
        }
    }

    /// Appends an event, evicting the oldest once full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.ring.len() == self.depth {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
    }

    /// Captures the current ring as the crash dump. Only the first
    /// freeze sticks — later violations in the same run must not
    /// overwrite the trace of the original trip.
    pub fn freeze(&mut self, cycle: u64) {
        if self.frozen.is_none() {
            self.frozen = Some(FrozenDump {
                cycle,
                events: self.ring.iter().copied().collect(),
            });
        }
    }

    /// The frozen dump, when a freeze happened.
    pub fn frozen(&self) -> Option<&FrozenDump> {
        self.frozen.as_ref()
    }

    /// The events to dump: the frozen snapshot when one exists,
    /// otherwise the live ring contents.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        match &self.frozen {
            Some(dump) => dump.events.clone(),
            None => self.ring.iter().copied().collect(),
        }
    }
}

impl TraceEventKind {
    fn snapshot_tag(self) -> u8 {
        match self {
            TraceEventKind::Transmit => 0,
            TraceEventKind::Retransmit => 1,
            TraceEventKind::Arrival => 2,
            TraceEventKind::CorruptArrival => 3,
            TraceEventKind::Deliver => 4,
        }
    }

    fn from_snapshot_tag(tag: u8) -> Result<Self, SnapshotError> {
        Ok(match tag {
            0 => TraceEventKind::Transmit,
            1 => TraceEventKind::Retransmit,
            2 => TraceEventKind::Arrival,
            3 => TraceEventKind::CorruptArrival,
            4 => TraceEventKind::Deliver,
            other => {
                return Err(SnapshotError::Malformed(format!(
                    "bad trace event kind tag {other}"
                )))
            }
        })
    }
}

fn save_trace_event(w: &mut SnapshotWriter, ev: &TraceEvent) {
    w.u64(ev.cycle);
    w.u32(ev.channel);
    w.u64(ev.packet_id);
    w.u64(ev.injected_at);
    w.u8(ev.seq);
    w.u8(ev.kind.snapshot_tag());
}

fn load_trace_event(r: &mut SnapshotReader<'_>) -> Result<TraceEvent, SnapshotError> {
    Ok(TraceEvent {
        cycle: r.u64()?,
        channel: r.u32()?,
        packet_id: r.u64()?,
        injected_at: r.u64()?,
        seq: r.u8()?,
        kind: TraceEventKind::from_snapshot_tag(r.u8()?)?,
    })
}

impl Snapshot for FlightRecorder {
    /// Saves the event ring and the frozen dump (if any) — the depth is
    /// structural.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.len(self.ring.len());
        for ev in &self.ring {
            save_trace_event(w, ev);
        }
        w.bool(self.frozen.is_some());
        if let Some(dump) = &self.frozen {
            w.u64(dump.cycle);
            w.len(dump.events.len());
            for ev in &dump.events {
                save_trace_event(w, ev);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.len()?;
        self.ring.clear();
        for _ in 0..n {
            self.ring.push_back(load_trace_event(r)?);
        }
        self.frozen = if r.bool()? {
            let cycle = r.u64()?;
            let count = r.len()?;
            let mut events = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                events.push(load_trace_event(r)?);
            }
            Some(FrozenDump { cycle, events })
        } else {
            None
        };
        Ok(())
    }
}

/// Per-run telemetry digest embedded in campaign reports: where the
/// protocol worked hardest. A pure function of end-of-run component
/// counters, so it is byte-deterministic at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// Total link-layer retransmissions across all senders.
    pub total_retransmissions: u64,
    /// Links with a nonzero retransmission count, in channel order.
    pub link_retransmissions: Vec<(String, u64)>,
    /// Highest output-queue occupancy any switch reached.
    pub peak_queue_depth: u64,
    /// Label of the switch that reached it (empty without switches).
    pub peak_queue_switch: String,
}

impl TelemetrySummary {
    /// Deterministic JSON form.
    pub fn to_json(&self) -> Json {
        let links = self
            .link_retransmissions
            .iter()
            .map(|(label, count)| {
                Json::object()
                    .field("link", Json::str(label.clone()))
                    .field("retransmissions", Json::UInt(*count))
                    .build()
            })
            .collect();
        Json::object()
            .field(
                "total_retransmissions",
                Json::UInt(self.total_retransmissions),
            )
            .field("peak_queue_depth", Json::UInt(self.peak_queue_depth))
            .field(
                "peak_queue_switch",
                Json::str(self.peak_queue_switch.clone()),
            )
            .field("link_retransmissions", Json::Array(links))
            .build()
    }
}

/// Renders flight-recorder events as a Chrome/Perfetto `trace_event`
/// document (load it at `ui.perfetto.dev` or `chrome://tracing`).
///
/// Each packet becomes one async span: it begins at the packet's
/// injection cycle, every wire observation becomes an instant event on
/// the channel's track, and the span ends at the packet's `Deliver`
/// event (or its last observation when delivery fell outside the
/// ring). Timestamps are simulation cycles interpreted as
/// microseconds.
///
/// `extra` trace events (e.g. attribution spans from
/// `xpipes_sim::attribution`) are appended after the flit events so both
/// layers land in one document.
pub fn perfetto_trace_with(
    events: &[TraceEvent],
    channel_labels: &[String],
    extra: Vec<Json>,
) -> Json {
    // Packets in first-appearance order, with their span bounds.
    let mut order: Vec<u64> = Vec::new();
    let mut spans: Vec<(u64, u64, u64)> = Vec::new(); // (packet, begin, end)
    for ev in events {
        match spans.iter_mut().find(|(p, _, _)| *p == ev.packet_id) {
            Some((_, _, end)) => {
                if ev.kind == TraceEventKind::Deliver || ev.cycle > *end {
                    *end = ev.cycle;
                }
            }
            None => {
                order.push(ev.packet_id);
                spans.push((ev.packet_id, ev.injected_at, ev.cycle));
            }
        }
    }
    let mut trace_events = Vec::new();
    for &pkt in &order {
        let (_, begin, _) = spans.iter().find(|(p, _, _)| *p == pkt).unwrap();
        trace_events.push(async_event("b", pkt, *begin));
    }
    for ev in events {
        let label = channel_labels
            .get(ev.channel as usize)
            .map(String::as_str)
            .unwrap_or("?");
        trace_events.push(
            Json::object()
                .field("name", Json::str(ev.kind.name()))
                .field("cat", Json::str("flit"))
                .field("ph", Json::str("i"))
                .field("ts", Json::UInt(ev.cycle))
                .field("pid", Json::UInt(0))
                .field("tid", Json::UInt(ev.channel as u64 + 1))
                .field("s", Json::str("t"))
                .field(
                    "args",
                    Json::object()
                        .field("packet", Json::UInt(ev.packet_id))
                        .field("seq", Json::UInt(ev.seq as u64))
                        .field("channel", Json::str(label))
                        .build(),
                )
                .build(),
        );
    }
    for &pkt in &order {
        let (_, _, end) = spans.iter().find(|(p, _, _)| *p == pkt).unwrap();
        trace_events.push(async_event("e", pkt, *end));
    }
    trace_events.extend(extra);
    Json::object()
        .field("displayTimeUnit", Json::str("ms"))
        .field("traceEvents", Json::Array(trace_events))
        .build()
}

fn async_event(phase: &str, packet: u64, ts: u64) -> Json {
    Json::object()
        .field("name", Json::str(format!("pkt {packet}")))
        .field("cat", Json::str("packet"))
        .field("ph", Json::str(phase))
        .field("id", Json::UInt(packet))
        .field("ts", Json::UInt(ts))
        .field("pid", Json::UInt(0))
        .field("tid", Json::UInt(0))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_and_gauges() {
        let mut reg = MetricsRegistry::new();
        let sw = reg.add_component("sw0");
        let link = reg.add_component("link0");
        let flits = reg.counter(sw, "flits_forwarded");
        let depth = reg.gauge(sw, "queue_depth");
        let retx = reg.counter(link, "retransmissions");
        reg.set(flits, 10);
        reg.sample(depth, 5);
        reg.note_epoch();
        reg.set(flits, 25);
        reg.sample(depth, 2);
        reg.set(retx, 1);
        reg.note_epoch();
        assert_eq!(reg.epochs(), 2);
        assert_eq!(reg.value(flits), 25);
        assert_eq!(reg.value(depth), 2);
        assert_eq!(reg.peak(depth), 5);
        assert_eq!(reg.value(retx), 1);
        assert_eq!(reg.components.len(), 2);
    }

    #[test]
    fn registry_json_is_deterministic_and_ordered() {
        let mk = || {
            let mut reg = MetricsRegistry::new();
            let a = reg.add_component("alpha");
            let b = reg.add_component("beta");
            let c = reg.counter(a, "count");
            let g = reg.gauge(b, "gauge");
            reg.set(c, 7);
            reg.sample(g, 3);
            reg.note_epoch();
            reg.to_json().render()
        };
        let text = mk();
        assert_eq!(text, mk());
        assert!(text.find("alpha").unwrap() < text.find("beta").unwrap());
        assert!(text.contains("\"peak\": 3"));
    }

    #[test]
    fn timeline_export_shape() {
        let mut tl = CongestionTimeline::new(
            64,
            vec!["sw0.p1->sw1.p0".into()],
            vec!["sw0".into(), "sw1".into()],
        );
        tl.push(0, vec![12], vec![1, 0]);
        tl.push(64, vec![30], vec![2, 3]);
        assert_eq!(tl.windows.len(), 2);
        let text = tl.render();
        assert_eq!(text, tl.render());
        assert!(text.contains("\"interval\": 64"));
        assert!(text.contains("\"start\": 64"));
        assert!(text.contains("sw0.p1->sw1.p0"));
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn timeline_rejects_mismatched_columns() {
        let mut tl = CongestionTimeline::new(8, vec!["l0".into()], vec!["s0".into()]);
        tl.push(0, vec![1, 2], vec![0]);
    }

    fn ev(cycle: u64, packet: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            channel: 0,
            packet_id: packet,
            injected_at: cycle.saturating_sub(2),
            seq: 0,
            kind,
        }
    }

    #[test]
    fn flight_recorder_bounds_and_freeze() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..10 {
            fr.record(ev(i, i, TraceEventKind::Transmit));
        }
        assert_eq!(fr.ring.len(), 4);
        assert_eq!(fr.ring.front().unwrap().cycle, 6);
        fr.freeze(10);
        fr.record(ev(11, 11, TraceEventKind::Arrival));
        fr.freeze(12); // second freeze must not overwrite the first
        let dump = fr.frozen().expect("frozen");
        assert_eq!(dump.cycle, 10);
        assert_eq!(dump.events.len(), 4);
        assert_eq!(dump.events.last().unwrap().cycle, 9);
        // The snapshot prefers the frozen dump over the live ring.
        assert_eq!(fr.snapshot().last().unwrap().cycle, 9);
    }

    #[test]
    fn perfetto_spans_bracket_packet_lifetimes() {
        let labels = vec!["ini0->sw0.p2".to_string()];
        let events = [
            ev(5, 1, TraceEventKind::Transmit),
            ev(7, 1, TraceEventKind::Arrival),
            ev(8, 2, TraceEventKind::Transmit),
            ev(9, 1, TraceEventKind::Deliver),
        ];
        let text = perfetto_trace_with(&events, &labels, Vec::new()).render();
        assert_eq!(
            text,
            perfetto_trace_with(&events, &labels, Vec::new()).render()
        );
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\": \"b\""));
        assert!(text.contains("\"ph\": \"e\""));
        assert!(text.contains("\"pkt 1\""));
        assert!(text.contains("ini0->sw0.p2"));
        // The begin for packet 1 uses its injection cycle.
        let begin = text.find("\"ph\": \"b\"").unwrap();
        assert!(text[begin..].contains("\"ts\": 3"));
    }

    #[test]
    fn telemetry_state_snapshot_roundtrip() {
        let mut reg = MetricsRegistry::new();
        let sw = reg.add_component("sw0");
        let flits = reg.counter(sw, "flits_forwarded");
        let depth = reg.gauge(sw, "queue_depth");
        reg.set(flits, 12);
        reg.sample(depth, 5);
        reg.sample(depth, 1);
        reg.note_epoch();

        let mut tl = CongestionTimeline::new(8, vec!["l0".into()], vec!["s0".into()]);
        tl.push(0, vec![4], vec![2]);
        tl.push(8, vec![7], vec![0]);

        let mut fr = FlightRecorder::new(4);
        fr.record(ev(3, 1, TraceEventKind::Transmit));
        fr.record(ev(5, 1, TraceEventKind::CorruptArrival));
        fr.freeze(6);
        fr.record(ev(7, 2, TraceEventKind::Arrival));

        let mut w = SnapshotWriter::new();
        reg.save_state(&mut w);
        tl.save_state(&mut w);
        fr.save_state(&mut w);
        let bytes = w.finish();

        // Restore into freshly built (structurally identical) targets.
        let mut reg2 = MetricsRegistry::new();
        let sw2 = reg2.add_component("sw0");
        let flits2 = reg2.counter(sw2, "flits_forwarded");
        let depth2 = reg2.gauge(sw2, "queue_depth");
        let mut tl2 = CongestionTimeline::new(8, vec!["l0".into()], vec!["s0".into()]);
        let mut fr2 = FlightRecorder::new(4);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        reg2.load_state(&mut r).unwrap();
        tl2.load_state(&mut r).unwrap();
        fr2.load_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(reg2.to_json().render(), reg.to_json().render());
        assert_eq!(reg2.value(flits2), 12);
        assert_eq!(reg2.peak(depth2), 5);
        assert_eq!(tl2.render(), tl.render());
        assert_eq!(fr2.snapshot(), fr.snapshot());
        assert_eq!(fr2.frozen().unwrap().cycle, 6);
        assert_eq!(
            fr2.ring.iter().copied().collect::<Vec<_>>(),
            fr.ring.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn summary_json_lists_hot_links() {
        let summary = TelemetrySummary {
            total_retransmissions: 9,
            link_retransmissions: vec![("sw0.p1->sw1.p0".into(), 9)],
            peak_queue_depth: 4,
            peak_queue_switch: "sw1".into(),
        };
        let text = summary.to_json().render();
        assert!(text.contains("\"total_retransmissions\": 9"));
        assert!(text.contains("\"peak_queue_switch\": \"sw1\""));
        assert!(text.contains("sw0.p1->sw1.p0"));
    }
}
