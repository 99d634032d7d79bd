//! Network interfaces: the OCP↔network protocol converters.
//!
//! The NI is "transaction centric" (paper): the front end speaks OCP to
//! the attached core, the back end speaks the xpipes network protocol.
//! Requests and responses travel on independent paths, bursts are handled
//! beat-efficiently, and the routing LUT — indexed by the decoded `MAddr`
//! — supplies the source route placed in the header register.
//!
//! `InitiatorNi` serves a master core (packetizes requests, reassembles
//! responses); `TargetNi` serves a slave core (reassembles requests,
//! executes them against the attached behavioural memory, packetizes
//! responses).

use std::collections::{HashMap, VecDeque};

use xpipes_ocp::{MCmd, Request, Response, SlaveMemory};
use xpipes_sim::{
    Cycle, Histogram, RunningStats, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use xpipes_topology::route::SourceRoute;
use xpipes_topology::spec::AddressRange;
use xpipes_topology::NiId;

use crate::config::NiConfig;
use crate::error::XpipesError;
use crate::flit::{mask, Flit};
use crate::flow_control::{AckNack, FlowSabotage, LinkFlit, LinkRx, LinkTx};
use crate::header::{Header, MsgType};
use crate::packet::{depacketize, packetize, Packet};
use crate::snap;

/// Shared link-side machinery of both NI kinds: the flit output queue with
/// its ACK/nACK sender, and the receive guard with packet reassembly.
#[derive(Debug, Clone)]
struct NiPort {
    tx: LinkTx,
    rx: LinkRx,
    out_queue: VecDeque<Flit>,
    rx_buf: Vec<Flit>,
    /// Cycles a packetized flit sat queued while the retransmission
    /// window was full (telemetry: NI packetization stalls).
    stalls: u64,
}

impl NiPort {
    fn new(retransmit_depth: usize, ack_timeout: Option<u64>) -> Self {
        NiPort {
            tx: match ack_timeout {
                Some(t) => LinkTx::with_timeout(retransmit_depth, t),
                None => LinkTx::new(retransmit_depth),
            },
            rx: LinkRx::new(),
            out_queue: VecDeque::new(),
            rx_buf: Vec::new(),
            stalls: 0,
        }
    }

    fn transmit(&mut self, rev: Option<AckNack>) -> Option<LinkFlit> {
        self.tx.process(rev);
        let new = if self.tx.ready_for_new() {
            self.out_queue.pop_front()
        } else {
            if !self.out_queue.is_empty() {
                self.stalls += 1;
            }
            None
        };
        self.tx.transmit(new)
    }

    /// Feeds an arrival through the guard; returns the reply and, when a
    /// tail lands, the completed flit sequence.
    fn receive(&mut self, fwd: Option<LinkFlit>) -> (Option<AckNack>, Option<Vec<Flit>>) {
        let Some(arrival) = fwd else {
            return (None, None);
        };
        // NIs always sink their traffic: ejection is never back-pressured.
        let (delivered, reply) = self.rx.receive(arrival, true);
        let mut done = None;
        if let Some(flit) = delivered {
            let is_tail = flit.kind.is_tail();
            self.rx_buf.push(flit);
            if is_tail {
                done = Some(std::mem::take(&mut self.rx_buf));
            }
        }
        (Some(reply), done)
    }

    fn is_idle(&self) -> bool {
        self.out_queue.is_empty() && self.tx.in_flight() == 0 && self.rx_buf.is_empty()
    }

    /// True when the transmit side has work this cycle: queued flits or
    /// unacknowledged flits that may need resending / timeout ticking.
    fn tx_pending(&self) -> bool {
        !self.out_queue.is_empty() || self.tx.in_flight() > 0
    }
}

/// A transaction awaiting its response at the initiator.
#[derive(Debug, Clone)]
struct PendingTx {
    ocp_tag: u8,
    expects_response: bool,
    submitted: Cycle,
}

/// Cumulative NI statistics.
#[derive(Debug, Clone)]
pub struct NiStats {
    /// Packets injected into the network.
    pub packets_sent: u64,
    /// Packets fully reassembled from the network.
    pub packets_received: u64,
    /// Flits sent (including payload decomposition).
    pub flits_sent: u64,
    /// Round-trip transaction latency in cycles (initiators) or request
    /// one-way delivery latency (targets).
    pub latency: RunningStats,
    /// Latency distribution (cycles) for percentile reporting.
    pub latency_hist: Histogram,
}

impl NiStats {
    /// Histogram range in cycles. One shared configuration lets the NoC
    /// merge per-NI histograms.
    pub(crate) const HIST_RANGE: (u64, u64, usize) = (0, 4096, 128);
}

impl Default for NiStats {
    fn default() -> Self {
        let (lo, hi, buckets) = Self::HIST_RANGE;
        NiStats {
            packets_sent: 0,
            packets_received: 0,
            flits_sent: 0,
            latency: RunningStats::new(),
            latency_hist: Histogram::new(lo, hi, buckets),
        }
    }
}

/// The initiator (master-side) network interface.
///
/// # Examples
///
/// See the crate-level example: initiators are normally driven through
/// [`crate::noc::Noc::submit`].
#[derive(Debug, Clone)]
pub(crate) struct InitiatorNi {
    id: NiId,
    config: NiConfig,
    routes: HashMap<NiId, SourceRoute>,
    address_map: Vec<AddressRange>,
    port: NiPort,
    /// Network tag → pending transaction (4-bit tags: ≤16 outstanding).
    outstanding: HashMap<u8, PendingTx>,
    /// Requests waiting for a free tag.
    backlog: VecDeque<Request>,
    responses: VecDeque<Response>,
    /// Interrupts received via sideband packets, not yet taken.
    interrupts: u64,
    next_packet_id: u64,
    stats: NiStats,
}

impl InitiatorNi {
    /// Creates an initiator NI with its LUT (`routes`) and the system
    /// address map used to decode `MAddr` into a destination.
    pub(crate) fn new(
        id: NiId,
        config: NiConfig,
        routes: HashMap<NiId, SourceRoute>,
        address_map: Vec<AddressRange>,
    ) -> Self {
        InitiatorNi {
            id,
            config,
            routes,
            address_map,
            port: NiPort::new((2 * config.link_pipeline + 2) as usize, config.ack_timeout),
            outstanding: HashMap::new(),
            backlog: VecDeque::new(),
            responses: VecDeque::new(),
            interrupts: 0,
            next_packet_id: (id.0 as u64) << 32,
            stats: NiStats::default(),
        }
    }

    /// Number of sideband interrupts received and not yet taken.
    pub(crate) fn pending_interrupts(&self) -> u64 {
        self.interrupts
    }

    /// Consumes one pending interrupt; `false` when none is pending.
    pub(crate) fn take_interrupt(&mut self) -> bool {
        if self.interrupts > 0 {
            self.interrupts -= 1;
            true
        } else {
            false
        }
    }

    /// The NI's network identifier.
    pub(crate) fn id(&self) -> NiId {
        self.id
    }

    /// Cumulative statistics.
    pub(crate) fn stats(&self) -> &NiStats {
        &self.stats
    }

    /// True when nothing is queued, in flight or outstanding.
    pub(crate) fn is_idle(&self) -> bool {
        self.port.is_idle() && self.outstanding.is_empty() && self.backlog.is_empty()
    }

    /// True when the network port's transmit side has pending work
    /// (activity fast-path probe).
    pub(crate) fn link_busy(&self) -> bool {
        self.port.tx_pending()
    }

    /// True when submitted requests are waiting for a free transaction
    /// tag. While this holds, [`Self::tick`] may make progress; while it
    /// does not, `tick` is a no-op (event-kernel scheduling probe).
    pub(crate) fn has_backlog(&self) -> bool {
        !self.backlog.is_empty()
    }

    /// Cycles a packetized flit waited in the output queue because the
    /// link-layer retransmission window was full.
    pub(crate) fn packetization_stalls(&self) -> u64 {
        self.port.stalls
    }

    /// The ACK/nACK sender on the network port.
    pub(crate) fn link_tx(&self) -> &LinkTx {
        &self.port.tx
    }

    /// Arms a deliberate protocol defect on the network port's sender
    /// (conformance hook for the invariant checkers).
    pub(crate) fn sabotage(&mut self, mode: FlowSabotage) {
        self.port.tx.sabotage(mode);
    }

    /// The ACK/nACK receiver on the network port.
    pub(crate) fn link_rx(&self) -> &LinkRx {
        &self.port.rx
    }

    /// Responses delivered to the core but not yet collected.
    pub(crate) fn take_response(&mut self) -> Option<Response> {
        self.responses.pop_front()
    }

    /// Submits an OCP request transaction from the attached core.
    ///
    /// # Errors
    ///
    /// * [`XpipesError::UnmappedAddress`] when no target window contains
    ///   the address.
    /// * [`XpipesError::RouteTooLong`] / field overflows from header
    ///   construction.
    pub(crate) fn submit(&mut self, req: Request, now: Cycle) -> Result<(), XpipesError> {
        // Validate destination eagerly so errors surface at submit time.
        let dst = self
            .decode(req.addr())
            .ok_or(XpipesError::UnmappedAddress(req.addr()))?;
        if !self.routes.contains_key(&dst.ni) {
            return Err(XpipesError::UnknownNi(dst.ni));
        }
        self.backlog.push_back(req);
        self.drain_backlog(now)?;
        Ok(())
    }

    fn decode(&self, addr: u64) -> Option<AddressRange> {
        self.address_map.iter().find(|r| r.contains(addr)).copied()
    }

    fn free_tag(&self) -> Option<u8> {
        (0..16).find(|t| !self.outstanding.contains_key(t))
    }

    fn drain_backlog(&mut self, now: Cycle) -> Result<(), XpipesError> {
        while let Some(req) = self.backlog.front() {
            let Some(tag) = self.free_tag() else { break };
            let req = req.clone();
            self.backlog.pop_front();
            let window = self.decode(req.addr()).expect("validated at submit");
            let route = self.routes[&window.ni].clone();
            let header = Header::request(
                &route,
                self.id.0 as u8,
                req.cmd(),
                req.burst_len().min(255) as u8,
                req.thread(),
                tag,
                req.sideband(),
            )?
            .with_burst_seq(req.burst_seq());
            let offset = req.addr() - window.base;
            let payload: Vec<u64> = req
                .data()
                .iter()
                .map(|&d| (d as u128 & mask(self.config.data_width)) as u64)
                .collect();
            let id = self.next_packet_id;
            self.next_packet_id += 1;
            let packet = Packet::new(id, header, Some(offset), payload);
            let flits = packetize(&packet, self.config.flit_width, self.config.data_width, now)?;
            self.stats.packets_sent += 1;
            self.stats.flits_sent += flits.len() as u64;
            self.port.out_queue.extend(flits);
            self.outstanding.insert(
                tag,
                PendingTx {
                    ocp_tag: req.tag(),
                    expects_response: req.expects_response(),
                    submitted: now,
                },
            );
            // Posted writes complete immediately at the initiator.
            if !req.expects_response() {
                self.outstanding.remove(&tag);
            }
        }
        Ok(())
    }

    /// Output side: drive one flit onto the link this cycle.
    pub(crate) fn transmit(&mut self, rev: Option<AckNack>) -> Option<LinkFlit> {
        self.port.transmit(rev)
    }

    /// Input side: accept a flit from the link; reassembles response
    /// packets and completes transactions.
    pub(crate) fn receive(&mut self, fwd: Option<LinkFlit>, now: Cycle) -> Option<AckNack> {
        let (reply, done) = self.port.receive(fwd);
        if let Some(flits) = done {
            self.complete(flits, now);
        }
        reply
    }

    /// Makes forward progress on queued work (call once per cycle).
    pub(crate) fn tick(&mut self, now: Cycle) {
        // Tags may have freed; try to issue backlog.
        let _ = self.drain_backlog(now);
    }

    fn complete(&mut self, flits: Vec<Flit>, now: Cycle) {
        let Ok(packet) = depacketize(&flits, self.config.flit_width, self.config.data_width) else {
            return; // malformed packet: dropped, transaction times out
        };
        let MsgType::Response(resp) = packet.header.msg else {
            return; // initiators only sink responses
        };
        self.stats.packets_received += 1;
        // Sideband interrupts travel on dedicated (or piggybacked)
        // response packets.
        if packet.header.sideband.interrupt {
            self.interrupts += 1;
        }
        let tag = packet.header.tag;
        if let Some(pending) = self.outstanding.remove(&tag) {
            // Round-trip latency: submission to response completion.
            let cycles = now.since(pending.submitted);
            self.stats.latency.record(cycles as f64);
            self.stats.latency_hist.record(cycles);
            if pending.expects_response {
                self.responses.push_back(Response::from_parts(
                    resp,
                    packet.payload,
                    packet.header.thread,
                    pending.ocp_tag,
                ));
            }
        }
    }
}

/// A response scheduled after the slave's access latency.
#[derive(Debug, Clone)]
struct ScheduledResponse {
    ready_at: Cycle,
    src_ni: NiId,
    header_tag: u8,
    response: Response,
    /// Assert the sideband interrupt line on the emitted packet.
    interrupt: bool,
}

/// The target (slave-side) network interface with its attached
/// behavioural memory.
#[derive(Debug, Clone)]
pub(crate) struct TargetNi {
    id: NiId,
    config: NiConfig,
    /// Return routes: initiator NI id → source route.
    routes: HashMap<NiId, SourceRoute>,
    port: NiPort,
    memory: SlaveMemory,
    scheduled: VecDeque<ScheduledResponse>,
    next_packet_id: u64,
    stats: NiStats,
}

impl TargetNi {
    /// Creates a target NI with its return-route LUT and attached memory.
    pub(crate) fn new(
        id: NiId,
        config: NiConfig,
        routes: HashMap<NiId, SourceRoute>,
        memory: SlaveMemory,
    ) -> Self {
        TargetNi {
            id,
            config,
            routes,
            port: NiPort::new((2 * config.link_pipeline + 2) as usize, config.ack_timeout),
            memory,
            scheduled: VecDeque::new(),
            next_packet_id: ((id.0 as u64) << 32) | (1 << 31),
            stats: NiStats::default(),
        }
    }

    /// The NI's network identifier.
    pub(crate) fn id(&self) -> NiId {
        self.id
    }

    /// Cumulative statistics.
    pub(crate) fn stats(&self) -> &NiStats {
        &self.stats
    }

    /// The attached slave memory.
    pub(crate) fn memory(&self) -> &SlaveMemory {
        &self.memory
    }

    /// Mutable access to the attached slave memory (test backdoors).
    pub(crate) fn memory_mut(&mut self) -> &mut SlaveMemory {
        &mut self.memory
    }

    /// True when nothing is queued or in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.port.is_idle() && self.scheduled.is_empty()
    }

    /// The cycle at which [`Self::tick`] can next make progress: the
    /// ready cycle of the response at the head of the latency queue.
    /// The queue drains strictly head-of-line, so no later entry can
    /// fire before the head does (event-kernel scheduling probe).
    pub(crate) fn next_response_at(&self) -> Option<Cycle> {
        self.scheduled.front().map(|s| s.ready_at)
    }

    /// True when the network port's transmit side has pending work
    /// (activity fast-path probe).
    pub(crate) fn link_busy(&self) -> bool {
        self.port.tx_pending()
    }

    /// Cycles a packetized flit waited in the output queue because the
    /// link-layer retransmission window was full.
    pub(crate) fn packetization_stalls(&self) -> u64 {
        self.port.stalls
    }

    /// The ACK/nACK sender on the network port.
    pub(crate) fn link_tx(&self) -> &LinkTx {
        &self.port.tx
    }

    /// Arms a deliberate protocol defect on the network port's sender
    /// (conformance hook for the invariant checkers).
    pub(crate) fn sabotage(&mut self, mode: FlowSabotage) {
        self.port.tx.sabotage(mode);
    }

    /// The ACK/nACK receiver on the network port.
    pub(crate) fn link_rx(&self) -> &LinkRx {
        &self.port.rx
    }

    /// Output side: drive one flit onto the link this cycle.
    pub(crate) fn transmit(&mut self, rev: Option<AckNack>) -> Option<LinkFlit> {
        self.port.transmit(rev)
    }

    /// Input side: accept a flit from the link; reassembles request
    /// packets and executes them against the memory.
    pub(crate) fn receive(&mut self, fwd: Option<LinkFlit>, now: Cycle) -> Option<AckNack> {
        let (reply, done) = self.port.receive(fwd);
        if let Some(flits) = done {
            self.serve(flits, now);
        }
        reply
    }

    /// Makes forward progress: packetizes responses whose access latency
    /// has elapsed. Call once per cycle.
    pub(crate) fn tick(&mut self, now: Cycle) {
        while let Some(front) = self.scheduled.front() {
            if front.ready_at > now {
                break;
            }
            let sched = self.scheduled.pop_front().expect("nonempty");
            if self.emit_response(sched, now).is_err() {
                // Unroutable response: drop (counted implicitly by the
                // initiator's missing-response statistics).
            }
        }
    }

    fn serve(&mut self, flits: Vec<Flit>, now: Cycle) {
        let Ok(packet) = depacketize(&flits, self.config.flit_width, self.config.data_width) else {
            return;
        };
        let MsgType::Request(cmd) = packet.header.msg else {
            return; // targets only sink requests
        };
        self.stats.packets_received += 1;
        let cycles = now.since(flits[0].meta.injected_at);
        self.stats.latency.record(cycles as f64);
        self.stats.latency_hist.record(cycles);

        let Some(req) = Self::rebuild_request(cmd, &packet) else {
            return;
        };
        let response = self.memory.execute(&req);
        if let Some(response) = response {
            self.scheduled.push_back(ScheduledResponse {
                ready_at: now + self.memory.latency(),
                src_ni: NiId(packet.header.src_ni as usize),
                header_tag: packet.header.tag,
                response,
                interrupt: false,
            });
        }
    }

    /// Raises a sideband interrupt toward an initiator NI: the paper's
    /// NI forwards core interrupt lines through the network as dedicated
    /// sideband packets.
    ///
    /// # Errors
    ///
    /// [`XpipesError::UnknownNi`] when this target has no return route to
    /// `to`.
    pub(crate) fn raise_interrupt(&mut self, to: NiId, now: Cycle) -> Result<(), XpipesError> {
        if !self.routes.contains_key(&to) {
            return Err(XpipesError::UnknownNi(to));
        }
        self.scheduled.push_back(ScheduledResponse {
            ready_at: now,
            src_ni: to,
            header_tag: 15, // reserved tag: matches no outstanding entry
            response: Response::from_parts(
                xpipes_ocp::SResp::Dva,
                Vec::new(),
                xpipes_ocp::ThreadId(0),
                15,
            ),
            interrupt: true,
        });
        Ok(())
    }

    fn rebuild_request(cmd: MCmd, packet: &Packet) -> Option<Request> {
        let addr = packet.addr?;
        let builder = xpipes_ocp::transaction::RequestBuilder::new(cmd, addr)
            .thread(packet.header.thread)
            .tag(packet.header.tag)
            .sideband(packet.header.sideband)
            .burst_seq(packet.header.burst_seq);
        let builder = if cmd.carries_data() {
            builder.data(packet.payload.clone())
        } else {
            builder.burst_len(packet.header.burst_len as u32)
        };
        builder.build().ok()
    }

    fn emit_response(&mut self, sched: ScheduledResponse, now: Cycle) -> Result<(), XpipesError> {
        let route = self
            .routes
            .get(&sched.src_ni)
            .ok_or(XpipesError::UnknownNi(sched.src_ni))?
            .clone();
        let burst = sched.response.data().len().clamp(1, 255) as u8;
        let header = Header::response(
            &route,
            self.id.0 as u8,
            sched.response.resp(),
            burst,
            sched.response.thread(),
            sched.header_tag,
            xpipes_ocp::Sideband {
                interrupt: sched.interrupt,
                flags: 0,
            },
        )?;
        let payload: Vec<u64> = sched
            .response
            .data()
            .iter()
            .map(|&d| (d as u128 & mask(self.config.data_width)) as u64)
            .collect();
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let packet = Packet::new(id, header, None, payload);
        let flits = packetize(&packet, self.config.flit_width, self.config.data_width, now)?;
        self.stats.packets_sent += 1;
        self.stats.flits_sent += flits.len() as u64;
        self.port.out_queue.extend(flits);
        Ok(())
    }
}

impl Snapshot for NiPort {
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.tx.save_state(w);
        self.rx.save_state(w);
        w.len(self.out_queue.len());
        for flit in &self.out_queue {
            snap::save_flit(w, flit);
        }
        w.len(self.rx_buf.len());
        for flit in &self.rx_buf {
            snap::save_flit(w, flit);
        }
        w.u64(self.stalls);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.tx.load_state(r)?;
        self.rx.load_state(r)?;
        let n = r.len()?;
        self.out_queue.clear();
        for _ in 0..n {
            self.out_queue.push_back(snap::load_flit(r)?);
        }
        let n = r.len()?;
        self.rx_buf.clear();
        for _ in 0..n {
            self.rx_buf.push(snap::load_flit(r)?);
        }
        self.stalls = r.u64()?;
        Ok(())
    }
}

impl Snapshot for NiStats {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.u64(self.packets_sent);
        w.u64(self.packets_received);
        w.u64(self.flits_sent);
        self.latency.save_state(w);
        self.latency_hist.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.packets_sent = r.u64()?;
        self.packets_received = r.u64()?;
        self.flits_sent = r.u64()?;
        self.latency.load_state(r)?;
        self.latency_hist.load_state(r)?;
        Ok(())
    }
}

impl Snapshot for InitiatorNi {
    /// Captures the network port, the tag table (in ascending tag order
    /// for determinism), backlog and undelivered responses, the interrupt
    /// counter, the packet-id allocator and statistics. Routes, address
    /// map and configuration are structural.
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.port.save_state(w);
        let mut tags: Vec<u8> = self.outstanding.keys().copied().collect();
        tags.sort_unstable();
        w.len(tags.len());
        for tag in tags {
            let p = &self.outstanding[&tag];
            w.u8(tag);
            w.u8(p.ocp_tag);
            w.bool(p.expects_response);
            w.u64(p.submitted.as_u64());
        }
        w.len(self.backlog.len());
        for req in &self.backlog {
            snap::save_request(w, req);
        }
        w.len(self.responses.len());
        for resp in &self.responses {
            snap::save_response(w, resp);
        }
        w.u64(self.interrupts);
        w.u64(self.next_packet_id);
        self.stats.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.port.load_state(r)?;
        let n = r.len()?;
        if n > 16 {
            return Err(SnapshotError::Malformed(format!(
                "{n} outstanding transactions exceed the 16-tag table"
            )));
        }
        self.outstanding.clear();
        for _ in 0..n {
            let tag = r.u8()?;
            let ocp_tag = r.u8()?;
            let expects_response = r.bool()?;
            let submitted = Cycle::new(r.u64()?);
            self.outstanding.insert(
                tag,
                PendingTx {
                    ocp_tag,
                    expects_response,
                    submitted,
                },
            );
        }
        let n = r.len()?;
        self.backlog.clear();
        for _ in 0..n {
            self.backlog.push_back(snap::load_request(r)?);
        }
        let n = r.len()?;
        self.responses.clear();
        for _ in 0..n {
            self.responses.push_back(snap::load_response(r)?);
        }
        self.interrupts = r.u64()?;
        self.next_packet_id = r.u64()?;
        self.stats.load_state(r)?;
        Ok(())
    }
}

impl Snapshot for TargetNi {
    /// Captures the network port, the attached memory's contents and
    /// access counters, latency-scheduled responses, the packet-id
    /// allocator and statistics. Return routes, configuration and the
    /// memory's access latency are structural.
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.port.save_state(w);
        let words = self.memory.export_words();
        w.len(words.len());
        for (addr, value) in words {
            w.u64(addr);
            w.u64(value);
        }
        w.u64(self.memory.reads());
        w.u64(self.memory.writes());
        w.len(self.scheduled.len());
        for sched in &self.scheduled {
            w.u64(sched.ready_at.as_u64());
            w.len(sched.src_ni.0);
            w.u8(sched.header_tag);
            snap::save_response(w, &sched.response);
            w.bool(sched.interrupt);
        }
        w.u64(self.next_packet_id);
        self.stats.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.port.load_state(r)?;
        let n = r.len()?;
        let mut words = Vec::new();
        for _ in 0..n {
            let addr = r.u64()?;
            let value = r.u64()?;
            words.push((addr, value));
        }
        let reads = r.u64()?;
        let writes = r.u64()?;
        self.memory.import_state(words, reads, writes);
        let n = r.len()?;
        self.scheduled.clear();
        for _ in 0..n {
            let ready_at = Cycle::new(r.u64()?);
            let src_ni = NiId(r.len()?);
            let header_tag = r.u8()?;
            let response = snap::load_response(r)?;
            let interrupt = r.bool()?;
            self.scheduled.push_back(ScheduledResponse {
                ready_at,
                src_ni,
                header_tag,
                response,
                interrupt,
            });
        }
        self.next_packet_id = r.u64()?;
        self.stats.load_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_ocp::SResp;
    use xpipes_topology::PortId;

    fn route(hops: &[u8]) -> SourceRoute {
        SourceRoute::new(hops.iter().map(|&p| PortId(p)).collect()).unwrap()
    }

    fn initiator() -> InitiatorNi {
        let mut routes = HashMap::new();
        routes.insert(NiId(1), route(&[2, 4]));
        let map = vec![AddressRange {
            ni: NiId(1),
            base: 0x1000,
            size: 0x1000,
        }];
        InitiatorNi::new(NiId(0), NiConfig::new(32), routes, map)
    }

    fn target(latency: u64) -> TargetNi {
        let mut routes = HashMap::new();
        routes.insert(NiId(0), route(&[3]));
        TargetNi::new(
            NiId(1),
            NiConfig::new(32),
            routes,
            SlaveMemory::new(latency),
        )
    }

    /// Directly connects an initiator to a target (zero-length link) and
    /// runs until idle or the cycle budget runs out.
    fn run_pair(ini: &mut InitiatorNi, tgt: &mut TargetNi, cycles: u64) {
        let mut now = Cycle::ZERO;
        let mut i2t: Option<LinkFlit> = None;
        let mut t2i: Option<LinkFlit> = None;
        // Replies generated by each receiver, consumed by the peer sender.
        let mut reply_for_ini: Option<AckNack> = None;
        let mut reply_for_tgt: Option<AckNack> = None;
        for _ in 0..cycles {
            ini.tick(now);
            tgt.tick(now);
            let new_i2t = ini.transmit(reply_for_ini.take());
            let new_t2i = tgt.transmit(reply_for_tgt.take());
            if let Some(f) = i2t.take() {
                reply_for_ini = tgt.receive(Some(f), now);
            }
            if let Some(f) = t2i.take() {
                reply_for_tgt = ini.receive(Some(f), now);
            }
            i2t = new_i2t;
            t2i = new_t2i;
            now = now.next();
        }
    }

    #[test]
    fn write_reaches_target_memory() {
        let mut ini = initiator();
        let mut tgt = target(0);
        ini.submit(
            Request::write(0x1040, vec![0xAB, 0xCD]).unwrap(),
            Cycle::ZERO,
        )
        .unwrap();
        run_pair(&mut ini, &mut tgt, 50);
        // Window base 0x1000: the target sees local offsets.
        assert_eq!(tgt.memory().peek(0x40), 0xAB);
        assert_eq!(tgt.memory().peek(0x48), 0xCD);
        assert!(ini.is_idle(), "posted write completes immediately");
        assert_eq!(tgt.stats().packets_received, 1);
    }

    #[test]
    fn read_round_trip() {
        let mut ini = initiator();
        let mut tgt = target(2);
        tgt.memory_mut().poke(0x10, 77);
        ini.submit(Request::read(0x1010, 1).unwrap(), Cycle::ZERO)
            .unwrap();
        run_pair(&mut ini, &mut tgt, 100);
        let resp = ini.take_response().expect("response arrived");
        assert_eq!(resp.resp(), SResp::Dva);
        assert_eq!(resp.data(), &[77]);
        assert!(ini.is_idle());
        assert!(tgt.is_idle());
        assert_eq!(ini.stats().latency.count(), 1);
    }

    #[test]
    fn burst_read_returns_all_beats() {
        let mut ini = initiator();
        let mut tgt = target(1);
        for i in 0..4u64 {
            tgt.memory_mut().poke(0x20 + 8 * i, 100 + i);
        }
        ini.submit(Request::read(0x1020, 4).unwrap(), Cycle::ZERO)
            .unwrap();
        run_pair(&mut ini, &mut tgt, 200);
        let resp = ini.take_response().expect("response");
        assert_eq!(resp.data(), &[100, 101, 102, 103]);
    }

    #[test]
    fn nonposted_write_gets_ack() {
        let mut ini = initiator();
        let mut tgt = target(0);
        let req = xpipes_ocp::transaction::RequestBuilder::new(MCmd::WriteNonPost, 0x1000)
            .data(vec![5])
            .tag(7)
            .build()
            .unwrap();
        ini.submit(req, Cycle::ZERO).unwrap();
        run_pair(&mut ini, &mut tgt, 100);
        let resp = ini.take_response().expect("ack response");
        assert_eq!(resp.tag(), 7, "OCP tag restored from the NI tag table");
        assert!(resp.data().is_empty());
    }

    #[test]
    fn unmapped_address_rejected_at_submit() {
        let mut ini = initiator();
        let err = ini
            .submit(Request::read(0x9999_0000, 1).unwrap(), Cycle::ZERO)
            .unwrap_err();
        assert_eq!(err, XpipesError::UnmappedAddress(0x9999_0000));
    }

    #[test]
    fn many_outstanding_transactions_use_backlog() {
        let mut ini = initiator();
        let mut tgt = target(0);
        for i in 0..20u64 {
            ini.submit(Request::read(0x1000 + i * 8, 1).unwrap(), Cycle::ZERO)
                .unwrap();
        }
        // Only 16 tags exist: 4 requests sit in the backlog until
        // responses free tags; all 20 eventually complete.
        run_pair(&mut ini, &mut tgt, 2000);
        let mut got = 0;
        while ini.take_response().is_some() {
            got += 1;
        }
        assert_eq!(got, 20);
        assert!(ini.is_idle());
    }

    #[test]
    fn data_masked_to_data_width() {
        let mut ini = initiator();
        let mut tgt = target(0);
        ini.submit(
            Request::write(0x1000, vec![0x1_2345_6789]).unwrap(),
            Cycle::ZERO,
        )
        .unwrap();
        run_pair(&mut ini, &mut tgt, 50);
        assert_eq!(
            tgt.memory().peek(0x0),
            0x2345_6789,
            "upper bits truncated at 32-bit OCP"
        );
    }

    #[test]
    fn target_latency_delays_response() {
        let mut fast_ini = initiator();
        let mut fast_tgt = target(0);
        fast_ini
            .submit(Request::read(0x1000, 1).unwrap(), Cycle::ZERO)
            .unwrap();
        run_pair(&mut fast_ini, &mut fast_tgt, 200);
        let fast = fast_ini.stats().latency.mean();

        let mut slow_ini = initiator();
        let mut slow_tgt = target(20);
        slow_ini
            .submit(Request::read(0x1000, 1).unwrap(), Cycle::ZERO)
            .unwrap();
        run_pair(&mut slow_ini, &mut slow_tgt, 400);
        let slow = slow_ini.stats().latency.mean();
        assert!(slow >= fast + 19.0, "fast={fast} slow={slow}");
    }

    /// Checkpoint an initiator/target pair mid-transaction (tags held,
    /// responses scheduled, flits queued) and restore into fresh NIs: the
    /// remaining protocol must complete identically.
    #[test]
    fn ni_snapshot_mid_transaction_resumes_identically() {
        let mut ini = initiator();
        let mut tgt = target(3);
        tgt.memory_mut().poke(0x10, 77);
        for i in 0..6u64 {
            ini.submit(Request::read(0x1000 + i * 8, 1).unwrap(), Cycle::ZERO)
                .unwrap();
        }
        ini.submit(Request::write(0x1040, vec![0xAB]).unwrap(), Cycle::ZERO)
            .unwrap();
        // Run a few cycles: transactions are in flight everywhere.
        run_pair(&mut ini, &mut tgt, 12);
        assert!(!ini.is_idle() || !tgt.is_idle());

        let mut w = SnapshotWriter::new();
        ini.save_state(&mut w);
        tgt.save_state(&mut w);
        let bytes = w.finish();
        let mut ini2 = initiator();
        let mut tgt2 = target(3);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        ini2.load_state(&mut r).unwrap();
        tgt2.load_state(&mut r).unwrap();
        r.finish().unwrap();

        // NOTE: run_pair restarts its local cycle counter, but both pairs
        // see the same restart, so behaviour must stay identical.
        run_pair(&mut ini, &mut tgt, 400);
        run_pair(&mut ini2, &mut tgt2, 400);
        assert!(ini.is_idle() && tgt.is_idle());
        assert!(ini2.is_idle() && tgt2.is_idle());
        let mut got = Vec::new();
        while let Some(resp) = ini.take_response() {
            got.push(resp);
        }
        let mut got2 = Vec::new();
        while let Some(resp) = ini2.take_response() {
            got2.push(resp);
        }
        assert_eq!(got, got2);
        assert_eq!(got.len(), 6);
        assert_eq!(tgt.memory().peek(0x40), tgt2.memory().peek(0x40));
        assert_eq!(tgt.memory().export_words(), tgt2.memory().export_words());
        assert_eq!(ini.stats().packets_sent, ini2.stats().packets_sent);
        assert_eq!(
            ini.stats().latency_hist.total(),
            ini2.stats().latency_hist.total()
        );
    }

    #[test]
    fn stats_count_flits() {
        let mut ini = initiator();
        let mut tgt = target(0);
        ini.submit(Request::write(0x1000, vec![1, 2, 3]).unwrap(), Cycle::ZERO)
            .unwrap();
        run_pair(&mut ini, &mut tgt, 100);
        // W=32: header 2 flits + addr + 3 beats = 6.
        assert_eq!(ini.stats().flits_sent, 6);
        assert_eq!(ini.stats().packets_sent, 1);
    }
}
