//! Network interfaces: the OCP↔network protocol converters.
//!
//! The NI is "transaction centric" (paper): the front end speaks OCP to
//! the attached core, the back end speaks the xpipes network protocol.
//! Requests and responses travel on independent paths, bursts are handled
//! beat-efficiently, and the routing LUT — indexed by the destination NI
//! that `MAddr` decodes to — supplies the source route placed in the
//! header register.
//!
//! `InitiatorNi` serves a master core (packetizes requests, reassembles
//! responses); `TargetNi` serves a slave core (reassembles requests,
//! executes them against the attached behavioural memory, packetizes
//! responses). Both keep their network side in an `NiPort`: the packet-id
//! allocator and the reassembly buffer. The port's ACK/nACK sender and
//! receiver belong to the two channel records it is wired to
//! (`channel.rs`): packets go into the sender of the channel the NI
//! drives, and the receiver of the channel it sinks hands over each flit
//! it accepts.

use std::collections::VecDeque;

use xpipes_ocp::{MCmd, Request, Response, SlaveMemory};
use xpipes_sim::{
    Cycle, Histogram, RunningStats, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use xpipes_topology::route::SourceRoute;
use xpipes_topology::spec::AddressRange;
use xpipes_topology::NiId;

use crate::channel::Channel;
use crate::config::NiConfig;
use crate::error::XpipesError;
use crate::flit::{mask, Flit};
use crate::header::{Header, MsgType};
use crate::packet::{depacketize, packetize, Packet};
use crate::snap;

/// Transaction tags per initiator: the header's 4-bit tag field.
const TAGS: usize = 16;

/// The routing LUT entry toward `ni`. The LUT is indexed by the dense NI
/// id; an absent entry means no route.
fn lut(routes: &[Option<SourceRoute>], ni: NiId) -> Option<&SourceRoute> {
    routes.get(ni.0)?.as_ref()
}

/// Shared network-port machinery of both NI kinds (see the module
/// documentation).
#[derive(Debug, Clone)]
struct NiPort {
    config: NiConfig,
    /// The channels the port drives and sinks.
    out: usize,
    inp: usize,
    /// Flits of the packet being reassembled; reused from packet to
    /// packet.
    rx_buf: Vec<Flit>,
    /// Id of the next packet this NI injects.
    next_packet_id: u64,
}

impl NiPort {
    fn new(config: NiConfig, (out, inp): (usize, usize), next_packet_id: u64) -> Self {
        NiPort {
            config,
            out,
            inp,
            rx_buf: Vec::new(),
            next_packet_id,
        }
    }

    /// Packetizes one packet under the next packet id, its payload masked
    /// to the OCP data width, straight into the sender of the driven
    /// channel in `chan`.
    fn send(
        &mut self,
        stats: &mut NiStats,
        header: Header,
        addr: Option<u64>,
        mut payload: Vec<u64>,
        now: Cycle,
        chan: &mut [Channel],
    ) -> Result<(), XpipesError> {
        for d in &mut payload {
            *d = (*d as u128 & mask(self.config.data_width)) as u64;
        }
        let packet = Packet::new(self.next_packet_id, header, addr, payload);
        self.next_packet_id += 1;
        let flits = packetize(&packet, self.config.flit_width, self.config.data_width, now)?;
        stats.packets_sent += 1;
        stats.flits_sent += flits.len() as u64;
        let tx = &mut chan[self.out].tx;
        flits.into_iter().for_each(|flit| tx.push(flit));
        Ok(())
    }

    /// Reassembles an accepted flit; when a tail lands, returns the
    /// packet with the cycle its head was injected. A malformed flit
    /// sequence is dropped (its transaction times out).
    fn reassemble(&mut self, flit: Flit) -> Option<(Packet, Cycle)> {
        let is_tail = flit.kind.is_tail();
        self.rx_buf.push(flit);
        if !is_tail {
            return None;
        }
        let injected_at = self.rx_buf[0].meta.injected_at;
        let done = depacketize(&self.rx_buf, self.config.flit_width, self.config.data_width)
            .ok()
            .map(|packet| (packet, injected_at));
        self.rx_buf.clear();
        done
    }

    /// Writes the port's share of its NI's section, reading the sender
    /// and the packetization stall count from the channel it drives and
    /// the receiver from the one it sinks.
    fn save_state(&self, w: &mut SnapshotWriter, chan: &[Channel]) {
        let (out, rx) = (&chan[self.out], &chan[self.inp].rx);
        out.tx.save_state(w);
        rx.save_state(w);
        w.len(out.tx.queued());
        out.tx.save_queued(w);
        w.len(self.rx_buf.len());
        for flit in &self.rx_buf {
            snap::save_flit(w, flit);
        }
        w.u64(out.window_waits);
    }

    /// Reads what [`save_state`](Self::save_state) wrote.
    fn load_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
        chan: &mut [Channel],
    ) -> Result<(), SnapshotError> {
        let out = self.out;
        chan[out].tx.load_state(r)?;
        chan[self.inp].rx.load_state(r)?;
        let n = r.len()?;
        chan[out].tx.load_queued(r, n)?;
        let n = r.len()?;
        self.rx_buf.clear();
        for _ in 0..n {
            self.rx_buf.push(snap::load_flit(r)?);
        }
        chan[out].window_waits = r.u64()?;
        Ok(())
    }
}

/// A transaction awaiting its response at the initiator.
#[derive(Debug, Clone, Copy)]
struct PendingTx {
    ocp_tag: u8,
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
    /// Routing LUT: destination NI id → source route.
    routes: Vec<Option<SourceRoute>>,
    address_map: Vec<AddressRange>,
    port: NiPort,
    /// Tag file, indexed by network tag: the transaction awaiting its
    /// response under each tag. Requests take the lowest free tag.
    outstanding: [Option<PendingTx>; TAGS],
    /// Submitted requests waiting for a free tag (unbounded).
    backlog: VecDeque<Request>,
    responses: VecDeque<Response>,
    /// Interrupts received via sideband packets, not yet taken.
    interrupts: u64,
    stats: NiStats,
}

impl InitiatorNi {
    /// Creates an initiator NI with its LUT (`routes`, indexed by
    /// destination NI id) and the system address map used to decode
    /// `MAddr` into a destination, wired to the channels `chans =
    /// (drives, sinks)`.
    pub(crate) fn new(
        id: NiId,
        config: NiConfig,
        routes: Vec<Option<SourceRoute>>,
        address_map: Vec<AddressRange>,
        chans: (usize, usize),
    ) -> Self {
        InitiatorNi {
            id,
            routes,
            address_map,
            port: NiPort::new(config, chans, (id.0 as u64) << 32),
            outstanding: [None; TAGS],
            backlog: VecDeque::new(),
            responses: VecDeque::new(),
            interrupts: 0,
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

    /// The channel the NI drives.
    pub(crate) fn out_chan(&self) -> usize {
        self.port.out
    }

    /// Cumulative statistics.
    pub(crate) fn stats(&self) -> &NiStats {
        &self.stats
    }

    /// True when nothing is reassembling, waiting for a tag or
    /// outstanding. (Flits packetized into the sender are its channel's.)
    pub(crate) fn is_idle(&self) -> bool {
        self.port.rx_buf.is_empty()
            && self.outstanding.iter().all(Option::is_none)
            && self.backlog.is_empty()
    }

    /// True when submitted requests are waiting for a free transaction
    /// tag. While this holds, [`Self::tick`] may make progress; while it
    /// does not, `tick` is a no-op (event-kernel scheduling probe).
    pub(crate) fn has_backlog(&self) -> bool {
        !self.backlog.is_empty()
    }

    /// Responses delivered to the core but not yet collected.
    pub(crate) fn take_response(&mut self) -> Option<Response> {
        self.responses.pop_front()
    }

    /// Submits an OCP request transaction from the attached core,
    /// packetizing it into the driven channel in `chan` when a
    /// transaction tag is free.
    ///
    /// # Errors
    ///
    /// * [`XpipesError::UnmappedAddress`] when no target window contains
    ///   the address.
    /// * [`XpipesError::RouteTooLong`] / field overflows from header
    ///   construction.
    pub(crate) fn submit(
        &mut self,
        req: Request,
        now: Cycle,
        chan: &mut [Channel],
    ) -> Result<(), XpipesError> {
        // Validate destination eagerly so errors surface at submit time.
        let dst = self
            .decode(req.addr())
            .ok_or(XpipesError::UnmappedAddress(req.addr()))?;
        if lut(&self.routes, dst.ni).is_none() {
            return Err(XpipesError::UnknownNi(dst.ni));
        }
        self.backlog.push_back(req);
        self.drain_backlog(now, chan)?;
        Ok(())
    }

    fn decode(&self, addr: u64) -> Option<AddressRange> {
        self.address_map.iter().find(|r| r.contains(addr)).copied()
    }

    fn free_tag(&self) -> Option<usize> {
        self.outstanding.iter().position(Option::is_none)
    }

    fn drain_backlog(&mut self, now: Cycle, chan: &mut [Channel]) -> Result<(), XpipesError> {
        while let Some(tag) = self.free_tag() {
            let Some(req) = self.backlog.pop_front() else {
                break;
            };
            let window = self.decode(req.addr()).expect("validated at submit");
            let route = lut(&self.routes, window.ni).expect("validated at submit");
            let header = Header::request(
                route,
                self.id.0 as u8,
                req.cmd(),
                req.burst_len().min(255) as u8,
                req.thread(),
                tag as u8,
                req.sideband(),
            )?
            .with_burst_seq(req.burst_seq());
            let offset = req.addr() - window.base;
            // Posted writes complete immediately at the initiator: their
            // tag stays free for the next request.
            let pending = req.expects_response().then_some(PendingTx {
                ocp_tag: req.tag(),
                submitted: now,
            });
            let payload = req.into_data();
            self.port
                .send(&mut self.stats, header, Some(offset), payload, now, chan)?;
            self.outstanding[tag] = pending;
        }
        Ok(())
    }

    /// Input side: takes a flit the link's receiver accepted (NIs always
    /// sink their traffic: ejection is never back-pressured); reassembles
    /// response packets and completes transactions.
    pub(crate) fn receive(&mut self, flit: Flit, now: Cycle) {
        if let Some((packet, _)) = self.port.reassemble(flit) {
            self.complete(packet, now);
        }
    }

    /// Makes forward progress on queued work, packetizing into the
    /// driven channel in `chan` (call once per cycle).
    pub(crate) fn tick(&mut self, now: Cycle, chan: &mut [Channel]) {
        // Tags may have freed; try to issue backlog.
        let _ = self.drain_backlog(now, chan);
    }

    fn complete(&mut self, packet: Packet, now: Cycle) {
        let MsgType::Response(resp) = packet.header.msg else {
            return; // initiators only sink responses
        };
        self.stats.packets_received += 1;
        // Sideband interrupts travel on dedicated response packets that
        // complete no transaction.
        if packet.header.sideband.interrupt {
            self.interrupts += 1;
            return;
        }
        let tag = packet.header.tag as usize;
        if let Some(pending) = self.outstanding.get_mut(tag).and_then(Option::take) {
            // Round-trip latency: submission to response completion.
            let cycles = now.since(pending.submitted);
            self.stats.latency.record(cycles as f64);
            self.stats.latency_hist.record(cycles);
            self.responses.push_back(Response::from_parts(
                resp,
                packet.payload,
                packet.header.thread,
                pending.ocp_tag,
            ));
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
    /// Return-route LUT: initiator NI id → source route.
    routes: Vec<Option<SourceRoute>>,
    port: NiPort,
    memory: SlaveMemory,
    scheduled: VecDeque<ScheduledResponse>,
    stats: NiStats,
}

impl TargetNi {
    /// Creates a target NI with its return-route LUT (indexed by
    /// initiator NI id) and attached memory, wired to the channels
    /// `chans = (drives, sinks)`.
    pub(crate) fn new(
        id: NiId,
        config: NiConfig,
        routes: Vec<Option<SourceRoute>>,
        memory: SlaveMemory,
        chans: (usize, usize),
    ) -> Self {
        TargetNi {
            id,
            routes,
            port: NiPort::new(config, chans, ((id.0 as u64) << 32) | (1 << 31)),
            memory,
            scheduled: VecDeque::new(),
            stats: NiStats::default(),
        }
    }

    /// The NI's network identifier.
    pub(crate) fn id(&self) -> NiId {
        self.id
    }

    /// The channel the NI drives.
    pub(crate) fn out_chan(&self) -> usize {
        self.port.out
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

    /// True when nothing is reassembling or waiting to be answered.
    /// (Flits packetized into the sender are its channel's.)
    pub(crate) fn is_idle(&self) -> bool {
        self.port.rx_buf.is_empty() && self.scheduled.is_empty()
    }

    /// The cycle at which [`Self::tick`] can next make progress: the
    /// ready cycle of the response at the head of the latency queue.
    /// The queue drains strictly head-of-line, so no later entry can
    /// fire before the head does (event-kernel scheduling probe).
    pub(crate) fn next_response_at(&self) -> Option<Cycle> {
        self.scheduled.front().map(|s| s.ready_at)
    }

    /// Input side: takes a flit the link's receiver accepted;
    /// reassembles request packets and executes them against the memory.
    pub(crate) fn receive(&mut self, flit: Flit, now: Cycle) {
        if let Some((packet, injected_at)) = self.port.reassemble(flit) {
            self.serve(packet, injected_at, now);
        }
    }

    /// Makes forward progress: packetizes responses whose access latency
    /// has elapsed into the driven channel in `chan`. Call once per
    /// cycle.
    pub(crate) fn tick(&mut self, now: Cycle, chan: &mut [Channel]) {
        while let Some(sched) = self.scheduled.pop_front_if(|s| s.ready_at <= now) {
            // An unroutable response is dropped (counted implicitly by the
            // initiator's missing-response statistics).
            let _ = self.emit_response(sched, now, chan);
        }
    }

    fn serve(&mut self, packet: Packet, injected_at: Cycle, now: Cycle) {
        let MsgType::Request(cmd) = packet.header.msg else {
            return; // targets only sink requests
        };
        self.stats.packets_received += 1;
        let cycles = now.since(injected_at);
        self.stats.latency.record(cycles as f64);
        self.stats.latency_hist.record(cycles);

        let header = packet.header;
        let Some(req) = Self::rebuild_request(cmd, packet) else {
            return;
        };
        let response = self.memory.execute(&req);
        if let Some(response) = response {
            self.scheduled.push_back(ScheduledResponse {
                ready_at: now + self.memory.latency(),
                src_ni: NiId(header.src_ni as usize),
                header_tag: header.tag,
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
        if lut(&self.routes, to).is_none() {
            return Err(XpipesError::UnknownNi(to));
        }
        self.scheduled.push_back(ScheduledResponse {
            ready_at: now,
            src_ni: to,
            header_tag: 15, // unread: the initiator never reads an interrupt's tag
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

    fn rebuild_request(cmd: MCmd, packet: Packet) -> Option<Request> {
        let addr = packet.addr?;
        let builder = xpipes_ocp::transaction::RequestBuilder::new(cmd, addr)
            .thread(packet.header.thread)
            .tag(packet.header.tag)
            .sideband(packet.header.sideband)
            .burst_seq(packet.header.burst_seq);
        let builder = if cmd.carries_data() {
            builder.data(packet.payload)
        } else {
            builder.burst_len(packet.header.burst_len as u32)
        };
        builder.build().ok()
    }

    fn emit_response(
        &mut self,
        sched: ScheduledResponse,
        now: Cycle,
        chan: &mut [Channel],
    ) -> Result<(), XpipesError> {
        let route = lut(&self.routes, sched.src_ni).ok_or(XpipesError::UnknownNi(sched.src_ni))?;
        let burst = sched.response.data().len().clamp(1, 255) as u8;
        let header = Header::response(
            route,
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
        let payload = sched.response.into_data();
        (self.port).send(&mut self.stats, header, None, payload, now, chan)
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

impl InitiatorNi {
    /// Captures the network port (its sender, receiver and stall count
    /// read from its channels in `chan`), the tag table (in ascending
    /// tag order for determinism), backlog and undelivered responses,
    /// the interrupt counter, the packet-id allocator and statistics.
    /// Routes, address map, configuration and wiring are structural.
    pub(crate) fn save_state(&self, w: &mut SnapshotWriter, chan: &[Channel]) {
        self.port.save_state(w, chan);
        w.len(self.outstanding.iter().flatten().count());
        for (tag, p) in self.outstanding.iter().enumerate() {
            let Some(p) = p else { continue };
            w.u8(tag as u8);
            w.u8(p.ocp_tag);
            w.bool(true); // expects a response: posted writes hold no tag
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
        w.u64(self.port.next_packet_id);
        self.stats.save_state(w);
    }

    /// Reads what [`save_state`](Self::save_state) wrote.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
        chan: &mut [Channel],
    ) -> Result<(), SnapshotError> {
        self.port.load_state(r, chan)?;
        let n = r.len()?;
        self.outstanding = [None; TAGS];
        // Seventeen entries cannot all name distinct tags below 16, so a
        // forged count fails here by its seventeenth entry at the latest.
        for _ in 0..n {
            let (tag, ocp_tag) = (r.u8()?, r.u8()?);
            r.bool()?; // expects a response, as every held tag does
            let submitted = Cycle::new(r.u64()?);
            let Some(slot @ None) = self.outstanding.get_mut(tag as usize) else {
                return Err(SnapshotError::Malformed(format!(
                    "transaction tag {tag} is held twice or outside the {TAGS}-tag table"
                )));
            };
            *slot = Some(PendingTx { ocp_tag, submitted });
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
        self.port.next_packet_id = r.u64()?;
        self.stats.load_state(r)?;
        Ok(())
    }
}

impl TargetNi {
    /// Captures the network port (as [`InitiatorNi::save_state`] does),
    /// the attached memory's contents and access counters,
    /// latency-scheduled responses, the packet-id allocator and
    /// statistics. Return routes, configuration, wiring and the memory's
    /// access latency are structural.
    pub(crate) fn save_state(&self, w: &mut SnapshotWriter, chan: &[Channel]) {
        self.port.save_state(w, chan);
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
        w.u64(self.port.next_packet_id);
        self.stats.save_state(w);
    }

    /// Reads what [`save_state`](Self::save_state) wrote.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
        chan: &mut [Channel],
    ) -> Result<(), SnapshotError> {
        self.port.load_state(r, chan)?;
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
        self.port.next_packet_id = r.u64()?;
        self.stats.load_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Endpoint;
    use crate::flow_control::LinkTx;
    use crate::link::Link;
    use xpipes_ocp::SResp;
    use xpipes_sim::{FaultPlan, SimRng};
    use xpipes_topology::PortId;

    fn route(hops: &[u8]) -> SourceRoute {
        SourceRoute::new(hops.iter().map(|&p| PortId(p)).collect()).unwrap()
    }

    fn initiator() -> InitiatorNi {
        let routes = vec![None, Some(route(&[2, 4]))];
        let map = vec![AddressRange {
            ni: NiId(1),
            base: 0x1000,
            size: 0x1000,
        }];
        InitiatorNi::new(NiId(0), NiConfig::new(32), routes, map, INI)
    }

    fn target(latency: u64) -> TargetNi {
        let routes = vec![Some(route(&[3]))];
        TargetNi::new(
            NiId(1),
            NiConfig::new(32),
            routes,
            SlaveMemory::new(latency),
            TGT,
        )
    }

    /// An initiator wired straight to a target: channel 0 carries
    /// requests, channel 1 responses, and a cycle runs the network's step
    /// phases over both.
    struct Pair {
        ini: InitiatorNi,
        tgt: TargetNi,
        chan: Vec<Channel>,
        now: Cycle,
    }

    /// The channels the initiator and the target drive and sink.
    const INI: (usize, usize) = (0, 1);
    const TGT: (usize, usize) = (1, 0);

    impl Pair {
        fn new(ini: InitiatorNi, tgt: TargetNi) -> Self {
            let channel = |producer, consumer| {
                let tx = LinkTx::new(4, None);
                let link = Link::new(1, SimRng::seed(0), FaultPlan::none());
                Channel::new(producer, consumer, tx, link)
            };
            let (i, t) = (Endpoint::Initiator(0), Endpoint::Target(0));
            let chan = vec![channel(i, t), channel(t, i)];
            Pair {
                ini,
                tgt,
                chan,
                now: Cycle::ZERO,
            }
        }

        fn submit(&mut self, req: Request) -> Result<(), XpipesError> {
            self.ini.submit(req, self.now, &mut self.chan)
        }

        /// Runs `cycles` cycles: every channel shifts and transmits, then
        /// receives, handing an accepted flit to its NI; then the NIs tick.
        fn run(&mut self, cycles: u64) {
            for _ in 0..cycles {
                for ch in &mut self.chan {
                    ch.shift();
                    ch.fwd_latch = ch.transmit().map(|(lf, _)| lf);
                }
                for (c, ch) in self.chan.iter_mut().enumerate() {
                    let Some(lf) = ch.fwd_arrival.take() else {
                        continue;
                    };
                    let (accepted, reply) = ch.rx.receive(lf, true);
                    ch.rev_latch = Some(reply);
                    match accepted {
                        Some(flit) if c == INI.1 => self.ini.receive(flit, self.now),
                        Some(flit) => self.tgt.receive(flit, self.now),
                        None => {}
                    }
                }
                self.ini.tick(self.now, &mut self.chan);
                self.tgt.tick(self.now, &mut self.chan);
                self.now = self.now.next();
            }
        }

        /// Nothing in either NI or on either channel.
        fn is_idle(&self) -> bool {
            self.ini.is_idle() && self.tgt.is_idle() && !self.chan.iter().any(Channel::holds_flit)
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            self.ini.save_state(&mut w, &self.chan);
            self.tgt.save_state(&mut w, &self.chan);
            self.chan.iter().for_each(|ch| ch.save_state(&mut w));
            w.finish()
        }

        fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
            let mut r = SnapshotReader::open(bytes)?;
            self.ini.load_state(&mut r, &mut self.chan)?;
            self.tgt.load_state(&mut r, &mut self.chan)?;
            for ch in &mut self.chan {
                ch.load_state(&mut r)?;
            }
            r.finish()
        }
    }

    fn pair(latency: u64) -> Pair {
        Pair::new(initiator(), target(latency))
    }

    #[test]
    fn write_reaches_target_memory() {
        let mut p = pair(0);
        p.submit(Request::write(0x1040, vec![0xAB, 0xCD]).unwrap())
            .unwrap();
        p.run(50);
        // Window base 0x1000: the target sees local offsets.
        assert_eq!(p.tgt.memory().peek(0x40), 0xAB);
        assert_eq!(p.tgt.memory().peek(0x48), 0xCD);
        assert!(p.ini.is_idle(), "posted write completes immediately");
        assert_eq!(p.tgt.stats().packets_received, 1);
    }

    #[test]
    fn read_round_trip() {
        let mut p = pair(2);
        p.tgt.memory_mut().poke(0x10, 77);
        p.submit(Request::read(0x1010, 1).unwrap()).unwrap();
        p.run(100);
        let resp = p.ini.take_response().expect("response arrived");
        assert_eq!(resp.resp(), SResp::Dva);
        assert_eq!(resp.data(), &[77]);
        assert!(p.is_idle());
        assert_eq!(p.ini.stats().latency.count(), 1);
    }

    #[test]
    fn burst_read_returns_all_beats() {
        let mut p = pair(1);
        for i in 0..4u64 {
            p.tgt.memory_mut().poke(0x20 + 8 * i, 100 + i);
        }
        p.submit(Request::read(0x1020, 4).unwrap()).unwrap();
        p.run(200);
        let resp = p.ini.take_response().expect("response");
        assert_eq!(resp.data(), &[100, 101, 102, 103]);
    }

    #[test]
    fn nonposted_write_gets_ack() {
        let mut p = pair(0);
        let req = xpipes_ocp::transaction::RequestBuilder::new(MCmd::WriteNonPost, 0x1000)
            .data(vec![5])
            .tag(7)
            .build()
            .unwrap();
        p.submit(req).unwrap();
        p.run(100);
        let resp = p.ini.take_response().expect("ack response");
        assert_eq!(resp.tag(), 7, "OCP tag restored from the NI tag table");
        assert!(resp.data().is_empty());
    }

    #[test]
    fn unmapped_address_rejected_at_submit() {
        let err = pair(0)
            .submit(Request::read(0x9999_0000, 1).unwrap())
            .unwrap_err();
        assert_eq!(err, XpipesError::UnmappedAddress(0x9999_0000));
    }

    #[test]
    fn many_outstanding_transactions_use_backlog() {
        let mut p = pair(0);
        for i in 0..20u64 {
            p.submit(Request::read(0x1000 + i * 8, 1).unwrap()).unwrap();
        }
        // Only 16 tags exist: 4 requests sit in the backlog until
        // responses free tags; all 20 eventually complete.
        p.run(2000);
        let mut got = 0;
        while p.ini.take_response().is_some() {
            got += 1;
        }
        assert_eq!(got, 20);
        assert!(p.ini.is_idle());
    }

    #[test]
    fn data_masked_to_data_width() {
        let mut p = pair(0);
        p.submit(Request::write(0x1000, vec![0x1_2345_6789]).unwrap())
            .unwrap();
        p.run(50);
        assert_eq!(
            p.tgt.memory().peek(0x0),
            0x2345_6789,
            "upper bits truncated at 32-bit OCP"
        );
    }

    #[test]
    fn target_latency_delays_response() {
        let latency = |target_latency, cycles| {
            let mut p = pair(target_latency);
            p.submit(Request::read(0x1000, 1).unwrap()).unwrap();
            p.run(cycles);
            p.ini.stats().latency.mean()
        };
        let fast = latency(0, 200);
        let slow = latency(20, 400);
        assert!(slow >= fast + 19.0, "fast={fast} slow={slow}");
    }

    /// Checkpoint an initiator/target pair mid-transaction (tags held,
    /// responses scheduled, flits queued and in flight) and restore into
    /// fresh NIs and channels: the remaining protocol must complete
    /// identically.
    #[test]
    fn ni_snapshot_mid_transaction_resumes_identically() {
        let mut p = pair(3);
        p.tgt.memory_mut().poke(0x10, 77);
        for i in 0..6u64 {
            p.submit(Request::read(0x1000 + i * 8, 1).unwrap()).unwrap();
        }
        p.submit(Request::write(0x1040, vec![0xAB]).unwrap())
            .unwrap();
        // Run a few cycles: transactions are in flight everywhere.
        p.run(12);
        assert!(!p.is_idle());

        let mut p2 = pair(3);
        p2.restore(&p.snapshot()).unwrap();
        p2.now = p.now;
        assert_eq!(p2.snapshot(), p.snapshot());

        p.run(400);
        p2.run(400);
        assert!(p.is_idle() && p2.is_idle());
        let mut got = Vec::new();
        while let Some(resp) = p.ini.take_response() {
            got.push(resp);
        }
        let mut got2 = Vec::new();
        while let Some(resp) = p2.ini.take_response() {
            got2.push(resp);
        }
        assert_eq!(got, got2);
        assert_eq!(got.len(), 6);
        assert_eq!(
            p.tgt.memory().export_words(),
            p2.tgt.memory().export_words()
        );
        assert_eq!(p.snapshot(), p2.snapshot());
    }

    #[test]
    fn stats_count_flits() {
        let mut p = pair(0);
        p.submit(Request::write(0x1000, vec![1, 2, 3]).unwrap())
            .unwrap();
        p.run(100);
        // W=32: header 2 flits + addr + 3 beats = 6.
        assert_eq!(p.ini.stats().flits_sent, 6);
        assert_eq!(p.ini.stats().packets_sent, 1);
    }
}
