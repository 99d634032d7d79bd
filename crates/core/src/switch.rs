//! The xpipes Lite switch: 2-stage pipelined, output-queued, wormhole,
//! source-routed, with ACK/nACK flow & error control on every port.
//!
//! Pipeline structure (the paper's "2-stage pipelined" redesign, down from
//! 7 stages in the first-generation xpipes switch):
//!
//! * **Stage 1** — input register + route decode: the head flit's source
//!   route is consumed (low 4 bits select the output port, the rest shifts
//!   down) and the input requests that output from the allocator.
//! * **Stage 2** — arbitration + crossbar traversal into the output queue,
//!   whose head feeds the link through the ACK/nACK sender.
//!
//! Wormhole switching: a granted head flit locks its input→output pairing
//! until the tail flit passes, so packets never interleave on a link.
//!
//! The per-cycle protocol is split into three phases the network assembly
//! drives in order: [`transmit`](Switch::transmit) (stage 2 output side),
//! [`crossbar`](Switch::crossbar) (stage 2 allocation), and
//! [`receive`](Switch::receive) (stage 1 input side). Phase ordering makes
//! the model cycle-faithful: a flit needs one cycle in the input register
//! and one in the output queue — two pipeline stages.

use std::collections::VecDeque;

use xpipes_sim::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::arbiter::Arbiter;
use crate::config::SwitchConfig;
use crate::flit::Flit;
use crate::flow_control::{AckNack, FlowSabotage, LinkFlit, LinkRx, LinkTx};
use crate::snap;

/// Output ports a source route can name: each hop is a 4-bit field, so a
/// requested output (a head's next hop, or the port a packet is locked
/// to) is always below this.
const ROUTE_PORTS: usize = 16;

#[derive(Debug, Clone)]
struct InputPort {
    rx: LinkRx,
    /// Extra pipeline shift register (empty for xpipes Lite; 5 slots model
    /// the legacy 7-stage first-generation switch for comparison benches).
    /// Flits enter at the back and advance one slot per cycle.
    delay: VecDeque<Option<Flit>>,
    /// Stage-1 input register.
    reg: Option<Flit>,
    /// Output port the current packet is locked to (wormhole state).
    route_port: Option<usize>,
}

impl InputPort {
    /// True when a newly arriving flit can be stored this cycle.
    fn can_accept(&self) -> bool {
        if self.delay.is_empty() {
            self.reg.is_none()
        } else {
            matches!(self.delay.back(), Some(None))
        }
    }

    /// Stores a delivered flit (entry stage of the input pipeline).
    fn store(&mut self, flit: Flit) {
        if self.delay.is_empty() {
            debug_assert!(self.reg.is_none());
            self.reg = Some(flit);
        } else {
            let back = self.delay.back_mut().expect("nonempty delay line");
            debug_assert!(back.is_none());
            *back = Some(flit);
        }
    }

    /// Advances the extra pipeline one cycle (stalling when the register
    /// is occupied and a flit is waiting at the front).
    fn advance_delay(&mut self) {
        if self.delay.is_empty() {
            return;
        }
        if self.reg.is_none() {
            if let Some(front) = self.delay.pop_front() {
                self.reg = front;
                self.delay.push_back(None);
            }
        } else if matches!(self.delay.front(), Some(None)) {
            self.delay.pop_front();
            self.delay.push_back(None);
        }
    }
}

#[derive(Debug, Clone)]
struct OutputPort {
    /// The output queue and, at its front, the retransmission window.
    tx: LinkTx,
    /// Remaining forced-stall cycles (transient backpressure fault model).
    stall: u64,
}

/// Cumulative switch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SwitchStats {
    /// Flits moved through the crossbar.
    pub flits_routed: u64,
    /// Packets (head flits) routed.
    pub packets_routed: u64,
    /// Cycles in which an input requested an output but lost arbitration
    /// or found the queue full.
    pub contention_stalls: u64,
    /// Flits retransmitted by this switch's output ports.
    pub retransmissions: u64,
    /// ACK timeouts fired by this switch's output ports.
    pub ack_timeouts: u64,
    /// Cycles an output port spent in an injected transient stall.
    pub stalled_cycles: u64,
    /// Highest output-queue occupancy observed (flits), for buffer-sizing
    /// studies.
    pub max_queue_depth: usize,
}

/// One switch instance.
///
/// # Examples
///
/// Standalone routing of a single-flit packet from input 0 to output 1:
///
/// ```
/// use xpipes::switch::Switch;
/// use xpipes::config::SwitchConfig;
/// use xpipes::header::Header;
/// use xpipes::{Flit, FlitKind, FlitMeta};
/// use xpipes::flow_control::LinkFlit;
/// use xpipes_ocp::{MCmd, ThreadId, Sideband};
/// use xpipes_topology::route::SourceRoute;
/// use xpipes_topology::PortId;
/// use xpipes_sim::Cycle;
///
/// # fn main() -> Result<(), xpipes::XpipesError> {
/// let mut sw = Switch::new(SwitchConfig::new(2, 2, 32));
/// let route = SourceRoute::new(vec![PortId(1)]).expect("valid");
/// let header = Header::request(&route, 0, MCmd::Read, 1, ThreadId(0), 0, Sideband::NONE)?;
/// let flit = Flit::head(FlitKind::Single, 0, header, FlitMeta::new(0, Cycle::ZERO, 0));
///
/// sw.receive(0, Some(LinkFlit { flit, seq: 0, corrupted: false }));
/// sw.crossbar();                       // stage 2: into output queue 1
/// let out = sw.transmit(1, None);      // stage 2: onto the link
/// assert!(out.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Switch {
    config: SwitchConfig,
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
    arbiters: Vec<Arbiter>,
    /// Per output: input holding the wormhole lock.
    locks: Vec<Option<usize>>,
    stats: SwitchStats,
    /// When set, `(output port, packet id)` of every tail flit the
    /// crossbar grants is collected for the attribution engine.
    record_grants: bool,
    granted_tails: Vec<(usize, u64)>,
    /// Flits held on the input side (registers + delay lines) and on the
    /// output side (the ports' buffers), counted where flits move so the
    /// activity probes are O(1). Derived state: recounted on load, never
    /// serialized.
    held_in: usize,
    held_out: usize,
}

impl Switch {
    /// Instantiates a switch from its configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration has zero inputs or outputs, or more
    /// than 64 inputs (the crossbar arbitrates over one `u64` of request
    /// lines per output).
    pub fn new(config: SwitchConfig) -> Self {
        Self::with_extra_stages(config, 0)
    }

    /// Instantiates a switch with `extra` additional input pipeline stages
    /// (models the first-generation 7-stage switch when `extra = 5`).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub(crate) fn with_extra_stages(config: SwitchConfig, extra: usize) -> Self {
        assert!(
            config.inputs > 0 && config.outputs > 0,
            "switch needs ports"
        );
        assert!(config.inputs <= 64, "switch takes at most 64 inputs");
        let inputs = (0..config.inputs)
            .map(|_| InputPort {
                rx: LinkRx::new(),
                delay: VecDeque::from(vec![None; extra]),
                reg: None,
                route_port: None,
            })
            .collect();
        let outputs = (0..config.outputs)
            .map(|_| OutputPort {
                tx: LinkTx::new(config.retransmit_depth(), config.ack_timeout),
                stall: 0,
            })
            .collect();
        let arbiters = (0..config.outputs)
            .map(|_| Arbiter::new(config.arbitration, config.inputs))
            .collect();
        Switch {
            locks: vec![None; config.outputs],
            config,
            inputs,
            outputs,
            arbiters,
            stats: SwitchStats::default(),
            record_grants: false,
            granted_tails: Vec::new(),
            held_in: 0,
            held_out: 0,
        }
    }

    /// Enables (or disables) collection of crossbar tail grants for the
    /// attribution engine.
    pub(crate) fn set_record_grants(&mut self, on: bool) {
        self.record_grants = on;
        if !on {
            self.granted_tails.clear();
        }
    }

    /// Tail flits granted by the crossbar since the last
    /// [`clear_granted_tails`](Self::clear_granted_tails), as
    /// `(output port, packet id)`.
    pub(crate) fn granted_tails(&self) -> &[(usize, u64)] {
        &self.granted_tails
    }

    /// Clears the collected tail grants.
    pub(crate) fn clear_granted_tails(&mut self) {
        self.granted_tails.clear();
    }

    /// Input pipeline stages beyond the 2-stage minimum (0 for the Lite
    /// switch, 5 for the legacy one).
    pub(crate) fn extra_stages(&self) -> usize {
        self.inputs.first().map_or(0, |i| i.delay.len())
    }

    /// The switch configuration.
    pub(crate) fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub(crate) fn stats(&self) -> SwitchStats {
        let mut s = self.stats;
        s.retransmissions = self.outputs.iter().map(|o| o.tx.retransmissions()).sum();
        s.ack_timeouts = self.outputs.iter().map(|o| o.tx.timeouts()).sum();
        s
    }

    /// Forces output `port` to stall (transmit nothing new) for `cycles`
    /// cycles, modelling transient backpressure at the output buffer.
    /// An already-stalled port keeps the longer of the two stalls.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range port.
    pub(crate) fn stall_output(&mut self, port: usize, cycles: u64) {
        let out = &mut self.outputs[port];
        out.stall = out.stall.max(cycles);
    }

    /// The ACK/nACK sender guarding output `port`.
    pub(crate) fn link_tx(&self, port: usize) -> &LinkTx {
        &self.outputs[port].tx
    }

    /// Arms a deliberate protocol defect on the sender of output `port`
    /// (conformance hook for the invariant checkers).
    pub(crate) fn sabotage_output(&mut self, port: usize, mode: FlowSabotage) {
        self.outputs[port].tx.sabotage(mode);
    }

    /// The ACK/nACK receiver guarding input `port`.
    pub(crate) fn link_rx(&self, port: usize) -> &LinkRx {
        &self.inputs[port].rx
    }

    /// True when no flit is buffered anywhere in the switch. O(1).
    pub fn is_idle(&self) -> bool {
        self.activity().1
    }

    /// `(input side, output side)` flit counts by scanning every port:
    /// what `held_in`/`held_out` must equal.
    fn count_held(&self) -> (usize, usize) {
        let held_in = self
            .inputs
            .iter()
            .map(|i| usize::from(i.reg.is_some()) + i.delay.iter().flatten().count())
            .sum();
        let held_out = self.outputs.iter().map(|o| o.tx.len()).sum();
        (held_in, held_out)
    }

    /// `(total, max)` output-queue occupancy across all ports right now
    /// — a single-pass congestion probe for telemetry sampling.
    pub(crate) fn queue_occupancy(&self) -> (usize, usize) {
        let mut total = 0;
        let mut max = 0;
        for o in &self.outputs {
            let len = o.tx.queued();
            total += len;
            max = max.max(len);
        }
        (total, max)
    }

    /// True when output `port` has pending transmit-side work: queued
    /// flits, unacknowledged flits in the retransmission window (which may
    /// need resending or must tick the ACK timeout), or a forced stall
    /// still counting down: the port's channel stays scheduled.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range port.
    pub(crate) fn output_pending(&self, port: usize) -> bool {
        let out = &self.outputs[port];
        out.tx.len() > 0 || out.stall > 0
    }

    /// Combined O(1) activity probe for the network scheduler:
    /// `(input_activity, idle)`, read off the held-flit counts. Debug
    /// builds check the counts against a full port scan on every call.
    pub(crate) fn activity(&self) -> (bool, bool) {
        debug_assert_eq!(
            (self.held_in, self.held_out),
            self.count_held(),
            "held-flit counts out of sync"
        );
        (self.held_in > 0, self.held_in + self.held_out == 0)
    }

    /// Stage-2 output side for one port: processes the reverse-channel
    /// arrival and returns the flit to drive onto the link this cycle,
    /// with the sender's word on whether it is a first send (`true`) or
    /// a resend.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range port.
    pub fn transmit(&mut self, port: usize, rev: Option<AckNack>) -> Option<(LinkFlit, bool)> {
        let out = &mut self.outputs[port];
        // A flit leaves the output side when the reverse message prunes
        // it (cumulative ACK, or the `DropOnNack` defect).
        self.held_out -= out.tx.process(rev);
        if out.stall > 0 {
            // Injected backpressure: the port drives nothing this cycle.
            out.stall -= 1;
            self.stats.stalled_cycles += 1;
            return None;
        }
        out.tx.transmit(None)
    }

    /// Stage-2 allocation: arbitrates inputs per output and moves granted
    /// flits through the crossbar into the output queues. Call once per
    /// cycle, after [`transmit`](Self::transmit) for all ports. Returns
    /// the bitmask of outputs that were fed a flit.
    pub fn crossbar(&mut self) -> u64 {
        // One pass over the inputs builds the mask of requested outputs
        // and, per output, the request lines that may win it (bit `i` =
        // input `i`). Wormhole: a locked output accepts only its locking
        // input, an unlocked one only a head. The lock can be decided
        // here because it changes only when its own output grants.
        let mut wanted: u64 = 0;
        let mut lines = [0u64; ROUTE_PORTS];
        // A corrupted route can request a nonexistent port; such requests
        // never win and count no stall.
        let ports = self.config.outputs.min(ROUTE_PORTS);
        for (i, input) in self.inputs.iter().enumerate() {
            let (o, head) = match &input.reg {
                Some(flit) if flit.kind.is_head() => {
                    (flit.header.map(|h| h.next_hop() as usize), true)
                }
                Some(_) => (input.route_port, false),
                None => continue,
            };
            let Some(o) = o.filter(|&o| o < ports) else {
                continue;
            };
            wanted |= 1 << o;
            let lock_ok = match self.locks[o] {
                None => head,
                Some(owner) => owner == i,
            };
            if lock_ok {
                lines[o] |= 1 << i;
            }
        }

        let mut fed: u64 = 0;
        while wanted != 0 {
            let o = wanted.trailing_zeros() as usize;
            wanted &= wanted - 1;
            let requests = lines[o];
            if self.outputs[o].tx.queued() >= self.config.output_queue_depth {
                self.stats.contention_stalls += 1;
                continue;
            }
            let Some(winner) = self.arbiters[o].grant(requests) else {
                self.stats.contention_stalls += 1;
                continue;
            };
            if requests & (requests - 1) != 0 {
                self.stats.contention_stalls += 1;
            }
            // Move the winning flit through the crossbar.
            let input = &mut self.inputs[winner];
            let mut flit = input.reg.take().expect("winner holds a flit");
            if flit.kind.is_head() {
                // Consume one hop of the source route on the packed bits.
                if let Some(h) = flit.header {
                    flit.header = Some(h.consume_route());
                }
                self.locks[o] = Some(winner);
                input.route_port = Some(o);
                self.stats.packets_routed += 1;
            }
            if flit.kind.is_tail() {
                self.locks[o] = None;
                input.route_port = None;
            }
            if self.record_grants && flit.kind.is_tail() {
                self.granted_tails.push((o, flit.meta.packet_id));
            }
            self.outputs[o].tx.push(flit);
            self.held_in -= 1;
            self.held_out += 1;
            fed |= 1 << o;
            self.stats.max_queue_depth =
                self.stats.max_queue_depth.max(self.outputs[o].tx.queued());
            self.stats.flits_routed += 1;
        }

        // Advance the extra input pipeline (legacy switch model only).
        if self.extra_stages() > 0 {
            for input in &mut self.inputs {
                input.advance_delay();
            }
        }
        fed
    }

    /// Stage-1 input side for one port: feeds the forward-channel arrival
    /// through the ACK/nACK guard into the input register. Returns the
    /// reverse-channel reply to send (next cycle) on the link.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range port.
    pub fn receive(&mut self, port: usize, fwd: Option<LinkFlit>) -> Option<AckNack> {
        let arrival = fwd?;
        let input = &mut self.inputs[port];
        let can_accept = input.can_accept();
        let (delivered, reply) = input.rx.receive(arrival, can_accept);
        if let Some(flit) = delivered {
            input.store(flit);
            self.held_in += 1;
        }
        Some(reply)
    }
}

impl Snapshot for Switch {
    /// Captures every input register and delay slot, wormhole locks and
    /// route pinnings, output queues, per-port ACK/nACK engines, stall
    /// countdowns, arbiter pointers, statistics and pending tail grants.
    /// The configuration (port counts, queue depth, timeout, extra
    /// stages) is structural and not stored.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.len(self.inputs.len());
        for input in &self.inputs {
            input.rx.save_state(w);
            w.len(input.delay.len());
            for slot in &input.delay {
                snap::save_opt_flit(w, slot);
            }
            snap::save_opt_flit(w, &input.reg);
            match input.route_port {
                Some(p) => {
                    w.bool(true);
                    w.len(p);
                }
                None => w.bool(false),
            }
        }
        w.len(self.outputs.len());
        for out in &self.outputs {
            w.len(out.tx.queued());
            out.tx.save_queued(w);
            out.tx.save_state(w);
            w.u64(out.stall);
        }
        for arb in &self.arbiters {
            arb.save_state(w);
        }
        for lock in &self.locks {
            match lock {
                Some(i) => {
                    w.bool(true);
                    w.len(*i);
                }
                None => w.bool(false),
            }
        }
        w.u64(self.stats.flits_routed);
        w.u64(self.stats.packets_routed);
        w.u64(self.stats.contention_stalls);
        w.u64(self.stats.stalled_cycles);
        w.len(self.stats.max_queue_depth);
        w.len(self.granted_tails.len());
        for (port, id) in &self.granted_tails {
            w.len(*port);
            w.u64(*id);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n_in = r.len()?;
        if n_in != self.inputs.len() {
            return Err(SnapshotError::Malformed(format!(
                "switch has {} inputs, snapshot has {n_in}",
                self.inputs.len()
            )));
        }
        for input in self.inputs.iter_mut() {
            input.rx.load_state(r)?;
            let depth = r.len()?;
            if depth != input.delay.len() {
                return Err(SnapshotError::Malformed(format!(
                    "input delay line holds {} slots, snapshot has {depth}",
                    input.delay.len()
                )));
            }
            for slot in input.delay.iter_mut() {
                *slot = snap::load_opt_flit(r)?;
            }
            input.reg = snap::load_opt_flit(r)?;
            input.route_port = if r.bool()? { Some(r.len()?) } else { None };
        }
        let n_out = r.len()?;
        if n_out != self.outputs.len() {
            return Err(SnapshotError::Malformed(format!(
                "switch has {} outputs, snapshot has {n_out}",
                self.outputs.len()
            )));
        }
        for out in self.outputs.iter_mut() {
            let q = r.len()?;
            if q > self.config.output_queue_depth {
                return Err(SnapshotError::Malformed(format!(
                    "output queue holds {q} flits but depth is {}",
                    self.config.output_queue_depth
                )));
            }
            out.tx.load_queued(r, q)?;
            out.tx.load_state(r)?;
            out.stall = r.u64()?;
        }
        for arb in self.arbiters.iter_mut() {
            arb.load_state(r)?;
        }
        for lock in self.locks.iter_mut() {
            *lock = if r.bool()? { Some(r.len()?) } else { None };
        }
        self.stats.flits_routed = r.u64()?;
        self.stats.packets_routed = r.u64()?;
        self.stats.contention_stalls = r.u64()?;
        self.stats.stalled_cycles = r.u64()?;
        self.stats.max_queue_depth = r.len()?;
        let n_grants = r.len()?;
        self.granted_tails.clear();
        for _ in 0..n_grants {
            let port = r.len()?;
            let id = r.u64()?;
            self.granted_tails.push((port, id));
        }
        (self.held_in, self.held_out) = self.count_held();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, FlitMeta};
    use crate::flow_control::SEQ_MOD;
    use crate::header::Header;
    use proptest::prelude::*;
    use xpipes_ocp::{MCmd, Sideband, ThreadId};
    use xpipes_sim::Cycle;
    use xpipes_topology::route::SourceRoute;
    use xpipes_topology::spec::Arbitration;
    use xpipes_topology::PortId;

    fn header_to(ports: &[u8], burst: u8) -> Header {
        let route = SourceRoute::new(ports.iter().map(|&p| PortId(p)).collect()).unwrap();
        Header::request(
            &route,
            0,
            MCmd::Write,
            burst,
            ThreadId(0),
            0,
            Sideband::NONE,
        )
        .unwrap()
    }

    fn packet_flits(id: u64, ports: &[u8], body: usize) -> Vec<Flit> {
        let meta = FlitMeta::new(id, Cycle::ZERO, 0);
        let header = header_to(ports, 1);
        if body == 0 {
            return vec![Flit::head(FlitKind::Single, id as u128, header, meta)];
        }
        let mut flits = vec![Flit::head(FlitKind::Header, id as u128, header, meta)];
        for i in 0..body {
            let kind = if i + 1 == body {
                FlitKind::Tail
            } else {
                FlitKind::Body
            };
            flits.push(Flit::new(kind, i as u128, meta));
        }
        flits
    }

    /// Drives a single switch directly (no links), injecting flit lists
    /// into inputs and collecting what each output transmits.
    fn run_switch(
        sw: &mut Switch,
        mut feeds: Vec<VecDeque<Flit>>,
        cycles: usize,
    ) -> Vec<Vec<Flit>> {
        let n_out = sw.config.outputs;
        let mut seqs = vec![0u8; feeds.len()];
        let mut collected = vec![Vec::new(); n_out];
        // Every flit is ACKed on the next cycle's reverse channel, so the
        // window never fills.
        let mut acks = vec![None; n_out];
        for _ in 0..cycles {
            for (o, ack) in acks.iter_mut().enumerate() {
                if let Some((lf, _)) = sw.transmit(o, ack.take()) {
                    collected[o].push(lf.flit);
                    *ack = Some(AckNack {
                        seq: lf.seq,
                        ack: true,
                    });
                }
            }
            sw.crossbar();
            for (i, feed) in feeds.iter_mut().enumerate() {
                if let Some(front) = feed.front() {
                    let lf = LinkFlit {
                        flit: *front,
                        seq: seqs[i],
                        corrupted: false,
                    };
                    if let Some(reply) = sw.receive(i, Some(lf)) {
                        if reply.ack {
                            feed.pop_front();
                            seqs[i] = (seqs[i] + 1) % 64;
                        }
                    }
                }
            }
        }
        collected
    }

    #[test]
    fn routes_single_flit_to_requested_output() {
        let mut sw = Switch::new(SwitchConfig::new(2, 2, 32));
        let feeds = vec![packet_flits(1, &[1], 0).into(), VecDeque::new()];
        let out = run_switch(&mut sw, feeds, 10);
        assert_eq!(out[0].len(), 0);
        assert_eq!(out[1].len(), 1);
        assert_eq!(out[1][0].meta.packet_id, 1);
        assert_eq!(sw.stats().packets_routed, 1);
    }

    #[test]
    fn consumes_one_route_hop() {
        let mut sw = Switch::new(SwitchConfig::new(2, 2, 32));
        let feeds = vec![packet_flits(1, &[1, 3], 0).into(), VecDeque::new()];
        let out = run_switch(&mut sw, feeds, 10);
        let packed = out[1][0].header.expect("head keeps header");
        let h = Header::decode(packed.bits()).unwrap();
        assert_eq!(h.route & 0xF, 3, "next hop should now be first");
        assert_eq!(h.hop_len, 1);
    }

    #[test]
    fn two_stage_latency() {
        // Inject at cycle 0; the flit must appear at the output on cycle 2
        // (one cycle in the input register, one in the output queue).
        let mut sw = Switch::new(SwitchConfig::new(1, 1, 32));
        let flit = packet_flits(9, &[0], 0).remove(0);
        let mut appeared_at = None;
        for cycle in 0..6 {
            if let Some((lf, _)) = sw.transmit(0, None) {
                assert_eq!(lf.flit.meta.packet_id, 9);
                appeared_at = Some(cycle);
                break;
            }
            sw.crossbar();
            if cycle == 0 {
                sw.receive(
                    0,
                    Some(LinkFlit {
                        flit,
                        seq: 0,
                        corrupted: false,
                    }),
                );
            }
        }
        assert_eq!(appeared_at, Some(2), "xpipes Lite switch is 2-stage");
    }

    #[test]
    fn legacy_switch_has_longer_latency() {
        let mut sw = Switch::with_extra_stages(SwitchConfig::new(1, 1, 32), 5);
        let flit = packet_flits(9, &[0], 0).remove(0);
        let mut appeared_at = None;
        for cycle in 0..20 {
            if let Some((lf, _)) = sw.transmit(0, None) {
                assert_eq!(lf.flit.meta.packet_id, 9);
                appeared_at = Some(cycle);
                break;
            }
            sw.crossbar();
            if cycle == 0 {
                sw.receive(
                    0,
                    Some(LinkFlit {
                        flit,
                        seq: 0,
                        corrupted: false,
                    }),
                );
            }
        }
        assert_eq!(appeared_at, Some(7), "legacy switch models 7 stages");
    }

    #[test]
    fn wormhole_does_not_interleave_packets() {
        // Two 4-flit packets from different inputs to the same output:
        // their flits must come out contiguously per packet.
        let mut sw = Switch::new(SwitchConfig::new(2, 2, 32));
        let feeds = vec![
            packet_flits(1, &[0], 3).into(),
            packet_flits(2, &[0], 3).into(),
        ];
        let out = run_switch(&mut sw, feeds, 40);
        assert_eq!(out[0].len(), 8);
        let ids: Vec<u64> = out[0].iter().map(|f| f.meta.packet_id).collect();
        // Find the boundary: first id holds for 4 flits, then the other.
        assert_eq!(
            ids[0..4]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            1
        );
        assert_eq!(
            ids[4..8]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            1
        );
        assert_ne!(ids[0], ids[4]);
    }

    #[test]
    fn round_robin_alternates_single_flit_packets() {
        let mut sw = Switch::new(SwitchConfig::new(2, 1, 32));
        let mut f0 = VecDeque::new();
        let mut f1 = VecDeque::new();
        for k in 0..4 {
            f0.push_back(packet_flits(10 + k, &[0], 0).remove(0));
            f1.push_back(packet_flits(20 + k, &[0], 0).remove(0));
        }
        let out = run_switch(&mut sw, vec![f0, f1], 40);
        let ids: Vec<u64> = out[0].iter().map(|f| f.meta.packet_id).collect();
        assert_eq!(ids.len(), 8);
        // Round robin ⇒ strict alternation between the two tens-groups.
        for pair in ids.windows(2) {
            assert_ne!(pair[0] / 10, pair[1] / 10, "sequence {ids:?}");
        }
    }

    #[test]
    fn fixed_priority_prefers_input_zero() {
        let mut cfg = SwitchConfig::new(2, 1, 32);
        cfg.arbitration = Arbitration::Fixed;
        let mut sw = Switch::new(cfg);
        let mut f0 = VecDeque::new();
        let mut f1 = VecDeque::new();
        for k in 0..3 {
            f0.push_back(packet_flits(10 + k, &[0], 0).remove(0));
            f1.push_back(packet_flits(20 + k, &[0], 0).remove(0));
        }
        let out = run_switch(&mut sw, vec![f0, f1], 40);
        let ids: Vec<u64> = out[0].iter().map(|f| f.meta.packet_id).collect();
        // All of input 0's packets must precede any steady-state win by
        // input 1 beyond pipeline effects: input 0 packets appear in order
        // and the first two outputs are both input-0 packets.
        assert_eq!(ids.iter().filter(|&&id| id < 20).count(), 3);
        assert!(ids[0] < 20);
    }

    #[test]
    fn output_queue_backpressure_counts_stalls() {
        // Output 0 is never drained (transmit not called): queue fills,
        // crossbar stalls.
        let mut sw = Switch::new(SwitchConfig::new(1, 1, 32));
        let mut seq = 0u8;
        let mut feed: VecDeque<Flit> = (0..12_u64)
            .map(|k| packet_flits(k, &[0], 0).remove(0))
            .collect();
        for _ in 0..40 {
            sw.crossbar();
            if let Some(front) = feed.front() {
                let lf = LinkFlit {
                    flit: *front,
                    seq,
                    corrupted: false,
                };
                if let Some(reply) = sw.receive(0, Some(lf)) {
                    if reply.ack {
                        feed.pop_front();
                        seq = (seq + 1) % 64;
                    }
                }
            }
        }
        // Queue capacity is 6: exactly 6 flits inside, rest stalled.
        assert_eq!(sw.outputs[0].tx.queued(), 6);
        assert!(sw.stats().contention_stalls > 0);
    }

    #[test]
    fn queue_high_water_mark_tracked() {
        let mut sw = Switch::new(SwitchConfig::new(1, 1, 32));
        let feed: VecDeque<Flit> = (0..4u64)
            .map(|k| packet_flits(k, &[0], 0).remove(0))
            .collect();
        // Never drain output 0: occupancy climbs to the feed size.
        let mut seq = 0u8;
        let mut feed = feed;
        for _ in 0..30 {
            sw.crossbar();
            if let Some(front) = feed.front() {
                let lf = LinkFlit {
                    flit: *front,
                    seq,
                    corrupted: false,
                };
                if let Some(reply) = sw.receive(0, Some(lf)) {
                    if reply.ack {
                        feed.pop_front();
                        seq = (seq + 1) % 64;
                    }
                }
            }
        }
        assert_eq!(sw.stats().max_queue_depth, 4);
    }

    #[test]
    fn is_idle_reflects_buffers() {
        let mut sw = Switch::new(SwitchConfig::new(1, 1, 32));
        assert!(sw.is_idle());
        let flit = packet_flits(1, &[0], 0).remove(0);
        sw.receive(
            0,
            Some(LinkFlit {
                flit,
                seq: 0,
                corrupted: false,
            }),
        );
        assert!(!sw.is_idle());
    }

    #[test]
    fn corrupted_arrival_nacked_and_not_stored() {
        let mut sw = Switch::new(SwitchConfig::new(1, 1, 32));
        let flit = packet_flits(1, &[0], 0).remove(0);
        let reply = sw
            .receive(
                0,
                Some(LinkFlit {
                    flit,
                    seq: 0,
                    corrupted: true,
                }),
            )
            .unwrap();
        assert!(!reply.ack);
        assert!(sw.is_idle());
    }

    #[test]
    fn stalled_output_transmits_nothing_until_stall_expires() {
        let mut sw = Switch::new(SwitchConfig::new(1, 1, 32));
        // Preload the output queue with one flit via the normal pipeline.
        let flit = packet_flits(3, &[0], 0).remove(0);
        sw.receive(
            0,
            Some(LinkFlit {
                flit,
                seq: 0,
                corrupted: false,
            }),
        );
        sw.crossbar();
        sw.stall_output(0, 3);
        for _ in 0..3 {
            assert!(sw.transmit(0, None).is_none());
        }
        assert!(sw.transmit(0, None).is_some());
        assert_eq!(sw.stats().stalled_cycles, 3);
    }

    #[test]
    fn stall_output_keeps_longer_stall() {
        let mut sw = Switch::new(SwitchConfig::new(1, 1, 32));
        sw.stall_output(0, 5);
        sw.stall_output(0, 2);
        for _ in 0..5 {
            sw.transmit(0, None);
        }
        assert_eq!(sw.stats().stalled_cycles, 5);
    }

    #[test]
    #[should_panic]
    fn bad_output_port_panics() {
        let mut sw = Switch::new(SwitchConfig::new(1, 1, 32));
        sw.transmit(5, None);
    }

    /// Checkpoint a switch mid-wormhole (header granted, tail not yet
    /// through) and restore into a fresh instance: the remaining flits
    /// must come out identically, locks intact.
    #[test]
    fn switch_snapshot_mid_wormhole_resumes_identically() {
        let mut sw = Switch::new(SwitchConfig::new(2, 2, 32));
        let mut feeds: Vec<VecDeque<Flit>> = vec![
            packet_flits(1, &[0], 3).into(),
            packet_flits(2, &[0], 3).into(),
        ];
        let mut seqs = vec![0u8; feeds.len()];
        // Run a few cycles without draining the outputs so packet state is
        // parked in registers, queues and locks.
        for _ in 0..3 {
            sw.crossbar();
            for (i, feed) in feeds.iter_mut().enumerate() {
                if let Some(front) = feed.front() {
                    let lf = LinkFlit {
                        flit: *front,
                        seq: seqs[i],
                        corrupted: false,
                    };
                    if let Some(reply) = sw.receive(i, Some(lf)) {
                        if reply.ack {
                            feed.pop_front();
                            seqs[i] = (seqs[i] + 1) % 64;
                        }
                    }
                }
            }
        }
        assert!(!sw.is_idle());

        let mut w = SnapshotWriter::new();
        sw.save_state(&mut w);
        let bytes = w.finish();
        let mut restored = Switch::new(SwitchConfig::new(2, 2, 32));
        let mut r = SnapshotReader::open(&bytes).unwrap();
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.stats(), sw.stats());
        assert_eq!(restored.queue_occupancy(), sw.queue_occupancy());

        // Drive both switches identically to completion and compare every
        // emitted flit.
        let run = |sw: &mut Switch, feeds: &mut [VecDeque<Flit>], seqs: &mut [u8]| {
            let mut out = Vec::new();
            let mut acks = [None; 2];
            for _ in 0..40 {
                for (o, ack) in acks.iter_mut().enumerate() {
                    if let Some((lf, _)) = sw.transmit(o, ack.take()) {
                        out.push((o, lf));
                        *ack = Some(AckNack {
                            seq: lf.seq,
                            ack: true,
                        });
                    }
                }
                sw.crossbar();
                for (i, feed) in feeds.iter_mut().enumerate() {
                    if let Some(front) = feed.front() {
                        let lf = LinkFlit {
                            flit: *front,
                            seq: seqs[i],
                            corrupted: false,
                        };
                        if let Some(reply) = sw.receive(i, Some(lf)) {
                            if reply.ack {
                                feed.pop_front();
                                seqs[i] = (seqs[i] + 1) % 64;
                            }
                        }
                    }
                }
            }
            out
        };
        let mut feeds2 = feeds.clone();
        let mut seqs2 = seqs.clone();
        let a = run(&mut sw, &mut feeds, &mut seqs);
        let b = run(&mut restored, &mut feeds2, &mut seqs2);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_eq!(sw.stats(), restored.stats());
    }

    #[test]
    fn switch_snapshot_port_mismatch_rejected() {
        let sw = Switch::new(SwitchConfig::new(2, 2, 32));
        let mut w = SnapshotWriter::new();
        sw.save_state(&mut w);
        let bytes = w.finish();
        let mut other = Switch::new(SwitchConfig::new(3, 3, 32));
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            other.load_state(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }

    /// One step of the random script below: `(kind, port, arg)`.
    type Op = (u8, usize, u8);

    /// Applies `op` to `sw`. Arrivals come from `feeds` (legal wormhole
    /// packets, so flits do move), carrying the receiver's expected
    /// sequence number unless the op asks for a stale one; ACKs and nACKs
    /// name a sequence number taken from the sender's window when it has
    /// one.
    fn apply(sw: &mut Switch, feeds: &mut [VecDeque<Flit>], (kind, port, arg): Op) {
        let port = port % sw.config.inputs;
        match kind {
            0..=3 => {
                if let Some(&flit) = feeds[port].front() {
                    // The receiver expects the sequence number after the accepted ones.
                    let expected = (sw.link_rx(port).accepted() % u64::from(SEQ_MOD)) as u8;
                    let lf = LinkFlit {
                        flit,
                        seq: if arg % 8 == 7 { arg % 64 } else { expected },
                        corrupted: arg % 8 == 6,
                    };
                    let before = sw.link_rx(port).accepted();
                    sw.receive(port, Some(lf));
                    if sw.link_rx(port).accepted() > before {
                        feeds[port].pop_front();
                    }
                }
            }
            4..=6 => {
                sw.crossbar();
            }
            7..=10 => {
                let window: Vec<u8> = sw.link_tx(port).window_seqs().collect();
                let seq = match window.len() {
                    0 => arg % 64,
                    n => window[arg as usize % n],
                };
                let rev = match arg % 4 {
                    0 => None,
                    1 => Some(AckNack { seq, ack: false }),
                    _ => Some(AckNack { seq, ack: true }),
                };
                sw.transmit(port, rev);
            }
            _ => sw.stall_output(port, u64::from(arg % 4)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After every operation of a random receive/crossbar/transmit
        /// script — clean, corrupted and out-of-order arrivals, ACKs,
        /// nACKs, stalls, every sabotage mode, the 2-stage and the legacy
        /// 7-stage switch, and a snapshot round-trip into a fresh
        /// instance half-way — the O(1) held-flit counts equal the full
        /// port scan, so `activity`/`is_idle` answer what the scans did.
        #[test]
        fn held_counts_match_the_port_scan(
            ops in prop::collection::vec((0u8..12, 0usize..3, any::<u8>()), 1..160),
            sabotage in 0usize..4,
            legacy in any::<bool>(),
        ) {
            let mode = [
                None,
                Some(FlowSabotage::SkipRetransmission),
                Some(FlowSabotage::ReuseSequence),
                Some(FlowSabotage::DropOnNack),
            ][sabotage];
            let fresh = || {
                let mut cfg = SwitchConfig::new(3, 3, 32);
                cfg.ack_timeout = Some(5);
                let mut sw = Switch::with_extra_stages(cfg, if legacy { 5 } else { 0 });
                if let Some(mode) = mode {
                    (0..3).for_each(|p| sw.sabotage_output(p, mode));
                }
                sw
            };
            let mut sw = fresh();
            let mut feeds: Vec<VecDeque<Flit>> = (0..3u64)
                .map(|i| {
                    (0..40)
                        .flat_map(|k| packet_flits(100 * i + k, &[((i + k) % 3) as u8], (k % 3) as usize))
                        .collect()
                })
                .collect();
            let half = ops.len() / 2;
            for (n, op) in ops.into_iter().enumerate() {
                if n == half {
                    let mut w = SnapshotWriter::new();
                    sw.save_state(&mut w);
                    let bytes = w.finish();
                    sw = fresh();
                    let mut r = SnapshotReader::open(&bytes).unwrap();
                    sw.load_state(&mut r).unwrap();
                    r.finish().unwrap();
                }
                apply(&mut sw, &mut feeds, op);
                let (held_in, held_out) = sw.count_held();
                prop_assert_eq!((sw.held_in, sw.held_out), (held_in, held_out), "after {:?}", op);
                prop_assert_eq!(sw.activity(), (held_in > 0, held_in + held_out == 0));
                prop_assert_eq!(sw.is_idle(), held_in + held_out == 0);
            }
        }
    }
}
