//! The xpipes Lite switch: 2-stage pipelined, output-queued, wormhole,
//! source-routed, with ACK/nACK flow & error control on every port.
//!
//! Pipeline structure (the paper's "2-stage pipelined" redesign, down from
//! 7 stages in the first-generation xpipes switch):
//!
//! * **Stage 1** — input register + route decode: the head flit's source
//!   route is consumed (low 4 bits select the output port, the rest shifts
//!   down) and the input requests that output from the allocator.
//! * **Stage 2** — arbitration + crossbar traversal into the output queue.
//!   The queue is the go-back-N sender of the output's channel record
//!   (`channel.rs`), whose own visit feeds the link from the queue head.
//!
//! Wormhole switching: a granted head flit locks its input→output pairing
//! until the tail flit passes, so packets never interleave on a link.
//!
//! The switch keeps what is its own — input registers and delay lines,
//! wormhole locks, arbiters and statistics — and knows its ports'
//! channels by id. The network assembly drives each cycle in phases:
//! every channel transmits (stage 2 output side), every switch runs
//! [`crossbar`](Switch::crossbar) (stage 2 allocation), and every channel
//! receives, handing an accepted flit to [`store`](Switch::store) (stage 1
//! input side). Phase ordering makes the model cycle-faithful: a flit
//! needs one cycle in the input register and one in the output queue —
//! two pipeline stages.

use std::collections::VecDeque;

use xpipes_sim::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::arbiter::Arbiter;
use crate::channel::Channel;
use crate::config::SwitchConfig;
use crate::flit::Flit;
use crate::flow_control::{LinkRx, LinkTx};
use crate::snap;

/// Output ports a source route can name: each hop is a 4-bit field, so a
/// requested output (a head's next hop, or the port a packet is locked
/// to) is always below this.
const ROUTE_PORTS: usize = 16;

#[derive(Debug, Clone)]
struct InputPort {
    /// Channel sinking into this port, `usize::MAX` when no link does.
    chan: usize,
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

/// One switch instance, wired to the channels of its ports.
#[derive(Debug, Clone)]
pub(crate) struct Switch {
    config: SwitchConfig,
    inputs: Vec<InputPort>,
    /// Channel fed by each output port, `usize::MAX` where no link leaves
    /// the port.
    out_chan: Vec<usize>,
    /// Forced stalls drawn on outputs that feed no channel, as `(port,
    /// cycles)`. No visit counts them down, but a checkpoint carries
    /// every port's stall.
    unwired_stalls: Vec<(usize, u64)>,
    arbiters: Vec<Arbiter>,
    /// Per output: input holding the wormhole lock.
    locks: Vec<Option<usize>>,
    /// The switch's own counters; the link-side ones live in its output
    /// channels (see [`stats`](Self::stats)).
    stats: SwitchStats,
    /// When set, `(output port, packet id)` of every tail flit the
    /// crossbar grants is collected for the attribution engine.
    record_grants: bool,
    granted_tails: Vec<(usize, u64)>,
    /// Flits held on the input side (registers + delay lines), counted
    /// where flits move so the activity probe is O(1). Derived state:
    /// recounted on load, never serialized.
    held_in: usize,
}

impl Switch {
    /// Instantiates a switch with `extra` additional input pipeline
    /// stages (models the first-generation 7-stage switch when `extra =
    /// 5`), wired to channel `in_chan[p]` at input `p` and `out_chan[p]`
    /// at output `p` (`usize::MAX` for a port no link reaches).
    ///
    /// # Panics
    ///
    /// Panics when the configuration has zero inputs or outputs, or more
    /// than 64 inputs (the crossbar arbitrates over one `u64` of request
    /// lines per output).
    pub(crate) fn new(
        config: SwitchConfig,
        extra: usize,
        in_chan: Vec<usize>,
        out_chan: Vec<usize>,
    ) -> Self {
        assert!(
            config.inputs > 0 && config.outputs > 0,
            "switch needs ports"
        );
        assert!(config.inputs <= 64, "switch takes at most 64 inputs");
        let inputs = in_chan
            .into_iter()
            .map(|chan| InputPort {
                chan,
                delay: VecDeque::from(vec![None; extra]),
                reg: None,
                route_port: None,
            })
            .collect();
        let arbiters = (0..config.outputs)
            .map(|_| Arbiter::new(config.arbitration, config.inputs))
            .collect();
        Switch {
            locks: vec![None; config.outputs],
            config,
            inputs,
            out_chan,
            unwired_stalls: Vec::new(),
            arbiters,
            stats: SwitchStats::default(),
            record_grants: false,
            granted_tails: Vec::new(),
            held_in: 0,
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

    /// Channel fed by each output port, `usize::MAX` where none is.
    pub(crate) fn out_chan(&self) -> &[usize] {
        &self.out_chan
    }

    /// The channels in `chan` this switch's output ports feed.
    fn outputs<'a>(&self, chan: &'a [Channel]) -> impl Iterator<Item = &'a Channel> + use<'a, '_> {
        self.out_chan.iter().filter_map(|&c| chan.get(c))
    }

    /// Cumulative statistics; the link-side counters are summed over the
    /// output channels in `chan`.
    pub(crate) fn stats(&self, chan: &[Channel]) -> SwitchStats {
        let mut s = self.stats;
        for ch in self.outputs(chan) {
            s.retransmissions += ch.tx.retransmissions();
            s.ack_timeouts += ch.tx.timeouts();
            s.stalled_cycles += ch.stalled;
        }
        s
    }

    /// Forces output `port` to stall (transmit nothing new) for `cycles`
    /// cycles, modelling transient backpressure at the output buffer.
    /// An already-stalled port keeps the longer of the two stalls.
    /// Returns the port's channel, whose visits count the stall down.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range port.
    pub(crate) fn stall_output(
        &mut self,
        chan: &mut [Channel],
        port: usize,
        cycles: u64,
    ) -> Option<usize> {
        let c = self.out_chan[port];
        if let Some(ch) = chan.get_mut(c) {
            ch.stall = ch.stall.max(cycles);
            return Some(c);
        }
        match self.unwired_stalls.iter_mut().find(|(p, _)| *p == port) {
            Some((_, stall)) => *stall = (*stall).max(cycles),
            None => self.unwired_stalls.push((port, cycles)),
        }
        None
    }

    /// True when no flit is held on the input side, in a register or a
    /// delay line (flits past the crossbar are their output channels').
    /// O(1): debug builds check the held-flit count against a full port
    /// scan on every call.
    pub(crate) fn is_idle(&self) -> bool {
        debug_assert_eq!(
            self.held_in,
            self.count_held(),
            "held-flit count out of sync"
        );
        self.held_in == 0
    }

    /// Input-side flit count by scanning every port: what `held_in` must
    /// equal.
    fn count_held(&self) -> usize {
        (self.inputs.iter())
            .map(|i| usize::from(i.reg.is_some()) + i.delay.iter().flatten().count())
            .sum()
    }

    /// The deepest output queue right now — a congestion probe for
    /// telemetry sampling.
    pub(crate) fn max_queue(&self, chan: &[Channel]) -> usize {
        self.outputs(chan)
            .map(|ch| ch.tx.queued())
            .max()
            .unwrap_or(0)
    }

    /// True when input `port` can take a flit this cycle: the entry stage
    /// of its pipeline is free.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range port.
    pub(crate) fn can_accept(&self, port: usize) -> bool {
        self.inputs[port].can_accept()
    }

    /// Stage-1 input side: stores a flit that input `port`'s receiver
    /// accepted (only after [`can_accept`](Self::can_accept) said so).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range port.
    pub(crate) fn store(&mut self, port: usize, flit: Flit) {
        self.inputs[port].store(flit);
        self.held_in += 1;
    }

    /// Stage-2 allocation: arbitrates inputs per output and moves granted
    /// flits through the crossbar into the output channels' senders in
    /// `chan`. Call once per cycle, after every channel transmitted.
    /// Returns the bitmask of outputs that were fed a flit.
    pub(crate) fn crossbar(&mut self, chan: &mut [Channel]) -> u64 {
        // One pass over the inputs builds the mask of requested outputs
        // and, per output, the request lines that may win it (bit `i` =
        // input `i`). Wormhole: a locked output accepts only its locking
        // input, an unlocked one only a head. The lock can be decided
        // here because it changes only when its own output grants.
        let mut wanted: u64 = 0;
        let mut lines = [0u64; ROUTE_PORTS];
        // A corrupted route can request a port that does not exist or
        // feeds no link; such requests never win and count no stall.
        let ports = self.config.outputs.min(ROUTE_PORTS);
        let wired = |o: &usize| *o < ports && self.out_chan[*o] != usize::MAX;
        for (i, input) in self.inputs.iter().enumerate() {
            let (o, head) = match &input.reg {
                Some(flit) if flit.kind.is_head() => {
                    (flit.header.map(|h| h.next_hop() as usize), true)
                }
                Some(_) => (input.route_port, false),
                None => continue,
            };
            let Some(o) = o.filter(wired) else {
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
            let tx = &mut chan[self.out_chan[o]].tx;
            if tx.queued() >= self.config.output_queue_depth {
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
            tx.push(flit);
            self.held_in -= 1;
            fed |= 1 << o;
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(tx.queued());
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

    /// The sender state an output port with no channel writes: an empty
    /// queue and window.
    fn idle_sender(&self) -> LinkTx {
        LinkTx::new(self.config.retransmit_depth(), self.config.ack_timeout)
    }

    /// Captures every input port's receiver, delay slots, register and
    /// route pinning, every output port's queued flits, sender and stall
    /// countdown, the arbiter pointers, wormhole locks, statistics and
    /// pending tail grants. Port state is read from the port's channel in
    /// `chan`; a port no link reaches writes an idle receiver or sender
    /// (and an output its stall). The configuration (port counts, queue
    /// depth, timeout, extra stages) is structural and not stored.
    pub(crate) fn save_state(&self, w: &mut SnapshotWriter, chan: &[Channel]) {
        w.len(self.inputs.len());
        for input in &self.inputs {
            match chan.get(input.chan) {
                Some(ch) => ch.rx.save_state(w),
                None => LinkRx::new().save_state(w),
            }
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
        w.len(self.out_chan.len());
        for (p, &c) in self.out_chan.iter().enumerate() {
            let unwired = self.unwired_stalls.iter().find(|s| s.0 == p);
            let (tx, stall) = match chan.get(c) {
                Some(ch) => (&ch.tx, ch.stall),
                None => (&self.idle_sender(), unwired.map_or(0, |s| s.1)),
            };
            w.len(tx.queued());
            tx.save_queued(w);
            tx.save_state(w);
            w.u64(stall);
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
        let stats = self.stats(chan);
        w.u64(stats.flits_routed);
        w.u64(stats.packets_routed);
        w.u64(stats.contention_stalls);
        w.u64(stats.stalled_cycles);
        w.len(stats.max_queue_depth);
        w.len(self.granted_tails.len());
        for (port, id) in &self.granted_tails {
            w.len(*port);
            w.u64(*id);
        }
    }

    /// Reads what [`save_state`](Self::save_state) wrote, port state into
    /// the port's channel in `chan`. A port no link reaches must come
    /// back holding no flit; its receiver counters are dropped.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
        chan: &mut [Channel],
    ) -> Result<(), SnapshotError> {
        let n_in = r.len()?;
        if n_in != self.inputs.len() {
            return Err(SnapshotError::Malformed(format!(
                "switch has {} inputs, snapshot has {n_in}",
                self.inputs.len()
            )));
        }
        for input in self.inputs.iter_mut() {
            match chan.get_mut(input.chan) {
                Some(ch) => ch.rx.load_state(r)?,
                None => LinkRx::new().load_state(r)?,
            }
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
        if n_out != self.out_chan.len() {
            return Err(SnapshotError::Malformed(format!(
                "switch has {} outputs, snapshot has {n_out}",
                self.out_chan.len()
            )));
        }
        self.unwired_stalls.clear();
        for (p, &c) in self.out_chan.iter().enumerate() {
            let q = r.len()?;
            if q > self.config.output_queue_depth {
                return Err(SnapshotError::Malformed(format!(
                    "output queue holds {q} flits but depth is {}",
                    self.config.output_queue_depth
                )));
            }
            let mut unwired = None;
            let (tx, stall) = match chan.get_mut(c) {
                Some(ch) => (&mut ch.tx, &mut ch.stall),
                None => {
                    let (tx, stall) = unwired.insert((self.idle_sender(), 0));
                    (tx, stall)
                }
            };
            tx.load_queued(r, q)?;
            tx.load_state(r)?;
            *stall = r.u64()?;
            if let Some((tx, stall)) = unwired {
                if tx.len() > 0 {
                    return Err(SnapshotError::Malformed(format!(
                        "output {p} feeds no link but holds flits"
                    )));
                }
                if stall > 0 {
                    self.unwired_stalls.push((p, stall));
                }
            }
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
        // The stalled-cycle count is a sum over the output channels; the
        // first one carries the restored total.
        let mut stalled = r.u64()?;
        for &c in &self.out_chan {
            if let Some(ch) = chan.get_mut(c) {
                ch.stalled = std::mem::take(&mut stalled);
            }
        }
        self.stats.max_queue_depth = r.len()?;
        let n_grants = r.len()?;
        self.granted_tails.clear();
        for _ in 0..n_grants {
            let port = r.len()?;
            let id = r.u64()?;
            self.granted_tails.push((port, id));
        }
        self.held_in = self.count_held();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Endpoint;
    use crate::flit::{FlitKind, FlitMeta};
    use crate::flow_control::{AckNack, FlowSabotage, LinkFlit, SEQ_MOD};
    use crate::header::Header;
    use crate::link::Link;
    use proptest::prelude::*;
    use xpipes_ocp::{MCmd, Sideband, ThreadId};
    use xpipes_sim::{Cycle, FaultPlan, SimRng};
    use xpipes_topology::route::SourceRoute;
    use xpipes_topology::spec::Arbitration;
    use xpipes_topology::PortId;

    /// A standalone switch with a channel at every port: `chan[i]` sinks
    /// into input `i`, and output `o` feeds the channel after the inputs'.
    /// The rig plays both far ends the way the network's step phases do:
    /// an arrival goes through the input channel's receiver, and an
    /// output transmits through its channel's sender.
    struct Rig {
        sw: Switch,
        chan: Vec<Channel>,
    }

    impl Rig {
        fn new(config: SwitchConfig) -> Self {
            Self::with_extra_stages(config, 0)
        }

        fn with_extra_stages(config: SwitchConfig, extra: usize) -> Self {
            let (n_in, n_out) = (config.inputs, config.outputs);
            let channel = |producer, consumer| {
                let tx = LinkTx::new(config.retransmit_depth(), config.ack_timeout);
                let link = Link::new(1, SimRng::seed(0), FaultPlan::none());
                Channel::new(producer, consumer, tx, link)
            };
            let port = |port| Endpoint::SwitchPort { switch: 0, port };
            let chan = (0..n_in)
                .map(|i| channel(Endpoint::Initiator(i), port(i)))
                .chain((0..n_out).map(|o| channel(port(o), Endpoint::Target(o))))
                .collect();
            let sw = Switch::new(
                config,
                extra,
                (0..n_in).collect(),
                (n_in..n_in + n_out).collect(),
            );
            Rig { sw, chan }
        }

        /// Stage 1 for input `port`: the receiver takes `lf`, and the
        /// switch stores the flit it accepts. Returns the reply.
        fn receive(&mut self, port: usize, lf: LinkFlit) -> AckNack {
            let ready = self.sw.can_accept(port);
            let (accepted, reply) = self.chan[port].rx.receive(lf, ready);
            if let Some(flit) = accepted {
                self.sw.store(port, flit);
            }
            reply
        }

        fn crossbar(&mut self) -> u64 {
            self.sw.crossbar(&mut self.chan)
        }

        /// The channel output `port` feeds.
        fn out(&mut self, port: usize) -> &mut Channel {
            &mut self.chan[self.sw.out_chan()[port]]
        }

        /// Stage 2 output side for `port`: the sender takes the reverse
        /// arrival `rev` and picks the flit to drive onto the link.
        fn transmit(&mut self, port: usize, rev: Option<AckNack>) -> Option<(LinkFlit, bool)> {
            let ch = self.out(port);
            ch.rev_arrival = rev;
            ch.transmit()
        }

        fn stall(&mut self, port: usize, cycles: u64) {
            self.sw.stall_output(&mut self.chan, port, cycles);
        }

        fn stats(&self) -> SwitchStats {
            self.sw.stats(&self.chan)
        }

        /// No flit anywhere: not in the switch, not in an output sender.
        fn is_idle(&self) -> bool {
            self.sw.is_idle() && !self.chan.iter().any(Channel::holds_flit)
        }

        fn snapshot(&self) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            self.sw.save_state(&mut w, &self.chan);
            w.finish()
        }

        fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
            let mut r = SnapshotReader::open(bytes)?;
            self.sw.load_state(&mut r, &mut self.chan)?;
            r.finish()
        }
    }

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

    fn clean(flit: Flit, seq: u8) -> LinkFlit {
        LinkFlit {
            flit,
            seq,
            corrupted: false,
        }
    }

    /// Offers the front flit of every feed to its input, popping the ones
    /// the input accepts.
    fn feed_inputs(rig: &mut Rig, feeds: &mut [VecDeque<Flit>], seqs: &mut [u8]) {
        for (i, feed) in feeds.iter_mut().enumerate() {
            if let Some(&front) = feed.front() {
                if rig.receive(i, clean(front, seqs[i])).ack {
                    feed.pop_front();
                    seqs[i] = (seqs[i] + 1) % SEQ_MOD;
                }
            }
        }
    }

    /// Drives the switch with flit lists at its inputs and collects what
    /// each output transmits. Every flit is ACKed on the next cycle's
    /// reverse channel, so the window never fills.
    fn run_switch(rig: &mut Rig, mut feeds: Vec<VecDeque<Flit>>, cycles: usize) -> Vec<Vec<Flit>> {
        let n_out = rig.sw.config.outputs;
        let mut seqs = vec![0u8; feeds.len()];
        let mut collected = vec![Vec::new(); n_out];
        let mut acks = vec![None; n_out];
        for _ in 0..cycles {
            for (o, ack) in acks.iter_mut().enumerate() {
                if let Some((lf, _)) = rig.transmit(o, ack.take()) {
                    collected[o].push(lf.flit);
                    *ack = Some(AckNack {
                        seq: lf.seq,
                        ack: true,
                    });
                }
            }
            rig.crossbar();
            feed_inputs(rig, &mut feeds, &mut seqs);
        }
        collected
    }

    /// Standalone routing of a single-flit packet from input 0 to
    /// output 1.
    #[test]
    fn routes_a_single_flit_packet_standalone() {
        let mut rig = Rig::new(SwitchConfig::new(2, 2, 32));
        let route = SourceRoute::new(vec![PortId(1)]).expect("valid");
        let header = Header::request(&route, 0, MCmd::Read, 1, ThreadId(0), 0, Sideband::NONE)
            .expect("valid header");
        let flit = Flit::head(
            FlitKind::Single,
            0,
            header,
            FlitMeta::new(0, Cycle::ZERO, 0),
        );
        rig.receive(0, clean(flit, 0));
        rig.crossbar(); // stage 2: into output queue 1
        assert!(rig.transmit(1, None).is_some()); // stage 2: onto the link
    }

    #[test]
    fn routes_single_flit_to_requested_output() {
        let mut rig = Rig::new(SwitchConfig::new(2, 2, 32));
        let feeds = vec![packet_flits(1, &[1], 0).into(), VecDeque::new()];
        let out = run_switch(&mut rig, feeds, 10);
        assert_eq!(out[0].len(), 0);
        assert_eq!(out[1].len(), 1);
        assert_eq!(out[1][0].meta.packet_id, 1);
        assert_eq!(rig.stats().packets_routed, 1);
    }

    #[test]
    fn consumes_one_route_hop() {
        let mut rig = Rig::new(SwitchConfig::new(2, 2, 32));
        let feeds = vec![packet_flits(1, &[1, 3], 0).into(), VecDeque::new()];
        let out = run_switch(&mut rig, feeds, 10);
        let packed = out[1][0].header.expect("head keeps header");
        let h = Header::decode(packed.bits()).unwrap();
        assert_eq!(h.route & 0xF, 3, "next hop should now be first");
        assert_eq!(h.hop_len, 1);
    }

    /// Injects one flit at cycle 0 and returns the cycle it leaves
    /// output 0.
    fn appears_at(mut rig: Rig, cycles: usize) -> Option<usize> {
        let flit = packet_flits(9, &[0], 0).remove(0);
        for cycle in 0..cycles {
            if let Some((lf, _)) = rig.transmit(0, None) {
                assert_eq!(lf.flit.meta.packet_id, 9);
                return Some(cycle);
            }
            rig.crossbar();
            if cycle == 0 {
                rig.receive(0, clean(flit, 0));
            }
        }
        None
    }

    #[test]
    fn two_stage_latency() {
        // The flit must appear at the output on cycle 2 (one cycle in the
        // input register, one in the output queue).
        let rig = Rig::new(SwitchConfig::new(1, 1, 32));
        assert_eq!(appears_at(rig, 6), Some(2), "xpipes Lite switch is 2-stage");
    }

    #[test]
    fn legacy_switch_has_longer_latency() {
        let rig = Rig::with_extra_stages(SwitchConfig::new(1, 1, 32), 5);
        assert_eq!(
            appears_at(rig, 20),
            Some(7),
            "legacy switch models 7 stages"
        );
    }

    #[test]
    fn wormhole_does_not_interleave_packets() {
        // Two 4-flit packets from different inputs to the same output:
        // their flits must come out contiguously per packet.
        let mut rig = Rig::new(SwitchConfig::new(2, 2, 32));
        let feeds = vec![
            packet_flits(1, &[0], 3).into(),
            packet_flits(2, &[0], 3).into(),
        ];
        let out = run_switch(&mut rig, feeds, 40);
        assert_eq!(out[0].len(), 8);
        let ids: Vec<u64> = out[0].iter().map(|f| f.meta.packet_id).collect();
        // Find the boundary: first id holds for 4 flits, then the other.
        assert!(ids[0..4].iter().all(|&id| id == ids[0]));
        assert!(ids[4..8].iter().all(|&id| id == ids[4]));
        assert_ne!(ids[0], ids[4]);
    }

    #[test]
    fn round_robin_alternates_single_flit_packets() {
        let mut rig = Rig::new(SwitchConfig::new(2, 1, 32));
        let mut f0 = VecDeque::new();
        let mut f1 = VecDeque::new();
        for k in 0..4 {
            f0.push_back(packet_flits(10 + k, &[0], 0).remove(0));
            f1.push_back(packet_flits(20 + k, &[0], 0).remove(0));
        }
        let out = run_switch(&mut rig, vec![f0, f1], 40);
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
        let mut rig = Rig::new(cfg);
        let mut f0 = VecDeque::new();
        let mut f1 = VecDeque::new();
        for k in 0..3 {
            f0.push_back(packet_flits(10 + k, &[0], 0).remove(0));
            f1.push_back(packet_flits(20 + k, &[0], 0).remove(0));
        }
        let out = run_switch(&mut rig, vec![f0, f1], 40);
        let ids: Vec<u64> = out[0].iter().map(|f| f.meta.packet_id).collect();
        // All of input 0's packets must precede any steady-state win by
        // input 1 beyond pipeline effects: input 0 packets appear in order
        // and the first two outputs are both input-0 packets.
        assert_eq!(ids.iter().filter(|&&id| id < 20).count(), 3);
        assert!(ids[0] < 20);
    }

    /// Feeds `n` single-flit packets into input 0 for 40 cycles without
    /// ever draining output 0.
    fn fill_output(n: u64) -> Rig {
        let mut rig = Rig::new(SwitchConfig::new(1, 1, 32));
        let mut feeds = [(0..n).map(|k| packet_flits(k, &[0], 0).remove(0)).collect()];
        let mut seqs = [0];
        for _ in 0..40 {
            rig.crossbar();
            feed_inputs(&mut rig, &mut feeds, &mut seqs);
        }
        rig
    }

    #[test]
    fn output_queue_backpressure_counts_stalls() {
        // Queue capacity is 6: exactly 6 flits inside, rest stalled.
        let mut rig = fill_output(12);
        assert_eq!(rig.out(0).tx.queued(), 6);
        assert!(rig.stats().contention_stalls > 0);
    }

    #[test]
    fn queue_high_water_mark_tracked() {
        // Occupancy climbs to the feed size.
        assert_eq!(fill_output(4).stats().max_queue_depth, 4);
    }

    #[test]
    fn is_idle_reflects_buffers() {
        let mut rig = Rig::new(SwitchConfig::new(1, 1, 32));
        assert!(rig.sw.is_idle());
        rig.receive(0, clean(packet_flits(1, &[0], 0).remove(0), 0));
        assert!(!rig.sw.is_idle());
        rig.crossbar();
        assert!(rig.sw.is_idle(), "the flit moved on to the output channel");
        assert!(!rig.is_idle());
    }

    #[test]
    fn corrupted_arrival_nacked_and_not_stored() {
        let mut rig = Rig::new(SwitchConfig::new(1, 1, 32));
        let mut lf = clean(packet_flits(1, &[0], 0).remove(0), 0);
        lf.corrupted = true;
        assert!(!rig.receive(0, lf).ack);
        assert!(rig.sw.is_idle());
    }

    #[test]
    fn stalled_output_transmits_nothing_until_stall_expires() {
        let mut rig = Rig::new(SwitchConfig::new(1, 1, 32));
        // Preload the output queue with one flit via the normal pipeline.
        rig.receive(0, clean(packet_flits(3, &[0], 0).remove(0), 0));
        rig.crossbar();
        rig.stall(0, 3);
        for _ in 0..3 {
            assert!(rig.transmit(0, None).is_none());
        }
        assert!(rig.transmit(0, None).is_some());
        assert_eq!(rig.stats().stalled_cycles, 3);
    }

    #[test]
    fn stall_output_keeps_longer_stall() {
        let mut rig = Rig::new(SwitchConfig::new(1, 1, 32));
        rig.stall(0, 5);
        rig.stall(0, 2);
        for _ in 0..5 {
            rig.transmit(0, None);
        }
        assert_eq!(rig.stats().stalled_cycles, 5);
    }

    /// An output with no channel keeps the stall drawn on it, uncounted,
    /// and a checkpoint carries it.
    #[test]
    fn unwired_output_keeps_its_stall_across_a_snapshot() {
        let config = SwitchConfig::new(2, 2, 32);
        let unwired = || {
            let mut rig = Rig::new(config);
            rig.sw.out_chan[1] = usize::MAX;
            rig
        };
        let mut rig = unwired();
        assert_eq!(rig.sw.stall_output(&mut rig.chan, 1, 4), None);
        rig.sw.stall_output(&mut rig.chan, 1, 2);
        let bytes = rig.snapshot();
        let mut twin = unwired();
        twin.restore(&bytes).unwrap();
        assert_eq!(twin.sw.unwired_stalls, [(1, 4)]);
        assert_eq!(twin.snapshot(), bytes);
    }

    #[test]
    #[should_panic]
    fn bad_output_port_panics() {
        let mut rig = Rig::new(SwitchConfig::new(1, 1, 32));
        rig.transmit(5, None);
    }

    /// Checkpoint a switch mid-wormhole (header granted, tail not yet
    /// through) and restore into a fresh instance: the remaining flits
    /// must come out identically, locks intact.
    #[test]
    fn switch_snapshot_mid_wormhole_resumes_identically() {
        let mut rig = Rig::new(SwitchConfig::new(2, 2, 32));
        let mut feeds: Vec<VecDeque<Flit>> = vec![
            packet_flits(1, &[0], 3).into(),
            packet_flits(2, &[0], 3).into(),
        ];
        let mut seqs = vec![0u8; feeds.len()];
        // Run a few cycles without draining the outputs so packet state is
        // parked in registers, queues and locks.
        for _ in 0..3 {
            rig.crossbar();
            feed_inputs(&mut rig, &mut feeds, &mut seqs);
        }
        assert!(!rig.sw.is_idle());

        let mut restored = Rig::new(SwitchConfig::new(2, 2, 32));
        restored.restore(&rig.snapshot()).unwrap();
        assert_eq!(restored.stats(), rig.stats());
        assert_eq!(
            restored.sw.max_queue(&restored.chan),
            rig.sw.max_queue(&rig.chan)
        );

        // Drive both switches identically to completion and compare every
        // emitted flit.
        let run = |rig: &mut Rig, feeds: &mut [VecDeque<Flit>], seqs: &mut [u8]| {
            let mut out = Vec::new();
            let mut acks = [None; 2];
            for _ in 0..40 {
                for (o, ack) in acks.iter_mut().enumerate() {
                    if let Some((lf, _)) = rig.transmit(o, ack.take()) {
                        out.push((o, lf));
                        *ack = Some(AckNack {
                            seq: lf.seq,
                            ack: true,
                        });
                    }
                }
                rig.crossbar();
                feed_inputs(rig, feeds, seqs);
            }
            out
        };
        let mut feeds2 = feeds.clone();
        let mut seqs2 = seqs.clone();
        let a = run(&mut rig, &mut feeds, &mut seqs);
        let b = run(&mut restored, &mut feeds2, &mut seqs2);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_eq!(rig.stats(), restored.stats());
    }

    #[test]
    fn switch_snapshot_port_mismatch_rejected() {
        let bytes = Rig::new(SwitchConfig::new(2, 2, 32)).snapshot();
        let mut other = Rig::new(SwitchConfig::new(3, 3, 32));
        assert!(matches!(
            other.restore(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    /// One step of the random script below: `(kind, port, arg)`.
    type Op = (u8, usize, u8);

    /// Applies `op` to the rig. Arrivals come from `feeds` (legal
    /// wormhole packets, so flits do move), carrying the receiver's
    /// expected sequence number unless the op asks for a stale one; ACKs
    /// and nACKs name a sequence number taken from the sender's window
    /// when it has one.
    fn apply(rig: &mut Rig, feeds: &mut [VecDeque<Flit>], (kind, port, arg): Op) {
        let port = port % rig.sw.config.inputs;
        match kind {
            0..=3 => {
                if let Some(&flit) = feeds[port].front() {
                    // The receiver expects the sequence number after the accepted ones.
                    let before = rig.chan[port].rx.accepted();
                    let expected = (before % u64::from(SEQ_MOD)) as u8;
                    let lf = LinkFlit {
                        flit,
                        seq: if arg % 8 == 7 { arg % 64 } else { expected },
                        corrupted: arg % 8 == 6,
                    };
                    rig.receive(port, lf);
                    if rig.chan[port].rx.accepted() > before {
                        feeds[port].pop_front();
                    }
                }
            }
            4..=6 => {
                rig.crossbar();
            }
            7..=10 => {
                let window: Vec<u8> = rig.out(port).tx.window_seqs().collect();
                let seq = match window.len() {
                    0 => arg % 64,
                    n => window[arg as usize % n],
                };
                let rev = match arg % 4 {
                    0 => None,
                    1 => Some(AckNack { seq, ack: false }),
                    _ => Some(AckNack { seq, ack: true }),
                };
                rig.transmit(port, rev);
            }
            _ => rig.stall(port, u64::from(arg % 4)),
        }
    }

    /// Drives the rig with per-input feeds until everything drains (or
    /// the cycle budget runs out); returns the flits emitted per output.
    /// An ideal sink ACKs every flit at once.
    fn drive(rig: &mut Rig, mut feeds: Vec<VecDeque<Flit>>, max_cycles: usize) -> Vec<Vec<Flit>> {
        let outputs = rig.sw.config.outputs;
        let mut seqs = vec![0u8; feeds.len()];
        let mut collected = vec![Vec::new(); outputs];
        for _ in 0..max_cycles {
            for (o, out) in collected.iter_mut().enumerate() {
                if let Some((lf, _)) = rig.transmit(o, None) {
                    // Ideal sink: ack immediately via the same-port reply.
                    out.push(lf.flit);
                    let ack = AckNack {
                        seq: lf.seq,
                        ack: true,
                    };
                    rig.transmit(o, Some(ack));
                }
            }
            rig.crossbar();
            feed_inputs(rig, &mut feeds, &mut seqs);
            if feeds.iter().all(VecDeque::is_empty) && rig.is_idle() {
                break;
            }
        }
        collected
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After every operation of a random receive/crossbar/transmit
        /// script — clean, corrupted and out-of-order arrivals, ACKs,
        /// nACKs, stalls, every sabotage mode, the 2-stage and the legacy
        /// 7-stage switch, and a snapshot round-trip into a fresh
        /// instance half-way — the O(1) held-flit count equals the full
        /// port scan, so `is_idle` answers what the scan did.
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
                let mut rig = Rig::with_extra_stages(cfg, if legacy { 5 } else { 0 });
                if let Some(mode) = mode {
                    (0..3).for_each(|p| rig.out(p).tx.sabotage(mode));
                }
                rig
            };
            let mut rig = fresh();
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
                    let bytes = rig.snapshot();
                    rig = fresh();
                    rig.restore(&bytes).unwrap();
                }
                apply(&mut rig, &mut feeds, op);
                let held_in = rig.sw.count_held();
                prop_assert_eq!(rig.sw.held_in, held_in, "after {:?}", op);
                prop_assert_eq!(rig.sw.is_idle(), held_in == 0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every flit injected comes out exactly once at the routed output,
        /// regardless of packet sizes and input interleavings.
        #[test]
        fn switch_conserves_flits(
            plans in prop::collection::vec(
                (0usize..3, 0u8..3, 0usize..5), // (input, output, body flits)
                1..8,
            ),
            arbitration in prop_oneof![Just(Arbitration::Fixed), Just(Arbitration::RoundRobin)],
        ) {
            let mut cfg = SwitchConfig::new(3, 3, 32);
            cfg.arbitration = arbitration;
            let mut rig = Rig::new(cfg);
            let mut feeds = vec![VecDeque::new(), VecDeque::new(), VecDeque::new()];
            let mut expected: Vec<Vec<u64>> = vec![Vec::new(); 3];
            for (id, &(input, output, body)) in plans.iter().enumerate() {
                let flits = packet_flits(id as u64, &[output], body);
                expected[output as usize].push(id as u64);
                feeds[input].extend(flits);
            }
            let out = drive(&mut rig, feeds, 5_000);
            prop_assert!(rig.is_idle(), "switch must drain");
            for o in 0..3 {
                // Packets arrive whole; collect ids of head flits and count
                // total flits.
                let got_ids: Vec<u64> = out[o]
                    .iter()
                    .filter(|f| f.kind.is_head())
                    .map(|f| f.meta.packet_id)
                    .collect();
                let mut want = expected[o].clone();
                let mut got_sorted = got_ids.clone();
                want.sort_unstable();
                got_sorted.sort_unstable();
                prop_assert_eq!(got_sorted, want, "output {} ids", o);
                let want_flits: usize = plans
                    .iter()
                    .filter(|&&(_, out_p, _)| out_p as usize == o)
                    .map(|&(_, _, body)| if body == 0 { 1 } else { body + 1 })
                    .sum();
                prop_assert_eq!(out[o].len(), want_flits, "output {} flit count", o);
            }
        }

        /// Wormhole invariant: on any output, the flits between a head and
        /// its tail all belong to the same packet.
        #[test]
        fn switch_never_interleaves_packets(
            plans in prop::collection::vec(
                (0usize..4, 1usize..6), // (input, body flits) — all to output 0
                2..6,
            ),
        ) {
            let mut rig = Rig::new(SwitchConfig::new(4, 2, 32));
            let mut feeds = vec![VecDeque::new(), VecDeque::new(), VecDeque::new(), VecDeque::new()];
            for (id, &(input, body)) in plans.iter().enumerate() {
                feeds[input].extend(packet_flits(id as u64, &[0], body));
            }
            let out = drive(&mut rig, feeds, 5_000);
            let mut current: Option<u64> = None;
            for f in &out[0] {
                match (f.kind.is_head(), current) {
                    (true, None) => current = Some(f.meta.packet_id),
                    (true, Some(_)) => prop_assert!(false, "head inside an open packet"),
                    (false, Some(id)) => {
                        prop_assert_eq!(f.meta.packet_id, id, "foreign flit inside packet");
                    }
                    (false, None) => prop_assert!(false, "body flit with no open packet"),
                }
                if f.kind.is_tail() {
                    current = None;
                }
            }
            prop_assert_eq!(current, None, "last packet must close");
        }

        /// Round-robin arbitration is starvation-free: with all inputs
        /// persistently requesting, consecutive grants to the same input
        /// never occur while others wait.
        #[test]
        fn round_robin_never_starves(inputs in 2usize..8, rounds in 10usize..50) {
            let mut arb = Arbiter::new(Arbitration::RoundRobin, inputs);
            let all = (1u64 << inputs) - 1;
            let mut last = None;
            let mut counts = vec![0usize; inputs];
            for _ in 0..rounds * inputs {
                let g = arb.grant(all).expect("someone requests");
                prop_assert_ne!(Some(g), last, "back-to-back grant under full load");
                counts[g] += 1;
                last = Some(g);
            }
            let min = counts.iter().min().copied().unwrap_or(0);
            let max = counts.iter().max().copied().unwrap_or(0);
            prop_assert!(max - min <= 1, "uneven grants: {counts:?}");
        }

        /// Any arbiter only ever grants a requesting input.
        #[test]
        fn grants_only_requesters(
            inputs in 1usize..=64,
            lines in any::<u64>(),
            policy in prop_oneof![Just(Arbitration::Fixed), Just(Arbitration::RoundRobin)],
            spins in 1usize..8,
        ) {
            let requests = lines.checked_shr(64 - inputs as u32).unwrap_or(0);
            let mut arb = Arbiter::new(policy, inputs);
            for _ in 0..spins {
                if let Some(g) = arb.grant(requests) {
                    prop_assert!(g < inputs && (requests >> g) & 1 == 1);
                } else {
                    prop_assert_eq!(requests, 0);
                }
            }
        }
    }
}
