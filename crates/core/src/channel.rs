//! Channel records. In xpipes Lite, ACK/nACK retransmission is a
//! property of each pipelined link: a go-back-N sender at the upstream
//! output port and a receiver guard at the downstream input port talk
//! over the link's back-channel. A [`Channel`] holds all three, plus the
//! latches between the step phases, so a visit reads and writes one
//! record. Switches and NIs keep only what is their own and reach their
//! ports' senders and receivers by channel id.

use xpipes_sim::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::flow_control::{AckNack, LinkFlit, LinkRx, LinkTx};
use crate::link::Link;
use crate::snap;

/// One side of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// A switch port (output when producing, input when consuming).
    SwitchPort { switch: usize, port: usize },
    /// An initiator NI (by dense index).
    Initiator(usize),
    /// A target NI (by dense index).
    Target(usize),
}

impl Endpoint {
    /// True for an NI, where a packet leaves the network.
    pub(crate) fn is_ni(self) -> bool {
        !matches!(self, Endpoint::SwitchPort { .. })
    }
}

/// One directed channel: the sender of the port that drives it, its
/// pipelined link, the receiver of the port that sinks it, and the
/// latches and arrival slots between them. The network keeps one record
/// per dense channel id — see `docs/kernel.md` for the layout and
/// indexing contract.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    /// Forward flit driven into the link at phase 2, shifted at the
    /// next cycle's phase 1.
    pub(crate) fwd_latch: Option<LinkFlit>,
    /// Forward flit that left the pipe this cycle (phase 1 → phase 4).
    pub(crate) fwd_arrival: Option<LinkFlit>,
    /// ACK/nACK reply driven at phase 4, shifted at the next phase 1.
    pub(crate) rev_latch: Option<AckNack>,
    /// ACK/nACK that left the pipe this cycle (phase 1 → phase 2).
    pub(crate) rev_arrival: Option<AckNack>,
    /// Producing endpoint (drives the forward pipe).
    pub(crate) producer: Endpoint,
    /// Consuming endpoint (sinks the forward pipe).
    pub(crate) consumer: Endpoint,
    /// The producing port's go-back-N sender: its output queue, with the
    /// retransmission window at the front.
    pub(crate) tx: LinkTx,
    /// The consuming port's ACK/nACK receiver guard.
    pub(crate) rx: LinkRx,
    /// Remaining forced-stall cycles of the producing port (transient
    /// backpressure fault model; only switch ports are stalled).
    pub(crate) stall: u64,
    /// Cycles the producing port spent in a forced stall. A switch's
    /// `stalled_cycles` is the sum over its output channels.
    pub(crate) stalled: u64,
    /// Cycles a queued flit waited behind a full window or a rewind: an
    /// NI's packetization stalls (read and saved for NI-driven channels
    /// only; on a switch-driven one the count means nothing).
    pub(crate) window_waits: u64,
    pub(crate) link: Link,
}

impl Channel {
    /// An idle channel from `producer` to `consumer` whose producing port
    /// sends through `tx`.
    pub(crate) fn new(producer: Endpoint, consumer: Endpoint, tx: LinkTx, link: Link) -> Self {
        Channel {
            fwd_latch: None,
            fwd_arrival: None,
            rev_latch: None,
            rev_arrival: None,
            producer,
            consumer,
            tx,
            rx: LinkRx::new(),
            stall: 0,
            stalled: 0,
            window_waits: 0,
            link,
        }
    }

    /// Step phase 1: the link shifts the latches in and the arrivals
    /// out. With no latch and an empty pipe the shift is a no-op that
    /// draws no RNG, so it is skipped.
    #[inline]
    pub(crate) fn shift(&mut self) {
        if self.fwd_latch.is_some() || self.rev_latch.is_some() || !self.link.is_empty() {
            (self.fwd_arrival, self.rev_arrival) =
                (self.link).shift(self.fwd_latch.take(), self.rev_latch.take());
        }
    }

    /// Step phase 2: the sender consumes the reverse arrival, then —
    /// unless a forced stall holds the port — picks the flit to drive
    /// onto the link, with its word on whether it is a first send
    /// (`true`) or a resend. The caller latches the flit.
    #[inline]
    pub(crate) fn transmit(&mut self) -> Option<(LinkFlit, bool)> {
        self.tx.process(self.rev_arrival.take());
        if self.stall > 0 {
            // Injected backpressure: the port drives nothing this cycle.
            self.stall -= 1;
            self.stalled += 1;
            return None;
        }
        self.window_waits += u64::from(!self.tx.ready_for_new() && self.tx.queued() > 0);
        self.tx.transmit(None)
    }

    /// True when some step phase is not a no-op for this channel: a
    /// latch or pending arrival is set, the link pipe holds something,
    /// or the sender has work — held flits (an open retransmission
    /// window counts: it must keep ticking the ACK timeout) or a forced
    /// stall still counting down. The schedule membership rule.
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.fwd_latch.is_some()
            || self.rev_latch.is_some()
            || self.fwd_arrival.is_some()
            || self.rev_arrival.is_some()
            || !self.link.is_empty()
            || self.tx.len() > 0
            || self.stall > 0
    }

    /// True when the channel holds a flit — in its sender, its forward
    /// latch or its arrival slot — so the network is not idle.
    #[inline]
    pub(crate) fn holds_flit(&self) -> bool {
        self.fwd_latch.is_some() || self.fwd_arrival.is_some() || self.tx.len() > 0
    }
}

impl Snapshot for Channel {
    /// Captures the link, then the fwd latch, rev latch, fwd arrival and
    /// rev arrival. The sender and receiver are written by the sections
    /// of the ports that own them.
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.link.save_state(w);
        snap::save_opt_link_flit(w, &self.fwd_latch);
        snap::save_opt_acknack(w, &self.rev_latch);
        snap::save_opt_link_flit(w, &self.fwd_arrival);
        snap::save_opt_acknack(w, &self.rev_arrival);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.link.load_state(r)?;
        self.fwd_latch = snap::load_opt_link_flit(r)?;
        self.rev_latch = snap::load_opt_acknack(r)?;
        self.fwd_arrival = snap::load_opt_link_flit(r)?;
        self.rev_arrival = snap::load_opt_acknack(r)?;
        Ok(())
    }
}
