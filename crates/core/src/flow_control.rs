//! ACK/nACK go-back-N flow and error control.
//!
//! xpipes Lite switches are "designed for pipelined, unreliable links":
//! every flit carries a small sequence number, the sender keeps transmitted
//! flits in a retransmission buffer until acknowledged, and the receiver
//! ACKs in-order clean flits and nACKs corrupted / unacceptable ones,
//! causing a go-back-N rewind. The same mechanism provides flow control —
//! a full input register simply nACKs.
//!
//! [`LinkTx`] is the sender half (lives in every switch/NI output port),
//! [`LinkRx`] the receiver half (every input port).

use std::collections::VecDeque;

use xpipes_sim::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::flit::Flit;
use crate::snap;

/// Sequence numbers are modulo 64: far larger than any retransmission
/// window (≤ 2·pipeline+2), so ambiguity is impossible.
pub(crate) const SEQ_MOD: u8 = 64;

/// Default sender ACK-timeout for a retransmission window of `capacity`
/// flits: comfortably above any fault-free round trip (the reverse path
/// is at most `capacity` cycles), so it only fires when the back-channel
/// actually lost the acknowledgement.
pub fn default_ack_timeout(capacity: usize) -> u64 {
    (8 * capacity + 16) as u64
}

/// Forward modular distance from `from` to `to`.
pub(crate) fn seq_dist(from: u8, to: u8) -> u8 {
    to.wrapping_sub(from) % SEQ_MOD
}

/// Modular increment.
pub(crate) fn seq_next(seq: u8) -> u8 {
    (seq + 1) % SEQ_MOD
}

/// A flit in flight on a link: payload + sequence number + the corruption
/// flag the link's error injector may set (models a failed CRC check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFlit {
    /// The flit payload.
    pub flit: Flit,
    /// Link-level sequence number.
    pub seq: u8,
    /// Set by the error injector; the receiver treats it as a CRC failure.
    pub corrupted: bool,
}

/// An ACK or nACK travelling on the reverse channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckNack {
    /// Acknowledged (cumulative) or requested (rewind point) sequence.
    pub seq: u8,
    /// True = ACK, false = nACK.
    pub ack: bool,
}

/// Deliberate protocol defects for conformance-testing the invariant
/// checkers (`xpipes::monitor`): a correct checker must flag a sender
/// sabotaged with any of these modes. Never enabled in normal operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowSabotage {
    /// Rewind requests are silently discarded: nACKed (or timed-out)
    /// flits are never retransmitted.
    SkipRetransmission,
    /// The sequence counter stops advancing: every new flit reuses the
    /// same sequence number.
    ReuseSequence,
    /// A nACK prunes the window front instead of rewinding, losing the
    /// rejected flit permanently.
    DropOnNack,
}

/// Sender-side ACK/nACK engine and the one buffer of a port's outgoing
/// flits: [`push`](LinkTx::push) queues a flit, and its sent prefix is
/// the go-back-N retransmission window. Per cycle, call
/// [`transmit`](LinkTx::transmit) once with the arrived reverse-channel
/// message (if any) to obtain the flit to drive onto the link.
///
/// # Examples
///
/// ```
/// use xpipes::flow_control::{LinkTx, AckNack};
/// use xpipes::{Flit, FlitKind, FlitMeta};
/// use xpipes_sim::Cycle;
///
/// let mut tx = LinkTx::new(4, None);
/// tx.push(Flit::new(FlitKind::Single, 7, FlitMeta::new(0, Cycle::ZERO, 0)));
/// let (sent, new) = tx.transmit(None).expect("window has room");
/// assert_eq!((sent.seq, new, tx.queued(), tx.in_flight()), (0, true, 0, 1));
/// tx.transmit(Some(AckNack { seq: 0, ack: true }));
/// assert_eq!(tx.in_flight(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct LinkTx {
    /// Outgoing flits, oldest first, each with the sequence number it was
    /// sent under (the `ReuseSequence` defect repeats them). The first
    /// `unacked` form the window; the rest are queued.
    buf: VecDeque<(u8, Flit)>,
    unacked: usize,
    capacity: usize,
    next_seq: u8,
    resend: Option<usize>,
    retransmissions: u64,
    sent: u64,
    /// ACK timeout: with unacknowledged flits outstanding and no
    /// reverse-channel arrival for this many transmit cycles, rewind the
    /// whole window. `None` disables the timeout (reliable back-channel).
    timeout: Option<u64>,
    /// Transmit cycles since the last reverse-channel arrival while the
    /// window was non-empty.
    idle_reverse_cycles: u64,
    timeouts: u64,
    sabotage: Option<FlowSabotage>,
}

impl LinkTx {
    /// Creates a sender with a retransmission window of `capacity` flits
    /// (sized `2·link_pipeline + 2` by the switch config) and an optional
    /// ACK timeout: after `timeout` transmit cycles with unacknowledged
    /// flits and a silent reverse channel, the whole window is rewound.
    /// The timeout is required for liveness when the back-channel itself
    /// can lose ACK/nACK messages — without it a full window whose ACKs
    /// were all dropped deadlocks.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero or not smaller than half the
    /// sequence space, or when `timeout` is `Some(0)`.
    pub fn new(capacity: usize, timeout: Option<u64>) -> Self {
        assert!(capacity > 0, "retransmission buffer cannot be empty");
        assert!(
            capacity < (SEQ_MOD / 2) as usize,
            "window must be smaller than half the sequence space"
        );
        assert!(timeout != Some(0), "ack timeout must be positive");
        LinkTx {
            buf: VecDeque::with_capacity(capacity),
            unacked: 0,
            capacity,
            next_seq: 0,
            resend: None,
            retransmissions: 0,
            sent: 0,
            timeout,
            idle_reverse_cycles: 0,
            timeouts: 0,
            sabotage: None,
        }
    }

    /// Queues a flit behind every flit the port already holds.
    pub fn push(&mut self, flit: Flit) {
        self.buf.push_back((0, flit));
    }

    /// Flits queued but not yet sent.
    pub fn queued(&self) -> usize {
        self.buf.len() - self.unacked
    }

    /// Flits sent but not yet acknowledged.
    pub fn in_flight(&self) -> usize {
        self.unacked
    }

    /// Flits the port holds: queued plus in flight.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Total retransmitted flits (statistics).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Total flit transmissions including retransmissions.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Window rewinds triggered by the ACK timeout (statistics).
    pub(crate) fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Sequence number the next new flit gets.
    pub(crate) fn next_seq(&self) -> u8 {
        self.next_seq
    }

    /// Retransmission window capacity in flits.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retransmission window, oldest first: each sent, unacknowledged
    /// flit with the sequence number it went out under.
    pub(crate) fn window(&self) -> impl Iterator<Item = &(u8, Flit)> + '_ {
        self.buf.range(..self.unacked)
    }

    /// Sequence numbers currently held in the retransmission window,
    /// oldest first (for the protocol monitor's aliasing checker).
    pub(crate) fn window_seqs(&self) -> impl Iterator<Item = u8> + '_ {
        self.window().map(|(s, _)| *s)
    }

    /// Arms a deliberate protocol defect: a conformance-testing hook only,
    /// see [`FlowSabotage`].
    pub fn sabotage(&mut self, mode: FlowSabotage) {
        self.sabotage = Some(mode);
    }

    /// True when a *new* flit could be sent this cycle: the window has
    /// room and no rewind is in progress.
    pub fn ready_for_new(&self) -> bool {
        self.resend.is_none() && self.unacked < self.capacity
    }

    /// Removes the window's front flit; a rewind under way keeps
    /// pointing at the same flit, or ends when that flit was the front.
    fn pop_front(&mut self) {
        self.buf.pop_front();
        self.unacked -= 1;
        if let Some(r) = self.resend {
            self.resend = r.checked_sub(1);
        }
    }

    /// Handles the reverse-channel arrival of this cycle. Returns how
    /// many flits left the buffer: acknowledged ones, or the one the
    /// `DropOnNack` defect discards.
    pub fn process(&mut self, arrival: Option<AckNack>) -> usize {
        let Some(an) = arrival else { return 0 };
        self.idle_reverse_cycles = 0;
        let held = self.unacked;
        if an.ack {
            // Cumulative ACK: everything up to and including `seq` is
            // delivered.
            while self.unacked > 0 && (seq_dist(self.buf[0].0, an.seq) as usize) < self.unacked {
                self.pop_front();
            }
        } else {
            // nACK: rewind to the requested sequence if it is still ours.
            let idx = self.window_seqs().position(|s| s == an.seq);
            if idx.is_some() && self.sabotage == Some(FlowSabotage::DropOnNack) {
                self.pop_front();
            } else if idx.is_some() {
                self.resend = idx;
            }
        }
        held - self.unacked
    }

    /// Handles `rev` as [`process`](Self::process) does, then emits at
    /// most one flit onto the link: during a rewind the next
    /// retransmission, otherwise the oldest queued flit when
    /// [`ready_for_new`](Self::ready_for_new) holds. Beside the flit it
    /// says whether this is its first send (`true`) or a resend.
    pub fn transmit(&mut self, rev: Option<AckNack>) -> Option<(LinkFlit, bool)> {
        self.process(rev);
        let inject = self.ready_for_new() && self.queued() > 0;
        if self.unacked == 0 {
            self.idle_reverse_cycles = 0;
        } else {
            self.idle_reverse_cycles += 1;
            if let Some(t) = self.timeout {
                // Fire only on an injection-free cycle: a rewind cannot
                // start while a queued flit goes out.
                if !inject && self.resend.is_none() && self.idle_reverse_cycles >= t {
                    // Reverse channel silent for a full timeout with flits
                    // outstanding: assume the ACKs were lost, rewind the
                    // whole window. Duplicates are re-ACKed downstream.
                    self.resend = Some(0);
                    self.timeouts += 1;
                    self.idle_reverse_cycles = 0;
                }
            }
        }
        if self.sabotage == Some(FlowSabotage::SkipRetransmission) {
            self.resend = None;
        }
        let ((seq, flit), new) = if let Some(idx) = self.resend {
            assert!(idx < self.unacked, "rewind pointer outside the window");
            self.resend = (idx + 1 < self.unacked).then_some(idx + 1);
            self.retransmissions += 1;
            (self.buf[idx], false)
        } else if inject {
            let entry = &mut self.buf[self.unacked];
            entry.0 = self.next_seq;
            if self.sabotage != Some(FlowSabotage::ReuseSequence) {
                self.next_seq = seq_next(self.next_seq);
            }
            self.unacked += 1;
            (*entry, true)
        } else {
            return None;
        };
        self.sent += 1;
        let lf = LinkFlit {
            flit,
            seq,
            corrupted: false,
        };
        Some((lf, new))
    }

    /// Writes the queued flits, oldest first, for the owning port's
    /// snapshot (which places them apart from the window).
    pub(crate) fn save_queued(&self, w: &mut SnapshotWriter) {
        for (_, flit) in self.buf.range(self.unacked..) {
            snap::save_flit(w, flit);
        }
    }

    /// Replaces the queued flits with `n` flits read from `r`.
    pub(crate) fn load_queued(
        &mut self,
        r: &mut SnapshotReader<'_>,
        n: usize,
    ) -> Result<(), SnapshotError> {
        self.buf.truncate(self.unacked);
        for _ in 0..n {
            self.buf.push_back((0, snap::load_flit(r)?));
        }
        Ok(())
    }
}

/// Receiver-side ACK/nACK guard.
///
/// Per cycle, call [`receive`](LinkRx::receive) with the forward-channel
/// arrival and whether the downstream register can accept a flit; it
/// returns the delivered flit (if accepted) and the reverse-channel
/// message to send back.
#[derive(Debug, Clone, Default)]
pub struct LinkRx {
    expected: u8,
    accepted: u64,
    rejected: u64,
}

impl LinkRx {
    /// Creates a receiver expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sequence number the next in-order flit must carry.
    pub(crate) fn expected(&self) -> u8 {
        self.expected
    }

    /// Flits accepted and delivered downstream.
    pub(crate) fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Flits rejected (corrupt, out of order, or back-pressured).
    pub(crate) fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Processes a forward-channel arrival.
    ///
    /// Returns `(delivered, reply)`: the flit to hand to the input
    /// register (only when clean, in order and `can_accept`), and the
    /// ACK/nACK to send on the reverse channel.
    pub fn receive(&mut self, arrival: LinkFlit, can_accept: bool) -> (Option<Flit>, AckNack) {
        if arrival.corrupted {
            self.rejected += 1;
            return (
                None,
                AckNack {
                    seq: self.expected,
                    ack: false,
                },
            );
        }
        if arrival.seq == self.expected {
            if can_accept {
                self.accepted += 1;
                let acked = self.expected;
                self.expected = seq_next(self.expected);
                (
                    Some(arrival.flit),
                    AckNack {
                        seq: acked,
                        ack: true,
                    },
                )
            } else {
                // Flow control: full register nACKs, forcing a resend.
                self.rejected += 1;
                (
                    None,
                    AckNack {
                        seq: self.expected,
                        ack: false,
                    },
                )
            }
        } else if seq_dist(arrival.seq, self.expected) <= SEQ_MOD / 2 {
            // Duplicate of an already-delivered flit (stale retransmission):
            // re-ACK it so the sender prunes its window, deliver nothing.
            (
                None,
                AckNack {
                    seq: arrival.seq,
                    ack: true,
                },
            )
        } else {
            // A future flit implies earlier ones were lost: rewind.
            self.rejected += 1;
            (
                None,
                AckNack {
                    seq: self.expected,
                    ack: false,
                },
            )
        }
    }
}

impl Snapshot for LinkTx {
    /// Captures the retransmission window, sequence counter, rewind
    /// pointer, timeout silence counter and statistics. The owning port
    /// writes the queued flits where its format puts them (`save_queued`);
    /// `capacity`, `timeout` and `sabotage` are structural (set at
    /// assembly time) and are not stored.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.len(self.unacked);
        for (seq, flit) in self.buf.range(..self.unacked) {
            w.u8(*seq);
            snap::save_flit(w, flit);
        }
        w.u8(self.next_seq);
        match self.resend {
            Some(idx) => {
                w.bool(true);
                w.len(idx);
            }
            None => w.bool(false),
        }
        w.u64(self.retransmissions);
        w.u64(self.sent);
        w.u64(self.idle_reverse_cycles);
        w.u64(self.timeouts);
    }

    /// Replaces the window; the queued flits behind it stay.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.len()?;
        if n > self.capacity {
            return Err(SnapshotError::Malformed(format!(
                "retransmission window holds {n} flits but capacity is {}",
                self.capacity
            )));
        }
        self.buf.drain(..self.unacked);
        self.unacked = 0;
        for i in 0..n {
            self.buf.insert(i, (r.u8()?, snap::load_flit(r)?));
        }
        self.unacked = n;
        self.next_seq = r.u8()?;
        self.resend = if r.bool()? {
            let idx = r.len()?;
            if idx >= n {
                return Err(SnapshotError::Malformed(format!(
                    "rewind pointer {idx} outside window of {n}"
                )));
            }
            Some(idx)
        } else {
            None
        };
        self.retransmissions = r.u64()?;
        self.sent = r.u64()?;
        self.idle_reverse_cycles = r.u64()?;
        self.timeouts = r.u64()?;
        Ok(())
    }
}

impl Snapshot for LinkRx {
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.u8(self.expected);
        w.u64(self.accepted);
        w.u64(self.rejected);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.expected = r.u8()?;
        self.accepted = r.u64()?;
        self.rejected = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
impl LinkTx {
    /// A sender whose window holds `seqs` verbatim, including shapes no
    /// protocol run reaches (over capacity, duplicated, gapped): input
    /// for the monitor's window well-formedness checks.
    pub(crate) fn with_window(capacity: usize, seqs: &[u8]) -> Self {
        let meta = crate::flit::FlitMeta::new(0, xpipes_sim::Cycle::ZERO, 0);
        let flit = Flit::new(crate::flit::FlitKind::Single, 0, meta);
        let mut tx = LinkTx::new(capacity, None);
        tx.buf.extend(seqs.iter().map(|&s| (s, flit)));
        tx.unacked = seqs.len();
        tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, FlitMeta};
    use xpipes_sim::Cycle;

    fn flit(n: u64) -> Flit {
        Flit::new(
            FlitKind::Single,
            n as u128,
            FlitMeta::new(n, Cycle::ZERO, 0),
        )
    }

    /// Queues `f` and runs one transmit cycle with no reverse arrival.
    fn send(tx: &mut LinkTx, f: Flit) -> Option<LinkFlit> {
        tx.push(f);
        tx.transmit(None).map(|(lf, _)| lf)
    }

    /// One transmit cycle: the sequence number sent and whether it was
    /// a first send.
    fn emit(tx: &mut LinkTx, rev: Option<AckNack>) -> Option<(u8, bool)> {
        tx.transmit(rev).map(|(lf, new)| (lf.seq, new))
    }

    #[test]
    fn seq_arithmetic() {
        assert_eq!(seq_next(0), 1);
        assert_eq!(seq_next(63), 0);
        assert_eq!(seq_dist(5, 9), 4);
        assert_eq!(seq_dist(60, 2), 6);
        assert_eq!(seq_dist(2, 2), 0);
        assert_eq!(seq_dist(9, 5), 60);
    }

    #[test]
    fn tx_assigns_sequences() {
        let mut tx = LinkTx::new(4, None);
        for i in 0..3 {
            let sent = send(&mut tx, flit(i)).unwrap();
            assert_eq!(sent.seq, i as u8);
        }
        assert_eq!(tx.in_flight(), 3);
        assert_eq!(tx.sent(), 3);
    }

    #[test]
    fn tx_window_fills() {
        let mut tx = LinkTx::new(2, None);
        send(&mut tx, flit(0));
        send(&mut tx, flit(1));
        assert!(!tx.ready_for_new());
        tx.process(Some(AckNack { seq: 0, ack: true }));
        assert!(tx.ready_for_new());
        assert_eq!(tx.in_flight(), 1);
    }

    #[test]
    fn cumulative_ack_prunes_multiple() {
        let mut tx = LinkTx::new(4, None);
        for i in 0..4 {
            send(&mut tx, flit(i));
        }
        tx.process(Some(AckNack { seq: 2, ack: true }));
        assert_eq!(tx.in_flight(), 1); // only seq 3 left
    }

    #[test]
    fn stale_ack_ignored() {
        let mut tx = LinkTx::new(4, None);
        send(&mut tx, flit(0));
        tx.process(Some(AckNack { seq: 0, ack: true }));
        send(&mut tx, flit(1));
        // Duplicate ACK for 0 must not prune seq 1.
        tx.process(Some(AckNack { seq: 0, ack: true }));
        assert_eq!(tx.in_flight(), 1);
    }

    #[test]
    fn nack_triggers_rewind() {
        let mut tx = LinkTx::new(4, None);
        for i in 0..3 {
            send(&mut tx, flit(i));
        }
        tx.process(Some(AckNack { seq: 1, ack: false }));
        assert!(!tx.ready_for_new());
        assert_eq!(emit(&mut tx, None), Some((1, false)));
        assert_eq!(emit(&mut tx, None), Some((2, false)));
        assert!(tx.ready_for_new());
        assert_eq!(tx.retransmissions(), 2);
    }

    #[test]
    fn nack_for_unknown_seq_ignored() {
        let mut tx = LinkTx::new(4, None);
        send(&mut tx, flit(0));
        tx.process(Some(AckNack { seq: 9, ack: false }));
        assert!(tx.ready_for_new());
    }

    #[test]
    fn ack_during_rewind_adjusts_pointer() {
        let mut tx = LinkTx::new(4, None);
        for i in 0..4 {
            send(&mut tx, flit(i));
        }
        tx.process(Some(AckNack { seq: 2, ack: false })); // rewind to idx 2
        tx.process(Some(AckNack { seq: 1, ack: true })); // prune 0 and 1
                                                         // The pointer followed the pruned window.
        assert_eq!(emit(&mut tx, None), Some((2, false)));
    }

    #[test]
    fn new_flit_waits_for_the_rewind() {
        let mut tx = LinkTx::new(4, None);
        send(&mut tx, flit(0));
        send(&mut tx, flit(1));
        tx.process(Some(AckNack { seq: 0, ack: false }));
        let seqs: Vec<u8> = (0..3)
            .map(|i| send(&mut tx, flit(2 + i)).unwrap().seq)
            .collect();
        assert_eq!(seqs, [0, 1, 2], "retransmissions first, then the queue");
        assert_eq!((tx.in_flight(), tx.queued()), (3, 2));
    }

    #[test]
    fn rx_accepts_in_order() {
        let mut rx = LinkRx::new();
        let (d, a) = rx.receive(
            LinkFlit {
                flit: flit(0),
                seq: 0,
                corrupted: false,
            },
            true,
        );
        assert!(d.is_some());
        assert_eq!(a, AckNack { seq: 0, ack: true });
        assert_eq!(rx.expected, 1);
        assert_eq!(rx.accepted(), 1);
    }

    #[test]
    fn rx_nacks_corrupt() {
        let mut rx = LinkRx::new();
        let (d, a) = rx.receive(
            LinkFlit {
                flit: flit(0),
                seq: 0,
                corrupted: true,
            },
            true,
        );
        assert!(d.is_none());
        assert_eq!(a, AckNack { seq: 0, ack: false });
        assert_eq!(rx.rejected(), 1);
        assert_eq!(rx.expected, 0); // unchanged
    }

    #[test]
    fn rx_nacks_when_backpressured() {
        let mut rx = LinkRx::new();
        let (d, a) = rx.receive(
            LinkFlit {
                flit: flit(0),
                seq: 0,
                corrupted: false,
            },
            false,
        );
        assert!(d.is_none());
        assert!(!a.ack);
    }

    #[test]
    fn rx_reacks_duplicates() {
        let mut rx = LinkRx::new();
        rx.receive(
            LinkFlit {
                flit: flit(0),
                seq: 0,
                corrupted: false,
            },
            true,
        );
        // Stale retransmission of seq 0 arrives again.
        let (d, a) = rx.receive(
            LinkFlit {
                flit: flit(0),
                seq: 0,
                corrupted: false,
            },
            true,
        );
        assert!(d.is_none());
        assert_eq!(a, AckNack { seq: 0, ack: true });
        assert_eq!(rx.expected, 1);
    }

    #[test]
    fn rx_nacks_future_flit() {
        let mut rx = LinkRx::new();
        let (d, a) = rx.receive(
            LinkFlit {
                flit: flit(5),
                seq: 5,
                corrupted: false,
            },
            true,
        );
        assert!(d.is_none());
        assert_eq!(a, AckNack { seq: 0, ack: false });
    }

    #[test]
    #[should_panic(expected = "half the sequence space")]
    fn oversized_window_rejected() {
        LinkTx::new(32, None);
    }

    #[test]
    fn seq_dist_wraparound_grid() {
        // Exhaustive modular-distance identities across the wrap point.
        for from in 0..SEQ_MOD {
            assert_eq!(seq_dist(from, from), 0);
            assert_eq!(seq_dist(from, seq_next(from)), 1);
            assert!(seq_next(from) < SEQ_MOD);
            for d in 0..SEQ_MOD {
                let to = (from + d) % SEQ_MOD;
                assert_eq!(seq_dist(from, to), d, "from={from} d={d}");
            }
        }
    }

    #[test]
    fn tx_sequence_numbers_wrap_modulo_64() {
        let mut tx = LinkTx::new(4, None);
        // Send and immediately ACK 130 flits: sequences must wrap twice.
        for i in 0..130u64 {
            let sent = send(&mut tx, flit(i)).unwrap();
            assert_eq!(sent.seq, (i % SEQ_MOD as u64) as u8, "flit {i}");
            tx.process(Some(AckNack {
                seq: sent.seq,
                ack: true,
            }));
        }
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.sent(), 130);
    }

    #[test]
    fn cumulative_ack_prunes_across_wraparound() {
        let mut tx = LinkTx::new(4, None);
        // Advance next_seq to 62 (send + ack 62 flits).
        for i in 0..62u64 {
            let s = send(&mut tx, flit(i)).unwrap();
            tx.process(Some(AckNack {
                seq: s.seq,
                ack: true,
            }));
        }
        // Fill the window across the 63 -> 0 boundary: seqs 62, 63, 0, 1.
        for i in 62..66u64 {
            let s = send(&mut tx, flit(i)).unwrap();
            assert_eq!(s.seq, (i % 64) as u8);
        }
        assert_eq!(tx.in_flight(), 4);
        assert!(!tx.ready_for_new());
        // Cumulative ACK for wrapped seq 0 prunes 62, 63 and 0.
        tx.process(Some(AckNack { seq: 0, ack: true }));
        assert_eq!(tx.in_flight(), 1);
        assert_eq!(tx.window_seqs().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn nack_rewind_across_wraparound() {
        let mut tx = LinkTx::new(4, None);
        for i in 0..63u64 {
            let s = send(&mut tx, flit(i)).unwrap();
            tx.process(Some(AckNack {
                seq: s.seq,
                ack: true,
            }));
        }
        // Window holds seqs 63, 0, 1.
        for i in 63..66u64 {
            send(&mut tx, flit(i));
        }
        tx.process(Some(AckNack { seq: 0, ack: false }));
        let r = emit(&mut tx, None);
        assert_eq!(r, Some((0, false)), "rewind targets the wrapped sequence");
        assert_eq!(emit(&mut tx, None), Some((1, false)));
        assert!(tx.ready_for_new());
    }

    #[test]
    fn full_window_refuses_new_flits() {
        let mut tx = LinkTx::new(4, None);
        for i in 0..4u64 {
            send(&mut tx, flit(i));
        }
        assert_eq!(tx.in_flight(), tx.capacity());
        assert!(!tx.ready_for_new());
        // With nothing to resend and nothing new, the line stays silent.
        assert!(tx.transmit(None).is_none());
        assert_eq!(tx.sent(), 4);
        // Acknowledging the whole window reopens it.
        tx.process(Some(AckNack { seq: 3, ack: true }));
        assert_eq!(tx.in_flight(), 0);
        assert!(tx.ready_for_new());
    }

    #[test]
    fn full_window_keeps_new_flits_queued() {
        let mut tx = LinkTx::new(2, None);
        send(&mut tx, flit(0));
        send(&mut tx, flit(1));
        assert!(send(&mut tx, flit(2)).is_none());
        assert_eq!((tx.in_flight(), tx.queued(), tx.len()), (2, 1, 3));
        // The ACK that prunes flit 0 lets the queued flit out.
        assert_eq!(tx.process(Some(AckNack { seq: 0, ack: true })), 1);
        let (sent, new) = tx.transmit(None).expect("window reopened");
        assert_eq!((sent.seq, sent.flit.meta.packet_id, new), (2, 2, true));
    }

    #[test]
    fn receiver_duplicate_detection_survives_wraparound() {
        let mut rx = LinkRx::new();
        // Deliver 70 in-order flits (expected wraps past 63).
        for i in 0..70u64 {
            let (d, a) = rx.receive(
                LinkFlit {
                    flit: flit(i),
                    seq: (i % 64) as u8,
                    corrupted: false,
                },
                true,
            );
            assert!(d.is_some(), "flit {i}");
            assert!(a.ack);
        }
        assert_eq!(rx.expected, 6);
        // A stale retransmission of wrapped seq 4 is re-ACKed, not
        // delivered again.
        let (d, a) = rx.receive(
            LinkFlit {
                flit: flit(68),
                seq: 4,
                corrupted: false,
            },
            true,
        );
        assert!(d.is_none());
        assert_eq!(a, AckNack { seq: 4, ack: true });
        assert_eq!(rx.accepted(), 70);
    }

    #[test]
    fn ack_timeout_rewinds_full_window() {
        let mut tx = LinkTx::new(2, Some(5));
        send(&mut tx, flit(0));
        send(&mut tx, flit(1));
        // Reverse channel dead. The silence counter ticks on every
        // transmit cycle with flits outstanding: it reaches 4 after three
        // silent cycles, and the next transmit hits the timeout of 5.
        for _ in 0..3 {
            assert!(tx.transmit(None).is_none());
        }
        let r0 = emit(&mut tx, None);
        assert_eq!(r0, Some((0, false)), "timeout rewind fires");
        assert_eq!(emit(&mut tx, None), Some((1, false)), "rewind continues");
        assert_eq!(tx.timeouts(), 1);
        assert_eq!(tx.retransmissions(), 2);
        // The receiver re-ACKs duplicates; a cumulative ACK then drains.
        tx.process(Some(AckNack { seq: 1, ack: true }));
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn ack_timeout_quiet_when_acks_flow() {
        let mut tx = LinkTx::new(4, Some(3));
        for i in 0..50u64 {
            let s = send(&mut tx, flit(i)).unwrap();
            // An ACK arrives every cycle: the timeout must never fire.
            tx.process(Some(AckNack {
                seq: s.seq,
                ack: true,
            }));
        }
        assert_eq!(tx.timeouts(), 0);
        assert_eq!(tx.retransmissions(), 0);
    }

    #[test]
    fn sabotage_reuse_sequence_duplicates_window_seqs() {
        let mut tx = LinkTx::new(4, None);
        tx.sabotage(FlowSabotage::ReuseSequence);
        send(&mut tx, flit(0));
        send(&mut tx, flit(1));
        let seqs: Vec<u8> = tx.window_seqs().collect();
        assert_eq!(seqs, vec![0, 0], "broken sender reuses sequence 0");
    }

    /// A nACK that prunes the window front under `DropOnNack` while a
    /// timeout rewind is under way moves the rewind pointer with it.
    #[test]
    fn drop_on_nack_during_a_timeout_rewind_keeps_the_pointer_in_the_window() {
        let mut tx = LinkTx::new(4, Some(2));
        tx.sabotage(FlowSabotage::DropOnNack);
        tx.push(flit(0));
        tx.push(flit(1));
        let sent: Vec<_> = (0..5).map(|_| emit(&mut tx, None)).collect();
        let expected = [(0, true), (1, true), (0, false), (1, false), (0, false)];
        assert_eq!(sent, expected.map(Some), "two sends, then timeout resends");
        let nack = AckNack { seq: 0, ack: false };
        assert_eq!(emit(&mut tx, Some(nack)), Some((1, false)), "seq 0 dropped");
        assert_eq!(tx.in_flight(), 1);
        assert_eq!(emit(&mut tx, None), Some((1, false)), "next timeout");
    }

    #[test]
    fn sabotage_skip_retransmission_ignores_nacks() {
        let mut tx = LinkTx::new(4, None);
        tx.sabotage(FlowSabotage::SkipRetransmission);
        send(&mut tx, flit(0));
        tx.process(Some(AckNack { seq: 0, ack: false }));
        assert!(tx.transmit(None).is_none(), "rewind silently discarded");
        assert_eq!(tx.retransmissions(), 0);
        assert_eq!(tx.in_flight(), 1, "flit is stuck forever");
    }

    /// A restored sender/receiver pair must continue the protocol
    /// bit-identically: same sequences, same rewinds, same statistics.
    #[test]
    fn flow_control_snapshot_resumes_mid_rewind() {
        let mut tx = LinkTx::new(4, Some(9));
        let mut rx = LinkRx::new();
        let mut sent = Vec::new();
        for i in 0..3 {
            sent.push(send(&mut tx, flit(i)).unwrap());
        }
        // Deliver flit 0, then nACK flit 1: a rewind is now in progress.
        let (_, reply) = rx.receive(sent[0], true);
        tx.process(Some(reply));
        tx.process(Some(AckNack { seq: 1, ack: false }));
        assert!(!tx.ready_for_new(), "rewind must be in progress");

        let mut w = SnapshotWriter::new();
        tx.save_state(&mut w);
        rx.save_state(&mut w);
        let bytes = w.finish();
        let mut restored_tx = LinkTx::new(4, Some(9));
        let mut restored_rx = LinkRx::new();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        restored_tx.load_state(&mut r).unwrap();
        restored_rx.load_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored_rx.expected, rx.expected);
        assert_eq!(restored_rx.accepted(), rx.accepted());
        for _ in 0..20 {
            let a = tx.transmit(None);
            let b = restored_tx.transmit(None);
            assert_eq!(a, b);
            if let (Some((la, _)), Some((lb, _))) = (a, b) {
                let (da, ra) = rx.receive(la, true);
                let (db, rb) = restored_rx.receive(lb, true);
                assert_eq!(da, db);
                assert_eq!(ra, rb);
                tx.process(Some(ra));
                restored_tx.process(Some(rb));
            }
        }
        assert_eq!(tx.retransmissions(), restored_tx.retransmissions());
        assert_eq!(tx.sent(), restored_tx.sent());
    }

    #[test]
    fn oversized_window_snapshot_rejected() {
        let mut tx = LinkTx::new(4, None);
        for i in 0..4 {
            send(&mut tx, flit(i));
        }
        let mut w = SnapshotWriter::new();
        tx.save_state(&mut w);
        let bytes = w.finish();
        let mut small = LinkTx::new(2, None);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            small.load_state(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }

    /// Lossless direct connection: everything sent arrives in order.
    #[test]
    fn end_to_end_lossless() {
        let mut tx = LinkTx::new(4, None);
        let mut rx = LinkRx::new();
        let mut delivered = Vec::new();
        let mut reply = None;
        for i in 0..20 {
            tx.push(flit(i));
        }
        for _ in 0..100 {
            if let Some((lf, _)) = tx.transmit(reply.take()) {
                let (d, r) = rx.receive(lf, true);
                if let Some(f) = d {
                    delivered.push(f.meta.packet_id);
                }
                reply = Some(r);
            }
        }
        assert_eq!(delivered, (0..20).collect::<Vec<_>>());
        assert_eq!(tx.retransmissions(), 0);
    }
}
