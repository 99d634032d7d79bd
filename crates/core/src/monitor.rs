//! Online protocol invariant checkers for fault-injection campaigns.
//!
//! The ACK/nACK go-back-N protocol promises that every flit handed to a
//! [`LinkTx`] emerges from the paired [`LinkRx`] **exactly once, in
//! order**, regardless of forward corruption, reverse-channel loss, or
//! backpressure. The `ProtocolMonitor` watches every channel of a
//! network while faults are injected and checks four invariants each
//! cycle:
//!
//! * **In-order delivery** — the receiver accepts exactly the sequence of
//!   flits the sender first transmitted, with no reordering, duplication
//!   or invention.
//! * **No sequence aliasing** — the go-back-N window never holds two
//!   entries with the same sequence number, window numbering is
//!   contiguous, and a retransmission always re-sends the flit originally
//!   bound to that sequence number.
//! * **Bounded-retransmission liveness** — a channel with undelivered
//!   flits makes progress within a configurable cycle bound.
//! * **Conservation of flits** — flits are neither created nor destroyed:
//!   `accepted + in-transit == new flits sent`, checked online and again
//!   at drain.
//!
//! The monitor is pure observation: it never perturbs the simulation, so
//! a monitored run is cycle-identical to an unmonitored one.

use std::collections::VecDeque;

use xpipes_sim::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::flit::Flit;
use crate::flow_control::{seq_dist, seq_next, LinkRx, LinkTx};
use crate::snap;

/// Which invariant a violation report refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// Exactly-once in-order delivery per channel.
    InOrderDelivery,
    /// Sequence-number aliasing inside the go-back-N window.
    SeqAliasing,
    /// Bounded-retransmission liveness.
    Liveness,
    /// Conservation of flits (none created, none destroyed).
    Conservation,
}

impl InvariantKind {
    /// Stable machine-readable name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            InvariantKind::InOrderDelivery => "in-order-delivery",
            InvariantKind::SeqAliasing => "seq-aliasing",
            InvariantKind::Liveness => "liveness",
            InvariantKind::Conservation => "conservation",
        }
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Cycle at which the violation was detected.
    pub cycle: u64,
    /// Channel label (as registered with `ProtocolMonitor::add_channel`).
    pub channel: String,
    /// Violated invariant.
    pub kind: InvariantKind,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[cycle {}] {} on {}: {}",
            self.cycle,
            self.kind.name(),
            self.channel,
            self.detail
        )
    }
}

/// Monitor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Cycles a channel with undelivered flits may go without progress
    /// before the liveness invariant trips.
    pub liveness_bound: u64,
    /// Hard cap on recorded violations (a broken protocol would otherwise
    /// flood memory; the first few violations carry all the signal).
    pub max_violations: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            liveness_bound: 2000,
            max_violations: 64,
        }
    }
}

/// Per-channel observer state.
#[derive(Debug, Clone)]
struct ChanState {
    label: String,
    /// Sequence number the next *new* (first-transmission) flit must carry.
    expected_new_seq: u8,
    /// New flits transmitted but not yet accepted: (seq, fingerprint).
    pending: VecDeque<(u8, Flit)>,
    /// Recently delivered flits: when an ACK is lost, go-back-N
    /// legitimately retransmits flits the receiver already accepted (and
    /// re-ACKs as duplicates), so these sequence numbers stay valid for
    /// the receiver's duplicate-detection span.
    delivered: VecDeque<(u8, Flit)>,
    /// New-transmission events observed.
    noted_new: u64,
    /// Accept events observed.
    noted_accepted: u64,
    /// Cycle of the last new transmission or accept on this channel.
    last_progress: u64,
    /// Liveness already reported for the current stall (reset on progress).
    live_reported: bool,
}

/// Observes every channel of a network and checks protocol invariants.
///
/// Wire-up: call [`note_transmit`](Self::note_transmit) whenever a sender
/// drives a flit onto a link, [`note_accept`](Self::note_accept) whenever
/// the paired receiver accepts one, [`check_endpoints`](Self::check_endpoints)
/// once per channel per cycle, and [`finish`](Self::finish) after drain.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProtocolMonitor {
    config: MonitorConfig,
    chans: Vec<ChanState>,
    violations: Vec<InvariantViolation>,
}

impl ProtocolMonitor {
    /// Creates a monitor with the given configuration.
    pub(crate) fn new(config: MonitorConfig) -> Self {
        ProtocolMonitor {
            config,
            chans: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// The configuration the monitor runs with.
    pub(crate) fn config(&self) -> MonitorConfig {
        self.config
    }

    /// Registers a channel whose endpoints stand at `tx` and `rx` at
    /// `cycle`; returns its index for the `note_*` calls. The watch
    /// takes up the sender's state: its window splits into flits the
    /// receiver has yet to accept (in transit) and accepted ones whose
    /// ACK is still out (delivered), and the counts the conservation
    /// check compares start at the endpoints' own. On a fresh network
    /// all of it is empty.
    pub(crate) fn add_channel(
        &mut self,
        label: impl Into<String>,
        tx: &LinkTx,
        rx: &LinkRx,
        cycle: u64,
    ) -> usize {
        let front = tx.window().next().map_or(rx.expected(), |&(s, _)| s);
        let accepted = usize::from(seq_dist(front, rx.expected())).min(tx.in_flight());
        self.chans.push(ChanState {
            label: label.into(),
            expected_new_seq: tx.next_seq(),
            pending: tx.window().skip(accepted).copied().collect(),
            delivered: tx.window().take(accepted).copied().collect(),
            noted_new: tx.sent() - tx.retransmissions(),
            noted_accepted: rx.accepted(),
            last_progress: cycle,
            live_reported: false,
        });
        self.chans.len() - 1
    }

    /// All recorded violations, in detection order.
    pub(crate) fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    fn record(&mut self, cycle: u64, ch: usize, kind: InvariantKind, detail: String) {
        if self.violations.len() >= self.config.max_violations {
            return;
        }
        self.violations.push(InvariantViolation {
            cycle,
            channel: self.chans[ch].label.clone(),
            kind,
            detail,
        });
    }

    /// A sender drove `lf`'s flit onto channel `ch` this cycle. Classifies
    /// the transmission as new or retransmission by sequence number and
    /// checks the aliasing invariant on retransmissions.
    pub(crate) fn note_transmit(&mut self, ch: usize, seq: u8, flit: &Flit, cycle: u64) {
        let chan = &mut self.chans[ch];
        if seq == chan.expected_new_seq {
            chan.pending.push_back((seq, *flit));
            chan.expected_new_seq = seq_next(seq);
            chan.noted_new += 1;
            chan.last_progress = cycle;
            chan.live_reported = false;
            return;
        }
        // Retransmission: it must replay a sequence number still live at
        // the receiver — either in flight (pending) or recently delivered
        // (its ACK may have been lost) — with the exact flit originally
        // bound to it.
        match chan.pending.iter().find(|(s, _)| *s == seq) {
            Some((_, original)) if original == flit => {}
            Some(_) => {
                let detail = format!("seq {seq} reused for a different flit");
                self.record(cycle, ch, InvariantKind::SeqAliasing, detail);
            }
            None => match chan.delivered.iter().rev().find(|(s, _)| *s == seq) {
                Some((_, original)) if original == flit => {} // duplicate, re-ACKed downstream
                Some(_) => {
                    let detail = format!("seq {seq} reused for a different flit after delivery");
                    self.record(cycle, ch, InvariantKind::SeqAliasing, detail);
                }
                None => {
                    let detail = format!("retransmission of unknown seq {seq}");
                    self.record(cycle, ch, InvariantKind::SeqAliasing, detail);
                }
            },
        }
    }

    /// The receiver on channel `ch` accepted `flit` this cycle. Checks the
    /// exactly-once in-order invariant against the pending queue.
    pub(crate) fn note_accept(&mut self, ch: usize, flit: &Flit, cycle: u64) {
        let chan = &mut self.chans[ch];
        chan.noted_accepted += 1;
        chan.last_progress = cycle;
        chan.live_reported = false;
        match chan.pending.pop_front() {
            Some((seq, expected)) => {
                // Remember the delivery for the receiver's 32-sequence
                // duplicate-detection span (SEQ_MOD / 2).
                chan.delivered.push_back((seq, *flit));
                while chan.delivered.len() > 32 {
                    chan.delivered.pop_front();
                }
                if expected != *flit {
                    let detail = format!(
                        "accepted flit differs from the one sent as seq {seq} \
                         (packet {} vs {})",
                        flit.meta.packet_id, expected.meta.packet_id
                    );
                    self.record(cycle, ch, InvariantKind::InOrderDelivery, detail);
                }
            }
            None => {
                let detail = format!(
                    "accepted a flit never sent (packet {})",
                    flit.meta.packet_id
                );
                self.record(cycle, ch, InvariantKind::InOrderDelivery, detail);
            }
        }
    }

    /// True while channel `ch` has transmitted flits the receiver has not
    /// accepted: its liveness clock is running, so the kernel must keep
    /// calling [`check_endpoints`](Self::check_endpoints) on it even when
    /// nothing else happens there.
    pub(crate) fn awaits_delivery(&self, ch: usize) -> bool {
        !self.chans[ch].pending.is_empty()
    }

    /// Once-per-cycle structural checks against the channel's endpoint
    /// state: window well-formedness (aliasing), conservation, liveness.
    pub(crate) fn check_endpoints(&mut self, ch: usize, tx: &LinkTx, rx: &LinkRx, cycle: u64) {
        // Window well-formedness: distinct, contiguous sequence numbers,
        // occupancy within capacity. One pass over the window decides all
        // three; the sequence list is only collected to render a failure.
        let mut len = 0usize;
        let mut mask = 0u64;
        let mut aliased = false;
        let mut contiguous = true;
        let mut prev = None;
        for s in tx.window_seqs() {
            len += 1;
            aliased |= mask & (1u64 << s) != 0;
            mask |= 1u64 << s;
            contiguous &= prev.is_none_or(|p| s == seq_next(p));
            prev = Some(s);
        }
        if len > tx.capacity() {
            let detail = format!("window holds {len} flits, capacity {}", tx.capacity());
            self.record(cycle, ch, InvariantKind::SeqAliasing, detail);
        }
        if aliased || !contiguous {
            let seqs: Vec<u8> = tx.window_seqs().collect();
            let detail = if aliased {
                format!("window holds duplicate sequence numbers: {seqs:?}")
            } else {
                format!("window numbering not contiguous: {seqs:?}")
            };
            self.record(cycle, ch, InvariantKind::SeqAliasing, detail);
        }

        // Conservation: every new flit is either accepted or still in
        // transit — never both, never neither.
        let new_sent = tx.sent().saturating_sub(tx.retransmissions());
        let accepted = rx.accepted();
        let chan = &self.chans[ch];
        let pending = chan.pending.len() as u64;
        if accepted > new_sent {
            let detail =
                format!("receiver accepted {accepted} flits but only {new_sent} were sent");
            self.record(cycle, ch, InvariantKind::Conservation, detail);
        } else if chan.noted_new == new_sent
            && chan.noted_accepted == accepted
            && accepted + pending != new_sent
        {
            let detail = format!(
                "flits lost or duplicated: sent {new_sent}, accepted {accepted}, \
                 in transit {pending}"
            );
            self.record(cycle, ch, InvariantKind::Conservation, detail);
        }

        // Liveness: undelivered flits must make progress within the bound.
        let chan = &mut self.chans[ch];
        if !chan.pending.is_empty()
            && !chan.live_reported
            && cycle.saturating_sub(chan.last_progress) > self.config.liveness_bound
        {
            chan.live_reported = true;
            let stalled = cycle - chan.last_progress;
            let detail = format!(
                "no progress for {stalled} cycles with {} undelivered flits",
                chan.pending.len()
            );
            self.record(cycle, ch, InvariantKind::Liveness, detail);
        }
    }

    /// Final conservation check after the network drained: every
    /// transmitted flit must have been delivered.
    pub(crate) fn finish(&mut self, cycle: u64) {
        for ch in 0..self.chans.len() {
            let n = self.chans[ch].pending.len();
            if n > 0 {
                let detail = format!("{n} flits transmitted but never delivered");
                self.record(cycle, ch, InvariantKind::Conservation, detail);
            }
        }
    }
}

fn save_seq_flit_queue(w: &mut SnapshotWriter, q: &VecDeque<(u8, Flit)>) {
    w.len(q.len());
    for (seq, flit) in q {
        w.u8(*seq);
        snap::save_flit(w, flit);
    }
}

fn load_seq_flit_queue(r: &mut SnapshotReader<'_>) -> Result<VecDeque<(u8, Flit)>, SnapshotError> {
    let n = r.len()?;
    let mut q = VecDeque::new();
    for _ in 0..n {
        let seq = r.u8()?;
        let flit = snap::load_flit(r)?;
        q.push_back((seq, flit));
    }
    Ok(q)
}

impl Snapshot for ProtocolMonitor {
    /// Captures every channel's observer state and the recorded
    /// violations. Channel labels and the configuration are structural:
    /// a restored monitor must already have the same channels registered.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.len(self.chans.len());
        for chan in &self.chans {
            w.u8(chan.expected_new_seq);
            save_seq_flit_queue(w, &chan.pending);
            save_seq_flit_queue(w, &chan.delivered);
            w.u64(chan.noted_new);
            w.u64(chan.noted_accepted);
            w.u64(chan.last_progress);
            w.bool(chan.live_reported);
        }
        w.len(self.violations.len());
        for v in &self.violations {
            w.u64(v.cycle);
            w.str(&v.channel);
            w.u8(match v.kind {
                InvariantKind::InOrderDelivery => 0,
                InvariantKind::SeqAliasing => 1,
                InvariantKind::Liveness => 2,
                InvariantKind::Conservation => 3,
            });
            w.str(&v.detail);
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.len()?;
        if n != self.chans.len() {
            return Err(SnapshotError::Malformed(format!(
                "monitor watches {} channels, snapshot has {n}",
                self.chans.len()
            )));
        }
        for chan in self.chans.iter_mut() {
            chan.expected_new_seq = r.u8()?;
            chan.pending = load_seq_flit_queue(r)?;
            chan.delivered = load_seq_flit_queue(r)?;
            chan.noted_new = r.u64()?;
            chan.noted_accepted = r.u64()?;
            chan.last_progress = r.u64()?;
            chan.live_reported = r.bool()?;
        }
        let n = r.len()?;
        self.violations.clear();
        for _ in 0..n {
            let cycle = r.u64()?;
            let channel = r.str()?;
            let kind = match r.u8()? {
                0 => InvariantKind::InOrderDelivery,
                1 => InvariantKind::SeqAliasing,
                2 => InvariantKind::Liveness,
                3 => InvariantKind::Conservation,
                other => {
                    return Err(SnapshotError::Malformed(format!(
                        "bad invariant kind tag {other}"
                    )))
                }
            };
            let detail = r.str()?;
            self.violations.push(InvariantViolation {
                cycle,
                channel,
                kind,
                detail,
            });
        }
        Ok(())
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

    /// Registers a channel between fresh endpoints.
    fn watch(m: &mut ProtocolMonitor, label: &str) -> usize {
        m.add_channel(label, &LinkTx::new(4, None), &LinkRx::new(), 0)
    }

    #[test]
    fn clean_exchange_stays_clean() {
        let mut m = ProtocolMonitor::new(MonitorConfig::default());
        let ch = watch(&mut m, "test");
        for i in 0..10u64 {
            m.note_transmit(ch, (i % 64) as u8, &flit(i), i);
            m.note_accept(ch, &flit(i), i + 1);
        }
        m.finish(20);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    #[test]
    fn retransmission_of_same_flit_is_clean() {
        let mut m = ProtocolMonitor::new(MonitorConfig::default());
        let ch = watch(&mut m, "test");
        m.note_transmit(ch, 0, &flit(1), 0);
        m.note_transmit(ch, 0, &flit(1), 5); // go-back-N replay
        m.note_accept(ch, &flit(1), 6);
        m.finish(10);
        assert!(m.violations().is_empty());
    }

    #[test]
    fn seq_reuse_with_different_flit_detected() {
        let mut m = ProtocolMonitor::new(MonitorConfig::default());
        let ch = watch(&mut m, "test");
        m.note_transmit(ch, 0, &flit(1), 0);
        m.note_transmit(ch, 0, &flit(2), 1); // same seq, different flit
        assert_eq!(m.violations().len(), 1);
        assert_eq!(m.violations()[0].kind, InvariantKind::SeqAliasing);
    }

    #[test]
    fn out_of_order_accept_detected() {
        let mut m = ProtocolMonitor::new(MonitorConfig::default());
        let ch = watch(&mut m, "test");
        m.note_transmit(ch, 0, &flit(1), 0);
        m.note_transmit(ch, 1, &flit(2), 1);
        m.note_accept(ch, &flit(2), 2); // skipped flit 1
        assert_eq!(m.violations()[0].kind, InvariantKind::InOrderDelivery);
    }

    #[test]
    fn invented_flit_detected() {
        let mut m = ProtocolMonitor::new(MonitorConfig::default());
        let ch = watch(&mut m, "test");
        m.note_accept(ch, &flit(9), 0);
        assert_eq!(m.violations()[0].kind, InvariantKind::InOrderDelivery);
    }

    #[test]
    fn liveness_trips_once_per_stall() {
        let cfg = MonitorConfig {
            liveness_bound: 10,
            max_violations: 64,
        };
        let mut m = ProtocolMonitor::new(cfg);
        let ch = watch(&mut m, "test");
        m.note_transmit(ch, 0, &flit(1), 0);
        let tx = LinkTx::new(4, None);
        let rx = LinkRx::new();
        for cycle in 1..40 {
            m.check_endpoints(ch, &tx, &rx, cycle);
        }
        let live: Vec<_> = m
            .violations()
            .iter()
            .filter(|v| v.kind == InvariantKind::Liveness)
            .collect();
        assert_eq!(live.len(), 1, "reported once, not every cycle");
    }

    /// The window well-formedness findings, word for word, on windows
    /// only a broken sender could hold. Duplicates mask a gap (one
    /// finding, not two); an over-full window is reported on top.
    #[test]
    fn malformed_windows_render_golden_findings() {
        let over = "window holds 5 flits, capacity 4";
        let cases: [(&[u8], &[&str]); 8] = [
            (&[], &[]),
            (&[0, 1, 2, 3], &[]),
            (&[62, 63, 0, 1], &[]),
            (&[0, 1, 2, 3, 4], &[over]),
            (
                &[3, 4, 3],
                &["window holds duplicate sequence numbers: [3, 4, 3]"],
            ),
            (&[0, 2], &["window numbering not contiguous: [0, 2]"]),
            (
                &[5, 5, 9, 10, 11],
                &[
                    over,
                    "window holds duplicate sequence numbers: [5, 5, 9, 10, 11]",
                ],
            ),
            (
                &[63, 0, 1, 3, 4],
                &[over, "window numbering not contiguous: [63, 0, 1, 3, 4]"],
            ),
        ];
        for (seqs, expected) in cases {
            let mut m = ProtocolMonitor::new(MonitorConfig::default());
            let ch = watch(&mut m, "test");
            m.check_endpoints(ch, &LinkTx::with_window(4, seqs), &LinkRx::new(), 9);
            let found: Vec<&str> = m.violations().iter().map(|v| v.detail.as_str()).collect();
            assert_eq!(found, expected, "window {seqs:?}");
            assert!(m
                .violations()
                .iter()
                .all(|v| v.kind == InvariantKind::SeqAliasing && v.cycle == 9));
        }
    }

    #[test]
    fn undelivered_flits_flagged_at_finish() {
        let mut m = ProtocolMonitor::new(MonitorConfig::default());
        let ch = watch(&mut m, "test");
        m.note_transmit(ch, 0, &flit(1), 0);
        m.finish(100);
        assert_eq!(m.violations()[0].kind, InvariantKind::Conservation);
    }

    #[test]
    fn monitor_snapshot_preserves_observer_state() {
        let mut m = ProtocolMonitor::new(MonitorConfig::default());
        let ch = watch(&mut m, "sw0->sw1");
        m.note_transmit(ch, 0, &flit(1), 0);
        m.note_transmit(ch, 1, &flit(2), 1);
        m.note_accept(ch, &flit(1), 2);
        m.note_transmit(ch, 0, &flit(9), 3); // aliasing violation
        assert_eq!(m.violations().len(), 1);

        let mut w = SnapshotWriter::new();
        m.save_state(&mut w);
        let bytes = w.finish();
        let mut restored = ProtocolMonitor::new(MonitorConfig::default());
        watch(&mut restored, "sw0->sw1");
        let mut r = SnapshotReader::open(&bytes).unwrap();
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.violations(), m.violations());
        // Both monitors must flag the still-undelivered flit identically.
        m.finish(50);
        restored.finish(50);
        assert_eq!(restored.violations(), m.violations());

        // Channel-count mismatch is rejected.
        let mut other = ProtocolMonitor::new(MonitorConfig::default());
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            other.load_state(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }

    /// A channel registered mid-flight takes up its endpoints' state: a
    /// replay of a flit the receiver accepted but has not acknowledged,
    /// and of one still in transit, is clean, and so are the accept and
    /// the counts behind the conservation check.
    #[test]
    fn channel_registered_mid_flight_is_seeded_from_its_endpoints() {
        let mut tx = LinkTx::new(4, None);
        let mut rx = LinkRx::new();
        let sent: Vec<_> = (0..3)
            .map(|i| {
                tx.push(flit(i));
                tx.transmit(None).expect("window has room").0
            })
            .collect();
        rx.receive(sent[0], true);
        let mut m = ProtocolMonitor::new(MonitorConfig::default());
        let ch = m.add_channel("test", &tx, &rx, 7);
        assert!(m.awaits_delivery(ch));
        m.check_endpoints(ch, &tx, &rx, 7);
        m.note_transmit(ch, 0, &flit(0), 8); // ACK lost: replay of a delivered flit
        m.note_transmit(ch, 1, &flit(1), 8); // rewind: replay of one in transit
        m.note_accept(ch, &flit(1), 9);
        m.note_transmit(ch, 3, &flit(3), 9);
        m.note_transmit(ch, 2, &flit(9), 10); // a different flit under seq 2
        let found: Vec<&str> = m.violations().iter().map(|v| v.detail.as_str()).collect();
        assert_eq!(found, ["seq 2 reused for a different flit"]);
    }

    #[test]
    fn violation_cap_is_enforced() {
        let cfg = MonitorConfig {
            liveness_bound: 2000,
            max_violations: 3,
        };
        let mut m = ProtocolMonitor::new(cfg);
        let ch = watch(&mut m, "test");
        for i in 0..10u64 {
            m.note_accept(ch, &flit(i), i); // every accept is "never sent"
        }
        assert_eq!(m.violations().len(), 3);
    }
}
