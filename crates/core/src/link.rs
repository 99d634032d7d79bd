//! Pipelined, possibly unreliable links.
//!
//! A link is two shift registers: a forward pipe carrying
//! [`LinkFlit`]s and a reverse pipe carrying [`AckNack`]s, each `stages`
//! cycles deep.
//! A fault injector driven by a [`FaultPlan`] corrupts forward flits
//! (singly or in bursts) and drops or corrupts reverse-channel ACK/nACK
//! messages, exercising the ACK/nACK protocol end to end. Reverse-channel
//! corruption is modelled as a detected drop: control messages are
//! CRC-protected, so the receiving sender discards a corrupted one.

use std::collections::VecDeque;

use xpipes_sim::{FaultPlan, SimRng, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::flow_control::{AckNack, LinkFlit};
use crate::snap;

/// A pipelined link instance.
///
/// Call [`shift`](Link::shift) exactly once per cycle with this cycle's
/// channel inputs; it returns what emerges at the far ends.
///
/// # Examples
///
/// ```
/// use xpipes::link::Link;
/// use xpipes::flow_control::LinkFlit;
/// use xpipes::{Flit, FlitKind, FlitMeta};
/// use xpipes_sim::{Cycle, FaultPlan, SimRng};
///
/// let mut link = Link::new(2, SimRng::seed(0), FaultPlan::none());
/// let lf = LinkFlit {
///     flit: Flit::new(FlitKind::Single, 1, FlitMeta::new(0, Cycle::ZERO, 0)),
///     seq: 0,
///     corrupted: false,
/// };
/// // Two pipeline stages: the flit pops out on the second shift.
/// let (out1, _) = link.shift(Some(lf), None);
/// assert!(out1.is_none());
/// let (out2, _) = link.shift(None, None);
/// assert!(out2.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    fwd: VecDeque<Option<LinkFlit>>,
    rev: VecDeque<Option<AckNack>>,
    faults: FaultPlan,
    rng: SimRng,
    traversals: u64,
    corrupted: u64,
    rev_dropped: u64,
    rev_corrupted: u64,
    burst_remaining: u32,
    /// Occupied slots across both pipes, maintained incrementally so the
    /// network's activity fast path can test emptiness in O(1).
    occupied: usize,
}

impl Link {
    /// Creates a `stages`-deep link (at least 1) whose injector draws
    /// from `rng` and follows `faults` (rates clamped to `[0, 1]`).
    pub fn new(stages: u32, rng: SimRng, faults: FaultPlan) -> Self {
        // An N-stage pipe delays by N shifts: the entering item passes
        // through N-1 interior slots plus the push/pop of the shift itself.
        let interior = (stages.max(1) - 1) as usize;
        Link {
            fwd: VecDeque::from(vec![None; interior]),
            rev: VecDeque::from(vec![None; interior]),
            faults: faults.clamped(),
            rng,
            traversals: 0,
            corrupted: 0,
            rev_dropped: 0,
            rev_corrupted: 0,
            burst_remaining: 0,
            occupied: 0,
        }
    }

    /// True when neither pipe holds a flit or ACK/nACK message. O(1).
    pub(crate) fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Pipeline depth in cycles.
    pub(crate) fn stages(&self) -> u32 {
        self.fwd.len() as u32 + 1
    }

    /// Forward flits that completed a traversal.
    pub(crate) fn traversals(&self) -> u64 {
        self.traversals
    }

    /// Flits the error injector corrupted.
    pub(crate) fn corrupted(&self) -> u64 {
        self.corrupted
    }

    /// Reverse-channel ACK/nACK messages the injector dropped outright.
    pub(crate) fn rev_dropped(&self) -> u64 {
        self.rev_dropped
    }

    /// Reverse-channel ACK/nACK messages the injector corrupted (the
    /// sender's control CRC detects these, so they behave as drops).
    pub(crate) fn rev_corrupted(&self) -> u64 {
        self.rev_corrupted
    }

    /// Advances both pipes one cycle: pushes the inputs in, pops the
    /// outputs out. The fault injector may flag the entering forward flit
    /// as corrupted (singly or as part of a burst) and may drop or
    /// corrupt the entering reverse message.
    pub fn shift(
        &mut self,
        fwd_in: Option<LinkFlit>,
        rev_in: Option<AckNack>,
    ) -> (Option<LinkFlit>, Option<AckNack>) {
        let fwd_in = fwd_in.map(|mut lf| {
            if self.burst_remaining > 0 {
                self.burst_remaining -= 1;
                lf.corrupted = true;
                self.corrupted += 1;
            } else if self.faults.flit_corruption_rate > 0.0
                && self.rng.chance(self.faults.flit_corruption_rate)
            {
                lf.corrupted = true;
                self.corrupted += 1;
                self.burst_remaining = self.faults.corruption_burst_len.saturating_sub(1);
            }
            lf
        });
        let rev_in = rev_in.and_then(|an| {
            if self.faults.ack_loss_rate > 0.0 && self.rng.chance(self.faults.ack_loss_rate) {
                self.rev_dropped += 1;
                return None;
            }
            if self.faults.ack_corruption_rate > 0.0
                && self.rng.chance(self.faults.ack_corruption_rate)
            {
                self.rev_corrupted += 1;
                return None;
            }
            Some(an)
        });
        if self.fwd.is_empty() {
            // Single-stage link: zero interior slots, the pipes are pure
            // pass-throughs. Skip the queue traffic (the common case on
            // mesh links, which default to one pipeline stage).
            if fwd_in.is_some() {
                self.traversals += 1;
            }
            return (fwd_in, rev_in);
        }
        self.occupied += fwd_in.is_some() as usize + rev_in.is_some() as usize;
        self.fwd.push_back(fwd_in);
        self.rev.push_back(rev_in);
        let fwd_out = self.fwd.pop_front().expect("pipe never empty");
        let rev_out = self.rev.pop_front().expect("pipe never empty");
        self.occupied -= fwd_out.is_some() as usize + rev_out.is_some() as usize;
        if fwd_out.is_some() {
            self.traversals += 1;
        }
        (fwd_out, rev_out)
    }
}

impl Snapshot for Link {
    /// Captures both pipes, the error-injector RNG position, the burst
    /// countdown and the statistics counters. The fault plan and pipe
    /// depth are structural and not stored; `occupied` is recomputed on
    /// load.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.len(self.fwd.len());
        for slot in &self.fwd {
            snap::save_opt_link_flit(w, slot);
        }
        for slot in &self.rev {
            snap::save_opt_acknack(w, slot);
        }
        w.rng(&self.rng);
        w.u64(self.traversals);
        w.u64(self.corrupted);
        w.u64(self.rev_dropped);
        w.u64(self.rev_corrupted);
        w.u32(self.burst_remaining);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let interior = r.len()?;
        if interior != self.fwd.len() {
            return Err(SnapshotError::Malformed(format!(
                "link has {} interior stages, snapshot has {interior}",
                self.fwd.len()
            )));
        }
        for slot in self.fwd.iter_mut() {
            *slot = snap::load_opt_link_flit(r)?;
        }
        for slot in self.rev.iter_mut() {
            *slot = snap::load_opt_acknack(r)?;
        }
        self.rng = r.rng()?;
        self.traversals = r.u64()?;
        self.corrupted = r.u64()?;
        self.rev_dropped = r.u64()?;
        self.rev_corrupted = r.u64()?;
        self.burst_remaining = r.u32()?;
        self.occupied = self.fwd.iter().filter(|s| s.is_some()).count()
            + self.rev.iter().filter(|s| s.is_some()).count();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, FlitKind, FlitMeta};
    use crate::flow_control::{LinkRx, LinkTx};
    use xpipes_sim::{Cycle, FaultKind};

    fn lf(n: u64) -> LinkFlit {
        LinkFlit {
            flit: Flit::new(
                FlitKind::Single,
                n as u128,
                FlitMeta::new(n, Cycle::ZERO, 0),
            ),
            seq: (n % 64) as u8,
            corrupted: false,
        }
    }

    #[test]
    fn zero_stages_clamp_to_one() {
        assert_eq!(Link::new(0, SimRng::seed(1), FaultPlan::none()).stages(), 1);
    }

    #[test]
    fn latency_equals_stages() {
        for stages in [1u32, 2, 4] {
            let mut link = Link::new(stages, SimRng::seed(1), FaultPlan::none());
            let (out, _) = link.shift(Some(lf(7)), None);
            let mut arrived_after = if out.is_some() { 1 } else { 0 };
            let mut t = 1;
            while arrived_after == 0 {
                t += 1;
                let (o, _) = link.shift(None, None);
                if o.is_some() {
                    arrived_after = t;
                }
            }
            assert_eq!(arrived_after, stages, "stages={stages}");
        }
    }

    #[test]
    fn reverse_channel_same_depth() {
        let mut link = Link::new(3, SimRng::seed(1), FaultPlan::none());
        link.shift(None, Some(AckNack { seq: 5, ack: true }));
        link.shift(None, None);
        let (_, rev) = link.shift(None, None);
        assert_eq!(rev, Some(AckNack { seq: 5, ack: true }));
    }

    #[test]
    fn pipelining_sustains_full_rate() {
        let mut link = Link::new(2, SimRng::seed(1), FaultPlan::none());
        let mut arrived = 0;
        for i in 0..10 {
            let (out, _) = link.shift(Some(lf(i)), None);
            if out.is_some() {
                arrived += 1;
            }
        }
        // After the 2-cycle fill, every cycle delivers: 9 of 10.
        assert_eq!(arrived, 9);
        assert_eq!(link.traversals(), 9);
    }

    #[test]
    fn error_injection_rate() {
        let mut link = Link::new(1, SimRng::seed(7), FaultKind::FlitCorruption.plan(0.25));
        let mut corrupt = 0;
        for i in 0..4000 {
            let (out, _) = link.shift(Some(lf(i)), None);
            if out.map(|f| f.corrupted).unwrap_or(false) {
                corrupt += 1;
            }
        }
        assert!((800..1200).contains(&corrupt), "corrupt={corrupt}");
        assert_eq!(link.corrupted(), corrupt);
    }

    #[test]
    fn burst_corruption_corrupts_consecutive_flits() {
        let plan = FaultPlan {
            flit_corruption_rate: 0.05,
            corruption_burst_len: 4,
            ..FaultPlan::none()
        };
        let mut link = Link::new(1, SimRng::seed(21), plan);
        let mut flags = Vec::new();
        for i in 0..4000 {
            let (out, _) = link.shift(Some(lf(i)), None);
            flags.push(out.map(|f| f.corrupted).unwrap_or(false));
        }
        // Every corruption event must extend into a run of 4 (bursts may
        // chain if a fresh draw fires inside one, so runs are >= 4).
        let mut runs = Vec::new();
        let mut cur = 0usize;
        for &f in &flags {
            if f {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        if cur > 0 {
            runs.push(cur);
        }
        assert!(!runs.is_empty());
        assert!(runs.iter().all(|&r| r >= 4), "runs={runs:?}");
        assert_eq!(
            link.corrupted(),
            flags.iter().filter(|&&f| f).count() as u64
        );
    }

    #[test]
    fn reverse_channel_loss_and_corruption_drop_messages() {
        let plan = FaultPlan {
            ack_loss_rate: 0.3,
            ack_corruption_rate: 0.3,
            ..FaultPlan::none()
        };
        let mut link = Link::new(1, SimRng::seed(23), plan);
        let mut arrived = 0u64;
        for i in 0..2000u64 {
            let (_, rev) = link.shift(
                None,
                Some(AckNack {
                    seq: (i % 64) as u8,
                    ack: true,
                }),
            );
            if rev.is_some() {
                arrived += 1;
            }
        }
        assert!(link.rev_dropped() > 0);
        assert!(link.rev_corrupted() > 0);
        assert_eq!(arrived + link.rev_dropped() + link.rev_corrupted(), 2000);
    }

    #[test]
    fn benign_plan_never_touches_reverse_channel() {
        let mut link = Link::new(1, SimRng::seed(5), FaultKind::FlitCorruption.plan(0.5));
        for i in 0..500u64 {
            let (_, rev) = link.shift(
                None,
                Some(AckNack {
                    seq: (i % 64) as u8,
                    ack: false,
                }),
            );
            assert!(rev.is_some());
        }
        assert_eq!(link.rev_dropped(), 0);
        assert_eq!(link.rev_corrupted(), 0);
    }

    #[test]
    fn zero_error_rate_never_corrupts() {
        let mut link = Link::new(1, SimRng::seed(3), FaultPlan::none());
        for i in 0..100 {
            let (out, _) = link.shift(Some(lf(i)), None);
            if let Some(f) = out {
                assert!(!f.corrupted);
            }
        }
    }

    /// Full protocol harness: LinkTx → noisy pipelined link → LinkRx, with
    /// the reverse channel closing the loop. Every flit must arrive
    /// exactly once, in order, despite corruption and receiver stalls.
    fn run_protocol(
        error_rate: f64,
        stall_rate: f64,
        stages: u32,
        count: u64,
        seed: u64,
        max_cycles: u64,
    ) -> Vec<u64> {
        let mut tx = LinkTx::new((2 * stages + 2) as usize, None);
        let mut rx = LinkRx::new();
        let mut link = Link::new(
            stages,
            SimRng::seed(seed),
            FaultKind::FlitCorruption.plan(error_rate),
        );
        let mut stall_rng = SimRng::seed(seed ^ 0xABCD);
        for id in 0..count {
            tx.push(lf(id).flit);
        }
        let mut delivered = Vec::new();
        let mut rev_arrival = None;
        let mut rev_latch: Option<AckNack> = None;
        for _ in 0..max_cycles {
            let fwd_in = tx.transmit(rev_arrival).map(|(lf, _)| lf);
            let (fwd_out, rev_out) = link.shift(fwd_in, rev_latch.take());
            rev_arrival = rev_out;
            if let Some(arrival) = fwd_out {
                let can_accept = !stall_rng.chance(stall_rate);
                let (d, reply) = rx.receive(arrival, can_accept);
                rev_latch = Some(reply);
                if let Some(f) = d {
                    delivered.push(f.meta.packet_id);
                }
            }
            if delivered.len() as u64 == count {
                break;
            }
        }
        delivered
    }

    /// Checkpointing a noisy link mid-flight and restoring into a fresh
    /// instance must continue the exact corruption/drop sequence.
    #[test]
    fn link_snapshot_resumes_error_stream_bit_exactly() {
        let plan = FaultPlan {
            flit_corruption_rate: 0.1,
            corruption_burst_len: 3,
            ack_loss_rate: 0.1,
            ..FaultPlan::none()
        };
        let mut link = Link::new(3, SimRng::seed(99), plan);
        for i in 0..37u64 {
            link.shift(
                Some(lf(i)),
                Some(AckNack {
                    seq: (i % 64) as u8,
                    ack: true,
                }),
            );
        }
        let mut w = SnapshotWriter::new();
        link.save_state(&mut w);
        let bytes = w.finish();
        let mut restored = Link::new(3, SimRng::seed(0), plan);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.is_empty(), link.is_empty());
        for i in 37..400u64 {
            let a = link.shift(Some(lf(i)), Some(AckNack { seq: 0, ack: true }));
            let b = restored.shift(Some(lf(i)), Some(AckNack { seq: 0, ack: true }));
            assert_eq!(a, b, "cycle {i}");
        }
        assert_eq!(link.corrupted(), restored.corrupted());
        assert_eq!(link.rev_dropped(), restored.rev_dropped());
        assert_eq!(link.traversals(), restored.traversals());
    }

    #[test]
    fn link_snapshot_depth_mismatch_rejected() {
        let link = Link::new(4, SimRng::seed(1), FaultPlan::none());
        let mut w = SnapshotWriter::new();
        link.save_state(&mut w);
        let bytes = w.finish();
        let mut other = Link::new(2, SimRng::seed(1), FaultPlan::none());
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            other.load_state(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn protocol_delivers_in_order_lossless() {
        let got = run_protocol(0.0, 0.0, 2, 50, 11, 10_000);
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn protocol_survives_errors() {
        let got = run_protocol(0.2, 0.0, 2, 50, 13, 100_000);
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn protocol_survives_stalls() {
        let got = run_protocol(0.0, 0.4, 3, 50, 17, 100_000);
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn protocol_survives_errors_and_stalls() {
        let got = run_protocol(0.15, 0.3, 2, 40, 19, 200_000);
        assert_eq!(got, (0..40).collect::<Vec<_>>());
    }
}
