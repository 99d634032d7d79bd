//! Property-based tests on the [`LinkTx`]/[`LinkRx`] pair over a faulty
//! pipelined link: whatever the corruption and ACK-loss rates, the
//! delivered stream is always an exact in-order exactly-once prefix of
//! the injected stream, at tolerated rates the whole stream completes,
//! and the sender's word on each flit (first send or resend) agrees
//! with its counters and with the flits it has sent before.

use proptest::prelude::*;

use xpipes::flow_control::{default_ack_timeout, FlowSabotage, LinkRx, LinkTx};
use xpipes::link::Link;
use xpipes::{Flit, FlitKind, FlitMeta};
use xpipes_sim::{Cycle, FaultPlan, SimRng};

/// What one run of [`drive`] observed.
struct Run {
    /// Payload ids the receiver accepted, in acceptance order.
    delivered: Vec<u64>,
    /// Per flit driven onto the link: its payload id, whether the
    /// sender called it a first send, and whether its retransmission
    /// counter rose in that cycle.
    sends: Vec<(u64, bool, bool)>,
    /// The sender's `sent() - retransmissions()` at the end.
    new_sent: u64,
}

/// One end-to-end simulation: `total` distinct flits pushed through a
/// sender (with an optional planted defect) → faulty link → receiver
/// loop for at most `budget` cycles.
fn drive(
    total: u64,
    stages: u32,
    corruption: f64,
    ack_loss: f64,
    seed: u64,
    budget: u64,
    sabotage: Option<FlowSabotage>,
) -> Run {
    let capacity = 2 * stages as usize + 2;
    let mut tx = LinkTx::new(capacity, Some(default_ack_timeout(capacity)));
    if let Some(mode) = sabotage {
        tx.sabotage(mode);
    }
    let mut rx = LinkRx::new();
    let plan = FaultPlan {
        flit_corruption_rate: corruption,
        ack_loss_rate: ack_loss,
        ..FaultPlan::none()
    };
    let mut link = Link::new(stages, SimRng::seed(seed), plan);

    for id in 0..total {
        tx.push(Flit::new(
            FlitKind::Single,
            u128::from(id),
            FlitMeta::new(id, Cycle::ZERO, 0),
        ));
    }
    let mut delivered = Vec::new();
    let mut sends = Vec::new();
    let mut rev_arrival = None;
    let mut reply = None;
    for _ in 0..budget {
        let retransmissions = tx.retransmissions();
        let out = tx.transmit(rev_arrival);
        let rose = tx.retransmissions() > retransmissions;
        match out {
            Some((lf, new)) => sends.push((lf.flit.bits as u64, new, rose)),
            None => assert!(!rose, "retransmission counted without a flit"),
        }
        let fwd = out.map(|(lf, _)| lf);
        let (fwd_arrival, rev_out) = link.shift(fwd, reply.take());
        rev_arrival = rev_out;
        if let Some(lf) = fwd_arrival {
            let (accepted, r) = rx.receive(lf, true);
            if let Some(flit) = accepted {
                delivered.push(flit.bits as u64);
            }
            reply = Some(r);
        }
        if delivered.len() as u64 == total && tx.in_flight() == 0 {
            break;
        }
    }
    Run {
        delivered,
        sends,
        new_sent: tx.sent() - tx.retransmissions(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Safety at any fault intensity: the receiver's accepted stream is
    /// exactly `0..n` in order — no loss inside the prefix, no
    /// duplicate, no reordering — even when the run does not complete
    /// within the budget.
    #[test]
    fn delivery_is_an_exact_in_order_prefix(
        total in 1u64..48,
        stages in 1u32..4,
        corruption in 0.0f64..0.35,
        ack_loss in 0.0f64..0.25,
        seed in 0u64..1 << 48,
    ) {
        let delivered = drive(total, stages, corruption, ack_loss, seed, 20_000, None).delivered;
        prop_assert!(delivered.len() as u64 <= total);
        for (i, id) in delivered.iter().enumerate() {
            prop_assert_eq!(*id, i as u64, "delivery out of order at {}", i);
        }
    }

    /// Liveness at tolerated rates: the paper's retransmission layer
    /// pushes every flit through a moderately faulty link, given cycles.
    #[test]
    fn moderate_fault_rates_still_complete(
        total in 1u64..32,
        stages in 1u32..4,
        corruption in 0.0f64..0.10,
        ack_loss in 0.0f64..0.05,
        seed in 0u64..1 << 48,
    ) {
        let delivered = drive(total, stages, corruption, ack_loss, seed, 60_000, None).delivered;
        prop_assert_eq!(delivered.len() as u64, total, "stream did not complete");
    }

    /// A fault-free link needs no retransmission budget at all: the
    /// stream completes in roughly pipeline-depth + window time.
    #[test]
    fn clean_link_completes_quickly(
        total in 1u64..32,
        stages in 1u32..4,
        seed in 0u64..1 << 48,
    ) {
        let budget = 4 * (total + u64::from(stages) + 4);
        let delivered = drive(total, stages, 0.0, 0.0, seed, budget, None).delivered;
        prop_assert_eq!(delivered.len() as u64, total);
    }

    /// The sender's answer is the truth the observers take: over any
    /// fault schedule, with or without a planted defect, it says
    /// `new` exactly `sent() - retransmissions()` times, says `resend`
    /// exactly in the cycles its retransmission counter rises, and says
    /// `new` for each flit the first time that flit goes out — also
    /// under `ReuseSequence`, where sequence numbers cannot tell.
    #[test]
    fn sender_answer_matches_its_counters(
        total in 1u64..32,
        stages in 1u32..4,
        corruption in 0.0f64..0.3,
        ack_loss in 0.0f64..0.2,
        seed in 0u64..1 << 48,
        mode in 0usize..4,
    ) {
        let sabotage = [
            None,
            Some(FlowSabotage::ReuseSequence),
            Some(FlowSabotage::DropOnNack),
            Some(FlowSabotage::SkipRetransmission),
        ][mode];
        let run = drive(total, stages, corruption, ack_loss, seed, 4_000, sabotage);
        let news = run.sends.iter().filter(|&&(_, new, _)| new).count() as u64;
        prop_assert_eq!(news, run.new_sent);
        let mut seen = std::collections::BTreeSet::new();
        for &(id, new, rose) in &run.sends {
            prop_assert_eq!(new, !rose, "answer and counter disagree on flit {}", id);
            prop_assert_eq!(new, seen.insert(id), "flit {} first sent as a resend", id);
        }
    }
}
