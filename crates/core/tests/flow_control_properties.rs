//! Property-based tests on the [`LinkTx`]/[`LinkRx`] pair over a faulty
//! pipelined link: whatever the corruption and ACK-loss rates, the
//! delivered stream is always an exact in-order exactly-once prefix of
//! the injected stream, and at tolerated rates the whole stream
//! completes.

use proptest::prelude::*;

use xpipes::flow_control::{default_ack_timeout, LinkRx, LinkTx};
use xpipes::link::Link;
use xpipes::{Flit, FlitKind, FlitMeta};
use xpipes_sim::{Cycle, FaultPlan, SimRng};

/// One end-to-end simulation: `total` distinct flits pushed through a
/// sender → faulty link → receiver loop for at most `budget` cycles.
/// Returns the payload ids the receiver accepted, in acceptance order.
fn drive(
    total: u64,
    stages: u32,
    corruption: f64,
    ack_loss: f64,
    seed: u64,
    budget: u64,
) -> Vec<u64> {
    let capacity = 2 * stages as usize + 2;
    let mut tx = LinkTx::new(capacity, Some(default_ack_timeout(capacity)));
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
    let mut rev_arrival = None;
    let mut reply = None;
    for _ in 0..budget {
        let fwd = tx.transmit(rev_arrival);
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
    delivered
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
        let delivered = drive(total, stages, corruption, ack_loss, seed, 20_000);
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
        let delivered = drive(total, stages, corruption, ack_loss, seed, 60_000);
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
        let delivered = drive(total, stages, 0.0, 0.0, seed, budget);
        prop_assert_eq!(delivered.len() as u64, total);
    }
}
