//! Property-based tests on the switch: wormhole integrity, conservation,
//! and arbitration fairness under randomized traffic.

use std::collections::VecDeque;

use proptest::prelude::*;

use xpipes::config::SwitchConfig;
use xpipes::flow_control::{AckNack, LinkFlit};
use xpipes::header::Header;
use xpipes::switch::Switch;
use xpipes::{Flit, FlitKind, FlitMeta};
use xpipes_ocp::{MCmd, Sideband, ThreadId};
use xpipes_sim::Cycle;
use xpipes_topology::route::SourceRoute;
use xpipes_topology::spec::Arbitration;
use xpipes_topology::PortId;

/// Builds the flit sequence of one packet headed for `out_port`.
fn packet(id: u64, out_port: u8, body: usize) -> Vec<Flit> {
    let route = SourceRoute::new(vec![PortId(out_port)]).expect("valid port");
    let header = Header::request(&route, 0, MCmd::Write, 1, ThreadId(0), 0, Sideband::NONE)
        .expect("valid header");
    let meta = FlitMeta::new(id, Cycle::ZERO, 0);
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

/// Drives a switch with per-input feeds until everything drains (or the
/// cycle budget runs out); returns the flits emitted per output.
fn drive(
    sw: &mut Switch,
    mut feeds: Vec<VecDeque<Flit>>,
    outputs: usize,
    max_cycles: usize,
) -> Vec<Vec<Flit>> {
    let mut seqs = vec![0u8; feeds.len()];
    let mut collected = vec![Vec::new(); outputs];
    for _ in 0..max_cycles {
        #[allow(clippy::needless_range_loop)]
        for o in 0..outputs {
            if let Some((lf, _)) = sw.transmit(o, None) {
                // Ideal sink: ack immediately via the same-port reply.
                collected[o].push(lf.flit);
                sw.transmit(
                    o,
                    Some(AckNack {
                        seq: lf.seq,
                        ack: true,
                    }),
                );
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
        if feeds.iter().all(VecDeque::is_empty) && sw.is_idle() {
            break;
        }
    }
    collected
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
        let mut sw = Switch::new(cfg);
        let mut feeds = vec![VecDeque::new(), VecDeque::new(), VecDeque::new()];
        let mut expected: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for (id, &(input, output, body)) in plans.iter().enumerate() {
            let flits = packet(id as u64, output, body);
            expected[output as usize].push(id as u64);
            feeds[input].extend(flits);
        }
        let out = drive(&mut sw, feeds, 3, 5_000);
        prop_assert!(sw.is_idle(), "switch must drain");
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
        let mut sw = Switch::new(SwitchConfig::new(4, 2, 32));
        let mut feeds = vec![VecDeque::new(), VecDeque::new(), VecDeque::new(), VecDeque::new()];
        for (id, &(input, body)) in plans.iter().enumerate() {
            feeds[input].extend(packet(id as u64, 0, body));
        }
        let out = drive(&mut sw, feeds, 2, 5_000);
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
        let mut arb = xpipes::Arbiter::new(Arbitration::RoundRobin, inputs);
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
        let mut arb = xpipes::Arbiter::new(policy, inputs);
        for _ in 0..spins {
            if let Some(g) = arb.grant(requests) {
                prop_assert!(g < inputs && (requests >> g) & 1 == 1);
            } else {
                prop_assert_eq!(requests, 0);
            }
        }
    }
}
