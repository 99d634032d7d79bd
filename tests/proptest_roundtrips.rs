//! Property-based tests on the protocol codecs and data structures:
//! packetization, header encoding, source routes, ACK/nACK delivery and
//! the spec text format.

use proptest::prelude::*;

use xpipes::flow_control::{LinkRx, LinkTx};
use xpipes::header::Header;
use xpipes::link::Link;
use xpipes::packet::{depacketize, packetize, Packet};
use xpipes::{Flit, FlitKind, FlitMeta};
use xpipes_compiler::{parse_spec, print_spec};
use xpipes_ocp::{BurstSeq, MCmd, SResp, Sideband, ThreadId};
use xpipes_sim::{Cycle, FaultKind, SimRng};
use xpipes_topology::route::SourceRoute;
use xpipes_topology::PortId;

fn arb_route() -> impl Strategy<Value = SourceRoute> {
    prop::collection::vec(0u8..=15, 1..=7).prop_map(|hops| {
        SourceRoute::new(hops.into_iter().map(PortId).collect()).expect("valid hops")
    })
}

fn arb_request_header() -> impl Strategy<Value = Header> {
    (
        arb_route(),
        0u8..=63,
        prop_oneof![
            Just(MCmd::Write),
            Just(MCmd::Read),
            Just(MCmd::ReadEx),
            Just(MCmd::WriteNonPost)
        ],
        1u8..=255,
        0u8..=15,
        0u8..=15,
        any::<bool>(),
        0u8..=15,
        prop_oneof![
            Just(BurstSeq::Incr),
            Just(BurstSeq::Wrap),
            Just(BurstSeq::Stream)
        ],
    )
        .prop_map(
            |(route, src, cmd, burst, thread, tag, interrupt, flags, seq)| {
                Header::request(
                    &route,
                    src,
                    cmd,
                    burst,
                    ThreadId(thread),
                    tag,
                    Sideband { interrupt, flags },
                )
                .expect("fields in range")
                .with_burst_seq(seq)
            },
        )
}

fn arb_response_header() -> impl Strategy<Value = Header> {
    (
        arb_route(),
        0u8..=63,
        prop_oneof![Just(SResp::Dva), Just(SResp::Fail), Just(SResp::Err)],
        1u8..=255,
        0u8..=15,
        0u8..=15,
    )
        .prop_map(|(route, src, resp, burst, thread, tag)| {
            Header::response(
                &route,
                src,
                resp,
                burst,
                ThreadId(thread),
                tag,
                Sideband::NONE,
            )
            .expect("fields in range")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn header_encode_decode_roundtrip(h in arb_request_header()) {
        let bits = h.encode();
        prop_assert!(bits < (1u64 << Header::TOTAL_BITS));
        prop_assert_eq!(Header::decode(bits).expect("valid image"), h);
    }

    #[test]
    fn response_header_roundtrip(h in arb_response_header()) {
        prop_assert_eq!(Header::decode(h.encode()).expect("valid image"), h);
    }

    #[test]
    fn route_encode_consume_matches_hops(route in arb_route()) {
        let mut bits = route.encode();
        for hop in route.hops() {
            let (port, rest) = SourceRoute::consume(bits);
            prop_assert_eq!(port, *hop);
            bits = rest;
        }
    }

    #[test]
    fn route_decode_inverts_encode(route in arb_route()) {
        prop_assert_eq!(SourceRoute::decode(route.encode(), route.hops().len()), route);
    }

    #[test]
    fn packetize_depacketize_roundtrip(
        h in arb_request_header(),
        addr in 0u64..(1 << 32),
        payload in prop::collection::vec(0u64..(1 << 32), 0..12),
        flit_width in prop_oneof![Just(16u32), Just(24), Just(32), Just(64), Just(128)],
    ) {
        let packet = Packet::new(7, h, Some(addr), payload);
        let flits: Vec<_> =
            packetize(&packet, flit_width, 32, Cycle::ZERO).expect("encodable").collect();
        prop_assert_eq!(flits.len(), packet.flit_count(flit_width, 32));
        let back = depacketize(&flits, flit_width, 32).expect("decodable");
        prop_assert_eq!(back, packet);
    }

    #[test]
    fn response_packets_roundtrip(
        h in arb_response_header(),
        payload in prop::collection::vec(0u64..(1 << 32), 0..12),
        flit_width in prop_oneof![Just(16u32), Just(32), Just(128)],
    ) {
        let packet = Packet::new(9, h, None, payload);
        let flits: Vec<_> =
            packetize(&packet, flit_width, 32, Cycle::ZERO).expect("encodable").collect();
        let back = depacketize(&flits, flit_width, 32).expect("decodable");
        prop_assert_eq!(back, packet);
    }

    /// The ACK/nACK protocol delivers every flit exactly once, in order,
    /// across a pipelined link with arbitrary error and stall behaviour.
    #[test]
    fn acknack_delivers_exactly_once_in_order(
        error_rate in 0.0f64..0.3,
        stall_rate in 0.0f64..0.4,
        stages in 1u32..4,
        count in 1u64..40,
        seed in 0u64..1000,
    ) {
        let mut tx = LinkTx::new((2 * stages + 2) as usize, None);
        let mut rx = LinkRx::new();
        let mut link = Link::new(
            stages,
            SimRng::seed(seed),
            FaultKind::FlitCorruption.plan(error_rate),
        );
        let mut stall_rng = SimRng::seed(seed ^ 0xFACE);
        for id in 0..count {
            tx.push(Flit::new(
                FlitKind::Single,
                id as u128,
                FlitMeta::new(id, Cycle::ZERO, 0),
            ));
        }
        let mut delivered: Vec<u64> = Vec::new();
        let mut rev_arrival = None;
        let mut rev_latch = None;
        // Generous budget: go-back-N under 30% errors is chatty.
        for _ in 0..400_000 {
            let sent = tx.transmit(rev_arrival).map(|(lf, _)| lf);
            let (fwd, rev) = link.shift(sent, rev_latch.take());
            rev_arrival = rev;
            if let Some(arrival) = fwd {
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
        prop_assert_eq!(&delivered, &(0..count).collect::<Vec<_>>());
    }

    /// The spec text format round-trips arbitrary small line topologies.
    #[test]
    fn spec_text_roundtrip(
        switches in 2usize..6,
        flit_width in prop_oneof![Just(16u32), Just(32), Just(64)],
        stages in 1u32..4,
        queue in 2u32..10,
    ) {
        let mut text = format!("noc p {{\n  flit_width {flit_width}\n  queue_depth {queue}\n");
        for i in 0..switches {
            text.push_str(&format!("  switch s{i}\n"));
        }
        for i in 0..switches - 1 {
            text.push_str(&format!("  link s{i}.0 <-> s{}.1 stages {stages}\n", i + 1));
        }
        text.push_str("  initiator cpu @ s0.2\n");
        text.push_str(&format!(
            "  target mem @ s{}.2 base 0x0 size 0x1000\n}}\n",
            switches - 1
        ));
        let spec = parse_spec(&text).expect("generated text parses");
        prop_assert!(spec.validate().is_ok());
        let printed = print_spec(&spec);
        let reparsed = parse_spec(&printed).expect("printed text parses");
        prop_assert_eq!(print_spec(&reparsed), printed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Checkpoint correctness leans on exact RNG stream positions: a
    /// generator rebuilt from its exported state must continue the draw
    /// stream bit-exactly, from any position and for any draw mix.
    #[test]
    fn rng_state_roundtrip_resumes_the_stream(
        seed in any::<u64>(),
        warmup in 0usize..200,
        draws in 1usize..100,
    ) {
        let mut rng = SimRng::seed(seed);
        for _ in 0..warmup {
            rng.next_u64();
        }
        let state = rng.state();
        let mut resumed = SimRng::from_state(state);
        for _ in 0..draws {
            prop_assert_eq!(rng.next_u64(), resumed.next_u64());
        }
        // Exporting again from the resumed copy is stable.
        prop_assert_eq!(rng.state(), resumed.state());
    }

    /// Child streams derived from one master seed never correlate: two
    /// children with distinct stream ids produce different draw
    /// sequences, and each is independent of how far its siblings have
    /// advanced.
    #[test]
    fn rng_child_streams_are_independent(
        seed in any::<u64>(),
        stream_a in 0u64..1000,
        offset in 1u64..1000,
        sibling_draws in 0usize..100,
    ) {
        let master = SimRng::seed(seed);
        let stream_b = stream_a + offset;

        // Distinct ids → distinct streams.
        let a: Vec<u64> = {
            let mut r = master.child(stream_a);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = master.child(stream_b);
            (0..16).map(|_| r.next_u64()).collect()
        };
        prop_assert_ne!(&a, &b, "distinct child streams must not collide");

        // A child's draws do not depend on sibling activity.
        let mut sibling = master.child(stream_b);
        for _ in 0..sibling_draws {
            sibling.next_u64();
        }
        let mut again = master.child(stream_a);
        let replay: Vec<u64> = (0..16).map(|_| again.next_u64()).collect();
        prop_assert_eq!(a, replay, "child stream must be a pure function of (seed, id)");
    }
}
