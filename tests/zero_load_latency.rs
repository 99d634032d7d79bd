//! A zero-load latency oracle that shares no code with the cycle kernel.
//!
//! On an idle fabric a transaction's cycle count is a closed form of the
//! route and the packet sizes, which is the paper's structural latency
//! claim. The head flit crosses the injection link (1 cycle), every
//! switch on the route (`2 + extra_switch_stages` cycles), every
//! inter-switch link (its pipeline depth) and the ejection link
//! (1 cycle); the tail follows `flits - 1` cycles behind at one flit a
//! cycle. A round trip adds the target's access latency, one turn-around
//! cycle and the response packet on the reverse route. The form reads a
//! `NocSpec` only; the proptest checks it against single-transaction
//! simulations over every topology builder.

use proptest::prelude::*;

use xpipes::noc::Noc;
use xpipes_ocp::transaction::RequestBuilder;
use xpipes_ocp::{MCmd, Request, SlaveMemory};
use xpipes_topology::builders;
use xpipes_topology::{NiId, NiKind, NocSpec, SwitchId, Topology};

/// Width of the packet header register in bits.
const HEADER_BITS: u32 = 63;
/// Width of an NI's OCP data register (one beat) in bits.
const DATA_BITS: u32 = 32;

/// Cycles from injecting a packet of `beats` payload registers at NI
/// `from` until its tail flit is delivered at NI `to`.
fn one_way(spec: &NocSpec, from: NiId, to: NiId, beats: u32) -> u64 {
    let w = spec.flit_width;
    let flits = HEADER_BITS.div_ceil(w) + beats * DATA_BITS.div_ceil(w);
    let tables = spec.routing_tables().expect("routable");
    let hops = tables.route(from, to).expect("route").hops();
    let topo = &spec.topology;
    let mut at = topo.ni(from).expect("NI").switch;
    let mut link_cycles = 0;
    // Every hop but the last leaves on an inter-switch link; the last
    // port ejects into the destination NI.
    for port in &hops[..hops.len() - 1] {
        let link = topo
            .links()
            .iter()
            .find(|l| l.from == at && l.from_port == *port)
            .expect("route follows links");
        link_cycles += u64::from(link.pipeline_stages);
        at = link.to;
    }
    let switch_cycles = hops.len() as u64 * u64::from(2 + spec.extra_switch_stages);
    1 + switch_cycles + link_cycles + 1 + u64::from(flits - 1)
}

/// The transactions the oracle covers: a posted `Write` is timed one way,
/// a `WriteNonPost` round-trips a header-only response and a `Read` a
/// `burst`-beat one.
#[derive(Debug, Clone, Copy)]
enum Txn {
    Write,
    WriteNonPost,
    Read,
}

/// The closed form: `Write` is one way, the others a round trip.
fn oracle(spec: &NocSpec, ini: NiId, tgt: NiId, txn: Txn, burst: u32, latency: u64) -> u64 {
    let round_trip =
        |req, resp| one_way(spec, ini, tgt, req) + latency + 1 + one_way(spec, tgt, ini, resp);
    match txn {
        Txn::Write => one_way(spec, ini, tgt, 1 + burst),
        Txn::WriteNonPost => round_trip(1 + burst, 0),
        Txn::Read => round_trip(1, burst),
    }
}

/// One of the six builders at a small size chosen by `size`.
fn build(kind: u8, size: usize) -> Topology {
    match kind {
        0 => builders::mesh(1 + size % 4, 1 + size / 4 % 3)
            .unwrap()
            .into_topology(),
        1 => builders::torus(3 + size % 2, 3).unwrap().into_topology(),
        2 => builders::ring(2 + size % 7).unwrap(),
        3 => builders::star(1 + size % 6).unwrap(),
        4 => builders::spidergon(4 + 2 * (size % 3)).unwrap(),
        _ => builders::tree(2 + size % 2, 1 + size % 3).unwrap(),
    }
}

/// Simulates one transaction on an idle network and returns the latency
/// its statistics record.
fn simulate(spec: &NocSpec, ini: NiId, tgt: NiId, txn: Txn, burst: u32, latency: u64) -> u64 {
    let mut noc = Noc::new(spec).expect("assembles");
    *noc.memory_mut(tgt).expect("target") = SlaveMemory::new(latency);
    let data = vec![0x5A; burst as usize];
    let req = match txn {
        Txn::Write => Request::write(0, data),
        Txn::WriteNonPost => RequestBuilder::new(MCmd::WriteNonPost, 0)
            .data(data)
            .build(),
        Txn::Read => Request::read(0, burst),
    };
    noc.submit(ini, req.expect("valid request"))
        .expect("mapped");
    assert!(noc.run_until_idle(100_000), "network drains");
    let stats = noc.stats();
    let latency = match txn {
        Txn::Write => stats.request_latency,
        Txn::WriteNonPost | Txn::Read => stats.transaction_latency,
    };
    assert_eq!(latency.count(), 1);
    latency.mean() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn zero_load_latency_matches_the_closed_form(
        kind in 0u8..6,
        size in 0usize..12,
        placement in (0usize..64, 0usize..64),
        flit_width in 16u32..=128,
        link_stages in 1u32..=3,
        extra_switch_stages in 0u32..=5,
        txn in prop_oneof![Just(Txn::Write), Just(Txn::WriteNonPost), Just(Txn::Read)],
        burst in 1u32..=16,
        target_latency in 0u64..=40,
    ) {
        let mut topo = build(kind, size);
        for link in topo.links_mut() {
            link.pipeline_stages = link_stages;
        }
        let n = topo.switch_count();
        let ini = topo
            .attach_ni_auto("ini", NiKind::Initiator, SwitchId(placement.0 % n))
            .expect("free port");
        let tgt = topo
            .attach_ni_auto("tgt", NiKind::Target, SwitchId(placement.1 % n))
            .expect("free port");
        let mut spec = NocSpec::new("zero-load", topo);
        spec.flit_width = flit_width;
        spec.extra_switch_stages = extra_switch_stages;
        spec.map_address(tgt, 0, 1 << 16).expect("maps");

        let expected = oracle(&spec, ini, tgt, txn, burst, target_latency);
        let measured = simulate(&spec, ini, tgt, txn, burst, target_latency);
        prop_assert_eq!(measured, expected, "{:?} burst {} on {}-switch builder {}", txn, burst, n, kind);
    }
}
