//! OCP compliance at the network boundary: the initiator NI's contract,
//! checked on the `Response`s it hands back to the core. Each non-posted
//! request gets exactly one `Dva` response on its own thread and OCP tag,
//! carrying the data the test wrote or poked; a posted write gets none;
//! nothing is outstanding once the network drains; and a sideband
//! interrupt is counted, never taken for a response.

use proptest::prelude::*;

use xpipes::noc::Noc;
use xpipes_ocp::transaction::RequestBuilder;
use xpipes_ocp::{BurstSeq, MCmd, Request, SResp, SlaveMemory, ThreadId};
use xpipes_repro::{test_platform, window_base};
use xpipes_topology::NiId;

/// Responses each initiator (by index) still awaits: thread, OCP tag and
/// read data (empty for a non-posted write's acknowledgement).
type Awaited = Vec<Vec<(ThreadId, u8, Vec<u64>)>>;

/// Submits every `(initiator index, request, read data it must return)`
/// and records the response each non-posted request is owed.
fn submit_all(noc: &mut Noc, cpus: &[NiId], txs: Vec<(usize, Request, Vec<u64>)>) -> Awaited {
    let mut awaited = vec![Vec::new(); cpus.len()];
    for (cpu, req, data) in txs {
        if req.expects_response() {
            awaited[cpu].push((req.thread(), req.tag(), data));
        }
        noc.submit(cpus[cpu], req).expect("mapped");
    }
    awaited
}

/// Drains the network and pairs every response the initiators return
/// with exactly one awaited transaction; an unpaired response, a
/// non-`Dva` code or an unanswered transaction is an error.
fn drain_and_pair(noc: &mut Noc, cpus: &[NiId], mut awaited: Awaited) -> Result<(), String> {
    if !noc.run_until_idle(100_000) {
        return Err("network did not drain".into());
    }
    for (i, &cpu) in cpus.iter().enumerate() {
        while let Some(resp) = noc.take_response(cpu).expect("initiator") {
            if resp.resp() != SResp::Dva {
                return Err(format!("cpu{i}: {} response {resp:?}", resp.resp()));
            }
            let owed = &mut awaited[i];
            let paired = owed.iter().position(|(thread, tag, data)| {
                *thread == resp.thread() && *tag == resp.tag() && data == resp.data()
            });
            let Some(at) = paired else {
                return Err(format!("cpu{i}: {resp:?} pairs with no transaction"));
            };
            owed.swap_remove(at);
        }
        if !awaited[i].is_empty() {
            return Err(format!("cpu{i}: unanswered {:?}", awaited[i]));
        }
    }
    Ok(())
}

#[test]
fn mixed_traffic_is_protocol_clean() {
    let (spec, cpus, mems) = test_platform(2).expect("platform");
    let mut noc = Noc::new(&spec).expect("instantiates");
    noc.memory_mut(mems[1]).expect("target").poke(0x100, 0x77);
    let req = RequestBuilder::new;
    let txs = vec![
        (
            0,
            Request::write(window_base(0), vec![1, 2, 3]).expect("valid"),
            vec![],
        ),
        // Same initiator, same route: the read sees the posted write.
        (
            0,
            req(MCmd::Read, window_base(0))
                .burst_len(3)
                .tag(1)
                .build()
                .expect("valid"),
            vec![1, 2, 3],
        ),
        (
            1,
            Request::write(window_base(1) + 0x40, vec![9]).expect("valid"),
            vec![],
        ),
        (
            1,
            req(MCmd::WriteNonPost, window_base(1) + 0x80)
                .data(vec![5, 6])
                .tag(3)
                .build()
                .expect("valid"),
            vec![],
        ),
        (
            0,
            req(MCmd::Read, window_base(1) + 0x100)
                .thread(ThreadId(1))
                .tag(7)
                .build()
                .expect("valid"),
            vec![0x77],
        ),
    ];
    let awaited = submit_all(&mut noc, &cpus, txs);
    assert_eq!(drain_and_pair(&mut noc, &cpus, awaited), Ok(()));
    let mem1 = noc.memory(mems[1]).expect("target");
    assert_eq!([0x40, 0x80, 0x88].map(|a| mem1.peek(a)), [9, 5, 6]);
}

#[test]
fn threaded_transactions_complete_per_thread() {
    let (spec, cpus, mems) = test_platform(2).expect("platform");
    let mut noc = Noc::new(&spec).expect("instantiates");
    // Two threads issue interleaved reads; the thread ids must survive
    // the round trip (the paper's "supports threading extensions").
    let mut txs = Vec::new();
    for t in 0..2u8 {
        for i in 0..3u64 {
            let offset = u64::from(t) * 64 + i * 8;
            let value = 0x500 + offset;
            noc.memory_mut(mems[0]).expect("target").poke(offset, value);
            let req = RequestBuilder::new(MCmd::Read, window_base(0) + offset)
                .burst_len(1)
                .thread(ThreadId(t))
                .tag((t * 4 + i as u8) % 16)
                .build()
                .expect("valid");
            txs.push((0, req, vec![value]));
        }
    }
    let awaited = submit_all(&mut noc, &cpus, txs);
    assert_eq!(drain_and_pair(&mut noc, &cpus, awaited), Ok(()));
}

#[test]
fn wrap_burst_round_trips_through_the_network() {
    let (spec, cpus, mems) = test_platform(2).expect("platform");
    let mut noc = Noc::new(&spec).expect("instantiates");
    // Preload a wrap-aligned line in target 0.
    for i in 0..4u64 {
        noc.memory_mut(mems[0])
            .expect("target")
            .poke(0x100 + i * 8, 0x70 + i);
    }
    // Critical-word-first read starting mid-line: wrap order preserved
    // end to end.
    let req = RequestBuilder::new(MCmd::Read, window_base(0) + 0x110)
        .burst_len(4)
        .burst_seq(BurstSeq::Wrap)
        .tag(9)
        .build()
        .expect("valid");
    let awaited = submit_all(
        &mut noc,
        &cpus,
        vec![(0, req, vec![0x72, 0x73, 0x70, 0x71])],
    );
    assert_eq!(drain_and_pair(&mut noc, &cpus, awaited), Ok(()));
}

#[test]
fn sideband_flags_travel_with_requests() {
    let (spec, cpus, mems) = test_platform(2).expect("platform");
    let mut noc = Noc::new(&spec).expect("instantiates");
    let req = RequestBuilder::new(MCmd::Write, window_base(0))
        .data(vec![1])
        .sideband(xpipes_ocp::Sideband {
            interrupt: false,
            flags: 0b1010,
        })
        .build()
        .expect("valid");
    let awaited = submit_all(&mut noc, &cpus, vec![(0, req, vec![])]);
    // A posted write gets no response, flags or not.
    assert_eq!(drain_and_pair(&mut noc, &cpus, awaited), Ok(()));
    // The flags rode the header; delivery implies the codec carried them
    // (unit tests check bit-exactness; here we check the write landed).
    assert_eq!(noc.memory(mems[0]).expect("target").peek(0), 1);
}

/// Regression: with all 16 transaction tags held, an interrupt packet
/// (header tag 15) once completed the read holding tag 15 with an empty
/// response, and the read's real response was dropped on arrival.
#[test]
fn interrupt_with_every_tag_held_completes_no_transaction() {
    let (spec, cpus, mems) = test_platform(2).expect("platform");
    let mut noc = Noc::new(&spec).expect("instantiates");
    let mut txs = Vec::new();
    for i in 0..16u8 {
        let offset = u64::from(i) * 8;
        let value = 0xA0 + u64::from(i);
        noc.memory_mut(mems[0]).expect("target").poke(offset, value);
        let req = RequestBuilder::new(MCmd::Read, window_base(0) + offset)
            .tag(i)
            .build()
            .expect("valid");
        txs.push((0, req, vec![value]));
    }
    let awaited = submit_all(&mut noc, &cpus, txs);
    noc.run(3);
    noc.raise_interrupt(mems[0], cpus[0]).expect("routable");
    assert_eq!(drain_and_pair(&mut noc, &cpus, awaited), Ok(()));
    assert_eq!(noc.pending_interrupts(cpus[0]).expect("initiator"), 1);
}

/// One drawn transaction: command (0 read, 1 posted write, 2 non-posted
/// write), thread, OCP tag, burst length, wrap burst, target index and a
/// word slot.
type Draw = (u8, u8, u8, u32, bool, usize, u64);

/// Reads stay in each target's first 4 KiB, which the test pokes and no
/// write touches; write `k` of initiator `c` owns the 256-byte slot
/// `WRITES + (c·24 + k)·0x100`, whose wrap span cannot leave it.
const WRITES: u64 = 0x1_0000;

/// Initiator `cpu`'s `k`-th drawn request, addressed at `base` plus its
/// offset in the target's window.
fn draw_request(cpu: usize, k: usize, d: Draw, base: u64) -> Request {
    let (cmd, thread, tag, burst, wrap, _, slot) = d;
    let seq = if wrap { BurstSeq::Wrap } else { BurstSeq::Incr };
    let builder = |cmd, offset| {
        RequestBuilder::new(cmd, base + offset)
            .thread(ThreadId(thread))
            .tag(tag)
            .burst_seq(seq)
    };
    let data = || (0..u64::from(burst)).map(|b| (slot << 8) ^ b).collect();
    let write_at = WRITES + (cpu as u64 * 24 + k as u64) * 0x100 + 0x80 + slot % 4 * 8;
    match cmd {
        0 => builder(MCmd::Read, 32 + slot * 8).burst_len(burst).build(),
        1 => builder(MCmd::Write, write_at).data(data()).build(),
        _ => builder(MCmd::WriteNonPost, write_at).data(data()).build(),
    }
    .expect("drawn request is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random reads, posted and non-posted writes on two threads, with
    /// reused OCP tags, bursts of 1–4 and more transactions than tags,
    /// plus up to three interrupts: every transaction pairs as the NI's
    /// contract says, every write lands, every interrupt is counted.
    #[test]
    fn ni_keeps_its_ocp_contract(
        draws in prop::collection::vec(
            prop::collection::vec(
                (0u8..3, 0u8..=1, 0u8..=15, 1u32..=4, any::<bool>(), 0usize..=1, 0u64..=480),
                1..=24,
            ),
            2,
        ),
        interrupts in prop::collection::vec((0u64..=60, 0usize..=1, 0usize..=1), 0..=3),
    ) {
        let (spec, cpus, mems) = test_platform(2).expect("platform");
        let mut noc = Noc::new(&spec).expect("instantiates");
        // A mirror memory per target gives each read its data and each
        // written word its final value.
        let mut mirrors = vec![SlaveMemory::new(0); mems.len()];
        for (mem, mirror) in mems.iter().zip(&mut mirrors) {
            for word in 0..512u64 {
                let value = 0xC0DE_0000 + word;
                noc.memory_mut(*mem).expect("target").poke(word * 8, value);
                mirror.poke(word * 8, value);
            }
        }
        let mut txs = Vec::new();
        for (cpu, list) in draws.into_iter().enumerate() {
            for (k, d) in list.into_iter().enumerate() {
                // The target sees the offset into its window.
                let local = draw_request(cpu, k, d, 0);
                let resp = mirrors[d.5].execute(&local);
                let data = resp.map(|r| r.into_data()).unwrap_or_default();
                let req = draw_request(cpu, k, d, window_base(d.5));
                txs.push((cpu, req, data));
            }
        }
        let awaited = submit_all(&mut noc, &cpus, txs);
        let mut interrupts = interrupts;
        interrupts.sort_unstable();
        let mut raised = [0u64; 2];
        let mut now = 0;
        for (at, target, cpu) in interrupts {
            noc.run(at - now);
            now = at;
            noc.raise_interrupt(mems[target], cpus[cpu]).expect("routable");
            raised[cpu] += 1;
        }
        prop_assert_eq!(drain_and_pair(&mut noc, &cpus, awaited), Ok(()));
        for (mem, mirror) in mems.iter().zip(&mirrors) {
            let memory = noc.memory(*mem).expect("target");
            for (addr, value) in mirror.export_words() {
                prop_assert_eq!(memory.peek(addr), value, "word {:#x}", addr);
            }
        }
        for (i, &cpu) in cpus.iter().enumerate() {
            prop_assert_eq!(noc.pending_interrupts(cpu).expect("initiator"), raised[i]);
        }
    }
}
