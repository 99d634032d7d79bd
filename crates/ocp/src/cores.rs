//! Reference behavioural OCP core: a slave memory.
//!
//! It stands in for the slave IP cores of a real MPSoC (it is the target
//! NI's back end) so that an assembled xpipes NoC can be simulated
//! end-to-end. It is deliberately simple — fidelity lives in the
//! protocol, not in the core.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::transaction::{Request, Response};
use crate::types::MCmd;

/// A behavioural OCP slave: a 64-bit-word memory with configurable access
/// latency.
///
/// # Examples
///
/// ```
/// use xpipes_ocp::{SlaveMemory, Request, SResp};
///
/// # fn main() -> Result<(), xpipes_ocp::OcpError> {
/// let mut mem = SlaveMemory::new(2); // 2-cycle access latency
/// mem.execute(&Request::write(0x100, vec![0xAB])?);
/// let resp = mem.execute(&Request::read(0x100, 1)?).expect("reads respond");
/// assert_eq!(resp.resp(), SResp::Dva);
/// assert_eq!(resp.data(), &[0xAB]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlaveMemory {
    words: HashMap<u64, u64, BuildHasherDefault<WordHasher>>,
    latency: u64,
    reads: u64,
    writes: u64,
}

impl SlaveMemory {
    /// Creates an empty memory with the given access latency in cycles.
    pub fn new(latency: u64) -> Self {
        SlaveMemory {
            words: HashMap::default(),
            latency,
            reads: 0,
            writes: 0,
        }
    }

    /// Access latency in cycles (modelled by the NI/simulator when
    /// scheduling the response).
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of read transactions served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write transactions served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Reads a word directly (test backdoor).
    pub fn peek(&self, addr: u64) -> u64 {
        self.words.get(&(addr & !7)).copied().unwrap_or(0)
    }

    /// Writes a word directly (test backdoor).
    pub fn poke(&mut self, addr: u64, value: u64) {
        self.words.insert(addr & !7, value);
    }

    /// Memory contents as `(word_address, value)` pairs in ascending
    /// address order — the deterministic export checkpointing relies on.
    pub fn export_words(&self) -> Vec<(u64, u64)> {
        let mut words: Vec<(u64, u64)> = self.words.iter().map(|(&a, &v)| (a, v)).collect();
        words.sort_unstable_by_key(|&(a, _)| a);
        words
    }

    /// Replaces the memory contents and access counters with previously
    /// exported state (the inverse of [`export_words`](Self::export_words)
    /// plus [`reads`](Self::reads)/[`writes`](Self::writes)).
    pub fn import_state(
        &mut self,
        words: impl IntoIterator<Item = (u64, u64)>,
        reads: u64,
        writes: u64,
    ) {
        self.words = words.into_iter().collect();
        self.reads = reads;
        self.writes = writes;
    }

    /// Executes a whole transaction, returning the response if the command
    /// expects one. Addresses are word-aligned internally (8-byte words);
    /// writes honour the per-byte enables (`MByteEn`).
    pub fn execute(&mut self, req: &Request) -> Option<Response> {
        match req.cmd() {
            MCmd::Write | MCmd::WriteNonPost => {
                self.writes += 1;
                let mask = byte_mask(req.byte_en());
                for (beat, &datum) in (0..).zip(req.data()) {
                    let addr = req
                        .burst_seq()
                        .beat_addr(req.addr(), beat, req.burst_len(), 8);
                    let word = self.words.entry(addr & !7).or_insert(0);
                    *word = (*word & !mask) | (datum & mask);
                }
                if req.expects_response() {
                    Some(Response::for_request(req, vec![]).expect("write ack carries no data"))
                } else {
                    None
                }
            }
            MCmd::Read | MCmd::ReadEx => {
                self.reads += 1;
                let data: Vec<u64> = (0..req.burst_len())
                    .map(|beat| {
                        let addr = req
                            .burst_seq()
                            .beat_addr(req.addr(), beat, req.burst_len(), 8);
                        self.peek(addr)
                    })
                    .collect();
                Some(Response::for_request(req, data).expect("length matches burst"))
            }
            MCmd::Idle => None,
        }
    }
}

/// Hashes a word address for [`SlaveMemory`]'s map with one folded
/// multiply instead of SipHash. Addresses are multiples of 8, so a bare
/// product would leave the low bits (the bucket index) at zero; folding
/// the high half of the 128-bit product into the low half spreads every
/// address bit into the index and the tag bits alike. The keys are the
/// simulated addresses, so the map needs no seed against chosen keys.
#[derive(Debug, Default, Clone, Copy)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Expands an 8-lane byte-enable field into a 64-bit write mask.
fn byte_mask(byte_en: u8) -> u64 {
    let mut mask = 0u64;
    for lane in 0..8 {
        if byte_en & (1 << lane) != 0 {
            mask |= 0xFFu64 << (lane * 8);
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::RequestBuilder;
    use crate::types::{BurstSeq, SResp};

    #[test]
    fn memory_write_then_read() {
        let mut mem = SlaveMemory::new(1);
        assert!(mem
            .execute(&Request::write(0x20, vec![7, 8]).unwrap())
            .is_none());
        let resp = mem.execute(&Request::read(0x20, 2).unwrap()).unwrap();
        assert_eq!(resp.data(), &[7, 8]);
        assert_eq!(mem.reads(), 1);
        assert_eq!(mem.writes(), 1);
    }

    #[test]
    fn memory_unwritten_reads_zero() {
        let mut mem = SlaveMemory::new(0);
        let resp = mem
            .execute(&Request::read(0xDEAD_BEE8, 1).unwrap())
            .unwrap();
        assert_eq!(resp.data(), &[0]);
    }

    #[test]
    fn memory_word_aligns_addresses() {
        let mut mem = SlaveMemory::new(0);
        mem.poke(0x101, 42); // aligns to 0x100
        assert_eq!(mem.peek(0x107), 42);
        assert_eq!(mem.peek(0x108), 0);
    }

    #[test]
    fn byte_enables_merge_partial_writes() {
        let mut mem = SlaveMemory::new(0);
        mem.poke(0x20, 0x1122_3344_5566_7788);
        // Write only the low two byte lanes.
        let req = RequestBuilder::new(MCmd::Write, 0x20)
            .data(vec![0xAAAA_BBBB_CCCC_DDDD])
            .byte_en(0b0000_0011)
            .build()
            .unwrap();
        mem.execute(&req);
        assert_eq!(mem.peek(0x20), 0x1122_3344_5566_DDDD);
        // Full enables replace the word.
        mem.execute(&Request::write(0x20, vec![5]).unwrap());
        assert_eq!(mem.peek(0x20), 5);
    }

    #[test]
    fn byte_mask_expansion() {
        assert_eq!(byte_mask(0xFF), u64::MAX);
        assert_eq!(byte_mask(0x00), 0);
        assert_eq!(byte_mask(0b1000_0001), 0xFF00_0000_0000_00FF);
    }

    #[test]
    fn memory_nonposted_write_acks() {
        let mut mem = SlaveMemory::new(0);
        let req = RequestBuilder::new(MCmd::WriteNonPost, 0x8)
            .data(vec![1])
            .tag(9)
            .build()
            .unwrap();
        let resp = mem.execute(&req).unwrap();
        assert_eq!(resp.resp(), SResp::Dva);
        assert!(resp.data().is_empty());
        assert_eq!(resp.tag(), 9);
    }

    #[test]
    fn memory_wrap_burst_reads_in_wrap_order() {
        let mut mem = SlaveMemory::new(0);
        for i in 0..4u64 {
            mem.poke(0x100 + i * 8, 100 + i);
        }
        let req = RequestBuilder::new(MCmd::Read, 0x110)
            .burst_len(4)
            .burst_seq(BurstSeq::Wrap)
            .build()
            .unwrap();
        let resp = mem.execute(&req).unwrap();
        assert_eq!(resp.data(), &[102, 103, 100, 101]);
    }

    #[test]
    fn memory_state_export_import_roundtrip() {
        let mut mem = SlaveMemory::new(1);
        mem.execute(&Request::write(0x20, vec![7, 8]).unwrap());
        mem.execute(&Request::read(0x20, 1).unwrap());
        let words = mem.export_words();
        assert_eq!(words, vec![(0x20, 7), (0x28, 8)]);
        let mut copy = SlaveMemory::new(1);
        copy.import_state(words, mem.reads(), mem.writes());
        assert_eq!(copy.peek(0x20), 7);
        assert_eq!(copy.peek(0x28), 8);
        assert_eq!(copy.reads(), 1);
        assert_eq!(copy.writes(), 1);
        assert_eq!(copy.export_words(), mem.export_words());
    }
}
