//! Packets and their flit decomposition.
//!
//! A packet is one transaction's worth of registers: the header register,
//! an address beat for requests, and one payload register per burst beat.
//! [`packetize`] decomposes these registers into flits of the configured
//! width; [`depacketize`] is the exact inverse, used by the receiving NI.

use xpipes_sim::Cycle;

use crate::error::XpipesError;
use crate::flit::{mask, Flit, FlitKind, FlitMeta};
use crate::header::Header;

/// A whole packet: header + optional address beat + payload beats.
///
/// # Examples
///
/// ```
/// use xpipes::packet::{Packet, packetize, depacketize};
/// use xpipes::header::Header;
/// use xpipes_ocp::{MCmd, ThreadId, Sideband};
/// use xpipes_topology::route::SourceRoute;
/// use xpipes_topology::PortId;
/// use xpipes_sim::Cycle;
///
/// # fn main() -> Result<(), xpipes::XpipesError> {
/// let route = SourceRoute::new(vec![PortId(0)]).expect("valid");
/// let header = Header::request(&route, 0, MCmd::Write, 2, ThreadId(0), 0, Sideband::NONE)?;
/// let packet = Packet::new(1, header, Some(0x40), vec![0xAAAA, 0x5555]);
/// let flits: Vec<_> = packetize(&packet, 32, 32, Cycle::ZERO)?.collect();
/// let back = depacketize(&flits, 32, 32)?;
/// assert_eq!(back, packet);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique packet id (simulation bookkeeping).
    pub id: u64,
    /// The header register.
    pub header: Header,
    /// Address beat: present on request packets, absent on responses.
    pub addr: Option<u64>,
    /// Payload beats (write data or read-response data).
    pub payload: Vec<u64>,
}

impl Packet {
    /// Creates a packet.
    pub fn new(id: u64, header: Header, addr: Option<u64>, payload: Vec<u64>) -> Self {
        Packet {
            id,
            header,
            addr,
            payload,
        }
    }

    /// Number of beats the packet carries (address + payload).
    pub(crate) fn beat_count(&self) -> usize {
        self.addr.is_some() as usize + self.payload.len()
    }

    /// Number of flits the packet occupies at the given widths.
    pub fn flit_count(&self, flit_width: u32, data_width: u32) -> usize {
        let header_flits = Header::TOTAL_BITS.div_ceil(flit_width) as usize;
        let beat_flits = data_width.div_ceil(flit_width) as usize;
        header_flits + self.beat_count() * beat_flits
    }
}

/// Decomposes a packet into flits of `flit_width` bits with `data_width`-
/// bit beat registers: the header register least-significant chunk first,
/// then the address beat (requests) and the payload beats. Every width and
/// beat is validated up front, so on error nothing has been produced; the
/// flits themselves are yielded lazily, ready to `extend` a queue.
///
/// # Errors
///
/// * [`XpipesError::BadFlitWidth`] for unsupported widths.
/// * [`XpipesError::FieldOverflow`] when a beat value (or the address)
///   does not fit `data_width` bits.
pub fn packetize(
    packet: &Packet,
    flit_width: u32,
    data_width: u32,
    now: Cycle,
) -> Result<impl ExactSizeIterator<Item = Flit> + '_, XpipesError> {
    crate::config::check_flit_width(flit_width)?;
    if !(8..=64).contains(&data_width) {
        return Err(XpipesError::BadFlitWidth(data_width));
    }
    // Beat registers: the address beat (requests), then the payload.
    let beat = |b: usize| match (packet.addr, b) {
        (Some(addr), 0) => addr,
        (Some(_), b) => packet.payload[b - 1],
        (None, b) => packet.payload[b],
    };
    let overflow = |&b: &u64| data_width < 64 && b >= (1u64 << data_width);
    if let Some(value) = (0..packet.beat_count()).map(beat).find(overflow) {
        return Err(XpipesError::FieldOverflow {
            field: "beat",
            value,
            bits: data_width,
        });
    }
    let meta = FlitMeta::new(packet.id, now, packet.header.src_ni);
    let total = packet.flit_count(flit_width, data_width);
    let header_flits = Header::TOTAL_BITS.div_ceil(flit_width) as usize;
    let beat_flits = data_width.div_ceil(flit_width) as usize;
    let hbits = packet.header.encode() as u128;
    Ok((0..total).map(move |i| {
        let (register, chunk) = match i.checked_sub(header_flits) {
            None => (hbits, i),
            Some(j) => (beat(j / beat_flits) as u128, j % beat_flits),
        };
        let bits = (register >> (chunk as u32 * flit_width)) & mask(flit_width);
        let kind = match i {
            _ if total == 1 => FlitKind::Single,
            0 => FlitKind::Header,
            _ if i == total - 1 => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        let mut flit = Flit::new(kind, bits, meta);
        if i == 0 {
            // The head flit mirrors the header.
            flit.header = Some(packet.header.packed());
        }
        flit
    }))
}

/// Reassembles a packet from its flits. Inverse of [`packetize`].
///
/// # Errors
///
/// * [`XpipesError::ReassemblyError`] for malformed flit sequences
///   (wrong kinds, wrong count, corrupt header bits).
/// * [`XpipesError::BadFlitWidth`] for unsupported widths.
pub fn depacketize(
    flits: &[Flit],
    flit_width: u32,
    data_width: u32,
) -> Result<Packet, XpipesError> {
    crate::config::check_flit_width(flit_width)?;
    let first = flits
        .first()
        .ok_or(XpipesError::ReassemblyError("empty flit sequence"))?;
    if !first.kind.is_head() {
        return Err(XpipesError::ReassemblyError(
            "sequence does not start with a head flit",
        ));
    }
    let last = flits.last().expect("nonempty");
    if !last.kind.is_tail() {
        return Err(XpipesError::ReassemblyError(
            "sequence does not end with a tail flit",
        ));
    }
    if flits.len() == 1 && first.kind != FlitKind::Single {
        return Err(XpipesError::ReassemblyError(
            "single flit must be kind Single",
        ));
    }
    if flits.len() >= 2 {
        for f in &flits[1..flits.len() - 1] {
            if f.kind != FlitKind::Body {
                return Err(XpipesError::ReassemblyError("interior flit not Body"));
            }
        }
    }

    // Header register.
    let header_flits = Header::TOTAL_BITS.div_ceil(flit_width) as usize;
    if flits.len() < header_flits {
        return Err(XpipesError::ReassemblyError(
            "fewer flits than the header needs",
        ));
    }
    let mut hbits: u128 = 0;
    for (i, f) in flits[..header_flits].iter().enumerate() {
        hbits |= (f.bits & mask(flit_width)) << (i as u32 * flit_width);
    }
    let header = Header::decode((hbits as u64) & ((1u64 << Header::TOTAL_BITS) - 1))?;

    // Beat registers.
    let beat_flits = data_width.div_ceil(flit_width) as usize;
    let rest = &flits[header_flits..];
    if !rest.len().is_multiple_of(beat_flits) {
        return Err(XpipesError::ReassemblyError(
            "payload flit count not beat-aligned",
        ));
    }
    let mut beats = rest.chunks(beat_flits).map(|chunk| {
        let mut beat: u128 = 0;
        for (i, f) in chunk.iter().enumerate() {
            beat |= (f.bits & mask(flit_width)) << (i as u32 * flit_width);
        }
        (beat & mask(data_width)) as u64
    });
    let addr = if header.msg.is_request() {
        Some(beats.next().ok_or(XpipesError::ReassemblyError(
            "request packet missing address beat",
        ))?)
    } else {
        None
    };
    Ok(Packet {
        id: first.meta.packet_id,
        header,
        addr,
        payload: beats.collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_ocp::{MCmd, SResp, Sideband, ThreadId};
    use xpipes_topology::route::SourceRoute;
    use xpipes_topology::PortId;

    fn req_header(burst: u8, cmd: MCmd) -> Header {
        let route = SourceRoute::new(vec![PortId(1), PortId(2)]).unwrap();
        Header::request(&route, 5, cmd, burst, ThreadId(1), 3, Sideband::NONE).unwrap()
    }

    fn resp_header(burst: u8) -> Header {
        let route = SourceRoute::new(vec![PortId(0)]).unwrap();
        Header::response(&route, 5, SResp::Dva, burst, ThreadId(1), 3, Sideband::NONE).unwrap()
    }

    #[test]
    fn write_packet_roundtrip_all_widths() {
        for flit_width in [16, 32, 64, 128] {
            let p = Packet::new(
                9,
                req_header(3, MCmd::Write),
                Some(0x1234),
                vec![0xDEAD_BEEF, 0x0BAD_F00D, 0x1234_5678],
            );
            let flits = packetize(&p, flit_width, 32, Cycle::ZERO)
                .unwrap()
                .collect::<Vec<_>>();
            assert_eq!(flits.len(), p.flit_count(flit_width, 32));
            let back = depacketize(&flits, flit_width, 32).unwrap();
            assert_eq!(back, p, "width {flit_width}");
        }
    }

    #[test]
    fn read_request_is_header_plus_address() {
        let p = Packet::new(1, req_header(8, MCmd::Read), Some(0x80), vec![]);
        let flits = packetize(&p, 32, 32, Cycle::ZERO)
            .unwrap()
            .collect::<Vec<_>>();
        // 63-bit header → 2 flits at W=32, + 1 address flit.
        assert_eq!(flits.len(), 3);
        let back = depacketize(&flits, 32, 32).unwrap();
        assert_eq!(back.addr, Some(0x80));
        assert!(back.payload.is_empty());
        assert_eq!(back.header.burst_len, 8);
    }

    #[test]
    fn response_packet_has_no_address_beat() {
        let p = Packet::new(2, resp_header(2), None, vec![7, 8]);
        let flits = packetize(&p, 64, 32, Cycle::ZERO)
            .unwrap()
            .collect::<Vec<_>>();
        // 1 header flit + 2 beats.
        assert_eq!(flits.len(), 3);
        let back = depacketize(&flits, 64, 32).unwrap();
        assert_eq!(back.addr, None);
        assert_eq!(back.payload, vec![7, 8]);
    }

    #[test]
    fn single_flit_packet_at_wide_width() {
        // 128-bit flit holds the whole 63-bit header of a data-less
        // response in one Single flit.
        let p = Packet::new(3, resp_header(1), None, vec![]);
        let flits = packetize(&p, 128, 32, Cycle::ZERO)
            .unwrap()
            .collect::<Vec<_>>();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::Single);
        let back = depacketize(&flits, 128, 32).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn kinds_are_well_formed() {
        let p = Packet::new(4, req_header(2, MCmd::Write), Some(0), vec![1, 2]);
        let flits = packetize(&p, 16, 32, Cycle::ZERO)
            .unwrap()
            .collect::<Vec<_>>();
        assert_eq!(flits[0].kind, FlitKind::Header);
        assert_eq!(*flits.last().map(|f| &f.kind).unwrap(), FlitKind::Tail);
        assert!(flits[1..flits.len() - 1]
            .iter()
            .all(|f| f.kind == FlitKind::Body));
        assert!(flits[0].header.is_some());
        assert!(flits[1..].iter().all(|f| f.header.is_none()));
    }

    #[test]
    fn beat_overflow_rejected() {
        let p = Packet::new(5, req_header(1, MCmd::Write), Some(0), vec![1u64 << 33]);
        let Err(err) = packetize(&p, 32, 32, Cycle::ZERO) else {
            panic!("beat overflow accepted");
        };
        assert!(matches!(
            err,
            XpipesError::FieldOverflow { field: "beat", .. }
        ));
    }

    #[test]
    fn bad_widths_rejected() {
        let p = Packet::new(6, resp_header(1), None, vec![]);
        assert!(packetize(&p, 4, 32, Cycle::ZERO).is_err());
        assert!(packetize(&p, 32, 4, Cycle::ZERO).is_err());
        assert!(depacketize(&[], 4, 32).is_err());
    }

    #[test]
    fn empty_sequence_rejected() {
        let err = depacketize(&[], 32, 32).unwrap_err();
        assert!(matches!(err, XpipesError::ReassemblyError(_)));
    }

    #[test]
    fn malformed_sequences_rejected() {
        let p = Packet::new(7, req_header(1, MCmd::Write), Some(0), vec![1]);
        let flits = packetize(&p, 32, 32, Cycle::ZERO)
            .unwrap()
            .collect::<Vec<_>>();

        // Truncated (no tail).
        let cut = &flits[..flits.len() - 1];
        assert!(depacketize(cut, 32, 32).is_err());

        // Starts mid-packet.
        assert!(depacketize(&flits[1..], 32, 32).is_err());

        // Interior flit with a head kind.
        let mut bad = flits.clone();
        bad[1].kind = FlitKind::Header;
        assert!(depacketize(&bad, 32, 32).is_err());
    }

    #[test]
    fn misaligned_payload_rejected() {
        let p = Packet::new(8, req_header(1, MCmd::Write), Some(0), vec![1]);
        let mut flits = packetize(&p, 16, 32, Cycle::ZERO)
            .unwrap()
            .collect::<Vec<_>>();
        // Remove one interior flit: payload is no longer beat-aligned.
        let fixed_last = flits.len() - 1;
        flits.remove(fixed_last - 1);
        let err = depacketize(&flits, 16, 32).unwrap_err();
        assert!(matches!(err, XpipesError::ReassemblyError(_)));
    }

    #[test]
    fn meta_propagates() {
        let p = Packet::new(42, req_header(1, MCmd::Write), Some(0), vec![1]);
        for f in packetize(&p, 32, 32, Cycle::new(17)).unwrap() {
            assert_eq!(f.meta.packet_id, 42);
            assert_eq!(f.meta.injected_at, Cycle::new(17));
            assert_eq!(f.meta.src_ni, 5);
        }
    }

    #[test]
    fn flit_count_matches_formula() {
        let p = Packet::new(1, req_header(4, MCmd::Write), Some(0), vec![0; 4]);
        // W=16: header 4 flits + 5 beats x 2 = 14.
        assert_eq!(p.flit_count(16, 32), 14);
        // W=32: 2 + 5 = 7.
        assert_eq!(p.flit_count(32, 32), 7);
        // W=128: 1 + 5 = 6.
        assert_eq!(p.flit_count(128, 32), 6);
        assert_eq!(p.beat_count(), 5);
    }
}
