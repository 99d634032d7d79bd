//! The packet header register.
//!
//! The paper's packetization builds **one header register (about 50 bits)
//! for every transaction**, with the route obtained "from MAddr after
//! LUT". This module is the bit-accurate codec for that register.
//!
//! Layout (63 bits total — "about 50" in the paper's words, the extra
//! breathing room carries the threading and sideband extensions):
//!
//! | bits    | field       | meaning                                   |
//! |---------|-------------|-------------------------------------------|
//! | 0..28   | `route`     | source route, 7 hops × 4-bit port index   |
//! | 28..31  | `hop_len`   | hops in the route (1..=7)                 |
//! | 31..37  | `src_ni`    | source NI id (response return key)        |
//! | 37..40  | `msg`       | message type (command / response code)    |
//! | 40..48  | `burst_len` | burst beats (1..=255)                     |
//! | 48..52  | `thread`    | OCP thread id                             |
//! | 52..56  | `tag`       | transaction tag                           |
//! | 56..61  | `sideband`  | interrupt + user flags                    |
//! | 61..63  | `burst_seq` | burst address sequence (incr/wrap/stream) |
//!
//! The transaction address offset is **not** in the header: it travels as
//! the first payload beat (the "address beat"), keeping the header
//! register small as in the original RTL.

use std::fmt;
use std::num::NonZeroU64;

use xpipes_ocp::{BurstSeq, MCmd, SResp, Sideband, ThreadId};
use xpipes_topology::route::{SourceRoute, MAX_HOPS};

use crate::error::XpipesError;

/// Message type carried in the header's 3-bit `msg` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgType {
    /// A request packet carrying an OCP command.
    Request(MCmd),
    /// A response packet carrying an OCP response code.
    Response(SResp),
}

impl MsgType {
    /// Encodes into the 3-bit field.
    ///
    /// # Panics
    ///
    /// Panics on `Request(Idle)` or `Response(Null)`; these cannot appear
    /// in a constructed [`Header`].
    pub(crate) fn encode(self) -> u8 {
        match self {
            MsgType::Request(MCmd::Write) => 1,
            MsgType::Request(MCmd::Read) => 2,
            MsgType::Request(MCmd::ReadEx) => 3,
            MsgType::Request(MCmd::WriteNonPost) => 4,
            MsgType::Response(SResp::Dva) => 5,
            MsgType::Response(SResp::Fail) => 6,
            MsgType::Response(SResp::Err) => 7,
            MsgType::Request(MCmd::Idle) | MsgType::Response(SResp::Null) => {
                panic!("idle/null message types are unencodable")
            }
        }
    }

    /// Decodes the 3-bit field; `None` for the reserved code 0.
    pub(crate) fn decode(bits: u8) -> Option<Self> {
        match bits & 0b111 {
            1 => Some(MsgType::Request(MCmd::Write)),
            2 => Some(MsgType::Request(MCmd::Read)),
            3 => Some(MsgType::Request(MCmd::ReadEx)),
            4 => Some(MsgType::Request(MCmd::WriteNonPost)),
            5 => Some(MsgType::Response(SResp::Dva)),
            6 => Some(MsgType::Response(SResp::Fail)),
            7 => Some(MsgType::Response(SResp::Err)),
            _ => None,
        }
    }

    /// True for request packets.
    pub(crate) fn is_request(self) -> bool {
        matches!(self, MsgType::Request(_))
    }
}

impl fmt::Display for MsgType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgType::Request(cmd) => write!(f, "req:{cmd}"),
            MsgType::Response(resp) => write!(f, "resp:{resp}"),
        }
    }
}

/// The decoded packet header register.
///
/// Construct via [`Header::request`] or [`Header::response`], which
/// validate every field against its bit width.
///
/// # Examples
///
/// ```
/// use xpipes::header::Header;
/// use xpipes_ocp::{MCmd, ThreadId, Sideband};
/// use xpipes_topology::route::SourceRoute;
/// use xpipes_topology::PortId;
///
/// # fn main() -> Result<(), xpipes::XpipesError> {
/// let route = SourceRoute::new(vec![PortId(1), PortId(4)]).expect("valid");
/// let h = Header::request(&route, 3, MCmd::Write, 4, ThreadId(0), 9, Sideband::NONE)?;
/// let bits = h.encode();
/// assert_eq!(Header::decode(bits)?, h);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Header {
    /// Remaining source-route field (consumed by switches).
    pub route: u32,
    /// Number of hops encoded in `route`.
    pub hop_len: u8,
    /// Source NI id, the return key for responses.
    pub src_ni: u8,
    /// Message type.
    pub msg: MsgType,
    /// Burst length in beats.
    pub burst_len: u8,
    /// OCP thread.
    pub thread: ThreadId,
    /// Transaction tag.
    pub tag: u8,
    /// Sideband signals.
    pub sideband: Sideband,
    /// Burst address sequence (meaningful on requests; `Incr` otherwise).
    pub burst_seq: BurstSeq,
}

impl Header {
    /// Total header register width in bits.
    pub const TOTAL_BITS: u32 = 63;
    /// Width of the `src_ni` field in bits.
    pub const SRC_NI_BITS: u32 = 6;
    /// NI ids `src_ni` can name, hence the most NIs one network holds.
    pub const MAX_NIS: usize = 1 << Self::SRC_NI_BITS;

    /// Builds a request header.
    ///
    /// # Errors
    ///
    /// * [`XpipesError::RouteTooLong`] for routes above 7 hops.
    /// * [`XpipesError::FieldOverflow`] for out-of-range fields.
    /// * [`XpipesError::Ocp`]-free by construction: `cmd` must not be
    ///   `Idle` (checked as a field overflow).
    pub fn request(
        route: &SourceRoute,
        src_ni: u8,
        cmd: MCmd,
        burst_len: u8,
        thread: ThreadId,
        tag: u8,
        sideband: Sideband,
    ) -> Result<Self, XpipesError> {
        if cmd == MCmd::Idle {
            return Err(XpipesError::FieldOverflow {
                field: "msg",
                value: 0,
                bits: 3,
            });
        }
        Self::build(
            route,
            src_ni,
            MsgType::Request(cmd),
            burst_len,
            thread,
            tag,
            sideband,
        )
    }

    /// Builds a response header.
    ///
    /// # Errors
    ///
    /// Same as [`Header::request`]; `resp` must not be `Null`.
    pub fn response(
        route: &SourceRoute,
        src_ni: u8,
        resp: SResp,
        burst_len: u8,
        thread: ThreadId,
        tag: u8,
        sideband: Sideband,
    ) -> Result<Self, XpipesError> {
        if resp == SResp::Null {
            return Err(XpipesError::FieldOverflow {
                field: "msg",
                value: 0,
                bits: 3,
            });
        }
        Self::build(
            route,
            src_ni,
            MsgType::Response(resp),
            burst_len,
            thread,
            tag,
            sideband,
        )
    }

    fn build(
        route: &SourceRoute,
        src_ni: u8,
        msg: MsgType,
        burst_len: u8,
        thread: ThreadId,
        tag: u8,
        sideband: Sideband,
    ) -> Result<Self, XpipesError> {
        if route.hops().len() > MAX_HOPS {
            return Err(XpipesError::RouteTooLong {
                hops: route.hops().len(),
                max: MAX_HOPS,
            });
        }
        if src_ni as usize >= Self::MAX_NIS {
            return Err(XpipesError::FieldOverflow {
                field: "src_ni",
                value: src_ni as u64,
                bits: Self::SRC_NI_BITS,
            });
        }
        if burst_len == 0 {
            return Err(XpipesError::FieldOverflow {
                field: "burst_len",
                value: 0,
                bits: 8,
            });
        }
        if thread.0 > 15 {
            return Err(XpipesError::FieldOverflow {
                field: "thread",
                value: thread.0 as u64,
                bits: 4,
            });
        }
        if tag > 15 {
            return Err(XpipesError::FieldOverflow {
                field: "tag",
                value: tag as u64,
                bits: 4,
            });
        }
        Ok(Header {
            route: route.encode(),
            hop_len: route.hops().len() as u8,
            src_ni,
            msg,
            burst_len,
            thread,
            tag,
            sideband,
            burst_seq: BurstSeq::Incr,
        })
    }

    /// Sets the burst address sequence (wrap / stream bursts).
    #[must_use]
    pub fn with_burst_seq(mut self, seq: BurstSeq) -> Self {
        self.burst_seq = seq;
        self
    }

    /// Packs the header into its 63-bit register image.
    pub fn encode(&self) -> u64 {
        (self.route as u64 & 0xFFF_FFFF)
            | ((self.hop_len as u64 & 0x7) << 28)
            | ((self.src_ni as u64 & 0x3F) << 31)
            | ((self.msg.encode() as u64) << 37)
            | ((self.burst_len as u64) << 40)
            | ((self.thread.0 as u64 & 0xF) << 48)
            | ((self.tag as u64 & 0xF) << 52)
            | ((self.sideband.encode() as u64 & 0x1F) << 56)
            | ((self.burst_seq.encode() as u64 & 0x3) << 61)
    }

    /// Unpacks a 63-bit register image.
    ///
    /// # Errors
    ///
    /// [`XpipesError::ReassemblyError`] when the `msg` field holds the
    /// reserved code (a corrupted or garbage header).
    pub fn decode(bits: u64) -> Result<Self, XpipesError> {
        let msg = MsgType::decode(((bits >> 37) & 0x7) as u8)
            .ok_or(XpipesError::ReassemblyError("reserved msg code in header"))?;
        let burst_seq = BurstSeq::decode(((bits >> 61) & 0x3) as u8).ok_or(
            XpipesError::ReassemblyError("reserved burst sequence in header"),
        )?;
        Ok(Header {
            route: (bits & 0xFFF_FFFF) as u32,
            hop_len: ((bits >> 28) & 0x7) as u8,
            src_ni: ((bits >> 31) & 0x3F) as u8,
            msg,
            burst_len: ((bits >> 40) & 0xFF) as u8,
            thread: ThreadId(((bits >> 48) & 0xF) as u8),
            tag: ((bits >> 52) & 0xF) as u8,
            sideband: Sideband::decode(((bits >> 56) & 0x1F) as u8),
            burst_seq,
        })
    }

    /// Packs into the compact register image carried on head flits.
    pub fn packed(&self) -> PackedHeader {
        PackedHeader::pack(*self)
    }
}

/// The 63-bit header register image in its packed wire form.
///
/// Head flits carry this instead of the decoded [`Header`] mirror: it is
/// one word, `Copy`, and — because the `msg` field encodes to 1..=7 —
/// never zero, so `Option<PackedHeader>` costs no extra space (niche
/// optimisation). Switches route and consume hops directly on the packed
/// bits.
///
/// # Examples
///
/// ```
/// use xpipes::header::Header;
/// use xpipes_ocp::{MCmd, ThreadId, Sideband};
/// use xpipes_topology::route::SourceRoute;
/// use xpipes_topology::PortId;
///
/// # fn main() -> Result<(), xpipes::XpipesError> {
/// let route = SourceRoute::new(vec![PortId(3), PortId(1)]).expect("valid");
/// let h = Header::request(&route, 0, MCmd::Read, 1, ThreadId(0), 0, Sideband::NONE)?;
/// let p = h.packed();
/// assert_eq!(p.next_hop(), 3);
/// assert_eq!(p.consume_route().next_hop(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedHeader(NonZeroU64);

impl PackedHeader {
    /// Packs a decoded header. Infallible: a constructed [`Header`] always
    /// encodes to a nonzero image (its `msg` field is 1..=7).
    pub(crate) fn pack(header: Header) -> Self {
        PackedHeader(NonZeroU64::new(header.encode()).expect("msg field keeps the image nonzero"))
    }

    /// The raw 63-bit register image.
    pub(crate) fn bits(self) -> u64 {
        self.0.get()
    }

    /// The output port the route's current hop selects.
    pub fn next_hop(self) -> u8 {
        (self.0.get() & 0xF) as u8
    }

    /// Route consumption on the packed bits: shifts the route down one hop
    /// and decrements `hop_len`, without a decode/re-encode round trip.
    #[must_use]
    pub fn consume_route(self) -> PackedHeader {
        let bits = self.0.get();
        let route = bits & 0xFFF_FFFF;
        let hop_len = (bits >> 28) & 0x7;
        let rest = bits & !0x7FFF_FFFF;
        let next = rest | (route >> 4) | (hop_len.saturating_sub(1) << 28);
        PackedHeader(NonZeroU64::new(next).expect("msg field keeps the image nonzero"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_topology::PortId;

    fn route(hops: &[u8]) -> SourceRoute {
        SourceRoute::new(hops.iter().map(|&p| PortId(p)).collect()).unwrap()
    }

    fn sample_header() -> Header {
        Header::request(
            &route(&[3, 1, 4]),
            17,
            MCmd::Read,
            8,
            ThreadId(2),
            11,
            Sideband {
                interrupt: true,
                flags: 0b0101,
            },
        )
        .unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = sample_header();
        assert_eq!(Header::decode(h.encode()).unwrap(), h);
    }

    #[test]
    fn encode_fits_total_bits() {
        let h = sample_header();
        assert!(h.encode() < (1u64 << Header::TOTAL_BITS));
    }

    #[test]
    fn response_header_roundtrip() {
        let h = Header::response(
            &route(&[0, 2]),
            4,
            SResp::Dva,
            16,
            ThreadId(0),
            3,
            Sideband::NONE,
        )
        .unwrap();
        let d = Header::decode(h.encode()).unwrap();
        assert_eq!(d.msg, MsgType::Response(SResp::Dva));
        assert_eq!(d.burst_len, 16);
    }

    #[test]
    fn route_too_long_rejected() {
        let long = route(&[0; 8]);
        let err =
            Header::request(&long, 0, MCmd::Read, 1, ThreadId(0), 0, Sideband::NONE).unwrap_err();
        assert_eq!(err, XpipesError::RouteTooLong { hops: 8, max: 7 });
    }

    #[test]
    fn field_overflows_rejected() {
        let r = route(&[1]);
        assert!(Header::request(&r, 64, MCmd::Read, 1, ThreadId(0), 0, Sideband::NONE).is_err());
        assert!(Header::request(&r, 0, MCmd::Read, 0, ThreadId(0), 0, Sideband::NONE).is_err());
        assert!(Header::request(&r, 0, MCmd::Read, 1, ThreadId(16), 0, Sideband::NONE).is_err());
        assert!(Header::request(&r, 0, MCmd::Read, 1, ThreadId(0), 16, Sideband::NONE).is_err());
    }

    #[test]
    fn idle_and_null_rejected() {
        let r = route(&[1]);
        assert!(Header::request(&r, 0, MCmd::Idle, 1, ThreadId(0), 0, Sideband::NONE).is_err());
        assert!(Header::response(&r, 0, SResp::Null, 1, ThreadId(0), 0, Sideband::NONE).is_err());
    }

    #[test]
    fn msg_type_codec() {
        for bits in 1..=7u8 {
            let m = MsgType::decode(bits).unwrap();
            assert_eq!(m.encode(), bits);
        }
        assert_eq!(MsgType::decode(0), None);
        assert!(MsgType::Request(MCmd::Read).is_request());
        assert!(!MsgType::Response(SResp::Dva).is_request());
    }

    #[test]
    #[should_panic(expected = "unencodable")]
    fn idle_msg_encode_panics() {
        MsgType::Request(MCmd::Idle).encode();
    }

    #[test]
    fn decode_rejects_reserved_msg() {
        // bits with msg field = 0
        let err = Header::decode(0).unwrap_err();
        assert!(matches!(err, XpipesError::ReassemblyError(_)));
    }

    #[test]
    fn sideband_travels() {
        let h = sample_header();
        let d = Header::decode(h.encode()).unwrap();
        assert!(d.sideband.interrupt);
        assert_eq!(d.sideband.flags, 0b0101);
    }

    #[test]
    fn packed_roundtrip_and_route_consumption() {
        let h = Header::request(
            &route(&[5, 2, 7]),
            9,
            MCmd::Write,
            4,
            ThreadId(1),
            6,
            Sideband::NONE,
        )
        .unwrap();
        let p = h.packed();
        assert_eq!(p.bits(), h.encode());
        assert_eq!(Header::decode(p.bits()).unwrap(), h);

        // Each packed consumption pops the current hop and leaves every
        // other field of the decoded view untouched.
        let mut packed = p;
        for (k, port) in [5, 2, 7].into_iter().enumerate() {
            assert_eq!(packed.next_hop(), port);
            packed = packed.consume_route();
            let expect = Header {
                route: h.route >> (4 * (k + 1)),
                hop_len: 2 - k as u8,
                ..h
            };
            assert_eq!(Header::decode(packed.bits()).unwrap(), expect);
        }
        // Saturates at zero hops.
        let spent = Header {
            route: 0,
            hop_len: 0,
            ..h
        };
        assert_eq!(
            Header::decode(packed.consume_route().bits()).unwrap(),
            spent
        );
    }

    #[test]
    fn display_msg() {
        assert_eq!(MsgType::Request(MCmd::Read).to_string(), "req:RD");
        assert_eq!(MsgType::Response(SResp::Err).to_string(), "resp:ERR");
    }
}
