//! OCP signal-level vocabulary: commands, responses, burst codes, threads
//! and sideband signals.

use std::fmt;

/// OCP master command (`MCmd`).
///
/// The xpipes Lite NI supports the read/write family; `Idle` (header code
/// 0) starts no transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MCmd {
    /// No request presented.
    #[default]
    Idle,
    /// Posted write: completes at the initiator without a response.
    Write,
    /// Read: always returns a data response.
    Read,
    /// Exclusive read (read-locked), used by synchronisation primitives.
    ReadEx,
    /// Non-posted write: the target must acknowledge with a response.
    WriteNonPost,
}

impl MCmd {
    /// True for commands that elicit a response packet from the target.
    pub(crate) const fn expects_response(self) -> bool {
        matches!(self, MCmd::Read | MCmd::ReadEx | MCmd::WriteNonPost)
    }

    /// True for commands that carry write payload beats.
    pub const fn carries_data(self) -> bool {
        matches!(self, MCmd::Write | MCmd::WriteNonPost)
    }

    /// 3-bit field encoding used in the packet header.
    pub const fn encode(self) -> u8 {
        match self {
            MCmd::Idle => 0,
            MCmd::Write => 1,
            MCmd::Read => 2,
            MCmd::ReadEx => 3,
            MCmd::WriteNonPost => 4,
        }
    }

    /// Decodes a 3-bit header field.
    ///
    /// Returns `None` for reserved encodings.
    pub const fn decode(bits: u8) -> Option<Self> {
        match bits {
            0 => Some(MCmd::Idle),
            1 => Some(MCmd::Write),
            2 => Some(MCmd::Read),
            3 => Some(MCmd::ReadEx),
            4 => Some(MCmd::WriteNonPost),
            _ => None,
        }
    }
}

impl fmt::Display for MCmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MCmd::Idle => "IDLE",
            MCmd::Write => "WR",
            MCmd::Read => "RD",
            MCmd::ReadEx => "RDEX",
            MCmd::WriteNonPost => "WRNP",
        };
        f.write_str(s)
    }
}

/// OCP slave response code (`SResp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SResp {
    /// No response this cycle.
    #[default]
    Null,
    /// Data valid / accept.
    Dva,
    /// Request failed (e.g. exclusive access lost).
    Fail,
    /// Error response.
    Err,
}

impl SResp {
    /// 2-bit field encoding used in response packet headers.
    pub const fn encode(self) -> u8 {
        match self {
            SResp::Null => 0,
            SResp::Dva => 1,
            SResp::Fail => 2,
            SResp::Err => 3,
        }
    }

    /// Decodes the 2-bit header field (total function: all codes defined).
    pub const fn decode(bits: u8) -> Self {
        match bits & 0b11 {
            1 => SResp::Dva,
            2 => SResp::Fail,
            3 => SResp::Err,
            _ => SResp::Null,
        }
    }
}

impl fmt::Display for SResp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SResp::Null => "NULL",
            SResp::Dva => "DVA",
            SResp::Fail => "FAIL",
            SResp::Err => "ERR",
        };
        f.write_str(s)
    }
}

/// OCP burst address sequence (`MBurstSeq` subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BurstSeq {
    /// Incrementing addresses (cache-line fills, DMA).
    #[default]
    Incr,
    /// Wrapping burst around an aligned boundary (critical-word-first).
    Wrap,
    /// Constant address (FIFO/stream port).
    Stream,
}

impl BurstSeq {
    /// 2-bit field encoding used in the packet header.
    pub const fn encode(self) -> u8 {
        match self {
            BurstSeq::Incr => 0,
            BurstSeq::Wrap => 1,
            BurstSeq::Stream => 2,
        }
    }

    /// Decodes the 2-bit header field; `None` for the reserved code.
    pub const fn decode(bits: u8) -> Option<Self> {
        match bits {
            0 => Some(BurstSeq::Incr),
            1 => Some(BurstSeq::Wrap),
            2 => Some(BurstSeq::Stream),
            _ => None,
        }
    }

    /// Address of beat `beat` for a burst starting at `base` with
    /// `beat_bytes`-wide data and `len` total beats.
    pub(crate) fn beat_addr(self, base: u64, beat: u32, len: u32, beat_bytes: u64) -> u64 {
        match self {
            BurstSeq::Incr => base + beat as u64 * beat_bytes,
            BurstSeq::Stream => base,
            BurstSeq::Wrap => {
                let span = len as u64 * beat_bytes;
                if span == 0 {
                    return base;
                }
                let aligned = (base / span) * span;
                aligned + (base + beat as u64 * beat_bytes) % span
            }
        }
    }
}

/// OCP thread identifier (`MThreadID`) — the threading extension lets one
/// NI interleave several outstanding transaction streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ThreadId(pub u8);

impl ThreadId {
    /// Maximum threads the header encoding supports (4 bits).
    pub(crate) const MAX: u8 = 15;
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Sideband signals carried out-of-band along a transaction — the paper's
/// NI forwards interrupts and user flags through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Sideband {
    /// Interrupt request line state.
    pub interrupt: bool,
    /// Implementation-defined user flags (MFlag/SFlag, 4 bits used).
    pub flags: u8,
}

impl Sideband {
    /// No sideband activity.
    pub const NONE: Sideband = Sideband {
        interrupt: false,
        flags: 0,
    };

    /// 5-bit field encoding used in the packet header.
    pub const fn encode(self) -> u8 {
        ((self.interrupt as u8) << 4) | (self.flags & 0x0F)
    }

    /// Decodes the 5-bit header field.
    pub const fn decode(bits: u8) -> Self {
        Sideband {
            interrupt: (bits >> 4) & 1 == 1,
            flags: bits & 0x0F,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcmd_response_expectations() {
        assert!(!MCmd::Write.expects_response());
        assert!(MCmd::Read.expects_response());
        assert!(MCmd::ReadEx.expects_response());
        assert!(MCmd::WriteNonPost.expects_response());
        assert!(!MCmd::Idle.expects_response());
    }

    #[test]
    fn mcmd_data_carriage() {
        assert!(MCmd::Write.carries_data());
        assert!(MCmd::WriteNonPost.carries_data());
        assert!(!MCmd::Read.carries_data());
    }

    #[test]
    fn mcmd_codec_roundtrip() {
        for cmd in [
            MCmd::Idle,
            MCmd::Write,
            MCmd::Read,
            MCmd::ReadEx,
            MCmd::WriteNonPost,
        ] {
            assert_eq!(MCmd::decode(cmd.encode()), Some(cmd));
        }
        assert_eq!(MCmd::decode(7), None);
    }

    #[test]
    fn sresp_codec_total() {
        for resp in [SResp::Null, SResp::Dva, SResp::Fail, SResp::Err] {
            assert_eq!(SResp::decode(resp.encode()), resp);
        }
        // Upper bits ignored.
        assert_eq!(SResp::decode(0b101), SResp::Dva);
    }

    #[test]
    fn burst_seq_codec() {
        for seq in [BurstSeq::Incr, BurstSeq::Wrap, BurstSeq::Stream] {
            assert_eq!(BurstSeq::decode(seq.encode()), Some(seq));
        }
        assert_eq!(BurstSeq::decode(3), None);
    }

    #[test]
    fn incr_addresses() {
        let s = BurstSeq::Incr;
        assert_eq!(s.beat_addr(0x100, 0, 4, 4), 0x100);
        assert_eq!(s.beat_addr(0x100, 3, 4, 4), 0x10C);
    }

    #[test]
    fn stream_addresses_constant() {
        let s = BurstSeq::Stream;
        for beat in 0..8 {
            assert_eq!(s.beat_addr(0x80, beat, 8, 4), 0x80);
        }
    }

    #[test]
    fn wrap_addresses_wrap_at_boundary() {
        // 4-beat x 4-byte wrap burst starting mid-line at 0x108:
        // 0x108, 0x10C, then wraps to 0x100, 0x104.
        let s = BurstSeq::Wrap;
        assert_eq!(s.beat_addr(0x108, 0, 4, 4), 0x108);
        assert_eq!(s.beat_addr(0x108, 1, 4, 4), 0x10C);
        assert_eq!(s.beat_addr(0x108, 2, 4, 4), 0x100);
        assert_eq!(s.beat_addr(0x108, 3, 4, 4), 0x104);
    }

    #[test]
    fn wrap_zero_len_is_base() {
        assert_eq!(BurstSeq::Wrap.beat_addr(0x42, 0, 0, 4), 0x42);
    }

    #[test]
    fn sideband_codec_roundtrip() {
        for interrupt in [false, true] {
            for flags in 0..16 {
                let sb = Sideband { interrupt, flags };
                assert_eq!(Sideband::decode(sb.encode()), sb);
            }
        }
        assert_eq!(Sideband::NONE.encode(), 0);
    }

    #[test]
    fn display_strings() {
        assert_eq!(MCmd::Read.to_string(), "RD");
        assert_eq!(SResp::Dva.to_string(), "DVA");
        assert_eq!(ThreadId(3).to_string(), "T3");
    }
}
