//! Flits: the atomic units that traverse links and switches.
//!
//! Packet registers (header, payload beats) are decomposed into flits of
//! the configured link width — the paper's "flit decomposition". A flit
//! carries its raw bits plus, on head flits, a behavioural mirror of the
//! decoded header so switches can route without re-assembling multi-flit
//! headers (the RTL equivalent is the header register travelling alongside
//! the first flit through the switch pipeline).

use std::fmt;

use xpipes_sim::Cycle;

use crate::header::{Header, PackedHeader};

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries the routing header.
    Header,
    /// Interior flit.
    Body,
    /// Final flit; releases wormhole locks.
    Tail,
    /// Sole flit of a single-flit packet (header and tail at once).
    Single,
}

impl FlitKind {
    /// True for flits that open a packet (carry routing information).
    pub const fn is_head(self) -> bool {
        matches!(self, FlitKind::Header | FlitKind::Single)
    }

    /// True for flits that close a packet (release wormhole locks).
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }
}

impl fmt::Display for FlitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FlitKind::Header => "H",
            FlitKind::Body => "B",
            FlitKind::Tail => "T",
            FlitKind::Single => "S",
        })
    }
}

/// Simulation-only bookkeeping carried with every flit (the SystemC model
/// kept an equivalent transaction pointer; none of this is synthesized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlitMeta {
    /// Unique packet identifier for reassembly checks and statistics.
    pub packet_id: u64,
    /// Cycle at which the packet entered the source NI.
    pub injected_at: Cycle,
    /// Source NI id.
    pub src_ni: u8,
}

impl FlitMeta {
    /// Creates metadata for a packet injected now.
    pub fn new(packet_id: u64, injected_at: Cycle, src_ni: u8) -> Self {
        FlitMeta {
            packet_id,
            injected_at,
            src_ni,
        }
    }
}

/// One flit: `width` bits of raw data plus kind and bookkeeping.
///
/// # Examples
///
/// ```
/// use xpipes::{Flit, FlitKind, FlitMeta};
/// use xpipes_sim::Cycle;
///
/// let flit = Flit::new(FlitKind::Single, 0xAB, FlitMeta::new(1, Cycle::ZERO, 0));
/// assert!(flit.kind.is_head() && flit.kind.is_tail());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Position within the packet.
    pub kind: FlitKind,
    /// Raw flit bits (up to 128).
    pub bits: u128,
    /// Packed header mirror; present on head flits only. The packed form
    /// keeps `Flit` a compact `Copy` value; see [`PackedHeader`].
    pub header: Option<PackedHeader>,
    /// Simulation bookkeeping.
    pub meta: FlitMeta,
}

impl Flit {
    /// Creates a flit without a header mirror.
    pub fn new(kind: FlitKind, bits: u128, meta: FlitMeta) -> Self {
        Flit {
            kind,
            bits,
            header: None,
            meta,
        }
    }

    /// Creates a head flit carrying the header mirror (packed on board).
    pub fn head(kind: FlitKind, bits: u128, header: Header, meta: FlitMeta) -> Self {
        debug_assert!(kind.is_head(), "header mirror belongs on head flits");
        Flit {
            kind,
            bits,
            header: Some(header.packed()),
            meta,
        }
    }
}

/// All-ones mask of `width` bits (width ≤ 128).
pub(crate) fn mask(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(FlitKind::Header.is_head());
        assert!(!FlitKind::Header.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Tail.is_head());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
        assert!(FlitKind::Single.is_head() && FlitKind::Single.is_tail());
    }

    #[test]
    fn kind_display() {
        assert_eq!(FlitKind::Header.to_string(), "H");
        assert_eq!(FlitKind::Single.to_string(), "S");
    }

    #[test]
    fn mask_widths() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xFF);
        assert_eq!(mask(64), u64::MAX as u128);
        assert_eq!(mask(128), u128::MAX);
    }

    #[test]
    fn meta_construction() {
        let m = FlitMeta::new(7, Cycle::new(3), 2);
        assert_eq!(m.packet_id, 7);
        assert_eq!(m.injected_at, Cycle::new(3));
        assert_eq!(m.src_ni, 2);
    }
}
