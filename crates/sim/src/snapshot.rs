//! Versioned, integrity-hashed binary snapshots of simulation state.
//!
//! A checkpoint must reproduce a run *bit-exactly*: every retransmission
//! window, pipeline latch, and RNG stream position has to land back
//! where it was, or the restored run silently diverges from the
//! uninterrupted one. This module owns the container format — a small
//! header (magic, format version, payload length, FNV-1a payload hash)
//! around a flat byte payload — and the primitive codecs components use
//! to fill it. What goes *into* the payload is owned by the components
//! themselves through the [`Snapshot`] trait: each component serializes
//! its mutable state (and only its mutable state — configuration,
//! topology, and routing tables are rebuilt from the `NocSpec` on
//! restore, never stored).
//!
//! Integer fields are little-endian and fixed-width; floats are stored
//! as IEEE-754 bit patterns so byte-identity survives round-trips;
//! sequences carry a `u64` length prefix. A container may nest others as
//! length-prefixed blobs; the outer hash covers every byte of them, so
//! only [`SnapshotReader::open`] and [`Verified::new`] hash — where bytes
//! enter the process — and a nested container is read with header checks
//! alone ([`SnapshotReader::nested`]). There is no schema embedded in
//! the payload: reader and writer must agree via [`FORMAT_VERSION`],
//! which is bumped on any layout change so stale checkpoints are
//! rejected with [`SnapshotError::UnsupportedVersion`] instead of being
//! misparsed.

use crate::rng::{RngState, SimRng};

/// Leading magic of every snapshot ("xpipes snapshot").
pub const MAGIC: [u8; 4] = *b"XPSN";

/// Payload layout version. Bump on any change to what any component
/// writes; old checkpoints are then rejected, never misread.
pub const FORMAT_VERSION: u32 = 1;

/// Header bytes before the payload: magic + version + payload length +
/// FNV-1a hash of the payload.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// FNV-1a 64-bit over `bytes` — the same dependency-free hash the golden
/// tests pin artifacts with.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The container is shorter than its header or its declared payload.
    Truncated,
    /// The leading magic is not [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// The payload hash does not match the header — bit rot or a
    /// truncated/garbled write.
    IntegrityMismatch {
        /// Hash recorded in the header.
        expected: u64,
        /// Hash of the payload actually present.
        actual: u64,
    },
    /// A field decoded to a value the component cannot accept (bad enum
    /// tag, impossible length, state from a differently-shaped network).
    Malformed(String),
    /// Decoding finished with payload bytes left over — the snapshot was
    /// taken from a differently-shaped network than it is restored into.
    TrailingBytes(usize),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            SnapshotError::IntegrityMismatch { expected, actual } => write!(
                f,
                "snapshot payload hash mismatch (header {expected:#018x}, payload {actual:#018x})"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::TrailingBytes(n) => {
                write!(
                    f,
                    "snapshot has {n} unread trailing bytes (topology mismatch?)"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A component whose mutable state can be captured into and restored
/// from a snapshot payload.
///
/// The contract is *restore-equivalence*: `load_state` applied to a
/// freshly assembled component (same configuration as the saved one)
/// must make every subsequent observable behaviour — outputs, RNG draws,
/// statistics — bit-identical to the component the state was saved from.
/// Save and load must consume exactly mirrored byte sequences;
/// structural configuration is not written.
pub trait Snapshot {
    /// Appends this component's mutable state to the payload.
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Restores mutable state previously written by
    /// [`save_state`](Self::save_state) into `self`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the payload is truncated or a field cannot
    /// be accepted (which indicates the snapshot came from a
    /// differently-configured component).
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// Appends primitive fields to a snapshot payload.
///
/// # Examples
///
/// ```
/// use xpipes_sim::snapshot::{SnapshotReader, SnapshotWriter};
///
/// let mut w = SnapshotWriter::new();
/// w.u64(7);
/// w.str("hello");
/// let bytes = w.finish();
/// let mut r = SnapshotReader::open(&bytes).unwrap();
/// assert_eq!(r.u64().unwrap(), 7);
/// assert_eq!(r.str().unwrap(), "hello");
/// r.finish().unwrap();
/// ```
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    payload: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty payload.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.payload.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (fixed width across platforms).
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.payload.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed opaque byte blob (e.g. a nested
    /// snapshot container, letting readers skip sections they cannot
    /// interpret).
    pub fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.payload.extend_from_slice(b);
    }

    /// Appends an RNG keystream position.
    pub fn rng(&mut self, rng: &SimRng) {
        let s = rng.state();
        for k in s.key {
            self.u32(k);
        }
        self.u64(s.stream);
        self.u64(s.counter);
        self.u8(s.word_index);
    }

    /// Seals the payload into the versioned, hashed container.
    pub fn finish(self) -> Vec<u8> {
        self.seal().into_bytes()
    }

    /// Seals the payload like [`finish`](Self::finish) and keeps it as a
    /// [`Verified`] container: this writer's own output needs no check.
    pub fn seal(self) -> Verified {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv64(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        Verified { bytes: out }
    }
}

/// Checks a container's magic, version and declared length; returns the
/// hash its header records and the payload, not yet hashed.
fn split_header(bytes: &[u8]) -> Result<(u64, &[u8]), SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let declared = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let expected = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != declared {
        return Err(SnapshotError::Truncated);
    }
    Ok((expected, payload))
}

/// A whole snapshot container (header and payload) known to be intact:
/// its payload hash was checked when it was built by [`Verified::new`],
/// it is what [`SnapshotWriter::seal`] just wrote, or it was read by
/// [`SnapshotReader::nested_owned`] out of a container that was itself
/// verified. [`reader`](Self::reader) therefore decodes without hashing
/// again, however often it is called.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verified {
    bytes: Vec<u8>,
}

impl Verified {
    /// Verifies `bytes` as [`SnapshotReader::open`] does and keeps them.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] describing the first container-level problem.
    pub fn new(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        SnapshotReader::open(&bytes)?;
        Ok(Verified { bytes })
    }

    /// A reader at the start of the payload; nothing is hashed.
    pub fn reader(&self) -> SnapshotReader<'_> {
        SnapshotReader {
            payload: &self.bytes[HEADER_LEN..],
            pos: 0,
        }
    }

    /// The container's bytes, header included.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The container's bytes, header included, without a copy.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads primitive fields back out of a verified snapshot payload.
///
/// Every reader stands on bytes whose payload hash has been checked once,
/// where they entered the process: [`open`](Self::open) hashes its
/// container, and [`Verified::reader`] reads one that was hashed (or
/// written by this process) when it was built. A container nested inside
/// is read with [`nested`](Self::nested) or
/// [`nested_owned`](Self::nested_owned), which check its magic, version
/// and length but not its hash: the enclosing hash already covered every
/// byte of it, so a damaged nested section fails the outer check.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

// `len` decodes a length *field* from the payload (mirroring
// `SnapshotWriter::len`); it is not a collection size, so the usual
// `is_empty` companion does not apply.
#[allow(clippy::len_without_is_empty)]
impl<'a> SnapshotReader<'a> {
    /// Verifies the container (magic, version, length, payload hash) and
    /// positions a reader at the start of the payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] describing the first container-level problem.
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let (expected, payload) = split_header(bytes)?;
        let actual = fnv64(payload);
        if actual != expected {
            return Err(SnapshotError::IntegrityMismatch { expected, actual });
        }
        Ok(SnapshotReader { payload, pos: 0 })
    }

    /// Reads a length-prefixed nested container (a blob written as
    /// `w.bytes(&inner.finish())`) and positions a reader at the start of
    /// its payload. Only the nested header is checked — magic, version,
    /// declared length — since this reader's payload, the nested bytes
    /// included, was verified already.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8); also [`SnapshotError::BadMagic`],
    /// [`SnapshotError::UnsupportedVersion`] or
    /// [`SnapshotError::Truncated`] for a malformed nested header.
    pub fn nested(&mut self) -> Result<SnapshotReader<'a>, SnapshotError> {
        let (_, payload) = split_header(self.bytes()?)?;
        Ok(SnapshotReader { payload, pos: 0 })
    }

    /// Reads a nested container like [`nested`](Self::nested) and copies
    /// it out as a [`Verified`] container that outlives this reader.
    ///
    /// # Errors
    ///
    /// See [`nested`](Self::nested).
    pub fn nested_owned(&mut self) -> Result<Verified, SnapshotError> {
        let bytes = self.bytes()?;
        split_header(bytes)?;
        Ok(Verified {
            bytes: bytes.to_vec(),
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.payload.len())
            .ok_or(SnapshotError::Truncated)?;
        let slice = &self.payload[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the end of the payload (so for
    /// every primitive reader below).
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8).
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8).
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8).
    pub fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16")))
    }

    /// Reads a length (`u64`) back as `usize`. The value is untrusted: a
    /// container with a valid hash can still claim 2^60 elements. Loop
    /// on it — the element reads run out of payload and fail — but
    /// never pre-allocate from it beyond a small fixed bound.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8); also [`SnapshotError::Malformed`] when the
    /// value does not fit a `usize`.
    pub fn len(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?)
            .map_err(|_| SnapshotError::Malformed("length exceeds usize".into()))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8).
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8); also [`SnapshotError::Malformed`] on a tag
    /// other than 0/1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!("bad bool tag {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8); also [`SnapshotError::Malformed`] on
    /// invalid UTF-8.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("invalid UTF-8 in string".into()))
    }

    /// Reads a length-prefixed opaque byte blob, borrowed from the
    /// payload.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8).
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len()?;
        self.take(n)
    }

    /// Reads an RNG keystream position back into a generator.
    ///
    /// # Errors
    ///
    /// See [`u8`](Self::u8).
    pub fn rng(&mut self) -> Result<SimRng, SnapshotError> {
        let mut key = [0u32; 8];
        for k in &mut key {
            *k = self.u32()?;
        }
        let stream = self.u64()?;
        let counter = self.u64()?;
        let word_index = self.u8()?;
        Ok(SimRng::from_state(RngState {
            key,
            stream,
            counter,
            word_index,
        }))
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingBytes`] when bytes remain — the snapshot
    /// came from a differently-shaped network.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.payload.len() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes(self.payload.len() - self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.u128(1 << 100);
        w.len(12345);
        w.f64(3.5);
        w.f64(f64::NAN);
        w.bool(true);
        w.bool(false);
        w.str("chan:sw0->sw1");
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert_eq!(r.len().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "chan:sw0->sw1");
        r.finish().unwrap();
    }

    #[test]
    fn rng_position_roundtrips_through_payload() {
        let mut rng = SimRng::seed(77).child(3);
        for _ in 0..9 {
            let _ = rng.next_u64();
        }
        let mut w = SnapshotWriter::new();
        w.rng(&rng);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut restored = r.rng().unwrap();
        r.finish().unwrap();
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn byte_blobs_nest_containers() {
        let mut inner = SnapshotWriter::new();
        inner.u64(99);
        let blob = inner.finish();

        let mut w = SnapshotWriter::new();
        w.bytes(&blob);
        w.bytes(b"");
        let bytes = w.finish();

        let mut r = SnapshotReader::open(&bytes).unwrap();
        let got = r.bytes().unwrap();
        assert_eq!(got, blob);
        assert!(r.bytes().unwrap().is_empty());
        r.finish().unwrap();

        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut nested = r.nested().unwrap();
        assert_eq!(nested.u64().unwrap(), 99);
        nested.finish().unwrap();
        assert_eq!(r.nested().unwrap_err(), SnapshotError::Truncated);
    }

    /// A nested container rides on its parent's hash: its own header is
    /// checked, its own hash is not, and a damaged byte inside it fails
    /// the parent's check instead.
    #[test]
    fn nested_containers_are_header_checked_only() {
        let seal = |inner: &[u8]| {
            let mut w = SnapshotWriter::new();
            w.bytes(inner);
            w.finish()
        };
        let mut inner = SnapshotWriter::new();
        inner.u64(99);
        let blob = inner.finish();

        let mut stale_hash = blob.clone();
        stale_hash[16] ^= 1;
        let outer = seal(&stale_hash);
        let mut r = SnapshotReader::open(&outer).unwrap();
        assert_eq!(r.nested().unwrap().u64().unwrap(), 99);

        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 0xFF;
        let outer = seal(&bad_magic);
        let mut r = SnapshotReader::open(&outer).unwrap();
        assert_eq!(r.nested().unwrap_err(), SnapshotError::BadMagic);

        let outer = seal(&blob[..blob.len() - 1]);
        let mut r = SnapshotReader::open(&outer).unwrap();
        assert_eq!(r.nested_owned().unwrap_err(), SnapshotError::Truncated);

        let mut flipped = seal(&blob);
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            SnapshotReader::open(&flipped).unwrap_err(),
            SnapshotError::IntegrityMismatch { .. }
        ));
    }

    #[test]
    fn verified_containers_come_from_a_check_or_the_writer() {
        let mut w = SnapshotWriter::new();
        w.u64(5);
        w.bytes(&{
            let mut inner = SnapshotWriter::new();
            inner.str("inner");
            inner.finish()
        });
        let sealed = w.seal();
        let bytes = sealed.clone().into_bytes();
        assert_eq!(Verified::new(bytes.clone()).unwrap(), sealed);

        let mut r = sealed.reader();
        assert_eq!(r.u64().unwrap(), 5);
        let owned = r.nested_owned().unwrap();
        r.finish().unwrap();
        let mut inner = owned.reader();
        assert_eq!(inner.str().unwrap(), "inner");
        inner.finish().unwrap();

        let mut flipped = bytes;
        flipped[HEADER_LEN] ^= 1;
        assert!(matches!(
            Verified::new(flipped).unwrap_err(),
            SnapshotError::IntegrityMismatch { .. }
        ));
    }

    #[test]
    fn container_rejects_corruption() {
        let mut w = SnapshotWriter::new();
        w.u64(42);
        let good = w.finish();

        assert_eq!(
            SnapshotReader::open(&good[..10]).unwrap_err(),
            SnapshotError::Truncated
        );

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            SnapshotReader::open(&bad_magic).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut bad_version = good.clone();
        bad_version[4] = 0xFE;
        assert!(matches!(
            SnapshotReader::open(&bad_version).unwrap_err(),
            SnapshotError::UnsupportedVersion(_)
        ));

        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            SnapshotReader::open(&flipped).unwrap_err(),
            SnapshotError::IntegrityMismatch { .. }
        ));

        let mut truncated = good.clone();
        truncated.pop();
        assert_eq!(
            SnapshotReader::open(&truncated).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn unread_trailing_bytes_are_an_error() {
        let mut w = SnapshotWriter::new();
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let _ = r.u64().unwrap();
        assert_eq!(r.finish().unwrap_err(), SnapshotError::TrailingBytes(8));
    }

    #[test]
    fn errors_render_one_line() {
        for e in [
            SnapshotError::Truncated,
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion(9),
            SnapshotError::IntegrityMismatch {
                expected: 1,
                actual: 2,
            },
            SnapshotError::Malformed("bad tag".into()),
            SnapshotError::TrailingBytes(3),
        ] {
            let text = e.to_string();
            assert!(!text.is_empty());
            assert!(!text.contains('\n'));
        }
    }
}
