//! The campaign-service wire protocol: length-prefixed frames over TCP.
//!
//! Every exchange between `xpipesd`, its workers, and `xpipesadm` is a
//! sequence of frames. A frame is one kind byte, a little-endian `u32`
//! payload length, and the payload:
//!
//! * **JSON frames** (kind `0`) carry one UTF-8 [`Json`] document — all
//!   control messages (`submit`, `poll`, `work`, `result`, `status`,
//!   `watch` streams, errors) are JSON frames with a `"type"` field;
//! * **blob frames** (kind `1`) carry opaque bytes — always an `XPSN`
//!   snapshot container (a `WarmStart` checkpoint shipped to a worker,
//!   or a `CompletedPoint` shipped back), so payload integrity is
//!   verified by the container's own FNV hash when it is decoded, not
//!   by the framing layer.
//!
//! A blob frame never travels alone: the JSON frame immediately before
//! it announces what the blob is (a `warm` message before a warm
//! checkpoint, a `result` message before a completed-point container).
//! Frames are bounded by [`MAX_FRAME`] so a garbled length prefix
//! cannot make a peer allocate unbounded memory.
//!
//! Every stream sets `TCP_NODELAY` — outgoing ones in [`connect`],
//! incoming ones in the server's accept loop. A message and its blob are
//! two small writes followed by a read; with Nagle's algorithm on, the
//! second write waits for the peer's ACK of the first, which the peer
//! delays (~40 ms) because it has nothing to say until both arrived.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use xpipes_sim::Json;

/// Upper bound on a frame payload. Campaign warm-start checkpoints on
/// the reference network are a few hundred kilobytes; anything near
/// this bound indicates a corrupted length prefix, not real work.
pub const MAX_FRAME: usize = 64 << 20;

const KIND_JSON: u8 = 0;
const KIND_BLOB: u8 = 1;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A control message.
    Json(Json),
    /// An opaque byte payload (an `XPSN` snapshot container).
    Blob(Vec<u8>),
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the connection at a frame boundary — the normal
    /// end of a conversation, not a protocol violation.
    Closed,
    /// An I/O failure, including a connection cut mid-frame.
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// An unknown frame-kind byte.
    BadKind(u8),
    /// A JSON frame whose payload does not parse.
    BadJson(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Io(e) => write!(f, "connection error: {e}"),
            ProtoError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte bound")
            }
            ProtoError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::BadJson(e) => write!(f, "malformed JSON frame: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Opens a stream to `addr` with `TCP_NODELAY` set — the one place the
/// service's outgoing connections are made.
///
/// # Errors
///
/// One line naming the address and the failed step.
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("cannot set TCP_NODELAY on the connection to {addr}: {e}"))?;
    Ok(stream)
}

/// Writes one JSON frame.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_json(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    let payload = msg.render_compact();
    write_frame(w, KIND_JSON, payload.as_bytes())
}

/// Writes one blob frame.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_blob(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    write_frame(w, KIND_BLOB, bytes)
}

fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME, "oversized frame written");
    // One write per frame. Header and payload as two writes is the
    // write-write-read pattern Nagle's algorithm punishes: the payload
    // waits for the ACK of the 5-byte header, which the peer delays
    // (~40 ms) because it has nothing to send until the frame is whole.
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads the next frame.
///
/// # Errors
///
/// [`ProtoError::Closed`] on a clean end-of-stream at a frame boundary;
/// other variants describe a cut or garbled stream.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtoError> {
    let mut kind = [0u8; 1];
    // A clean EOF before the first header byte is a closed conversation;
    // an EOF anywhere later is a cut frame.
    match r.read(&mut kind) {
        Ok(0) => return Err(ProtoError::Closed),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes).map_err(ProtoError::Io)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(ProtoError::Io)?;
    match kind[0] {
        KIND_BLOB => Ok(Frame::Blob(payload)),
        KIND_JSON => {
            let text = String::from_utf8(payload)
                .map_err(|_| ProtoError::BadJson("payload is not UTF-8".into()))?;
            Json::parse(&text)
                .map(Frame::Json)
                .map_err(ProtoError::BadJson)
        }
        other => Err(ProtoError::BadKind(other)),
    }
}

/// Reads the next frame and requires it to be JSON.
///
/// # Errors
///
/// [`ProtoError::BadJson`] when a blob arrives instead, plus every
/// [`read_frame`] failure.
pub fn read_json(r: &mut impl Read) -> Result<Json, ProtoError> {
    match read_frame(r)? {
        Frame::Json(json) => Ok(json),
        Frame::Blob(_) => Err(ProtoError::BadJson(
            "expected a JSON frame, got a blob".into(),
        )),
    }
}

/// Reads the next frame and requires it to be a blob.
///
/// # Errors
///
/// [`ProtoError::BadJson`] when JSON arrives instead, plus every
/// [`read_frame`] failure.
pub fn read_blob(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    match read_frame(r)? {
        Frame::Blob(bytes) => Ok(bytes),
        Frame::Json(_) => Err(ProtoError::BadJson(
            "expected a blob frame, got JSON".into(),
        )),
    }
}

/// Starts a control message of the given `"type"`.
#[must_use]
pub fn msg(kind: &str) -> xpipes_sim::json::ObjectBuilder {
    Json::object().field("type", Json::str(kind))
}

/// The message's `"type"` field.
#[must_use]
pub fn msg_type(json: &Json) -> &str {
    json.get("type").and_then(Json::as_str).unwrap_or("")
}

/// A one-line error reply.
#[must_use]
pub(crate) fn error_msg(message: impl Into<String>) -> Json {
    msg("error")
        .field("message", Json::str(message.into()))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_byte_pipe() {
        let mut wire = Vec::new();
        let hello = msg("hello").field("id", Json::UInt(7)).build();
        write_json(&mut wire, &hello).unwrap();
        write_blob(&mut wire, b"XPSN-ish payload").unwrap();
        write_json(&mut wire, &msg("bye").build()).unwrap();

        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Json(hello));
        assert_eq!(read_blob(&mut r).unwrap(), b"XPSN-ish payload");
        let bye = read_json(&mut r).unwrap();
        assert_eq!(msg_type(&bye), "bye");
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Closed)));
    }

    #[test]
    fn oversized_and_garbled_frames_are_rejected() {
        // A length prefix past the bound.
        let mut wire = vec![KIND_JSON];
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(ProtoError::TooLarge(_))
        ));

        // An unknown kind byte.
        let mut wire = vec![9u8];
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(b"{}");
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(ProtoError::BadKind(9))
        ));

        // A cut mid-frame is an I/O error, not a clean close.
        let mut wire = Vec::new();
        write_blob(&mut wire, &[0u8; 64]).unwrap();
        wire.truncate(wire.len() - 10);
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(ProtoError::Io(_))
        ));

        // A JSON frame that does not parse.
        let mut wire = vec![KIND_JSON];
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(b"{x}");
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(ProtoError::BadJson(_))
        ));
    }

    #[test]
    fn expectation_helpers_flag_the_wrong_kind() {
        let mut wire = Vec::new();
        write_blob(&mut wire, b"blob").unwrap();
        assert!(matches!(
            read_json(&mut wire.as_slice()),
            Err(ProtoError::BadJson(_))
        ));
        let mut wire = Vec::new();
        write_json(&mut wire, &msg("x").build()).unwrap();
        assert!(matches!(
            read_blob(&mut wire.as_slice()),
            Err(ProtoError::BadJson(_))
        ));
    }

    #[test]
    fn errors_render_one_line() {
        for e in [
            ProtoError::Closed,
            ProtoError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "pipe")),
            ProtoError::TooLarge(1 << 30),
            ProtoError::BadKind(3),
            ProtoError::BadJson("bad".into()),
        ] {
            let text = e.to_string();
            assert!(!text.is_empty() && !text.contains('\n'), "{text}");
        }
    }
}
