//! Transaction-level OCP: validated [`Request`]/[`Response`] objects.
//!
//! The xpipes Lite NI packetizes *per transaction* (one ~50-bit header) and
//! *per burst beat* (one payload register each); this module is the
//! transaction side of that boundary.

use std::error::Error;
use std::fmt;

use crate::types::{BurstSeq, MCmd, SResp, Sideband, ThreadId};

/// Errors raised when constructing or validating OCP transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OcpError {
    /// Burst length zero or above the 8-bit header field limit (255).
    BadBurstLength(usize),
    /// A write without payload, or a read with payload.
    PayloadMismatch { cmd: MCmd, beats: usize },
    /// Command cannot start a transaction (e.g. `Idle`).
    BadCommand(MCmd),
    /// Thread id above `ThreadId::MAX`.
    BadThread(u8),
    /// Response beat count differs from the request burst length.
    ResponseLengthMismatch { expected: u32, got: usize },
}

impl fmt::Display for OcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OcpError::BadBurstLength(n) => write!(f, "burst length {n} outside 1..=255"),
            OcpError::PayloadMismatch { cmd, beats } => {
                write!(f, "command {cmd} incompatible with {beats} payload beats")
            }
            OcpError::BadCommand(cmd) => write!(f, "command {cmd} cannot start a transaction"),
            OcpError::BadThread(t) => write!(f, "thread id {t} above maximum {}", ThreadId::MAX),
            OcpError::ResponseLengthMismatch { expected, got } => {
                write!(f, "response carries {got} beats, expected {expected}")
            }
        }
    }
}

impl Error for OcpError {}

/// A validated OCP request transaction.
///
/// Constructed through [`Request::read`], [`Request::write`] or the
/// [`RequestBuilder`]; invariants (burst length vs payload, thread range)
/// hold for every live value.
///
/// # Examples
///
/// ```
/// use xpipes_ocp::{Request, MCmd};
///
/// # fn main() -> Result<(), xpipes_ocp::OcpError> {
/// let rd = Request::read(0x2000, 8)?; // 8-beat burst read
/// assert_eq!(rd.cmd(), MCmd::Read);
/// assert!(rd.expects_response());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    cmd: MCmd,
    addr: u64,
    burst_len: u32,
    burst_seq: BurstSeq,
    data: Vec<u64>,
    byte_en: u8,
    thread: ThreadId,
    tag: u8,
    sideband: Sideband,
}

impl Request {
    /// Creates a single- or multi-beat burst read of `burst_len` beats.
    ///
    /// # Errors
    ///
    /// Returns [`OcpError::BadBurstLength`] for lengths outside `1..=255`.
    pub fn read(addr: u64, burst_len: u32) -> Result<Self, OcpError> {
        RequestBuilder::new(MCmd::Read, addr)
            .burst_len(burst_len)
            .build()
    }

    /// Creates a posted write burst carrying `data` (one beat per element).
    ///
    /// # Errors
    ///
    /// Returns [`OcpError::BadBurstLength`] when `data` is empty or longer
    /// than 255 beats.
    pub fn write(addr: u64, data: Vec<u64>) -> Result<Self, OcpError> {
        RequestBuilder::new(MCmd::Write, addr).data(data).build()
    }

    /// Master command.
    pub fn cmd(&self) -> MCmd {
        self.cmd
    }

    /// Transaction base address (`MAddr`).
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Number of burst beats.
    pub fn burst_len(&self) -> u32 {
        self.burst_len
    }

    /// Burst address sequence.
    pub fn burst_seq(&self) -> BurstSeq {
        self.burst_seq
    }

    /// Write payload (empty for reads).
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Consumes the request, handing its write payload on (e.g. to the
    /// packet that carries it) without a copy.
    pub fn into_data(self) -> Vec<u64> {
        self.data
    }

    /// Byte enables applied to every beat.
    pub fn byte_en(&self) -> u8 {
        self.byte_en
    }

    /// Thread id.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Initiator-chosen transaction tag (matches responses to requests).
    pub fn tag(&self) -> u8 {
        self.tag
    }

    /// Sideband signals travelling with the request.
    pub fn sideband(&self) -> Sideband {
        self.sideband
    }

    /// True when the target must send a [`Response`].
    pub fn expects_response(&self) -> bool {
        self.cmd.expects_response()
    }
}

/// A validated OCP response transaction.
///
/// # Examples
///
/// ```
/// use xpipes_ocp::{Request, Response, SResp};
///
/// # fn main() -> Result<(), xpipes_ocp::OcpError> {
/// let req = Request::read(0x0, 2)?;
/// let resp = Response::for_request(&req, vec![11, 22])?;
/// assert_eq!(resp.resp(), SResp::Dva);
/// assert_eq!(resp.data(), &[11, 22]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    resp: SResp,
    data: Vec<u64>,
    thread: ThreadId,
    tag: u8,
}

impl Response {
    /// Builds a `Dva` response matched to `req`, carrying `data` (which
    /// must contain one beat per requested beat for reads, and must be
    /// empty for non-posted writes).
    ///
    /// # Errors
    ///
    /// Returns [`OcpError::ResponseLengthMismatch`] when the beat count is
    /// wrong.
    pub fn for_request(req: &Request, data: Vec<u64>) -> Result<Self, OcpError> {
        let expected = match req.cmd() {
            MCmd::Read | MCmd::ReadEx => req.burst_len(),
            _ => 0,
        };
        if data.len() != expected as usize {
            return Err(OcpError::ResponseLengthMismatch {
                expected,
                got: data.len(),
            });
        }
        Ok(Response {
            resp: SResp::Dva,
            data,
            thread: req.thread(),
            tag: req.tag(),
        })
    }

    /// Reassembles a response from raw parts (used by the NI depacketizer).
    pub fn from_parts(resp: SResp, data: Vec<u64>, thread: ThreadId, tag: u8) -> Self {
        Response {
            resp,
            data,
            thread,
            tag,
        }
    }

    /// Response code.
    pub fn resp(&self) -> SResp {
        self.resp
    }

    /// Read payload.
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Consumes the response, handing its read payload on (e.g. to the
    /// packet that carries it) without a copy.
    pub fn into_data(self) -> Vec<u64> {
        self.data
    }

    /// Thread id.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Transaction tag.
    pub fn tag(&self) -> u8 {
        self.tag
    }
}

/// Builder for [`Request`] values with full parameter control.
///
/// # Examples
///
/// ```
/// use xpipes_ocp::{MCmd, BurstSeq, ThreadId};
/// use xpipes_ocp::transaction::RequestBuilder;
///
/// # fn main() -> Result<(), xpipes_ocp::OcpError> {
/// let req = RequestBuilder::new(MCmd::WriteNonPost, 0x400)
///     .data(vec![7, 8])
///     .burst_seq(BurstSeq::Wrap)
///     .thread(ThreadId(2))
///     .tag(5)
///     .build()?;
/// assert_eq!(req.burst_len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    cmd: MCmd,
    addr: u64,
    burst_len: Option<u32>,
    burst_seq: BurstSeq,
    data: Vec<u64>,
    byte_en: u8,
    thread: ThreadId,
    tag: u8,
    sideband: Sideband,
}

impl RequestBuilder {
    /// Starts a builder for command `cmd` at address `addr`.
    pub fn new(cmd: MCmd, addr: u64) -> Self {
        RequestBuilder {
            cmd,
            addr,
            burst_len: None,
            burst_seq: BurstSeq::Incr,
            data: Vec::new(),
            byte_en: 0xFF,
            thread: ThreadId(0),
            tag: 0,
            sideband: Sideband::NONE,
        }
    }

    /// Sets the burst length (reads; writes infer it from `data`).
    #[must_use]
    pub fn burst_len(mut self, len: u32) -> Self {
        self.burst_len = Some(len);
        self
    }

    /// Sets the burst address sequence.
    #[must_use]
    pub fn burst_seq(mut self, seq: BurstSeq) -> Self {
        self.burst_seq = seq;
        self
    }

    /// Sets the write payload (one beat per element).
    #[must_use]
    pub fn data(mut self, data: Vec<u64>) -> Self {
        self.data = data;
        self
    }

    /// Sets byte enables.
    #[must_use]
    pub fn byte_en(mut self, en: u8) -> Self {
        self.byte_en = en;
        self
    }

    /// Sets the thread id.
    #[must_use]
    pub fn thread(mut self, thread: ThreadId) -> Self {
        self.thread = thread;
        self
    }

    /// Sets the transaction tag.
    #[must_use]
    pub fn tag(mut self, tag: u8) -> Self {
        self.tag = tag;
        self
    }

    /// Sets sideband signals.
    #[must_use]
    pub fn sideband(mut self, sb: Sideband) -> Self {
        self.sideband = sb;
        self
    }

    /// Validates and builds the request.
    ///
    /// # Errors
    ///
    /// * [`OcpError::BadCommand`] — `Idle` cannot start a transaction.
    /// * [`OcpError::PayloadMismatch`] — payload presence must match the
    ///   command's data direction.
    /// * [`OcpError::BadBurstLength`] — length outside `1..=255`.
    /// * [`OcpError::BadThread`] — thread id above `ThreadId::MAX`.
    pub fn build(self) -> Result<Request, OcpError> {
        if self.cmd == MCmd::Idle {
            return Err(OcpError::BadCommand(self.cmd));
        }
        if self.thread.0 > ThreadId::MAX {
            return Err(OcpError::BadThread(self.thread.0));
        }
        let burst_len = if self.cmd.carries_data() {
            if self.data.is_empty() {
                return Err(OcpError::PayloadMismatch {
                    cmd: self.cmd,
                    beats: 0,
                });
            }
            if let Some(len) = self.burst_len {
                if len as usize != self.data.len() {
                    return Err(OcpError::BadBurstLength(len as usize));
                }
            }
            self.data.len() as u32
        } else {
            if !self.data.is_empty() {
                return Err(OcpError::PayloadMismatch {
                    cmd: self.cmd,
                    beats: self.data.len(),
                });
            }
            self.burst_len.unwrap_or(1)
        };
        if burst_len == 0 || burst_len > 255 {
            return Err(OcpError::BadBurstLength(burst_len as usize));
        }
        Ok(Request {
            cmd: self.cmd,
            addr: self.addr,
            burst_len,
            burst_seq: self.burst_seq,
            data: self.data,
            byte_en: self.byte_en,
            thread: self.thread,
            tag: self.tag,
            sideband: self.sideband,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_request_validates() {
        let req = Request::read(0x100, 4).expect("valid read");
        assert_eq!(req.burst_len(), 4);
        assert!(req.expects_response());
        assert!(req.data().is_empty());
    }

    #[test]
    fn write_request_infers_burst_len() {
        let req = Request::write(0x0, vec![1, 2, 3]).expect("valid write");
        assert_eq!(req.burst_len(), 3);
        assert!(!req.expects_response());
    }

    #[test]
    fn zero_burst_rejected() {
        assert_eq!(Request::read(0, 0), Err(OcpError::BadBurstLength(0)));
        assert!(matches!(
            Request::write(0, vec![]),
            Err(OcpError::PayloadMismatch { .. })
        ));
    }

    #[test]
    fn oversize_burst_rejected() {
        assert_eq!(Request::read(0, 256), Err(OcpError::BadBurstLength(256)));
        assert!(Request::read(0, 255).is_ok());
    }

    #[test]
    fn idle_cannot_build() {
        let err = RequestBuilder::new(MCmd::Idle, 0).build().unwrap_err();
        assert_eq!(err, OcpError::BadCommand(MCmd::Idle));
    }

    #[test]
    fn read_with_payload_rejected() {
        let err = RequestBuilder::new(MCmd::Read, 0)
            .data(vec![1])
            .build()
            .unwrap_err();
        assert!(matches!(err, OcpError::PayloadMismatch { .. }));
    }

    #[test]
    fn thread_limit_enforced() {
        let err = RequestBuilder::new(MCmd::Read, 0)
            .thread(ThreadId(16))
            .build()
            .unwrap_err();
        assert_eq!(err, OcpError::BadThread(16));
        assert!(RequestBuilder::new(MCmd::Read, 0)
            .thread(ThreadId(15))
            .build()
            .is_ok());
    }

    #[test]
    fn explicit_len_must_match_payload() {
        let err = RequestBuilder::new(MCmd::Write, 0)
            .data(vec![1, 2])
            .burst_len(3)
            .build()
            .unwrap_err();
        assert_eq!(err, OcpError::BadBurstLength(3));
    }

    #[test]
    fn response_matching() {
        let req = Request::read(0, 2).unwrap();
        let ok = Response::for_request(&req, vec![5, 6]).unwrap();
        assert_eq!(ok.data(), &[5, 6]);
        let err = Response::for_request(&req, vec![5]).unwrap_err();
        assert_eq!(
            err,
            OcpError::ResponseLengthMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn nonposted_write_ack_has_no_data() {
        let req = RequestBuilder::new(MCmd::WriteNonPost, 0)
            .data(vec![1])
            .build()
            .unwrap();
        let resp = Response::for_request(&req, vec![]).unwrap();
        assert_eq!(resp.resp(), SResp::Dva);
        assert!(resp.data().is_empty());
        assert!(Response::for_request(&req, vec![1]).is_err());
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(
            OcpError::BadBurstLength(0).to_string(),
            "burst length 0 outside 1..=255"
        );
        assert!(OcpError::BadThread(99).to_string().contains("99"));
    }
}
