//! # xpipes-ocp — OCP 2.0 transaction protocol subset
//!
//! The xpipes Lite network interface is *transaction-centric*: its front end
//! speaks the Open Core Protocol to the attached IP core, and its back end
//! speaks the xpipes network protocol. This crate provides the OCP subset
//! the paper's NI supports:
//!
//! * read / write / non-posted write commands ([`MCmd`]),
//! * **efficient burst handling** (incrementing / wrapping / streaming
//!   bursts, one payload beat per datum — [`BurstSeq`], [`Request`]),
//! * independent request and response flows ([`Request`], [`Response`]),
//! * **threading extensions** ([`ThreadId`]) allowing multiple outstanding
//!   transactions,
//! * **sideband signals** such as interrupts and user flags ([`Sideband`]),
//! * a protocol-compliance [`monitor`] that checks beat streams against the
//!   OCP handshake and burst rules,
//! * a reference behavioural core: the OCP slave memory behind every
//!   target NI ([`cores`]).
//!
//! # Examples
//!
//! ```
//! use xpipes_ocp::{Request, MCmd, BurstSeq};
//!
//! # fn main() -> Result<(), xpipes_ocp::OcpError> {
//! let req = Request::write(0x1000, vec![1, 2, 3, 4])?; // 4-beat burst
//! assert_eq!(req.cmd(), MCmd::Write);
//! assert_eq!(req.burst_len(), 4);
//! assert_eq!(req.burst_seq(), BurstSeq::Incr);
//! let beats: Vec<_> = req.to_beats().collect();
//! assert!(beats[3].last);
//! # Ok(())
//! # }
//! ```

pub mod cores;
pub mod monitor;
pub mod transaction;
pub mod types;

pub use cores::SlaveMemory;
pub use monitor::{Monitor, Violation};
pub use transaction::{OcpError, ReqBeat, Request, RespBeat, Response};
pub use types::{BurstSeq, MCmd, SResp, Sideband, ThreadId};
