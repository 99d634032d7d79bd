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
//! * a reference behavioural core: the OCP slave memory behind every
//!   target NI ([`cores`]).
//!
//! # Examples
//!
//! ```
//! use xpipes_ocp::{BurstSeq, MCmd, Request, SlaveMemory};
//!
//! # fn main() -> Result<(), xpipes_ocp::OcpError> {
//! let req = Request::write(0x1000, vec![1, 2, 3, 4])?; // 4-beat burst
//! assert_eq!(req.cmd(), MCmd::Write);
//! assert_eq!(req.burst_len(), 4);
//! assert_eq!(req.burst_seq(), BurstSeq::Incr);
//! let mut mem = SlaveMemory::new(1);
//! assert!(mem.execute(&req).is_none()); // posted: no response
//! let resp = mem.execute(&Request::read(0x1008, 2)?).expect("reads respond");
//! assert_eq!(resp.data(), &[2, 3]);
//! # Ok(())
//! # }
//! ```

pub mod cores;
pub mod transaction;
pub mod types;

pub use cores::SlaveMemory;
pub use transaction::{OcpError, Request, Response};
pub use types::{BurstSeq, MCmd, SResp, Sideband, ThreadId};
