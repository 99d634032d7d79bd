//! # xpipes — the xpipes Lite NoC design library
//!
//! A Rust reproduction of **"xpipes Lite: A Synthesis Oriented Design
//! Library for Networks on Chips"** (Stergiou et al., DATE 2005): a
//! high-performance, highly parameterizable library of NoC components —
//! network interfaces, switches and pipelined links — plus the glue to
//! assemble and simulate complete application-specific networks.
//!
//! ## Components (one module per paper component)
//!
//! * [`flit`] / [`header`] / [`packet`] — the network protocol: a ~50-bit
//!   header register per transaction and one payload register per burst
//!   beat, decomposed into flits of the configured width.
//! * [`arbiter`] — fixed-priority and round-robin switch arbitration.
//! * [`flow_control`] — **ACK/nACK go-back-N** retransmission designed for
//!   pipelined, unreliable links.
//! * [`link`] — configurable-depth pipelined links with error injection.
//! * `switch` — the **2-stage pipelined, output-queued wormhole switch**
//!   with source-based routing.
//! * [`ni`] — OCP-fronted initiator and target network interfaces with
//!   routing LUTs and burst-efficient packetization.
//! * [`Elaboration`] — a [`NocSpec`](xpipes_topology::NocSpec)
//!   validated, routed and sized once; every view reads it.
//! * [`noc`] — whole-network assembly from an elaboration and
//!   cycle-accurate simulation.
//! * [`monitor`] — online protocol invariant checkers (exactly-once
//!   in-order delivery, sequence aliasing, liveness, flit conservation)
//!   for fault-injection campaigns.
//!
//! ## Quick start
//!
//! ```
//! use xpipes_topology::builders::mesh;
//! use xpipes_topology::NocSpec;
//! use xpipes::noc::Noc;
//! use xpipes_ocp::Request;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Describe a 2x2 mesh with one CPU and one memory.
//! let mut b = mesh(2, 2)?;
//! let cpu = b.attach_initiator("cpu", (0, 0))?;
//! let mem = b.attach_target("mem", (1, 1))?;
//! let mut spec = NocSpec::new("demo", b.into_topology());
//! spec.map_address(mem, 0x0, 0x10000)?;
//!
//! // Instantiate and run.
//! let mut noc = Noc::new(&spec)?;
//! noc.submit(cpu, Request::write(0x100, vec![42])?)?;
//! noc.run(200);
//! assert_eq!(noc.stats().packets_delivered, 1);
//! # Ok(())
//! # }
//! ```

pub mod arbiter;
pub(crate) mod channel;
pub mod config;
mod elaboration;
pub mod error;
pub mod flit;
pub mod flow_control;
pub mod header;
pub mod link;
pub mod monitor;
pub mod ni;
pub mod noc;
pub mod packet;
pub(crate) mod snap;
pub(crate) mod switch;

pub use arbiter::Arbiter;
pub use config::{NiConfig, SwitchConfig};
pub use elaboration::Elaboration;
pub use error::XpipesError;
pub use flit::{Flit, FlitKind, FlitMeta};
pub use header::Header;
pub use monitor::{InvariantKind, InvariantViolation, MonitorConfig};
pub use noc::{Noc, NocStats};
pub use packet::Packet;
