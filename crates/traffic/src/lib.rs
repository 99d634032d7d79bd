//! # xpipes-traffic — workloads and traffic generation
//!
//! Evaluation traffic for assembled xpipes networks:
//!
//! * [`pattern`] — synthetic destination patterns (uniform random,
//!   transpose, bit-complement, hotspot, nearest-neighbour),
//! * [`generator`] — open-loop Bernoulli injectors that drive a
//!   [`Noc`](xpipes::noc::Noc) at a configured offered load, and
//!   [`WarmStart`], the checkpoint of a warmed network + injector pair
//!   that campaigns and replays branch off,
//! * [`runner`] — warm-up / measure orchestration producing load–latency
//!   points and full sweep curves, serial or on a worker pool,
//! * [`appdriven`] — task-graph-driven traffic reproducing application
//!   communication (used by the SunMap evaluation flow),
//! * [`faultcampaign`] — seeded fault-injection campaigns sweeping fault
//!   models across error-rate grids with protocol invariant monitoring,
//! * [`journal`] — the crash-resumable campaign journal directory that
//!   `faultcampaign --resume` and `xpipesd` share.
//!
//! # Examples
//!
//! ```
//! use xpipes_topology::builders::mesh;
//! use xpipes_topology::NocSpec;
//! use xpipes_traffic::{pattern::Pattern, runner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = mesh(2, 2)?;
//! for i in 0..2 {
//!     b.attach_initiator(format!("cpu{i}"), (i, 0))?;
//!     b.attach_target(format!("mem{i}"), (i, 1))?;
//! }
//! let mut spec = NocSpec::new("lat", b.into_topology());
//! let targets: Vec<_> = spec.topology.nis_of_kind(xpipes_topology::NiKind::Target)
//!     .map(|a| a.ni).collect();
//! for (i, t) in targets.iter().enumerate() {
//!     spec.map_address(*t, (i as u64) << 20, 1 << 20)?;
//! }
//! let point = runner::measure(&spec, Pattern::Uniform, 0.01, 500, 2000, 7)?;
//! assert!(point.avg_latency_cycles > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod appdriven;
pub mod faultcampaign;
pub mod generator;
pub mod journal;
pub mod pattern;
pub mod runner;

pub use faultcampaign::{
    assemble_report, campaign_spec, config_fingerprint, grid_size, run_campaign,
    run_campaign_streaming, run_campaign_warm, run_grid_point, warm_checkpoint, CampaignConfig,
    CompletedPoint,
};
pub use generator::{Injector, InjectorConfig, WarmStart};
pub use pattern::Pattern;
pub use runner::{measure, sweep, LoadPoint};
