//! # xpipes-bench — experiment harness
//!
//! Regenerates every table and figure in the xpipes Lite paper's
//! evaluation, plus the ablations called out in DESIGN.md. The
//! [`experiments`] module computes the data (so integration tests can
//! assert the paper's qualitative claims); the criterion benches under
//! `benches/` print the paper-style tables and measure the underlying
//! engines. See EXPERIMENTS.md at the workspace root for the experiment
//! index and paper-vs-measured record.

pub mod cycle_engine;
pub mod experiments;
pub mod ledger;
pub mod progress;
pub mod table;

pub use progress::ProgressStream;
pub use table::Table;
