//! # xpipes-compiler — the xpipesCompiler
//!
//! The paper's flow — "XpipesCompiler: NoC specification → routing
//! tables plus xpipes components" — produces **orthogonal synthesis and
//! simulation design flows** from one description. This crate reproduces
//! that tool:
//!
//! * [`spec_text`] — a human-writable NoC specification text format with
//!   a parser and printer (round-trip stable),
//! * [`instantiate`] — specification → runnable cycle-accurate network
//!   (the *simulation view*),
//! * [`emit`] — generation of a structural Verilog top (the *synthesis
//!   view*), a SystemC-style module skeleton (the original library's
//!   native simulation language), and gate-level Verilog from synthesis
//!   netlists,
//! * [`routing_report`] — the per-NI LUT contents (routing tables),
//! * [`synthesize_spec`] — the synthesis report: which area/power
//!   library component each switch and NI of a specification maps to,
//!   and what it costs at a clock target, read through a caller-owned
//!   [`SynthCache`] that synthesizes each distinct component once.
//!
//! # Examples
//!
//! ```
//! use xpipes_compiler::{parse_spec, print_spec, instantiate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = "
//! noc demo {
//!   flit_width 32
//!   switch s0
//!   switch s1
//!   link s0.0 <-> s1.0 stages 1
//!   initiator cpu @ s0.1
//!   target mem @ s1.1 base 0x0 size 0x10000
//! }";
//! let spec = parse_spec(text)?;
//! assert_eq!(print_spec(&spec), print_spec(&parse_spec(&print_spec(&spec))?));
//! let noc = instantiate(&spec)?;
//! assert_eq!(noc.name(), "demo");
//! # Ok(())
//! # }
//! ```

pub mod emit;
pub mod spec_text;
pub mod synthesis;

pub use spec_text::{parse_spec, print_spec, ParseSpecError};
pub use synthesis::{synthesize_spec, CacheStats, Component, SpecSynthesis, SynthCache};

use xpipes::noc::Noc;
use xpipes::XpipesError;
use xpipes_topology::spec::NocSpec;

/// Instantiates the simulation view: a runnable [`Noc`].
///
/// # Errors
///
/// Propagates specification validation and routing failures.
pub fn instantiate(spec: &NocSpec) -> Result<Noc, XpipesError> {
    Noc::new(spec)
}

/// Renders the routing tables (each initiator/target NI's LUT) as text.
///
/// # Errors
///
/// Propagates routing failures for disconnected specifications.
pub fn routing_report(spec: &NocSpec) -> Result<String, XpipesError> {
    use std::fmt::Write as _;
    let tables = spec.routing_tables()?;
    let mut out = String::new();
    let _ = writeln!(out, "# routing tables for '{}'", spec.name);
    let mut nis: Vec<_> = spec.topology.nis().to_vec();
    nis.sort_by_key(|a| a.ni);
    for att in &nis {
        let _ = writeln!(out, "lut {} ({} {})", att.name, att.ni, att.kind);
        for (dst, route) in tables.lut_for(att.ni) {
            let dst_name = spec
                .topology
                .ni(dst)
                .map(|a| a.name.as_str())
                .unwrap_or("?");
            let _ = writeln!(out, "  -> {dst_name} ({dst}): {route}");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_topology::builders::mesh;

    #[test]
    fn routing_report_lists_all_nis() {
        let mut b = mesh(2, 1).unwrap();
        b.attach_initiator("cpu", (0, 0)).unwrap();
        let mem = b.attach_target("mem", (1, 0)).unwrap();
        let mut spec = NocSpec::new("r", b.into_topology());
        spec.map_address(mem, 0, 64).unwrap();
        let report = routing_report(&spec).unwrap();
        assert!(report.contains("lut cpu"));
        assert!(report.contains("lut mem"));
        assert!(report.contains("-> mem"));
        assert!(report.contains("-> cpu"));
    }

    #[test]
    fn instantiate_runs() {
        let mut b = mesh(2, 1).unwrap();
        b.attach_initiator("cpu", (0, 0)).unwrap();
        let mem = b.attach_target("mem", (1, 0)).unwrap();
        let mut spec = NocSpec::new("sim", b.into_topology());
        spec.map_address(mem, 0, 64).unwrap();
        let mut noc = instantiate(&spec).unwrap();
        noc.run(10);
        assert_eq!(noc.now().as_u64(), 10);
    }
}
