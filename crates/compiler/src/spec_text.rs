//! The NoC specification text format: parser and printer.
//!
//! Grammar (line oriented; `#` starts a comment):
//!
//! ```text
//! noc <name> {
//!   flit_width <bits>
//!   arbitration rr|fixed
//!   queue_depth <flits>
//!   error_rate <p>
//!   topology mesh|torus <cols> <rows>   # template instantiation
//!   topology ring <n>
//!   switch <name>
//!   link <sw>.<port> <-> <sw>.<port> [stages <n>]
//!   initiator <name> @ <sw>.<port>
//!   initiator <name> @ (x,y)            # grid coordinate, auto port
//!   target <name> @ <sw>.<port> base <addr> size <bytes>
//!   target <name> @ (x,y) base <addr> size <bytes>
//! }
//! ```
//!
//! The `topology` directive performs the xpipesCompiler's hierarchical
//! template instantiation: it expands a whole regular fabric (switches
//! named `sw_<x>_<y>` for grids, `ring<i>` for rings) that later
//! directives refer to — by name/port, or by `(x,y)` coordinate with
//! automatic port assignment on grids.
//!
//! Numbers accept decimal or `0x` hexadecimal. [`print_spec`] renders a
//! specification back into the fully expanded format; `parse(print(s))`
//! is identical to `parse`'s normalisation of `s`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use xpipes::Header;
use xpipes_topology::spec::{Arbitration, NocSpec};
use xpipes_topology::{NiKind, PortId, SwitchId, Topology};

/// Parse errors with line information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseSpecError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl ParseSpecError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseSpecError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseSpecError {}

fn parse_number(tok: &str, line: usize) -> Result<u64, ParseSpecError> {
    let parsed = if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse()
    };
    parsed.map_err(|_| ParseSpecError::new(line, format!("bad number '{tok}'")))
}

/// A number for a `u32` field; one above `u32::MAX` is an error, not
/// a wrapped value.
fn parse_u32(tok: &str, line: usize) -> Result<u32, ParseSpecError> {
    u32::try_from(parse_number(tok, line)?)
        .map_err(|_| ParseSpecError::new(line, format!("number '{tok}' exceeds {}", u32::MAX)))
}

fn parse_port_ref(
    tok: &str,
    switches: &HashMap<String, SwitchId>,
    line: usize,
) -> Result<(SwitchId, PortId), ParseSpecError> {
    let (sw, port) = tok.rsplit_once('.').ok_or_else(|| {
        ParseSpecError::new(line, format!("expected <switch>.<port>, got '{tok}'"))
    })?;
    let id = switches
        .get(sw)
        .copied()
        .ok_or_else(|| ParseSpecError::new(line, format!("unknown switch '{sw}'")))?;
    let p: u8 = port
        .parse()
        .map_err(|_| ParseSpecError::new(line, format!("bad port '{port}'")))?;
    Ok((id, PortId(p)))
}

/// Parses a `(x,y)` grid coordinate token.
fn parse_coord(tok: &str) -> Option<(usize, usize)> {
    let inner = tok.strip_prefix('(')?.strip_suffix(')')?;
    let (x, y) = inner.split_once(',')?;
    Some((x.trim().parse().ok()?, y.trim().parse().ok()?))
}

/// Parses the specification text format.
///
/// # Errors
///
/// [`ParseSpecError`] with the offending line on any syntax or semantic
/// problem (duplicate switches, unknown references, port conflicts, a
/// 65th NI).
pub fn parse_spec(text: &str) -> Result<NocSpec, ParseSpecError> {
    let mut name: Option<String> = None;
    let mut topo = Topology::new();
    let mut switches: HashMap<String, SwitchId> = HashMap::new();
    // Grid dimensions when a mesh/torus template was instantiated.
    let mut grid_dims: Option<(usize, usize)> = None;
    let mut flit_width = NocSpec::DEFAULT_FLIT_WIDTH;
    let mut arbitration = Arbitration::RoundRobin;
    let mut queue_depth = NocSpec::DEFAULT_QUEUE_DEPTH;
    let mut error_rate = 0.0f64;
    // Address windows deferred until the topology is complete.
    let mut windows: Vec<(String, u64, u64, usize)> = Vec::new();
    let mut closed = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let code = raw.split('#').next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        if closed {
            return Err(ParseSpecError::new(line, "content after closing '}'"));
        }
        let toks: Vec<&str> = code.split_whitespace().collect();
        match toks[0] {
            "noc" => {
                if toks.len() < 3 || toks[2] != "{" {
                    return Err(ParseSpecError::new(line, "expected: noc <name> {"));
                }
                if name.is_some() {
                    return Err(ParseSpecError::new(line, "duplicate 'noc' header"));
                }
                name = Some(toks[1].to_string());
            }
            "}" => {
                closed = true;
            }
            "flit_width" if toks.len() == 2 => {
                flit_width = parse_u32(toks[1], line)?;
            }
            "queue_depth" if toks.len() == 2 => {
                queue_depth = parse_u32(toks[1], line)?;
            }
            "error_rate" if toks.len() == 2 => {
                error_rate = toks[1]
                    .parse()
                    .map_err(|_| ParseSpecError::new(line, "bad error rate"))?;
            }
            "arbitration" if toks.len() == 2 => {
                arbitration = match toks[1] {
                    "rr" | "round-robin" => Arbitration::RoundRobin,
                    "fixed" => Arbitration::Fixed,
                    other => {
                        return Err(ParseSpecError::new(
                            line,
                            format!("unknown arbitration '{other}'"),
                        ))
                    }
                };
            }
            "topology" if toks.len() >= 3 => {
                if !switches.is_empty() {
                    return Err(ParseSpecError::new(
                        line,
                        "topology template must precede explicit switches",
                    ));
                }
                let built = match (toks[1], toks.len()) {
                    ("mesh", 4) | ("torus", 4) => {
                        let cols = parse_number(toks[2], line)? as usize;
                        let rows = parse_number(toks[3], line)? as usize;
                        grid_dims = Some((cols, rows));
                        let b = if toks[1] == "mesh" {
                            xpipes_topology::builders::mesh(cols, rows)
                        } else {
                            xpipes_topology::builders::torus(cols, rows)
                        };
                        b.map(xpipes_topology::builders::GridBuilder::into_topology)
                    }
                    ("ring", 3) => {
                        let n = parse_number(toks[2], line)? as usize;
                        xpipes_topology::builders::ring(n)
                    }
                    (other, _) => {
                        return Err(ParseSpecError::new(
                            line,
                            format!("unknown topology template '{other}'"),
                        ))
                    }
                };
                topo = built.map_err(|e| ParseSpecError::new(line, e.to_string()))?;
                for s in topo.switches() {
                    let n = topo.switch_name(s).unwrap_or_default().to_string();
                    switches.insert(n, s);
                }
            }
            "switch" if toks.len() == 2 => {
                let sw_name = toks[1].to_string();
                if switches.contains_key(&sw_name) {
                    return Err(ParseSpecError::new(
                        line,
                        format!("duplicate switch '{sw_name}'"),
                    ));
                }
                let id = topo.add_switch(sw_name.clone());
                switches.insert(sw_name, id);
            }
            "link" if toks.len() >= 4 && toks[2] == "<->" => {
                let (a, ap) = parse_port_ref(toks[1], &switches, line)?;
                let (b, bp) = parse_port_ref(toks[3], &switches, line)?;
                let stages = if toks.len() >= 6 && toks[4] == "stages" {
                    parse_u32(toks[5], line)?
                } else {
                    1
                };
                topo.add_bidi_link(a, ap, b, bp, stages)
                    .map_err(|e| ParseSpecError::new(line, e.to_string()))?;
            }
            "initiator" | "target" if toks.len() >= 4 && toks[2] == "@" => {
                let kind = if toks[0] == "initiator" {
                    NiKind::Initiator
                } else {
                    NiKind::Target
                };
                let ni = if let Some((x, y)) = parse_coord(toks[3]) {
                    let (cols, rows) = grid_dims.ok_or_else(|| {
                        ParseSpecError::new(
                            line,
                            "coordinate attach requires a mesh/torus topology template",
                        )
                    })?;
                    if x >= cols || y >= rows {
                        return Err(ParseSpecError::new(
                            line,
                            format!("coordinate ({x},{y}) outside the {cols}x{rows} grid"),
                        ));
                    }
                    let sw = switches[&format!("sw_{x}_{y}")];
                    topo.attach_ni_auto(toks[1], kind, sw)
                        .map_err(|e| ParseSpecError::new(line, e.to_string()))?
                } else {
                    let (sw, port) = parse_port_ref(toks[3], &switches, line)?;
                    topo.attach_ni(toks[1], kind, sw, port)
                        .map_err(|e| ParseSpecError::new(line, e.to_string()))?
                };
                // Ids are handed out densely in attachment order, and the
                // packet header names its source NI in 6 bits.
                if ni.0 >= Header::MAX_NIS {
                    return Err(ParseSpecError::new(
                        line,
                        format!(
                            "'{}' is NI {}: a network holds at most {} NIs \
                             (the header's {}-bit src_ni field)",
                            toks[1],
                            ni.0 + 1,
                            Header::MAX_NIS,
                            Header::SRC_NI_BITS
                        ),
                    ));
                }
                if kind == NiKind::Target {
                    if toks.len() != 8 || toks[4] != "base" || toks[6] != "size" {
                        return Err(ParseSpecError::new(
                            line,
                            "target needs: base <addr> size <bytes>",
                        ));
                    }
                    let base = parse_number(toks[5], line)?;
                    let size = parse_number(toks[7], line)?;
                    windows.push((toks[1].to_string(), base, size, ni.0));
                }
            }
            other => {
                return Err(ParseSpecError::new(
                    line,
                    format!("unrecognised directive '{other}'"),
                ));
            }
        }
    }

    let name = name.ok_or_else(|| ParseSpecError::new(1, "missing 'noc <name> {' header"))?;
    if !closed {
        return Err(ParseSpecError::new(
            text.lines().count(),
            "missing closing '}'",
        ));
    }
    let mut spec = NocSpec::new(name, topo);
    spec.flit_width = flit_width;
    spec.arbitration = arbitration;
    spec.output_queue_depth = queue_depth;
    spec.link_error_rate = error_rate;
    for (ni_name, base, size, ni_idx) in windows {
        spec.map_address(xpipes_topology::NiId(ni_idx), base, size)
            .map_err(|e| ParseSpecError::new(0, format!("address window of '{ni_name}': {e}")))?;
    }
    Ok(spec)
}

/// Renders a specification in the text format (round-trip stable with
/// [`parse_spec`]).
pub fn print_spec(spec: &NocSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "noc {} {{", spec.name);
    let _ = writeln!(out, "  flit_width {}", spec.flit_width);
    let arb = match spec.arbitration {
        Arbitration::RoundRobin => "rr",
        Arbitration::Fixed => "fixed",
    };
    let _ = writeln!(out, "  arbitration {arb}");
    let _ = writeln!(out, "  queue_depth {}", spec.output_queue_depth);
    let _ = writeln!(out, "  error_rate {}", spec.link_error_rate);
    for s in spec.topology.switches() {
        let _ = writeln!(
            out,
            "  switch {}",
            spec.topology.switch_name(s).unwrap_or("?")
        );
    }
    // Print each bidirectional pair once (canonical direction: the edge
    // whose (from, port) is lexicographically smallest).
    let mut seen = std::collections::HashSet::new();
    for l in spec.topology.links() {
        let key = if (l.from, l.from_port) <= (l.to, l.to_port) {
            (l.from, l.from_port, l.to, l.to_port)
        } else {
            (l.to, l.to_port, l.from, l.from_port)
        };
        if !seen.insert(key) {
            continue;
        }
        let _ = writeln!(
            out,
            "  link {}.{} <-> {}.{} stages {}",
            spec.topology.switch_name(key.0).unwrap_or("?"),
            key.1 .0,
            spec.topology.switch_name(key.2).unwrap_or("?"),
            key.3 .0,
            l.pipeline_stages
        );
    }
    for ni in spec.topology.nis() {
        let sw = spec.topology.switch_name(ni.switch).unwrap_or("?");
        match ni.kind {
            NiKind::Initiator => {
                let _ = writeln!(out, "  initiator {} @ {}.{}", ni.name, sw, ni.port.0);
            }
            NiKind::Target => {
                let (base, size) = spec
                    .range_of(ni.ni)
                    .map(|r| (r.base, r.size))
                    .unwrap_or((0, 0));
                let _ = writeln!(
                    out,
                    "  target {} @ {}.{} base 0x{base:x} size 0x{size:x}",
                    ni.name, sw, ni.port.0
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "
# demo network
noc demo {
  flit_width 64
  arbitration fixed
  queue_depth 4
  error_rate 0.01
  switch s0
  switch s1
  link s0.0 <-> s1.0 stages 2
  initiator cpu @ s0.1
  target mem @ s1.1 base 0x1000 size 0x1000
}";

    #[test]
    fn parses_all_fields() {
        let spec = parse_spec(DEMO).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.flit_width, 64);
        assert_eq!(spec.arbitration, Arbitration::Fixed);
        assert_eq!(spec.output_queue_depth, 4);
        assert_eq!(spec.link_error_rate, 0.01);
        assert_eq!(spec.topology.switch_count(), 2);
        assert_eq!(spec.topology.links().len(), 2);
        assert_eq!(spec.topology.nis().len(), 2);
        assert_eq!(spec.decode_address(0x1800), Some(xpipes_topology::NiId(1)));
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn round_trip_is_stable() {
        let spec = parse_spec(DEMO).unwrap();
        let printed = print_spec(&spec);
        let reparsed = parse_spec(&printed).unwrap();
        assert_eq!(print_spec(&reparsed), printed);
    }

    #[test]
    fn hex_and_decimal_numbers() {
        assert_eq!(parse_number("0x10", 1).unwrap(), 16);
        assert_eq!(parse_number("10", 1).unwrap(), 10);
        assert!(parse_number("zz", 1).is_err());
    }

    #[test]
    fn numbers_above_u32_are_rejected_at_their_line() {
        // Each wrapped to a small valid value when cast: 1, 2 and 32.
        for (directive, value) in [
            ("link a.0 <-> b.0 stages", "4294967297"),
            ("queue_depth", "4294967298"),
            ("flit_width", "4294967328"),
        ] {
            let text = format!("noc x {{\nswitch a\nswitch b\n{directive} {value}\n}}");
            let err = parse_spec(&text).unwrap_err();
            assert_eq!(err.line, 4, "{err}");
            assert_eq!(
                err.message,
                format!("number '{value}' exceeds 4294967295"),
                "{directive}"
            );
        }
    }

    #[test]
    fn missing_header_rejected() {
        let err = parse_spec("switch s0\n}").unwrap_err();
        assert!(err.message.contains("unrecognised") || err.message.contains("header"));
    }

    #[test]
    fn missing_close_rejected() {
        let err = parse_spec("noc x {\n switch s0\n").unwrap_err();
        assert!(err.message.contains("closing"));
    }

    /// An 8x8 mesh with `nis` NIs: one target, the rest initiators, one
    /// per line starting at line 3.
    fn mesh_with_nis(nis: usize) -> String {
        let mut text = String::from("noc big {\n  topology mesh 8 8\n");
        text.push_str("  target mem @ (0,0) base 0x0 size 0x1000\n");
        for i in 1..nis {
            let _ = writeln!(text, "  initiator cpu{i} @ ({},{})", i % 8, (i / 8) % 8);
        }
        text.push_str("}\n");
        text
    }

    #[test]
    fn sixty_fifth_ni_rejected_at_its_line() {
        let spec = parse_spec(&mesh_with_nis(64)).expect("64 NIs fit the header");
        assert_eq!(spec.topology.nis().len(), 64);
        crate::instantiate(&spec).expect("and instantiate");

        let err = parse_spec(&mesh_with_nis(65)).unwrap_err();
        assert_eq!(err.line, 2 + 65, "{err}");
        assert!(err.message.contains("64 NIs"), "{err}");
        assert!(err.message.contains("6-bit src_ni"), "{err}");
    }

    #[test]
    fn duplicate_switch_rejected() {
        let err = parse_spec("noc x {\nswitch a\nswitch a\n}").unwrap_err();
        assert!(err.message.contains("duplicate switch"));
        assert_eq!(err.line, 3);
    }

    #[test]
    fn unknown_switch_in_link_rejected() {
        let err = parse_spec("noc x {\nswitch a\nlink a.0 <-> b.0\n}").unwrap_err();
        assert!(err.message.contains("unknown switch 'b'"));
    }

    #[test]
    fn target_without_window_rejected() {
        let err = parse_spec("noc x {\nswitch a\ntarget m @ a.0\n}").unwrap_err();
        assert!(err.message.contains("base"));
    }

    #[test]
    fn port_conflict_reported_with_line() {
        let err =
            parse_spec("noc x {\nswitch a\ninitiator c @ a.0\ninitiator d @ a.0\n}").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("connected twice") || err.message.contains("port"));
    }

    #[test]
    fn default_stages_is_one() {
        let spec = parse_spec("noc x {\nswitch a\nswitch b\nlink a.0 <-> b.0\n}").unwrap();
        assert_eq!(spec.topology.links()[0].pipeline_stages, 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let spec = parse_spec("\n# hi\nnoc x { # open\nswitch a # sw\n}\n").unwrap();
        assert_eq!(spec.topology.switch_count(), 1);
    }

    #[test]
    fn error_display_carries_line() {
        let err = parse_spec("noc x {\nbogus\n}").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unrecognised directive 'bogus'");
    }

    const TEMPLATED: &str = "
noc grid {
  flit_width 32
  topology mesh 3 2
  initiator cpu @ (0,0)
  target mem @ (2,1) base 0x0 size 0x1000
}";

    #[test]
    fn topology_template_expands_mesh() {
        let spec = parse_spec(TEMPLATED).unwrap();
        assert_eq!(spec.topology.switch_count(), 6);
        assert!(spec.topology.ni_by_name("cpu").is_some());
        assert!(spec.validate().is_ok());
        // Expanded form round-trips through the printer.
        let printed = print_spec(&spec);
        let reparsed = parse_spec(&printed).unwrap();
        assert_eq!(print_spec(&reparsed), printed);
    }

    #[test]
    fn topology_template_ring() {
        let spec = parse_spec(
            "noc r {\n topology ring 5\n initiator c @ ring0.2\n target m @ ring3.2 base 0 size 64\n}",
        )
        .unwrap();
        assert_eq!(spec.topology.switch_count(), 5);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn coordinate_attach_requires_grid() {
        let err = parse_spec("noc x {\n switch a\n initiator c @ (0,0)\n}").unwrap_err();
        assert!(err.message.contains("requires a mesh/torus"));
    }

    #[test]
    fn coordinate_out_of_grid_rejected() {
        let err = parse_spec("noc x {\n topology mesh 2 2\n initiator c @ (5,0)\n}").unwrap_err();
        assert!(err.message.contains("outside the 2x2 grid"));
    }

    #[test]
    fn template_after_switch_rejected() {
        let err = parse_spec("noc x {\n switch a\n topology mesh 2 2\n}").unwrap_err();
        assert!(err.message.contains("must precede"));
    }

    #[test]
    fn unknown_template_rejected() {
        let err = parse_spec("noc x {\n topology donut 3 3\n}").unwrap_err();
        assert!(err.message.contains("unknown topology template"));
    }

    #[test]
    fn coord_parsing() {
        assert_eq!(parse_coord("(1,2)"), Some((1, 2)));
        assert_eq!(parse_coord("( 3 , 4 )"), Some((3, 4)));
        assert_eq!(parse_coord("1,2"), None);
        assert_eq!(parse_coord("(x,2)"), None);
    }
}
