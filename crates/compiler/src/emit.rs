//! Code emission: the orthogonal synthesis and simulation views.
//!
//! * [`verilog_top`] — a structural Verilog top-level: one module per
//!   component class (parameterized like the xpipes class templates), one
//!   instance per topology element, wires per link. This is the
//!   *synthesis view* entry point.
//! * [`gate_level_verilog`] — a flattened gate-level Verilog netlist from
//!   a synthesis-estimation netlist (what the mapped design looks like).
//! * [`systemc_top`] — a SystemC-style module skeleton matching the
//!   original library's *simulation view*.

use std::fmt::Write as _;

use xpipes_synth::netlist::Netlist;
use xpipes_synth::CellKind;
use xpipes_topology::spec::NocSpec;
use xpipes_topology::NiKind;

/// Sanitises an identifier for HDL output.
fn ident(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, 'u');
    }
    s
}

/// Emits the structural Verilog top-level (synthesis view).
pub fn verilog_top(spec: &NocSpec) -> String {
    let mut out = String::new();
    let w = spec.flit_width;
    let bus = w + 2;
    let _ = writeln!(out, "// xpipesCompiler synthesis view for '{}'", spec.name);
    let _ = writeln!(
        out,
        "// flit width {w}, {} switches, {} NIs",
        spec.topology.switch_count(),
        spec.topology.nis().len()
    );
    let _ = writeln!(out);

    // Component class templates.
    let _ = writeln!(
        out,
        "module xpipes_switch #(parameter NIN = 4, NOUT = 4, FLIT_W = {w}, QDEPTH = {}) (",
        spec.output_queue_depth
    );
    let _ = writeln!(out, "  input  wire clk, rst_n,");
    let _ = writeln!(out, "  input  wire [NIN*{bus}-1:0]  in_flit,");
    let _ = writeln!(out, "  input  wire [NIN-1:0]        in_valid,");
    let _ = writeln!(out, "  output wire [NIN-1:0]        in_ack,");
    let _ = writeln!(out, "  output wire [NOUT*{bus}-1:0] out_flit,");
    let _ = writeln!(out, "  output wire [NOUT-1:0]       out_valid,");
    let _ = writeln!(out, "  input  wire [NOUT-1:0]       out_ack");
    let _ = writeln!(out, ");");
    let _ = writeln!(out, "endmodule");
    let _ = writeln!(out);
    for kind in ["initiator", "target"] {
        let _ = writeln!(out, "module xpipes_ni_{kind} #(parameter FLIT_W = {w}) (");
        let _ = writeln!(out, "  input  wire clk, rst_n,");
        let _ = writeln!(out, "  output wire [{bus}-1:0] tx_flit,");
        let _ = writeln!(out, "  output wire            tx_valid,");
        let _ = writeln!(out, "  input  wire            tx_ack,");
        let _ = writeln!(out, "  input  wire [{bus}-1:0] rx_flit,");
        let _ = writeln!(out, "  input  wire            rx_valid,");
        let _ = writeln!(out, "  output wire            rx_ack");
        let _ = writeln!(out, ");");
        let _ = writeln!(out, "endmodule");
        let _ = writeln!(out);
    }

    // Top level.
    let _ = writeln!(
        out,
        "module {}_top (input wire clk, input wire rst_n);",
        ident(&spec.name)
    );
    // Wires per directed channel.
    for (i, l) in spec.topology.links().iter().enumerate() {
        let _ = writeln!(
            out,
            "  wire [{bus}-1:0] w{i}_flit; wire w{i}_valid, w{i}_ack; // {}p{} -> {}p{} ({} stages)",
            spec.topology.switch_name(l.from).unwrap_or("?"),
            l.from_port.0,
            spec.topology.switch_name(l.to).unwrap_or("?"),
            l.to_port.0,
            l.pipeline_stages,
        );
    }
    for ni in spec.topology.nis() {
        let n = ident(&ni.name);
        let _ = writeln!(out, "  wire [{bus}-1:0] {n}_tx_flit, {n}_rx_flit;");
        let _ = writeln!(
            out,
            "  wire {n}_tx_valid, {n}_tx_ack, {n}_rx_valid, {n}_rx_ack;"
        );
    }
    // Switch instances.
    for s in spec.topology.switches() {
        let deg = spec.topology.switch_degree(s);
        let name = ident(spec.topology.switch_name(s).unwrap_or("sw"));
        let _ = writeln!(
            out,
            "  xpipes_switch #(.NIN({deg}), .NOUT({deg}), .FLIT_W({w})) {name} (.clk(clk), .rst_n(rst_n));"
        );
    }
    // NI instances.
    for ni in spec.topology.nis() {
        let kind = match ni.kind {
            NiKind::Initiator => "initiator",
            NiKind::Target => "target",
        };
        let n = ident(&ni.name);
        let _ = writeln!(
            out,
            "  xpipes_ni_{kind} #(.FLIT_W({w})) {n} (.clk(clk), .rst_n(rst_n), .tx_flit({n}_tx_flit), .tx_valid({n}_tx_valid), .tx_ack({n}_tx_ack), .rx_flit({n}_rx_flit), .rx_valid({n}_rx_valid), .rx_ack({n}_rx_ack));"
        );
    }
    let _ = writeln!(out, "endmodule");
    out
}

/// Emits a SystemC-style simulation view skeleton.
pub fn systemc_top(spec: &NocSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// xpipesCompiler simulation view for '{}'", spec.name);
    let _ = writeln!(out, "#include <systemc.h>");
    let _ = writeln!(out, "#include \"xpipes.h\"");
    let _ = writeln!(out);
    let _ = writeln!(out, "int sc_main(int, char**) {{");
    let _ = writeln!(out, "  sc_clock clk(\"clk\", 1, SC_NS);");
    for s in spec.topology.switches() {
        let deg = spec.topology.switch_degree(s);
        let name = ident(spec.topology.switch_name(s).unwrap_or("sw"));
        let _ = writeln!(
            out,
            "  xpipes_switch<{deg}, {deg}, {}> {name}(\"{name}\");",
            spec.flit_width
        );
    }
    for ni in spec.topology.nis() {
        let class = match ni.kind {
            NiKind::Initiator => "xpipes_ni_initiator",
            NiKind::Target => "xpipes_ni_target",
        };
        let n = ident(&ni.name);
        let _ = writeln!(out, "  {class}<{}> {n}(\"{n}\");", spec.flit_width);
    }
    for (i, l) in spec.topology.links().iter().enumerate() {
        let _ = writeln!(
            out,
            "  xpipes_link<{}> link{i}(\"link{i}\"); // {} -> {}",
            l.pipeline_stages,
            spec.topology.switch_name(l.from).unwrap_or("?"),
            spec.topology.switch_name(l.to).unwrap_or("?"),
        );
    }
    let _ = writeln!(out, "  sc_start();");
    let _ = writeln!(out, "  return 0;");
    let _ = writeln!(out, "}}");
    out
}

/// Emits a Graphviz DOT rendering of the topology: switches as boxes,
/// NIs as ellipses (initiators filled), one edge per bidirectional link
/// labelled with its pipeline depth.
pub fn dot(spec: &NocSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {} {{", ident(&spec.name));
    let _ = writeln!(out, "  node [fontname=\"monospace\"];");
    for s in spec.topology.switches() {
        let name = ident(spec.topology.switch_name(s).unwrap_or("sw"));
        let _ = writeln!(out, "  {name} [shape=box];");
    }
    for ni in spec.topology.nis() {
        let n = ident(&ni.name);
        let style = match ni.kind {
            NiKind::Initiator => "style=filled, fillcolor=lightgray",
            NiKind::Target => "style=solid",
        };
        let _ = writeln!(out, "  {n} [shape=ellipse, {style}];");
        let sw = ident(spec.topology.switch_name(ni.switch).unwrap_or("sw"));
        let _ = writeln!(out, "  {n} -- {sw};");
    }
    // One edge per bidirectional pair.
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
        let a = ident(spec.topology.switch_name(key.0).unwrap_or("sw"));
        let b = ident(spec.topology.switch_name(key.2).unwrap_or("sw"));
        let _ = writeln!(out, "  {a} -- {b} [label=\"{}\"];", l.pipeline_stages);
    }
    let _ = writeln!(out, "}}");
    out
}

/// Emits flattened gate-level Verilog from a synthesis netlist.
pub fn gate_level_verilog(netlist: &Netlist) -> String {
    let mut out = String::new();
    let name = ident(netlist.name());
    let _ = writeln!(out, "// gate-level netlist: {netlist}");
    let _ = writeln!(out, "module {name} (input wire clk);");
    let _ = writeln!(
        out,
        "  wire [{}:0] n; // net bundle",
        netlist.net_count().saturating_sub(1)
    );
    for (i, g) in netlist.gates().iter().enumerate() {
        let ins: Vec<String> = g.inputs().iter().map(|n| format!("n[{}]", n.0)).collect();
        let o = format!("n[{}]", g.output.0);
        let line = match g.cell {
            CellKind::Inv => format!("INV_X{} g{i} (.A({}), .ZN({o}));", g.size, ins[0]),
            CellKind::Nand2 => {
                format!(
                    "NAND2_X{} g{i} (.A1({}), .A2({}), .ZN({o}));",
                    g.size, ins[0], ins[1]
                )
            }
            CellKind::Nor2 => {
                format!(
                    "NOR2_X{} g{i} (.A1({}), .A2({}), .ZN({o}));",
                    g.size, ins[0], ins[1]
                )
            }
            CellKind::Xor2 => {
                format!(
                    "XOR2_X{} g{i} (.A({}), .B({}), .Z({o}));",
                    g.size, ins[0], ins[1]
                )
            }
            CellKind::Mux2 => format!(
                "MUX2_X{} g{i} (.S({}), .A({}), .B({}), .Z({o}));",
                g.size, ins[0], ins[1], ins[2]
            ),
            CellKind::Aoi22 => format!(
                "AOI22_X{} g{i} (.A1({}), .A2({}), .B1({}), .B2({}), .ZN({o}));",
                g.size, ins[0], ins[1], ins[2], ins[3]
            ),
            CellKind::Dff => {
                format!("DFF_X{} g{i} (.CK(clk), .D({}), .Q({o}));", g.size, ins[0])
            }
        };
        let _ = writeln!(out, "  {line}");
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes::config::{NiConfig, SwitchConfig};
    use xpipes_synth::components::{initiator_ni_netlist, switch_netlist, target_ni_netlist};
    use xpipes_topology::builders::mesh;

    fn demo_spec() -> NocSpec {
        let mut b = mesh(2, 1).unwrap();
        b.attach_initiator("cpu", (0, 0)).unwrap();
        let mem = b.attach_target("mem", (1, 0)).unwrap();
        let mut spec = NocSpec::new("demo", b.into_topology());
        spec.map_address(mem, 0, 64).unwrap();
        spec
    }

    #[test]
    fn verilog_contains_all_instances() {
        let v = verilog_top(&demo_spec());
        assert!(v.contains("module xpipes_switch"));
        assert!(v.contains("module demo_top"));
        assert!(v.contains("xpipes_ni_initiator #(.FLIT_W(32)) cpu"));
        assert!(v.contains("xpipes_ni_target #(.FLIT_W(32)) mem"));
        // Two switches instantiated (indented lines; the module
        // declaration itself does not count).
        assert_eq!(v.matches("  xpipes_switch #(").count(), 2);
        // Balanced module/endmodule.
        assert_eq!(v.matches("module ").count(), v.matches("endmodule").count());
    }

    #[test]
    fn systemc_view_mirrors_structure() {
        let s = systemc_top(&demo_spec());
        assert!(s.contains("sc_main"));
        assert!(s.contains("xpipes_ni_initiator<32> cpu"));
        assert!(s.contains("xpipes_link<1> link0"));
    }

    #[test]
    fn gate_level_instantiates_every_gate() {
        let n = switch_netlist(&SwitchConfig::new(2, 2, 16));
        let v = gate_level_verilog(&n);
        // One instance line per gate.
        let instances = v.matches(" g").count();
        assert!(instances >= n.gate_count());
        assert!(v.contains("DFF_X1"));
        assert!(v.contains("endmodule"));
    }

    /// FNV-1a 64 over `bytes`.
    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn gate_level_bytes_are_pinned() {
        // Every pin of every gate, in order: a change to how a gate
        // stores its inputs must not move a byte of the emitted view.
        let ni = NiConfig::new(32);
        let views = [
            switch_netlist(&SwitchConfig::new(4, 4, 32)),
            initiator_ni_netlist(&ni),
            target_ni_netlist(&ni),
        ]
        .map(|n| fnv64(gate_level_verilog(&n).as_bytes()));
        let pinned = [
            0x1109_1d59_e9b4_69d7,
            0x6f2d_4052_1181_9058,
            0x2192_adf7_9b0d_d263,
        ];
        assert_eq!(views, pinned, "{views:#018x?}");
    }

    #[test]
    fn dot_renders_graph() {
        let spec = demo_spec();
        let d = dot(&spec);
        assert!(d.starts_with("graph demo {"));
        assert!(d.contains("[shape=box]"));
        assert!(d.contains("cpu [shape=ellipse, style=filled"));
        assert!(d.contains("mem [shape=ellipse, style=solid"));
        // 2 switches, one bidi pair → exactly one switch-switch edge.
        let switch_edges = d
            .lines()
            .filter(|l| l.contains("--") && l.contains("label="))
            .count();
        assert_eq!(switch_edges, 1);
        assert!(d.trim_end().ends_with('}'));
    }

    #[test]
    fn identifiers_sanitised() {
        assert_eq!(ident("cpu#i"), "cpu_i");
        assert_eq!(ident("3com"), "u3com");
        assert_eq!(ident("ok_name"), "ok_name");
    }

    #[test]
    fn views_are_deterministic() {
        let spec = demo_spec();
        assert_eq!(verilog_top(&spec), verilog_top(&spec));
        assert_eq!(systemc_top(&spec), systemc_top(&spec));
    }
}
