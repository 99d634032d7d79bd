//! `xpipesc` — the xpipesCompiler command-line tool.
//!
//! ```text
//! xpipesc <spec-file> [--verilog <out>] [--systemc <out>] [--routing]
//!         [--simulate <cycles>] [--check]
//! ```
//!
//! Reads a NoC specification in the xpipes text format, validates it, and
//! produces the requested artefacts:
//!
//! * `--check` — validate only (default when no other flag is given),
//! * `--routing` — print the routing tables (every NI's LUT),
//! * `--verilog <file>` — write the structural synthesis view,
//! * `--systemc <file>` — write the SystemC-style simulation view,
//! * `--simulate <cycles>` — instantiate the simulation view and run idle
//!   cycles as a smoke test, reporting statistics.

use std::path::PathBuf;
use std::process::ExitCode;

use xpipes::{Elaboration, Noc};
use xpipes_compiler::{emit, parse_spec, routing_report, synthesize_spec, SynthCache};

#[derive(Debug)]
struct Args {
    spec_path: PathBuf,
    verilog: Option<PathBuf>,
    systemc: Option<PathBuf>,
    dot: Option<PathBuf>,
    routing: bool,
    simulate: Option<u64>,
    synthesize: Option<f64>,
}

fn usage() -> &'static str {
    "usage: xpipesc <spec-file> [--verilog <out>] [--systemc <out>] [--dot <out>] \
     [--routing] [--simulate <cycles>] [--synthesize <MHz>] [--check]"
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let spec_path = argv.next().ok_or_else(|| usage().to_string())?;
    if spec_path.starts_with('-') {
        return Err(usage().to_string());
    }
    let mut args = Args {
        spec_path: PathBuf::from(spec_path),
        verilog: None,
        systemc: None,
        dot: None,
        routing: false,
        simulate: None,
        synthesize: None,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--verilog" => {
                args.verilog = Some(PathBuf::from(argv.next().ok_or("--verilog needs a path")?));
            }
            "--systemc" => {
                args.systemc = Some(PathBuf::from(argv.next().ok_or("--systemc needs a path")?));
            }
            "--dot" => {
                args.dot = Some(PathBuf::from(argv.next().ok_or("--dot needs a path")?));
            }
            "--routing" => args.routing = true,
            "--check" => {}
            "--simulate" => {
                let n = argv.next().ok_or("--simulate needs a cycle count")?;
                args.simulate = Some(n.parse().map_err(|_| format!("bad cycle count '{n}'"))?);
            }
            "--synthesize" => {
                let n = argv.next().ok_or("--synthesize needs a clock in MHz")?;
                args.synthesize = Some(n.parse().map_err(|_| format!("bad clock '{n}'"))?);
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.spec_path)
        .map_err(|e| format!("cannot read {}: {e}", args.spec_path.display()))?;
    let spec = parse_spec(&text).map_err(|e| format!("parse error: {e}"))?;
    let elab = Elaboration::new(&spec).map_err(|e| format!("invalid specification: {e}"))?;
    eprintln!(
        "ok: '{}' — {} switches, {} NIs, {}-bit flits",
        spec.name,
        spec.topology.switch_count(),
        spec.topology.nis().len(),
        spec.flit_width
    );

    if args.routing {
        let report = routing_report(&spec).map_err(|e| format!("routing failed: {e}"))?;
        println!("{report}");
    }
    if let Some(path) = &args.verilog {
        std::fs::write(path, emit::verilog_top(&spec))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote synthesis view to {}", path.display());
    }
    if let Some(path) = &args.systemc {
        std::fs::write(path, emit::systemc_top(&spec))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote simulation view to {}", path.display());
    }
    if let Some(path) = &args.dot {
        std::fs::write(path, emit::dot(&spec))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote topology graph to {}", path.display());
    }
    if let Some(target_mhz) = args.synthesize {
        // The area/power library view: one report per distinct component,
        // switches in the order they first appear, then the two NIs.
        let mut cache = SynthCache::new();
        synthesize_spec(&elab, target_mhz, &mut cache).map_err(|e| e.to_string())?;
        println!("component synthesis @ {target_mhz:.0} MHz target:");
        for report in cache.reports() {
            println!("  {report}");
        }
    }
    if let Some(cycles) = args.simulate {
        // An idle network draws no random number, so the seed is moot.
        let noc = Noc::from_elaboration(elab, 0);
        let mut noc = noc.map_err(|e| format!("instantiation failed: {e}"))?;
        noc.run(cycles);
        let stats = noc.stats();
        println!(
            "simulated {} cycles: {} packets, {} flits routed, {} retransmissions",
            stats.cycles, stats.packets_delivered, stats.flits_routed, stats.retransmissions
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> std::vec::IntoIter<String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_full_flag_set() {
        let a = parse_args(argv(&[
            "x.noc",
            "--verilog",
            "o.v",
            "--systemc",
            "o.cpp",
            "--routing",
            "--simulate",
            "99",
        ]))
        .expect("valid");
        assert_eq!(a.spec_path, PathBuf::from("x.noc"));
        assert_eq!(a.verilog, Some(PathBuf::from("o.v")));
        assert_eq!(a.systemc, Some(PathBuf::from("o.cpp")));
        assert!(a.routing);
        assert_eq!(a.simulate, Some(99));
    }

    #[test]
    fn missing_spec_is_usage_error() {
        assert!(parse_args(argv(&[])).is_err());
        assert!(parse_args(argv(&["--routing"])).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        let err = parse_args(argv(&["x.noc", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag"));
    }

    #[test]
    fn bad_cycle_count_rejected() {
        assert!(parse_args(argv(&["x.noc", "--simulate", "abc"])).is_err());
        assert!(parse_args(argv(&["x.noc", "--simulate"])).is_err());
    }

    #[test]
    fn run_roundtrip_through_filesystem() {
        let dir = std::env::temp_dir().join("xpipesc_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let spec_path = dir.join("demo.noc");
        std::fs::write(
            &spec_path,
            "noc clidemo {\n  switch a\n  switch b\n  link a.0 <-> b.0\n  \
             initiator cpu @ a.1\n  target mem @ b.1 base 0x0 size 0x1000\n}\n",
        )
        .expect("write spec");
        let vpath = dir.join("out.v");
        let args = Args {
            spec_path,
            verilog: Some(vpath.clone()),
            systemc: None,
            dot: None,
            routing: true,
            simulate: Some(10),
            synthesize: Some(800.0),
        };
        run(&args).expect("compiles");
        let verilog = std::fs::read_to_string(&vpath).expect("emitted");
        assert!(verilog.contains("module clidemo_top"));
    }

    #[test]
    fn run_reports_parse_errors() {
        let dir = std::env::temp_dir().join("xpipesc_test_bad");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let spec_path = dir.join("bad.noc");
        std::fs::write(&spec_path, "noc x {\nbogus\n}").expect("write");
        let args = Args {
            spec_path,
            verilog: None,
            systemc: None,
            dot: None,
            routing: false,
            simulate: None,
            synthesize: None,
        };
        let err = run(&args).unwrap_err();
        assert!(err.contains("parse error"));
    }

    #[test]
    fn run_missing_file_errors() {
        let args = Args {
            spec_path: PathBuf::from("/nonexistent/xpipes.noc"),
            verilog: None,
            systemc: None,
            dot: None,
            routing: false,
            simulate: None,
            synthesize: None,
        };
        assert!(run(&args).unwrap_err().contains("cannot read"));
    }
}
