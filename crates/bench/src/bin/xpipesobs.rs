//! Run-ledger query and regression-sentinel entry point.
//!
//! Reads the append-only NDJSON run ledger that the bench binaries
//! write with `--ledger PATH` (see `xpipes_bench::ledger`) and turns
//! the accumulated history into answers:
//!
//! * `list` — one row per recorded run (source, workload, seed, config
//!   digest, headline counters, verdict);
//! * `show LINE` — the full record at that ledger line, pretty-printed;
//! * `trend METRIC` — per-group trajectory of one metric (e.g.
//!   `cycles_per_sec`, `avg_latency`) with the first-to-latest delta;
//! * `compare A B` — headline metric deltas between two ledger lines,
//!   plus the ranked attribution movers when both runs recorded the
//!   per-channel latency attribution;
//! * `check` — the regression sentinel: the latest run of every
//!   comparison group against a rolling window of its predecessors
//!   (median ± MAD tolerance, direction-aware). Exits 2 when any
//!   watched metric left the tolerated band on the regression side.
//!
//! Every error follows the bench binaries' one-line `error: ...` +
//! exit-2 contract, so CI output stays greppable. A missing or empty
//! ledger is an ordinary state for `list` (one stdout line, exit 0) and
//! an error everywhere else (one-line error, exit 2).
//!
//! ```text
//! xpipesobs --ledger ledger.ndjson list
//! xpipesobs --ledger ledger.ndjson trend cycles_per_sec
//! xpipesobs --ledger ledger.ndjson compare 3 12
//! xpipesobs --ledger ledger.ndjson check --window 8 --min-rel 0.10
//! ```

use std::process::ExitCode;

use xpipes_bench::ledger::{
    check, compare, deterministic_view, read_ledger_if_exists, render_checks, render_list,
    render_trend, trend, CheckConfig, LedgerEntry,
};

enum Command {
    List,
    Show(usize),
    Trend(String),
    Compare(usize, usize),
    Check,
}

struct Args {
    ledger: String,
    command: Command,
    check_cfg: CheckConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut ledger = "ledger.ndjson".to_string();
    let mut check_cfg = CheckConfig::default();
    let mut command: Option<Command> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--ledger" => ledger = value("--ledger")?,
            "--window" => {
                check_cfg.window = value("--window")?
                    .parse()
                    .map_err(|e| format!("bad --window: {e}"))?;
                if check_cfg.window == 0 {
                    return Err("--window must be at least 1".into());
                }
            }
            "--mad-k" => {
                check_cfg.mad_k = value("--mad-k")?
                    .parse()
                    .map_err(|e| format!("bad --mad-k: {e}"))?;
            }
            "--min-rel" => {
                check_cfg.min_rel = value("--min-rel")?
                    .parse()
                    .map_err(|e| format!("bad --min-rel: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: xpipesobs [--ledger PATH] COMMAND\n\
                     commands:\n  \
                     list                 one row per recorded run\n  \
                     show LINE            full record at a ledger line\n  \
                     trend METRIC         per-group metric trajectory\n  \
                     compare A B          metric deltas + attribution movers\n  \
                     check                regression sentinel (exit 2 on anomaly)\n\
                     check tuning: [--window N] [--mad-k F] [--min-rel F]"
                );
                std::process::exit(0);
            }
            "list" if command.is_none() => command = Some(Command::List),
            "show" if command.is_none() => {
                let line = value("show")?
                    .parse()
                    .map_err(|e| format!("bad show LINE: {e}"))?;
                command = Some(Command::Show(line));
            }
            "trend" if command.is_none() => command = Some(Command::Trend(value("trend")?)),
            "compare" if command.is_none() => {
                let a = value("compare")?
                    .parse()
                    .map_err(|e| format!("bad compare line A: {e}"))?;
                let b = value("compare")?
                    .parse()
                    .map_err(|e| format!("bad compare line B: {e}"))?;
                command = Some(Command::Compare(a, b));
            }
            "check" if command.is_none() => command = Some(Command::Check),
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    let command = command.ok_or("no command given (try --help)")?;
    Ok(Args {
        ledger,
        command,
        check_cfg,
    })
}

fn entry_at<'a>(
    entries: &'a [LedgerEntry],
    line: usize,
    path: &str,
) -> Result<&'a LedgerEntry, String> {
    entries
        .iter()
        .find(|e| e.line == line)
        .ok_or_else(|| format!("ledger {path} has no record on line {line}"))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    // A ledger nobody has appended to yet is an ordinary state, not a
    // failure: `list` reports it on stdout and exits 0 so fresh CI
    // environments can probe the ledger without special-casing; every
    // other command genuinely has nothing to answer with, so it keeps
    // the one-line error + exit-2 contract.
    let entries = read_ledger_if_exists(&args.ledger)?.unwrap_or_default();
    if entries.is_empty() {
        if matches!(args.command, Command::List) {
            println!("ledger {} holds no records", args.ledger);
            return Ok(ExitCode::SUCCESS);
        }
        return Err(format!("ledger {} holds no records", args.ledger));
    }
    match &args.command {
        Command::List => {
            print!("{}", render_list(&entries));
        }
        Command::Show(line) => {
            let entry = entry_at(&entries, *line, &args.ledger)?;
            println!("{}", entry.json.render());
            println!(
                "deterministic view:\n{}",
                deterministic_view(&entry.json).render()
            );
        }
        Command::Trend(metric) => {
            let rows = trend(&entries, metric);
            if rows.is_empty() {
                return Err(format!(
                    "no run in ledger {} records metric {metric:?}",
                    args.ledger
                ));
            }
            print!("{}", render_trend(&rows, metric));
        }
        Command::Compare(a, b) => {
            let ea = entry_at(&entries, *a, &args.ledger)?;
            let eb = entry_at(&entries, *b, &args.ledger)?;
            print!("{}", compare(ea, eb)?);
        }
        Command::Check => {
            let checks = check(&entries, &args.check_cfg);
            if checks.is_empty() {
                println!(
                    "check: no group in ledger {} has prior history yet; nothing to compare",
                    args.ledger
                );
                return Ok(ExitCode::SUCCESS);
            }
            print!("{}", render_checks(&checks));
            let anomalies = checks.iter().filter(|c| c.anomalous).count();
            if anomalies > 0 {
                eprintln!(
                    "error: {anomalies} metric(s) regressed beyond the tolerated band \
                     (window {}, mad-k {}, min-rel {})",
                    args.check_cfg.window, args.check_cfg.mad_k, args.check_cfg.min_rel
                );
                return Ok(ExitCode::from(2));
            }
            println!(
                "check: all {} watched metrics within tolerance",
                checks.len()
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
