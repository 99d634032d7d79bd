//! Warm-start sweep benchmark entry point.
//!
//! Times a load–latency sweep run cold (warm-up at every operating
//! point) against the same sweep branched off one shared warm
//! checkpoint, and writes the machine-readable report (default
//! `BENCH_checkpoint.json`). With `--check PATH` it compares the fresh
//! speedup against a previously recorded report and exits nonzero when
//! the warm-start advantage shrank beyond the tolerance — the CI gate
//! that keeps checkpoint restore cheap.
//!
//! `--progress PATH` streams stage-level NDJSON heartbeats (cold sweep,
//! warm-up, warm sweep, final speedup) to PATH, or stderr for `-`.
//! `--ledger PATH` appends one schema-versioned run record (planned
//! warm-path work, warm-curve mean latency, and the cold/warm speedup
//! the `xpipesobs check` sentinel watches) to the shared run ledger.
//!
//! ```text
//! checkpoint_bench
//! checkpoint_bench --warmup 8000 --window 4000 --rates 0.01,0.03,0.05
//! checkpoint_bench --check BENCH_checkpoint.json --tolerance 0.25
//! checkpoint_bench --progress progress.ndjson --ledger ledger.ndjson
//! ```

use std::process::ExitCode;

use xpipes_bench::baseline::load_baseline;
use xpipes_bench::checkpoint::{
    checkpoint_bench_json, run_checkpoint_bench, validate_sweep, DEFAULT_RATES, DEFAULT_SEED,
    DEFAULT_WARMUP, DEFAULT_WINDOW,
};
use xpipes_bench::ledger;
use xpipes_bench::progress::{open_sink, SinkMode};
use xpipes_sim::Json;

struct Args {
    rates: Vec<f64>,
    warmup: u64,
    window: u64,
    seed: u64,
    out: String,
    check: Option<String>,
    tolerance: f64,
    progress: Option<String>,
    ledger: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        rates: DEFAULT_RATES.to_vec(),
        warmup: DEFAULT_WARMUP,
        window: DEFAULT_WINDOW,
        seed: DEFAULT_SEED,
        out: "BENCH_checkpoint.json".to_string(),
        check: None,
        tolerance: 0.25,
        progress: None,
        ledger: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--rates" => {
                args.rates = value("--rates")?
                    .split(',')
                    .map(|r| {
                        r.trim()
                            .parse::<f64>()
                            .map_err(|e| format!("bad rate: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--warmup" => {
                args.warmup = value("--warmup")?
                    .parse()
                    .map_err(|e| format!("bad --warmup: {e}"))?;
            }
            "--window" => {
                args.window = value("--window")?
                    .parse()
                    .map_err(|e| format!("bad --window: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--check" => args.check = Some(value("--check")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
            }
            "--progress" => args.progress = Some(value("--progress")?),
            "--ledger" => args.ledger = Some(value("--ledger")?),
            "--help" | "-h" => {
                println!(
                    "usage: checkpoint_bench [--rates R,..] [--warmup N] [--window N] \
                     [--seed N] [--out PATH] [--check BASELINE.json] [--tolerance F] \
                     [--progress PATH] [--ledger PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    validate_sweep(&args.rates, args.window)?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut progress = match open_sink(args.progress.as_deref(), "progress", SinkMode::Truncate) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ledger_sink = match open_sink(args.ledger.as_deref(), "ledger", SinkMode::Append) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let bench = match run_checkpoint_bench(
        &args.rates,
        args.warmup,
        args.window,
        args.seed,
        progress.as_mut(),
    ) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: benchmark failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "cold sweep {:>8.3}s  warm-start sweep {:>8.3}s  speedup {:.2}x \
         ({} points, warmup {}, window {})",
        bench.cold_s,
        bench.warm_s,
        bench.speedup,
        bench.rates.len(),
        bench.warmup,
        bench.window
    );
    if let Some(sink) = ledger_sink.as_mut() {
        sink.emit(&ledger::checkpoint_record(&bench, args.seed));
    }
    // Read the baseline before writing the fresh report, so checking
    // against the default output path never compares a file against
    // itself.
    let check = match &args.check {
        Some(path) => {
            let baseline = match load_baseline(path) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let Some(base) = baseline.get("speedup").and_then(Json::as_f64) else {
                eprintln!("error: baseline {path} has no speedup entry");
                return ExitCode::from(2);
            };
            Some(base)
        }
        None => None,
    };
    let report = checkpoint_bench_json(&bench).render();
    if let Err(e) = std::fs::write(&args.out, &report) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);
    if let Some(base) = check {
        let floor = (base * (1.0 - args.tolerance)).max(1.0);
        let status = if bench.speedup < floor {
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "check speedup: baseline {base:.2}x  current {:.2}x  floor {floor:.2}x  {status}",
            bench.speedup
        );
        if bench.speedup < floor {
            eprintln!(
                "error: warm-start speedup regressed below {floor:.2}x \
                 (baseline {base:.2}x, tolerance {:.0}%)",
                args.tolerance * 100.0
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
