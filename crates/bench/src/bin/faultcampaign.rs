//! Fault-injection campaign entry point.
//!
//! Runs the seeded fault-model × error-rate sweep with protocol
//! invariant monitoring on the reference network and prints the
//! machine-readable JSON report. Exits nonzero when any grid point
//! violates an invariant or fails to drain, so CI can gate on it.
//!
//! Grid points fan out across threads (`--jobs`, default: host
//! parallelism); reports are byte-identical to a serial run for the
//! same seed.
//!
//! `--resume DIR` makes the campaign crash-resumable: completed grid
//! points (after every `--checkpoint-every N` of them), the shared
//! warm-start checkpoint and the configuration fingerprint are
//! journaled in `DIR` — an `xpipes_traffic::journal::Journal`, the same
//! directory format `xpipesd` keeps per campaign. Re-running the same
//! command after a kill skips the journaled points and produces a
//! report byte-identical to an uninterrupted run, regardless of
//! `--jobs`.
//!
//! `--warm-start CYCLES` runs the fault-free warm-up once, checkpoints
//! it, and branches every grid point off the shared state (see
//! `xpipes_traffic::faultcampaign::warm_checkpoint` for how this
//! measurement protocol differs from a cold campaign).
//!
//! `--progress PATH` streams a per-grid-point NDJSON status journal
//! (index, fault, rate, pass/fail, deterministic run counters) to PATH
//! — or stderr for `-` — as points complete. Every per-point field is a
//! pure function of the seed and grid index, so those lines are
//! byte-identical across `--jobs` worker counts. The stream ends with
//! one final-totals line (`"final": true`) carrying the campaign
//! verdict plus the worker pool's wall-clock utilization — the one line
//! that is *not* byte-compared, exactly like the `wall` section of a
//! ledger record. When resuming, the sink is opened in append mode and
//! only freshly executed points emit lines, so the journal from the
//! interrupted run is extended rather than truncated.
//!
//! `--ledger PATH` appends one schema-versioned run record (work
//! counters summed over the grid, verdict, baseline telemetry and
//! attribution digests, wall-clock rates and pool utilization) to the
//! shared run ledger; see `xpipes_bench::ledger` and `xpipesobs`.
//!
//! ```text
//! faultcampaign --faults all --cycles 20000 --seed 7
//! faultcampaign --faults ack-loss,output-stall --rates 0.01,0.05 --out report.json
//! faultcampaign --jobs 1   # force serial execution
//! faultcampaign --resume journal/ --checkpoint-every 2 --out report.json
//! faultcampaign --warm-start 4000 --resume journal/
//! faultcampaign --progress progress.ndjson --ledger ledger.ndjson
//! ```

use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use xpipes_bench::ledger;
use xpipes_bench::progress::{open_sink, SinkMode};
use xpipes_sim::parallel::PoolStats;
use xpipes_sim::{CampaignReport, FaultKind, Json};
use xpipes_traffic::faultcampaign::{
    campaign_spec, config_fingerprint, grid_size, progress_line, run_campaign_streaming,
    validate_grid, warm_checkpoint, CampaignConfig,
};
use xpipes_traffic::journal::Journal;

struct Args {
    faults: Vec<FaultKind>,
    cycles: u64,
    seed: u64,
    rates: Option<Vec<f64>>,
    out: Option<String>,
    jobs: usize,
    flight_depth: Option<usize>,
    resume: Option<PathBuf>,
    checkpoint_every: usize,
    warm_start: u64,
    progress: Option<String>,
    ledger: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        faults: FaultKind::ALL.to_vec(),
        cycles: 20_000,
        seed: 7,
        rates: None,
        out: None,
        jobs: 0,
        flight_depth: None,
        resume: None,
        checkpoint_every: 0,
        warm_start: 0,
        progress: None,
        ledger: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--faults" => {
                let v = value("--faults")?;
                if v == "all" {
                    args.faults = FaultKind::ALL.to_vec();
                } else {
                    args.faults = v
                        .split(',')
                        .map(|name| {
                            FaultKind::from_name(name.trim())
                                .ok_or_else(|| format!("unknown fault model '{name}'"))
                        })
                        .collect::<Result<_, _>>()?;
                }
            }
            "--cycles" => {
                args.cycles = value("--cycles")?
                    .parse()
                    .map_err(|e| format!("bad --cycles: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--rates" => {
                let v = value("--rates")?;
                let rates = v
                    .split(',')
                    .map(str::trim)
                    .filter(|r| !r.is_empty())
                    .map(|r| r.parse::<f64>().map_err(|e| format!("bad rate '{r}': {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                args.rates = Some(rates);
            }
            "--out" => args.out = Some(value("--out")?),
            "--jobs" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
            }
            "--flight-depth" => {
                args.flight_depth = Some(
                    value("--flight-depth")?
                        .parse()
                        .map_err(|e| format!("bad --flight-depth: {e}"))?,
                );
            }
            "--resume" => args.resume = Some(PathBuf::from(value("--resume")?)),
            "--checkpoint-every" => {
                args.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                if args.checkpoint_every == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
            }
            "--warm-start" => {
                args.warm_start = value("--warm-start")?
                    .parse()
                    .map_err(|e| format!("bad --warm-start: {e}"))?;
                if args.warm_start == 0 {
                    return Err("--warm-start must be at least 1 cycle".into());
                }
            }
            "--progress" => args.progress = Some(value("--progress")?),
            "--ledger" => args.ledger = Some(value("--ledger")?),
            "--help" | "-h" => {
                println!(
                    "usage: faultcampaign [--faults all|NAME,..] [--cycles N] \
                     [--seed N] [--rates R,..] [--out PATH] [--jobs N] \
                     [--flight-depth N] [--resume DIR] [--checkpoint-every N] \
                     [--warm-start CYCLES] [--progress PATH] [--ledger PATH]\n\
                     fault models: {}",
                    FaultKind::ALL.map(|k| k.name()).join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.checkpoint_every > 0 && args.resume.is_none() {
        return Err("--checkpoint-every requires --resume DIR".into());
    }
    Ok(args)
}

/// The stream's closing totals line: campaign verdict plus the worker
/// pool's wall-clock utilization. The only progress line that is not a
/// pure function of the seed — consumers byte-comparing journals across
/// `--jobs` must stop at `"final": true`, exactly as they skip a ledger
/// record's `wall` section.
fn final_line(report: &CampaignReport, grid: u64, pool: &PoolStats) -> Json {
    Json::object()
        .field("final", Json::Bool(true))
        .field("points", Json::UInt(1 + report.runs.len() as u64))
        .field("grid", Json::UInt(grid))
        .field("pass", Json::Bool(report.pass))
        .field("failures", Json::UInt(report.failures().count() as u64))
        .field("pool", pool.to_json())
        .build()
}

/// Runs (or, with `--resume`, resumes) the campaign and writes its
/// outputs; the exit code says whether every grid point passed.
///
/// With a journal, grid points already journaled are loaded back and
/// the rest are journaled as each `--checkpoint-every` chunk completes,
/// so a kill loses at most one chunk. With `--progress`, only freshly
/// executed points emit status lines — a resumed run opens the sink in
/// append mode, so the interrupted run's lines stay in place.
fn run(args: &Args) -> Result<ExitCode, String> {
    let mut cfg = CampaignConfig::new(args.seed, args.cycles);
    if let Some(rates) = &args.rates {
        cfg.error_rates = rates.clone();
    }
    if let Some(depth) = args.flight_depth {
        cfg.flight_recorder_depth = depth;
    }
    validate_grid(&args.faults, &cfg.error_rates)?;
    let sink_mode = args
        .resume
        .as_ref()
        .map_or(SinkMode::Truncate, |_| SinkMode::Append);
    let mut progress = open_sink(args.progress.as_deref(), "progress", sink_mode)?;
    let started = Instant::now();
    let spec = campaign_spec();
    let fingerprint = config_fingerprint(&spec, &args.faults, &cfg);
    let grid = grid_size(&args.faults, &cfg);
    let journal = args
        .resume
        .as_ref()
        .map(|dir| Journal::open(dir, fingerprint, grid, args.warm_start))
        .transpose()?;
    let (warm, held) = match &journal {
        Some(journal) => (journal.warm(&spec, &cfg)?, journal.load_points()?),
        None if args.warm_start > 0 => {
            let warm = warm_checkpoint(&spec, &cfg, args.warm_start)
                .map_err(|e| format!("warm-up failed: {e}"))?;
            (Some(warm), Vec::new())
        }
        None => (None, Vec::new()),
    };
    if !held.is_empty() {
        eprintln!(
            "journal: resuming with {}/{grid} grid points already complete",
            held.len()
        );
    }
    let mut complete = held.len();
    let (report, pool) = run_campaign_streaming::<Box<dyn Error>>(
        &spec,
        &args.faults,
        &cfg,
        warm.as_ref(),
        args.jobs,
        args.checkpoint_every,
        held,
        &mut |point| {
            if let Some(journal) = &journal {
                journal.record(point)?;
                complete += 1;
                eprintln!("journal: {complete}/{grid} grid points complete");
            }
            if let Some(p) = progress.as_mut() {
                p.emit(&progress_line(&args.faults, &cfg, point));
            }
            Ok(())
        },
    )
    .map_err(|e| format!("campaign failed: {e}"))?;
    let elapsed_s = started.elapsed().as_secs_f64();
    if let Some(p) = progress.as_mut() {
        p.emit(&final_line(&report, grid, &pool));
    }
    if let Some(path) = &args.ledger {
        let pool = Some(pool.to_json());
        if !ledger::append_campaign_once(
            path,
            journal.as_ref(),
            &report,
            fingerprint,
            elapsed_s,
            pool,
        )? {
            eprintln!("journal: ledger record already appended by an earlier run; skipping");
        }
    }
    let json = report.to_json();
    if let Some(path) = &args.out {
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    print!("{json}");
    if report.pass {
        return Ok(ExitCode::SUCCESS);
    }
    for run in report.failures() {
        eprintln!(
            "FAIL {} @ {:.4}: {}",
            run.fault,
            run.rate,
            run.violations.join("; ")
        );
    }
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
