//! Cycle-engine throughput benchmark entry point.
//!
//! Measures simulation-engine speed (cycles/sec, flits/sec) on the
//! reference 4x4-mesh uniform-random and hotspot workloads and writes
//! the machine-readable report (default `BENCH_cycle_engine.json`, i.e.
//! the repo root when run from there). The report is a trajectory, not
//! a gate: absolute cycles/s depend on the host. The gates here are
//! ratios measured inside one process (see `--max-telemetry-overhead`).
//!
//! Telemetry flags: `--telemetry` attaches the metric registry to every
//! workload (the timed run then exercises the instrumented engine, which
//! is how CI measures the real-world cost), `--timeline PATH` also
//! collects and writes the congestion timeline of the uniform-random
//! workload, `--flight-recorder` keeps a flight-recorder ring whose
//! Perfetto view `--perfetto PATH` exports, and
//! `--max-telemetry-overhead F` runs an off/on comparison and exits
//! nonzero when the fractional slowdown exceeds `F`.
//!
//! Attribution flags: `--attribution` attaches the per-packet latency
//! attribution ledger to every workload and writes the attribution
//! benchmark document (default `attribution.json`, override with
//! `--attribution-out PATH`); `--diff BASELINE.json` compares the fresh
//! attribution document against a recorded one and prints the ranked
//! `(channel, phase)` movers — the run-diff regression explainer. The
//! baseline must be another file than `--attribution-out`, which the
//! fresh document overwrites first.
//!
//! Checkpoint flags: `--checkpoint PATH --checkpoint-at C` runs the
//! selected `--workload` to cycle C and writes the simulation state to
//! PATH instead of benchmarking; `--restore PATH` resumes a saved
//! checkpoint and continues to `--cycles` total under the same observer,
//! progress and ledger flags as a fresh run (observers see the resumed
//! portion; rates are over it too); `--fingerprint-out PATH` writes the
//! deterministic work fingerprint (cycles, flits routed, packets
//! delivered — no wall-clock) so a resumed run can be byte-diffed
//! against an uninterrupted one.
//!
//! Observability flags: `--progress PATH` streams an NDJSON heartbeat
//! (cycle position, cycles/s, delivered packets, kernel-mode mix, ETA)
//! to PATH — or stderr for `-` — every `--progress-every N` cycles
//! (default 5000); `--explain-kernel` prints each workload's
//! kernel-health table (step counts, schedule occupancy, pending target
//! wakes); `--profile` arms the wall-clock kernel phase
//! profiler and prints the per-phase breakdown; `--ledger PATH` appends
//! one schema-versioned record per timed workload (work counters,
//! kernel step counts, telemetry/attribution digests, wall-clock
//! rates) to the shared run ledger read back by `xpipesobs`. None of
//! these change any byte-compared artifact.
//!
//! ```text
//! cycle_engine --cycles 200000
//! cycle_engine --cycles 50000 --telemetry --timeline timeline.json \
//!              --flight-recorder --perfetto trace.json
//! cycle_engine --cycles 50000 --max-telemetry-overhead 0.05
//! cycle_engine --cycles 50000 --attribution --attribution-out attribution.json \
//!              --diff crates/bench/tests/golden/attribution_50k.json
//! cycle_engine --workload uniform_random_4x4 --checkpoint ck.bin --checkpoint-at 20000
//! cycle_engine --cycles 50000 --restore ck.bin --fingerprint-out fp.json
//! cycle_engine --cycles 50000 --telemetry --progress progress.ndjson --explain-kernel
//! cycle_engine --cycles 50000 --profile
//! cycle_engine --cycles 50000 --ledger ledger.ndjson
//! ```

use std::process::ExitCode;

use xpipes::noc::TelemetryConfig;
use xpipes_bench::cycle_engine::{
    attribution_bench_json, checkpoint_workload, diff_attribution_bench, fingerprint_json,
    measure_attribution_overhead, measure_telemetry_overhead, report_json, resume_workload,
    run_workload, ObservedRun, RunOptions, Workload, WorkloadResult, DEFAULT_CYCLES,
};
use xpipes_bench::ledger;
use xpipes_bench::progress::{open_sink, SinkMode};
use xpipes_sim::Json;

struct Args {
    cycles: u64,
    out: String,
    telemetry: bool,
    timeline: Option<String>,
    flight_recorder: bool,
    perfetto: Option<String>,
    max_telemetry_overhead: Option<f64>,
    attribution: bool,
    attribution_out: String,
    diff: Option<String>,
    /// `--workload` is repeatable; empty means the default 4x4 pair.
    workload: Vec<Workload>,
    checkpoint: Option<String>,
    checkpoint_at: Option<u64>,
    restore: Option<String>,
    fingerprint_out: Option<String>,
    progress: Option<String>,
    progress_every: Option<u64>,
    explain_kernel: bool,
    profile: bool,
    ledger: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cycles: DEFAULT_CYCLES,
        out: "BENCH_cycle_engine.json".to_string(),
        telemetry: false,
        timeline: None,
        flight_recorder: false,
        perfetto: None,
        max_telemetry_overhead: None,
        attribution: false,
        attribution_out: "attribution.json".to_string(),
        diff: None,
        workload: Vec::new(),
        checkpoint: None,
        checkpoint_at: None,
        restore: None,
        fingerprint_out: None,
        progress: None,
        progress_every: None,
        explain_kernel: false,
        profile: false,
        ledger: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--cycles" => {
                args.cycles = value("--cycles")?
                    .parse()
                    .map_err(|e| format!("bad --cycles: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--telemetry" => args.telemetry = true,
            "--timeline" => args.timeline = Some(value("--timeline")?),
            "--flight-recorder" => args.flight_recorder = true,
            "--perfetto" => args.perfetto = Some(value("--perfetto")?),
            "--max-telemetry-overhead" => {
                args.max_telemetry_overhead = Some(
                    value("--max-telemetry-overhead")?
                        .parse()
                        .map_err(|e| format!("bad --max-telemetry-overhead: {e}"))?,
                );
            }
            "--attribution" => args.attribution = true,
            "--attribution-out" => args.attribution_out = value("--attribution-out")?,
            "--diff" => args.diff = Some(value("--diff")?),
            "--workload" => {
                let name = value("--workload")?;
                args.workload.push(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
            "--checkpoint-at" => {
                args.checkpoint_at = Some(
                    value("--checkpoint-at")?
                        .parse()
                        .map_err(|e| format!("bad --checkpoint-at: {e}"))?,
                );
            }
            "--restore" => args.restore = Some(value("--restore")?),
            "--fingerprint-out" => args.fingerprint_out = Some(value("--fingerprint-out")?),
            "--progress" => args.progress = Some(value("--progress")?),
            "--progress-every" => {
                args.progress_every = Some(
                    value("--progress-every")?
                        .parse()
                        .map_err(|e| format!("bad --progress-every: {e}"))?,
                );
            }
            "--explain-kernel" => args.explain_kernel = true,
            "--profile" => args.profile = true,
            "--ledger" => args.ledger = Some(value("--ledger")?),
            "--help" | "-h" => {
                println!(
                    "usage: cycle_engine [--cycles N] [--out PATH] [--telemetry] \
                     [--timeline PATH] [--flight-recorder] [--perfetto PATH] \
                     [--max-telemetry-overhead F] [--attribution] \
                     [--attribution-out PATH] [--diff BASELINE.json] \
                     [--workload NAME] [--checkpoint PATH --checkpoint-at N] \
                     [--restore PATH] [--fingerprint-out PATH] \
                     [--progress PATH] [--progress-every N] \
                     [--explain-kernel] [--profile] [--ledger PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn telemetry_config(args: &Args) -> TelemetryConfig {
    TelemetryConfig {
        timeline: args.timeline.is_some(),
        flight_recorder_depth: if args.flight_recorder || args.perfetto.is_some() {
            4096
        } else {
            0
        },
    }
}

fn write_artifact(path: &str, what: &str, body: &str) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: cannot write {what} {path}: {e}");
        return Err(ExitCode::from(2));
    }
    println!("{what} written to {path}");
    Ok(())
}

/// Whether two paths name one file: equal as given, or after resolving
/// when both exist.
fn same_file(a: &str, b: &str) -> bool {
    a == b
        || matches!(
            (std::fs::canonicalize(a), std::fs::canonicalize(b)),
            (Ok(x), Ok(y)) if x == y
        )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.diff.is_some() && !args.attribution {
        eprintln!("error: --diff requires --attribution");
        return ExitCode::from(2);
    }
    if let Some(diff) = args
        .diff
        .as_deref()
        .filter(|d| same_file(d, &args.attribution_out))
    {
        eprintln!("error: --diff {diff} is the --attribution-out file; write the fresh document elsewhere");
        return ExitCode::from(2);
    }
    if args.checkpoint.is_some() != args.checkpoint_at.is_some() {
        eprintln!("error: --checkpoint and --checkpoint-at go together");
        return ExitCode::from(2);
    }
    if args.checkpoint.is_some() && args.restore.is_some() {
        eprintln!("error: --checkpoint and --restore are mutually exclusive");
        return ExitCode::from(2);
    }

    // Checkpoint mode: save the simulation state and exit; no timing.
    if let (Some(path), Some(at)) = (&args.checkpoint, args.checkpoint_at) {
        let workload = args
            .workload
            .first()
            .copied()
            .unwrap_or(Workload::UniformRandom);
        let bytes = match checkpoint_workload(workload, at) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: checkpoint failed: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(path, &bytes) {
            eprintln!("error: cannot write checkpoint {path}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "checkpoint of {} at cycle {at} written to {path} ({} bytes)",
            workload.name(),
            bytes.len()
        );
        return ExitCode::SUCCESS;
    }

    // The NDJSON heartbeat sink is shared by every timed run in this
    // invocation.
    let mut progress = match open_sink(args.progress.as_deref(), "progress", SinkMode::Truncate) {
        Ok(p) => p.map(|p| match args.progress_every {
            Some(n) => p.with_interval(n),
            None => p,
        }),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The run ledger accumulates history across invocations, so it is
    // always opened in append mode. Opened before any timed run so a
    // bad path fails fast instead of discarding a finished measurement.
    let mut ledger_sink = match open_sink(args.ledger.as_deref(), "ledger", SinkMode::Append) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let instrument = args.telemetry
        || args.timeline.is_some()
        || args.flight_recorder
        || args.perfetto.is_some();
    let opts = RunOptions {
        telemetry: instrument.then(|| telemetry_config(&args)),
        attribution: args.attribution,
        profile: args.profile,
    };
    let mut results: Vec<WorkloadResult> = Vec::new();
    let mut attribution_reports: Vec<(&'static str, Json)> = Vec::new();
    // Where every timed run — fresh or resumed — lands: artifacts,
    // ledger, the stdout summary, the report rows.
    let mut record = |run: Result<ObservedRun, String>| -> Result<(), ExitCode> {
        let obs = run.map_err(|e| {
            eprintln!("error: {e}");
            ExitCode::from(2)
        })?;
        // Artifacts come from the uniform-random workload (the
        // canonical reference); the hotspot run just exercises the
        // instrumented engine.
        if obs.result.name == Workload::UniformRandom.name() {
            if let (Some(path), Some(body)) = (&args.timeline, &obs.timeline_json) {
                write_artifact(path, "timeline", body)?;
            }
            if let (Some(path), Some(body)) = (&args.perfetto, &obs.perfetto_json) {
                write_artifact(path, "perfetto trace", body)?;
            }
        }
        if let Some(sink) = ledger_sink.as_mut() {
            sink.emit(&ledger::engine_record(
                &obs.result,
                args.cycles,
                Some(obs.telemetry_summary.clone()),
                obs.attribution.as_ref(),
            ));
        }
        let r = obs.result;
        if let Some(a) = obs.attribution {
            attribution_reports.push((r.name, a));
        }
        if let Some(profile) = &obs.kernel_profile {
            println!("kernel profile — {}:\n{}", r.name, profile.render());
        }
        println!(
            "{:<20} {:>12.0} cycles/s  {:>12.0} flits/s  ({} cycles in {:.3}s{})",
            r.name,
            r.cycles_per_sec,
            r.flits_per_sec,
            r.cycles,
            r.elapsed_s,
            if args.restore.is_some() {
                ", resumed"
            } else {
                ""
            }
        );
        results.push(r);
        Ok(())
    };
    if let Some(path) = &args.restore {
        // The checkpoint names its workload; it is the only run.
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: cannot read checkpoint {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let run = resume_workload(&bytes, args.cycles, &opts, progress.as_mut());
        if let Err(code) = record(run.map_err(|e| format!("restore failed: {e}"))) {
            return code;
        }
    } else {
        // The default pair is what the overhead gates and the tracked
        // baseline are defined on.
        let workloads = if args.workload.is_empty() {
            vec![Workload::UniformRandom, Workload::Hotspot]
        } else {
            args.workload.clone()
        };
        for w in workloads {
            let run = run_workload(w, args.cycles, &opts, progress.as_mut());
            let failed = |e| format!("workload {} failed: {e}", w.name());
            if let Err(code) = record(run.map_err(failed)) {
                return code;
            }
        }
    }
    if args.explain_kernel {
        for r in &results {
            println!("kernel health — {}:\n{}", r.name, r.kernel_health.render());
        }
    }
    let report = report_json(&results).render();
    if let Err(e) = std::fs::write(&args.out, &report) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);
    if let Some(path) = &args.fingerprint_out {
        let fp = fingerprint_json(&results).render();
        if let Err(e) = std::fs::write(path, &fp) {
            eprintln!("error: cannot write fingerprint {path}: {e}");
            return ExitCode::from(2);
        }
        println!("work fingerprint written to {path}");
    }
    if args.attribution {
        let doc = attribution_bench_json(args.cycles, std::mem::take(&mut attribution_reports));
        if let Err(code) =
            write_artifact(&args.attribution_out, "attribution report", &doc.render())
        {
            return code;
        }
        if let Some(path) = &args.diff {
            let baseline = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read attribution baseline {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match diff_attribution_bench(&baseline, &doc) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if let Some(budget) = args.max_telemetry_overhead {
        let o = match measure_telemetry_overhead(Workload::UniformRandom, args.cycles, 3) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: overhead measurement failed: {e}");
                return ExitCode::from(2);
            }
        };
        println!(
            "telemetry overhead: baseline {:>12.0} cycles/s  telemetry {:>12.0} cycles/s  \
             overhead {:.1}% (budget {:.1}%)",
            o.baseline_cycles_per_sec,
            o.telemetry_cycles_per_sec,
            o.overhead * 100.0,
            budget * 100.0
        );
        if o.overhead > budget {
            eprintln!(
                "error: telemetry overhead {:.1}% exceeds budget {:.1}%",
                o.overhead * 100.0,
                budget * 100.0
            );
            return ExitCode::FAILURE;
        }
        if args.attribution {
            let a = match measure_attribution_overhead(Workload::UniformRandom, args.cycles, 3) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: attribution overhead measurement failed: {e}");
                    return ExitCode::from(2);
                }
            };
            println!(
                "attribution overhead: baseline {:>12.0} cycles/s  attributed {:>12.0} cycles/s  \
                 overhead {:.1}% (budget {:.1}%)",
                a.baseline_cycles_per_sec,
                a.telemetry_cycles_per_sec,
                a.overhead * 100.0,
                budget * 100.0
            );
            if a.overhead > budget {
                eprintln!(
                    "error: attribution overhead {:.1}% exceeds budget {:.1}%",
                    a.overhead * 100.0,
                    budget * 100.0
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
