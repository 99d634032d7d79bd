//! The repo benchmark. See `README.md` beside this package for the
//! workloads, the metric → layer map and how to run each mode.
//!
//! ```text
//! xpipes-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]
//!                  [--quick] [--bless]        one workload, in-process
//! xpipes-benchmark [--trace] [--quick] [--bless] …  every workload, one
//!                                             child process each
//! xpipes-benchmark --selfcheck                two full sets, compared
//! xpipes-benchmark --spread N [--workload W]  N runs on N seeds: the
//!                                             inter-quartile spread of
//!                                             each metric vs its bound
//! ```
//!
//! The last line on stdout of a one-workload run is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. The exit
//! code is 0 only when every check passed.

mod expected;
mod harness;
mod metrics;
mod procfs;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use xpipes_sim::Json;

use harness::{Params, DEFAULT_SEED};
use metrics::END_TO_END;
use stats::{summarize, tail_percentile, Summary};

/// Measuring window when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    bless: bool,
    selfcheck: bool,
    /// Runs per workload of the `--spread` mode; 0 when not asked for.
    spread: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        bless: false,
        selfcheck: false,
        spread: 0,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds '{v}'"))?;
            }
            // `--trace` alone means 1, so it reads well by hand; the
            // driver always passes 0 or 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => cli.quick = true,
            "--bless" => cli.bless = true,
            "--selfcheck" => cli.selfcheck = true,
            "--spread" => {
                let v = value("--spread")?;
                cli.spread = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .ok_or_else(|| format!("bad --spread '{v}' (at least 2 runs)"))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

/// A number with at least nine significant digits, as JSON.
fn number(v: f64) -> Json {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    Json::Fixed(v, (8 - magnitude).clamp(0, 17) as usize)
}

fn print_summary(name: &str, unit: &str, s: Option<Summary>) {
    match s {
        Some(s) => println!(
            "  {name:<44} {:>16.6} {unit:<14} min {:.6} q1 {:.6} max {:.6} n={}",
            s.median, s.min, s.q1, s.max, s.n
        ),
        None => println!("  {name:<44} {:>16} {unit}", "unmeasured"),
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(name: &str, cli: &Cli) -> Result<bool, String> {
    let p = Params {
        seed: cli.seed,
        // A smoke run shrinks the window with the sizes.
        seconds: if cli.quick {
            cli.seconds / 10.0
        } else {
            cli.seconds
        },
        quick: cli.quick,
    };
    let out = workloads::run(name, &p, cli.trace)?;
    let m = &out.measured;
    let mut problems: Vec<String> = m
        .outcomes
        .iter()
        .flat_map(|o| o.problems.iter().cloned())
        .collect();
    let (mut attempted, mut failed) = (m.attempted(), m.failed());
    let mut check = |ok: bool, why: String| {
        attempted += 1;
        if !ok {
            failed += 1;
            problems.push(why);
        }
    };

    // Simulated statistics: equal across repeats always, and equal to
    // the pinned fingerprint when the inputs are the pinned ones.
    check(
        m.repeats_agree(),
        "simulated statistics differ between repeats".into(),
    );
    let fp = m.outcomes.first().map(|o| o.fingerprint.clone());
    if let Some(fp) = fp.filter(|_| cli.seed == DEFAULT_SEED && !cli.quick) {
        if cli.bless {
            expected::bless(name, &fp)?;
            println!("blessed expected/{name}.json");
        } else {
            let diffs = expected::differences(name, &fp);
            check(diffs.is_empty(), diffs.join("; "));
        }
    }

    println!(
        "workload {name}  seed {}  window {} s  repeats {}{}{}",
        cli.seed,
        p.seconds,
        m.wall_s.len(),
        if cli.quick { "  (quick)" } else { "" },
        if cli.trace { "  (traced)" } else { "" },
    );
    let mut metrics_doc: Vec<(String, Json)> = Vec::new();
    let mut emit = |metric: &str, unit: &str, value: f64| {
        check(
            value.is_finite(),
            format!("metric {metric} could not be measured"),
        );
        let entry = Json::object()
            .field("value", number(if value.is_finite() { value } else { 0.0 }))
            .field("unit", Json::str(unit))
            .build();
        metrics_doc.push((metric.to_string(), entry));
    };

    if let Some((layers, spans)) = &out.layers {
        println!(
            "  {:<44} {:>6} {:>12} {:>12}",
            "span", "calls", "total s", "self s"
        );
        for (span, r) in spans {
            println!(
                "  {span:<44} {:>6} {:>12.6} {:>12.6}",
                r.calls, r.total_s, r.self_s
            );
        }
        println!();
        for (metric, unit, _) in metrics::per_layer() {
            let v = layers.get(&metric);
            println!("  {metric:<44} {v:>16.6} {unit}");
            emit(&metric, unit, v);
        }
        let unknown = layers.unknown();
        check(
            unknown.is_empty(),
            format!(
                "per-layer metrics not in the catalogue: {}",
                unknown.join(", ")
            ),
        );
    } else {
        let latency: Vec<f64> = m.outcomes.iter().map(|o| o.sim_latency_cycles).collect();
        let rss = procfs::peak_rss_mib().unwrap_or(f64::NAN);
        for e in END_TO_END {
            let samples = match e.name {
                "setup_s" => m.setup_s.clone(),
                "wall_s" => m.wall_s.clone(),
                "work_per_s" => m.work_per_s(),
                "peak_rss_mb" => vec![rss],
                "sim_latency_cycles" => latency.clone(),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            let s = summarize(&samples);
            print_summary(e.name, e.unit, s);
            emit(e.name, e.unit, s.map_or(f64::NAN, |s| s.median));
        }
    }
    // Per-point latency of the service workloads: the median and the
    // highest tail that still has ten samples beyond it.
    let gaps = m.pooled("point_gap_ms");
    if let Some(tail) = tail_percentile(gaps.len()) {
        println!(
            "  point_ms: p50 {:.3}  p{tail} {:.3}  (n={})",
            stats::median(&gaps),
            stats::percentile(&gaps, tail),
            gaps.len()
        );
    }
    for line in &problems {
        println!("FAILED: {line}");
    }
    let correct = failed == 0;
    let result = Json::object()
        .field("correct", Json::Bool(correct))
        .field("attempted", Json::UInt(attempted))
        .field("failed", Json::UInt(failed))
        .field("metrics", Json::Object(metrics_doc))
        .build();
    println!("{}", result.render_compact());
    Ok(correct)
}

/// Runs `name` in a child process (its own peak RSS), echoing its
/// output; returns the parsed result line.
fn run_child(name: &str, cli: &Cli, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.quick {
        cmd.arg("--quick");
    }
    if cli.bless && !trace {
        cmd.arg("--bless");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start child for {name}: {e}"))?;
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading child output: {e}"))?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {name}: {e}"))?;
    let result = Json::parse(&last).map_err(|e| format!("{name}: no result line ({e})"))?;
    if !status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{name}: checks failed ({status})"));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One full set: every workload untraced (and traced when asked).
fn run_set(cli: &Cli) -> Result<Vec<(&'static str, Json)>, String> {
    let mut set = Vec::new();
    for name in workloads::NAMES {
        set.push((name, run_child(name, cli, false)?));
        if cli.trace {
            run_child(name, cli, true)?;
        }
    }
    Ok(set)
}

/// Two full sets; every end-to-end metric must agree within its own
/// bound, simulated ones exactly. The two runs of a workload are made
/// one after the other, so a slow spell of the host hits both sets.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let untraced = Cli {
        trace: false,
        bless: false,
        ..cli.clone()
    };
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for name in workloads::NAMES {
        first.push((name, run_child(name, &untraced, false)?));
        second.push((name, run_child(name, &untraced, false)?));
    }
    println!("\nselfcheck: spread between two sets");
    println!(
        "  {:<16} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "spread", "bound"
    );
    let mut ok = true;
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for e in END_TO_END {
            let (Some(x), Some(y)) = (metric_value(a, e.name), metric_value(b, e.name)) else {
                return Err(format!("{name}: metric {} missing", e.name));
            };
            let exact = e.name.starts_with("sim_");
            let spread = (x - y).abs() / x.abs().min(y.abs());
            let bound = if exact { 0.0 } else { e.bound };
            let pass = spread <= bound;
            ok &= pass;
            println!(
                "  {name:<16} {:<20} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.0}%{}",
                e.name,
                spread * 100.0,
                bound * 100.0,
                if pass { "" } else { "  OUT OF BOUND" }
            );
        }
    }
    Ok(ok)
}

/// The acceptance procedure of the benchmark contract: `runs` runs of
/// each workload, each on another seed; per end-to-end metric the
/// distance between the quartiles as a share of the median, which must
/// stay within the metric's bound (a third of it to be comfortable).
fn spread(cli: &Cli) -> Result<bool, String> {
    let names: Vec<&str> = match &cli.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut ok = true;
    for name in names {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..cli.spread {
            let run = Cli {
                seed: cli.seed + 1 + i as u64,
                bless: false,
                ..cli.clone()
            };
            let result = run_child(name, &run, false)?;
            for (e, v) in END_TO_END.iter().zip(&mut values) {
                v.push(metric_value(&result, e.name).ok_or("metric missing")?);
            }
        }
        println!("\nspread of {name} over {} seeds", cli.spread);
        for (e, v) in END_TO_END.iter().zip(&values) {
            let share = stats::iqr_share(v);
            let pass = e.name == "setup_s" || share <= e.bound;
            ok &= pass;
            println!(
                "  {:<20} median {:>16.6} {:<7} iqr/median {:>6.2}%  bound {:>3.0}%{}",
                e.name,
                stats::median(v),
                e.unit,
                share * 100.0,
                e.bound * 100.0,
                if pass { "" } else { "  OUT OF BOUND" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] \
                 [--quick] [--bless] [--selfcheck] [--spread N]\nworkloads: {}",
                workloads::NAMES.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.selfcheck {
        selfcheck(&cli)
    } else if cli.spread > 0 {
        spread(&cli)
    } else if let Some(name) = &cli.workload {
        run_one(name, &cli)
    } else {
        run_set(&cli).map(|set| {
            println!("\nend-to-end medians");
            for (name, result) in &set {
                for e in END_TO_END {
                    let v = metric_value(result, e.name).unwrap_or(f64::NAN);
                    println!(
                        "  {name:<16} {:<20} {v:>16.6} {:<8} ({} is better)",
                        e.name,
                        e.unit,
                        e.better.label()
                    );
                }
            }
            true
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let c = cli(&[
            "--workload",
            "sweep_mesh4",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("sweep_mesh4"));
        assert_eq!((c.seed, c.seconds, c.trace), (11, 10.0, false));
        assert!(cli(&["--trace", "1"]).unwrap().trace);
        let c = cli(&["--trace", "--quick"]).unwrap();
        assert!(c.trace && c.quick);
        assert_eq!(cli(&[]).unwrap().seed, DEFAULT_SEED);
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(number(1.203_456_789_1).render_compact(), "1.20345679");
        assert_eq!(
            number(0.000_020_123_456_7).render_compact(),
            "0.0000201234567"
        );
        assert_eq!(number(4_490_318.25).render_compact(), "4490318.25");
        assert_eq!(number(0.0).render_compact(), "0.00000000");
    }
}
