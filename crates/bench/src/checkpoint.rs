//! Warm-start sweep benchmark.
//!
//! Quantifies what the checkpoint/restore subsystem buys: a load–latency
//! sweep that warms up once and branches every operating point off the
//! shared checkpoint ([`xpipes_traffic::runner::Start::Warm`]) versus
//! the classic sweep that re-warms from cold at every point. The
//! speedup is roughly `n·(warmup + window) / (warmup + n·window)` for an
//! n-point curve; the `checkpoint_bench` binary records it in
//! `BENCH_checkpoint.json` and `--check` gates CI on regressions.

use std::time::Instant;

use xpipes::XpipesError;
use xpipes_sim::Json;
use xpipes_traffic::pattern::Pattern;
use xpipes_traffic::runner::{sweep, sweep_on, warm_up, LoadPoint, Start};

use crate::cycle_engine::reference_spec;
use crate::progress::ProgressStream;

/// Default benchmark parameters: a 6-point curve where warm-up matches
/// the measurement window, so the warm-start path skips roughly half
/// the simulated cycles.
pub const DEFAULT_RATES: [f64; 6] = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06];
/// Default warm-up cycles (per point when cold; once when warm).
pub const DEFAULT_WARMUP: u64 = 4000;
/// Default measurement window cycles per point.
pub const DEFAULT_WINDOW: u64 = 4000;
/// Default seed.
pub const DEFAULT_SEED: u64 = 42;

/// One measured cold-vs-warm sweep comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointBench {
    /// Offered loads swept.
    pub rates: Vec<f64>,
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measurement window cycles.
    pub window: u64,
    /// Wall-clock seconds of the cold sweep (warm-up at every point).
    pub cold_s: f64,
    /// Wall-clock seconds of the warm-start sweep, **including** the
    /// one-off warm-up and checkpoint capture.
    pub warm_s: f64,
    /// `cold_s / warm_s`.
    pub speedup: f64,
    /// The warm-start curve (recorded so the benchmark also documents
    /// the protocol's output).
    pub warm_points: Vec<LoadPoint>,
}

/// Checks sweep parameters that came from outside the program
/// (`checkpoint_bench --rates/--window`) so the benchmark refuses what it
/// cannot measure instead of writing a report of zeros.
///
/// # Errors
///
/// One line: an empty rate list, a rate outside `[0, 1]` (NaN
/// included), or a zero-cycle window.
pub fn validate_sweep(rates: &[f64], window: u64) -> Result<(), String> {
    if rates.is_empty() {
        return Err("the rate list must list at least one rate".to_string());
    }
    if let Some(r) = rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
        return Err(format!("rate {r} outside [0, 1]"));
    }
    if window == 0 {
        return Err("the measurement window must be at least one cycle".to_string());
    }
    Ok(())
}

/// Runs the cold sweep and the warm-start sweep over the same rates on
/// the reference 4x4 mesh, both serially, and measures both wall-clocks,
/// streaming stage-level NDJSON progress lines when given a stream
/// (`cold_sweep` / `warm_up` / `warm_sweep` start/done, then a final
/// summary line). Progress is stage-granular rather than per-cycle
/// because the sweep calls are the timed quantity under benchmark —
/// chunking them would perturb the very wall-clocks being compared.
///
/// # Errors
///
/// Propagates network construction errors.
pub fn run_checkpoint_bench(
    rates: &[f64],
    warmup: u64,
    window: u64,
    seed: u64,
    mut progress: Option<&mut ProgressStream>,
) -> Result<CheckpointBench, XpipesError> {
    let spec = reference_spec();
    let warm_rate = rates.get(rates.len() / 2).copied().unwrap_or(0.03);
    let stage = |p: &mut Option<&mut ProgressStream>, name: &str, status: &str| {
        if let Some(p) = p.as_deref_mut() {
            p.emit(
                &Json::object()
                    .field("stage", Json::str(name))
                    .field("status", Json::str(status))
                    .field("points", Json::UInt(rates.len() as u64))
                    .field("elapsed_s", Json::Fixed(p.elapsed_s(), 3))
                    .build(),
            );
        }
    };

    stage(&mut progress, "cold_sweep", "start");
    let start = Instant::now();
    sweep(&spec, Pattern::Uniform, rates, warmup, window, seed)?;
    let cold_s = start.elapsed().as_secs_f64();
    stage(&mut progress, "cold_sweep", "done");

    stage(&mut progress, "warm_up", "start");
    let start = Instant::now();
    let warm = warm_up(&spec, Pattern::Uniform, warm_rate, warmup, seed)?;
    stage(&mut progress, "warm_up", "done");
    stage(&mut progress, "warm_sweep", "start");
    let start_from = Start::Warm(&warm);
    let warm_points = sweep_on(&spec, Pattern::Uniform, rates, start_from, window, seed, 1)?;
    let warm_s = start.elapsed().as_secs_f64();
    stage(&mut progress, "warm_sweep", "done");

    let bench = CheckpointBench {
        rates: rates.to_vec(),
        warmup,
        window,
        cold_s,
        warm_s,
        speedup: cold_s / warm_s,
        warm_points,
    };
    if let Some(p) = progress {
        p.emit(
            &Json::object()
                .field("stage", Json::str("report"))
                .field("status", Json::str("done"))
                .field("cold_s", Json::Fixed(bench.cold_s, 3))
                .field("warm_s", Json::Fixed(bench.warm_s, 3))
                .field("speedup", Json::Fixed(bench.speedup, 2))
                .field("final", Json::Bool(true))
                .build(),
        );
    }
    Ok(bench)
}

/// Renders the benchmark report written to `BENCH_checkpoint.json`.
pub fn checkpoint_bench_json(b: &CheckpointBench) -> Json {
    let points = b
        .warm_points
        .iter()
        .map(|p| {
            Json::object()
                .field("offered", Json::Fixed(p.offered, 4))
                .field("accepted", Json::Fixed(p.accepted_packets_per_cycle, 5))
                .field("avg_latency", Json::Fixed(p.avg_latency_cycles, 2))
                .build()
        })
        .collect();
    Json::object()
        .field("bench", Json::str("checkpoint_warm_start"))
        .field(
            "rates",
            Json::Array(b.rates.iter().map(|&r| Json::Fixed(r, 4)).collect()),
        )
        .field("warmup_cycles", Json::UInt(b.warmup))
        .field("window_cycles", Json::UInt(b.window))
        .field("cold_sweep_s", Json::Fixed(b.cold_s, 4))
        .field("warm_sweep_s", Json::Fixed(b.warm_s, 4))
        .field("speedup", Json::Fixed(b.speedup, 3))
        .field("warm_points", Json::Array(points))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_warm_start_wins() {
        // Small but real: 3 points, warm-up as long as the window, so
        // the warm path simulates ~(3·2)/(1+3) = 1.5x fewer cycles.
        let b = run_checkpoint_bench(&[0.01, 0.03, 0.05], 2000, 2000, 7, None).unwrap();
        assert_eq!(b.warm_points.len(), 3);
        assert!(b.cold_s > 0.0 && b.warm_s > 0.0);
        assert!(b.speedup > 1.0, "warm-start sweep should beat cold: {b:?}");
        for p in &b.warm_points {
            assert!(p.accepted_packets_per_cycle > 0.0, "{p:?}");
        }
    }

    /// The warm-sweep protocol's golden: the default parameters
    /// reproduce the curve recorded in the tracked `BENCH_checkpoint.json`
    /// (cycle counts only — no wall-clock — so it holds on any host).
    #[test]
    fn default_parameters_reproduce_the_tracked_warm_curve() {
        let b = run_checkpoint_bench(
            &DEFAULT_RATES,
            DEFAULT_WARMUP,
            DEFAULT_WINDOW,
            DEFAULT_SEED,
            None,
        )
        .unwrap();
        let tracked = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_checkpoint.json");
        let tracked = Json::parse(&std::fs::read_to_string(tracked).unwrap()).unwrap();
        let fresh = Json::parse(&checkpoint_bench_json(&b).render()).unwrap();
        assert!(fresh.get("warm_points").is_some());
        assert_eq!(fresh.get("warm_points"), tracked.get("warm_points"));
        assert_eq!(fresh.get("rates"), tracked.get("rates"));
    }

    #[test]
    fn unmeasurable_sweeps_are_rejected_in_one_line() {
        assert_eq!(validate_sweep(&DEFAULT_RATES, DEFAULT_WINDOW), Ok(()));
        assert_eq!(validate_sweep(&[0.0, 1.0], 1), Ok(()));
        for (rates, window) in [
            (&[][..], 4000),
            (&[0.01, f64::NAN][..], 4000),
            (&[2.0][..], 4000),
            (&[-0.01][..], 4000),
            (&[0.01][..], 0),
        ] {
            let err = validate_sweep(rates, window).unwrap_err();
            assert!(!err.is_empty() && !err.contains('\n'), "{err:?}");
        }
        assert_eq!(
            validate_sweep(&[2.0], 0).unwrap_err(),
            "rate 2 outside [0, 1]"
        );
    }

    #[test]
    fn report_carries_the_speedup_the_gate_reads() {
        let b = CheckpointBench {
            rates: vec![0.01],
            warmup: 100,
            window: 100,
            cold_s: 2.0,
            warm_s: 1.0,
            speedup: 2.0,
            warm_points: vec![],
        };
        let doc = Json::parse(&checkpoint_bench_json(&b).render()).unwrap();
        assert_eq!(doc.get("speedup").and_then(Json::as_f64), Some(2.0));
    }
}
