//! Measurement orchestration: warm-up, measure, report.
//!
//! One runner, [`sweep_on`], fans a list of offered loads out over a
//! worker count from either [`Start`]. Started cold, every operating
//! point warms its own network up — the classic [`measure`]/[`sweep`]
//! protocol. Started warm, every point branches off one [`WarmStart`]
//! captured by [`warm_up`] — O(warmup + n·window) instead of
//! O(n·(warmup + window)) for an n-point curve. The two protocols give
//! different (both valid) curves: warm-start points share their warm-up
//! traffic and RNG stream positions, so compare points within one
//! protocol, not across.

use xpipes::noc::Noc;
use xpipes::XpipesError;
use xpipes_sim::parallel::{parallel_map_ordered, worker_count};
use xpipes_topology::spec::NocSpec;

use crate::generator::{Injector, InjectorConfig, WarmStart};
use crate::pattern::Pattern;

/// One point on a load–latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load in packets per cycle per initiator.
    pub offered: f64,
    /// Accepted throughput in packets per cycle (network total).
    pub accepted_packets_per_cycle: f64,
    /// Mean transaction round-trip latency in cycles.
    pub avg_latency_cycles: f64,
    /// 95th-percentile transaction latency in cycles.
    pub p95_latency_cycles: f64,
    /// Worst observed transaction latency in cycles.
    pub max_latency_cycles: f64,
    /// ACK/nACK retransmissions during the measurement window.
    pub retransmissions: u64,
}

/// Where an operating point's measurement window starts from.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// A cold network, warmed for `warmup` unmeasured cycles at the
    /// point's own rate.
    Cold {
        /// Warm-up cycles run before the window.
        warmup: u64,
    },
    /// The shared state [`warm_up`] captured; only the rate differs
    /// between points.
    Warm(&'a WarmStart),
}

/// The observer-free network and injector every sweep point runs on.
fn fresh_pair(
    spec: &NocSpec,
    pattern: Pattern,
    rate: f64,
    seed: u64,
) -> Result<(Noc, Injector), XpipesError> {
    let noc = Noc::with_seed(spec, seed)?;
    let inj = Injector::new(spec, InjectorConfig::new(rate, pattern), seed ^ 0x9E37)?;
    Ok((noc, inj))
}

/// Warms a network for `warmup` cycles at `warm_rate` offered load and
/// checkpoints it for [`Start::Warm`].
///
/// Pick `warm_rate` representative of the sweep (e.g. its median rate):
/// every branched point inherits this warm-up's queue occupancy.
///
/// # Errors
///
/// Propagates network construction errors.
pub fn warm_up(
    spec: &NocSpec,
    pattern: Pattern,
    warm_rate: f64,
    warmup: u64,
    seed: u64,
) -> Result<WarmStart, XpipesError> {
    let (mut noc, mut inj) = fresh_pair(spec, pattern, warm_rate, seed)?;
    inj.run(&mut noc, warmup);
    inj.drain_responses(&mut noc);
    Ok(WarmStart::capture(&noc, &inj, warmup))
}

/// Measures one operating point: reaches `start`, then measures
/// `window` cycles by differencing the network statistics.
fn point(
    spec: &NocSpec,
    pattern: Pattern,
    rate: f64,
    start: Start<'_>,
    window: u64,
    seed: u64,
) -> Result<LoadPoint, XpipesError> {
    let (mut noc, mut inj) = fresh_pair(spec, pattern, rate, seed)?;
    match start {
        Start::Cold { warmup } => {
            inj.run(&mut noc, warmup);
            inj.drain_responses(&mut noc);
        }
        Start::Warm(warm) => warm.restore_into(&mut noc, &mut inj)?,
    }
    let before = noc.stats();
    inj.run(&mut noc, window);
    inj.drain_responses(&mut noc);
    let after = noc.stats();

    let delivered = after.packets_delivered - before.packets_delivered;
    // Latency stats accumulate over the whole run; the window-dominant
    // view is acceptable because warm-up is short relative to the window,
    // and the mean over completed transactions is what the paper-style
    // curves report.
    Ok(LoadPoint {
        offered: rate,
        accepted_packets_per_cycle: delivered as f64 / window as f64,
        avg_latency_cycles: after.transaction_latency.mean(),
        p95_latency_cycles: after.latency_histogram.percentile(95.0).unwrap_or(0) as f64,
        max_latency_cycles: after.transaction_latency.max().unwrap_or(0.0),
        retransmissions: after.retransmissions - before.retransmissions,
    })
}

/// The one sweep runner: measures every rate in `rates` from `start` on
/// `workers` threads of the deterministic work pool
/// ([`xpipes_sim::parallel`]; 0 = host parallelism, 1 = inline on the
/// calling thread). Each operating point is seeded independently and
/// results come back in submission order, so the curve is identical at
/// every worker count.
///
/// # Errors
///
/// Propagates construction errors and, from a warm start, checkpoint
/// -decode errors (e.g. a state captured on a differently shaped
/// network).
pub fn sweep_on(
    spec: &NocSpec,
    pattern: Pattern,
    rates: &[f64],
    start: Start<'_>,
    window: u64,
    seed: u64,
    workers: usize,
) -> Result<Vec<LoadPoint>, XpipesError> {
    let workers = if workers == 0 {
        worker_count(rates.len())
    } else {
        workers
    };
    parallel_map_ordered(rates, workers, |_, &rate| {
        point(spec, pattern, rate, start, window, seed)
    })
    .into_iter()
    .collect()
}

/// Measures one operating point from cold: `warmup` cycles unmeasured,
/// then a `window`-cycle measurement.
///
/// # Errors
///
/// Propagates network construction errors.
pub fn measure(
    spec: &NocSpec,
    pattern: Pattern,
    rate: f64,
    warmup: u64,
    window: u64,
    seed: u64,
) -> Result<LoadPoint, XpipesError> {
    point(spec, pattern, rate, Start::Cold { warmup }, window, seed)
}

/// Sweeps offered load over `rates` from cold, serially on the calling
/// thread, producing one [`LoadPoint`] each.
///
/// # Errors
///
/// Propagates network construction errors.
pub fn sweep(
    spec: &NocSpec,
    pattern: Pattern,
    rates: &[f64],
    warmup: u64,
    window: u64,
    seed: u64,
) -> Result<Vec<LoadPoint>, XpipesError> {
    sweep_on(
        spec,
        pattern,
        rates,
        Start::Cold { warmup },
        window,
        seed,
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_topology::builders::mesh;

    fn spec_3x3() -> NocSpec {
        let mut b = mesh(3, 3).unwrap();
        for i in 0..3 {
            b.attach_initiator(format!("cpu{i}"), (i, 0)).unwrap();
        }
        let mut targets = Vec::new();
        for i in 0..3 {
            targets.push(b.attach_target(format!("m{i}"), (i, 2)).unwrap());
        }
        let mut spec = NocSpec::new("sweep", b.into_topology());
        for (i, t) in targets.into_iter().enumerate() {
            spec.map_address(t, (i as u64) << 20, 1 << 20).unwrap();
        }
        spec
    }

    #[test]
    fn light_load_has_low_latency() {
        let p = measure(&spec_3x3(), Pattern::Uniform, 0.005, 500, 3000, 11).unwrap();
        assert!(p.accepted_packets_per_cycle > 0.0);
        assert!(p.avg_latency_cycles > 5.0, "{}", p.avg_latency_cycles);
        assert!(p.avg_latency_cycles < 100.0, "{}", p.avg_latency_cycles);
    }

    #[test]
    fn latency_rises_with_load() {
        let spec = spec_3x3();
        let light = measure(&spec, Pattern::Uniform, 0.005, 500, 4000, 11).unwrap();
        let heavy = measure(&spec, Pattern::Uniform, 0.08, 500, 4000, 11).unwrap();
        assert!(
            heavy.avg_latency_cycles > light.avg_latency_cycles,
            "light {} heavy {}",
            light.avg_latency_cycles,
            heavy.avg_latency_cycles
        );
    }

    #[test]
    fn throughput_saturates() {
        let spec = spec_3x3();
        let pts = sweep(&spec, Pattern::Uniform, &[0.02, 0.30], 300, 3000, 13).unwrap();
        // At 0.30 offered per node the network is far past saturation:
        // accepted throughput must be well below offered.
        let offered_total = 0.30 * 3.0;
        assert!(pts[1].accepted_packets_per_cycle < offered_total * 0.8);
        // But more than the light-load accepted rate.
        assert!(pts[1].accepted_packets_per_cycle > pts[0].accepted_packets_per_cycle);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let spec = spec_3x3();
        let rates = [0.01, 0.03, 0.05];
        let cold = Start::Cold { warmup: 200 };
        let warm = warm_up(&spec, Pattern::Uniform, 0.03, 200, 19).unwrap();
        let warm = Start::Warm(&warm);
        let cold_seq = sweep(&spec, Pattern::Uniform, &rates, 200, 1500, 19).unwrap();
        let warm_seq = sweep_on(&spec, Pattern::Uniform, &rates, warm, 1500, 19, 1).unwrap();
        assert_ne!(
            cold_seq, warm_seq,
            "the two protocols give different curves"
        );
        // Whole points, bit for bit, at every worker count — warm starts
        // included, which the one runner puts on the pool.
        for workers in [1, 2, 4] {
            let par = sweep_on(&spec, Pattern::Uniform, &rates, cold, 1500, 19, workers).unwrap();
            assert_eq!(par, cold_seq, "cold, workers={workers}");
            let par = sweep_on(&spec, Pattern::Uniform, &rates, warm, 1500, 19, workers).unwrap();
            assert_eq!(par, warm_seq, "warm, workers={workers}");
        }
    }

    #[test]
    fn percentile_at_least_mean_under_load() {
        let p = measure(&spec_3x3(), Pattern::Uniform, 0.05, 300, 3000, 23).unwrap();
        assert!(p.p95_latency_cycles >= p.avg_latency_cycles * 0.8, "{p:?}");
        assert!(p.p95_latency_cycles <= p.max_latency_cycles + 32.0, "{p:?}");
    }

    #[test]
    fn warm_sweep_is_deterministic() {
        let spec = spec_3x3();
        let rates = [0.01, 0.03, 0.06];
        let warm = warm_up(&spec, Pattern::Uniform, 0.03, 500, 29).unwrap();
        assert_eq!(warm.cycles, 500);
        let start = Start::Warm(&warm);
        let a = sweep_on(&spec, Pattern::Uniform, &rates, start, 2000, 29, 1).unwrap();
        let b = sweep_on(&spec, Pattern::Uniform, &rates, start, 2000, 29, 1).unwrap();
        assert_eq!(a, b, "warm sweep is deterministic");
        for (p, r) in a.iter().zip(rates) {
            assert_eq!(p.offered, r);
            assert!(p.accepted_packets_per_cycle > 0.0, "{p:?}");
            assert!(p.avg_latency_cycles > 0.0, "{p:?}");
        }
    }

    #[test]
    fn warm_sweep_latency_rises_with_load() {
        let spec = spec_3x3();
        let warm = warm_up(&spec, Pattern::Uniform, 0.02, 400, 31).unwrap();
        let start = Start::Warm(&warm);
        let pts = sweep_on(&spec, Pattern::Uniform, &[0.005, 0.08], start, 4000, 31, 1).unwrap();
        assert!(
            pts[1].avg_latency_cycles > pts[0].avg_latency_cycles,
            "light {} heavy {}",
            pts[0].avg_latency_cycles,
            pts[1].avg_latency_cycles
        );
    }

    #[test]
    fn sweep_preserves_order() {
        let spec = spec_3x3();
        let rates = [0.01, 0.02, 0.03];
        let pts = sweep(&spec, Pattern::Neighbor, &rates, 200, 1500, 17).unwrap();
        assert_eq!(pts.len(), 3);
        for (p, r) in pts.iter().zip(rates) {
            assert_eq!(p.offered, r);
        }
    }
}
