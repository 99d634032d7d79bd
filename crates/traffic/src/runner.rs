//! Measurement orchestration: warm-up, measure, report.
//!
//! Two protocols are offered. The classic [`measure`]/[`sweep`] path
//! warms the network up from cold at every operating point. The
//! warm-start path ([`sweep_warm_up`] + [`sweep_from_checkpoint`])
//! pays for one warm-up, checkpoints it, and branches every operating
//! point off the same warmed state — O(warmup + n·window) instead of
//! O(n·(warmup + window)) for an n-point curve. The two protocols give
//! different (both valid) curves: warm-start points share their warm-up
//! traffic and RNG stream positions, so compare points within one
//! protocol, not across.

use xpipes::noc::Noc;
use xpipes::XpipesError;
use xpipes_sim::{Snapshot, SnapshotReader, SnapshotWriter};
use xpipes_topology::spec::NocSpec;

use crate::generator::{Injector, InjectorConfig};
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

/// Measures one operating point.
///
/// Runs `warmup` cycles unmeasured, then measures `window` cycles by
/// differencing the network statistics.
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
    let mut noc = Noc::with_seed(spec, seed)?;
    let mut inj = Injector::new(spec, InjectorConfig::new(rate, pattern), seed ^ 0x9E37)?;
    inj.run(&mut noc, warmup);
    inj.drain_responses(&mut noc);
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

/// Parallel variant of [`sweep`], fanned out on the deterministic work
/// pool ([`xpipes_sim::parallel`]). Each operating point is seeded
/// independently and results come back in submission order, so the
/// output is identical to the sequential sweep — the pool just bounds
/// thread count at the host's parallelism instead of spawning one
/// thread per point.
///
/// # Errors
///
/// Propagates network construction errors from any point.
pub fn sweep_parallel(
    spec: &NocSpec,
    pattern: Pattern,
    rates: &[f64],
    warmup: u64,
    window: u64,
    seed: u64,
) -> Result<Vec<LoadPoint>, XpipesError> {
    let workers = xpipes_sim::parallel::worker_count(rates.len());
    xpipes_sim::parallel::parallel_map_ordered(rates, workers, |_, &r| {
        measure(spec, pattern, r, warmup, window, seed)
    })
    .into_iter()
    .collect()
}

/// A warmed measurement state: the (observer-free) network and injector
/// checkpointed after the warm-up phase, ready to branch into many
/// operating points without re-warming.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepWarmState {
    /// Warm-up cycles already executed.
    pub warmup: u64,
    pattern: Pattern,
    noc: Vec<u8>,
    injector: Vec<u8>,
}

/// Warms a network for `warmup` cycles at `warm_rate` offered load and
/// checkpoints it for [`sweep_from_checkpoint`].
///
/// Pick `warm_rate` representative of the sweep (e.g. its median rate):
/// every branched point inherits this warm-up's queue occupancy.
///
/// # Errors
///
/// Propagates network construction errors.
pub fn sweep_warm_up(
    spec: &NocSpec,
    pattern: Pattern,
    warm_rate: f64,
    warmup: u64,
    seed: u64,
) -> Result<SweepWarmState, XpipesError> {
    let mut noc = Noc::with_seed(spec, seed)?;
    let mut inj = Injector::new(spec, InjectorConfig::new(warm_rate, pattern), seed ^ 0x9E37)?;
    inj.run(&mut noc, warmup);
    inj.drain_responses(&mut noc);
    let mut w = SnapshotWriter::new();
    inj.save_state(&mut w);
    Ok(SweepWarmState {
        warmup,
        pattern,
        noc: noc.checkpoint(),
        injector: w.finish(),
    })
}

/// Measures one operating point branched off a shared warm checkpoint:
/// restores the warmed network, switches the injector to `rate`, and
/// measures `window` cycles by differencing statistics.
///
/// # Errors
///
/// Propagates construction and checkpoint-decode errors (e.g. a warm
/// state captured on a differently shaped network).
pub fn measure_from_checkpoint(
    spec: &NocSpec,
    warm: &SweepWarmState,
    rate: f64,
    window: u64,
    seed: u64,
) -> Result<LoadPoint, XpipesError> {
    let mut noc = Noc::with_seed(spec, seed)?;
    noc.restore(&warm.noc)?;
    let mut inj = Injector::new(spec, InjectorConfig::new(rate, warm.pattern), seed ^ 0x9E37)?;
    let mut r = SnapshotReader::open(&warm.injector).map_err(XpipesError::from)?;
    inj.load_state(&mut r).map_err(XpipesError::from)?;
    r.finish().map_err(XpipesError::from)?;
    let before = noc.stats();
    inj.run(&mut noc, window);
    inj.drain_responses(&mut noc);
    let after = noc.stats();

    let delivered = after.packets_delivered - before.packets_delivered;
    Ok(LoadPoint {
        offered: rate,
        accepted_packets_per_cycle: delivered as f64 / window as f64,
        avg_latency_cycles: after.transaction_latency.mean(),
        p95_latency_cycles: after.latency_histogram.percentile(95.0).unwrap_or(0) as f64,
        max_latency_cycles: after.transaction_latency.max().unwrap_or(0.0),
        retransmissions: after.retransmissions - before.retransmissions,
    })
}

/// Sweeps offered load over `rates` with every point branched off the
/// shared warm checkpoint — one warm-up for the whole curve.
///
/// # Errors
///
/// Propagates construction and checkpoint-decode errors.
pub fn sweep_from_checkpoint(
    spec: &NocSpec,
    warm: &SweepWarmState,
    rates: &[f64],
    window: u64,
    seed: u64,
) -> Result<Vec<LoadPoint>, XpipesError> {
    rates
        .iter()
        .map(|&r| measure_from_checkpoint(spec, warm, r, window, seed))
        .collect()
}

/// Sweeps offered load over `rates`, producing one [`LoadPoint`] each.
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
    rates
        .iter()
        .map(|&r| measure(spec, pattern, r, warmup, window, seed))
        .collect()
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
        let rates = [0.01, 0.03];
        let seq = sweep(&spec, Pattern::Uniform, &rates, 200, 1500, 19).unwrap();
        let par = sweep_parallel(&spec, Pattern::Uniform, &rates, 200, 1500, 19).unwrap();
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.avg_latency_cycles, b.avg_latency_cycles);
            assert_eq!(a.accepted_packets_per_cycle, b.accepted_packets_per_cycle);
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
        let warm = sweep_warm_up(&spec, Pattern::Uniform, 0.03, 500, 29).unwrap();
        let a = sweep_from_checkpoint(&spec, &warm, &rates, 2000, 29).unwrap();
        let b = sweep_from_checkpoint(&spec, &warm, &rates, 2000, 29).unwrap();
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
        let warm = sweep_warm_up(&spec, Pattern::Uniform, 0.02, 400, 31).unwrap();
        let pts = sweep_from_checkpoint(&spec, &warm, &[0.005, 0.08], 4000, 31).unwrap();
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
