//! Measurement orchestration: warm-up, measure, report.
//!
//! One protocol: every operating point builds its own network, warms it
//! up for `warmup` unmeasured cycles at its own rate, then measures a
//! `window`. [`measure`] runs one point, [`sweep`] a curve on the
//! calling thread, and [`sweep_on`] the same curve on a worker count.

use xpipes::noc::Noc;
use xpipes::XpipesError;
use xpipes_sim::parallel::{parallel_map_ordered, worker_count};
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

/// Measures one operating point from cold: `warmup` cycles unmeasured,
/// then a `window`-cycle measurement by differencing the network
/// statistics.
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

/// The one sweep runner: [`measure`]s every rate in `rates` on `workers`
/// threads of the deterministic work pool ([`xpipes_sim::parallel`];
/// 0 = host parallelism, 1 = inline on the calling thread). Each
/// operating point is seeded independently and results come back in
/// submission order, so the curve is identical at every worker count.
///
/// # Errors
///
/// Propagates network construction errors.
pub fn sweep_on(
    spec: &NocSpec,
    pattern: Pattern,
    rates: &[f64],
    warmup: u64,
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
        measure(spec, pattern, rate, warmup, window, seed)
    })
    .into_iter()
    .collect()
}

/// Sweeps offered load over `rates` serially on the calling thread,
/// producing one [`LoadPoint`] each.
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
    sweep_on(spec, pattern, rates, warmup, window, seed, 1)
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
        let seq = sweep(&spec, Pattern::Uniform, &rates, 200, 1500, 19).unwrap();
        // Whole points, bit for bit, at every worker count.
        for workers in [1, 2, 4] {
            let par = sweep_on(&spec, Pattern::Uniform, &rates, 200, 1500, 19, workers).unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn percentile_at_least_mean_under_load() {
        let p = measure(&spec_3x3(), Pattern::Uniform, 0.05, 300, 3000, 23).unwrap();
        assert!(p.p95_latency_cycles >= p.avg_latency_cycles * 0.8, "{p:?}");
        assert!(p.p95_latency_cycles <= p.max_latency_cycles + 32.0, "{p:?}");
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
