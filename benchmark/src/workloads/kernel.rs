//! `kernel_mesh64`: the bare event kernel on a large sparse fabric.
//!
//! A 64x64 mesh in 16 tiles of 16x16, each tile one initiator and three
//! targets at Manhattan distance 6 — 64 NIs, exactly what the 6-bit
//! `src_ni` header field can name. (The tracked `cycle_engine` large
//! rows attach 80 NIs, so initiators 13–15 have every submit refused
//! and the drain never ends; this workload asserts neither happens.)

use std::time::Instant;

use xpipes::noc::{Noc, NocStats};
use xpipes_sim::{KernelHealth, KernelPhase};
use xpipes_topology::builders::mesh;
use xpipes_topology::spec::NocSpec;
use xpipes_traffic::{Injector, InjectorConfig, Pattern};

use super::Workload;
use crate::harness::{Measured, Outcome, Params};
use crate::metrics::Layers;
use crate::stats::median;
use crate::trace::Tracer;

const TILES_PER_SIDE: usize = 4;
const TARGETS_PER_TILE: usize = 3;
/// Cycles between response drains and activity samples.
const SLICE: u64 = 1_000;

pub struct KernelMesh64 {
    dim: usize,
    cycles: u64,
    rate: f64,
    noc_seed: u64,
    inj_seed: u64,
}

impl KernelMesh64 {
    pub fn new(p: &Params) -> Self {
        KernelMesh64 {
            dim: if p.quick { 32 } else { 64 },
            cycles: p.scaled(20_000),
            rate: 0.05,
            noc_seed: p.derive(2),
            inj_seed: p.derive(3),
        }
    }
}

/// The `dim`x`dim` tiled mesh: per tile a central initiator and three
/// targets 3+3 hops away, attached tile-major as `Pattern::TileUniform`
/// indexes them. Six switch traversals plus the ejection hop fill the
/// 7-hop source-route budget at any `dim`.
pub fn tiled_spec(dim: usize) -> NocSpec {
    let tile = dim / TILES_PER_SIDE;
    assert!(
        dim.is_multiple_of(TILES_PER_SIDE) && tile >= 8,
        "tiles must be at least 8x8"
    );
    let mid = tile / 2;
    let (lo, hi) = (mid - 3, mid + 3);
    let mut b = mesh(dim, dim).expect("mesh dimensions are valid");
    let mut targets = Vec::new();
    for ty in 0..TILES_PER_SIDE {
        for tx in 0..TILES_PER_SIDE {
            let t = ty * TILES_PER_SIDE + tx;
            let (ox, oy) = (tx * tile, ty * tile);
            b.attach_initiator(format!("cpu{t}"), (ox + mid, oy + mid))
                .expect("free port");
            for (k, (dx, dy)) in [(lo, lo), (hi, lo), (lo, hi)].into_iter().enumerate() {
                let name = format!("m{}", t * TARGETS_PER_TILE + k);
                targets.push(
                    b.attach_target(name, (ox + dx, oy + dy))
                        .expect("free port"),
                );
            }
        }
    }
    let mut spec = NocSpec::new(format!("kernel-mesh{dim}"), b.into_topology());
    for (i, t) in targets.into_iter().enumerate() {
        spec.map_address(t, (i as u64) << 20, 1 << 20)
            .expect("window fits");
    }
    spec
}

/// Everything one injection run leaves behind.
pub struct Ran {
    stats: NocStats,
    health: KernelHealth,
    injected: u64,
    rejected: u64,
    drained: bool,
    drain_cycles: u64,
    active_channels_mean: f64,
    run_s: f64,
}

impl KernelMesh64 {
    fn injector(&self, spec: &NocSpec) -> Injector {
        let pattern = Pattern::TileUniform {
            targets_per_tile: TARGETS_PER_TILE,
        };
        Injector::new(spec, InjectorConfig::new(self.rate, pattern), self.inj_seed)
            .expect("every target has a window")
    }

    /// Injects for `cycles`, then runs the network dry.
    fn inject_and_drain(&self, spec: &NocSpec, noc: &mut Noc, cycles: u64) -> Ran {
        let mut inj = self.injector(spec);
        let t0 = Instant::now();
        let (mut active, mut samples) = (0u64, 0u64);
        let mut left = cycles;
        while left > 0 {
            let n = left.min(SLICE);
            inj.run(noc, n);
            inj.drain_responses(noc);
            if let Some((scheduled, _)) = noc.active_channels() {
                active += scheduled as u64;
                samples += 1;
            }
            left -= n;
        }
        let before = noc.now().as_u64();
        let drained = noc.run_until_idle(cycles.max(10_000));
        inj.drain_responses(noc);
        Ran {
            run_s: t0.elapsed().as_secs_f64(),
            stats: noc.stats(),
            health: noc.kernel_health().clone(),
            injected: inj.injected(),
            rejected: inj.rejected(),
            drained,
            drain_cycles: noc.now().as_u64() - before,
            active_channels_mean: active as f64 / samples.max(1) as f64,
        }
    }
}

impl Workload for KernelMesh64 {
    type Ready = (NocSpec, Noc);
    type Raw = Ran;

    fn spare_setups(&self) -> usize {
        10
    }

    fn setup(&self, t: &Tracer) -> Self::Ready {
        let spec = t.span("topology.build", || tiled_spec(self.dim));
        let noc = t
            .span("core.assemble", || Noc::with_seed(&spec, self.noc_seed))
            .expect("the tiled spec assembles");
        (spec, noc)
    }

    fn body(&self, (spec, noc): &mut Self::Ready, t: &Tracer) -> Ran {
        let ran = t.span("core.inject_and_drain", || {
            self.inject_and_drain(spec, noc, self.cycles)
        });
        t.count("core.flit_hops", ran.stats.flits_routed);
        t.count("core.cycles", ran.stats.cycles);
        ran
    }

    fn finish(&self, _ready: Self::Ready, ran: Ran) -> Outcome {
        let s = &ran.stats;
        let mut o = Outcome {
            work: s.flits_routed as f64,
            sim_latency_cycles: s.transaction_latency.mean(),
            ..Outcome::default()
        };
        // One attempt per offered packet; an undrained network fails
        // them all.
        o.attempted = ran.injected + ran.rejected;
        let lost = s.packets_sent.saturating_sub(s.packets_delivered) + ran.rejected;
        o.failed = if ran.drained { lost } else { o.attempted };
        if ran.rejected > 0 {
            o.problems
                .push(format!("{} submits rejected", ran.rejected));
        }
        if !ran.drained {
            o.problems.push(format!(
                "network did not drain in {} cycles",
                ran.drain_cycles
            ));
        } else if s.packets_sent != s.packets_delivered {
            o.problems.push(format!(
                "{} of {} packets delivered",
                s.packets_delivered, s.packets_sent
            ));
        }

        let fp = &mut o.fingerprint;
        fp.insert("cycles".into(), s.cycles.to_string());
        fp.insert("drain_cycles".into(), ran.drain_cycles.to_string());
        fp.insert("flit_hops".into(), s.flits_routed.to_string());
        fp.insert("packets_sent".into(), s.packets_sent.to_string());
        fp.insert("packets_delivered".into(), s.packets_delivered.to_string());
        fp.insert("retransmissions".into(), s.retransmissions.to_string());
        fp.insert(
            "latency_mean_cycles".into(),
            format!("{:.6}", s.transaction_latency.mean()),
        );

        let h = &ran.health;
        for (key, value) in [
            ("run_s", ran.run_s),
            ("flit_hops", s.flits_routed as f64),
            ("cycles", s.cycles as f64),
            ("event_steps", h.event_steps() as f64),
            ("fallback_steps", h.fallback_steps() as f64),
            ("time_jumps", h.time_jumps() as f64),
            ("steps", h.steps() as f64),
            ("active_channels_mean", ran.active_channels_mean),
        ] {
            o.samples.insert(key, vec![value]);
        }
        o
    }

    fn layers(&self, t: &Tracer, run: &Measured, out: &mut Layers) {
        let last = |key: &str| run.pooled(key).last().copied().unwrap_or(0.0);
        out.set("topology.build_s", t.total_s("topology.build"));
        out.set("core.assemble_s", t.total_s("core.assemble"));
        let run_s = median(&run.pooled("run_s"));
        out.set("core.ns_per_flit_hop", run_s * 1e9 / last("flit_hops"));
        out.set("core.sim_cycles_per_s", last("cycles") / run_s);
        out.set("core.event_steps", last("event_steps"));
        out.set("core.fallback_steps", last("fallback_steps"));
        out.set("core.time_jumps", last("time_jumps"));
        out.set(
            "core.fallback_frac",
            last("fallback_steps") / last("steps").max(1.0),
        );
        out.set("core.active_channels_mean", last("active_channels_mean"));

        let spec = tiled_spec(self.dim);
        t.span("topology.routing_tables", || spec.routing_tables())
            .expect("the tiled spec routes");
        out.set(
            "topology.routing_tables_s",
            t.total_s("topology.routing_tables"),
        );

        // Kernel phases, from the product's own profiler on one more run.
        let mut noc = Noc::with_seed(&spec, self.noc_seed).expect("assembles");
        noc.enable_profiling();
        t.span("core.profiled_run", || {
            self.inject_and_drain(&spec, &mut noc, self.cycles)
        });
        if let Some(profile) = noc.kernel_profile() {
            for phase in KernelPhase::ALL {
                out.set(
                    &format!("core.phase.{}_s", phase.label()),
                    profile.nanos(phase) as f64 * 1e-9,
                );
            }
        }

        // Checkpoint and restore mid-run, traffic in flight.
        let mut noc = Noc::with_seed(&spec, self.noc_seed).expect("assembles");
        self.injector(&spec).run(&mut noc, self.cycles / 10);
        let mut fresh = Noc::with_seed(&spec, self.noc_seed).expect("assembles");
        super::checkpoint_layers(&noc, &mut fresh, 5, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_topology::NiKind;

    /// The defect this workload routes around: a 65th NI cannot be
    /// named by the 6-bit `src_ni` field and every submit from it fails.
    #[test]
    fn the_64x64_spec_has_exactly_64_nis_and_no_rejected_submit() {
        let spec = tiled_spec(64);
        assert_eq!(spec.topology.nis().len(), 64);
        assert_eq!(spec.topology.nis_of_kind(NiKind::Initiator).count(), 16);
        assert!(spec.topology.nis().iter().all(|a| a.ni.0 < 64));

        let w = KernelMesh64 {
            dim: 64,
            cycles: 2_000,
            rate: 0.05,
            noc_seed: 1,
            inj_seed: 2,
        };
        let mut noc = Noc::with_seed(&spec, w.noc_seed).unwrap();
        let ran = w.inject_and_drain(&spec, &mut noc, w.cycles);
        assert!(ran.injected > 1_000);
        assert_eq!(ran.rejected, 0);
        assert!(ran.drained);
        assert_eq!(ran.stats.packets_sent, ran.stats.packets_delivered);
        assert_eq!(ran.health.fallback_steps(), 0);
    }
}
