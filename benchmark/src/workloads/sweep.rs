//! `sweep_mesh4`: the paper's load–latency curve on a 4x4 mesh, from an
//! idle-dominated network (rate 0.02) to a saturated one (rate 0.8).
//! The same kernel as `kernel_mesh64`, loaded the opposite way.

use std::time::Instant;

use xpipes::noc::Noc;
use xpipes::XpipesError;
use xpipes_sim::KernelPhase;
use xpipes_topology::builders::mesh;
use xpipes_topology::spec::NocSpec;
use xpipes_traffic::runner::{self, LoadPoint};
use xpipes_traffic::{Injector, InjectorConfig, Pattern};

use super::Workload;
use crate::harness::{fnv_hex, Measured, Outcome, Params};
use crate::metrics::{Layers, SWEEP_RATES};
use crate::stats::median;
use crate::trace::Tracer;

pub struct SweepMesh4 {
    rates: Vec<f64>,
    warmup: u64,
    window: u64,
    seed: u64,
}

impl SweepMesh4 {
    pub fn new(p: &Params) -> Self {
        SweepMesh4 {
            rates: SWEEP_RATES.iter().map(|(r, _)| *r).collect(),
            warmup: p.scaled(1_000),
            window: p.scaled(10_000),
            seed: p.derive(4),
        }
    }
}

/// 4x4 mesh, four initiators along the top row, four targets along the
/// bottom row, 1 MiB per target.
fn mesh4_spec() -> NocSpec {
    let mut b = mesh(4, 4).expect("4x4 mesh is valid");
    for i in 0..4 {
        b.attach_initiator(format!("cpu{i}"), (i, 0))
            .expect("free port");
    }
    let targets: Vec<_> = (0..4)
        .map(|i| b.attach_target(format!("m{i}"), (i, 3)).expect("free port"))
        .collect();
    let mut spec = NocSpec::new("sweep-mesh4", b.into_topology());
    for (i, t) in targets.into_iter().enumerate() {
        spec.map_address(t, (i as u64) << 20, 1 << 20)
            .expect("window fits");
    }
    spec
}

impl Workload for SweepMesh4 {
    type Ready = NocSpec;
    type Raw = Result<Vec<LoadPoint>, XpipesError>;

    /// The set-up is microseconds; many samples make its median steady.
    fn spare_setups(&self) -> usize {
        400
    }

    fn setup(&self, t: &Tracer) -> NocSpec {
        t.span("topology.build", mesh4_spec)
    }

    fn body(&self, spec: &mut NocSpec, t: &Tracer) -> Self::Raw {
        t.span("traffic.sweep", || {
            runner::sweep(
                spec,
                Pattern::Uniform,
                &self.rates,
                self.warmup,
                self.window,
                self.seed,
            )
        })
    }

    fn finish(&self, _spec: NocSpec, raw: Self::Raw) -> Outcome {
        let cycles = self.rates.len() as u64 * (self.warmup + self.window);
        let mut o = Outcome {
            work: cycles as f64,
            ..Outcome::default()
        };
        let points = match raw {
            Ok(points) => points,
            Err(e) => {
                o.attempted = self.rates.len() as u64;
                o.failed = o.attempted;
                o.problems.push(format!("sweep failed: {e}"));
                return o;
            }
        };
        for (i, rate) in self.rates.iter().enumerate() {
            let ok = points.get(i).is_some_and(|pt| {
                pt.accepted_packets_per_cycle > 0.0 && pt.avg_latency_cycles.is_finite()
            });
            o.check(ok, || format!("rate {rate}: no packet accepted"));
        }
        o.sim_latency_cycles = points.first().map_or(f64::NAN, |pt| pt.avg_latency_cycles);
        let saturation = points
            .iter()
            .map(|pt| pt.accepted_packets_per_cycle)
            .fold(0.0, f64::max);

        let table: String = points
            .iter()
            .map(|pt| {
                format!(
                    "{:.4} {:.6} {:.6} {:.1} {:.1} {}\n",
                    pt.offered,
                    pt.accepted_packets_per_cycle,
                    pt.avg_latency_cycles,
                    pt.p95_latency_cycles,
                    pt.max_latency_cycles,
                    pt.retransmissions
                )
            })
            .collect();
        let fp = &mut o.fingerprint;
        fp.insert("cycles".into(), cycles.to_string());
        fp.insert("points_fnv".into(), fnv_hex(table.as_bytes()));
        fp.insert(
            "retransmissions".into(),
            points
                .iter()
                .map(|pt| pt.retransmissions)
                .sum::<u64>()
                .to_string(),
        );
        fp.insert(
            "saturation_pkts_per_cycle".into(),
            format!("{saturation:.6}"),
        );
        o.samples.insert("saturation", vec![saturation]);
        o
    }

    fn layers(&self, t: &Tracer, run: &Measured, out: &mut Layers) {
        let wall = median(&run.wall_s);
        let cycles = self.rates.len() as u64 * (self.warmup + self.window);
        out.set("topology.build_s", t.total_s("topology.build"));
        out.set("core.sim_cycles_per_s", cycles as f64 / wall);
        out.set(
            "traffic.sweep.saturation_pkts_per_cycle",
            run.pooled("saturation").last().copied().unwrap_or(0.0),
        );

        let spec = mesh4_spec();
        t.span("topology.routing_tables", || spec.routing_tables())
            .expect("the mesh routes");
        out.set(
            "topology.routing_tables_s",
            t.total_s("topology.routing_tables"),
        );
        t.span("core.assemble", || Noc::with_seed(&spec, self.seed))
            .expect("the mesh assembles");
        out.set("core.assemble_s", t.total_s("core.assemble"));

        // Per rate: the product's `measure`, then a benchmark-owned run
        // that can see flit-hops, rejected submits and the drain.
        let (mut hops, mut run_s) = (0u64, 0.0);
        for (rate, tag) in SWEEP_RATES {
            let name = format!("traffic.sweep.point.{tag}");
            let point = t.span(&name, || {
                runner::measure(
                    &spec,
                    Pattern::Uniform,
                    rate,
                    self.warmup,
                    self.window,
                    self.seed,
                )
            });
            assert!(point.is_ok(), "measure at rate {rate}");
            out.set(&format!("traffic.sweep.point_s.{tag}"), t.total_s(&name));

            let own = self.owned_run(&spec, rate, false);
            out.set(
                &format!("core.ns_per_flit_hop.{tag}"),
                own.run_s * 1e9 / own.flit_hops.max(1) as f64,
            );
            hops += own.flit_hops;
            run_s += own.run_s;
            if rate == SWEEP_RATES[0].0 {
                out.set("core.event_steps", own.event_steps as f64);
                out.set("core.fallback_steps", own.fallback_steps as f64);
                out.set("core.time_jumps", own.time_jumps as f64);
                out.set(
                    "core.fallback_frac",
                    own.fallback_steps as f64
                        / (own.event_steps + own.fallback_steps).max(1) as f64,
                );
            }
        }
        out.set("core.ns_per_flit_hop", run_s * 1e9 / hops.max(1) as f64);

        // Kernel phases and activity at the saturated end of the curve.
        let top = SWEEP_RATES[SWEEP_RATES.len() - 1].0;
        let own = self.owned_run(&spec, top, true);
        out.set("core.active_channels_mean", own.active_channels_mean);
        for (phase, nanos) in KernelPhase::ALL.into_iter().zip(own.phase_nanos) {
            out.set(
                &format!("core.phase.{}_s", phase.label()),
                nanos as f64 * 1e-9,
            );
        }
    }
}

/// What a benchmark-owned run at one rate observed.
struct OwnedRun {
    run_s: f64,
    flit_hops: u64,
    event_steps: u64,
    fallback_steps: u64,
    time_jumps: u64,
    active_channels_mean: f64,
    phase_nanos: [u64; 5],
}

impl SweepMesh4 {
    /// Injects at `rate` for a quarter of the sweep's window and runs
    /// the network dry (a saturated point queues several windows' worth
    /// of packets, so the full window would mostly time the drain).
    /// Asserts what `runner::measure` cannot see: no rejected submit,
    /// drained, every packet delivered.
    fn owned_run(&self, spec: &NocSpec, rate: f64, profile: bool) -> OwnedRun {
        let mut noc = Noc::with_seed(spec, self.seed).expect("the mesh assembles");
        if profile {
            noc.enable_profiling();
        }
        let cfg = InjectorConfig::new(rate, Pattern::Uniform);
        let mut inj = Injector::new(spec, cfg, self.seed ^ 0x9E37).expect("targets are mapped");
        let cycles = (self.warmup + self.window) / 4;
        let t0 = Instant::now();
        let (mut active, mut samples) = (0u64, 0u64);
        for slice in 0..cycles.div_ceil(1_000) {
            inj.run(&mut noc, 1_000.min(cycles - slice * 1_000));
            inj.drain_responses(&mut noc);
            if let Some((scheduled, _)) = noc.active_channels() {
                active += scheduled as u64;
                samples += 1;
            }
        }
        let drained = noc.run_until_idle(cycles * 40);
        inj.drain_responses(&mut noc);
        let run_s = t0.elapsed().as_secs_f64();
        let stats = noc.stats();
        assert_eq!(inj.rejected(), 0, "rejected submits at rate {rate}");
        assert!(drained, "rate {rate} did not drain");
        assert_eq!(stats.packets_sent, stats.packets_delivered, "rate {rate}");
        let h = noc.kernel_health();
        OwnedRun {
            run_s,
            flit_hops: stats.flits_routed,
            event_steps: h.event_steps(),
            fallback_steps: h.fallback_steps(),
            time_jumps: h.time_jumps(),
            active_channels_mean: active as f64 / samples.max(1) as f64,
            phase_nanos: KernelPhase::ALL.map(|ph| noc.kernel_profile().map_or(0, |p| p.nanos(ph))),
        }
    }
}
