//! Kernel-health observer contract tests.
//!
//! `KernelHealth` counts the steps the engine took (on the event kernel,
//! or on the full-scan oracle that only tests can reach). The counters
//! are pure functions of the seeded simulation: this suite pins that
//! they are deterministic across runs, that the event kernel and the
//! oracle take the same number of steps, that no observer set or fault
//! model moves a production run off the event kernel, and that the
//! fault-campaign progress journal built on top of them is
//! byte-identical across `--jobs` worker counts.

use xpipes::monitor::MonitorConfig;
use xpipes::noc::{Noc, TelemetryConfig};
use xpipes_ocp::Request;
use xpipes_sim::{FaultKind, FaultPlan, KernelHealth, SimRng};
use xpipes_topology::spec::NocSpec;
use xpipes_topology::NiId;
use xpipes_traffic::faultcampaign::{
    campaign_spec, progress_line, run_campaign, run_campaign_streaming, CampaignConfig,
};

/// Minimal deterministic open-loop driver (kernel-agnostic: stepping is
/// the caller's job).
struct Driver {
    rng: SimRng,
    initiators: Vec<NiId>,
    windows: Vec<(u64, u64)>,
}

impl Driver {
    fn new(spec: &NocSpec, seed: u64) -> Self {
        let initiators = spec
            .topology
            .nis_of_kind(xpipes_topology::NiKind::Initiator)
            .map(|a| a.ni)
            .collect();
        let windows = spec
            .topology
            .nis_of_kind(xpipes_topology::NiKind::Target)
            .map(|a| {
                let r = spec.range_of(a.ni).expect("target mapped");
                (r.base, r.size)
            })
            .collect();
        Driver {
            rng: SimRng::seed(seed),
            initiators,
            windows,
        }
    }

    fn inject(&mut self, noc: &mut Noc) {
        for idx in 0..self.initiators.len() {
            if !self.rng.chance(0.08) {
                continue;
            }
            let (base, size) = self.windows[self.rng.below(self.windows.len())];
            let addr = base + (self.rng.next_u64() % (size / 8).max(1)) * 8;
            if let Ok(req) = Request::read(addr, 4) {
                let _ = noc.submit(self.initiators[idx], req);
            }
        }
    }

    fn drain(&self, noc: &mut Noc) {
        for &ni in &self.initiators {
            while let Ok(Some(_)) = noc.take_response(ni) {}
        }
    }
}

/// Drives one seeded run with the given stepper and returns its health.
fn run_health(heavy: bool, step: fn(&mut Noc)) -> KernelHealth {
    let spec = campaign_spec();
    let mut noc = Noc::with_faults(&spec, 23, &FaultPlan::none()).expect("assembles");
    if heavy {
        noc.enable_trace();
        noc.enable_monitor(MonitorConfig {
            liveness_bound: 100_000,
            max_violations: 64,
        });
    }
    let mut driver = Driver::new(&spec, 23 ^ 0x5EED);
    for _ in 0..500 {
        driver.inject(&mut noc);
        step(&mut noc);
    }
    for _ in 0..2000 {
        if noc.is_idle() {
            break;
        }
        step(&mut noc);
    }
    driver.drain(&mut noc);
    noc.finish_monitor();
    noc.kernel_health().clone()
}

/// The counters are a pure function of the seeded run: two identical
/// runs produce identical `KernelHealth` (full structural equality,
/// samples included).
#[test]
fn health_counters_are_deterministic() {
    assert_eq!(run_health(false, Noc::step), run_health(false, Noc::step));
    assert_eq!(run_health(true, Noc::step), run_health(true, Noc::step));
}

/// Event kernel vs oracle on the same seeded run: both take the same
/// number of steps, each counted under its own kernel.
#[test]
fn kernels_agree_on_step_totals_with_opposite_dispatch_mix() {
    let event = run_health(false, Noc::step);
    let reference = run_health(false, Noc::step_reference);
    assert_eq!(event.steps(), reference.steps(), "step totals diverged");
    // A bare network rides the event kernel exclusively…
    assert_eq!(event.fallback_steps(), 0);
    assert!(event.event_steps() > 0);
    // …while a run forced onto the oracle never touches it.
    assert_eq!(reference.event_steps(), 0);
    assert_eq!(reference.fallback_steps(), reference.steps());
}

/// What a fault campaign arms — protocol monitor, telemetry with flight
/// recorder, attribution — under each of its fault models, and a traced
/// run besides: every step stays on the event kernel, and `run` steps
/// every cycle of the drained tail.
#[test]
fn campaign_observers_and_trace_stay_on_the_event_kernel() {
    let spec = campaign_spec();
    for kind in FaultKind::ALL {
        let mut noc = Noc::with_faults(&spec, 23, &kind.plan(0.03)).expect("assembles");
        noc.enable_monitor(MonitorConfig::default());
        noc.enable_telemetry(TelemetryConfig {
            flight_recorder_depth: 256,
            ..TelemetryConfig::default()
        });
        noc.enable_attribution();
        let mut driver = Driver::new(&spec, 23 ^ 0x5EED);
        for _ in 0..500 {
            driver.inject(&mut noc);
            noc.step();
        }
        noc.run(5000);
        assert!(noc.is_idle(), "{kind} did not drain");
        noc.finish_monitor();
        assert_eq!(noc.monitor_violations(), [], "{kind}");
        let health = noc.kernel_health();
        assert_eq!(health.fallback_steps(), 0, "{kind}");
        assert!(health.event_steps() >= 500, "{kind}");
        assert_eq!(health.steps(), 5500, "{kind}");
    }
    let traced = run_health(true, Noc::step);
    assert_eq!(traced.fallback_steps(), 0);
    assert!(traced.event_steps() > 0);
}

/// The per-grid-point campaign progress journal is built from
/// deterministic fields only, so the stream is byte-identical across
/// worker counts — and the streamed report matches the one-shot runner.
#[test]
fn campaign_progress_journal_is_byte_identical_across_jobs() {
    let spec = campaign_spec();
    let faults = [FaultKind::ALL[0], FaultKind::ALL[1]];
    let mut cfg = CampaignConfig::new(7, 2000);
    cfg.error_rates = vec![0.02];
    cfg.flight_recorder_depth = 0;
    let journal = |workers: usize| {
        let mut lines = String::new();
        let (report, pool) = run_campaign_streaming::<xpipes::XpipesError>(
            &spec,
            &faults,
            &cfg,
            None,
            workers,
            0,
            Vec::new(),
            &mut |point| {
                lines.push_str(&progress_line(&faults, &cfg, point).render_compact());
                lines.push('\n');
                Ok(())
            },
        )
        .expect("campaign runs");
        assert_eq!(pool.items, 3, "pool stats cover every grid point");
        (lines, report.to_json())
    };
    let (serial_lines, serial_report) = journal(1);
    let (parallel_lines, parallel_report) = journal(3);
    assert_eq!(serial_lines, parallel_lines, "journal depends on --jobs");
    assert_eq!(serial_report, parallel_report);
    assert_eq!(serial_lines.lines().count(), 3, "baseline + 2 fault points");
    assert!(serial_lines.contains("\"fault\":\"baseline\""));
    // The hook is a pure observer: the hookless serial call agrees.
    let oneshot = run_campaign(&spec, &faults, &cfg)
        .expect("campaign runs")
        .to_json();
    assert_eq!(serial_report, oneshot);
}
