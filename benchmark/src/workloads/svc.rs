//! `svc_cold_long` and `svc_warm_short`: a fault campaign through the
//! campaign service — in-process `Server`, one `run_worker` thread, and
//! the operator calls `submit` → `watch` → `fetch_report`.
//!
//! Closed loop, one client, one compute thread: server and client
//! threads only block on sockets while the single worker simulates.

use std::fs;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use xpipes::noc::{Noc, TelemetryConfig};
use xpipes::MonitorConfig;
use xpipes_bench::cycle_engine;
use xpipes_service::proto;
use xpipes_service::{client, worker, CampaignSpec, Server, ServerConfig};
use xpipes_sim::parallel::parallel_map_ordered_stats;
use xpipes_sim::{FaultKind, Json};
use xpipes_traffic::faultcampaign::{
    assemble_report, campaign_spec, run_campaign, run_campaign_warm, run_grid_point,
    warm_checkpoint, CampaignConfig, CompletedPoint, WarmStart,
};
use xpipes_traffic::{Injector, InjectorConfig, Pattern};

use super::Workload;
use crate::harness::{fnv_hex, out_dir, Measured, Outcome, Params};
use crate::metrics::Layers;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// The two ways the same service layers are loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Few long cold points: simulation dominates.
    ColdLong,
    /// Many short warm-started points: per-point service cost dominates.
    WarmShort,
}

pub struct Service {
    spec: CampaignSpec,
    spec_json: Json,
    cfg: CampaignConfig,
    grid: u64,
    warm: Option<WarmStart>,
    /// The one-shot report the service's bytes must equal.
    reference: Vec<u8>,
    verify_s: f64,
    quick: bool,
}

/// `n` error rates `step`, `2*step`, … in percent.
fn rates(n: u64, step: u64) -> Vec<f64> {
    (1..=n).map(|i| (i * step) as f64 / 100.0).collect()
}

impl Service {
    /// Builds the campaign from the seed and computes its one-shot
    /// reference report.
    ///
    /// # Errors
    ///
    /// One line when the reference campaign cannot run.
    pub fn new(shape: Shape, p: &Params) -> Result<Self, String> {
        let (name, rates, cycles, warm_start) = match shape {
            // 5 faults x rates 0.03, 0.06 + baseline = 11 points of
            // 40 000 cycles.
            Shape::ColdLong => ("svc_cold_long", rates(2, 3), p.scaled(40_000), 0),
            // 5 faults x rates 0.02 … 0.10 + baseline = 26 points of 300
            // cycles, each restoring the 20 000-cycle warm checkpoint.
            Shape::WarmShort => ("svc_warm_short", rates(5, 2), 300, p.scaled(20_000)),
        };
        let spec = CampaignSpec {
            name: name.to_string(),
            faults: FaultKind::ALL.to_vec(),
            cycles,
            seed: p.derive(1),
            rates: Some(rates),
            warm_start,
            flight_depth: None,
        };
        let cfg = spec.config();
        let t = Instant::now();
        let noc_spec = campaign_spec();
        let (warm, report) = if warm_start == 0 {
            (None, run_campaign(&noc_spec, &spec.faults, &cfg))
        } else {
            let warm = warm_checkpoint(&noc_spec, &cfg, warm_start)
                .map_err(|e| format!("reference warm-up failed: {e}"))?;
            let report = run_campaign_warm(&noc_spec, &spec.faults, &cfg, &warm);
            (Some(warm), report)
        };
        let reference = report
            .map_err(|e| format!("reference campaign failed: {e}"))?
            .to_json()
            .into_bytes();
        Ok(Service {
            spec_json: spec.to_json(),
            grid: spec.grid(),
            cfg,
            spec,
            warm,
            reference,
            verify_s: t.elapsed().as_secs_f64(),
            quick: p.quick,
        })
    }
}

/// A journal directory under `out/`, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("state-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A running server with its registered workers.
struct Daemon {
    server: Option<Server>,
    addr: String,
    workers: Vec<JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// Server started on an ephemeral loopback port and `workers` worker
    /// threads started against it.
    fn start(state_dir: &Path, workers: usize) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let server = Server::start(listener, ServerConfig::new(state_dir))
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().to_string();
        let mut daemon = Daemon {
            server: Some(server),
            addr: addr.clone(),
            workers: Vec::new(),
        };
        for i in 0..workers {
            let addr = addr.clone();
            let handle = thread::Builder::new()
                .name(format!("bench-worker-{i}"))
                .spawn(move || worker::run_worker(&addr))
                .map_err(|e| format!("spawn worker: {e}"))?;
            daemon.workers.push(handle);
        }
        // No wait for the threads to come up: connections queue in the
        // listener's backlog until the accept thread runs. Waiting (a
        // `status` round trip, or polling until the workers have
        // registered) measures cross-thread wake-up latency, which on a
        // shared host moved the median by 25 % between quiet and busy
        // spells; the few hundred microseconds land in the body instead.
        Ok(daemon)
    }

    /// Stops the server and waits for every worker thread; a worker
    /// that ended with an error is reported.
    fn stop(&mut self) -> Result<(), String> {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let mut result = Ok(());
        for handle in self.workers.drain(..) {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => result = Err(format!("worker ended with: {e}")),
                Err(_) => result = Err("worker thread panicked".to_string()),
            }
        }
        result
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// What one repeat consumes. Field order matters: the daemon stops
/// before its journal directory is removed.
pub struct Ready {
    daemon: Daemon,
    dir: ScratchDir,
    /// One-shot `avg_latency` of the baseline point, when the set-up
    /// computed it.
    baseline_latency: Option<f64>,
}

fn ready(workers: usize) -> Result<Ready, String> {
    let dir = ScratchDir::new().map_err(|e| format!("state dir: {e}"))?;
    let daemon = Daemon::start(&dir.0, workers)?;
    Ok(Ready {
        daemon,
        dir,
        baseline_latency: None,
    })
}

/// What the operator has in hand when the timer stops.
pub struct Delivered {
    report: Vec<u8>,
    /// One `watch` progress line per grid point, in arrival order.
    lines: Vec<Json>,
    /// Gap before each progress line, in ms.
    gaps_ms: Vec<f64>,
    submit_ms: f64,
    fetch_ms: f64,
    resumed: u64,
}

/// The operator's path: submit, watch to completion, fetch the report.
fn operate(addr: &str, spec_json: &Json, t: &Tracer) -> Result<Delivered, String> {
    let t0 = Instant::now();
    let reply = t.span("service.submit", || client::submit(addr, spec_json))?;
    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let id = reply
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("submit reply carries no id")?;
    let resumed = reply.get("resumed").and_then(Json::as_u64).unwrap_or(0);

    let mut lines = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut last = Instant::now();
    let done = t.span("service.watch", || {
        client::watch(addr, id, &mut |line| {
            let now = Instant::now();
            gaps_ms.push((now - last).as_secs_f64() * 1e3);
            last = now;
            lines.push(line.clone());
        })
    })?;
    if done.get("state").and_then(Json::as_str) != Some("done") {
        return Err(format!("campaign ended as {}", done.render_compact()));
    }

    let t1 = Instant::now();
    let (_, report) = t.span("service.fetch_report", || client::fetch_report(addr, id))?;
    t.count("service.points", lines.len() as u64);
    Ok(Delivered {
        report,
        lines,
        gaps_ms,
        submit_ms,
        fetch_ms: t1.elapsed().as_secs_f64() * 1e3,
        resumed,
    })
}

impl Service {
    /// The baseline grid point computed one-shot, warm-up included: the
    /// per-repeat reference for `sim_latency_cycles`.
    fn oneshot_baseline_latency(&self) -> Result<f64, String> {
        let noc_spec = campaign_spec();
        let warm = match self.spec.warm_start {
            0 => None,
            cycles => {
                Some(warm_checkpoint(&noc_spec, &self.cfg, cycles).map_err(|e| e.to_string())?)
            }
        };
        run_grid_point(&noc_spec, &self.spec.faults, &self.cfg, 0, warm.as_ref())
            .map(|point| point.summary.avg_latency)
            .map_err(|e| e.to_string())
    }

    /// Checks a delivered campaign against the reference and the grid.
    fn check(
        &self,
        delivered: Result<Delivered, String>,
        journal_bytes: u64,
        baseline_latency: Option<f64>,
    ) -> Outcome {
        let mut o = Outcome {
            work: self.grid as f64,
            ..Outcome::default()
        };
        let d = match delivered {
            Ok(d) => d,
            Err(e) => {
                // Every point and the report are missing.
                o.attempted = self.grid + 1;
                o.failed = self.grid + 1;
                o.problems.push(e);
                return o;
            }
        };
        let sum = |key: &str| -> u64 {
            d.lines
                .iter()
                .filter_map(|l| l.get(key).and_then(Json::as_u64))
                .sum()
        };
        for i in 0..self.grid {
            let line = d.lines.get(i as usize);
            let status = line.and_then(|l| l.get("status")).and_then(Json::as_str);
            o.check(status == Some("pass"), || {
                format!("grid point {i}: {}", status.unwrap_or("missing"))
            });
        }
        o.check(d.report == self.reference, || {
            "service report differs from the one-shot report".to_string()
        });
        o.sim_latency_cycles = std::str::from_utf8(&d.report)
            .ok()
            .and_then(|text| Json::parse(text).ok())
            .and_then(|doc| doc.get("baseline")?.get("avg_latency")?.as_f64())
            .unwrap_or(f64::NAN);
        if let Some(oneshot) = baseline_latency {
            // The report prints the latency with three decimals.
            let reported = o.sim_latency_cycles;
            o.check((reported - oneshot).abs() < 1e-3, || {
                format!("baseline latency {reported} in the report, {oneshot} one-shot")
            });
        }

        let fp = &mut o.fingerprint;
        fp.insert("points".into(), d.lines.len().to_string());
        fp.insert("cycles".into(), sum("cycles").to_string());
        fp.insert("packets_delivered".into(), sum("delivered").to_string());
        fp.insert("retransmissions".into(), sum("retransmissions").to_string());
        fp.insert("report_fnv".into(), fnv_hex(&d.report));

        o.samples.insert("point_gap_ms", d.gaps_ms);
        o.samples.insert("submit_ms", vec![d.submit_ms]);
        o.samples.insert("fetch_report_ms", vec![d.fetch_ms]);
        o.samples
            .insert("journal_bytes", vec![journal_bytes as f64]);
        o.samples.insert("sim_cycles", vec![sum("cycles") as f64]);
        o
    }

    /// One whole campaign on a fresh daemon with `workers` workers;
    /// returns its wall time and checked outcome.
    fn one_campaign(&self, workers: usize) -> Result<(f64, Outcome), String> {
        let r = ready(workers)?;
        let t = Instant::now();
        let delivered = operate(&r.daemon.addr, &self.spec_json, &Tracer::disabled());
        let wall = t.elapsed().as_secs_f64();
        Ok((wall, self.check(delivered, r.dir.bytes(), None)))
    }

    /// Finishes a campaign, then resubmits it to a fresh server on the
    /// same journal directory: the journal read path.
    fn resume(&self) -> Result<f64, String> {
        let dir = ScratchDir::new().map_err(|e| format!("state dir: {e}"))?;
        let mut first = Daemon::start(&dir.0, 1)?;
        operate(&first.addr, &self.spec_json, &Tracer::disabled())?;
        first.stop()?;
        let second = Daemon::start(&dir.0, 0)?;
        let t = Instant::now();
        let d = operate(&second.addr, &self.spec_json, &Tracer::disabled())?;
        let wall = t.elapsed().as_secs_f64();
        if d.resumed != self.grid || d.report != self.reference {
            return Err(format!(
                "resume recomputed: {} of {} points journaled, report {}",
                d.resumed,
                self.grid,
                if d.report == self.reference {
                    "equal"
                } else {
                    "differs"
                }
            ));
        }
        Ok(wall)
    }
}

impl Workload for Service {
    type Ready = Result<Ready, String>;
    type Raw = Result<Delivered, String>;

    fn spare_setups(&self) -> usize {
        10
    }

    /// A fresh daemon on a fresh journal directory, then the repeat's
    /// own reference: the baseline point computed one-shot. The daemon
    /// start alone is thread spawns and socket wake-ups, well under a
    /// millisecond and on a shared host unsteady by tens of percent; the
    /// reference point is tens of milliseconds of plain computation, so
    /// the sum is steady, and the worker has long registered when the
    /// body starts.
    fn setup(&self, t: &Tracer) -> Self::Ready {
        let mut r = t.span("service.start", || ready(1))?;
        let latency = t.span("traffic.campaign.baseline_point", || {
            self.oneshot_baseline_latency()
        })?;
        r.baseline_latency = Some(latency);
        Ok(r)
    }

    fn body(&self, ready: &mut Self::Ready, t: &Tracer) -> Self::Raw {
        match ready {
            Ok(r) => operate(&r.daemon.addr, &self.spec_json, t),
            Err(e) => Err(e.clone()),
        }
    }

    fn finish(&self, ready: Self::Ready, raw: Self::Raw) -> Outcome {
        let journal_bytes = ready.as_ref().map_or(0, |r| r.dir.bytes());
        let baseline = ready.as_ref().ok().and_then(|r| r.baseline_latency);
        let mut o = self.check(raw, journal_bytes, baseline);
        if let Ok(mut r) = ready {
            if let Err(e) = r.daemon.stop() {
                o.check(false, || e);
            }
        }
        o
    }

    fn verify_s(&self) -> f64 {
        self.verify_s
    }

    fn layers(&self, t: &Tracer, run: &Measured, out: &mut Layers) {
        let grid = self.grid as f64;
        let wall = median(&run.wall_s);
        let noc_spec = campaign_spec();

        // --- service, as the operator saw it.
        let gaps = run.pooled("point_gap_ms");
        out.set("service.points_per_s", grid / wall);
        out.set("service.point_ms_p50", median(&gaps));
        out.set("service.point_ms_p90", percentile(&gaps, 90.0));
        out.set("service.submit_ms", median(&run.pooled("submit_ms")));
        out.set(
            "service.fetch_report_ms",
            median(&run.pooled("fetch_report_ms")),
        );
        out.set(
            "service.journal_bytes",
            median(&run.pooled("journal_bytes")),
        );
        let sim_cycles = median(&run.pooled("sim_cycles"));
        out.set("core.sim_cycles_per_s", sim_cycles / wall);

        // --- traffic.campaign: the same grid with no service around it.
        let mut points: Vec<CompletedPoint> = Vec::new();
        let mut point_ms = Vec::new();
        t.span("traffic.campaign.simulate", || {
            for index in 0..self.grid {
                let t0 = Instant::now();
                let point = run_grid_point(
                    &noc_spec,
                    &self.spec.faults,
                    &self.cfg,
                    index,
                    self.warm.as_ref(),
                );
                point_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                points.extend(point);
            }
        });
        let simulate_s = t.total_s("traffic.campaign.simulate");
        out.set("traffic.campaign.simulate_s", simulate_s);
        out.set("traffic.campaign.point_ms_p50", median(&point_ms));
        out.set("traffic.campaign.point_ms_p90", percentile(&point_ms, 90.0));
        out.set("service.overhead_s", wall - simulate_s);
        out.set(
            "service.overhead_per_point_ms",
            (wall - simulate_s) / grid * 1e3,
        );

        let codec_us: Vec<f64> = points
            .iter()
            .map(|point| {
                let t0 = Instant::now();
                let back = CompletedPoint::from_bytes(&point.to_bytes());
                let us = t0.elapsed().as_secs_f64() * 1e6;
                assert_eq!(back.as_ref(), Ok(point), "point codec round trip");
                us
            })
            .collect();
        out.set("traffic.campaign.point_codec_us", median(&codec_us));
        if points.len() as u64 == self.grid {
            let text = t.span("traffic.campaign.assemble_report", || {
                assemble_report(&noc_spec, &self.spec.faults, &self.cfg, points).to_json()
            });
            assert_eq!(text.as_bytes(), self.reference, "assembled report");
            out.set(
                "traffic.campaign.assemble_report_s",
                t.total_s("traffic.campaign.assemble_report"),
            );
        }

        // --- sim: report JSON, XPSN container, worker pool, observers.
        let text = String::from_utf8_lossy(&self.reference).into_owned();
        let mb = text.len() as f64 / 1e6;
        let doc = t
            .span("sim.json.parse", || Json::parse(&text))
            .unwrap_or(Json::Null);
        let rendered = t.span("sim.json.render", || doc.render());
        assert_eq!(rendered, text, "report JSON round trip");
        out.set("sim.json.parse_mb_s", mb / t.total_s("sim.json.parse"));
        out.set("sim.json.render_mb_s", mb / t.total_s("sim.json.render"));

        if let Some(warm) = &self.warm {
            t.span("traffic.campaign.warm_checkpoint", || {
                warm_checkpoint(&noc_spec, &self.cfg, self.spec.warm_start)
            })
            .ok();
            out.set(
                "traffic.campaign.warm_checkpoint_s",
                t.total_s("traffic.campaign.warm_checkpoint"),
            );
            let (mut enc, mut dec) = (Vec::new(), Vec::new());
            let mut blob = Vec::new();
            for _ in 0..20 {
                let t0 = Instant::now();
                blob = warm.to_bytes();
                enc.push(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                let back = WarmStart::from_bytes(&blob);
                dec.push(t0.elapsed().as_secs_f64());
                assert_eq!(back.as_ref(), Ok(warm), "warm blob round trip");
            }
            let mb = blob.len() as f64 / 1e6;
            out.set("sim.snapshot.encode_mb_s", mb / median(&enc));
            out.set("sim.snapshot.decode_mb_s", mb / median(&dec));
            self.checkpoint_layers(out);
        }

        let indices: Vec<u64> = (0..self.grid).collect();
        let (_, pool) = t.span("sim.parallel.map_2w", || {
            parallel_map_ordered_stats(&indices, 2, |_, &index| {
                run_grid_point(
                    &noc_spec,
                    &self.spec.faults,
                    &self.cfg,
                    index,
                    self.warm.as_ref(),
                )
                .is_ok()
            })
        });
        out.set("sim.parallel.busy_frac_2w", pool.busy_fraction());
        out.set("sim.parallel.imbalance_2w", pool.imbalance());

        let probe_cycles = if self.quick { 2_000 } else { 20_000 };
        let w4x4 = cycle_engine::Workload::UniformRandom;
        if let Ok(o) = cycle_engine::measure_telemetry_overhead(w4x4, probe_cycles, 3) {
            out.set("sim.telemetry.overhead_frac", o.overhead);
        }
        if let Ok(o) = cycle_engine::measure_attribution_overhead(w4x4, probe_cycles, 3) {
            out.set("sim.attribution.overhead_frac", o.overhead);
        }
        self.observer_layers(out);

        // --- service: wire, spec codec, scaling, resume.
        proto_layers(&self.spec_json, self.warm.as_ref(), out);
        let codec_us: Vec<f64> = (0..200)
            .map(|_| {
                let t0 = Instant::now();
                let back = CampaignSpec::from_json(&self.spec.to_json());
                let us = t0.elapsed().as_secs_f64() * 1e6;
                assert_eq!(back.as_ref(), Ok(&self.spec), "spec codec round trip");
                us
            })
            .collect();
        out.set("service.spec.codec_us", median(&codec_us));

        match t.span("service.campaign_2w", || self.one_campaign(2)) {
            Ok((wall_2w, o)) if o.failed == 0 => {
                out.set("service.wall_s_2w", wall_2w);
                out.set("service.speedup_2w", wall / wall_2w);
            }
            Ok((_, o)) => eprintln!("2-worker campaign failed: {}", o.problems.join("; ")),
            Err(e) => eprintln!("2-worker campaign failed: {e}"),
        }
        match t.span("service.resume", || self.resume()) {
            Ok(s) => out.set("service.resume_s", s),
            Err(e) => eprintln!("resume probe failed: {e}"),
        }
    }
}

impl Service {
    /// The reference 2x2 network: bare, or with the campaign's observer
    /// set armed through the public calls.
    fn reference_noc(&self, instrumented: bool) -> Option<Noc> {
        let mut noc = Noc::with_seed(&campaign_spec(), self.spec.seed).ok()?;
        if instrumented {
            noc.enable_monitor(MonitorConfig {
                liveness_bound: self.cfg.liveness_bound,
                max_violations: 64,
            });
            noc.enable_telemetry(TelemetryConfig {
                flight_recorder_depth: self.cfg.flight_recorder_depth,
                ..TelemetryConfig::default()
            });
            noc.enable_attribution();
        }
        Some(noc)
    }

    /// A campaign-shaped run on [`reference_noc`](Self::reference_noc);
    /// returns its wall time and the network as the run left it.
    fn reference_run(&self, instrumented: bool) -> Option<(f64, Noc)> {
        let mut noc = self.reference_noc(instrumented)?;
        let inj_cfg = InjectorConfig::new(self.cfg.injection_rate, Pattern::Uniform);
        let mut inj = Injector::new(&campaign_spec(), inj_cfg, self.spec.seed ^ 0x5EED).ok()?;
        let cycles = self.spec.cycles.max(self.spec.warm_start);
        let t0 = Instant::now();
        for cycle in 0..cycles {
            inj.step(&mut noc);
            if cycle % 512 == 511 {
                inj.drain_responses(&mut noc);
            }
        }
        noc.run_until_idle(self.cfg.drain_cycles);
        Some((t0.elapsed().as_secs_f64(), noc))
    }

    /// Dispatch mix and cost of the monitored path campaigns take.
    fn observer_layers(&self, out: &mut Layers) {
        let (Some((bare_s, _)), Some((inst_s, noc))) =
            (self.reference_run(false), self.reference_run(true))
        else {
            return;
        };
        let h = noc.kernel_health();
        out.set("core.event_steps", h.event_steps() as f64);
        out.set("core.fallback_steps", h.fallback_steps() as f64);
        out.set("core.time_jumps", h.time_jumps() as f64);
        out.set(
            "core.fallback_frac",
            h.fallback_steps() as f64 / h.steps().max(1) as f64,
        );
        out.set("core.observers.monitored_slowdown", inst_s / bare_s);
    }

    /// Checkpoint and restore of the warmed, instrumented 2x2 network.
    fn checkpoint_layers(&self, out: &mut Layers) {
        if let (Some((_, noc)), Some(mut fresh)) =
            (self.reference_run(true), self.reference_noc(true))
        {
            super::checkpoint_layers(&noc, &mut fresh, 20, out);
        }
    }
}

/// Frame round trips over a loopback `TcpStream` pair opened exactly as
/// `client` and `worker` open theirs (plain `connect`/`accept`, no
/// socket options): a JSON echo and a blob echo.
fn proto_layers(message: &Json, warm: Option<&WarmStart>, out: &mut Layers) {
    let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
        return;
    };
    let Ok(addr) = listener.local_addr() else {
        return;
    };
    let echo = thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        while let Ok(frame) = proto::read_frame(&mut stream) {
            let sent = match frame {
                proto::Frame::Json(j) => proto::write_json(&mut stream, &j),
                proto::Frame::Blob(b) => proto::write_blob(&mut stream, &b),
            };
            if sent.is_err() {
                return;
            }
        }
    });
    if let Ok(mut stream) = TcpStream::connect(addr) {
        // A `work`-sized message: the spec wire form plus routing fields.
        let msg = proto::msg("work")
            .field("campaign", Json::UInt(1))
            .field("point", Json::UInt(1))
            .field("spec", message.clone())
            .build();
        let mut rtt_ms = Vec::new();
        for _ in 0..25 {
            let t0 = Instant::now();
            if proto::write_json(&mut stream, &msg).is_err()
                || proto::read_json(&mut stream).is_err()
            {
                break;
            }
            rtt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        out.set("service.proto.json_rtt_ms", median(&rtt_ms));

        if let Some(warm) = warm {
            let blob = warm.to_bytes();
            let mut mb_s = Vec::new();
            for _ in 0..10 {
                let t0 = Instant::now();
                if proto::write_blob(&mut stream, &blob).is_err() {
                    break;
                }
                match proto::read_blob(&mut stream) {
                    Ok(back) if back == blob => {}
                    _ => break,
                }
                // Out and back: twice the bytes crossed the wire.
                mb_s.push(2.0 * blob.len() as f64 / 1e6 / t0.elapsed().as_secs_f64());
            }
            out.set("service.proto.blob_mb_s", median(&mb_s));
        }
    }
    // Closing our end ends the echo loop.
    let _ = echo.join();
}
