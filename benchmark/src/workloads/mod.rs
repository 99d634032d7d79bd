//! The five workloads and the driver that runs any of them, untraced
//! for the end-to-end numbers or traced for the per-layer ones.

use std::collections::BTreeMap;
use std::fs;
use std::io::BufWriter;

use std::time::Instant;

use xpipes::noc::Noc;

use crate::harness::{self, measure, Measured, Outcome, Params, MIN_REPEATS};
use crate::metrics::Layers;
use crate::stats::median;
use crate::trace::{Rollup, Tracer};

mod design;
mod kernel;
mod svc;
mod sweep;

/// Workload names, fixed by the issue that defined the benchmark.
pub const NAMES: [&str; 5] = [
    "svc_cold_long",
    "svc_warm_short",
    "kernel_mesh64",
    "sweep_mesh4",
    "design_flow",
];

/// One workload: what a repeat sets up, times, and checks.
pub trait Workload {
    /// What `setup` builds and one `body` consumes.
    type Ready;
    /// What the timed body hands to the untimed check.
    type Raw;

    /// Extra timed set-ups per run, for set-ups of microseconds.
    fn spare_setups(&self) -> usize {
        0
    }
    fn setup(&self, t: &Tracer) -> Self::Ready;
    fn body(&self, ready: &mut Self::Ready, t: &Tracer) -> Self::Raw;
    fn finish(&self, ready: Self::Ready, raw: Self::Raw) -> Outcome;
    /// Fills the per-layer metrics: roll-ups of the traced repeat's
    /// spans plus probes of layers the body does not call directly.
    /// `run` holds the traced run's repeats, the traced one last.
    fn layers(&self, t: &Tracer, run: &Measured, out: &mut Layers);
    /// Seconds spent computing reference outputs before measuring.
    fn verify_s(&self) -> f64 {
        0.0
    }
}

/// Times `reps` checkpoints of `noc`, each restored into `fresh` (a
/// network of the same shape), and sets the `core.checkpoint_*` and
/// `core.restore_s` layer metrics from the medians.
fn checkpoint_layers(noc: &Noc, fresh: &mut Noc, reps: usize, out: &mut Layers) {
    let (mut save, mut load) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        bytes = noc.checkpoint();
        save.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let restored = fresh.restore(&bytes);
        load.push(t0.elapsed().as_secs_f64());
        assert!(restored.is_ok(), "restore of an own checkpoint");
    }
    out.set("core.checkpoint_s", median(&save));
    out.set("core.restore_s", median(&load));
    out.set("core.checkpoint_bytes", bytes.len() as f64);
}

/// What one run of one workload produced.
pub struct RunOutput {
    /// The repeats end-to-end metrics are taken from (always untraced).
    pub measured: Measured,
    /// Per-layer metrics and the span roll-up they were taken from;
    /// only a traced run has them.
    pub layers: Option<(Layers, BTreeMap<String, Rollup>)>,
}

/// Runs workload `name`.
///
/// # Errors
///
/// One line when the name is unknown or the workload cannot start (a
/// reference computation failed, the out directory is unwritable).
pub fn run(name: &str, p: &Params, trace: bool) -> Result<RunOutput, String> {
    match name {
        "svc_cold_long" => drive(name, &svc::Service::new(svc::Shape::ColdLong, p)?, p, trace),
        "svc_warm_short" => drive(
            name,
            &svc::Service::new(svc::Shape::WarmShort, p)?,
            p,
            trace,
        ),
        "kernel_mesh64" => drive(name, &kernel::KernelMesh64::new(p), p, trace),
        "sweep_mesh4" => drive(name, &sweep::SweepMesh4::new(p), p, trace),
        "design_flow" => drive(name, &design::DesignFlow::new(p)?, p, trace),
        other => Err(format!(
            "unknown workload '{other}' (expected one of: {})",
            NAMES.join(", ")
        )),
    }
}

fn drive<W: Workload>(name: &str, w: &W, p: &Params, trace: bool) -> Result<RunOutput, String> {
    let off = Tracer::disabled();
    if !trace {
        let measured = measure(
            p.seconds,
            MIN_REPEATS,
            w.spare_setups(),
            || w.setup(&off),
            |r| w.body(r, &off),
            |r, raw| w.finish(r, raw),
        );
        return Ok(RunOutput {
            measured,
            layers: None,
        });
    }

    // Two untraced repeats (the first also warms caches), then one
    // traced; tracing overhead is the traced wall against the second.
    let measured = measure(
        0.0,
        2,
        0,
        || w.setup(&off),
        |r| w.body(r, &off),
        |r, raw| w.finish(r, raw),
    );
    let on = Tracer::enabled();
    let traced = measure(
        0.0,
        1,
        0,
        || w.setup(&on),
        |r| on.span("body", || w.body(r, &on)),
        |r, raw| w.finish(r, raw),
    );
    let mut layers = Layers::default();
    layers.set(
        "trace.overhead_frac",
        traced.wall_s[0] / measured.wall_s[1] - 1.0,
    );
    layers.set("harness.verify_s", w.verify_s());
    // A traced repeat that fails a check fails the run too.
    let mut measured = measured;
    measured.setup_s.extend(traced.setup_s);
    measured.wall_s.extend(traced.wall_s);
    measured.cpu_s.extend(traced.cpu_s);
    measured.outcomes.extend(traced.outcomes);
    layers.set("harness.cpu_s", median(&measured.cpu_s));
    w.layers(&on, &measured, &mut layers);

    let dir = harness::out_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{name}.ndjson"));
    let file =
        fs::File::create(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    on.write_ndjson(&mut BufWriter::new(file))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    Ok(RunOutput {
        measured,
        layers: Some((layers, on.rollup())),
    })
}
