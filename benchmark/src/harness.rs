//! The measurement loop and the result every workload reports.
//!
//! A workload is three closures: `setup` builds what one repeat
//! consumes, `body` is the timed part, `finish` checks the body's
//! output outside the timer. The loop repeats them for the measuring
//! window and keeps one sample per repeat; reported values are medians.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use crate::procfs;

/// Seed used when `--seed` is absent; the only seed with pinned
/// fingerprints under `expected/`.
pub const DEFAULT_SEED: u64 = 7;

/// Repeats every workload makes at least, however short the window.
pub const MIN_REPEATS: usize = 3;

/// What the command line fixes for one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Same code paths at about a tenth of the size; no fingerprints.
    pub quick: bool,
}

impl Params {
    /// An independent seed for one purpose (campaign, NoC, injector,
    /// sweep, annealing …): splitmix64 over the run seed and a stream
    /// tag, so workload inputs are a pure function of `--seed`.
    pub fn derive(&self, stream: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `full` in a normal run, a tenth of it (at least 1) with `--quick`.
    pub fn scaled(&self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// Simulated statistics of a run. They are a pure function of the seed,
/// never of the host, so two commits compare exactly.
pub type Fingerprint = BTreeMap<String, String>;

/// The checked result of one repeat.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Units of work done, in the workload's own unit (grid points,
    /// flit-hops, simulated cycles, candidates).
    pub work: f64,
    /// The workload's simulated-latency figure, in cycles.
    pub sim_latency_cycles: f64,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: Fingerprint,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Workload-specific timing samples for the per-layer table.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    /// Counts one check; a failed one is recorded with its reason.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(why());
        }
    }
}

/// Per-repeat samples of the end-to-end quantities.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub outcomes: Vec<Outcome>,
}

impl Measured {
    pub fn work_per_s(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .zip(&self.wall_s)
            .map(|(o, w)| o.work / w)
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.outcomes.iter().map(|o| o.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.outcomes.iter().map(|o| o.failed).sum()
    }

    /// Every repeat's samples named `key`, pooled.
    pub fn pooled(&self, key: &str) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.samples.get(key))
            .flatten()
            .copied()
            .collect()
    }

    /// True when every repeat produced the same simulated statistics.
    pub fn repeats_agree(&self) -> bool {
        self.outcomes
            .windows(2)
            .all(|w| w[0].fingerprint == w[1].fingerprint)
    }
}

/// Repeats `setup` → timed `body` → untimed `finish` until `seconds`
/// have been spent in bodies and at least `min_repeats` were made.
/// `spare_setups` extra set-ups are timed and dropped first, for
/// workloads whose set-up is too short to be steady from a few samples.
pub fn measure<R, B>(
    seconds: f64,
    min_repeats: usize,
    spare_setups: usize,
    mut setup: impl FnMut() -> R,
    mut body: impl FnMut(&mut R) -> B,
    mut finish: impl FnMut(R, B) -> Outcome,
) -> Measured {
    let mut m = Measured::default();
    for _ in 0..spare_setups {
        let t = Instant::now();
        let ready = setup();
        m.setup_s.push(t.elapsed().as_secs_f64());
        drop(black_box(ready));
    }
    let mut in_body = 0.0;
    while in_body < seconds || m.wall_s.len() < min_repeats {
        let t = Instant::now();
        let mut ready = setup();
        m.setup_s.push(t.elapsed().as_secs_f64());

        let cpu0 = procfs::cpu_seconds();
        let t = Instant::now();
        let out = body(&mut ready);
        let wall = t.elapsed().as_secs_f64();
        let cpu1 = procfs::cpu_seconds();

        in_body += wall;
        m.wall_s.push(wall);
        m.cpu_s.push(match (cpu0, cpu1) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        });
        m.outcomes.push(finish(ready, out));
    }
    m
}

/// Directory of this package in the checkout it was built from.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where the benchmark may write: span files and service journals.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// FNV-1a, the fingerprint hash for byte artifacts (reports, point
/// tables); same function the product uses for its `XPSN` integrity.
pub fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", xpipes_sim::snapshot::fnv64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_stream_and_by_seed() {
        let a = Params {
            seed: 7,
            seconds: 1.0,
            quick: false,
        };
        let b = Params { seed: 8, ..a };
        assert_ne!(a.derive(1), a.derive(2));
        assert_ne!(a.derive(1), b.derive(1));
        assert_eq!(a.derive(3), a.derive(3));
        assert_eq!(a.scaled(40_000), 40_000);
        assert_eq!(Params { quick: true, ..a }.scaled(40_000), 4_000);
        assert_eq!(Params { quick: true, ..a }.scaled(3), 1);
    }

    #[test]
    fn loop_honours_the_window_and_the_minimum() {
        let mut setups = 0;
        let m = measure(
            0.0,
            3,
            2,
            || {
                setups += 1;
                setups
            },
            |n| *n * 2,
            |n, doubled| {
                let mut o = Outcome {
                    work: 1.0,
                    ..Outcome::default()
                };
                o.check(doubled == n * 2, || "arithmetic".into());
                o
            },
        );
        assert_eq!(m.wall_s.len(), 3);
        assert_eq!(m.setup_s.len(), 5);
        assert_eq!((m.attempted(), m.failed()), (3, 0));
        assert!(m.repeats_agree());
        assert_eq!(m.work_per_s().len(), 3);
    }
}
