//! Live run-progress streaming: an NDJSON heartbeat for long runs.
//!
//! Long benchmark and campaign runs were silent until the final report;
//! [`ProgressStream`] gives them an epoch-cadenced heartbeat — one JSON
//! object per line, appended as the run advances, so an operator can
//! tail a file and see cycle position, throughput, delivered packets,
//! kernel-mode mix, and an ETA while the run is still going. (A campaign
//! run through `xpipesd` streams the same per-point lines to
//! `xpipesadm watch`.)
//!
//! Progress output is strictly an *observer*: arming it never changes
//! the simulated schedule, RNG streams, or any byte-compared artifact.
//! Heartbeat lines themselves may carry wall-clock rates (they are not
//! byte-compared); the fault-campaign per-point journal restricts
//! itself to deterministic fields so its stream is byte-identical
//! across `--jobs` worker counts.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};

use xpipes_sim::Json;

/// Default heartbeat cadence for chunked workload runs, in cycles.
pub(crate) const DEFAULT_PROGRESS_INTERVAL: u64 = 5_000;

/// An NDJSON sink for progress heartbeats: one rendered [`Json`] object
/// per line, flushed per line so `tail -f` sees live output. `-` streams
/// to stderr (stdout stays reserved for the human-readable summary).
pub struct ProgressStream {
    out: BufWriter<Box<dyn Write>>,
    /// Heartbeat cadence in cycles for chunked runs.
    pub interval: u64,
}

impl ProgressStream {
    /// Opens (truncates) `path` as the NDJSON sink, or stderr for `-`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub(crate) fn create(path: &str) -> io::Result<Self> {
        let out: Box<dyn Write> = if path == "-" {
            Box::new(io::stderr())
        } else {
            Box::new(File::create(path)?)
        };
        Ok(ProgressStream {
            out: BufWriter::new(out),
            interval: DEFAULT_PROGRESS_INTERVAL,
        })
    }

    /// Opens `path` for appending (creating it if absent), or stderr for
    /// `-`. Used by sinks that accumulate history across processes — the
    /// run ledger, and progress journals of resumed campaigns — where
    /// truncation would destroy the very record being extended.
    ///
    /// # Errors
    ///
    /// Propagates file-open failures.
    pub(crate) fn append(path: &str) -> io::Result<Self> {
        let out: Box<dyn Write> = if path == "-" {
            Box::new(io::stderr())
        } else {
            Box::new(OpenOptions::new().append(true).create(true).open(path)?)
        };
        Ok(ProgressStream {
            out: BufWriter::new(out),
            interval: DEFAULT_PROGRESS_INTERVAL,
        })
    }

    /// Overrides the heartbeat cadence (cycles per heartbeat).
    #[must_use]
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval.max(1);
        self
    }

    /// Appends one NDJSON line. Best-effort: a broken sink must never
    /// fail the run it is observing, so write errors are swallowed.
    pub fn emit(&mut self, line: &Json) {
        let _ = writeln!(self.out, "{}", line.render_compact());
        let _ = self.out.flush();
    }
}

/// How [`open_sink`] opens a file sink: truncating for fresh progress
/// journals, appending for history-accumulating sinks (ledger, resumed
/// campaign journals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkMode {
    /// Start a fresh journal (`File::create` semantics).
    Truncate,
    /// Extend an existing journal, creating it if absent.
    Append,
}

/// Shared `--progress`/`--ledger` sink opening for the bench binaries:
/// `None` stays `None`, `-` streams to stderr, any other value names a
/// file opened per `mode`. On failure the returned message follows the
/// one-line error contract (the caller prefixes `error: ` and exits 2).
///
/// # Errors
///
/// Returns `cannot open <what> sink <path>: <cause>` when the file
/// cannot be opened.
pub fn open_sink(
    path: Option<&str>,
    what: &str,
    mode: SinkMode,
) -> Result<Option<ProgressStream>, String> {
    let Some(path) = path else { return Ok(None) };
    let opened = match mode {
        SinkMode::Truncate => ProgressStream::create(path),
        SinkMode::Append => ProgressStream::append(path),
    };
    match opened {
        Ok(stream) => Ok(Some(stream)),
        Err(e) => Err(format!("cannot open {what} sink {path}: {e}")),
    }
}

/// Fixed-precision rate fields for heartbeat lines: `cycles_per_sec`
/// and, when `remaining` cycles are known and progress is being made,
/// an `eta_s` estimate (otherwise `null`).
pub(crate) fn rate_fields(cycle: u64, elapsed_s: f64, remaining: Option<u64>) -> (Json, Json) {
    let cps = if elapsed_s > 0.0 {
        cycle as f64 / elapsed_s
    } else {
        0.0
    };
    let eta = match remaining {
        Some(rem) if cps > 0.0 => Json::Fixed(rem as f64 / cps, 1),
        _ => Json::Null,
    };
    (Json::Fixed(cps, 0), eta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_writes_one_object_per_line() {
        let dir = std::env::temp_dir().join("xpipes_progress_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("progress.ndjson");
        let path_str = path.to_str().unwrap();
        {
            let mut p = ProgressStream::create(path_str).unwrap().with_interval(100);
            assert_eq!(p.interval, 100);
            p.emit(&Json::object().field("cycle", Json::UInt(1)).build());
            p.emit(&Json::object().field("cycle", Json::UInt(2)).build());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            Json::parse(line).expect("each line is a standalone JSON object");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_mode_extends_instead_of_truncating() {
        let dir = std::env::temp_dir().join("xpipes_progress_append_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.ndjson");
        let path_str = path.to_str().unwrap();
        std::fs::remove_file(&path).ok();
        {
            let mut p = ProgressStream::append(path_str).unwrap();
            p.emit(&Json::object().field("run", Json::UInt(1)).build());
        }
        {
            let mut p = ProgressStream::append(path_str).unwrap();
            p.emit(&Json::object().field("run", Json::UInt(2)).build());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "second open must not truncate");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_sink_contract() {
        assert!(open_sink(None, "progress", SinkMode::Truncate)
            .unwrap()
            .is_none());
        let err = match open_sink(
            Some("/nonexistent-dir/x.ndjson"),
            "ledger",
            SinkMode::Append,
        ) {
            Err(e) => e,
            Ok(_) => panic!("opening a sink in a nonexistent directory must fail"),
        };
        assert!(
            err.starts_with("cannot open ledger sink /nonexistent-dir/x.ndjson: "),
            "one-line error contract: {err}"
        );
        let dir = std::env::temp_dir().join("xpipes_open_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink.ndjson");
        let opened = open_sink(path.to_str(), "progress", SinkMode::Truncate).unwrap();
        assert!(opened.is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rate_fields_handle_zero_elapsed_and_unknown_remaining() {
        let (cps, eta) = rate_fields(100, 0.0, Some(50));
        assert_eq!(cps, Json::Fixed(0.0, 0));
        assert_eq!(eta, Json::Null);
        let (cps, eta) = rate_fields(100, 2.0, Some(50));
        assert_eq!(cps, Json::Fixed(50.0, 0));
        assert_eq!(eta, Json::Fixed(1.0, 1));
        let (_, eta) = rate_fields(100, 2.0, None);
        assert_eq!(eta, Json::Null);
    }
}
