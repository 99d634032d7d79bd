//! Minimal value-change-dump (VCD) tracing.
//!
//! The original xpipes flow relied on SystemC waveform dumps for debugging
//! generated NoCs; [`VcdWriter`] provides the same capability for the Rust
//! behavioural models. Output is standard VCD, loadable in GTKWave.
//!
//! The writer appends every change line to one in-memory document as it
//! is recorded; [`VcdWriter::finish`] returns that document.

use std::fmt::Write as _;

use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::Cycle;

/// Handle to a signal declared in a [`VcdWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(usize);

#[derive(Debug, Clone)]
struct Signal {
    code: String,
    width: u32,
    last: Option<u64>,
}

/// An incremental VCD writer.
///
/// Declare signals up front, then record value changes per cycle; the
/// writer deduplicates unchanged values. The header is emitted at the
/// first change, so all declarations must precede recording. Call
/// [`finish`](VcdWriter::finish) to obtain the VCD text.
///
/// # Examples
///
/// ```
/// use xpipes_sim::trace::VcdWriter;
/// use xpipes_sim::Cycle;
///
/// let mut vcd = VcdWriter::new("noc");
/// let valid = vcd.declare("flit_valid", 1);
/// let data = vcd.declare("flit_data", 32);
/// vcd.change(Cycle::ZERO, valid, 1);
/// vcd.change(Cycle::ZERO, data, 0xDEAD);
/// vcd.change(Cycle::new(1), valid, 0);
/// let text = vcd.finish();
/// assert!(text.contains("$var wire 32"));
/// assert!(text.contains("#0"));
/// ```
pub struct VcdWriter {
    module: String,
    signals: Vec<Signal>,
    names: Vec<String>,
    /// The document so far; the first change starts it with the header.
    body: String,
    header_written: bool,
    current_time: Option<u64>,
}

impl VcdWriter {
    /// Creates a writer for a single module scope named `module`.
    pub fn new(module: impl Into<String>) -> Self {
        VcdWriter {
            module: module.into(),
            signals: Vec::new(),
            names: Vec::new(),
            body: String::new(),
            header_written: false,
            current_time: None,
        }
    }

    /// Declares a `width`-bit wire and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, or if recording has
    /// already begun (the header left with the first change).
    pub fn declare(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        assert!((1..=64).contains(&width), "signal width must be 1..=64");
        assert!(
            !self.header_written,
            "signals must be declared before the first change"
        );
        let idx = self.signals.len();
        self.signals.push(Signal {
            code: Self::code_for(idx),
            width,
            last: None,
        });
        self.names.push(name.into());
        SignalId(idx)
    }

    /// Records `value` on `signal` at time `now`; suppressed if unchanged.
    ///
    /// Times must be non-decreasing across calls.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an already-recorded time.
    pub fn change(&mut self, now: Cycle, signal: SignalId, value: u64) {
        let t = now.as_u64();
        if let Some(cur) = self.current_time {
            assert!(t >= cur, "VCD times must be monotone: got {t} after {cur}");
        }
        let sig = &mut self.signals[signal.0];
        if sig.last == Some(value) {
            return;
        }
        sig.last = Some(value);
        if !self.header_written {
            self.header_written = true;
            self.body = self.header();
        }
        if self.current_time != Some(t) {
            self.current_time = Some(t);
            let _ = writeln!(self.body, "#{t}");
        }
        let sig = &self.signals[signal.0];
        if sig.width == 1 {
            let _ = writeln!(self.body, "{}{}", value & 1, sig.code);
        } else {
            let _ = writeln!(
                self.body,
                "b{:0width$b} {}",
                value,
                sig.code,
                width = sig.width as usize
            );
        }
    }

    /// The `$enddefinitions`-terminated document header.
    fn header(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date xpipes-sim $end");
        let _ = writeln!(out, "$version xpipes-sim vcd 0.1 $end");
        let _ = writeln!(out, "$timescale 1 ns $end");
        let _ = writeln!(out, "$scope module {} $end", self.module);
        for (sig, name) in self.signals.iter().zip(&self.names) {
            let _ = writeln!(out, "$var wire {} {} {} $end", sig.width, sig.code, name);
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        out
    }

    /// Renders the complete VCD document (the header alone if no change
    /// was ever recorded).
    pub fn finish(&self) -> String {
        if self.header_written {
            self.body.clone()
        } else {
            self.header()
        }
    }

    /// Short identifier codes per VCD convention: `!`, `"`, ... then pairs.
    fn code_for(mut idx: usize) -> String {
        const FIRST: u8 = b'!';
        const COUNT: usize = 94; // printable ASCII minus space
        let mut code = String::new();
        loop {
            code.push((FIRST + (idx % COUNT) as u8) as char);
            idx /= COUNT;
            if idx == 0 {
                break;
            }
            idx -= 1;
        }
        code
    }
}

impl Snapshot for VcdWriter {
    /// Captures the incremental-emission state — per-signal last values,
    /// the current timestamp, and whether the header left — but **not**
    /// the already-emitted document: the caller keeps the pre-checkpoint
    /// text. Restoring into a freshly declared writer makes it continue
    /// the change stream byte-exactly, so `pre-checkpoint text +
    /// post-restore text` equals the uninterrupted document.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.len(self.signals.len());
        for sig in &self.signals {
            w.bool(sig.last.is_some());
            w.u64(sig.last.unwrap_or(0));
        }
        w.bool(self.current_time.is_some());
        w.u64(self.current_time.unwrap_or(0));
        w.bool(self.header_written);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.len()?;
        if n != self.signals.len() {
            return Err(SnapshotError::Malformed(format!(
                "trace has {} signals, snapshot {n}",
                self.signals.len()
            )));
        }
        for sig in &mut self.signals {
            let present = r.bool()?;
            let value = r.u64()?;
            sig.last = present.then_some(value);
        }
        let present = r.bool()?;
        let value = r.u64()?;
        self.current_time = present.then_some(value);
        self.header_written = r.bool()?;
        Ok(())
    }
}

impl std::fmt::Debug for VcdWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcdWriter")
            .field("module", &self.module)
            .field("signals", &self.signals.len())
            .field("header_written", &self.header_written)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_contains_declarations() {
        let mut vcd = VcdWriter::new("top");
        vcd.declare("a", 1);
        vcd.declare("bus", 8);
        let text = vcd.finish();
        assert!(text.contains("$scope module top $end"));
        assert!(text.contains("$var wire 1 ! a $end"));
        assert!(text.contains("$var wire 8 \" bus $end"));
        assert_eq!(vcd.signals.len(), 2);
    }

    #[test]
    fn scalar_and_vector_changes() {
        let mut vcd = VcdWriter::new("m");
        let a = vcd.declare("a", 1);
        let b = vcd.declare("b", 4);
        vcd.change(Cycle::ZERO, a, 1);
        vcd.change(Cycle::ZERO, b, 0b1010);
        let text = vcd.finish();
        assert!(text.contains("#0\n1!\nb1010 \""), "body was:\n{text}");
    }

    #[test]
    fn unchanged_values_suppressed() {
        let mut vcd = VcdWriter::new("m");
        let a = vcd.declare("a", 1);
        vcd.change(Cycle::ZERO, a, 1);
        vcd.change(Cycle::new(1), a, 1); // no-op
        vcd.change(Cycle::new(2), a, 0);
        let text = vcd.finish();
        assert!(
            !text.contains("#1\n"),
            "suppressed change emitted a timestamp"
        );
        assert!(text.contains("#2"));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn time_going_backwards_panics() {
        let mut vcd = VcdWriter::new("m");
        let a = vcd.declare("a", 1);
        vcd.change(Cycle::new(5), a, 1);
        vcd.change(Cycle::new(4), a, 0);
    }

    #[test]
    #[should_panic(expected = "declared before")]
    fn declare_after_recording_panics() {
        let mut vcd = VcdWriter::new("m");
        let a = vcd.declare("a", 1);
        vcd.change(Cycle::ZERO, a, 1);
        vcd.declare("late", 1);
    }

    #[test]
    fn codes_are_unique_for_many_signals() {
        let mut vcd = VcdWriter::new("m");
        let mut codes = std::collections::HashSet::new();
        for i in 0..300 {
            vcd.declare(format!("s{i}"), 1);
        }
        for sig in &vcd.signals {
            assert!(
                codes.insert(sig.code.clone()),
                "duplicate code {}",
                sig.code
            );
        }
    }

    /// A fixed change sequence over two signals.
    fn drive(vcd: &mut VcdWriter) {
        let a = vcd.declare("a", 1);
        let b = vcd.declare("b", 4);
        for t in 0..50u64 {
            vcd.change(Cycle::new(t), a, t & 1);
            vcd.change(Cycle::new(t), b, t % 11);
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        VcdWriter::new("m").declare("bad", 0);
    }

    #[test]
    fn snapshot_split_matches_uninterrupted_document() {
        let mut whole = VcdWriter::new("m");
        drive(&mut whole);

        // Same sequence split at t=20: snapshot the first writer's
        // emission state, import into a freshly declared one, continue.
        let mut first = VcdWriter::new("m");
        let a = first.declare("a", 1);
        let b = first.declare("b", 4);
        for t in 0..20u64 {
            first.change(Cycle::new(t), a, t & 1);
            first.change(Cycle::new(t), b, t % 11);
        }
        let mut w = SnapshotWriter::new();
        first.save_state(&mut w);
        let bytes = w.finish();

        let mut second = VcdWriter::new("m");
        let a2 = second.declare("a", 1);
        let b2 = second.declare("b", 4);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        second.load_state(&mut r).unwrap();
        r.finish().unwrap();
        for t in 20..50u64 {
            second.change(Cycle::new(t), a2, t & 1);
            second.change(Cycle::new(t), b2, t % 11);
        }
        let stitched = format!("{}{}", first.finish(), second.finish());
        assert_eq!(stitched, whole.finish());
    }

    #[test]
    fn snapshot_signal_count_mismatch_rejected() {
        let mut vcd = VcdWriter::new("m");
        vcd.declare("a", 1);
        let mut w = SnapshotWriter::new();
        vcd.save_state(&mut w);
        let bytes = w.finish();

        let mut other = VcdWriter::new("m");
        other.declare("a", 1);
        other.declare("b", 1);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            other.load_state(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
