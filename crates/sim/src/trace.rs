//! Minimal value-change-dump (VCD) tracing.
//!
//! The original xpipes flow relied on SystemC waveform dumps for debugging
//! generated NoCs; [`VcdWriter`] provides the same capability for the Rust
//! behavioural models. Output is standard VCD, loadable in GTKWave.
//!
//! The writer streams: once recording begins, every change line goes
//! straight to the sink (an in-memory buffer by default, or any
//! [`io::Write`] via [`VcdWriter::stream`]), so long runs never hold the
//! whole document body in memory twice.

use std::io;
use std::io::Write as _;

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

/// Where rendered VCD bytes go.
enum VcdSink {
    /// Accumulates in memory; [`VcdWriter::finish`] returns the text.
    Buffer(Vec<u8>),
    /// Streams incrementally to an external writer.
    Stream(Box<dyn io::Write + Send>),
}

/// An incremental VCD writer.
///
/// Declare signals up front, then record value changes per cycle; the
/// writer deduplicates unchanged values. The header is emitted at the
/// first change, so all declarations must precede recording. Call
/// [`finish`](VcdWriter::finish) on a buffered writer to obtain the VCD
/// text; a streaming writer ([`stream`](VcdWriter::stream)) has already
/// delivered every byte to its sink.
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
    sink: VcdSink,
    header_written: bool,
    current_time: Option<u64>,
    /// First I/O error from a streaming sink; output stops after it.
    error: Option<io::Error>,
}

impl VcdWriter {
    /// Creates a buffered writer for a single module scope named
    /// `module`.
    pub fn new(module: impl Into<String>) -> Self {
        Self::with_sink(module.into(), VcdSink::Buffer(Vec::new()))
    }

    /// Creates a writer that streams every byte to `writer` as it is
    /// produced, instead of accumulating the document in memory.
    pub fn stream(module: impl Into<String>, writer: Box<dyn io::Write + Send>) -> Self {
        Self::with_sink(module.into(), VcdSink::Stream(writer))
    }

    fn with_sink(module: String, sink: VcdSink) -> Self {
        VcdWriter {
            module,
            signals: Vec::new(),
            names: Vec::new(),
            sink,
            header_written: false,
            current_time: None,
            error: None,
        }
    }

    /// True when the writer streams to an external sink (no in-memory
    /// document exists).
    pub fn is_streaming(&self) -> bool {
        matches!(self.sink, VcdSink::Stream(_))
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
    /// Times must be non-decreasing across calls. A streaming sink's
    /// first I/O error is latched (returned by [`flush`](Self::flush)) and
    /// further output is dropped.
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
            let header = self.header();
            self.emit(header.as_bytes());
        }
        let mut line = String::new();
        if self.current_time != Some(t) {
            self.current_time = Some(t);
            line.push_str(&format!("#{t}\n"));
        }
        let sig = &self.signals[signal.0];
        if sig.width == 1 {
            line.push_str(&format!("{}{}\n", value & 1, sig.code));
        } else {
            line.push_str(&format!(
                "b{:0width$b} {}\n",
                value,
                sig.code,
                width = sig.width as usize
            ));
        }
        self.emit(line.as_bytes());
    }

    /// The `$enddefinitions`-terminated document header.
    fn header(&self) -> String {
        use std::fmt::Write as _;
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

    fn emit(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            VcdSink::Buffer(buf) => buf.extend_from_slice(bytes),
            VcdSink::Stream(w) => {
                if self.error.is_none() {
                    if let Err(e) = w.write_all(bytes) {
                        self.error = Some(e);
                    }
                }
            }
        }
    }

    /// Renders the complete VCD document of a buffered writer.
    ///
    /// # Panics
    ///
    /// Panics on a streaming writer: its bytes have already gone to the
    /// sink and no in-memory copy exists.
    pub fn finish(&self) -> String {
        match &self.sink {
            VcdSink::Buffer(buf) => {
                if self.header_written {
                    String::from_utf8(buf.clone()).expect("VCD output is ASCII")
                } else {
                    // No change was ever recorded: header only.
                    self.header()
                }
            }
            VcdSink::Stream(_) => {
                panic!("finish() is unavailable on a streaming VcdWriter; the document went to its sink")
            }
        }
    }

    /// Flushes a streaming sink (no-op for buffers).
    ///
    /// # Errors
    ///
    /// Returns a latched write error from an earlier
    /// [`change`](Self::change), or the flush error itself.
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        match &mut self.sink {
            VcdSink::Buffer(_) => Ok(()),
            VcdSink::Stream(w) => w.flush(),
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
            .field("streaming", &self.is_streaming())
            .field("header_written", &self.header_written)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

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

    /// An `io::Write` handing bytes to a shared buffer, so the test can
    /// inspect what a streaming writer produced.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The same change sequence applied to both modes.
    fn drive(vcd: &mut VcdWriter) {
        let a = vcd.declare("a", 1);
        let b = vcd.declare("b", 4);
        for t in 0..50u64 {
            vcd.change(Cycle::new(t), a, t & 1);
            vcd.change(Cycle::new(t), b, t % 11);
        }
    }

    #[test]
    fn streaming_matches_buffered_byte_for_byte() {
        let mut buffered = VcdWriter::new("m");
        drive(&mut buffered);

        let shared = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut streaming = VcdWriter::stream("m", Box::new(shared.clone()));
        assert!(streaming.is_streaming());
        assert!(!buffered.is_streaming());
        drive(&mut streaming);
        streaming.flush().expect("no sink error");

        let streamed = shared.0.lock().unwrap().clone();
        assert_eq!(streamed, buffered.finish().into_bytes());
    }

    #[test]
    #[should_panic(expected = "streaming VcdWriter")]
    fn finish_on_streaming_writer_panics() {
        let shared = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut vcd = VcdWriter::stream("m", Box::new(shared));
        let a = vcd.declare("a", 1);
        vcd.change(Cycle::ZERO, a, 1);
        let _ = vcd.finish();
    }

    #[test]
    fn stream_errors_are_latched_not_fatal() {
        struct FailingSink;
        impl io::Write for FailingSink {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut vcd = VcdWriter::stream("m", Box::new(FailingSink));
        let a = vcd.declare("a", 1);
        vcd.change(Cycle::ZERO, a, 1);
        vcd.change(Cycle::new(1), a, 0); // suppressed, sink already failed
        let err = vcd.flush().expect_err("error latched");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(vcd.flush().is_ok(), "the latched error is reported once");
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
