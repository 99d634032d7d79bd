//! In-memory span recorder for the `--trace` run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (around calls into `xpipes_*` public functions), never inside the
//! product. A disabled tracer runs the closure and records nothing, so
//! the end-to-end run and the traced run execute the same workload code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use xpipes_sim::Json;

/// One closed span. `parent` is the span that was open when this one
/// started; roots have none. All spans of a run share the trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rollup {
    pub calls: u64,
    pub total_s: f64,
    /// Duration minus the time covered by direct child spans.
    pub self_s: f64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
    counts: Vec<(Option<u64>, String, u64)>,
}

/// Single-threaded recorder: every traced call is made from the
/// benchmark's main thread (server and worker threads run product code
/// only).
pub struct Tracer {
    epoch: Instant,
    state: Option<RefCell<State>>,
}

impl Tracer {
    pub fn enabled() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Some(RefCell::default()),
        }
    }

    pub fn disabled() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let Some(state) = &self.state else {
            return f();
        };
        let (id, parent) = {
            let mut st = state.borrow_mut();
            st.next_id += 1;
            let id = st.next_id;
            let parent = st.open.last().copied();
            st.open.push(id);
            (id, parent)
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut st = state.borrow_mut();
        st.open.pop();
        st.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a count at the current boundary (attached to the open
    /// span, if any).
    pub fn count(&self, name: &str, value: u64) {
        if let Some(state) = &self.state {
            let mut st = state.borrow_mut();
            let span = st.open.last().copied();
            st.counts.push((span, name.to_string(), value));
        }
    }

    pub fn rollup(&self) -> BTreeMap<String, Rollup> {
        match &self.state {
            Some(state) => rollup(&state.borrow().spans),
            None => BTreeMap::new(),
        }
    }

    /// Total seconds spent in spans named `name` (0 when never entered).
    pub fn total_s(&self, name: &str) -> f64 {
        self.rollup().get(name).map_or(0.0, |r| r.total_s)
    }

    /// Writes spans (start order) then counts as NDJSON.
    pub fn write_ndjson(&self, w: &mut impl Write) -> io::Result<()> {
        let Some(state) = &self.state else {
            return Ok(());
        };
        let st = state.borrow();
        let mut spans: Vec<&Span> = st.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        for s in spans {
            let line = Json::object()
                .field("id", Json::UInt(s.id))
                .field("parent", s.parent.map_or(Json::Null, Json::UInt))
                .field("name", Json::str(&s.name))
                .field("start_ns", Json::UInt(s.start_ns))
                .field("end_ns", Json::UInt(s.end_ns))
                .build();
            writeln!(w, "{}", line.render_compact())?;
        }
        for (span, name, value) in &st.counts {
            let line = Json::object()
                .field("count", Json::str(name))
                .field("span", span.map_or(Json::Null, Json::UInt))
                .field("value", Json::UInt(*value))
                .build();
            writeln!(w, "{}", line.render_compact())?;
        }
        w.flush()
    }
}

/// Rolls spans up by name. Self time is a span's duration minus the
/// durations of its direct children; children run sequentially on one
/// thread, so they never overlap each other.
pub fn rollup(spans: &[Span]) -> BTreeMap<String, Rollup> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<String, Rollup> = BTreeMap::new();
    for s in spans {
        let r = out.entry(s.name.clone()).or_default();
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        r.calls += 1;
        r.total_s += s.duration_ns() as f64 * 1e-9;
        r.self_s += s.duration_ns().saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, None, "body", 0, 1_000),
            span(2, Some(1), "sim", 100, 400),
            span(3, Some(1), "sim", 500, 700),
            span(4, Some(3), "codec", 550, 600),
        ];
        let r = rollup(&spans);
        assert_eq!(r["body"].calls, 1);
        assert!((r["body"].total_s - 1_000e-9).abs() < 1e-15);
        assert!((r["body"].self_s - 500e-9).abs() < 1e-15);
        assert_eq!(r["sim"].calls, 2);
        assert!((r["sim"].total_s - 500e-9).abs() < 1e-15);
        // Only the grandchild's parent loses its 50 ns.
        assert!((r["sim"].self_s - 450e-9).abs() < 1e-15);
        assert!((r["codec"].self_s - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_counts() {
        let t = Tracer::enabled();
        let v = t.span("outer", || {
            t.count("items", 2);
            t.span("inner", || 7) + t.span("inner", || 1)
        });
        t.count("items", 3);
        assert_eq!(v, 8);
        let r = t.rollup();
        assert_eq!(r["outer"].calls, 1);
        assert_eq!(r["inner"].calls, 2);
        assert!(r["outer"].total_s >= r["inner"].total_s);

        let mut buf = Vec::new();
        t.write_ndjson(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 5);
        let first = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some("outer"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        // The count made inside `outer` hangs off it; the later one off
        // no span.
        let counts: Vec<Json> = text
            .lines()
            .skip(3)
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(counts[0].get("span"), first.get("id"));
        assert_eq!(counts[0].get("value").and_then(Json::as_u64), Some(2));
        assert_eq!(counts[1].get("span"), Some(&Json::Null));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Tracer::disabled();
        assert_eq!(t.span("x", || 3), 3);
        t.count("n", 1);
        assert!(t.rollup().is_empty());
        let mut buf = Vec::new();
        t.write_ndjson(&mut buf).unwrap();
        assert!(buf.is_empty());
    }
}
