//! The `Recorder` trait and its three implementations.
//!
//! Algorithms are instrumented against `&mut dyn Recorder`. The contract
//! that keeps the disabled path free:
//!
//! - recorder calls happen at *coarse* boundaries only (per phase, per
//!   Merge iteration, per run) — never inside the dominance-test loop;
//! - fine-grained distributions accumulate in plain
//!   [`Histogram`](crate::histogram::Histogram)s inside the caller's
//!   metrics struct (one array-index bump per sample);
//! - anything that costs an allocation to build (e.g. cloning a bucket
//!   vector for [`Event::MergeIteration`]) must be guarded by
//!   [`Recorder::enabled`].

use std::io::{BufWriter, Write};
use std::time::Instant;

use crate::event::Event;
use crate::json::ObjectWriter;

/// Sink for spans and events. See the module docs for the cost contract.
pub trait Recorder {
    /// True when events will actually be kept. Callers use this to skip
    /// building event payloads.
    fn enabled(&self) -> bool;

    /// Open a named span. Spans nest: every `span_start` must be closed
    /// by a matching [`Recorder::span_end`] in LIFO order.
    fn span_start(&mut self, name: &'static str);

    /// Close the innermost open span; `name` must match its opener.
    fn span_end(&mut self, name: &'static str);

    /// Record one typed event.
    fn event(&mut self, event: Event);
}

/// The default recorder: discards everything, reports disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn span_start(&mut self, _name: &'static str) {}

    fn span_end(&mut self, _name: &'static str) {}

    fn event(&mut self, _event: Event) {}
}

/// One entry captured by a [`MemoryRecorder`].
// Records are created at phase boundaries, never in per-point loops, so
// the size skew from `Event`'s inline histograms costs nothing real.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A span opened. `depth` is the nesting level (0 = outermost).
    SpanStart {
        /// Span name.
        name: &'static str,
        /// Nesting depth at open time.
        depth: usize,
    },
    /// A span closed.
    SpanEnd {
        /// Span name.
        name: &'static str,
        /// Nesting depth the span had while open.
        depth: usize,
        /// Wall-clock duration in microseconds.
        dur_us: u64,
    },
    /// A typed event.
    Event(Event),
}

/// In-memory recorder for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    records: Vec<Record>,
    open: Vec<(&'static str, Instant)>,
}

impl MemoryRecorder {
    /// New, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything recorded so far, in order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The typed events only, skipping span records.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.records.iter().filter_map(|r| match r {
            Record::Event(e) => Some(e),
            _ => None,
        })
    }

    /// Names of spans that were opened but never closed (empty when the
    /// instrumented code balanced its spans).
    pub fn open_spans(&self) -> Vec<&'static str> {
        self.open.iter().map(|(n, _)| *n).collect()
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&mut self, name: &'static str) {
        self.records.push(Record::SpanStart {
            name,
            depth: self.open.len(),
        });
        self.open.push((name, Instant::now()));
    }

    fn span_end(&mut self, name: &'static str) {
        let (opened, started) = self
            .open
            .pop()
            .unwrap_or_else(|| panic!("span_end(\"{name}\") with no open span"));
        assert_eq!(
            opened, name,
            "span_end(\"{name}\") does not match innermost open span \"{opened}\""
        );
        self.records.push(Record::SpanEnd {
            name,
            depth: self.open.len(),
            dur_us: started.elapsed().as_micros() as u64,
        });
    }

    fn event(&mut self, event: Event) {
        self.records.push(Record::Event(event));
    }
}

/// Recorder writing one JSON object per line to any `io::Write` sink.
///
/// Record shapes:
///
/// ```json
/// {"type":"span_start","ts_us":12,"name":"merge","depth":1}
/// {"type":"span_end","ts_us":340,"name":"merge","depth":1,"dur_us":328}
/// {"type":"run_start","ts_us":2,...}          // Event::to_json
/// ```
///
/// Timestamps are microseconds since the recorder was created. I/O
/// errors are counted, not propagated — tracing must never fail the
/// computation it observes.
pub struct JsonlRecorder<W: Write> {
    out: Option<BufWriter<W>>, // Option so into_inner() can move past Drop
    epoch: Instant,
    open: Vec<(&'static str, Instant)>,
    io_errors: u64,
}

impl JsonlRecorder<std::fs::File> {
    /// Create (truncate) `path` and trace into it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> JsonlRecorder<W> {
    /// Trace into `sink`.
    pub fn new(sink: W) -> Self {
        JsonlRecorder {
            out: Some(BufWriter::new(sink)),
            epoch: Instant::now(),
            open: Vec::new(),
            io_errors: 0,
        }
    }

    fn ts_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn write_line(&mut self, line: &str) {
        let out = self.out.as_mut().expect("sink present until into_inner");
        if writeln!(out, "{line}").is_err() {
            self.io_errors += 1;
        }
    }

    /// Number of write failures swallowed so far.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Flush buffered records to the sink. Servers call this after each
    /// request-level event so a live trace file can be tailed; failures
    /// are counted like write failures, not propagated.
    pub fn flush(&mut self) {
        let out = self.out.as_mut().expect("sink present until into_inner");
        if out.flush().is_err() {
            self.io_errors += 1;
        }
    }

    /// Flush buffered records and return the underlying sink.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        let out = self.out.take().expect("sink present until into_inner");
        out.into_inner().map_err(|e| e.into_error())
    }
}

impl<W: Write> Recorder for JsonlRecorder<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn span_start(&mut self, name: &'static str) {
        let mut w = ObjectWriter::new();
        w.str_field("type", "span_start")
            .u64_field("ts_us", self.ts_us())
            .str_field("name", name)
            .u64_field("depth", self.open.len() as u64);
        let line = w.finish();
        self.write_line(&line);
        self.open.push((name, Instant::now()));
    }

    fn span_end(&mut self, name: &'static str) {
        let (opened, started) = self
            .open
            .pop()
            .unwrap_or_else(|| panic!("span_end(\"{name}\") with no open span"));
        assert_eq!(
            opened, name,
            "span_end(\"{name}\") does not match innermost open span \"{opened}\""
        );
        let mut w = ObjectWriter::new();
        w.str_field("type", "span_end")
            .u64_field("ts_us", self.ts_us())
            .str_field("name", name)
            .u64_field("depth", self.open.len() as u64)
            .u64_field("dur_us", started.elapsed().as_micros() as u64);
        let line = w.finish();
        self.write_line(&line);
    }

    fn event(&mut self, event: Event) {
        let line = event.to_json(self.ts_us());
        self.write_line(&line);
    }
}

impl<W: Write> Drop for JsonlRecorder<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn noop_is_disabled_and_silent() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.span_start("a");
        r.event(Event::RunStart {
            algorithm: "x".into(),
            points: 1,
            dims: 1,
        });
        r.span_end("a");
    }

    #[test]
    fn memory_recorder_tracks_nesting_depth_and_order() {
        let mut r = MemoryRecorder::new();
        r.span_start("run");
        r.span_start("sort");
        r.span_end("sort");
        r.span_start("scan");
        r.event(Event::RunStart {
            algorithm: "x".into(),
            points: 2,
            dims: 2,
        });
        r.span_end("scan");
        r.span_end("run");
        assert!(r.open_spans().is_empty());

        let depths: Vec<(&str, usize, bool)> = r
            .records()
            .iter()
            .filter_map(|rec| match rec {
                Record::SpanStart { name, depth } => Some((*name, *depth, true)),
                Record::SpanEnd { name, depth, .. } => Some((*name, *depth, false)),
                Record::Event(_) => None,
            })
            .collect();
        assert_eq!(
            depths,
            vec![
                ("run", 0, true),
                ("sort", 1, true),
                ("sort", 1, false),
                ("scan", 1, true),
                ("scan", 1, false),
                ("run", 0, false),
            ]
        );
        // The event landed between scan's open and close.
        let scan_open = r
            .records()
            .iter()
            .position(|rec| matches!(rec, Record::SpanStart { name: "scan", .. }))
            .unwrap();
        let scan_close = r
            .records()
            .iter()
            .position(|rec| matches!(rec, Record::SpanEnd { name: "scan", .. }))
            .unwrap();
        let ev = r
            .records()
            .iter()
            .position(|rec| matches!(rec, Record::Event(_)))
            .unwrap();
        assert!(scan_open < ev && ev < scan_close);
    }

    #[test]
    #[should_panic(expected = "does not match innermost")]
    fn mismatched_span_end_panics() {
        let mut r = MemoryRecorder::new();
        r.span_start("a");
        r.span_start("b");
        r.span_end("a");
    }

    #[test]
    fn jsonl_recorder_emits_parseable_lines() {
        let mut r = JsonlRecorder::new(Vec::new());
        assert!(r.enabled());
        r.span_start("run");
        r.event(Event::RunStart {
            algorithm: "BNL".into(),
            points: 10,
            dims: 3,
        });
        r.span_end("run");
        assert_eq!(r.io_errors(), 0);
        let bytes = r.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let first = Value::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("span_start"));
        assert_eq!(first.get("name").unwrap().as_str(), Some("run"));
        let last = Value::parse(lines[2]).unwrap();
        assert_eq!(last.get("type").unwrap().as_str(), Some("span_end"));
        assert!(last.get("dur_us").unwrap().as_u64().is_some());
        // Timestamps are monotone.
        let ts: Vec<u64> = lines
            .iter()
            .map(|l| {
                Value::parse(l)
                    .unwrap()
                    .get("ts_us")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }
}
