//! Structured span tracing: RAII guards, JSONL records, pluggable sinks.
//!
//! A [`Recorder`] hands out [`Span`] guards; dropping a span emits exactly
//! one JSON line with a fixed schema —
//!
//! ```json
//! {"ts_ns":123,"span_id":2,"parent":1,"name":"lstar.fill","dur_ns":456,"fields":{"queries":32}}
//! ```
//!
//! — into an [`EventSink`].  `ts_ns` is monotonic time since the recorder
//! was created (no wall clock: the records are for *relating* work, not for
//! dating it), `parent` is `null` for root spans, and `fields` carries
//! whatever the instrumented site attached.  Instrumented code holds an
//! `Option<&Recorder>`; when it is `None` nothing allocates and nothing is
//! rendered — the disabled path is one predictable branch.

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A value attached to a span or event field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Escapes a string into a JSON string literal (appended to `out`).
fn escape_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => out.push_str(&v.to_string()),
        FieldValue::I64(v) => out.push_str(&v.to_string()),
        FieldValue::F64(v) => {
            if v.is_finite() {
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(v) => escape_json(out, v),
    }
}

/// Where rendered JSONL records go.  Implementations must be cheap and
/// non-blocking-ish: they are called from hot paths while a span drops.
pub trait EventSink: Send + Sync {
    /// Consumes one rendered JSON line (no trailing newline).
    fn emit(&self, line: &str);

    /// Flushes any buffering (called on orderly shutdown; default no-op).
    fn flush(&self) {}
}

/// A bounded in-memory sink: keeps the most recent `capacity` records and
/// counts what it had to drop.  This is the always-safe default — a trace
/// can never eat the heap, and the drop counter says when it clipped.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: Mutex<std::collections::VecDeque<String>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            buf: Mutex::new(std::collections::VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Takes every buffered record, oldest first.
    pub fn drain(&self) -> Vec<String> {
        self.buf.lock().expect("ring poisoned").drain(..).collect()
    }

    /// Records evicted to make room so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl EventSink for RingSink {
    fn emit(&self, line: &str) {
        let mut buf = self.buf.lock().expect("ring poisoned");
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(line.to_string());
    }
}

/// A sink writing each record as one line to an [`io::Write`](std::io::Write)
/// (a `--trace-log` file, a pipe).  Write errors are counted, not raised —
/// tracing must never take the traced system down.
pub struct WriterSink {
    writer: Mutex<Box<dyn Write + Send>>,
    errors: AtomicU64,
}

impl WriterSink {
    /// Wraps a writer.  Hand in a `BufWriter` for files; [`EventSink::flush`]
    /// is forwarded.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        WriterSink {
            writer: Mutex::new(writer),
            errors: AtomicU64::new(0),
        }
    }

    /// Number of failed writes so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for WriterSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriterSink")
            .field("errors", &self.errors())
            .finish_non_exhaustive()
    }
}

impl EventSink for WriterSink {
    fn emit(&self, line: &str) {
        let mut w = self.writer.lock().expect("writer poisoned");
        if writeln!(w, "{line}").is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("writer poisoned").flush();
    }
}

/// Issues span ids and timestamps and renders records into one sink.
///
/// Cheap to share (`Arc<Recorder>`); all state is atomic.  Instrumented code
/// that may run without tracing takes `Option<&Recorder>` and uses
/// [`maybe_span`].
pub struct Recorder {
    sink: Arc<dyn EventSink>,
    next_id: AtomicU64,
    epoch: Instant,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("next_id", &self.next_id.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// Creates a recorder emitting into `sink`.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        Recorder {
            sink,
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }

    /// Monotonic nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a root span.  The span emits its record when dropped.
    pub fn span(&self, name: &str) -> Span<'_> {
        self.span_with_parent(name, None)
    }

    /// Opens a span under an explicit parent id (use [`Span::child`] when
    /// the parent guard is in scope; this is for crossing thread or struct
    /// boundaries where only the id travels).
    pub fn span_with_parent(&self, name: &str, parent: Option<u64>) -> Span<'_> {
        Span {
            recorder: self,
            id: self.fresh_id(),
            parent,
            name: name.to_string(),
            start_ns: self.now_ns(),
            fields: Vec::new(),
        }
    }

    /// Emits a root span that opened at `start_ns` (a [`Recorder::now_ns`]
    /// reading) and closes now — for owners that hold the recorder behind an
    /// `Arc` and so cannot keep a [`Span`] guard borrowing it.
    pub fn close_span(&self, name: &str, start_ns: u64, fields: &[(&str, FieldValue)]) {
        let end = self.now_ns();
        let id = self.fresh_id();
        self.emit_record(
            start_ns,
            id,
            None,
            name,
            end.saturating_sub(start_ns),
            fields,
        );
    }

    /// Emits a zero-duration record (an instantaneous event).
    pub fn event(&self, name: &str, parent: Option<u64>, fields: &[(&str, FieldValue)]) {
        let ts = self.now_ns();
        self.emit_record(ts, self.fresh_id(), parent, name, 0, fields);
    }

    /// Forwards a flush to the sink (call on orderly shutdown so buffered
    /// `--trace-log` lines reach the file).
    pub fn flush(&self) {
        self.sink.flush();
    }

    fn emit_record(
        &self,
        ts_ns: u64,
        span_id: u64,
        parent: Option<u64>,
        name: &str,
        dur_ns: u64,
        fields: &[(&str, FieldValue)],
    ) {
        let mut line = String::with_capacity(96);
        line.push_str("{\"ts_ns\":");
        line.push_str(&ts_ns.to_string());
        line.push_str(",\"span_id\":");
        line.push_str(&span_id.to_string());
        line.push_str(",\"parent\":");
        match parent {
            Some(p) => line.push_str(&p.to_string()),
            None => line.push_str("null"),
        }
        line.push_str(",\"name\":");
        escape_json(&mut line, name);
        line.push_str(",\"dur_ns\":");
        line.push_str(&dur_ns.to_string());
        line.push_str(",\"fields\":{");
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            escape_json(&mut line, key);
            line.push(':');
            render_value(&mut line, value);
        }
        line.push_str("}}");
        self.sink.emit(&line);
    }
}

/// An open span: emits its JSONL record when dropped (RAII), so early
/// returns and `?` propagation are recorded like straight-line exits.
#[derive(Debug)]
pub struct Span<'r> {
    recorder: &'r Recorder,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span<'_> {
    /// This span's id, for parenting across boundaries the guard cannot
    /// cross.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a child span.
    pub fn child(&self, name: &str) -> Span<'_> {
        self.recorder.span_with_parent(name, Some(self.id))
    }

    /// Attaches (or appends) a field recorded with the span.
    pub fn set(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.fields.push((key, value.into()));
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = self.recorder.now_ns();
        self.recorder.emit_record(
            self.start_ns,
            self.id,
            self.parent,
            &self.name,
            end.saturating_sub(self.start_ns),
            &self.fields,
        );
    }
}

/// Opens a span iff a recorder is present: the single-branch disabled path
/// every instrumented call site goes through.
pub fn maybe_span<'r>(recorder: Option<&'r Recorder>, name: &str) -> Option<Span<'r>> {
    recorder.map(|r| r.span(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_emit_the_pinned_schema() {
        let sink = Arc::new(RingSink::new(16));
        let recorder = Recorder::new(sink.clone());
        {
            let mut root = recorder.span("request");
            root.set("cmd", "query");
            root.set("n", 3u64);
            let _child = root.child("execute");
        }
        let lines = sink.drain();
        assert_eq!(lines.len(), 2, "child then root");
        // The child drops first; the root mentions its fields.
        assert!(lines[0].contains("\"name\":\"execute\""));
        assert!(lines[0].contains("\"parent\":1"));
        assert!(lines[1].contains("\"name\":\"request\""));
        assert!(lines[1].contains("\"parent\":null"));
        assert!(lines[1].contains("\"fields\":{\"cmd\":\"query\",\"n\":3}"));
        for line in &lines {
            for key in ["ts_ns", "span_id", "parent", "name", "dur_ns", "fields"] {
                assert!(line.contains(&format!("\"{key}\":")), "{line} lacks {key}");
            }
        }
    }

    #[test]
    fn ring_sink_bounds_and_counts_drops() {
        let sink = RingSink::new(2);
        sink.emit("a");
        sink.emit("b");
        sink.emit("c");
        assert_eq!(sink.dropped(), 1);
        assert_eq!(sink.drain(), vec!["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn writer_sink_writes_lines() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Arc::new(WriterSink::new(Box::new(Shared(buf.clone()))));
        let recorder = Recorder::new(sink.clone());
        recorder.event("tick", None, &[("ok", FieldValue::Bool(true))]);
        recorder.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\":\"tick\""));
        assert!(text.contains("\"fields\":{\"ok\":true}"));
        assert_eq!(sink.errors(), 0);
    }

    #[test]
    fn strings_are_escaped() {
        let sink = Arc::new(RingSink::new(4));
        let recorder = Recorder::new(sink.clone());
        recorder.event(
            "weird\"name\n",
            None,
            &[("s", FieldValue::Str("a\\b\t\u{1}".to_string()))],
        );
        let line = sink.drain().remove(0);
        assert!(line.contains("\"weird\\\"name\\n\""));
        assert!(line.contains("\"a\\\\b\\t\\u0001\""));
    }

    #[test]
    fn maybe_span_is_none_without_a_recorder() {
        assert!(maybe_span(None, "anything").is_none());
    }
}
