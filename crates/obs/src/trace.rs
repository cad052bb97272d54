//! Causal tracing: follow one message across the whole pipeline.
//!
//! Metrics ([`crate::Registry`]) aggregate; traces explain. A
//! [`FlightRecorder`] is a bounded ring buffer of parent-linked
//! [`SpanEvent`]s, each belonging to one [`TraceId`]. A sender starts a
//! root span, propagates a [`TraceCtx`] (trace id + parent span id) along
//! with the message — in this workspace the trace id rides in the `echo`
//! frame header — and every stage that touches the message adds spans
//! (timed intervals) or instants (point annotations, e.g. an injected
//! fault) under that context. When the message dies, the quarantining
//! stage snapshots the trace into the dead letter, making the failure
//! self-explaining.
//!
//! Determinism: the recorder stamps events with its own [`Clock`], so a
//! recorder built on a [`crate::VirtualClock`] driven by a seeded
//! simulation produces byte-identical [`FlightRecorder::chrome_json`] /
//! [`FlightRecorder::text_tree`] output run after run. Span ids are
//! allocated from a process-local counter; trace ids either come from
//! [`FlightRecorder::next_trace_id`] or from the caller's own sequence
//! space (the `echo` system mints them from per-process sequence
//! counters).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use obs::{FlightRecorder, VirtualClock};
//!
//! let clock = Arc::new(VirtualClock::new());
//! let rec = Arc::new(FlightRecorder::new(64, clock.clone()));
//!
//! let trace = rec.next_trace_id();
//! let mut publish = rec.start(trace, None, "echo.publish");
//! publish.tag("channel", "ch0");
//! clock.advance_ns(500);
//! let hop = rec.start(trace, Some(publish.id()), "simnet.link.n0->n1");
//! clock.advance_ns(250);
//! rec.instant(trace, Some(hop.id()), "simnet.fault.corrupt", &[("byte", "3")]);
//! hop.finish();
//! publish.finish();
//!
//! let tree = rec.text_tree(trace);
//! assert!(tree.contains("echo.publish"));
//! assert!(tree.contains("simnet.fault.corrupt"));
//! let json = rec.chrome_json();
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Clock;

/// Identifies one causal trace: every event a single message generated,
/// across processes, hops, and retries.
///
/// `TraceId(0)` is reserved as "untraced" by convention (an absent trace
/// id on the wire), so minted ids are always non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:016x}", self.0)
    }
}

/// Identifies one span within a recorder; unique per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Whether a [`SpanEvent`] covers an interval or marks a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A timed interval (`start_ns..end_ns`).
    Span,
    /// A point annotation (`start_ns == end_ns`), e.g. an injected fault.
    Instant,
}

/// One completed event in a trace: a named, tagged, parent-linked
/// interval or instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// The trace this event belongs to.
    pub trace: TraceId,
    /// This event's own id (parent links point at these).
    pub id: SpanId,
    /// The enclosing span, if any; `None` marks a trace root.
    pub parent: Option<SpanId>,
    /// Dot-separated stage name (`morph.maxmatch`, `simnet.link.n0->n1`).
    pub name: String,
    /// Start time on the recorder clock.
    pub start_ns: u64,
    /// End time; equals `start_ns` for instants.
    pub end_ns: u64,
    /// Interval or instant.
    pub kind: SpanKind,
    /// `(key, value)` annotations, in insertion order.
    pub tags: Vec<(String, String)>,
}

impl SpanEvent {
    /// The elapsed interval (zero for instants).
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The value of tag `key`, if present.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// The propagated half of a trace: which trace a message belongs to and
/// which span new work should hang under.
///
/// ```
/// use obs::{SpanId, TraceCtx, TraceId};
///
/// let root = TraceCtx::root(TraceId(7));
/// assert_eq!(root.parent, None);
/// let under = TraceCtx { trace: TraceId(7), parent: Some(SpanId(3)) };
/// assert_eq!(under.trace, root.trace);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace every new event joins.
    pub trace: TraceId,
    /// The span new events are parented under (`None` = trace root).
    pub parent: Option<SpanId>,
}

impl TraceCtx {
    /// A context that parents new events at the trace root.
    pub fn root(trace: TraceId) -> TraceCtx {
        TraceCtx { trace, parent: None }
    }
}

/// A span that has been started but not yet recorded.
///
/// Finishing (explicitly via [`ActiveSpan::finish`], or implicitly on
/// drop) stamps the end time from the recorder clock and commits the
/// completed [`SpanEvent`] to the ring buffer.
#[derive(Debug)]
pub struct ActiveSpan {
    recorder: Arc<FlightRecorder>,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    start_ns: u64,
    tags: Vec<(String, String)>,
    finished: bool,
}

impl ActiveSpan {
    /// The trace this span belongs to.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// This span's id — the parent for child spans.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// A context that parents new events under this span.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx { trace: self.trace, parent: Some(self.id) }
    }

    /// Adds a `(key, value)` annotation.
    pub fn tag(&mut self, key: &str, value: &str) {
        self.tags.push((key.to_string(), value.to_string()));
    }

    /// Ends the span at the recorder clock's current time and commits it.
    /// Returns the span id so callers can keep parenting under it.
    pub fn finish(mut self) -> SpanId {
        self.complete();
        self.id
    }

    fn complete(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let end_ns = self.recorder.now_ns().max(self.start_ns);
        self.recorder.push(SpanEvent {
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            end_ns,
            kind: SpanKind::Span,
            tags: std::mem::take(&mut self.tags),
        });
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        self.complete();
    }
}

/// A bounded ring buffer of completed [`SpanEvent`]s with deterministic
/// exporters.
///
/// Events are committed in completion order (children typically precede
/// their parents); the exporters reconstruct trees from the parent links.
/// When the ring is full the oldest event is evicted and counted in
/// [`FlightRecorder::dropped`].
#[derive(Debug)]
pub struct FlightRecorder {
    clock: Arc<dyn Clock>,
    capacity: usize,
    ring: Mutex<VecDeque<SpanEvent>>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events, stamping them
    /// from `clock`.
    pub fn new(capacity: usize, clock: Arc<dyn Clock>) -> FlightRecorder {
        FlightRecorder {
            clock,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// The recorder clock's current time.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Mints a fresh non-zero trace id from the recorder's own counter.
    /// (Callers with their own deterministic sequence space — per-process
    /// counters, say — may construct [`TraceId`]s directly instead.)
    pub fn next_trace_id(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Starts a span at the clock's current time.
    pub fn start(
        self: &Arc<Self>,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
    ) -> ActiveSpan {
        let start_ns = self.now_ns();
        self.start_at(trace, parent, name, start_ns)
    }

    /// Starts a span at an explicit time — for callers that schedule work
    /// into the future on a virtual clock (e.g. a network hop departing
    /// later than "now").
    pub fn start_at(
        self: &Arc<Self>,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        start_ns: u64,
    ) -> ActiveSpan {
        ActiveSpan {
            recorder: Arc::clone(self),
            trace,
            id: SpanId(self.next_span.fetch_add(1, Ordering::Relaxed)),
            parent,
            name: name.to_string(),
            start_ns,
            tags: Vec::new(),
            finished: false,
        }
    }

    /// Records a point annotation at the clock's current time.
    pub fn instant(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        tags: &[(&str, &str)],
    ) -> SpanId {
        self.instant_at(trace, parent, name, tags, self.now_ns())
    }

    /// Records a point annotation at an explicit time.
    pub fn instant_at(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        tags: &[(&str, &str)],
        at_ns: u64,
    ) -> SpanId {
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        self.push(SpanEvent {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_ns: at_ns,
            end_ns: at_ns,
            kind: SpanKind::Instant,
            tags: tags.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
        });
        id
    }

    fn push(&self, event: SpanEvent) {
        let mut ring = self.ring.lock().expect("recorder lock");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Every retained event, in commit order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.ring.lock().expect("recorder lock").iter().cloned().collect()
    }

    /// The retained events of one trace, in commit order.
    pub fn trace_events(&self, trace: TraceId) -> Vec<SpanEvent> {
        self.ring
            .lock()
            .expect("recorder lock")
            .iter()
            .filter(|e| e.trace == trace)
            .cloned()
            .collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("recorder lock").len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum events retained before eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders one trace as an indented span tree: children under their
    /// parents sorted by `(start_ns, id)`, spans as `name [start..end]`,
    /// instants as `@time name`, tags appended as `key=value`.
    pub fn text_tree(&self, trace: TraceId) -> String {
        use std::fmt::Write;
        let events = self.trace_events(trace);
        let mut out = String::new();
        let _ = writeln!(out, "trace {trace} ({} events)", events.len());
        let ids: std::collections::HashSet<SpanId> = events.iter().map(|e| e.id).collect();
        let mut children: HashMap<Option<SpanId>, Vec<&SpanEvent>> = HashMap::new();
        for e in &events {
            // Parents recorded on another process's recorder (or evicted
            // from the ring) are unknown here; treat such events as roots.
            let key = e.parent.filter(|p| ids.contains(p));
            children.entry(key).or_default().push(e);
        }
        for v in children.values_mut() {
            v.sort_by_key(|e| (e.start_ns, e.id));
        }
        fn render(
            out: &mut String,
            children: &HashMap<Option<SpanId>, Vec<&SpanEvent>>,
            parent: Option<SpanId>,
            depth: usize,
        ) {
            use std::fmt::Write;
            let Some(list) = children.get(&parent) else { return };
            for e in list {
                let indent = "  ".repeat(depth);
                match e.kind {
                    SpanKind::Span => {
                        let _ = write!(out, "{indent}{} [{}..{}ns]", e.name, e.start_ns, e.end_ns);
                    }
                    SpanKind::Instant => {
                        let _ = write!(out, "{indent}@{}ns {}", e.start_ns, e.name);
                    }
                }
                for (k, v) in &e.tags {
                    let _ = write!(out, " {k}={v}");
                }
                let _ = writeln!(out);
                render(out, children, Some(e.id), depth + 1);
            }
        }
        render(&mut out, &children, None, 1);
        out
    }

    /// Renders every retained event as chrome://tracing JSON (load the
    /// output in `chrome://tracing` or Perfetto). Spans are `"ph":"X"`
    /// complete events, instants `"ph":"i"`; timestamps are microseconds
    /// with a fixed three-digit nanosecond fraction, so output is
    /// byte-identical for identical event sequences. Each trace maps to
    /// one `tid` (by order of first appearance); the full trace id is in
    /// `args.trace`.
    pub fn chrome_json(&self) -> String {
        use std::fmt::Write;
        fn us(ns: u64) -> String {
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }
        let events = self.events();
        let mut tids: HashMap<TraceId, usize> = HashMap::new();
        for e in &events {
            let next = tids.len() + 1;
            tids.entry(e.trace).or_insert(next);
        }
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let cat = e.name.split('.').next().unwrap_or("trace");
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{}",
                json_escape(&e.name),
                json_escape(cat),
                match e.kind {
                    SpanKind::Span => "X",
                    SpanKind::Instant => "i",
                },
                us(e.start_ns),
            );
            if e.kind == SpanKind::Span {
                let _ = write!(out, ",\"dur\":{}", us(e.duration_ns()));
            } else {
                let _ = write!(out, ",\"s\":\"t\"");
            }
            let _ = write!(
                out,
                ",\"pid\":1,\"tid\":{},\"args\":{{\"trace\":\"{}\",\"span\":\"{}\"",
                tids[&e.trace], e.trace, e.id
            );
            if let Some(p) = e.parent {
                let _ = write!(out, ",\"parent\":\"{p}\"");
            }
            for (k, v) in &e.tags {
                let _ = write!(out, ",\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            let _ = write!(out, "}}}}");
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal: backslash,
/// double quote, and all control characters below U+0020.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn virtual_recorder(cap: usize) -> (Arc<FlightRecorder>, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        (Arc::new(FlightRecorder::new(cap, clock.clone())), clock)
    }

    #[test]
    fn spans_nest_and_export_as_a_tree() {
        let (rec, clock) = virtual_recorder(64);
        let trace = rec.next_trace_id();
        let root = rec.start(trace, None, "publish");
        clock.advance_ns(100);
        let mut hop = rec.start(trace, Some(root.id()), "link");
        hop.tag("fault", "corrupt");
        clock.advance_ns(50);
        rec.instant(trace, Some(hop.id()), "corrupted", &[]);
        hop.finish();
        clock.advance_ns(10);
        root.finish();

        let tree = rec.text_tree(trace);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("trace t"));
        assert_eq!(lines[1], "  publish [0..160ns]");
        assert_eq!(lines[2], "    link [100..150ns] fault=corrupt");
        assert_eq!(lines[3], "      @150ns corrupted");
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let (rec, _clock) = virtual_recorder(2);
        let t = rec.next_trace_id();
        for i in 0..5 {
            rec.instant(t, None, &format!("e{i}"), &[]);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let names: Vec<String> = rec.events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["e3", "e4"]);
    }

    #[test]
    fn drop_finishes_unfinished_spans() {
        let (rec, clock) = virtual_recorder(8);
        let t = rec.next_trace_id();
        {
            let _span = rec.start(t, None, "implicit");
            clock.advance_ns(7);
        }
        let events = rec.trace_events(t);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].end_ns, 7);
        assert_eq!(events[0].kind, SpanKind::Span);
    }

    #[test]
    fn traces_are_isolated_and_ctx_links_parents() {
        let (rec, _clock) = virtual_recorder(64);
        let ta = rec.next_trace_id();
        let tb = rec.next_trace_id();
        assert_ne!(ta, tb);
        let root = rec.start(ta, None, "a");
        let ctx = root.ctx();
        assert_eq!(ctx.trace, ta);
        assert_eq!(ctx.parent, Some(root.id()));
        rec.instant(tb, None, "b", &[]);
        root.finish();
        assert_eq!(rec.trace_events(ta).len(), 1);
        assert_eq!(rec.trace_events(tb).len(), 1);
    }

    #[test]
    fn chrome_json_is_deterministic_and_escaped() {
        let build = || {
            let (rec, clock) = virtual_recorder(64);
            let t = rec.next_trace_id();
            let mut s = rec.start(t, None, "weird\"name\n");
            clock.advance_ns(1234);
            s.tag("detail", "tab\there");
            s.finish();
            rec.chrome_json()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert!(a.contains("weird\\\"name\\n"));
        assert!(a.contains("tab\\there"));
        assert!(a.contains("\"ts\":0.000"));
        assert!(a.contains("\"dur\":1.234"));
    }

    #[test]
    fn json_escape_handles_control_and_specials() {
        assert_eq!(json_escape("a\\b\"c"), "a\\\\b\\\"c");
        assert_eq!(json_escape("n\nr\rt\t"), "n\\nr\\rt\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("simnet.link.n0->n1.bytes"), "simnet.link.n0->n1.bytes");
    }
}
