//! The metric registry: named handles, scoped timers, and snapshots.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, RwLock};

use crate::clock::{Clock, MonotonicClock};
use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::trace::{json_escape, FlightRecorder};

/// A registry of named metrics sharing one [`Clock`].
///
/// Names are dot-separated lowercase paths (`morph.decision.hit`); see
/// `OBSERVABILITY.md` at the repository root for the full catalogue. Handle
/// lookup takes a lock, so hot paths should fetch their handles once and
/// keep the `Arc`s; updates on the handles themselves are lock-free. A name
/// is held once per process however many registries register it: every
/// registry keys its metrics by one shared, interned copy.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// let reg = Arc::new(obs::Registry::new());
/// let hits = reg.counter("cache.hit");
/// hits.inc();
/// {
///     let _span = reg.timer("work_ns"); // records elapsed ns on drop
/// }
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("cache.hit"), Some(1));
/// assert_eq!(snap.histogram("work_ns").unwrap().count, 1);
/// println!("{}", snap.to_text());
/// ```
pub struct Registry {
    clock: Arc<dyn Clock>,
    recorder: RwLock<Option<Arc<FlightRecorder>>>,
    counters: Mutex<Metrics<Counter>>,
    gauges: Mutex<Metrics<Gauge>>,
    histograms: Mutex<Metrics<Histogram>>,
}

/// One kind of metric in a registry, by interned name.
type Metrics<T> = BTreeMap<Arc<str>, Arc<T>>;

/// The interned metric names: every name some registry in the process has
/// registered, one allocation each.
struct Names {
    names: BTreeSet<Arc<str>>,
    /// The size at which names no registry still holds are dropped.
    prune_at: usize,
}

static NAMES: Mutex<Names> = Mutex::new(Names { names: BTreeSet::new(), prune_at: 64 });

/// The process's one copy of `name`. Names no registry holds any more are
/// dropped each time the set doubles, so the set stays within twice the
/// names in use.
fn intern(name: &str) -> Arc<str> {
    let mut interned = NAMES.lock().expect("metric name interner lock");
    if let Some(n) = interned.names.get(name) {
        return Arc::clone(n);
    }
    if interned.names.len() >= interned.prune_at {
        interned.names.retain(|n| Arc::strong_count(n) > 1);
        interned.prune_at = (2 * interned.names.len()).max(64);
    }
    let n: Arc<str> = Arc::from(name);
    interned.names.insert(Arc::clone(&n));
    n
}

/// The metric `name` in `metrics`, created on first use.
fn handle<T: Default>(metrics: &Mutex<Metrics<T>>, name: &str) -> Arc<T> {
    let mut map = metrics.lock().expect("registry lock");
    if let Some(m) = map.get(name) {
        return Arc::clone(m);
    }
    let m = Arc::<T>::default();
    map.insert(intern(name), Arc::clone(&m));
    m
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.lock().expect("registry lock").len())
            .field("gauges", &self.gauges.lock().expect("registry lock").len())
            .field("histograms", &self.histograms.lock().expect("registry lock").len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// Creates a registry on wall-clock ([`MonotonicClock`]) time.
    pub fn new() -> Registry {
        Registry::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Creates a registry on an explicit clock (e.g. a
    /// [`crate::VirtualClock`] advanced by a deterministic simulator).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Registry {
        Registry {
            clock,
            recorder: RwLock::new(None),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Attaches a [`FlightRecorder`] so components holding this registry
    /// can also emit trace events. Several registries may share one
    /// recorder (the `echo` system attaches one recorder, clocked on
    /// virtual time, to every registry in the process).
    pub fn set_recorder(&self, recorder: Arc<FlightRecorder>) {
        *self.recorder.write().expect("registry recorder lock") = Some(recorder);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.recorder.read().expect("registry recorder lock").clone()
    }

    /// The registry clock's current time.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The current clock handle. Hot paths cache this alongside their
    /// metric handles so they can start [`Timer`]s without registry locks.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Returns (creating on first use) the counter with this name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        handle(&self.counters, name)
    }

    /// Returns (creating on first use) the gauge with this name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        handle(&self.gauges, name)
    }

    /// Returns (creating on first use) the histogram with this name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        handle(&self.histograms, name)
    }

    /// Starts a scoped timer that records its elapsed nanoseconds into the
    /// histogram `name` when dropped (or explicitly [`Timer::stop`]ped).
    pub fn timer(&self, name: &str) -> Timer {
        Timer::start(self.histogram(name), self.clock())
    }

    /// A point-in-time copy of every metric, stamped with the registry
    /// clock. Entries are sorted by name, so two registries that saw the
    /// same updates under the same (virtual) clock produce identical
    /// snapshots — the determinism the integration tests rely on.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            at_ns: self.now_ns(),
            counters: self
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }
}

/// A scoped timer: measures from construction to [`Timer::stop`] (or drop)
/// on the clock it was started with, recording into one histogram.
pub struct Timer {
    histogram: Arc<Histogram>,
    clock: Arc<dyn Clock>,
    start_ns: u64,
    stopped: bool,
}

impl std::fmt::Debug for Timer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timer").field("start_ns", &self.start_ns).finish()
    }
}

impl Timer {
    /// Starts a timer against an explicit histogram and clock.
    pub fn start(histogram: Arc<Histogram>, clock: Arc<dyn Clock>) -> Timer {
        let start_ns = clock.now_ns();
        Timer { histogram, clock, start_ns, stopped: false }
    }

    /// Nanoseconds since the timer started, without stopping it or recording
    /// anything: one clock read that splits the interval a running timer
    /// covers, so a sub-phase needs no timer pair of its own.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }

    /// Stops the timer, records the elapsed nanoseconds, and returns them.
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        self.stopped = true;
        let elapsed = self.clock.now_ns().saturating_sub(self.start_ns);
        self.histogram.record(elapsed);
        elapsed
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if !self.stopped {
            self.finish();
        }
    }
}

/// Starts a scoped timer on a registry; the span ends (and the elapsed
/// nanoseconds are recorded into the named histogram) when the returned
/// guard goes out of scope.
///
/// ```
/// let reg = obs::Registry::new();
/// {
///     obs::span!(reg, "phase_ns");
/// }
/// assert_eq!(reg.snapshot().histogram("phase_ns").unwrap().count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr) => {
        let _obs_span_guard = $registry.timer($name);
    };
}

/// A point-in-time copy of a [`Registry`], ready for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The registry clock's time when the snapshot was taken.
    pub at_ns: u64,
    /// `(name, total)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The snapshot of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Renders the snapshot as aligned human-readable text. Histograms
    /// print summary statistics plus one line per non-empty power-of-two
    /// bucket with a proportional bar.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# snapshot at {} ns", self.at_ns);
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter  {name:<width$}  {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge    {name:<width$}  {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name}  count={} min={} mean={} p50={} p99={} max={} (ns)",
                h.count,
                h.min,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max,
            );
            let peak = h.buckets.iter().map(|&(_, n)| n).max().unwrap_or(1);
            for &(upper, n) in &h.buckets {
                let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
                let _ = writeln!(out, "    <= {upper:>12} ns  {n:>8}  {bar}");
            }
        }
        out
    }

    /// Renders the snapshot as a self-contained JSON object (hand-rolled;
    /// names are escaped for backslash, quote, and control characters, so
    /// arbitrary metric names — `simnet.link.n0->n1.bytes` included —
    /// survive a round trip through a JSON parser).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let esc = json_escape;
        let mut out = String::new();
        let _ = write!(out, "{{\"at_ns\":{},\"counters\":{{", self.at_ns);
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{v}", esc(name));
        }
        let _ = write!(out, "}},\"gauges\":{{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{v}", esc(name));
        }
        let _ = write!(out, "}},\"histograms\":{{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                esc(name),
                h.count,
                h.sum,
                h.min,
                h.max
            );
            for (j, &(upper, n)) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}[{upper},{n}]");
            }
            let _ = write!(out, "]}}");
        }
        let _ = write!(out, "}}}}");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// counters as `# TYPE <name> counter` samples, gauges as gauges, and
    /// histograms as cumulative `_bucket{le="…"}` series plus `_sum` and
    /// `_count` — ready for a scrape endpoint or `promtool` ingestion.
    ///
    /// Metric names are sanitized to the Prometheus charset: every
    /// character outside `[a-zA-Z0-9_:]` (the dots and arrows of the
    /// internal catalogue) becomes `_`, and a leading digit gains a `_`
    /// prefix. Sanitization can collide names (`a.b` and `a_b`); the
    /// internal catalogue never does.
    ///
    /// ```
    /// let reg = obs::Registry::new();
    /// reg.counter("morph.decision.hit").add(3);
    /// let prom = reg.snapshot().to_prometheus();
    /// assert!(prom.contains("# TYPE morph_decision_hit counter"));
    /// assert!(prom.contains("morph_decision_hit 3"));
    /// ```
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 1);
            for (i, c) in name.chars().enumerate() {
                match c {
                    'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
                    '0'..='9' => {
                        if i == 0 {
                            out.push('_');
                        }
                        out.push(c);
                    }
                    _ => out.push('_'),
                }
            }
            out
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for &(upper, count) in &h.buckets {
                cumulative += count;
                let _ = writeln!(out, "{n}_bucket{{le=\"{upper}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
        }
        out
    }

    /// The change since an `earlier` snapshot of the same registry:
    /// counter/gauge differences and histogram *count* deltas, for
    /// per-phase accounting ("how many cache misses did phase 2 cost?").
    ///
    /// Names present only in `self` are diffed against zero; names present
    /// only in `earlier` are omitted. Counter and histogram-count
    /// differences saturate at zero (counters never go backwards).
    ///
    /// ```
    /// let reg = obs::Registry::new();
    /// reg.counter("hits").add(3);
    /// let before = reg.snapshot();
    /// reg.counter("hits").add(4);
    /// reg.gauge("depth").set(-2);
    /// let delta = reg.snapshot().delta(&before);
    /// assert_eq!(delta.counter("hits"), Some(4));
    /// assert_eq!(delta.gauge("depth"), Some(-2));
    /// ```
    pub fn delta(&self, earlier: &Snapshot) -> SnapshotDelta {
        SnapshotDelta {
            elapsed_ns: self.at_ns.saturating_sub(earlier.at_ns),
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n).unwrap_or(0))))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(n, v)| (n.clone(), v - earlier.gauge(n).unwrap_or(0)))
                .collect(),
            histogram_counts: self
                .histograms
                .iter()
                .map(|(n, h)| {
                    let before = earlier.histogram(n).map(|h| h.count).unwrap_or(0);
                    (n.clone(), h.count.saturating_sub(before))
                })
                .collect(),
        }
    }
}

/// The difference between two [`Snapshot`]s of one registry — see
/// [`Snapshot::delta`]. Entries stay sorted by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// Clock time elapsed between the two snapshots.
    pub elapsed_ns: u64,
    /// Per-counter increase, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-gauge signed change, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Per-histogram increase in sample count, sorted by name.
    pub histogram_counts: Vec<(String, u64)>,
}

impl SnapshotDelta {
    /// The increase of a counter, if present in the later snapshot.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The signed change of a gauge, if present in the later snapshot.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn handles_are_shared_by_name() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.counter("a").inc();
        assert_eq!(reg.counter("a").get(), 2);
        reg.gauge("g").set(7);
        assert_eq!(reg.gauge("g").get(), 7);
    }

    /// Two registries naming one metric hold one copy of the name; names
    /// no registry holds any more leave the interner as it grows.
    #[test]
    fn names_are_held_once_and_dropped_when_unused() {
        let key = |reg: &Registry, name: &str| {
            let map = reg.counters.lock().unwrap();
            Arc::clone(map.get_key_value(name).unwrap().0)
        };
        let (a, b) = (Registry::new(), Registry::new());
        a.counter("interned.shared");
        b.counter("interned.shared");
        assert!(Arc::ptr_eq(&key(&a, "interned.shared"), &key(&b, "interned.shared")));

        let gone = Registry::new();
        gone.counter("interned.gone");
        drop(gone);
        let interned = || NAMES.lock().unwrap().names.contains("interned.gone");
        assert!(interned());
        // Growing the interner past twice its size prunes at least once.
        let keep = Registry::new();
        let grow = 2 * NAMES.lock().unwrap().names.len() + 64;
        for i in 0..grow {
            keep.counter(&format!("interned.kept.{i}"));
        }
        assert!(!interned(), "a name no registry holds is dropped");
        assert!(NAMES.lock().unwrap().names.contains("interned.shared"));
    }

    #[test]
    fn timer_records_virtual_elapsed() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Registry::with_clock(Arc::<VirtualClock>::clone(&clock));
        let t = reg.timer("op_ns");
        clock.advance_ns(1234);
        assert_eq!(t.stop(), 1234);
        let snap = reg.snapshot();
        let h = snap.histogram("op_ns").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 1234);
        assert_eq!(snap.at_ns, 1234);
    }

    #[test]
    fn snapshot_is_sorted_and_queriable() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").add(3);
        let s = reg.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(s.counter("a"), Some(3));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.gauge("missing"), None);
    }

    #[test]
    fn exporters_cover_every_metric() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Registry::with_clock(clock.clone());
        reg.counter("events.total").add(5);
        reg.gauge("depth").set(-2);
        reg.histogram("lat_ns").record(3);
        reg.histogram("lat_ns").record(70_000);
        clock.set_ns(42);

        let text = reg.snapshot().to_text();
        assert!(text.contains("# snapshot at 42 ns"));
        assert!(text.contains("events.total"));
        assert!(text.contains("depth"));
        assert!(text.contains("histogram lat_ns"));
        assert!(text.contains("count=2"));

        let json = reg.snapshot().to_json();
        assert!(json.contains("\"at_ns\":42"));
        assert!(json.contains("\"events.total\":5"));
        assert!(json.contains("\"depth\":-2"));
        assert!(json.contains("\"lat_ns\":{\"count\":2"));
        // Crude structural sanity: balanced braces.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Registry::with_clock(clock.clone());
        reg.counter("simnet.link.n0->n1.bytes").add(17);
        reg.gauge("queue.depth").set(-9);
        let h = reg.histogram("lat_ns");
        h.record(1);
        h.record(3);
        h.record(70_000);

        let prom = reg.snapshot().to_prometheus();
        // Names sanitized to the Prometheus charset.
        assert!(prom.contains("# TYPE simnet_link_n0__n1_bytes counter"));
        assert!(prom.contains("simnet_link_n0__n1_bytes 17"));
        assert!(prom.contains("# TYPE queue_depth gauge"));
        assert!(prom.contains("queue_depth -9"));
        // Histogram buckets are cumulative and end at +Inf == count.
        assert!(prom.contains("# TYPE lat_ns histogram"));
        assert!(prom.contains("lat_ns_bucket{le=\"1\"} 1"));
        assert!(prom.contains("lat_ns_bucket{le=\"3\"} 2"));
        assert!(prom.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("lat_ns_sum 70004"));
        assert!(prom.contains("lat_ns_count 3"));
        // Every non-comment line is exactly "name[{labels}] value".
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad sample line: {line}");
        }
    }

    #[test]
    fn delta_reports_differences_since_earlier() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Registry::with_clock(clock.clone());
        reg.counter("hits").add(2);
        reg.gauge("depth").set(5);
        reg.histogram("lat_ns").record(10);
        clock.set_ns(100);
        let before = reg.snapshot();

        reg.counter("hits").add(3);
        reg.counter("fresh").inc(); // appears only after `before`
        reg.gauge("depth").set(1);
        reg.histogram("lat_ns").record(20);
        reg.histogram("lat_ns").record(30);
        clock.set_ns(250);

        let d = reg.snapshot().delta(&before);
        assert_eq!(d.elapsed_ns, 150);
        assert_eq!(d.counter("hits"), Some(3));
        assert_eq!(d.counter("fresh"), Some(1));
        assert_eq!(d.counter("missing"), None);
        assert_eq!(d.gauge("depth"), Some(-4));
        assert_eq!(d.histogram_counts, [("lat_ns".to_string(), 2)]);
    }

    #[test]
    fn delta_against_self_is_zero() {
        let reg = Registry::new();
        reg.counter("n").add(9);
        reg.histogram("h").record(1);
        let s = reg.snapshot();
        let d = s.delta(&s);
        assert!(d.counters.iter().all(|&(_, v)| v == 0));
        assert!(d.gauges.iter().all(|&(_, v)| v == 0));
        assert!(d.histogram_counts.iter().all(|&(_, v)| v == 0));
    }

    /// A minimal JSON parser, just enough to round-trip `to_json()`
    /// output: objects, arrays, strings with escapes, and (unsigned/
    /// negative) integers.
    mod minijson {
        use std::collections::BTreeMap;

        #[derive(Debug, PartialEq)]
        pub enum Json {
            Num(i128),
            Str(String),
            Arr(Vec<Json>),
            Obj(BTreeMap<String, Json>),
        }

        pub fn parse(s: &str) -> Result<Json, String> {
            let b = s.as_bytes();
            let (v, i) = value(b, 0)?;
            if i != b.len() {
                return Err(format!("trailing input at {i}"));
            }
            Ok(v)
        }

        fn value(b: &[u8], i: usize) -> Result<(Json, usize), String> {
            match *b.get(i).ok_or("eof")? {
                b'{' => {
                    let mut m = BTreeMap::new();
                    let mut i = i + 1;
                    if b.get(i) == Some(&b'}') {
                        return Ok((Json::Obj(m), i + 1));
                    }
                    loop {
                        let (k, j) = string(b, i)?;
                        if b.get(j) != Some(&b':') {
                            return Err(format!("expected ':' at {j}"));
                        }
                        let (v, j) = value(b, j + 1)?;
                        m.insert(k, v);
                        match b.get(j) {
                            Some(b',') => i = j + 1,
                            Some(b'}') => return Ok((Json::Obj(m), j + 1)),
                            _ => return Err(format!("expected ',' or '}}' at {j}")),
                        }
                    }
                }
                b'[' => {
                    let mut a = Vec::new();
                    let mut i = i + 1;
                    if b.get(i) == Some(&b']') {
                        return Ok((Json::Arr(a), i + 1));
                    }
                    loop {
                        let (v, j) = value(b, i)?;
                        a.push(v);
                        match b.get(j) {
                            Some(b',') => i = j + 1,
                            Some(b']') => return Ok((Json::Arr(a), j + 1)),
                            _ => return Err(format!("expected ',' or ']' at {j}")),
                        }
                    }
                }
                b'"' => {
                    let (s, j) = string(b, i)?;
                    Ok((Json::Str(s), j))
                }
                _ => {
                    let mut j = i;
                    if b.get(j) == Some(&b'-') {
                        j += 1;
                    }
                    let start = j;
                    while j < b.len() && b[j].is_ascii_digit() {
                        j += 1;
                    }
                    if start == j {
                        return Err(format!("expected value at {i}"));
                    }
                    let n: i128 = std::str::from_utf8(&b[i..j])
                        .map_err(|e| e.to_string())?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?;
                    Ok((Json::Num(n), j))
                }
            }
        }

        fn string(b: &[u8], i: usize) -> Result<(String, usize), String> {
            if b.get(i) != Some(&b'"') {
                return Err(format!("expected '\"' at {i}"));
            }
            let mut out = String::new();
            let mut j = i + 1;
            loop {
                match *b.get(j).ok_or("eof in string")? {
                    b'"' => return Ok((out, j + 1)),
                    b'\\' => {
                        j += 1;
                        match *b.get(j).ok_or("eof in escape")? {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(
                                    b.get(j + 1..j + 5).ok_or("short \\u escape")?,
                                )
                                .map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("bad codepoint")?);
                                j += 4;
                            }
                            c => return Err(format!("bad escape '{}'", c as char)),
                        }
                        j += 1;
                    }
                    c => {
                        // Multi-byte UTF-8: copy the whole sequence.
                        let ch_len = match c {
                            0x00..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let s = std::str::from_utf8(b.get(j..j + ch_len).ok_or("bad utf8")?)
                            .map_err(|e| e.to_string())?;
                        out.push_str(s);
                        j += ch_len;
                    }
                }
            }
        }
    }

    #[test]
    fn json_round_trips_awkward_metric_names() {
        use minijson::Json;
        let reg = Registry::new();
        // The names the catalogue actually produces, arrows included…
        reg.counter("simnet.link.n0->n1.bytes").add(17);
        reg.counter("echo.ch.3.delivered").add(4);
        reg.gauge("queue.depth").set(-9);
        reg.histogram("lat_ns").record(5);
        // …and hostile ones the escaper must survive.
        reg.counter("weird\"quote\\back\nline").inc();

        let json = reg.snapshot().to_json();
        let parsed = minijson::parse(&json).expect("to_json output must parse");
        let Json::Obj(root) = parsed else { panic!("root must be an object") };
        let Json::Obj(counters) = &root["counters"] else { panic!("counters object") };
        assert_eq!(counters["simnet.link.n0->n1.bytes"], Json::Num(17));
        assert_eq!(counters["echo.ch.3.delivered"], Json::Num(4));
        assert_eq!(counters["weird\"quote\\back\nline"], Json::Num(1));
        let Json::Obj(gauges) = &root["gauges"] else { panic!("gauges object") };
        assert_eq!(gauges["queue.depth"], Json::Num(-9));
        let Json::Obj(hists) = &root["histograms"] else { panic!("histograms object") };
        let Json::Obj(lat) = &hists["lat_ns"] else { panic!("histogram object") };
        assert_eq!(lat["count"], Json::Num(1));
        assert_eq!(lat["sum"], Json::Num(5));
    }

    #[test]
    fn identical_update_sequences_snapshot_identically() {
        let build = || {
            let clock = Arc::new(VirtualClock::new());
            let reg = Registry::with_clock(clock.clone());
            for i in 0..10u64 {
                reg.counter("n").inc();
                reg.histogram("h").record(i * 100);
                clock.advance_ns(50);
            }
            reg.snapshot()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_json(), b.to_json());
    }
}
