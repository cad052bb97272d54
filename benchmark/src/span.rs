//! The harness's own in-memory span recorder. Spans are taken around calls
//! into the crates from the benchmark's files (nothing is recorded inside
//! the crates), kept in a `Vec`, and written once at exit as chrome-trace
//! JSON. A layer's number is the median *self time* of its spans: the
//! span's duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u32,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new() }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span whose endpoints were measured by the caller.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op: u32,
    ) -> SpanId {
        self.spans.push(Span { name, start_ns, end_ns, parent, op });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let now = self.now();
        self.push(name, now, now, parent, op)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, op);
        out
    }

    /// Self time of every span, indexed like the spans: duration minus the
    /// union of its children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if lo < hi {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(s.name).or_default().push(t);
        }
        by_name
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) export of the spans of
    /// the first `max_ops` operations.
    pub fn chrome_json(&self, max_ops: u32) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op < max_ops)
            .map(|(id, s)| {
                let mut args = vec![("id".to_string(), Json::Num(id as f64))];
                args.push(("op".to_string(), Json::Num(f64::from(s.op))));
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::Num(f64::from(p))));
                }
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("ph".to_string(), Json::Str("X".to_string())),
                    ("pid".to_string(), Json::Num(1.0)),
                    ("tid".to_string(), Json::Num(1.0)),
                    ("ts".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".to_string(), Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("args".to_string(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".to_string(), Json::Arr(events))]).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.push("root", 0, 100, None, 0);
        let a = rec.push("a", 10, 40, Some(root), 0); // sibling 1
        rec.push("b", 50, 70, Some(root), 0); // sibling 2
        rec.push("a.inner", 15, 25, Some(a), 0); // nested under a
        rec.push("other", 200, 230, None, 1); // unrelated root
        assert_eq!(rec.self_times(), vec![100 - 30 - 20, 30 - 10, 20, 10, 30]);
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.push("root", 100, 200, None, 0);
        rec.push("x", 110, 150, Some(root), 0);
        rec.push("y", 140, 160, Some(root), 0); // overlaps x by 10
        rec.push("z", 190, 250, Some(root), 0); // overhangs the parent by 50
        rec.push("w", 0, 50, Some(root), 0); // entirely outside
        assert_eq!(rec.self_times()[0], 100 - 50 - 10);
        let by_name = rec.self_times_by_name();
        assert_eq!(by_name["root"], vec![40]);
        assert_eq!(by_name["z"], vec![60]);
    }

    #[test]
    fn chrome_export_parses_and_respects_the_op_cap() {
        let mut rec = Recorder::new(Instant::now());
        let r = rec.push("op", 0, 2_000, None, 0);
        rec.push("echo.system.run", 500, 1_500, Some(r), 0);
        rec.push("op", 3_000, 4_000, None, 1);
        let doc = Json::parse(&rec.chrome_json(1)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
        assert_eq!(events[1].get("args").and_then(|a| a.get("parent")), Some(&Json::Num(0.0)));
    }
}
