//! Self-telemetry: the system observes itself *over its own channels*.
//!
//! [`crate::EchoSystem::enable_self_telemetry`] periodically folds the
//! system registry's [`obs::Snapshot`] delta into a versioned PBIO record
//! and publishes it on an ordinary event channel (run
//! [`crate::QosTier::SequencedUnreliable`] — stale telemetry is worthless,
//! newest wins, and a down link must never make the monitored system queue
//! retries of its own monitoring traffic).
//!
//! Because telemetry is *just events*, collectors are just sinks — and the
//! paper's whole morphing story applies to the monitoring plane too. The
//! current emitter speaks [`telemetry_format_v2`]; a collector still
//! expecting [`telemetry_format_v1`] keeps working with **zero
//! hand-written transformations**: MaxMatch drops the fields v1 never had,
//! and default-fill supplies them in the other direction. The test suite
//! proves both directions.

use std::sync::Arc;

use obs::{Counter, Registry, SnapshotDelta};
use pbio::{Encoder, FormatBuilder, RecordFormat, Value};

use crate::proto::ChannelId;

/// The v1 telemetry record — what first-generation collectors were built
/// against: a sequence number, the sample time, and the headline event
/// counters over the reporting period.
pub fn telemetry_format_v1() -> Arc<RecordFormat> {
    FormatBuilder::record("EchoTelemetry")
        .long("seq")
        .long("at_ns")
        .long("elapsed_ns")
        .long("published")
        .long("delivered")
        .long("shed")
        .build_arc()
        .expect("static telemetry format")
}

/// The current (v2) telemetry record: v1's fields plus the retry queue's
/// depth at the sample time. The name is unchanged — v1 collectors morph
/// v2 records on receipt, no renegotiation, exactly as the paper's
/// evolving exchanges do.
pub fn telemetry_format_v2() -> Arc<RecordFormat> {
    FormatBuilder::record("EchoTelemetry")
        .long("seq")
        .long("at_ns")
        .long("elapsed_ns")
        .long("published")
        .long("delivered")
        .long("shed")
        .long("queue_depth")
        .build_arc()
        .expect("static telemetry format")
}

/// Clamps a u64 sample into the record's signed `long` field.
fn long(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Builds one v2 telemetry record from a reporting period's registry
/// delta. Counters absent from the delta report zero.
pub fn telemetry_value(seq: u64, at_ns: u64, queue_depth: i64, delta: &SnapshotDelta) -> Value {
    let c = |name: &str| long(delta.counter(name).unwrap_or(0));
    Value::Record(vec![
        long(seq),
        long(at_ns),
        long(delta.elapsed_ns),
        c("echo.events.published"),
        c("echo.events.delivered"),
        c("echo.queue.shed"),
        Value::Int(queue_depth),
    ])
}

/// The counters every record reports, sorted by name.
const SAMPLED: [&str; 3] = ["echo.events.delivered", "echo.events.published", "echo.queue.shed"];

/// The periodic self-telemetry publisher: decides when a record is due
/// and builds it; the system puts it on the channel.
pub(crate) struct Publisher {
    pub proc: usize,
    pub channel: ChannelId,
    /// The v2 record format, built once — rebuilding it per report would
    /// defeat every pointer-keyed cache downstream of `publish`.
    pub format: Arc<RecordFormat>,
    period_ns: u64,
    /// The counters a record reports, as live handles with the value seen
    /// at the last report — `Snapshot::delta` restricted to the record's
    /// fields, without the full-registry snapshot (every histogram cloned
    /// per period). Sorted by name, as `SnapshotDelta` promises.
    sampled: Vec<(&'static str, Arc<Counter>, u64)>,
    /// Virtual time of the last report (or of enabling): the next one is
    /// due a period later, and carries the time since as `elapsed_ns`.
    last_at_ns: u64,
    seq: u64,
    /// `echo.telemetry.published` — records put on the wire.
    published: Arc<Counter>,
    /// `echo.telemetry.bytes` — encoded telemetry payload bytes.
    bytes: Arc<Counter>,
}

impl Publisher {
    /// A publisher reporting [`SAMPLED`], each counter baselined at its
    /// current value.
    pub fn new(
        registry: &Registry,
        proc: usize,
        channel: ChannelId,
        period_ns: u64,
        now_ns: u64,
    ) -> Publisher {
        let sampled = SAMPLED
            .iter()
            .map(|&name| {
                let counter = registry.counter(name);
                let seen = counter.get();
                (name, counter, seen)
            })
            .collect();
        Publisher {
            proc,
            channel,
            format: telemetry_format_v2(),
            period_ns: period_ns.max(1),
            sampled,
            last_at_ns: now_ns,
            seq: 0,
            published: registry.counter("echo.telemetry.published"),
            bytes: registry.counter("echo.telemetry.bytes"),
        }
    }

    /// The record to publish, if the reporting period has elapsed. Firing
    /// requires virtual time to advance, so a quiescent system emits
    /// nothing.
    pub fn poll(&mut self, now_ns: u64, queue_depth: i64) -> Option<Value> {
        if now_ns < self.last_at_ns.saturating_add(self.period_ns) {
            return None;
        }
        let sample = |(name, handle, last): &mut (&str, Arc<Counter>, u64)| {
            let v = handle.get();
            (name.to_string(), v.saturating_sub(std::mem::replace(last, v)))
        };
        let delta = SnapshotDelta {
            elapsed_ns: now_ns.saturating_sub(self.last_at_ns),
            counters: self.sampled.iter_mut().map(sample).collect(),
            gauges: Vec::new(),
            histogram_counts: Vec::new(),
        };
        self.last_at_ns = now_ns;
        self.seq += 1;
        let value = telemetry_value(self.seq, now_ns, queue_depth, &delta);
        if let Ok(encoded) = Encoder::new(&self.format).encode(&value) {
            self.bytes.add(encoded.len() as u64);
        }
        self.published.inc();
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_value_matches_the_v2_format() {
        let reg = Registry::new();
        reg.counter("echo.events.published").add(10);
        reg.counter("echo.events.delivered").add(9);
        reg.counter("echo.queue.shed").inc();
        let before = Registry::new().snapshot();
        let delta = reg.snapshot().delta(&before);
        let v = telemetry_value(3, 1_000, 5, &delta);
        let fmt = telemetry_format_v2();
        // Encodes cleanly, and the fields land where the format says.
        let bytes = pbio::Encoder::new(&fmt).encode(&v).expect("encodes");
        assert!(!bytes.is_empty());
        assert_eq!(v.field(&fmt, "published").and_then(Value::as_i64), Some(10));
        assert_eq!(v.field(&fmt, "queue_depth").and_then(Value::as_i64), Some(5));
    }

    #[test]
    fn a_never_period_never_fires() {
        let reg = Registry::new();
        let mut publisher = Publisher::new(&reg, 0, ChannelId(1), u64::MAX, 1_000);
        assert_eq!(publisher.poll(2_000, 0), None);
        assert_eq!(publisher.poll(u64::MAX - 1, 0), None);
        assert_eq!(reg.snapshot().counter("echo.telemetry.published"), Some(0));
    }

    #[test]
    fn v1_is_a_strict_field_prefix_of_v2() {
        let v1 = telemetry_format_v1();
        let v2 = telemetry_format_v2();
        assert_eq!(v1.name(), v2.name());
        for f in v1.fields() {
            assert!(
                v2.fields().iter().any(|g| g.name() == f.name() && g.ty() == f.ty()),
                "v1 field {} missing from v2",
                f.name()
            );
        }
        assert!(v2.fields().len() > v1.fields().len());
    }
}
