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

/// The current (v2) telemetry record: v1's fields plus the queue-depth
/// gauge and the adaptive-shedding decision counters this PR introduces.
/// The name is unchanged — v1 collectors morph v2 records on receipt, no
/// renegotiation, exactly as the paper's evolving exchanges do.
pub fn telemetry_format_v2() -> Arc<RecordFormat> {
    FormatBuilder::record("EchoTelemetry")
        .long("seq")
        .long("at_ns")
        .long("elapsed_ns")
        .long("published")
        .long("delivered")
        .long("shed")
        .long("queue_depth")
        .long("adapt_tightened")
        .long("adapt_relaxed")
        .build_arc()
        .expect("static telemetry format")
}

/// Clamps a u64 sample into the record's signed `long` field.
fn long(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Builds one v2 telemetry record from a reporting period's registry
/// delta. Counters absent from the delta (e.g. adaptive shedding never
/// enabled) report zero.
pub fn telemetry_value(seq: u64, at_ns: u64, queue_depth: i64, delta: &SnapshotDelta) -> Value {
    let c = |name: &str| long(delta.counter(name).unwrap_or(0));
    let adapt = |suffix: &str| {
        long(
            super::adaptive::ADAPT_QUEUE_LABELS
                .iter()
                .filter_map(|q| delta.counter(&format!("echo.adaptive.{q}.{suffix}")))
                .sum(),
        )
    };
    Value::Record(vec![
        long(seq),
        long(at_ns),
        long(delta.elapsed_ns),
        c("echo.events.published"),
        c("echo.events.delivered"),
        c("echo.queue.shed"),
        Value::Int(queue_depth),
        adapt("tightened"),
        adapt("relaxed"),
    ])
}

/// The counters every record reports, and the adaptive decision counters
/// that join them only once adaptive shedding created them — sampling
/// those earlier would put them in every system's registry catalogue.
const SAMPLED: [&str; 3] = ["echo.events.delivered", "echo.events.published", "echo.queue.shed"];
pub(crate) const SAMPLED_ADAPTIVE: [&str; 6] = [
    "echo.adaptive.ingress.relaxed",
    "echo.adaptive.ingress.tightened",
    "echo.adaptive.mailbox.relaxed",
    "echo.adaptive.mailbox.tightened",
    "echo.adaptive.retry.relaxed",
    "echo.adaptive.retry.tightened",
];

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
    pub fn new(
        registry: &Registry,
        proc: usize,
        channel: ChannelId,
        period_ns: u64,
        now_ns: u64,
    ) -> Publisher {
        let mut publisher = Publisher {
            proc,
            channel,
            format: telemetry_format_v2(),
            period_ns: period_ns.max(1),
            sampled: Vec::new(),
            last_at_ns: now_ns,
            seq: 0,
            published: registry.counter("echo.telemetry.published"),
            bytes: registry.counter("echo.telemetry.bytes"),
        };
        publisher.sample(registry, &SAMPLED);
        publisher
    }

    /// Starts reporting the named counters, baselined at their current
    /// values; counters already sampled keep their baselines.
    pub fn sample(&mut self, registry: &Registry, names: &[&'static str]) {
        for &name in names {
            if !self.sampled.iter().any(|(n, _, _)| *n == name) {
                let counter = registry.counter(name);
                let seen = counter.get();
                self.sampled.push((name, counter, seen));
            }
        }
        self.sampled.sort_unstable_by_key(|&(n, _, _)| n);
    }

    /// The record to publish, if the reporting period has elapsed. Firing
    /// requires virtual time to advance, so a quiescent system emits
    /// nothing.
    pub fn poll(&mut self, now_ns: u64, queue_depth: i64) -> Option<Value> {
        if now_ns < self.last_at_ns + self.period_ns {
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
        reg.counter("echo.adaptive.retry.tightened").add(2);
        reg.counter("echo.adaptive.ingress.tightened").add(1);
        let before = Registry::new().snapshot();
        let delta = reg.snapshot().delta(&before);
        let v = telemetry_value(3, 1_000, 5, &delta);
        let fmt = telemetry_format_v2();
        // Encodes cleanly, and the fields land where the format says.
        let bytes = pbio::Encoder::new(&fmt).encode(&v).expect("encodes");
        assert!(!bytes.is_empty());
        assert_eq!(v.field(&fmt, "published").and_then(Value::as_i64), Some(10));
        assert_eq!(v.field(&fmt, "queue_depth").and_then(Value::as_i64), Some(5));
        assert_eq!(v.field(&fmt, "adapt_tightened").and_then(Value::as_i64), Some(3));
        assert_eq!(v.field(&fmt, "adapt_relaxed").and_then(Value::as_i64), Some(0));
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
