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

use obs::{Counter, Registry};
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

/// The counters every record reports, in record-field order.
const SAMPLED: [&str; 3] = ["echo.events.published", "echo.events.delivered", "echo.queue.shed"];

/// Builds one v2 telemetry record: a reporting period's deltas of the
/// [`SAMPLED`] counters, in their order, and the queue depth at `at_ns`.
fn telemetry_value(
    seq: u64,
    at_ns: u64,
    elapsed_ns: u64,
    deltas: [u64; SAMPLED.len()],
    queue_depth: i64,
) -> Value {
    let [published, delivered, shed] = deltas.map(long);
    Value::Record(vec![
        long(seq),
        long(at_ns),
        long(elapsed_ns),
        published,
        delivered,
        shed,
        Value::Int(queue_depth),
    ])
}

/// The periodic self-telemetry publisher: decides when a record is due
/// and builds it; the system puts it on the channel.
pub(crate) struct Publisher {
    pub proc: usize,
    pub channel: ChannelId,
    /// The v2 record format, built once — rebuilding it per report would
    /// defeat every pointer-keyed cache downstream of `publish`.
    pub format: Arc<RecordFormat>,
    period_ns: u64,
    /// The [`SAMPLED`] counters as live handles, each with the value seen
    /// at the last report: the period's deltas without a registry
    /// snapshot (every histogram cloned per period).
    sampled: [(Arc<Counter>, u64); SAMPLED.len()],
    /// The encoded length of every record: all its fields are `long`s,
    /// so each record encodes to the same bytes (72: the 16-byte PBIO
    /// header and seven 8-byte fields).
    record_len: u64,
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
        let format = telemetry_format_v2();
        let zero = telemetry_value(0, 0, 0, [0; SAMPLED.len()], 0);
        let record = Encoder::new(&format).encode(&zero).expect("a telemetry record encodes");
        Publisher {
            proc,
            channel,
            format,
            period_ns: period_ns.max(1),
            sampled: SAMPLED.map(|name| {
                let counter = registry.counter(name);
                let seen = counter.get();
                (counter, seen)
            }),
            record_len: record.len() as u64,
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
        let deltas = self.sampled.each_mut().map(|(handle, last)| {
            let v = handle.get();
            v.saturating_sub(std::mem::replace(last, v))
        });
        let elapsed_ns = now_ns.saturating_sub(self.last_at_ns);
        self.last_at_ns = now_ns;
        self.seq += 1;
        self.bytes.add(self.record_len);
        self.published.inc();
        Some(telemetry_value(self.seq, now_ns, elapsed_ns, deltas, queue_depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_value_matches_the_v2_format() {
        let v = telemetry_value(3, 1_000, 400, [10, 9, 1], 5);
        let fmt = telemetry_format_v2();
        // Encodes cleanly, to the fixed record length, and the fields land
        // where the format says.
        let bytes = pbio::Encoder::new(&fmt).encode(&v).expect("encodes");
        assert_eq!(bytes.len(), pbio::HEADER_LEN + 7 * 8);
        let field = |name| v.field(&fmt, name).and_then(Value::as_i64);
        let fields =
            ["seq", "at_ns", "elapsed_ns", "published", "delivered", "shed", "queue_depth"];
        assert_eq!(fields.map(field), [3, 1_000, 400, 10, 9, 1, 5].map(Some));
    }

    #[test]
    fn a_record_reports_the_period_deltas_and_counts_its_fixed_length() {
        let reg = Registry::new();
        reg.counter("echo.events.published").add(4);
        let mut publisher = Publisher::new(&reg, 0, ChannelId(1), 100, 1_000);
        reg.counter("echo.events.published").add(10);
        reg.counter("echo.events.delivered").add(9);
        reg.counter("echo.queue.shed").inc();
        let v = publisher.poll(1_150, 2).expect("a period elapsed");
        assert_eq!(v, telemetry_value(1, 1_150, 150, [10, 9, 1], 2));
        let v = publisher.poll(1_250, 0).expect("a period elapsed");
        assert_eq!(v, telemetry_value(2, 1_250, 100, [0, 0, 0], 0));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("echo.telemetry.published"), Some(2));
        assert_eq!(snap.counter("echo.telemetry.bytes"), Some(2 * 72));
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
