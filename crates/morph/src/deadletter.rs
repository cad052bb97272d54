//! Bounded dead-letter queue: graceful degradation for messages that
//! cannot be delivered.
//!
//! The paper's morphing receiver widens the compatibility space, but some
//! messages remain beyond saving — damaged in flight, referencing
//! meta-data nobody can supply, or failing their transformation. Erroring
//! the subscriber for each one turns a lossy network into an unusable
//! application; silently discarding them hides real faults. A
//! [`DeadLetterQueue`] is the middle road: quarantine the raw bytes with a
//! [`DeadReason`], count every admission in the observability registry,
//! and keep memory bounded by evicting the oldest entry when full (the
//! counters still record the true totals).

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use obs::{Counter, Registry, SpanEvent, TraceId};
use pbio::WireBytes;

use crate::error::MorphError;

/// Why a message was quarantined instead of delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadReason {
    /// Damaged in flight (checksum mismatch); the bytes never reached a
    /// decoder.
    Corrupt,
    /// Structurally malformed (truncated frame or header).
    Malformed,
    /// Decoding failed: the bytes do not parse under their claimed format.
    Undecodable,
    /// The wire format's meta-data could not be obtained anywhere.
    Unresolvable,
    /// A transformation or adapter failed at delivery time.
    TransformFailed,
    /// A retry budget was exhausted before the message could be sent or
    /// resolved.
    RetryExhausted,
    /// Dropped by load shedding: a bounded queue or pending set was full
    /// and this message was the chosen victim (drop-oldest warm traffic).
    Shed,
    /// A fragmented message whose fragment set never completed: the
    /// reassembly timeout elapsed, or the bounded reassembly buffer
    /// evicted it (oldest-incomplete) to admit fresher traffic.
    PartialFragments,
    /// Lost to a process crash: volatile state (reassembly partials,
    /// queued retries) discarded when the owning process's crash window
    /// opened — amnesia semantics, not wire damage.
    CrashLost,
    /// Fenced at the receiver: the frame carried a sender epoch older
    /// than an incarnation the receiver has already resumed with, so
    /// delivering it could resurrect pre-crash state.
    StaleEpoch,
}

impl DeadReason {
    /// Stable lowercase label, used as the metric-name suffix
    /// (`<prefix>.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            DeadReason::Corrupt => "corrupt",
            DeadReason::Malformed => "malformed",
            DeadReason::Undecodable => "undecodable",
            DeadReason::Unresolvable => "unresolvable",
            DeadReason::TransformFailed => "transform_failed",
            DeadReason::RetryExhausted => "retry_exhausted",
            DeadReason::Shed => "shed",
            DeadReason::PartialFragments => "partial_fragments",
            DeadReason::CrashLost => "crash_lost",
            DeadReason::StaleEpoch => "stale_epoch",
        }
    }

    /// Every reason, in metric-catalogue order.
    pub const ALL: [DeadReason; 10] = [
        DeadReason::Corrupt,
        DeadReason::Malformed,
        DeadReason::Undecodable,
        DeadReason::Unresolvable,
        DeadReason::TransformFailed,
        DeadReason::RetryExhausted,
        DeadReason::Shed,
        DeadReason::PartialFragments,
        DeadReason::CrashLost,
        DeadReason::StaleEpoch,
    ];
}

impl fmt::Display for DeadReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One quarantined message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// Why delivery was impossible.
    pub reason: DeadReason,
    /// The raw bytes as received (before any decoding). A [`WireBytes`]
    /// view: quarantining a message *shares* the receive buffer instead of
    /// copying it, so a burst of failures costs reference counts, not
    /// allocations.
    pub bytes: WireBytes,
    /// Human-readable detail (the error text, typically).
    pub detail: String,
    /// The causal trace this message belonged to, when it carried one.
    pub trace: Option<TraceId>,
    /// The trace's recorded events at quarantine time — the message's whole
    /// observed journey (publish, hops, morphing stages) frozen alongside
    /// the bytes, so the ring buffer evicting the trace later does not
    /// orphan the post-mortem.
    pub events: Vec<SpanEvent>,
}

/// A bounded FIFO of [`DeadLetter`]s with per-reason counters.
///
/// Admissions beyond the capacity evict the oldest entry and count as
/// `<prefix>.overflow`; totals (`<prefix>.total`, per-reason) always
/// reflect every quarantined message, kept or evicted.
#[derive(Debug)]
pub struct DeadLetterQueue {
    capacity: usize,
    letters: VecDeque<DeadLetter>,
    total: Arc<Counter>,
    overflow: Arc<Counter>,
    by_reason: [Arc<Counter>; DeadReason::ALL.len()],
}

impl DeadLetterQueue {
    /// Creates a queue holding at most `capacity` letters, with counters
    /// `<prefix>.total`, `<prefix>.overflow`, and `<prefix>.<reason>` in
    /// `registry`.
    pub fn with_registry(capacity: usize, registry: &Registry, prefix: &str) -> DeadLetterQueue {
        DeadLetterQueue {
            capacity: capacity.max(1),
            letters: VecDeque::new(),
            total: registry.counter(&format!("{prefix}.total")),
            overflow: registry.counter(&format!("{prefix}.overflow")),
            by_reason: DeadReason::ALL
                .map(|r| registry.counter(&format!("{prefix}.{}", r.label()))),
        }
    }

    /// Creates a queue with a private registry (tests, simple setups).
    pub fn new(capacity: usize) -> DeadLetterQueue {
        DeadLetterQueue::with_registry(capacity, &Registry::new(), "morph.deadletter")
    }

    /// Quarantines a message. O(1); evicts the oldest letter when full.
    /// Passing an existing [`WireBytes`] (or a clone of one) is free of
    /// payload copies; `&[u8]` / `Vec<u8>` arguments are promoted to a
    /// fresh shared buffer.
    pub fn push(
        &mut self,
        reason: DeadReason,
        bytes: impl Into<WireBytes>,
        detail: impl Into<String>,
    ) {
        self.push_traced(reason, bytes, detail, None, Vec::new());
    }

    /// Quarantines a message along with its causal-trace context: the
    /// trace id it travelled under and a snapshot of that trace's events
    /// (typically `recorder.trace_events(trace)` taken right after the
    /// failure was recorded). Eviction when full behaves as in
    /// [`DeadLetterQueue::push`].
    pub fn push_traced(
        &mut self,
        reason: DeadReason,
        bytes: impl Into<WireBytes>,
        detail: impl Into<String>,
        trace: Option<TraceId>,
        events: Vec<SpanEvent>,
    ) {
        self.total.inc();
        let idx = DeadReason::ALL.iter().position(|&r| r == reason).unwrap_or(0);
        self.by_reason[idx].inc();
        if self.letters.len() == self.capacity {
            self.letters.pop_front();
            self.overflow.inc();
        }
        self.letters.push_back(DeadLetter {
            reason,
            bytes: bytes.into(),
            detail: detail.into(),
            trace,
            events,
        });
    }

    /// Letters currently held (oldest first).
    pub fn letters(&self) -> impl Iterator<Item = &DeadLetter> {
        self.letters.iter()
    }

    /// Number of letters currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// True when nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }

    /// Total messages ever quarantined (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total.get()
    }

    /// Letters evicted because the queue was full (`total - retained`).
    pub fn overflow(&self) -> u64 {
        self.overflow.get()
    }

    /// Messages quarantined for `reason` (including evicted ones).
    pub fn count(&self, reason: DeadReason) -> u64 {
        let idx = DeadReason::ALL.iter().position(|&r| r == reason).unwrap_or(0);
        self.by_reason[idx].get()
    }

    /// Removes and returns the oldest letter (for reprocessing).
    pub fn pop(&mut self) -> Option<DeadLetter> {
        self.letters.pop_front()
    }
}

/// Classifies a processing failure into the [`DeadReason`] it should be
/// quarantined under.
pub fn reason_for(err: &MorphError) -> DeadReason {
    match err {
        MorphError::Pbio(_) => DeadReason::Undecodable,
        MorphError::UnknownWireFormat(_) => DeadReason::Unresolvable,
        MorphError::Unavailable(_) => DeadReason::Unresolvable,
        MorphError::RetryExhausted(_) => DeadReason::RetryExhausted,
        _ => DeadReason::TransformFailed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_with_overflow_accounting() {
        let mut dlq = DeadLetterQueue::new(2);
        dlq.push(DeadReason::Corrupt, b"a", "1");
        dlq.push(DeadReason::Corrupt, b"b", "2");
        dlq.push(DeadReason::Undecodable, b"c", "3");
        assert_eq!(dlq.len(), 2, "capacity enforced");
        assert_eq!(dlq.total(), 3, "totals count evicted letters");
        assert_eq!(dlq.count(DeadReason::Corrupt), 2);
        assert_eq!(dlq.count(DeadReason::Undecodable), 1);
        // Oldest was evicted.
        assert_eq!(dlq.pop().unwrap().bytes, b"b");
        assert_eq!(dlq.pop().unwrap().reason, DeadReason::Undecodable);
        assert!(dlq.is_empty());
    }

    #[test]
    fn overflow_evicts_strictly_oldest_first() {
        let mut dlq = DeadLetterQueue::new(3);
        for i in 0u8..10 {
            dlq.push(DeadReason::Corrupt, &[i], format!("m{i}"));
        }
        // The three newest survive, in admission order.
        let kept: Vec<u8> = dlq.letters().map(|l| l.bytes[0]).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        // pop() drains in the same oldest-first order.
        assert_eq!(dlq.pop().unwrap().detail, "m7");
        assert_eq!(dlq.pop().unwrap().detail, "m8");
        assert_eq!(dlq.pop().unwrap().detail, "m9");
        assert!(dlq.pop().is_none());
    }

    #[test]
    fn overflow_accounting_stays_consistent() {
        let mut dlq = DeadLetterQueue::new(4);
        assert_eq!(dlq.overflow(), 0);
        for i in 0u8..11 {
            dlq.push(DeadReason::TransformFailed, &[i], "x");
            // Invariant after every push: everything admitted is either
            // retained or counted as overflow.
            assert_eq!(dlq.total(), dlq.overflow() + dlq.len() as u64);
            assert!(dlq.len() <= 4);
        }
        assert_eq!(dlq.total(), 11);
        assert_eq!(dlq.len(), 4);
        assert_eq!(dlq.overflow(), 7);
        // Popping releases letters without disturbing the counters.
        dlq.pop();
        assert_eq!(dlq.total(), 11);
        assert_eq!(dlq.overflow(), 7);
        assert_eq!(dlq.len(), 3);
    }

    #[test]
    fn capacity_floor_is_one_letter() {
        let mut dlq = DeadLetterQueue::new(0);
        dlq.push(DeadReason::Malformed, b"a", "first");
        dlq.push(DeadReason::Malformed, b"b", "second");
        assert_eq!(dlq.len(), 1, "zero capacity is clamped to one");
        assert_eq!(dlq.letters().next().unwrap().detail, "second");
        assert_eq!(dlq.overflow(), 1);
        assert_eq!(dlq.total(), 2);
    }

    #[test]
    fn traced_letters_keep_their_context() {
        use obs::{FlightRecorder, VirtualClock};
        use std::sync::Arc as SArc;

        let clock = SArc::new(VirtualClock::new());
        let rec = SArc::new(FlightRecorder::new(16, clock));
        let trace = rec.next_trace_id();
        let span = rec.start(trace, None, "echo.handle");
        span.finish();

        let mut dlq = DeadLetterQueue::new(4);
        dlq.push_traced(
            DeadReason::Undecodable,
            b"bad",
            "decode failed",
            Some(trace),
            rec.trace_events(trace),
        );
        let letter = dlq.letters().next().unwrap();
        assert_eq!(letter.trace, Some(trace));
        assert_eq!(letter.events.len(), 1);
        assert_eq!(letter.events[0].name, "echo.handle");
        // Untraced pushes leave the context empty.
        dlq.push(DeadReason::Corrupt, b"x", "no trace");
        assert_eq!(dlq.letters().last().unwrap().trace, None);
    }

    #[test]
    fn quarantine_shares_the_receive_buffer_without_copying() {
        // A letter built from an existing WireBytes must alias the same
        // allocation — quarantining is a refcount bump, not a payload copy.
        let original = WireBytes::from(vec![1u8, 2, 3, 4]);
        assert_eq!(original.ref_count(), 1);

        let mut dlq = DeadLetterQueue::new(4);
        dlq.push(DeadReason::TransformFailed, original.clone(), "vm trap");
        assert_eq!(original.ref_count(), 2, "push added a reference, not a copy");

        let letter = dlq.pop().unwrap();
        assert!(letter.bytes.same_buffer(&original), "letter aliases the receive buffer");
        assert_eq!(letter.bytes, original);

        // Cloning the letter (e.g. for inspection tooling) still copies no
        // payload bytes.
        let inspected = letter.clone();
        assert!(inspected.bytes.same_buffer(&original));
        assert_eq!(original.ref_count(), 3);
        drop((letter, inspected));
        assert_eq!(original.ref_count(), 1);
    }

    #[test]
    fn registry_counters_mirror_reasons() {
        let reg = Registry::new();
        let mut dlq = DeadLetterQueue::with_registry(8, &reg, "test.dlq");
        dlq.push(DeadReason::Malformed, b"x", "short");
        dlq.push(DeadReason::Malformed, b"y", "short");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("test.dlq.total"), Some(2));
        assert_eq!(snap.counter("test.dlq.malformed"), Some(2));
        assert_eq!(snap.counter("test.dlq.overflow"), Some(0));
    }
}
