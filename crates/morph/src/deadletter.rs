//! Bounded dead-letter queue: graceful degradation for messages that
//! cannot be delivered.
//!
//! The paper's morphing receiver widens the compatibility space, but some
//! messages remain beyond saving — damaged in flight, referencing
//! meta-data nobody can supply, or failing their transformation. Erroring
//! the subscriber for each one turns a lossy network into an unusable
//! application; silently discarding them hides real faults. A
//! [`DeadLetterQueue`] is the middle road: quarantine the raw bytes with a
//! [`DeadReason`], count every admission, and keep memory bounded by
//! evicting the oldest entry when full (the total still counts every
//! letter). Per-reason counts are the caller's books: `echo` keeps them
//! system-wide (`echo.deadletter.*`), where the letter is filed.

use obs::{SpanEvent, TraceId};
use pbio::WireBytes;
use std::collections::VecDeque;
use std::fmt;

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
    /// Dropped by load shedding: a bounded queue was full and this message
    /// was the chosen victim (drop-oldest warm traffic).
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
    /// Stable lowercase label, used as a metric-name suffix
    /// (`echo.deadletter.<label>`).
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

/// A bounded FIFO of [`DeadLetter`]s and the count of every letter ever
/// admitted.
///
/// Admissions beyond the capacity evict the oldest entry; [`total`]
/// counts every quarantined message, kept or evicted, so the letters
/// evicted are `total()` less the letters held.
///
/// [`total`]: DeadLetterQueue::total
#[derive(Debug)]
pub struct DeadLetterQueue {
    capacity: usize,
    letters: VecDeque<DeadLetter>,
    total: u64,
}

impl DeadLetterQueue {
    /// Creates a queue holding at most `capacity` letters (at least one).
    pub fn new(capacity: usize) -> DeadLetterQueue {
        DeadLetterQueue { capacity: capacity.max(1), letters: VecDeque::new(), total: 0 }
    }

    /// Quarantines a message along with its causal-trace context: the
    /// trace id it travelled under and a snapshot of that trace's events
    /// (typically `recorder.trace_events(trace)` taken right after the
    /// failure was recorded). O(1); evicts the oldest letter when full.
    /// Passing an existing [`WireBytes`] (or a clone of one) is free of
    /// payload copies; `&[u8]` / `Vec<u8>` arguments are promoted to a
    /// fresh shared buffer.
    pub fn push_traced(
        &mut self,
        reason: DeadReason,
        bytes: impl Into<WireBytes>,
        detail: impl Into<String>,
        trace: Option<TraceId>,
        events: Vec<SpanEvent>,
    ) {
        self.total += 1;
        if self.letters.len() == self.capacity {
            self.letters.pop_front();
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

    /// Total messages ever quarantined (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Classifies a processing failure into the [`DeadReason`] it should be
/// quarantined under.
pub fn reason_for(err: &MorphError) -> DeadReason {
    match err {
        MorphError::Pbio(_) => DeadReason::Undecodable,
        MorphError::UnknownWireFormat(_) => DeadReason::Unresolvable,
        MorphError::RetryExhausted(_) => DeadReason::RetryExhausted,
        _ => DeadReason::TransformFailed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quarantines a message that travelled under no trace.
    fn push(
        dlq: &mut DeadLetterQueue,
        reason: DeadReason,
        bytes: impl Into<WireBytes>,
        detail: impl Into<String>,
    ) {
        dlq.push_traced(reason, bytes, detail, None, Vec::new());
    }

    fn held(dlq: &DeadLetterQueue) -> usize {
        dlq.letters().count()
    }

    #[test]
    fn bounded_with_overflow_accounting() {
        let mut dlq = DeadLetterQueue::new(2);
        push(&mut dlq, DeadReason::Corrupt, b"a", "1");
        push(&mut dlq, DeadReason::Corrupt, b"b", "2");
        push(&mut dlq, DeadReason::Undecodable, b"c", "3");
        assert_eq!(held(&dlq), 2, "capacity enforced");
        assert_eq!(dlq.total(), 3, "totals count evicted letters");
        // Oldest was evicted.
        let kept: Vec<_> = dlq.letters().map(|l| (l.reason, l.bytes.clone())).collect();
        assert_eq!(kept[0], (DeadReason::Corrupt, b"b".into()));
        assert_eq!(kept[1], (DeadReason::Undecodable, b"c".into()));
        assert_eq!(held(&DeadLetterQueue::new(2)), 0);
    }

    #[test]
    fn overflow_evicts_strictly_oldest_first() {
        let mut dlq = DeadLetterQueue::new(3);
        for i in 0u8..10 {
            push(&mut dlq, DeadReason::Corrupt, &[i], format!("m{i}"));
        }
        // The three newest survive, in admission order.
        let kept: Vec<u8> = dlq.letters().map(|l| l.bytes[0]).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        let details: Vec<&str> = dlq.letters().map(|l| l.detail.as_str()).collect();
        assert_eq!(details, ["m7", "m8", "m9"]);
    }

    #[test]
    fn overflow_accounting_stays_consistent() {
        let mut dlq = DeadLetterQueue::new(4);
        assert_eq!((dlq.total(), held(&dlq)), (0, 0));
        for i in 0u8..11 {
            push(&mut dlq, DeadReason::TransformFailed, &[i], "x");
            // Invariant after every push: everything admitted is counted,
            // the newest `capacity` letters are retained, and the rest —
            // `total - len` — were evicted oldest first.
            assert_eq!(dlq.total(), u64::from(i) + 1);
            assert_eq!(held(&dlq), usize::from(i + 1).min(4));
            let oldest = dlq.letters().next().unwrap().bytes[0];
            assert_eq!(u64::from(oldest), dlq.total() - held(&dlq) as u64);
        }
        assert_eq!(dlq.total(), 11);
        assert_eq!(held(&dlq), 4);
        assert_eq!(dlq.total() - held(&dlq) as u64, 7);
    }

    #[test]
    fn capacity_floor_is_one_letter() {
        let mut dlq = DeadLetterQueue::new(0);
        push(&mut dlq, DeadReason::Malformed, b"a", "first");
        push(&mut dlq, DeadReason::Malformed, b"b", "second");
        assert_eq!(held(&dlq), 1, "zero capacity is clamped to one");
        assert_eq!(dlq.letters().next().unwrap().detail, "second");
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
        push(&mut dlq, DeadReason::Corrupt, b"x", "no trace");
        assert_eq!(dlq.letters().last().unwrap().trace, None);
    }

    #[test]
    fn quarantine_shares_the_receive_buffer_without_copying() {
        // A letter built from an existing WireBytes must alias the same
        // allocation — quarantining is a refcount bump, not a payload copy.
        let original = WireBytes::from(vec![1u8, 2, 3, 4]);
        assert_eq!(original.ref_count(), 1);

        let mut dlq = DeadLetterQueue::new(4);
        push(&mut dlq, DeadReason::TransformFailed, original.clone(), "vm trap");
        assert_eq!(original.ref_count(), 2, "push added a reference, not a copy");

        let letter = dlq.letters().next().unwrap().clone();
        drop(dlq);
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
}
