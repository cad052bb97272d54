//! Message fragmentation and bounded reassembly.
//!
//! Events larger than a configured frame budget cannot traverse a lossy
//! (or MTU-limited) wire in one piece, so the publisher splits the encoded
//! payload into numbered fragments — zero-copy [`WireBytes`] views of the
//! original buffer — and every fragment travels as its own CRC-framed,
//! individually dedup-able frame sharing the message's sequence number.
//! The receiver collects fragments in a per-channel [`ReassemblyBuffer`]
//! that is *bounded* two ways: by entry capacity (inserting past it evicts
//! the oldest incomplete set) and by a virtual-clock timeout (a sweep
//! removes sets whose first fragment has waited too long). Either way a
//! removed partial set is surfaced to the caller as a [`PartialSet`] so it
//! can be dead-lettered with `DeadReason::PartialFragments` — a partial
//! message is never silently forgotten and never delivered.

use std::collections::VecDeque;

use pbio::WireBytes;

/// Maximum fragments one message may split into — the wire carries the
/// index and count as `u16`.
pub const MAX_FRAGMENTS: usize = u16::MAX as usize;

/// One fragment of a split message: its position in the set and a
/// zero-copy view of the payload slice it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Position in the set, `0..count`.
    pub index: u16,
    /// Total fragments in the set (≥ 1).
    pub count: u16,
    /// This fragment's payload slice.
    pub bytes: WireBytes,
}

/// Splits `payload` into `ceil(len / budget)` fragments of at most
/// `budget` bytes each, as slice views sharing the payload's buffer (no
/// byte is copied). A zero-length payload still yields one (empty)
/// fragment so the message exists on the wire; a `budget` of 0 is treated
/// as 1. Returns `None` when the split would need more than
/// [`MAX_FRAGMENTS`] pieces.
pub fn split_message(payload: &WireBytes, budget: usize) -> Option<Vec<Fragment>> {
    let budget = budget.max(1);
    let len = payload.len();
    let count = if len == 0 { 1 } else { len.div_ceil(budget) };
    if count > MAX_FRAGMENTS {
        return None;
    }
    Some(
        (0..count)
            .map(|i| Fragment {
                index: i as u16,
                count: count as u16,
                bytes: payload.slice(i * budget..len.min((i + 1) * budget)),
            })
            .collect(),
    )
}

/// What [`ReassemblyBuffer::offer`] did with a fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Offer {
    /// The fragment completed its set: the reassembled payload (the one
    /// copy fragmentation costs, made here at completion).
    Complete(WireBytes),
    /// Buffered; the set is still missing fragments.
    Buffered,
    /// The set already holds this index — a duplicated fragment.
    DuplicatePart,
    /// The fragment contradicts its set (a different count than first
    /// seen, or an index at or past the count) and was discarded.
    Mismatch,
}

/// A partial fragment set removed from a [`ReassemblyBuffer`] before
/// completing — by timeout, capacity eviction, or a newest-wins purge.
#[derive(Debug, Clone)]
pub struct PartialSet {
    /// Sending node id.
    pub sender: u64,
    /// Message sequence number shared by the set.
    pub seq: u64,
    /// Fragments that had arrived.
    pub received: u16,
    /// Fragments the set needed.
    pub count: u16,
    /// Trace id peeked off the first-received fragment, if any.
    pub trace: Option<u64>,
    /// The first-received fragment's whole frame — what a dead letter
    /// quarantines as the evidence of the lost message.
    pub frame: WireBytes,
    /// Virtual time the first fragment arrived.
    pub first_at_ns: u64,
}

/// One in-progress fragment set. Its memory follows what arrived, not what
/// the first fragment claimed: the parts received, in arrival order, and a
/// bitmap of `count` bits saying which indices those are.
#[derive(Debug)]
struct Entry {
    sender: u64,
    seq: u64,
    count: u16,
    parts: Vec<(u16, WireBytes)>,
    seen: Vec<u64>,
    first_at_ns: u64,
    trace: Option<u64>,
    frame: WireBytes,
}

impl Entry {
    fn received(&self) -> u16 {
        // At most `count` parts, a `u16`.
        self.parts.len() as u16
    }

    /// Marks `index` as received; false when it already was.
    fn mark(&mut self, index: u16) -> bool {
        let (word, bit) = (usize::from(index / 64), 1u64 << (index % 64));
        let fresh = self.seen[word] & bit == 0;
        self.seen[word] |= bit;
        fresh
    }

    fn into_partial(self) -> PartialSet {
        PartialSet {
            sender: self.sender,
            seq: self.seq,
            received: self.received(),
            count: self.count,
            trace: self.trace,
            frame: self.frame,
            first_at_ns: self.first_at_ns,
        }
    }
}

/// A bounded store of in-progress fragment sets for one channel, keyed by
/// `(sender, seq)`. Entries stay in arrival order (oldest first), which
/// makes both bounds deterministic: capacity eviction removes the front
/// (oldest incomplete) entry, and the timeout sweep pops expired entries
/// from the front.
#[derive(Debug)]
pub struct ReassemblyBuffer {
    capacity: usize,
    timeout_ns: u64,
    entries: VecDeque<Entry>,
}

impl ReassemblyBuffer {
    /// An empty buffer holding at most `capacity` in-progress sets (floor
    /// 1), expiring sets whose first fragment is `timeout_ns` old.
    pub fn new(capacity: usize, timeout_ns: u64) -> ReassemblyBuffer {
        ReassemblyBuffer { capacity: capacity.max(1), timeout_ns, entries: VecDeque::new() }
    }

    /// Re-bounds the buffer. A shrunken capacity takes effect on the next
    /// insert; a shortened timeout on the next sweep.
    pub fn set_limits(&mut self, capacity: usize, timeout_ns: u64) {
        self.capacity = capacity.max(1);
        self.timeout_ns = timeout_ns;
    }

    /// In-progress sets currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no set is in progress.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offers one fragment of message `(sender, seq)` arriving at
    /// `now_ns`. `frame` is the fragment's whole frame, retained for the
    /// first fragment of each set as dead-letter evidence; `trace` is its
    /// peeked trace id. Returns what happened to the fragment plus any
    /// partial sets evicted to admit a new one (oldest incomplete first) —
    /// the caller must dead-letter those.
    pub fn offer(
        &mut self,
        sender: u64,
        seq: u64,
        frag: Fragment,
        frame: WireBytes,
        trace: Option<u64>,
        now_ns: u64,
    ) -> (Offer, Vec<PartialSet>) {
        if frag.count <= 1 {
            // Degenerate single-fragment set: nothing to buffer.
            return (Offer::Complete(frag.bytes), Vec::new());
        }
        if frag.index >= frag.count {
            return (Offer::Mismatch, Vec::new());
        }
        if let Some(pos) = self.entries.iter().position(|e| e.sender == sender && e.seq == seq) {
            let entry = &mut self.entries[pos];
            if frag.count != entry.count {
                return (Offer::Mismatch, Vec::new());
            }
            if !entry.mark(frag.index) {
                return (Offer::DuplicatePart, Vec::new());
            }
            entry.parts.push((frag.index, frag.bytes));
            if entry.received() == entry.count {
                let mut done = self.entries.remove(pos).expect("position just found");
                // Every index below `count` arrived once: sorted, they are
                // the message in order.
                done.parts.sort_unstable_by_key(|&(index, _)| index);
                let total = done.parts.iter().map(|(_, part)| part.len()).sum();
                let mut payload = Vec::with_capacity(total);
                for (_, part) in &done.parts {
                    payload.extend_from_slice(part);
                }
                return (Offer::Complete(WireBytes::from(payload)), Vec::new());
            }
            return (Offer::Buffered, Vec::new());
        }
        // New set: evict the oldest incomplete entries to stay in bound.
        let mut evicted = Vec::new();
        while self.entries.len() >= self.capacity {
            let oldest = self.entries.pop_front().expect("len checked above");
            evicted.push(oldest.into_partial());
        }
        let mut entry = Entry {
            sender,
            seq,
            count: frag.count,
            parts: vec![(frag.index, frag.bytes)],
            seen: vec![0; usize::from(frag.count).div_ceil(64)],
            first_at_ns: now_ns,
            trace,
            frame,
        };
        entry.mark(frag.index);
        self.entries.push_back(entry);
        (Offer::Buffered, evicted)
    }

    /// Removes and returns every set whose first fragment arrived
    /// `timeout_ns` or more before `now_ns`, oldest first. The caller
    /// dead-letters them as partial fragment sets.
    pub fn sweep(&mut self, now_ns: u64) -> Vec<PartialSet> {
        let mut expired = Vec::new();
        while let Some(front) = self.entries.front() {
            if now_ns.saturating_sub(front.first_at_ns) < self.timeout_ns {
                break;
            }
            expired.push(self.entries.pop_front().expect("front just seen").into_partial());
        }
        expired
    }

    /// Newest-wins purge for sequenced channels: removes every in-progress
    /// set from `sender` with a seq strictly below `seq` (a newer message
    /// has superseded them). Returns the purged sets so the caller can
    /// count them as stale — they are policy drops, not dead letters.
    pub fn purge_below(&mut self, sender: u64, seq: u64) -> Vec<PartialSet> {
        let mut purged = Vec::new();
        let mut kept = VecDeque::with_capacity(self.entries.len());
        for entry in self.entries.drain(..) {
            if entry.sender == sender && entry.seq < seq {
                purged.push(entry.into_partial());
            } else {
                kept.push_back(entry);
            }
        }
        self.entries = kept;
        purged
    }

    /// Crash amnesia: removes and returns every in-progress set, oldest
    /// first. The caller dead-letters them as crash-lost — a restarted
    /// process has no memory of the fragments it had buffered.
    pub fn drain_all(&mut self) -> Vec<PartialSet> {
        self.entries.drain(..).map(Entry::into_partial).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use simnet::XorShift64;

    use super::*;

    fn payload(n: usize) -> WireBytes {
        WireBytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn split_covers_the_payload_without_copying() {
        let p = payload(100);
        let frags = split_message(&p, 32).unwrap();
        assert_eq!(frags.len(), 4);
        assert!(frags.iter().all(|f| f.count == 4));
        assert_eq!(frags.iter().map(|f| f.bytes.len()).sum::<usize>(), 100);
        assert_eq!(frags[3].bytes.len(), 4);
        for f in &frags {
            assert!(f.bytes.same_buffer(&p), "fragments are views, not copies");
        }
        let rebuilt: Vec<u8> = frags.iter().flat_map(|f| f.bytes.to_vec()).collect();
        assert_eq!(rebuilt, p.to_vec());
    }

    #[test]
    fn split_edge_cases() {
        // Exactly one frame.
        let frags = split_message(&payload(32), 32).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!((frags[0].index, frags[0].count), (0, 1));
        // One byte over the budget.
        assert_eq!(split_message(&payload(33), 32).unwrap().len(), 2);
        // Zero-length payloads still travel as one empty fragment.
        let empty = split_message(&payload(0), 32).unwrap();
        assert_eq!(empty.len(), 1);
        assert!(empty[0].bytes.is_empty());
        // Budget 0 behaves as 1.
        assert_eq!(split_message(&payload(3), 0).unwrap().len(), 3);
        // Too many fragments for the u16 wire fields.
        assert!(split_message(&payload(MAX_FRAGMENTS + 1), 1).is_none());
    }

    fn offer_all(buf: &mut ReassemblyBuffer, seq: u64, frags: &[Fragment]) -> Option<WireBytes> {
        let mut done = None;
        for f in frags {
            let (offer, evicted) = buf.offer(1, seq, f.clone(), f.bytes.clone(), None, 0);
            assert!(evicted.is_empty());
            if let Offer::Complete(bytes) = offer {
                done = Some(bytes);
            }
        }
        done
    }

    #[test]
    fn out_of_order_fragments_reassemble_in_index_order() {
        let p = payload(70);
        let mut frags = split_message(&p, 32).unwrap();
        frags.reverse();
        let mut buf = ReassemblyBuffer::new(4, 1_000);
        let done = offer_all(&mut buf, 9, &frags).expect("set completes");
        assert_eq!(done.to_vec(), p.to_vec());
        assert!(buf.is_empty(), "completed sets leave the buffer");
    }

    #[test]
    fn duplicate_and_mismatched_fragments_are_rejected_without_corruption() {
        let p = payload(70);
        let frags = split_message(&p, 32).unwrap();
        let mut buf = ReassemblyBuffer::new(4, 1_000);
        let (first, _) = buf.offer(1, 9, frags[0].clone(), frags[0].bytes.clone(), None, 0);
        assert_eq!(first, Offer::Buffered);
        let (dup, _) = buf.offer(1, 9, frags[0].clone(), frags[0].bytes.clone(), None, 0);
        assert_eq!(dup, Offer::DuplicatePart);
        // A fragment claiming a different set size is discarded.
        let liar = Fragment { index: 1, count: 9, bytes: frags[1].bytes.clone() };
        let (bad, _) = buf.offer(1, 9, liar, frags[1].bytes.clone(), None, 0);
        assert_eq!(bad, Offer::Mismatch);
        // The honest remainder still completes the set correctly.
        let done = offer_all(&mut buf, 9, &frags[1..]).expect("set completes");
        assert_eq!(done.to_vec(), p.to_vec());
    }

    #[test]
    fn capacity_evicts_the_oldest_incomplete_set() {
        let mut buf = ReassemblyBuffer::new(2, 1_000_000);
        let p = payload(70);
        let frags = split_message(&p, 32).unwrap();
        for seq in 0..3u64 {
            let (_, evicted) =
                buf.offer(1, seq, frags[0].clone(), frags[0].bytes.clone(), None, seq);
            if seq < 2 {
                assert!(evicted.is_empty());
            } else {
                assert_eq!(evicted.len(), 1, "third set evicts the oldest");
                assert_eq!(evicted[0].seq, 0);
                assert_eq!((evicted[0].received, evicted[0].count), (1, 3));
            }
        }
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn sweep_expires_only_old_enough_sets() {
        let mut buf = ReassemblyBuffer::new(8, 100);
        let p = payload(70);
        let frags = split_message(&p, 32).unwrap();
        buf.offer(1, 0, frags[0].clone(), frags[0].bytes.clone(), Some(7), 0);
        buf.offer(1, 1, frags[0].clone(), frags[0].bytes.clone(), None, 60);
        assert!(buf.sweep(99).is_empty());
        let expired = buf.sweep(100);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].seq, 0);
        assert_eq!(expired[0].trace, Some(7));
        assert_eq!(buf.sweep(160).len(), 1, "the second set expires on its own clock");
        assert!(buf.is_empty());
    }

    #[test]
    fn purge_below_implements_newest_wins() {
        let mut buf = ReassemblyBuffer::new(8, 1_000_000);
        let p = payload(70);
        let frags = split_message(&p, 32).unwrap();
        for (sender, seq) in [(1u64, 5u64), (1, 9), (2, 3)] {
            buf.offer(sender, seq, frags[0].clone(), frags[0].bytes.clone(), None, 0);
        }
        let purged = buf.purge_below(1, 9);
        assert_eq!(purged.len(), 1, "only sender 1's older set goes");
        assert_eq!((purged[0].sender, purged[0].seq), (1, 5));
        assert_eq!(buf.len(), 2, "sender 1 seq 9 and sender 2 seq 3 survive");
    }

    /// The seed of [`buffer_matches_a_brute_force_model`]: `FRAG_SEED`, or
    /// a fixed one.
    fn seed() -> u64 {
        match std::env::var("FRAG_SEED") {
            Ok(v) => v.parse().unwrap_or_else(|_| panic!("FRAG_SEED {v:?} is not a u64")),
            Err(_) => 31,
        }
    }

    /// One set as the model keeps it: every part by index, in a map.
    struct ModelSet {
        sender: u64,
        seq: u64,
        count: u16,
        parts: BTreeMap<u16, Vec<u8>>,
        first_at_ns: u64,
        trace: Option<u64>,
        frame: Vec<u8>,
    }

    /// What the buffer promises, kept the slow way: sets in arrival order,
    /// each a map from index to bytes, scanned in full on every call.
    struct Model {
        capacity: usize,
        timeout_ns: u64,
        sets: Vec<ModelSet>,
    }

    /// A partial set as both sides report it.
    type Partial = (u64, u64, u16, u16, Option<u64>, Vec<u8>, u64);

    fn partial(p: &PartialSet) -> Partial {
        (p.sender, p.seq, p.received, p.count, p.trace, p.frame.to_vec(), p.first_at_ns)
    }

    fn model_partial(s: ModelSet) -> Partial {
        let received = s.parts.len() as u16;
        (s.sender, s.seq, received, s.count, s.trace, s.frame, s.first_at_ns)
    }

    /// An offer's outcome as both sides report it: the reassembled bytes
    /// of a completion, or the kind of any other outcome.
    fn outcome(offer: &Offer) -> (u8, Vec<u8>) {
        match offer {
            Offer::Complete(bytes) => (0, bytes.to_vec()),
            Offer::Buffered => (1, Vec::new()),
            Offer::DuplicatePart => (2, Vec::new()),
            Offer::Mismatch => (3, Vec::new()),
        }
    }

    impl Model {
        #[allow(clippy::too_many_arguments)]
        fn offer(
            &mut self,
            sender: u64,
            seq: u64,
            (index, count): (u16, u16),
            bytes: &[u8],
            frame: &[u8],
            trace: Option<u64>,
            now_ns: u64,
        ) -> ((u8, Vec<u8>), Vec<Partial>) {
            if count <= 1 {
                return ((0, bytes.to_vec()), Vec::new());
            }
            if index >= count {
                return ((3, Vec::new()), Vec::new());
            }
            if let Some(at) = self.sets.iter().position(|s| (s.sender, s.seq) == (sender, seq)) {
                let set = &mut self.sets[at];
                if set.count != count {
                    return ((3, Vec::new()), Vec::new());
                }
                if set.parts.contains_key(&index) {
                    return ((2, Vec::new()), Vec::new());
                }
                set.parts.insert(index, bytes.to_vec());
                if set.parts.len() == usize::from(count) {
                    let done = self.sets.remove(at);
                    return ((0, done.parts.into_values().flatten().collect()), Vec::new());
                }
                return ((1, Vec::new()), Vec::new());
            }
            let mut evicted = Vec::new();
            while self.sets.len() >= self.capacity {
                evicted.push(model_partial(self.sets.remove(0)));
            }
            self.sets.push(ModelSet {
                sender,
                seq,
                count,
                parts: BTreeMap::from([(index, bytes.to_vec())]),
                first_at_ns: now_ns,
                trace,
                frame: frame.to_vec(),
            });
            ((1, Vec::new()), evicted)
        }

        fn take(&mut self, mut gone: impl FnMut(&ModelSet) -> bool) -> Vec<Partial> {
            let (out, kept) = std::mem::take(&mut self.sets).into_iter().partition(|s| gone(s));
            self.sets = kept;
            out.into_iter().map(model_partial).collect()
        }

        fn sweep(&mut self, now_ns: u64) -> Vec<Partial> {
            // Only a prefix of sets old enough goes: arrival order is age order.
            let old = self
                .sets
                .iter()
                .take_while(|s| now_ns.saturating_sub(s.first_at_ns) >= self.timeout_ns)
                .count();
            self.sets.drain(..old).map(model_partial).collect()
        }
    }

    /// Seeded streams of fragment offers — 1–3 senders, sets of 2–9 parts
    /// and now and then a count of thousands, parts duplicated (with other
    /// bytes), out of order, past the count, with a count that changes
    /// mid-set, and sets that never complete — interleaved with sweeps on an
    /// advancing clock, newest-wins purges and crash drains, against a
    /// small capacity: the buffer and the brute-force model agree on every
    /// outcome, every evicted, expired, purged and drained set, and the
    /// number of sets held. Every set holds one part per fragment received
    /// and a bitmap of its count in bits, nothing more.
    #[test]
    fn buffer_matches_a_brute_force_model() {
        let seed = seed();
        eprintln!("FRAG_SEED={seed}");
        let mut rng = XorShift64::new(seed);
        let (mut completed, mut evicted, mut expired) = (0, 0, 0);
        for case in 0..64 {
            let capacity = 1 + rng.below(6) as usize;
            let timeout_ns = 20 + rng.below(200);
            let mut buf = ReassemblyBuffer::new(capacity, timeout_ns);
            let mut model = Model { capacity, timeout_ns, sets: Vec::new() };
            let mut now = 0u64;
            let mut counts: BTreeMap<(u64, u64), u16> = BTreeMap::new();
            for step in 0..200 {
                let what = format!("FRAG_SEED={seed} case {case} step {step}");
                now += rng.below(20);
                match rng.below(40) {
                    0..=3 => {
                        let got: Vec<Partial> = buf.sweep(now).iter().map(partial).collect();
                        expired += got.len();
                        assert_eq!(got, model.sweep(now), "{what}: sweep");
                    }
                    4 => {
                        let (sender, seq) = (rng.below(3), rng.below(6));
                        let got: Vec<Partial> =
                            buf.purge_below(sender, seq).iter().map(partial).collect();
                        let want = model.take(|s| s.sender == sender && s.seq < seq);
                        assert_eq!(got, want, "{what}: purge_below");
                    }
                    5 => {
                        let got: Vec<Partial> = buf.drain_all().iter().map(partial).collect();
                        assert_eq!(got, model.take(|_| true), "{what}: drain_all");
                    }
                    _ => {
                        let (sender, seq) = (rng.below(3), rng.below(6));
                        let count =
                            *counts.entry((sender, seq)).or_insert_with(|| match rng.below(10) {
                                0 => 1,
                                1 => 1000 + rng.below(64_000) as u16,
                                _ => 2 + rng.below(8) as u16,
                            });
                        // Now and then a count that contradicts the set's,
                        // or an index at or past it.
                        let count = if rng.below(12) == 0 { count + 1 } else { count };
                        let index = match rng.below(12) {
                            0 => count.saturating_add(rng.below(3) as u16),
                            _ => rng.below(u64::from(count.min(10))) as u16,
                        };
                        let bytes: Vec<u8> =
                            (0..rng.below(6)).map(|_| rng.next_u64() as u8).collect();
                        let frame: Vec<u8> = vec![index as u8, count as u8, step as u8];
                        let trace = (rng.below(2) == 0).then(|| rng.next_u64());
                        let frag = Fragment { index, count, bytes: WireBytes::from(bytes.clone()) };
                        let (offer, gone) = buf.offer(
                            sender,
                            seq,
                            frag,
                            WireBytes::from(frame.clone()),
                            trace,
                            now,
                        );
                        let want =
                            model.offer(sender, seq, (index, count), &bytes, &frame, trace, now);
                        let got = (outcome(&offer), gone.iter().map(partial).collect());
                        assert_eq!(got, want, "{what}: offer {index}/{count} of {sender}:{seq}");
                        completed += usize::from(matches!(offer, Offer::Complete(_)) && count > 1);
                        evicted += gone.len();
                    }
                }
                assert_eq!(buf.len(), model.sets.len(), "{what}: sets held");
                for e in &buf.entries {
                    assert_eq!(e.seen.len(), usize::from(e.count).div_ceil(64), "{what}: bitmap");
                    let set = model.sets.iter().find(|s| (s.sender, s.seq) == (e.sender, e.seq));
                    assert_eq!(e.parts.len(), set.map_or(0, |s| s.parts.len()), "{what}: parts");
                }
            }
        }
        assert!(completed > 20, "FRAG_SEED={seed}: {completed} sets completed");
        assert!(
            evicted > 20 && expired > 0,
            "FRAG_SEED={seed}: {evicted} evicted, {expired} expired"
        );
    }
}
