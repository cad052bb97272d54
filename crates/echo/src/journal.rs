//! Durable delivery journal for crash-restart recovery.
//!
//! A crashed ECho process loses its volatile state — duplicate state,
//! sequenced watermarks, reassembly partials, the in-flight retry queue —
//! but the Reliable tier's contract (exactly-once delivery) must survive
//! the restart. The [`Journal`] is the durable substrate that makes that
//! possible: an append-only log of delivery-relevant facts (outgoing
//! Reliable frames, delivery acks, frames noted by dedup, sequenced
//! watermarks, sequence floors), stamped with virtual time, that the
//! owning system writes as traffic flows and replays on restart to
//! rebuild exactly the state the tier contract requires.
//!
//! "Durable" here is modeled, not physical: the journal is an in-memory
//! `Vec` with an explicit *synced prefix*. Appends land in the unsynced
//! tail and migrate into the prefix on [`Journal::sync`] — either forced
//! per entry (WAL discipline for entries whose loss would break
//! exactly-once) or batched every `batch` appends (the fsync-batch
//! boundary; cheaper entries whose loss only costs a redundant
//! redelivery). A [`Journal::crash`] truncates the unsynced tail, so *what
//! survived is a pure function of the append/sync history* — no wall
//! clock, no I/O timing, fully deterministic and replayable per seed.
//!
//! The contract is the append-only log; what is *held* is that log folded.
//! As entries cross into the synced prefix, a `Sent` replaces the earlier
//! live `Sent` of its key `(to, channel, seq, frag_index)`, and an `Acked`
//! takes its key's live `Sent` with it and goes too — replay would have let
//! the later `Sent` overwrite the earlier and the `Acked` remove it. Every
//! other entry stays verbatim and in order. Folding never touches the
//! unsynced tail, so a crash that tears off an `Acked` leaves its `Sent`
//! owed. Folded-away slots are swept once they are half the log. A sender
//! then holds a frame only until it is acknowledged; [`Journal::replay`]
//! of the folded log equals replay of everything appended. `len`,
//! `synced_len` and the [`JournalStats`] counters count appended entries;
//! only `JournalStats::held` counts slots.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use obs::{Counter, Registry};
use pbio::WireBytes;

use crate::proto::ChannelId;

/// One durable fact in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// A Reliable-tier event frame left this process for `to` (a process
    /// index). The key fields are stored alongside the framed bytes so
    /// replay never re-parses the wire format.
    Sent {
        /// Destination process index.
        to: u64,
        /// Channel the frame travels on.
        channel: ChannelId,
        /// Message sequence number.
        seq: u64,
        /// Fragment index within the message (0 for whole messages).
        frag_index: u16,
        /// The framed bytes as they entered the wire.
        frame: WireBytes,
    },
    /// The frame keyed `(to, channel, seq, frag_index)` reached its
    /// destination (any terminal receiver outcome that noted the triple);
    /// the sender no longer owes a redelivery.
    Acked {
        /// Destination process index.
        to: u64,
        /// Channel of the acked frame.
        channel: ChannelId,
        /// Message sequence number.
        seq: u64,
        /// Fragment index.
        frag_index: u16,
    },
    /// This process noted an incoming whole frame in its duplicate state —
    /// the receiver-side half of exactly-once.
    Seen {
        /// System-wide sender identity.
        sender: u64,
        /// Message sequence number.
        seq: u64,
        /// Fragment index: 0, the only index of a whole frame.
        frag_index: u16,
    },
    /// [`JournalEntry::Seen`] for one fragment of a fragmented message:
    /// the count tells a restart when the set is complete, so replay
    /// rebuilds the state the live frames built.
    SeenFragment {
        /// System-wide sender identity.
        sender: u64,
        /// Message sequence number.
        seq: u64,
        /// Fragment index.
        frag_index: u16,
        /// Fragments in the message (> 1).
        frag_count: u16,
    },
    /// Sequenced newest-wins watermark: the latest message seq seen from
    /// `sender` on `channel`.
    Watermark {
        /// Channel of the watermark.
        channel: ChannelId,
        /// System-wide sender identity.
        sender: u64,
        /// Latest message sequence seen.
        seq: u64,
    },
    /// The process's next outgoing sequence number will not fall below
    /// this — appended ahead of allocations (skip-ahead), so a restart can
    /// never reuse a sequence number that may already be on the wire.
    SeqFloor {
        /// Lower bound for the next allocated sequence number.
        next_seq: u64,
    },
}

impl JournalEntry {
    /// The entry noting frame `frag_index` of sender `sender`'s
    /// `frag_count`-part message `seq`.
    pub(crate) fn seen(sender: u64, seq: u64, frag_index: u16, frag_count: u16) -> JournalEntry {
        if frag_count > 1 {
            JournalEntry::SeenFragment { sender, seq, frag_index, frag_count }
        } else {
            JournalEntry::Seen { sender, seq, frag_index }
        }
    }

    /// True for entries whose loss would break the Reliable contract —
    /// these are force-synced on append (WAL discipline). A lost `Acked`
    /// only costs a redundant redelivery that the receiver's (journaled)
    /// dedup window absorbs, and a lost `Watermark` only risks one stale
    /// sequenced delivery that newest-wins re-suppresses — both may ride
    /// the batch.
    fn must_sync(&self) -> bool {
        !matches!(self, JournalEntry::Acked { .. } | JournalEntry::Watermark { .. })
    }
}

/// The key of a `Sent` frame and of its `Acked`: `(to, channel, seq,
/// frag_index)`.
type SentKey = (u64, ChannelId, u64, u16);

/// The state a journal replay rebuilds — exactly what the Reliable tier
/// contract requires of a restarted process, nothing more.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Sent-but-unacked Reliable frames, keyed `(to, channel, seq,
    /// frag_index)` in key order (deterministic redelivery order). A later
    /// `Sent` for the same key (a redelivery journaled by a previous
    /// incarnation) overwrites the earlier frame bytes, so a second crash
    /// redelivers each message once, not once per incarnation.
    pub unacked: BTreeMap<SentKey, WireBytes>,
    /// Noted frames as `(sender, seq, frag_index, frag_count)`, in append
    /// order: replayed oldest-first, they rebuild the duplicate state the
    /// live frames built.
    pub seen: Vec<(u64, u64, u16, u16)>,
    /// Sequenced newest-wins watermarks: latest seq per `(channel,
    /// sender)`.
    pub watermarks: BTreeMap<(ChannelId, u64), u64>,
    /// Lower bound for the next outgoing sequence number.
    pub seq_floor: u64,
}

/// Counters a journal keeps about itself (mirrored into `echo.journal.*`
/// by the owning system).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Entries ever appended.
    pub appended: u64,
    /// Entries that reached the synced prefix.
    pub synced: u64,
    /// Unsynced entries truncated by crashes.
    pub lost: u64,
    /// Slots physically held: the folded synced prefix, folded-away slots
    /// not yet swept, and the unsynced tail.
    pub held: u64,
}

/// The sweep runs once folded-away slots are at least `1 / SWEEP_SHARE`
/// of the slots held.
const SWEEP_SHARE: usize = 2;

/// An append-only, virtual-clock-stamped delivery log with an explicit
/// synced prefix, held folded — see the module docs for the durability
/// model and the fold.
#[derive(Debug)]
pub struct Journal {
    /// `(at_ns, entry)` in append order; `None` is a slot folded away.
    entries: Vec<Option<(u64, JournalEntry)>>,
    /// Slots `[..synced]` survive a crash; the tail is lost.
    synced: usize,
    /// The slot of each key's one live `Sent` in the synced prefix.
    live_sent: HashMap<SentKey, usize>,
    /// Slots folded away and not yet swept.
    folded: usize,
    /// Auto-sync boundary: every `batch` appends the tail is synced even
    /// without a forced sync (floor 1 = sync every append).
    batch: usize,
    stats: JournalStats,
}

impl Journal {
    /// An empty journal syncing its tail at least every `batch` appends
    /// (floor 1).
    pub fn new(batch: usize) -> Journal {
        Journal {
            entries: Vec::new(),
            synced: 0,
            live_sent: HashMap::new(),
            folded: 0,
            batch: batch.max(1),
            stats: JournalStats::default(),
        }
    }

    /// Appends one entry stamped `at_ns`. Entries whose loss would break
    /// exactly-once (`JournalEntry::must_sync`) force a sync; the rest
    /// ride until the batch boundary fills.
    pub fn append(&mut self, at_ns: u64, entry: JournalEntry) {
        let force = entry.must_sync();
        self.entries.push(Some((at_ns, entry)));
        self.stats.appended += 1;
        if force || self.entries.len() - self.synced >= self.batch {
            self.sync();
        }
    }

    /// Moves every appended entry into the crash-surviving prefix, folding
    /// each into the prefix before it.
    pub fn sync(&mut self) {
        for slot in self.synced..self.entries.len() {
            self.fold(slot);
        }
        self.stats.synced += (self.entries.len() - self.synced) as u64;
        self.synced = self.entries.len();
        if self.folded > 0 && self.folded * SWEEP_SHARE >= self.entries.len() {
            self.sweep();
        }
    }

    /// Folds the just-synced entry at `slot`: a `Sent` replaces its key's
    /// live `Sent`; an `Acked` folds away its key's live `Sent`, if any,
    /// and itself.
    fn fold(&mut self, slot: usize) {
        match self.entries[slot] {
            Some((_, JournalEntry::Sent { to, channel, seq, frag_index, .. })) => {
                if let Some(earlier) = self.live_sent.insert((to, channel, seq, frag_index), slot) {
                    self.fold_away(earlier);
                }
            }
            Some((_, JournalEntry::Acked { to, channel, seq, frag_index })) => {
                if let Some(sent) = self.live_sent.remove(&(to, channel, seq, frag_index)) {
                    self.fold_away(sent);
                }
                self.fold_away(slot);
            }
            _ => {}
        }
    }

    /// Empties `slot`, dropping its entry (and a `Sent`'s frame) for good.
    fn fold_away(&mut self, slot: usize) {
        self.entries[slot] = None;
        self.folded += 1;
    }

    /// Drops the folded-away slots and points `live_sent` at the slots the
    /// live `Sent`s move to. Runs at sync, so every slot is synced.
    fn sweep(&mut self) {
        let (live_sent, mut slot) = (&mut self.live_sent, 0);
        live_sent.clear();
        self.entries.retain(|e| {
            let Some((_, entry)) = e else { return false };
            if let JournalEntry::Sent { to, channel, seq, frag_index, .. } = entry {
                live_sent.insert((*to, *channel, *seq, *frag_index), slot);
            }
            slot += 1;
            true
        });
        self.synced = self.entries.len();
        self.folded = 0;
    }

    /// A crash: the unsynced tail is torn off (it never reached the
    /// modeled disk). Returns how many entries were lost.
    pub fn crash(&mut self) -> usize {
        let lost = self.entries.len() - self.synced;
        self.entries.truncate(self.synced);
        self.stats.lost += lost as u64;
        lost
    }

    /// Entries appended so far (synced or not), folded ones included.
    pub fn len(&self) -> usize {
        self.synced_len() + (self.entries.len() - self.synced)
    }

    /// True when nothing has been appended (or everything was torn off).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in the crash-surviving prefix, folded ones included.
    pub fn synced_len(&self) -> usize {
        self.stats.synced as usize
    }

    /// The journal's self-accounting.
    pub fn stats(&self) -> JournalStats {
        JournalStats { held: self.entries.len() as u64, ..self.stats }
    }

    /// Replays the synced prefix into the state a restarted process needs:
    /// unacked Sent frames (redelivery obligations), the frames dedup
    /// noted, sequenced watermarks, and the sequence floor. Pure — the
    /// journal is not consumed, so a second crash replays identically plus
    /// whatever the next incarnation appended.
    pub fn replay(&self) -> Recovered {
        let mut rec = Recovered::default();
        for (_, entry) in self.entries[..self.synced].iter().flatten() {
            rec.apply(entry);
        }
        rec
    }
}

impl Recovered {
    /// Replays one synced entry onto the state the entries before it
    /// rebuilt.
    fn apply(&mut self, entry: &JournalEntry) {
        match entry {
            JournalEntry::Sent { to, channel, seq, frag_index, frame } => {
                self.unacked.insert((*to, *channel, *seq, *frag_index), frame.clone());
            }
            JournalEntry::Acked { to, channel, seq, frag_index } => {
                self.unacked.remove(&(*to, *channel, *seq, *frag_index));
            }
            JournalEntry::Seen { sender, seq, frag_index } => {
                self.seen.push((*sender, *seq, *frag_index, 1));
            }
            JournalEntry::SeenFragment { sender, seq, frag_index, frag_count } => {
                self.seen.push((*sender, *seq, *frag_index, *frag_count));
            }
            JournalEntry::Watermark { channel, sender, seq } => {
                let w = self.watermarks.entry((*channel, *sender)).or_insert(*seq);
                *w = (*w).max(*seq);
            }
            JournalEntry::SeqFloor { next_seq } => {
                self.seq_floor = self.seq_floor.max(*next_seq);
            }
        }
    }
}

/// Every process's journal (present once
/// [`crate::EchoSystem::enable_journaling`] opted in), mirroring the
/// journals' own accounting into `echo.journal.*`: entries appended /
/// synced / torn off by crashes, synced entries replayed at restarts, and
/// unacked frames redelivered under a new epoch.
#[derive(Debug)]
pub(crate) struct Journals {
    /// Boxed, so a process that does not journal costs one pointer.
    slots: Vec<Option<Box<Journal>>>,
    /// Fsync-batch boundary for the journals of future processes.
    batch: Option<usize>,
    appended: Arc<Counter>,
    synced: Arc<Counter>,
    lost: Arc<Counter>,
    replayed: Arc<Counter>,
    pub redelivered: Arc<Counter>,
}

impl Journals {
    pub fn new(registry: &Registry) -> Journals {
        Journals {
            slots: Vec::new(),
            batch: None,
            appended: registry.counter("echo.journal.appended"),
            synced: registry.counter("echo.journal.synced"),
            lost: registry.counter("echo.journal.lost"),
            replayed: registry.counter("echo.journal.replayed"),
            redelivered: registry.counter("echo.journal.redelivered"),
        }
    }

    /// A journal opens with its owner's sequence floor.
    fn open(batch: usize, now_ns: u64, next_seq: u64) -> Box<Journal> {
        let mut j = Box::new(Journal::new(batch));
        j.append(now_ns, JournalEntry::SeqFloor { next_seq });
        j
    }

    /// Registers the next process, journaled if journaling is on.
    pub fn add_process(&mut self, now_ns: u64, next_seq: u64) {
        self.slots.push(self.batch.map(|batch| Journals::open(batch, now_ns, next_seq)));
    }

    /// Opts every process — `next_seqs` in process order, and all future
    /// ones — into a journal with the given fsync-batch boundary.
    pub fn enable(&mut self, batch: usize, now_ns: u64, next_seqs: impl Iterator<Item = u64>) {
        self.batch = Some(batch);
        for (slot, next_seq) in self.slots.iter_mut().zip(next_seqs) {
            slot.get_or_insert_with(|| Journals::open(batch, now_ns, next_seq));
        }
    }

    /// A process's journal, when journaling is on.
    pub fn get(&self, owner: usize) -> Option<&Journal> {
        self.slots[owner].as_deref()
    }

    /// Appends one entry to a process's journal (a no-op when journaling
    /// is off), stamped `now_ns`.
    pub fn append(&mut self, owner: usize, now_ns: u64, entry: JournalEntry) {
        if let Some(j) = self.slots[owner].as_mut() {
            let synced = j.stats().synced;
            j.append(now_ns, entry);
            self.appended.inc();
            self.synced.add(j.stats().synced - synced);
        }
    }

    /// The owner crashed: the modeled disk keeps only the synced prefix;
    /// the unsynced tail is torn off with the process's memory.
    pub fn crash(&mut self, owner: usize) {
        if let Some(j) = self.slots[owner].as_mut() {
            self.lost.add(j.crash() as u64);
        }
    }

    /// The owner restarts: what its journal's synced prefix rebuilds.
    pub fn replay(&self, owner: usize) -> Option<Recovered> {
        let j = self.get(owner)?;
        self.replayed.add(j.synced_len() as u64);
        Some(j.replay())
    }
}

#[cfg(test)]
mod tests {
    use simnet::XorShift64;

    use super::*;

    fn sent(to: u64, seq: u64) -> JournalEntry {
        JournalEntry::Sent {
            to,
            channel: ChannelId(1),
            seq,
            frag_index: 0,
            frame: WireBytes::from(vec![seq as u8]),
        }
    }

    fn acked(to: u64, seq: u64) -> JournalEntry {
        JournalEntry::Acked { to, channel: ChannelId(1), seq, frag_index: 0 }
    }

    #[test]
    fn sent_entries_force_sync_and_survive_a_crash() {
        let mut j = Journal::new(64);
        j.append(10, sent(2, 0));
        j.append(20, sent(2, 1));
        assert_eq!(j.synced_len(), 2, "Sent entries are WAL-forced");
        assert_eq!(j.crash(), 0);
        let rec = j.replay();
        assert_eq!(rec.unacked.len(), 2);
        assert_eq!(
            rec.unacked.keys().copied().collect::<Vec<_>>(),
            vec![(2, ChannelId(1), 0, 0), (2, ChannelId(1), 1, 0)]
        );
    }

    #[test]
    fn acks_ride_the_batch_and_a_crash_tears_off_the_unsynced_tail() {
        let mut j = Journal::new(8);
        j.append(10, sent(2, 0));
        j.append(20, acked(2, 0)); // batched, not yet synced
        assert_eq!(j.synced_len(), 1);
        assert_eq!(j.crash(), 1, "the unsynced ack is lost");
        // The lost ack resurrects the redelivery obligation — which is
        // safe: the receiver's journaled dedup window absorbs the dup.
        assert_eq!(j.replay().unacked.len(), 1);
        assert_eq!(j.stats().lost, 1);
    }

    #[test]
    fn batch_boundary_syncs_batched_entries() {
        let mut j = Journal::new(2);
        j.append(10, acked(2, 0));
        assert_eq!(j.synced_len(), 0);
        j.append(20, acked(2, 1));
        assert_eq!(j.synced_len(), 2, "the second ack fills the batch");
    }

    #[test]
    fn replay_folds_watermarks_floors_and_redelivered_sends() {
        let mut j = Journal::new(1);
        j.append(0, JournalEntry::SeqFloor { next_seq: 64 });
        j.append(0, JournalEntry::Watermark { channel: ChannelId(3), sender: 1, seq: 9 });
        j.append(1, JournalEntry::Watermark { channel: ChannelId(3), sender: 1, seq: 4 });
        j.append(2, JournalEntry::Seen { sender: 1, seq: 9, frag_index: 0 });
        j.append(2, JournalEntry::seen(1, 10, 2, 3));
        j.append(3, sent(2, 5));
        // A redelivery by a later incarnation overwrites the same key.
        j.append(
            4,
            JournalEntry::Sent {
                to: 2,
                channel: ChannelId(1),
                seq: 5,
                frag_index: 0,
                frame: WireBytes::from(vec![0xEE]),
            },
        );
        let rec = j.replay();
        assert_eq!(rec.seq_floor, 64);
        assert_eq!(rec.watermarks[&(ChannelId(3), 1)], 9, "watermarks never regress");
        assert_eq!(rec.seen, vec![(1, 9, 0, 1), (1, 10, 2, 3)]);
        assert_eq!(rec.unacked.len(), 1);
        assert_eq!(rec.unacked[&(2, ChannelId(1), 5, 0)].to_vec(), vec![0xEE]);
    }

    #[test]
    fn a_synced_sent_whose_ack_is_torn_off_is_still_owed() {
        let mut j = Journal::new(8);
        j.append(10, sent(2, 0));
        j.append(20, acked(2, 0)); // rides the batch, unsynced
        assert_eq!(j.stats().held, 2, "nothing folds before the ack is synced");
        assert_eq!(j.crash(), 1);
        assert_eq!(
            j.replay().unacked.keys().copied().collect::<Vec<_>>(),
            [(2, ChannelId(1), 0, 0)]
        );
        assert_eq!((j.len(), j.stats().held), (1, 1));
    }

    #[test]
    fn a_redelivered_sent_and_one_ack_clear_the_key() {
        let mut j = Journal::new(1);
        j.append(10, sent(2, 5));
        let frame = WireBytes::from(vec![0xEE]);
        j.append(
            20,
            JournalEntry::Sent { to: 2, channel: ChannelId(1), seq: 5, frag_index: 0, frame },
        );
        assert_eq!(j.stats().held, 1, "the redelivery replaced the first Sent");
        j.append(30, acked(2, 5));
        assert!(j.replay().unacked.is_empty());
        assert_eq!((j.len(), j.synced_len(), j.stats().held), (3, 3, 0));
    }

    /// The seed of [`fold_matches_a_brute_force_log`]: `JOURNAL_SEED`, or
    /// a fixed one.
    fn seed() -> u64 {
        match std::env::var("JOURNAL_SEED") {
            Ok(v) => v.parse().unwrap_or_else(|_| panic!("JOURNAL_SEED {v:?} is not a u64")),
            Err(_) => 27,
        }
    }

    /// Seeded streams of 2,000–3,000 steps — fresh sends, acks of owed,
    /// never-sent and already-acked keys, redeliveries of owed and of
    /// acked keys, seen notes, watermarks, sequence floors, explicit syncs
    /// and crashes — against a log that never folds: after every step the
    /// folded journal replays to what that log's synced prefix replays to,
    /// counts the same entries, and holds one slot per entry replay still
    /// needs plus the slots folded away — at most twice the live ones.
    #[test]
    fn fold_matches_a_brute_force_log() {
        let seed = seed();
        eprintln!("JOURNAL_SEED={seed}");
        let mut rng = XorShift64::new(seed);
        let mut sweeps = 0;
        for case in 0..8 {
            let batch = 1 + rng.below(12) as usize;
            let mut journal = Journal::new(batch);
            // The unfolded log, its synced fence, and the replay of
            // `log[..replayed]` with the count of its entries that are
            // neither `Sent` nor `Acked`.
            let (mut log, mut synced) = (Vec::<JournalEntry>::new(), 0);
            let (mut want, mut replayed, mut kept) = (Recovered::default(), 0, 0);
            let (mut owed, mut acked) = (Vec::<SentKey>::new(), Vec::<SentKey>::new());
            let mut next_seq = 0;
            for step in 0..2_000 + rng.below(1_000) {
                let what = format!("JOURNAL_SEED={seed} case {case} step {step}");
                let frame = WireBytes::from(format!("{case}:{step}").into_bytes());
                let pick = |rng: &mut XorShift64, keys: &[SentKey]| {
                    keys.get(rng.below(keys.len() as u64) as usize).copied()
                };
                let key = match rng.below(100) {
                    0..=24 => {
                        next_seq += 1;
                        let to = rng.below(3);
                        let key = (to, ChannelId(1 + to as u32 % 2), next_seq, rng.below(4) as u16);
                        owed.push(key);
                        Some((key, Some(frame)))
                    }
                    25..=49 if !owed.is_empty() => {
                        let key = owed.swap_remove(rng.below(owed.len() as u64) as usize);
                        acked.push(key);
                        Some((key, None))
                    }
                    50..=54 => Some(((rng.below(3), ChannelId(1), u64::MAX - step, 0), None)),
                    55..=59 => pick(&mut rng, &acked).map(|key| (key, None)),
                    60..=67 => pick(&mut rng, &owed).map(|key| (key, Some(frame))),
                    68..=69 => pick(&mut rng, &acked).map(|key| (key, Some(frame))),
                    _ => None,
                };
                let (sender, seq) = (rng.below(3), rng.below(next_seq + 1));
                let entry = match (key, rng.below(30)) {
                    (Some(((to, channel, seq, frag_index), Some(frame))), _) => {
                        Some(JournalEntry::Sent { to, channel, seq, frag_index, frame })
                    }
                    (Some(((to, channel, seq, frag_index), None)), _) => {
                        Some(JournalEntry::Acked { to, channel, seq, frag_index })
                    }
                    (None, 0..=5) => Some(JournalEntry::seen(sender, seq, 0, 1)),
                    (None, 6..=8) => Some(JournalEntry::seen(sender, seq, rng.below(4) as u16, 4)),
                    (None, 9..=13) => {
                        Some(JournalEntry::Watermark { channel: ChannelId(1), sender, seq })
                    }
                    (None, 14..=15) => Some(JournalEntry::SeqFloor { next_seq: seq }),
                    _ => None,
                };
                let folded = journal.folded;
                match (entry, rng.below(3)) {
                    (Some(entry), _) => {
                        let forced = !matches!(
                            entry,
                            JournalEntry::Acked { .. } | JournalEntry::Watermark { .. }
                        );
                        journal.append(step, entry.clone());
                        log.push(entry);
                        if forced || log.len() - synced >= batch {
                            synced = log.len();
                        }
                    }
                    (None, 0) => {
                        assert_eq!(journal.crash(), log.len() - synced, "{what}: crash");
                        log.truncate(synced);
                    }
                    (None, _) => {
                        journal.sync();
                        synced = log.len();
                    }
                }
                sweeps += usize::from(journal.folded < folded);

                for entry in &log[replayed..synced] {
                    want.apply(entry);
                    kept += usize::from(!matches!(
                        entry,
                        JournalEntry::Sent { .. } | JournalEntry::Acked { .. }
                    ));
                }
                replayed = synced;
                assert_eq!(journal.replay(), want, "{what}: replay");
                assert_eq!((journal.len(), journal.synced_len()), (log.len(), synced), "{what}");
                let live = kept + want.unacked.len() + (log.len() - synced);
                let held = journal.stats().held as usize;
                assert_eq!(held, live + journal.folded, "{what}: slots held");
                assert!(held <= 2 * live + 64, "{what}: {held} slots held for {live} live");
            }
        }
        assert!(sweeps > 0, "JOURNAL_SEED={seed}: no sweep ran");
    }
}
