//! Duplicate suppression at a receiving process: which `(sender, seq,
//! frag_index)` frames it has noted.
//!
//! State is kept per sender, in a `Vec` sorted by the sender id the system
//! mints (never a value read off the wire). Each sender has a *floor* —
//! every seq below it counts as seen — a ring of [`DEDUP_WINDOW`] bits for
//! the seqs seen whole in `[floor, floor + W)`, and one fragment-index set
//! per fragmented seq in the window that has not completed. The floor
//! advances over the contiguous seen prefix, so in-order traffic never
//! touches the ring; a seq at or beyond `floor + W` slides the window.
//!
//! **The horizon**, in sender sequence numbers: a frame whose seq is `W` or
//! more below the newest seq noted from its sender is dropped as a
//! duplicate ([`Noted::BeyondWindow`]) — noted before or not, the window no
//! longer tells. Inside the horizon the answer is exact: a frame is a
//! duplicate iff its `(sender, seq, frag_index)` was noted before (given
//! one fragment count per seq, which every sender keeps).
//!
//! Work is O(1) amortised per frame and allocates nothing per frame in
//! steady state; a sender costs at most `W / 8` bytes of ring plus its
//! in-flight fragment sets. Every step on a seq is checked: seqs come off
//! the wire, and one near `u64::MAX` must not overflow.

/// The horizon `W`, in sender sequence numbers.
pub(crate) const DEDUP_WINDOW: u64 = 4096;

/// Ring words: one bit per seq of the window.
const WORDS: usize = (DEDUP_WINDOW / 64) as usize;

/// What [`Dedup::note`] made of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Noted {
    /// Not seen before: now noted.
    Fresh,
    /// Noted before.
    Duplicate,
    /// `W` or more behind the newest seq noted from its sender: dropped as
    /// a duplicate without being looked up.
    BeyondWindow,
}

/// A process's duplicate state over every sender it has heard from.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Dedup {
    /// Sorted by [`SenderWindow::id`].
    senders: Vec<SenderWindow>,
    /// Frames noted since the last [`Dedup::forget`].
    noted: usize,
}

impl Dedup {
    /// Notes frame `index` of sender `sender`'s `count`-part message `seq`
    /// (a whole frame is index 0 of 1), unless it was noted before or lies
    /// beyond the horizon.
    pub fn note(&mut self, sender: u64, seq: u64, index: u16, count: u16) -> Noted {
        let at = match self.senders.binary_search_by_key(&sender, |s| s.id) {
            Ok(at) => at,
            Err(at) => {
                self.senders.insert(at, SenderWindow::new(sender));
                at
            }
        };
        let noted = self.senders[at].note(seq, index, count);
        if noted == Noted::Fresh {
            self.noted += 1;
        }
        noted
    }

    /// Forgets every sender (crash amnesia). Returns the frames noted since
    /// the last time, capped at `W`.
    pub fn forget(&mut self) -> usize {
        self.senders.clear();
        std::mem::take(&mut self.noted).min(DEDUP_WINDOW as usize)
    }
}

/// One sender's window (see the module docs).
#[derive(Debug, PartialEq, Eq)]
struct SenderWindow {
    id: u64,
    /// Every seq below it counts as seen. At most `newest + 1`.
    floor: u64,
    /// The highest seq noted.
    newest: u64,
    /// Bit `s % W` is set iff seq `s` in `[floor, floor + W)` was seen
    /// whole; allocated by the first seq noted above the floor.
    ring: Option<Box<[u64; WORDS]>>,
    /// Fragmented seqs in the window not yet complete, sorted by seq.
    parts: Vec<Parts>,
}

impl SenderWindow {
    fn new(id: u64) -> SenderWindow {
        SenderWindow { id, floor: 0, newest: 0, ring: None, parts: Vec::new() }
    }

    fn note(&mut self, seq: u64, index: u16, count: u16) -> Noted {
        if seq < self.floor {
            let beyond = self.newest.saturating_sub(seq) >= DEDUP_WINDOW;
            return if beyond { Noted::BeyondWindow } else { Noted::Duplicate };
        }
        if seq - self.floor >= DEDUP_WINDOW {
            self.slide(seq - (DEDUP_WINDOW - 1));
        } else if self.ring.as_ref().is_some_and(|ring| ring[word(seq)] & bit(seq) != 0) {
            return Noted::Duplicate;
        }
        let whole = match self.parts.binary_search_by_key(&seq, |p| p.seq) {
            Ok(at) => {
                if !self.parts[at].insert(index) {
                    return Noted::Duplicate;
                }
                let complete = self.parts[at].complete();
                if complete {
                    self.parts.remove(at);
                }
                complete
            }
            Err(at) if count > 1 => {
                self.parts.insert(at, Parts::new(seq, index, count));
                false
            }
            Err(_) => true,
        };
        if whole {
            self.set_whole(seq);
        }
        self.newest = self.newest.max(seq);
        Noted::Fresh
    }

    /// Marks `seq` (inside the window) seen whole.
    fn set_whole(&mut self, seq: u64) {
        if seq == self.floor && seq < u64::MAX {
            self.floor = seq + 1;
            self.advance();
        } else {
            self.ring.get_or_insert_with(|| Box::new([0; WORDS]))[word(seq)] |= bit(seq);
        }
    }

    /// Moves the floor over the seqs at its front seen whole, clearing
    /// their bits for the seqs `W` later that will reuse them. The floor
    /// stops at `u64::MAX`, whose bit then stays set.
    fn advance(&mut self) {
        let Some(ring) = self.ring.as_mut() else { return };
        loop {
            let (w, b) = (word(self.floor), self.floor % 64);
            let run = u64::from((ring[w] >> b).trailing_ones()).min(u64::MAX - self.floor);
            if run == 0 {
                return;
            }
            ring[w] &= !(u64::MAX >> (64 - run) << b);
            self.floor += run;
        }
    }

    /// Slides the window up so it starts at `to` (above the floor): the
    /// seqs passed over leave the ring, fragment sets below `to` are
    /// dropped — their missing parts now lie beyond the horizon.
    fn slide(&mut self, to: u64) {
        if let Some(ring) = self.ring.as_mut() {
            if to - self.floor >= DEDUP_WINDOW {
                ring.fill(0);
            } else {
                let mut s = self.floor;
                while s < to {
                    let b = s % 64;
                    let n = (64 - b).min(to - s);
                    ring[word(s)] &= !(u64::MAX >> (64 - n) << b);
                    s += n;
                }
            }
        }
        let below = self.parts.partition_point(|p| p.seq < to);
        self.parts.drain(..below);
        self.floor = to;
        self.advance();
    }
}

/// The ring word of `seq`.
fn word(seq: u64) -> usize {
    ((seq / 64) % WORDS as u64) as usize
}

/// `seq`'s bit in its ring word.
fn bit(seq: u64) -> u64 {
    1 << (seq % 64)
}

/// The fragment indices noted of one incomplete fragmented seq.
#[derive(Debug, PartialEq, Eq)]
struct Parts {
    seq: u64,
    count: u16,
    /// Distinct indices noted.
    got: u32,
    /// Bit `i % 64` of word `i / 64` is set iff index `i` was noted.
    bits: Vec<u64>,
}

impl Parts {
    fn new(seq: u64, index: u16, count: u16) -> Parts {
        let bits = Vec::with_capacity(usize::from(count).div_ceil(64));
        let mut parts = Parts { seq, count, got: 0, bits };
        parts.insert(index);
        parts
    }

    /// Notes `index`; false if it was noted before.
    fn insert(&mut self, index: u16) -> bool {
        let (w, bit) = (usize::from(index) / 64, 1u64 << (index % 64));
        if self.bits.len() <= w {
            self.bits.resize(w + 1, 0);
        }
        if self.bits[w] & bit != 0 {
            return false;
        }
        self.bits[w] |= bit;
        self.got += 1;
        true
    }

    fn complete(&self) -> bool {
        self.got >= u32::from(self.count)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::{HashMap, HashSet};

    use simnet::XorShift64;

    use super::*;
    use crate::journal::{Journal, JournalEntry};

    /// Bytes `dedup` keeps: each sender's window, its ring once allocated,
    /// and the bitmaps of its incomplete fragmented seqs.
    pub(crate) fn held_bytes(dedup: &Dedup) -> usize {
        let parts = |p: &Parts| std::mem::size_of::<Parts>() + p.bits.capacity() * 8;
        let window = |s: &SenderWindow| {
            let ring = if s.ring.is_some() { WORDS * 8 } else { 0 };
            std::mem::size_of::<SenderWindow>() + ring + s.parts.iter().map(parts).sum::<usize>()
        };
        dedup.senders.iter().map(window).sum()
    }

    const W: u64 = DEDUP_WINDOW;

    #[test]
    fn in_order_traffic_never_allocates_the_ring() {
        let mut d = Dedup::default();
        for seq in 0..3 * W {
            assert_eq!(d.note(9, seq, 0, 1), Noted::Fresh);
        }
        assert!(d.senders[0].ring.is_none());
        assert_eq!(d.senders[0].floor, 3 * W);
        assert_eq!(d.note(9, 3 * W - 1, 0, 1), Noted::Duplicate);
    }

    #[test]
    fn the_floor_advances_over_a_filled_gap() {
        let mut d = Dedup::default();
        for seq in [1, 2, 3, 5] {
            assert_eq!(d.note(1, seq, 0, 1), Noted::Fresh);
        }
        assert_eq!(d.senders[0].floor, 0);
        assert_eq!(d.note(1, 0, 0, 1), Noted::Fresh);
        assert_eq!(d.senders[0].floor, 4, "0..=3 seen, 4 missing");
        assert_eq!(d.note(1, 4, 0, 1), Noted::Fresh);
        assert_eq!(d.senders[0].floor, 6);
        assert_eq!(d.senders[0].ring.as_ref().unwrap()[0], 0, "passed bits are cleared");
    }

    #[test]
    fn a_fragmented_seq_is_whole_once_every_part_is_noted() {
        let mut d = Dedup::default();
        assert_eq!(d.note(1, 0, 69, 70), Noted::Fresh);
        assert_eq!(d.note(1, 0, 69, 70), Noted::Duplicate);
        for i in 0..69 {
            assert_eq!(d.note(1, 0, i, 70), Noted::Fresh);
        }
        assert!(d.senders[0].parts.is_empty());
        assert_eq!(d.senders[0].floor, 1);
    }

    #[test]
    fn a_slide_drops_fragment_sets_below_the_new_floor() {
        let mut d = Dedup::default();
        assert_eq!(d.note(1, 3, 0, 2), Noted::Fresh);
        assert_eq!(d.note(1, 3 + W, 0, 1), Noted::Fresh);
        assert!(d.senders[0].parts.is_empty());
        assert_eq!(d.note(1, 3, 1, 2), Noted::BeyondWindow);
        assert_eq!(d.note(1, 4, 0, 1), Noted::Fresh, "inside the horizon, never noted");
    }

    #[test]
    fn forget_reports_frames_noted_capped_at_the_window() {
        let mut d = Dedup::default();
        for seq in 0..10 {
            d.note(seq % 3, seq, 0, 1);
        }
        assert_eq!(d.forget(), 10);
        assert_eq!(d.note(0, 0, 0, 1), Noted::Fresh, "forgotten");
        for seq in 1..2 * W {
            d.note(0, seq, 0, 1);
        }
        assert_eq!(d.forget(), W as usize);
    }

    /// The seed of [`window_matches_a_brute_force_oracle`]: `DEDUP_SEED`,
    /// or a fixed one.
    fn seed() -> u64 {
        match std::env::var("DEDUP_SEED") {
            Ok(v) => v.parse().unwrap_or_else(|_| panic!("DEDUP_SEED {v:?} is not a u64")),
            Err(_) => 23,
        }
    }

    /// What the window promises, computed the slow way: every triple
    /// noted, plus the horizon rule against the newest seq noted per
    /// sender.
    #[derive(Default)]
    struct Oracle {
        noted: HashSet<(u64, u64, u16)>,
        newest: HashMap<u64, u64>,
    }

    impl Oracle {
        fn note(&mut self, sender: u64, seq: u64, index: u16) -> Noted {
            let newest = self.newest.get(&sender).copied();
            if newest.is_some_and(|n| n >= seq && n - seq >= W) {
                Noted::BeyondWindow
            } else if !self.noted.insert((sender, seq, index)) {
                Noted::Duplicate
            } else {
                self.newest.insert(sender, newest.map_or(seq, |n| n.max(seq)));
                Noted::Fresh
            }
        }
    }

    /// A frame: `(sender, seq, index, count)`.
    type Frame = (u64, u64, u16, u16);

    /// One seeded stream: 1–4 senders starting at 0, at a system-style
    /// `k << 48`, or just below `u64::MAX`; seqs skipped (trace ids,
    /// other destinations), now and then a whole window of them; a message
    /// in eight split into 2–70 parts; then
    /// the frames reordered, duplicated and replayed — mostly close, now and
    /// then well past the horizon.
    fn stream(rng: &mut XorShift64) -> Vec<Frame> {
        let senders: Vec<(u64, u64)> = (0..1 + rng.below(4))
            .map(|k| {
                let base = match rng.below(3) {
                    0 => 0,
                    1 => (k + 1) << 48,
                    _ => u64::MAX - rng.below(3 * W),
                };
                (k * 7 + rng.below(7), base)
            })
            .collect();
        let mut next: Vec<Option<u64>> = senders.iter().map(|&(_, base)| Some(base)).collect();
        let mut sent = Vec::new();
        for _ in 0..1_000 + rng.below(2_000) {
            let k = rng.below(senders.len() as u64) as usize;
            let Some(seq) = next[k] else { continue };
            let gap = match rng.below(400) {
                0 => W + rng.below(W),
                1..=100 => rng.below(8),
                _ => 0,
            };
            next[k] = seq.checked_add(1 + gap);
            let count = if rng.below(8) == 0 { 2 + rng.below(69) as u16 } else { 1 };
            sent.extend((0..count).map(|i| (senders[k].0, seq, i, count)));
        }
        // Each frame gets an arrival position near its send order; copies
        // and replays land elsewhere.
        let n = sent.len() as u64;
        let mut arrivals: Vec<(u64, Frame)> = Vec::new();
        for (i, &f) in sent.iter().enumerate() {
            let at = i as u64 * 8;
            let jitter = match rng.below(50) {
                0 => rng.below(8 * n),
                1..=5 => rng.below(8 * 64),
                _ => rng.below(8),
            };
            arrivals.push((at + jitter, f));
            if rng.below(20) == 0 {
                arrivals.push((at + rng.below(8 * n), f));
            }
        }
        arrivals.sort_by_key(|&(at, _)| at);
        arrivals.into_iter().map(|(_, f)| f).collect()
    }

    /// The window against [`Oracle`] on seeded streams, across journal
    /// round trips: at a random cut the fresh notes so far go through
    /// `JournalEntry::seen` and a journal replay into a new window, which
    /// must equal the live one and decide the rest of the stream alike.
    #[test]
    fn window_matches_a_brute_force_oracle() {
        let seed = seed();
        eprintln!("DEDUP_SEED={seed}");
        let mut rng = XorShift64::new(seed);
        let mut beyond = 0;
        for case in 0..32 {
            let frames = stream(&mut rng);
            let cut = rng.below(frames.len() as u64) as usize;
            let (mut live, mut oracle, mut journal) =
                (Dedup::default(), Oracle::default(), Journal::new(1));
            let mut restored = None;
            for (i, &(sender, seq, index, count)) in frames.iter().enumerate() {
                if i == cut {
                    let mut fresh = Dedup::default();
                    for (sender, seq, index, count) in journal.replay().seen {
                        assert_eq!(fresh.note(sender, seq, index, count), Noted::Fresh);
                    }
                    assert_eq!(fresh, live, "DEDUP_SEED={seed} case {case}: restored state");
                    restored = Some(fresh);
                }
                let want = oracle.note(sender, seq, index);
                let got = live.note(sender, seq, index, count);
                let frame = (sender, seq, index, count);
                assert_eq!(got, want, "DEDUP_SEED={seed} case {case} frame {i} {frame:?}");
                if let Some(r) = restored.as_mut() {
                    let again = r.note(sender, seq, index, count);
                    assert_eq!(again, want, "DEDUP_SEED={seed} case {case}: after restore");
                }
                if got == Noted::Fresh {
                    journal.append(0, JournalEntry::seen(sender, seq, index, count));
                }
                beyond += usize::from(got == Noted::BeyondWindow);
            }
        }
        assert!(beyond > 0, "DEDUP_SEED={seed}: no stream reached past the horizon");
    }
}
