//! The metric primitives: counters, gauges, and log-bucketed histograms.
//!
//! All primitives are lock-free (plain atomics) and safe to share across
//! threads via `Arc`. Handles are obtained from a [`crate::Registry`] and
//! are meant to be cached by hot-path code so that metric updates never
//! involve a name lookup.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

/// A monotonically increasing event count.
///
/// # Examples
///
/// ```
/// let c = obs::Counter::default();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depths, cache sizes).
///
/// # Examples
///
/// ```
/// let g = obs::Gauge::default();
/// g.set(10);
/// g.add(-3);
/// assert_eq!(g.get(), 7);
/// ```
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of buckets: one for zero, plus one per power of two up to 2^63.
const BUCKETS: usize = 65;

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`, so bucket
/// `i > 0` covers the half-open range `[2^(i-1), 2^i)`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (the largest sample it can hold).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A histogram of nanosecond-scale samples in power-of-two buckets.
///
/// Sixty-five buckets cover 0 and `[2^(i-1), 2^i)` for `i` in `1..=64`, so
/// any `u64` sample lands somewhere. The trade-off is resolution:
/// quantiles from [`Histogram::snapshot`] are bucket upper bounds, i.e.
/// correct within a factor of two. That is exactly the precision needed to
/// separate a "cold" first-message cost (format matching + code
/// generation, typically ≥ 2^14 ns) from the "warm" cached replays
/// (typically ≤ 2^12 ns).
///
/// A histogram allocates what it uses. Before its first sample it is one
/// empty cell. The first [`Histogram::record`] allocates a block holding
/// the sum, the extremes and a window of 16 buckets placed around that
/// sample — ten below it, five above, since a timer's first sample is
/// usually its cold, slowest one. Outliers — a preempted thread, a page
/// fault — land far from the window but in few buckets: the block counts
/// four such buckets itself, and the first sample in a fifth allocates the
/// full 65-bucket array once. A sample inside the window that moves
/// neither extreme costs two atomic adds (its bucket and the sum); the
/// count is the sum of the buckets, so a snapshot's `count` always equals
/// the samples its buckets hold.
///
/// # Examples
///
/// ```
/// let h = obs::Histogram::default();
/// for ns in [100, 120, 130, 40_000] {
///     h.record(ns);
/// }
/// let s = h.snapshot();
/// assert_eq!(s.count, 4);
/// assert_eq!(s.min, 100);
/// assert_eq!(s.max, 40_000);
/// assert!(s.quantile(0.5) < 256); // warm cluster
/// assert!(s.quantile(1.0) >= 40_000); // cold outlier
/// ```
#[derive(Debug, Default)]
pub struct Histogram {
    block: OnceLock<Box<Block>>,
}

/// Buckets in a histogram's window.
const WINDOW: usize = 16;
/// Window buckets below the first sample's own.
const BELOW: usize = 10;
/// Buckets outside the window a block counts before it allocates them all.
const FAR: usize = 4;
/// A claimed far slot holds its bucket index plus one from this bit up,
/// and its count below it.
const FAR_TAG: u32 = 57;

/// What a histogram holds once it has recorded.
#[derive(Debug)]
struct Block {
    /// Bucket index of `window[0]`.
    base: usize,
    window: [AtomicU64; WINDOW],
    /// Tagged counts of the first buckets hit outside `window`; 0 while
    /// unclaimed.
    far: [AtomicU64; FAR],
    /// Every bucket, for samples outside `window` and `far`.
    spill: OnceLock<Box<[AtomicU64; BUCKETS]>>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Block {
    /// A block whose window holds the bucket of `first`, with [`BELOW`]
    /// buckets under it where the range allows.
    fn around(first: u64) -> Block {
        Block {
            base: bucket_index(first).saturating_sub(BELOW).min(BUCKETS - WINDOW),
            window: Default::default(),
            far: Default::default(),
            spill: OnceLock::new(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Every bucket's count, by bucket index.
    fn counts(&self) -> [u64; BUCKETS] {
        let mut counts = [0; BUCKETS];
        if let Some(spill) = self.spill.get() {
            for (c, b) in counts.iter_mut().zip(spill.iter()) {
                *c = b.load(Ordering::Relaxed);
            }
        }
        for (c, b) in counts[self.base..].iter_mut().zip(&self.window) {
            *c += b.load(Ordering::Relaxed);
        }
        for slot in &self.far {
            let held = slot.load(Ordering::Relaxed);
            if let Some(i) = ((held >> FAR_TAG) as usize).checked_sub(1) {
                counts[i] += held & ((1 << FAR_TAG) - 1);
            }
        }
        counts
    }

    /// The far slot counting bucket `i`: the one that already does, else
    /// the first unclaimed one, claimed; `None` once all count others.
    /// Slots are claimed in order and never released, so concurrent
    /// recorders of one bucket settle on one slot.
    fn far(&self, i: usize) -> Option<&AtomicU64> {
        let tag = (i as u64 + 1) << FAR_TAG;
        self.far.iter().find(|slot| {
            let mut held = slot.load(Ordering::Relaxed);
            if held == 0 {
                let claim = slot.compare_exchange(0, tag, Ordering::Relaxed, Ordering::Relaxed);
                held = claim.map_or_else(|now| now, |_| tag);
            }
            held >> FAR_TAG == tag >> FAR_TAG
        })
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let block = self.block.get_or_init(|| Box::new(Block::around(v)));
        let i = bucket_index(v);
        let bucket = i.checked_sub(block.base).and_then(|k| block.window.get(k));
        let bucket = bucket.or_else(|| block.far(i)).unwrap_or_else(|| {
            &block.spill.get_or_init(|| Box::new([(); BUCKETS].map(|()| 0.into())))[i]
        });
        bucket.fetch_add(1, Ordering::Relaxed);
        block.sum.fetch_add(v, Ordering::Relaxed);
        if v < block.min.load(Ordering::Relaxed) {
            block.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > block.max.load(Ordering::Relaxed) {
            block.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.block.get().map_or(0, |block| block.counts().iter().sum())
    }

    /// Sum of all recorded samples. Reading `sum` before and after a
    /// compound operation attributes its cost without a wrapping timer.
    pub fn sum(&self) -> u64 {
        self.block.get().map_or(0, |block| block.sum.load(Ordering::Relaxed))
    }

    /// A consistent-enough point-in-time copy (individual fields are read
    /// atomically, and `count` is the sum of the buckets read; concurrent
    /// recording can skew `sum`, `min` and `max` against the buckets by at
    /// most the in-flight samples).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(block) = self.block.get() else {
            return HistogramSnapshot { count: 0, sum: 0, min: 0, max: 0, buckets: Vec::new() };
        };
        let counts = block.counts();
        let filled = counts.iter().enumerate().filter(|&(_, &n)| n > 0);
        let buckets: Vec<_> = filled.map(|(i, &n)| (bucket_upper(i), n)).collect();
        let count = buckets.iter().map(|&(_, n)| n).sum();
        HistogramSnapshot {
            count,
            sum: block.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { block.min.load(Ordering::Relaxed) },
            max: block.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (saturating only at `u64` wrap).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive_upper_bound, sample_count)`,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The bucket upper bound at or below which a fraction `q` (clamped to
    /// `0..=1`) of samples fall. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // The true max is a tighter bound for the last bucket.
                return upper.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let h = Histogram::default();
        assert!(h.block.get().is_none(), "nothing allocated before the first sample");
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), (1000 * 1001 / 2) / 1000);
        // p50 of 1..=1000 is 500; the bucket bound answer is 511 (2^9 - 1).
        assert_eq!(s.quantile(0.5), 511);
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.quantile(0.0), 1); // first bucket with any sample
    }

    /// Concurrent recorders leave every field exact: no sample lost from
    /// the count, the sum or a bucket, and both extremes found while the
    /// other threads keep moving them.
    #[test]
    fn concurrent_recording_keeps_count_sum_min_max_exact() {
        const THREADS: u64 = 4;
        const SAMPLES: u64 = 100_000;
        let h = Histogram::default();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (h, start) = (&h, &start);
                scope.spawn(move || {
                    start.wait();
                    // Each thread walks its own residue class, downwards on
                    // even threads and upwards on odd ones, so both extremes
                    // keep moving while the others record.
                    for i in 0..SAMPLES {
                        let k = if t % 2 == 0 { SAMPLES - 1 - i } else { i };
                        h.record(10 + k * THREADS + t);
                    }
                });
            }
        });
        let s = h.snapshot();
        let n = THREADS * SAMPLES;
        assert_eq!(s.count, n);
        assert_eq!(s.sum, 10 * n + n * (n - 1) / 2);
        assert_eq!((s.min, s.max), (10, 10 + n - 1));
        assert_eq!(s.buckets.iter().map(|&(_, c)| c).sum::<u64>(), n);
    }

    /// The seed of the model tests: `HIST_SEED`, or a fixed one.
    fn seed() -> u64 {
        match std::env::var("HIST_SEED") {
            Ok(v) => v.parse().unwrap_or_else(|_| panic!("HIST_SEED {v:?} is not a u64")),
            Err(_) => 36,
        }
    }

    /// splitmix64: a seeded stream of well-mixed `u64`s.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A sample around `2^exp`: the edges, the first sample's
        /// neighbourhood, and values far above and below its window.
        fn sample(&mut self, exp: u32) -> u64 {
            let shift = self.below(20) as u32;
            let e = match self.below(8) {
                0 => return [0, 1, u64::MAX][self.below(3) as usize],
                1 => return self.next() >> self.below(64),
                2 => exp + 17 + shift,
                3 => exp.saturating_sub(11 + shift),
                _ => (exp + shift % 16).saturating_sub(10),
            };
            // A value in bucket `e`: its top bit, then random bits below.
            match e.min(64) {
                0 => 0,
                e => (1u64 << (e - 1)) | self.next().checked_shr(65 - e).unwrap_or(0),
            }
        }
    }

    /// The reference: every sample counted in a plain 65-bucket array.
    struct Model {
        buckets: [u64; BUCKETS],
        sum: u64,
        min: Option<u64>,
        max: u64,
    }

    impl Model {
        fn new() -> Model {
            Model { buckets: [0; BUCKETS], sum: 0, min: None, max: 0 }
        }

        fn record(&mut self, v: u64) {
            self.buckets[bucket_index(v)] += 1;
            self.sum = self.sum.wrapping_add(v);
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = self.max.max(v);
        }

        fn snapshot(&self) -> HistogramSnapshot {
            let filled = self.buckets.iter().enumerate().filter(|&(_, &n)| n > 0);
            HistogramSnapshot {
                count: self.buckets.iter().sum(),
                sum: self.sum,
                min: self.min.unwrap_or(0),
                max: self.max,
                buckets: filled.map(|(i, &n)| (bucket_upper(i), n)).collect(),
            }
        }
    }

    /// Seeded sample sequences — 0, 1 and `u64::MAX` among them, and
    /// samples far above and below the window the first one places —
    /// leave the histogram's count, sum, extremes and every bucket where a
    /// plain 65-bucket array leaves them, after every sample.
    #[test]
    fn matches_a_plain_model_sample_by_sample() {
        let seed = seed();
        eprintln!("HIST_SEED={seed}");
        let mut rng = Rng(seed);
        for case in 0..200 {
            let (h, mut model) = (Histogram::default(), Model::new());
            let exp = rng.below(65) as u32;
            for step in 0..1 + rng.below(300) {
                let v = rng.sample(exp);
                h.record(v);
                model.record(v);
                let what = format!("HIST_SEED={seed} case {case} step {step} sample {v}");
                assert_eq!(h.snapshot(), model.snapshot(), "{what}");
                assert_eq!((h.count(), h.sum()), (model.snapshot().count, model.sum), "{what}");
            }
        }
    }

    /// Two threads recording seeded sequences into one histogram at once —
    /// racing for its block and for its full bucket array — leave it
    /// exactly where the model fed both sequences leaves it.
    #[test]
    fn matches_a_plain_model_under_two_recorders() {
        let seed = seed();
        eprintln!("HIST_SEED={seed}");
        let mut rng = Rng(seed ^ 0x2);
        for case in 0..50 {
            let exp = rng.below(65) as u32;
            let runs: Vec<Vec<u64>> =
                (0..2).map(|_| (0..2_000).map(|_| rng.sample(exp)).collect()).collect();
            let h = Histogram::default();
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for run in &runs {
                    let (h, start) = (&h, &start);
                    scope.spawn(move || {
                        start.wait();
                        run.iter().for_each(|&v| h.record(v));
                    });
                }
            });
            let mut model = Model::new();
            runs.iter().flatten().for_each(|&v| model.record(v));
            assert_eq!(h.snapshot(), model.snapshot(), "HIST_SEED={seed} case {case}");
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        let g = Gauge::default();
        g.set(-5);
        g.add(10);
        assert_eq!(g.get(), 5);
    }
}
