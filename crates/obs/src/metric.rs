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
/// any `u64` sample lands somewhere and recording is two atomic adds plus
/// min/max maintenance — cheap enough for per-message hot paths. The
/// trade-off is resolution: quantiles from [`Histogram::snapshot`] are
/// bucket upper bounds, i.e. correct within a factor of two. That is exactly
/// the precision needed to separate a "cold" first-message cost (format
/// matching + code generation, typically ≥ 2^14 ns) from the "warm" cached
/// replays (typically ≤ 2^12 ns).
///
/// The buckets are allocated by the first [`Histogram::record`]: a
/// histogram that never records — a cold-path timer on a process that
/// stays warm — costs four words and an empty cell, not 65 words more.
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
#[derive(Debug)]
pub struct Histogram {
    buckets: OnceLock<Box<[AtomicU64; BUCKETS]>>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: OnceLock::new(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let buckets = self.buckets.get_or_init(|| Box::new([(); BUCKETS].map(|()| 0.into())));
        buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples. Reading `sum` before and after a
    /// compound operation attributes its cost without a wrapping timer.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (individual fields are read
    /// atomically; concurrent recording can skew cross-field relations by
    /// at most the in-flight samples).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self.buckets.get().map_or_else(Vec::new, |buckets| {
            let counts = buckets.iter().map(|b| b.load(Ordering::Relaxed));
            let filled = counts.enumerate().filter(|&(_, n)| n > 0);
            filled.map(|(i, n)| (bucket_upper(i), n)).collect()
        });
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
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
        assert!(h.buckets.get().is_none(), "no buckets before the first sample");
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
