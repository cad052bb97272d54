//! Order statistics over samples and over rounds.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// Sorts in place. Returns 0 for an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of samples measured in whole units (nanoseconds) that tie a lot:
/// the grouped median, which treats each value `x` as the interval
/// `x ± 0.5` and interpolates inside the interval holding the middle rank.
/// A sub-microsecond span read by a nanosecond clock would otherwise report
/// the same integer run after run. Sorts in place; 0 for an empty slice.
pub fn median_grouped(samples: &mut [u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let n = samples.len();
    let x = samples[n / 2];
    let below = samples.partition_point(|&s| s < x);
    let tied = samples.partition_point(|&s| s <= x) - below;
    x as f64 - 0.5 + (n as f64 / 2.0 - below as f64) / tied as f64
}

/// Median of per-round values (mean of the middle two for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    /// Brute force: count, for every candidate, how many samples are at
    /// or below it.
    fn percentile_brute(samples: &[u64], q: f64) -> u64 {
        let need = (q * samples.len() as f64).ceil().max(1.0) as usize;
        samples
            .iter()
            .copied()
            .filter(|&c| samples.iter().filter(|&&s| s <= c).count() >= need)
            .min()
            .unwrap_or(0)
    }

    #[test]
    fn percentile_matches_brute_force() {
        let mut rng = Rng::new(3, 0);
        for n in [1usize, 2, 3, 10, 99, 100, 101] {
            let samples: Vec<u64> = (0..n).map(|_| rng.below(50)).collect();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
                let got = percentile(&mut samples.clone(), q);
                assert_eq!(got, percentile_brute(&samples, q), "n={n} q={q}");
            }
        }
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn grouped_median_interpolates_inside_the_tied_value() {
        // Python's statistics.median_grouped gives the same numbers.
        assert_eq!(median_grouped(&mut [1, 2, 2, 3, 4, 4, 4, 4, 4, 5]), 3.7);
        assert_eq!(median_grouped(&mut [52, 52, 53, 54]), 52.5);
        assert_eq!(median_grouped(&mut [7]), 7.0);
        assert_eq!(median_grouped(&mut []), 0.0);
        // Without ties it is within half a unit of the plain median.
        let mut rng = Rng::new(8, 0);
        let mut v: Vec<u64> = (0..101).map(|i| i * 10 + rng.below(3)).collect();
        let plain = percentile(&mut v.clone(), 0.5) as f64;
        assert!((median_grouped(&mut v) - plain).abs() <= 0.5);
    }

    #[test]
    fn median_of_rounds_matches_brute_force() {
        let mut rng = Rng::new(4, 0);
        for n in 1..=9usize {
            let v: Vec<f64> = (0..n).map(|_| rng.below(1000) as f64 / 7.0).collect();
            // Brute force: the value(s) with as many samples below as above.
            let mut sorted = v.clone();
            sorted.sort_by(f64::total_cmp);
            let lo = sorted[(n - 1) / 2];
            let hi = sorted[n / 2];
            assert_eq!(median(&v), (lo + hi) / 2.0, "n={n}");
            assert!(min(&v) <= median(&v) && median(&v) <= max(&v));
        }
        assert_eq!(median(&[]), 0.0);
    }
}
