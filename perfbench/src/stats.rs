//! Order statistics and digests shared by the timed loop, the traced run
//! and the probes.

use std::fmt;

use rthv::time::Duration;
use rthv_stats::LatencyHistogram;

/// Samples a reported percentile must leave strictly beyond its rank, so a
/// tail figure never rests on a handful of observations.
pub const MIN_BEYOND: usize = 10;

/// A percentile the sample set is too small to support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PercentileError {
    /// The requested percentile, in permille.
    pub permille: u32,
    /// Samples available.
    pub samples: usize,
    /// Samples the request needs.
    pub needed: usize,
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs {} samples ({} beyond its rank), got {}",
            f64::from(self.permille) / 10.0,
            self.needed,
            MIN_BEYOND,
            self.samples
        )
    }
}

impl std::error::Error for PercentileError {}

/// 1-based nearest rank of the `permille` percentile among `n` samples.
fn rank(n: usize, permille: u32) -> usize {
    ((n as u128 * u128::from(permille)).div_ceil(1000) as usize).max(1)
}

/// Nearest-rank percentile of `samples` (sorted in place), refusing any
/// request that leaves fewer than [`MIN_BEYOND`] samples beyond the rank.
///
/// # Errors
///
/// [`PercentileError`] when the sample set is too small.
pub fn percentile<T: Copy + PartialOrd>(
    samples: &mut [T],
    permille: u32,
) -> Result<T, PercentileError> {
    let n = samples.len();
    let r = rank(n, permille);
    if n < r + MIN_BEYOND || n == 0 {
        let mut needed = MIN_BEYOND;
        while needed < rank(needed, permille) + MIN_BEYOND {
            needed += 1;
        }
        return Err(PercentileError {
            permille,
            samples: n,
            needed,
        });
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are ordered"));
    Ok(samples[r - 1])
}

/// Percentile of a binned latency distribution, linearly interpolated
/// inside the bin holding the rank (ranks in the overflow bin report the
/// histogram range). Same refusal rule as [`percentile`].
///
/// # Errors
///
/// [`PercentileError`] when the histogram holds too few samples.
pub fn histogram_percentile(
    histogram: &LatencyHistogram,
    permille: u32,
) -> Result<Duration, PercentileError> {
    let n = histogram.count() as usize;
    let r = rank(n, permille);
    if n < r + MIN_BEYOND || n == 0 {
        return Err(PercentileError {
            permille,
            samples: n,
            needed: r + MIN_BEYOND,
        });
    }
    let mut below = 0u64;
    for i in 0..histogram.bins() {
        let count = histogram.bin_count(i);
        if below + count >= r as u64 {
            let width = histogram.bin_width().as_nanos() as f64;
            let into = (r as u64 - below) as f64 / count as f64;
            let ns = histogram.bin_start(i).as_nanos() as f64 + width * into;
            return Ok(Duration::from_nanos(ns.round() as u64));
        }
        below += count;
    }
    Ok(histogram.range())
}

/// Median of a non-empty slice of floats (mean of the middle pair).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Best, quartiles and median of repeated measurements of one quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Lowest sample.
    pub best: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub k: usize,
}

impl Spread {
    /// Summarizes `values` (empty input gives all zeros).
    #[must_use]
    pub fn of(values: &[f64]) -> Spread {
        if values.is_empty() {
            return Spread {
                best: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                k: 0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        Spread {
            best: sorted[0],
            q1: at(0.25),
            median: median(&sorted),
            q3: at(0.75),
            k: sorted.len(),
        }
    }
}

/// FNV-1a over a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Folds a sequence of digests into one, order-sensitively.
#[must_use]
pub fn fold_digests(digests: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(digests.len() * 8);
    for digest in digests {
        bytes.extend_from_slice(&digest.to_le_bytes());
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refuses_fewer_than_ten_samples_beyond_its_rank() {
        let mut short: Vec<f64> = (0..99).map(f64::from).collect();
        let error = percentile(&mut short, 900).expect_err("99 samples leave 9 beyond p90");
        assert_eq!(error.needed, 100);
        let mut enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&mut enough, 900), Ok(89.0));
        let mut tiny: Vec<f64> = Vec::new();
        assert!(percentile(&mut tiny, 500).is_err());
    }

    #[test]
    fn p50_and_p99_thresholds() {
        let mut twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&mut twenty, 500), Ok(10));
        let mut nineteen: Vec<u64> = (1..=19).collect();
        assert!(percentile(&mut nineteen, 500).is_err());
        let mut thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut thousand, 990), Ok(990));
        let mut short: Vec<u64> = (1..=999).collect();
        assert!(percentile(&mut short, 990).is_err());
    }

    #[test]
    fn histogram_percentile_interpolates_within_the_bin() {
        let mut h =
            LatencyHistogram::new(Duration::from_micros(10), Duration::from_micros(100)).unwrap();
        for i in 0..100u64 {
            h.add(Duration::from_micros(i));
        }
        let p50 = histogram_percentile(&h, 500).unwrap();
        assert_eq!(p50, Duration::from_micros(50));
        let small =
            LatencyHistogram::new(Duration::from_micros(10), Duration::from_micros(100)).unwrap();
        assert!(histogram_percentile(&small, 500).is_err());
    }

    #[test]
    fn spread_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.best, s.q1, s.median, s.q3, s.k), (1.0, 2.0, 3.0, 4.0, 5));
    }
}
