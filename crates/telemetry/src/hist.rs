//! Log-bucketed histograms for latency/size metrics.
//!
//! Values below 32 get exact unit buckets; above that, each power-of-two
//! range splits into 16 linear sub-buckets (an HdrHistogram with 4
//! significant bits), so percentile estimates carry at most ~3% relative
//! quantisation error while a histogram stays a flat 8 KB of counters.
//! Values are plain `u64` — callers record nanoseconds, bytes or rows;
//! the histogram is unit-agnostic.

/// Exact buckets for values `0..LINEAR_CUTOFF`.
const LINEAR_CUTOFF: u64 = 32;
/// First exponent handled by the log region (`2^5 == LINEAR_CUTOFF`).
const FIRST_EXP: u32 = 5;
/// Sub-buckets per power-of-two range.
const SUBS: usize = 16;
/// Total bucket count: 32 exact + (exponents 5..=63) x 16 sub-buckets.
const NUM_BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - FIRST_EXP as usize) * SUBS;

/// A log-bucketed histogram of `u64` observations.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= FIRST_EXP
    let sub = ((v >> (exp - 4)) & 0xF) as usize;
    LINEAR_CUTOFF as usize + (exp - FIRST_EXP) as usize * SUBS + sub
}

/// Midpoint of a bucket's value range — the percentile estimate returned
/// for observations that landed in it.
fn bucket_mid(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR_CUTOFF as usize;
    let exp = FIRST_EXP + (rel / SUBS) as u32;
    let sub = (rel % SUBS) as u64;
    let width = 1u64 << (exp - 4);
    let lo = (1u64 << exp) + sub * width;
    lo + width / 2
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact arithmetic mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`).
    ///
    /// Edge cases are exact rather than bucket artifacts: an empty
    /// histogram returns `None`, and when every observation was the same
    /// value (in particular a single observation) the quantile *is* that
    /// value at every `q`. Otherwise the estimate is the hit bucket's
    /// midpoint, clamped to the observed `[min, max]` range (~3%
    /// relative error above 32, exact below).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if self.min == self.max {
            return Some(self.min);
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_mid(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotonic_and_cover_u64() {
        let mut last = 0;
        for &v in &[0u64, 1, 31, 32, 33, 100, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket order broke at {v}");
            assert!(idx < NUM_BUCKETS);
            last = idx;
        }
    }

    #[test]
    fn bucket_mid_is_within_3_percent() {
        for v in [33u64, 100, 999, 12_345, 1 << 30, u64::MAX / 3] {
            let mid = bucket_mid(bucket_index(v));
            let rel = (mid as f64 - v as f64).abs() / v as f64;
            assert!(rel <= 0.032, "value {v} -> mid {mid} (rel {rel})");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(15));
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.mean(), 15.5);
    }

    #[test]
    fn empty_histogram_has_zero_count_and_mean() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn empty_histogram_quantile_is_none() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
    }

    #[test]
    fn single_observation_quantiles_are_exact() {
        // 12_345 sits deep in the log region, where a bucket midpoint
        // would otherwise leak through as an artifact.
        let mut h = Histogram::new();
        h.record(12_345);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(12_345), "q={q}");
        }
        assert_eq!(h.min(), 12_345);
        assert_eq!(h.max(), 12_345);
    }

    #[test]
    fn constant_stream_quantiles_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(9_999);
        }
        assert_eq!(h.quantile(0.5), Some(9_999));
        assert_eq!(h.quantile(0.99), Some(9_999));
    }
}
