//! Log-bucketed histograms.
//!
//! Values 0..=16 get one exact bucket each, so the small integer
//! latencies the cycle-accurate model produces (the paper's fixed
//! four-cycle slot, small queue depths) report exact quantiles; larger
//! values fall into power-of-two buckets whose quantiles are reported as
//! the bucket's inclusive upper bound. Both regimes are deterministic:
//! identical observations always produce identical quantiles.

use crate::snapshot::HistogramSnapshot;

/// Largest value with its own exact bucket.
const EXACT: u64 = 16;

/// Number of buckets: 17 exact (0..=16) plus one per power of two from
/// 2^4..2^5 up to 2^63.. (the top bucket is unbounded).
pub const BUCKETS: usize = 17 + 60;

/// The bucket a value falls into.
pub fn bucket_of(v: u64) -> usize {
    if v <= EXACT {
        v as usize
    } else {
        // v >= 17 ⇒ floor(log2 v) in 4..=63; log2 17..=31 is 4, sharing
        // the first log bucket with the tail of the exact range.
        17 + (63 - v.leading_zeros() as usize) - 4
    }
}

/// The largest value a bucket holds (inclusive); quantiles report this
/// bound. The top bucket saturates at `u64::MAX`.
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket <= EXACT as usize {
        bucket as u64
    } else {
        let log2 = bucket - 17 + 4;
        if log2 >= 63 {
            u64::MAX
        } else {
            (1u64 << (log2 + 1)) - 1
        }
    }
}

/// One owner's histogram: the bucket counts plus the exact sum and
/// max, recorded through `&mut self`.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The histogram's summary under `name`.
    pub fn snapshot(&self, name: impl Into<String>) -> HistogramSnapshot {
        HistogramSnapshot::from_buckets(name.into(), self.buckets.to_vec(), self.sum, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_are_exact() {
        for v in 0..=16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper_bound(bucket_of(v)), v);
        }
    }

    #[test]
    fn log_buckets_cover_all_of_u64() {
        assert_eq!(bucket_of(17), 17);
        assert_eq!(bucket_of(31), 17);
        assert_eq!(bucket_upper_bound(17), 31);
        assert_eq!(bucket_of(32), 18);
        assert_eq!(bucket_upper_bound(18), 63);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
        // Every value lands in a bucket whose bound covers it.
        for shift in 0..64 {
            let v = 1u64 << shift;
            assert!(bucket_of(v) < BUCKETS);
            assert!(bucket_upper_bound(bucket_of(v)) >= v);
        }
    }

    #[test]
    fn buckets_are_monotone() {
        let mut prev = 0;
        for v in [0, 1, 5, 16, 17, 100, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of({v}) went backwards");
            prev = b;
        }
    }

    #[test]
    fn histogram_quantiles_are_exact_for_small_values() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(4);
        }
        h.observe(12);
        let snap = h.snapshot("cycles");
        assert_eq!(snap.count, 100);
        assert_eq!(snap.quantile(0.50), 4);
        assert_eq!(snap.quantile(0.99), 4);
        assert_eq!(snap.max, 12);
    }

    #[test]
    fn histogram_sum_max_and_count_stay_consistent() {
        let mut shards = [Histogram::new(), Histogram::new()];
        let (mut sum, mut max, mut count) = (0u64, 0u64, 0u64);
        let merged = |shards: &[Histogram; 2]| {
            let mut m = shards[0].snapshot("lat");
            m.merge(&shards[1].snapshot("lat"));
            m
        };
        for i in 0..5_000u64 {
            let v = (i * 7919) % 4099;
            shards[(i % 2) as usize].observe(v);
            sum += v;
            max = max.max(v);
            count += 1;
            if i % 997 == 0 {
                let m = merged(&shards);
                assert_eq!((m.sum, m.max, m.count), (sum, max, count));
            }
        }
        let m = merged(&shards);
        assert_eq!((m.sum, m.max, m.count), (sum, max, count));
        assert_eq!(m.buckets.iter().sum::<u64>(), count);
    }
}
