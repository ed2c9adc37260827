//! Log-bucket latency histograms.
//!
//! Event counts are plain `u64` fields; every latency sample in the
//! simulator is recorded once, into the one [`LogHistogram`] of its class,
//! and every aggregate (a run-wide mean, a per-class split) is a merge of
//! those. All statistics are plain data: cloning a stats struct snapshots
//! it.

/// A histogram with power-of-two (logarithmic) buckets covering all of
/// `u64` — no overflow bucket, no width to choose.
///
/// Bucket 0 holds the sample `0`; bucket `k ≥ 1` holds samples in
/// `[2^(k-1), 2^k - 1]`. Latency distributions span orders of magnitude
/// (a bypassed single-hop flit vs. a congested cross-chip data packet),
/// which fixed-width buckets cannot cover without either losing the low
/// end or overflowing the high end.
///
/// # Examples
///
/// ```
/// use scorpio_sim::stats::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// h.record(0); // bucket 0
/// h.record(5); // bucket 3: [4, 7]
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.percentile(1.0), Some(7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// One bucket per possible bit-length, plus bucket 0 for the value 0.
    buckets: [u64; 65],
    count: u64,
    /// `u64::MAX` while empty, so merging an empty histogram changes nothing.
    min: u64,
    max: u64,
    sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// The bucket index a sample falls into: its bit length (0 for 0).
    #[inline]
    pub(crate) fn bucket_of(sample: u64) -> usize {
        (64 - sample.leading_zeros()) as usize
    }

    /// The largest value bucket `idx` holds: `2^idx - 1` (0 for bucket 0).
    ///
    /// # Panics
    ///
    /// Panics if `idx > 64`.
    pub(crate) fn bucket_edge(idx: usize) -> u64 {
        assert!(idx <= 64, "log bucket index out of range");
        if idx >= 64 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        self.buckets[Self::bucket_of(sample)] += 1;
        self.count += 1;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
        // Saturating: pathological samples (e.g. `u64::MAX` probes in
        // tests) must not poison the whole histogram with a panic.
        self.sum = self.sum.saturating_add(sample);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples — lets readers reconcile bucket-granular
    /// percentiles against the scalar means the report already carries.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The smallest sample recorded, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// The largest sample recorded, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets, in ascending order, as `(index, count)` —
    /// the sparse form the report renderer emits.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The smallest bucket edge `v` such that at least `fraction` of
    /// samples are `<= v`. `None` if empty. Bucket-granular: the true
    /// percentile lies within the returned bucket.
    pub fn percentile(&self, fraction: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((fraction.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if count > 0 && seen >= target {
                return Some(Self::bucket_edge(idx));
            }
        }
        unreachable!("count > 0 guarantees a non-empty bucket is reached")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_tracks_extremes() {
        let mut a = LogHistogram::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.min(), None);
        a.record(5);
        a.record(1);
        a.record(9);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(9));
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 15);
        assert!((a.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn log_histogram_merge() {
        let mut a = LogHistogram::new();
        a.record(1);
        a.record(3);
        let mut b = LogHistogram::new();
        b.record(10);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(10));
        assert_eq!(a.min(), Some(1));

        let mut empty = LogHistogram::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 3);
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, before);

        // Merging the two sides of any split of a sample set, an empty
        // side included, equals recording the whole set.
        let samples = [7, 0, 300, 7, 1, 64, 2];
        let mut whole = LogHistogram::new();
        samples.iter().for_each(|&v| whole.record(v));
        for cut in 0..=samples.len() {
            let (mut left, mut right) = (LogHistogram::new(), LogHistogram::new());
            samples[..cut].iter().for_each(|&v| left.record(v));
            samples[cut..].iter().for_each(|&v| right.record(v));
            left.merge(&right);
            assert!(left.nonzero_buckets().eq(whole.nonzero_buckets()));
            assert_eq!(
                (left.count(), left.sum(), left.min(), left.max()),
                (whole.count(), whole.sum(), whole.min(), whole.max()),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn log_histogram_bucketing() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(255), 8);
        assert_eq!(LogHistogram::bucket_of(256), 9);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_edge(0), 0);
        assert_eq!(LogHistogram::bucket_edge(3), 7);
        assert_eq!(LogHistogram::bucket_edge(64), u64::MAX);
        let mut h = LogHistogram::new();
        for v in [0, 1, 3, 100, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), Some(u64::MAX));
        let sparse: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(sparse, vec![(0, 1), (1, 1), (2, 1), (7, 1), (64, 1)]);
    }

    #[test]
    fn log_histogram_percentiles_and_merge() {
        let empty = LogHistogram::new();
        assert_eq!(empty.percentile(0.5), None);
        assert_eq!(empty.max(), None);
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record(10); // bucket 4: [8, 15]
        }
        h.record(1000); // bucket 10: [512, 1023]
        assert_eq!(h.percentile(0.0), Some(15));
        assert_eq!(h.percentile(0.5), Some(15));
        assert_eq!(h.percentile(0.99), Some(15));
        assert_eq!(h.percentile(0.999), Some(1023));
        assert_eq!(h.percentile(1.0), Some(1023));
        let mut other = LogHistogram::new();
        other.record(2000);
        h.merge(&other);
        assert_eq!(h.count(), 101);
        assert_eq!(h.max(), Some(2000));
        assert_eq!(h.percentile(1.0), Some(2047));
    }
}
