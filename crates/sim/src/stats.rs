//! Counters, latency accumulators and log-bucket histograms.
//!
//! Every module in the simulator reports through these types so that the
//! experiment harness can print uniform tables. All statistics are plain
//! data: cloning a stats struct snapshots it.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use scorpio_sim::stats::Counter;
///
/// let mut flits = Counter::new();
/// flits.add(3);
/// flits.incr();
/// assert_eq!(flits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Accumulates samples and reports count / mean / min / max.
///
/// Used for every latency figure in the evaluation (network latency, L2
/// service latency, ordering delay, ...).
///
/// # Examples
///
/// ```
/// use scorpio_sim::stats::Accumulator;
///
/// let mut lat = Accumulator::new();
/// lat.record(10);
/// lat.record(20);
/// assert_eq!(lat.count(), 2);
/// assert_eq!(lat.mean(), 15.0);
/// assert_eq!(lat.min(), Some(10));
/// assert_eq!(lat.max(), Some(20));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accumulator {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Accumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.2} min={} max={}",
                self.count,
                self.mean(),
                self.min,
                self.max
            )
        }
    }
}

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

    /// The largest sample recorded, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or 0.0 when empty (as [`Accumulator::mean`]).
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
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
    }

    #[test]
    fn accumulator_tracks_extremes() {
        let mut a = Accumulator::new();
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
    fn accumulator_merge() {
        let mut a = Accumulator::new();
        a.record(1);
        a.record(3);
        let mut b = Accumulator::new();
        b.record(10);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(10));
        assert_eq!(a.min(), Some(1));

        let mut empty = Accumulator::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 3);
        let before = a;
        a.merge(&Accumulator::new());
        assert_eq!(a, before);
    }

    #[test]
    fn accumulator_display() {
        let mut a = Accumulator::new();
        assert_eq!(a.to_string(), "n=0");
        a.record(4);
        assert!(a.to_string().contains("mean=4.00"));
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

    #[test]
    fn log_histogram_mean_matches_accumulator() {
        assert_eq!(LogHistogram::new().mean(), 0.0);
        assert_eq!(LogHistogram::new().mean(), Accumulator::new().mean());
        let mut h = LogHistogram::new();
        let mut a = Accumulator::new();
        for v in [3, 4, 10] {
            h.record(v);
            a.record(v);
        }
        assert_eq!(h.mean(), 17.0 / 3.0);
        assert_eq!(h.mean().to_bits(), a.mean().to_bits());
    }
}
