//! Region tracker: a RegionScout-style destination snoop filter
//! (Table 1: 4 KB regions, 128 entries).
//!
//! Tracks which 4 KB regions have any line resident in the L2 so incoming
//! snoops to absent regions skip the tag lookup. The tracker is counting
//! and conservative: if the entry table overflows, the spilled regions are
//! kept in an unbounded side table that is *charged as unfiltered* — the
//! filter loses its benefit but never its correctness.

use scorpio_coherence::LineAddr;
use scorpio_sim::stats::Counter;
use std::collections::HashMap;

/// Region tracker statistics.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegionTrackerStats {
    /// Snoops skipped thanks to the filter.
    pub filtered: Counter,
    /// Snoops that had to look up the L2 tags.
    pub unfiltered: Counter,
    /// Region insertions that spilled past the entry table.
    pub overflows: Counter,
}

/// The region tracker.
///
/// # Examples
///
/// ```
/// use scorpio_mem::RegionTracker;
/// use scorpio_coherence::LineAddr;
///
/// let mut rt = RegionTracker::new(128);
/// rt.line_filled(LineAddr(0x1040));
/// assert!(rt.may_be_present(LineAddr(0x1000))); // same 4 KB region
/// assert!(!rt.may_be_present(LineAddr(0x9000)));
/// rt.line_evicted(LineAddr(0x1040));
/// assert!(!rt.may_be_present(LineAddr(0x1000)));
/// ```
#[derive(Debug, Clone)]
pub struct RegionTracker {
    entries: HashMap<u64, u32>,
    capacity: usize,
    /// Spill table: regions present in the cache but not representable in
    /// the entry budget; queries touching these count as unfiltered.
    spill: HashMap<u64, u32>,
    /// Statistics.
    pub(crate) stats: RegionTrackerStats,
}

impl RegionTracker {
    /// A tracker with `capacity` region entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "region tracker needs capacity");
        RegionTracker {
            entries: HashMap::with_capacity(capacity),
            capacity,
            spill: HashMap::new(),
            stats: RegionTrackerStats::default(),
        }
    }

    /// Records that a line of `addr`'s region is now resident.
    pub fn line_filled(&mut self, addr: LineAddr) {
        let region = addr.region();
        if let Some(count) = self.entries.get_mut(&region) {
            *count += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(region, 1);
        } else {
            self.stats.overflows.incr();
            *self.spill.entry(region).or_insert(0) += 1;
        }
    }

    /// Records that a line of `addr`'s region left the cache.
    ///
    /// # Panics
    ///
    /// Panics if the region was never recorded (an accounting bug).
    pub fn line_evicted(&mut self, addr: LineAddr) {
        let region = addr.region();
        if let Some(count) = self.entries.get_mut(&region) {
            *count -= 1;
            if *count == 0 {
                self.entries.remove(&region);
                // Promote a spilled region into the freed slot.
                if let Some((&r, _)) = self.spill.iter().next() {
                    let c = self.spill.remove(&r).expect("just observed");
                    self.entries.insert(r, c);
                }
            }
            return;
        }
        let count = self
            .spill
            .get_mut(&region)
            .expect("evicted line from untracked region");
        *count -= 1;
        if *count == 0 {
            self.spill.remove(&region);
        }
    }

    /// Snoop-filter query: could a line of `addr`'s region be resident?
    /// `false` means the snoop can safely skip the L2 tags.
    pub fn may_be_present(&mut self, addr: LineAddr) -> bool {
        let region = addr.region();
        if self.entries.contains_key(&region) || self.spill.contains_key(&region) {
            self.stats.unfiltered.incr();
            true
        } else {
            self.stats.filtered.incr();
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_lines_per_region() {
        let mut rt = RegionTracker::new(4);
        rt.line_filled(LineAddr(0x1000));
        rt.line_filled(LineAddr(0x1020));
        rt.line_evicted(LineAddr(0x1000));
        assert!(rt.may_be_present(LineAddr(0x1FE0)));
        rt.line_evicted(LineAddr(0x1020));
        assert!(!rt.may_be_present(LineAddr(0x1FE0)));
    }

    #[test]
    fn overflow_stays_conservative() {
        let mut rt = RegionTracker::new(2);
        rt.line_filled(LineAddr(0x1000));
        rt.line_filled(LineAddr(0x2000));
        rt.line_filled(LineAddr(0x3000)); // spills
        assert_eq!(rt.stats.overflows.get(), 1);
        assert!(
            rt.may_be_present(LineAddr(0x3000)),
            "spilled region must still snoop"
        );
        // Freeing an entry promotes the spilled region.
        rt.line_evicted(LineAddr(0x1000));
        assert_eq!(rt.entries.len(), 2);
        assert!(rt.may_be_present(LineAddr(0x3000)));
        assert!(!rt.may_be_present(LineAddr(0x1000)));
    }

    #[test]
    fn stats_count_filter_outcomes() {
        let mut rt = RegionTracker::new(2);
        rt.line_filled(LineAddr(0x1000));
        rt.may_be_present(LineAddr(0x1000));
        rt.may_be_present(LineAddr(0x5000));
        assert_eq!(rt.stats.unfiltered.get(), 1);
        assert_eq!(rt.stats.filtered.get(), 1);
    }

    #[test]
    #[should_panic(expected = "untracked region")]
    fn unbalanced_eviction_panics() {
        let mut rt = RegionTracker::new(2);
        rt.line_evicted(LineAddr(0x1000));
    }
}
