//! Region tracker: a RegionScout-style destination snoop filter
//! (Table 1: 4 KB regions, 128 entries).
//!
//! Tracks which 4 KB regions have any line resident in the L2 so incoming
//! snoops to absent regions skip the tag lookup. The tracker counts the
//! resident lines of every region with one, exactly: the 128-entry budget
//! only pre-sizes its table, and a region past it is tracked like any
//! other. The filter never skips a snoop to a resident line.

use scorpio_coherence::LineAddr;
use std::collections::HashMap;

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
    /// Resident lines per region, for every region with one.
    lines: HashMap<u64, u32>,
}

impl RegionTracker {
    /// A tracker sized for `capacity` regions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "region tracker needs capacity");
        RegionTracker {
            lines: HashMap::with_capacity(capacity),
        }
    }

    /// Records that a line of `addr`'s region is now resident.
    pub fn line_filled(&mut self, addr: LineAddr) {
        *self.lines.entry(addr.region()).or_insert(0) += 1;
    }

    /// Records that a line of `addr`'s region left the cache.
    ///
    /// # Panics
    ///
    /// Panics if the region was never recorded (an accounting bug).
    pub fn line_evicted(&mut self, addr: LineAddr) {
        let region = addr.region();
        let count = self
            .lines
            .get_mut(&region)
            .expect("evicted line from untracked region");
        *count -= 1;
        if *count == 0 {
            self.lines.remove(&region);
        }
    }

    /// Snoop-filter query: could a line of `addr`'s region be resident?
    /// `false` means the snoop can safely skip the L2 tags.
    pub fn may_be_present(&self, addr: LineAddr) -> bool {
        self.lines.contains_key(&addr.region())
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
        // Twice the size hint in regions, two lines each: every region
        // stays exact through evictions.
        let mut rt = RegionTracker::new(2);
        let regions: Vec<u64> = (1..=4).map(|r| r * 0x1000).collect();
        for &r in &regions {
            rt.line_filled(LineAddr(r));
            rt.line_filled(LineAddr(r + 0x20));
        }
        for &r in &regions {
            assert!(rt.may_be_present(LineAddr(r)), "region {r:#x} must snoop");
        }
        rt.line_evicted(LineAddr(0x1000));
        rt.line_evicted(LineAddr(0x3020));
        rt.line_evicted(LineAddr(0x3000));
        assert!(
            rt.may_be_present(LineAddr(0x1000)),
            "one line still resident"
        );
        assert!(!rt.may_be_present(LineAddr(0x3000)), "region emptied");
        assert!(rt.may_be_present(LineAddr(0x4000)));
        rt.line_evicted(LineAddr(0x4000));
        rt.line_evicted(LineAddr(0x4020));
        assert!(!rt.may_be_present(LineAddr(0x4000)));
        assert!(rt.may_be_present(LineAddr(0x2000)));
        assert_eq!(rt.lines.len(), 2);
    }

    #[test]
    fn stats_count_filter_outcomes() {
        let mut rt = RegionTracker::new(2);
        rt.line_filled(LineAddr(0x1000));
        assert!(rt.may_be_present(LineAddr(0x1000)), "resident: snoop");
        assert!(!rt.may_be_present(LineAddr(0x5000)), "absent: filtered");
        // A query changes nothing.
        assert!(rt.may_be_present(LineAddr(0x1000)));
        assert!(!rt.may_be_present(LineAddr(0x5000)));
    }

    #[test]
    #[should_panic(expected = "untracked region")]
    fn unbalanced_eviction_panics() {
        let mut rt = RegionTracker::new(2);
        rt.line_evicted(LineAddr(0x1000));
    }
}
