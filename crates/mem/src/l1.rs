//! Split L1 caches: write-through, no-write-allocate, with an invalidation
//! port (Section 4.1).
//!
//! The e200 cores were not designed for hardware coherence, so the chip
//! adds an invalidation port and runs the L1s write-through under an
//! inclusion requirement: the L2 invalidates L1 lines whenever it loses or
//! evicts a line, so L1 contents are always a subset of clean L2 contents.

use crate::array::{CacheArray, Line};
use scorpio_coherence::{LineAddr, LineState};

/// A write-through L1 data (or instruction) cache.
///
/// # Examples
///
/// ```
/// use scorpio_mem::L1Cache;
/// use scorpio_coherence::LineAddr;
///
/// let mut l1 = L1Cache::new(16 * 1024, 4, 32);
/// assert_eq!(l1.load(LineAddr(0x40)), None); // cold miss
/// l1.fill(LineAddr(0x40), 7);
/// assert_eq!(l1.load(LineAddr(0x40)), Some(7));
/// l1.invalidate(LineAddr(0x40));
/// assert_eq!(l1.load(LineAddr(0x40)), None);
/// ```
#[derive(Debug, Clone)]
pub struct L1Cache {
    array: CacheArray,
}

impl L1Cache {
    /// An L1 of `capacity_bytes` with `ways` associativity (chip: 16 KB,
    /// 4-way, 32-byte lines).
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        L1Cache {
            array: CacheArray::with_capacity(capacity_bytes, ways, line_bytes),
        }
    }

    /// Attempts a load; `Some(value)` on hit.
    pub fn load(&mut self, addr: LineAddr) -> Option<u64> {
        self.array.lookup(addr).map(|line| line.value)
    }

    /// A store: updates the local copy if present (write-through — the
    /// caller must also send the store to the L2). No-write-allocate:
    /// misses do not fill.
    pub fn store(&mut self, addr: LineAddr, value: u64) {
        if let Some(line) = self.array.lookup_mut(addr) {
            line.value = value;
        }
    }

    /// Fills a line after an L2 response. Returns the evicted victim
    /// address, if any (clean — write-through needs no writeback).
    pub fn fill(&mut self, addr: LineAddr, value: u64) -> Option<LineAddr> {
        if let Some(line) = self.array.lookup_mut(addr) {
            line.value = value;
            return None;
        }
        self.array
            .insert(Line {
                addr,
                state: LineState::S,
                value,
            })
            .map(|victim| victim.addr)
    }

    /// The invalidation port: removes `addr` if present.
    pub fn invalidate(&mut self, addr: LineAddr) {
        self.array.remove(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_through_updates_local_copy() {
        let mut l1 = L1Cache::new(1024, 2, 32);
        l1.fill(LineAddr(0x40), 1);
        l1.store(LineAddr(0x40), 2);
        assert_eq!(l1.load(LineAddr(0x40)), Some(2));
        assert_eq!(l1.array.peek(LineAddr(0x40)).map(|l| l.value), Some(2));
        assert_eq!(l1.array.len(), 1, "a store never allocates a second copy");
    }

    #[test]
    fn no_write_allocate() {
        let mut l1 = L1Cache::new(1024, 2, 32);
        l1.store(LineAddr(0x80), 9);
        assert!(l1.array.peek(LineAddr(0x80)).is_none());
    }

    #[test]
    fn invalidation_port() {
        let mut l1 = L1Cache::new(1024, 2, 32);
        l1.fill(LineAddr(0x40), 1);
        l1.fill(LineAddr(0x80), 2);
        l1.invalidate(LineAddr(0x40));
        assert!(l1.array.peek(LineAddr(0x40)).is_none());
        assert_eq!(l1.load(LineAddr(0x40)), None);
        assert_eq!(l1.array.len(), 1, "only the invalidated line left");
        // Invalidating an absent line is a no-op.
        l1.invalidate(LineAddr(0x40));
        assert_eq!(l1.array.len(), 1);
        assert_eq!(l1.load(LineAddr(0x80)), Some(2));
    }

    #[test]
    fn fill_reports_victim() {
        let mut l1 = L1Cache::new(64, 2, 32); // one set, two ways
        assert_eq!(l1.fill(LineAddr(0x00), 0), None);
        assert_eq!(l1.fill(LineAddr(0x40), 1), None);
        l1.load(LineAddr(0x00));
        let victim = l1.fill(LineAddr(0x80), 2);
        assert_eq!(victim, Some(LineAddr(0x40)));
        assert_eq!(l1.array.len(), 2);
        assert!(!l1.array.is_empty());
    }

    #[test]
    fn refill_same_line_updates_value() {
        let mut l1 = L1Cache::new(1024, 2, 32);
        l1.fill(LineAddr(0x40), 1);
        assert_eq!(l1.fill(LineAddr(0x40), 5), None);
        assert_eq!(l1.load(LineAddr(0x40)), Some(5));
    }

    #[test]
    fn hit_miss_statistics() {
        let mut l1 = L1Cache::new(1024, 2, 32);
        assert_eq!(l1.load(LineAddr(0)), None, "cold miss");
        assert!(l1.array.is_empty(), "a load miss does not fill");
        l1.fill(LineAddr(0), 3);
        assert_eq!(l1.load(LineAddr(0)), Some(3), "hit after the fill");
        assert_eq!(l1.array.len(), 1);
    }
}
