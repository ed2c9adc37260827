//! Set-associative cache arrays with LRU replacement.

use scorpio_coherence::{LineAddr, LineState};
use scorpio_sim::SetStore;

/// One resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// The line address (full address, offset stripped).
    pub addr: LineAddr,
    /// Coherence state.
    pub state: LineState,
    /// Logical data value (stands in for the 32-byte contents).
    pub value: u64,
}

/// A set-associative, LRU-replaced cache array.
///
/// Pure storage: coherence decisions live in the controllers. Addresses
/// are mapped by line address; `line_bytes` fixes the offset width. The
/// ways are a [`SetStore`], so an array holds only the sets it touches.
///
/// # Examples
///
/// ```
/// use scorpio_mem::{CacheArray, Line};
/// use scorpio_coherence::{LineAddr, LineState};
///
/// let mut c = CacheArray::new(4, 2, 32);
/// assert!(c.lookup(LineAddr(0x40)).is_none());
/// let evicted = c.insert(Line { addr: LineAddr(0x40), state: LineState::S, value: 7 });
/// assert!(evicted.is_none());
/// assert_eq!(c.lookup(LineAddr(0x40)).unwrap().value, 7);
/// ```
#[derive(Clone)]
pub struct CacheArray {
    store: SetStore<Line>,
    line_bytes: u64,
    use_counter: u64,
}

/// Renders the occupied sets only: an empty 128 KB array prints as `{}`,
/// which keeps `Debug`-based state digests proportional to resident lines.
impl std::fmt::Debug for CacheArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CacheArray(use {}) ", self.use_counter)?;
        std::fmt::Debug::fmt(&self.store, f)
    }
}

impl CacheArray {
    /// An array with `sets` sets of `ways` ways and `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is a power of two and both counts are non-zero.
    pub fn new(sets: usize, ways: usize, line_bytes: u64) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be non-zero");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        CacheArray {
            store: SetStore::new(sets, ways),
            line_bytes,
            use_counter: 0,
        }
    }

    /// Sizes an array from a capacity budget: `capacity_bytes / line_bytes`
    /// lines at the given associativity (sets rounded down to a power of
    /// two).
    pub fn with_capacity(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        let lines = (capacity_bytes / line_bytes).max(1) as usize;
        let sets = (lines / ways).max(1);
        let sets = if sets.is_power_of_two() {
            sets
        } else {
            sets.next_power_of_two() / 2
        };
        CacheArray::new(sets.max(1), ways, line_bytes)
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.store.sets() * self.store.ways()
    }

    fn set_index(&self, addr: LineAddr) -> usize {
        ((addr.0 / self.line_bytes) % self.store.sets() as u64) as usize
    }

    /// Looks up `addr`, updating LRU on hit.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<&Line> {
        self.lookup_mut(addr).map(|line| &*line)
    }

    /// Looks up `addr` mutably, updating LRU on hit.
    pub(crate) fn lookup_mut(&mut self, addr: LineAddr) -> Option<&mut Line> {
        self.use_counter += 1;
        let set = self.set_index(addr);
        self.store.touch(set, self.use_counter, |l| l.addr == addr)
    }

    /// Peeks without touching LRU (for snoops that miss).
    pub(crate) fn peek(&self, addr: LineAddr) -> Option<&Line> {
        self.store.peek(self.set_index(addr), |l| l.addr == addr)
    }

    /// Inserts `line`, returning the evicted victim if the set was full.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (callers must use
    /// `lookup_mut` for updates).
    pub fn insert(&mut self, line: Line) -> Option<Line> {
        self.use_counter += 1;
        assert!(
            self.peek(line.addr).is_none(),
            "line {} already resident",
            line.addr
        );
        let set = self.set_index(line.addr);
        self.store.insert(set, self.use_counter, line)
    }

    /// Removes `addr` from the array, returning the line if present.
    pub(crate) fn remove(&mut self, addr: LineAddr) -> Option<Line> {
        let set = self.set_index(addr);
        self.store.remove(set, |l| l.addr == addr)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the array holds no lines.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(k: u64, state: LineState, value: u64) -> Line {
        Line {
            addr: LineAddr(k * 32),
            state,
            value,
        }
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = CacheArray::new(2, 2, 32);
        c.insert(line(1, LineState::S, 11));
        c.insert(line(2, LineState::M, 22));
        assert_eq!(c.lookup(LineAddr(32)).unwrap().value, 11);
        assert_eq!(c.lookup(LineAddr(64)).unwrap().state, LineState::M);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn evicts_lru_within_set() {
        let mut c = CacheArray::new(1, 2, 32);
        c.insert(line(1, LineState::S, 1));
        c.insert(line(2, LineState::S, 2));
        c.lookup(LineAddr(32)); // touch line 1
        let victim = c.insert(line(3, LineState::S, 3)).expect("eviction");
        assert_eq!(victim.addr, LineAddr(64));
        assert!(c.peek(LineAddr(32)).is_some());
        assert!(c.peek(LineAddr(64)).is_none());
    }

    #[test]
    fn sets_partition_addresses() {
        let mut c = CacheArray::new(2, 1, 32);
        // Lines 0 and 2 map to set 0; line 1 maps to set 1.
        c.insert(line(0, LineState::S, 0));
        c.insert(line(1, LineState::S, 1));
        let v = c
            .insert(line(2, LineState::S, 2))
            .expect("conflict eviction");
        assert_eq!(v.addr, LineAddr(0));
        assert!(c.peek(LineAddr(32)).is_some());
    }

    #[test]
    fn remove_and_mutate() {
        let mut c = CacheArray::new(1, 2, 32);
        c.insert(line(1, LineState::M, 5));
        c.lookup_mut(LineAddr(32)).unwrap().value = 6;
        assert_eq!(c.peek(LineAddr(32)).unwrap().value, 6);
        let removed = c.remove(LineAddr(32)).unwrap();
        assert_eq!(removed.value, 6);
        assert!(c.remove(LineAddr(32)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_sizing_matches_chip_l2() {
        // 128 KB, 4-way, 32 B lines = 4096 lines, 1024 sets.
        let c = CacheArray::with_capacity(128 * 1024, 4, 32);
        assert_eq!(c.capacity_lines(), 4096);
        assert_eq!(c.line_bytes, 32);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut c = CacheArray::new(1, 2, 32);
        c.insert(line(1, LineState::S, 1));
        c.insert(line(1, LineState::S, 1));
    }
}
