//! The active-set primitive behind the skip-idle-work simulation engine.
//!
//! An [`ActiveSet`] tracks which components of a fixed-size population have
//! pending work this cycle: a dense bitset provides O(1) duplicate-free
//! [`ActiveSet::wake`], and draining walks the bitset's words — a zero word
//! is skipped whole, a non-zero one is consumed set bit by set bit — so it
//! needs no sort and stops as soon as every woken member has been seen.
//! Draining yields members in ascending index order, so an engine that
//! replaces a full `for i in 0..n` probe loop with a drained active set
//! visits the same components in the same order — the property the
//! byte-identical equivalence guarantee between the always-scan and
//! active-set engines rests on.
//!
//! # Examples
//!
//! ```
//! use scorpio_sim::ActiveSet;
//!
//! let mut set = ActiveSet::new(8);
//! set.wake(5);
//! set.wake(2);
//! set.wake(5); // duplicate: ignored
//! let mut scratch = Vec::new();
//! set.drain_sorted(&mut scratch);
//! assert_eq!(scratch, vec![2, 5]);
//! assert!(set.is_empty());
//! ```

/// A set of active component indices over a fixed population `0..len`.
///
/// Members are woken by index; draining visits them in ascending order and
/// empties the set. Waking during an iteration over the drained list (the
/// usual "component stays busy, re-arm for next cycle" pattern) is fine:
/// the drained list is a separate buffer owned by the caller.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    /// Dense membership bitset, one bit per component.
    bits: Vec<u64>,
    /// Number of set bits.
    woken: usize,
    population: usize,
}

impl ActiveSet {
    /// An empty set over the population `0..len`.
    pub fn new(len: usize) -> ActiveSet {
        ActiveSet {
            bits: vec![0; len.div_ceil(64)],
            woken: 0,
            population: len,
        }
    }

    /// Whether no member is woken.
    pub fn is_empty(&self) -> bool {
        self.woken == 0
    }

    /// Whether member `idx` is currently woken.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn is_active(&self, idx: usize) -> bool {
        assert!(idx < self.population, "index {idx} out of range");
        self.bits[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Wakes member `idx`; waking an already-active member is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn wake(&mut self, idx: usize) {
        assert!(idx < self.population, "index {idx} out of range");
        let (word, mask) = (idx / 64, 1u64 << (idx % 64));
        self.woken += usize::from(self.bits[word] & mask == 0);
        self.bits[word] |= mask;
    }

    /// Wakes every member of the population.
    pub fn wake_all(&mut self) {
        self.bits.fill(u64::MAX);
        if let Some(last) = self.bits.last_mut() {
            *last >>= (64 - self.population % 64) % 64;
        }
        self.woken = self.population;
    }

    /// Wakes every member whose bit is set in `words` (a bitset over the
    /// same population, e.g. one slot of a timed-wake wheel) and zeroes
    /// `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly this set's word count.
    pub fn wake_words(&mut self, words: &mut [u64]) {
        assert_eq!(words.len(), self.bits.len(), "bitset width mismatch");
        for (mine, theirs) in self.bits.iter_mut().zip(words) {
            self.woken += (*theirs & !*mine).count_ones() as usize;
            *mine |= std::mem::take(theirs);
        }
    }

    /// Moves every member of `other` (a set over the same population) into
    /// this set, leaving `other` empty.
    pub fn absorb(&mut self, other: &mut ActiveSet) {
        self.wake_words(&mut other.bits);
        other.woken = 0;
    }

    /// Empties the set into `out` (cleared first) in ascending index
    /// order. Cost is O(population / 64 + woken), with no sort.
    pub fn drain_sorted(&mut self, out: &mut Vec<u32>) {
        out.clear();
        for (w, word) in self.bits.iter_mut().enumerate() {
            if out.len() == self.woken {
                break;
            }
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        self.woken = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_is_duplicate_free_and_drain_is_sorted() {
        let mut s = ActiveSet::new(100);
        for idx in [99, 0, 42, 0, 99, 7] {
            s.wake(idx);
        }
        assert_eq!(s.woken, 4);
        assert!(s.is_active(42));
        assert!(!s.is_active(41));
        let mut out = Vec::new();
        s.drain_sorted(&mut out);
        assert_eq!(out, vec![0, 7, 42, 99]);
        assert!(s.is_empty());
        assert!(!s.is_active(99));
    }

    #[test]
    fn drain_clears_and_allows_rewake() {
        let mut s = ActiveSet::new(10);
        s.wake(3);
        let mut out = Vec::new();
        s.drain_sorted(&mut out);
        assert_eq!(out, vec![3]);
        // Re-waking after a drain works (the bit was cleared).
        s.wake(3);
        s.wake(4);
        s.drain_sorted(&mut out);
        assert_eq!(out, vec![3, 4]);
    }

    #[test]
    fn wake_all_covers_population() {
        let mut s = ActiveSet::new(65);
        s.wake_all();
        assert_eq!(s.woken, 65);
        let mut out = Vec::new();
        s.drain_sorted(&mut out);
        assert_eq!(out.len(), 65);
        assert_eq!(out[0], 0);
        assert_eq!(out[64], 64);
    }

    #[test]
    fn wake_all_then_drain_matches_waking_one_by_one() {
        for len in [1usize, 63, 64, 65, 128, 272] {
            let (mut all, mut each) = (ActiveSet::new(len), ActiveSet::new(len));
            all.wake(len / 2);
            all.wake_all();
            (0..len).rev().for_each(|i| each.wake(i));
            assert_eq!(all.woken, len);
            assert!(all.is_active(len - 1));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            all.drain_sorted(&mut a);
            each.drain_sorted(&mut b);
            assert_eq!(a, b, "population {len}");
            assert_eq!(a, (0..len as u32).collect::<Vec<_>>());
            assert!(all.is_empty());
            // No stray bit past the population survives in the last word.
            all.wake(0);
            all.drain_sorted(&mut a);
            assert_eq!(a, vec![0]);
        }
    }

    #[test]
    fn wake_words_merges_a_bitset_and_clears_it() {
        let mut s = ActiveSet::new(70);
        s.wake(3);
        let mut slot = vec![(1 << 3) | (1 << 9), 1 << 5];
        s.wake_words(&mut slot);
        assert_eq!(slot, vec![0, 0]);
        assert_eq!(s.woken, 3, "the already-woken member counts once");
        let mut out = Vec::new();
        s.drain_sorted(&mut out);
        assert_eq!(out, vec![3, 9, 69]);
        // `absorb` is the same merge from another set, which it empties.
        let mut other = ActiveSet::new(70);
        other.wake(9);
        other.wake(40);
        s.wake(9);
        s.absorb(&mut other);
        assert!(other.is_empty() && !other.is_active(40));
        s.drain_sorted(&mut out);
        assert_eq!(out, vec![9, 40]);
    }

    /// The two engines' work lists: the always-scan reference wakes the
    /// whole population before draining, the active-set engine drains
    /// just the woken members. Both come out sorted and leave the set
    /// empty.
    #[test]
    fn drain_or_all_covers_both_engines() {
        let mut s = ActiveSet::new(5);
        s.wake(3);
        let mut out = Vec::new();
        s.wake_all();
        s.drain_sorted(&mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
        s.wake(4);
        s.wake(1);
        s.drain_sorted(&mut out);
        assert_eq!(out, vec![1, 4]);
    }

    /// A drain discards every member, a whole-population wake included,
    /// and clears the output buffer first.
    #[test]
    fn clear_discards_members() {
        let mut s = ActiveSet::new(8);
        s.wake(1);
        s.wake_all();
        let mut out = vec![123];
        s.drain_sorted(&mut out);
        assert_eq!(
            out,
            (0..8).collect::<Vec<_>>(),
            "drain clears the output buffer"
        );
        assert!(s.is_empty());
        assert!(!s.is_active(1) && !s.is_active(7));
        s.drain_sorted(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_capacity_set_is_inert() {
        let mut s = ActiveSet::new(0);
        assert_eq!(s.population, 0);
        assert!(s.is_empty());
        let mut out = Vec::new();
        s.drain_sorted(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_wake_panics() {
        ActiveSet::new(4).wake(4);
    }
}
