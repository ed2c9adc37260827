//! Set-associative storage with LRU replacement: the one layout behind
//! every cache and directory array of the simulator.

use std::fmt;
use std::ops::Range;

/// A set's word keeps its fill count in the low bits and its chunk index
/// plus one above them, so an untouched set's word is 0.
const FILL_BITS: u32 = 8;
const FILL_MASK: u32 = (1 << FILL_BITS) - 1;

#[derive(Debug, Clone, Copy)]
struct Way<T> {
    entry: T,
    last_use: u64,
}

/// A set-associative store of `Copy` entries with LRU replacement that
/// holds only the sets it has touched.
///
/// Every set is one `u32` word: 0 while untouched, else its chunk index
/// and fill count. All ways live in one slab; a set gets its chunk of
/// `ways` slots on its first insert, and the slab grows by doubling. An
/// empty store is therefore one allocation of 4 bytes per set, and `k`
/// touched sets cost `O(log(k · ways))` more.
///
/// Callers pass the LRU stamp of every touch and insert (a use counter
/// they own); the least recently stamped way is the victim. Within a set,
/// entries keep the order a `Vec` would under `push` / `swap_remove`: an
/// insert into a set with a free way appends, a full set's victim is
/// replaced in place, and a removal moves the set's last entry into the
/// hole.
///
/// # Examples
///
/// ```
/// use scorpio_sim::SetStore;
///
/// let mut tags: SetStore<u64> = SetStore::new(4, 2);
/// assert_eq!(tags.insert(1, 1, 10), None);
/// assert_eq!(tags.insert(1, 2, 20), None);
/// assert!(tags.touch(1, 3, |&t| t == 10).is_some()); // 20 is now LRU
/// assert_eq!(tags.insert(1, 4, 30), Some(20));
/// assert_eq!(tags.peek(1, |&t| t == 30), Some(&30));
/// assert_eq!(tags.remove(1, |&t| t == 10), Some(10));
/// assert_eq!(tags.len(), 1);
/// ```
#[derive(Clone)]
pub struct SetStore<T> {
    words: Vec<u32>,
    slab: Vec<Way<T>>,
    ways: usize,
}

/// Renders the occupied sets only, each as its ways in order: an empty
/// store of any size prints as `{}`.
impl<T: fmt::Debug> fmt::Debug for SetStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let occupied = (0..self.words.len())
            .map(|set| (set, &self.slab[self.chunk(set)]))
            .filter(|(_, ways)| !ways.is_empty());
        f.debug_map().entries(occupied).finish()
    }
}

impl<T> SetStore<T> {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.words.len()
    }

    /// Associativity: the ways of every set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| (w & FILL_MASK) as usize).sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w & FILL_MASK == 0)
    }

    /// Every resident entry, in set order and way order within a set.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.words.len())
            .flat_map(move |set| self.slab[self.chunk(set)].iter().map(|w| &w.entry))
    }

    /// The slab slots `set`'s resident entries occupy (empty if untouched).
    fn chunk(&self, set: usize) -> Range<usize> {
        let word = self.words[set];
        let start = ((word >> FILL_BITS) as usize).saturating_sub(1) * self.ways;
        start..start + (word & FILL_MASK) as usize
    }
}

impl<T: Copy> SetStore<T> {
    /// A store of `sets` sets of `ways` ways, holding nothing yet.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or above 2²⁴ − 1, or `ways` is not in
    /// `1..=255`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets <= (u32::MAX >> FILL_BITS) as usize,
            "sets must be in 1..2^24"
        );
        assert!(
            ways > 0 && ways <= FILL_MASK as usize,
            "ways must be in 1..=255"
        );
        SetStore {
            words: vec![0; sets],
            slab: Vec::new(),
            ways,
        }
    }

    /// The first entry of `set` that `hit` accepts, without touching LRU.
    pub fn peek(&self, set: usize, mut hit: impl FnMut(&T) -> bool) -> Option<&T> {
        self.slab[self.chunk(set)]
            .iter()
            .map(|w| &w.entry)
            .find(|e| hit(e))
    }

    /// The first entry of `set` that `hit` accepts, stamped `stamp` as its
    /// last use.
    pub fn touch(
        &mut self,
        set: usize,
        stamp: u64,
        mut hit: impl FnMut(&T) -> bool,
    ) -> Option<&mut T> {
        let chunk = self.chunk(set);
        self.slab[chunk]
            .iter_mut()
            .find(|w| hit(&w.entry))
            .map(|w| {
                w.last_use = stamp;
                &mut w.entry
            })
    }

    /// Inserts `entry` into `set` with last use `stamp`, returning the
    /// evicted LRU entry if the set was full. Does not check for an equal
    /// entry already resident.
    pub fn insert(&mut self, set: usize, stamp: u64, entry: T) -> Option<T> {
        let way = Way {
            entry,
            last_use: stamp,
        };
        if self.words[set] == 0 {
            // First touch: claim the next chunk. `resize` grows the slab
            // by doubling; the chunk's free ways are placeholders until
            // filled.
            let chunk = self.slab.len() / self.ways;
            self.slab.resize(self.slab.len() + self.ways, way);
            self.words[set] = ((chunk as u32 + 1) << FILL_BITS) | 1;
            return None;
        }
        let chunk = self.chunk(set);
        if chunk.len() < self.ways {
            self.slab[chunk.end] = way;
            self.words[set] += 1;
            return None;
        }
        let lru = chunk
            .min_by_key(|&i| self.slab[i].last_use)
            .expect("full set is non-empty");
        Some(std::mem::replace(&mut self.slab[lru], way).entry)
    }

    /// Removes the first entry of `set` that `hit` accepts; the set's last
    /// entry moves into its way.
    pub fn remove(&mut self, set: usize, mut hit: impl FnMut(&T) -> bool) -> Option<T> {
        let chunk = self.chunk(set);
        let ways = &mut self.slab[chunk.clone()];
        let pos = ways.iter().position(|w| hit(&w.entry))?;
        ways.swap(pos, ways.len() - 1);
        self.words[set] -= 1;
        Some(self.slab[chunk.end - 1].entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_order(store: &SetStore<u64>) -> Vec<u64> {
        store.iter().copied().collect()
    }

    #[test]
    fn evicts_lru_within_set() {
        let mut s = SetStore::new(1, 2);
        s.insert(0, 1, 10);
        s.insert(0, 2, 20);
        assert!(s.touch(0, 3, |&e| e == 10).is_some()); // 20 is now LRU
        assert_eq!(s.insert(0, 4, 30), Some(20));
        assert!(s.peek(0, |&e| e == 10).is_some());
        assert!(s.peek(0, |&e| e == 20).is_none());
        // A peek is not a use: 10 (stamp 3) is still older than 30.
        assert_eq!(s.insert(0, 5, 40), Some(10));
        // The victim's way takes the newcomer: order is way order.
        assert_eq!(in_order(&s), [40, 30]);
    }

    #[test]
    fn order_after_swap_remove_then_push_matches_a_vec() {
        let mut s = SetStore::new(2, 4);
        let mut v = Vec::new();
        for (stamp, e) in [1u64, 2, 3, 4].into_iter().enumerate() {
            s.insert(1, stamp as u64, e);
            v.push(e);
        }
        assert_eq!(s.remove(1, |&e| e == 2), Some(v.swap_remove(1)));
        s.insert(1, 9, 5);
        v.push(5);
        assert_eq!(in_order(&s), v);
        assert_eq!(in_order(&s), [1, 4, 3, 5]);
        assert_eq!(format!("{s:?}").matches("entry").count(), 4);
        assert!(format!("{s:?}").starts_with("{1: [Way { entry: 1,"));
    }

    #[test]
    fn sets_are_independent_and_emptied_sets_keep_their_chunk() {
        let mut s = SetStore::new(4, 2);
        s.insert(3, 1, 30);
        s.insert(0, 2, 0);
        assert_eq!(in_order(&s), [0, 30], "set order, not first-touch order");
        assert_eq!(s.remove(3, |&e| e == 30), Some(30));
        assert_eq!(s.remove(3, |&e| e == 30), None);
        s.insert(3, 3, 31);
        assert_eq!(s.slab.len(), 4, "set 3 refilled its own chunk");
        assert_eq!((s.len(), s.sets(), s.ways()), (2, 4, 2));
        assert!(!s.is_empty());
    }

    #[test]
    fn an_untouched_store_is_empty_and_prints_empty() {
        let s: SetStore<u64> = SetStore::new(1024, 4);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(format!("{s:?}"), "{}");
    }
}
