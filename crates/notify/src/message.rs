//! Notification messages: per-core request counts plus the stop bit.

use std::fmt;

/// A notification message (Section 3.3).
///
/// Encodes, for every core, how many coherence requests that core wants
/// ordered this time window, using `bits_per_core` bits per core (so counts
/// saturate at `2^bits - 1`), plus a *stop* bit used for tracker-queue flow
/// control. Messages merge with a bitwise OR: since only core `i` ever sets
/// field `i`, OR-merging never corrupts a count.
///
/// With a multi-plane main network ([`scorpio_noc::MultiNetwork`]'s
/// address-interleaved fabrics) the message carries one independent word
/// group — counts *and* stop bit — per plane, so each plane converges its
/// own ordering windows without any cross-plane coupling. The chip's
/// single-plane message is the `planes == 1` case: every accessor names
/// its plane, and plane 0 is the chip's one word group.
///
/// # Examples
///
/// ```
/// use scorpio_notify::NotifyMsg;
///
/// let mut a = NotifyMsg::new(4, 2, 1);
/// a.set_count(0, 0, 3);
/// let mut b = NotifyMsg::new(4, 2, 1);
/// b.set_count(0, 2, 1);
/// b.set_stop(0, true);
/// a.merge_from(&b);
/// assert_eq!(a.count(0, 0), 3);
/// assert_eq!(a.count(0, 2), 1);
/// assert!(a.stop(0));
/// ```
///
/// [`scorpio_noc::MultiNetwork`]: ../scorpio_noc/struct.MultiNetwork.html
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotifyMsg {
    /// Count fields bit-packed into words, `bits_per_core` bits per lane;
    /// lane `(plane, core)` sits at bit offset
    /// `(plane * cores + core) * bits_per_core`. Lanes never straddle a
    /// word only when `64 % bits_per_core == 0`; to keep the code
    /// general, a lane is read/written via a 128-bit window instead.
    /// Packing keeps merges, copies and the NICs' scans for announcers
    /// word-wide, not per-core.
    words: Vec<u64>,
    cores: usize,
    bits_per_core: u8,
    planes: usize,
    /// Per-plane stop bits (bit `p` = plane `p`'s stop).
    stop: u64,
}

impl NotifyMsg {
    /// An all-zero message for `cores` cores at `bits_per_core` bits
    /// each, carrying one announcement word group per plane.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_core` is 0 or greater than 7, or `planes` is 0
    /// or greater than 64 (the stop bits pack into one word).
    pub fn new(cores: usize, bits_per_core: u8, planes: usize) -> Self {
        assert!(
            (1..=7).contains(&bits_per_core),
            "bits per core must be in 1..=7"
        );
        assert!((1..=64).contains(&planes), "planes must be in 1..=64");
        let bits = planes * cores * bits_per_core as usize;
        NotifyMsg {
            words: vec![0; bits.div_ceil(64) + 1],
            cores,
            bits_per_core,
            planes,
            stop: 0,
        }
    }

    /// Number of main-network planes this message announces for.
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// The saturation limit: largest count one core can announce.
    pub(crate) fn max_count(&self) -> u8 {
        (1u16 << self.bits_per_core) as u8 - 1
    }

    /// Sets core `core`'s announced request count for plane `plane`,
    /// saturating at `NotifyMsg::max_count`.
    ///
    /// # Panics
    ///
    /// Panics if `plane` or `core` is out of range.
    pub fn set_count(&mut self, plane: usize, core: usize, count: u8) {
        assert!(plane < self.planes, "plane {plane} out of range");
        assert!(core < self.cores, "core {core} out of range");
        let value = count.min(self.max_count()) as u128;
        let bit = (plane * self.cores + core) * self.bits_per_core as usize;
        let (word, off) = (bit / 64, bit % 64);
        // Read-modify-write a 128-bit window so a lane may straddle words
        // (the `+ 1` spare word in `new` keeps the high read in bounds).
        let mut window = self.words[word] as u128 | (self.words[word + 1] as u128) << 64;
        window &= !((self.max_count() as u128) << off);
        window |= value << off;
        self.words[word] = window as u64;
        self.words[word + 1] = (window >> 64) as u64;
    }

    /// Core `core`'s announced request count for plane `plane`.
    ///
    /// # Panics
    ///
    /// Panics if `plane` or `core` is out of range.
    pub fn count(&self, plane: usize, core: usize) -> u8 {
        assert!(plane < self.planes, "plane {plane} out of range");
        assert!(core < self.cores, "core {core} out of range");
        self.lane(plane * self.cores + core)
    }

    /// The count in lane `lane` (numbered across planes), read through a
    /// 128-bit window because a lane may straddle two words.
    #[inline]
    fn lane(&self, lane: usize) -> u8 {
        let bit = lane * self.bits_per_core as usize;
        let (word, off) = (bit / 64, bit % 64);
        let window = self.words[word] as u128 | (self.words[word + 1] as u128) << 64;
        ((window >> off) as u8) & self.max_count()
    }

    /// Plane `plane`'s stop bit (a NIC's tracker queue is full; everyone
    /// must ignore that plane's word group this window and resend).
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn stop(&self, plane: usize) -> bool {
        assert!(plane < self.planes, "plane {plane} out of range");
        self.stop & (1 << plane) != 0
    }

    /// Sets plane `plane`'s stop bit.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn set_stop(&mut self, plane: usize, stop: bool) {
        assert!(plane < self.planes, "plane {plane} out of range");
        if stop {
            self.stop |= 1 << plane;
        } else {
            self.stop &= !(1 << plane);
        }
    }

    /// Bitwise-OR merge, the notification router's only operation.
    ///
    /// # Panics
    ///
    /// Panics if the two messages have different shapes.
    pub fn merge_from(&mut self, other: &NotifyMsg) {
        assert_eq!(self.cores, other.cores, "core count mismatch");
        assert_eq!(
            self.bits_per_core, other.bits_per_core,
            "bits-per-core mismatch"
        );
        assert_eq!(self.planes, other.planes, "plane count mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
        self.stop |= other.stop;
    }

    /// Overwrites this message with `other`'s contents, reusing storage.
    ///
    /// # Panics
    ///
    /// Panics if the two messages have different shapes.
    pub(crate) fn copy_from(&mut self, other: &NotifyMsg) {
        assert_eq!(self.cores, other.cores, "core count mismatch");
        assert_eq!(
            self.bits_per_core, other.bits_per_core,
            "bits-per-core mismatch"
        );
        assert_eq!(self.planes, other.planes, "plane count mismatch");
        self.words.copy_from_slice(&other.words);
        self.stop = other.stop;
    }

    /// Whether no core announced anything on any plane and every stop bit
    /// is clear.
    pub fn is_empty(&self) -> bool {
        self.stop == 0 && self.words.iter().all(|&w| w == 0)
    }

    /// Resets to all-zero.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.stop = 0;
    }

    /// Iterates over plane `plane`'s `(core, count)` pairs with non-zero
    /// counts, in core order.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub(crate) fn nonzero(&self, plane: usize) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.lanes(plane, 0..self.cores)
    }

    /// Plane `plane`'s non-zero `(core, count)` pairs in rotating-priority
    /// order: cores `start..` first, then the wrapped cores below `start` —
    /// the order a rotating arbiter with its pointer at `start` would grant
    /// them in.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range or `start` exceeds the core count.
    pub fn nonzero_from(
        &self,
        plane: usize,
        start: usize,
    ) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.lanes(plane, start..self.cores)
            .chain(self.lanes(plane, 0..start))
    }

    /// The non-zero lanes of `cores` on `plane`, ascending. Walks words:
    /// a zero word is skipped whole and a non-zero one is consumed set bit
    /// by set bit, so the cost is O(words + announcers), not O(cores).
    fn lanes(
        &self,
        plane: usize,
        cores: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, u8)> + '_ {
        assert!(plane < self.planes, "plane {plane} out of range");
        assert!(cores.end <= self.cores, "core {} out of range", cores.end);
        let width = self.bits_per_core as usize;
        let first_lane = plane * self.cores;
        let (lo, hi) = (first_lane + cores.start, first_lane + cores.end);
        // An empty range starts out of bits on its last word: ends at once.
        let last_word = (hi * width).saturating_sub(1) / 64;
        let (mut word, mut bits) = if lo < hi {
            let first = lo * width / 64;
            (first, self.words[first] & (u64::MAX << (lo * width % 64)))
        } else {
            (last_word, 0)
        };
        // Lanes below this were already reported (from the previous word,
        // for a lane that straddles the boundary).
        let mut unseen = lo;
        std::iter::from_fn(move || loop {
            while bits == 0 {
                word += 1;
                if word > last_word {
                    return None;
                }
                bits = self.words[word];
            }
            let lane = (word * 64 + bits.trailing_zeros() as usize) / width;
            // Drop the rest of this lane's bits from the word.
            let lane_end = (lane + 1) * width - word * 64;
            bits = if lane_end < 64 {
                bits & (u64::MAX << lane_end)
            } else {
                0
            };
            if lane >= hi {
                return None;
            }
            if lane >= unseen {
                unseen = lane + 1;
                return Some((lane - first_lane, self.lane(lane)));
            }
        })
    }

    /// Total announced requests across all cores and all planes.
    pub fn total(&self) -> u32 {
        if self.bits_per_core == 1 {
            self.words.iter().map(|w| w.count_ones()).sum()
        } else {
            (0..self.planes).map(|p| self.total_in(p)).sum()
        }
    }

    /// Total announced requests across all cores for plane `plane`.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub(crate) fn total_in(&self, plane: usize) -> u32 {
        self.nonzero(plane).map(|(_, count)| count as u32).sum()
    }
}

impl fmt::Display for NotifyMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "notify[")?;
        let mut first = true;
        for plane in 0..self.planes {
            for (core, count) in self.nonzero(plane) {
                if !first {
                    write!(f, " ")?;
                }
                if self.planes > 1 {
                    write!(f, "p{plane}/")?;
                }
                write!(f, "{core}:{count}")?;
                first = false;
            }
            if self.stop(plane) {
                if !first {
                    write!(f, " ")?;
                }
                if self.planes > 1 {
                    write!(f, "p{plane}/")?;
                }
                write!(f, "STOP")?;
                first = false;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_saturate_at_field_width() {
        let mut m = NotifyMsg::new(4, 1, 1);
        assert_eq!(m.max_count(), 1);
        m.set_count(0, 0, 5);
        assert_eq!(m.count(0, 0), 1);

        let mut m2 = NotifyMsg::new(4, 2, 1);
        assert_eq!(m2.max_count(), 3);
        m2.set_count(0, 1, 200);
        assert_eq!(m2.count(0, 1), 3);

        let m3 = NotifyMsg::new(4, 3, 1);
        assert_eq!(m3.max_count(), 7);
    }

    #[test]
    fn merge_is_or() {
        let mut a = NotifyMsg::new(8, 2, 1);
        a.set_count(0, 0, 2);
        let mut b = NotifyMsg::new(8, 2, 1);
        b.set_count(0, 7, 3);
        a.merge_from(&b);
        assert_eq!(a.count(0, 0), 2);
        assert_eq!(a.count(0, 7), 3);
        assert_eq!(a.total(), 5);
        assert!(!a.stop(0));
    }

    #[test]
    fn merge_is_idempotent_and_commutative() {
        let mut a = NotifyMsg::new(4, 2, 1);
        a.set_count(0, 1, 3);
        let mut b = NotifyMsg::new(4, 2, 1);
        b.set_count(0, 2, 1);
        b.set_stop(0, true);

        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);

        let mut aa = ab.clone();
        aa.merge_from(&ab);
        assert_eq!(aa, ab);
    }

    #[test]
    fn empty_and_clear() {
        let mut m = NotifyMsg::new(3, 1, 1);
        assert!(m.is_empty());
        m.set_count(0, 2, 1);
        assert!(!m.is_empty());
        m.clear();
        assert!(m.is_empty());
        m.set_stop(0, true);
        assert!(!m.is_empty(), "stop bit makes the message non-empty");
    }

    #[test]
    fn nonzero_iteration() {
        let mut m = NotifyMsg::new(5, 2, 1);
        m.set_count(0, 1, 2);
        m.set_count(0, 4, 1);
        let pairs: Vec<_> = m.nonzero(0).collect();
        assert_eq!(pairs, vec![(1, 2), (4, 1)]);
    }

    #[test]
    fn chip_width_is_37_bits() {
        // 36 one-bit core lanes plus the stop bit, and nothing else.
        let mut m = NotifyMsg::new(36, 1, 1);
        assert_eq!(m.max_count(), 1);
        for core in 0..36 {
            m.set_count(0, core, 1);
        }
        m.set_stop(0, true);
        assert_eq!(m.total(), 36);
        assert_eq!(m.to_string().matches(':').count(), 36);
        assert!(m.stop(0));
    }

    #[test]
    fn display_shows_contents() {
        let mut m = NotifyMsg::new(4, 2, 1);
        m.set_count(0, 3, 2);
        m.set_stop(0, true);
        assert_eq!(m.to_string(), "notify[3:2 STOP]");
        assert_eq!(NotifyMsg::new(2, 1, 1).to_string(), "notify[]");
    }

    #[test]
    fn planes_have_independent_lanes_and_stop_bits() {
        let mut m = NotifyMsg::new(8, 2, 3);
        assert_eq!(m.planes(), 3);
        m.set_count(0, 7, 2);
        m.set_count(1, 7, 3);
        m.set_count(2, 0, 1);
        m.set_stop(1, true);
        // No crosstalk between plane word groups.
        assert_eq!(m.count(0, 7), 2);
        assert_eq!(m.count(1, 7), 3);
        assert_eq!(m.count(2, 7), 0);
        assert_eq!(m.count(2, 0), 1);
        assert!(!m.stop(0) && m.stop(1) && !m.stop(2));
        assert_eq!(m.total_in(0), 2);
        assert_eq!(m.total_in(1), 3);
        assert_eq!(m.total(), 6);
        let pairs: Vec<_> = m.nonzero(1).collect();
        assert_eq!(pairs, vec![(7, 3)]);
        // Merge keeps planes independent.
        let mut o = NotifyMsg::new(8, 2, 3);
        o.set_count(2, 4, 1);
        m.merge_from(&o);
        assert_eq!(m.count(2, 4), 1);
        assert_eq!(m.count(0, 4), 0);
        assert_eq!(m.to_string(), "notify[p0/7:2 p1/7:3 p1/STOP p2/0:1 p2/4:1]");
    }

    #[test]
    fn single_plane_one_bit_totals_use_popcount() {
        // bits_per_core == 1 takes the popcount shortcut; with planes it
        // must still count every plane's lanes.
        let mut m = NotifyMsg::new(36, 1, 2);
        m.set_count(0, 35, 1);
        m.set_count(1, 0, 1);
        m.set_count(1, 35, 1);
        assert_eq!(m.total(), 3);
        assert_eq!(m.total_in(0), 1);
        assert_eq!(m.total_in(1), 2);
    }

    /// The word walk against the lane-by-lane definitions it replaced, on
    /// random fills: every lane width (3, 5, 6 and 7 bits straddle words),
    /// core counts around the word size, several planes.
    #[test]
    fn word_walk_matches_lane_by_lane_definitions() {
        let mut rng = scorpio_sim::SimRng::seed_from(0x5C0);
        for bits in 1..=7u8 {
            for cores in [1usize, 36, 64, 65, 272, 1024] {
                for planes in [1usize, 2, 4] {
                    let mut m = NotifyMsg::new(cores, bits, planes);
                    let density = 1 + rng.gen_range_usize(cores);
                    for _ in 0..density {
                        let (p, c) = (rng.gen_range_usize(planes), rng.gen_range_usize(cores));
                        m.set_count(p, c, rng.gen_range_usize(1 << bits) as u8);
                    }
                    // The last lane of a plane abuts the next plane's first.
                    m.set_count(planes - 1, cores - 1, 1);
                    for p in 0..planes {
                        let by_lane: Vec<(usize, u8)> = (0..cores)
                            .map(|c| (c, m.count(p, c)))
                            .filter(|&(_, n)| n > 0)
                            .collect();
                        let tag = format!("{bits} bits, {cores} cores, plane {p}/{planes}");
                        assert_eq!(m.nonzero(p).collect::<Vec<_>>(), by_lane, "{tag}");
                        let total: u32 = by_lane.iter().map(|&(_, n)| n as u32).sum();
                        assert_eq!(m.total_in(p), total, "{tag}");
                        let start = rng.gen_range_usize(cores + 1);
                        let (below, from): (Vec<_>, Vec<_>) =
                            by_lane.iter().partition(|&&(c, _)| c < start);
                        let rotated: Vec<_> = from.into_iter().chain(below).collect();
                        assert_eq!(
                            m.nonzero_from(p, start).collect::<Vec<_>>(),
                            rotated,
                            "{tag}"
                        );
                    }
                    let all: u32 = (0..planes).map(|p| m.total_in(p)).sum();
                    assert_eq!(m.total(), all);
                }
            }
        }
        assert_eq!(NotifyMsg::new(0, 3, 1).nonzero(0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "bits per core")]
    fn zero_bits_panics() {
        let _ = NotifyMsg::new(4, 0, 1);
    }

    #[test]
    #[should_panic(expected = "planes must be in")]
    fn zero_planes_panics() {
        let _ = NotifyMsg::new(4, 1, 0);
    }

    #[test]
    #[should_panic(expected = "core count mismatch")]
    fn merge_shape_mismatch_panics() {
        let mut a = NotifyMsg::new(4, 1, 1);
        let b = NotifyMsg::new(5, 1, 1);
        a.merge_from(&b);
    }
}
