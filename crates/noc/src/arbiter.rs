//! Rotating-priority (round-robin) arbitration.

/// A rotating-priority arbiter over `n` requesters.
///
/// Grants the lowest-index requester at or after the priority pointer
/// (wrapping), then advances the pointer past the winner so every requester
/// is eventually served. This is the arbiter used for SA-I (among VCs),
/// SA-O (among input ports) and lookahead conflicts in the SCORPIO router,
/// and — seeded identically at every node — for the notification tracker's
/// globally consistent SID ordering.
///
/// Requests are a bit vector, as in the hardware: bit `i` of the `u32` mask
/// is requester `i`, so every decision is a shift and a `trailing_zeros`.
/// A requester set wider than a word (the tracker's, one per core) uses
/// only [`RotatingArbiter::pointer`] and [`RotatingArbiter::rotate`] and
/// walks its own request lanes from the pointer.
///
/// # Examples
///
/// ```
/// use scorpio_noc::RotatingArbiter;
///
/// let mut arb = RotatingArbiter::new(4);
/// assert_eq!(arb.grant(0b0011), Some(0));
/// // Pointer moved past 0, so 1 wins next even though 0 still requests.
/// assert_eq!(arb.grant(0b0011), Some(1));
/// assert_eq!(arb.grant(0), None);
/// ```
#[derive(Debug, Clone)]
pub struct RotatingArbiter {
    n: usize,
    ptr: usize,
}

impl RotatingArbiter {
    /// Widest requester set the mask methods can express.
    pub(crate) const MASK_WIDTH: usize = u32::BITS as usize;

    /// Creates an arbiter over `n` requesters with priority at index 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        RotatingArbiter { n, ptr: 0 }
    }

    /// Current priority pointer (highest-priority index).
    pub fn pointer(&self) -> usize {
        self.ptr
    }

    /// Grants among the requesters set in `mask` and advances the pointer
    /// past the winner. An empty mask grants nothing and leaves the pointer
    /// where it is.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a bit at or beyond the requester count.
    pub fn grant(&mut self, mask: u32) -> Option<usize> {
        let winner = self.peek(mask)?;
        self.ptr = if winner + 1 == self.n { 0 } else { winner + 1 };
        Some(winner)
    }

    /// Returns the winner without updating the pointer.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a bit at or beyond the requester count.
    pub(crate) fn peek(&self, mask: u32) -> Option<usize> {
        let (at_or_after, before) = self.split(mask);
        let pick = if at_or_after != 0 {
            at_or_after
        } else {
            before
        };
        (pick != 0).then(|| pick.trailing_zeros() as usize)
    }

    /// Enumerates all requesting indices in priority order: set bits from
    /// the pointer upward, then the wrapped ones below it.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a bit at or beyond the requester count.
    pub(crate) fn order(&self, mask: u32) -> impl Iterator<Item = usize> {
        let (at_or_after, before) = self.split(mask);
        set_bits(at_or_after).chain(set_bits(before))
    }

    /// Splits `mask` into the requesters at or after the pointer and the
    /// ones before it.
    fn split(&self, mask: u32) -> (u32, u32) {
        assert!(
            self.n <= Self::MASK_WIDTH && u64::from(mask) >> self.n == 0,
            "request mask wider than the arbiter's {} requesters",
            self.n
        );
        let at_or_after = mask & (u32::MAX << self.ptr);
        (at_or_after, mask & !at_or_after)
    }

    /// Rotates priority by one position (notification tracker fairness
    /// update, applied once per processed time window).
    pub fn rotate(&mut self) {
        self.ptr = if self.ptr + 1 == self.n {
            0
        } else {
            self.ptr + 1
        };
    }
}

/// The indices of the set bits of `mask`, ascending.
pub fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_fairness() {
        let mut arb = RotatingArbiter::new(3);
        let wins: Vec<_> = (0..6).map(|_| arb.grant(0b111).unwrap()).collect();
        assert_eq!(wins, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skips_non_requesters() {
        let mut arb = RotatingArbiter::new(4);
        assert_eq!(arb.grant(0b0100), Some(2));
        assert_eq!(arb.pointer(), 3);
        assert_eq!(arb.grant(0b0001), Some(0));
    }

    #[test]
    fn no_request_no_grant_no_pointer_move() {
        let mut arb = RotatingArbiter::new(2);
        arb.grant(0b10);
        let ptr = arb.pointer();
        assert_eq!(arb.grant(0), None);
        assert_eq!(arb.pointer(), ptr);
    }

    #[test]
    fn peek_does_not_advance() {
        let arb = RotatingArbiter::new(2);
        assert_eq!(arb.peek(0b11), Some(0));
        assert_eq!(arb.peek(0b11), Some(0));
    }

    #[test]
    fn order_enumerates_from_pointer() {
        let mut arb = RotatingArbiter::new(4);
        arb.rotate(); // ptr = 1
        let order: Vec<_> = arb.order(0b1101).collect();
        assert_eq!(order, vec![2, 3, 0]);
    }

    #[test]
    fn rotate_wraps() {
        let mut arb = RotatingArbiter::new(2);
        arb.rotate();
        arb.rotate();
        assert_eq!(arb.pointer(), 0);
    }

    /// The specification, as plainly as it can be written: scan from the
    /// pointer, wrapping, and keep the requesters.
    fn reference_order(n: usize, ptr: usize, mask: u32) -> Vec<usize> {
        (0..n)
            .map(|k| (ptr + k) % n)
            .filter(|&i| mask >> i & 1 == 1)
            .collect()
    }

    /// Every arbiter the router can build (`n ≤ 9`), every pointer, every
    /// request set: `grant`, `peek` and `order` equal the reference scan,
    /// and an empty mask never moves the pointer.
    #[test]
    fn mask_arbitration_matches_the_reference_scan_exhaustively() {
        for n in 1..=9usize {
            for ptr in 0..n {
                let mut at = RotatingArbiter::new(n);
                (0..ptr).for_each(|_| at.rotate());
                assert_eq!(at.pointer(), ptr);
                for mask in 0..1u32 << n {
                    let want = reference_order(n, ptr, mask);
                    assert_eq!(
                        at.order(mask).collect::<Vec<_>>(),
                        want,
                        "{n} {ptr} {mask:b}"
                    );
                    assert_eq!(at.peek(mask), want.first().copied());
                    let mut granting = at.clone();
                    assert_eq!(granting.grant(mask), want.first().copied());
                    let moved = want.first().map_or(ptr, |w| (w + 1) % n);
                    assert_eq!(granting.pointer(), moved, "{n} {ptr} {mask:b}");
                }
            }
        }
    }

    #[test]
    fn full_width_arbiter_handles_the_top_bit() {
        let mut arb = RotatingArbiter::new(32);
        assert_eq!(arb.grant(1 << 31), Some(31));
        assert_eq!(arb.pointer(), 0, "pointer wraps past the top requester");
        (0..31).for_each(|_| arb.rotate());
        assert_eq!(arb.pointer(), 31);
        assert_eq!(arb.order(u32::MAX).take(3).collect::<Vec<_>>(), [31, 0, 1]);
        assert_eq!(arb.peek(0b101), Some(0));
        assert_eq!(arb.grant(0), None);
        assert_eq!(arb.pointer(), 31);
    }

    #[test]
    #[should_panic(expected = "request mask wider")]
    fn wrong_request_length_panics() {
        let mut arb = RotatingArbiter::new(2);
        let _ = arb.grant(0b100);
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_requesters_panics() {
        let _ = RotatingArbiter::new(0);
    }
}
