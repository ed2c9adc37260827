//! The notification tracker: turns merged notification messages into the
//! globally consistent ESID stream.

use scorpio_noc::{RotatingArbiter, Sid};
use scorpio_notify::NotifyMsg;
use std::collections::VecDeque;

/// Expands completed notification windows into the Expected-SID sequence.
///
/// Every NIC runs one tracker seeded identically; because each consumes the
/// identical window stream and rotates its priority pointer once per
/// accepted window, all nodes derive the *same* total order over requests
/// — the heart of SCORPIO's distributed ordering (Section 3.4).
///
/// A window is expanded the moment it is accepted: the priority pointer a
/// window sees depends only on how many windows came before it, so the
/// tracker keeps the expanded SIDs and the length of each window rather
/// than copies of the messages.
///
/// # Examples
///
/// ```
/// use scorpio_nic::NotificationTracker;
/// use scorpio_notify::NotifyMsg;
/// use scorpio_noc::Sid;
///
/// let mut t = NotificationTracker::new(4, 8, 0);
/// let mut w = NotifyMsg::new(4, 2, 1);
/// w.set_count(0, 2, 1);
/// w.set_count(0, 0, 2);
/// t.push_window(&w);
/// // Priority starts at core 0: order is 0, 0, 2.
/// assert_eq!(t.current_esid(), Some(Sid(0)));
/// t.advance();
/// assert_eq!(t.current_esid(), Some(Sid(0)));
/// t.advance();
/// assert_eq!(t.current_esid(), Some(Sid(2)));
/// t.advance();
/// assert_eq!(t.current_esid(), None);
/// ```
#[derive(Debug, Clone)]
pub struct NotificationTracker {
    /// Expected SIDs of every accepted window, in the global order.
    sids: VecDeque<Sid>,
    /// SIDs still to deliver per accepted window; the front is the window
    /// being serviced, the rest are the queue behind it.
    windows: VecDeque<u32>,
    /// Priority pointer over the cores. Wider than a request word, so only
    /// the pointer is used: the message walks its own lanes from it.
    arbiter: RotatingArbiter,
    /// Windows the queue behind the current one can hold.
    depth: usize,
    /// Which plane's announcement word group this tracker expands. With a
    /// multi-plane main network each NIC runs one tracker per plane; every
    /// tracker consumes the identical window stream but reads only its own
    /// plane's lanes, so each plane derives an independent — and still
    /// globally agreed — per-plane total order.
    plane: usize,
}

impl NotificationTracker {
    /// A tracker for `cores` cores with a `depth`-entry window queue,
    /// expanding plane `plane`'s word group of every pushed window (plane
    /// 0 on the chip's single-plane network).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `depth < 2` (one in-flight window of
    /// headroom is required for the stop-bit protocol to be lossless).
    pub fn new(cores: usize, depth: usize, plane: usize) -> Self {
        assert!(cores > 0, "tracker needs at least one core");
        assert!(depth >= 2, "tracker depth must be at least 2");
        NotificationTracker {
            sids: VecDeque::new(),
            // The current window plus a full queue behind it.
            windows: VecDeque::with_capacity(depth + 1),
            arbiter: RotatingArbiter::new(cores),
            depth,
            plane,
        }
    }

    /// Whether the NIC should assert the stop bit in its next notification
    /// (the tracker is close enough to full that another window might not
    /// fit): the queue is within one window — the one already in flight —
    /// of its depth.
    pub(crate) fn should_stop(&self) -> bool {
        self.queued_windows() >= self.depth - 1
    }

    /// Accepts a completed, non-stop window: expands this tracker's plane
    /// of it into the expected-SID stream, from the priority pointer
    /// around, and rotates the pointer (Section 3.1 step 3: once per
    /// processed window). A window announcing nothing on this plane is not
    /// a window here and is ignored; other planes' lanes always are.
    ///
    /// # Panics
    ///
    /// Panics if the queue overflows — the stop-bit protocol guarantees
    /// this cannot happen, so an overflow is a protocol bug.
    pub fn push_window(&mut self, msg: &NotifyMsg) {
        let before = self.sids.len();
        for (core, count) in msg.nonzero_from(self.plane, self.arbiter.pointer()) {
            self.sids
                .extend(std::iter::repeat_n(Sid(core as u16), count as usize));
        }
        let announced = self.sids.len() - before;
        if announced == 0 {
            return;
        }
        assert!(
            self.queued_windows() < self.depth,
            "tracker queue overflow despite stop protocol"
        );
        self.windows.push_back(announced as u32);
        self.arbiter.rotate();
    }

    /// The SID the NIC is currently waiting for, if any.
    pub fn current_esid(&self) -> Option<Sid> {
        self.sids.front().copied()
    }

    /// Marks the current expected request as delivered and moves on.
    ///
    /// # Panics
    ///
    /// Panics if there is no current expectation.
    pub fn advance(&mut self) {
        self.sids
            .pop_front()
            .expect("advance without a current expectation");
        let current = self.windows.front_mut().expect("SID outside any window");
        *current -= 1;
        if *current == 0 {
            self.windows.pop_front();
        }
    }

    /// Windows queued behind the current one.
    pub(crate) fn queued_windows(&self) -> usize {
        self.windows.len().saturating_sub(1)
    }

    /// Total expected requests known to the tracker (current + queued).
    pub(crate) fn backlog(&self) -> usize {
        self.sids.len()
    }

    /// The core the next accepted window is expanded from.
    pub(crate) fn priority(&self) -> usize {
        self.arbiter.pointer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(pairs: &[(usize, u8)]) -> NotifyMsg {
        let mut m = NotifyMsg::new(8, 2, 1);
        for &(c, n) in pairs {
            m.set_count(0, c, n);
        }
        m
    }

    fn drain(t: &mut NotificationTracker) -> Vec<u16> {
        let mut order = Vec::new();
        while let Some(sid) = t.current_esid() {
            order.push(sid.0);
            t.advance();
        }
        order
    }

    #[test]
    fn expands_in_rotating_priority_order() {
        let mut t = NotificationTracker::new(8, 4, 0);
        t.push_window(&window(&[(1, 1), (5, 1), (3, 1)]));
        assert_eq!(drain(&mut t), vec![1, 3, 5]);
    }

    #[test]
    fn priority_rotates_between_windows() {
        let mut t = NotificationTracker::new(4, 4, 0);
        t.push_window(&window(&[(0, 1), (1, 1)]));
        assert_eq!(drain(&mut t), vec![0, 1]);
        // Pointer rotated to 1: order now starts from 1.
        t.push_window(&window(&[(0, 1), (1, 1)]));
        assert_eq!(drain(&mut t), vec![1, 0]);
    }

    #[test]
    fn multi_count_expands_consecutively() {
        let mut t = NotificationTracker::new(8, 4, 0);
        t.push_window(&window(&[(2, 3), (6, 1)]));
        assert_eq!(drain(&mut t), vec![2, 2, 2, 6]);
    }

    #[test]
    fn two_trackers_stay_in_lockstep() {
        let mut a = NotificationTracker::new(8, 4, 0);
        let mut b = NotificationTracker::new(8, 4, 0);
        let windows = [
            window(&[(7, 2)]),
            window(&[(0, 1), (4, 1)]),
            window(&[(1, 1), (2, 1), (3, 1)]),
        ];
        // a services windows as they come; b queues them all first.
        let mut order_a = Vec::new();
        for w in &windows {
            a.push_window(w);
            order_a.extend(drain(&mut a));
        }
        for w in &windows {
            b.push_window(w);
        }
        let order_b = drain(&mut b);
        assert_eq!(order_a, order_b, "global order diverged between nodes");
    }

    #[test]
    fn stop_threshold_leaves_headroom() {
        let mut t = NotificationTracker::new(4, 3, 0);
        assert!(!t.should_stop());
        // One window goes straight to `current`, so queue stays empty.
        t.push_window(&window(&[(0, 1)]));
        assert!(!t.should_stop());
        t.push_window(&window(&[(1, 1)]));
        t.push_window(&window(&[(2, 1)]));
        assert!(t.should_stop());
        // Even at the stop threshold one more window fits (the in-flight
        // one).
        t.push_window(&window(&[(3, 1)]));
        assert_eq!(t.backlog(), 4);
    }

    #[test]
    fn backlog_counts_current_and_queued() {
        let mut t = NotificationTracker::new(4, 4, 0);
        t.push_window(&window(&[(0, 2)]));
        t.push_window(&window(&[(1, 3)]));
        assert_eq!(t.windows.front().map(|&n| n as usize), Some(2));
        assert_eq!(t.queued_windows(), 1);
        assert_eq!(t.backlog(), 5);
    }

    #[test]
    #[should_panic(expected = "advance without")]
    fn advance_on_empty_panics() {
        let mut t = NotificationTracker::new(2, 2, 0);
        t.advance();
    }

    #[test]
    #[should_panic(expected = "depth must be at least 2")]
    fn tiny_depth_panics() {
        let _ = NotificationTracker::new(2, 1, 0);
    }
}
