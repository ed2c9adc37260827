//! Forwarding-ID lists: non-blocking snoop service for pending writes
//! (Section 4.2).
//!
//! When a snoop hits a line with a pending write, instead of stalling, the
//! L2 records the snooper's forwarding ID — (SID, request entry ID) — and
//! kind. Once the write's data arrives and the write completes, updated
//! data is forwarded to every recorded requester in order. The list closes
//! after recording a GETX: ownership passes to that requester, so any later
//! snoop belongs to *their* pending-write window, not ours.

use crate::msg::MsgKind;

/// One recorded snooper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FidEntry {
    /// The snooper's tile id.
    pub sid: u16,
    /// The snooper's request entry id (matches their RSHR slot).
    pub req_tag: u8,
    /// GETS or GETX.
    pub kind: MsgKind,
}

/// A bounded forwarding-ID list attached to one pending write.
///
/// The chip tracks two sets of FIDs per core (one per outstanding message);
/// each set holds up to `capacity` snoopers, after which snoops stall. A
/// list serves one outstanding-miss slot for the whole run: [`FidList::clear`]
/// keeps its storage, which is allocated once, at its first snooper.
///
/// # Examples
///
/// ```
/// use scorpio_coherence::{FidList, FidPush, MsgKind};
///
/// let mut fids = FidList::new(4);
/// assert_eq!(fids.push(1, 0, MsgKind::GetS), FidPush::Recorded);
/// assert_eq!(fids.push(2, 0, MsgKind::GetX), FidPush::Recorded);
/// // Closed after a GETX: later snoops are someone else's problem.
/// assert_eq!(fids.push(3, 0, MsgKind::GetS), FidPush::Closed);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FidList {
    entries: Vec<FidEntry>,
    capacity: usize,
    closed: bool,
}

/// Outcome of recording a snoop in a [`FidList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FidPush {
    /// Recorded; forward data to this snooper after completion.
    Recorded,
    /// List is full: the snoop must stall and retry (paper: "Once the FID
    /// list fills up, subsequent snoop requests will then be stalled").
    Full,
    /// Ownership already promised to an earlier GETX; this snoop is not our
    /// responsibility and needs no action from us.
    Closed,
}

impl FidList {
    /// An empty list holding at most `capacity` snoopers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FID capacity must be non-zero");
        FidList {
            entries: Vec::new(),
            capacity,
            closed: false,
        }
    }

    /// Records a snooper.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not GETS/GETX.
    pub fn push(&mut self, sid: u16, req_tag: u8, kind: MsgKind) -> FidPush {
        assert!(
            matches!(kind, MsgKind::GetS | MsgKind::GetX),
            "only read/write snoops are forwardable"
        );
        if self.closed {
            return FidPush::Closed;
        }
        if self.entries.len() == self.capacity {
            return FidPush::Full;
        }
        if self.entries.capacity() == 0 {
            // The list's one allocation, kept across `clear`: most pending
            // writes are never snooped, so it waits for the first snooper.
            self.entries.reserve_exact(self.capacity);
        }
        self.entries.push(FidEntry { sid, req_tag, kind });
        if kind == MsgKind::GetX {
            self.closed = true;
        }
        FidPush::Recorded
    }

    /// Whether a GETX closed the list (we lose the line after forwarding).
    pub fn ends_in_getx(&self) -> bool {
        self.closed
    }

    /// Recorded snoopers in arrival (= global) order.
    pub fn entries(&self) -> &[FidEntry] {
        &self.entries
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the list for the next pending write, keeping its storage.
    pub fn clear(&mut self) {
        self.closed = false;
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut f = FidList::new(4);
        f.push(5, 1, MsgKind::GetS);
        f.push(6, 0, MsgKind::GetS);
        let sids: Vec<u16> = f.entries().iter().map(|e| e.sid).collect();
        assert_eq!(sids, vec![5, 6]);
        assert!(!f.ends_in_getx());
    }

    #[test]
    fn getx_closes_list() {
        let mut f = FidList::new(4);
        assert_eq!(f.push(1, 0, MsgKind::GetX), FidPush::Recorded);
        assert!(f.ends_in_getx());
        assert_eq!(f.push(2, 0, MsgKind::GetX), FidPush::Closed);
        assert_eq!(f.entries().len(), 1);
    }

    #[test]
    fn full_list_stalls() {
        let mut f = FidList::new(2);
        f.push(1, 0, MsgKind::GetS);
        f.push(2, 0, MsgKind::GetS);
        assert_eq!(f.push(3, 0, MsgKind::GetS), FidPush::Full);
    }

    #[test]
    fn clear_resets() {
        let mut f = FidList::new(2);
        f.push(1, 0, MsgKind::GetX);
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.entries.capacity(), 2, "storage kept for the next write");
        assert!(!f.ends_in_getx());
        assert_eq!(f.push(2, 0, MsgKind::GetS), FidPush::Recorded);
    }

    #[test]
    #[should_panic(expected = "forwardable")]
    fn non_snoop_kind_panics() {
        let mut f = FidList::new(1);
        f.push(0, 0, MsgKind::Data);
    }
}
