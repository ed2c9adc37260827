//! INSO baseline machinery (Agarwal et al., HPCA 2009): in-network snoop
//! ordering via per-source slot numbers.
//!
//! Every node owns the slot sequence `k, k+N, k+2N, …`. A request from node
//! `k` consumes that node's next slot; all nodes process requests in
//! ascending *global* slot order. A node with no traffic must periodically
//! broadcast *expiry* messages for its unused slots (every `expiry_window`
//! cycles), otherwise the whole system waits on it — the bandwidth and
//! latency cost SCORPIO's Figure 7 quantifies.

use scorpio_sim::Cycle;
use std::collections::BTreeMap;

/// Per-node slot assignment at the source side.
#[derive(Debug, Clone)]
pub struct InsoSlotAllocator {
    node: u64,
    nodes: u64,
    /// Next slot (in per-node units) this node will hand out.
    next_local: u64,
    last_expiry: Cycle,
}

impl InsoSlotAllocator {
    /// Allocator for `node` of `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= nodes` or `nodes == 0`.
    pub fn new(node: usize, nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(node < nodes, "node out of range");
        InsoSlotAllocator {
            node: node as u64,
            nodes: nodes as u64,
            next_local: 0,
            last_expiry: Cycle::ZERO,
        }
    }

    /// Takes the next global slot for a real request at time `now` (any
    /// activity restarts the idle-expiry clock).
    pub fn take_slot(&mut self, now: Cycle) -> u64 {
        let slot = self.node + self.next_local * self.nodes;
        self.next_local += 1;
        self.last_expiry = now;
        slot
    }

    /// If `expiry_window` cycles have passed since the last activity, emit
    /// an expiry covering one unused slot. Returns the expired global slot.
    pub fn maybe_expire(&mut self, now: Cycle, expiry_window: u64) -> Option<u64> {
        if now.since(self.last_expiry) >= expiry_window {
            Some(self.take_slot(now))
        } else {
            None
        }
    }

    /// Slots handed out so far (requests + expiries).
    pub fn slots_used(&self) -> u64 {
        self.next_local
    }

    /// The global slot the next allocation would receive.
    pub fn peek_next_slot(&self) -> u64 {
        self.node + self.next_local * self.nodes
    }
}

/// What occupies a global slot at a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotContent<T> {
    /// A real snoop request.
    Request(T),
    /// The source expired this slot.
    Expired,
}

/// Destination-side reorder buffer: releases slot contents in ascending
/// global slot order once contiguous.
///
/// # Examples
///
/// ```
/// use scorpio_coherence::{InsoReorderBuffer, SlotContent};
///
/// let mut rb: InsoReorderBuffer<&str> = InsoReorderBuffer::new();
/// rb.insert(1, SlotContent::Request("b"));
/// assert!(!rb.head_ready());
/// assert_eq!(rb.pop_ready(), None); // waiting for slot 0
/// rb.insert(0, SlotContent::Expired);
/// assert!(rb.head_ready());
/// assert_eq!(rb.pop_ready(), Some(None)); // slot 0: expired, nothing to do
/// assert_eq!(rb.pop_ready(), Some(Some("b")));
/// assert_eq!(rb.pop_ready(), None);
/// ```
#[derive(Debug, Clone)]
pub struct InsoReorderBuffer<T> {
    pending: BTreeMap<u64, SlotContent<T>>,
    next_slot: u64,
}

impl<T> InsoReorderBuffer<T> {
    /// An empty buffer expecting slot 0 first.
    pub fn new() -> Self {
        InsoReorderBuffer {
            pending: BTreeMap::new(),
            next_slot: 0,
        }
    }

    /// Buffers `content` for `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already seen (duplicate delivery).
    pub fn insert(&mut self, slot: u64, content: SlotContent<T>) {
        assert!(slot >= self.next_slot, "slot {slot} already released");
        let prev = self.pending.insert(slot, content);
        assert!(prev.is_none(), "duplicate slot {slot}");
    }

    /// Releases the next slot if it has arrived: `Some(Some(req))` for a
    /// request, `Some(None)` for an expired slot, `None` if still waiting.
    pub fn pop_ready(&mut self) -> Option<Option<T>> {
        let content = self.pending.remove(&self.next_slot)?;
        self.next_slot += 1;
        match content {
            SlotContent::Request(r) => Some(Some(r)),
            SlotContent::Expired => Some(None),
        }
    }

    /// The global slot this destination is waiting for.
    pub fn next_slot(&self) -> u64 {
        self.next_slot
    }

    /// Entries buffered out of order right now.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Whether the slot this destination waits for has arrived, so that
    /// [`InsoReorderBuffer::pop_ready`] would release it.
    pub fn head_ready(&self) -> bool {
        self.pending.contains_key(&self.next_slot)
    }
}

impl<T> Default for InsoReorderBuffer<T> {
    fn default() -> Self {
        InsoReorderBuffer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_interleave_by_node() {
        let mut a = InsoSlotAllocator::new(0, 4);
        let mut b = InsoSlotAllocator::new(3, 4);
        let t = Cycle::ZERO;
        assert_eq!(a.take_slot(t), 0);
        assert_eq!(a.take_slot(t), 4);
        assert_eq!(b.take_slot(t), 3);
        assert_eq!(b.take_slot(t), 7);
        assert_eq!(a.slots_used(), 2);
    }

    #[test]
    fn expiry_fires_on_idle_window() {
        let mut a = InsoSlotAllocator::new(1, 4);
        assert_eq!(a.maybe_expire(Cycle::new(10), 20), None);
        let slot = a.maybe_expire(Cycle::new(20), 20);
        assert_eq!(slot, Some(1));
        // Immediately after, the window restarts.
        assert_eq!(a.maybe_expire(Cycle::new(25), 20), None);
        assert_eq!(a.maybe_expire(Cycle::new(40), 20), Some(5));
    }

    #[test]
    fn reorder_releases_in_slot_order() {
        let mut rb = InsoReorderBuffer::new();
        rb.insert(2, SlotContent::Request(22));
        rb.insert(0, SlotContent::Request(0));
        assert_eq!(rb.pop_ready(), Some(Some(0)));
        assert_eq!(rb.pop_ready(), None); // slot 1 missing
        rb.insert(1, SlotContent::Expired);
        assert_eq!(rb.pop_ready(), Some(None));
        assert_eq!(rb.pop_ready(), Some(Some(22)));
        assert_eq!(rb.next_slot(), 3);
    }

    #[test]
    fn tracks_buffering_high_watermark() {
        let mut rb: InsoReorderBuffer<u8> = InsoReorderBuffer::new();
        for slot in [5u64, 3, 4, 1] {
            rb.insert(slot, SlotContent::Expired);
        }
        assert_eq!(rb.buffered(), 4);
        assert_eq!(rb.pop_ready(), None);
    }

    #[test]
    #[should_panic(expected = "duplicate slot")]
    fn duplicate_slot_panics() {
        let mut rb: InsoReorderBuffer<u8> = InsoReorderBuffer::new();
        rb.insert(1, SlotContent::Expired);
        rb.insert(1, SlotContent::Expired);
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn stale_slot_panics() {
        let mut rb: InsoReorderBuffer<u8> = InsoReorderBuffer::new();
        rb.insert(0, SlotContent::Expired);
        rb.pop_ready();
        rb.insert(0, SlotContent::Expired);
    }
}
