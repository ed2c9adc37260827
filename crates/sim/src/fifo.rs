//! Bounded FIFO queues with occupancy accounting.

use std::collections::VecDeque;
use std::fmt;

/// Error returned by [`Fifo::push`] when the queue is full.
///
/// Carries the rejected item back to the caller so nothing is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError<T>(pub T);

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fifo is full")
    }
}

impl<T: fmt::Debug> std::error::Error for PushError<T> {}

/// A bounded first-in/first-out queue.
///
/// Models the finite buffers found throughout the SCORPIO design: NIC input
/// queues, notification tracker queues, L2 snoop queues, memory controller
/// request queues. Pushing into a full queue fails with [`PushError`]
/// (hardware would deassert *ready*).
///
/// # Examples
///
/// ```
/// use scorpio_sim::Fifo;
///
/// let mut q: Fifo<&str> = Fifo::bounded(1);
/// q.push("a").unwrap();
/// assert!(q.push("b").is_err());
/// assert_eq!(q.pop(), Some("a"));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// Creates a FIFO that can hold at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-entry buffer cannot exist in
    /// hardware and would deadlock any protocol using it.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        Fifo {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends an item at the back.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] carrying the item if the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), PushError<T>> {
        if self.items.len() == self.capacity {
            return Err(PushError(item));
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Removes and returns the front item, or `None` if empty.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// A reference to the front item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }
}

impl<'a, T> IntoIterator for &'a Fifo<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_is_fifo() {
        let mut q = Fifo::bounded(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_into_full_returns_item() {
        let mut q = Fifo::bounded(1);
        q.push("x").unwrap();
        let err = q.push("y").unwrap_err();
        assert_eq!(err.0, "y");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn occupancy_accounting() {
        let mut q = Fifo::bounded(4);
        assert!(q.is_empty());
        q.push(0).unwrap();
        q.push(0).unwrap();
        assert_eq!(q.len(), 2);
        assert!(!q.is_full());
        q.push(0).unwrap();
        q.push(0).unwrap();
        assert!(q.is_full());
        q.pop();
        q.pop();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn front_peeks_without_removing() {
        let mut q = Fifo::bounded(2);
        q.push(10).unwrap();
        assert_eq!(q.front(), Some(&10));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(10));
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _: Fifo<u8> = Fifo::bounded(0);
    }

    #[test]
    fn iterates_front_to_back() {
        let mut q = Fifo::bounded(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let collected: Vec<i32> = (&q).into_iter().copied().collect();
        assert_eq!(collected, vec![1, 2]);
    }

    #[test]
    fn push_error_displays() {
        let e = PushError(1u8);
        assert_eq!(e.to_string(), "fifo is full");
    }
}
