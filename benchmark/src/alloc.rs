//! A counting wrapper around the system allocator.
//!
//! The count is per thread, so the benchmark (one thread) reads its own
//! total and concurrently running unit tests do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every `alloc`, `alloc_zeroed` and `realloc` on the calling thread.
pub struct Counting;

fn count() {
    // `try_with` rather than `with`: an allocation made while the thread's
    // TLS is being torn down is simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller guaranteed valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller guaranteed valid for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was returned by this allocator, which always
        // delegates to `System`, with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (see above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations made by the calling thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_loop_exactly() {
        let before = allocations();
        let mut keep: Vec<Box<u64>> = Vec::with_capacity(100); // 1
        for i in 0..100u64 {
            keep.push(Box::new(i)); // 100, no regrowth: capacity reserved
        }
        let mut grown: Vec<u8> = Vec::new();
        grown.reserve_exact(8); // 1 alloc
        grown.reserve_exact(64); // 1 realloc
        let after = allocations();
        assert_eq!(after - before, 103);
        drop((keep, grown));
        assert_eq!(allocations(), after, "frees are not counted");
    }
}
