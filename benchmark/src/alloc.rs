//! A counting global allocator: every heap allocation made by any thread of
//! the bench process bumps two process-wide atomics and the calling thread's
//! own counter.  The counters are read only at op and block edges (`snapshot`
//! before, `snapshot` after, subtract), so the cost inside a measured op is two
//! relaxed adds and a thread-local increment per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor registers anything
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // a thread that is being torn down has no counter any more; nothing the
    // bench measures runs there
    let _ = THREAD_COUNT.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator plus the two counters.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// counters are plain statistics and publish no other data, and reading or
// bumping them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation totals since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`, all threads.
    pub count: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Allocations made between `earlier` and `self`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot { count: self.count - earlier.count, bytes: self.bytes - earlier.bytes }
    }
}

/// Allocations the calling thread has made since it started.
pub fn on_this_thread() -> u64 {
    THREAD_COUNT.with(Cell::get)
}

/// Read both process-wide counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot { count: COUNT.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_boxed_value_is_counted_with_its_size() {
        let before = snapshot();
        let boxed = std::hint::black_box(Box::new([0u8; 4096]));
        let delta = snapshot().since(before);
        drop(boxed);
        // other test threads allocate concurrently, so only a lower bound holds
        assert!(delta.count >= 1);
        assert!(delta.bytes >= 4096);
    }
}
