//! A counting global allocator for the traced run's `tensor.alloc*`
//! metrics. Counting is off until [`set_counting`] turns it on, so the
//! untraced run pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while enabled.
pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; counting only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// `(allocations, bytes requested)` counted so far.
pub fn counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}
