//! A counting global allocator: live bytes, their high-water mark, and
//! allocation calls, over `std::alloc::System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocation calls since process start (alloc + realloc).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes right now.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `LIVE` since the last [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System`, with every call counted. Relaxed ordering suffices: the
/// counters are statistics and publish no other data.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        let size = layout.size() as u64;
        PEAK.fetch_max(LIVE.fetch_add(size, Relaxed) + size, Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        if new >= old {
            PEAK.fetch_max(LIVE.fetch_add(new - old, Relaxed) + (new - old), Relaxed);
        } else {
            LIVE.fetch_sub(old - new, Relaxed);
        }
        // SAFETY: `ptr` was returned by `System` for `layout`, and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
