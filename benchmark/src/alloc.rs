//! The benchmark's global allocator: the system allocator, plus a count of
//! live heap bytes while a measurement is armed.
//!
//! Peak resident memory (`VmHWM`) moves with allocator arenas and thread
//! timing from run to run; the peak of live heap bytes is a property of
//! the program's own allocations, and on a single thread it repeats
//! exactly. Counting costs two atomic operations per allocation, so it is
//! armed only for the untimed warm-up pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// The system allocator with an armed-only byte count.
pub struct Counting;

// Plain statistics: they publish no other data, so `Relaxed` suffices.
static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    let bytes = bytes as isize;
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ARMED.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ARMED.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        if ARMED.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ARMED.load(Relaxed) {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow(more),
                None => shrink(layout.size() - new_size),
            }
        }
        p
    }
}

/// Runs `f` and returns its result with the peak of heap bytes live at
/// once while it ran, counted from zero when `f` starts. Only one thread
/// may measure at a time: the count is global.
pub fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    (out, PEAK.load(Relaxed).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_peak_of_live_bytes() {
        let ((), peak) = peak_bytes(|| {
            let a = vec![0u8; 8 << 20];
            drop(std::hint::black_box(a));
            let b = vec![0u8; 4 << 20];
            std::hint::black_box(&b);
        });
        // Other test threads allocate and free meanwhile, so only bound it.
        assert!(peak >= 6 << 20, "peak {peak}");
    }
}
