//! Live heap bytes of the whole process, counted at every allocation.
//!
//! Resident memory (`VmRSS`, `VmHWM`) also counts freed memory that the
//! allocator has not yet given back to the system, which depends on which
//! threads freed what and when; over runs of the same code it moved by
//! more than a memory figure may. The bytes the program holds do not.
//! The simulated devices keep their contents on the heap, so they count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Live bytes, split over slots that threads take in turn, so that
/// threads allocating side by side do not contend on one counter. A
/// block freed on another thread than the one that allocated it makes
/// one slot negative and another positive; only the sum means anything.
const SLOTS: usize = 32;

#[repr(align(64))]
struct Slot(AtomicIsize);

static LIVE: [Slot; SLOTS] = [const { Slot(AtomicIsize::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const` and without a destructor, so using it never allocates.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn add(bytes: isize) {
    let i = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        // A thread past the end of its thread-locals.
        .unwrap_or(0);
    LIVE[i].0.fetch_add(bytes, Ordering::Relaxed);
}

/// The system allocator, counting live bytes.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            add(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        add(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            add(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Bytes allocated and not yet freed, in MB.
pub fn live_mb() -> f64 {
    let live: isize = LIVE.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
    live as f64 / (1 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_what_is_held() {
        // Other tests allocate side by side; 256 MB (never touched, so
        // never resident) stands far above what they hold.
        let layout = Layout::from_size_align(256 << 20, 8).unwrap();
        let before = live_mb();
        // SAFETY: a non-zero size; the block is freed with its layout.
        let p = unsafe { Counting.alloc(layout) };
        assert!(!p.is_null());
        let held = live_mb();
        // SAFETY: `p` came from `Counting.alloc(layout)`.
        unsafe { Counting.dealloc(p, layout) };
        let after = live_mb();
        assert!((held - before - 256.0).abs() < 64.0, "{before} -> {held}");
        assert!((held - after - 256.0).abs() < 64.0, "{held} -> {after}");
    }
}
