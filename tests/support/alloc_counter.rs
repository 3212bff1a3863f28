//! A counting global allocator for the zero-allocation gates, shared by
//! every test binary that measures heap allocations. Include it with
//!
//! ```ignore
//! #[path = "support/alloc_counter.rs"]
//! mod alloc_counter;
//! ```
//!
//! It installs itself as the binary's `#[global_allocator]`.
//!
//! The count is thread-filtered: only allocations made by the thread
//! inside [`allocs_during`] are counted, so other tests on the parallel
//! harness's threads cannot pollute a measurement window. The flag and
//! the count are `const`-initialised thread-locals without destructors,
//! so reading them from inside the allocator never allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if TRACKING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting beside it only
// touches destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Run `f`, returning its output and the heap allocations (including
/// reallocations) this thread performed while it ran.
pub fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, ALLOCS.with(Cell::get) - before)
}
