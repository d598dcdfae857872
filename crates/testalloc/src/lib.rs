//! Per-thread heap-allocation counting for the zero-allocation tests.
//!
//! A test binary installs [`CountingAlloc`] as its global allocator and
//! wraps the code under test in [`allocations`]. The counter is a
//! const-initialised thread-local, so what sibling tests allocate on
//! the other threads of the parallel test runner never lands in a
//! measurement window. The measured work must run on the calling thread,
//! e.g. inside a one-thread rayon pool, which runs parallel calls inline.
//!
//! ```ignore
//! use qplacer_testalloc::{allocations, CountingAlloc};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//!
//! let (count, _) = allocations(|| kernel.energy_grad_into(&positions, &mut grad));
//! assert_eq!(count, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made by this thread so far.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: never panic inside the allocator, even while a thread
    // tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting each allocation and reallocation on
/// the thread that makes it.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`; the counter is a
// `Cell` in a const thread-local, which neither allocates nor locks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns how many allocations the calling thread made
/// meanwhile, with `f`'s result. Only counts when [`CountingAlloc`] is
/// the global allocator.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_the_calling_thread() {
        let (count, v) = allocations(|| vec![1u8; 64]);
        assert_eq!(v.len(), 64);
        assert_eq!(count, 1);
    }

    #[test]
    fn ignores_other_threads() {
        let (count, ()) = allocations(|| {
            std::thread::scope(|s| {
                s.spawn(|| std::hint::black_box(vec![0u64; 1024]));
            });
        });
        // Spawning allocates on this thread; the worker's 1024-element
        // vector must not show up.
        let (spawn_only, ()) = allocations(|| {
            std::thread::scope(|s| {
                s.spawn(|| {});
            });
        });
        assert_eq!(count, spawn_only);
    }
}
