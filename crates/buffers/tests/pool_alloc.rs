//! Warm pool cycles must not touch the heap: neither leasing a buffer nor
//! freezing it into shared views.
//!
//! The counting allocator below counts per thread, so allocations made by
//! the test harness's other threads never reach the assertion.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zc_buffers::PagePool;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn warm_acquire_release_cycle_allocates_nothing() {
    let pool = PagePool::new(1 << 20);
    // Warm up: the first lease of each class is a fresh allocation, and its
    // first return creates the class's free list.
    drop(pool.acquire(100));
    drop(pool.acquire(3 * 4096));
    let before = allocs();
    for _ in 0..100 {
        // A lone buffer cycling through its class: the list empties on
        // every acquire and refills on every release.
        let mut lease = pool.acquire(100);
        lease.extend_from_slice(&[7; 100]);
        drop(lease);
        drop(pool.acquire(3 * 4096));
    }
    assert_eq!(allocs() - before, 0, "warm pool cycles must not allocate");
    let s = pool.stats();
    assert_eq!(s.fresh_allocations, 2);
    assert_eq!(s.reuses, 200);
}

#[test]
fn warm_freeze_clone_drop_cycle_allocates_nothing() {
    let pool = PagePool::new(1 << 20);
    // Warm up: the first freeze allocates the reference-count node, and
    // the last drop of its views hands node and pages back together.
    drop(pool.acquire(4096).freeze());
    let before = allocs();
    for i in 0..100u8 {
        let mut lease = pool.acquire(4096);
        lease.extend_from_slice(&[i; 64]);
        let view = lease.freeze();
        let copy = view.clone();
        let part = copy.slice(8..16);
        drop(view);
        drop(copy);
        assert_eq!(part.as_slice(), &[i; 8]);
        drop(part);
    }
    assert_eq!(
        allocs() - before,
        0,
        "warm freeze/clone/drop cycles must not allocate"
    );
    let s = pool.stats();
    assert_eq!((s.fresh_allocations, s.reuses, s.returns), (1, 100, 101));
    assert_eq!(s.spare_nodes, 1, "the one node went back each time");
}
