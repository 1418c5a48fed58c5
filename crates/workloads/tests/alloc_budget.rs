//! The allocator calls of tiered code churn, counted. jython Tiny under
//! `setup::tiered` evicts code thousands of times; a reinstall at a tier
//! the method already had relocates its kept artifact and decoded body,
//! and the install path reuses its lists, so the run makes only a few
//! allocator calls per eviction.
//!
//! A test binary of its own, because its counting allocator is global:
//! it counts allocation and reallocation calls on the test's own thread,
//! and only while that thread has switched counting on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hpmopt_core::HpmRuntime;
use hpmopt_gc::CollectorKind;
use hpmopt_workloads::{by_name, setup, Size};

thread_local! {
    /// Whether this thread's allocator calls are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocation and reallocation calls counted on this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocator call if this thread is counting.
fn count() {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            CALLS.with(|n| n.set(n.get() + 1));
        }
    });
}

/// The system allocator, counting its calls.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn tiered_churn_makes_few_allocator_calls_per_eviction() {
    let w = by_name("jython", Size::Tiny).expect("known workload");
    // 2× the minimum heap and monitored, as the jython-tiered benchmark.
    let heap = setup::heap_config(&w, 2, 1, CollectorKind::GenMs);
    let mut cfg = setup::run_config(&w, Size::Tiny, heap, setup::auto_interval(), true);
    setup::tiered(&mut cfg.vm);
    let runtime = HpmRuntime::new(cfg);
    COUNTING.with(|on| on.set(true));
    let report = runtime.run(&w.program);
    COUNTING.with(|on| on.set(false));
    let report = report.expect("jython completes");
    let calls = CALLS.with(Cell::get);
    let evictions = report.vm.code_evictions;
    assert!(evictions > 1_000, "the run churns: {evictions} evictions");
    let per_eviction = calls as f64 / evictions as f64;
    assert!(
        per_eviction <= 3.0,
        "{calls} allocator calls over {evictions} evictions: {per_eviction:.2} each"
    );
}
