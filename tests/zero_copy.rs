//! The data path moves handles, not bytes — pinned without a clock.
//!
//! A counting global allocator adds up every block the process allocates
//! that is at least as large as one payload. Running a Stencil-1D workload
//! whose task outputs are that large then has a floor that cannot be
//! avoided — the host buffer registered per task and the device storage
//! each task's output is allocated into — and everything above that floor is
//! a copy somebody made on the way: cloning a buffer out of a registry or a
//! device memory, assembling a frame around it, taking one apart. The bound
//! allows one payload of slack and no more.
//!
//! This file holds a single test: the counter is process-wide, and a second
//! test running on another thread would be counted too.

use ompc::prelude::*;
use ompc::taskbench::{generate_workload, DependencePattern, TaskBenchConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// One task output: large enough that nothing else the runtime allocates
/// (codec buffers, tables, records) comes near it.
const PAYLOAD: usize = 256 * 1024;

/// Bytes allocated so far in blocks of at least [`PAYLOAD`] bytes.
static LARGE_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

fn count(size: usize) {
    if size >= PAYLOAD {
        LARGE_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees are this allocator's; counting touches
// only an atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was returned by this allocator, which is `System`,
        // for `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, which is `System`,
        // for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_stencil_run_allocates_its_buffers_and_copies_none_of_them() {
    // 4 points × 4 steps, every output one payload. Points 0–1 run on
    // worker 1 and points 2–3 on worker 2 (task `step * 4 + point`); the
    // stencil is periodic, so every output of the first three steps is
    // forwarded to the other worker.
    let shape = TaskBenchConfig::new(DependencePattern::Stencil1D, 4, 4, 0, PAYLOAD as u64);
    let workload = generate_workload(&shape);
    let tasks = workload.len() as u64;
    assert_eq!(tasks, 16);
    let assignment: Vec<NodeId> = (0..16).map(|task| 1 + (task % 4) / 2).collect();
    // The floor: one registered host buffer and one device allocation per
    // task output. One more payload of slack.
    let bound = (2 * tasks + 1) * PAYLOAD as u64;

    for backend in [BackendKind::Mpi, BackendKind::Threaded] {
        let config = OmpcConfig { backend, ..OmpcConfig::small() };
        let plan = RuntimePlan { assignment: assignment.clone(), window: config.inflight_window() };
        let mut device = ClusterDevice::with_config(2, config);
        let before = LARGE_BYTES.load(Ordering::Relaxed);
        let record = device.run_workload(&workload, &plan).unwrap();
        let allocated = LARGE_BYTES.load(Ordering::Relaxed) - before;
        device.shutdown();

        let moved = record.transfer_bytes();
        assert_eq!(moved, 12 * PAYLOAD as u64, "{backend:?}: four forwards a consuming step");
        assert!(
            allocated <= bound,
            "{backend:?}: {allocated} B allocated in payload-sized blocks ({:.1} payloads) to move \
             {moved} B; buffers alone need {} payloads, the bound is {}",
            allocated as f64 / PAYLOAD as f64,
            2 * tasks,
            bound / PAYLOAD as u64,
        );
    }
}
