//! The data path moves handles, not bytes — pinned without a clock.
//!
//! A counting global allocator adds up every block the process allocates
//! that is at least as large as one payload. A Stencil-1D workload whose
//! task outputs are that large but are never written needs none: a buffer
//! that is registered or allocated and not yet written is a view of the one
//! shared block of zeros. When the kernels do write their outputs the floor
//! is one block per written output — the kernel's own. Everything above
//! the floor is a copy somebody made on the way: cloning a buffer out of a
//! registry or a device memory, assembling a frame around it, taking one
//! apart, filling zeros nobody reads. The bound allows the zero block, one
//! payload of slack, and no more.
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
    // Nothing writes an output, so no buffer needs memory of its own: the
    // shared zero block, and one more payload of slack.
    let slack = 2 * PAYLOAD as u64;

    let config = OmpcConfig::small();
    let plan = RuntimePlan { assignment: assignment.clone(), window: config.inflight_window() };
    let mut device = ClusterDevice::with_config(2, config);
    let before = LARGE_BYTES.load(Ordering::Relaxed);
    let record = device.run_workload(&workload, &plan).unwrap();
    let allocated = LARGE_BYTES.load(Ordering::Relaxed) - before;

    let moved = record.transfer_bytes();
    assert_eq!(moved, 12 * PAYLOAD as u64, "four forwards a consuming step");
    assert!(
        allocated <= slack,
        "{allocated} B allocated in payload-sized blocks ({:.1} payloads) to move \
         {moved} B of outputs nobody wrote; the bound is 2 payloads",
        allocated as f64 / PAYLOAD as f64,
    );

    // Kernels that write their outputs — through `bytes_mut`, which
    // materialises the zeros, or `set_f64s`, which replaces them — cost
    // exactly the block each of them writes.
    const OUTPUTS: u64 = 8;
    let ones = std::sync::Arc::new(vec![1.0f64; PAYLOAD / 8]);
    let fill = std::sync::Arc::clone(&ones);
    let write = device.register_kernel_fn("write", 1e-3, move |args| {
        if args.buffer_id(0).0 % 2 == 0 {
            args.bytes_mut(0)[PAYLOAD - 1] = 1;
        } else {
            args.set_f64s(0, &fill);
        }
    });
    let before = LARGE_BYTES.load(Ordering::Relaxed);
    let mut region = device.target_region();
    let outputs: Vec<BufferId> = (0..OUTPUTS).map(|_| region.map_alloc(PAYLOAD)).collect();
    for &output in &outputs {
        region.target(write, vec![Dependence::output(output)]);
        region.map_from(output);
    }
    region.run().unwrap();
    let allocated = LARGE_BYTES.load(Ordering::Relaxed) - before;
    let floor = OUTPUTS * PAYLOAD as u64;
    assert!(
        (floor..=floor + slack).contains(&allocated),
        "{:.1} payloads allocated for {OUTPUTS} written outputs",
        allocated as f64 / PAYLOAD as f64,
    );
    for output in outputs {
        let data = device.buffer_data(output).unwrap();
        assert_eq!(data.len(), PAYLOAD);
        match output.0 % 2 {
            0 => assert!(data[PAYLOAD - 1] == 1 && data[..PAYLOAD - 1].iter().all(|&b| b == 0)),
            _ => assert_eq!(data, ompc::mpi::typed::f64s_to_bytes(&ones)),
        }
    }
    device.shutdown();
}
