//! The dispatch path's allocation budget: how many times the allocator is
//! called per task while the 2 048-task dispatch graph (Stencil-1D, 8 points
//! × 256 steps, 16-byte outputs) runs under its HEFT plan on two workers.
//!
//! This binary installs its own counting global allocator, which counts
//! every `alloc`, `alloc_zeroed` and `realloc` call both per thread and
//! process-wide. The head is the thread that calls
//! `ClusterDevice::run_workload`; "process-wide" adds the workers' event
//! pools. The test holds this file's only `#[test]`, so no other test body
//! allocates beside it.
//!
//! Run with `cargo test --release --test alloc_budget -- --nocapture` to
//! see the head's, the workers' and the process's figures.

use ompc::prelude::*;
use ompc::sched::{Platform, TaskGraph};
use ompc::taskbench::{generate_workload, DependencePattern, TaskBenchConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocator calls on the head per task, at most: lowering a car writes it
/// straight into its train's frame, so what is left is the workload's
/// dependence list, each buffer's copy list, a train's frame and the
/// completion waits.
const HEAD_BUDGET: f64 = 3.0;
/// Allocator calls on the workers per task (the process less the head), at
/// most: each car's steps and its `Execute` buffer list decode into fresh
/// lists, each reply and push header is a vector of its own, and so is each
/// train's outbox. With one lane per worker: 5.10–5.47 in 50 idle release
/// runs on a 2-vCPU host (5.11–5.36 in 30 release runs beside a busy loop,
/// 5.16–5.26 in 35 debug runs), plus 0.3.
const WORKER_BUDGET: f64 = 5.77;
/// Allocator calls of the whole process per task, at most: 7.46–8.01 in the
/// same 50 idle release runs (7.47–7.84 beside a busy loop, 7.53–7.70 in
/// debug), plus 0.3.
const PROCESS_BUDGET: f64 = 8.31;

static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    // A thread being torn down has no counter left: its calls count
    // process-wide only.
    let _ = THREAD.try_with(|calls| calls.set(calls.get() + 1));
}

/// The system allocator, counting every call that hands out memory.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(this thread, process)` allocator calls so far.
fn calls() -> (u64, u64) {
    (THREAD.with(Cell::get), PROCESS.load(Ordering::Relaxed))
}

/// The dispatch graph with cost hints of 10 µs ± 10 %, so HEFT uses both
/// workers.
fn dispatch_graph() -> WorkloadGraph {
    let base =
        generate_workload(&TaskBenchConfig::new(DependencePattern::Stencil1D, 8, 256, 0, 16));
    let mut rng = ompc_testutil::Rng::new(7001);
    let mut graph = TaskGraph::new();
    for task in base.graph.tasks() {
        graph.add_task_full(
            1e-5 * (0.9 + 0.2 * rng.range(0, 1000) as f64 / 1000.0),
            None,
            task.label.clone(),
        );
    }
    for edge in base.graph.edges() {
        graph.add_edge(edge.from, edge.to, edge.bytes);
    }
    WorkloadGraph::new(graph, base.output_bytes)
}

#[test]
fn the_dispatch_path_stays_inside_its_allocation_budget() {
    const WARM_UP: usize = 2;
    const RUNS: usize = 5;
    let workload = dispatch_graph();
    let config = OmpcConfig::small();
    let mut device = ClusterDevice::with_config(2, config.clone());
    let run = || {
        let plan = RuntimePlan::for_workload(&workload, &Platform::cluster(2), &config);
        let record = device.run_workload(&workload, &plan).unwrap();
        assert_eq!(record.completion_order.len(), workload.len());
    };
    for _ in 0..WARM_UP {
        run();
    }
    let (head_before, process_before) = calls();
    for _ in 0..RUNS {
        run();
    }
    let (head_after, process_after) = calls();
    device.shutdown();
    let tasks = (RUNS * workload.len()) as f64;
    let head = (head_after - head_before) as f64 / tasks;
    let process = (process_after - process_before) as f64 / tasks;
    let workers = process - head;
    println!(
        "allocator calls per task: head {head:.2}, workers {workers:.2}, process-wide {process:.2}"
    );
    assert!(head <= HEAD_BUDGET, "the head makes {head:.2} allocator calls per task");
    assert!(workers <= WORKER_BUDGET, "the workers make {workers:.2} allocator calls per task");
    assert!(process <= PROCESS_BUDGET, "the process makes {process:.2} allocator calls per task");
}
