//! The allocation budget of a task's round trip: how many times the
//! allocator is called per task while two Task Bench graphs run under their
//! HEFT plans on two workers — the 2 048-task dispatch graph (Stencil-1D,
//! 8 points × 256 steps, 16-byte outputs) and the data graph (Stencil-1D,
//! 4 points × 16 steps, 1 MiB outputs).
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

/// Allocator calls on the head per task of the dispatch graph, at most:
/// lowering a car writes it straight into its train's frame, a frame the
/// node has let go of; a task's dependences go into the region graph's flat
/// table; a buffer's copy list is one a removed buffer left. What is left is
/// the completion waits, the region's own tables and the release of the
/// run's buffers. 0.14–0.25 in 40 idle release runs on a 2-vCPU host
/// (0.14–0.29 in 20 release runs beside a busy loop, 0.14–0.15 in 10 debug
/// runs), plus 0.3.
const HEAD_BUDGET: f64 = 0.59;
/// Allocator calls on the workers per task of the dispatch graph (the
/// process less the head), at most: each car's steps are read in place from
/// the train's frame, its kernel's arguments are lent in the lane's slots,
/// and a delivery's headers go out as slices of one frame the lane writes
/// again once its receivers let go. What is left is the waits. 0.11–0.16
/// in the same 40 idle release runs (0.08–0.17 beside a busy loop,
/// 0.08–0.10 in debug), plus 0.3.
const WORKER_BUDGET: f64 = 0.47;
/// Allocator calls of the whole process per task of the dispatch graph, at
/// most: 0.26–0.41 in the same 40 idle release runs (0.22–0.45 beside a
/// busy loop, 0.22–0.25 in debug), plus 0.3.
const PROCESS_BUDGET: f64 = 0.75;
/// Allocator calls of the whole process per task of the data graph, at
/// most: a region of 64 tasks allocates each of its per-region tables once,
/// sized from the region's counts (the region graph's, the execution
/// core's, the lowering's push tables), so the head pays ≈ 1.8 calls a task
/// here, nearly all of them one per table per region. 1.97–2.12 in 20 idle
/// release runs on a 2-vCPU host (1.98–2.06 in 5 debug runs), plus 0.3.
const DATA_PROCESS_BUDGET: f64 = 2.42;

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

/// A Task Bench Stencil-1D graph of `width` × `steps` tasks with outputs of
/// `bytes`, its cost hints `nominal` seconds ± 10 %, so HEFT uses both
/// workers.
fn stencil(width: usize, steps: usize, bytes: u64, nominal: f64) -> WorkloadGraph {
    let config = TaskBenchConfig::new(DependencePattern::Stencil1D, width, steps, 0, bytes);
    let base = generate_workload(&config);
    let mut rng = ompc_testutil::Rng::new(7001);
    let mut graph = TaskGraph::new();
    for task in base.graph.tasks() {
        graph.add_task_full(
            nominal * (0.9 + 0.2 * rng.range(0, 1000) as f64 / 1000.0),
            None,
            task.label.clone(),
        );
    }
    for edge in base.graph.edges() {
        graph.add_edge(edge.from, edge.to, edge.bytes);
    }
    WorkloadGraph::new(graph, base.output_bytes)
}

/// `(head, workers, process)` allocator calls per task of `workload`, over
/// five runs on one device after two to warm it up.
fn calls_per_task(workload: &WorkloadGraph) -> (f64, f64, f64) {
    const WARM_UP: usize = 2;
    const RUNS: usize = 5;
    let config = OmpcConfig::small();
    let mut device = ClusterDevice::with_config(2, config.clone());
    let run = || {
        let plan = RuntimePlan::for_workload(workload, &Platform::cluster(2), &config);
        let record = device.run_workload(workload, &plan).unwrap();
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
    (head, process - head, process)
}

#[test]
fn the_dispatch_path_stays_inside_its_allocation_budget() {
    let (head, workers, process) = calls_per_task(&stencil(8, 256, 16, 1e-5));
    println!(
        "dispatch graph, allocator calls per task: head {head:.2}, workers {workers:.2}, \
         process-wide {process:.2}"
    );
    assert!(head <= HEAD_BUDGET, "the head makes {head:.2} allocator calls per task");
    assert!(workers <= WORKER_BUDGET, "the workers make {workers:.2} allocator calls per task");
    assert!(process <= PROCESS_BUDGET, "the process makes {process:.2} allocator calls per task");

    let (head, workers, process) = calls_per_task(&stencil(4, 16, 1 << 20, 1e-3));
    println!(
        "data graph, allocator calls per task: head {head:.2}, workers {workers:.2}, \
         process-wide {process:.2}"
    );
    assert!(
        process <= DATA_PROCESS_BUDGET,
        "the process makes {process:.2} allocator calls per task of the data graph"
    );
}
