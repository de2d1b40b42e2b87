//! # ompc-sched — task-graph schedulers for the OMPC runtime
//!
//! The OMPC runtime schedules the whole task graph *statically* once the
//! control thread reaches the implicit barrier of the enclosing parallel
//! region, using the HEFT algorithm (paper §4.4). This crate implements
//! HEFT together with the alternatives used for comparison and ablation:
//!
//! * [`HeftScheduler`] — Heterogeneous Earliest Finish Time with the
//!   insertion-based policy of Topcuoglu et al., the scheduler OMPC adopts.
//! * [`RoundRobinScheduler`] — placement by task index, communication
//!   oblivious; a lower bound on scheduling intelligence.
//! * [`MinMinScheduler`] — classic list scheduling by minimum completion
//!   time.
//!
//! The ablation figure compares the three on Task Bench shapes where the
//! choice shows: fig. 6's FFT at CCR 0.5 on 16 nodes (HEFT and min-min
//! ahead of round-robin), fig. 5's FFT at 64 nodes (min-min, then HEFT, then
//! round-robin) and fig. 5's Stencil-1D at 32 nodes, where HEFT trails the
//! other two.
//!
//! The scheduler operates on a [`TaskGraph`] of abstract tasks (costs in
//! seconds, edges weighted in bytes) and a [`Platform`] describing processor
//! speeds and the interconnect. It returns a [`Schedule`] — a processor
//! assignment plus estimated start/finish times — which the runtime then
//! executes dynamically as dependences are satisfied.

pub mod csr;
pub mod graph;
pub mod heft;
pub mod list;
pub mod platform;
pub mod schedule;

pub use csr::Csr;
pub use graph::{SchedEdge, SchedTask, TaskGraph};
pub use heft::HeftScheduler;
pub use list::{MinMinScheduler, RoundRobinScheduler};
pub use platform::Platform;
pub use schedule::{Placement, Schedule};

/// A static task-graph scheduler.
pub trait Scheduler {
    /// Compute a placement and time estimate for every task of `graph` on
    /// `platform`. Implementations must honour [`SchedTask::pinned`].
    fn schedule(&self, graph: &TaskGraph, platform: &Platform) -> Schedule;

    /// Incremental variant: schedule `graph` on a platform whose processors
    /// already carry `load[p]` seconds of in-flight work (running regions
    /// that have not finished yet). A processor's reserved load occupies its
    /// timeline from time zero, so new tasks slot in *after* (or around) the
    /// work already committed — starting region K+1 reserves capacity
    /// against the in-flight snapshot instead of re-running the scheduler
    /// over every running graph. The default ignores the load (schedulers
    /// that model no timeline, e.g. round-robin, behave identically either
    /// way); an all-zero or empty `load` must degrade to
    /// [`Scheduler::schedule`] exactly.
    fn schedule_with_load(&self, graph: &TaskGraph, platform: &Platform, load: &[f64]) -> Schedule {
        let _ = load;
        self.schedule(graph, platform)
    }

    /// Human-readable name used in benchmark reports.
    fn name(&self) -> &'static str;
}
