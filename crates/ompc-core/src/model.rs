//! Conversions between the runtime's task graphs and the abstract graphs
//! consumed by the schedulers and the simulated runtimes.

use crate::buffer::BufferRegistry;
use crate::task::{EdgeKind, RegionGraph, TaskKind};
use crate::types::{BufferId, Dependence, KernelId};
use ompc_sched::TaskGraph;

/// An abstract workload: a schedulable task graph plus the number of bytes
/// each task produces as output. This is the common currency between the
/// Task Bench generator, the simulated OMPC runtime, and the baseline
/// runtime models, so all of them execute exactly the same workload.
#[derive(Debug, Clone, Default)]
pub struct WorkloadGraph {
    /// Task costs (seconds) and dependence edges (bytes).
    pub graph: TaskGraph,
    /// Output size in bytes of each task, indexed by task id. Roots consume
    /// an input of this size from the head node under OMPC; sinks have
    /// their output of this size retrieved at exit data.
    pub output_bytes: Vec<u64>,
}

impl WorkloadGraph {
    /// Create a workload from a graph and per-task output sizes.
    pub fn new(graph: TaskGraph, output_bytes: Vec<u64>) -> Self {
        assert_eq!(graph.len(), output_bytes.len(), "output_bytes must have one entry per task");
        Self { graph, output_bytes }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the workload has no tasks.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Total bytes on all dependence edges.
    pub fn total_edge_bytes(&self) -> u64 {
        self.graph.edges().iter().map(|e| e.bytes).sum()
    }

    /// Total compute seconds across all tasks.
    pub fn total_compute(&self) -> f64 {
        self.graph.total_cost()
    }

    /// The workload as a region of `kernel` target tasks, as
    /// [`crate::cluster::ClusterDevice::run_workload`] runs it: task `t`
    /// writes `outputs[t]` and reads the output of each of its
    /// predecessors, its cost hint the task's cost. Unlabelled: the task's
    /// index is its name in both graphs. Each task's dependences go
    /// straight into the region graph's flat table, each table sized for the
    /// whole workload up front.
    pub fn region(&self, kernel: KernelId, outputs: &[BufferId]) -> RegionGraph {
        let edges = self.graph.edges().len();
        let mut region = RegionGraph::with_capacity(self.len(), self.len() + edges, edges);
        for (t, task) in self.graph.tasks().iter().enumerate() {
            let inputs = self.graph.predecessors(t).iter().map(|&pred| outputs[pred]);
            let deps = std::iter::once(Dependence::output(outputs[t]))
                .chain(inputs.map(Dependence::input));
            region.add_task(TaskKind::Target { kernel, cost_hint: task.cost }, deps, String::new());
        }
        region
    }
}

/// Convert a runtime [`RegionGraph`] into the scheduler's [`TaskGraph`].
///
/// * Target and host tasks keep their cost hints; data tasks cost nothing.
/// * Flow edges carry the size of the buffer that moves; anti and output
///   edges carry zero bytes (pure ordering).
/// * No task is pinned here: the runtime itself pins data tasks to their
///   consumer's node after scheduling (paper §4.4) and executes host tasks
///   on the head node outside the offload schedule.
pub fn region_to_sched(region: &RegionGraph, buffers: &BufferRegistry) -> TaskGraph {
    let mut graph = TaskGraph::new();
    for task in region.tasks() {
        let cost = match &task.kind {
            TaskKind::Target { cost_hint, .. } | TaskKind::Host { cost_hint } => *cost_hint,
            TaskKind::EnterData { .. } | TaskKind::ExitData { .. } => 0.0,
        };
        graph.add_task_full(cost, None, task.label.clone());
    }
    for edge in region.edges() {
        let bytes = if edge.kind == EdgeKind::Flow {
            buffers.size_of(edge.buffer).unwrap_or(0) as u64
        } else {
            0
        };
        graph.add_edge(edge.from.0, edge.to.0, bytes);
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Dependence, KernelId, MapType};

    #[test]
    fn workload_graph_validates_lengths() {
        let mut g = TaskGraph::new();
        g.add_task(1.0);
        g.add_task(2.0);
        g.add_edge(0, 1, 128);
        let w = WorkloadGraph::new(g, vec![64, 64]);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(w.total_edge_bytes(), 128);
        assert!((w.total_compute() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one entry per task")]
    fn mismatched_output_bytes_panics() {
        let mut g = TaskGraph::new();
        g.add_task(1.0);
        let _ = WorkloadGraph::new(g, vec![]);
    }

    #[test]
    fn region_conversion_preserves_structure_and_sizes() {
        let buffers = BufferRegistry::new();
        let a = buffers.register(vec![0u8; 1000]);
        let mut region = RegionGraph::new();
        let enter = region.add_task(
            TaskKind::EnterData { buffer: a, map: MapType::To },
            vec![Dependence::output(a)],
            "enter",
        );
        let foo = region.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 0.25 },
            vec![Dependence::inout(a)],
            "foo",
        );
        let exit = region.add_task(
            TaskKind::ExitData { buffer: a, map: MapType::From },
            vec![Dependence::input(a)],
            "exit",
        );
        let sched = region_to_sched(&region, &buffers);
        assert_eq!(sched.len(), 3);
        assert!((sched.tasks()[enter.0].cost - 0.0).abs() < 1e-12);
        assert!((sched.tasks()[foo.0].cost - 0.25).abs() < 1e-12);
        assert_eq!(sched.edge_bytes(enter.0, foo.0), 1000);
        assert_eq!(sched.edge_bytes(foo.0, exit.0), 1000);
        assert!(sched.is_acyclic());
        let _ = exit;
    }

    #[test]
    fn anti_edges_carry_no_bytes() {
        let buffers = BufferRegistry::new();
        let a = buffers.register(vec![0u8; 512]);
        let mut region = RegionGraph::new();
        let w0 = region.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 0.1 },
            vec![Dependence::output(a)],
            "w0",
        );
        let r = region.add_task(
            TaskKind::Target { kernel: KernelId(1), cost_hint: 0.1 },
            vec![Dependence::input(a)],
            "r",
        );
        let w1 = region.add_task(
            TaskKind::Target { kernel: KernelId(2), cost_hint: 0.1 },
            vec![Dependence::output(a)],
            "w1",
        );
        let sched = region_to_sched(&region, &buffers);
        assert_eq!(sched.edge_bytes(w0.0, r.0), 512);
        // The anti edge r -> w1 moves nothing.
        assert_eq!(sched.edge_bytes(r.0, w1.0), 0);
    }
}
