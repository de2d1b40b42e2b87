//! The runtime task graph of one target region.
//!
//! Tasks are appended in program order; dependence edges are derived from
//! the `depend` clauses exactly as the OpenMP specification prescribes:
//!
//! * a reader depends on the last writer of the buffer (flow / RAW),
//! * a writer depends on the last writer (output / WAW) and on every reader
//!   since that write (anti / WAR).
//!
//! Only flow edges move data at run time; anti and output edges are pure
//! ordering constraints. The head node keeps this graph, hands it to the
//! HEFT scheduler at the implicit barrier, and then retires tasks as their
//! dependences are satisfied (paper §3.1 and §4.4).

use crate::types::{BufferId, Dependence, KernelId, MapType, TaskId};
use std::collections::HashMap;

/// What a task does when it runs.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// `target enter data`: make the buffer available on the cluster.
    EnterData { buffer: BufferId, map: MapType },
    /// `target exit data`: bring the buffer back / release it.
    ExitData { buffer: BufferId, map: MapType },
    /// `target nowait`: run a kernel on a worker node.
    Target { kernel: KernelId, cost_hint: f64 },
    /// A classical OpenMP task: runs on the head node (pinned there, as the
    /// runtime must not violate OpenMP host-task semantics).
    Host { cost_hint: f64 },
}

impl TaskKind {
    /// Whether this task executes user code on a worker node.
    pub fn is_target(&self) -> bool {
        matches!(self, TaskKind::Target { .. })
    }

    /// Whether this task is a pure data-movement task.
    pub fn is_data(&self) -> bool {
        matches!(self, TaskKind::EnterData { .. } | TaskKind::ExitData { .. })
    }

    /// The buffer a data-movement task operates on (`None` for target and
    /// host tasks). Residency-aware planning uses this to pin enter/exit
    /// tasks next to the buffer's current device-resident copy.
    pub fn data_buffer(&self) -> Option<BufferId> {
        match self {
            TaskKind::EnterData { buffer, .. } | TaskKind::ExitData { buffer, .. } => Some(*buffer),
            _ => None,
        }
    }

    /// Estimated compute cost in seconds (data tasks cost nothing on a
    /// core; their cost is communication, accounted separately).
    pub fn cost_hint(&self) -> f64 {
        match self {
            TaskKind::Target { cost_hint, .. } | TaskKind::Host { cost_hint } => *cost_hint,
            _ => 0.0,
        }
    }
}

/// The reason an edge exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Read-after-write: data flows from producer to consumer.
    Flow,
    /// Write-after-read: pure ordering.
    Anti,
    /// Write-after-write: pure ordering.
    Output,
}

/// A dependence edge between two tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskEdge {
    /// Producer (must finish first).
    pub from: TaskId,
    /// Consumer.
    pub to: TaskId,
    /// Buffer that induced the edge.
    pub buffer: BufferId,
    /// Why the edge exists; only [`EdgeKind::Flow`] edges move data.
    pub kind: EdgeKind,
}

/// A node of the region graph.
#[derive(Debug, Clone)]
pub struct TargetTask {
    /// Dense task id (position in the region).
    pub id: TaskId,
    /// What the task does.
    pub kind: TaskKind,
    /// Its `depend` clauses.
    pub dependences: Vec<Dependence>,
    /// Trace label.
    pub label: String,
}

#[derive(Debug, Default, Clone)]
struct BufferState {
    last_writer: Option<TaskId>,
    readers_since_write: Vec<TaskId>,
}

/// The dependence graph of one target region.
#[derive(Debug, Default, Clone)]
pub struct RegionGraph {
    tasks: Vec<TargetTask>,
    edges: Vec<TaskEdge>,
    successors: Vec<Vec<TaskId>>,
    predecessors: Vec<Vec<TaskId>>,
    /// Per task, every `(buffer, reader)` reading a version it wrote.
    readers: Vec<Vec<(BufferId, TaskId)>>,
    buffer_state: HashMap<BufferId, BufferState>,
}

impl RegionGraph {
    /// Create an empty region graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a task, deriving its dependence edges from `dependences`.
    pub fn add_task(
        &mut self,
        kind: TaskKind,
        dependences: Vec<Dependence>,
        label: impl Into<String>,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.successors.push(Vec::new());
        self.predecessors.push(Vec::new());
        self.readers.push(Vec::new());

        // Collect edges first to avoid duplicated edges when a task both
        // reads and writes the same buffer.
        let mut new_edges: Vec<TaskEdge> = Vec::new();
        for dep in &dependences {
            let state = self.buffer_state.entry(dep.buffer).or_default();
            if dep.dep_type.reads() {
                if let Some(writer) = state.last_writer {
                    self.readers[writer.0].push((dep.buffer, id));
                    new_edges.push(TaskEdge {
                        from: writer,
                        to: id,
                        buffer: dep.buffer,
                        kind: EdgeKind::Flow,
                    });
                }
            }
            if dep.dep_type.writes() {
                for &reader in &state.readers_since_write {
                    if reader != id {
                        new_edges.push(TaskEdge {
                            from: reader,
                            to: id,
                            buffer: dep.buffer,
                            kind: EdgeKind::Anti,
                        });
                    }
                }
                if let Some(writer) = state.last_writer {
                    // Only add an output edge if we did not already add a
                    // flow edge from the same writer.
                    if !dep.dep_type.reads() {
                        new_edges.push(TaskEdge {
                            from: writer,
                            to: id,
                            buffer: dep.buffer,
                            kind: EdgeKind::Output,
                        });
                    }
                }
            }
        }
        // Update buffer states after computing edges.
        for dep in &dependences {
            let state = self.buffer_state.entry(dep.buffer).or_default();
            if dep.dep_type.writes() {
                state.last_writer = Some(id);
                state.readers_since_write.clear();
            }
            if dep.dep_type.reads() && !dep.dep_type.writes() {
                state.readers_since_write.push(id);
            }
        }

        // Deduplicate edges between the same pair of tasks, preferring flow
        // edges (they carry data-movement information).
        new_edges.sort_by_key(|e| {
            (e.from.0, matches!(e.kind, EdgeKind::Flow).then_some(0).unwrap_or(1))
        });
        let mut seen: Vec<TaskId> = Vec::new();
        for edge in new_edges {
            if seen.contains(&edge.from) {
                continue;
            }
            seen.push(edge.from);
            self.successors[edge.from.0].push(id);
            self.predecessors[id.0].push(edge.from);
            self.edges.push(edge);
        }

        self.tasks.push(TargetTask { id, kind, dependences, label: label.into() });
        id
    }

    /// All tasks in program order.
    pub fn tasks(&self) -> &[TargetTask] {
        &self.tasks
    }

    /// A task by id.
    pub fn task(&self, id: TaskId) -> &TargetTask {
        &self.tasks[id.0]
    }

    /// All dependence edges.
    pub fn edges(&self) -> &[TaskEdge] {
        &self.edges
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the region has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Direct successors of a task.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.successors[id.0]
    }

    /// Direct predecessors of a task.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        &self.predecessors[id.0]
    }

    /// Every `(buffer, reader)` of a version `writer` wrote ([`Self::edges`]: one per pair).
    pub fn readers_of(&self, writer: TaskId) -> &[(BufferId, TaskId)] {
        &self.readers[writer.0]
    }

    /// Flow edges into `id`: the buffers whose data the task consumes and
    /// the tasks that produced them.
    pub fn flow_inputs(&self, id: TaskId) -> Vec<(TaskId, BufferId)> {
        self.edges
            .iter()
            .filter(|e| e.to == id && e.kind == EdgeKind::Flow)
            .map(|e| (e.from, e.buffer))
            .collect()
    }

    /// Tasks with no predecessors.
    pub fn roots(&self) -> Vec<TaskId> {
        (0..self.len()).map(TaskId).filter(|t| self.predecessors[t.0].is_empty()).collect()
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        (0..self.len()).map(TaskId).filter(|t| self.successors[t.0].is_empty()).collect()
    }

    /// Program order is always a valid topological order because edges only
    /// ever point from earlier to later tasks; this method exists for
    /// clarity at call sites.
    pub fn topological_order(&self) -> Vec<TaskId> {
        (0..self.len()).map(TaskId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing1_graph() -> (RegionGraph, Vec<TaskId>) {
        // The paper's Listing 1: enter data(A) -> foo(inout A) -> bar(inout A)
        // -> exit data(A).
        let mut g = RegionGraph::new();
        let a = BufferId(0);
        let t0 = g.add_task(
            TaskKind::EnterData { buffer: a, map: MapType::To },
            vec![Dependence::output(a)],
            "enter A",
        );
        let t1 = g.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 },
            vec![Dependence::inout(a)],
            "foo",
        );
        let t2 = g.add_task(
            TaskKind::Target { kernel: KernelId(1), cost_hint: 1.0 },
            vec![Dependence::inout(a)],
            "bar",
        );
        let t3 = g.add_task(
            TaskKind::ExitData { buffer: a, map: MapType::Release },
            vec![Dependence::input(a)],
            "exit A",
        );
        (g, vec![t0, t1, t2, t3])
    }

    #[test]
    fn listing1_builds_a_chain() {
        let (g, t) = listing1_graph();
        assert_eq!(g.len(), 4);
        assert_eq!(g.successors(t[0]), &[t[1]]);
        assert_eq!(g.successors(t[1]), &[t[2]]);
        assert_eq!(g.successors(t[2]), &[t[3]]);
        assert_eq!(g.roots(), vec![t[0]]);
        assert_eq!(g.sinks(), vec![t[3]]);
        // foo -> bar carries data (flow), enter -> foo carries data.
        assert_eq!(g.flow_inputs(t[1]), vec![(t[0], BufferId(0))]);
        assert_eq!(g.flow_inputs(t[2]), vec![(t[1], BufferId(0))]);
    }

    #[test]
    fn independent_readers_do_not_depend_on_each_other() {
        let mut g = RegionGraph::new();
        let a = BufferId(0);
        let w = g.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 },
            vec![Dependence::output(a)],
            "producer",
        );
        let r1 = g.add_task(
            TaskKind::Target { kernel: KernelId(1), cost_hint: 1.0 },
            vec![Dependence::input(a)],
            "reader1",
        );
        let r2 = g.add_task(
            TaskKind::Target { kernel: KernelId(1), cost_hint: 1.0 },
            vec![Dependence::input(a)],
            "reader2",
        );
        assert_eq!(g.predecessors(r1), &[w]);
        assert_eq!(g.predecessors(r2), &[w]);
        assert!(g.successors(r1).is_empty());
        assert!(!g.successors(w).is_empty());
    }

    #[test]
    fn writer_after_readers_gets_anti_edges() {
        let mut g = RegionGraph::new();
        let a = BufferId(0);
        let w0 = g.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 },
            vec![Dependence::output(a)],
            "w0",
        );
        let r = g.add_task(
            TaskKind::Target { kernel: KernelId(1), cost_hint: 1.0 },
            vec![Dependence::input(a)],
            "r",
        );
        let w1 = g.add_task(
            TaskKind::Target { kernel: KernelId(2), cost_hint: 1.0 },
            vec![Dependence::output(a)],
            "w1",
        );
        let _ = w0;
        // w1 must wait for the reader (anti edge), not only the writer.
        assert!(g.predecessors(w1).contains(&r));
        let anti: Vec<_> = g.edges().iter().filter(|e| e.kind == EdgeKind::Anti).collect();
        assert_eq!(anti.len(), 1);
        assert_eq!(anti[0].from, r);
        assert_eq!(anti[0].to, w1);
    }

    #[test]
    fn write_after_write_gets_output_edge() {
        let mut g = RegionGraph::new();
        let a = BufferId(0);
        let w0 = g.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 },
            vec![Dependence::output(a)],
            "w0",
        );
        let w1 = g.add_task(
            TaskKind::Target { kernel: KernelId(1), cost_hint: 1.0 },
            vec![Dependence::output(a)],
            "w1",
        );
        assert_eq!(g.predecessors(w1), &[w0]);
        assert_eq!(g.edges()[0].kind, EdgeKind::Output);
    }

    #[test]
    fn independent_buffers_create_parallel_tasks() {
        let mut g = RegionGraph::new();
        let a = BufferId(0);
        let b = BufferId(1);
        g.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 },
            vec![Dependence::inout(a)],
            "ta",
        );
        g.add_task(
            TaskKind::Target { kernel: KernelId(1), cost_hint: 1.0 },
            vec![Dependence::inout(b)],
            "tb",
        );
        assert_eq!(g.roots().len(), 2);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn duplicate_edges_between_same_pair_are_collapsed() {
        let mut g = RegionGraph::new();
        let a = BufferId(0);
        let b = BufferId(1);
        let p = g.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 },
            vec![Dependence::output(a), Dependence::output(b)],
            "p",
        );
        let c = g.add_task(
            TaskKind::Target { kernel: KernelId(1), cost_hint: 1.0 },
            vec![Dependence::input(a), Dependence::input(b)],
            "c",
        );
        // Two buffers but only one structural edge between the pair ...
        assert_eq!(g.predecessors(c), &[p]);
        assert_eq!(g.successors(p), &[c]);
        assert_eq!(g.edges().len(), 1);
        // ... while the consumer reads both versions the producer wrote.
        assert_eq!(g.readers_of(p), &[(a, c), (b, c)]);
    }

    #[test]
    fn a_reader_reads_the_version_of_the_last_writer_before_it() {
        let mut g = RegionGraph::new();
        let a = BufferId(0);
        let kind = || TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 };
        let w0 = g.add_task(kind(), vec![Dependence::output(a)], "w0");
        let r0 = g.add_task(kind(), vec![Dependence::input(a)], "r0");
        let w1 = g.add_task(kind(), vec![Dependence::inout(a)], "w1");
        let r1 = g.add_task(kind(), vec![Dependence::input(a)], "r1");
        // w1 reads w0's version too; r1 reads w1's, though it follows w0.
        assert_eq!(g.readers_of(w0), &[(a, r0), (a, w1)]);
        assert_eq!(g.readers_of(w1), &[(a, r1)]);
        assert!(g.readers_of(r0).is_empty() && g.readers_of(r1).is_empty());
    }

    #[test]
    fn task_kind_helpers() {
        assert!(TaskKind::Target { kernel: KernelId(0), cost_hint: 0.5 }.is_target());
        assert!(TaskKind::EnterData { buffer: BufferId(0), map: MapType::To }.is_data());
        assert!(TaskKind::ExitData { buffer: BufferId(0), map: MapType::From }.is_data());
        assert!(!TaskKind::Host { cost_hint: 0.1 }.is_target());
        assert_eq!(TaskKind::Host { cost_hint: 0.1 }.cost_hint(), 0.1);
        assert_eq!(TaskKind::EnterData { buffer: BufferId(0), map: MapType::To }.cost_hint(), 0.0);
        assert_eq!(
            TaskKind::EnterData { buffer: BufferId(3), map: MapType::ToResident }.data_buffer(),
            Some(BufferId(3))
        );
        assert_eq!(
            TaskKind::ExitData { buffer: BufferId(4), map: MapType::From }.data_buffer(),
            Some(BufferId(4))
        );
        assert_eq!(TaskKind::Host { cost_hint: 0.1 }.data_buffer(), None);
    }

    #[test]
    fn program_order_is_topological() {
        let (g, _) = listing1_graph();
        let order = g.topological_order();
        for e in g.edges() {
            let from_pos = order.iter().position(|&t| t == e.from).unwrap();
            let to_pos = order.iter().position(|&t| t == e.to).unwrap();
            assert!(from_pos < to_pos);
        }
    }
}
