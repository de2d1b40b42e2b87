//! The abstract task graph consumed by the schedulers.

use std::collections::VecDeque;

/// A schedulable task.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedTask {
    /// Index of the task; must equal its position in [`TaskGraph::tasks`].
    pub id: usize,
    /// Estimated execution cost in seconds on a unit-speed processor.
    pub cost: f64,
    /// If set, the task must be placed on this processor. OMPC pins
    /// classical `task`-directive tasks to the head node and co-schedules
    /// `target data` tasks with their consumers this way.
    pub pinned: Option<usize>,
    /// Free-form label used in traces and reports.
    pub label: String,
}

impl SchedTask {
    /// Convenience constructor for an unpinned task.
    pub fn new(id: usize, cost: f64) -> Self {
        Self { id, cost, pinned: None, label: String::new() }
    }

    /// Convenience constructor for a pinned task.
    pub fn pinned(id: usize, cost: f64, proc: usize) -> Self {
        Self { id, cost, pinned: Some(proc), label: String::new() }
    }
}

/// A data dependence between two tasks, weighted by the bytes that must move
/// if the two tasks run on different processors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedEdge {
    /// Producer task id.
    pub from: usize,
    /// Consumer task id.
    pub to: usize,
    /// Bytes communicated along the edge.
    pub bytes: u64,
}

/// A directed acyclic task graph.
///
/// The adjacency is weighted: next to every entry of `successors[t]` /
/// `predecessors[t]` sits the total bytes flowing between that pair of
/// tasks, so the schedulers and runtimes read an edge's weight where they
/// read its endpoint instead of searching the edge list for it.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<SchedTask>,
    edges: Vec<SchedEdge>,
    successors: Vec<Vec<usize>>,
    predecessors: Vec<Vec<usize>>,
    /// `successor_bytes[t][i]` is the total bytes on all edges
    /// `t -> successors[t][i]`; parallel edges each carry the pair's sum.
    successor_bytes: Vec<Vec<u64>>,
    /// Likewise for `predecessors[t][i] -> t`.
    predecessor_bytes: Vec<Vec<u64>>,
}

impl TaskGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task and return its id. Ids are assigned densely from 0.
    pub fn add_task(&mut self, cost: f64) -> usize {
        self.add_task_full(cost, None, String::new())
    }

    /// Add a task with pinning and label.
    pub fn add_task_full(&mut self, cost: f64, pinned: Option<usize>, label: String) -> usize {
        let id = self.tasks.len();
        self.tasks.push(SchedTask { id, cost, pinned, label });
        self.successors.push(Vec::new());
        self.predecessors.push(Vec::new());
        self.successor_bytes.push(Vec::new());
        self.predecessor_bytes.push(Vec::new());
        id
    }

    /// Add a dependence edge `from -> to` carrying `bytes`.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist or if the edge would point
    /// from a task to itself.
    pub fn add_edge(&mut self, from: usize, to: usize, bytes: u64) -> usize {
        assert!(from < self.tasks.len(), "unknown producer task {from}");
        assert!(to < self.tasks.len(), "unknown consumer task {to}");
        assert_ne!(from, to, "self-dependence on task {from}");
        let idx = self.edges.len();
        self.edges.push(SchedEdge { from, to, bytes });
        // A parallel edge raises the pair's total on every entry the pair
        // already has, so each adjacency entry always carries the sum.
        let before = self.pair_bytes(from, to);
        let total = before.unwrap_or(0) + bytes;
        if before.is_some_and(|b| b != total) {
            let entries = self.successors[from].iter().zip(&mut self.successor_bytes[from]);
            entries.filter(|(&s, _)| s == to).for_each(|(_, b)| *b = total);
            let entries = self.predecessors[to].iter().zip(&mut self.predecessor_bytes[to]);
            entries.filter(|(&p, _)| p == from).for_each(|(_, b)| *b = total);
        }
        self.successors[from].push(to);
        self.successor_bytes[from].push(total);
        self.predecessors[to].push(from);
        self.predecessor_bytes[to].push(total);
        idx
    }

    /// All tasks, indexed by id.
    pub fn tasks(&self) -> &[SchedTask] {
        &self.tasks
    }

    /// All edges.
    pub fn edges(&self) -> &[SchedEdge] {
        &self.edges
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Ids of the direct successors of `task`.
    pub fn successors(&self, task: usize) -> &[usize] {
        &self.successors[task]
    }

    /// Ids of the direct predecessors of `task`.
    pub fn predecessors(&self, task: usize) -> &[usize] {
        &self.predecessors[task]
    }

    /// The incoming edges of `task` as `(predecessor, bytes)`, one item per
    /// edge in the order of [`TaskGraph::predecessors`]. `bytes` is the
    /// total between the pair — what [`TaskGraph::edge_bytes`] returns — so
    /// a pair joined by parallel edges appears once per edge, each time
    /// with the sum.
    pub fn in_edges(&self, task: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.predecessors[task].iter().copied().zip(self.predecessor_bytes[task].iter().copied())
    }

    /// The outgoing edges of `task` as `(successor, bytes)`; the mirror of
    /// [`TaskGraph::in_edges`].
    pub fn out_edges(&self, task: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.successors[task].iter().copied().zip(self.successor_bytes[task].iter().copied())
    }

    /// Bytes on the edge `from -> to` (summed if parallel edges exist),
    /// 0 when no such edge exists.
    ///
    /// This is a lookup in the shorter of the two endpoints' adjacency
    /// lists, `O(min(out-degree(from), in-degree(to)))`. A loop over a
    /// task's predecessors or successors should take the weights from
    /// [`TaskGraph::in_edges`] / [`TaskGraph::out_edges`] instead of calling
    /// this once per neighbour.
    pub fn edge_bytes(&self, from: usize, to: usize) -> u64 {
        self.pair_bytes(from, to).unwrap_or(0)
    }

    /// Total bytes between `from` and `to`, `None` when no edge joins them.
    fn pair_bytes(&self, from: usize, to: usize) -> Option<u64> {
        let found = if self.successors[from].len() <= self.predecessors[to].len() {
            self.out_edges(from).find(|&(s, _)| s == to)
        } else {
            self.in_edges(to).find(|&(p, _)| p == from)
        };
        found.map(|(_, bytes)| bytes)
    }

    /// Tasks with no predecessors.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len()).filter(|&t| self.predecessors[t].is_empty()).collect()
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.len()).filter(|&t| self.successors[t].is_empty()).collect()
    }

    /// A topological order of the task ids, or `None` if the graph contains
    /// a cycle.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indegree: Vec<usize> =
            (0..self.len()).map(|t| self.predecessors[t].len()).collect();
        let mut queue: VecDeque<usize> = (0..self.len()).filter(|&t| indegree[t] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(t) = queue.pop_front() {
            order.push(t);
            for &s in &self.successors[t] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if order.len() == self.len() {
            Some(order)
        } else {
            None
        }
    }

    /// Whether the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Total compute cost of every task.
    pub fn total_cost(&self) -> f64 {
        self.tasks.iter().map(|t| t.cost).sum()
    }

    /// Length (in seconds of compute, ignoring communication) of the longest
    /// path through the graph — the critical path lower bound on any
    /// schedule's makespan on a unit-speed platform.
    pub fn critical_path_cost(&self) -> f64 {
        let Some(order) = self.topological_order() else { return f64::INFINITY };
        let mut finish = vec![0.0f64; self.len()];
        let mut best: f64 = 0.0;
        for &t in &order {
            let ready = self.predecessors(t).iter().map(|&p| finish[p]).fold(0.0f64, f64::max);
            finish[t] = ready + self.tasks[t].cost;
            best = best.max(finish[t]);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // 0 -> {1, 2} -> 3
        let mut g = TaskGraph::new();
        for cost in [1.0, 2.0, 3.0, 1.0] {
            g.add_task(cost);
        }
        g.add_edge(0, 1, 100);
        g.add_edge(0, 2, 100);
        g.add_edge(1, 3, 50);
        g.add_edge(2, 3, 50);
        g
    }

    #[test]
    fn construction_and_adjacency() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edges().len(), 4);
        assert_eq!(g.successors(0), &[1, 2]);
        assert_eq!(g.predecessors(3), &[1, 2]);
        assert_eq!(g.roots(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
        assert_eq!(g.edge_bytes(0, 1), 100);
        assert_eq!(g.edge_bytes(1, 0), 0);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.len()];
            for (i, &t) in order.iter().enumerate() {
                p[t] = i;
            }
            p
        };
        for e in g.edges() {
            assert!(pos[e.from] < pos[e.to]);
        }
        assert!(g.is_acyclic());
    }

    #[test]
    fn cycles_are_detected() {
        let mut g = TaskGraph::new();
        g.add_task(1.0);
        g.add_task(1.0);
        g.add_edge(0, 1, 0);
        g.add_edge(1, 0, 0);
        assert!(!g.is_acyclic());
        assert!(g.topological_order().is_none());
        assert!(g.critical_path_cost().is_infinite());
    }

    #[test]
    fn critical_path_of_diamond() {
        let g = diamond();
        // 0 (1.0) -> 2 (3.0) -> 3 (1.0) = 5.0
        assert!((g.critical_path_cost() - 5.0).abs() < 1e-12);
        assert!((g.total_cost() - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "self-dependence")]
    fn self_edges_are_rejected() {
        let mut g = TaskGraph::new();
        g.add_task(1.0);
        g.add_edge(0, 0, 0);
    }

    #[test]
    fn pinned_task_constructor() {
        let t = SchedTask::pinned(3, 2.5, 0);
        assert_eq!(t.pinned, Some(0));
        let t = SchedTask::new(1, 1.0);
        assert_eq!(t.pinned, None);
    }

    #[test]
    fn parallel_edges_sum_bytes() {
        let mut g = TaskGraph::new();
        g.add_task(1.0);
        g.add_task(1.0);
        g.add_edge(0, 1, 10);
        g.add_edge(0, 1, 20);
        assert_eq!(g.edge_bytes(0, 1), 30);
    }

    #[test]
    fn weighted_adjacency_lists_one_entry_per_edge_with_the_pair_total() {
        // An ordering-only (0 byte) edge followed by a flow edge between the
        // same pair, as region graphs produce, plus an unrelated neighbour.
        let mut g = TaskGraph::new();
        for _ in 0..3 {
            g.add_task(1.0);
        }
        g.add_edge(0, 2, 0);
        g.add_edge(1, 2, 7);
        g.add_edge(0, 2, 64);
        assert_eq!(g.predecessors(2), &[0, 1, 0]);
        assert_eq!(g.in_edges(2).collect::<Vec<_>>(), vec![(0, 64), (1, 7), (0, 64)]);
        assert_eq!(g.out_edges(0).collect::<Vec<_>>(), vec![(2, 64), (2, 64)]);
        assert_eq!(g.out_edges(1).collect::<Vec<_>>(), vec![(2, 7)]);
        for t in 0..g.len() {
            for (p, bytes) in g.in_edges(t) {
                let listed: u64 =
                    g.edges().iter().filter(|e| e.from == p && e.to == t).map(|e| e.bytes).sum();
                assert_eq!(bytes, listed);
                assert_eq!(g.edge_bytes(p, t), listed);
            }
        }
        assert_eq!(g.edge_bytes(2, 0), 0);
    }
}
