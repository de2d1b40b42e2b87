//! The abstract task graph consumed by the schedulers.

use crate::csr::Csr;
use std::collections::VecDeque;
use std::sync::OnceLock;

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
/// The graph stores what it was given, its tasks and its edge list; adding
/// either costs no allocation of its own. The adjacency is grouped from the
/// edge list into compressed sparse rows ([`Csr`]) the first time anybody
/// asks, and any later `add_*` drops it to be grouped again. Each row lists
/// a task's neighbours in the order their edges were added, one entry per
/// edge.
///
/// The adjacency is weighted: next to every entry of a successor or
/// predecessor row sits the total bytes flowing between that pair of tasks
/// (parallel edges each carry the pair's sum), so the schedulers and
/// runtimes read an edge's weight where they read its endpoint instead of
/// searching the edge list for it.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<SchedTask>,
    edges: Vec<SchedEdge>,
    adjacency: OnceLock<Adjacency>,
}

/// Both directions of the edge list, grouped per task.
#[derive(Debug, Clone)]
struct Adjacency {
    successors: Csr<usize>,
    /// Laid out alongside `successors`: the pair's total bytes.
    successor_bytes: Vec<u64>,
    predecessors: Csr<usize>,
    /// Laid out alongside `predecessors`.
    predecessor_bytes: Vec<u64>,
}

impl Adjacency {
    fn new(tasks: usize, edges: &[SchedEdge]) -> Self {
        let (successors, successor_bytes) = Self::weighted(tasks, edges, |e| e.from, |e| e.to);
        let (predecessors, predecessor_bytes) = Self::weighted(tasks, edges, |e| e.to, |e| e.from);
        Self { successors, successor_bytes, predecessors, predecessor_bytes }
    }

    /// Each task's `other` ends, grouped by `row`, and alongside them the
    /// bytes between the pair summed over every edge joining it.
    fn weighted(
        tasks: usize,
        edges: &[SchedEdge],
        row: impl Fn(&SchedEdge) -> usize,
        other: impl Fn(&SchedEdge) -> usize,
    ) -> (Csr<usize>, Vec<u64>) {
        // Grouped as edge indices first, then each index replaced by the
        // neighbour it names.
        let mut lists = Csr::group(tasks, edges.iter().enumerate().map(|(i, e)| (row(e), i)));
        let items = lists.items_mut();
        let mut bytes: Vec<u64> = items.iter().map(|&i| edges[i].bytes).collect();
        items.iter_mut().for_each(|i| *i = other(&edges[*i]));
        // Per row, the pair totals accumulate in `sum` and are read back to
        // every entry of the pair; the row then clears what it touched.
        let mut sum = vec![0u64; tasks];
        for task in 0..tasks {
            let (list, span) = (lists.get(task), lists.span(task));
            for (&n, &b) in list.iter().zip(&bytes[span.clone()]) {
                sum[n] += b;
            }
            for (&n, b) in list.iter().zip(&mut bytes[span]) {
                *b = sum[n];
            }
            list.iter().for_each(|&n| sum[n] = 0);
        }
        (lists, bytes)
    }
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
        self.adjacency.take();
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
        self.adjacency.take();
        idx
    }

    fn adjacency(&self) -> &Adjacency {
        self.adjacency.get_or_init(|| Adjacency::new(self.tasks.len(), &self.edges))
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
        self.adjacency().successors.get(task)
    }

    /// Ids of the direct predecessors of `task`.
    pub fn predecessors(&self, task: usize) -> &[usize] {
        self.adjacency().predecessors.get(task)
    }

    /// Every task's [`TaskGraph::successors`], as the one table they are
    /// read from.
    pub fn successor_lists(&self) -> &Csr<usize> {
        &self.adjacency().successors
    }

    /// Every task's [`TaskGraph::predecessors`], as the one table they are
    /// read from.
    pub fn predecessor_lists(&self) -> &Csr<usize> {
        &self.adjacency().predecessors
    }

    /// The incoming edges of `task` as `(predecessor, bytes)`, one item per
    /// edge in the order of [`TaskGraph::predecessors`]. `bytes` is the
    /// total between the pair — what [`TaskGraph::edge_bytes`] returns — so
    /// a pair joined by parallel edges appears once per edge, each time
    /// with the sum.
    pub fn in_edges(&self, task: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let adjacency = self.adjacency();
        let bytes = &adjacency.predecessor_bytes[adjacency.predecessors.span(task)];
        adjacency.predecessors.get(task).iter().copied().zip(bytes.iter().copied())
    }

    /// The outgoing edges of `task` as `(successor, bytes)`; the mirror of
    /// [`TaskGraph::in_edges`].
    pub fn out_edges(&self, task: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let adjacency = self.adjacency();
        let bytes = &adjacency.successor_bytes[adjacency.successors.span(task)];
        adjacency.successors.get(task).iter().copied().zip(bytes.iter().copied())
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
        let found = if self.successors(from).len() <= self.predecessors(to).len() {
            self.out_edges(from).find(|&(s, _)| s == to)
        } else {
            self.in_edges(to).find(|&(p, _)| p == from)
        };
        found.map_or(0, |(_, bytes)| bytes)
    }

    /// Tasks with no predecessors.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len()).filter(|&t| self.predecessors(t).is_empty()).collect()
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.len()).filter(|&t| self.successors(t).is_empty()).collect()
    }

    /// A topological order of the task ids, or `None` if the graph contains
    /// a cycle.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let Adjacency { successors, predecessors, .. } = self.adjacency();
        let mut indegree: Vec<usize> = (0..self.len()).map(|t| predecessors.get(t).len()).collect();
        let mut queue: VecDeque<usize> = (0..self.len()).filter(|&t| indegree[t] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(t) = queue.pop_front() {
            order.push(t);
            for &s in successors.get(t) {
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

    /// The graph as it was kept before it was stored flat: one `Vec` per
    /// task and direction, patched edge by edge so that every entry of a
    /// pair carries the pair's running total.
    #[derive(Default)]
    struct Incremental {
        successors: Vec<Vec<usize>>,
        predecessors: Vec<Vec<usize>>,
        successor_bytes: Vec<Vec<u64>>,
        predecessor_bytes: Vec<Vec<u64>>,
    }

    impl Incremental {
        fn add_task(&mut self) {
            self.successors.push(Vec::new());
            self.predecessors.push(Vec::new());
            self.successor_bytes.push(Vec::new());
            self.predecessor_bytes.push(Vec::new());
        }

        fn add_edge(&mut self, from: usize, to: usize, bytes: u64) {
            let before = self.edge_bytes(from, to);
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
        }

        fn edge_bytes(&self, from: usize, to: usize) -> Option<u64> {
            let at = self.successors[from].iter().position(|&s| s == to)?;
            Some(self.successor_bytes[from][at])
        }

        fn topological_order(&self) -> Option<Vec<usize>> {
            let n = self.successors.len();
            let mut indegree: Vec<usize> = self.predecessors.iter().map(Vec::len).collect();
            let mut queue: VecDeque<usize> = (0..n).filter(|&t| indegree[t] == 0).collect();
            let mut order = Vec::new();
            while let Some(t) = queue.pop_front() {
                order.push(t);
                for &s in &self.successors[t] {
                    indegree[s] -= 1;
                    if indegree[s] == 0 {
                        queue.push_back(s);
                    }
                }
            }
            (order.len() == n).then_some(order)
        }
    }

    fn assert_same(g: &TaskGraph, reference: &Incremental) {
        let n = g.len();
        for t in 0..n {
            assert_eq!(g.successors(t), reference.successors[t], "successors of {t}");
            assert_eq!(g.predecessors(t), reference.predecessors[t], "predecessors of {t}");
            let out: Vec<(usize, u64)> = reference.successors[t]
                .iter()
                .copied()
                .zip(reference.successor_bytes[t].iter().copied())
                .collect();
            assert_eq!(g.out_edges(t).collect::<Vec<_>>(), out, "out edges of {t}");
            let incoming: Vec<(usize, u64)> = reference.predecessors[t]
                .iter()
                .copied()
                .zip(reference.predecessor_bytes[t].iter().copied())
                .collect();
            assert_eq!(g.in_edges(t).collect::<Vec<_>>(), incoming, "in edges of {t}");
            for to in 0..n {
                let want = reference.edge_bytes(t, to).unwrap_or(0);
                assert_eq!(g.edge_bytes(t, to), want, "bytes {t} -> {to}");
            }
        }
        let roots: Vec<usize> = (0..n).filter(|&t| reference.predecessors[t].is_empty()).collect();
        let sinks: Vec<usize> = (0..n).filter(|&t| reference.successors[t].is_empty()).collect();
        assert_eq!(g.roots(), roots);
        assert_eq!(g.sinks(), sinks);
        assert_eq!(g.topological_order(), reference.topological_order());
    }

    /// Random graphs with parallel and zero-byte edges, some cyclic, each
    /// queried half-built, then extended and queried again: the flat graph
    /// answers every query as the incremental one did.
    #[test]
    fn the_flat_graph_answers_as_the_incremental_one_did() {
        for seed in 0..240u64 {
            let mut rng = ompc_testutil::Rng::new(seed);
            let (mut g, mut reference) = (TaskGraph::new(), Incremental::default());
            let cyclic = seed % 8 == 7;
            for round in 0..2 {
                for _ in 0..rng.range_usize(round, 24) {
                    g.add_task(1.0);
                    reference.add_task();
                }
                let n = g.len();
                if n < 2 {
                    continue;
                }
                for _ in 0..rng.range_usize(0, 3 * n) {
                    let (a, b) = (rng.range_usize(0, n), rng.range_usize(0, n));
                    if a == b {
                        continue;
                    }
                    let (from, to) = if cyclic || a < b { (a, b) } else { (b, a) };
                    let bytes = match rng.range(0, 3) {
                        0 => 0,
                        _ => rng.range(1, 1 << 20),
                    };
                    // Half the pairs come back as parallel edges.
                    for _ in 0..rng.range(1, 3) {
                        g.add_edge(from, to, bytes);
                        reference.add_edge(from, to, bytes);
                    }
                }
                assert_same(&g, &reference);
            }
        }
    }
}
