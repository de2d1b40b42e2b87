//! A generic distributed dataflow executor: the shared skeleton behind the
//! StarPU-like and Charm++-like runtime models.
//!
//! Execution is fully decentralized: a task starts as soon as all of its
//! inputs are available on its owner node; remote inputs are transferred
//! point-to-point when the producer finishes. The model parameters capture
//! what differs between runtimes: per-task scheduling overhead, per-message
//! handler cost, and marshalling cost proportional to message size.

use crate::{BaselineResult, BaselineRuntime};
use ompc_core::model::WorkloadGraph;
use ompc_sim::{ClusterConfig, Completion, Engine, SimContext, SimProcess, SimTime};
use std::collections::VecDeque;

const TOK_STARTUP: u64 = 1 << 48;
const TOK_TRANSFER: u64 = 2 << 48;
const TOK_COMPUTE: u64 = 3 << 48;
const TOK_SHUTDOWN: u64 = 4 << 48;
const TOK_MASK: u64 = (1 << 48) - 1;

/// Cost model of a dataflow runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowParams {
    /// Name reported in results.
    pub name: &'static str,
    /// Fixed runtime start-up time (connection setup, registration, …).
    pub startup: SimTime,
    /// Fixed runtime shutdown time.
    pub shutdown: SimTime,
    /// Scheduling/bookkeeping cost added to every task on its executing
    /// node (worker-side task descriptor management).
    pub per_task_overhead: SimTime,
    /// Handler cost paid on the receiving node's core for every remote
    /// message (entry-method scheduling in Charm++, callback dispatch in
    /// StarPU).
    pub per_message_handler: SimTime,
    /// Marshalling cost in seconds per byte, paid on the receiving node's
    /// core for every remote message (Charm++ packs/unpacks parameters;
    /// zero for runtimes that send user buffers in place).
    pub pack_seconds_per_byte: f64,
    /// Factor applied to the bytes actually placed on the wire (message
    /// envelopes, eager-protocol copies).
    pub byte_inflation: f64,
}

impl DataflowParams {
    fn message_cost(&self, bytes: u64) -> SimTime {
        self.per_message_handler + SimTime::from_secs_f64(bytes as f64 * self.pack_seconds_per_byte)
    }

    fn wire_bytes(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.byte_inflation).round() as u64
    }
}

/// A dataflow runtime model parameterized by [`DataflowParams`].
#[derive(Debug, Clone)]
pub struct DataflowRuntime {
    params: DataflowParams,
}

impl DataflowRuntime {
    /// Build a runtime from its cost model.
    pub fn new(params: DataflowParams) -> Self {
        Self { params }
    }

    /// The cost model.
    pub fn params(&self) -> &DataflowParams {
        &self.params
    }
}

struct DataflowProcess<'w> {
    workload: &'w WorkloadGraph,
    assignment: &'w [usize],
    params: DataflowParams,
    remaining_preds: Vec<usize>,
    pending_inputs: Vec<usize>,
    handler_cost: Vec<SimTime>,
    completed: usize,
    started: bool,
}

impl<'w> DataflowProcess<'w> {
    fn new(workload: &'w WorkloadGraph, assignment: &'w [usize], params: DataflowParams) -> Self {
        let n = workload.len();
        Self {
            workload,
            assignment,
            params,
            remaining_preds: (0..n).map(|t| workload.graph.predecessors(t).len()).collect(),
            pending_inputs: vec![0; n],
            handler_cost: vec![SimTime::ZERO; n],
            completed: 0,
            started: false,
        }
    }

    /// Launch a task whose dependences are all satisfied: transfer its
    /// remote inputs, then compute.
    fn launch(&mut self, task: usize, ctx: &mut SimContext) {
        let node = self.assignment[task];
        let mut pending = 0usize;
        for (pred, bytes) in self.workload.graph.in_edges(task) {
            let src = self.assignment[pred];
            if src != node && bytes > 0 {
                ctx.send(src, node, self.params.wire_bytes(bytes), TOK_TRANSFER | task as u64);
                self.handler_cost[task] += self.params.message_cost(bytes);
                pending += 1;
            }
        }
        self.pending_inputs[task] = pending;
        if pending == 0 {
            self.start_compute(task, ctx);
        }
    }

    fn start_compute(&mut self, task: usize, ctx: &mut SimContext) {
        let node = self.assignment[task];
        let duration = SimTime::from_secs_f64(self.workload.graph.tasks()[task].cost)
            + self.params.per_task_overhead
            + self.handler_cost[task];
        ctx.compute(node, duration, TOK_COMPUTE | task as u64);
    }

    fn finish(&mut self, task: usize, ctx: &mut SimContext) {
        self.completed += 1;
        let mut newly_ready = VecDeque::new();
        for &succ in self.workload.graph.successors(task) {
            self.remaining_preds[succ] -= 1;
            if self.remaining_preds[succ] == 0 {
                newly_ready.push_back(succ);
            }
        }
        while let Some(t) = newly_ready.pop_front() {
            self.launch(t, ctx);
        }
        if self.completed == self.workload.len() {
            ctx.runtime(0, self.params.shutdown, TOK_SHUTDOWN);
        }
    }
}

impl SimProcess for DataflowProcess<'_> {
    fn init(&mut self, ctx: &mut SimContext) {
        if self.workload.is_empty() {
            ctx.stop();
            return;
        }
        ctx.runtime(0, self.params.startup, TOK_STARTUP);
    }

    fn on_completion(&mut self, completion: Completion, ctx: &mut SimContext) {
        let token = completion.token();
        let kind = token & !TOK_MASK;
        let task = (token & TOK_MASK) as usize;
        match kind {
            TOK_STARTUP => {
                self.started = true;
                let roots = self.workload.graph.roots();
                for t in roots {
                    self.launch(t, ctx);
                }
            }
            TOK_TRANSFER => {
                self.pending_inputs[task] -= 1;
                if self.pending_inputs[task] == 0 {
                    self.start_compute(task, ctx);
                }
            }
            TOK_COMPUTE => self.finish(task, ctx),
            TOK_SHUTDOWN => ctx.stop(),
            _ => unreachable!("unknown dataflow token {kind:#x}"),
        }
    }
}

impl BaselineRuntime for DataflowRuntime {
    fn name(&self) -> &'static str {
        self.params.name
    }

    fn run(
        &self,
        workload: &WorkloadGraph,
        cluster: &ClusterConfig,
        assignment: &[usize],
    ) -> BaselineResult {
        assert_eq!(assignment.len(), workload.len(), "assignment must cover every task");
        let mut engine = Engine::new(cluster.clone());
        let mut process = DataflowProcess::new(workload, assignment, self.params.clone());
        let makespan = engine.run(&mut process);
        BaselineResult { runtime: self.params.name, makespan, stats: engine.finish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompc_sched::TaskGraph;

    fn chain(n: usize, cost: f64, bytes: u64) -> WorkloadGraph {
        let mut g = TaskGraph::new();
        for _ in 0..n {
            g.add_task(cost);
        }
        for i in 1..n {
            g.add_edge(i - 1, i, bytes);
        }
        WorkloadGraph::new(g, vec![bytes; n])
    }

    fn zero_overhead(name: &'static str) -> DataflowParams {
        DataflowParams {
            name,
            startup: SimTime::ZERO,
            shutdown: SimTime::ZERO,
            per_task_overhead: SimTime::ZERO,
            per_message_handler: SimTime::ZERO,
            pack_seconds_per_byte: 0.0,
            byte_inflation: 1.0,
        }
    }

    #[test]
    fn local_chain_with_no_overhead_is_pure_compute() {
        let w = chain(4, 0.05, 1 << 20);
        let cluster = ClusterConfig::santos_dumont(2);
        let rt = DataflowRuntime::new(zero_overhead("ideal"));
        // All tasks on node 1: no communication at all.
        let r = rt.run(&w, &cluster, &[1, 1, 1, 1]);
        assert_eq!(r.makespan, SimTime::from_secs_f64(0.2));
        assert_eq!(r.stats.total_bytes(), 0);
    }

    #[test]
    fn remote_edges_add_transfer_time() {
        let w = chain(2, 0.05, 125_000_000); // 10 ms serialization
        let cluster = ClusterConfig::santos_dumont(3);
        let rt = DataflowRuntime::new(zero_overhead("ideal"));
        let local = rt.run(&w, &cluster, &[1, 1]).makespan;
        let remote = rt.run(&w, &cluster, &[1, 2]).makespan;
        assert!(remote > local);
        let diff = remote - local;
        let expected = cluster.network.transfer_time(125_000_000);
        assert_eq!(diff, expected);
    }

    #[test]
    fn per_message_costs_inflate_remote_execution() {
        let w = chain(8, 0.01, 10_000_000);
        let cluster = ClusterConfig::santos_dumont(3);
        let cheap = DataflowRuntime::new(zero_overhead("cheap"));
        let mut expensive_params = zero_overhead("expensive");
        expensive_params.per_message_handler = SimTime::from_millis(2);
        expensive_params.pack_seconds_per_byte = 1.0 / 5e9;
        expensive_params.byte_inflation = 1.5;
        let expensive = DataflowRuntime::new(expensive_params);
        let assignment: Vec<usize> = (0..8).map(|i| 1 + i % 2).collect();
        let cheap_time = cheap.run(&w, &cluster, &assignment).makespan;
        let expensive_time = expensive.run(&w, &cluster, &assignment).makespan;
        assert!(expensive_time > cheap_time);
    }

    #[test]
    fn empty_workload_finishes_instantly() {
        let w = WorkloadGraph::default();
        let cluster = ClusterConfig::santos_dumont(2);
        let rt = DataflowRuntime::new(zero_overhead("ideal"));
        let r = rt.run(&w, &cluster, &[]);
        assert_eq!(r.makespan, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "assignment must cover")]
    fn mismatched_assignment_panics() {
        let w = chain(3, 0.01, 0);
        let cluster = ClusterConfig::santos_dumont(2);
        DataflowRuntime::new(zero_overhead("ideal")).run(&w, &cluster, &[0]);
    }
}
