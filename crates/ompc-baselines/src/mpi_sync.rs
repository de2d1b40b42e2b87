//! The synchronous MPI baseline: bulk-synchronous, owner-computes execution
//! with no runtime layer at all — the best case the paper compares against.

use crate::{BaselineResult, BaselineRuntime};
use ompc_core::model::WorkloadGraph;
use ompc_sim::{ClusterConfig, Completion, Engine, SimContext, SimProcess, SimTime};

const TOK_STARTUP: u64 = 1 << 48;
const TOK_TRANSFER: u64 = 2 << 48;
const TOK_COMPUTE: u64 = 3 << 48;
const TOK_MASK: u64 = (1 << 48) - 1;

/// A hand-written synchronous MPI program, as Task Bench's MPI
/// implementation is structured: execution proceeds level by level
/// (timestep by timestep); within a level every rank first exchanges the
/// halo data its tasks need, then computes its tasks. There is no dynamic
/// scheduling, no task descriptors, and no central coordinator — which is
/// why this baseline wins, at the price of the programming effort the paper
/// is trying to remove.
#[derive(Debug, Clone, Copy, Default)]
pub struct MpiSyncRuntime;

impl MpiSyncRuntime {
    /// Create the baseline.
    pub fn new() -> Self {
        Self
    }
}

struct MpiSyncProcess<'w> {
    workload: &'w WorkloadGraph,
    assignment: &'w [usize],
    /// Tasks grouped by level (longest-path depth).
    levels: Vec<Vec<usize>>,
    current_level: usize,
    pending_transfers: usize,
    pending_computes: usize,
}

impl<'w> MpiSyncProcess<'w> {
    fn new(workload: &'w WorkloadGraph, assignment: &'w [usize]) -> Self {
        // Level = longest path from a root, so every dependence crosses
        // strictly increasing levels.
        let order = workload.graph.topological_order().expect("workload must be a DAG");
        let mut level = vec![0usize; workload.len()];
        for &t in &order {
            for &p in workload.graph.predecessors(t) {
                level[t] = level[t].max(level[p] + 1);
            }
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut levels = vec![Vec::new(); max_level + 1];
        for (t, &l) in level.iter().enumerate() {
            levels[l].push(t);
        }
        Self {
            workload,
            assignment,
            levels,
            current_level: 0,
            pending_transfers: 0,
            pending_computes: 0,
        }
    }

    /// Start the communication phase of the current level; if nothing needs
    /// to move, go straight to the compute phase.
    fn start_level(&mut self, ctx: &mut SimContext) {
        if self.current_level >= self.levels.len() {
            ctx.stop();
            return;
        }
        self.pending_transfers = 0;
        let tasks: Vec<usize> = self.levels[self.current_level].clone();
        for &task in &tasks {
            let node = self.assignment[task];
            for (pred, bytes) in self.workload.graph.in_edges(task) {
                let src = self.assignment[pred];
                if src != node && bytes > 0 {
                    ctx.send(src, node, bytes, TOK_TRANSFER);
                    self.pending_transfers += 1;
                }
            }
        }
        if self.pending_transfers == 0 {
            self.start_compute_phase(ctx);
        }
    }

    fn start_compute_phase(&mut self, ctx: &mut SimContext) {
        let tasks: Vec<usize> = self.levels[self.current_level].clone();
        self.pending_computes = tasks.len();
        for &task in &tasks {
            let node = self.assignment[task];
            let duration = SimTime::from_secs_f64(self.workload.graph.tasks()[task].cost);
            ctx.compute(node, duration, TOK_COMPUTE);
        }
        if self.pending_computes == 0 {
            self.advance(ctx);
        }
    }

    fn advance(&mut self, ctx: &mut SimContext) {
        self.current_level += 1;
        self.start_level(ctx);
    }
}

impl SimProcess for MpiSyncProcess<'_> {
    fn init(&mut self, ctx: &mut SimContext) {
        if self.workload.is_empty() {
            ctx.stop();
            return;
        }
        // MPI_Init and initial data generation are local and cheap.
        ctx.runtime(0, SimTime::from_millis(2), TOK_STARTUP);
    }

    fn on_completion(&mut self, completion: Completion, ctx: &mut SimContext) {
        let kind = completion.token() & !TOK_MASK;
        match kind {
            TOK_STARTUP => self.start_level(ctx),
            TOK_TRANSFER => {
                self.pending_transfers -= 1;
                if self.pending_transfers == 0 {
                    self.start_compute_phase(ctx);
                }
            }
            TOK_COMPUTE => {
                self.pending_computes -= 1;
                if self.pending_computes == 0 {
                    self.advance(ctx);
                }
            }
            _ => unreachable!("unknown MPI-sync token {kind:#x}"),
        }
    }
}

impl BaselineRuntime for MpiSyncRuntime {
    fn name(&self) -> &'static str {
        "MPI"
    }

    fn run(
        &self,
        workload: &WorkloadGraph,
        cluster: &ClusterConfig,
        assignment: &[usize],
    ) -> BaselineResult {
        assert_eq!(assignment.len(), workload.len(), "assignment must cover every task");
        let mut engine = Engine::new(cluster.clone());
        let mut process = MpiSyncProcess::new(workload, assignment);
        let makespan = engine.run(&mut process);
        BaselineResult { runtime: "MPI", makespan, stats: engine.finish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::block_assignment;
    use crate::starpu::StarPuRuntime;
    use ompc_sim::NetworkConfig;
    use ompc_taskbench::{generate_workload, DependencePattern, TaskBenchConfig};

    #[test]
    fn trivial_pattern_runs_each_level_in_parallel() {
        let cfg = TaskBenchConfig::new(DependencePattern::Trivial, 8, 4, 10_000_000, 0);
        let w = generate_workload(&cfg);
        let cluster = ClusterConfig::santos_dumont(4);
        let assignment = block_assignment(8, 4, 4);
        let r = MpiSyncRuntime::new().run(&w, &cluster, &assignment);
        // 2 points per node, each node has 24 cores: within a timestep
        // everything runs at once, and the per-point buffer-reuse chains
        // serialize the 4 timesteps, so the makespan is 4 tasks of 50 ms
        // plus startup — and no bytes ever cross the network.
        assert!(r.makespan >= SimTime::from_millis(200));
        assert!(r.makespan < SimTime::from_millis(230));
        assert_eq!(r.stats.total_tasks(), 32);
        assert_eq!(r.stats.total_bytes(), 0);
    }

    #[test]
    fn stencil_levels_serialize_and_exchange_halos() {
        let cfg = TaskBenchConfig::new(DependencePattern::Stencil1D, 8, 4, 10_000_000, 1 << 20);
        let w = generate_workload(&cfg);
        let cluster = ClusterConfig::santos_dumont(4);
        let assignment = block_assignment(8, 4, 4);
        let r = MpiSyncRuntime::new().run(&w, &cluster, &assignment);
        // At least steps × task duration.
        assert!(r.makespan >= SimTime::from_secs_f64(4.0 * 0.05));
        // Halo exchange happened (boundary points cross nodes).
        assert!(r.stats.total_bytes() > 0);
    }

    #[test]
    fn mpi_beats_or_matches_the_dynamic_runtimes() {
        let cfg = {
            let mut c = TaskBenchConfig::new(DependencePattern::Stencil1D, 16, 8, 10_000_000, 0);
            c.output_bytes = c.bytes_for_ccr(1.0, &NetworkConfig::infiniband());
            c
        };
        let w = generate_workload(&cfg);
        let cluster = ClusterConfig::santos_dumont(8);
        let assignment = block_assignment(16, 8, 8);
        let mpi = MpiSyncRuntime::new().run(&w, &cluster, &assignment).makespan;
        let starpu = StarPuRuntime::new().run(&w, &cluster, &assignment).makespan;
        assert!(
            mpi.as_secs_f64() <= starpu.as_secs_f64() * 1.05,
            "MPI ({mpi}) should not lose to StarPU ({starpu})"
        );
    }
}
