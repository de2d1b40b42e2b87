//! The simulated OMPC runtime, as a thin façade over the unified execution
//! core: [`crate::runtime::RuntimeCore`] makes every scheduling, windowing,
//! and forwarding decision, and [`crate::runtime::SimBackend`] models their
//! cost on the deterministic virtual cluster of `ompc-sim`.
//!
//! This is what regenerates the paper's figures at 2–64 nodes on a small
//! host. The model captures the behaviours the paper identifies as decisive
//! for OMPC's performance:
//!
//! * the whole graph is scheduled statically with HEFT before execution
//!   (scheduling overhead grows with graph size, Fig. 7a);
//! * every task dispatch and completion passes through the head node's
//!   event system and pays a per-event cost;
//! * input data is forwarded worker-to-worker (never staged through the
//!   head) when the producer ran on another worker, and a task's input
//!   transfers are issued concurrently — the two §7 ablations flip these
//!   through [`OverheadModel::worker_to_worker_forwarding`] and
//!   [`OverheadModel::serial_input_transfers`];
//! * root tasks receive their initial data from the head node and sink
//!   results are retrieved back to it (enter / exit data);
//! * the head node keeps a bounded number of target tasks in flight —
//!   [`crate::config::OmpcConfig::max_inflight_tasks`]. With the default
//!   (48, one task per libomptarget head worker thread) the
//!   §7 scalability drop at 32–64 nodes reproduces; widening the window
//!   pipelines dispatch and lifts it.
//!
//! [`simulate_ompc_outcome`] is the one implementation; [`simulate_ompc`]
//! and [`simulate_ompc_with_plan`] are thin conveniences over it.

use crate::config::{OmpcConfig, OverheadModel};
use crate::model::WorkloadGraph;
use crate::runtime::fault::FaultState;
use crate::runtime::sim::sim_platform;
use crate::runtime::{RunRecord, RuntimeCore, RuntimePlan, SimBackend};
use crate::types::{OmpcError, OmpcResult};
use ompc_sim::{ClusterConfig, SimStats, SimTime};

/// Result of one simulated OMPC run.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpcSimResult {
    /// Total virtual execution time (the quantity plotted in Figs. 5 and 6).
    pub makespan: SimTime,
    /// Start-up overhead (process start to gate-thread creation).
    pub startup: SimTime,
    /// Whole-graph scheduling overhead.
    pub schedule: SimTime,
    /// Shutdown overhead.
    pub shutdown: SimTime,
    /// Aggregate engine statistics (per-node compute, messages, bytes).
    pub stats: SimStats,
}

impl OmpcSimResult {
    /// Time not attributable to start-up, scheduling, or shutdown.
    pub fn execution(&self) -> SimTime {
        self.makespan
            .saturating_sub(self.startup)
            .saturating_sub(self.schedule)
            .saturating_sub(self.shutdown)
    }

    /// Overhead fractions of the total wall time, as plotted in Fig. 7(a):
    /// `(startup, schedule, shutdown)` each divided by the makespan.
    pub fn overhead_fractions(&self) -> (f64, f64, f64) {
        let total = self.makespan.as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.startup.as_secs_f64() / total,
            self.schedule.as_secs_f64() / total,
            self.shutdown.as_secs_f64() / total,
        )
    }
}

/// The outcome of one simulated OMPC run, as returned by
/// [`simulate_ompc_outcome`]. Whatever happens to the run, the execution
/// core's decision record survives: a run aborted by a propagated task
/// error still reports which tasks dispatched and retired before the
/// failure, which is what the cross-backend error-equivalence tests
/// compare. The two conveniences ([`simulate_ompc`],
/// [`simulate_ompc_with_plan`]) reduce to this shape.
///
/// ```
/// use ompc_core::prelude::*;
/// use ompc_core::sim_runtime::simulate_ompc_outcome;
/// use ompc_sim::ClusterConfig;
///
/// let mut g = ompc_sched::TaskGraph::new();
/// for _ in 0..4 {
///     g.add_task(0.002);
/// }
/// for t in 1..4 {
///     g.add_edge(t - 1, t, 1024);
/// }
/// let workload = WorkloadGraph::new(g, vec![1024; 4]);
/// // Task 2's execution is forced to fail: the run errors, but the
/// // decision record still shows everything that retired first.
/// let config = OmpcConfig {
///     fault_plan: FaultPlan::none().error_on_task(2),
///     max_inflight_tasks: 1,
///     ..OmpcConfig::default()
/// };
/// let outcome = simulate_ompc_outcome(
///     &workload,
///     &ClusterConfig::santos_dumont(3),
///     &config,
///     &OverheadModel::default(),
///     None,
/// );
/// assert!(outcome.result.is_err());
/// assert_eq!(outcome.record.completion_order, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct OmpcSimOutcome {
    /// The timing result, or the error that aborted the run.
    pub result: OmpcResult<OmpcSimResult>,
    /// The execution core's decision record — always available, even for a
    /// failed run (it then covers everything up to the failure).
    pub record: RunRecord,
}

impl OmpcSimOutcome {
    /// Convert into a plain result, keeping the record on success and
    /// dropping it on failure.
    pub fn into_result(self) -> OmpcResult<(OmpcSimResult, RunRecord)> {
        self.result.map(|r| (r, self.record))
    }
}

/// Run the simulated OMPC runtime on `workload` over `cluster` and return
/// the timing result.
///
/// Fails with [`OmpcError::InvalidConfig`] when the cluster has no worker
/// nodes (the head node cannot execute target tasks), with
/// [`OmpcError::NodeFailure`] when an injected failure
/// ([`OmpcConfig::fault_plan`]) leaves no survivors to recover onto, and
/// with the propagated task error (an
/// [`OmpcError::RemoteEvent`]) when the fault plan injects
/// a task-execution failure — never by hanging.
///
/// ```
/// use ompc_core::prelude::*;
/// use ompc_core::sim_runtime::simulate_ompc;
/// use ompc_sim::ClusterConfig;
///
/// // A 4-task chain on a 1-head + 3-worker virtual cluster.
/// let mut graph = ompc_sched::TaskGraph::new();
/// for _ in 0..4 {
///     graph.add_task(0.01);
/// }
/// for t in 1..4 {
///     graph.add_edge(t - 1, t, 1 << 10);
/// }
/// let workload = WorkloadGraph::new(graph, vec![1 << 10; 4]);
///
/// let result = simulate_ompc(
///     &workload,
///     &ClusterConfig::santos_dumont(4),
///     &OmpcConfig::default(),
///     &OverheadModel::default(),
/// )
/// .unwrap();
/// assert!(result.makespan > ompc_sim::SimTime::ZERO);
/// assert_eq!(result.stats.total_tasks(), 4);
/// ```
pub fn simulate_ompc(
    workload: &WorkloadGraph,
    cluster: &ClusterConfig,
    config: &OmpcConfig,
    overheads: &OverheadModel,
) -> OmpcResult<OmpcSimResult> {
    simulate_ompc_outcome(workload, cluster, config, overheads, None).result
}

/// Run the simulation under an explicit, externally computed [`RuntimePlan`]
/// instead of deriving one from the cluster's network model. This is how
/// the backend-equivalence tests drive the simulator and the real cluster
/// from the *same* plan.
pub fn simulate_ompc_with_plan(
    workload: &WorkloadGraph,
    cluster: &ClusterConfig,
    config: &OmpcConfig,
    overheads: &OverheadModel,
    plan: &RuntimePlan,
) -> OmpcResult<(OmpcSimResult, RunRecord)> {
    simulate_ompc_outcome(workload, cluster, config, overheads, Some(plan)).into_result()
}

/// The one implementation: run the simulation — under an explicit
/// [`RuntimePlan`] when given, otherwise under the plan the configured
/// scheduler derives over the cluster's own communication model — and
/// return the full [`OmpcSimOutcome`], whose decision record survives a
/// failed run. This is the error-aware counterpart of
/// [`crate::cluster::ClusterDevice::last_run_record`].
pub fn simulate_ompc_outcome(
    workload: &WorkloadGraph,
    cluster: &ClusterConfig,
    config: &OmpcConfig,
    overheads: &OverheadModel,
    plan: Option<&RuntimePlan>,
) -> OmpcSimOutcome {
    let fail = |e: OmpcError| OmpcSimOutcome { result: Err(e), record: RunRecord::default() };
    let workers = cluster.worker_nodes();
    if workers == 0 {
        return fail(OmpcError::InvalidConfig(format!(
            "cluster of {} node(s) has no worker nodes: node 0 is the head node and cannot \
             execute target tasks; configure at least 2 nodes",
            cluster.nodes
        )));
    }
    if let Err(e) = config.fault_plan.validate_task_errors(workload.len()) {
        return fail(e);
    }
    let derived;
    let plan = match plan {
        Some(plan) => plan,
        None => {
            derived = RuntimePlan::for_workload(workload, &sim_platform(cluster), config);
            &derived
        }
    };
    let faults = match FaultState::from_config(&config.fault_plan, workers) {
        Ok(f) => f.map(|f| f.with_replan(config.replan_on_failure)),
        Err(e) => return fail(e),
    };
    let mut core = match faults {
        Some(faults) => RuntimeCore::with_faults(workload, plan, faults),
        None => RuntimeCore::new(workload, plan),
    };
    let mut backend = SimBackend::new(workload, cluster, config, overheads.clone());
    let executed = core.execute(&mut backend);
    let mut record = core.record();
    record.transfers = backend.take_transfers();
    if let Err(e) = executed {
        // The run failed (propagated task error, unrecoverable node loss):
        // the record of what happened before the failure survives.
        return OmpcSimOutcome { result: Err(e), record };
    }
    let schedule = backend.schedule_time();
    let stats = backend.finish();
    OmpcSimOutcome {
        result: Ok(OmpcSimResult {
            makespan: stats.makespan,
            startup: overheads.startup,
            schedule,
            shutdown: overheads.shutdown,
            stats,
        }),
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use ompc_sched::TaskGraph;
    use ompc_sim::SimTime;

    fn chain_workload(n: usize, cost: f64, bytes: u64) -> WorkloadGraph {
        let mut g = TaskGraph::new();
        for _ in 0..n {
            g.add_task(cost);
        }
        for i in 1..n {
            g.add_edge(i - 1, i, bytes);
        }
        WorkloadGraph::new(g, vec![bytes; n])
    }

    fn wide_workload(width: usize, cost: f64, bytes: u64) -> WorkloadGraph {
        let mut g = TaskGraph::new();
        for _ in 0..width {
            g.add_task(cost);
        }
        WorkloadGraph::new(g, vec![bytes; width])
    }

    fn default_setup(nodes: usize) -> (ClusterConfig, OmpcConfig, OverheadModel) {
        (ClusterConfig::santos_dumont(nodes), OmpcConfig::default(), OverheadModel::default())
    }

    fn recorded(
        workload: &WorkloadGraph,
        cluster: &ClusterConfig,
        config: &OmpcConfig,
        overheads: &OverheadModel,
    ) -> (OmpcSimResult, RunRecord) {
        simulate_ompc_outcome(workload, cluster, config, overheads, None).into_result().unwrap()
    }

    #[test]
    fn empty_workload_finishes_immediately() {
        let (cluster, config, overheads) = default_setup(2);
        let w = WorkloadGraph::default();
        let r = simulate_ompc(&w, &cluster, &config, &overheads).unwrap();
        assert_eq!(r.makespan, SimTime::ZERO);
    }

    #[test]
    fn chain_makespan_is_at_least_serial_compute_plus_overheads() {
        let (cluster, config, overheads) = default_setup(3);
        let w = chain_workload(8, 0.05, 1 << 20);
        let r = simulate_ompc(&w, &cluster, &config, &overheads).unwrap();
        let serial = SimTime::from_secs_f64(8.0 * 0.05);
        assert!(r.makespan > serial + overheads.startup + overheads.shutdown);
        // Every task ran exactly once.
        assert_eq!(r.stats.total_tasks(), 8);
        // Only worker nodes compute.
        assert_eq!(r.stats.nodes[0].tasks_executed, 0);
    }

    #[test]
    fn independent_tasks_scale_with_more_nodes() {
        let overheads = OverheadModel::default();
        // Lift the in-flight limit so node count (not head threads) is the
        // binding constraint in this test.
        let config = OmpcConfig { max_inflight_tasks: usize::MAX, ..OmpcConfig::default() };
        let w = wide_workload(256, 0.05, 1 << 16);
        let small =
            simulate_ompc(&w, &ClusterConfig::santos_dumont(3), &config, &overheads).unwrap();
        let large =
            simulate_ompc(&w, &ClusterConfig::santos_dumont(17), &config, &overheads).unwrap();
        assert!(
            large.makespan < small.makespan,
            "256 independent tasks must finish faster on 16 workers ({}) than on 2 ({})",
            large.makespan,
            small.makespan
        );
    }

    #[test]
    fn in_flight_limit_throttles_wide_graphs() {
        let overheads = OverheadModel::default();
        let cluster = ClusterConfig::santos_dumont(9);
        let w = wide_workload(256, 0.02, 1 << 10);
        let limited = OmpcConfig { max_inflight_tasks: 4, ..OmpcConfig::default() };
        let unlimited = OmpcConfig { max_inflight_tasks: usize::MAX, ..OmpcConfig::default() };
        let r_lim = simulate_ompc(&w, &cluster, &limited, &overheads).unwrap();
        let r_unl = simulate_ompc(&w, &cluster, &unlimited, &overheads).unwrap();
        assert!(
            r_lim.makespan > r_unl.makespan,
            "a 4-task in-flight window must hurt a 256-wide graph"
        );
    }

    #[test]
    fn shrinking_the_window_monotonically_increases_makespan() {
        // The §7 effect, as a property of the unified core: the narrower the
        // head node's dispatch window, the longer a wide graph takes.
        let overheads = OverheadModel::default();
        let cluster = ClusterConfig::santos_dumont(9);
        let w = wide_workload(128, 0.02, 1 << 14);
        let mut previous: Option<SimTime> = None;
        for window in [1usize, 2, 4, 8, 16, 64, 256] {
            let config = OmpcConfig { max_inflight_tasks: window, ..OmpcConfig::default() };
            let r = simulate_ompc(&w, &cluster, &config, &overheads).unwrap();
            if let Some(prev) = previous {
                assert!(
                    r.makespan <= prev,
                    "window {window} must not be slower than the next-narrower window \
                     ({} > {prev})",
                    r.makespan
                );
            }
            previous = Some(r.makespan);
        }
        // And the extremes differ strictly: the bottleneck is real.
        let narrow = {
            let c = OmpcConfig { max_inflight_tasks: 1, ..OmpcConfig::default() };
            simulate_ompc(&w, &cluster, &c, &overheads).unwrap()
        };
        let wide = {
            let c = OmpcConfig { max_inflight_tasks: 256, ..OmpcConfig::default() };
            simulate_ompc(&w, &cluster, &c, &overheads).unwrap()
        };
        assert!(narrow.makespan > wide.makespan);
    }

    #[test]
    fn pipelined_transfers_beat_legacy_serial_transfers() {
        // A fan-in heavy graph: each consumer pulls several large inputs.
        // Issuing them concurrently (the pipelined dispatch loop) must not
        // be slower than the legacy one-at-a-time issue, and is strictly
        // faster when transfers dominate.
        let mut g = TaskGraph::new();
        let sources = 6;
        for _ in 0..sources {
            g.add_task(0.001);
        }
        let sink = g.add_task(0.001);
        for s in 0..sources {
            g.add_edge(s, sink, 64 << 20);
        }
        let w = WorkloadGraph::new(g, vec![64 << 20; sources + 1]);
        let (cluster, _, overheads) = default_setup(8);
        let config = OmpcConfig::default();
        let pipelined = simulate_ompc(&w, &cluster, &config, &overheads).unwrap();
        let serial = OverheadModel { serial_input_transfers: true, ..overheads };
        let legacy = simulate_ompc(&w, &cluster, &config, &serial).unwrap();
        assert!(
            pipelined.makespan < legacy.makespan,
            "overlapped input forwarding ({}) must beat serial forwarding ({})",
            pipelined.makespan,
            legacy.makespan
        );
    }

    #[test]
    fn staged_transfers_pay_both_legs_even_when_pipelined() {
        // Forwarding disabled + concurrent input transfers: each staged
        // input's head->consumer leg must wait for its own worker->head leg,
        // so a large input always pays its serialization twice - regardless
        // of a small sibling input completing its first leg earlier. The
        // plan pins producer and consumer to different nodes (HEFT would
        // otherwise colocate them and avoid the transfer entirely).
        let mut g = TaskGraph::new();
        let small = g.add_task(1e-4);
        let big = g.add_task(1e-4);
        let sink = g.add_task(1e-4);
        g.add_edge(small, sink, 1 << 10);
        g.add_edge(big, sink, 256 << 20);
        let w = WorkloadGraph::new(g, vec![1 << 10, 256 << 20, 64]);
        let cluster = ClusterConfig::santos_dumont(4);
        let config = OmpcConfig::default();
        let staged = OverheadModel {
            worker_to_worker_forwarding: false,
            serial_input_transfers: false,
            ..OverheadModel::default()
        };
        let plan = RuntimePlan { assignment: vec![3, 1, 2], window: config.inflight_window() };
        let (r, record) = simulate_ompc_with_plan(&w, &cluster, &config, &staged, &plan).unwrap();
        assert_eq!(record.assignment, vec![3, 1, 2]);
        // The 256 MB buffer crosses the network three times: head -> big's
        // node (enter data), big's node -> head (stage), head -> sink's node.
        let one_leg = cluster.network.transfer_time(256 << 20);
        assert!(
            r.makespan >= SimTime(one_leg.0 * 3),
            "staged big input must cross the network three times: makespan {} < 3 x {one_leg}",
            r.makespan
        );
    }

    #[test]
    fn colocated_consumer_waits_for_shared_input_arrival() {
        // Two consumers of one producer pinned to the same node: the second
        // gets no transfer of its own (the copy is already on the wire for
        // the first), but it must not start computing until that copy has
        // arrived - the simulated analogue of an `AwaitLocal` step.
        let mut g = TaskGraph::new();
        let p = g.add_task(1e-4);
        let c1 = g.add_task(1e-4);
        let c2 = g.add_task(0.05);
        g.add_edge(p, c1, 256 << 20);
        g.add_edge(p, c2, 256 << 20);
        let w = WorkloadGraph::new(g, vec![256 << 20, 64, 64]);
        let cluster = ClusterConfig::santos_dumont(4);
        let config = OmpcConfig::default();
        let overheads = OverheadModel::default();
        let plan = RuntimePlan { assignment: vec![1, 2, 2], window: config.inflight_window() };
        let (r, _) = simulate_ompc_with_plan(&w, &cluster, &config, &overheads, &plan).unwrap();
        // The forward p -> node 2 and c2's 50 ms compute must serialize
        // (plus the initial head -> node 1 distribution of p's input).
        let one_leg = cluster.network.transfer_time(256 << 20);
        let floor = overheads.startup
            + SimTime(one_leg.0 * 2)
            + SimTime::from_secs_f64(0.05)
            + overheads.shutdown;
        assert!(
            r.makespan >= floor,
            "co-located consumer must wait for the shared input: makespan {} < floor {floor}",
            r.makespan
        );
    }

    #[test]
    fn overhead_fraction_shrinks_with_larger_tasks() {
        let (cluster, config, overheads) = default_setup(2);
        let tiny = chain_workload(16, 2e-5, 1024);
        let big = chain_workload(16, 0.5, 1024);
        let r_tiny = simulate_ompc(&tiny, &cluster, &config, &overheads).unwrap();
        let r_big = simulate_ompc(&big, &cluster, &config, &overheads).unwrap();
        let frac = |r: &OmpcSimResult| {
            let (s, c, d) = r.overhead_fractions();
            s + c + d
        };
        assert!(frac(&r_tiny) > frac(&r_big));
        assert!(frac(&r_big) < 0.25, "large tasks must have small overhead");
    }

    #[test]
    fn scheduler_choice_changes_assignment() {
        let cluster = ClusterConfig::santos_dumont(5);
        let w = chain_workload(12, 0.01, 64 << 20);
        let heft_cfg = OmpcConfig { scheduler: SchedulerKind::Heft, ..OmpcConfig::default() };
        let rr_cfg = OmpcConfig { scheduler: SchedulerKind::RoundRobin, ..OmpcConfig::default() };
        let overheads = OverheadModel::default();
        let (r_heft, heft) = recorded(&w, &cluster, &heft_cfg, &overheads);
        let (r_rr, rr) = recorded(&w, &cluster, &rr_cfg, &overheads);
        // HEFT keeps the communication-heavy chain on one node; round robin
        // scatters it.
        let heft_nodes: std::collections::BTreeSet<_> = heft.assignment.iter().collect();
        let rr_nodes: std::collections::BTreeSet<_> = rr.assignment.iter().collect();
        assert_eq!(heft_nodes.len(), 1);
        assert!(rr_nodes.len() > 1);
        // And the simulated makespan agrees that HEFT is at least as good.
        assert!(r_heft.makespan <= r_rr.makespan);
    }

    #[test]
    fn recorded_run_reports_core_decisions() {
        let (cluster, config, overheads) = default_setup(4);
        let w = chain_workload(6, 0.01, 1 << 18);
        let (result, record) = recorded(&w, &cluster, &config, &overheads);
        assert_eq!(result.stats.total_tasks(), 6);
        // A chain dispatches and completes strictly in order.
        assert_eq!(record.dispatch_order, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(record.completion_order, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(record.peak_in_flight, 1);
        assert_eq!(record.assignment.len(), 6);
    }

    #[test]
    fn determinism_across_runs() {
        let (cluster, config, overheads) = default_setup(6);
        let w = chain_workload(20, 0.02, 1 << 19);
        let a = simulate_ompc(&w, &cluster, &config, &overheads).unwrap();
        let b = simulate_ompc(&w, &cluster, &config, &overheads).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_less_cluster_is_rejected_up_front() {
        // ROADMAP follow-up: this used to panic inside the engine with
        // "compute on unknown node 1".
        let (_, config, overheads) = default_setup(2);
        let w = chain_workload(4, 0.01, 1 << 10);
        let err =
            simulate_ompc(&w, &ClusterConfig::santos_dumont(1), &config, &overheads).unwrap_err();
        assert!(matches!(err, OmpcError::InvalidConfig(_)));
        assert!(err.to_string().contains("no worker nodes"), "unclear message: {err}");
    }

    #[test]
    fn injected_failure_recovers_and_is_recorded() {
        use crate::runtime::fault::FaultPlan;
        let overheads = OverheadModel::default();
        let cluster = ClusterConfig::santos_dumont(4);
        let w = chain_workload(10, 0.02, 1 << 16);
        let baseline = recorded(&w, &cluster, &OmpcConfig::default(), &overheads);
        // Kill the node running the chain after its third retirement.
        let victim = baseline.1.assignment[2];
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().fail_after_completions(victim, 3),
            ..OmpcConfig::default()
        };
        let (result, record) = recorded(&w, &cluster, &config, &overheads);
        assert_eq!(result.stats.makespan, result.makespan);
        assert_eq!(record.failures.len(), 1);
        assert_eq!(record.failures[0].node, victim);
        assert!(record.failures[0].detected_at >= record.failures[0].silenced_at);
        assert!(!record.reexecuted.is_empty(), "lost work must re-execute");
        assert!(record.replanned.iter().all(|r| r.from == victim && r.to != victim));
        // Every task still retired (the last retirement of each id exists).
        let mut retired: Vec<usize> = record.completion_order.clone();
        retired.sort_unstable();
        retired.dedup();
        assert_eq!(retired, (0..w.len()).collect::<Vec<_>>());
        // Failures cost time.
        let clean = simulate_ompc(&w, &cluster, &OmpcConfig::default(), &overheads).unwrap();
        assert!(result.makespan > clean.makespan, "recovery must not be free");
    }

    #[test]
    fn replan_on_failure_reschedules_over_survivors() {
        use crate::runtime::fault::FaultPlan;
        let overheads = OverheadModel::default();
        let cluster = ClusterConfig::santos_dumont(5);
        // Independent tasks spread over all workers.
        let w = wide_workload(16, 0.02, 1 << 12);
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().fail_after_completions(1, 1),
            replan_on_failure: true,
            max_inflight_tasks: 2,
            ..OmpcConfig::default()
        };
        let (_, record) = recorded(&w, &cluster, &config, &overheads);
        assert_eq!(record.failures.len(), 1);
        // Nothing may end up on the dead node except tasks retired before
        // the failure.
        for (task, &node) in record.assignment.iter().enumerate() {
            if node == 1 {
                let last = record.completion_order.iter().rposition(|&t| t == task);
                assert!(last.is_some(), "task {task} on the dead node never retired");
            }
        }
        assert!(record.replanned.iter().all(|r| r.to != 1));
    }

    #[test]
    fn failure_of_the_only_worker_is_unrecoverable() {
        use crate::runtime::fault::FaultPlan;
        let overheads = OverheadModel::default();
        let cluster = ClusterConfig::santos_dumont(2);
        let w = chain_workload(6, 0.02, 1 << 10);
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().fail_after_completions(1, 2),
            ..OmpcConfig::default()
        };
        let err = simulate_ompc(&w, &cluster, &config, &overheads).unwrap_err();
        assert_eq!(err, OmpcError::NodeFailure(1));
    }
}
