//! The unified OMPC execution core.
//!
//! Historically the repository carried **two divergent copies** of the OMPC
//! execution protocol: `ClusterDevice` drove real worker threads and
//! `OmpcSimProcess` drove the virtual cluster, each with its own dispatch
//! loop, in-flight accounting, and forwarding decisions. This module
//! extracts the protocol into one place:
//!
//! * [`RuntimePlan`] — the static side: the HEFT (or ablation) schedule is
//!   computed through a single interface and turned into a task-to-node
//!   assignment, including the paper's §4.4 pinning rules for data and host
//!   tasks.
//! * [`RuntimeCore`] — the dynamic side: a backend-agnostic, pipelined
//!   dispatch loop. It owns the ready queue, the per-task dependence
//!   counters, the bounded in-flight window
//!   ([`crate::config::OmpcConfig::max_inflight_tasks`]), and the per-phase
//!   accounting (dispatch order, completion order, peak concurrency).
//! * [`ExecutionBackend`] — the trait a backend implements to execute what
//!   the core decides. [`SimBackend`] wraps the `ompc-sim` discrete-event
//!   engine. On a real cluster, `lowering` turns each dispatched task into
//!   device operations once — the steps of one car, the bookkeeping to
//!   retire or roll back — and [`MpiBackend`], the one transport, carries
//!   them as one composite tagged message over the `ompc-mpi` world and
//!   picks completions off the region execution's own channel (the paper's
//!   gate-thread shape): no head thread blocks per in-flight task.
//! * [`fault`] — the fault-tolerance subsystem (paper §3.1): deterministic
//!   failure injection, ring-heartbeat detection driven by this dispatch
//!   loop, and task recovery onto the surviving workers.
//!
//! Both execution modes therefore share every scheduling, windowing,
//! forwarding, and recovery decision — an optimization or fix lands once
//! and is measured in both — and the §7 head-node bottleneck can be
//! reproduced (or lifted) in either mode purely through configuration.

pub mod fault;
pub(crate) mod lowering;
pub mod mpi;
pub mod sim;
pub mod telemetry;

pub use fault::{FailureRecord, FaultPlan, FaultState, FaultTrigger, LostBuffer, ReplanEntry};
pub use mpi::MpiBackend;
pub use sim::SimBackend;
pub use telemetry::{
    chrome_trace, clock_reads, critical_path, overhead_attribution, Attribution, Span, SpanPhase,
    Telemetry, TelemetryLevel,
};

use crate::buffer::BufferRegistry;
use crate::config::OmpcConfig;
use crate::data_manager::{DataManager, Owed, TransferReason, TransferRecord, HEAD_NODE};
use crate::event::{Composite, EventSystem, TrainTable};
use crate::heartbeat::{plan_recovery, Millis};
use crate::model::{self, WorkloadGraph};
use crate::protocol::TaskStep;
use crate::task::{RegionGraph, TaskKind};
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult, TaskId};
use ompc_sched::{Csr, Platform};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The residency view consulted by region planning: every buffer whose
/// latest version lives on a worker node, mapped to that worker (see
/// [`DataManager::latest_on_workers`]). An empty map plans exactly as the
/// pre-residency runtime did.
pub type ResidencyMap = BTreeMap<BufferId, NodeId>;

/// Free device copies, one task of `Delete` steps — then a `Discard` step
/// per push the node is owed a drop of — per node: every node's task is
/// posted before any reply is awaited, so a release costs one round trip
/// however many nodes and buffers it covers. Each node is attempted; the
/// nodes that did not acknowledge come back with their error, so the caller
/// can keep owing them. At [`TelemetryLevel::Spans`] every task leaves an
/// [`SpanPhase::ExitData`] span on its node, the buffer count as its detail.
/// `trains`, when given, is the locked train table, released once every
/// task is posted.
pub(crate) fn delete_device_copies(
    events: &EventSystem,
    telemetry: &Telemetry,
    owed: &[(NodeId, Owed)],
    trains: Option<TrainTable>,
) -> Vec<(NodeId, OmpcError)> {
    let t0 = telemetry.start();
    let mut failed = Vec::new();
    let mut posted = Vec::new();
    for (node, owed) in owed {
        let deletes = owed.deletes.iter().map(|&buffer| TaskStep::Delete { buffer });
        let drops = owed.drops.iter().map(|p| TaskStep::Discard { tag: p.tag });
        let work = Composite { steps: deletes.chain(drops).collect(), ..Composite::default() };
        match events.post_task(*node, work) {
            Ok(channel) => posted.push((channel, owed.deletes.len())),
            Err(error) => failed.push((*node, error)),
        }
    }
    drop(trains);
    for (channel, count) in posted {
        match events.await_reply(&channel) {
            Ok(_) if telemetry.spans_enabled() => telemetry.record(
                Span::new(SpanPhase::ExitData, channel.node, t0, telemetry::monotonic_us())
                    .detail(format!("released {count} buffers")),
            ),
            Ok(_) => {}
            Err(error) => failed.push((channel.node, error)),
        }
    }
    failed
}

/// Release every device copy of `buffers` (device-level exit-data
/// semantics) — the one way a mapping ends on the head: drop the buffers
/// from the data manager under one lock, then free the copies with one
/// task per holder ([`delete_device_copies`]). A dead node is never a
/// holder — its memory died with it, and a delete would only bounce off
/// the zombie gate. The buffers are forgotten whatever the workers
/// answer; the first node's error is returned.
pub(crate) fn release_device_copies(
    dm: &parking_lot::Mutex<DataManager>,
    events: &EventSystem,
    telemetry: &Telemetry,
    buffers: &[BufferId],
) -> OmpcResult<()> {
    // `remove` returns only worker-node holders, none of them dead. A few
    // nodes hold many buffers: each node's list is gathered in `buffers`'
    // order, then becomes its set at once.
    let mut held: Vec<(NodeId, Vec<BufferId>)> = Vec::new();
    {
        let mut dm = dm.lock();
        for &buffer in buffers {
            for holder in dm.remove(buffer) {
                match held.iter_mut().find(|(node, _)| *node == holder) {
                    Some((_, list)) => list.push(buffer),
                    None => held.push((holder, vec![buffer])),
                }
            }
        }
    }
    held.sort_unstable_by_key(|&(node, _)| node);
    let owed: Vec<(NodeId, Owed)> = held
        .into_iter()
        .map(|(node, list)| (node, Owed { deletes: list.into_iter().collect(), ..Owed::default() }))
        .collect();
    first_error(delete_device_copies(events, telemetry, &owed, None))
}

/// What a release reports when some node did not acknowledge: the first
/// such node's error.
fn first_error(failed: Vec<(NodeId, OmpcError)>) -> OmpcResult<()> {
    failed.into_iter().next().map_or(Ok(()), |(_, error)| Err(error))
}

/// Who pushes where, for lowering and simulator alike: each `(reader, what)` to the reader's
/// node unless that is `node`, the head or dead. A node may come twice; its second booking awaits.
pub(crate) fn push_targets<'a, T: 'a>(
    readers: impl IntoIterator<Item = (usize, T)> + 'a,
    node: NodeId,
    assignment: &'a [NodeId],
    dm: &'a DataManager,
) -> impl Iterator<Item = (NodeId, T)> + 'a {
    let node_of = |(reader, what)| Some((*assignment.get(reader)?, what));
    let remote = move |&(to, _): &(NodeId, T)| to != node && to != HEAD_NODE && !dm.is_failed(to);
    readers.into_iter().filter_map(node_of).filter(remote)
}

/// A dependence DAG as seen by the execution core: dense task ids and
/// listed successors. Implemented by the scheduler's `TaskGraph` (simulated
/// workloads) and the runtime's [`RegionGraph`] (target regions on the real
/// cluster), so one dispatch loop drives both.
pub trait TaskDag {
    /// Number of tasks.
    fn task_count(&self) -> usize;
    /// Direct successors of `task`, in deterministic order.
    fn successor_ids(&self, task: usize) -> impl Iterator<Item = usize> + Clone + '_;
    /// Whether `task` may be dispatched while its direct predecessor `pred` is
    /// in flight, to wait on its worker for what `pred` writes: both are
    /// target tasks and every dependence between them is a flow one. Never,
    /// unless the graph says so.
    fn may_wait_on_worker(&self, pred: usize, task: usize) -> bool {
        let _ = (pred, task);
        false
    }
}

impl TaskDag for ompc_sched::TaskGraph {
    fn task_count(&self) -> usize {
        self.len()
    }
    fn successor_ids(&self, task: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        self.successors(task).iter().copied()
    }
}

impl TaskDag for RegionGraph {
    fn task_count(&self) -> usize {
        self.len()
    }
    fn successor_ids(&self, task: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        self.successors(TaskId(task)).iter().map(|t| t.0)
    }
    fn may_wait_on_worker(&self, pred: usize, task: usize) -> bool {
        let (pred, task) = (TaskId(pred), TaskId(task));
        let target = |t| self.task(t).kind.is_target();
        target(pred) && target(task) && self.is_flow_only(pred, task)
    }
}

impl TaskDag for WorkloadGraph {
    fn task_count(&self) -> usize {
        self.graph.task_count()
    }
    fn successor_ids(&self, task: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        self.graph.successor_ids(task)
    }
}

/// The static execution plan shared by every backend: one schedule, one
/// assignment, one window — the "schedule consumed through one interface"
/// half of the unified core.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimePlan {
    /// Node each task executes on (worker nodes are 1-based; the head node
    /// is [`HEAD_NODE`]).
    pub assignment: Vec<NodeId>,
    /// Maximum number of concurrently in-flight tasks.
    pub window: usize,
}

impl RuntimePlan {
    /// Plan an abstract workload: run the configured static scheduler over
    /// `platform` and map processor `p` to worker node `p + 1`.
    pub fn for_workload(
        workload: &WorkloadGraph,
        platform: &Platform,
        config: &OmpcConfig,
    ) -> Self {
        let schedule = config.scheduler.build().schedule(&workload.graph, platform);
        let assignment = (0..workload.len()).map(|t| schedule.proc_of(t) + 1).collect();
        Self { assignment, window: config.inflight_window() }
    }

    /// Plan a target region: schedule the region's task graph with
    /// processor `p` mapped to `nodes[p]`, then apply the paper's §4.4
    /// pinning rules — enter-data tasks follow their first target consumer,
    /// exit-data tasks follow their *last* target predecessor, and host
    /// tasks stay on the head node.
    ///
    /// `load[p]` is the reserved seconds of processor `p` (the node
    /// `nodes[p]`), fed to [`ompc_sched::Scheduler::schedule_with_load`] so
    /// a new region's tasks are placed *after* — never inside — the
    /// work of the regions already running there. This is the incremental
    /// path of concurrent regions: region K+1 reserves capacity against
    /// the snapshot instead of re-running HEFT over the union of both
    /// graphs. An empty (or all-zero) load plans bit-identically to an idle
    /// cluster.
    ///
    /// `residency` is the device's current cross-region residency view
    /// ([`DataManager::latest_on_workers`]): an enter-data task for a
    /// buffer already resident on a worker, or an exit-data task with no
    /// target predecessor *in this region* (a flush of data produced by an
    /// earlier region), is pinned to the node actually holding the latest
    /// copy, so the assignment record agrees with where the data manager
    /// will find (or leave) the bytes. Pins are only taken from `nodes` —
    /// a holder excluded from this plan (e.g. a dead worker) falls back to
    /// the scheduler's placement.
    ///
    /// # Panics
    ///
    /// When `nodes` does not name exactly one node per processor of
    /// `platform` — a broken call, not bad input: every caller derives both
    /// from one node list.
    #[allow(clippy::too_many_arguments)]
    pub fn region_assignment_with_load(
        region: &RegionGraph,
        buffers: &BufferRegistry,
        platform: &Platform,
        config: &OmpcConfig,
        nodes: &[NodeId],
        residency: &ResidencyMap,
        load: &[f64],
    ) -> Vec<NodeId> {
        assert_eq!(platform.num_procs(), nodes.len(), "one node per platform processor");
        let sched_graph = model::region_to_sched(region, buffers);
        let schedule = config.scheduler.build().schedule_with_load(&sched_graph, platform, load);
        let mut assignment: Vec<NodeId> =
            (0..region.len()).map(|t| nodes[schedule.proc_of(t)]).collect();
        let resident_pin = |task: &crate::task::TargetTask| -> Option<NodeId> {
            let buffer = task.kind.data_buffer()?;
            residency.get(&buffer).copied().filter(|holder| nodes.contains(holder))
        };
        for task in region.tasks() {
            match task.kind {
                TaskKind::EnterData { .. } => {
                    if let Some(&succ) = region
                        .successors(task.id)
                        .iter()
                        .find(|&&s| region.task(s).kind.is_target())
                    {
                        assignment[task.id.0] = assignment[succ.0];
                    } else if let Some(holder) = resident_pin(task) {
                        // No consumer in this region (a re-enter of
                        // resident data): stay where the data already is.
                        assignment[task.id.0] = holder;
                    }
                }
                TaskKind::ExitData { .. } => {
                    // §4.4: exit data follows its *last* target predecessor
                    // — the producer of the version being copied back — so
                    // the assignment record agrees with where the data
                    // manager will find the bytes.
                    if let Some(&pred) = region
                        .predecessors(task.id)
                        .iter()
                        .rev()
                        .find(|&&p| region.task(p).kind.is_target())
                    {
                        assignment[task.id.0] = assignment[pred.0];
                    } else if let Some(holder) = resident_pin(task) {
                        // No producer in this region: the version being
                        // flushed is resident from an earlier region — pin
                        // the exit to its actual holder.
                        assignment[task.id.0] = holder;
                    }
                }
                TaskKind::Host { .. } => assignment[task.id.0] = HEAD_NODE,
                TaskKind::Target { .. } => {}
            }
        }
        assignment
    }
}

/// One entry of the completion stream a backend reports to the core: every
/// dispatched task eventually produces exactly one event per execution
/// attempt — a completion or a typed failure — so the core can never block
/// on a task whose execution went wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskEvent {
    /// The task's execution finished normally.
    Completed(usize),
    /// The task's execution failed with the given error — typically a
    /// worker's typed error reply ([`OmpcError::RemoteEvent`]). The core
    /// owns the policy: a failure attributable to a node the failure
    /// injector killed (the task's own node, or the error's
    /// [`OmpcError::origin_node`]) is *stale* and the task restarts on a
    /// survivor; anything else propagates out of
    /// [`RuntimeCore::execute`].
    Failed {
        /// The task whose execution failed.
        task: usize,
        /// The error its execution produced.
        error: OmpcError,
    },
}

/// What a backend does with the work the core hands it.
///
/// The core calls the methods in a fixed protocol: `prologue` once, then an
/// alternation of `launch` (as the window opens) and `await_completions`
/// (when the window is full or no task is ready), then `epilogue` once after
/// the last task retired. A backend reports *what happened* to dispatched
/// tasks as typed [`TaskEvent`]s; the core decides *what* becomes ready,
/// *when* it is dispatched, and whether a failure propagates or restarts
/// the task.
///
/// The fault-tolerance hooks (`clock_millis`, `invalidate_node`)
/// have no-op defaults: a backend that never runs under a
/// [`fault::FaultPlan`] can ignore them entirely.
pub trait ExecutionBackend {
    /// Pay the per-run start-up and whole-graph scheduling costs. Called
    /// once, before any task is launched.
    fn prologue(&mut self) -> OmpcResult<()> {
        Ok(())
    }

    /// Begin executing `task` on `node`: perform (or model) its input
    /// forwarding and computation. Must not block until completion —
    /// completions are reported through
    /// [`ExecutionBackend::await_completions`] so the core can keep the
    /// window full.
    fn launch(&mut self, task: usize, node: NodeId) -> OmpcResult<()>;

    /// The assignment launches follow: given before the first, and after each recovery.
    fn assign(&mut self, assignment: &[NodeId]);

    /// Whether the car `launch` just wrote for `task` holds its consumers on
    /// their workers: a consumer dispatched before `task` retires waits there,
    /// on its own node, for what `task` writes — so the core may dispatch
    /// `task`'s flow-dependent target successors at once. Asked at every
    /// launch, with or without a fault plan; the car holds nothing once its
    /// node dies or the core restarts it. Never by default: the simulator
    /// models the paper's runtime, where the head releases every dependent
    /// task.
    fn holds_car(&self, task: usize) -> bool {
        let _ = task;
        false
    }

    /// Wait until at least one launched task has produced an outcome and
    /// append the events, in completion order, to `events` — a list the core
    /// owns, hands over empty and reuses every round, so the completion
    /// stream costs the head no allocation. When a completion's node has
    /// been killed by the failure injector, it is *stale*: the core
    /// discards the result and requeues the task instead of retiring it.
    /// A [`TaskEvent::Failed`] whose blamed node is dead is handled the
    /// same way; any other failure propagates. `Err` from this method is
    /// reserved for backend-level breakdowns (a broken transport, a stalled
    /// engine) that abort the run outright.
    fn await_completions(&mut self, events: &mut Vec<TaskEvent>) -> OmpcResult<()>;

    /// Drain results and shut down. Called once, after every task retired.
    fn epilogue(&mut self) -> OmpcResult<()> {
        Ok(())
    }

    /// The backend's fault clock in milliseconds, if it has one. The
    /// simulated backend reports virtual time; the real cluster returns
    /// `None` and the core advances a logical clock one heartbeat period
    /// per dispatch round.
    fn clock_millis(&self) -> Option<Millis> {
        None
    }

    /// Tell the backend `node` just died: discard every data copy it held
    /// and return the buffers whose *only* valid copy was lost, each with
    /// the tasks that write it (the lineage the core re-executes).
    fn invalidate_node(&mut self, node: NodeId) -> Vec<LostBuffer> {
        let _ = node;
        Vec::new()
    }
}

/// Record of one execution through the core: the decisions every backend
/// must agree on. Used by the backend-equivalence tests and exposed through
/// the public reporting APIs
/// ([`crate::cluster::ClusterDevice::last_run_record`],
/// [`crate::sim_runtime::simulate_ompc_outcome`]).
///
/// ```
/// use ompc_core::prelude::*;
/// use ompc_sim::ClusterConfig;
///
/// let mut g = ompc_sched::TaskGraph::new();
/// for _ in 0..3 {
///     g.add_task(0.01);
/// }
/// g.add_edge(0, 1, 128);
/// g.add_edge(1, 2, 128);
/// let workload = WorkloadGraph::new(g, vec![128; 3]);
/// let record = simulate_ompc_outcome(
///     &workload,
///     &ClusterConfig::santos_dumont(3),
///     &OmpcConfig::default(),
///     &OverheadModel::default(),
///     None,
/// )
/// .record;
/// // A chain dispatches and retires strictly in order, one in flight.
/// assert_eq!(record.dispatch_order, vec![0, 1, 2]);
/// assert_eq!(record.completion_order, vec![0, 1, 2]);
/// assert_eq!(record.peak_in_flight, 1);
/// assert!(record.failures.is_empty() && record.reexecuted.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// Node each task executed on (for recovered tasks: the surviving node
    /// that finally ran them; the per-failure history is in `failures` /
    /// `replanned`).
    pub assignment: Vec<NodeId>,
    /// Order in which the core dispatched tasks into the window. A task
    /// restarted by fault recovery appears once per dispatch.
    pub dispatch_order: Vec<usize>,
    /// Order in which the backend reported retiring task completions
    /// (stale completions from dead nodes are not recorded). A task whose
    /// completed work was lost with a node appears once per retirement.
    pub completion_order: Vec<usize>,
    /// Highest number of simultaneously in-flight tasks observed.
    pub peak_in_flight: usize,
    /// Every node failure declared during the run, in detection order.
    pub failures: Vec<FailureRecord>,
    /// Tasks executed more than once because a node died — restarted
    /// in-flight work and re-executed lineage producers — ascending.
    pub reexecuted: Vec<usize>,
    /// Tasks moved to a different node during recovery, in recovery order.
    pub replanned: Vec<ReplanEntry>,
    /// Every transfer the data manager planned during the run, in planning
    /// order: enter-data distributions, input forwards, and host
    /// retrievals. This is the observable side of cross-region residency —
    /// a buffer resident from an earlier region generates **no** entry
    /// here — and the surface the three-way transfer-set equivalence tests
    /// compare.
    pub transfers: Vec<TransferRecord>,
    /// Every telemetry [`Span`] recorded during the run, in recording
    /// order — empty unless the device ran with
    /// [`TelemetryLevel::Spans`]. Spans are observational: the rest of the
    /// record is byte-identical with telemetry on or off.
    pub spans: Vec<Span>,
}

impl RunRecord {
    /// Detection latency (ms of fault-clock time) of every declared
    /// failure, in detection order.
    pub fn recovery_latencies(&self) -> Vec<Millis> {
        self.failures.iter().map(|f| f.detection_latency()).collect()
    }

    /// Number of transfers planned during the run.
    pub fn transfer_count(&self) -> usize {
        self.transfers.len()
    }

    /// Total bytes of the transfers planned during the run (registered
    /// buffer sizes).
    pub fn transfer_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// The transfers that moved `buffer`, in planning order — the
    /// per-buffer breakdown residency tests assert on ("this input moved
    /// exactly once across N regions").
    pub fn buffer_transfers(&self, buffer: BufferId) -> Vec<TransferRecord> {
        self.transfers.iter().copied().filter(|t| t.buffer == buffer).collect()
    }

    /// The transfers with the given reason, in planning order.
    pub fn transfers_with_reason(&self, reason: TransferReason) -> Vec<TransferRecord> {
        self.transfers.iter().copied().filter(|t| t.reason == reason).collect()
    }

    /// The recorded spans of `task`, in recording order (empty unless the
    /// run was recorded with [`TelemetryLevel::Spans`]).
    pub fn task_spans(&self, task: usize) -> Vec<Span> {
        self.spans.iter().filter(|s| s.task == Some(task)).cloned().collect()
    }

    /// Fold the run's spans into the per-phase overhead attribution of
    /// Fig. 7(a) (all zeros when the run recorded no spans).
    pub fn attribution(&self) -> Attribution {
        overhead_attribution(&self.spans)
    }

    /// The longest time-respecting span chain of the run (see
    /// [`critical_path`]).
    pub fn critical_path(&self) -> Vec<Span> {
        critical_path(&self.spans)
    }
}

/// Per-task dispatch state tracked by the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Waiting for predecessors.
    Blocked,
    /// All predecessors retired — or each one not retired is a producer whose
    /// car holds this task on its worker — queued for dispatch.
    Ready,
    /// Dispatched to the backend, completion pending.
    InFlight,
    /// Retired.
    Done,
}

/// The backend-agnostic OMPC dispatch engine.
///
/// One instance executes one task graph: it tracks readiness, keeps up to
/// `window` tasks in flight (the pipelined replacement for the paper's
/// one-blocked-thread-per-region dispatch), retires tasks as the backend
/// reports their completion, and — when a [`fault::FaultPlan`] is active —
/// drives failure injection, heartbeat detection, and task recovery from
/// the same loop.
///
/// A task is dispatched once no predecessor blocks it. A predecessor blocks
/// it until it retires — unless it is a target task in flight on a live
/// node, whose car holds its consumers ([`ExecutionBackend::holds_car`]),
/// and the task depends on it through flow dependences only
/// ([`TaskDag::may_wait_on_worker`]): the task then waits on its worker, not
/// on the head. Anti- and output-dependence predecessors, data and host tasks
/// keep the retired-first rule. The rule is the same with and without a
/// fault plan; every blocker count goes through it.
#[derive(Debug)]
pub struct RuntimeCore {
    assignment: Vec<NodeId>,
    window: usize,
    /// The graph's edges both ways, flat: two allocations each however many
    /// tasks there are. A successor carries whether it may wait on its
    /// worker for the task ([`TaskDag::may_wait_on_worker`]).
    successors: Csr<(usize, bool)>,
    predecessors: Csr<usize>,
    /// Per blocked or ready task, how many of its predecessors block it
    /// ([`RuntimeCore::blocks`]). Zero is ready.
    blockers: Vec<usize>,
    /// Per task, whether its in-flight car holds its consumers: set at each
    /// launch, cleared when the task retires or restarts or its node is
    /// killed.
    holds: Vec<bool>,
    state: Vec<TaskState>,
    /// Node each in-flight task was actually dispatched to (stale-completion
    /// detection must not consult `assignment`, which recovery rewrites).
    dispatched_on: Vec<NodeId>,
    ready: VecDeque<usize>,
    in_flight: usize,
    completed: usize,
    total: usize,
    dispatch_order: Vec<usize>,
    completion_order: Vec<usize>,
    peak_in_flight: usize,
    faults: Option<FaultState>,
    /// Lost-buffer / lineage counts per killed node, reported in the
    /// [`FailureRecord`] once the monitor declares the failure.
    kill_info: BTreeMap<NodeId, (usize, usize)>,
    failures: Vec<FailureRecord>,
    reexecuted: BTreeSet<usize>,
    replanned: Vec<ReplanEntry>,
    /// Span recorder (disabled by default). All core spans — dispatch,
    /// retire, replan — are head-node bookkeeping and never change what
    /// the core decides.
    telemetry: std::sync::Arc<Telemetry>,
}

impl RuntimeCore {
    /// Build the dispatch engine for `dag` under `plan`, without fault
    /// tolerance.
    pub fn new(dag: &impl TaskDag, plan: &RuntimePlan) -> Self {
        Self::build(dag, plan, None)
    }

    /// Build the dispatch engine with an active fault subsystem (see
    /// [`FaultState::from_config`]).
    pub fn with_faults(dag: &impl TaskDag, plan: &RuntimePlan, faults: FaultState) -> Self {
        Self::build(dag, plan, Some(faults))
    }

    fn build(dag: &impl TaskDag, plan: &RuntimePlan, faults: Option<FaultState>) -> Self {
        let total = dag.task_count();
        // Each edge once, with whether its consumer may wait on its worker.
        let edges: Vec<(usize, usize, bool)> = (0..total)
            .flat_map(|t| dag.successor_ids(t).map(move |s| (t, s)))
            .map(|(t, s)| (t, s, dag.may_wait_on_worker(t, s)))
            .collect();
        let successors = Csr::group(total, edges.iter().map(|&(t, s, waits)| (t, (s, waits))));
        let predecessors = Csr::group(total, edges.iter().map(|&(t, s, _)| (s, t)));
        let mut core = Self {
            assignment: plan.assignment.clone(),
            window: plan.window.max(1),
            successors,
            predecessors,
            blockers: vec![0; total],
            holds: vec![false; total],
            state: vec![TaskState::Blocked; total],
            dispatched_on: vec![HEAD_NODE; total],
            ready: VecDeque::new(),
            in_flight: 0,
            completed: 0,
            total,
            dispatch_order: Vec::with_capacity(total),
            completion_order: Vec::with_capacity(total),
            peak_in_flight: 0,
            faults,
            kill_info: BTreeMap::new(),
            failures: Vec::new(),
            reexecuted: BTreeSet::new(),
            replanned: Vec::new(),
            telemetry: Telemetry::off(),
        };
        core.rebuild_ready();
        core
    }

    /// Install a span recorder: the core records a `Dispatch` span per
    /// launch (which also opens the task's attempt), a `Retire` span per
    /// completion, and a `Replan` span per recovery. The device installs
    /// the recorder it hands to the backend so head-side and worker-side
    /// spans land in one stream.
    pub fn set_telemetry(&mut self, telemetry: std::sync::Arc<Telemetry>) {
        self.telemetry = telemetry;
    }

    /// Drive `backend` until every task has completed. A plan that does not
    /// assign every task of the graph exactly once is
    /// [`OmpcError::InvalidConfig`].
    pub fn execute<B: ExecutionBackend>(&mut self, backend: &mut B) -> OmpcResult<()> {
        if self.assignment.len() != self.total {
            return Err(OmpcError::InvalidConfig(format!(
                "the plan assigns {} task(s) to a graph of {}",
                self.assignment.len(),
                self.total
            )));
        }
        if self.total == 0 {
            return Ok(());
        }
        backend.prologue()?;
        backend.assign(&self.assignment);
        self.fill_window(backend)?;
        // The completion stream, one list for the whole run: emptied as each
        // round is handled, so no round sees another's events.
        let mut events = Vec::new();
        while self.completed < self.total {
            backend.await_completions(&mut events)?;
            if events.is_empty() {
                return Err(OmpcError::Internal(
                    "execution backend reported no progress".to_string(),
                ));
            }
            for event in events.drain(..) {
                self.on_event(event, backend)?;
                #[cfg(test)]
                self.assert_counted();
            }
            if self.faults.is_some() {
                self.poll_heartbeats(backend)?;
            }
            self.fill_window(backend)?;
        }
        backend.epilogue()
    }

    /// Handle one event of the backend's completion stream.
    ///
    /// A completion retires the task — checking the failure injector's
    /// completion triggers at this exact position in the completion stream
    /// — unless it comes from a dead node, in which case it is discarded
    /// as stale and the task requeued. A failure whose blame falls on a
    /// dead node (the task's own node, or the node the error reply
    /// originated from) is likewise stale — the failure injector caused
    /// it, recovery will rerun the task — while any other failure
    /// propagates out of the run.
    fn on_event<B: ExecutionBackend>(
        &mut self,
        event: TaskEvent,
        backend: &mut B,
    ) -> OmpcResult<()> {
        let task = match &event {
            TaskEvent::Completed(task) => *task,
            TaskEvent::Failed { task, .. } => *task,
        };
        if task >= self.total || self.state[task] != TaskState::InFlight {
            return Err(OmpcError::Internal(format!(
                "backend reported an event for task {task}, which is not in flight"
            )));
        }
        let node = self.dispatched_on[task];
        let node_is_dead =
            |n: NodeId| -> bool { self.faults.as_ref().is_some_and(|f| f.is_dead(n)) };
        match event {
            TaskEvent::Completed(_) if node_is_dead(node) => {
                // Stale completion from a dead node: the result was
                // discarded at the data layer; restart the task.
                self.in_flight -= 1;
                self.reexecuted.insert(task);
                self.reset_to_pending(task);
                Ok(())
            }
            TaskEvent::Completed(_) => {
                // Only a task's *first-attempt* retirement advances the
                // failure injector's `AfterCompletions` fault clock: a task
                // in the re-executed set is retiring recovery work, and
                // counting it would let one injected failure cascade a
                // survivor past its own trigger (see
                // [`FaultTrigger::AfterCompletions`]).
                let first_attempt = !self.reexecuted.contains(&task);
                self.retire(task);
                let newly_dead = match &mut self.faults {
                    Some(f) if first_attempt => f.note_retirement(node),
                    _ => Vec::new(),
                };
                for dead in newly_dead {
                    self.kill_node(dead, backend);
                }
                Ok(())
            }
            TaskEvent::Failed { error, .. } => {
                let blamed = error.origin_node();
                if node_is_dead(node) || blamed.is_some_and(node_is_dead) {
                    // The failure is collateral damage of an injected node
                    // death (the task ran there, or a dead peer refused an
                    // event mid-task): stale — restart on a survivor.
                    self.in_flight -= 1;
                    self.reexecuted.insert(task);
                    self.reset_to_pending(task);
                    Ok(())
                } else {
                    Err(error)
                }
            }
        }
    }

    /// One heartbeat round: advance the fault clock, fire timed failure
    /// triggers, beat the surviving nodes, and run recovery for any node
    /// the monitor newly declares failed.
    fn poll_heartbeats<B: ExecutionBackend>(&mut self, backend: &mut B) -> OmpcResult<()> {
        let backend_now = backend.clock_millis();
        let newly_dead = match &mut self.faults {
            Some(f) => f.advance_round(backend_now),
            None => return Ok(()),
        };
        for dead in newly_dead {
            self.kill_node(dead, backend);
        }
        let declared = match &mut self.faults {
            Some(f) => f.beat_and_check(),
            None => Vec::new(),
        };
        for node in declared {
            self.recover_from(node, backend)?;
        }
        Ok(())
    }

    /// The injector killed `node`: invalidate its data through the backend
    /// and un-retire the lineage of every buffer that died with it, so the
    /// producers re-execute from the head node's pre-offload image.
    fn kill_node<B: ExecutionBackend>(&mut self, node: NodeId, backend: &mut B) {
        // A car on the dead node holds no consumer any more: the rebuild below
        // counts them blocked again.
        for task in (0..self.total).filter(|&t| self.dispatched_on[t] == node) {
            self.holds[task] = false;
        }
        let lost = backend.invalidate_node(node);
        let mut lineage = 0usize;
        for buffer in &lost {
            for &writer in &buffer.writers {
                if writer < self.total && self.state[writer] == TaskState::Done {
                    self.state[writer] = TaskState::Blocked;
                    self.completed -= 1;
                    self.reexecuted.insert(writer);
                    lineage += 1;
                }
            }
        }
        self.kill_info.insert(node, (lost.len(), lineage));
        self.rebuild_ready();
    }

    /// The heartbeat monitor declared `node` failed: record the failure and
    /// move its unfinished tasks round-robin onto the surviving workers.
    fn recover_from<B: ExecutionBackend>(
        &mut self,
        node: NodeId,
        backend: &mut B,
    ) -> OmpcResult<()> {
        let (alive, silenced_at, detected_at) = match &self.faults {
            Some(f) => (f.alive_workers(), f.silenced_at(node), f.clock()),
            None => {
                return Err(OmpcError::Internal(format!(
                    "node {node} was declared failed without an active fault subsystem"
                )))
            }
        };
        let (lost_buffers, lineage_tasks) = self.kill_info.remove(&node).unwrap_or((0, 0));
        self.failures.push(FailureRecord {
            node,
            silenced_at,
            detected_at,
            lost_buffers,
            lineage_tasks,
        });
        if alive.is_empty() {
            return Err(OmpcError::NodeFailure(node));
        }
        let replan_start = self.telemetry.start();
        for (task, to) in plan_recovery(&self.assignment, &[node], &alive) {
            if !self.may_move(task, node) {
                continue;
            }
            self.replanned.push(ReplanEntry { task, from: self.assignment[task], to });
            self.assignment[task] = to;
        }
        backend.assign(&self.assignment);
        if self.telemetry.spans_enabled() {
            self.telemetry.record(
                Span::new(SpanPhase::Replan, HEAD_NODE, replan_start, telemetry::monotonic_us())
                    .detail(format!("node {node} failed")),
            );
        }
        Ok(())
    }

    /// Whether recovery for the failure of `failed` may move `task`:
    /// retired tasks keep their historical node, and live in-flight tasks
    /// cannot move mid-execution (in-flight tasks on the dead node are
    /// zombies and must move).
    fn may_move(&self, task: usize, failed: NodeId) -> bool {
        match self.state[task] {
            TaskState::Done => false,
            TaskState::InFlight => self.dispatched_on[task] == failed,
            TaskState::Blocked | TaskState::Ready => true,
        }
    }

    /// Put a restarted task back into the dependence machinery: its blockers
    /// are counted afresh, and a consumer its car held is blocked again.
    fn reset_to_pending(&mut self, task: usize) {
        self.blockers[task] = self.count_blockers(task);
        let ready = self.blockers[task] == 0;
        self.set_state(task, if ready { TaskState::Ready } else { TaskState::Blocked }, false);
        if ready {
            self.ready.push_back(task);
        }
    }

    /// Whether `pred` still blocks a consumer whose edge from it `waits`
    /// ([`TaskDag::may_wait_on_worker`]): it has not retired, and it is not an
    /// in-flight car on a live node that holds the consumer on its worker.
    fn blocks(&self, pred: usize, waits: bool) -> bool {
        match self.state[pred] {
            TaskState::Done => false,
            TaskState::InFlight => !(waits && self.holds[pred]),
            TaskState::Blocked | TaskState::Ready => true,
        }
    }

    /// How many of `task`'s predecessors block it. Whether the edge from one
    /// waits is looked up only for one in flight.
    fn count_blockers(&self, task: usize) -> usize {
        let in_flight = |pred: usize| self.state[pred] == TaskState::InFlight;
        let waits =
            |pred: usize| in_flight(pred) && self.successors.get(pred).contains(&(task, true));
        self.predecessors.get(task).iter().filter(|&&pred| self.blocks(pred, waits(pred))).count()
    }

    /// Move `task` to `state`, its car holding its consumers or not, and move
    /// each blocked or ready consumer's count by what that changes in whether
    /// `task` blocks it: one no longer blocked may become ready, one blocked
    /// again leaves the ready queue.
    fn set_state(&mut self, task: usize, state: TaskState, holds: bool) {
        let blocking = |core: &Self| [false, true].map(|waits| core.blocks(task, waits));
        let before = blocking(self);
        (self.state[task], self.holds[task]) = (state, holds);
        let after = blocking(self);
        if before == after {
            return;
        }
        for &(succ, waits) in self.successors.get(task) {
            let (was, is) = (before[usize::from(waits)], after[usize::from(waits)]);
            match self.state[succ] {
                _ if was == is => {}
                TaskState::Blocked if is => self.blockers[succ] += 1,
                TaskState::Blocked => {
                    self.blockers[succ] -= 1;
                    if self.blockers[succ] == 0 {
                        self.state[succ] = TaskState::Ready;
                        self.ready.push_back(succ);
                    }
                }
                TaskState::Ready if is => {
                    (self.state[succ], self.blockers[succ]) = (TaskState::Blocked, 1);
                    self.ready.retain(|&t| t != succ);
                }
                // A ready task has no blocker to lose, and in-flight and
                // retired ones are not counted.
                TaskState::Ready | TaskState::InFlight | TaskState::Done => {}
            }
        }
    }

    /// Recompute the dependence counters and rebuild the ready queue
    /// (ascending task id) after recovery changed task states. In-flight
    /// and retired tasks are untouched.
    fn rebuild_ready(&mut self) {
        self.ready.clear();
        for task in 0..self.total {
            if matches!(self.state[task], TaskState::Blocked | TaskState::Ready) {
                self.reset_to_pending(task);
            }
        }
    }

    fn fill_window<B: ExecutionBackend>(&mut self, backend: &mut B) -> OmpcResult<()> {
        while self.in_flight < self.window {
            let start = self.telemetry.start();
            let Some(task) = self.ready.pop_front() else { break };
            debug_assert_eq!(self.state[task], TaskState::Ready);
            self.dispatched_on[task] = self.assignment[task];
            self.in_flight += 1;
            self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
            self.dispatch_order.push(task);
            let attempt = self.telemetry.begin_attempt(task);
            // The dispatch span covers only the core's bookkeeping: the
            // backend records its own serialize/send spans inside `launch`,
            // and enclosing them here would double-count those buckets.
            if self.telemetry.spans_enabled() {
                self.telemetry.record(
                    Span::new(SpanPhase::Dispatch, HEAD_NODE, start, telemetry::monotonic_us())
                        .task(task)
                        .attempt(attempt),
                );
            }
            backend.launch(task, self.assignment[task])?;
            self.set_state(task, TaskState::InFlight, backend.holds_car(task));
            #[cfg(test)]
            self.assert_counted();
        }
        Ok(())
    }

    fn retire(&mut self, task: usize) {
        debug_assert!(self.in_flight > 0, "retired task {task} that was not in flight");
        if self.telemetry.spans_enabled() {
            let now = telemetry::monotonic_us();
            self.telemetry.record(
                Span::new(SpanPhase::Retire, HEAD_NODE, now, now)
                    .task(task)
                    .attempt(self.telemetry.attempt(task)),
            );
        }
        self.in_flight -= 1;
        self.completed += 1;
        self.completion_order.push(task);
        self.set_state(task, TaskState::Done, false);
    }

    /// Node each task executes on.
    pub fn assignment(&self) -> &[NodeId] {
        &self.assignment
    }

    /// The effective window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of retired tasks so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The run's decision record (dispatch order, completion order, peak
    /// concurrency, and — with an active fault plan — the failure,
    /// re-execution, and recovery events).
    pub fn record(&self) -> RunRecord {
        RunRecord {
            assignment: self.assignment.clone(),
            dispatch_order: self.dispatch_order.clone(),
            completion_order: self.completion_order.clone(),
            peak_in_flight: self.peak_in_flight,
            failures: self.failures.clone(),
            reexecuted: self.reexecuted.iter().copied().collect(),
            replanned: self.replanned.clone(),
            // Transfers are owned by the data layer and spans by the
            // device's recorder, not the dispatch loop; the backend's
            // owner attaches both after execution.
            transfers: Vec::new(),
            spans: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompc_sched::TaskGraph;

    /// `region`'s plan over an idle cluster of the workers `nodes`.
    fn plan_region(
        region: &RegionGraph,
        buffers: &BufferRegistry,
        config: &OmpcConfig,
        nodes: &[NodeId],
        residency: &ResidencyMap,
    ) -> Vec<NodeId> {
        let platform = Platform::cluster(nodes.len());
        RuntimePlan::region_assignment_with_load(
            region,
            buffers,
            &platform,
            config,
            nodes,
            residency,
            &[],
        )
    }

    /// A backend that completes tasks in LIFO order to exercise the core's
    /// windowing independent of any real execution machinery.
    #[derive(Default)]
    struct StackBackend {
        running: Vec<usize>,
        prologues: usize,
        epilogues: usize,
    }

    impl ExecutionBackend for StackBackend {
        fn assign(&mut self, _: &[NodeId]) {}

        fn prologue(&mut self) -> OmpcResult<()> {
            self.prologues += 1;
            Ok(())
        }
        fn launch(&mut self, task: usize, _node: NodeId) -> OmpcResult<()> {
            self.running.push(task);
            Ok(())
        }
        fn await_completions(&mut self, events: &mut Vec<TaskEvent>) -> OmpcResult<()> {
            events.extend(self.running.pop().map(TaskEvent::Completed));
            Ok(())
        }
        fn epilogue(&mut self) -> OmpcResult<()> {
            self.epilogues += 1;
            Ok(())
        }
    }

    fn diamond() -> WorkloadGraph {
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add_task(1.0);
        }
        g.add_edge(0, 1, 8);
        g.add_edge(0, 2, 8);
        g.add_edge(1, 3, 8);
        g.add_edge(2, 3, 8);
        WorkloadGraph::new(g, vec![8; 4])
    }

    fn plan_with_window(w: &WorkloadGraph, window: usize) -> RuntimePlan {
        RuntimePlan { assignment: vec![1; w.len()], window }
    }

    #[test]
    fn executes_every_task_once_in_dependence_order() {
        let w = diamond();
        let mut core = RuntimeCore::new(&w, &plan_with_window(&w, 8));
        let mut backend = StackBackend::default();
        core.execute(&mut backend).unwrap();
        let record = core.record();
        assert_eq!(record.dispatch_order.len(), 4);
        assert_eq!(record.completion_order.len(), 4);
        assert_eq!(backend.prologues, 1);
        assert_eq!(backend.epilogues, 1);
        assert!(record.failures.is_empty() && record.reexecuted.is_empty());
        // Dependences hold in completion order.
        let pos = |t: usize| record.completion_order.iter().position(|&x| x == t).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn window_bounds_in_flight_tasks() {
        let mut g = TaskGraph::new();
        for _ in 0..16 {
            g.add_task(1.0);
        }
        let w = WorkloadGraph::new(g, vec![0; 16]);
        for window in [1usize, 3, 16, 64] {
            let mut core = RuntimeCore::new(&w, &plan_with_window(&w, window));
            core.execute(&mut StackBackend::default()).unwrap();
            assert_eq!(core.record().peak_in_flight, window.min(16));
        }
    }

    #[test]
    fn a_plan_of_the_wrong_length_is_a_typed_error_before_anything_runs() {
        let w = diamond();
        let mut backend = StackBackend::default();
        for assignment in [vec![1; 3], vec![1; 5]] {
            let plan = RuntimePlan { assignment, window: 4 };
            let err = RuntimeCore::new(&w, &plan).execute(&mut backend).unwrap_err();
            assert!(matches!(err, OmpcError::InvalidConfig(_)), "got {err:?}");
        }
        assert_eq!(backend.prologues, 0);
    }

    #[test]
    fn empty_graph_skips_backend_entirely() {
        let w = WorkloadGraph::default();
        let mut core = RuntimeCore::new(&w, &RuntimePlan { assignment: vec![], window: 4 });
        let mut backend = StackBackend::default();
        core.execute(&mut backend).unwrap();
        assert_eq!(backend.prologues, 0);
        assert_eq!(backend.epilogues, 0);
    }

    #[test]
    fn stalled_backend_is_an_error_not_a_hang() {
        struct Stalled;
        impl ExecutionBackend for Stalled {
            fn assign(&mut self, _: &[NodeId]) {}

            fn launch(&mut self, _: usize, _: NodeId) -> OmpcResult<()> {
                Ok(())
            }
            fn await_completions(&mut self, _: &mut Vec<TaskEvent>) -> OmpcResult<()> {
                Ok(())
            }
        }
        let w = diamond();
        let mut core = RuntimeCore::new(&w, &plan_with_window(&w, 2));
        let err = core.execute(&mut Stalled).unwrap_err();
        assert!(matches!(err, OmpcError::Internal(_)));
    }

    /// The core hands every round an empty list and handles only what that
    /// round appended: a backend appending one completion per round runs the
    /// graph to its end, and one that stops appending is stalled — the
    /// no-progress error, not a replay of the round before.
    #[test]
    fn the_reused_event_list_carries_nothing_into_the_next_round() {
        struct Appending {
            running: Vec<usize>,
            rounds: usize,
            stall_after: usize,
        }
        impl ExecutionBackend for Appending {
            fn assign(&mut self, _: &[NodeId]) {}

            fn launch(&mut self, task: usize, _: NodeId) -> OmpcResult<()> {
                self.running.push(task);
                Ok(())
            }
            fn await_completions(&mut self, events: &mut Vec<TaskEvent>) -> OmpcResult<()> {
                assert!(events.is_empty(), "round {} was handed {events:?}", self.rounds);
                self.rounds += 1;
                if self.rounds <= self.stall_after {
                    events.extend(self.running.pop().map(TaskEvent::Completed));
                }
                Ok(())
            }
        }
        let w = diamond();
        let mut backend = Appending { running: Vec::new(), rounds: 0, stall_after: usize::MAX };
        let mut core = RuntimeCore::new(&w, &plan_with_window(&w, 2));
        core.execute(&mut backend).unwrap();
        assert_eq!((core.completed(), backend.rounds), (4, 4));

        let mut stalled = Appending { running: Vec::new(), rounds: 0, stall_after: 1 };
        let mut core = RuntimeCore::new(&w, &plan_with_window(&w, 2));
        let err = core.execute(&mut stalled).unwrap_err();
        assert_eq!(err, OmpcError::Internal("execution backend reported no progress".into()));
        assert_eq!((core.completed(), stalled.rounds), (1, 2));
    }

    /// A backend whose every car holds its consumers, completing launched
    /// tasks oldest first.
    #[derive(Default)]
    struct Holding {
        running: VecDeque<usize>,
        launched: Vec<usize>,
    }

    impl ExecutionBackend for Holding {
        fn assign(&mut self, _: &[NodeId]) {}

        fn launch(&mut self, task: usize, _: NodeId) -> OmpcResult<()> {
            self.running.push_back(task);
            self.launched.push(task);
            Ok(())
        }
        fn holds_car(&self, _: usize) -> bool {
            true
        }
        fn await_completions(&mut self, events: &mut Vec<TaskEvent>) -> OmpcResult<()> {
            events.extend(self.running.pop_front().map(TaskEvent::Completed));
            Ok(())
        }
    }

    /// On a backend whose cars hold their consumers, a flow-dependent target
    /// reader is dispatched once its producer is, while a writer of the
    /// buffer waits until every reader of the version it supersedes has
    /// retired: an anti dependence is never waited on on a worker, and
    /// neither is a host task. A fault plan changes none of it.
    #[test]
    fn readers_are_held_and_a_writer_waits_for_them_with_or_without_a_fault_plan() {
        use crate::types::{BufferId, Dependence, KernelId};
        let a = BufferId(0);
        let target = || TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 };
        let mut region = RegionGraph::new();
        let producer = region.add_task(target(), vec![Dependence::output(a)], "p").0;
        let readers = [1, 2].map(|_| region.add_task(target(), vec![Dependence::input(a)], "r").0);
        let writer = region.add_task(target(), vec![Dependence::output(a)], "w").0;
        let host =
            region.add_task(TaskKind::Host { cost_hint: 0.0 }, vec![Dependence::input(a)], "h").0;
        let plan = RuntimePlan { assignment: vec![1; 5], window: 8 };
        let faults = || {
            let plan = FaultPlan::none().fail_after_completions(1, 99);
            FaultState::from_config(&plan, 1).unwrap().unwrap()
        };
        let cores =
            [RuntimeCore::new(&region, &plan), RuntimeCore::with_faults(&region, &plan, faults())];
        for mut core in cores {
            core.execute(&mut Holding::default()).unwrap();
            let record = core.record();
            let completed = |t| record.completion_order.iter().position(|&x| x == t).unwrap();
            let dispatched = |t| record.dispatch_order.iter().position(|&x| x == t).unwrap();
            assert_eq!(&record.dispatch_order[..3], &[producer, readers[0], readers[1]]);
            assert_eq!(record.peak_in_flight, 3, "the readers were held behind the producer");
            // Before the writer was dispatched, both readers had retired.
            assert!(readers.iter().all(|&r| completed(r) < dispatched(writer)), "{record:?}");
            assert!(completed(writer) < dispatched(host), "{record:?}");
            assert!(is_topological_in(&record.completion_order, &region));
        }
    }

    /// A backend whose every car holds its consumers and which completes, each
    /// round, the first task of `order` in flight — each of them once — or
    /// else the oldest in flight. It reports whatever it completes, also from
    /// a dead node: the core tells such a completion stale.
    struct Scripted {
        order: Vec<usize>,
        running: VecDeque<usize>,
    }

    impl ExecutionBackend for Scripted {
        fn assign(&mut self, _: &[NodeId]) {}

        fn launch(&mut self, task: usize, _: NodeId) -> OmpcResult<()> {
            self.running.push_back(task);
            Ok(())
        }
        fn holds_car(&self, _: usize) -> bool {
            true
        }
        fn await_completions(&mut self, events: &mut Vec<TaskEvent>) -> OmpcResult<()> {
            let next = self.order.iter().position(|t| self.running.contains(t));
            let task = match next {
                Some(at) => Some(self.order.remove(at)),
                None => self.running.front().copied(),
            };
            self.running.retain(|&t| Some(t) != task);
            events.extend(task.map(TaskEvent::Completed));
            Ok(())
        }
    }

    /// P writes `a` on worker 1, X is unrelated on worker 2, and C reads `a`
    /// on `consumer`; worker 2 dies with X's retirement, and the backend
    /// completes X, then C, then P. The record of a run that retired every
    /// task.
    fn held_consumer_beside_a_death(consumer: NodeId, window: usize) -> RunRecord {
        use crate::types::{BufferId, Dependence, KernelId};
        let (a, x) = (BufferId(0), BufferId(1));
        let target = || TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 };
        let mut region = RegionGraph::new();
        region.add_task(target(), vec![Dependence::output(a)], "P");
        region.add_task(target(), vec![Dependence::output(x)], "X");
        region.add_task(target(), vec![Dependence::input(a)], "C");
        let plan = RuntimePlan { assignment: vec![1, 2, consumer], window };
        let faults = FaultPlan::none().fail_after_completions(2, 1);
        let faults = FaultState::from_config(&faults, 2).unwrap().unwrap();
        let mut core = RuntimeCore::with_faults(&region, &plan, faults);
        let mut backend = Scripted { order: vec![1, 2, 0], running: VecDeque::new() };
        core.execute(&mut backend).unwrap();
        let record = core.record();
        assert_eq!(core.completed(), 3, "{record:?}");
        record
    }

    /// C is held on the dying worker: its stale completion comes while its
    /// producer's car is still in flight and holds it, so C is ready again
    /// at once — not blocked behind P, whose retirement will not count it.
    #[test]
    fn a_held_consumer_on_a_dying_node_is_not_blocked_again_by_its_stale_completion() {
        let record = held_consumer_beside_a_death(2, 8);
        assert_eq!(record.reexecuted, vec![2], "C restarted: {record:?}");
        assert_eq!(record.assignment, vec![1, 2, 1], "C moved to the survivor");
        assert_eq!(record.peak_in_flight, 3, "C was held behind P");
    }

    /// C is held on P's live worker but still queued when worker 2 dies: the
    /// death's recount leaves it ready, since P's car still holds it.
    #[test]
    fn a_death_does_not_block_a_ready_held_consumer_again() {
        let record = held_consumer_beside_a_death(1, 2);
        assert!(record.reexecuted.is_empty(), "{record:?}");
        assert_eq!(record.dispatch_order, vec![0, 1, 2]);
        assert_eq!(record.completion_order, vec![1, 2, 0], "C retired as scripted");
    }

    impl RuntimeCore {
        /// Every blocked or ready task's count is a recount through
        /// [`RuntimeCore::blocks`]; a task is ready exactly when nothing
        /// blocks it, and queued exactly when ready. Checked after every event
        /// and every launch of a unit test's run.
        pub(super) fn assert_counted(&self) {
            let mut queued = vec![0usize; self.total];
            for &task in &self.ready {
                queued[task] += 1;
            }
            for (task, &queued) in queued.iter().enumerate() {
                let ready = self.state[task] == TaskState::Ready;
                assert_eq!(queued, usize::from(ready), "task {task} queued as it is ready");
                if matches!(self.state[task], TaskState::Blocked | TaskState::Ready) {
                    assert_eq!(self.blockers[task], self.count_blockers(task), "task {task}");
                    assert_eq!(ready, self.blockers[task] == 0, "task {task} ready when unblocked");
                }
            }
        }
    }

    /// The choices of one path of an exhaustive walk: those a script fixed,
    /// then the first option at every later step, each with how many options
    /// there were.
    #[derive(Default)]
    struct Walk {
        script: Vec<usize>,
        taken: Vec<(usize, usize)>,
    }

    impl Walk {
        /// Pick one of `options` (at least one).
        fn choose(&mut self, options: usize) -> usize {
            let pick = self.script.get(self.taken.len()).copied().unwrap_or(0);
            assert!(pick < options, "a replayed path took another turn");
            self.taken.push((pick, options));
            pick
        }

        /// The script of the next path, depth first, or `None` when this one
        /// was the last.
        fn next(mut self) -> Option<Vec<usize>> {
            while let Some((pick, options)) = self.taken.pop() {
                if pick + 1 < options {
                    let mut script: Vec<usize> = self.taken.iter().map(|&(p, _)| p).collect();
                    script.push(pick + 1);
                    return Some(script);
                }
            }
            None
        }
    }

    /// A backend whose cars hold their consumers, as the MPI driver's do, and
    /// which lets a [`Walk`] choose which launched task reports next:
    /// - one on a node `invalidate_node` killed, at any time — its
    ///   completion is stale;
    /// - one that reads what a task on a node killed meanwhile wrote, or held
    ///   by a car that failed, failing with that node's failure, as it comes
    ///   down the push it claims or the pull it posted;
    /// - any other once each of its predecessors retired or completed after
    ///   holding it (the bytes of that attempt are on its worker);
    /// - a reply of a car launched on a live node never before those of the
    ///   cars that held it, as the driver parks it.
    ///
    /// A car launched on a dead node holds nothing. A task's buffer dies
    /// with its node until one of its consumers retired: the task is then
    /// the lineage the core re-executes. At every launch it checks the one
    /// dispatch rule from outside: each predecessor retired, or is a car in
    /// flight on a live node that holds the task through flow dependences.
    struct Walker<'w> {
        walk: &'w mut Walk,
        dag: &'w RegionGraph,
        running: Vec<usize>,
        node: Vec<NodeId>,
        /// Per task, the cars in flight that held it at its launch.
        held_by: Vec<Vec<usize>>,
        /// Per task, the dead node whose failure comes down its claim.
        doomed: Vec<Option<NodeId>>,
        retired: Vec<bool>,
        dead: Vec<NodeId>,
    }

    impl<'w> Walker<'w> {
        fn new(walk: &'w mut Walk, dag: &'w RegionGraph) -> Self {
            let total = dag.len();
            Self {
                walk,
                dag,
                running: Vec::new(),
                node: vec![HEAD_NODE; total],
                held_by: vec![Vec::new(); total],
                doomed: vec![None; total],
                retired: vec![false; total],
                dead: Vec::new(),
            }
        }

        fn preds(&self, task: usize) -> impl Iterator<Item = usize> + '_ {
            self.dag.predecessors(TaskId(task)).iter().map(|p| p.0)
        }

        fn may_report(&self, task: usize) -> bool {
            let stale = self.dead.contains(&self.node[task]) || self.doomed[task].is_some();
            let held_by = &self.held_by[task];
            let parked = held_by.iter().any(|p| self.running.contains(p));
            let fed = |p: usize| self.retired[p] || held_by.contains(&p);
            !parked && (stale || self.preds(task).all(fed))
        }

        /// `car` did not complete on a live node: each task it holds gets
        /// `dead`'s failure.
        fn doom_held_by(&mut self, car: usize, dead: NodeId) {
            for &task in &self.running {
                if self.held_by[task].contains(&car) {
                    self.doomed[task] = Some(dead);
                }
            }
        }
    }

    impl ExecutionBackend for Walker<'_> {
        fn assign(&mut self, _: &[NodeId]) {}

        fn launch(&mut self, task: usize, node: NodeId) -> OmpcResult<()> {
            for pred in self.preds(task) {
                let holds = self.running.contains(&pred)
                    && !self.dead.contains(&self.node[pred])
                    && self.dag.may_wait_on_worker(pred, task);
                assert!(self.retired[pred] || holds, "task {task} dispatched before {pred}");
            }
            let held_by: Vec<usize> =
                self.preds(task).filter(|p| self.running.contains(p)).collect();
            // A task launched onto a dead node answers at once, unparked.
            self.held_by[task] = if self.dead.contains(&node) { Vec::new() } else { held_by };
            (self.node[task], self.doomed[task]) = (node, None);
            self.running.push(task);
            Ok(())
        }
        fn holds_car(&self, task: usize) -> bool {
            !self.dead.contains(&self.node[task])
        }
        fn await_completions(&mut self, events: &mut Vec<TaskEvent>) -> OmpcResult<()> {
            let options: Vec<usize> =
                self.running.iter().copied().filter(|&t| self.may_report(t)).collect();
            if options.is_empty() {
                return Ok(());
            }
            let task = options[self.walk.choose(options.len())];
            self.running.retain(|&t| t != task);
            let node = self.node[task];
            let failed = match self.doomed[task] {
                _ if self.dead.contains(&node) => Some(node),
                doomed => doomed,
            };
            match failed {
                Some(dead) => self.doom_held_by(task, dead),
                None => self.retired[task] = true,
            }
            events.push(match self.doomed[task] {
                Some(dead) if failed != Some(node) => {
                    TaskEvent::Failed { task, error: OmpcError::NodeFailure(dead) }
                }
                _ => TaskEvent::Completed(task),
            });
            Ok(())
        }
        fn invalidate_node(&mut self, node: NodeId) -> Vec<LostBuffer> {
            self.dead.push(node);
            for at in 0..self.running.len() {
                let task = self.running[at];
                if self.preds(task).any(|p| self.node[p] == node) {
                    self.doomed[task] = Some(node);
                }
            }
            let dag = self.dag;
            let lost: Vec<usize> = (0..dag.len())
                .filter(|&t| self.retired[t] && self.node[t] == node)
                .filter(|&t| !dag.successors(TaskId(t)).iter().any(|s| self.retired[s.0]))
                .collect();
            for &task in &lost {
                self.retired[task] = false;
            }
            let buffer = |task| LostBuffer { buffer: BufferId(task as u64), writers: vec![task] };
            lost.into_iter().map(buffer).collect()
        }
    }

    /// Walk the core over every order a [`Walker`] may report `region`'s
    /// completions in, for every placement of its first `targets` tasks on
    /// two workers (the rest run on the head), at windows 2, 3 and 8, with no
    /// death or with a worker dying after each of its retirements. Every path
    /// retires every task, its first and its last retirements in dependence
    /// order, and every blocker count equals a recount after every event
    /// ([`RuntimeCore::assert_counted`]). Returns how many paths it walked,
    /// and through how many declared deaths.
    fn walk_every_order(region: &RegionGraph, targets: usize) -> (usize, usize) {
        let edges: Vec<(usize, usize)> =
            (0..region.len()).flat_map(|t| region.successor_ids(t).map(move |s| (t, s))).collect();
        let (mut paths, mut deaths) = (0, 0);
        for placement in 0..1usize << targets {
            let assignment: Vec<NodeId> = (0..region.len())
                .map(|t| if t < targets { 1 + (placement >> t & 1) } else { HEAD_NODE })
                .collect();
            let on = |node| assignment.iter().filter(|&&n| n == node).count();
            let deaths_after = [1, 2].into_iter().flat_map(|node| {
                (1..=on(node)).map(move |k| FaultPlan::none().fail_after_completions(node, k))
            });
            for faults in std::iter::once(FaultPlan::none()).chain(deaths_after) {
                for window in [2, 3, 8] {
                    let plan = RuntimePlan { assignment: assignment.clone(), window };
                    let mut script = Some(Vec::new());
                    while let Some(fixed) = script {
                        let mut walk = Walk { script: fixed, taken: Vec::new() };
                        let mut core = match FaultState::from_config(&faults, 2).unwrap() {
                            Some(state) => RuntimeCore::with_faults(region, &plan, state),
                            None => RuntimeCore::new(region, &plan),
                        };
                        let result = core.execute(&mut Walker::new(&mut walk, region));
                        let record = core.record();
                        let path = format!("{assignment:?} {window} {faults:?} {:?}", walk.taken);
                        assert_eq!(result, Ok(()), "{path}");
                        assert_eq!(core.completed(), region.len(), "{path}");
                        let order = &record.completion_order;
                        let first = |t: usize| order.iter().position(|&x| x == t);
                        let last = |t: usize| order.iter().rposition(|&x| x == t);
                        let ordered = |at: &dyn Fn(usize) -> Option<usize>| {
                            edges.iter().all(|&(p, s)| at(p) < at(s))
                        };
                        assert!(ordered(&first) && ordered(&last), "{record:?} {path}");
                        paths += 1;
                        deaths += usize::from(!record.failures.is_empty());
                        script = walk.next();
                    }
                }
            }
        }
        (paths, deaths)
    }

    /// The core walked over a region of four target tasks and a host sink:
    /// P writes `a`, C reads it (a flow edge a car holds) and `c`, W then
    /// writes `c` (an anti edge), X is unrelated, and the sink reads all
    /// three buffers.
    #[test]
    fn the_core_retires_every_task_in_every_order_a_holding_backend_reports() {
        use crate::types::{Dependence, KernelId};
        let (a, c, d) = (BufferId(0), BufferId(1), BufferId(2));
        let target = || TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 };
        let mut region = RegionGraph::new();
        region.add_task(target(), vec![Dependence::output(a)], "P");
        region.add_task(target(), vec![Dependence::input(a), Dependence::input(c)], "C");
        region.add_task(target(), vec![Dependence::output(c)], "W");
        region.add_task(target(), vec![Dependence::output(d)], "X");
        let sink = vec![Dependence::input(a), Dependence::input(c), Dependence::input(d)];
        region.add_task(TaskKind::Host { cost_hint: 0.0 }, sink, "H");
        let edges: Vec<(usize, usize, bool)> = (0..5)
            .flat_map(|t| region.successor_ids(t).map(move |s| (t, s)))
            .map(|(t, s)| (t, s, region.may_wait_on_worker(t, s)))
            .collect();
        let expected = [(0, 1, true), (0, 4, false), (1, 2, false), (2, 4, false), (3, 4, false)];
        assert_eq!(edges, expected, "one flow edge a car holds, one anti edge, a sink");
        let (paths, deaths) = walk_every_order(&region, 4);
        assert!(paths > 10_000 && deaths > 0, "{paths} paths, {deaths} through a death");
    }

    /// The same walk over a chain of held cars — P writes `a`, C reads it and
    /// writes `b`, D reads `b` — an unrelated X, whose retirement can kill a
    /// node while P runs there, and a host sink: a consumer whose own car
    /// holds a consumer can be restarted, and the one it held blocked again.
    #[test]
    fn the_core_retires_a_chain_of_held_cars_in_every_order() {
        use crate::types::{Dependence, KernelId};
        let [a, b, e, x] = [0, 1, 2, 3].map(BufferId);
        let target = || TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 };
        let mut region = RegionGraph::new();
        region.add_task(target(), vec![Dependence::output(a)], "P");
        region.add_task(target(), vec![Dependence::input(a), Dependence::output(b)], "C");
        region.add_task(target(), vec![Dependence::input(b), Dependence::output(e)], "D");
        region.add_task(target(), vec![Dependence::output(x)], "X");
        let sink = vec![Dependence::input(e), Dependence::input(x)];
        region.add_task(TaskKind::Host { cost_hint: 0.0 }, sink, "H");
        assert!(region.may_wait_on_worker(0, 1) && region.may_wait_on_worker(1, 2));
        let (paths, deaths) = walk_every_order(&region, 4);
        assert!(paths > 1_000 && deaths > 0, "{paths} paths, {deaths} through a death");
    }

    /// Whether `order` lists every task after its predecessors.
    fn is_topological_in(order: &[usize], region: &RegionGraph) -> bool {
        let at = |t: usize| order.iter().position(|&x| x == t);
        (0..region.len()).all(|t| region.predecessors(TaskId(t)).iter().all(|p| at(p.0) < at(t)))
    }

    #[test]
    fn region_graph_and_task_graph_views_agree() {
        use crate::types::{BufferId, Dependence, KernelId};
        let mut region = RegionGraph::new();
        let a = BufferId(0);
        region.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 1.0 },
            vec![Dependence::output(a)],
            "p",
        );
        region.add_task(
            TaskKind::Target { kernel: KernelId(1), cost_hint: 1.0 },
            vec![Dependence::input(a)],
            "c",
        );
        assert_eq!(region.task_count(), 2);
        assert!(region.may_wait_on_worker(0, 1), "a target reader of a target write");
        assert_eq!(region.successor_ids(0).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn plan_for_region_pins_data_and_host_tasks() {
        use crate::types::Dependence;
        let buffers = BufferRegistry::new();
        let a = buffers.register(vec![0u8; 64]);
        let mut region = RegionGraph::new();
        let enter = region.add_task(
            TaskKind::EnterData { buffer: a, map: crate::types::MapType::To },
            vec![Dependence::output(a)],
            "enter",
        );
        let target = region.add_task(
            TaskKind::Target { kernel: crate::types::KernelId(0), cost_hint: 0.5 },
            vec![Dependence::inout(a)],
            "k",
        );
        let host =
            region.add_task(TaskKind::Host { cost_hint: 0.1 }, vec![Dependence::input(a)], "h");
        let exit = region.add_task(
            TaskKind::ExitData { buffer: a, map: crate::types::MapType::From },
            vec![Dependence::inout(a)],
            "exit",
        );
        let assignment =
            plan_region(&region, &buffers, &OmpcConfig::small(), &[1, 2, 3], &ResidencyMap::new());
        assert_eq!(assignment[enter.0], assignment[target.0]);
        assert_eq!(assignment[exit.0], assignment[target.0]);
        assert_eq!(assignment[host.0], HEAD_NODE);
        assert!(assignment[target.0] >= 1);
    }

    #[test]
    fn exit_data_follows_the_last_target_predecessor() {
        use crate::types::{Dependence, KernelId, MapType};
        let buffers = BufferRegistry::new();
        let a = buffers.register(vec![0u8; 64]);
        let mut region = RegionGraph::new();
        region.add_task(
            TaskKind::EnterData { buffer: a, map: MapType::To },
            vec![Dependence::output(a)],
            "enter",
        );
        let first = region.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 0.5 },
            vec![Dependence::inout(a)],
            "first",
        );
        let last = region.add_task(
            TaskKind::Target { kernel: KernelId(1), cost_hint: 0.5 },
            vec![Dependence::inout(a)],
            "last",
        );
        let exit = region.add_task(
            TaskKind::ExitData { buffer: a, map: MapType::From },
            vec![Dependence::inout(a)],
            "exit",
        );
        // Round-robin placement forces the two producers apart, so "first"
        // and "last" predecessor pinning genuinely differ.
        let config = OmpcConfig {
            scheduler: crate::config::SchedulerKind::RoundRobin,
            ..OmpcConfig::small()
        };
        let assignment = plan_region(&region, &buffers, &config, &[1, 2], &ResidencyMap::new());
        assert_ne!(
            assignment[first.0], assignment[last.0],
            "test needs the producers on different nodes"
        );
        assert_eq!(
            assignment[exit.0], assignment[last.0],
            "exit data must follow the last target predecessor"
        );
    }

    #[test]
    fn residency_pins_data_tasks_with_no_region_producer_or_consumer() {
        use crate::types::{Dependence, MapType};
        let buffers = BufferRegistry::new();
        let a = buffers.register(vec![0u8; 64]);
        // A flush-only region: one exit-data task, no target tasks — the
        // version being flushed is resident from an earlier region.
        let mut flush = RegionGraph::new();
        let exit = flush.add_task(
            TaskKind::ExitData { buffer: a, map: MapType::From },
            vec![Dependence::inout(a)],
            "flush",
        );
        // And a prefetch-only region: one enter-data task, no consumer.
        let mut prefetch = RegionGraph::new();
        let enter = prefetch.add_task(
            TaskKind::EnterData { buffer: a, map: MapType::ToResident },
            vec![Dependence::output(a)],
            "enter",
        );
        let config = OmpcConfig::small();
        let nodes: Vec<NodeId> = vec![1, 2, 3];
        let residency: ResidencyMap = [(a, 3)].into_iter().collect();
        let flush_assignment = plan_region(&flush, &buffers, &config, &nodes, &residency);
        assert_eq!(flush_assignment[exit.0], 3, "the exit must follow the resident holder");
        let enter_assignment = plan_region(&prefetch, &buffers, &config, &nodes, &residency);
        assert_eq!(enter_assignment[enter.0], 3, "the re-enter must stay where the data is");
        // A holder outside the planned node set falls back to the
        // scheduler's placement instead of pinning to an excluded node.
        let survivors: Vec<NodeId> = vec![1, 2];
        let degraded = plan_region(&flush, &buffers, &config, &survivors, &residency);
        assert!(survivors.contains(&degraded[exit.0]));
        // With no residency the pinning rules are unchanged.
        let plain = plan_region(&flush, &buffers, &config, &nodes, &ResidencyMap::new());
        assert!(nodes.contains(&plain[exit.0]));
    }

    #[test]
    fn run_record_transfer_helpers_aggregate_the_log() {
        use crate::data_manager::{TransferReason, TransferRecord};
        let record = RunRecord {
            transfers: vec![
                TransferRecord {
                    buffer: BufferId(0),
                    from: HEAD_NODE,
                    to: 1,
                    bytes: 100,
                    reason: TransferReason::EnterData,
                },
                TransferRecord {
                    buffer: BufferId(0),
                    from: 1,
                    to: 2,
                    bytes: 100,
                    reason: TransferReason::Input,
                },
                TransferRecord {
                    buffer: BufferId(1),
                    from: 2,
                    to: HEAD_NODE,
                    bytes: 8,
                    reason: TransferReason::Retrieve,
                },
            ],
            ..RunRecord::default()
        };
        assert_eq!(record.transfer_count(), 3);
        assert_eq!(record.transfer_bytes(), 208);
        assert_eq!(record.buffer_transfers(BufferId(0)).len(), 2);
        assert_eq!(record.buffer_transfers(BufferId(9)).len(), 0);
        assert_eq!(record.transfers_with_reason(TransferReason::Input).len(), 1);
        assert_eq!(record.transfers_with_reason(TransferReason::Retrieve)[0].to, HEAD_NODE);
    }

    /// A deterministic fault-injection harness over the LIFO backend: node
    /// data is tracked well enough to exercise lineage (every task's output
    /// "lives" on the node that ran it).
    #[derive(Default)]
    struct FaultyStackBackend {
        inner: StackBackend,
        ran_on: std::collections::HashMap<usize, NodeId>,
        invalidated: Vec<NodeId>,
    }

    impl ExecutionBackend for FaultyStackBackend {
        fn assign(&mut self, _: &[NodeId]) {}

        fn launch(&mut self, task: usize, node: NodeId) -> OmpcResult<()> {
            self.ran_on.insert(task, node);
            self.inner.launch(task, node)
        }
        fn await_completions(&mut self, events: &mut Vec<TaskEvent>) -> OmpcResult<()> {
            self.inner.await_completions(events)
        }
        fn invalidate_node(&mut self, node: NodeId) -> Vec<LostBuffer> {
            self.invalidated.push(node);
            // Every task that ran (only) on the dead node loses its output.
            let mut lost: Vec<LostBuffer> = self
                .ran_on
                .iter()
                .filter(|&(_, &n)| n == node)
                .map(|(&t, _)| LostBuffer {
                    buffer: crate::types::BufferId(t as u64),
                    writers: vec![t],
                })
                .collect();
            lost.sort_by_key(|l| l.buffer);
            lost
        }
    }

    #[test]
    fn injected_failure_recovers_onto_survivors() {
        // A chain of 6 tasks, first half on node 1, second half on node 2;
        // node 1 dies right after its second retirement.
        let mut g = TaskGraph::new();
        for _ in 0..6 {
            g.add_task(1.0);
        }
        for t in 1..6 {
            g.add_edge(t - 1, t, 64);
        }
        let w = WorkloadGraph::new(g, vec![64; 6]);
        let plan = RuntimePlan { assignment: vec![1, 1, 1, 2, 2, 2], window: 1 };
        let fault_plan = FaultPlan::none().fail_after_completions(1, 2);
        let faults = FaultState::from_config(&fault_plan, 2).unwrap().unwrap();
        let mut core = RuntimeCore::with_faults(&w, &plan, faults);
        let mut backend = FaultyStackBackend::default();
        core.execute(&mut backend).unwrap();
        let record = core.record();
        assert_eq!(backend.invalidated, vec![1]);
        assert_eq!(record.failures.len(), 1);
        assert_eq!(record.failures[0].node, 1);
        assert!(record.failures[0].detected_at > record.failures[0].silenced_at);
        // Tasks 0 and 1 completed on node 1 and lost their outputs with it.
        // Task 2 never re-executes: the lineage rebuild re-blocks it behind
        // task 1 before it can be dispatched to the dead node.
        assert_eq!(record.reexecuted, vec![0, 1]);
        // Everything that had to move went to node 2.
        assert!(record.replanned.iter().all(|r| r.from == 1 && r.to == 2));
        // Every task's final node is the survivor or its original node 2.
        assert!(record.assignment.iter().all(|&n| n == 2 || n == 1));
        // The last retirement of every task happened exactly once per task.
        let mut last_positions = std::collections::HashMap::new();
        for (i, &t) in record.completion_order.iter().enumerate() {
            last_positions.insert(t, i);
        }
        assert_eq!(last_positions.len(), 6);
        assert_eq!(core.completed(), 6);
    }

    /// A backend that fails a chosen task with a chosen error on its first
    /// attempt and completes everything (including the retry) otherwise.
    struct FailOnce {
        running: Vec<usize>,
        fail_task: usize,
        error: Option<OmpcError>,
    }

    impl ExecutionBackend for FailOnce {
        fn assign(&mut self, _: &[NodeId]) {}

        fn launch(&mut self, task: usize, _node: NodeId) -> OmpcResult<()> {
            self.running.push(task);
            Ok(())
        }
        fn await_completions(&mut self, events: &mut Vec<TaskEvent>) -> OmpcResult<()> {
            let Some(task) = self.running.pop() else { return Ok(()) };
            let error = if task == self.fail_task { self.error.take() } else { None };
            events.push(match error {
                Some(error) => TaskEvent::Failed { task, error },
                None => TaskEvent::Completed(task),
            });
            Ok(())
        }
    }

    #[test]
    fn unattributed_task_failure_propagates() {
        let w = diamond();
        let mut core = RuntimeCore::new(&w, &plan_with_window(&w, 1));
        let remote = OmpcError::RemoteEvent {
            node: 1,
            event: 9,
            error: Box::new(OmpcError::UnknownKernel(crate::types::KernelId(42))),
        };
        let mut backend =
            FailOnce { running: Vec::new(), fail_task: 2, error: Some(remote.clone()) };
        let err = core.execute(&mut backend).unwrap_err();
        assert_eq!(err, remote, "the typed error reply must propagate unchanged");
        // The record still shows the completions that happened first.
        let record = core.record();
        assert!(record.completion_order.len() < 4);
        assert!(!record.completion_order.contains(&2));
    }

    #[test]
    fn failure_blamed_on_a_dead_node_restarts_the_task() {
        // Node 1 dies after its first retirement. Task 1's execution then
        // fails with an error *originating from* node 1 even though it ran
        // on node 2 (a refused event from the dead peer): the failure is
        // stale and the task restarts instead of aborting the run.
        let mut g = TaskGraph::new();
        for _ in 0..3 {
            g.add_task(1.0);
        }
        for t in 1..3 {
            g.add_edge(t - 1, t, 8);
        }
        let w = WorkloadGraph::new(g, vec![8; 3]);
        let plan = RuntimePlan { assignment: vec![1, 2, 2], window: 1 };
        let fault_plan = FaultPlan::none().fail_after_completions(1, 1);
        let faults = FaultState::from_config(&fault_plan, 2).unwrap().unwrap();
        let mut core = RuntimeCore::with_faults(&w, &plan, faults);
        let remote = OmpcError::RemoteEvent {
            node: 1,
            event: 17,
            error: Box::new(OmpcError::NodeFailure(1)),
        };
        let mut backend = FailOnce { running: Vec::new(), fail_task: 1, error: Some(remote) };
        core.execute(&mut backend).unwrap();
        let record = core.record();
        assert!(record.reexecuted.contains(&1), "the blamed-dead failure must requeue task 1");
        assert_eq!(core.completed(), 3);
    }

    #[test]
    fn failure_with_no_survivors_is_an_error() {
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add_task(1.0);
        }
        for t in 1..4 {
            g.add_edge(t - 1, t, 8);
        }
        let w = WorkloadGraph::new(g, vec![8; 4]);
        let plan = RuntimePlan { assignment: vec![1; 4], window: 1 };
        let fault_plan = FaultPlan::none().fail_after_completions(1, 1);
        let faults = FaultState::from_config(&fault_plan, 1).unwrap().unwrap();
        let mut core = RuntimeCore::with_faults(&w, &plan, faults);
        let err = core.execute(&mut FaultyStackBackend::default()).unwrap_err();
        assert_eq!(err, OmpcError::NodeFailure(1));
    }
}
