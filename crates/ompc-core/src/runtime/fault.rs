//! The fault-tolerance subsystem of the unified execution core
//! (paper §3.1).
//!
//! Four pieces cooperate, all of them driven from inside
//! [`super::RuntimeCore`]'s dispatch loop rather than out-of-band:
//!
//! * **Injection** — a deterministic, seeded-workload-friendly
//!   [`FailureInjector`] consumes a [`FaultPlan`] from
//!   [`crate::config::OmpcConfig::fault_plan`]: *fail node N once the fault
//!   clock reaches T milliseconds* or *fail node N right after its K-th
//!   task retirement*. Because `AfterCompletions` triggers are evaluated at
//!   an exact position in the task-completion stream, both execution
//!   backends kill the node at the same protocol point and recover the same
//!   tasks.
//! * **Detection** — the ring-topology [`crate::heartbeat::HeartbeatMonitor`]
//!   is fed by the dispatch loop: every dispatch round, each node that the
//!   injector has not silenced beats; a silenced node misses its beats and
//!   is declared failed after [`HEARTBEAT_MISS_THRESHOLD`] periods. The
//!   fault clock is virtual time in the simulated backend and a logical
//!   clock advanced one [`HEARTBEAT_PERIOD_MS`] per round in the real
//!   backends.
//! * **Recovery** — between injection and declaration the dead node
//!   completes nothing: the [`crate::data_manager::DataManager`] discards
//!   its copies and writes immediately ([`LostBuffer`] lineage), and the
//!   core requeues every task the backend reports from the dead node. Once
//!   the monitor declares the failure, the affected tasks are replanned
//!   onto survivors — round-robin via [`crate::heartbeat::plan_recovery`],
//!   or a full re-run of the static scheduler over the shrunken platform
//!   when [`crate::config::OmpcConfig::replan_on_failure`] is set.
//! * **Observability** — every failure leaves a [`FailureRecord`] (and the
//!   re-executed / replanned task sets) in [`super::RunRecord`], from which
//!   `ompc-bench` derives the fault-overhead figure.
//!
//! Failures are modelled at the protocol layer: a "dead" node stops
//! heart-beating and is excommunicated from the data manager, but the OS
//! thread (or simulated resource) backing it keeps draining events — their
//! effects are discarded. This keeps injection deterministic and both
//! backends byte-for-byte comparable.

use crate::heartbeat::{HeartbeatMonitor, Millis};
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use std::collections::{BTreeMap, BTreeSet};

/// Ring-heartbeat period in milliseconds (paper §3.1).
pub const HEARTBEAT_PERIOD_MS: Millis = 10;
/// Consecutive missed heartbeat periods after which a silent node is
/// declared failed.
pub const HEARTBEAT_MISS_THRESHOLD: u32 = 3;

/// When an injected failure takes effect.
///
/// ```
/// use ompc_core::runtime::{FaultPlan, FaultTrigger};
///
/// let plan = FaultPlan::none()
///     .fail_after_completions(1, 3) // node 1 dies after its 3rd retirement
///     .fail_at_millis(2, 50) // node 2 dies at fault-clock 50 ms
///     .fail_at_wall_millis(3, 10_000); // node 3 dies 10 s into the run
/// assert_eq!(plan.events.len(), 3);
/// assert!(matches!(plan.events[2].trigger, FaultTrigger::AtWallMillis(10_000)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// The node dies once the fault clock reaches this many milliseconds
    /// (virtual time in the simulated backend, the logical dispatch clock
    /// on the real cluster).
    AtMillis(Millis),
    /// The node dies immediately after its K-th task retirement — the
    /// trigger to use when every backend must fail at the identical point
    /// of the completion stream.
    ///
    /// Only **first-attempt** retirements advance this trigger's clock.
    /// Recovery re-executions — lineage producers un-retired after a node
    /// death, and in-flight tasks restarted on a survivor — retire again,
    /// but those retirements are *recovery work*, not progress of the
    /// original completion stream: counting them would let one injected
    /// failure push a survivor past its own trigger and turn a
    /// one-failure plan into a cascade whose shape depends on where
    /// recovery happened to land. The execution core therefore skips the
    /// injector's retirement accounting for any task in its re-executed
    /// set, which keeps `AfterCompletions` positions identical across all
    /// execution backends even when recovery timing differs.
    AfterCompletions(usize),
    /// The node dies once this much *real* (wall-clock) time has elapsed
    /// since the run started — the trigger soak tests use to inject
    /// failures by elapsed time regardless of how the fault clock advances.
    /// Inherently non-deterministic with respect to the completion stream;
    /// prefer the other triggers when both backends must fail at the same
    /// protocol point.
    AtWallMillis(Millis),
}

/// One injected failure: a worker node and its trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The worker node that dies (`1..=num_workers`; the head node cannot
    /// fail).
    pub node: NodeId,
    /// When it dies.
    pub trigger: FaultTrigger,
}

/// A deterministic failure-injection plan, configured through
/// [`crate::config::OmpcConfig::fault_plan`]. An empty plan (the default)
/// disables the fault subsystem entirely.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The injected node failures, in configuration order.
    pub events: Vec<FaultEvent>,
    /// Tasks whose execution is forced to fail at the protocol layer: the
    /// real cluster executes them against a deliberately unregistered
    /// kernel (a genuine worker-side handler error travelling back through
    /// the event-reply channel), the simulated backend models the same
    /// failed reply. Used to test the error-reply path deterministically
    /// in both backends.
    pub task_errors: Vec<usize>,
}

impl FaultPlan {
    /// A plan with no failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects no *node* failures (task-error injection
    /// does not involve the heartbeat/recovery subsystem).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Add a failure of `node` at fault-clock time `millis`.
    pub fn fail_at_millis(mut self, node: NodeId, millis: Millis) -> Self {
        self.events.push(FaultEvent { node, trigger: FaultTrigger::AtMillis(millis) });
        self
    }

    /// Add a failure of `node` once `millis` of real (wall-clock) time have
    /// elapsed since the run started — for soak tests that inject failures
    /// by elapsed time.
    pub fn fail_at_wall_millis(mut self, node: NodeId, millis: Millis) -> Self {
        self.events.push(FaultEvent { node, trigger: FaultTrigger::AtWallMillis(millis) });
        self
    }

    /// Add a failure of `node` right after its `completions`-th task
    /// retirement.
    pub fn fail_after_completions(mut self, node: NodeId, completions: usize) -> Self {
        self.events.push(FaultEvent { node, trigger: FaultTrigger::AfterCompletions(completions) });
        self
    }

    /// Force `task`'s execution to fail at the protocol layer (an injected
    /// worker-side handler error). Both backends propagate the same
    /// `RemoteEvent { node, error: UnknownKernel, .. }`; only the `event`
    /// id is backend-specific (the real wire tag on the cluster,
    /// the task index in the simulated one) — compare errors across
    /// backends via `origin_node()` / `root_cause()`, not equality.
    pub fn error_on_task(mut self, task: usize) -> Self {
        self.task_errors.push(task);
        self
    }

    /// Whether `task` is marked for an injected execution error.
    pub fn has_task_error(&self, task: usize) -> bool {
        self.task_errors.contains(&task)
    }

    /// Check the injected task errors against a graph of `total_tasks`
    /// tasks: a typo'd task index must be rejected up front, not silently
    /// degrade the plan to a no-op. Called by both backends at execution
    /// time (only then is the graph size known).
    pub fn validate_task_errors(&self, total_tasks: usize) -> OmpcResult<()> {
        for &task in &self.task_errors {
            if task >= total_tasks {
                return Err(OmpcError::InvalidConfig(format!(
                    "fault plan injects an error into task {task} but the graph has only \
                     {total_tasks} task(s)"
                )));
            }
        }
        Ok(())
    }

    /// Check the plan against a cluster of `num_workers` worker nodes.
    pub fn validate(&self, num_workers: usize) -> OmpcResult<()> {
        for event in &self.events {
            if event.node < 1 || event.node > num_workers {
                return Err(OmpcError::InvalidConfig(format!(
                    "fault plan names node {} but the cluster has worker nodes 1..={num_workers} \
                     (the head node cannot fail)",
                    event.node
                )));
            }
        }
        Ok(())
    }
}

/// Evaluates a [`FaultPlan`] against the fault clock and the per-node
/// retirement counts, silencing each planned node exactly once.
#[derive(Debug, Clone)]
pub struct FailureInjector {
    pending: Vec<FaultEvent>,
    silenced: BTreeSet<NodeId>,
    retirements: Vec<usize>,
}

impl FailureInjector {
    /// Build an injector for a cluster of `nodes` nodes (head included).
    pub fn new(plan: &FaultPlan, nodes: usize) -> Self {
        Self {
            pending: plan.events.clone(),
            silenced: BTreeSet::new(),
            retirements: vec![0; nodes],
        }
    }

    /// Whether the injector has silenced `node`.
    pub fn is_silenced(&self, node: NodeId) -> bool {
        self.silenced.contains(&node)
    }

    /// Silence `node` without any trigger firing — used to carry a failure
    /// declared in an earlier region execution into a fresh injector, so
    /// the node is never again counted among the survivors.
    pub fn silence(&mut self, node: NodeId) {
        self.silenced.insert(node);
    }

    /// Record a task retirement on `node`; returns the nodes (possibly
    /// `node` itself) whose `AfterCompletions` trigger just fired.
    pub fn note_retirement(&mut self, node: NodeId) -> Vec<NodeId> {
        if let Some(count) = self.retirements.get_mut(node) {
            *count += 1;
        }
        let retirements = &self.retirements;
        let silenced = &mut self.silenced;
        let mut fired = Vec::new();
        self.pending.retain(|event| match event.trigger {
            FaultTrigger::AfterCompletions(k)
                if retirements.get(event.node).is_some_and(|&c| c >= k) =>
            {
                if silenced.insert(event.node) {
                    fired.push(event.node);
                }
                false
            }
            _ => true,
        });
        fired
    }

    /// Advance the fault clock to `now`; returns the nodes whose `AtMillis`
    /// trigger just fired.
    pub fn advance_clock(&mut self, now: Millis) -> Vec<NodeId> {
        let silenced = &mut self.silenced;
        let mut fired = Vec::new();
        self.pending.retain(|event| match event.trigger {
            FaultTrigger::AtMillis(t) if now >= t => {
                if silenced.insert(event.node) {
                    fired.push(event.node);
                }
                false
            }
            _ => true,
        });
        fired
    }

    /// Report that `elapsed` milliseconds of real time have passed since
    /// the run started; returns the nodes whose `AtWallMillis` trigger
    /// just fired.
    pub fn advance_wall_clock(&mut self, elapsed: Millis) -> Vec<NodeId> {
        let silenced = &mut self.silenced;
        let mut fired = Vec::new();
        self.pending.retain(|event| match event.trigger {
            FaultTrigger::AtWallMillis(t) if elapsed >= t => {
                if silenced.insert(event.node) {
                    fired.push(event.node);
                }
                false
            }
            _ => true,
        });
        fired
    }
}

/// A buffer whose last valid copy died with a node, as reported by a
/// backend's `invalidate_node`: the tasks that write it (in dependence
/// order) are the lineage the core re-executes to regenerate the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostBuffer {
    /// The buffer whose data was lost.
    pub buffer: BufferId,
    /// Every task of the graph that writes the buffer, in graph order.
    pub writers: Vec<usize>,
}

/// One declared node failure, as recorded in [`super::RunRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// The node that failed.
    pub node: NodeId,
    /// Fault-clock time (ms) at which the injector silenced the node.
    pub silenced_at: Millis,
    /// Fault-clock time (ms) at which the heartbeat monitor declared it.
    pub detected_at: Millis,
    /// Number of buffers whose only valid copy died with the node.
    pub lost_buffers: usize,
    /// Number of completed tasks un-retired for lineage re-execution.
    pub lineage_tasks: usize,
}

impl FailureRecord {
    /// Detection latency in fault-clock milliseconds (silencing to
    /// declaration).
    pub fn detection_latency(&self) -> Millis {
        self.detected_at.saturating_sub(self.silenced_at)
    }
}

/// One task reassigned during recovery. The round-robin fast path only
/// moves tasks off the failed node; a full re-schedule
/// ([`crate::config::OmpcConfig::replan_on_failure`]) may also move
/// pending tasks between surviving nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplanEntry {
    /// The task that moved.
    pub task: usize,
    /// The node it was assigned to before recovery.
    pub from: NodeId,
    /// The surviving node it moved to.
    pub to: NodeId,
}

/// The runtime state of the fault subsystem inside one
/// [`super::RuntimeCore`] execution.
#[derive(Debug)]
pub struct FaultState {
    pub(crate) injector: FailureInjector,
    pub(crate) monitor: HeartbeatMonitor,
    clock: Millis,
    num_workers: usize,
    pub(crate) replan_on_failure: bool,
    /// Real-time epoch of the run, for [`FaultTrigger::AtWallMillis`].
    wall_start: std::time::Instant,
    /// Nodes the injector has silenced (dead, possibly not yet declared).
    silenced_at: BTreeMap<NodeId, Millis>,
    /// Nodes the monitor has declared failed.
    declared: BTreeSet<NodeId>,
}

impl FaultState {
    /// Build the subsystem from the configured fault plan, or `None` when
    /// the plan is empty (the subsystem then stays entirely out of the
    /// dispatch loop).
    pub fn from_config(plan: &FaultPlan, num_workers: usize) -> OmpcResult<Option<Self>> {
        if plan.is_empty() {
            return Ok(None);
        }
        plan.validate(num_workers)?;
        let nodes = num_workers + 1;
        Ok(Some(Self {
            injector: FailureInjector::new(plan, nodes),
            monitor: HeartbeatMonitor::new(nodes, HEARTBEAT_PERIOD_MS, HEARTBEAT_MISS_THRESHOLD),
            clock: 0,
            num_workers,
            replan_on_failure: false,
            wall_start: std::time::Instant::now(),
            silenced_at: BTreeMap::new(),
            declared: BTreeSet::new(),
        }))
    }

    /// Enable full rescheduling over the survivors on recovery.
    pub fn with_replan(mut self, replan: bool) -> Self {
        self.replan_on_failure = replan;
        self
    }

    /// Seed the subsystem with nodes that already failed before this
    /// execution started (e.g. in an earlier region of the same device
    /// lifetime). They are silenced and pre-declared: excluded from
    /// [`FaultState::alive_workers`] — so recovery never resurrects them —
    /// and never re-declared to the core as a fresh failure.
    pub fn with_prior_failures(mut self, dead: &[NodeId]) -> Self {
        for &node in dead {
            self.injector.silence(node);
            self.declared.insert(node);
        }
        self
    }

    /// The current fault clock (ms).
    pub fn clock(&self) -> Millis {
        self.clock
    }

    /// Whether `node` is dead (silenced by the injector, declared or not).
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.injector.is_silenced(node)
    }

    /// Whether `node` has been declared failed by the monitor.
    pub fn is_declared(&self, node: NodeId) -> bool {
        self.declared.contains(&node)
    }

    /// Worker nodes not silenced by the injector, ascending.
    pub fn alive_workers(&self) -> Vec<NodeId> {
        (1..=self.num_workers).filter(|&n| !self.injector.is_silenced(n)).collect()
    }

    /// Record a retirement on `node` and return the nodes it just killed.
    pub(crate) fn note_retirement(&mut self, node: NodeId) -> Vec<NodeId> {
        let fired = self.injector.note_retirement(node);
        for &n in &fired {
            self.silenced_at.insert(n, self.clock);
        }
        fired
    }

    /// Advance the fault clock one dispatch round — to `backend_now` if the
    /// backend has a clock, by one heartbeat period otherwise — and return
    /// the nodes whose timed trigger (fault-clock or wall-clock) fired.
    pub(crate) fn advance_round(&mut self, backend_now: Option<Millis>) -> Vec<NodeId> {
        self.clock = match backend_now {
            Some(now) => now.max(self.clock),
            None => self.clock + HEARTBEAT_PERIOD_MS,
        };
        let mut fired = self.injector.advance_clock(self.clock);
        let wall_elapsed = self.wall_start.elapsed().as_millis() as Millis;
        fired.extend(self.injector.advance_wall_clock(wall_elapsed));
        for &n in &fired {
            self.silenced_at.insert(n, self.clock);
        }
        fired
    }

    /// Beat every node the injector has not silenced, then return the nodes
    /// the monitor newly declares failed.
    pub(crate) fn beat_and_check(&mut self) -> Vec<NodeId> {
        for node in 0..self.monitor.nodes() {
            if !self.injector.is_silenced(node) {
                self.monitor.record_heartbeat(node, self.clock);
            }
        }
        // `insert` returning false filters nodes pre-declared by
        // `with_prior_failures`: their (new) monitor entry goes silent from
        // round one, but their failure belongs to an earlier execution and
        // must not be re-declared to the core.
        let mut newly = self.monitor.check(self.clock);
        newly.retain(|&n| self.declared.insert(n));
        newly
    }

    /// Fault-clock time at which `node` was silenced (0 if unknown).
    pub(crate) fn silenced_at(&self, node: NodeId) -> Millis {
        self.silenced_at.get(&node).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_disables_the_subsystem() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultState::from_config(&FaultPlan::none(), 4).unwrap().is_none());
    }

    #[test]
    fn plan_validation_rejects_head_and_out_of_range_nodes() {
        let head = FaultPlan::none().fail_at_millis(0, 5);
        assert!(matches!(head.validate(4), Err(OmpcError::InvalidConfig(_))));
        let oob = FaultPlan::none().fail_after_completions(9, 1);
        assert!(matches!(oob.validate(4), Err(OmpcError::InvalidConfig(_))));
        let ok = FaultPlan::none().fail_at_millis(4, 5).fail_after_completions(1, 2);
        assert!(ok.validate(4).is_ok());
        assert!(FaultState::from_config(&ok, 4).unwrap().is_some());
    }

    #[test]
    fn completion_trigger_fires_exactly_after_the_kth_retirement() {
        let plan = FaultPlan::none().fail_after_completions(2, 3);
        let mut injector = FailureInjector::new(&plan, 4);
        assert!(injector.note_retirement(2).is_empty());
        assert!(injector.note_retirement(1).is_empty());
        assert!(injector.note_retirement(2).is_empty());
        assert_eq!(injector.note_retirement(2), vec![2]);
        assert!(injector.is_silenced(2));
        // Fires only once.
        assert!(injector.note_retirement(2).is_empty());
    }

    #[test]
    fn time_trigger_fires_when_the_clock_passes() {
        let plan = FaultPlan::none().fail_at_millis(1, 50).fail_at_millis(3, 120);
        let mut injector = FailureInjector::new(&plan, 4);
        assert!(injector.advance_clock(49).is_empty());
        assert_eq!(injector.advance_clock(60), vec![1]);
        assert_eq!(injector.advance_clock(500), vec![3]);
        assert!(injector.advance_clock(1000).is_empty());
    }

    #[test]
    fn wall_clock_trigger_fires_on_elapsed_real_time() {
        let plan = FaultPlan::none().fail_at_wall_millis(2, 5);
        let mut injector = FailureInjector::new(&plan, 4);
        assert!(injector.advance_wall_clock(4).is_empty());
        assert_eq!(injector.advance_wall_clock(5), vec![2]);
        assert!(injector.advance_wall_clock(100).is_empty(), "fires only once");
        // A wall trigger is untouched by fault-clock advances and vice
        // versa.
        let plan = FaultPlan::none().fail_at_wall_millis(1, 5).fail_at_millis(3, 5);
        let mut injector = FailureInjector::new(&plan, 4);
        assert_eq!(injector.advance_clock(10), vec![3]);
        assert_eq!(injector.advance_wall_clock(10), vec![1]);
    }

    #[test]
    fn wall_clock_trigger_fires_through_fault_state_rounds() {
        // An immediate wall trigger (0 ms) fires on the first round even
        // though the fault clock is still at its first period.
        let plan = FaultPlan::none().fail_at_wall_millis(1, 0);
        let mut state = FaultState::from_config(&plan, 2).unwrap().unwrap();
        let fired = state.advance_round(None);
        assert_eq!(fired, vec![1]);
        assert!(state.is_dead(1));
        assert_eq!(state.alive_workers(), vec![2]);
    }

    #[test]
    fn task_error_injection_is_recorded_in_the_plan() {
        let plan = FaultPlan::none().error_on_task(3).error_on_task(7);
        assert!(plan.has_task_error(3) && plan.has_task_error(7));
        assert!(!plan.has_task_error(4));
        // Task errors alone do not enable the node-failure subsystem.
        assert!(plan.is_empty());
        assert!(FaultState::from_config(&plan, 4).unwrap().is_none());
    }

    #[test]
    fn out_of_range_task_errors_are_rejected_not_ignored() {
        let plan = FaultPlan::none().error_on_task(3).error_on_task(7);
        assert!(plan.validate_task_errors(8).is_ok());
        let err = plan.validate_task_errors(4).unwrap_err();
        assert!(matches!(err, OmpcError::InvalidConfig(_)));
        assert!(err.to_string().contains("task 7"), "unclear message: {err}");
        assert!(FaultPlan::none().validate_task_errors(0).is_ok());
    }

    #[test]
    fn silenced_node_is_declared_after_missed_heartbeats() {
        let plan = FaultPlan::none().fail_after_completions(1, 1);
        let mut state = FaultState::from_config(&plan, 1).unwrap().unwrap();
        // Rounds before the failure: everyone beats, nothing declared.
        for _ in 0..3 {
            state.advance_round(None);
            assert!(state.beat_and_check().is_empty());
        }
        assert_eq!(state.note_retirement(1), vec![1]);
        assert!(state.is_dead(1) && !state.is_declared(1));
        assert_eq!(state.alive_workers(), Vec::<NodeId>::new());
        // The logical clock needs miss_threshold periods past the last beat.
        let mut declared = Vec::new();
        for _ in 0..6 {
            state.advance_round(None);
            declared.extend(state.beat_and_check());
        }
        assert_eq!(declared, vec![1]);
        assert!(state.is_declared(1));
        let latency = state.clock() - state.silenced_at(1);
        assert!(latency > 30, "declared only after the miss threshold, got {latency} ms");
    }

    #[test]
    fn prior_failures_are_silenced_but_never_redeclared() {
        // A node that died in an earlier region: excluded from the
        // survivors from round one, and never declared again even though
        // its (fresh) monitor entry goes silent immediately.
        let plan = FaultPlan::none().fail_after_completions(2, 1);
        let mut state =
            FaultState::from_config(&plan, 3).unwrap().unwrap().with_prior_failures(&[1]);
        assert!(state.is_dead(1) && state.is_declared(1));
        assert_eq!(state.alive_workers(), vec![2, 3]);
        let mut declared = Vec::new();
        for _ in 0..10 {
            state.advance_round(None);
            declared.extend(state.beat_and_check());
        }
        assert!(declared.is_empty(), "the prior failure must not be re-declared: {declared:?}");
        // A fresh trigger on a live node still fires and declares normally.
        assert_eq!(state.note_retirement(2), vec![2]);
        let mut declared = Vec::new();
        for _ in 0..10 {
            state.advance_round(None);
            declared.extend(state.beat_and_check());
        }
        assert_eq!(declared, vec![2]);
        assert_eq!(state.alive_workers(), vec![3]);
    }

    #[test]
    fn failure_record_reports_detection_latency() {
        let r = FailureRecord {
            node: 2,
            silenced_at: 40,
            detected_at: 75,
            lost_buffers: 1,
            lineage_tasks: 2,
        };
        assert_eq!(r.detection_latency(), 35);
    }
}
