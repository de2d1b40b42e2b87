//! The simulated execution backend: the OMPC protocol modelled over the
//! `ompc-sim` discrete-event engine.
//!
//! The backend models exactly what the real cluster does —
//! dispatch bookkeeping on the head node, input forwarding planned by the
//! same [`DataManager`] logic, per-event completion costs, sink retrieval
//! and shutdown — with compute durations and byte-transfer times supplied
//! by the virtual cluster. [`super::RuntimeCore`] makes every dispatch and window
//! decision, so the simulation reproduces the §7 head-node bottleneck when
//! (and only when) the configuration selects the legacy libomptarget-style
//! window.
//!
//! A producer **pushes** its output when it completes, by the lowering's
//! own rule of who pushes where; a consumer pulls the rest, concurrently —
//! or, under the two legacy ablations, everything.

use super::fault::LostBuffer;
use super::lowering::POISONED_KERNEL;
use super::push_targets;
use super::{ExecutionBackend, RuntimePlan, TaskEvent};
use crate::config::{OmpcConfig, OverheadModel};
use crate::data_manager::{
    Booking, DataManager, Owner, TransferReason, TransferRecord, HEAD_NODE, UNATTRIBUTED,
};
use crate::heartbeat::Millis;
use crate::model::WorkloadGraph;
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use ompc_sched::Platform;
use ompc_sim::{ClusterConfig, Completion, Engine, SimStats, SimTime, Token};
use std::collections::{HashMap, VecDeque};

const TOK_STARTUP: u64 = 1 << 48;
const TOK_SCHEDULE: u64 = 2 << 48;
const TOK_DISPATCH: u64 = 3 << 48;
const TOK_TRANSFER: u64 = 4 << 48;
const TOK_COMPUTE: u64 = 5 << 48;
const TOK_COMPLETE: u64 = 6 << 48;
const TOK_RETRIEVE: u64 = 7 << 48;
const TOK_SHUTDOWN: u64 = 8 << 48;
const TOK_STAGE: u64 = 9 << 48;
const TOK_PUSH: u64 = 10 << 48;
const TOK_MASK: u64 = (1 << 48) - 1;
/// Transfer-class tokens (`TOK_TRANSFER` / `TOK_STAGE`) carry both the
/// consumer task and the buffer that is moving, so an arrival can release
/// co-located waiters of that specific buffer (a `TOK_PUSH`: its node).
const TOK_TASK_SHIFT: u64 = 24;
const TOK_SUB_MASK: u64 = (1 << TOK_TASK_SHIFT) - 1;

fn transfer_token(kind: u64, task: usize, buffer: u64) -> Token {
    kind | ((task as u64) << TOK_TASK_SHIFT) | buffer
}

/// The communication model the static scheduler should assume for a
/// simulated cluster: per-message cost = latency + software overhead,
/// bandwidth as configured.
pub fn sim_platform(cluster: &ClusterConfig) -> Platform {
    network_platform(&cluster.network, cluster.worker_nodes().max(1))
}

/// [`sim_platform`] over an explicit processor count — the shrunken-
/// platform variant fault recovery reschedules on.
fn network_platform(network: &ompc_sim::NetworkConfig, procs: usize) -> Platform {
    Platform::homogeneous(
        procs,
        (network.latency + network.per_message_overhead).as_secs_f64(),
        network.bandwidth_bytes_per_sec,
    )
}

/// Executes a workload graph on the virtual cluster.
pub struct SimBackend<'w> {
    engine: Engine,
    workload: &'w WorkloadGraph,
    overheads: OverheadModel,
    /// Node each task executes on, as told by the core at `launch` time —
    /// the core's assignment is the single source of truth.
    node_of: Vec<NodeId>,
    /// The core's assignment, which decides where a producer pushes.
    assignment: Vec<NodeId>,
    /// Retained configuration, consulted by the fault-recovery `replan`
    /// hook (scheduler choice).
    config: OmpcConfig,
    /// Forwarding decisions, driven by the same data-manager logic as the
    /// real cluster; buffer `t` is task `t`'s output.
    dm: DataManager,
    pending_inputs: Vec<usize>,
    queued_inputs: Vec<VecDeque<(NodeId, u64, u64)>>,
    /// The co-located tasks waiting for a copy the data manager has booked
    /// as in flight, keyed by `(buffer, destination)`: a consumer whose
    /// shared input is already on the wire must not start computing until
    /// the bytes arrive — the simulated analogue of an `AwaitLocal` step.
    arrivals: HashMap<(u64, NodeId), Vec<usize>>,
    phase_done: bool,
    retrievals_pending: usize,
    schedule_time: SimTime,
}

impl<'w> SimBackend<'w> {
    /// Build a backend for one simulated run of `workload` over `cluster`.
    pub fn new(
        workload: &'w WorkloadGraph,
        cluster: &ClusterConfig,
        config: &OmpcConfig,
        overheads: OverheadModel,
    ) -> Self {
        let total = workload.len();
        assert!((total as u64) < TOK_SUB_MASK, "simulated workloads are limited to 2^24 tasks");
        let mut dm = DataManager::new();
        dm.begin_region();
        for t in 0..total {
            // Roots consume an input of their output size distributed from
            // the head node (enter data), so their buffer starts there.
            if workload.graph.predecessors(t).is_empty() && workload.output_bytes[t] > 0 {
                dm.register_host_buffer(BufferId(t as u64), workload.output_bytes[t]);
            }
        }
        let schedule_time = overheads.schedule_time(total, workload.graph.edges().len());
        Self {
            engine: Engine::new(cluster.clone()),
            workload,
            overheads,
            node_of: vec![HEAD_NODE; total],
            assignment: Vec::new(),
            config: config.clone(),
            dm,
            pending_inputs: vec![0; total],
            queued_inputs: vec![VecDeque::new(); total],
            arrivals: HashMap::new(),
            phase_done: false,
            retrievals_pending: 0,
            schedule_time,
        }
    }

    /// Scheduling overhead charged for this graph.
    pub fn schedule_time(&self) -> SimTime {
        self.schedule_time
    }

    /// Consume the backend and return the engine's statistics.
    pub fn finish(self) -> SimStats {
        self.engine.finish()
    }

    /// Drain the transfers the data manager planned during the run, in
    /// planning order — attached to the run's
    /// [`crate::runtime::RunRecord`] by
    /// [`crate::sim_runtime::simulate_ompc_outcome`].
    pub fn take_transfers(&mut self) -> Vec<TransferRecord> {
        self.dm.take_transfer_log()
    }

    /// Advance the engine until a phase token (startup, schedule, shutdown,
    /// last retrieval) completes.
    fn pump_phase(&mut self, label: &str) -> OmpcResult<()> {
        self.phase_done = false;
        while !self.phase_done {
            let Some(completion) = self.engine.next_completion() else {
                return Err(OmpcError::Internal(format!("simulation stalled during {label}")));
            };
            if let Some(task) = self.step(completion)? {
                return Err(OmpcError::Internal(format!("task {task} completed during {label}")));
            }
        }
        Ok(())
    }

    /// React to one engine completion; returns a task id when a target task
    /// retired.
    fn step(&mut self, completion: Completion) -> OmpcResult<Option<usize>> {
        let token: Token = completion.token();
        let kind = token & !TOK_MASK;
        let task = if kind == TOK_TRANSFER || kind == TOK_STAGE || kind == TOK_PUSH {
            ((token & TOK_MASK) >> TOK_TASK_SHIFT) as usize
        } else {
            (token & TOK_MASK) as usize
        };
        let buffer = token & TOK_SUB_MASK;
        match kind {
            TOK_STARTUP | TOK_SCHEDULE | TOK_SHUTDOWN => self.phase_done = true,
            TOK_DISPATCH => self.issue_inputs(task)?,
            TOK_STAGE => {
                // The head forwards exactly the bytes that just arrived on
                // this first leg (the completion carries them), so several
                // staged inputs of one task can be in flight at once.
                let Completion::Transfer { bytes, .. } = completion else {
                    unreachable!("stage token on a non-transfer completion")
                };
                let node = self.node_of[task];
                self.engine.issue(|ctx| {
                    ctx.send(HEAD_NODE, node, bytes, transfer_token(TOK_TRANSFER, task, buffer))
                });
            }
            TOK_TRANSFER => {
                self.pending_inputs[task] -= 1;
                if let Some((src, bytes, buf)) = self.queued_inputs[task].pop_front() {
                    self.issue_transfer(task, src, bytes, buf);
                }
                self.land(buffer, self.node_of[task])?;
                if self.pending_inputs[task] == 0 {
                    self.start_compute(task);
                }
            }
            TOK_PUSH => self.land(buffer, task)?, // a push names its destination
            TOK_COMPUTE => {
                let cost = self.overheads.event_completion;
                self.engine.issue(|ctx| ctx.runtime(HEAD_NODE, cost, TOK_COMPLETE | task as u64));
            }
            TOK_COMPLETE => {
                // The output lives (only) where it ran, and goes on to its readers.
                let node = self.node_of[task];
                if self.dm.is_registered(BufferId(task as u64)) {
                    self.dm.record_write(BufferId(task as u64), node)?;
                } else {
                    self.dm.register_device_buffer(
                        BufferId(task as u64),
                        node,
                        self.workload.output_bytes[task],
                    );
                }
                let (overheads, workload) = (&self.overheads, self.workload);
                let pushing = overheads.worker_to_worker_forwarding;
                if pushing && !overheads.serial_input_transfers && !self.dm.is_failed(node) {
                    let edges = workload.graph.out_edges(task).filter(|&(_, bytes)| bytes > 0);
                    let mut sends: Vec<_> =
                        push_targets(edges, node, &self.assignment, &self.dm).collect();
                    sends.sort_by_key(|&(to, _)| to); // in node order, as the lowering books
                    for (to, bytes) in sends {
                        if let Ok(Some(_)) = self.dm.plan_input(BufferId(task as u64), to) {
                            let token = transfer_token(TOK_PUSH, to, task as u64);
                            self.engine.issue(|ctx| ctx.send(node, to, bytes, token));
                        }
                    }
                }
                return Ok(Some(task));
            }
            TOK_RETRIEVE => {
                self.retrievals_pending -= 1;
                if self.retrievals_pending == 0 {
                    self.phase_done = true;
                }
            }
            _ => unreachable!("unknown token kind {kind:#x}"),
        }
        Ok(None)
    }

    /// Plan the input forwarding of a freshly dispatched task through the
    /// data manager and issue the transfers — concurrently in the pipelined
    /// default, one at a time in the legacy serial mode.
    fn issue_inputs(&mut self, task: usize) -> OmpcResult<()> {
        let node = self.node_of[task];
        let mut transfers: Vec<(NodeId, u64, u64)> = Vec::new();
        let mut awaited = 0usize;
        let mut need = |dm: &mut DataManager,
                        arrivals: &mut HashMap<(u64, NodeId), Vec<usize>>,
                        buf: u64,
                        bytes: u64,
                        reason: TransferReason| {
            match dm.book(Owner::Region(UNATTRIBUTED), BufferId(buf), node, reason)? {
                // We own this transfer; the booking makes later co-located
                // consumers wait for the arrival instead of racing past it.
                Booking::Move(plan) => transfers.push((plan.from, bytes, buf)),
                // Already on the wire for a sibling task on this node.
                Booking::Await => {
                    arrivals.entry((buf, node)).or_default().push(task);
                    awaited += 1;
                }
                Booking::Present => {}
            }
            Ok::<(), OmpcError>(())
        };
        for (pred, bytes) in self.workload.graph.in_edges(task) {
            if bytes == 0 {
                continue;
            }
            need(&mut self.dm, &mut self.arrivals, pred as u64, bytes, TransferReason::Input)?;
        }
        if self.workload.graph.predecessors(task).is_empty() {
            let bytes = self.workload.output_bytes[task];
            if bytes > 0 {
                // Initial data distributed from the head node (enter data).
                let reason = TransferReason::EnterData;
                need(&mut self.dm, &mut self.arrivals, task as u64, bytes, reason)?;
            }
        }
        self.pending_inputs[task] = transfers.len() + awaited;
        if self.pending_inputs[task] == 0 {
            self.start_compute(task);
            return Ok(());
        }
        if self.overheads.serial_input_transfers {
            let mut queue: VecDeque<(NodeId, u64, u64)> = transfers.into();
            if let Some((src, bytes, buf)) = queue.pop_front() {
                self.queued_inputs[task] = queue;
                self.issue_transfer(task, src, bytes, buf);
            }
        } else {
            for (src, bytes, buf) in transfers {
                self.issue_transfer(task, src, bytes, buf);
            }
        }
        Ok(())
    }

    fn issue_transfer(&mut self, task: usize, src: NodeId, bytes: u64, buffer: u64) {
        let node = self.node_of[task];
        if self.overheads.worker_to_worker_forwarding || src == HEAD_NODE {
            self.engine.issue(|ctx| {
                ctx.send(src, node, bytes, transfer_token(TOK_TRANSFER, task, buffer))
            });
        } else {
            // Forwarding disabled (ablation): stage the buffer through the
            // head node, then on to the consumer.
            self.engine.issue(|ctx| {
                ctx.send(src, HEAD_NODE, bytes, transfer_token(TOK_STAGE, task, buffer))
            });
        }
    }

    /// A copy of `buffer` landed on `node`: release the tasks awaiting it.
    fn land(&mut self, buffer: u64, node: NodeId) -> OmpcResult<()> {
        self.dm.finish(BufferId(buffer), node, Ok(()))?;
        for waiter in self.arrivals.remove(&(buffer, node)).unwrap_or_default() {
            self.pending_inputs[waiter] -= 1;
            if self.pending_inputs[waiter] == 0 {
                self.start_compute(waiter);
            }
        }
        Ok(())
    }

    fn start_compute(&mut self, task: usize) {
        let node = self.node_of[task];
        let cost = SimTime::from_secs_f64(self.workload.graph.tasks()[task].cost)
            + self.overheads.worker_event_handling;
        self.engine.issue(|ctx| ctx.compute(node, cost, TOK_COMPUTE | task as u64));
    }
}

impl ExecutionBackend for SimBackend<'_> {
    fn prologue(&mut self) -> OmpcResult<()> {
        let startup = self.overheads.startup;
        self.engine.issue(|ctx| ctx.runtime(HEAD_NODE, startup, TOK_STARTUP));
        self.pump_phase("startup")?;
        let schedule = self.schedule_time;
        self.engine.issue(|ctx| ctx.runtime(HEAD_NODE, schedule, TOK_SCHEDULE));
        self.pump_phase("schedule")
    }

    fn launch(&mut self, task: usize, node: NodeId) -> OmpcResult<()> {
        self.node_of[task] = node;
        let cost = self.overheads.event_dispatch;
        self.engine.issue(|ctx| ctx.runtime(HEAD_NODE, cost, TOK_DISPATCH | task as u64));
        Ok(())
    }

    fn assign(&mut self, assignment: &[NodeId]) {
        self.assignment = assignment.to_vec();
    }

    fn await_completions(&mut self) -> OmpcResult<Vec<TaskEvent>> {
        loop {
            let Some(completion) = self.engine.next_completion() else {
                return Err(OmpcError::Internal(
                    "simulation event queue drained with tasks outstanding".to_string(),
                ));
            };
            if let Some(task) = self.step(completion)? {
                // Injected task error (fault plan): model the worker-side
                // handler failure the real cluster provokes —
                // a typed error reply attributing the executing node.
                if self.config.fault_plan.has_task_error(task) {
                    return Ok(vec![TaskEvent::Failed {
                        task,
                        error: OmpcError::RemoteEvent {
                            node: self.node_of[task],
                            event: task as u64,
                            error: Box::new(OmpcError::UnknownKernel(POISONED_KERNEL)),
                        },
                    }]);
                }
                return Ok(vec![TaskEvent::Completed(task)]);
            }
        }
    }

    fn clock_millis(&self) -> Option<Millis> {
        // The fault clock of the simulated backend is virtual time.
        Some(self.engine.now().as_nanos() / 1_000_000)
    }

    fn invalidate_node(&mut self, node: NodeId) -> Vec<LostBuffer> {
        // In workload graphs buffer `t` is task `t`'s output, so the lost
        // lineage of a buffer is exactly its producing task.
        // (Only workers are ever declared failed; the head loses nothing.)
        let lost = self.dm.fail_node(node).unwrap_or_default();
        lost.into_iter()
            .map(|buffer| LostBuffer { buffer, writers: vec![buffer.0 as usize] })
            .collect()
    }

    fn replan(&mut self, alive_workers: &[NodeId]) -> Option<Vec<NodeId>> {
        // Re-run the configured static scheduler over the shrunken
        // platform, mapping processor `p` onto the p-th survivor.
        let platform = network_platform(&self.engine.config().network, alive_workers.len());
        Some(RuntimePlan::workload_assignment_on(
            self.workload,
            &platform,
            &self.config,
            alive_workers,
        ))
    }

    fn epilogue(&mut self) -> OmpcResult<()> {
        // Retrieve the results of every sink task back to the head node
        // (exit data), as planned by the data manager.
        for sink in self.workload.graph.sinks() {
            let bytes = self.workload.output_bytes[sink];
            if bytes == 0 || !self.dm.is_registered(BufferId(sink as u64)) {
                continue;
            }
            if let Some(from) = self.dm.retrieve_source(BufferId(sink as u64)) {
                self.engine
                    .issue(|ctx| ctx.send(from, HEAD_NODE, bytes, TOK_RETRIEVE | sink as u64));
                // Simulated transfers cannot fail; commit immediately.
                self.dm.record_retrieve(BufferId(sink as u64))?;
                self.retrievals_pending += 1;
            }
        }
        if self.retrievals_pending > 0 {
            self.pump_phase("result retrieval")?;
        }
        let shutdown = self.overheads.shutdown;
        self.engine.issue(|ctx| ctx.runtime(HEAD_NODE, shutdown, TOK_SHUTDOWN));
        self.pump_phase("shutdown")
    }
}
