//! The one lowering of a planned task into device operations (paper §4.3
//! deciding what moves, §4.2 moving it), which the message-passing
//! transport (`runtime/mpi.rs`) delivers.
//!
//! [`Lowering::lower`] turns a task plus the [`DataManager`]'s residency
//! state into the wire vocabulary the workers speak — every region task
//! that moves bytes becomes one [`Composite`], a car of its node's train:
//!
//! * a target task: `Delete`* / `RecvFromHead` / `RecvFromWorker` / `Claim`
//!   / `AwaitLocal` / `Alloc` / `Execute` / `Push`* steps with their payload
//!   frames and exchange sources;
//! * an enter-data task: `Delete`* then a `RecvFromHead`, a `RecvFromWorker`
//!   (its source told an `ExchangeSend`), or an `Alloc`;
//! * an exit-data task: one `Retrieve`, on the node the bytes come from,
//!   whose reply is the buffer;
//! * a host task (flushed and run right here, outside every lock), a no-op
//!   data task, or a task bound for a dead node is [`Lowered::Done`];
//! * a target task reading bytes another owner has on the wire towards its
//!   node is [`Lowered::Parked`]: nothing is booked, and the transport
//!   lowers it again once [`Lowering::awaited`] says those bookings are
//!   over.
//!
//! Each lowering comes with its bookkeeping [`Record`] — the transfers it
//! has booked in the [`DataManager`]'s in-flight table, the buffers it
//! writes — and [`Lowering::retire`] settles that record once the transport
//! has the reply: the bookings are finished, writes are recorded and stale
//! copies queued for deletion, an exit-data payload is committed to the
//! host, worker stamps become spans; a failure finishes every booking with
//! the error, which rolls holder and log entry back and leaves the error —
//! blame included — for whoever awaits the copy. [`Lowering::abandon`] is
//! the same rollback for a lowering that never reached the wire.
//!
//! Whether bytes are on a node *yet* is the in-flight table's knowledge
//! alone, and a reader of a copy somebody else has on the wire never plans
//! a second transfer. Who that somebody is decides where the reader waits:
//!
//! * an earlier car **of this execution** has queued the receive ahead of
//!   the reader on the same node (cars depart in lowering order) — the
//!   reader's composite carries an `AwaitLocal` step, and the worker waits
//!   for that very receive to land or fail (first-in-first-out on the node,
//!   so even one handler thread cannot deadlock on it);
//! * **anyone else** — another tenant, an async enter-data, prefetch or
//!   broadcast ticket — has no event queued ahead of it there: the reader
//!   parks on the head, booking nothing, and fails at once with the
//!   transfer's own error, or is planned afresh when the booking was
//!   invalidated on the wire.
//!
//! What the lowering owns, per region and shared by its tasks, is the
//! **deferred deletes** — stale and released copies ride the next target or
//! enter-data car to their node as `Delete` prologue steps — and the
//! **pushes** nobody claimed yet, which end unclaimed when a later write, a
//! recovery, a death or the end of the run leaves them no reader;
//! [`Lowering::flush_deletes`] sends each live node what is left of both, in
//! one task.
//!
//! A host payload is the registry's own [`Bytes`] handle — the buffer *is*
//! the frame: forwarded to k nodes it is one allocation held k + 1 times,
//! and a retrieved buffer is committed as the allocation the worker replied
//! with.
//!
//! A transport only *delivers*: it sends (or walks) the steps, obtains the
//! typed reply, and hands it back.

use super::fault::LostBuffer;
use super::telemetry::{monotonic_us, Span, SpanPhase, Telemetry};
use super::RuntimePlan;
use crate::buffer::BufferRegistry;
use crate::cluster::HostFn;
use crate::config::OmpcConfig;
use crate::data_manager::{Booking, DataManager, Owner, TransferReason, TransferState, HEAD_NODE};
use crate::event::{Composite, EventSystem, TypedReply};
use crate::protocol::{Reply, TaskStep};
use crate::task::{RegionGraph, TargetTask, TaskKind};
use crate::types::{BufferId, KernelId, MapType, NodeId, OmpcError, OmpcResult, TaskId};
use ompc_mpi::{Bytes, CommId, Tag};
use ompc_sched::Platform;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The kernel id injected task errors execute against: guaranteed to be
/// unregistered, so the worker's handler genuinely fails and the error
/// travels back through the event-reply channel.
pub(crate) const POISONED_KERNEL: KernelId = KernelId(usize::MAX);

/// The device machinery every head-side data movement runs against.
#[derive(Clone)]
pub(crate) struct DataPath {
    pub(crate) events: Arc<EventSystem>,
    pub(crate) buffers: Arc<BufferRegistry>,
    pub(crate) dm: Arc<Mutex<DataManager>>,
    pub(crate) telemetry: Arc<Telemetry>,
}

/// Where a retrieval is committed and how its span reads.
pub(crate) struct Commit {
    /// Transfer-log namespace the retrieve is recorded under.
    pub(crate) region: u64,
    pub(crate) phase: SpanPhase,
    pub(crate) task: Option<usize>,
    pub(crate) detail: &'static str,
}

impl DataPath {
    /// Fetch the latest version of `buffer` from `from` and commit it to the
    /// host. Nothing is committed until the bytes land: a failed retrieval
    /// leaves the location state truthful, so recovery re-sources and
    /// retries.
    pub(crate) fn retrieve_and_commit(
        &self,
        from: NodeId,
        buffer: BufferId,
        how: &Commit,
    ) -> OmpcResult<()> {
        let t0 = self.telemetry.start();
        let data = self.events.retrieve(from, buffer)?;
        self.commit(from, buffer, data, t0, how)
    }

    /// The commit half: store the retrieved bytes in the host registry,
    /// record the retrieve, and count it as one data movement. A kernel may
    /// have resized the device copy; the observed size keeps this and every
    /// later transfer-log entry truthful.
    fn commit(
        &self,
        from: NodeId,
        buffer: BufferId,
        data: Bytes,
        t0: u64,
        how: &Commit,
    ) -> OmpcResult<()> {
        let bytes = data.len() as u64;
        self.buffers.set_shared(buffer, data)?;
        {
            let mut dm = self.dm.lock();
            dm.observe_size(buffer, bytes);
            dm.record_retrieve_in(how.region, buffer)?;
        }
        self.events.counters().record_data(bytes);
        if self.telemetry.spans_enabled() {
            let span = Span::new(how.phase, HEAD_NODE, t0, monotonic_us())
                .bytes(bytes)
                .from(from)
                .detail(how.detail);
            self.telemetry.record(match how.task {
                Some(task) => span.task(task).attempt(self.telemetry.attempt(task)),
                None => span,
            });
        }
        Ok(())
    }
}

/// What [`Lowering::lower`] made of a task.
pub(crate) enum Lowered {
    /// Nothing to deliver: the task is complete.
    Done,
    /// Deliver the composite to [`Record::node`] as a car; retire with its
    /// reply.
    Task(Composite, Record),
    /// Another owner has these inputs on the wire towards the task's node:
    /// nothing was booked — lower the task again once
    /// [`Lowering::awaited`] says so.
    Parked(Vec<BufferId>),
}

/// What the head must settle when a lowered task's reply arrives.
pub(crate) struct Record {
    /// The node the car goes to and its effects land on (for an exit-data
    /// retrieval, the node the bytes come from).
    node: NodeId,
    /// Buffers whose inbound transfer to `node` this task has booked.
    owned: Vec<BufferId>,
    /// Deferred deletes attached as prologue steps.
    deletes: Vec<BufferId>,
    kind: RecordKind,
}

impl Record {
    /// The node the car goes to: the task's own, or for an exit-data task
    /// the node the bytes come from.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }
}

enum RecordKind {
    Target {
        /// Pushes it claimed (their buffers are in `owned`).
        claims: Vec<Push>,
        /// Buffers the task writes.
        writes: Vec<BufferId>,
        /// Copies its composite pushes, booked when it succeeds.
        pushes: Vec<Push>,
    },
    /// The transfer is in `owned` — or, for an alloc, `replica` is the copy
    /// to record on success.
    EnterData { replica: Option<BufferId> },
    /// The reply's body is the buffer contents; `release` the device copies
    /// afterwards unless the buffer is keep-resident.
    ExitData { buffer: BufferId, release: bool },
}

/// A copy of `buffer` task `producer` on `from` pushes to `to`, on its own channel.
#[derive(Debug, Clone, Copy)]
struct Push {
    producer: TaskId,
    buffer: BufferId,
    from: NodeId,
    to: NodeId,
    tag: Tag,
    comm: CommId,
}

/// A target task's inputs as planned.
#[derive(Default)]
struct Inputs {
    work: Composite,
    owned: Vec<BufferId>,
    claims: Vec<Push>,
}

impl Inputs {
    /// Claim the unclaimed push of `buffer` to `node`, if there is one.
    fn claim(&mut self, state: &mut State, buffer: BufferId, node: NodeId) -> bool {
        let Some(push) = state.unclaimed.remove(&(buffer, node)) else { return false };
        let Push { from, tag, comm, .. } = push;
        self.work.steps.push(TaskStep::Claim { buffer, from, tag, comm });
        self.owned.push(buffer);
        self.claims.push(push);
        true
    }
}

#[derive(Default)]
struct State {
    deferred_deletes: BTreeMap<NodeId, BTreeSet<BufferId>>,
    assignment: Vec<NodeId>,
    /// Booked pushes awaiting their first reader, by `(buffer, node)`.
    unclaimed: BTreeMap<(BufferId, NodeId), Push>,
    /// Pushes sent that nobody will claim, owed a drop ([`Lowering::flush_deletes`]).
    discards: Vec<Push>,
}

/// Deferred maintenance rides along: the deletes queued for `node` since its
/// last car become `work`'s prologue steps — ordered before any receive of
/// the same buffer, costing no extra round trip. Returns them.
fn take_deletes(state: &mut State, node: NodeId, work: &mut Composite) -> Vec<BufferId> {
    let deletes: Vec<BufferId> =
        state.deferred_deletes.remove(&node).unwrap_or_default().into_iter().collect();
    work.steps.splice(0..0, deletes.iter().map(|&buffer| TaskStep::Delete { buffer }));
    deletes
}

/// The lowering of one region execution. `state` is taken before the data
/// manager, never after.
pub(crate) struct Lowering {
    pub(super) path: DataPath,
    /// Paired with the data manager's mutex: notified whenever anyone — a
    /// task of any region, an async data-path job — finishes a booking.
    inflight_cv: Arc<Condvar>,
    /// Transfer-log namespace of this execution: the region epoch issued at
    /// admission.
    pub(super) region: u64,
    pub(super) graph: Arc<RegionGraph>,
    host_fns: HashMap<usize, HostFn>,
    pub(super) config: OmpcConfig,
    state: Mutex<State>,
}

impl Lowering {
    /// Build the lowering of one region execution. Rejects a fault plan
    /// naming a task the graph does not have.
    pub(crate) fn new(
        path: DataPath,
        inflight_cv: Arc<Condvar>,
        region: u64,
        graph: Arc<RegionGraph>,
        host_fns: HashMap<usize, HostFn>,
        config: &OmpcConfig,
    ) -> OmpcResult<Self> {
        config.fault_plan.validate_task_errors(graph.len())?;
        Ok(Self {
            path,
            inflight_cv,
            region,
            graph,
            host_fns,
            config: config.clone(),
            state: Mutex::new(State::default()),
        })
    }

    fn span(&self, phase: SpanPhase, node: NodeId, t0: u64, task: usize) -> Span {
        let attempt = self.path.telemetry.attempt(task);
        Span::new(phase, node, t0, monotonic_us()).task(task).attempt(attempt)
    }

    /// Lower task `tid`, assigned to `node`. `Err` is a head-side task
    /// failure (a rejected plan, a failed host flush, a panicking host
    /// body) with nothing left to roll back.
    pub(crate) fn lower(&self, tid: usize, node: NodeId) -> OmpcResult<Lowered> {
        if node != HEAD_NODE && self.path.dm.lock().is_failed(node) {
            // The failure injector killed this node: the task completes as
            // a no-op whose (stale) completion the core discards and
            // restarts on a survivor.
            return Ok(Lowered::Done);
        }
        let task = self.graph.task(TaskId(tid));
        match &task.kind {
            TaskKind::Host { .. } => self.run_host_task(tid, task).map(|()| Lowered::Done),
            TaskKind::EnterData { .. } if node == HEAD_NODE => Ok(Lowered::Done),
            TaskKind::EnterData { buffer, map } => self.lower_enter(tid, node, *buffer, *map),
            TaskKind::ExitData { buffer, map } => Ok(self.lower_exit(node, *buffer, *map)),
            TaskKind::Target { kernel, .. } => self.lower_target(tid, node, task, *kernel),
        }
    }

    /// A host task reads through the head's buffer registry, so every read
    /// buffer whose latest version lives on a worker is flushed home first —
    /// the host-side analogue of the input transfers a target task plans.
    /// Graph dependences order this after the producing task's completion.
    fn run_host_task(&self, tid: usize, task: &TargetTask) -> OmpcResult<()> {
        for dep in task.dependences.iter().filter(|d| d.dep_type.reads()) {
            // A host-only buffer (never mapped to the device) has no
            // residency entry and nothing to flush.
            let from = self.path.dm.lock().retrieve_source(dep.buffer);
            if let Some(from) = from {
                let how = Commit {
                    region: self.region,
                    phase: SpanPhase::HostFlush,
                    task: Some(tid),
                    detail: "host task input",
                };
                self.path.retrieve_and_commit(from, dep.buffer, &how)?;
            }
        }
        if let Some(body) = self.host_fns.get(&tid) {
            let buffers = &self.path.buffers;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(buffers)))
                .map_err(|_| OmpcError::Internal(format!("host task {tid} panicked")))?;
        }
        Ok(())
    }

    /// Residency-aware distribution: source from the current latest holder —
    /// a receive from the host for a fresh mapping, a worker-to-worker
    /// forward when the latest version lives on another worker, and **no
    /// transfer at all** when the buffer is already present or already on
    /// its way (OpenMP present-table semantics: re-entering mapped data does
    /// not copy; the first reader awaits a booked transfer). The car takes
    /// the node's deferred deletes ahead of its receive, as a target car does.
    fn lower_enter(
        &self,
        tid: usize,
        node: NodeId,
        buffer: BufferId,
        map: MapType,
    ) -> OmpcResult<Lowered> {
        let mut state = self.state.lock();
        let mut work = Composite::default();
        let (owned, replica) = match map {
            MapType::To | MapType::ToFrom | MapType::ToResident => {
                let owner = Owner::Region(self.region);
                let reason = TransferReason::EnterData;
                let booking = self.path.dm.lock().book(owner, buffer, node, reason)?;
                match booking {
                    Booking::Present | Booking::Await => return Ok(Lowered::Done),
                    Booking::Move(plan) if plan.from != HEAD_NODE => {
                        let bytes = self.path.buffers.size_of(buffer).unwrap_or(0) as u64;
                        work.recv_from_worker(buffer, plan.from, bytes);
                    }
                    Booking::Move(_) => match self.host_payload(buffer, tid) {
                        Ok(frame) => work.recv_from_head(buffer, frame),
                        Err(e) => {
                            let failed = Err(e.clone());
                            let _ = self.finish(&mut self.path.dm.lock(), node, &[buffer], &failed);
                            return Err(e);
                        }
                    },
                }
                (vec![buffer], None)
            }
            MapType::Alloc if !self.path.dm.lock().is_present(buffer, node) => {
                let size = self.path.buffers.size_of(buffer)? as u64;
                work.steps.push(TaskStep::Alloc { buffer, size });
                (Vec::new(), Some(buffer))
            }
            MapType::Alloc | MapType::From | MapType::Release => return Ok(Lowered::Done),
        };
        let deletes = take_deletes(&mut state, node, &mut work);
        let kind = RecordKind::EnterData { replica };
        Ok(Lowered::Task(work, Record { node, owned, deletes, kind }))
    }

    /// A read-only plan: the latest-on-head commit (and its log entry)
    /// happens in [`Lowering::retire`] once the bytes arrived, so a source
    /// that dies mid-retrieval leaves the location state truthful.
    fn lower_exit(&self, node: NodeId, buffer: BufferId, map: MapType) -> Lowered {
        let (from, keep_resident) = {
            let dm = self.path.dm.lock();
            let copies = map.copies_from_device();
            let from = copies.then(|| dm.retrieve_source(buffer)).flatten();
            // §4.4 consistency: the exit task is pinned to its last target
            // producer, so in a failure-free run the retrieval source is the
            // pinned node (or the pinned node holds the version it read).
            debug_assert!(
                from.is_none_or(|f| f == node || dm.has_failures() || dm.is_present(buffer, node)),
                "exit-data task pinned to node {node} but the latest copy of {buffer} is only \
                 on node {from:?}"
            );
            // `map(from:)` on a keep-resident buffer is a flush: the host
            // copy becomes current, the device copies stay mapped.
            (from, copies && dm.is_resident(buffer))
        };
        match from {
            Some(from) => {
                let work =
                    Composite { steps: vec![TaskStep::Retrieve { buffer }], ..Default::default() };
                let kind = RecordKind::ExitData { buffer, release: !keep_resident };
                Lowered::Task(
                    work,
                    Record { node: from, owned: Vec::new(), deletes: Vec::new(), kind },
                )
            }
            None => {
                if !keep_resident {
                    self.release(buffer);
                }
                Lowered::Done
            }
        }
    }

    fn lower_target(
        &self,
        tid: usize,
        node: NodeId,
        task: &TargetTask,
        kernel: KernelId,
    ) -> OmpcResult<Lowered> {
        // Injected task error (fault plan): execute a deliberately
        // unregistered kernel so a genuine worker-side handler error
        // exercises the reply path end to end.
        let kernel =
            if self.config.fault_plan.has_task_error(tid) { POISONED_KERNEL } else { kernel };
        let mut inputs = Inputs::default();
        let mut state = self.state.lock();
        // Plan the whole task under one acquisition of the data manager: a
        // co-located reader lowered later either sees our booking (and
        // awaits the arrival) or plans its own transfer.
        let mut dm = self.path.dm.lock();
        // Only somebody else's booking parks a task: with no ticket in flight
        // and no other region admitted beside this one, there is none.
        if self.config.admission_limit() > 1 || dm.tickets_in_flight() {
            let awaiting: Vec<BufferId> = (task.dependences.iter())
                .filter(|d| d.dep_type.reads() && self.foreign_inflight(&dm, d.buffer, node))
                .map(|d| d.buffer)
                .collect();
            if !awaiting.is_empty() {
                return Ok(Lowered::Parked(awaiting));
            }
        }
        let planned = self.plan_inputs(&mut state, &mut dm, tid, node, task, &mut inputs);
        let pushes = self.plan_pushes(&state, &dm, tid, node);
        drop(dm);
        let Inputs { mut work, owned, claims } = inputs;
        let deletes = take_deletes(&mut state, node, &mut work);
        let buffers = task.dependences.iter().map(|d| d.buffer).collect();
        work.steps.push(TaskStep::Execute { kernel, buffers });
        let push =
            |p: &Push| TaskStep::Push { buffer: p.buffer, to: p.to, tag: p.tag, comm: p.comm };
        work.steps.extend(pushes.iter().map(push));
        let writes =
            task.dependences.iter().filter(|d| d.dep_type.writes()).map(|d| d.buffer).collect();
        let kind = RecordKind::Target { claims, writes, pushes };
        let record = Record { node, owned, deletes, kind };
        match planned {
            Ok(()) => Ok(Lowered::Task(work, record)),
            Err(error) => {
                // A rejected plan (an unknown buffer) aborts the task;
                // resolve what was already booked so its waiters error out.
                self.roll_back(&mut state, record, &error, true);
                Err(error)
            }
        }
    }

    /// Plan every input of a task on `node`, and storage for its write-only
    /// outputs. Another owner's booking of an input never reaches here
    /// ([`Lowering::foreign_inflight`]).
    fn plan_inputs(
        &self,
        state: &mut State,
        dm: &mut DataManager,
        tid: usize,
        node: NodeId,
        task: &TargetTask,
        inputs: &mut Inputs,
    ) -> OmpcResult<()> {
        for dep in task.dependences.iter().filter(|d| d.dep_type.reads()) {
            self.plan_read(state, dm, tid, node, dep.buffer, inputs)?;
        }
        // Write-only outputs: make sure storage exists on the node — an unclaimed copy
        // pushed here will do. It becomes the buffer's one holder when the write is recorded.
        for dep in task.dependences.iter().filter(|d| !d.dep_type.reads()) {
            if !inputs.claim(state, dep.buffer, node) && !dm.is_present(dep.buffer, node) {
                let size = self.path.buffers.size_of(dep.buffer)? as u64;
                inputs.work.steps.push(TaskStep::Alloc { buffer: dep.buffer, size });
            }
        }
        Ok(())
    }

    /// Where task `tid` on `node` pushes what it writes, each on a fresh channel.
    fn plan_pushes(&self, state: &State, dm: &DataManager, tid: usize, node: NodeId) -> Vec<Push> {
        let target =
            |&(b, r): &(BufferId, TaskId)| self.graph.task(r).kind.is_target().then_some((r.0, b));
        let readers = self.graph.readers_of(TaskId(tid)).iter().filter_map(target);
        let targets: BTreeSet<_> =
            super::push_targets(readers, node, &state.assignment, dm).collect();
        let channel = |(to, buffer)| {
            let (tag, comm) = self.path.events.open_channel();
            Push { producer: TaskId(tid), buffer, from: node, to, tag, comm }
        };
        targets.into_iter().map(channel).collect()
    }

    /// Whether someone other than this execution has `buffer` on the wire
    /// towards `node`: a task reading it cannot await the bytes on the
    /// worker, where no event of theirs is queued ahead of it.
    fn foreign_inflight(&self, dm: &DataManager, buffer: BufferId, node: NodeId) -> bool {
        matches!(
            dm.transfer_state(buffer, node),
            TransferState::InFlight(owner) if owner != Owner::Region(self.region)
        )
    }

    /// Where the bookings a [`Lowered::Parked`] task on `node` awaits stand:
    /// `None` while another owner still has one of `buffers` on the wire,
    /// the transfer's own error — blame included — when one failed, and
    /// `Ok` once the task may be lowered again (the bytes arrived, the
    /// booking was invalidated on the wire and is planned afresh, or the
    /// node died and the task lowers to nothing).
    pub(crate) fn awaited(&self, node: NodeId, buffers: &[BufferId]) -> Option<OmpcResult<()>> {
        let dm = self.path.dm.lock();
        if dm.is_failed(node) {
            return Some(Ok(()));
        }
        if buffers.iter().any(|&buffer| self.foreign_inflight(&dm, buffer, node)) {
            return None;
        }
        let failed = buffers.iter().find_map(|&buffer| match dm.transfer_state(buffer, node) {
            TransferState::Invalid(Some(error)) => Some(error),
            _ => None,
        });
        Some(failed.map_or(Ok(()), Err))
    }

    /// Plan one input of a task on `node`: a receive step this task owns (a
    /// claim, a transfer), an await of bytes an earlier task of this
    /// execution has queued ahead of it on the node, or nothing.
    fn plan_read(
        &self,
        state: &mut State,
        dm: &mut DataManager,
        tid: usize,
        node: NodeId,
        buffer: BufferId,
        inputs: &mut Inputs,
    ) -> OmpcResult<()> {
        // The booking is made at lowering time: a later co-located reader
        // must await the arrival even though the bytes have not left yet.
        let plan = match dm.book(Owner::Region(self.region), buffer, node, TransferReason::Input)? {
            Booking::Present => return Ok(()),
            // The first reader of a pushed copy claims it, later ones await.
            Booking::Await if inputs.claim(state, buffer, node) => return Ok(()),
            Booking::Await => {
                // The receive lands or fails by itself; the reply time-out
                // is only the last resort.
                let timeout_ms = self.config.event_reply_timeout_ms.unwrap_or(u64::MAX);
                inputs.work.steps.push(TaskStep::AwaitLocal { buffer, timeout_ms });
                return Ok(());
            }
            Booking::Move(plan) => plan,
        };
        inputs.owned.push(buffer);
        if plan.from == HEAD_NODE {
            inputs.work.recv_from_head(buffer, self.host_payload(buffer, tid)?);
        } else {
            let bytes = self.path.buffers.size_of(buffer).unwrap_or(0) as u64;
            inputs.work.recv_from_worker(buffer, plan.from, bytes);
        }
        Ok(())
    }

    /// The host payload of `buffer`: the registry's own allocation, shared.
    /// Records a `Serialize` span attributed to `task` — all that is left of
    /// building a frame.
    fn host_payload(&self, buffer: BufferId, task: usize) -> OmpcResult<Bytes> {
        let tel = &self.path.telemetry;
        let t0 = tel.start();
        let frame = self.path.buffers.share(buffer)?;
        if tel.spans_enabled() {
            let span = self.span(SpanPhase::Serialize, HEAD_NODE, t0, task);
            tel.record(span.bytes(frame.len() as u64));
        }
        Ok(frame)
    }

    /// Finish this region's bookings of `buffers` towards `node` with
    /// `outcome` — every one of them, whatever the table makes of each —
    /// and wake whoever awaits them.
    fn finish(
        &self,
        dm: &mut DataManager,
        node: NodeId,
        buffers: &[BufferId],
        outcome: &OmpcResult<()>,
    ) -> OmpcResult<()> {
        let finished = buffers.iter().map(|&buffer| dm.finish(buffer, node, outcome.clone()));
        let all = finished.fold(Ok(()), OmpcResult::and);
        if !buffers.is_empty() {
            self.inflight_cv.notify_all();
        }
        all
    }

    /// Settle a delivered task with its typed reply (the retrieved buffer
    /// of an exit-data car; the worker's stamps, when the car was timed).
    pub(crate) fn retire(&self, task: usize, record: Record, reply: TypedReply) -> OmpcResult<()> {
        let Reply { body, stamps, .. } = match reply {
            Ok(reply) => reply,
            Err(error) => {
                self.roll_back(&mut self.state.lock(), record, &error, false);
                return Err(error);
            }
        };
        let tel = &self.path.telemetry;
        let t0 = tel.start();
        let Record { node, owned, kind, .. } = record;
        if let Some(s) = stamps {
            let attempt = tel.attempt(task);
            // A car without a kernel ships no compute span.
            let kernel = matches!(kind, RecordKind::Target { .. }).then_some((
                SpanPhase::Compute,
                s.exec_start_us,
                s.exec_end_us,
            ));
            let worker = [
                (SpanPhase::WorkerRecv, s.recv_us, s.recv_us),
                (SpanPhase::WorkerAwait, s.recv_us, s.deps_us),
            ];
            for (phase, start, end) in worker.into_iter().chain(kernel) {
                tel.record(Span::new(phase, node, start, end).task(task).attempt(attempt));
            }
        }
        match kind {
            RecordKind::Target { writes, pushes, .. } => {
                let mut state = self.state.lock();
                let mut dm = self.path.dm.lock();
                self.finish(&mut dm, node, &owned, &Ok(()))?;
                // Nobody may claim a version this task supersedes any more.
                self.end_pushes(&mut state, &mut dm, None, |p| writes.contains(&p.buffer));
                // The copy on `node` is now the only valid one; the stale
                // ones are freed by the next car headed their way.
                for buffer in writes {
                    for stale in dm.record_write(buffer, node)? {
                        if stale != HEAD_NODE && !dm.is_failed(stale) {
                            state.deferred_deletes.entry(stale).or_default().insert(buffer);
                        }
                    }
                }
                self.book_pushes(&mut state, &mut dm, pushes);
            }
            RecordKind::EnterData { replica } => {
                let mut dm = self.path.dm.lock();
                self.finish(&mut dm, node, &owned, &Ok(()))?;
                if let Some(buffer) = replica {
                    dm.record_replica(buffer, node)?;
                }
            }
            RecordKind::ExitData { buffer, release } => {
                let how = Commit {
                    region: self.region,
                    phase: SpanPhase::ExitData,
                    task: Some(task),
                    detail: "ExitData",
                };
                let data = body.ok_or_else(|| {
                    OmpcError::Internal(format!("exit-data reply for {buffer} carried no data"))
                })?;
                self.path.commit(node, buffer, data, t0, &how)?;
                if release {
                    self.release(buffer);
                }
            }
        }
        Ok(())
    }

    /// Book a succeeded producer's pushes as its readers' input transfers: a data movement
    /// each, but no event. One from a dead producer, one whose node hosts no reader of it any
    /// more (a recovery moved them) and one the table refuses are dropped.
    fn book_pushes(&self, state: &mut State, dm: &mut DataManager, pushes: Vec<Push>) {
        let (owner, input) = (Owner::Region(self.region), TransferReason::Input);
        for push in pushes {
            let bookable = !dm.is_failed(push.from) && self.read_at(&state.assignment, &push);
            let booking = bookable.then(|| dm.book(owner, push.buffer, push.to, input));
            if let Some(Ok(Booking::Move(_))) = booking {
                let bytes = self.path.buffers.size_of(push.buffer).unwrap_or(0) as u64;
                self.path.events.counters().record_data(bytes);
                state.unclaimed.insert((push.buffer, push.to), push);
            } else {
                state.discards.push(push);
            }
        }
    }

    /// Whether a reader of the version `push` carries runs on its node under `assignment`.
    fn read_at(&self, assignment: &[NodeId], push: &Push) -> bool {
        let readers = self.graph.readers_of(push.producer).iter();
        readers
            .filter(|&&(buffer, _)| buffer == push.buffer)
            .any(|&(_, reader)| assignment.get(reader.0) == Some(&push.to))
    }

    /// End the unclaimed pushes `over` picks: each booking finished with an error — `dead`'s
    /// failure, or that nobody claimed it — its record withdrawn, and each copy owed a drop.
    fn end_pushes(
        &self,
        state: &mut State,
        dm: &mut DataManager,
        dead: Option<NodeId>,
        over: impl Fn(&Push) -> bool,
    ) {
        let nobody = || OmpcError::Communication("no reader claimed the push".into());
        let (State { unclaimed, discards, .. }, failed) =
            (state, Err(dead.map_or_else(nobody, OmpcError::NodeFailure)));
        unclaimed.retain(|_, push| {
            let end = over(push);
            if end {
                let _ = self.finish(dm, push.to, &[push.buffer], &failed);
                discards.push(*push);
            }
            !end
        });
    }

    /// Roll back a lowering that never reached the wire: as a failed
    /// [`Lowering::retire`], and its attached deletes are owed again.
    pub(crate) fn abandon(&self, record: Record, error: &OmpcError) {
        self.roll_back(&mut self.state.lock(), record, error, true);
    }

    /// The task never landed its effects: finish its bookings with `error`, so no later
    /// reader skips a transfer the bytes never made (holder and log entry are rolled back)
    /// and whoever awaits one of them fails with `error` — a killed source keeps its blame —
    /// instead of blocking. A copy it claimed is owed a drop, in case no step took it.
    fn roll_back(&self, state: &mut State, record: Record, error: &OmpcError, unsent: bool) {
        let Record { node, owned, deletes, kind } = record;
        let mut dm = self.path.dm.lock();
        let _ = self.finish(&mut dm, node, &owned, &Err(error.clone()));
        if let RecordKind::Target { claims, .. } = kind {
            state.discards.extend(claims);
        }
        // A car that reached the worker ran its deletes first: they cannot fail.
        if unsent && !deletes.is_empty() && !dm.is_failed(node) {
            state.deferred_deletes.entry(node).or_default().extend(deletes);
        }
    }

    /// Release every device copy of `buffer` (exit-data semantics): drop it
    /// from the data manager and queue the delete on every live holder.
    fn release(&self, buffer: BufferId) {
        let mut state = self.state.lock();
        let mut dm = self.path.dm.lock();
        for holder in dm.remove(buffer) {
            if !dm.is_failed(holder) {
                state.deferred_deletes.entry(holder).or_default().insert(buffer);
            }
        }
    }

    /// The end of the run: every push still unclaimed is over, and each live node gets one
    /// task ([`super::delete_device_copies`]) with the deletes no car carried and the
    /// drops of the copies nobody claimed. Dead nodes are skipped — their memory died with
    /// them. Every live node is attempted; what a node did not acknowledge stays owed to it,
    /// and the first error is returned.
    pub(crate) fn flush_deletes(&self) -> OmpcResult<()> {
        let mut owed: BTreeMap<NodeId, (BTreeSet<BufferId>, Vec<Push>)> = BTreeMap::new();
        {
            let (mut state, mut dm) = (self.state.lock(), self.path.dm.lock());
            self.end_pushes(&mut state, &mut dm, None, |_| true);
            for (node, buffers) in std::mem::take(&mut state.deferred_deletes) {
                owed.entry(node).or_default().0 = buffers;
            }
            for push in std::mem::take(&mut state.discards) {
                owed.entry(push.to).or_default().1.push(push);
            }
            owed.retain(|&node, _| !dm.is_failed(node));
        }
        let sent = owed.iter().map(|(&node, (buffers, pushes))| {
            let discard = |p: &Push| TaskStep::Discard { from: p.from, tag: p.tag, comm: p.comm };
            (node, buffers.iter().copied().collect(), pushes.iter().map(discard).collect())
        });
        let failed = super::delete_device_copies(&self.path.events, &self.path.telemetry, sent);
        let mut state = self.state.lock();
        for (node, _) in &failed {
            let (buffers, pushes) = owed.remove(node).unwrap_or_default();
            state.deferred_deletes.entry(*node).or_default().extend(buffers);
            state.discards.extend(pushes);
        }
        super::first_error(failed)
    }

    /// `node` just died: discard its copies, its pushes and its deferred deletes (they must
    /// not ride a later composite into the zombie gate), kill the worker's event loop **for
    /// real** — from now on it refuses every event with an error reply, so peers observe the
    /// death instead of hanging — and name the writers of every buffer whose only copy was
    /// lost.
    pub(crate) fn invalidate_node(&self, node: NodeId) -> Vec<LostBuffer> {
        let mut state = self.state.lock();
        state.deferred_deletes.remove(&node);
        let mut dm = self.path.dm.lock();
        // Only workers are ever declared failed; the head would lose nothing.
        let lost = dm.fail_node(node).unwrap_or_default();
        self.end_pushes(&mut state, &mut dm, Some(node), |p| p.to == node || p.from == node);
        drop((state, dm));
        let _ = self.path.events.kill(node);
        let writers_of = |buffer| {
            let writes = |t: &&TargetTask| {
                t.dependences.iter().any(|d| d.buffer == buffer && d.dep_type.writes())
            };
            self.graph.tasks().iter().filter(writes).map(|t| t.id.0).collect()
        };
        lost.into_iter().map(|buffer| LostBuffer { buffer, writers: writers_of(buffer) }).collect()
    }

    /// The assignment the core launches by from now on. After a recovery, a
    /// push whose node hosts no reader of its version any more is over.
    pub(crate) fn assign(&self, assignment: &[NodeId]) {
        let (mut state, mut dm) = (self.state.lock(), self.path.dm.lock());
        self.end_pushes(&mut state, &mut dm, None, |p| !self.read_at(assignment, p));
        state.assignment = assignment.to_vec();
    }

    /// Re-run the static scheduler over the survivors, re-pinned against
    /// the post-failure residency view: the dead node's copies are gone, so
    /// data tasks follow the surviving holders.
    pub(crate) fn replan(&self, alive_workers: &[NodeId]) -> Vec<NodeId> {
        let residency = self.path.dm.lock().latest_on_workers();
        RuntimePlan::region_assignment_on(
            &self.graph,
            &self.path.buffers,
            &Platform::cluster(alive_workers.len()),
            &self.config,
            alive_workers,
            &residency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Dependence;
    use ompc_mpi::World;
    use std::sync::atomic::Ordering;

    /// A lowering over a four-rank world whose worker ranks never run:
    /// nothing is ever delivered, so each test observes the lowering alone.
    /// Buffer `a` is 32 host bytes; tasks 0–1 read it, task 2 updates it,
    /// tasks 3–6 read that version and task 3 also allocates an output;
    /// tasks [`ENTER`] and [`EXIT`] map it to and from the device.
    struct Fixture {
        _world: World,
        low: Lowering,
        a: BufferId,
    }

    fn fixture() -> Fixture {
        let world = World::with_communicators(4, 1);
        let buffers = Arc::new(BufferRegistry::new());
        let a = buffers.register(vec![7u8; 32]);
        let out = buffers.register(vec![0u8; 8]);
        let mut dm = DataManager::new();
        dm.register_host_buffer(a, 32);
        dm.register_host_buffer(out, 8);
        let mut graph = RegionGraph::new();
        let kind = TaskKind::Target { kernel: KernelId(0), cost_hint: 1e-6 };
        graph.add_task(kind.clone(), vec![Dependence::input(a)], "r0");
        graph.add_task(kind.clone(), vec![Dependence::input(a)], "r1");
        graph.add_task(kind.clone(), vec![Dependence::inout(a)], "w");
        graph.add_task(kind.clone(), vec![Dependence::input(a), Dependence::output(out)], "r+o");
        for label in ["r3", "r4", "r5"] {
            graph.add_task(kind.clone(), vec![Dependence::input(a)], label);
        }
        let enter = TaskKind::EnterData { buffer: a, map: MapType::To };
        graph.add_task(enter, vec![Dependence::output(a)], "enter");
        let exit = TaskKind::ExitData { buffer: a, map: MapType::From };
        graph.add_task(exit, vec![Dependence::inout(a)], "exit");
        let path = DataPath {
            events: Arc::new(EventSystem::new(world.communicator(0))),
            buffers,
            dm: Arc::new(Mutex::new(dm)),
            telemetry: Telemetry::off(),
        };
        let cv = Arc::new(Condvar::new());
        let config = OmpcConfig::small();
        let low = Lowering::new(path, cv, 1, Arc::new(graph), HashMap::new(), &config).unwrap();
        Fixture { _world: world, low, a }
    }

    /// The fixture's enter-data and exit-data tasks.
    const ENTER: usize = 7;
    const EXIT: usize = 8;

    fn lower_task(low: &Lowering, task: usize, node: NodeId) -> (Composite, Record) {
        match low.lower(task, node).unwrap() {
            Lowered::Task(work, record) => (work, record),
            _ => panic!("task {task} must lower to a composite"),
        }
    }

    /// Copies of the fixture's two buffers booked as in flight.
    fn inflight_entries(low: &Lowering) -> usize {
        let dm = low.path.dm.lock();
        let pairs = (0..2).flat_map(|b| (1..4).map(move |node| (BufferId(b), node)));
        pairs
            .filter(|&(b, n)| matches!(dm.transfer_state(b, n), TransferState::InFlight(_)))
            .count()
    }

    #[test]
    fn a_reader_owns_its_transfer_and_a_colocated_reader_awaits_it() {
        let Fixture { low, a, .. } = &fixture();
        let (work, _record) = lower_task(low, 0, 1);
        assert!(
            matches!(&work.steps[..], [TaskStep::RecvFromHead { buffer }, TaskStep::Execute { .. }] if buffer == a),
            "unexpected steps: {:?}",
            work.steps
        );
        assert_eq!(work.payloads.len(), 1);
        assert_eq!(&work.payloads[0][..], &[7u8; 32][..]);
        let host = low.path.buffers.share(*a).unwrap();
        assert!(work.payloads[0].same_allocation(&host), "the registry's buffer is the frame");
        assert!(work.exchanges.is_empty());
        assert_eq!(low.path.dm.lock().transfer_log().len(), 1, "one transfer, one log record");
        assert_eq!(inflight_entries(low), 1, "one owned transfer, one gate entry");

        // The second reader on the same node plans nothing of its own.
        let (work, _record) = lower_task(low, 1, 1);
        assert!(
            matches!(&work.steps[..], [TaskStep::AwaitLocal { buffer, .. }, TaskStep::Execute { .. }] if buffer == a),
            "unexpected steps: {:?}",
            work.steps
        );
        assert!(work.payloads.is_empty() && work.exchanges.is_empty());
        assert_eq!(low.path.dm.lock().transfer_log().len(), 1, "no second log record");
        assert_eq!(inflight_entries(low), 1);

        // A reader on another node is a transfer of its own, of the same
        // allocation.
        let (other, _record) = lower_task(low, 1, 2);
        assert!(matches!(
            &other.steps[..],
            [TaskStep::RecvFromHead { .. }, TaskStep::Execute { .. }]
        ));
        assert!(other.payloads[0].same_allocation(&host));
        assert_eq!(inflight_entries(low), 2);
    }

    /// Worker `rank`'s next event off the control tag. An event the head
    /// never sends fails the test instead of hanging it.
    fn next_event(world: &World, rank: usize) -> crate::protocol::EventNotification {
        use crate::protocol::{EventNotification, CONTROL_TAG};
        let patience = std::time::Duration::from_secs(10);
        let comm = world.communicator(rank);
        let msg = comm.recv_timeout(Some(HEAD_NODE), Some(CONTROL_TAG), patience).unwrap();
        EventNotification::decode(&msg.data).unwrap()
    }

    /// Act as worker `rank` for one event: handle it against `memory`.
    fn serve(world: &World, rank: usize, memory: &crate::worker::DeviceMemory) {
        let notification = next_event(world, rank);
        let kernels = crate::kernel::KernelRegistry::new();
        let comm = world.communicator(rank);
        crate::worker::handle_event(&comm, memory, &kernels, notification).unwrap();
    }

    /// Act as a killed worker `rank` for one event: refuse it, as the
    /// zombie gate does.
    fn refuse(world: &World, rank: usize) {
        use crate::protocol::EventReply;
        let notification = next_event(world, rank);
        let error = OmpcError::RemoteEvent {
            node: rank,
            event: notification.tag.0,
            error: Box::new(OmpcError::NodeFailure(rank)),
        };
        let channel = world.communicator(rank).on(notification.comm).unwrap();
        channel.send(HEAD_NODE, notification.tag, EventReply::Err(error).encode()).unwrap();
    }

    /// Deliver a lowered car to worker `node` as a task of its own, let the
    /// worker handle it against `memory`, and retire the task with its reply.
    fn deliver(
        low: &Lowering,
        world: &World,
        (task, node): (usize, NodeId),
        (work, record): (Composite, Record),
        memory: &crate::worker::DeviceMemory,
    ) -> OmpcResult<()> {
        let channel = low.path.events.post_task(node, work).unwrap();
        serve(world, node, memory);
        low.retire(task, record, low.path.events.await_reply(&channel))
    }

    #[test]
    fn a_buffer_is_one_allocation_from_the_registry_to_device_memory_and_back() {
        let Fixture { low, a, _world: world } = &fixture();
        let path = &low.path;
        let host = path.buffers.share(*a).unwrap();
        let memories = [crate::worker::DeviceMemory::new(), crate::worker::DeviceMemory::new()];

        // Head → both workers, an enter car each: one allocation, held
        // three times.
        for (node, memory) in [1, 2].into_iter().zip(&memories) {
            let (work, record) = lower_task(low, ENTER, node);
            assert!(matches!(&work.steps[..], [TaskStep::RecvFromHead { buffer }] if buffer == a));
            assert!(work.payloads[0].same_allocation(&host));
            deliver(low, world, (ENTER, node), (work, record), memory).unwrap();
        }
        for memory in &memories {
            assert!(memory.get(*a).unwrap().same_allocation(&host));
        }
        assert_eq!(path.dm.lock().holders(*a), vec![HEAD_NODE, 1, 2]);

        // Worker → head, an exit car: the registry ends up holding the
        // worker's allocation, whatever the kernel there made of the buffer.
        let produced = Bytes::from(vec![9u8; 48]);
        memories[0].store(*a, produced.clone());
        path.dm.lock().record_write(*a, 1).unwrap();
        let (work, record) = lower_task(low, EXIT, 1);
        assert_eq!(work.steps, vec![TaskStep::Retrieve { buffer: *a }]);
        deliver(low, world, (EXIT, 1), (work, record), &memories[0]).unwrap();
        assert!(path.buffers.share(*a).unwrap().same_allocation(&produced));
        assert_eq!(path.buffers.get(*a).unwrap(), vec![9u8; 48]);
        assert_eq!(&host[..], &[7u8; 32][..], "earlier holders keep the version they took");
        // Each payload and the retrieval are one data movement apiece.
        let counters = path.events.counters();
        let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!((count(&counters.data_events), count(&counters.bytes_moved)), (3, 32 + 32 + 48));
    }

    #[test]
    fn an_enter_car_carries_the_delete_it_owes_ahead_of_its_receive() {
        let Fixture { low, a, .. } = &fixture();
        let owed = |low: &Lowering| low.state.lock().deferred_deletes.get(&1).cloned();
        let stale = || low.state.lock().deferred_deletes.entry(1).or_default().insert(*a);
        stale();
        let (work, record) = lower_task(low, ENTER, 1);
        let expected = vec![TaskStep::Delete { buffer: *a }, TaskStep::RecvFromHead { buffer: *a }];
        assert_eq!(work.steps, expected, "one composite, the delete ahead of the receive");
        assert_eq!(owed(low), None);

        // The car reached the worker, which deleted first, and failed: its
        // booking is rolled back, and nothing stale is left to owe.
        let boom = OmpcError::Communication("payload lost".into());
        assert_eq!(low.retire(ENTER, record, Err(boom.clone())), Err(boom));
        assert!(low.path.dm.lock().transfer_log().is_empty());
        assert_eq!(inflight_entries(low), 0);
        assert_eq!(owed(low), None);

        // A car whose train never departed owes its deletes again, as a
        // target car does.
        stale();
        let (work, record) = lower_task(low, ENTER, 1);
        assert_eq!(work.steps, expected);
        low.abandon(record, &OmpcError::Communication("never sent".into()));
        assert_eq!(owed(low), Some([*a].into_iter().collect()));
        assert_eq!(inflight_entries(low), 0);
    }

    #[test]
    fn an_exit_car_goes_to_the_node_the_bytes_come_from() {
        let Fixture { low, a, .. } = &fixture();
        // The latest version was written on node 2; pinned node 1 holds it too.
        {
            let mut dm = low.path.dm.lock();
            dm.record_write(*a, 2).unwrap();
            dm.record_replica(*a, 1).unwrap();
        }
        let (work, record) = lower_task(low, EXIT, 1);
        assert_eq!(work.steps, vec![TaskStep::Retrieve { buffer: *a }]);
        assert!(work.returns_data(), "its reply is the buffer");
        assert_eq!(record.node(), 2, "trained to the source, not the pinned node");
        // A reply without the buffer is a typed error, and commits nothing.
        let err = low.retire(EXIT, record, Ok(Reply::default())).unwrap_err();
        assert!(matches!(err, OmpcError::Internal(_)), "{err:?}");
        assert_eq!(low.path.dm.lock().retrieve_source(*a), Some(2));
    }

    #[test]
    fn a_failed_retire_restores_holders_log_and_gate() {
        let Fixture { low, a, .. } = &fixture();
        let holders_before = low.path.dm.lock().holders(*a);
        let (work, record) = lower_task(low, 3, 1);
        assert!(work.steps.iter().any(|s| matches!(s, TaskStep::Alloc { .. })));
        let (waiter, _) = lower_task(low, 1, 1);
        assert!(matches!(waiter.steps[0], TaskStep::AwaitLocal { .. }), "{:?}", waiter.steps);
        assert_ne!(low.path.dm.lock().holders(*a), holders_before);

        let boom = OmpcError::RemoteEvent {
            node: 2,
            event: 9,
            error: Box::new(OmpcError::NodeFailure(2)),
        };
        assert_eq!(low.retire(3, record, Err(boom.clone())), Err(boom.clone()));
        {
            let dm = low.path.dm.lock();
            assert_eq!(dm.holders(*a), holders_before, "the optimistic holder is forgotten");
            assert!(!dm.is_present(BufferId(a.0 + 1), 1), "so is the optimistic alloc");
            assert!(dm.transfer_log().is_empty(), "the log record is withdrawn");
        }
        assert_eq!(inflight_entries(low), 0, "nothing is on the wire any more");
        // Whoever awaits the copy on the head sees the owner's error, blame
        // included (the worker-side waiter hears it from the receive itself).
        assert_eq!(low.path.dm.lock().transfer_state(*a, 1), TransferState::Invalid(Some(boom)));
        // And a reader lowered now plans the transfer again.
        let (again, _record) = lower_task(low, 0, 1);
        assert!(matches!(
            &again.steps[..],
            [TaskStep::RecvFromHead { .. }, TaskStep::Execute { .. }]
        ));
        assert_eq!(low.path.dm.lock().transfer_log().len(), 1);
    }

    #[test]
    fn a_reader_of_another_region_awaits_a_colocated_transfer_too() {
        let Fixture { low, a, .. } = &fixture();
        // A tenant of a device admitting two regions at once.
        let tenant = |region| {
            let cv = Arc::clone(&low.inflight_cv);
            let config = OmpcConfig { max_concurrent_regions: 2, ..OmpcConfig::small() };
            let graph = Arc::clone(&low.graph);
            Lowering::new(low.path.clone(), cv, region, graph, HashMap::new(), &config).unwrap()
        };
        let second = tenant(2);
        let (work, owner) = lower_task(low, 0, 1);
        assert!(matches!(
            &work.steps[..],
            [TaskStep::RecvFromHead { .. }, TaskStep::Execute { .. }]
        ));

        // Region 2's reader on the node region 1's bytes are travelling to
        // awaits them instead of computing on whatever is there now — on the
        // head, booking nothing: none of its events is queued ahead of the
        // reader on the node ...
        let parked = second.lower(1, 1).unwrap();
        assert!(matches!(&parked, Lowered::Parked(awaiting) if awaiting == &[*a]));
        assert_eq!(second.awaited(1, &[*a]), None, "region 1's transfer is still on the wire");
        assert_eq!(low.path.dm.lock().transfer_log().len(), 1, "no second log record");
        // ... and its reader on another node is an ordinary plan of its own.
        let (work, _record) = lower_task(&second, 0, 2);
        assert!(
            matches!(&work.steps[..], [TaskStep::RecvFromHead { .. }, TaskStep::Execute { .. }]),
            "unexpected steps: {:?}",
            work.steps
        );

        // Region 1's transfer fails: region 2's waiter gets that very error,
        // and whoever lowers a reader next moves the bytes again.
        let boom = OmpcError::Communication("link down".into());
        assert_eq!(low.retire(0, owner, Err(boom.clone())), Err(boom.clone()));
        assert_eq!(second.awaited(1, &[*a]), Some(Err(boom)));
        let (again, _record) = lower_task(&tenant(3), 0, 1);
        assert!(matches!(
            &again.steps[..],
            [TaskStep::RecvFromHead { .. }, TaskStep::Execute { .. }]
        ));
    }

    #[test]
    fn an_abandoned_lowering_owes_its_attached_deletes_again() {
        let Fixture { low, a, .. } = &fixture();
        // A replica on node 2, then a write on node 1: node 2's copy is
        // stale and its delete waits for a composite headed there.
        let (_, reader) = lower_task(low, 0, 2);
        low.retire(0, reader, Ok(Reply::default())).unwrap();
        let (_, writer) = lower_task(low, 2, 1);
        low.retire(2, writer, Ok(Reply::default())).unwrap();
        assert_eq!(low.path.dm.lock().holders(*a), vec![1]);
        let owed = |low: &Lowering| low.state.lock().deferred_deletes.get(&2).cloned();
        assert_eq!(owed(low), Some([*a].into_iter().collect()));

        // The next task on node 2 carries the delete ahead of its receive.
        let (work, record) = lower_task(low, 1, 2);
        assert!(
            matches!(&work.steps[..], [TaskStep::Delete { buffer }, TaskStep::RecvFromWorker { from: 1, .. }, TaskStep::Execute { .. }] if buffer == a),
            "unexpected steps: {:?}",
            work.steps
        );
        assert_eq!(work.exchanges.len(), 1);
        assert_eq!(owed(low), None);

        // Its train never departs.
        low.abandon(record, &OmpcError::Communication("never sent".into()));
        assert_eq!(owed(low), Some([*a].into_iter().collect()), "the delete is owed again");
        assert_eq!(low.path.dm.lock().holders(*a), vec![1], "the planned replica is forgotten");
        assert_eq!(inflight_entries(low), 0);
        let (work, _record) = lower_task(low, 1, 2);
        assert!(matches!(work.steps[0], TaskStep::Delete { .. }), "and rides the next composite");
    }

    #[test]
    fn a_flush_attempts_every_node_and_keeps_owing_the_one_that_failed() {
        let Fixture { low, a, _world: world } = &fixture();
        let out = BufferId(a.0 + 1);
        {
            let mut state = low.state.lock();
            state.deferred_deletes.entry(1).or_default().insert(*a);
            state.deferred_deletes.entry(2).or_default().extend([*a, out]);
        }
        let memory = crate::worker::DeviceMemory::new();
        memory.store(*a, vec![7u8; 32].into());
        memory.store(out, vec![0u8; 8].into());

        // Node 1 was killed but is not yet declared failed; node 2, after it
        // in node order, is healthy.
        let flushed = std::thread::scope(|scope| {
            scope.spawn(|| refuse(world, 1));
            scope.spawn(|| serve(world, 2, &memory));
            low.flush_deletes()
        });
        assert!(
            matches!(&flushed, Err(OmpcError::RemoteEvent { node: 1, error, .. }) if **error == OmpcError::NodeFailure(1)),
            "the error is node 1's: {flushed:?}"
        );
        assert!(memory.is_empty(), "node 2's copies went in one task all the same");
        let owed = |node| low.state.lock().deferred_deletes.get(&node).cloned();
        assert_eq!(owed(1), Some([*a].into_iter().collect()), "node 1 is still owed its delete");
        assert_eq!(owed(2), None);

        // Once the node is declared dead nothing is owed or sent any more:
        // the first flush's task per node are all the tasks there are.
        low.path.dm.lock().fail_node(1).unwrap();
        assert_eq!(low.flush_deletes(), Ok(()));
        assert!(low.state.lock().deferred_deletes.is_empty());
        assert_eq!(low.path.events.counters().events.load(Ordering::Relaxed), 2);
    }

    /// Task 2's update of `a` on node 1 is read by tasks 3 and 4 on node 2,
    /// task 5 on node 3 and task 6 beside it on node 1.
    const READERS_SPREAD: [NodeId; 7] = [1, 1, 1, 2, 2, 3, 1];

    /// The `(buffer, destination)` of every push step among `steps`.
    fn pushes(steps: &[TaskStep]) -> Vec<(BufferId, NodeId)> {
        let push = |step: &TaskStep| match *step {
            TaskStep::Push { buffer, to, .. } => Some((buffer, to)),
            _ => None,
        };
        steps.iter().filter_map(push).collect()
    }

    #[test]
    fn a_producer_pushes_once_per_remote_reader_node_and_the_first_reader_claims() {
        let Fixture { low, a, .. } = &fixture();
        let a = *a;
        low.assign(&READERS_SPREAD);
        let (work, record) = lower_task(low, 2, 1);
        assert!(
            matches!(
                &work.steps[..],
                [
                    TaskStep::RecvFromHead { .. },
                    TaskStep::Execute { .. },
                    TaskStep::Push { .. },
                    TaskStep::Push { .. }
                ]
            ),
            "the pushes end the composite: {:?}",
            work.steps
        );
        assert_eq!(pushes(&work.steps), vec![(a, 2), (a, 3)], "one per remote reader node");
        let channel_to = |node| {
            let step =
                work.steps.iter().find(|s| matches!(s, TaskStep::Push { to, .. } if *to == node));
            match step {
                Some(&TaskStep::Push { tag, comm, .. }) => (tag, comm),
                _ => panic!("no push to node {node}"),
            }
        };
        assert_ne!(channel_to(2), channel_to(3), "each push has a channel of its own");
        assert_eq!(low.path.dm.lock().transfer_log().len(), 1, "nothing is booked before it ran");

        // The producer is done: its pushes are booked from it, as the pulls
        // they replace would have been, and cost the head no event.
        low.retire(2, record, Ok(Reply::default())).unwrap();
        let forwards: Vec<(NodeId, NodeId)> = (low.path.dm.lock().transfer_log().iter())
            .filter(|t| t.reason == TransferReason::Input && t.from != HEAD_NODE)
            .map(|t| (t.from, t.to))
            .collect();
        assert_eq!(forwards, vec![(1, 2), (1, 3)]);
        let counters = low.path.events.counters();
        let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(count(&counters.events), 0, "a push is no event of the head's");
        assert_eq!((count(&counters.data_events), count(&counters.bytes_moved)), (2, 64));

        // A reader beside the producer plans nothing.
        let (beside, _record) = lower_task(low, 6, 1);
        assert!(matches!(&beside.steps[..], [TaskStep::Execute { .. }]), "{:?}", beside.steps);
        // The first reader on node 2 claims the push on its channel ...
        let (first, _record) = lower_task(low, 3, 2);
        let (tag, comm) = channel_to(2);
        assert!(
            matches!(&first.steps[..], [TaskStep::Claim { buffer, from: 1, .. }, TaskStep::Alloc { .. }, TaskStep::Execute { .. }] if *buffer == a),
            "unexpected steps: {:?}",
            first.steps
        );
        assert_eq!(first.steps[0], TaskStep::Claim { buffer: a, from: 1, tag, comm });
        assert!(first.payloads.is_empty() && first.exchanges.is_empty(), "the head sends nothing");
        // ... and the second awaits that receive.
        let (second, _record) = lower_task(low, 4, 2);
        assert!(
            matches!(&second.steps[..], [TaskStep::AwaitLocal { buffer, .. }, TaskStep::Execute { .. }] if *buffer == a),
            "unexpected steps: {:?}",
            second.steps
        );
        let (third_node, _record) = lower_task(low, 5, 3);
        assert!(matches!(third_node.steps[0], TaskStep::Claim { from: 1, .. }));
        assert_eq!(low.path.dm.lock().transfer_log().len(), 3, "no reader books a transfer");
    }

    #[test]
    fn a_failed_producer_leaves_nothing_booked() {
        let Fixture { low, a, .. } = &fixture();
        low.assign(&READERS_SPREAD);
        let (work, record) = lower_task(low, 2, 1);
        assert_eq!(pushes(&work.steps).len(), 2);
        let boom = OmpcError::RemoteEvent {
            node: 1,
            event: 5,
            error: Box::new(OmpcError::UnknownKernel(KernelId(0))),
        };
        assert_eq!(low.retire(2, record, Err(boom.clone())), Err(boom));
        assert!(low.path.dm.lock().transfer_log().is_empty());
        assert_eq!(inflight_entries(low), 0);
        let state = low.state.lock();
        assert!(state.unclaimed.is_empty() && state.discards.is_empty());
        drop(state);
        // A reader lowered now fetches the version that is still the latest.
        let (work, _record) = lower_task(low, 3, 2);
        assert!(matches!(work.steps[0], TaskStep::RecvFromHead { buffer } if buffer == *a));
    }

    #[test]
    fn a_claim_that_never_leaves_is_dropped_and_a_dead_node_ends_its_pushes() {
        let Fixture { low, a, .. } = &fixture();
        let a = *a;
        low.assign(&READERS_SPREAD);
        let (_, record) = lower_task(low, 2, 1);
        low.retire(2, record, Ok(Reply::default())).unwrap();
        let owed =
            |low: &Lowering| low.state.lock().discards.iter().map(|p| p.to).collect::<Vec<_>>();
        let (work, record) = lower_task(low, 3, 2);
        assert!(matches!(work.steps[0], TaskStep::Claim { .. }));
        // Its train never departs: the copy it claimed is owed a drop, and
        // the next reader there fetches the version afresh.
        low.abandon(record, &OmpcError::Communication("never sent".into()));
        assert_eq!(owed(low), vec![2]);
        let (work, _record) = lower_task(low, 4, 2);
        assert!(
            matches!(work.steps[0], TaskStep::RecvFromWorker { from: 1, .. }),
            "{:?}",
            work.steps
        );

        // The producer's node dies: the push nobody claimed yet is over —
        // its record withdrawn, its copy owed a drop too — while the pull is
        // its reader's to finish.
        low.invalidate_node(1);
        let dm = low.path.dm.lock();
        let failed = TransferState::Invalid(Some(OmpcError::NodeFailure(1)));
        assert_eq!(dm.transfer_state(a, 3), failed);
        assert_eq!(dm.transfer_state(a, 2), TransferState::InFlight(Owner::Region(1)));
        assert!(dm.transfer_log().iter().all(|t| t.to != 3));
        drop(dm);
        assert!(low.state.lock().unclaimed.is_empty());
        assert_eq!(owed(low), vec![2, 3]);
    }

    /// The channel of the push to `node` among `steps`.
    fn push_channel(steps: &[TaskStep], node: NodeId) -> (Tag, CommId) {
        let channel = |step: &TaskStep| match *step {
            TaskStep::Push { to, tag, comm, .. } if to == node => Some((tag, comm)),
            _ => None,
        };
        steps.iter().find_map(channel).expect("a push to the node")
    }

    /// The worker-to-worker forwards on record, as `(from, to)`.
    fn forwards(low: &Lowering) -> Vec<(NodeId, NodeId)> {
        let log = low.path.dm.lock().transfer_log();
        log.iter().filter(|t| t.from != HEAD_NODE).map(|t| (t.from, t.to)).collect()
    }

    #[test]
    fn a_later_write_ends_the_push_of_the_version_it_supersedes() {
        let Fixture { low, a, .. } = &fixture();
        let a = *a;
        low.assign(&READERS_SPREAD);
        let (first, record) = lower_task(low, 2, 1);
        low.retire(2, record, Ok(Reply::default())).unwrap();
        // The writer runs again — a recovery re-executes it — before any
        // reader claimed its first pushes: those are over, its new ones
        // are booked in their place.
        let (second, record) = lower_task(low, 2, 1);
        low.retire(2, record, Ok(Reply::default())).unwrap();
        assert_eq!(forwards(low), vec![(1, 2), (1, 3)], "the first pushes' records withdrawn");
        let dropped: Vec<_> = (low.state.lock().discards.iter()).map(|p| (p.to, p.tag)).collect();
        let first_tag = |node| push_channel(&first.steps, node).0;
        assert_eq!(dropped, vec![(2, first_tag(2)), (3, first_tag(3))]);
        // The reader claims the version it reads.
        let (reader, _record) = lower_task(low, 3, 2);
        let (tag, comm) = push_channel(&second.steps, 2);
        assert_eq!(reader.steps[0], TaskStep::Claim { buffer: a, from: 1, tag, comm });
    }

    #[test]
    fn a_recovery_that_moves_the_readers_off_a_node_ends_the_push_there() {
        let Fixture { low, a, .. } = &fixture();
        low.assign(&READERS_SPREAD);
        let (work, record) = lower_task(low, 2, 1);
        assert_eq!(pushes(&work.steps), vec![(*a, 2), (*a, 3)]);
        // Node 3's reader moves beside the producer before it is done: its
        // push to node 3 is sent but never booked.
        let mut moved = READERS_SPREAD;
        moved[5] = 1;
        low.assign(&moved);
        low.retire(2, record, Ok(Reply::default())).unwrap();
        assert_eq!(forwards(low), vec![(1, 2)]);
        let dropped = |low: &Lowering| -> Vec<NodeId> {
            low.state.lock().discards.iter().map(|p| p.to).collect()
        };
        assert_eq!(dropped(low), vec![3]);
        // Node 2's readers move too: the booked push there is over.
        moved[3] = 1;
        moved[4] = 3;
        low.assign(&moved);
        assert_eq!(forwards(low), Vec::new());
        assert_eq!(dropped(low), vec![3, 2]);
        assert!(low.state.lock().unclaimed.is_empty());
        let nobody = OmpcError::Communication("no reader claimed the push".into());
        let failed = TransferState::Invalid(Some(nobody));
        assert_eq!(low.path.dm.lock().transfer_state(*a, 2), failed);
    }

    #[test]
    fn one_end_of_run_event_per_node_carries_its_deletes_and_its_drops() {
        use crate::protocol::{EventRequest, TaskSpec};
        use crate::worker::DeviceMemory;
        let Fixture { low, a, _world: world } = &fixture();
        let a = *a;
        low.assign(&READERS_SPREAD);
        let (work, record) = lower_task(low, 2, 1);
        low.retire(2, record, Ok(Reply::default())).unwrap();
        low.state.lock().deferred_deletes.entry(2).or_default().insert(a);
        let memory = DeviceMemory::new();
        memory.store(a, vec![7u8; 32].into());
        let kernels = crate::kernel::KernelRegistry::new();
        // Act as worker `node` for one event, and say what it was.
        let act = |node, memory: &DeviceMemory| {
            let notification = next_event(world, node);
            let request = notification.request.clone();
            let comm = world.communicator(node);
            crate::worker::handle_event(&comm, memory, &kernels, notification).unwrap();
            request
        };
        let (two, three) = std::thread::scope(|scope| {
            let two = scope.spawn(|| act(2, &memory));
            let three = scope.spawn(|| act(3, &DeviceMemory::new()));
            assert_eq!(low.flush_deletes(), Ok(()));
            (two.join().unwrap(), three.join().unwrap())
        });
        let discard = |node| {
            let (tag, comm) = push_channel(&work.steps, node);
            TaskStep::Discard { from: 1, tag, comm }
        };
        let task = |steps| EventRequest::Task(TaskSpec { steps });
        assert_eq!(two, task(vec![TaskStep::Delete { buffer: a }, discard(2)]));
        assert_eq!(three, task(vec![discard(3)]));
        assert!(memory.is_empty());
        assert_eq!(low.path.events.counters().events.load(Ordering::Relaxed), 2);
        let state = low.state.lock();
        assert!(state.unclaimed.is_empty() && state.discards.is_empty());
        assert!(state.deferred_deletes.is_empty());
        drop(state);
        assert_eq!(forwards(low), Vec::new(), "the unclaimed pushes' records are withdrawn");
    }

    #[test]
    fn a_task_on_a_dead_node_lowers_to_nothing() {
        let Fixture { low, .. } = &fixture();
        low.path.dm.lock().fail_node(2).unwrap();
        assert!(matches!(low.lower(0, 2), Ok(Lowered::Done)));
        assert!(low.path.dm.lock().transfer_log().is_empty());
        // A task parked towards the dead node waits for nothing any more.
        assert_eq!(low.awaited(2, &[BufferId(0)]), Some(Ok(())));
    }
}
