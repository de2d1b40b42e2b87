//! The one lowering of a planned task into device operations (paper §4.3
//! deciding what moves, §4.2 moving it), which the message-passing
//! transport (`runtime/mpi.rs`) delivers.
//!
//! [`Lowering::lower_into`] turns a task plus the [`DataManager`]'s residency
//! state into the wire vocabulary the workers speak — every region task
//! that moves bytes becomes one car of its node's train, its steps written
//! straight into the train's frame ([`CarWriter`]):
//!
//! * a target task: `Delete`* / `RecvFromHead` / `RecvFromWorker` / `Claim`
//!   / `AwaitLocal` / `Alloc` / `Execute` / `Push`* steps with their payload
//!   frames and exchange sources;
//! * an enter-data task: `Delete`* then a `RecvFromHead`, a `RecvFromWorker`
//!   (its source told an `ExchangeSend`), or an `Alloc`;
//! * an exit-data task: one `Retrieve`, on the node the bytes come from,
//!   whose reply is the buffer;
//! * a host task (flushed and run right here, outside every lock), a no-op
//!   data task, or a task bound for a dead node is no car at all.
//!
//! A car is written into the device's one train table
//! ([`EventSystem::trains`]) in the same critical section as the bookings it
//! makes, so cars reach a node in the order their bookings were made, across
//! every running region execution.
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
//! a second transfer, whichever region that somebody is of: the first
//! reader of a pushed copy claims the push, and any other reader's car
//! carries an `AwaitLocal` step. The car that queued the receive reached the
//! node ahead of the reader's, so the worker waits for that very receive to
//! land or fail (first-in-first-out on the node, so even one handler thread
//! cannot deadlock on it).
//!
//! A reader lowered before its producer retired — the core dispatches one
//! once its producers' cars are launched — reads a version the data
//! manager does not know yet. The lowering keeps the writes it lowered and
//! has not retired: beside its producer the reader awaits the producer's
//! write (`AwaitLocal`, the producer's car announcing it with a `Wrote`
//! step), elsewhere it claims the push the producer's car already carries
//! and a second reader there awaits that claim. The producer's retire
//! attaches the push's booking to the claim, and owes no delete to a node a
//! claim of a newer version is already queued on.
//!
//! The pushes nobody claimed yet and what is owed to a node — stale and
//! released copies to delete, pushes to drop — are the [`DataManager`]'s. A
//! target or enter-data car takes every delete owed to its node as `Delete`
//! prologue steps, and [`Lowering::flush_deletes`] sends each live node the
//! rest in one task.
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
use crate::buffer::BufferRegistry;
use crate::cluster::HostFn;
use crate::config::OmpcConfig;
use crate::data_manager::{Booking, DataManager, Push, TransferReason, HEAD_NODE};
use crate::event::{CarWriter, Envelope, EventSystem, TypedReply};
use crate::protocol::{Reply, TaskStep};
use crate::task::{RegionGraph, TargetTask, TaskKind};
use crate::types::{BufferId, KernelId, MapType, NodeId, OmpcError, OmpcResult, TaskId};
use ompc_mpi::{Bytes, Tag};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Range;
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

/// What the head must settle when a lowered task's reply arrives.
#[derive(Default)]
pub(crate) struct Record {
    /// The task lowered.
    task: usize,
    /// The node the car goes to and its effects land on (for an exit-data
    /// retrieval, the node the bytes come from).
    node: NodeId,
    /// Where this lowering's entries are in the [`State`] tables: the
    /// buffers whose inbound transfer to `node` it booked, the pushes it
    /// claimed (their buffers are among those), and the copies it pushes,
    /// booked when it succeeds.
    owned: Range<usize>,
    claims: Range<usize>,
    pushes: Range<usize>,
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

    /// Whether the car's reply is the data: its body is the buffer of an
    /// exit-data car's [`TaskStep::Retrieve`] step.
    pub(crate) fn returns_data(&self) -> bool {
        matches!(self.kind, RecordKind::ExitData { .. })
    }
}

#[derive(Default)]
enum RecordKind {
    /// What it writes is read off the graph when it retires.
    #[default]
    Target,
    /// The transfer is owned — or, for an alloc, `replica` is the copy to
    /// record on success.
    EnterData { replica: Option<BufferId> },
    /// The reply's body is the buffer contents; `release` the device copies
    /// afterwards unless the buffer is keep-resident.
    ExitData { buffer: BufferId, release: bool },
}

/// The assignment, and what the lowerings of this execution booked,
/// appended as each task is lowered: the inbound transfers it owns, the
/// pushes it claims and the copies it pushes. A task is lowered under one
/// lock, so its entries are contiguous and its [`Record`] keeps only where
/// they are: lowering a task allocates nothing, and the tables grow by
/// doubling.
#[derive(Default)]
struct State {
    assignment: Vec<NodeId>,
    owned: Vec<BufferId>,
    claims: Vec<Push>,
    pushes: Vec<Push>,
    /// Per push, whether a reader lowered before its producer retired has
    /// claimed it: its claim is on the reader's node, and the producer's
    /// retire attaches the booking to it.
    claimed_early: Vec<bool>,
    /// The writes lowered and not retired yet, oldest first: what a reader
    /// lowered meanwhile awaits on its worker.
    writes: Vec<Write>,
    /// Where [`Lowering::plan_pushes`] sorts a producer's pushes.
    scratch: Vec<Push>,
    /// Where a retire lists the nodes a newer version is claimed on.
    claimed_on: Vec<NodeId>,
}

/// A write of `buffer` on `node` by a task that is lowered and has not
/// retired, with where its pushes are in [`State::pushes`].
#[derive(Clone, Copy)]
struct Write {
    buffer: BufferId,
    task: usize,
    node: NodeId,
    pushes: (usize, usize),
}

impl State {
    /// Take `push`, claimed from the [`DataManager`] for `car`, if there is
    /// one: its booking is the car's to finish.
    fn claimed(&mut self, car: &mut CarWriter, push: Option<Push>) -> bool {
        let Some(push) = push else { return false };
        car.step(&TaskStep::Claim { buffer: push.buffer, tag: push.tag });
        self.owned.push(push.buffer);
        self.claims.push(push);
        true
    }

    /// The push on channel `tag` of a write not retired yet, by its place in
    /// [`State::pushes`].
    fn pending_push(&self, tag: Tag) -> Option<usize> {
        let mut pending = self.writes.iter().flat_map(|w| w.pushes.0..w.pushes.1);
        pending.find(|&at| self.pushes[at].tag == tag)
    }

    /// Every node a claim of a version of `buffer` not retired yet is on, into
    /// [`State::claimed_on`].
    fn list_claimed_on(&mut self, buffer: BufferId) {
        let State { writes, pushes, claimed_early, claimed_on, .. } = self;
        claimed_on.clear();
        for w in writes.iter().filter(|w| w.buffer == buffer) {
            let claimed = (w.pushes.0..w.pushes.1).filter(|&at| claimed_early[at]);
            claimed_on
                .extend(claimed.map(|at| pushes[at]).filter(|p| p.buffer == buffer).map(|p| p.to));
        }
    }
}

/// The lowering of one region execution. `state` is taken after the train
/// table and before the data manager, never the other way round.
pub(crate) struct Lowering {
    pub(super) path: DataPath,
    /// Transfer-log namespace of this execution: the region epoch issued
    /// when it started.
    pub(super) region: u64,
    pub(super) graph: Arc<RegionGraph>,
    host_fns: HashMap<usize, HostFn>,
    pub(super) config: OmpcConfig,
    /// What every train of this execution's cars names: its completion
    /// channel, opened with the lowering, and its recorder.
    pub(super) envelope: Envelope,
    state: Mutex<State>,
}

impl Lowering {
    /// Build the lowering of one region execution. Rejects a fault plan
    /// naming a task the graph does not have.
    pub(crate) fn new(
        path: DataPath,
        region: u64,
        graph: Arc<RegionGraph>,
        host_fns: HashMap<usize, HostFn>,
        config: &OmpcConfig,
    ) -> OmpcResult<Self> {
        config.fault_plan.validate_task_errors(graph.len())?;
        let tag = path.events.open_channel();
        let envelope = Envelope { tag, telemetry: Arc::clone(&path.telemetry) };
        // Room for a push per edge of the graph: a region whose pairs share
        // one buffer each, the usual case, books no more, so the tables do
        // not grow during the run.
        let edges = graph.edges().len();
        let state = State {
            pushes: Vec::with_capacity(edges),
            claimed_early: Vec::with_capacity(edges),
            ..State::default()
        };
        Ok(Self {
            path,
            region,
            envelope,
            graph,
            host_fns,
            config: config.clone(),
            state: Mutex::new(state),
        })
    }

    /// Lower task `tid`, assigned to `node`, writing its car into the train
    /// of the node it goes to: the car's channel — its reply names it — and
    /// what to settle with the reply, or `None` when the task is complete
    /// with no car. `Err` is a head-side task failure (a rejected plan, a
    /// failed host flush, a panicking host body) with nothing left to roll
    /// back.
    ///
    /// A task bound for a node the failure injector killed completes as a
    /// no-op whose (stale) completion the core discards and restarts on a
    /// survivor: each lowering checks under the lock it plans with.
    pub(crate) fn lower_into(&self, tid: usize, node: NodeId) -> OmpcResult<Option<(Tag, Record)>> {
        let task = self.graph.task(TaskId(tid));
        match &task.kind {
            TaskKind::Host { .. } => self.run_host_task(tid, task).map(|()| None),
            TaskKind::EnterData { .. } if node == HEAD_NODE => Ok(None),
            TaskKind::EnterData { buffer, map } => self.lower_enter(tid, node, *buffer, *map),
            TaskKind::ExitData { buffer, map } => Ok(self.lower_exit(tid, node, *buffer, *map)),
            TaskKind::Target { kernel, .. } => self.lower_target(tid, node, task, *kernel),
        }
    }

    /// `car` joins its train as task `tid`'s, on a channel of its own.
    fn commit(&self, car: CarWriter, tid: usize) -> Tag {
        let tag = self.path.events.open_channel();
        car.commit(tid, tag);
        tag
    }

    /// A host task reads through the head's buffer registry, so every read
    /// buffer whose latest version lives on a worker is flushed home first —
    /// the host-side analogue of the input transfers a target task plans.
    /// Graph dependences order this after the producing task's completion.
    fn run_host_task(&self, tid: usize, task: &TargetTask) -> OmpcResult<()> {
        for dep in self.graph.dependences(task.id).iter().filter(|d| d.dep_type.reads()) {
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
    ) -> OmpcResult<Option<(Tag, Record)>> {
        /// The one step the car carries after its deletes.
        enum Input {
            Head(Bytes),
            Worker(NodeId, u64),
            Alloc(u64),
        }
        let mut trains = self.path.events.trains();
        let mut state = self.state.lock();
        let mut dm = self.path.dm.lock();
        if dm.is_failed(node) {
            return Ok(None);
        }
        let input = match map {
            MapType::To | MapType::ToFrom | MapType::ToResident => {
                let reason = TransferReason::EnterData;
                match dm.book(self.region, buffer, node, reason)? {
                    Booking::Present | Booking::Await => return Ok(None),
                    Booking::Move(plan) if plan.from != HEAD_NODE => {
                        let bytes = self.path.buffers.size_of(buffer).unwrap_or(0) as u64;
                        Input::Worker(plan.from, bytes)
                    }
                    Booking::Move(_) => match self.host_payload(buffer, tid) {
                        Ok(frame) => Input::Head(frame),
                        Err(e) => {
                            let _ = dm.finish(buffer, node, Err(e.clone()));
                            return Err(e);
                        }
                    },
                }
            }
            MapType::Alloc if !dm.is_present(buffer, node) => {
                Input::Alloc(self.path.buffers.size_of(buffer)? as u64)
            }
            MapType::Alloc | MapType::From | MapType::Release => return Ok(None),
        };
        let mut car = trains.car(node, &self.envelope);
        let deletes = dm.take_owed_deletes(node);
        drop(dm);
        for &buffer in &deletes {
            car.step(&TaskStep::Delete { buffer });
        }
        // A receive is a transfer it owns; an alloc, a copy to record.
        let replica = matches!(input, Input::Alloc(_)).then_some(buffer);
        match input {
            Input::Head(frame) => car.recv_from_head(buffer, frame),
            Input::Worker(from, bytes) => car.recv_from_worker(buffer, from, bytes),
            Input::Alloc(size) => car.step(&TaskStep::Alloc { buffer, size }),
        }
        let from = state.owned.len();
        state.owned.extend(replica.is_none().then_some(buffer));
        let owned = from..state.owned.len();
        let kind = RecordKind::EnterData { replica };
        let record = Record { task: tid, node, owned, deletes, kind, ..Record::default() };
        Ok(Some((self.commit(car, tid), record)))
    }

    /// A read-only plan: the latest-on-head commit (and its log entry)
    /// happens in [`Lowering::retire`] once the bytes arrived, so a source
    /// that dies mid-retrieval leaves the location state truthful.
    fn lower_exit(
        &self,
        tid: usize,
        node: NodeId,
        buffer: BufferId,
        map: MapType,
    ) -> Option<(Tag, Record)> {
        let mut trains = self.path.events.trains();
        let (from, keep_resident) = {
            let dm = self.path.dm.lock();
            if dm.is_failed(node) {
                return None;
            }
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
                let mut car = trains.car(from, &self.envelope);
                car.step(&TaskStep::Retrieve { buffer });
                let kind = RecordKind::ExitData { buffer, release: !keep_resident };
                let record = Record { task: tid, node: from, kind, ..Record::default() };
                Some((self.commit(car, tid), record))
            }
            None => {
                if !keep_resident {
                    self.path.dm.lock().release(buffer);
                }
                None
            }
        }
    }

    fn lower_target(
        &self,
        tid: usize,
        node: NodeId,
        task: &TargetTask,
        kernel: KernelId,
    ) -> OmpcResult<Option<(Tag, Record)>> {
        // Injected task error (fault plan): execute a deliberately
        // unregistered kernel so a genuine worker-side handler error
        // exercises the reply path end to end.
        let kernel =
            if self.config.fault_plan.has_task_error(tid) { POISONED_KERNEL } else { kernel };
        let mut trains = self.path.events.trains();
        let mut state = self.state.lock();
        // Plan the whole task under one acquisition of the data manager: a
        // co-located reader lowered later — of any region — either sees our
        // booking (and awaits the arrival) or plans its own transfer.
        let mut dm = self.path.dm.lock();
        if dm.is_failed(node) {
            return Ok(None);
        }
        let pushes = self.plan_pushes(&mut state, &dm, tid, node);
        // The car: the deletes it carries — ahead of any receive of the same
        // buffer, at no extra round trip — a step per dependence at most, the
        // kernel and the pushes.
        let mut car = trains.car(node, &self.envelope);
        let deletes = dm.take_owed_deletes(node);
        for &buffer in &deletes {
            car.step(&TaskStep::Delete { buffer });
        }
        let (owned, claims) = (state.owned.len(), state.claims.len());
        let planned = self.plan_inputs(&mut state, &mut dm, tid, node, task, &mut car);
        drop(dm);
        let owned = owned..state.owned.len();
        let claims = claims..state.claims.len();
        let dependences = self.graph.dependences(task.id);
        car.execute(kernel, dependences.iter().map(|d| d.buffer));
        let written = dependences.iter().filter(|d| d.dep_type.writes()).map(|d| d.buffer);
        // A reader beside it may be lowered before it retires: it awaits the write.
        for buffer in written.clone().filter(|&b| self.read_on(&state, tid, b, node)) {
            car.step(&TaskStep::Wrote { buffer });
        }
        for p in &state.pushes[pushes.clone()] {
            car.push(p.buffer, p.to, p.tag);
        }
        let kind = RecordKind::Target;
        let record = Record { task: tid, node, owned, claims, pushes, deletes, kind };
        match planned {
            Ok(()) => {
                let pushes = (record.pushes.start, record.pushes.end);
                let writes = written.map(|buffer| Write { buffer, task: tid, node, pushes });
                state.writes.extend(writes);
                Ok(Some((self.commit(car, tid), record)))
            }
            Err(error) => {
                // A rejected plan (an unknown buffer) aborts the task: its
                // car leaves the train, pushing nothing, and what was already
                // booked is resolved so its waiters error out.
                drop(car);
                let pushes = record.pushes.end..record.pushes.end;
                self.roll_back(&mut state, Record { pushes, ..record }, &error, true);
                Err(error)
            }
        }
    }

    /// Whether a target task assigned to `node` reads the version of `buffer` task `tid`
    /// writes.
    fn read_on(&self, state: &State, tid: usize, buffer: BufferId, node: NodeId) -> bool {
        let readers = self.graph.readers_of(TaskId(tid)).iter();
        let beside = |&&(b, r): &&(BufferId, TaskId)| {
            b == buffer && state.assignment.get(r.0) == Some(&node)
        };
        readers.filter(beside).any(|&(_, r)| self.graph.task(r).kind.is_target())
    }

    /// Plan every input of a task on `node`, and storage for its write-only
    /// outputs.
    fn plan_inputs(
        &self,
        state: &mut State,
        dm: &mut DataManager,
        tid: usize,
        node: NodeId,
        task: &TargetTask,
        car: &mut CarWriter,
    ) -> OmpcResult<()> {
        for dep in self.graph.dependences(task.id).iter().filter(|d| d.dep_type.reads()) {
            self.plan_read(state, dm, tid, node, dep.buffer, car)?;
        }
        // Write-only outputs: make sure storage exists on the node — an unclaimed copy
        // pushed here will do. It becomes the buffer's one holder when the write is recorded.
        for dep in self.graph.dependences(task.id).iter().filter(|d| !d.dep_type.reads()) {
            let push = dm.claim_push(dep.buffer, node);
            if !state.claimed(car, push) && !dm.is_present(dep.buffer, node) {
                let size = match dm.is_registered(dep.buffer) {
                    true => dm.bytes_of(dep.buffer),
                    false => self.path.buffers.size_of(dep.buffer)? as u64,
                };
                car.step(&TaskStep::Alloc { buffer: dep.buffer, size });
            }
        }
        Ok(())
    }

    /// Where task `tid` on `node` pushes what it writes, by destination and
    /// buffer, each on a fresh channel: sorted in the scratch list, then
    /// appended to the booked pushes. Returns where they are.
    fn plan_pushes(
        &self,
        state: &mut State,
        dm: &DataManager,
        tid: usize,
        node: NodeId,
    ) -> Range<usize> {
        let target =
            |&(b, r): &(BufferId, TaskId)| self.graph.task(r).kind.is_target().then_some((r.0, b));
        let readers = self.graph.readers_of(TaskId(tid)).iter().filter_map(target);
        // Channels are opened once the pushes are sorted and unique.
        let push = |(to, buffer)| Push { buffer, from: node, to, tag: Tag(0) };
        let State { assignment, pushes, claimed_early, scratch, .. } = state;
        scratch.clear();
        scratch.extend(super::push_targets(readers, node, assignment, dm).map(push));
        scratch.sort_unstable_by_key(|p| (p.to, p.buffer));
        scratch.dedup_by_key(|p| (p.to, p.buffer));
        let from = pushes.len();
        pushes.extend(
            scratch.iter().map(|push| Push { tag: self.path.events.open_channel(), ..*push }),
        );
        claimed_early.resize(pushes.len(), false);
        from..pushes.len()
    }

    /// Plan one input of a task on `node`: a receive step this task owns (a
    /// claim, a transfer), an await of bytes an earlier car — of any region
    /// execution — has queued ahead of it on the node, or nothing.
    fn plan_read(
        &self,
        state: &mut State,
        dm: &mut DataManager,
        tid: usize,
        node: NodeId,
        buffer: BufferId,
        car: &mut CarWriter,
    ) -> OmpcResult<()> {
        // The version it names runs ahead of it on the node's lane, so the
        // worker never waits and reads no bound.
        let await_local = TaskStep::AwaitLocal { buffer, timeout_ms: u64::MAX };
        // A version lowered and not retired is the one it reads: the table
        // knows nothing of it yet, the producer's car and its pushes do.
        if let Some(&write) = state.writes.iter().rev().find(|w| w.buffer == buffer) {
            if write.node == node {
                car.step(&await_local);
                return Ok(());
            }
            let at = (write.pushes.0..write.pushes.1)
                .find(|&at| (state.pushes[at].buffer, state.pushes[at].to) == (buffer, node))
                .ok_or_else(|| {
                    OmpcError::Internal(format!(
                        "task {} pushes no copy of {buffer} to node {node}",
                        write.task
                    ))
                })?;
            // The first reader claims the push, the next ones await that claim.
            if std::mem::replace(&mut state.claimed_early[at], true) {
                car.step(&await_local);
            } else {
                state.claimed(car, Some(state.pushes[at]));
            }
            return Ok(());
        }
        // The booking is made at lowering time: a later co-located reader
        // must await the arrival even though the bytes have not left yet.
        let plan = match dm.book(self.region, buffer, node, TransferReason::Input)? {
            Booking::Present => return Ok(()),
            // The first reader of a pushed copy claims it, later ones await.
            Booking::Await if state.claimed(car, dm.claim_push(buffer, node)) => return Ok(()),
            Booking::Await => {
                car.step(&await_local);
                return Ok(());
            }
            Booking::Move(plan) => plan,
        };
        state.owned.push(buffer);
        if plan.from == HEAD_NODE {
            car.recv_from_head(buffer, self.host_payload(buffer, tid)?);
        } else {
            let bytes = self.path.buffers.size_of(buffer).unwrap_or(0) as u64;
            car.recv_from_worker(buffer, plan.from, bytes);
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
            let span = Span::new(SpanPhase::Serialize, HEAD_NODE, t0, monotonic_us()).task(task);
            tel.record(span.attempt(tel.attempt(task)).bytes(frame.len() as u64));
        }
        Ok(frame)
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
        let Record { node, owned, pushes, kind, .. } = record;
        if let Some(s) = stamps {
            let attempt = tel.attempt(task);
            // A car without a kernel ships no compute span.
            let kernel = matches!(kind, RecordKind::Target).then_some((
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
        let mut state = self.state.lock();
        let mut dm = self.path.dm.lock();
        // Every booking is finished, whatever the table makes of each.
        let finished = state.owned[owned].iter().map(|&b| dm.finish(b, node, Ok(())));
        finished.fold(Ok(()), OmpcResult::and)?;
        match kind {
            RecordKind::Target => {
                // The copy on `node` is now the only valid one: the pushes of
                // the version it supersedes end, the stale copies are freed by
                // the next car headed their way — but where a newer version's
                // claim is on the node already, which overwrites them.
                let deps = self.graph.dependences(TaskId(task)).iter();
                for buffer in deps.filter(|d| d.dep_type.writes()).map(|d| d.buffer) {
                    state.list_claimed_on(buffer);
                    dm.supersede(buffer, node, &state.claimed_on)?;
                }
                // Its own pushes are booked as its readers' input transfers:
                // a data movement each, but no event.
                for at in pushes {
                    let push = state.pushes[at];
                    if dm.book_push(self.region, push, state.claimed_early[at]) {
                        self.path.events.counters().record_data(dm.bytes_of(push.buffer));
                    }
                }
                state.writes.retain(|w| w.task != task);
            }
            RecordKind::EnterData { replica: Some(buffer) } => dm.record_replica(buffer, node)?,
            RecordKind::EnterData { replica: None } => {}
            RecordKind::ExitData { buffer, release } => {
                drop((state, dm));
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
                    self.path.dm.lock().release(buffer);
                }
            }
        }
        Ok(())
    }

    /// Roll back a lowering that never reached the wire: as a failed
    /// [`Lowering::retire`], and its attached deletes are owed again.
    pub(crate) fn abandon(&self, record: Record, error: &OmpcError) {
        self.roll_back(&mut self.state.lock(), record, error, true);
    }

    /// The task never landed its effects: finish its bookings with `error`, so no later
    /// reader skips a transfer the bytes never made (holder and log entry are rolled back)
    /// and whoever awaits one of them fails with `error` — a killed source keeps its blame —
    /// instead of blocking. A copy it claimed is owed a drop, in case no step took it, unless
    /// the car never left and its producer has not retired: that push is unclaimed again. Each
    /// of its own pushes no early claim takes is owed a drop too: its one message — the bytes,
    /// the car's error or the head's — is on the reader's node, or will be.
    fn roll_back(&self, state: &mut State, record: Record, error: &OmpcError, unsent: bool) {
        let Record { task, node, owned, claims, pushes, deletes, kind } = record;
        let mut dm = self.path.dm.lock();
        for &buffer in &state.owned[owned] {
            let _ = dm.finish(buffer, node, Err(error.clone()));
        }
        // A car that reached the worker ran its deletes first: they cannot fail.
        let deletes = if unsent { deletes } else { Vec::new() };
        dm.owe(node, deletes, []);
        for at in claims {
            let claim = state.claims[at];
            match state.pending_push(claim.tag).filter(|_| unsent) {
                Some(push) => state.claimed_early[push] = false,
                None => dm.owe(node, [], [claim]),
            }
        }
        for at in pushes.filter(|&at| !state.claimed_early[at]) {
            dm.owe(state.pushes[at].to, [], [state.pushes[at]]);
        }
        if matches!(kind, RecordKind::Target) {
            state.writes.retain(|w| w.task != task);
        }
    }

    /// The end of the run ([`DataManager::end_run`]): each live node gets one task
    /// ([`super::delete_device_copies`]) with everything still owed to it — the deletes no
    /// car carried, the drops of the copies nobody claimed — whichever region it is owed for.
    /// Every live node is attempted; what a node did not acknowledge stays owed to it, and the
    /// first error is returned.
    pub(crate) fn flush_deletes(&self) -> OmpcResult<()> {
        // Taken and posted under the train table: each node's task reaches it behind every car
        // lowered before it and ahead of every car lowered after, whichever region lowered it.
        let trains = self.path.events.trains();
        let owed = self.path.dm.lock().end_run(self.region);
        let (events, telemetry) = (&self.path.events, &self.path.telemetry);
        let tasks = owed.iter().map(|(node, owed)| super::DeleteTask::owed(*node, owed));
        let failed = super::delete_device_copies(events, telemetry, tasks, Some(trains));
        let mut dm = self.path.dm.lock();
        for (node, owed) in owed.iter().filter(|(node, _)| failed.iter().any(|(n, _)| n == node)) {
            dm.owe(*node, owed.deletes.iter().copied(), owed.drops.iter().copied());
        }
        super::first_error(failed)
    }

    /// `node` just died: [`DataManager::fail_node`] drops what was owed to it and ends every
    /// push to or from it, and the worker's event loop is killed **for real** — from now on
    /// it refuses every event with an error reply, so peers observe the death instead of
    /// hanging. First, the copy each early claim of a push from it landed stops counting
    /// ([`DataManager::drop_claimed`]): the core retires a held consumer's producer after the
    /// claim landed, so the producer's completion may yet be stale. Either ends every copy of
    /// a buffer it loses that is still on the wire. Names the writers of every buffer whose
    /// only copy was lost.
    pub(crate) fn invalidate_node(&self, node: NodeId) -> Vec<LostBuffer> {
        let state = self.state.lock();
        let mut dm = self.path.dm.lock();
        let mut lost = Vec::new();
        let claimed = state
            .pushes
            .iter()
            .enumerate()
            .filter(|&(at, p)| p.from == node && state.claimed_early[at]);
        for (at, push) in claimed {
            let pending = state
                .writes
                .iter()
                .any(|w| w.node == node && (w.pushes.0..w.pushes.1).contains(&at));
            if dm.drop_claimed(push.buffer, push.to, node, pending) {
                lost.push(push.buffer);
            }
        }
        // Only workers are ever declared failed; the head would lose nothing.
        lost.extend(dm.fail_node(node).unwrap_or_default());
        lost.sort_unstable();
        lost.dedup();
        drop((state, dm));
        let _ = self.path.events.kill(node);
        let writers_of = |buffer| {
            let writes = |t: &&TargetTask| {
                let deps = self.graph.dependences(t.id);
                deps.iter().any(|d| d.buffer == buffer && d.dep_type.writes())
            };
            self.graph.tasks().iter().filter(writes).map(|t| t.id.0).collect()
        };
        lost.into_iter().map(|buffer| LostBuffer { buffer, writers: writers_of(buffer) }).collect()
    }

    /// The assignment the core launches by from now on. A recovery moves only the dead
    /// node's tasks, whose pushes [`Lowering::invalidate_node`] already ended, so every push
    /// left keeps a reader on its node.
    pub(crate) fn assign(&self, assignment: &[NodeId]) {
        self.state.lock().assignment = assignment.to_vec();
    }
}

#[cfg(test)]
use crate::event::Composite;

#[cfg(test)]
impl Lowering {
    /// [`Lowering::lower_into`], and the car read back out of its train's
    /// frame, which is emptied: a test's view of one lowered task.
    pub(crate) fn lower(
        &self,
        tid: usize,
        node: NodeId,
    ) -> OmpcResult<Option<(Composite, Record)>> {
        let Some((_, record)) = self.lower_into(tid, node)? else { return Ok(None) };
        Ok(Some((self.path.events.trains().only_car(record.node())?, record)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_manager::TransferState;
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
        let world = World::new(4);
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
        let config = OmpcConfig::small();
        let low = Lowering::new(path, 1, Arc::new(graph), HashMap::new(), &config).unwrap();
        Fixture { _world: world, low, a }
    }

    /// The fixture's enter-data and exit-data tasks.
    const ENTER: usize = 7;
    const EXIT: usize = 8;

    fn lower_task(low: &Lowering, task: usize, node: NodeId) -> (Composite, Record) {
        low.lower(task, node).unwrap().expect("a task that lowers to a composite")
    }

    /// The deletes owed to `node`.
    fn deletes_owed(low: &Lowering, node: NodeId) -> Option<std::collections::BTreeSet<BufferId>> {
        low.path.dm.lock().owed().remove(&node).map(|owed| owed.deletes)
    }

    /// The pushes owed a drop, by node.
    fn drops(low: &Lowering) -> Vec<Push> {
        let owed = low.path.dm.lock().owed();
        owed.into_values().flat_map(|owed| owed.drops).collect()
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
        let channel = world.communicator(rank);
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
        let owed = |low: &Lowering| deletes_owed(low, 1);
        let stale = || low.path.dm.lock().owe(1, [*a], []);
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
        // A second tenant of the same device.
        let tenant = |region| {
            let config = OmpcConfig::small();
            let graph = Arc::clone(&low.graph);
            Lowering::new(low.path.clone(), region, graph, HashMap::new(), &config).unwrap()
        };
        let second = tenant(2);
        let (work, owner) = lower_task(low, 0, 1);
        assert!(matches!(
            &work.steps[..],
            [TaskStep::RecvFromHead { .. }, TaskStep::Execute { .. }]
        ));

        // Region 2's reader on the node region 1's bytes are travelling to
        // awaits them on the worker instead of computing on whatever is
        // there now, as a reader of region 1 would: region 1's car reaches
        // the node first. It books nothing ...
        let (waiter, _record) = lower_task(&second, 1, 1);
        assert!(
            matches!(&waiter.steps[..], [TaskStep::AwaitLocal { buffer, .. }, TaskStep::Execute { .. }] if buffer == a),
            "unexpected steps: {:?}",
            waiter.steps
        );
        assert_eq!(low.path.dm.lock().transfer_log().len(), 1, "no second log record");
        assert_eq!(inflight_entries(low), 1);
        // ... and its reader on another node is an ordinary plan of its own.
        let (work, _record) = lower_task(&second, 0, 2);
        assert!(
            matches!(&work.steps[..], [TaskStep::RecvFromHead { .. }, TaskStep::Execute { .. }]),
            "unexpected steps: {:?}",
            work.steps
        );

        // Region 1's transfer fails: the error stays on the pair (region 2's
        // waiter hears it from the receive itself, on the worker), and
        // whoever lowers a reader next moves the bytes again.
        let boom = OmpcError::Communication("link down".into());
        assert_eq!(low.retire(0, owner, Err(boom.clone())), Err(boom.clone()));
        assert_eq!(low.path.dm.lock().transfer_state(*a, 1), TransferState::Invalid(Some(boom)));
        let (again, _record) = lower_task(&tenant(3), 0, 1);
        assert!(matches!(
            &again.steps[..],
            [TaskStep::RecvFromHead { .. }, TaskStep::Execute { .. }]
        ));
    }

    /// Region 2's reader on a node region 1 pushed a copy to claims that
    /// push: the claimant finishes the booking, and region 1's end of run
    /// owes a drop only for the push nobody claimed.
    #[test]
    fn a_reader_of_another_region_claims_a_push_its_owner_then_owes_no_drop_for() {
        let Fixture { low, a, .. } = &fixture();
        let a = *a;
        let graph = Arc::clone(&low.graph);
        let second =
            Lowering::new(low.path.clone(), 2, graph, HashMap::new(), &low.config).unwrap();
        low.assign(&READERS_SPREAD);
        let (work, record) = lower_task(low, 2, 1);
        low.retire(2, record, Ok(Reply::default())).unwrap();

        let (car, claimant) = lower_task(&second, 3, 2);
        let tag = push_channel(&work.steps, 2);
        assert_eq!(car.steps[0], TaskStep::Claim { buffer: a, tag }, "{:?}", car.steps);
        assert!(car.payloads.is_empty() && car.exchanges.is_empty(), "the head sends nothing");
        second.retire(3, claimant, Ok(Reply::default())).unwrap();
        assert_eq!(low.path.dm.lock().transfer_state(a, 2), TransferState::Resident);

        let owed = low.path.dm.lock().end_run(1);
        let dropped: Vec<_> = owed.iter().flat_map(|(_, owed)| &owed.drops).map(|p| p.to).collect();
        assert_eq!(dropped, vec![3], "the claimed push is region 2's, finished");
        assert_eq!(forwards(low), vec![(1, 2)], "the claimed push stays on record");
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
        let owed = |low: &Lowering| deletes_owed(low, 2);
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
            let mut dm = low.path.dm.lock();
            dm.owe(1, [*a], []);
            dm.owe(2, [*a, out], []);
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
        let owed = |node| deletes_owed(low, node);
        assert_eq!(owed(1), Some([*a].into_iter().collect()), "node 1 is still owed its delete");
        assert_eq!(owed(2), None);

        // Once the node is declared dead nothing is owed or sent any more:
        // the first flush's task per node are all the tasks there are.
        low.path.dm.lock().fail_node(1).unwrap();
        assert_eq!(low.flush_deletes(), Ok(()));
        assert!(low.path.dm.lock().owed().is_empty());
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
                    TaskStep::Wrote { buffer },
                    TaskStep::Push { .. },
                    TaskStep::Push { .. }
                ] if *buffer == a
            ),
            "the write lands for task 6 beside it, the pushes end the composite: {:?}",
            work.steps
        );
        assert_eq!(pushes(&work.steps), vec![(a, 2), (a, 3)], "one per remote reader node");
        let channel_to = |node| {
            let step =
                work.steps.iter().find(|s| matches!(s, TaskStep::Push { to, .. } if *to == node));
            match step {
                Some(&TaskStep::Push { tag, .. }) => tag,
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
        let tag = channel_to(2);
        assert!(
            matches!(&first.steps[..], [TaskStep::Claim { buffer, .. }, TaskStep::Alloc { .. }, TaskStep::Execute { .. }] if *buffer == a),
            "unexpected steps: {:?}",
            first.steps
        );
        assert_eq!(first.steps[0], TaskStep::Claim { buffer: a, tag });
        assert!(first.payloads.is_empty() && first.exchanges.is_empty(), "the head sends nothing");
        // ... and the second awaits that receive.
        let (second, _record) = lower_task(low, 4, 2);
        assert!(
            matches!(&second.steps[..], [TaskStep::AwaitLocal { buffer, .. }, TaskStep::Execute { .. }] if *buffer == a),
            "unexpected steps: {:?}",
            second.steps
        );
        let (third_node, _record) = lower_task(low, 5, 3);
        assert!(matches!(third_node.steps[0], TaskStep::Claim { .. }));
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
        assert!(low.path.dm.lock().unclaimed_of(1).is_empty());
        // Each push carried the car's error in place of the bytes: nobody
        // claims it, so it is owed a drop.
        let dropped: Vec<_> = drops(low).iter().map(|p| (p.to, p.tag)).collect();
        let tags = |node| push_channel(&work.steps, node);
        assert_eq!(dropped, vec![(2, tags(2)), (3, tags(3))]);
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
        let owed = |low: &Lowering| drops(low).iter().map(|p| p.to).collect::<Vec<_>>();
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
        // its record withdrawn, its copy owed a drop too — and so is the
        // pull, whose bytes are of the version the node took with it.
        low.invalidate_node(1);
        let dm = low.path.dm.lock();
        let failed = TransferState::Invalid(Some(OmpcError::NodeFailure(1)));
        assert_eq!(dm.transfer_state(a, 3), failed);
        assert_eq!(dm.transfer_state(a, 2), failed);
        assert!(dm.transfer_log().iter().all(|t| t.to != 3));
        drop(dm);
        assert!(low.path.dm.lock().unclaimed_of(1).is_empty());
        assert_eq!(owed(low), vec![2, 3]);
    }

    /// The channel of the push to `node` among `steps`.
    fn push_channel(steps: &[TaskStep], node: NodeId) -> Tag {
        let channel = |step: &TaskStep| match *step {
            TaskStep::Push { to, tag, .. } if to == node => Some(tag),
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
        let dropped: Vec<_> = drops(low).iter().map(|p| (p.to, p.tag)).collect();
        let first_tag = |node| push_channel(&first.steps, node);
        assert_eq!(dropped, vec![(2, first_tag(2)), (3, first_tag(3))]);
        // The reader claims the version it reads.
        let (reader, _record) = lower_task(low, 3, 2);
        let tag = push_channel(&second.steps, 2);
        assert_eq!(reader.steps[0], TaskStep::Claim { buffer: a, tag });
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
        low.path.dm.lock().owe(2, [a], []);
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
        let discard = |node| TaskStep::Discard { tag: push_channel(&work.steps, node) };
        let task = |steps| EventRequest::Task(TaskSpec { steps });
        assert_eq!(two, task(vec![TaskStep::Delete { buffer: a }, discard(2)]));
        assert_eq!(three, task(vec![discard(3)]));
        assert!(memory.is_empty());
        assert_eq!(low.path.events.counters().events.load(Ordering::Relaxed), 2);
        assert!(low.path.dm.lock().unclaimed_of(1).is_empty() && drops(low).is_empty());
        assert!(low.path.dm.lock().owed().is_empty());
        assert_eq!(forwards(low), Vec::new(), "the unclaimed pushes' records are withdrawn");
    }

    #[test]
    fn a_node_is_sent_all_it_is_owed_and_a_death_ends_every_push() {
        use crate::protocol::{EventRequest, TaskSpec};
        let Fixture { low, a, _world: world } = &fixture();
        let (a, out) = (*a, BufferId(a.0 + 1));
        let config = OmpcConfig::small();
        let graph = Arc::clone(&low.graph);
        let second = Lowering::new(low.path.clone(), 2, graph, HashMap::new(), &config).unwrap();
        // Region 1's producer pushes `a` from node 1 to nodes 2 and 3; region 2
        // pushes `out` from node 1 to node 3, and node 2 is owed a delete of
        // `out`.
        low.assign(&READERS_SPREAD);
        let (work, record) = lower_task(low, 2, 1);
        low.retire(2, record, Ok(Reply::default())).unwrap();
        let theirs = Push { buffer: out, from: 1, to: 3, tag: Tag(99) };
        {
            let mut dm = low.path.dm.lock();
            dm.record_write(out, 1).unwrap();
            assert!(dm.book_push(2, theirs, false));
            dm.owe(2, [out], []);
        }

        // Region 1's car to node 2 claims its push, after the delete owed
        // there, whichever region's write left it: cars reach a node in the
        // order they were lowered.
        let (car, _record) = lower_task(low, 3, 2);
        assert!(
            matches!(car.steps[..], [TaskStep::Delete { buffer: deleted }, TaskStep::Claim { buffer, .. }, ..] if deleted == out && buffer == a),
            "{:?}",
            car.steps
        );
        assert_eq!(deletes_owed(&second, 2), None);

        // Region 1's end of run ends its own unclaimed push to node 3 and
        // sends node 3 all it is owed, that push's drop; region 2's push
        // there stays unclaimed.
        let request = std::thread::scope(|scope| {
            let three = scope.spawn(|| {
                let notification = next_event(world, 3);
                let (request, comm) = (notification.request.clone(), world.communicator(3));
                let (memory, kernels) =
                    (crate::worker::DeviceMemory::new(), crate::kernel::KernelRegistry::new());
                crate::worker::handle_event(&comm, &memory, &kernels, notification).unwrap();
                request
            });
            assert_eq!(low.flush_deletes(), Ok(()));
            three.join().unwrap()
        });
        let discard = TaskStep::Discard { tag: push_channel(&work.steps, 3) };
        assert_eq!(request, EventRequest::Task(TaskSpec { steps: vec![discard] }));
        assert_eq!(low.path.events.counters().events.load(Ordering::Relaxed), 1);
        assert_eq!(low.path.dm.lock().unclaimed_of(2), vec![theirs]);
        assert_eq!(low.path.dm.lock().transfer_state(out, 3), TransferState::InFlight(2));

        // The producer runs again, and node 3 dies before anybody claimed
        // either region's push there: one death ends both, with its failure.
        let (_, record) = lower_task(low, 2, 1);
        low.retire(2, record, Ok(Reply::default())).unwrap();
        assert_eq!(low.path.dm.lock().unclaimed_of(1).len(), 1);
        low.invalidate_node(3);
        let dm = low.path.dm.lock();
        let dead = TransferState::Invalid(Some(OmpcError::NodeFailure(3)));
        assert_eq!((dm.transfer_state(a, 3), dm.transfer_state(out, 3)), (dead.clone(), dead));
        assert!(dm.unclaimed_of(1).is_empty() && dm.unclaimed_of(2).is_empty());
        assert!(!dm.owed().contains_key(&3));
        // What node 2 is owed — the delete of the copy the rewrite made
        // stale — outlives node 3.
        assert_eq!(dm.owed().get(&2).map(|owed| owed.deletes.len()), Some(1));
    }

    #[test]
    fn a_task_on_a_dead_node_lowers_to_nothing() {
        let Fixture { low, .. } = &fixture();
        low.path.dm.lock().fail_node(2).unwrap();
        assert!(matches!(low.lower(0, 2), Ok(None)));
        assert!(low.path.dm.lock().transfer_log().is_empty());
    }
}
