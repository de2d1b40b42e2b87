//! The origin (head-node) side of the MPI-based event system (paper §4.2).
//!
//! Every operation on a worker node is an *event*: the head allocates a
//! fresh tag, sends a new-event notification to the destination's event
//! pool, exchanges any payload messages on the tag's channel, and finally
//! waits for the **typed reply** ([`crate::protocol::EventReply`]) on that
//! same channel.
//! Because the tag is unique per event and shared only with the
//! destination, concurrent events cannot cross-talk even though several
//! head threads (concurrent region executions, lazy host flushes) issue them
//! at the same time.
//!
//! Payloads move as shared [`Bytes`] handles in both directions: a host
//! payload puts the caller's handle on the wire as the message body, and a
//! retrieve returns the handle the worker replied with — the head copies no
//! buffer.
//!
//! Every head→worker buffer operation is one [`EventRequest::Task`] of
//! [`TaskStep`]s — a region task as a car of a train (`runtime/mpi.rs`),
//! whose reply comes home on its region execution's completion channel
//! instead, or a release or a flush on its own (`post_task`).
//!
//! The device's one table of pending trains lives here, behind one lock:
//! each node's train carries the cars of one region execution, written in
//! lowering order, and departs before a car of another execution joins it.
//! So a car reaches its node after every car lowered before it, across every
//! running region, and a reader's wait for another tenant's bytes is an
//! ordinary `AwaitLocal` on the worker.
//!
//! A reply is either `Ok(payload)` or `Err(OmpcError)`: worker-side handler
//! failures (unregistered kernels, missing buffers, killed nodes) come back
//! as [`crate::types::OmpcError::RemoteEvent`] values naming the origin
//! node and event tag, never as a silently missing completion. As a last
//! line of defence against a reply that can never arrive (a worker thread
//! that died without answering), every wait is additionally bounded by
//! [`crate::config::OmpcConfig::event_reply_timeout_ms`].

use crate::data_manager::HEAD_NODE;
use crate::protocol::{
    car_reply_header, EventNotification, EventReply, EventRequest, Reply, SentFrames, TaskFrame,
    TaskSpec, TaskStep, TrainFrame, CONTROL_TAG, FIRST_EVENT_TAG,
};
use crate::runtime::telemetry::{monotonic_us, Span, SpanPhase, Telemetry};
use crate::types::{BufferId, KernelId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{Bytes, CommId, Communicator, Message, Tag};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counters describing the event traffic of a device lifetime.
#[derive(Debug, Default)]
pub struct EventCounters {
    /// Number of events issued: a task or a train car counts one when it is
    /// on the wire, and each of its frames — a host payload, a source told
    /// its `ExchangeSend` — one more (a push is none: it rides its
    /// producer's).
    pub events: AtomicU64,
    /// Number of data movements: host payload frames, worker-to-worker
    /// forwards, booked pushes, committed retrievals.
    pub data_events: AtomicU64,
    /// Bytes moved by those.
    pub bytes_moved: AtomicU64,
}

impl EventCounters {
    /// One data movement, and no event: all a booked push or a committed
    /// retrieval records.
    pub(crate) fn record_data(&self, bytes: u64) {
        self.data_events.fetch_add(1, Ordering::Relaxed);
        self.bytes_moved.fetch_add(bytes, Ordering::Relaxed);
    }

    /// `tasks` tasks on the wire, and the `frames` that followed them: an
    /// event each, and a data movement per frame.
    pub(crate) fn record_tasks(&self, tasks: u64, frames: Frames) {
        self.events.fetch_add(tasks + frames.count, Ordering::Relaxed);
        if frames.count > 0 {
            self.data_events.fetch_add(frames.count, Ordering::Relaxed);
            self.bytes_moved.fetch_add(frames.bytes, Ordering::Relaxed);
        }
    }
}

/// What frames put on the wire behind tasks: how many, and the bytes they
/// move ([`EventSystem::send_frames`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frames {
    pub(crate) count: u64,
    pub(crate) bytes: u64,
}

impl Frames {
    /// One more frame, of `bytes`.
    fn add(&mut self, bytes: u64) {
        self.count += 1;
        self.bytes += bytes;
    }
}

impl std::ops::AddAssign for Frames {
    fn add_assign(&mut self, other: Frames) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}

/// A forward a task's car receives: the node to tell its `ExchangeSend`, the
/// buffer, and the bytes it will move.
pub(crate) type Exchange = (NodeId, BufferId, u64);

/// A task in wire form: the ordered steps the executing node performs, plus
/// what the head must put on the wire for them — a release or a flush, sent
/// on its own ([`EventSystem::post_task`]). A region task is a car of its
/// node's [`Train`] instead, written straight into the train's frame.
#[derive(Default)]
pub(crate) struct Composite {
    pub(crate) steps: Vec<TaskStep>,
    /// Host payloads for the `RecvFromHead` steps, in step order: the
    /// registry's own handles.
    pub(crate) payloads: Vec<Bytes>,
    /// Per `RecvFromWorker` step, in step order: the node to tell its
    /// `ExchangeSend`, the buffer, and the bytes it will move.
    pub(crate) exchanges: Vec<Exchange>,
}

impl Composite {
    /// Whether the task's reply is the data: its body is the buffer of a
    /// [`TaskStep::Retrieve`] step.
    pub(crate) fn returns_data(&self) -> bool {
        self.steps.iter().any(|step| matches!(step, TaskStep::Retrieve { .. }))
    }
}

/// One car of a [`Train`]: the task it carries, its exclusive channel, and
/// where its frames end in the train's lists.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Car {
    /// Core task id.
    pub(crate) task: usize,
    /// The car's channel, for its payloads and forwards; the tag also names
    /// its reply.
    pub(crate) tag: Tag,
    payloads: usize,
    exchanges: usize,
    pushes: usize,
}

/// The region execution a train's cars belong to: the completion channel
/// its envelope names, and the recorder its departure is timed with (its
/// cars are timed when spans are on).
#[derive(Clone, Debug)]
pub(crate) struct Envelope {
    pub(crate) tag: Tag,
    pub(crate) telemetry: Arc<Telemetry>,
}

/// One node's pending task train, written as its cars are lowered
/// ([`CarWriter`]): the notification frame, and car by car what follows it
/// on the car's own channel — host payloads, and the sources to tell their
/// `ExchangeSend` — and the push channels its cars promise a message on.
/// Every car is of the execution its envelope names. A departure empties
/// the lists and keeps their room.
#[derive(Debug, Default)]
pub(crate) struct Train {
    envelope: Option<Envelope>,
    frame: Option<TrainFrame>,
    /// What the next frame is written in: the room of a frame sent before.
    room: Vec<u8>,
    /// The frames sent, to be written again once the node let go of them.
    sent: SentFrames,
    cars: Vec<Car>,
    payloads: Vec<Bytes>,
    exchanges: Vec<Exchange>,
    /// Each push step's destination and channel.
    pushes: Vec<(NodeId, Tag)>,
}

impl Train {
    /// Each car with the frames that follow it on its channel.
    fn frames(&self) -> impl Iterator<Item = (&Car, &[Bytes], &[Exchange])> + '_ {
        let mut from = (0, 0);
        self.cars.iter().map(move |car| {
            let (payloads, exchanges) = std::mem::replace(&mut from, (car.payloads, car.exchanges));
            (car, &self.payloads[payloads..car.payloads], &self.exchanges[exchanges..car.exchanges])
        })
    }

    /// The finished notification, leaving the train to start a fresh frame
    /// with its next car.
    fn take_frame(&mut self) -> Bytes {
        if let Some(frame) = self.frame.take() {
            self.room = frame.finish();
        }
        self.sent.send(&mut self.room)
    }

    /// Forget every car: the train departed.
    fn clear(&mut self) {
        self.envelope = None;
        self.frame = None;
        self.cars.clear();
        self.payloads.clear();
        self.exchanges.clear();
        self.pushes.clear();
    }
}

/// The train table, locked ([`EventSystem::trains`]): held while a car is
/// written or a train departs, never while a host task runs.
pub(crate) struct TrainTable<'e> {
    events: &'e EventSystem,
    /// By node id.
    trains: MutexGuard<'e, Vec<Train>>,
}

impl TrainTable<'_> {
    /// Start the next car of `node`'s train, of the execution `envelope`
    /// names. Another execution's pending train there departs first.
    pub(crate) fn car(&mut self, node: NodeId, envelope: &Envelope) -> CarWriter<'_> {
        if self.trains.len() <= node {
            self.trains.resize_with(node + 1, Train::default);
        }
        let train = &mut self.trains[node];
        if train.envelope.as_ref().is_some_and(|pending| pending.tag != envelope.tag) {
            self.events.depart(node, train);
        }
        let Train { envelope: pending, frame, room, cars, payloads, exchanges, pushes, .. } = train;
        let Envelope { tag, telemetry } = pending.get_or_insert_with(|| envelope.clone());
        let frame = frame.get_or_insert_with(|| {
            TrainFrame::new(*tag, telemetry.spans_enabled(), std::mem::take(room))
        });
        frame.begin_car();
        CarWriter { frame, cars, payloads, exchanges, pushes, committed: false }
    }

    /// Depart every pending train of the execution whose completion channel
    /// is `tag`, by ascending node.
    pub(crate) fn depart(&mut self, tag: Tag) {
        for (node, train) in self.trains.iter_mut().enumerate() {
            if train.envelope.as_ref().is_some_and(|pending| pending.tag == tag) {
                self.events.depart(node, train);
            }
        }
    }
}

/// A car being lowered: each step goes straight into its train's frame. It
/// joins the train when [`CarWriter::commit`] names its task and channel;
/// dropped before that, it leaves the train as it found it.
pub(crate) struct CarWriter<'t> {
    frame: &'t mut TrainFrame,
    cars: &'t mut Vec<Car>,
    payloads: &'t mut Vec<Bytes>,
    exchanges: &'t mut Vec<Exchange>,
    pushes: &'t mut Vec<(NodeId, Tag)>,
    committed: bool,
}

impl CarWriter<'_> {
    /// Append a step.
    pub(crate) fn step(&mut self, step: &TaskStep) {
        self.frame.step(step);
    }

    /// Run `kernel` against `buffers`.
    pub(crate) fn execute(
        &mut self,
        kernel: KernelId,
        buffers: impl ExactSizeIterator<Item = BufferId>,
    ) {
        self.frame.execute(kernel, buffers);
    }

    /// Receive `buffer` from the head: `data` follows the notification.
    pub(crate) fn recv_from_head(&mut self, buffer: BufferId, data: Bytes) {
        self.payloads.push(data);
        self.step(&TaskStep::RecvFromHead { buffer });
    }

    /// Receive `buffer` — `bytes` of it — from worker `from`.
    pub(crate) fn recv_from_worker(&mut self, buffer: BufferId, from: NodeId, bytes: u64) {
        self.exchanges.push((from, buffer, bytes));
        self.step(&TaskStep::RecvFromWorker { buffer, from });
    }

    /// Push `buffer` to worker `to` on the channel `tag` once the kernel ran.
    pub(crate) fn push(&mut self, buffer: BufferId, to: NodeId, tag: Tag) {
        self.pushes.push((to, tag));
        self.step(&TaskStep::Push { buffer, to, tag });
    }

    /// The car joins its train as task `task`'s, on the channel `tag`.
    pub(crate) fn commit(mut self, task: usize, tag: Tag) {
        self.frame.end_car(tag);
        let (payloads, exchanges, pushes) =
            (self.payloads.len(), self.exchanges.len(), self.pushes.len());
        self.cars.push(Car { task, tag, payloads, exchanges, pushes });
        self.committed = true;
    }
}

impl Drop for CarWriter<'_> {
    fn drop(&mut self) {
        if self.committed {
            return;
        }
        self.frame.abandon_car();
        let last = self.cars.last();
        self.payloads.truncate(last.map_or(0, |car| car.payloads));
        self.exchanges.truncate(last.map_or(0, |car| car.exchanges));
        self.pushes.truncate(last.map_or(0, |car| car.pushes));
    }
}

/// The exclusive channel an outstanding event's typed reply arrives on:
/// whoever holds it either blocks in [`EventSystem::await_reply`] or
/// receives the reply itself and decodes it with [`ReplyChannel::reply`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplyChannel {
    /// Node that will reply.
    pub(crate) node: NodeId,
    /// Tag of the event's channel.
    pub(crate) tag: Tag,
    /// Whether the reply is the data ([`Composite::returns_data`]).
    pub(crate) data_bearing: bool,
}

impl ReplyChannel {
    /// The typed reply `msg`, received on this channel, carries: a
    /// data-bearing reply must carry the buffer as its body and every other
    /// reply none; a timed reply keeps its worker-side
    /// [`crate::protocol::TaskStamps`].
    pub(crate) fn reply(&self, msg: Message) -> TypedReply {
        Reply::from_parts(&msg.data, msg.body, self.data_bearing)
    }
}

/// An event's typed reply as the head sees it: the reply's parts — inline
/// acknowledgement, data body, the worker's stamps when the event was
/// timed — or the typed error.
pub(crate) type TypedReply = OmpcResult<Reply>;

/// Head-node handle used to drive worker nodes through events.
#[derive(Debug)]
pub struct EventSystem {
    comm: Communicator,
    next_tag: AtomicU64,
    counters: EventCounters,
    /// Upper bound on any single reply wait; `None` waits forever.
    reply_timeout: Option<Duration>,
    /// The device's one train table: each node's pending train, by node id.
    /// Cars are written in lowering order per node, across every running
    /// region execution, and a train departs before a car of another
    /// execution joins its node — so a car reaches its node after every car
    /// lowered before it, whoever lowered that one.
    trains: Mutex<Vec<Train>>,
}

impl EventSystem {
    /// Create an event system over the head node's world communicator, with
    /// reply waits unbounded.
    pub fn new(comm: Communicator) -> Self {
        Self::with_reply_timeout(comm, None)
    }

    /// [`EventSystem::new`] with an explicit bound on every reply wait.
    pub fn with_reply_timeout(comm: Communicator, reply_timeout: Option<Duration>) -> Self {
        Self {
            comm,
            next_tag: AtomicU64::new(FIRST_EVENT_TAG),
            counters: EventCounters::default(),
            reply_timeout,
            trains: Mutex::default(),
        }
    }

    /// The device's train table, locked. Lock order: the table, then a
    /// lowering's state, then the data manager.
    pub(crate) fn trains(&self) -> TrainTable<'_> {
        TrainTable { events: self, trains: self.trains.lock() }
    }

    /// Send `node`'s train, if it has a car, and empty it. A train that does
    /// not go out whole has each car answered with the error on its
    /// execution's completion channel, by the head itself — so the execution
    /// hears that its car never left, whichever execution's thread departed
    /// the train — and one whose notification never left sends each push
    /// its cars promised the error too, so no claim of one waits for it.
    fn depart(&self, node: NodeId, train: &mut Train) {
        if let Some(Envelope { tag, telemetry }) = train.envelope.take() {
            if let Err(error) = self.send_train(node, train, &telemetry) {
                let error = EventReply::Err(error);
                for car in &train.cars {
                    let _ = self.comm.send(HEAD_NODE, tag, car_reply_header(car.tag, &error));
                }
            }
        }
        train.clear();
    }

    /// Emit one train's messages: its frame — every car's recipe, the
    /// envelope naming its execution's completion channel — then each car's
    /// frames on the car's own channel.
    ///
    /// Counters are accumulated locally and committed only once the whole
    /// train is on the wire: a train that fails mid-send is failed as a
    /// whole and its cars re-dispatched, so recording interleaved with the
    /// sends would double-count the cars that preceded the failure.
    /// Committing after the last send keeps per-task accounting identical
    /// however tasks are packed into trains and across retries.
    fn send_train(&self, node: NodeId, train: &mut Train, tel: &Telemetry) -> OmpcResult<()> {
        if train.cars.is_empty() {
            return Ok(());
        }
        let timed = tel.spans_enabled();
        let t0 = tel.start();
        if let Err(error) = self.send_notification(node, train.take_frame()) {
            // No car reaches the node, so none pushes: the head sends each push's one
            // message, the error, in its place.
            let failed = EventReply::Err(error.clone()).encode();
            for &(to, tag) in &train.pushes {
                let _ = self.comm.send(to, tag, failed.clone());
            }
            return Err(error);
        }
        if timed {
            // The envelope notification only: the cars' own frames get
            // per-task `Send` spans below, so the buckets never count the
            // same microsecond twice.
            tel.record(
                Span::new(SpanPhase::TrainFlush, HEAD_NODE, t0, monotonic_us())
                    .detail(format!("node {node}, {} car(s)", train.cars.len())),
            );
        }
        let mut sent = Frames::default();
        for (car, payloads, exchanges) in train.frames() {
            let send_start = tel.start();
            let frames = self.send_frames(node, car.tag, payloads, exchanges)?;
            if timed {
                tel.record(
                    Span::new(SpanPhase::Send, HEAD_NODE, send_start, monotonic_us())
                        .task(car.task)
                        .attempt(tel.attempt(car.task))
                        .bytes(frames.bytes),
                );
            }
            sent += frames;
        }
        // Whole train on the wire: commit the per-car accounting.
        self.counters.record_tasks(train.cars.len() as u64, sent);
        Ok(())
    }

    /// Put one untimed event on the wire without waiting for it: allocate
    /// its exclusive channel, notify `node`, and return the channel its
    /// typed reply will arrive on.
    fn post(&self, node: NodeId, request: EventRequest) -> OmpcResult<ReplyChannel> {
        let tag = self.open_channel();
        self.notify(node, request, tag)?;
        Ok(ReplyChannel { node, tag, data_bearing: false })
    }

    /// Put one [`EventRequest::Task`] on the wire without waiting for it:
    /// the notification, then its frames ([`EventSystem::send_frames`]).
    /// Counted as it goes out, as a train car is.
    pub(crate) fn post_task(&self, node: NodeId, work: Composite) -> OmpcResult<ReplyChannel> {
        let data_bearing = work.returns_data();
        let Composite { steps, payloads, exchanges } = work;
        let channel = self.post(node, EventRequest::Task(TaskSpec { steps }))?;
        let frames = self.send_frames(node, channel.tag, &payloads, &exchanges)?;
        self.counters.record_tasks(1, frames);
        Ok(ReplyChannel { data_bearing, ..channel })
    }

    /// Put a task written straight into its frame on the wire without
    /// waiting for it, counted as [`EventSystem::post_task`] counts a task
    /// that sends no frames behind it.
    pub(crate) fn post_frame(&self, node: NodeId, frame: TaskFrame) -> OmpcResult<ReplyChannel> {
        let tag = self.open_channel();
        self.send_notification(node, frame.finish(tag))?;
        self.counters.record_tasks(1, Frames::default());
        Ok(ReplyChannel { node, tag, data_bearing: false })
    }

    /// Send what follows a task's notification to `node` on its channel
    /// `tag`: each host payload, then each source's `ExchangeSend`.
    /// A failure of a *sending* half travels through the receiver (the
    /// sender forwards its error envelope instead of the data), so the head
    /// never hangs on a half-completed forward. Returns what the frames
    /// moved, for the caller to count once the whole task — or train — is on
    /// the wire.
    pub(crate) fn send_frames(
        &self,
        node: NodeId,
        tag: Tag,
        payloads: &[Bytes],
        exchanges: &[Exchange],
    ) -> OmpcResult<Frames> {
        let mut frames = Frames::default();
        for payload in payloads {
            frames.add(payload.len() as u64);
            self.comm.send_with_body(node, tag, Vec::new(), payload.clone())?;
        }
        for &(from, buffer, bytes) in exchanges {
            self.notify(from, EventRequest::ExchangeSend { buffer, to: node }, tag)?;
            frames.add(bytes);
        }
        Ok(frames)
    }

    /// Block (bounded by the reply timeout) for the typed reply on
    /// `channel` and convert it into the event's result. Worker-side errors
    /// arrive as decoded [`crate::types::OmpcError::RemoteEvent`] values; a
    /// timed-out or undeliverable reply is a
    /// [`crate::types::OmpcError::Communication`].
    pub(crate) fn await_reply(&self, channel: &ReplyChannel) -> TypedReply {
        let (from, tag) = (Some(channel.node), Some(channel.tag));
        let msg = match self.reply_timeout {
            Some(timeout) => self.comm.recv_timeout(from, tag, timeout)?,
            None => self.comm.recv(from, tag)?,
        };
        channel.reply(msg)
    }

    /// [`EventSystem::post_task`], then wait for its reply.
    pub(crate) fn run_task(&self, node: NodeId, work: Composite) -> TypedReply {
        let channel = self.post_task(node, work)?;
        self.await_reply(&channel)
    }

    /// Traffic counters (events issued, data movements, bytes).
    pub fn counters(&self) -> &EventCounters {
        &self.counters
    }

    /// Allocate an exclusive channel for a new event: a tag no other event
    /// of the device has used. The paper also spreads events round-robin
    /// over MPI communicators mapped to MPICH virtual communication
    /// interfaces; the in-process transport has one mailbox lock per rank,
    /// so a communicator would separate nothing a tag does not. Also used by
    /// the message-passing `MpiBackend` — for its train cars and each region
    /// execution's completion channel — so every event shares one
    /// device-unique tag space.
    pub(crate) fn open_channel(&self) -> Tag {
        Tag(self.next_tag.fetch_add(1, Ordering::Relaxed))
    }

    /// The head node's communicator handle, for backends that receive
    /// replies themselves instead of blocking per event.
    pub(crate) fn communicator(&self) -> &Communicator {
        &self.comm
    }

    /// The configured upper bound on any single reply wait.
    pub(crate) fn reply_timeout(&self) -> Option<Duration> {
        self.reply_timeout
    }

    /// Notify `node` of an untimed event of `request` on the channel `tag`.
    fn notify(&self, node: NodeId, request: EventRequest, tag: Tag) -> OmpcResult<()> {
        let notification = EventNotification { request, tag, comm: CommId::WORLD, timed: false };
        self.send_notification(node, notification.encode())
    }

    /// Send `node` an encoded notification — a train's frame, written as its
    /// cars were lowered.
    pub(crate) fn send_notification(
        &self,
        node: NodeId,
        frame: impl Into<Bytes>,
    ) -> OmpcResult<()> {
        self.comm.send(node, CONTROL_TAG, frame)?;
        Ok(())
    }

    /// Fetch the contents of `buffer` from `node` (worker → host) as one
    /// task of a [`TaskStep::Retrieve`] step: the returned handle is the
    /// allocation the worker holds. Whoever commits it counts the bytes.
    pub fn retrieve(&self, node: NodeId, buffer: BufferId) -> OmpcResult<Bytes> {
        let work = Composite { steps: vec![TaskStep::Retrieve { buffer }], ..Composite::default() };
        let reply = self.run_task(node, work)?;
        // `Reply::from_parts` has already refused a data reply without one.
        reply.body.ok_or_else(|| OmpcError::Internal(format!("no data retrieving {buffer}")))
    }

    /// Clear `node`'s device memory and wait for the acknowledgement —
    /// issued between device lifetimes when warm workers are recycled, so
    /// an adopted worker pool starts from an empty device state.
    pub fn reset(&self, node: NodeId) -> OmpcResult<()> {
        let channel = self.post(node, EventRequest::Reset)?;
        self.await_reply(&channel).map(|_| ())
    }

    /// Zero the traffic counters (warm-worker adoption: the next device
    /// lifetime starts counting from scratch).
    pub(crate) fn reset_counters(&self) {
        self.counters.events.store(0, Ordering::Relaxed);
        self.counters.data_events.store(0, Ordering::Relaxed);
        self.counters.bytes_moved.store(0, Ordering::Relaxed);
    }

    /// Kill `node`'s event loop for real (failure injection): the node
    /// stops executing events and answers every later one with an error
    /// reply. Fire-and-forget — the injector must not block on the node it
    /// just declared dead.
    pub fn kill(&self, node: NodeId) -> OmpcResult<()> {
        self.post(node, EventRequest::Kill).map(|_| ())
    }

    /// Tell `node` to leave its gate loop and terminate.
    pub fn shutdown(&self, node: NodeId) -> OmpcResult<()> {
        self.post(node, EventRequest::Shutdown).map(|_| ())
    }
}

#[cfg(test)]
impl TrainTable<'_> {
    /// The one car of `node`'s train, read back out of the frame: a test's
    /// view of a lowered car. The train is emptied.
    pub(crate) fn only_car(&mut self, node: NodeId) -> OmpcResult<Composite> {
        let train = &mut self.trains[node];
        let request = EventNotification::decode(&train.take_frame())?.request;
        let EventRequest::TaskTrain(mut cars) = request else { panic!("not a train: {request:?}") };
        assert_eq!(cars.len(), 1, "one car");
        let steps = cars.pop().map(|car| car.spec.steps).unwrap_or_default();
        let (payloads, exchanges) = (train.payloads.clone(), train.exchanges.clone());
        train.clear();
        Ok(Composite { steps, payloads, exchanges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_are_unique() {
        let world = ompc_mpi::World::new(2);
        let es = EventSystem::new(world.communicator(0));
        let tags: Vec<Tag> = (0..8).map(|_| es.open_channel()).collect();
        let mut unique = tags.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), tags.len(), "event tags must be unique");
    }

    #[test]
    fn counters_record_events_and_bytes() {
        let c = EventCounters::default();
        c.record_tasks(3, Frames::default());
        c.record_data(100);
        c.record_data(50);
        assert_eq!(c.events.load(Ordering::Relaxed), 3);
        assert_eq!(c.data_events.load(Ordering::Relaxed), 2);
        assert_eq!(c.bytes_moved.load(Ordering::Relaxed), 150);
        // Two tasks and three frames behind them, counted at once.
        let mut frames = Frames::default();
        [8, 16].into_iter().for_each(|bytes| frames.add(bytes));
        frames += Frames { count: 1, bytes: 4 };
        c.record_tasks(2, frames);
        c.record_tasks(1, Frames::default());
        assert_eq!(c.events.load(Ordering::Relaxed), 3 + 5 + 1);
        assert_eq!(c.data_events.load(Ordering::Relaxed), 2 + 3);
        assert_eq!(c.bytes_moved.load(Ordering::Relaxed), 150 + 28);
    }

    #[test]
    fn a_reply_that_never_comes_fails_at_the_reply_timeout() {
        // Nobody serves rank 1. The head's wait is one sleep that ends at
        // its own deadline: no transport tick wakes it on the way there.
        let world = ompc_mpi::World::new(2);
        let timeout = Duration::from_millis(120);
        let es = EventSystem::with_reply_timeout(world.communicator(0), Some(timeout));
        let t0 = std::time::Instant::now();
        let err = es.retrieve(1, BufferId(0)).unwrap_err();
        assert!(matches!(err, crate::types::OmpcError::Communication(_)), "got {err:?}");
        assert!((timeout..Duration::from_secs(30)).contains(&t0.elapsed()), "{:?}", t0.elapsed());
        let head = world.communicator(0).mailbox_stats();
        assert_eq!((head.woken, head.empty_wakeups, head.posted), (0, 0, 0));
    }
}
