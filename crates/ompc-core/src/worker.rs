//! The worker-node runtime: device memory and the event pool whose idle
//! members receive the notifications they run (the destination side of the
//! event system, paper §4.2).
//!
//! Every event ends in exactly one typed reply
//! ([`crate::protocol::EventReply`]) on the event's exclusive channel — a
//! train car's on its train's completion channel, led by the car's tag:
//! `Ok(payload)` on success or `Err` carrying the originating node and
//! event tag when the handler failed — the head node never blocks on an
//! event whose handler errored. A [`crate::protocol::EventRequest::Kill`] (failure
//! injection) kills the event loop for real: the node stops executing
//! events and refuses every later one with an error reply until the final
//! [`crate::protocol::EventRequest::Shutdown`].
//!
//! Buffers are held, received and sent as shared [`Bytes`] handles: a
//! payload that arrives is stored as the allocation the sender held, a
//! forward, a push or a retrieve sends the resident handle as the message
//! body, and kernels borrow their inputs ([`KernelArgs`]): no handler
//! copies a payload.
//!
//! A car may wait here for what a car on another node sends — a claim for
//! its push — so every push channel carries exactly one message: the bytes,
//! or the error of the car that will never send them (its failure, or the
//! node's, refused by the zombie gate). A train's pushes and replies leave
//! together, when the train ends or a car would wait: one delivery wakes
//! each receiver once.

use crate::kernel::{ArgSlots, KernelArgs, KernelRegistry};
use crate::protocol::{
    payload_body, write_reply_header, BufferIds, EventNotification, EventReply, Notice, Reply,
    Request, SentFrames, Steps, TaskStamps, TaskStep, CONTROL_TAG,
};
use crate::runtime::telemetry::monotonic_us;
use crate::types::{BufferId, IdMap, KernelId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{Bytes, Communicator, Message, PostedRecv, RecvGroup, Tag};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// The head node's rank in the world communicator.
const HEAD_RANK: usize = 0;

/// A worker node's local buffer storage (its "device memory"): one shared
/// handle per resident buffer, and the failure of each buffer whose last
/// receive or write failed.
///
/// A receive, a claim and a local write a car marks ([`TaskStep::Wrote`])
/// each *land* a version of their buffer — the bytes stored, or the failure
/// recorded. Every event that lands a version runs on the node's one lane,
/// in match order, so the version an `AwaitLocal` step names has landed
/// before the step runs: the step only reads whether it failed.
#[derive(Debug, Default)]
pub struct DeviceMemory {
    state: Mutex<MemoryState>,
}

#[derive(Debug, Default)]
struct MemoryState {
    buffers: IdMap<u64, Bytes>,
    /// Per buffer whose last landed version failed, the error: what its
    /// readers reply.
    failed: IdMap<u64, OmpcError>,
}

impl DeviceMemory {
    /// Create empty device memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store (or overwrite) the contents of a buffer.
    pub fn store(&self, id: BufferId, data: Bytes) {
        self.state.lock().buffers.insert(id.0, data);
    }

    /// Land a version of `id`: store the bytes of a receive (a write has
    /// stored its own), or record the failure for the version's readers.
    /// Returns the version's own outcome.
    pub(crate) fn land(&self, id: BufferId, outcome: OmpcResult<Option<Bytes>>) -> OmpcResult<()> {
        let mut state = self.state.lock();
        match outcome {
            Ok(data) => {
                if let Some(data) = data {
                    state.buffers.insert(id.0, data);
                }
                state.failed.remove(&id.0);
                Ok(())
            }
            Err(error) => {
                state.failed.insert(id.0, error.clone());
                Err(error)
            }
        }
    }

    /// The outcome of the last version of `id` that landed: its error if it
    /// failed.
    fn landed(&self, id: BufferId) -> OmpcResult<()> {
        self.state.lock().failed.get(&id.0).map_or(Ok(()), |error| Err(error.clone()))
    }

    /// A handle on the resident contents of a buffer — the allocation
    /// itself, not a copy of it.
    pub fn get(&self, id: BufferId) -> Option<Bytes> {
        self.state.lock().buffers.get(&id.0).cloned()
    }

    /// [`DeviceMemory::get`], a missing buffer being the typed error.
    fn resident(&self, id: BufferId) -> OmpcResult<Bytes> {
        self.get(id).ok_or(OmpcError::UnknownBuffer(id))
    }

    /// Remove a buffer, returning whether it was present.
    pub fn remove(&self, id: BufferId) -> bool {
        self.state.lock().buffers.remove(&id.0).is_some()
    }

    /// Store zeroed storage of `size` bytes for `id` unless it is resident.
    fn alloc(&self, id: BufferId, size: u64) {
        let mut state = self.state.lock();
        state.buffers.entry(id.0).or_insert_with(|| Bytes::zeroed(size as usize));
    }

    /// Whether the buffer is present.
    pub fn contains(&self, id: BufferId) -> bool {
        self.state.lock().buffers.contains_key(&id.0)
    }

    /// Number of resident buffers.
    pub fn len(&self) -> usize {
        self.state.lock().buffers.len()
    }

    /// Whether no buffers are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident buffer and every failure record (warm-worker
    /// recycling between device lifetimes).
    pub fn clear(&self) {
        let mut state = self.state.lock();
        state.buffers.clear();
        state.failed.clear();
    }
}

/// Wrap a handler error as a [`OmpcError::RemoteEvent`] naming this node
/// and event, unless it already carries an origin (a forwarded remote
/// error keeps its original attribution).
fn as_remote(node: NodeId, tag: Tag, error: OmpcError) -> OmpcError {
    match error {
        already @ OmpcError::RemoteEvent { .. } => already,
        error => OmpcError::RemoteEvent { node, event: tag.0, error: Box::new(error) },
    }
}

/// What a lane keeps of its outbox from one event to the next: the queue,
/// the headers of the queued messages, written one after another, and the
/// frames earlier deliveries sent them in. Each delivery's headers go out
/// as one frame, and each message carries a slice of it.
#[derive(Debug, Default)]
struct Queue {
    /// What is queued: destination, tag, the header's place in `headers`,
    /// and the body.
    messages: Vec<(usize, Tag, Range<usize>, Option<Bytes>)>,
    headers: Vec<u8>,
    frames: SentFrames,
}

/// What a lane reuses from one event to the next: its outbox's queue and
/// frames, and the slots its kernels' arguments are lent in. A member takes
/// one for each event it runs, so an event in the steady state allocates
/// nothing for either.
#[derive(Debug, Default)]
struct Lane {
    queue: Queue,
    args: ArgSlots,
}

/// What an event sends — each push, each train car's reply — held back
/// until the event ends or one of its steps would wait: then one delivery
/// ([`Communicator::send_all`]) hands every receiver all of it before waking
/// any, instead of waking a peer or the head, which on a shared CPU runs at
/// once, message by message.
struct Outbox<'c> {
    channel: &'c Communicator,
    queue: &'c mut Queue,
}

impl<'c> Outbox<'c> {
    fn new(channel: &'c Communicator, queue: &'c mut Queue) -> Self {
        Self { channel, queue }
    }

    /// Queue an event's one typed reply to `dest` on `tag`: the reply's
    /// header and body on success, the error — attributed to this node and
    /// event — otherwise. The reply of train car `car` travels on the train
    /// envelope's channel, its header led by the car's tag
    /// ([`crate::protocol::car_reply_header`]) and its error attributed to
    /// the car. Returns the handler's own outcome.
    fn reply(
        &mut self,
        dest: usize,
        tag: Tag,
        car: Option<Tag>,
        outcome: OmpcResult<Reply>,
    ) -> OmpcResult<()> {
        let (reply, body, outcome) = match outcome {
            Ok(reply) => {
                let (reply, body) = reply.into_header();
                (reply, body, Ok(()))
            }
            Err(error) => {
                let event = car.unwrap_or(tag);
                let failed = as_remote(self.channel.rank(), event, error.clone());
                (EventReply::Err(failed), None, Err(error))
            }
        };
        let headers = &mut self.queue.headers;
        let at = headers.len();
        write_reply_header(headers, car, &reply);
        let header = at..headers.len();
        self.queue.messages.push((dest, tag, header, body));
        outcome
    }

    /// Send what is queued. A delivery fails only when the world is going
    /// away, and then nobody is left to tell.
    fn flush(&mut self) {
        let Queue { messages, headers, frames } = &mut *self.queue;
        if !messages.is_empty() {
            let frame = frames.send(headers);
            let sent = messages
                .drain(..)
                .map(|(dest, tag, header, body)| (dest, tag, frame.slice(header), body));
            let _ = self.channel.send_all(sent);
        }
    }

    /// The next message on `(source, tag)`: what is queued is sent first if
    /// the step has to wait for it.
    fn recv(&mut self, source: Option<NodeId>, tag: Tag) -> OmpcResult<Message> {
        if let Some(msg) = self.channel.try_recv(source, Some(tag)) {
            return Ok(msg);
        }
        self.flush();
        Ok(self.channel.recv(source, Some(tag))?)
    }
}

impl Drop for Outbox<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Receive the host payload message that follows a notification on its
/// channel.
fn recv_payload(outbox: &mut Outbox, tag: Tag) -> OmpcResult<Bytes> {
    let msg = outbox.recv(Some(HEAD_RANK), tag)?;
    payload_body(&msg.data, msg.body)
}

/// What the sending half of a forward or a push sent: the buffer, or its attributed error.
fn forwarded(msg: Message) -> OmpcResult<Bytes> {
    let reply = Reply::from_parts(&msg.data, msg.body, true)?;
    reply.body.ok_or_else(|| OmpcError::Internal("forward without its data".to_string()))
}

/// Send `error`, attributed to this node and the car on `car`, down every push channel of
/// `steps` in place of the bytes: a claim of the push hears it instead of waiting for bytes
/// that never come.
fn fail_pushes(outbox: &mut Outbox, steps: Steps<'_>, car: Tag, error: &OmpcError) {
    let error = as_remote(outbox.channel.rank(), car, error.clone());
    for step in steps.flatten() {
        if let TaskStep::Push { to, tag, .. } = step {
            let _ = outbox.reply(to, tag, None, Err(error.clone()));
        }
    }
}

/// Run `kernel` against the node's device copies of `buffers`, its
/// arguments held in the lane's `slots`.
///
/// The kernel borrows the resident handles (see [`KernelArgs`]): nothing is
/// copied in, and only what it wrote is stored back, when it returns. A
/// buffer that is not resident is an error before the kernel runs, and a
/// kernel that panics is an error that leaves device memory as it was —
/// either way the handler thread lives on to send the typed reply.
fn execute_kernel(
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    slots: &mut ArgSlots,
    kernel: KernelId,
    buffers: BufferIds<'_>,
) -> OmpcResult<()> {
    let k = kernels.get(kernel).ok_or(OmpcError::UnknownKernel(kernel))?;
    let mut args = {
        let state = memory.state.lock();
        let resident = |b: BufferId| state.buffers.get(&b.0).cloned();
        KernelArgs::resident(slots, buffers, |b| resident(b).ok_or(OmpcError::UnknownBuffer(b)))?
    };
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.execute(&mut args)));
    let commit = ran.is_ok();
    args.finish(slots, |id, data| {
        if commit {
            memory.store(id, data);
        }
    });
    ran.map_err(|_| OmpcError::Internal(format!("kernel '{}' panicked", k.name())))
}

/// Execute the steps of a composite [`crate::protocol::EventRequest::Task`] in order, read
/// in place from the frame they came in, and make its reply: the buffer of
/// its [`TaskStep::Retrieve`] step as the body, if it has one. The first
/// failing step aborts the task; the caller replies with the error, and the
/// receives the task did not get to are landed as failed with it, so
/// whoever awaits their bytes replies the same error.
///
/// With `recv_us` set (the head asked for a timed reply), the worker stamps
/// the moment the data steps finished (`deps_us` — everything before it is
/// dependency/transfer wait) and the kernel-execution window; without it no
/// clock is ever read.
fn run_task_steps(
    outbox: &mut Outbox,
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    args: &mut ArgSlots,
    steps: &mut Steps<'_>,
    tag: Tag,
    recv_us: Option<u64>,
) -> OmpcResult<Reply> {
    let mut stamps = recv_us.map(|recv_us| TaskStamps {
        recv_us,
        deps_us: recv_us,
        exec_start_us: recv_us,
        exec_end_us: recv_us,
    });
    let (mut body, mut kernel_ran) = (None, false);
    while let Some(step) = steps.next() {
        let ran = match step {
            Err(error) => Err(error),
            Ok(TaskStep::RecvFromHead { buffer }) => {
                memory.land(buffer, recv_payload(outbox, tag).map(Some))
            }
            Ok(TaskStep::RecvFromWorker { buffer, from }) => {
                let forward = outbox.recv(Some(from), tag).and_then(forwarded);
                memory.land(buffer, forward.map(Some))
            }
            Ok(TaskStep::Claim { buffer, tag }) => {
                // What was pushed on the push's own channel — the bytes, or the
                // error of the producer's car, its dead node or the head.
                let pushed = outbox.recv(None, tag).and_then(forwarded);
                memory.land(buffer, pushed.map(Some))
            }
            Ok(TaskStep::Wrote { buffer }) => memory.land(buffer, Ok(None)),
            // The version it names ran ahead of it on the lane.
            Ok(TaskStep::AwaitLocal { buffer, .. }) => memory.landed(buffer),
            Ok(TaskStep::Alloc { buffer, size }) => {
                memory.alloc(buffer, size);
                Ok(())
            }
            Ok(TaskStep::Delete { buffer }) => {
                // Deferred head-side maintenance riding this task; absent
                // buffers are fine (the copy may never have landed). The
                // deletes that follow go under the same lock.
                let mut state = memory.state.lock();
                state.buffers.remove(&buffer.0);
                let mut ahead = steps.clone();
                while let Some(Ok(TaskStep::Delete { buffer })) = ahead.next() {
                    state.buffers.remove(&buffer.0);
                    *steps = ahead.clone();
                }
                Ok(())
            }
            Ok(TaskStep::Execute { kernel, buffers }) => {
                kernel_ran = true;
                if let Some(s) = stamps.as_mut() {
                    let now = monotonic_us();
                    s.deps_us = now;
                    s.exec_start_us = now;
                }
                let executed = execute_kernel(memory, kernels, args, kernel, buffers);
                if let Some(s) = stamps.as_mut() {
                    s.exec_end_us = monotonic_us();
                }
                executed
            }
            Ok(TaskStep::Retrieve { buffer }) => memory.resident(buffer).map(|data| {
                body = Some(data);
            }),
            Ok(TaskStep::Push { buffer, to, tag }) => {
                // The reader hears any failure: the error sent, or its claim's.
                let data = memory.resident(buffer).map(Reply::data);
                let _ = outbox.reply(to, tag, None, data);
                Ok(())
            }
            Ok(TaskStep::Discard { tag }) => {
                // Whatever was pushed — the bytes or their error — goes. The car that
                // pushed it has replied, so it is here, if a claim did not take it.
                let _ = outbox.channel.try_recv(None, Some(tag));
                Ok(())
            }
        };
        if let Err(error) = ran {
            abandon_steps(outbox, memory, steps, tag, &error);
            return Err(error);
        }
    }
    // Without a kernel, the data steps end with the task.
    if let Some(s) = stamps.as_mut().filter(|_| !kernel_ran) {
        s.deps_us = monotonic_us();
    }
    Ok(Reply { body, stamps, ..Reply::default() })
}

/// Land every receive and write among `steps` — a task's steps it will never
/// run — as failed with `error`, attributed to the car on `car`: whoever
/// awaits one of them replies the car's very error. Each push sends that
/// error in place of its bytes, and a claimed copy stays queued for the
/// head's [`TaskStep::Discard`]. `steps` is read to its end.
fn abandon_steps(
    outbox: &mut Outbox,
    memory: &DeviceMemory,
    steps: &mut Steps<'_>,
    car: Tag,
    error: &OmpcError,
) {
    fail_pushes(outbox, steps.clone(), car, error);
    let error = as_remote(outbox.channel.rank(), car, error.clone());
    for step in steps.flatten() {
        match step {
            TaskStep::RecvFromHead { buffer }
            | TaskStep::RecvFromWorker { buffer, .. }
            | TaskStep::Claim { buffer, .. }
            | TaskStep::Wrote { buffer } => {
                let _ = memory.land(buffer, Err(error.clone()));
            }
            _ => {}
        }
    }
}

/// A notification a member accepted: the frame it came in, and what
/// [`Notice::read`] read of it there. Its steps and cars are read again, in
/// place, when it runs.
#[derive(Debug)]
struct Event {
    frame: Bytes,
    notice: Notice,
}

/// Handle one event on the worker side, always producing exactly one typed
/// reply (to the head node, or to the exchange receiver for the sending
/// half). Returns the handler's own outcome so tests and the pool can
/// observe failures; the same error has already been sent as the reply.
/// Exposed for unit testing; normal use is through [`worker_main`], whose
/// event pool accepts the event and runs it from the frame it came in.
pub fn handle_event(
    comm: &Communicator,
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    notification: EventNotification,
) -> OmpcResult<()> {
    let frame = Bytes::from(notification.encode());
    let notice = Notice::read(&frame)?;
    run_event(comm, memory, kernels, &mut Lane::default(), &Event { frame, notice })
}

/// Run an accepted event with what `lane` lends it.
fn run_event(
    comm: &Communicator,
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    lane: &mut Lane,
    event: &Event,
) -> OmpcResult<()> {
    let Event { frame, notice } = event;
    let tag = notice.tag;
    // Handler-entry timestamp, read only when the head asked for a timed
    // reply — an untimed event costs no clock read on the worker.
    let recv_us = notice.timed.then(monotonic_us);
    let mut outbox = Outbox::new(comm, &mut lane.queue);
    let args = &mut lane.args;
    match notice.request {
        Request::Shutdown | Request::Kill => Ok(()), // the pool's concerns
        Request::ExchangeSend { buffer, to } => {
            // The sending half's "reply" goes to the receiver: the resident
            // handle as the body on success, the error otherwise. The
            // receiver propagates a failure to the head, so the head never
            // hangs on a half-completed exchange.
            outbox.reply(to, tag, None, memory.resident(buffer).map(Reply::data))
        }
        Request::TaskTrain => {
            // Run the cars strictly in order, each car's payloads and
            // forwards on its own channel and its one reply on the
            // envelope's — the completion channel of the execution that
            // sent the train. A failed car replies its typed error and the
            // train keeps rolling (tasks are independent; the head's
            // per-task blame machinery decides what a failure means). The
            // first car error is this handler's own outcome.
            // The cars' pushes and replies leave together, when the train
            // ends or a car would wait. Each car is read once, as it runs,
            // and the next one read from where it ends.
            let mut result = Ok(());
            let mut cars = notice.cars(frame)?;
            while let Some(car) = cars.next_car() {
                let (car, steps) = car?;
                // Each car stamps its own pickup time: cars run strictly in
                // order, so car N's recv marks when the handler reached it.
                let car_recv_us = notice.timed.then(monotonic_us);
                let ran =
                    run_task_steps(&mut outbox, memory, kernels, args, steps, car, car_recv_us);
                result = result.and(outbox.reply(HEAD_RANK, tag, Some(car), ran));
            }
            result
        }
        Request::Task => {
            let ran = notice.steps(frame).and_then(|mut steps| {
                run_task_steps(&mut outbox, memory, kernels, args, &mut steps, tag, recv_us)
            });
            outbox.reply(HEAD_RANK, tag, None, ran)
        }
        Request::Reset => {
            memory.clear();
            outbox.reply(HEAD_RANK, tag, None, Ok(Reply::default()))
        }
    }
}

/// Whether `event` runs at once on the member that accepted it instead of
/// joining the node's lane: only what can never block it and lands no
/// version — sending, allocating, deleting, retrieving. A `Task` runs at once
/// unless one of its steps waits on the head, a peer or a kernel, lands a
/// version or reads whether one landed; the sending half of a forward and a
/// reset run at once too. This is the analogue of the paper's handlers
/// re-enqueueing events that still have pending I/O, so the lane cannot
/// deadlock on two opposing forwards. Whether a step waits or lands was
/// noted when the notification was checked at accept ([`Notice::blocks`]):
/// the task is not walked again to ask.
fn runs_on_gate(event: &Event) -> bool {
    match event.notice.request {
        Request::Task => !event.notice.blocks,
        Request::ExchangeSend { .. } | Request::Reset => true,
        _ => false,
    }
}

/// Refuse an event on a killed node: reply with the node's failure instead
/// of executing anything, so no peer ever blocks on a dead node. Every car
/// of a task train is refused individually, with the one reply on the
/// envelope's channel the handler would send for a failed car, after the
/// failure went down each of its push channels in place of the bytes.
fn refuse_event(comm: &Communicator, event: &Event) -> OmpcResult<()> {
    let Event { frame, notice } = event;
    let node = comm.rank();
    let dead = OmpcError::NodeFailure(node);
    let mut queue = Queue::default();
    let mut outbox = Outbox::new(comm, &mut queue);
    if notice.request == Request::TaskTrain {
        for (car, steps) in notice.cars(frame)?.flatten() {
            fail_pushes(&mut outbox, steps, car, &dead);
            let _ = outbox.reply(HEAD_RANK, notice.tag, Some(car), Err(dead.clone()));
        }
        return Ok(());
    }
    fail_pushes(&mut outbox, notice.steps(frame)?, notice.tag, &dead);
    outbox.flush();
    let error = as_remote(node, notice.tag, dead);
    let dest = match notice.request {
        // The exchange receiver is the peer waiting on the sending half.
        Request::ExchangeSend { to, .. } => to,
        _ => HEAD_RANK,
    };
    comm.send(dest, notice.tag, EventReply::Err(error).encode())?;
    Ok(())
}

/// What the members of a worker's event pool share, under the pool's lock.
#[derive(Debug, Default)]
struct PoolState {
    /// Match index of the next notification to accept.
    next: u64,
    /// Notifications matched ahead of `next`, by match index: their members
    /// woke before the members matched earlier did.
    early: BTreeMap<u64, Message>,
    /// Accepted notifications that cannot block, to run at once.
    ready: VecDeque<Event>,
    /// The lane: accepted notifications that may block, in match order.
    blocking: VecDeque<Event>,
    /// What the members running no event leave for the next one to reuse.
    lanes: Vec<Lane>,
    /// Whether a member runs the lane's job.
    running: bool,
    /// Set by a `Kill`: every notification matched afterwards is refused.
    dead: bool,
    /// Set by a `Shutdown` or a failed receive: nothing more is received,
    /// and the members leave once the queues are drained.
    closed: bool,
}

/// A worker node's event pool (paper §4.2's gate and handler in one): two
/// members, each idle one posting its own receive on [`CONTROL_TAG`], so the
/// mailbox hands each notification straight to the thread that runs it.
///
/// The pool's rule: under its lock and strictly in match-index order, a
/// member accepts each notification — decodes it, handles `Shutdown`, `Kill`
/// and the dead flag, and classifies it with [`runs_on_gate`]. What cannot
/// block runs at once, on the member that took it; the rest joins the node's
/// one lane, whose jobs run one at a time in match order, also while a
/// closed pool drains. So while one member runs the lane the other receives,
/// and every version a lane job lands has landed before the jobs matched
/// after it run.
struct Pool<'a> {
    comm: &'a Communicator,
    memory: &'a DeviceMemory,
    kernels: &'a KernelRegistry,
    /// The receives the idle members post: most recent first, numbered at
    /// match.
    group: RecvGroup,
    state: Mutex<PoolState>,
    /// Signalled when notifications were accepted: a member matched ahead
    /// of its turn waits here for the members matched before it.
    turn: Condvar,
}

impl<'a> Pool<'a> {
    fn new(comm: &'a Communicator, memory: &'a DeviceMemory, kernels: &'a KernelRegistry) -> Self {
        Self {
            comm,
            memory,
            kernels,
            group: RecvGroup::new(),
            state: Mutex::default(),
            turn: Condvar::new(),
        }
    }

    /// One member's life: run what is ready or the lane's next job if the
    /// lane is free, otherwise post its receive and accept what it is
    /// handed, until the pool is closed and drained.
    fn serve(&self) {
        // The member's own receive, posted again each time it is idle.
        let mut receive: Option<PostedRecv> = None;
        let mut state = self.state.lock();
        loop {
            let job = match state.ready.pop_front() {
                Some(notification) => Some((notification, false)),
                None if !state.running => state.blocking.pop_front().map(|n| (n, true)),
                None => None,
            };
            if let Some((event, lane)) = job {
                state.running |= lane;
                let mut reused = state.lanes.pop().unwrap_or_default();
                drop(state);
                // Errors on individual events must not end the member; the
                // head receives them as error replies on the event channel.
                let _ = run_event(self.comm, self.memory, self.kernels, &mut reused, &event);
                drop(event);
                state = self.state.lock();
                state.running &= !lane;
                state.lanes.push(reused);
                continue;
            }
            if state.closed {
                return;
            }
            let posted = match receive.take() {
                Some(mut posted) => {
                    posted.restart();
                    Ok(posted)
                }
                None => self.comm.irecv_in(None, Some(CONTROL_TAG), &self.group),
            };
            let Ok(posted) = posted else {
                self.close(&mut state);
                continue;
            };
            let posted = receive.insert(posted);
            drop(state);
            let matched = posted.wait();
            state = self.state.lock();
            match matched {
                Ok((message, index)) => {
                    self.arrive(&mut state, index, message);
                    // Accepted by whoever's turn it was: our job is queued,
                    // and we are awake to run it.
                    while state.next <= index {
                        self.turn.wait(&mut state);
                    }
                }
                // The world shut down, every peer terminated, or the group
                // was closed.
                Err(_) => self.close(&mut state),
            }
        }
    }

    /// Hand the pool notification `index` and accept, in match order, every
    /// notification whose turn has come.
    fn arrive(&self, state: &mut PoolState, index: u64, message: Message) {
        state.early.insert(index, message);
        while let Some(message) = state.early.remove(&state.next) {
            state.next += 1;
            self.accept(state, message);
        }
        // Free when no member waits for its turn, the common case.
        self.turn.notify_all();
    }

    /// The in-order work on one notification.
    fn accept(&self, state: &mut PoolState, message: Message) {
        if state.closed {
            return;
        }
        let Ok(notice) = Notice::read(&message.data) else { return };
        match notice.request {
            Request::Shutdown => return self.close(state),
            Request::Kill => {
                state.dead = true;
                return;
            }
            _ => {}
        }
        let event = Event { frame: message.data, notice };
        if state.dead {
            let _ = refuse_event(self.comm, &event);
            return;
        }
        match runs_on_gate(&event) {
            true => state.ready.push_back(event),
            false => state.blocking.push_back(event),
        }
    }

    /// Receive nothing more: release every posted member. What was accepted
    /// still runs.
    fn close(&self, state: &mut PoolState) {
        state.closed = true;
        self.comm.close_group(&self.group);
    }
}

/// The worker-node main loop: an event pool of two members, this thread one
/// of them.
///
/// Returns when a shutdown event is received (normal termination) or when
/// the communication substrate reports that the peers are gone. A kill
/// event ([`crate::protocol::EventRequest::Kill`], failure injection) ends the node's
/// useful life early: events already accepted still complete (and reply),
/// but every event notified afterwards is refused with an error reply
/// instead of being executed — peers observe the failure immediately
/// rather than hanging, and no further effects land on the dead node.
pub fn worker_main(comm: Communicator, kernels: Arc<KernelRegistry>) {
    run_pool(&comm, &kernels, true);
}

/// Serve `comm` with this thread and, if `second` holds and the OS grants
/// it, a second member.
fn run_pool(comm: &Communicator, kernels: &KernelRegistry, second: bool) {
    let memory = DeviceMemory::new();
    let pool = Pool::new(comm, &memory, kernels);
    std::thread::scope(|scope| {
        let member = second.then(|| {
            std::thread::Builder::new()
                .name(format!("ompc-member-{}", comm.rank()))
                .spawn_scoped(scope, || pool.serve())
        });
        // Alone, a member could never run the lane while it is also the one
        // receiving: the node refuses every event, as a killed node does.
        if !matches!(member, Some(Ok(_))) {
            pool.state.lock().dead = true;
        }
        pool.serve();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EventRequest, TaskSpec};
    use ompc_mpi::{CommId, Tag, World};

    /// A task of one `Execute` step: how a kernel runs.
    fn kernel_task(kernel: KernelId, buffers: Vec<BufferId>) -> EventRequest {
        EventRequest::Task(TaskSpec { steps: vec![TaskStep::Execute { kernel, buffers }] })
    }

    /// An untimed notification of a task of `steps` on `tag`.
    fn steps_on(steps: Vec<TaskStep>, tag: u64) -> EventNotification {
        notification(EventRequest::Task(TaskSpec { steps }), tag)
    }

    #[test]
    fn device_memory_basics() {
        let mem = DeviceMemory::new();
        assert!(mem.is_empty());
        mem.store(BufferId(1), vec![1, 2, 3].into());
        assert!(mem.contains(BufferId(1)));
        assert_eq!(mem.get(BufferId(1)), Some(vec![1, 2, 3].into()));
        assert_eq!(mem.len(), 1);
        assert!(mem.remove(BufferId(1)));
        assert!(!mem.remove(BufferId(1)));
        assert!(mem.get(BufferId(9)).is_none());
    }

    #[test]
    fn handle_alloc_submit_execute_retrieve_cycle() {
        // Drive a single worker's event handler directly from the test
        // acting as the head node.
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let kid = kernels.register_fn("scale", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 3.0).collect();
            args.set_f64s(0, &v);
        });

        // Submit data.
        let buffer = BufferId(0);
        let tag = Tag(10);
        let payload = ompc_mpi::typed::f64s_to_bytes(&[1.0, 2.0]).into();
        head.send_with_body(1, tag, Vec::new(), payload).unwrap();
        let submit = steps_on(vec![TaskStep::RecvFromHead { buffer }], tag.0);
        handle_event(&worker, &memory, &kernels, submit).unwrap();
        // The typed Ok reply arrived at the head.
        let msg = head.recv(Some(1), Some(tag)).unwrap();
        assert_eq!(EventReply::decode(&msg.data).unwrap(), EventReply::Ok(Vec::new()));

        // Execute the kernel.
        let tag2 = Tag(11);
        handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: kernel_task(kid, vec![buffer]),
                tag: tag2,
                comm: CommId::WORLD,
                timed: false,
            },
        )
        .unwrap();
        let msg = head.recv(Some(1), Some(tag2)).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());

        // Retrieve the result.
        let tag3 = Tag(12);
        let retrieve = steps_on(vec![TaskStep::Retrieve { buffer }], tag3.0);
        handle_event(&worker, &memory, &kernels, retrieve).unwrap();
        let msg = head.recv(Some(1), Some(tag3)).unwrap();
        // A retrieve's reply is the buffer: nothing inline, the resident
        // allocation itself as the body.
        let data = Reply::from_parts(&msg.data, msg.body, true).unwrap().body.unwrap();
        assert_eq!(ompc_mpi::typed::bytes_to_f64s(&data).unwrap(), vec![3.0, 6.0]);
        assert!(data.same_allocation(&memory.get(buffer).unwrap()));
    }

    #[test]
    fn retrieve_of_missing_buffer_is_an_error() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let retrieve = steps_on(vec![TaskStep::Retrieve { buffer: BufferId(5) }], 1);
        let err = handle_event(&worker, &memory, &kernels, retrieve).unwrap_err();
        assert_eq!(err, OmpcError::UnknownBuffer(BufferId(5)));
        // The head hears the error, not an empty buffer.
        let msg = head.recv(Some(1), Some(Tag(1))).unwrap();
        let replied = Reply::from_parts(&msg.data, msg.body, true).unwrap_err();
        assert_eq!(replied.root_cause(), &OmpcError::UnknownBuffer(BufferId(5)));
    }

    #[test]
    fn execute_of_unknown_kernel_is_an_error() {
        let world = World::new(2);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let err = handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: kernel_task(KernelId(3), vec![]),
                tag: Tag(1),
                comm: CommId::WORLD,
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownKernel(KernelId(3)));
    }

    #[test]
    fn worker_to_worker_exchange_moves_data_directly() {
        let world = World::new(3);
        let head = world.communicator(0);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let mem1 = DeviceMemory::new();
        let mem2 = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let buffer = BufferId(0);
        mem1.store(buffer, vec![7, 8, 9].into());

        let tag = Tag(20);
        // Receiving half first (it blocks waiting for the data), then the
        // sending half, run from two threads like real event handlers.
        let recv_thread = std::thread::spawn({
            let w2 = w2.clone();
            let kernels = KernelRegistry::new();
            move || {
                let mem2 = DeviceMemory::new();
                let recv = steps_on(vec![TaskStep::RecvFromWorker { buffer, from: 1 }], tag.0);
                handle_event(&w2, &mem2, &kernels, recv).unwrap();
                mem2.get(buffer)
            }
        });
        handle_event(
            &w1,
            &mem1,
            &kernels,
            EventNotification {
                request: EventRequest::ExchangeSend { buffer, to: 2 },
                tag,
                comm: CommId::WORLD,
                timed: false,
            },
        )
        .unwrap();
        let received = recv_thread.join().unwrap();
        // The receiver's resident bytes *are* the sender's allocation.
        let sent = mem1.get(buffer).unwrap();
        assert!(received.is_some_and(|r| r.same_allocation(&sent) && r[..] == [7, 8, 9]));
        // The head got the receiving task's one typed reply, and nothing else.
        let ack = head.recv(Some(2), Some(tag)).unwrap();
        assert_eq!(Reply::from_parts(&ack.data, ack.body, false), Ok(Reply::default()));
        assert_eq!(head.mailbox_stats().queued, 0);
        let _ = mem2;
    }

    fn execute(kernel: KernelId, buffers: Vec<BufferId>, tag: u64) -> EventNotification {
        EventNotification {
            request: kernel_task(kernel, buffers),
            tag: Tag(tag),
            comm: CommId::WORLD,
            timed: false,
        }
    }

    #[test]
    fn one_delete_event_frees_every_listed_buffer_and_replies_once() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        for id in 0..4 {
            memory.store(BufferId(id), vec![id as u8; 8].into());
        }
        // Buffer 9 never landed here: absent buffers are fine.
        let deletes = [0, 9, 2, 3].map(|b| TaskStep::Delete { buffer: BufferId(b) });
        handle_event(&worker, &memory, &kernels, steps_on(deletes.to_vec(), 5)).unwrap();
        assert_eq!(memory.len(), 1);
        assert!(memory.contains(BufferId(1)), "an unlisted buffer stays");
        let msg = head.recv(Some(1), Some(Tag(5))).unwrap();
        assert_eq!(EventReply::decode(&msg.data).unwrap(), EventReply::Ok(Vec::new()));
        assert!(head.iprobe(None, None).is_none(), "exactly one reply");
    }

    #[test]
    fn an_allocated_buffer_reads_as_zeros_until_a_kernel_writes_it() {
        let world = World::new(2);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        const N: usize = 1 << 16;
        let ids: Vec<BufferId> = (0..3).map(BufferId).collect();
        use crate::protocol::{TaskSpec, TaskStep};
        let task = |steps| EventNotification {
            request: EventRequest::Task(TaskSpec { steps }),
            tag: Tag(8),
            comm: CommId::WORLD,
            timed: false,
        };
        let allocs = || ids.iter().map(|&buffer| TaskStep::Alloc { buffer, size: N as u64 });

        // `Alloc` of a buffer already resident is a no-op; a fresh one reads
        // as zeros.
        let resident = Bytes::from(vec![5u8; N]);
        memory.store(ids[2], resident.clone());
        let reads = kernels.register_fn("reads", 1e-6, |args| {
            assert!(args.bytes(0) == [0u8; N] && args.bytes(1) == [0u8; N]);
            assert!(args.bytes(2) == [5u8; N]);
        });
        let run = |kernel| TaskStep::Execute { kernel, buffers: ids.clone() };
        handle_event(&worker, &memory, &kernels, task(allocs().chain([run(reads)]).collect()))
            .unwrap();
        assert!(memory.get(ids[2]).unwrap().same_allocation(&resident));
        let fresh = memory.get(ids[0]).unwrap();

        // A kernel that writes: `set_f64s` replaces the view outright and
        // `bytes_mut` materialises private zeros — neither result is a view
        // of zeros any more, and the zeros themselves are never written.
        let writes = kernels.register_fn("writes", 1e-6, |args| {
            args.set_f64s(0, &[1.5]);
            args.bytes_mut(1)[N - 1] = 9;
        });
        handle_event(&worker, &memory, &kernels, task(vec![run(writes)])).unwrap();
        let now: Vec<Bytes> = ids.iter().map(|&id| memory.get(id).unwrap()).collect();
        assert_eq!(now[0], Bytes::from(ompc_mpi::typed::f64s_to_bytes(&[1.5])));
        assert_eq!((now[1].len(), now[1][N - 1], now[1][0]), (N, 9, 0));
        assert!(!now[0].same_allocation(&fresh) && !now[1].same_allocation(&fresh));
        assert!(fresh.len() == N && fresh.iter().all(|&byte| byte == 0));

        // An enter car's alloc (map(alloc:)) behind the delete of a stale
        // copy replaces what was there.
        let alloc = TaskStep::Alloc { buffer: ids[0], size: 16 };
        let delete = TaskStep::Delete { buffer: ids[0] };
        handle_event(&worker, &memory, &kernels, task(vec![delete, alloc])).unwrap();
        assert_eq!(memory.get(ids[0]).unwrap(), Bytes::from(vec![0u8; 16]));
    }

    #[test]
    fn a_kernel_never_computes_on_a_buffer_that_is_not_there() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let touch = kernels.register_fn("touch", 1e-6, move |_| {
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        memory.store(BufferId(1), vec![1].into());
        let (here, missing) = (BufferId(1), BufferId(2));
        let err = handle_event(&worker, &memory, &kernels, execute(touch, vec![here, missing], 5))
            .unwrap_err();
        assert_eq!(err, OmpcError::UnknownBuffer(missing));
        assert!(!ran.load(std::sync::atomic::Ordering::SeqCst), "the kernel must not run");
        // Nothing was conjured into residency.
        assert!(!memory.contains(missing));
        let msg = head.recv(Some(1), Some(Tag(5))).unwrap();
        let replied = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
        assert_eq!(replied.root_cause(), &OmpcError::UnknownBuffer(missing));
    }

    #[test]
    fn a_panicking_kernel_is_a_typed_reply_and_leaves_device_memory_as_it_was() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        // Writes its output, then trips over an input that is not whole f64s.
        let boom = kernels.register_fn("boom", 1e-6, |args| {
            args.set_f64s(1, &[9.0]);
            args.bytes_mut(2)[0] = 9;
            args.as_f64s(0);
        });
        let before: Vec<Bytes> =
            vec![vec![0u8; 7].into(), vec![1u8; 8].into(), vec![2u8; 8].into()];
        let ids: Vec<BufferId> = (0..3).map(BufferId).collect();
        for (id, data) in ids.iter().zip(&before) {
            memory.store(*id, data.clone());
        }
        let err = handle_event(&worker, &memory, &kernels, execute(boom, ids.clone(), 6));
        assert_eq!(err, Err(OmpcError::Internal("kernel 'boom' panicked".to_string())));
        for (id, data) in ids.iter().zip(&before) {
            let now = memory.get(*id).unwrap();
            assert!(now.same_allocation(data) && now == *data, "{id} changed");
        }
        let msg = head.recv(Some(1), Some(Tag(6))).unwrap();
        match EventReply::decode(&msg.data).unwrap().into_result().unwrap_err() {
            OmpcError::RemoteEvent { node: 1, event: 6, error } => {
                assert_eq!(*error, OmpcError::Internal("kernel 'boom' panicked".to_string()))
            }
            other => panic!("expected a remote-event error, got {other:?}"),
        }
    }

    #[test]
    fn a_forward_in_flight_never_sees_a_later_write_and_a_reader_copies_nothing() {
        let world = World::new(3);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let buffer = BufferId(0);
        let original = Bytes::from(vec![1u8; 64]);
        memory.store(buffer, original.clone());

        // The forward sits in rank 2's mailbox, holding the allocation.
        let forward = EventNotification {
            request: EventRequest::ExchangeSend { buffer, to: 2 },
            tag: Tag(7),
            comm: CommId::WORLD,
            timed: false,
        };
        handle_event(&w1, &memory, &kernels, forward).unwrap();

        // A kernel writes the same buffer in place, twice: one copy.
        let pointers = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&pointers);
        let scribble = kernels.register_fn("scribble", 1e-6, move |args| {
            for value in [8, 9] {
                args.bytes_mut(0)[0] = value;
                seen.lock().push(args.bytes(0).as_ptr() as usize);
            }
        });
        handle_event(&w1, &memory, &kernels, execute(scribble, vec![buffer], 8)).unwrap();
        let written = memory.get(buffer).unwrap();
        assert_eq!((written[0], written[1]), (9, 1));
        assert!(!written.same_allocation(&original), "the write went to a private copy");
        let at = written.as_ptr() as usize;
        assert_eq!(*pointers.lock(), vec![at, at], "exactly one copy, stored back as it is");

        // The forward delivers the bytes as they were when it was sent.
        let msg = w2.recv(Some(1), Some(Tag(7))).unwrap();
        let forwarded = Reply::from_parts(&msg.data, msg.body, true).unwrap().body.unwrap();
        assert!(forwarded.same_allocation(&original));
        assert_eq!(&forwarded[..], &[1u8; 64][..]);

        // A kernel that only reads borrows the resident allocation and
        // stores nothing back.
        let seen = Arc::clone(&pointers);
        let peek = kernels.register_fn("peek", 1e-6, move |args| {
            seen.lock().push(args.bytes(0).as_ptr() as usize);
            assert_eq!(args.len(), 1);
        });
        handle_event(&w1, &memory, &kernels, execute(peek, vec![buffer], 9)).unwrap();
        assert_eq!(pointers.lock().last(), Some(&at), "the kernel read the resident bytes");
        assert!(memory.get(buffer).unwrap().same_allocation(&written));
    }

    #[test]
    fn handler_error_is_replied_to_the_head_not_dropped() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let tag = Tag(33);
        let err = handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: kernel_task(KernelId(7), vec![]),
                tag,
                comm: CommId::WORLD,
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownKernel(KernelId(7)));
        // The head receives the same failure as a typed error reply, with
        // the originating node and event tag attached.
        let msg = head.recv(Some(1), Some(tag)).unwrap();
        match EventReply::decode(&msg.data).unwrap().into_result().unwrap_err() {
            OmpcError::RemoteEvent { node, event, error } => {
                assert_eq!((node, event), (1, 33));
                assert_eq!(*error, OmpcError::UnknownKernel(KernelId(7)));
            }
            other => panic!("expected a remote-event error, got {other:?}"),
        }
    }

    #[test]
    fn failed_exchange_sender_unblocks_receiver_and_head() {
        // The sending half fails (the buffer was never stored): the sender
        // forwards its error envelope to the receiver, which propagates it
        // to the head — nobody hangs on the half-completed exchange.
        let world = World::new(3);
        let head = world.communicator(0);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let buffer = BufferId(6);
        let tag = Tag(40);
        let recv_thread = std::thread::spawn({
            let w2 = w2.clone();
            move || {
                let mem2 = DeviceMemory::new();
                let kernels = KernelRegistry::new();
                let recv = steps_on(vec![TaskStep::RecvFromWorker { buffer, from: 1 }], tag.0);
                handle_event(&w2, &mem2, &kernels, recv)
            }
        });
        let mem1 = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let send_err = handle_event(
            &w1,
            &mem1,
            &kernels,
            EventNotification {
                request: EventRequest::ExchangeSend { buffer, to: 2 },
                tag,
                comm: CommId::WORLD,
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(send_err, OmpcError::UnknownBuffer(buffer));
        assert!(recv_thread.join().unwrap().is_err());
        let msg = head.recv(Some(2), Some(tag)).unwrap();
        let forwarded = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
        assert_eq!(forwarded.origin_node(), Some(1), "the error keeps the sender's attribution");
        assert_eq!(forwarded.root_cause(), &OmpcError::UnknownBuffer(buffer));
    }

    /// Every push channel carries exactly one message, and a claim waits for
    /// it: a claim posted before its producer ran lands the producer's own
    /// allocation; a producer whose kernel fails sends its error down the
    /// push channel, and the claim replies that very error; a claim behind a
    /// failed step leaves its message for a discard.
    #[test]
    fn a_push_lands_through_its_claim_and_a_failed_kernel_sends_its_error() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let world = World::new(3);
            let (head, p, q) =
                (world.communicator(0), world.communicator(1), world.communicator(2));
            let kernels = KernelRegistry::new();
            let write = kernels.register_fn("write", 1e-6, |args| args.set_f64s(0, &[4.5]));
            let (producer, reader) = (DeviceMemory::new(), DeviceMemory::new());
            let b = BufferId(3);
            let task = |steps, tag| EventNotification {
                request: EventRequest::Task(TaskSpec { steps }),
                tag: Tag(tag),
                comm: CommId::WORLD,
                timed: false,
            };
            let push = |tag| TaskStep::Push { buffer: b, to: 2, tag: Tag(tag) };
            let claim = |tag| TaskStep::Claim { buffer: b, tag: Tag(tag) };
            let unknown = || TaskStep::Execute { kernel: KernelId(9), buffers: vec![] };

            // The claim is on the reader before the producer writes `b` and
            // pushes it on: it waits, and takes the resident allocation itself.
            let alloc = TaskStep::Alloc { buffer: b, size: 8 };
            let execute = TaskStep::Execute { kernel: write, buffers: vec![b] };
            std::thread::scope(|scope| {
                let claimed =
                    scope.spawn(|| handle_event(&q, &reader, &kernels, task(vec![claim(60)], 62)));
                let produced = vec![alloc, execute, TaskStep::Wrote { buffer: b }, push(60)];
                handle_event(&p, &producer, &kernels, task(produced, 61)).unwrap();
                claimed.join().unwrap().unwrap();
            });
            let landed = reader.get(b).unwrap();
            assert!(landed.same_allocation(&producer.get(b).unwrap()));
            assert_eq!(ompc_mpi::typed::bytes_to_f64s(&landed).unwrap(), vec![4.5]);

            // A failed kernel never reaches its push: its error goes in its
            // place, and the claim replies it, blame and all.
            let failed = handle_event(&p, &producer, &kernels, task(vec![unknown(), push(63)], 64));
            assert_eq!(failed, Err(OmpcError::UnknownKernel(KernelId(9))));
            assert_eq!(q.mailbox_stats().queued, 1, "the error is the push channel's one message");
            let heard = handle_event(&q, &reader, &kernels, task(vec![claim(63)], 65)).unwrap_err();
            let producers = OmpcError::RemoteEvent {
                node: 1,
                event: 64,
                error: Box::new(OmpcError::UnknownKernel(KernelId(9))),
            };
            assert_eq!(heard, producers);

            // A claim behind a failed step leaves its copy queued; a discard
            // drops it, one nobody claimed, and one of nothing.
            handle_event(&p, &producer, &kernels, task(vec![push(66), push(67)], 68)).unwrap();
            let behind = handle_event(&q, &reader, &kernels, task(vec![unknown(), claim(66)], 69));
            assert!(behind.is_err());
            assert_eq!(q.mailbox_stats().queued, 2);
            let discard = |tag| TaskStep::Discard { tag: Tag(tag) };
            let drops = vec![discard(66), discard(67), discard(66)];
            handle_event(&q, &reader, &kernels, task(drops, 70)).unwrap();
            assert_eq!(q.mailbox_stats().queued, 0, "every pushed copy was taken");
            assert_eq!(head.mailbox_stats().queued, 7, "one reply per task, nothing else");
        });
    }

    /// The next `cars` car replies from worker 1 on a train envelope's
    /// channel: each car's tag and outcome, in arrival order.
    fn car_replies_on(
        channel: &Communicator,
        tag: Tag,
        cars: usize,
    ) -> Vec<(u64, OmpcResult<Vec<u8>>)> {
        (0..cars)
            .map(|_| {
                let msg = channel.recv(Some(1), Some(tag)).unwrap();
                let (car, reply) = crate::protocol::split_car_reply(&msg.data).unwrap();
                (car.0, EventReply::decode(reply).unwrap().into_result())
            })
            .collect()
    }

    /// [`car_replies_on`], each outcome reduced to whether it succeeded.
    fn outcomes_on(channel: &Communicator, tag: Tag, cars: usize) -> Vec<(u64, bool)> {
        let replies = car_replies_on(channel, tag, cars);
        replies.into_iter().map(|(car, reply)| (car, reply.is_ok())).collect()
    }

    #[test]
    fn task_train_replies_per_car_and_posts_notices_in_order() {
        use crate::protocol::{TaskSpec, TaskStep, TrainCar};
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let bump = kernels.register_fn("bump", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });

        // Car 1 succeeds; car 2 names an unregistered kernel and fails.
        let good = TrainCar {
            tag: Tag(50),
            spec: TaskSpec {
                steps: vec![
                    TaskStep::RecvFromHead { buffer: BufferId(1) },
                    TaskStep::Execute { kernel: bump, buffers: vec![BufferId(1)] },
                ],
            },
        };
        let bad = TrainCar {
            tag: Tag(51),
            spec: TaskSpec {
                steps: vec![TaskStep::Execute { kernel: KernelId(99), buffers: vec![] }],
            },
        };
        // The good car's payload travels on the car's own channel.
        head.send_with_body(1, Tag(50), Vec::new(), ompc_mpi::typed::f64s_to_bytes(&[1.0]).into())
            .unwrap();
        // The envelope names the completion channel of the execution that
        // sent the train.
        let envelope_tag = Tag(49);
        let err = handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::TaskTrain(vec![good, bad]),
                tag: envelope_tag,
                comm: CommId::WORLD,
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownKernel(KernelId(99)), "first car error is the outcome");

        // One reply per car on the envelope's channel, in car order, with
        // per-car outcomes — and nothing anywhere else.
        let replies = car_replies_on(&head, envelope_tag, 2);
        assert_eq!(replies[0], (50, Ok(Vec::new())));
        let (bad_car, bad_reply) = &replies[1];
        let bad_err = bad_reply.as_ref().unwrap_err();
        assert_eq!(*bad_car, 51);
        assert_eq!(bad_err.origin_node(), Some(1), "blame stays per task inside a train");
        assert_eq!(
            bad_err,
            &OmpcError::RemoteEvent {
                node: 1,
                event: 51,
                error: Box::new(OmpcError::UnknownKernel(KernelId(99)))
            }
        );
        assert_eq!(head.mailbox_stats().queued, 0);
        // The failed car did not abort the train: the good car executed.
        assert_eq!(
            memory.get(BufferId(1)),
            Some(ompc_mpi::typed::f64s_to_bytes(&[2.0]).into()),
            "earlier cars execute regardless of later failures"
        );
    }

    #[test]
    fn a_plain_task_is_answered_by_its_reply_alone() {
        use crate::protocol::{TaskSpec, TaskStep};
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let (memory, kernels) = (DeviceMemory::new(), KernelRegistry::new());
        for (kernel, ok) in
            [(kernels.register_fn("noop", 1e-6, |_| {}), true), (KernelId(9), false)]
        {
            let steps = vec![
                TaskStep::Alloc { buffer: BufferId(2), size: 8 },
                TaskStep::Execute { kernel, buffers: vec![BufferId(2)] },
            ];
            let task = EventNotification {
                request: EventRequest::Task(TaskSpec { steps }),
                tag: Tag(30),
                comm: CommId::WORLD,
                timed: false,
            };
            assert_eq!(handle_event(&worker, &memory, &kernels, task).is_ok(), ok);
            let msg = head.recv(Some(1), Some(Tag(30))).unwrap();
            assert_eq!(EventReply::decode(&msg.data).unwrap().into_result().is_ok(), ok);
            assert_eq!(head.mailbox_stats().queued, 0, "a task posts no notice (ok: {ok})");
        }
    }

    /// A task of several `RecvFromHead` steps.
    #[test]
    fn submit_train_stores_payloads_in_order_and_replies_once() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let tag = Tag(80);
        // Payloads ride the train's own channel, in the listed order.
        head.send_with_body(1, tag, Vec::new(), vec![1, 1].into()).unwrap();
        head.send_with_body(1, tag, Vec::new(), vec![2, 2, 2].into()).unwrap();
        let recvs = [4, 9].map(|b| TaskStep::RecvFromHead { buffer: BufferId(b) });
        handle_event(&worker, &memory, &kernels, steps_on(recvs.to_vec(), tag.0)).unwrap();
        assert_eq!(memory.get(BufferId(4)), Some(vec![1, 1].into()));
        assert_eq!(memory.get(BufferId(9)), Some(vec![2, 2, 2].into()));
        // One typed reply for the whole train, and nothing else.
        let msg = head.recv(Some(1), Some(tag)).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());
        assert_eq!(head.mailbox_stats().queued, 0);
    }

    #[test]
    fn killed_worker_refuses_a_submit_train_with_one_error_reply() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker_comm = world.communicator(1);
        let kernels = Arc::new(KernelRegistry::new());
        let worker = std::thread::spawn(move || worker_main(worker_comm, kernels));

        let kill = EventNotification {
            request: EventRequest::Kill,
            tag: Tag(90),
            comm: CommId::WORLD,
            timed: false,
        };
        head.send(1, CONTROL_TAG, kill.encode()).unwrap();
        let train = steps_on(vec![TaskStep::RecvFromHead { buffer: BufferId(7) }], 91);
        head.send(1, CONTROL_TAG, train.encode()).unwrap();
        let msg = head.recv(Some(1), Some(Tag(91))).unwrap();
        let err = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
        assert_eq!(err.root_cause(), &OmpcError::NodeFailure(1));
        let shutdown = EventNotification {
            request: EventRequest::Shutdown,
            tag: Tag(92),
            comm: CommId::WORLD,
            timed: false,
        };
        head.send(1, CONTROL_TAG, shutdown.encode()).unwrap();
        worker.join().unwrap();
        // The worker is gone, so whatever it sent has arrived: the refusal
        // was the train's one message.
        assert_eq!(head.mailbox_stats().queued, 0);
    }

    /// A forward from a dead holder, as the receiver sees it: the dead parent
    /// refuses its half of the forward by sending its error to the child,
    /// whose task fails naming the parent; a second forward from another
    /// holder lands that holder's own allocation.
    #[test]
    fn a_forward_refused_by_a_dead_parent_names_it_and_another_holder_refeeds_the_child() {
        let world = World::new(4);
        let (head, child, parent, holder) = (
            world.communicator(0),
            world.communicator(1),
            world.communicator(2),
            world.communicator(3),
        );
        let (memory, held, kernels) =
            (DeviceMemory::new(), DeviceMemory::new(), KernelRegistry::new());
        let buffer = BufferId(4);
        held.store(buffer, vec![10, 11, 12].into());
        let send = |to, tag| EventNotification {
            request: EventRequest::ExchangeSend { buffer, to },
            tag: Tag(tag),
            comm: CommId::WORLD,
            timed: false,
        };
        let recv = |from, tag| steps_on(vec![TaskStep::RecvFromWorker { buffer, from }], tag);

        refuse_event(&parent, &accepted(send(1, 70))).unwrap();
        let err = handle_event(&child, &memory, &kernels, recv(2, 70)).unwrap_err();
        assert_eq!((err.origin_node(), err.root_cause()), (Some(2), &OmpcError::NodeFailure(2)));
        let msg = head.recv(Some(1), Some(Tag(70))).unwrap();
        let reply = Reply::from_parts(&msg.data, msg.body, false).unwrap_err();
        assert_eq!(reply.origin_node(), Some(2), "the head hears the parent named: {reply:?}");
        assert!(!memory.contains(buffer));

        handle_event(&holder, &held, &kernels, send(1, 71)).unwrap();
        handle_event(&child, &memory, &kernels, recv(3, 71)).unwrap();
        assert!(memory.get(buffer).unwrap().same_allocation(&held.get(buffer).unwrap()));
        let msg = head.recv(Some(1), Some(Tag(71))).unwrap();
        assert_eq!(Reply::from_parts(&msg.data, msg.body, false), Ok(Reply::default()));
        assert!([head, child].iter().all(|rank| rank.mailbox_stats().queued == 0));
    }

    #[test]
    fn reset_clears_device_memory_and_replies_ok() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        memory.store(BufferId(3), vec![1, 2, 3].into());
        handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::Reset,
                tag: Tag(60),
                comm: CommId::WORLD,
                timed: false,
            },
        )
        .unwrap();
        assert!(memory.is_empty());
        let msg = head.recv(Some(1), Some(Tag(60))).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());
    }

    #[test]
    fn killed_worker_refuses_every_train_car_individually() {
        use crate::protocol::{TaskSpec, TaskStep, TrainCar};
        let world = World::new(2);
        let head = world.communicator(0);
        let worker_comm = world.communicator(1);
        let kernels = Arc::new(KernelRegistry::new());
        let worker = std::thread::spawn(move || worker_main(worker_comm, kernels));

        let kill = EventNotification {
            request: EventRequest::Kill,
            tag: Tag(70),
            comm: CommId::WORLD,
            timed: false,
        };
        head.send(1, CONTROL_TAG, kill.encode()).unwrap();
        let cars: Vec<TrainCar> = [71u64, 72]
            .iter()
            .map(|&t| TrainCar {
                tag: Tag(t),
                spec: TaskSpec { steps: vec![TaskStep::Alloc { buffer: BufferId(t), size: 8 }] },
            })
            .collect();
        let envelope_tag = Tag(74);
        let train = EventNotification {
            request: EventRequest::TaskTrain(cars),
            tag: envelope_tag,
            comm: CommId::WORLD,
            timed: false,
        };
        head.send(1, CONTROL_TAG, train.encode()).unwrap();

        // One refusal per car on the envelope's channel, in car order.
        let replies = car_replies_on(&head, envelope_tag, 2);
        assert_eq!(replies.iter().map(|(car, _)| *car).collect::<Vec<_>>(), vec![71, 72]);
        for (car, reply) in replies {
            let err = reply.unwrap_err();
            assert_eq!(err.origin_node(), Some(1), "car {car}");
            assert_eq!(err.root_cause(), &OmpcError::NodeFailure(1), "car {car}");
        }
        let shutdown = EventNotification {
            request: EventRequest::Shutdown,
            tag: Tag(73),
            comm: CommId::WORLD,
            timed: false,
        };
        head.send(1, CONTROL_TAG, shutdown.encode()).unwrap();
        worker.join().unwrap();
        assert_eq!(head.mailbox_stats().queued, 0);
    }

    #[test]
    fn killed_worker_refuses_events_with_error_replies_until_shutdown() {
        let world = World::new(2);
        let head = world.communicator(0);
        let worker_comm = world.communicator(1);
        let kernels = Arc::new(KernelRegistry::new());
        let worker = std::thread::spawn(move || worker_main(worker_comm, kernels));

        let send = |req: EventRequest, tag: u64| {
            let n = EventNotification {
                request: req,
                tag: Tag(tag),
                comm: CommId::WORLD,
                timed: false,
            };
            head.send(1, CONTROL_TAG, n.encode()).unwrap();
        };
        // Before the kill: a normal alloc completes with an Ok reply.
        let alloc = TaskStep::Alloc { buffer: BufferId(1), size: 8 };
        send(EventRequest::Task(TaskSpec { steps: vec![alloc] }), 100);
        let msg = head.recv(Some(1), Some(Tag(100))).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());

        // Kill the node, then try to execute: the event is refused.
        send(EventRequest::Kill, 101);
        send(kernel_task(KernelId(0), vec![]), 102);
        let msg = head.recv(Some(1), Some(Tag(102))).unwrap();
        let err = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
        assert_eq!(err.origin_node(), Some(1));
        assert_eq!(err.root_cause(), &OmpcError::NodeFailure(1));

        // Shutdown still terminates the gate loop.
        send(EventRequest::Shutdown, 103);
        worker.join().unwrap();
    }

    /// The gate answers a task none of whose steps can block while the lane
    /// is held in a kernel; a task that awaits a buffer or receives one waits
    /// for the lane. No clock decides: the gate runs notifications in order,
    /// so once a later gate task has replied, an inline reply of a lane task
    /// would already be in the head's mailbox.
    #[test]
    fn the_gate_answers_data_tasks_while_its_only_handler_is_held_in_a_kernel() {
        use std::sync::Barrier;
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let world = World::new(2);
            let head = world.communicator(0);
            let kernels = Arc::new(KernelRegistry::new());
            let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
            let hold = {
                let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
                kernels.register_fn("hold", 1e-6, move |_| {
                    entered.wait();
                    release.wait();
                })
            };
            let worker = {
                let (comm, kernels) = (world.communicator(1), Arc::clone(&kernels));
                std::thread::spawn(move || worker_main(comm, kernels))
            };
            let notify = |n: EventNotification| head.send(1, CONTROL_TAG, n.encode()).unwrap();
            let reply = |tag: u64, data_bearing: bool| {
                let msg = head.recv(Some(1), Some(Tag(tag))).unwrap();
                Reply::from_parts(&msg.data, msg.body, data_bearing)
            };
            let (a, b, c) = (BufferId(1), BufferId(2), BufferId(3));

            // `a` lands before the lane is held.
            let payload = Bytes::from(vec![3u8; 8]);
            notify(steps_on(vec![TaskStep::RecvFromHead { buffer: a }], 9));
            head.send_with_body(1, Tag(9), Vec::new(), payload.clone()).unwrap();
            reply(9, false).unwrap();
            notify(steps_on(vec![TaskStep::Execute { kernel: hold, buffers: vec![] }], 10));
            entered.wait();

            // A copy "pushed" to the worker, and one task that deletes `b`,
            // drops the push and retrieves `a`.
            let (header, body) = Reply::data(payload.clone()).into_parts();
            head.send_with_body(1, Tag(99), header, body.unwrap()).unwrap();
            let steps = vec![
                TaskStep::Delete { buffer: b },
                TaskStep::Discard { tag: Tag(99) },
                TaskStep::Retrieve { buffer: a },
            ];
            notify(steps_on(steps, 11));
            let retrieved = reply(11, true).unwrap().body.unwrap();
            assert!(retrieved.same_allocation(&payload), "the reply is the resident allocation");
            assert_eq!(world.communicator(1).mailbox_stats().queued, 0, "the push was dropped");

            // A task awaiting `a` and one receiving `c` go to the lane, behind
            // the held kernel.
            let awaiting = TaskStep::AwaitLocal { buffer: a, timeout_ms: u64::MAX };
            notify(steps_on(vec![awaiting], 12));
            notify(steps_on(vec![TaskStep::RecvFromHead { buffer: c }], 13));
            head.send_with_body(1, Tag(13), Vec::new(), payload.clone()).unwrap();
            notify(steps_on(vec![TaskStep::Delete { buffer: b }], 14));
            reply(14, false).unwrap();
            for tag in [12, 13] {
                assert!(head.try_recv(Some(1), Some(Tag(tag))).is_none(), "{tag} ran on the gate");
            }
            release.wait();
            for tag in [10, 12, 13] {
                reply(tag, false).unwrap();
            }
            notify(notification(EventRequest::Shutdown, 15));
            worker.join().unwrap();
        });
    }

    /// An `AwaitLocal` step reads the receive queued ahead of it, not
    /// whatever is resident: a stale copy of an older version must not
    /// satisfy it. The reader's train queues behind the receive's on the
    /// lane, and the head holds the receive's payload back until the reader
    /// has had every chance to reply early (a bound on the wrong behaviour
    /// only — the right one needs no clock, since the reader can only reply
    /// after the payload landed).
    #[test]
    fn a_resident_older_version_never_satisfies_a_wait_for_a_queued_receive() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let world = World::new(2);
            let head = world.communicator(0);
            let kernels = Arc::new(KernelRegistry::new());
            let seen = Arc::new(Mutex::new(None));
            let read = {
                let seen = Arc::clone(&seen);
                kernels
                    .register_fn("read", 1e-6, move |args| *seen.lock() = Some(args.as_f64s(0)[0]))
            };
            let worker = {
                let (comm, kernels) = (world.communicator(1), Arc::clone(&kernels));
                std::thread::spawn(move || worker_main(comm, kernels))
            };
            let notify = |n: EventNotification| head.send(1, CONTROL_TAG, n.encode()).unwrap();
            let payload = |value: f64| Bytes::from(ompc_mpi::typed::f64s_to_bytes(&[value]));
            let b = BufferId(3);

            // Version 1 is resident.
            notify(steps_on(vec![TaskStep::RecvFromHead { buffer: b }], 10));
            head.send_with_body(1, Tag(10), Vec::new(), payload(1.0)).unwrap();
            car_reply_plain(&head, 10);

            // Train 1 receives version 2; train 2 awaits that receive and
            // reads the buffer.
            notify(train_of(20, vec![(21, vec![TaskStep::RecvFromHead { buffer: b }])]));
            let awaiting = TaskStep::AwaitLocal { buffer: b, timeout_ms: u64::MAX };
            let reading = TaskStep::Execute { kernel: read, buffers: vec![b] };
            notify(train_of(30, vec![(31, vec![awaiting, reading])]));
            let early =
                head.recv_timeout(Some(1), Some(Tag(30)), std::time::Duration::from_millis(300));
            assert!(early.is_err(), "the reader ran before its receive: {:?}", *seen.lock());
            head.send_with_body(1, Tag(21), Vec::new(), payload(2.0)).unwrap();
            assert_eq!(outcomes_on(&head, Tag(20), 1), vec![(21, true)]);
            assert_eq!(outcomes_on(&head, Tag(30), 1), vec![(31, true)]);
            assert_eq!(*seen.lock(), Some(2.0), "the wait was satisfied by the older version");

            notify(notification(EventRequest::Shutdown, 40));
            worker.join().unwrap();
        });
    }

    /// A reader held on its producer's node awaits the producer's write, not
    /// the buffer's presence: it queues behind the producer on the lane, and
    /// a stale copy of the version the write supersedes is resident all
    /// along. The producer's kernel holds until the head has
    /// given the reader every chance to reply early (a bound on the wrong
    /// behaviour only — the right one needs no clock).
    #[test]
    fn a_reader_held_beside_its_producer_waits_for_the_write_not_a_stale_copy() {
        use crate::protocol::{TaskSpec, TaskStep, TrainCar};
        use std::sync::Barrier;
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let world = World::new(2);
            let head = world.communicator(0);
            let kernels = Arc::new(KernelRegistry::new());
            let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
            let write = {
                let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
                kernels.register_fn("write", 1e-6, move |args| {
                    entered.wait();
                    release.wait();
                    args.set_f64s(0, &[2.0]);
                })
            };
            let seen = Arc::new(Mutex::new(None));
            let read = {
                let seen = Arc::clone(&seen);
                kernels
                    .register_fn("read", 1e-6, move |args| *seen.lock() = Some(args.as_f64s(0)[0]))
            };
            let worker = {
                let (comm, kernels) = (world.communicator(1), Arc::clone(&kernels));
                std::thread::spawn(move || worker_main(comm, kernels))
            };
            let notify = |request: EventRequest, tag: u64| {
                let n =
                    EventNotification { request, tag: Tag(tag), comm: CommId::WORLD, timed: false };
                head.send(1, CONTROL_TAG, n.encode()).unwrap();
            };
            let car_reply = |train: u64| {
                let msg = head.recv(Some(1), Some(Tag(train))).unwrap();
                let (car, header) = crate::protocol::split_car_reply(&msg.data).unwrap();
                (car.0, Reply::from_parts(header, msg.body, false).is_ok())
            };
            let b = BufferId(3);
            // Version 1 is resident.
            let version_1 = Bytes::from(ompc_mpi::typed::f64s_to_bytes(&[1.0]));
            let (header, body) = Reply::data(version_1).into_parts();
            head.send_with_body(1, Tag(9), header, body.unwrap()).unwrap();
            let claim = TaskStep::Claim { buffer: b, tag: Tag(9) };
            notify(EventRequest::Task(TaskSpec { steps: vec![claim] }), 10);
            car_reply_plain(&head, 10);

            // Train 1: the producer writes version 2. Train 2: the reader,
            // held until that write lands.
            let car = |tag: u64, steps| TrainCar { tag: Tag(tag), spec: TaskSpec { steps } };
            let produce = vec![
                TaskStep::Execute { kernel: write, buffers: vec![b] },
                TaskStep::Wrote { buffer: b },
            ];
            notify(EventRequest::TaskTrain(vec![car(21, produce)]), 20);
            let awaiting = TaskStep::AwaitLocal { buffer: b, timeout_ms: u64::MAX };
            let reading = TaskStep::Execute { kernel: read, buffers: vec![b] };
            notify(EventRequest::TaskTrain(vec![car(31, vec![awaiting, reading])]), 30);
            entered.wait();
            let early =
                head.recv_timeout(Some(1), Some(Tag(30)), std::time::Duration::from_millis(300));
            assert!(early.is_err(), "the reader replied before the write: {:?}", *seen.lock());
            release.wait();
            assert_eq!((car_reply(20), car_reply(30)), ((21, true), (31, true)));
            assert_eq!(*seen.lock(), Some(2.0), "the wait was satisfied by the stale copy");
            notify(EventRequest::Shutdown, 40);
            worker.join().unwrap();
        });
    }

    /// The one reply of a plain task on `tag`, which must succeed.
    fn car_reply_plain(head: &Communicator, tag: u64) {
        let msg = head.recv(Some(1), Some(Tag(tag))).unwrap();
        Reply::from_parts(&msg.data, msg.body, false).unwrap();
    }

    /// Let `notifications.len()` idle members take `notifications`: one
    /// receive of the pool's group posted per notification, then the head
    /// sends them in order. Returns each message with its match index, in
    /// match order (the member posted last took the first).
    fn taken_by_members(
        head: &Communicator,
        pool: &Pool<'_>,
        notifications: Vec<EventNotification>,
    ) -> Vec<(Message, u64)> {
        let posted: Vec<_> = notifications
            .iter()
            .map(|_| pool.comm.irecv_in(None, Some(CONTROL_TAG), &pool.group).unwrap())
            .collect();
        for n in &notifications {
            head.send(pool.comm.rank(), CONTROL_TAG, n.encode()).unwrap();
        }
        let mut taken: Vec<_> = posted.into_iter().map(|mut p| p.wait().unwrap()).collect();
        taken.sort_by_key(|&(_, index)| index);
        taken
    }

    /// A notification of a train of single-car trains on channel 1.
    fn train_of(tag: u64, cars: Vec<(u64, Vec<TaskStep>)>) -> EventNotification {
        use crate::protocol::TrainCar;
        let cars = cars
            .into_iter()
            .map(|(tag, steps)| TrainCar { tag: Tag(tag), spec: TaskSpec { steps } })
            .collect();
        EventNotification {
            request: EventRequest::TaskTrain(cars),
            tag: Tag(tag),
            comm: CommId::WORLD,
            timed: false,
        }
    }

    fn notification(request: EventRequest, tag: u64) -> EventNotification {
        EventNotification { request, tag: Tag(tag), comm: CommId::WORLD, timed: false }
    }

    /// `notification` as a member accepts it: its frame, read in place.
    fn accepted(notification: EventNotification) -> Event {
        let frame = Bytes::from(notification.encode());
        Event { notice: Notice::read(&frame).unwrap(), frame }
    }

    /// The request `event` holds, its steps read in place from its frame.
    fn read_back(event: &Event) -> EventRequest {
        use crate::protocol::TrainCar;
        let Event { frame, notice } = event;
        let owned = |steps: Steps<'_>| steps.map(|step| step.unwrap().into_owned()).collect();
        match notice.request {
            Request::Task => {
                EventRequest::Task(TaskSpec { steps: owned(notice.steps(frame).unwrap()) })
            }
            Request::TaskTrain => {
                let cars = notice.cars(frame).unwrap().map(|car| {
                    let (tag, steps) = car.unwrap();
                    TrainCar { tag, spec: TaskSpec { steps: owned(steps) } }
                });
                EventRequest::TaskTrain(cars.collect())
            }
            Request::ExchangeSend { buffer, to } => EventRequest::ExchangeSend { buffer, to },
            Request::Reset => EventRequest::Reset,
            Request::Shutdown => EventRequest::Shutdown,
            Request::Kill => EventRequest::Kill,
        }
    }

    /// Accept refuses every frame the owned decoder refuses — nothing is
    /// queued, so no car runs, nothing lands and nobody hears a reply — and
    /// queues every frame it decodes with the very steps it decodes, car by
    /// car, read in place from the frame: 300 seeded tasks and trains of
    /// every step kind, each cut at every length and with bits flipped, then
    /// a train cut short inside its second car and an `Execute` whose buffer
    /// count overruns the frame.
    #[test]
    fn accept_refuses_what_the_decoder_refuses_and_reads_in_place_what_it_decodes() {
        let world = World::new(2);
        let (head, worker) = (world.communicator(0), world.communicator(1));
        let (memory, kernels) = (DeviceMemory::new(), KernelRegistry::new());
        let pool = Pool::new(&worker, &memory, &kernels);
        let (mut refused, mut queued) = (0, 0);
        let mut check = |bytes: &[u8]| {
            let mut state = pool.state.lock();
            let (index, len) = (state.next, bytes.len());
            let status = ompc_mpi::Status { source: 0, tag: CONTROL_TAG, len };
            let message = Message { status, data: Bytes::from(bytes.to_vec()), body: None };
            pool.arrive(&mut state, index, message);
            let event = state.ready.pop_front().or_else(|| state.blocking.pop_front());
            assert!(state.ready.is_empty() && state.blocking.is_empty());
            // A flipped bit may make a shutdown or a kill: the next frame is
            // accepted all the same.
            (state.closed, state.dead) = (false, false);
            match (EventNotification::decode(bytes), event) {
                (Err(_), None) => refused += 1,
                (Ok(n), None) => {
                    assert!(matches!(n.request, EventRequest::Shutdown | EventRequest::Kill))
                }
                (Ok(n), Some(event)) => {
                    assert_eq!((event.notice.tag, event.notice.timed), (n.tag, n.timed));
                    assert_eq!(read_back(&event), n.request, "read in place as decoded");
                    queued += 1;
                }
                (Err(error), Some(_)) => panic!("accepted a frame the decoder refuses: {error}"),
            }
        };
        for seed in 0..300 {
            let rng = &mut ompc_testutil::Rng::new(seed);
            let bytes = crate::protocol::tests::arb_task_or_train(rng).encode();
            for end in 0..=bytes.len() {
                check(&bytes[..end]);
            }
            for _ in 0..4 {
                let mut flipped = bytes.clone();
                flipped[rng.range_usize(0, bytes.len())] ^= 1 << rng.range(0, 8);
                check(&flipped);
            }
        }
        let (b, execute) = (BufferId(6), |n| TaskStep::Execute { kernel: KernelId(1), buffers: n });
        let two = train_of(
            4,
            vec![(5, vec![TaskStep::Delete { buffer: b }]), (6, vec![execute(vec![b, b])])],
        );
        let bytes = two.encode();
        let second = 14 + 4 + 12 + 9;
        for end in second..bytes.len() {
            check(&bytes[..end]);
        }
        let mut bytes = steps_on(vec![execute(vec![b, b])], 7).encode();
        bytes[27..31].copy_from_slice(&u32::to_le_bytes(3));
        check(&bytes);
        assert!(EventNotification::decode(&bytes).is_err(), "the count overruns the frame");
        assert!(refused > 10_000 && queued > 1_000, "{refused} refused, {queued} queued");
        assert!(memory.is_empty(), "nothing landed");
        assert_eq!(head.mailbox_stats().delivered, 0, "nobody was answered");
    }

    /// A `Kill` is one hand-over in match order: two trains and the kill
    /// between them are taken by three members, which wake in the reverse
    /// order. The train matched first runs; every car matched after the
    /// kill is refused.
    #[test]
    fn a_kill_refuses_every_car_matched_after_it_whichever_member_wakes_first() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let world = World::new(2);
            let (head, worker) = (world.communicator(0), world.communicator(1));
            let (memory, kernels) = (DeviceMemory::new(), KernelRegistry::new());
            let pool = Pool::new(&worker, &memory, &kernels);
            let alloc = |b: u64| vec![TaskStep::Alloc { buffer: BufferId(b), size: 8 }];
            let before = train_of(70, vec![(71, alloc(71))]);
            let after = train_of(72, vec![(73, alloc(73)), (74, alloc(74))]);
            let taken = taken_by_members(
                &head,
                &pool,
                vec![before, notification(EventRequest::Kill, 80), after],
            );
            {
                let mut state = pool.state.lock();
                for (message, index) in taken.into_iter().rev() {
                    pool.arrive(&mut state, index, message);
                }
                assert_eq!(state.next, 3);
                let queued: Vec<u64> = state.blocking.iter().map(|n| n.notice.tag.0).collect();
                assert_eq!(queued, vec![70], "only the train matched before the kill is accepted");
            }
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| pool.serve());
                }
                assert_eq!(car_replies_on(&head, Tag(70), 1), vec![(71, Ok(Vec::new()))]);
                let refused = car_replies_on(&head, Tag(72), 2);
                assert_eq!(refused.iter().map(|(car, _)| *car).collect::<Vec<_>>(), vec![73, 74]);
                for (_, reply) in refused {
                    assert_eq!(reply.unwrap_err().root_cause(), &OmpcError::NodeFailure(1));
                }
                head.send(1, CONTROL_TAG, notification(EventRequest::Shutdown, 81).encode())
                    .unwrap();
            });
            assert!(memory.contains(BufferId(71)));
            assert!(!memory.contains(BufferId(73)) && !memory.contains(BufferId(74)));
            let stats = worker.mailbox_stats();
            assert_eq!((stats.posted, stats.queued, stats.empty_wakeups), (0, 0, 0));
            assert_eq!(head.mailbox_stats().queued, 0);
        });
    }

    /// The lane runs in match order across members: a train with a receive
    /// and the train whose `AwaitLocal` reads it are taken by two members,
    /// the awaiting one waking first. The lane still holds the receive's
    /// train first, so an older version already resident cannot satisfy the
    /// wait.
    #[test]
    fn a_wait_taken_by_one_member_runs_after_a_receive_another_took() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let world = World::new(2);
            let (head, worker) = (world.communicator(0), world.communicator(1));
            let (memory, kernels) = (DeviceMemory::new(), KernelRegistry::new());
            let seen = Arc::new(Mutex::new(None));
            let read = {
                let seen = Arc::clone(&seen);
                kernels
                    .register_fn("read", 1e-6, move |args| *seen.lock() = Some(args.as_f64s(0)[0]))
            };
            let payload = |value: f64| Bytes::from(ompc_mpi::typed::f64s_to_bytes(&[value]));
            let b = BufferId(3);
            memory.store(b, payload(1.0));
            let pool = Pool::new(&worker, &memory, &kernels);
            let receive = train_of(20, vec![(21, vec![TaskStep::RecvFromHead { buffer: b }])]);
            let awaiting = TaskStep::AwaitLocal { buffer: b, timeout_ms: u64::MAX };
            let reading = TaskStep::Execute { kernel: read, buffers: vec![b] };
            let wait = train_of(30, vec![(31, vec![awaiting, reading])]);
            let taken = taken_by_members(&head, &pool, vec![receive, wait]);
            {
                let mut state = pool.state.lock();
                for (message, index) in taken.into_iter().rev() {
                    pool.arrive(&mut state, index, message);
                }
                let queued: Vec<u64> = state.blocking.iter().map(|n| n.notice.tag.0).collect();
                assert_eq!(queued, vec![20, 30], "the lane holds the trains in match order");
            }
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| pool.serve());
                }
                head.send_with_body(1, Tag(21), Vec::new(), payload(2.0)).unwrap();
                assert_eq!(outcomes_on(&head, Tag(20), 1), vec![(21, true)]);
                assert_eq!(outcomes_on(&head, Tag(30), 1), vec![(31, true)]);
                head.send(1, CONTROL_TAG, notification(EventRequest::Shutdown, 40).encode())
                    .unwrap();
            });
            assert_eq!(*seen.lock(), Some(2.0), "the wait was satisfied by the older version");
            assert_eq!(worker.mailbox_stats().posted, 0);
        });
    }

    /// A node that could spawn no member besides its own thread refuses
    /// every event, and its shutdown still ends it.
    #[test]
    fn a_node_that_spawned_no_extra_member_refuses_every_event() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let world = World::new(2);
            let head = world.communicator(0);
            let worker = {
                let comm = world.communicator(1);
                std::thread::spawn(move || run_pool(&comm, &KernelRegistry::new(), false))
            };
            let alloc = vec![TaskStep::Alloc { buffer: BufferId(1), size: 8 }];
            let task = notification(EventRequest::Task(TaskSpec { steps: alloc.clone() }), 10);
            head.send(1, CONTROL_TAG, task.encode()).unwrap();
            head.send(1, CONTROL_TAG, train_of(11, vec![(12, alloc)]).encode()).unwrap();
            let msg = head.recv(Some(1), Some(Tag(10))).unwrap();
            let err = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
            assert_eq!(err.root_cause(), &OmpcError::NodeFailure(1));
            let (car, reply) = car_replies_on(&head, Tag(11), 1).remove(0);
            assert_eq!((car, reply.unwrap_err().root_cause()), (12, &OmpcError::NodeFailure(1)));
            head.send(1, CONTROL_TAG, notification(EventRequest::Shutdown, 13).encode()).unwrap();
            worker.join().unwrap();
            assert_eq!(world.communicator(1).mailbox_stats().posted, 0);
        });
    }

    /// Shutdown releases every idle member through the mailbox — no member
    /// sends the node a message of its own — and leaves nothing posted.
    #[test]
    fn shutdown_ends_every_member_without_a_message_to_itself() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let world = World::new(2);
            let head = world.communicator(0);
            let kernels = Arc::new(KernelRegistry::new());
            let noop = kernels.register_fn("noop", 1e-6, |_| {});
            let worker = {
                let (comm, kernels) = (world.communicator(1), Arc::clone(&kernels));
                std::thread::spawn(move || worker_main(comm, kernels))
            };
            let alloc = TaskStep::Alloc { buffer: BufferId(1), size: 8 };
            let execute = TaskStep::Execute { kernel: noop, buffers: vec![BufferId(1)] };
            // One task that runs at once, one train that joins the FIFO. The
            // train's kernel reads what the task allocates, and another member
            // may pick the train up while the task still runs: it is sent once
            // the task replied.
            head.send(1, CONTROL_TAG, steps_on(vec![alloc], 10).encode()).unwrap();
            let msg = head.recv(Some(1), Some(Tag(10))).unwrap();
            EventReply::decode(&msg.data).unwrap().into_result().unwrap();
            head.send(1, CONTROL_TAG, train_of(11, vec![(12, vec![execute])]).encode()).unwrap();
            assert_eq!(outcomes_on(&head, Tag(11), 1), vec![(12, true)]);
            head.send(1, CONTROL_TAG, notification(EventRequest::Shutdown, 13).encode()).unwrap();
            worker.join().unwrap();
            let stats = world.communicator(1).mailbox_stats();
            assert_eq!(stats.delivered, 3, "the head's three notifications, nothing else");
            assert_eq!((stats.posted, stats.queued, stats.empty_wakeups), (0, 0, 0));
        });
    }

    /// One lane per node: two regions' trains of kernels are taken by two
    /// members, and a `Shutdown` closes the pool while the first kernel
    /// holds the lane and both trains are queued. The member that took the
    /// shutdown leaves, the lane drains on its own, and a shared counter
    /// shows at most one kernel running at any moment.
    #[test]
    fn one_lane_runs_one_kernel_at_a_time_also_while_a_closed_pool_drains() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let world = World::new(2);
            let (head, worker) = (world.communicator(0), world.communicator(1));
            let (memory, kernels) = (DeviceMemory::new(), KernelRegistry::new());
            let (running, most, calls) =
                (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)), AtomicUsize::new(0));
            let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
            let count = {
                let (running, most) = (Arc::clone(&running), Arc::clone(&most));
                let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
                kernels.register_fn("count", 1e-6, move |_| {
                    most.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                        entered.wait();
                        release.wait();
                    } else {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                })
            };
            let kernel = || vec![TaskStep::Execute { kernel: count, buffers: vec![] }];
            let pool = Pool::new(&worker, &memory, &kernels);
            std::thread::scope(|scope| {
                let members = [scope.spawn(|| pool.serve()), scope.spawn(|| pool.serve())];
                let trains = [(20, [21, 22, 23]), (30, [31, 32, 33])];
                for (tag, cars) in trains {
                    let cars = cars.iter().map(|&car| (car, kernel())).collect();
                    head.send(1, CONTROL_TAG, train_of(tag, cars).encode()).unwrap();
                }
                entered.wait();
                head.send(1, CONTROL_TAG, notification(EventRequest::Shutdown, 40).encode())
                    .unwrap();
                // The member that is not on the lane leaves once the pool is
                // closed: it may run nothing that is queued.
                while !members.iter().any(|member| member.is_finished()) {
                    std::thread::yield_now();
                }
                assert!(pool.state.lock().closed);
                release.wait();
                for (tag, cars) in trains {
                    let replied = outcomes_on(&head, Tag(tag), 3);
                    assert_eq!(replied, cars.map(|car| (car, true)).to_vec());
                }
            });
            assert_eq!(most.load(Ordering::SeqCst), 1, "two kernels ran at once");
            assert_eq!(worker.mailbox_stats().posted, 0);
        });
    }

    /// A standalone receive joins the lane: a train queued behind it that
    /// awaits the buffer reads the received bytes, not the zeros resident
    /// before, though the head holds the payload back until the train has
    /// had every chance to reply early (a bound on the wrong behaviour only).
    #[test]
    fn a_train_awaiting_a_standalone_receive_reads_the_received_bytes() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let world = World::new(2);
            let head = world.communicator(0);
            let kernels = Arc::new(KernelRegistry::new());
            let seen = Arc::new(Mutex::new(None));
            let read = {
                let seen = Arc::clone(&seen);
                kernels
                    .register_fn("read", 1e-6, move |args| *seen.lock() = Some(args.as_f64s(0)[0]))
            };
            let worker = {
                let (comm, kernels) = (world.communicator(1), Arc::clone(&kernels));
                std::thread::spawn(move || worker_main(comm, kernels))
            };
            let notify = |n: EventNotification| head.send(1, CONTROL_TAG, n.encode()).unwrap();
            let b = BufferId(5);
            notify(steps_on(vec![TaskStep::Alloc { buffer: b, size: 8 }], 9));
            car_reply_plain(&head, 9);

            notify(steps_on(vec![TaskStep::RecvFromHead { buffer: b }], 10));
            let awaiting = TaskStep::AwaitLocal { buffer: b, timeout_ms: u64::MAX };
            let reading = TaskStep::Execute { kernel: read, buffers: vec![b] };
            notify(train_of(20, vec![(21, vec![awaiting, reading])]));
            let early =
                head.recv_timeout(Some(1), Some(Tag(20)), std::time::Duration::from_millis(300));
            assert!(early.is_err(), "the train ran before the receive: {:?}", *seen.lock());
            let bytes = Bytes::from(ompc_mpi::typed::f64s_to_bytes(&[2.0]));
            head.send_with_body(1, Tag(10), Vec::new(), bytes).unwrap();
            car_reply_plain(&head, 10);
            assert_eq!(outcomes_on(&head, Tag(20), 1), vec![(21, true)]);
            assert_eq!(*seen.lock(), Some(2.0), "the train read the zeros");

            notify(notification(EventRequest::Shutdown, 30));
            worker.join().unwrap();
        });
    }
}
