//! The worker-node runtime: device memory, the gate thread, and the event
//! handler pool (the destination side of the event system, paper §4.2).
//!
//! Every event ends in exactly one typed reply
//! ([`crate::protocol::EventReply`]) on the event's exclusive channel:
//! `Ok(payload)` on success or `Err` carrying the originating node and
//! event tag when the handler failed — the head node never blocks on an
//! event whose handler errored. A [`EventRequest::Kill`] (failure
//! injection) kills the event loop for real: the node stops executing
//! events and refuses every later one with an error reply until the final
//! [`EventRequest::Shutdown`].
//!
//! Buffers are held, received and sent as shared [`Bytes`] handles: a
//! payload that arrives is stored as the allocation the sender held, a
//! forward, a push or a retrieve sends the resident handle as the message
//! body, a relay passes on the chunk it received, and kernels borrow their
//! inputs ([`KernelArgs`]). The one place a worker copies payload bytes is the
//! re-assembly of a *chunked* collective stream.

use crate::kernel::{KernelArgs, KernelRegistry};
use crate::protocol::{
    decode_relay_parts, payload_body, relay_frame_count, relay_frame_header, CompletionNotice,
    EventNotification, EventReply, EventRequest, RelayChild, Reply, TaskSpec, TaskStamps, TaskStep,
    CONTROL_TAG,
};
use crate::runtime::telemetry::monotonic_us;
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{Bytes, CommId, Communicator, Message, Tag};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// The head node's rank in the world communicator.
const HEAD_RANK: usize = 0;

/// Upper bound on any single wait for the next frame of a collective
/// payload stream. The head's rescue machinery re-sources an orphaned
/// recipient long before this fires (it reacts to the dead relay's typed
/// refusal); the bound is the last line of defence turning a frame that can
/// never arrive into a typed error instead of a hang.
const RELAY_FRAME_TIMEOUT_MS: u64 = 60_000;

/// A worker node's local buffer storage (its "device memory"): one shared
/// handle per resident buffer, and the arrival book of the receives the
/// gate accepted.
///
/// The gate numbers every receive it accepts with a fresh *generation*; the
/// handler that performs the receive *lands* it — the bytes stored, or the
/// failure recorded. An `AwaitLocal` step waits for the newest receive of
/// its buffer accepted before it, not for the buffer's presence: a stale
/// copy a deferred delete has not freed yet is resident too, and must never
/// satisfy the wait.
#[derive(Debug, Default)]
pub struct DeviceMemory {
    state: Mutex<MemoryState>,
    /// Signalled whenever an accepted receive lands.
    landed: parking_lot::Condvar,
}

#[derive(Debug, Default)]
struct MemoryState {
    buffers: HashMap<u64, Bytes>,
    /// Per buffer with an accepted receive still to land, or a failed one.
    arrivals: HashMap<u64, Arrivals>,
    /// Last generation handed out: generations are unique per node.
    generation: u64,
}

/// The receives of one buffer the gate accepted.
#[derive(Debug, Default)]
struct Arrivals {
    /// Generation of the newest accepted receive.
    newest: u64,
    /// The accepted receive that has not landed yet. The head books one
    /// movement of a copy at a time, so there is at most one; a newer one
    /// supersedes it.
    pending: Option<u64>,
    /// The newest receive that failed, with its error: what its waiters
    /// reply.
    failed: Option<(u64, OmpcError)>,
}

impl MemoryState {
    fn announce(&mut self, buffer: BufferId) -> u64 {
        self.generation += 1;
        let arrivals = self.arrivals.entry(buffer.0).or_default();
        arrivals.newest = self.generation;
        arrivals.pending = Some(self.generation);
        self.generation
    }

    fn newest(&self, buffer: BufferId) -> u64 {
        self.arrivals.get(&buffer.0).map_or(0, |arrivals| arrivals.newest)
    }
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

    /// Number the receives of an event the gate accepted, in step order: a
    /// fresh generation per receive (a `RecvFromHead` / `RecvFromWorker` /
    /// `Claim` step, a `Submit`, an `ExchangeRecv`), and per `AwaitLocal` step the
    /// generation of the newest receive of its buffer accepted before it.
    /// Only the gate calls this, in arrival order, so "before" means
    /// "queued ahead on this node".
    pub(crate) fn accept(&self, request: &EventRequest) -> Vec<u64> {
        match request {
            EventRequest::Submit { buffer } | EventRequest::ExchangeRecv { buffer, .. } => {
                vec![self.state.lock().announce(*buffer)]
            }
            EventRequest::Task(spec) => self.number(&spec.steps),
            EventRequest::TaskTrain(cars) => {
                self.number(cars.iter().flat_map(|car| &car.spec.steps))
            }
            _ => Vec::new(),
        }
    }

    /// [`DeviceMemory::accept`] for the steps of a task or a train.
    fn number<'a>(&self, steps: impl IntoIterator<Item = &'a TaskStep>) -> Vec<u64> {
        let mut state = self.state.lock();
        let mut generations = Vec::new();
        for step in steps {
            match *step {
                TaskStep::RecvFromHead { buffer }
                | TaskStep::RecvFromWorker { buffer, .. }
                | TaskStep::Claim { buffer, .. } => generations.push(state.announce(buffer)),
                TaskStep::AwaitLocal { buffer, .. } => generations.push(state.newest(buffer)),
                _ => {}
            }
        }
        generations
    }

    /// Land the accepted receive `generation` of `id`: store the bytes, or
    /// record the failure for the receive's waiters. Returns the receive's
    /// own outcome.
    pub(crate) fn land(
        &self,
        id: BufferId,
        generation: u64,
        outcome: OmpcResult<Bytes>,
    ) -> OmpcResult<()> {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let result = outcome.map(|data| {
            state.buffers.insert(id.0, data);
        });
        if let Entry::Occupied(mut entry) = state.arrivals.entry(id.0) {
            let arrivals = entry.get_mut();
            if arrivals.pending == Some(generation) {
                arrivals.pending = None;
            }
            match &result {
                Err(error) => arrivals.failed = Some((generation, error.clone())),
                Ok(()) if arrivals.failed.as_ref().is_some_and(|(g, _)| *g < generation) => {
                    arrivals.failed = None;
                }
                Ok(()) => {}
            }
            if arrivals.pending.is_none() && arrivals.failed.is_none() {
                entry.remove();
            }
        }
        drop(guard);
        self.landed.notify_all();
        result
    }

    /// Block until the accepted receive `generation` of `id` has landed,
    /// and fail with its error if it failed. `timeout` is a last-resort
    /// bound (one too large to represent waits forever): the receive is
    /// queued ahead of the waiter on this node, so it lands (or fails)
    /// without anybody's help.
    pub(crate) fn await_landing(
        &self,
        id: BufferId,
        generation: u64,
        timeout: std::time::Duration,
    ) -> OmpcResult<()> {
        let deadline = std::time::Instant::now().checked_add(timeout);
        let mut state = self.state.lock();
        loop {
            let arrivals = state.arrivals.get(&id.0);
            if arrivals.is_none_or(|a| a.pending != Some(generation)) {
                return match arrivals.and_then(|a| a.failed.as_ref()) {
                    Some((g, error)) if *g == generation => Err(error.clone()),
                    _ => Ok(()),
                };
            }
            match deadline {
                None => self.landed.wait(&mut state),
                Some(deadline) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return Err(OmpcError::Internal(format!(
                            "task step timed out waiting for {id} to arrive from a co-scheduled \
                             transfer"
                        )));
                    }
                    let _ = self.landed.wait_for(&mut state, deadline - now);
                }
            }
        }
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

    /// Drop every resident buffer and every arrival record (warm-worker
    /// recycling between device lifetimes).
    pub fn clear(&self) {
        let mut state = self.state.lock();
        state.buffers.clear();
        state.arrivals.clear();
        drop(state);
        self.landed.notify_all();
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

/// Send an event's one typed reply to `dest` on its channel: the reply's
/// header and body on success, the error — attributed to this node and
/// event — otherwise. Returns the handler's own outcome.
fn send_reply(
    channel: &Communicator,
    dest: usize,
    tag: Tag,
    outcome: OmpcResult<Reply>,
) -> OmpcResult<()> {
    match outcome {
        Ok(reply) => {
            let (header, body) = reply.into_parts();
            match body {
                Some(body) => channel.send_with_body(dest, tag, header, body)?,
                None => channel.send(dest, tag, header)?,
            }
            Ok(())
        }
        Err(error) => {
            let remote = as_remote(channel.rank(), tag, error.clone());
            channel.send(dest, tag, EventReply::Err(remote).encode())?;
            Err(error)
        }
    }
}

/// Receive the host payload message that follows a notification on its
/// channel.
fn recv_payload(channel: &Communicator, tag: Tag) -> OmpcResult<Bytes> {
    let msg = channel.recv(Some(HEAD_RANK), Some(tag))?;
    payload_body(&msg.data, msg.body)
}

/// What the sending half of a forward or a push sent: the buffer, or its attributed error.
fn forwarded(msg: Message) -> OmpcResult<Bytes> {
    let reply = Reply::from_parts(&msg.data, msg.body, true)?;
    reply.body.ok_or_else(|| OmpcError::Internal("forward without its data".to_string()))
}

/// Receive what the sending half of a worker-to-worker forward transmits.
fn recv_forward(channel: &Communicator, from: NodeId, tag: Tag) -> OmpcResult<Bytes> {
    forwarded(channel.recv(Some(from), Some(tag))?)
}

/// Take what `from` pushed on `(tag, cid)`: queued before it was booked.
fn take_push(comm: &Communicator, from: NodeId, tag: Tag, cid: CommId) -> OmpcResult<Bytes> {
    let missing = || OmpcError::Internal(format!("nothing pushed by node {from} on {tag:?}"));
    forwarded(comm.on(cid)?.try_recv(Some(from), Some(tag)).ok_or_else(missing)?)
}

/// The generations [`DeviceMemory::accept`] gave an event's receives and
/// awaits, consumed in step order.
type Generations = std::vec::IntoIter<u64>;

/// Compute the outcome (reply or error) of one head-replying event.
///
/// `recv_us` is the handler-entry timestamp when the head asked for a timed
/// reply (`notification.timed`), `None` otherwise — no clock is read for
/// untimed events. A task returns the captured [`TaskStamps`] in its reply.
fn event_outcome(
    channel: &Communicator,
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    request: EventRequest,
    generations: &mut Generations,
    tag: Tag,
    recv_us: Option<u64>,
) -> OmpcResult<Reply> {
    match request {
        EventRequest::Alloc { buffer, size } => {
            memory.store(buffer, Bytes::zeroed(size as usize));
            Ok(Reply::default())
        }
        EventRequest::Delete { buffers } => {
            // Absent buffers are fine (the copy may never have landed).
            for buffer in buffers {
                memory.remove(buffer);
            }
            Ok(Reply::default())
        }
        EventRequest::Submit { buffer } => {
            let generation = generations.next().unwrap_or_default();
            memory.land(buffer, generation, recv_payload(channel, tag))?;
            Ok(Reply::default())
        }
        EventRequest::Retrieve { buffer } => memory.resident(buffer).map(Reply::data),
        EventRequest::ExchangeRecv { buffer, from } => {
            let generation = generations.next().unwrap_or_default();
            let data = recv_forward(channel, from, tag);
            let inline = data.as_ref().map_or(0, |d| d.len() as u64).to_le_bytes().to_vec();
            memory.land(buffer, generation, data)?;
            Ok(Reply { inline, ..Reply::default() })
        }
        EventRequest::Task(spec) => {
            let stamps = run_task_steps(channel, memory, kernels, spec, generations, tag, recv_us)?;
            Ok(Reply { stamps, ..Reply::default() })
        }
        EventRequest::Reset => {
            memory.clear();
            Ok(Reply::default())
        }
        // `handle_event` answers these itself; one arriving here is a bug
        // the head should hear about, not a dead handler thread.
        other => {
            Err(OmpcError::Internal(format!("{} is not a single-reply head event", other.name())))
        }
    }
}

/// Send one collective frame — frame index in the header, `chunk` as the
/// body — to every listed child on the child's own relay channel. The
/// children share the one chunk.
fn fan_out(
    comm: &Communicator,
    children: &[RelayChild],
    index: u64,
    chunk: &Bytes,
) -> OmpcResult<()> {
    for child in children {
        let frame = relay_frame_header(index);
        comm.on(child.comm)?.send_with_body(child.node, child.tag, frame, chunk.clone())?;
    }
    Ok(())
}

/// Bytes frame `index` of a `total_bytes` stream cut every `chunk_bytes`
/// carries (`chunk_bytes == 0`: the one frame carries everything).
fn frame_len(index: u64, total_bytes: u64, chunk_bytes: u64) -> u64 {
    match chunk_bytes {
        0 => total_bytes,
        _ => total_bytes.saturating_sub(index * chunk_bytes).min(chunk_bytes),
    }
}

/// Stream `data` to every listed child as collective frames, each chunk a
/// view of `data`'s allocation. Frames go out breadth-first — frame `i`
/// reaches every child before frame `i + 1` — so the whole tree's pipelines
/// fill together. Used by the feeding half of a worker-sourced broadcast
/// ([`EventRequest::RelayFeed`]) and by the head node when it is itself the
/// tree source.
pub(crate) fn send_relay_frames(
    comm: &Communicator,
    data: &Bytes,
    chunk_bytes: u64,
    children: &[RelayChild],
) -> OmpcResult<()> {
    let total = data.len() as u64;
    for index in 0..relay_frame_count(total, chunk_bytes) {
        let start = (index * chunk_bytes) as usize;
        let end = start + frame_len(index, total, chunk_bytes) as usize;
        fan_out(comm, children, index, &data.slice(start..end))?;
    }
    Ok(())
}

/// Receive one buffer as collective payload frames and relay each frame
/// onward: frames are accepted **from any source** (planned parent or a
/// rescue feeder), kept once, and forwarded once to every child the moment
/// they first arrive — so this node fans frame `i` onward while frame
/// `i + 1` is still inbound. Duplicate frames (normal during re-sourcing,
/// when a rescue feeder replays the whole stream) are ignored.
///
/// Forwarding passes the received chunk's handle on. A stream of one frame
/// is stored as it arrived; only a chunked one is re-assembled — copied —
/// into the buffer.
#[allow(clippy::too_many_arguments)]
fn relay_recv_frames(
    comm: &Communicator,
    channel: &Communicator,
    memory: &DeviceMemory,
    buffer: BufferId,
    total_bytes: u64,
    chunk_bytes: u64,
    children: &[RelayChild],
    tag: Tag,
) -> OmpcResult<()> {
    let frames = relay_frame_count(total_bytes, chunk_bytes) as usize;
    let mut chunks: Vec<Option<Bytes>> = vec![None; frames];
    let mut remaining = frames;
    while remaining > 0 {
        let msg = channel
            .recv_timeout(None, Some(tag), std::time::Duration::from_millis(RELAY_FRAME_TIMEOUT_MS))
            .map_err(|e| {
                OmpcError::Communication(format!("waiting for a collective frame of {buffer}: {e}"))
            })?;
        let (index, chunk) = decode_relay_parts(&msg.data, msg.body)?;
        let Some(slot) = chunks.get_mut(index as usize) else {
            return Err(OmpcError::Internal(format!(
                "collective frame index {index} out of range for {frames} frames of {buffer}"
            )));
        };
        if slot.is_some() {
            continue;
        }
        let expected = frame_len(index, total_bytes, chunk_bytes);
        if chunk.len() as u64 != expected {
            return Err(OmpcError::Internal(format!(
                "collective frame {index} of {buffer} carried {} bytes, expected {expected}",
                chunk.len()
            )));
        }
        fan_out(comm, children, index, &chunk)?;
        *slot = Some(chunk);
        remaining -= 1;
    }
    let data = match &chunks[..] {
        [Some(whole)] => whole.clone(),
        _ => {
            let mut assembled = Vec::with_capacity(total_bytes as usize);
            for chunk in chunks.iter().flatten() {
                assembled.extend_from_slice(chunk);
            }
            assembled.into()
        }
    };
    memory.store(buffer, data);
    Ok(())
}

/// Post a compact completion notice for a finished (or refused) train car
/// on the train envelope's `(tag, comm)` — the completion channel of the
/// region execution that sent it. Sent strictly *after* the car's typed
/// reply: sends are eager, so by the time the head receives the notice the
/// reply is already in its mailbox.
fn post_completion(envelope: &Communicator, envelope_tag: Tag, car: Tag, ok: bool) {
    let notice = CompletionNotice { tag: car, ok };
    let _ = envelope.send(HEAD_RANK, envelope_tag, notice.encode());
}

/// Run `kernel` against the node's device copies of `buffers`.
///
/// The kernel borrows the resident handles (see [`KernelArgs`]): nothing is
/// copied in, and only what it wrote is stored back, when it returns. A
/// buffer that is not resident is an error before the kernel runs, and a
/// kernel that panics is an error that leaves device memory as it was —
/// either way the handler thread lives on to send the typed reply.
fn execute_kernel(
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    kernel: crate::types::KernelId,
    buffers: &[BufferId],
) -> OmpcResult<()> {
    let k = kernels.get(kernel).ok_or(OmpcError::UnknownKernel(kernel))?;
    let resident: OmpcResult<Vec<(BufferId, Bytes)>> =
        buffers.iter().map(|&b| memory.resident(b).map(|bytes| (b, bytes))).collect();
    let mut args = KernelArgs::resident(resident?);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.execute(&mut args)))
        .map_err(|_| OmpcError::Internal(format!("kernel '{}' panicked", k.name())))?;
    for (id, data) in args.into_written() {
        memory.store(id, data);
    }
    Ok(())
}

/// Execute the steps of a composite [`EventRequest::Task`] in order. The
/// first failing step aborts the task; the caller replies with the error,
/// and the receives the task did not get to are landed as failed with it,
/// so whoever awaits their bytes replies the same error.
///
/// With `recv_us` set (the head asked for a timed reply), the worker stamps
/// the moment the data steps finished (`deps_us` — everything before it is
/// dependency/transfer wait) and the kernel-execution window; without it no
/// clock is ever read.
fn run_task_steps(
    channel: &Communicator,
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    spec: TaskSpec,
    generations: &mut Generations,
    tag: Tag,
    recv_us: Option<u64>,
) -> OmpcResult<Option<TaskStamps>> {
    let mut stamps = recv_us.map(|recv_us| TaskStamps {
        recv_us,
        deps_us: recv_us,
        exec_start_us: recv_us,
        exec_end_us: recv_us,
    });
    let mut steps = spec.steps.into_iter();
    while let Some(step) = steps.next() {
        let ran = match step {
            TaskStep::RecvFromHead { buffer } => {
                let generation = generations.next().unwrap_or_default();
                memory.land(buffer, generation, recv_payload(channel, tag))
            }
            TaskStep::RecvFromWorker { buffer, from } => {
                let generation = generations.next().unwrap_or_default();
                memory.land(buffer, generation, recv_forward(channel, from, tag))
            }
            TaskStep::Claim { buffer, from, tag, comm } => {
                let generation = generations.next().unwrap_or_default();
                memory.land(buffer, generation, take_push(channel, from, tag, comm))
            }
            TaskStep::AwaitLocal { buffer, timeout_ms } => {
                let generation = generations.next().unwrap_or_default();
                let timeout = std::time::Duration::from_millis(timeout_ms);
                memory.await_landing(buffer, generation, timeout)
            }
            TaskStep::Alloc { buffer, size } => {
                if !memory.contains(buffer) {
                    memory.store(buffer, Bytes::zeroed(size as usize));
                }
                Ok(())
            }
            TaskStep::Delete { buffer } => {
                // Deferred head-side maintenance riding this task; absent
                // buffers are fine (the copy may never have landed).
                memory.remove(buffer);
                Ok(())
            }
            TaskStep::Execute { kernel, buffers } => {
                if let Some(s) = stamps.as_mut() {
                    let now = monotonic_us();
                    s.deps_us = now;
                    s.exec_start_us = now;
                }
                let executed = execute_kernel(memory, kernels, kernel, &buffers);
                if let Some(s) = stamps.as_mut() {
                    s.exec_end_us = monotonic_us();
                }
                executed
            }
            TaskStep::Push { buffer, to, tag, comm } => {
                // The reader hears any failure: the error sent, or its claim's.
                let data = memory.resident(buffer).map(Reply::data);
                let _ = channel.on(comm).map(|lane| send_reply(&lane, to, tag, data));
                Ok(())
            }
            TaskStep::Discard { from, tag, comm } => {
                // Whatever was pushed — the bytes or their error — goes.
                let _ = take_push(channel, from, tag, comm);
                Ok(())
            }
        };
        if let Err(error) = ran {
            abandon_steps(memory, steps, generations, &error);
            return Err(error);
        }
    }
    Ok(stamps)
}

/// Land every receive among `steps` — a task's steps it will never run —
/// as failed with `error`, keeping `generations` in step. No push leaves,
/// and a claimed copy stays queued for the head's [`TaskStep::Discard`].
fn abandon_steps(
    memory: &DeviceMemory,
    steps: impl Iterator<Item = TaskStep>,
    generations: &mut Generations,
    error: &OmpcError,
) {
    for step in steps {
        match step {
            TaskStep::RecvFromHead { buffer }
            | TaskStep::RecvFromWorker { buffer, .. }
            | TaskStep::Claim { buffer, .. } => {
                let generation = generations.next().unwrap_or_default();
                let _ = memory.land(buffer, generation, Err(error.clone()));
            }
            TaskStep::AwaitLocal { .. } => {
                generations.next();
            }
            _ => {}
        }
    }
}

/// Handle one event on the worker side, always producing exactly one typed
/// reply (to the head node, or to the exchange receiver for the sending
/// half). Returns the handler's own outcome so tests and the gate loop can
/// observe failures; the same error has already been sent as the reply.
/// Exposed for unit testing; normal use is through [`worker_main`], whose
/// gate accepts the event and whose handler runs it.
pub fn handle_event(
    comm: &Communicator,
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    notification: EventNotification,
) -> OmpcResult<()> {
    let generations = memory.accept(&notification.request);
    run_event(comm, memory, kernels, notification, generations)
}

/// Run one event the gate accepted with `generations`
/// ([`DeviceMemory::accept`]).
fn run_event(
    comm: &Communicator,
    memory: &DeviceMemory,
    kernels: &KernelRegistry,
    notification: EventNotification,
    generations: Vec<u64>,
) -> OmpcResult<()> {
    let mut generations = generations.into_iter();
    let channel = comm.on(notification.comm)?;
    let tag = notification.tag;
    // Handler-entry timestamp, read only when the head asked for a timed
    // reply — an untimed event costs no clock read on the worker.
    let recv_us = notification.timed.then(monotonic_us);
    match notification.request {
        EventRequest::Shutdown | EventRequest::Kill => Ok(()), // gate-loop concerns
        EventRequest::ExchangeSend { buffer, to } => {
            // The sending half's "reply" goes to the receiver: the resident
            // handle as the body on success, the error otherwise. The
            // receiver propagates a failure to the head, so the head never
            // hangs on a half-completed exchange.
            send_reply(&channel, to, tag, memory.resident(buffer).map(Reply::data))
        }
        EventRequest::SubmitTrain { buffers } => {
            // A prefetch train: the payloads stream in order on the train's
            // own channel (non-overtaking per sender/channel/tag), stored
            // as they arrive, answered by one typed reply for the whole
            // train.
            let stored = buffers.into_iter().try_for_each(|buffer| {
                memory.store(buffer, recv_payload(&channel, tag)?);
                Ok(())
            });
            send_reply(&channel, HEAD_RANK, tag, stored.map(|()| Reply::default()))
        }
        EventRequest::RelayRecv { buffer, total_bytes, chunk_bytes, children } => {
            let received = relay_recv_frames(
                comm,
                &channel,
                memory,
                buffer,
                total_bytes,
                chunk_bytes,
                &children,
                tag,
            );
            // The ack carries the delivered byte count, like an exchange
            // acknowledgement.
            let ack = Reply { inline: total_bytes.to_le_bytes().to_vec(), ..Reply::default() };
            send_reply(&channel, HEAD_RANK, tag, received.map(|()| ack))
        }
        EventRequest::RelayFeed { buffer, chunk_bytes, children } => {
            let fed = memory
                .resident(buffer)
                .and_then(|data| send_relay_frames(comm, &data, chunk_bytes, &children));
            send_reply(&channel, HEAD_RANK, tag, fed.map(|()| Reply::default()))
        }
        EventRequest::TaskTrain(cars) => {
            // Run the cars strictly in order, replying per car on each
            // car's own exclusive channel — a failed car replies its typed
            // error and the train keeps rolling (tasks are independent;
            // the head's per-task blame machinery decides what a failure
            // means) — and noticing each car on the envelope's channel. The
            // first car error is this handler's own outcome.
            let mut result = Ok(());
            for car in cars {
                let car_channel = comm.on(car.comm)?;
                // Each car stamps its own pickup time: cars run strictly in
                // order, so car N's recv marks when the handler reached it.
                let car_recv_us = notification.timed.then(monotonic_us);
                let ran = run_task_steps(
                    &car_channel,
                    memory,
                    kernels,
                    car.spec,
                    &mut generations,
                    car.tag,
                    car_recv_us,
                );
                let ok = ran.is_ok();
                let reply = ran.map(|stamps| Reply { stamps, ..Reply::default() });
                result = result.and(send_reply(&car_channel, HEAD_RANK, car.tag, reply));
                post_completion(&channel, tag, car.tag, ok);
            }
            result
        }
        request => {
            let outcome =
                event_outcome(&channel, memory, kernels, request, &mut generations, tag, recv_us);
            send_reply(&channel, HEAD_RANK, tag, outcome)
        }
    }
}

/// Refuse an event on a killed node: reply with the node's failure instead
/// of executing anything, so no peer ever blocks on a dead node. Every car
/// of a task train is refused individually — an error reply on the car's
/// own channel and a notice on the envelope's, exactly as the handler would
/// answer a failed car.
fn refuse_event(comm: &Communicator, notification: &EventNotification) -> OmpcResult<()> {
    let node = comm.rank();
    let channel = comm.on(notification.comm)?;
    if let EventRequest::TaskTrain(cars) = &notification.request {
        for car in cars {
            let error = as_remote(node, car.tag, OmpcError::NodeFailure(node));
            comm.on(car.comm)?.send(HEAD_RANK, car.tag, EventReply::Err(error).encode())?;
            post_completion(&channel, notification.tag, car.tag, false);
        }
        return Ok(());
    }
    let error = as_remote(node, notification.tag, OmpcError::NodeFailure(node));
    let dest = match notification.request {
        // The exchange receiver is the peer waiting on the sending half.
        EventRequest::ExchangeSend { to, .. } => to,
        _ => HEAD_RANK,
    };
    channel.send(dest, notification.tag, EventReply::Err(error).encode())?;
    Ok(())
}

/// The worker-node main loop: a gate thread receiving new-event
/// notifications and a pool of event-handler threads executing them.
///
/// Returns when a shutdown event is received (normal termination) or when
/// the communication substrate reports that the peers are gone. A kill
/// event ([`EventRequest::Kill`], failure injection) ends the node's
/// useful life early: events already accepted still complete (and reply),
/// but every event notified afterwards is refused with an error reply
/// instead of being executed — peers observe the failure immediately
/// rather than hanging, and no further effects land on the dead node.
pub fn worker_main(comm: Communicator, kernels: Arc<KernelRegistry>, handler_threads: usize) {
    let memory = Arc::new(DeviceMemory::new());
    let (tx, rx) = crossbeam::channel::unbounded::<(EventNotification, Vec<u64>)>();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..handler_threads.max(1) {
            let rx = rx.clone();
            let comm = comm.clone();
            let memory = Arc::clone(&memory);
            let kernels = Arc::clone(&kernels);
            let spawned = std::thread::Builder::new()
                .name(format!("ompc-handler-{}-{}", comm.rank(), i))
                .spawn_scoped(scope, move || {
                    while let Ok((notification, generations)) = rx.recv() {
                        // Errors on individual events must not kill the
                        // handler pool; the head node receives them as
                        // error replies on the event channel.
                        let _ = run_event(&comm, &memory, &kernels, notification, generations);
                    }
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                // The node serves with the handlers it has.
                Err(_) => break,
            }
        }
        drop(rx);

        // Gate loop: receive notifications and enqueue their destination
        // part into the local event queue. Events that can never block
        // (alloc, delete, retrieve, the sending half of an exchange) are
        // executed inline by the gate thread — the analogue of the paper's
        // handlers re-enqueueing events that still have pending I/O — so a
        // small handler pool cannot deadlock on two opposing exchanges.
        // The loop ends when the world shuts down or every peer terminated
        // (recv fails), or when a shutdown event arrives.
        //
        // A node without a single handler thread cannot run an event: it
        // refuses every one, as a killed node does.
        let mut dead = handles.is_empty();
        while let Ok(msg) = comm.recv(None, Some(CONTROL_TAG)) {
            let Ok(notification) = EventNotification::decode(&msg.data) else {
                continue;
            };
            match notification.request {
                EventRequest::Shutdown => break,
                EventRequest::Kill => {
                    dead = true;
                    continue;
                }
                _ => {}
            }
            if dead {
                let _ = refuse_event(&comm, &notification);
                continue;
            }
            // A prefetch train is inline too: its payloads are sent eagerly
            // right after the envelope, so the receives are bounded.
            // RelayFeed is inline for the same reason as ExchangeSend: it
            // only sends (the local copy is resident by construction), so
            // it can never block the gate. RelayRecv stays pooled — it
            // waits on inbound frames, exactly like the receiving half of
            // an exchange.
            let inline = matches!(
                notification.request,
                EventRequest::Alloc { .. }
                    | EventRequest::Delete { .. }
                    | EventRequest::Retrieve { .. }
                    | EventRequest::ExchangeSend { .. }
                    | EventRequest::SubmitTrain { .. }
                    | EventRequest::RelayFeed { .. }
                    | EventRequest::Reset
            );
            // Receives are numbered here, in arrival order: an `AwaitLocal`
            // step names the newest receive of its buffer queued ahead of
            // it, whichever handler ends up running either.
            let generations = memory.accept(&notification.request);
            if inline {
                let _ = run_event(&comm, &memory, &kernels, notification, generations);
            } else if tx.send((notification, generations)).is_err() {
                break;
            }
        }
        drop(tx);
        for h in handles {
            let _ = h.join();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::KernelId;
    use ompc_mpi::{CommId, Tag, World};

    /// A task of one `Execute` step: how a kernel runs.
    fn kernel_task(kernel: KernelId, buffers: Vec<BufferId>) -> EventRequest {
        EventRequest::Task(TaskSpec { steps: vec![TaskStep::Execute { kernel, buffers }] })
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
        let world = World::with_communicators(2, 2);
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
        let comm = CommId(1);
        let payload = ompc_mpi::typed::f64s_to_bytes(&[1.0, 2.0]).into();
        head.on(comm).unwrap().send_with_body(1, tag, Vec::new(), payload).unwrap();
        handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification { request: EventRequest::Submit { buffer }, tag, comm, timed: false },
        )
        .unwrap();
        // The typed Ok reply arrived at the head.
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag)).unwrap();
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
                comm,
                timed: false,
            },
        )
        .unwrap();
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag2)).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());

        // Retrieve the result.
        let tag3 = Tag(12);
        handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::Retrieve { buffer },
                tag: tag3,
                comm,
                timed: false,
            },
        )
        .unwrap();
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag3)).unwrap();
        // A retrieve's reply is the buffer: nothing inline, the data as body.
        let data = Reply::from_parts(&msg.data, msg.body, true).unwrap().body.unwrap();
        assert_eq!(ompc_mpi::typed::bytes_to_f64s(&data).unwrap(), vec![3.0, 6.0]);
    }

    #[test]
    fn retrieve_of_missing_buffer_is_an_error() {
        let world = World::new(2);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let err = handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::Retrieve { buffer: BufferId(5) },
                tag: Tag(1),
                comm: CommId(0),
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownBuffer(BufferId(5)));
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
                comm: CommId(0),
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownKernel(KernelId(3)));
    }

    #[test]
    fn worker_to_worker_exchange_moves_data_directly() {
        let world = World::with_communicators(3, 2);
        let head = world.communicator(0);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let mem1 = DeviceMemory::new();
        let mem2 = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let buffer = BufferId(0);
        mem1.store(buffer, vec![7, 8, 9].into());

        let tag = Tag(20);
        let comm = CommId(0);
        // Receiving half first (it blocks waiting for the data), then the
        // sending half, run from two threads like real event handlers.
        let recv_thread = std::thread::spawn({
            let w2 = w2.clone();
            let kernels = KernelRegistry::new();
            move || {
                let mem2 = DeviceMemory::new();
                handle_event(
                    &w2,
                    &mem2,
                    &kernels,
                    EventNotification {
                        request: EventRequest::ExchangeRecv { buffer, from: 1 },
                        tag,
                        comm,
                        timed: false,
                    },
                )
                .unwrap();
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
                comm,
                timed: false,
            },
        )
        .unwrap();
        let received = recv_thread.join().unwrap();
        // The receiver's resident bytes *are* the sender's allocation.
        let sent = mem1.get(buffer).unwrap();
        assert!(received.is_some_and(|r| r.same_allocation(&sent) && r[..] == [7, 8, 9]));
        // The head got a typed acknowledgement carrying the byte count.
        let ack = head.recv(Some(2), Some(tag)).unwrap();
        let payload = EventReply::decode(&ack.data).unwrap().into_result().unwrap();
        assert_eq!(u64::from_le_bytes(payload[..8].try_into().unwrap()), 3);
        let _ = mem2;
    }

    fn execute(kernel: KernelId, buffers: Vec<BufferId>, tag: u64) -> EventNotification {
        EventNotification {
            request: kernel_task(kernel, buffers),
            tag: Tag(tag),
            comm: CommId(0),
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
        let buffers = vec![BufferId(0), BufferId(9), BufferId(2), BufferId(3)];
        let delete = EventNotification {
            request: EventRequest::Delete { buffers },
            tag: Tag(5),
            comm: CommId(0),
            timed: false,
        };
        handle_event(&worker, &memory, &kernels, delete).unwrap();
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
            comm: CommId(0),
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

        // The event-level alloc (map(alloc:)) does replace what is there.
        let alloc = EventRequest::Alloc { buffer: ids[0], size: 16 };
        let notification = EventNotification { request: alloc, ..task(Vec::new()) };
        handle_event(&worker, &memory, &kernels, notification).unwrap();
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
            comm: CommId(0),
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
    fn an_event_the_single_reply_path_cannot_answer_is_a_typed_error() {
        let world = World::new(2);
        let worker = world.communicator(1);
        let (memory, kernels) = (DeviceMemory::new(), KernelRegistry::new());
        let request =
            EventRequest::RelayFeed { buffer: BufferId(0), chunk_bytes: 0, children: vec![] };
        let mut generations = memory.accept(&request).into_iter();
        let outcome =
            event_outcome(&worker, &memory, &kernels, request, &mut generations, Tag(3), None);
        assert!(matches!(outcome, Err(OmpcError::Internal(m)) if m.contains("relay-feed")));
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
                comm: CommId(0),
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
        let world = World::with_communicators(3, 2);
        let head = world.communicator(0);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let buffer = BufferId(6);
        let tag = Tag(40);
        let comm = CommId(0);
        let recv_thread = std::thread::spawn({
            let w2 = w2.clone();
            move || {
                let mem2 = DeviceMemory::new();
                let kernels = KernelRegistry::new();
                handle_event(
                    &w2,
                    &mem2,
                    &kernels,
                    EventNotification {
                        request: EventRequest::ExchangeRecv { buffer, from: 1 },
                        tag,
                        comm,
                        timed: false,
                    },
                )
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
                comm,
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

    #[test]
    fn a_push_lands_through_its_claim_and_a_failed_kernel_sends_none() {
        let world = World::with_communicators(3, 2);
        let (head, p, q) = (world.communicator(0), world.communicator(1), world.communicator(2));
        let kernels = KernelRegistry::new();
        let write = kernels.register_fn("write", 1e-6, |args| args.set_f64s(0, &[4.5]));
        let (producer, reader) = (DeviceMemory::new(), DeviceMemory::new());
        let b = BufferId(3);
        let comm = CommId(1);
        let task = |steps, tag| EventNotification {
            request: EventRequest::Task(TaskSpec { steps }),
            tag: Tag(tag),
            comm: CommId(0),
            timed: false,
        };
        let push = |tag| TaskStep::Push { buffer: b, to: 2, tag: Tag(tag), comm };
        let claim = |tag| TaskStep::Claim { buffer: b, from: 1, tag: Tag(tag), comm };
        let unknown = || TaskStep::Execute { kernel: KernelId(9), buffers: vec![] };

        // The producer writes `b` and pushes it on; the claim takes the
        // resident allocation itself, already queued.
        let alloc = TaskStep::Alloc { buffer: b, size: 8 };
        let execute = TaskStep::Execute { kernel: write, buffers: vec![b] };
        handle_event(&p, &producer, &kernels, task(vec![alloc, execute, push(60)], 61)).unwrap();
        handle_event(&q, &reader, &kernels, task(vec![claim(60)], 62)).unwrap();
        let landed = reader.get(b).unwrap();
        assert!(landed.same_allocation(&producer.get(b).unwrap()));
        assert_eq!(ompc_mpi::typed::bytes_to_f64s(&landed).unwrap(), vec![4.5]);

        // A failed kernel never reaches its push, and a claim of nothing is
        // an error, not a wait.
        let failed = handle_event(&p, &producer, &kernels, task(vec![unknown(), push(63)], 64));
        assert_eq!(failed, Err(OmpcError::UnknownKernel(KernelId(9))));
        assert_eq!(q.mailbox_stats().queued, 0, "a failed kernel sends no push");
        let nothing = handle_event(&q, &reader, &kernels, task(vec![claim(63)], 65));
        assert!(matches!(nothing, Err(OmpcError::Internal(_))), "{nothing:?}");

        // A claim behind a failed step leaves its copy queued; a discard
        // drops it, one nobody claimed, and one of nothing.
        handle_event(&p, &producer, &kernels, task(vec![push(66), push(67)], 68)).unwrap();
        let behind = handle_event(&q, &reader, &kernels, task(vec![unknown(), claim(66)], 69));
        assert!(behind.is_err());
        assert_eq!(q.mailbox_stats().queued, 2);
        let discard = |tag| TaskStep::Discard { from: 1, tag: Tag(tag), comm };
        let drops = vec![discard(66), discard(67), discard(66)];
        handle_event(&q, &reader, &kernels, task(drops, 70)).unwrap();
        assert_eq!(q.mailbox_stats().queued, 0, "every pushed copy was taken");
        assert_eq!(head.mailbox_stats().queued, 7, "one reply per task, nothing else");
    }

    /// The next `cars` completion notices from worker 1 on a train
    /// envelope's channel: the car tags and outcomes, in arrival order.
    fn notices_on(channel: &Communicator, tag: Tag, cars: usize) -> Vec<(u64, bool)> {
        (0..cars)
            .map(|_| {
                let msg = channel.recv(Some(1), Some(tag)).unwrap();
                let notice = CompletionNotice::decode(&msg.data).unwrap();
                (notice.tag.0, notice.ok)
            })
            .collect()
    }

    #[test]
    fn task_train_replies_per_car_and_posts_notices_in_order() {
        use crate::protocol::{TaskSpec, TaskStep, TrainCar};
        let world = World::with_communicators(2, 2);
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
            comm: CommId(1),
            spec: TaskSpec {
                steps: vec![
                    TaskStep::RecvFromHead { buffer: BufferId(1) },
                    TaskStep::Execute { kernel: bump, buffers: vec![BufferId(1)] },
                ],
            },
        };
        let bad = TrainCar {
            tag: Tag(51),
            comm: CommId(0),
            spec: TaskSpec {
                steps: vec![TaskStep::Execute { kernel: KernelId(99), buffers: vec![] }],
            },
        };
        // The good car's payload travels on the car's own channel.
        head.on(CommId(1))
            .unwrap()
            .send_with_body(1, Tag(50), Vec::new(), ompc_mpi::typed::f64s_to_bytes(&[1.0]).into())
            .unwrap();
        // The envelope names the completion channel of the execution that
        // sent the train.
        let (envelope_tag, envelope_comm) = (Tag(49), CommId(1));
        let err = handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::TaskTrain(vec![good, bad]),
                tag: envelope_tag,
                comm: envelope_comm,
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownKernel(KernelId(99)), "first car error is the outcome");

        // Per-car replies on each car's own channel.
        let ok = head.on(CommId(1)).unwrap().recv(Some(1), Some(Tag(50))).unwrap();
        assert!(EventReply::decode(&ok.data).unwrap().into_result().is_ok());
        let bad_reply = head.on(CommId(0)).unwrap().recv(Some(1), Some(Tag(51))).unwrap();
        let bad_err = EventReply::decode(&bad_reply.data).unwrap().into_result().unwrap_err();
        assert_eq!(bad_err.origin_node(), Some(1), "blame stays per task inside a train");
        assert_eq!(bad_err.root_cause(), &OmpcError::UnknownKernel(KernelId(99)));
        // The failed car did not abort the train: the good car executed.
        assert_eq!(
            memory.get(BufferId(1)),
            Some(ompc_mpi::typed::f64s_to_bytes(&[2.0]).into()),
            "earlier cars execute regardless of later failures"
        );

        // Two completion notices on the envelope's channel, in car order,
        // with per-car outcomes — and nothing anywhere else.
        let envelope = head.on(envelope_comm).unwrap();
        assert_eq!(notices_on(&envelope, envelope_tag, 2), vec![(50, true), (51, false)]);
        assert_eq!(head.mailbox_stats().queued, 0);
    }

    #[test]
    fn a_plain_task_is_answered_by_its_reply_alone() {
        use crate::protocol::{TaskSpec, TaskStep};
        let world = World::with_communicators(2, 2);
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
                comm: CommId(1),
                timed: false,
            };
            assert_eq!(handle_event(&worker, &memory, &kernels, task).is_ok(), ok);
            let msg = head.on(CommId(1)).unwrap().recv(Some(1), Some(Tag(30))).unwrap();
            assert_eq!(EventReply::decode(&msg.data).unwrap().into_result().is_ok(), ok);
            assert_eq!(head.mailbox_stats().queued, 0, "a task posts no notice (ok: {ok})");
        }
    }

    #[test]
    fn submit_train_stores_payloads_in_order_and_replies_once() {
        let world = World::with_communicators(2, 2);
        let head = world.communicator(0);
        let worker = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let tag = Tag(80);
        let comm = CommId(0);
        // Payloads ride the train's own channel, in the listed order.
        head.on(comm).unwrap().send_with_body(1, tag, Vec::new(), vec![1, 1].into()).unwrap();
        head.on(comm).unwrap().send_with_body(1, tag, Vec::new(), vec![2, 2, 2].into()).unwrap();
        handle_event(
            &worker,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::SubmitTrain { buffers: vec![BufferId(4), BufferId(9)] },
                tag,
                comm,
                timed: false,
            },
        )
        .unwrap();
        assert_eq!(memory.get(BufferId(4)), Some(vec![1, 1].into()));
        assert_eq!(memory.get(BufferId(9)), Some(vec![2, 2, 2].into()));
        // One typed reply for the whole train, and nothing else.
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag)).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());
        assert_eq!(head.mailbox_stats().queued, 0);
    }

    #[test]
    fn killed_worker_refuses_a_submit_train_with_one_error_reply() {
        let world = World::with_communicators(2, 2);
        let head = world.communicator(0);
        let worker_comm = world.communicator(1);
        let kernels = Arc::new(KernelRegistry::new());
        let worker = std::thread::spawn(move || worker_main(worker_comm, kernels, 1));

        let kill = EventNotification {
            request: EventRequest::Kill,
            tag: Tag(90),
            comm: CommId(0),
            timed: false,
        };
        head.send(1, CONTROL_TAG, kill.encode()).unwrap();
        let train = EventNotification {
            request: EventRequest::SubmitTrain { buffers: vec![BufferId(7)] },
            tag: Tag(91),
            comm: CommId(1),
            timed: false,
        };
        head.send(1, CONTROL_TAG, train.encode()).unwrap();
        let msg = head.on(CommId(1)).unwrap().recv(Some(1), Some(Tag(91))).unwrap();
        let err = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
        assert_eq!(err.root_cause(), &OmpcError::NodeFailure(1));
        let shutdown = EventNotification {
            request: EventRequest::Shutdown,
            tag: Tag(92),
            comm: CommId(0),
            timed: false,
        };
        head.send(1, CONTROL_TAG, shutdown.encode()).unwrap();
        worker.join().unwrap();
        // The worker is gone, so whatever it sent has arrived: the refusal
        // was the train's one message.
        assert_eq!(head.mailbox_stats().queued, 0);
    }

    #[test]
    fn relay_recv_reassembles_chunks_forwards_once_and_replies_bytes() {
        // Head (rank 0) streams a 10-byte buffer to w1 in 4-byte frames,
        // out of order and with a duplicate; w1 relays every distinct frame
        // to w2's relay channel exactly once.
        let world = World::with_communicators(3, 2);
        let head = world.communicator(0);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let buffer = BufferId(3);
        let data = Bytes::from((0..10).collect::<Vec<u8>>());
        let tag = Tag(30);
        let comm = CommId(1);
        let child = RelayChild { node: 2, tag: Tag(31), comm: CommId(0) };

        let ch = head.on(comm).unwrap();
        // Frame 0 twice: the duplicate is ignored, not re-forwarded.
        for i in [1u64, 0, 0, 2] {
            let start = (i * 4) as usize;
            let chunk = data.slice(start..(start + 4).min(10));
            ch.send_with_body(1, tag, relay_frame_header(i), chunk).unwrap();
        }

        handle_event(
            &w1,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::RelayRecv {
                    buffer,
                    total_bytes: 10,
                    chunk_bytes: 4,
                    children: vec![child],
                },
                tag,
                comm,
                timed: false,
            },
        )
        .unwrap();
        assert_eq!(memory.get(buffer), Some(data.clone()));

        // The head's ack carries the delivered byte count.
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag)).unwrap();
        let payload = EventReply::decode(&msg.data).unwrap().into_result().unwrap();
        assert_eq!(u64::from_le_bytes(payload[..8].try_into().unwrap()), 10);

        // w2 received each distinct frame exactly once, in arrival order.
        let child_ch = w2.on(child.comm).unwrap();
        let mut got = Vec::new();
        for _ in 0..3 {
            let msg = child_ch.recv(Some(1), Some(child.tag)).unwrap();
            let (index, chunk) = decode_relay_parts(&msg.data, msg.body).unwrap();
            assert!(chunk.same_allocation(&data), "a relay forwards the chunk it received");
            got.push(index);
        }
        assert_eq!(got, vec![1, 0, 2]);
        assert!(child_ch.iprobe(Some(1), Some(child.tag)).is_none(), "duplicate was forwarded");
    }

    #[test]
    fn relay_feed_streams_resident_buffer_and_replies() {
        let world = World::with_communicators(3, 2);
        let head = world.communicator(0);
        let w1 = world.communicator(1);
        let w2 = world.communicator(2);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let buffer = BufferId(8);
        memory.store(buffer, vec![5; 10].into());
        let tag = Tag(60);
        let child = RelayChild { node: 2, tag: Tag(61), comm: CommId(1) };
        handle_event(
            &w1,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::RelayFeed { buffer, chunk_bytes: 4, children: vec![child] },
                tag,
                comm: CommId(0),
                timed: false,
            },
        )
        .unwrap();
        let msg = head.on(CommId(0)).unwrap().recv(Some(1), Some(tag)).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());
        let child_ch = w2.on(child.comm).unwrap();
        let mut rebuilt = vec![0u8; 10];
        for want in 0..3u64 {
            let msg = child_ch.recv(Some(1), Some(child.tag)).unwrap();
            assert_eq!(msg.data.len(), 8, "the header is the frame index alone");
            let (i, payload) = decode_relay_parts(&msg.data, msg.body).unwrap();
            assert!(
                payload.same_allocation(&memory.get(buffer).unwrap()),
                "a chunk is a view of the resident buffer"
            );
            assert_eq!(i, want, "frames stream in index order");
            rebuilt[(i * 4) as usize..(i * 4) as usize + payload.len()].copy_from_slice(&payload);
        }
        assert_eq!(rebuilt, vec![5; 10]);

        // A missing buffer is a typed error, not a hang downstream.
        let err = handle_event(
            &w1,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::RelayFeed {
                    buffer: BufferId(99),
                    chunk_bytes: 0,
                    children: vec![],
                },
                tag: Tag(62),
                comm: CommId(0),
                timed: false,
            },
        )
        .unwrap_err();
        assert_eq!(err, OmpcError::UnknownBuffer(BufferId(99)));
        let msg = head.on(CommId(0)).unwrap().recv(Some(1), Some(Tag(62))).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_err());
    }

    #[test]
    fn relay_recv_accepts_frames_from_a_rescue_source() {
        // The planned parent sends one frame and dies; a rescue feeder
        // replays the whole stream from another rank. The receiver ignores
        // the replayed duplicate and assembles the rest — oblivious to the
        // failure, as the re-sourcing contract requires.
        let world = World::with_communicators(4, 2);
        let head = world.communicator(0);
        let parent = world.communicator(2);
        let rescuer = world.communicator(3);
        let w1 = world.communicator(1);
        let memory = DeviceMemory::new();
        let kernels = KernelRegistry::new();
        let buffer = BufferId(4);
        let data = Bytes::from((10..18).collect::<Vec<u8>>());
        let tag = Tag(70);
        let comm = CommId(1);
        let frame = |from: &Communicator, i: u64| {
            let chunk = data.slice((i * 4) as usize..(i * 4) as usize + 4);
            from.on(comm).unwrap().send_with_body(1, tag, relay_frame_header(i), chunk).unwrap();
        };
        frame(&parent, 0);
        frame(&rescuer, 0);
        frame(&rescuer, 1);
        handle_event(
            &w1,
            &memory,
            &kernels,
            EventNotification {
                request: EventRequest::RelayRecv {
                    buffer,
                    total_bytes: 8,
                    chunk_bytes: 4,
                    children: vec![],
                },
                tag,
                comm,
                timed: false,
            },
        )
        .unwrap();
        assert_eq!(memory.get(buffer), Some(data));
        let msg = head.on(comm).unwrap().recv(Some(1), Some(tag)).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());
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
                comm: CommId(0),
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
        let world = World::with_communicators(2, 2);
        let head = world.communicator(0);
        let worker_comm = world.communicator(1);
        let kernels = Arc::new(KernelRegistry::new());
        let worker = std::thread::spawn(move || worker_main(worker_comm, kernels, 1));

        let kill = EventNotification {
            request: EventRequest::Kill,
            tag: Tag(70),
            comm: CommId(0),
            timed: false,
        };
        head.send(1, CONTROL_TAG, kill.encode()).unwrap();
        let cars: Vec<TrainCar> = [71u64, 72]
            .iter()
            .map(|&t| TrainCar {
                tag: Tag(t),
                comm: CommId((t % 2) as u32),
                spec: TaskSpec { steps: vec![TaskStep::Alloc { buffer: BufferId(t), size: 8 }] },
            })
            .collect();
        let (envelope_tag, envelope_comm) = (Tag(74), CommId(0));
        let train = EventNotification {
            request: EventRequest::TaskTrain(cars),
            tag: envelope_tag,
            comm: envelope_comm,
            timed: false,
        };
        head.send(1, CONTROL_TAG, train.encode()).unwrap();

        for tag in [71u64, 72] {
            let msg =
                head.on(CommId((tag % 2) as u32)).unwrap().recv(Some(1), Some(Tag(tag))).unwrap();
            let err = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
            assert_eq!(err.origin_node(), Some(1), "car {tag}");
            assert_eq!(err.root_cause(), &OmpcError::NodeFailure(1), "car {tag}");
        }
        // One refusal notice per car on the envelope's channel, in car order.
        let envelope = head.on(envelope_comm).unwrap();
        assert_eq!(notices_on(&envelope, envelope_tag, 2), vec![(71, false), (72, false)]);
        let shutdown = EventNotification {
            request: EventRequest::Shutdown,
            tag: Tag(73),
            comm: CommId(0),
            timed: false,
        };
        head.send(1, CONTROL_TAG, shutdown.encode()).unwrap();
        worker.join().unwrap();
        assert_eq!(head.mailbox_stats().queued, 0);
    }

    #[test]
    fn killed_worker_refuses_events_with_error_replies_until_shutdown() {
        let world = World::with_communicators(2, 2);
        let head = world.communicator(0);
        let worker_comm = world.communicator(1);
        let kernels = Arc::new(KernelRegistry::new());
        let worker = std::thread::spawn(move || worker_main(worker_comm, kernels, 1));

        let send = |req: EventRequest, tag: u64| {
            let n =
                EventNotification { request: req, tag: Tag(tag), comm: CommId(0), timed: false };
            head.send(1, CONTROL_TAG, n.encode()).unwrap();
        };
        // Before the kill: a normal alloc completes with an Ok reply.
        send(EventRequest::Alloc { buffer: BufferId(1), size: 8 }, 100);
        let msg = head.on(CommId(0)).unwrap().recv(Some(1), Some(Tag(100))).unwrap();
        assert!(EventReply::decode(&msg.data).unwrap().into_result().is_ok());

        // Kill the node, then try to execute: the event is refused.
        send(EventRequest::Kill, 101);
        send(kernel_task(KernelId(0), vec![]), 102);
        let msg = head.on(CommId(0)).unwrap().recv(Some(1), Some(Tag(102))).unwrap();
        let err = EventReply::decode(&msg.data).unwrap().into_result().unwrap_err();
        assert_eq!(err.origin_node(), Some(1));
        assert_eq!(err.root_cause(), &OmpcError::NodeFailure(1));

        // Shutdown still terminates the gate loop.
        send(EventRequest::Shutdown, 103);
        worker.join().unwrap();
    }

    /// An `AwaitLocal` step waits for the receive queued ahead of it, not
    /// for the buffer's presence: with two handler threads a wait can run
    /// while the receive it names is still pending, and a stale copy of an
    /// older version already resident must not satisfy it. A kernel barrier
    /// puts each handler on one train; the head then holds the receive's
    /// payload back until the waiting reader has had every chance to reply
    /// early (a bound on the wrong behaviour only — the right one needs no
    /// clock, since the reader can only reply after the payload landed).
    #[test]
    fn a_resident_older_version_never_satisfies_a_wait_for_a_queued_receive() {
        use crate::protocol::{TaskSpec, TaskStep, TrainCar};
        use std::sync::Barrier;
        let world = World::with_communicators(2, 2);
        let head = world.communicator(0);
        let kernels = Arc::new(KernelRegistry::new());
        let barrier = Arc::new(Barrier::new(2));
        let meet = kernels.register_fn("meet", 1e-6, move |_| {
            barrier.wait();
        });
        let seen = Arc::new(Mutex::new(None));
        let read = {
            let seen = Arc::clone(&seen);
            kernels.register_fn("read", 1e-6, move |args| *seen.lock() = Some(args.as_f64s(0)[0]))
        };
        let worker = {
            let (comm, kernels) = (world.communicator(1), Arc::clone(&kernels));
            std::thread::spawn(move || worker_main(comm, kernels, 2))
        };
        let comm = CommId(1);
        let lane = head.on(comm).unwrap();
        let notify = |request: EventRequest, tag: u64| {
            let n = EventNotification { request, tag: Tag(tag), comm, timed: false };
            head.send(1, CONTROL_TAG, n.encode()).unwrap();
        };
        let reply = |tag: u64| {
            let msg = lane.recv(Some(1), Some(Tag(tag))).unwrap();
            Reply::from_parts(&msg.data, msg.body, false)
        };
        let payload = |value: f64| Bytes::from(ompc_mpi::typed::f64s_to_bytes(&[value]));
        let b = BufferId(3);

        // Version 1 is resident.
        notify(EventRequest::Submit { buffer: b }, 10);
        lane.send_with_body(1, Tag(10), Vec::new(), payload(1.0)).unwrap();
        reply(10).unwrap();

        // Train 1: meet, then receive version 2. Train 2: meet, then await
        // that receive and read the buffer.
        let car = |tag: u64, steps: Vec<TaskStep>| TrainCar {
            tag: Tag(tag),
            comm,
            spec: TaskSpec { steps },
        };
        let meeting = || TaskStep::Execute { kernel: meet, buffers: vec![] };
        notify(
            EventRequest::TaskTrain(vec![
                car(21, vec![meeting()]),
                car(22, vec![TaskStep::RecvFromHead { buffer: b }]),
            ]),
            20,
        );
        let awaiting = TaskStep::AwaitLocal { buffer: b, timeout_ms: u64::MAX };
        let reading = TaskStep::Execute { kernel: read, buffers: vec![b] };
        notify(
            EventRequest::TaskTrain(vec![
                car(31, vec![meeting()]),
                car(32, vec![awaiting, reading]),
            ]),
            30,
        );
        let early =
            lane.recv_timeout(Some(1), Some(Tag(32)), std::time::Duration::from_millis(500));
        assert!(early.is_err(), "the reader replied before its receive landed: {:?}", *seen.lock());
        lane.send_with_body(1, Tag(22), Vec::new(), payload(2.0)).unwrap();
        for tag in [21, 22, 31, 32] {
            reply(tag).unwrap();
        }
        assert_eq!(*seen.lock(), Some(2.0), "the wait was satisfied by the older version");

        notify(EventRequest::Shutdown, 40);
        worker.join().unwrap();
    }
}
