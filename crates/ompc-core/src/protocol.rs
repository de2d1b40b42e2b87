//! Wire format of the event system.
//!
//! Every event starts with a *new-event notification* sent to the
//! destination node on the reserved control tag. The notification carries
//! the event kind, its operands, and the `(tag, communicator)` pair that all
//! subsequent messages of this event will use — this is how the paper's
//! event system guarantees an exclusive channel per event (§4.2).
//!
//! Every dispatched event also produces exactly one **typed reply** on its
//! exclusive channel, an [`EventReply`]: `Ok(payload)` on success or
//! `Err(OmpcError)` when the handler failed. The error reply carries the
//! originating node and the event tag (wrapped as
//! [`OmpcError::RemoteEvent`]), so a worker-side failure — an unregistered
//! kernel, a missing buffer, a killed node — surfaces on the head node as a
//! propagated error instead of a reply that never arrives.
//!
//! Every head→worker buffer operation is an [`EventRequest::Task`] of
//! [`TaskStep`]s. A region task travels as a car of an
//! [`EventRequest::TaskTrain`]; after
//! each car's reply the worker also posts a [`CompletionNotice`] on the
//! train envelope's own `(tag, communicator)` — the completion channel of the
//! region execution that sent the train, an event channel like any other.
//! [`CONTROL_TAG`] is the only reserved tag.
//!
//! ## Header and body
//!
//! A message is a small codec'd **header** plus at most one shared
//! **body** (`ompc_mpi::Message::{data, body}`), and bulk data always
//! travels as the body — the very [`Bytes`] handle the sender held, so no
//! frame is assembled around a payload or taken apart again:
//!
//! | message | header | body |
//! |---|---|---|
//! | notification, completion notice | the encoding | — |
//! | reply without data ([`Reply::from_parts`], `data_bearing = false`) | [`EventReply`] (status, stamps, inline acknowledgement) | — |
//! | reply that *is* the data (a task with a [`TaskStep::Retrieve`]; the sending half of a forward, a [`TaskStep::Push`]) | `EventReply::Ok` with nothing inline | the buffer |
//! | host payload (one per [`TaskStep::RecvFromHead`]) | empty ([`payload_body`]) | the buffer |
//! | collective frame ([`relay_frame_header`] / [`decode_relay_parts`]) | frame index `u64` | the chunk |
//!
//! Every receiver states which shape it expects, and a message of the wrong
//! shape — a data reply without its body, a body where none belongs, a
//! frame header that is not exactly an index — is a typed error, never an
//! empty buffer. Byte counts (`Status::len`, link pacing) are header plus
//! body, which is exactly the length of the single-part frames
//! ([`encode_relay_frame`], an [`EventReply`] with the data inline) these
//! shapes replaced; the runtime no longer builds either for bulk data.

use crate::types::{BufferId, KernelId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{Bytes, CommId, Tag};

/// Tag reserved for new-event notifications received by the gate thread —
/// the only reserved tag: every other channel, a region execution's
/// completion channel included, is an event channel.
pub const CONTROL_TAG: Tag = Tag(0);

/// First tag usable by events: event tags are allocated upwards from here.
/// Tags 1 and 2 once named shared notice lanes and are left unused.
pub const FIRST_EVENT_TAG: u64 = 3;

/// The action a new event asks the destination node to perform. What a
/// libomptarget device plugin must implement — alloc, delete, submit,
/// retrieve, exchange, execute — are the [`TaskStep`]s of a [`Task`]; the
/// other kinds are the sending half of a worker-to-worker forward, the
/// collective relays, and the worker's own lifecycle.
///
/// [`Task`]: EventRequest::Task
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventRequest {
    /// Send the contents of `buffer` to worker `to` on the event channel
    /// (the sending half of a worker-to-worker forward).
    ExchangeSend { buffer: BufferId, to: NodeId },
    /// Run one whole task — its steps in order — on the destination node,
    /// producing a single reply when every step has finished — that reply
    /// and nothing else. Every head→worker buffer operation is one: a region
    /// task as the car of a [`TaskTrain`], which the worker answers the same
    /// way plus a completion notice; a release, a flush, a prefetch or a
    /// forward on its own.
    ///
    /// [`TaskTrain`]: EventRequest::TaskTrain
    Task(TaskSpec),
    /// Run several composite tasks bound for this node, batched into one
    /// tagged message (a *task train*) — how the
    /// [`crate::runtime::MpiBackend`] sends every target task, a train of
    /// one car included. The worker runs the cars strictly in order but
    /// replies **per car** on each car's own exclusive `(tag, communicator)`
    /// channel, exactly as if the cars had arrived as individual [`Task`]
    /// notifications: the typed error protocol, zombie-gate refusals, and
    /// fault blame all stay per task. After each car's reply — or its
    /// refusal, on a killed node — the worker posts a [`CompletionNotice`]
    /// on the envelope's own `(tag, communicator)`: the completion channel
    /// of the region execution that sent the train.
    ///
    /// [`Task`]: EventRequest::Task
    TaskTrain(Vec<TrainCar>),
    /// Receive one buffer as a chunked collective payload stream and relay
    /// each frame onward: the node receives `[frame index u64][payload]`
    /// frames on the event's exclusive channel **from any source** (the
    /// planned parent, or a rescue source after a relay died), stores the
    /// reassembled buffer, and forwards every newly seen frame to each
    /// listed child on the child's own event channel — so an interior node
    /// of a broadcast tree fans frame `i` onward while frame `i + 1` is
    /// still inbound. Duplicate frames (possible during re-sourcing) are
    /// forwarded at most once and written at most once; one typed reply to
    /// the head acknowledges the fully assembled buffer.
    RelayRecv { buffer: BufferId, total_bytes: u64, chunk_bytes: u64, children: Vec<RelayChild> },
    /// Stream a locally resident buffer as collective payload frames to the
    /// listed children (the feeding half of a worker-sourced broadcast tree,
    /// and the rescue path when a relay died: the head points a surviving
    /// holder at the orphaned recipients). Replies once all frames are on
    /// the wire.
    RelayFeed { buffer: BufferId, chunk_bytes: u64, children: Vec<RelayChild> },
    /// Clear the worker's device memory and acknowledge: the head issues
    /// this between workloads when recycling warm workers, so a parked
    /// worker pool starts the next device lifetime from an empty state.
    Reset,
    /// Leave the gate loop and terminate the worker.
    Shutdown,
    /// Kill the worker's event loop for real (failure injection): the node
    /// stops executing events and answers every later one with an error
    /// reply, so in-flight peers never hang on it. Only [`Shutdown`]
    /// terminates the gate loop afterwards.
    ///
    /// [`Shutdown`]: EventRequest::Shutdown
    Kill,
}

impl EventRequest {
    /// Short name used in traces and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            EventRequest::ExchangeSend { .. } => "exchange-send",
            EventRequest::Task(_) => "task",
            EventRequest::TaskTrain(_) => "task-train",
            EventRequest::RelayRecv { .. } => "relay-recv",
            EventRequest::RelayFeed { .. } => "relay-feed",
            EventRequest::Reset => "reset",
            EventRequest::Shutdown => "shutdown",
            EventRequest::Kill => "kill",
        }
    }
}

/// One downstream edge of a collective broadcast tree: where an
/// [`EventRequest::RelayRecv`] / [`EventRequest::RelayFeed`] node forwards
/// payload frames. The child's `(tag, comm)` is the **child's own** relay
/// event channel — frames from the parent and frames from a rescue source
/// land on the same exclusive channel, which is what lets a re-sourced
/// recipient stay oblivious to the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayChild {
    /// Destination node of the forwarded frames.
    pub node: NodeId,
    /// Tag of the child's relay event channel.
    pub tag: Tag,
    /// Communicator of the child's relay event channel.
    pub comm: CommId,
}

/// Number of frames a collective payload of `total_bytes` travels as:
/// `chunk_bytes == 0` means one whole-buffer frame, and a zero-length
/// buffer still travels as one (empty) frame so the receive loop always
/// terminates on a frame count.
pub fn relay_frame_count(total_bytes: u64, chunk_bytes: u64) -> u64 {
    if chunk_bytes == 0 || total_bytes == 0 {
        1
    } else {
        total_bytes.div_ceil(chunk_bytes)
    }
}

/// Serialize one frame of a chunked collective payload stream:
/// `[frame index u64 LE][payload bytes]`.
pub fn encode_relay_frame(index: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse one collective payload frame into `(frame index, payload)`.
pub fn decode_relay_frame(data: &[u8]) -> OmpcResult<(u64, Vec<u8>)> {
    let (index, payload) = data
        .split_first_chunk::<8>()
        .ok_or_else(|| OmpcError::Internal("truncated relay frame".to_string()))?;
    Ok((u64::from_le_bytes(*index), payload.to_vec()))
}

/// Header of one two-part collective frame: the frame index. The chunk
/// travels as the message body.
pub fn relay_frame_header(index: u64) -> Vec<u8> {
    index.to_le_bytes().to_vec()
}

/// Parse a two-part collective frame into `(frame index, chunk)`. The
/// header must be exactly the index and the chunk must be there: a header
/// that also carries bytes inline, or a frame without a body, is an error.
pub fn decode_relay_parts(header: &[u8], body: Option<Bytes>) -> OmpcResult<(u64, Bytes)> {
    let index: [u8; 8] = header.try_into().map_err(|_| {
        OmpcError::Internal(format!("relay frame header of {} bytes, not 8", header.len()))
    })?;
    let chunk = body.ok_or_else(|| OmpcError::Internal("relay frame without a body".into()))?;
    Ok((u64::from_le_bytes(index), chunk))
}

/// The buffer a host payload message carries: an empty header and the
/// contents as the body.
pub fn payload_body(header: &[u8], body: Option<Bytes>) -> OmpcResult<Bytes> {
    if !header.is_empty() {
        let n = header.len();
        return Err(OmpcError::Internal(format!("payload message with a {n}-byte header")));
    }
    body.ok_or_else(|| OmpcError::Internal("payload message without a body".into()))
}

/// One car of an [`EventRequest::TaskTrain`]: a complete composite task
/// with its own exclusive reply channel. Payloads for the car's
/// [`TaskStep::RecvFromHead`] steps travel on the car's `(tag, comm)`
/// channel — not the train's envelope channel — so batching changes only
/// how the *notification* travels, never the per-task message discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainCar {
    /// Tag of the car's exclusive channel (reply and payloads).
    pub tag: Tag,
    /// Communicator of the car's exclusive channel.
    pub comm: CommId,
    /// The composite task itself.
    pub spec: TaskSpec,
}

/// One step of a composite [`EventRequest::Task`], executed in order by the
/// destination node's event handler. Receive steps use the task's exclusive
/// `(tag, communicator)` channel; because MPI delivery is non-overtaking
/// per `(source, communicator, tag)`, several receives from the same source
/// arrive in step order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStep {
    /// Receive the contents of `buffer` from the head node on the event
    /// channel (the head sends the payload right after the notification).
    RecvFromHead { buffer: BufferId },
    /// Receive the contents of `buffer` from worker `from` on the event
    /// channel. The sender transmits a reply envelope — the data on
    /// success, its own error otherwise — exactly like the sending half of
    /// an [`EventRequest::ExchangeSend`], so a dead or failed source
    /// surfaces as a typed error in this task's reply instead of a hang.
    RecvFromWorker { buffer: BufferId, from: NodeId },
    /// Wait for the newest receive (or claim) of `buffer` the worker accepted
    /// before this task — an earlier car of the same region execution owns
    /// the transfer — to land, and fail with that receive's
    /// error if it failed. A stale copy already resident never satisfies
    /// the wait. `timeout_ms` is only a last-resort bound (`u64::MAX`: none).
    AwaitLocal { buffer: BufferId, timeout_ms: u64 },
    /// Ensure `size` zeroed bytes of device memory exist for `buffer` (a
    /// write-only output that nothing transferred in).
    Alloc { buffer: BufferId, size: u64 },
    /// Free the device memory of `buffer` (a no-op when absent). Deferred
    /// head-side maintenance — stale copies invalidated by a write,
    /// exit-data releases — rides composite tasks as prologue `Delete`
    /// steps instead of paying one synchronous event round-trip each.
    Delete { buffer: BufferId },
    /// Run `kernel` against the listed device buffers.
    Execute { kernel: KernelId, buffers: Vec<BufferId> },
    /// Send the resident `buffer` home as the task's reply body: the reply of
    /// a task with this step is data-bearing ([`Reply::from_parts`]).
    Retrieve { buffer: BufferId },
    /// After the kernel, send the resident `buffer` to worker `to` on the push channel
    /// `(tag, comm)`, as the sending half of an [`EventRequest::ExchangeSend`] would.
    Push { buffer: BufferId, to: NodeId, tag: Tag, comm: CommId },
    /// Receive the copy of `buffer` worker `from` pushed on `(tag, comm)`: queued before the
    /// head booked it, so the step never waits, and a missing one is a typed error.
    Claim { buffer: BufferId, from: NodeId, tag: Tag, comm: CommId },
    /// Drop what worker `from` pushed on `(tag, comm)` and nobody claimed.
    Discard { from: NodeId, tag: Tag, comm: CommId },
}

/// The recipe of one composite [`EventRequest::Task`]: the ordered steps
/// the destination node performs before sending the task's single typed
/// reply.
///
/// ```
/// use ompc_core::protocol::{EventNotification, EventRequest, TaskSpec, TaskStep};
/// use ompc_core::types::{BufferId, KernelId};
/// use ompc_mpi::{CommId, Tag};
///
/// let spec = TaskSpec {
///     steps: vec![
///         TaskStep::RecvFromHead { buffer: BufferId(1) },
///         TaskStep::RecvFromWorker { buffer: BufferId(2), from: 3 },
///         TaskStep::Execute { kernel: KernelId(0), buffers: vec![BufferId(1), BufferId(2)] },
///     ],
/// };
/// let n = EventNotification {
///     request: EventRequest::Task(spec),
///     tag: Tag(7),
///     comm: CommId(0),
///     timed: false,
/// };
/// assert_eq!(EventNotification::decode(&n.encode())?, n);
/// # Ok::<(), ompc_core::types::OmpcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// The steps, in execution order.
    pub steps: Vec<TaskStep>,
}

/// A complete new-event notification: the request plus the exclusive
/// channel (tag and communicator) the event will use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventNotification {
    /// What the destination must do.
    pub request: EventRequest,
    /// Tag all messages of this event are matched on.
    pub tag: Tag,
    /// Communicator all messages of this event travel on.
    pub comm: CommId,
    /// Whether the destination should capture telemetry timestamps while
    /// handling this event and ship them home in the reply (see
    /// [`TaskStamps`] / [`EventReply::OkTimed`]). Cars of an
    /// [`EventRequest::TaskTrain`] inherit the train envelope's flag. The
    /// worker reads no clock when this is `false`, keeping
    /// telemetry-off runs free of clock syscalls.
    pub timed: bool,
}

struct Writer(Vec<u8>);

impl Writer {
    fn new() -> Self {
        Self(Vec::with_capacity(64))
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
    /// A `u32` count and that many buffer ids ([`Reader::buffers`] reads it).
    fn buffers(&mut self, buffers: &[BufferId]) {
        self.u32(buffers.len() as u32);
        for b in buffers {
            self.u64(b.0);
        }
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }
    /// The next `n` bytes. Every read goes through here, so a length field
    /// taken off the wire can never index (or add) past the message.
    fn take(&mut self, n: usize) -> OmpcResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.data.len());
        let end = end.ok_or_else(|| OmpcError::Internal("truncated notification".to_string()))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    /// The next `N` bytes as an array: a fixed-width field.
    fn take_array<const N: usize>(&mut self) -> OmpcResult<[u8; N]> {
        let bytes = self.take(N)?;
        bytes.try_into().map_err(|_| OmpcError::Internal("truncated notification".to_string()))
    }
    fn u8(&mut self) -> OmpcResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> OmpcResult<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }
    fn u64(&mut self) -> OmpcResult<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
    fn string(&mut self) -> OmpcResult<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| OmpcError::Internal("non-UTF-8 string in reply".to_string()))
    }
    /// A `u32` element count and that many elements, each at least
    /// `min_bytes` long on the wire. Room is reserved only for as many as
    /// the rest of the message could hold: a forged count is a truncation
    /// error at the first missing element, never an allocation.
    fn list<T>(
        &mut self,
        min_bytes: usize,
        mut element: impl FnMut(&mut Self) -> OmpcResult<T>,
    ) -> OmpcResult<Vec<T>> {
        let n = self.u32()? as usize;
        let mut elements = Vec::with_capacity(n.min((self.data.len() - self.pos) / min_bytes));
        for _ in 0..n {
            elements.push(element(self)?);
        }
        Ok(elements)
    }
    fn buffers(&mut self) -> OmpcResult<Vec<BufferId>> {
        self.list(8, |r| Ok(BufferId(r.u64()?)))
    }
    fn steps(&mut self) -> OmpcResult<Vec<TaskStep>> {
        self.list(9, decode_step)
    }
    fn channel(&mut self) -> OmpcResult<(NodeId, Tag, CommId)> {
        Ok((self.u64()? as NodeId, Tag(self.u64()?), CommId(self.u32()?)))
    }
    fn rest(&mut self) -> Vec<u8> {
        let rest = self.data.get(self.pos..).unwrap_or_default().to_vec();
        self.pos = self.data.len();
        rest
    }
}

// 1–4, 6 and 13 were the single-purpose `Alloc`, `Delete`, `Submit`,
// `Retrieve`, `ExchangeRecv` and `SubmitTrain` events, and 7 a bare `Execute`:
// each is a step of a `Task` now.
const KIND_EXCHANGE_SEND: u8 = 5;
const KIND_SHUTDOWN: u8 = 8;
const KIND_KILL: u8 = 9;
const KIND_TASK: u8 = 10;
const KIND_TASK_TRAIN: u8 = 11;
const KIND_RESET: u8 = 12;
const KIND_RELAY_RECV: u8 = 14;
const KIND_RELAY_FEED: u8 = 15;

fn encode_children(w: &mut Writer, children: &[RelayChild]) {
    w.u32(children.len() as u32);
    for child in children {
        w.u32(child.node as u32);
        w.u64(child.tag.0);
        w.u32(child.comm.0);
    }
}

fn decode_children(r: &mut Reader<'_>) -> OmpcResult<Vec<RelayChild>> {
    r.list(16, |r| {
        Ok(RelayChild { node: r.u32()? as NodeId, tag: Tag(r.u64()?), comm: CommId(r.u32()?) })
    })
}

const STEP_RECV_FROM_HEAD: u8 = 1;
const STEP_RECV_FROM_WORKER: u8 = 2;
const STEP_AWAIT_LOCAL: u8 = 3;
const STEP_ALLOC: u8 = 4;
const STEP_EXECUTE: u8 = 5;
const STEP_DELETE: u8 = 6;
const STEP_PUSH: u8 = 7;
const STEP_CLAIM: u8 = 8;
const STEP_DISCARD: u8 = 9;
const STEP_RETRIEVE: u8 = 10;

/// A worker, then a `(tag, communicator)` channel.
fn encode_channel(w: &mut Writer, node: NodeId, tag: Tag, comm: CommId) {
    w.u64(node as u64);
    w.u64(tag.0);
    w.u32(comm.0);
}

fn encode_step(w: &mut Writer, step: &TaskStep) {
    match step {
        TaskStep::RecvFromHead { buffer } => {
            w.u8(STEP_RECV_FROM_HEAD);
            w.u64(buffer.0);
        }
        TaskStep::RecvFromWorker { buffer, from } => {
            w.u8(STEP_RECV_FROM_WORKER);
            w.u64(buffer.0);
            w.u64(*from as u64);
        }
        TaskStep::AwaitLocal { buffer, timeout_ms } => {
            w.u8(STEP_AWAIT_LOCAL);
            w.u64(buffer.0);
            w.u64(*timeout_ms);
        }
        TaskStep::Alloc { buffer, size } => {
            w.u8(STEP_ALLOC);
            w.u64(buffer.0);
            w.u64(*size);
        }
        TaskStep::Delete { buffer } | TaskStep::Retrieve { buffer } => {
            w.u8(if matches!(step, TaskStep::Delete { .. }) { STEP_DELETE } else { STEP_RETRIEVE });
            w.u64(buffer.0);
        }
        TaskStep::Execute { kernel, buffers } => {
            w.u8(STEP_EXECUTE);
            w.u64(kernel.0 as u64);
            w.buffers(buffers);
        }
        TaskStep::Push { buffer, to: node, tag, comm }
        | TaskStep::Claim { buffer, from: node, tag, comm } => {
            w.u8(if matches!(step, TaskStep::Push { .. }) { STEP_PUSH } else { STEP_CLAIM });
            w.u64(buffer.0);
            encode_channel(w, *node, *tag, *comm);
        }
        TaskStep::Discard { from, tag, comm } => {
            w.u8(STEP_DISCARD);
            encode_channel(w, *from, *tag, *comm);
        }
    }
}

fn decode_step(r: &mut Reader<'_>) -> OmpcResult<TaskStep> {
    Ok(match r.u8()? {
        STEP_RECV_FROM_HEAD => TaskStep::RecvFromHead { buffer: BufferId(r.u64()?) },
        STEP_RECV_FROM_WORKER => {
            TaskStep::RecvFromWorker { buffer: BufferId(r.u64()?), from: r.u64()? as NodeId }
        }
        STEP_AWAIT_LOCAL => {
            TaskStep::AwaitLocal { buffer: BufferId(r.u64()?), timeout_ms: r.u64()? }
        }
        STEP_ALLOC => TaskStep::Alloc { buffer: BufferId(r.u64()?), size: r.u64()? },
        STEP_DELETE => TaskStep::Delete { buffer: BufferId(r.u64()?) },
        STEP_RETRIEVE => TaskStep::Retrieve { buffer: BufferId(r.u64()?) },
        STEP_EXECUTE => {
            TaskStep::Execute { kernel: KernelId(r.u64()? as usize), buffers: r.buffers()? }
        }
        STEP_PUSH => {
            let (buffer, (to, tag, comm)) = (BufferId(r.u64()?), r.channel()?);
            TaskStep::Push { buffer, to, tag, comm }
        }
        STEP_CLAIM => {
            let (buffer, (from, tag, comm)) = (BufferId(r.u64()?), r.channel()?);
            TaskStep::Claim { buffer, from, tag, comm }
        }
        STEP_DISCARD => {
            let (from, tag, comm) = r.channel()?;
            TaskStep::Discard { from, tag, comm }
        }
        other => return Err(OmpcError::Internal(format!("unknown task step kind {other}"))),
    })
}

impl EventNotification {
    /// Serialize the notification for transmission on the control tag.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.tag.0);
        w.u32(self.comm.0);
        w.u8(self.timed as u8);
        match &self.request {
            EventRequest::ExchangeSend { buffer, to } => {
                w.u8(KIND_EXCHANGE_SEND);
                w.u64(buffer.0);
                w.u64(*to as u64);
            }
            EventRequest::Task(spec) => {
                w.u8(KIND_TASK);
                w.u32(spec.steps.len() as u32);
                for step in &spec.steps {
                    encode_step(&mut w, step);
                }
            }
            EventRequest::TaskTrain(cars) => {
                w.u8(KIND_TASK_TRAIN);
                w.u32(cars.len() as u32);
                for car in cars {
                    w.u64(car.tag.0);
                    w.u32(car.comm.0);
                    w.u32(car.spec.steps.len() as u32);
                    for step in &car.spec.steps {
                        encode_step(&mut w, step);
                    }
                }
            }
            EventRequest::RelayRecv { buffer, total_bytes, chunk_bytes, children } => {
                w.u8(KIND_RELAY_RECV);
                w.u64(buffer.0);
                w.u64(*total_bytes);
                w.u64(*chunk_bytes);
                encode_children(&mut w, children);
            }
            EventRequest::RelayFeed { buffer, chunk_bytes, children } => {
                w.u8(KIND_RELAY_FEED);
                w.u64(buffer.0);
                w.u64(*chunk_bytes);
                encode_children(&mut w, children);
            }
            EventRequest::Reset => {
                w.u8(KIND_RESET);
            }
            EventRequest::Shutdown => {
                w.u8(KIND_SHUTDOWN);
            }
            EventRequest::Kill => {
                w.u8(KIND_KILL);
            }
        }
        w.0
    }

    /// Parse a notification received on the control tag.
    pub fn decode(data: &[u8]) -> OmpcResult<Self> {
        let mut r = Reader::new(data);
        let tag = Tag(r.u64()?);
        let comm = CommId(r.u32()?);
        let timed = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(OmpcError::Internal(format!("unknown timed flag {other}")));
            }
        };
        let kind = r.u8()?;
        let request = match kind {
            KIND_EXCHANGE_SEND => {
                EventRequest::ExchangeSend { buffer: BufferId(r.u64()?), to: r.u64()? as NodeId }
            }
            KIND_TASK => EventRequest::Task(TaskSpec { steps: r.steps()? }),
            KIND_TASK_TRAIN => EventRequest::TaskTrain(r.list(16, |r| {
                let (tag, comm) = (Tag(r.u64()?), CommId(r.u32()?));
                Ok(TrainCar { tag, comm, spec: TaskSpec { steps: r.steps()? } })
            })?),
            KIND_RELAY_RECV => EventRequest::RelayRecv {
                buffer: BufferId(r.u64()?),
                total_bytes: r.u64()?,
                chunk_bytes: r.u64()?,
                children: decode_children(&mut r)?,
            },
            KIND_RELAY_FEED => EventRequest::RelayFeed {
                buffer: BufferId(r.u64()?),
                chunk_bytes: r.u64()?,
                children: decode_children(&mut r)?,
            },
            KIND_RESET => EventRequest::Reset,
            KIND_SHUTDOWN => EventRequest::Shutdown,
            KIND_KILL => EventRequest::Kill,
            other => {
                return Err(OmpcError::Internal(format!("unknown event kind {other}")));
            }
        };
        Ok(Self { request, tag, comm, timed })
    }
}

/// Worker-side timestamps of one composite task, captured on the worker
/// thread when the event envelope carried the `timed` flag and shipped home
/// inside the typed reply ([`EventReply::OkTimed`]). All values are
/// microseconds on the process-global monotonic telemetry clock
/// ([`crate::runtime::telemetry::monotonic_us`]) — workers are threads of
/// the head's process, so these stamps compare directly with head-side
/// span stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskStamps {
    /// When the handler picked the event up (gate hand-off complete).
    pub recv_us: u64,
    /// When the task's data-movement steps (receives, awaits, allocs)
    /// finished and the kernel was ready to run — for a task without a
    /// kernel, when its last step finished.
    pub deps_us: u64,
    /// When the kernel body started.
    pub exec_start_us: u64,
    /// When the kernel body finished.
    pub exec_end_us: u64,
}

impl TaskStamps {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.recv_us);
        w.u64(self.deps_us);
        w.u64(self.exec_start_us);
        w.u64(self.exec_end_us);
    }

    fn decode(r: &mut Reader<'_>) -> OmpcResult<Self> {
        Ok(Self {
            recv_us: r.u64()?,
            deps_us: r.u64()?,
            exec_start_us: r.u64()?,
            exec_end_us: r.u64()?,
        })
    }
}

/// Status byte of a successful [`EventReply`].
const REPLY_OK: u8 = 0;
/// Status byte of a failed [`EventReply`].
const REPLY_ERR: u8 = 1;
/// Status byte of a successful reply carrying worker-side [`TaskStamps`].
const REPLY_OK_TIMED: u8 = 2;

const ERR_UNKNOWN_BUFFER: u8 = 1;
const ERR_UNKNOWN_KERNEL: u8 = 2;
const ERR_REGION_ALREADY_RUN: u8 = 3;
const ERR_COMMUNICATION: u8 = 4;
const ERR_NODE_FAILURE: u8 = 5;
const ERR_INVALID_CONFIG: u8 = 6;
const ERR_SHUT_DOWN: u8 = 7;
const ERR_INTERNAL: u8 = 8;
const ERR_REMOTE_EVENT: u8 = 9;

fn encode_error(w: &mut Writer, error: &OmpcError) {
    match error {
        OmpcError::UnknownBuffer(b) => {
            w.u8(ERR_UNKNOWN_BUFFER);
            w.u64(b.0);
        }
        OmpcError::UnknownKernel(k) => {
            w.u8(ERR_UNKNOWN_KERNEL);
            w.u64(k.0 as u64);
        }
        OmpcError::RegionAlreadyRun => w.u8(ERR_REGION_ALREADY_RUN),
        OmpcError::Communication(m) => {
            w.u8(ERR_COMMUNICATION);
            w.string(m);
        }
        OmpcError::NodeFailure(n) => {
            w.u8(ERR_NODE_FAILURE);
            w.u64(*n as u64);
        }
        OmpcError::InvalidConfig(m) => {
            w.u8(ERR_INVALID_CONFIG);
            w.string(m);
        }
        OmpcError::ShutDown => w.u8(ERR_SHUT_DOWN),
        OmpcError::Internal(m) => {
            w.u8(ERR_INTERNAL);
            w.string(m);
        }
        OmpcError::RemoteEvent { node, event, error } => {
            w.u8(ERR_REMOTE_EVENT);
            w.u64(*node as u64);
            w.u64(*event);
            encode_error(w, error);
        }
    }
}

/// Deepest [`OmpcError::RemoteEvent`] nesting a reply may carry. The runtime
/// wraps an error once per hop it travels (handler, exchange receiver, tree
/// relay), so real replies nest a handful deep; the bound keeps a forged
/// one from recursing the decoder off its stack.
const MAX_ERROR_NESTING: usize = 32;

fn decode_error(r: &mut Reader<'_>, depth: usize) -> OmpcResult<OmpcError> {
    Ok(match r.u8()? {
        ERR_UNKNOWN_BUFFER => OmpcError::UnknownBuffer(BufferId(r.u64()?)),
        ERR_UNKNOWN_KERNEL => OmpcError::UnknownKernel(KernelId(r.u64()? as usize)),
        ERR_REGION_ALREADY_RUN => OmpcError::RegionAlreadyRun,
        ERR_COMMUNICATION => OmpcError::Communication(r.string()?),
        ERR_NODE_FAILURE => OmpcError::NodeFailure(r.u64()? as NodeId),
        ERR_INVALID_CONFIG => OmpcError::InvalidConfig(r.string()?),
        ERR_SHUT_DOWN => OmpcError::ShutDown,
        ERR_INTERNAL => OmpcError::Internal(r.string()?),
        ERR_REMOTE_EVENT if depth < MAX_ERROR_NESTING => OmpcError::RemoteEvent {
            node: r.u64()? as NodeId,
            event: r.u64()?,
            error: Box::new(decode_error(r, depth + 1)?),
        },
        ERR_REMOTE_EVENT => {
            let bound = format!("error reply nested deeper than {MAX_ERROR_NESTING} events");
            return Err(OmpcError::Internal(bound));
        }
        other => return Err(OmpcError::Internal(format!("unknown error code {other}"))),
    })
}

/// The typed reply every dispatched event produces on its exclusive
/// channel: the success payload (completion data, byte counts, or empty),
/// or the error the destination's handler raised. Workers wrap handler
/// errors as [`OmpcError::RemoteEvent`] before replying, so the head node
/// always learns *which* node and *which* event failed.
///
/// ```
/// use ompc_core::protocol::EventReply;
/// use ompc_core::types::{BufferId, OmpcError};
///
/// let ok = EventReply::Ok(vec![1, 2, 3]);
/// assert_eq!(EventReply::decode(&ok.encode())?, ok);
///
/// let err = EventReply::Err(OmpcError::RemoteEvent {
///     node: 2,
///     event: 41,
///     error: Box::new(OmpcError::UnknownBuffer(BufferId(7))),
/// });
/// let decoded = EventReply::decode(&err.encode())?;
/// assert_eq!(decoded.into_result().err().and_then(|e| e.origin_node()), Some(2));
/// # Ok::<(), OmpcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventReply {
    /// The event completed; the payload is event-specific (often empty).
    Ok(Vec<u8>),
    /// The event completed and the notification's `timed` flag was set:
    /// the payload is preceded by the worker-side [`TaskStamps`]. Origins
    /// that don't care ([`EventReply::into_result`]) see it as a plain
    /// success.
    OkTimed(TaskStamps, Vec<u8>),
    /// The event failed on the destination node.
    Err(OmpcError),
}

impl EventReply {
    /// Serialize for transmission on the event channel.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            EventReply::Ok(payload) => {
                w.u8(REPLY_OK);
                w.bytes(payload);
            }
            EventReply::OkTimed(stamps, payload) => {
                w.u8(REPLY_OK_TIMED);
                stamps.encode(&mut w);
                w.bytes(payload);
            }
            EventReply::Err(error) => {
                w.u8(REPLY_ERR);
                encode_error(&mut w, error);
            }
        }
        w.0
    }

    /// Parse a reply received on an event channel.
    pub fn decode(data: &[u8]) -> OmpcResult<Self> {
        let mut r = Reader::new(data);
        match r.u8()? {
            REPLY_OK => Ok(EventReply::Ok(r.rest())),
            REPLY_OK_TIMED => {
                let stamps = TaskStamps::decode(&mut r)?;
                Ok(EventReply::OkTimed(stamps, r.rest()))
            }
            REPLY_ERR => Ok(EventReply::Err(decode_error(&mut r, 0)?)),
            other => Err(OmpcError::Internal(format!("unknown reply status {other}"))),
        }
    }

    /// Convert into the `Result` the origin side consumes. Worker stamps,
    /// if any, are dropped — use [`EventReply::into_timed_result`] to keep
    /// them.
    pub fn into_result(self) -> OmpcResult<Vec<u8>> {
        self.into_timed_result().map(|(payload, _)| payload)
    }

    /// Convert into the origin-side `Result`, preserving the worker-side
    /// stamps of an [`EventReply::OkTimed`].
    pub fn into_timed_result(self) -> OmpcResult<(Vec<u8>, Option<TaskStamps>)> {
        match self {
            EventReply::Ok(payload) => Ok((payload, None)),
            EventReply::OkTimed(stamps, payload) => Ok((payload, Some(stamps))),
            EventReply::Err(error) => Err(error),
        }
    }
}

/// A successful reply in the two parts it travels as: what the header
/// carries inline, and the body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reply {
    /// The small inline payload (a byte-count acknowledgement; often empty).
    pub inline: Vec<u8>,
    /// The buffer a data-bearing reply carries (a retrieve, the sending
    /// half of a worker-to-worker forward).
    pub body: Option<Bytes>,
    /// Worker-side stamps, when the event was timed.
    pub stamps: Option<TaskStamps>,
}

impl Reply {
    /// The reply whose body is `data`.
    pub fn data(data: Bytes) -> Self {
        Self { body: Some(data), ..Self::default() }
    }

    /// Split into the message parts: the [`EventReply`] header and the body.
    pub fn into_parts(self) -> (Vec<u8>, Option<Bytes>) {
        let header = match self.stamps {
            Some(stamps) => EventReply::OkTimed(stamps, self.inline),
            None => EventReply::Ok(self.inline),
        };
        (header.encode(), self.body)
    }

    /// Decode a received reply. `data_bearing` is what the origin asked for:
    /// a reply that *is* a buffer must carry it as the body and nothing
    /// inline; any other reply must carry no body. The destination's typed
    /// error comes back as `Err` either way.
    pub fn from_parts(header: &[u8], body: Option<Bytes>, data_bearing: bool) -> OmpcResult<Self> {
        let (inline, stamps) = EventReply::decode(header)?.into_timed_result()?;
        let shape = |what: &str| Err(OmpcError::Internal(format!("malformed reply: {what}")));
        match (data_bearing, &body) {
            (true, None) => shape("a data-bearing reply without its body"),
            (true, Some(_)) if !inline.is_empty() => shape("data both inline and as the body"),
            (false, Some(_)) => shape("a body on a reply that takes none"),
            _ => Ok(Self { inline, body, stamps }),
        }
    }
}

/// The compact notice a worker posts on a task train's envelope channel —
/// the completion channel of the region execution that sent it — after
/// sending a car's reply: just the finished car's event tag and its
/// outcome. The reply itself (payload or typed error) is already sitting in
/// the head's mailbox on the car's exclusive channel — sends are eager — so
/// the head turns a notice into the full reply with one guaranteed-ready
/// receive instead of probing every in-flight task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionNotice {
    /// Event tag of the finished composite task.
    pub tag: Tag,
    /// Whether the task's reply is `Ok` (informational; the reply is
    /// authoritative).
    pub ok: bool,
}

impl CompletionNotice {
    /// Serialize for transmission on a completion channel.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.tag.0);
        w.u8(self.ok as u8);
        w.0
    }

    /// Parse a notice received on a completion channel.
    pub fn decode(data: &[u8]) -> OmpcResult<Self> {
        let mut r = Reader::new(data);
        let tag = Tag(r.u64()?);
        let ok = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(OmpcError::Internal(format!("unknown notice status {other}")));
            }
        };
        Ok(Self { tag, ok })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(request: EventRequest) {
        for timed in [false, true] {
            let n = EventNotification {
                request: request.clone(),
                tag: Tag(42),
                comm: CommId(3),
                timed,
            };
            let decoded = EventNotification::decode(&n.encode()).unwrap();
            assert_eq!(decoded, n);
        }
    }

    #[test]
    fn all_event_kinds_round_trip() {
        for count in [0, 1, 300] {
            let steps = (0..count).map(|b| TaskStep::Delete { buffer: BufferId(b) }).collect();
            round_trip(EventRequest::Task(TaskSpec { steps }));
        }
        round_trip(EventRequest::Task(TaskSpec {
            steps: vec![TaskStep::Retrieve { buffer: BufferId(2) }],
        }));
        round_trip(EventRequest::ExchangeSend { buffer: BufferId(3), to: 5 });
        round_trip(EventRequest::Task(TaskSpec {
            steps: vec![TaskStep::Execute {
                kernel: KernelId(9),
                buffers: vec![BufferId(1), BufferId(2), BufferId(3)],
            }],
        }));
        round_trip(EventRequest::Shutdown);
        round_trip(EventRequest::Kill);
    }

    #[test]
    fn composite_task_round_trips_every_step_kind() {
        round_trip(EventRequest::Task(TaskSpec { steps: vec![] }));
        round_trip(EventRequest::Task(TaskSpec {
            steps: vec![
                TaskStep::Delete { buffer: BufferId(9) },
                TaskStep::RecvFromHead { buffer: BufferId(1) },
                TaskStep::RecvFromWorker { buffer: BufferId(2), from: 4 },
                TaskStep::AwaitLocal { buffer: BufferId(3), timeout_ms: 60_000 },
                TaskStep::Alloc { buffer: BufferId(4), size: 4096 },
                TaskStep::Execute {
                    kernel: KernelId(7),
                    buffers: vec![BufferId(1), BufferId(2), BufferId(3), BufferId(4)],
                },
                TaskStep::Push { buffer: BufferId(4), to: 2, tag: Tag(40), comm: CommId(1) },
                TaskStep::Claim { buffer: BufferId(5), from: 3, tag: Tag(41), comm: CommId(0) },
                TaskStep::Discard { from: 3, tag: Tag(u64::MAX), comm: CommId(u32::MAX) },
                TaskStep::Retrieve { buffer: BufferId(u64::MAX) },
            ],
        }));
    }

    #[test]
    fn task_train_round_trips_with_per_car_channels() {
        round_trip(EventRequest::TaskTrain(vec![]));
        round_trip(EventRequest::Reset);
        round_trip(EventRequest::TaskTrain(vec![
            TrainCar {
                tag: Tag(11),
                comm: CommId(1),
                spec: TaskSpec {
                    steps: vec![
                        TaskStep::RecvFromHead { buffer: BufferId(1) },
                        TaskStep::Execute { kernel: KernelId(2), buffers: vec![BufferId(1)] },
                    ],
                },
            },
            TrainCar {
                tag: Tag(12),
                comm: CommId(0),
                spec: TaskSpec { steps: vec![TaskStep::Alloc { buffer: BufferId(4), size: 64 }] },
            },
        ]));
    }

    /// A prefetch train is a task of `RecvFromHead` steps.
    #[test]
    fn submit_train_round_trips_and_rejects_truncation() {
        let train = |buffers: &[u64]| {
            let steps = buffers.iter().map(|&b| TaskStep::RecvFromHead { buffer: BufferId(b) });
            EventRequest::Task(TaskSpec { steps: steps.collect() })
        };
        round_trip(train(&[]));
        round_trip(train(&[3, 1, u64::MAX]));
        let n = EventNotification {
            request: train(&[5, 6]),
            tag: Tag(20),
            comm: CommId(1),
            timed: false,
        };
        let bytes = n.encode();
        for cut in 1..bytes.len() {
            assert!(EventNotification::decode(&bytes[..bytes.len() - cut]).is_err());
        }
        assert_eq!(n.request.name(), "task");
    }

    #[test]
    fn relay_events_round_trip_and_reject_truncation() {
        round_trip(EventRequest::RelayRecv {
            buffer: BufferId(5),
            total_bytes: 1 << 20,
            chunk_bytes: 64 * 1024,
            children: vec![],
        });
        round_trip(EventRequest::RelayFeed {
            buffer: BufferId(2),
            chunk_bytes: 0,
            children: vec![RelayChild { node: 3, tag: Tag(91), comm: CommId(1) }],
        });
        let n = EventNotification {
            request: EventRequest::RelayRecv {
                buffer: BufferId(7),
                total_bytes: 4096,
                chunk_bytes: 1024,
                children: vec![
                    RelayChild { node: 2, tag: Tag(40), comm: CommId(0) },
                    RelayChild { node: 4, tag: Tag(41), comm: CommId(1) },
                ],
            },
            tag: Tag(39),
            comm: CommId(1),
            timed: false,
        };
        let bytes = n.encode();
        assert_eq!(EventNotification::decode(&bytes).unwrap(), n);
        for cut in 1..bytes.len() {
            assert!(EventNotification::decode(&bytes[..bytes.len() - cut]).is_err());
        }
        let f = EventNotification {
            request: EventRequest::RelayFeed {
                buffer: BufferId(7),
                chunk_bytes: 1024,
                children: vec![RelayChild { node: 2, tag: Tag(40), comm: CommId(0) }],
            },
            tag: Tag(44),
            comm: CommId(0),
            timed: false,
        };
        let bytes = f.encode();
        assert_eq!(EventNotification::decode(&bytes).unwrap(), f);
        for cut in 1..bytes.len() {
            assert!(EventNotification::decode(&bytes[..bytes.len() - cut]).is_err());
        }
        assert_eq!(n.request.name(), "relay-recv");
        assert_eq!(f.request.name(), "relay-feed");
    }

    #[test]
    fn relay_frames_round_trip_and_count_correctly() {
        let frame = encode_relay_frame(3, &[9, 8, 7]);
        assert_eq!(decode_relay_frame(&frame).unwrap(), (3, vec![9, 8, 7]));
        // An empty payload is legal (zero-length buffers still broadcast).
        let empty = encode_relay_frame(0, &[]);
        assert_eq!(decode_relay_frame(&empty).unwrap(), (0, vec![]));
        // Anything shorter than the index header is rejected.
        assert!(decode_relay_frame(&frame[..7]).is_err());
        assert!(decode_relay_frame(&[]).is_err());
        // Frame counts: whole-buffer when unchunked, ceil-div otherwise,
        // and always at least one so receivers terminate.
        assert_eq!(relay_frame_count(1 << 20, 0), 1);
        assert_eq!(relay_frame_count(0, 4096), 1);
        assert_eq!(relay_frame_count(4096, 4096), 1);
        assert_eq!(relay_frame_count(4097, 4096), 2);
        assert_eq!(relay_frame_count(3 * 4096, 4096), 3);
    }

    #[test]
    fn truncated_task_train_is_an_error() {
        let n = EventNotification {
            request: EventRequest::TaskTrain(vec![TrainCar {
                tag: Tag(9),
                comm: CommId(0),
                spec: TaskSpec { steps: vec![TaskStep::Delete { buffer: BufferId(3) }] },
            }]),
            tag: Tag(9),
            comm: CommId(0),
            timed: false,
        };
        let bytes = n.encode();
        for cut in 1..bytes.len() {
            assert!(EventNotification::decode(&bytes[..bytes.len() - cut]).is_err());
        }
    }

    #[test]
    fn completion_notices_round_trip_and_reject_garbage() {
        for notice in [
            CompletionNotice { tag: Tag(2), ok: true },
            CompletionNotice { tag: Tag(u64::MAX), ok: false },
        ] {
            assert_eq!(CompletionNotice::decode(&notice.encode()).unwrap(), notice);
        }
        assert!(CompletionNotice::decode(&[]).is_err());
        assert!(CompletionNotice::decode(&[0; 8]).is_err());
        let mut bad = CompletionNotice { tag: Tag(1), ok: true }.encode();
        bad[8] = 7;
        assert!(CompletionNotice::decode(&bad).is_err());
    }

    #[test]
    fn control_tag_is_reserved_below_the_event_range() {
        // Evaluated through a binding so the reservation reads as a
        // runtime check without tripping clippy's const-assert lint.
        let first_event = FIRST_EVENT_TAG;
        assert!(CONTROL_TAG.0 < first_event);
    }

    #[test]
    fn truncated_task_spec_is_an_error() {
        let n = EventNotification {
            request: EventRequest::Task(TaskSpec {
                steps: vec![TaskStep::Alloc { buffer: BufferId(1), size: 64 }],
            }),
            tag: Tag(5),
            comm: CommId(0),
            timed: false,
        };
        let bytes = n.encode();
        assert!(EventNotification::decode(&bytes[..bytes.len() - 1]).is_err());
        // Corrupt the step kind.
        let mut bad = bytes.clone();
        let step_kind_pos = bad.len() - 17; // step kind byte before two u64 operands
        bad[step_kind_pos] = 99;
        assert!(EventNotification::decode(&bad).is_err());
    }

    #[test]
    fn replies_round_trip_ok_and_err() {
        for reply in [
            EventReply::Ok(Vec::new()),
            EventReply::Ok(vec![0, 1, 2, 255]),
            EventReply::Err(OmpcError::UnknownBuffer(BufferId(9))),
            EventReply::Err(OmpcError::UnknownKernel(KernelId(3))),
            EventReply::Err(OmpcError::NodeFailure(4)),
            EventReply::Err(OmpcError::ShutDown),
            EventReply::Err(OmpcError::RegionAlreadyRun),
            EventReply::Err(OmpcError::Communication("lost".to_string())),
            EventReply::Err(OmpcError::InvalidConfig("bad".to_string())),
            EventReply::Err(OmpcError::Internal("oops".to_string())),
            EventReply::Err(OmpcError::RemoteEvent {
                node: 3,
                event: 77,
                error: Box::new(OmpcError::UnknownKernel(KernelId(12))),
            }),
        ] {
            assert_eq!(EventReply::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn truncated_or_garbage_reply_is_an_error() {
        assert!(EventReply::decode(&[]).is_err());
        assert!(EventReply::decode(&[9]).is_err());
        let err = EventReply::Err(OmpcError::Internal("x".to_string())).encode();
        assert!(EventReply::decode(&err[..err.len() - 1]).is_err());
    }

    /// A forged element count must not size an allocation: this 18-byte
    /// notification — a task of `u32::MAX` steps — used to abort the process
    /// reserving 128 GiB before reading a single step. The same holds for a
    /// train of `u32::MAX` cars, and for a task whose one real step — a
    /// push, a claim, a discard, a retrieve — claims 4 billion siblings.
    #[test]
    fn a_forged_element_count_is_a_truncation_error_not_an_allocation() {
        for kind in [KIND_TASK, KIND_TASK_TRAIN] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&7u64.to_le_bytes()); // tag
            bytes.extend_from_slice(&0u32.to_le_bytes()); // comm
            bytes.extend_from_slice(&[0, kind]); // untimed
            bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // ... of 4 billion elements
            assert_eq!(bytes.len(), 18);
            assert!(matches!(EventNotification::decode(&bytes), Err(OmpcError::Internal(_))));
        }
        let (tag, comm) = (Tag(9), CommId(1));
        for step in [
            TaskStep::Push { buffer: BufferId(3), to: 2, tag, comm },
            TaskStep::Claim { buffer: BufferId(3), from: 1, tag, comm },
            TaskStep::Discard { from: 1, tag, comm },
            TaskStep::Retrieve { buffer: BufferId(3) },
        ] {
            let task = EventRequest::Task(TaskSpec { steps: vec![step] });
            let mut bytes = EventNotification { request: task, tag, comm, timed: false }.encode();
            bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes()); // the step count
            assert!(matches!(EventNotification::decode(&bytes), Err(OmpcError::Internal(_))));
        }
    }

    /// `levels` nested remote-event errors around a `ShutDown`, as a reply.
    fn nested_error_reply(levels: usize) -> Vec<u8> {
        let mut bytes = vec![REPLY_ERR];
        for level in 0..levels {
            bytes.push(ERR_REMOTE_EVENT);
            bytes.extend_from_slice(&2u64.to_le_bytes());
            bytes.extend_from_slice(&(level as u64).to_le_bytes());
        }
        bytes.push(ERR_SHUT_DOWN);
        bytes
    }

    /// A forged reply must not recurse the decoder off its stack: 100 000
    /// nestings (1.7 MB) used to overflow it.
    #[test]
    fn error_nesting_is_bounded() {
        assert!(EventReply::decode(&nested_error_reply(100_000)).is_err());
        assert!(EventReply::decode(&nested_error_reply(MAX_ERROR_NESTING + 1)).is_err());
        let deepest = EventReply::decode(&nested_error_reply(MAX_ERROR_NESTING)).unwrap();
        assert_eq!(deepest.encode(), nested_error_reply(MAX_ERROR_NESTING));
        assert_eq!(deepest.into_result().unwrap_err().root_cause(), &OmpcError::ShutDown);
    }

    use ompc_testutil::Rng;

    fn arb_buffers(rng: &mut Rng) -> Vec<BufferId> {
        (0..rng.range(0, 5)).map(|_| BufferId(rng.next_u64())).collect()
    }

    fn arb_steps(rng: &mut Rng) -> Vec<TaskStep> {
        let step = |rng: &mut Rng| {
            let buffer = BufferId(rng.next_u64());
            let node = rng.range_usize(0, 1 << 20);
            let (tag, comm) = (Tag(rng.next_u64()), CommId(rng.next_u64() as u32));
            match rng.range(0, 10) {
                0 => TaskStep::RecvFromHead { buffer },
                1 => TaskStep::RecvFromWorker { buffer, from: node },
                2 => TaskStep::AwaitLocal { buffer, timeout_ms: rng.next_u64() },
                3 => TaskStep::Alloc { buffer, size: rng.next_u64() },
                4 => TaskStep::Delete { buffer },
                5 => TaskStep::Push { buffer, to: node, tag, comm },
                6 => TaskStep::Claim { buffer, from: node, tag, comm },
                7 => TaskStep::Discard { from: node, tag, comm },
                8 => TaskStep::Retrieve { buffer },
                _ => TaskStep::Execute { kernel: KernelId(node), buffers: arb_buffers(rng) },
            }
        };
        (0..rng.range(0, 5)).map(|_| step(rng)).collect()
    }

    fn arb_children(rng: &mut Rng) -> Vec<RelayChild> {
        let child = |rng: &mut Rng| RelayChild {
            node: rng.range_usize(0, 1 << 20),
            tag: Tag(rng.next_u64()),
            comm: CommId(rng.next_u64() as u32),
        };
        (0..rng.range(0, 5)).map(|_| child(rng)).collect()
    }

    /// Every wire kind there is.
    const KINDS: [u8; 8] = [
        KIND_EXCHANGE_SEND,
        KIND_SHUTDOWN,
        KIND_KILL,
        KIND_TASK,
        KIND_TASK_TRAIN,
        KIND_RESET,
        KIND_RELAY_RECV,
        KIND_RELAY_FEED,
    ];

    /// A notification of wire kind `kind`, one of [`KINDS`].
    fn arb_notification(rng: &mut Rng, kind: u8) -> EventNotification {
        let buffer = BufferId(rng.next_u64());
        let node = rng.range_usize(0, 1 << 20);
        let request = match kind {
            KIND_EXCHANGE_SEND => EventRequest::ExchangeSend { buffer, to: node },
            KIND_SHUTDOWN => EventRequest::Shutdown,
            KIND_KILL => EventRequest::Kill,
            KIND_TASK => EventRequest::Task(TaskSpec { steps: arb_steps(rng) }),
            KIND_TASK_TRAIN => {
                let car = |rng: &mut Rng| TrainCar {
                    tag: Tag(rng.next_u64()),
                    comm: CommId(rng.next_u64() as u32),
                    spec: TaskSpec { steps: arb_steps(rng) },
                };
                EventRequest::TaskTrain((0..rng.range(0, 4)).map(|_| car(rng)).collect())
            }
            KIND_RESET => EventRequest::Reset,
            KIND_RELAY_RECV => EventRequest::RelayRecv {
                buffer,
                total_bytes: rng.next_u64(),
                chunk_bytes: rng.next_u64(),
                children: arb_children(rng),
            },
            KIND_RELAY_FEED => EventRequest::RelayFeed {
                buffer,
                chunk_bytes: rng.next_u64(),
                children: arb_children(rng),
            },
            other => panic!("no event kind {other}"),
        };
        EventNotification {
            request,
            tag: Tag(rng.next_u64()),
            comm: CommId(rng.next_u64() as u32),
            timed: rng.range(0, 2) == 1,
        }
    }

    /// An error of wire code `code` (1 to 9), nested errors included.
    fn arb_error(rng: &mut Rng, code: u8) -> OmpcError {
        let text = |rng: &mut Rng| {
            let len = rng.range_usize(0, 12);
            (0..len).map(|_| char::from(b' ' + rng.range(0, 95) as u8)).collect::<String>() + "é"
        };
        match code {
            ERR_UNKNOWN_BUFFER => OmpcError::UnknownBuffer(BufferId(rng.next_u64())),
            ERR_UNKNOWN_KERNEL => OmpcError::UnknownKernel(KernelId(rng.range_usize(0, 1 << 20))),
            ERR_REGION_ALREADY_RUN => OmpcError::RegionAlreadyRun,
            ERR_COMMUNICATION => OmpcError::Communication(text(rng)),
            ERR_NODE_FAILURE => OmpcError::NodeFailure(rng.range_usize(0, 1 << 20)),
            ERR_INVALID_CONFIG => OmpcError::InvalidConfig(text(rng)),
            ERR_SHUT_DOWN => OmpcError::ShutDown,
            ERR_INTERNAL => OmpcError::Internal(text(rng)),
            ERR_REMOTE_EVENT => {
                // One in nine nests again, and again.
                let inner = rng.range(1, 10) as u8;
                OmpcError::RemoteEvent {
                    node: rng.range_usize(0, 1 << 20),
                    event: rng.next_u64(),
                    error: Box::new(arb_error(rng, inner)),
                }
            }
            other => panic!("no error code {other}"),
        }
    }

    /// What every codec owes its input, checked on one message: the
    /// encoding decodes back to the message; no strict prefix of it decodes
    /// — except where the cut falls in a trailing raw payload of `tail`
    /// bytes, which decodes as the same message with that much less payload;
    /// and whatever a corrupted encoding decodes to — a flipped bit, a
    /// would-be count field forced to `u32::MAX` — is an error or a value
    /// that encodes again, never a panic or an allocation the bytes do not
    /// back.
    fn check_codec<M: PartialEq + std::fmt::Debug>(
        rng: &mut Rng,
        message: &M,
        tail: usize,
        encode: impl Fn(&M) -> Vec<u8>,
        decode: impl Fn(&[u8]) -> OmpcResult<M>,
    ) {
        let bytes = encode(message);
        assert_eq!(decode(&bytes).as_ref(), Ok(message));
        let header = bytes.len() - tail;
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(_) => assert!(cut < header, "{message:?} lost its payload cut at {cut}"),
                Ok(shorter) => {
                    assert!(cut >= header, "{message:?} cut at {cut} decodes as {shorter:?}");
                    assert_eq!(encode(&shorter), &bytes[..cut]);
                }
            }
        }
        for _ in 0..4 {
            let mut flipped = bytes.clone();
            flipped[rng.range_usize(0, bytes.len())] ^= 1 << rng.range(0, 8);
            if let Ok(other) = decode(&flipped) {
                encode(&other);
            }
            if bytes.len() >= 4 {
                let mut forged = bytes.clone();
                let at = rng.range_usize(0, bytes.len() - 3);
                forged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                if let Ok(other) = decode(&forged) {
                    encode(&other);
                }
            }
        }
    }

    /// ROADMAP standing item (b): every message type, 1 000 seeds each.
    #[test]
    fn seeded_fuzz_every_message_round_trips_and_rejects_corruption() {
        for seed in 0..1_000 {
            let rng = &mut Rng::new(seed);
            for kind in KINDS {
                let n = arb_notification(rng, kind);
                check_codec(rng, &n, 0, EventNotification::encode, EventNotification::decode);
            }
            for code in ERR_UNKNOWN_BUFFER..=ERR_REMOTE_EVENT {
                let reply = EventReply::Err(arb_error(rng, code));
                check_codec(rng, &reply, 0, EventReply::encode, EventReply::decode);
            }
            let payload: Vec<u8> = (0..rng.range(0, 24)).map(|_| rng.next_u64() as u8).collect();
            let stamps = TaskStamps {
                recv_us: rng.next_u64(),
                deps_us: rng.next_u64(),
                exec_start_us: rng.next_u64(),
                exec_end_us: rng.next_u64(),
            };
            for reply in
                [EventReply::Ok(payload.clone()), EventReply::OkTimed(stamps, payload.clone())]
            {
                check_codec(rng, &reply, payload.len(), EventReply::encode, EventReply::decode);
            }
            let notice = CompletionNotice { tag: Tag(rng.next_u64()), ok: rng.range(0, 2) == 1 };
            check_codec(rng, &notice, 0, CompletionNotice::encode, CompletionNotice::decode);
            let frame = (rng.next_u64(), payload.clone());
            let encode = |(index, payload): &(u64, Vec<u8>)| encode_relay_frame(*index, payload);
            check_codec(rng, &frame, frame.1.len(), encode, decode_relay_frame);

            // The two-part shapes. Each is checked as its header (the body
            // is a handle, not bytes a codec could damage) under every way
            // the body can be there or not.
            let body = Bytes::from(payload.clone());
            let stamps = (rng.range(0, 2) == 1).then_some(stamps);
            let ack = Reply { inline: payload.clone(), body: None, stamps };
            let data = Reply { inline: Vec::new(), body: Some(body.clone()), stamps };
            for (reply, data_bearing) in [(&ack, false), (&data, true)] {
                let decode =
                    |header: &[u8]| Reply::from_parts(header, reply.body.clone(), data_bearing);
                let tail = reply.inline.len();
                check_codec(rng, reply, tail, |r| r.clone().into_parts().0, decode);
                let (header, sent) = reply.clone().into_parts();
                assert!(sent.is_some_and(|b| b.same_allocation(&body)) == data_bearing);
                // The body is there when the origin expects none, or missing
                // when the reply is the data: an error, never an empty buffer.
                let other = if data_bearing { None } else { Some(body.clone()) };
                assert!(Reply::from_parts(&header, other, data_bearing).is_err());
                assert!(Reply::from_parts(&header, reply.body.clone(), !data_bearing).is_err());
            }
            // Data both inline and as the body is ambiguous.
            if !payload.is_empty() {
                let (header, _) = ack.clone().into_parts();
                assert!(Reply::from_parts(&header, Some(body.clone()), true).is_err());
            }
            // An error reply is the destination's error whatever was asked.
            let failed = EventReply::Err(arb_error(rng, ERR_REMOTE_EVENT)).encode();
            for data_bearing in [false, true] {
                assert!(Reply::from_parts(&failed, None, data_bearing).is_err());
            }

            let index = rng.next_u64();
            let header = relay_frame_header(index);
            let (i, chunk) = decode_relay_parts(&header, Some(body.clone())).unwrap();
            assert!(i == index && chunk.same_allocation(&body));
            assert!(decode_relay_parts(&header, None).is_err(), "a frame without its chunk");
            // A header that is not exactly the index disagrees with its
            // body: truncated, or an old single-part frame beside a body.
            for cut in 0..header.len() {
                assert!(decode_relay_parts(&header[..cut], Some(body.clone())).is_err());
            }
            let inline_too = encode_relay_frame(index, &[0]);
            assert!(decode_relay_parts(&inline_too, Some(body.clone())).is_err());

            assert!(payload_body(&[], Some(body.clone())).unwrap().same_allocation(&body));
            assert!(payload_body(&[], None).is_err(), "a payload message without its payload");
            assert!(payload_body(&[0], Some(body)).is_err(), "a header on a raw payload");
        }
    }

    #[test]
    fn execute_with_no_buffers_round_trips() {
        let execute = TaskStep::Execute { kernel: KernelId(0), buffers: vec![] };
        round_trip(EventRequest::Task(TaskSpec { steps: vec![execute] }));
    }

    #[test]
    fn truncated_notification_is_an_error() {
        let n = EventNotification {
            request: EventRequest::ExchangeSend { buffer: BufferId(7), to: 1024 },
            tag: Tag(1),
            comm: CommId(0),
            timed: false,
        };
        let bytes = n.encode();
        assert!(EventNotification::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(EventNotification::decode(&[]).is_err());
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let mut bytes = EventNotification {
            request: EventRequest::Shutdown,
            tag: Tag(1),
            comm: CommId(0),
            timed: false,
        }
        .encode();
        let last = bytes.len() - 1;
        bytes[last] = 99;
        assert!(EventNotification::decode(&bytes).is_err());
        // The retired single-purpose events (`Alloc`, `Delete`, `Submit`,
        // `Retrieve`, `ExchangeRecv`, `Execute`, `SubmitTrain`) are gone.
        for retired in [1, 2, 3, 4, 6, 7, 13] {
            bytes[last] = retired;
            assert!(EventNotification::decode(&bytes).is_err(), "kind {retired}");
        }
    }

    #[test]
    fn timed_flag_round_trips_and_rejects_garbage() {
        let n = EventNotification {
            request: EventRequest::Task(TaskSpec { steps: vec![] }),
            tag: Tag(3),
            comm: CommId(1),
            timed: true,
        };
        let mut bytes = n.encode();
        assert_eq!(EventNotification::decode(&bytes).unwrap(), n);
        // The timed byte sits right after the u64 tag + u32 comm.
        assert_eq!(bytes[12], 1);
        bytes[12] = 9;
        assert!(EventNotification::decode(&bytes).is_err());
    }

    #[test]
    fn timed_replies_round_trip_and_degrade_to_plain_ok() {
        let stamps = TaskStamps { recv_us: 10, deps_us: 20, exec_start_us: 21, exec_end_us: 99 };
        let reply = EventReply::OkTimed(stamps, vec![4, 5, 6]);
        let decoded = EventReply::decode(&reply.encode()).unwrap();
        assert_eq!(decoded, reply);
        // Stamp-oblivious origins read the payload exactly as for Ok.
        assert_eq!(decoded.clone().into_result().unwrap(), vec![4, 5, 6]);
        assert_eq!(decoded.into_timed_result().unwrap(), (vec![4, 5, 6], Some(stamps)));
        // An empty-payload timed reply round-trips too (stamps are fixed
        // width, so no payload/stamp ambiguity).
        let empty = EventReply::OkTimed(stamps, Vec::new());
        assert_eq!(EventReply::decode(&empty.encode()).unwrap(), empty);
        // Truncated stamps are an error, not a short payload.
        let bytes = EventReply::OkTimed(stamps, Vec::new()).encode();
        assert!(EventReply::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EventRequest::Shutdown.name(), "shutdown");
        assert_eq!(EventRequest::TaskTrain(vec![]).name(), "task-train");
        assert_eq!(EventRequest::Reset.name(), "reset");
        assert_eq!(
            EventRequest::ExchangeSend { buffer: BufferId(0), to: 1 }.name(),
            "exchange-send"
        );
        assert_eq!(EventRequest::Kill.name(), "kill");
        assert_eq!(EventRequest::Task(TaskSpec { steps: vec![] }).name(), "task");
    }
}
