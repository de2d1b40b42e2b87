//! Wire format of the event system.
//!
//! Every event starts with a *new-event notification* sent to the
//! destination node on the reserved control tag. The notification carries
//! the event kind, its operands, and the tag that all subsequent messages of
//! this event will use — this is how the paper's event system guarantees an
//! exclusive channel per event (§4.2). The paper also spreads events over
//! several MPI communicators; the in-process transport has one mailbox lock
//! per rank, so every channel here is a tag on the world communicator, and
//! the envelope's communicator field must name [`CommId::WORLD`].
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
//! [`EventRequest::TaskTrain`], and a car's one typed reply is also its
//! completion notice: the worker sends it on the train envelope's own tag —
//! the completion channel of the region execution that sent the train, an
//! event channel like any other — led by the car's tag
//! ([`car_reply_header`]). [`CONTROL_TAG`] is the only reserved tag.
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
//! | notification | the encoding | — |
//! | reply without data ([`Reply::from_parts`], `data_bearing = false`) | [`EventReply`] (status, stamps, inline acknowledgement) | — |
//! | reply that *is* the data (a task with a [`TaskStep::Retrieve`]; the sending half of a forward, a [`TaskStep::Push`]) | `EventReply::Ok` with nothing inline | the buffer |
//! | a train car's reply, on the completion channel | the car's tag `u64`, then its [`EventReply`] ([`split_car_reply`]) | the reply's body, if it has one |
//! | host payload (one per [`TaskStep::RecvFromHead`]) | empty ([`payload_body`]) | the buffer |
//!
//! Every receiver states which shape it expects, and a message of the wrong
//! shape — a data reply without its body, a body where none belongs, a
//! header on a payload — is a typed error, never an empty buffer. Byte
//! counts (`Status::len`, link pacing) are header plus body, which is
//! exactly the length of the single-part frames ([`encode_relay_frame`], an
//! [`EventReply`] with the data inline) these shapes replaced; the runtime
//! no longer builds either for bulk data.

use crate::types::{BufferId, KernelId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{Bytes, CommId, Tag};

/// Tag reserved for new-event notifications, received by a worker's idle
/// event-pool members —
/// the only reserved tag: every other channel, a region execution's
/// completion channel included, is an event channel.
pub const CONTROL_TAG: Tag = Tag(0);

/// First tag usable by events: event tags are allocated upwards from here.
/// Tags 1 and 2 once named shared notice lanes and are left unused.
pub const FIRST_EVENT_TAG: u64 = 3;

/// The action a new event asks the destination node to perform. What a
/// libomptarget device plugin must implement — alloc, delete, submit,
/// retrieve, exchange, execute — are the [`TaskStep`]s of a [`Task`]; the
/// other kinds are the sending half of a worker-to-worker forward and the
/// worker's own lifecycle.
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
    /// task as the car of a [`TaskTrain`], whose one reply goes to the
    /// train's completion channel; a release or a flush on its own,
    /// replying on its own channel.
    ///
    /// [`TaskTrain`]: EventRequest::TaskTrain
    Task(TaskSpec),
    /// Run several composite tasks bound for this node, batched into one
    /// tagged message (a *task train*) — how the
    /// [`crate::runtime::MpiBackend`] sends every target task, a train of
    /// one car included. The worker runs the cars strictly in order but
    /// replies **per car**, exactly as if the cars had arrived as individual
    /// [`Task`] notifications: the typed error protocol, zombie-gate
    /// refusals, and fault blame all stay per task. Each car's reply — or
    /// its refusal, on a killed node — is one message on the envelope's own
    /// tag, the completion channel of the region execution that sent the
    /// train, its header led by the car's tag ([`car_reply_header`]).
    ///
    /// [`Task`]: EventRequest::Task
    TaskTrain(Vec<TrainCar>),
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
            EventRequest::Reset => "reset",
            EventRequest::Shutdown => "shutdown",
            EventRequest::Kill => "kill",
        }
    }
}

/// Serialize one single-part frame: `[frame index u64 LE][payload bytes]`.
/// Off the data path; kept only because the perf ledger's
/// `protocol.relay_frame_mib_s` row names it, and deleted with that row.
pub fn encode_relay_frame(index: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse one [`encode_relay_frame`] frame into `(frame index, payload)`.
/// Off the data path; kept only because the perf ledger's
/// `protocol.relay_frame_mib_s` row names it, and deleted with that row.
pub fn decode_relay_frame(data: &[u8]) -> OmpcResult<(u64, Vec<u8>)> {
    let (index, payload) = data
        .split_first_chunk::<8>()
        .ok_or_else(|| OmpcError::Internal("truncated relay frame".to_string()))?;
    Ok((u64::from_le_bytes(*index), payload.to_vec()))
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
/// with its own exclusive channel. Payloads for the car's
/// [`TaskStep::RecvFromHead`] steps and the frames of its forwards travel on
/// the car's tag; its reply goes to the train's completion channel, led by
/// the car's tag, which names the car there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainCar {
    /// Tag of the car's exclusive channel (payloads and forwards), and the
    /// name its reply carries.
    pub tag: Tag,
    /// The composite task itself.
    pub spec: TaskSpec,
}

/// One step of a composite [`EventRequest::Task`], executed in order by the
/// destination node's event handler. Receive steps use the task's exclusive
/// tag; because MPI delivery is non-overtaking per `(source, tag)`, several
/// receives from the same source arrive in step order.
///
/// `B` is how an [`TaskStep::Execute`] holds its buffers: a list the encoder
/// writes, or — on a worker, which reads each step in place — the ids as
/// they lie in the frame the step came in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStep<B = Vec<BufferId>> {
    /// Receive the contents of `buffer` from the head node on the event
    /// channel (the head sends the payload right after the notification).
    RecvFromHead { buffer: BufferId },
    /// Receive the contents of `buffer` from worker `from` on the event
    /// channel. The sender transmits a reply envelope — the data on
    /// success, its own error otherwise — exactly like the sending half of
    /// an [`EventRequest::ExchangeSend`], so a dead or failed source
    /// surfaces as a typed error in this task's reply instead of a hang.
    RecvFromWorker { buffer: BufferId, from: NodeId },
    /// Read the newest receive, claim or local write ([`TaskStep::Wrote`]) of
    /// `buffer` queued ahead of this task on the worker — an earlier car owns
    /// it — and fail with its error if it failed. The worker's one lane runs
    /// that version first, so the step never waits, and a stale copy already
    /// resident never stands in for it. The worker reads no `timeout_ms`; the
    /// head writes `u64::MAX`, and the field stays for the wire format.
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
    Execute { kernel: KernelId, buffers: B },
    /// Send the resident `buffer` home as the task's reply body: the reply of
    /// a task with this step is data-bearing ([`Reply::from_parts`]).
    Retrieve { buffer: BufferId },
    /// After the kernel, send the resident `buffer` to worker `to` on the push channel
    /// `tag`, as the sending half of an [`EventRequest::ExchangeSend`] would. A car that
    /// fails before it gets here sends its error on the channel instead: every push
    /// channel carries exactly one message.
    Push { buffer: BufferId, to: NodeId, tag: Tag },
    /// Receive the copy of `buffer` pushed on `tag`, waiting until it lands: the bytes, or
    /// the error of the producer's car (or of the head, or of the producer's dead node) that
    /// will never send them. The channel names the push, so its sender is not named.
    Claim { buffer: BufferId, tag: Tag },
    /// Drop what was pushed on `tag` and nobody claimed.
    Discard { tag: Tag },
    /// The `Execute` before this step wrote `buffer`: the new version has landed, and an
    /// `AwaitLocal` of a car behind this one waits for it — or for the car's error.
    Wrote { buffer: BufferId },
}

impl TaskStep<BufferIds<'_>> {
    /// The step with its buffer ids collected into a list: the encoder's form.
    pub(crate) fn into_owned(self) -> TaskStep {
        match self {
            TaskStep::RecvFromHead { buffer } => TaskStep::RecvFromHead { buffer },
            TaskStep::RecvFromWorker { buffer, from } => TaskStep::RecvFromWorker { buffer, from },
            TaskStep::AwaitLocal { buffer, timeout_ms } => {
                TaskStep::AwaitLocal { buffer, timeout_ms }
            }
            TaskStep::Alloc { buffer, size } => TaskStep::Alloc { buffer, size },
            TaskStep::Delete { buffer } => TaskStep::Delete { buffer },
            TaskStep::Execute { kernel, buffers } => {
                TaskStep::Execute { kernel, buffers: buffers.collect() }
            }
            TaskStep::Retrieve { buffer } => TaskStep::Retrieve { buffer },
            TaskStep::Push { buffer, to, tag } => TaskStep::Push { buffer, to, tag },
            TaskStep::Claim { buffer, tag } => TaskStep::Claim { buffer, tag },
            TaskStep::Discard { tag } => TaskStep::Discard { tag },
            TaskStep::Wrote { buffer } => TaskStep::Wrote { buffer },
        }
    }
}

/// The buffers of an [`TaskStep::Execute`] read in place: the ids as they
/// lie in the frame, eight bytes each, read one by one as the step is run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BufferIds<'a>(&'a [u8]);

impl Iterator for BufferIds<'_> {
    type Item = BufferId;

    fn next(&mut self) -> Option<BufferId> {
        let (id, rest) = self.0.split_first_chunk::<8>()?;
        self.0 = rest;
        Some(BufferId(u64::from_le_bytes(*id)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.len() / 8;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BufferIds<'_> {}

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
///     comm: CommId::WORLD,
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
/// channel (its tag) the event will use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventNotification {
    /// What the destination must do.
    pub request: EventRequest,
    /// Tag all messages of this event are matched on.
    pub tag: Tag,
    /// Communicator the event travels on: always [`CommId::WORLD`], the
    /// transport's only one. [`EventNotification::decode`] rejects any
    /// other.
    pub comm: CommId,
    /// Whether the destination should capture telemetry timestamps while
    /// handling this event and ship them home in the reply (see
    /// [`TaskStamps`] / [`EventReply::OkTimed`]). Cars of an
    /// [`EventRequest::TaskTrain`] inherit the train envelope's flag. The
    /// worker reads no clock when this is `false`, keeping
    /// telemetry-off runs free of clock syscalls.
    pub timed: bool,
}

#[derive(Debug)]
struct Writer(Vec<u8>);

impl Writer {
    fn new() -> Self {
        Self::with_capacity(64)
    }
    fn with_capacity(bytes: usize) -> Self {
        Self(Vec::with_capacity(bytes))
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
    /// A `u32` count and that many buffer ids ([`Reader::buffer_ids`] reads it).
    fn buffers(&mut self, buffers: impl ExactSizeIterator<Item = BufferId>) {
        self.u32(buffers.len() as u32);
        for b in buffers {
            self.u64(b.0);
        }
    }
    /// Overwrite the `u32` written at `at`.
    fn patch_u32(&mut self, at: usize, v: u32) {
        self.0[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
    /// Overwrite the `u64` written at `at`.
    fn patch_u64(&mut self, at: usize, v: u64) {
        self.0[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// What a read past the end of a message is.
#[cold]
fn truncated() -> OmpcError {
    OmpcError::Internal("truncated notification".to_string())
}

#[derive(Debug, Clone)]
struct Reader<'a> {
    /// What is left to read.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { rest: data }
    }
    /// The next `n` bytes. Every read goes through here or
    /// [`Reader::take_array`], so a length field taken off the wire can
    /// never index (or add) past the message.
    fn take(&mut self, n: usize) -> OmpcResult<&'a [u8]> {
        let (taken, rest) = self.rest.split_at_checked(n).ok_or_else(truncated)?;
        self.rest = rest;
        Ok(taken)
    }
    /// The next `N` bytes as an array: a fixed-width field.
    fn take_array<const N: usize>(&mut self) -> OmpcResult<[u8; N]> {
        let (taken, rest) = self.rest.split_first_chunk::<N>().ok_or_else(truncated)?;
        self.rest = rest;
        Ok(*taken)
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
    /// A `u32` count and that many buffer ids, left in place: a count the
    /// rest of the message cannot back is a truncation error.
    fn buffer_ids(&mut self) -> OmpcResult<BufferIds<'a>> {
        let n = self.u32()? as usize;
        let bytes = n.checked_mul(8).ok_or_else(truncated)?;
        Ok(BufferIds(self.take(bytes)?))
    }
    /// How many more elements of at least `min_bytes` each the rest of the
    /// message could hold: the room a decoder may reserve for a count read
    /// off the wire, so a forged count is never an allocation.
    fn room(&self, min_bytes: usize) -> usize {
        self.rest.len() / min_bytes
    }
    fn rest(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.rest).to_vec()
    }
}

// 1–4, 6 and 13 were the single-purpose `Alloc`, `Delete`, `Submit`,
// `Retrieve`, `ExchangeRecv` and `SubmitTrain` events, and 7 a bare `Execute`:
// each is a step of a `Task` now. 14 and 15 were the collective relays: a
// broadcast tree is rounds of ordinary forwards now.
const KIND_EXCHANGE_SEND: u8 = 5;
const KIND_SHUTDOWN: u8 = 8;
const KIND_KILL: u8 = 9;
const KIND_TASK: u8 = 10;
const KIND_TASK_TRAIN: u8 = 11;
const KIND_RESET: u8 = 12;

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
const STEP_WROTE: u8 = 11;

/// Bytes [`encode_step`] writes for `step`.
fn step_len(step: &TaskStep) -> usize {
    match step {
        TaskStep::RecvFromHead { .. }
        | TaskStep::Delete { .. }
        | TaskStep::Retrieve { .. }
        | TaskStep::Wrote { .. }
        | TaskStep::Discard { .. } => 9,
        TaskStep::RecvFromWorker { .. }
        | TaskStep::AwaitLocal { .. }
        | TaskStep::Alloc { .. }
        | TaskStep::Claim { .. } => 17,
        TaskStep::Execute { buffers, .. } => 13 + 8 * buffers.len(),
        TaskStep::Push { .. } => 25,
    }
}

/// Bytes a step count and `steps` take on the wire.
fn steps_len(steps: &[TaskStep]) -> usize {
    4 + steps.iter().map(step_len).sum::<usize>()
}

/// A worker, then a channel's tag.
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
        TaskStep::Delete { buffer }
        | TaskStep::Retrieve { buffer }
        | TaskStep::Wrote { buffer } => {
            w.u8(match step {
                TaskStep::Delete { .. } => STEP_DELETE,
                TaskStep::Retrieve { .. } => STEP_RETRIEVE,
                _ => STEP_WROTE,
            });
            w.u64(buffer.0);
        }
        TaskStep::Execute { kernel, buffers } => {
            encode_execute(w, *kernel, buffers.iter().copied())
        }
        TaskStep::Push { buffer, to, tag } => {
            w.u8(STEP_PUSH);
            w.u64(buffer.0);
            w.u64(*to as u64);
            w.u64(tag.0);
        }
        TaskStep::Claim { buffer, tag } => {
            w.u8(STEP_CLAIM);
            w.u64(buffer.0);
            w.u64(tag.0);
        }
        TaskStep::Discard { tag } => {
            w.u8(STEP_DISCARD);
            w.u64(tag.0);
        }
    }
}

/// A [`TaskStep::Execute`] step, its buffers read off an iterator.
fn encode_execute(
    w: &mut Writer,
    kernel: KernelId,
    buffers: impl ExactSizeIterator<Item = BufferId>,
) {
    w.u8(STEP_EXECUTE);
    w.u64(kernel.0 as u64);
    w.buffers(buffers);
}

fn decode_step<'a>(r: &mut Reader<'a>) -> OmpcResult<TaskStep<BufferIds<'a>>> {
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
        STEP_WROTE => TaskStep::Wrote { buffer: BufferId(r.u64()?) },
        STEP_EXECUTE => {
            TaskStep::Execute { kernel: KernelId(r.u64()? as usize), buffers: r.buffer_ids()? }
        }
        STEP_PUSH => {
            let (buffer, to, tag) = (BufferId(r.u64()?), r.u64()? as NodeId, Tag(r.u64()?));
            TaskStep::Push { buffer, to, tag }
        }
        STEP_CLAIM => TaskStep::Claim { buffer: BufferId(r.u64()?), tag: Tag(r.u64()?) },
        STEP_DISCARD => TaskStep::Discard { tag: Tag(r.u64()?) },
        other => return Err(unknown_step(other)),
    })
}

/// Move past one step, checked as [`decode_step`] checks it — a known kind,
/// every operand there — but with nothing decoded: how a frame is checked
/// at accept, and how what a reader left of a car is passed over to reach
/// the next one. Returns the step's kind.
fn skip_step(r: &mut Reader<'_>) -> OmpcResult<u8> {
    let kind = r.u8()?;
    let operands = match kind {
        STEP_RECV_FROM_HEAD | STEP_DELETE | STEP_RETRIEVE | STEP_WROTE | STEP_DISCARD => 8,
        STEP_RECV_FROM_WORKER | STEP_AWAIT_LOCAL | STEP_ALLOC | STEP_CLAIM => 16,
        STEP_PUSH => 24,
        STEP_EXECUTE => {
            r.u64()?;
            r.buffer_ids()?;
            0
        }
        other => return Err(unknown_step(other)),
    };
    r.take(operands).map(|_| kind)
}

/// Whether a step of this kind may block its task or lands a version: a
/// receive, a claim, an await, a write's record or a kernel
/// ([`Notice::blocks`]).
fn blocks(kind: u8) -> bool {
    matches!(
        kind,
        STEP_RECV_FROM_HEAD
            | STEP_RECV_FROM_WORKER
            | STEP_CLAIM
            | STEP_WROTE
            | STEP_AWAIT_LOCAL
            | STEP_EXECUTE
    )
}

#[cold]
fn unknown_step(kind: u8) -> OmpcError {
    OmpcError::Internal(format!("unknown task step kind {kind}"))
}

/// The steps of a task or of a train car, read in place from the frame they
/// came in: each is decoded when it is reached, with the bounded reads of
/// the rest of the decoder, and nothing is collected. A step that cannot be
/// read is the last item, an error, and nothing after it in the frame can
/// be read either; [`Notice::read`] has read every step of its frame once
/// already, so a frame it accepted yields none.
#[derive(Debug, Clone)]
pub(crate) struct Steps<'a> {
    r: Reader<'a>,
    left: u32,
}

impl<'a> Steps<'a> {
    /// The step count at `r`, and the steps after it; `r` is left on the
    /// first step.
    fn at(r: &mut Reader<'a>) -> OmpcResult<Self> {
        let left = r.u32()?;
        Ok(Self { r: r.clone(), left })
    }

    /// Move `r` past the step count at `r` and every step after it, each
    /// checked: whether any of them [`blocks`].
    fn past(r: &mut Reader<'a>) -> OmpcResult<bool> {
        let mut any = false;
        for _ in 0..r.u32()? {
            any |= blocks(skip_step(r)?);
        }
        Ok(any)
    }

    /// Room to reserve for the steps left: never more than the frame backs.
    fn room(&self) -> usize {
        (self.left as usize).min(self.r.room(9))
    }
}

impl<'a> Iterator for Steps<'a> {
    type Item = OmpcResult<TaskStep<BufferIds<'a>>>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let step = decode_step(&mut self.r);
        if step.is_err() {
            self.left = 0;
            self.r.rest = &[];
        }
        Some(step)
    }
}

/// The cars of a train, read in place from its frame: each car's tag and
/// its [`Steps`], checked at accept ([`Notice::read`]) and read as the car
/// runs. The next car is read from where the car before it ends: a reader
/// that ran the car ([`Cars::next_car`]) has read it to its end, and only
/// what it left — the rest of a car that failed part-way — is skipped. As
/// [`Steps`], a car that cannot be read is the last item.
#[derive(Debug, Clone)]
pub(crate) struct Cars<'a> {
    /// The car read last; at first, no steps before the first car.
    car: Steps<'a>,
    left: u32,
}

impl<'a> Cars<'a> {
    /// The next car's tag, and its steps for the caller to read on from:
    /// the car after it starts where the caller leaves them.
    pub(crate) fn next_car(&mut self) -> Option<OmpcResult<(Tag, &mut Steps<'a>)>> {
        self.left = self.left.checked_sub(1)?;
        match self.advance() {
            Ok(tag) => Some(Ok((tag, &mut self.car))),
            Err(error) => {
                self.left = 0;
                Some(Err(error))
            }
        }
    }

    /// Skip what is left of the car read last, then read the next car's
    /// header.
    fn advance(&mut self) -> OmpcResult<Tag> {
        let r = &mut self.car.r;
        for _ in 0..std::mem::take(&mut self.car.left) {
            skip_step(r)?;
        }
        let tag = Tag(r.u64()?);
        self.car.left = r.u32()?;
        Ok(tag)
    }
}

impl<'a> Iterator for Cars<'a> {
    type Item = OmpcResult<(Tag, Steps<'a>)>;

    /// Each car's steps to read as a copy: the car itself is skipped when
    /// the next one is read.
    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_car()?.map(|(tag, steps)| (tag, steps.clone())))
    }
}

/// What a [`Notice`] asks: the kinds of [`EventRequest`], with the steps of
/// a task and the cars of a train left in the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Request {
    /// [`EventRequest::ExchangeSend`].
    ExchangeSend { buffer: BufferId, to: NodeId },
    /// [`EventRequest::Task`]: its steps are [`Notice::steps`].
    Task,
    /// [`EventRequest::TaskTrain`]: its cars are [`Notice::cars`].
    TaskTrain,
    /// [`EventRequest::Reset`].
    Reset,
    /// [`EventRequest::Shutdown`].
    Shutdown,
    /// [`EventRequest::Kill`].
    Kill,
}

/// A notification read in place — the one decoder of the control tag. The
/// envelope is decoded; the steps of a task and the cars of a train are
/// checked once, to the last byte, and left where they lie:
/// [`Notice::steps`] and [`Notice::cars`] read them again from the same
/// frame as they run, and nothing is allocated either time. A frame
/// [`Notice::read`] accepts is one [`EventNotification::decode`] accepts,
/// step for step: that decoder collects what this one reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Notice {
    /// Tag all messages of the event are matched on.
    pub(crate) tag: Tag,
    /// [`EventNotification::timed`].
    pub(crate) timed: bool,
    /// What the destination must do.
    pub(crate) request: Request,
    /// Whether a step of a task may block it or lands a version — a
    /// receive, a claim, an await, a write's record or a kernel — noted as
    /// the steps are checked, so nobody walks them again to ask. `false`
    /// for any other request.
    pub(crate) blocks: bool,
    /// Where the request's operands start in the frame.
    body: usize,
}

impl Notice {
    /// Read the notification `frame` holds, checking every byte of it.
    pub(crate) fn read(frame: &[u8]) -> OmpcResult<Self> {
        let mut r = Reader::new(frame);
        let tag = Tag(r.u64()?);
        let comm = CommId(r.u32()?);
        if comm != CommId::WORLD {
            return Err(OmpcError::Internal(format!("notification on {comm}, not the world's")));
        }
        let timed = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(OmpcError::Internal(format!("unknown timed flag {other}")));
            }
        };
        let kind = r.u8()?;
        let body = frame.len() - r.rest.len();
        let mut blocks = false;
        let request = match kind {
            KIND_EXCHANGE_SEND => {
                Request::ExchangeSend { buffer: BufferId(r.u64()?), to: r.u64()? as NodeId }
            }
            KIND_TASK => {
                blocks = Steps::past(&mut r)?;
                Request::Task
            }
            KIND_TASK_TRAIN => {
                for _ in 0..r.u32()? {
                    r.u64()?;
                    Steps::past(&mut r)?;
                }
                Request::TaskTrain
            }
            KIND_RESET => Request::Reset,
            KIND_SHUTDOWN => Request::Shutdown,
            KIND_KILL => Request::Kill,
            other => {
                return Err(OmpcError::Internal(format!("unknown event kind {other}")));
            }
        };
        Ok(Self { tag, timed, request, blocks, body })
    }

    /// The steps of a task, read again from `frame`, the bytes this notice
    /// was read from; no steps for any other request.
    pub(crate) fn steps<'a>(&self, frame: &'a [u8]) -> OmpcResult<Steps<'a>> {
        let mut r = Reader::new(frame.get(self.body..).unwrap_or_default());
        match self.request {
            Request::Task => Steps::at(&mut r),
            _ => Ok(Steps { r, left: 0 }),
        }
    }

    /// The cars of a train, read again from `frame`, the bytes this notice
    /// was read from; no cars for any other request.
    pub(crate) fn cars<'a>(&self, frame: &'a [u8]) -> OmpcResult<Cars<'a>> {
        let mut r = Reader::new(frame.get(self.body..).unwrap_or_default());
        let left = match self.request {
            Request::TaskTrain => r.u32()?,
            _ => 0,
        };
        Ok(Cars { car: Steps { r, left: 0 }, left })
    }
}

/// The steps `steps` reads, collected: the encoder's list.
fn owned_steps(steps: &mut Steps<'_>) -> OmpcResult<Vec<TaskStep>> {
    let mut owned = Vec::with_capacity(steps.room());
    for step in steps {
        owned.push(step?.into_owned());
    }
    Ok(owned)
}

impl EventNotification {
    /// Bytes [`EventNotification::encode`] writes: the encoding is sized
    /// before it is written, so it is one allocation.
    fn encoded_len(&self) -> usize {
        14 + match &self.request {
            EventRequest::ExchangeSend { .. } => 16,
            EventRequest::Task(spec) => steps_len(&spec.steps),
            EventRequest::TaskTrain(cars) => {
                4 + cars.iter().map(|car| 8 + steps_len(&car.spec.steps)).sum::<usize>()
            }
            EventRequest::Reset | EventRequest::Shutdown | EventRequest::Kill => 0,
        }
    }

    /// Serialize the notification for transmission on the control tag.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
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
                    encode_car_header(&mut w, car.tag, car.spec.steps.len() as u32);
                    for step in &car.spec.steps {
                        encode_step(&mut w, step);
                    }
                }
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

    /// Parse a notification received on the control tag: what the
    /// in-place reader a worker runs reads, collected into the encoder's
    /// lists.
    pub fn decode(data: &[u8]) -> OmpcResult<Self> {
        let notice = Notice::read(data)?;
        let request = match notice.request {
            Request::ExchangeSend { buffer, to } => EventRequest::ExchangeSend { buffer, to },
            Request::Task => {
                EventRequest::Task(TaskSpec { steps: owned_steps(&mut notice.steps(data)?)? })
            }
            Request::TaskTrain => {
                let mut cars = notice.cars(data)?;
                let mut owned = Vec::with_capacity((cars.left as usize).min(cars.car.r.room(12)));
                while let Some(car) = cars.next_car() {
                    let (tag, steps) = car?;
                    owned.push(TrainCar { tag, spec: TaskSpec { steps: owned_steps(steps)? } });
                }
                EventRequest::TaskTrain(owned)
            }
            Request::Reset => EventRequest::Reset,
            Request::Shutdown => EventRequest::Shutdown,
            Request::Kill => EventRequest::Kill,
        };
        Ok(Self { request, tag: notice.tag, comm: CommId::WORLD, timed: notice.timed })
    }
}

/// Where a train's car count, or a task's step count, sits in its
/// notification: after the envelope's tag (8 bytes), communicator (4),
/// `timed` flag (1) and kind (1).
const COUNT_AT: usize = 14;

/// The envelope of a notification of `kind` on the channel `tag`, and a
/// count to fill in at [`COUNT_AT`].
fn encode_envelope(w: &mut Writer, tag: Tag, timed: bool, kind: u8) {
    w.u64(tag.0);
    w.u32(CommId::WORLD.0);
    w.u8(timed as u8);
    w.u8(kind);
    w.u32(0);
}

/// What leads each car of a train: its channel's tag, then its step count.
fn encode_car_header(w: &mut Writer, tag: Tag, steps: u32) {
    w.u64(tag.0);
    w.u32(steps);
}

/// An [`EventRequest::TaskTrain`] notification written car by car, as the
/// head lowers the cars — byte for byte what [`EventNotification::encode`]
/// writes for the same train, with no [`TrainCar`], step list or buffer list
/// built on the way. A car's tag and step count are filled in when it is
/// closed ([`TrainFrame::end_car`]), the car count when the train departs
/// ([`TrainFrame::finish`]).
#[derive(Debug)]
pub(crate) struct TrainFrame {
    w: Writer,
    /// Cars closed so far.
    cars: u32,
    /// Where the open car's header starts, and the steps written since.
    car_at: usize,
    steps: u32,
}

impl TrainFrame {
    /// The envelope of a train on the channel `tag`, written into `data`
    /// (emptied first): a train's frame reuses the room of the frames sent
    /// before it.
    pub(crate) fn new(tag: Tag, timed: bool, mut data: Vec<u8>) -> Self {
        data.clear();
        let mut w = Writer(data);
        encode_envelope(&mut w, tag, timed, KIND_TASK_TRAIN);
        Self { w, cars: 0, car_at: 0, steps: 0 }
    }

    /// Open the next car: its steps follow.
    pub(crate) fn begin_car(&mut self) {
        self.car_at = self.w.0.len();
        self.steps = 0;
        encode_car_header(&mut self.w, Tag(0), 0);
    }

    /// Append a step to the open car.
    pub(crate) fn step(&mut self, step: &TaskStep) {
        encode_step(&mut self.w, step);
        self.steps += 1;
    }

    /// Append a [`TaskStep::Execute`] of `kernel` on `buffers` to the open
    /// car, the buffer ids read straight off the iterator.
    pub(crate) fn execute(
        &mut self,
        kernel: KernelId,
        buffers: impl ExactSizeIterator<Item = BufferId>,
    ) {
        encode_execute(&mut self.w, kernel, buffers);
        self.steps += 1;
    }

    /// Close the open car, naming its channel `tag`.
    pub(crate) fn end_car(&mut self, tag: Tag) {
        let at = self.car_at;
        self.w.patch_u64(at, tag.0);
        self.w.patch_u32(at + 8, self.steps);
        self.cars += 1;
    }

    /// Take the open car back out: the frame is as it was before
    /// [`TrainFrame::begin_car`].
    pub(crate) fn abandon_car(&mut self) {
        self.w.0.truncate(self.car_at);
    }

    /// The finished notification, its car count filled in.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.w.patch_u32(COUNT_AT, self.cars);
        self.w.0
    }
}

/// An untimed [`EventRequest::Task`] notification written step by step, as
/// a train's frame is — byte for byte what [`EventNotification::encode`]
/// writes for the same task, with no step list built on the way. Its
/// channel's tag and its step count are filled in when it is sent
/// ([`TaskFrame::finish`]).
#[derive(Debug)]
pub(crate) struct TaskFrame {
    w: Writer,
    steps: u32,
}

impl TaskFrame {
    /// A task with no steps yet.
    pub(crate) fn new() -> Self {
        let mut w = Writer::new();
        encode_envelope(&mut w, Tag(0), false, KIND_TASK);
        Self { w, steps: 0 }
    }

    /// Append a step.
    pub(crate) fn step(&mut self, step: &TaskStep) {
        encode_step(&mut self.w, step);
        self.steps += 1;
    }

    /// The finished notification, on the channel `tag`.
    pub(crate) fn finish(mut self, tag: Tag) -> Vec<u8> {
        self.w.patch_u64(0, tag.0);
        self.w.patch_u32(COUNT_AT, self.steps);
        self.w.0
    }
}

/// How many frames a sender keeps to write again.
const KEPT_FRAMES: usize = 8;

/// The frames a sender writes its messages into and sends as [`Bytes`] —
/// a head node's trains to one worker, or the headers of a worker's
/// deliveries — each written again once every receiver has let go of it, so
/// a steady stream of messages allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct SentFrames {
    /// Frames sent, some maybe still held by their receivers.
    sent: Vec<Bytes>,
}

impl SentFrames {
    /// What `data` holds, as a frame to send: moved into a sent frame nobody
    /// holds any more, whose emptied vector `data` becomes, room and all —
    /// or, while every frame kept is still held, copied into a new frame of
    /// just its size, `data` emptied: a frame a receiver holds on to (a push
    /// nobody claims yet) then pins no more memory than its headers.
    pub(crate) fn send(&mut self, data: &mut Vec<u8>) -> Bytes {
        for frame in &mut self.sent {
            if let Some(free) = frame.reclaim() {
                std::mem::swap(free, data);
                return frame.clone();
            }
        }
        let frame = Bytes::from(data.to_vec());
        data.clear();
        if self.sent.len() < KEPT_FRAMES {
            self.sent.push(frame.clone());
        }
        frame
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
/// wraps an error once per hop it travels (handler, exchange receiver), so
/// real replies nest a handful deep; the bound keeps a forged one from
/// recursing the decoder off its stack.
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
        self.write(&mut w);
        w.0
    }

    fn write(&self, w: &mut Writer) {
        match self {
            EventReply::Ok(payload) => {
                w.u8(REPLY_OK);
                w.bytes(payload);
            }
            EventReply::OkTimed(stamps, payload) => {
                w.u8(REPLY_OK_TIMED);
                stamps.encode(w);
                w.bytes(payload);
            }
            EventReply::Err(error) => {
                w.u8(REPLY_ERR);
                encode_error(w, error);
            }
        }
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
        let (header, body) = self.into_header();
        (header.encode(), body)
    }

    /// [`Reply::into_parts`] for the reply of train car `car`: the header is
    /// [`car_reply_header`].
    pub fn into_car_parts(self, car: Tag) -> (Vec<u8>, Option<Bytes>) {
        let (header, body) = self.into_header();
        (car_reply_header(car, &header), body)
    }

    /// The [`EventReply`] the header carries, and the body beside it: the
    /// parts [`write_reply_header`] writes a header of.
    pub fn into_header(self) -> (EventReply, Option<Bytes>) {
        let header = match self.stamps {
            Some(stamps) => EventReply::OkTimed(stamps, self.inline),
            None => EventReply::Ok(self.inline),
        };
        (header, self.body)
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

/// The header of a train car's one reply, which is also its completion
/// notice: the car's tag, then the car's [`EventReply`]. The worker sends it
/// on the train envelope's tag — the completion channel of
/// the region execution that sent the train — with the reply's body, if it
/// has one, as the message body, so the head resolves a car with one
/// receive on one channel, whatever the outcome.
pub fn car_reply_header(car: Tag, reply: &EventReply) -> Vec<u8> {
    let mut header = Vec::with_capacity(64);
    write_reply_header(&mut header, Some(car), reply);
    header
}

/// Append the header of an event's reply to `out`: the [`EventReply`], led
/// by the car's tag when it is the reply of train car `car` — exactly the
/// bytes [`EventReply::encode`] or [`car_reply_header`] return. A worker
/// writes the headers of one delivery into one frame this way, and sends
/// each as a slice of it.
pub fn write_reply_header(out: &mut Vec<u8>, car: Option<Tag>, reply: &EventReply) {
    let mut w = Writer(std::mem::take(out));
    if let Some(car) = car {
        w.u64(car.0);
    }
    reply.write(&mut w);
    *out = w.0;
}

/// Take a car's reply header apart: the car's tag, and the [`EventReply`]
/// header after it — for [`Reply::from_parts`], once the tag has said which
/// car, and so which reply shape, it is. A header too short to hold the tag
/// is an error.
pub fn split_car_reply(header: &[u8]) -> OmpcResult<(Tag, &[u8])> {
    let (tag, reply) = header
        .split_first_chunk::<8>()
        .ok_or_else(|| OmpcError::Internal(format!("car reply of {} bytes", header.len())))?;
    Ok((Tag(u64::from_le_bytes(*tag)), reply))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn round_trip(request: EventRequest) {
        for timed in [false, true] {
            let n = EventNotification {
                request: request.clone(),
                tag: Tag(42),
                comm: CommId::WORLD,
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
                TaskStep::Push { buffer: BufferId(4), to: 2, tag: Tag(40) },
                TaskStep::Claim { buffer: BufferId(5), tag: Tag(41) },
                TaskStep::Wrote { buffer: BufferId(4) },
                TaskStep::Discard { tag: Tag(u64::MAX) },
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
                spec: TaskSpec {
                    steps: vec![
                        TaskStep::RecvFromHead { buffer: BufferId(1) },
                        TaskStep::Execute { kernel: KernelId(2), buffers: vec![BufferId(1)] },
                    ],
                },
            },
            TrainCar {
                tag: Tag(12),
                spec: TaskSpec { steps: vec![TaskStep::Alloc { buffer: BufferId(4), size: 64 }] },
            },
        ]));
    }

    /// A task of several `RecvFromHead` steps.
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
            comm: CommId::WORLD,
            timed: false,
        };
        let bytes = n.encode();
        for cut in 1..bytes.len() {
            assert!(EventNotification::decode(&bytes[..bytes.len() - cut]).is_err());
        }
        assert_eq!(n.request.name(), "task");
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
        // A frame counts its index and its payload, and nothing else.
        assert_eq!((frame.len(), empty.len()), (8 + 3, 8));
    }

    #[test]
    fn truncated_task_train_is_an_error() {
        let n = EventNotification {
            request: EventRequest::TaskTrain(vec![TrainCar {
                tag: Tag(9),
                spec: TaskSpec { steps: vec![TaskStep::Delete { buffer: BufferId(3) }] },
            }]),
            tag: Tag(9),
            comm: CommId::WORLD,
            timed: false,
        };
        let bytes = n.encode();
        for cut in 1..bytes.len() {
            assert!(EventNotification::decode(&bytes[..bytes.len() - cut]).is_err());
        }
    }

    /// Bad input the one-communicator layout owes a typed error, from the
    /// owned decoder and the reader a worker runs alike: an envelope naming
    /// a communicator other than the world's, a car header (a tag and a step
    /// count, 12 bytes) cut short, a push, claim or discard cut short inside
    /// its operands, a train cut short inside its second car, and an
    /// `Execute` whose buffer count overruns the frame.
    #[test]
    fn bad_input_off_the_world_or_cut_short_is_a_typed_error() {
        let mut train = TrainFrame::new(Tag(4), false, Vec::new());
        train.begin_car();
        train.end_car(Tag(5));
        let train = train.finish();
        assert_eq!(train.len(), COUNT_AT + 4 + 12, "the envelope, a car count, one header");
        let task = |step| EventRequest::Task(TaskSpec { steps: vec![step] });
        let notification =
            |request| EventNotification { request, tag: Tag(3), comm: CommId::WORLD, timed: false };
        let off_world = |mut bytes: Vec<u8>| {
            for comm in [1, 7, u32::MAX] {
                bytes[8..12].copy_from_slice(&u32::to_le_bytes(comm));
                let decoded = decode_both(&bytes);
                assert!(matches!(decoded, Err(OmpcError::Internal(_))), "comm {comm}: {decoded:?}");
            }
        };
        off_world(train.clone());
        off_world(notification(EventRequest::Shutdown).encode());
        off_world(notification(task(TaskStep::Delete { buffer: BufferId(1) })).encode());
        let forged = EventNotification { comm: CommId(2), ..notification(EventRequest::Reset) };
        assert!(matches!(decode_both(&forged.encode()), Err(OmpcError::Internal(_))));

        for cut in 1..=12 {
            let decoded = decode_both(&train[..train.len() - cut]);
            assert!(matches!(decoded, Err(OmpcError::Internal(_))), "header cut by {cut}");
        }
        let (buffer, tag) = (BufferId(6), Tag(8));
        for step in [
            TaskStep::Push { buffer, to: 2, tag },
            TaskStep::Claim { buffer, tag },
            TaskStep::Discard { tag },
        ] {
            let bytes = notification(task(step.clone())).encode();
            assert_eq!(bytes.len(), 18 + step_len(&step), "{step:?}");
            for cut in 1..step_len(&step) {
                let decoded = decode_both(&bytes[..bytes.len() - cut]);
                assert!(matches!(decoded, Err(OmpcError::Internal(_))), "{step:?} cut by {cut}");
            }
        }

        // A train cut short anywhere inside its second car: the first car
        // is whole, and still the frame is refused.
        let execute = TaskStep::Execute { kernel: KernelId(1), buffers: vec![buffer, BufferId(7)] };
        let cars = vec![
            TrainCar { tag: Tag(5), spec: TaskSpec { steps: vec![TaskStep::Delete { buffer }] } },
            TrainCar {
                tag: Tag(6),
                spec: TaskSpec { steps: vec![TaskStep::Wrote { buffer }, execute.clone()] },
            },
        ];
        let bytes = notification(EventRequest::TaskTrain(cars)).encode();
        let second = COUNT_AT + 4 + 12 + 9;
        assert_eq!(bytes.len(), second + 12 + 9 + step_len(&execute), "the second car's bounds");
        for end in second..bytes.len() {
            let decoded = decode_both(&bytes[..end]);
            assert!(matches!(decoded, Err(OmpcError::Internal(_))), "second car cut at {end}");
        }
        // An `Execute` whose buffer count claims more ids than the frame holds.
        let mut bytes = notification(task(execute)).encode();
        assert_eq!(bytes.len(), 18 + 13 + 16, "a step count, then kind, kernel, count and ids");
        for count in [3, 1 << 20, u32::MAX] {
            bytes[27..31].copy_from_slice(&u32::to_le_bytes(count));
            let decoded = decode_both(&bytes);
            assert!(matches!(decoded, Err(OmpcError::Internal(_))), "{count} buffers: {decoded:?}");
        }
    }

    /// [`EventNotification::decode`], checked against the reader a worker
    /// runs: [`Notice::read`] refuses exactly the frames it refuses, with an
    /// `Internal` error, and a frame both accept reads again in place — the
    /// steps of its task, or of each car of its train — as the very steps it
    /// decodes.
    fn decode_both(bytes: &[u8]) -> OmpcResult<EventNotification> {
        let decoded = EventNotification::decode(bytes);
        let notice = Notice::read(bytes);
        let owned = |steps: Steps<'_>| -> Vec<TaskStep> {
            steps.map(|step| step.unwrap().into_owned()).collect()
        };
        match (&notice, &decoded) {
            (Err(OmpcError::Internal(_)), Err(_)) => {}
            (Ok(notice), Ok(n)) => {
                assert_eq!((notice.tag, notice.timed), (n.tag, n.timed));
                let (steps, cars) = (notice.steps(bytes).unwrap(), notice.cars(bytes).unwrap());
                match &n.request {
                    EventRequest::Task(spec) => assert_eq!(owned(steps), spec.steps),
                    EventRequest::TaskTrain(train) => {
                        let read: Vec<TrainCar> = cars
                            .map(|car| {
                                let (tag, steps) = car.unwrap();
                                TrainCar { tag, spec: TaskSpec { steps: owned(steps) } }
                            })
                            .collect();
                        assert_eq!(&read, train);
                    }
                    _ => assert_eq!(steps.count() + cars.count(), 0),
                }
            }
            _ => panic!("reader and decoder disagree on {bytes:?}: {notice:?}, {decoded:?}"),
        }
        decoded
    }

    /// A car's reply, taken apart as the head does: the tag, then the reply.
    fn decode_car_reply(header: &[u8]) -> OmpcResult<(Tag, EventReply)> {
        let (car, reply) = split_car_reply(header)?;
        Ok((car, EventReply::decode(reply)?))
    }

    fn encode_car_reply((car, reply): &(Tag, EventReply)) -> Vec<u8> {
        car_reply_header(*car, reply)
    }

    #[test]
    fn car_replies_round_trip_and_reject_garbage() {
        let failed = OmpcError::RemoteEvent {
            node: 2,
            event: 7,
            error: Box::new(OmpcError::NodeFailure(2)),
        };
        for frame in [
            (Tag(2), EventReply::Ok(Vec::new())),
            (Tag(u64::MAX), EventReply::Err(failed)),
            (Tag(9), EventReply::OkTimed(TaskStamps::default(), vec![1, 2])),
        ] {
            let header = encode_car_reply(&frame);
            assert_eq!(header[..8], frame.0 .0.to_le_bytes(), "the tag leads");
            assert_eq!(header[8..], frame.1.encode(), "the reply follows unchanged");
            assert_eq!(decode_car_reply(&header).unwrap(), frame);
        }
        // Shorter than its tag: an error, not a panic, whatever is there.
        for len in 0..8 {
            assert!(split_car_reply(&[7; 8][..len]).is_err(), "{len} bytes");
        }
        // A tag and nothing after it, or an unknown status, is no reply.
        assert!(decode_car_reply(&[0; 8]).is_err());
        let mut bad = encode_car_reply(&(Tag(1), EventReply::Ok(Vec::new())));
        bad[8] = 7;
        assert!(decode_car_reply(&bad).is_err());
        // The two-part shape: a data-bearing car's body rides beside the
        // header, and `from_parts` still checks it against the car.
        let body = Bytes::from(vec![5u8; 3]);
        let (header, sent) = Reply::data(body.clone()).into_car_parts(Tag(4));
        let (car, reply) = split_car_reply(&header).unwrap();
        assert_eq!(car, Tag(4));
        let reply = Reply::from_parts(reply, sent.clone(), true).unwrap();
        assert!(reply.body.is_some_and(|b| b.same_allocation(&body)));
        assert!(Reply::from_parts(&header[8..], sent, false).is_err(), "a body it takes none of");
        assert!(Reply::from_parts(&header[8..], None, true).is_err(), "its body missing");
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
            comm: CommId::WORLD,
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
        // A car's reply cut anywhere, its tag included, is no reply.
        let car = (Tag(6), EventReply::Err(OmpcError::Internal("x".to_string())));
        let bytes = encode_car_reply(&car);
        for cut in 0..bytes.len() {
            assert!(decode_car_reply(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A forged element count must not size an allocation: this 18-byte
    /// notification — a task of `u32::MAX` steps — used to abort the process
    /// reserving 128 GiB before reading a single step. The same holds for a
    /// train of `u32::MAX` cars, and for a task whose one real step — a
    /// push, a claim, a discard, a retrieve, a write landed — claims 4 billion siblings.
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
        let (tag, comm) = (Tag(9), CommId::WORLD);
        for step in [
            TaskStep::Push { buffer: BufferId(3), to: 2, tag },
            TaskStep::Claim { buffer: BufferId(3), tag },
            TaskStep::Discard { tag },
            TaskStep::Retrieve { buffer: BufferId(3) },
            TaskStep::Wrote { buffer: BufferId(3) },
        ] {
            let task = EventRequest::Task(TaskSpec { steps: vec![step] });
            let mut bytes = EventNotification { request: task, tag, comm, timed: false }.encode();
            bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes()); // the step count
            assert!(matches!(EventNotification::decode(&bytes), Err(OmpcError::Internal(_))));
        }
        // A car's reply whose error text claims 4 GiB.
        let lost = EventReply::Err(OmpcError::Communication("lost".into()));
        let mut bytes = car_reply_header(tag, &lost);
        bytes[10..14].copy_from_slice(&u32::MAX.to_le_bytes()); // tag, status, code, length
        assert!(matches!(decode_car_reply(&bytes), Err(OmpcError::Internal(_))));
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
            let tag = Tag(rng.next_u64());
            match rng.range(0, 11) {
                0 => TaskStep::RecvFromHead { buffer },
                1 => TaskStep::RecvFromWorker { buffer, from: node },
                2 => TaskStep::AwaitLocal { buffer, timeout_ms: rng.next_u64() },
                3 => TaskStep::Alloc { buffer, size: rng.next_u64() },
                4 => TaskStep::Delete { buffer },
                5 => TaskStep::Push { buffer, to: node, tag },
                6 => TaskStep::Claim { buffer, tag },
                7 => TaskStep::Discard { tag },
                8 => TaskStep::Retrieve { buffer },
                9 => TaskStep::Wrote { buffer },
                _ => TaskStep::Execute { kernel: KernelId(node), buffers: arb_buffers(rng) },
            }
        };
        (0..rng.range(0, 5)).map(|_| step(rng)).collect()
    }

    /// Every wire kind there is.
    const KINDS: [u8; 6] =
        [KIND_EXCHANGE_SEND, KIND_SHUTDOWN, KIND_KILL, KIND_TASK, KIND_TASK_TRAIN, KIND_RESET];

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
                    spec: TaskSpec { steps: arb_steps(rng) },
                };
                EventRequest::TaskTrain((0..rng.range(0, 4)).map(|_| car(rng)).collect())
            }
            KIND_RESET => EventRequest::Reset,
            other => panic!("no event kind {other}"),
        };
        EventNotification {
            request,
            tag: Tag(rng.next_u64()),
            comm: CommId::WORLD,
            timed: rng.range(0, 2) == 1,
        }
    }

    /// A task or a train of seeded steps of every kind, timed or not: what a
    /// worker reads in place.
    pub(crate) fn arb_task_or_train(rng: &mut Rng) -> EventNotification {
        let kind = [KIND_TASK, KIND_TASK_TRAIN][rng.range_usize(0, 2)];
        arb_notification(rng, kind)
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
                check_codec(rng, &n, 0, EventNotification::encode, decode_both);
                assert_eq!(n.encode().len(), n.encoded_len(), "sized as written: {n:?}");
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
                let car = (Tag(rng.next_u64()), reply);
                check_codec(rng, &car, payload.len(), encode_car_reply, decode_car_reply);
            }
            let car = (Tag(rng.next_u64()), EventReply::Err(arb_error(rng, ERR_REMOTE_EVENT)));
            check_codec(rng, &car, 0, encode_car_reply, decode_car_reply);
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
                // The same reply as a train car's, the body beside the tag.
                let car = (Tag(rng.next_u64()), reply.clone());
                let encode = |(tag, r): &(Tag, Reply)| r.clone().into_car_parts(*tag).0;
                let decode = |header: &[u8]| {
                    let (tag, header) = split_car_reply(header)?;
                    Ok((tag, Reply::from_parts(header, reply.body.clone(), data_bearing)?))
                };
                check_codec(rng, &car, tail, encode, decode);
                let (_, sent) = reply.clone().into_car_parts(car.0);
                assert!(sent.is_some_and(|b| b.same_allocation(&body)) == data_bearing);
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

            assert!(payload_body(&[], Some(body.clone())).unwrap().same_allocation(&body));
            assert!(payload_body(&[], None).is_err(), "a payload message without its payload");
            assert!(payload_body(&[0], Some(body)).is_err(), "a header on a raw payload");
        }
    }

    /// The frame the head writes car by car as it lowers them is the
    /// notification [`EventNotification::encode`] writes for the same train,
    /// byte for byte, and decodes back to that train: 600 seeded trains of
    /// up to six cars of every step kind, timed and not, each written into a
    /// frame that must grow, a car abandoned half-written along the way.
    #[test]
    fn a_train_written_car_by_car_is_the_encoded_notification() {
        for seed in 0..600 {
            let rng = &mut Rng::new(seed);
            let cars: Vec<TrainCar> = (0..rng.range(0, 7))
                .map(|_| TrainCar {
                    tag: Tag(rng.next_u64()),
                    spec: TaskSpec { steps: arb_steps(rng) },
                })
                .collect();
            let (tag, timed) = (Tag(rng.next_u64()), seed % 2 == 1);
            let write = |frame: &mut TrainFrame, steps: &[TaskStep]| {
                for step in steps {
                    match step {
                        TaskStep::Execute { kernel, buffers } => {
                            frame.execute(*kernel, buffers.iter().copied())
                        }
                        step => frame.step(step),
                    }
                }
            };
            let mut frame = TrainFrame::new(tag, timed, Vec::with_capacity(rng.range_usize(0, 64)));
            let abandoned = rng.range_usize(0, cars.len() + 1);
            for (at, car) in cars.iter().enumerate() {
                if at == abandoned {
                    frame.begin_car();
                    write(&mut frame, &arb_steps(rng));
                    frame.abandon_car();
                }
                frame.begin_car();
                write(&mut frame, &car.spec.steps);
                frame.end_car(car.tag);
            }
            let request = EventRequest::TaskTrain(cars);
            let n = EventNotification { request, tag, comm: CommId::WORLD, timed };
            let bytes = frame.finish();
            assert_eq!(bytes, n.encode(), "seed {seed}");
            assert_eq!(EventNotification::decode(&bytes), Ok(n), "seed {seed}");
        }
    }

    /// A task written step by step into its frame is the notification
    /// [`EventNotification::encode`] writes for the same untimed task, byte
    /// for byte, and the notice read from it says whether a step blocks —
    /// what a walk of its steps says: 600 seeded tasks of every step kind.
    #[test]
    fn a_task_written_step_by_step_is_the_encoded_notification() {
        for seed in 0..600 {
            let rng = &mut Rng::new(seed);
            let steps = arb_steps(rng);
            let mut frame = TaskFrame::new();
            steps.iter().for_each(|step| frame.step(step));
            let tag = Tag(rng.next_u64());
            let bytes = frame.finish(tag);
            let request = EventRequest::Task(TaskSpec { steps: steps.clone() });
            let n = EventNotification { request, tag, comm: CommId::WORLD, timed: false };
            assert_eq!(bytes, n.encode(), "seed {seed}");
            let blocks = steps.iter().any(|step| {
                !matches!(
                    step,
                    TaskStep::Alloc { .. }
                        | TaskStep::Delete { .. }
                        | TaskStep::Retrieve { .. }
                        | TaskStep::Push { .. }
                        | TaskStep::Discard { .. }
                )
            });
            assert_eq!(Notice::read(&bytes).map(|notice| notice.blocks), Ok(blocks), "seed {seed}");
        }
    }

    /// A lane reads each car once and the next car from where it left the
    /// one before: read to its end, or cut short part-way — then the rest
    /// of its steps is skipped — or not read at all. Whichever, every car
    /// comes with its own tag and steps, as the decoder reads them.
    #[test]
    fn a_car_read_part_way_leaves_the_next_car_where_it_starts() {
        for seed in 0..300 {
            let rng = &mut Rng::new(seed);
            let cars: Vec<TrainCar> = (0..rng.range(1, 7))
                .map(|_| TrainCar {
                    tag: Tag(rng.next_u64()),
                    spec: TaskSpec { steps: arb_steps(rng) },
                })
                .collect();
            let n = EventNotification {
                request: EventRequest::TaskTrain(cars.clone()),
                tag: Tag(3),
                comm: CommId::WORLD,
                timed: false,
            };
            let bytes = n.encode();
            let notice = Notice::read(&bytes).unwrap();
            let mut read = notice.cars(&bytes).unwrap();
            for (k, car) in cars.iter().enumerate() {
                let (tag, steps) = read.next_car().unwrap().unwrap();
                assert_eq!(tag, car.tag, "seed {seed}, car {k}");
                let taken = rng.range_usize(0, car.spec.steps.len() + 1);
                for want in &car.spec.steps[..taken] {
                    assert_eq!(&steps.next().unwrap().unwrap().into_owned(), want);
                }
            }
            assert!(read.next_car().is_none(), "seed {seed}: no car after the last");
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
            comm: CommId::WORLD,
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
            comm: CommId::WORLD,
            timed: false,
        }
        .encode();
        let last = bytes.len() - 1;
        bytes[last] = 99;
        assert!(EventNotification::decode(&bytes).is_err());
        // The retired single-purpose events (`Alloc`, `Delete`, `Submit`,
        // `Retrieve`, `ExchangeRecv`, `Execute`, `SubmitTrain`) and the two
        // collective relay kinds are gone.
        for retired in [1, 2, 3, 4, 6, 7, 13, 14, 15] {
            bytes[last] = retired;
            assert!(EventNotification::decode(&bytes).is_err(), "kind {retired}");
        }
    }

    #[test]
    fn timed_flag_round_trips_and_rejects_garbage() {
        let n = EventNotification {
            request: EventRequest::Task(TaskSpec { steps: vec![] }),
            tag: Tag(3),
            comm: CommId::WORLD,
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
