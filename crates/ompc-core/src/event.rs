//! The origin (head-node) side of the MPI-based event system (paper §4.2).
//!
//! Every operation on a worker node is an *event*: the head allocates a
//! fresh tag, picks a communicator round-robin, sends a new-event
//! notification to the destination's gate thread, exchanges any payload
//! messages on the `(tag, communicator)` channel, and finally waits for the
//! **typed reply** ([`crate::protocol::EventReply`]) on that same channel.
//! Because the tag is unique per event and shared only with the
//! destination, concurrent events cannot cross-talk even though several
//! head threads (region executions, the async data path) issue them at the
//! same time.
//!
//! Payloads move as shared [`Bytes`] handles in both directions: a host
//! payload puts the caller's handle on the wire as the message body, and a
//! retrieve returns the handle the worker replied with — the head copies no
//! buffer.
//!
//! Every head→worker buffer operation is one [`EventRequest::Task`] of
//! [`TaskStep`]s — a region task as a car of a train (`runtime/mpi.rs`), a
//! release, a flush, a prefetch or a forward on its own (`post_task`).
//!
//! A reply is either `Ok(payload)` or `Err(OmpcError)`: worker-side handler
//! failures (unregistered kernels, missing buffers, killed nodes) come back
//! as [`crate::types::OmpcError::RemoteEvent`] values naming the origin
//! node and event tag, never as a silently missing completion. As a last
//! line of defence against a reply that can never arrive (a worker thread
//! that died without answering), every wait is additionally bounded by
//! [`crate::config::OmpcConfig::event_reply_timeout_ms`].

use crate::protocol::{
    EventNotification, EventRequest, Reply, TaskSpec, TaskStep, CONTROL_TAG, FIRST_EVENT_TAG,
};
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{Bytes, CommId, Communicator, Message, Tag};
use std::sync::atomic::{AtomicU64, Ordering};
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
    pub(crate) fn record(&self, data_bytes: Option<u64>) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if let Some(bytes) = data_bytes {
            self.record_data(bytes);
        }
    }

    /// One data movement, and no event: all a booked push or a committed
    /// retrieval records.
    pub(crate) fn record_data(&self, bytes: u64) {
        self.data_events.fetch_add(1, Ordering::Relaxed);
        self.bytes_moved.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// A task in wire form: the ordered steps the executing node performs, plus
/// what the head must put on the wire for them.
#[derive(Default)]
pub(crate) struct Composite {
    pub(crate) steps: Vec<TaskStep>,
    /// Host payloads for the `RecvFromHead` steps, in step order: the
    /// registry's own handles.
    pub(crate) payloads: Vec<Bytes>,
    /// Per `RecvFromWorker` step, in step order: the node to tell its
    /// `ExchangeSend`, the buffer, and the bytes it will move.
    pub(crate) exchanges: Vec<(NodeId, BufferId, u64)>,
}

impl Composite {
    /// Receive `buffer` from the head: `data` follows the notification.
    pub(crate) fn recv_from_head(&mut self, buffer: BufferId, data: Bytes) {
        self.payloads.push(data);
        self.steps.push(TaskStep::RecvFromHead { buffer });
    }

    /// Receive `buffer` — `bytes` of it — from worker `from`.
    pub(crate) fn recv_from_worker(&mut self, buffer: BufferId, from: NodeId, bytes: u64) {
        self.exchanges.push((from, buffer, bytes));
        self.steps.push(TaskStep::RecvFromWorker { buffer, from });
    }

    /// Whether the task's reply is the data: its body is the buffer of a
    /// [`TaskStep::Retrieve`] step.
    pub(crate) fn returns_data(&self) -> bool {
        self.steps.iter().any(|step| matches!(step, TaskStep::Retrieve { .. }))
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
    /// Communicator of the event's channel.
    pub(crate) comm: CommId,
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
        }
    }

    /// Put one untimed event on the wire without waiting for it: allocate
    /// its exclusive channel, notify `node`, and return the channel its
    /// typed reply will arrive on.
    fn post(&self, node: NodeId, request: EventRequest) -> OmpcResult<ReplyChannel> {
        let (tag, comm) = self.open_channel();
        self.notify(node, &EventNotification { request, tag, comm, timed: false })?;
        Ok(ReplyChannel { node, tag, comm, data_bearing: false })
    }

    /// Put one [`EventRequest::Task`] on the wire without waiting for it:
    /// the notification, then its frames ([`EventSystem::send_frames`]).
    /// Counted as it goes out, as a train car is.
    pub(crate) fn post_task(&self, node: NodeId, work: Composite) -> OmpcResult<ReplyChannel> {
        let data_bearing = work.returns_data();
        let Composite { steps, payloads, exchanges } = work;
        let channel = self.post(node, EventRequest::Task(TaskSpec { steps }))?;
        let frames = self.send_frames(node, channel.tag, channel.comm, payloads, exchanges)?;
        self.counters.record(None);
        for bytes in frames {
            self.counters.record(Some(bytes));
        }
        Ok(ReplyChannel { data_bearing, ..channel })
    }

    /// Send what follows a task's notification to `node` on its channel
    /// `(tag, comm)`: each host payload, then each source's `ExchangeSend`.
    /// A failure of a *sending* half travels through the receiver (the
    /// sender forwards its error envelope instead of the data), so the head
    /// never hangs on a half-completed forward. Returns the bytes each frame
    /// moves, in order, for the caller to count once the whole task — or
    /// train — is on the wire.
    pub(crate) fn send_frames(
        &self,
        node: NodeId,
        tag: Tag,
        comm: CommId,
        payloads: Vec<Bytes>,
        exchanges: Vec<(NodeId, BufferId, u64)>,
    ) -> OmpcResult<Vec<u64>> {
        let lane = self.comm.on(comm)?;
        let mut moved = Vec::with_capacity(payloads.len() + exchanges.len());
        for payload in payloads {
            moved.push(payload.len() as u64);
            lane.send_with_body(node, tag, Vec::new(), payload)?;
        }
        for (from, buffer, bytes) in exchanges {
            let request = EventRequest::ExchangeSend { buffer, to: node };
            self.notify(from, &EventNotification { request, tag, comm, timed: false })?;
            moved.push(bytes);
        }
        Ok(moved)
    }

    /// Block (bounded by the reply timeout) for the typed reply on
    /// `channel` and convert it into the event's result. Worker-side errors
    /// arrive as decoded [`crate::types::OmpcError::RemoteEvent`] values; a
    /// timed-out or undeliverable reply is a
    /// [`crate::types::OmpcError::Communication`].
    pub(crate) fn await_reply(&self, channel: &ReplyChannel) -> TypedReply {
        let lane = self.comm.on(channel.comm)?;
        let msg = match self.reply_timeout {
            Some(timeout) => lane.recv_timeout(Some(channel.node), Some(channel.tag), timeout)?,
            None => lane.recv(Some(channel.node), Some(channel.tag))?,
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

    /// Allocate an exclusive `(tag, communicator)` channel for a new event.
    /// Communicators are chosen round-robin by tag, mirroring the paper's
    /// mapping of events onto MPICH virtual communication interfaces. Also
    /// used by the message-passing `MpiBackend` — for its train cars and
    /// each region execution's completion channel — and by the collectives,
    /// so every event shares one device-unique tag space.
    pub(crate) fn open_channel(&self) -> (Tag, CommId) {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let comm = CommId((tag % u64::from(self.comm.num_communicators())) as u32);
        (Tag(tag), comm)
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

    pub(crate) fn notify(&self, node: NodeId, notification: &EventNotification) -> OmpcResult<()> {
        self.comm.send(node, CONTROL_TAG, notification.encode())?;
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
mod tests {
    use super::*;

    #[test]
    fn channels_are_unique_and_round_robin_over_communicators() {
        let world = ompc_mpi::World::with_communicators(2, 4);
        let es = EventSystem::new(world.communicator(0));
        let mut tags = Vec::new();
        let mut comms = Vec::new();
        for _ in 0..8 {
            let (tag, comm) = es.open_channel();
            tags.push(tag);
            comms.push(comm.0);
        }
        let mut unique = tags.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), tags.len(), "event tags must be unique");
        // All four communicators get used.
        let mut cs = comms.clone();
        cs.sort_unstable();
        cs.dedup();
        assert_eq!(cs.len(), 4);
    }

    #[test]
    fn counters_record_events_and_bytes() {
        let c = EventCounters::default();
        c.record(None);
        c.record(Some(100));
        c.record(Some(50));
        assert_eq!(c.events.load(Ordering::Relaxed), 3);
        assert_eq!(c.data_events.load(Ordering::Relaxed), 2);
        assert_eq!(c.bytes_moved.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn a_reply_that_never_comes_fails_at_the_reply_timeout() {
        // Nobody serves rank 1. The head's wait is one sleep that ends at
        // its own deadline: no transport tick wakes it on the way there.
        let world = ompc_mpi::World::with_communicators(2, 2);
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
