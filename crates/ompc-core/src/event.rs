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
//! Payloads move as shared [`Bytes`] handles in both directions: a submit
//! puts the caller's handle on the wire as the message body, and a retrieve
//! returns the handle the worker replied with — the head copies no buffer.
//!
//! A reply is either `Ok(payload)` or `Err(OmpcError)`: worker-side handler
//! failures (unregistered kernels, missing buffers, killed nodes) come back
//! as [`crate::types::OmpcError::RemoteEvent`] values naming the origin
//! node and event tag, never as a silently missing completion. As a last
//! line of defence against a reply that can never arrive (a worker thread
//! that died without answering), every wait is additionally bounded by
//! [`crate::config::OmpcConfig::event_reply_timeout_ms`].

use crate::protocol::{EventNotification, EventRequest, Reply, CONTROL_TAG, FIRST_EVENT_TAG};
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{Bytes, CommId, Communicator, Message, Tag};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters describing the event traffic of a device lifetime.
#[derive(Debug, Default)]
pub struct EventCounters {
    /// Number of events issued (a push is none: it rides its producer's).
    pub events: AtomicU64,
    /// Number of data-carrying events (submit / retrieve / exchange) and booked pushes.
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

    /// One data movement, and no event: all a booked push records.
    pub(crate) fn record_data(&self, bytes: u64) {
        self.data_events.fetch_add(1, Ordering::Relaxed);
        self.bytes_moved.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// The exclusive channel an outstanding event's typed reply arrives on,
/// as returned by the `post*` half of a verb: whoever holds it either blocks
/// in [`EventSystem::await_reply`] or probes the channel itself and hands the
/// raw reply to [`EventSystem::accept_reply`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplyChannel {
    /// Node that will reply.
    pub(crate) node: NodeId,
    /// Tag of the event's channel.
    pub(crate) tag: Tag,
    /// Communicator of the event's channel.
    pub(crate) comm: CommId,
    moved: Moved,
}

/// An event's typed reply as the head sees it: the reply's parts — inline
/// acknowledgement, data body, the worker's stamps when the event was
/// timed — or the typed error.
pub(crate) type TypedReply = OmpcResult<Reply>;

/// How a successful reply is entered into the [`EventCounters`].
#[derive(Debug, Clone, Copy)]
enum Moved {
    /// A control event: no payload either way.
    Nothing,
    /// The head sent this many payload bytes along with the event.
    Sent(u64),
    /// The reply payload is the data (a retrieve).
    Payload,
    /// The reply payload is the receiver's byte-count acknowledgement (an
    /// exchange).
    Acked,
}

/// The byte count an exchange receiver acknowledged.
fn acked_bytes(ack: &[u8]) -> u64 {
    ack.get(..8).and_then(|b| b.try_into().ok()).map(u64::from_le_bytes).unwrap_or(0)
}

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

    /// Put one event on the wire without waiting for it: allocate its
    /// exclusive channel, notify `node`, and return the channel its typed
    /// reply will arrive on. The head-side half every verb below — and the
    /// message-passing transport's enter/exit-data path — is built from.
    pub(crate) fn post(
        &self,
        node: NodeId,
        request: EventRequest,
        timed: bool,
    ) -> OmpcResult<ReplyChannel> {
        let (tag, comm) = self.open_channel();
        let moved = match request {
            EventRequest::Retrieve { .. } => Moved::Payload,
            EventRequest::ExchangeRecv { .. } => Moved::Acked,
            _ => Moved::Nothing,
        };
        self.notify(node, &EventNotification { request, tag, comm, timed })?;
        Ok(ReplyChannel { node, tag, comm, moved })
    }

    /// [`EventSystem::post`] a submit of `data` into `buffer` on `node`
    /// (host → worker): the payload follows the notification on the
    /// event's channel.
    pub(crate) fn post_submit(
        &self,
        node: NodeId,
        buffer: BufferId,
        data: Bytes,
    ) -> OmpcResult<ReplyChannel> {
        let bytes = data.len() as u64;
        let channel = self.post(node, EventRequest::Submit { buffer }, false)?;
        self.comm.on(channel.comm)?.send_with_body(node, channel.tag, Vec::new(), data)?;
        Ok(ReplyChannel { moved: Moved::Sent(bytes), ..channel })
    }

    /// [`EventSystem::post`] both halves of a worker-to-worker forward of
    /// `buffer` on one channel; the receiver `to` owns the reply. A failure
    /// of the *sending* half travels through the receiver (the sender
    /// forwards its error envelope instead of the data), so the head never
    /// hangs on a half-completed exchange.
    pub(crate) fn post_exchange(
        &self,
        from: NodeId,
        to: NodeId,
        buffer: BufferId,
    ) -> OmpcResult<ReplyChannel> {
        let channel = self.post(to, EventRequest::ExchangeRecv { buffer, from }, false)?;
        let request = EventRequest::ExchangeSend { buffer, to };
        let (tag, comm) = (channel.tag, channel.comm);
        self.notify(from, &EventNotification { request, tag, comm, timed: false })?;
        Ok(channel)
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
        self.accept_reply(channel, msg)
    }

    /// Decode a reply already received on `channel` (a transport that
    /// probes instead of blocking hands the message here) and count the
    /// event — only once it is known to have succeeded. A retrieve's reply
    /// must carry the buffer as its body and every other reply none; a
    /// timed reply keeps its worker-side [`crate::protocol::TaskStamps`].
    pub(crate) fn accept_reply(&self, channel: &ReplyChannel, msg: Message) -> TypedReply {
        let data_bearing = matches!(channel.moved, Moved::Payload);
        let reply = Reply::from_parts(&msg.data, msg.body, data_bearing)?;
        self.counters.record(match channel.moved {
            Moved::Nothing => None,
            Moved::Sent(bytes) => Some(bytes),
            Moved::Payload => reply.body.as_ref().map(|data| data.len() as u64),
            Moved::Acked => Some(acked_bytes(&reply.inline)),
        });
        Ok(reply)
    }

    /// Post `request` to `node` and wait for its reply.
    fn call(&self, node: NodeId, request: EventRequest) -> TypedReply {
        let channel = self.post(node, request, false)?;
        self.await_reply(&channel)
    }

    /// Traffic counters (events issued, data events, bytes).
    pub fn counters(&self) -> &EventCounters {
        &self.counters
    }

    /// Allocate an exclusive `(tag, communicator)` channel for a new event.
    /// Communicators are chosen round-robin by tag, mirroring the paper's
    /// mapping of events onto MPICH virtual communication interfaces. Also
    /// used by the message-passing `MpiBackend` — for its composite task
    /// events and each region execution's completion channel — so they and
    /// this system's synchronous events share one device-unique tag space.
    pub(crate) fn open_channel(&self) -> (Tag, CommId) {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let comm = CommId((tag % u64::from(self.comm.num_communicators())) as u32);
        (Tag(tag), comm)
    }

    /// The head node's communicator handle, for backends that probe and
    /// receive replies themselves instead of blocking per event.
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

    /// Copy several buffers to `node` in one event (host → worker), the
    /// prefetch analogue of the task trains: one gate notification, the
    /// payloads streaming in order on the train's own channel, one typed
    /// reply for the whole train. A train is all-or-nothing on the wire: a
    /// failed car fails the whole event and the caller rolls back every
    /// booked copy.
    pub fn submit_train(&self, node: NodeId, cars: Vec<(BufferId, Bytes)>) -> OmpcResult<()> {
        let buffers: Vec<BufferId> = cars.iter().map(|(b, _)| *b).collect();
        let sizes: Vec<u64> = cars.iter().map(|(_, d)| d.len() as u64).collect();
        let channel = self.post(node, EventRequest::SubmitTrain { buffers }, false)?;
        let lane = self.comm.on(channel.comm)?;
        for (_, data) in cars {
            lane.send_with_body(node, channel.tag, Vec::new(), data)?;
        }
        self.await_reply(&channel)?;
        // The envelope's reply counted the train as one event; each car is
        // one more data-carrying event, as for a composite task's payloads.
        for bytes in sizes {
            self.counters.record(Some(bytes));
        }
        Ok(())
    }

    /// Fetch the contents of `buffer` from `node` (worker → host): the
    /// returned handle is the allocation the worker holds.
    pub fn retrieve(&self, node: NodeId, buffer: BufferId) -> OmpcResult<Bytes> {
        let reply = self.call(node, EventRequest::Retrieve { buffer })?;
        // `accept_reply` has already refused a retrieve reply without one.
        reply.body.ok_or_else(|| OmpcError::Internal(format!("no data retrieving {buffer}")))
    }

    /// Forward `buffer` directly from worker `from` to worker `to` without
    /// staging it on the head node, and wait for the receiver's reply.
    /// Returns the number of bytes the receiver acknowledged.
    pub fn exchange(&self, from: NodeId, to: NodeId, buffer: BufferId) -> OmpcResult<u64> {
        let channel = self.post_exchange(from, to, buffer)?;
        self.await_reply(&channel).map(|reply| acked_bytes(&reply.inline))
    }

    /// Clear `node`'s device memory and wait for the acknowledgement —
    /// issued between device lifetimes when warm workers are recycled, so
    /// an adopted worker pool starts from an empty device state.
    pub fn reset(&self, node: NodeId) -> OmpcResult<()> {
        self.call(node, EventRequest::Reset).map(|_| ())
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
        self.post(node, EventRequest::Kill, false).map(|_| ())
    }

    /// Tell `node` to leave its gate loop and terminate.
    pub fn shutdown(&self, node: NodeId) -> OmpcResult<()> {
        self.post(node, EventRequest::Shutdown, false).map(|_| ())
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
