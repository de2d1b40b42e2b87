//! Per-rank mailboxes: the matching engine behind every receive and probe.
//!
//! Each rank owns one [`Mailbox`]. Senders push [`MessageEnvelope`]s into the
//! destination mailbox; receivers scan the queue in arrival order for the
//! first envelope matching their `(communicator, source, tag)` triple, which
//! preserves the MPI non-overtaking guarantee: two messages from the same
//! source on the same communicator and tag are received in the order they
//! were sent.

use crate::error::{MpiError, MpiResult};
use crate::message::{Message, MessageEnvelope};
use crate::types::{CommId, Rank, Status, Tag};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocking receive sleeps between wake-ups while re-checking the
/// shutdown flag. Purely a liveness bound for mis-matched programs in tests.
const RECV_POLL: Duration = Duration::from_millis(50);

#[derive(Debug, Default)]
struct MailboxInner {
    /// Messages that arrived before a matching receive was posted, in
    /// arrival order.
    queue: VecDeque<MessageEnvelope>,
    /// Set once the world is shutting down; pending receives fail instead of
    /// blocking forever.
    shutdown: bool,
    /// Number of peers that have terminated their rank function.
    terminated_peers: usize,
    /// Total number of peers (world size minus one).
    total_peers: usize,
}

/// A single rank's incoming-message store.
#[derive(Debug)]
pub struct Mailbox {
    owner: Rank,
    inner: Mutex<MailboxInner>,
    arrival: Condvar,
}

impl Mailbox {
    /// Create a mailbox for `owner` in a world of `world_size` ranks.
    pub fn new(owner: Rank, world_size: usize) -> Arc<Self> {
        Arc::new(Self {
            owner,
            inner: Mutex::new(MailboxInner {
                total_peers: world_size.saturating_sub(1),
                ..MailboxInner::default()
            }),
            arrival: Condvar::new(),
        })
    }

    /// Rank owning this mailbox.
    pub fn owner(&self) -> Rank {
        self.owner
    }

    /// Deliver an envelope into this mailbox and wake any blocked receiver.
    pub fn deliver(&self, envelope: MessageEnvelope) {
        let mut inner = self.inner.lock();
        inner.queue.push_back(envelope);
        self.arrival.notify_all();
    }

    /// Record that a peer rank has finished executing. Used to fail blocked
    /// receives that can never be satisfied instead of deadlocking.
    pub fn peer_terminated(&self) {
        let mut inner = self.inner.lock();
        inner.terminated_peers += 1;
        self.arrival.notify_all();
    }

    /// Mark the world as shut down; all blocked receives return an error.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock();
        inner.shutdown = true;
        self.arrival.notify_all();
    }

    /// Number of messages currently queued (matched or not).
    pub fn queued(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Non-blocking receive: remove and return the first matching message.
    pub fn try_recv(
        &self,
        comm: CommId,
        source: Option<Rank>,
        tag: Option<Tag>,
    ) -> Option<Message> {
        let mut inner = self.inner.lock();
        Self::take_match(&mut inner.queue, comm, source, tag).map(MessageEnvelope::into_message)
    }

    /// Blocking receive: wait until a matching message arrives.
    ///
    /// Returns [`MpiError::Finalized`] if the world shuts down first, or
    /// [`MpiError::PeerTerminated`] if every peer has terminated while the
    /// receive is still unmatched (the message can never arrive).
    pub fn recv(&self, comm: CommId, source: Option<Rank>, tag: Option<Tag>) -> MpiResult<Message> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(env) = Self::take_match(&mut inner.queue, comm, source, tag) {
                return Ok(env.into_message());
            }
            if inner.shutdown {
                return Err(MpiError::Finalized(self.owner));
            }
            if inner.total_peers > 0 && inner.terminated_peers >= inner.total_peers {
                return Err(MpiError::PeerTerminated { peer: source.unwrap_or(usize::MAX), tag });
            }
            self.arrival.wait_for(&mut inner, RECV_POLL);
        }
    }

    /// [`Mailbox::recv`] with an upper bound on the wait: returns
    /// [`MpiError::Timeout`] when no matching message has arrived within
    /// `timeout`. Shutdown and peer-termination are still reported with
    /// their own errors, exactly as in the untimed receive.
    pub fn recv_timeout(
        &self,
        comm: CommId,
        source: Option<Rank>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> MpiResult<Message> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock();
        loop {
            if let Some(env) = Self::take_match(&mut inner.queue, comm, source, tag) {
                return Ok(env.into_message());
            }
            if inner.shutdown {
                return Err(MpiError::Finalized(self.owner));
            }
            if inner.total_peers > 0 && inner.terminated_peers >= inner.total_peers {
                return Err(MpiError::PeerTerminated { peer: source.unwrap_or(usize::MAX), tag });
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(MpiError::Timeout { source, tag });
            }
            self.arrival.wait_for(&mut inner, RECV_POLL.min(deadline - now));
        }
    }

    /// Non-blocking probe: status of the first matching message, without
    /// removing it from the queue.
    pub fn iprobe(&self, comm: CommId, source: Option<Rank>, tag: Option<Tag>) -> Option<Status> {
        let inner = self.inner.lock();
        inner.queue.iter().find(|e| e.matches(comm, source, tag)).map(MessageEnvelope::probe_status)
    }

    /// Blocking probe: wait until a matching message is available and report
    /// its status without consuming it.
    pub fn probe(&self, comm: CommId, source: Option<Rank>, tag: Option<Tag>) -> MpiResult<Status> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(st) = inner
                .queue
                .iter()
                .find(|e| e.matches(comm, source, tag))
                .map(MessageEnvelope::probe_status)
            {
                return Ok(st);
            }
            if inner.shutdown {
                return Err(MpiError::Finalized(self.owner));
            }
            if inner.total_peers > 0 && inner.terminated_peers >= inner.total_peers {
                return Err(MpiError::PeerTerminated { peer: source.unwrap_or(usize::MAX), tag });
            }
            self.arrival.wait_for(&mut inner, RECV_POLL);
        }
    }

    fn take_match(
        queue: &mut VecDeque<MessageEnvelope>,
        comm: CommId,
        source: Option<Rank>,
        tag: Option<Tag>,
    ) -> Option<MessageEnvelope> {
        let idx = queue.iter().position(|e| e.matches(comm, source, tag))?;
        queue.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn env(source: Rank, tag: u64, comm: u32, seq: u64, payload: Vec<u8>) -> MessageEnvelope {
        MessageEnvelope {
            source,
            dest: 0,
            tag: Tag(tag),
            comm: CommId(comm),
            seq,
            payload,
            body: None,
        }
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let mb = Mailbox::new(0, 2);
        assert!(mb.try_recv(CommId(0), None, None).is_none());
        assert_eq!(mb.queued(), 0);
    }

    #[test]
    fn delivery_then_matching_receive() {
        let mb = Mailbox::new(0, 2);
        mb.deliver(env(1, 5, 0, 0, vec![42]));
        assert_eq!(mb.queued(), 1);
        let m = mb.try_recv(CommId(0), Some(1), Some(Tag(5))).unwrap();
        assert_eq!(m.data, vec![42]);
        assert_eq!(mb.queued(), 0);
    }

    #[test]
    fn non_matching_messages_are_left_in_place() {
        let mb = Mailbox::new(0, 3);
        mb.deliver(env(1, 5, 0, 0, vec![1]));
        mb.deliver(env(2, 6, 0, 0, vec![2]));
        let m = mb.try_recv(CommId(0), Some(2), None).unwrap();
        assert_eq!(m.data, vec![2]);
        assert_eq!(mb.queued(), 1);
        let m = mb.try_recv(CommId(0), None, None).unwrap();
        assert_eq!(m.data, vec![1]);
    }

    #[test]
    fn arrival_order_preserved_for_same_channel() {
        let mb = Mailbox::new(0, 2);
        for i in 0..10u8 {
            mb.deliver(env(1, 7, 0, i as u64, vec![i]));
        }
        for i in 0..10u8 {
            let m = mb.try_recv(CommId(0), Some(1), Some(Tag(7))).unwrap();
            assert_eq!(m.data, vec![i]);
        }
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new(0, 2);
        mb.deliver(env(1, 9, 0, 0, vec![1, 2, 3, 4]));
        let st = mb.iprobe(CommId(0), None, None).unwrap();
        assert_eq!(st.len, 4);
        assert_eq!(st.source, 1);
        assert_eq!(mb.queued(), 1);
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let mb = Mailbox::new(0, 2);
        let mb2 = Arc::clone(&mb);
        let t = thread::spawn(move || mb2.recv(CommId(0), Some(1), Some(Tag(3))).unwrap());
        thread::sleep(Duration::from_millis(20));
        mb.deliver(env(1, 3, 0, 0, vec![9]));
        let m = t.join().unwrap();
        assert_eq!(m.data, vec![9]);
    }

    #[test]
    fn shutdown_unblocks_receivers_with_error() {
        let mb = Mailbox::new(0, 2);
        let mb2 = Arc::clone(&mb);
        let t = thread::spawn(move || mb2.recv(CommId(0), None, None));
        thread::sleep(Duration::from_millis(20));
        mb.shutdown();
        assert_eq!(t.join().unwrap(), Err(MpiError::Finalized(0)));
    }

    #[test]
    fn all_peers_terminated_fails_pending_recv() {
        let mb = Mailbox::new(0, 3);
        let mb2 = Arc::clone(&mb);
        let t = thread::spawn(move || mb2.recv(CommId(0), Some(1), Some(Tag(1))));
        thread::sleep(Duration::from_millis(20));
        mb.peer_terminated();
        mb.peer_terminated();
        assert!(matches!(t.join().unwrap(), Err(MpiError::PeerTerminated { peer: 1, .. })));
    }

    #[test]
    fn communicators_do_not_cross_match() {
        let mb = Mailbox::new(0, 2);
        mb.deliver(env(1, 5, 1, 0, vec![7]));
        assert!(mb.try_recv(CommId(0), Some(1), Some(Tag(5))).is_none());
        assert!(mb.try_recv(CommId(1), Some(1), Some(Tag(5))).is_some());
    }
}
