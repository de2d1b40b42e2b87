//! Per-rank mailboxes: the matching engine behind every receive and probe.
//!
//! Each rank owns one [`Mailbox`], built on the classic MPI split between an
//! *unexpected-message* queue and a *posted-receive* list:
//!
//! * A receive or probe first scans the unexpected queue, in arrival order,
//!   for the first envelope matching its `(communicator, source, tag)`
//!   pattern. Only when nothing matches does it post a waiter record — its
//!   pattern plus a parker of its own — and go to sleep on that parker.
//! * A delivery first scans the posted list, in posting order. A matching
//!   receive is handed the message itself and woken — that one thread, after
//!   the mailbox lock is released. When no posted receive matches, the
//!   envelope joins the unexpected queue and **nobody is woken**: no thread
//!   is waiting for it, so there is no system call to make.
//!
//! Both steps run under the one mailbox lock, which keeps the invariant that
//! no posted receive matches any queued envelope. That is the MPI
//! non-overtaking guarantee: two messages from one source on one communicator
//! and tag are matched by exactly the same patterns, so the second can be
//! handed to a posted receive only if the first is no longer queued — it was
//! received before.
//!
//! A blocking probe posts the same kind of record; a delivery gives every
//! matching probe the message's status and leaves the message for the first
//! matching receive or, failing that, the queue.

use crate::error::{MpiError, MpiResult};
use crate::message::{Message, MessageEnvelope};
use crate::types::{CommId, Rank, Status, Tag};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traffic counters of one mailbox, read with [`Mailbox::stats`]. No clock
/// is involved; every field is a count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Messages delivered into the mailbox, matched or not.
    pub delivered: u64,
    /// Wake-ups addressed to a posted receive or probe: one per message
    /// handed over or status reported, one per waiter released by shutdown
    /// or by the last peer terminating. A delivery nobody has posted for
    /// adds nothing here.
    pub woken: u64,
    /// Times a blocked receive or probe woke up to find nothing addressed
    /// to it, with its deadline (if any) still ahead.
    pub empty_wakeups: u64,
    /// The most envelopes the unexpected queue has held at once.
    pub unexpected_high_water: usize,
    /// Envelopes in the unexpected queue right now: delivered, and not yet
    /// taken by any receive.
    pub queued: usize,
    /// Receives and probes blocked in the mailbox right now.
    pub posted: usize,
}

/// What a receive or probe is willing to match; `None` is a wildcard.
#[derive(Debug, Clone, Copy)]
struct Pattern {
    comm: CommId,
    source: Option<Rank>,
    tag: Option<Tag>,
}

impl Pattern {
    fn admits(&self, envelope: &MessageEnvelope) -> bool {
        envelope.matches(self.comm, self.source, self.tag)
    }
}

/// A posted receive (`T = Message`) or probe (`T = Status`): the pattern it
/// waits for, the slot its outcome is put in, and the parker of the one
/// thread blocked on it.
#[derive(Debug)]
struct Waiter<T> {
    pattern: Pattern,
    outcome: Mutex<Option<MpiResult<T>>>,
    parked: Condvar,
}

impl<T> Waiter<T> {
    /// Fill the slot. Called with the mailbox lock held and the record
    /// already off the posted list, so each waiter is completed once.
    fn complete(&self, outcome: MpiResult<T>) {
        *self.outcome.lock() = Some(outcome);
    }
}

/// Wake the threads of completed waiters. Called after the mailbox lock is
/// released, so a woken thread never runs into it.
fn wake<T>(completed: &[Arc<Waiter<T>>]) {
    for waiter in completed {
        waiter.parked.notify_one();
    }
}

/// Why a receive that nothing queued matches can never complete.
#[derive(Debug, Clone, Copy)]
enum Closed {
    /// The world was shut down.
    Shutdown,
    /// Every peer's rank function has returned.
    PeersGone,
}

impl Closed {
    fn error(self, owner: Rank, pattern: Pattern) -> MpiError {
        match self {
            Closed::Shutdown => MpiError::Finalized(owner),
            Closed::PeersGone => MpiError::PeerTerminated {
                peer: pattern.source.unwrap_or(usize::MAX),
                tag: pattern.tag,
            },
        }
    }
}

#[derive(Debug, Default)]
struct MailboxInner {
    /// Messages that arrived before a matching receive was posted, in
    /// arrival order.
    unexpected: VecDeque<MessageEnvelope>,
    /// Blocked receives no queued message matched, in posting order.
    receives: Vec<Arc<Waiter<Message>>>,
    /// Blocked probes no queued message matched.
    probes: Vec<Arc<Waiter<Status>>>,
    /// Set once the world is shutting down; pending receives fail instead of
    /// blocking forever.
    shutdown: bool,
    /// Number of peers that have terminated their rank function.
    terminated_peers: usize,
    /// Total number of peers (world size minus one).
    total_peers: usize,
    delivered: u64,
    woken: u64,
    unexpected_high_water: usize,
}

impl MailboxInner {
    fn take_message(&mut self, pattern: Pattern) -> Option<Message> {
        let idx = self.unexpected.iter().position(|e| pattern.admits(e))?;
        self.unexpected.remove(idx).map(MessageEnvelope::into_message)
    }

    fn peek_status(&self, pattern: Pattern) -> Option<Status> {
        self.unexpected.iter().find(|e| pattern.admits(e)).map(MessageEnvelope::probe_status)
    }

    fn closed(&self) -> Option<Closed> {
        if self.shutdown {
            Some(Closed::Shutdown)
        } else if self.total_peers > 0 && self.terminated_peers >= self.total_peers {
            Some(Closed::PeersGone)
        } else {
            None
        }
    }
}

/// A single rank's incoming-message store.
#[derive(Debug)]
pub struct Mailbox {
    owner: Rank,
    inner: Mutex<MailboxInner>,
    /// Counted outside the lock: a thread that wakes up empty-handed holds
    /// only its own waiter, and the count publishes nothing.
    empty_wakeups: AtomicU64,
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
            empty_wakeups: AtomicU64::new(0),
        })
    }

    /// Rank owning this mailbox.
    pub fn owner(&self) -> Rank {
        self.owner
    }

    /// Deliver an envelope into this mailbox: hand it to the first posted
    /// receive it matches and wake that one receiver, or — when no posted
    /// receive matches — queue it and wake nobody.
    pub fn deliver(&self, envelope: MessageEnvelope) {
        let mut inner = self.inner.lock();
        inner.delivered += 1;
        let mut probes = Vec::new();
        inner.probes.retain(|probe| {
            let admits = probe.pattern.admits(&envelope);
            if admits {
                probe.complete(Ok(envelope.probe_status()));
                probes.push(Arc::clone(probe));
            }
            !admits
        });
        let receive = inner
            .receives
            .iter()
            .position(|receive| receive.pattern.admits(&envelope))
            .map(|idx| inner.receives.remove(idx));
        match &receive {
            Some(receive) => receive.complete(Ok(envelope.into_message())),
            None => {
                inner.unexpected.push_back(envelope);
                inner.unexpected_high_water =
                    inner.unexpected_high_water.max(inner.unexpected.len());
            }
        }
        inner.woken += probes.len() as u64 + u64::from(receive.is_some());
        drop(inner);
        wake(&probes);
        wake(receive.as_slice());
    }

    /// Record that a peer rank has finished executing. Used to fail blocked
    /// receives that can never be satisfied instead of deadlocking.
    pub fn peer_terminated(&self) {
        let mut inner = self.inner.lock();
        inner.terminated_peers += 1;
        self.release_posted(inner);
    }

    /// Mark the world as shut down; all blocked receives return an error.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock();
        inner.shutdown = true;
        self.release_posted(inner);
    }

    /// Once the mailbox is closed, fail every posted receive and probe with
    /// the error a new one would get, and wake each of them.
    fn release_posted(&self, mut inner: MutexGuard<'_, MailboxInner>) {
        let Some(closed) = inner.closed() else { return };
        let receives = std::mem::take(&mut inner.receives);
        let probes = std::mem::take(&mut inner.probes);
        for receive in &receives {
            receive.complete(Err(closed.error(self.owner, receive.pattern)));
        }
        for probe in &probes {
            probe.complete(Err(closed.error(self.owner, probe.pattern)));
        }
        inner.woken += (receives.len() + probes.len()) as u64;
        drop(inner);
        wake(&receives);
        wake(&probes);
    }

    /// The mailbox's traffic counters.
    pub fn stats(&self) -> MailboxStats {
        let inner = self.inner.lock();
        MailboxStats {
            delivered: inner.delivered,
            woken: inner.woken,
            empty_wakeups: self.empty_wakeups.load(Ordering::Relaxed),
            unexpected_high_water: inner.unexpected_high_water,
            queued: inner.unexpected.len(),
            posted: inner.receives.len() + inner.probes.len(),
        }
    }

    /// Non-blocking receive: remove and return the first matching message.
    pub fn try_recv(
        &self,
        comm: CommId,
        source: Option<Rank>,
        tag: Option<Tag>,
    ) -> Option<Message> {
        self.inner.lock().take_message(Pattern { comm, source, tag })
    }

    /// Blocking receive: wait until a matching message arrives.
    ///
    /// Returns [`MpiError::Finalized`] if the world shuts down first, or
    /// [`MpiError::PeerTerminated`] if every peer has terminated while the
    /// receive is still unmatched (the message can never arrive).
    pub fn recv(&self, comm: CommId, source: Option<Rank>, tag: Option<Tag>) -> MpiResult<Message> {
        let pattern = Pattern { comm, source, tag };
        self.wait(pattern, None, MailboxInner::take_message, |inner| &mut inner.receives)
    }

    /// [`Mailbox::recv`] with an upper bound on the wait: returns
    /// [`MpiError::Timeout`] when no matching message has arrived within
    /// `timeout`. Shutdown and peer-termination are still reported with
    /// their own errors, exactly as in the untimed receive. A message
    /// handed over at the very moment the wait runs out is returned, not
    /// lost.
    pub fn recv_timeout(
        &self,
        comm: CommId,
        source: Option<Rank>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> MpiResult<Message> {
        let pattern = Pattern { comm, source, tag };
        self.wait(pattern, Some(timeout), MailboxInner::take_message, |inner| &mut inner.receives)
    }

    /// Non-blocking probe: status of the first matching message, without
    /// removing it from the queue.
    pub fn iprobe(&self, comm: CommId, source: Option<Rank>, tag: Option<Tag>) -> Option<Status> {
        self.inner.lock().peek_status(Pattern { comm, source, tag })
    }

    /// Blocking probe: wait until a matching message is available and report
    /// its status without consuming it.
    pub fn probe(&self, comm: CommId, source: Option<Rank>, tag: Option<Tag>) -> MpiResult<Status> {
        let pattern = Pattern { comm, source, tag };
        self.wait(
            pattern,
            None,
            |inner, pattern| inner.peek_status(pattern),
            |inner| &mut inner.probes,
        )
    }

    /// The blocking half of the engine, shared by receives and probes:
    /// `scan` the unexpected queue; if nothing matches and the mailbox is
    /// still open, post a waiter on the list `posted` selects and sleep on
    /// it until a delivery, a close or the `timeout` completes it.
    fn wait<T>(
        &self,
        pattern: Pattern,
        timeout: Option<Duration>,
        scan: fn(&mut MailboxInner, Pattern) -> Option<T>,
        posted: fn(&mut MailboxInner) -> &mut Vec<Arc<Waiter<T>>>,
    ) -> MpiResult<T> {
        let timed_out = MpiError::Timeout { source: pattern.source, tag: pattern.tag };
        // A time-out too long to represent is no time-out.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let waiter = {
            let mut inner = self.inner.lock();
            if let Some(found) = scan(&mut inner, pattern) {
                return Ok(found);
            }
            if let Some(closed) = inner.closed() {
                return Err(closed.error(self.owner, pattern));
            }
            let waiter =
                Arc::new(Waiter { pattern, outcome: Mutex::new(None), parked: Condvar::new() });
            posted(&mut inner).push(Arc::clone(&waiter));
            waiter
        };
        if let Some(outcome) = self.park(&waiter, deadline) {
            return outcome;
        }
        // The deadline passed. Withdraw the posting — unless a delivery or
        // a close took it off the list first, in which case the outcome it
        // filled in under the same lock is ours and must not be dropped.
        let mut inner = self.inner.lock();
        let list = posted(&mut inner);
        if let Some(idx) = list.iter().position(|w| Arc::ptr_eq(w, &waiter)) {
            list.remove(idx);
            return Err(timed_out);
        }
        drop(inner);
        let outcome = waiter.outcome.lock().take();
        outcome.unwrap_or(Err(timed_out))
    }

    /// Sleep on `waiter` until it is completed (`Some`) or `deadline`
    /// passes (`None`).
    fn park<T>(&self, waiter: &Waiter<T>, deadline: Option<Instant>) -> Option<MpiResult<T>> {
        let mut outcome = waiter.outcome.lock();
        let mut woke = false;
        loop {
            if let Some(done) = outcome.take() {
                return Some(done);
            }
            let left = deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return None;
            }
            if woke {
                self.empty_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            match left {
                Some(left) => {
                    waiter.parked.wait_for(&mut outcome, left);
                }
                None => waiter.parked.wait(&mut outcome),
            }
            woke = true;
        }
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
        assert_eq!(mb.stats().queued, 0);
    }

    #[test]
    fn delivery_then_matching_receive() {
        let mb = Mailbox::new(0, 2);
        mb.deliver(env(1, 5, 0, 0, vec![42]));
        assert_eq!(mb.stats().queued, 1);
        let m = mb.try_recv(CommId(0), Some(1), Some(Tag(5))).unwrap();
        assert_eq!(m.data, vec![42]);
        assert_eq!(mb.stats().queued, 0);
    }

    #[test]
    fn non_matching_messages_are_left_in_place() {
        let mb = Mailbox::new(0, 3);
        mb.deliver(env(1, 5, 0, 0, vec![1]));
        mb.deliver(env(2, 6, 0, 0, vec![2]));
        let m = mb.try_recv(CommId(0), Some(2), None).unwrap();
        assert_eq!(m.data, vec![2]);
        assert_eq!(mb.stats().queued, 1);
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
        assert_eq!(mb.stats().queued, 1);
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

    /// Spin (no clock) until exactly `n` receives or probes are blocked.
    fn until_posted(mb: &Mailbox, n: usize) {
        while mb.stats().posted != n {
            thread::yield_now();
        }
    }

    fn recv_in_thread(mb: &Arc<Mailbox>, tag: u64) -> thread::JoinHandle<MpiResult<Message>> {
        let mb = Arc::clone(mb);
        thread::spawn(move || mb.recv(CommId(0), Some(1), Some(Tag(tag))))
    }

    #[test]
    fn a_message_wakes_the_one_receiver_it_matches_and_nobody_else() {
        const MESSAGES: u64 = 1_000;
        let mb = Mailbox::new(0, 2);
        let (b, c) = (recv_in_thread(&mb, 11), recv_in_thread(&mb, 12));
        let mb2 = Arc::clone(&mb);
        let a = thread::spawn(move || {
            for i in 0..MESSAGES {
                let m = mb2.recv(CommId(0), Some(1), Some(Tag(10))).unwrap();
                assert_eq!(m.data, i.to_le_bytes());
            }
        });
        until_posted(&mb, 3);
        for i in 0..MESSAGES {
            mb.deliver(env(1, 10, 0, i, i.to_le_bytes().to_vec()));
        }
        a.join().unwrap();
        let stats = mb.stats();
        assert_eq!(stats.delivered, MESSAGES);
        // The looping receiver is woken for a message at most once, and not
        // at all for one it finds queued; the other two are never woken.
        assert!((1..=MESSAGES).contains(&stats.woken), "{stats:?}");
        assert_eq!(stats.empty_wakeups, 0);
        assert_eq!(stats.posted, 2);
        assert!(!b.is_finished() && !c.is_finished());
        mb.deliver(env(1, 11, 0, 0, vec![11]));
        mb.deliver(env(1, 12, 0, 0, vec![12]));
        assert_eq!(b.join().unwrap().unwrap().data, vec![11]);
        assert_eq!(c.join().unwrap().unwrap().data, vec![12]);
        let after = mb.stats();
        assert_eq!((after.woken, after.empty_wakeups, after.posted), (stats.woken + 2, 0, 0));
    }

    #[test]
    fn a_delivery_nobody_posted_for_wakes_nobody() {
        let mb = Mailbox::new(0, 2);
        let waiting = recv_in_thread(&mb, 10);
        until_posted(&mb, 1);
        mb.deliver(env(1, 99, 0, 0, vec![1]));
        mb.deliver(env(1, 99, 0, 1, vec![2]));
        // Nothing below depends on this pause; it only gives an engine that
        // did wake the receiver the time to count it.
        thread::sleep(Duration::from_millis(20));
        let stats = mb.stats();
        assert_eq!((stats.delivered, stats.woken, stats.posted), (2, 0, 1));
        assert_eq!((stats.queued, stats.unexpected_high_water), (2, 2));
        mb.deliver(env(1, 10, 0, 0, vec![3]));
        assert_eq!(waiting.join().unwrap().unwrap().data, vec![3]);
        // Read after the receiver has returned, so an engine that had woken
        // it for the two strangers would have counted that by now.
        let stats = mb.stats();
        assert_eq!((stats.delivered, stats.woken, stats.empty_wakeups), (3, 1, 0));
        assert_eq!((stats.queued, stats.unexpected_high_water), (2, 2));
    }

    #[test]
    fn a_posted_probe_learns_of_the_message_and_leaves_it_for_a_receive() {
        let mb = Mailbox::new(0, 2);
        let mb2 = Arc::clone(&mb);
        let probe = thread::spawn(move || mb2.probe(CommId(0), None, Some(Tag(4))));
        until_posted(&mb, 1);
        mb.deliver(env(1, 4, 0, 0, vec![1, 2, 3]));
        let status = probe.join().unwrap().unwrap();
        assert_eq!((status.source, status.tag, status.len), (1, Tag(4), 3));
        assert_eq!(mb.stats().queued, 1);
        assert_eq!(mb.try_recv(CommId(0), Some(1), Some(Tag(4))).unwrap().data, vec![1, 2, 3]);
        // With a receive posted too, the probe still sees the message and
        // the receive gets it.
        let mb2 = Arc::clone(&mb);
        let probe = thread::spawn(move || mb2.probe(CommId(0), Some(1), None));
        let recv = recv_in_thread(&mb, 4);
        until_posted(&mb, 2);
        mb.deliver(env(1, 4, 0, 1, vec![9]));
        assert_eq!(probe.join().unwrap().unwrap().len, 1);
        assert_eq!(recv.join().unwrap().unwrap().data, vec![9]);
        assert_eq!((mb.stats().queued, mb.stats().woken), (0, 3));
    }

    #[test]
    fn a_receive_that_times_out_withdraws_its_posting() {
        let mb = Mailbox::new(0, 2);
        let t0 = Instant::now();
        let err = mb.recv_timeout(CommId(0), Some(1), Some(Tag(1)), Duration::from_millis(20));
        assert_eq!(err, Err(MpiError::Timeout { source: Some(1), tag: Some(Tag(1)) }));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(mb.stats().posted, 0);
        // The next message is not handed to the receive that gave up.
        mb.deliver(env(1, 1, 0, 0, vec![5]));
        assert_eq!((mb.stats().queued, mb.stats().woken), (1, 0));
        let zero = mb.recv_timeout(CommId(0), Some(1), Some(Tag(2)), Duration::ZERO);
        assert!(matches!(zero, Err(MpiError::Timeout { .. })));
        // A time-out too long for the clock to represent waits like `recv`.
        let m = mb.recv_timeout(CommId(0), Some(1), Some(Tag(1)), Duration::MAX).unwrap();
        assert_eq!(m.data, vec![5]);
    }

    /// One seeded run of the hand-off stress: `close` ends it either by
    /// shutdown or by the last peer terminating.
    fn stress(seed: u64, shutdown: bool) {
        use ompc_testutil::Rng;
        use std::collections::{BTreeMap, BTreeSet};
        use std::sync::atomic::AtomicUsize;

        const PRODUCERS: usize = 3;
        const PER_PRODUCER: u64 = 300;
        const TAGS: u64 = 3;
        const COMMS: u32 = 2;
        // (communicator, source, tag) patterns: exact, half-wild and wild. The
        // last two between them match everything, so every message has a taker.
        let patterns: [(u32, Option<Rank>, Option<u64>); 6] = [
            (0, Some(1), Some(0)),
            (0, None, Some(1)),
            (0, Some(2), None),
            (1, Some(3), Some(2)),
            (0, None, None),
            (1, None, None),
        ];
        type Key = (Rank, u64, u32);

        let mb = Mailbox::new(0, PRODUCERS + 1);
        let received = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = patterns
            .iter()
            .enumerate()
            .map(|(k, &(comm, source, tag))| {
                let (mb, received) = (Arc::clone(&mb), Arc::clone(&received));
                let (comm, tag) = (CommId(comm), tag.map(Tag));
                thread::spawn(move || {
                    let mut rng = Rng::new(seed * 31 + k as u64);
                    let mut got: Vec<(Key, u64)> = Vec::new();
                    let closed = loop {
                        let outcome = match rng.range(0, 4) {
                            0 => mb
                                .try_recv(comm, source, tag)
                                .ok_or(MpiError::Timeout { source, tag }),
                            1 => mb.recv(comm, source, tag),
                            _ => {
                                let wait = Duration::from_micros(rng.range(0, 200));
                                mb.recv_timeout(comm, source, tag, wait)
                            }
                        };
                        match outcome {
                            Ok(m) => {
                                let seq = u64::from_le_bytes(m.data[..8].try_into().unwrap());
                                got.push(((m.source(), m.tag().0, m.status.comm.0), seq));
                                received.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(MpiError::Timeout { .. }) => {}
                            Err(closed) => break closed,
                        }
                    };
                    (got, closed)
                })
            })
            .collect();
        // A probe that never consumes: it may be woken by any delivery on
        // communicator 0 and must not take anything away from the receives.
        let prober = {
            let mb = Arc::clone(&mb);
            thread::spawn(move || loop {
                match mb.probe(CommId(0), None, None) {
                    Ok(status) => assert_eq!(status.len, 8, "seed {seed}"),
                    Err(closed) => break closed,
                }
                thread::yield_now();
            })
        };
        let producers: Vec<_> = (1..=PRODUCERS)
            .map(|source| {
                let mb = Arc::clone(&mb);
                thread::spawn(move || {
                    let mut rng = Rng::new(seed * 17 + source as u64);
                    let mut next: BTreeMap<Key, u64> = BTreeMap::new();
                    for _ in 0..PER_PRODUCER {
                        let key = (source, rng.range(0, TAGS), rng.range(0, COMMS as u64) as u32);
                        let seq = next.entry(key).or_default();
                        mb.deliver(env(source, key.1, key.2, *seq, seq.to_le_bytes().to_vec()));
                        *seq += 1;
                        if rng.range(0, 8) == 0 {
                            thread::yield_now();
                        }
                    }
                    next
                })
            })
            .collect();
        let mut sent: BTreeMap<Key, u64> = BTreeMap::new();
        for p in producers {
            sent.extend(p.join().unwrap_or_else(|_| panic!("seed {seed}: a producer panicked")));
        }
        let total = PRODUCERS * PER_PRODUCER as usize;
        while received.load(Ordering::SeqCst) < total {
            thread::yield_now();
        }
        if shutdown {
            mb.shutdown();
        } else {
            (0..PRODUCERS).for_each(|_| mb.peer_terminated());
        }
        let closed_as = |source: Option<Rank>, tag: Option<Tag>| match shutdown {
            true => MpiError::Finalized(0),
            false => MpiError::PeerTerminated { peer: source.unwrap_or(usize::MAX), tag },
        };
        let mut seen: BTreeSet<(Key, u64)> = BTreeSet::new();
        for (consumer, &(_, source, tag)) in consumers.into_iter().zip(&patterns) {
            let (got, closed) =
                consumer.join().unwrap_or_else(|_| panic!("seed {seed}: a consumer panicked"));
            assert_eq!(closed, closed_as(source, tag.map(Tag)), "seed {seed}");
            let mut last: BTreeMap<Key, u64> = BTreeMap::new();
            for (key, seq) in got {
                if let Some(before) = last.insert(key, seq) {
                    assert!(before < seq, "seed {seed}: {key:?} received {seq} after {before}");
                }
                assert!(seen.insert((key, seq)), "seed {seed}: {key:?} #{seq} received twice");
            }
        }
        let closed = prober.join().unwrap_or_else(|_| panic!("seed {seed}: the prober panicked"));
        assert_eq!(closed, closed_as(None, None), "seed {seed}");
        let expected: BTreeSet<(Key, u64)> =
            sent.iter().flat_map(|(&key, &n)| (0..n).map(move |seq| (key, seq))).collect();
        assert_eq!(seen, expected, "seed {seed}: a message was lost");
        let stats = mb.stats();
        assert_eq!(
            (stats.delivered, stats.posted, stats.queued),
            (total as u64, 0, 0),
            "seed {seed}"
        );
    }

    #[test]
    fn seeded_stress_every_message_is_received_once_in_order_and_every_poster_is_released() {
        ompc_testutil::with_timeout(Duration::from_secs(120), || {
            for seed in 0..24 {
                stress(seed, seed % 2 == 0);
            }
        });
    }
}
