//! Communicator handles: the per-rank API for point-to-point communication.

use crate::bytes::Bytes;
use crate::error::{MpiError, MpiResult};
use crate::mailbox::{Mailbox, MailboxStats, PostedRecv, RecvGroup};
use crate::message::{Message, MessageEnvelope};
use crate::types::{Rank, Status, Tag};
use crate::world::WorldInner;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A rank's handle on the world communicator.
///
/// Clones share the underlying world, so a single rank may hand communicator
/// handles to several of its threads (the members of an OMPC worker's event
/// pool do exactly this). All operations are thread-safe.
#[derive(Debug, Clone)]
pub struct Communicator {
    world: Arc<WorldInner>,
    rank: Rank,
}

impl Communicator {
    pub(crate) fn new(world: Arc<WorldInner>, rank: Rank) -> Self {
        Self { world, rank }
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.world.size
    }

    fn mailbox_of(&self, rank: Rank) -> MpiResult<&Arc<Mailbox>> {
        self.world
            .mailboxes
            .get(rank)
            .ok_or(MpiError::InvalidRank { rank, world_size: self.world.size })
    }

    fn own_mailbox(&self) -> &Arc<Mailbox> {
        &self.world.mailboxes[self.rank]
    }

    /// Buffered (eager) send: the payload is moved into the destination
    /// mailbox and the call returns immediately, like `MPI_Send` with an
    /// eager protocol. A `Vec<u8>` becomes the message's [`Bytes`] header
    /// without a copy.
    pub fn send(&self, dest: Rank, tag: Tag, data: impl Into<Bytes>) -> MpiResult<()> {
        self.send_parts(dest, tag, data.into(), None)
    }

    /// [`Communicator::send`] a two-part message: a small `header` plus a
    /// shared `body` that is delivered as the very handle passed here — no
    /// byte of it is copied on the way. The emulated link is occupied for
    /// the length of both parts, exactly as for an owned payload that long.
    pub fn send_with_body(
        &self,
        dest: Rank,
        tag: Tag,
        header: impl Into<Bytes>,
        body: Bytes,
    ) -> MpiResult<()> {
        self.send_parts(dest, tag, header.into(), Some(body))
    }

    /// Send `messages` — each a destination, a tag, a header and an optional
    /// body, as [`Communicator::send_with_body`] takes them — as one
    /// delivery: every message is in its mailbox before any receiver it
    /// completes is woken, so a receiver woken by one finds the others there
    /// already instead of preempting the sender between two sends. Stops at
    /// the first bad rank; what was delivered before it is woken all the
    /// same. The headers may be slices of one frame the sender wrote them
    /// all into: each is delivered as the handle given, no byte copied.
    pub fn send_all(
        &self,
        messages: impl IntoIterator<Item = (Rank, Tag, Bytes, Option<Bytes>)>,
    ) -> MpiResult<()> {
        // Most batches wake one receiver, the head: it needs no list.
        let (mut first, mut wakes) = (None, Vec::new());
        let mut sent = Ok(());
        for (dest, tag, payload, body) in messages {
            match self.envelope(dest, tag, payload, body) {
                Ok((mailbox, envelope)) => {
                    let wake = mailbox.deliver_unwoken(envelope);
                    match first {
                        _ if wake.is_empty() => {}
                        None => first = Some(wake),
                        Some(_) => wakes.push(wake),
                    }
                }
                Err(error) => {
                    sent = Err(error);
                    break;
                }
            }
        }
        first.into_iter().chain(wakes).for_each(|wake| wake.wake());
        sent
    }

    fn send_parts(
        &self,
        dest: Rank,
        tag: Tag,
        payload: Bytes,
        body: Option<Bytes>,
    ) -> MpiResult<()> {
        let (mailbox, envelope) = self.envelope(dest, tag, payload, body)?;
        mailbox.deliver(envelope);
        Ok(())
    }

    /// The message to `dest`, sequenced and paced, with the mailbox it goes to.
    fn envelope(
        &self,
        dest: Rank,
        tag: Tag,
        payload: Bytes,
        body: Option<Bytes>,
    ) -> MpiResult<(&Arc<Mailbox>, MessageEnvelope)> {
        let mailbox = self.mailbox_of(dest)?;
        let len = payload.len() + body.as_ref().map_or(0, |b| b.len());
        self.world.pace_egress(self.rank, len);
        let seq = self.world.rank_states[self.rank].send_seq[dest].fetch_add(1, Ordering::Relaxed);
        Ok((mailbox, MessageEnvelope { source: self.rank, dest, tag, seq, payload, body }))
    }

    fn check_source(&self, source: Option<Rank>) -> MpiResult<()> {
        match source {
            Some(s) if s >= self.world.size => {
                Err(MpiError::InvalidRank { rank: s, world_size: self.world.size })
            }
            _ => Ok(()),
        }
    }

    /// Blocking receive matching `(source, tag)`; `None` is a wildcard.
    pub fn recv(&self, source: Option<Rank>, tag: Option<Tag>) -> MpiResult<Message> {
        self.check_source(source)?;
        self.own_mailbox().recv(source, tag)
    }

    /// Post a receive of `group` matching `(source, tag)` and return at once
    /// (`MPI_Irecv`); [`PostedRecv::wait`] yields the message and its match
    /// index, and [`PostedRecv::restart`] posts it again. The most recently
    /// posted receive of a group is matched first, and the group numbers its
    /// matches 0, 1, 2, … in the order this rank's mailbox made them. A
    /// worker's event pool keeps one per member, posted whenever the member
    /// is idle.
    pub fn irecv_in(
        &self,
        source: Option<Rank>,
        tag: Option<Tag>,
        group: &RecvGroup,
    ) -> MpiResult<PostedRecv> {
        self.check_source(source)?;
        Ok(self.own_mailbox().post_grouped(source, tag, group))
    }

    /// Close `group` on this rank's mailbox: every receive it has posted is
    /// released with [`MpiError::GroupClosed`], and so is every later one.
    pub fn close_group(&self, group: &RecvGroup) {
        self.own_mailbox().close_group(group);
    }

    /// Blocking receive with an upper bound on the wait; returns
    /// [`MpiError::Timeout`] when no matching message arrives in time. The
    /// OMPC event system uses this as a last line of defence against a
    /// reply that can never arrive (a worker thread that died mid-event).
    pub fn recv_timeout(
        &self,
        source: Option<Rank>,
        tag: Option<Tag>,
        timeout: std::time::Duration,
    ) -> MpiResult<Message> {
        self.check_source(source)?;
        self.own_mailbox().recv_timeout(source, tag, timeout)
    }

    /// Non-blocking receive attempt; returns `None` when no matching message
    /// is queued.
    pub fn try_recv(&self, source: Option<Rank>, tag: Option<Tag>) -> Option<Message> {
        self.own_mailbox().try_recv(source, tag)
    }

    /// Blocking probe: wait for a matching message and report its status
    /// without consuming it.
    pub fn probe(&self, source: Option<Rank>, tag: Option<Tag>) -> MpiResult<Status> {
        self.own_mailbox().probe(source, tag)
    }

    /// Non-blocking probe.
    pub fn iprobe(&self, source: Option<Rank>, tag: Option<Tag>) -> Option<Status> {
        self.own_mailbox().iprobe(source, tag)
    }

    /// Traffic counters of this rank's mailbox: messages delivered,
    /// receivers woken, empty wake-ups, the unexpected queue's high-water
    /// mark and depth, and the receives blocked right now. Reads no clock
    /// and changes nothing.
    pub fn mailbox_stats(&self) -> MailboxStats {
        self.own_mailbox().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn invalid_destination_is_reported() {
        let w = World::new(2);
        let c = w.communicator(0);
        let err = c.send(5, Tag(0), vec![]).unwrap_err();
        assert_eq!(err, MpiError::InvalidRank { rank: 5, world_size: 2 });
    }

    /// One delivery of several messages: a receive posted for the first is
    /// woken only once all of them are in their mailboxes, a body arrives as
    /// the allocation sent, and a bad rank stops the batch after what was
    /// already delivered.
    #[test]
    fn a_batch_is_delivered_whole_before_its_receivers_wake() {
        let w = World::new(3);
        let (c0, c1) = (w.communicator(0), w.communicator(1));
        let body = Bytes::from(vec![7u8; 64]);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let first = c1.recv(Some(0), Some(Tag(1))).unwrap();
                (first, c1.try_recv(Some(0), Some(Tag(2))))
            });
            while c1.mailbox_stats().posted == 0 {
                std::thread::yield_now();
            }
            let batch = [
                (1, Tag(1), vec![1].into(), None),
                (1, Tag(2), vec![2].into(), Some(body.clone())),
                (2, Tag(3), vec![3].into(), None),
            ];
            c0.send_all(batch).unwrap();
            let (first, second) = waiter.join().unwrap();
            assert_eq!(first.data, vec![1]);
            let second = second.expect("the second message was there when the first woke");
            assert!(second.body.is_some_and(|b| b.same_allocation(&body)));
        });
        assert_eq!(w.communicator(2).try_recv(Some(0), Some(Tag(3))).unwrap().data, vec![3]);
        let bad =
            [4, 5, 6].map(|n| (if n == 5 { 9 } else { 1 }, Tag(n), vec![n as u8].into(), None));
        assert_eq!(c0.send_all(bad), Err(MpiError::InvalidRank { rank: 9, world_size: 3 }));
        assert!(c1.try_recv(Some(0), Some(Tag(4))).is_some());
        assert!(c1.try_recv(Some(0), Some(Tag(6))).is_none(), "nothing after the bad rank");
    }

    #[test]
    fn wildcard_receive_sees_any_sender() {
        let w = World::new(3);
        let c0 = w.communicator(0);
        w.communicator(1).send(0, Tag(4), vec![1]).unwrap();
        w.communicator(2).send(0, Tag(4), vec![2]).unwrap();
        let a = c0.recv(None, Some(Tag(4))).unwrap();
        let b = c0.recv(None, Some(Tag(4))).unwrap();
        let mut sources = vec![a.source(), b.source()];
        sources.sort_unstable();
        assert_eq!(sources, vec![1, 2]);
    }

    #[test]
    fn a_body_is_delivered_as_the_allocation_that_was_sent() {
        let w = World::new(3);
        let c0 = w.communicator(0);
        let body = Bytes::from(vec![5u8; 4096]);
        // One payload to two ranks: three holders, one block.
        c0.send_with_body(1, Tag(3), vec![1, 2], body.clone()).unwrap();
        c0.send_with_body(2, Tag(3), Vec::new(), body.clone()).unwrap();
        let c1 = w.communicator(1);
        // Probes and the delivered status count header + body.
        assert_eq!(c1.iprobe(Some(0), Some(Tag(3))).unwrap().len, 2 + 4096);
        assert_eq!(c1.probe(Some(0), Some(Tag(3))).unwrap().len, 2 + 4096);
        let m1 = c1.recv(Some(0), Some(Tag(3))).unwrap();
        assert_eq!((m1.len(), m1.status.len, &m1.data[..]), (4098, 4098, &[1u8, 2][..]));
        let m2 = w.communicator(2).try_recv(Some(0), Some(Tag(3))).unwrap();
        assert_eq!((m2.len(), m2.data.len()), (4096, 0));
        for received in [m1.body.unwrap(), m2.body.unwrap()] {
            assert!(received.same_allocation(&body));
            assert_eq!(received.as_ptr(), body.as_ptr());
        }
        // A plain send has no body.
        c0.send(1, Tag(4), vec![7]).unwrap();
        assert_eq!(c1.recv(Some(0), Some(Tag(4))).unwrap().body, None);
    }

    #[test]
    fn a_paced_link_charges_a_body_like_an_owned_payload_of_that_length() {
        // 10 000 bytes over 1 MB/s occupy the link for 10 ms, whichever part
        // of the message they travel in. `thread::sleep` never returns
        // early, so the bound cannot fail on a slow machine — but a body
        // that was not charged returns in microseconds.
        let wire = std::time::Duration::from_millis(10);
        let sends: [fn(&Communicator); 2] = [
            |c| c.send(1, Tag(1), vec![0u8; 10_000]).unwrap(),
            |c| c.send_with_body(1, Tag(1), vec![0u8; 8], vec![0u8; 9_992].into()).unwrap(),
        ];
        for send in sends {
            let w = World::new(2);
            w.set_link_bandwidth(1_000_000);
            let t0 = std::time::Instant::now();
            send(&w.communicator(0));
            assert!(t0.elapsed() >= wire, "sent 10 000 bytes in {:?}", t0.elapsed());
            assert_eq!(w.communicator(1).recv(Some(0), Some(Tag(1))).unwrap().len(), 10_000);
        }
    }
}
