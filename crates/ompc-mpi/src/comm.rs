//! Communicator handles: the per-rank API for point-to-point communication.

use crate::bytes::Bytes;
use crate::error::{MpiError, MpiResult};
use crate::mailbox::{Mailbox, MailboxStats};
use crate::message::{Message, MessageEnvelope};
use crate::types::{CommId, Rank, Status, Tag};
use crate::world::WorldInner;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A rank's handle on one communicator.
///
/// Clones share the underlying world, so a single rank may hand communicator
/// handles to several of its threads (the OMPC gate thread and event-handler
/// pool do exactly this). All operations are thread-safe.
#[derive(Debug, Clone)]
pub struct Communicator {
    world: Arc<WorldInner>,
    rank: Rank,
    comm: CommId,
}

impl Communicator {
    pub(crate) fn new(world: Arc<WorldInner>, rank: Rank, comm: CommId) -> Self {
        Self { world, rank, comm }
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.world.size
    }

    /// Identifier of the communicator this handle operates on.
    pub fn comm_id(&self) -> CommId {
        self.comm
    }

    /// Number of communicators available in the world.
    pub fn num_communicators(&self) -> u32 {
        self.world.num_comms
    }

    /// Return a handle on a different communicator of the same world, used
    /// by the event system to spread events over independent channels.
    pub fn on(&self, comm: CommId) -> MpiResult<Communicator> {
        if comm.0 >= self.world.num_comms {
            return Err(MpiError::InvalidCommunicator(comm));
        }
        Ok(Communicator { world: Arc::clone(&self.world), rank: self.rank, comm })
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
    /// eager protocol.
    pub fn send(&self, dest: Rank, tag: Tag, data: Vec<u8>) -> MpiResult<()> {
        self.send_parts(dest, tag, data, None)
    }

    /// [`Communicator::send`] a two-part message: a small `header` plus a
    /// shared `body` that is delivered as the very handle passed here — no
    /// byte of it is copied on the way. The emulated link is occupied for
    /// the length of both parts, exactly as for an owned payload that long.
    pub fn send_with_body(
        &self,
        dest: Rank,
        tag: Tag,
        header: Vec<u8>,
        body: Bytes,
    ) -> MpiResult<()> {
        self.send_parts(dest, tag, header, Some(body))
    }

    fn send_parts(
        &self,
        dest: Rank,
        tag: Tag,
        payload: Vec<u8>,
        body: Option<Bytes>,
    ) -> MpiResult<()> {
        let mailbox = self.mailbox_of(dest)?;
        let len = payload.len() + body.as_ref().map_or(0, |b| b.len());
        self.world.pace_egress(self.rank, len);
        let seq = self.world.rank_states[self.rank].send_seq[dest].fetch_add(1, Ordering::Relaxed);
        mailbox.deliver(MessageEnvelope {
            source: self.rank,
            dest,
            tag,
            comm: self.comm,
            seq,
            payload,
            body,
        });
        Ok(())
    }

    /// Blocking receive matching `(source, tag)`; `None` is a wildcard.
    pub fn recv(&self, source: Option<Rank>, tag: Option<Tag>) -> MpiResult<Message> {
        if let Some(s) = source {
            if s >= self.world.size {
                return Err(MpiError::InvalidRank { rank: s, world_size: self.world.size });
            }
        }
        self.own_mailbox().recv(self.comm, source, tag)
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
        if let Some(s) = source {
            if s >= self.world.size {
                return Err(MpiError::InvalidRank { rank: s, world_size: self.world.size });
            }
        }
        self.own_mailbox().recv_timeout(self.comm, source, tag, timeout)
    }

    /// Non-blocking receive attempt; returns `None` when no matching message
    /// is queued.
    pub fn try_recv(&self, source: Option<Rank>, tag: Option<Tag>) -> Option<Message> {
        self.own_mailbox().try_recv(self.comm, source, tag)
    }

    /// Blocking probe: wait for a matching message and report its status
    /// without consuming it. The gate thread uses this with wildcards to
    /// discover new-event notifications.
    pub fn probe(&self, source: Option<Rank>, tag: Option<Tag>) -> MpiResult<Status> {
        self.own_mailbox().probe(self.comm, source, tag)
    }

    /// Non-blocking probe.
    pub fn iprobe(&self, source: Option<Rank>, tag: Option<Tag>) -> Option<Status> {
        self.own_mailbox().iprobe(self.comm, source, tag)
    }

    /// Traffic counters of this rank's mailbox, all communicators together:
    /// messages delivered, receivers woken, empty wake-ups, the unexpected
    /// queue's high-water mark and depth, and the receives blocked right
    /// now. Reads no clock and changes nothing.
    pub fn mailbox_stats(&self) -> MailboxStats {
        self.own_mailbox().stats()
    }

    /// Convenience: send `data` to `dest` and block until a reply with the
    /// same tag arrives from `dest`.
    pub fn send_recv(&self, dest: Rank, tag: Tag, data: Vec<u8>) -> MpiResult<Message> {
        self.send(dest, tag, data)?;
        self.recv(Some(dest), Some(tag))
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

    #[test]
    fn invalid_communicator_is_reported() {
        let w = World::with_communicators(2, 2);
        let c = w.communicator(0);
        assert!(c.on(CommId(1)).is_ok());
        assert_eq!(c.on(CommId(7)).unwrap_err(), MpiError::InvalidCommunicator(CommId(7)));
    }

    #[test]
    fn send_recv_round_trip_between_threads() {
        let w = World::new(2);
        let handles: Vec<_> = w
            .launch(|c| {
                if c.rank() == 0 {
                    let reply = c.send_recv(1, Tag(9), vec![1]).unwrap();
                    assert_eq!(reply.data, vec![2]);
                } else {
                    let m = c.recv(Some(0), Some(Tag(9))).unwrap();
                    assert_eq!(m.data, vec![1]);
                    c.send(0, Tag(9), vec![2]).unwrap();
                }
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
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

    #[test]
    fn messages_on_other_communicators_are_invisible() {
        let w = World::with_communicators(2, 2);
        let c0 = w.communicator(0).on(CommId(1)).unwrap();
        let c1_world = w.communicator(1);
        c0.send(1, Tag(5), vec![9]).unwrap();
        assert!(c1_world.try_recv(None, None).is_none());
        let c1_other = c1_world.on(CommId(1)).unwrap();
        assert_eq!(c1_other.recv(None, None).unwrap().data, vec![9]);
    }
}
