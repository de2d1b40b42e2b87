//! Message envelope and the matching rules used by the mailboxes.
//!
//! A message has two parts: a small owned header (`data`) and at most one
//! shared [`Bytes`] body. Control traffic is header only; bulk payloads
//! travel as the body, so a sender never assembles a frame around them and a
//! receiver never takes one apart — the body handle that was sent is the
//! body handle that is received. Lengths ([`Status::len`], link pacing) count
//! both parts.

use crate::bytes::Bytes;
use crate::types::{CommId, Rank, Status, Tag};

/// A received message: header and optional body plus the status describing
/// where it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Completion information (source, tag, length, communicator).
    pub status: Status,
    /// The header bytes — the whole message for anything sent with
    /// [`crate::Communicator::send`].
    pub data: Vec<u8>,
    /// The shared body, when the message was sent with
    /// [`crate::Communicator::send_with_body`].
    pub body: Option<Bytes>,
}

impl Message {
    /// Source rank of the message.
    pub fn source(&self) -> Rank {
        self.status.source
    }

    /// Tag the message was sent with.
    pub fn tag(&self) -> Tag {
        self.status.tag
    }

    /// Length of the message in bytes, header plus body.
    pub fn len(&self) -> usize {
        self.status.len
    }

    /// Whether the message is empty (e.g. a pure notification message).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-flight message as stored in the destination mailbox before it has
/// been matched by a receive.
#[derive(Debug, Clone)]
pub struct MessageEnvelope {
    /// Sending rank.
    pub source: Rank,
    /// Destination rank.
    pub dest: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Communicator the message travels on. Messages on different
    /// communicators never match the same receive.
    pub comm: CommId,
    /// Monotonic per-(source, dest, comm) sequence number used to preserve
    /// the MPI non-overtaking guarantee when wildcard receives are posted.
    pub seq: u64,
    /// Header bytes.
    pub payload: Vec<u8>,
    /// Shared body, if any.
    pub body: Option<Bytes>,
}

impl MessageEnvelope {
    /// Whether this envelope satisfies a receive posted for `(source, tag)`
    /// on communicator `comm`. `None` components are wildcards.
    pub fn matches(&self, comm: CommId, source: Option<Rank>, tag: Option<Tag>) -> bool {
        if self.comm != comm {
            return false;
        }
        if let Some(s) = source {
            if self.source != s {
                return false;
            }
        }
        if let Some(t) = tag {
            if self.tag != t {
                return false;
            }
        }
        true
    }

    /// Convert the envelope into a delivered [`Message`].
    pub fn into_message(self) -> Message {
        Message { status: self.probe_status(), data: self.payload, body: self.body }
    }

    /// Status that a probe of this envelope would report (payload stays put).
    pub fn probe_status(&self) -> Status {
        let len = self.payload.len() + self.body.as_ref().map_or(0, |b| b.len());
        Status { source: self.source, tag: self.tag, len, comm: self.comm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(source: Rank, tag: u64, comm: u32) -> MessageEnvelope {
        MessageEnvelope {
            source,
            dest: 0,
            tag: Tag(tag),
            comm: CommId(comm),
            seq: 0,
            payload: vec![1, 2, 3],
            body: None,
        }
    }

    #[test]
    fn exact_match() {
        let e = env(2, 5, 0);
        assert!(e.matches(CommId(0), Some(2), Some(Tag(5))));
        assert!(!e.matches(CommId(0), Some(1), Some(Tag(5))));
        assert!(!e.matches(CommId(0), Some(2), Some(Tag(6))));
    }

    #[test]
    fn wildcard_source_and_tag() {
        let e = env(2, 5, 0);
        assert!(e.matches(CommId(0), None, Some(Tag(5))));
        assert!(e.matches(CommId(0), Some(2), None));
        assert!(e.matches(CommId(0), None, None));
    }

    #[test]
    fn communicator_isolation() {
        let e = env(2, 5, 1);
        assert!(!e.matches(CommId(0), None, None));
        assert!(e.matches(CommId(1), None, None));
    }

    #[test]
    fn envelope_to_message_preserves_metadata() {
        let m = env(3, 9, 2).into_message();
        assert_eq!(m.source(), 3);
        assert_eq!(m.tag(), Tag(9));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.status.comm, CommId(2));
    }

    #[test]
    fn probe_status_reports_length_without_consuming() {
        let e = env(1, 4, 0);
        let st = e.probe_status();
        assert_eq!(st.len, 3);
        assert_eq!(e.payload.len(), 3);
    }

    #[test]
    fn lengths_count_header_plus_body_and_the_body_is_delivered_as_sent() {
        let body = Bytes::from(vec![9u8; 10]);
        let e = MessageEnvelope { body: Some(body.clone()), ..env(1, 4, 0) };
        assert_eq!(e.probe_status().len, 13);
        let m = e.into_message();
        assert_eq!((m.len(), m.data.len()), (13, 3));
        assert!(m.body.is_some_and(|b| b.same_allocation(&body)));
    }
}
