//! Fundamental identifier types shared by every module of the substrate.

use std::fmt;

/// Index of a process in a [`crate::World`]. Rank 0 conventionally plays the
/// role of the OMPC *head node*.
pub type Rank = usize;

/// Wildcard source accepted by receive and probe operations, mirroring
/// `MPI_ANY_SOURCE`.
pub const ANY_SOURCE: Option<Rank> = None;

/// Wildcard tag accepted by receive and probe operations, mirroring
/// `MPI_ANY_TAG`.
pub const ANY_TAG: Option<Tag> = None;

/// A message tag. The OMPC event system allocates one unique tag per event so
/// that all messages belonging to that event form an exclusive channel
/// between origin and destination (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag:{}", self.0)
    }
}

/// Identifier of a communicator. The world communicator is the only one a
/// [`crate::World`] has: every channel is a tag on it. The id remains as a
/// field of the OMPC event notification's envelope, which names
/// [`CommId::WORLD`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u32);

impl CommId {
    /// The world communicator that every rank starts with.
    pub const WORLD: CommId = CommId(0);
}

impl fmt::Display for CommId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comm:{}", self.0)
    }
}

/// Completion information for a receive or probe, mirroring `MPI_Status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank the matched message was sent from.
    pub source: Rank,
    /// Tag carried by the matched message.
    pub tag: Tag,
    /// Payload length in bytes.
    pub len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_ordering_and_display() {
        assert!(Tag(1) < Tag(2));
        assert_eq!(Tag(7).to_string(), "tag:7");
        assert_eq!(CommId::WORLD, CommId(0));
        assert_eq!(CommId(3).to_string(), "comm:3");
    }

    #[test]
    fn wildcards_are_none() {
        assert!(ANY_SOURCE.is_none());
        assert!(ANY_TAG.is_none());
    }
}
