//! Error type shared by all substrate operations.

use crate::types::{Rank, Tag};
use std::fmt;

/// Convenient result alias used across the crate.
pub type MpiResult<T> = Result<T, MpiError>;

/// Errors surfaced by the message-passing substrate.
///
/// A real MPI implementation would abort the job on most of these; here they
/// are recoverable values so the OMPC fault-tolerance layer and the tests can
/// observe and react to them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// The destination or source rank does not exist in the world.
    InvalidRank { rank: Rank, world_size: usize },
    /// The world has been shut down (finalized) and no further communication
    /// is possible; carries the rank that observed the shutdown.
    Finalized(Rank),
    /// A receive or wait was abandoned because the peer terminated without
    /// sending the expected message.
    PeerTerminated { peer: Rank, tag: Option<Tag> },
    /// Payload could not be reinterpreted as the requested element type.
    TypeConversion { expected: &'static str, len: usize },
    /// A timed receive gave up before a matching message arrived. Used by
    /// the OMPC event system as a last-resort guard against a lost reply
    /// (e.g. a worker thread that died without answering).
    Timeout { source: Option<Rank>, tag: Option<Tag> },
    /// A grouped receive was released, or refused, because its group was
    /// closed; carries the rank whose mailbox the group served.
    GroupClosed(Rank),
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::InvalidRank { rank, world_size } => {
                write!(f, "rank {rank} out of range for world of size {world_size}")
            }
            MpiError::Finalized(r) => write!(f, "world already finalized (observed by rank {r})"),
            MpiError::PeerTerminated { peer, tag } => match tag {
                Some(t) => write!(f, "peer rank {peer} terminated while waiting on {t}"),
                None => write!(f, "peer rank {peer} terminated"),
            },
            MpiError::TypeConversion { expected, len } => {
                write!(f, "payload of {len} bytes is not a whole number of {expected} elements")
            }
            MpiError::Timeout { source, tag } => {
                write!(f, "receive timed out (source ")?;
                match source {
                    Some(s) => write!(f, "{s}")?,
                    None => write!(f, "any")?,
                }
                write!(f, ", tag ")?;
                match tag {
                    Some(t) => write!(f, "{t}")?,
                    None => write!(f, "any")?,
                }
                write!(f, ")")
            }
            MpiError::GroupClosed(r) => write!(f, "receive group closed (rank {r})"),
        }
    }
}

impl std::error::Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MpiError::InvalidRank { rank: 9, world_size: 4 };
        assert!(e.to_string().contains("rank 9"));
        assert!(e.to_string().contains("size 4"));
        let e = MpiError::PeerTerminated { peer: 3, tag: Some(Tag(11)) };
        assert!(e.to_string().contains("tag:11"));
        let e = MpiError::TypeConversion { expected: "f64", len: 7 };
        assert!(e.to_string().contains("f64"));
    }
}
