//! Shared immutable payload bytes: the one representation a buffer's
//! contents have from the host registry, through every mailbox, to a
//! worker's device memory.
//!
//! A [`Bytes`] is a reference-counted view of one allocation. Building it
//! from a `Vec<u8>` moves the vector (no byte is copied), cloning it bumps a
//! counter, and [`Bytes::slice`] narrows the view without touching the
//! allocation — so a payload forwarded to five ranks, or cut into relay
//! chunks, is still one block of memory held several times.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A cheaply cloneable, immutable view of a byte buffer.
///
/// ```
/// use ompc_mpi::Bytes;
///
/// let whole = Bytes::from(vec![1u8, 2, 3, 4]);
/// let shared = whole.clone();
/// assert!(shared.same_allocation(&whole));
/// assert_eq!(&whole.slice(1..3)[..], &[2, 3]);
/// ```
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    /// The viewed part of `buf`; `None` views all of it.
    window: Option<Range<usize>>,
}

impl Bytes {
    /// A view of `range` (relative to this view) over the same allocation.
    ///
    /// # Panics
    ///
    /// Panics when `range` does not lie within this view, exactly as slicing
    /// a `[u8]` would.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "range {range:?} out of bounds for {} bytes",
            self.len()
        );
        let base = self.window.as_ref().map_or(0, |w| w.start);
        Bytes { buf: Arc::clone(&self.buf), window: Some(base + range.start..base + range.end) }
    }

    /// Whether `other` views the same allocation (not merely equal bytes):
    /// the two handles share one block of memory.
    pub fn same_allocation(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Mutable access to the bytes as an owned vector, copy-on-write: when
    /// this handle is the only one and views the whole allocation the vector
    /// is handed out in place; otherwise the viewed bytes are first copied
    /// into a fresh allocation, so no other holder ever observes the write.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        if self.window.is_some() || Arc::get_mut(&mut self.buf).is_none() {
            self.buf = Arc::new(self.to_vec());
            self.window = None;
        }
        // Unique by now, so this hands the vector out without cloning it.
        Arc::make_mut(&mut self.buf)
    }
}

impl From<Vec<u8>> for Bytes {
    /// Take ownership of `data` without copying it.
    fn from(data: Vec<u8>) -> Self {
        Bytes { buf: Arc::new(data), window: None }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.window {
            Some(window) => &self.buf[window.clone()],
            None => &self.buf,
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_cloning_and_slicing_never_copy() {
        let data = vec![7u8; 64];
        let at = data.as_ptr();
        let whole = Bytes::from(data);
        assert_eq!(whole.as_ptr(), at, "the vector is moved, not copied");
        let shared = whole.clone();
        assert!(shared.same_allocation(&whole));
        let tail = whole.slice(16..64).slice(8..48);
        assert!(tail.same_allocation(&whole));
        assert_eq!(tail.len(), 40);
        assert_eq!(tail.as_ptr(), at.wrapping_add(24), "slices of slices stay relative");
        assert_eq!(whole.slice(0..0).len(), 0);
        assert_ne!(Bytes::from(vec![7u8; 64]).as_ptr(), at, "equal bytes, another block");
        assert!(!Bytes::from(vec![7u8; 64]).same_allocation(&whole));
    }

    #[test]
    fn equality_and_debug_are_those_of_the_bytes() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(a, Bytes::from(vec![0u8, 1, 2, 3]).slice(1..4));
        assert_ne!(a, Bytes::from(vec![1u8, 2]));
        assert_eq!(format!("{a:?}"), "[1, 2, 3]");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_slice_past_the_view_is_rejected() {
        let _ = Bytes::from(vec![0u8; 4]).slice(1..3).slice(0..3);
    }

    #[test]
    fn make_mut_copies_only_what_someone_else_can_see() {
        // Sole holder of the whole allocation: in place.
        let mut own = Bytes::from(vec![1u8, 2, 3]);
        own.make_mut().push(4);
        assert_eq!(&own[..], &[1, 2, 3, 4], "the view follows a resize");
        let at = own.as_ptr();
        own.make_mut()[0] = 9;
        assert_eq!(own.as_ptr(), at, "no copy while unshared");

        // Shared: the writer gets a private copy, once; the reader's bytes
        // never change.
        let reader = own.clone();
        own.make_mut()[1] = 8;
        assert!(!own.same_allocation(&reader));
        let private = own.as_ptr();
        own.make_mut()[2] = 7;
        assert_eq!(own.as_ptr(), private, "already private: no second copy");
        assert_eq!(&reader[..], &[9, 2, 3, 4]);
        assert_eq!(&own[..], &[9, 8, 7, 4]);

        // A window is copied out even when nobody else holds the block:
        // the vector handed out must be exactly the viewed bytes.
        let mut part = Bytes::from(vec![0u8, 1, 2, 3]).slice(1..3);
        assert_eq!(part.make_mut(), &vec![1u8, 2]);
    }
}
