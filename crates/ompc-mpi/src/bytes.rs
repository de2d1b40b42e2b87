//! Shared immutable payload bytes: the one representation a buffer's
//! contents have from the host registry, through every mailbox, to a
//! worker's device memory.
//!
//! A [`Bytes`] is a reference-counted view of one allocation. Building it
//! from a `Vec<u8>` moves the vector (no byte is copied), cloning it bumps a
//! counter, and [`Bytes::slice`] narrows the view without touching the
//! allocation — so a payload forwarded to five ranks, or cut into relay
//! chunks, is still one block of memory held several times.
//!
//! A buffer nobody has written yet is not memory of its own either:
//! [`Bytes::zeroed`] is a view of one process-wide block of zeros, and only
//! [`Bytes::make_mut`] — a writer that wants the old contents — turns it
//! into a private allocation. The block lives as long as some view of it
//! does; a holder that keeps one view for good (a device's buffer registry
//! keeps the largest it handed out) keeps every later request of no more
//! bytes from allocating and zero-filling it again.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// The block every live [`Bytes::zeroed`] view shares. Held weakly: the
/// views keep it alive — a view kept for good keeps it for good — so it is
/// never larger than the largest zero view still in use and is freed with
/// the last of them.
static ZEROS: Mutex<Weak<Vec<u8>>> = Mutex::new(Weak::new());

/// The slot is only ever replaced whole, so a panic while it was held
/// cannot have left it half-written: a poisoned lock is recovered.
fn zeros() -> MutexGuard<'static, Weak<Vec<u8>>> {
    ZEROS.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    /// `len` zero bytes, as a view of the process-wide zero block: costs no
    /// allocation and no fill while a block of at least `len` bytes is alive
    /// (a larger request replaces the block; views of the old one keep it).
    /// Keep one view to keep the block: it is freed with the last of them.
    /// The block is never written — [`Bytes::make_mut`] on a view of it
    /// hands out a fresh zeroed vector instead.
    ///
    /// ```
    /// use ompc_mpi::Bytes;
    ///
    /// let a = Bytes::zeroed(1 << 20);
    /// let b = Bytes::zeroed(1 << 10);
    /// assert!(a.same_allocation(&b));
    /// assert!(b.iter().all(|&byte| byte == 0));
    /// ```
    pub fn zeroed(len: usize) -> Bytes {
        let mut block = zeros();
        let buf = match block.upgrade() {
            Some(buf) if buf.len() >= len => buf,
            _ => {
                let buf = Arc::new(vec![0u8; len]);
                *block = Arc::downgrade(&buf);
                buf
            }
        };
        Bytes { buf, window: Some(0..len) }
    }

    /// Whether this is a view of the current zero block.
    fn views_zero_block(&self) -> bool {
        zeros().upgrade().is_some_and(|block| Arc::ptr_eq(&block, &self.buf))
    }

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
    /// A view of the zero block ([`Bytes::zeroed`]) materialises as one
    /// zeroed allocation — never an allocation plus a copy of zeros.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        if self.window.is_some() || Arc::get_mut(&mut self.buf).is_none() {
            let private =
                if self.views_zero_block() { vec![0u8; self.len()] } else { self.to_vec() };
            self.buf = Arc::new(private);
            self.window = None;
        }
        // Unique by now, so this hands the vector out without cloning it.
        Arc::make_mut(&mut self.buf)
    }

    /// The vector of this handle, emptied for new contents, when it views
    /// all of its allocation and nobody else holds any of it; `None` while
    /// someone does. A writer that sends slices of a frame writes the next
    /// frame into the same allocation once every receiver has let go, and
    /// so allocates nothing.
    pub fn reclaim(&mut self) -> Option<&mut Vec<u8>> {
        if self.window.is_some() {
            return None;
        }
        let data = Arc::get_mut(&mut self.buf)?;
        data.clear();
        Some(data)
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

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

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

    /// A frame is written again in its own allocation only once nobody
    /// holds any of it: a slice still held, or a second handle, keeps it.
    #[test]
    fn a_frame_is_reclaimed_only_when_nobody_else_holds_it() {
        let mut frame = Bytes::from(Vec::new());
        frame.reclaim().expect("a new frame is nobody else's").extend_from_slice(&[1, 2, 3, 4]);
        let at = frame.as_ptr();
        let header = frame.slice(1..3);
        assert!(frame.reclaim().is_none(), "a slice is still held");
        assert_eq!(header, vec![2u8, 3]);
        drop(header);
        let copy = frame.clone();
        assert!(frame.reclaim().is_none(), "another handle is still held");
        drop(copy);
        assert!(frame.clone().slice(0..2).reclaim().is_none(), "a slice never reclaims");
        let data = frame.reclaim().expect("nobody else holds the frame");
        assert!(data.is_empty() && data.capacity() >= 4, "emptied, its allocation kept");
        data.push(9);
        assert_eq!((frame.as_ptr(), &frame[..]), (at, &[9u8][..]));
        assert!(Bytes::zeroed(8).reclaim().is_none(), "the zero block is nobody's to write");
    }

    /// Every assertion on the zero block lives in this one test: the block
    /// is process-wide, and a second test asking for zeros on another
    /// thread could replace it between two lines of this one.
    #[test]
    fn zero_views_share_one_block_until_somebody_writes() {
        assert_eq!(zeros().strong_count(), 0, "nothing is allocated before the first request");
        let empty = Bytes::zeroed(0);
        assert!(empty.is_empty());
        assert_eq!(empty.clone().make_mut(), &Vec::<u8>::new());
        drop(empty);

        const N: usize = 4096;
        let a = Bytes::zeroed(N);
        let b = Bytes::zeroed(N / 2);
        assert_eq!(&a[..], &[0u8; N][..]);
        assert_eq!(b.len(), N / 2);
        assert!(a.same_allocation(&b), "a smaller request views the block that is there");
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(zeros().upgrade().map(|block| block.len()), Some(N));
        assert_eq!(a, Bytes::from(vec![0u8; N]), "equality is that of the bytes");

        // A writer gets a private vector of exactly the viewed zeros, once;
        // the other view and the block never see the write.
        let mut written = a.clone();
        written.make_mut()[7] = 9;
        assert!(!written.same_allocation(&a));
        assert_eq!(written.len(), N);
        assert_eq!(written.iter().filter(|&&byte| byte != 0).count(), 1);
        let private = written.as_ptr();
        written.make_mut()[8] = 9;
        assert_eq!(written.as_ptr(), private, "already private: no second allocation");
        assert!(a.iter().chain(b.iter()).all(|&byte| byte == 0));

        // A slice of a zero view is a zero view: same block, and writing it
        // materialises just the slice.
        let mut part = a.slice(100..164);
        assert!(part.same_allocation(&a));
        assert_eq!(part.make_mut(), &vec![0u8; 64]);

        // Growth: a larger request replaces the block; earlier views keep
        // the one they have, and a write to one of those is still private
        // and still zeros.
        let big = Bytes::zeroed(4 * N);
        assert!(!big.same_allocation(&a));
        assert_eq!(&big[..], &[0u8; 4 * N][..]);
        assert!(Bytes::zeroed(N).same_allocation(&big), "later requests view the larger block");
        let mut outgrown = b.clone();
        outgrown.make_mut().push(1);
        assert_eq!(outgrown.len(), N / 2 + 1);
        assert!(b.iter().all(|&byte| byte == 0));

        // The static keeps nothing alive: the block dies with its last view.
        drop((a, b, big, written, part, outgrown));
        assert_eq!(zeros().strong_count(), 0);
        assert!(zeros().upgrade().is_none());
    }
}
