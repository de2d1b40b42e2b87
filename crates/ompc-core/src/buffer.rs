//! Host-side buffer registry: the head node's view of every mapped buffer.

use crate::types::{BufferId, IdMap, OmpcError, OmpcResult};
use ompc_mpi::Bytes;
use parking_lot::Mutex;

/// The head node's storage for mapped buffers.
///
/// In OpenMP terms this is the host memory that `map` clauses copy from and
/// to; the worker nodes keep their own device copies (see
/// `crate::worker::DeviceMemory`), coordinated by the data manager.
///
/// A slot holds a shared [`Bytes`] handle, and that handle *is* the payload
/// frame: distributing a buffer hands the very allocation registered here to
/// the transport, and a retrieved buffer is stored as the allocation the
/// worker sent. Only [`BufferRegistry::get`] — a caller asking for bytes of
/// its own — copies.
///
/// The registry keeps the largest zero block ([`Bytes::zeroed`]) it handed
/// out until the device shuts down: a region's `map(alloc:)` buffers, and
/// the workers' storage for outputs nothing transferred in, view the block
/// the region before them used instead of allocating and zero-filling a
/// fresh one each time.
///
/// Everything sits behind one lock, taken once per call: a run registers
/// all its outputs ([`BufferRegistry::register_uninit_all`]) and removes
/// them ([`BufferRegistry::remove_all`]) under one hold each, and the
/// per-buffer calls are the same code over one buffer. No other lock is
/// ever taken while it is held.
#[derive(Debug, Default)]
pub struct BufferRegistry {
    slots: Mutex<Slots>,
}

/// What the registry's lock guards.
#[derive(Debug, Default)]
struct Slots {
    buffers: IdMap<u64, Bytes>,
    /// The id the next buffer registered gets.
    next: u64,
    /// The largest zero block handed out, kept until shutdown.
    zeros: Option<Bytes>,
}

impl Slots {
    fn insert(&mut self, data: Bytes) -> BufferId {
        let id = self.next;
        self.next += 1;
        self.buffers.insert(id, data);
        BufferId(id)
    }

    /// A zero block of at least `size` bytes: the one kept, or a new one
    /// kept in its place.
    fn zeros(&mut self, size: usize) -> Bytes {
        match &self.zeros {
            Some(block) if block.len() >= size => block.clone(),
            _ => self.zeros.insert(Bytes::zeroed(size)).clone(),
        }
    }
}

impl BufferRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register host data and obtain its buffer id.
    pub fn register(&self, data: Vec<u8>) -> BufferId {
        self.register_shared(data.into())
    }

    /// [`BufferRegistry::register`] from a shared handle.
    pub(crate) fn register_shared(&self, data: Bytes) -> BufferId {
        self.slots.lock().insert(data)
    }

    /// Register a zero-filled buffer of `size` bytes (the `map(alloc:)`
    /// analogue). The slot is a view of the shared zero block
    /// ([`Bytes::zeroed`]): no memory is allocated or filled for it while
    /// the block the registry keeps is large enough.
    pub fn register_uninit(&self, size: usize) -> BufferId {
        let mut slots = self.slots.lock();
        let zeros = slots.zeros(size);
        slots.insert(zeros.slice(0..size))
    }

    /// [`BufferRegistry::register_uninit`] for each of `sizes`, under one
    /// hold of the lock: the ids are consecutive, in the order of `sizes`,
    /// and the zero block is grown at most once, to the largest size.
    pub fn register_uninit_all(&self, sizes: impl Iterator<Item = usize> + Clone) -> Vec<BufferId> {
        let Some(largest) = sizes.clone().max() else { return Vec::new() };
        let mut slots = self.slots.lock();
        let zeros = slots.zeros(largest);
        sizes.map(|size| slots.insert(zeros.slice(0..size))).collect()
    }

    /// Let go of the zero block the registry keeps: it is freed with the
    /// last view of it still in use.
    pub(crate) fn release_zeros(&self) {
        self.slots.lock().zeros.take();
    }

    /// The zero block the registry keeps, if any.
    #[cfg(test)]
    pub(crate) fn kept_zeros(&self) -> Option<Bytes> {
        self.slots.lock().zeros.clone()
    }

    /// Size in bytes of a buffer.
    pub fn size_of(&self, id: BufferId) -> OmpcResult<usize> {
        self.slots
            .lock()
            .buffers
            .get(&id.0)
            .map(|data| data.len())
            .ok_or(OmpcError::UnknownBuffer(id))
    }

    /// Copy out the current host contents of a buffer.
    pub fn get(&self, id: BufferId) -> OmpcResult<Vec<u8>> {
        self.share(id).map(|data| data.to_vec())
    }

    /// The current host contents of a buffer as a shared handle on the
    /// registry's own allocation — what the data path puts on the wire.
    pub(crate) fn share(&self, id: BufferId) -> OmpcResult<Bytes> {
        self.slots.lock().buffers.get(&id.0).cloned().ok_or(OmpcError::UnknownBuffer(id))
    }

    /// Replace the host contents of a buffer.
    pub fn set(&self, id: BufferId, data: Vec<u8>) -> OmpcResult<()> {
        self.set_shared(id, data.into())
    }

    /// [`BufferRegistry::set`] from a shared handle (how `map(from:)` /
    /// `map(tofrom:)` data returns from the cluster: the registry keeps the
    /// allocation the worker sent).
    pub(crate) fn set_shared(&self, id: BufferId, data: Bytes) -> OmpcResult<()> {
        match self.slots.lock().buffers.get_mut(&id.0) {
            Some(slot) => {
                *slot = data;
                Ok(())
            }
            None => Err(OmpcError::UnknownBuffer(id)),
        }
    }

    /// Remove a buffer entirely (after `map(release:)` / exit data).
    pub fn remove(&self, id: BufferId) -> OmpcResult<()> {
        self.remove_all(&[id])
    }

    /// [`BufferRegistry::remove`] each of `ids`, under one hold of the
    /// lock; the first unknown id is the error, after every known one is
    /// gone.
    pub fn remove_all(&self, ids: &[BufferId]) -> OmpcResult<()> {
        let mut slots = self.slots.lock();
        let mut unknown = None;
        for &id in ids {
            if slots.buffers.remove(&id.0).is_none() {
                unknown.get_or_insert(id);
            }
        }
        unknown.map_or(Ok(()), |id| Err(OmpcError::UnknownBuffer(id)))
    }

    /// Whether the buffer exists.
    pub fn contains(&self, id: BufferId) -> bool {
        self.slots.lock().buffers.contains_key(&id.0)
    }

    /// Number of registered buffers.
    pub fn len(&self) -> usize {
        self.slots.lock().buffers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_get_set_remove() {
        let reg = BufferRegistry::new();
        assert!(reg.is_empty());
        let a = reg.register(vec![1, 2, 3]);
        let b = reg.register_uninit(4);
        assert_eq!(reg.len(), 2);
        assert_ne!(a, b);
        assert_eq!(reg.get(a).unwrap(), vec![1, 2, 3]);
        assert_eq!(reg.get(b).unwrap(), vec![0; 4]);
        assert_eq!(reg.size_of(a).unwrap(), 3);
        reg.set(a, vec![9]).unwrap();
        assert_eq!(reg.get(a).unwrap(), vec![9]);
        reg.remove(a).unwrap();
        assert!(!reg.contains(a));
        assert!(reg.contains(b));
    }

    #[test]
    fn unknown_buffer_errors() {
        let reg = BufferRegistry::new();
        let ghost = BufferId(42);
        assert_eq!(reg.get(ghost).unwrap_err(), OmpcError::UnknownBuffer(ghost));
        assert_eq!(reg.set(ghost, vec![]).unwrap_err(), OmpcError::UnknownBuffer(ghost));
        assert_eq!(reg.remove(ghost).unwrap_err(), OmpcError::UnknownBuffer(ghost));
        assert_eq!(reg.size_of(ghost).unwrap_err(), OmpcError::UnknownBuffer(ghost));
    }

    #[test]
    fn a_slot_is_the_allocation_it_was_given() {
        let reg = BufferRegistry::new();
        let data = vec![1u8; 64];
        let at = data.as_ptr();
        let a = reg.register(data);
        let shared = reg.share(a).unwrap();
        assert_eq!(shared.as_ptr(), at, "registering moves the vector in");
        assert!(reg.share(a).unwrap().same_allocation(&shared), "sharing twice is one block");
        let owned = reg.get(a).unwrap();
        assert_ne!(owned.as_ptr(), at, "an owned copy is the caller's own");
        // A returning payload replaces the handle; earlier holders keep
        // the version they took.
        let back = ompc_mpi::Bytes::from(vec![2u8; 8]);
        reg.set_shared(a, back.clone()).unwrap();
        assert!(reg.share(a).unwrap().same_allocation(&back));
        assert_eq!(&shared[..], &[1u8; 64][..]);
        assert_eq!(reg.share(BufferId(9)).unwrap_err(), OmpcError::UnknownBuffer(BufferId(9)));
    }

    /// Registered in bulk, each buffer is a zero view of its own size under
    /// its own id, the ids consecutive and ascending after those before;
    /// the kept block is the largest ever asked for, and removing them in
    /// bulk empties the registry.
    #[test]
    fn bulk_registration_views_the_largest_block_and_bulk_removal_empties() {
        let reg = BufferRegistry::new();
        assert!(reg.register_uninit_all(std::iter::empty()).is_empty());
        assert!(reg.kept_zeros().is_none(), "nothing asked for, nothing kept");
        let before = reg.register_uninit(8);
        let sizes = [16usize, 0, 4096, 64, 4096, 1];
        let ids = reg.register_uninit_all(sizes.iter().copied());
        let block = reg.kept_zeros().expect("a block is kept");
        assert_eq!(block.len(), 4096, "the largest size asked for");
        for (k, (&id, &size)) in ids.iter().zip(&sizes).enumerate() {
            assert_eq!(id, BufferId(before.0 + 1 + k as u64), "consecutive, ascending");
            let view = reg.share(id).unwrap();
            assert_eq!((view.len(), reg.size_of(id).unwrap()), (size, size));
            assert!(view.iter().all(|&byte| byte == 0));
            assert!(size == 0 || view.same_allocation(&block), "a view of the kept block");
        }
        // Smaller asks view the kept block; a larger one replaces it.
        let small = reg.register_uninit_all([100, 200].into_iter());
        assert!(reg.share(small[1]).unwrap().same_allocation(&block));
        let large = reg.register_uninit_all([1, 1 << 16].into_iter());
        assert_eq!(reg.kept_zeros().unwrap().len(), 1 << 16, "the largest ever asked for");
        assert!(reg.share(ids[2]).unwrap().same_allocation(&block), "earlier views keep theirs");

        reg.remove_all(&ids).unwrap();
        assert_eq!(reg.len(), 5);
        assert!(ids.iter().all(|&id| !reg.contains(id)));
        let rest: Vec<BufferId> = [before].iter().chain(&small).chain(&large).copied().collect();
        reg.remove_all(&rest).unwrap();
        assert!(reg.is_empty());
        let ghost = BufferId(1 << 40);
        assert_eq!(reg.remove_all(&[ghost]).unwrap_err(), OmpcError::UnknownBuffer(ghost));
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let reg = BufferRegistry::new();
        let ids: Vec<BufferId> = (0..10).map(|i| reg.register(vec![i as u8])).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
