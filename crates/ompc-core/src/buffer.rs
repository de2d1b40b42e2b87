//! Host-side buffer registry: the head node's view of every mapped buffer.

use crate::types::{BufferId, OmpcError, OmpcResult};
use ompc_mpi::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;

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
#[derive(Debug, Default)]
pub struct BufferRegistry {
    buffers: RwLock<HashMap<u64, Bytes>>,
    next: RwLock<u64>,
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
        let mut next = self.next.write();
        let id = *next;
        *next += 1;
        self.buffers.write().insert(id, data);
        BufferId(id)
    }

    /// Register a zero-filled buffer of `size` bytes (the `map(alloc:)`
    /// analogue). The slot is a view of the shared zero block
    /// ([`Bytes::zeroed`]): no memory is allocated or filled for it.
    pub fn register_uninit(&self, size: usize) -> BufferId {
        self.register_shared(Bytes::zeroed(size))
    }

    /// Size in bytes of a buffer.
    pub fn size_of(&self, id: BufferId) -> OmpcResult<usize> {
        self.buffers.read().get(&id.0).map(|data| data.len()).ok_or(OmpcError::UnknownBuffer(id))
    }

    /// Copy out the current host contents of a buffer.
    pub fn get(&self, id: BufferId) -> OmpcResult<Vec<u8>> {
        self.share(id).map(|data| data.to_vec())
    }

    /// The current host contents of a buffer as a shared handle on the
    /// registry's own allocation — what the data path puts on the wire.
    pub(crate) fn share(&self, id: BufferId) -> OmpcResult<Bytes> {
        self.buffers.read().get(&id.0).cloned().ok_or(OmpcError::UnknownBuffer(id))
    }

    /// Replace the host contents of a buffer.
    pub fn set(&self, id: BufferId, data: Vec<u8>) -> OmpcResult<()> {
        self.set_shared(id, data.into())
    }

    /// [`BufferRegistry::set`] from a shared handle (how `map(from:)` /
    /// `map(tofrom:)` data returns from the cluster: the registry keeps the
    /// allocation the worker sent).
    pub(crate) fn set_shared(&self, id: BufferId, data: Bytes) -> OmpcResult<()> {
        match self.buffers.write().get_mut(&id.0) {
            Some(slot) => {
                *slot = data;
                Ok(())
            }
            None => Err(OmpcError::UnknownBuffer(id)),
        }
    }

    /// Remove a buffer entirely (after `map(release:)` / exit data).
    pub fn remove(&self, id: BufferId) -> OmpcResult<()> {
        self.buffers.write().remove(&id.0).map(drop).ok_or(OmpcError::UnknownBuffer(id))
    }

    /// Whether the buffer exists.
    pub fn contains(&self, id: BufferId) -> bool {
        self.buffers.read().contains_key(&id.0)
    }

    /// Number of registered buffers.
    pub fn len(&self) -> usize {
        self.buffers.read().len()
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

    #[test]
    fn ids_are_unique_and_monotonic() {
        let reg = BufferRegistry::new();
        let ids: Vec<BufferId> = (0..10).map(|i| reg.register(vec![i as u8])).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
