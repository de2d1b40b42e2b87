//! Kernels: the code a target task runs on a worker node.
//!
//! In the paper, the body of a `#pragma omp target` region is outlined by
//! Clang into an entry point present in the fat binary of every MPI process,
//! so the head node only needs to ship an entry-point identifier. Here the
//! analogue is a [`KernelRegistry`] shared by every rank of the in-process
//! cluster: kernels are registered once on the head node and referenced by
//! [`KernelId`] in execute events.

use crate::types::{BufferId, KernelId};
use ompc_mpi::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One kernel argument's storage.
#[derive(Debug)]
enum Arg<'a> {
    /// Storage the caller lent for the invocation ([`KernelArgs::new`]).
    Lent(&'a mut Vec<u8>),
    /// The device-resident copy, borrowed as a shared handle. `written`
    /// once the kernel has replaced or modified it — `bytes` is then the
    /// kernel's private version, to be stored back when it returns.
    Resident { bytes: Bytes, written: bool },
}

/// The buffers a kernel invocation operates on, in the order they were
/// declared by the task's `depend` clauses.
///
/// On a worker the arguments **borrow** the node's device copies: reading
/// copies nothing, [`KernelArgs::set_f64s`] / [`KernelArgs::set_u64s`]
/// replace a buffer without first copying what they overwrite, and
/// [`KernelArgs::bytes_mut`] takes a private copy on the first write to a
/// buffer somebody else still holds. The device's own resident copy counts
/// as such a holder until the task commits, so a kernel's writes are never
/// seen by a forward already in flight, and a kernel that fails leaves the
/// device exactly as it found it.
#[derive(Debug)]
pub struct KernelArgs<'a> {
    buffers: Vec<(BufferId, Arg<'a>)>,
}

impl<'a> KernelArgs<'a> {
    /// Build the argument pack from (id, storage) pairs.
    pub fn new(buffers: Vec<(BufferId, &'a mut Vec<u8>)>) -> Self {
        Self { buffers: buffers.into_iter().map(|(id, data)| (id, Arg::Lent(data))).collect() }
    }

    /// Build the argument pack over a worker's resident copies.
    pub(crate) fn resident(buffers: Vec<(BufferId, Bytes)>) -> Self {
        let borrowed = |(id, bytes)| (id, Arg::Resident { bytes, written: false });
        Self { buffers: buffers.into_iter().map(borrowed).collect() }
    }

    /// The resident arguments the kernel wrote, with their new contents.
    pub(crate) fn into_written(self) -> impl Iterator<Item = (BufferId, Bytes)> + use<'a> {
        self.buffers.into_iter().filter_map(|(id, arg)| match arg {
            Arg::Resident { bytes, written: true } => Some((id, bytes)),
            _ => None,
        })
    }

    /// Number of buffers passed to the kernel.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Whether the kernel received no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Id of the `idx`-th buffer.
    pub fn buffer_id(&self, idx: usize) -> BufferId {
        self.buffers[idx].0
    }

    /// Read-only view of the `idx`-th buffer.
    pub fn bytes(&self, idx: usize) -> &[u8] {
        match &self.buffers[idx].1 {
            Arg::Lent(data) => data,
            Arg::Resident { bytes, .. } => bytes,
        }
    }

    /// Mutable view of the `idx`-th buffer (copy-on-write, see the type).
    pub fn bytes_mut(&mut self, idx: usize) -> &mut Vec<u8> {
        match &mut self.buffers[idx].1 {
            Arg::Lent(data) => data,
            Arg::Resident { bytes, written } => {
                *written = true;
                bytes.make_mut()
            }
        }
    }

    /// Replace the `idx`-th buffer with `data`; the old contents are
    /// dropped, never copied.
    fn set(&mut self, idx: usize, data: Vec<u8>) {
        match &mut self.buffers[idx].1 {
            Arg::Lent(slot) => **slot = data,
            arg => *arg = Arg::Resident { bytes: data.into(), written: true },
        }
    }

    /// Interpret the `idx`-th buffer as little-endian `f64`s.
    pub fn as_f64s(&self, idx: usize) -> Vec<f64> {
        ompc_mpi::typed::bytes_to_f64s(self.bytes(idx))
            .expect("buffer is not a whole number of f64")
    }

    /// Overwrite the `idx`-th buffer with little-endian `f64`s.
    pub fn set_f64s(&mut self, idx: usize, values: &[f64]) {
        self.set(idx, ompc_mpi::typed::f64s_to_bytes(values));
    }

    /// Interpret the `idx`-th buffer as little-endian `u64`s.
    pub fn as_u64s(&self, idx: usize) -> Vec<u64> {
        ompc_mpi::typed::bytes_to_u64s(self.bytes(idx))
            .expect("buffer is not a whole number of u64")
    }

    /// Overwrite the `idx`-th buffer with little-endian `u64`s.
    pub fn set_u64s(&mut self, idx: usize, values: &[u64]) {
        self.set(idx, ompc_mpi::typed::u64s_to_bytes(values));
    }
}

/// A target-region body.
pub trait Kernel: Send + Sync {
    /// Execute the kernel on the worker node against its local copies of
    /// the task's buffers.
    fn execute(&self, args: &mut KernelArgs<'_>);

    /// Estimated execution cost in seconds, used by the HEFT scheduler.
    /// Defaults to a small constant when unknown.
    fn cost_hint(&self) -> f64 {
        1e-3
    }

    /// Human-readable name for traces.
    fn name(&self) -> &str {
        "kernel"
    }
}

/// A kernel backed by a closure.
pub struct FnKernel<F: Fn(&mut KernelArgs<'_>) + Send + Sync> {
    f: F,
    cost: f64,
    name: String,
}

impl<F: Fn(&mut KernelArgs<'_>) + Send + Sync> FnKernel<F> {
    /// Wrap a closure with a cost hint (seconds) and a name.
    pub fn new(name: impl Into<String>, cost: f64, f: F) -> Self {
        Self { f, cost, name: name.into() }
    }
}

impl<F: Fn(&mut KernelArgs<'_>) + Send + Sync> Kernel for FnKernel<F> {
    fn execute(&self, args: &mut KernelArgs<'_>) {
        (self.f)(args)
    }
    fn cost_hint(&self) -> f64 {
        self.cost
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// The cluster-wide kernel table (one per [`crate::cluster::ClusterDevice`]),
/// shared by the head node and every worker thread, mirroring the fat binary
/// replicated on every MPI process.
#[derive(Default)]
pub struct KernelRegistry {
    kernels: RwLock<HashMap<usize, Arc<dyn Kernel>>>,
    next: RwLock<usize>,
}

impl KernelRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a kernel and return its id.
    pub fn register(&self, kernel: Arc<dyn Kernel>) -> KernelId {
        let mut next = self.next.write();
        let id = *next;
        *next += 1;
        self.kernels.write().insert(id, kernel);
        KernelId(id)
    }

    /// Register a closure as a kernel.
    pub fn register_fn<F>(&self, name: impl Into<String>, cost: f64, f: F) -> KernelId
    where
        F: Fn(&mut KernelArgs<'_>) + Send + Sync + 'static,
    {
        self.register(Arc::new(FnKernel::new(name, cost, f)))
    }

    /// Look up a kernel by id.
    pub fn get(&self, id: KernelId) -> Option<Arc<dyn Kernel>> {
        self.kernels.read().get(&id.0).cloned()
    }

    /// Forget every registered kernel and restart ids from 0 — issued when
    /// a warm worker pool is adopted by a new device lifetime, so the new
    /// lifetime's registrations get the same ids a cold start would assign.
    pub fn clear(&self) {
        let mut next = self.next.write();
        self.kernels.write().clear();
        *next = 0;
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.kernels.read().len()
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
    fn registry_round_trip() {
        let reg = KernelRegistry::new();
        assert!(reg.is_empty());
        let id = reg.register_fn("double", 0.5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 2.0).collect();
            args.set_f64s(0, &v);
        });
        assert_eq!(reg.len(), 1);
        let k = reg.get(id).unwrap();
        assert_eq!(k.name(), "double");
        assert!((k.cost_hint() - 0.5).abs() < 1e-12);
        assert!(reg.get(KernelId(99)).is_none());
        reg.clear();
        assert!(reg.is_empty());
        let id2 = reg.register_fn("fresh", 1e-6, |_| {});
        assert_eq!(id2, KernelId(0), "cleared registries restart ids from 0");
    }

    #[test]
    fn kernel_args_typed_access() {
        let mut a = ompc_mpi::typed::f64s_to_bytes(&[1.0, 2.0]);
        let mut b = ompc_mpi::typed::u64s_to_bytes(&[7]);
        let mut args = KernelArgs::new(vec![(BufferId(0), &mut a), (BufferId(1), &mut b)]);
        assert_eq!(args.len(), 2);
        assert!(!args.is_empty());
        assert_eq!(args.buffer_id(1), BufferId(1));
        assert_eq!(args.as_f64s(0), vec![1.0, 2.0]);
        assert_eq!(args.as_u64s(1), vec![7]);
        args.set_f64s(0, &[3.0]);
        args.set_u64s(1, &[8, 9]);
        assert_eq!(args.as_f64s(0), vec![3.0]);
        assert_eq!(args.as_u64s(1), vec![8, 9]);
    }

    #[test]
    fn resident_arguments_copy_on_write_and_report_only_what_was_written() {
        let shared: Vec<Bytes> = (0..4).map(|i| Bytes::from(vec![i as u8; 16])).collect();
        let ids = (0..4).map(BufferId);
        let mut args = KernelArgs::resident(ids.zip(shared.iter().cloned()).collect());
        // Reading borrows the resident allocation itself.
        assert_eq!(args.bytes(0).as_ptr(), shared[0].as_ptr());
        assert_eq!(args.as_u64s(0).len(), 2);
        // The first `bytes_mut` of a shared buffer copies it, once.
        args.bytes_mut(1)[0] = 9;
        let private = args.bytes(1).as_ptr();
        assert_ne!(private, shared[1].as_ptr());
        args.bytes_mut(1)[1] = 9;
        assert_eq!(args.bytes(1).as_ptr(), private, "exactly one copy");
        assert_eq!(&shared[1][..], &[1u8; 16][..], "the other holder never sees the write");
        // A setter replaces the handle and touches nothing it overwrites.
        args.set_u64s(2, &[7]);
        assert_eq!(args.as_u64s(2), vec![7]);
        assert_eq!(&shared[2][..], &[2u8; 16][..]);
        let written: Vec<(BufferId, Bytes)> = args.into_written().collect();
        let ids: Vec<BufferId> = written.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![BufferId(1), BufferId(2)], "read-only arguments are not stored back");
        assert_eq!(&written[0].1[..2], &[9, 9]);
    }

    #[test]
    fn fn_kernel_executes_closure() {
        let reg = KernelRegistry::new();
        let id = reg.register_fn("sum", 1e-6, |args| {
            let total: f64 = args.as_f64s(0).iter().sum();
            args.set_f64s(1, &[total]);
        });
        let mut input = ompc_mpi::typed::f64s_to_bytes(&[1.0, 2.0, 3.0]);
        let mut output = ompc_mpi::typed::f64s_to_bytes(&[0.0]);
        let mut args = KernelArgs::new(vec![(BufferId(0), &mut input), (BufferId(1), &mut output)]);
        reg.get(id).unwrap().execute(&mut args);
        assert_eq!(args.as_f64s(1), vec![6.0]);
    }

    #[test]
    fn default_cost_hint_is_small() {
        struct Noop;
        impl Kernel for Noop {
            fn execute(&self, _args: &mut KernelArgs<'_>) {}
        }
        assert!(Noop.cost_hint() > 0.0);
        assert_eq!(Noop.name(), "kernel");
    }
}
