//! Identifiers and small enums shared across the runtime.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes ids with one multiplication per word (Fibonacci hashing): buffer,
/// task, node and region ids are dense counters, not adversarial input.
/// Each word folds into the running state, so a composite key such as
/// `(buffer, node)` hashes every field; a one-word key hashes to `n · φ`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    /// 2⁶⁴ / φ, odd: multiplying by it is a bijection that spreads dense
    /// counters over the high bits.
    const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(Self::PHI);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A hash table keyed by ids, hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Identifier of a cluster node. Node 0 is always the head node; worker
/// nodes are 1..=N.
pub type NodeId = usize;

/// Identifier of a mapped buffer (host pointer analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u64);

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf:{}", self.0)
    }
}

/// Identifier of a task in a target region's task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task:{}", self.0)
    }
}

/// Identifier of a kernel registered with the cluster device (the analogue
/// of an outlined target-region entry point in the fat binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelId(pub usize);

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel:{}", self.0)
    }
}

/// The direction of a `depend` clause on a target task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependenceType {
    /// The task only reads the buffer (`depend(in: …)`).
    In,
    /// The task only writes the buffer (`depend(out: …)`).
    Out,
    /// The task reads and writes the buffer (`depend(inout: …)`).
    InOut,
}

impl DependenceType {
    /// Whether the dependence implies the task reads the buffer.
    pub fn reads(self) -> bool {
        matches!(self, DependenceType::In | DependenceType::InOut)
    }

    /// Whether the dependence implies the task writes the buffer.
    pub fn writes(self) -> bool {
        matches!(self, DependenceType::Out | DependenceType::InOut)
    }
}

/// The direction of a `map` clause on enter/exit data constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapType {
    /// Copy host data to the device group (`map(to: …)`).
    To,
    /// Copy device data back to the host (`map(from: …)`).
    From,
    /// Copy in both directions (`map(tofrom: …)`).
    ToFrom,
    /// Allocate on the device group without copying (`map(alloc: …)`).
    Alloc,
    /// Drop the device copy without copying back (`map(release: …)`).
    Release,
    /// Like [`MapType::To`], but the buffer is marked **keep-resident**:
    /// a later exit-data `map(from:)` flushes its contents to the host
    /// while keeping the device copies mapped, so iterative multi-region
    /// applications re-use them without re-distribution. Only
    /// [`MapType::Release`] (or the device-level
    /// `ClusterDevice::exit_data`) ends the mapping.
    ToResident,
}

impl MapType {
    /// Whether the map moves data host → cluster.
    pub fn copies_to_device(self) -> bool {
        matches!(self, MapType::To | MapType::ToFrom | MapType::ToResident)
    }

    /// Whether the map moves data cluster → host.
    pub fn copies_from_device(self) -> bool {
        matches!(self, MapType::From | MapType::ToFrom)
    }

    /// Whether the map marks the buffer keep-resident across regions.
    pub fn keeps_resident(self) -> bool {
        matches!(self, MapType::ToResident)
    }
}

/// A single `depend` clause entry: a buffer and the access direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dependence {
    /// The buffer the task depends on.
    pub buffer: BufferId,
    /// Access direction.
    pub dep_type: DependenceType,
}

impl Dependence {
    /// An input dependence.
    pub fn input(buffer: BufferId) -> Self {
        Self { buffer, dep_type: DependenceType::In }
    }
    /// An output dependence.
    pub fn output(buffer: BufferId) -> Self {
        Self { buffer, dep_type: DependenceType::Out }
    }
    /// An inout dependence.
    pub fn inout(buffer: BufferId) -> Self {
        Self { buffer, dep_type: DependenceType::InOut }
    }
}

/// Errors surfaced by the OMPC runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OmpcError {
    /// A task referenced a buffer that was never mapped.
    UnknownBuffer(BufferId),
    /// A kernel id was not registered with the device.
    UnknownKernel(KernelId),
    /// The region was already executed (regions are single-shot).
    RegionAlreadyRun,
    /// The underlying communication substrate reported an error.
    Communication(String),
    /// A worker node failed (detected by the heartbeat monitor) and no
    /// surviving worker was available to recover its tasks.
    NodeFailure(NodeId),
    /// The runtime was configured inconsistently (e.g. a cluster without
    /// worker nodes, or a fault plan naming a node outside the cluster).
    InvalidConfig(String),
    /// The cluster was shut down while work was outstanding.
    ShutDown,
    /// Miscellaneous internal invariant violation.
    Internal(String),
    /// An event handler on a worker node reported a failure through the
    /// event-reply protocol: carries the originating node, the event tag,
    /// and the underlying error — the head node never blocks on a failed
    /// event, it receives this instead of a completion.
    RemoteEvent {
        /// Node whose handler failed.
        node: NodeId,
        /// Id of the event that failed: the wire tag (unique per device
        /// lifetime) on the real cluster, the task index for errors
        /// modelled by the simulated backend — backend-specific, so
        /// cross-backend comparisons should use
        /// [`OmpcError::origin_node`] / [`OmpcError::root_cause`] rather
        /// than error equality.
        event: u64,
        /// What went wrong on the worker.
        error: Box<OmpcError>,
    },
}

impl fmt::Display for OmpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmpcError::UnknownBuffer(b) => write!(f, "unknown buffer {b}"),
            OmpcError::UnknownKernel(k) => write!(f, "unknown kernel {k}"),
            OmpcError::RegionAlreadyRun => write!(f, "target region already executed"),
            OmpcError::Communication(m) => write!(f, "communication error: {m}"),
            OmpcError::NodeFailure(n) => write!(f, "worker node {n} failed"),
            OmpcError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            OmpcError::ShutDown => write!(f, "cluster already shut down"),
            OmpcError::Internal(m) => write!(f, "internal runtime error: {m}"),
            OmpcError::RemoteEvent { node, event, error } => {
                write!(f, "event {event} failed on node {node}: {error}")
            }
        }
    }
}

impl OmpcError {
    /// The worker node this error originates from, when it names one: the
    /// failed node of a [`OmpcError::NodeFailure`], or the replying node of
    /// a [`OmpcError::RemoteEvent`]. The execution core uses this to tell a
    /// *stale* failure (the blamed node has been killed by the failure
    /// injector — requeue the task) from a genuine one (propagate).
    pub fn origin_node(&self) -> Option<NodeId> {
        match self {
            OmpcError::NodeFailure(n) => Some(*n),
            OmpcError::RemoteEvent { node, .. } => Some(*node),
            _ => None,
        }
    }

    /// Strip [`OmpcError::RemoteEvent`] wrappers and return the underlying
    /// error (self when not remote).
    pub fn root_cause(&self) -> &OmpcError {
        match self {
            OmpcError::RemoteEvent { error, .. } => error.root_cause(),
            other => other,
        }
    }
}

impl std::error::Error for OmpcError {}

impl From<ompc_mpi::MpiError> for OmpcError {
    fn from(e: ompc_mpi::MpiError) -> Self {
        OmpcError::Communication(e.to_string())
    }
}

/// Convenient result alias for runtime operations.
pub type OmpcResult<T> = Result<T, OmpcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependence_direction_flags() {
        assert!(DependenceType::In.reads());
        assert!(!DependenceType::In.writes());
        assert!(DependenceType::Out.writes());
        assert!(!DependenceType::Out.reads());
        assert!(DependenceType::InOut.reads() && DependenceType::InOut.writes());
    }

    #[test]
    fn map_direction_flags() {
        assert!(MapType::To.copies_to_device());
        assert!(!MapType::To.copies_from_device());
        assert!(MapType::From.copies_from_device());
        assert!(MapType::ToFrom.copies_to_device() && MapType::ToFrom.copies_from_device());
        assert!(!MapType::Alloc.copies_to_device());
        assert!(!MapType::Release.copies_from_device());
        assert!(MapType::ToResident.copies_to_device());
        assert!(!MapType::ToResident.copies_from_device());
        assert!(MapType::ToResident.keeps_resident() && !MapType::To.keeps_resident());
    }

    #[test]
    fn dependence_constructors() {
        let b = BufferId(3);
        assert_eq!(Dependence::input(b).dep_type, DependenceType::In);
        assert_eq!(Dependence::output(b).dep_type, DependenceType::Out);
        assert_eq!(Dependence::inout(b).dep_type, DependenceType::InOut);
    }

    #[test]
    fn error_display() {
        assert!(OmpcError::UnknownBuffer(BufferId(1)).to_string().contains("buf:1"));
        assert!(OmpcError::NodeFailure(2).to_string().contains("node 2"));
        let e: OmpcError = ompc_mpi::MpiError::Finalized(0).into();
        assert!(matches!(e, OmpcError::Communication(_)));
    }

    fn id_hash(key: impl std::hash::Hash) -> u64 {
        let mut hasher = IdHasher::default();
        key.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn a_one_word_key_hashes_to_n_times_phi() {
        for n in [0u64, 1, 2, 41, u64::MAX] {
            assert_eq!(id_hash(n), n.wrapping_mul(IdHasher::PHI));
            assert_eq!(id_hash(BufferId(n)), n.wrapping_mul(IdHasher::PHI));
        }
    }

    #[test]
    fn composite_keys_hash_every_field() {
        for n in [0usize, 1, 7] {
            assert_ne!(id_hash((3u64, n)), id_hash((4u64, n)));
            assert_ne!(id_hash((BufferId(0), n)), id_hash((BufferId(1), n)));
        }
        let mut keys = std::collections::HashSet::new();
        for buffer in 0..1024u64 {
            for node in 0..4usize {
                keys.insert(id_hash((BufferId(buffer), node)));
            }
        }
        assert_eq!(keys.len(), 4096, "distinct (buffer, node) keys collided");
    }

    #[test]
    fn write_usize_is_write_u64() {
        for x in [0usize, 1, 63, usize::MAX] {
            let (mut a, mut b) = (IdHasher::default(), IdHasher::default());
            a.write_usize(x);
            b.write_u64(x as u64);
            assert_eq!(a.finish(), b.finish());
        }
    }

    #[test]
    fn ids_display() {
        assert_eq!(BufferId(5).to_string(), "buf:5");
        assert_eq!(TaskId(2).to_string(), "task:2");
        assert_eq!(KernelId(9).to_string(), "kernel:9");
    }
}
