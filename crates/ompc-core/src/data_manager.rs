//! The Data Management module (paper §4.3–§4.4).
//!
//! The DM tracks, for every mapped buffer, the set of nodes that currently
//! hold a valid copy and which of them holds the most recent version. When
//! a target task is about to execute it decides how the task's input data
//! must be forwarded:
//!
//! * if the buffer is already present on the executing node, nothing moves;
//! * otherwise it is copied from its most recent location — a worker node
//!   if one has it, which yields the worker-to-worker forwarding that keeps
//!   the head node off the data path;
//! * after a task that writes the buffer (`inout`/`out` dependence), the
//!   copy on the executing node becomes the only valid one and stale copies
//!   are invalidated;
//! * read-only uses replicate the buffer, so later readers can fetch it
//!   from any holder.
//!
//! The same logic drives the threaded, message-passing, and simulated
//! runtimes, so the transfer patterns measured in the benchmarks are
//! produced by exactly this code.
//!
//! ## Cross-region residency
//!
//! The data manager is a **persistent subsystem**: one instance is owned by
//! [`crate::cluster::ClusterDevice`] for its whole lifetime and carries
//! buffer residency *across* target-region executions (the paper's
//! unstructured `target enter data` / `target exit data` environment,
//! §4.3). A buffer mapped once stays on its worker until an exit-data
//! construct releases it, so iterative applications pay the distribution
//! cost once rather than per region. Each region execution advances a
//! **region epoch** ([`DataManager::begin_region`]); every location entry
//! remembers the epoch that last touched it, which is what the residency
//! reports and tests key on.
//!
//! Every forwarding decision is also appended to a per-run **transfer
//! log** ([`TransferRecord`]) that the execution core drains into
//! [`crate::runtime::RunRecord::transfers`] — residency wins are assertable
//! ("this buffer moved exactly once across N regions") instead of inferred
//! from timings.
//!
//! A node failure ([`DataManager::fail_node`]) invalidates the node's
//! resident copies exactly like its per-region copies: the next plan that
//! needs one of them transparently re-sources it from a surviving replica
//! or from the host version.

use crate::types::{BufferId, NodeId, OmpcError};
use std::collections::{BTreeMap, BTreeSet};

/// The head node's id; the host copy of a buffer lives there.
pub const HEAD_NODE: NodeId = 0;

/// The transfer-log namespace of device-level operations performed outside
/// any region execution (`enter_data`, lazy host flushes). Region epochs
/// start at 1 ([`DataManager::begin_region`]), so 0 can never collide with
/// an admitted region.
pub const UNATTRIBUTED: u64 = 0;

/// Identifier of one asynchronous transfer batch started through the
/// device's async data path ([`DataManager::open_ticket`]). A ticket covers
/// every in-flight movement booked against it; awaiting the ticket blocks
/// until all of them have landed (or surfaced the first failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// The state of `buffer`'s copy on a given node as seen by the in-flight
/// transfer table — the waiters' view of the async data path. `Resident`
/// means the bytes are there; `InFlight` means a transfer towards the node
/// has been booked but not confirmed (first readers wait instead of
/// re-submitting); `Invalid` means no valid copy and no pending movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferState {
    /// A valid copy is present on the node.
    Resident,
    /// A transfer towards the node is booked under this ticket and has not
    /// completed yet.
    InFlight(Ticket),
    /// No valid copy and no pending transfer (including a transfer that
    /// failed — see [`DataManager::take_inflight_error`]).
    Invalid,
}

/// Internal per-(buffer, node) entry of the in-flight table.
#[derive(Debug, Clone)]
enum InflightEntry {
    /// Booked and moving under this ticket.
    Moving(Ticket),
    /// The movement failed; waiters consume the error instead of silently
    /// computing on missing data. Cleared when a later plan re-books the
    /// pair.
    Failed(OmpcError),
}

/// Per-ticket completion accounting.
#[derive(Debug, Clone, Default)]
struct TicketState {
    /// Transfers booked under the ticket that have not finished yet.
    remaining: usize,
    /// First failure observed among the ticket's transfers.
    error: Option<OmpcError>,
}

/// A planned data movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferPlan {
    /// Node currently holding the bytes to copy.
    pub from: NodeId,
    /// Node that needs the bytes.
    pub to: NodeId,
    /// The buffer to move.
    pub buffer: BufferId,
}

/// Why a transfer was planned — the classification the cross-backend
/// transfer-set equivalence tests compare on (and sort by).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TransferReason {
    /// An enter-data distribution (`map(to:)` making the buffer available
    /// on the cluster).
    EnterData,
    /// An input forward for a task that reads the buffer (host→worker or
    /// worker→worker, as planned by [`DataManager::plan_input`]).
    Input,
    /// A retrieval of the latest version back to the host (`map(from:)`,
    /// exit data, or a lazy host flush).
    Retrieve,
}

/// One planned transfer, as recorded in the data manager's per-run log and
/// surfaced through [`crate::runtime::RunRecord::transfers`]. `bytes` is
/// the buffer's registered size — the size the mapping declared, updated by
/// [`DataManager::observe_size`] whenever a retrieval observes that a
/// kernel resized the data, so logged bytes stay equal to the bytes that
/// actually crossed the wire ([`crate::event::EventCounters::bytes_moved`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRecord {
    /// The buffer that moved.
    pub buffer: BufferId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Registered size of the buffer in bytes.
    pub bytes: u64,
    /// Why the transfer was planned.
    pub reason: TransferReason,
}

#[derive(Debug, Clone, Default)]
struct BufferLocations {
    /// Nodes holding a valid copy.
    holders: BTreeSet<NodeId>,
    /// Node holding the most recent version.
    latest: NodeId,
    /// Registered size in bytes (nominal mapped size).
    bytes: u64,
    /// Whether the buffer was mapped with keep-resident semantics: a
    /// region-level `map(from:)` flushes it to the host but keeps the
    /// device copies (and this entry) alive for later regions.
    resident: bool,
    /// Region epoch that last registered or wrote this buffer.
    epoch: u64,
}

/// Location tracking and forwarding decisions for every mapped buffer.
#[derive(Debug, Clone, Default)]
pub struct DataManager {
    buffers: BTreeMap<BufferId, BufferLocations>,
    /// Nodes that have been declared failed: their copies are gone, their
    /// writes are ignored, and they are never chosen as a transfer source.
    failed: BTreeSet<NodeId>,
    /// Monotonic region counter; see [`DataManager::begin_region`].
    epoch: u64,
    /// Transfer logs, namespaced by the region epoch that planned each
    /// movement so concurrently admitted regions never interleave (or
    /// steal) each other's records. Namespace [`UNATTRIBUTED`] (0) holds
    /// device-level operations outside any region (`enter_data`, lazy host
    /// flushes); each is drained by [`DataManager::take_transfer_log_in`].
    logs: BTreeMap<u64, Vec<TransferRecord>>,
    /// In-flight transfer table: every `(buffer, node)` pair with a booked
    /// but unconfirmed movement towards it (see [`TransferState`]).
    inflight: BTreeMap<(u64, NodeId), InflightEntry>,
    /// Open tickets of the async data path.
    tickets: BTreeMap<u64, TicketState>,
    /// Next ticket id.
    next_ticket: u64,
    /// Transfers booked asynchronously *between* region runs. They are not
    /// part of any region's log yet; [`DataManager::adopt_deferred_for`]
    /// moves them into the fresh per-run log of the region that consumes
    /// the buffers, which is what keeps `RunRecord::transfers` identical to
    /// the synchronous data path.
    deferred: Vec<TransferRecord>,
    /// Buffers whose *first* device copy is being materialized by a
    /// synchronous, region-attributed plan right now: buffer → (optimistic
    /// holder, planning region). While an entry is live, a second
    /// synchronous first-touch plan from a *different* region is a typed
    /// [`OmpcError::InvalidConfig`] rejection instead of the formerly
    /// documented-unsupported race (the second region would compute against
    /// bytes whose arrival nothing orders). Entries are cleared when the
    /// planning region drains its log (region completion), when the
    /// optimistic booking is rolled back, or when the holder node fails.
    settling: BTreeMap<u64, (NodeId, u64)>,
}

impl DataManager {
    /// Create an empty data manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new region epoch. Called once per region execution by the
    /// owning device; entries registered or written from now on carry the
    /// new epoch.
    pub fn begin_region(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// The current region epoch (0 before the first region).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The region epoch that last registered or wrote `buffer`.
    pub fn buffer_epoch(&self, buffer: BufferId) -> Option<u64> {
        self.buffers.get(&buffer).map(|l| l.epoch)
    }

    /// Register a buffer whose initial (host) copy lives on the head node.
    /// `bytes` is the nominal mapped size used for transfer accounting.
    pub fn register_host_buffer(&mut self, buffer: BufferId, bytes: u64) {
        let mut holders = BTreeSet::new();
        holders.insert(HEAD_NODE);
        let epoch = self.epoch;
        self.buffers.insert(
            buffer,
            BufferLocations { holders, latest: HEAD_NODE, bytes, resident: false, epoch },
        );
    }

    /// Register a buffer that is allocated directly on `node` without a
    /// host copy (the `map(alloc:)` case). Ignored when `node` has been
    /// declared failed.
    pub fn register_device_buffer(&mut self, buffer: BufferId, node: NodeId, bytes: u64) {
        if self.failed.contains(&node) {
            return;
        }
        let mut holders = BTreeSet::new();
        holders.insert(node);
        let epoch = self.epoch;
        self.buffers.insert(
            buffer,
            BufferLocations { holders, latest: node, bytes, resident: false, epoch },
        );
    }

    /// Whether the buffer is known to the data manager.
    pub fn is_registered(&self, buffer: BufferId) -> bool {
        self.buffers.contains_key(&buffer)
    }

    /// Mark `buffer` keep-resident: a region-level `map(from:)` flushes it
    /// back to the host but keeps the device copies mapped for later
    /// regions. Exit data with `map(release:)` (or the device-level
    /// [`crate::cluster::ClusterDevice::exit_data`]) still ends the
    /// mapping.
    pub fn mark_resident(&mut self, buffer: BufferId) {
        if let Some(loc) = self.buffers.get_mut(&buffer) {
            loc.resident = true;
        }
    }

    /// Whether `buffer` was marked keep-resident.
    pub fn is_resident(&self, buffer: BufferId) -> bool {
        self.buffers.get(&buffer).is_some_and(|l| l.resident)
    }

    /// Registered (nominal) size of the buffer in bytes.
    pub fn bytes_of(&self, buffer: BufferId) -> u64 {
        self.buffers.get(&buffer).map(|l| l.bytes).unwrap_or(0)
    }

    /// Update the registered size of `buffer` to the size actually observed
    /// on the wire. Kernels may resize a buffer on the device (`set_f64s`
    /// with a different length); the first retrieval of the resized data
    /// sees the real byte count and reports it here **before**
    /// [`DataManager::record_retrieve`], so that record — and every later
    /// forward of the buffer — logs the bytes that really moved instead of
    /// the stale mapped size.
    pub fn observe_size(&mut self, buffer: BufferId, bytes: u64) {
        if let Some(loc) = self.buffers.get_mut(&buffer) {
            loc.bytes = bytes;
        }
    }

    /// Nodes currently holding a valid copy of the buffer.
    pub fn holders(&self, buffer: BufferId) -> Vec<NodeId> {
        self.buffers.get(&buffer).map(|l| l.holders.iter().copied().collect()).unwrap_or_default()
    }

    /// The node holding the most recent version of the buffer, if known.
    pub fn latest(&self, buffer: BufferId) -> Option<NodeId> {
        self.buffers.get(&buffer).map(|l| l.latest)
    }

    /// Whether `node` holds a valid copy of `buffer`.
    pub fn is_present(&self, buffer: BufferId, node: NodeId) -> bool {
        self.buffers.get(&buffer).is_some_and(|l| l.holders.contains(&node))
    }

    /// The residency map consulted by region planning: every buffer whose
    /// latest version currently lives on a worker node, with that worker.
    /// Dead nodes never appear (their copies were invalidated by
    /// [`DataManager::fail_node`]).
    pub fn latest_on_workers(&self) -> BTreeMap<BufferId, NodeId> {
        self.buffers
            .iter()
            .filter(|(_, l)| l.latest != HEAD_NODE)
            .map(|(&b, l)| (b, l.latest))
            .collect()
    }

    /// Decide how to make `buffer` available on `node` before a task that
    /// *reads* it executes there. Returns `None` when the buffer is already
    /// present; otherwise returns a transfer from the most recent holder,
    /// records the new replica, and logs the transfer with
    /// [`TransferReason::Input`] in the [`UNATTRIBUTED`] namespace.
    pub fn plan_input(&mut self, buffer: BufferId, node: NodeId) -> Option<TransferPlan> {
        self.plan_input_as_in(UNATTRIBUTED, buffer, node, TransferReason::Input)
            .expect("device-level plans are exempt from the first-touch guard")
    }

    /// [`DataManager::plan_input`] logging into `region`'s namespace — the
    /// entry point of the execution backends, whose records belong to one
    /// admitted region. `Err` means another concurrently admitted region is
    /// still settling the buffer's first device copy (see
    /// [`DataManager::plan_input_as_in`]).
    pub fn plan_input_in(
        &mut self,
        region: u64,
        buffer: BufferId,
        node: NodeId,
    ) -> Result<Option<TransferPlan>, OmpcError> {
        self.plan_input_as_in(region, buffer, node, TransferReason::Input)
    }

    /// [`DataManager::plan_input`] with an explicit log classification —
    /// enter-data distributions use [`TransferReason::EnterData`] so the
    /// transfer observability can tell initial distribution from steady-
    /// state forwarding. Logs into the [`UNATTRIBUTED`] namespace.
    pub fn plan_input_as(
        &mut self,
        buffer: BufferId,
        node: NodeId,
        reason: TransferReason,
    ) -> Option<TransferPlan> {
        self.plan_input_as_in(UNATTRIBUTED, buffer, node, reason)
            .expect("device-level plans are exempt from the first-touch guard")
    }

    /// [`DataManager::plan_input_as`] logging into `region`'s namespace.
    ///
    /// Region-attributed plans enforce the **concurrent first-touch
    /// guard**: the first synchronous host-sourced plan of a buffer that
    /// has no worker copy yet marks the buffer *settling* under its region;
    /// until that region completes, a second synchronous first-touch plan
    /// from a different region returns
    /// [`OmpcError::InvalidConfig`] instead of racing the optimistic
    /// holder whose bytes may still be on the wire. Plans in the
    /// [`UNATTRIBUTED`] namespace (device-level enter-data, recovery) are
    /// exempt and never fail.
    pub fn plan_input_as_in(
        &mut self,
        region: u64,
        buffer: BufferId,
        node: NodeId,
        reason: TransferReason,
    ) -> Result<Option<TransferPlan>, OmpcError> {
        if self.failed.contains(&node) {
            // A dead node never receives data; the caller is a zombie task
            // whose results are discarded anyway.
            return Ok(None);
        }
        let loc = self
            .buffers
            .get_mut(&buffer)
            .unwrap_or_else(|| panic!("plan_input on unregistered buffer {buffer}"));
        if loc.holders.contains(&node) {
            return Ok(None);
        }
        if region != UNATTRIBUTED {
            if let Some(&(holder, settling_region)) = self.settling.get(&buffer.0) {
                if settling_region != region {
                    return Err(OmpcError::InvalidConfig(format!(
                        "concurrent synchronous first-touch of {buffer}: region {region} \
                         planned it for node {node} while region {settling_region} is still \
                         settling the first device copy on node {holder}"
                    )));
                }
            }
        }
        let from = loc.latest;
        let first_touch = from == HEAD_NODE && loc.holders.iter().all(|&h| h == HEAD_NODE);
        loc.holders.insert(node);
        if region != UNATTRIBUTED && first_touch {
            self.settling.entry(buffer.0).or_insert((node, region));
        }
        // A stale failure record for this pair is superseded by the new
        // booking: the caller performs the transfer synchronously.
        if matches!(self.inflight.get(&(buffer.0, node)), Some(InflightEntry::Failed(_))) {
            self.inflight.remove(&(buffer.0, node));
        }
        self.logs.entry(region).or_default().push(TransferRecord {
            buffer,
            from,
            to: node,
            bytes: loc.bytes,
            reason,
        });
        Ok(Some(TransferPlan { from, to: node, buffer }))
    }

    /// Record one delivered edge of a collective broadcast: `to` now holds
    /// a valid replica of `buffer` whose bytes were fed by `from` (the tree
    /// parent, or the rescue source when the planned parent died). The edge
    /// is logged under `region` with the buffer's registered size, so the
    /// transfer log reports the true per-edge wire bytes of the tree rather
    /// than k star edges out of the original holder. No-op when `to` is
    /// dead or already a holder.
    pub fn note_broadcast_delivery(
        &mut self,
        region: u64,
        buffer: BufferId,
        from: NodeId,
        to: NodeId,
        reason: TransferReason,
    ) {
        if self.failed.contains(&to) {
            return;
        }
        let Some(loc) = self.buffers.get_mut(&buffer) else { return };
        if !loc.holders.insert(to) {
            return;
        }
        if matches!(self.inflight.get(&(buffer.0, to)), Some(InflightEntry::Failed(_))) {
            self.inflight.remove(&(buffer.0, to));
        }
        self.logs.entry(region).or_default().push(TransferRecord {
            buffer,
            from,
            to,
            bytes: loc.bytes,
            reason,
        });
    }

    /// Repoint the source of the async record booked towards
    /// `(buffer, to)` — used when a collective rescue delivers the bytes
    /// from a different node than the planned tree parent, so the record
    /// reports the edge that actually carried the payload. The record may
    /// still be deferred, or already adopted into the consuming region's
    /// log (the region starts before its broadcast job resolves); like
    /// [`DataManager::finish_inflight`]'s rollback, at most one live record
    /// per `(buffer, to)` exists across all namespaces.
    pub fn retarget_deferred_from(&mut self, buffer: BufferId, to: NodeId, new_from: NodeId) {
        if let Some(rec) = self.deferred.iter_mut().rev().find(|t| t.buffer == buffer && t.to == to)
        {
            rec.from = new_from;
            return;
        }
        for log in self.logs.values_mut() {
            if let Some(rec) = log.iter_mut().rev().find(|t| t.buffer == buffer && t.to == to) {
                rec.from = new_from;
                return;
            }
        }
    }

    /// Open a ticket for a batch of asynchronous transfers. Movements are
    /// attached with [`DataManager::begin_inflight`] /
    /// [`DataManager::begin_inflight_retrieve`] and resolved with
    /// [`DataManager::finish_inflight`]; [`DataManager::ticket_result`]
    /// reports (and reaps) the batch outcome.
    pub fn open_ticket(&mut self) -> Ticket {
        let t = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.tickets.insert(t.0, TicketState::default());
        t
    }

    /// Book an asynchronous movement of `buffer` towards worker `node`
    /// under `ticket`: exactly [`DataManager::plan_input_as`], except the
    /// transfer record is *deferred* (adopted into the consuming region's
    /// log by [`DataManager::adopt_deferred_for`]) and the pair is marked
    /// in flight so first readers wait on the ticket instead of
    /// re-submitting. Returns `None` when nothing needs to move (already
    /// present, already in flight, or the node is dead).
    pub fn begin_inflight(
        &mut self,
        buffer: BufferId,
        node: NodeId,
        reason: TransferReason,
        ticket: Ticket,
    ) -> Option<TransferPlan> {
        if self.failed.contains(&node) {
            return None;
        }
        let loc = self
            .buffers
            .get_mut(&buffer)
            .unwrap_or_else(|| panic!("begin_inflight on unregistered buffer {buffer}"));
        // A write elsewhere may have stripped a still-moving booking's
        // holder; booking the pair again would orphan the first ticket.
        let moving = matches!(self.inflight.get(&(buffer.0, node)), Some(InflightEntry::Moving(_)));
        if moving || loc.holders.contains(&node) {
            return None;
        }
        let from = loc.latest;
        loc.holders.insert(node);
        self.deferred.push(TransferRecord { buffer, from, to: node, bytes: loc.bytes, reason });
        self.inflight.insert((buffer.0, node), InflightEntry::Moving(ticket));
        if let Some(ts) = self.tickets.get_mut(&ticket.0) {
            ts.remaining += 1;
        }
        Some(TransferPlan { from, to: node, buffer })
    }

    /// Book an asynchronous (or serialized lazy) retrieval of `buffer` to
    /// the head node under `ticket`, marking `(buffer, HEAD_NODE)` in
    /// flight so a concurrent flush of the same buffer waits instead of
    /// scheduling a second retrieve — the fix for the latent double-flush.
    /// Nothing is logged or committed here; the caller still runs
    /// [`DataManager::record_retrieve`] once the bytes land, then
    /// [`DataManager::finish_inflight`]. Returns the retrieval source, or
    /// `None` when the head already holds the latest version.
    pub fn begin_inflight_retrieve(&mut self, buffer: BufferId, ticket: Ticket) -> Option<NodeId> {
        let from = self.retrieve_source(buffer)?;
        self.inflight.insert((buffer.0, HEAD_NODE), InflightEntry::Moving(ticket));
        if let Some(ts) = self.tickets.get_mut(&ticket.0) {
            ts.remaining += 1;
        }
        Some(from)
    }

    /// Resolve a movement booked by [`DataManager::begin_inflight`] /
    /// [`DataManager::begin_inflight_retrieve`]. On success the booking
    /// becomes a plain resident copy. On failure — or on "success" towards
    /// a node that has been declared failed in the meantime — the booking
    /// is rolled back exactly like [`DataManager::forget_replica`]: the
    /// optimistic holder is forgotten and the deferred (or already adopted)
    /// transfer record is withdrawn, so neither the run record nor
    /// [`crate::event::EventCounters::bytes_moved`] double-counts the
    /// abandoned transfer. Worker-destined failures stay visible to waiters
    /// via [`DataManager::take_inflight_error`]; a failed retrieval is
    /// simply un-booked so the next flush retries from the still-truthful
    /// location state.
    pub fn finish_inflight(
        &mut self,
        buffer: BufferId,
        node: NodeId,
        outcome: Result<(), OmpcError>,
    ) {
        let Some(entry) = self.inflight.remove(&(buffer.0, node)) else { return };
        let ticket = match entry {
            InflightEntry::Moving(t) => Some(t),
            InflightEntry::Failed(_) => None,
        };
        let outcome = match outcome {
            Ok(()) if node != HEAD_NODE && self.failed.contains(&node) => {
                Err(OmpcError::NodeFailure(node))
            }
            other => other,
        };
        if let Err(error) = &outcome {
            if node != HEAD_NODE {
                // Roll back the optimistic booking: the holder (unless the
                // pair survived a failure declaration that already stripped
                // it) and the transfer record, wherever it currently lives.
                if let Some(loc) = self.buffers.get_mut(&buffer) {
                    if loc.latest != node {
                        loc.holders.remove(&node);
                    }
                }
                if let Some(pos) =
                    self.deferred.iter().rposition(|t| t.buffer == buffer && t.to == node)
                {
                    self.deferred.remove(pos);
                } else {
                    // At most one live record per (buffer, node) exists
                    // across all namespaces (the holder record blocks
                    // re-planning), so a global search stays unambiguous.
                    for log in self.logs.values_mut() {
                        if let Some(pos) =
                            log.iter().rposition(|t| t.buffer == buffer && t.to == node)
                        {
                            log.remove(pos);
                            break;
                        }
                    }
                }
                self.inflight.insert((buffer.0, node), InflightEntry::Failed(error.clone()));
            }
        }
        if let Some(t) = ticket {
            if let Some(ts) = self.tickets.get_mut(&t.0) {
                ts.remaining = ts.remaining.saturating_sub(1);
                if let Err(error) = &outcome {
                    ts.error.get_or_insert_with(|| error.clone());
                }
            }
        }
    }

    /// The async-data-path state of `buffer`'s copy on `node` (see
    /// [`TransferState`]).
    pub fn transfer_state(&self, buffer: BufferId, node: NodeId) -> TransferState {
        match self.inflight.get(&(buffer.0, node)) {
            Some(InflightEntry::Moving(t)) => TransferState::InFlight(*t),
            Some(InflightEntry::Failed(_)) => TransferState::Invalid,
            None => {
                if self.is_present(buffer, node) {
                    TransferState::Resident
                } else {
                    TransferState::Invalid
                }
            }
        }
    }

    /// Consume the stored failure of an abandoned movement towards
    /// `(buffer, node)`, if one is recorded. Waiters call this after
    /// observing [`TransferState::Invalid`] so a task never executes
    /// against bytes that silently failed to arrive.
    pub fn take_inflight_error(&mut self, buffer: BufferId, node: NodeId) -> Option<OmpcError> {
        match self.inflight.get(&(buffer.0, node)) {
            Some(InflightEntry::Failed(_)) => match self.inflight.remove(&(buffer.0, node)) {
                Some(InflightEntry::Failed(e)) => Some(e),
                _ => None,
            },
            _ => None,
        }
    }

    /// The outcome of `ticket`, or `None` while transfers are still in
    /// flight. A finished ticket is reaped on first read; an unknown (or
    /// already reaped) ticket reads as successfully completed.
    pub fn ticket_result(&mut self, ticket: Ticket) -> Option<Result<(), OmpcError>> {
        match self.tickets.get(&ticket.0) {
            None => Some(Ok(())),
            Some(ts) if ts.remaining == 0 => {
                let ts = self.tickets.remove(&ticket.0).unwrap_or_default();
                Some(match ts.error {
                    Some(e) => Err(e),
                    None => Ok(()),
                })
            }
            Some(_) => None,
        }
    }

    /// Whether any movement of `buffer` (towards any node) is in flight.
    pub fn buffer_in_flight(&self, buffer: BufferId) -> bool {
        self.inflight
            .iter()
            .any(|(&(b, _), e)| b == buffer.0 && matches!(e, InflightEntry::Moving(_)))
    }

    /// Move the deferred records of async transfers whose buffers belong to
    /// the region about to run into that region's (fresh) log namespace, in
    /// booking order. Called by the device right before a region executes,
    /// so the consuming region's [`crate::runtime::RunRecord::transfers`]
    /// reports the prefetched movements exactly where the synchronous path
    /// would have planned them. Records for other buffers stay deferred.
    pub fn adopt_deferred_for(&mut self, buffers: &BTreeSet<BufferId>, region: u64) {
        let mut kept = Vec::new();
        for record in std::mem::take(&mut self.deferred) {
            if buffers.contains(&record.buffer) {
                self.logs.entry(region).or_default().push(record);
            } else {
                kept.push(record);
            }
        }
        self.deferred = kept;
    }

    /// The async transfer records not yet adopted into any region's log.
    pub fn deferred_transfers(&self) -> &[TransferRecord] {
        &self.deferred
    }

    /// Record that a task executing on `node` wrote `buffer`: the copy on
    /// `node` becomes the only valid one. Returns the nodes whose copies
    /// became stale (and should be deleted), excluding `node` itself.
    pub fn record_write(&mut self, buffer: BufferId, node: NodeId) -> Vec<NodeId> {
        if self.failed.contains(&node) {
            // Writes from a dead node are discarded: its task will be
            // re-executed on a survivor.
            return Vec::new();
        }
        let epoch = self.epoch;
        let loc = self
            .buffers
            .get_mut(&buffer)
            .unwrap_or_else(|| panic!("record_write on unregistered buffer {buffer}"));
        let stale: Vec<NodeId> = loc.holders.iter().copied().filter(|&n| n != node).collect();
        loc.holders.clear();
        loc.holders.insert(node);
        loc.latest = node;
        loc.epoch = epoch;
        stale
    }

    /// Roll back a replica recorded optimistically by
    /// [`DataManager::plan_input`] whose transfer failed: `node` never
    /// received the bytes, so it must not be remembered as a holder, and
    /// the logged transfer is withdrawn. The most recent copy (`latest`)
    /// is never forgotten.
    pub fn forget_replica(&mut self, buffer: BufferId, node: NodeId) {
        if self.settling.get(&buffer.0).is_some_and(|&(n, _)| n == node) {
            self.settling.remove(&buffer.0);
        }
        if let Some(loc) = self.buffers.get_mut(&buffer) {
            // A failure declaration may already have stripped the holder;
            // the record of the transfer that never landed goes all the same.
            if loc.latest != node && (loc.holders.remove(&node) || self.failed.contains(&node)) {
                // At most one live log entry can exist per (buffer, node):
                // a second plan is only possible after the first was rolled
                // back (the holder record blocks re-planning otherwise).
                for log in self.logs.values_mut() {
                    if let Some(pos) = log.iter().rposition(|t| t.buffer == buffer && t.to == node)
                    {
                        log.remove(pos);
                        break;
                    }
                }
            }
        }
    }

    /// Record that `node` received a read-only replica of `buffer` (e.g.
    /// after an explicit alloc that bypassed [`DataManager::plan_input`]).
    /// Not logged as a transfer — no bytes moved.
    pub fn record_replica(&mut self, buffer: BufferId, node: NodeId) {
        if self.failed.contains(&node) {
            return;
        }
        let loc = self
            .buffers
            .get_mut(&buffer)
            .unwrap_or_else(|| panic!("record_replica on unregistered buffer {buffer}"));
        loc.holders.insert(node);
    }

    /// The node a retrieval of `buffer` back to the head (exit data with
    /// `map(from:)`, or a lazy host flush) must fetch from, or `None` when
    /// the head already holds the latest version. Read-only: nothing is
    /// committed until [`DataManager::record_retrieve`] confirms the bytes
    /// actually landed — so a retrieval that fails (or whose source dies
    /// mid-flight) leaves the location state truthful and a later plan
    /// retries from the then-latest holder.
    pub fn retrieve_source(&self, buffer: BufferId) -> Option<NodeId> {
        let loc = self
            .buffers
            .get(&buffer)
            .unwrap_or_else(|| panic!("retrieve_source on unregistered buffer {buffer}"));
        (loc.latest != HEAD_NODE).then_some(loc.latest)
    }

    /// Record that the retrieval planned by [`DataManager::retrieve_source`]
    /// completed: the head now holds the latest version, and the transfer
    /// is logged. The worker's copy stays a valid holder — a flush is a
    /// read, not an invalidation — so a resident buffer keeps its device
    /// copies. No-op when the head is already latest (the source died and
    /// recovery re-sourced the buffer meanwhile).
    pub fn record_retrieve(&mut self, buffer: BufferId) {
        self.record_retrieve_in(UNATTRIBUTED, buffer);
    }

    /// [`DataManager::record_retrieve`] logged under a region's namespace,
    /// so the retrieving region's record owns the transfer.
    pub fn record_retrieve_in(&mut self, region: u64, buffer: BufferId) {
        let loc = self
            .buffers
            .get_mut(&buffer)
            .unwrap_or_else(|| panic!("record_retrieve on unregistered buffer {buffer}"));
        if loc.latest == HEAD_NODE {
            return;
        }
        let from = loc.latest;
        loc.holders.insert(HEAD_NODE);
        loc.latest = HEAD_NODE;
        self.logs.entry(region).or_default().push(TransferRecord {
            buffer,
            from,
            to: HEAD_NODE,
            bytes: loc.bytes,
            reason: TransferReason::Retrieve,
        });
    }

    /// Remove the buffer from the data manager entirely (exit data with
    /// `map(release:)`), returning the worker nodes that still held copies
    /// and must free them. Ends keep-resident status.
    pub fn remove(&mut self, buffer: BufferId) -> Vec<NodeId> {
        self.settling.remove(&buffer.0);
        self.buffers
            .remove(&buffer)
            .map(|l| l.holders.into_iter().filter(|&n| n != HEAD_NODE).collect())
            .unwrap_or_default()
    }

    /// Declare `node` failed: every copy it held becomes invalid, its
    /// future writes are ignored, and it is never again chosen as a
    /// transfer source. Returns the buffers whose *only* valid copy lived
    /// on the node — their producing tasks must be re-executed (lineage
    /// recovery). For such buffers `latest` falls back to the head node:
    /// the host registry still holds the pre-offload image from which the
    /// re-executed lineage restarts. Resident copies are invalidated the
    /// same way — the next region's plan re-sources them from the host
    /// version or a surviving replica.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<BufferId> {
        assert_ne!(node, HEAD_NODE, "the head node cannot fail");
        self.failed.insert(node);
        self.settling.retain(|_, &mut (holder, _)| holder != node);
        let mut lost = Vec::new();
        let inflight = &self.inflight;
        for (&buffer, loc) in self.buffers.iter_mut() {
            loc.holders.remove(&node);
            if loc.latest == node {
                // A booking still on the wire is no survivor: its bytes may
                // have been coming from the node that just died.
                let arrived = |n: &&NodeId| {
                    !matches!(inflight.get(&(buffer.0, **n)), Some(InflightEntry::Moving(_)))
                };
                if let Some(&survivor) = loc.holders.iter().find(arrived) {
                    loc.latest = survivor;
                } else {
                    loc.latest = HEAD_NODE;
                    lost.push(buffer);
                }
            }
        }
        lost
    }

    /// Whether `node` has been declared failed.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed.contains(&node)
    }

    /// Whether any node has been declared failed.
    pub fn has_failures(&self) -> bool {
        !self.failed.is_empty()
    }

    /// Drain the per-run transfer log (planned transfers since the last
    /// drain). The execution core attaches this to its
    /// [`crate::runtime::RunRecord`].
    pub fn take_transfer_log(&mut self) -> Vec<TransferRecord> {
        self.settling.clear();
        std::mem::take(&mut self.logs).into_values().flatten().collect()
    }

    /// Drain one region's transfer-log namespace, leaving the others (and
    /// the device-level [`UNATTRIBUTED`] namespace) untouched. This is what
    /// the cluster device attaches to a concurrent region's
    /// [`crate::runtime::RunRecord`].
    pub fn take_transfer_log_in(&mut self, region: u64) -> Vec<TransferRecord> {
        self.settling.retain(|_, &mut (_, r)| r != region);
        self.logs.remove(&region).unwrap_or_default()
    }

    /// The transfers logged since the last [`DataManager::take_transfer_log`].
    pub fn transfer_log(&self) -> Vec<TransferRecord> {
        self.logs.values().flatten().cloned().collect()
    }

    /// Number of tracked buffers.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Whether no buffers are tracked.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_forwarding_pattern() {
        // Paper §4.3 walk-through: A starts on the head node, foo runs on
        // worker 1, bar on worker 2. The forward for bar must come from
        // worker 1, not the head, and worker 1's copy is invalidated after
        // bar writes.
        let mut dm = DataManager::new();
        let a = BufferId(0);
        dm.register_host_buffer(a, 64);

        // foo (inout A) on node 1: input comes from the head.
        let plan = dm.plan_input(a, 1).unwrap();
        assert_eq!(plan, TransferPlan { from: HEAD_NODE, to: 1, buffer: a });
        let stale = dm.record_write(a, 1);
        assert_eq!(stale, vec![HEAD_NODE]);
        assert_eq!(dm.latest(a), Some(1));

        // bar (inout A) on node 2: input forwarded worker-to-worker.
        let plan = dm.plan_input(a, 2).unwrap();
        assert_eq!(plan, TransferPlan { from: 1, to: 2, buffer: a });
        let stale = dm.record_write(a, 2);
        assert_eq!(stale, vec![1]);
        assert_eq!(dm.holders(a), vec![2]);

        // exit data: retrieve from node 2, then release everywhere.
        assert_eq!(dm.retrieve_source(a), Some(2));
        dm.record_retrieve(a);
        assert_eq!(dm.latest(a), Some(HEAD_NODE));
        let free = dm.remove(a);
        assert_eq!(free, vec![2]);
        assert!(dm.is_empty());

        // The log captured the whole story with the registered size.
        let log = dm.take_transfer_log();
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|t| t.bytes == 64 && t.buffer == a));
        assert_eq!(log[0].reason, TransferReason::Input);
        assert_eq!((log[1].from, log[1].to), (1, 2));
        assert_eq!(log[2].reason, TransferReason::Retrieve);
        assert!(dm.transfer_log().is_empty(), "the drain empties the log");
    }

    #[test]
    fn read_only_data_is_replicated_not_invalidated() {
        let mut dm = DataManager::new();
        let b = BufferId(1);
        dm.register_host_buffer(b, 8);
        assert!(dm.plan_input(b, 1).is_some());
        assert!(dm.plan_input(b, 2).is_some());
        // Both workers plus the head hold copies now.
        assert_eq!(dm.holders(b), vec![HEAD_NODE, 1, 2]);
        // A third reader on node 1 needs no transfer.
        assert!(dm.plan_input(b, 1).is_none());
    }

    #[test]
    fn second_input_plan_for_same_node_is_free() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        assert!(dm.plan_input(b, 3).is_some());
        assert!(dm.plan_input(b, 3).is_none());
        assert_eq!(dm.transfer_log().len(), 1, "a free re-plan logs nothing");
    }

    #[test]
    fn retrieve_is_noop_when_head_is_latest() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        assert_eq!(dm.retrieve_source(b), None);
        dm.record_retrieve(b);
        assert!(dm.transfer_log().is_empty());
    }

    #[test]
    fn device_only_buffer_starts_on_its_node() {
        let mut dm = DataManager::new();
        let b = BufferId(7);
        dm.register_device_buffer(b, 3, 16);
        assert_eq!(dm.latest(b), Some(3));
        assert!(dm.is_present(b, 3));
        assert!(!dm.is_present(b, HEAD_NODE));
        assert_eq!(dm.bytes_of(b), 16);
        assert_eq!(dm.retrieve_source(b), Some(3));
        dm.record_retrieve(b);
        assert_eq!(dm.latest(b), Some(HEAD_NODE));
        // A flush is a read: node 3 keeps its copy.
        assert!(dm.is_present(b, 3));
    }

    #[test]
    fn failed_retrieve_commits_nothing_and_recovery_retries_truthfully() {
        // The retrieval plan is read-only: if the bytes never land (the
        // source fails mid-flight), the location state stays truthful —
        // fail_node still sees the worker as latest, reports the loss, and
        // a later plan re-sources from the head's pre-offload image.
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 2).unwrap();
        dm.record_write(b, 2);
        assert_eq!(dm.retrieve_source(b), Some(2));
        // ... the retrieve from node 2 fails; nothing was committed:
        assert_eq!(dm.latest(b), Some(2));
        assert!(!dm.is_present(b, HEAD_NODE));
        let lost = dm.fail_node(2);
        assert_eq!(lost, vec![b], "the death must be reported, not masked by a phantom flush");
        assert_eq!(dm.retrieve_source(b), None, "nothing left to retrieve");
        // record_retrieve after recovery moved latest to the head is a
        // no-op, not a phantom transfer.
        dm.record_retrieve(b);
        let retrieves =
            dm.transfer_log().iter().filter(|t| t.reason == TransferReason::Retrieve).count();
        assert_eq!(retrieves, 0);
    }

    #[test]
    fn forget_replica_rolls_back_a_failed_transfer_and_its_log_entry() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        assert!(dm.plan_input(b, 2).is_some());
        assert_eq!(dm.transfer_log().len(), 1);
        // The transfer failed: node 2 must be forgotten so a later reader
        // plans the transfer again, and the logged transfer is withdrawn.
        dm.forget_replica(b, 2);
        assert!(!dm.is_present(b, 2));
        assert!(dm.transfer_log().is_empty());
        assert!(dm.plan_input(b, 2).is_some());
        assert_eq!(dm.transfer_log().len(), 1);
        // The latest copy is never forgotten.
        dm.forget_replica(b, HEAD_NODE);
        assert!(dm.is_present(b, HEAD_NODE));
        assert_eq!(dm.transfer_log().len(), 1);
    }

    #[test]
    fn observed_resizes_keep_log_bytes_truthful() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 1).unwrap();
        dm.record_write(b, 1);
        // A kernel grew the buffer on node 1; the retrieval observes the
        // wire size before committing, so its log entry is truthful.
        dm.observe_size(b, 24);
        dm.record_retrieve(b);
        let log = dm.take_transfer_log();
        assert_eq!(log[0].bytes, 8, "the initial forward moved the mapped size");
        assert_eq!(log[1].bytes, 24, "the retrieve logs the resized payload");
        // Later forwards account the observed size too.
        assert!(dm.plan_input(b, 2).is_some());
        assert_eq!(dm.transfer_log()[0].bytes, 24);
        assert_eq!(dm.bytes_of(b), 24);
        // Unknown buffers are ignored, not invented.
        dm.observe_size(BufferId(99), 1);
        assert_eq!(dm.bytes_of(BufferId(99)), 0);
    }

    #[test]
    fn record_replica_marks_presence() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.record_replica(b, 5);
        assert!(dm.is_present(b, 5));
        // Latest is unchanged by a replica, and nothing was logged.
        assert_eq!(dm.latest(b), Some(HEAD_NODE));
        assert!(dm.transfer_log().is_empty());
    }

    #[test]
    fn remove_unknown_buffer_is_empty() {
        let mut dm = DataManager::new();
        assert!(dm.remove(BufferId(9)).is_empty());
        assert!(dm.holders(BufferId(9)).is_empty());
        assert!(!dm.is_registered(BufferId(9)));
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn plan_input_on_unregistered_buffer_panics() {
        let mut dm = DataManager::new();
        dm.plan_input(BufferId(0), 1);
    }

    #[test]
    fn failed_node_with_surviving_replica_promotes_a_survivor() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 1).unwrap();
        dm.record_write(b, 1);
        // A reader replicates the latest version onto node 2.
        dm.plan_input(b, 2).unwrap();
        let lost = dm.fail_node(1);
        assert!(lost.is_empty(), "node 2 still holds a valid copy");
        assert!(dm.is_failed(1) && dm.has_failures());
        assert_eq!(dm.latest(b), Some(2));
        assert_eq!(dm.holders(b), vec![2]);
    }

    #[test]
    fn failed_node_holding_the_only_copy_loses_the_buffer() {
        let mut dm = DataManager::new();
        let b = BufferId(3);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 2).unwrap();
        dm.record_write(b, 2);
        let lost = dm.fail_node(2);
        assert_eq!(lost, vec![b]);
        // Lineage restarts from the head node's pre-offload image.
        assert_eq!(dm.latest(b), Some(HEAD_NODE));
        assert!(dm.holders(b).is_empty());
    }

    #[test]
    fn dead_nodes_are_excommunicated_from_all_operations() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.fail_node(4);
        // No transfers to, writes from, or replicas on a dead node.
        assert!(dm.plan_input(b, 4).is_none());
        assert!(dm.record_write(b, 4).is_empty());
        assert_eq!(dm.latest(b), Some(HEAD_NODE));
        dm.record_replica(b, 4);
        assert!(!dm.is_present(b, 4));
        dm.register_device_buffer(BufferId(9), 4, 8);
        assert!(!dm.is_registered(BufferId(9)));
        // Live nodes are unaffected.
        assert!(dm.plan_input(b, 1).is_some());
    }

    #[test]
    fn region_epochs_stamp_registration_and_writes() {
        let mut dm = DataManager::new();
        assert_eq!(dm.epoch(), 0);
        assert_eq!(dm.begin_region(), 1);
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        assert_eq!(dm.buffer_epoch(b), Some(1));
        dm.begin_region();
        // Residency carries the old epoch until something writes.
        assert_eq!(dm.buffer_epoch(b), Some(1));
        dm.plan_input(b, 1);
        assert_eq!(dm.buffer_epoch(b), Some(1), "a read replica does not advance the epoch");
        dm.record_write(b, 1);
        assert_eq!(dm.buffer_epoch(b), Some(2));
        assert_eq!(dm.epoch(), 2);
    }

    #[test]
    fn resident_marking_survives_until_remove() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        assert!(!dm.is_resident(b));
        dm.mark_resident(b);
        assert!(dm.is_resident(b));
        dm.plan_input(b, 1);
        dm.record_write(b, 1);
        assert!(dm.is_resident(b), "writes keep residency");
        dm.remove(b);
        assert!(!dm.is_resident(b), "release ends residency");
    }

    #[test]
    fn inflight_booking_defers_the_record_and_blocks_replanning() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 64);
        let t = dm.open_ticket();
        let plan = dm.begin_inflight(b, 2, TransferReason::Input, t).unwrap();
        assert_eq!(plan, TransferPlan { from: HEAD_NODE, to: 2, buffer: b });
        // The booking is a holder (no sync re-plan) but the record is
        // deferred, not in the per-run log.
        assert!(dm.plan_input(b, 2).is_none());
        assert!(dm.transfer_log().is_empty());
        assert_eq!(dm.deferred_transfers().len(), 1);
        assert_eq!(dm.transfer_state(b, 2), TransferState::InFlight(t));
        assert!(dm.buffer_in_flight(b));
        // A second booking of the same pair is free.
        assert!(dm.begin_inflight(b, 2, TransferReason::Input, t).is_none());
        // The ticket is pending until the movement lands.
        assert_eq!(dm.ticket_result(t), None);
        dm.finish_inflight(b, 2, Ok(()));
        assert_eq!(dm.transfer_state(b, 2), TransferState::Resident);
        assert_eq!(dm.ticket_result(t), Some(Ok(())));
        // Reaped: a later read of the same ticket reads as complete.
        assert_eq!(dm.ticket_result(t), Some(Ok(())));
        // Adoption moves the deferred record into the fresh log.
        dm.adopt_deferred_for(&[b].into_iter().collect(), UNATTRIBUTED);
        assert!(dm.deferred_transfers().is_empty());
        assert_eq!(dm.transfer_log().len(), 1);
        assert_eq!(dm.transfer_log()[0].reason, TransferReason::Input);
    }

    #[test]
    fn failed_inflight_rolls_back_holder_record_and_surfaces_the_error() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        let t = dm.open_ticket();
        dm.begin_inflight(b, 3, TransferReason::EnterData, t).unwrap();
        let boom = OmpcError::Internal("wire".to_string());
        dm.finish_inflight(b, 3, Err(boom.clone()));
        // Holder and deferred record are gone; the failure is visible to
        // waiters exactly once; the ticket reports it.
        assert!(!dm.is_present(b, 3));
        assert!(dm.deferred_transfers().is_empty());
        assert_eq!(dm.transfer_state(b, 3), TransferState::Invalid);
        assert_eq!(dm.take_inflight_error(b, 3), Some(boom.clone()));
        assert_eq!(dm.take_inflight_error(b, 3), None);
        assert_eq!(dm.ticket_result(t), Some(Err(boom)));
        // The pair can be re-planned synchronously afterwards.
        assert!(dm.plan_input(b, 3).is_some());
    }

    #[test]
    fn inflight_completion_on_a_dead_node_counts_as_failure() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        let t = dm.open_ticket();
        dm.begin_inflight(b, 2, TransferReason::Input, t).unwrap();
        dm.fail_node(2);
        // The wire op "succeeded" but the destination died: the booking
        // must roll back (no phantom transfer record survives).
        dm.finish_inflight(b, 2, Ok(()));
        assert!(dm.deferred_transfers().is_empty());
        assert!(!dm.is_present(b, 2));
        assert!(matches!(dm.ticket_result(t), Some(Err(OmpcError::NodeFailure(2)))));
    }

    #[test]
    fn inflight_retrieve_serializes_concurrent_flushes() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 1).unwrap();
        dm.record_write(b, 1);
        let t = dm.open_ticket();
        assert_eq!(dm.begin_inflight_retrieve(b, t), Some(1));
        // A concurrent flusher observes the in-flight retrieval and waits
        // instead of scheduling a second retrieve.
        assert_eq!(dm.transfer_state(b, HEAD_NODE), TransferState::InFlight(t));
        dm.record_retrieve(b);
        dm.finish_inflight(b, HEAD_NODE, Ok(()));
        assert_eq!(dm.ticket_result(t), Some(Ok(())));
        // Once the head is latest there is nothing left to book.
        let t2 = dm.open_ticket();
        assert_eq!(dm.begin_inflight_retrieve(b, t2), None);
        assert_eq!(dm.ticket_result(t2), Some(Ok(())));
        // A failed retrieve is simply un-booked: the next flush retries.
        dm.record_write(b, 1);
        let t3 = dm.open_ticket();
        assert_eq!(dm.begin_inflight_retrieve(b, t3), Some(1));
        dm.finish_inflight(b, HEAD_NODE, Err(OmpcError::Internal("x".into())));
        assert_eq!(dm.transfer_state(b, HEAD_NODE), TransferState::Invalid);
        assert_eq!(dm.retrieve_source(b), Some(1));
        assert!(matches!(dm.ticket_result(t3), Some(Err(_))));
    }

    #[test]
    fn latest_on_workers_reports_only_device_latest_buffers() {
        let mut dm = DataManager::new();
        let a = BufferId(0);
        let b = BufferId(1);
        dm.register_host_buffer(a, 8);
        dm.register_host_buffer(b, 8);
        dm.plan_input(a, 2);
        dm.record_write(a, 2);
        let map = dm.latest_on_workers();
        assert_eq!(map.get(&a), Some(&2));
        assert!(!map.contains_key(&b), "host-latest buffers are not resident on workers");
        // A failure moves the residency view.
        dm.fail_node(2);
        assert!(dm.latest_on_workers().is_empty());
    }

    #[test]
    fn concurrent_sync_first_touch_is_a_typed_rejection() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        // Region 1 first-touches the buffer: the copy on node 1 is settling.
        assert!(dm.plan_input_in(1, b, 1).unwrap().is_some());
        // A second plan from the same region is fine (replication within
        // one region is ordered by that region's own dependence graph).
        assert!(dm.plan_input_in(1, b, 2).unwrap().is_some());
        // A concurrent region racing the optimistic holder is rejected.
        match dm.plan_input_in(2, b, 3) {
            Err(OmpcError::InvalidConfig(msg)) => {
                assert!(msg.contains("first-touch"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Planning towards a node that already holds stays a quiet no-op.
        assert!(dm.plan_input_in(2, b, 1).unwrap().is_none());
        // Once region 1 completes (drains its log), the copies are settled
        // and other regions may source them freely.
        dm.take_transfer_log_in(1);
        assert!(dm.plan_input_in(2, b, 3).unwrap().is_some());
    }

    #[test]
    fn first_touch_guard_clears_on_rollback_and_failure() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        assert!(dm.plan_input_in(1, b, 1).unwrap().is_some());
        assert!(dm.plan_input_in(2, b, 2).is_err());
        // The first-touch transfer failed: the booking rolls back and the
        // buffer is no longer settling.
        dm.forget_replica(b, 1);
        assert!(dm.plan_input_in(2, b, 2).unwrap().is_some());
        // Same via node failure.
        let c = BufferId(1);
        dm.register_host_buffer(c, 8);
        dm.take_transfer_log();
        assert!(dm.plan_input_in(3, c, 3).unwrap().is_some());
        assert!(dm.plan_input_in(4, c, 4).is_err());
        dm.fail_node(3);
        assert!(dm.plan_input_in(4, c, 4).unwrap().is_some());
        // Device-level (UNATTRIBUTED) plans are always exempt.
        let d = BufferId(2);
        dm.register_host_buffer(d, 8);
        assert!(dm.plan_input_in(5, d, 1).unwrap().is_some());
        assert!(dm.plan_input(d, 2).is_some());
    }

    #[test]
    fn broadcast_deliveries_log_true_per_edge_bytes() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 64);
        // Binomial distribution head→1, head→2, 1→3: each delivered edge
        // is one record carrying the real feeder.
        dm.note_broadcast_delivery(7, b, HEAD_NODE, 1, TransferReason::EnterData);
        dm.note_broadcast_delivery(7, b, HEAD_NODE, 2, TransferReason::EnterData);
        dm.note_broadcast_delivery(7, b, 1, 3, TransferReason::EnterData);
        // Duplicate delivery (rescue replays) must not double-log.
        dm.note_broadcast_delivery(7, b, 2, 3, TransferReason::EnterData);
        let mut holders = dm.holders(b);
        holders.sort_unstable();
        assert_eq!(holders, vec![HEAD_NODE, 1, 2, 3]);
        let log = dm.take_transfer_log_in(7);
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|t| t.bytes == 64 && t.reason == TransferReason::EnterData));
        assert_eq!(log.iter().filter(|t| t.from == HEAD_NODE).count(), 2);
        assert_eq!(log.iter().filter(|t| t.from == 1 && t.to == 3).count(), 1);
        // A dead destination is never logged or remembered.
        dm.fail_node(4);
        dm.note_broadcast_delivery(7, b, 1, 4, TransferReason::Input);
        assert!(!dm.is_present(b, 4));
        assert!(dm.take_transfer_log_in(7).is_empty());
    }

    #[test]
    fn retarget_deferred_updates_the_rescued_edge() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 16);
        dm.plan_input(b, 1);
        let t = dm.open_ticket();
        assert!(dm.begin_inflight(b, 2, TransferReason::Input, t).is_some());
        // The planned parent (node 1) died; node 3 rescued the delivery.
        dm.retarget_deferred_from(b, 2, 3);
        assert_eq!(dm.deferred_transfers().last().map(|r| (r.from, r.to)), Some((3, 2)));

        // Once the consuming region adopts the record, a late-resolving
        // rescue must still find and repoint it inside the region's log.
        let consumed: BTreeSet<BufferId> = [b].into_iter().collect();
        dm.adopt_deferred_for(&consumed, 7);
        dm.retarget_deferred_from(b, 2, 4);
        let log = dm.take_transfer_log_in(7);
        assert_eq!(
            log.iter().map(|r| (r.from, r.to)).collect::<Vec<_>>(),
            vec![(4, 2)],
            "the adopted record must report the rescue edge: {log:?}"
        );
    }
    #[test]
    fn a_moving_pair_is_never_booked_twice() {
        // Found by the walk below when it still let a write race a moving
        // booking: the write strips the booked holder, a second booking of
        // the pair replaced the in-flight entry, and the first ticket could
        // never complete.
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 1);
        let first = dm.open_ticket();
        assert!(dm.begin_inflight(b, 2, TransferReason::Input, first).is_some());
        dm.record_write(b, 1);
        let second = dm.open_ticket();
        assert!(dm.begin_inflight(b, 2, TransferReason::Input, second).is_none());
        dm.finish_inflight(b, 2, Ok(()));
        assert_eq!(dm.ticket_result(first), Some(Ok(())));
        assert_eq!(dm.ticket_result(second), Some(Ok(())));
    }

    /// One step of the exhaustive walk below.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        Plan(BufferId, NodeId),
        Begin(BufferId, NodeId),
        FinishOk(BufferId, NodeId),
        FinishErr(BufferId, NodeId),
        Write(BufferId, NodeId),
        Forget(BufferId, NodeId),
        Retrieve(BufferId),
        Fail(NodeId),
        Remove(BufferId),
    }

    /// The walk's state: the data manager plus the synchronous plans whose
    /// transfer has not been confirmed — the only pairs `forget_replica`
    /// is documented for.
    #[derive(Debug, Clone)]
    struct Walk {
        dm: DataManager,
        planned: BTreeSet<(BufferId, NodeId)>,
        trace: Vec<Op>,
    }

    const WALK_REGION: u64 = 1;
    const WALK_BUFFERS: [BufferId; 2] = [BufferId(0), BufferId(1)];
    const WALK_WORKERS: [NodeId; 2] = [1, 2];

    impl Walk {
        /// Every operation whose documented precondition holds here: nothing
        /// touches a removed buffer; a booking is finished only while it is
        /// moving; a task writes only where its copy has arrived and while
        /// no booking of the buffer is moving (the prefetch planner's hazard
        /// rule); only an unconfirmed synchronous plan is forgotten.
        fn enabled(&self) -> Vec<Op> {
            let dm = &self.dm;
            let mut ops = Vec::new();
            for b in WALK_BUFFERS.into_iter().filter(|&b| dm.is_registered(b)) {
                for n in WALK_WORKERS {
                    let moving = matches!(dm.transfer_state(b, n), TransferState::InFlight(_));
                    ops.extend([Op::Plan(b, n), Op::Begin(b, n)]);
                    if moving {
                        ops.extend([Op::FinishOk(b, n), Op::FinishErr(b, n)]);
                    } else if dm.is_present(b, n) && !dm.is_failed(n) && !dm.buffer_in_flight(b) {
                        ops.push(Op::Write(b, n));
                    }
                    if self.planned.contains(&(b, n)) {
                        ops.push(Op::Forget(b, n));
                    }
                }
                ops.extend([Op::Retrieve(b), Op::Remove(b)]);
            }
            ops.extend(WALK_WORKERS.into_iter().filter(|&n| !dm.is_failed(n)).map(Op::Fail));
            ops
        }

        fn apply(&mut self, op: Op) {
            let dm = &mut self.dm;
            match op {
                Op::Plan(b, n) => {
                    if let Ok(Some(_)) = dm.plan_input_in(WALK_REGION, b, n) {
                        self.planned.insert((b, n));
                    }
                }
                Op::Begin(b, n) => {
                    let ticket = dm.open_ticket();
                    dm.begin_inflight(b, n, TransferReason::Input, ticket);
                }
                Op::FinishOk(b, n) => dm.finish_inflight(b, n, Ok(())),
                Op::FinishErr(b, n) => {
                    dm.finish_inflight(b, n, Err(OmpcError::Internal("wire".to_string())))
                }
                Op::Write(b, n) => {
                    dm.record_write(b, n);
                    // The write retires every reader that was still moving
                    // the previous version.
                    self.planned.retain(|&(pb, _)| pb != b);
                }
                Op::Forget(b, n) => {
                    dm.forget_replica(b, n);
                    self.planned.remove(&(b, n));
                }
                Op::Retrieve(b) => dm.record_retrieve_in(WALK_REGION, b),
                Op::Fail(n) => {
                    dm.fail_node(n);
                }
                Op::Remove(b) => {
                    dm.remove(b);
                    self.planned.retain(|&(pb, _)| pb != b);
                }
            }
            self.trace.push(op);
        }

        /// Transfers of `b` to `n` on record, adopted or still deferred.
        fn records(&self, b: BufferId, n: NodeId) -> usize {
            let all = self.dm.deferred.iter().chain(self.dm.logs.values().flatten());
            all.filter(|t| t.buffer == b && t.to == n).count()
        }

        /// The invariants of the residency / in-flight machine, `self`
        /// having been reached from `before` by `last`.
        fn check(&self, last: Op, before: &Walk) -> Result<(), String> {
            let dm = &self.dm;
            for (b, loc) in &dm.buffers {
                if loc.latest != HEAD_NODE && !loc.holders.contains(&loc.latest) {
                    return Err(format!("latest of {b} ({}) holds no copy", loc.latest));
                }
                if let Some(dead) = loc.holders.iter().find(|n| dm.failed.contains(n)) {
                    return Err(format!("failed node {dead} still holds {b}"));
                }
            }
            for (id, ticket) in &dm.tickets {
                let moving = dm
                    .inflight
                    .values()
                    .filter(|e| matches!(e, InflightEntry::Moving(t) if t.0 == *id))
                    .count();
                if ticket.remaining != moving {
                    return Err(format!(
                        "ticket {id} awaits {} transfer(s), {moving} moving",
                        ticket.remaining
                    ));
                }
            }
            let rolled_back = match last {
                Op::FinishErr(b, n) | Op::Forget(b, n) => Some((b, n)),
                Op::FinishOk(b, n) if dm.is_failed(n) => Some((b, n)),
                _ => None,
            };
            // Refuted for synchronous plans, and left out of the asserted
            // set (CHANGES.md, PR 18): `fail_node` promotes an unconfirmed
            // replica to `latest`, which is never forgotten — [Plan(b0, 1),
            // Write(b0, 1), Plan(b0, 2), Fail(1), Forget(b0, 2)] leaves node
            // 2 holding, and logged as having received, bytes it never got.
            // Only a table that also tracks synchronous plans can tell.
            let promoted = |&(b, n): &(BufferId, NodeId)| {
                matches!(last, Op::Forget(..)) && dm.latest(b) == Some(n)
            };
            if let Some((b, n)) = rolled_back.filter(|pair| !promoted(pair)) {
                if dm.is_present(b, n) {
                    return Err(format!("rolled-back copy of {b} on node {n} is still a holder"));
                }
                if self.records(b, n) + 1 != before.records(b, n) {
                    return Err(format!("rolled-back transfer of {b} to node {n} is still logged"));
                }
            }
            Ok(())
        }
    }

    /// ROADMAP standing item (a), bounded: every operation sequence of
    /// length ≤ 6 over 2 buffers × 3 nodes (the head and two workers),
    /// breadth first (so the first counter-example is a shortest one) and
    /// deterministic — no seed. States are deduplicated on their full
    /// `Debug` image: ~300k transitions over ~85k distinct states.
    #[test]
    fn exhaustive_walk_never_reaches_a_bad_residency_state() {
        use std::hash::{Hash, Hasher};
        let mut dm = DataManager::new();
        dm.begin_region();
        for b in WALK_BUFFERS {
            dm.register_host_buffer(b, 8);
        }
        let mut frontier = vec![Walk { dm, planned: BTreeSet::new(), trace: Vec::new() }];
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut steps = 0usize;
        for _depth in 0..6 {
            let mut next = Vec::new();
            for state in &frontier {
                for op in state.enabled() {
                    let mut walk = state.clone();
                    walk.apply(op);
                    steps += 1;
                    if let Err(broken) = walk.check(op, state) {
                        panic!("{broken} after {:?}", walk.trace);
                    }
                    let mut hasher = std::collections::hash_map::DefaultHasher::new();
                    format!("{:?}{:?}", walk.dm, walk.planned).hash(&mut hasher);
                    if seen.insert(hasher.finish()) {
                        next.push(walk);
                    }
                }
            }
            frontier = next;
        }
        assert!(steps > 10_000, "the walk explored only {steps} transitions");
    }
}
