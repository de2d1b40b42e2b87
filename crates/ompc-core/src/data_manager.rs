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
//! The same logic drives the real cluster and the simulated runtime, so
//! the transfer patterns measured in the benchmarks are produced by exactly
//! this code.
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
//! ## One residency table
//!
//! "Are the bytes of buffer *b* really on node *n* yet?" has one answer,
//! kept here per copy. Every way bytes get promised to a node — a target
//! task's input, an enter-data task, a producer's push —
//! is one [`DataManager::book`] by a region execution, which answers
//! *present*, *await the existing owner* or *move from X* (holder and
//! transfer record written optimistically), and one [`DataManager::finish`],
//! which commits the copy or rolls holder and record back and leaves the
//! error for the waiters ([`TransferState`] is their view). A lazy host
//! flush books the head's copy the same way
//! ([`DataManager::begin_inflight_retrieve`]), so concurrent flushes of one
//! buffer wait for each other; the owning device pairs one condition
//! variable with this table's mutex for them.
//!
//! The table also decides the fate of what is on the wire beyond a
//! booking: the `Push`es no reader claimed yet, each with the region that
//! booked it, and the drops and deletes owed to each node (`Owed`). A push
//! ends exactly once — claimed by its first reader, whichever region that
//! reader is of, or ended into a drop by the next write of the buffer, a
//! release, a death of either node or the end of its region's run. Every
//! car to a node carries the deletes owed there: cars reach a node in the
//! order they were lowered, across regions (the device's one train table).
//! Nothing is owed to a dead node.
//!
//! Every booked movement is also appended to a per-run **transfer log**
//! ([`TransferRecord`]) that the execution core drains into
//! [`crate::runtime::RunRecord::transfers`] — residency wins are assertable
//! ("this buffer moved exactly once across N regions") instead of inferred
//! from timings.
//!
//! A node failure ([`DataManager::fail_node`]) invalidates the node's
//! resident copies exactly like its per-region copies: the next plan that
//! needs one of them transparently re-sources it from a surviving replica
//! or from the host version.

use crate::types::{BufferId, IdMap, NodeId, OmpcError, OmpcResult};
use ompc_mpi::Tag;
use std::collections::{BTreeMap, BTreeSet};

/// The head node's id; the host copy of a buffer lives there.
pub const HEAD_NODE: NodeId = 0;

/// The transfer-log namespace of device-level operations performed outside
/// any region execution (`enter_data`, lazy host flushes). Region epochs
/// start at 1 ([`DataManager::begin_region`]), so 0 can never collide with
/// a region execution.
pub const UNATTRIBUTED: u64 = 0;

/// What [`DataManager::book`] answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Booking {
    /// Nothing to move: the node holds the bytes — or it is dead and never
    /// receives data (the caller is a zombie task whose results are
    /// discarded anyway).
    Present,
    /// Another owner has the bytes on the wire towards the node: await its
    /// [`DataManager::finish`] instead of moving them a second time.
    Await,
    /// The caller owns this movement now and must `finish` it.
    Move(TransferPlan),
}

/// The waiters' view of `buffer`'s copy on a given node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferState {
    /// A valid copy is present on the node.
    Resident,
    /// A movement towards the node is booked by the region execution with
    /// this epoch — [`UNATTRIBUTED`] for a lazy host flush — and has not
    /// finished yet: first readers wait instead of moving the bytes again.
    InFlight(u64),
    /// No valid copy and nothing on the wire. Carries the error of the last
    /// movement towards the pair if that failed: every waiter sees it, until
    /// the pair is booked again, the node comes to hold the buffer by other
    /// means (a write, an alloc) or the buffer is released.
    Invalid(Option<OmpcError>),
}

/// What is outstanding for one copy.
#[derive(Debug, Clone)]
enum Pending {
    /// Booked by the region with this epoch and not confirmed.
    Moving(u64),
    /// The last movement failed and was rolled back. (Boxed: failures are
    /// rare, and every copy of every buffer would carry the room.)
    Failed(Box<OmpcError>),
}

/// One copy of a buffer, as the table knows it: an entry exists while the
/// node holds the copy or something is outstanding for it.
#[derive(Debug, Clone)]
struct Replica {
    node: NodeId,
    /// Whether the node counts as a holder. True from the moment a copy is
    /// booked (so later readers do not plan the transfer again); false for
    /// a copy still on the wire that a write elsewhere, or the node's own
    /// death, has already invalidated, for a retrieval to the host (it is
    /// committed on arrival) and for a rolled-back copy.
    held: bool,
    pending: Option<Pending>,
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
    /// worker→worker).
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

/// A producer's copy of `buffer` on `from` pushed to `to`, on its own channel `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Push {
    pub(crate) buffer: BufferId,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) tag: Tag,
}

/// What is owed to one live node: the copies to delete, the pushes to drop.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Owed {
    pub(crate) deletes: BTreeSet<BufferId>,
    pub(crate) drops: Vec<Push>,
}

#[derive(Debug, Clone)]
struct BufferLocations {
    /// The copies, ascending by node, one entry each: the state of a copy
    /// is stored once, beside the fact that the node holds it.
    copies: Vec<Replica>,
    /// Node holding the most recent version; never a copy still moving.
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

impl BufferLocations {
    fn starting_on(node: NodeId, bytes: u64, epoch: u64) -> Self {
        // Room for the usual few (the host's copy, a worker's or two) at
        // once: growing from one entry is a second allocation for nearly
        // every buffer.
        let mut copies = Vec::with_capacity(4);
        copies.push(Replica { node, held: true, pending: None });
        Self { copies, latest: node, bytes, resident: false, epoch }
    }

    fn slot(&self, node: NodeId) -> Result<usize, usize> {
        self.copies.binary_search_by_key(&node, |copy| copy.node)
    }

    fn copy(&self, node: NodeId) -> Option<&Replica> {
        self.slot(node).ok().map(|at| &self.copies[at])
    }

    /// `node` holds no copy any more. When it held the latest version, the
    /// latest moves to a copy that has arrived — a copy still on the wire is
    /// no survivor, whoever booked it: its bytes may have been coming from
    /// `node` — or, when none has, back to the head's pre-offload image.
    /// Whether the latest version was lost.
    fn drop_copy(&mut self, node: NodeId) -> bool {
        if self.holds(node) {
            self.update(node, |copy| copy.held = false);
        }
        if self.latest != node {
            return false;
        }
        let arrived = |copy: &&Replica| copy.held && copy.pending.is_none();
        self.latest = self.copies.iter().find(arrived).map_or(HEAD_NODE, |copy| copy.node);
        self.latest == HEAD_NODE
    }

    fn holds(&self, node: NodeId) -> bool {
        self.copy(node).is_some_and(|copy| copy.held)
    }

    fn holders(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.copies.iter().filter(|copy| copy.held).map(|copy| copy.node)
    }

    /// The region that booked the movement still on the wire towards
    /// `node`, if any.
    fn moving(&self, node: NodeId) -> Option<u64> {
        match self.copy(node)?.pending {
            Some(Pending::Moving(region)) => Some(region),
            _ => None,
        }
    }

    /// Change what is known of the copy on `node`. The entry comes and goes
    /// with there being anything to know.
    fn update(&mut self, node: NodeId, change: impl FnOnce(&mut Replica)) {
        let at = self.slot(node).unwrap_or_else(|at| {
            self.copies.insert(at, Replica { node, held: false, pending: None });
            at
        });
        let copy = &mut self.copies[at];
        change(copy);
        if !copy.held && copy.pending.is_none() {
            self.copies.remove(at);
        }
    }
}

/// Location tracking and forwarding decisions for every mapped buffer.
#[derive(Debug, Clone, Default)]
pub struct DataManager {
    buffers: IdMap<BufferId, BufferLocations>,
    /// Nodes that have been declared failed: their copies are gone, their
    /// writes are ignored, and they are never chosen as a transfer source.
    failed: BTreeSet<NodeId>,
    /// Monotonic region counter; see [`DataManager::begin_region`].
    epoch: u64,
    /// Transfer logs, namespaced by the region epoch that planned each
    /// movement so concurrent regions never interleave (or
    /// steal) each other's records. Namespace [`UNATTRIBUTED`] (0) holds
    /// device-level operations outside any region (`enter_data`, lazy host
    /// flushes); each is drained by [`DataManager::take_transfer_log_in`].
    logs: BTreeMap<u64, Vec<TransferRecord>>,
    /// Booked pushes awaiting their first reader, by buffer and reader's
    /// node, each with the region that booked it.
    unclaimed: BTreeMap<(BufferId, NodeId), (u64, Push)>,
    /// What is owed to each live node.
    owed: BTreeMap<NodeId, Owed>,
}

impl DataManager {
    /// Create an empty data manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty data manager with room for `buffers` buffers.
    pub fn with_capacity(buffers: usize) -> Self {
        let buffers = IdMap::with_capacity_and_hasher(buffers, Default::default());
        Self { buffers, ..Self::default() }
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
        self.buffers.insert(buffer, BufferLocations::starting_on(HEAD_NODE, bytes, self.epoch));
    }

    /// Register a buffer that is allocated directly on `node` without a
    /// host copy (the `map(alloc:)` case). Ignored when `node` has been
    /// declared failed.
    pub fn register_device_buffer(&mut self, buffer: BufferId, node: NodeId, bytes: u64) {
        if !self.failed.contains(&node) {
            self.buffers.insert(buffer, BufferLocations::starting_on(node, bytes, self.epoch));
        }
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
        self.buffers.get(&buffer).map(|l| l.holders().collect()).unwrap_or_default()
    }

    /// The node holding the most recent version of the buffer, if known.
    pub fn latest(&self, buffer: BufferId) -> Option<NodeId> {
        self.buffers.get(&buffer).map(|l| l.latest)
    }

    /// Whether `node` holds a valid copy of `buffer` (possibly one still on
    /// its way: see [`DataManager::transfer_state`]).
    pub fn is_present(&self, buffer: BufferId, node: NodeId) -> bool {
        self.buffers.get(&buffer).is_some_and(|l| l.holds(node))
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

    /// Promise `buffer` to `node`: the one way a copy comes to be expected
    /// anywhere. Nothing is recorded when the node already holds the buffer,
    /// is dead, or has a movement towards it on the wire — whoever booked
    /// that one, a second owner is never created; the caller awaits the
    /// first. Otherwise `region` — the epoch of the execution that moves the
    /// bytes; the simulator, which runs one region, books under
    /// [`UNATTRIBUTED`] — becomes the pair's owner: the node is a holder from
    /// now on (so later readers do not plan the transfer again), the movement
    /// from the most recent holder is in the region's log, and the owner
    /// must report the outcome to [`DataManager::finish`].
    pub fn book(
        &mut self,
        region: u64,
        buffer: BufferId,
        node: NodeId,
        reason: TransferReason,
    ) -> OmpcResult<Booking> {
        if self.failed.contains(&node) {
            return Ok(Booking::Present);
        }
        let loc = self.buffers.get_mut(&buffer).ok_or(OmpcError::UnknownBuffer(buffer))?;
        match loc.copy(node) {
            Some(Replica { pending: Some(Pending::Moving(_)), .. }) => return Ok(Booking::Await),
            Some(Replica { held: true, .. }) => return Ok(Booking::Present),
            _ => {}
        }
        let from = loc.latest;
        // Supersedes the failure an earlier movement may have left behind.
        loc.update(node, |copy| {
            copy.held = true;
            copy.pending = Some(Pending::Moving(region));
        });
        let record = TransferRecord { buffer, from, to: node, bytes: loc.bytes, reason };
        self.logs.entry(region).or_default().push(record);
        Ok(Booking::Move(TransferPlan { from, to: node, buffer }))
    }

    /// [`DataManager::book`] for a caller that is alone with the table and
    /// moves the bytes itself (the tests below, the ledger's layer
    /// benchmark): an [`TransferReason::Input`] in the [`UNATTRIBUTED`]
    /// namespace, `None` when nothing has to move.
    pub fn plan_input(
        &mut self,
        buffer: BufferId,
        node: NodeId,
    ) -> OmpcResult<Option<TransferPlan>> {
        Ok(match self.book(UNATTRIBUTED, buffer, node, TransferReason::Input)? {
            Booking::Move(plan) => Some(plan),
            Booking::Present | Booking::Await => None,
        })
    }

    /// Resolve the movement towards `(buffer, node)`, whoever owns it — how
    /// a booked copy stops being in flight (short of a write on the node,
    /// which proves arrival: [`DataManager::record_write`]). A no-op when
    /// nothing is in flight: the owner's task may have failed after its
    /// bytes had landed. On success the copy is plainly resident. On failure
    /// — or on "success" towards a node declared failed in the meantime —
    /// the booking is rolled back: the node is no holder, the transfer
    /// record is withdrawn wherever it lives by now (so neither the run
    /// record nor [`crate::event::EventCounters::bytes_moved`] counts the
    /// abandoned transfer), and the error stays on the pair for its waiters
    /// ([`TransferState::Invalid`]). A failed retrieval to the head is
    /// simply un-booked: nothing was committed, the next flush retries from
    /// the still-truthful location state.
    pub fn finish(
        &mut self,
        buffer: BufferId,
        node: NodeId,
        outcome: OmpcResult<()>,
    ) -> OmpcResult<()> {
        let worker = node != HEAD_NODE;
        let outcome = match outcome {
            Ok(()) if worker && self.failed.contains(&node) => Err(OmpcError::NodeFailure(node)),
            other => other,
        };
        let loc = self.buffers.get_mut(&buffer).ok_or(OmpcError::UnknownBuffer(buffer))?;
        let Some(region) = loc.moving(node) else { return Ok(()) };
        match outcome {
            Err(error) if worker => {
                loc.update(node, |copy| {
                    copy.held = false;
                    copy.pending = Some(Pending::Failed(Box::new(error)));
                });
                if let Some((log, at)) = self.booked_record(region, buffer, node) {
                    log.remove(at);
                }
            }
            _ => loc.update(node, |copy| copy.pending = None),
        }
        Ok(())
    }

    /// The record of the movement `region` has booked towards `(buffer, to)`:
    /// the newest one in its log.
    fn booked_record(
        &mut self,
        region: u64,
        buffer: BufferId,
        to: NodeId,
    ) -> Option<(&mut Vec<TransferRecord>, usize)> {
        let log = self.logs.get_mut(&region)?;
        let at = log.iter().rposition(|t| t.buffer == buffer && t.to == to)?;
        Some((log, at))
    }

    /// Book `region`'s push of a succeeded producer's output as the input transfer of its
    /// reader's node, to await that reader's [`DataManager::claim_push`]; `true` when it moves
    /// bytes. One from a dead producer, or one the table refuses, is owed a drop at once. A
    /// push a reader `claimed` before its producer retired — its claim is on the node already
    /// — is that reader's booking at once, and is owed nothing: the claim takes its message.
    pub(crate) fn book_push(&mut self, region: u64, push: Push, claimed: bool) -> bool {
        let live = !self.failed.contains(&push.from);
        let booking = live.then(|| self.book(region, push.buffer, push.to, TransferReason::Input));
        let booked = matches!(booking, Some(Ok(Booking::Move(_))));
        match (claimed, booked) {
            (true, _) => {}
            (false, true) => drop(self.unclaimed.insert((push.buffer, push.to), (region, push))),
            (false, false) => self.owe(push.to, [], [push]),
        }
        booked
    }

    /// Claim the unclaimed push of `buffer` to `to`, if there is one, whichever region booked
    /// it: the claimant owns its booking from now on, and finishes it.
    pub(crate) fn claim_push(&mut self, buffer: BufferId, to: NodeId) -> Option<Push> {
        self.unclaimed.remove(&(buffer, to)).map(|(_, push)| push)
    }

    /// End the unclaimed pushes `over` picks, by booking region: each booking finished with an
    /// error — `dead`'s failure, or that nobody claimed it — and each copy owed a drop.
    fn end_unclaimed(&mut self, over: impl Fn(u64, &Push) -> bool, dead: Option<NodeId>) {
        // Made only when a push ends: most calls end none.
        let ended: Vec<_> = (self.unclaimed.iter())
            .filter(|(_, (region, p))| over(*region, p))
            .map(|(&key, _)| key)
            .collect();
        for (buffer, to) in ended {
            let unclaimed = || OmpcError::Communication("no reader claimed the push".into());
            let error = dead.map_or_else(unclaimed, OmpcError::NodeFailure);
            let _ = self.finish(buffer, to, Err(error));
            let push = self.unclaimed.remove(&(buffer, to)).map(|(_, push)| push);
            self.owe(to, [], push);
        }
    }

    /// Owe `node` `deletes` and `drops`, unless it is dead: its memory died with it.
    pub(crate) fn owe(
        &mut self,
        node: NodeId,
        deletes: impl IntoIterator<Item = BufferId>,
        drops: impl IntoIterator<Item = Push>,
    ) {
        let owed = self.owed.entry(node).or_default();
        owed.deletes.extend(deletes);
        owed.drops.extend(drops);
        if self.failed.contains(&node) || owed == &Owed::default() {
            self.owed.remove(&node);
        }
    }

    /// Take the deletes owed to `node`, for the next car there: ahead of any receive of the
    /// same buffer, they cost no extra round trip.
    pub(crate) fn take_owed_deletes(&mut self, node: NodeId) -> Vec<BufferId> {
        let Some(owed) = self.owed.get_mut(&node) else { return Vec::new() };
        let deletes = std::mem::take(&mut owed.deletes).into_iter().collect();
        if owed.drops.is_empty() {
            self.owed.remove(&node);
        }
        deletes
    }

    /// The end of `region`'s run: each push it booked that is still unclaimed is over, and
    /// everything owed is handed over, by node — the deletes no car carried, the drops of the
    /// copies nobody claimed.
    pub(crate) fn end_run(&mut self, region: u64) -> Vec<(NodeId, Owed)> {
        self.end_unclaimed(|owner, _| owner == region, None);
        std::mem::take(&mut self.owed).into_iter().collect()
    }

    /// Book a lazy host flush of `buffer`, marking `(buffer, HEAD_NODE)` in
    /// flight (in the [`UNATTRIBUTED`] namespace) so a concurrent flush of
    /// the same buffer waits instead of scheduling a second retrieve. Unlike
    /// a worker-bound booking nothing is logged or committed here: the
    /// caller runs [`DataManager::record_retrieve`] once the bytes have
    /// landed, then [`DataManager::finish`]. Returns the retrieval source,
    /// or `None` when the head already holds the latest version.
    pub fn begin_inflight_retrieve(&mut self, buffer: BufferId) -> Option<NodeId> {
        let from = self.retrieve_source(buffer)?;
        let booked = Some(Pending::Moving(UNATTRIBUTED));
        self.buffers.get_mut(&buffer)?.update(HEAD_NODE, |copy| copy.pending = booked);
        Some(from)
    }

    /// The state of `buffer`'s copy on `node` as its waiters see it (see
    /// [`TransferState`]).
    pub fn transfer_state(&self, buffer: BufferId, node: NodeId) -> TransferState {
        match self.buffers.get(&buffer).and_then(|loc| loc.copy(node)) {
            Some(Replica { pending: Some(Pending::Moving(region)), .. }) => {
                TransferState::InFlight(*region)
            }
            Some(Replica { held: true, .. }) => TransferState::Resident,
            Some(Replica { pending: Some(Pending::Failed(error)), .. }) => {
                TransferState::Invalid(Some((**error).clone()))
            }
            _ => TransferState::Invalid(None),
        }
    }

    /// Whether any movement of `buffer` (towards any node) is in flight.
    pub fn buffer_in_flight(&self, buffer: BufferId) -> bool {
        let moving = |copy: &Replica| matches!(copy.pending, Some(Pending::Moving(_)));
        self.buffers.get(&buffer).is_some_and(|loc| loc.copies.iter().any(moving))
    }

    /// Record that a task executing on `node` wrote `buffer`: the copy on
    /// `node` becomes the only valid one. Returns the worker nodes whose
    /// copies became stale (and should be deleted), excluding `node` itself
    /// — the host's copy is never deleted, and a buffer only the host held
    /// leaves nothing to return. A
    /// movement towards `node` still booked as in flight has evidently
    /// arrived — the task ran on its bytes — and is resolved here; one
    /// towards another node keeps its owner and lands on a copy that is no
    /// longer a holder.
    pub fn record_write(&mut self, buffer: BufferId, node: NodeId) -> OmpcResult<Vec<NodeId>> {
        if self.failed.contains(&node) {
            // Writes from a dead node are discarded: its task will be
            // re-executed on a survivor.
            return Ok(Vec::new());
        }
        let epoch = self.epoch;
        let loc = self.buffers.get_mut(&buffer).ok_or(OmpcError::UnknownBuffer(buffer))?;
        let stale = loc.holders().filter(|&n| n != node && n != HEAD_NODE).collect();
        loc.copies.retain_mut(|copy| {
            copy.held = copy.node == node;
            copy.held || copy.pending.is_some()
        });
        loc.update(node, |copy| {
            copy.held = true;
            copy.pending = None;
        });
        loc.latest = node;
        loc.epoch = epoch;
        Ok(stale)
    }

    /// [`DataManager::record_write`] by a region task: the unclaimed pushes of the version it
    /// supersedes end, and each stale copy is owed a delete — except on the nodes `claimed`
    /// names, where a claim of a newer version is on the node already: a delete riding a later
    /// car could run after that claim landed. The claim overwrites the stale copy instead.
    pub(crate) fn supersede(
        &mut self,
        buffer: BufferId,
        node: NodeId,
        claimed: &[NodeId],
    ) -> OmpcResult<()> {
        self.end_unclaimed(|_, p| p.buffer == buffer, None);
        for stale in self.record_write(buffer, node)? {
            if !claimed.contains(&stale) {
                self.owe(stale, [buffer], []);
            }
        }
        Ok(())
    }

    /// Record that `node` received a read-only replica of `buffer` without
    /// a transfer (an explicit alloc). Not logged — no bytes moved.
    pub fn record_replica(&mut self, buffer: BufferId, node: NodeId) -> OmpcResult<()> {
        if self.failed.contains(&node) {
            return Ok(());
        }
        let loc = self.buffers.get_mut(&buffer).ok_or(OmpcError::UnknownBuffer(buffer))?;
        loc.update(node, |copy| {
            copy.held = true;
            if let Some(Pending::Failed(_)) = copy.pending {
                copy.pending = None;
            }
        });
        Ok(())
    }

    /// The node a retrieval of `buffer` back to the head (exit data with
    /// `map(from:)`, or a lazy host flush) must fetch from, or `None` when
    /// the head already holds the latest version (or the buffer is not
    /// mapped). Read-only: nothing is committed until
    /// [`DataManager::record_retrieve`] confirms the bytes actually landed
    /// — so a retrieval that fails (or whose source dies mid-flight) leaves
    /// the location state truthful and a later plan retries from the
    /// then-latest holder.
    pub fn retrieve_source(&self, buffer: BufferId) -> Option<NodeId> {
        self.buffers.get(&buffer).map(|loc| loc.latest).filter(|&latest| latest != HEAD_NODE)
    }

    /// Record that the retrieval planned by [`DataManager::retrieve_source`]
    /// completed: the head now holds the latest version, and the transfer
    /// is logged. The worker's copy stays a valid holder — a flush is a
    /// read, not an invalidation — so a resident buffer keeps its device
    /// copies. No-op when the head is already latest (the source died and
    /// recovery re-sourced the buffer meanwhile).
    pub fn record_retrieve(&mut self, buffer: BufferId) -> OmpcResult<()> {
        self.record_retrieve_in(UNATTRIBUTED, buffer)
    }

    /// [`DataManager::record_retrieve`] logged under a region's namespace,
    /// so the retrieving region's record owns the transfer.
    pub fn record_retrieve_in(&mut self, region: u64, buffer: BufferId) -> OmpcResult<()> {
        let loc = self.buffers.get_mut(&buffer).ok_or(OmpcError::UnknownBuffer(buffer))?;
        if loc.latest == HEAD_NODE {
            return Ok(());
        }
        let from = loc.latest;
        loc.update(HEAD_NODE, |copy| copy.held = true);
        loc.latest = HEAD_NODE;
        self.logs.entry(region).or_default().push(TransferRecord {
            buffer,
            from,
            to: HEAD_NODE,
            bytes: loc.bytes,
            reason: TransferReason::Retrieve,
        });
        Ok(())
    }

    /// Remove the buffer from the data manager entirely (exit data with
    /// `map(release:)`), returning the worker nodes that still held copies
    /// and must free them — read off the removed entry itself, which owns
    /// them. Ends keep-resident status, and every movement of the buffer
    /// still in flight — every unclaimed push included: its bytes have
    /// nothing to land in.
    pub fn remove(&mut self, buffer: BufferId) -> impl Iterator<Item = NodeId> {
        let copies = self.buffers.remove(&buffer).map(|loc| loc.copies).unwrap_or_default();
        // Its unclaimed pushes end too, their bookings gone with the entry.
        self.end_unclaimed(|_, p| p.buffer == buffer, None);
        let holder = |copy: Replica| (copy.held && copy.node != HEAD_NODE).then_some(copy.node);
        copies.into_iter().filter_map(holder)
    }

    /// Release every device copy of `buffer` (exit-data semantics): remove it, and owe each
    /// holder its delete.
    pub(crate) fn release(&mut self, buffer: BufferId) {
        for holder in self.remove(buffer) {
            self.owe(holder, [buffer], []);
        }
    }

    /// Declare worker `node` failed: every copy it held becomes invalid, its
    /// future writes are ignored, and it is never again chosen as a
    /// transfer source. Returns the buffers whose *only* valid copy lived
    /// on the node — their producing tasks must be re-executed (lineage
    /// recovery). For such buffers `latest` falls back to the head node:
    /// the host registry still holds the pre-offload image from which the
    /// re-executed lineage restarts. Resident copies are invalidated the
    /// same way — the next region's plan re-sources them from the host
    /// version or a surviving replica. Movements towards the node stay
    /// booked, so they resolve (as failures, see [`DataManager::finish`])
    /// instead of wedging their waiters — except every push to or from the
    /// node, and every copy of a lost buffer still on the wire, wherever it
    /// goes: those end here, with [`OmpcError::NodeFailure`] (a lost
    /// buffer's copies carry bytes of the version the node took with it).
    /// Nothing is owed to the node any more.
    pub fn fail_node(&mut self, node: NodeId) -> OmpcResult<Vec<BufferId>> {
        if node == HEAD_NODE {
            return Err(OmpcError::InvalidConfig("the head node cannot be declared failed".into()));
        }
        self.failed.insert(node);
        let mut lost = Vec::new();
        for (&buffer, loc) in self.buffers.iter_mut() {
            if loc.drop_copy(node) {
                lost.push(buffer);
            }
        }
        lost.sort_unstable();
        self.owed.remove(&node);
        self.end_unclaimed(|_, p| p.to == node || p.from == node, Some(node));
        for &buffer in &lost {
            self.end_moving(buffer, node);
        }
        Ok(lost)
    }

    /// End every copy of `buffer` still on the wire, with `dead`'s failure:
    /// the buffer's latest version was lost with `dead`, so each carries
    /// bytes of a version the table no longer has.
    fn end_moving(&mut self, buffer: BufferId, dead: NodeId) {
        let Some(loc) = self.buffers.get(&buffer) else { return };
        let moving: Vec<NodeId> = (loc.copies.iter())
            .filter(|copy| matches!(copy.pending, Some(Pending::Moving(_))))
            .map(|copy| copy.node)
            .collect();
        for node in moving {
            let _ = self.finish(buffer, node, Err(OmpcError::NodeFailure(dead)));
        }
    }

    /// `dead` is dying, and a reader on `node` claimed a push of `buffer` from
    /// it before the write it copies retired: the copy on `node` stops
    /// counting — when that write is still `pending` (its claim overwrites
    /// what `node` held with a version the table will never record), or when
    /// the version it copies is still the latest, on `dead` (the core may
    /// run its writer again: the latest is lost with the node). When `node`
    /// held the latest, it moves as on a death, and a lost latest ends the
    /// buffer's copies on the wire as [`DataManager::fail_node`] does.
    /// Whether the buffer lost its latest version.
    pub(crate) fn drop_claimed(
        &mut self,
        buffer: BufferId,
        node: NodeId,
        dead: NodeId,
        pending: bool,
    ) -> bool {
        let Some(loc) = self.buffers.get_mut(&buffer) else { return false };
        let lost = (pending || loc.latest == dead) && loc.drop_copy(node);
        if lost {
            self.end_moving(buffer, dead);
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
        let logs = std::mem::take(&mut self.logs);
        if logs.len() == 1 {
            // One namespace (always, in the simulator): hand its log over.
            return logs.into_values().next().unwrap_or_default();
        }
        logs.into_values().flatten().collect()
    }

    /// Drain one region's transfer-log namespace, leaving the others (and
    /// the device-level [`UNATTRIBUTED`] namespace) untouched. This is what
    /// the cluster device attaches to a concurrent region's
    /// [`crate::runtime::RunRecord`].
    pub fn take_transfer_log_in(&mut self, region: u64) -> Vec<TransferRecord> {
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
impl DataManager {
    /// What is owed, by node.
    pub(crate) fn owed(&self) -> BTreeMap<NodeId, Owed> {
        self.owed.clone()
    }

    /// The unclaimed pushes `region` booked.
    pub(crate) fn unclaimed_of(&self, region: u64) -> Vec<Push> {
        let unclaimed = self.unclaimed.values().filter(|&&(owner, _)| owner == region);
        unclaimed.map(|&(_, push)| push).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boom() -> OmpcError {
        OmpcError::Internal("wire".to_string())
    }

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
        assert_eq!(plan, Some(TransferPlan { from: HEAD_NODE, to: 1, buffer: a }));
        let stale = dm.record_write(a, 1).unwrap();
        assert!(stale.is_empty(), "the host's copy is stale, but never deleted");
        assert_eq!(dm.latest(a), Some(1));

        // bar (inout A) on node 2: input forwarded worker-to-worker.
        let plan = dm.plan_input(a, 2).unwrap();
        assert_eq!(plan, Some(TransferPlan { from: 1, to: 2, buffer: a }));
        let stale = dm.record_write(a, 2).unwrap();
        assert_eq!(stale, vec![1]);
        assert_eq!(dm.holders(a), vec![2]);

        // exit data: retrieve from node 2, then release everywhere.
        assert_eq!(dm.retrieve_source(a), Some(2));
        dm.record_retrieve(a).unwrap();
        assert_eq!(dm.latest(a), Some(HEAD_NODE));
        let free: Vec<NodeId> = dm.remove(a).collect();
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
        assert!(dm.plan_input(b, 1).unwrap().is_some());
        assert!(dm.plan_input(b, 2).unwrap().is_some());
        // Both workers plus the head hold copies now.
        assert_eq!(dm.holders(b), vec![HEAD_NODE, 1, 2]);
        // A third reader on node 1 needs no transfer.
        assert!(dm.plan_input(b, 1).unwrap().is_none());
    }

    #[test]
    fn second_input_plan_for_same_node_is_free() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        assert!(dm.plan_input(b, 3).unwrap().is_some());
        assert!(dm.plan_input(b, 3).unwrap().is_none());
        assert_eq!(dm.transfer_log().len(), 1, "a free re-plan logs nothing");
    }

    #[test]
    fn retrieve_is_noop_when_head_is_latest() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        assert_eq!(dm.retrieve_source(b), None);
        dm.record_retrieve(b).unwrap();
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
        dm.record_retrieve(b).unwrap();
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
        dm.record_write(b, 2).unwrap();
        assert_eq!(dm.retrieve_source(b), Some(2));
        // ... the retrieve from node 2 fails; nothing was committed:
        assert_eq!(dm.latest(b), Some(2));
        assert!(!dm.is_present(b, HEAD_NODE));
        let lost = dm.fail_node(2).unwrap();
        assert_eq!(lost, vec![b], "the death must be reported, not masked by a phantom flush");
        assert_eq!(dm.retrieve_source(b), None, "nothing left to retrieve");
        // record_retrieve after recovery moved latest to the head is a
        // no-op, not a phantom transfer.
        dm.record_retrieve(b).unwrap();
        let retrieves =
            dm.transfer_log().iter().filter(|t| t.reason == TransferReason::Retrieve).count();
        assert_eq!(retrieves, 0);
    }

    #[test]
    fn a_failed_finish_rolls_back_the_transfer_and_its_log_entry() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        assert!(dm.plan_input(b, 2).unwrap().is_some());
        assert_eq!(dm.transfer_log().len(), 1);
        // The transfer failed: node 2 must be forgotten so a later reader
        // plans the transfer again, and the logged transfer is withdrawn.
        dm.finish(b, 2, Err(boom())).unwrap();
        assert!(!dm.is_present(b, 2));
        assert!(dm.transfer_log().is_empty());
        assert!(dm.plan_input(b, 2).unwrap().is_some());
        assert_eq!(dm.transfer_log().len(), 1);
        // Only a copy still in flight is rolled back: a failure reported
        // for one that has landed — or for the host's — forgets nothing.
        dm.finish(b, 2, Ok(())).unwrap();
        dm.finish(b, 2, Err(boom())).unwrap();
        dm.finish(b, HEAD_NODE, Err(boom())).unwrap();
        assert_eq!(dm.holders(b), vec![HEAD_NODE, 2]);
        assert_eq!(dm.transfer_log().len(), 1);
    }

    #[test]
    fn observed_resizes_keep_log_bytes_truthful() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 1).unwrap();
        dm.record_write(b, 1).unwrap();
        // A kernel grew the buffer on node 1; the retrieval observes the
        // wire size before committing, so its log entry is truthful.
        dm.observe_size(b, 24);
        dm.record_retrieve(b).unwrap();
        let log = dm.take_transfer_log();
        assert_eq!(log[0].bytes, 8, "the initial forward moved the mapped size");
        assert_eq!(log[1].bytes, 24, "the retrieve logs the resized payload");
        // Later forwards account the observed size too.
        assert!(dm.plan_input(b, 2).unwrap().is_some());
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
        dm.record_replica(b, 5).unwrap();
        assert!(dm.is_present(b, 5));
        // Latest is unchanged by a replica, and nothing was logged.
        assert_eq!(dm.latest(b), Some(HEAD_NODE));
        assert!(dm.transfer_log().is_empty());
    }

    #[test]
    fn remove_unknown_buffer_is_empty() {
        let mut dm = DataManager::new();
        assert_eq!(dm.remove(BufferId(9)).next(), None);
        assert!(dm.holders(BufferId(9)).is_empty());
        assert!(!dm.is_registered(BufferId(9)));
    }

    #[test]
    fn an_unregistered_buffer_is_a_typed_error_not_a_panic() {
        let mut dm = DataManager::new();
        let (ghost, unknown) = (BufferId(0), OmpcError::UnknownBuffer(BufferId(0)));
        assert_eq!(dm.plan_input(ghost, 1), Err(unknown.clone()));
        assert_eq!(dm.finish(ghost, 1, Ok(())), Err(unknown.clone()));
        assert_eq!(dm.record_write(ghost, 1), Err(unknown.clone()));
        assert_eq!(dm.record_replica(ghost, 1), Err(unknown.clone()));
        assert_eq!(dm.record_retrieve(ghost), Err(unknown));
        // Read-only queries answer "nothing there".
        assert_eq!(dm.retrieve_source(ghost), None);
        assert_eq!(dm.transfer_state(ghost, 1), TransferState::Invalid(None));
        assert!(!dm.buffer_in_flight(ghost));
        // The head cannot be declared failed.
        assert!(matches!(dm.fail_node(HEAD_NODE), Err(OmpcError::InvalidConfig(_))));
        assert!(!dm.has_failures());
    }

    #[test]
    fn failed_node_with_surviving_replica_promotes_a_survivor() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 1).unwrap();
        dm.record_write(b, 1).unwrap();
        // A reader replicates the latest version onto node 2, and its bytes
        // arrive: only a confirmed copy is a survivor.
        dm.plan_input(b, 2).unwrap();
        dm.finish(b, 2, Ok(())).unwrap();
        let lost = dm.fail_node(1).unwrap();
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
        dm.record_write(b, 2).unwrap();
        let lost = dm.fail_node(2).unwrap();
        assert_eq!(lost, vec![b]);
        // Lineage restarts from the head node's pre-offload image.
        assert_eq!(dm.latest(b), Some(HEAD_NODE));
        assert!(dm.holders(b).is_empty());
    }

    /// The table is hashed, so its order is not the ids' order: the lost
    /// list is sorted, whatever order the buffers were registered in.
    #[test]
    fn lost_buffers_are_reported_in_ascending_id_order() {
        let mut dm = DataManager::new();
        let ids: Vec<BufferId> = (0..64).rev().map(|n| BufferId(n * 3)).collect();
        for &b in &ids {
            dm.register_host_buffer(b, 8);
            dm.plan_input(b, 2).unwrap();
            dm.record_write(b, 2).unwrap();
        }
        let lost = dm.fail_node(2).unwrap();
        let ascending: Vec<BufferId> = ids.iter().rev().copied().collect();
        assert_eq!(lost, ascending);
    }

    #[test]
    fn dead_nodes_are_excommunicated_from_all_operations() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.fail_node(4).unwrap();
        // No transfers to, writes from, or replicas on a dead node.
        assert!(dm.plan_input(b, 4).unwrap().is_none());
        assert!(dm.record_write(b, 4).unwrap().is_empty());
        assert_eq!(dm.latest(b), Some(HEAD_NODE));
        dm.record_replica(b, 4).unwrap();
        assert!(!dm.is_present(b, 4));
        dm.register_device_buffer(BufferId(9), 4, 8);
        assert!(!dm.is_registered(BufferId(9)));
        // Live nodes are unaffected.
        assert!(dm.plan_input(b, 1).unwrap().is_some());
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
        dm.plan_input(b, 1).unwrap();
        assert_eq!(dm.buffer_epoch(b), Some(1), "a read replica does not advance the epoch");
        dm.record_write(b, 1).unwrap();
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
        dm.plan_input(b, 1).unwrap();
        dm.record_write(b, 1).unwrap();
        assert!(dm.is_resident(b), "writes keep residency");
        assert_eq!(dm.remove(b).collect::<Vec<_>>(), vec![1], "the copy to free");
        assert!(!dm.is_resident(b), "release ends residency");
    }

    #[test]
    fn inflight_booking_is_logged_once_and_blocks_replanning() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 64);
        let booked = dm.book(2, b, 2, TransferReason::Input);
        assert_eq!(booked, Ok(Booking::Move(TransferPlan { from: HEAD_NODE, to: 2, buffer: b })));
        // The booking is a holder (no re-plan), on record in its region's
        // log only.
        assert!(dm.plan_input(b, 2).unwrap().is_none());
        assert!(dm.take_transfer_log_in(UNATTRIBUTED).is_empty());
        assert_eq!(dm.transfer_state(b, 2), TransferState::InFlight(2));
        assert!(dm.buffer_in_flight(b));
        // A second booking of the same pair awaits the first, whoever asks.
        assert_eq!(dm.book(2, b, 2, TransferReason::Input), Ok(Booking::Await));
        assert_eq!(dm.book(1, b, 2, TransferReason::Input), Ok(Booking::Await));
        dm.finish(b, 2, Ok(())).unwrap();
        assert_eq!(dm.transfer_state(b, 2), TransferState::Resident);
        assert!(!dm.buffer_in_flight(b));
        let log = dm.take_transfer_log_in(2);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].reason, TransferReason::Input);
        assert!(dm.transfer_log().is_empty());
    }

    #[test]
    fn failed_inflight_rolls_back_holder_record_and_surfaces_the_error() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.book(1, b, 3, TransferReason::EnterData).unwrap();
        dm.finish(b, 3, Err(boom())).unwrap();
        // Holder and record are gone; the failure stays on the pair for
        // every waiter that looks.
        assert!(!dm.is_present(b, 3));
        assert!(dm.transfer_log().is_empty());
        assert_eq!(dm.transfer_state(b, 3), TransferState::Invalid(Some(boom())));
        assert_eq!(dm.transfer_state(b, 3), TransferState::Invalid(Some(boom())));
        // The pair can be planned again, which supersedes the failure.
        assert!(dm.plan_input(b, 3).unwrap().is_some());
        assert_eq!(dm.transfer_state(b, 3), TransferState::InFlight(UNATTRIBUTED));
        dm.finish(b, 3, Ok(())).unwrap();
        assert_eq!(dm.transfer_state(b, 3), TransferState::Resident);
    }

    #[test]
    fn inflight_completion_on_a_dead_node_counts_as_failure() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.book(1, b, 2, TransferReason::Input).unwrap();
        dm.fail_node(2).unwrap();
        // The wire op "succeeded" but the destination died: the booking
        // must roll back (no phantom transfer record survives).
        dm.finish(b, 2, Ok(())).unwrap();
        assert!(dm.transfer_log().is_empty());
        assert!(!dm.is_present(b, 2));
        let dead = Some(OmpcError::NodeFailure(2));
        assert_eq!(dm.transfer_state(b, 2), TransferState::Invalid(dead));
    }

    #[test]
    fn inflight_retrieve_serializes_concurrent_flushes() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 1).unwrap();
        dm.record_write(b, 1).unwrap();
        assert_eq!(dm.begin_inflight_retrieve(b), Some(1));
        // A concurrent flusher observes the in-flight retrieval and waits
        // instead of scheduling a second retrieve.
        assert_eq!(dm.transfer_state(b, HEAD_NODE), TransferState::InFlight(UNATTRIBUTED));
        dm.record_retrieve(b).unwrap();
        dm.finish(b, HEAD_NODE, Ok(())).unwrap();
        assert_eq!(dm.transfer_state(b, HEAD_NODE), TransferState::Resident);
        // Once the head is latest there is nothing left to book.
        assert_eq!(dm.begin_inflight_retrieve(b), None);
        // A failed retrieve is simply un-booked: the next flush retries.
        dm.record_write(b, 1).unwrap();
        assert_eq!(dm.begin_inflight_retrieve(b), Some(1));
        dm.finish(b, HEAD_NODE, Err(OmpcError::Internal("x".into()))).unwrap();
        assert_eq!(dm.transfer_state(b, HEAD_NODE), TransferState::Invalid(None));
        assert_eq!(dm.retrieve_source(b), Some(1));
    }

    #[test]
    fn latest_on_workers_reports_only_device_latest_buffers() {
        let mut dm = DataManager::new();
        let a = BufferId(0);
        let b = BufferId(1);
        dm.register_host_buffer(a, 8);
        dm.register_host_buffer(b, 8);
        dm.plan_input(a, 2).unwrap();
        dm.record_write(a, 2).unwrap();
        let map = dm.latest_on_workers();
        assert_eq!(map.get(&a), Some(&2));
        assert!(!map.contains_key(&b), "host-latest buffers are not resident on workers");
        // A failure moves the residency view.
        dm.fail_node(2).unwrap();
        assert!(dm.latest_on_workers().is_empty());
    }

    /// The script of the removed `concurrent_sync_first_touch_is_a_typed_
    /// rejection`: what used to be refused (and what used to slip through)
    /// while another region's first copy was still on the wire.
    #[test]
    fn a_second_region_plans_beside_a_first_touch_and_awaits_on_its_node() {
        let input = TransferReason::Input;
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        // Region 1 first-touches the buffer, then replicates it.
        assert!(matches!(dm.book(1, b, 1, input), Ok(Booking::Move(_))));
        assert!(matches!(dm.book(1, b, 2, input), Ok(Booking::Move(_))));
        // A concurrent region's harmless head-sourced plan to another node
        // is a plan of its own (it was an `InvalidConfig` rejection) ...
        let plan = TransferPlan { from: HEAD_NODE, to: 3, buffer: b };
        assert_eq!(dm.book(2, b, 3, input), Ok(Booking::Move(plan)));
        // ... and its reader on the very node whose bytes are still on the
        // wire awaits them (it was a quiet "already there").
        assert_eq!(dm.book(2, b, 1, input), Ok(Booking::Await));
        // Each region's log holds exactly what it planned.
        assert_eq!(dm.take_transfer_log_in(2).len(), 1);
        // Once region 1's bytes have arrived, its copy is just present.
        dm.finish(b, 1, Ok(())).unwrap();
        assert_eq!(dm.book(2, b, 1, input), Ok(Booking::Present));
        assert_eq!(dm.take_transfer_log_in(1).len(), 2);
    }

    /// The script of the removed `first_touch_guard_clears_on_rollback_and_
    /// failure`.
    #[test]
    fn a_first_touch_is_planned_again_after_rollback_and_after_node_failure() {
        let input = TransferReason::Input;
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        assert!(matches!(dm.book(1, b, 1, input), Ok(Booking::Move(_))));
        assert_eq!(dm.book(2, b, 1, input), Ok(Booking::Await));
        // The first-touch transfer failed: the waiter sees why, and the
        // next plan — anybody's — moves the bytes again.
        dm.finish(b, 1, Err(boom())).unwrap();
        assert_eq!(dm.transfer_state(b, 1), TransferState::Invalid(Some(boom())));
        assert!(matches!(dm.book(2, b, 1, input), Ok(Booking::Move(_))));
        assert_eq!(dm.transfer_log().len(), 1, "the failed plan's record is withdrawn");
        // Same via node failure: the booking resolves as a failure however
        // the wire operation ended, and survivors are planned from the head.
        let c = BufferId(1);
        dm.register_host_buffer(c, 8);
        dm.take_transfer_log();
        assert!(matches!(dm.book(3, c, 3, input), Ok(Booking::Move(_))));
        assert_eq!(dm.book(4, c, 3, input), Ok(Booking::Await));
        dm.fail_node(3).unwrap();
        dm.finish(c, 3, Ok(())).unwrap();
        assert_eq!(
            dm.transfer_state(c, 3),
            TransferState::Invalid(Some(OmpcError::NodeFailure(3)))
        );
        assert!(dm.transfer_log().is_empty());
        let plan = TransferPlan { from: HEAD_NODE, to: 4, buffer: c };
        assert_eq!(dm.book(4, c, 4, input), Ok(Booking::Move(plan)));
        // Device-level plans book like everybody else.
        assert_eq!(dm.plan_input(c, 4), Ok(None));
        assert!(dm.plan_input(c, 2).unwrap().is_some());
    }

    #[test]
    fn a_moving_pair_is_never_booked_twice() {
        // Found by the walk below when it first let a write race a moving
        // booking: the write strips the booked holder, a second booking of
        // the pair replaced the in-flight entry, and the first owner's
        // record outlived its rollback.
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 1).unwrap();
        assert!(matches!(dm.book(1, b, 2, TransferReason::Input), Ok(Booking::Move(_))));
        dm.record_write(b, 1).unwrap();
        assert_eq!(dm.book(2, b, 2, TransferReason::Input), Ok(Booking::Await));
        assert_eq!(dm.transfer_state(b, 2), TransferState::InFlight(1));
        dm.finish(b, 2, Err(boom())).unwrap();
        assert!(dm.take_transfer_log_in(1).iter().all(|t| t.to != 2));
        assert!(dm.take_transfer_log_in(2).is_empty());
    }

    /// One step of the exhaustive walk below.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        /// `book` as the walk's region.
        Plan(BufferId, NodeId),
        /// `book` as a second region running beside it.
        Other(BufferId, NodeId),
        FinishOk(BufferId, NodeId),
        FinishErr(BufferId, NodeId),
        /// A write by a region task.
        Write(BufferId, NodeId),
        Retrieve(BufferId),
        Fail(NodeId),
        /// A release at the end of an exit-data task.
        Remove(BufferId),
        /// The walk's region books a push of the buffer's latest copy to the
        /// node, as a producer's retire does.
        Push(BufferId, NodeId),
        /// A reader of the given region on the node claims the push there.
        Claim(u64, BufferId, NodeId),
        /// The claimant's car landed: it finishes the booking.
        Retire(BufferId, NodeId),
        /// The claimant's car never left: the booking is rolled back and the
        /// copy owed a drop.
        Abandon(BufferId, NodeId),
        /// The end of the walk's region's run.
        EndRun,
    }

    impl Op {
        /// The `(buffer, node)` pair the operation acts on, if it is one.
        fn pair(self) -> Option<(BufferId, NodeId)> {
            match self {
                Op::Plan(b, n) | Op::Other(b, n) | Op::FinishOk(b, n) | Op::FinishErr(b, n) => {
                    Some((b, n))
                }
                Op::Write(b, n) | Op::Push(b, n) | Op::Claim(_, b, n) => Some((b, n)),
                Op::Retire(b, n) | Op::Abandon(b, n) => Some((b, n)),
                Op::Retrieve(_) | Op::Fail(_) | Op::Remove(_) | Op::EndRun => None,
            }
        }
    }

    /// The walk's state: the data manager, whole, the pushes claimed and
    /// not retired or abandoned, each with its claimant's region, and how it
    /// got there.
    #[derive(Debug, Clone)]
    struct Walk {
        dm: DataManager,
        claims: Vec<(u64, Push)>,
        trace: Vec<Op>,
    }

    const WALK_REGION: u64 = 1;
    const OTHER_REGION: u64 = 2;
    const WALK_BUFFERS: [BufferId; 2] = [BufferId(0), BufferId(1)];
    const WALK_WORKERS: [NodeId; 2] = [1, 2];

    impl Walk {
        fn start() -> Self {
            let mut dm = DataManager::new();
            dm.begin_region();
            for b in WALK_BUFFERS {
                dm.register_host_buffer(b, 8);
            }
            Walk { dm, claims: Vec::new(), trace: Vec::new() }
        }

        fn after(ops: &[Op]) -> Self {
            let mut walk = Self::start();
            for &op in ops {
                let before = walk.clone();
                walk.apply(op);
                if let Err(broken) = walk.check(op, &before) {
                    panic!("{broken} after {:?}", walk.trace);
                }
            }
            walk
        }

        fn moving(&self, b: BufferId, n: NodeId) -> bool {
            matches!(self.dm.transfer_state(b, n), TransferState::InFlight(_))
        }

        /// Whether the booking of `(b, n)` is a push's: unclaimed, or
        /// claimed and not retired or abandoned.
        fn pushed(&self, b: BufferId, n: NodeId) -> bool {
            let ours = |&(_, p): &(u64, Push)| (p.buffer, p.to) == (b, n);
            self.dm.unclaimed.values().any(ours) || self.claims.iter().any(ours)
        }

        /// Every push that has not ended — unclaimed or claimed — or that
        /// ended into a drop still owed, by channel.
        fn pushes(&self) -> Result<BTreeMap<Tag, Push>, String> {
            let owed = self.dm.owed.values().flat_map(|owed| &owed.drops);
            let live = self.dm.unclaimed.values().chain(&self.claims).map(|(_, p)| p);
            let mut pushes = BTreeMap::new();
            for &p in live.chain(owed) {
                if pushes.insert(p.tag, p).is_some() {
                    return Err(format!("push {p:?} is in two places at once"));
                }
            }
            Ok(pushes)
        }

        /// A channel no push of this state uses.
        fn free_tag(&self) -> Tag {
            let used = self.pushes().unwrap_or_default();
            (0..).map(Tag).find(|tag| !used.contains_key(tag)).unwrap_or(Tag(0))
        }

        /// Every operation whose documented precondition holds here: nothing
        /// touches a removed buffer; a booking is finished only while it is
        /// moving, and a push's only by its claimant; a task writes only on a
        /// live node that is a holder — a copy still booked as moving
        /// included, that is the proof of arrival — and whatever else of the
        /// buffer is on the wire; a push leaves the buffer's latest worker
        /// copy for another live worker, and a reader of either region
        /// claims it; a run ends with every car of its own retired.
        fn enabled(&self) -> Vec<Op> {
            let dm = &self.dm;
            let mut ops = Vec::new();
            for b in WALK_BUFFERS.into_iter().filter(|&b| dm.is_registered(b)) {
                for n in WALK_WORKERS {
                    ops.extend([Op::Plan(b, n), Op::Other(b, n)]);
                    if self.moving(b, n) && !self.pushed(b, n) {
                        ops.extend([Op::FinishOk(b, n), Op::FinishErr(b, n)]);
                    }
                    if dm.is_present(b, n) && !dm.is_failed(n) {
                        ops.push(Op::Write(b, n));
                    }
                    let latest = dm.latest(b).unwrap_or(HEAD_NODE);
                    if latest != HEAD_NODE && latest != n && !dm.is_failed(n) {
                        ops.push(Op::Push(b, n));
                    }
                    if dm.unclaimed.contains_key(&(b, n)) {
                        ops.extend([Op::Claim(WALK_REGION, b, n), Op::Claim(OTHER_REGION, b, n)]);
                    }
                }
                ops.extend([Op::Retrieve(b), Op::Remove(b)]);
            }
            for (_, p) in &self.claims {
                ops.extend([Op::Retire(p.buffer, p.to), Op::Abandon(p.buffer, p.to)]);
            }
            ops.extend(WALK_WORKERS.into_iter().filter(|&n| !dm.is_failed(n)).map(Op::Fail));
            if self.claims.iter().all(|&(region, _)| region != WALK_REGION) {
                ops.push(Op::EndRun);
            }
            ops
        }

        /// The claim of `(b, n)`, taken off the claimed list.
        fn take_claim(&mut self, b: BufferId, n: NodeId) -> Push {
            let at = self.claims.iter().position(|(_, p)| (p.buffer, p.to) == (b, n));
            self.claims.remove(at.expect("a claimed push")).1
        }

        fn apply(&mut self, op: Op) {
            let input = TransferReason::Input;
            let tag = self.free_tag();
            let dm = &mut self.dm;
            match op {
                Op::Plan(b, n) => drop(dm.book(WALK_REGION, b, n, input).unwrap()),
                Op::Other(b, n) => drop(dm.book(OTHER_REGION, b, n, input).unwrap()),
                Op::FinishOk(b, n) => dm.finish(b, n, Ok(())).unwrap(),
                Op::FinishErr(b, n) => dm.finish(b, n, Err(boom())).unwrap(),
                Op::Write(b, n) => dm.supersede(b, n, &[]).unwrap(),
                Op::Retrieve(b) => dm.record_retrieve_in(WALK_REGION, b).unwrap(),
                Op::Fail(n) => drop(dm.fail_node(n).unwrap()),
                Op::Remove(b) => dm.release(b),
                Op::Push(b, n) => {
                    let from = dm.latest(b).unwrap();
                    dm.book_push(WALK_REGION, Push { buffer: b, from, to: n, tag }, false);
                }
                Op::Claim(region, b, n) => self.claims.push((region, dm.claim_push(b, n).unwrap())),
                // A claim of a buffer released meanwhile finishes nothing.
                Op::Retire(b, n) => {
                    self.take_claim(b, n);
                    let _ = self.dm.finish(b, n, Ok(()));
                }
                Op::Abandon(b, n) => {
                    let push = self.take_claim(b, n);
                    let _ = self.dm.finish(b, n, Err(boom()));
                    self.dm.owe(n, [], [push]);
                }
                Op::EndRun => drop(dm.end_run(WALK_REGION)),
            }
            self.trace.push(op);
        }

        /// Transfers of `b` to `n` on record, in any region's log.
        fn records(&self, b: BufferId, n: NodeId) -> usize {
            let all = self.dm.logs.values().flatten();
            all.filter(|t| t.buffer == b && t.to == n).count()
        }

        /// The unclaimed pushes `last` ends, as `(region, push)`.
        fn ended_by(&self, last: Op) -> Vec<(u64, Push)> {
            let unclaimed = self.dm.unclaimed.values().copied();
            let ends = |&(region, p): &(u64, Push)| match last {
                Op::Write(b, _) => p.buffer == b,
                Op::Fail(n) => p.to == n || p.from == n,
                Op::EndRun => region == WALK_REGION,
                _ => false,
            };
            unclaimed.filter(ends).collect()
        }

        /// The invariants of the residency machine, `self` having been
        /// reached from `before` by `last`.
        fn check(&self, last: Op, before: &Walk) -> Result<(), String> {
            let dm = &self.dm;
            for (b, loc) in &dm.buffers {
                if loc.latest != HEAD_NODE && !loc.holds(loc.latest) {
                    return Err(format!("latest of {b} ({}) holds no copy", loc.latest));
                }
                if loc.moving(loc.latest).is_some() {
                    return Err(format!("latest of {b} ({}) is still on the wire", loc.latest));
                }
                if let Some(dead) = loc.holders().find(|n| dm.failed.contains(n)) {
                    return Err(format!("failed node {dead} still holds {b}"));
                }
                if !loc.copies.windows(2).all(|pair| pair[0].node < pair[1].node) {
                    return Err(format!("a copy of {b} has two entries: {:?}", loc.copies));
                }
                for copy in &loc.copies {
                    let n = copy.node;
                    match copy.pending {
                        None if !copy.held => return Err(format!("{b} keeps a void copy on {n}")),
                        Some(Pending::Failed(_)) if copy.held => {
                            return Err(format!("rolled-back copy of {b} on node {n} is a holder"))
                        }
                        // What was booked stays on record until it is
                        // rolled back.
                        Some(Pending::Moving(_)) if n != HEAD_NODE && self.records(*b, n) == 0 => {
                            return Err(format!("moving copy of {b} to node {n} is not logged"))
                        }
                        _ => {}
                    }
                }
            }
            // An unclaimed push is its region's booking of its pair, the
            // newest transfer of the pair in that region's log.
            for (&(b, n), &(region, p)) in &dm.unclaimed {
                if (p.buffer, p.to) != (b, n) {
                    return Err(format!("push {p:?} is filed under ({b}, {n})"));
                }
                if dm.transfer_state(b, n) != TransferState::InFlight(region) {
                    return Err(format!(
                        "unclaimed push {p:?} of region {region} is not in flight"
                    ));
                }
                let log = dm.logs.get(&region).map(Vec::as_slice).unwrap_or_default();
                let newest = log.iter().rfind(|t| t.buffer == b && t.to == n);
                if newest.map(|t| t.from) != Some(p.from) {
                    return Err(format!("unclaimed push {p:?} has no transfer record"));
                }
            }
            // Nothing is owed to a dead node, and no push to or from one is
            // left unclaimed.
            for (&n, owed) in &dm.owed {
                if dm.failed.contains(&n) || owed == &Owed::default() {
                    return Err(format!("node {n} is owed {owed:?}"));
                }
            }
            let dead = |p: &&(u64, Push)| dm.is_failed(p.1.from) || dm.is_failed(p.1.to);
            if let Some((_, p)) = dm.unclaimed.values().find(dead) {
                return Err(format!("push {p:?} of a dead node is unclaimed"));
            }
            // The end of a run leaves nothing owed, no push of its region
            // unclaimed, and no drop of a push another region claimed.
            if last == Op::EndRun {
                let theirs = |d: &Push| self.claims.iter().any(|(_, p)| p == d);
                if dm.owed.values().flat_map(|owed| &owed.drops).any(theirs) {
                    return Err("the end of the run dropped another region's claim".into());
                }
                if !dm.owed.is_empty() || dm.unclaimed.values().any(|&(r, _)| r == WALK_REGION) {
                    return Err("the end of the run left something owed".into());
                }
            }
            // Every push ends exactly once: it is in one place at a time,
            // it stays there until it is claimed and retired or its drop is
            // taken, and only a drop to a dead node is forgotten.
            let (was, is) = (before.pushes()?, self.pushes()?);
            let claim =
                |b, n| before.claims.iter().map(|(_, p)| p).find(|c| (c.buffer, c.to) == (b, n));
            let vanished = |p: &Push| match last {
                Op::Retire(b, n) => claim(b, n) == Some(p),
                Op::Abandon(b, n) => dm.is_failed(n) && claim(b, n) == Some(p),
                Op::Fail(n) => p.to == n && !before.claims.iter().any(|(_, c)| c == p),
                Op::EndRun => {
                    let owed = before.dm.owed.values().flat_map(|o| &o.drops).any(|d| d == p);
                    owed || before.dm.unclaimed_of(WALK_REGION).contains(p)
                }
                _ => false,
            };
            let mut expected: BTreeMap<Tag, Push> =
                was.into_iter().filter(|(_, p)| !vanished(p)).collect();
            if let Op::Push(b, n) = last {
                let (from, tag) = (before.dm.latest(b).unwrap_or(HEAD_NODE), before.free_tag());
                expected.insert(tag, Push { buffer: b, from, to: n, tag });
            }
            if is != expected {
                return Err(format!("the pushes went {expected:?} → {is:?}"));
            }
            // The log is written by `book` and withdrawn by a rolled-back
            // `finish`, one record each, and by nothing else: every record
            // towards a worker is a copy that was booked and not rolled back.
            // A death that loses a buffer's latest version (it falls back to
            // the host image) rolls back every copy of it on the wire.
            let ended = before.ended_by(last);
            let lost = |b| match last {
                Op::Fail(d) => before.dm.latest(b) == Some(d) && dm.latest(b) == Some(HEAD_NODE),
                _ => false,
            };
            for b in WALK_BUFFERS {
                for n in WALK_WORKERS {
                    let free = before.dm.is_registered(b)
                        && !before.dm.is_failed(n)
                        && !before.dm.is_present(b, n)
                        && !before.moving(b, n);
                    let was = before.records(b, n);
                    let at = last.pair() == Some((b, n));
                    let finished = at
                        && before.moving(b, n)
                        && match last {
                            Op::FinishErr(..) | Op::Abandon(..) => true,
                            Op::FinishOk(..) | Op::Retire(..) => dm.is_failed(n),
                            _ => false,
                        };
                    let rolled_back = finished
                        || ended.iter().any(|(_, p)| (p.buffer, p.to) == (b, n))
                        || lost(b) && before.moving(b, n);
                    let booked =
                        at && free && matches!(last, Op::Plan(..) | Op::Other(..) | Op::Push(..));
                    let Some(expected) =
                        (was + usize::from(booked)).checked_sub(rolled_back.into())
                    else {
                        return Err(format!(
                            "a rollback of {b} to node {n} with nothing on record"
                        ));
                    };
                    if self.records(b, n) != expected {
                        return Err(format!(
                            "{} transfer(s) of {b} to node {n} on record, {expected} expected",
                            self.records(b, n)
                        ));
                    }
                    // A write proves its own node's copy arrived.
                    let proven = at && matches!(last, Op::Write(..));
                    if rolled_back
                        && !proven
                        && !matches!(dm.transfer_state(b, n), TransferState::Invalid(Some(_)))
                    {
                        return Err(format!("rolled-back copy of {b} on node {n} is not invalid"));
                    }
                }
            }
            Ok(())
        }
    }

    /// ROADMAP standing item (a), bounded: every operation sequence of
    /// length ≤ 6 over 2 buffers × 3 nodes (the head and two workers),
    /// breadth first (so the first counter-example is a shortest one) and
    /// deterministic — no seed. States are deduplicated on their full
    /// `Debug` image.
    #[test]
    fn exhaustive_walk_never_reaches_a_bad_residency_state() {
        use std::hash::{Hash, Hasher};
        let mut frontier = vec![Walk::start()];
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
                    format!("{:?}{:?}", walk.dm, walk.claims).hash(&mut hasher);
                    if seen.insert(hasher.finish()) {
                        next.push(walk);
                    }
                }
            }
            frontier = next;
        }
        eprintln!("residency walk: {steps} transitions, {} states", seen.len());
        assert!(steps > 10_000, "the walk explored only {steps} transitions");
    }

    /// The first trace PR 18's walk had to exclude by name: a replica whose
    /// bytes were still coming from the node that died was elected `latest`
    /// and could then not be rolled back.
    #[test]
    fn a_copy_still_on_the_wire_is_never_elected_latest() {
        let (b, input) = (BufferId(0), TransferReason::Input);
        let mut walk = Walk::after(&[Op::Plan(b, 1), Op::Write(b, 1), Op::Plan(b, 2)]);
        assert_eq!(walk.dm.fail_node(1), Ok(vec![b]), "the only arrived copy died with node 1");
        assert_eq!(walk.dm.latest(b), Some(HEAD_NODE));
        // The owner's transfer fails (its source is gone) and rolls back.
        walk.dm.finish(b, 2, Err(OmpcError::NodeFailure(1))).unwrap();
        assert_eq!(walk.dm.holders(b), Vec::<NodeId>::new());
        assert_eq!(walk.records(b, 2), 0);
        // A restarted reader on node 2 moves real bytes, from the host image.
        let plan = TransferPlan { from: HEAD_NODE, to: 2, buffer: b };
        assert_eq!(walk.dm.book(WALK_REGION, b, 2, input), Ok(Booking::Move(plan)));
    }

    /// The simulator's death path is `fail_node` alone: a copy still coming
    /// from the node that took the latest version with it ends there, and its
    /// late arrival makes no holder.
    #[test]
    fn a_death_that_loses_the_latest_ends_its_copies_on_the_wire() {
        let mut dm = DataManager::new();
        let b = BufferId(0);
        dm.register_host_buffer(b, 8);
        dm.plan_input(b, 1).unwrap();
        dm.record_write(b, 1).unwrap();
        dm.plan_input(b, 2).unwrap();
        assert_eq!(dm.fail_node(1), Ok(vec![b]));
        let failure = Some(OmpcError::NodeFailure(1));
        assert_eq!(dm.transfer_state(b, 2), TransferState::Invalid(failure));
        assert!(dm.transfer_log().iter().all(|t| t.to != 2), "the copy's record is withdrawn");
        dm.finish(b, 2, Ok(())).unwrap();
        assert!(dm.holders(b).is_empty());
        assert_eq!(dm.latest(b), Some(HEAD_NODE));
    }

    /// The second: a write racing a moving booking of the same buffer used
    /// to let a synchronous plan become a second owner of the pair, whose
    /// record then outlived both rollbacks.
    #[test]
    fn a_write_racing_a_moving_booking_leaves_the_pair_one_owner() {
        let (b, input) = (BufferId(0), TransferReason::Input);
        let mut walk = Walk::after(&[Op::Plan(b, 1), Op::Other(b, 2), Op::Write(b, 1)]);
        assert_eq!(walk.dm.transfer_state(b, 2), TransferState::InFlight(OTHER_REGION));
        assert!(!walk.dm.is_present(b, 2), "the write invalidated the copy still on the wire");
        // The reader that wants the new version on node 2 awaits the
        // booking instead of planning beside it.
        assert_eq!(walk.dm.book(WALK_REGION, b, 2, input), Ok(Booking::Await));
        assert_eq!(walk.records(b, 2), 1);
        walk.dm.finish(b, 2, Err(boom())).unwrap();
        walk.dm.finish(b, 2, Err(boom())).unwrap();
        assert_eq!(walk.records(b, 2), 0);
        // Now the reader plans its own transfer, of the version it wants.
        let plan = TransferPlan { from: 1, to: 2, buffer: b };
        assert_eq!(walk.dm.book(WALK_REGION, b, 2, input), Ok(Booking::Move(plan)));
    }
}
