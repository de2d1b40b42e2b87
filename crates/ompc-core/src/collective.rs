//! Collective data movement: binomial broadcast trees with chunked,
//! pipelined payload frames.
//!
//! When one buffer must reach `k ≥ collective_min_fanout` destinations in a
//! single planning step, shipping it as `k` independent point-to-point
//! transfers serializes `k` full copies on the source's link. This module
//! plans a **binomial tree** over `[source, dest₀, dest₁, …]` instead: the
//! source feeds `⌈log₂(k+1)⌉` subtree roots and every interior recipient
//! fans the payload onward to its own children via the worker-to-worker
//! relay events ([`crate::protocol::EventRequest::RelayRecv`] /
//! [`crate::protocol::EventRequest::RelayFeed`]), so the source link
//! carries `O(log k)` copies while the remaining hops ride otherwise idle
//! worker links in parallel.
//!
//! Underneath, payloads stream as **chunked frames**
//! ([`crate::protocol::relay_frame_header`] plus the chunk as the message
//! body, size [`crate::config::OmpcConfig::collective_chunk_kib`]): a relay
//! forwards chunk *i* the moment it arrives, while chunk *i+1* is still on
//! the wire towards it, overlapping receive, store, and fan-out down the
//! whole tree. Every chunk is a view of the source's allocation and every
//! relay passes on the handle it received, so the tree moves one block of
//! memory however many nodes it reaches.
//!
//! ## Delivery tracking and failure healing
//!
//! One broadcast opens an exclusive event channel per destination; every
//! destination acknowledges its full reassembled payload (or reports a
//! typed error) on its own channel, so the head resolves the tree
//! **per-destination** — exactly the granularity the in-flight ticket
//! table needs. When a relay node refuses its event (killed by the fault
//! plan, or a real failure surfaced by its gate), only its *undelivered
//! subtree* is affected: the dead node never forwarded a frame, so its
//! planned children are simply re-fed ("rescued") from a surviving
//! recipient that already acknowledged the payload — delivered nodes are
//! never re-sent, and the transfer log records the rescue edge that
//! actually carried the bytes. If no recipient has the payload yet and
//! nothing else can deliver one (every pending destination sits under an
//! orphaned subtree), the source itself re-feeds the orphans directly.
//!
//! Receivers are duplicate-tolerant (frames are indexed and re-delivery is
//! ignored), so a rescue may safely replay the whole stream.

use crate::data_manager::HEAD_NODE;
use crate::event::EventSystem;
use crate::protocol::{EventNotification, EventRequest, RelayChild, Reply};
use crate::runtime::telemetry::{monotonic_us, Span, SpanPhase, Telemetry};
use crate::types::{BufferId, NodeId, OmpcError};
use ompc_mpi::{Bytes, CommId, Tag};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Fallback bound on a whole broadcast when the device has no configured
/// event-reply timeout. Generous: a tree of large chunked payloads is
/// many sequential wire hops.
const DEFAULT_BROADCAST_TIMEOUT: Duration = Duration::from_secs(90);

/// Pause between delivery-probe sweeps. Short: the sweep is cheap iprobes,
/// and every sleep is pure latency on the broadcast's critical path.
const POLL_SLEEP: Duration = Duration::from_micros(50);

/// Where a broadcast's payload comes from.
#[derive(Debug, Clone)]
pub enum BroadcastSource {
    /// The head streams the frames itself, out of this handle.
    Head(Bytes),
    /// A worker holding the buffer is driven through a `RelayFeed` event.
    Worker(NodeId),
}

impl BroadcastSource {
    /// The node holding the payload ([`HEAD_NODE`] or the worker).
    pub fn node(&self) -> NodeId {
        match self {
            BroadcastSource::Head(_) => HEAD_NODE,
            BroadcastSource::Worker(node) => *node,
        }
    }
}

/// One planned one-to-many distribution.
#[derive(Debug, Clone)]
pub struct BroadcastSpec {
    /// The buffer being distributed.
    pub buffer: BufferId,
    /// Payload size in bytes (what each edge carries).
    pub bytes: u64,
    /// Who currently holds the payload.
    pub source: BroadcastSource,
    /// Nodes that must receive a copy; none of them holds one yet.
    pub destinations: Vec<NodeId>,
    /// Frame size for the pipelined stream (0 = one whole-buffer frame).
    pub chunk_bytes: u64,
}

/// One confirmed delivery: `to` acknowledged the full payload, fed by
/// `from` — the planned tree parent, or the rescue source when the parent
/// died mid-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredEdge {
    /// Destination that acknowledged the payload.
    pub to: NodeId,
    /// Node that actually fed it.
    pub from: NodeId,
    /// Bytes the edge carried.
    pub bytes: u64,
}

/// The per-destination outcome of one broadcast.
#[derive(Debug, Clone, Default)]
pub struct BroadcastOutcome {
    /// Destinations that hold the payload, with the edge that fed each.
    pub delivered: Vec<DeliveredEdge>,
    /// Destinations that did not receive it, with the typed reason.
    pub failed: Vec<(NodeId, OmpcError)>,
}

impl BroadcastOutcome {
    /// Whether every destination acknowledged its copy.
    pub fn complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Children of tree slot `index` in a binomial tree over `size` slots:
/// `index + 2^j` for every `2^j > index` with `index + 2^j < size`. Slot 0
/// is the source; the tree reaches all slots in `⌈log₂ size⌉` rounds.
pub fn binomial_children(index: usize, size: usize) -> Vec<usize> {
    let mut children = Vec::new();
    let mut step = 1usize;
    while index + step < size {
        if step > index {
            children.push(index + step);
        }
        step <<= 1;
    }
    children
}

/// Parent of tree slot `index` (> 0): `index` with its highest set bit
/// cleared — the inverse of [`binomial_children`].
pub fn binomial_parent(index: usize) -> usize {
    debug_assert!(index > 0, "the root has no parent");
    index & !(1usize << (usize::BITS - 1 - index.leading_zeros()))
}

/// A feed dispatched towards orphaned (or root) destinations, whose reply
/// must be drained and whose failure orphans the slots it was feeding.
struct FeedInFlight {
    /// Node performing the feed ([`HEAD_NODE`] feeds send no event and are
    /// never tracked here).
    feeder: NodeId,
    tag: Tag,
    comm: CommId,
    /// Tree slots this feed was carrying frames towards.
    fed: Vec<usize>,
}

/// Execute `spec` as a binomial broadcast.
///
/// Blocks until every destination either acknowledged its copy or failed;
/// per-destination outcomes are reported in the returned
/// [`BroadcastOutcome`]. Never returns a top-level error: a broadcast that
/// goes entirely wrong is simply `failed` for every destination, and the
/// caller's per-task star machinery remains the fallback.
pub(crate) fn run_broadcast(
    events: &EventSystem,
    telemetry: &Telemetry,
    spec: &BroadcastSpec,
) -> BroadcastOutcome {
    let mut outcome = BroadcastOutcome::default();
    if spec.destinations.is_empty() {
        return outcome;
    }
    let size = 1 + spec.destinations.len();
    let source = spec.source.node();
    let node_of = |slot: usize| -> NodeId {
        if slot == 0 {
            source
        } else {
            spec.destinations[slot - 1]
        }
    };
    let started = Instant::now();
    let t0 = telemetry.start();
    let deadline = events.reply_timeout().unwrap_or(DEFAULT_BROADCAST_TIMEOUT);

    // One exclusive reply channel per destination: the tree is resolved
    // per-destination on these.
    let channels: Vec<(Tag, CommId)> = (1..size).map(|_| events.open_channel()).collect();
    let child_of = |slot: usize| -> RelayChild {
        let (tag, comm) = channels[slot - 1];
        RelayChild { node: node_of(slot), tag, comm }
    };

    // Dispatch every destination's RelayRecv first; mailboxes buffer any
    // frame that races ahead of its notification.
    let mut pending: BTreeMap<usize, ()> = BTreeMap::new();
    let mut planned_parent: BTreeMap<usize, NodeId> = BTreeMap::new();
    let mut orphans: BTreeSet<usize> = BTreeSet::new();
    for slot in 1..size {
        planned_parent.insert(slot, node_of(binomial_parent(slot)));
        let (tag, comm) = channels[slot - 1];
        let children: Vec<RelayChild> =
            binomial_children(slot, size).into_iter().map(child_of).collect();
        let notified = events.notify(
            node_of(slot),
            &EventNotification {
                request: EventRequest::RelayRecv {
                    buffer: spec.buffer,
                    total_bytes: spec.bytes,
                    chunk_bytes: spec.chunk_bytes,
                    children,
                },
                tag,
                comm,
                timed: false,
            },
        );
        match notified {
            Ok(()) => {
                pending.insert(slot, ());
            }
            Err(e) => outcome.failed.push((node_of(slot), e)),
        }
    }
    // A destination whose notification never left orphans its planned
    // children (they will receive no frames from it).
    for slot in 1..size {
        if !pending.contains_key(&slot) {
            for child in binomial_children(slot, size) {
                if pending.contains_key(&child) {
                    orphans.insert(child);
                }
            }
        }
    }

    // Feed the subtree roots from the source.
    let root_slots: Vec<usize> =
        binomial_children(0, size).into_iter().filter(|slot| pending.contains_key(slot)).collect();
    let root_children: Vec<RelayChild> = root_slots.iter().map(|&slot| child_of(slot)).collect();
    let mut feeds: Vec<FeedInFlight> = Vec::new();
    let mut feed_failed: Option<OmpcError> = None;
    match &spec.source {
        BroadcastSource::Head(payload) => {
            let tc = telemetry.start();
            let sent = crate::worker::send_relay_frames(
                events.communicator(),
                payload,
                spec.chunk_bytes,
                &root_children,
            );
            if telemetry.spans_enabled() {
                telemetry.record(
                    Span::new(SpanPhase::Chunk, HEAD_NODE, tc, monotonic_us())
                        .bytes(spec.bytes * root_children.len() as u64)
                        .detail("head-stream"),
                );
            }
            if let Err(e) = sent {
                feed_failed = Some(e);
            }
        }
        BroadcastSource::Worker(feeder) => {
            match dispatch_feed(events, spec, *feeder, &root_children) {
                Ok(mut feed) => {
                    feed.fed = root_slots.clone();
                    feeds.push(feed);
                }
                Err(e) => feed_failed = Some(e),
            }
        }
    }
    if feed_failed.is_some() {
        // The roots got nothing; they are orphans until someone re-feeds
        // them (which, with no delivered recipient, only the source could —
        // and the source feed just failed, so they will fail below).
        orphans.extend(root_slots.iter().copied());
    }

    // Resolve deliveries, heal orphaned subtrees.
    while !pending.is_empty() {
        let mut progressed = false;
        // 1. Collect per-destination acknowledgements.
        let arrived: Vec<usize> = pending
            .keys()
            .copied()
            .filter(|&slot| {
                let (tag, comm) = channels[slot - 1];
                events
                    .communicator()
                    .on(comm)
                    .ok()
                    .and_then(|c| c.iprobe(Some(node_of(slot)), Some(tag)))
                    .is_some()
            })
            .collect();
        for slot in arrived {
            let (tag, comm) = channels[slot - 1];
            let node = node_of(slot);
            let reply = events
                .communicator()
                .on(comm)
                .and_then(|c| c.recv(Some(node), Some(tag)))
                .map_err(|e| OmpcError::Communication(e.to_string()))
                .and_then(|msg| Reply::from_parts(&msg.data, msg.body, false));
            pending.remove(&slot);
            orphans.remove(&slot);
            progressed = true;
            match reply {
                Ok(_) => {
                    let from = planned_parent[&slot];
                    events.counters().record(Some(spec.bytes));
                    if telemetry.spans_enabled() {
                        telemetry.record(
                            Span::new(SpanPhase::Relay, node, t0, monotonic_us())
                                .bytes(spec.bytes)
                                .from(from)
                                .detail("deliver"),
                        );
                    }
                    outcome.delivered.push(DeliveredEdge { to: node, from, bytes: spec.bytes });
                }
                Err(e) => {
                    // The refusal (or failure) means this node forwarded
                    // nothing: its still-pending planned children are
                    // orphans to be re-fed from a survivor.
                    for child in binomial_children(slot, size) {
                        if pending.contains_key(&child) {
                            orphans.insert(child);
                        }
                    }
                    outcome.failed.push((node, e));
                }
            }
        }
        // 2. Collect feed outcomes; a failed feed orphans what it carried.
        let mut kept = Vec::new();
        for feed in feeds.drain(..) {
            let probed = events
                .communicator()
                .on(feed.comm)
                .ok()
                .and_then(|c| c.iprobe(Some(feed.feeder), Some(feed.tag)));
            if probed.is_none() {
                kept.push(feed);
                continue;
            }
            progressed = true;
            let reply = events
                .communicator()
                .on(feed.comm)
                .and_then(|c| c.recv(Some(feed.feeder), Some(feed.tag)))
                .map_err(|e| OmpcError::Communication(e.to_string()))
                .and_then(|msg| Reply::from_parts(&msg.data, msg.body, false));
            if reply.is_err() {
                for slot in feed.fed {
                    if pending.contains_key(&slot) {
                        orphans.insert(slot);
                    }
                }
            }
        }
        feeds = kept;
        // 3. Rescue orphans: replay the stream from a recipient that
        // already holds the payload (delivered nodes are never re-sent —
        // receivers drop duplicate frames, and the rescue only targets the
        // orphans' own channels). Waiting is fine while some live subtree
        // can still produce a first delivery; when nothing can (every
        // pending slot sits under an orphan), the source re-feeds directly.
        if !orphans.is_empty() {
            let rescue_children: Vec<RelayChild> =
                orphans.iter().map(|&slot| child_of(slot)).collect();
            let fed: Vec<usize> = orphans.iter().copied().collect();
            if let Some(rescuer) = outcome.delivered.first().map(|e| e.to) {
                match dispatch_feed(events, spec, rescuer, &rescue_children) {
                    Ok(mut feed) => {
                        feed.fed = fed.clone();
                        for &slot in &fed {
                            planned_parent.insert(slot, rescuer);
                        }
                        feeds.push(feed);
                        orphans.clear();
                        progressed = true;
                    }
                    Err(_) => {
                        // The rescuer became unreachable; try again next
                        // sweep (possibly with a different rescuer).
                    }
                }
            } else if orphan_closure(&orphans, &pending, size) >= pending.len() {
                // No delivery exists anywhere and none can happen: only the
                // source still holds the bytes.
                let fed_ok = match &spec.source {
                    BroadcastSource::Head(payload) => crate::worker::send_relay_frames(
                        events.communicator(),
                        payload,
                        spec.chunk_bytes,
                        &rescue_children,
                    )
                    .map(|()| None),
                    BroadcastSource::Worker(feeder) => {
                        dispatch_feed(events, spec, *feeder, &rescue_children).map(|mut feed| {
                            feed.fed = fed.clone();
                            Some(feed)
                        })
                    }
                };
                match fed_ok {
                    Ok(feed) => {
                        for &slot in &fed {
                            planned_parent.insert(slot, source);
                        }
                        feeds.extend(feed);
                        orphans.clear();
                        progressed = true;
                    }
                    Err(e) => {
                        // The source itself is gone: everything pending is
                        // undeliverable.
                        for slot in std::mem::take(&mut pending).into_keys() {
                            outcome.failed.push((node_of(slot), e.clone()));
                        }
                        orphans.clear();
                    }
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        if started.elapsed() > deadline {
            for slot in std::mem::take(&mut pending).into_keys() {
                outcome.failed.push((
                    node_of(slot),
                    OmpcError::Communication(format!(
                        "collective broadcast of {} timed out towards node {}",
                        spec.buffer,
                        node_of(slot)
                    )),
                ));
            }
            break;
        }
        if !progressed {
            std::thread::sleep(POLL_SLEEP);
        }
    }

    // Drain outstanding feed acknowledgements so no stray reply lingers in
    // the head's mailbox. Feeds towards already-resolved destinations
    // finish promptly (or time out and are abandoned).
    for feed in feeds {
        if let Ok(channel) = events.communicator().on(feed.comm) {
            let _ = channel.recv_timeout(Some(feed.feeder), Some(feed.tag), Duration::from_secs(5));
        }
    }
    outcome
}

/// Ask `feeder` (a worker holding the payload) to stream the broadcast
/// frames towards `children`.
fn dispatch_feed(
    events: &EventSystem,
    spec: &BroadcastSpec,
    feeder: NodeId,
    children: &[RelayChild],
) -> Result<FeedInFlight, OmpcError> {
    let (tag, comm) = events.open_channel();
    events.notify(
        feeder,
        &EventNotification {
            request: EventRequest::RelayFeed {
                buffer: spec.buffer,
                chunk_bytes: spec.chunk_bytes,
                children: children.to_vec(),
            },
            tag,
            comm,
            timed: false,
        },
    )?;
    Ok(FeedInFlight { feeder, tag, comm, fed: Vec::new() })
}

/// Size of the orphan closure: the orphans plus every still-pending slot
/// that (transitively) depends on an orphan for its frames.
fn orphan_closure(orphans: &BTreeSet<usize>, pending: &BTreeMap<usize, ()>, size: usize) -> usize {
    let mut closure: BTreeSet<usize> = orphans.clone();
    loop {
        let mut grew = false;
        for &slot in closure.clone().iter() {
            for child in binomial_children(slot, size) {
                if pending.contains_key(&child) && closure.insert(child) {
                    grew = true;
                }
            }
        }
        if !grew {
            return closure.iter().filter(|s| pending.contains_key(s)).count();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_tree_shape_is_the_textbook_one() {
        // p = 9 (source + 8 destinations): the source feeds ⌈log₂ 9⌉ = 4
        // subtree roots — the 2× head-link reduction at fanout 8.
        assert_eq!(binomial_children(0, 9), vec![1, 2, 4, 8]);
        assert_eq!(binomial_children(1, 9), vec![3, 5]);
        assert_eq!(binomial_children(2, 9), vec![6]);
        assert_eq!(binomial_children(3, 9), vec![7]);
        assert_eq!(binomial_children(4, 9), Vec::<usize>::new());
        // Small trees.
        assert_eq!(binomial_children(0, 2), vec![1]);
        assert_eq!(binomial_children(0, 3), vec![1, 2]);
        assert_eq!(binomial_children(1, 3), Vec::<usize>::new());
    }

    #[test]
    fn parent_inverts_children_for_every_slot() {
        for size in 2..40usize {
            for slot in 0..size {
                for child in binomial_children(slot, size) {
                    assert_eq!(
                        binomial_parent(child),
                        slot,
                        "child {child} of {slot} in a {size}-slot tree"
                    );
                }
            }
            // Every non-root slot is reached exactly once.
            let mut seen = vec![false; size];
            seen[0] = true;
            let mut frontier = vec![0usize];
            while let Some(slot) = frontier.pop() {
                for child in binomial_children(slot, size) {
                    assert!(!seen[child], "slot {child} fed twice in a {size}-slot tree");
                    seen[child] = true;
                    frontier.push(child);
                }
            }
            assert!(seen.iter().all(|&s| s), "unreached slot in a {size}-slot tree");
        }
    }

    #[test]
    fn head_link_copies_grow_logarithmically() {
        // The source's copy count is ⌈log₂(k+1)⌉ — strictly below k (the
        // star) as soon as k ≥ 2, and 2× fewer at k = 8.
        for k in 2..=64usize {
            let copies = binomial_children(0, k + 1).len();
            assert!(copies <= k);
            assert_eq!(copies, (usize::BITS - k.leading_zeros()) as usize);
        }
        assert_eq!(binomial_children(0, 9).len(), 4);
    }

    #[test]
    fn orphan_closure_counts_dependent_subtrees() {
        // p = 9; slot 1 orphaned ⇒ 3, 5, 7 depend on it.
        let pending: BTreeMap<usize, ()> = (1..9).map(|s| (s, ())).collect();
        let orphans: BTreeSet<usize> = [1].into_iter().collect();
        assert_eq!(orphan_closure(&orphans, &pending, 9), 4);
        // With the rest delivered, the closure covers all of pending.
        let pending: BTreeMap<usize, ()> = [1, 3, 5, 7].into_iter().map(|s| (s, ())).collect();
        assert_eq!(orphan_closure(&orphans, &pending, 9), 4);
    }
}
