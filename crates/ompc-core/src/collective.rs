//! Collective data movement: binomial broadcast trees, shipped as rounds of
//! ordinary forwards.
//!
//! When one buffer must reach `k ≥ collective_min_fanout` destinations in a
//! single planning step, shipping it as `k` independent point-to-point
//! transfers serializes `k` full copies on the source's link. This module
//! plans a **binomial tree** over `[source, dest₀, dest₁, …]` instead. In
//! round `r` every holder of a copy feeds its binomial child for that round,
//! so the tree reaches all `k` destinations in `⌈log₂(k+1)⌉` rounds, the
//! source's link carries that many copies, and the remaining hops ride
//! otherwise idle worker links in parallel.
//!
//! A feed is the very event a forward is: one
//! [`crate::protocol::EventRequest::Task`] on the child — a
//! `RecvFromHead` step when the head feeds, a `RecvFromWorker` step with the
//! parent told its `ExchangeSend` when a worker does. The head posts one
//! round's feeds, then awaits their replies; the round is over when every
//! reply is in. Each payload is the handle its feeder holds, so the tree
//! moves one block of memory however many nodes it reaches.
//!
//! ## Delivery tracking and failure healing
//!
//! Every feed is answered by its child, so the head resolves the tree
//! **per destination** — exactly the granularity of the in-flight table,
//! where each destination is a booking of its own — and each delivery names the edge that actually carried it. A
//! failed feed says whose fault it was. A dead parent refuses its
//! `ExchangeSend` by sending its error to the receiver, which replies with
//! it: an error naming the parent drops the parent from the holders, and
//! its child stays pending. A later round re-feeds that child from a worker
//! that already holds a copy — from the source only when no worker does.
//! Any other error fails that destination. Delivered nodes are never fed
//! twice.

use crate::data_manager::HEAD_NODE;
use crate::event::{Composite, EventSystem, ReplyChannel};
use crate::runtime::telemetry::{monotonic_us, Span, SpanPhase, Telemetry};
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::Bytes;
use std::collections::BTreeSet;

/// Where a broadcast's payload comes from.
#[derive(Debug, Clone)]
pub enum BroadcastSource {
    /// The head sends the payload itself, out of this handle.
    Head(Bytes),
    /// A worker holding the buffer forwards it.
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

/// The feeds of round `round` of a broadcast, as `(feeder, fed)` tree-slot
/// pairs. `holders` hold a live copy (slot 0 is the source) and `pending`
/// still wait for one.
///
/// First the tree's own edges: every holder `i < 2^round` feeds its child
/// `i + 2^round`. Then every pending slot whose planned round has come and
/// that no edge feeds — its parent failed or was dropped — is re-fed by a
/// holder idle this round: a worker holder, or the source only when no
/// worker holds a copy. No holder feeds twice in one round.
fn round_edges(
    round: u32,
    holders: &BTreeSet<usize>,
    pending: &BTreeSet<usize>,
) -> Vec<(usize, usize)> {
    let step = 1usize.checked_shl(round).unwrap_or(usize::MAX);
    let mut edges: Vec<(usize, usize)> = (holders.iter())
        .filter(|&&slot| slot < step)
        .filter_map(|&slot| Some((slot, slot.checked_add(step)?)))
        .filter(|(_, child)| pending.contains(child))
        .collect();
    let feeding: BTreeSet<usize> = edges.iter().map(|&(from, _)| from).collect();
    let fed: BTreeSet<usize> = edges.iter().map(|&(_, to)| to).collect();
    let workers_hold = holders.iter().any(|&slot| slot != 0);
    let idle = (holders.iter().copied())
        .filter(|slot| !feeding.contains(slot) && (*slot != 0 || !workers_hold));
    let orphans = (pending.iter().copied())
        .filter(|slot| !fed.contains(slot) && slot.checked_shr(round).unwrap_or(0) <= 1);
    edges.extend(idle.zip(orphans));
    edges
}

/// Put one feed of `spec`'s payload on the wire: a task on `to` that
/// receives it from `from` — from the head's own handle, or as a forward
/// from a worker holding a copy.
fn feed(
    events: &EventSystem,
    spec: &BroadcastSpec,
    from: NodeId,
    to: NodeId,
) -> OmpcResult<ReplyChannel> {
    let mut work = Composite::default();
    match &spec.source {
        BroadcastSource::Head(payload) if from == HEAD_NODE => {
            work.recv_from_head(spec.buffer, payload.clone());
        }
        _ => work.recv_from_worker(spec.buffer, from, spec.bytes),
    }
    events.post_task(to, work)
}

/// Execute `spec` as a binomial broadcast, round by round.
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
    let node_of = |slot: usize| match slot {
        0 => spec.source.node(),
        _ => spec.destinations[slot - 1],
    };
    let mut holders: BTreeSet<usize> = BTreeSet::from([0]);
    let mut pending: BTreeSet<usize> = (1..=spec.destinations.len()).collect();
    // Why the last dropped holder dropped out: what the destinations left
    // without any holder fail with.
    let mut lost = None;
    let mut round = 0;
    while !pending.is_empty() {
        if holders.is_empty() {
            let error = lost.unwrap_or_else(|| {
                OmpcError::Communication(format!("no holder of {} is left", spec.buffer))
            });
            outcome.failed.extend(pending.iter().map(|&slot| (node_of(slot), error.clone())));
            break;
        }
        let mut edges = round_edges(round, &holders, &pending);
        round += 1;
        // The head's own payload goes out last: a paced send sleeps in the
        // posting thread, and the workers' forwards should not wait for it.
        edges.sort_by_key(|&(from, _)| node_of(from) == HEAD_NODE);
        let t0 = telemetry.start();
        let posted: Vec<_> = (edges.into_iter())
            .map(|(from, to)| (from, to, feed(events, spec, node_of(from), node_of(to))))
            .collect();
        for (from, to, channel) in posted {
            let (parent, child) = (node_of(from), node_of(to));
            match channel.and_then(|channel| events.await_reply(&channel)) {
                Ok(_) => {
                    pending.remove(&to);
                    holders.insert(to);
                    if telemetry.spans_enabled() {
                        telemetry.record(
                            Span::new(SpanPhase::Relay, child, t0, monotonic_us())
                                .bytes(spec.bytes)
                                .from(parent)
                                .detail("deliver"),
                        );
                    }
                    outcome.delivered.push(DeliveredEdge {
                        to: child,
                        from: parent,
                        bytes: spec.bytes,
                    });
                }
                Err(error) if error.origin_node() == Some(parent) => {
                    holders.remove(&from);
                    lost = Some(error);
                }
                Err(error) => {
                    pending.remove(&to);
                    outcome.failed.push((child, error));
                }
            }
        }
    }
    outcome
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

    /// Run the round schedule over `k` destinations to the end, every feed
    /// delivering except those into a slot of `failed`, and return each
    /// round's feeds.
    fn schedule(k: usize, failed: &[usize]) -> Vec<Vec<(usize, usize)>> {
        let size = k + 1;
        let mut holders = BTreeSet::from([0]);
        let mut pending: BTreeSet<usize> = (1..size).collect();
        let mut rounds = Vec::new();
        while !pending.is_empty() {
            let edges = round_edges(rounds.len() as u32, &holders, &pending);
            for &(_, to) in &edges {
                pending.remove(&to);
                if !failed.contains(&to) {
                    holders.insert(to);
                }
            }
            rounds.push(edges);
            assert!(rounds.len() <= 2 * size, "{k} destinations never finish: {rounds:?}");
        }
        rounds
    }

    #[test]
    fn rounds_follow_the_tree_and_rescue_orphans_from_worker_holders() {
        for k in 1..=16usize {
            let rounds = schedule(k, &[]);
            // ⌈log₂(k+1)⌉ rounds, each slot fed once, by its binomial parent.
            assert_eq!(rounds.len(), (usize::BITS - k.leading_zeros()) as usize, "k = {k}");
            let mut fed = BTreeSet::new();
            for edges in &rounds {
                let feeders: BTreeSet<usize> = edges.iter().map(|&(from, _)| from).collect();
                assert_eq!(
                    feeders.len(),
                    edges.len(),
                    "a holder fed twice in one round: {edges:?}"
                );
                for &(from, to) in edges {
                    assert_eq!(from, binomial_parent(to), "k = {k}: {edges:?}");
                    assert!(fed.insert(to), "slot {to} fed twice");
                }
            }
            assert_eq!(fed, (1..=k).collect(), "k = {k}");

            // Slot 1 fails: its orphans are re-fed by a worker holder, never
            // by the head, and still no holder feeds twice in one round.
            let rounds = schedule(k, &[1]);
            let orphans = binomial_children(1, k + 1);
            let all: Vec<(usize, usize)> = rounds.concat();
            for orphan in &orphans {
                let feeds: Vec<usize> =
                    all.iter().filter(|&&(_, to)| to == *orphan).map(|&(from, _)| from).collect();
                assert_eq!(feeds.len(), 1, "k = {k}: orphan {orphan} fed by {feeds:?}");
                assert!(feeds[0] != 0 && feeds[0] != 1, "k = {k}: orphan {orphan}: {rounds:?}");
            }
            for edges in &rounds {
                let feeders: BTreeSet<usize> = edges.iter().map(|&(from, _)| from).collect();
                assert_eq!(
                    feeders.len(),
                    edges.len(),
                    "a holder fed twice in one round: {edges:?}"
                );
            }
        }
        // The fault-tolerance scenario, k = 4: slot 3 waits out the round in
        // which its parent would have fed it, then slot 2 feeds it.
        assert_eq!(schedule(4, &[1]), vec![vec![(0, 1)], vec![(0, 2)], vec![(0, 4), (2, 3)]]);
        // With no worker holder left, the source re-feeds the orphan itself.
        assert_eq!(schedule(3, &[1, 2]), vec![vec![(0, 1)], vec![(0, 2)], vec![(0, 3)]]);
    }
}
