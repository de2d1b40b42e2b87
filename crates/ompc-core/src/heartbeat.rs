//! Ring-topology heartbeat monitoring (paper §3.1).
//!
//! Every node periodically sends a heartbeat to its successor in a ring;
//! each node therefore monitors exactly one neighbour, so failure detection
//! costs O(1) messages per node per period regardless of cluster size. When
//! a node misses enough heartbeats its neighbour declares it failed and the
//! head node restarts the tasks that were in flight there.
//!
//! The paper describes this mechanism as under development; here it is
//! implemented as a deterministic monitor (driven by explicit timestamps so
//! it can be tested and simulated) plus a recovery planner that recomputes
//! the placement of the affected tasks. The monitor is not a standalone
//! gadget: [`crate::runtime::RuntimeCore`] drives it from the dispatch loop
//! — virtual time in the simulated backend, a logical per-round clock on
//! the real cluster — and [`plan_recovery`] is the fast-path
//! reassignment of the [`crate::runtime::fault`] subsystem.

use crate::types::NodeId;
use std::collections::BTreeMap;

/// Milliseconds since an arbitrary epoch; explicit timestamps keep the
/// monitor deterministic and simulator friendly.
pub type Millis = u64;

/// The state of one monitored node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Heartbeats are arriving on time.
    Alive,
    /// The node missed enough heartbeats and is considered failed.
    Failed,
}

/// Ring heartbeat monitor for a cluster of `nodes` nodes (head included).
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    nodes: usize,
    period: Millis,
    miss_threshold: u32,
    last_beat: Vec<Millis>,
    health: Vec<NodeHealth>,
}

impl HeartbeatMonitor {
    /// Create a monitor: a node is declared failed after missing
    /// `miss_threshold` consecutive heartbeat periods of `period`
    /// milliseconds.
    pub fn new(nodes: usize, period: Millis, miss_threshold: u32) -> Self {
        assert!(nodes > 0, "monitor needs at least one node");
        assert!(period > 0, "heartbeat period must be positive");
        assert!(miss_threshold > 0, "miss threshold must be positive");
        Self {
            nodes,
            period,
            miss_threshold,
            last_beat: vec![0; nodes],
            health: vec![NodeHealth::Alive; nodes],
        }
    }

    /// Number of monitored nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node that monitors `node` (its predecessor in the ring).
    pub fn monitor_of(&self, node: NodeId) -> NodeId {
        (node + self.nodes - 1) % self.nodes
    }

    /// The node monitored by `node` (its successor in the ring).
    pub fn monitored_by(&self, node: NodeId) -> NodeId {
        (node + 1) % self.nodes
    }

    /// Record a heartbeat from `node` at time `now`. A heartbeat from a
    /// previously failed node marks it alive again (it rejoined).
    pub fn record_heartbeat(&mut self, node: NodeId, now: Millis) {
        assert!(node < self.nodes, "unknown node {node}");
        self.last_beat[node] = now;
        self.health[node] = NodeHealth::Alive;
    }

    /// Evaluate the cluster at time `now` and return the nodes that have
    /// just transitioned to failed (each is reported once).
    pub fn check(&mut self, now: Millis) -> Vec<NodeId> {
        let deadline = self.period * u64::from(self.miss_threshold);
        let mut newly_failed = Vec::new();
        for node in 0..self.nodes {
            if self.health[node] == NodeHealth::Alive
                && now.saturating_sub(self.last_beat[node]) > deadline
            {
                self.health[node] = NodeHealth::Failed;
                newly_failed.push(node);
            }
        }
        newly_failed
    }

    /// Current health of a node.
    pub fn health(&self, node: NodeId) -> NodeHealth {
        self.health[node]
    }

    /// Nodes currently considered alive.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes).filter(|&n| self.health[n] == NodeHealth::Alive).collect()
    }
}

/// Plan the recovery of tasks that were assigned to failed nodes: each is
/// reassigned round-robin over the surviving worker nodes.
///
/// `assignment` maps task index → node; the returned map contains only the
/// tasks that must be restarted, with their new node.
pub fn plan_recovery(
    assignment: &[NodeId],
    failed: &[NodeId],
    alive_workers: &[NodeId],
) -> BTreeMap<usize, NodeId> {
    let mut plan = BTreeMap::new();
    if alive_workers.is_empty() {
        return plan;
    }
    let mut next = 0usize;
    for (task, &node) in assignment.iter().enumerate() {
        if failed.contains(&node) {
            plan.insert(task, alive_workers[next % alive_workers.len()]);
            next += 1;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_topology_neighbours() {
        let m = HeartbeatMonitor::new(4, 100, 3);
        assert_eq!(m.monitored_by(0), 1);
        assert_eq!(m.monitored_by(3), 0);
        assert_eq!(m.monitor_of(0), 3);
        assert_eq!(m.monitor_of(2), 1);
        assert_eq!(m.nodes(), 4);
    }

    #[test]
    fn nodes_stay_alive_while_heartbeats_arrive() {
        let mut m = HeartbeatMonitor::new(3, 100, 3);
        for t in (0..10).map(|i| i * 100) {
            for n in 0..3 {
                m.record_heartbeat(n, t);
            }
            assert!(m.check(t).is_empty());
        }
        assert_eq!(m.alive_nodes(), vec![0, 1, 2]);
    }

    #[test]
    fn silent_node_is_declared_failed_once() {
        let mut m = HeartbeatMonitor::new(3, 100, 3);
        for n in 0..3 {
            m.record_heartbeat(n, 0);
        }
        // Node 2 goes silent; the others keep beating.
        for t in (100..=400).step_by(100) {
            m.record_heartbeat(0, t);
            m.record_heartbeat(1, t);
        }
        assert!(m.check(250).is_empty(), "not yet past the threshold");
        let failed = m.check(400);
        assert_eq!(failed, vec![2]);
        assert_eq!(m.health(2), NodeHealth::Failed);
        // Reported only once.
        assert!(m.check(500).is_empty());
        assert_eq!(m.alive_nodes(), vec![0, 1]);
    }

    #[test]
    fn rejoining_node_becomes_alive_again() {
        let mut m = HeartbeatMonitor::new(2, 50, 2);
        m.record_heartbeat(0, 0);
        m.record_heartbeat(1, 0);
        assert_eq!(m.check(1000), vec![0, 1]);
        m.record_heartbeat(1, 1000);
        assert_eq!(m.health(1), NodeHealth::Alive);
        assert_eq!(m.alive_nodes(), vec![1]);
    }

    #[test]
    fn recovery_plan_reassigns_only_affected_tasks() {
        let assignment = vec![1, 2, 3, 2, 1, 3];
        let failed = vec![2];
        let alive = vec![1, 3];
        let plan = plan_recovery(&assignment, &failed, &alive);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[&1], 1);
        assert_eq!(plan[&3], 3);
        assert!(!plan.contains_key(&0));
    }

    #[test]
    fn recovery_with_no_survivors_is_empty() {
        let plan = plan_recovery(&[1, 1], &[1], &[]);
        assert!(plan.is_empty());
    }
}
