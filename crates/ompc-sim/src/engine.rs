//! The discrete-event engine: virtual clock, event queue, and resource
//! bookkeeping.
//!
//! A *simulation process* (the OMPC runtime model or a baseline runtime
//! model) implements [`SimProcess`]. The engine hands it a [`SimContext`]
//! whenever something completes; the process reacts by issuing new
//! [`Command`]s (compute on a node, send bytes between nodes, set a timer,
//! account runtime overhead, stop). The engine owns the cluster resources —
//! per-node core pools and NIC channels — and turns commands into future
//! completions, queueing requests FIFO when a resource is saturated.
//!
//! Future events are ordered by `(time, seq)`: their due time, then the
//! order they were scheduled in. Most are due a constant delay after they
//! were scheduled — the network latency, the serialization time of the
//! few message sizes a run sends, a runtime bookkeeping cost — and the
//! clock never runs backwards, so the events scheduled with one delay fall
//! due in the order they were scheduled. Each such delay gets a lane, a
//! FIFO queue, up to eight of them at a time; compute completions, and
//! any delay no lane is free for, wait in a binary heap. The next event is
//! the least `(time, seq)` among the heap's top and the lanes' fronts,
//! which is the order one heap of every event would give, so a run is the
//! same run either way; the lanes only spare the heap's `log n` sift for
//! most events.

use crate::config::ClusterConfig;
use crate::resources::{CorePool, FifoServer, NicChannels};
use crate::stats::{NodeStats, SimStats};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Opaque correlation value chosen by the simulation process; it is returned
/// unchanged in the matching [`Completion`].
pub type Token = u64;

/// Something the simulation process asked for has finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// A compute activity finished on `node`.
    Compute { node: usize, token: Token },
    /// A message of `bytes` from `src` arrived at `dst`.
    Transfer { src: usize, dst: usize, bytes: u64, token: Token },
    /// A timer set with [`SimContext::timer`] fired.
    Timer { token: Token },
    /// A runtime-overhead activity finished on `node`.
    Runtime { node: usize, token: Token },
}

impl Completion {
    /// The token the process attached to the originating command.
    pub fn token(&self) -> Token {
        match self {
            Completion::Compute { token, .. }
            | Completion::Transfer { token, .. }
            | Completion::Timer { token }
            | Completion::Runtime { token, .. } => *token,
        }
    }
}

/// A request issued by the simulation process.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Occupy one core of `node` for `duration`.
    Compute { node: usize, duration: SimTime, token: Token },
    /// Move `bytes` from `src` to `dst` through the network model.
    Send { src: usize, dst: usize, bytes: u64, token: Token },
    /// Fire a completion after `delay` without occupying any resource.
    Timer { delay: SimTime, token: Token },
    /// Account `duration` of runtime bookkeeping on `node` (does not occupy
    /// a core).
    Runtime { node: usize, duration: SimTime, token: Token },
    /// Stop the simulation after the current callback returns.
    Stop,
}

/// The interface through which a [`SimProcess`] reads the clock and issues
/// commands. Commands are buffered and applied by the engine after the
/// callback returns, in issue order. The buffer is the engine's own, lent
/// for the callback and handed back empty, so issuing allocates nothing
/// once it has grown to the longest burst.
#[derive(Debug)]
pub struct SimContext {
    now: SimTime,
    commands: Vec<Command>,
}

impl SimContext {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Request a compute activity of `duration` on `node`.
    pub fn compute(&mut self, node: usize, duration: SimTime, token: Token) {
        self.commands.push(Command::Compute { node, duration, token });
    }

    /// Request a transfer of `bytes` from `src` to `dst`.
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64, token: Token) {
        self.commands.push(Command::Send { src, dst, bytes, token });
    }

    /// Request a timer that fires after `delay`.
    pub fn timer(&mut self, delay: SimTime, token: Token) {
        self.commands.push(Command::Timer { delay, token });
    }

    /// Account runtime overhead of `duration` on `node`.
    pub fn runtime(&mut self, node: usize, duration: SimTime, token: Token) {
        self.commands.push(Command::Runtime { node, duration, token });
    }

    /// Stop the simulation.
    pub fn stop(&mut self) {
        self.commands.push(Command::Stop);
    }
}

/// A program driven by the engine.
pub trait SimProcess {
    /// Called once before the first event; issue the initial commands here.
    fn init(&mut self, ctx: &mut SimContext);
    /// Called every time a previously issued command completes.
    fn on_completion(&mut self, completion: Completion, ctx: &mut SimContext);
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Internal {
    ComputeDone { activity: u64 },
    SerializeDone { activity: u64 },
    Arrival { activity: u64 },
    TimerFired { token: Token },
    RuntimeDone { activity: u64 },
}

#[derive(Debug)]
struct QueueEntry {
    time: SimTime,
    seq: u64,
    event: Internal,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// How many constant delays have a lane at a time: a run's network latency,
/// its few serialization times and its runtime costs.
const LANES: usize = 8;

/// The events scheduled `delay` after their issue, due in queue order.
#[derive(Debug, Default)]
struct Lane {
    delay: SimTime,
    queue: VecDeque<QueueEntry>,
}

#[derive(Debug, Clone)]
enum ActivityKind {
    Compute { node: usize, duration: SimTime },
    Transfer { src: usize, dst: usize, bytes: u64, serialize: SimTime },
    Runtime { node: usize },
}

#[derive(Debug, Clone)]
struct Activity {
    token: Token,
    kind: ActivityKind,
}

/// The discrete-event simulation engine for one cluster run.
#[derive(Debug)]
pub struct Engine {
    config: ClusterConfig,
    now: SimTime,
    queue: BinaryHeap<QueueEntry>,
    /// The events due a constant delay after their issue (see the module
    /// docs): at most [`LANES`], an empty one free for any delay.
    lanes: Vec<Lane>,
    seq: u64,
    cores: Vec<CorePool>,
    nics: Vec<NicChannels>,
    /// Every activity in progress, indexed by its id: a slab whose slots
    /// are reused, so it never grows past the peak number in progress.
    activities: Vec<Option<Activity>>,
    /// Ids of the empty slots of `activities`.
    free_activities: Vec<u64>,
    /// The command buffer lent to each [`SimContext`].
    commands: Vec<Command>,
    node_stats: Vec<NodeStats>,
    events_processed: u64,
    stopped: bool,
}

impl Engine {
    /// Create an engine for the given cluster.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.nodes > 0, "cluster needs at least one node");
        let cores = (0..config.nodes).map(|_| FifoServer::new(config.node.cores)).collect();
        let nics =
            (0..config.nodes).map(|_| FifoServer::new(config.network.nic_channels)).collect();
        let node_stats = vec![NodeStats::default(); config.nodes];
        Self {
            config,
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            lanes: (0..LANES).map(|_| Lane::default()).collect(),
            seq: 0,
            cores,
            nics,
            activities: Vec::new(),
            free_activities: Vec::new(),
            commands: Vec::new(),
            node_stats,
            events_processed: 0,
            stopped: false,
        }
    }

    /// The cluster configuration the engine was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at `time`, in the heap.
    fn push(&mut self, time: SimTime, event: Internal) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueueEntry { time, seq, event });
    }

    /// Schedule `event` `delay` from now, in the lane of that delay if it
    /// has one or one is free.
    fn push_after(&mut self, delay: SimTime, event: Internal) {
        let time = self.now + delay;
        let lane = self.lanes.iter().position(|lane| lane.delay == delay);
        let lane = lane.or_else(|| self.lanes.iter().position(|lane| lane.queue.is_empty()));
        let Some(lane) = lane else { return self.push(time, event) };
        let seq = self.seq;
        self.seq += 1;
        let lane = &mut self.lanes[lane];
        lane.delay = delay;
        lane.queue.push_back(QueueEntry { time, seq, event });
    }

    /// The next event due: the least `(time, seq)` among the heap's top
    /// and the lanes' fronts.
    fn pop(&mut self) -> Option<QueueEntry> {
        let key = |entry: &QueueEntry| (entry.time, entry.seq);
        let mut best = self.queue.peek().map(key);
        let mut from = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.queue.front() {
                if best.is_none_or(|best| key(front) < best) {
                    best = Some(key(front));
                    from = Some(i);
                }
            }
        }
        match from {
            Some(lane) => self.lanes[lane].queue.pop_front(),
            None => self.queue.pop(),
        }
    }

    fn new_activity(&mut self, activity: Activity) -> u64 {
        match self.free_activities.pop() {
            Some(id) => {
                self.activities[id as usize] = Some(activity);
                id
            }
            None => {
                self.activities.push(Some(activity));
                self.activities.len() as u64 - 1
            }
        }
    }

    /// The activity `id`, its slot freed for the next one.
    fn take_activity(&mut self, id: u64) -> Option<Activity> {
        let activity = self.activities.get_mut(id as usize)?.take()?;
        self.free_activities.push(id);
        Some(activity)
    }

    fn apply_commands(&mut self, commands: &mut Vec<Command>) {
        for cmd in commands.drain(..) {
            match cmd {
                Command::Compute { node, duration, token } => {
                    assert!(node < self.config.nodes, "compute on unknown node {node}");
                    let id = self.new_activity(Activity {
                        token,
                        kind: ActivityKind::Compute { node, duration },
                    });
                    if self.cores[node].acquire(duration, id) {
                        self.push(self.now + duration, Internal::ComputeDone { activity: id });
                    }
                }
                Command::Send { src, dst, bytes, token } => {
                    assert!(src < self.config.nodes, "send from unknown node {src}");
                    assert!(dst < self.config.nodes, "send to unknown node {dst}");
                    let serialize = self.config.network.serialization_time(bytes);
                    let id = self.new_activity(Activity {
                        token,
                        kind: ActivityKind::Transfer { src, dst, bytes, serialize },
                    });
                    if self.nics[src].acquire(serialize, id) {
                        self.push_after(serialize, Internal::SerializeDone { activity: id });
                    }
                }
                Command::Timer { delay, token } => {
                    self.push_after(delay, Internal::TimerFired { token });
                }
                Command::Runtime { node, duration, token } => {
                    assert!(node < self.config.nodes, "runtime on unknown node {node}");
                    let id =
                        self.new_activity(Activity { token, kind: ActivityKind::Runtime { node } });
                    self.push_after(duration, Internal::RuntimeDone { activity: id });
                }
                Command::Stop => self.stopped = true,
            }
        }
    }

    fn handle(&mut self, event: Internal) -> Option<Completion> {
        match event {
            Internal::ComputeDone { activity } => {
                let act = self.take_activity(activity).expect("unknown compute activity");
                let (node, duration) = match act.kind {
                    ActivityKind::Compute { node, duration } => (node, duration),
                    _ => unreachable!("activity kind mismatch"),
                };
                self.node_stats[node].compute_time += duration;
                self.node_stats[node].tasks_executed += 1;
                if let Some((next_duration, next_id)) = self.cores[node].release() {
                    self.push(
                        self.now + next_duration,
                        Internal::ComputeDone { activity: next_id },
                    );
                }
                Some(Completion::Compute { node, token: act.token })
            }
            Internal::SerializeDone { activity } => {
                let act = self.activities.get(activity as usize).and_then(Option::as_ref);
                let act = act.expect("unknown transfer activity");
                let ActivityKind::Transfer { src, bytes, serialize, .. } = act.kind else {
                    unreachable!("activity kind mismatch")
                };
                let latency = self.config.network.latency;
                self.node_stats[src].send_time += serialize;
                self.node_stats[src].messages_sent += 1;
                self.node_stats[src].bytes_sent += bytes;
                self.push_after(latency, Internal::Arrival { activity });
                if let Some((next_duration, next_id)) = self.nics[src].release() {
                    self.push_after(next_duration, Internal::SerializeDone { activity: next_id });
                }
                None
            }
            Internal::Arrival { activity } => {
                let act = self.take_activity(activity).expect("unknown arrival activity");
                let (src, dst, bytes) = match act.kind {
                    ActivityKind::Transfer { src, dst, bytes, .. } => (src, dst, bytes),
                    _ => unreachable!("activity kind mismatch"),
                };
                Some(Completion::Transfer { src, dst, bytes, token: act.token })
            }
            Internal::TimerFired { token } => Some(Completion::Timer { token }),
            Internal::RuntimeDone { activity } => {
                let act = self.take_activity(activity).expect("unknown runtime activity");
                let ActivityKind::Runtime { node } = act.kind else {
                    unreachable!("activity kind mismatch")
                };
                Some(Completion::Runtime { node, token: act.token })
            }
        }
    }

    /// Issue commands from outside a completion callback. This is the hook
    /// external drivers (e.g. the OMPC execution backend in `ompc-core`)
    /// use to inject work between calls to [`Engine::next_completion`].
    pub fn issue(&mut self, build: impl FnOnce(&mut SimContext)) {
        let mut ctx = SimContext { now: self.now, commands: std::mem::take(&mut self.commands) };
        build(&mut ctx);
        let mut commands = ctx.commands;
        self.apply_commands(&mut commands);
        self.commands = commands;
    }

    /// Advance virtual time to the next completion and return it, or `None`
    /// when the event queue is drained or the simulation was stopped. This
    /// is the pull-style counterpart of [`Engine::run`]: an external driver
    /// alternates [`Engine::issue`] and `next_completion` instead of
    /// implementing [`SimProcess`].
    pub fn next_completion(&mut self) -> Option<Completion> {
        while !self.stopped {
            let entry = self.pop()?;
            self.now = entry.time;
            self.events_processed += 1;
            if let Some(completion) = self.handle(entry.event) {
                return Some(completion);
            }
        }
        None
    }

    /// Drive `process` to completion (event queue drained or the process
    /// issued [`Command::Stop`]). Returns the makespan.
    pub fn run<P: SimProcess>(&mut self, process: &mut P) -> SimTime {
        self.issue(|ctx| process.init(ctx));
        while let Some(completion) = self.next_completion() {
            self.issue(|ctx| process.on_completion(completion, ctx));
        }
        self.now
    }

    /// Consume the engine and return the run statistics.
    pub fn finish(self) -> SimStats {
        SimStats {
            makespan: self.now,
            nodes: self.node_stats,
            events_processed: self.events_processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, NetworkConfig, NodeConfig};

    /// Runs `count` sequential 10 ms tasks on node 1, each followed by a
    /// 1 MB transfer back to node 0.
    struct PingPong {
        remaining: u32,
        transfers_seen: u32,
    }

    impl SimProcess for PingPong {
        fn init(&mut self, ctx: &mut SimContext) {
            ctx.compute(1, SimTime::from_millis(10), 1);
        }
        fn on_completion(&mut self, completion: Completion, ctx: &mut SimContext) {
            match completion {
                Completion::Compute { node, .. } => {
                    assert_eq!(node, 1);
                    ctx.send(1, 0, 1 << 20, 2);
                }
                Completion::Transfer { src, dst, .. } => {
                    assert_eq!((src, dst), (1, 0));
                    self.transfers_seen += 1;
                    self.remaining -= 1;
                    if self.remaining > 0 {
                        ctx.compute(1, SimTime::from_millis(10), 1);
                    }
                }
                _ => {}
            }
        }
    }

    fn two_node_config() -> ClusterConfig {
        ClusterConfig {
            nodes: 2,
            node: NodeConfig { cores: 4 },
            network: NetworkConfig::infiniband(),
        }
    }

    /// Every round frees its compute activity before it issues the send,
    /// and the send's before the next compute: one activity is ever in
    /// progress, so one slot serves all 20 000 of them.
    #[test]
    fn the_activity_table_never_grows_past_peak_concurrency() {
        let mut engine = Engine::new(two_node_config());
        let mut proc = PingPong { remaining: 10_000, transfers_seen: 0 };
        engine.run(&mut proc);
        assert_eq!(proc.transfers_seen, 10_000);
        assert_eq!(engine.activities.len(), 1, "the ids were not reused");
        assert!(engine.activities.iter().all(Option::is_none));
        assert_eq!(engine.free_activities, vec![0]);
        assert_eq!(engine.finish().nodes[1].tasks_executed, 10_000);
    }

    #[test]
    fn ping_pong_makespan_matches_model() {
        let mut engine = Engine::new(two_node_config());
        let mut proc = PingPong { remaining: 5, transfers_seen: 0 };
        let makespan = engine.run(&mut proc);
        assert_eq!(proc.transfers_seen, 5);
        let cfg = engine.config().clone();
        let per_round = SimTime::from_millis(10) + cfg.network.transfer_time(1 << 20);
        let expected = SimTime(per_round.0 * 5);
        assert_eq!(makespan, expected);
        let stats = engine.finish();
        assert_eq!(stats.total_tasks(), 5);
        assert_eq!(stats.nodes[1].tasks_executed, 5);
        assert_eq!(stats.nodes[1].messages_sent, 5);
        assert_eq!(stats.nodes[1].bytes_sent, 5 << 20);
    }

    /// Saturates a single-core node with three tasks to exercise queueing.
    struct Saturate {
        completions: Vec<(Token, SimTime)>,
    }

    impl SimProcess for Saturate {
        fn init(&mut self, ctx: &mut SimContext) {
            ctx.compute(0, SimTime::from_millis(10), 1);
            ctx.compute(0, SimTime::from_millis(10), 2);
            ctx.compute(0, SimTime::from_millis(10), 3);
        }
        fn on_completion(&mut self, completion: Completion, ctx: &mut SimContext) {
            self.completions.push((completion.token(), ctx.now()));
        }
    }

    #[test]
    fn single_core_serializes_tasks_in_fifo_order() {
        let config = ClusterConfig {
            nodes: 1,
            node: NodeConfig { cores: 1 },
            network: NetworkConfig::default(),
        };
        let mut engine = Engine::new(config);
        let mut proc = Saturate { completions: Vec::new() };
        let makespan = engine.run(&mut proc);
        assert_eq!(makespan, SimTime::from_millis(30));
        assert_eq!(
            proc.completions,
            vec![
                (1, SimTime::from_millis(10)),
                (2, SimTime::from_millis(20)),
                (3, SimTime::from_millis(30)),
            ]
        );
    }

    #[test]
    fn multi_core_runs_tasks_in_parallel() {
        let config = ClusterConfig {
            nodes: 1,
            node: NodeConfig { cores: 4 },
            network: NetworkConfig::default(),
        };
        let mut engine = Engine::new(config);
        let mut proc = Saturate { completions: Vec::new() };
        let makespan = engine.run(&mut proc);
        assert_eq!(makespan, SimTime::from_millis(10));
        assert_eq!(proc.completions.len(), 3);
    }

    /// Timer and runtime-overhead activities.
    struct TimersOnly {
        fired: Vec<Token>,
    }

    impl SimProcess for TimersOnly {
        fn init(&mut self, ctx: &mut SimContext) {
            ctx.timer(SimTime::from_millis(5), 10);
            ctx.runtime(0, SimTime::from_millis(2), 20);
        }
        fn on_completion(&mut self, completion: Completion, _ctx: &mut SimContext) {
            self.fired.push(completion.token());
        }
    }

    #[test]
    fn timers_and_runtime_fire_in_time_order() {
        let mut engine = Engine::new(two_node_config());
        let mut proc = TimersOnly { fired: Vec::new() };
        let makespan = engine.run(&mut proc);
        assert_eq!(makespan, SimTime::from_millis(5));
        assert_eq!(proc.fired, vec![20, 10]);
        assert_eq!(engine.finish().events_processed, 2);
    }

    /// Stop command halts the run even with pending events.
    struct StopEarly;
    impl SimProcess for StopEarly {
        fn init(&mut self, ctx: &mut SimContext) {
            ctx.timer(SimTime::from_millis(1), 1);
            ctx.timer(SimTime::from_secs(100), 2);
        }
        fn on_completion(&mut self, completion: Completion, ctx: &mut SimContext) {
            if completion.token() == 1 {
                ctx.stop();
            }
        }
    }

    #[test]
    fn stop_command_halts_the_run() {
        let mut engine = Engine::new(two_node_config());
        let makespan = engine.run(&mut StopEarly);
        assert_eq!(makespan, SimTime::from_millis(1));
    }

    /// NIC channel contention: with a single channel, two concurrent sends
    /// serialize one after the other.
    struct TwoSends {
        arrivals: Vec<SimTime>,
    }
    impl SimProcess for TwoSends {
        fn init(&mut self, ctx: &mut SimContext) {
            ctx.send(0, 1, 125_000_000, 1); // 10 ms serialization at 12.5 GB/s
            ctx.send(0, 1, 125_000_000, 2);
        }
        fn on_completion(&mut self, completion: Completion, ctx: &mut SimContext) {
            if matches!(completion, Completion::Transfer { .. }) {
                self.arrivals.push(ctx.now());
            }
        }
    }

    #[test]
    fn nic_channel_contention_serializes_transfers() {
        let mut config = two_node_config();
        config.network.nic_channels = 1;
        let mut engine = Engine::new(config.clone());
        let mut proc = TwoSends { arrivals: Vec::new() };
        engine.run(&mut proc);
        assert_eq!(proc.arrivals.len(), 2);
        let gap = proc.arrivals[1] - proc.arrivals[0];
        let serialize = config.network.serialization_time(125_000_000);
        assert_eq!(gap, serialize);

        // With plenty of channels the transfers overlap and arrive together.
        config.network.nic_channels = 8;
        let mut engine = Engine::new(config);
        let mut proc = TwoSends { arrivals: Vec::new() };
        engine.run(&mut proc);
        assert_eq!(proc.arrivals[0], proc.arrivals[1]);
    }

    #[test]
    fn pull_api_matches_push_api() {
        // Drive the ping-pong scenario through issue()/next_completion()
        // and check it reproduces run()'s makespan exactly.
        let mut reference = Engine::new(two_node_config());
        let expected = reference.run(&mut PingPong { remaining: 3, transfers_seen: 0 });

        let mut engine = Engine::new(two_node_config());
        let mut remaining = 3u32;
        engine.issue(|ctx| ctx.compute(1, SimTime::from_millis(10), 1));
        while let Some(completion) = engine.next_completion() {
            match completion {
                Completion::Compute { .. } => engine.issue(|ctx| ctx.send(1, 0, 1 << 20, 2)),
                Completion::Transfer { .. } => {
                    remaining -= 1;
                    if remaining > 0 {
                        engine.issue(|ctx| ctx.compute(1, SimTime::from_millis(10), 1));
                    }
                }
                _ => {}
            }
        }
        assert_eq!(engine.now(), expected);
        assert_eq!(remaining, 0);
    }

    #[test]
    fn determinism_same_run_same_trace() {
        let run = || {
            let mut engine = Engine::new(two_node_config());
            let mut proc = PingPong { remaining: 3, transfers_seen: 0 };
            engine.run(&mut proc);
            engine.finish()
        };
        assert_eq!(run(), run());
    }

    /// A seeded mix of compute, send, runtime and timer commands, each
    /// completion answered with one or two more until a budget runs out. The
    /// delays are whole milliseconds, so many events fall due together.
    struct Mix {
        rng: ompc_testutil::Rng,
        budget: u32,
        next_token: Token,
        seen: Vec<(Completion, SimTime)>,
    }

    impl Mix {
        fn issue_some(&mut self, ctx: &mut SimContext) {
            for _ in 0..self.rng.range(1, 3) {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                self.next_token += 1;
                let token = self.next_token;
                let node = self.rng.range_usize(0, 4);
                let ms = |rng: &mut ompc_testutil::Rng, hi| SimTime::from_millis(rng.range(0, hi));
                match self.rng.range(0, 4) {
                    0 => ctx.compute(node, ms(&mut self.rng, 4), token),
                    1 => {
                        let bytes = [0, 1 << 10, 1 << 20, 12_500_000][self.rng.range_usize(0, 4)];
                        ctx.send(node, self.rng.range_usize(0, 4), bytes, token);
                    }
                    2 => ctx.runtime(node, ms(&mut self.rng, 6), token),
                    _ => ctx.timer(ms(&mut self.rng, 2 * LANES as u64), token),
                }
            }
        }
    }

    impl SimProcess for Mix {
        fn init(&mut self, ctx: &mut SimContext) {
            for _ in 0..8 {
                self.issue_some(ctx);
            }
        }
        fn on_completion(&mut self, completion: Completion, ctx: &mut SimContext) {
            self.seen.push((completion, ctx.now()));
            self.issue_some(ctx);
        }
    }

    /// The lanes hand out events in the order one heap of every event does:
    /// the same completions at the same times, with more distinct delays
    /// than there are lanes.
    #[test]
    fn lanes_keep_the_order_of_a_single_heap() {
        for seed in 0..40 {
            let run = |lanes: bool| {
                let mut config = two_node_config();
                config.nodes = 4;
                config.node.cores = 2;
                config.network.nic_channels = 1;
                let mut engine = Engine::new(config);
                if !lanes {
                    engine.lanes.clear();
                }
                let rng = ompc_testutil::Rng::new(seed);
                let mut mix = Mix { rng, budget: 3_000, next_token: 0, seen: Vec::new() };
                engine.run(&mut mix);
                mix.seen
            };
            let (laned, reference) = (run(true), run(false));
            assert_eq!(reference.len(), 3_000, "seed {seed}");
            assert_eq!(laned, reference, "seed {seed}");
        }
    }
}
