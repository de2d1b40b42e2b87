//! The message-passing transport: every lowered target task travels to its
//! worker node as **one composite event over `ompc-mpi`**, ready tasks bound
//! for the same node in one dispatch window ride together as a **task
//! train**, and completions come back over a well-known **completion
//! channel** — the paper's head/worker split (§4.2) with no head thread
//! blocked per in-flight task and no per-task probe loop.
//!
//! The shared lowering (`runtime/lowering.rs`) decides what a task is; this
//! file only delivers it. A composite's steps are serialized through the
//! `protocol` codec and sent as a tagged message; its payloads and exchange
//! notices ride the task's exclusive `(tag, communicator)` channel
//! (communicators chosen round-robin by tag, the paper's VCI mapping), and
//! the worker's handler answers with exactly one typed reply when the
//! last step finished — success or a typed error naming the node and event.
//! `AwaitLocal` travels with the other steps and **is resolved on the
//! worker**, bounded by its time-out (the threaded transport resolves it on
//! the head and fails at once).
//!
//! **Task trains** (§7: per-task messaging overhead): `launch` does not
//! send a target task immediately. It buffers the car per destination node,
//! and the train departs when the dispatch window closes (the core calls
//! `await_completions`). A train of one car is sent as a plain
//! [`EventRequest::Task`], so batching changes message *count*, never
//! message *meaning*. Each car keeps its own reply channel, so per-task
//! typed errors, zombie-gate refusals, and fault blame survive batching
//! unchanged.
//!
//! **Completion channel**: instead of `iprobe`ing the reply channel of
//! every outstanding task (O(tasks in flight) per poll), workers post a
//! compact [`CompletionNotice`] to the reserved
//! [`crate::protocol::COMPLETION_TAG`] after each task or train car. The
//! head blocks on that one channel (a condvar wakeup, not a sleep poll) and
//! receives each noticed task's already-delivered typed reply — work
//! proportional to messages arrived, not tasks outstanding. Data events
//! (the single enter/exit-data events the lowering posts) carry no notice
//! and keep the bounded per-channel probe;
//! [`crate::config::OmpcConfig::event_reply_timeout_ms`] remains the
//! last-resort bound on a reply that can never arrive.
//!
//! Tag layout: new-event notifications travel on the reserved
//! [`crate::protocol::CONTROL_TAG`], completion notices on
//! [`crate::protocol::COMPLETION_TAG`]; every task and every data or
//! maintenance event owns a device-unique tag drawn from the
//! [`EventSystem`](crate::event::EventSystem)'s one counter, so concurrent
//! events cannot cross-talk.
//!
//! Fault tolerance needs nothing transport-specific: a killed worker's
//! zombie gate refuses every later task — and every car of a later train,
//! individually — with an error reply, so a launch onto a dead node degrades
//! into a stale failure the core restarts, never a hang.

use super::fault::LostBuffer;
use super::lowering::{Composite, Lowered, Lowering, Record};
use super::telemetry::{monotonic_us, Span, SpanPhase};
use super::{ExecutionBackend, RuntimeCore, TaskEvent};
use crate::data_manager::HEAD_NODE;
use crate::event::ReplyChannel;
use crate::protocol::{
    CompletionNotice, EventNotification, EventRequest, Reply, TaskSpec, TrainCar, COMPLETION_TAG,
};
use crate::types::{NodeId, OmpcError, OmpcResult};
use ompc_mpi::{CommId, Tag};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the probe loop sleeps between polls while a *data* event
/// (enter/exit transfer) is outstanding — those carry no completion notice,
/// so their reply channels are still probed. Small enough to keep
/// single-transfer latency negligible, large enough not to spin a core.
const PROBE_INTERVAL: Duration = Duration::from_micros(100);

/// Upper bound on one blocking wait for a completion notice. An arriving
/// notice wakes the waiter immediately through the transport's condvar; the
/// slice only bounds how long an idle wait can defer the deadline check.
const NOTICE_WAIT_SLICE: Duration = Duration::from_millis(100);

/// Bound on each reply wait while draining outstanding tasks after a failed
/// run, when no [`crate::config::OmpcConfig::event_reply_timeout_ms`] is
/// configured.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Demultiplexer for the shared completion channel. With concurrent region
/// executions admitted, several [`MpiDriver`]s consume the one
/// [`COMPLETION_TAG`] channel; a driver that received another region's
/// notice and discarded it would leave the owner blocked on a completion
/// that already arrived. The router keeps a registry of which region owns
/// each outstanding reply tag, lets exactly one driver *pump* the channel
/// at a time, and parks foreign notices for their owning region — whose
/// driver is woken through the condvar instead of racing for the channel.
///
/// With a single admitted region the router degenerates to the bare
/// channel: the pump is never contended and nothing is ever parked, so the
/// serial wire behavior is byte-identical.
pub(crate) struct NoticeRouter {
    inner: Mutex<RouterInner>,
    /// Signalled when a notice is parked for some region or the pump is
    /// released, so waiting drivers re-check their queues.
    arrived: Condvar,
}

#[derive(Default)]
struct RouterInner {
    /// Reply tag → owning region, for every outstanding target task of
    /// every admitted region.
    owners: HashMap<u64, u64>,
    /// Notices received by a pumping driver on behalf of another region,
    /// keyed by the owning region.
    parked: HashMap<u64, VecDeque<Vec<u8>>>,
    /// Whether some driver currently holds the pump (is the one reader of
    /// the shared channel).
    pumping: bool,
}

impl NoticeRouter {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self { inner: Mutex::new(RouterInner::default()), arrived: Condvar::new() })
    }

    /// Claim `tag`'s eventual completion notice for `region`.
    fn register(&self, tag: Tag, region: u64) {
        self.inner.lock().owners.insert(tag.0, region);
    }

    /// Drop the claim on `tag`: a notice arriving later is stale and gets
    /// discarded by whichever driver pumps it.
    fn unregister(&self, tag: Tag) {
        self.inner.lock().owners.remove(&tag.0);
    }

    /// Classify one raw notice pulled off the channel by a driver of
    /// `region`: `Some` when it belongs to that driver, `None` when it was
    /// parked for its owning region or discarded (stale tag of an already
    /// drained run).
    fn route(&self, region: u64, data: Vec<u8>) -> Option<Vec<u8>> {
        let Ok(notice) = CompletionNotice::decode(&data) else { return None };
        let mut inner = self.inner.lock();
        match inner.owners.get(&notice.tag.0) {
            Some(&owner) if owner == region => Some(data),
            Some(&owner) => {
                inner.parked.entry(owner).or_default().push_back(data);
                drop(inner);
                self.arrived.notify_all();
                None
            }
            None => None,
        }
    }
}

/// Where a dispatched task's reply will arrive.
enum ReplyLane {
    /// A composite task: the worker posts a completion notice, then the
    /// reply sits on the car's exclusive channel.
    Noticed { node: NodeId, tag: Tag, comm: CommId },
    /// A data event: no notice, its channel is probed.
    Probed(ReplyChannel),
}

impl ReplyLane {
    fn address(&self) -> (NodeId, Tag, CommId) {
        match self {
            ReplyLane::Noticed { node, tag, comm } => (*node, *tag, *comm),
            ReplyLane::Probed(channel) => (channel.node, channel.tag, channel.comm),
        }
    }
}

/// One dispatched task whose reply the completion loop is waiting for.
struct Pending {
    lane: ReplyLane,
    record: Record,
}

/// One lowered target task waiting for its train to depart.
struct BufferedCar {
    /// Core task id.
    task: usize,
    /// The car's exclusive reply channel.
    tag: Tag,
    comm: CommId,
    work: Composite,
}

/// Executes a region graph through composite task messages over `ompc-mpi`.
/// Selected with [`crate::config::BackendKind::Mpi`].
pub struct MpiBackend {
    lowering: Lowering,
    /// The owning device's completion-channel demultiplexer, shared by
    /// every concurrently admitted region execution.
    router: Arc<NoticeRouter>,
}

impl MpiBackend {
    /// Build a backend delivering `lowering`'s tasks for one region
    /// execution.
    pub(crate) fn new(lowering: Lowering, router: Arc<NoticeRouter>) -> Self {
        Self { lowering, router }
    }

    /// Drive `core` to completion. After the run (successful or not) every
    /// outstanding task reply is drained, so no stale message bleeds into
    /// a later region execution.
    pub fn execute(&self, core: &mut RuntimeCore) -> OmpcResult<()> {
        let mut driver = MpiDriver::new(&self.lowering, &self.router);
        let result = core.execute(&mut driver);
        driver.drain_outstanding();
        // On the success path the epilogue already flushed; after a failed
        // run, flush best-effort so no device copy leaks into the next
        // region.
        let _ = self.lowering.flush_deletes();
        result
    }
}

/// The [`ExecutionBackend`] face of the message-passing head: `launch`
/// lowers one task and buffers its car on its node's train,
/// `await_completions` flushes the trains and blocks on the completion
/// channel.
struct MpiDriver<'c> {
    lowering: &'c Lowering,
    router: &'c NoticeRouter,
    /// Outstanding tasks, keyed by core task id.
    pending: BTreeMap<usize, Pending>,
    /// Locally produced events (tasks the lowering completed or failed on
    /// the head) awaiting the next `await_completions`.
    ready: VecDeque<TaskEvent>,
    /// Lowered target tasks buffered per destination node, departing
    /// together as one [`EventRequest::TaskTrain`] when the dispatch
    /// window closes.
    trains: BTreeMap<NodeId, Vec<BufferedCar>>,
    /// Event tag → core task id for outstanding target tasks: the index a
    /// [`CompletionNotice`] is resolved through.
    notice_tasks: HashMap<u64, usize>,
}

/// A retired task's outcome as the core's completion-stream entry.
fn event_of(task: usize, outcome: OmpcResult<()>) -> TaskEvent {
    match outcome {
        Ok(()) => TaskEvent::Completed(task),
        Err(error) => TaskEvent::Failed { task, error },
    }
}

impl<'c> MpiDriver<'c> {
    fn new(lowering: &'c Lowering, router: &'c NoticeRouter) -> Self {
        Self {
            lowering,
            router,
            pending: BTreeMap::new(),
            ready: VecDeque::new(),
            trains: BTreeMap::new(),
            notice_tasks: HashMap::new(),
        }
    }

    /// Wait (bounded) for every outstanding reply after a failed run, and
    /// clear every completion-channel leftover so nothing bleeds into a
    /// later region execution.
    fn drain_outstanding(&mut self) {
        let events = &self.lowering.path.events;
        // Trains that never departed reached no worker: fail their cars
        // locally. (The pushed ready events die with the driver — the run
        // is already over.)
        for (_, cars) in std::mem::take(&mut self.trains) {
            let tasks = cars.iter().map(|c| c.task).collect();
            let error =
                OmpcError::Communication("run aborted before the task train departed".into());
            self.fail_unsent_train(tasks, &error);
        }
        let timeout = events.reply_timeout().unwrap_or(DRAIN_TIMEOUT);
        for (_, p) in std::mem::take(&mut self.pending) {
            let (node, tag, comm) = p.lane.address();
            if let Ok(channel) = events.communicator().on(comm) {
                let _ = channel.recv_timeout(Some(node), Some(tag), timeout);
            }
        }
        // Drop the claims before clearing the index, so a notice arriving
        // even later is discarded as stale by whichever driver pumps it.
        for tag in self.notice_tasks.keys() {
            self.router.unregister(Tag(*tag));
        }
        self.notice_tasks.clear();
        // The drained replies' notices were never consumed. Clear this
        // region's leftovers — parked notices and whatever already sits on
        // the shared channel — without eating another admitted region's
        // notices: pump through the router so foreign notices park for
        // their owners while this region's (now unclaimed) tags discard.
        let router = self.router;
        let pump = {
            let mut inner = router.inner.lock();
            inner.parked.remove(&self.lowering.region);
            if inner.pumping {
                // The active pumper routes our stale notices to the
                // discard path itself; nothing left to do.
                false
            } else {
                inner.pumping = true;
                true
            }
        };
        if pump {
            while let Some(msg) = events.communicator().try_recv(None, Some(COMPLETION_TAG)) {
                let _ = router.route(self.lowering.region, msg.data);
            }
            router.inner.lock().pumping = false;
            router.arrived.notify_all();
        }
    }

    /// Send every buffered train. A train of one car goes out as a plain
    /// task message; failures fall back on [`MpiDriver::fail_unsent_train`]
    /// and surface as per-task failures through `ready`.
    fn flush_trains(&mut self) {
        for (node, cars) in std::mem::take(&mut self.trains) {
            let tasks = cars.iter().map(|c| c.task).collect();
            if let Err(error) = self.send_train(node, cars) {
                self.fail_unsent_train(tasks, &error);
            }
        }
    }

    /// Emit one train's messages: a single notification carrying every
    /// car's recipe (or a plain task message for a train of one), then each
    /// car's payloads and exchange notifications on the car's own channel.
    ///
    /// Counters are accumulated locally and committed only once the whole
    /// train is on the wire: a train that fails mid-send is failed as a
    /// whole by [`MpiDriver::fail_unsent_train`] and its cars re-dispatched,
    /// so recording interleaved with the sends would double-count the cars
    /// that preceded the failure. Committing after the last send keeps
    /// per-task accounting identical however tasks are packed into trains
    /// and across retries.
    fn send_train(&mut self, node: NodeId, mut cars: Vec<BufferedCar>) -> OmpcResult<()> {
        let events = &self.lowering.path.events;
        let tel = &self.lowering.path.telemetry;
        let timed = tel.spans_enabled();
        let t0 = tel.start();
        let spec_of =
            |car: &mut BufferedCar| TaskSpec { steps: std::mem::take(&mut car.work.steps) };
        let (request, (tag, comm)) = if let [car] = cars.as_mut_slice() {
            (EventRequest::Task(spec_of(car)), (car.tag, car.comm))
        } else {
            let spec_cars: Vec<TrainCar> = cars
                .iter_mut()
                .map(|car| TrainCar { tag: car.tag, comm: car.comm, spec: spec_of(car) })
                .collect();
            (EventRequest::TaskTrain(spec_cars), events.open_channel())
        };
        events.notify(node, &EventNotification { request, tag, comm, timed })?;
        if timed {
            // The envelope notification only: the cars' own frames get
            // per-task `Send` spans below, so the buckets never count the
            // same microsecond twice.
            tel.record(
                Span::new(SpanPhase::TrainFlush, HEAD_NODE, t0, monotonic_us())
                    .detail(format!("node {node}, {} car(s)", cars.len())),
            );
        }
        let mut recorded: Vec<Option<u64>> = Vec::new();
        for car in cars {
            recorded.push(None);
            let send_start = tel.start();
            let mut car_bytes = 0u64;
            let channel = events.communicator().on(car.comm)?;
            for frame in car.work.payloads {
                let bytes = frame.len() as u64;
                channel.send_with_body(node, car.tag, Vec::new(), frame)?;
                car_bytes += bytes;
                recorded.push(Some(bytes));
            }
            for (src, request, bytes) in car.work.exchanges {
                events.notify(
                    src,
                    &EventNotification { request, tag: car.tag, comm: car.comm, timed: false },
                )?;
                car_bytes += bytes;
                recorded.push(Some(bytes));
            }
            if timed {
                tel.record(
                    Span::new(SpanPhase::Send, HEAD_NODE, send_start, monotonic_us())
                        .task(car.task)
                        .attempt(tel.attempt(car.task))
                        .bytes(car_bytes),
                );
            }
        }
        // Whole train on the wire: commit the per-car accounting.
        for bytes in recorded {
            events.counters().record(bytes);
        }
        Ok(())
    }

    /// The train carrying `tasks` never departed: let the lowering roll
    /// each launch back and report each car as a failed task (the core owns
    /// the propagate-vs-restart policy).
    fn fail_unsent_train(&mut self, tasks: Vec<usize>, error: &OmpcError) {
        for task in tasks {
            if let Some(p) = self.pending.remove(&task) {
                let (_, tag, _) = p.lane.address();
                self.notice_tasks.remove(&tag.0);
                self.router.unregister(tag);
                self.lowering.abandon(p.record, error);
            }
            self.ready.push_back(TaskEvent::Failed { task, error: error.clone() });
        }
    }

    /// Receive the reply waiting on `pending`'s lane and retire the task
    /// with it. Records a head-side `Reply` span covering the decode.
    fn finish(&mut self, task: usize, pending: Pending) -> OmpcResult<TaskEvent> {
        let events = &self.lowering.path.events;
        let tel = &self.lowering.path.telemetry;
        let (node, tag, comm) = pending.lane.address();
        let msg = events.communicator().on(comm)?.recv(Some(node), Some(tag))?;
        let t0 = tel.start();
        let reply = match &pending.lane {
            // A car's events were counted when its train departed.
            ReplyLane::Noticed { .. } => Reply::from_parts(&msg.data, msg.body, false),
            ReplyLane::Probed(channel) => events.accept_reply(channel, msg),
        };
        if tel.spans_enabled() {
            tel.record(
                Span::new(SpanPhase::Reply, HEAD_NODE, t0, monotonic_us())
                    .task(task)
                    .attempt(tel.attempt(task))
                    .from(node),
            );
        }
        Ok(event_of(task, self.lowering.retire(task, pending.record, reply)))
    }

    /// Resolve one completion notice: look up the noticed task, receive its
    /// already-delivered typed reply, and retire it. Unknown tags (stale
    /// notices of a previously drained run) and undecodable notices are
    /// discarded.
    fn on_notice(&mut self, data: &[u8], out: &mut Vec<TaskEvent>) -> OmpcResult<()> {
        let Ok(notice) = CompletionNotice::decode(data) else {
            return Ok(());
        };
        let Some(task) = self.notice_tasks.remove(&notice.tag.0) else {
            return Ok(());
        };
        self.router.unregister(notice.tag);
        // The worker sends the typed reply before posting the notice and
        // the transport delivers eagerly, so the receive cannot block.
        if let Some(p) = self.pending.remove(&task) {
            out.push(self.finish(task, p)?);
        }
        Ok(())
    }

    /// Take the next completion notice addressed to this region without
    /// blocking: parked notices first, then whatever already arrived on the
    /// shared channel — pumped only when no other region's driver holds the
    /// pump (that pumper parks our notices for us).
    fn try_next_notice(&self) -> Option<Vec<u8>> {
        let router = self.router;
        {
            let mut inner = router.inner.lock();
            if let Some(data) =
                inner.parked.get_mut(&self.lowering.region).and_then(|q| q.pop_front())
            {
                return Some(data);
            }
            if inner.pumping {
                return None;
            }
            inner.pumping = true;
        }
        let mut own = None;
        while own.is_none() {
            match self.lowering.path.events.communicator().try_recv(None, Some(COMPLETION_TAG)) {
                Some(msg) => own = router.route(self.lowering.region, msg.data),
                None => break,
            }
        }
        router.inner.lock().pumping = false;
        router.arrived.notify_all();
        own
    }

    /// Block up to `wait` for the next completion notice addressed to this
    /// region: parked notices first, then pump the shared channel — or,
    /// when another region's driver holds the pump, sleep on the router's
    /// condvar until that pumper parks something for us or hands the pump
    /// over.
    fn wait_notice(&self, wait: Duration) -> Option<Vec<u8>> {
        let router = self.router;
        let deadline = Instant::now() + wait;
        loop {
            let pump = {
                let mut inner = router.inner.lock();
                if let Some(data) =
                    inner.parked.get_mut(&self.lowering.region).and_then(|q| q.pop_front())
                {
                    return Some(data);
                }
                if inner.pumping {
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    if timeout.is_zero() {
                        return None;
                    }
                    router.arrived.wait_for(&mut inner, timeout);
                    false
                } else {
                    inner.pumping = true;
                    true
                }
            };
            if pump {
                let own = self.pump_until(deadline);
                router.inner.lock().pumping = false;
                router.arrived.notify_all();
                if own.is_some() {
                    return own;
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// Pump the shared completion channel until a notice for this region
    /// arrives or `deadline` passes, parking foreign notices as they come.
    /// Caller holds the router's pump.
    fn pump_until(&self, deadline: Instant) -> Option<Vec<u8>> {
        loop {
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                return None;
            }
            match self.lowering.path.events.communicator().recv_timeout(
                None,
                Some(COMPLETION_TAG),
                timeout,
            ) {
                Ok(msg) => {
                    if let Some(own) = self.router.route(self.lowering.region, msg.data) {
                        return Some(own);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    /// One pass of the completion loop: resolve every notice that has
    /// already arrived on the completion channel, then probe the reply
    /// channels of the outstanding *data* events (which carry no notice) —
    /// O(messages arrived) + O(data events), never O(tasks in flight).
    fn poll_replies(&mut self, out: &mut Vec<TaskEvent>) -> OmpcResult<()> {
        while let Some(data) = self.try_next_notice() {
            self.on_notice(&data, out)?;
        }
        let comm = self.lowering.path.events.communicator();
        let arrived: Vec<usize> = self
            .pending
            .iter()
            .filter(|(_, p)| match &p.lane {
                ReplyLane::Noticed { .. } => false,
                ReplyLane::Probed(ch) => {
                    comm.on(ch.comm).is_ok_and(|c| c.iprobe(Some(ch.node), Some(ch.tag)).is_some())
                }
            })
            .map(|(&task, _)| task)
            .collect();
        for task in arrived {
            if let Some(p) = self.pending.remove(&task) {
                out.push(self.finish(task, p)?);
            }
        }
        Ok(())
    }
}

impl ExecutionBackend for MpiDriver<'_> {
    fn launch(&mut self, task: usize, node: NodeId) -> OmpcResult<()> {
        let lowering = self.lowering;
        match lowering.lower(task, node) {
            Ok(Lowered::Done) => self.ready.push_back(TaskEvent::Completed(task)),
            // Target tasks are *buffered* on their node's train, not sent —
            // the train departs when the window closes.
            Ok(Lowered::Task(work, record)) => {
                let (tag, comm) = lowering.path.events.open_channel();
                self.notice_tasks.insert(tag.0, task);
                self.router.register(tag, lowering.region);
                self.trains.entry(node).or_default().push(BufferedCar { task, tag, comm, work });
                let lane = ReplyLane::Noticed { node, tag, comm };
                self.pending.insert(task, Pending { lane, record });
            }
            Ok(Lowered::Event(event, record)) => match lowering.post(task, event) {
                Ok(channel) => {
                    let lane = ReplyLane::Probed(channel);
                    self.pending.insert(task, Pending { lane, record });
                }
                Err(error) => {
                    let outcome = lowering.retire(task, record, Err(error));
                    self.ready.push_back(event_of(task, outcome));
                }
            },
            // Head-side failures are task failures, not backend breakdowns:
            // the core owns the propagate-vs-restart policy.
            Err(error) => self.ready.push_back(TaskEvent::Failed { task, error }),
        }
        Ok(())
    }

    fn await_completions(&mut self) -> OmpcResult<Vec<TaskEvent>> {
        // The dispatch window is closed: every buffered train departs now.
        self.flush_trains();
        let mut events: Vec<TaskEvent> = self.ready.drain(..).collect();
        // Whatever already arrived rides along without waiting.
        self.poll_replies(&mut events)?;
        if !events.is_empty() {
            return Ok(events);
        }
        if self.pending.is_empty() {
            return Err(OmpcError::Internal(
                "mpi backend awaited completions with nothing outstanding".to_string(),
            ));
        }
        let deadline = self.lowering.path.events.reply_timeout().map(|t| Instant::now() + t);
        loop {
            let all_noticed =
                self.pending.values().all(|p| matches!(p.lane, ReplyLane::Noticed { .. }));
            if all_noticed {
                // Every outstanding task posts a completion notice: block
                // on the completion channel (condvar wakeup on arrival) in
                // deadline-bounded slices.
                let wait = deadline
                    .map(|d| d.saturating_duration_since(Instant::now()).min(NOTICE_WAIT_SLICE))
                    .unwrap_or(NOTICE_WAIT_SLICE);
                if let Some(data) = self.wait_notice(wait) {
                    self.on_notice(&data, &mut events)?;
                }
            } else {
                // A data event carries no notice: fall back to the bounded
                // sleep-poll for its reply channel.
                std::thread::sleep(PROBE_INTERVAL);
            }
            self.poll_replies(&mut events)?;
            if !events.is_empty() {
                return Ok(events);
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(OmpcError::Communication(format!(
                        "timed out waiting for the replies of {} outstanding task event(s)",
                        self.pending.len()
                    )));
                }
            }
        }
    }

    fn epilogue(&mut self) -> OmpcResult<()> {
        // `await_completions` flushed every train before the last
        // completion, so only deferred maintenance that never found a
        // composite-task carrier is left to flush here.
        self.lowering.flush_deletes()
    }

    fn invalidate_node(&mut self, node: NodeId) -> Vec<LostBuffer> {
        self.lowering.invalidate_node(node)
    }

    fn replan(&mut self, alive_workers: &[NodeId]) -> Option<Vec<NodeId>> {
        Some(self.lowering.replan(alive_workers))
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::ClusterDevice;
    use crate::config::{BackendKind, OmpcConfig};
    use crate::types::{Dependence, OmpcError};

    fn mpi_config() -> OmpcConfig {
        OmpcConfig { backend: BackendKind::Mpi, ..OmpcConfig::small() }
    }

    #[test]
    fn listing1_chain_runs_end_to_end_over_mpi_messages() {
        let mut device = ClusterDevice::with_config(2, mpi_config());
        let foo = device.register_kernel_fn("foo", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let bar = device.register_kernel_fn("bar", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 10.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0, 2.0, 3.0, 4.0]);
        region.target(foo, vec![Dependence::inout(a)]);
        region.target(bar, vec![Dependence::inout(a)]);
        region.map_from(a);
        let report = region.run().unwrap();
        assert_eq!(report.target_tasks, 2);
        assert!(report.bytes_moved > 0, "task payloads travel as real messages");
        assert_eq!(device.buffer_f64s(a).unwrap(), vec![20.0, 30.0, 40.0, 50.0]);
        // No head pool thread was ever spawned: the MPI backend is pure
        // message passing.
        assert_eq!(device.pool_threads(), 0);
        device.shutdown();
    }

    #[test]
    fn independent_tasks_spread_and_colocated_readers_wait() {
        let mut device = ClusterDevice::with_config(3, mpi_config());
        let bump = device.register_kernel_fn("bump", 1e-4, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let buffers: Vec<_> = (0..6).map(|i| region.map_to_f64s(&[i as f64])).collect();
        for &b in &buffers {
            region.target(bump, vec![Dependence::inout(b)]);
        }
        for &b in &buffers {
            region.map_from(b);
        }
        region.run().unwrap();
        for (i, &b) in buffers.iter().enumerate() {
            assert_eq!(device.buffer_f64s(b).unwrap(), vec![i as f64 + 1.0]);
        }
        device.shutdown();
    }

    #[test]
    fn host_tasks_and_empty_regions_work_over_mpi() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let device = ClusterDevice::with_config(1, mpi_config());
        let empty = device.target_region();
        assert_eq!(empty.run().unwrap().tasks_executed, 0);
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[5.0]);
        let flag = Arc::new(AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        region.host_task(vec![Dependence::input(a)], move |_| {
            flag2.store(true, Ordering::SeqCst);
        });
        region.run().unwrap();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn host_task_reads_device_written_buffer_without_explicit_flush() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let mut device = ClusterDevice::with_config(2, mpi_config());
        let bump = device.register_kernel_fn("bump", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[41.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        // No map_from before the host task: the runtime must flush the
        // device-latest bytes home on its own before the closure runs.
        region.host_task(vec![Dependence::input(a)], move |buffers| {
            let raw = buffers.get(a).unwrap();
            let bits = u64::from_le_bytes(raw[..8].try_into().unwrap());
            seen2.store(bits, Ordering::SeqCst);
        });
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(f64::from_bits(seen.load(Ordering::SeqCst)), 42.0);
        device.shutdown();
    }

    #[test]
    fn host_task_reading_an_exited_buffer_does_not_panic() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        // `map_from` on an ordinary buffer releases its residency entry;
        // a host task reading it afterwards must use the flushed host copy
        // instead of asking the data manager for a retrieve source.
        let mut device = ClusterDevice::with_config(2, mpi_config());
        let bump = device.register_kernel_fn("bump", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[9.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.map_from(a);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        region.host_task(vec![Dependence::input(a)], move |buffers| {
            let raw = buffers.get(a).unwrap();
            seen2.store(u64::from_le_bytes(raw[..8].try_into().unwrap()), Ordering::SeqCst);
        });
        region.run().unwrap();
        assert_eq!(f64::from_bits(seen.load(Ordering::SeqCst)), 10.0);
        assert_eq!(device.buffer_f64s(a).unwrap(), vec![10.0]);
        device.shutdown();
    }

    /// Regression test for the counter drift of re-queued train cars: a
    /// train that fails mid-send (here: a later car naming a communicator
    /// the world does not have, after an earlier car's payload already
    /// went out) is failed as a whole and its cars re-dispatched, so
    /// committing counters interleaved with the sends would count the
    /// already-sent cars twice. Accounting must commit only at a
    /// successful flush — the failed attempt counts nothing, the retry
    /// counts each car exactly once.
    #[test]
    fn mid_train_send_failure_commits_no_counters_until_the_retry_lands() {
        use super::{BufferedCar, MpiDriver, NoticeRouter};
        use crate::buffer::BufferRegistry;
        use crate::event::EventSystem;
        use crate::kernel::KernelRegistry;
        use crate::runtime::lowering::{Composite, DataPath, Lowering};
        use crate::runtime::telemetry::Telemetry;
        use crate::task::RegionGraph;
        use crate::worker::worker_main;
        use ompc_mpi::{Bytes, CommId, Tag, World};
        use parking_lot::Condvar;
        use std::collections::HashMap;
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        let world = World::with_communicators(2, 2);
        let kernels = Arc::new(KernelRegistry::new());
        let worker = {
            let comm = world.communicator(1);
            let kernels = Arc::clone(&kernels);
            std::thread::spawn(move || worker_main(comm, kernels, 1))
        };
        let events = Arc::new(EventSystem::with_reply_timeout(world.communicator(0), None));
        let path = DataPath {
            events: Arc::clone(&events),
            buffers: Arc::new(BufferRegistry::new()),
            dm: Arc::default(),
            telemetry: Telemetry::off(),
        };
        let lowering = Lowering::new(
            path,
            Arc::new(Condvar::new()),
            1,
            Arc::new(RegionGraph::new()),
            HashMap::new(),
            &mpi_config(),
        )
        .unwrap();
        let router = NoticeRouter::new();
        let mut driver = MpiDriver::new(&lowering, &router);
        let snapshot = || {
            let c = events.counters();
            (
                c.events.load(Ordering::Relaxed),
                c.data_events.load(Ordering::Relaxed),
                c.bytes_moved.load(Ordering::Relaxed),
            )
        };
        let car = |task: usize, (tag, comm): (Tag, CommId), payload: Option<Vec<u8>>| BufferedCar {
            task,
            tag,
            comm,
            work: Composite {
                steps: Vec::new(),
                payloads: payload.map(Bytes::from).into_iter().collect(),
                exchanges: Vec::new(),
            },
        };

        let err = driver.send_train(
            1,
            vec![
                car(0, events.open_channel(), Some(vec![7u8; 16])),
                car(1, (events.open_channel().0, CommId(99)), None),
            ],
        );
        assert!(err.is_err(), "a car on a communicator the world lacks must fail the send");
        assert_eq!(snapshot(), (0, 0, 0), "a train that failed mid-send commits nothing");

        driver
            .send_train(
                1,
                vec![
                    car(0, events.open_channel(), Some(vec![7u8; 16])),
                    car(1, events.open_channel(), None),
                ],
            )
            .unwrap();
        assert_eq!(
            snapshot(),
            (3, 1, 16),
            "the successful retry commits each car's event and its payload exactly once"
        );

        let _ = events.shutdown(1);
        let _ = worker.join();
    }

    #[test]
    fn unregistered_kernel_is_a_typed_error_not_a_hang() {
        let mut device = ClusterDevice::with_config(2, mpi_config());
        let bogus = crate::types::KernelId(424_242);
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0, 2.0]);
        region.target(bogus, vec![Dependence::inout(a)]);
        region.map_from(a);
        let err = region.run().unwrap_err();
        assert_eq!(err.root_cause(), &OmpcError::UnknownKernel(bogus), "got {err:?}");
        assert!(err.origin_node().is_some_and(|n| (1..=2).contains(&n)));
        device.shutdown();
    }

    #[test]
    fn sim_backend_kind_is_rejected_by_the_device() {
        let device = ClusterDevice::with_config(
            1,
            OmpcConfig { backend: BackendKind::Sim, ..OmpcConfig::small() },
        );
        let noop = device.register_kernel_fn("noop", 1e-6, |_| {});
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0]);
        region.target(noop, vec![Dependence::inout(a)]);
        let err = region.run().unwrap_err();
        assert!(matches!(err, OmpcError::InvalidConfig(_)), "got {err:?}");
    }
}
