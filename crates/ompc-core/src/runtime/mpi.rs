//! The message-passing transport — the one real-cluster transport: every
//! lowered target task travels to its worker node as **one composite event
//! over `ompc-mpi`**, ready tasks bound for the same node in one dispatch
//! window ride together as a **task train**, and completions come home on
//! the region execution's **own completion channel** — the paper's
//! head/worker split (§4.2) with no head thread blocked per in-flight task
//! and no per-task probe loop.
//!
//! The lowering (`runtime/lowering.rs`) decides what a task is; this file
//! only delivers it. A composite's steps are serialized through the
//! `protocol` codec and sent as a tagged message; its payloads and exchange
//! notices ride the task's exclusive `(tag, communicator)` channel
//! (communicators chosen round-robin by tag, the paper's VCI mapping), and
//! the worker's handler answers with exactly one typed reply when the
//! last step finished — success or a typed error naming the node and event.
//!
//! **Waiting for someone else's bytes.** An `AwaitLocal` step only ever
//! names a receive an earlier car or data event of this execution queued
//! ahead of it on the same node, so the worker resolves it in arrival
//! order. A task whose input another owner has on the wire (another
//! tenant, an async or prefetch ticket) is *parked* here instead: nothing is
//! booked or sent, the completion loop keeps running, and the task is
//! lowered again — or failed with the transfer's own error — once the
//! lowering says the booking is over.
//!
//! **Task trains** (§7: per-task messaging overhead): `launch` does not
//! send a target task immediately. It buffers the car per destination node,
//! and the train departs when the dispatch window closes (the core calls
//! `await_completions`). Every departure is one [`EventRequest::TaskTrain`],
//! a train of one car included. Each car keeps its own reply channel, so
//! per-task typed errors, zombie-gate refusals, and fault blame survive
//! batching unchanged.
//!
//! **A completion channel per region execution**: the driver opens one
//! `(tag, communicator)` channel when the execution starts, and every train
//! envelope names it. After each car's typed reply the worker posts a compact
//! [`CompletionNotice`] there, so the head waits with one posted receive on
//! its own channel and then takes the noticed car's already-delivered reply —
//! work proportional to messages arrived, not tasks outstanding. Concurrent
//! region executions need no demultiplexer: no two share a channel, and the
//! mailbox's matching hands each notice to the one driver waiting for it.
//! Data events (the single enter/exit-data events the lowering posts) carry
//! no notice; while one is outstanding, or a task is parked, the wait is cut
//! every `PROBE_INTERVAL` to probe again.
//! [`crate::config::OmpcConfig::event_reply_timeout_ms`] remains the
//! last-resort bound on a reply that can never arrive.
//!
//! Tag layout: new-event notifications travel on the reserved
//! [`crate::protocol::CONTROL_TAG`]; every task, every completion channel and
//! every data or maintenance event owns a device-unique tag drawn from the
//! [`EventSystem`]'s one counter, so concurrent events cannot cross-talk.
//!
//! Fault tolerance needs nothing transport-specific: a killed worker's
//! zombie gate refuses every car of a later train individually — an error
//! reply and a notice each — so a launch onto a dead node degrades into a
//! stale failure the core restarts, never a hang.

use super::fault::LostBuffer;
use super::lowering::{Composite, Lowered, Lowering, Record};
use super::telemetry::{monotonic_us, Span, SpanPhase};
use super::{ExecutionBackend, RuntimeCore, TaskEvent};
use crate::data_manager::HEAD_NODE;
use crate::event::{EventSystem, ReplyChannel, TypedReply};
use crate::protocol::{
    CompletionNotice, EventNotification, EventRequest, Reply, TaskSpec, TrainCar,
};
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use ompc_mpi::{CommId, Communicator, Message, MpiError, Tag};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// How long the completion wait runs before probing again while a *data*
/// event (enter/exit transfer) is outstanding — those carry no completion
/// notice, so their reply channels are still probed — or a task is parked
/// on another owner's booking. Small enough to keep single-transfer latency
/// negligible, large enough not to spin a core.
const PROBE_INTERVAL: Duration = Duration::from_micros(100);

/// Bound on each reply wait while draining outstanding tasks after a failed
/// run, when no [`crate::config::OmpcConfig::event_reply_timeout_ms`] is
/// configured.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Where a dispatched task's reply will arrive.
enum ReplyLane {
    /// A composite task: the reply sits on the car's exclusive channel,
    /// followed by a completion notice on the execution's channel.
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

    /// The typed reply `msg`, received on this lane, carries.
    fn reply(&self, events: &EventSystem, msg: Message) -> TypedReply {
        match self {
            // A car's events were counted when its train departed.
            ReplyLane::Noticed { .. } => Reply::from_parts(&msg.data, msg.body, false),
            ReplyLane::Probed(channel) => events.accept_reply(channel, msg),
        }
    }
}

/// One dispatched task whose reply the completion loop is waiting for.
struct Pending {
    lane: ReplyLane,
    record: Record,
}

/// A task parked on the head until other owners' bookings of its inputs
/// are over ([`Lowered::Parked`]).
struct ParkedTask {
    task: usize,
    node: NodeId,
    awaiting: Vec<BufferId>,
    /// When it parked, for its `AwaitInflight` span.
    since: u64,
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
/// Selected with [`crate::config::BackendKind::Mpi`] (or its other name,
/// [`crate::config::BackendKind::Threaded`]).
pub struct MpiBackend {
    lowering: Lowering,
}

impl MpiBackend {
    /// Build a backend delivering `lowering`'s tasks for one region
    /// execution.
    pub(crate) fn new(lowering: Lowering) -> Self {
        Self { lowering }
    }

    /// Drive `core` to completion. After the run (successful or not) every
    /// outstanding task reply, notice and unclaimed push is drained, so no
    /// stale message bleeds into a later region execution.
    pub fn execute(&self, core: &mut RuntimeCore) -> OmpcResult<()> {
        let mut driver = MpiDriver::new(&self.lowering)?;
        let result = core.execute(&mut driver);
        driver.drain_outstanding();
        // On the success path the epilogue already flushed; after a failed
        // run, flush best-effort so no device copy or pushed copy leaks into
        // the next region.
        let _ = self.lowering.flush_deletes();
        result
    }
}

/// The [`ExecutionBackend`] face of the message-passing head: `launch`
/// lowers one task and buffers its car on its node's train,
/// `await_completions` flushes the trains and waits on the execution's
/// completion channel.
struct MpiDriver<'c> {
    lowering: &'c Lowering,
    /// This execution's completion channel: the head's handle on its
    /// communicator, and its tag. Every train envelope names it.
    notices: Communicator,
    notice_tag: Tag,
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
    /// Tasks waiting on the head for other owners' bookings.
    parked: Vec<ParkedTask>,
}

/// A retired task's outcome as the core's completion-stream entry.
fn event_of(task: usize, outcome: OmpcResult<()>) -> TaskEvent {
    match outcome {
        Ok(()) => TaskEvent::Completed(task),
        Err(error) => TaskEvent::Failed { task, error },
    }
}

impl<'c> MpiDriver<'c> {
    /// A driver for one region execution, with its completion channel open.
    fn new(lowering: &'c Lowering) -> OmpcResult<Self> {
        let events = &lowering.path.events;
        let (notice_tag, comm) = events.open_channel();
        Ok(Self {
            lowering,
            notices: events.communicator().on(comm)?,
            notice_tag,
            pending: BTreeMap::new(),
            ready: VecDeque::new(),
            trains: BTreeMap::new(),
            notice_tasks: HashMap::new(),
            parked: Vec::new(),
        })
    }

    /// Wait (bounded) for every outstanding reply — and each car's notice —
    /// after a failed run and settle its task, then empty the completion
    /// channel, so nothing bleeds into a later region execution: no reply
    /// left in a mailbox, no booking left on the wire for a later region to
    /// await.
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
        for (task, p) in std::mem::take(&mut self.pending) {
            let (node, tag, comm) = p.lane.address();
            let received = events
                .communicator()
                .on(comm)
                .and_then(|channel| channel.recv_timeout(Some(node), Some(tag), timeout));
            match received {
                Ok(msg) => {
                    // A car posts its one notice right after its reply.
                    if matches!(p.lane, ReplyLane::Noticed { .. }) {
                        let _ =
                            self.notices.recv_timeout(Some(node), Some(self.notice_tag), timeout);
                    }
                    let reply = p.lane.reply(events, msg);
                    let _ = self.lowering.retire(task, p.record, reply);
                }
                Err(error) => self.lowering.abandon(p.record, &error.into()),
            }
        }
        // Notices of cars abandoned after their train's envelope went out.
        while self.notices.try_recv(None, Some(self.notice_tag)).is_some() {}
    }

    /// Lower again every parked task whose awaited bookings are over, or
    /// fail it with the transfer's own error. It may park again.
    fn unpark(&mut self) -> OmpcResult<()> {
        if self.parked.is_empty() {
            return Ok(());
        }
        let tel = &self.lowering.path.telemetry;
        let (resolved, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut self.parked)
            .into_iter()
            .map(|p| (self.lowering.awaited(p.node, &p.awaiting), p))
            .partition(|(outcome, _)| outcome.is_some());
        self.parked = waiting.into_iter().map(|(_, p)| p).collect();
        for (outcome, p) in resolved {
            if tel.spans_enabled() {
                tel.record(
                    Span::new(SpanPhase::AwaitInflight, p.node, p.since, monotonic_us())
                        .task(p.task)
                        .attempt(tel.attempt(p.task))
                        .detail("first reader awaits another owner's transfer"),
                );
            }
            match outcome {
                Some(Err(error)) => self.ready.push_back(TaskEvent::Failed { task: p.task, error }),
                _ => self.launch(p.task, p.node)?,
            }
        }
        Ok(())
    }

    /// Send every buffered train; failures fall back on
    /// [`MpiDriver::fail_unsent_train`] and surface as per-task failures
    /// through `ready`.
    fn flush_trains(&mut self) {
        for (node, cars) in std::mem::take(&mut self.trains) {
            let tasks = cars.iter().map(|c| c.task).collect();
            if let Err(error) = self.send_train(node, cars) {
                self.fail_unsent_train(tasks, &error);
            }
        }
    }

    /// Emit one train's messages: a single notification carrying every
    /// car's recipe, its envelope naming this execution's completion
    /// channel, then each car's payloads and exchange notifications on the
    /// car's own channel.
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
        let spec_cars = cars
            .iter_mut()
            .map(|car| TrainCar {
                tag: car.tag,
                comm: car.comm,
                spec: TaskSpec { steps: std::mem::take(&mut car.work.steps) },
            })
            .collect();
        let (tag, comm) = (self.notice_tag, self.notices.comm_id());
        let request = EventRequest::TaskTrain(spec_cars);
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
        let reply = pending.lane.reply(events, msg);
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
    /// already-delivered typed reply, and retire it. Unknown tags (notices
    /// of cars abandoned after their envelope went out) and undecodable
    /// notices are discarded.
    fn on_notice(&mut self, data: &[u8], out: &mut Vec<TaskEvent>) -> OmpcResult<()> {
        let Ok(notice) = CompletionNotice::decode(data) else {
            return Ok(());
        };
        let Some(task) = self.notice_tasks.remove(&notice.tag.0) else {
            return Ok(());
        };
        // The worker sends the typed reply before posting the notice and
        // the transport delivers eagerly, so the receive cannot block.
        if let Some(p) = self.pending.remove(&task) {
            out.push(self.finish(task, p)?);
        }
        Ok(())
    }

    /// One pass of the completion loop: resolve every notice that has
    /// already arrived on the completion channel, then probe the reply
    /// channels of the outstanding *data* events (which carry no notice) —
    /// O(messages arrived) + O(data events), never O(tasks in flight).
    fn poll_replies(&mut self, out: &mut Vec<TaskEvent>) -> OmpcResult<()> {
        while let Some(msg) = self.notices.try_recv(None, Some(self.notice_tag)) {
            self.on_notice(&msg.data, out)?;
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
            Ok(Lowered::Parked(awaiting)) => {
                let since = lowering.path.telemetry.start();
                self.parked.push(ParkedTask { task, node, awaiting, since });
            }
            // Head-side failures are task failures, not backend breakdowns:
            // the core owns the propagate-vs-restart policy.
            Err(error) => self.ready.push_back(TaskEvent::Failed { task, error }),
        }
        Ok(())
    }

    fn assign(&mut self, assignment: &[NodeId]) {
        self.lowering.assign(assignment);
    }

    fn await_completions(&mut self) -> OmpcResult<Vec<TaskEvent>> {
        let mut events = Vec::new();
        let mut deadline = None;
        loop {
            // Parked tasks whose bookings are over join the trains, and the
            // dispatch window is closed: every buffered train departs now.
            self.unpark()?;
            self.flush_trains();
            events.extend(self.ready.drain(..));
            // Whatever already arrived rides along without waiting.
            self.poll_replies(&mut events)?;
            if !events.is_empty() {
                return Ok(events);
            }
            if self.pending.is_empty() && self.parked.is_empty() {
                return Err(OmpcError::Internal(
                    "mpi backend awaited completions with nothing outstanding".to_string(),
                ));
            }
            let deadline = *deadline.get_or_insert_with(|| {
                self.lowering.path.events.reply_timeout().map(|t| Instant::now() + t)
            });
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                return Err(OmpcError::Communication(format!(
                    "timed out waiting for the replies of {} outstanding task event(s)",
                    self.pending.len() + self.parked.len()
                )));
            }
            // One receive on the completion channel: a notice wakes it at
            // once. It is bounded by the reply deadline and — only while a
            // data event, which posts no notice, is outstanding or a task is
            // parked — by the probe interval.
            let probing = !self.parked.is_empty()
                || self.pending.values().any(|p| matches!(p.lane, ReplyLane::Probed(_)));
            let mut wait = if probing { PROBE_INTERVAL } else { Duration::MAX };
            if let Some(deadline) = deadline {
                wait = wait.min(deadline.saturating_duration_since(Instant::now()));
            }
            match self.notices.recv_timeout(None, Some(self.notice_tag), wait) {
                Ok(msg) => self.on_notice(&msg.data, &mut events)?,
                Err(MpiError::Timeout { .. }) => {}
                Err(error) => return Err(error.into()),
            }
        }
    }

    fn epilogue(&mut self) -> OmpcResult<()> {
        // `await_completions` flushed every train before the last completion, so only
        // deferred deletes no composite carried, and pushes nobody claimed, are left here.
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
    use crate::runtime::fault::FaultPlan;
    use crate::runtime::RuntimePlan;
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
        use super::{BufferedCar, MpiDriver};
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
        let mut driver = MpiDriver::new(&lowering).unwrap();
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

    /// A reader awaiting a receive an earlier car of its execution queued
    /// ahead of it on the node hears that receive's own error when it
    /// fails — here because the forward's source was killed mid-run, before
    /// the head has declared it dead — at once, with the source's blame,
    /// and with no reply time-out configured to rescue either car.
    #[test]
    fn a_reader_awaiting_a_failed_receive_replies_the_owners_error() {
        use super::MpiDriver;
        use crate::buffer::BufferRegistry;
        use crate::data_manager::DataManager;
        use crate::event::EventSystem;
        use crate::kernel::KernelRegistry;
        use crate::runtime::lowering::{DataPath, Lowering};
        use crate::runtime::telemetry::Telemetry;
        use crate::runtime::{ExecutionBackend, TaskEvent};
        use crate::task::{RegionGraph, TaskKind};
        use crate::worker::worker_main;
        use ompc_mpi::World;
        use parking_lot::{Condvar, Mutex};
        use std::collections::HashMap;
        use std::sync::Arc;

        ompc_testutil::with_timeout(std::time::Duration::from_secs(5), || {
            let world = World::with_communicators(3, 2);
            let kernels = Arc::new(KernelRegistry::new());
            let noop = kernels.register_fn("noop", 1e-6, |_| {});
            let workers: Vec<_> = [(1, 2), (2, 1)]
                .into_iter()
                .map(|(rank, handlers)| {
                    let (comm, kernels) = (world.communicator(rank), Arc::clone(&kernels));
                    std::thread::spawn(move || worker_main(comm, kernels, handlers))
                })
                .collect();
            let events = Arc::new(EventSystem::with_reply_timeout(world.communicator(0), None));
            // The latest version of `a` lives on node 2 — which has just been
            // killed, unknown yet to the head.
            let buffers = Arc::new(BufferRegistry::new());
            let a = buffers.register(vec![0u8; 8]);
            let mut dm = DataManager::new();
            dm.register_host_buffer(a, 8);
            dm.record_write(a, 2).unwrap();
            events.kill(2).unwrap();
            let mut graph = RegionGraph::new();
            for label in ["owner", "reader"] {
                let kind = TaskKind::Target { kernel: noop, cost_hint: 1e-6 };
                graph.add_task(kind, vec![Dependence::input(a)], label);
            }
            let path = DataPath {
                events: Arc::clone(&events),
                buffers,
                dm: Arc::new(Mutex::new(dm)),
                telemetry: Telemetry::off(),
            };
            let config = OmpcConfig { event_reply_timeout_ms: None, ..mpi_config() };
            let cv = Arc::new(Condvar::new());
            let lowering =
                Lowering::new(path, cv, 1, Arc::new(graph), HashMap::new(), &config).unwrap();

            // The owner forwards `a` from node 2, the reader awaits that
            // receive — in two trains on node 1, so that with two handler
            // threads the reader's wait can run beside the owner's receive.
            let mut driver = MpiDriver::new(&lowering).unwrap();
            driver.launch(0, 1).unwrap();
            driver.flush_trains();
            driver.launch(1, 1).unwrap();
            driver.flush_trains();
            let mut failed = HashMap::new();
            while failed.len() < 2 {
                for event in driver.await_completions().unwrap() {
                    match event {
                        TaskEvent::Failed { task, error } => failed.insert(task, error),
                        other => panic!("both cars must fail, got {other:?}"),
                    };
                }
            }
            for (task, error) in &failed {
                assert_eq!(error.origin_node(), Some(2), "task {task}: {error:?}");
                assert_eq!(error.root_cause(), &OmpcError::NodeFailure(2), "task {task}");
            }
            assert_eq!(failed[&0], failed[&1], "the reader replies the owner's very error");

            for node in 1..=2 {
                let _ = events.shutdown(node);
            }
            for worker in workers {
                let _ = worker.join();
            }
        });
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

    /// A run that fails settles the tasks still outstanding at that moment
    /// once their replies come: none of their bookings stays on the wire
    /// for a later region — which would otherwise wait on the head for a
    /// transfer nobody will ever finish.
    #[test]
    fn a_failed_run_leaves_no_booking_on_the_wire() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let config = OmpcConfig { event_reply_timeout_ms: Some(5_000), ..mpi_config() };
            let mut device = ClusterDevice::with_config(1, config);
            let read = device.register_kernel_fn("read", 1e-6, |args| {
                let _ = args.bytes(0);
            });
            // Still reading when its train-mate's failure ends the run.
            let slow_read = device.register_kernel_fn("slow-read", 1e-6, |args| {
                std::thread::sleep(std::time::Duration::from_millis(300));
                let _ = args.bytes(0);
            });
            let a = device.enter_data_f64s(&[1.0]);
            let mut region = device.target_region();
            region.target(crate::types::KernelId(424_242), vec![]);
            region.target(slow_read, vec![Dependence::input(a)]);
            assert!(region.run().is_err());

            let mut region = device.target_region();
            region.target(read, vec![Dependence::input(a)]);
            region.run().unwrap();
            device.shutdown();
        });
    }

    /// Two concurrently admitted regions with a train on both workers at
    /// the same time: the mailbox's matching alone hands every notice to the
    /// driver that owns it — both regions come out byte-correct and the head
    /// never wakes up for a message that is not its own.
    #[test]
    fn overlapped_regions_each_receive_their_own_completions() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Barrier};
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let config = OmpcConfig {
                max_concurrent_regions: 2,
                event_handler_threads: 2,
                max_inflight_tasks: 8,
                ..mpi_config()
            };
            let mut device = ClusterDevice::with_config(2, config);
            // The first car of each of the four trains (two regions × two
            // workers) waits here for the other three, so all four trains
            // are on the workers at once.
            let (barrier, started) = (Arc::new(Barrier::new(4)), AtomicUsize::new(0));
            let bump = device.register_kernel_fn("bump", 1e-3, move |args| {
                if started.fetch_add(1, Ordering::SeqCst) < 4 {
                    barrier.wait();
                }
                let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
                args.set_f64s(0, &v);
            });
            let runs = std::thread::scope(|scope| {
                let clients: Vec<_> = [0.0, 100.0]
                    .map(|base| {
                        let device = &device;
                        scope.spawn(move || {
                            let mut region = device.target_region();
                            let values: Vec<f64> = (0..4).map(|i| base + f64::from(i)).collect();
                            let buffers: Vec<_> =
                                values.iter().map(|&v| region.map_to_f64s(&[v])).collect();
                            let tasks: Vec<_> = buffers
                                .iter()
                                .map(|&b| region.target(bump, vec![Dependence::inout(b)]))
                                .collect();
                            for &b in &buffers {
                                region.map_from(b);
                            }
                            let (_, record) = region.run_recorded().unwrap();
                            let nodes: Vec<_> =
                                tasks.iter().map(|t| record.assignment[t.0]).collect();
                            (values, buffers, nodes)
                        })
                    })
                    .into_iter()
                    .collect();
                clients.into_iter().map(|client| client.join().unwrap()).collect::<Vec<_>>()
            });
            for (values, buffers, nodes) in runs {
                assert!(
                    [1, 2].iter().all(|w| nodes.contains(w)),
                    "a train on each worker: {nodes:?}"
                );
                for (value, buffer) in values.iter().zip(buffers) {
                    assert_eq!(device.buffer_f64s(buffer).unwrap(), vec![value + 1.0]);
                }
            }
            let head = device.mailbox_stats()[0];
            assert_eq!((head.empty_wakeups, head.queued), (0, 0), "{head:?}");
            device.shutdown();
        });
    }

    /// Task 0 on worker 1 writes what task 2 on worker 2 reads, and task 1
    /// — in the same train as task 0, after it — fails: the run ends after
    /// task 0's push to worker 2 was booked and before task 2 could claim
    /// it. `device` must have been built with task 1's injected error.
    fn fail_between_push_and_claim(device: &ClusterDevice) -> OmpcError {
        let mut graph = ompc_sched::TaskGraph::new();
        for _ in 0..3 {
            graph.add_task(1e-4);
        }
        graph.add_edge(0, 2, 64);
        graph.add_edge(1, 2, 64);
        let workload = crate::model::WorkloadGraph::new(graph, vec![64; 3]);
        let plan = RuntimePlan { assignment: vec![1, 1, 2], window: 4 };
        device.run_workload(&workload, &plan).unwrap_err()
    }

    fn config_failing_task(task: usize) -> OmpcConfig {
        OmpcConfig { fault_plan: FaultPlan::none().error_on_task(task), ..mpi_config() }
    }

    /// A push no reader claims does not outlive its execution: its booking
    /// is finished with an error — the transfer record withdrawn — and the
    /// worker it was pushed to receives and drops it.
    #[test]
    fn a_push_nobody_claims_is_rolled_back_and_dropped() {
        let mut device = ClusterDevice::with_config(2, config_failing_task(1));
        let before = device.mailbox_stats()[2];
        let err = fail_between_push_and_claim(&device);
        assert_eq!(err.origin_node(), Some(1), "got {err:?}");
        let record = device.last_run_record().unwrap();
        assert!(record.transfers.is_empty(), "the push's record is withdrawn: {record:?}");
        let reader = device.mailbox_stats()[2];
        let delivered = reader.delivered - before.delivered;
        assert_eq!(delivered, 2, "the push, then the event that dropped it");
        assert_eq!(reader.queued, 0, "{reader:?}");
        device.shutdown();
    }

    /// Every reply, notice and push of every execution is taken, on every
    /// rank: no mailbox keeps a message after a run whose multi-car train
    /// failed mid-way, after a run that failed between a push and its claim,
    /// or after any of fifty successful runs whose forwards are all pushes.
    #[test]
    fn no_reply_or_notice_outlives_its_execution() {
        let drained = |device: &ClusterDevice| {
            let stats = device.mailbox_stats();
            assert_eq!(stats.len(), 3);
            stats.iter().all(|rank| rank.queued == 0)
        };
        let mut independent = ompc_sched::TaskGraph::new();
        for _ in 0..4 {
            independent.add_task(1e-4);
        }
        let mut chain = independent.clone();
        for task in 1..4 {
            chain.add_edge(task - 1, task, 64);
        }
        let independent = crate::model::WorkloadGraph::new(independent, vec![64; 4]);
        let chain = crate::model::WorkloadGraph::new(chain, vec![64; 4]);

        // One train of four cars on worker 1; its second car fails.
        let mut device = ClusterDevice::with_config(2, config_failing_task(1));
        let one_train = RuntimePlan { assignment: vec![1; 4], window: 4 };
        let err = device.run_workload(&independent, &one_train).unwrap_err();
        assert_eq!(err.origin_node(), Some(1), "got {err:?}");
        assert!(drained(&device));
        fail_between_push_and_claim(&device);
        assert!(drained(&device));
        device.shutdown();

        let mut device = ClusterDevice::with_config(2, mpi_config());
        let spread = RuntimePlan { assignment: vec![1, 2, 1, 2], window: 4 };
        for run in 0..50 {
            let record = device.run_workload(&chain, &spread).unwrap();
            assert_eq!(record.transfer_count(), 3, "run {run}");
            assert!(drained(&device), "run {run}");
        }
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
