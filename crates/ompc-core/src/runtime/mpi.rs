//! The message-passing transport — the one real-cluster transport: every
//! lowered region task — target, enter-data or exit-data — travels to its
//! worker node as **one composite event over `ompc-mpi`**, ready tasks
//! bound for the same node in one dispatch window ride together as a
//! **task train**, and completions come home on
//! the region execution's **own completion channel** — the paper's
//! head/worker split (§4.2) with no head thread blocked per in-flight task
//! and no per-task probe loop.
//!
//! The lowering (`runtime/lowering.rs`) decides what a task is; this file
//! only delivers it. A composite's steps are serialized through the
//! `protocol` codec and sent as a tagged message; its payloads and exchange
//! notices ride the task's exclusive tag, and the worker's handler answers
//! with exactly one typed reply when the last step finished — success or a
//! typed error naming the node and event.
//!
//! **Waiting for someone else's bytes.** An `AwaitLocal` step names a
//! receive or a write a car queued ahead of it on the same node — this
//! execution's or another tenant's (a region running beside this one): the
//! device keeps one train table, and a node's pending train departs before a
//! car of another execution joins it, so cars reach a node in lowering
//! order. The worker resolves the wait in arrival order; nothing waits on
//! the head.
//!
//! **Held cars.** A car holds its consumers ([`ExecutionBackend::holds_car`]):
//! the core dispatches a flow-dependent consumer once its producers' cars
//! are launched, and the consumer's car waits on its worker — for the
//! producer's write beside it, or for the push it claims. Its reply may come
//! home before its producer's; it is parked and settled right after that
//! one, so replies retire in dependence order.
//!
//! **Task trains** (§7: per-task messaging overhead): `launch` does not
//! send a task immediately. The lowering writes the car into its destination
//! node's train — the node the bytes come from, for an exit-data task —
//! straight into the frame the train will depart as, and the train departs
//! when the dispatch window closes (the core calls `await_completions`), or
//! earlier, when another execution writes a car to its node. A run that
//! aborts departs its trains too: a car leaves the table only by departing.
//! Every departure is one [`crate::protocol::EventRequest::TaskTrain`]
//! notification, a train of one car included. Each car keeps its own channel
//! for its payloads and forwards, and its reply names it, so per-task typed
//! errors, zombie-gate refusals, and fault blame survive batching unchanged.
//! A train that fails to go out has each car answered with the error by the
//! head itself, on its own execution's completion channel.
//!
//! **A completion channel per region execution**: the lowering opens one
//! tag when the execution starts, and every train envelope names it. Each
//! car's one typed reply arrives there, led by the car's tag
//! ([`crate::protocol::car_reply_header`]) — the reply *is* the completion
//! notice — so the head waits with one posted receive on its
//! own channel and resolves a car with the one message: work proportional
//! to messages arrived, not tasks outstanding. Concurrent region executions
//! need no demultiplexer: no two share a channel, and the mailbox's matching
//! hands each reply to the one driver waiting for it. The wait is cut only
//! by [`crate::config::OmpcConfig::event_reply_timeout_ms`], the last-resort
//! bound on a reply that can never arrive.
//!
//! Tag layout: new-event notifications travel on the reserved
//! [`crate::protocol::CONTROL_TAG`]; every car, every completion channel and
//! every maintenance task owns a device-unique tag drawn from the
//! [`crate::event::EventSystem`]'s one counter, so concurrent events cannot
//! cross-talk.
//!
//! Fault tolerance needs nothing transport-specific: a killed worker's
//! zombie gate refuses every car of a later train individually — one error
//! reply each — so a launch onto a dead node degrades into a stale failure
//! the core restarts, never a hang.

use super::fault::LostBuffer;
use super::lowering::{Lowering, Record};
use super::telemetry::{monotonic_us, Span, SpanPhase};
use super::{ExecutionBackend, RuntimeCore, TaskEvent};
use crate::data_manager::HEAD_NODE;
use crate::protocol::{split_car_reply, Reply};
use crate::types::{NodeId, OmpcError, OmpcResult, TaskId};
use ompc_mpi::{Communicator, Message, MpiError, Tag};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Bound on draining the cars still outstanding after a failed run, when no
/// [`crate::config::OmpcConfig::event_reply_timeout_ms`] is configured.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One car on the wire: its reply comes home on the execution's completion
/// channel, led by the car's tag.
struct Outstanding {
    tag: Tag,
    /// Core task id.
    task: usize,
    record: Record,
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
    /// outstanding car's reply and every unclaimed push is drained, so no
    /// stale message bleeds into a later region execution.
    pub fn execute(&self, core: &mut RuntimeCore) -> OmpcResult<()> {
        let mut driver = MpiDriver::new(&self.lowering);
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
/// lowers one task into its node's train, `await_completions` departs the
/// execution's trains and waits on its completion channel.
struct MpiDriver<'c> {
    lowering: &'c Lowering,
    /// The head's communicator handle, receiving on this execution's
    /// completion channel: every car's reply arrives there.
    completions: Communicator,
    completion_tag: Tag,
    /// The cars on the wire, by ascending tag — the index a reply is
    /// resolved through. Tags are drawn in launch order, so a launch
    /// appends.
    outstanding: Vec<Outstanding>,
    /// Per task of the graph: whether its car is outstanding, and how many of
    /// its predecessors' cars were when it was launched — and still are.
    unsettled: Vec<bool>,
    waits: Vec<usize>,
    /// Replies that came home before a predecessor's, with their task: each
    /// is settled right after the last of them, so the data manager sees the
    /// producer's retire before its consumer's.
    parked: Vec<(usize, Message)>,
    /// Locally produced events (tasks the lowering completed or failed on
    /// the head) awaiting the next `await_completions`.
    ready: VecDeque<TaskEvent>,
}

/// A retired task's outcome as the core's completion-stream entry.
fn event_of(task: usize, outcome: OmpcResult<()>) -> TaskEvent {
    match outcome {
        Ok(()) => TaskEvent::Completed(task),
        Err(error) => TaskEvent::Failed { task, error },
    }
}

impl<'c> MpiDriver<'c> {
    /// A driver for one region execution, on its completion channel.
    fn new(lowering: &'c Lowering) -> Self {
        let tasks = lowering.graph.len();
        Self {
            lowering,
            completions: lowering.path.events.communicator().clone(),
            completion_tag: lowering.envelope.tag,
            outstanding: Vec::new(),
            unsettled: vec![false; tasks],
            waits: vec![0; tasks],
            parked: Vec::new(),
            ready: VecDeque::new(),
        }
    }

    /// Depart every pending train of this execution.
    fn flush_trains(&self) {
        self.lowering.path.events.trains().depart(self.completion_tag);
    }

    /// Settle every car still outstanding after a failed run, then empty the
    /// completion channel, so nothing bleeds into a later region execution:
    /// no reply left in a mailbox, no booking left on the wire for a later
    /// region to await. Trains still pending depart first — another
    /// tenant's car may await a receive one of them carries. Every reply
    /// comes on the one channel, so this is one receive loop under one
    /// deadline — the reply time-out, or `DRAIN_TIMEOUT` when none is
    /// configured — and the cars still outstanding when it passes are
    /// abandoned, however many there are. (The events of the replies die
    /// with the driver: the run is already over.)
    fn drain_outstanding(&mut self) {
        self.flush_trains();
        let timeout = self.lowering.path.events.reply_timeout().unwrap_or(DRAIN_TIMEOUT);
        let deadline = Instant::now().checked_add(timeout);
        while !self.outstanding.is_empty() {
            let wait =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
            match self.completions.recv_timeout(None, Some(self.completion_tag), wait) {
                Ok(msg) => self.on_reply(msg, &mut Vec::new()),
                Err(error) => {
                    let error = OmpcError::from(error);
                    for car in std::mem::take(&mut self.outstanding) {
                        self.lowering.abandon(car.record, &error);
                    }
                    self.parked.clear();
                }
            }
        }
        // Replies of cars abandoned after their train's envelope went out.
        while self.completions.try_recv(None, Some(self.completion_tag)).is_some() {}
    }

    /// Where the outstanding car named `tag` is in the index.
    fn find_outstanding(&self, tag: Tag) -> Option<usize> {
        self.outstanding.binary_search_by_key(&tag, |car| car.tag).ok()
    }

    /// Take one car's reply, received on the completion channel: the tag
    /// leading it names the car, whose task is settled ([`MpiDriver::settle`])
    /// and its event appended to `events` — unless a predecessor's car is
    /// still outstanding, in which case the reply waits for that one's, and
    /// is settled right after it. Replies of cars abandoned after their
    /// envelope went out, and a header too short to name a car, are
    /// discarded.
    fn on_reply(&mut self, msg: Message, events: &mut Vec<TaskEvent>) {
        let Some(at) =
            split_car_reply(&msg.data).ok().and_then(|(tag, _)| self.find_outstanding(tag))
        else {
            return;
        };
        let task = self.outstanding[at].task;
        if self.waits[task] > 0 {
            self.parked.push((task, msg));
        } else {
            self.settle(at, msg, events);
        }
    }

    /// Settle the outstanding car at `at` with its reply `msg`: its task is
    /// retired with the reply — or, when the head itself answered because the
    /// car's train failed to go out, rolled back as a car that never reached
    /// its node — and its event appended to `events`; then every parked reply
    /// that waited for it last, each after the one before. Records a
    /// head-side `Reply` span covering the decode.
    fn settle(&mut self, at: usize, msg: Message, events: &mut Vec<TaskEvent>) {
        let tel = &self.lowering.path.telemetry;
        let t0 = tel.start();
        let Outstanding { task, record, .. } = self.outstanding.remove(at);
        self.unsettled[task] = false;
        let from_head = msg.source() == HEAD_NODE;
        let header = split_car_reply(&msg.data).map(|(_, header)| header);
        let outcome =
            match header.and_then(|h| Reply::from_parts(h, msg.body, record.returns_data())) {
                Err(error) if from_head => {
                    self.lowering.abandon(record, &error);
                    Err(error)
                }
                reply => {
                    if tel.spans_enabled() {
                        tel.record(
                            Span::new(SpanPhase::Reply, HEAD_NODE, t0, monotonic_us())
                                .task(task)
                                .attempt(tel.attempt(task))
                                .from(record.node()),
                        );
                    }
                    self.lowering.retire(task, record, reply)
                }
            };
        events.push(event_of(task, outcome));
        let graph = &self.lowering.graph;
        for succ in graph.successors(TaskId(task)).iter().map(|t| t.0) {
            if self.waits[succ] == 0 {
                continue;
            }
            self.waits[succ] -= 1;
            let parked = self.parked.iter().position(|&(t, _)| t == succ);
            if let Some(parked) = parked.filter(|_| self.waits[succ] == 0) {
                let (_, msg) = self.parked.swap_remove(parked);
                let tag = split_car_reply(&msg.data).map(|(tag, _)| tag);
                if let Some(at) = tag.ok().and_then(|tag| self.find_outstanding(tag)) {
                    self.settle(at, msg, events);
                }
            }
        }
    }
}

impl ExecutionBackend for MpiDriver<'_> {
    fn launch(&mut self, task: usize, node: NodeId) -> OmpcResult<()> {
        // The car is *written* into its node's train, not sent — the train
        // departs when the window closes. The node is the lowering's: an
        // exit-data car goes where the bytes are.
        match self.lowering.lower_into(task, node) {
            Ok(Some((tag, record))) => {
                let preds = self.lowering.graph.predecessors(TaskId(task));
                self.waits[task] = preds.iter().filter(|p| self.unsettled[p.0]).count();
                self.unsettled[task] = true;
                self.outstanding.push(Outstanding { tag, task, record });
            }
            Ok(None) => self.ready.push_back(TaskEvent::Completed(task)),
            // Head-side failures are task failures, not backend breakdowns:
            // the core owns the propagate-vs-restart policy.
            Err(error) => self.ready.push_back(TaskEvent::Failed { task, error }),
        }
        Ok(())
    }

    fn assign(&mut self, assignment: &[NodeId]) {
        self.lowering.assign(assignment);
    }

    /// A car holds its consumers: each waits on its node for the bytes — its
    /// producer's write beside it, or the push it claims — and its reply is
    /// settled after its producers'.
    fn holds_car(&self, task: usize) -> bool {
        self.outstanding.last().is_some_and(|car| car.task == task)
    }

    fn await_completions(&mut self, events: &mut Vec<TaskEvent>) -> OmpcResult<()> {
        // The dispatch window is closed: this execution's trains depart now.
        self.flush_trains();
        events.extend(self.ready.drain(..));
        if self.outstanding.is_empty() && events.is_empty() {
            return Err(OmpcError::Internal(
                "mpi backend awaited completions with nothing outstanding".to_string(),
            ));
        }
        let timeout = self.lowering.path.events.reply_timeout();
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        loop {
            // Whatever already arrived rides along without waiting.
            while let Some(msg) = self.completions.try_recv(None, Some(self.completion_tag)) {
                self.on_reply(msg, events);
            }
            if !events.is_empty() {
                return Ok(());
            }
            // One receive on the completion channel: a reply wakes it at once,
            // and only the reply deadline cuts it.
            let wait =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
            match self.completions.recv_timeout(None, Some(self.completion_tag), wait) {
                Ok(msg) => self.on_reply(msg, events),
                Err(MpiError::Timeout { .. }) => {
                    return Err(OmpcError::Communication(format!(
                        "timed out waiting for the replies of {} outstanding task event(s)",
                        self.outstanding.len()
                    )))
                }
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
}

#[cfg(test)]
mod tests {
    use crate::cluster::ClusterDevice;
    use crate::config::{BackendKind, OmpcConfig};
    use crate::protocol::Reply;
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
    /// train that fails mid-send (here: a later car's forward from a rank
    /// the world does not have, after an earlier car's payload already
    /// went out) is failed as a whole and its cars re-dispatched, so
    /// committing counters interleaved with the sends would count the
    /// already-sent cars twice. Accounting must commit only at a
    /// successful flush — the failed attempt counts nothing, the retry
    /// counts each car exactly once. The failed departure answers each car
    /// with the send's error on the completion channel, from the head.
    #[test]
    fn mid_train_send_failure_commits_no_counters_until_the_retry_lands() {
        use super::MpiDriver;
        use crate::buffer::BufferRegistry;
        use crate::event::EventSystem;
        use crate::kernel::KernelRegistry;
        use crate::protocol::split_car_reply;
        use crate::runtime::lowering::{DataPath, Lowering};
        use crate::runtime::telemetry::Telemetry;
        use crate::task::RegionGraph;
        use crate::types::BufferId;
        use crate::worker::worker_main;
        use ompc_mpi::{Bytes, World};
        use std::collections::HashMap;
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        let world = World::new(2);
        let kernels = Arc::new(KernelRegistry::new());
        let worker = {
            let comm = world.communicator(1);
            let kernels = Arc::clone(&kernels);
            std::thread::spawn(move || worker_main(comm, kernels))
        };
        let events = Arc::new(EventSystem::with_reply_timeout(world.communicator(0), None));
        let path = DataPath {
            events: Arc::clone(&events),
            buffers: Arc::new(BufferRegistry::new()),
            dm: Arc::default(),
            telemetry: Telemetry::off(),
        };
        let lowering =
            Lowering::new(path, 1, Arc::new(RegionGraph::new()), HashMap::new(), &mpi_config())
                .unwrap();
        let driver = MpiDriver::new(&lowering);
        let snapshot = || {
            let c = events.counters();
            (
                c.events.load(Ordering::Relaxed),
                c.data_events.load(Ordering::Relaxed),
                c.bytes_moved.load(Ordering::Relaxed),
            )
        };
        // A train of two cars on worker 1: the first receives a 16-byte host
        // payload, the second a forward from `source` if given. It departs.
        let send = |source: Option<crate::types::NodeId>| {
            let mut trains = events.trains();
            let mut car = trains.car(1, &lowering.envelope);
            car.recv_from_head(BufferId(0), Bytes::from(vec![7u8; 16]));
            car.commit(0, events.open_channel());
            let mut car = trains.car(1, &lowering.envelope);
            if let Some(from) = source {
                car.recv_from_worker(BufferId(1), from, 8);
            }
            car.commit(1, events.open_channel());
            trains.depart(driver.completion_tag);
        };

        send(Some(99));
        assert_eq!(snapshot(), (0, 0, 0), "a train that failed mid-send commits nothing");
        for _ in 0..2 {
            let answer = driver.completions.try_recv(Some(0), Some(driver.completion_tag));
            let answer = answer.expect("each car is answered by the head");
            let (_, header) = split_car_reply(&answer.data).unwrap();
            assert!(Reply::from_parts(header, None, false).is_err(), "with the send's error");
        }

        send(None);
        assert_eq!(
            snapshot(),
            (3, 1, 16),
            "the successful retry commits each car's event and its payload exactly once"
        );

        let _ = events.shutdown(1);
        let _ = worker.join();
    }

    /// Cars stuck on a node that never answers cost the drain one reply
    /// time-out in all, not one each: four cars to a rank nobody serves,
    /// with a 150 ms time-out, are abandoned together once it passes —
    /// every booking withdrawn, nothing left in the head's mailbox.
    #[test]
    fn the_drain_waits_out_one_deadline_for_every_car_of_a_silent_node() {
        use super::MpiDriver;
        use crate::buffer::BufferRegistry;
        use crate::data_manager::{DataManager, TransferState};
        use crate::event::EventSystem;
        use crate::runtime::lowering::{DataPath, Lowering};
        use crate::runtime::telemetry::Telemetry;
        use crate::runtime::ExecutionBackend;
        use crate::task::{RegionGraph, TaskKind};
        use crate::types::{BufferId, KernelId};
        use ompc_mpi::World;
        use parking_lot::Mutex;
        use std::collections::HashMap;
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        let world = World::new(2);
        let timeout = Duration::from_millis(150);
        let events =
            Arc::new(EventSystem::with_reply_timeout(world.communicator(0), Some(timeout)));
        let (buffers, mut dm, mut graph) =
            (BufferRegistry::new(), DataManager::new(), RegionGraph::new());
        let inputs: Vec<BufferId> = (0..4).map(|_| buffers.register(vec![1u8; 8])).collect();
        for &input in &inputs {
            dm.register_host_buffer(input, 8);
            let kind = TaskKind::Target { kernel: KernelId(0), cost_hint: 1e-6 };
            graph.add_task(kind, vec![Dependence::input(input)], "reader");
        }
        let path = DataPath {
            events,
            buffers: Arc::new(buffers),
            dm: Arc::new(Mutex::new(dm)),
            telemetry: Telemetry::off(),
        };
        let config = OmpcConfig { event_reply_timeout_ms: Some(150), ..mpi_config() };
        let lowering = Lowering::new(path, 1, Arc::new(graph), HashMap::new(), &config).unwrap();
        let in_flight = || {
            let dm = lowering.path.dm.lock();
            let moving =
                |&&b: &&BufferId| matches!(dm.transfer_state(b, 1), TransferState::InFlight(_));
            inputs.iter().filter(moving).count()
        };

        let mut driver = MpiDriver::new(&lowering);
        for task in 0..4 {
            driver.launch(task, 1).unwrap();
        }
        driver.flush_trains();
        assert_eq!((driver.outstanding.len(), in_flight()), (4, 4));
        let t0 = Instant::now();
        driver.drain_outstanding();
        let took = t0.elapsed();
        assert!(took >= timeout && took < 2 * timeout, "the drain took {took:?}");
        assert!(driver.outstanding.is_empty());
        assert_eq!(in_flight(), 0, "every booking is abandoned");
        assert_eq!(world.communicator(0).mailbox_stats().queued, 0);
    }

    /// A car costs the head one message — its reply, which is its completion
    /// notice. The run's only other messages are the replies of its
    /// end-of-run tasks: one release per worker holding outputs.
    #[test]
    fn each_car_costs_the_head_exactly_one_message() {
        const CARS: usize = 24;
        let mut device = ClusterDevice::with_config(2, mpi_config());
        let mut graph = ompc_sched::TaskGraph::new();
        for _ in 0..CARS {
            graph.add_task(1e-4);
        }
        let workload = crate::model::WorkloadGraph::new(graph, vec![16; CARS]);
        let plan = RuntimePlan { assignment: (0..CARS).map(|t| t % 2 + 1).collect(), window: 4 };
        let head = |device: &ClusterDevice| device.mailbox_stats()[0];
        let before = head(&device).delivered;
        device.run_workload(&workload, &plan).unwrap();
        let releases = 2;
        let after = head(&device);
        assert_eq!(after.delivered - before, (CARS + releases) as u64, "{after:?}");
        assert_eq!(after.queued, 0);
        device.shutdown();
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
        use parking_lot::Mutex;
        use std::collections::HashMap;
        use std::sync::Arc;

        ompc_testutil::with_timeout(std::time::Duration::from_secs(5), || {
            let world = World::new(3);
            let kernels = Arc::new(KernelRegistry::new());
            let noop = kernels.register_fn("noop", 1e-6, |_| {});
            let workers: Vec<_> = [1, 2]
                .into_iter()
                .map(|rank| {
                    let (comm, kernels) = (world.communicator(rank), Arc::clone(&kernels));
                    std::thread::spawn(move || worker_main(comm, kernels))
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
            let lowering =
                Lowering::new(path, 1, Arc::new(graph), HashMap::new(), &config).unwrap();

            // The owner forwards `a` from node 2, the reader awaits that
            // receive — in two trains on node 1, the reader's queued behind
            // the owner's on the node's lane.
            let mut driver = MpiDriver::new(&lowering);
            driver.launch(0, 1).unwrap();
            driver.flush_trains();
            driver.launch(1, 1).unwrap();
            driver.flush_trains();
            let mut failed = HashMap::new();
            let mut completions = Vec::new();
            while failed.len() < 2 {
                driver.await_completions(&mut completions).unwrap();
                for event in completions.drain(..) {
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

    /// A device of `workers` workers run by hand: its data path over
    /// `kernels`, with no reply time-out, so a wait nothing ends hangs the
    /// test's watchdog.
    struct Held {
        world: ompc_mpi::World,
        workers: Vec<std::thread::JoinHandle<()>>,
        path: crate::runtime::lowering::DataPath,
    }

    impl Held {
        fn new(workers: usize, kernels: &std::sync::Arc<crate::kernel::KernelRegistry>) -> Self {
            use crate::event::EventSystem;
            use std::sync::Arc;
            let world = ompc_mpi::World::new(workers + 1);
            let workers = (1..=workers)
                .map(|rank| {
                    let (comm, kernels) = (world.communicator(rank), Arc::clone(kernels));
                    std::thread::spawn(move || crate::worker::worker_main(comm, kernels))
                })
                .collect();
            let path = crate::runtime::lowering::DataPath {
                events: Arc::new(EventSystem::with_reply_timeout(world.communicator(0), None)),
                buffers: Arc::default(),
                dm: Arc::default(),
                telemetry: crate::runtime::telemetry::Telemetry::off(),
            };
            Self { world, workers, path }
        }

        /// A host buffer of `values`, known to the data manager.
        fn buffer(&self, values: &[f64]) -> crate::types::BufferId {
            let buffer = self.path.buffers.register(ompc_mpi::typed::f64s_to_bytes(values));
            self.path.dm.lock().register_host_buffer(buffer, 8 * values.len() as u64);
            buffer
        }

        /// The lowering of `graph` with no reply time-out, as region 1.
        fn lowering(&self, graph: crate::task::RegionGraph) -> crate::runtime::lowering::Lowering {
            let config = OmpcConfig { event_reply_timeout_ms: None, ..mpi_config() };
            let (path, graph) = (self.path.clone(), std::sync::Arc::new(graph));
            crate::runtime::lowering::Lowering::new(path, 1, graph, Default::default(), &config)
                .unwrap()
        }

        /// Shut every worker down and wait for it.
        fn shut_down(self) {
            for node in 1..=self.workers.len() {
                let _ = self.path.events.shutdown(node);
            }
            for worker in self.workers {
                let _ = worker.join();
            }
            drop(self.world);
        }
    }

    /// The next `count` events of `driver`, in the order it reports them.
    fn next_events(driver: &mut super::MpiDriver<'_>, count: usize) -> Vec<super::TaskEvent> {
        use crate::runtime::ExecutionBackend;
        let mut events = Vec::new();
        while events.len() < count {
            let mut round = Vec::new();
            driver.await_completions(&mut round).unwrap();
            events.append(&mut round);
        }
        events
    }

    fn target(kernel: crate::types::KernelId) -> crate::task::TaskKind {
        crate::task::TaskKind::Target { kernel, cost_hint: 1e-6 }
    }

    /// A producer whose kernel fails sends its error down the push its
    /// reader, held on another worker, claims: the reader replies the
    /// producer's very error, after the producer, and a run of the two fails
    /// with that error.
    #[test]
    fn a_held_reader_replies_the_error_of_its_failed_producer() {
        use super::{MpiBackend, MpiDriver, TaskEvent};
        use crate::runtime::{ExecutionBackend, RuntimeCore};
        use crate::types::KernelId;
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let kernels = std::sync::Arc::new(crate::kernel::KernelRegistry::new());
            let noop = kernels.register_fn("noop", 1e-6, |_| {});
            let held = Held::new(2, &kernels);
            let (a, out) = (held.buffer(&[0.0]), held.buffer(&[0.0]));
            let graph = || {
                let mut graph = crate::task::RegionGraph::new();
                graph.add_task(target(KernelId(424_242)), vec![Dependence::output(a)], "producer");
                let read = vec![Dependence::input(a), Dependence::output(out)];
                graph.add_task(target(noop), read, "reader");
                graph
            };
            let lowering = held.lowering(graph());
            let mut driver = MpiDriver::new(&lowering);
            driver.assign(&[1, 2]);
            driver.launch(0, 1).unwrap();
            assert!(driver.holds_car(0), "a target car holds its consumers");
            driver.launch(1, 2).unwrap();
            let events = next_events(&mut driver, 2);
            let (producer, reader) = match &events[..] {
                [TaskEvent::Failed { task: 0, error: p }, TaskEvent::Failed { task: 1, error: r }] => {
                    (p.clone(), r.clone())
                }
                other => panic!("both fail, the producer first: {other:?}"),
            };
            assert_eq!(producer.root_cause(), &OmpcError::UnknownKernel(KernelId(424_242)));
            assert_eq!(reader, producer, "the reader replies the producer's error");
            drop(driver);
            assert_eq!(lowering.flush_deletes(), Ok(()));

            // The same two tasks as a run: it fails with the producer's error.
            let lowering = held.lowering(graph());
            let plan = crate::runtime::RuntimePlan { assignment: vec![1, 2], window: 4 };
            let mut core = RuntimeCore::new(lowering.graph.as_ref(), &plan);
            let err = MpiBackend::new(lowering).execute(&mut core).unwrap_err();
            assert_eq!(err.root_cause(), &OmpcError::UnknownKernel(KernelId(424_242)));
            assert_eq!(
                core.record().dispatch_order,
                vec![0, 1],
                "the reader was held, not awaited"
            );
            let stats = held.world.communicator(2).mailbox_stats();
            assert_eq!(stats.queued, 0, "every push channel's one message was taken");
            held.shut_down();
        });
    }

    /// The reader's node holds the version its producer supersedes: the
    /// producer's retire owes it no delete — its first reader's claim is
    /// already on the node — so a second reader there, lowered after the
    /// producer retired and before the first reader did, reads the new
    /// bytes the claim landed.
    #[test]
    fn a_reader_lowered_after_its_producer_retired_reads_what_the_early_claim_landed() {
        use super::{MpiDriver, TaskEvent};
        use crate::runtime::ExecutionBackend;
        use std::sync::{Arc, Barrier, Mutex};
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let kernels = Arc::new(crate::kernel::KernelRegistry::new());
            let fill = kernels.register_fn("fill", 1e-6, |args| args.set_f64s(0, &[1.0]));
            let bump = kernels.register_fn("bump", 1e-6, |args| {
                let v = args.as_f64s(0)[0];
                args.set_f64s(0, &[v + 1.0]);
            });
            let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let (e, r, s) = (Arc::clone(&entered), Arc::clone(&release), Arc::clone(&seen));
            let hold = kernels.register_fn("hold", 1e-6, move |args| {
                s.lock().unwrap().push(args.as_f64s(0)[0]);
                e.wait();
                r.wait();
            });
            let s = Arc::clone(&seen);
            let read = kernels.register_fn("read", 1e-6, move |args| {
                s.lock().unwrap().push(args.as_f64s(0)[0]);
            });
            let held = Held::new(2, &kernels);
            let a = held.buffer(&[0.0]);
            let mut graph = crate::task::RegionGraph::new();
            graph.add_task(target(fill), vec![Dependence::output(a)], "version 1, on node 2");
            graph.add_task(target(bump), vec![Dependence::inout(a)], "version 2, on node 1");
            graph.add_task(target(hold), vec![Dependence::input(a)], "first reader");
            graph.add_task(target(read), vec![Dependence::input(a)], "second reader");
            let lowering = held.lowering(graph);
            let mut driver = MpiDriver::new(&lowering);
            driver.assign(&[2, 1, 2, 2]);
            driver.launch(0, 2).unwrap();
            assert_eq!(next_events(&mut driver, 1), vec![TaskEvent::Completed(0)]);
            // The producer, and its first reader held on node 2.
            driver.launch(1, 1).unwrap();
            driver.launch(2, 2).unwrap();
            assert_eq!(next_events(&mut driver, 1), vec![TaskEvent::Completed(1)]);
            entered.wait();
            assert!(lowering.path.dm.lock().owed().is_empty(), "no delete for node 2");
            // The second reader, lowered while the first is still running.
            driver.launch(3, 2).unwrap();
            driver.flush_trains();
            release.wait();
            let events = next_events(&mut driver, 2);
            assert_eq!(events, vec![TaskEvent::Completed(2), TaskEvent::Completed(3)]);
            assert_eq!(*seen.lock().unwrap(), vec![2.0, 2.0], "both readers read version 2");
            drop(driver);
            assert_eq!(lowering.flush_deletes(), Ok(()));
            held.shut_down();
        });
    }

    /// The producer's node is killed from outside this execution — by
    /// another tenant's fault plan, say — before its car arrives: the zombie
    /// gate refuses the car and sends the node's failure down its push, so
    /// the reader held on another worker replies `NodeFailure`, not a hang.
    #[test]
    fn a_held_reader_of_a_killed_producer_replies_its_node_failure() {
        use super::{MpiDriver, TaskEvent};
        use crate::runtime::ExecutionBackend;
        ompc_testutil::with_timeout(std::time::Duration::from_secs(60), || {
            let kernels = std::sync::Arc::new(crate::kernel::KernelRegistry::new());
            let noop = kernels.register_fn("noop", 1e-6, |_| {});
            let held = Held::new(2, &kernels);
            let (a, out) = (held.buffer(&[0.0]), held.buffer(&[0.0]));
            let mut graph = crate::task::RegionGraph::new();
            graph.add_task(target(noop), vec![Dependence::output(a)], "producer");
            let read = vec![Dependence::input(a), Dependence::output(out)];
            graph.add_task(target(noop), read, "reader");
            let lowering = held.lowering(graph);
            held.path.events.kill(1).unwrap();
            let mut driver = MpiDriver::new(&lowering);
            driver.assign(&[1, 2]);
            driver.launch(0, 1).unwrap();
            driver.launch(1, 2).unwrap();
            let events = next_events(&mut driver, 2);
            assert!(matches!(events[0], TaskEvent::Failed { task: 0, .. }), "{events:?}");
            for event in &events {
                let TaskEvent::Failed { error, .. } = event else { panic!("{events:?}") };
                assert_eq!(
                    (error.origin_node(), error.root_cause()),
                    (Some(1), &OmpcError::NodeFailure(1))
                );
            }
            drop(driver);
            held.shut_down();
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

    /// Two concurrent regions with a train on both workers at
    /// the same time: the mailbox's matching alone hands every car reply to the
    /// driver that owns it — both regions come out byte-correct and the head
    /// never wakes up for a message that is not its own. Region A's first
    /// kernel on each worker holds that worker's lane until region B's trains
    /// have reached both workers, so all four trains are queued at once.
    #[test]
    fn overlapped_regions_each_receive_their_own_completions() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Barrier};
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let config = OmpcConfig { max_inflight_tasks: 8, ..mpi_config() };
            let mut device = ClusterDevice::with_config(2, config);
            // The first two kernels — one on each worker, since a lane runs
            // one at a time — hold until the test releases them.
            let (entered, release) = (Arc::new(Barrier::new(3)), Arc::new(Barrier::new(3)));
            let bump = {
                let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
                let started = AtomicUsize::new(0);
                device.register_kernel_fn("bump", 1e-3, move |args| {
                    if started.fetch_add(1, Ordering::SeqCst) < 2 {
                        entered.wait();
                        release.wait();
                    }
                    let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
                    args.set_f64s(0, &v);
                })
            };
            let client = |base: f64| {
                let mut region = device.target_region();
                let values: Vec<f64> = (0..4).map(|i| base + f64::from(i)).collect();
                let buffers: Vec<_> = values.iter().map(|&v| region.map_to_f64s(&[v])).collect();
                let tasks: Vec<_> = buffers
                    .iter()
                    .map(|&b| region.target(bump, vec![Dependence::inout(b)]))
                    .collect();
                for &b in &buffers {
                    region.map_from(b);
                }
                let (_, record) = region.run_recorded().unwrap();
                let nodes: Vec<_> = tasks.iter().map(|t| record.assignment[t.0]).collect();
                (values, buffers, nodes)
            };
            // Notifications handed to each worker's receiving member so far.
            let woken = || -> Vec<u64> {
                device.mailbox_stats()[1..].iter().map(|stats| stats.woken).collect()
            };
            let runs = std::thread::scope(|scope| {
                let a = scope.spawn(|| client(0.0));
                entered.wait();
                let before = woken();
                let b = scope.spawn(|| client(100.0));
                while woken().iter().zip(&before).any(|(now, then)| now <= then) {
                    std::thread::yield_now();
                }
                release.wait();
                [a, b].map(|client| client.join().unwrap())
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
    /// on worker 1, dispatched after task 0 retired and before task 2 — one
    /// task in flight at a time, so no car is held — fails: the run ends after
    /// task 0's push to worker 2 was booked and before task 2 could claim
    /// it. `device` must have been built with task 1's injected error.
    fn fail_between_push_and_claim(device: &ClusterDevice) -> OmpcError {
        let mut graph = ompc_sched::TaskGraph::new();
        for _ in 0..3 {
            graph.add_task(1e-4);
        }
        graph.add_edge(0, 2, 64);
        let workload = crate::model::WorkloadGraph::new(graph, vec![64; 3]);
        let plan = RuntimePlan { assignment: vec![1, 1, 2], window: 1 };
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

    /// Every reply and push of every execution is taken, on every
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
        // Fifty regions whose enter-data and exit-data tasks are cars too.
        let plus_one = device.register_kernel_fn("plus-one", 1e-6, |args| {
            let v = args.as_f64s(0)[0];
            args.set_f64s(1, &[v + 1.0]);
        });
        for run in 0..50 {
            let mut region = device.target_region();
            let a = region.map_to_f64s(&[f64::from(run)]);
            let out = region.map_alloc(8);
            region.target(plus_one, vec![Dependence::input(a), Dependence::output(out)]);
            region.map_from(out);
            region.run().unwrap();
            assert_eq!(device.buffer_f64s(out).unwrap(), vec![f64::from(run) + 1.0]);
            assert!(drained(&device), "region {run}");
        }
        device.shutdown();
    }
}
