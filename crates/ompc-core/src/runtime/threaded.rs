//! The threaded transport: a pool of head worker threads, each walking one
//! lowered task through the blocking [`crate::event::EventSystem`] verbs.
//!
//! [`RuntimeCore`] decides *which* task is dispatched *when* — bounded by
//! the configured in-flight window — and the shared lowering
//! (`runtime/lowering.rs`) decides what the task *is*: its steps, its single
//! data event, or nothing. A pool thread then delivers it synchronously —
//! submit, wait; exchange, wait; execute, wait — and hands the typed reply
//! back to the lowering to retire. Because the window is a property of the
//! core rather than of the pool, more tasks can be in flight than there are
//! blocked threads, which is exactly the pipelined dispatch the paper
//! proposes as the fix for its §7 bottleneck.
//!
//! What is particular to this transport:
//!
//! * the **long-lived pool** ([`HeadWorkerPool`], the analogue of
//!   libomptarget's hidden helper threads) owned by
//!   [`crate::cluster::ClusterDevice`]: created lazily, sized
//!   `min(head_worker_threads, window, tasks)` for the largest region seen
//!   so far, reused across region executions, drained at shutdown;
//! * `AwaitLocal` **is resolved on the head**: the pool thread blocks on the
//!   device's in-flight table and fails at once with the transfer's own
//!   error, where the message-passing transport ships the step to the
//!   worker and lets it time out;
//! * a task's receives overlap when there are two or more;
//! * the **cancellation flag**: a genuine task failure on a live node stops
//!   the tasks already queued behind it, and the synthetic errors of those
//!   skipped tasks are held back so they can never mask the root cause.

use super::fault::LostBuffer;
use super::lowering::{Composite, Lowered, Lowering, Record};
use super::telemetry::{monotonic_us, Span, SpanPhase};
use super::{ExecutionBackend, RuntimeCore, TaskEvent};
use crate::data_manager::HEAD_NODE;
use crate::event::TypedReply;
use crate::protocol::{Reply, TaskStep};
use crate::types::{BufferId, NodeId, OmpcError, OmpcResult};
use crossbeam::channel::{Receiver, Sender};
use ompc_mpi::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Message of the synthetic error reported for tasks skipped by the
/// cancellation flag; the pool driver recognizes it so it never masks the
/// root-cause error of the task that actually failed.
const CANCELLED_MSG: &str = "cancelled after an earlier task failure";

/// What a pool thread needs to execute tasks of one region. Shared with the
/// long-lived pool through an `Arc`, which is what lets the pool outlive any
/// single region execution.
pub(crate) struct RegionContext {
    lowering: Lowering,
    /// Held from a task's lowering until its `Delete` prologue has been
    /// acknowledged: a task lowered later may forward a fresh copy of the
    /// same buffer to the same node, and must not be overtaken by the
    /// delete of the stale one.
    prologue: Mutex<()>,
    /// Set when a task fails on a live node: tasks still queued in the head
    /// pool stop executing instead of landing side effects after the run
    /// has already failed.
    cancelled: AtomicBool,
}

impl RegionContext {
    /// Run one task end to end and report its outcome, honouring the
    /// cancellation flag and classifying failures for the core.
    fn run(&self, task: usize, node: NodeId) -> OmpcResult<()> {
        if self.cancelled.load(Ordering::SeqCst) {
            return Err(OmpcError::Internal(CANCELLED_MSG.to_string()));
        }
        let res = self.deliver(task, node);
        if let Err(error) = &res {
            // Trip the cancellation flag only for *genuine* failures: a
            // failure blamed on a node the injector killed is stale, the
            // core restarts the task, and cancelling the run for it would
            // wedge it.
            if !self.lowering.blames_dead_node(node, error) {
                self.cancelled.store(true, Ordering::SeqCst);
            }
        }
        res
    }

    /// Lower the task, deliver it through the blocking verbs, retire it.
    fn deliver(&self, task: usize, node: NodeId) -> OmpcResult<()> {
        let events = &self.lowering.path.events;
        // Head-assigned tasks touch no device memory — and a host body may
        // run for as long as it likes inside `lower`.
        let order = (node != HEAD_NODE).then(|| self.prologue.lock());
        match self.lowering.lower(task, node)? {
            Lowered::Done => Ok(()),
            Lowered::Event(event, record) => {
                drop(order);
                let reply = self.lowering.post(task, event).and_then(|ch| events.await_reply(&ch));
                self.lowering.retire(task, record, reply)
            }
            Lowered::Task(mut work, mut record) => {
                // The leading deletes are one event, however many.
                let leading = work.steps.iter().map_while(|step| match step {
                    TaskStep::Delete { buffer } => Some(*buffer),
                    _ => None,
                });
                let deletes: Vec<BufferId> = leading.collect();
                work.steps.drain(..deletes.len());
                let prologue = events.delete(node, deletes);
                drop(order);
                let reply = prologue.and_then(|()| self.run_steps(task, node, work, &mut record));
                self.lowering.retire(task, record, reply)
            }
        }
    }

    /// Walk a composite's steps: the receives (overlapped when there are two
    /// or more — the pipelined dispatch loop), then the awaits and allocs in
    /// order, then the kernel, whose reply is the task's.
    fn run_steps(
        &self,
        task: usize,
        node: NodeId,
        work: Composite,
        record: &mut Record,
    ) -> TypedReply {
        let events = &self.lowering.path.events;
        let Composite { steps, payloads, .. } = work;
        let (receives, rest): (Vec<TaskStep>, Vec<TaskStep>) = steps.into_iter().partition(|s| {
            matches!(s, TaskStep::RecvFromHead { .. } | TaskStep::RecvFromWorker { .. })
        });
        self.receive_all(task, node, receives, payloads)?;
        for step in rest {
            match step {
                TaskStep::AwaitLocal { buffer, .. } => {
                    // A rolled-back booking comes back as a receive of our own.
                    let own = self.lowering.await_local(task, node, buffer, record)?;
                    self.receive_all(task, node, own.steps, own.payloads)?;
                }
                TaskStep::Alloc { buffer, size } => events.alloc(node, buffer, size as usize)?,
                TaskStep::Execute { kernel, buffers } => {
                    let timed = self.lowering.path.telemetry.spans_enabled();
                    let stamps = events.execute_timed(node, kernel, buffers, timed)?;
                    return Ok(Reply { stamps, ..Reply::default() });
                }
                _ => {}
            }
        }
        Err(OmpcError::Internal(format!("task {task} was lowered without an execute step")))
    }

    /// Perform the given receive steps, pairing each `RecvFromHead` with the
    /// next payload frame. A lone receive runs on this thread.
    fn receive_all(
        &self,
        task: usize,
        node: NodeId,
        receives: Vec<TaskStep>,
        payloads: Vec<Bytes>,
    ) -> OmpcResult<()> {
        let mut frames = payloads.into_iter();
        let jobs: Vec<(TaskStep, Option<Bytes>)> = receives
            .into_iter()
            .map(|step| {
                let frame = if matches!(step, TaskStep::RecvFromHead { .. }) {
                    frames.next()
                } else {
                    None
                };
                (step, frame)
            })
            .collect();
        if jobs.len() <= 1 {
            return jobs
                .into_iter()
                .try_for_each(|(step, frame)| self.receive(task, node, step, frame));
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|(step, frame)| scope.spawn(move || self.receive(task, node, step, frame)))
                .collect();
            // Join every transfer before reporting the first failure.
            let outcomes: Vec<OmpcResult<()>> = handles
                .into_iter()
                .map(|handle| {
                    handle.join().unwrap_or_else(|_| {
                        Err(OmpcError::Internal("input transfer thread panicked".to_string()))
                    })
                })
                .collect();
            outcomes.into_iter().collect()
        })
    }

    /// Carry out one receive step through its blocking verb, release the
    /// co-located waiters, and record a `Send` span for the wire round-trip.
    fn receive(
        &self,
        task: usize,
        node: NodeId,
        step: TaskStep,
        frame: Option<Bytes>,
    ) -> OmpcResult<()> {
        let events = &self.lowering.path.events;
        let tel = &self.lowering.path.telemetry;
        let t0 = tel.start();
        let (buffer, span_node, from, bytes) = match step {
            TaskStep::RecvFromHead { buffer } => {
                let frame = frame.ok_or_else(|| {
                    OmpcError::Internal(format!("no payload frame lowered for {buffer}"))
                })?;
                let bytes = frame.len() as u64;
                events.submit(node, buffer, frame)?;
                (buffer, HEAD_NODE, None, bytes)
            }
            TaskStep::RecvFromWorker { buffer, from } => {
                (buffer, node, Some(from), events.exchange(from, node, buffer)?)
            }
            _ => return Ok(()),
        };
        self.lowering.landed(buffer, node);
        if tel.spans_enabled() {
            let span = Span::new(SpanPhase::Send, span_node, t0, monotonic_us())
                .task(task)
                .attempt(tel.attempt(task))
                .bytes(bytes);
            tel.record(match from {
                Some(from) => span.from(from).detail("worker forward"),
                None => span,
            });
        }
        Ok(())
    }
}

/// One unit of work submitted to the long-lived pool. Region tasks and the
/// device's asynchronous data-path jobs (async enter-data, cross-region
/// prefetch, double-buffered flushes) are both just closures; a task job
/// carries its own `catch_unwind` + completion send inside the closure so
/// the driver always receives exactly one outcome per launch.
struct PoolJob(Box<dyn FnOnce() + Send>);

/// Body of one head pool thread: drain jobs until the channel closes
/// (device shutdown).
fn pool_thread_main(rx: Receiver<PoolJob>) {
    while let Ok(PoolJob(body)) = rx.recv() {
        // A panicking job (e.g. a debug assertion in the data layer) must
        // not take the pool thread down with it — the thread count would go
        // stale and a later `ensure_threads` would under-spawn.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    }
}

struct PoolState {
    /// `None` once the pool has been drained; submissions fail from then on.
    job_tx: Option<Sender<PoolJob>>,
    /// Kept only to clone into newly spawned threads.
    job_rx: Receiver<PoolJob>,
    /// One handle per pool thread; threads only exit when the job channel
    /// closes, so this is also the alive count.
    handles: Vec<JoinHandle<()>>,
}

/// The long-lived head worker pool, owned by
/// [`crate::cluster::ClusterDevice`] and shared by every region execution
/// of the device's lifetime.
///
/// Threads are spawned lazily: each region asks for
/// `min(head_worker_threads, window, tasks)` threads and the pool grows to
/// the largest such request seen so far — a small region never pays for 48
/// idle threads, and repeated region executions never re-spawn a pool. On
/// [`HeadWorkerPool::drain`] (device shutdown / drop) the job channel
/// closes, in-flight jobs finish, and every thread is joined.
pub struct HeadWorkerPool {
    state: Mutex<PoolState>,
}

impl Default for HeadWorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl HeadWorkerPool {
    /// Create an empty pool; threads are spawned on first use and live for
    /// the pool's lifetime.
    pub fn new() -> Self {
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<PoolJob>();
        Self { state: Mutex::new(PoolState { job_tx: Some(job_tx), job_rx, handles: Vec::new() }) }
    }

    /// Number of threads currently alive in the pool.
    pub fn threads(&self) -> usize {
        self.state.lock().handles.len()
    }

    /// Grow the pool to at least `needed` threads (no-op when already large
    /// enough or after [`HeadWorkerPool::drain`]).
    fn ensure_threads(&self, needed: usize) -> OmpcResult<()> {
        let mut state = self.state.lock();
        while state.job_tx.is_some() && state.handles.len() < needed {
            let rx = state.job_rx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("ompc-head-{}", state.handles.len()))
                .spawn(move || pool_thread_main(rx))
                .map_err(|e| OmpcError::Internal(format!("cannot spawn a head worker: {e}")))?;
            state.handles.push(handle);
        }
        Ok(())
    }

    /// Submit one closure job; fails if the pool has been drained. If the
    /// pool was never sized by a region, one thread is spawned first so the
    /// job cannot strand in the queue.
    pub(crate) fn submit_closure(&self, body: Box<dyn FnOnce() + Send>) -> OmpcResult<()> {
        self.ensure_threads(1)?;
        let tx = self.state.lock().job_tx.clone();
        tx.ok_or_else(|| OmpcError::Internal("head worker pool already drained".to_string()))?
            .send(PoolJob(body))
            .map_err(|_| OmpcError::Internal("head worker pool terminated early".to_string()))
    }

    /// Close the job channel, let in-flight jobs finish, and join every
    /// thread. Idempotent; called on device shutdown.
    pub fn drain(&self) {
        let (tx, handles) = {
            let mut state = self.state.lock();
            (state.job_tx.take(), std::mem::take(&mut state.handles))
        };
        drop(tx);
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for HeadWorkerPool {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Executes a region graph on the real (threaded) cluster through the
/// device's long-lived [`HeadWorkerPool`].
pub struct ThreadedBackend<'a> {
    ctx: Arc<RegionContext>,
    pool: &'a HeadWorkerPool,
}

impl<'a> ThreadedBackend<'a> {
    /// Build a backend delivering `lowering`'s tasks through the device's
    /// pool for one region execution.
    pub(crate) fn new(pool: &'a HeadWorkerPool, lowering: Lowering) -> Self {
        let ctx =
            RegionContext { lowering, prologue: Mutex::new(()), cancelled: AtomicBool::new(false) };
        Self { ctx: Arc::new(ctx), pool }
    }

    /// Drive `core` to completion: size the long-lived pool for this
    /// region, feed it the tasks the core dispatches, and report typed
    /// completion events back. After the run (successful or not) every
    /// outstanding job is drained so no stale work bleeds into the next
    /// region execution.
    pub fn execute(&self, core: &mut RuntimeCore) -> OmpcResult<()> {
        let lowering = &self.ctx.lowering;
        let threads = lowering
            .config
            .head_worker_threads
            .max(1)
            .min(core.window())
            .min(lowering.graph.len())
            .max(1);
        self.pool.ensure_threads(threads)?;
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<(usize, OmpcResult<()>)>();
        let mut driver = HeadPool {
            ctx: &self.ctx,
            pool: self.pool,
            done_tx,
            done_rx,
            outstanding: 0,
            cancelled_held: Vec::new(),
            root_cause_reported: false,
        };
        let result = core.execute(&mut driver);
        if result.is_err() {
            // Fast-fail everything still queued in the pool, then wait for
            // the stragglers so no side effect lands after we return.
            self.ctx.cancelled.store(true, Ordering::SeqCst);
        }
        driver.drain_outstanding();
        // On the success path the epilogue already flushed; after a failed
        // run, flush best-effort so no device copy leaks into the next
        // region.
        let _ = lowering.flush_deletes();
        result
    }
}

/// The [`ExecutionBackend`] face of the head worker pool: `launch` enqueues
/// a task for the pool, `await_completions` blocks on the next outcome and
/// drains any others that arrived in the meantime.
struct HeadPool<'p> {
    ctx: &'p Arc<RegionContext>,
    pool: &'p HeadWorkerPool,
    done_tx: Sender<(usize, OmpcResult<()>)>,
    done_rx: Receiver<(usize, OmpcResult<()>)>,
    /// Jobs launched but not yet reported back, so a failed run can drain
    /// the pool before returning.
    outstanding: usize,
    /// Tasks skipped by the cancellation flag whose synthetic error has
    /// been received but not yet reported to the core. They are released
    /// (as failures) only once the root-cause failure has been reported,
    /// so a synthetic error can never mask the real one — and never
    /// silently vanish, which would strand the task in flight.
    cancelled_held: Vec<(usize, OmpcError)>,
    /// Whether a real (non-synthetic) task failure has been reported to
    /// the core since the run started.
    root_cause_reported: bool,
}

impl HeadPool<'_> {
    /// Wait for every launched job to report back (used after a failed run;
    /// on a successful run nothing is outstanding).
    fn drain_outstanding(&mut self) {
        while self.outstanding > 0 {
            match self.done_rx.recv() {
                Ok(_) => self.outstanding -= 1,
                Err(_) => break,
            }
        }
    }
}

impl ExecutionBackend for HeadPool<'_> {
    fn launch(&mut self, task: usize, node: NodeId) -> OmpcResult<()> {
        let ctx = Arc::clone(self.ctx);
        let done = self.done_tx.clone();
        self.pool.submit_closure(Box::new(move || {
            // A panic must still produce an outcome, or the driver would
            // wait for this job forever.
            let res =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.run(task, node)))
                    .unwrap_or_else(|_| {
                        Err(OmpcError::Internal(format!(
                            "head pool thread panicked while executing task {task}"
                        )))
                    });
            // The driver may already have gone away (the run failed); the
            // outcome is then irrelevant.
            let _ = done.send((task, res));
        }))?;
        self.outstanding += 1;
        Ok(())
    }

    /// Outcomes are forwarded to the core as typed [`TaskEvent`]s: the core
    /// owns the propagate-vs-restart policy. A synthetic cancellation
    /// error can race ahead of the failure that tripped the flag, so it is
    /// held back until the root-cause failure has been reported — the
    /// failing task's thread is guaranteed to report it after setting the
    /// flag — and only then released as a failure of its own, ordered
    /// after the root cause. It is never dropped: every launched task
    /// produces exactly one event, so the core can never be left waiting
    /// for a task the pool silently skipped (e.g. when the root cause
    /// turns out to be stale and the run continues).
    fn await_completions(&mut self) -> OmpcResult<Vec<TaskEvent>> {
        let mut events = Vec::new();
        loop {
            // Block only while there is nothing to report: a synthetic
            // cancellation alone is not reportable yet (it would mask the
            // root cause), so it keeps the loop blocking until the real
            // failure arrives; once any real event is in hand, drain
            // without blocking and let the core decide.
            let received = if events.is_empty() {
                match self.done_rx.recv() {
                    Ok(pair) => pair,
                    Err(_) => {
                        return Err(OmpcError::Internal(
                            "head worker pool disappeared".to_string(),
                        ));
                    }
                }
            } else {
                match self.done_rx.try_recv() {
                    Ok(pair) => pair,
                    Err(_) => break,
                }
            };
            self.outstanding -= 1;
            let (task, result) = received;
            match result {
                Ok(()) => events.push(TaskEvent::Completed(task)),
                Err(e) if matches!(&e, OmpcError::Internal(m) if m == CANCELLED_MSG) => {
                    if self.root_cause_reported {
                        // The root cause already reached the core in an
                        // earlier batch; this synthetic is immediately
                        // reportable (holding it could block forever if
                        // every remaining task is cancelled).
                        events.push(TaskEvent::Failed { task, error: e });
                    } else {
                        self.cancelled_held.push((task, e));
                    }
                }
                Err(error) => {
                    self.root_cause_reported = true;
                    events.push(TaskEvent::Failed { task, error });
                }
            }
        }
        // With the root cause on its way to the core, the held synthetic
        // failures are reportable: ordered after it, they can no longer
        // mask it. If the core classifies the root cause as stale and
        // keeps running, these propagate instead of hanging the dispatch
        // loop on tasks the pool never executed.
        if self.root_cause_reported {
            for (task, error) in self.cancelled_held.drain(..) {
                events.push(TaskEvent::Failed { task, error });
            }
        }
        Ok(events)
    }

    fn epilogue(&mut self) -> OmpcResult<()> {
        // Only deferred maintenance that never found a task to ride is left.
        self.ctx.lowering.flush_deletes()
    }

    fn invalidate_node(&mut self, node: NodeId) -> Vec<LostBuffer> {
        self.ctx.lowering.invalidate_node(node)
    }

    fn replan(&mut self, alive_workers: &[NodeId]) -> Option<Vec<NodeId>> {
        Some(self.ctx.lowering.replan(alive_workers))
    }
}
