//! The cluster device: the head-node runtime that owns the worker threads,
//! schedules target regions, and drives the event system.
//!
//! This is the real execution mode: every worker node is an OS thread
//! running [`crate::worker::worker_main`], messages travel through the
//! `ompc-mpi` substrate, and kernels execute real Rust code. The
//! simulated mode used for the large-scale benchmark figures lives in
//! [`crate::sim_runtime`] and reuses the same scheduler and data-manager
//! logic.

use crate::buffer::BufferRegistry;
use crate::collective::{run_broadcast, BroadcastSource, BroadcastSpec};
use crate::config::BackendKind;
use crate::config::OmpcConfig;
use crate::data_manager::{
    Booking, DataManager, Owner, Ticket, TransferPlan, TransferReason, TransferState, HEAD_NODE,
    UNATTRIBUTED,
};
use crate::event::EventSystem;
use crate::kernel::{Kernel, KernelArgs, KernelRegistry};
use crate::model::WorkloadGraph;
use crate::region::TargetRegion;
use crate::runtime::fault::{FaultPlan, FaultState};
use crate::runtime::lowering::{Commit, DataPath, Lowering};
use crate::runtime::telemetry::{monotonic_us, Span, SpanPhase, Telemetry};
use crate::runtime::{MpiBackend, ResidencyMap, RunRecord, RuntimeCore, RuntimePlan};
use crate::stats::{DeviceReport, RegionReport};
use crate::task::{RegionGraph, TaskKind};
use crate::types::{BufferId, Dependence, KernelId, MapType, NodeId, OmpcError, OmpcResult};
use crate::worker::worker_main;
use ompc_mpi::{CommId, World};
use ompc_sched::Platform;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A host-task body: runs on the head node with access to the host buffers.
pub type HostFn = Arc<dyn Fn(&BufferRegistry) + Send + Sync>;

/// One job of the async data path: a closure that carries its own
/// bookkeeping, so the pool only has to run it.
type TransferJob = Box<dyn FnOnce() + Send>;

/// The async data path's background thread (async enter-data, cross-region
/// prefetch, double-buffered flushes): spawned on the first job, fed jobs in
/// order, joined by [`TransferPool::drain`] at device shutdown.
#[derive(Default)]
struct TransferPool(Mutex<TransferThread>);

#[derive(Default)]
enum TransferThread {
    #[default]
    Idle,
    Running(crossbeam::channel::Sender<TransferJob>, JoinHandle<()>),
    /// Drained at shutdown: submissions fail from then on.
    Drained,
}

impl TransferPool {
    /// Queue one job, spawning the thread first if need be; fails once the
    /// pool has been drained.
    fn submit(&self, job: TransferJob) -> OmpcResult<()> {
        let mut thread = self.0.lock();
        if matches!(*thread, TransferThread::Idle) {
            let (tx, rx) = crossbeam::channel::unbounded::<TransferJob>();
            let handle = std::thread::Builder::new()
                .name("ompc-transfer".to_string())
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // A panicking job must not take the thread with it:
                        // every later job would strand in the queue.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    }
                })
                .map_err(|e| {
                    OmpcError::Internal(format!("cannot spawn the transfer thread: {e}"))
                })?;
            *thread = TransferThread::Running(tx, handle);
        }
        match &*thread {
            TransferThread::Running(tx, _) => tx.send(job).map_err(|_| OmpcError::ShutDown),
            _ => Err(OmpcError::ShutDown),
        }
    }

    /// Refuse new jobs, let the queued ones finish, and join the thread.
    /// Idempotent.
    fn drain(&self) {
        let thread = std::mem::replace(&mut *self.0.lock(), TransferThread::Drained);
        if let TransferThread::Running(tx, handle) = thread {
            drop(tx);
            let _ = handle.join();
        }
    }
}

/// How a device-level lazy flush is committed: outside any region, as a
/// `HostFlush` span with the given detail.
fn host_flush(detail: &'static str) -> Commit {
    Commit { region: UNATTRIBUTED, phase: SpanPhase::HostFlush, task: None, detail }
}

/// Compatibility key of a parked worker pool: only a device asking for the
/// same worker count, communicator fan-out, handler threads, and reply
/// timeout can adopt it — `(num_workers, num_communicators,
/// event_handler_threads, event_reply_timeout_ms)`.
type WarmKey = (usize, u32, usize, Option<u64>);

/// A worker pool kept alive between device lifetimes: the communication
/// world, the shared kernel table (cleared on adoption — the fat binary is
/// re-populated by the new lifetime's registrations), the event system (its
/// tag counter continues, keeping tags device-unique across lifetimes), and
/// the gate-thread handles.
struct WarmWorkers {
    world: World,
    kernels: Arc<KernelRegistry>,
    events: Arc<EventSystem>,
    worker_handles: Vec<JoinHandle<()>>,
}

/// Parked worker pools, by compatibility key. Fig. 7(a) attributes ~80% of
/// small-run overhead to cluster start-up; with
/// [`OmpcConfig::warm_worker_keepalive`] a shut-down device parks its
/// healthy workers here instead of joining them, and the next compatible
/// device adopts them for a near-zero start-up. Parked gate threads persist
/// until adopted or process exit.
static WARM_WORKERS: Mutex<Vec<(WarmKey, WarmWorkers)>> = Mutex::new(Vec::new());

fn warm_key(num_workers: usize, config: &OmpcConfig) -> WarmKey {
    (
        num_workers,
        config.num_communicators,
        config.event_handler_threads,
        config.event_reply_timeout_ms,
    )
}

fn adopt_warm_workers(key: &WarmKey) -> Option<WarmWorkers> {
    let mut pool = WARM_WORKERS.lock();
    let idx = pool.iter().position(|(k, _)| k == key)?;
    Some(pool.swap_remove(idx).1)
}

/// FIFO turnstile for concurrent region executions: callers of
/// [`ClusterDevice::execute_region`] / [`ClusterDevice::run_workload`] are
/// admitted strictly in arrival order, at most
/// [`OmpcConfig::max_concurrent_regions`] inside at once — a small region
/// can queue behind a large one but can never be starved by later
/// arrivals.
#[derive(Default)]
struct AdmissionGate {
    /// Regions currently admitted (inside an execution).
    running: usize,
    /// Next arrival ticket to hand out.
    next_ticket: u64,
    /// The arrival ticket currently first in line.
    serving: u64,
}

/// What an admitted region holds until its execution finishes: the
/// admission slot, and — once planning registered it — the per-node load
/// reservation that seeds later tenants' schedules. Dropping the lease,
/// on success or error, releases both and wakes the admission queue.
struct RegionLease<'d> {
    device: &'d ClusterDevice,
    region: u64,
}

impl Drop for RegionLease<'_> {
    fn drop(&mut self) {
        self.device.inflight_load.lock().remove(&self.region);
        self.device.admission.lock().running -= 1;
        self.device.admission_cv.notify_all();
    }
}

/// The OMPC cluster device.
///
/// ```
/// use ompc_core::cluster::ClusterDevice;
/// use ompc_core::types::Dependence;
///
/// let mut device = ClusterDevice::spawn(2);
/// let scale = device.register_kernel_fn("scale", 1e-6, |args| {
///     let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 2.0).collect();
///     args.set_f64s(0, &v);
/// });
/// let mut region = device.target_region();
/// let a = region.map_to_f64s(&[1.0, 2.0, 3.0]);
/// region.target(scale, vec![Dependence::inout(a)]);
/// region.map_from(a);
/// region.run().unwrap();
/// assert_eq!(device.buffer_f64s(a).unwrap(), vec![2.0, 4.0, 6.0]);
/// device.shutdown();
/// ```
pub struct ClusterDevice {
    /// The communication world; `None` only after its workers were parked
    /// for adoption by a later device lifetime.
    world: Option<World>,
    kernels: Arc<KernelRegistry>,
    buffers: Arc<BufferRegistry>,
    events: Arc<EventSystem>,
    dm: Arc<Mutex<DataManager>>,
    config: OmpcConfig,
    num_workers: usize,
    worker_handles: Vec<JoinHandle<()>>,
    /// The asynchronous data path's own thread (async enter-data,
    /// cross-region prefetch, double-buffered flushes): a region task
    /// waiting for one of its transfers parks on the head while the job
    /// moves the bytes.
    transfer_pool: TransferPool,
    /// Paired with `dm`'s mutex; notified whenever an async data-path job
    /// resolves an in-flight entry. First readers, concurrent flushes, and
    /// ticket awaiters block here.
    inflight_cv: Arc<Condvar>,
    /// Test-only freeze gate for async transfer jobs (see
    /// [`ClusterDevice::debug_hold_async_transfers`]). Its condvar pairs
    /// with its *own* mutex, never with `dm`'s.
    async_hold: Arc<(Mutex<bool>, Condvar)>,
    report: Mutex<DeviceReport>,
    /// Admission control for concurrent region executions: FIFO over
    /// arrival order, at most [`OmpcConfig::max_concurrent_regions`]
    /// inside at once. Paired with `admission_cv`.
    admission: Mutex<AdmissionGate>,
    admission_cv: Condvar,
    /// Estimated per-node compute seconds still in flight per admitted
    /// region: the reservation the next admitted region's schedule is
    /// seeded with ([`RuntimePlan::region_assignment_with_load`]), so
    /// tenants spread across the shared workers instead of piling onto
    /// the serially-optimal nodes.
    inflight_load: Mutex<HashMap<u64, HashMap<NodeId, f64>>>,
    /// Decision record of the most recent region / workload execution,
    /// including any failure and recovery events.
    last_record: Mutex<Option<RunRecord>>,
    /// Lazily registered no-op kernel shared by every `run_workload` call.
    workload_kernel: std::sync::OnceLock<KernelId>,
    /// Device-owned span recorder, built from [`OmpcConfig::telemetry`].
    /// Spans accumulate here during a run and are drained into that run's
    /// [`RunRecord::spans`]; at the Off level it never reads a clock.
    telemetry: Arc<Telemetry>,
    shut_down: bool,
}

impl ClusterDevice {
    /// Spawn a cluster with `num_workers` worker nodes (plus the implicit
    /// head node) using the default configuration.
    pub fn spawn(num_workers: usize) -> Self {
        Self::with_config(num_workers, OmpcConfig::small())
    }

    /// Spawn a cluster with an explicit configuration. With
    /// [`OmpcConfig::warm_worker_keepalive`], a compatible worker pool
    /// parked by an earlier lifetime's [`ClusterDevice::shutdown`] is
    /// adopted instead of spawning fresh workers — the dominant start-up
    /// cost of small runs (Fig. 7(a)) drops to a registry reset.
    pub fn with_config(num_workers: usize, config: OmpcConfig) -> Self {
        assert!(num_workers > 0, "the cluster needs at least one worker node");
        // A world needs at least one communicator; a zero knob means "the
        // minimum", not a panic. Clamped once here so world construction
        // and the warm-pool key (here and at shutdown) read the same value.
        let config = OmpcConfig { num_communicators: config.num_communicators.max(1), ..config };
        let start = Instant::now();
        let adopted = if config.warm_worker_keepalive {
            adopt_warm_workers(&warm_key(num_workers, &config))
        } else {
            None
        };
        let (world, kernels, events, worker_handles) = match adopted {
            Some(warm) => {
                // The previous lifetime's kernel table is stale; clearing
                // it restarts kernel ids from 0, exactly as a cold start
                // would assign them. (Device memories were already cleared
                // by the reset events at parking time.)
                warm.kernels.clear();
                (warm.world, warm.kernels, warm.events, warm.worker_handles)
            }
            None => {
                let world = World::with_communicators(num_workers + 1, config.num_communicators);
                let kernels = Arc::new(KernelRegistry::new());
                let mut worker_handles = Vec::with_capacity(num_workers);
                for node in 1..=num_workers {
                    let comm = world.communicator(node);
                    let kernels = Arc::clone(&kernels);
                    let handler_threads = config.event_handler_threads;
                    worker_handles.push(
                        std::thread::Builder::new()
                            .name(format!("ompc-worker-{node}"))
                            .spawn(move || worker_main(comm, kernels, handler_threads))
                            .expect("failed to spawn worker node thread"),
                    );
                }
                let events = Arc::new(EventSystem::with_reply_timeout(
                    world.communicator(HEAD_NODE),
                    config.event_reply_timeout_ms.map(std::time::Duration::from_millis),
                ));
                (world, kernels, events, worker_handles)
            }
        };
        // Applied to warm-adopted worlds too: the previous lifetime may
        // have paced (or not paced) its links differently.
        world.set_link_bandwidth(config.emulated_link_mib_per_s as u64 * 1024 * 1024);
        let startup_time = start.elapsed();
        let telemetry = Telemetry::new(config.telemetry);
        Self {
            world: Some(world),
            kernels,
            buffers: Arc::new(BufferRegistry::new()),
            events,
            dm: Arc::new(Mutex::new(DataManager::new())),
            config,
            num_workers,
            worker_handles,
            transfer_pool: TransferPool::default(),
            inflight_cv: Arc::new(Condvar::new()),
            async_hold: Arc::new((Mutex::new(false), Condvar::new())),
            report: Mutex::new(DeviceReport { startup_time, ..DeviceReport::default() }),
            admission: Mutex::default(),
            admission_cv: Condvar::new(),
            inflight_load: Mutex::new(HashMap::new()),
            last_record: Mutex::new(None),
            workload_kernel: std::sync::OnceLock::new(),
            telemetry,
            shut_down: false,
        }
    }

    /// Number of worker nodes.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The runtime configuration.
    pub fn config(&self) -> &OmpcConfig {
        &self.config
    }

    /// Register a kernel object.
    pub fn register_kernel(&self, kernel: Arc<dyn Kernel>) -> KernelId {
        self.kernels.register(kernel)
    }

    /// Register a closure as a kernel with a cost hint in seconds.
    pub fn register_kernel_fn<F>(&self, name: &str, cost: f64, f: F) -> KernelId
    where
        F: Fn(&mut KernelArgs<'_>) + Send + Sync + 'static,
    {
        self.kernels.register_fn(name, cost, f)
    }

    /// Register host data as a mapped buffer without scheduling any data
    /// movement (movement happens through a region's enter/exit data).
    pub fn map_buffer(&self, data: Vec<u8>) -> BufferId {
        self.buffers.register(data)
    }

    /// Device-level unstructured `target enter data`: register `data` as a
    /// mapped buffer that is **resident** across region executions. No
    /// bytes move yet — the first region task that reads the buffer pulls
    /// it onto its worker, and from then on it stays there: later regions
    /// generate no enter-data transfer, a region-level `map(from:)`
    /// flushes it to the host without dropping the device copies, and only
    /// [`ClusterDevice::exit_data`] (or a region-level `map(release:)`)
    /// ends the mapping.
    ///
    /// ```
    /// use ompc_core::cluster::ClusterDevice;
    /// use ompc_core::types::Dependence;
    ///
    /// let mut device = ClusterDevice::spawn(1);
    /// let bump = device.register_kernel_fn("bump", 1e-6, |args| {
    ///     let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
    ///     args.set_f64s(0, &v);
    /// });
    /// let a = device.enter_data_f64s(&[1.0, 2.0]);
    /// for _ in 0..3 {
    ///     let mut region = device.target_region();
    ///     region.target(bump, vec![Dependence::inout(a)]);
    ///     region.run().unwrap();
    /// }
    /// // The host copy is flushed lazily: reading the buffer retrieves
    /// // the device-resident latest version.
    /// assert_eq!(device.buffer_f64s(a).unwrap(), vec![4.0, 5.0]);
    /// // Ending the mapping releases the device copies.
    /// device.exit_data(a).unwrap();
    /// device.shutdown();
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the device has been shut down — the mapping could never
    /// be used, so the misuse is reported here rather than as a confusing
    /// error from a later region.
    pub fn enter_data(&self, data: Vec<u8>) -> BufferId {
        assert!(!self.shut_down, "enter_data on a shut-down ClusterDevice");
        if self.config.enter_data_async {
            return self.enter_data_async(data).0;
        }
        let bytes = data.len() as u64;
        let buffer = self.buffers.register(data);
        let mut dm = self.dm.lock();
        dm.register_host_buffer(buffer, bytes);
        dm.mark_resident(buffer);
        buffer
    }

    /// Convenience: [`ClusterDevice::enter_data`] for a slice of `f64`s.
    pub fn enter_data_f64s(&self, values: &[f64]) -> BufferId {
        self.enter_data(ompc_mpi::typed::f64s_to_bytes(values))
    }

    /// [`ClusterDevice::enter_data`] that starts distributing the data
    /// **immediately**: the destination is predicted by scheduling a
    /// synthetic single-reader region against the current residency view,
    /// the movement is booked in the data manager's in-flight table, and a
    /// dedicated transfer pool pushes the bytes while the caller keeps
    /// building (or running) regions. Returns the buffer plus a
    /// [`Ticket`]; awaiting it ([`ClusterDevice::await_transfer`]) is
    /// optional — the first region task that reads the buffer **awaits the
    /// in-flight transfer in place** instead of re-submitting it, and a
    /// reader scheduled onto a different node than predicted just pays one
    /// extra hop (prediction misses cost bandwidth, never correctness).
    pub fn enter_data_async(&self, data: Vec<u8>) -> (BufferId, Ticket) {
        assert!(!self.shut_down, "enter_data_async on a shut-down ClusterDevice");
        let bytes = data.len() as u64;
        let buffer = self.buffers.register(data);
        let ticket = {
            let mut dm = self.dm.lock();
            dm.register_host_buffer(buffer, bytes);
            dm.mark_resident(buffer);
            dm.open_ticket()
        };
        // `Input`, not `EnterData`: the synchronous path distributes a
        // device-resident mapping lazily through the first reader's own
        // booking, so the async record must carry the same reason for the
        // transfer plans to compare byte-identical.
        if let Some(node) = self.predict_first_reader(buffer) {
            let booked =
                self.dm.lock().book(Owner::Ticket(ticket), buffer, node, TransferReason::Input);
            if let Ok(Booking::Move(plan)) = booked {
                self.spawn_transfer_job(plan, "async enter-data");
            }
        }
        (buffer, ticket)
    }

    /// Convenience: [`ClusterDevice::enter_data_async`] for `f64`s.
    pub fn enter_data_async_f64s(&self, values: &[f64]) -> (BufferId, Ticket) {
        self.enter_data_async(ompc_mpi::typed::f64s_to_bytes(values))
    }

    /// Block until every transfer booked under `ticket` has resolved and
    /// return the batch outcome. Unknown (or already awaited) tickets read
    /// as completed.
    pub fn await_transfer(&self, ticket: Ticket) -> OmpcResult<()> {
        let mut dm = self.dm.lock();
        loop {
            match dm.ticket_result(ticket) {
                Some(outcome) => return outcome,
                None => self.inflight_cv.wait(&mut dm),
            }
        }
    }

    /// Start bringing the host copy of `buffer` up to date **without
    /// blocking**: the retrieval runs on the transfer pool and overlaps
    /// whatever the caller does next (the double-buffered flush of the
    /// async data path). Returns a [`Ticket`]; a concurrent
    /// [`ClusterDevice::buffer_data`] of the same buffer waits for this
    /// retrieval instead of scheduling a second one. When a retrieval of
    /// the buffer is already in flight its ticket is returned instead of
    /// booking a duplicate.
    pub fn flush_async(&self, buffer: BufferId) -> OmpcResult<Ticket> {
        if self.shut_down {
            return Err(OmpcError::ShutDown);
        }
        let (from, ticket) = {
            let mut dm = self.dm.lock();
            if !dm.is_registered(buffer) {
                return Ok(dm.open_ticket());
            }
            if let TransferState::InFlight(Owner::Ticket(t)) = dm.transfer_state(buffer, HEAD_NODE)
            {
                return Ok(t);
            }
            let ticket = dm.open_ticket();
            match dm.begin_inflight_retrieve(buffer, ticket) {
                Some(from) => (from, ticket),
                // The host already holds the latest version.
                None => return Ok(ticket),
            }
        };
        self.spawn_async_job(vec![(buffer, HEAD_NODE)], move |path| {
            vec![path.retrieve_and_commit(from, buffer, &host_flush("double-buffered flush"))]
        });
        Ok(ticket)
    }

    /// Test hook: freeze every async transfer job before it touches the
    /// wire (`true`), or release them (`false`). Lets fault-tolerance tests
    /// deterministically arrange "the destination dies while the prefetch
    /// is in flight" without racing the wire.
    #[doc(hidden)]
    pub fn debug_hold_async_transfers(&self, hold: bool) {
        let (lock, cv) = &*self.async_hold;
        *lock.lock() = hold;
        if !hold {
            cv.notify_all();
        }
    }

    /// Predict which worker the first reader of `buffer` will be scheduled
    /// onto, by planning a synthetic single-reader region against the
    /// current residency view — the same scheduler the real region will
    /// consult, so for single-reader shapes the prediction is exact.
    fn predict_first_reader(&self, buffer: BufferId) -> Option<NodeId> {
        let alive = self.alive_workers();
        if alive.is_empty() {
            return None;
        }
        let mut probe = RegionGraph::new();
        probe.add_task(
            TaskKind::Target { kernel: KernelId(0), cost_hint: 1e-6 },
            vec![Dependence::input(buffer)],
            "async-enter-data probe".to_string(),
        );
        let residency = self.dm.lock().latest_on_workers();
        let assignment = RuntimePlan::region_assignment_on(
            &probe,
            &self.buffers,
            &Platform::cluster(alive.len()),
            &self.config,
            &alive,
            &residency,
        );
        assignment.first().copied().filter(|&n| n != HEAD_NODE)
    }

    /// Block while the test-only hold gate is closed.
    fn wait_hold(hold: &(Mutex<bool>, Condvar)) {
        let (lock, cv) = hold;
        let mut held = lock.lock();
        while *held {
            cv.wait(&mut held);
        }
    }

    /// Finish `bookings` — `(buffer, node)` pairs this caller booked in the
    /// data manager — each with its outcome (one per booking, in order), and
    /// wake every waiter. A buffer released meanwhile has nothing left to
    /// finish.
    fn resolve(
        dm: &Mutex<DataManager>,
        cv: &Condvar,
        bookings: &[(BufferId, NodeId)],
        outcomes: Vec<OmpcResult<()>>,
    ) {
        let mut dm = dm.lock();
        for (&(buffer, node), outcome) in bookings.iter().zip(outcomes) {
            let _ = dm.finish(buffer, node, outcome);
        }
        drop(dm);
        cv.notify_all();
    }

    /// Run `job` on the transfer pool on behalf of `bookings` and resolve
    /// each with the outcome the job returns for it. If the pool is already
    /// drained (device shutting down) the bookings are resolved as failed
    /// immediately, so no waiter ever blocks on a job that will not run.
    fn spawn_async_job(
        &self,
        bookings: Vec<(BufferId, NodeId)>,
        job: impl FnOnce(&DataPath) -> Vec<OmpcResult<()>> + Send + 'static,
    ) {
        let path = self.data_path();
        let cv = Arc::clone(&self.inflight_cv);
        let hold = Arc::clone(&self.async_hold);
        let queued = bookings.clone();
        let submitted = self.transfer_pool.submit(Box::new(move || {
            Self::wait_hold(&hold);
            let outcomes = job(&path);
            Self::resolve(&path.dm, &cv, &queued, outcomes);
        }));
        if submitted.is_err() {
            let outcomes = bookings.iter().map(|_| Err(OmpcError::ShutDown)).collect();
            Self::resolve(&self.dm, &self.inflight_cv, &bookings, outcomes);
        }
    }

    /// Submit one booked async movement to the transfer pool: push it over
    /// the wire and record a `Prefetch` span for the overlap.
    fn spawn_transfer_job(&self, plan: TransferPlan, detail: &'static str) {
        self.spawn_async_job(vec![(plan.buffer, plan.to)], move |path| {
            vec![Self::run_prefetch(path, plan.from, plan.to, &[plan.buffer], detail)]
        });
    }

    /// Submit one per-node prefetch *train*: every payload streams
    /// back-to-back on one channel and the worker answers once, so a
    /// k-buffer prefetch costs one round-trip instead of k. All-or-nothing:
    /// a failed train rolls back every booking it carried.
    fn spawn_train_job(&self, node: NodeId, plans: Vec<TransferPlan>) {
        let buffers: Vec<BufferId> = plans.iter().map(|p| p.buffer).collect();
        let bookings = buffers.iter().map(|&b| (b, node)).collect();
        self.spawn_async_job(bookings, move |path| {
            let outcome = Self::run_prefetch(path, HEAD_NODE, node, &buffers, "prefetch train");
            vec![outcome; buffers.len()]
        });
    }

    /// Body of an async movement of `buffers` from `from` to `to`: a submit
    /// train from the head, an exchange between workers.
    fn run_prefetch(
        path: &DataPath,
        from: NodeId,
        to: NodeId,
        buffers: &[BufferId],
        detail: &'static str,
    ) -> OmpcResult<()> {
        // The destination may have died while the job sat in the queue (or
        // behind the hold gate): fail without touching the wire, so the
        // bookings roll back deterministically.
        if path.dm.lock().is_failed(to) {
            return Err(OmpcError::NodeFailure(to));
        }
        let t0 = path.telemetry.start();
        let mut total = 0u64;
        if from == HEAD_NODE {
            let mut cars = Vec::with_capacity(buffers.len());
            for &buffer in buffers {
                let data = path.buffers.share(buffer)?;
                total += data.len() as u64;
                cars.push((buffer, data));
            }
            path.events.submit_train(to, cars)?;
        } else {
            for &buffer in buffers {
                total += path.events.exchange(from, to, buffer)?;
            }
        }
        if path.telemetry.spans_enabled() {
            path.telemetry.record(
                Span::new(SpanPhase::Prefetch, to, t0, monotonic_us())
                    .bytes(total)
                    .from(from)
                    .detail(detail),
            );
        }
        Ok(())
    }

    /// The device's data-path machinery, as its jobs and region executions
    /// take it.
    fn data_path(&self) -> DataPath {
        DataPath {
            events: Arc::clone(&self.events),
            buffers: Arc::clone(&self.buffers),
            dm: Arc::clone(&self.dm),
            telemetry: Arc::clone(&self.telemetry),
        }
    }

    /// Device-level unstructured `target exit data map(from:)`: flush the
    /// buffer's latest contents back to the host (a no-op when the host
    /// already holds the latest version) and release every device copy,
    /// ending the mapping. The host copy stays readable through
    /// [`ClusterDevice::buffer_data`].
    pub fn exit_data(&self, buffer: BufferId) -> OmpcResult<()> {
        if self.shut_down {
            return Err(OmpcError::ShutDown);
        }
        self.flush_to_host(buffer)?;
        crate::runtime::release_device_copies(&self.dm, &self.events, &self.telemetry, &[buffer])
    }

    /// Bring the host copy of `buffer` up to date when its latest version
    /// is resident on a worker (the lazy host flush of the residency
    /// protocol). Device copies stay mapped — a flush is a read. Nothing
    /// is committed until the bytes land: a failed retrieval surfaces as
    /// an error and the next read retries from the then-latest holder
    /// instead of silently trusting a stale host copy.
    ///
    /// Concurrent flushes of one buffer are **serialized through the
    /// in-flight table**: the first reader books the retrieval, later
    /// readers (and [`ClusterDevice::flush_async`] jobs) wait for it to
    /// land instead of scheduling a second retrieve of the same bytes —
    /// the fix for the latent double-flush.
    fn flush_to_host(&self, buffer: BufferId) -> OmpcResult<()> {
        let (from, ticket) = {
            let mut dm = self.dm.lock();
            if !dm.is_registered(buffer) {
                return Ok(());
            }
            let mut wait_t0 = None;
            while matches!(dm.transfer_state(buffer, HEAD_NODE), TransferState::InFlight(_)) {
                if wait_t0.is_none() {
                    wait_t0 = Some(self.telemetry.start());
                }
                self.inflight_cv.wait(&mut dm);
            }
            if let Some(t0) = wait_t0 {
                if self.telemetry.spans_enabled() {
                    self.telemetry.record(
                        Span::new(SpanPhase::AwaitInflight, HEAD_NODE, t0, monotonic_us())
                            .detail("flush waits for in-flight retrieval"),
                    );
                }
            }
            let ticket = dm.open_ticket();
            match dm.begin_inflight_retrieve(buffer, ticket) {
                Some(from) => (from, ticket),
                None => {
                    // The host already holds the latest version (possibly
                    // because the retrieval we just waited for landed it).
                    let _ = dm.ticket_result(ticket);
                    return Ok(());
                }
            }
        };
        let outcome =
            self.data_path().retrieve_and_commit(from, buffer, &host_flush("lazy host flush"));
        Self::resolve(&self.dm, &self.inflight_cv, &[(buffer, HEAD_NODE)], vec![outcome.clone()]);
        let _ = self.dm.lock().ticket_result(ticket);
        outcome
    }

    /// Drain the transfers planned *outside* any region execution — lazy
    /// host flushes ([`ClusterDevice::buffer_data`]) and device-level
    /// [`ClusterDevice::exit_data`] retrievals. Transfers planned during a
    /// region run are attributed to that run's
    /// [`RunRecord::transfers`](crate::runtime::RunRecord::transfers)
    /// instead and never appear here; undrained entries are discarded when
    /// the next region begins.
    pub fn take_unattributed_transfers(&self) -> Vec<crate::data_manager::TransferRecord> {
        self.dm.lock().take_transfer_log_in(UNATTRIBUTED)
    }

    /// The current region epoch: 0 before any region has executed,
    /// incremented once per region execution. Together with
    /// [`ClusterDevice::buffer_epoch`] this makes cross-region residency
    /// observable — a buffer whose epoch is older than the device's has
    /// been carried across regions, not re-registered.
    pub fn region_epoch(&self) -> u64 {
        self.dm.lock().epoch()
    }

    /// The region epoch that last registered or wrote `buffer` (`None`
    /// when the buffer is not currently mapped).
    pub fn buffer_epoch(&self, buffer: BufferId) -> Option<u64> {
        self.dm.lock().buffer_epoch(buffer)
    }

    /// Registered cost hint of a kernel (seconds), used by regions to feed
    /// the static scheduler.
    pub fn kernel_cost(&self, id: KernelId) -> f64 {
        self.kernels.get(id).map(|k| k.cost_hint()).unwrap_or(1e-4)
    }

    /// Current contents of a buffer, flushed lazily: when the latest
    /// version is resident on a worker node (a cross-region mapping whose
    /// data was produced on the cluster and never exited), it is retrieved
    /// to the host first, so the returned bytes are never stale. The
    /// device copies stay mapped. After [`ClusterDevice::shutdown`] the
    /// host copy is returned as-is.
    pub fn buffer_data(&self, id: BufferId) -> OmpcResult<Vec<u8>> {
        if !self.shut_down {
            self.flush_to_host(id)?;
        }
        self.buffers.get(id)
    }

    /// [`ClusterDevice::buffer_data`] interpreted as `f64`s (flushed
    /// lazily the same way).
    pub fn buffer_f64s(&self, id: BufferId) -> OmpcResult<Vec<f64>> {
        let data = self.buffer_data(id)?;
        ompc_mpi::typed::bytes_to_f64s(&data).map_err(|e| OmpcError::Internal(e.to_string()))
    }

    /// The host buffer registry (used by host tasks and examples).
    pub fn buffers(&self) -> &Arc<BufferRegistry> {
        &self.buffers
    }

    /// Open a new target region on this device.
    pub fn target_region(&self) -> TargetRegion<'_> {
        TargetRegion::new(self)
    }

    /// Timing report accumulated over the device lifetime.
    pub fn report(&self) -> DeviceReport {
        self.report.lock().clone()
    }

    /// Mailbox gauges of every rank of the device's world, head node first:
    /// messages delivered, receivers woken, empty wake-ups, the unexpected
    /// queue's high-water mark and depth, and the receives blocked right
    /// now. Reads no clock and stops nothing; empty once the workers have
    /// been parked or joined.
    pub fn mailbox_stats(&self) -> Vec<ompc_mpi::MailboxStats> {
        let Some(world) = &self.world else { return Vec::new() };
        (0..=self.num_workers).map(|rank| world.communicator(rank).mailbox_stats()).collect()
    }

    /// Decision record of the most recent region / workload execution:
    /// assignment, dispatch and completion orders, and — when a
    /// [`crate::runtime::fault::FaultPlan`] was active — the failure
    /// detection, re-execution, and recovery events.
    pub fn last_run_record(&self) -> Option<RunRecord> {
        self.last_record.lock().clone()
    }

    /// Worker nodes not declared failed by the fault subsystem, ascending.
    pub fn alive_workers(&self) -> Vec<NodeId> {
        let dm = self.dm.lock();
        (1..=self.num_workers).filter(|&n| !dm.is_failed(n)).collect()
    }

    /// Shut the cluster down: the transfer pool drains (in-flight jobs
    /// finish, its thread is joined), then workers receive shutdown events
    /// and their threads are joined. With
    /// [`OmpcConfig::warm_worker_keepalive`], a healthy worker pool is
    /// *parked* for the next compatible device lifetime instead of joined:
    /// every device memory is cleared by a reset round-trip and the event
    /// counters restart, so adoption is indistinguishable from a cold start
    /// except for the missing spawn cost. Pools that saw a node failure are
    /// never parked. Called automatically on drop.
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        let start = Instant::now();
        // Release the test-only hold gate and drain the async data path: an
        // in-flight prefetch must land (or fail fast) before the workers go
        // away.
        self.debug_hold_async_transfers(false);
        self.transfer_pool.drain();
        if self.config.warm_worker_keepalive && self.try_park_workers() {
            self.report.lock().shutdown_time = start.elapsed();
            return;
        }
        for node in 1..=self.num_workers {
            let _ = self.events.shutdown(node);
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        self.report.lock().shutdown_time = start.elapsed();
    }

    /// Try to park this device's workers for adoption by a later lifetime.
    /// Returns `false` (caller falls back to a cold shutdown) when any node
    /// failed, any reset round-trip fails, or the world was already taken.
    fn try_park_workers(&mut self) -> bool {
        {
            let dm = self.dm.lock();
            if (1..=self.num_workers).any(|n| dm.is_failed(n)) {
                return false;
            }
        }
        // Clear every worker's device memory now, synchronously: an error
        // (a dying handler, a wedged gate) disqualifies the pool.
        for node in 1..=self.num_workers {
            if self.events.reset(node).is_err() {
                return false;
            }
        }
        let Some(world) = self.world.take() else { return false };
        // The adopting lifetime starts with an empty head mailbox: a late
        // leftover of a failed run (a reply or notice on some execution's
        // device-unique channel) must not leak into it as a stale message.
        let head = self.events.communicator();
        for comm in (0..head.num_communicators()).filter_map(|c| head.on(CommId(c)).ok()) {
            while comm.try_recv(None, None).is_some() {}
        }
        self.events.reset_counters();
        WARM_WORKERS.lock().push((
            warm_key(self.num_workers, &self.config),
            WarmWorkers {
                world,
                kernels: Arc::clone(&self.kernels),
                events: Arc::clone(&self.events),
                worker_handles: self.worker_handles.drain(..).collect(),
            },
        ));
        true
    }

    /// Execute a queue of regions back to back with **cross-region
    /// prefetch**: while region *i* computes, the enter-data inputs of up
    /// to [`OmpcConfig::prefetch_depth`] queued regions stream to their
    /// predicted workers on the dedicated transfer pool, so region *i+1*
    /// starts with its data already resident (or in flight, in which case
    /// its first readers await instead of re-submitting). Returns one
    /// [`RegionReport`] per region, in order; the first error aborts the
    /// pipeline (transfers already in flight for later regions resolve on
    /// their own and are rolled back or adopted by whatever runs next).
    pub fn run_pipeline(&self, regions: Vec<TargetRegion<'_>>) -> OmpcResult<Vec<RegionReport>> {
        if self.shut_down {
            return Err(OmpcError::ShutDown);
        }
        let mut parts: Vec<Option<(RegionGraph, HashMap<usize, HostFn>)>> =
            regions.into_iter().map(|r| Some(r.into_parts())).collect();
        let mut reports = Vec::with_capacity(parts.len());
        for i in 0..parts.len() {
            self.prefetch_ahead(&parts, i);
            let (graph, host_fns) = parts[i].take().expect("pipeline region executed twice");
            if graph.is_empty() {
                reports.push(RegionReport::default());
                continue;
            }
            reports.push(self.execute_region(graph, host_fns)?);
        }
        Ok(reports)
    }

    /// Plan and launch the prefetches that may overlap region `next` (the
    /// one about to execute): for each queued region within
    /// `prefetch_depth`, stream its enter-data / first-read inputs to the
    /// worker its consuming task is predicted to run on.
    ///
    /// Planning rules:
    /// - **hazards**: any buffer still touched by an earlier queued region
    ///   (including the one about to run) is skipped — its contents or
    ///   residency will change before the target region consumes it;
    /// - **never duplicate**: a buffer whose latest version is already
    ///   worker-resident, or already in flight, is skipped;
    /// - **destination**: the consuming task's node in the target region's
    ///   schedule, planned against the current residency view (prefetch
    ///   only adds holders, never changes who holds the latest version, so
    ///   the real run's schedule sees the same pins);
    /// - **failure**: a booking towards a node that dies before (or while)
    ///   the bytes move is rolled back by the job itself and the consuming
    ///   region re-sources from the survivors.
    fn prefetch_ahead(&self, parts: &[Option<(RegionGraph, HashMap<usize, HostFn>)>], next: usize) {
        let depth = self.config.prefetch_depth;
        if depth == 0 || next >= parts.len() {
            return;
        }
        let alive = self.alive_workers();
        if alive.is_empty() {
            return;
        }
        let graph_buffers = |graph: &RegionGraph| -> BTreeSet<BufferId> {
            graph.tasks().iter().flat_map(|t| t.dependences.iter().map(|d| d.buffer)).collect()
        };
        let mut hazards: BTreeSet<BufferId> = match &parts[next] {
            Some((graph, _)) => graph_buffers(graph),
            None => BTreeSet::new(),
        };
        let platform = Platform::cluster(alive.len());
        let mut singles: Vec<TransferPlan> = Vec::new();
        let mut train_batches: BTreeMap<NodeId, Vec<TransferPlan>> = BTreeMap::new();
        let end = parts.len().min(next + 1 + depth);
        for part in parts.iter().take(end).skip(next + 1) {
            let Some((graph, _)) = part else { continue };
            // The first entering or reading task per buffer decides the
            // prefetch reason and destination.
            let mut cands: BTreeMap<BufferId, (usize, TransferReason)> = BTreeMap::new();
            for task in graph.tasks() {
                match &task.kind {
                    TaskKind::EnterData { buffer, map } => {
                        if matches!(map, MapType::To | MapType::ToFrom | MapType::ToResident) {
                            cands.entry(*buffer).or_insert((task.id.0, TransferReason::EnterData));
                        }
                    }
                    TaskKind::Target { .. } => {
                        for dep in &task.dependences {
                            if dep.dep_type.reads() {
                                cands
                                    .entry(dep.buffer)
                                    .or_insert((task.id.0, TransferReason::Input));
                            }
                        }
                    }
                    _ => {}
                }
            }
            if !cands.is_empty() {
                let residency = self.dm.lock().latest_on_workers();
                let assignment = RuntimePlan::region_assignment_on(
                    graph,
                    &self.buffers,
                    &platform,
                    &self.config,
                    &alive,
                    &residency,
                );
                let mut dm = self.dm.lock();
                let ticket = dm.open_ticket();
                for (buffer, (task, reason)) in cands {
                    if hazards.contains(&buffer) {
                        continue;
                    }
                    let Some(&node) = assignment.get(task) else { continue };
                    if node == HEAD_NODE {
                        continue;
                    }
                    if !dm.is_registered(buffer) {
                        let bytes = self.buffers.size_of(buffer).unwrap_or(0) as u64;
                        dm.register_host_buffer(buffer, bytes);
                    }
                    if dm.retrieve_source(buffer).is_some() || dm.buffer_in_flight(buffer) {
                        continue;
                    }
                    let Ok(Booking::Move(plan)) =
                        dm.book(Owner::Ticket(ticket), buffer, node, reason)
                    else {
                        continue;
                    };
                    // Prefetches from the head batch into per-node trains;
                    // everything else moves as an individual async job.
                    if plan.from == HEAD_NODE {
                        train_batches.entry(node).or_default().push(plan);
                    } else {
                        singles.push(plan);
                    }
                }
            }
            hazards.extend(graph_buffers(graph));
        }
        for plan in singles {
            self.spawn_transfer_job(plan, "cross-region prefetch");
        }
        for (node, plans) in train_batches {
            self.spawn_train_job(node, plans);
        }
    }

    /// Block until this caller is admitted: FIFO over arrival order, at
    /// most [`OmpcConfig::max_concurrent_regions`] regions inside at once.
    /// Records an `Admission` span on the device recorder when the caller
    /// actually waited.
    fn admit(&self) -> RegionLease<'_> {
        let limit = self.config.admission_limit();
        let t0 = self.telemetry.start();
        let mut gate = self.admission.lock();
        let ticket = gate.next_ticket;
        gate.next_ticket += 1;
        let mut waited = false;
        while gate.serving != ticket || gate.running >= limit {
            waited = true;
            self.admission_cv.wait(&mut gate);
        }
        gate.serving += 1;
        gate.running += 1;
        drop(gate);
        if waited && self.telemetry.spans_enabled() {
            self.telemetry.record(
                Span::new(SpanPhase::Admission, HEAD_NODE, t0, monotonic_us())
                    .detail(format!("admission limit {limit}")),
            );
        }
        RegionLease { device: self, region: UNATTRIBUTED }
    }

    /// Stream this region's `map(to:)` inputs through the asynchronous
    /// prefetch engine ([`OmpcConfig::enter_data_async`]): each enter-data
    /// payload is booked in the in-flight table and pushed by the transfer
    /// pool while the backend spins up, so the consuming tasks await an
    /// already-moving transfer instead of submitting it inline. The
    /// booking carries the same reason and source the synchronous path
    /// would plan, and `execute_planned` adopts the deferred records into
    /// this region's namespace — the transfer plans stay byte-identical.
    fn stream_region_inputs(&self, graph: &RegionGraph, assignment: &[NodeId]) {
        // With collectives enabled, a buffer this region distributes to
        // k ≥ `collective_min_fanout` destinations is booked as ONE
        // broadcast tree under one shared ticket — waiters still resolve
        // per-destination through the in-flight table — and rides a single
        // transfer-pool job. Everything else (and everything when the knob
        // is off) follows the exact per-plan path below.
        let trees = self.book_broadcasts(graph, assignment, |dm| Owner::Ticket(dm.open_ticket()));
        let broadcast_buffers: BTreeSet<BufferId> = trees.iter().map(|spec| spec.buffer).collect();
        for spec in trees {
            let bookings = Self::tree_bookings(&spec);
            self.spawn_async_job(bookings, move |path| Self::run_broadcast_tree(path, spec));
        }
        let mut jobs: Vec<TransferPlan> = Vec::new();
        {
            let mut dm = self.dm.lock();
            let ticket = dm.open_ticket();
            for task in graph.tasks() {
                let TaskKind::EnterData { buffer, map } = task.kind else { continue };
                if !matches!(map, MapType::To | MapType::ToFrom | MapType::ToResident) {
                    continue;
                }
                if broadcast_buffers.contains(&buffer) {
                    continue;
                }
                let Some(&node) = assignment.get(task.id.0) else { continue };
                if node == HEAD_NODE {
                    continue;
                }
                let reason = TransferReason::EnterData;
                if let Ok(Booking::Move(plan)) =
                    dm.book(Owner::Ticket(ticket), buffer, node, reason)
                {
                    jobs.push(plan);
                }
            }
        }
        for plan in jobs {
            self.spawn_transfer_job(plan, "streamed enter-data");
        }
    }

    /// The one-to-many distribution demand of a planned region: for every
    /// buffer that no task of the region writes, the worker nodes that will
    /// need a copy — enter-data placements (classified
    /// [`TransferReason::EnterData`]) and readers of target tasks
    /// ([`TransferReason::Input`]; enter-data wins when a node is both).
    fn collective_destinations(
        graph: &RegionGraph,
        assignment: &[NodeId],
    ) -> BTreeMap<BufferId, BTreeMap<NodeId, TransferReason>> {
        // Only *kernel* writes disqualify a buffer: a target task writing
        // it mid-region invalidates pre-distributed copies. The synthetic
        // output dependence an enter-data task carries for ordering is the
        // very distribution step the broadcast replaces.
        let written: BTreeSet<BufferId> = graph
            .tasks()
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Target { .. }))
            .flat_map(|t| t.dependences.iter().filter(|d| d.dep_type.writes()).map(|d| d.buffer))
            .collect();
        let mut wanted: BTreeMap<BufferId, BTreeMap<NodeId, TransferReason>> = BTreeMap::new();
        for task in graph.tasks() {
            let Some(&node) = assignment.get(task.id.0) else { continue };
            if node == HEAD_NODE {
                continue;
            }
            match &task.kind {
                TaskKind::EnterData { buffer, map }
                    if matches!(map, MapType::To | MapType::ToFrom | MapType::ToResident)
                        && !written.contains(buffer) =>
                {
                    wanted.entry(*buffer).or_default().insert(node, TransferReason::EnterData);
                }
                TaskKind::Target { .. } => {
                    for dep in &task.dependences {
                        if dep.dep_type.reads() && !written.contains(&dep.buffer) {
                            wanted
                                .entry(dep.buffer)
                                .or_default()
                                .entry(node)
                                .or_insert(TransferReason::Input);
                        }
                    }
                }
                _ => {}
            }
        }
        wanted
    }

    /// Book every one-to-many distribution of a planned region that reaches
    /// [`OmpcConfig::collective_min_fanout`] destinations in this planning
    /// step as one broadcast tree, each destination a booking of `owner`'s
    /// (asked once per tree). Everything below the threshold is left exactly
    /// to the per-task star machinery, byte-identically to the
    /// collectives-off path.
    fn book_broadcasts(
        &self,
        graph: &RegionGraph,
        assignment: &[NodeId],
        mut owner: impl FnMut(&mut DataManager) -> Owner,
    ) -> Vec<BroadcastSpec> {
        let Some(threshold) = self.config.collective_threshold() else { return Vec::new() };
        let mut trees = Vec::new();
        let mut dm = self.dm.lock();
        for (buffer, mut dests) in Self::collective_destinations(graph, assignment) {
            // Whoever has the buffer on the wire already owns its movement;
            // this region's readers resolve through the in-flight table.
            if !dm.is_registered(buffer) || dm.buffer_in_flight(buffer) {
                continue;
            }
            dests.retain(|&node, _| !dm.is_present(buffer, node) && !dm.is_failed(node));
            if dests.len() < threshold {
                continue;
            }
            // A head-sourced tree streams the registry's own allocation.
            let (bytes, source) = match dm.latest(buffer) {
                Some(HEAD_NODE) => match self.buffers.share(buffer) {
                    Ok(payload) => (payload.len() as u64, BroadcastSource::Head(payload)),
                    Err(_) => continue,
                },
                Some(node) => (dm.bytes_of(buffer), BroadcastSource::Worker(node)),
                None => continue,
            };
            let owner = owner(&mut dm);
            let booked = |(&node, &reason): (&NodeId, &TransferReason)| {
                matches!(dm.book(owner, buffer, node, reason), Ok(Booking::Move(_))).then_some(node)
            };
            let destinations: Vec<NodeId> = dests.iter().filter_map(booked).collect();
            if !destinations.is_empty() {
                trees.push(BroadcastSpec {
                    buffer,
                    bytes,
                    source,
                    destinations,
                    chunk_bytes: self.config.collective_chunk_bytes() as u64,
                });
            }
        }
        trees
    }

    /// The bookings of one tree: a copy of its buffer per destination.
    fn tree_bookings(spec: &BroadcastSpec) -> Vec<(BufferId, NodeId)> {
        spec.destinations.iter().map(|&node| (spec.buffer, node)).collect()
    }

    /// Ship one booked broadcast tree and repoint the record of every edge
    /// that was fed by a different node than booked (tree relays, rescues).
    /// Returns each destination's outcome, in `spec.destinations` order, for
    /// its booking to be finished with — a tree's waiters resolve
    /// per-destination, and a failed destination is rolled back and
    /// re-sourced by the per-task machinery.
    fn run_broadcast_tree(path: &DataPath, spec: BroadcastSpec) -> Vec<OmpcResult<()>> {
        let outcome = run_broadcast(&path.events, &path.telemetry, &spec);
        let source = spec.source.node();
        let mut dm = path.dm.lock();
        for edge in outcome.delivered.iter().filter(|edge| edge.from != source) {
            dm.retarget(spec.buffer, edge.to, edge.from);
        }
        let outcome_of = |node: &NodeId| match outcome.failed.iter().find(|(n, _)| n == node) {
            Some((_, error)) => Err(error.clone()),
            None => Ok(()),
        };
        spec.destinations.iter().map(outcome_of).collect()
    }

    /// Execute a region graph through the unified execution core. Called by
    /// [`TargetRegion::run`]. Safe to call from multiple client threads at
    /// once: callers pass the admission gate in arrival order, each
    /// execution gets its own region epoch (the namespace of its transfer
    /// log and telemetry spans), and the scheduler places each admitted
    /// region against the load the earlier tenants still hold.
    pub(crate) fn execute_region(
        &self,
        graph: RegionGraph,
        host_fns: HashMap<usize, HostFn>,
    ) -> OmpcResult<RegionReport> {
        self.execute_region_recorded(graph, host_fns).map(|(report, _)| report)
    }

    /// [`ClusterDevice::execute_region`], additionally returning the
    /// execution's own [`RunRecord`]. Concurrent clients read their
    /// region's record from here — [`ClusterDevice::last_run_record`]
    /// only ever exposes whichever execution stored last.
    pub(crate) fn execute_region_recorded(
        &self,
        graph: RegionGraph,
        host_fns: HashMap<usize, HostFn>,
    ) -> OmpcResult<(RegionReport, RunRecord)> {
        if self.shut_down {
            return Err(OmpcError::ShutDown);
        }
        if graph.is_empty() {
            return Ok((RegionReport::default(), RunRecord::default()));
        }
        // The planner orders tasks by their cost estimates, and admission
        // reserves them as load for the next tenant: a NaN, infinite or
        // negative hint is a caller error, rejected before either sees it.
        let mut hints = graph.tasks().iter().map(|task| (task, task.kind.cost_hint()));
        if let Some((task, cost)) = hints.find(|(_, c)| !(c.is_finite() && *c >= 0.0)) {
            return Err(OmpcError::InvalidConfig(format!(
                "task {} ({:?}) has cost hint {cost}; cost hints are finite, non-negative seconds",
                task.id.0, task.label
            )));
        }
        let graph = Arc::new(graph);
        let mut lease = self.admit();
        let sched_start = Instant::now();
        // Plan over the workers that are still alive: a node declared
        // failed in an earlier region stays excommunicated for the rest of
        // the device lifetime.
        let alive = self.alive_workers();
        if alive.is_empty() {
            return Err(OmpcError::InvalidConfig(
                "every worker node has failed; no survivors to execute the region".to_string(),
            ));
        }
        // Open a new region epoch, register every referenced buffer that
        // is not already resident from an earlier region (host copy lives
        // on the head node until data movement says otherwise), mark
        // keep-resident mappings, and snapshot the residency view the
        // planner pins against.
        let (region, residency): (u64, ResidencyMap) = {
            let mut dm = self.dm.lock();
            let region = dm.begin_region();
            for task in graph.tasks() {
                for dep in &task.dependences {
                    if !dm.is_registered(dep.buffer) {
                        let bytes = self.buffers.size_of(dep.buffer).unwrap_or(0) as u64;
                        dm.register_host_buffer(dep.buffer, bytes);
                    }
                }
                if let TaskKind::EnterData { buffer, map } = task.kind {
                    if map.keeps_resident() {
                        dm.mark_resident(buffer);
                    }
                }
            }
            (region, dm.latest_on_workers())
        };
        lease.region = region;
        // Region-scoped telemetry: every span this execution records
        // carries the region id, so overlapped tenants render as separate
        // timeline rows and never interleave their span vectors.
        let telemetry = self.telemetry.scoped(region);
        let sched_t0 = telemetry.start();
        // Seed the schedule with the compute the admitted-but-unfinished
        // regions already reserved on each worker: an incremental
        // admission-time placement instead of a full HEFT re-run over all
        // tenants. Serial executions see an empty table and plan exactly
        // as before.
        let load: Vec<f64> = {
            let table = self.inflight_load.lock();
            alive.iter().map(|n| table.values().filter_map(|per| per.get(n)).sum()).collect()
        };
        let plan = RuntimePlan {
            assignment: RuntimePlan::region_assignment_with_load(
                &graph,
                &self.buffers,
                &Platform::cluster(alive.len()),
                &self.config,
                &alive,
                &residency,
                &load,
            ),
            window: self.config.inflight_window(),
        };
        // Reserve this region's own estimated compute per worker for the
        // benefit of the next admitted tenant; released with the lease.
        {
            let mut reserved: HashMap<NodeId, f64> = HashMap::new();
            for task in graph.tasks() {
                if let TaskKind::Target { cost_hint, .. } = task.kind {
                    if let Some(&node) = plan.assignment.get(task.id.0) {
                        if node != HEAD_NODE {
                            *reserved.entry(node).or_insert(0.0) += cost_hint;
                        }
                    }
                }
            }
            self.inflight_load.lock().insert(region, reserved);
        }
        let schedule_time = sched_start.elapsed();
        if telemetry.spans_enabled() {
            telemetry.record(
                Span::new(SpanPhase::Schedule, HEAD_NODE, sched_t0, monotonic_us())
                    .detail(format!("{} task(s), {} alive worker(s)", graph.len(), alive.len())),
            );
        }
        // Region-level map(to:) inputs stream through the async prefetch
        // engine while the backend starts up.
        if self.config.enter_data_async {
            self.stream_region_inputs(&graph, &plan.assignment);
        }

        let exec_start = Instant::now();
        let record =
            self.execute_planned(Arc::clone(&graph), host_fns, &plan, region, &telemetry)?;
        let execution_time = exec_start.elapsed();

        // `data_events` / `bytes_moved` derive from this region's own
        // namespaced transfer log (already attached to the record by
        // `execute_planned`), not from global-counter deltas — so they are
        // exact, and assertable, even when other regions move data
        // concurrently with this execution.
        let report = RegionReport {
            region,
            schedule_time,
            execution_time,
            tasks_executed: graph.len(),
            target_tasks: graph.tasks().iter().filter(|t| t.kind.is_target()).count(),
            peak_in_flight: record.peak_in_flight,
            data_events: record.transfers.len(),
            bytes_moved: record.transfers.iter().map(|t| t.bytes).sum(),
            failures: record.failures.len(),
            reexecuted_tasks: record.reexecuted.len(),
        };
        self.report.lock().regions.push(report.clone());
        Ok((report, record))
    }

    /// Execute an already-planned region graph and return the core's
    /// decision record. `region` is the execution's transfer-log and
    /// telemetry namespace; `telemetry` is the region-scoped recorder
    /// built by the caller.
    fn execute_planned(
        &self,
        graph: Arc<RegionGraph>,
        host_fns: HashMap<usize, HostFn>,
        plan: &RuntimePlan,
        region: u64,
        telemetry: &Arc<Telemetry>,
    ) -> OmpcResult<RunRecord> {
        // Triggers naming a node that already died in an earlier region
        // are spent: re-firing them would re-declare the failure here. The
        // dead nodes themselves carry over as *prior* failures, so this
        // region's recovery never counts them among the survivors.
        let (fault_plan, prior_dead) = {
            let dm = self.dm.lock();
            let plan = FaultPlan {
                events: self
                    .config
                    .fault_plan
                    .events
                    .iter()
                    .copied()
                    .filter(|e| !dm.is_failed(e.node))
                    .collect(),
                task_errors: self.config.fault_plan.task_errors.clone(),
            };
            let dead: Vec<NodeId> = (1..=self.num_workers).filter(|&n| dm.is_failed(n)).collect();
            (plan, dead)
        };
        // A plan naming an already-excommunicated node is a configuration
        // error, not a recoverable failure: the recovery machinery moves
        // tasks off nodes that die *during* a run, while a long-dead node
        // would either fake-complete the task without executing it (no
        // active fault subsystem) or bounce it back to the same dead node
        // forever (prior failures are never re-declared, so nothing ever
        // replans it). Reject up front with a pointer at the fix.
        if let Some(&node) = plan.assignment.iter().find(|n| prior_dead.contains(n)) {
            return Err(OmpcError::InvalidConfig(format!(
                "plan assigns a task to worker node {node}, which was declared failed in an \
                 earlier region and stays excommunicated; plan over ClusterDevice::alive_workers()"
            )));
        }
        let faults = FaultState::from_config(&fault_plan, self.num_workers)?
            .map(|f| f.with_replan(self.config.replan_on_failure).with_prior_failures(&prior_dead));
        // Transfers planned between regions (lazy host flushes through
        // `buffer_data`) belong to no run; clear the device-level
        // namespace — and only it, an overlapped region's in-progress log
        // lives in its own namespace and must survive untouched — so this
        // run's record contains exactly its own transfers. Then adopt the
        // deferred records of async transfers (async enter-data /
        // cross-region prefetch / streamed map-to inputs) whose buffers
        // this region consumes: the record reports them exactly where the
        // synchronous path would have planned them, keeping async and sync
        // transfer plans comparable. Bookings for other (later) regions
        // stay deferred.
        {
            let mut dm = self.dm.lock();
            dm.take_transfer_log_in(UNATTRIBUTED);
            let consumed: BTreeSet<BufferId> =
                graph.tasks().iter().flat_map(|t| t.dependences.iter().map(|d| d.buffer)).collect();
            dm.adopt_deferred_for(&consumed, region);
        }
        let path = DataPath { telemetry: Arc::clone(telemetry), ..self.data_path() };
        // Collective pre-distribution: one-to-many read-only inputs ship
        // as binomial broadcast trees, synchronously, before the first task
        // dispatches (no-op unless `collective_min_fanout` is set;
        // async-booked buffers are skipped — their broadcast already rides
        // the transfer pool). Booked, shipped and finished exactly like the
        // async trees, only by this region and on this thread.
        if !matches!(self.config.backend, BackendKind::Sim) {
            let owner = Owner::Region(region);
            for spec in self.book_broadcasts(&graph, &plan.assignment, |_| owner) {
                let bookings = Self::tree_bookings(&spec);
                let outcomes = Self::run_broadcast_tree(&path, spec);
                Self::resolve(&self.dm, &self.inflight_cv, &bookings, outcomes);
            }
        }
        let mut core = match faults {
            Some(faults) => RuntimeCore::with_faults(graph.as_ref(), plan, faults),
            None => RuntimeCore::new(graph.as_ref(), plan),
        };
        core.set_telemetry(Arc::clone(telemetry));
        let cv = Arc::clone(&self.inflight_cv);
        let result =
            Lowering::new(path, cv, region, graph, host_fns, &self.config).and_then(|lowering| {
                match self.config.backend {
                BackendKind::Threaded | BackendKind::Mpi => {
                    MpiBackend::new(lowering).execute(&mut core)
                }
                BackendKind::Sim => Err(OmpcError::InvalidConfig(
                    "a ClusterDevice cannot drive the simulated backend; use the simulate_ompc* \
                     entry points instead"
                        .to_string(),
                )),
            }
            });
        let mut record = core.record();
        // The data manager logged every transfer this run planned under
        // its region namespace (including any planned for work that later
        // failed and rolled back — those entries were withdrawn); attach
        // exactly that namespace so residency wins are assertable per run
        // and an overlapped tenant's log is never mixed in.
        record.transfers = self.dm.lock().take_transfer_log_in(region);
        // Drain the spans this run produced (head-side scheduling and
        // data-path spans plus worker stamps shipped home in the replies)
        // so each record owns exactly its own timeline, then append
        // whatever accumulated on the device recorder since the last
        // drain (async prefetch jobs, admission waits). Empty unless the
        // device runs at `TelemetryLevel::Spans`.
        record.spans = telemetry.take_spans();
        record.spans.extend(self.telemetry.take_spans());
        *self.last_record.lock() = Some(record.clone());
        result?;
        Ok(record)
    }

    /// Execute an abstract [`WorkloadGraph`] on the real cluster under an
    /// explicit [`RuntimePlan`], returning the execution core's decision
    /// record.
    ///
    /// The workload is materialized as a region of no-op target tasks, one
    /// per workload task, connected through per-task output buffers of the
    /// workload's output sizes — the real-cluster mirror of what
    /// [`crate::sim_runtime::simulate_ompc_with_plan`] executes on the
    /// virtual cluster. This is the entry point of the backend-equivalence
    /// tests: both backends must make identical scheduling and dispatch
    /// decisions for the same workload and plan.
    ///
    /// A worker-side failure during the run (e.g. an injected task error)
    /// returns the propagated [`OmpcError`] instead of hanging; the partial
    /// decision record stays available through
    /// [`ClusterDevice::last_run_record`].
    ///
    /// ```
    /// use ompc_core::model::WorkloadGraph;
    /// use ompc_core::prelude::*;
    ///
    /// let mut graph = ompc_sched::TaskGraph::new();
    /// for _ in 0..3 {
    ///     graph.add_task(0.001);
    /// }
    /// graph.add_edge(0, 1, 64);
    /// graph.add_edge(1, 2, 64);
    /// let workload = WorkloadGraph::new(graph, vec![64; 3]);
    ///
    /// let mut device = ClusterDevice::spawn(2);
    /// let plan = RuntimePlan { assignment: vec![1, 1, 2], window: 4 };
    /// let record = device.run_workload(&workload, &plan).unwrap();
    /// assert_eq!(record.completion_order, vec![0, 1, 2]);
    /// device.shutdown();
    /// ```
    pub fn run_workload(
        &self,
        workload: &WorkloadGraph,
        plan: &RuntimePlan,
    ) -> OmpcResult<RunRecord> {
        if self.shut_down {
            return Err(OmpcError::ShutDown);
        }
        if workload.is_empty() {
            return Ok(RunRecord::default());
        }
        let noop = *self
            .workload_kernel
            .get_or_init(|| self.kernels.register_fn("workload-task", 1e-6, |_| {}));
        let buffers: Vec<BufferId> = workload
            .output_bytes
            .iter()
            .map(|&bytes| self.buffers.register_uninit(bytes as usize))
            .collect();
        let mut region = RegionGraph::new();
        for t in 0..workload.len() {
            let mut deps = vec![Dependence::output(buffers[t])];
            for &pred in workload.graph.predecessors(t) {
                deps.push(Dependence::input(buffers[pred]));
            }
            region.add_task(
                TaskKind::Target { kernel: noop, cost_hint: workload.graph.tasks()[t].cost },
                deps,
                format!("w{t}"),
            );
        }
        // Workload runs pass the same admission gate and get their own
        // region epoch (transfer-log and telemetry namespace) — a
        // run_workload call is one more tenant over the shared workers.
        let mut lease = self.admit();
        let epoch = {
            let mut dm = self.dm.lock();
            let epoch = dm.begin_region();
            for (t, &buffer) in buffers.iter().enumerate() {
                if !dm.is_registered(buffer) {
                    dm.register_host_buffer(buffer, workload.output_bytes[t]);
                }
            }
            epoch
        };
        lease.region = epoch;
        let telemetry = self.telemetry.scoped(epoch);
        let record =
            self.execute_planned(Arc::new(region), HashMap::new(), plan, epoch, &telemetry);
        drop(lease);
        // The materialized buffers are private to this run: release their
        // device copies, data-manager entries, and host copies so repeated
        // `run_workload` calls on one device do not accumulate state. A
        // node that does not acknowledge is one the run killed without yet
        // declaring it dead — its memory is gone either way — so a failed
        // release never turns a finished run into an error.
        let _ = crate::runtime::release_device_copies(&self.dm, &self.events, &telemetry, &buffers);
        for &buffer in &buffers {
            let _ = self.buffers.remove(buffer);
        }
        let teardown_spans = telemetry.take_spans();
        // De-materialize the transfer records: buffer `t` of the workload
        // coordinate system is task `t`'s output (the convention the
        // simulated backend records in), so cross-backend transfer sets
        // compare directly. The stored last_run_record is rewritten too —
        // both views of the run, successful or failed, must name the same
        // buffers.
        let index_of: HashMap<BufferId, u64> =
            buffers.iter().enumerate().map(|(t, &b)| (b, t as u64)).collect();
        let remap = |record: &mut RunRecord| {
            for transfer in &mut record.transfers {
                if let Some(&t) = index_of.get(&transfer.buffer) {
                    transfer.buffer = BufferId(t);
                }
            }
            record.spans.extend(teardown_spans.iter().cloned());
        };
        if let Some(last) = self.last_record.lock().as_mut() {
            remap(last);
        }
        record.map(|mut record| {
            remap(&mut record);
            record
        })
    }
}

impl Drop for ClusterDevice {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Dependence;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn listing1_chain_runs_end_to_end() {
        // The paper's Listing 1: foo then bar on vector A, with foo and bar
        // potentially on different worker nodes and A forwarded between
        // them worker-to-worker.
        let mut device = ClusterDevice::spawn(2);
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
        assert!(report.tasks_executed >= 4);
        assert!(report.bytes_moved > 0);

        assert_eq!(device.buffer_f64s(a).unwrap(), vec![20.0, 30.0, 40.0, 50.0]);
        device.shutdown();
        let dev_report = device.report();
        assert_eq!(dev_report.regions.len(), 1);
    }

    #[test]
    fn independent_tasks_spread_across_workers() {
        let mut device = ClusterDevice::spawn(3);
        let bump = device.register_kernel_fn("bump", 1e-4, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let buffers: Vec<BufferId> = (0..6).map(|i| region.map_to_f64s(&[i as f64])).collect();
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
    fn host_tasks_run_on_the_head_node() {
        let device = ClusterDevice::spawn(1);
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[5.0]);
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag2 = Arc::clone(&flag);
        region.host_task(vec![Dependence::input(a)], move |_| {
            flag2.store(true, Ordering::SeqCst);
        });
        region.run().unwrap();
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn empty_region_is_a_noop() {
        let device = ClusterDevice::spawn(1);
        let region = device.target_region();
        let report = region.run().unwrap();
        assert_eq!(report.tasks_executed, 0);
    }

    #[test]
    fn warm_worker_keepalive_parks_and_adopts_across_lifetimes() {
        // An unusual (workers, communicators) pair keys this test's pool
        // apart from any other keepalive user in the process.
        let config =
            OmpcConfig { warm_worker_keepalive: true, num_communicators: 7, ..OmpcConfig::small() };
        let key = warm_key(5, &config);
        let parked = |key: &WarmKey| WARM_WORKERS.lock().iter().filter(|(k, _)| k == key).count();
        let before = parked(&key);

        let mut d1 = ClusterDevice::with_config(5, config.clone());
        let bump = d1.register_kernel_fn("bump", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = d1.target_region();
        let a = region.map_to_f64s(&[1.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(d1.buffer_f64s(a).unwrap(), vec![2.0]);
        d1.shutdown();
        assert_eq!(parked(&key), before + 1, "shutdown parks the healthy pool");

        let mut d2 = ClusterDevice::with_config(5, config.clone());
        assert_eq!(parked(&key), before, "the new lifetime adopted the parked pool");
        // The adopted pool serves a full second lifetime: fresh kernel ids
        // from 0, clean device memories, real execution.
        let scale = d2.register_kernel_fn("scale", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 3.0).collect();
            args.set_f64s(0, &v);
        });
        assert_eq!(scale, KernelId(0), "adoption restarts kernel ids like a cold start");
        let mut region = d2.target_region();
        let b = region.map_to_f64s(&[2.0, 4.0]);
        region.target(scale, vec![Dependence::inout(b)]);
        region.map_from(b);
        region.run().unwrap();
        assert_eq!(d2.buffer_f64s(b).unwrap(), vec![6.0, 12.0]);
        d2.shutdown();

        // Leave the process as we found it: adopt the parked pool and shut
        // its workers down cold.
        if let Some(warm) = adopt_warm_workers(&key) {
            for node in 1..=5 {
                let _ = warm.events.shutdown(node);
            }
            for handle in warm.worker_handles {
                let _ = handle.join();
            }
        }
    }

    #[test]
    fn warm_pool_soak_reuses_one_pool_and_never_parks_after_a_failure() {
        use crate::runtime::fault::FaultPlan;
        // A key no other test in the process uses: 3 workers × 9
        // communicators. Every lifetime below adopts (or parks into) this
        // slot and no other.
        let config =
            OmpcConfig { warm_worker_keepalive: true, num_communicators: 9, ..OmpcConfig::small() };
        let key = warm_key(3, &config);
        let parked = |key: &WarmKey| WARM_WORKERS.lock().iter().filter(|(k, _)| k == key).count();
        let before = parked(&key);

        // Soak: four adopt/run/park cycles over the *same* pool. Each
        // lifetime re-registers its kernels and must see ids restart from
        // 0 (the adoption reset), and each run must compute correctly on
        // the recycled device memories.
        for round in 0..4u32 {
            let mut device = ClusterDevice::with_config(3, config.clone());
            if round > 0 {
                assert_eq!(parked(&key), before, "round {round} adopted the parked pool");
            }
            let bump = device.register_kernel_fn("bump", 1e-6, |args| {
                let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
                args.set_f64s(0, &v);
            });
            let scale = device.register_kernel_fn("scale", 1e-6, |args| {
                let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 3.0).collect();
                args.set_f64s(0, &v);
            });
            assert_eq!(
                (bump, scale),
                (KernelId(0), KernelId(1)),
                "round {round}: kernel ids restart from 0 like a cold start"
            );
            let mut region = device.target_region();
            let a = region.map_to_f64s(&[f64::from(round)]);
            region.target(bump, vec![Dependence::inout(a)]);
            region.target(scale, vec![Dependence::inout(a)]);
            region.map_from(a);
            region.run().unwrap();
            assert_eq!(device.buffer_f64s(a).unwrap(), vec![(f64::from(round) + 1.0) * 3.0]);
            device.shutdown();
            assert_eq!(parked(&key), before + 1, "round {round} parked the pool again");
        }

        // A mid-lifetime node failure disqualifies the pool: the adopting
        // device survives the failure (recovery re-executes the lost work)
        // but its shutdown must join the workers cold, not park them.
        {
            let fail_config = OmpcConfig {
                fault_plan: FaultPlan::none().fail_after_completions(1, 1),
                ..config.clone()
            };
            let mut device = ClusterDevice::with_config(3, fail_config);
            assert_eq!(parked(&key), before, "the faulting lifetime adopted the parked pool");
            let bump = device.register_kernel_fn("bump", 1e-6, |args| {
                let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
                args.set_f64s(0, &v);
            });
            let mut region = device.target_region();
            let buffers: Vec<BufferId> = (0..6).map(|i| region.map_to_f64s(&[i as f64])).collect();
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
            assert!(
                !device.last_run_record().unwrap().failures.is_empty(),
                "the injected failure fired mid-lifetime"
            );
            assert_eq!(device.alive_workers(), vec![2, 3]);
            device.shutdown();
            assert_eq!(parked(&key), before, "a pool that saw a node failure is never parked");
        }

        // Leave the process as we found it (the failed pool was already
        // joined cold; nothing should be left under this key).
        assert_eq!(parked(&key), before);
    }

    /// A lifetime whose last MPI region failed with a task error — not a
    /// node failure, so its pool parks — hands the adopting lifetime empty
    /// mailboxes on every rank, whichever channel a leftover sat on.
    #[test]
    fn an_adopted_pool_starts_with_empty_mailboxes_after_a_failed_region() {
        use crate::runtime::fault::FaultPlan;
        // A key no other test in the process uses: 2 workers × 11
        // communicators.
        let config = OmpcConfig {
            backend: BackendKind::Mpi,
            warm_worker_keepalive: true,
            num_communicators: 11,
            ..OmpcConfig::small()
        };
        let key = warm_key(2, &config);
        let parked = |key: &WarmKey| WARM_WORKERS.lock().iter().filter(|(k, _)| k == key).count();
        let before = parked(&key);
        let mut graph = ompc_sched::TaskGraph::new();
        for _ in 0..4 {
            graph.add_task(1e-4);
        }
        let workload = crate::model::WorkloadGraph::new(graph, vec![64; 4]);
        let plan = RuntimePlan { assignment: vec![1, 1, 2, 2], window: 4 };

        let failing =
            OmpcConfig { fault_plan: FaultPlan::none().error_on_task(1), ..config.clone() };
        let mut d1 = ClusterDevice::with_config(2, failing);
        assert!(d1.run_workload(&workload, &plan).is_err());
        // A late leftover on some execution's channel, as a failed run can
        // leave behind: a worker's message on a tag of its own, on a
        // communicator other than the world's.
        let world = d1.world.as_ref().unwrap();
        world
            .communicator(2)
            .on(CommId(7))
            .unwrap()
            .send(HEAD_NODE, ompc_mpi::Tag(1 << 40), vec![1])
            .unwrap();
        assert_eq!(d1.mailbox_stats()[0].queued, 1);
        d1.shutdown();
        assert_eq!(parked(&key), before + 1, "a task error does not disqualify the pool");

        let mut d2 = ClusterDevice::with_config(2, config);
        assert_eq!(parked(&key), before, "the new lifetime adopted the parked pool");
        let stats = d2.mailbox_stats();
        assert_eq!(stats.len(), 3);
        for (rank, rank_stats) in stats.iter().enumerate() {
            assert_eq!(rank_stats.queued, 0, "rank {rank}: {rank_stats:?}");
        }
        d2.run_workload(&workload, &plan).unwrap();
        d2.shutdown();

        // Leave the process as we found it.
        if let Some(warm) = adopt_warm_workers(&key) {
            for node in 1..=2 {
                let _ = warm.events.shutdown(node);
            }
            for handle in warm.worker_handles {
                let _ = handle.join();
            }
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_regions_fail_afterwards() {
        let mut device = ClusterDevice::spawn(1);
        device.shutdown();
        device.shutdown();
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0]);
        let k = device.register_kernel_fn("noop", 1e-6, |_| {});
        region.target(k, vec![Dependence::inout(a)]);
        assert_eq!(region.run().unwrap_err(), OmpcError::ShutDown);
    }

    /// A region task whose input an async ticket has on the wire waits on
    /// the head — nothing of it reaches a worker — and when the ticket's
    /// transfer fails (here: refused by a worker killed behind the head's
    /// back), the task fails at once with that very error.
    #[test]
    fn a_failed_ticket_fails_the_task_parked_on_it_at_once() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let config = OmpcConfig { warm_worker_keepalive: false, ..OmpcConfig::small() };
            let mut device = ClusterDevice::with_config(1, config);
            let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let read = {
                let ran = Arc::clone(&ran);
                device.register_kernel_fn("read", 1e-6, move |_| ran.store(true, Ordering::SeqCst))
            };
            device.debug_hold_async_transfers(true);
            let (buffer, ticket) = device.enter_data_async_f64s(&[1.0, 2.0]);
            device.events.kill(1).unwrap();

            // The reader is dispatched — and parks on the ticket — before the
            // host task, whose body lets the held ticket fail and waits for
            // it: by the time the driver looks at its parked reader again,
            // the booking is over.
            let (parked_tx, parked_rx) = std::sync::mpsc::channel::<()>();
            let (failed_tx, failed_rx) = std::sync::mpsc::channel::<()>();
            let (parked_tx, failed_rx) = (Mutex::new(parked_tx), Mutex::new(failed_rx));
            let mut region = device.target_region();
            region.target(read, vec![Dependence::input(buffer)]);
            region.host_task(vec![], move |_| {
                let _ = parked_tx.lock().send(());
                let _ = failed_rx.lock().recv();
            });
            let (ticket_error, run_error) = std::thread::scope(|scope| {
                let run = scope.spawn(move || region.run().unwrap_err());
                parked_rx.recv().unwrap();
                device.debug_hold_async_transfers(false);
                let ticket_error = device.await_transfer(ticket).unwrap_err();
                failed_tx.send(()).unwrap();
                (ticket_error, run.join().unwrap())
            });
            assert_eq!(ticket_error.origin_node(), Some(1), "{ticket_error:?}");
            assert_eq!(run_error, ticket_error, "the task fails with the ticket's own error");
            assert!(!ran.load(Ordering::SeqCst), "the parked task never reached the worker");
            device.shutdown();
        });
    }

    /// Releasing device copies costs one event per node, not one per copy:
    /// a 4 × 4 periodic Stencil-1D leaves 16 outputs and 12 forwarded copies
    /// on two workers, and tearing the run down is at most two events.
    #[test]
    fn releasing_copies_is_one_event_per_node() {
        let mut graph = ompc_sched::TaskGraph::new();
        for _ in 0..16 {
            graph.add_task(1e-4);
        }
        for step in 1..4 {
            for point in 0..4 {
                for from in [(point + 3) % 4, point, (point + 1) % 4] {
                    graph.add_edge((step - 1) * 4 + from, step * 4 + point, 64);
                }
            }
        }
        let workload = crate::model::WorkloadGraph::new(graph, vec![64; 16]);
        // Points 0–1 on worker 1, points 2–3 on worker 2.
        let assignment: Vec<NodeId> = (0..16).map(|task| 1 + (task % 4) / 2).collect();
        // What the run itself issues: a composite task is one event. Each of
        // the 12 forwards is a push riding its producer's composite — a data
        // movement, but no event of the head's.
        let own = 16;
        let plan = RuntimePlan { assignment, window: 4 };
        let mut device = ClusterDevice::with_config(2, OmpcConfig::small());
        let issued = || device.events.counters().events.load(Ordering::Relaxed);
        let record = device.run_workload(&workload, &plan).unwrap();
        assert_eq!(record.transfer_count(), 12);
        assert_eq!(issued() - own, 2, "one release event per worker");
        let counters = device.events.counters();
        let moved = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!((moved(&counters.data_events), moved(&counters.bytes_moved)), (12, 12 * 64));
        assert!(device.dm.lock().is_empty() && device.buffers.is_empty());

        // A resident buffer read on both workers: ending its mapping is one
        // event per holder.
        let read = device.register_kernel_fn("read", 1e-2, |args| {
            let _ = args.bytes(0);
        });
        let a = device.enter_data(vec![7u8; 64]);
        let mut region = device.target_region();
        region.target(read, vec![Dependence::input(a)]);
        region.target(read, vec![Dependence::input(a)]);
        region.run().unwrap();
        assert!((1..=2).all(|worker| device.dm.lock().is_present(a, worker)));
        let before = issued();
        device.exit_data(a).unwrap();
        assert_eq!(issued() - before, 2);
        device.shutdown();
    }

    /// A worker dies holding a copy pushed to it that its reader has not
    /// claimed yet: the push ends with the node, the reader moves to the
    /// survivor and reads the producer's own copy there, and the region's
    /// bytes are those of a failure-free run.
    #[test]
    fn a_node_dying_with_an_unclaimed_push_still_recovers() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let fault_plan = FaultPlan::none().fail_after_completions(2, 1);
            let mut device =
                ClusterDevice::with_config(2, OmpcConfig { fault_plan, ..OmpcConfig::small() });
            let bump = device.register_kernel_fn("bump", 1e-6, |args| {
                let v = args.as_f64s(0)[0];
                args.set_f64s(0, &[v + 1.0]);
            });
            let fill = device.register_kernel_fn("fill", 1e-6, |args| args.set_f64s(0, &[10.0]));
            let sum = device.register_kernel_fn("sum", 1e-6, |args| {
                let total = args.as_f64s(0)[0] + args.as_f64s(1)[0];
                args.set_f64s(2, &[total]);
            });
            let [b, c, d] = [1.0, 0.0, 0.0].map(|v| device.enter_data_f64s(&[v]));
            let target = |kernel| TaskKind::Target { kernel, cost_hint: 1e-6 };
            let mut graph = RegionGraph::new();
            // The producer, on worker 1, pushes `b` to the reader's worker 2
            // as soon as it is done. The fill follows it (it overwrites what
            // the producer reads), and worker 2 dies with the fill's
            // retirement — before the reader, which reads the fill too, is
            // ever lowered.
            let producer = vec![Dependence::inout(b), Dependence::input(c)];
            graph.add_task(target(bump), producer, "producer");
            graph.add_task(target(fill), vec![Dependence::output(c)], "fill");
            let reader = vec![Dependence::input(b), Dependence::input(c), Dependence::output(d)];
            graph.add_task(target(sum), reader, "reader");
            let plan = RuntimePlan { assignment: vec![1, 2, 2], window: 4 };
            let region = device.dm.lock().begin_region();
            let telemetry = device.telemetry.scoped(region);
            let graph = Arc::new(graph);
            let record =
                device.execute_planned(graph, HashMap::new(), &plan, region, &telemetry).unwrap();
            assert_eq!(record.failures.len(), 1);
            assert_eq!(record.failures[0].node, 2);
            assert_eq!(record.assignment, vec![1, 1, 1], "the fill and the reader moved");
            assert!(
                record.transfers.iter().all(|t| t.buffer != b || t.to != 2),
                "the push to the dead node is withdrawn: {:?}",
                record.transfers
            );
            assert_eq!(device.buffer_f64s(d).unwrap(), vec![12.0]);
            device.shutdown();
        });
    }

    /// A recovery moves the only reader of a pushed version off a live
    /// worker, and a later version of the buffer is read on that worker: the
    /// reader there reads the later version, not the push nobody claimed.
    #[test]
    fn a_reader_moved_off_a_pushed_copy_leaves_no_stale_push_to_a_later_reader() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            // Worker 3 dies with its first retirement; the full replan over
            // workers 1 and 2 is round-robin in topological order, which is
            // task order here: 1, 2, 1, 2, 1, 2.
            let config = OmpcConfig {
                fault_plan: FaultPlan::none().fail_after_completions(3, 1),
                replan_on_failure: true,
                scheduler: crate::config::SchedulerKind::RoundRobin,
                ..OmpcConfig::small()
            };
            let mut device = ClusterDevice::with_config(3, config);
            let bump = device.register_kernel_fn("bump", 1e-6, |args| {
                let v = args.as_f64s(0)[0];
                args.set_f64s(0, &[v + 1.0]);
            });
            let fill = device.register_kernel_fn("fill", 1e-6, |args| args.set_f64s(0, &[10.0]));
            let sum = device.register_kernel_fn("sum", 1e-6, |args| {
                let total = args.as_f64s(0)[0] + args.as_f64s(1)[0];
                args.set_f64s(2, &[total]);
            });
            let copy = device.register_kernel_fn("copy", 1e-6, |args| {
                let v = args.as_f64s(0)[0];
                args.set_f64s(1, &[v]);
            });
            let [b, x, o1, oy, o2] =
                [1.0, 0.0, 0.0, 0.0, 0.0].map(|v| device.enter_data_f64s(&[v]));
            let target = |kernel| TaskKind::Target { kernel, cost_hint: 1e-6 };
            let mut graph = RegionGraph::new();
            // The fill dies with worker 3 and runs again after the replan,
            // so the first reader of the producer's `b` — planned on worker
            // 2, where the producer pushes it — is lowered only once the
            // replan moved it to worker 1. The update of `b` then runs on
            // worker 1 and its reader on worker 2.
            graph.add_task(target(fill), vec![Dependence::output(x)], "fill");
            graph.add_task(target(bump), vec![Dependence::inout(b)], "producer");
            let first = vec![Dependence::input(b), Dependence::input(x), Dependence::output(o1)];
            graph.add_task(target(sum), first, "first reader");
            let pad = vec![Dependence::input(o1), Dependence::output(oy)];
            graph.add_task(target(copy), pad, "pad");
            graph.add_task(target(bump), vec![Dependence::inout(b)], "update");
            let later = vec![Dependence::input(b), Dependence::output(o2)];
            graph.add_task(target(copy), later, "later reader");
            let plan = RuntimePlan { assignment: vec![3, 1, 2, 1, 1, 2], window: 4 };
            let region = device.dm.lock().begin_region();
            let telemetry = device.telemetry.scoped(region);
            let graph = Arc::new(graph);
            let record =
                device.execute_planned(graph, HashMap::new(), &plan, region, &telemetry).unwrap();
            assert_eq!(record.failures.len(), 1);
            assert_eq!(record.failures[0].node, 3);
            assert_eq!(record.assignment, vec![1, 1, 1, 2, 1, 2]);
            assert_eq!(device.buffer_f64s(o1).unwrap(), vec![12.0]);
            assert_eq!(device.buffer_f64s(o2).unwrap(), vec![3.0], "the update, not the push");
            assert_eq!(device.buffer_f64s(b).unwrap(), vec![3.0]);
            let forwards_of_b: Vec<(NodeId, NodeId)> = (record.transfers.iter())
                .filter(|t| t.buffer == b && t.from != HEAD_NODE && t.to != HEAD_NODE)
                .map(|t| (t.from, t.to))
                .collect();
            assert_eq!(forwards_of_b, vec![(1, 2)], "the update's push alone reaches worker 2");
            device.shutdown();
        });
    }

    /// No thread of the device is woken for nothing: not the gate for a
    /// handler's message or the head for another region's reply while a
    /// graph runs, and not by the clock while the device sits idle.
    #[test]
    fn no_rank_wakes_up_empty_handed_during_a_run_or_while_idle() {
        let mut graph = ompc_sched::TaskGraph::new();
        for _ in 0..64 {
            graph.add_task(1e-4);
        }
        for task in 2..64 {
            graph.add_edge(task - 2, task, 64);
            graph.add_edge(task - 1, task, 64);
        }
        let workload = crate::model::WorkloadGraph::new(graph, vec![64; 64]);
        let assignment: Vec<NodeId> = (0..64).map(|task| 1 + task % 2).collect();
        let mut device = ClusterDevice::with_config(2, OmpcConfig::small());
        let plan = RuntimePlan { assignment, window: 4 };
        device.run_workload(&workload, &plan).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let stats = device.mailbox_stats();
        assert_eq!(stats.len(), 3);
        for (rank, rank_stats) in stats.iter().enumerate() {
            assert!(rank_stats.delivered > 0, "rank {rank}: {rank_stats:?}");
            assert!(rank_stats.woken <= rank_stats.delivered, "rank {rank}");
            assert_eq!(rank_stats.empty_wakeups, 0, "rank {rank}: {rank_stats:?}");
        }
        device.shutdown();
    }
}
