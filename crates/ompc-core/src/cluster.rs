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
use crate::config::OmpcConfig;
use crate::data_manager::{DataManager, TransferState, HEAD_NODE, UNATTRIBUTED};
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
use crate::types::{BufferId, IdMap, KernelId, NodeId, OmpcError, OmpcResult};
use crate::worker::worker_main;
use ompc_mpi::World;
use ompc_sched::Platform;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A host-task body: runs on the head node with access to the host buffers.
pub type HostFn = Arc<dyn Fn(&BufferRegistry) + Send + Sync>;

/// How a device-level lazy flush is committed: outside any region, as a
/// `HostFlush` span with the given detail.
fn host_flush(detail: &'static str) -> Commit {
    Commit { region: UNATTRIBUTED, phase: SpanPhase::HostFlush, task: None, detail }
}

/// Compatibility key of a parked worker pool: only a device asking for the
/// same worker count and reply timeout can adopt it —
/// `(num_workers, event_reply_timeout_ms)`.
type WarmKey = (usize, Option<u64>);

/// A worker pool kept alive between device lifetimes: the communication
/// world, the shared kernel table (cleared on adoption — the fat binary is
/// re-populated by the new lifetime's registrations), the event system (its
/// tag counter continues, keeping tags device-unique across lifetimes), and
/// the worker threads' handles.
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
/// device adopts them for a near-zero start-up. Parked event pools persist
/// until adopted or process exit.
static WARM_WORKERS: Mutex<Vec<(WarmKey, WarmWorkers)>> = Mutex::new(Vec::new());

fn warm_key(num_workers: usize, config: &OmpcConfig) -> WarmKey {
    (num_workers, config.event_reply_timeout_ms)
}

fn adopt_warm_workers(key: &WarmKey) -> Option<WarmWorkers> {
    let mut pool = WARM_WORKERS.lock();
    let idx = pool.iter().position(|(k, _)| k == key)?;
    Some(pool.swap_remove(idx).1)
}

/// What a running region holds until its execution finishes: the per-node
/// load reservation that seeds overlapped tenants' schedules, once planning
/// registered it. Dropping the lease, on success or error, releases it.
struct RegionLease<'d> {
    device: &'d ClusterDevice,
    region: u64,
}

impl Drop for RegionLease<'_> {
    fn drop(&mut self) {
        self.device.inflight_load.lock().remove(&self.region);
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
/// region.run()?;
/// assert_eq!(device.buffer_f64s(a)?, vec![2.0, 4.0, 6.0]);
/// device.shutdown();
/// # Ok::<(), ompc_core::types::OmpcError>(())
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
    /// Paired with `dm`'s mutex; notified whenever a lazy host flush
    /// resolves the head's in-flight copy. Concurrent flushes of one buffer
    /// block here.
    inflight_cv: Condvar,
    report: Mutex<DeviceReport>,
    /// Estimated per-node compute seconds still in flight per running
    /// region: the reservation the next region's schedule is
    /// seeded with ([`RuntimePlan::region_assignment_with_load`]), so
    /// tenants spread across the shared workers instead of piling onto
    /// the serially-optimal nodes.
    inflight_load: Mutex<IdMap<u64, IdMap<NodeId, f64>>>,
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
    ///
    /// # Panics
    ///
    /// As [`ClusterDevice::with_config`].
    pub fn spawn(num_workers: usize) -> Self {
        Self::with_config(num_workers, OmpcConfig::small())
    }

    /// Spawn a cluster with an explicit configuration. With
    /// [`OmpcConfig::warm_worker_keepalive`], a compatible worker pool
    /// parked by an earlier lifetime's [`ClusterDevice::shutdown`] is
    /// adopted instead of spawning fresh workers — the dominant start-up
    /// cost of small runs (Fig. 7(a)) drops to a registry reset.
    ///
    /// # Panics
    ///
    /// When `num_workers` is zero, or when the OS refuses a worker node's
    /// thread: a device without its workers could run nothing.
    pub fn with_config(num_workers: usize, config: OmpcConfig) -> Self {
        assert!(num_workers > 0, "the cluster needs at least one worker node");
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
                let world = World::new(num_workers + 1);
                let kernels = Arc::new(KernelRegistry::new());
                let mut worker_handles = Vec::with_capacity(num_workers);
                for node in 1..=num_workers {
                    let comm = world.communicator(node);
                    let kernels = Arc::clone(&kernels);
                    let spawned = std::thread::Builder::new()
                        .name(format!("ompc-worker-{node}"))
                        .spawn(move || worker_main(comm, kernels));
                    assert!(spawned.is_ok(), "cannot spawn worker node {node}: {spawned:?}");
                    worker_handles.extend(spawned);
                }
                let events = Arc::new(EventSystem::with_reply_timeout(
                    world.communicator(HEAD_NODE),
                    config.event_reply_timeout_ms.map(std::time::Duration::from_millis),
                ));
                (world, kernels, events, worker_handles)
            }
        };
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
            inflight_cv: Condvar::new(),
            report: Mutex::new(DeviceReport { startup_time, ..DeviceReport::default() }),
            inflight_load: Mutex::new(IdMap::default()),
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
    ///     region.run()?;
    /// }
    /// // The host copy is flushed lazily: reading the buffer retrieves
    /// // the device-resident latest version.
    /// assert_eq!(device.buffer_f64s(a)?, vec![4.0, 5.0]);
    /// // Ending the mapping releases the device copies.
    /// device.exit_data(a)?;
    /// device.shutdown();
    /// # Ok::<(), ompc_core::types::OmpcError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the device has been shut down — the mapping could never
    /// be used, so the misuse is reported here rather than as a confusing
    /// error from a later region.
    pub fn enter_data(&self, data: Vec<u8>) -> BufferId {
        assert!(!self.shut_down, "enter_data on a shut-down ClusterDevice");
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

    /// The device's data-path machinery, as its flushes and region
    /// executions take it.
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
    /// readers wait for it to land instead of scheduling a second retrieve
    /// of the same bytes — the fix for the latent double-flush.
    fn flush_to_host(&self, buffer: BufferId) -> OmpcResult<()> {
        let from = {
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
            // `None`: the host already holds the latest version (possibly
            // because the retrieval we just waited for landed it).
            let Some(from) = dm.begin_inflight_retrieve(buffer) else { return Ok(()) };
            from
        };
        let outcome =
            self.data_path().retrieve_and_commit(from, buffer, &host_flush("lazy host flush"));
        // A buffer released meanwhile has nothing left to finish.
        let _ = self.dm.lock().finish(buffer, HEAD_NODE, outcome.clone());
        self.inflight_cv.notify_all();
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

    /// Shut the cluster down: workers receive shutdown events and their
    /// threads are joined. With
    /// [`OmpcConfig::warm_worker_keepalive`], a healthy worker pool is
    /// *parked* for the next compatible device lifetime instead of joined:
    /// every device memory is cleared by a reset round-trip and the event
    /// counters restart, so adoption is indistinguishable from a cold start
    /// except for the missing spawn cost. Pools that saw a node failure are
    /// never parked. The zero block the buffer registry keeps for
    /// `map(alloc:)` buffers is let go. Called automatically on drop.
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        self.buffers.release_zeros();
        let start = Instant::now();
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
        // leftover of a failed run (a reply on some execution's
        // device-unique channel) must not leak into it as a stale message.
        let head = self.events.communicator();
        while head.try_recv(None, None).is_some() {}
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

    /// Execute a region graph through the unified execution core. Called by
    /// [`TargetRegion::run`]. Safe to call from multiple client threads at
    /// once: every caller starts at once, each execution gets its own region
    /// epoch (the namespace of its transfer log and telemetry spans), and
    /// the scheduler places each region against the load the earlier
    /// tenants still hold.
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
        // The planner orders tasks by their cost estimates, and the lease
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
                for dep in graph.dependences(task.id) {
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
        let _lease = RegionLease { device: self, region };
        // Region-scoped telemetry: every span this execution records
        // carries the region id, so overlapped tenants render as separate
        // timeline rows and never interleave their span vectors.
        let telemetry = self.telemetry.scoped(region);
        let sched_t0 = telemetry.start();
        // Seed the schedule with the compute the unfinished regions
        // already reserved on each worker: an incremental placement
        // instead of a full HEFT re-run over all tenants. Serial executions
        // see an empty table and plan exactly as before.
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
        // benefit of the next tenant; released with the lease.
        {
            let mut reserved: IdMap<NodeId, f64> = IdMap::default();
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
            .map(|f| f.with_prior_failures(&prior_dead));
        // Transfers planned between regions (lazy host flushes through
        // `buffer_data`) belong to no run; clear the device-level
        // namespace — and only it, an overlapped region's in-progress log
        // lives in its own namespace and must survive untouched — so this
        // run's record contains exactly its own transfers.
        self.dm.lock().take_transfer_log_in(UNATTRIBUTED);
        let path = DataPath { telemetry: Arc::clone(telemetry), ..self.data_path() };
        let mut core = match faults {
            Some(faults) => RuntimeCore::with_faults(graph.as_ref(), plan, faults),
            None => RuntimeCore::new(graph.as_ref(), plan),
        };
        core.set_telemetry(Arc::clone(telemetry));
        let result = Lowering::new(path, region, graph, host_fns, &self.config)
            .and_then(|lowering| MpiBackend::new(lowering).execute(&mut core));
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
        // drain (lazy flushes). Empty unless the device runs at
        // `TelemetryLevel::Spans`.
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
    /// let record = device.run_workload(&workload, &plan)?;
    /// assert_eq!(record.completion_order, vec![0, 1, 2]);
    /// device.shutdown();
    /// # Ok::<(), ompc_core::types::OmpcError>(())
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
        // One hold of the registry each way: the outputs are registered
        // together, consecutive ids from `buffers[0]`, and removed together.
        let sizes = workload.output_bytes.iter().map(|&bytes| bytes as usize);
        let buffers = self.buffers.register_uninit_all(sizes);
        let region = workload.region(noop, &buffers);
        // Workload runs get their own region epoch (transfer-log and
        // telemetry namespace) — a run_workload call is one more tenant
        // over the shared workers.
        let epoch = {
            let mut dm = self.dm.lock();
            let epoch = dm.begin_region();
            // Fresh ids: nothing registered them yet.
            for (&buffer, &bytes) in buffers.iter().zip(&workload.output_bytes) {
                dm.register_host_buffer(buffer, bytes);
            }
            epoch
        };
        let lease = RegionLease { device: self, region: epoch };
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
        let _ = self.buffers.remove_all(&buffers);
        let teardown_spans = telemetry.take_spans();
        // De-materialize the transfer records: buffer `t` of the workload
        // coordinate system is task `t`'s output (the convention the
        // simulated backend records in), so cross-backend transfer sets
        // compare directly. The stored last_run_record is rewritten too —
        // both views of the run, successful or failed, must name the same
        // buffers. The outputs' ids are consecutive, so `t` is an offset.
        let first = buffers.first().map_or(0, |buffer| buffer.0);
        let task_of =
            |buffer: BufferId| buffer.0.checked_sub(first).filter(|&t| t < buffers.len() as u64);
        let remap = |record: &mut RunRecord| {
            for transfer in &mut record.transfers {
                if let Some(t) = task_of(transfer.buffer) {
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
    use crate::data_manager::TransferReason;
    use crate::types::Dependence;
    use crate::types::MapType;
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
        // An unusual (workers, reply timeout) pair keys this test's pool
        // apart from any other keepalive user in the process.
        let config = OmpcConfig {
            warm_worker_keepalive: true,
            event_reply_timeout_ms: Some(60_007),
            ..OmpcConfig::small()
        };
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
        // A key no other test in the process uses: 3 workers and a reply
        // timeout of 60 009 ms. Every lifetime below adopts (or parks into)
        // this slot and no other.
        let config = OmpcConfig {
            warm_worker_keepalive: true,
            event_reply_timeout_ms: Some(60_009),
            ..OmpcConfig::small()
        };
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
    /// mailboxes on every rank, whichever tag a leftover sat on.
    #[test]
    fn an_adopted_pool_starts_with_empty_mailboxes_after_a_failed_region() {
        use crate::runtime::fault::FaultPlan;
        // A key no other test in the process uses: 2 workers and a reply
        // timeout of 60 011 ms.
        let config = OmpcConfig {
            warm_worker_keepalive: true,
            event_reply_timeout_ms: Some(60_011),
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
        // leave behind: a worker's message on a tag of its own.
        let world = d1.world.as_ref().unwrap();
        world.communicator(2).send(HEAD_NODE, ompc_mpi::Tag(1 << 40), vec![1]).unwrap();
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

    /// The zero block outlives the region that asked for it: every buffer of
    /// the first `run_workload` is released with its run, yet the registry
    /// still keeps their block, the second run's buffers view the very same
    /// allocation, and shutdown lets it go.
    #[test]
    fn consecutive_workloads_share_one_zero_block_until_shutdown() {
        let mut device = ClusterDevice::spawn(2);
        let mut graph = ompc_sched::TaskGraph::new();
        for task in 0..4 {
            graph.add_task(1e-6);
            if task > 0 {
                graph.add_edge(task - 1, task, 4096);
            }
        }
        let workload = crate::model::WorkloadGraph::new(graph, vec![4096; 4]);
        let plan = RuntimePlan { assignment: vec![1, 2, 1, 2], window: 4 };
        assert!(device.buffers.kept_zeros().is_none(), "nothing is kept before it is asked for");
        device.run_workload(&workload, &plan).unwrap();
        assert!(device.buffers.is_empty(), "the run released its buffers");
        let first = device.buffers.kept_zeros().expect("the block outlives the run");
        assert!(first.len() >= 4096 && first.iter().all(|&byte| byte == 0));
        device.run_workload(&workload, &plan).unwrap();
        let second = device.buffers.kept_zeros().unwrap();
        assert!(second.same_allocation(&first), "the second run viewed the first run's block");
        device.shutdown();
        assert!(device.buffers.kept_zeros().is_none(), "shutdown lets the block go");
    }

    /// Three runs of different shapes and output sizes on one device — a
    /// chain, a fan-out and fan-in, a stencil — each complete every task
    /// and leave nothing behind: no registry slot, no data-manager entry,
    /// and no copy of any of the run's buffers on either worker.
    #[test]
    fn consecutive_runs_of_different_shapes_leave_nothing_behind() {
        let workload = |tasks: usize, edges: &[(usize, usize)], bytes: u64| {
            let mut graph = ompc_sched::TaskGraph::new();
            for _ in 0..tasks {
                graph.add_task(1e-5);
            }
            for &(from, to) in edges {
                graph.add_edge(from, to, bytes);
            }
            WorkloadGraph::new(graph, vec![bytes; tasks])
        };
        let chain: Vec<(usize, usize)> = (1..6).map(|t| (t - 1, t)).collect();
        let fan: Vec<(usize, usize)> = (1..9).flat_map(|t| [(0, t), (t, 9)]).collect();
        let stencil: Vec<(usize, usize)> =
            (4..16).flat_map(|t| [(t - 4, t), (t - 4 - (t % 4 > 0) as usize, t)]).collect();
        let runs =
            [workload(6, &chain, 4096), workload(10, &fan, 64), workload(16, &stencil, 256 << 10)];
        let config = OmpcConfig::small();
        let mut device = ClusterDevice::with_config(2, config.clone());
        for (k, workload) in runs.iter().enumerate() {
            // The run's buffers are the ids between two registered around it.
            let before = device.buffers.register(Vec::new());
            let plan = RuntimePlan::for_workload(workload, &Platform::cluster(2), &config);
            let record = device.run_workload(workload, &plan).unwrap();
            let after = device.buffers.register(Vec::new());
            let mut completed = record.completion_order.clone();
            completed.sort_unstable();
            assert_eq!(completed, (0..workload.len()).collect::<Vec<_>>(), "run {k}");
            assert_eq!(after.0 - before.0 - 1, workload.len() as u64, "run {k}: one buffer a task");
            device.buffers.remove_all(&[before, after]).unwrap();
            assert!(device.buffers.is_empty(), "run {k}: the registry is empty");
            assert!(device.dm.lock().is_empty(), "run {k}: the data manager is empty");
            for buffer in (before.0 + 1..after.0).map(BufferId) {
                for worker in 1..=2 {
                    let copy = device.events.retrieve(worker, buffer);
                    assert!(copy.is_err(), "run {k}: worker {worker} still holds {buffer}");
                }
            }
        }
        device.shutdown();
    }

    /// A cold shutdown ends every worker's event pool through its mailbox:
    /// no receive is left posted on any rank, and nobody woke for nothing.
    #[test]
    fn a_cold_shutdown_leaves_no_receive_posted_on_any_rank() {
        let config = OmpcConfig { warm_worker_keepalive: false, ..OmpcConfig::small() };
        let mut device = ClusterDevice::with_config(2, config);
        let mut graph = ompc_sched::TaskGraph::new();
        for task in 0..8 {
            graph.add_task(1e-4);
            if task > 0 {
                graph.add_edge(task - 1, task, 64);
            }
        }
        let workload = crate::model::WorkloadGraph::new(graph, vec![64; 8]);
        let plan = RuntimePlan { assignment: (0..8).map(|task| 1 + task % 2).collect(), window: 4 };
        device.run_workload(&workload, &plan).unwrap();
        device.shutdown();
        let stats = device.mailbox_stats();
        assert_eq!(stats.len(), 3);
        for (rank, rank_stats) in stats.iter().enumerate() {
            assert_eq!((rank_stats.posted, rank_stats.empty_wakeups), (0, 0), "rank {rank}");
        }
    }

    /// Region A's enter-data car to node 1 is booked while A's driver sits
    /// in a host task, and region B runs one reader of that buffer there:
    /// B's car departs A's train ahead of itself and queues behind A's
    /// receive on the worker's lane, so B completes with A's bytes before A
    /// is released.
    #[test]
    fn a_reader_of_another_tenants_booking_completes_while_that_tenant_is_held() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let config = OmpcConfig::small();
            let mut device = ClusterDevice::with_config(1, config);
            let seen = Arc::new(Mutex::new(Vec::new()));
            let read = {
                let seen = Arc::clone(&seen);
                device.register_kernel_fn("read", 1e-6, move |args| {
                    *seen.lock() = args.as_f64s(0);
                })
            };
            let buffer = device.enter_data_f64s(&[1.0, 2.0]);
            let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
            let release_rx = Mutex::new(release_rx);
            let mut a = RegionGraph::new();
            let enter = TaskKind::EnterData { buffer, map: MapType::To };
            a.add_task(enter, vec![Dependence::output(buffer)], "enter");
            a.add_task(TaskKind::Host { cost_hint: 1e-6 }, vec![], "hold");
            let hold: HostFn = Arc::new(move |_| {
                let _ = release_rx.lock().recv();
            });
            let mut b = RegionGraph::new();
            let reader = TaskKind::Target { kernel: read, cost_hint: 1e-6 };
            b.add_task(reader, vec![Dependence::input(buffer)], "reader");
            let run = |graph: RegionGraph, assignment, host_fns| {
                let region = device.dm.lock().begin_region();
                let telemetry = device.telemetry.scoped(region);
                let plan = RuntimePlan { assignment, window: 4 };
                device.execute_planned(Arc::new(graph), host_fns, &plan, region, &telemetry)
            };
            let (a_result, b_before_release) = std::thread::scope(|scope| {
                let a = scope.spawn(|| run(a, vec![1, HEAD_NODE], HashMap::from([(1, hold)])));
                // A's booking is made before its host task runs.
                while !device.dm.lock().buffer_in_flight(buffer) {
                    std::thread::yield_now();
                }
                let (done_tx, done_rx) = std::sync::mpsc::channel();
                scope.spawn(move || {
                    let _ = done_tx.send(run(b, vec![1], HashMap::new()).map(drop));
                });
                let b = done_rx.recv_timeout(std::time::Duration::from_secs(30));
                release_tx.send(()).unwrap();
                (a.join().unwrap(), b)
            });
            let b_result = b_before_release.expect("B completes before A is released");
            assert!(b_result.is_ok(), "{b_result:?}");
            assert!(a_result.is_ok(), "{a_result:?}");
            assert_eq!(*seen.lock(), vec![1.0, 2.0], "B read A's bytes");
            device.shutdown();
        });
    }

    /// A reader of another tenant's booking towards a dead node fails at
    /// once, blamed on that node, and never runs. Region A books an
    /// enter-data car towards a worker killed behind the head's back, and
    /// A's host task holds A's driver, so the booking stays in flight.
    /// Region B's reader of that buffer on that worker departs A's train
    /// ahead of its own car, which awaits A's receive; the node's zombie
    /// gate refuses both cars, each with its own error reply.
    #[test]
    fn a_failed_booking_of_another_tenant_fails_the_task_parked_on_it_at_once() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let config = OmpcConfig { warm_worker_keepalive: false, ..OmpcConfig::small() };
            let mut device = ClusterDevice::with_config(1, config);
            let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let read = {
                let ran = Arc::clone(&ran);
                device.register_kernel_fn("read", 1e-6, move |_| ran.store(true, Ordering::SeqCst))
            };
            let buffer = device.enter_data_f64s(&[1.0, 2.0]);
            device.events.kill(1).unwrap();

            // Each region's host task follows its data task: A's holds A's
            // driver until B's reader is lowered, B's reports that it is.
            let (lowered_tx, lowered_rx) = std::sync::mpsc::channel::<()>();
            let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
            let release_rx = Mutex::new(release_rx);
            let host = TaskKind::Host { cost_hint: 1e-6 };
            let enter = TaskKind::EnterData { buffer, map: MapType::To };
            let mut a = RegionGraph::new();
            a.add_task(enter, vec![Dependence::output(buffer)], "enter");
            a.add_task(host.clone(), vec![], "hold");
            let hold: HostFn = Arc::new(move |_| {
                let _ = release_rx.lock().recv();
            });
            let mut b = RegionGraph::new();
            let reader = TaskKind::Target { kernel: read, cost_hint: 1e-6 };
            b.add_task(reader, vec![Dependence::input(buffer)], "reader");
            b.add_task(host, vec![], "lowered");
            let lowered: HostFn = Arc::new(move |_| {
                let _ = lowered_tx.send(());
            });
            let run = |graph: RegionGraph, host_fn: HostFn| {
                let region = device.dm.lock().begin_region();
                let telemetry = device.telemetry.scoped(region);
                let plan = RuntimePlan { assignment: vec![1, HEAD_NODE], window: 4 };
                let host_fns = HashMap::from([(1, host_fn)]);
                device.execute_planned(Arc::new(graph), host_fns, &plan, region, &telemetry)
            };
            let (a_error, b_error) = std::thread::scope(|scope| {
                let a = scope.spawn(|| run(a, hold).unwrap_err());
                // A's booking is made before its host task runs.
                while !device.dm.lock().buffer_in_flight(buffer) {
                    std::thread::yield_now();
                }
                let b = scope.spawn(|| run(b, lowered).unwrap_err());
                lowered_rx.recv().unwrap();
                release_tx.send(()).unwrap();
                (a.join().unwrap(), b.join().unwrap())
            });
            for error in [&a_error, &b_error] {
                assert_eq!(error.origin_node(), Some(1), "{error:?}");
                assert_eq!(error.root_cause(), &OmpcError::NodeFailure(1), "{error:?}");
            }
            assert!(!ran.load(Ordering::SeqCst), "the refused reader never ran");
            device.shutdown();
        });
    }

    /// The latent double-flush stays fixed: threads reading one
    /// worker-held buffer at once are serialized through the in-flight
    /// table onto one retrieve, and all of them read the same bytes.
    #[test]
    fn concurrent_flushes_schedule_exactly_one_retrieve() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let mut device = ClusterDevice::with_config(2, OmpcConfig::small());
            let sum = device.register_kernel_fn("sum", 1e-6, |args| {
                let total: f64 = args.as_f64s(0).iter().sum();
                args.set_f64s(1, &[total]);
            });
            let input = device.enter_data_f64s(&[4.0, 5.0]);
            let mut region = device.target_region();
            let out = region.map_alloc(8);
            region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
            region.run().unwrap();
            // `out` now lives on a worker and the host copy is stale.
            device.take_unattributed_transfers();
            let reads: Vec<Vec<u8>> = std::thread::scope(|scope| {
                let readers: Vec<_> =
                    (0..4).map(|_| scope.spawn(|| device.buffer_data(out).unwrap())).collect();
                readers.into_iter().map(|reader| reader.join().unwrap()).collect()
            });
            assert!(reads.windows(2).all(|w| w[0] == w[1]), "racing readers saw different bytes");
            assert_eq!(device.buffer_f64s(out).unwrap(), vec![9.0]);
            let retrieves: Vec<_> = device
                .take_unattributed_transfers()
                .into_iter()
                .filter(|t| t.buffer == out)
                .collect();
            assert_eq!(retrieves.len(), 1, "concurrent host reads double-flushed: {retrieves:?}");
            assert_eq!(retrieves[0].reason, TransferReason::Retrieve);
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
            let read = device.register_kernel_fn("read", 1e-6, |_| {});
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
            // retirement. A late reader of `d` on worker 1, whose car the
            // fill's holds, retires after the death, and the reader (which
            // writes `d`) is dispatched only then: its push is unclaimed
            // when the node dies.
            let producer = vec![Dependence::inout(b), Dependence::input(c)];
            graph.add_task(target(bump), producer, "producer");
            graph.add_task(target(fill), vec![Dependence::output(c)], "fill");
            graph.add_task(target(read), vec![Dependence::input(c), Dependence::input(d)], "late");
            let reader = vec![Dependence::input(b), Dependence::input(c), Dependence::output(d)];
            graph.add_task(target(sum), reader, "reader");
            let plan = RuntimePlan { assignment: vec![1, 2, 1, 2], window: 4 };
            let region = device.dm.lock().begin_region();
            let telemetry = device.telemetry.scoped(region);
            let graph = Arc::new(graph);
            let record =
                device.execute_planned(graph, HashMap::new(), &plan, region, &telemetry).unwrap();
            assert_eq!(record.failures.len(), 1);
            assert_eq!(record.failures[0].node, 2);
            assert_eq!(record.assignment, vec![1, 1, 1, 1], "the fill and the reader moved");
            assert!(
                record.transfers.iter().all(|t| t.buffer != b || t.to != 2),
                "the push to the dead node is withdrawn: {:?}",
                record.transfers
            );
            assert_eq!(device.buffer_f64s(d).unwrap(), vec![12.0]);
            device.shutdown();
        });
    }

    /// The kernels of the held-car death tests: `inc` writes its first
    /// buffer plus one into its last; `read` writes nothing. On a device with
    /// a fault plan, `slow` runs `inc` 100 ms late, and `late` runs it only
    /// once worker 2 was failed and 100 ms more have passed.
    #[derive(Clone, Copy)]
    struct DeathKernels {
        inc: KernelId,
        read: KernelId,
        slow: KernelId,
        late: KernelId,
    }

    /// `build`'s region over four device buffers, each entered as 0.0, run
    /// with `assignment` at window 4 on two workers, worker 2 dying after
    /// its `after`-th retirement — and with no fault plan. The faulty run's
    /// record, once the bytes of all four buffers were found equal in both
    /// runs.
    fn held_cars_across_a_death(
        after: usize,
        assignment: Vec<NodeId>,
        build: impl Fn(DeathKernels, [BufferId; 4]) -> RegionGraph,
    ) -> RunRecord {
        let run = |fault_plan: FaultPlan| {
            let faulty = !fault_plan.is_empty();
            let mut device =
                ClusterDevice::with_config(2, OmpcConfig { fault_plan, ..OmpcConfig::small() });
            let inc = |args: &mut KernelArgs<'_>| {
                let v = args.as_f64s(0)[0];
                args.set_f64s(args.len() - 1, &[v + 1.0]);
            };
            let pause = move || {
                if faulty {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
            };
            let dm = Arc::clone(&device.dm);
            let kernels = DeathKernels {
                inc: device.register_kernel_fn("inc", 1e-6, inc),
                read: device.register_kernel_fn("read", 1e-6, |_| {}),
                slow: device.register_kernel_fn("slow", 1e-6, move |args| {
                    pause();
                    inc(args);
                }),
                late: device.register_kernel_fn("late", 1e-6, move |args| {
                    while faulty && !dm.lock().is_failed(2) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    pause();
                    inc(args);
                }),
            };
            let buffers = [0; 4].map(|_| device.enter_data_f64s(&[0.0]));
            let plan = RuntimePlan { assignment: assignment.clone(), window: 4 };
            let region = device.dm.lock().begin_region();
            let telemetry = device.telemetry.scoped(region);
            let graph = Arc::new(build(kernels, buffers));
            let record =
                device.execute_planned(graph, HashMap::new(), &plan, region, &telemetry).unwrap();
            let bytes: Vec<Vec<f64>> =
                buffers.iter().map(|&b| device.buffer_f64s(b).unwrap()).collect();
            device.shutdown();
            (record, bytes)
        };
        let (_, clean) = run(FaultPlan::none());
        let (record, bytes) = run(FaultPlan::none().fail_after_completions(2, after));
        assert_eq!(bytes, clean, "{record:?}");
        assert_eq!(record.failures.len(), 1, "{record:?}");
        record
    }

    fn death_target(kernel: KernelId) -> TaskKind {
        TaskKind::Target { kernel, cost_hint: 1e-6 }
    }

    /// Worker 2 dies with the retirement of the slow X while P, queued behind
    /// X there, waits in its kernel for the death, and C, P's consumer held on
    /// worker 1, awaits the push of P's `a` — on the node where Q read the
    /// version P supersedes. P's car, on the node before the kill, runs and
    /// pushes: C retires with those bytes, and P, whose completion is stale,
    /// runs again from the version Q read, not from what C's claim landed.
    #[test]
    fn a_held_consumer_of_a_producer_on_a_dying_node_leaves_the_bytes_of_a_clean_run() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let assignment = vec![1, 2, 2, 1];
            let record = held_cars_across_a_death(1, assignment, |k, [x, a, out, q]| {
                let mut graph = RegionGraph::new();
                let read = vec![Dependence::input(a), Dependence::output(q)];
                graph.add_task(death_target(k.inc), read, "Q");
                graph.add_task(death_target(k.slow), vec![Dependence::inout(x)], "X");
                graph.add_task(death_target(k.late), vec![Dependence::inout(a)], "P");
                let read = vec![Dependence::input(a), Dependence::output(out)];
                graph.add_task(death_target(k.inc), read, "C");
                graph
            });
            let dispatches = |t| record.dispatch_order.iter().filter(|&&x| x == t).count();
            assert_eq!(record.dispatch_order[2..4], [2, 3], "C was held behind P: {record:?}");
            assert!(record.reexecuted.contains(&2) && dispatches(3) == 1, "{record:?}");
        });
    }

    /// P, on worker 2, writes `a`; X, also on worker 2, reads it (held
    /// beside P) and retires second, and worker 2 dies with it while C, held
    /// on worker 1, is still in its kernel with the push of `a` landed: that
    /// copy does not survive the node it came from, so lineage runs P again
    /// from the head's image, not from C's copy.
    #[test]
    fn a_copy_still_landing_from_a_dying_node_does_not_survive_it() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let record = held_cars_across_a_death(2, vec![2, 1, 2], |k, [a, out, x, _]| {
                let mut graph = RegionGraph::new();
                graph.add_task(death_target(k.inc), vec![Dependence::inout(a)], "P");
                let read = vec![Dependence::input(a), Dependence::output(out)];
                graph.add_task(death_target(k.slow), read, "C");
                let read = vec![Dependence::input(a), Dependence::output(x)];
                graph.add_task(death_target(k.inc), read, "X");
                graph
            });
            assert!(record.reexecuted.contains(&0), "{record:?}");
        });
    }

    /// C, held behind P on worker 1, sits on worker 2, which dies with the
    /// retirement of X, the reader of what C overwrites: C is launched onto
    /// the dead node while P's car is in flight, its completion is stale,
    /// and it is ready again at once — dispatched until the death is
    /// declared, then run on the survivor beside P.
    #[test]
    fn a_held_consumer_on_the_dying_node_runs_on_the_survivor() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let record = held_cars_across_a_death(1, vec![1, 2, 2], |k, [a, out, _, _]| {
                let mut graph = RegionGraph::new();
                graph.add_task(death_target(k.late), vec![Dependence::inout(a)], "P");
                graph.add_task(death_target(k.read), vec![Dependence::input(out)], "X");
                let read = vec![Dependence::input(a), Dependence::output(out)];
                graph.add_task(death_target(k.inc), read, "C");
                graph
            });
            let dispatches = |t| record.dispatch_order.iter().filter(|&&x| x == t).count();
            assert_eq!(record.assignment, vec![1, 2, 1], "C moved to the survivor");
            assert_eq!(record.reexecuted, vec![2], "{record:?}");
            assert!(dispatches(2) > 1, "C was dispatched onto the dead node: {record:?}");
        });
    }

    /// P, on worker 2, writes `a` and `b`; C, held behind it on worker 1,
    /// reads `a` and is still in its kernel when worker 2 dies with P's
    /// retirement. `b`, read by nobody yet, died with the node: lineage runs
    /// P again after C was launched, and R, P's other reader (kept back by an
    /// anti dependence on C), reads the new `b`.
    #[test]
    fn lineage_reruns_a_producer_after_its_held_consumer_was_launched() {
        ompc_testutil::with_timeout(std::time::Duration::from_secs(120), || {
            let record = held_cars_across_a_death(1, vec![2, 1, 1], |k, [a, b, z, out]| {
                let mut graph = RegionGraph::new();
                let write = vec![Dependence::inout(a), Dependence::output(b)];
                graph.add_task(death_target(k.inc), write, "P");
                let read =
                    vec![Dependence::input(a), Dependence::input(z), Dependence::output(out)];
                graph.add_task(death_target(k.late), read, "C");
                let read_b = vec![Dependence::input(b), Dependence::output(z)];
                graph.add_task(death_target(k.inc), read_b, "R");
                graph
            });
            let dispatches = |t| record.dispatch_order.iter().filter(|&&x| x == t).count();
            assert_eq!(record.dispatch_order[..2], [0, 1], "C was held behind P");
            assert!(dispatches(0) > 1 && dispatches(1) == 1, "{record:?}");
            assert_eq!(record.reexecuted, vec![0], "lineage ran P again, alone");
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
