//! Runtime configuration. [`OmpcConfig`] holds the settings every execution
//! backend honours; [`OverheadModel`] holds what only the simulated backend
//! reads — its cost constants and its two ablation switches.

use crate::runtime::fault::FaultPlan;
use crate::runtime::telemetry::TelemetryLevel;
use ompc_sched::{EagerScheduler, HeftScheduler, MinMinScheduler, RoundRobinScheduler, Scheduler};
use ompc_sim::SimTime;

/// Which [`crate::runtime::ExecutionBackend`] the unified execution core
/// drives. Both share every scheduling, windowing, forwarding, and recovery
/// decision; they differ only in *how* dispatched tasks execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Another name for [`BackendKind::Mpi`]: the same transport, kept
    /// because recorded benchmark configurations name it.
    Threaded,
    /// [`crate::runtime::MpiBackend`], the one real-cluster transport: the
    /// head serializes each task into one composite event carried over
    /// `ompc-mpi` tagged messages and picks typed completions off the
    /// region execution's own channel, as the paper's gate thread does. No
    /// head thread blocks per in-flight task. The default.
    #[default]
    Mpi,
    /// [`crate::runtime::SimBackend`]: the deterministic virtual cluster.
    /// Selected implicitly by the `simulate_ompc*` functions; a
    /// [`crate::cluster::ClusterDevice`] rejects it with
    /// [`crate::types::OmpcError::InvalidConfig`] because a real device
    /// has no cost model to simulate against.
    Sim,
}

impl BackendKind {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Threaded => "threaded",
            BackendKind::Mpi => "mpi",
            BackendKind::Sim => "sim",
        }
    }
}

/// Which static scheduler the runtime uses at the implicit barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// HEFT — the paper's choice (§4.4).
    Heft,
    /// Round-robin placement (ablation baseline).
    RoundRobin,
    /// Min-min list scheduling (ablation baseline).
    MinMin,
    /// Work-stealing-like eager placement (ablation baseline).
    Eager,
}

impl SchedulerKind {
    /// Instantiate the corresponding scheduler.
    pub fn build(self) -> Box<dyn Scheduler + Send + Sync> {
        match self {
            SchedulerKind::Heft => Box::new(HeftScheduler::new()),
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
            SchedulerKind::MinMin => Box::new(MinMinScheduler::new()),
            SchedulerKind::Eager => Box::new(EagerScheduler::new()),
        }
    }

    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Heft => "heft",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::MinMin => "min-min",
            SchedulerKind::Eager => "eager",
        }
    }
}

/// Configuration of a [`crate::cluster::ClusterDevice`] (the real
/// in-process cluster) and of the simulated OMPC runtime.
///
/// Build one by updating the defaults:
///
/// ```
/// use ompc_core::config::{OmpcConfig, SchedulerKind};
///
/// let config = OmpcConfig {
///     max_inflight_tasks: 32,
///     scheduler: SchedulerKind::Heft,
///     ..OmpcConfig::default()
/// };
/// assert_eq!(config.inflight_window(), 32);
/// // The defaults keep the paper's limit of 48 in-flight target tasks.
/// assert_eq!(OmpcConfig::default().inflight_window(), 48);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OmpcConfig {
    /// Which execution backend a [`crate::cluster::ClusterDevice`] drives:
    /// the message-passing [`crate::runtime::MpiBackend`] (default; also
    /// named [`BackendKind::Threaded`]). The simulated backend is selected
    /// through the `simulate_ompc*` entry points instead.
    pub backend: BackendKind,
    /// Number of event-handler threads per worker node (paper §4.2).
    pub event_handler_threads: usize,
    /// Size of the pipelined dispatch window: how many target tasks the
    /// unified execution core keeps in flight at once, overlapping their
    /// input forwarding with other tasks' compute. In LLVM's libomptarget
    /// one OpenMP thread blocks per in-flight `target nowait` region, so the
    /// paper's runtime keeps at most its 48 hidden-helper threads' worth in
    /// flight — the limitation it identifies as the main scalability
    /// bottleneck (§7) — and the default reproduces that limit. No head
    /// thread blocks per task here, so the window is only a number:
    /// `usize::MAX` lifts the limit — the "fully asynchronous libomptarget"
    /// fix the paper proposes as future work — and `0` is treated as `1`.
    pub max_inflight_tasks: usize,
    /// Number of MPI communicators created at start-up and used round-robin
    /// by the event system. `0` is treated as `1`.
    pub num_communicators: u32,
    /// Static scheduler used at the implicit barrier.
    pub scheduler: SchedulerKind,
    /// Deterministic failure-injection plan honoured by every execution
    /// backend (paper §3.1 fault tolerance). Empty by default: no node
    /// ever fails and the fault subsystem stays entirely out of the
    /// dispatch loop.
    pub fault_plan: FaultPlan,
    /// When a failure is declared, re-run the configured static scheduler
    /// over the surviving workers instead of the fast round-robin
    /// [`crate::heartbeat::plan_recovery`] path.
    pub replan_on_failure: bool,
    /// Upper bound (milliseconds) on any single wait for an event reply —
    /// and on a worker's wait for a transfer queued ahead of a task — or
    /// `None` to wait forever. The event-reply protocol guarantees every
    /// event is answered — success or typed error — so this is a last line
    /// of defence against a reply that can never arrive (e.g. a worker
    /// thread that died without answering);
    /// hitting it surfaces as an [`crate::types::OmpcError::Communication`]
    /// instead of a hang. `None` by default — a kernel is allowed to run
    /// arbitrarily long — and set to 60 s in [`OmpcConfig::small`], the
    /// test configuration, where kernels are tiny and a lost reply should
    /// fail the suite fast. When enabling it for production runs, budget
    /// for the slowest kernel plus queueing delay on the worker's handler
    /// pool.
    pub event_reply_timeout_ms: Option<u64>,
    /// Keep the MPI worker loops of a [`crate::cluster::ClusterDevice`]
    /// alive after [`crate::cluster::ClusterDevice::shutdown`] and let the
    /// next device with the same shape (workers, communicators, handler
    /// threads) adopt them instead of spawning fresh ones — amortizing the
    /// fig. 7(a) startup share across runs. Workers are reset (device
    /// memory cleared, counters zeroed) between lifetimes, and a device
    /// that saw any node failure is never parked — a failed pool is torn
    /// down cold. Enabled by default; disable for tests that count spawned
    /// threads across device lifetimes.
    pub warm_worker_keepalive: bool,
    /// Start the transfers of [`crate::cluster::ClusterDevice::enter_data`]
    /// asynchronously: `enter_data` (and the `_f64s` variant) books the
    /// distribution in the [`crate::data_manager::DataManager`] in-flight
    /// table, hands it to the device's async transfer engine, and returns
    /// immediately; the first reader — a region task or a host read —
    /// awaits the in-flight entry instead of re-submitting. The explicit
    /// `enter_data_async` entry points always run asynchronously and return
    /// a ticket regardless of this knob. Disabled by default: `enter_data`
    /// blocks until the data landed, the historical behaviour.
    pub enter_data_async: bool,
    /// How many queued target regions ahead of the running one the
    /// cross-region prefetcher ([`crate::cluster::ClusterDevice::run_pipeline`])
    /// may stream enter-data inputs for while earlier regions compute
    /// (the §4.4 pipelined-dispatch extension to the data path). `0`
    /// disables prefetch: queued regions distribute their inputs only when
    /// they start. Prefetches never duplicate resident copies and roll
    /// back onto survivors when a target node dies mid-flight.
    pub prefetch_depth: usize,
    /// How many independent target regions the device admits into execution
    /// at once. `1` (the default) serializes regions exactly as before:
    /// each `execute_region` call runs alone and produces byte-identical
    /// records, reports, and transfer plans to the historical behaviour.
    /// Raising it lets that many clients run concurrently over the shared
    /// workers and residency table — admission is strictly FIFO
    /// (a huge region cannot starve the small ones queued behind it; they
    /// were admitted in arrival order), each admitted region plans against
    /// a load snapshot of the regions already in flight, and every region
    /// keeps its own transfer-log namespace, telemetry scope, and
    /// [`crate::runtime::RunRecord`]. `0` is treated as `1`.
    pub max_concurrent_regions: usize,
    /// Minimum destination count at which a one-to-many distribution is
    /// planned as a **binomial broadcast tree** of worker-to-worker relays
    /// instead of a star of independent source-sourced sends. When a single
    /// planning step (a region's read-only input set, an async enter-data
    /// booking, or a prefetch train) must place one buffer on `k`
    /// destinations and `k >= collective_min_fanout`, the source sends
    /// O(log k) copies and interior recipients fan the payload onward, so
    /// the source link stops serializing `k` wire trips. `0` (the default)
    /// disables collectives entirely; any distribution below the threshold
    /// is planned exactly as before, byte-identical transfer logs included.
    /// Only the real backends honour the knob — the simulated backend keeps
    /// its analytic star model.
    pub collective_min_fanout: usize,
    /// Frame size, in KiB, of the chunked payload stream used by collective
    /// broadcast trees. With a positive value a relayed buffer travels as a
    /// pipeline of frames — an interior relay forwards frame `i` to its
    /// children while frame `i + 1` is still on the wire to it — overlapping
    /// serialization, transmission, and fan-out along the tree. `0` (the
    /// default) sends each relayed buffer as a single whole-buffer frame.
    /// Ignored outside collective distributions; point-to-point transfers
    /// are never chunked.
    pub collective_chunk_kib: usize,
    /// Opt-in wire emulation for benchmarking: when positive, every rank's
    /// outbound messages serialize through a per-rank egress budget of this
    /// many MiB/s, so `k` concurrent sends from one node genuinely queue on
    /// its link the way they would on a single NIC. `0` (the default)
    /// delivers at memcpy speed with no pacing. Purely a wall-clock model:
    /// delivery order, transfer plans, logs, and outputs are unaffected.
    pub emulated_link_mib_per_s: usize,
    /// How much the runtime records about its own execution (see
    /// [`crate::runtime::telemetry`]). [`TelemetryLevel::Off`] (the
    /// default) reaches no clock read and leaves
    /// [`crate::runtime::RunRecord::spans`] empty;
    /// [`TelemetryLevel::Spans`] records the full per-task lifecycle span
    /// stream on both real backends, exportable as a Chrome-trace timeline
    /// and foldable into an overhead attribution. Spans are observational:
    /// dispatch orders, completion orders, and transfer plans are identical
    /// at every level.
    pub telemetry: TelemetryLevel,
}

impl Default for OmpcConfig {
    fn default() -> Self {
        Self {
            backend: BackendKind::Mpi,
            event_handler_threads: 2,
            // The paper's nodes have 24 cores / 48 hardware threads; the
            // OpenMP hidden-helper/worker pool on the head node is what
            // bounds in-flight target regions.
            max_inflight_tasks: 48,
            num_communicators: 8,
            scheduler: SchedulerKind::Heft,
            fault_plan: FaultPlan::default(),
            replan_on_failure: false,
            event_reply_timeout_ms: None,
            warm_worker_keepalive: true,
            enter_data_async: false,
            prefetch_depth: 1,
            max_concurrent_regions: 1,
            collective_min_fanout: 0,
            collective_chunk_kib: 0,
            emulated_link_mib_per_s: 0,
            telemetry: TelemetryLevel::Off,
        }
    }
}

impl OmpcConfig {
    /// A configuration sized for small in-process tests: few threads, few
    /// communicators.
    pub fn small() -> Self {
        Self {
            backend: BackendKind::Mpi,
            event_handler_threads: 1,
            max_inflight_tasks: 4,
            num_communicators: 2,
            scheduler: SchedulerKind::Heft,
            fault_plan: FaultPlan::default(),
            replan_on_failure: false,
            event_reply_timeout_ms: Some(60_000),
            warm_worker_keepalive: true,
            enter_data_async: false,
            prefetch_depth: 1,
            max_concurrent_regions: 1,
            collective_min_fanout: 0,
            collective_chunk_kib: 0,
            emulated_link_mib_per_s: 0,
            telemetry: TelemetryLevel::Off,
        }
    }

    /// The effective dispatch-window size honoured by every execution
    /// backend: [`OmpcConfig::max_inflight_tasks`], at least one task.
    pub fn inflight_window(&self) -> usize {
        self.max_inflight_tasks.max(1)
    }

    /// The effective admission limit: how many regions may execute at once.
    /// `0` is clamped to `1` — a device that admits nothing would deadlock
    /// its first client.
    pub fn admission_limit(&self) -> usize {
        self.max_concurrent_regions.max(1)
    }

    /// The effective collective threshold: `None` when broadcast trees are
    /// disabled ([`OmpcConfig::collective_min_fanout`] of `0`), otherwise
    /// the minimum destination count, clamped to at least `2` — a
    /// one-destination "tree" is definitionally the existing point-to-point
    /// path and must stay byte-identical to it.
    pub fn collective_threshold(&self) -> Option<usize> {
        match self.collective_min_fanout {
            0 => None,
            n => Some(n.max(2)),
        }
    }

    /// The collective frame size in bytes: `0` means each relayed buffer
    /// travels as one whole-buffer frame.
    pub fn collective_chunk_bytes(&self) -> usize {
        self.collective_chunk_kib.saturating_mul(1024)
    }
}

/// What only the simulated OMPC runtime ([`crate::runtime::SimBackend`])
/// reads. The overhead constants are calibrated against the
/// runtime-overhead characterization of Fig. 7(a): start-up and shutdown are
/// constant, there is a fixed cost per scheduled task and per dispatched
/// event, and the whole runtime adds roughly 25 ms of constant overhead with
/// a ~4.7 ms gap after the first event. The two model switches reproduce
/// the §7 ablations; a real device has no such choice, so they are not part
/// of [`OmpcConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadModel {
    /// Time from process start to the creation of the gate threads.
    pub startup: SimTime,
    /// Time from gate-thread destruction to process exit.
    pub shutdown: SimTime,
    /// Fixed scheduling cost per task in the graph (HEFT is O(e × p); the
    /// per-task constant folds the per-edge work of the patterns used).
    pub schedule_per_task: SimTime,
    /// Fixed scheduling cost per edge in the graph.
    pub schedule_per_edge: SimTime,
    /// Head-node bookkeeping to create and dispatch one event (origin side
    /// of the event system).
    pub event_dispatch: SimTime,
    /// Head-node bookkeeping to retire a completed event.
    pub event_completion: SimTime,
    /// Worker-node bookkeeping to handle one event (gate thread + handler).
    pub worker_event_handling: SimTime,
    /// Issue a task's input transfers strictly one at a time, the way a
    /// blocked libomptarget head thread processes a target region's map
    /// items in order. Disabled by default: the pipelined dispatch loop
    /// issues all of a task's input forwards concurrently.
    pub serial_input_transfers: bool,
    /// Whether the data manager forwards buffers directly between worker
    /// nodes (paper §4.3). Disabling it stages every transfer through the
    /// head node, the behaviour the DM was built to avoid.
    pub worker_to_worker_forwarding: bool,
}

impl Default for OverheadModel {
    fn default() -> Self {
        Self {
            startup: SimTime::from_millis(12),
            shutdown: SimTime::from_millis(8),
            schedule_per_task: SimTime::from_micros(25),
            schedule_per_edge: SimTime::from_micros(5),
            event_dispatch: SimTime::from_micros(120),
            event_completion: SimTime::from_micros(60),
            worker_event_handling: SimTime::from_micros(80),
            serial_input_transfers: false,
            worker_to_worker_forwarding: true,
        }
    }
}

impl OverheadModel {
    /// Total scheduling overhead for a graph of `tasks` tasks and `edges`
    /// edges.
    pub fn schedule_time(&self, tasks: usize, edges: usize) -> SimTime {
        SimTime(self.schedule_per_task.0 * tasks as u64 + self.schedule_per_edge.0 * edges as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_kinds_build_their_scheduler() {
        for kind in [
            SchedulerKind::Heft,
            SchedulerKind::RoundRobin,
            SchedulerKind::MinMin,
            SchedulerKind::Eager,
        ] {
            let s = kind.build();
            assert_eq!(s.name(), kind.name());
        }
    }

    #[test]
    fn backend_kinds_have_stable_names_and_mpi_default() {
        assert_eq!(BackendKind::default(), BackendKind::Mpi);
        assert_eq!(BackendKind::Threaded.name(), "threaded");
        assert_eq!(BackendKind::Mpi.name(), "mpi");
        assert_eq!(BackendKind::Sim.name(), "sim");
        assert_eq!(OmpcConfig::default().backend, BackendKind::Mpi);
        assert_eq!(OmpcConfig::small().backend, BackendKind::Mpi);
        // Warm-worker keepalive is on by default.
        assert!(OmpcConfig::default().warm_worker_keepalive);
        assert!(OmpcConfig::small().warm_worker_keepalive);
        // Telemetry is off by default: no clock reads, empty span streams.
        assert_eq!(OmpcConfig::default().telemetry, crate::runtime::TelemetryLevel::Off);
        assert_eq!(OmpcConfig::small().telemetry, crate::runtime::TelemetryLevel::Off);
        // enter_data stays blocking unless opted in; the pipeline prefetches
        // one region ahead by default.
        assert!(!OmpcConfig::default().enter_data_async);
        assert!(!OmpcConfig::small().enter_data_async);
        assert_eq!(OmpcConfig::default().prefetch_depth, 1);
        assert_eq!(OmpcConfig::small().prefetch_depth, 1);
        // Regions are serialized unless the client opts into concurrency;
        // a zero limit is clamped so the device always admits someone.
        assert_eq!(OmpcConfig::default().max_concurrent_regions, 1);
        assert_eq!(OmpcConfig::small().max_concurrent_regions, 1);
        assert_eq!(OmpcConfig::default().admission_limit(), 1);
        assert_eq!(
            OmpcConfig { max_concurrent_regions: 0, ..OmpcConfig::small() }.admission_limit(),
            1
        );
        assert_eq!(
            OmpcConfig { max_concurrent_regions: 4, ..OmpcConfig::small() }.admission_limit(),
            4
        );
    }

    /// The knob audit, pinned: both structs are built with every field
    /// written out, so adding a field fails to compile here. A setting
    /// belongs in [`OmpcConfig`] only if two non-test callers need different
    /// values (or the perf ledger names it) and every backend honours it;
    /// what only the simulator reads goes on [`OverheadModel`]; a value the
    /// code can derive is derived.
    #[test]
    fn every_setting_is_written_out_and_matches_the_defaults() {
        let config = OmpcConfig {
            backend: BackendKind::Mpi,
            event_handler_threads: 2,
            max_inflight_tasks: 48,
            num_communicators: 8,
            scheduler: SchedulerKind::Heft,
            fault_plan: FaultPlan::default(),
            replan_on_failure: false,
            event_reply_timeout_ms: None,
            warm_worker_keepalive: true,
            enter_data_async: false,
            prefetch_depth: 1,
            max_concurrent_regions: 1,
            collective_min_fanout: 0,
            collective_chunk_kib: 0,
            emulated_link_mib_per_s: 0,
            telemetry: TelemetryLevel::Off,
        };
        assert_eq!(config, OmpcConfig::default());
        let overheads = OverheadModel {
            startup: SimTime::from_millis(12),
            shutdown: SimTime::from_millis(8),
            schedule_per_task: SimTime::from_micros(25),
            schedule_per_edge: SimTime::from_micros(5),
            event_dispatch: SimTime::from_micros(120),
            event_completion: SimTime::from_micros(60),
            worker_event_handling: SimTime::from_micros(80),
            serial_input_transfers: false,
            worker_to_worker_forwarding: true,
        };
        assert_eq!(overheads, OverheadModel::default());
    }

    #[test]
    fn collective_knobs_default_off_and_resolve() {
        // Broadcast trees are strictly opt-in: the default configuration
        // plans every distribution as the historical star.
        assert_eq!(OmpcConfig::default().collective_min_fanout, 0);
        assert_eq!(OmpcConfig::small().collective_min_fanout, 0);
        assert_eq!(OmpcConfig::default().collective_chunk_kib, 0);
        assert_eq!(OmpcConfig::small().collective_chunk_kib, 0);
        assert_eq!(OmpcConfig::default().collective_threshold(), None);
        // A one-destination tree is meaningless; the threshold clamps to 2.
        let c = OmpcConfig { collective_min_fanout: 1, ..OmpcConfig::small() };
        assert_eq!(c.collective_threshold(), Some(2));
        let c = OmpcConfig { collective_min_fanout: 4, ..OmpcConfig::small() };
        assert_eq!(c.collective_threshold(), Some(4));
        // Chunk size resolves KiB -> bytes; zero means whole-buffer frames.
        assert_eq!(OmpcConfig::default().collective_chunk_bytes(), 0);
        let c = OmpcConfig { collective_chunk_kib: 64, ..OmpcConfig::small() };
        assert_eq!(c.collective_chunk_bytes(), 64 * 1024);
    }

    #[test]
    fn default_config_enforces_in_flight_limit() {
        let c = OmpcConfig::default();
        assert_eq!(c.inflight_window(), 48);
        assert!(c.num_communicators >= 1);
        assert_eq!(OmpcConfig::small().inflight_window(), 4);
    }

    #[test]
    fn inflight_window_resolution() {
        let window = |max_inflight_tasks| {
            OmpcConfig { max_inflight_tasks, ..OmpcConfig::default() }.inflight_window()
        };
        assert_eq!(window(7), 7);
        assert_eq!(window(0), 1, "window is clamped to at least one task");
        assert_eq!(window(usize::MAX), usize::MAX);
    }

    #[test]
    fn schedule_time_scales_with_graph_size() {
        let m = OverheadModel::default();
        let small = m.schedule_time(10, 20);
        let large = m.schedule_time(1000, 3000);
        assert!(large > small);
        assert_eq!(
            m.schedule_time(2, 3),
            SimTime(m.schedule_per_task.0 * 2 + m.schedule_per_edge.0 * 3)
        );
    }
}
