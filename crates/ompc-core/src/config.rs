//! Runtime configuration. [`OmpcConfig`] holds the settings every execution
//! backend honours; [`OverheadModel`] holds what only the simulated backend
//! reads — its cost constants and its two ablation switches.

use crate::runtime::fault::FaultPlan;
use crate::runtime::telemetry::TelemetryLevel;
use ompc_sched::{HeftScheduler, MinMinScheduler, RoundRobinScheduler, Scheduler};
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
}

impl SchedulerKind {
    /// Instantiate the corresponding scheduler.
    pub fn build(self) -> Box<dyn Scheduler + Send + Sync> {
        match self {
            SchedulerKind::Heft => Box::new(HeftScheduler::new()),
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
            SchedulerKind::MinMin => Box::new(MinMinScheduler::new()),
        }
    }

    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Heft => "heft",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::MinMin => "min-min",
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
    /// Size of the pipelined dispatch window: how many target tasks the
    /// unified execution core keeps in flight at once, overlapping their
    /// input forwarding with other tasks' compute. In LLVM's libomptarget
    /// one OpenMP thread blocks per in-flight `target nowait` region, so the
    /// paper's runtime keeps at most its 48 hidden-helper threads' worth in
    /// flight — the limitation it identifies as the main scalability
    /// bottleneck (§7) — and the default reproduces that limit, as does
    /// [`OmpcConfig::small`]. No head thread blocks per task here, so the
    /// window is only a number: it bounds how many cars a dispatch round
    /// packs into each node's train, and `usize::MAX` lifts the limit — the
    /// "fully asynchronous libomptarget" fix the paper proposes as future
    /// work, which did not measure faster than 48 on the perf ledger's
    /// dispatch graph. `0` is treated as `1`.
    pub max_inflight_tasks: usize,
    /// Static scheduler used at the implicit barrier.
    pub scheduler: SchedulerKind,
    /// Deterministic failure-injection plan honoured by every execution
    /// backend (paper §3.1 fault tolerance). Empty by default: no node
    /// ever fails and the fault subsystem stays entirely out of the
    /// dispatch loop.
    pub fault_plan: FaultPlan,
    /// Upper bound (milliseconds) on any single wait for an event reply, or
    /// `None` to wait forever. The event-reply protocol guarantees every
    /// event is answered — success or typed error — so this is a last line
    /// of defence against a reply that can never arrive (e.g. a worker
    /// thread that died without answering);
    /// hitting it surfaces as an [`crate::types::OmpcError::Communication`]
    /// instead of a hang. `None` by default — a kernel is allowed to run
    /// arbitrarily long — and set to 60 s in [`OmpcConfig::small`], the
    /// test configuration, where kernels are tiny and a lost reply should
    /// fail the suite fast. When enabling it for production runs, budget
    /// for the slowest kernel plus queueing delay on the worker's lane.
    pub event_reply_timeout_ms: Option<u64>,
    /// Keep the MPI worker loops of a [`crate::cluster::ClusterDevice`]
    /// alive after [`crate::cluster::ClusterDevice::shutdown`] and let the
    /// next device with the same shape (workers, reply timeout) adopt them
    /// instead of spawning fresh ones — amortizing the fig. 7(a) startup
    /// share across runs. Workers are reset (device
    /// memory cleared, counters zeroed) between lifetimes, and a device
    /// that saw any node failure is never parked — a failed pool is torn
    /// down cold. Enabled by default; disable for tests that count spawned
    /// threads across device lifetimes.
    pub warm_worker_keepalive: bool,
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
            // The paper's nodes have 24 cores / 48 hardware threads; the
            // OpenMP hidden-helper/worker pool on the head node is what
            // bounds in-flight target regions.
            max_inflight_tasks: 48,
            scheduler: SchedulerKind::Heft,
            fault_plan: FaultPlan::default(),
            event_reply_timeout_ms: None,
            warm_worker_keepalive: true,
            max_concurrent_regions: 1,
            telemetry: TelemetryLevel::Off,
        }
    }
}

impl OmpcConfig {
    /// A configuration sized for small in-process tests: a bound on every
    /// reply wait. It dispatches at the paper's window of 48, as the default
    /// does: no head thread blocks per task here, so a small window only
    /// splits the trains — four tasks in flight over two workers leave under
    /// two cars per train and a context switch per task — and no larger
    /// window was measured faster on the perf ledger's dispatch graph.
    pub fn small() -> Self {
        Self {
            backend: BackendKind::Mpi,
            max_inflight_tasks: 48,
            scheduler: SchedulerKind::Heft,
            fault_plan: FaultPlan::default(),
            event_reply_timeout_ms: Some(60_000),
            warm_worker_keepalive: true,
            max_concurrent_regions: 1,
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
        for kind in [SchedulerKind::Heft, SchedulerKind::RoundRobin, SchedulerKind::MinMin] {
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
            max_inflight_tasks: 48,
            scheduler: SchedulerKind::Heft,
            fault_plan: FaultPlan::default(),
            event_reply_timeout_ms: None,
            warm_worker_keepalive: true,
            max_concurrent_regions: 1,
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

    /// The knob budget, pinned: `OmpcConfig` has eight settings, each bound
    /// by name with no `..`, so a ninth cannot be added without editing
    /// this test.
    #[test]
    fn the_knob_budget_is_eight_settings() {
        let OmpcConfig {
            backend,
            max_inflight_tasks,
            scheduler,
            fault_plan,
            event_reply_timeout_ms,
            warm_worker_keepalive,
            max_concurrent_regions,
            telemetry,
        } = OmpcConfig::default();
        let knobs: [&dyn std::fmt::Debug; 8] = [
            &backend,
            &max_inflight_tasks,
            &scheduler,
            &fault_plan,
            &event_reply_timeout_ms,
            &warm_worker_keepalive,
            &max_concurrent_regions,
            &telemetry,
        ];
        assert_eq!(knobs.len(), 8);
    }

    #[test]
    fn default_config_enforces_in_flight_limit() {
        let c = OmpcConfig::default();
        assert_eq!(c.inflight_window(), 48);
        assert_eq!(OmpcConfig::small().inflight_window(), 48);
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
