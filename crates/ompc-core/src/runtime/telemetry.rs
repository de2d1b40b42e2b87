//! Unified runtime telemetry: per-task lifecycle spans, wall-clock
//! timelines, and overhead attribution for the real backends.
//!
//! The paper's §7 evaluation decomposes runtime overhead into scheduling,
//! serialization, communication, and execution. Without this module the
//! real backends are blind — order-only [`RunRecord`]s and three coarse
//! [`crate::event::EventCounters`]. It closes the gap:
//!
//! * [`Telemetry`] is a device-owned recorder. Both real backends push a
//!   [`Span`] per lifecycle phase of every task — dispatch, payload
//!   serialize (taking the host buffer's handle), send, worker-side
//!   receive / dependence await / kernel execute (captured in the worker
//!   loop and shipped home inside the typed event reply), reply decode,
//!   retire — plus spans for data-path activity (enter/exit data, lazy host
//!   flush, train flush, recovery replan).
//! * [`chrome_trace`] renders the spans as Chrome trace-event JSON, loadable
//!   in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`, with one
//!   row per cluster node and flow arrows for worker-to-worker forwards.
//! * [`overhead_attribution`] folds the spans into the per-phase shares of
//!   Fig. 7(a) — scheduling vs serialization vs wire vs compute vs idle —
//!   and [`critical_path`] extracts the longest time-respecting chain.
//!
//! ## Clock domains
//!
//! Spans are stamped from one process-global monotonic microsecond clock
//! ([`monotonic_us`]); workers are threads of the same process, so their
//! stamps are directly comparable with the head node's — no clock-sync
//! step. This is a *third* clock domain next to the fault subsystem's
//! logical millisecond clock ([`crate::runtime::fault::FaultState`], which
//! backends advance explicitly) and the simulator's virtual
//! `SimTime`; the three never mix inside one record.
//!
//! ## Cost when disabled
//!
//! Every instrumentation site checks [`Telemetry::spans_enabled`] *before*
//! reading the clock, and the worker side captures timestamps only when the
//! incoming event envelope carries the `timed` flag. With
//! [`TelemetryLevel::Off`] no `Instant::now()` is ever reached — a property
//! the CI gate asserts structurally through [`clock_reads`], which counts
//! every [`monotonic_us`] call process-wide.
//!
//! [`RunRecord`]: crate::runtime::RunRecord

use crate::types::NodeId;
use ompc_json::Json;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How much the runtime records about its own execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryLevel {
    /// Record nothing beyond the seed behaviour: no clock reads, no spans.
    #[default]
    Off,
    /// Keep only the existing [`crate::event::EventCounters`] aggregates
    /// (events, data events, bytes moved) — still no clock reads.
    Counters,
    /// Record a full lifecycle [`Span`] stream, exportable as a Chrome
    /// trace timeline and foldable into an overhead attribution.
    Spans,
}

impl TelemetryLevel {
    /// Stable lowercase name (`off` / `counters` / `spans`).
    pub fn name(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Spans => "spans",
        }
    }
}

/// The lifecycle phase a [`Span`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// Head node: planning a region's assignment (one span per region).
    Schedule,
    /// Head node: the execution core handing a ready task to the backend.
    Dispatch,
    /// Head node: building a task's wire payloads (detail records the
    /// payload-cache `hit` / `miss`).
    Serialize,
    /// Head node: pushing a task's frames onto the wire.
    Send,
    /// Worker: between the gate thread receiving the event and the handler
    /// starting on it (queueing + handler hand-off).
    WorkerRecv,
    /// Worker: awaiting the task's input payloads / forwarded dependences.
    WorkerAwait,
    /// Worker: the kernel body itself.
    Compute,
    /// Head node: decoding the worker's reply and committing its results.
    Reply,
    /// Head node: the execution core retiring a completed task.
    Retire,
    /// Data path: host → cluster movement for an enter-data / input plan.
    EnterData,
    /// Data path: cluster → host retrieval for an exit-data `map(from:)`.
    ExitData,
    /// Data path: lazy host flush of a device-resident buffer outside any
    /// task (`ClusterDevice::buffer_data`).
    HostFlush,
    /// MPI backend: flushing a buffered task train onto the wire.
    TrainFlush,
    /// Data path: streaming a queued region's enter-data inputs (or an
    /// async `enter_data` distribution) while earlier work computes.
    Prefetch,
    /// A reader blocking on a transfer still in flight (first use of an
    /// async enter-data buffer, or a flush waiting out a concurrent one).
    AwaitInflight,
    /// Collective data movement: one delivered edge of a broadcast tree
    /// (the span's `from`/`node` are the edge's endpoints; `detail` notes a
    /// re-sourced rescue edge).
    Relay,
    /// Collective data movement: the head streaming the chunked payload
    /// frames of one broadcast into the tree (`bytes` is the payload, and
    /// `detail` records the frame count).
    Chunk,
    /// Fault recovery: replanning survivors after a node failure.
    Replan,
    /// Head node: a region waiting in the admission queue for a concurrent
    /// execution slot ([`crate::config::OmpcConfig::max_concurrent_regions`]).
    Admission,
}

impl SpanPhase {
    /// Stable snake_case name, used as the Chrome-trace event name.
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::Schedule => "schedule",
            SpanPhase::Dispatch => "dispatch",
            SpanPhase::Serialize => "serialize",
            SpanPhase::Send => "send",
            SpanPhase::WorkerRecv => "worker_recv",
            SpanPhase::WorkerAwait => "worker_await",
            SpanPhase::Compute => "compute",
            SpanPhase::Reply => "reply",
            SpanPhase::Retire => "retire",
            SpanPhase::EnterData => "enter_data",
            SpanPhase::ExitData => "exit_data",
            SpanPhase::HostFlush => "host_flush",
            SpanPhase::TrainFlush => "train_flush",
            SpanPhase::Prefetch => "prefetch",
            SpanPhase::AwaitInflight => "await_inflight",
            SpanPhase::Relay => "relay",
            SpanPhase::Chunk => "chunk",
            SpanPhase::Replan => "replan",
            SpanPhase::Admission => "admission",
        }
    }

    /// The overhead-attribution bucket this phase folds into: the paper's
    /// Fig. 7(a) categories for the real backends.
    pub fn bucket(self) -> AttributionBucket {
        match self {
            SpanPhase::Schedule | SpanPhase::Dispatch | SpanPhase::Retire | SpanPhase::Replan => {
                AttributionBucket::Scheduling
            }
            SpanPhase::Serialize => AttributionBucket::Serialization,
            SpanPhase::Send
            | SpanPhase::WorkerRecv
            | SpanPhase::WorkerAwait
            | SpanPhase::Reply
            | SpanPhase::EnterData
            | SpanPhase::ExitData
            | SpanPhase::HostFlush
            | SpanPhase::TrainFlush
            | SpanPhase::Prefetch
            | SpanPhase::Relay
            | SpanPhase::Chunk => AttributionBucket::Wire,
            // A reader blocked on an in-flight transfer is scheduling
            // slack, not wire work: the bytes were already attributed to
            // the transfer's own prefetch / enter-data span. Likewise a
            // region queued at the admission gate.
            SpanPhase::AwaitInflight | SpanPhase::Admission => AttributionBucket::Scheduling,
            SpanPhase::Compute => AttributionBucket::Compute,
        }
    }
}

/// The Fig. 7(a) overhead category a [`SpanPhase`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributionBucket {
    /// Planning, dispatch bookkeeping, retirement, recovery replans.
    Scheduling,
    /// Building wire payloads (the serialization cost §7 measures).
    Serialization,
    /// Communication: sends, receives, dependence awaits, data movement.
    Wire,
    /// Kernel bodies.
    Compute,
}

impl AttributionBucket {
    /// Stable lowercase name, used as the Chrome-trace category and the
    /// attribution-report key.
    pub fn name(self) -> &'static str {
        match self {
            AttributionBucket::Scheduling => "scheduling",
            AttributionBucket::Serialization => "serialization",
            AttributionBucket::Wire => "wire",
            AttributionBucket::Compute => "compute",
        }
    }
}

/// One recorded interval of runtime activity on one cluster node.
///
/// Spans are observational: recording them never changes dispatch order,
/// completion order, or transfer plans, and a run with telemetry off
/// produces a byte-identical [`crate::runtime::RunRecord`] apart from the
/// (then empty) span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was happening.
    pub phase: SpanPhase,
    /// The region-graph task index this span belongs to, when task-scoped.
    pub task: Option<usize>,
    /// Zero-based execution attempt of the task (re-executions after an
    /// injected failure increment it).
    pub attempt: u32,
    /// The node the activity ran on (`HEAD_NODE` = 0 for head-side phases).
    pub node: NodeId,
    /// Start, microseconds on the process-global monotonic clock.
    pub start_us: u64,
    /// End, same clock; always `>= start_us`.
    pub end_us: u64,
    /// Bytes moved, for data-bearing phases.
    pub bytes: Option<u64>,
    /// Source node of a transfer (worker-to-worker forwards get flow
    /// arrows in the exported timeline when `from != node`).
    pub from: Option<NodeId>,
    /// Free-form detail: payload-cache `hit`/`miss`, a
    /// [`crate::data_manager::TransferReason`] name, a failure note.
    pub detail: Option<String>,
    /// The region epoch (tenant id) the span was recorded under, when the
    /// recorder was scoped to one execution ([`Telemetry::scoped`]).
    /// Device-level spans outside any region carry `None`; the Chrome-trace
    /// export renders each region as its own process row group.
    pub region: Option<u64>,
}

impl Span {
    /// A span of `phase` on `node` covering `[start_us, end_us]`.
    pub fn new(phase: SpanPhase, node: NodeId, start_us: u64, end_us: u64) -> Self {
        Span {
            phase,
            task: None,
            attempt: 0,
            node,
            start_us,
            end_us: end_us.max(start_us),
            bytes: None,
            from: None,
            detail: None,
            region: None,
        }
    }

    /// Attach the owning task index.
    pub fn task(mut self, task: usize) -> Self {
        self.task = Some(task);
        self
    }

    /// Attach the execution attempt.
    pub fn attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }

    /// Attach a byte count.
    pub fn bytes(mut self, bytes: u64) -> Self {
        self.bytes = Some(bytes);
        self
    }

    /// Attach the source node of a transfer.
    pub fn from(mut self, from: NodeId) -> Self {
        self.from = Some(from);
        self
    }

    /// Attach free-form detail.
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = Some(detail.into());
        self
    }

    /// Attach the owning region epoch (tenant id).
    pub fn region(mut self, region: u64) -> Self {
        self.region = Some(region);
        self
    }

    /// Duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Process-wide count of [`monotonic_us`] calls — the structural witness
/// that [`TelemetryLevel::Off`] reaches no clock read.
static CLOCK_READS: AtomicU64 = AtomicU64::new(0);

/// The process-global epoch every span timestamp is relative to.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the first telemetry clock read of the process, on the
/// monotonic clock. Workers are threads of the same process, so head- and
/// worker-side stamps share this epoch and compare directly.
pub fn monotonic_us() -> u64 {
    CLOCK_READS.fetch_add(1, Ordering::Relaxed);
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// How many times [`monotonic_us`] has ever been called in this process.
/// A run with telemetry off must leave this unchanged — the CI gate for
/// "near-zero cost when disabled" asserts exactly that, deterministically,
/// instead of comparing noisy wall-clock timings.
pub fn clock_reads() -> u64 {
    CLOCK_READS.load(Ordering::Relaxed)
}

/// The device-owned span recorder. Cheap to share (`Arc`), cheap to ignore:
/// every method short-circuits before any clock read or lock when spans are
/// not enabled.
#[derive(Debug)]
pub struct Telemetry {
    level: TelemetryLevel,
    spans: Mutex<Vec<Span>>,
    /// Per-task dispatch counts; the current value minus one is the attempt
    /// index stamped onto that task's spans.
    attempts: Mutex<HashMap<usize, u32>>,
    /// When scoped to one region execution ([`Telemetry::scoped`]), the
    /// region epoch stamped onto every span recorded here.
    region: Option<u64>,
}

impl Telemetry {
    /// A recorder at the given level.
    pub fn new(level: TelemetryLevel) -> Arc<Self> {
        Arc::new(Telemetry {
            level,
            spans: Mutex::new(Vec::new()),
            attempts: Mutex::new(HashMap::new()),
            region: None,
        })
    }

    /// A disabled recorder (for paths that need a handle unconditionally).
    pub fn off() -> Arc<Self> {
        Telemetry::new(TelemetryLevel::Off)
    }

    /// A fresh recorder at this recorder's level, scoped to one region
    /// execution: every span it records is stamped with `region`, and its
    /// span stream and attempt counters are private to that execution — two
    /// overlapped regions never interleave records or collide attempt
    /// indices. Costs nothing when the level is `Off` (the scoped recorder
    /// short-circuits identically).
    pub fn scoped(&self, region: u64) -> Arc<Self> {
        Arc::new(Telemetry {
            level: self.level,
            spans: Mutex::new(Vec::new()),
            attempts: Mutex::new(HashMap::new()),
            region: Some(region),
        })
    }

    /// The configured level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Whether span recording is on. Check this before reading the clock.
    pub fn spans_enabled(&self) -> bool {
        self.level == TelemetryLevel::Spans
    }

    /// Current time for a span start: `0` (and **no clock read**) when
    /// spans are disabled.
    pub fn start(&self) -> u64 {
        if self.spans_enabled() {
            monotonic_us()
        } else {
            0
        }
    }

    /// Record a span whose interval is already stamped. No-op when
    /// disabled. A scoped recorder stamps its region onto spans that carry
    /// none.
    pub fn record(&self, mut span: Span) {
        if self.spans_enabled() {
            if span.region.is_none() {
                span.region = self.region;
            }
            self.spans.lock().push(span);
        }
    }

    /// Record a span of `phase` on `node` that started at `start_us`
    /// (from [`Telemetry::start`]) and ends now; returns the builder-shaped
    /// span only internally. No-op (and no clock read) when disabled.
    pub fn record_since(&self, phase: SpanPhase, node: NodeId, start_us: u64) {
        if self.spans_enabled() {
            self.record(Span::new(phase, node, start_us, monotonic_us()));
        }
    }

    /// Begin a new execution attempt of `task`: bumps the per-task attempt
    /// counter and returns the zero-based attempt index. Returns 0 when
    /// disabled (no state is kept).
    pub fn begin_attempt(&self, task: usize) -> u32 {
        if !self.spans_enabled() {
            return 0;
        }
        let mut attempts = self.attempts.lock();
        let slot = attempts.entry(task).or_insert(0);
        let attempt = *slot;
        *slot += 1;
        attempt
    }

    /// The current (last begun) attempt index of `task`; 0 before any
    /// dispatch or when disabled.
    pub fn attempt(&self, task: usize) -> u32 {
        if !self.spans_enabled() {
            return 0;
        }
        self.attempts.lock().get(&task).map(|&n| n.saturating_sub(1)).unwrap_or(0)
    }

    /// Drain every recorded span, oldest first, and reset the per-task
    /// attempt counters. The device calls this once per run to attach the
    /// spans to that run's [`crate::runtime::RunRecord`].
    pub fn take_spans(&self) -> Vec<Span> {
        if !self.spans_enabled() {
            return Vec::new();
        }
        self.attempts.lock().clear();
        std::mem::take(&mut *self.spans.lock())
    }
}

/// Per-phase overhead attribution of one run — the real-backend analogue
/// of Fig. 7(a). All figures in microseconds of the span clock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attribution {
    /// Scheduling: planning, dispatch, retire, replan.
    pub scheduling_us: u64,
    /// Serialization: payload building (cache misses; hits cost ~0).
    pub serialization_us: u64,
    /// Wire: sends, receives, awaits, data movement.
    pub wire_us: u64,
    /// Compute: kernel bodies.
    pub compute_us: u64,
    /// Idle: wall time of the run's nodes not covered by any span.
    pub idle_us: u64,
    /// Wall-clock window of the run (max end − min start over all spans).
    pub wall_us: u64,
}

impl Attribution {
    /// Share of `bucket_us` in the total busy time (0.0 when no spans).
    fn share(&self, bucket_us: u64) -> f64 {
        let busy = self.scheduling_us + self.serialization_us + self.wire_us + self.compute_us;
        if busy == 0 {
            0.0
        } else {
            bucket_us as f64 / busy as f64
        }
    }

    /// Compute's share of busy time — the figure the stencil acceptance
    /// criterion gates on.
    pub fn compute_share(&self) -> f64 {
        self.share(self.compute_us)
    }

    /// Render as a JSON object with per-bucket microseconds and shares.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scheduling_us", Json::u64(self.scheduling_us)),
            ("serialization_us", Json::u64(self.serialization_us)),
            ("wire_us", Json::u64(self.wire_us)),
            ("compute_us", Json::u64(self.compute_us)),
            ("idle_us", Json::u64(self.idle_us)),
            ("wall_us", Json::u64(self.wall_us)),
            ("scheduling_share", Json::num(self.share(self.scheduling_us))),
            ("serialization_share", Json::num(self.share(self.serialization_us))),
            ("wire_share", Json::num(self.share(self.wire_us))),
            ("compute_share", Json::num(self.compute_share())),
        ])
    }
}

/// Fold a run's spans into per-bucket totals plus idle time. Idle is
/// computed per node as the run's wall window minus the union of that
/// node's span intervals (overlapping spans — a parent enclosing its
/// children — are not double-counted), summed over the nodes that appear.
pub fn overhead_attribution(spans: &[Span]) -> Attribution {
    if spans.is_empty() {
        return Attribution::default();
    }
    let wall_start = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let wall_end = spans.iter().map(|s| s.end_us).max().unwrap_or(0);
    let mut out = Attribution { wall_us: wall_end - wall_start, ..Attribution::default() };
    let mut by_node: HashMap<NodeId, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        let us = span.duration_us();
        match span.phase.bucket() {
            AttributionBucket::Scheduling => out.scheduling_us += us,
            AttributionBucket::Serialization => out.serialization_us += us,
            AttributionBucket::Wire => out.wire_us += us,
            AttributionBucket::Compute => out.compute_us += us,
        }
        by_node.entry(span.node).or_default().push((span.start_us, span.end_us));
    }
    for intervals in by_node.values_mut() {
        intervals.sort_unstable();
        let mut busy = 0;
        let mut cursor = wall_start;
        for &(start, end) in intervals.iter() {
            let start = start.max(cursor);
            if end > start {
                busy += end - start;
                cursor = end;
            }
        }
        out.idle_us += out.wall_us.saturating_sub(busy);
    }
    out
}

/// The longest time-respecting chain through a run's spans: starting from
/// the span with the latest end, repeatedly link to the latest-ending span
/// that finished no later than the current span started. The returned chain
/// is ordered by time and approximates the run's critical path — the spans
/// whose durations bound the makespan.
pub fn critical_path(spans: &[Span]) -> Vec<Span> {
    let Some(mut current) = spans.iter().max_by_key(|s| s.end_us) else {
        return Vec::new();
    };
    let mut chain = vec![current.clone()];
    // The predecessor must finish no later than the current span starts
    // *and* be strictly earlier on the (end, start) key: zero-length spans
    // (e.g. `Retire` markers) satisfy `end <= current.start` against
    // themselves, and without strict progress the walk would revisit them
    // forever.
    while let Some(prev) = spans
        .iter()
        .filter(|s| {
            s.end_us <= current.start_us
                && (s.end_us, s.start_us) < (current.end_us, current.start_us)
        })
        .max_by_key(|s| (s.end_us, s.start_us))
    {
        chain.push(prev.clone());
        current = prev;
    }
    chain.reverse();
    chain
}

/// Render spans as Chrome trace-event JSON (the "JSON Array Format" with a
/// `traceEvents` wrapper), loadable in Perfetto or `chrome://tracing`.
///
/// Layout: one process row group per region (`pid` = the span's region
/// epoch; untagged device-level spans fold into `pid` 0, named
/// `process_label` — region processes are named `process_label · region N`),
/// one thread row per cluster node within each process (`tid` = node id;
/// node 0 labelled `head`). Overlapped regions therefore render as separate
/// row groups instead of interleaving on one node row. Every span is a
/// complete (`"X"`) event with microsecond `ts`/`dur`, its phase as the
/// name, and its attribution bucket as the category. A span recording a
/// worker-to-worker forward (`from` names a different worker) additionally
/// emits a flow-start (`"s"`) on the source row and a flow-finish (`"f"`)
/// on the destination row so the timeline draws the forward as an arrow.
pub fn chrome_trace(spans: &[Span], process_label: &str) -> Json {
    let mut events = Vec::new();
    // One (pid, tid) row per region × node that actually appears.
    let mut rows: Vec<(u64, NodeId)> = spans
        .iter()
        .flat_map(|s| {
            let pid = s.region.unwrap_or(0);
            s.from.iter().map(move |&f| (pid, f)).chain(std::iter::once((pid, s.node)))
        })
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let mut pids: Vec<u64> = rows.iter().map(|&(pid, _)| pid).collect();
    pids.dedup();
    if pids.is_empty() {
        pids.push(0);
    }
    for &pid in &pids {
        let label = if pid == 0 {
            process_label.to_string()
        } else {
            format!("{process_label} · region {pid}")
        };
        events.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(pid)),
            ("tid", Json::usize(0)),
            ("args", Json::obj([("name", Json::str(label))])),
        ]));
    }
    for &(pid, node) in &rows {
        let label = if node == 0 { "head".to_string() } else { format!("worker {node}") };
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(pid)),
            ("tid", Json::usize(node)),
            ("args", Json::obj([("name", Json::str(label))])),
        ]));
    }
    let mut flow_id = 0usize;
    for span in spans {
        let pid = span.region.unwrap_or(0);
        let mut args = vec![("attempt", Json::num(span.attempt))];
        if let Some(task) = span.task {
            args.push(("task", Json::usize(task)));
        }
        if let Some(bytes) = span.bytes {
            args.push(("bytes", Json::u64(bytes)));
        }
        if let Some(from) = span.from {
            args.push(("from", Json::usize(from)));
        }
        if let Some(detail) = &span.detail {
            args.push(("detail", Json::str(detail.clone())));
        }
        events.push(Json::obj([
            ("name", Json::str(span.phase.name())),
            ("cat", Json::str(span.phase.bucket().name())),
            ("ph", Json::str("X")),
            ("pid", Json::u64(pid)),
            ("tid", Json::usize(span.node)),
            ("ts", Json::u64(span.start_us)),
            // Zero-duration complete events render invisibly; clamp to 1µs.
            ("dur", Json::u64(span.duration_us().max(1))),
            ("args", Json::Obj(args.into_iter().map(|(k, v)| (k.to_string(), v)).collect())),
        ]));
        if let Some(from) = span.from {
            if from != span.node && from != 0 && span.node != 0 {
                flow_id += 1;
                events.push(Json::obj([
                    ("name", Json::str("forward")),
                    ("cat", Json::str("wire")),
                    ("ph", Json::str("s")),
                    ("id", Json::usize(flow_id)),
                    ("pid", Json::u64(pid)),
                    ("tid", Json::usize(from)),
                    ("ts", Json::u64(span.start_us)),
                ]));
                events.push(Json::obj([
                    ("name", Json::str("forward")),
                    ("cat", Json::str("wire")),
                    ("ph", Json::str("f")),
                    ("bp", Json::str("e")),
                    ("id", Json::usize(flow_id)),
                    ("pid", Json::u64(pid)),
                    ("tid", Json::usize(span.node)),
                    ("ts", Json::u64(span.end_us.max(span.start_us + 1))),
                ]));
            }
        }
    }
    Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: SpanPhase, node: NodeId, start: u64, end: u64) -> Span {
        Span::new(phase, node, start, end)
    }

    #[test]
    fn off_recorder_reads_no_clock_and_keeps_no_state() {
        let tel = Telemetry::off();
        let before = clock_reads();
        assert_eq!(tel.start(), 0);
        tel.record(span(SpanPhase::Compute, 1, 0, 5));
        tel.record_since(SpanPhase::Send, 1, 0);
        assert_eq!(tel.begin_attempt(3), 0);
        assert_eq!(tel.attempt(3), 0);
        assert!(tel.take_spans().is_empty());
        assert_eq!(clock_reads(), before, "telemetry off must not read the clock");
    }

    #[test]
    fn spans_recorder_collects_and_drains() {
        let tel = Telemetry::new(TelemetryLevel::Spans);
        assert!(tel.spans_enabled());
        let t0 = tel.start();
        tel.record(span(SpanPhase::Compute, 2, t0, t0 + 10).task(4).bytes(64));
        assert_eq!(tel.begin_attempt(4), 0);
        assert_eq!(tel.begin_attempt(4), 1);
        assert_eq!(tel.attempt(4), 1);
        let spans = tel.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].task, Some(4));
        assert!(tel.take_spans().is_empty(), "take_spans drains");
        assert_eq!(tel.attempt(4), 0, "take_spans resets attempts");
    }

    #[test]
    fn attribution_buckets_and_idle() {
        // Head schedules [0,10], worker 1 computes [10,30], wire [30,40].
        let spans = vec![
            span(SpanPhase::Schedule, 0, 0, 10),
            span(SpanPhase::Compute, 1, 10, 30),
            span(SpanPhase::Send, 0, 30, 40),
        ];
        let attr = overhead_attribution(&spans);
        assert_eq!(attr.scheduling_us, 10);
        assert_eq!(attr.compute_us, 20);
        assert_eq!(attr.wire_us, 10);
        assert_eq!(attr.wall_us, 40);
        // Head busy 20 of 40 → idle 20; worker busy 20 of 40 → idle 20.
        assert_eq!(attr.idle_us, 40);
        assert!(attr.compute_share() > 0.49 && attr.compute_share() < 0.51);
    }

    #[test]
    fn attribution_does_not_double_count_nested_spans() {
        let spans =
            vec![span(SpanPhase::WorkerRecv, 1, 0, 100), span(SpanPhase::Compute, 1, 20, 80)];
        let attr = overhead_attribution(&spans);
        // Buckets count both, but idle uses the interval union: the node
        // was busy the whole [0,100] window.
        assert_eq!(attr.idle_us, 0);
        assert_eq!(attr.wall_us, 100);
    }

    #[test]
    fn critical_path_is_a_time_respecting_chain() {
        let spans = vec![
            span(SpanPhase::Dispatch, 0, 0, 5),
            span(SpanPhase::Compute, 1, 5, 50),
            span(SpanPhase::Compute, 2, 0, 20), // off the path
            span(SpanPhase::Reply, 0, 50, 60),
        ];
        let path = critical_path(&spans);
        let phases: Vec<SpanPhase> = path.iter().map(|s| s.phase).collect();
        assert_eq!(phases, vec![SpanPhase::Dispatch, SpanPhase::Compute, SpanPhase::Reply]);
        for pair in path.windows(2) {
            assert!(pair[0].end_us <= pair[1].start_us, "chain must respect time");
        }
    }

    #[test]
    fn chrome_trace_exports_rows_and_flows() {
        let spans = vec![
            span(SpanPhase::Compute, 1, 0, 10).task(0),
            span(SpanPhase::WorkerAwait, 2, 10, 20).task(1).from(1).bytes(128),
        ];
        let trace = chrome_trace(&spans, "test run");
        let rendered = trace.to_string_pretty();
        let parsed = Json::parse(&rendered).expect("exported trace must parse");
        let events = parsed.field("traceEvents").unwrap().as_array().unwrap();
        // 1 process + 2 thread metadata + 2 spans + 1 flow pair.
        assert_eq!(events.len(), 7);
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(Json::as_str)).collect();
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"s") && phases.contains(&"f"), "forward draws a flow arrow");
        let compute = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("compute"))
            .unwrap();
        assert_eq!(compute.get("tid").and_then(Json::as_usize), Some(1));
        assert_eq!(compute.get("cat").and_then(Json::as_str), Some("compute"));
    }

    #[test]
    fn scoped_recorders_stamp_their_region_and_stay_isolated() {
        let device = Telemetry::new(TelemetryLevel::Spans);
        let a = device.scoped(1);
        let b = device.scoped(2);
        a.record(span(SpanPhase::Compute, 1, 0, 5).task(0));
        b.record(span(SpanPhase::Compute, 1, 0, 5).task(0));
        assert_eq!(a.begin_attempt(0), 0);
        assert_eq!(b.begin_attempt(0), 0, "attempt counters are per scope");
        let sa = a.take_spans();
        let sb = b.take_spans();
        assert_eq!(sa.len(), 1);
        assert_eq!(sa[0].region, Some(1));
        assert_eq!(sb[0].region, Some(2));
        assert!(device.take_spans().is_empty(), "scoped spans never leak to the device recorder");
        // An off device yields off scopes: no clock reads, no state.
        let off = Telemetry::off().scoped(7);
        let before = clock_reads();
        assert_eq!(off.start(), 0);
        off.record(span(SpanPhase::Compute, 1, 0, 5));
        assert!(off.take_spans().is_empty());
        assert_eq!(clock_reads(), before);
    }

    #[test]
    fn chrome_trace_renders_regions_as_separate_process_rows() {
        let spans = vec![
            span(SpanPhase::Compute, 1, 0, 10).task(0).region(1),
            span(SpanPhase::Compute, 1, 5, 15).task(0).region(2),
            span(SpanPhase::HostFlush, 0, 0, 1), // device-level, no region
        ];
        let trace = chrome_trace(&spans, "overlap");
        let parsed = Json::parse(&trace.to_string_pretty()).unwrap();
        let events = parsed.field("traceEvents").unwrap().as_array().unwrap();
        let pid_of = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .map(|e| e.get("pid").and_then(Json::as_u64).unwrap())
                .collect::<Vec<u64>>()
        };
        assert_eq!(pid_of("compute"), vec![1, 2], "overlapped regions get their own pid rows");
        assert_eq!(pid_of("host_flush"), vec![0], "unscoped spans fold into pid 0");
        let process_names: Vec<String> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_string))
            .collect();
        assert_eq!(process_names, vec!["overlap", "overlap · region 1", "overlap · region 2"]);
    }

    #[test]
    fn level_and_phase_names_are_stable() {
        assert_eq!(TelemetryLevel::default(), TelemetryLevel::Off);
        assert_eq!(TelemetryLevel::Spans.name(), "spans");
        assert_eq!(SpanPhase::Serialize.name(), "serialize");
        assert_eq!(SpanPhase::Serialize.bucket().name(), "serialization");
        assert_eq!(SpanPhase::TrainFlush.bucket(), AttributionBucket::Wire);
        assert_eq!(SpanPhase::Replan.bucket(), AttributionBucket::Scheduling);
        assert_eq!(SpanPhase::Prefetch.name(), "prefetch");
        assert_eq!(SpanPhase::Prefetch.bucket(), AttributionBucket::Wire);
        assert_eq!(SpanPhase::AwaitInflight.name(), "await_inflight");
        assert_eq!(SpanPhase::AwaitInflight.bucket(), AttributionBucket::Scheduling);
        assert_eq!(SpanPhase::Admission.name(), "admission");
        assert_eq!(SpanPhase::Admission.bucket(), AttributionBucket::Scheduling);
        assert_eq!(SpanPhase::Relay.name(), "relay");
        assert_eq!(SpanPhase::Relay.bucket(), AttributionBucket::Wire);
        assert_eq!(SpanPhase::Chunk.name(), "chunk");
        assert_eq!(SpanPhase::Chunk.bucket(), AttributionBucket::Wire);
    }
}
