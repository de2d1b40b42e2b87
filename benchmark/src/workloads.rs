//! The five workloads. Each builds its inputs from the seed, runs fixed-size
//! *samples* through public entry points of the runtime, and checks every
//! sample's output. The runtime only ever sees the generated inputs.

use crate::spans::Tracer;
use ompc_awave::{migrate, ModelKind, RtmImage, RtmParams, Shot, VelocityModel};
use ompc_core::prelude::*;
use ompc_sched::{HeftScheduler, Platform, Scheduler, TaskGraph};
use ompc_sim::ClusterConfig;
use ompc_taskbench::{generate_workload, DependencePattern, TaskBenchConfig};

/// Worker nodes of every real-backend workload (`nproc` is 2).
pub const WORKERS: usize = 2;

/// Name and one-line reason of each workload, in report order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "dispatch_mpi",
        "2048 tiny dependent tasks on the MPI backend: planning, dispatch and codecs do all the work",
    ),
    (
        "dispatch_threaded",
        "the same graph and plan on the threaded backend: the other transport under the same core",
    ),
    (
        "data_stencil",
        "60 MiB of 1 MiB payloads on the MPI backend: serialization, copies and forwarding dominate",
    ),
    (
        "awave_survey",
        "the paper's RTM application, compute-bound: runtime-layer changes must predict no change",
    ),
    (
        "sim_paper_scale",
        "fig. 5 Stencil-1D and FFT at 64 nodes on the simulator: the only paper-scale row",
    ),
];

/// How much work one sample does. `Smoke` keeps every code path and check
/// but shrinks the inputs so all five workloads finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    /// The sizes the ledger is defined on.
    Full,
    /// CI-sized inputs.
    Smoke,
}

/// What one successful sample produced.
#[derive(Debug, Default)]
pub struct SampleOutput {
    /// Bytes the run's transfer log (or the simulator) says crossed the
    /// network.
    pub wire_bytes: u64,
    /// Decision records of the sample's regions (empty for the simulator).
    pub records: Vec<RunRecord>,
    /// Times the resident velocity model crossed the network (Awave only).
    pub model_moves: usize,
}

/// One workload: inputs already generated, ready to run blocks of samples.
/// A sample that returns `Err` is a failed operation.
pub trait Workload {
    /// Times the harness repeats the set-up (`setup_s` is the median).
    fn setup_reps(&self) -> usize {
        3
    }
    /// Samples run per device lifetime.
    fn samples_per_block(&self) -> usize;
    /// Open a block: spawn a fresh device, if the workload uses one.
    fn begin_block(&mut self, tracer: &Tracer);
    /// Run one fixed-size sample and check its output.
    fn sample(&mut self, tracer: &Tracer) -> Result<SampleOutput, String>;
    /// Close the block: shut the device down.
    fn end_block(&mut self, tracer: &Tracer);
}

/// Build workload `name` from `seed`. `telemetry` is `Off` for every
/// measured run; the traced run also builds `Spans` variants.
pub fn build(
    name: &str,
    seed: u64,
    sizing: Sizing,
    telemetry: TelemetryLevel,
) -> Box<dyn Workload> {
    let full = sizing == Sizing::Full;
    match name {
        "dispatch_mpi" | "dispatch_threaded" => {
            let backend =
                if name == "dispatch_mpi" { BackendKind::Mpi } else { BackendKind::Threaded };
            let iterations = if full { 5 } else { 1 };
            Box::new(TaskBench::new(&dispatch_shape(), 1e-5, seed, backend, telemetry, iterations))
        }
        "data_stencil" => {
            // Hints of 1 ms a task: compute outweighs the 84 µs the platform
            // model charges for a 1 MiB edge, so HEFT splits the four points
            // two and two under every seed and the bytes on the wire do not
            // depend on it.
            let graph = TaskBenchConfig::new(DependencePattern::Stencil1D, 4, 16, 0, 1 << 20);
            let iterations = if full { 16 } else { 1 };
            Box::new(TaskBench::new(&graph, 1e-3, seed, BackendKind::Mpi, telemetry, iterations))
        }
        "awave_survey" => Box::new(Awave::new(seed, telemetry, awave_shots(sizing))),
        "sim_paper_scale" => Box::new(SimPaperScale::new(seed, sim_nodes(sizing))),
        other => unreachable!("workload names are checked by the CLI, got {other}"),
    }
}

/// The graph of both dispatch workloads: Stencil-1D, 8 points x 256 steps,
/// 16-byte outputs. Its hints are 10 µs a task, a few times the 3 µs the
/// platform model charges per message, so HEFT uses both workers and the
/// seed's jitter moves the cut.
pub fn dispatch_shape() -> TaskBenchConfig {
    TaskBenchConfig::new(DependencePattern::Stencil1D, 8, 256, 0, 16)
}

/// splitmix64: the harness's own seed expander.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A Task Bench graph whose per-task cost hints are the nominal `nominal`
/// seconds jittered by ±10 % from `seed`. Kernels run by `run_workload` are
/// no-ops, so the hints only steer the scheduler: another seed is another
/// plan over the same dependence structure.
pub fn seeded_taskbench(config: &TaskBenchConfig, nominal: f64, seed: u64) -> WorkloadGraph {
    let base = generate_workload(config);
    let mut rng = SplitMix(seed);
    let mut graph = TaskGraph::new();
    for task in base.graph.tasks() {
        let cost = nominal * (0.9 + 0.2 * rng.unit());
        graph.add_task_full(cost, task.pinned, task.label.clone());
    }
    for edge in base.graph.edges() {
        graph.add_edge(edge.from, edge.to, edge.bytes);
    }
    WorkloadGraph::new(graph, base.output_bytes)
}

fn small_config(backend: BackendKind, telemetry: TelemetryLevel) -> OmpcConfig {
    OmpcConfig { backend, telemetry, ..OmpcConfig::small() }
}

/// The device lifetime of the block in progress.
#[derive(Default)]
struct Block(Option<ClusterDevice>);

impl Block {
    fn begin(&mut self, config: &OmpcConfig, tracer: &Tracer) {
        let config = config.clone();
        self.0 = Some(tracer.span("cluster.spawn", || ClusterDevice::with_config(WORKERS, config)));
    }

    fn device(&self) -> &ClusterDevice {
        self.0.as_ref().expect("a sample runs inside a block")
    }

    fn end(&mut self, tracer: &Tracer) {
        if let Some(mut device) = self.0.take() {
            tracer.span("cluster.shutdown", || device.shutdown());
        }
    }
}

/// `dispatch_mpi`, `dispatch_threaded` and `data_stencil`: plan a Task Bench
/// graph and run it with no-op kernels, `iterations` times per sample.
struct TaskBench {
    workload: WorkloadGraph,
    config: OmpcConfig,
    /// The plan set-up computed; every sample must re-derive exactly it.
    reference: RuntimePlan,
    iterations: usize,
    block: Block,
}

impl TaskBench {
    fn new(
        graph: &TaskBenchConfig,
        nominal: f64,
        seed: u64,
        backend: BackendKind,
        telemetry: TelemetryLevel,
        iterations: usize,
    ) -> Self {
        let workload = seeded_taskbench(graph, nominal, seed);
        let config = small_config(backend, telemetry);
        let reference = RuntimePlan::for_workload(&workload, &Platform::cluster(WORKERS), &config);
        Self { workload, config, reference, iterations, block: Block::default() }
    }
}

impl Workload for TaskBench {
    fn samples_per_block(&self) -> usize {
        3
    }

    fn begin_block(&mut self, tracer: &Tracer) {
        self.block.begin(&self.config, tracer);
    }

    fn sample(&mut self, tracer: &Tracer) -> Result<SampleOutput, String> {
        let device = self.block.device();
        let mut out = SampleOutput::default();
        for _ in 0..self.iterations {
            // Planning is part of the sample: users pay HEFT on every region.
            let plan = tracer.span("sched.plan", || {
                RuntimePlan::for_workload(&self.workload, &Platform::cluster(WORKERS), &self.config)
            });
            let record = tracer
                .span("runtime.run_workload", || device.run_workload(&self.workload, &plan))
                .map_err(|e| e.to_string())?;
            if plan != self.reference {
                return Err("the plan differs from the one set-up derived".into());
            }
            if record.assignment != plan.assignment {
                return Err("the run's assignment is not the plan's".into());
            }
            let mut completed = record.completion_order.clone();
            completed.sort_unstable();
            if completed != (0..self.workload.len()).collect::<Vec<_>>() {
                return Err(format!(
                    "{} completions for {} tasks",
                    record.completion_order.len(),
                    self.workload.len()
                ));
            }
            out.wire_bytes += record.transfer_bytes();
            out.records.push(record);
        }
        Ok(out)
    }

    fn end_block(&mut self, tracer: &Tracer) {
        self.block.end(tracer);
    }
}

/// `awave_survey`: the resident RTM survey, one region per shot, checked
/// against the sequential migration.
struct Awave {
    model: VelocityModel,
    params: RtmParams,
    shots: Vec<Shot>,
    reference: RtmImage,
    config: OmpcConfig,
    block: Block,
}

/// Shots of one `awave_survey` sample.
pub fn awave_shots(sizing: Sizing) -> usize {
    match sizing {
        Sizing::Full => 6,
        Sizing::Smoke => 2,
    }
}

/// The survey's inputs: a 96 x 96 Sigsbee-like model, 300 time steps, and
/// `shots` shot positions drawn from `seed`.
pub fn awave_inputs(seed: u64, shots: usize) -> (VelocityModel, RtmParams, Vec<Shot>) {
    const N: usize = 96;
    let model = VelocityModel::generate(ModelKind::SigsbeeLike, N, N, 20.0);
    let params = RtmParams { nt: 300, snapshot_every: 4, smoothing_passes: 2 };
    let mut rng = SplitMix(seed);
    let shots = (0..shots)
        .map(|_| Shot { source_x: 8 + (rng.next_u64() % (N as u64 - 16)) as usize, source_z: 2 })
        .collect();
    (model, params, shots)
}

impl Awave {
    fn new(seed: u64, telemetry: TelemetryLevel, shots: usize) -> Self {
        let (model, params, shots) = awave_inputs(seed, shots);
        let reference = migrate(&model, &shots, &params);
        let config = small_config(BackendKind::Threaded, telemetry);
        Self { model, params, shots, reference, config, block: Block::default() }
    }
}

impl Workload for Awave {
    fn samples_per_block(&self) -> usize {
        3
    }

    fn begin_block(&mut self, tracer: &Tracer) {
        self.block.begin(&self.config, tracer);
    }

    fn sample(&mut self, tracer: &Tracer) -> Result<SampleOutput, String> {
        let device = self.block.device();
        let (image, model_moves, records) = tracer
            .span("awave.run_shots_resident", || {
                ompc_awave::run_shots_resident_traced(
                    device,
                    &self.model,
                    &self.shots,
                    &self.params,
                )
            })
            .map_err(|e| e.to_string())?;
        // Device-level movement (the enter/exit of the resident model) is
        // logged outside any region's record.
        let unattributed: u64 = device.take_unattributed_transfers().iter().map(|t| t.bytes).sum();
        let close = |(a, b): (&f64, &f64)| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        if image.values.len() != self.reference.values.len()
            || !image.values.iter().zip(&self.reference.values).all(close)
        {
            return Err("the stacked image diverged from sequential migrate".into());
        }
        if model_moves > WORKERS {
            return Err(format!("the resident model moved {model_moves} times"));
        }
        let wire_bytes = records.iter().map(RunRecord::transfer_bytes).sum::<u64>() + unattributed;
        Ok(SampleOutput { wire_bytes, records, model_moves })
    }

    fn end_block(&mut self, tracer: &Tracer) {
        self.block.end(tracer);
    }
}

/// Cluster nodes of the simulated rows.
pub fn sim_nodes(sizing: Sizing) -> usize {
    match sizing {
        Sizing::Full => 64,
        Sizing::Smoke => 16,
    }
}

/// The cluster and runtime settings of the simulated rows.
pub fn sim_setting(nodes: usize) -> (ClusterConfig, OmpcConfig, OverheadModel) {
    (ClusterConfig::santos_dumont(nodes), OmpcConfig::default(), OverheadModel::default())
}

/// A fig. 5 graph for `nodes` nodes with seeded cost hints (nominal: the
/// figure's 50 ms tasks).
pub fn seeded_figure5(pattern: DependencePattern, nodes: usize, seed: u64) -> WorkloadGraph {
    let config = TaskBenchConfig::figure5(pattern, nodes);
    seeded_taskbench(&config, config.task_duration_secs(), seed)
}

/// HEFT over the simulated cluster's communication model, exactly as
/// `sim_plan` derives it, but keeping the [`ompc_sched::Schedule`] so that
/// what is handed to the simulator has passed `Schedule::validate`.
pub fn validated_sim_plan(
    workload: &WorkloadGraph,
    cluster: &ClusterConfig,
    config: &OmpcConfig,
) -> Result<(ompc_sched::Schedule, RuntimePlan), String> {
    let platform = ompc_core::runtime::sim::sim_platform(cluster);
    let schedule = HeftScheduler::new().schedule(&workload.graph, &platform);
    schedule.validate(&workload.graph, &platform).map_err(|e| format!("invalid schedule: {e}"))?;
    let plan = RuntimePlan {
        assignment: (0..workload.len()).map(|t| schedule.proc_of(t) + 1).collect(),
        window: config.inflight_window(),
    };
    Ok((schedule, plan))
}

/// `sim_paper_scale`: schedule and simulate fig. 5 Stencil-1D and FFT.
struct SimPaperScale {
    graphs: Vec<WorkloadGraph>,
    nodes: usize,
    /// Makespans of the first sample; every later one must repeat them.
    reference: Option<Vec<f64>>,
}

impl SimPaperScale {
    fn new(seed: u64, nodes: usize) -> Self {
        let graphs = [DependencePattern::Stencil1D, DependencePattern::Fft]
            .iter()
            .enumerate()
            .map(|(i, &pattern)| seeded_figure5(pattern, nodes, seed.wrapping_add(i as u64)))
            .collect();
        Self { graphs, nodes, reference: None }
    }
}

impl Workload for SimPaperScale {
    /// One set-up is already a whole sample of single-threaded CPU work;
    /// repeating it would cost more than the timed phase.
    fn setup_reps(&self) -> usize {
        1
    }

    fn samples_per_block(&self) -> usize {
        1
    }

    fn begin_block(&mut self, _: &Tracer) {}

    fn sample(&mut self, tracer: &Tracer) -> Result<SampleOutput, String> {
        let (cluster, config, overheads) = sim_setting(self.nodes);
        let (mut out, mut makespans) = (SampleOutput::default(), Vec::new());
        for workload in &self.graphs {
            let (_, plan) =
                tracer.span("sched.heft", || validated_sim_plan(workload, &cluster, &config))?;
            let (result, _) = tracer
                .span("sim.simulate_ompc_with_plan", || {
                    simulate_ompc_with_plan(workload, &cluster, &config, &overheads, &plan)
                })
                .map_err(|e| e.to_string())?;
            if result.stats.total_tasks() != workload.len() as u64 {
                return Err(format!("{} tasks simulated", result.stats.total_tasks()));
            }
            out.wire_bytes += result.stats.total_bytes();
            makespans.push(result.makespan.as_secs_f64());
        }
        match &self.reference {
            Some(first) if *first != makespans => {
                return Err(format!("makespans {first:?} then {makespans:?}"))
            }
            Some(_) => {}
            None => self.reference = Some(makespans),
        }
        Ok(out)
    }

    fn end_block(&mut self, _: &Tracer) {}
}
