//! The traced run: every layer of the runtime timed from outside, through
//! its public functions, with a harness span around each call. The only
//! in-program data read is what already exists: `RunRecord`s and the
//! `TelemetryLevel::Spans` attribution. Nothing here feeds an end-to-end
//! metric; the numbers are reported, never gated.

use crate::runner::{Metric, Report};
use crate::spans::{of_workload, self_times, spans_json, Tracer};
use crate::stats::{iqr_share, log_log_slope, median};
use crate::workloads::{
    self, awave_inputs, awave_shots, dispatch_shape, seeded_figure5, seeded_taskbench, sim_nodes,
    sim_setting, validated_sim_plan, Sizing, WORKERS, WORKLOADS,
};
use ompc_awave::{awave_workload, migrate, rtm_shot, AwaveWorkloadConfig};
use ompc_baselines::{
    block_assignment, cyclic_assignment, BaselineRuntime, CharmRuntime, MpiSyncRuntime,
};
use ompc_core::data_manager::HEAD_NODE;
use ompc_core::prelude::*;
use ompc_core::protocol::{
    decode_relay_frame, encode_relay_frame, EventNotification, EventReply, EventRequest, TaskSpec,
    TaskStep,
};
use ompc_mpi::{CommId, Communicator, MpiError, MpiResult, Tag, World};
use ompc_sched::{Platform, TaskGraph};
use ompc_sim::ClusterConfig;
use ompc_taskbench::{execute_iterations, generate_workload, DependencePattern, TaskBenchConfig};
use std::hint::black_box;
use std::time::Instant;

const MIB: usize = 1 << 20;

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// One reading of the machine-drift canary: nanoseconds per iteration of a
/// fixed, dependent integer loop of about 20 ms.
fn spin_once() -> f64 {
    const ITERATIONS: u64 = 8_000_000;
    let (seconds, state) = timed(|| execute_iterations(black_box(ITERATIONS), 1));
    black_box(state);
    seconds * 1e9 / ITERATIONS as f64
}

/// Nine back-to-back canary readings: `(median ns/iter, IQR in % of it)`.
pub fn host_spin() -> (f64, f64) {
    let readings: Vec<f64> = (0..9).map(|_| spin_once()).collect();
    (median(&readings), iqr_share(&readings) * 100.0)
}

type RankBody = fn(&Communicator) -> MpiResult<()>;

/// Run `rank0` and `rank1` as the two ranks of `world`; rank 0's elapsed
/// seconds.
fn two_ranks(world: World, rank0: RankBody, rank1: RankBody) -> MpiResult<f64> {
    let results: Vec<_> = world
        .launch(move |comm| {
            let start = Instant::now();
            let body = if comm.rank() == 0 { rank0 } else { rank1 };
            body(&comm).map(|()| start.elapsed().as_secs_f64())
        })
        .map(|h| h.join().expect("a rank thread panicked"))
        .collect();
    results.into_iter().next().expect("rank 0 exists")
}

/// The traced suite. Every probe group is one operation: a group that
/// returns an error counts as failed and the suite carries on.
struct Suite {
    tracer: Tracer,
    seed: u64,
    sizing: Sizing,
    report: Report,
    /// Canary readings taken between the groups.
    spins: Vec<f64>,
}

impl Suite {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.report.metrics.push(Metric::new(name, value, unit, n));
    }

    fn group(&mut self, name: &'static str, probe: fn(&mut Suite) -> Result<(), String>) {
        eprintln!("[ompc-perf] trace: {name} ...");
        self.tracer.scope("layers", 0);
        self.report.attempted += 1;
        if let Err(e) = probe(self) {
            self.report.failed += 1;
            self.report.errors.push(format!("{name}: {e}"));
        }
        self.spins.push(spin_once());
    }

    fn full(&self) -> bool {
        self.sizing == Sizing::Full
    }

    /// `f` inside a span, with the seconds it took.
    fn timed_span<T>(&self, span: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
        timed(|| self.tracer.span(span, f))
    }

    /// Median seconds of `reps` calls of `f`, each inside a span.
    fn median_time<T>(&self, span: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
        let times: Vec<f64> =
            (0..reps).map(|_| self.timed_span(span, || black_box(f())).0).collect();
        median(&times)
    }

    /// Seconds `rounds` encode + decode round trips take, inside one span.
    fn round_trips(
        &self,
        span: &'static str,
        rounds: usize,
        mut round_trip: impl FnMut(usize) -> OmpcResult<()>,
    ) -> Result<f64, String> {
        let (t, result) = self.timed_span(span, || (0..rounds).try_for_each(&mut round_trip));
        result.map(|()| t).map_err(|e| e.to_string())
    }

    fn dispatch_graph(&self) -> WorkloadGraph {
        seeded_taskbench(&dispatch_shape(), 1e-5, self.seed)
    }

    /// ompc-sched on the small platform. The fig. 5 graph is planned in
    /// [`Suite::sim`], next to the simulation it dominates.
    fn sched(&mut self) -> Result<(), String> {
        let config = OmpcConfig::small();
        let platform = Platform::cluster(WORKERS);
        let graph = self.dispatch_graph();
        let t = self
            .median_time("sched.plan", 5, || RuntimePlan::for_workload(&graph, &platform, &config));
        self.put("sched.heft_2k_s", t, "s", 5);
        let points: Vec<(f64, f64)> = [64usize, 128, 256]
            .iter()
            .map(|&steps| {
                let steps = if self.full() { steps } else { steps / 4 };
                let shape = TaskBenchConfig::new(DependencePattern::Stencil1D, 16, steps, 0, 16);
                let graph = seeded_taskbench(&shape, 1e-5, self.seed);
                let t = self.median_time("sched.plan", 3, || {
                    RuntimePlan::for_workload(&graph, &platform, &config)
                });
                (graph.len() as f64, t)
            })
            .collect();
        self.put("sched.heft_scaling_exp", log_log_slope(&points), "1", points.len());
        Ok(())
    }

    /// The wire codecs of `ompc_core::protocol`.
    fn protocol(&mut self) -> Result<(), String> {
        let b = BufferId;
        let notification = EventNotification {
            request: EventRequest::Task(TaskSpec {
                steps: vec![
                    TaskStep::RecvFromHead { buffer: b(1) },
                    TaskStep::RecvFromWorker { buffer: b(2), from: 2 },
                    TaskStep::AwaitLocal { buffer: b(3), timeout_ms: 60_000 },
                    TaskStep::Alloc { buffer: b(4), size: 16 },
                    TaskStep::Delete { buffer: b(5) },
                    TaskStep::Execute {
                        kernel: KernelId(0),
                        buffers: vec![b(1), b(2), b(3), b(4)],
                    },
                ],
            }),
            tag: Tag(7),
            comm: CommId(0),
            timed: false,
        };
        let rounds = if self.full() { 200_000 } else { 2_000 };
        let t = self.round_trips("protocol.task_notify", rounds, |_| {
            EventNotification::decode(&black_box(&notification).encode())
                .map(|n| drop(black_box(n)))
        })?;
        self.put("protocol.task_notify_roundtrip_ns", t * 1e9 / rounds as f64, "ns", rounds);
        let small = EventReply::Ok(vec![7u8; 64]);
        let t = self.round_trips("protocol.reply", rounds, |_| {
            EventReply::decode(&black_box(&small).encode()).map(|r| drop(black_box(r)))
        })?;
        self.put("protocol.reply_roundtrip_ns", t * 1e9 / rounds as f64, "ns", rounds);

        let rounds = if self.full() { 64 } else { 4 };
        let big = EventReply::Ok(vec![7u8; MIB]);
        let t = self.round_trips("protocol.reply_1mib", rounds, |_| {
            EventReply::decode(&black_box(&big).encode()).map(|r| drop(black_box(r)))
        })?;
        self.put("protocol.reply_1mib_mib_s", rounds as f64 / t, "MiB/s", rounds);
        let payload = vec![7u8; MIB];
        let t = self.round_trips("protocol.relay_frame", rounds, |i| {
            decode_relay_frame(&encode_relay_frame(i as u64, &payload)).map(|f| drop(black_box(f)))
        })?;
        self.put("protocol.relay_frame_mib_s", rounds as f64 / t, "MiB/s", rounds);
        Ok(())
    }

    /// A fresh `DataManager`, 4096 buffers read on two nodes, then written.
    fn dm(&mut self) -> Result<(), String> {
        const BUFFERS: u64 = 4096;
        let (mut plan_ns, mut write_ns) = (Vec::new(), Vec::new());
        for _ in 0..15 {
            let mut dm = DataManager::new();
            for id in 0..BUFFERS {
                dm.register_host_buffer(BufferId(id), 16);
            }
            let (t, ()) = self.timed_span("dm.plan_input", || {
                for id in 0..BUFFERS {
                    for node in 1..=WORKERS {
                        black_box(dm.plan_input(BufferId(id), node));
                    }
                }
            });
            plan_ns.push(t * 1e9 / (BUFFERS as f64 * WORKERS as f64));
            let (t, ()) = self.timed_span("dm.record_write", || {
                for id in 0..BUFFERS {
                    black_box(dm.record_write(BufferId(id), 1));
                }
            });
            write_ns.push(t * 1e9 / BUFFERS as f64);
        }
        self.put("dm.plan_input_ns", median(&plan_ns), "ns", plan_ns.len());
        self.put("dm.record_write_ns", median(&write_ns), "ns", write_ns.len());
        Ok(())
    }

    /// `ompc_mpi::World::new(2)`: latency, bandwidth, and the egress pacer.
    fn mpi(&mut self) -> Result<(), String> {
        let err = |e: MpiError| e.to_string();
        const PINGS: usize = 20_000;
        let t = self
            .tracer
            .span("mpi.pingpong", || {
                two_ranks(
                    World::new(2),
                    |c| {
                        for _ in 0..PINGS {
                            c.send(1, Tag(1), vec![0u8; 64])?;
                            c.recv(Some(1), Some(Tag(2)))?;
                        }
                        Ok(())
                    },
                    |c| {
                        for _ in 0..PINGS {
                            let ping = c.recv(Some(0), Some(Tag(1)))?;
                            c.send(0, Tag(2), ping.data)?;
                        }
                        Ok(())
                    },
                )
            })
            .map_err(err)?;
        self.put("mpi.pingpong_us", t * 1e6 / PINGS as f64, "us", PINGS);

        // 128 MiB in acknowledged batches of 8, so at most 8 MiB sit in the
        // receiver's mailbox.
        const BATCHES: usize = 16;
        let t = self
            .tracer
            .span("mpi.stream", || {
                two_ranks(
                    World::new(2),
                    |c| {
                        for _ in 0..BATCHES {
                            for _ in 0..8 {
                                c.send(1, Tag(1), vec![0u8; MIB])?;
                            }
                            c.recv(Some(1), Some(Tag(2)))?;
                        }
                        Ok(())
                    },
                    |c| {
                        for _ in 0..BATCHES {
                            for _ in 0..8 {
                                black_box(c.recv(Some(0), Some(Tag(1)))?);
                            }
                            c.send(0, Tag(2), Vec::new())?;
                        }
                        Ok(())
                    },
                )
            })
            .map_err(err)?;
        self.put("mpi.stream_1mib_mib_s", (BATCHES * 8) as f64 / t, "MiB/s", BATCHES * 8);

        // 64 MiB through a 256 MiB/s emulated link: ideal is 0.25 s.
        let world = World::new(2);
        world.set_link_bandwidth(256 * MIB as u64);
        let t = self
            .tracer
            .span("mpi.paced_stream", || {
                two_ranks(
                    world,
                    |c| {
                        for _ in 0..64 {
                            c.send(1, Tag(1), vec![0u8; MIB])?;
                        }
                        c.recv(Some(1), Some(Tag(2)))?;
                        Ok(())
                    },
                    |c| {
                        for _ in 0..64 {
                            black_box(c.recv(Some(0), Some(Tag(1)))?);
                        }
                        c.send(0, Tag(2), Vec::new())
                    },
                )
            })
            .map_err(err)?;
        self.put("mpi.pacer_error_pct", (t - 0.25).abs() / 0.25 * 100.0, "%", 1);
        Ok(())
    }

    /// Device lifetime and the region front end (cluster / event / worker).
    fn cluster(&mut self) -> Result<(), String> {
        let err = |e: OmpcError| e.to_string();
        let cold = OmpcConfig { warm_worker_keepalive: false, ..OmpcConfig::small() };
        // A cold lifetime, spawn and join together; the warm pair below
        // separates the two.
        let spawn_cold = self.median_time("cluster.spawn_cold", 5, || {
            let mut device = ClusterDevice::with_config(WORKERS, cold.clone());
            device.shutdown()
        });
        self.put("cluster.spawn_cold_ms", spawn_cold * 1e3, "ms", 5);
        ClusterDevice::with_config(WORKERS, OmpcConfig::small()).shutdown();
        let (mut spawns, mut shutdowns) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            let (t, mut device) = self.timed_span("cluster.spawn", || {
                ClusterDevice::with_config(WORKERS, OmpcConfig::small())
            });
            spawns.push(t * 1e3);
            shutdowns.push(self.timed_span("cluster.shutdown", || device.shutdown()).0 * 1e3);
        }
        self.put("cluster.spawn_warm_ms", median(&spawns), "ms", spawns.len());
        self.put("cluster.shutdown_ms", median(&shutdowns), "ms", shutdowns.len());

        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let config = OmpcConfig { backend, ..OmpcConfig::small() };
            let mut device = ClusterDevice::with_config(WORKERS, config);
            let noop = device.register_kernel_fn("noop", 1e-6, |_| {});
            let resident = device.enter_data(vec![0u8; 8]);
            let launches = if self.full() { 300 } else { 20 };
            let launch = || {
                let mut region = device.target_region();
                region.target(noop, vec![Dependence::inout(resident)]);
                region.run().map(|_| ())
            };
            launch().map_err(err)?;
            let (t, result) = self
                .timed_span("cluster.region_launch", || (0..launches).try_for_each(|_| launch()));
            result.map_err(err)?;
            device.exit_data(resident).map_err(err)?;
            self.put(
                format!("cluster.region_launch_us.{}", backend.name()),
                t * 1e6 / launches as f64,
                "us",
                launches,
            );

            let mut rates = Vec::new();
            for _ in 0..5 {
                let (t, result) = self.timed_span("cluster.enter_exit", || {
                    let buffer = device.enter_data(vec![1u8; 8 * MIB]);
                    let mut region = device.target_region();
                    region.target(noop, vec![Dependence::input(buffer)]);
                    region.run()?;
                    device.exit_data(buffer)
                });
                result.map_err(err)?;
                rates.push(8.0 / t);
            }
            device.shutdown();
            self.put(
                format!("cluster.enter_exit_mib_s.{}", backend.name()),
                median(&rates),
                "MiB/s",
                rates.len(),
            );
        }
        Ok(())
    }

    /// Plain single-threaded kernels: the baselines the runtime adds to.
    fn kernels(&mut self) -> Result<(), String> {
        let iterations = if self.full() { 20_000_000 } else { 1_000_000 };
        let t = self.median_time("kernel.taskbench", 3, || {
            execute_iterations(black_box(iterations), self.seed)
        });
        self.put("kernel.taskbench_ns_per_iter", t * 1e9 / iterations as f64, "ns", 3);
        let (model, params, shots) = awave_inputs(self.seed, 1);
        let t = self.median_time("kernel.rtm_shot", 3, || rtm_shot(&model, shots[0], &params));
        self.put("kernel.rtm_shot_s", t, "s", 3);
        // Computed, not counted: three propagations of nt steps over the
        // grid per shot (observed data, forward field, adjoint field).
        let cells = 3.0 * (model.nx * model.nz * params.nt) as f64;
        self.put("kernel.rtm_mcells_per_s", cells / t / 1e6, "Mcell/s", 3);
        Ok(())
    }

    /// `RuntimeCore` + transport under a precomputed plan: the dispatch
    /// graph, and a dependence-free graph of the same size that leaves the
    /// data manager nothing to forward.
    fn runtime(&mut self) -> Result<(), String> {
        let graph = self.dispatch_graph();
        let mut wide = TaskGraph::new();
        for _ in 0..graph.len() {
            wide.add_task(1e-5);
        }
        let wide = WorkloadGraph::new(wide, vec![16; graph.len()]);
        let (mut bytes, mut peak) = (Vec::new(), 0);
        for backend in [BackendKind::Mpi, BackendKind::Threaded] {
            let config = OmpcConfig { backend, ..OmpcConfig::small() };
            let plan = RuntimePlan::for_workload(&graph, &Platform::cluster(WORKERS), &config);
            let wide_plan = RuntimePlan {
                assignment: (0..wide.len()).map(|t| t % WORKERS + 1).collect(),
                window: config.inflight_window(),
            };
            let mut device = ClusterDevice::with_config(WORKERS, config);
            for (metric, workload, plan) in
                [("task_us", &graph, &plan), ("wide_task_us", &wide, &wide_plan)]
            {
                let mut times = Vec::new();
                for _ in 0..3 {
                    let (t, record) = self
                        .timed_span("runtime.run_workload", || device.run_workload(workload, plan));
                    let record = record.map_err(|e| e.to_string())?;
                    times.push(t * 1e6 / workload.len() as f64);
                    if metric == "task_us" {
                        bytes.push(record.transfer_bytes());
                        peak = peak.max(record.peak_in_flight);
                    }
                }
                self.put(format!("runtime.{}.{metric}", backend.name()), median(&times), "us", 3);
            }
            device.shutdown();
        }
        self.put("runtime.peak_in_flight", peak as f64, "count", bytes.len());
        if bytes.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("wire bytes differ between backends or runs: {bytes:?}"));
        }
        Ok(())
    }

    /// The four real workloads, traced: one extra run each at the runtime's
    /// own `TelemetryLevel::Spans`, alternated with untraced samples.
    fn workloads(&mut self) -> Result<(), String> {
        let pairs = if self.full() { 3 } else { 1 };
        for (name, _) in &WORKLOADS[..4] {
            let short = name.split('_').next().expect("split yields at least one part");
            let mut plain = workloads::build(name, self.seed, self.sizing, TelemetryLevel::Off);
            let mut spans = workloads::build(name, self.seed, self.sizing, TelemetryLevel::Spans);
            let (mut plain_walls, mut span_walls, mut last) = (Vec::new(), Vec::new(), None);
            for pair in 0..pairs {
                for (traced, workload) in [(false, &mut plain), (true, &mut spans)] {
                    self.tracer.scope(name, 2 * pair + traced as usize);
                    workload.begin_block(&self.tracer);
                    let (t, out) = self.timed_span("sample", || workload.sample(&self.tracer));
                    workload.end_block(&self.tracer);
                    let out = out.map_err(|e| format!("{name}: {e}"))?;
                    if traced {
                        span_walls.push(t);
                        last = Some(out);
                    } else {
                        plain_walls.push(t);
                    }
                }
            }
            let out = last.expect("at least one pair ran");
            let overhead = (median(&span_walls) / median(&plain_walls) - 1.0) * 100.0;
            self.put(format!("trace.overhead_pct.{name}"), overhead, "%", pairs);

            let attribution = overhead_attribution(
                &out.records.iter().flat_map(|r| r.spans.clone()).collect::<Vec<_>>(),
            );
            let a = &attribution;
            let busy = (a.scheduling_us + a.serialization_us + a.wire_us + a.compute_us) as f64;
            let nodes: std::collections::BTreeSet<NodeId> =
                out.records.iter().flat_map(|r| r.spans.iter().map(|s| s.node)).collect();
            // What the buckets claim to explain: every node for the whole
            // window.
            let window = a.wall_us as f64 * nodes.len() as f64;
            for (bucket, us) in [
                ("scheduling_share", a.scheduling_us),
                ("serialization_share", a.serialization_us),
                ("wire_share", a.wire_us),
                ("compute_share", a.compute_us),
            ] {
                self.put(format!("telemetry.{name}.{bucket}"), us as f64 / busy, "ratio", 1);
            }
            self.put(format!("telemetry.{name}.idle_share"), a.idle_us as f64 / window, "ratio", 1);
            self.put(
                format!("telemetry.{name}.closure_ratio"),
                (busy + a.idle_us as f64) / window,
                "ratio",
                1,
            );

            if *name == "dispatch_threaded" {
                continue; // same graph and plan as dispatch_mpi: same transfers
            }
            let transfers = match *name {
                "awave_survey" => out.records.iter().map(RunRecord::transfer_count).sum(),
                _ => out.records[0].transfer_count(),
            };
            self.put(format!("dm.transfers.{short}"), transfers as f64, "count", 1);
            if *name == "data_stencil" {
                let inputs = out.records[0].transfers_with_reason(TransferReason::Input);
                let total: u64 = inputs.iter().map(|t| t.bytes).sum();
                let from_workers: u64 =
                    inputs.iter().filter(|t| t.from != HEAD_NODE).map(|t| t.bytes).sum();
                self.put("dm.w2w_share.data", from_workers as f64 / total as f64, "ratio", 1);
            }
            if *name == "awave_survey" {
                self.put("dm.model_moves.awave", out.model_moves as f64, "count", 1);
                let (model, params, shots) = awave_inputs(self.seed, awave_shots(self.sizing));
                let t = self.median_time("awave.migrate", 3, || migrate(&model, &shots, &params));
                self.put("awave.seq_migrate_s", t, "s", 3);
                self.put("awave.cluster_over_seq", median(&plain_walls) / t, "ratio", pairs);
            }
        }
        Ok(())
    }

    /// ompc-sim + `SimBackend` at paper scale, with the HEFT plan that
    /// dominates it, and the model's own outputs.
    fn sim(&mut self) -> Result<(), String> {
        self.tracer.scope("sim_paper_scale", 0);
        let nodes = sim_nodes(self.sizing);
        let (cluster, config, overheads) = sim_setting(nodes);
        let stencil = seeded_figure5(DependencePattern::Stencil1D, nodes, self.seed);
        let fft = seeded_figure5(DependencePattern::Fft, nodes, self.seed.wrapping_add(1));
        let err = |e: OmpcError| e.to_string();

        let (t, planned) =
            self.timed_span("sched.heft", || validated_sim_plan(&stencil, &cluster, &config));
        let (schedule, plan) = planned?;
        self.put("sched.heft_fig5_64_s", t, "s", 1);
        self.put("sched.heft_makespan_fig5_64_s", schedule.makespan(), "s", 1);
        let (t, planned) = self.timed_span("sim.simulate_ompc_with_plan", || {
            simulate_ompc_with_plan(&stencil, &cluster, &config, &overheads, &plan)
        });
        let (planned, _) = planned.map_err(err)?;
        self.put("sim.engine_s.stencil64", t, "s", 1);
        self.put("sim.events_per_s", planned.stats.events_processed as f64 / t, "1/s", 1);

        let simulate = |workload: &WorkloadGraph, cluster: &ClusterConfig| {
            let (t, result) = self.timed_span("sim.simulate_ompc", || {
                simulate_ompc(workload, cluster, &config, &overheads)
            });
            result.map(|r| (t, r.makespan.as_secs_f64())).map_err(err)
        };
        let (t, stencil_makespan) = simulate(&stencil, &cluster)?;
        let (t_fft, fft_makespan) = simulate(&fft, &cluster)?;
        let fig6 = generate_workload(&TaskBenchConfig::figure6(DependencePattern::Stencil1D, 0.5));
        let (_, fig6_makespan) = simulate(&fig6, &ClusterConfig::santos_dumont(16))?;
        let survey = awave_workload(&AwaveWorkloadConfig::survey(nodes - 1, 3200, 1200, 6000));
        let (_, awave_makespan) = simulate(&survey, &cluster)?;
        if stencil_makespan != planned.makespan.as_secs_f64() {
            return Err(
                "simulate_ompc and the harness's own HEFT plan disagree on the makespan".into()
            );
        }
        self.put("sim.host_s.stencil64", t, "s", 1);
        self.put("sim.host_s.fft64", t_fft, "s", 1);
        self.put("sim.makespan_s.stencil64", stencil_makespan, "s", 1);
        self.put("sim.makespan_s.fft64", fft_makespan, "s", 1);
        self.put("sim.makespan_s.fig6_ccr05", fig6_makespan, "s", 1);
        self.put("sim.makespan_s.awave64", awave_makespan, "s", 1);

        let shape = TaskBenchConfig::figure5(DependencePattern::Stencil1D, nodes);
        let charm = self.tracer.span("sim.baseline", || {
            let cyclic = cyclic_assignment(shape.width, shape.steps, nodes);
            CharmRuntime::new().run(&stencil, &cluster, &cyclic).makespan.as_secs_f64()
        });
        let mpi = self.tracer.span("sim.baseline", || {
            let block = block_assignment(shape.width, shape.steps, nodes);
            MpiSyncRuntime::new().run(&stencil, &cluster, &block).makespan.as_secs_f64()
        });
        self.put("sim.ompc_vs_charm.stencil64", charm / stencil_makespan, "ratio", 1);
        self.put("sim.ompc_vs_mpi.stencil64", mpi / stencil_makespan, "ratio", 1);
        Ok(())
    }
}

/// Run the whole traced suite, write `out/trace-<workload>.json` for the
/// `selected` workloads (and `out/trace-layers.json`), print their self
/// times, and report every per-layer metric.
pub fn traced_run(seed: u64, sizing: Sizing, selected: &[&'static str]) -> Report {
    let mut suite = Suite {
        tracer: Tracer::on(),
        seed,
        sizing,
        report: Report {
            workload: "trace".to_string(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
        },
        spins: vec![spin_once()],
    };
    suite.group("sched", Suite::sched);
    suite.group("protocol", Suite::protocol);
    suite.group("dm", Suite::dm);
    suite.group("mpi", Suite::mpi);
    suite.group("cluster", Suite::cluster);
    suite.group("kernels", Suite::kernels);
    suite.group("runtime", Suite::runtime);
    suite.group("workloads", Suite::workloads);
    suite.group("sim", Suite::sim);
    let spins = std::mem::take(&mut suite.spins);
    suite.put("host.spin_ns_per_iter", median(&spins), "ns", spins.len());
    suite.put("host.spin_iqr_pct", iqr_share(&spins) * 100.0, "%", spins.len());

    let spans = suite.tracer.spans();
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        suite.report.failed += 1;
        suite.report.errors.push(format!("cannot create {out_dir}: {e}"));
    }
    for workload in selected.iter().copied().chain(["layers"]) {
        let path = format!("{out_dir}/trace-{workload}.json");
        let mine = of_workload(&spans, workload);
        let doc = spans_json(&mine, workload).to_string_pretty();
        if let Err(e) = std::fs::write(&path, doc + "\n") {
            suite.report.failed += 1;
            suite.report.errors.push(format!("cannot write {path}: {e}"));
        }
        eprintln!("[ompc-perf] self time per span name, {workload} ({path}):");
        for (name, seconds) in self_times(&mine) {
            eprintln!("[ompc-perf]   {name:<32} {seconds:>10.4} s");
        }
    }
    suite.report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::END_TO_END;
    use ompc_json::Json;

    fn listed(doc: &Json, section: &str, key: &str) -> Vec<String> {
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .iter()
            .map(|entry| entry.get(key).and_then(Json::as_str).expect(key).to_string())
            .collect()
    }

    /// `BENCHMARK.json` is the contract the acceptance driver reads; the
    /// harness must print exactly what it lists.
    #[test]
    fn benchmark_json_lists_what_the_harness_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<(String, String)> = listed(&doc, "workloads", "name")
            .into_iter()
            .zip(listed(&doc, "workloads", "why"))
            .collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(workloads, ours);

        let end_to_end = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").unwrap().as_str(), Some(name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(unit));
            assert_eq!(entry.get("better").unwrap().as_str(), Some("lower"));
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(bound));
        }

        let report = traced_run(1, Sizing::Smoke, &["dispatch_mpi"]);
        assert!(report.correct(), "{:?}", report.errors);
        let mut printed: Vec<(String, String)> =
            report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
        let mut expected: Vec<(String, String)> = listed(&doc, "per_layer", "name")
            .into_iter()
            .zip(listed(&doc, "per_layer", "unit"))
            .collect();
        printed.sort();
        expected.sort();
        assert_eq!(printed, expected);
        assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{:?}", report.metrics);
        for file in ["trace-dispatch_mpi.json", "trace-layers.json"] {
            let path = format!("{}/out/{file}", env!("CARGO_MANIFEST_DIR"));
            let spans = Json::parse(&std::fs::read_to_string(&path).expect(&path)).unwrap();
            assert!(!spans.get("spans").unwrap().as_array().unwrap().is_empty(), "{path}");
        }
    }
}
