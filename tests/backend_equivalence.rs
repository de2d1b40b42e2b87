//! The simulator predicts what the cluster does: for the same seeded
//! workload and the same [`RuntimePlan`], the simulated backend and the
//! real message-passing cluster must make identical scheduling and
//! dispatch decisions — the acceptance bar of the unified `RuntimeCore` /
//! `ExecutionBackend` design — and the cluster's data-path optimisations
//! (task trains) may change how bytes move, never what moves where. The sweeps run under ompc-testutil's 120 s
//! watchdog so a protocol hang fails fast.

use ompc::prelude::*;
use ompc::runtime::runtime::TaskDag;
use ompc::runtime::task::EdgeKind;
use ompc::sched::{Platform, TaskGraph};
use ompc::sim::ClusterConfig;
use ompc_testutil::{with_timeout, Rng};
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(120);

/// Execute `workload` under `plan` on a real device, returning the
/// decision record.
fn device_record(
    workers: usize,
    config: &OmpcConfig,
    workload: &WorkloadGraph,
    plan: &RuntimePlan,
) -> RunRecord {
    let mut device = ClusterDevice::with_config(workers, config.clone());
    let record = device.run_workload(workload, plan).unwrap();
    device.shutdown();
    record
}

/// A random layered DAG whose edges always point forward and carry the
/// producer's output size — the shape both backends can execute (the
/// cluster materializes it as a region of per-task output buffers).
fn random_workload(rng: &mut Rng) -> WorkloadGraph {
    let tasks = rng.range(2, 14) as usize;
    let mut graph = TaskGraph::new();
    let mut output_bytes = Vec::with_capacity(tasks);
    for _ in 0..tasks {
        graph.add_task(rng.range(1, 40) as f64 * 1e-4);
        output_bytes.push(rng.range(1, 64) * 1024);
    }
    // Edges grouped by consumer, predecessors ascending, so the scheduler
    // sees the same adjacency order the region materialization produces.
    for t in 1..tasks {
        let max_preds = t.min(3);
        let preds = rng.range(0, max_preds as u64 + 1) as usize;
        let mut chosen: Vec<usize> = (0..preds).map(|_| rng.range(0, t as u64) as usize).collect();
        chosen.sort_unstable();
        chosen.dedup();
        for p in chosen {
            graph.add_edge(p, t, output_bytes[p]);
        }
    }
    WorkloadGraph::new(graph, output_bytes)
}

fn is_topological(order: &[usize], workload: &WorkloadGraph) -> bool {
    let pos: std::collections::HashMap<usize, usize> =
        order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    workload.graph.edges().iter().all(|e| pos[&e.from] < pos[&e.to])
}

/// The input-forward transfers of a record — the transfer-plan surface the
/// simulator and the cluster share for a workload run. (Enter-data and retrieval
/// records are modelled differently by design: the simulator distributes
/// root inputs and retrieves sink outputs, while the materialized region
/// allocates root outputs in place and has no exit tasks.)
fn input_transfers(record: &RunRecord) -> Vec<TransferRecord> {
    record.transfers_with_reason(TransferReason::Input)
}

/// With a serial dispatch window the simulator and the cluster agree on
/// everything: the HEFT assignment, the dispatch order, and the
/// task-completion order.
#[test]
fn backends_agree_on_assignment_and_completion_order() {
    with_timeout(WATCHDOG, || {
        for seed in 0..10u64 {
            let mut rng = Rng::new(seed);
            let workload = random_workload(&mut rng);
            let workers = rng.range(2, 5) as usize;
            let platform = Platform::cluster(workers);
            let mut config = OmpcConfig::small();
            config.max_inflight_tasks = 1;

            // The scheduler is deterministic: planning twice from the same
            // inputs gives the same plan.
            let plan = RuntimePlan::for_workload(&workload, &platform, &config);
            let replan = RuntimePlan::for_workload(&workload, &platform, &config);
            assert_eq!(plan, replan, "seed {seed}: scheduling is not deterministic");
            assert!(
                plan.assignment.iter().all(|&n| n >= 1 && n <= workers),
                "seed {seed}: tasks must be assigned to worker nodes"
            );

            let cluster = ClusterConfig::santos_dumont(workers + 1);
            let (sim_result, sim_record) = simulate_ompc_with_plan(
                &workload,
                &cluster,
                &config,
                &OverheadModel::default(),
                &plan,
            )
            .unwrap();
            assert_eq!(sim_result.stats.total_tasks(), workload.len() as u64, "seed {seed}");

            let record = device_record(workers, &config, &workload, &plan);
            assert_eq!(
                sim_record.assignment, record.assignment,
                "seed {seed}: sim and cluster disagree on the HEFT assignment"
            );
            assert_eq!(
                sim_record.dispatch_order, record.dispatch_order,
                "seed {seed}: sim and cluster disagree on the dispatch order"
            );
            assert_eq!(
                sim_record.completion_order, record.completion_order,
                "seed {seed}: sim and cluster disagree on the task-completion order"
            );
            // With a serial window the transfer *plans* agree exactly: same
            // buffers, same sources, same destinations, same sizes, in the
            // same order.
            assert_eq!(
                input_transfers(&sim_record),
                input_transfers(&record),
                "seed {seed}: sim and cluster disagree on the input-transfer plan"
            );
            assert_eq!(sim_record.peak_in_flight, 1, "seed {seed}");
            assert!(is_topological(&sim_record.completion_order, &workload), "seed {seed}");
        }
    });
}

/// With a wide window the cluster's completion order becomes timing
/// dependent, but both backends must still execute every task exactly once
/// in a dependence-respecting order, under the configured window bound. The
/// orders differ by design too: the cluster dispatches a flow-dependent
/// consumer as soon as its producers' cars are launched, to wait on its
/// worker, where the simulator waits for them to retire — so the cluster's
/// completion order is another topological order, and its transfer *set*
/// is the simulator's.
#[test]
fn backends_respect_dependences_under_wide_windows() {
    with_timeout(WATCHDOG, || {
        for seed in 0..6u64 {
            let mut rng = Rng::new(1000 + seed);
            let workload = random_workload(&mut rng);
            let workers = 3;
            let platform = Platform::cluster(workers);
            let mut config = OmpcConfig::small();
            config.max_inflight_tasks = 4;
            let plan = RuntimePlan::for_workload(&workload, &platform, &config);
            let cluster = ClusterConfig::santos_dumont(workers + 1);

            let (_, sim_record) = simulate_ompc_with_plan(
                &workload,
                &cluster,
                &config,
                &OverheadModel::default(),
                &plan,
            )
            .unwrap();
            let cluster_record = device_record(workers, &config, &workload, &plan);

            for (name, record) in [("sim", &sim_record), ("cluster", &cluster_record)] {
                let mut seen = record.completion_order.clone();
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    (0..workload.len()).collect::<Vec<_>>(),
                    "seed {seed}: {name} backend did not execute every task exactly once"
                );
                assert!(
                    is_topological(&record.completion_order, &workload),
                    "seed {seed}: {name} backend violated a dependence"
                );
                assert!(
                    record.peak_in_flight <= 4,
                    "seed {seed}: {name} backend exceeded the in-flight window"
                );
                // The assignment is static, so it matches exactly.
                assert_eq!(sim_record.assignment, record.assignment, "seed {seed}: {name}");
                // Under a wide window the planning *order* is timing
                // dependent, but the transfer plan as a set is not: the
                // same bytes move between the same nodes in every backend.
                let sort = |mut v: Vec<TransferRecord>| {
                    v.sort_by_key(|t| (t.buffer, t.from, t.to, t.bytes));
                    v
                };
                assert_eq!(
                    sort(input_transfers(&sim_record)),
                    sort(input_transfers(record)),
                    "seed {seed}: {name} backend moved a different input-transfer set"
                );
            }
        }
    });
}

/// Task-train batching is a message-*packaging* optimisation only: the
/// cluster, which always batches, must produce the decisions the simulator
/// predicts — strict equality of dispatch and completion orders at a serial
/// window, where no car can hold a consumer, set-equality of the transfer
/// plan (and a dependence-respecting completion permutation, which held
/// consumers make the cluster's own) at a wide window — the same way on
/// every run.
#[test]
fn task_train_matrix_is_equivalent_three_ways() {
    with_timeout(WATCHDOG, || {
        for seed in 0..6u64 {
            let mut rng = Rng::new(2000 + seed);
            let workload = random_workload(&mut rng);
            let workers = rng.range(2, 5) as usize;
            let platform = Platform::cluster(workers);
            let cluster = ClusterConfig::santos_dumont(workers + 1);
            for (window, strict) in [(1usize, true), (4, false)] {
                let mut config = OmpcConfig::small();
                config.max_inflight_tasks = window;
                let plan = RuntimePlan::for_workload(&workload, &platform, &config);
                let (_, sim_record) = simulate_ompc_with_plan(
                    &workload,
                    &cluster,
                    &config,
                    &OverheadModel::default(),
                    &plan,
                )
                .unwrap();
                let record = device_record(workers, &config, &workload, &plan);
                let tag = format!("seed {seed} window {window}");
                assert_eq!(sim_record.assignment, record.assignment, "{tag}: assignment");
                if strict {
                    assert_eq!(
                        sim_record.dispatch_order, record.dispatch_order,
                        "{tag}: dispatch order"
                    );
                    assert_eq!(
                        sim_record.completion_order, record.completion_order,
                        "{tag}: completion order"
                    );
                    let again = device_record(workers, &config, &workload, &plan);
                    assert_eq!(
                        again.completion_order, record.completion_order,
                        "{tag}: completion order of a second run"
                    );
                    assert_eq!(
                        input_transfers(&sim_record),
                        input_transfers(&record),
                        "{tag}: input-transfer plan"
                    );
                } else {
                    let mut seen = record.completion_order.clone();
                    seen.sort_unstable();
                    assert_eq!(
                        seen,
                        (0..workload.len()).collect::<Vec<_>>(),
                        "{tag}: every task exactly once"
                    );
                    assert!(
                        is_topological(&record.completion_order, &workload),
                        "{tag}: dependence-respecting completion order"
                    );
                    assert!(record.peak_in_flight <= window, "{tag}: window bound");
                    let sort = |mut v: Vec<TransferRecord>| {
                        v.sort_by_key(|t| (t.buffer, t.from, t.to, t.bytes));
                        v
                    };
                    assert_eq!(
                        sort(input_transfers(&sim_record)),
                        sort(input_transfers(&record)),
                        "{tag}: input-transfer set"
                    );
                }
            }
        }
    });
}

/// The simulated §7 reproduction: with the legacy libomptarget-style window
/// the makespan of a wide graph degrades, and the recorded peak concurrency
/// honours `max_inflight_tasks` in both modes.
#[test]
fn window_is_honored_and_bottleneck_reproduces() {
    let mut rng = Rng::new(42);
    // A wide, shallow workload: plenty of available parallelism.
    let width = 24usize;
    let mut graph = TaskGraph::new();
    let mut output_bytes = Vec::new();
    for _ in 0..width {
        graph.add_task(2e-3);
        output_bytes.push(rng.range(1, 8) * 1024);
    }
    let workload = WorkloadGraph::new(graph, output_bytes);
    let cluster = ClusterConfig::santos_dumont(9);

    let run = |window: usize| {
        let config = OmpcConfig { max_inflight_tasks: window, ..OmpcConfig::default() };
        simulate_ompc_outcome(&workload, &cluster, &config, &OverheadModel::default(), None)
            .into_result()
            .unwrap()
    };
    let (narrow_result, narrow_record) = run(2);
    let (wide_result, wide_record) = run(width);
    assert_eq!(narrow_record.peak_in_flight, 2);
    assert!(wide_record.peak_in_flight > 2);
    assert!(
        narrow_result.makespan > wide_result.makespan,
        "the narrow window must reproduce the head-node bottleneck"
    );

    // The cluster honours the same bound.
    let mut config = OmpcConfig::small();
    config.max_inflight_tasks = 2;
    let platform = Platform::cluster(3);
    let plan = RuntimePlan::for_workload(&workload, &platform, &config);
    let record = device_record(3, &config, &workload, &plan);
    assert!(record.peak_in_flight <= 2);
}

/// A shared read-only input is a star from the head: consumed by one task
/// on each of four workers, it reaches every worker exactly once, each copy
/// sourced from the head node. A second run of the same region makes the
/// same decisions: the same assignment and outputs, and the same transfer
/// log — exact, source included, at a serial window, and the same record
/// set at a wide one.
#[test]
fn a_shared_input_is_a_head_star_and_reruns_plan_it_identically() {
    /// One shared read-only 8 KiB input consumed by four target tasks
    /// (each with a private scale factor), returning the region
    /// assignment, the region's transfer log, and the four outputs.
    fn shared_input_script(window: usize) -> (Vec<usize>, Vec<TransferRecord>, Vec<f64>, BufferId) {
        let workers = 4;
        let config = OmpcConfig { max_inflight_tasks: window, ..OmpcConfig::small() };
        let mut device = ClusterDevice::with_config(workers, config);
        let scale = device.register_kernel_fn("scale", 1e-2, |args| {
            let total: f64 = args.as_f64s(0).iter().sum();
            let factor = args.as_f64s(1)[0];
            args.set_f64s(2, &[total * factor]);
        });
        let mut region = device.target_region();
        let vals: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let shared = region.map_to_f64s(&vals);
        let mut outs = Vec::new();
        for i in 0..4 {
            let factor = region.map_to_f64s(&[(i + 1) as f64]);
            let out = region.map_alloc(8);
            region.target(
                scale,
                vec![Dependence::input(shared), Dependence::input(factor), Dependence::output(out)],
            );
            region.map_from(out);
            outs.push(out);
        }
        region.run().unwrap();
        let record = device.last_run_record().unwrap();
        let outputs: Vec<f64> = outs.iter().map(|&o| device.buffer_f64s(o).unwrap()[0]).collect();
        device.shutdown();
        (record.assignment, record.transfers, outputs, shared)
    }

    with_timeout(WATCHDOG, || {
        for (window, strict) in [(1usize, true), (4, false)] {
            let first = shared_input_script(window);
            let (_, ref transfers, _, shared) = first;
            let mut copies: Vec<(usize, usize)> =
                (transfers.iter()).filter(|t| t.buffer == shared).map(|t| (t.from, t.to)).collect();
            copies.sort_unstable();
            assert_eq!(
                copies,
                vec![(0, 1), (0, 2), (0, 3), (0, 4)],
                "window {window}: one head-sourced copy per worker: {transfers:?}"
            );

            let again = shared_input_script(window);
            assert_eq!(first.0, again.0, "window {window}: region assignment");
            assert_eq!(first.2, again.2, "window {window}: task outputs");
            if strict {
                assert_eq!(first.1, again.1, "window {window}: transfer log (exact)");
            } else {
                let sort = |mut v: Vec<TransferRecord>| {
                    v.sort_by_key(|t| (t.buffer, t.from, t.to, t.bytes));
                    v
                };
                assert_eq!(
                    sort(first.1.clone()),
                    sort(again.1.clone()),
                    "window {window}: transfer-record set"
                );
            }
        }
    });
}

/// What a region graph must say of `deps`, its tasks' `depend` clauses in
/// program order, by the OpenMP rules read naively, task after task: each
/// task's predecessors, each with whether flow dependences alone order the
/// pair, and each writer's `(buffer, reader)` for every read of a version it
/// wrote.
#[allow(clippy::type_complexity)]
fn naive_dependences(
    deps: &[Vec<Dependence>],
) -> (Vec<Vec<(TaskId, bool)>>, Vec<Vec<(BufferId, TaskId)>>) {
    let writes =
        |t: usize, b: BufferId| deps[t].iter().any(|d| d.buffer == b && d.dep_type.writes());
    let reads_only = |t: usize, b: BufferId| {
        deps[t].iter().any(|d| d.buffer == b && d.dep_type.reads() && !d.dep_type.writes())
    };
    let mut preds: Vec<Vec<(TaskId, bool)>> = vec![Vec::new(); deps.len()];
    let mut readers: Vec<Vec<(BufferId, TaskId)>> = vec![Vec::new(); deps.len()];
    for (t, clauses) in deps.iter().enumerate() {
        let mut edges = Vec::new();
        for d in clauses {
            let writer = (0..t).rev().find(|&w| writes(w, d.buffer));
            if let (true, Some(w)) = (d.dep_type.reads(), writer) {
                edges.push((w, true));
                readers[w].push((d.buffer, TaskId(t)));
            }
            if d.dep_type.writes() {
                let since = writer.map_or(0, |w| w + 1);
                edges.extend((since..t).filter(|&r| reads_only(r, d.buffer)).map(|r| (r, false)));
                if let (false, Some(w)) = (d.dep_type.reads(), writer) {
                    edges.push((w, false));
                }
            }
        }
        edges.sort_unstable();
        for (from, flow) in edges {
            match preds[t].last_mut() {
                Some((last, only)) if last.0 == from => *only &= flow,
                _ => preds[t].push((TaskId(from), flow)),
            }
        }
    }
    (preds, readers)
}

/// `region` says of its tasks what `deps` say by [`naive_dependences`]: the
/// same `depend` clauses task by task, the same predecessors, one edge per
/// pair — a flow edge exactly when a flow dependence orders the pair, the
/// only kind when flow dependences alone do — and the same readers of each
/// version.
fn assert_region_says(region: &RegionGraph, deps: &[Vec<Dependence>], what: &str) {
    let (preds, readers) = naive_dependences(deps);
    assert_eq!(region.len(), deps.len(), "{what}");
    let mut kinds: Vec<Vec<(TaskId, bool, bool)>> = vec![Vec::new(); deps.len()];
    for edge in region.edges() {
        kinds[edge.to.0].push((edge.from, edge.kind == EdgeKind::Flow, false));
    }
    for t in 0..deps.len() {
        let id = TaskId(t);
        assert_eq!(region.dependences(id), &deps[t][..], "{what}: task {t}'s clauses");
        let want: Vec<TaskId> = preds[t].iter().map(|&(p, _)| p).collect();
        let mut got = region.predecessors(id).to_vec();
        got.sort_unstable();
        assert_eq!(got, want, "{what}: task {t}'s predecessors");
        let mut edges = kinds[t].clone();
        edges.sort_unstable_by_key(|&(from, ..)| from);
        assert_eq!(edges.len(), want.len(), "{what}: one edge per pair into task {t}");
        for ((from, flow, _), &(_, only)) in edges.iter().zip(&preds[t]) {
            let any_flow = deps[t].iter().any(|d| {
                d.dep_type.reads()
                    && (0..t).rev().find(|&w| {
                        deps[w].iter().any(|c| c.buffer == d.buffer && c.dep_type.writes())
                    }) == Some(from.0)
            });
            assert_eq!(*flow, any_flow, "{what}: kind of {from:?} -> {t}");
            assert!(!only || *flow, "{what}: {from:?} -> {t} is flow only");
        }
        let mut got = region.readers_of(id).to_vec();
        got.sort_unstable();
        let mut want = readers[t].clone();
        want.sort_unstable();
        assert_eq!(got, want, "{what}: readers of task {t}'s versions");
    }
}

/// The core built for `dag` reads, task by task, what `edges` — the DAG's
/// edge list, `(from, to)` in its order — say grouped naively: each task's
/// successors in edge order, each with whether it may wait on its worker,
/// and its predecessors in edge order.
fn assert_core_views(dag: &impl TaskDag, edges: &[(usize, usize)], what: &str) {
    let tasks = dag.task_count();
    let plan = RuntimePlan { assignment: vec![1; tasks], window: 1 };
    let core = RuntimeCore::new(dag, &plan);
    for t in 0..tasks {
        let successors: Vec<(usize, bool)> = (edges.iter().filter(|&&(from, _)| from == t))
            .map(|&(_, to)| (to, dag.may_wait_on_worker(t, to)))
            .collect();
        let predecessors: Vec<usize> =
            edges.iter().filter(|&&(_, to)| to == t).map(|&(from, _)| from).collect();
        assert_eq!(core.successors(t), &successors[..], "{what}: task {t}'s successors");
        assert_eq!(core.predecessors(t), &predecessors[..], "{what}: task {t}'s predecessors");
    }
}

/// The edges of `region`, in its order.
fn region_edges(region: &RegionGraph) -> Vec<(usize, usize)> {
    region.edges().iter().map(|e| (e.from.0, e.to.0)).collect()
}

/// Seeded scheduler graphs — parallel edges, edges added out of task order
/// — and the workloads around them: the core reads what their edges say.
#[test]
fn the_cores_views_of_seeded_task_graphs_are_their_edges_grouped() {
    for seed in 0..40u64 {
        let rng = &mut Rng::new(seed);
        let workload = random_workload(rng);
        let mut edges: Vec<(usize, usize)> =
            workload.graph.edges().iter().map(|e| (e.from, e.to)).collect();
        assert_core_views(&workload, &edges, &format!("seed {seed}: workload"));
        let tasks = rng.range_usize(1, 40);
        let mut graph = TaskGraph::new();
        for _ in 0..tasks {
            graph.add_task(1e-3);
        }
        edges.clear();
        for _ in 0..rng.range_usize(0, 3 * tasks) {
            let (a, b) = (rng.range_usize(0, tasks), rng.range_usize(0, tasks));
            if a != b {
                let (from, to) = (a.min(b), a.max(b));
                graph.add_edge(from, to, 8);
                edges.push((from, to));
            }
        }
        assert_core_views(&graph, &edges, &format!("seed {seed}: task graph"));
    }
}

/// Every region this suite runs, built through the region graph's flat
/// tables — each workload as `run_workload` materializes it, and the shared
/// input region through `TargetRegion` — says what its dependences say: the
/// flat tables neither lose a clause nor carry one over to the next task.
#[test]
fn every_region_of_this_suite_has_the_edges_and_readers_its_dependences_say() {
    let seeds = (0..10u64).chain(1000..1006).chain(2000..2006);
    for seed in seeds {
        let workload = random_workload(&mut Rng::new(seed));
        let outputs: Vec<BufferId> =
            (0..workload.len() as u64).map(|t| BufferId(100 + t)).collect();
        let region = workload.region(KernelId(0), &outputs);
        let deps: Vec<Vec<Dependence>> = (0..workload.len())
            .map(|t| {
                let inputs =
                    workload.graph.predecessors(t).iter().map(|&p| Dependence::input(outputs[p]));
                std::iter::once(Dependence::output(outputs[t])).chain(inputs).collect()
            })
            .collect();
        assert_region_says(&region, &deps, &format!("seed {seed}"));
        assert_core_views(&region, &region_edges(&region), &format!("seed {seed}"));
        // The flow edges are the workload's own.
        let mut flows: Vec<(usize, usize)> = (region.edges().iter())
            .filter(|e| e.kind == EdgeKind::Flow)
            .map(|e| (e.from.0, e.to.0))
            .collect();
        let mut edges: Vec<(usize, usize)> =
            workload.graph.edges().iter().map(|e| (e.from, e.to)).collect();
        flows.sort_unstable();
        edges.sort_unstable();
        assert_eq!(flows, edges, "seed {seed}: flow edges");
    }

    let mut device = ClusterDevice::spawn(2);
    let scale = device.register_kernel_fn("scale", 1e-2, |_| {});
    let mut region = device.target_region();
    let shared = region.map_to_f64s(&[1.0; 16]);
    let mut passed = Vec::new();
    for i in 0..4 {
        let factor = region.map_to_f64s(&[(i + 1) as f64]);
        let out = region.map_alloc(8);
        let deps =
            vec![Dependence::input(shared), Dependence::input(factor), Dependence::output(out)];
        passed.push(deps.clone());
        region.target(scale, deps);
        region.map_from(out);
    }
    let graph = region.graph();
    let deps: Vec<Vec<Dependence>> =
        (0..graph.len()).map(|t| graph.dependences(TaskId(t)).to_vec()).collect();
    let targets = graph.tasks().iter().filter(|task| task.kind.is_target());
    let held: Vec<Vec<Dependence>> = targets.map(|task| deps[task.id.0].clone()).collect();
    assert_eq!(held, passed, "each target's clauses, as passed");
    assert_region_says(graph, &deps, "shared input region");
    assert_core_views(graph, &region_edges(graph), "shared input region");
    drop(region);
    device.shutdown();
}
