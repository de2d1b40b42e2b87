//! The simulator predicts what the cluster does: for the same seeded
//! workload and the same [`RuntimePlan`], the simulated backend and the
//! real message-passing cluster must make identical scheduling and
//! dispatch decisions — the acceptance bar of the unified `RuntimeCore` /
//! `ExecutionBackend` design — and the cluster's data-path optimisations
//! (task trains, async enter-data, broadcast trees) may change how bytes
//! move, never what moves where. The sweeps run under ompc-testutil's 120 s
//! watchdog so a protocol hang fails fast.

use ompc::prelude::*;
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
/// in a dependence-respecting order, under the configured window bound.
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
/// window, set-equality of the transfer plan (and a dependence-respecting
/// completion permutation) at a wide window — the same way on every run.
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

/// Asynchronous enter-data is a data-*timing* optimisation only: with
/// `enter_data_async` on, the cluster must produce the same region
/// assignments, the same outputs, and the same per-region transfer plans as
/// the synchronous reference — exact order at a serial window, set equality
/// at a wide one. This mirrors the task-train
/// batching matrix above: the async data path may overlap transfers with
/// anything, but it may never change what moves where.
#[test]
fn async_enter_data_matrix_is_equivalent() {
    /// Run the seeded enter/consume script: interleaved device-level
    /// enter-data calls (async when the flag is on) and single-reader
    /// regions consuming the entered buffers oldest first.
    fn enter_data_script(
        window: usize,
        enter_async: bool,
        seed: u64,
    ) -> (Vec<Vec<usize>>, Vec<Vec<TransferRecord>>, Vec<f64>) {
        let mut rng = Rng::new(seed);
        let workers = rng.range(2, 4) as usize;
        let config = OmpcConfig {
            enter_data_async: enter_async,
            max_inflight_tasks: window,
            ..OmpcConfig::small()
        };
        let mut device = ClusterDevice::with_config(workers, config);
        let sum = device.register_kernel_fn("sum", 1e-6, |args| {
            let total: f64 = args.as_f64s(0).iter().sum();
            args.set_f64s(1, &[total]);
        });
        let mut pending: Vec<BufferId> = Vec::new();
        let mut assignments = Vec::new();
        let mut transfers = Vec::new();
        let mut outputs = Vec::new();
        let mut consume = |device: &ClusterDevice, input: BufferId| {
            let mut region = device.target_region();
            let out = region.map_alloc(8);
            region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
            region.map_from(out);
            region.run().unwrap();
            let record = device.last_run_record().unwrap();
            assignments.push(record.assignment);
            transfers.push(record.transfers);
            outputs.push(device.buffer_f64s(out).unwrap()[0]);
        };
        for _ in 0..10 {
            if rng.range(0, 2) == 0 || pending.is_empty() {
                let len = rng.range(1, 6) as usize;
                let vals: Vec<f64> =
                    (0..len).map(|i| rng.range(0, 100) as f64 + i as f64).collect();
                // Routed through `enter_data_async` when the flag is on;
                // the first region reader awaits the in-flight transfer.
                pending.push(device.enter_data_f64s(&vals));
            } else {
                let input = pending.remove(0);
                consume(&device, input);
            }
        }
        while !pending.is_empty() {
            let input = pending.remove(0);
            consume(&device, input);
        }
        device.shutdown();
        (assignments, transfers, outputs)
    }

    with_timeout(WATCHDOG, || {
        for seed in 0..4u64 {
            for (window, strict) in [(1usize, true), (4, false)] {
                let baseline = enter_data_script(window, false, seed);
                let got = enter_data_script(window, true, seed);
                let tag = format!("seed {seed} window {window}");
                assert_eq!(baseline.0, got.0, "{tag}: region assignments");
                assert_eq!(baseline.2, got.2, "{tag}: region outputs");
                if strict {
                    assert_eq!(baseline.1, got.1, "{tag}: per-region transfer plan (exact order)");
                } else {
                    let sort = |regions: &[Vec<TransferRecord>]| -> Vec<Vec<TransferRecord>> {
                        regions
                            .iter()
                            .map(|r| {
                                let mut r = r.clone();
                                r.sort_by_key(|t| (t.buffer, t.from, t.to, t.bytes));
                                r
                            })
                            .collect()
                    };
                    assert_eq!(sort(&baseline.1), sort(&got.1), "{tag}: per-region transfer set");
                }
            }
        }
    });
}

/// Collective distribution is a data-*movement* optimisation only: with
/// broadcast trees on or off (and with or without chunked frames), the
/// cluster must produce the same region assignment, the same outputs, and
/// the same distribution *set* — each destination receives
/// the shared buffer exactly once, with the same size and reason — while
/// below-threshold and disabled configurations stay byte-identical to the
/// star baseline. The tree's visible signature is the head link: a star
/// sources every copy from the head, a binomial tree only ⌈log₂(k+1)⌉ of
/// them.
#[test]
fn collective_distribution_matrix_is_equivalent() {
    /// One shared read-only 8 KiB input consumed by four target tasks
    /// (each with a private scale factor), returning the region
    /// assignment, the region's transfer log, and the four outputs.
    fn collective_script(
        fanout: usize,
        chunk_kib: usize,
        window: usize,
    ) -> (Vec<usize>, Vec<TransferRecord>, Vec<f64>, BufferId) {
        let workers = 4;
        let config = OmpcConfig {
            collective_min_fanout: fanout,
            collective_chunk_kib: chunk_kib,
            max_inflight_tasks: window,
            ..OmpcConfig::small()
        };
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

    /// The distribution surface a tree may legally reshape: who received
    /// which buffer, how many bytes, and why — but not from where.
    fn distribution(transfers: &[TransferRecord]) -> Vec<(BufferId, usize, u64, TransferReason)> {
        let mut d: Vec<_> = transfers.iter().map(|t| (t.buffer, t.to, t.bytes, t.reason)).collect();
        d.sort_unstable();
        d
    }

    with_timeout(WATCHDOG, || {
        for (window, strict) in [(1usize, true), (4, false)] {
            let baseline = collective_script(0, 0, window);
            let (_, ref base_transfers, _, shared) = baseline;
            // The star baseline sources every copy of the shared buffer
            // from the head node — the serialization the tree removes.
            let star_head_edges =
                base_transfers.iter().filter(|t| t.buffer == shared && t.from == 0).count();
            let shared_dests: std::collections::BTreeSet<usize> =
                base_transfers.iter().filter(|t| t.buffer == shared).map(|t| t.to).collect();
            assert_eq!(
                shared_dests.len(),
                4,
                "window {window}: the script must spread the shared buffer to all four \
                 workers for the matrix to exercise a fanout-4 step: {base_transfers:?}"
            );
            assert_eq!(star_head_edges, 4, "window {window}: a star is head-sourced");

            for (fanout, chunk_kib) in [(0usize, 0usize), (9, 1), (2, 0), (2, 1)] {
                let got = collective_script(fanout, chunk_kib, window);
                let tag = format!("window {window} fanout {fanout} chunk {chunk_kib}");
                assert_eq!(baseline.0, got.0, "{tag}: region assignment");
                assert_eq!(baseline.2, got.2, "{tag}: task outputs");
                let collective_on = fanout > 0 && fanout <= 4;
                if !collective_on {
                    // Disabled or below threshold: the plan must be
                    // byte-identical to the star baseline — exact
                    // records (source included) at a serial window,
                    // the exact record set at a wide one.
                    if strict {
                        assert_eq!(baseline.1, got.1, "{tag}: transfer log (exact)");
                    } else {
                        let sort = |mut v: Vec<TransferRecord>| {
                            v.sort_by_key(|t| (t.buffer, t.from, t.to, t.bytes));
                            v
                        };
                        assert_eq!(
                            sort(baseline.1.clone()),
                            sort(got.1.clone()),
                            "{tag}: transfer-record set"
                        );
                    }
                    continue;
                }
                // Tree mode: same distribution set (every destination
                // exactly once, same bytes, same reason)...
                assert_eq!(
                    distribution(&baseline.1),
                    distribution(&got.1),
                    "{tag}: distribution set"
                );
                // ...but the head link now carries ⌈log₂ 5⌉ = 3 copies
                // instead of 4, and the remaining edge rides a
                // worker-to-worker relay.
                let head_edges = got.1.iter().filter(|t| t.buffer == shared && t.from == 0).count();
                let relay_edges: Vec<&TransferRecord> =
                    got.1.iter().filter(|t| t.buffer == shared && t.from != 0).collect();
                assert_eq!(head_edges, 3, "{tag}: tree head-link copies: {:?}", got.1);
                assert_eq!(relay_edges.len(), 1, "{tag}: one relay edge: {:?}", got.1);
                assert!(
                    shared_dests.contains(&relay_edges[0].from),
                    "{tag}: the relay edge must be fed by a fellow recipient: {:?}",
                    relay_edges[0]
                );
            }
        }
    });
}
