//! Integration tests of the experiment pipeline: Task Bench → runtimes →
//! figure shapes. These run reduced versions of the paper's experiments and
//! assert the qualitative results the paper reports.

use ompc::baselines::{
    block_assignment, BaselineRuntime, CharmRuntime, MpiSyncRuntime, StarPuRuntime,
};
use ompc::prelude::*;
use ompc::sim::{ClusterConfig, NetworkConfig};
use ompc::taskbench::{generate_workload, DependencePattern, TaskBenchConfig};

fn ompc_time(workload: &WorkloadGraph, nodes: usize, config: &OmpcConfig) -> f64 {
    simulate_ompc(workload, &ClusterConfig::santos_dumont(nodes), config, &OverheadModel::default())
        .unwrap()
        .makespan
        .as_secs_f64()
}

fn baseline_time(
    runtime: &dyn BaselineRuntime,
    workload: &WorkloadGraph,
    cfg: &TaskBenchConfig,
    nodes: usize,
) -> f64 {
    runtime
        .run(
            workload,
            &ClusterConfig::santos_dumont(nodes),
            &block_assignment(cfg.width, cfg.steps, nodes),
        )
        .makespan
        .as_secs_f64()
}

/// Figure 5's qualitative ordering at 16 nodes, reduced task duration:
/// MPI <= StarPU <= OMPC < Charm++ for the communication-bearing patterns.
#[test]
fn figure5_ordering_holds_at_16_nodes() {
    let nodes = 16;
    for pattern in [DependencePattern::Stencil1D, DependencePattern::Fft, DependencePattern::Tree] {
        let mut cfg = TaskBenchConfig::new(pattern, 2 * nodes, 8, 10_000_000, 0);
        cfg.output_bytes = cfg.bytes_for_ccr(1.0, &NetworkConfig::infiniband());
        let workload = generate_workload(&cfg);
        let ompc = ompc_time(&workload, nodes, &OmpcConfig::default());
        let mpi = baseline_time(&MpiSyncRuntime::new(), &workload, &cfg, nodes);
        let starpu = baseline_time(&StarPuRuntime::new(), &workload, &cfg, nodes);
        let charm = baseline_time(&CharmRuntime::new(), &workload, &cfg, nodes);
        assert!(mpi <= starpu * 1.05, "{pattern}: MPI {mpi} vs StarPU {starpu}");
        assert!(starpu <= ompc * 1.05, "{pattern}: StarPU {starpu} vs OMPC {ompc}");
        assert!(ompc < charm, "{pattern}: OMPC {ompc} must beat Charm {charm}");
    }
}

/// Figure 6's qualitative behaviour: Charm++ degrades much faster than OMPC
/// when the CCR drops (communication grows), while OMPC tracks StarPU/MPI
/// within a bounded factor.
#[test]
fn figure6_charm_collapse_at_low_ccr() {
    let nodes = 16;
    let time_at_ccr = |ccr: f64| {
        let mut cfg = TaskBenchConfig::new(DependencePattern::Stencil1D, 16, 8, 50_000_000, 0);
        cfg.output_bytes = cfg.bytes_for_ccr(ccr, &NetworkConfig::infiniband());
        let workload = generate_workload(&cfg);
        (
            ompc_time(&workload, nodes, &OmpcConfig::default()),
            baseline_time(&CharmRuntime::new(), &workload, &cfg, nodes),
            baseline_time(&MpiSyncRuntime::new(), &workload, &cfg, nodes),
        )
    };
    let (ompc_high, charm_high, _) = time_at_ccr(2.0);
    let (ompc_low, charm_low, mpi_low) = time_at_ccr(0.5);
    // Dropping the CCR hurts Charm++ more than OMPC.
    let charm_degradation = charm_low / charm_high;
    let ompc_degradation = ompc_low / ompc_high;
    assert!(
        charm_degradation > ompc_degradation,
        "Charm++ degradation {charm_degradation} must exceed OMPC's {ompc_degradation}"
    );
    // And OMPC stays within a sane factor of the MPI best case (the paper
    // reports 1.4x–2.9x).
    assert!(ompc_low / mpi_low < 3.5);
}

/// The weak-scaling trend of Fig. 5: OMPC's execution time grows once the
/// graph width exceeds the head node's in-flight capacity, while the
/// MPI baseline stays nearly flat.
#[test]
fn figure5_ompc_degrades_beyond_in_flight_capacity() {
    let run_at = |nodes: usize| {
        let cfg = {
            let mut c =
                TaskBenchConfig::new(DependencePattern::Trivial, 2 * nodes, 8, 10_000_000, 0);
            c.output_bytes = 0;
            c
        };
        let workload = generate_workload(&cfg);
        (
            ompc_time(&workload, nodes, &OmpcConfig::default()),
            baseline_time(&MpiSyncRuntime::new(), &workload, &cfg, nodes),
        )
    };
    let (ompc_small, mpi_small) = run_at(8);
    let (ompc_large, mpi_large) = run_at(64);
    let ompc_growth = ompc_large / ompc_small;
    let mpi_growth = mpi_large / mpi_small;
    assert!(
        ompc_growth > mpi_growth * 1.3,
        "OMPC weak-scaling degradation ({ompc_growth}) must exceed MPI's ({mpi_growth})"
    );
}

/// Removing the in-flight limit (the paper's proposed libomptarget fix)
/// recovers most of the lost scalability.
#[test]
fn lifting_the_in_flight_limit_restores_scalability() {
    let nodes = 64;
    let cfg = TaskBenchConfig::new(DependencePattern::Trivial, 2 * nodes, 8, 10_000_000, 0);
    let workload = generate_workload(&cfg);
    let limited = ompc_time(&workload, nodes, &OmpcConfig::default());
    let unlimited_cfg = OmpcConfig { max_inflight_tasks: usize::MAX, ..OmpcConfig::default() };
    let unlimited = ompc_time(&workload, nodes, &unlimited_cfg);
    assert!(
        unlimited < limited * 0.6,
        "lifting the limit should cut the 64-node trivial makespan substantially \
         (limited {limited}, unlimited {unlimited})"
    );
}

/// The data manager's worker-to-worker forwarding is worth a measurable
/// amount on communication-heavy graphs (paper §4.3).
#[test]
fn forwarding_beats_staging_through_the_head() {
    let nodes = 16;
    let mut cfg = TaskBenchConfig::new(DependencePattern::Stencil1D, 16, 8, 10_000_000, 0);
    cfg.output_bytes = cfg.bytes_for_ccr(1.0, &NetworkConfig::infiniband());
    let workload = generate_workload(&cfg);
    let forwarding = ompc_time(&workload, nodes, &OmpcConfig::default());
    let staged_model =
        OverheadModel { worker_to_worker_forwarding: false, ..OverheadModel::default() };
    let staged = simulate_ompc(
        &workload,
        &ClusterConfig::santos_dumont(nodes),
        &OmpcConfig::default(),
        &staged_model,
    )
    .unwrap()
    .makespan
    .as_secs_f64();
    assert!(
        staged > forwarding * 1.1,
        "staging through the head ({staged}) must be noticeably slower than forwarding ({forwarding})"
    );
}

/// Heartbeat fault tolerance: a failed worker is detected and its tasks are
/// re-planned onto the survivors.
#[test]
fn heartbeat_detects_failure_and_replans() {
    use ompc::runtime::heartbeat::{plan_recovery, HeartbeatMonitor, NodeHealth};

    let mut monitor = HeartbeatMonitor::new(5, 100, 3);
    for t in (0..=1000).step_by(100) {
        for node in 0..5 {
            if node != 3 || t < 300 {
                monitor.record_heartbeat(node, t);
            }
        }
    }
    let failed = monitor.check(1000);
    assert_eq!(failed, vec![3]);
    assert_eq!(monitor.health(3), NodeHealth::Failed);

    // Node 3's tasks move to surviving workers.
    let assignment = vec![1, 2, 3, 4, 3, 1];
    let alive: Vec<usize> = monitor.alive_nodes().into_iter().filter(|&n| n != 0).collect();
    let plan = plan_recovery(&assignment, &failed, &alive);
    assert_eq!(plan.len(), 2);
    for (&task, &node) in &plan {
        assert!(assignment[task] == 3 && node != 3);
    }
}
