//! Integration tests of the fault-tolerance subsystem (paper §3.1): a
//! deterministically injected worker failure must be detected by the ring
//! heartbeat, its lost work re-executed on the survivors, and the final
//! results must be byte-identical to a failure-free run — on the simulator
//! and on the message-passing cluster, which must also agree on the
//! recovered task sets. The cluster tests run under ompc-testutil's 120 s
//! watchdog.

use ompc::prelude::*;
use ompc::sched::TaskGraph;
use ompc::sim::ClusterConfig;
use ompc_testutil::with_timeout;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(120);

fn fault_config(plan: FaultPlan) -> OmpcConfig {
    OmpcConfig { fault_plan: plan, ..OmpcConfig::small() }
}

/// Run the paper's Listing-1-style chain (`foo` then `bar` on one vector)
/// on a two-worker device, optionally killing `victim` right after its
/// `kill_after`-th task completion. Returns the final host buffer and the
/// run record.
fn run_listing1_chain(fault: Option<(usize, usize)>) -> (Vec<f64>, RunRecord) {
    let plan = match fault {
        Some((victim, kill_after)) => FaultPlan::none().fail_after_completions(victim, kill_after),
        None => FaultPlan::none(),
    };
    let mut device = ClusterDevice::with_config(2, fault_config(plan));
    let plus_one = device.register_kernel_fn("plus-one", 1e-5, |args| {
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
        args.set_f64s(0, &v);
    });
    let times_ten = device.register_kernel_fn("times-ten", 1e-5, |args| {
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 10.0).collect();
        args.set_f64s(0, &v);
    });
    let mut region = device.target_region();
    let a = region.map_to_f64s(&[1.0, 2.0, 3.0, 4.0]);
    region.target(plus_one, vec![Dependence::inout(a)]);
    region.target(times_ten, vec![Dependence::inout(a)]);
    region.map_from(a);
    region.run().unwrap();
    let result = device.buffer_f64s(a).unwrap();
    let record = device.last_run_record().expect("the device executed a region");
    device.shutdown();
    (result, record)
}

/// The backend-equivalence property under failure: for the same seeded
/// chain, the same explicit plan, and the same injected failure, the
/// simulator predicts the order the cluster retires tasks in and exactly
/// the task sets it recovers.
#[test]
fn backends_recover_the_same_tasks_from_the_same_failure() {
    with_timeout(WATCHDOG, || {
        let n = 8usize;
        let mut g = TaskGraph::new();
        for _ in 0..n {
            g.add_task(0.02);
        }
        for t in 1..n {
            g.add_edge(t - 1, t, 32 * 1024);
        }
        let workload = WorkloadGraph::new(g, vec![32 * 1024; n]);
        // First half of the chain on worker 1 (which dies after two
        // retirements), second half on worker 2.
        let assignment: Vec<NodeId> = (0..n).map(|t| if t < n / 2 { 1 } else { 2 }).collect();
        let mut config = fault_config(FaultPlan::none().fail_after_completions(1, 2));
        config.max_inflight_tasks = 1;
        let plan = RuntimePlan { assignment, window: config.inflight_window() };

        let (_, sim_record) = simulate_ompc_with_plan(
            &workload,
            &ClusterConfig::santos_dumont(3),
            &config,
            &OverheadModel::default(),
            &plan,
        )
        .unwrap();

        let mut device = ClusterDevice::with_config(2, config);
        let record = device.run_workload(&workload, &plan).unwrap();
        device.shutdown();
        let records = vec![("sim", sim_record), ("cluster", record)];

        for (name, record) in &records {
            assert_eq!(record.failures.len(), 1, "{name}: exactly one declared failure");
            assert_eq!(record.failures[0].node, 1, "{name}");
            // Every task's final retirement exists exactly once.
            let mut retired: Vec<usize> = record.completion_order.clone();
            retired.sort_unstable();
            retired.dedup();
            assert_eq!(retired, (0..n).collect::<Vec<_>>(), "{name}: every task must retire");
            // Recovery moves tasks only off a failed node.
            for entry in &record.replanned {
                let failed = record.failures.iter().any(|f| f.node == entry.from);
                assert!(failed, "{name}: {entry:?} moved a task off a live node");
            }
        }
        // The simulator predicts every recovery decision (timing aside).
        let (_, sim_record) = &records[0];
        for (name, record) in &records[1..] {
            assert_eq!(
                sim_record.completion_order, record.completion_order,
                "sim and {name} disagree on the retirement order under failure"
            );
            assert_eq!(
                sim_record.reexecuted, record.reexecuted,
                "sim and {name} disagree on the re-executed task set"
            );
            assert_eq!(
                sim_record.replanned, record.replanned,
                "sim and {name} disagree on the recovery reassignment"
            );
            assert_eq!(sim_record.assignment, record.assignment, "{name}");
            assert_eq!(sim_record.failures[0].lost_buffers, record.failures[0].lost_buffers);
            assert_eq!(sim_record.failures[0].lineage_tasks, record.failures[0].lineage_tasks);
            // The transfer plans agree too, failure included: the same
            // re-sourcing transfers are planned for the re-executed work
            // in every backend (input forwards compared — enter-data and
            // sink retrieval are modelled asymmetrically by design).
            assert_eq!(
                sim_record.transfers_with_reason(TransferReason::Input),
                record.transfers_with_reason(TransferReason::Input),
                "sim and {name} disagree on the transfer plan under failure"
            );
        }
        // The lost lineage (tasks 0 and 1 completed on the dead node) re-ran.
        assert!(sim_record.reexecuted.contains(&0) && sim_record.reexecuted.contains(&1));
    });
}

/// The fault surface end to end at the region level: the victim's event
/// loop dies for real mid-region, recovery re-executes the lost lineage on
/// the survivor through fresh composite task messages, and the final bytes
/// are identical to a failure-free run.
#[test]
fn mpi_region_survives_a_mid_region_failure_with_identical_buffers() {
    with_timeout(WATCHDOG, || {
        let (clean, clean_record) = run_listing1_chain(None);
        assert_eq!(clean, vec![20.0, 30.0, 40.0, 50.0]);
        assert!(clean_record.failures.is_empty());
        let victim = clean_record.assignment[1];
        assert!(victim >= 1, "foo must run on a worker");

        // Kill the victim after its second completion: enter-data and foo
        // have retired there, bar's work is lost mid-region.
        let (recovered, record) = run_listing1_chain(Some((victim, 2)));
        assert_eq!(recovered, clean, "recovery must reproduce the failure-free bytes");
        assert_eq!(record.failures.len(), 1);
        assert_eq!(record.failures[0].node, victim);
        assert!(record.failures[0].detected_at >= record.failures[0].silenced_at);
        assert!(record.failures[0].lost_buffers >= 1, "the chain's buffer died with the node");
        assert!(record.reexecuted.contains(&0) && record.reexecuted.contains(&1));
        assert!(!record.replanned.is_empty());
        assert!(record.replanned.iter().all(|r| r.from == victim && r.to != victim));
    });
}

/// A producer and its reader on a two-worker device, on device-resident
/// buffers (a region of these two tasks alone), optionally killing `victim`
/// right after its `kill_after`-th task completion: `b = a + 1`, then
/// `c = 10 b`. The reader depends on the producer through a flow dependence
/// only, so the core dispatches it once the producer's car is launched —
/// with or without a fault plan. Returns `c` and the run record.
fn run_held_pair(fault: Option<(usize, usize)>) -> (Vec<f64>, RunRecord) {
    let plan = match fault {
        Some((victim, kill_after)) => FaultPlan::none().fail_after_completions(victim, kill_after),
        None => FaultPlan::none(),
    };
    let mut device = ClusterDevice::with_config(2, fault_config(plan));
    let plus_one = device.register_kernel_fn("plus-one", 1e-5, |args| {
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
        args.set_f64s(1, &v);
    });
    let times_ten = device.register_kernel_fn("times-ten", 1e-5, |args| {
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 10.0).collect();
        args.set_f64s(1, &v);
    });
    let a = device.enter_data_f64s(&[1.0, 2.0, 3.0, 4.0]);
    let [b, c] = [0; 2].map(|_| device.enter_data_f64s(&[0.0; 4]));
    let mut region = device.target_region();
    region.target(plus_one, vec![Dependence::input(a), Dependence::output(b)]);
    region.target(times_ten, vec![Dependence::input(b), Dependence::output(c)]);
    region.run().unwrap();
    let result = device.buffer_f64s(c).unwrap();
    let record = device.last_run_record().expect("the device executed a region");
    device.shutdown();
    (result, record)
}

/// One dispatch rule under a fault plan: in a run whose producer's node
/// dies right after the producer retired, the reader was dispatched before
/// the producer retired — two tasks in flight in a region of two where one
/// depends on the other — and the bytes are those of a failure-free run.
#[test]
fn a_held_reader_survives_the_death_of_its_producers_node() {
    with_timeout(WATCHDOG, || {
        let (clean, clean_record) = run_held_pair(None);
        assert_eq!(clean, vec![20.0, 30.0, 40.0, 50.0]);
        assert_eq!(clean_record.peak_in_flight, 2, "{clean_record:?}");
        let (recovered, record) = run_held_pair(Some((clean_record.assignment[0], 1)));
        assert_eq!(recovered, clean, "recovery must reproduce the failure-free bytes");
        assert_eq!(record.failures.len(), 1, "{record:?}");
        assert_eq!(record.peak_in_flight, 2, "the reader was held behind its producer");
        assert!(record.reexecuted.contains(&0), "the producer's output died with it");
    });
}

/// Per-task blame inside a task train: one broken car must not poison its
/// siblings. With a single worker, a wide-open window and device-resident
/// inputs (no enter-data task for a target to wait behind), every task of
/// the region is ready at once and departs in one multi-car train; the
/// worker keeps the train rolling past the failing car, so the siblings
/// execute and the region surfaces the bad car's own typed error, blamed on
/// the worker that ran it.
#[test]
fn train_car_errors_blame_only_the_failing_task() {
    with_timeout(WATCHDOG, || {
        let config = OmpcConfig { max_inflight_tasks: 8, ..OmpcConfig::small() };
        let device = ClusterDevice::with_config(1, config);
        let counter = Arc::new(AtomicUsize::new(0));
        let count = {
            let counter = Arc::clone(&counter);
            device.register_kernel_fn("count", 1e-6, move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            })
        };
        let bogus = KernelId(424_242);
        let buffers: Vec<BufferId> = (0..5).map(|i| device.enter_data_f64s(&[i as f64])).collect();
        let mut region = device.target_region();
        region.target(count, vec![Dependence::inout(buffers[0])]);
        region.target(count, vec![Dependence::inout(buffers[1])]);
        region.target(bogus, vec![Dependence::inout(buffers[2])]);
        region.target(count, vec![Dependence::inout(buffers[3])]);
        region.target(count, vec![Dependence::inout(buffers[4])]);
        let err = region.run().unwrap_err();
        assert_eq!(err.root_cause(), &OmpcError::UnknownKernel(bogus), "got {err:?}");
        assert_eq!(err.origin_node(), Some(1), "blame stays on the car's own worker");
        assert_eq!(
            counter.load(Ordering::SeqCst),
            4,
            "the train rolled past the broken car: every sibling executed"
        );
    });
}

/// A node dying while a multi-car train is outstanding on it: the zombie
/// gate refuses the unretired cars individually, the head blames the node
/// (not the tasks), and recovery re-executes the lost work on the survivor.
#[test]
fn mid_train_node_death_recovers_on_the_survivors() {
    with_timeout(WATCHDOG, || {
        // Eight independent tasks, interleaved across both workers, window
        // wide open: with batching on, the whole assignment departs as two
        // multi-car trains. Node 1 dies right after its first retirement,
        // with the rest of its train still outstanding.
        let n = 8usize;
        let mut g = TaskGraph::new();
        for _ in 0..n {
            g.add_task(0.02);
        }
        let workload = WorkloadGraph::new(g, vec![4 * 1024; n]);
        let assignment: Vec<NodeId> = (0..n).map(|t| if t % 2 == 0 { 1 } else { 2 }).collect();
        let mut config = fault_config(FaultPlan::none().fail_after_completions(1, 1));
        config.max_inflight_tasks = n;
        let plan = RuntimePlan { assignment, window: config.inflight_window() };
        let mut device = ClusterDevice::with_config(2, config);
        let record = device.run_workload(&workload, &plan).unwrap();
        device.shutdown();

        assert_eq!(record.failures.len(), 1, "exactly one declared failure");
        assert_eq!(record.failures[0].node, 1);
        let mut retired: Vec<usize> = record.completion_order.clone();
        retired.sort_unstable();
        retired.dedup();
        assert_eq!(retired, (0..n).collect::<Vec<_>>(), "every task must still retire once");
        assert!(!record.replanned.is_empty(), "the dead node's cars moved somewhere");
        assert!(
            record.replanned.iter().all(|r| r.from == 1 && r.to == 2),
            "recovery must move work off the dead node onto the survivor: {:?}",
            record.replanned
        );
    });
}

#[test]
fn worker_less_cluster_is_rejected_with_a_clear_error() {
    let mut g = TaskGraph::new();
    g.add_task(0.01);
    let workload = WorkloadGraph::new(g, vec![1024]);
    let err = simulate_ompc(
        &workload,
        &ClusterConfig::santos_dumont(1),
        &OmpcConfig::default(),
        &OverheadModel::default(),
    )
    .unwrap_err();
    assert!(matches!(err, OmpcError::InvalidConfig(_)), "got {err:?}");
    assert!(err.to_string().contains("no worker nodes"), "unclear message: {err}");
}

#[test]
fn cancellation_stops_tasks_queued_behind_a_failure() {
    // A wide-open window: the failing task and every counting task are
    // dispatched together, the failing task first. Its failure propagates
    // before any counter's kernel could have run, and the run launches
    // nothing after it.
    let config = OmpcConfig { max_inflight_tasks: 256, ..OmpcConfig::small() };
    let device = ClusterDevice::with_config(2, config);
    let counter = Arc::new(AtomicUsize::new(0));
    let count = {
        let counter = Arc::clone(&counter);
        device.register_kernel_fn("count", 1e-6, move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        })
    };
    let noop = device.register_kernel_fn("noop", 1e-6, |_| {});

    let mut region = device.target_region();
    // The first task reads a buffer that was never mapped: its input
    // forwarding fails on the head node before the kernel can run.
    region.target(noop, vec![Dependence::input(BufferId(424_242))]);
    let buffers: Vec<BufferId> = (0..32).map(|i| region.map_to_f64s(&[i as f64])).collect();
    for &b in &buffers {
        region.target(count, vec![Dependence::inout(b)]);
    }
    let err = region.run().unwrap_err();
    assert!(matches!(err, OmpcError::UnknownBuffer(_)), "{err:?}");
    assert_eq!(
        counter.load(Ordering::SeqCst),
        0,
        "tasks queued behind the failed task must not execute"
    );
}

#[test]
fn cancellation_never_masks_the_root_cause_error() {
    // Many tasks in flight when one fails: the run surfaces that task's
    // own error, never a consequence of stopping the others.
    let config = OmpcConfig { max_inflight_tasks: 256, ..OmpcConfig::small() };
    let device = ClusterDevice::with_config(2, config);
    let noop = device.register_kernel_fn("noop", 1e-6, |_| {});
    let mut region = device.target_region();
    region.target(noop, vec![Dependence::input(BufferId(424_242))]);
    let buffers: Vec<BufferId> = (0..32).map(|i| region.map_to_f64s(&[i as f64])).collect();
    for &b in &buffers {
        region.target(noop, vec![Dependence::inout(b)]);
    }
    let err = region.run().unwrap_err();
    assert!(matches!(err, OmpcError::UnknownBuffer(_)), "root cause lost: {err:?}");
}

#[test]
fn explicit_plan_naming_a_long_dead_node_is_rejected_not_fake_completed() {
    with_timeout(WATCHDOG, || {
        // After node 1 dies in region 1 and its triggers are spent, a later
        // `run_workload` whose explicit plan still names node 1 must fail
        // up front with `InvalidConfig` — previously the dead-node branch
        // fake-completed the task (its kernel never ran) and, with no
        // remaining trigger, the core retired the lie as a genuine
        // completion.
        let config = fault_config(FaultPlan::none().fail_after_completions(1, 1));
        let mut device = ClusterDevice::with_config(2, config);
        let bump = device.register_kernel_fn("bump", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        // Region 1: node 1 dies after its first retirement; recovery
        // completes the region on node 2.
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(device.alive_workers(), vec![2]);

        // Region 2: an explicit plan naming the long-dead node 1.
        let mut g = TaskGraph::new();
        g.add_task(0.001);
        g.add_task(0.001);
        g.add_edge(0, 1, 64);
        let workload = WorkloadGraph::new(g, vec![64; 2]);
        let plan = RuntimePlan { assignment: vec![1, 2], window: 1 };
        let err = device.run_workload(&workload, &plan).unwrap_err();
        assert!(matches!(err, OmpcError::InvalidConfig(_)), "expected InvalidConfig, got {err:?}");
        assert!(err.to_string().contains("node 1"), "unclear message: {err}");

        // A plan over the survivors still runs.
        let plan = RuntimePlan { assignment: vec![2, 2], window: 1 };
        let record = device.run_workload(&workload, &plan).unwrap();
        assert_eq!(record.completion_order, vec![0, 1]);
        device.shutdown();
    });
}

#[test]
fn device_stays_usable_after_a_failure_in_an_earlier_region() {
    let (_, clean_record) = run_listing1_chain(None);
    let victim = clean_record.assignment[1];
    let plan = FaultPlan::none().fail_after_completions(victim, 2);
    let mut device = ClusterDevice::with_config(2, fault_config(plan));
    let bump = device.register_kernel_fn("bump", 1e-5, |args| {
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
        args.set_f64s(0, &v);
    });

    // Region 1: the victim dies mid-region; recovery completes the region.
    let mut region = device.target_region();
    let a = region.map_to_f64s(&[1.0, 2.0]);
    region.target(bump, vec![Dependence::inout(a)]);
    region.target(bump, vec![Dependence::inout(a)]);
    region.map_from(a);
    region.run().unwrap();
    assert_eq!(device.buffer_f64s(a).unwrap(), vec![3.0, 4.0]);
    assert_eq!(device.alive_workers(), vec![3 - victim], "one worker survived");

    // Region 2: planned exclusively over the survivor; the dead node stays
    // excommunicated for the rest of the device lifetime.
    let mut region = device.target_region();
    let b = region.map_to_f64s(&[10.0]);
    region.target(bump, vec![Dependence::inout(b)]);
    region.map_from(b);
    region.run().unwrap();
    assert_eq!(device.buffer_f64s(b).unwrap(), vec![11.0]);
    let record = device.last_run_record().unwrap();
    assert!(
        record.assignment.iter().all(|&n| n != victim),
        "region 2 must avoid the dead node: {:?}",
        record.assignment
    );
    device.shutdown();
}

/// Fault recovery under concurrent regions: a node dies while two
/// tenants are overlapped on one device. Only the tenant with tasks on
/// the victim is blamed and replanned; the untouched tenant's record
/// stays clean (no failures, no re-executions, no replans, no task on
/// the victim) and its bytes are identical to a failure-free run.
#[test]
fn node_death_during_overlapped_regions_blames_only_the_victim_tenant() {
    with_timeout(WATCHDOG, || {
        // Probe, fault-free: tenant A started first on an idle
        // three-worker device; deterministic HEFT places its chain on
        // the same node the real run will use — the victim.
        let run_tenant_a =
            |device: &ClusterDevice, chain: KernelId| -> (Vec<f64>, RegionReport, RunRecord) {
                let mut region = device.target_region();
                let a = region.map_to_f64s(&[1.0, 2.0]);
                region.target(chain, vec![Dependence::inout(a)]);
                region.target(chain, vec![Dependence::inout(a)]);
                region.map_from(a);
                let (report, record) = region.run_recorded().unwrap();
                (device.buffer_f64s(a).unwrap(), report, record)
            };
        let (clean_bytes, victim) = {
            let mut device = ClusterDevice::with_config(3, fault_config(FaultPlan::none()));
            // Big hints so the load-aware planner sees tenant A's
            // reservation; the closures themselves are instant.
            let chain = device.register_kernel_fn("chain", 10.0, |args| {
                let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
                args.set_f64s(0, &v);
            });
            let (bytes, _, record) = run_tenant_a(&device, chain);
            let victim = record.assignment[1];
            assert!(victim >= 1, "tenant A's chain runs on a worker");
            device.shutdown();
            (bytes, victim)
        };

        // Real run: the victim dies after tenant A's enter-data and
        // first kernel retire there; tenant B starts mid-flight
        // (the first kernel signals through the channel before the
        // death is declared) and planned around A's reserved load.
        let plan = FaultPlan::none().fail_after_completions(victim, 2);
        let mut device = ClusterDevice::with_config(3, fault_config(plan));
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let started_tx = std::sync::Mutex::new(started_tx);
        let chain = device.register_kernel_fn("chain", 10.0, move |args| {
            let _ = started_tx.lock().unwrap().send(());
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let bump = device.register_kernel_fn("bump", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let (b_bytes, b_report, b_record) = std::thread::scope(|scope| {
            let device_ref = &device;
            let tenant_a = scope.spawn(move || run_tenant_a(device_ref, chain));

            // Admit tenant B only once tenant A's first kernel is
            // executing on the victim, so the regions truly overlap.
            started_rx.recv().unwrap();
            let mut region = device.target_region();
            let b = region.map_to_f64s(&[10.0]);
            region.target(bump, vec![Dependence::inout(b)]);
            region.map_from(b);
            let (report, record) = region.run_recorded().unwrap();
            let bytes = device.buffer_f64s(b).unwrap();

            let (a_bytes, a_report, a_record) = tenant_a.join().unwrap();
            // Tenant A: blamed, replanned off the victim, recovered to
            // the failure-free bytes.
            assert_eq!(a_bytes, clean_bytes, "tenant A must recover");
            assert_eq!(a_record.failures.len(), 1);
            assert_eq!(a_record.failures[0].node, victim);
            assert!(!a_record.reexecuted.is_empty());
            assert!(
                a_record.replanned.iter().all(|r| r.from == victim && r.to != victim),
                "recovery must move tenant A off the victim: {:?}",
                a_record.replanned
            );
            assert_ne!(a_report.region, report.region);
            (bytes, report, record)
        });
        device.shutdown();

        // Tenant B: untouched. Same bytes as a failure-free run of the
        // same region, no blame, no re-execution, no replanning, and
        // no task ever placed on the victim.
        assert_eq!(b_bytes, vec![11.0], "tenant B's bytes changed");
        assert_ne!(b_report.region, 0);
        assert!(
            b_record.failures.is_empty(),
            "the untouched tenant was blamed: {:?}",
            b_record.failures
        );
        assert!(b_record.reexecuted.is_empty());
        assert!(b_record.replanned.is_empty());
        assert!(
            b_record.assignment.iter().all(|&n| n != victim),
            "tenant B was planned onto the victim: {:?}",
            b_record.assignment
        );
    });
}
