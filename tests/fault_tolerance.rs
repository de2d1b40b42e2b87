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

#[test]
fn region_recovers_with_full_replan_too() {
    let (clean, clean_record) = run_listing1_chain(None);
    let victim = clean_record.assignment[1];
    let plan = FaultPlan::none().fail_after_completions(victim, 2);
    let config = OmpcConfig { replan_on_failure: true, ..fault_config(plan) };
    let mut device = ClusterDevice::with_config(2, config);
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
    assert_eq!(device.buffer_f64s(a).unwrap(), clean);
    let record = device.last_run_record().unwrap();
    assert_eq!(record.failures.len(), 1);
    assert!(record.replanned.iter().all(|r| r.to != victim), "HEFT replan avoids the dead node");
    device.shutdown();
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

/// Fault recovery under concurrent admission: a node dies while two
/// tenants are overlapped on one device. Only the tenant with tasks on
/// the victim is blamed and replanned; the untouched tenant's record
/// stays clean (no failures, no re-executions, no replans, no task on
/// the victim) and its bytes are identical to a failure-free run.
#[test]
fn node_death_during_overlapped_regions_blames_only_the_victim_tenant() {
    with_timeout(WATCHDOG, || {
        // Probe, fault-free: tenant A admitted first on an idle
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
        // first kernel retire there; tenant B is admitted mid-flight
        // (the first kernel signals through the channel before the
        // death is declared) and planned around A's reserved load.
        let plan = FaultPlan::none().fail_after_completions(victim, 2);
        let config = OmpcConfig { max_concurrent_regions: 2, ..fault_config(plan) };
        let mut device = ClusterDevice::with_config(3, config);
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

/// The async data path's failure interaction: a node dies while an
/// `enter_data_async` transfer towards it is still in flight. The booking
/// must roll back — the ticket reports the failure instead of hanging —
/// the next consumer re-sources the bytes from a survivor, and the aborted
/// movement is withdrawn from the transfer accounting so nothing is
/// double-counted. The device's hold gate freezes the transfer job
/// deterministically while the fault fires.
#[test]
fn prefetch_in_flight_node_death_rolls_back_and_resources() {
    with_timeout(WATCHDOG, || {
        // Probe run, fault-free: a single-reader region has exactly the
        // shape of the async entry point's prediction probe, so its
        // placement IS the predicted destination — the node to kill.
        let register_sum = |device: &ClusterDevice| {
            device.register_kernel_fn("sum", 1e-6, |args| {
                let total: f64 = args.as_f64s(0).iter().sum();
                args.set_f64s(1, &[total]);
            })
        };
        let victim = {
            let mut device = ClusterDevice::with_config(2, fault_config(FaultPlan::none()));
            let sum = register_sum(&device);
            let input = device.enter_data_f64s(&[7.0, 8.0, 9.0]);
            let mut region = device.target_region();
            let out = region.map_alloc(8);
            region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
            region.run().unwrap();
            let record = device.last_run_record().unwrap();
            let node = *record.assignment.iter().find(|&&n| n >= 1).unwrap();
            device.shutdown();
            node
        };

        // Real run: freeze the wire, book the async enter-data towards the
        // predicted victim, then kill the victim under a sacrificial
        // region that never touches the in-flight buffer.
        let plan = FaultPlan::none().fail_after_completions(victim, 1);
        let mut device = ClusterDevice::with_config(2, fault_config(plan));
        let sum = register_sum(&device);
        let bump = device.register_kernel_fn("bump", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        device.debug_hold_async_transfers(true);
        let (buffer, ticket) = device.enter_data_async_f64s(&[7.0, 8.0, 9.0]);

        let mut region = device.target_region();
        for _ in 0..4 {
            let b = region.map_to_f64s(&[1.0]);
            region.target(bump, vec![Dependence::inout(b)]);
            region.map_from(b);
        }
        region.run().unwrap();
        let record = device.last_run_record().unwrap();
        assert_eq!(record.failures.len(), 1, "the victim must die during the sacrifice");
        assert_eq!(record.failures[0].node, victim);

        // Release the frozen job: it observes the death and rolls the
        // booking back without touching the wire; the ticket reports the
        // failure instead of blocking forever.
        device.debug_hold_async_transfers(false);
        let error =
            device.await_transfer(ticket).expect_err("a prefetch towards a dead node must fail");
        assert_eq!(
            error.origin_node(),
            Some(victim),
            "the rollback must blame the dead node, got {error:?}"
        );

        // The consuming region re-sources the bytes from the survivors:
        // correct result, exactly one Input transfer of the buffer — the
        // aborted movement is not in the log, so nothing double-counts.
        device.take_unattributed_transfers();
        let mut region = device.target_region();
        let out = region.map_alloc(8);
        region.target(sum, vec![Dependence::input(buffer), Dependence::output(out)]);
        region.map_from(out);
        region.run().unwrap();
        assert_eq!(device.buffer_f64s(out).unwrap(), vec![24.0]);
        let record = device.last_run_record().unwrap();
        let moved: Vec<&TransferRecord> =
            record.transfers.iter().filter(|t| t.buffer == buffer).collect();
        assert_eq!(
            moved.len(),
            1,
            "the buffer must cross the wire exactly once after the rollback: {moved:?}"
        );
        assert_eq!(moved[0].reason, TransferReason::Input);
        assert_eq!(moved[0].bytes, 24, "three f64s");
        assert!(
            moved[0].to != victim && moved[0].from != victim,
            "re-sourcing must avoid the dead node: {:?}",
            moved[0]
        );
        assert!(
            device.take_unattributed_transfers().iter().all(|t| t.buffer != buffer),
            "no stray transfer record of the aborted prefetch may remain"
        );
        device.shutdown();
    });
}

/// A relay node dying mid-broadcast: with collectives on, a region's
/// shared input is booked as ONE binomial tree over four destinations —
/// the lowest-numbered destination is the tree's only interior relay,
/// responsible for forwarding the payload to one subtree child. The
/// device's hold gate freezes the broadcast job while the wall-clock
/// fault kills that relay; on release, the relay's gate refuses its
/// event, and the broadcast must rescue exactly the undelivered subtree
/// from a recipient that already acknowledged the payload — delivered
/// nodes are not re-sent, the dead node's booking rolls back, and the
/// region's log records the true per-edge bytes, rescue edge included.
#[test]
fn relay_node_death_mid_broadcast_rescues_the_undelivered_subtree() {
    with_timeout(WATCHDOG, || {
        let collective_config = |plan: FaultPlan| OmpcConfig {
            enter_data_async: true,
            collective_min_fanout: 2,
            collective_chunk_kib: 1,
            max_inflight_tasks: 8,
            ..fault_config(plan)
        };
        let register_scale = |device: &ClusterDevice| {
            device.register_kernel_fn("scale", 1e-2, |args| {
                let total: f64 = args.as_f64s(0).iter().sum();
                let factor = args.as_f64s(1)[0];
                args.set_f64s(2, &[total * factor]);
            })
        };
        // The broadcast region: one shared 8 KiB read-only input, four
        // readers with private factors. Returns the shared buffer, the
        // outputs, and the run record.
        let run_broadcast_region =
            |device: &ClusterDevice, scale: KernelId| -> (BufferId, Vec<f64>, RunRecord) {
                let mut region = device.target_region();
                let vals: Vec<f64> = (0..1024).map(|i| i as f64).collect();
                let shared = region.map_to_f64s(&vals);
                let mut outs = Vec::new();
                for i in 0..4 {
                    let factor = region.map_to_f64s(&[(i + 1) as f64]);
                    let out = region.map_alloc(8);
                    region.target(
                        scale,
                        vec![
                            Dependence::input(shared),
                            Dependence::input(factor),
                            Dependence::output(out),
                        ],
                    );
                    region.map_from(out);
                    outs.push(out);
                }
                region.run().unwrap();
                let record = device.last_run_record().unwrap();
                let outputs = outs.iter().map(|&o| device.buffer_f64s(o).unwrap()[0]).collect();
                (shared, outputs, record)
            };
        let total: f64 = (0..1024).map(|i| i as f64).sum();
        let clean: Vec<f64> = (1..=4).map(|i| total * i as f64).collect();

        // Probe, fault-free: discover the tree. The booking iterates
        // destinations in ascending node order, so over destinations
        // [d0, d1, d2, d3] the head feeds d0, d1, d3 and the relay d0
        // feeds d2 — d0 is the node whose death orphans a subtree.
        let dests: Vec<usize> = {
            let mut device = ClusterDevice::with_config(4, collective_config(FaultPlan::none()));
            let scale = register_scale(&device);
            let (shared, outputs, record) = run_broadcast_region(&device, scale);
            device.shutdown();
            assert_eq!(outputs, clean, "probe outputs");
            let edges: Vec<&TransferRecord> =
                record.transfers.iter().filter(|t| t.buffer == shared).collect();
            let mut dests: Vec<usize> = edges.iter().map(|t| t.to).collect();
            dests.sort_unstable();
            assert_eq!(
                dests,
                vec![1, 2, 3, 4],
                "the script must reach all four workers in one planning step: {edges:?}"
            );
            let relayed: Vec<&&TransferRecord> = edges.iter().filter(|t| t.from != 0).collect();
            assert_eq!(relayed.len(), 1, "probe: one relay edge: {edges:?}");
            assert_eq!(
                (relayed[0].from, relayed[0].to),
                (dests[0], dests[2]),
                "probe: the lowest destination relays to its binomial child: {edges:?}"
            );
            dests
        };
        let (victim, orphan) = (dests[0], dests[2]);

        // Real run: freeze the broadcast job and kill the relay on its
        // first completion. With every data-carrying task parked on a held
        // booking, the only runnable work on the victim is its reader's
        // alloc task — which retires within milliseconds of admission, so
        // the trigger fires while the broadcast is still frozen.
        let plan = FaultPlan::none().fail_after_completions(victim, 1);
        let mut device = ClusterDevice::with_config(4, collective_config(plan));
        let scale = register_scale(&device);
        device.debug_hold_async_transfers(true);
        let (shared, outputs, record) = std::thread::scope(|scope| {
            let device_ref = &device;
            let run = scope.spawn(move || run_broadcast_region(device_ref, scale));
            // The kill fires at the victim's first retirement; the ring
            // heartbeat declares the silent relay a few periods later.
            // Release the frozen tree only after the death has landed.
            std::thread::sleep(Duration::from_millis(700));
            device_ref.debug_hold_async_transfers(false);
            run.join().unwrap()
        });
        device.shutdown();

        assert_eq!(outputs, clean, "the region must recover the failure-free bytes");
        assert_eq!(record.failures.len(), 1, "exactly one declared failure");
        assert_eq!(record.failures[0].node, victim);

        let edges: Vec<&TransferRecord> =
            record.transfers.iter().filter(|t| t.buffer == shared).collect();
        // The dead relay's booking rolled back; every survivor received
        // the payload exactly once (no re-sends), with exact wire bytes.
        let mut delivered_to: Vec<usize> = edges.iter().map(|t| t.to).collect();
        delivered_to.sort_unstable();
        assert_eq!(
            delivered_to,
            dests.iter().copied().filter(|&n| n != victim).collect::<Vec<_>>(),
            "survivors exactly once, victim rolled back: {edges:?}"
        );
        assert!(
            edges.iter().all(|t| t.bytes == 8192),
            "each edge carries the full 8 KiB payload: {edges:?}"
        );
        // The orphaned subtree was re-sourced from a surviving recipient —
        // not from the head, and certainly not from the corpse.
        let rescue = edges.iter().find(|t| t.to == orphan).expect("the orphan was delivered");
        assert!(
            rescue.from != 0 && rescue.from != victim && delivered_to.contains(&rescue.from),
            "the rescue edge must come from a surviving recipient: {rescue:?}"
        );
        // The head-fed subtree roots kept their planned edges.
        for t in edges.iter().filter(|t| t.to != orphan) {
            assert_eq!(t.from, 0, "direct subtree roots stay head-fed: {t:?}");
        }
    });
}
