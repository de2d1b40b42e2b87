//! Integration tests of the error-aware event protocol: a worker-side
//! handler failure (unregistered kernel, injected task error) or a worker
//! death mid-run must surface as a propagated `OmpcError` from both
//! execution backends (the simulator and the message-passing cluster)
//! within bounded time — never as a head-side hang — and the simulator must
//! predict the decision record of the failed run. Every test body runs
//! under a 120 s watchdog so any future protocol hang fails fast instead
//! of wedging the suite.

use ompc::prelude::*;
use ompc::sched::TaskGraph;
use ompc::sim::ClusterConfig;
use ompc_testutil::with_timeout;
use std::time::Duration;

/// Per-test watchdog: generous for slow CI, tiny next to a wedged job.
const WATCHDOG: Duration = Duration::from_secs(120);

fn chain_workload(n: usize, cost: f64, bytes: u64) -> WorkloadGraph {
    let mut g = TaskGraph::new();
    for _ in 0..n {
        g.add_task(cost);
    }
    for t in 1..n {
        g.add_edge(t - 1, t, bytes);
    }
    WorkloadGraph::new(g, vec![bytes; n])
}

#[test]
fn unregistered_kernel_errors_all_backends_with_equivalent_records() {
    with_timeout(WATCHDOG, || {
        // A 6-task chain alternating between two workers; task 3's
        // execution is forced to fail at the protocol layer (the cluster
        // executes a genuinely unregistered kernel, the simulated backend
        // models the same failed reply).
        let n = 6usize;
        let workload = chain_workload(n, 0.002, 1024);
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().error_on_task(3),
            max_inflight_tasks: 1,
            ..OmpcConfig::small()
        };
        let assignment: Vec<NodeId> = (0..n).map(|t| 1 + t % 2).collect();
        let plan = RuntimePlan { assignment, window: config.inflight_window() };

        let outcome = simulate_ompc_outcome(
            &workload,
            &ClusterConfig::santos_dumont(3),
            &config,
            &OverheadModel::default(),
            Some(&plan),
        );
        let sim_record = outcome.record;
        let sim_err = outcome.result.unwrap_err();
        assert!(
            matches!(sim_err.root_cause(), OmpcError::UnknownKernel(_)),
            "sim: expected an unknown-kernel root cause, got {sim_err:?}"
        );
        assert_eq!(sim_err.origin_node(), Some(plan.assignment[3]), "sim blames the wrong node");

        let mut device = ClusterDevice::with_config(2, config);
        let err = device.run_workload(&workload, &plan).unwrap_err();
        assert!(
            matches!(err.root_cause(), OmpcError::UnknownKernel(_)),
            "expected an unknown-kernel root cause, got {err:?}"
        );
        assert_eq!(err.origin_node(), Some(plan.assignment[3]));
        let record = device.last_run_record().expect("failed runs keep their record");
        device.shutdown();

        // The simulator predicts the record of the failed run: identical
        // dispatches and identical completions before the propagated error.
        assert_eq!(sim_record.completion_order, vec![0, 1, 2]);
        assert_eq!(sim_record.completion_order, record.completion_order);
        assert_eq!(sim_record.dispatch_order, record.dispatch_order);
        assert_eq!(sim_record.assignment, record.assignment);
        assert!(record.failures.is_empty());
        assert!(sim_record.failures.is_empty());
    });
}

#[test]
fn unregistered_kernel_in_a_target_region_is_an_error_not_a_hang() {
    with_timeout(WATCHDOG, || {
        // Offload a kernel id that was never registered: the worker's
        // handler fails, and the typed error reply propagates out of
        // `TargetRegion::run` attributing the executing node.
        let mut device = ClusterDevice::spawn(2);
        let bogus = KernelId(424_242);
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0, 2.0]);
        region.target(bogus, vec![Dependence::inout(a)]);
        region.map_from(a);
        let err = region.run().unwrap_err();
        assert_eq!(err.root_cause(), &OmpcError::UnknownKernel(bogus), "got {err:?}");
        let node = err.origin_node().expect("the error names the failing node");
        assert!((1..=2).contains(&node), "blamed node {node} is not a worker");
        device.shutdown();
    });
}

#[test]
fn mid_run_death_of_the_only_worker_errors_all_backends_in_bounded_time() {
    with_timeout(WATCHDOG, || {
        // The only worker dies after its second retirement, with work (and
        // its data) still on it: nothing can recover, so both backends
        // must report `NodeFailure` — the cluster kills the worker's event
        // loop for real, so this also proves the killed node's error replies
        // keep the head from hanging (the zombie gate answers composite task
        // messages with typed refusals).
        let n = 6usize;
        let workload = chain_workload(n, 0.002, 1024);
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().fail_after_completions(1, 2),
            max_inflight_tasks: 1,
            ..OmpcConfig::small()
        };
        let plan = RuntimePlan { assignment: vec![1; n], window: config.inflight_window() };

        let outcome = simulate_ompc_outcome(
            &workload,
            &ClusterConfig::santos_dumont(2),
            &config,
            &OverheadModel::default(),
            Some(&plan),
        );
        let sim_record = outcome.record;
        assert_eq!(outcome.result.unwrap_err(), OmpcError::NodeFailure(1));
        assert_eq!(sim_record.completion_order, vec![0, 1]);
        assert_eq!(sim_record.failures.len(), 1);
        assert_eq!(sim_record.failures[0].node, 1);

        let mut device = ClusterDevice::with_config(1, config);
        let err = device.run_workload(&workload, &plan).unwrap_err();
        assert_eq!(err, OmpcError::NodeFailure(1));
        let record = device.last_run_record().unwrap();
        device.shutdown();

        // Equivalent decision records (fault-clock timestamps aside): the
        // same completions retired before the death, the same failure
        // declared, the same tasks caught by the lineage/restart machinery.
        assert_eq!(sim_record.completion_order, record.completion_order);
        assert_eq!(record.failures.len(), 1);
        assert_eq!(record.failures[0].node, 1);
        assert_eq!(sim_record.failures[0].lost_buffers, record.failures[0].lost_buffers);
        assert_eq!(sim_record.failures[0].lineage_tasks, record.failures[0].lineage_tasks);
        assert_eq!(sim_record.reexecuted, record.reexecuted);
        assert_eq!(sim_record.assignment, record.assignment);
    });
}

#[test]
fn device_survives_a_task_error_and_reuses_its_long_lived_pool() {
    with_timeout(WATCHDOG, || {
        // Region 1 fails with a worker-side handler error; region 2 on the
        // same device must still run to completion on the same long-lived
        // workers (no stale work from the failed region bleeds in).
        let mut device = ClusterDevice::spawn(2);
        let bump = device.register_kernel_fn("bump", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });

        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0]);
        region.target(KernelId(999_999), vec![Dependence::inout(a)]);
        region.map_from(a);
        let err = region.run().unwrap_err();
        assert!(matches!(err.root_cause(), OmpcError::UnknownKernel(_)));

        let mut region = device.target_region();
        let b = region.map_to_f64s(&[10.0, 20.0]);
        region.target(bump, vec![Dependence::inout(b)]);
        region.map_from(b);
        region.run().unwrap();
        assert_eq!(device.buffer_f64s(b).unwrap(), vec![11.0, 21.0]);
        device.shutdown();
    });
}

#[test]
fn host_task_panic_is_the_same_typed_error_on_both_real_backends() {
    with_timeout(WATCHDOG, || {
        // The host body runs inside the lowering, so a panic in it is caught
        // in one place: an ordinary typed task failure (a queued successor
        // is never launched), which leaves the device usable for the next
        // region.
        let config = OmpcConfig { max_inflight_tasks: 1, ..OmpcConfig::small() };
        let mut device = ClusterDevice::with_config(2, config);
        let bump = device.register_kernel_fn("bump", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });

        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        let host = region.host_task(vec![Dependence::input(a)], |_| panic!("host body bug"));
        region.map_from(a);
        let err = region.run().unwrap_err();
        assert_eq!(
            err,
            OmpcError::Internal(format!("host task {} panicked", host.0)),
            "a host-task panic must be this typed error"
        );
        let record = device.last_run_record().expect("failed runs keep their record");
        assert!(!record.completion_order.contains(&host.0));

        let mut region = device.target_region();
        let b = region.map_to_f64s(&[10.0, 20.0]);
        region.target(bump, vec![Dependence::inout(b)]);
        region.map_from(b);
        region.run().unwrap_or_else(|e| panic!("device unusable afterwards: {e:?}"));
        assert_eq!(device.buffer_f64s(b).unwrap(), vec![11.0, 21.0]);
        device.shutdown();
    });
}

#[test]
fn kernel_panic_is_a_typed_error_on_both_real_backends_and_the_workers_live_on() {
    with_timeout(WATCHDOG, || {
        // A kernel body that panics used to take its handler thread with
        // it: no reply was ever sent, the head waited out its reply timeout
        // (forever, by default) and the warm pool kept a worker with one
        // handler fewer — none, under this configuration. The worker now
        // catches the panic and replies a typed error naming the kernel;
        // what the kernel had written dies with it.
        let config = OmpcConfig::small();
        let mut device = ClusterDevice::with_config(2, config.clone());
        let bump = device.register_kernel_fn("bump", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        // Overwrites its output, then reads seven bytes as `f64`s.
        let misaligned = device.register_kernel_fn("misaligned", 1e-6, |args| {
            args.set_f64s(1, &[99.0]);
            args.as_f64s(0);
        });
        let out = device.enter_data_f64s(&[1.0]);
        let mut region = device.target_region();
        region.target(bump, vec![Dependence::inout(out)]);
        region.run().unwrap();

        let mut region = device.target_region();
        let odd = region.map_to(vec![0u8; 7]);
        region.target(misaligned, vec![Dependence::input(odd), Dependence::inout(out)]);
        match region.run().unwrap_err() {
            OmpcError::RemoteEvent { node, error, .. } => {
                assert!(node >= 1, "the error names the worker, got node {node}");
                let expected = OmpcError::Internal("kernel 'misaligned' panicked".to_string());
                assert_eq!(*error, expected);
            }
            other => panic!("expected the worker's typed error, got {other:?}"),
        }
        assert_eq!(device.buffer_f64s(out).unwrap(), vec![2.0], "a failed task wrote");

        // The same device, then the same (warm) workers under a new device,
        // still run regions.
        let mut region = device.target_region();
        region.target(bump, vec![Dependence::inout(out)]);
        region.run().unwrap_or_else(|e| panic!("device unusable afterwards: {e:?}"));
        assert_eq!(device.buffer_f64s(out).unwrap(), vec![3.0]);
        device.shutdown();

        let mut next = ClusterDevice::with_config(2, config);
        let bump = next.register_kernel_fn("bump", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = next.target_region();
        let b = region.map_to_f64s(&[10.0]);
        region.target(bump, vec![Dependence::inout(b)]);
        region.map_from(b);
        region.run().unwrap_or_else(|e| panic!("workers unusable afterwards: {e:?}"));
        assert_eq!(next.buffer_f64s(b).unwrap(), vec![11.0]);
        next.shutdown();
    });
}

#[test]
fn wall_clock_trigger_kills_a_worker_during_a_long_run() {
    with_timeout(WATCHDOG, || {
        // `AtWallMillis(0)` fires on the first heartbeat round of the run:
        // the victim dies by real elapsed time (the soak-test trigger) and
        // recovery completes the region on the survivor with correct bytes.
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().fail_at_wall_millis(1, 0),
            ..OmpcConfig::small()
        };
        let mut device = ClusterDevice::with_config(2, config);
        let bump = device.register_kernel_fn("bump", 1e-5, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0, 2.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(device.buffer_f64s(a).unwrap(), vec![3.0, 4.0]);
        let record = device.last_run_record().unwrap();
        assert_eq!(record.failures.len(), 1);
        assert_eq!(record.failures[0].node, 1);
        assert_eq!(device.alive_workers(), vec![2]);
        device.shutdown();
    });
}

#[test]
fn out_of_range_task_error_is_rejected_by_all_backends() {
    with_timeout(WATCHDOG, || {
        // A typo'd task index in `error_on_task` must fail the run up
        // front with `InvalidConfig`, not silently degrade the fault plan
        // to a no-op.
        let n = 4usize;
        let workload = chain_workload(n, 0.002, 1024);
        let config =
            OmpcConfig { fault_plan: FaultPlan::none().error_on_task(30), ..OmpcConfig::small() };
        let plan = RuntimePlan { assignment: vec![1; n], window: config.inflight_window() };

        let outcome = simulate_ompc_outcome(
            &workload,
            &ClusterConfig::santos_dumont(2),
            &config,
            &OverheadModel::default(),
            Some(&plan),
        );
        assert!(matches!(outcome.result.unwrap_err(), OmpcError::InvalidConfig(_)));

        let mut device = ClusterDevice::with_config(1, config);
        let err = device.run_workload(&workload, &plan).unwrap_err();
        assert!(matches!(err, OmpcError::InvalidConfig(_)), "got {err:?}");
        device.shutdown();
    });
}

#[test]
fn non_finite_or_negative_cost_hints_are_rejected_before_planning() {
    with_timeout(WATCHDOG, || {
        // A cost hint the planner cannot order used to reach HEFT's rank
        // sort and panic there. The region-execution path now rejects it
        // with a typed error, whether it arrives per task or through a
        // kernel's registered cost, and the device stays usable.
        let mut device = ClusterDevice::with_config(2, OmpcConfig::small());
        let double = device.register_kernel_fn("double", 1e-4, |args| {
            let doubled: Vec<f64> = args.as_f64s(0).iter().map(|v| v * 2.0).collect();
            args.set_f64s(0, &doubled);
        });
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut region = device.target_region();
            let a = region.map_to_f64s(&[1.0, 2.0]);
            region.target_with_cost(double, 1e-4, vec![Dependence::inout(a)], "ok");
            region.target_with_cost(double, bad, vec![Dependence::inout(a)], "bad");
            region.map_from(a);
            let err = region.run().unwrap_err();
            assert!(
                matches!(&err, OmpcError::InvalidConfig(m) if m.contains("cost hint")),
                "cost hint {bad}: got {err:?}"
            );
        }
        let nan_kernel = device.register_kernel_fn("nan-cost", f64::NAN, |_| {});
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0]);
        region.target(nan_kernel, vec![Dependence::inout(a)]);
        let err = region.run().unwrap_err();
        assert!(matches!(err, OmpcError::InvalidConfig(_)), "got {err:?}");

        let mut region = device.target_region();
        let a = region.map_to_f64s(&[1.0, 2.0]);
        region.target(double, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap_or_else(|e| panic!("device unusable afterwards: {e:?}"));
        assert_eq!(device.buffer_f64s(a).unwrap(), vec![2.0, 4.0]);
        device.shutdown();

        // `RuntimePlan::for_workload` has no error to return: it must plan
        // whatever it is given without panicking.
        let mut workload = chain_workload(4, 0.002, 1024);
        for (t, bad) in [(1, f64::NAN), (2, f64::INFINITY), (3, -1.0)] {
            let mut g = TaskGraph::new();
            for task in workload.graph.tasks() {
                g.add_task(if task.id == t { bad } else { task.cost });
            }
            for e in workload.graph.edges() {
                g.add_edge(e.from, e.to, e.bytes);
            }
            workload = WorkloadGraph::new(g, workload.output_bytes.clone());
            let plan = RuntimePlan::for_workload(
                &workload,
                &ompc::sched::Platform::cluster(2),
                &OmpcConfig::small(),
            );
            assert_eq!(plan.assignment.len(), 4);
        }
    });
}

#[test]
fn zero_communicators_is_clamped_to_one_not_a_panic() {
    with_timeout(WATCHDOG, || {
        // `num_communicators: 0` used to reach `assert!(num_comms > 0)` in
        // world construction from `ClusterDevice::with_config`. Like the
        // other sizing knobs it now means "the minimum": the device spawns,
        // runs a region, and shuts down.
        let config = OmpcConfig { num_communicators: 0, ..OmpcConfig::small() };
        let mut device = ClusterDevice::with_config(2, config);
        let bump = device.register_kernel_fn("bump", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[41.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(device.buffer_f64s(a).unwrap(), vec![42.0]);
        device.shutdown();
    });
}
