//! Integration tests of the error-aware event protocol: a worker-side
//! handler failure (unregistered kernel, injected task error) or a worker
//! death mid-run must surface as a propagated `OmpcError` from **all
//! three** execution backends (simulated, threaded, message-passing MPI)
//! within bounded time — never as a head-side hang — and the backends must
//! agree on the decision record of the failed run. Every test body runs
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
        // execution is forced to fail at the protocol layer (the threaded
        // and MPI backends execute a genuinely unregistered kernel, the
        // simulated backend models the same failed reply).
        let n = 6usize;
        let workload = chain_workload(n, 0.002, 1024);
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().error_on_task(3),
            max_inflight_tasks: Some(1),
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

        let mut records = Vec::new();
        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let mut device =
                ClusterDevice::with_config(2, OmpcConfig { backend, ..config.clone() });
            let err = device.run_workload(&workload, &plan).unwrap_err();
            assert!(
                matches!(err.root_cause(), OmpcError::UnknownKernel(_)),
                "{}: expected an unknown-kernel root cause, got {err:?}",
                backend.name()
            );
            assert_eq!(err.origin_node(), Some(plan.assignment[3]), "{}", backend.name());
            records.push((
                backend.name(),
                device.last_run_record().expect("failed runs keep their record"),
            ));
            device.shutdown();
        }

        // Backend-equivalent records of the failed run: identical
        // dispatches and identical completions before the propagated error.
        assert_eq!(sim_record.completion_order, vec![0, 1, 2]);
        for (name, record) in &records {
            assert_eq!(sim_record.completion_order, record.completion_order, "{name}");
            assert_eq!(sim_record.dispatch_order, record.dispatch_order, "{name}");
            assert_eq!(sim_record.assignment, record.assignment, "{name}");
            assert!(record.failures.is_empty(), "{name}");
        }
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
        // its data) still on it: nothing can recover, so every backend
        // must report `NodeFailure` — the threaded and MPI backends kill
        // the worker's event loop for real, so this also proves the killed
        // node's error replies keep the head from hanging (for the MPI
        // backend: the zombie gate answers composite task messages with
        // typed refusals).
        let n = 6usize;
        let workload = chain_workload(n, 0.002, 1024);
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().fail_after_completions(1, 2),
            max_inflight_tasks: Some(1),
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

        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let mut device =
                ClusterDevice::with_config(1, OmpcConfig { backend, ..config.clone() });
            let err = device.run_workload(&workload, &plan).unwrap_err();
            assert_eq!(err, OmpcError::NodeFailure(1), "{}", backend.name());
            let record = device.last_run_record().unwrap();
            device.shutdown();

            // Equivalent decision records (fault-clock timestamps aside):
            // the same completions retired before the death, the same
            // failure declared, the same tasks caught by the
            // lineage/restart machinery.
            let name = backend.name();
            assert_eq!(sim_record.completion_order, record.completion_order, "{name}");
            assert_eq!(record.failures.len(), 1, "{name}");
            assert_eq!(record.failures[0].node, 1, "{name}");
            assert_eq!(sim_record.failures[0].lost_buffers, record.failures[0].lost_buffers);
            assert_eq!(sim_record.failures[0].lineage_tasks, record.failures[0].lineage_tasks);
            assert_eq!(sim_record.reexecuted, record.reexecuted, "{name}");
            assert_eq!(sim_record.assignment, record.assignment, "{name}");
        }
    });
}

#[test]
fn device_survives_a_task_error_and_reuses_its_long_lived_pool() {
    with_timeout(WATCHDOG, || {
        // Region 1 fails with a worker-side handler error; region 2 on the
        // same device must still run to completion through the same
        // long-lived pool (no stale work from the failed region bleeds in).
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
        let threads_after_failure = device.pool_threads();
        assert!(threads_after_failure > 0, "the pool survives a failed region");

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
        // The host body runs inside the shared lowering, so a panic in it is
        // caught in one place: the same typed error whichever transport
        // delivered the region — and an ordinary task failure to the
        // threaded pool (a queued successor is cancelled, not run), which
        // leaves the device usable for the next region.
        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let name = backend.name();
            let config = OmpcConfig { backend, max_inflight_tasks: Some(1), ..OmpcConfig::small() };
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
                "{name}: a host-task panic must be this typed error"
            );
            let record = device.last_run_record().expect("failed runs keep their record");
            assert!(!record.completion_order.contains(&host.0), "{name}");

            let mut region = device.target_region();
            let b = region.map_to_f64s(&[10.0, 20.0]);
            region.target(bump, vec![Dependence::inout(b)]);
            region.map_from(b);
            region.run().unwrap_or_else(|e| panic!("{name}: device unusable afterwards: {e:?}"));
            assert_eq!(device.buffer_f64s(b).unwrap(), vec![11.0, 21.0], "{name}");
            device.shutdown();
        }
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
        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let name = backend.name();
            let config = OmpcConfig { backend, ..OmpcConfig::small() };
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
                    assert!(node >= 1, "{name}: the error names the worker, got node {node}");
                    let expected = OmpcError::Internal("kernel 'misaligned' panicked".to_string());
                    assert_eq!(*error, expected, "{name}");
                }
                other => panic!("{name}: expected the worker's typed error, got {other:?}"),
            }
            assert_eq!(device.buffer_f64s(out).unwrap(), vec![2.0], "{name}: a failed task wrote");

            // The same device, then the same (warm) workers under a new
            // device, still run regions.
            let mut region = device.target_region();
            region.target(bump, vec![Dependence::inout(out)]);
            region.run().unwrap_or_else(|e| panic!("{name}: device unusable afterwards: {e:?}"));
            assert_eq!(device.buffer_f64s(out).unwrap(), vec![3.0], "{name}");
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
            region.run().unwrap_or_else(|e| panic!("{name}: workers unusable afterwards: {e:?}"));
            assert_eq!(next.buffer_f64s(b).unwrap(), vec![11.0], "{name}");
            next.shutdown();
        }
    });
}

#[test]
fn pool_is_sized_by_min_of_threads_window_and_tasks_and_grows_lazily() {
    with_timeout(WATCHDOG, || {
        let config = OmpcConfig { head_worker_threads: 4, ..OmpcConfig::small() };
        let mut device = ClusterDevice::with_config(2, config);
        assert_eq!(device.pool_threads(), 0, "no region executed, no pool threads yet");
        let noop = device.register_kernel_fn("noop", 1e-6, |_| {});

        // A 3-task region (enter + target + exit) needs only 3 threads.
        let mut region = device.target_region();
        let a = region.map_to_f64s(&[0.0]);
        region.target(noop, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(device.pool_threads(), 3, "pool sized min(threads=4, window=4, tasks=3)");

        // A larger region grows the pool to the thread cap — and reuses
        // the existing threads instead of respawning.
        let mut region = device.target_region();
        let buffers: Vec<BufferId> = (0..8).map(|i| region.map_to_f64s(&[i as f64])).collect();
        for &b in &buffers {
            region.target(noop, vec![Dependence::inout(b)]);
        }
        region.run().unwrap();
        assert_eq!(device.pool_threads(), 4, "pool grew to head_worker_threads and no further");

        // A small region afterwards keeps the grown pool (no churn).
        let mut region = device.target_region();
        let c = region.map_to_f64s(&[0.0]);
        region.target(noop, vec![Dependence::inout(c)]);
        region.run().unwrap();
        assert_eq!(device.pool_threads(), 4);
        device.shutdown();
        assert_eq!(device.pool_threads(), 0, "shutdown drains the pool");
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

        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let mut device =
                ClusterDevice::with_config(1, OmpcConfig { backend, ..config.clone() });
            let err = device.run_workload(&workload, &plan).unwrap_err();
            assert!(matches!(err, OmpcError::InvalidConfig(_)), "{}: got {err:?}", backend.name());
            device.shutdown();
        }
    });
}

#[test]
fn non_finite_or_negative_cost_hints_are_rejected_before_planning() {
    with_timeout(WATCHDOG, || {
        // A cost hint the planner cannot order used to reach HEFT's rank
        // sort and panic there. The region-execution path now rejects it
        // with a typed error, whether it arrives per task or through a
        // kernel's registered cost, and the device stays usable.
        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let name = backend.name();
            let mut device =
                ClusterDevice::with_config(2, OmpcConfig { backend, ..OmpcConfig::small() });
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
                    "{name}: cost hint {bad}: got {err:?}"
                );
            }
            let nan_kernel = device.register_kernel_fn("nan-cost", f64::NAN, |_| {});
            let mut region = device.target_region();
            let a = region.map_to_f64s(&[1.0]);
            region.target(nan_kernel, vec![Dependence::inout(a)]);
            let err = region.run().unwrap_err();
            assert!(matches!(err, OmpcError::InvalidConfig(_)), "{name}: got {err:?}");

            let mut region = device.target_region();
            let a = region.map_to_f64s(&[1.0, 2.0]);
            region.target(double, vec![Dependence::inout(a)]);
            region.map_from(a);
            region.run().unwrap_or_else(|e| panic!("{name}: device unusable afterwards: {e:?}"));
            assert_eq!(device.buffer_f64s(a).unwrap(), vec![2.0, 4.0], "{name}");
            device.shutdown();
        }

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
        // runs a region, and shuts down on both real backends.
        for backend in [BackendKind::Threaded, BackendKind::Mpi] {
            let config = OmpcConfig { backend, num_communicators: 0, ..OmpcConfig::small() };
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
            assert_eq!(device.buffer_f64s(a).unwrap(), vec![42.0], "{}", backend.name());
            device.shutdown();
        }
    });
}
