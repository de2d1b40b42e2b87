//! End-to-end integration tests of the threaded OMPC runtime, spanning the
//! facade crate: cluster device + regions + event system + data manager.

use ompc::prelude::*;
use ompc::runtime::config::OmpcConfig;

/// A multi-stage numerical pipeline whose result is easy to verify: the
/// cluster must reproduce exactly what a sequential execution produces.
#[test]
fn multi_stage_region_matches_sequential_result() {
    let mut device = ClusterDevice::spawn(3);
    let square = device.register_kernel_fn("square", 1e-5, |args| {
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * x).collect();
        args.set_f64s(0, &v);
    });
    let sum_into = device.register_kernel_fn("sum-into", 1e-5, |args| {
        let total: f64 = args.as_f64s(0).iter().sum();
        let mut acc = args.as_f64s(1);
        acc[0] += total;
        args.set_f64s(1, &acc);
    });

    let input: Vec<f64> = (1..=16).map(|i| i as f64).collect();
    let expected: f64 = input.iter().map(|x| x * x).sum();

    let mut region = device.target_region();
    let data = region.map_to_f64s(&input);
    let acc = region.map_to_f64s(&[0.0]);
    region.target(square, vec![Dependence::inout(data)]);
    region.target(sum_into, vec![Dependence::input(data), Dependence::inout(acc)]);
    region.map_from(acc);
    region.map_from(data);
    let report = region.run().unwrap();

    assert_eq!(device.buffer_f64s(acc).unwrap(), vec![expected]);
    assert_eq!(device.buffer_f64s(data).unwrap(), input.iter().map(|x| x * x).collect::<Vec<_>>());
    assert_eq!(report.target_tasks, 2);
    device.shutdown();
}

/// Several regions executed one after another on the same device must all
/// work and be reported separately (buffers persist across regions).
#[test]
fn successive_regions_on_one_device() {
    let mut device = ClusterDevice::spawn(2);
    let increment = device.register_kernel_fn("increment", 1e-6, |args| {
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
        args.set_f64s(0, &v);
    });

    let mut buffer = None;
    for round in 0..3 {
        let mut region = device.target_region();
        let b = region.map_to_f64s(&[round as f64]);
        region.target(increment, vec![Dependence::inout(b)]);
        region.map_from(b);
        region.run().unwrap();
        assert_eq!(device.buffer_f64s(b).unwrap(), vec![round as f64 + 1.0]);
        buffer = Some(b);
    }
    assert!(buffer.is_some());
    device.shutdown();
    assert_eq!(device.report().regions.len(), 3);
}

/// A diamond dependence pattern: one producer, two parallel consumers, one
/// combiner. Exercises read-only replication (both consumers read the same
/// buffer) and worker-to-worker forwarding into the combiner.
#[test]
fn diamond_dependences_execute_correctly() {
    let mut device = ClusterDevice::spawn(3);
    let produce = device.register_kernel_fn("produce", 1e-6, |args| {
        args.set_f64s(0, &[3.0]);
    });
    let add = device.register_kernel_fn("add", 1e-6, |args| {
        let x = args.as_f64s(0)[0];
        args.set_f64s(1, &[x + 10.0]);
    });
    let mul = device.register_kernel_fn("mul", 1e-6, |args| {
        let x = args.as_f64s(0)[0];
        args.set_f64s(1, &[x * 10.0]);
    });
    let combine = device.register_kernel_fn("combine", 1e-6, |args| {
        let a = args.as_f64s(0)[0];
        let b = args.as_f64s(1)[0];
        args.set_f64s(2, &[a + b]);
    });

    let mut region = device.target_region();
    let src = region.map_alloc(8);
    let left = region.map_alloc(8);
    let right = region.map_alloc(8);
    let out = region.map_alloc(8);
    region.target(produce, vec![Dependence::output(src)]);
    region.target(add, vec![Dependence::input(src), Dependence::output(left)]);
    region.target(mul, vec![Dependence::input(src), Dependence::output(right)]);
    region.target(
        combine,
        vec![Dependence::input(left), Dependence::input(right), Dependence::output(out)],
    );
    region.map_from(out);
    region.run().unwrap();

    // (3 + 10) + (3 * 10) = 43.
    assert_eq!(device.buffer_f64s(out).unwrap(), vec![43.0]);
    device.shutdown();
}

/// The same program must produce the same answer regardless of the number
/// of worker nodes and scheduler choice — placement is a performance
/// decision, never a correctness one.
#[test]
fn results_are_placement_independent() {
    let run = |workers: usize, scheduler: SchedulerKind| -> Vec<f64> {
        let mut config = OmpcConfig::small();
        config.scheduler = scheduler;
        let mut device = ClusterDevice::with_config(workers, config);
        let scale = device.register_kernel_fn("scale", 1e-6, |args| {
            let f = args.as_f64s(1)[0];
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * f).collect();
            args.set_f64s(0, &v);
        });
        let mut region = device.target_region();
        let data = region.map_to_f64s(&[1.0, 2.0, 3.0]);
        for factor in 2..5 {
            let f = region.map_to_f64s(&[factor as f64]);
            region.target(scale, vec![Dependence::inout(data), Dependence::input(f)]);
        }
        region.map_from(data);
        region.run().unwrap();
        let out = device.buffer_f64s(data).unwrap();
        device.shutdown();
        out
    };
    let reference = run(1, SchedulerKind::Heft);
    assert_eq!(reference, vec![24.0, 48.0, 72.0]);
    for workers in [2, 4] {
        for scheduler in [SchedulerKind::Heft, SchedulerKind::RoundRobin, SchedulerKind::Eager] {
            assert_eq!(run(workers, scheduler), reference);
        }
    }
}

/// Exercising the in-flight limit on the real runtime: a wide region with a
/// tiny dispatch window must still complete (throttled, not deadlocked).
#[test]
fn tiny_in_flight_limit_still_completes() {
    let mut config = OmpcConfig::small();
    config.max_inflight_tasks = 2;
    let mut device = ClusterDevice::with_config(2, config);
    let bump = device.register_kernel_fn("bump", 1e-6, |args| {
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
        args.set_f64s(0, &v);
    });
    let mut region = device.target_region();
    let buffers: Vec<_> = (0..12).map(|i| region.map_to_f64s(&[i as f64])).collect();
    for &b in &buffers {
        region.target(bump, vec![Dependence::inout(b)]);
    }
    for &b in &buffers {
        region.map_from(b);
    }
    region.run().unwrap();
    for (i, &b) in buffers.iter().enumerate() {
        assert_eq!(device.buffer_f64s(b).unwrap(), vec![i as f64 + 1.0]);
    }
    device.shutdown();
}

/// The event counters must reflect the data movement the data manager
/// plans: a two-task chain on separate workers needs an initial submit, a
/// worker-to-worker exchange, and a final retrieve.
#[test]
fn event_counters_track_data_movement() {
    let mut device = ClusterDevice::spawn(2);
    let touch = device.register_kernel_fn("touch", 1e-6, |args| {
        let mut v = args.as_f64s(0);
        v[0] += 1.0;
        args.set_f64s(0, &v);
    });
    let mut region = device.target_region();
    let a = region.map_to_f64s(&[0.0; 1024]);
    region.target(touch, vec![Dependence::inout(a)]);
    region.target(touch, vec![Dependence::inout(a)]);
    region.map_from(a);
    let report = region.run().unwrap();
    // At least: one submit of the buffer, one retrieve; the exchange only
    // happens when the two tasks land on different workers.
    assert!(report.data_events >= 2);
    assert!(report.bytes_moved >= 2 * 1024 * 8);
    assert_eq!(device.buffer_f64s(a).unwrap()[0], 2.0);
    device.shutdown();
}

/// Many concurrent readers of one shared buffer with a wide dispatch window:
/// every reader must observe the producer's full payload even when two
/// readers land on the same node and one's input forward is still in flight
/// when the other is dispatched (the transfer-gate race).
#[test]
fn concurrent_same_node_readers_see_complete_data() {
    let mut config = OmpcConfig::small();
    config.max_inflight_tasks = 16;
    let mut device = ClusterDevice::with_config(2, config);
    let produce = device.register_kernel_fn("produce", 1e-5, |args| {
        let n = args.as_f64s(0).len();
        args.set_f64s(0, &vec![3.5; n]);
    });
    let sum_into = device.register_kernel_fn("sum-into", 1e-5, |args| {
        let total: f64 = args.as_f64s(0).iter().sum();
        args.set_f64s(1, &[total]);
    });
    for _ in 0..10 {
        let mut region = device.target_region();
        let shared = region.map_alloc(256 * 8);
        region.target(produce, vec![Dependence::output(shared)]);
        let outs: Vec<BufferId> = (0..12)
            .map(|_| {
                let out = region.map_alloc(8);
                region.target(sum_into, vec![Dependence::input(shared), Dependence::output(out)]);
                out
            })
            .collect();
        for &out in &outs {
            region.map_from(out);
        }
        region.release(shared);
        region.run().unwrap();
        for &out in &outs {
            // A reader that raced an in-flight forward would have summed an
            // empty buffer and produced 0.0.
            assert_eq!(device.buffer_f64s(out).unwrap(), vec![256.0 * 3.5]);
        }
    }
    device.shutdown();
}
