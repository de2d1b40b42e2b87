//! Cross-region data residency (paper §4.3–§4.4 unstructured data
//! environment): a buffer mapped once stays on its worker across target
//! regions, the host copy is flushed lazily, and a node death between or
//! during regions transparently re-sources the resident data. Transfer
//! counts are asserted through the `RunRecord` transfer log, so residency
//! wins are facts, not timings. Everything runs under ompc-testutil's
//! 120 s watchdog.

use ompc::prelude::*;
use ompc_testutil::with_timeout;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(120);

/// Register the reader kernel used throughout: out[0] = sum of the input.
fn register_sum(device: &ClusterDevice) -> KernelId {
    device.register_kernel_fn("sum", 1e-6, |args| {
        let total: f64 = args.as_f64s(0).iter().sum();
        args.set_f64s(1, &[total]);
    })
}

/// Run `regions` single-reader regions against the device-resident buffer
/// `input`, returning the per-region Input-transfer counts of `input` and
/// the region outputs.
fn run_reader_regions(
    device: &ClusterDevice,
    sum: KernelId,
    input: BufferId,
    regions: usize,
) -> (Vec<usize>, Vec<f64>) {
    let mut input_transfers = Vec::new();
    let mut outputs = Vec::new();
    for _ in 0..regions {
        let mut region = device.target_region();
        let out = region.map_alloc(8);
        region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
        region.map_from(out);
        region.run().unwrap();
        let record = device.last_run_record().unwrap();
        input_transfers.push(
            record
                .buffer_transfers(input)
                .iter()
                .filter(|t| t.reason == TransferReason::Input)
                .count(),
        );
        outputs.push(device.buffer_f64s(out).unwrap()[0]);
    }
    (input_transfers, outputs)
}

/// The headline acceptance criterion, and the CI transfer-count regression
/// gate: an input mapped once moves to its worker exactly once, no matter
/// how many regions read it — the per-buffer transfer count is independent
/// of the region count.
#[test]
fn resident_input_moves_once_regardless_of_region_count() {
    with_timeout(WATCHDOG, || {
        let mut counts_by_n = Vec::new();
        for regions in [2usize, 6] {
            let mut device = ClusterDevice::with_config(2, OmpcConfig::small());
            let sum = register_sum(&device);
            let input = device.enter_data_f64s(&[1.0, 2.0, 3.0]);
            assert_eq!(device.region_epoch(), 0);
            assert_eq!(device.buffer_epoch(input), Some(0));
            let (transfers, outputs) = run_reader_regions(&device, sum, input, regions);
            // The epoch advanced once per region, while the resident
            // (read-only) input still carries its registration epoch —
            // it was carried across regions, never re-registered.
            assert_eq!(device.region_epoch(), regions as u64);
            assert_eq!(device.buffer_epoch(input), Some(0));
            device.shutdown();
            assert!(
                outputs.iter().all(|&o| (o - 6.0).abs() < 1e-12),
                "every region must read the resident data"
            );
            let total: usize = transfers.iter().sum();
            assert_eq!(
                total, 1,
                "the resident input must cross the network exactly once over \
                 {regions} regions, not {total} times (per region: {transfers:?})",
            );
            counts_by_n.push(total);
        }
        assert_eq!(
            counts_by_n[0], counts_by_n[1],
            "resident transfer count must be independent of the region count"
        );
    });
}

/// Per-region mapping semantics are unchanged: a buffer freshly mapped with
/// `map_to` in every region is distributed in every region, and the
/// computed bytes are identical to the resident variant's.
#[test]
fn per_region_mapping_still_distributes_every_region() {
    with_timeout(WATCHDOG, || {
        let regions = 4usize;
        let mut device = ClusterDevice::with_config(2, OmpcConfig::small());
        let sum = register_sum(&device);
        let mut outputs = Vec::new();
        let mut enter_transfers = 0usize;
        for _ in 0..regions {
            let mut region = device.target_region();
            let input = region.map_to_f64s(&[1.0, 2.0, 3.0]);
            let out = region.map_alloc(8);
            region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
            region.map_from(out);
            region.release(input);
            region.run().unwrap();
            let record = device.last_run_record().unwrap();
            enter_transfers += record
                .buffer_transfers(input)
                .iter()
                .filter(|t| t.reason == TransferReason::EnterData)
                .count();
            outputs.push(device.buffer_f64s(out).unwrap()[0]);
        }
        device.shutdown();
        assert!(outputs.iter().all(|&o| (o - 6.0).abs() < 1e-12));
        assert_eq!(enter_transfers, regions, "per-region mapping pays one distribution per region");
    });
}

/// `map(from:)` on a keep-resident buffer is a flush: the host copy
/// becomes current, the device copy stays mapped, and the next region
/// generates no transfer at all.
#[test]
fn map_from_on_resident_buffer_flushes_without_releasing() {
    with_timeout(WATCHDOG, || {
        // One worker, so every region's task lands on the same node.
        let mut device = ClusterDevice::with_config(1, OmpcConfig::small());
        let bump = device.register_kernel_fn("bump", 1e-6, |args| {
            let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
            args.set_f64s(0, &v);
        });

        let mut region = device.target_region();
        let a = region.map_to_resident_f64s(&[1.0, 2.0]);
        region.target(bump, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(
            device.buffer_f64s(a).unwrap(),
            vec![2.0, 3.0],
            "the flush must land the bumped bytes on the host"
        );

        // Region 2 re-uses the still-resident device copy: no enter
        // task, no transfer of `a` in either direction.
        let mut region = device.target_region();
        region.target(bump, vec![Dependence::inout(a)]);
        region.run().unwrap();
        let record = device.last_run_record().unwrap();
        assert!(
            record.buffer_transfers(a).is_empty(),
            "the resident buffer must not move again, got {:?}",
            record.buffer_transfers(a)
        );
        assert_eq!(device.buffer_f64s(a).unwrap(), vec![3.0, 4.0]);
        device.shutdown();
    });
}

/// Device-level `exit_data` flush byte-identity: the lazily flushed bytes
/// equal what an eager per-region `map_from` produces, and after the exit
/// the mapping is gone (a later region re-distributes from the flushed
/// host copy).
#[test]
fn exit_data_flush_is_byte_identical_to_eager_map_from() {
    with_timeout(WATCHDOG, || {
        let scale = |device: &ClusterDevice| {
            device.register_kernel_fn("scale", 1e-6, |args| {
                let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 3.0).collect();
                args.set_f64s(0, &v);
            })
        };
        let input = [1.5, -2.0, 4.25];

        // Eager reference: classic map_to / map_from in one region.
        let mut eager_device = ClusterDevice::with_config(2, OmpcConfig::small());
        let k = scale(&eager_device);
        let mut region = eager_device.target_region();
        let a = region.map_to_f64s(&input);
        region.target(k, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        let eager = eager_device.buffer_data(a).unwrap();
        eager_device.shutdown();

        // Lazy: unstructured enter, compute, then exit_data flushes.
        let mut device = ClusterDevice::with_config(2, OmpcConfig::small());
        let k = scale(&device);
        let b = device.enter_data_f64s(&input);
        let mut region = device.target_region();
        region.target(k, vec![Dependence::inout(b)]);
        region.run().unwrap();
        device.exit_data(b).unwrap();
        let lazy = device.buffer_data(b).unwrap();
        assert_eq!(lazy, eager, "flush must be byte-identical");

        // The mapping ended: a later region re-distributes the flushed
        // host copy (one fresh Input transfer).
        let sum = register_sum(&device);
        let (transfers, outputs) = run_reader_regions(&device, sum, b, 1);
        device.shutdown();
        assert_eq!(transfers, vec![1], "exit_data ended residency");
        assert!((outputs[0] - (4.5 - 6.0 + 12.75)).abs() < 1e-12);
    });
}

/// Build the second, larger region of the mid-sequence fault test: `readers`
/// independent (alloc → read-`input` → map_from) triplets.
fn build_reader_triplets(
    region: &mut TargetRegion<'_>,
    sum: KernelId,
    input: BufferId,
    readers: usize,
) -> Vec<BufferId> {
    (0..readers)
        .map(|_| {
            let out = region.map_alloc(8);
            region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
            region.map_from(out);
            out
        })
        .collect()
}

/// Fault composition: a worker dies mid-sequence while holding resident
/// replicas and freshly produced outputs. The lost outputs re-execute on
/// the survivor (lineage recovery within the region that lost them), the
/// resident input is transparently re-sourced from the host version or a
/// surviving replica, and the final bytes are correct.
#[test]
fn mid_sequence_node_death_resources_resident_buffers() {
    with_timeout(WATCHDOG, || {
        const READERS: usize = 5;
        // Probe run (no faults): learn which worker region 1 lands the
        // resident input on, and how many tasks each region assigns to
        // that node — scheduling is deterministic, so the real run
        // makes identical placements.
        let (holder, region1_tasks, region2_tasks) = {
            let mut probe = ClusterDevice::with_config(2, OmpcConfig::small());
            let sum = register_sum(&probe);
            let input = probe.enter_data_f64s(&[1.0, 2.0, 3.0]);
            run_reader_regions(&probe, sum, input, 1);
            let r1 = probe.last_run_record().unwrap();
            let holder = r1.buffer_transfers(input)[0].to;
            let mut region = probe.target_region();
            build_reader_triplets(&mut region, sum, input, READERS);
            region.run().unwrap();
            let r2 = probe.last_run_record().unwrap();
            let on = |r: &RunRecord| r.assignment.iter().filter(|&&n| n == holder).count();
            let counts = (holder, on(&r1), on(&r2));
            probe.shutdown();
            counts
        };
        assert!(holder >= 1);
        // Design preconditions (deterministic; loud failure beats a
        // silently vacuous test): the trigger must be unreachable in
        // region 1 and fire in region 2 with holder work still
        // outstanding, so the declaration happens mid-region.
        let kill_after = region1_tasks + 1;
        assert!(
            region2_tasks >= kill_after + 2,
            "region 2 assigns only {region2_tasks} tasks to the holder; \
             the trigger at {kill_after} would fire too close to the end",
        );

        let fault_plan = FaultPlan::none().fail_after_completions(holder, kill_after);
        let config = OmpcConfig { fault_plan, ..OmpcConfig::small() };
        let mut device = ClusterDevice::with_config(2, config);
        let sum = register_sum(&device);
        let input = device.enter_data_f64s(&[1.0, 2.0, 3.0]);

        // Region 1: completes cleanly; `input` becomes resident on the
        // doomed holder.
        let (transfers, outputs) = run_reader_regions(&device, sum, input, 1);
        assert_eq!(transfers, vec![1]);
        assert_eq!(outputs, vec![6.0]);
        assert!(device.last_run_record().unwrap().failures.is_empty());

        // Region 2: the holder's retirements trip the trigger
        // mid-region. Recovery must re-execute the lost readers on the
        // survivor and re-source `input` there.
        let mut region = device.target_region();
        let outs = build_reader_triplets(&mut region, sum, input, READERS);
        region.run().unwrap();
        let record = device.last_run_record().unwrap();
        assert_eq!(record.failures.len(), 1);
        assert_eq!(record.failures[0].node, holder);
        assert!(!record.reexecuted.is_empty(), "lost work must re-run");
        let survivor = 3 - holder;
        assert!(
            record
                .buffer_transfers(input)
                .iter()
                .any(|t| t.reason == TransferReason::Input && t.to == survivor),
            "the resident input must be re-sourced onto the survivor, got {:?}",
            record.buffer_transfers(input)
        );
        for out in outs {
            assert_eq!(
                device.buffer_f64s(out).unwrap(),
                vec![6.0],
                "recovered outputs must be byte-correct"
            );
        }
        assert_eq!(device.alive_workers(), vec![survivor]);
        device.shutdown();
    });
}

/// Regression: a kernel that resizes its buffer on the device must not
/// leave the transfer log carrying the stale mapped size. The first
/// retrieval of the resized data observes the real byte count before the
/// record is written, so the `Retrieve` entry logs the bytes that actually
/// crossed the wire.
#[test]
fn resized_device_buffers_log_their_real_transfer_bytes() {
    with_timeout(WATCHDOG, || {
        let mut device = ClusterDevice::with_config(2, OmpcConfig::small());
        let grow = device.register_kernel_fn("grow", 1e-6, |args| {
            args.set_f64s(0, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        });
        let mut region = device.target_region();
        // Mapped as 2 f64s (16 bytes); the kernel grows it to 5 (40).
        let a = region.map_to_f64s(&[0.0, 0.0]);
        region.target(grow, vec![Dependence::inout(a)]);
        region.map_from(a);
        region.run().unwrap();
        assert_eq!(
            device.buffer_f64s(a).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            "the resized bytes must land on the host"
        );
        let record = device.last_run_record().unwrap();
        let retrieves: Vec<TransferRecord> = record
            .buffer_transfers(a)
            .iter()
            .filter(|t| t.reason == TransferReason::Retrieve)
            .cloned()
            .collect();
        assert!(!retrieves.is_empty(), "map_from must log a retrieval");
        assert!(
            retrieves.iter().all(|t| t.bytes == 40),
            "the retrieval must log the resized 40 bytes, got {:?}",
            retrieves
        );
        device.shutdown();
    });
}

/// The region epoch is observable bookkeeping: `enter_data` before any
/// region stamps epoch 0, and each region execution advances the device's
/// epoch exactly once (exposed indirectly through transfer records staying
/// per-run).
#[test]
fn repeated_workload_runs_do_not_leak_residency_state() {
    with_timeout(WATCHDOG, || {
        // `run_workload` materializes private buffers; running it twice on
        // one device must produce identical records — including the
        // transfer log — because the first run's state is fully released.
        let mut g = ompc::sched::TaskGraph::new();
        for _ in 0..4 {
            g.add_task(0.001);
        }
        g.add_edge(0, 1, 2048);
        g.add_edge(1, 2, 2048);
        g.add_edge(2, 3, 2048);
        let workload = WorkloadGraph::new(g, vec![2048; 4]);
        let plan = RuntimePlan { assignment: vec![1, 2, 1, 2], window: 1 };
        let mut device = ClusterDevice::with_config(2, OmpcConfig::small());
        let first = device.run_workload(&workload, &plan).unwrap();
        let second = device.run_workload(&workload, &plan).unwrap();
        assert_eq!(
            first.transfers, second.transfers,
            "a re-run must re-pay exactly the same transfers"
        );
        assert!(first.transfer_count() > 0 && first.transfer_bytes() > 0);
        device.shutdown();
    });
}
