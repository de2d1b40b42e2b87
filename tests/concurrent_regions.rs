//! Concurrent target regions over one shared device: the acceptance suite
//! for the multi-tenant refactor. N client threads calling
//! [`TargetRegion::run_recorded`] on the same [`ClusterDevice`] must
//! produce per-client results, run records, and transfer plans
//! byte-identical to running the same clients serially — under seeded
//! interleavings, inside ompc-testutil's 120 s watchdog.
//!
//! What the identity tests deliberately do *not* compare: telemetry spans
//! and the [`RegionReport`] event-counter deltas (`data_events`,
//! `bytes_moved`). Those are global-counter snapshots and interleave under
//! overlap by design — see ARCHITECTURE.md, "Concurrent regions and
//! admission control".

use ompc::prelude::*;
use ompc_testutil::{with_timeout, Rng};
use std::sync::mpsc;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(120);

/// Everything one client observes from its own region execution, with
/// buffer ids rewritten to client-local indices so runs on different
/// devices (whose global registries hand out different ids, especially
/// when registrations interleave) compare equal.
#[derive(Debug, Clone, PartialEq)]
struct ClientOutcome {
    output: Vec<f64>,
    assignment: Vec<NodeId>,
    completion_order: Vec<usize>,
    /// `(client-local buffer index, from, to, bytes, reason)`, sorted.
    transfers: Vec<(usize, NodeId, NodeId, u64, String)>,
}

/// Normalize a record's transfer log against the client's own buffers.
/// Panics if the region's log mentions a buffer the client never mapped —
/// that would be cross-tenant leakage between transfer-log namespaces.
fn normalize_transfers(
    record: &RunRecord,
    buffers: &[BufferId],
) -> Vec<(usize, NodeId, NodeId, u64, String)> {
    let mut out: Vec<_> = record
        .transfers
        .iter()
        .map(|t| {
            let local = buffers
                .iter()
                .position(|&b| b == t.buffer)
                .unwrap_or_else(|| panic!("foreign buffer {} in this client's log", t.buffer));
            (local, t.from, t.to, t.bytes, format!("{:?}", t.reason))
        })
        .collect();
    out.sort();
    out
}

/// The per-client workload: a three-buffer chain `sum -> double` whose
/// result is `2 * sum(values)`. Disjoint buffers per client, so every
/// tenant is independent (the supported concurrent-tenancy shape).
fn run_client(
    device: &ClusterDevice,
    sum: KernelId,
    double: KernelId,
    values: &[f64],
) -> (u64, ClientOutcome) {
    let mut region = device.target_region();
    let input = region.map_to_f64s(values);
    let mid = region.map_alloc(8);
    let out = region.map_alloc(8);
    region.target(sum, vec![Dependence::input(input), Dependence::output(mid)]);
    region.target(double, vec![Dependence::input(mid), Dependence::output(out)]);
    region.map_from(out);
    let (report, record) = region.run_recorded().unwrap();
    let outcome = ClientOutcome {
        output: device.buffer_f64s(out).unwrap(),
        assignment: record.assignment.clone(),
        completion_order: record.completion_order.clone(),
        transfers: normalize_transfers(&record, &[input, mid, out]),
    };
    (report.region, outcome)
}

fn register_kernels(device: &ClusterDevice) -> (KernelId, KernelId) {
    let sum = device.register_kernel_fn("sum", 1e-6, |args| {
        let total: f64 = args.as_f64s(0).iter().sum();
        args.set_f64s(1, &[total]);
    });
    let double = device.register_kernel_fn("double", 1e-6, |args| {
        args.set_f64s(1, &[args.as_f64s(0)[0] * 2.0]);
    });
    (sum, double)
}

fn config_for(clients: usize) -> OmpcConfig {
    OmpcConfig {
        max_concurrent_regions: clients,
        // A serial dispatch window keeps each region's completion order
        // deterministic, so the serial-vs-concurrent comparison is exact.
        max_inflight_tasks: 1,
        ..OmpcConfig::small()
    }
}

/// Run `clients` on one device, serially in client order.
fn serial_outcomes(workers: usize, clients: &[Vec<f64>]) -> Vec<ClientOutcome> {
    let mut device = ClusterDevice::with_config(workers, config_for(1));
    let (sum, double) = register_kernels(&device);
    let outcomes: Vec<ClientOutcome> =
        clients.iter().map(|vals| run_client(&device, sum, double, vals).1).collect();
    device.shutdown();
    outcomes
}

/// Run `clients` on one device concurrently (one thread per client, all
/// admitted at once), returning per-client `(region id, outcome)`.
fn concurrent_outcomes(
    workers: usize,
    clients: &[Vec<f64>],
    stagger_us: &[u64],
) -> Vec<(u64, ClientOutcome)> {
    let mut device = ClusterDevice::with_config(workers, config_for(clients.len()));
    let (sum, double) = register_kernels(&device);
    let mut results: Vec<Option<(u64, ClientOutcome)>> = vec![None; clients.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(i, vals)| {
                let device = &device;
                let delay = Duration::from_micros(stagger_us[i % stagger_us.len()]);
                scope.spawn(move || {
                    std::thread::sleep(delay);
                    run_client(device, sum, double, vals)
                })
            })
            .collect();
        for (slot, handle) in results.iter_mut().zip(handles) {
            *slot = Some(handle.join().unwrap());
        }
    });
    device.shutdown();
    results.into_iter().map(|r| r.unwrap()).collect()
}

/// Three overlapped clients on a single worker must be byte-identical to
/// the same three clients run serially, and their reports must carry three
/// distinct non-zero region ids.
#[test]
fn overlapped_clients_match_serial_byte_for_byte() {
    with_timeout(WATCHDOG, || {
        let clients: Vec<Vec<f64>> =
            vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0], vec![5.0, 5.0, 5.0, 5.0]];
        let serial = serial_outcomes(1, &clients);
        let concurrent = concurrent_outcomes(1, &clients, &[0, 150, 300]);
        let mut regions: Vec<u64> = concurrent.iter().map(|(r, _)| *r).collect();
        for (i, ((region, got), want)) in concurrent.iter().zip(&serial).enumerate() {
            assert_ne!(*region, 0, "client {i} got the default epoch");
            assert_eq!(got, want, "client {i} diverged from serial");
            assert_eq!(got.output, vec![2.0 * clients[i].iter().sum::<f64>()]);
        }
        regions.sort_unstable();
        regions.dedup();
        assert_eq!(regions.len(), clients.len(), "region ids collided");
    });
}

/// Seeded interleavings: random client counts, payloads, and start
/// staggers. Every interleaving must reproduce the serial outcomes
/// exactly.
#[test]
fn seeded_interleavings_match_serial() {
    with_timeout(WATCHDOG, || {
        for seed in 0..4u64 {
            let mut rng = Rng::new(0x5eed_0000 + seed);
            let clients: Vec<Vec<f64>> = (0..rng.range_usize(2, 5))
                .map(|_| {
                    (0..rng.range_usize(1, 6)).map(|i| rng.range(0, 50) as f64 + i as f64).collect()
                })
                .collect();
            let stagger: Vec<u64> = (0..clients.len()).map(|_| rng.range(0, 800)).collect();
            let serial = serial_outcomes(1, &clients);
            let concurrent = concurrent_outcomes(1, &clients, &stagger);
            for (i, ((_, got), want)) in concurrent.iter().zip(&serial).enumerate() {
                assert_eq!(got, want, "seed {seed} client {i} diverged from serial");
            }
        }
    });
}

/// With `max_concurrent_regions: 1` the admission gate serializes eager
/// clients FIFO: all of them complete, with distinct region epochs, and
/// the device-level epoch counter advances once per client.
#[test]
fn admission_gate_serializes_when_limit_is_one() {
    with_timeout(WATCHDOG, || {
        let clients: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64 + 1.0]).collect();
        let mut device = ClusterDevice::with_config(
            1,
            OmpcConfig { max_concurrent_regions: 1, ..config_for(1) },
        );
        let (sum, double) = register_kernels(&device);
        let mut results: Vec<(u64, ClientOutcome)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter()
                .map(|vals| {
                    let device = &device;
                    scope.spawn(move || run_client(device, sum, double, vals))
                })
                .collect();
            for handle in handles {
                results.push(handle.join().unwrap());
            }
        });
        let epoch = device.region_epoch();
        device.shutdown();
        assert_eq!(epoch, clients.len() as u64);
        let mut regions: Vec<u64> = results.iter().map(|(r, _)| *r).collect();
        regions.sort_unstable();
        assert_eq!(regions, vec![1, 2, 3]);
        for (i, (_, outcome)) in results.iter().enumerate() {
            assert_eq!(outcome.output, vec![2.0 * clients[i][0]]);
        }
    });
}

/// Load-aware incremental scheduling: while region 1's long kernel holds
/// worker 1, an overlapped region admitted mid-flight must see region 1's
/// reserved load and place its own kernel on the *other* worker.
#[test]
fn overlapped_region_is_planned_around_inflight_load() {
    with_timeout(WATCHDOG, || {
        let mut device = ClusterDevice::with_config(
            2,
            OmpcConfig { max_concurrent_regions: 2, ..OmpcConfig::small() },
        );
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let started_tx = std::sync::Mutex::new(started_tx);
        let release_rx = std::sync::Mutex::new(release_rx);
        let blocker = device.register_kernel_fn("blocker", 10.0, move |args| {
            started_tx.lock().unwrap().send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
            args.set_f64s(0, &[1.0]);
        });
        let quick = device.register_kernel_fn("quick", 1e-6, |args| {
            args.set_f64s(0, &[2.0]);
        });

        std::thread::scope(|scope| {
            let device_ref = &device;
            let long_region = scope.spawn(move || {
                let mut region = device_ref.target_region();
                let out = region.map_alloc(8);
                let t = region.target(blocker, vec![Dependence::output(out)]);
                let (_, record) = region.run_recorded().unwrap();
                record.assignment[t.0]
            });
            // Only launch the second client once region 1's kernel is
            // actually executing, so its reserved load is registered.
            started_rx.recv().unwrap();
            let mut region = device.target_region();
            let out = region.map_alloc(8);
            let t = region.target(quick, vec![Dependence::output(out)]);
            let (_, record) = region.run_recorded().unwrap();
            let quick_node = record.assignment[t.0];
            release_tx.send(()).unwrap();
            let blocker_node = long_region.join().unwrap();
            assert_ne!(
                quick_node, blocker_node,
                "the overlapped region must be planned around the in-flight load"
            );
        });
        device.shutdown();
    });
}

/// The supported shared-buffer tenancy shape: a buffer whose device
/// placement is already settled (here: made resident by an earlier,
/// completed region) can be read by overlapped tenants with **no**
/// retransfer — residency is shared, and neither tenant's transfer log
/// mentions the shared buffer.
#[test]
fn overlapped_tenants_share_settled_resident_buffer() {
    with_timeout(WATCHDOG, || {
        let mut device = ClusterDevice::with_config(1, config_for(2));
        let sum = device.register_kernel_fn("sum", 1e-6, |args| {
            let total: f64 = args.as_f64s(0).iter().sum();
            args.set_f64s(1, &[total]);
        });
        // Settle the shared input on the worker first.
        let shared = {
            let mut region = device.target_region();
            let shared = region.map_to_resident_f64s(&[3.0, 4.0]);
            let out = region.map_alloc(8);
            region.target(sum, vec![Dependence::input(shared), Dependence::output(out)]);
            region.map_from(out);
            region.run().unwrap();
            shared
        };
        let outcomes: Vec<(Vec<f64>, Vec<TransferRecord>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let device = &device;
                    scope.spawn(move || {
                        let mut region = device.target_region();
                        let out = region.map_alloc(8);
                        region
                            .target(sum, vec![Dependence::input(shared), Dependence::output(out)]);
                        region.map_from(out);
                        let (_, record) = region.run_recorded().unwrap();
                        (device.buffer_f64s(out).unwrap(), record.transfers)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        device.shutdown();
        for (output, transfers) in &outcomes {
            assert_eq!(output, &vec![7.0]);
            assert!(
                transfers.iter().all(|t| t.buffer != shared),
                "a settled resident buffer must not be retransferred"
            );
        }
    });
}
