//! The asynchronous data path proven byte-identical to the synchronous
//! one: seeded interleavings race `enter_data_async` jobs, host reads,
//! region launches, and `exit_data` against each other, and every run must
//! produce the same bytes and the same per-region transfer plan as the
//! synchronous path executing the identical op script. The interleaving
//! diversity comes from the device's test-only hold gate
//! (`debug_hold_async_transfers`): the seed decides when async jobs are
//! frozen and released, so each seed is a reproducible schedule. Everything
//! runs under ompc-testutil's 120 s watchdog.

use ompc::prelude::*;
use ompc_testutil::{with_timeout, Rng};
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(120);

/// Seeded interleavings (the floor is 20).
const INTERLEAVINGS: u64 = 20;

fn async_config(enter_data_async: bool) -> OmpcConfig {
    OmpcConfig {
        enter_data_async,
        // Serial dispatch window: the regime where async and sync transfer
        // plans are comparable entry for entry.
        max_inflight_tasks: 1,
        ..OmpcConfig::small()
    }
}

/// The reader kernel used throughout: out[0] = sum of the input.
fn register_sum(device: &ClusterDevice) -> KernelId {
    device.register_kernel_fn("sum", 1e-6, |args| {
        let total: f64 = args.as_f64s(0).iter().sum();
        args.set_f64s(1, &[total]);
    })
}

fn sorted(mut transfers: Vec<TransferRecord>) -> Vec<TransferRecord> {
    transfers.sort_by_key(|t| (t.buffer, t.from, t.to, t.bytes));
    transfers
}

/// Everything observable about one scripted run, in script order.
#[derive(Debug, Default, PartialEq)]
struct Observed {
    /// Per-region transfer plans (sorted — "set-identical").
    region_transfers: Vec<Vec<TransferRecord>>,
    /// Region outputs, host reads, and post-exit reads, byte for byte.
    outputs: Vec<f64>,
    host_reads: Vec<Vec<u8>>,
    /// Final host contents of every buffer ever entered.
    finals: Vec<Vec<u8>>,
}

/// Run the op script derived from `seed` on a fresh device. Both modes
/// draw **exactly the same** random values in the same order — async-only
/// decisions (hold/release, ticket awaits) are drawn unconditionally and
/// ignored in sync mode — so the scripts are aligned step for step.
fn scripted_run(seed: u64, use_async: bool) -> Observed {
    let mut rng = Rng::new(seed);
    let workers = rng.range_usize(2, 4);
    let mut device = ClusterDevice::with_config(workers, async_config(use_async));
    let sum = register_sum(&device);

    let mut observed = Observed::default();
    // Buffers entered but not yet read by a region, oldest first.
    let mut pending: Vec<BufferId> = Vec::new();
    // Buffers some region has read (still mapped on the device).
    let mut consumed: Vec<BufferId> = Vec::new();
    let mut entered: Vec<BufferId> = Vec::new();
    let mut tickets: Vec<Ticket> = Vec::new();
    let mut held = false;

    let release = |device: &ClusterDevice, held: &mut bool| {
        if use_async && *held {
            device.debug_hold_async_transfers(false);
            *held = false;
        }
    };

    for _step in 0..14 {
        match rng.range(0, 10) {
            // Enter a fresh buffer; the async job may start frozen so it
            // races a seed-chosen number of later ops.
            0..=3 => {
                let len = rng.range_usize(1, 9);
                let vals: Vec<f64> =
                    (0..len).map(|i| rng.range(0, 1000) as f64 + i as f64).collect();
                let hold_this = rng.range(0, 2) == 0;
                let await_now = rng.range(0, 3) == 0;
                let buffer = if use_async {
                    if hold_this && !held {
                        device.debug_hold_async_transfers(true);
                        held = true;
                    }
                    let (buffer, ticket) = device.enter_data_async_f64s(&vals);
                    tickets.push(ticket);
                    buffer
                } else {
                    device.enter_data_f64s(&vals)
                };
                pending.push(buffer);
                entered.push(buffer);
                if await_now && use_async {
                    release(&device, &mut held);
                    device.await_transfer(*tickets.last().unwrap()).unwrap();
                }
            }
            // Launch a region reading the oldest pending buffer: in async
            // mode its first reader awaits the (possibly still in-flight)
            // enter-data transfer in place.
            4..=6 => {
                if pending.is_empty() {
                    continue;
                }
                release(&device, &mut held);
                let input = pending.remove(0);
                let mut region = device.target_region();
                let out = region.map_alloc(8);
                region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
                region.map_from(out);
                region.run().unwrap();
                let record = device.last_run_record().unwrap();
                observed.region_transfers.push(sorted(record.transfers));
                observed.outputs.push(device.buffer_f64s(out).unwrap()[0]);
                consumed.push(input);
            }
            // Host read of a device-resident buffer — the lazy-flush path;
            // async mode may overlap it with a double-buffered flush job.
            7..=8 => {
                if consumed.is_empty() {
                    continue;
                }
                let pick = rng.range_usize(0, consumed.len());
                let await_now = rng.range(0, 2) == 0;
                let buffer = consumed[pick];
                if use_async {
                    release(&device, &mut held);
                    let ticket = device.flush_async(buffer).unwrap();
                    if await_now {
                        device.await_transfer(ticket).unwrap();
                    }
                }
                observed.host_reads.push(device.buffer_data(buffer).unwrap());
            }
            // End a mapping: the flush + release must serialize behind any
            // transfer of the buffer still in flight.
            _ => {
                if consumed.is_empty() {
                    continue;
                }
                let pick = rng.range_usize(0, consumed.len());
                let buffer = consumed.remove(pick);
                release(&device, &mut held);
                device.exit_data(buffer).unwrap();
                observed.host_reads.push(device.buffer_data(buffer).unwrap());
            }
        }
    }

    release(&device, &mut held);
    if use_async {
        for ticket in tickets {
            device.await_transfer(ticket).unwrap();
        }
    }
    for &buffer in &entered {
        observed.finals.push(device.buffer_data(buffer).unwrap());
    }
    device.shutdown();
    observed
}

/// ≥20 seeded interleavings: results and per-region transfer plans
/// byte/set-identical to the synchronous path — a first reader parked on
/// the head behind an in-flight ticket is observably indistinguishable from
/// the synchronous distribution.
#[test]
fn async_interleavings_match_sync_path_mpi() {
    with_timeout(WATCHDOG, || {
        for seed in 0..INTERLEAVINGS {
            let sync = scripted_run(seed, false);
            let async_ = scripted_run(seed, true);
            assert_eq!(sync, async_, "seed {seed}: async run diverged from the sync path");
        }
    });
}

/// The ticket surface: `enter_data_async` returns immediately even with
/// the wire frozen, awaiting is optional and idempotent, unknown tickets
/// read as completed, and the data is correct end to end.
#[test]
fn enter_data_async_tickets_resolve_and_overlap() {
    with_timeout(WATCHDOG, || {
        let mut device = ClusterDevice::with_config(2, async_config(true));
        let sum = register_sum(&device);
        device.debug_hold_async_transfers(true);
        // Returns with the transfer frozen: the entry point is provably
        // non-blocking.
        let (input, ticket) = device.enter_data_async_f64s(&[1.0, 2.0, 3.0]);
        device.debug_hold_async_transfers(false);
        device.await_transfer(ticket).unwrap();
        // Awaiting twice (and awaiting a ticket never issued) is fine.
        device.await_transfer(ticket).unwrap();
        device.await_transfer(Ticket(u64::MAX)).unwrap();
        let mut region = device.target_region();
        let out = region.map_alloc(8);
        region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
        region.map_from(out);
        region.run().unwrap();
        assert_eq!(
            device.buffer_f64s(out).unwrap()[0],
            6.0,
            "region must read the async-entered data"
        );
        device.shutdown();
    });
}

/// Regression test for the latent double-flush: a host read racing an
/// in-flight retrieval of the same buffer must wait for it instead of
/// scheduling a second retrieve. The hold gate freezes the async flush so
/// the reader provably lands inside the race window.
#[test]
fn concurrent_flushes_schedule_exactly_one_retrieve() {
    with_timeout(WATCHDOG, || {
        let device = std::sync::Arc::new(ClusterDevice::with_config(2, async_config(false)));
        let sum = register_sum(&device);
        let input = device.enter_data_f64s(&[4.0, 5.0]);
        let mut region = device.target_region();
        let out = region.map_alloc(8);
        region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
        region.run().unwrap();
        // `out` now lives on a worker and the host copy is stale.
        device.take_unattributed_transfers();

        // Freeze the async flush mid-flight, then read from the host:
        // the read must block on the booked retrieval, not start its own.
        device.debug_hold_async_transfers(true);
        let ticket = device.flush_async(out).unwrap();
        // A second async flush of the same buffer piggybacks on the
        // first booking instead of scheduling a duplicate.
        let ticket2 = device.flush_async(out).unwrap();
        assert_eq!(ticket, ticket2, "duplicate flush booked");
        let reader = {
            let device = std::sync::Arc::clone(&device);
            std::thread::spawn(move || device.buffer_data(out).unwrap())
        };
        // Give the reader time to reach the wait, then release the job.
        std::thread::sleep(Duration::from_millis(50));
        device.debug_hold_async_transfers(false);
        device.await_transfer(ticket).unwrap();
        assert_eq!(
            reader.join().unwrap(),
            device.buffer_data(out).unwrap(),
            "racing readers saw different bytes"
        );
        assert_eq!(device.buffer_f64s(out).unwrap()[0], 9.0);

        let retrieves: Vec<TransferRecord> =
            device.take_unattributed_transfers().into_iter().filter(|t| t.buffer == out).collect();
        assert_eq!(retrieves.len(), 1, "one flush must reach the wire, got {retrieves:?}");

        // The purely synchronous race: many threads call `buffer_data`
        // at once; the in-flight table serializes them onto one retrieve.
        let mut region = device.target_region();
        let out2 = region.map_alloc(8);
        region.target(sum, vec![Dependence::input(input), Dependence::output(out2)]);
        region.run().unwrap();
        device.take_unattributed_transfers();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let device = std::sync::Arc::clone(&device);
                std::thread::spawn(move || device.buffer_data(out2).unwrap())
            })
            .collect();
        let reads: Vec<Vec<u8>> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        assert!(reads.windows(2).all(|w| w[0] == w[1]));
        let retrieves =
            device.take_unattributed_transfers().into_iter().filter(|t| t.buffer == out2).count();
        assert_eq!(retrieves, 1, "concurrent host reads double-flushed");
        match std::sync::Arc::try_unwrap(device) {
            Ok(mut device) => device.shutdown(),
            Err(_) => panic!("a reader thread leaked the device"),
        }
    });
}

/// Region-level `map(to:)` inputs stream through the async prefetch
/// engine when `enter_data_async` is set: admission books the enter-data
/// transfers in flight before the backend starts, the backend's own
/// enter-data tasks await those bookings instead of re-planning, and the
/// adopted records leave the region's transfer plan **identical** to the
/// synchronous run — same buffers, sources, destinations, bytes, reasons.
#[test]
fn streamed_map_to_inputs_keep_transfer_plan_identity() {
    fn scripted(stream: bool) -> (Vec<f64>, Vec<Vec<TransferRecord>>) {
        let mut device = ClusterDevice::with_config(2, async_config(stream));
        let sum = register_sum(&device);
        let mut outputs = Vec::new();
        let mut plans = Vec::new();
        for round in 0..3 {
            let mut region = device.target_region();
            let a = region.map_to_f64s(&[round as f64 + 1.0, 2.0]);
            let b = region.map_to_f64s(&[10.0, 20.0, 30.0 + round as f64]);
            let out_a = region.map_alloc(8);
            let out_b = region.map_alloc(8);
            region.target(sum, vec![Dependence::input(a), Dependence::output(out_a)]);
            region.target(sum, vec![Dependence::input(b), Dependence::output(out_b)]);
            region.map_from(out_a);
            region.map_from(out_b);
            let (_, record) = region.run_recorded().unwrap();
            outputs.push(device.buffer_f64s(out_a).unwrap()[0]);
            outputs.push(device.buffer_f64s(out_b).unwrap()[0]);
            // Normalize buffer ids to their offset within the round so the
            // two devices' logs compare entry for entry.
            let base = a;
            let mut plan: Vec<TransferRecord> = record
                .transfers
                .iter()
                .map(|t| TransferRecord { buffer: BufferId(t.buffer.0 - base.0), ..*t })
                .collect();
            plan.sort_by_key(|t| (t.buffer, t.from, t.to, t.bytes));
            plans.push(plan);
        }
        device.shutdown();
        (outputs, plans)
    }

    with_timeout(WATCHDOG, || {
        let sync = scripted(false);
        let streamed = scripted(true);
        assert_eq!(sync.0, streamed.0, "streamed outputs diverged");
        assert_eq!(sync.1, streamed.1, "streamed map(to:) changed the region transfer plan");
        // The plan is not vacuously empty: every round distributes its
        // two fresh inputs.
        for plan in &streamed.1 {
            assert_eq!(
                plan.iter().filter(|t| t.reason == TransferReason::EnterData).count(),
                2,
                "expected both map(to:) distributions in the plan"
            );
        }
    });
}

/// Cross-region prefetch through `run_pipeline`: outputs and the final
/// region's transfer plan match the sequential reference, and the prefetch
/// planner never duplicates a transfer for data that is already
/// worker-resident (or consumed by an earlier queued region).
#[test]
fn pipeline_prefetch_matches_sequential_and_never_duplicates() {
    with_timeout(WATCHDOG, || {
        let data: Vec<Vec<f64>> =
            (0..4).map(|i| (0..4).map(|j| (i * 7 + j) as f64).collect()).collect();

        // Sequential reference: same regions, run one by one.
        let reference = {
            let mut device = ClusterDevice::with_config(2, async_config(false));
            let sum = register_sum(&device);
            let inputs: Vec<BufferId> = data.iter().map(|d| device.enter_data_f64s(d)).collect();
            let mut outputs = Vec::new();
            let mut last = Vec::new();
            for &input in &inputs {
                let mut region = device.target_region();
                let out = region.map_alloc(8);
                region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
                region.map_from(out);
                region.run().unwrap();
                outputs.push(device.buffer_f64s(out).unwrap()[0]);
                last = sorted(device.last_run_record().unwrap().transfers);
            }
            device.shutdown();
            (outputs, last)
        };

        // Pipelined run with cross-region prefetch two regions deep.
        let config = OmpcConfig { prefetch_depth: 2, ..async_config(false) };
        let mut device = ClusterDevice::with_config(2, config);
        let sum = register_sum(&device);
        let inputs: Vec<BufferId> = data.iter().map(|d| device.enter_data_f64s(d)).collect();
        let mut outs = Vec::new();
        let regions: Vec<TargetRegion<'_>> = inputs
            .iter()
            .map(|&input| {
                let mut region = device.target_region();
                let out = region.map_alloc(8);
                region.target(sum, vec![Dependence::input(input), Dependence::output(out)]);
                region.map_from(out);
                outs.push(out);
                region
            })
            .collect();
        let reports = device.run_pipeline(regions).unwrap();
        assert_eq!(reports.len(), 4);
        let outputs: Vec<f64> =
            outs.iter().map(|&out| device.buffer_f64s(out).unwrap()[0]).collect();
        assert_eq!(outputs, reference.0, "pipeline changed the results");
        // The adopted prefetch records make the final region's plan
        // identical to the sequential one: one Input transfer, same
        // source, same destination, same bytes.
        let last = sorted(device.last_run_record().unwrap().transfers);
        assert_eq!(last, reference.1, "pipelined transfer plan diverged from sequential");

        // Never-duplicate, hazard rule: a pipeline whose regions read
        // the *same* buffer must not prefetch it (an earlier queued
        // region still touches it) — the second region reads the
        // resident copy, moving nothing.
        let repeat = inputs[0];
        let regions: Vec<TargetRegion<'_>> = (0..2)
            .map(|_| {
                let mut region = device.target_region();
                let out = region.map_alloc(8);
                region.target(sum, vec![Dependence::input(repeat), Dependence::output(out)]);
                region.map_from(out);
                region
            })
            .collect();
        device.run_pipeline(regions).unwrap();
        let record = device.last_run_record().unwrap();
        assert!(
            record
                .transfers
                .iter()
                .all(|t| t.buffer != repeat || t.reason != TransferReason::Input),
            "prefetch duplicated a worker-resident buffer: {:?}",
            record.transfers
        );
        device.shutdown();
    });
}
