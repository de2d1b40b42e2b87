//! Integration tests of the runtime telemetry subsystem: lifecycle spans
//! recorded on the real cluster must nest correctly on the shared
//! monotonic clock, retirement spans must track execution attempts exactly
//! (including under injected node failures), and telemetry must be purely
//! observational — a run at `TelemetryLevel::Off` produces the same
//! `RunRecord` (modulo the then-empty span list) as a run at `Spans`.

use ompc::prelude::*;
use ompc::sched::TaskGraph;
use ompc_testutil::with_timeout;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const WATCHDOG: Duration = Duration::from_secs(120);

/// Spin until `started` is 2 µs old: a kernel body that outlasts one tick of
/// the µs span clock, so its compute span can never read 0.
fn outlast_a_clock_tick(started: Instant) {
    while started.elapsed() < Duration::from_micros(2) {
        std::hint::spin_loop();
    }
}

fn spans_config() -> OmpcConfig {
    OmpcConfig { telemetry: TelemetryLevel::Spans, ..OmpcConfig::small() }
}

/// Run the Listing-1-style chain (`plus_one` then `times_ten` on one
/// vector) on a two-worker device and return the final bytes plus the
/// run record.
fn run_chain(config: OmpcConfig) -> (Vec<f64>, RunRecord) {
    let mut device = ClusterDevice::with_config(2, config);
    let plus_one = device.register_kernel_fn("plus-one", 1e-5, |args| {
        let started = Instant::now();
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x + 1.0).collect();
        args.set_f64s(0, &v);
        outlast_a_clock_tick(started);
    });
    let times_ten = device.register_kernel_fn("times-ten", 1e-5, |args| {
        let started = Instant::now();
        let v: Vec<f64> = args.as_f64s(0).iter().map(|x| x * 10.0).collect();
        args.set_f64s(0, &v);
        outlast_a_clock_tick(started);
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

/// A three-task chain workload and the fixed plan it executes under —
/// completion order is forced by the dependences, so the records
/// of two runs are comparable field by field.
fn chain_workload() -> (WorkloadGraph, RuntimePlan) {
    let mut g = TaskGraph::new();
    for _ in 0..3 {
        g.add_task(0.001);
    }
    g.add_edge(0, 1, 256);
    g.add_edge(1, 2, 256);
    let workload = WorkloadGraph::new(g, vec![256; 3]);
    let plan = RuntimePlan { assignment: vec![1, 1, 2], window: 4 };
    (workload, plan)
}

#[test]
fn spans_nest_on_the_shared_clock_on_both_real_backends() {
    with_timeout(WATCHDOG, || {
        let (result, record) = run_chain(spans_config());
        assert_eq!(result, vec![20.0, 30.0, 40.0, 50.0]);
        assert!(!record.spans.is_empty(), "a Spans run records spans");
        for span in &record.spans {
            assert!(span.end_us >= span.start_us, "span ends never precede their start: {span:?}");
        }
        // The lifecycle phases of a real dispatch all appear, the
        // wire-protocol ones (per-payload sends, worker replies, train
        // envelopes) included.
        let expected = [
            SpanPhase::Schedule,
            SpanPhase::Dispatch,
            SpanPhase::Serialize,
            SpanPhase::WorkerRecv,
            SpanPhase::WorkerAwait,
            SpanPhase::Compute,
            SpanPhase::Retire,
            SpanPhase::Send,
            SpanPhase::Reply,
            SpanPhase::TrainFlush,
        ];
        for phase in expected {
            assert!(
                record.spans.iter().any(|s| s.phase == phase),
                "the chain run records a {phase:?} span"
            );
        }
        // Head-side phases sit on node 0, kernel bodies on workers.
        for span in &record.spans {
            match span.phase {
                SpanPhase::Schedule | SpanPhase::Dispatch | SpanPhase::Retire => {
                    assert_eq!(span.node, 0, "{span:?} belongs to the head")
                }
                SpanPhase::Compute => {
                    assert!(span.node >= 1, "kernels run on workers: {span:?}")
                }
                _ => {}
            }
        }
        // Worker-side nesting per attempt: the receive stamp opens the
        // await window, the kernel body starts inside it, and the head
        // retires the task only after the kernel body ended.
        for compute in record.spans.iter().filter(|s| s.phase == SpanPhase::Compute) {
            let key = (compute.task, compute.attempt);
            let recv = record
                .spans
                .iter()
                .find(|s| s.phase == SpanPhase::WorkerRecv && (s.task, s.attempt) == key)
                .unwrap_or_else(|| panic!("no WorkerRecv for {key:?}"));
            let await_span = record
                .spans
                .iter()
                .find(|s| s.phase == SpanPhase::WorkerAwait && (s.task, s.attempt) == key)
                .unwrap_or_else(|| panic!("no WorkerAwait for {key:?}"));
            let retire = record
                .spans
                .iter()
                .find(|s| s.phase == SpanPhase::Retire && (s.task, s.attempt) == key)
                .unwrap_or_else(|| panic!("no Retire for {key:?}"));
            assert!(recv.start_us <= await_span.start_us);
            assert!(await_span.start_us <= compute.start_us);
            assert!(compute.start_us <= compute.end_us);
            assert!(
                retire.start_us >= compute.end_us,
                "task {key:?} retired before its kernel body ended"
            );
        }
        // The derived views hold together: every bucket total is
        // within the wall window, and the critical path is a
        // time-respecting chain ending at the last span.
        let attribution = record.attribution();
        assert!(attribution.wall_us > 0);
        assert!(attribution.compute_us > 0, "kernel bodies were measured");
        let path = record.critical_path();
        assert!(!path.is_empty());
        // The extractor returns the chain in ascending time order:
        // each hop finishes before the next one starts.
        for pair in path.windows(2) {
            assert!(
                pair[0].end_us <= pair[1].start_us,
                "critical path is not a time-respecting chain"
            );
        }
    });
}

#[test]
fn exactly_one_retire_span_per_attempt_under_injected_failure() {
    with_timeout(WATCHDOG, || {
        let (clean, clean_record) = run_chain(spans_config());
        let victim = clean_record.assignment[1];
        assert!(victim >= 1, "the first kernel runs on a worker");
        let config = OmpcConfig {
            fault_plan: FaultPlan::none().fail_after_completions(victim, 2),
            ..spans_config()
        };
        let (recovered, record) = run_chain(config);
        assert_eq!(recovered, clean, "recovery reproduces the failure-free bytes");
        assert_eq!(record.failures.len(), 1);
        assert!(!record.reexecuted.is_empty());

        // One Retire span per retirement, keyed (task, attempt):
        // re-executions retire again at a higher attempt, stale
        // completions from the dead node retire nothing.
        let retires: Vec<_> =
            record.spans.iter().filter(|s| s.phase == SpanPhase::Retire).collect();
        assert_eq!(
            retires.len(),
            record.completion_order.len(),
            "every retirement records exactly one Retire span"
        );
        let mut seen: HashMap<(Option<usize>, u32), usize> = HashMap::new();
        for retire in &retires {
            *seen.entry((retire.task, retire.attempt)).or_insert(0) += 1;
        }
        assert!(seen.values().all(|&n| n == 1), "no (task, attempt) pair retires twice: {seen:?}");
        for &task in &record.reexecuted {
            assert!(
                retires.iter().any(|s| s.task == Some(task) && s.attempt >= 1),
                "re-executed task {task} retires at a later attempt"
            );
        }
        // The failure's replanning is visible on the timeline.
        assert!(
            record.spans.iter().any(|s| s.phase == SpanPhase::Replan),
            "the recovery replan records a span"
        );
    });
}

#[test]
fn telemetry_off_is_observationally_identical_on_both_real_backends() {
    with_timeout(WATCHDOG, || {
        let (workload, plan) = chain_workload();
        let run = |level: TelemetryLevel| {
            let config = OmpcConfig { telemetry: level, ..spans_config() };
            let mut device = ClusterDevice::with_config(2, config);
            let record = device.run_workload(&workload, &plan).unwrap();
            device.shutdown();
            record
        };
        let off = run(TelemetryLevel::Off);
        let mut spans = run(TelemetryLevel::Spans);
        assert!(off.spans.is_empty(), "Off records no spans");
        assert!(!spans.spans.is_empty(), "Spans records the timeline");
        spans.spans = Vec::new();
        assert_eq!(off, spans, "spans are observational — the record is identical modulo them");
    });
}

/// Overlapped regions own their timelines: each client's record carries
/// spans tagged with *its* region epoch, and a combined Chrome trace
/// renders the tenants as separate process rows (`pid` = region), so an
/// overlapped run is readable instead of one interleaved soup.
#[test]
fn overlapped_regions_render_as_separate_trace_rows() {
    with_timeout(WATCHDOG, || {
        let config = OmpcConfig { max_concurrent_regions: 2, ..spans_config() };
        let mut device = ClusterDevice::with_config(2, config);
        let sum = device.register_kernel_fn("sum", 1e-6, |args| {
            let total: f64 = args.as_f64s(0).iter().sum();
            args.set_f64s(1, &[total]);
        });
        let results: Vec<(RegionReport, RunRecord)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let device = &device;
                    scope.spawn(move || {
                        let mut region = device.target_region();
                        let a = region.map_to_f64s(&[i as f64 + 1.0, 2.0]);
                        let out = region.map_alloc(8);
                        region.target(sum, vec![Dependence::input(a), Dependence::output(out)]);
                        region.map_from(out);
                        region.run_recorded().unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        device.shutdown();

        let regions: Vec<u64> = results.iter().map(|(report, _)| report.region).collect();
        assert_ne!(regions[0], regions[1], "tenants share a region id");
        for (report, record) in &results {
            // The lifecycle spans of this client's record are tagged
            // with this client's epoch — never a neighbour's. (Device-
            // level spans drained alongside may be untagged; region-
            // tagged spans must be ours.)
            let lifecycle = [SpanPhase::Schedule, SpanPhase::Dispatch, SpanPhase::Compute];
            for phase in lifecycle {
                let spans: Vec<_> = record.spans.iter().filter(|s| s.phase == phase).collect();
                assert!(!spans.is_empty(), "no {phase:?} span recorded");
                for span in spans {
                    assert_eq!(
                        span.region,
                        Some(report.region),
                        "{phase:?} span tagged with a foreign region: {span:?}"
                    );
                }
            }
        }

        // A combined trace of both tenants renders one process row
        // group per region epoch.
        let mut all_spans: Vec<Span> = Vec::new();
        for (_, record) in &results {
            all_spans.extend(record.spans.iter().cloned());
        }
        let text = chrome_trace(&all_spans, "overlap").to_string_pretty();
        for &region in &regions {
            assert!(
                text.contains(&format!("overlap · region {region}")),
                "trace is missing the row group for region {region}"
            );
        }
    });
}

/// The attribution closes: the busy buckets plus the idle time account for
/// the wall window of every node with a span, within 2 %, on a
/// dispatch-shaped graph — Stencil-1D, 8 points × 32 steps, the points split
/// four and four over two workers so every step crosses — whose consumers
/// are held on their workers: held cars move time from the head's
/// completion wait into worker `WorkerAwait` spans, and nothing may be
/// counted twice or lost on the way.
#[test]
fn attribution_closes_over_a_run_whose_cars_are_held() {
    with_timeout(WATCHDOG, || {
        let (points, steps): (usize, usize) = (8, 32);
        let mut g = TaskGraph::new();
        for _ in 0..points * steps {
            g.add_task(1e-5);
        }
        for step in 1..steps {
            for point in 0..points {
                for from in point.saturating_sub(1)..=(point + 1).min(points - 1) {
                    g.add_edge((step - 1) * points + from, step * points + point, 16);
                }
            }
        }
        let workload = WorkloadGraph::new(g, vec![16; points * steps]);
        let halves = (0..points * steps).map(|t| if t % points < points / 2 { 1 } else { 2 });
        let plan = RuntimePlan { assignment: halves.collect(), window: 48 };
        let mut device = ClusterDevice::with_config(2, spans_config());
        let record = device.run_workload(&workload, &plan).unwrap();
        device.shutdown();
        assert!(record.peak_in_flight > points, "no car was held: {}", record.peak_in_flight);
        let a = record.attribution();
        let busy = a.scheduling_us + a.serialization_us + a.wire_us + a.compute_us;
        let nodes: std::collections::BTreeSet<usize> =
            record.spans.iter().map(|s| s.node).collect();
        let closure = (busy + a.idle_us) as f64 / (a.wall_us as f64 * nodes.len() as f64);
        assert!((0.98..=1.02).contains(&closure), "closure {closure:.4} over {nodes:?}: {a:?}");
    });
}

#[test]
fn chrome_trace_export_is_valid_for_a_real_run() {
    with_timeout(WATCHDOG, || {
        let (_, record) = run_chain(spans_config());
        let trace = chrome_trace(&record.spans, "mpi chain");
        let text = trace.to_string_pretty();
        assert!(text.starts_with('{'));
        assert!(text.contains("traceEvents"));
        assert!(text.contains("\"ph\""), "the export carries trace events");
        // Attribution shares sum to 1 over the covered wall window.
        let attribution = record.attribution();
        let shares = attribution.scheduling_us
            + attribution.serialization_us
            + attribution.wire_us
            + attribution.compute_us
            + attribution.idle_us;
        assert!(shares > 0);
    });
}
